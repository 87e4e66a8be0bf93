//! The compile/instrument cache: at most one compile per distinct source.
//!
//! Batch runs over a corpus repeatedly need the same program in up to two
//! forms — instrumented (for LDX dual execution) and plain (for native
//! baselines and ablations). [`InstrumentCache`] keys both by the source
//! text itself and hands out `Arc`s, so a corpus sweep compiles each
//! distinct source exactly once no matter how many jobs, tables, or
//! baseline variants reference it. Hit/compile counters make that
//! guarantee testable.

use ldx_instrument::InstrumentedProgram;
use ldx_ir::IrProgram;
use ldx_lang::LangError;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A cached instrumented compile: the pass output (for reports/FCNT
/// queries) plus the program as a shareable `Arc<IrProgram>` (what the
/// execution engines take).
#[derive(Debug, Clone)]
pub struct CachedInstrumented {
    /// The instrumentation pass output.
    pub instrumented: Arc<InstrumentedProgram>,
    /// The instrumented program, ready for `dual_execute`/`Analysis`.
    pub program: Arc<IrProgram>,
}

/// A concurrent source-keyed cache over compile (+ instrument).
///
/// Thread-safe; workers of a [`BatchEngine`](crate::BatchEngine) may share
/// one cache. Compilation happens under the shard lock, so two workers
/// racing on the same source still produce **exactly one** compile — the
/// loser waits and gets the cached `Arc`.
#[derive(Debug, Default)]
pub struct InstrumentCache {
    instrumented: Mutex<HashMap<String, CachedInstrumented>>,
    plain: Mutex<HashMap<String, Arc<IrProgram>>>,
    hits: AtomicU64,
    compiles: AtomicU64,
}

impl InstrumentCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Compile + instrument `source`, or return the cached result.
    ///
    /// # Errors
    ///
    /// Returns the frontend [`LangError`] on invalid source (errors are
    /// not cached; a retried bad source recompiles).
    pub fn instrumented(&self, source: &str) -> Result<CachedInstrumented, LangError> {
        let mut map = self.instrumented.lock();
        if let Some(hit) = map.get(source) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            ldx_obs::counter_add("cache.hits", 1);
            return Ok(hit.clone());
        }
        self.compiles.fetch_add(1, Ordering::Relaxed);
        ldx_obs::counter_add("cache.compiles", 1);
        let _s = ldx_obs::span(ldx_obs::cat::COMPILE, "compile+instrument");
        let resolved = ldx_lang::compile(source)?;
        let instrumented = ldx_instrument::instrument(&ldx_ir::lower(&resolved));
        let entry = CachedInstrumented {
            program: Arc::new(instrumented.program().clone()),
            instrumented: Arc::new(instrumented),
        };
        map.insert(source.to_owned(), entry.clone());
        Ok(entry)
    }

    /// The instrumented program alone (the common batch-job ingredient).
    ///
    /// # Errors
    ///
    /// Returns the frontend [`LangError`] on invalid source.
    pub fn program(&self, source: &str) -> Result<Arc<IrProgram>, LangError> {
        Ok(self.instrumented(source)?.program)
    }

    /// Compile `source` **without** instrumentation (native baselines,
    /// ablations), or return the cached result. Counted separately from
    /// the instrumented form: the two are distinct compiles.
    ///
    /// # Errors
    ///
    /// Returns the frontend [`LangError`] on invalid source.
    pub fn uninstrumented(&self, source: &str) -> Result<Arc<IrProgram>, LangError> {
        let mut map = self.plain.lock();
        if let Some(hit) = map.get(source) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            ldx_obs::counter_add("cache.hits", 1);
            return Ok(Arc::clone(hit));
        }
        self.compiles.fetch_add(1, Ordering::Relaxed);
        ldx_obs::counter_add("cache.compiles", 1);
        let _s = ldx_obs::span(ldx_obs::cat::COMPILE, "compile-plain");
        let resolved = ldx_lang::compile(source)?;
        let program = Arc::new(ldx_ir::lower(&resolved));
        map.insert(source.to_owned(), Arc::clone(&program));
        Ok(program)
    }

    /// Lookups served from cache so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Compiles actually performed (the "exactly one compile per distinct
    /// source" assertion counts these).
    pub fn compiles(&self) -> u64 {
        self.compiles.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC_A: &str = r#"fn main() { write(1, "a"); }"#;
    const SRC_B: &str = r#"fn main() { write(1, "b"); }"#;

    #[test]
    fn one_compile_per_distinct_source() {
        let cache = InstrumentCache::new();
        for _ in 0..5 {
            cache.instrumented(SRC_A).unwrap();
            cache.instrumented(SRC_B).unwrap();
        }
        assert_eq!(cache.compiles(), 2);
        assert_eq!(cache.hits(), 8);
    }

    #[test]
    fn hits_share_the_same_program() {
        let cache = InstrumentCache::new();
        let first = cache.program(SRC_A).unwrap();
        let second = cache.program(SRC_A).unwrap();
        assert!(Arc::ptr_eq(&first, &second));
    }

    #[test]
    fn instrumented_and_plain_forms_are_separate_compiles() {
        // Branchy source: the pass adds compensation, so the two forms
        // must actually differ.
        let src = r#"fn main() {
            if (getpid() > 0) { write(1, "a"); write(1, "b"); }
            close(1);
        }"#;
        let cache = InstrumentCache::new();
        let inst = cache.program(src).unwrap();
        let plain = cache.uninstrumented(src).unwrap();
        assert_eq!(cache.compiles(), 2);
        assert!(!Arc::ptr_eq(&inst, &plain));
        assert_ne!(*inst, *plain, "counters were added");
    }

    #[test]
    fn errors_are_propagated_not_cached() {
        let cache = InstrumentCache::new();
        assert!(cache.instrumented("fn main( {").is_err());
        assert!(cache.instrumented("fn main( {").is_err());
        assert_eq!(cache.compiles(), 2, "bad sources are not cached");
    }

    #[test]
    fn concurrent_lookups_still_compile_once() {
        let cache = Arc::new(InstrumentCache::new());
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let cache = Arc::clone(&cache);
                scope.spawn(move || {
                    for _ in 0..4 {
                        cache.instrumented(SRC_A).unwrap();
                    }
                });
            }
        });
        assert_eq!(cache.compiles(), 1);
        assert_eq!(cache.hits(), 31);
    }
}
