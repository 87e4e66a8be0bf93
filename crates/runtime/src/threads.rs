//! Lx thread identity, the thread registry, and the lock table.

use crate::trap::Trap;
use crate::value::Value;
use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// A structural thread identity: the root thread is `[0]`; the `k`-th
/// thread spawned by a thread `K` is `K + [k+1]`.
///
/// Because it is derived from spawn *structure* rather than creation
/// timing, the same Lx thread has the same key in the master and the slave
/// — this is how the dual-execution engine pairs threads up (paper §7).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ThreadKey(Vec<u32>);

impl ThreadKey {
    /// The root (main) thread.
    pub fn root() -> Self {
        ThreadKey(vec![0])
    }

    /// Whether this is the root thread's key.
    pub fn is_root(&self) -> bool {
        self.0 == [0]
    }

    /// The key of this thread's `index`-th spawned child (0-based).
    pub fn child(&self, index: u32) -> Self {
        let mut v = self.0.clone();
        v.push(index + 1);
        ThreadKey(v)
    }

    /// A deterministic Lx-visible thread id derived from the key: equal in
    /// master and slave for paired threads.
    pub fn tid(&self) -> i64 {
        self.0.iter().fold(7i64, |acc, &d| {
            acc.wrapping_mul(31).wrapping_add(i64::from(d) + 1)
        })
    }
}

impl fmt::Display for ThreadKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t")?;
        for (i, d) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ".")?;
            }
            write!(f, "{d}")?;
        }
        Ok(())
    }
}

/// A cooperative stop signal: set on `exit()`, on any trap, or when the
/// dual-execution engine aborts an execution. Every machine polls it.
#[derive(Debug, Clone, Default)]
pub struct StopSignal(Arc<StopInner>);

#[derive(Debug, Default)]
struct StopInner {
    stopped: AtomicBool,
    exit_code: AtomicI64,
    trap: Mutex<Option<Trap>>,
}

impl StopSignal {
    /// A fresh, unset signal.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cooperative termination with an exit code (Lx `exit`).
    pub fn request_exit(&self, code: i64) {
        self.0.exit_code.store(code, Ordering::SeqCst);
        self.0.stopped.store(true, Ordering::SeqCst);
    }

    /// Requests termination because of a trap; the first trap wins.
    pub fn request_trap(&self, trap: Trap) {
        let mut slot = self.0.trap.lock();
        if slot.is_none() {
            *slot = Some(trap);
        }
        self.0.stopped.store(true, Ordering::SeqCst);
    }

    /// Whether execution should wind down.
    pub fn should_stop(&self) -> bool {
        self.0.stopped.load(Ordering::Relaxed)
    }

    /// The recorded trap, if any.
    pub fn trap(&self) -> Option<Trap> {
        self.0.trap.lock().clone()
    }

    /// The recorded exit code (0 unless `request_exit` was called).
    pub fn exit_code(&self) -> i64 {
        self.0.exit_code.load(Ordering::SeqCst)
    }
}

/// Live Lx thread handles, keyed by deterministic tid.
#[derive(Debug, Default)]
pub struct ThreadRegistry {
    handles: Mutex<HashMap<i64, JoinHandle<Result<Value, Trap>>>>,
}

impl ThreadRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a running thread under `tid`.
    pub fn register(&self, tid: i64, handle: JoinHandle<Result<Value, Trap>>) {
        self.handles.lock().insert(tid, handle);
    }

    /// Joins thread `tid`, returning its Lx value.
    ///
    /// # Errors
    ///
    /// [`Trap::BadJoin`] for unknown tids; the thread's own trap if it
    /// trapped; [`Trap::ThreadPanicked`] if it panicked at the Rust level.
    pub fn join(&self, tid: i64) -> Result<Value, Trap> {
        let handle = self
            .handles
            .lock()
            .remove(&tid)
            .ok_or(Trap::BadJoin { tid })?;
        handle.join().map_err(|_| Trap::ThreadPanicked)?
    }

    /// Joins every remaining thread (used at program teardown). Returns the
    /// first trap encountered, if any.
    pub fn drain(&self) -> Option<Trap> {
        let handles: Vec<_> = {
            let mut map = self.handles.lock();
            map.drain().collect()
        };
        let mut first = None;
        for (_, handle) in handles {
            match handle.join() {
                Ok(Ok(_)) => {}
                Ok(Err(trap)) => first = first.or(Some(trap)),
                Err(_) => first = first.or(Some(Trap::ThreadPanicked)),
            }
        }
        first
    }
}

/// Lx mutexes: `lock(id)` / `unlock(id)` syscalls.
///
/// Real blocking mutual exclusion between Lx threads, with a cooperative
/// escape hatch (the stop signal) so that aborted executions never deadlock.
#[derive(Debug, Default)]
pub struct LockTable {
    held: Mutex<HashMap<i64, ThreadKey>>,
    cv: Condvar,
}

impl LockTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Acquires lock `id` for `owner`, blocking until available. Returns
    /// `false` if the stop signal fired while waiting. Re-acquiring a lock
    /// already held by `owner` succeeds (recursive-friendly, matching the
    /// forgiving behavior workload programs expect).
    pub fn lock(&self, id: i64, owner: &ThreadKey, stop: &StopSignal) -> bool {
        let mut held = self.held.lock();
        loop {
            match held.get(&id) {
                None => {
                    held.insert(id, owner.clone());
                    return true;
                }
                Some(existing) if existing == owner => return true,
                Some(_) => {
                    if stop.should_stop() {
                        return false;
                    }
                    self.cv
                        .wait_for(&mut held, std::time::Duration::from_millis(5));
                }
            }
        }
    }

    /// Releases lock `id`. Releasing a lock that is not held is a no-op
    /// (returns `false`).
    pub fn unlock(&self, id: i64) -> bool {
        let mut held = self.held.lock();
        let was = held.remove(&id).is_some();
        drop(held);
        self.cv.notify_all();
        was
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_keys_are_structural() {
        let root = ThreadKey::root();
        let a = root.child(0);
        let b = root.child(1);
        let aa = a.child(0);
        assert_ne!(a, b);
        assert_ne!(a, aa);
        assert_eq!(a, ThreadKey::root().child(0));
        assert_eq!(a.to_string(), "t0.1");
    }

    #[test]
    fn tids_are_deterministic_and_distinct_for_small_trees() {
        let root = ThreadKey::root();
        let mut seen = std::collections::HashSet::new();
        assert!(seen.insert(root.tid()));
        for i in 0..10 {
            let c = root.child(i);
            assert!(seen.insert(c.tid()));
            for j in 0..10 {
                assert!(seen.insert(c.child(j).tid()));
            }
        }
    }

    #[test]
    fn stop_signal_records_first_trap() {
        let s = StopSignal::new();
        assert!(!s.should_stop());
        s.request_trap(Trap::DivisionByZero);
        s.request_trap(Trap::LongjmpWithoutSetjmp);
        assert!(s.should_stop());
        assert_eq!(s.trap(), Some(Trap::DivisionByZero));
    }

    #[test]
    fn stop_signal_exit_code() {
        let s = StopSignal::new();
        s.request_exit(42);
        assert!(s.should_stop());
        assert_eq!(s.exit_code(), 42);
        assert_eq!(s.trap(), None);
    }

    #[test]
    fn registry_join_unknown_is_trap() {
        let r = ThreadRegistry::new();
        assert_eq!(r.join(99), Err(Trap::BadJoin { tid: 99 }));
    }

    #[test]
    fn registry_joins_threads() {
        let r = ThreadRegistry::new();
        let h = std::thread::spawn(|| Ok(Value::Int(7)));
        r.register(5, h);
        assert_eq!(r.join(5), Ok(Value::Int(7)));
        assert!(r.join(5).is_err(), "double join fails");
    }

    #[test]
    fn drain_collects_traps() {
        let r = ThreadRegistry::new();
        r.register(1, std::thread::spawn(|| Ok(Value::Int(1))));
        r.register(2, std::thread::spawn(|| Err(Trap::DivisionByZero)));
        assert_eq!(r.drain(), Some(Trap::DivisionByZero));
        assert_eq!(r.drain(), None);
    }

    #[test]
    fn lock_provides_mutual_exclusion() {
        let table = Arc::new(LockTable::new());
        let stop = StopSignal::new();
        let counter = Arc::new(AtomicI64::new(0));
        let mut handles = Vec::new();
        for i in 0..4 {
            let table = Arc::clone(&table);
            let stop = stop.clone();
            let counter = Arc::clone(&counter);
            handles.push(std::thread::spawn(move || {
                let me = ThreadKey::root().child(i);
                for _ in 0..100 {
                    assert!(table.lock(9, &me, &stop));
                    // Critical section: non-atomic read-modify-write.
                    let v = counter.load(Ordering::SeqCst);
                    std::hint::spin_loop();
                    counter.store(v + 1, Ordering::SeqCst);
                    table.unlock(9);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::SeqCst), 400);
    }

    #[test]
    fn lock_respects_stop_signal() {
        let table = Arc::new(LockTable::new());
        let stop = StopSignal::new();
        let a = ThreadKey::root();
        let b = ThreadKey::root().child(0);
        assert!(table.lock(1, &a, &stop));
        let t2 = {
            let table = Arc::clone(&table);
            let stop = stop.clone();
            std::thread::spawn(move || table.lock(1, &b, &stop))
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        stop.request_exit(0);
        assert!(!t2.join().unwrap(), "waiter observes the stop signal");
    }

    #[test]
    fn relock_by_owner_succeeds() {
        let table = LockTable::new();
        let stop = StopSignal::new();
        let me = ThreadKey::root();
        assert!(table.lock(3, &me, &stop));
        assert!(table.lock(3, &me, &stop));
        assert!(table.unlock(3));
        assert!(!table.unlock(3));
    }
}
