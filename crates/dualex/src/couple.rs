//! Shared coupling state between the master and slave executions.
//!
//! This is the runtime realization of paper §4.2: per thread-pair, the
//! master appends its syscall outcomes to a queue and publishes a *ready*
//! progress key; the slave consumes aligned outcomes, skips (and counts)
//! master-only entries, and decouples when no alignment can exist. Both
//! sides synchronize at loop backedges (§5) and publish a terminal key on
//! thread exit so the peer never blocks forever.

use crate::recorder::{
    Decision, FlightEvent, FlightLog, FlightRecorder, ResourceId, DEFAULT_FLIGHT_CAPACITY,
};
use crate::report::{CausalityRecord, Role};
use ldx_ir::{FuncId, SiteId};
use ldx_lang::Syscall;
use ldx_runtime::{ProgressKey, StopSignal, SyscallCtx, ThreadKey, Value};
use parking_lot::{Condvar, Mutex};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// One master syscall outcome, queued for the slave.
#[derive(Debug, Clone)]
pub(crate) struct Entry {
    pub key: ProgressKey,
    pub func: FuncId,
    pub site: SiteId,
    pub sys: Syscall,
    pub args: Vec<Value>,
    pub outcome: Value,
    pub is_sink: bool,
    pub consumed: bool,
}

/// Mutable pair state (one per Lx thread pair).
#[derive(Debug, Default)]
pub(crate) struct PairInner {
    pub master_ready: Option<ProgressKey>,
    pub slave_ready: Option<ProgressKey>,
    pub queue: VecDeque<Entry>,
    pub master_done: bool,
    pub slave_done: bool,
}

/// A thread pair's synchronization cell.
#[derive(Debug, Default)]
pub(crate) struct Pair {
    pub inner: Mutex<PairInner>,
    pub cv: Condvar,
}

impl Pair {
    /// Publishes a ready key for `role` and wakes waiters.
    pub fn publish(&self, role: Role, key: ProgressKey) {
        let mut inner = self.inner.lock();
        let slot = match role {
            Role::Master => &mut inner.master_ready,
            Role::Slave => &mut inner.slave_ready,
        };
        *slot = Some(key);
        drop(inner);
        self.cv.notify_all();
    }

    /// Marks `role`'s thread as finished (terminal progress).
    pub fn finish(&self, role: Role) {
        let mut inner = self.inner.lock();
        match role {
            Role::Master => {
                inner.master_done = true;
                inner.master_ready = Some(ProgressKey::top());
            }
            Role::Slave => {
                inner.slave_done = true;
                inner.slave_ready = Some(ProgressKey::top());
            }
        }
        drop(inner);
        self.cv.notify_all();
    }
}

/// The syscall instance an interposition decision is about.
pub(crate) struct Call<'a> {
    pub thread: &'a ThreadKey,
    pub key: &'a ProgressKey,
    pub func: FuncId,
    pub site: SiteId,
    pub sys: Syscall,
    pub is_sink: bool,
}

impl<'a> Call<'a> {
    /// The syscall the hooks are interposing on.
    pub fn at(ctx: &'a SyscallCtx, is_sink: bool) -> Self {
        Call {
            thread: &ctx.thread,
            key: &ctx.key,
            func: ctx.func,
            site: ctx.site,
            sys: ctx.sys,
            is_sink,
        }
    }

    /// A queued master syscall of `thread`.
    pub fn entry(thread: &'a ThreadKey, entry: &'a Entry) -> Self {
        Call {
            thread,
            key: &entry.key,
            func: entry.func,
            site: entry.site,
            sys: entry.sys,
            is_sink: entry.is_sink,
        }
    }
}

/// Counters shared by the two wrappers.
#[derive(Debug, Default)]
pub(crate) struct CouplingStats {
    /// Outcomes shared master → slave.
    pub shared: AtomicU64,
    /// Slave syscalls executed decoupled.
    pub decoupled: AtomicU64,
    /// Non-sink syscall differences (master-only + slave-decoupled).
    pub diffs: AtomicU64,
    /// Sink instances the master executed.
    pub master_sinks: AtomicU64,
}

/// All shared state of one dual execution.
pub(crate) struct Coupling {
    pairs: Mutex<HashMap<ThreadKey, Arc<Pair>>>,
    pub master_exec_done: AtomicBool,
    pub slave_exec_done: AtomicBool,
    pub records: Mutex<Vec<CausalityRecord>>,
    pub stats: CouplingStats,
    /// Paths with diverged state (paper §7 resource tainting).
    pub tainted_paths: Mutex<HashSet<String>>,
    /// Lock ids with diverged synchronization (paper §7).
    pub tainted_locks: Mutex<HashSet<i64>>,
    /// The divergence flight recorder (`None` when recording is off — the
    /// disabled probe is a single discriminant check, no atomics).
    pub recorder: Option<FlightRecorder>,
}

impl Coupling {
    /// Creates coupling state; `record` enables the flight recorder.
    pub fn new(record: bool) -> Self {
        Coupling {
            pairs: Mutex::new(HashMap::new()),
            master_exec_done: AtomicBool::new(false),
            slave_exec_done: AtomicBool::new(false),
            records: Mutex::new(Vec::new()),
            stats: CouplingStats::default(),
            tainted_paths: Mutex::new(HashSet::new()),
            tainted_locks: Mutex::new(HashSet::new()),
            recorder: record.then(|| FlightRecorder::new(DEFAULT_FLIGHT_CAPACITY)),
        }
    }

    /// Records a flight event into `role`'s lane. The closure is only
    /// evaluated when the recorder is on, so disabled probes cost nothing.
    #[inline]
    pub fn flight(&self, role: Role, event: impl FnOnce() -> FlightEvent) {
        if let Some(r) = &self.recorder {
            r.record(role, event());
        }
    }

    /// Reports one Alg. 2 interposition decision: bumps the counter the
    /// decision implies, fires its `ldx_obs` instant, and — only when
    /// recording — appends the flight event to `role`'s lane.
    pub fn note(&self, role: Role, decision: Decision, call: Call<'_>) {
        let stats = &self.stats;
        let (counter, instant) = match decision {
            Decision::Executed => (call.is_sink.then_some(&stats.master_sinks), None),
            Decision::Shared => (Some(&stats.shared), Some("aligned-reuse")),
            Decision::Compared => (None, Some("sink-compare")),
            Decision::Decoupled => (Some(&stats.decoupled), Some("decoupled")),
            Decision::MasterOnly => ((!call.is_sink).then_some(&stats.diffs), None),
            Decision::SlaveOnly => (None, None),
        };
        if let Some(counter) = counter {
            counter.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(name) = instant {
            ldx_obs::instant(ldx_obs::cat::SYSCALL_DECISION, name);
        }
        self.flight(role, || FlightEvent::Syscall {
            decision,
            thread: call.thread.clone(),
            func: call.func,
            site: call.site,
            sys: call.sys,
            key: call.key.clone(),
            is_sink: call.is_sink,
        });
    }

    /// Drains the flight recorder (empty log when recording was off).
    pub fn take_flight_log(&self) -> FlightLog {
        self.recorder
            .as_ref()
            .map(FlightRecorder::drain)
            .unwrap_or_default()
    }

    /// The pair cell for thread `t`, created on first use by either side.
    pub fn pair(&self, t: &ThreadKey) -> Arc<Pair> {
        let mut pairs = self.pairs.lock();
        if let Some(p) = pairs.get(t) {
            return Arc::clone(p);
        }
        let p = Arc::new(Pair::default());
        // If one whole execution already finished, threads it never spawned
        // must not be waited for.
        {
            let mut inner = p.inner.lock();
            if self.master_exec_done.load(Ordering::SeqCst) {
                inner.master_done = true;
                inner.master_ready = Some(ProgressKey::top());
            }
            if self.slave_exec_done.load(Ordering::SeqCst) {
                inner.slave_done = true;
                inner.slave_ready = Some(ProgressKey::top());
            }
        }
        pairs.insert(t.clone(), Arc::clone(&p));
        p
    }

    /// Marks a whole execution as finished, releasing every waiter.
    pub fn finish_execution(&self, role: Role) {
        match role {
            Role::Master => self.master_exec_done.store(true, Ordering::SeqCst),
            Role::Slave => self.slave_exec_done.store(true, Ordering::SeqCst),
        }
        for pair in self.pairs.lock().values() {
            pair.finish(role);
        }
    }

    /// Records a causality detection.
    pub fn record(&self, record: CausalityRecord) {
        self.records.lock().push(record);
    }

    /// Marks a filesystem path as tainted, recording the first divergence
    /// on each path as a flight event (in the slave lane: only the slave's
    /// decoupled execution taints).
    pub fn taint_path(&self, path: &str) {
        let normalized = ldx_vos::normalize_path(path).join("/");
        let first = self.tainted_paths.lock().insert(normalized.clone());
        if first {
            self.flight(Role::Slave, || FlightEvent::Taint {
                resource: ResourceId::Path(normalized),
            });
        }
    }

    /// Marks a lock id as tainted (grant order diverged), recording the
    /// first divergence as a flight event.
    pub fn taint_lock(&self, id: i64) {
        let first = self.tainted_locks.lock().insert(id);
        if first {
            self.flight(Role::Slave, || FlightEvent::Taint {
                resource: ResourceId::Lock(id),
            });
        }
    }

    /// Whether a path is tainted.
    pub fn path_tainted(&self, path: &str) -> bool {
        self.tainted_paths
            .lock()
            .contains(&ldx_vos::normalize_path(path).join("/"))
    }

    /// Drains every unconsumed master entry at the end of the run:
    /// master-only syscall differences, including master-only sinks.
    /// Pairs are drained in `ThreadKey` order so records and flight
    /// events land deterministically.
    pub fn reconcile(&self) {
        let pairs = self.pairs.lock();
        let mut ordered: Vec<(&ThreadKey, &Arc<Pair>)> = pairs.iter().collect();
        ordered.sort_by(|a, b| a.0.cmp(b.0));
        for (thread, pair) in ordered {
            let mut inner = pair.inner.lock();
            while let Some(entry) = inner.queue.pop_front() {
                if entry.consumed {
                    continue;
                }
                self.note(
                    Role::Master,
                    Decision::MasterOnly,
                    Call::entry(thread, &entry),
                );
                if entry.is_sink {
                    self.record(CausalityRecord {
                        kind: crate::report::CausalityKind::MasterOnlySink,
                        thread: thread.clone(),
                        key: entry.key,
                        func: entry.func,
                        site: entry.site,
                        sys: entry.sys,
                    });
                }
            }
        }
    }
}

/// Waits on `pair` until `cond` holds, the stop signal fires, or roughly
/// `max_wait` elapses. Returns whether the condition held.
pub(crate) fn wait_until(
    pair: &Pair,
    stop: &StopSignal,
    max_wait: Duration,
    mut cond: impl FnMut(&PairInner) -> bool,
) -> bool {
    let start = std::time::Instant::now();
    let mut inner = pair.inner.lock();
    loop {
        if cond(&inner) {
            return true;
        }
        if stop.should_stop() || start.elapsed() > max_wait {
            return cond(&inner);
        }
        pair.cv.wait_for(&mut inner, Duration::from_millis(2));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldx_runtime::ProgressOrder;

    #[test]
    fn pair_publish_and_finish() {
        let c = Coupling::new(false);
        let t = ThreadKey::root();
        let p = c.pair(&t);
        p.publish(Role::Master, ProgressKey::start());
        assert!(p.inner.lock().master_ready.is_some());
        p.finish(Role::Slave);
        let inner = p.inner.lock();
        assert!(inner.slave_done);
        assert!(inner.slave_ready.as_ref().unwrap().is_top());
    }

    #[test]
    fn pair_created_after_execution_end_is_released() {
        let c = Coupling::new(false);
        c.finish_execution(Role::Master);
        let p = c.pair(&ThreadKey::root().child(3));
        assert!(p.inner.lock().master_done);
    }

    #[test]
    fn finish_execution_releases_existing_pairs() {
        let c = Coupling::new(false);
        let p = c.pair(&ThreadKey::root());
        assert!(!p.inner.lock().master_done);
        c.finish_execution(Role::Master);
        assert!(p.inner.lock().master_done);
    }

    #[test]
    fn taint_normalizes_paths() {
        let c = Coupling::new(false);
        c.taint_path("/a//b/");
        assert!(c.path_tainted("a/b"));
        assert!(!c.path_tainted("/a"));
    }

    #[test]
    fn wait_until_releases_on_stop() {
        let c = Coupling::new(false);
        let p = c.pair(&ThreadKey::root());
        let stop = StopSignal::new();
        stop.request_exit(0);
        let held = wait_until(&p, &stop, Duration::from_secs(5), |i| i.master_done);
        assert!(!held);
    }

    #[test]
    fn wait_until_observes_condition() {
        let c = Arc::new(Coupling::new(false));
        let p = c.pair(&ThreadKey::root());
        let p2 = Arc::clone(&p);
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            p2.publish(Role::Master, ProgressKey::top());
        });
        let stop = StopSignal::new();
        let held = wait_until(&p, &stop, Duration::from_secs(5), |i| {
            i.master_ready
                .as_ref()
                .is_some_and(|k| k.cmp_progress(&ProgressKey::start()) == ProgressOrder::Ahead)
        });
        assert!(held);
        h.join().unwrap();
    }

    #[test]
    fn reconcile_counts_master_only_entries() {
        let c = Coupling::new(false);
        let t = ThreadKey::root();
        let p = c.pair(&t);
        {
            let mut inner = p.inner.lock();
            inner.queue.push_back(Entry {
                key: ProgressKey::start(),
                func: FuncId(0),
                site: SiteId(0),
                sys: Syscall::Read,
                args: vec![],
                outcome: Value::Int(0),
                is_sink: false,
                consumed: false,
            });
            inner.queue.push_back(Entry {
                key: ProgressKey::start(),
                func: FuncId(0),
                site: SiteId(1),
                sys: Syscall::Send,
                args: vec![],
                outcome: Value::Int(0),
                is_sink: true,
                consumed: false,
            });
        }
        c.reconcile();
        assert_eq!(c.stats.diffs.load(Ordering::Relaxed), 1);
        assert_eq!(c.records.lock().len(), 1);
    }
}
