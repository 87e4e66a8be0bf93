//! Shared coupling state between the master and slave executions.
//!
//! This is the runtime realization of paper §4.2 (Alg. 2): per thread
//! pair, the master appends its syscall outcomes to a queue and publishes
//! a *ready* progress key; the slave consumes aligned outcomes, skips (and
//! counts) master-only entries, and decouples when no alignment can
//! exist. Both sides publish their progress at loop backedges (§5).
//!
//! This module is the only one that knows how a pair is locked. The hooks
//! in `master.rs` and `slave.rs` keep the Alg. 2 decisions and talk to a
//! [`Pair`] through a small API:
//!
//! * [`Pair::push`] — the master enqueues an outcome and publishes its key;
//! * [`Pair::publish`] / [`Pair::finish`] — a role's progress, or its end;
//! * [`Pair::with_ready`] — a peek at a role's progress (flight-event and
//!   stall deltas);
//! * [`Pair::wait_past`] — the master's enforcement-mode lockstep;
//! * [`Pair::next_for_slave`] — the slave's alignment: skips behind
//!   entries, takes an equal one, leaves an ahead one queued;
//! * [`Pair::drain`] — end-of-run leftovers, via [`Coupling::reconcile`].
//!
//! **The top key means finished.** A finished thread (or a whole finished
//! execution, for pairs created after it) publishes
//! [`ProgressKey::top`], which `cmp_progress` ranks ahead of every key, so
//! "the peer is done" and "the peer is past this key" are one test and no
//! waiter blocks on a finished peer. Every wait also gives up on the stop
//! signal or after `MAX_WAIT`.

use crate::recorder::{
    key_scalar, Decision, FlightEvent, FlightLog, FlightRecorder, DEFAULT_FLIGHT_CAPACITY,
};
use crate::report::{CausalityKind, CausalityRecord, Role};
use ldx_ir::{FuncId, SiteId};
use ldx_lang::Syscall;
use ldx_runtime::{ProgressKey, ProgressOrder, StopSignal, SyscallCtx, ThreadKey, Value};
use parking_lot::{Condvar, Mutex};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long any coupling wait may block before giving up (safety valve;
/// orders of magnitude above any legitimate wait in the test suite).
const MAX_WAIT: Duration = Duration::from_secs(30);

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
}

/// Mutable pair state (one per Lx thread pair).
#[derive(Debug, Default)]
struct PairInner {
    master_ready: Option<ProgressKey>,
    slave_ready: Option<ProgressKey>,
    queue: VecDeque<Entry>,
}

impl PairInner {
    fn ready(&self, role: Role) -> Option<&ProgressKey> {
        match role {
            Role::Master => self.master_ready.as_ref(),
            Role::Slave => self.slave_ready.as_ref(),
        }
    }

    /// Whether `role` has published progress not behind `key` (a finished
    /// role's top key is past every key).
    fn past(&self, role: Role, key: &ProgressKey) -> bool {
        self.ready(role)
            .is_some_and(|r| r.cmp_progress(key) != ProgressOrder::Behind)
    }
}

/// What the slave's syscall aligns with (see [`Pair::next_for_slave`]).
pub(crate) enum Next {
    /// The master's entry at exactly the slave's key, taken off the queue.
    Aligned(Entry),
    /// The master is provably past the slave's key: no entry will align.
    MasterPast,
    /// The stop signal fired or the wait hit `MAX_WAIT`.
    GaveUp,
}

/// A thread pair's synchronization cell.
#[derive(Debug, Default)]
pub(crate) struct Pair {
    inner: Mutex<PairInner>,
    cv: Condvar,
}

impl Pair {
    /// Enqueues a master outcome and publishes its key as the master's
    /// progress.
    pub fn push(&self, entry: Entry) {
        let mut inner = self.inner.lock();
        inner.master_ready = Some(entry.key.clone());
        inner.queue.push_back(entry);
        drop(inner);
        self.cv.notify_all();
    }

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

    /// Marks `role`'s thread as finished: its terminal key.
    pub fn finish(&self, role: Role) {
        self.publish(role, ProgressKey::top());
    }

    /// Runs `f` on `role`'s published progress.
    pub fn with_ready<R>(&self, role: Role, f: impl FnOnce(Option<&ProgressKey>) -> R) -> R {
        f(self.inner.lock().ready(role))
    }

    /// Blocks until `role`'s progress is not behind `key`. Returns false
    /// when released by the stop signal or `MAX_WAIT` instead.
    pub fn wait_past(&self, role: Role, key: &ProgressKey, stop: &StopSignal) -> bool {
        self.wait(stop, None, |inner| inner.past(role, key).then_some(()))
            .is_some()
    }

    /// Publishes the slave's key and finds the master entry its syscall
    /// aligns with, blocking while the master is behind. Entries behind
    /// the key are master-only: each is handed to `skip` (under the pair
    /// lock, so they are seen in queue order). An entry ahead of or
    /// divergent from the key stays queued for a later slave syscall.
    pub fn next_for_slave(&self, ctx: &SyscallCtx, mut skip: impl FnMut(Entry)) -> Next {
        self.publish(Role::Slave, ctx.key.clone());
        self.wait(&ctx.stop, Some(ctx), |inner| {
            while let Some(front) = inner.queue.front() {
                match front.key.cmp_progress(&ctx.key) {
                    ProgressOrder::Behind => skip(inner.queue.pop_front().expect("front exists")),
                    ProgressOrder::Equal => {
                        return inner.queue.pop_front().map(Next::Aligned);
                    }
                    ProgressOrder::Ahead | ProgressOrder::Divergent => {
                        return Some(Next::MasterPast)
                    }
                }
            }
            inner
                .past(Role::Master, &ctx.key)
                .then_some(Next::MasterPast)
        })
        .unwrap_or(Next::GaveUp)
    }

    /// Takes every entry still queued.
    pub fn drain(&self) -> VecDeque<Entry> {
        std::mem::take(&mut self.inner.lock().queue)
    }

    /// The one coupling wait loop: polls `poll` under the pair lock,
    /// blocking on the condvar in 2 ms slices between polls, until it
    /// yields, the stop signal fires, or `MAX_WAIT` elapses (`None`).
    /// With `stall` set and observability on, a wait that blocked is
    /// reported to the stall profiler under the syscall's static site,
    /// timed from the first block to the release, together with the
    /// master/slave progress delta at release.
    fn wait<T>(
        &self,
        stop: &StopSignal,
        stall: Option<&SyscallCtx>,
        mut poll: impl FnMut(&mut PairInner) -> Option<T>,
    ) -> Option<T> {
        let stall = stall.filter(|_| ldx_obs::enabled());
        let mut first_block: Option<Instant> = None;
        let mut t0_ns = 0;
        let mut waits: u64 = 0;
        let mut inner = self.inner.lock();
        let got = loop {
            if let Some(v) = poll(&mut inner) {
                break Some(v);
            }
            if stop.should_stop() || first_block.is_some_and(|t| t.elapsed() > MAX_WAIT) {
                break None;
            }
            if first_block.is_none() {
                first_block = Some(Instant::now());
                if stall.is_some() {
                    t0_ns = ldx_obs::now_ns();
                }
            }
            waits += 1;
            self.cv.wait_for(&mut inner, Duration::from_millis(2));
        };
        if let Some(ctx) = stall.filter(|_| waits > 0) {
            let delta = master_delta(inner.master_ready.as_ref(), &ctx.key);
            drop(inner);
            let ns = ldx_obs::now_ns().saturating_sub(t0_ns);
            ldx_obs::stall_record(&format!("f{}:s{}", ctx.func.0, ctx.site.0), ns, delta);
            ldx_obs::record_complete(
                ldx_obs::cat::BARRIER_WAIT,
                "align-wait",
                t0_ns,
                ns,
                vec![("delta", delta as i64), ("waits", waits as i64)],
            );
        }
        got
    }
}

/// How far the master's published progress is past the slave's key (0
/// when unknown, terminal, or behind).
pub(crate) fn master_delta(master: Option<&ProgressKey>, slave: &ProgressKey) -> u64 {
    match master {
        Some(m) if !m.is_top() => key_scalar(m).saturating_sub(key_scalar(slave)),
        _ => 0,
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

/// The thread pairs of one dual execution.
#[derive(Default)]
struct Pairs {
    by_thread: HashMap<ThreadKey, Arc<Pair>>,
    /// Roles whose whole execution finished: a pair created later starts
    /// finished for them.
    finished: Vec<Role>,
}

/// All shared state of one dual execution.
pub(crate) struct Coupling {
    pairs: Mutex<Pairs>,
    pub records: Mutex<Vec<CausalityRecord>>,
    pub stats: CouplingStats,
    /// The divergence flight recorder (`None` when recording is off — the
    /// disabled probe is a single discriminant check, no atomics).
    pub recorder: Option<FlightRecorder>,
}

impl Coupling {
    /// Creates coupling state; `record` enables the flight recorder.
    pub fn new(record: bool) -> Self {
        Coupling {
            pairs: Mutex::new(Pairs::default()),
            records: Mutex::new(Vec::new()),
            stats: CouplingStats::default(),
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
        if let Some(p) = pairs.by_thread.get(t) {
            return Arc::clone(p);
        }
        let p = Arc::new(Pair::default());
        // If one whole execution already finished, threads it never spawned
        // must not be waited for.
        for &role in &pairs.finished {
            p.finish(role);
        }
        pairs.by_thread.insert(t.clone(), Arc::clone(&p));
        p
    }

    /// Marks a whole execution as finished, releasing every waiter.
    pub fn finish_execution(&self, role: Role) {
        let mut pairs = self.pairs.lock();
        pairs.finished.push(role);
        for pair in pairs.by_thread.values() {
            pair.finish(role);
        }
    }

    /// A master syscall the slave never issues at its key (reported in
    /// `role`'s lane): a syscall difference, and a `sink_kind` causality
    /// record when it is a sink.
    pub fn master_only(
        &self,
        role: Role,
        thread: &ThreadKey,
        entry: Entry,
        sink_kind: CausalityKind,
    ) {
        self.note(role, Decision::MasterOnly, Call::entry(thread, &entry));
        if entry.is_sink {
            self.record(CausalityRecord {
                kind: sink_kind,
                thread: thread.clone(),
                key: entry.key,
                func: entry.func,
                site: entry.site,
                sys: entry.sys,
            });
        }
    }

    /// Records a causality detection.
    pub fn record(&self, record: CausalityRecord) {
        self.records.lock().push(record);
    }

    /// Drains every unconsumed master entry at the end of the run:
    /// master-only syscall differences, including master-only sinks.
    /// Pairs are drained in `ThreadKey` order so records and flight
    /// events land deterministically.
    pub fn reconcile(&self) {
        let pairs = self.pairs.lock();
        let mut ordered: Vec<(&ThreadKey, &Arc<Pair>)> = pairs.by_thread.iter().collect();
        ordered.sort_by(|a, b| a.0.cmp(b.0));
        for (thread, pair) in ordered {
            for entry in pair.drain() {
                self.master_only(Role::Master, thread, entry, CausalityKind::MasterOnlySink);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(cnt: u64) -> ProgressKey {
        let mut k = ProgressKey::start();
        k.frames[0].cnt = cnt;
        k
    }

    fn entry(cnt: u64, site: u32, is_sink: bool) -> Entry {
        Entry {
            key: key(cnt),
            func: FuncId(0),
            site: SiteId(site),
            sys: if is_sink {
                Syscall::Send
            } else {
                Syscall::Read
            },
            args: vec![],
            outcome: Value::Int(cnt as i64),
            is_sink,
        }
    }

    fn ctx(cnt: u64, stop: &StopSignal) -> SyscallCtx {
        SyscallCtx {
            thread: ThreadKey::root(),
            key: key(cnt),
            func: FuncId(0),
            site: SiteId(0),
            sys: Syscall::Read,
            stop: stop.clone(),
        }
    }

    fn is_top(r: Option<&ProgressKey>) -> bool {
        r.is_some_and(ProgressKey::is_top)
    }

    #[test]
    fn pair_publish_and_finish() {
        let c = Coupling::new(false);
        let p = c.pair(&ThreadKey::root());
        p.publish(Role::Master, ProgressKey::start());
        assert!(p.with_ready(Role::Master, |r| r.is_some()));
        p.finish(Role::Slave);
        assert!(p.with_ready(Role::Slave, is_top));
    }

    #[test]
    fn pair_created_after_execution_end_is_released() {
        let c = Coupling::new(false);
        c.finish_execution(Role::Master);
        let p = c.pair(&ThreadKey::root().child(3));
        assert!(p.with_ready(Role::Master, is_top));
        assert!(!p.with_ready(Role::Slave, is_top));
    }

    #[test]
    fn finish_execution_releases_existing_pairs() {
        let c = Coupling::new(false);
        let p = c.pair(&ThreadKey::root());
        assert!(!p.with_ready(Role::Master, is_top));
        c.finish_execution(Role::Master);
        assert!(p.with_ready(Role::Master, is_top));
    }

    #[test]
    fn wait_past_releases_on_stop() {
        let c = Coupling::new(false);
        let p = c.pair(&ThreadKey::root());
        let stop = StopSignal::new();
        stop.request_exit(0);
        assert!(!p.wait_past(Role::Master, &key(1), &stop));
    }

    #[test]
    fn wait_past_observes_progress() {
        let c = Coupling::new(false);
        let p = c.pair(&ThreadKey::root());
        let p2 = Arc::clone(&p);
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            p2.publish(Role::Slave, key(4));
        });
        assert!(p.wait_past(Role::Slave, &key(4), &StopSignal::new()));
        h.join().unwrap();
    }

    #[test]
    fn slave_skips_behind_entries_through_the_callback() {
        let c = Coupling::new(false);
        let p = c.pair(&ThreadKey::root());
        p.push(entry(1, 1, false));
        p.push(entry(2, 2, true));
        p.push(entry(3, 3, false));
        let mut skipped = Vec::new();
        let next = p.next_for_slave(&ctx(3, &StopSignal::new()), |e| skipped.push(e.site));
        assert_eq!(skipped, vec![SiteId(1), SiteId(2)]);
        assert!(matches!(next, Next::Aligned(e) if e.site == SiteId(3)));
        assert!(p.drain().is_empty());
        assert!(p.with_ready(Role::Slave, |r| r == Some(&key(3))));
    }

    #[test]
    fn slave_takes_an_equal_entry() {
        let c = Coupling::new(false);
        let p = c.pair(&ThreadKey::root());
        p.push(entry(5, 7, false));
        let next = p.next_for_slave(&ctx(5, &StopSignal::new()), |_| panic!("nothing behind"));
        assert!(
            matches!(next, Next::Aligned(e) if e.site == SiteId(7) && e.outcome == Value::Int(5))
        );
        assert!(p.drain().is_empty());
    }

    #[test]
    fn slave_leaves_an_ahead_entry_queued() {
        let c = Coupling::new(false);
        let p = c.pair(&ThreadKey::root());
        p.push(entry(9, 1, false));
        let next = p.next_for_slave(&ctx(5, &StopSignal::new()), |_| panic!("nothing behind"));
        assert!(matches!(next, Next::MasterPast));
        assert_eq!(p.drain().len(), 1);
    }

    #[test]
    fn finished_master_or_stop_releases_the_slave() {
        let c = Coupling::new(false);
        let p = c.pair(&ThreadKey::root());
        let p2 = Arc::clone(&p);
        let h = std::thread::spawn(move || {
            // The slave publishes its key before it waits.
            while !p2.with_ready(Role::Slave, |r| r.is_some()) {
                std::thread::yield_now();
            }
            p2.finish(Role::Master);
        });
        let next = p.next_for_slave(&ctx(5, &StopSignal::new()), |_| {});
        assert!(matches!(next, Next::MasterPast));
        h.join().unwrap();

        let q = c.pair(&ThreadKey::root().child(0));
        let stop = StopSignal::new();
        stop.request_exit(0);
        assert!(matches!(
            q.next_for_slave(&ctx(5, &stop), |_| {}),
            Next::GaveUp
        ));
    }

    #[test]
    fn reconcile_counts_master_only_entries() {
        let c = Coupling::new(false);
        let p = c.pair(&ThreadKey::root());
        p.push(entry(0, 0, false));
        p.push(entry(0, 1, true));
        c.reconcile();
        assert_eq!(c.stats.diffs.load(Ordering::Relaxed), 1);
        assert_eq!(c.records.lock().len(), 1);
        assert!(p.drain().is_empty());
    }
}
