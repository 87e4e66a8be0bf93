//! Shared coupling state between the master and slave executions.
//!
//! This is the runtime realization of paper §4.2 (Alg. 2): per thread
//! pair, the master appends its syscall outcomes to an outcome log and
//! publishes its progress; the slave consumes aligned outcomes, skips (and
//! counts) master-only entries, and decouples when no alignment can
//! exist. Both sides publish their progress at loop backedges (§5).
//!
//! This module is the only one that knows how a pair synchronizes. The
//! hooks in `master.rs` and `slave.rs` keep the Alg. 2 decisions and talk
//! to a [`Pair`] through a small API:
//!
//! * [`Pair::push`] — the master appends an outcome, which is also its
//!   progress;
//! * [`Pair::publish`] / [`Pair::finish`] — a role's progress, or its end;
//! * [`Pair::with_ready`] — a peek at a role's progress (flight-event and
//!   stall deltas);
//! * [`Pair::wait_past`] — the master's enforcement-mode lockstep;
//! * [`Pair::next_for_slave`] — the slave's alignment: skips behind
//!   entries, takes an equal one, leaves an ahead one unconsumed;
//! * [`Pair::drain`] — end-of-run leftovers, via [`Coupling::reconcile`].
//!
//! # The outcome log
//!
//! Each pair owns a [`Log`], append-only with one writer, the pair's master
//! thread. An item is a syscall [`Entry`] or a progress key the master
//! published at a loop barrier, so the master's progress is the key of its
//! last item. The master writes slot `len`, then stores the length; the
//! slave reads up to that length with a cursor only it advances. It
//! compares entries in place and clones only an aligned outcome (`Value`
//! payloads are `Arc`s, so that is a reference count). On this path the two
//! roles share no lock.
//!
//! # The wake rule
//!
//! A role parks only after announcing it. The slave sets its parked flag
//! under the pair's park mutex and re-reads the log before it sleeps; the
//! master stores the log length, then claims the flag (a swap to false).
//! All four accesses are `SeqCst`, so either the slave sees the new item
//! or the master claims the flag and wakes it, taking the park mutex so
//! the wake cannot fall between the slave's re-check and its sleep. A
//! publish with nobody parked takes no lock and makes no futex call, and a
//! park is woken once, not once per publish. The slave's progress lives
//! under the park mutex itself, where the master's enforcement-mode wait
//! registers, so that direction needs no flag protocol. A park lasts at
//! most a 2 ms slice before the waiter polls again: the slices, the stop
//! signal and `MAX_WAIT` are safety valves only.
//!
//! # Lifetime
//!
//! A log keeps every item for the life of its pair, so a finished master's
//! whole log stays readable. Slots sit in buckets of doubling size that the
//! master allocates once and that never move, which is what lets
//! [`Next::Aligned`] lend an entry straight out of the log. The pairs, and
//! with them every bucket, are freed when `dual_execute` drops the
//! [`Coupling`] on the calling thread, where the root master allocated
//! them.
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
use std::collections::HashMap;
use std::ops::Deref;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// How long any coupling wait may block before giving up (safety valve;
/// orders of magnitude above any legitimate wait in the test suite).
const MAX_WAIT: Duration = Duration::from_secs(30);

/// The longest single park before a waiter polls again (safety valve for
/// the stop signal, which wakes nobody).
const SLICE: Duration = Duration::from_millis(2);

/// Slots in a log's first bucket; bucket `b` holds `FIRST << b`.
const FIRST: u64 = 64;

/// Buckets per log: room for `FIRST * (2^BUCKETS - 1)` items.
const BUCKETS: usize = 32;

/// One master syscall outcome, logged for the slave.
#[derive(Debug)]
pub(crate) struct Entry {
    pub key: ProgressKey,
    pub func: FuncId,
    pub site: SiteId,
    pub sys: Syscall,
    pub args: Vec<Value>,
    pub outcome: Value,
    pub is_sink: bool,
}

/// One log item.
#[derive(Debug)]
enum Item {
    /// A master syscall outcome.
    Call(Entry),
    /// The master's progress at a loop barrier.
    Progress(ProgressKey),
}

impl Item {
    fn key(&self) -> &ProgressKey {
        match self {
            Item::Call(e) => &e.key,
            Item::Progress(k) => k,
        }
    }
}

/// The bucket and offset of log index `i`.
fn locate(i: u64) -> (usize, usize) {
    let b = (i + FIRST).ilog2() - FIRST.ilog2();
    (b as usize, (i + FIRST - (FIRST << b)) as usize)
}

/// A pair's outcome log: slots written once by the master, in buckets that
/// live as long as the log.
#[derive(Debug)]
struct Log {
    buckets: [OnceLock<Box<[OnceLock<Item>]>>; BUCKETS],
    /// Items published: stored after the item's slot is written.
    len: Padded<AtomicU64>,
}

impl Default for Log {
    fn default() -> Self {
        Log {
            buckets: [const { OnceLock::new() }; BUCKETS],
            len: Padded::default(),
        }
    }
}

impl Log {
    /// The published length.
    fn len(&self) -> u64 {
        self.len.load(Ordering::SeqCst)
    }

    /// The published item at index `i`.
    fn get(&self, i: u64) -> &Item {
        let (b, at) = locate(i);
        self.buckets[b]
            .get()
            .and_then(|bucket| bucket[at].get())
            .expect("items are read only below the published length")
    }

    /// The item at the end of the published log.
    fn last(&self) -> Option<&Item> {
        self.len().checked_sub(1).map(|i| self.get(i))
    }

    /// The master's append: writes slot `len`, then publishes it.
    fn push(&self, item: Item) {
        let i = self.len.load(Ordering::Relaxed);
        let (b, at) = locate(i);
        let bucket =
            self.buckets[b].get_or_init(|| (0..FIRST << b).map(|_| OnceLock::new()).collect());
        bucket[at].set(item).expect("slot written once");
        self.len.store(i + 1, Ordering::SeqCst);
    }
}

/// Aligns a value to its own pair of cache lines, so fields one role
/// writes never share a line with fields the other role writes.
#[derive(Debug, Default)]
#[repr(align(128))]
pub(crate) struct Padded<T>(T);

impl<T> Deref for Padded<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.0
    }
}

/// What a parked role waits on, under the pair's park mutex.
#[derive(Debug, Default)]
struct Parking {
    /// The slave's published progress.
    slave_ready: Option<ProgressKey>,
    /// The master is parked in [`Pair::wait_past`].
    master_parked: bool,
}

/// Test-only counters of the wake protocol.
#[cfg(test)]
#[derive(Debug, Default)]
struct Probe {
    /// Condvar notifications.
    wakes: AtomicU64,
    /// Slave parks that slept on the condvar.
    parks: AtomicU64,
    /// The last log length the master published while it saw no parked
    /// slave.
    unwoken: AtomicU64,
    /// Slave parks that ended on their time slice.
    timeouts: AtomicU64,
    /// Slave parks that timed out although the master had published an
    /// item after the slave's last look without waking it.
    lost: AtomicU64,
}

/// What the slave's syscall aligns with (see [`Pair::next_for_slave`]).
pub(crate) enum Next<'a> {
    /// The master's entry at exactly the slave's key, now consumed.
    Aligned(&'a Entry),
    /// The master is provably past the slave's key: no entry will align.
    MasterPast,
    /// The stop signal fired or the wait hit `MAX_WAIT`.
    GaveUp,
}

/// One blocking wait's safety valves and stall timing.
#[derive(Default)]
struct Wait {
    since: Option<Instant>,
    t0_ns: u64,
    /// Parks that slept on the condvar.
    parks: u64,
}

impl Wait {
    /// Whether the waiter may park (again): not once the stop signal fired
    /// or the wait has lasted `MAX_WAIT`. The first call starts the clock.
    fn may_park(&mut self, stop: &StopSignal, timed: bool) -> bool {
        if stop.should_stop() || self.since.is_some_and(|t| t.elapsed() > MAX_WAIT) {
            return false;
        }
        if self.since.is_none() {
            self.since = Some(Instant::now());
            if timed {
                self.t0_ns = ldx_obs::now_ns();
            }
        }
        true
    }
}

/// A thread pair's outcome log and wake-up cell.
#[derive(Default)]
pub(crate) struct Pair {
    /// Master-written.
    log: Log,
    /// The master's thread finished: its progress is the top key.
    master_done: Padded<AtomicBool>,
    /// The slave announced a park.
    slave_parked: Padded<AtomicBool>,
    /// Items before it are consumed. Only the slave advances it (and
    /// [`Pair::drain`], once the slave is done).
    cursor: Padded<AtomicU64>,
    park: Padded<Mutex<Parking>>,
    cv: Condvar,
    #[cfg(test)]
    probe: Probe,
}

impl Pair {
    /// Appends a master outcome; its key becomes the master's progress.
    pub fn push(&self, entry: Entry) {
        self.append(Item::Call(entry));
    }

    /// Publishes a ready key for `role`.
    pub fn publish(&self, role: Role, key: &ProgressKey) {
        match role {
            Role::Master => self.append(Item::Progress(key.clone())),
            Role::Slave => self.publish_slave(key),
        }
    }

    /// Marks `role`'s thread as finished: its terminal key.
    pub fn finish(&self, role: Role) {
        match role {
            Role::Master => {
                self.master_done.store(true, Ordering::SeqCst);
                self.wake();
            }
            Role::Slave => self.publish_slave(&ProgressKey::top()),
        }
    }

    /// Runs `f` on `role`'s published progress.
    pub fn with_ready<R>(&self, role: Role, f: impl FnOnce(Option<&ProgressKey>) -> R) -> R {
        match role {
            Role::Slave => f(self.park.lock().slave_ready.as_ref()),
            Role::Master if self.master_done.load(Ordering::SeqCst) => f(Some(&ProgressKey::top())),
            Role::Master => f(self.log.last().map(Item::key)),
        }
    }

    /// Blocks the master until the slave's progress is not behind `key`.
    /// Returns false when the stop signal or `MAX_WAIT` ends the wait
    /// instead.
    pub fn wait_past(&self, key: &ProgressKey, stop: &StopSignal) -> bool {
        let mut wait = Wait::default();
        let mut park = self.park.lock();
        loop {
            let ready = park.slave_ready.as_ref();
            if ready.is_some_and(|r| r.cmp_progress(key) != ProgressOrder::Behind) {
                return true;
            }
            if !wait.may_park(stop, false) {
                return false;
            }
            park.master_parked = true;
            self.cv.wait_for(&mut park, SLICE);
            park.master_parked = false;
        }
    }

    /// Publishes the slave's key and finds the master entry its syscall
    /// aligns with, parking while the master is behind. Entries behind the
    /// key are master-only: each is handed to `skip`, in log order. An
    /// entry ahead of or divergent from the key stays unconsumed for a
    /// later slave syscall. With observability on, a wait that parked is
    /// reported to the stall profiler under the syscall's static site,
    /// timed from the first park to the release, together with the
    /// master/slave progress delta at release.
    pub fn next_for_slave(&self, ctx: &SyscallCtx, mut skip: impl FnMut(&Entry)) -> Next<'_> {
        self.publish_slave(&ctx.key);
        let timed = ldx_obs::enabled();
        let mut wait = Wait::default();
        let mut cursor = self.cursor.load(Ordering::Relaxed);
        let next = loop {
            // `done` before `len`: a finished master has published all.
            let done = self.master_done.load(Ordering::SeqCst);
            let len = self.log.len();
            if let Some(next) = self.scan(&mut cursor, len, done, &ctx.key, &mut skip) {
                break next;
            }
            if !wait.may_park(&ctx.stop, timed) {
                break Next::GaveUp;
            }
            self.park_slave(len, &mut wait);
        };
        self.cursor.store(cursor, Ordering::Relaxed);
        if timed && wait.parks > 0 {
            self.report_stall(ctx, &wait);
        }
        next
    }

    /// Consumes every item still unconsumed, handing its entries to `f`.
    pub fn drain(&self, mut f: impl FnMut(&Entry)) {
        let len = self.log.len();
        for i in self.cursor.swap(len, Ordering::Relaxed)..len {
            if let Item::Call(e) = self.log.get(i) {
                f(e);
            }
        }
    }

    /// Consumes the published items `cursor..len` up to the one `key`
    /// aligns with. Behind entries go to `skip`; barrier progress is passed
    /// over. An equal entry is taken; at an ahead or divergent one the
    /// master is past `key`, and the entry stays unconsumed. With every item
    /// consumed, the master is past `key` when it finished or its last item
    /// is not behind `key`; otherwise the slave must wait (`None`).
    fn scan(
        &self,
        cursor: &mut u64,
        len: u64,
        done: bool,
        key: &ProgressKey,
        skip: &mut impl FnMut(&Entry),
    ) -> Option<Next<'_>> {
        while *cursor < len {
            if let Item::Call(e) = self.log.get(*cursor) {
                match e.key.cmp_progress(key) {
                    ProgressOrder::Behind => skip(e),
                    ProgressOrder::Equal => {
                        *cursor += 1;
                        return Some(Next::Aligned(e));
                    }
                    ProgressOrder::Ahead | ProgressOrder::Divergent => {
                        return Some(Next::MasterPast)
                    }
                }
            }
            *cursor += 1;
        }
        let last = len.checked_sub(1).map(|i| self.log.get(i).key());
        (done || last.is_some_and(|k| k.cmp_progress(key) != ProgressOrder::Behind))
            .then_some(Next::MasterPast)
    }

    /// The master's append: fill the next slot, publish the length, and
    /// wake the slave only if it announced a park.
    fn append(&self, item: Item) {
        self.log.push(item);
        // Claiming the flag wakes a parked slave once, not per publish.
        if self.slave_parked.swap(false, Ordering::SeqCst) {
            self.wake();
        } else {
            #[cfg(test)]
            self.probe.unwoken.store(self.log.len(), Ordering::SeqCst);
        }
    }

    /// Parks the slave for one slice unless the log has grown past `len`
    /// or the master finished since the slave looked.
    fn park_slave(&self, len: u64, wait: &mut Wait) {
        let mut park = self.park.lock();
        self.slave_parked.store(true, Ordering::SeqCst);
        if !self.master_done.load(Ordering::SeqCst) && self.log.len() == len {
            wait.parks += 1;
            let _timed_out = self.cv.wait_for(&mut park, SLICE).timed_out();
            #[cfg(test)]
            {
                self.probe.parks.fetch_add(1, Ordering::Relaxed);
                if _timed_out {
                    self.probe.timeouts.fetch_add(1, Ordering::Relaxed);
                    if self.probe.unwoken.load(Ordering::SeqCst) > len {
                        self.probe.lost.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }
        self.slave_parked.store(false, Ordering::SeqCst);
    }

    /// Publishes the slave's progress, waking the master if it is parked.
    fn publish_slave(&self, key: &ProgressKey) {
        let mut park = self.park.lock();
        match &mut park.slave_ready {
            Some(ready) => ready.clone_from(key),
            slot => *slot = Some(key.clone()),
        }
        let wake = std::mem::take(&mut park.master_parked);
        drop(park);
        if wake {
            self.notify();
        }
    }

    /// Wakes whoever is parked. Taking the park mutex first means a waiter
    /// between its announcement and its sleep is asleep before the notify.
    fn wake(&self) {
        drop(self.park.lock());
        self.notify();
    }

    fn notify(&self) {
        #[cfg(test)]
        self.probe.wakes.fetch_add(1, Ordering::Relaxed);
        self.cv.notify_all();
    }

    /// Reports a slave wait that parked to the stall profiler and trace.
    fn report_stall(&self, ctx: &SyscallCtx, wait: &Wait) {
        let delta = self.with_ready(Role::Master, |m| master_delta(m, &ctx.key));
        let ns = ldx_obs::now_ns().saturating_sub(wait.t0_ns);
        ldx_obs::stall_record(&format!("f{}:s{}", ctx.func.0, ctx.site.0), ns, delta);
        ldx_obs::record_complete(
            ldx_obs::cat::BARRIER_WAIT,
            "align-wait",
            wait.t0_ns,
            ns,
            vec![("delta", delta as i64), ("waits", wait.parks as i64)],
        );
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

    /// A logged master syscall of `thread`.
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

/// Counters shared by the two wrappers. Each sits on its own cache
/// lines: the master writes `master_sinks`, the slave the others.
#[derive(Debug, Default)]
pub(crate) struct CouplingStats {
    /// Outcomes shared master → slave.
    pub shared: Padded<AtomicU64>,
    /// Slave syscalls executed decoupled.
    pub decoupled: Padded<AtomicU64>,
    /// Non-sink syscall differences (master-only + slave-decoupled).
    pub diffs: Padded<AtomicU64>,
    /// Sink instances the master executed.
    pub master_sinks: Padded<AtomicU64>,
}

/// The pairs of spawned threads.
#[derive(Default)]
struct Spawned {
    by_thread: HashMap<ThreadKey, Arc<Pair>>,
    /// Roles whose whole execution finished: a pair created later starts
    /// finished for them.
    finished: Vec<Role>,
}

/// A thread's pair: the root's is borrowed, a spawned thread's shared.
pub(crate) enum PairRef<'a> {
    Root(&'a Pair),
    Spawned(Arc<Pair>),
}

impl Deref for PairRef<'_> {
    type Target = Pair;

    fn deref(&self) -> &Pair {
        match self {
            PairRef::Root(p) => p,
            PairRef::Spawned(p) => p,
        }
    }
}

/// All shared state of one dual execution.
pub(crate) struct Coupling {
    /// The root thread's pair, reached without a lookup.
    root: Pair,
    spawned: Mutex<Spawned>,
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
            root: Pair::default(),
            spawned: Mutex::new(Spawned::default()),
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
    pub fn pair(&self, t: &ThreadKey) -> PairRef<'_> {
        if t.is_root() {
            return PairRef::Root(&self.root);
        }
        let mut spawned = self.spawned.lock();
        if let Some(p) = spawned.by_thread.get(t) {
            return PairRef::Spawned(Arc::clone(p));
        }
        let p = Arc::new(Pair::default());
        // If one whole execution already finished, threads it never spawned
        // must not be waited for.
        for &role in &spawned.finished {
            p.finish(role);
        }
        spawned.by_thread.insert(t.clone(), Arc::clone(&p));
        PairRef::Spawned(p)
    }

    /// Marks a whole execution as finished, releasing every waiter.
    pub fn finish_execution(&self, role: Role) {
        self.root.finish(role);
        let mut spawned = self.spawned.lock();
        spawned.finished.push(role);
        for pair in spawned.by_thread.values() {
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
        entry: &Entry,
        sink_kind: CausalityKind,
    ) {
        self.note(role, Decision::MasterOnly, Call::entry(thread, entry));
        if entry.is_sink {
            self.record(CausalityRecord {
                kind: sink_kind,
                thread: thread.clone(),
                key: entry.key.clone(),
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

    /// The most items one pair's log holds.
    pub fn log_items_max(&self) -> u64 {
        let spawned = self.spawned.lock();
        let spawned = spawned.by_thread.values().map(|p| p.log.len());
        spawned.fold(self.root.log.len(), u64::max)
    }

    /// Drains every unconsumed master entry at the end of the run:
    /// master-only syscall differences, including master-only sinks.
    /// Pairs are drained in `ThreadKey` order (the root's first) so records
    /// and flight events land deterministically.
    pub fn reconcile(&self) {
        let spawned = self.spawned.lock();
        let mut ordered: Vec<(&ThreadKey, &Arc<Pair>)> = spawned.by_thread.iter().collect();
        ordered.sort_by(|a, b| a.0.cmp(b.0));
        let root = ThreadKey::root();
        let pairs = ordered.into_iter().map(|(t, p)| (t, &**p));
        for (thread, pair) in std::iter::once((&root, &self.root)).chain(pairs) {
            pair.drain(|entry| {
                self.master_only(Role::Master, thread, entry, CausalityKind::MasterOnlySink)
            });
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

    fn unconsumed(p: &Pair) -> usize {
        let mut n = 0;
        p.drain(|_| n += 1);
        n
    }

    #[test]
    fn pair_publish_and_finish() {
        let c = Coupling::new(false);
        let p = c.pair(&ThreadKey::root());
        p.publish(Role::Master, &ProgressKey::start());
        assert!(p.with_ready(Role::Master, |r| r.is_some()));
        p.finish(Role::Slave);
        assert!(p.with_ready(Role::Slave, is_top));
    }

    #[test]
    fn pair_created_after_execution_end_starts_finished() {
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
        let q = c.pair(&ThreadKey::root().child(0));
        assert!(!p.with_ready(Role::Master, is_top));
        c.finish_execution(Role::Master);
        assert!(p.with_ready(Role::Master, is_top));
        assert!(q.with_ready(Role::Master, is_top));
    }

    #[test]
    fn wait_past_releases_on_stop() {
        let c = Coupling::new(false);
        let p = c.pair(&ThreadKey::root());
        let stop = StopSignal::new();
        stop.request_exit(0);
        assert!(!p.wait_past(&key(1), &stop));
    }

    #[test]
    fn wait_past_observes_progress() {
        let c = Coupling::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                std::thread::sleep(Duration::from_millis(10));
                c.pair(&ThreadKey::root()).publish(Role::Slave, &key(4));
            });
            let p = c.pair(&ThreadKey::root());
            assert!(p.wait_past(&key(4), &StopSignal::new()));
        });
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
        assert_eq!(unconsumed(&p), 0);
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
        assert_eq!(unconsumed(&p), 0);
    }

    #[test]
    fn slave_leaves_an_ahead_entry_unconsumed() {
        let c = Coupling::new(false);
        let p = c.pair(&ThreadKey::root());
        p.push(entry(9, 1, false));
        let next = p.next_for_slave(&ctx(5, &StopSignal::new()), |_| panic!("nothing behind"));
        assert!(matches!(next, Next::MasterPast));
        assert_eq!(unconsumed(&p), 1);
    }

    #[test]
    fn barrier_progress_orders_but_is_never_an_entry() {
        let c = Coupling::new(false);
        let p = c.pair(&ThreadKey::root());
        p.push(entry(1, 1, false));
        p.publish(Role::Master, &key(4));
        // The barrier key is the master's progress: past key 3, at key 4.
        let stop = StopSignal::new();
        let next = p.next_for_slave(&ctx(3, &stop), |e| assert_eq!(e.site, SiteId(1)));
        assert!(matches!(next, Next::MasterPast));
        let next = p.next_for_slave(&ctx(4, &stop), |_| panic!("nothing behind"));
        assert!(matches!(next, Next::MasterPast));
        assert!(p.with_ready(Role::Master, |r| r == Some(&key(4))));
        c.reconcile();
        assert!(c.records.lock().is_empty());
        assert_eq!(c.stats.diffs.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn finished_master_or_stop_releases_the_slave() {
        let c = Coupling::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                let p = c.pair(&ThreadKey::root());
                // The slave publishes its key before it waits.
                while !p.with_ready(Role::Slave, |r| r.is_some()) {
                    std::thread::yield_now();
                }
                p.finish(Role::Master);
            });
            let p = c.pair(&ThreadKey::root());
            let next = p.next_for_slave(&ctx(5, &StopSignal::new()), |_| {});
            assert!(matches!(next, Next::MasterPast));
        });

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
        c.pair(&ThreadKey::root().child(0)).push(entry(0, 2, true));
        c.reconcile();
        assert_eq!(c.stats.diffs.load(Ordering::Relaxed), 1);
        let sites: Vec<SiteId> = c.records.lock().iter().map(|r| r.site).collect();
        assert_eq!(
            sites,
            vec![SiteId(1), SiteId(2)],
            "root first, then spawned"
        );
        assert_eq!(unconsumed(&p), 0);
    }

    /// A publish nobody waits for costs no condvar notify, on either side.
    #[test]
    fn publishing_without_a_parked_peer_never_notifies() {
        let c = Coupling::new(false);
        let p = c.pair(&ThreadKey::root());
        let stop = StopSignal::new();
        for cnt in 1..=1_000 {
            p.push(entry(cnt, 0, false));
            if cnt.is_multiple_of(10) {
                p.publish(Role::Master, &key(cnt));
            }
            let next = p.next_for_slave(&ctx(cnt, &stop), |_| panic!("nothing behind"));
            assert!(matches!(next, Next::Aligned(_)));
            p.publish(Role::Slave, &key(cnt));
        }
        assert_eq!(p.probe.wakes.load(Ordering::Relaxed), 0);
        assert_eq!(p.probe.parks.load(Ordering::Relaxed), 0);
    }

    /// Bucket `b` starts at log index `FIRST * (2^b - 1)` and holds
    /// `FIRST << b` slots.
    #[test]
    fn log_indices_map_onto_doubling_buckets() {
        assert_eq!(locate(0), (0, 0));
        assert_eq!(locate(FIRST - 1), (0, FIRST as usize - 1));
        for b in 1..BUCKETS {
            let start = FIRST * ((1 << b) - 1);
            let last = (FIRST << (b - 1)) as usize - 1;
            assert_eq!(locate(start - 1), (b - 1, last), "end of bucket {}", b - 1);
            assert_eq!(locate(start), (b, 0), "start of bucket {b}");
        }
        let end = FIRST * ((1 << BUCKETS) - 1);
        assert_eq!(
            locate(end - 1),
            (BUCKETS - 1, (FIRST << (BUCKETS - 1)) as usize - 1)
        );
    }

    /// A finished master's whole log stays readable: a slave that starts
    /// only then consumes every entry in order, without a skip or a park.
    #[test]
    fn a_finished_masters_log_replays_in_full() {
        const N: u64 = 10_000;
        let c = Coupling::new(false);
        let p = c.pair(&ThreadKey::root());
        for cnt in 1..=N {
            p.push(entry(cnt, (cnt % 5) as u32, false));
            if cnt.is_multiple_of(3) {
                p.publish(Role::Master, &key(cnt));
            }
        }
        p.finish(Role::Master);
        // Past seven buckets: 64 + 128 + ... + 4096 = 8128 slots.
        assert!(p.log.len() > FIRST * ((1 << 7) - 1));
        let stop = StopSignal::new();
        for cnt in 1..=N {
            let next = p.next_for_slave(&ctx(cnt, &stop), |e| {
                panic!("entry {} skipped at {cnt}", e.key)
            });
            assert!(
                matches!(next, Next::Aligned(e) if e.outcome == Value::Int(cnt as i64)
                    && e.site == SiteId((cnt % 5) as u32)),
                "no alignment at {cnt}"
            );
        }
        assert_eq!(p.probe.parks.load(Ordering::Relaxed), 0);
        assert_eq!(unconsumed(&p), 0);
    }

    /// A master thread appends ~100k entries and barrier keys with random
    /// yields and lockstep waits while the slave consumes and parks. Every slave syscall must
    /// align with the master's entry at its key, in order, and no park may
    /// time out on an item the master published without waking it.
    #[test]
    fn the_slave_never_misses_a_wakeup() {
        const N: u64 = 100_000;
        let c = Coupling::new(false);
        let p = c.pair(&ThreadKey::root());
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut rng = 0x9e37_79b9_7f4a_7c15_u64;
                for cnt in 1..=N {
                    rng ^= rng << 13;
                    rng ^= rng >> 7;
                    rng ^= rng << 17;
                    p.push(entry(cnt, (cnt % 7) as u32, false));
                    if rng.is_multiple_of(5) {
                        p.publish(Role::Master, &key(cnt));
                    }
                    if rng.is_multiple_of(3) {
                        std::thread::yield_now();
                    }
                    // The enforcement-mode lockstep: a wakeup lost here
                    // would leave both sides asleep for a whole slice.
                    if rng.is_multiple_of(11) {
                        assert!(p.wait_past(&key(cnt), &StopSignal::new()));
                    }
                }
                p.finish(Role::Master);
            });
            let stop = StopSignal::new();
            for cnt in 1..=N {
                let next = p.next_for_slave(&ctx(cnt, &stop), |e| {
                    panic!("entry {} skipped at {cnt}", e.key)
                });
                match next {
                    Next::Aligned(e) => {
                        assert_eq!(e.outcome, Value::Int(cnt as i64));
                        assert_eq!(e.site, SiteId((cnt % 7) as u32));
                    }
                    Next::MasterPast | Next::GaveUp => panic!("no alignment at {cnt}"),
                }
            }
        });
        let parks = p.probe.parks.load(Ordering::Relaxed);
        let timeouts = p.probe.timeouts.load(Ordering::Relaxed);
        assert_eq!(p.probe.lost.load(Ordering::Relaxed), 0, "lost wakeups");
        assert!(parks > 0, "the slave never parked");
        // A slice ends on its timeout only when the master stalls for 2 ms
        // (descheduled on a loaded host); the master's wakes end the rest.
        assert!(
            2 * timeouts <= parks,
            "{timeouts} of {parks} parks timed out"
        );
        assert_eq!(unconsumed(&p), 0);
    }
}
