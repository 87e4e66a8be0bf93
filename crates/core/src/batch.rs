//! Parallel batch execution: a bounded pool for corpora of dual
//! executions.
//!
//! The engine accepts [`BatchJob`]s — (instrumented program, world, spec)
//! triples — and runs them concurrently on a pool of OS threads. Three
//! properties drive the design:
//!
//! * **Bounded fan-out.** Every dual execution internally spawns a
//!   master and a slave interpreter thread, so the pool is capped at
//!   `min(requested, available_parallelism() / 2)` workers — two OS
//!   threads per in-flight job — and never oversubscribes the host even
//!   when callers request huge pools.
//! * **A shared job cursor.** Workers claim the next unstarted job with
//!   one atomic `fetch_add` on a shared index, so a worker that finishes
//!   early simply claims the next job. Long-tailed jobs (e.g. `minhmm`
//!   next to `minzip`) therefore never serialize the corpus behind one
//!   slow worker.
//! * **Determinism.** Each job's result is written into the slot with the
//!   job's submission index, so [`BatchReport::results`] is in submission
//!   order regardless of the schedule. Dual execution itself is
//!   deterministic per job (for single-Lx-thread programs), so a batch run
//!   and a sequential [`Analysis::run`] loop produce identical verdicts,
//!   causality records, and table rows — `tests/batch_determinism.rs`
//!   locks this in under 1-worker and oversubscribed pools.
//!
//! [`Analysis::run`]: crate::Analysis::run

use ldx_dualex::{dual_execute, DualReport, DualSpec};
use ldx_ir::IrProgram;
use ldx_vos::VosConfig;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One unit of batch work: a dual execution of an instrumented program
/// against a world under a spec.
///
/// The program is shared by `Arc` — submitting the same compiled program
/// under many specs (source attribution, mutation batteries, corpora with
/// repeated sources) costs no copies.
#[derive(Debug, Clone)]
pub struct BatchJob {
    /// Display label carried through to [`JobResult::label`].
    pub label: String,
    /// The instrumented program to dual-execute.
    pub program: Arc<IrProgram>,
    /// The virtual world both executions run against.
    pub world: VosConfig,
    /// Sources, sinks, and execution limits.
    pub spec: DualSpec,
}

impl BatchJob {
    /// Creates a job.
    pub fn new(
        label: impl Into<String>,
        program: Arc<IrProgram>,
        world: VosConfig,
        spec: DualSpec,
    ) -> Self {
        BatchJob {
            label: label.into(),
            program,
            world,
            spec,
        }
    }
}

/// The outcome of one [`BatchJob`], with scheduler telemetry.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// The submitting job's label.
    pub label: String,
    /// The dual-execution causality report.
    pub report: DualReport,
    /// Wall-clock time of the dual execution itself.
    pub wall: Duration,
    /// Time from the start of the batch until a worker picked the job up.
    pub queue_latency: Duration,
    /// Which worker ran the job.
    pub worker: usize,
}

/// Aggregate result of a batch run.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// Per-job results, **in submission order** (not completion order).
    pub results: Vec<JobResult>,
    /// Worker threads the pool actually used.
    pub workers: usize,
    /// Wall-clock time of the whole batch.
    pub wall: Duration,
    /// Per-worker busy time (time spent executing jobs).
    pub worker_busy: Vec<Duration>,
}

impl BatchReport {
    /// Fraction of the pool's wall-clock capacity spent executing jobs,
    /// in `[0, 1]`. Low utilization on a long batch means the corpus had
    /// a serial tail; near 1.0 means every worker stayed busy.
    pub fn utilization(&self) -> f64 {
        let capacity = self.wall.as_secs_f64() * self.workers as f64;
        if capacity <= 0.0 {
            return 0.0;
        }
        let busy: f64 = self.worker_busy.iter().map(Duration::as_secs_f64).sum();
        (busy / capacity).min(1.0)
    }

    /// Total syscalls the couple shared across all jobs.
    pub fn shared_total(&self) -> u64 {
        self.results.iter().map(|r| r.report.shared).sum()
    }

    /// Total syscall differences observed across all jobs.
    pub fn diffs_total(&self) -> u64 {
        self.results.iter().map(|r| r.report.syscall_diffs).sum()
    }

    /// How many jobs reported causality.
    pub fn leaks(&self) -> usize {
        self.results.iter().filter(|r| r.report.leaked()).count()
    }

    /// Sum of per-job execution wall times (the sequential-equivalent
    /// cost; compare against [`BatchReport::wall`] for the speedup).
    pub fn busy_total(&self) -> Duration {
        self.results.iter().map(|r| r.wall).sum()
    }
}

/// A bounded worker pool for dual-execution jobs.
///
/// Construction picks the worker count; [`BatchEngine::run`] executes one
/// batch (workers are scoped to the call — the engine holds no threads
/// between runs, so it is cheap to create and freely shareable).
#[derive(Debug, Clone, Copy)]
pub struct BatchEngine {
    workers: usize,
}

impl BatchEngine {
    /// A pool of at most `requested` workers, capped at
    /// `available_parallelism() / 2` (each job runs a master *and* a
    /// slave thread) and floored at 1.
    pub fn new(requested: usize) -> Self {
        let avail = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        let cap = (avail / 2).max(1);
        BatchEngine {
            workers: requested.clamp(1, cap),
        }
    }

    /// The widest pool the sizing rule allows on this host.
    pub fn auto() -> Self {
        Self::new(usize::MAX)
    }

    /// A single-worker pool: same code path, sequential schedule. The
    /// determinism baseline.
    pub fn sequential() -> Self {
        BatchEngine { workers: 1 }
    }

    /// The number of workers [`BatchEngine::run`] will use.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs every job and returns the submission-ordered report.
    pub fn run(&self, jobs: Vec<BatchJob>) -> BatchReport {
        let started = Instant::now();
        let (results, worker_busy) = self.dispatch(jobs, |ctx, job| {
            let t0 = Instant::now();
            let span = ldx_obs::span(ldx_obs::cat::BATCH, job.label.clone())
                .arg("worker", ctx.worker as i64);
            let report = dual_execute(job.program, &job.world, &job.spec);
            drop(span);
            JobResult {
                label: job.label,
                report,
                wall: t0.elapsed(),
                queue_latency: ctx.queue_latency,
                worker: ctx.worker,
            }
        });
        BatchReport {
            results,
            workers: self.workers,
            wall: started.elapsed(),
            worker_busy,
        }
    }

    /// Applies `f` to every item on the pool and returns the results in
    /// input order. The general-purpose sibling of [`BatchEngine::run`]:
    /// bench binaries use it to parallelize whole table rows (which mix
    /// dual executions with taint baselines and native runs).
    pub fn map_ordered<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        self.dispatch(items, |_ctx, item| f(item)).0
    }

    /// The scheduler core: one scoped thread per worker claims the next
    /// item index from a shared cursor until the items run out; results
    /// land in the slot with the item's index.
    fn dispatch<T, R, F>(&self, items: Vec<T>, f: F) -> (Vec<R>, Vec<Duration>)
    where
        T: Send,
        R: Send,
        F: Fn(TaskCtx, T) -> R + Sync,
    {
        let started = Instant::now();
        let n = items.len();
        ldx_obs::counter_add("batch.jobs", n as u64);
        ldx_obs::counter_max("batch.workers", self.workers as u64);
        let jobs: Vec<Mutex<Option<T>>> = items
            .into_iter()
            .map(|item| Mutex::new(Some(item)))
            .collect();
        let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let cursor = AtomicUsize::new(0);

        let worker_busy = std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(self.workers);
            for worker in 0..self.workers {
                let jobs = &jobs;
                let cursor = &cursor;
                let slots = &slots;
                let f = &f;
                handles.push(scope.spawn(move || {
                    let mut busy = Duration::ZERO;
                    loop {
                        // Relaxed: the index publishes no data; items and
                        // results travel through their slots' mutexes.
                        let index = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(job) = jobs.get(index) else { break };
                        let item = job.lock().take().expect("each index is claimed once");
                        let queue_latency = started.elapsed();
                        ldx_obs::histogram_record(
                            "batch.queue_latency_ns",
                            queue_latency.as_nanos() as u64,
                        );
                        let ctx = TaskCtx {
                            worker,
                            queue_latency,
                        };
                        let t0 = Instant::now();
                        let result = f(ctx, item);
                        busy += t0.elapsed();
                        *slots[index].lock() = Some(result);
                    }
                    busy
                }));
            }
            handles
                .into_iter()
                .map(|h| h.join().expect("batch worker panicked"))
                .collect()
        });

        let results = slots
            .into_iter()
            .map(|slot| slot.into_inner().expect("every submitted job completed"))
            .collect();
        (results, worker_busy)
    }
}

/// Per-task context handed to the dispatch closure.
struct TaskCtx {
    worker: usize,
    queue_latency: Duration,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Analysis, SinkSpec, SourceSpec};
    use ldx_vos::PeerBehavior;

    fn leak_job(label: &str, payload: &str) -> BatchJob {
        let analysis = Analysis::for_source(&format!(
            r#"fn main() {{
                let s = read(open("/s", 0), 16);
                send(connect("out"), "{payload}:" + s);
            }}"#
        ))
        .unwrap()
        .world(
            VosConfig::new()
                .file("/s", "secret")
                .peer("out", PeerBehavior::Echo),
        )
        .source(SourceSpec::file("/s"))
        .sinks(SinkSpec::NetworkOut);
        BatchJob::new(
            label,
            analysis.program(),
            analysis.world_ref().clone(),
            analysis.spec().clone(),
        )
    }

    #[test]
    fn pool_sizing_respects_the_two_threads_per_job_rule() {
        let avail = std::thread::available_parallelism().map_or(1, |n| n.get());
        let cap = (avail / 2).max(1);
        assert_eq!(BatchEngine::new(usize::MAX).workers(), cap);
        assert_eq!(BatchEngine::auto().workers(), cap);
        assert_eq!(BatchEngine::new(0).workers(), 1);
        assert_eq!(BatchEngine::new(1).workers(), 1);
        assert_eq!(BatchEngine::sequential().workers(), 1);
    }

    #[test]
    fn results_come_back_in_submission_order() {
        let jobs: Vec<BatchJob> = (0..8).map(|i| leak_job(&format!("job{i}"), "p")).collect();
        let report = BatchEngine::auto().run(jobs);
        assert_eq!(report.results.len(), 8);
        for (i, r) in report.results.iter().enumerate() {
            assert_eq!(r.label, format!("job{i}"));
            assert!(r.report.leaked());
        }
        assert_eq!(report.leaks(), 8);
        assert!(report.shared_total() > 0);
    }

    #[test]
    fn empty_batch_is_fine() {
        let report = BatchEngine::auto().run(Vec::new());
        assert!(report.results.is_empty());
        assert_eq!(report.leaks(), 0);
        assert_eq!(report.utilization(), 0.0);
    }

    #[test]
    fn map_ordered_preserves_input_order_under_oversubscription() {
        // More conceptual workers than items and vice versa.
        let items: Vec<usize> = (0..50).collect();
        let out = BatchEngine::new(64).map_ordered(items, |i| i * 2);
        assert_eq!(out, (0..50).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn telemetry_is_populated() {
        let jobs = vec![leak_job("a", "x"), leak_job("b", "y")];
        let report = BatchEngine::sequential().run(jobs);
        assert_eq!(report.workers, 1);
        assert_eq!(report.worker_busy.len(), 1);
        assert!(report.wall >= report.results[0].wall);
        assert!(report.busy_total() >= report.results[0].wall);
        for r in &report.results {
            assert_eq!(r.worker, 0);
        }
        let u = report.utilization();
        assert!((0.0..=1.0).contains(&u), "{u}");
    }

    #[test]
    fn four_worker_pool_keeps_submission_order() {
        // Built directly so the multi-worker path runs on any host.
        let pool = BatchEngine { workers: 4 };
        let out = pool.map_ordered((0..100).collect(), |i: usize| i);
        assert_eq!(out, (0..100).collect::<Vec<_>>());

        let jobs: Vec<BatchJob> = (0..8).map(|i| leak_job(&format!("job{i}"), "p")).collect();
        let report = pool.run(jobs);
        assert_eq!(report.worker_busy.len(), 4);
        assert_eq!(report.results.len(), 8);
        for (i, r) in report.results.iter().enumerate() {
            assert_eq!(r.label, format!("job{i}"));
            assert!(r.worker < 4, "{}", r.worker);
            assert!(r.report.leaked());
        }
    }

    #[test]
    fn a_panicking_job_surfaces_and_the_engine_stays_usable() {
        let pool = BatchEngine { workers: 4 };
        let caught = std::panic::catch_unwind(|| {
            pool.map_ordered((0..10).collect(), |i: usize| {
                assert_ne!(i, 3, "job 3 fails");
                i
            })
        });
        assert!(caught.is_err());
        assert_eq!(
            pool.map_ordered(vec![1, 2, 3], |i: usize| i + 1),
            vec![2, 3, 4]
        );
    }
}
