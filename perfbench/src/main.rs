//! The LDX benchmark: how long an analyst or a CI job waits for
//! "does source X cause sink Y?" verdicts, and what each verdict costs.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload corpus-verdicts --seed 1 --seconds 20 --trace 0
//! ```
//!
//! A run sets the workload's programs up several times from cold, then
//! asks for verdicts in a closed loop (one client, the benchmark) for
//! `--seconds`, interleaving each verdict with a plain-native control run
//! of the same program and world. Every verdict is checked against a
//! reference the engine does not produce. With `--trace 0` the last line
//! of standard output carries the end-to-end metrics; with `--trace 1` it
//! carries per-layer metrics, taken from timed calls into each layer's
//! public functions. README.md describes the workloads and metrics.

mod host;
mod inputs;
mod stats;

use inputs::{Case, Kind, Rng, SpecKind};
use ldx::{Analysis, BatchEngine, BatchJob, DualSpec, InstrumentCache, RunStats};
use ldx_ir::IrProgram;
use ldx_runtime::{run_program, ExecConfig, NativeHooks, RunOutcome, Trap};
use ldx_vos::Vos;
use stats::{intercept, median, quantile};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Cold set-ups per run, at least (see [`setup_seconds`]).
const SETUP_REPS: usize = 15;
/// Set-ups are spread over the run, taking this share of its time, so
/// they sample the same host conditions as the verdicts.
const SETUP_SHARE: f64 = 0.1;
/// The share of a threaded program's verdicts that may differ from the
/// reference. Schedules differ between runs, so a threaded program's
/// verdict is a distribution (paper Table 4), not a fixed answer.
const THREADED_MAX_MISS: f64 = 0.05;
/// The quantile of a program's call times that timings are read at
/// (see [`end_to_end_metrics`]).
const QUIET: f64 = 0.1;
/// Verdict passes a run makes even when `--seconds` is already spent.
const MIN_PASSES: usize = 3;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = value("--workload")?;
    let kind = Kind::parse(workload).ok_or(format!("unknown workload {workload}"))?;
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    Ok(Args {
        kind,
        seed,
        seconds,
        trace,
    })
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One program ready for verdicts: its analysis carries one source per
/// spec, so a single `attribute_sources_with` call answers them all.
struct Prepared {
    case: Case,
    analysis: Analysis,
}

/// One cold set-up of every case: its time and, in traced runs, each
/// layer's share and counts.
#[derive(Default)]
struct SetupRep {
    /// The whole set-up, traced runs' extra layer calls included.
    total: Duration,
    /// Each case's set-up on the user's path.
    per_case: Vec<Duration>,
    compile: Duration,
    lower: Duration,
    instrument: Duration,
    sdep: Duration,
    ir_instrs: usize,
    original_instrs: usize,
    added_instrs: usize,
    pdg_nodes: usize,
    pdg_edges: usize,
}

/// Compile, lower, instrument and analyse every case from a cold cache.
/// When `traced`, each layer's public entry point is also called and
/// timed on its own.
fn set_up(cases: &[Case], traced: bool) -> (InstrumentCache, Vec<Analysis>, SetupRep) {
    let started = Instant::now();
    let cache = InstrumentCache::new();
    let mut rep = SetupRep::default();
    let analyses = cases
        .iter()
        .map(|case| {
            if traced {
                let t = Instant::now();
                let resolved = ldx_lang::compile(&case.source).expect("corpus program compiles");
                rep.compile += t.elapsed();
                let t = Instant::now();
                let lowered = ldx_ir::lower(&resolved);
                rep.lower += t.elapsed();
                let t = Instant::now();
                let instrumented = ldx_instrument::instrument(&lowered);
                rep.instrument += t.elapsed();
                rep.ir_instrs += lowered.instr_count();
                rep.original_instrs += instrumented.report().total_original_instrs();
                rep.added_instrs += instrumented.report().total_added_instrs();
            }
            let user_path = Instant::now();
            let entry = cache
                .instrumented(&case.source)
                .expect("corpus program compiles");
            cache
                .uninstrumented(&case.source)
                .expect("corpus program compiles");
            let mut analysis = Analysis::for_instrumented((*entry.instrumented).clone())
                .world(case.world.clone())
                .sinks(case.sinks.clone());
            for spec in &case.specs {
                analysis = analysis.source(spec.source.clone());
            }
            let t = Instant::now();
            let sdep = analysis.static_analysis();
            rep.sdep += t.elapsed();
            rep.pdg_nodes += sdep.pdg().nodes().len();
            rep.pdg_edges += sdep.pdg().edge_count();
            rep.per_case.push(user_path.elapsed());
            analysis
        })
        .collect();
    rep.total = started.elapsed();
    (cache, analyses, rep)
}

/// The workload's set-up time: each program's median cold set-up,
/// summed. A program sets up in about a millisecond, so most of its
/// set-ups escape host interference that would reach a whole set-up.
fn setup_seconds(setups: &[SetupRep]) -> f64 {
    (0..setups[0].per_case.len())
        .map(|c| {
            let times: Vec<f64> = setups.iter().map(|r| r.per_case[c].as_secs_f64()).collect();
            median(&times)
        })
        .sum()
}

fn run_native(program: Arc<IrProgram>, vos: Vos) -> (Duration, Result<RunOutcome, Trap>) {
    let hooks = Arc::new(NativeHooks::new(Arc::new(vos)));
    let t = Instant::now();
    let out = run_program(program, hooks, ExecConfig::default());
    (t.elapsed(), out)
}

fn stats_of(out: &Result<RunOutcome, Trap>) -> RunStats {
    out.as_ref().map(|o| o.stats.clone()).unwrap_or_default()
}

/// Every verdict call of a run, per case: its wall and CPU time.
struct Calls {
    wall_ms: Vec<Vec<f64>>,
    cpu_ms: Vec<Vec<f64>>,
}

impl Calls {
    fn new(cases: usize) -> Self {
        Calls {
            wall_ms: vec![Vec::new(); cases],
            cpu_ms: vec![Vec::new(); cases],
        }
    }

    fn push(&mut self, case: usize, wall: Duration, cpu: Duration) {
        self.wall_ms[case].push(ms(wall));
        self.cpu_ms[case].push(ms(cpu));
    }

    /// Milliseconds per verdict of a pass made of each case's quiet call.
    fn ms_per_verdict(&self, verdicts: &[usize]) -> f64 {
        let wall: f64 = self.wall_ms.iter().map(|v| quiet(v)).sum();
        wall / verdicts.iter().sum::<usize>().max(1) as f64
    }
}

/// One dual run of a traced pass.
struct DualSample {
    case: usize,
    identity: bool,
    wall_ms: f64,
    stats: RunStats,
    shared: u64,
    decoupled: u64,
    diffs: u64,
    sinks: u64,
}

/// Samples behind the per-layer metrics of the verdict loop.
struct LoopLayers {
    world_build_us: Vec<f64>,
    native_plain: Duration,
    native_instrumented: Duration,
    native_runs: u64,
    native_steps: u64,
    native_syscalls: u64,
    inst_native_ms: Vec<Vec<f64>>,
    verdicts: u64,
    pruned: u64,
    queue_wait_ms: Vec<f64>,
    utilization: Vec<f64>,
    batch_cpu: Duration,
    duals: Vec<DualSample>,
    /// Verdict calls by kind of pass: untraced, traced (the timed
    /// `may_cause` and `BatchEngine::run` path), and untraced with
    /// ldx-obs enabled.
    off: Calls,
    traced: Calls,
    obs: Calls,
}

/// Verdicts of one threaded (case, spec) pair that matched the
/// reference, out of all, and the ones that did not.
#[derive(Default)]
struct Tally {
    agreed: u64,
    total: u64,
    misses: Vec<String>,
}

struct Bench {
    seed: u64,
    engine: BatchEngine,
    cache: InstrumentCache,
    prepared: Vec<Prepared>,
    /// Plain-native control run times, per case.
    native_ms: Vec<Vec<f64>>,
    /// Verdicts, and dual runs, one call makes, per case.
    verdicts: Vec<usize>,
    runs: Vec<usize>,
    attempted: u64,
    failures: Vec<String>,
    threaded: BTreeMap<(usize, usize), Tally>,
}

impl Bench {
    fn describe(&self, case: usize, spec: SpecKind, pass: usize, what: &str) -> String {
        format!(
            "program={} spec={} seed={} pass={} {}",
            self.prepared[case].case.name,
            spec.name(),
            self.seed,
            pass,
            what
        )
    }

    fn fail(&mut self, case: usize, spec: SpecKind, pass: usize, what: &str) {
        let line = format!("wrong verdict: {}", self.describe(case, spec, pass, what));
        println!("{line}");
        self.failures.push(line);
    }

    /// Checks one verdict against its reference. A threaded program's
    /// miss is printed at once but judged with the rest of its
    /// distribution in [`Bench::finish_threaded`].
    fn check(&mut self, case: usize, spec: usize, causal: bool, pass: usize) {
        let s = &self.prepared[case].case.specs[spec];
        let (kind, expected) = (s.kind, s.expect_causal);
        let agrees = causal == expected;
        let what = format!("expected causal={expected} got causal={causal}");
        if self.prepared[case].case.threaded {
            let line = format!(
                "threaded verdict differs: {}",
                self.describe(case, kind, pass, &what)
            );
            let tally = self.threaded.entry((case, spec)).or_default();
            tally.total += 1;
            if agrees {
                tally.agreed += 1;
            } else {
                println!("{line}");
                tally.misses.push(line);
            }
        } else if !agrees {
            self.fail(case, kind, pass, &what);
        }
    }

    /// Fails every miss of a threaded (case, spec) pair with more than
    /// one miss and more than [`THREADED_MAX_MISS`] of its verdicts
    /// missed, and prints each pair's share.
    fn finish_threaded(&mut self) {
        for ((case, spec), tally) in std::mem::take(&mut self.threaded) {
            let misses = tally.misses.len() as u64;
            let c = &self.prepared[case].case;
            println!(
                "threaded: program={} spec={} matched {}/{}",
                c.name,
                c.specs[spec].kind.name(),
                tally.agreed,
                tally.total
            );
            if misses > 1 && misses as f64 > THREADED_MAX_MISS * tally.total as f64 {
                self.failures.extend(tally.misses);
            }
        }
    }

    fn fail_call(&mut self, case: usize, pass: usize, what: &str) {
        let kinds: Vec<SpecKind> = self.prepared[case]
            .case
            .specs
            .iter()
            .map(|s| s.kind)
            .collect();
        for kind in kinds {
            self.fail(case, kind, pass, what);
        }
    }

    fn native(&self, case: usize, instrumented: bool) -> (Duration, Result<RunOutcome, Trap>) {
        let p = &self.prepared[case].case;
        let program = if instrumented {
            self.cache.program(&p.source)
        } else {
            self.cache.uninstrumented(&p.source)
        };
        run_native(program.expect("cached program"), Vos::new(&p.world))
    }

    /// A pass over every case in `order` on the user's path: a native
    /// control run, then one `attribute_sources_with` call.
    fn plain_pass(&mut self, order: &[usize], pass: usize, calls: &mut Calls) {
        for &i in order {
            let (native, _) = self.native(i, false);
            self.native_ms[i].push(ms(native));
            let p = &self.prepared[i];
            let (c0, t0) = (host::process_cpu(), Instant::now());
            let res = catch_unwind(AssertUnwindSafe(|| {
                p.analysis.attribute_sources_with(&self.engine)
            }));
            let (wall, cpu) = (t0.elapsed(), host::process_cpu() - c0);
            let specs = p.case.specs.len();
            self.attempted += specs as u64;
            let results = match res {
                Ok(r) if r.len() == specs => r,
                Ok(_) => {
                    self.fail_call(i, pass, "returned no verdict");
                    continue;
                }
                Err(_) => {
                    self.fail_call(i, pass, "panicked");
                    continue;
                }
            };
            for (s, r) in results.iter().enumerate() {
                self.check(i, s, r.causal, pass);
            }
            self.runs[i] = results.iter().filter(|r| !r.pruned).count();
            calls.push(i, wall, cpu);
        }
    }

    /// A pass that calls each layer's public entry points separately and
    /// times them: `Vos::new`, native runs of both program forms, then
    /// the two steps of `attribute_sources_with` (sdep's `may_cause`
    /// pre-filter and `BatchEngine::run`).
    fn traced_pass(&mut self, order: &[usize], pass: usize, l: &mut LoopLayers) {
        for &i in order {
            let world = self.prepared[i].case.world.clone();
            let t = Instant::now();
            let vos = Vos::new(&world);
            l.world_build_us.push(t.elapsed().as_secs_f64() * 1e6);
            // Alternate which native form runs first, so neither always
            // finds the caches warmed by the other.
            let plain_first = pass.is_multiple_of(2);
            let mut inst_wall = Duration::ZERO;
            if !plain_first {
                inst_wall = self.native(i, true).0;
            }
            let plain = self.cache.uninstrumented(&self.prepared[i].case.source);
            let (plain_wall, out) = run_native(plain.expect("cached program"), vos);
            let st = stats_of(&out);
            l.native_plain += plain_wall;
            l.native_runs += 1;
            l.native_steps += st.steps;
            l.native_syscalls += st.syscalls;
            if plain_first {
                inst_wall = self.native(i, true).0;
            }
            l.native_instrumented += inst_wall;
            l.inst_native_ms[i].push(ms(inst_wall));

            let p = &self.prepared[i];
            let t0 = Instant::now();
            let sdep = p.analysis.static_analysis();
            let should_run: Vec<bool> = p
                .case
                .specs
                .iter()
                .map(|s| sdep.may_cause(&s.source, &p.case.sinks))
                .collect();
            let jobs: Vec<BatchJob> = p
                .case
                .specs
                .iter()
                .zip(&should_run)
                .filter(|(_, run)| **run)
                .map(|(s, _)| {
                    let spec = DualSpec {
                        sources: vec![s.source.clone()],
                        sinks: p.case.sinks.clone(),
                        ..DualSpec::default()
                    };
                    BatchJob::new(s.kind.name(), p.analysis.program(), world.clone(), spec)
                })
                .collect();
            let c0 = host::process_cpu();
            let out = catch_unwind(AssertUnwindSafe(|| self.engine.run(jobs)));
            let cpu = host::process_cpu() - c0;
            let wall = t0.elapsed();
            let specs = p.case.specs.len();
            self.attempted += specs as u64;
            let Ok(report) = out else {
                self.fail_call(i, pass, "panicked");
                continue;
            };
            l.verdicts += specs as u64;
            l.batch_cpu += cpu;
            l.utilization.push(report.utilization());
            let mut results = report.results.into_iter();
            for (s, run) in should_run.iter().enumerate() {
                if !run {
                    l.pruned += 1;
                    self.check(i, s, false, pass);
                    continue;
                }
                let Some(r) = results.next() else {
                    let kind = self.prepared[i].case.specs[s].kind;
                    self.fail(i, kind, pass, "returned no verdict");
                    continue;
                };
                self.check(i, s, r.report.leaked(), pass);
                l.queue_wait_ms.push(ms(r.queue_latency));
                l.duals.push(DualSample {
                    case: i,
                    identity: self.prepared[i].case.specs[s].kind == SpecKind::Identity,
                    wall_ms: ms(r.wall),
                    stats: stats_of(&r.report.master),
                    shared: r.report.shared,
                    decoupled: r.report.decoupled,
                    diffs: r.report.syscall_diffs,
                    sinks: r.report.master_sinks,
                });
            }
            l.traced.push(i, wall, cpu);
        }
    }
}

type Metric = (&'static str, f64, &'static str);

/// The [`QUIET`] quantile of repeated timings.
fn quiet(times: &[f64]) -> f64 {
    quantile(times, QUIET)
}

/// Host interference (CPU steal, a busy sibling hyperthread) only ever
/// adds wall time, and a short call escapes it far more often than a
/// whole pass does. Each program's call is therefore timed at the
/// [`QUIET`] quantile of its calls over the run, and the metrics describe
/// a pass made of these quiet calls. CPU time excludes stolen time and
/// moves both ways with the schedule (a slave that waits longer polls
/// more), so it is taken at each program's median.
fn end_to_end_metrics(bench: &Bench, calls: &Calls, setup_s: f64) -> Vec<Metric> {
    let per_case =
        |v: &[Vec<f64>], f: fn(&[f64]) -> f64| v.iter().map(|x| f(x)).collect::<Vec<_>>();
    let (wall, cpu, native) = (
        per_case(&calls.wall_ms, quiet),
        per_case(&calls.cpu_ms, median),
        per_case(&bench.native_ms, quiet),
    );
    let verdicts = bench.verdicts.iter().sum::<usize>() as f64;
    // A verdict takes as long as the call that answered it; a dual run,
    // its share of the call.
    let latency: Vec<f64> = (0..wall.len())
        .flat_map(|c| std::iter::repeat_n(wall[c], bench.verdicts[c]))
        .collect();
    let slowdown: Vec<f64> = (0..wall.len())
        .flat_map(|c| {
            let runs = bench.runs[c];
            std::iter::repeat_n(wall[c] / runs as f64 / native[c], runs)
        })
        .collect();
    vec![
        (
            "verdicts_per_s",
            1e3 * verdicts / wall.iter().sum::<f64>(),
            "1/s",
        ),
        ("verdict_ms_p50", quantile(&latency, 0.5), "ms"),
        ("verdict_ms_p90", quantile(&latency, 0.9), "ms"),
        ("slowdown_p50", quantile(&slowdown, 0.5), "ratio"),
        (
            "cpu_ms_per_verdict",
            cpu.iter().sum::<f64>() / verdicts,
            "ms",
        ),
        ("setup_s", setup_s, "s"),
        ("peak_rss_mb", host::peak_rss_mb(), "MiB"),
    ]
}

fn per_layer_metrics(
    bench: &Bench,
    setups: &[SetupRep],
    l: &LoopLayers,
    steal: f64,
) -> Vec<Metric> {
    let setup_ms = |f: &dyn Fn(&SetupRep) -> Duration| {
        median(&setups.iter().map(|r| ms(f(r))).collect::<Vec<_>>())
    };
    let s = &setups[0];
    let runs = l.duals.len().max(1) as f64;
    let sum = |f: &dyn Fn(&DualSample) -> f64| l.duals.iter().map(f).sum::<f64>();
    let inst_native: Vec<f64> = l.inst_native_ms.iter().map(|v| median(v)).collect();
    // Coupling cost: dual identity minus instrumented native, per case,
    // against the master's syscall count.
    let mut per_case: Vec<(Vec<f64>, Vec<f64>)> = vec![(vec![], vec![]); bench.prepared.len()];
    let (mut extra_ms, mut syscalls) = (0.0, 0.0);
    for d in l.duals.iter().filter(|d| d.identity) {
        extra_ms += d.wall_ms - inst_native[d.case];
        syscalls += d.stats.syscalls as f64;
        per_case[d.case].0.push(d.stats.syscalls as f64);
        per_case[d.case].1.push(d.wall_ms);
    }
    let points: Vec<(f64, f64)> = per_case
        .iter()
        .enumerate()
        .filter(|(_, (x, _))| !x.is_empty())
        .map(|(case, (x, y))| (median(x), (median(y) - inst_native[case]) * 1e3))
        .collect();
    let shared = sum(&|d| d.shared as f64);
    let decoupled = sum(&|d| d.decoupled as f64);
    let job_wall_s = sum(&|d| d.wall_ms) / 1e3;
    let plain_s = l.native_plain.as_secs_f64();
    let hits = bench.cache.hits() as f64;
    let off = l.off.ms_per_verdict(&bench.verdicts);
    vec![
        ("lang.compile_ms", setup_ms(&|r| r.compile), "ms"),
        ("ir.lower_ms", setup_ms(&|r| r.lower), "ms"),
        ("ir.instrs", s.ir_instrs as f64, "count"),
        ("instrument.pass_ms", setup_ms(&|r| r.instrument), "ms"),
        (
            "instrument.added_instr_frac",
            s.added_instrs as f64 / (s.original_instrs + s.added_instrs).max(1) as f64,
            "ratio",
        ),
        ("sdep.analyze_ms", setup_ms(&|r| r.sdep), "ms"),
        ("sdep.pdg_nodes", s.pdg_nodes as f64, "count"),
        ("sdep.pdg_edges", s.pdg_edges as f64, "count"),
        (
            "sdep.pruned_frac",
            l.pruned as f64 / l.verdicts.max(1) as f64,
            "ratio",
        ),
        (
            "cache.hit_ratio",
            hits / (hits + bench.cache.compiles() as f64).max(1.0),
            "ratio",
        ),
        ("batch.queue_wait_ms_p50", median(&l.queue_wait_ms), "ms"),
        ("batch.utilization", median(&l.utilization), "ratio"),
        ("batch.workers", bench.engine.workers() as f64, "count"),
        ("vos.world_build_us", median(&l.world_build_us), "us"),
        (
            "runtime.native_ms",
            plain_s * 1e3 / l.native_runs.max(1) as f64,
            "ms",
        ),
        (
            "runtime.steps",
            l.native_steps as f64 / l.native_runs.max(1) as f64,
            "count",
        ),
        (
            "runtime.syscalls",
            l.native_syscalls as f64 / l.native_runs.max(1) as f64,
            "count",
        ),
        (
            "runtime.ns_per_step",
            plain_s * 1e9 / l.native_steps.max(1) as f64,
            "ns",
        ),
        (
            "runtime.counter_overhead",
            l.native_instrumented.as_secs_f64() / plain_s.max(1e-12),
            "ratio",
        ),
        ("dualex.run_ms", sum(&|d| d.wall_ms) / runs, "ms"),
        (
            "dualex.coupling_us_per_syscall",
            extra_ms * 1e3 / syscalls.max(1.0),
            "us",
        ),
        ("dualex.fixed_run_us", intercept(&points), "us"),
        ("dualex.shared", shared / runs, "count"),
        ("dualex.decoupled", decoupled / runs, "count"),
        (
            "dualex.shared_frac",
            shared / (shared + decoupled).max(1.0),
            "ratio",
        ),
        (
            "dualex.barrier_waits",
            sum(&|d| d.stats.barrier_waits as f64) / runs,
            "count",
        ),
        (
            "dualex.blocked_frac",
            1.0 - l.batch_cpu.as_secs_f64() / (2.0 * job_wall_s).max(1e-12),
            "ratio",
        ),
        (
            "dualex.syscall_diffs",
            sum(&|d| d.diffs as f64) / runs,
            "count",
        ),
        (
            "dualex.master_sinks",
            sum(&|d| d.sinks as f64) / runs,
            "count",
        ),
        (
            "obs.enabled_overhead",
            l.obs.ms_per_verdict(&bench.verdicts) / off,
            "ratio",
        ),
        (
            "bench.trace_overhead",
            l.traced.ms_per_verdict(&bench.verdicts) / off,
            "ratio",
        ),
        ("host.steal_frac", steal, "ratio"),
        (
            "wrong_verdict_frac",
            bench.failures.len() as f64 / bench.attempted.max(1) as f64,
            "ratio",
        ),
    ]
}

fn result_line(bench: &Bench, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        bench.failures.is_empty(),
        bench.attempted,
        bench.failures.len(),
        body.join(", ")
    )
}

fn run(args: &Args) -> String {
    let ticks_before = host::CpuTicks::read();
    let cases = inputs::cases(args.kind, args.seed);
    let n = cases.len();

    let (cache, analyses, first) = set_up(&cases, args.trace);
    let mut setups = vec![first];
    let mut bench = Bench {
        seed: args.seed,
        engine: BatchEngine::auto(),
        cache,
        prepared: cases
            .iter()
            .cloned()
            .zip(analyses)
            .map(|(case, analysis)| Prepared { case, analysis })
            .collect(),
        native_ms: vec![Vec::new(); n],
        verdicts: cases.iter().map(|c| c.specs.len()).collect(),
        runs: vec![0; n],
        attempted: 0,
        failures: Vec::new(),
        threaded: BTreeMap::new(),
    };

    let mut order_rng = Rng::new(args.seed.rotate_left(17) ^ 0x6c64_7862);
    let mut calls = Calls::new(n);
    let mut layers = LoopLayers {
        world_build_us: Vec::new(),
        native_plain: Duration::ZERO,
        native_instrumented: Duration::ZERO,
        native_runs: 0,
        native_steps: 0,
        native_syscalls: 0,
        inst_native_ms: vec![Vec::new(); n],
        verdicts: 0,
        pruned: 0,
        queue_wait_ms: Vec::new(),
        utilization: Vec::new(),
        batch_cpu: Duration::ZERO,
        duals: Vec::new(),
        off: Calls::new(n),
        traced: Calls::new(n),
        obs: Calls::new(n),
    };
    let started = Instant::now();
    let mut pass = 0;
    while pass < MIN_PASSES || started.elapsed().as_secs_f64() < args.seconds {
        let mut order: Vec<usize> = (0..n).collect();
        order_rng.shuffle(&mut order);
        if args.trace {
            // Three modes per pass, in rotating order.
            for m in 0..3 {
                match (m + pass) % 3 {
                    0 => bench.plain_pass(&order, pass, &mut layers.off),
                    1 => bench.traced_pass(&order, pass, &mut layers),
                    _ => {
                        // Both outputs requested: metrics, profiling and
                        // tracing on. Nothing is written; `finish` is
                        // never called.
                        ldx::obs::init(&ldx::obs::ObsArgs {
                            trace: Some(String::new()),
                            metrics: Some(String::new()),
                        });
                        bench.plain_pass(&order, pass, &mut layers.obs);
                        ldx::obs::reset();
                    }
                }
            }
        } else {
            bench.plain_pass(&order, pass, &mut calls);
        }
        pass += 1;
        while setups.iter().map(|r| r.total).sum::<Duration>()
            < started.elapsed().mul_f64(SETUP_SHARE)
        {
            setups.push(set_up(&cases, args.trace).2);
        }
    }
    while setups.len() < SETUP_REPS {
        setups.push(set_up(&cases, args.trace).2);
    }
    bench.finish_threaded();

    let steal = host::CpuTicks::read().steal_since(&ticks_before);
    println!("host: {}", host::fingerprint(steal, bench.engine.workers()));
    let wrong_frac = bench.failures.len() as f64 / bench.attempted.max(1) as f64;
    println!(
        "summary: workload={} seed={} passes={pass} set-ups={} verdicts={} \
         wrong_verdict_frac={wrong_frac}",
        args.kind.name(),
        args.seed,
        setups.len(),
        bench.attempted,
    );
    let metrics = if args.trace {
        per_layer_metrics(&bench, &setups, &layers, steal)
    } else {
        end_to_end_metrics(&bench, &calls, setup_seconds(&setups))
    };
    result_line(&bench, &metrics)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "error: {e}\nusage: ldx-perfbench --workload <corpus-verdicts|syscall-dense|compute-loops> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    println!("{}", run(&args));
    ExitCode::SUCCESS
}
