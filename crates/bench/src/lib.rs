//! Shared helpers for the LDX benchmark harness.
//!
//! The `src/bin/` binaries regenerate the paper's evaluation artifacts:
//!
//! | binary                  | paper artifact |
//! |-------------------------|----------------|
//! | `table1`                | Table 1 — benchmarks & instrumentation |
//! | `table2`                | Table 2 — dual-execution effectiveness vs TightLip |
//! | `table3`                | Table 3 — tainted sinks: LDX vs TAINTGRIND vs LIBDFT |
//! | `table4`                | Table 4 — concurrent programs, 100-run variance |
//! | `figure6`               | Figure 6 — normalized overhead of LDX |
//! | `ablation_mutation`     | §8.3 input-mutation strategy study |
//! | `ablation_compensation` | DESIGN.md ablation: counters without compensation |
//!
//! `benches/alignment.rs` times the alignment machinery in isolation
//! (progress keys, the instrumentation pass, counter maintenance).

use ldx::obs::json_string;
use ldx_dualex::{dual_execute, DualReport, DualSpec};
use ldx_ir::IrProgram;
use ldx_runtime::{run_program, ExecConfig, NativeHooks, RunOutcome, Trap};
use ldx_vos::{Vos, VosConfig};
use ldx_workloads::Workload;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Times one closure invocation.
pub fn time_it<T>(f: impl FnOnce() -> T) -> (Duration, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed(), out)
}

/// Runs a program natively (single execution) and times it.
pub fn run_native_timed(
    program: &Arc<IrProgram>,
    world: &VosConfig,
) -> (Duration, Result<RunOutcome, Trap>) {
    let vos = Arc::new(Vos::new(world));
    let hooks = Arc::new(NativeHooks::new(vos));
    let program = Arc::clone(program);
    time_it(move || run_program(program, hooks, ExecConfig::default()))
}

/// Runs a dual execution and times it.
pub fn run_dual_timed(
    program: &Arc<IrProgram>,
    world: &VosConfig,
    spec: &DualSpec,
) -> (Duration, DualReport) {
    let program = Arc::clone(program);
    time_it(move || dual_execute(program, world, spec))
}

/// The median of repeated duration samples from `f`.
pub fn median_duration(reps: usize, mut f: impl FnMut() -> Duration) -> Duration {
    let mut samples: Vec<Duration> = (0..reps.max(1)).map(|_| f()).collect();
    samples.sort();
    samples[samples.len() / 2]
}

/// Arithmetic mean.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Geometric mean (of positive values).
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.max(1e-12).ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Sample standard deviation.
pub fn stddev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64).sqrt()
}

/// Scales a workload's world so that its runtime is long enough for
/// meaningful overhead measurement (the corpus defaults are sized for fast
/// correctness tests). Returns `None` for workloads whose input shape
/// cannot be scaled mechanically.
pub fn scaled_world(w: &Workload) -> Option<VosConfig> {
    let mut world = w.world.clone();
    match w.name {
        "minzip" => {
            let mut data = String::new();
            for i in 0..200 {
                let c = char::from(b'a' + (i % 26) as u8);
                for _ in 0..(i % 17 + 1) {
                    data.push(c);
                }
            }
            world.set_file("/data/input.txt", data);
        }
        "minhmm" => {
            let a: String = (0..160)
                .map(|i| "ACGT".chars().nth(i % 4).unwrap())
                .collect();
            let b: String = (0..160)
                .map(|i| "ACGT".chars().nth((i * 7 + 1) % 4).unwrap())
                .collect();
            world.set_file("/data/seqs.txt", format!("{a}\n{b}\n"));
        }
        "minh264" => {
            let mut frames = String::new();
            for r in 0..60 {
                for c in 0..32 {
                    frames.push(char::from(b'a' + ((r * 13 + c * 7) % 26) as u8));
                }
                frames.push('\n');
            }
            world.set_file("/data/frames.txt", frames);
        }
        "minflow" => {
            let mut graph = String::from("24\n");
            for i in 0..90 {
                graph.push_str(&format!("{} {} {}\n", i % 24, (i * 5 + 3) % 24, i % 11 + 1));
            }
            world.set_file("/data/graph.txt", graph);
        }
        "minxform" => {
            let mut doc = String::new();
            for i in 0..60 {
                doc.push_str(&format!("<t{i}>node {i} body</t{i}>"));
            }
            world.set_file("/data/doc.xml", doc);
        }
        "minperl" => {
            let mut script = String::new();
            for i in 0..120 {
                script.push_str(&format!(
                    "set v{} {}\nadd v{} {}\nprint v{}\n",
                    i % 9,
                    i,
                    i % 9,
                    i * 3,
                    i % 9
                ));
            }
            world.set_file("/scripts/job.pl", script);
        }
        "minquantum" => {
            let mut gates = String::new();
            for i in 0..100 {
                let g = ["x", "h", "cz"][i % 3];
                gates.push_str(&format!("{g} {}\n", i % 8));
            }
            world.set_file("/data/gates.txt", gates);
        }
        "minsim" => {
            let mut events = String::new();
            for i in 0..90 {
                let kind = if i % 3 == 0 { "depart" } else { "arrive" };
                events.push_str(&format!("{kind} {}\n", i % 7 + 1));
            }
            world.set_file("/data/events.txt", events);
        }
        "minhttpd" => {
            let requests: Vec<String> = (0..60)
                .map(|i| {
                    if i % 3 == 0 {
                        "GET /admin.html".to_string()
                    } else {
                        "GET /index.html".to_string()
                    }
                })
                .collect();
            world.listen.clear();
            world.listen.push((8080, requests));
        }
        _ => return None,
    }
    Some(world)
}

/// The perf-measurement subset: the paper measures "programs that are not
/// interactive and have non-trivial execution time" — here, the workloads
/// with a scaled world.
pub fn perf_workloads() -> Vec<(Workload, VosConfig)> {
    ldx_workloads::corpus()
        .into_iter()
        .filter_map(|w| scaled_world(&w).map(|world| (w, world)))
        .collect()
}

/// Formats a float as a JSON number (`null` for non-finite values, which
/// JSON cannot represent).
pub fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.6}")
    } else {
        "null".to_string()
    }
}

/// A machine-readable run summary every bench binary can emit
/// (`--summary [path]`, default `BENCH_<name>.json`): total wall-clock,
/// per-phase nanoseconds, and the final metrics-counter snapshot.
/// Validated by `scripts/check_bench_summary.py`, which also flags
/// wall-clock regressions against `scripts/bench_baseline.json`.
pub struct BenchSummary {
    name: &'static str,
    started: Instant,
    phases: Vec<(String, Duration)>,
    out: Option<String>,
}

impl BenchSummary {
    /// Strips `--summary [path]` from `args` and builds the summary.
    /// Without the flag, the summary is disabled and [`BenchSummary::finish`]
    /// writes nothing; with a bare `--summary`, the output path defaults
    /// to `BENCH_<name>.json` in the working directory.
    pub fn from_args(name: &'static str, args: Vec<String>) -> (Vec<String>, BenchSummary) {
        let mut rest = Vec::with_capacity(args.len());
        let mut out = None;
        let mut it = args.into_iter().peekable();
        while let Some(arg) = it.next() {
            if arg == "--summary" {
                out = Some(match it.peek() {
                    Some(next) if !next.starts_with("--") && next.ends_with(".json") => {
                        it.next().expect("peeked")
                    }
                    _ => format!("BENCH_{name}.json"),
                });
            } else {
                rest.push(arg);
            }
        }
        (
            rest,
            BenchSummary {
                name,
                started: Instant::now(),
                phases: Vec::new(),
                out,
            },
        )
    }

    /// A summary that always writes to `path` (for tests).
    pub fn to_path(name: &'static str, path: impl Into<String>) -> BenchSummary {
        BenchSummary {
            name,
            started: Instant::now(),
            phases: Vec::new(),
            out: Some(path.into()),
        }
    }

    /// Whether `--summary` was requested.
    pub fn enabled(&self) -> bool {
        self.out.is_some()
    }

    /// Records a completed phase's duration.
    pub fn phase(&mut self, label: impl Into<String>, dur: Duration) {
        self.phases.push((label.into(), dur));
    }

    /// Times `f` and records it as a phase.
    pub fn timed<T>(&mut self, label: impl Into<String>, f: impl FnOnce() -> T) -> T {
        let (dur, out) = time_it(f);
        self.phase(label, dur);
        out
    }

    /// The summary as JSON (`schemas/bench_summary_schema.json`).
    pub fn to_json(&self) -> String {
        let mut phases = String::new();
        for (label, dur) in &self.phases {
            if !phases.is_empty() {
                phases.push(',');
            }
            phases.push_str(&format!(
                "\n    {{\"name\": {}, \"ns\": {}}}",
                json_string(label),
                dur.as_nanos()
            ));
        }
        let mut counters = String::new();
        for c in &ldx::obs::metrics_snapshot().counters {
            if !counters.is_empty() {
                counters.push(',');
            }
            counters.push_str(&format!("\n    {}: {}", json_string(c.name), c.value));
        }
        format!(
            "{{\n  \"schema\": \"ldx-bench-summary-v1\",\n  \"name\": {},\n  \
             \"wall_ns\": {},\n  \"phases\": [{phases}\n  ],\n  \
             \"counters\": {{{counters}\n  }}\n}}\n",
            json_string(self.name),
            self.started.elapsed().as_nanos()
        )
    }

    /// Writes the summary when `--summary` was requested; returns the
    /// path written, if any.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the output file cannot be written.
    pub fn finish(&self) -> std::io::Result<Option<&str>> {
        match &self.out {
            Some(path) => {
                std::fs::write(path, self.to_json())?;
                Ok(Some(path))
            }
            None => Ok(None),
        }
    }
}

/// Writes the summary if requested and logs the outcome — the shared
/// tail of every bench binary's `main`.
pub fn finish_summary(summary: &BenchSummary) {
    match summary.finish() {
        Ok(Some(path)) => println!("bench summary: {path}"),
        Ok(None) => {}
        Err(e) => eprintln!("could not write bench summary: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn statistics_helpers() {
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-9);
        assert!(stddev(&[2.0, 2.0, 2.0]) < 1e-12);
        assert!(stddev(&[1.0, 3.0]) > 0.9);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn perf_workloads_run_scaled() {
        let subset = perf_workloads();
        assert!(subset.len() >= 8, "need a meaningful perf subset");
        for (w, world) in subset {
            let program = w.program();
            let (_, out) = run_native_timed(&program, &world);
            let out = out.unwrap_or_else(|e| panic!("scaled `{}` traps: {e}", w.name));
            assert!(
                out.stats.syscalls >= 15 || out.stats.steps >= 3_000,
                "scaled `{}` still trivial ({} syscalls, {} steps)",
                w.name,
                out.stats.syscalls,
                out.stats.steps
            );
        }
    }

    #[test]
    fn median_duration_is_stable() {
        let d = median_duration(3, || Duration::from_millis(1));
        assert_eq!(d, Duration::from_millis(1));
    }

    #[test]
    fn summary_arg_parsing() {
        let v = |args: &[&str]| args.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let (rest, s) = BenchSummary::from_args("t", v(&["5", "--summary", "out.json"]));
        assert_eq!(rest, v(&["5"]));
        assert!(s.enabled());
        let (rest, s) = BenchSummary::from_args("t", v(&["--summary", "3"]));
        assert_eq!(rest, v(&["3"]), "non-path operand stays an argument");
        assert!(s.enabled());
        let (_, s) = BenchSummary::from_args("t", v(&["5"]));
        assert!(!s.enabled());
        assert!(s.finish().expect("disabled writes nothing").is_none());
    }

    #[test]
    fn summary_json_has_phases_and_counters() {
        let (_, mut s) = BenchSummary::from_args("demo", vec!["--summary".to_string()]);
        let out: u32 = s.timed("warm", || 7);
        assert_eq!(out, 7);
        s.phase("measure", Duration::from_nanos(1234));
        let json = s.to_json();
        assert!(json.contains("\"schema\": \"ldx-bench-summary-v1\""));
        assert!(json.contains("\"name\": \"demo\""));
        assert!(json.contains("\"wall_ns\": "));
        assert!(json.contains("{\"name\": \"warm\", \"ns\": "));
        assert!(json.contains("{\"name\": \"measure\", \"ns\": 1234}"));
        assert!(json.contains("\"counters\": {"));
    }

    #[test]
    fn json_f64_nulls_non_finite_values() {
        assert_eq!(json_f64(1.5), "1.500000");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
    }
}
