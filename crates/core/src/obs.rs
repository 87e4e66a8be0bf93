//! Observability facade: re-exports [`ldx_obs`] and provides the shared
//! CLI wiring (`--trace <path>`, `--metrics <path>`) used by the `ldx`
//! binary and every bench binary.
//!
//! The contract all entry points follow:
//!
//! 1. [`parse_obs_args`] strips the observability flags from `argv`;
//! 2. [`init`] enables the right levels (metrics always; profiling when
//!    either flag is present; tracing only for `--trace`);
//! 3. the workload runs, instrumented throughout the workspace;
//! 4. [`finish`] writes the requested files, or — when no `--metrics`
//!    file was asked for — prints a compact one-line counters dump to
//!    stderr, keeping stdout byte-identical for result consumers.
//!
//! See `docs/OBSERVABILITY.md` for the span taxonomy and metric names.

pub use ldx_obs::*;

/// Counters every CLI run pre-registers, so metrics dumps always carry
/// the full key set even when a value never fired.
pub const DEFAULT_COUNTERS: &[&str] = &[
    "cache.hits",
    "cache.compiles",
    "batch.jobs",
    "batch.workers",
    "dualex.runs",
    "dualex.shared",
    "dualex.decoupled",
    "dualex.syscall_diffs",
    "dualex.master_sinks",
    "sdep.nodes",
    "sdep.edges",
    "sdep.sites",
    "sdep.pruned_pairs",
    "recorder.events",
    "recorder.dropped",
];

/// Parsed observability flags.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ObsArgs {
    /// `--trace <path>`: write a Chrome `trace_event` JSON file.
    pub trace: Option<String>,
    /// `--metrics <path>`: write the flat metrics JSON dump.
    pub metrics: Option<String>,
}

/// Splits `--trace <path>` / `--metrics <path>` out of an argument list,
/// returning the remaining arguments untouched (order preserved) and the
/// parsed flags. A flag missing its value is treated as absent.
pub fn parse_obs_args(args: Vec<String>) -> (Vec<String>, ObsArgs) {
    let mut rest = Vec::with_capacity(args.len());
    let mut obs = ObsArgs::default();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--trace" => obs.trace = it.next(),
            "--metrics" => obs.metrics = it.next(),
            _ => rest.push(arg),
        }
    }
    (rest, obs)
}

/// Enables observability for a CLI run: metrics always (the counters
/// replace the old ad-hoc stderr telemetry), profiling when any output
/// file was requested, tracing only when `--trace` was.
pub fn init(obs: &ObsArgs) {
    enable_metrics();
    ensure_counters(DEFAULT_COUNTERS);
    if obs.trace.is_some() || obs.metrics.is_some() {
        enable_profiling();
    }
    if obs.trace.is_some() {
        enable_tracing(DEFAULT_TRACE_CAPACITY);
    }
}

/// Writes the requested observability outputs. Without `--metrics`, the
/// counters go to stderr as one compact line (never stdout: the results
/// channel stays byte-identical).
///
/// # Errors
///
/// Returns the I/O error if a requested output file cannot be written.
pub fn finish(obs: &ObsArgs) -> std::io::Result<()> {
    if let Some(path) = &obs.trace {
        write_chrome_trace(path)?;
    }
    match &obs.metrics {
        Some(path) => write_metrics(path)?,
        None => eprintln!("metrics: {}", counters_json_line()),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flags_are_stripped_and_order_preserved() {
        let (rest, obs) = parse_obs_args(v(&[
            "prog.lx",
            "--trace",
            "t.json",
            "exp.ldx",
            "--metrics",
            "m.json",
        ]));
        assert_eq!(rest, v(&["prog.lx", "exp.ldx"]));
        assert_eq!(obs.trace.as_deref(), Some("t.json"));
        assert_eq!(obs.metrics.as_deref(), Some("m.json"));
    }

    #[test]
    fn absent_flags_parse_to_none() {
        let (rest, obs) = parse_obs_args(v(&["a", "b"]));
        assert_eq!(rest, v(&["a", "b"]));
        assert_eq!(obs, ObsArgs::default());
    }

    #[test]
    fn dangling_flag_is_absent() {
        let (rest, obs) = parse_obs_args(v(&["a", "--trace"]));
        assert_eq!(rest, v(&["a"]));
        assert!(obs.trace.is_none());
    }
}
