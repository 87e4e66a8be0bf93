//! Detection mode and enforcement mode must agree on every single-threaded
//! corpus workload: the master's lockstep at sinks and barriers changes
//! when the output escapes, never what the two executions observe.
//!
//! Both modes run each workload under its leak spec and, where it has one,
//! its benign spec. The causality records (kind, thread, key, function,
//! site, syscall), the end states of both executions and the shared,
//! decoupled and syscall-difference counts must be identical. Enforcement
//! mode is the path on which the master parks waiting for the slave, so
//! this also exercises the coupling's wake rule in both directions on real
//! programs.
//!
//! Threaded workloads are excluded: their schedules differ run to run by
//! design (Table 4).

use ldx_dualex::{dual_execute, DualReport, DualSpec};
use ldx_runtime::{RunOutcome, Trap};
use ldx_workloads::{corpus, Suite, Workload};

fn end(r: &Result<RunOutcome, Trap>) -> String {
    match r {
        Ok(out) => format!("exit {}", out.exit_code),
        Err(trap) => format!("trap: {trap}"),
    }
}

/// Everything the two modes must agree on.
fn observed(r: &DualReport) -> String {
    let records: Vec<String> = r
        .causality
        .iter()
        .map(|c| {
            format!(
                "{:?} {} {} f{} s{} {:?}",
                c.kind, c.thread, c.key, c.func.0, c.site.0, c.sys
            )
        })
        .collect();
    format!(
        "records={records:#?} master={} slave={} shared={} decoupled={} syscall_diffs={}",
        end(&r.master),
        end(&r.slave),
        r.shared,
        r.decoupled,
        r.syscall_diffs,
    )
}

fn specs(w: &Workload) -> Vec<(&'static str, DualSpec)> {
    let mut specs = vec![("leak", w.dual_spec())];
    specs.extend(w.benign_spec().map(|s| ("benign", s)));
    specs
}

#[test]
fn enforcement_mode_matches_detection_mode_on_the_corpus() {
    let workloads: Vec<Workload> = corpus()
        .into_iter()
        .filter(|w| w.suite != Suite::Concurrent)
        .collect();
    assert_eq!(workloads.len(), 23, "single-threaded corpus size changed");
    let mut runs = 0;
    for w in &workloads {
        for (label, detection) in specs(w) {
            let mut enforcement = detection.clone();
            enforcement.enforcement = true;
            let d = dual_execute(w.program(), &w.world, &detection);
            let e = dual_execute(w.program(), &w.world, &enforcement);
            assert_eq!(
                observed(&d),
                observed(&e),
                "{} ({label} spec): enforcement mode diverged from detection mode",
                w.name
            );
            runs += 1;
        }
    }
    assert!(runs > workloads.len(), "no workload has a benign spec");
}
