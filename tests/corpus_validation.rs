//! End-to-end validation of the 28-program corpus: every workload must run
//! natively without trapping, report exactly the causality its spec
//! promises under the leaking mutation, stay silent under the benign
//! mutation, and stay silent under the identity mutation (invariant I5).
//! Turning the flight recorder on must not change any of those reports.

use ldx_dualex::{dual_execute, DualSpec, Mutation};
use ldx_runtime::{run_program, ExecConfig, NativeHooks};
use ldx_vos::Vos;
use ldx_workloads::{corpus, Suite, Workload};
use std::sync::Arc;

fn native_runs_clean(w: &Workload) {
    let program = w.program();
    let vos = Arc::new(Vos::new(&w.world));
    let hooks = Arc::new(NativeHooks::new(Arc::clone(&vos)));
    let out = run_program(program, hooks, ExecConfig::default())
        .unwrap_or_else(|e| panic!("workload `{}` traps natively: {e}", w.name));
    assert_eq!(out.exit_code, 0, "workload `{}` exits nonzero", w.name);
    assert!(
        out.stats.syscalls > 0,
        "workload `{}` performs no syscalls",
        w.name
    );
}

#[test]
fn every_workload_runs_natively() {
    for w in corpus() {
        native_runs_clean(&w);
    }
    native_runs_clean(&ldx_workloads::preprocessor_case_study());
    native_runs_clean(&ldx_workloads::showip_case_study());
}

/// The workload's sources under the identity mutation.
fn identity_spec(w: &Workload) -> DualSpec {
    let mut spec = w.dual_spec();
    for s in &mut spec.sources {
        s.mutation = Mutation::Identity;
    }
    spec
}

#[test]
fn identity_mutation_never_reports() {
    for w in corpus() {
        // Concurrent workloads have genuinely racy sink payloads; the
        // paper's Table 4 documents that variance separately. Identity
        // quiescence is only promised for deterministic programs.
        if w.suite == Suite::Concurrent {
            continue;
        }
        let report = dual_execute(w.program(), &w.world, &identity_spec(&w));
        assert!(
            report.master.is_ok(),
            "`{}` master: {:?}",
            w.name,
            report.master
        );
        assert!(
            report.slave.is_ok(),
            "`{}` slave: {:?}",
            w.name,
            report.slave
        );
        assert!(
            !report.leaked(),
            "`{}` reports under identity mutation: {:?}",
            w.name,
            report.causality
        );
        assert_eq!(
            report.syscall_diffs, 0,
            "`{}` has syscall diffs under identity mutation",
            w.name
        );
    }
}

#[test]
fn leaking_mutations_are_detected() {
    for w in corpus() {
        let report = dual_execute(w.program(), &w.world, &w.dual_spec());
        assert!(
            report.master.is_ok(),
            "`{}` master: {:?}",
            w.name,
            report.master
        );
        assert!(
            report.slave.is_ok(),
            "`{}` slave: {:?}",
            w.name,
            report.slave
        );
        assert_eq!(
            report.leaked(),
            w.expect_leak,
            "`{}`: expected leak={}, got records {:?} (diffs {}, shared {}, decoupled {})",
            w.name,
            w.expect_leak,
            report.causality,
            report.syscall_diffs,
            report.shared,
            report.decoupled,
        );
    }
}

#[test]
fn benign_mutations_stay_quiet_with_syscall_differences_tolerated() {
    for w in corpus() {
        let Some(spec) = w.benign_spec() else {
            continue;
        };
        let report = dual_execute(w.program(), &w.world, &spec);
        assert!(
            report.master.is_ok() && report.slave.is_ok(),
            "`{}` failed: {:?} / {:?}",
            w.name,
            report.master,
            report.slave
        );
        assert!(
            !report.leaked(),
            "`{}` benign mutation falsely reported: {:?}",
            w.name,
            report.causality
        );
    }
}

#[test]
fn case_studies_detect_their_leaks() {
    for w in [
        ldx_workloads::preprocessor_case_study(),
        ldx_workloads::showip_case_study(),
    ] {
        let report = dual_execute(w.program(), &w.world, &w.dual_spec());
        assert!(
            report.leaked(),
            "case study `{}` must report: {:?}",
            w.name,
            report.causality
        );
    }
}

/// Every counter and causality record is independent of the flight
/// recorder: counting and recording happen in one call per decision, so
/// a counter tied to the recorder would show here.
#[test]
fn flight_recorder_does_not_change_reports() {
    for w in corpus() {
        // Threaded programs' reports vary run to run (Table 4).
        if w.suite == Suite::Concurrent {
            continue;
        }
        let program = w.program();
        let specs = [
            Some(w.dual_spec()),
            w.benign_spec(),
            Some(identity_spec(&w)),
        ];
        for spec in specs.into_iter().flatten() {
            let off = dual_execute(Arc::clone(&program), &w.world, &spec);
            let mut recorded = spec.clone();
            recorded.record = true;
            let on = dual_execute(Arc::clone(&program), &w.world, &recorded);
            assert!(off.flight.is_empty() && !on.flight.is_empty(), "{}", w.name);
            let facts = |r: &ldx_dualex::DualReport| {
                (
                    r.causality.clone(),
                    r.shared,
                    r.decoupled,
                    r.syscall_diffs,
                    r.master_sinks,
                )
            };
            assert_eq!(facts(&off), facts(&on), "`{}` {:?}", w.name, spec.sources);
        }
    }
}
