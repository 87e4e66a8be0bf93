//! Paper Figures 2–5: the employee example and the nested-loop example,
//! checked at the level of the flight log the alignment trace renders
//! (who executed, who shared, who decoupled, where the executions
//! re-aligned).

use ldx_dualex::{dual_execute, FlightEvent};
use ldx_workloads::{figure2_employee, figure4_loops, FigureCase};
use std::sync::Arc;

/// The event kinds of one flight-log lane, in order.
fn kinds(lane: &[FlightEvent]) -> Vec<&'static str> {
    lane.iter().map(FlightEvent::kind).collect()
}

fn run(case: &FigureCase) -> ldx_dualex::DualReport {
    let program = Arc::new(
        ldx_instrument::instrument(&ldx_ir::lower(
            &ldx_lang::compile(&case.source).expect("figure compiles"),
        ))
        .into_program(),
    );
    dual_execute(program, &case.world, &case.spec)
}

#[test]
fn figure3_employee_trace_shape() {
    let case = figure2_employee();
    let report = run(&case);
    assert!(report.master.is_ok() && report.slave.is_ok());
    assert!(report.leaked(), "the title leaks through the raise");

    // The slave must have shared the prefix (the aligned reads), decoupled
    // through the divergent branch, and flagged the sink difference.
    let slave = kinds(&report.flight.slave);
    assert!(slave.contains(&"shared"), "shared prefix: {slave:?}");
    assert!(
        slave.contains(&"mutated"),
        "the title read is perturbed: {slave:?}"
    );
    assert!(
        slave.contains(&"decoupled"),
        "the manager branch runs decoupled: {slave:?}"
    );
    assert!(
        slave.contains(&"sink-diff"),
        "the send re-aligns and differs: {slave:?}"
    );

    // Re-alignment: the send is a *matched-key* comparison, not a
    // missing-sink report.
    assert!(
        report
            .causality
            .iter()
            .any(|c| matches!(c.kind, ldx_dualex::CausalityKind::ArgDiff { .. })),
        "paper: the sinks align (same counter) and their payloads differ: {:?}",
        report.causality
    );
    // The divergent-branch syscalls were tolerated, not reported.
    assert!(report.decoupled > 0);
}

#[test]
fn figure5_loop_trace_shape() {
    let case = figure4_loops();
    let report = run(&case);
    assert!(report.master.is_ok(), "master: {:?}", report.master);
    assert!(report.slave.is_ok(), "slave: {:?}", report.slave);
    assert!(report.leaked(), "n/m swap changes the totals");

    // Iteration barriers appear in the flight log for both roles.
    assert!(kinds(&report.flight.master).contains(&"barrier"));
    assert!(kinds(&report.flight.slave).contains(&"barrier"));

    // The executions took different loop shapes (master 1x2, slave 2x1):
    // some in-loop syscalls have no alignment.
    assert!(
        report.syscall_diffs + report.decoupled > 0,
        "loop-shape divergence must appear as syscall differences"
    );

    // The final send must align (ArgDiff, not a missing sink) — the
    // counter re-synchronizes beyond the loops, paper Fig. 5's last row.
    assert!(report
        .causality
        .iter()
        .any(|c| matches!(c.kind, ldx_dualex::CausalityKind::ArgDiff { .. })));
}

#[test]
fn figure5_identity_loops_fully_aligned() {
    // Same loop program, identity mutation: every iteration aligns, no
    // divergence at all.
    let case = figure4_loops();
    let mut spec = case.spec.clone();
    for s in &mut spec.sources {
        s.mutation = ldx_dualex::Mutation::Identity;
    }
    let program = Arc::new(
        ldx_instrument::instrument(&ldx_ir::lower(&ldx_lang::compile(&case.source).unwrap()))
            .into_program(),
    );
    let report = dual_execute(program, &case.world, &spec);
    assert!(!report.leaked(), "{:?}", report.causality);
    assert_eq!(report.syscall_diffs, 0);
    assert_eq!(report.decoupled, 0);
    let master_sys = report.master.as_ref().unwrap().stats.syscalls;
    assert_eq!(report.shared, master_sys, "every outcome shared");
}

#[test]
fn figure_traces_are_byte_identical_across_runs() {
    // Each lane has a single writer, so rendering the master lane and then
    // the slave lane is independent of how the two executions interleave.
    for case in [figure2_employee(), figure4_loops()] {
        let first = run(&case).trace_lines();
        assert!(!first.is_empty(), "{}: recorded trace", case.name);
        for _ in 1..5 {
            assert_eq!(run(&case).trace_lines(), first, "{}", case.name);
        }
    }
}
