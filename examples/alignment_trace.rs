//! Reproduces the *alignment traces* of paper Figures 3 and 5: the
//! syscall-by-syscall synchronization actions of the master and the slave
//! on the employee example (Fig. 2/3) and the nested-loop example
//! (Fig. 4/5).
//!
//! Run: `cargo run --example alignment_trace`

use ldx_dualex::dual_execute;
use ldx_workloads::{figure2_employee, figure4_loops};

fn show(case: &ldx_workloads::FigureCase) {
    println!("=== {} ===", case.name);
    let program = std::sync::Arc::new(
        ldx_instrument::instrument(&ldx_ir::lower(
            &ldx_lang::compile(&case.source).expect("figure sources compile"),
        ))
        .into_program(),
    );
    let report = dual_execute(program, &case.world, &case.spec);
    println!("trace (role thread key syscall label):");
    for line in report.trace_lines() {
        println!("  {line}");
    }
    println!();
    if report.leaked() {
        println!("causality detected:");
        for c in &report.causality {
            println!("  {c}");
        }
    } else {
        println!("no causality detected");
    }
    println!(
        "shared outcomes: {}, decoupled: {}, syscall diffs: {}\n",
        report.shared, report.decoupled, report.syscall_diffs
    );
}

fn main() {
    // Figure 2/3: title=STAFF in the master, MANAGER in the slave. The
    // executions diverge inside the branch (different contract files, the
    // senior-manager write, the dept read) and re-align at the send, where
    // the raise difference reveals the leak.
    show(&figure2_employee());

    // Figure 4/5: loop bounds (n, m) are the sources; the master runs
    // n=1, m=2 and the slave n=2, m=1. Iteration epochs keep the loops
    // aligned; the final send realigns and differs.
    show(&figure4_loops());
}
