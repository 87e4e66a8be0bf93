//! Cross-tool structural invariants over the whole corpus (DESIGN.md I6
//! and the paper's Table 2/3 relationships):
//!
//! * LIBDFT's tainted sinks ⊆ TaintGrind's, per workload (unmodeled
//!   library calls only ever *lose* taint);
//! * wherever LDX reports on the leaking mutation, TightLip reports too
//!   (TightLip over-approximates: it cannot tolerate what LDX tolerates,
//!   so LDX ⊆ TightLip on verdicts);
//! * the taint tools never report on a *sink-free* flow LDX rejects as
//!   non-causal **and** data-independent (sanity floor: an untainted,
//!   unchanged sink is reported by nobody);
//! * the taint engine and LDX's master count the same sink instances on
//!   the original world (both ask `ldx_dualex::ResolvedSinks`).

use ldx_baselines::{mutate_config, tightlip_execute};
use ldx_dualex::dual_execute;
use ldx_runtime::ExecConfig;
use ldx_taint::{taint_execute, TaintPolicy};
use ldx_workloads::{corpus, Suite};

#[test]
fn libdft_is_a_subset_of_taintgrind_everywhere() {
    for w in corpus() {
        let program = w.program_uninstrumented();
        let attack_world = mutate_config(&w.world, &w.sources);
        for world in [&w.world, &attack_world] {
            let tg = taint_execute(
                &program,
                world,
                &w.sources,
                &w.sinks,
                TaintPolicy::TaintGrindLike,
            );
            let dft = taint_execute(
                &program,
                world,
                &w.sources,
                &w.sinks,
                TaintPolicy::LibDftLike,
            );
            assert!(
                dft.tainted_sink_instances <= tg.tainted_sink_instances,
                "`{}`: LIBDFT {} > TAINTGRIND {}",
                w.name,
                dft.tainted_sink_instances,
                tg.tainted_sink_instances
            );
            assert!(
                dft.tainted_sites.is_subset(&tg.tainted_sites),
                "`{}`: LIBDFT sites not a subset",
                w.name
            );
            // Totals agree: the policies see the same execution.
            assert_eq!(
                dft.total_sink_instances, tg.total_sink_instances,
                "`{}`: policies disagree about the sink count",
                w.name
            );
        }
    }
}

#[test]
fn data_and_control_taint_supersets_data_only() {
    for w in corpus() {
        let program = w.program_uninstrumented();
        let attack_world = mutate_config(&w.world, &w.sources);
        let tg = taint_execute(
            &program,
            &attack_world,
            &w.sources,
            &w.sinks,
            TaintPolicy::TaintGrindLike,
        );
        let ctl = taint_execute(
            &program,
            &attack_world,
            &w.sources,
            &w.sinks,
            TaintPolicy::DataAndControl,
        );
        assert!(
            tg.tainted_sink_instances <= ctl.tainted_sink_instances,
            "`{}`: control tracking must only add taint ({} > {})",
            w.name,
            tg.tainted_sink_instances,
            ctl.tainted_sink_instances
        );
    }
}

#[test]
fn tightlip_reports_whenever_ldx_does() {
    // Deterministic suites only: TightLip's independent doppelganger
    // inherits the concurrent programs' schedule nondeterminism.
    for w in corpus() {
        if w.suite == Suite::Concurrent {
            continue;
        }
        let ldx_report = dual_execute(w.program(), &w.world, &w.dual_spec());
        if !ldx_report.leaked() {
            continue;
        }
        let tl = tightlip_execute(
            w.program(),
            &w.world,
            &w.sources,
            &w.sinks,
            ExecConfig::default(),
        );
        assert!(
            tl.reported,
            "`{}`: LDX reports but TightLip does not ({:?})",
            w.name, tl.reason
        );
    }
}

#[test]
fn taint_and_dual_engines_agree_on_sinks() {
    // Deterministic suites only: a threaded master's sink count follows
    // its schedule, while the taint engine runs threads inline.
    for w in corpus() {
        if w.suite == Suite::Concurrent {
            continue;
        }
        let tg = taint_execute(
            &w.program_uninstrumented(),
            &w.world,
            &w.sources,
            &w.sinks,
            TaintPolicy::TaintGrindLike,
        );
        let ldx_report = dual_execute(w.program(), &w.world, &w.dual_spec());
        assert_eq!(
            tg.total_sink_instances, ldx_report.master_sinks,
            "`{}`: taint and dual engines disagree about the sink count",
            w.name
        );
    }
}
