//! Microbenchmarks of the alignment machinery itself:
//!
//! * progress-key comparison (the hot operation of the coupling protocol);
//! * the static counter-instrumentation pass (compile-time cost);
//! * interpreter throughput with and without instrumentation — the
//!   "counter maintenance" share of LDX's overhead in isolation.
//!
//! A plain `main` (`harness = false`): each case times a fixed number of
//! iterations per sample and prints the median time per iteration. Run
//! with `cargo bench -p ldx-bench --bench alignment`.

use ldx_bench::median_duration;
use ldx_runtime::{run_program, ExecConfig, FrameKey, LoopUid, NativeHooks, ProgressKey};
use ldx_vos::{Vos, VosConfig};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Timing samples per case; the printed figure is their median.
const SAMPLES: usize = 10;

/// Times `iters` calls of `f` per sample and prints the median per call.
fn case(name: &str, iters: u32, mut f: impl FnMut()) {
    let median = median_duration(SAMPLES, || {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        t0.elapsed()
    });
    println!("{name:<36} {:>12.2?} per iteration", median / iters);
}

fn key(depth: usize, loops: usize, cnt: u64) -> ProgressKey {
    ProgressKey {
        frames: (0..depth)
            .map(|d| FrameKey {
                loops: (0..loops)
                    .map(|l| (LoopUid::new(d as u32, l as u32), 0, (l as u64) * 3))
                    .collect(),
                cnt: cnt + d as u64,
            })
            .collect(),
    }
}

fn bench_progress_keys() {
    let flat_a = key(1, 0, 17);
    let flat_b = key(1, 0, 18);
    case("progress-key/cmp-flat", 1_000_000, || {
        black_box(flat_a.cmp_progress(black_box(&flat_b)));
    });
    let deep_a = key(4, 3, 9);
    let deep_b = key(4, 3, 9);
    case("progress-key/cmp-deep-equal", 1_000_000, || {
        black_box(deep_a.cmp_progress(black_box(&deep_b)));
    });
    case("progress-key/clone-deep", 100_000, || {
        black_box(deep_a.clone());
    });
}

fn bench_instrumentation_pass() {
    let lowered: Vec<_> = (0..8)
        .map(|seed| {
            let source = ldx_workloads::random_program_source(
                seed,
                &ldx_workloads::GeneratorConfig {
                    max_depth: 4,
                    max_block_len: 6,
                    helpers: 4,
                },
            );
            ldx_ir::lower(&ldx_lang::compile(&source).unwrap())
        })
        .collect();
    case("instrument-pass/8-programs", 100, || {
        for p in &lowered {
            black_box(ldx_instrument::instrument(black_box(p)));
        }
    });
}

fn bench_counter_maintenance() {
    // A loop-heavy, syscall-bearing program: the instrumented version pays
    // for CntAdd/LoopEnter/LoopBackedge/LoopExit on top of the same work.
    let w = ldx_workloads::by_name("minzip").unwrap();
    let world = ldx_bench::scaled_world(&w).unwrap();
    let plain = w.program_uninstrumented();
    let instrumented = w.program();
    let run = |program: &Arc<ldx_ir::IrProgram>, world: &VosConfig| {
        let vos = Arc::new(Vos::new(world));
        let hooks = Arc::new(NativeHooks::new(vos));
        run_program(Arc::clone(program), hooks, ExecConfig::default()).unwrap()
    };
    case("counter-maintenance/uninstrumented", 1, || {
        black_box(run(&plain, &world));
    });
    case("counter-maintenance/instrumented", 1, || {
        black_box(run(&instrumented, &world));
    });
}

fn main() {
    bench_progress_keys();
    bench_instrumentation_pass();
    bench_counter_maintenance();
}
