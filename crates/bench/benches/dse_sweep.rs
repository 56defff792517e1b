//! Criterion bench for the Sec. 8.5 design-space exploration engine:
//! Canny-s's 256-point DP/DPLC sweep at 320p.
//!
//! Three variants:
//!
//! * `per_point_compiler` — the pre-session architecture: one cold
//!   `Compiler::compile_dag` per point, RTL included, strictly
//!   sequential;
//! * `session_sequential` — shared constraint skeleton + memoized
//!   session + skip-RTL pricing, one worker;
//! * `session_parallel` — the same engine fanned out over all available
//!   cores;
//! * `session_parallel_measured` — the shipping default: measured energy
//!   (each point's netlist elaborated and its ungated and gated activity
//!   priced from the schedule) folded into the sweep.
//!
//! A summary line prints the measured end-to-end speedup of the parallel
//! memoized engine over the per-point compiler loop.

use criterion::{criterion_group, criterion_main, Criterion};
use imagen_algos::Algorithm;
use imagen_core::Compiler;
use imagen_dse::{explore, ExploreOptions, ExploreStrategy, MeasureMode, StageChoice};
use imagen_ir::Dag;
use imagen_mem::{ImageGeometry, MemBackend, MemorySpec, StageMemConfig};
use std::time::Instant;

/// The old sweep loop: a fresh end-to-end compile (constraints + ILP +
/// pricing + RTL) per design point.
fn per_point_compiler_sweep(dag: &Dag, geom: ImageGeometry, backend: MemBackend) {
    let buffered: Vec<usize> = dag.buffered_stages().iter().map(|s| s.index()).collect();
    let n = buffered.len();
    for mask in 0u32..(1 << n) {
        let mut spec = MemorySpec::new(backend, 2);
        let mut choices = Vec::with_capacity(n);
        for (bit, &stage) in buffered.iter().enumerate() {
            let choice = if mask & (1 << bit) != 0 {
                StageChoice::Dplc
            } else {
                StageChoice::Dp
            };
            choices.push(choice);
            spec.set_stage(
                stage,
                StageMemConfig {
                    ports: 2,
                    coalesce: choice == StageChoice::Dplc,
                },
            );
        }
        let out = Compiler::new(geom, spec).compile_dag(dag).unwrap();
        std::hint::black_box(out.plan.design.total_area_mm2());
    }
}

fn engine_sweep(
    dag: &Dag,
    geom: ImageGeometry,
    backend: MemBackend,
    threads: usize,
    measure: MeasureMode,
) {
    let res = explore(
        dag,
        &geom,
        backend,
        ExploreOptions {
            strategy: ExploreStrategy::Exhaustive,
            threads,
            measure,
        },
    )
    .unwrap();
    std::hint::black_box(res.points.len());
}

fn bench_dse_sweep(c: &mut Criterion) {
    let geom = ImageGeometry::p320();
    let backend = MemBackend::asic_default();
    let dag = Algorithm::CannyS.build(); // 8 buffered stages -> 256 points

    let mut group = c.benchmark_group("dse_sweep_canny_s_256");
    group.sample_size(3);
    group.bench_function("per_point_compiler", |b| {
        b.iter(|| per_point_compiler_sweep(&dag, geom, backend))
    });
    // Pricing-only variants, apples-to-apples with the per-point loop
    // (which never measures).
    group.bench_function("session_sequential", |b| {
        b.iter(|| engine_sweep(&dag, geom, backend, 1, MeasureMode::Off))
    });
    group.bench_function("session_parallel", |b| {
        b.iter(|| engine_sweep(&dag, geom, backend, 0, MeasureMode::Off))
    });
    // The shipping default: every point priced ungated and clock-gated
    // during the sweep, from activity its schedule fixes — no netlist is
    // built and no frame interpreted, at any rate, in work that grows
    // with each buffer's pipeline depth and steady period rather than
    // the frame's height.
    group.bench_function("session_parallel_measured", |b| {
        b.iter(|| engine_sweep(&dag, geom, backend, 0, MeasureMode::default()))
    });
    group.finish();

    // Headline: end-to-end speedup of the parallel memoized engine over
    // the per-point compiler loop (best of 3 each).
    let best = |f: &dyn Fn()| {
        (0..3)
            .map(|_| {
                let t = Instant::now();
                f();
                t.elapsed()
            })
            .min()
            .unwrap()
    };
    let old = best(&|| per_point_compiler_sweep(&dag, geom, backend));
    let new = best(&|| engine_sweep(&dag, geom, backend, 0, MeasureMode::Off));
    let threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    println!(
        "dse_sweep summary: per-point compiler {:.1?} -> parallel session {:.1?} \
         ({:.2}x speedup on {} thread(s))",
        old,
        new,
        old.as_secs_f64() / new.as_secs_f64(),
        threads
    );
}

criterion_group!(benches, bench_dse_sweep);
criterion_main!(benches);
