//! Criterion bench for the difference-constraint solvers on
//! scheduling-shaped systems: the min-cost-flow LP solver on chain LPs and
//! on a 60-stage coalesced schedule leaf, plus the longest-path fast path.

use criterion::{criterion_group, criterion_main, Criterion};
use imagen_algos::synthetic_pipeline;
use imagen_ilp::DiffSystem;
use imagen_mem::{DesignStyle, ImageGeometry, MemBackend, MemorySpec};
use imagen_schedule::{
    delay_lp, formulate, plan_design, DiffGe, FormulationOptions, ScheduleOptions, SpecBufferParams,
};

/// A chain-scheduling LP with `n` stages and aux retire vars: variables
/// `s_0..s_{n-1}`, then `t_1..t_{n-1}`; minimizes `Σ (t_i − s_{i−1})`.
fn chain_lp(n: usize, w: i64) -> (DiffSystem, Vec<i64>) {
    let mut sys = DiffSystem::new(2 * n - 1);
    let mut costs = vec![0i64; 2 * n - 1];
    for i in 1..n {
        let t = n + i - 1;
        sys.add_ge(i, i - 1, 2 * w + 1); // dep
        sys.add_ge(t, i, 0); // retire
        sys.add_ge(t, i - 1, w); // minrow
        costs[t] += 1;
        costs[i - 1] -= 1;
    }
    (sys, costs)
}

/// The first OR-group leaf of a 60-stage synthetic DAG's coalesced
/// schedule at 640x480 on dual-port 32 Kbit macros: the heaviest leaf
/// class a cold compile solves.
fn coalesced_60_stage_leaf() -> (DiffSystem, Vec<i64>) {
    let geom = ImageGeometry {
        width: 640,
        height: 480,
        pixel_bits: 16,
    };
    let spec = MemorySpec::new(MemBackend::Asic { block_bits: 32768 }, 2).with_coalescing();
    let dag = synthetic_pipeline(60, 60 << 32);
    let plan = plan_design(
        &dag,
        &geom,
        &spec,
        ScheduleOptions::default(),
        DesignStyle::OursLc,
    )
    .expect("the synthetic pool schedules");
    let params = SpecBufferParams {
        spec: &spec,
        geom: &geom,
    };
    let set = formulate(
        &plan.dag,
        geom.width,
        &params,
        FormulationOptions::default(),
    );
    let chosen: Vec<DiffGe> = set.groups.iter().map(|g| g.alternatives[0]).collect();
    delay_lp(&plan.dag, geom.width, &set.hard, &chosen)
}

fn bench_ilp(c: &mut Criterion) {
    let mut group = c.benchmark_group("ilp_solver");
    group.sample_size(20);
    group.measurement_time(std::time::Duration::from_secs(5));
    for n in [8usize, 16, 32] {
        let (sys, costs) = chain_lp(n, 480);
        group.bench_function(format!("flow_{n}_stages"), |b| {
            b.iter(|| std::hint::black_box(&sys).minimize(&costs).unwrap())
        });
    }
    let (sys, costs) = coalesced_60_stage_leaf();
    group.bench_function("flow_synthetic60_lc_leaf", |b| {
        b.iter(|| std::hint::black_box(&sys).minimize(&costs).unwrap())
    });
    let mut sys = DiffSystem::new(64);
    for i in 1..64 {
        sys.add_ge(i, i - 1, 961);
        if i >= 3 {
            sys.add_ge(i, i - 3, 2 * 961);
        }
    }
    group.bench_function("diff_system_64_vars", |b| {
        b.iter(|| std::hint::black_box(&sys).minimal_solution().unwrap())
    });
    group.finish();
}

criterion_group!(benches, bench_ilp);
criterion_main!(benches);
