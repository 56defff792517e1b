//! Property-based and brute-force cross-checks of the scheduler: the ILP
//! optimum really is optimal (against brute force and against the exact
//! rational simplex kept in `crates/ilp/tests/simplex`), pruning really is
//! lossless, the OR-group search keeps to its budget, and every schedule
//! the optimizer emits is verified by independent machinery.

// The test-only simplex oracle; this file uses only its LP path.
#[allow(dead_code)]
#[path = "../crates/ilp/tests/simplex/mod.rs"]
mod simplex;

use imagen::algos::synthetic_pipeline;
use imagen::schedule::{
    delay_lp, formulate, plan_design, schedule_satisfies, size_buffers, solve_schedule,
    BufferParams, ConstraintSet, DiffGe, OrGroup, ScheduleError, ScheduleOptions, SpecBufferParams,
    MAX_SUBPROBLEMS,
};
use imagen::sim::{simulate, Image};
use imagen::{DesignStyle, ImageGeometry, MemBackend, MemorySpec};
use imagen_ir::{Dag, Expr, StageId};
use proptest::prelude::*;

struct Uniform(u32);
impl BufferParams for Uniform {
    fn ports(&self, _: StageId) -> u32 {
        self.0
    }
    fn coalesce(&self, _: StageId) -> u32 {
        1
    }
}

fn box_k(slot: usize, h: i32) -> Expr {
    let half = h / 2;
    Expr::sum((-half..=half).flat_map(move |dy| (-1..=1).map(move |dx| Expr::tap(slot, dx, dy))))
}

/// Exhaustive schedule search for tiny pipelines: enumerate start cycles
/// up to a bound and minimize total buffer rows.
fn brute_force_rows(dag: &Dag, width: u32, ports: u32, bound: i64) -> Option<u64> {
    let set = formulate(dag, width, &Uniform(ports), ScheduleOptions::default());
    let n = dag.num_stages();
    let mut starts = vec![0i64; n];
    let mut best: Option<u64> = None;
    #[allow(clippy::too_many_arguments)]
    fn rec(
        i: usize,
        n: usize,
        bound: i64,
        starts: &mut Vec<i64>,
        set: &imagen::schedule::ConstraintSet,
        dag: &Dag,
        width: u32,
        best: &mut Option<u64>,
    ) {
        if i == n {
            if schedule_satisfies(set, starts) {
                let (_, total) = size_buffers(dag, width, starts);
                if best.is_none_or(|b| total < b) {
                    *best = Some(total);
                }
            }
            return;
        }
        for s in 0..=bound {
            starts[i] = s;
            rec(i + 1, n, bound, starts, set, dag, width, best);
        }
    }
    rec(0, n, bound, &mut starts, &set, dag, width, &mut best);
    best
}

#[test]
fn ilp_matches_brute_force_on_small_pipelines() {
    // Tiny width, so exhaustive search is feasible. A 3-stage diamond and
    // a K0 -> K1 -> K2 chain of 3x3 boxes, each with its start-cycle
    // bound for the search.
    let w = 4u32;
    let mut diamond = Dag::new("bf");
    let k0 = diamond.add_input("K0");
    let k1 = diamond.add_stage("K1", &[k0], box_k(0, 3)).unwrap();
    let k2 = diamond
        .add_stage(
            "K2",
            &[k0, k1],
            Expr::bin(
                imagen_ir::BinOp::Add,
                Expr::tap(0, 0, 0),
                Expr::tap(1, 0, 0),
            ),
        )
        .unwrap();
    diamond.mark_output(k2);

    let mut chain = Dag::new("bf2");
    let k0 = chain.add_input("K0");
    let k1 = chain.add_stage("K1", &[k0], box_k(0, 3)).unwrap();
    let k2 = chain.add_stage("K2", &[k1], box_k(0, 3)).unwrap();
    chain.mark_output(k2);

    for (dag, bound) in [(&diamond, 40), (&chain, 30)] {
        for ports in [1u32, 2] {
            let set = formulate(dag, w, &Uniform(ports), ScheduleOptions::default());
            let sched = solve_schedule(dag, w, &set).unwrap();
            let brute = brute_force_rows(dag, w, ports, bound).expect("feasible");
            assert_eq!(
                sched.total_rows,
                brute,
                "{} P={ports}: ILP {} vs brute force {}",
                dag.name(),
                sched.total_rows,
                brute
            );
        }
    }
}

/// An OR-group search with more leaves than [`MAX_SUBPROBLEMS`] gives up
/// with [`ScheduleError::TooManySubproblems`]: 13 groups of two
/// alternatives that are always feasible make 8,192 leaves.
#[test]
fn or_group_search_stops_at_the_subproblem_budget() {
    let mut dag = Dag::new("budget");
    let k0 = dag.add_input("K0");
    let k1 = dag.add_stage("K1", &[k0], box_k(0, 3)).unwrap();
    dag.mark_output(k1);
    let set = formulate(&dag, 4, &Uniform(2), ScheduleOptions::default());
    assert!(set.groups.is_empty());
    let free = DiffGe { a: k1, b: k0, k: 0 };
    let groups = (0..13).map(|_| OrGroup {
        alternatives: vec![free, free],
        buffer: k0,
    });
    let set = ConstraintSet {
        groups: groups.collect(),
        ..set
    };
    assert!(2usize.pow(set.groups.len() as u32) > MAX_SUBPROBLEMS);
    assert_eq!(
        solve_schedule(&dag, 4, &set),
        Err(ScheduleError::TooManySubproblems(MAX_SUBPROBLEMS))
    );
}

/// `solve_schedule`'s OR-group search with every leaf handed to the
/// simplex oracle instead of the flow solver: the leaves in the same
/// depth-first order (groups smallest-first, the last group varying
/// fastest), keeping the first strictly best. Returns that leaf's
/// objective and its starts, normalized like the scheduler's.
fn simplex_search(dag: &Dag, width: u32, set: &ConstraintSet) -> (i64, Vec<i64>) {
    let mut groups: Vec<_> = set.groups.iter().collect();
    groups.sort_by_key(|g| g.alternatives.len());
    let leaves: usize = groups.iter().map(|g| g.alternatives.len()).product();
    assert!(leaves <= 64, "{}: {leaves} leaves", dag.name());
    let n = dag.num_stages();
    let mut pick = vec![0usize; groups.len()];
    let mut best: Option<(i64, Vec<i64>)> = None;
    for _ in 0..leaves {
        let chosen: Vec<DiffGe> = groups
            .iter()
            .zip(&pick)
            .map(|(g, &i)| g.alternatives[i])
            .collect();
        let (sys, costs) = delay_lp(dag, width, &set.hard, &chosen);
        let (model, vars) = simplex::to_model(&sys, "oracle", &costs);
        match model.solve_lp() {
            Ok(sol) => {
                let obj = sol.objective_value().to_integer().expect("integral") as i64;
                if best.as_ref().is_none_or(|(b, _)| obj < *b) {
                    best = Some((obj, vars[..n].iter().map(|&v| sol.int_value(v)).collect()));
                }
            }
            Err(simplex::SolveError::Infeasible) => {}
            Err(e) => panic!("{}: simplex failed: {e}", dag.name()),
        }
        for d in (0..groups.len()).rev() {
            pick[d] += 1;
            if pick[d] < groups[d].alternatives.len() {
                break;
            }
            pick[d] = 0;
        }
    }
    let (obj, mut starts) = best.expect("some leaf is feasible");
    let min = starts.iter().copied().min().unwrap_or(0);
    for s in &mut starts {
        *s -= min;
    }
    (obj, starts)
}

/// The scheduler's min-cost-flow leaves against the simplex: on all 10
/// examples and on synthetic DAGs of 9–60 stages, plain and coalesced,
/// the schedule has the simplex's optimal objective, and its starts are
/// the componentwise-minimal optimum, so never later than the simplex's.
#[test]
fn flow_schedule_matches_simplex_oracle() {
    let examples = [
        "canny_m",
        "canny_s",
        "denoise_m",
        "gaussian_pyramid",
        "harris_m",
        "harris_s",
        "laplacian_pyramid",
        "sobel",
        "unsharp_m",
        "xcorr_m",
    ];
    let mut dags: Vec<Dag> = examples
        .iter()
        .map(|name| {
            let path = format!("{}/examples/{name}.imagen", env!("CARGO_MANIFEST_DIR"));
            let src = std::fs::read_to_string(&path).unwrap();
            imagen::dsl::compile(name, &src).unwrap()
        })
        .collect();
    for n in [9u64, 17, 24, 33, 45, 60] {
        dags.extend((0..2).map(|i| synthetic_pipeline(n as usize, n << 32 | i)));
    }

    let geom = ImageGeometry {
        width: 64,
        height: 48,
        pixel_bits: 16,
    };
    for dag in &dags {
        for (coalesce, style) in [(false, DesignStyle::Ours), (true, DesignStyle::OursLc)] {
            let mut spec = MemorySpec::new(MemBackend::Asic { block_bits: 32768 }, 2);
            if coalesce {
                spec = spec.with_coalescing();
            }
            let plan = plan_design(dag, &geom, &spec, ScheduleOptions::default(), style)
                .unwrap_or_else(|e| panic!("{}: {e}", dag.name()));
            let params = SpecBufferParams {
                spec: &spec,
                geom: &geom,
            };
            let set = formulate(&plan.dag, geom.width, &params, ScheduleOptions::default());
            let flow = solve_schedule(&plan.dag, geom.width, &set).unwrap();
            assert_eq!(flow.starts, plan.schedule.starts, "{}", dag.name());

            let (obj, starts) = simplex_search(&plan.dag, geom.width, &set);
            let label = format!("{} (coalesce={coalesce})", dag.name());
            assert_eq!(flow.report.objective, obj, "{label}: objective");
            assert!(
                flow.starts.iter().zip(&starts).all(|(f, s)| f <= s),
                "{label}: flow starts {:?} not below simplex starts {starts:?}",
                flow.starts
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random synthetic pipelines: pruning never changes the optimum, and
    /// the planned design simulates clean.
    #[test]
    fn random_pipelines_schedule_and_simulate(seed in 0u64..500, stages in 4usize..9) {
        let dag = synthetic_pipeline(stages, seed);
        let geom = ImageGeometry { width: 24, height: 20, pixel_bits: 16 };
        let spec = MemorySpec::new(MemBackend::Asic { block_bits: 2 * 24 * 16 }, 2);

        let pruned = plan_design(&dag, &geom, &spec, ScheduleOptions::default(), DesignStyle::Ours)
            .expect("schedulable");
        let unpruned = plan_design(
            &dag,
            &geom,
            &spec,
            ScheduleOptions { pruning: false },
            DesignStyle::Ours,
        )
        .expect("schedulable");
        prop_assert_eq!(
            pruned.schedule.total_rows,
            unpruned.schedule.total_rows,
            "pruning must be lossless"
        );

        let input = Image::from_fn(geom.width, geom.height, |x, y| {
            ((x * 31 + y * 17) % 251) as i64
        });
        let report = simulate(&pruned.dag, &pruned.design, &[input]).unwrap();
        prop_assert!(
            report.is_clean(),
            "ports={:?} residency={:?} functional={}",
            report.port_violations,
            report.residency_violations,
            report.outputs_match_golden
        );
    }

    /// Single-port designs always need at least as many buffered rows as
    /// dual-port ones, and both simulate clean.
    #[test]
    fn port_count_monotonicity(seed in 0u64..200, stages in 4usize..8) {
        let dag = synthetic_pipeline(stages, seed);
        let geom = ImageGeometry { width: 24, height: 20, pixel_bits: 16 };
        let mk = |ports| {
            plan_design(
                &dag,
                &geom,
                &MemorySpec::new(MemBackend::Asic { block_bits: 2 * 24 * 16 }, ports),
                ScheduleOptions::default(),
                DesignStyle::Ours,
            )
            .expect("schedulable")
        };
        let single = mk(1);
        let dual = mk(2);
        prop_assert!(single.schedule.total_rows >= dual.schedule.total_rows);

        let input = Image::from_fn(geom.width, geom.height, |x, y| {
            ((x * 13 + y * 7) % 251) as i64
        });
        let r = simulate(&single.dag, &single.design, &[input]).unwrap();
        prop_assert!(r.is_clean());
    }
}
