//! Observability must be a pure observer: compiling under an installed
//! span collector produces *byte-identical* output to compiling with no
//! collector at all. Anything less — a phase reordered to make a span
//! nest nicely, a value derived from a timestamp — would make `--profile`
//! runs uncertifiable against production runs.
//!
//! Checked on the seven Tbl. 3 pipelines and on randomly generated
//! pipelines (proptest), comparing the Verilog text, the schedule, and
//! the priced design.

use imagen_algos::Algorithm;
use imagen_core::{CompileOutput, Compiler};
use imagen_ir::{BinOp, Dag, Expr};
use imagen_mem::{ImageGeometry, MemBackend, MemorySpec};
use imagen_obs::{with_collector, Collector};
use proptest::prelude::*;
use std::sync::Arc;

fn geom() -> ImageGeometry {
    ImageGeometry {
        width: 32,
        height: 24,
        pixel_bits: 16,
    }
}

fn spec() -> MemorySpec {
    MemorySpec::new(MemBackend::Asic { block_bits: 2048 }, 2)
}

/// The deterministic fields of a compile, bit-for-bit.
fn assert_identical(plain: &CompileOutput, traced: &CompileOutput) {
    assert_eq!(plain.verilog, traced.verilog, "Verilog text differs");
    assert_eq!(
        plain.plan.schedule, traced.plan.schedule,
        "schedule differs"
    );
    assert_eq!(plain.plan.design, traced.plan.design, "design differs");
}

#[test]
fn tbl3_pipelines_compile_identically_under_tracing() {
    for alg in Algorithm::all() {
        let dag = alg.build();
        let plain = Compiler::new(geom(), spec()).compile_dag(&dag).unwrap();
        let collector = Arc::new(Collector::new());
        let traced = with_collector(&collector, || {
            Compiler::new(geom(), spec()).compile_dag(&dag).unwrap()
        });
        assert_identical(&plain, &traced);
        // The collector actually observed the compile (this is not a
        // vacuous comparison) and saw the load-bearing phases.
        let phases: Vec<&str> = collector.phase_totals().iter().map(|t| t.name).collect();
        for expect in [
            "plan.skeleton",
            "ilp.solve",
            "plan.realize",
            "netlist.build",
            "emit",
        ] {
            assert!(
                phases.contains(&expect),
                "{:?}: phase {expect} missing from {phases:?}",
                alg
            );
        }
    }
}

#[test]
fn source_compiles_identically_under_tracing() {
    // Through the DSL frontend, so frontend.parse/lower run under the
    // collector too.
    for alg in Algorithm::all() {
        let plain = Compiler::new(geom(), spec())
            .compile_source(alg.name(), alg.dsl_source())
            .unwrap();
        let traced = with_collector(&Arc::new(Collector::new()), || {
            Compiler::new(geom(), spec())
                .compile_source(alg.name(), alg.dsl_source())
                .unwrap()
        });
        assert_identical(&plain, &traced);
    }
}

/// SplitMix64 step — reproducible from the proptest seed.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A random stencil expression over producer slot 0.
fn rand_expr(state: &mut u64, depth: u32) -> Expr {
    let tap = |state: &mut u64| {
        Expr::tap(
            0,
            (next(state) % 3) as i32 - 1,
            (next(state) % 3) as i32 - 1,
        )
    };
    if depth == 0 || next(state).is_multiple_of(4) {
        return if next(state).is_multiple_of(3) {
            Expr::Const((next(state) % 17) as i64 - 8)
        } else {
            tap(state)
        };
    }
    let d = depth - 1;
    match next(state) % 5 {
        0 => Expr::bin(BinOp::Add, rand_expr(state, d), rand_expr(state, d)),
        1 => Expr::bin(BinOp::Sub, rand_expr(state, d), rand_expr(state, d)),
        2 => Expr::bin(BinOp::Mul, rand_expr(state, d), tap(state)),
        3 => Expr::bin(BinOp::Min, rand_expr(state, d), rand_expr(state, d)),
        _ => Expr::bin(BinOp::Max, rand_expr(state, d), rand_expr(state, d)),
    }
}

/// A random linear pipeline (every stage taps its producer, so every
/// stage has a stencil and the planner has buffers to place).
fn rand_dag(seed: u64, n_stages: usize) -> Dag {
    let mut state = seed;
    let mut dag = Dag::new("fuzz");
    let mut prev = dag.add_input("K0");
    for i in 0..n_stages {
        let expr = Expr::bin(BinOp::Add, Expr::tap(0, 0, 0), rand_expr(&mut state, 3));
        prev = dag.add_stage(format!("K{}", i + 1), &[prev], expr).unwrap();
    }
    dag.mark_output(prev);
    dag
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random pipelines compile byte-identically with and without a
    /// collector installed — including when the traced run goes first
    /// (no order dependence either way).
    #[test]
    fn random_dags_compile_identically_under_tracing(
        seed in 0u64..u64::MAX,
        n_stages in 1usize..4,
        traced_first in 0u64..2,
    ) {
        let traced_first = traced_first == 1;
        let dag = rand_dag(seed, n_stages);
        let compile = || Compiler::new(geom(), spec()).compile_dag(&dag).unwrap();
        let traced_run = || with_collector(&Arc::new(Collector::new()), compile);
        let (plain, traced) = if traced_first {
            let t = traced_run();
            (compile(), t)
        } else {
            (compile(), traced_run())
        };
        prop_assert_eq!(&plain.verilog, &traced.verilog);
        prop_assert_eq!(&plain.plan.schedule, &traced.plan.schedule);
        prop_assert_eq!(&plain.plan.design, &traced.plan.design);
    }
}
