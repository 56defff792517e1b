//! Differential suite: the compiled evaluation program and the
//! frame-free activity vs the per-cycle reference walker kept in this
//! test tree (`walker/mod.rs`).
//!
//! [`interpret`] routes through the one-time netlist→program compiler,
//! the crate's one executor, and [`interpret_with_trace`] adds the
//! [`ActivityTrace`] that [`ScheduleActivity`] derives from the
//! schedule; the walker re-walks the netlist graph every cycle and
//! counts every event as it happens. The two must be **bit-identical** —
//! same [`InterpReport`] (cycles, latency, access totals, gated-off
//! cycles, every output pixel) and same [`ActivityTrace`] field for
//! field — on:
//!
//! * the full Tbl. 3 corpus (all 7 pipelines) and both pyramid examples,
//!   at both width regimes (16/32 default and 64/64 wide), ungated and
//!   clock-gated, on the planner's default ASIC macro, rows split over
//!   several blocks, FPGA BRAM and SODA FIFO chains;
//! * randomly generated DAGs exercising every kernel operator (wrapping
//!   arithmetic, division by zero, out-of-range shifts, comparisons,
//!   selects, inverted clamps) on random seeds.

mod walker;

use imagen_algos::{noise_bits, Algorithm};
use imagen_baselines::generate_soda;
use imagen_ir::{BinOp, CmpOp, Dag, Expr, Rate};
use imagen_mem::{DesignStyle, ImageGeometry, MemBackend, MemorySpec};
use imagen_power::{gate_clocks, gating_plan};
use imagen_rtl::{
    build_netlist, interpret, interpret_with_trace, ActivityTrace, BitWidths, InterpError,
    InterpReport, Netlist, ScheduleActivity,
};
use imagen_schedule::{plan_design, ScheduleOptions};
use imagen_sim::Image;
use proptest::prelude::*;
use walker::{walk, walk_with_trace};

fn assert_report_eq(tag: &str, a: &InterpReport, b: &InterpReport) {
    assert_eq!(a.cycles, b.cycles, "{tag}: cycles");
    assert_eq!(a.latency, b.latency, "{tag}: latency");
    assert_eq!(a.sram_reads, b.sram_reads, "{tag}: sram_reads");
    assert_eq!(a.sram_writes, b.sram_writes, "{tag}: sram_writes");
    assert_eq!(
        a.gated_off_cycles, b.gated_off_cycles,
        "{tag}: gated_off_cycles"
    );
    assert_eq!(
        a.output_images.len(),
        b.output_images.len(),
        "{tag}: output stream count"
    );
    for ((sa, ia), (sb, ib)) in a.output_images.iter().zip(&b.output_images) {
        assert_eq!(sa, sb, "{tag}: output stage order");
        assert_eq!(ia, ib, "{tag}: output image of stage {sa}");
    }
}

fn assert_trace_eq(tag: &str, a: &ActivityTrace, b: &ActivityTrace) {
    assert_eq!(a.run_cycles, b.run_cycles, "{tag}: run_cycles");
    assert_eq!(a.frame, b.frame, "{tag}: frame");
    assert_eq!(a.buffers.len(), b.buffers.len(), "{tag}: buffer count");
    for (i, (ba, bb)) in a.buffers.iter().zip(&b.buffers).enumerate() {
        assert_eq!(ba.stage, bb.stage, "{tag}: buffer {i} stage");
        assert_eq!(ba.block_reads, bb.block_reads, "{tag}: buffer {i} reads");
        assert_eq!(ba.block_writes, bb.block_writes, "{tag}: buffer {i} writes");
        assert_eq!(ba.block_peaks, bb.block_peaks, "{tag}: buffer {i} peaks");
        assert_eq!(
            ba.read_enabled_cycles, bb.read_enabled_cycles,
            "{tag}: buffer {i} read_enabled_cycles"
        );
        assert_eq!(
            ba.idle_read_cycles, bb.idle_read_cycles,
            "{tag}: buffer {i} idle_read_cycles"
        );
        assert_eq!(
            ba.gated_off_cycles, bb.gated_off_cycles,
            "{tag}: buffer {i} gated_off_cycles"
        );
        assert_eq!(ba.fifo, bb.fifo, "{tag}: buffer {i} fifo");
    }
    assert_eq!(a.stages.len(), b.stages.len(), "{tag}: stage count");
    for (i, (sa, sb)) in a.stages.iter().zip(&b.stages).enumerate() {
        assert_eq!(
            sa.active_cycles, sb.active_cycles,
            "{tag}: stage {i} active_cycles"
        );
        assert_eq!(
            sa.out_reg_writes, sb.out_reg_writes,
            "{tag}: stage {i} out_reg_writes"
        );
    }
    assert_eq!(a.sras.len(), b.sras.len(), "{tag}: sra count");
    for (i, (sa, sb)) in a.sras.iter().zip(&b.sras).enumerate() {
        assert_eq!(
            sa.shift_cycles, sb.shift_cycles,
            "{tag}: sra {i} shift_cycles"
        );
        assert_eq!(sa.cell_writes, sb.cell_writes, "{tag}: sra {i} cell_writes");
    }
}

/// Runs the program and the walker (untraced and traced) on `net` and
/// pins equality: reports, and the trace derived from the schedule
/// against the one the walker counts cycle by cycle.
fn differential(tag: &str, net: &Netlist, inputs: &[Image]) {
    let fast = interpret(net, inputs).expect("program path");
    let slow = walk(net, inputs).expect("walker");
    assert_report_eq(tag, &fast, &slow);

    let (fast_rep, fast_tr) = interpret_with_trace(net, inputs).expect("program traced");
    let (slow_rep, slow_tr) = walk_with_trace(net, inputs).expect("walker traced");
    assert_report_eq(&format!("{tag} traced"), &fast_rep, &slow_rep);
    assert_trace_eq(tag, &fast_tr, &slow_tr);
}

fn noise_inputs(dag: &Dag, geom: &ImageGeometry, seed: u64, bits: u32) -> Vec<Image> {
    let n = dag.stages().filter(|(_, s)| s.is_input()).count();
    (0..n)
        .map(|i| {
            let seed = seed.wrapping_add(i as u64);
            Image::from_fn(geom.width, geom.height, move |x, y| {
                noise_bits(seed, x, y, bits)
            })
        })
        .collect()
}

/// A pyramid example from `examples/`, compiled from its DSL source.
fn pyramid(name: &str) -> Dag {
    let path = format!(
        "{}/../../examples/{name}.imagen",
        env!("CARGO_MANIFEST_DIR")
    );
    let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    imagen_dsl::compile(name, &src).unwrap()
}

/// The Tbl. 3 corpus and both multirate pyramid examples, by name.
fn corpus() -> Vec<(String, Dag)> {
    Algorithm::all()
        .into_iter()
        .map(|alg| (format!("{alg:?}"), alg.build()))
        .chain(
            ["gaussian_pyramid", "laplacian_pyramid"]
                .into_iter()
                .map(|name| (name.to_string(), pyramid(name))),
        )
        .collect()
}

/// Both extents divisible by the pyramids' 2 × 2 cumulative scale.
fn geom() -> ImageGeometry {
    ImageGeometry {
        width: 48,
        height: 32,
        pixel_bits: 16,
    }
}

/// A frame six times taller than [`geom`]: the activity sweep counts
/// several steady periods of every buffer from one.
fn tall() -> ImageGeometry {
    ImageGeometry {
        width: 48,
        height: 192,
        pixel_bits: 16,
    }
}

/// A frame wider than one evaluation tile: four 64-lane tiles at full
/// rate and two at the pyramids' half rate, so strided tap loads gather
/// from beyond a stage's first tile.
fn wide() -> ImageGeometry {
    ImageGeometry {
        width: 200,
        height: 24,
        pixel_bits: 16,
    }
}

/// Line coalescing into blocks of two rows each.
fn coalesced(geom: &ImageGeometry) -> MemorySpec {
    let backend = MemBackend::Asic {
        block_bits: 2 * geom.row_bits(),
    };
    MemorySpec::new(backend, 2).with_coalescing()
}

/// The corpus × {16/32, 64/64} × {ungated, gated} on the planner's
/// default ASIC macro, on two-row coalesced blocks, and on the default
/// macro at the tall frame and at a frame wider than one tile.
#[test]
fn program_matches_walker_on_corpus() {
    let asic = MemorySpec::new(MemBackend::asic_default(), 2);
    let cases = [
        ("asic", geom(), asic.clone()),
        ("coalesced", geom(), coalesced(&geom())),
        ("tall", tall(), asic.clone()),
        ("wide", wide(), asic),
    ];
    for (i, (name, dag)) in corpus().iter().enumerate() {
        for (case, geom, spec) in &cases {
            let plan = plan_design(
                dag,
                geom,
                spec,
                ScheduleOptions::default(),
                DesignStyle::Ours,
            )
            .unwrap();
            if *case == "coalesced" {
                assert!(
                    plan.design
                        .buffers
                        .iter()
                        .any(|b| b.layout.rows_per_block() == 2),
                    "{name}: two-row blocks"
                );
            }
            let inputs = noise_inputs(&plan.dag, geom, 0xD1FF + i as u64, 4);
            for (wname, widths) in [
                ("16/32", BitWidths::default()),
                ("64/64", BitWidths::wide()),
            ] {
                let tag = format!("{name} {case} {wname}");
                let net = build_netlist(&plan.dag, &plan.design, &widths);
                differential(&format!("{tag} ungated"), &net, &inputs);
                let gated = gate_clocks(&net);
                differential(&format!("{tag} gated"), &gated, &inputs);
            }
        }
    }
}

/// The corpus on the designs the planner's default ASIC macro does not
/// produce: rows split over several blocks (also at the tall frame),
/// two-row coalesced blocks, FPGA BRAM and SODA FIFO chains, at both
/// widths, ungated and gated. It also pins
/// [`ScheduleActivity::trace_gated`] on the ungated netlist, which reuses
/// the ungated block sweep, to the gated copy's own trace (itself pinned
/// to the walker), and a narrowed gate window to a
/// [`imagen_rtl::GateGap`].
#[test]
fn schedule_activity_matches_traced_run_across_backends() {
    // 256-bit macros hold a third of a 48 x 16-bit row.
    let split = MemorySpec::new(MemBackend::Asic { block_bits: 256 }, 2);
    let specs = [
        ("split-row", geom(), split.clone()),
        ("tall split-row", tall(), split),
        ("coalesced", geom(), coalesced(&geom())),
        ("fpga", geom(), MemorySpec::new(MemBackend::Fpga, 2)),
    ];
    for (i, (alg, dag)) in corpus().iter().enumerate() {
        let mut plans: Vec<(&str, ImageGeometry, imagen_schedule::Plan)> = specs
            .iter()
            .map(|(name, geom, spec)| {
                let plan = plan_design(
                    dag,
                    geom,
                    spec,
                    ScheduleOptions::default(),
                    DesignStyle::Ours,
                )
                .unwrap();
                (*name, *geom, plan)
            })
            .collect();
        plans.push((
            "soda",
            geom(),
            generate_soda(dag, &geom(), MemBackend::asic_default()).unwrap(),
        ));
        for (name, geom, plan) in &plans {
            let inputs = noise_inputs(&plan.dag, geom, 0x5C4E + i as u64, 4);
            for (wname, widths) in [
                ("16/32", BitWidths::default()),
                ("64/64", BitWidths::wide()),
            ] {
                let tag = format!("{alg} {name} {wname}");
                let net = build_netlist(&plan.dag, &plan.design, &widths);
                if name.ends_with("split-row") {
                    assert!(
                        net.structure.buffers.iter().any(|b| b.layout.is_split()),
                        "{tag}: rows span several blocks"
                    );
                }
                if *name == "coalesced" {
                    assert!(
                        net.structure
                            .buffers
                            .iter()
                            .any(|b| b.layout.rows_per_block() == 2),
                        "{tag}: two-row blocks"
                    );
                }
                if *name == "soda" {
                    assert!(
                        net.structure.buffers.iter().any(|b| b.fifo),
                        "{tag}: FIFO buffers"
                    );
                }
                differential(&format!("{tag} ungated"), &net, &inputs);
                let gated = gate_clocks(&net);
                differential(&format!("{tag} gated"), &gated, &inputs);

                let activity = ScheduleActivity::derive(&net.structure, None, None).unwrap();
                let (_, gated_tr) = interpret_with_trace(&gated, &inputs).unwrap();
                let plan = gating_plan(&net.structure);
                assert_trace_eq(
                    &format!("{tag} trace_gated"),
                    &activity.trace_gated(&plan).unwrap(),
                    &gated_tr,
                );
                let mut narrowed = plan.clone();
                if let Some(g) = narrowed.gates.first_mut() {
                    g.read_start += 1;
                    let buffer = g.buffer;
                    let gap = activity.trace_gated(&narrowed).unwrap_err();
                    assert_eq!(gap.buffer, buffer, "{tag}");

                    // Gates that cut into live consumers zero the same
                    // loads in the walker and the program.
                    if let Some(g) = narrowed.gates.last_mut() {
                        g.read_end -= net.structure.frame / 3;
                    }
                    let mut cut = net.clone();
                    cut.gating = Some(narrowed);
                    differential(&format!("{tag} cut gates"), &cut, &inputs);
                }
            }
        }
    }
}

/// A schedule that violates the streaming margins is refused, naming the
/// edge, by the plain run, the traced run and the frame-free derivation
/// alike.
#[test]
fn unstreamable_schedules_are_refused() {
    let geom = ImageGeometry {
        width: 32,
        height: 24,
        pixel_bits: 16,
    };
    let spec = MemorySpec::new(MemBackend::asic_default(), 2);
    let plan = plan_design(
        &Algorithm::UnsharpM.build(),
        &geom,
        &spec,
        ScheduleOptions::default(),
        DesignStyle::Ours,
    )
    .unwrap();
    let mut net = build_netlist(&plan.dag, &plan.design, &BitWidths::default());
    let inputs = noise_inputs(&plan.dag, &geom, 7, 4);
    assert!(interpret(&net, &inputs).is_ok());
    // Start a consumer together with its producer: its window rows are
    // loaded before they are written.
    let e = net.structure.edges[0].clone();
    net.structure.stages[e.consumer].start_cycle = net.structure.stages[e.producer].start_cycle;
    let refused = InterpError::NotStreamable {
        edge: 0,
        producer: e.producer,
        consumer: e.consumer,
    };
    assert_eq!(interpret(&net, &inputs).unwrap_err(), refused);
    assert_eq!(interpret_with_trace(&net, &inputs).unwrap_err(), refused);
    assert_eq!(
        ScheduleActivity::derive(&net.structure, None, None).unwrap_err(),
        refused
    );
}

/// 1-2-1 / 2-4-2 / 1-2-1 smoothing kernel over `slot`, `>> 4`.
fn gauss3(slot: usize) -> Expr {
    let t = |dx: i32, dy: i32| Expr::tap(slot, dx, dy);
    let sum = [
        (-1, -1, 1),
        (0, -1, 2),
        (1, -1, 1),
        (-1, 0, 2),
        (0, 0, 4),
        (1, 0, 2),
        (-1, 1, 1),
        (0, 1, 2),
        (1, 1, 1),
    ]
    .into_iter()
    .map(|(dx, dy, k)| {
        if k == 1 {
            t(dx, dy)
        } else {
            Expr::bin(BinOp::Mul, Expr::Const(k), t(dx, dy))
        }
    })
    .reduce(|a, b| Expr::bin(BinOp::Add, a, b))
    .unwrap();
    Expr::bin(BinOp::Shr, sum, Expr::Const(4))
}

/// A hand-built pyramid pipeline — blur, decimate 2×2, half-rate blur,
/// replicate back up, and a unit-rate band stage subtracting the
/// reconstruction from the full-rate input — through the tile loop's
/// strided tap gathers vs the walker, both width regimes, ungated and
/// gated.
#[test]
fn program_matches_walker_on_hand_built_pyramid() {
    let geom = ImageGeometry {
        width: 48,
        height: 32,
        pixel_bits: 16,
    };
    let spec = MemorySpec::new(MemBackend::asic_default(), 2);
    let mut dag = Dag::new("pyramid");
    let raw = dag.add_input("raw");
    let g0 = dag.add_stage("g0", &[raw], gauss3(0)).unwrap();
    let l1 = dag
        .add_stage_rated("l1", &[g0], Expr::tap(0, 0, 0), Rate::Down { fx: 2, fy: 2 })
        .unwrap();
    let g1 = dag
        .add_stage(
            "g1",
            &[l1],
            Expr::bin(
                BinOp::Shr,
                Expr::bin(
                    BinOp::Add,
                    Expr::bin(
                        BinOp::Add,
                        Expr::tap(0, -1, 0),
                        Expr::bin(BinOp::Mul, Expr::Const(2), Expr::tap(0, 0, 0)),
                    ),
                    Expr::tap(0, 1, 0),
                ),
                Expr::Const(2),
            ),
        )
        .unwrap();
    let up1 = dag
        .add_stage_rated("up1", &[g1], Expr::tap(0, 0, 0), Rate::Up { fx: 2, fy: 2 })
        .unwrap();
    let band = dag
        .add_stage(
            "band",
            &[raw, up1],
            Expr::bin(BinOp::Sub, Expr::tap(0, 0, 0), Expr::tap(1, 0, 0)),
        )
        .unwrap();
    dag.mark_output(band);

    let plan = plan_design(
        &dag,
        &geom,
        &spec,
        ScheduleOptions::default(),
        DesignStyle::Ours,
    )
    .unwrap();
    let inputs = noise_inputs(&plan.dag, &geom, 0x9E7A, 4);
    for (wname, widths) in [
        ("16/32", BitWidths::default()),
        ("64/64", BitWidths::wide()),
    ] {
        let net = build_netlist(&plan.dag, &plan.design, &widths);
        differential(&format!("pyramid {wname} ungated"), &net, &inputs);
        differential(
            &format!("pyramid {wname} gated"),
            &gate_clocks(&net),
            &inputs,
        );
    }
}

/// SplitMix64 step — the corpus generator's only randomness source, so
/// every case is reproducible from the proptest seed.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A random kernel expression over producer slot 0, deliberately biased
/// toward the interpreter's edge cases: division by a possibly-zero
/// runtime value, shift amounts beyond the 0..64 range, clamps whose
/// bounds may invert, and comparisons feeding selects.
fn rand_expr(state: &mut u64, depth: u32) -> Expr {
    let tap = |state: &mut u64| {
        Expr::tap(
            0,
            (next(state) % 3) as i32 - 1,
            (next(state) % 3) as i32 - 1,
        )
    };
    if depth == 0 || next(state) % 8 < 2 {
        return if next(state).is_multiple_of(3) {
            Expr::Const((next(state) % 41) as i64 - 20)
        } else {
            tap(state)
        };
    }
    let d = depth - 1;
    match next(state) % 12 {
        0 => Expr::bin(BinOp::Add, rand_expr(state, d), rand_expr(state, d)),
        1 => Expr::bin(BinOp::Sub, rand_expr(state, d), rand_expr(state, d)),
        2 => Expr::bin(BinOp::Mul, rand_expr(state, d), rand_expr(state, d)),
        // Runtime divisor: hits the guarded divide-by-zero path whenever
        // the subtrahend taps cancel.
        3 => Expr::bin(
            BinOp::Div,
            rand_expr(state, d),
            Expr::bin(BinOp::Sub, tap(state), tap(state)),
        ),
        4 => Expr::bin(BinOp::Min, rand_expr(state, d), rand_expr(state, d)),
        5 => Expr::bin(BinOp::Max, rand_expr(state, d), rand_expr(state, d)),
        // Shift amounts drawn from 0..70: past 63 exercises the
        // out-of-range semantics the Verilog emitter pins.
        6 => Expr::bin(
            BinOp::Shl,
            rand_expr(state, d),
            Expr::Const((next(state) % 70) as i64),
        ),
        7 => Expr::bin(
            BinOp::Shr,
            rand_expr(state, d),
            Expr::Const((next(state) % 70) as i64),
        ),
        8 => Expr::Neg(Box::new(rand_expr(state, d))),
        9 => Expr::Abs(Box::new(rand_expr(state, d))),
        10 => {
            let op = [
                CmpOp::Lt,
                CmpOp::Le,
                CmpOp::Gt,
                CmpOp::Ge,
                CmpOp::Eq,
                CmpOp::Ne,
            ][(next(state) % 6) as usize];
            Expr::select(
                Expr::cmp(op, rand_expr(state, d), rand_expr(state, d)),
                rand_expr(state, d),
                rand_expr(state, d),
            )
        }
        // Bounds may invert: the pinned semantics is lo-wins.
        _ => Expr::Clamp {
            value: Box::new(rand_expr(state, d)),
            lo: Box::new(rand_expr(state, d)),
            hi: Box::new(rand_expr(state, d)),
        },
    }
}

/// A random linear pipeline of 1–3 stages (each with at least one tap so
/// every stage has a stencil).
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
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random DAGs, random input seeds: program ≡ walker, ungated and
    /// gated, report and trace.
    #[test]
    fn program_matches_walker_on_random_dags(
        seed in 0u64..u64::MAX,
        n_stages in 1usize..4,
        input_seed in 0u64..u64::MAX,
        bits in 1u32..9,
    ) {
        let geom = ImageGeometry { width: 32, height: 24, pixel_bits: 16 };
        let spec = MemorySpec::new(MemBackend::Asic { block_bits: 1024 }, 2);
        let dag = rand_dag(seed, n_stages);
        let plan = plan_design(&dag, &geom, &spec, ScheduleOptions::default(), DesignStyle::Ours)
            .unwrap();
        let inputs = noise_inputs(&plan.dag, &geom, input_seed, bits);
        for widths in [BitWidths::default(), BitWidths::wide()] {
            let net = build_netlist(&plan.dag, &plan.design, &widths);
            differential("random ungated", &net, &inputs);
            differential("random gated", &gate_clocks(&net), &inputs);
        }
    }
}
