//! Property tests for the parallel, memoized DSE engine:
//!
//! * fanning a sweep out over worker threads returns *byte-identical*
//!   points (order and values) to the sequential walk;
//! * recompiling a cached point equals the cold compile;
//! * every swept point's measured energy, priced from its schedule with
//!   the sweep's shared block-sweep memo, equals `imagen_power::measure`
//!   of the traces `interpret_with_trace` returns for the point's netlist
//!   and its clock-gated copy bit for bit, and its resources equal its
//!   netlist's, on the whole example corpus, pyramids included;
//! * a traced parallel sweep records every worker's spans and returns
//!   what an untraced one does;
//! * every buffer a sweep's shared port-check memo sized equals the
//!   checks run directly on its plan, one session serves several
//!   backends as fresh ones do, a violation keeps its cycle, and the
//!   sweep's counts of distinct checks and of checks that needed the
//!   row scanner repeat at any worker count;
//! * every buffer's block counts served by a shared block-sweep memo equal
//!   a fresh sweep's, at one and at three workers, and the memo's count of
//!   distinct sweeps repeats at any worker count;
//! * every point's formulation, assembled from per-buffer pieces that a
//!   skeleton shared by one or three workers memoized, equals a fresh
//!   one, and the count of distinct pieces repeats at any worker count.

use imagen_core::{CompileError, Session};
use imagen_dse::{explore, DseResult, ExploreOptions, ExploreStrategy, MeasureMode};
use imagen_ir::{Dag, StageId};
use imagen_mem::{DesignStyle, ImageGeometry, MemBackend, MemorySpec, StageMemConfig};
use imagen_obs::{with_collector, Collector};
use imagen_power::{gate_clocks, gating_plan, measure};
use imagen_rtl::{
    describe, interpret_with_trace, report_resources, BlockSweepMemo, ScheduleActivity, Structure,
};
use imagen_schedule::checker::{check_accesses, required_phys_rows};
use imagen_schedule::{
    formulate, formulate_skeleton, formulate_with, plan_design, resolve_entities, ScheduleOptions,
    SpecBufferParams,
};
use imagen_sim::Image;
use proptest::prelude::*;
use std::path::Path;
use std::sync::Arc;

fn geom() -> ImageGeometry {
    ImageGeometry {
        width: 32,
        height: 24,
        pixel_bits: 16,
    }
}

fn backend() -> MemBackend {
    MemBackend::Asic {
        block_bits: 2 * 32 * 16,
    }
}

/// The small-space algorithms (≤ 16 design points) keep the sweeps cheap.
fn algorithm(idx: usize) -> imagen_algos::Algorithm {
    use imagen_algos::Algorithm;
    [Algorithm::XcorrM, Algorithm::UnsharpM, Algorithm::DenoiseM][idx % 3]
}

/// Byte-exact comparison of two results: same stages, same point order,
/// same choices, and bit-identical floating-point values.
fn assert_byte_identical(a: &DseResult, b: &DseResult) -> Result<(), TestCaseError> {
    prop_assert_eq!(&a.buffered_stages, &b.buffered_stages);
    prop_assert_eq!(a.points.len(), b.points.len());
    for (i, (pa, pb)) in a.points.iter().zip(&b.points).enumerate() {
        prop_assert_eq!(&pa.choices, &pb.choices, "choices differ at point {}", i);
        prop_assert_eq!(
            pa.area_mm2.to_bits(),
            pb.area_mm2.to_bits(),
            "area differs at point {}",
            i
        );
        prop_assert_eq!(
            pa.power_mw.to_bits(),
            pb.power_mw.to_bits(),
            "power differs at point {}",
            i
        );
        prop_assert_eq!(
            pa.sram_kb.to_bits(),
            pb.sram_kb.to_bits(),
            "sram differs at point {}",
            i
        );
        // Measured energy is default-on and part of the determinism
        // contract: the measured values must be bit-identical too.
        let (ma, mb) = (pa.measured.unwrap(), pb.measured.unwrap());
        prop_assert_eq!(
            ma.energy_pj_per_frame.to_bits(),
            mb.energy_pj_per_frame.to_bits(),
            "measured energy differs at point {}",
            i
        );
        prop_assert_eq!(
            ma.gated_power_mw.to_bits(),
            mb.gated_power_mw.to_bits(),
            "gated power differs at point {}",
            i
        );
        prop_assert_eq!(
            ma.gated_off_cycles,
            mb.gated_off_cycles,
            "gated-off cycles differ at point {}",
            i
        );
        prop_assert_eq!(&pa.design, &pb.design, "design differs at point {}", i);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Parallel sweep output is byte-identical to the sequential path,
    /// for any worker count.
    #[test]
    fn parallel_sweep_matches_sequential(alg in 0usize..3, threads in 2usize..6) {
        let dag = algorithm(alg).build();
        let sequential = explore(&dag, &geom(), backend(), ExploreOptions {
            strategy: ExploreStrategy::Exhaustive,
            threads: 1,
            ..ExploreOptions::default()
        }).unwrap();
        let parallel = explore(&dag, &geom(), backend(), ExploreOptions {
            strategy: ExploreStrategy::Exhaustive,
            threads,
            ..ExploreOptions::default()
        }).unwrap();
        assert_byte_identical(&sequential, &parallel)?;
        prop_assert_eq!(sequential.pareto_front(), parallel.pareto_front());
    }

    /// A cache-hit recompile equals a cold compile, for an arbitrary
    /// DP/DPLC configuration.
    #[test]
    fn cache_hit_equals_cold_compile(alg in 0usize..3, mask in 0u64..16) {
        let dag = algorithm(alg).build();
        let buffered: Vec<usize> = dag.buffered_stages().iter().map(|s| s.index()).collect();
        let mut spec = MemorySpec::new(backend(), 2);
        for (bit, &stage) in buffered.iter().enumerate() {
            spec.set_stage(stage, StageMemConfig {
                ports: 2,
                coalesce: mask & (1 << bit) != 0,
            });
        }

        let session = Session::new(&dag, geom());
        let cold = session.compile(&spec, None).unwrap();
        // Only `price` memoizes a plan, so the warm compile hits it.
        session.price(&spec, None).unwrap();
        let warm = session.compile(&spec, None).unwrap();
        prop_assert_eq!(&cold.plan.schedule, &warm.plan.schedule);
        prop_assert_eq!(&cold.plan.design, &warm.plan.design);
        prop_assert_eq!(&cold.verilog, &warm.verilog);
        let (hits, _) = session.cache().stats();
        prop_assert!(hits >= 1, "second compile must hit the cache");

        // And both equal a from-scratch one-shot compile.
        let fresh = imagen_core::Compiler::new(geom(), spec)
            .compile_dag(&dag)
            .unwrap();
        prop_assert_eq!(&cold.plan.schedule, &fresh.plan.schedule);
        prop_assert_eq!(&cold.plan.design, &fresh.plan.design);
        prop_assert_eq!(&cold.verilog, &fresh.verilog);
    }
}

/// The 10 example programs, `examples/*.imagen`: the seven Tbl. 3
/// pipelines, Sobel and both pyramids.
fn corpus() -> Vec<(String, Dag)> {
    let examples = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples");
    let mut files: Vec<_> = std::fs::read_dir(&examples)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "imagen"))
        .collect();
    files.sort();
    assert_eq!(files.len(), 10, "the example corpus");
    files
        .iter()
        .map(|p| {
            let name = p.file_stem().unwrap().to_string_lossy().into_owned();
            let dag = imagen_dsl::compile(&name, &std::fs::read_to_string(p).unwrap()).unwrap();
            (name, dag)
        })
        .collect()
}

fn sweep_at(dag: &Dag, geom: &ImageGeometry, backend: MemBackend, threads: usize) -> DseResult {
    explore(
        dag,
        geom,
        backend,
        ExploreOptions {
            strategy: ExploreStrategy::Exhaustive,
            threads,
            measure: MeasureMode::default(),
        },
    )
    .unwrap()
}

fn measured_sweep(dag: &Dag, threads: usize) -> DseResult {
    sweep_at(dag, &geom(), backend(), threads)
}

/// One seeded noise frame per input stream.
fn noise_frames(dag: &Dag, seed: u64, bits: u32) -> Vec<Image> {
    let g = geom();
    let n = dag.stages().filter(|(_, s)| s.is_input()).count();
    (0..n as u64)
        .map(|i| {
            Image::from_fn(g.width, g.height, move |x, y| {
                imagen_algos::noise_bits(seed + i, x, y, bits)
            })
        })
        .collect()
}

/// Every swept point's measured energy equals `measure` of the traced
/// runs of the point's netlist and its clock-gated copy on a noise
/// frame, bit for bit, at 1 and 3 workers, and its resources equal
/// `report_resources` of that netlist. The sweep prices the gated design
/// from the ungated block sweep (`trace_gated`); the gated copy's trace
/// comes from its own.
#[test]
fn measured_energy_matches_frame_measurement_on_corpus() {
    for (name, dag) in corpus() {
        let sweeps = [1, 3].map(|threads| measured_sweep(&dag, threads));
        let session = Session::new(&dag, geom());
        let inputs = noise_frames(&dag, 1, 4);
        for (i, p) in sweeps[0].points.iter().enumerate() {
            let spec = sweeps[0].spec_of(p, backend());
            let net = session.netlist(&spec, Some(p.design.style)).unwrap();
            assert!(
                ScheduleActivity::derive(&net.structure, None, None).is_ok(),
                "{name} point {i}: priced from its schedule"
            );
            assert_eq!(
                p.resources,
                report_resources(&net.structure, &net.widths),
                "{name} point {i}: resources are the netlist's"
            );
            let gated = gate_clocks(&net);
            let (_, trace) = interpret_with_trace(&net, &inputs).unwrap();
            let (gated_run, gated_trace) = interpret_with_trace(&gated, &inputs).unwrap();
            let ungated = measure(&net, &p.design, &trace);
            let gated = measure(&gated, &p.design, &gated_trace);
            for res in &sweeps {
                let m = res.points[i].measured.unwrap();
                assert_eq!(
                    m.energy_pj_per_frame.to_bits(),
                    ungated.energy_pj_per_frame().to_bits(),
                    "{name} point {i}: energy"
                );
                assert_eq!(
                    m.power_mw.to_bits(),
                    ungated.total_mw().to_bits(),
                    "{name} point {i}: power"
                );
                assert_eq!(
                    m.gated_power_mw.to_bits(),
                    gated.total_mw().to_bits(),
                    "{name} point {i}: gated power"
                );
                assert_eq!(
                    m.gated_off_cycles, gated_run.gated_off_cycles,
                    "{name} point {i}: gated-off cycles"
                );
            }
        }
    }
}

/// A traced two-worker sweep returns exactly what an untraced one does,
/// and both workers record their `measure` spans into the caller's
/// collector.
#[test]
fn traced_parallel_sweep_records_every_worker() {
    let dag = imagen_algos::Algorithm::UnsharpM.build();
    let untraced = measured_sweep(&dag, 2);
    let collector = Arc::new(Collector::new());
    let traced = with_collector(&collector, || measured_sweep(&dag, 2));
    // `stats.simplex_pivots` is a process-wide counter delta; the points
    // are the sweep's result.
    assert_eq!(untraced.buffered_stages, traced.buffered_stages);
    assert_eq!(
        format!("{:?}", untraced.points),
        format!("{:?}", traced.points)
    );
    let mut threads: Vec<u64> = collector
        .spans()
        .iter()
        .filter(|s| s.name == "measure")
        .map(|s| s.tid)
        .collect();
    assert_eq!(threads.len(), traced.points.len(), "one span per point");
    threads.dedup();
    assert_eq!(threads.len(), 2, "measure spans from both workers");
}

/// 64×48 frames on 256-bit macros: every buffer row splits over blocks
/// (four for a full-rate row).
fn split_row() -> (ImageGeometry, MemBackend) {
    (
        ImageGeometry {
            width: 64,
            height: 48,
            pixel_bits: 16,
        },
        MemBackend::Asic { block_bits: 256 },
    )
}

/// Every buffer of every point a three-worker sweep sizes through its
/// session's port-check memo equals the checks run directly on the
/// point's plan: `required_phys_rows` on the plan's resolved streams
/// returns the buffer's physical rows, and the absolute-row check passes.
/// All 10 examples, on the two-row macro at 32×24 and on split rows.
#[test]
fn memo_served_buffers_equal_direct_checks() {
    for (geom, backend) in [(geom(), backend()), split_row()] {
        for (name, dag) in corpus() {
            let res = sweep_at(&dag, &geom, backend, 3);
            let session = Session::new(&dag, geom);
            for (i, p) in res.points.iter().enumerate() {
                let spec = res.spec_of(p, backend);
                let plan = session.price(&spec, Some(p.design.style)).unwrap();
                assert_eq!(
                    plan.design.start_cycles, p.design.start_cycles,
                    "{name} point {i}: the plan is the point's schedule"
                );
                let scales = plan.dag.stage_scales();
                for b in &p.design.buffers {
                    let streams = resolve_entities(
                        &plan.dag,
                        StageId::from_index(b.stage),
                        &scales,
                        &plan.schedule.starts,
                    );
                    let ports = spec.ports_for(b.stage);
                    let (w, h, px) = (geom.width, geom.height, geom.pixel_bits);
                    assert_eq!(
                        check_accesses(w, h, px, &streams, ports, None),
                        Ok(()),
                        "{name} point {i} buffer {}: absolute rows",
                        b.stage
                    );
                    assert_eq!(
                        required_phys_rows(w, h, px, &streams, ports, b.logical_rows, b.layout),
                        Ok(b.layout.phys_rows()),
                        "{name} point {i} buffer {}: physical rows",
                        b.stage
                    );
                }
            }
        }
    }
}

/// One session that prices every point on two backends, alternating,
/// returns the designs one fresh session per backend does: the memo's
/// key separates buffers whose streams agree but whose macros do not.
#[test]
fn one_session_prices_both_backends_as_fresh_ones_do() {
    let geom = geom();
    let backends = [backend(), MemBackend::Asic { block_bits: 256 }];
    for (name, dag) in corpus() {
        let fresh = backends.map(|b| sweep_at(&dag, &geom, b, 1));
        let shared = Session::new(&dag, geom);
        for i in 0..fresh[0].points.len() {
            for (res, &b) in fresh.iter().zip(&backends) {
                let p = &res.points[i];
                let plan = shared
                    .price(&res.spec_of(p, b), Some(p.design.style))
                    .unwrap();
                assert_eq!(plan.design, p.design, "{name} point {i} on {b:?}");
            }
        }
    }
}

/// The number of distinct port checks a sweep runs, of those that needed
/// the row scanner, of distinct block sweeps its measurement ran, and of
/// distinct formulation pieces it built, repeats at one and at three
/// workers on the corpus. Canny-m's 512-point sweep runs fewer checks
/// than it has points and builds at most 18 pieces: its 9 buffers, each
/// at coalescing factor 1 and 2.
#[test]
fn port_checks_repeat_at_any_worker_count() {
    for (name, dag) in corpus() {
        let [one, three] = [1, 3].map(|threads| measured_sweep(&dag, threads));
        assert!(one.stats.formulation_pieces > 0, "{name}");
        assert_eq!(
            one.stats.formulation_pieces, three.stats.formulation_pieces,
            "{name}: formulation pieces at 1 and 3 workers"
        );
        assert!(one.stats.port_checks > 0, "{name}");
        assert_eq!(
            one.stats.port_checks, three.stats.port_checks,
            "{name}: port checks at 1 and 3 workers"
        );
        assert_eq!(
            one.stats.port_scans, three.stats.port_scans,
            "{name}: port scans at 1 and 3 workers"
        );
        assert!(one.stats.block_sweeps > 0, "{name}");
        assert_eq!(
            one.stats.block_sweeps, three.stats.block_sweeps,
            "{name}: block sweeps at 1 and 3 workers"
        );
        assert!(one.stats.port_scans <= one.stats.port_checks, "{name}");
        if name == "canny_m" {
            assert_eq!(one.points.len(), 512);
            assert!(
                one.stats.port_checks < 512,
                "canny_m ran {} port checks",
                one.stats.port_checks
            );
            assert!(
                one.stats.formulation_pieces <= 18,
                "canny_m built {} formulation pieces",
                one.stats.formulation_pieces
            );
        }
    }
}

/// At every point of every example's exhaustive sweep, the formulation
/// that one skeleton, shared by one and then by three workers, assembles
/// from its memoized per-buffer pieces equals `formulate` with a fresh
/// skeleton on the point's coalesced DAG: the hard constraints in order,
/// the groups and the statistics. Either worker count ends with the same
/// pieces, at most one per buffer and coalescing factor.
#[test]
fn memoized_formulations_equal_fresh_ones() {
    let geom = geom();
    let opts = ScheduleOptions::default();
    for (name, dag) in corpus() {
        let res = measured_sweep(&dag, 1);
        let session = Session::new(&dag, geom);
        let points: Vec<_> = res
            .points
            .iter()
            .map(|p| {
                let spec = res.spec_of(p, backend());
                let plan = session.price(&spec, Some(p.design.style)).unwrap();
                (plan, spec)
            })
            .collect();
        let fresh: Vec<_> = points
            .iter()
            .map(|(plan, spec)| {
                let params = SpecBufferParams { spec, geom: &geom };
                formulate(&plan.dag, geom.width, &params, opts)
            })
            .collect();
        let pieces = [1, 3].map(|workers| {
            let skeleton = formulate_skeleton(&dag, geom.width);
            let chunk = points.len().div_ceil(workers);
            std::thread::scope(|scope| {
                for (k, part) in points.chunks(chunk).enumerate() {
                    let (skeleton, fresh, name) = (&skeleton, &fresh[k * chunk..], &name);
                    scope.spawn(move || {
                        for (i, (plan, spec)) in part.iter().enumerate() {
                            let params = SpecBufferParams { spec, geom: &geom };
                            let set = formulate_with(&plan.dag, skeleton, &params, opts);
                            let at = format!("{name} point {}, {workers} workers", k * chunk + i);
                            assert_eq!(set.hard, fresh[i].hard, "{at}: hard");
                            assert_eq!(set.groups, fresh[i].groups, "{at}: groups");
                            assert_eq!(set.stats, fresh[i].stats, "{at}: stats");
                        }
                    });
                }
            });
            skeleton.piece_count()
        });
        assert_eq!(pieces[0], pieces[1], "{name}: pieces at 1 and 3 workers");
        assert!(
            pieces[0] <= 2 * res.buffered_stages.len(),
            "{name}: {} pieces for {} buffers",
            pieces[0],
            res.buffered_stages.len()
        );
    }
}

/// Every buffer of every point of Canny-m's and Harris-m's measured
/// sweeps gets, through one block-sweep memo shared by one and then by
/// three workers, the block counts a fresh sweep gives it: the derived
/// traces, ungated and clock-gated, agree field for field. The memo ends
/// with as many keys at either worker count as the sweep reported, far
/// fewer than the points' buffers.
#[test]
fn memoized_block_sweeps_equal_fresh_ones() {
    use imagen_algos::Algorithm;
    for alg in [Algorithm::CannyM, Algorithm::HarrisM] {
        let dag = alg.build();
        let res = measured_sweep(&dag, 1);
        let session = Session::new(&dag, geom());
        let structures: Vec<Structure> = res
            .points
            .iter()
            .map(|p| {
                let spec = res.spec_of(p, backend());
                let plan = session.price(&spec, Some(p.design.style)).unwrap();
                describe(&plan.dag, &plan.design)
            })
            .collect();
        let traces = |s: &Structure, memo: Option<&BlockSweepMemo>| {
            let activity = ScheduleActivity::derive(s, None, memo).unwrap();
            let gated = activity.trace_gated(&gating_plan(s)).unwrap();
            format!("{:?}\n{gated:?}", activity.trace())
        };
        let fresh: Vec<String> = structures.iter().map(|s| traces(s, None)).collect();
        let keys = [1, 3].map(|workers| {
            let memo = BlockSweepMemo::new();
            let chunk = structures.len().div_ceil(workers);
            std::thread::scope(|scope| {
                for (k, part) in structures.chunks(chunk).enumerate() {
                    let (memo, fresh) = (&memo, &fresh[k * chunk..]);
                    scope.spawn(move || {
                        for (i, s) in part.iter().enumerate() {
                            assert_eq!(
                                traces(s, Some(memo)),
                                fresh[i],
                                "{} point {}, {workers} workers",
                                alg.name(),
                                k * chunk + i
                            );
                        }
                    });
                }
            });
            memo.len() as u64
        });
        let buffers: usize = structures.iter().map(|s| s.buffers.len()).sum();
        assert_eq!(keys, [res.stats.block_sweeps; 2], "{}", alg.name());
        assert!(
            keys[0] * 8 < buffers as u64,
            "{}: {} keys for {buffers} buffers",
            alg.name(),
            keys[0]
        );
    }
}

/// A port-violating plan reports the same text, cycle included, from a
/// one-shot plan and from a session's first and second (memo-hit) try.
/// `synthetic_pipeline(29, 2710633447341882416)` is a known such DAG:
/// stage 2's buffer collides on its last row without coalescing.
#[test]
fn a_violation_keeps_its_cycle_through_the_memo() {
    let dag = imagen_algos::synthetic_pipeline(29, 2710633447341882416);
    let spec = MemorySpec::new(MemBackend::asic_default(), 2);
    for (width, height, text) in [
        (
            64,
            48,
            "schedule violates ports on buffer of stage 2: \
             row 47 receives 3 accesses (> 2 ports) at cycle 3660",
        ),
        (
            352,
            240,
            "schedule violates ports on buffer of stage 2: \
             row 239 receives 3 accesses (> 2 ports) at cycle 87660",
        ),
    ] {
        let geom = ImageGeometry {
            width,
            height,
            pixel_bits: 16,
        };
        let one_shot = plan_design(
            &dag,
            &geom,
            &spec,
            ScheduleOptions::default(),
            DesignStyle::Ours,
        )
        .unwrap_err();
        assert_eq!(
            one_shot.to_string(),
            text,
            "plan_design at {width}x{height}"
        );
        let session = Session::new(&dag, geom);
        for attempt in 0..2 {
            match session.price(&spec, None) {
                Err(CompileError::Plan(e)) => assert_eq!(
                    e.to_string(),
                    text,
                    "Session::price #{attempt} at {width}x{height}"
                ),
                other => panic!(
                    "expected a plan error, got {:?}",
                    other.map(|p| p.design.name.clone())
                ),
            }
        }
        // The refused buffer's first violation came from the scanner.
        assert_eq!(session.port_scans(), 1, "{width}x{height}");
    }
}
