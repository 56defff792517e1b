//! Cross-check of the two independent access-counting paths: the cycle
//! simulator's per-block annotations (`imagen_sim::simulate_and_annotate`
//! — the counts that feed the analytic power model) versus the netlist's
//! activity trace (`imagen_rtl::interpret_with_trace`, derived from the
//! netlist's structure and schedule by `ScheduleActivity` — the counts
//! that feed the measured energy model).
//!
//! Both count SRAM accesses with the same conventions (same-address
//! reads merged per cycle, one write per producer cycle, FIFO segments
//! at the synthetic one-push-one-pop rate), but through entirely
//! separate code paths: the simulator walks the `Design`'s block plans
//! cycle by cycle, the activity sweep reads the elaborated `Netlist`'s
//! structure. They must agree
//! block for block, for the three `exp_power_breakdown` algorithms and
//! both multirate pyramid examples × three styles, and for the Tbl. 3
//! corpus planned plain and line-coalesced at short and tall frames.

use imagen::algos::Algorithm;
use imagen::baselines::{generate_darkroom, generate_fixynn, generate_soda};
use imagen::ir::Dag;
use imagen::mem::{DesignStyle, ImageGeometry, MemBackend};
use imagen::rtl::{build_netlist, interpret_with_trace, BitWidths};
use imagen::sim::{simulate_and_annotate, Image};
use imagen::{Compiler, MemorySpec, Plan};

fn geom() -> ImageGeometry {
    ImageGeometry {
        width: 48,
        height: 26,
        pixel_bits: 16,
    }
}

/// Both extents divisible by 4, past the pyramids' 2×2 cumulative scale.
fn pyramid_geom() -> ImageGeometry {
    ImageGeometry {
        width: 48,
        height: 32,
        pixel_bits: 16,
    }
}

fn backend(g: &ImageGeometry) -> MemBackend {
    MemBackend::Asic {
        block_bits: 2 * g.row_bits(),
    }
}

fn plan_for(dag: &Dag, g: &ImageGeometry, style: DesignStyle) -> Plan {
    match style {
        DesignStyle::Soda => generate_soda(dag, g, backend(g)).unwrap(),
        DesignStyle::FixyNn => generate_fixynn(dag, g, backend(g)).unwrap(),
        DesignStyle::Darkroom => generate_darkroom(dag, g, backend(g)).unwrap(),
        _ => {
            Compiler::new(*g, MemorySpec::new(backend(g), 2))
                .compile_dag(dag)
                .unwrap()
                .plan
        }
    }
}

/// A frame six times taller than [`pyramid_geom`]: the interpreter's
/// activity sweep counts several steady periods of every buffer from
/// one.
fn tall_geom() -> ImageGeometry {
    ImageGeometry {
        width: 48,
        height: 192,
        pixel_bits: 16,
    }
}

/// Annotates `plan` with the cycle simulator, traces its netlist, and
/// pins every block's reads, writes and peak equal (`tag` names the case
/// in failure messages).
fn crosscheck(tag: &str, mut plan: Plan) {
    let g = plan.design.geometry;
    let input = Image::from_fn(g.width, g.height, |x, y| ((x * 13 + y * 31) % 199) as i64);
    let report =
        simulate_and_annotate(&plan.dag, &mut plan.design, std::slice::from_ref(&input)).unwrap();
    assert!(
        report.port_violations.is_empty(),
        "{tag}: {:?}",
        report.port_violations
    );

    let net = build_netlist(&plan.dag, &plan.design, &BitWidths::default());
    let (_, trace) = interpret_with_trace(&net, std::slice::from_ref(&input)).unwrap();

    let frame = plan.design.geometry.pixels();
    assert_eq!(
        plan.design.buffers.len(),
        trace.buffers.len(),
        "{tag}: trace parallels the design"
    );
    for (bp, ba) in plan.design.buffers.iter().zip(&trace.buffers) {
        assert_eq!(bp.stage, ba.stage);
        assert_eq!(bp.blocks.len(), ba.block_reads.len());
        for (i, blk) in bp.blocks.iter().enumerate() {
            let interp_rate = ba.avg_accesses_per_cycle(i, frame);
            let interp_writes = ba.avg_writes_per_cycle(i, frame);
            assert!(
                (blk.avg_accesses_per_cycle - interp_rate).abs() < 1e-12,
                "{tag} stage {} block {i}: sim {} vs interp {}",
                bp.stage,
                blk.avg_accesses_per_cycle,
                interp_rate
            );
            assert!(
                (blk.avg_writes_per_cycle - interp_writes).abs() < 1e-12,
                "{tag} stage {} block {i}: sim writes {} vs interp {}",
                bp.stage,
                blk.avg_writes_per_cycle,
                interp_writes
            );
            assert_eq!(
                blk.peak_accesses, ba.block_peaks[i],
                "{tag} stage {} block {i}: peak mismatch",
                bp.stage
            );
        }
    }
}

const STYLES: [DesignStyle; 3] = [DesignStyle::Soda, DesignStyle::Ours, DesignStyle::FixyNn];

#[test]
fn interpreter_access_counts_match_simulator_annotations() {
    for alg in [Algorithm::UnsharpM, Algorithm::DenoiseM, Algorithm::CannyM] {
        for style in STYLES {
            let plan = plan_for(&alg.build(), &geom(), style);
            crosscheck(&format!("{} {style:?}", alg.name()), plan);
        }
    }
}

/// The pyramids' strided cadences: reads, writes and peaks of every
/// multirate block, pinned by the cycle simulator alone.
#[test]
fn pyramid_access_counts_match_simulator_annotations() {
    for name in ["gaussian_pyramid", "laplacian_pyramid"] {
        let path = format!("{}/examples/{name}.imagen", env!("CARGO_MANIFEST_DIR"));
        let dag = imagen::dsl::compile(name, &std::fs::read_to_string(&path).unwrap()).unwrap();
        assert!(dag.is_multirate(), "{name}");
        for style in STYLES {
            crosscheck(
                &format!("{name} {style:?}"),
                plan_for(&dag, &pyramid_geom(), style),
            );
        }
    }
}

/// Line-coalesced plans (two rows per block) and a tall frame: the Tbl. 3
/// corpus planned plain and coalesced at 26, 32 and 192 rows. At 192
/// rows the interpreter's activity sweep folds several steady periods of
/// every buffer, and the simulator counts every cycle.
#[test]
fn coalesced_and_tall_access_counts_match_simulator_annotations() {
    for alg in Algorithm::all() {
        let dag = alg.build();
        for g in [geom(), pyramid_geom(), tall_geom()] {
            for coalesce in [false, true] {
                let mut spec = MemorySpec::new(backend(&g), 2);
                if coalesce {
                    spec = spec.with_coalescing();
                }
                let plan = Compiler::new(g, spec).compile_dag(&dag).unwrap().plan;
                if coalesce {
                    assert!(
                        plan.design
                            .buffers
                            .iter()
                            .any(|b| b.layout.rows_per_block() == 2),
                        "{} {g}: two-row blocks",
                        alg.name()
                    );
                }
                crosscheck(&format!("{} {g} coalesce={coalesce}", alg.name()), plan);
            }
        }
    }
}
