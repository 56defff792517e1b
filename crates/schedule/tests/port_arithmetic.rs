//! The port-check arithmetic against the row scanner on the buffers the
//! planner builds, and the minimality of the rotations it plans, checked
//! from outside the planner with the scanner alone.

use imagen_ir::{Dag, StageId};
use imagen_mem::{DesignStyle, ImageGeometry, MemBackend, MemorySpec};
use imagen_schedule::checker::check_accesses;
use imagen_schedule::{
    buffer_check, formulate_skeleton, plan_design, plan_design_with, PortCheckMemo, ScheduleOptions,
};
use std::path::Path;

/// The 10 example programs, by name.
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

/// 16 synthetic DAGs of 15–60 stages, drawn as the benchmark's pool draws
/// them (`synthetic_pipeline(stages, stages << 32 | index)`).
fn synthetic() -> Vec<(String, Dag)> {
    (0..16u64)
        .map(|i| {
            let stages = 15 + 3 * i;
            let seed = stages << 32 | (i * 7 % 32);
            (
                format!("synthetic_pipeline({stages}, {seed})"),
                imagen_algos::synthetic_pipeline(stages as usize, seed),
            )
        })
        .collect()
}

fn geom(width: u32, height: u32) -> ImageGeometry {
    ImageGeometry {
        width,
        height,
        pixel_bits: 16,
    }
}

/// A dual-port spec on `backend`, coalesced or not, with its style.
fn spec(backend: MemBackend, coalesce: bool) -> (MemorySpec, DesignStyle) {
    let spec = MemorySpec::new(backend, 2);
    if coalesce {
        (spec.with_coalescing(), DesignStyle::OursLc)
    } else {
        (spec, DesignStyle::Ours)
    }
}

/// Every buffer check the planner builds for the corpus and the synthetic
/// DAGs — at 64×48, 352×240 and 640×480, plain and coalesced — gets the
/// scanner's verdict from the arithmetic, and that verdict is the planned
/// buffer's rotation. The rate-1 corpus at 352×240 and 640×480 never
/// needs the scanner; the multirate pyramids always do.
#[test]
fn arithmetic_agrees_with_the_scanner_on_planned_buffers() {
    let dags: Vec<(String, Dag)> = corpus().into_iter().chain(synthetic()).collect();
    let mut buffers = 0;
    for (width, height) in [(64, 48), (352, 240), (640, 480)] {
        let geom = geom(width, height);
        for (name, dag) in &dags {
            let skeleton = formulate_skeleton(dag, geom.width);
            for coalesce in [false, true] {
                let (spec, style) = spec(MemBackend::asic_default(), coalesce);
                let memo = PortCheckMemo::new();
                let plan = plan_design_with(
                    dag,
                    &skeleton,
                    &geom,
                    &spec,
                    ScheduleOptions::default(),
                    style,
                    &memo,
                )
                .unwrap_or_else(|e| panic!("{name} at {geom}, coalesce {coalesce}: {e}"));
                let scales = plan.dag.stage_scales();
                for b in &plan.design.buffers {
                    let p = StageId::from_index(b.stage);
                    let check = buffer_check(&plan.dag, p, &scales, &plan.schedule, &geom, &spec);
                    let verdict = check.verdict();
                    assert_eq!(
                        verdict.phys_rows,
                        check.scan(),
                        "{name} at {geom}, coalesce {coalesce}, buffer {}",
                        b.stage
                    );
                    assert_eq!(verdict.phys_rows, Ok(b.layout.phys_rows()));
                    buffers += 1;
                }
                if !name.starts_with("synthetic") && width >= 352 {
                    if scales.iter().all(|&s| s == (1, 1)) {
                        assert_eq!(memo.scans(), 0, "{name} at {geom}, coalesce {coalesce}");
                    } else {
                        assert!(memo.scans() > 0, "{name}: multirate buffers scan");
                    }
                }
            }
        }
    }
    assert!(buffers > 1000, "{buffers} buffers checked");
}

/// The corpus's planned rotations are minimal, by the scanner alone: at
/// 64×48 and 352×240, plain and coalesced, on ASIC macros and FPGA BRAM,
/// every buffer passes both checks at its physical rows, and wherever
/// one block fewer was still a candidate (at least the logical rows
/// rounded up to whole blocks) it fails the physical check there.
#[test]
fn planned_rotations_are_minimal() {
    let mut tight = 0;
    for (width, height) in [(64, 48), (352, 240)] {
        let geom = geom(width, height);
        for (name, dag) in corpus() {
            for backend in [MemBackend::asic_default(), MemBackend::Fpga] {
                for coalesce in [false, true] {
                    let (spec, style) = spec(backend, coalesce);
                    let plan = plan_design(&dag, &geom, &spec, ScheduleOptions::default(), style)
                        .unwrap_or_else(|e| panic!("{name} at {geom} on {backend:?}: {e}"));
                    let scales = plan.dag.stage_scales();
                    for b in &plan.design.buffers {
                        let p = StageId::from_index(b.stage);
                        let check =
                            buffer_check(&plan.dag, p, &scales, &plan.schedule, &geom, &spec);
                        let scan = |phys_rows: Option<u32>| {
                            let layout = phys_rows.map(|rows| b.layout.with_phys_rows(rows));
                            check_accesses(
                                width,
                                height,
                                geom.pixel_bits,
                                &check.streams,
                                check.ports,
                                layout.as_ref(),
                            )
                        };
                        let what = format!(
                            "{name} at {geom} on {backend:?}, coalesce {coalesce}, buffer {}",
                            b.stage
                        );
                        assert_eq!(scan(None), Ok(()), "{what}: absolute rows");
                        let phys_rows = b.layout.phys_rows();
                        assert_eq!(scan(Some(phys_rows)), Ok(()), "{what}: {phys_rows} rows");
                        let g = b.layout.rows_per_block();
                        if phys_rows >= b.logical_rows.div_ceil(g) * g + g {
                            tight += 1;
                            assert!(
                                scan(Some(phys_rows - g)).is_err(),
                                "{what}: {} rows would do",
                                phys_rows - g
                            );
                        }
                    }
                }
            }
        }
    }
    assert!(
        tight > 0,
        "some buffer needs slack, so minimality is tested"
    );
}
