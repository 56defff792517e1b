//! Pins the schedules the solver returns and the energies measured from
//! them, as one table (`tests/golden/solver_pins.txt`):
//!
//! * `(objective, starts)` of every plan of the 10 examples and of 16
//!   synthetic DAGs of 9–60 stages, at 64×48 and 352×240, plain and
//!   coalesced (a planning error pins its text);
//! * the `MeasuredEnergy` bits of every point of the exhaustive measured
//!   sweeps of `canny_s`, `harris_m` and `laplacian_pyramid` at 48×40.
//!
//! A change to the solver or to the activity measurement must leave the
//! table as it is. Rerun with `IMAGEN_BLESS=1` only when a change means
//! to move it, and say why.

use imagen::algos::synthetic_pipeline;
use imagen::dse::{explore, ExploreOptions, ExploreStrategy, MeasureMode};
use imagen::schedule::{plan_design, ScheduleOptions};
use imagen::{DesignStyle, ImageGeometry, MemBackend, MemorySpec};
use imagen_ir::Dag;
use std::fmt::Write;
use std::path::Path;

const EXAMPLES: [&str; 10] = [
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

fn example(name: &str) -> Dag {
    let path = format!("{}/examples/{name}.imagen", env!("CARGO_MANIFEST_DIR"));
    imagen::dsl::compile(name, &std::fs::read_to_string(path).unwrap()).unwrap()
}

/// 16 synthetic DAGs, 9 to 60 stages.
fn synthetic() -> Vec<Dag> {
    (0..16u64)
        .map(|i| {
            let stages = 9 + 51 * i / 15;
            synthetic_pipeline(stages as usize, stages << 32 | i)
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

/// One line per plan: the objective and the starts, or the error.
fn plan_lines(out: &mut String) {
    let dags: Vec<(String, Dag)> = EXAMPLES
        .iter()
        .map(|&name| (name.to_string(), example(name)))
        .chain(synthetic().into_iter().map(|d| (d.name().to_string(), d)))
        .collect();
    for (width, height) in [(64, 48), (352, 240)] {
        let geom = geom(width, height);
        for (name, dag) in &dags {
            for (label, style) in [
                ("plain", DesignStyle::Ours),
                ("coalesced", DesignStyle::OursLc),
            ] {
                let mut spec = MemorySpec::new(MemBackend::asic_default(), 2);
                if style == DesignStyle::OursLc {
                    spec = spec.with_coalescing();
                }
                write!(out, "plan {name} {geom} {label}: ").unwrap();
                match plan_design(dag, &geom, &spec, ScheduleOptions::default(), style) {
                    Ok(plan) => writeln!(
                        out,
                        "objective {} starts {:?}",
                        plan.schedule.report.objective, plan.schedule.starts
                    ),
                    Err(e) => writeln!(out, "error {e}"),
                }
                .unwrap();
            }
        }
    }
}

/// One line per swept point: its choices and its measured energy's bits.
fn sweep_lines(out: &mut String) {
    let geom = geom(48, 40);
    for name in ["canny_s", "harris_m", "laplacian_pyramid"] {
        let res = explore(
            &example(name),
            &geom,
            MemBackend::asic_default(),
            ExploreOptions {
                strategy: ExploreStrategy::Exhaustive,
                threads: 1,
                measure: MeasureMode::Schedule,
            },
        )
        .unwrap();
        for (i, p) in res.points.iter().enumerate() {
            let m = p.measured.expect("measured sweep");
            let choices: Vec<&str> = p.choices.iter().map(|c| c.label()).collect();
            writeln!(
                out,
                "sweep {name} {geom} point {i} {}: energy {:016x} power {:016x} gated {:016x} gated_off {}",
                choices.join(","),
                m.energy_pj_per_frame.to_bits(),
                m.power_mw.to_bits(),
                m.gated_power_mw.to_bits(),
                m.gated_off_cycles
            )
            .unwrap();
        }
    }
}

#[test]
fn schedules_and_measured_energies_match_the_pins() {
    let mut got = String::new();
    plan_lines(&mut got);
    sweep_lines(&mut got);
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/solver_pins.txt");
    if std::env::var("IMAGEN_BLESS").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &got).unwrap();
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{} (IMAGEN_BLESS=1 to create): {e}", path.display()));
    for (k, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "{} line {} moved", path.display(), k + 1);
    }
    assert_eq!(
        got.lines().count(),
        want.lines().count(),
        "{} changed length",
        path.display()
    );
}
