//! **Netlist executor timing** — the compiled evaluation program, per
//! example pipeline.
//!
//! `imagen_rtl::interpret` lowers each netlist once into a flat
//! evaluation program (`crates/rtl/src/program.rs`), the one netlist
//! executor, and streams frames through it. This binary times that
//! program on all 10 example programs (`examples/*.imagen`: the seven
//! Tbl. 3 pipelines, Sobel and both multirate pyramids) at the
//! acceptance geometry (120×80 @ 16 bpp; smoke mode shrinks it for CI):
//! an untraced run, the frame-free `ScheduleActivity` derivation that
//! every activity trace comes from (`interpret_with_trace` adds it to a
//! run, and DSE prices from it), the same derivation at eight times the
//! frame height (its block sweep counts one steady period of each line
//! buffer for all of them, so it should cost about the same; the summary
//! line gives the geomean ratio), and the one-time program compile.
//! Every pipeline, the pyramids included, runs the one vectorized tile
//! loop, each stage on its own grid. The program is pinned
//! bit-identical to a per-cycle reference walker by
//! `crates/rtl/tests/program_differential.rs`; this binary reports only
//! the wall-clock side.
//!
//! EXPERIMENTS.md ("Netlist interpreter") records representative
//! numbers; machine noise of tens of percent run-to-run is normal.

use imagen_algos::noise_bits;
use imagen_bench::{best_ms, outln, smoke_mode, timing_reps};
use imagen_core::Compiler;
use imagen_mem::{ImageGeometry, MemBackend, MemorySpec};
use imagen_rtl::{describe, EvalProgram, ScheduleActivity};
use imagen_sim::Image;
use std::path::Path;

/// The example programs, `(name, source)`, sorted by file name.
fn examples() -> Vec<(String, String)> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "imagen"))
        .collect();
    files.sort();
    files
        .iter()
        .map(|p| {
            let name = p.file_stem().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read_to_string(p).unwrap())
        })
        .collect()
}

fn main() {
    // Both extents divisible by the pyramids' 2×2 cumulative scale.
    let geom = if smoke_mode() {
        ImageGeometry {
            width: 48,
            height: 32,
            pixel_bits: 16,
        }
    } else {
        ImageGeometry {
            width: 120,
            height: 80,
            pixel_bits: 16,
        }
    };
    let tall = ImageGeometry {
        height: 8 * geom.height,
        ..geom
    };
    outln!("# Netlist executor timing (compiled evaluation program)");
    outln!(
        "geometry {geom} (tall: {tall}), best of {} reps, ms\n",
        timing_reps()
    );
    outln!(
        "{:<18} {:>9} {:>9} {:>12} {:>9}",
        "pipeline",
        "untraced",
        "schedule",
        "schedule 8xH",
        "compile"
    );

    let spec = MemorySpec::new(MemBackend::asic_default(), 2);
    let mut tall_ratios: Vec<f64> = Vec::new();
    for (name, src) in examples() {
        let compile_at = |g: ImageGeometry| {
            Compiler::new(g, spec.clone())
                .compile_source(&name, &src)
                .unwrap_or_else(|e| panic!("{name} at {g}: {e}"))
        };
        let net = compile_at(geom).netlist;
        let inputs: Vec<Image> = (0..net.structure.input_streams().len())
            .map(|k| {
                let seed = 0x1234 + k as u64;
                Image::from_fn(geom.width, geom.height, move |x, y| {
                    noise_bits(seed, x, y, 4)
                })
            })
            .collect();
        let prog = EvalProgram::compile(&net).unwrap();

        let untraced = best_ms(|| prog.run(&inputs).unwrap());
        let schedule = best_ms(|| {
            ScheduleActivity::derive(&net.structure, None, None)
                .unwrap()
                .trace()
        });
        let tall_plan = compile_at(tall).plan;
        let tall_structure = describe(&tall_plan.dag, &tall_plan.design);
        let schedule_tall = best_ms(|| {
            ScheduleActivity::derive(&tall_structure, None, None)
                .unwrap()
                .trace()
        });
        let compile = best_ms(|| EvalProgram::compile(&net).unwrap());

        tall_ratios.push(schedule_tall / schedule);
        outln!("{name:<18} {untraced:>9.3} {schedule:>9.3} {schedule_tall:>12.3} {compile:>9.4}");
    }

    let geomean =
        (tall_ratios.iter().map(|r| r.ln()).sum::<f64>() / tall_ratios.len() as f64).exp();
    outln!(
        "\nprogram timing geomean: schedule 8xH/schedule {geomean:.2}x over {} pipelines",
        tall_ratios.len()
    );
}
