//! Reproduces the **Sec. 8.4 power analysis**: per-block access rates per
//! design style. SODA's FIFOs pin every block at 2 accesses/cycle while
//! the classic designs keep most blocks at ~1 — the mechanism behind the
//! paper's "35% more power for two-access BRAMs" measurement — verified
//! here with exact counts from the cycle-level simulator **and**
//! cross-checked against the activity trace counted from the schedule
//! (`imagen-rtl`'s `ScheduleActivity` vs `imagen-sim`'s annotations).

use imagen_algos::Algorithm;
use imagen_bench::{asic_backend, generate, outln, smoke_mode, test_frame};
use imagen_mem::{BramModel, DesignStyle, ImageGeometry};
use imagen_rtl::{describe, ScheduleActivity};
use imagen_sim::simulate_and_annotate;

fn main() {
    // Scale height down for simulation speed; access *rates* are
    // height-invariant (the raster pattern repeats row by row). Smoke
    // mode shrinks the frame further for CI.
    let geom = if smoke_mode() {
        ImageGeometry {
            width: 96,
            height: 16,
            pixel_bits: 16,
        }
    } else {
        ImageGeometry {
            width: 480,
            height: 64,
            pixel_bits: 16,
        }
    };
    outln!(
        "# Sec. 8.4 — access-rate breakdown (simulated, {}-wide frames)\n",
        geom.width
    );
    outln!("| Algorithm | style | blocks | avg accesses/block/cycle | schedule-counted | max block rate |");
    outln!("|---|---|---|---|---|---|");
    for alg in [Algorithm::UnsharpM, Algorithm::DenoiseM, Algorithm::CannyM] {
        for style in [DesignStyle::Soda, DesignStyle::Ours, DesignStyle::FixyNn] {
            let mut plan = generate(alg, style, &geom, asic_backend());
            let input = test_frame(&geom, 7);
            let report =
                simulate_and_annotate(&plan.dag, &mut plan.design, &[input]).expect("simulation");
            assert!(
                report.port_violations.is_empty(),
                "{} {}: {:?}",
                alg.name(),
                style.label(),
                report.port_violations
            );
            let rates: Vec<f64> = plan
                .design
                .buffers
                .iter()
                .flat_map(|b| &b.blocks)
                .map(|blk| blk.avg_accesses_per_cycle)
                .collect();
            let avg = rates.iter().sum::<f64>() / rates.len().max(1) as f64;
            let max = rates.iter().cloned().fold(0.0, f64::max);

            // The independent counting path: the activity the schedule
            // fixes must agree with the simulator's annotations block
            // for block (also pinned by tests/activity_crosscheck).
            let trace = ScheduleActivity::derive(&describe(&plan.dag, &plan.design), None, None)
                .expect("the planner emits streamable designs")
                .trace();
            let frame = plan.design.geometry.pixels();
            let mut counted_rates = Vec::new();
            for (bp, ba) in plan.design.buffers.iter().zip(&trace.buffers) {
                for blk in 0..bp.blocks.len() {
                    counted_rates.push(ba.avg_accesses_per_cycle(blk, frame));
                }
            }
            let cavg = counted_rates.iter().sum::<f64>() / counted_rates.len().max(1) as f64;
            for (a, b) in rates.iter().zip(&counted_rates) {
                assert!(
                    (a - b).abs() < 1e-9,
                    "{} {}: sim {a} vs schedule {b}",
                    alg.name(),
                    style.label()
                );
            }
            outln!(
                "| {} | {} | {} | {:.2} | {:.2} | {:.2} |",
                alg.name(),
                style.label(),
                rates.len(),
                avg,
                cavg,
                max
            );
        }
    }
    outln!(
        "\nBRAM power model check: two accesses/cycle costs {:.1}% more than one",
        100.0 * (BramModel::power_mw(2.0) / BramModel::power_mw(1.0) - 1.0)
    );
    outln!("(paper's FPGA measurement: ~35%).");
}
