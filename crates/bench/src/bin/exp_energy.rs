//! **Analytic vs measured power** — the `imagen-power` subsystem's
//! headline experiment.
//!
//! Every power figure in the paper reproduction (fig8b, fig9b,
//! `exp_power_breakdown`) prices designs with the *analytic* model in
//! `imagen_mem::tech` — scheduled access rates times calibrated pJ
//! constants. This binary instead counts each generated design's events
//! from its schedule (per-bank SRAM accesses, idle read-port cycles,
//! register loads) and prices them with the same constants, per pipeline
//! and design style, ungated and clock-gated (`imagen_power::gating_plan`,
//! the plan `gate_clocks` attaches), refusing any gate that misses part of
//! a consumer's enable window. It reports the measured saving with the
//! gated-off read-port cycle count, so the saving is measured, not
//! asserted.
//!
//! Designs are planned on height-reduced frames (rates are
//! height-invariant, the `exp_power_breakdown` argument); the frame feeds
//! only the cycle simulator, which annotates the analytic column's rates.
//! Smoke mode shrinks further for CI.

use imagen_algos::Algorithm;
use imagen_bench::{asic_backend, lc_available, measure_point, outln, smoke_mode, STYLES};
use imagen_mem::{DesignStyle, ImageGeometry};

fn main() {
    let geom = if smoke_mode() {
        ImageGeometry {
            width: 96,
            height: 24,
            pixel_bits: 16,
        }
    } else {
        ImageGeometry {
            width: 480,
            height: 64,
            pixel_bits: 16,
        }
    };
    let backend = asic_backend();
    let algos: Vec<Algorithm> = if smoke_mode() {
        vec![Algorithm::UnsharpM, Algorithm::DenoiseM, Algorithm::CannyM]
    } else {
        Algorithm::all().to_vec()
    };

    outln!(
        "# exp_energy — analytic vs measured power (schedule activity), {}x{} frames\n",
        geom.width,
        geom.height
    );
    outln!("Measured columns count each design's events from its schedule");
    outln!("(per-bank reads/writes, enable duty) and price them with the same pJ");
    outln!("constants the analytic model uses. `gated` is the same design after");
    outln!("the clock-gating pass; `gated-off` is the schedule-counted number of");
    outln!("suppressed read-port cycles.\n");
    outln!("| Algorithm | style | analytic mW | measured mW | ratio | gated mW | saving % | gated-off cycles |");
    outln!("|---|---|---|---|---|---|---|---|");

    let mut ratios: Vec<f64> = Vec::new();
    let mut m_savings: Vec<f64> = Vec::new();
    for &alg in &algos {
        for style in STYLES {
            if style == DesignStyle::OursLc && !lc_available(&geom, backend) {
                continue;
            }
            let p = measure_point(alg, style, &geom, backend);
            let ratio = p.measured_total_mw / p.analytic_total_mw;
            ratios.push(ratio);
            if alg.name().ends_with("-m") {
                m_savings.push(p.gating_saving_pct());
            }
            outln!(
                "| {} | {} | {:.2} | {:.2} | {:.2} | {:.2} | {:.1} | {} |",
                alg.name(),
                style.label(),
                p.analytic_total_mw,
                p.measured_total_mw,
                ratio,
                p.gated_total_mw,
                p.gating_saving_pct(),
                p.gated_off_cycles,
            );
        }
    }

    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let (lo, hi) = ratios
        .iter()
        .fold((f64::INFINITY, 0.0_f64), |(lo, hi), &r| {
            (lo.min(r), hi.max(r))
        });
    outln!("\n### Summary\n");
    outln!(
        "- measured/analytic ratio: avg {:.2}, range [{:.2}, {:.2}] — the two",
        avg(&ratios),
        lo,
        hi
    );
    outln!("  models share pJ constants and differ only in activity basis");
    outln!("  (per-block events counted from the schedule vs per-cycle rates).");
    outln!(
        "- clock-gating saving on the `-m` pipelines: avg {:.1}% of measured power",
        avg(&m_savings)
    );
    outln!("  (FIFO buffers — SODA — are dataflow-clocked and stay ungated).");
}
