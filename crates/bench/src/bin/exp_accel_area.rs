//! Reproduces the **Sec. 8.3 accelerator-level results**: total area,
//! the memory share of it (paper: 79.8% @320p, 92.7% @1080p on average),
//! and total-area savings of Ours+LC over FixyNN/Darkroom.

use imagen_algos::Algorithm;
use imagen_bench::{asic_backend, evaluate, geom_1080, geom_320, outln, reduction_pct};
use imagen_mem::DesignStyle;

fn main() {
    for (geom, label) in [(geom_320(), "320p"), (geom_1080(), "1080p")] {
        outln!("\n# Sec. 8.3 — Accelerator area @{label}\n");
        outln!("| Algorithm | style | total mm² | memory mm² | memory share |");
        outln!("|---|---|---|---|---|");
        let mut shares = Vec::new();
        let mut totals = Vec::new();
        let mut per_style: Vec<(DesignStyle, Vec<f64>)> = Vec::new();
        for alg in Algorithm::all() {
            for e in evaluate(alg, &geom, asic_backend()) {
                let d = &e.plan.design;
                let share = d.memory_area_fraction();
                if e.style == DesignStyle::Ours {
                    shares.push(share);
                    totals.push(d.total_area_mm2());
                }
                match per_style.iter_mut().find(|(s, _)| *s == e.style) {
                    Some((_, v)) => v.push(d.total_area_mm2()),
                    None => per_style.push((e.style, vec![d.total_area_mm2()])),
                }
                outln!(
                    "| {} | {} | {:.3} | {:.3} | {:.1}% |",
                    alg.name(),
                    e.style.label(),
                    d.total_area_mm2(),
                    d.memory_area_mm2(),
                    100.0 * share
                );
            }
        }
        let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        outln!(
            "\nAverage memory share of total area (Ours): {:.1}% (paper: {} on average)",
            100.0 * avg(&shares),
            if geom.width == 480 { "79.8%" } else { "92.7%" }
        );
        outln!(
            "Average total area (Ours): {:.2} mm² (paper: {} mm² average)",
            avg(&totals),
            if geom.width == 480 { "0.65" } else { "1.84" }
        );
        let style_avg = |s: DesignStyle| {
            per_style
                .iter()
                .find(|(st, _)| *st == s)
                .map(|(_, v)| avg(v))
        };
        let best = style_avg(DesignStyle::OursLc).or(style_avg(DesignStyle::Ours));
        if let (Some(best), Some(fx), Some(dk)) = (
            best,
            style_avg(DesignStyle::FixyNn),
            style_avg(DesignStyle::Darkroom),
        ) {
            outln!(
                "Total-area saving of Ours{} vs FixyNN: {:+.1}% (paper: {}), vs Darkroom: {:+.1}% (paper: {})",
                if geom.width == 480 { "+LC" } else { "" },
                reduction_pct(fx, best),
                if geom.width == 480 { "51.2%" } else { "27.9%" },
                reduction_pct(dk, best),
                if geom.width == 480 { "41.9%" } else { "12.9%" },
            );
        }
    }
}
