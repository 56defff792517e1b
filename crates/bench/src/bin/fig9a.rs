//! Reproduces **Fig. 9a**: on-chip SRAM size (KB) at 1080p. Line
//! coalescing does not apply — a 1080p row fills the whole block (Sec. 7)
//! — so the `Ours+LC` column is absent, as in the paper.

use imagen_bench::{
    asic_backend, figure_matrix, geom_1080, geom_320, lc_available, outln, print_matrix,
    reduction_pct, STYLES,
};
use imagen_mem::DesignStyle;

fn main() {
    let geom = geom_1080();
    assert!(
        !lc_available(&geom, asic_backend()),
        "paper setup: no coalescing at 1080p"
    );
    let (algos, sram, _, _) = figure_matrix(&geom, asic_backend());
    print_matrix("Fig. 9a — SRAM size @1080p", "KB", &algos, &sram, &STYLES);

    let avg = |style: DesignStyle| -> f64 {
        let idx = STYLES.iter().position(|s| *s == style).unwrap();
        let (mut sum, mut n) = (0.0, 0);
        for row in &sram {
            if let Some(v) = row[idx] {
                sum += v;
                n += 1;
            }
        }
        sum / n as f64
    };
    outln!("\n### Headline comparisons (paper values in parentheses)\n");
    outln!(
        "- Ours vs FixyNN:   {:+.1}% reduction (paper ~28%)",
        reduction_pct(avg(DesignStyle::FixyNn), avg(DesignStyle::Ours))
    );
    outln!(
        "- Ours vs Darkroom: {:+.1}% reduction (paper ~10%)",
        reduction_pct(avg(DesignStyle::Darkroom), avg(DesignStyle::Ours))
    );

    // Resolution scaling: pixels actually stored (the allocated-block
    // metric above is block-count-driven and resolution-invariant; the
    // paper's OpenRAM-sized arrays grow with the row width, which this
    // column shows).
    let (_, _, _, points) = figure_matrix(&geom_320(), asic_backend());
    let used = |pts: &Vec<imagen_bench::EvalPoint>, style: DesignStyle| {
        pts.iter()
            .find(|e| e.style == style)
            .map(|e| e.plan.design.used_kb())
            .unwrap_or(0.0)
    };
    let (_, _, _, points_1080) = figure_matrix(&geom, asic_backend());
    let sum320: f64 = points.iter().map(|p| used(p, DesignStyle::Ours)).sum();
    let sum1080: f64 = points_1080.iter().map(|p| used(p, DesignStyle::Ours)).sum();
    outln!(
        "- Stored pixel bits (Ours, all algos): {:.1} KB @320p vs {:.1} KB @1080p ({:.1}x — rows are 4x wider)",
        sum320,
        sum1080,
        sum1080 / sum320
    );
}
