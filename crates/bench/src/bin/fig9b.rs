//! Reproduces **Fig. 9b**: on-chip memory power (mW) at 1080p (no
//! `Ours+LC` column, as in the paper).

use imagen_bench::{
    asic_backend, figure_matrix, geom_1080, outln, print_matrix, print_measured_matrix,
    reduction_pct, STYLES,
};
use imagen_mem::DesignStyle;

fn main() {
    let geom = geom_1080();
    let (algos, _, power, _) = figure_matrix(&geom, asic_backend());
    print_matrix(
        "Fig. 9b — memory power @1080p",
        "mW",
        &algos,
        &power,
        &STYLES,
    );

    // Measured counterpart (imagen-power): schedule-counted memory
    // power on height-reduced frames — the per-block macro
    // configurations and access rates depend only on the frame width,
    // so the 1080p-wide mW figures carry over.
    print_measured_matrix(
        "Fig. 9b (measured) — schedule-counted memory power @1080p",
        &algos,
        &geom,
        asic_backend(),
    );

    let avg = |style: DesignStyle| -> f64 {
        let idx = STYLES.iter().position(|s| *s == style).unwrap();
        let (mut sum, mut n) = (0.0, 0);
        for row in &power {
            if let Some(v) = row[idx] {
                sum += v;
                n += 1;
            }
        }
        sum / n as f64
    };
    outln!("\n### Headline comparisons (paper values in parentheses)\n");
    outln!(
        "- Ours vs FixyNN:   {:+.1}% lower power (paper 7.8%)",
        reduction_pct(avg(DesignStyle::FixyNn), avg(DesignStyle::Ours))
    );
    outln!(
        "- Ours vs Darkroom: {:+.1}% lower power (paper 13.8%)",
        reduction_pct(avg(DesignStyle::Darkroom), avg(DesignStyle::Ours))
    );
    outln!(
        "- Ours vs SODA:     {:+.1}% lower power (paper 56.0%)",
        reduction_pct(avg(DesignStyle::Soda), avg(DesignStyle::Ours))
    );
}
