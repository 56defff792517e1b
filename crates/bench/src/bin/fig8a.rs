//! Reproduces **Fig. 8a**: on-chip SRAM size (KB) of the five generators
//! on 320p frames, per algorithm plus the average, on the ASIC backend.

use imagen_bench::{
    asic_backend, figure_matrix, geom_320, outln, print_matrix, reduction_pct, STYLES,
};
use imagen_mem::DesignStyle;

fn main() {
    let geom = geom_320();
    let (algos, sram, _, _) = figure_matrix(&geom, asic_backend());
    print_matrix("Fig. 8a — SRAM size @320p", "KB", &algos, &sram, &STYLES);

    // Headline reductions (paper: Ours vs FixyNN 28.0%, vs Darkroom 10.2%;
    // Ours+LC vs FixyNN 86.0%, vs Darkroom 56.8%; Ours is ~31% above SODA
    // and Ours+LC ~28.5% below SODA).
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
    let (fx, dk, soda, ours, lc) = (
        avg(DesignStyle::FixyNn),
        avg(DesignStyle::Darkroom),
        avg(DesignStyle::Soda),
        avg(DesignStyle::Ours),
        avg(DesignStyle::OursLc),
    );
    outln!("\n### Headline comparisons (paper values in parentheses)\n");
    outln!(
        "- Ours vs FixyNN:    {:+.1}% reduction (paper 28.0%)",
        reduction_pct(fx, ours)
    );
    outln!(
        "- Ours vs Darkroom:  {:+.1}% reduction (paper 10.2%)",
        reduction_pct(dk, ours)
    );
    outln!(
        "- Ours vs SODA:      {:+.1}% larger (paper +31.0%)",
        100.0 * (ours - soda) / soda
    );
    outln!(
        "- Ours+LC vs FixyNN: {:+.1}% reduction (paper 86.0%)",
        reduction_pct(fx, lc)
    );
    outln!(
        "- Ours+LC vs Darkroom: {:+.1}% reduction (paper 56.8%)",
        reduction_pct(dk, lc)
    );
    outln!(
        "- Ours+LC vs SODA:   {:+.1}% reduction (paper 28.5%)",
        reduction_pct(soda, lc)
    );
}
