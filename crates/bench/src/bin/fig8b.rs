//! Reproduces **Fig. 8b**: on-chip memory power (mW) of the five
//! generators on 320p frames, ASIC backend.

use imagen_bench::{
    asic_backend, figure_matrix, geom_320, outln, print_matrix, print_measured_matrix,
    reduction_pct, STYLES,
};
use imagen_mem::DesignStyle;

fn main() {
    let geom = geom_320();
    let (algos, _, power, _) = figure_matrix(&geom, asic_backend());
    print_matrix(
        "Fig. 8b — memory power @320p",
        "mW",
        &algos,
        &power,
        &STYLES,
    );

    // Measured counterpart: the same designs priced from the activity
    // their schedules fix (imagen-power), on height-reduced frames
    // (access rates are height-invariant).
    print_measured_matrix(
        "Fig. 8b (measured) — schedule-counted memory power @320p",
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
    let (fx, dk, soda, ours) = (
        avg(DesignStyle::FixyNn),
        avg(DesignStyle::Darkroom),
        avg(DesignStyle::Soda),
        avg(DesignStyle::Ours),
    );
    outln!("\n### Headline comparisons (paper values in parentheses)\n");
    outln!(
        "- Ours vs FixyNN:   {:+.1}% lower power (paper 7.8%)",
        reduction_pct(fx, ours)
    );
    outln!(
        "- Ours vs Darkroom: {:+.1}% lower power (paper 13.8%)",
        reduction_pct(dk, ours)
    );
    outln!(
        "- Ours vs SODA:     {:+.1}% lower power (paper 56.0%)",
        reduction_pct(soda, ours)
    );
    outln!("\nNote: Ours beats SODA on power despite using more SRAM — SODA's");
    outln!("FIFOs serve two accesses per block every cycle (Sec. 8.4).");
}
