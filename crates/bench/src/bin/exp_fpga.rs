//! Reproduces the **FPGA results of Sec. 8.3/8.4**: BRAM block usage on a
//! 120-block Spartan-7-class device at 1080p (paper: Ours 37.5% of the
//! BRAMs vs Darkroom 41.8%; Ours cuts BRAM size 28.1%/10.2% vs
//! FixyNN/Darkroom and uses 22.8% more than SODA) and FPGA memory power
//! (paper: 19.7%/5.8%/17.7% lower than FixyNN/Darkroom/SODA).

use imagen_algos::Algorithm;
use imagen_bench::{evaluate, geom_1080, outln, reduction_pct, STYLES};
use imagen_mem::{DesignStyle, MemBackend};

const BOARD_BRAMS: usize = 120;

fn main() {
    let geom = geom_1080();
    let backend = MemBackend::Fpga;
    outln!("# Sec. 8.3/8.4 — FPGA backend @1080p (36 Kbit BRAMs, {BOARD_BRAMS}-block board)\n");
    outln!("| Algorithm | style | BRAM blocks | board share | memory power (mW) |");
    outln!("|---|---|---|---|---|");
    let mut per_style: Vec<(DesignStyle, Vec<f64>, Vec<f64>)> = STYLES
        .iter()
        .map(|&s| (s, Vec::new(), Vec::new()))
        .collect();
    for alg in Algorithm::all() {
        for e in evaluate(alg, &geom, backend) {
            outln!(
                "| {} | {} | {} | {:.1}% | {:.2} |",
                alg.name(),
                e.style.label(),
                e.blocks,
                100.0 * e.blocks as f64 / BOARD_BRAMS as f64,
                e.mem_power_mw
            );
            if let Some(slot) = per_style.iter_mut().find(|(s, ..)| *s == e.style) {
                slot.1.push(e.blocks as f64);
                slot.2.push(e.mem_power_mw);
            }
        }
    }
    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let get = |s: DesignStyle| per_style.iter().find(|(st, ..)| *st == s).unwrap();
    let (_, ours_b, ours_p) = get(DesignStyle::Ours);
    let (_, fx_b, fx_p) = get(DesignStyle::FixyNn);
    let (_, dk_b, dk_p) = get(DesignStyle::Darkroom);
    let (_, soda_b, soda_p) = get(DesignStyle::Soda);
    outln!("\n### Averages\n");
    outln!(
        "- BRAM block share: Ours {:.1}% vs Darkroom {:.1}% of the board (paper: 37.5% vs 41.8%)",
        100.0 * avg(ours_b) / BOARD_BRAMS as f64,
        100.0 * avg(dk_b) / BOARD_BRAMS as f64
    );
    outln!(
        "- BRAM usage: Ours vs FixyNN {:+.1}% (paper 28.1%), vs Darkroom {:+.1}% (paper 10.2%), vs SODA {:+.1}% (paper -22.8%, i.e. SODA smaller)",
        reduction_pct(avg(fx_b), avg(ours_b)),
        reduction_pct(avg(dk_b), avg(ours_b)),
        reduction_pct(avg(soda_b), avg(ours_b)),
    );
    outln!(
        "- Memory power: Ours vs FixyNN {:+.1}% (paper 19.7%), vs Darkroom {:+.1}% (paper 5.8%), vs SODA {:+.1}% (paper 17.7%)",
        reduction_pct(avg(fx_p), avg(ours_p)),
        reduction_pct(avg(dk_p), avg(ours_p)),
        reduction_pct(avg(soda_p), avg(ours_p)),
    );
}
