//! Reproduces **Fig. 10**: algorithm-specific power-vs-area trade-offs
//! from the per-stage DP/DPLC design-space exploration at 320p (Sec. 8.5).
//!
//! The paper's observations to reproduce:
//! * Canny-m has *three* Pareto-optimal designs (all-DP, then 1–2 stages
//!   on DPLC) and the all-DPLC point (`P4`) is strictly dominated;
//! * Denoise-m has *two* Pareto-optimal designs (all-DP and all-DPLC).

use imagen_algos::Algorithm;
use imagen_bench::{asic_backend, geom_320, outln};
use imagen_dse::sweep;

fn main() {
    let geom = geom_320();
    for alg in [Algorithm::CannyM, Algorithm::DenoiseM] {
        let dag = alg.build();
        let res = sweep(&dag, &geom, asic_backend()).expect("sweep");
        let front = res.pareto_front();
        outln!(
            "\n## Fig. 10 — {} DSE ({} design points)\n",
            alg.name(),
            res.points.len()
        );
        outln!("| Design | DPLC stages | Area (mm²) | Power (mW) | Pareto |");
        outln!("|---|---|---|---|---|");
        let all_dp = 0usize;
        let all_dplc = res.points.len() - 1;
        // Many configurations tie at identical (area, power); show one
        // representative per distinct frontier value (the paper's P1/P2/…)
        // plus the all-DP / all-DPLC anchors.
        let key = |i: usize| {
            let p = &res.points[i];
            (
                (p.area_mm2 * 1e6).round() as i64,
                (p.power_mw * 1e3).round() as i64,
            )
        };
        let mut distinct: Vec<usize> = Vec::new();
        for &i in &front {
            if !distinct.iter().any(|&j| key(j) == key(i)) {
                distinct.push(i);
            }
        }
        let mut shown = distinct.clone();
        for p in [all_dp, all_dplc] {
            if !shown.contains(&p) {
                shown.push(p);
            }
        }
        shown.sort_unstable();
        for &i in &shown {
            let p = &res.points[i];
            let tag = if i == all_dp {
                " (all-DP)"
            } else if i == all_dplc {
                " (all-DPLC)"
            } else {
                ""
            };
            outln!(
                "| p{}{} | {} | {:.3} | {:.2} | {} |",
                i,
                tag,
                p.dplc_count(),
                p.area_mm2,
                p.power_mw,
                if front.contains(&i) { "yes" } else { "no" }
            );
        }
        outln!(
            "\nPareto frontier: {} distinct (area, power) value(s) over {} frontier configuration(s)",
            distinct.len(),
            front.len(),
        );
        if alg == Algorithm::CannyM {
            let dominated = !front.contains(&all_dplc);
            outln!(
                "All-DPLC dominated: {} (paper: yes — Fig. 10a's P4)",
                dominated
            );
        } else {
            outln!(
                "All-DPLC on frontier: {} (paper: yes — Fig. 10b's P2)",
                front.contains(&all_dplc)
            );
        }
    }
}
