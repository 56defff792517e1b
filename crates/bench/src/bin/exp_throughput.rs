//! Reproduces **Sec. 8.1**: steady-state throughput (one pixel per cycle,
//! verified by cycle-level simulation with port/residency checking) and
//! end-to-end latency of Ours vs. Darkroom and SODA (paper: +0.01%
//! average latency at no memory/power cost).

use imagen_algos::Algorithm;
use imagen_bench::{asic_backend, generate, geom_320, outln, test_frame};
use imagen_mem::DesignStyle;
use imagen_sim::simulate;

fn main() {
    let geom = geom_320();
    outln!("# Sec. 8.1 — Throughput and latency @320p\n");
    outln!("| Algorithm | px/cycle | clean sim | latency Ours | vs Darkroom | vs SODA |");
    outln!("|---|---|---|---|---|---|");
    let mut rel_dk = Vec::new();
    let mut rel_soda = Vec::new();
    for alg in Algorithm::all() {
        let ours = generate(alg, DesignStyle::Ours, &geom, asic_backend());
        let dk = generate(alg, DesignStyle::Darkroom, &geom, asic_backend());
        let soda = generate(alg, DesignStyle::Soda, &geom, asic_backend());

        let input = test_frame(&geom, 42);
        let report = simulate(&ours.dag, &ours.design, &[input]).expect("sim");
        assert!(
            report.is_clean(),
            "{}: port={:?} res={:?} functional={}",
            alg.name(),
            report.port_violations,
            report.residency_violations,
            report.outputs_match_golden
        );

        let l_ours = ours.schedule.latency(&ours.dag, geom.width, geom.height);
        let l_dk = dk.schedule.latency(&dk.dag, geom.width, geom.height);
        let l_soda = soda.schedule.latency(&soda.dag, geom.width, geom.height);
        let d_dk = 100.0 * (l_ours - l_dk) as f64 / l_dk as f64;
        let d_soda = 100.0 * (l_ours - l_soda) as f64 / l_soda as f64;
        rel_dk.push(d_dk);
        rel_soda.push(d_soda);
        outln!(
            "| {} | {:.3} | {} | {} | {:+.3}% | {:+.3}% |",
            alg.name(),
            report.throughput_px_per_cycle,
            report.is_clean(),
            l_ours,
            d_dk,
            d_soda
        );
    }
    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    outln!(
        "\nAverage latency increase: vs Darkroom {:+.3}%, vs SODA {:+.3}% (paper: +0.01%)",
        avg(&rel_dk),
        avg(&rel_soda)
    );
    outln!("\nEvery design sustains exactly one pixel per cycle in steady state —");
    outln!("the simulator found no port conflicts or residency violations, so the");
    outln!("pipeline never stalls (requirements R1–R3 of Sec. 5.1).");
}
