//! Reproduces **Sec. 8.2**: compilation speed across the evaluation
//! algorithms, the constraint-pruning ablation (paper: 4× average
//! speedup on multiple-consumer algorithms), and the comparison against
//! Darkroom's linearization compiler (paper: ours 37.4% faster).

use imagen_algos::Algorithm;
use imagen_bench::{asic_backend, geom_320, timing_reps};
use imagen_core::Compiler;
use imagen_ir::linearize;
use imagen_mem::MemorySpec;
use imagen_schedule::{plan_design, ScheduleOptions};
use std::time::Instant;

fn time_ms(mut f: impl FnMut()) -> f64 {
    // Warm up once, then take the best of N (compile times are ms-scale;
    // N is 5, or 1 in IMAGEN_SMOKE mode).
    f();
    let mut best = f64::INFINITY;
    for _ in 0..timing_reps() {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64() * 1e3);
    }
    best
}

fn main() {
    let geom = geom_320();
    let backend = asic_backend();
    println!("# Sec. 8.2 — Compilation speed @320p\n");
    println!("| Algorithm | Ours (ms) | no pruning (ms) | pruning speedup | Darkroom (ms) | Ours vs Darkroom |");
    println!("|---|---|---|---|---|---|");
    let mut ours_all = Vec::new();
    let mut speedups = Vec::new();
    let mut vs_darkroom = Vec::new();
    for alg in Algorithm::all() {
        let dag = alg.build();
        let spec = MemorySpec::new(backend, 2);

        let t_ours = time_ms(|| {
            let _ = Compiler::new(geom, spec.clone()).compile_dag(&dag).unwrap();
        });
        let t_nopruning = time_ms(|| {
            let opts = ScheduleOptions { pruning: false };
            let _ = Compiler::new(geom, spec.clone())
                .with_options(opts)
                .compile_dag(&dag)
                .unwrap();
        });
        let t_darkroom = time_ms(|| {
            let lin = linearize(&dag).unwrap();
            let _ = plan_design(
                &lin.dag,
                &geom,
                &spec,
                ScheduleOptions::default(),
                imagen_mem::DesignStyle::Darkroom,
            )
            .unwrap();
        });

        let speedup = t_nopruning / t_ours;
        let vs_dk = 100.0 * (t_darkroom - t_ours) / t_darkroom;
        ours_all.push(t_ours);
        if alg.expected_multi_consumer() > 0 {
            speedups.push(speedup);
        }
        vs_darkroom.push(vs_dk);
        println!(
            "| {} | {:.2} | {:.2} | {:.2}x | {:.2} | {:+.1}% faster |",
            alg.name(),
            t_ours,
            t_nopruning,
            speedup,
            t_darkroom,
            vs_dk
        );
    }
    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    println!(
        "\nAverage compile time: {:.2} ms (paper: 14.5 ms)",
        avg(&ours_all)
    );
    println!(
        "Average pruning speedup on -m algorithms: {:.2}x (paper: 4x)",
        avg(&speedups)
    );
    println!(
        "Average speedup vs Darkroom linearization: {:+.1}% (paper: 37.4%)",
        avg(&vs_darkroom)
    );
}
