//! Reproduces **Sec. 8.2**: compilation speed across the evaluation
//! algorithms, the constraint-pruning ablation (paper: 4× average
//! speedup on multiple-consumer algorithms), and the comparison against
//! Darkroom's linearization compiler (paper: ours 37.4% faster).
//!
//! Every column times a full compile (plan, netlist and Verilog) with
//! [`best_ms`]. The Darkroom column linearizes the DAG inside the timed
//! run and compiles the linearized DAG as a Darkroom design.

use imagen_algos::Algorithm;
use imagen_bench::{asic_backend, best_ms, geom_320, outln};
use imagen_core::{Compiler, Session};
use imagen_ir::linearize;
use imagen_mem::{DesignStyle, MemorySpec};
use imagen_schedule::ScheduleOptions;

fn main() {
    let geom = geom_320();
    let backend = asic_backend();
    outln!("# Sec. 8.2 — Compilation speed @320p\n");
    outln!("| Algorithm | Ours (ms) | no pruning (ms) | pruning speedup | Darkroom (ms) | Ours vs Darkroom |");
    outln!("|---|---|---|---|---|---|");
    let mut ours_all = Vec::new();
    let mut speedups = Vec::new();
    let mut vs_darkroom = Vec::new();
    for alg in Algorithm::all() {
        let dag = alg.build();
        let spec = MemorySpec::new(backend, 2);

        let t_ours = best_ms(|| Compiler::new(geom, spec.clone()).compile_dag(&dag).unwrap());
        let t_nopruning = best_ms(|| {
            Compiler::new(geom, spec.clone())
                .with_options(ScheduleOptions { pruning: false })
                .compile_dag(&dag)
                .unwrap()
        });
        let t_darkroom = best_ms(|| {
            let lin = linearize(&dag).unwrap();
            Session::new(&lin.dag, geom)
                .compile(&spec, Some(DesignStyle::Darkroom))
                .unwrap()
        });

        let speedup = t_nopruning / t_ours;
        let vs_dk = 100.0 * (t_darkroom - t_ours) / t_darkroom;
        ours_all.push(t_ours);
        if alg.expected_multi_consumer() > 0 {
            speedups.push(speedup);
        }
        vs_darkroom.push(vs_dk);
        outln!(
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
    outln!(
        "\nAverage compile time: {:.2} ms (paper: 14.5 ms)",
        avg(&ours_all)
    );
    outln!(
        "Average pruning speedup on -m algorithms: {:.2}x (paper: 4x)",
        avg(&speedups)
    );
    outln!(
        "Average speedup vs Darkroom linearization: {:+.1}% (paper: 37.4%)",
        avg(&vs_darkroom)
    );
}
