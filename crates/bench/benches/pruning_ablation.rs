//! Ablation bench for Sec. 5.4 constraint pruning: compile time with and
//! without pruning on multiple-consumer algorithms (the paper reports a
//! 4× average speedup; Denoise-m explodes combinatorially without it, so
//! it is benchmarked only with pruning plus a one-shot unpruned probe).

use criterion::{criterion_group, criterion_main, Criterion};
use imagen_algos::Algorithm;
use imagen_core::Compiler;
use imagen_mem::{ImageGeometry, MemBackend, MemorySpec};
use imagen_schedule::ScheduleOptions;

fn bench_pruning(c: &mut Criterion) {
    let geom = ImageGeometry::p320();
    let spec = MemorySpec::new(MemBackend::asic_default(), 2);
    let mut group = c.benchmark_group("pruning_ablation");
    group.sample_size(20);
    for alg in [Algorithm::CannyM, Algorithm::HarrisM, Algorithm::UnsharpM] {
        let dag = alg.build();
        group.bench_function(format!("{}_pruned", alg.name()), |b| {
            b.iter(|| {
                Compiler::new(geom, spec.clone())
                    .compile_dag(std::hint::black_box(&dag))
                    .unwrap()
            })
        });
        group.bench_function(format!("{}_unpruned", alg.name()), |b| {
            b.iter(|| {
                Compiler::new(geom, spec.clone())
                    .with_options(ScheduleOptions { pruning: false })
                    .compile_dag(std::hint::black_box(&dag))
                    .unwrap()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_pruning);
criterion_main!(benches);
