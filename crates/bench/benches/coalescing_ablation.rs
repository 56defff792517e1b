//! Ablation bench for the Sec. 6 line-coalescing rewrite: the
//! compile-time cost of coalescing every line buffer of Canny-s.

use criterion::{criterion_group, criterion_main, Criterion};
use imagen_algos::Algorithm;
use imagen_core::Compiler;
use imagen_mem::{ImageGeometry, MemBackend, MemorySpec};

fn bench_coalescing(c: &mut Criterion) {
    let geom = ImageGeometry::p320();
    let mut group = c.benchmark_group("coalescing_ablation");
    group.sample_size(20);
    let dag = Algorithm::CannyS.build();
    let plain = MemorySpec::new(MemBackend::asic_default(), 2);
    let lc = MemorySpec::new(MemBackend::asic_default(), 2).with_coalescing();

    group.bench_function("canny_s_plain", |b| {
        b.iter(|| {
            Compiler::new(geom, plain.clone())
                .compile_dag(std::hint::black_box(&dag))
                .unwrap()
        })
    });
    group.bench_function("canny_s_coalesced", |b| {
        b.iter(|| {
            Compiler::new(geom, lc.clone())
                .compile_dag(std::hint::black_box(&dag))
                .unwrap()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_coalescing);
criterion_main!(benches);
