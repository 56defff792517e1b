//! Criterion bench for activity tracking: the cost of interpreting a
//! netlist with the [`ActivityTrace`] sink attached versus plain
//! interpretation, and of the clock-gated netlist — the overhead the
//! measured-power path pays on top of the verification loop — next to
//! the trace built without a frame ([`ScheduleActivity`]), which is what
//! measured DSE pays per point.
//!
//! The companion unit test (`imagen_rtl::interp::tests::
//! tracing_changes_nothing`) pins that the sink changes no interpreter
//! outputs; this bench quantifies what it costs.
//!
//! [`ActivityTrace`]: imagen_rtl::ActivityTrace
//! [`ScheduleActivity`]: imagen_rtl::ScheduleActivity

use criterion::{criterion_group, criterion_main, Criterion};
use imagen_algos::{sample_pattern, Algorithm, TestPattern};
use imagen_core::Compiler;
use imagen_mem::{ImageGeometry, MemBackend, MemorySpec};
use imagen_power::{gate_clocks, gating_plan};
use imagen_rtl::{build_netlist, interpret, interpret_with_trace, BitWidths, ScheduleActivity};
use imagen_sim::Image;

fn bench_activity(c: &mut Criterion) {
    let geom = ImageGeometry {
        width: 120,
        height: 80,
        pixel_bits: 16,
    };
    let spec = MemorySpec::new(MemBackend::asic_default(), 2);
    let out = Compiler::new(geom, spec)
        .compile_dag(&Algorithm::UnsharpM.build())
        .unwrap();
    let input = Image::from_fn(geom.width, geom.height, |x, y| {
        sample_pattern(TestPattern::Noise, 5, x, y)
    });
    let net = build_netlist(&out.plan.dag, &out.plan.design, &BitWidths::default());
    let gated = gate_clocks(&net);

    let mut group = c.benchmark_group("activity");
    group.sample_size(10);
    group.bench_function("interpret_plain", |b| {
        b.iter(|| {
            interpret(
                std::hint::black_box(&net),
                std::hint::black_box(std::slice::from_ref(&input)),
            )
            .unwrap()
        })
    });
    group.bench_function("interpret_traced", |b| {
        b.iter(|| {
            interpret_with_trace(
                std::hint::black_box(&net),
                std::hint::black_box(std::slice::from_ref(&input)),
            )
            .unwrap()
        })
    });
    group.bench_function("interpret_gated_traced", |b| {
        b.iter(|| {
            interpret_with_trace(
                std::hint::black_box(&gated),
                std::hint::black_box(std::slice::from_ref(&input)),
            )
            .unwrap()
        })
    });
    // Both traces of the same netlist without a frame: one block sweep
    // shared by the ungated and the gated trace.
    group.bench_function("schedule_traces", |b| {
        b.iter(|| {
            let net = std::hint::black_box(&net);
            let activity = ScheduleActivity::derive(&net.structure, None).unwrap();
            let gated = activity.trace_gated(&gating_plan(&net.structure)).unwrap();
            (activity.trace(), gated)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_activity);
criterion_main!(benches);
