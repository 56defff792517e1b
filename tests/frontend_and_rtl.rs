//! Cross-crate front-end and RTL coverage: DSL error reporting, golden
//! semantics of the evaluation kernels, and RTL invariants under varied
//! memory configurations.

use imagen::algos::{sample_pattern, Algorithm, TestPattern};
use imagen::dsl::{compile, DslError};
use imagen::rtl::verify_all;
use imagen::sim::{execute, Image};
use imagen::{Compiler, ImageGeometry, MemBackend, MemorySpec};

#[test]
fn dsl_error_positions_are_actionable() {
    let err = compile("t", "input a;\noutput b = im(x,y) c(x,y) end").unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains('c'), "mentions the unknown stage: {msg}");

    let err = compile("t", "input a;\noutput b = im(x,y) a(x,y end").unwrap_err();
    assert!(matches!(err, DslError::Parse(_)));
    assert!(err.to_string().contains("2:"), "line number present: {err}");
}

#[test]
fn golden_canny_finds_edges() {
    // Semantic sanity of the flagship workload: a hard vertical edge must
    // produce strong responses near the edge and none in flat regions.
    let dag = Algorithm::CannyM.build();
    let w = 32;
    let h = 24;
    let input = Image::from_fn(w, h, |x, _| if x < w / 2 { 30 } else { 220 });
    let run = execute(&dag, &[input]).unwrap();
    let (_, edges) = run.outputs(&dag).next().unwrap();
    // Window normalization shifts output coordinates by a few pixels, so
    // locate the response column instead of assuming it.
    let col_sum = |x: u32| (4..h - 4).map(|y| edges.get(x, y)).sum::<i64>();
    let hot = (1..w - 1).max_by_key(|&x| col_sum(x)).unwrap();
    assert!(col_sum(hot) > 0, "some column responds to the step");
    assert!(
        (hot as i64 - w as i64 / 2).abs() <= 5,
        "response near the step: col {hot} vs step {}",
        w / 2
    );
    assert_eq!(col_sum(2.min(hot - 1)), 0, "flat region stays silent");
}

#[test]
fn golden_denoise_removes_impulses() {
    let dag = Algorithm::DenoiseM.build();
    let w = 32;
    let h = 24;
    // Flat field with one impulse.
    let input = Image::from_fn(w, h, |x, y| if (x, y) == (10, 10) { 255 } else { 100 });
    let run = execute(&dag, &[input]).unwrap();
    let (_, out) = run.outputs(&dag).next().unwrap();
    assert!(
        out.get(10, 10) < 255,
        "impulse must be attenuated, got {}",
        out.get(10, 10)
    );
    assert_eq!(out.get(3, 3), 100, "flat region untouched");
}

#[test]
fn golden_unsharp_increases_contrast() {
    let dag = Algorithm::UnsharpM.build();
    let w = 32;
    let h = 24;
    let input = Image::from_fn(w, h, |x, _| if x < w / 2 { 80 } else { 160 });
    let run = execute(&dag, std::slice::from_ref(&input)).unwrap();
    let (_, out) = run.outputs(&dag).next().unwrap();
    // Overshoot near the step: output range exceeds input range.
    let max_out = (0..w).map(|x| out.get(x, h / 2)).max().unwrap();
    let min_out = (0..w).map(|x| out.get(x, h / 2)).min().unwrap();
    assert!(max_out > 160 || min_out < 80, "sharpening must overshoot");
}

#[test]
fn rtl_respects_memory_spec() {
    let geom = ImageGeometry {
        width: 40,
        height: 30,
        pixel_bits: 16,
    };
    let dag = Algorithm::HarrisM.build();
    // Dual-port spec -> dual-port macros only; single-port -> 1p macros.
    // Both primitives are always *defined* (one occurrence each); only the
    // matching one may be *instantiated* (two or more occurrences).
    for (ports, macro_kind, absent) in [
        (2u32, "imagen_sram_2p #", "imagen_sram_1p #"),
        (1, "imagen_sram_1p #", "imagen_sram_2p #"),
    ] {
        let spec = MemorySpec::new(
            MemBackend::Asic {
                block_bits: 2 * geom.row_bits(),
            },
            ports,
        );
        let out = Compiler::new(geom, spec).compile_dag(&dag).unwrap();
        let v = &out.verilog;
        verify_all(&out.netlist).into_result().unwrap();
        assert!(
            v.matches(macro_kind).count() >= 2,
            "P={ports} instantiates {macro_kind}"
        );
        assert_eq!(
            v.matches(absent).count(),
            1,
            "P={ports} must not instantiate {absent}"
        );
    }
}

#[test]
fn rtl_embeds_every_start_cycle() {
    let geom = ImageGeometry {
        width: 40,
        height: 30,
        pixel_bits: 16,
    };
    let spec = MemorySpec::new(
        MemBackend::Asic {
            block_bits: 2 * geom.row_bits(),
        },
        2,
    );
    let out = Compiler::new(geom, spec)
        .compile_dag(&Algorithm::CannyS.build())
        .unwrap();
    let v = &out.verilog;
    for &s in &out.plan.design.start_cycles {
        assert!(
            v.contains(&format!("64'd{s}")),
            "start cycle {s} missing from the control logic"
        );
    }
}

#[test]
fn simulator_rejects_geometry_mismatch() {
    let geom = ImageGeometry {
        width: 40,
        height: 30,
        pixel_bits: 16,
    };
    let spec = MemorySpec::new(
        MemBackend::Asic {
            block_bits: 2 * geom.row_bits(),
        },
        2,
    );
    let out = Compiler::new(geom, spec)
        .compile_dag(&Algorithm::UnsharpM.build())
        .unwrap();
    let wrong = Image::from_fn(8, 8, |x, y| sample_pattern(TestPattern::Gradient, 0, x, y));
    assert!(imagen::sim::simulate(&out.plan.dag, &out.plan.design, &[wrong]).is_err());
}
