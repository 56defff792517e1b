//! The clock-gated differential suite: for every Tbl. 3 pipeline, the
//! netlist *after* `imagen_power::gate_clocks` must remain bit-exact
//! against the golden executor and the cycle-level simulator — gating
//! is proven semantics-preserving by execution, not by argument.
//!
//! The interpreter honors the gating plan (a gated-off read port
//! supplies no data), so a window that cut into a live consumer would
//! corrupt the streamed frames and fail here. On top of bit-exactness,
//! the suite checks that gating actually *bites*: the interpreter
//! reports a positive gated-off cycle count whenever the schedule skew
//! leaves idle read-port cycles, and the report is otherwise identical
//! to the ungated run's.
//!
//! Same two width regimes as `netlist_differential`: wide (64/64) on
//! 8-bit noise and hardware (16/32) on 4-bit inputs.
//! `IMAGEN_SMOKE=1` shrinks frames and case counts for CI.

use imagen::algos::Algorithm;
use imagen::power::gate_clocks;
use imagen::rtl::{build_netlist, interpret, BitWidths};
use imagen::sim::{execute, simulate, Image};
use imagen::{Compiler, ImageGeometry, MemBackend, MemorySpec};
use proptest::prelude::*;

fn smoke() -> bool {
    matches!(
        std::env::var("IMAGEN_SMOKE").ok().as_deref(),
        Some(v) if !v.is_empty() && v != "0" && v != "false" && v != "off"
    )
}

fn geom() -> ImageGeometry {
    if smoke() {
        ImageGeometry {
            width: 26,
            height: 22,
            pixel_bits: 16,
        }
    } else {
        ImageGeometry {
            width: 36,
            height: 26,
            pixel_bits: 16,
        }
    }
}

fn backend() -> MemBackend {
    MemBackend::Asic {
        block_bits: 2 * geom().row_bits(),
    }
}

/// Deterministic pseudo-random frame with `bits`-bit pixels.
fn noise_frame(seed: u64, bits: u32) -> Image {
    let g = geom();
    let mask = (1u64 << bits) - 1;
    Image::from_fn(g.width, g.height, |x, y| {
        let mut z = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(
            (u64::from(y) * u64::from(g.width) + u64::from(x)).wrapping_mul(0xBF58_476D_1CE4_E5B9),
        );
        z = (z ^ (z >> 30)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) & mask) as i64
    })
}

/// Compiles `alg`, gates its netlist and checks the gated execution
/// bit-exact against golden executor, cycle simulator and the ungated
/// interpretation.
fn gated_differential(alg: Algorithm, widths: &BitWidths, input: Image, label: &str) {
    let out = Compiler::new(geom(), MemorySpec::new(backend(), 2).with_coalescing())
        .compile_dag(&alg.build())
        .unwrap_or_else(|e| panic!("{} ({label}): {e}", alg.name()));
    let golden = execute(&out.plan.dag, std::slice::from_ref(&input)).unwrap();
    let sim = simulate(
        &out.plan.dag,
        &out.plan.design,
        std::slice::from_ref(&input),
    )
    .unwrap();
    assert!(
        sim.is_clean(),
        "{} ({label}): cycle model unclean",
        alg.name()
    );

    let net = build_netlist(&out.plan.dag, &out.plan.design, widths);
    let gated = gate_clocks(&net);
    assert!(gated.is_gated(), "{} ({label})", alg.name());
    imagen::rtl::verify_all(&gated)
        .into_result()
        .unwrap_or_else(|e| panic!("{} ({label}): gated netlist unsound: {e}", alg.name()));

    let plain = interpret(&net, std::slice::from_ref(&input))
        .unwrap_or_else(|e| panic!("{} ({label}): {e}", alg.name()));
    let run = interpret(&gated, std::slice::from_ref(&input))
        .unwrap_or_else(|e| panic!("{} ({label}): {e}", alg.name()));

    assert_eq!(
        run.output_images.len(),
        sim.output_images.len(),
        "{} ({label})",
        alg.name()
    );
    for (stage, img) in &run.output_images {
        let gold = golden.stage(imagen::ir::StageId::from_index(*stage));
        assert_eq!(
            img,
            gold,
            "{} ({label}): gated netlist vs golden executor on stage {stage}",
            alg.name()
        );
        let (_, simg) = sim
            .output_images
            .iter()
            .find(|(i, _)| i == stage)
            .expect("stream present in the cycle model");
        assert_eq!(
            img,
            simg,
            "{} ({label}): gated netlist vs cycle simulator on stage {stage}",
            alg.name()
        );
    }

    // Gating changes accounting, never behavior: the reports agree on
    // everything but the measured gated-off cycle count.
    assert_eq!(plain.cycles, run.cycles, "{} ({label})", alg.name());
    assert_eq!(plain.latency, run.latency, "{} ({label})", alg.name());
    assert_eq!(
        plain.sram_writes,
        run.sram_writes,
        "{} ({label})",
        alg.name()
    );
    assert_eq!(plain.gated_off_cycles, 0);
    assert!(
        run.gated_off_cycles > 0,
        "{} ({label}): schedule skew must leave gateable cycles",
        alg.name()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Wide widths, full-range 8-bit noise: every pipeline, bit-exact
    /// under gating.
    #[test]
    fn gated_wide_widths_bit_exact_on_full_range(seed in 0u64..1_000_000) {
        let algs = Algorithm::all();
        let algs: &[Algorithm] = if smoke() { &algs[..3] } else { &algs };
        for &alg in algs {
            gated_differential(alg, &BitWidths::wide(), noise_frame(seed, 8), "wide");
        }
    }

    /// Default hardware widths, 4-bit inputs: the truncating hardware
    /// agrees with the untruncated software model under gating too.
    #[test]
    fn gated_default_widths_bit_exact_in_range(seed in 0u64..1_000_000) {
        let algs = Algorithm::all();
        let algs: &[Algorithm] = if smoke() { &algs[..3] } else { &algs };
        for &alg in algs {
            gated_differential(alg, &BitWidths::default(), noise_frame(seed ^ 0xA5C3, 4), "default");
        }
    }
}

/// One deterministic non-proptest pass over all seven pipelines in both
/// regimes, so a plain `cargo test` exercises every algorithm even under
/// `IMAGEN_SMOKE=1`.
#[test]
fn all_pipelines_once_both_regimes_gated() {
    for alg in Algorithm::all() {
        gated_differential(alg, &BitWidths::wide(), noise_frame(4, 8), "wide-once");
        gated_differential(
            alg,
            &BitWidths::default(),
            noise_frame(5, 4),
            "default-once",
        );
    }
}
