//! Golden-file pin for the emitter: the netlist-based renderer must
//! reproduce the pinned output byte for byte at default bit widths.
//!
//! * `unsharp_m_40x30.v` / `canny_s_40x30.v` were written by the *seed*
//!   emitter (before the netlist IR existed) — the refactor pin — and
//!   re-blessed once when the scheduler started returning the
//!   componentwise-minimal optimal schedule: only stage start cycles
//!   (and `frame_done`) moved;
//! * `denoise_m_40x30.v` and its clock-gated variant
//!   `denoise_m_40x30_gated.v` anchor the gating emitter path
//!   (`imagen_power::gate_clocks` → `emit_verilog`) at the byte level.
//!
//! Regenerating any golden is a deliberate act, not a test-suite side
//! effect.

use imagen_algos::Algorithm;
use imagen_mem::{DesignStyle, ImageGeometry, MemBackend, MemorySpec};
use imagen_rtl::{build_netlist, emit_verilog, verify_all, BitWidths, Netlist};
use imagen_schedule::{plan_design, ScheduleOptions};

fn golden_config() -> (ImageGeometry, MemorySpec) {
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
    (geom, spec)
}

fn golden_netlist(alg: Algorithm) -> Netlist {
    let (geom, spec) = golden_config();
    let plan = plan_design(
        &alg.build(),
        &geom,
        &spec,
        ScheduleOptions::default(),
        DesignStyle::Ours,
    )
    .unwrap();
    build_netlist(&plan.dag, &plan.design, &BitWidths::default())
}

fn check_net(alg: Algorithm, net: &Netlist, golden: &str) {
    let report = verify_all(net);
    assert!(report.is_clean(), "{}: {:?}", alg.name(), report.errors);
    let emitted = emit_verilog(net);
    assert!(
        emitted == golden,
        "{} emission diverged from the pinned golden (first differing line: {:?})",
        alg.name(),
        emitted
            .lines()
            .zip(golden.lines())
            .enumerate()
            .find(|(_, (a, b))| a != b)
            .map(|(i, (a, b))| format!("line {}: {a:?} vs golden {b:?}", i + 1))
    );
}

fn check(alg: Algorithm, golden: &str) {
    check_net(alg, &golden_netlist(alg), golden);
}

#[test]
fn unsharp_m_emission_is_byte_identical() {
    check(
        Algorithm::UnsharpM,
        include_str!("../golden/unsharp_m_40x30.v"),
    );
}

#[test]
fn canny_s_emission_is_byte_identical() {
    check(Algorithm::CannyS, include_str!("../golden/canny_s_40x30.v"));
}

#[test]
fn denoise_m_emission_is_byte_identical() {
    check(
        Algorithm::DenoiseM,
        include_str!("../golden/denoise_m_40x30.v"),
    );
}

#[test]
fn denoise_m_gated_emission_is_byte_identical() {
    // The clock-gating emitter path: the same design through the real
    // gate_clocks pass must render the pinned gated Verilog — the gate
    // wires, the rewritten .ren connections, the header marker — byte
    // for byte, while the ungated emission stays untouched.
    let net = golden_netlist(Algorithm::DenoiseM);
    let gated = imagen_power::gate_clocks(&net);
    check_net(
        Algorithm::DenoiseM,
        &gated,
        include_str!("../golden/denoise_m_40x30_gated.v"),
    );
    // Gating a copy must not perturb the original netlist's emission.
    check(
        Algorithm::DenoiseM,
        include_str!("../golden/denoise_m_40x30.v"),
    );
}
