//! Three-way differential verification for the multirate pyramid
//! examples: for each pyramid pipeline in `examples/`, the golden
//! executor (`imagen::sim::execute`), the cycle-level simulator
//! (`imagen::sim::simulate`) and the netlist executor, the compiled
//! evaluation program (`imagen::rtl::interpret`), must all agree
//! bit-exactly on every output stream — with and without clock gating,
//! at both width regimes:
//!
//! * **wide** (64/64): datapath arithmetic coincides with the software
//!   model's `i64` semantics, exact on full-range 8-bit inputs;
//! * **default** (16/32): the real truncating hardware; 4-bit inputs
//!   keep every kernel intermediate inside the 16-bit pixel datapath.
//!
//! Frame extents are divisible by every cumulative scale in the
//! pyramids (2×2), as the planner requires. `IMAGEN_SMOKE=1` shrinks
//! the default frame for CI; a second frame, wider than one 64-lane
//! evaluation tile at every rate, runs in both modes. The program's
//! whole report and activity trace are pinned against a per-cycle
//! reference walker by `crates/rtl/tests/program_differential.rs`.

use imagen::power::gate_clocks;
use imagen::rtl::{build_netlist, interpret, BitWidths};
use imagen::sim::{execute, simulate, Image};
use imagen::{Compiler, ImageGeometry, MemBackend, MemorySpec};

fn smoke() -> bool {
    matches!(
        std::env::var("IMAGEN_SMOKE").ok().as_deref(),
        Some(v) if !v.is_empty() && v != "0" && v != "false" && v != "off"
    )
}

fn geom() -> ImageGeometry {
    // Both extents divisible by 4: the deepest cumulative scale is 2 per
    // axis and the widths below stay well clear of the 3×3 stencils.
    if smoke() {
        ImageGeometry {
            width: 24,
            height: 16,
            pixel_bits: 16,
        }
    } else {
        ImageGeometry {
            width: 40,
            height: 24,
            pixel_bits: 16,
        }
    }
}

/// Four 64-lane tiles at full rate and two at half rate: the program's
/// strided tap loads gather from beyond a stage's first tile.
fn wide_frame() -> ImageGeometry {
    ImageGeometry {
        width: 200,
        height: 24,
        pixel_bits: 16,
    }
}

fn backend(geom: &ImageGeometry) -> MemBackend {
    MemBackend::Asic {
        block_bits: 2 * geom.row_bits(),
    }
}

/// Deterministic pseudo-random `g`-sized frame with `bits`-bit pixels.
fn noise_frame(g: &ImageGeometry, seed: u64, bits: u32) -> Image {
    let mask = (1u64 << bits) - 1;
    Image::from_fn(g.width, g.height, |x, y| {
        let mut z = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(
            (u64::from(y) * u64::from(g.width) + u64::from(x)).wrapping_mul(0xBF58_476D_1CE4_E5B9),
        );
        z = (z ^ (z >> 30)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) & mask) as i64
    })
}

fn pyramid_dag(file: &str) -> imagen::ir::Dag {
    let path = format!("{}/examples/{file}", env!("CARGO_MANIFEST_DIR"));
    let src = std::fs::read_to_string(&path).unwrap();
    let name = file.trim_end_matches(".imagen");
    imagen::dsl::compile(name, &src).unwrap()
}

/// Compiles one pyramid at `geom`, runs all three engines on a noise
/// frame of `bits`-bit pixels, and pins every output stream bit-exact
/// across the trio.
fn three_way(file: &str, widths: &BitWidths, geom: &ImageGeometry, seed: u64, bits: u32) {
    let label = format!("{geom}, {}/{}", widths.pixel_bits, widths.acc_bits);
    let input = noise_frame(geom, seed, bits);
    let dag = pyramid_dag(file);
    let out = Compiler::new(*geom, MemorySpec::new(backend(geom), 2))
        .compile_dag(&dag)
        .unwrap_or_else(|e| panic!("{file} ({label}): {e}"));
    assert!(
        out.plan.dag.is_multirate(),
        "{file}: expected a multirate pipeline"
    );

    let golden = execute(&out.plan.dag, std::slice::from_ref(&input)).unwrap();
    let sim = simulate(
        &out.plan.dag,
        &out.plan.design,
        std::slice::from_ref(&input),
    )
    .unwrap();
    assert!(sim.is_clean(), "{file} ({label}): cycle model unclean");

    let base = build_netlist(&out.plan.dag, &out.plan.design, widths);
    let gated = gate_clocks(&base);
    for (net, gating) in [(&base, "ungated"), (&gated, "gated")] {
        let fast = interpret(net, std::slice::from_ref(&input))
            .unwrap_or_else(|e| panic!("{file} ({label} {gating}): {e}"));

        assert_eq!(
            fast.output_images.len(),
            sim.output_images.len(),
            "{file} ({label} {gating}): stream count"
        );
        for (stage, img) in &fast.output_images {
            let gold = golden.stage(imagen::ir::StageId::from_index(*stage));
            assert_eq!(
                img, gold,
                "{file} ({label} {gating}): program vs golden executor on stage {stage}"
            );
            let (_, simg) = sim
                .output_images
                .iter()
                .find(|(i, _)| i == stage)
                .expect("stream present in the cycle model");
            assert_eq!(
                img, simg,
                "{file} ({label} {gating}): program vs cycle simulator on stage {stage}"
            );
        }
        // The netlist's done-cycle and the cycle model's latency agree.
        assert_eq!(
            fast.latency, sim.latency as u64,
            "{file} ({label} {gating}): latency"
        );
    }
}

const PYRAMIDS: [&str; 2] = ["gaussian_pyramid.imagen", "laplacian_pyramid.imagen"];

/// Rate-aware line-buffer sizing is *minimal*: shrinking any multi-row
/// buffer in a pyramid plan by one row makes the cycle-level simulator
/// — which derives produce/overwrite times from first principles, not
/// from the solver's inequalities — report an eviction (R2) violation.
/// Single-row buffers (e.g. the upsample reader's producer buffer) are
/// already at the storage floor and cannot shrink.
#[test]
fn pyramid_buffer_sizing_is_minimal() {
    let input = noise_frame(&geom(), 3, 4);
    for file in PYRAMIDS {
        let dag = pyramid_dag(file);
        let out = Compiler::new(geom(), MemorySpec::new(backend(&geom()), 2))
            .compile_dag(&dag)
            .unwrap();

        // Baseline: the planned design is residency- and port-clean.
        let clean = simulate(
            &out.plan.dag,
            &out.plan.design,
            std::slice::from_ref(&input),
        )
        .unwrap();
        assert!(clean.is_clean(), "{file}: planned design must be clean");

        let mut shrunk_any = false;
        for i in 0..out.plan.design.buffers.len() {
            if out.plan.design.buffers[i].logical_rows < 2 {
                continue;
            }
            shrunk_any = true;
            let mut design = out.plan.design.clone();
            let b = &mut design.buffers[i];
            b.logical_rows -= 1;
            b.layout = b.layout.with_phys_rows(b.logical_rows);
            let r = simulate(&out.plan.dag, &design, std::slice::from_ref(&input)).unwrap();
            assert!(
                r.residency_violations.iter().any(|v| !v.not_yet_produced),
                "{file}: buffer {i} shrunk by one row should evict live data, got {:?}",
                r.residency_violations
            );
        }
        assert!(
            shrunk_any,
            "{file}: expected at least one multi-row buffer to exercise"
        );
    }
}

/// Wide widths, full-range 8-bit noise: both pyramids at both frames,
/// bit-exact, gated and ungated.
#[test]
fn pyramids_wide_widths_bit_exact() {
    for g in [geom(), wide_frame()] {
        for (i, file) in PYRAMIDS.iter().enumerate() {
            three_way(file, &BitWidths::wide(), &g, 11 + i as u64, 8);
        }
    }
}

/// Default hardware widths, 4-bit inputs: both pyramids at both frames,
/// bit-exact, gated and ungated.
#[test]
fn pyramids_default_widths_bit_exact() {
    for g in [geom(), wide_frame()] {
        for (i, file) in PYRAMIDS.iter().enumerate() {
            three_way(file, &BitWidths::default(), &g, 0xD1F7 + i as u64, 4);
        }
    }
}
