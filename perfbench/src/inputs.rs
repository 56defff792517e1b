//! Workload inputs: the example corpus (compiled into the harness, so a
//! run reads no repository file), seeded synthetic DAGs printed back to
//! DSL text, geometry grids, and the hardware context serve uses.

use crate::common::Rng;
use imagen_analysis::AnalysisOptions;
use imagen_ir::Dag;
use imagen_mem::{ImageGeometry, MemBackend, MemorySpec};
use imagen_rtl::BitWidths;

/// The 10 example pipelines, `(name, DSL text)`.
pub const EXAMPLES: [(&str, &str); 10] = [
    ("canny_m", include_str!("../../examples/canny_m.imagen")),
    ("canny_s", include_str!("../../examples/canny_s.imagen")),
    ("denoise_m", include_str!("../../examples/denoise_m.imagen")),
    (
        "gaussian_pyramid",
        include_str!("../../examples/gaussian_pyramid.imagen"),
    ),
    ("harris_m", include_str!("../../examples/harris_m.imagen")),
    ("harris_s", include_str!("../../examples/harris_s.imagen")),
    (
        "laplacian_pyramid",
        include_str!("../../examples/laplacian_pyramid.imagen"),
    ),
    ("sobel", include_str!("../../examples/sobel.imagen")),
    ("unsharp_m", include_str!("../../examples/unsharp_m.imagen")),
    ("xcorr_m", include_str!("../../examples/xcorr_m.imagen")),
];

pub fn example_index(name: &str) -> usize {
    EXAMPLES
        .iter()
        .position(|(n, _)| *n == name)
        .expect("known example")
}

/// Synthetic DAGs come from a fixed pool of this many per stage count.
const POOL: usize = 32;

fn pool_dag(stages: usize, index: usize) -> Dag {
    imagen_algos::synthetic_pipeline(stages, ((stages as u64) << 32) | index as u64)
}

/// A seeded draw from the synthetic pool (paper Sec. 8.2 shape), as
/// `(name, DSL text)`. Every pool member compiles, plain and coalesced,
/// at widths 64, 352 and 640; a DAG outside the pool can fail, e.g.
/// `synthetic_pipeline(29, 2710633447341882416)` violates the port limit
/// of stage 2's buffer at every geometry.
pub fn synthetic(stages: usize, rng: &mut Rng) -> (String, String) {
    let dag = pool_dag(stages, rng.below(POOL));
    (dag.name().to_string(), imagen_dsl::to_dsl(&dag))
}

pub fn geometry(width: u32, height: u32) -> ImageGeometry {
    ImageGeometry {
        width,
        height,
        pixel_bits: 16,
    }
}

/// A uniform draw from the multiples of 8 in `[w0, w1] x [h0, h1]`.
pub fn grid_geometry(rng: &mut Rng, (w0, w1): (u32, u32), (h0, h1): (u32, u32)) -> ImageGeometry {
    let w = w0 + 8 * rng.below(((w1 - w0) / 8 + 1) as usize) as u32;
    let h = h0 + 8 * rng.below(((h1 - h0) / 8 + 1) as usize) as u32;
    geometry(w, h)
}

/// The multiples of 8 in `[w0, w1] x [h0, h1]`, by pixel count.
pub fn sorted_grid((w0, w1): (u32, u32), (h0, h1): (u32, u32)) -> Vec<ImageGeometry> {
    let mut grid: Vec<ImageGeometry> = (w0..=w1)
        .step_by(8)
        .flat_map(|w| (h0..=h1).step_by(8).map(move |h| geometry(w, h)))
        .collect();
    grid.sort_by_key(|g| (g.width * g.height, g.width));
    grid
}

/// The geometry of pixel-count stratum `j` of `n` of a sorted grid, at
/// fraction `u` of the stratum for every other stratum counted from the
/// top and `1 - u` for the rest. Drawing `u` once per pipeline makes the
/// strata antithetic pairs, so sums over them (energy per frame grows
/// with pixels) barely move from seed to seed.
pub fn stratum_geometry(grid: &[ImageGeometry], j: usize, n: usize, u: f64) -> ImageGeometry {
    let (lo, hi) = (j * grid.len() / n, (j + 1) * grid.len() / n);
    let f = if (n - 1 - j).is_multiple_of(2) {
        u
    } else {
        1.0 - u
    };
    grid[(lo + ((hi - lo) as f64 * f) as usize).min(hi - 1)]
}

/// Serve's default memory backend: 32 Kbit ASIC macros.
pub const BACKEND: MemBackend = MemBackend::Asic { block_bits: 32768 };

/// Serve's memory spec: dual-port blocks, optionally coalesced.
pub fn spec(coalesce: bool) -> MemorySpec {
    let spec = MemorySpec::new(BACKEND, 2);
    if coalesce {
        spec.with_coalescing()
    } else {
        spec
    }
}

/// Serve's admission-check options for a request.
pub fn admission_options(geom: ImageGeometry, spec: &MemorySpec) -> AnalysisOptions {
    AnalysisOptions {
        geom,
        spec: spec.clone(),
        widths: BitWidths {
            pixel_bits: geom.pixel_bits,
            acc_bits: (2 * geom.pixel_bits).min(64),
        },
        input_range: AnalysisOptions::default().input_range,
    }
}
