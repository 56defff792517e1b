//! # imagen-bench
//!
//! Shared harness for reproducing every table and figure of the [ImaGen]
//! paper's evaluation (Sec. 8). Each experiment is a binary in `src/bin/`
//! that prints the same rows/series the paper reports; `EXPERIMENTS.md`
//! at the repository root records paper-vs-measured for each.
//!
//! | Binary | Paper artifact |
//! |---|---|
//! | `tbl3` | Tbl. 3 workload roster |
//! | `exp_throughput` | Sec. 8.1 throughput & latency |
//! | `exp_compile_speed` | Sec. 8.2 compile times + pruning ablation |
//! | `exp_scalability` | Sec. 8.2 9→60-stage sweep |
//! | `fig8a` / `fig8b` | Fig. 8 SRAM & power at 320p |
//! | `fig9a` / `fig9b` | Fig. 9 SRAM & power at 1080p |
//! | `fig10` | Fig. 10 DSE Pareto frontiers |
//! | `exp_accel_area` | Sec. 8.3 accelerator-level area |
//! | `exp_fpga` | Sec. 8.3/8.4 FPGA BRAM & power |
//! | `exp_multi_algo` | Sec. 8.3 multi-algorithm BRAM packing |
//! | `exp_power_breakdown` | Sec. 8.4 access-rate analysis |
//!
//! [ImaGen]: https://arxiv.org/abs/2304.03352

#![forbid(unsafe_code)]

use imagen_algos::{sample_pattern, Algorithm, TestPattern};
use imagen_baselines::{generate_darkroom, generate_fixynn, generate_soda};
use imagen_core::Compiler;
use imagen_mem::{DesignStyle, ImageGeometry, MemBackend, MemorySpec};
use imagen_schedule::Plan;
use imagen_sim::Image;
use std::io::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// `print!` through [`write_stdout`].
#[macro_export]
macro_rules! out {
    ($($arg:tt)*) => {
        $crate::write_stdout(format_args!($($arg)*))
    };
}

/// `println!` through [`write_stdout`].
#[macro_export]
macro_rules! outln {
    () => {
        $crate::write_stdout(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        $crate::write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// Writes to stdout: every experiment binary prints through here (as
/// [`out!`] and [`outln!`]), because `print!` panics when the reader has
/// gone away (`tbl3 | head -1`). After the first failed write nothing
/// more is written and the binary finishes its work, exiting 0; a
/// failure other than a closed reader is reported once on stderr.
pub fn write_stdout(args: std::fmt::Arguments) {
    static FAILED: AtomicBool = AtomicBool::new(false);
    if FAILED.load(Ordering::Relaxed) {
        return;
    }
    if let Err(e) = std::io::stdout().lock().write_fmt(args) {
        FAILED.store(true, Ordering::Relaxed);
        if e.kind() != std::io::ErrorKind::BrokenPipe {
            eprintln!("error: writing stdout: {e}");
        }
    }
}

/// One evaluated (algorithm × generator) point.
#[derive(Clone, Debug)]
pub struct EvalPoint {
    /// Algorithm name (paper spelling, e.g. `Canny-m`).
    pub algo: &'static str,
    /// Which generator produced the design.
    pub style: DesignStyle,
    /// Allocated SRAM/BRAM, KB.
    pub sram_kb: f64,
    /// Memory power, mW.
    pub mem_power_mw: f64,
    /// Total accelerator area, mm².
    pub total_area_mm2: f64,
    /// Total accelerator power, mW.
    pub total_power_mw: f64,
    /// Memory block count (BRAM count on FPGA).
    pub blocks: usize,
    /// End-to-end frame latency, cycles.
    pub latency: i64,
    /// The full plan, for further inspection.
    pub plan: Plan,
}

/// The design styles in the paper's figure order.
pub const STYLES: [DesignStyle; 5] = [
    DesignStyle::FixyNn,
    DesignStyle::Darkroom,
    DesignStyle::Soda,
    DesignStyle::Ours,
    DesignStyle::OursLc,
];

/// Generates one design of the given style.
///
/// # Panics
///
/// Panics if any generator fails — the evaluation workloads are all
/// schedulable by construction.
pub fn generate(
    alg: Algorithm,
    style: DesignStyle,
    geom: &ImageGeometry,
    backend: MemBackend,
) -> Plan {
    let dag = alg.build();
    match style {
        DesignStyle::FixyNn => generate_fixynn(&dag, geom, backend).expect("fixynn"),
        DesignStyle::Darkroom => generate_darkroom(&dag, geom, backend).expect("darkroom"),
        DesignStyle::Soda => generate_soda(&dag, geom, backend).expect("soda"),
        DesignStyle::Ours => {
            Compiler::new(*geom, MemorySpec::new(backend, 2))
                .compile_dag(&dag)
                .expect("ours")
                .plan
        }
        DesignStyle::OursLc => {
            // "Judicious" coalescing: per-buffer LC only where it reduces
            // SRAM (imagen-dse's greedy descent).
            imagen_dse::judicious_lc(&dag, geom, backend)
                .expect("ours+lc")
                .1
                .plan
        }
    }
}

/// Whether line coalescing is available at this geometry/backend (the
/// paper: yes at 320p, no at 1080p — the block holds only one row).
pub fn lc_available(geom: &ImageGeometry, backend: MemBackend) -> bool {
    MemorySpec::new(backend, 2)
        .with_coalescing()
        .coalesce_factor(0, geom)
        > 1
}

/// Evaluates every applicable style for one algorithm.
pub fn evaluate(alg: Algorithm, geom: &ImageGeometry, backend: MemBackend) -> Vec<EvalPoint> {
    let mut out = Vec::new();
    for style in STYLES {
        if style == DesignStyle::OursLc && !lc_available(geom, backend) {
            continue;
        }
        let plan = generate(alg, style, geom, backend);
        let d = &plan.design;
        out.push(EvalPoint {
            algo: alg.name(),
            style,
            sram_kb: d.sram_kb(),
            mem_power_mw: d.memory_power_mw(),
            total_area_mm2: d.total_area_mm2(),
            total_power_mw: d.total_power_mw(),
            blocks: d.block_count(),
            latency: plan.schedule.latency(&plan.dag, geom.width, geom.height),
            plan: plan.clone(),
        });
    }
    out
}

/// The standard ASIC backend of the evaluation: 32 Kbit macros
/// ([`MemBackend::asic_default`]).
pub fn asic_backend() -> MemBackend {
    MemBackend::asic_default()
}

/// True when the `IMAGEN_SMOKE` environment variable is set to anything
/// other than `0`, `false`, `off` or the empty string.
///
/// In smoke mode every experiment binary shrinks its workload — tiny
/// frames, fewer timing repetitions, shorter sweeps — so that CI can
/// cheaply check each one still runs end to end. The printed numbers are
/// *not* the paper's numbers in this mode.
pub fn smoke_mode() -> bool {
    smoke_value(std::env::var("IMAGEN_SMOKE").ok().as_deref())
}

fn smoke_value(var: Option<&str>) -> bool {
    match var {
        Some(v) => !matches!(v.trim(), "" | "0" | "false" | "off"),
        None => false,
    }
}

/// The shrunken stand-in for 320p used by [`geom_320`] in smoke mode.
pub const SMOKE_GEOM_320: ImageGeometry = ImageGeometry {
    width: 96,
    height: 48,
    pixel_bits: 16,
};

/// The shrunken stand-in for 1080p used by [`geom_1080`] in smoke mode.
pub const SMOKE_GEOM_1080: ImageGeometry = ImageGeometry {
    width: 1184,
    height: 64,
    pixel_bits: 16,
};

/// The evaluation's 320p geometry, or a structurally equivalent tiny
/// frame in [`smoke_mode`] (line coalescing stays available: an ASIC
/// block still holds several rows, as at real 320p).
pub fn geom_320() -> ImageGeometry {
    if smoke_mode() {
        SMOKE_GEOM_320
    } else {
        ImageGeometry::p320()
    }
}

/// The evaluation's 1080p geometry, or a structurally equivalent short
/// frame in [`smoke_mode`]. The smoke width keeps a row wider than half
/// a block on *both* backends (ASIC 32 Kbit and FPGA 36 Kbit BRAM:
/// 1184 × 16 bits = 18 944 > 18 432), so line coalescing stays
/// *unavailable*, as at real 1080p — Sec. 7.
pub fn geom_1080() -> ImageGeometry {
    if smoke_mode() {
        SMOKE_GEOM_1080
    } else {
        ImageGeometry::p1080()
    }
}

/// Timing repetitions for best-of-N measurement loops (1 in smoke mode).
pub fn timing_reps() -> usize {
    if smoke_mode() {
        1
    } else {
        5
    }
}

/// The experiment binaries' one timer: runs `f` once to warm up, then
/// returns the best wall clock of [`timing_reps`] runs, in milliseconds.
/// Each result passes through [`std::hint::black_box`], so the timed
/// work cannot be optimized away.
pub fn best_ms<T>(mut f: impl FnMut() -> T) -> f64 {
    std::hint::black_box(f());
    (0..timing_reps())
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            t.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min)
}

/// A deterministic test frame for simulator-backed experiments.
pub fn test_frame(geom: &ImageGeometry, seed: u64) -> Image {
    Image::from_fn(geom.width, geom.height, |x, y| {
        sample_pattern(TestPattern::Noise, seed, x, y)
    })
}

/// Prints a markdown table: one row per algorithm, one column per style,
/// with a trailing `Average` row — the shape of the paper's bar charts.
pub fn print_matrix(
    title: &str,
    unit: &str,
    algos: &[Algorithm],
    rows: &[Vec<Option<f64>>],
    styles: &[DesignStyle],
) {
    outln!("\n## {title} ({unit})\n");
    out!("| Algorithm |");
    for s in styles {
        out!(" {} |", s.label());
    }
    outln!();
    out!("|---|");
    for _ in styles {
        out!("---|");
    }
    outln!();
    let mut sums = vec![(0.0, 0usize); styles.len()];
    for (a, row) in algos.iter().zip(rows) {
        out!("| {} |", a.name());
        for (i, v) in row.iter().enumerate() {
            match v {
                Some(v) => {
                    out!(" {v:.1} |");
                    sums[i].0 += v;
                    sums[i].1 += 1;
                }
                None => out!(" — |"),
            }
        }
        outln!();
    }
    out!("| **Average** |");
    for (s, n) in &sums {
        if *n > 0 {
            out!(" **{:.1}** |", s / *n as f64);
        } else {
            out!(" — |");
        }
    }
    outln!();
}

/// Percentage reduction of `ours` relative to `base` (positive = ours
/// smaller).
pub fn reduction_pct(base: f64, ours: f64) -> f64 {
    100.0 * (base - ours) / base
}

/// One measured (activity-priced) power point: analytic,
/// measured-ungated and measured-gated power plus the gated-off
/// read-port cycle count.
#[derive(Clone, Copy, Debug)]
pub struct MeasuredPoint {
    /// Analytic memory power (`Design::memory_power_mw`), mW.
    pub analytic_mem_mw: f64,
    /// Analytic total power (`Design::total_power_mw`), mW.
    pub analytic_total_mw: f64,
    /// Measured memory power of the netlist as emitted, mW.
    pub measured_mem_mw: f64,
    /// Measured total power of the netlist as emitted, mW.
    pub measured_total_mw: f64,
    /// Measured total power of the clock-gated netlist, mW.
    pub gated_total_mw: f64,
    /// Measured memory power of the clock-gated netlist, mW.
    pub gated_mem_mw: f64,
    /// Read-port cycles the gating pass removed.
    pub gated_off_cycles: u64,
}

impl MeasuredPoint {
    /// Gating saving on measured total power, percent.
    pub fn gating_saving_pct(&self) -> f64 {
        reduction_pct(self.measured_total_mw, self.gated_total_mw)
    }
}

/// Measures one (algorithm × style) point with
/// `imagen_power::measure_schedule`, which prices the activity the
/// schedule fixes, ungated and clock-gated. The design is planned on a
/// height-reduced frame: access *rates* are height-invariant (the raster
/// pattern repeats row by row, the same argument `exp_power_breakdown`
/// uses) and the per-block macro configurations (rows per block, used
/// bits per row) depend only on the frame width, so the mW figures match
/// the full-height design while simulation stays fast. The cycle
/// simulator runs one frame first: it annotates the access statistics so
/// the analytic column uses exact rates, and its run checks that no port
/// is oversubscribed.
pub fn measure_point(
    alg: Algorithm,
    style: DesignStyle,
    geom: &ImageGeometry,
    backend: MemBackend,
) -> MeasuredPoint {
    let short = ImageGeometry {
        width: geom.width,
        height: geom.height.min(64),
        pixel_bits: geom.pixel_bits,
    };
    let mut plan = generate(alg, style, &short, backend);
    let input = test_frame(&short, 23);
    let sim = imagen_sim::simulate_and_annotate(
        &plan.dag,
        &mut plan.design,
        std::slice::from_ref(&input),
    )
    .expect("simulation");
    assert!(
        sim.port_violations.is_empty(),
        "{} {}: {:?}",
        alg.name(),
        style.label(),
        sim.port_violations
    );
    let m = imagen_power::measure_schedule(
        &imagen_rtl::describe(&plan.dag, &plan.design),
        &imagen_rtl::BitWidths::default(),
        &plan.design,
        None,
    )
    .expect("pricing");
    MeasuredPoint {
        analytic_mem_mw: plan.design.memory_power_mw(),
        analytic_total_mw: plan.design.total_power_mw(),
        measured_mem_mw: m.ungated.memory_mw(),
        measured_total_mw: m.ungated.total_mw(),
        gated_total_mw: m.gated.total_mw(),
        gated_mem_mw: m.gated.memory_mw(),
        gated_off_cycles: m.gated.gated_off_cycles,
    }
}

/// Prints the measured (activity-priced) memory-power counterpart
/// of an analytic figure matrix — one [`measure_point`] per applicable
/// (algorithm × style) — followed by the average clock-gating saving.
/// Shared by `fig8b` and `fig9b`.
pub fn print_measured_matrix(
    title: &str,
    algos: &[Algorithm],
    geom: &ImageGeometry,
    backend: MemBackend,
) {
    let mut measured = Vec::new();
    let mut savings: Vec<f64> = Vec::new();
    for alg in algos {
        let mut row = Vec::new();
        for style in STYLES {
            if style == DesignStyle::OursLc && !lc_available(geom, backend) {
                row.push(None);
                continue;
            }
            let p = measure_point(*alg, style, geom, backend);
            row.push(Some(p.measured_mem_mw));
            savings.push(reduction_pct(p.measured_mem_mw, p.gated_mem_mw));
        }
        measured.push(row);
    }
    print_matrix(title, "mW", algos, &measured, &STYLES);
    outln!(
        "\nClock gating (imagen-power) removes on average {:.1}% of the measured memory power.",
        savings.iter().sum::<f64>() / savings.len().max(1) as f64
    );
}

/// Runs the SRAM/power matrix for a geometry and returns
/// `(algos, sram rows, mem-power rows, eval points)`.
#[allow(clippy::type_complexity)]
pub fn figure_matrix(
    geom: &ImageGeometry,
    backend: MemBackend,
) -> (
    Vec<Algorithm>,
    Vec<Vec<Option<f64>>>,
    Vec<Vec<Option<f64>>>,
    Vec<Vec<EvalPoint>>,
) {
    let algos: Vec<Algorithm> = Algorithm::all().to_vec();
    let mut sram = Vec::new();
    let mut power = Vec::new();
    let mut points = Vec::new();
    for alg in &algos {
        let evals = evaluate(*alg, geom, backend);
        let mut srow = Vec::new();
        let mut prow = Vec::new();
        for style in STYLES {
            match evals.iter().find(|e| e.style == style) {
                Some(e) => {
                    srow.push(Some(e.sram_kb));
                    prow.push(Some(e.mem_power_mw));
                }
                None => {
                    srow.push(None);
                    prow.push(None);
                }
            }
        }
        sram.push(srow);
        power.push(prow);
        points.push(evals);
    }
    (algos, sram, power, points)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evaluate_produces_all_styles_at_320p() {
        // Use a scaled-down geometry with the same structure to keep the
        // test fast; LC availability mirrors 320p (blocks hold 2+ rows).
        let geom = ImageGeometry {
            width: 48,
            height: 32,
            pixel_bits: 16,
        };
        let backend = MemBackend::Asic {
            block_bits: 2 * geom.row_bits(),
        };
        assert!(lc_available(&geom, backend));
        let evals = evaluate(Algorithm::UnsharpM, &geom, backend);
        assert_eq!(evals.len(), 5);
        // Qualitative orderings the paper reports:
        let by = |s: DesignStyle| evals.iter().find(|e| e.style == s).unwrap();
        assert!(
            by(DesignStyle::FixyNn).sram_kb >= by(DesignStyle::Ours).sram_kb,
            "FixyNN uses most SRAM"
        );
        assert!(
            by(DesignStyle::Soda).sram_kb <= by(DesignStyle::Ours).sram_kb,
            "SODA undercuts Ours on SRAM"
        );
        assert!(
            by(DesignStyle::OursLc).sram_kb < by(DesignStyle::Ours).sram_kb,
            "LC reduces SRAM"
        );
    }

    #[test]
    fn reduction_math() {
        assert!((reduction_pct(100.0, 72.0) - 28.0).abs() < 1e-9);
    }

    #[test]
    fn smoke_mode_off_values() {
        for (v, expect) in [
            (Some("1"), true),
            (Some("yes"), true),
            (Some("0"), false),
            (Some("false"), false),
            (Some("off"), false),
            (Some(""), false),
            (Some(" 0 "), false),
            (None, false),
        ] {
            assert_eq!(smoke_value(v), expect, "IMAGEN_SMOKE={v:?}");
        }
    }

    #[test]
    fn smoke_geometries_preserve_lc_structure() {
        // The shrunken frames must keep the paper's coalescing structure:
        // available at "320p" scale, unavailable at "1080p" scale on both
        // backends.
        assert!(lc_available(&SMOKE_GEOM_320, MemBackend::asic_default()));
        assert!(!lc_available(&SMOKE_GEOM_1080, MemBackend::asic_default()));
        assert!(!lc_available(&SMOKE_GEOM_1080, MemBackend::Fpga));
    }
}
