//! `dse-measured`: one thread runs the shipping `imagen dse` default —
//! exhaustive, measured energy (`MeasureMode::default()`), one worker —
//! on a seeded draw of the 10 examples. Measurement (netlist
//! elaboration, gating, two interpretations, power pricing) is most of
//! each sweep.

use crate::common::{
    end_to_end, mean, peak_rss_mb, repeat_setup, run_blocks, Digest, EndToEnd, Metric, Noise, Pass,
    Rng, SetupClock, SETUPS,
};
use crate::inputs::{self, example_index, BACKEND, EXAMPLES};
use crate::layers::{class_rows, overhead_line, overhead_pct};
use crate::{check, Args, Outcome};
use imagen_core::Session;
use imagen_dse::{explore, DsePoint, ExploreOptions, ExploreStrategy, MeasureMode};
use imagen_ir::Dag;
use imagen_mem::{DesignStyle, ImageGeometry, MemorySpec};
use imagen_obs::span;
use std::collections::BTreeMap;

/// Blocks of the op list per second of `--seconds`.
const BLOCKS_PER_S: f64 = 0.25;
/// Sweeps per block. The 512- and 256-point sweeps (canny) are the
/// heavy class the tail (p90 of 130 sweeps: the middle of the canny_s
/// sweeps) falls in; the pyramids and Harris variants sit below it. The
/// 4-point xcorr sweeps, whose cost barely moves with frame size, hold
/// the median: as many sweeps sit below them (sobel, the floor) as
/// above, so the median falls in the middle of the xcorr class, not on
/// its edge.
const PER_BLOCK: [(&str, usize); 10] = [
    ("canny_m", 1),
    ("canny_s", 3),
    ("gaussian_pyramid", 1),
    ("laplacian_pyramid", 1),
    ("harris_m", 1),
    ("harris_s", 1),
    ("xcorr_m", 5),
    ("unsharp_m", 2),
    ("denoise_m", 1),
    ("sobel", 10),
];
/// Warm-up sweeps (cheap pipelines of the first block).
const WARM_UP: [&str; 6] = [
    "sobel",
    "unsharp_m",
    "xcorr_m",
    "denoise_m",
    "harris_s",
    "gaussian_pyramid",
];

#[derive(Clone, Copy)]
pub struct Input {
    pub example: usize,
    pub geom: ImageGeometry,
}

impl Input {
    fn name(&self) -> &'static str {
        EXAMPLES[self.example].0
    }

    fn key(&self) -> (usize, u32, u32) {
        (self.example, self.geom.width, self.geom.height)
    }
}

/// The seeded op list. A pipeline with `n` sweeps in the run takes one
/// geometry from each of `n` pixel-count strata of the grid, so every
/// seed covers the same range of frame sizes. Stratum `k` goes to block
/// `k mod blocks`, counted from the last block for every other pipeline,
/// so large and small frames of the big sweeps share blocks and the
/// blocks cost about the same. The first block, which the set-up sweeps,
/// takes the middle of each of its strata, so the set-up does the same
/// work for every seed.
pub fn draw(seed: u64, blocks: usize) -> Vec<Vec<Input>> {
    let mut rng = Rng::new(seed);
    let grid = inputs::sorted_grid((32, 128), (24, 120));
    let mut list: Vec<Vec<Input>> = vec![Vec::new(); blocks];
    for (i, (name, per_block)) in PER_BLOCK.into_iter().enumerate() {
        let n = per_block * blocks;
        let u = rng.unit();
        // The canny sweeps are most of the run's time and their cost grows
        // steeply with frame size: they take the middle fifth of each
        // stratum, which keeps the seed from moving the run's total.
        let u = if name.starts_with("canny") {
            0.4 + 0.2 * u
        } else {
            u
        };
        for k in 0..n {
            let b = if i % 2 == 0 {
                k % blocks
            } else {
                blocks - 1 - k % blocks
            };
            // The set-up sweeps the first block: the middle of its strata.
            let u = if b == 0 { 0.5 } else { u };
            list[b].push(Input {
                example: example_index(name),
                geom: inputs::stratum_geometry(&grid, k, n, u),
            });
        }
    }
    for block in &mut list {
        rng.shuffle(block);
    }
    list
}

/// What one sweep produced.
pub struct SweepOut {
    pub points: usize,
    pub pivots: u64,
    pub hits: u64,
    pub misses: u64,
    /// Min SRAM and min analytic power over the (area, power) frontier.
    pub sram_kb: f64,
    pub power_mw: f64,
    /// The measured frontier's min-energy point: energy, spec, style.
    pub energy: Option<(f64, MemorySpec, DesignStyle)>,
}

/// Compiles the DSL text and sweeps it, under the harness's spans.
pub fn sweep_op(input: &Input, measure: MeasureMode) -> Result<SweepOut, String> {
    let _op = span("bench.op");
    let (name, source) = EXAMPLES[input.example];
    let dag = {
        let _s = span("bench.dsl_compile");
        imagen_dsl::compile(name, source)
    }
    .map_err(|e| format!("{name}: {e}"))?;
    let res = {
        let _s = span("bench.explore");
        explore(
            &dag,
            &input.geom,
            BACKEND,
            ExploreOptions {
                strategy: ExploreStrategy::Exhaustive,
                threads: 1,
                measure,
            },
        )
    }
    .map_err(|e| format!("{name}: {e}"))?;
    let frontier = res.pareto_front();
    let min =
        |f: &dyn Fn(usize) -> f64| frontier.iter().map(|&i| f(i)).fold(f64::INFINITY, f64::min);
    let energy_of = |p: &DsePoint| p.measured.map_or(f64::INFINITY, |m| m.energy_pj_per_frame);
    let energy = res
        .pareto_front_by(|p| (p.area_mm2, energy_of(p)))
        .into_iter()
        .map(|i| &res.points[i])
        .filter(|p| p.measured.is_some())
        .min_by(|a, b| energy_of(a).total_cmp(&energy_of(b)))
        .map(|p| (energy_of(p), res.spec_of(p, BACKEND), p.design.style));
    Ok(SweepOut {
        points: res.points.len(),
        pivots: res.stats.simplex_pivots,
        hits: res.stats.cache_hits,
        misses: res.stats.cache_misses,
        sram_kb: min(&|i| res.points[i].sram_kb),
        power_mw: min(&|i| res.points[i].power_mw),
        energy,
    })
}

/// Values of a sweep that must repeat exactly on every run.
fn fingerprint(out: &Result<SweepOut, String>) -> Option<[u64; 5]> {
    out.as_ref().ok().map(|o| {
        [
            o.points as u64,
            o.pivots,
            o.sram_kb.to_bits(),
            o.power_mw.to_bits(),
            o.energy.as_ref().map_or(0, |e| e.0.to_bits()),
        ]
    })
}

fn run_pass(
    list: &[Vec<Input>],
    mode: MeasureMode,
    traced: bool,
) -> Pass<Result<SweepOut, String>> {
    run_blocks(
        list,
        traced,
        |input| input.name().to_string(),
        |input| sweep_op(input, mode),
    )
}

/// Re-plans the sweep's min-energy point outside the sweep, interprets
/// its netlist against the golden executor, and requires the
/// re-measured energy to equal the sweep's exactly.
fn check_min_energy(
    dag: &Dag,
    input: &Input,
    spec: &MemorySpec,
    style: DesignStyle,
    energy: f64,
) -> Result<(), String> {
    let session = Session::new(dag, input.geom);
    let plan = session
        .price(spec, Some(style))
        .map_err(|e| e.to_string())?;
    let net = session
        .netlist(spec, Some(style))
        .map_err(|e| e.to_string())?;
    let again = check::interpret_against_golden(&plan.dag, &net, &plan.design)?;
    if again.to_bits() != energy.to_bits() {
        return Err(format!(
            "{} at {}x{}: re-measured energy {again} pJ != swept {energy} pJ",
            input.name(),
            input.geom.width,
            input.geom.height
        ));
    }
    Ok(())
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let blocks = ((args.seconds * BLOCKS_PER_S).round() as usize).max(1);
    let mut warm_prints: Vec<Vec<(usize, Option<[u64; 5]>)>> = Vec::new();
    let (setup_s, list) = repeat_setup(SETUPS, SetupClock::ThreadCpu, || {
        let list = draw(args.seed, blocks);
        warm_prints.push(
            list[0]
                .iter()
                .enumerate()
                .filter(|(_, i)| WARM_UP.contains(&i.name()))
                .map(|(k, i)| (k, fingerprint(&sweep_op(i, MeasureMode::default()))))
                .collect(),
        );
        Ok(list)
    })?;
    let ops: Vec<&Input> = list.iter().flatten().collect();
    println!(
        "dse-measured: seed {} | {blocks} blocks x {} sweeps = {} exhaustive measured sweeps",
        args.seed,
        list[0].len(),
        ops.len()
    );

    let mut noise = Noise::start();
    let pass = run_pass(&list, MeasureMode::default(), false);
    noise.stop(0.0);
    let rss_mb = peak_rss_mb(None);

    let mut failures: Vec<String> = Vec::new();
    let mut failed = vec![false; ops.len()];
    for warm in &warm_prints {
        for (k, print) in warm {
            if fingerprint(&pass.ops[*k]) != *print {
                failed[*k] = true;
                failures.push(format!(
                    "{}: sweep differs from its warm-up",
                    ops[*k].name()
                ));
            }
        }
    }
    let mut digest = Digest::new();
    let mut distinct: BTreeMap<(usize, u32, u32), (f64, f64, f64)> = BTreeMap::new();
    let mut points = 0usize;
    for (i, (input, m)) in ops.iter().zip(&pass.ops).enumerate() {
        let out = match m {
            Ok(o) => o,
            Err(e) => {
                failed[i] = true;
                failures.push(e.clone());
                continue;
            }
        };
        points += out.points;
        fingerprint(m)
            .into_iter()
            .flatten()
            .for_each(|v| digest.add(v));
        let Some((energy, spec, style)) = &out.energy else {
            failed[i] = true;
            failures.push(format!("{}: no measured point", input.name()));
            continue;
        };
        let (name, source) = EXAMPLES[input.example];
        let dag = imagen_dsl::compile(name, source).map_err(|e| e.to_string())?;
        if let Err(e) = check_min_energy(&dag, input, spec, *style, *energy) {
            failed[i] = true;
            failures.push(e);
        }
        distinct
            .entry(input.key())
            .or_insert((out.sram_kb, out.power_mw, *energy));
    }
    println!("{}", noise.line(&pass.timed));
    println!(
        "distinct inputs: {} | design points: {points} | digest {}",
        distinct.len(),
        digest.hex()
    );

    let metrics = if args.trace {
        let traced = run_pass(&list, MeasureMode::default(), true);
        for (i, (a, b)) in pass.ops.iter().zip(&traced.ops).enumerate() {
            if fingerprint(a) != fingerprint(b) {
                failed[i] = true;
                failures.push(format!("{}: traced sweep differs", ops[i].name()));
            }
        }
        let priced = run_pass(&list, MeasureMode::Off, false);
        for (i, m) in priced.ops.iter().enumerate() {
            if let Err(e) = m {
                failed[i] = true;
                failures.push(format!("pricing-only: {e}"));
            }
        }
        report_layers(&pass, &traced, &priced)
    } else {
        end_to_end(
            &pass.timed,
            &EndToEnd {
                setup_s,
                rss_mb,
                sram_kb: distinct.values().map(|v| v.0).sum(),
                power_mw: distinct.values().map(|v| v.1).sum(),
                energy_pj: distinct.values().map(|v| v.2).sum(),
            },
        )
    };
    for f in failures.iter().take(10) {
        println!("FAILED: {f}");
    }
    Ok(Outcome {
        attempted: ops.len() as u64,
        failed: failed.iter().filter(|f| **f).count() as u64,
        metrics,
    })
}

type SweepPass = Pass<Result<SweepOut, String>>;

fn report_layers(untraced: &SweepPass, traced: &SweepPass, priced: &SweepPass) -> Vec<Metric> {
    let l = &traced.layers;
    println!(
        "\n## per-layer self time (dse-measured, {} traced sweeps)\n{}",
        l.ops,
        l.table()
    );
    println!("unattributed share: {:.2}%", 100.0 * l.unattributed_share());
    println!(
        "{}",
        overhead_line(untraced.timed.op_s(), traced.timed.op_s())
    );
    println!(
        "\n## per example (ms per sweep; pyramids still run the legacy walker)\n{}",
        class_rows(
            &traced.classes,
            &[
                "dsl.compile",
                "schedule.skeleton",
                "schedule.formulate",
                "ilp.solve",
                "schedule.realize",
                "rtl.program_build",
                "dse.self",
            ],
        )
    );
    let outs: Vec<&SweepOut> = untraced
        .ops
        .iter()
        .filter_map(|m| m.as_ref().ok())
        .collect();
    let n = outs.len().max(1) as f64;
    let points: f64 = outs.iter().map(|o| o.points as f64).sum();
    let op_s: f64 = untraced.timed.lat_ms.iter().sum::<f64>() / 1e3;
    let (hits, misses) = outs
        .iter()
        .fold((0, 0), |(h, m), o| (h + o.hits, m + o.misses));
    let measured_ms = mean(&untraced.timed.lat_ms);
    let priced_ms = mean(&priced.timed.lat_ms);
    println!(
        "measured over priced: {:.3} = {measured_ms:.3} ms per measured sweep / {priced_ms:.3} ms per pricing-only sweep (same {} sweeps, untraced)",
        measured_ms / priced_ms.max(1e-9),
        priced.ops.len()
    );
    let mut m = crate::layer_metrics(l);
    m.extend([
        (
            "ilp.pivots",
            outs.iter().map(|o| o.pivots as f64).sum::<f64>() / n,
        ),
        ("dse.points", points / n),
        ("dse.points_per_s", points / op_s.max(1e-9)),
        ("dse.pricing_only_ms", priced_ms),
        (
            "dse.measured_over_priced",
            measured_ms / priced_ms.max(1e-9),
        ),
        (
            "core.cache_hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
        ),
        (
            "obs.tracing_overhead_pct",
            overhead_pct(untraced.timed.op_s(), traced.timed.op_s()),
        ),
    ]);
    crate::per_layer(m)
}
