//! `compile-cold`: one thread compiles a seeded draw of pipelines, each
//! op on a fresh session, the way `imagen serve` answers a compile
//! request (admission lints, DSL, session, plan, netlist, Verilog,
//! certificate). Nothing is interpreted and no cache is hit, so the
//! network-flow/ILP layer dominates.

use crate::common::{
    end_to_end, peak_rss_mb, repeat_setup, run_blocks, Digest, EndToEnd, Metric, Noise, Pass, Rng,
    SetupClock, SETUPS,
};
use crate::inputs::{self, EXAMPLES};
use crate::layers::{class_rows, overhead_line, overhead_pct};
use crate::{check, Args, Outcome};
use imagen_analysis::{certify_netlist, front_lints, AnalysisOptions, Severity};
use imagen_core::Session;
use imagen_ir::Dag;
use imagen_mem::{Design, ImageGeometry};
use imagen_obs::span;
use imagen_rtl::Netlist;
use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

/// Blocks of the op list per second of `--seconds`. The op list is a
/// fixed function of the seed and `--seconds`, never of the clock.
const BLOCKS_PER_S: f64 = 1.7;
const GRID_W: (u32, u32) = (64, 640);
const GRID_H: (u32, u32) = (48, 480);

type Band = (&'static str, &'static [(usize, usize)], bool);

/// The synthetic part of a block: `(class, stage-count strata, coalesce)`.
/// Each stratum `(lo, hi)` contributes one DAG of `lo..=hi` stages. The
/// light band sits below the median, the two mid bands (plain and
/// coalesced, about equally costly) straddle it, and the tail falls
/// inside the coalesced 60-stage band.
const BANDS: [Band; 5] = [
    ("light", &[(9, 16), (17, 24), (25, 32)], false),
    ("mid", &[(33, 35), (36, 38), (39, 41), (42, 44)], false),
    ("mid+lc", &[(24, 25), (26, 27), (28, 29), (30, 31)], true),
    ("heavy+lc", &[(45, 49), (50, 54), (55, 59)], true),
    ("peak60+lc", &[(60, 60)], true),
];

/// One compile request.
pub struct Input {
    /// Row of the per-class table.
    pub class: String,
    pub name: String,
    pub source: String,
    pub geom: ImageGeometry,
    pub coalesce: bool,
    pub example: bool,
}

type Key = (String, u32, u32, bool);

impl Input {
    pub fn key(&self) -> Key {
        (
            self.name.clone(),
            self.geom.width,
            self.geom.height,
            self.coalesce,
        )
    }

    pub fn describe(&self) -> String {
        format!(
            "{} at {}x{}{}",
            self.name,
            self.geom.width,
            self.geom.height,
            if self.coalesce { " coalesced" } else { "" }
        )
    }
}

/// Example pipelines per block.
const EXAMPLES_PER_BLOCK: usize = 2;
/// Seed of the first block's synthetic DAGs: the set-up compiles that
/// block as its warm-up, so it does the same work for every `--seed`.
const WARM_UP_SEED: u64 = 0x57A7_0B10;

/// The seeded op list, in blocks of equal composition: the synthetic
/// bands above (DAGs of 9..=60 stages, just over half coalesced) and two
/// example pipelines, rotating through all 10. An example's appearances
/// take one geometry from each of as many pixel-count strata of the
/// grid, alternating line coalescing. The first block's synthetic DAGs
/// come from `WARM_UP_SEED`.
pub fn draw(seed: u64, blocks: usize) -> Vec<Vec<Input>> {
    let mut rng = Rng::new(seed);
    let grid = inputs::sorted_grid(GRID_W, GRID_H);
    let offset = rng.below(EXAMPLES.len());
    let lc_start: Vec<bool> = EXAMPLES.iter().map(|_| rng.coin()).collect();
    let stratum_u: Vec<f64> = EXAMPLES.iter().map(|_| rng.unit()).collect();
    let slots = blocks * EXAMPLES_PER_BLOCK;
    let example_at = |slot: usize| (slot + offset) % EXAMPLES.len();
    let mut warm_up = Rng::new(WARM_UP_SEED);
    (0..blocks)
        .map(|b| {
            let rng = if b == 0 { &mut warm_up } else { &mut rng };
            let mut block = Vec::new();
            for (class, strata, coalesce) in BANDS {
                for &(lo, hi) in strata {
                    let stages = lo + rng.below(hi - lo + 1);
                    let (name, source) = inputs::synthetic(stages, rng);
                    block.push(Input {
                        class: class.to_string(),
                        name,
                        source,
                        geom: inputs::grid_geometry(rng, GRID_W, GRID_H),
                        coalesce,
                        example: false,
                    });
                }
            }
            for slot in b * EXAMPLES_PER_BLOCK..(b + 1) * EXAMPLES_PER_BLOCK {
                let e = example_at(slot);
                let j = slot / EXAMPLES.len();
                let n = (0..slots).filter(|&s| example_at(s) == e).count();
                let (name, source) = EXAMPLES[e];
                block.push(Input {
                    class: name.to_string(),
                    name: name.to_string(),
                    source: source.to_string(),
                    geom: inputs::stratum_geometry(&grid, j, n, stratum_u[e]),
                    coalesce: lc_start[e] ^ (j % 2 == 1),
                    example: true,
                });
            }
            rng.shuffle(&mut block);
            block
        })
        .collect()
}

/// What the checks need of an example compile.
pub struct Kept {
    pub dag: Dag,
    pub net: Arc<Netlist>,
    pub design: Design,
}

/// The deterministic outputs of one compile.
pub struct OpOut {
    pub sram_kb: f64,
    pub power_mw: f64,
    pub obligations: usize,
    pub proved: bool,
    /// Compile-cache `(hits, misses)` of the op's session.
    pub cache: (usize, usize),
    pub kept: Option<Kept>,
}

/// Compiles `input` the way serve answers a compile request, under the
/// harness's spans (inert unless a collector is installed).
pub fn compile_op(input: &Input, keep: bool) -> Result<OpOut, String> {
    let _op = span("bench.op");
    let spec = inputs::spec(input.coalesce);
    let aopts = inputs::admission_options(input.geom, &spec);
    let lint = {
        let _s = span("bench.front_lints");
        front_lints(&input.name, &input.source, &aopts)
    };
    if let Some(d) = lint
        .diagnostics
        .iter()
        .find(|d| d.severity == Severity::Error)
    {
        return Err(format!("{}: admission: {}", input.name, d.message));
    }
    let dag = {
        let _s = span("bench.dsl_compile");
        imagen_dsl::compile(&input.name, &input.source)
    }
    .map_err(|e| format!("{}: {e}", input.name))?;
    let session = {
        let _s = span("bench.session_new");
        Session::new(&dag, input.geom)
    };
    let out = {
        let _s = span("bench.session_compile");
        session.compile(&spec, None)
    }
    .map_err(|e| format!("{}: {e}", input.describe()))?;
    let cert = {
        let _s = span("bench.certify");
        let opts = AnalysisOptions {
            widths: out.netlist.widths,
            ..aopts
        };
        certify_netlist(&out.plan.dag, &out.netlist, &opts)
    };
    // The remaining fields serve derives for its response.
    let design = &out.plan.design;
    std::hint::black_box((
        dag.stats(),
        out.plan
            .schedule
            .latency(&out.plan.dag, input.geom.width, input.geom.height),
        out.verilog.lines().count(),
    ));
    let result = OpOut {
        sram_kb: design.sram_kb(),
        power_mw: design.total_power_mw(),
        obligations: cert.obligations.len(),
        proved: cert.status() == "proved",
        cache: session.cache().stats(),
        kept: None,
    };
    Ok(if keep {
        OpOut {
            kept: Some(Kept {
                design: out.plan.design,
                dag: out.plan.dag,
                net: out.netlist,
            }),
            ..result
        }
    } else {
        result
    })
}

/// One op's result with its exact ILP pivot count.
pub struct Measured {
    pub pivots: u64,
    pub out: Result<OpOut, String>,
}

impl Measured {
    /// Values that must repeat exactly on every run of the same input.
    pub fn fingerprint(&self) -> Option<[u64; 5]> {
        self.out.as_ref().ok().map(|o| {
            [
                o.sram_kb.to_bits(),
                o.power_mw.to_bits(),
                self.pivots,
                o.obligations as u64,
                u64::from(o.proved),
            ]
        })
    }
}

/// Runs one op, counting its pivots (exact: one op at a time).
pub fn measure(input: &Input, keep: bool) -> Measured {
    let pivots = imagen_ilp::stats::pivot_count();
    let out = compile_op(input, keep);
    Measured {
        pivots: imagen_ilp::stats::pivot_count() - pivots,
        out,
    }
}

/// One pass over the op list; `keep_examples` keeps what the checks need
/// of each distinct example input's first compile.
fn run_pass(blocks: &[Vec<Input>], traced: bool, keep_examples: bool) -> Pass<Measured> {
    let mut kept: HashSet<Key> = HashSet::new();
    run_blocks(
        blocks,
        traced,
        |input| input.class.clone(),
        |input| {
            measure(
                input,
                keep_examples && input.example && kept.insert(input.key()),
            )
        },
    )
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let blocks = ((args.seconds * BLOCKS_PER_S).round() as usize).max(1);
    // Set-up: draw the op list and compile its first block, untimed.
    // Done SETUPS times; the warm-up results double as the determinism
    // reference for the timed first block.
    let mut warm_prints: Vec<Vec<Option<[u64; 5]>>> = Vec::new();
    let (setup_s, list) = repeat_setup(SETUPS, SetupClock::ThreadCpu, || {
        let list = draw(args.seed, blocks);
        warm_prints.push(
            list[0]
                .iter()
                .map(|i| measure(i, false).fingerprint())
                .collect(),
        );
        Ok(list)
    })?;
    let ops: Vec<&Input> = list.iter().flatten().collect();
    println!(
        "compile-cold: seed {} | {blocks} blocks x {} ops = {} cold compiles",
        args.seed,
        list[0].len(),
        ops.len()
    );

    let mut noise = Noise::start();
    let pass = run_pass(&list, false, true);
    noise.stop(0.0);
    let rss_mb = peak_rss_mb(None);

    let mut failures: Vec<String> = Vec::new();
    let mut failed = vec![false; ops.len()];
    for (i, m) in pass.ops.iter().enumerate() {
        match &m.out {
            Err(e) => {
                failed[i] = true;
                failures.push(e.clone());
            }
            Ok(o) if !o.proved => {
                failed[i] = true;
                failures.push(format!("{}: certificate not proved", ops[i].name));
            }
            Ok(_) => {}
        }
    }
    for (i, m) in pass.ops.iter().enumerate().take(list[0].len()) {
        if warm_prints.iter().any(|w| w[i] != m.fingerprint()) {
            failed[i] = true;
            failures.push(format!(
                "{}: result differs from its warm-up compile",
                ops[i].name
            ));
        }
    }

    // Oracle checks, untimed: every distinct example input interpreted
    // on 4-bit noise against the golden executor.
    let mut energy_by_key: BTreeMap<Key, f64> = BTreeMap::new();
    let mut bad_keys: Vec<Key> = Vec::new();
    for (input, m) in ops.iter().zip(&pass.ops) {
        if let Ok(OpOut { kept: Some(k), .. }) = &m.out {
            match check::interpret_against_golden(&k.dag, &k.net, &k.design) {
                Ok(e) => {
                    energy_by_key.insert(input.key(), e);
                }
                Err(e) => {
                    failures.push(e);
                    bad_keys.push(input.key());
                }
            }
        }
    }
    for (i, input) in ops.iter().enumerate() {
        if bad_keys.contains(&input.key()) {
            failed[i] = true;
        }
    }

    // Deterministic totals over the run's distinct inputs.
    let mut distinct: BTreeMap<Key, (f64, f64)> = BTreeMap::new();
    let mut digest = Digest::new();
    for (input, m) in ops.iter().zip(&pass.ops) {
        if let (Some(p), Ok(o)) = (m.fingerprint(), &m.out) {
            distinct
                .entry(input.key())
                .or_insert((o.sram_kb, o.power_mw));
            p.iter().for_each(|v| digest.add(*v));
        }
    }
    let sram_kb: f64 = distinct.values().map(|v| v.0).sum();
    let power_mw: f64 = distinct.values().map(|v| v.1).sum();
    let energy_pj: f64 = energy_by_key.values().sum();
    println!("{}", noise.line(&pass.timed));
    println!(
        "distinct inputs: {} ({} examples checked against the golden executor) | digest {}",
        distinct.len(),
        energy_by_key.len(),
        digest.hex()
    );

    let metrics: Vec<Metric> = if args.trace {
        let traced = run_pass(&list, true, false);
        for (i, (a, b)) in pass.ops.iter().zip(&traced.ops).enumerate() {
            if a.fingerprint() != b.fingerprint() {
                failed[i] = true;
                failures.push(format!("{}: traced result differs", ops[i].name));
            }
        }
        report_layers(&pass, &traced)
    } else {
        end_to_end(
            &pass.timed,
            &EndToEnd {
                setup_s,
                rss_mb,
                sram_kb,
                power_mw,
                energy_pj,
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

/// Prints the traced run's tables and returns its per-layer metrics.
fn report_layers(untraced: &Pass<Measured>, traced: &Pass<Measured>) -> Vec<Metric> {
    let l = &traced.layers;
    println!(
        "\n## per-layer self time (compile-cold, {} traced ops)\n{}",
        l.ops,
        l.table()
    );
    println!("unattributed share: {:.2}%", 100.0 * l.unattributed_share());
    println!(
        "{}",
        overhead_line(untraced.timed.op_s(), traced.timed.op_s())
    );
    println!(
        "\n## per class (ms per op)\n{}",
        class_rows(
            &traced.classes,
            &[
                "analysis.admission",
                "dsl.compile",
                "schedule.skeleton",
                "schedule.formulate",
                "ilp.solve",
                "schedule.realize",
                "rtl.netlist_build",
                "rtl.emit",
                "analysis.certify",
                "core.self",
            ],
        )
    );
    let n = traced.ops.len().max(1) as f64;
    let ok: Vec<&OpOut> = traced
        .ops
        .iter()
        .filter_map(|m| m.out.as_ref().ok())
        .collect();
    let (hits, lookups) = ok.iter().fold((0, 0), |(h, t), o| {
        (h + o.cache.0, t + o.cache.0 + o.cache.1)
    });
    let mut m = crate::layer_metrics(l);
    m.extend([
        (
            "ilp.pivots",
            traced.ops.iter().map(|o| o.pivots as f64).sum::<f64>() / n,
        ),
        (
            "analysis.obligations",
            ok.iter().map(|o| o.obligations as f64).sum::<f64>() / n,
        ),
        ("core.cache_hit_ratio", hits as f64 / lookups.max(1) as f64),
        (
            "obs.tracing_overhead_pct",
            overhead_pct(untraced.timed.op_s(), traced.timed.op_s()),
        ),
    ]);
    println!("compile cache: {hits} hits of {lookups} lookups (fresh session per op)");
    crate::per_layer(m)
}
