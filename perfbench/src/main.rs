//! The ImaGen benchmark: three workloads with fixed, seeded work per run.
//!
//! ```text
//! perfbench --workload compile-cold|dse-measured|serve-zipf --seed N
//!           --seconds S --trace 0|1 [--imagen PATH]
//! ```
//!
//! `--seconds` fixes the length of the op list (a nominal rate per
//! workload times `S`); the clock never decides which ops run. With
//! `--trace 0` the last stdout line carries the end-to-end metrics, with
//! `--trace 1` the per-layer metrics of a traced rerun of the same op
//! list. `python3 perfbench/run.py` builds the harness and the `imagen`
//! binary and passes `--imagen`; see `perfbench/README.md`.

mod calib;
mod check;
mod common;
mod compile_cold;
mod dse_measured;
mod inputs;
mod json;
mod layers;
mod serve_zipf;

use common::{metric, result_line, Metric};
use layers::Layers;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub imagen: Option<String>,
}

/// A finished run: ops attempted and failed, and the metrics to print.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

/// Every per-layer metric, in `BENCHMARK.json` order. A traced run
/// prints all of them; a layer the workload does not exercise reads 0.
const PER_LAYER: [(&str, &str); 30] = [
    ("analysis.admission_ms", "ms"),
    ("dsl.compile_ms", "ms"),
    ("schedule.skeleton_ms", "ms"),
    ("schedule.formulate_ms", "ms"),
    ("ilp.solve_ms", "ms"),
    ("ilp.pivots", "count"),
    ("schedule.realize_ms", "ms"),
    ("rtl.netlist_build_ms", "ms"),
    ("rtl.emit_ms", "ms"),
    ("analysis.certify_ms", "ms"),
    ("analysis.obligations", "count"),
    ("core.self_ms", "ms"),
    ("dse.points", "count"),
    ("dse.points_per_s", "1/s"),
    ("dse.self_ms", "ms"),
    ("rtl.program_build_ms", "ms"),
    ("dse.pricing_only_ms", "ms"),
    ("dse.measured_over_priced", "ratio"),
    ("cli.handle_ms", "ms"),
    ("cli.transport_ms", "ms"),
    ("cli.cold_ms_p50", "ms"),
    ("cli.warm_ms_p50", "ms"),
    ("cli.unattributed_ms", "ms"),
    ("core.cache_hit_ratio", "ratio"),
    ("cli.rollovers", "count"),
    ("cli.live_sessions", "count"),
    ("cli.queue_wait_ms_p99", "ms"),
    ("cli.response_bytes", "B"),
    ("obs.unattributed_share", "ratio"),
    ("obs.tracing_overhead_pct", "%"),
];

/// The span-derived per-layer metrics of in-process ops: self ms per op.
pub fn layer_metrics(l: &Layers) -> Vec<(&'static str, f64)> {
    let mut m: Vec<(&'static str, f64)> = [
        ("analysis.admission_ms", "analysis.admission"),
        ("dsl.compile_ms", "dsl.compile"),
        ("schedule.skeleton_ms", "schedule.skeleton"),
        ("schedule.formulate_ms", "schedule.formulate"),
        ("ilp.solve_ms", "ilp.solve"),
        ("schedule.realize_ms", "schedule.realize"),
        ("rtl.netlist_build_ms", "rtl.netlist_build"),
        ("rtl.emit_ms", "rtl.emit"),
        ("analysis.certify_ms", "analysis.certify"),
        ("core.self_ms", "core.self"),
        ("dse.self_ms", "dse.self"),
        ("rtl.program_build_ms", "rtl.program_build"),
    ]
    .into_iter()
    .map(|(metric, layer)| (metric, l.ms_per_op(layer)))
    .collect();
    m.push(("obs.unattributed_share", l.unattributed_share()));
    m
}

/// All per-layer metrics, taking values from `values` and 0 elsewhere.
pub fn per_layer(values: Vec<(&'static str, f64)>) -> Vec<Metric> {
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let v = values
                .iter()
                .rev()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |(_, v)| *v);
            metric(name, v, unit)
        })
        .collect()
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        imagen: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--imagen" => args.imagen = Some(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() {
    let outcome = parse_args().and_then(|args| match args.workload.as_str() {
        "compile-cold" => compile_cold::run(&args),
        "dse-measured" => dse_measured::run(&args),
        "serve-zipf" => serve_zipf::run(&args),
        other => Err(format!(
            "unknown workload `{other}` (compile-cold, dse-measured, serve-zipf)"
        )),
    });
    match outcome {
        Ok(o) => {
            println!(
                "{}",
                result_line(o.failed == 0, o.attempted, o.failed, &o.metrics)
            );
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
