//! Human-readable renderings of the compiler's artifacts, plus the
//! bodies of the `compile` / `dse` / `sim` / `energy` subcommands.
//!
//! Output is deterministic by construction (no timestamps, no pointer
//! values, no wall-clock durations outside the `--profile` trailer), so
//! the CLI integration tests pin `compile` and `dse` text against golden
//! files.

use crate::json::{self, Json};
use crate::{CliError, Options};
use imagen_analysis::certify_dag_styled;
use imagen_core::{Compiler, Session};
use imagen_dse::{explore, ExploreOptions, ExploreStrategy, MeasureMode};
use imagen_ir::{Dag, StageId};
use imagen_obs::Collector;
use imagen_rtl::{build_netlist, describe, interpret, report_resources, BitWidths};
use imagen_sim::{execute, Image};
use std::sync::Arc;

/// Renders a DSL error with its source span:
///
/// ```text
/// error: expected `;`, found `end` at 2:27
///   --> blur.imagen:2:27
///    |
///  2 | output b = im(x,y) a(x,y) end
///    |                           ^
/// ```
pub fn render_dsl_error(path: &str, src: &str, err: &imagen_dsl::DslError) -> String {
    let mut out = format!("error: {err}");
    if let Some(pos) = err.pos() {
        if let Some(line) = src.lines().nth(pos.line as usize - 1) {
            let line = line.replace('\t', " ");
            let gutter = pos.line.to_string();
            let pad = " ".repeat(gutter.len());
            let caret = " ".repeat((pos.col as usize).saturating_sub(1));
            out.push_str(&format!(
                "\n  --> {path}:{}:{}\n {pad} |\n {gutter} | {line}\n {pad} | {caret}^",
                pos.line, pos.col
            ));
        }
    }
    out
}

fn header(dag: &Dag, opts: &Options) -> String {
    let stats = dag.stats();
    let backend = if opts.fpga {
        "FPGA 36 Kbit BRAMs".to_string()
    } else {
        format!("ASIC {}-bit blocks", opts.block_bits)
    };
    format!(
        "# {}\n\npipeline : {} stages, {} edges, {} multi-consumer, max stencil height {}\ngeometry : {}\nmemory   : {backend}, {} port(s), coalescing {}\n",
        dag.name(),
        stats.stages,
        stats.edges,
        stats.multi_consumer_stages,
        stats.max_stencil_height,
        opts.geometry(),
        opts.ports,
        if opts.coalesce { "on" } else { "off" },
    )
}

/// `imagen compile`: the full Fig. 5 flow on one pipeline.
pub fn run_compile(dag: &Dag, opts: &Options) -> Result<(), String> {
    let out = Compiler::new(opts.geometry(), opts.memory_spec())
        .compile_dag(dag)
        .map_err(|e| e.to_string())?;
    let plan = &out.plan;
    let design = &plan.design;

    let mut text = header(dag, opts);
    text.push_str(&format!("style    : {}\n", design.style.label()));

    text.push_str("\n## Schedule (ILP start cycles)\n\n");
    // The rate column appears only on multirate pipelines, so unit-rate
    // `compile` output stays byte-identical to its golden pins.
    let multirate = plan.dag.is_multirate();
    for (id, stage) in plan.dag.stages() {
        if multirate {
            text.push_str(&format!(
                "  {:<12} @ {:<8} rate {}\n",
                stage.name(),
                plan.schedule.start(id),
                stage.rate()
            ));
        } else {
            text.push_str(&format!(
                "  {:<12} @ {}\n",
                stage.name(),
                plan.schedule.start(id)
            ));
        }
    }

    text.push_str("\n## Line buffers\n\n");
    for buf in &design.buffers {
        let name = plan.dag.stage(StageId::from_index(buf.stage)).name();
        text.push_str(&format!(
            "  {:<12} {} rows ({} physical) in {} block(s), {} rows/block\n",
            name,
            buf.logical_rows,
            buf.layout.phys_rows(),
            buf.blocks.len(),
            buf.layout.rows_per_block()
        ));
    }

    text.push_str("\n## Cost model\n\n");
    text.push_str(&format!(
        "  SRAM allocated : {:.3} KB over {} block(s)\n",
        design.sram_kb(),
        design.block_count()
    ));
    text.push_str(&format!(
        "  total area     : {:.4} mm2\n",
        design.total_area_mm2()
    ));
    text.push_str(&format!(
        "  total power    : {:.3} mW\n",
        design.total_power_mw()
    ));
    text.push_str(&format!(
        "  latency        : {} cycles/frame\n",
        plan.schedule.latency(&plan.dag, opts.width, opts.height)
    ));

    let res = report_resources(&out.netlist.structure, &out.netlist.widths);
    text.push_str("\n## Netlist resources\n\n");
    text.push_str(&format!(
        "  SRAM macros    : {} ({} bits)\n  flip-flops     : {} bits\n  operators      : {} add, {} mul, {} div, {} cmp, {} mux\n",
        res.sram_blocks,
        res.sram_bits,
        res.flipflop_bits,
        res.adders,
        res.multipliers,
        res.dividers,
        res.comparators,
        res.muxes
    ));

    let verilog_lines = out.verilog.lines().count();
    text.push_str(&format!(
        "\n## Verilog\n\n  {} lines (use --emit or -o FILE for the text)\n",
        verilog_lines
    ));

    out!("{text}");
    if opts.emit {
        outln!("\n{}", out.verilog);
    }
    if let Some(path) = &opts.output {
        std::fs::write(path, &out.verilog).map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("wrote {verilog_lines} lines of Verilog to {path}");
    }
    Ok(())
}

/// `imagen compile --profile` / `imagen dse --profile`: the same
/// subcommand wrapped in a span collector covering the *whole*
/// invocation (front end included), with a phase-breakdown trailer and
/// an optional Chrome trace file. The trailer is non-deterministic by
/// nature (wall-clock durations).
pub fn run_profiled(cmd: &str, opts: &Options) -> Result<(), CliError> {
    let collector = Arc::new(Collector::new());
    let pivots_before = imagen_ilp::stats::pivot_count();
    let result = imagen_obs::with_collector(&collector, || -> Result<(), CliError> {
        let (_, dag) = crate::load_pipeline(opts)?;
        crate::validate_geometry(&opts.geometry())?;
        match cmd {
            "compile" => Ok(run_compile(&dag, opts)?),
            _ => run_dse(&dag, opts),
        }
    });
    let pivots = imagen_ilp::stats::pivot_count() - pivots_before;

    let totals = collector.phase_totals();
    outln!("\n## Profile (non-deterministic)\n");
    if totals.is_empty() {
        outln!("  no spans recorded");
    } else {
        let name_w = totals
            .iter()
            .map(|t| t.name.len())
            .max()
            .unwrap_or(5)
            .max("phase".len());
        outln!("  {:<name_w$}  {:>6}  {:>12}", "phase", "calls", "total ms");
        for t in &totals {
            outln!(
                "  {:<name_w$}  {:>6}  {:>12.3}",
                t.name,
                t.count,
                t.total_ns as f64 / 1e6
            );
        }
    }
    outln!("  solver pivots  : {pivots}");
    if let Some(path) = &opts.trace_out {
        let trace = collector.chrome_trace_json(&format!("imagen {cmd}"));
        std::fs::write(path, trace)
            .map_err(|e| CliError::Usage(format!("cannot write {path}: {e}")))?;
        eprintln!("wrote Chrome trace to {path}");
    }
    result
}

/// `imagen stats <snapshot.json>`: render an `imagen-metrics/1` snapshot
/// (as exported by the serve `"cmd":"stats"` response, whose `metrics`
/// member is accepted directly) as text tables.
pub fn run_stats(opts: &Options) -> Result<(), CliError> {
    let path = opts
        .file
        .as_deref()
        .ok_or_else(|| CliError::Usage("missing <snapshot.json> argument".into()))?;
    let src = std::fs::read_to_string(path)
        .map_err(|e| CliError::Usage(format!("cannot read {path}: {e}")))?;
    let v = json::parse(&src).map_err(|e| CliError::Usage(format!("{path}: {e}")))?;
    // Accept either a bare metrics snapshot or a serve stats response
    // that embeds one under `metrics`.
    let snap = match v.get("metrics") {
        Some(m) => m.clone(),
        None => v,
    };
    let schema = snap.get("schema").and_then(Json::as_str).unwrap_or("");
    if schema != imagen_obs::SNAPSHOT_SCHEMA {
        return Err(CliError::Usage(format!(
            "{path}: not an {} snapshot (schema: `{schema}`)",
            imagen_obs::SNAPSHOT_SCHEMA
        )));
    }

    let members = |key: &str| -> Vec<(String, Json)> {
        match snap.get(key) {
            Some(Json::Obj(m)) => m.clone(),
            _ => Vec::new(),
        }
    };
    let mut text = format!("# imagen stats — {path}\n");
    let counters = members("counters");
    let gauges = members("gauges");
    if !counters.is_empty() || !gauges.is_empty() {
        let name_w = counters
            .iter()
            .chain(&gauges)
            .map(|(k, _)| k.len())
            .max()
            .unwrap_or(4)
            .max("name".len());
        text.push_str("\n## Counters and gauges\n\n");
        for (k, v) in counters.iter().chain(&gauges) {
            text.push_str(&format!("  {k:<name_w$}  {}\n", v.to_line()));
        }
    }
    let hists = members("histograms");
    if !hists.is_empty() {
        let name_w = hists
            .iter()
            .map(|(k, _)| k.len())
            .max()
            .unwrap_or(4)
            .max("histogram".len());
        text.push_str(&format!(
            "\n## Histograms\n\n  {:<name_w$}  {:>8}  {:>10}  {:>8}  {:>8}  {:>8}  {:>8}  {:>8}\n",
            "histogram", "count", "mean", "min", "p50", "p90", "p99", "max"
        ));
        for (k, h) in &hists {
            let f = |key: &str| h.get(key).and_then(Json::as_u64).unwrap_or(0);
            let (count, sum) = (f("count"), f("sum"));
            let mean = if count == 0 {
                0.0
            } else {
                sum as f64 / count as f64
            };
            text.push_str(&format!(
                "  {k:<name_w$}  {count:>8}  {mean:>10.1}  {:>8}  {:>8}  {:>8}  {:>8}  {:>8}\n",
                f("min"),
                f("p50"),
                f("p90"),
                f("p99"),
                f("max")
            ));
        }
    }
    // Derived: cache hit rate, when the snapshot carries cache traffic.
    let counter = |name: &str| {
        counters
            .iter()
            .find(|(k, _)| k == name)
            .and_then(|(_, v)| v.as_u64())
            .unwrap_or(0)
    };
    let (hits, misses) = (counter("cache.hits"), counter("cache.misses"));
    if hits + misses > 0 {
        text.push_str(&format!(
            "\ncache hit rate: {:.1}% ({hits} hit(s), {misses} miss(es))\n",
            100.0 * hits as f64 / (hits + misses) as f64
        ));
    }
    out!("{text}");
    Ok(())
}

/// Largest accepted random-strategy budget — the same 2^16 points the
/// exhaustive guard allows. Beyond the explored space's size, `explore`
/// falls back to full enumeration, so an uncapped `samples` would let
/// one request sweep a 2^20+ space the exhaustive guard exists to
/// reject.
pub(crate) const MAX_DSE_SAMPLES: usize = 1 << 16;

/// One strategy-name parser for the CLI and the batch server, so the two
/// front ends cannot drift apart.
pub(crate) fn parse_strategy(
    label: &str,
    samples: usize,
    seed: u64,
) -> Result<ExploreStrategy, String> {
    match label {
        "exhaustive" => Ok(ExploreStrategy::Exhaustive),
        "greedy" => Ok(ExploreStrategy::Greedy),
        "random" => {
            if samples > MAX_DSE_SAMPLES {
                return Err(format!("samples capped at {MAX_DSE_SAMPLES}"));
            }
            Ok(ExploreStrategy::Random { samples, seed })
        }
        other => Err(format!(
            "unknown strategy `{other}` (expected exhaustive, greedy, or random)"
        )),
    }
}

/// Rejects exhaustive sweeps whose point count would be absurd; shared by
/// the CLI and the batch server.
pub(crate) fn check_exhaustive_size(
    strategy: ExploreStrategy,
    buffered_stages: usize,
) -> Result<(), String> {
    if matches!(strategy, ExploreStrategy::Exhaustive) && buffered_stages > 16 {
        return Err(format!(
            "{buffered_stages} buffered stages make 2^{buffered_stages} exhaustive points; use strategy random or greedy"
        ));
    }
    Ok(())
}

/// `imagen dse`: walk the per-stage DP/DPLC space, print every point and
/// the Pareto frontier; with `--certify`, translation-validate each
/// frontier design before reporting it.
pub fn run_dse(dag: &Dag, opts: &Options) -> Result<(), CliError> {
    let strategy = parse_strategy(&opts.strategy, opts.samples, opts.seed)?;
    check_exhaustive_size(strategy, dag.buffered_stages().len())?;
    let res = explore(
        dag,
        &opts.geometry(),
        opts.backend(),
        ExploreOptions {
            strategy,
            threads: opts.threads,
            measure: MeasureMode::default(),
        },
    )
    .map_err(|e| e.to_string())?;

    let mut text = header(dag, opts);
    let names: Vec<&str> = res
        .buffered_stages
        .iter()
        .map(|&s| dag.stage(StageId::from_index(s)).name())
        .collect();
    text.push_str(&format!(
        "strategy : {}\nbuffers  : {}\n\n## Design space ({} points)\n\n",
        opts.strategy,
        names.join(", "),
        res.points.len()
    ));

    let frontier = res.pareto_front();
    let choice_width = res
        .points
        .iter()
        .map(|p| choices_label(p).len())
        .max()
        .unwrap_or(8)
        .max("choices".len());
    text.push_str(&format!(
        "  point  {:<cw$}  {:>9}  {:>9}  {:>9}  {:>10}  {:>9}  pareto\n",
        "choices",
        "SRAM KB",
        "area mm2",
        "power mW",
        "meas mW",
        "gated mW",
        cw = choice_width
    ));
    for (i, p) in res.points.iter().enumerate() {
        let (meas, gated) = match p.measured {
            Some(m) => (
                format!("{:.3}", m.power_mw),
                format!("{:.3}", m.gated_power_mw),
            ),
            None => ("-".to_string(), "-".to_string()),
        };
        text.push_str(&format!(
            "  {i:>5}  {:<cw$}  {:>9.3}  {:>9.4}  {:>9.3}  {meas:>10}  {gated:>9}  {}\n",
            choices_label(p),
            p.sram_kb,
            p.area_mm2,
            p.power_mw,
            if frontier.contains(&i) { "*" } else { "" },
            cw = choice_width
        ));
    }
    text.push_str(&format!(
        "\nPareto frontier: {} of {} points ({})\n",
        frontier.len(),
        res.points.len(),
        frontier
            .iter()
            .map(|i| i.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    ));
    // The measured-energy axis (netlist activity, default-on) has its
    // own frontier: area vs measured energy per frame.
    let measured_front = res.pareto_front_by(|p| {
        (
            p.area_mm2,
            p.measured.map_or(f64::NAN, |m| m.energy_pj_per_frame),
        )
    });
    if !measured_front.is_empty() {
        text.push_str(&format!(
            "Measured frontier (area vs pJ/frame): {} of {} points ({})\n",
            measured_front.len(),
            res.points.len(),
            measured_front
                .iter()
                .map(|i| i.to_string())
                .collect::<Vec<_>>()
                .join(", ")
        ));
    }

    // --profile: the sweep's work counters (the span breakdown itself is
    // printed by `run_profiled` after this returns).
    if opts.profile {
        let s = res.stats;
        let hit_rate = if s.points_priced == 0 {
            0.0
        } else {
            100.0 * s.cache_hits as f64 / s.points_priced as f64
        };
        text.push_str(&format!(
            "\n## Sweep work\n\n  points priced      : {}\n  cache hits         : {} ({hit_rate:.1}%)\n  cache misses       : {}\n  solver pivots      : {}\n  formulation pieces : {}\n  port checks        : {}\n  port scans         : {}\n  block sweeps       : {}\n",
            s.points_priced,
            s.cache_hits,
            s.cache_misses,
            s.simplex_pivots,
            s.formulation_pieces,
            s.port_checks,
            s.port_scans,
            s.block_sweeps
        ));
    }

    // --certify: translation-validate every frontier design. Each point
    // chooses its own memory spec (DP vs DPLC per buffer), so the
    // certificate runs against that point's spec and design style.
    let mut refuted_points = 0usize;
    if opts.certify {
        text.push_str(&format!(
            "\n## Frontier certificates ({} points)\n\n",
            frontier.len()
        ));
        for &i in &frontier {
            let point = &res.points[i];
            let mut aopts = crate::lint::analysis_options(opts);
            aopts.spec = res.spec_of(point, opts.backend());
            let line = match certify_dag_styled(dag, &aopts, point.design.style) {
                Ok(cert) => {
                    if cert.refuted() > 0 {
                        refuted_points += 1;
                    }
                    format!(
                        "  point {i:>5}  {:<8}  {} proved, {} fuzzed, {} refuted",
                        cert.status(),
                        cert.proved(),
                        cert.fuzzed(),
                        cert.refuted()
                    )
                }
                Err(d) => {
                    refuted_points += 1;
                    format!("  point {i:>5}  error     {}", d.render())
                }
            };
            text.push_str(&line);
            text.push('\n');
        }
    }
    out!("{text}");
    if refuted_points > 0 {
        return Err(CliError::Findings(format!(
            "{refuted_points} frontier point(s) failed certification"
        )));
    }
    Ok(())
}

fn choices_label(p: &imagen_dse::DsePoint) -> String {
    p.choices
        .iter()
        .map(|c| c.label())
        .collect::<Vec<_>>()
        .join(",")
}

/// Deterministic noise frame, `bits`-bit unsigned pixels — the shared
/// stimulus convention of `imagen_algos` ([`imagen_algos::noise_bits`]).
pub(crate) fn noise_frame(geom: &imagen_mem::ImageGeometry, seed: u64, bits: u32) -> Image {
    Image::from_fn(geom.width, geom.height, move |x, y| {
        imagen_algos::noise_bits(seed, x, y, bits)
    })
}

fn check_frame_contains_stencil(dag: &Dag, opts: &Options) -> Result<(), String> {
    let stats = dag.stats();
    let max_width = dag
        .edges()
        .map(|(_, e)| e.window().width())
        .max()
        .unwrap_or(1);
    if opts.height < stats.max_stencil_height + 4 || opts.width < max_width + 4 {
        return Err(format!(
            "frame {}x{} is too small for the {}x{} stencil; use --width/--height at least {}x{}",
            opts.width,
            opts.height,
            max_width,
            stats.max_stencil_height,
            max_width + 4,
            stats.max_stencil_height + 4
        ));
    }
    Ok(())
}

fn input_frames(dag: &Dag, opts: &Options, bits: u32) -> Vec<Image> {
    let inputs = dag.stages().filter(|(_, s)| s.is_input()).count();
    (0..inputs)
        .map(|i| noise_frame(&opts.geometry(), opts.seed.wrapping_add(i as u64), bits))
        .collect()
}

/// `imagen sim`: golden executor vs netlist interpreter on a seeded frame.
pub fn run_sim(dag: &Dag, opts: &Options) -> Result<(), CliError> {
    check_frame_contains_stencil(dag, opts)?;
    let plan = Session::new(dag, opts.geometry())
        .price(&opts.memory_spec(), None)
        .map_err(|e| e.to_string())?;
    let widths = if opts.wide {
        BitWidths::wide()
    } else {
        BitWidths::default()
    };
    // At hardware widths, keep inputs narrow enough that no kernel
    // intermediate escapes the pixel datapath (same convention as the
    // differential test suite); at wide widths the datapath is the model.
    let bits = opts.input_bits.unwrap_or(if opts.wide { 8 } else { 4 });
    let inputs = input_frames(dag, opts, bits);

    let golden = execute(&plan.dag, &inputs).map_err(|e| e.to_string())?;
    let net = build_netlist(&plan.dag, &plan.design, &widths);
    let run = interpret(&net, &inputs).map_err(|e| e.to_string())?;

    let mut text = header(dag, opts);
    text.push_str(&format!(
        "widths   : {}/{} bits\ninput    : seed {}, {} bits, {} frame(s)\n\n## Differential\n\n",
        widths.pixel_bits,
        widths.acc_bits,
        opts.seed,
        bits,
        inputs.len()
    ));
    text.push_str(&format!(
        "  interpreter ran {} cycles, latency {}, {} SRAM reads, {} SRAM writes\n",
        run.cycles, run.latency, run.sram_reads, run.sram_writes
    ));

    let mut compared = 0usize;
    let mut mismatched = 0usize;
    for (stage, img) in &run.output_images {
        let gold = golden.stage(StageId::from_index(*stage));
        let diff = img.diff_count(gold);
        compared += (img.width() * img.height()) as usize;
        mismatched += diff;
        text.push_str(&format!(
            "  stage {:<12} {}\n",
            plan.dag.stage(StageId::from_index(*stage)).name(),
            if diff == 0 {
                "bit-exact".to_string()
            } else {
                format!("{diff} mismatched pixel(s)")
            }
        ));
    }
    text.push_str(&format!(
        "\nverdict: {} ({} output stream(s), {} pixels compared)\n",
        if mismatched == 0 { "PASS" } else { "FAIL" },
        run.output_images.len(),
        compared
    ));
    out!("{text}");
    if mismatched > 0 {
        return Err(CliError::Findings(format!(
            "netlist diverges from the golden model on {mismatched} pixel(s)"
        )));
    }
    Ok(())
}

/// `imagen energy`: analytic vs measured power, the measured side priced
/// from the activity the schedule fixes, with no netlist and no frame.
pub fn run_energy(dag: &Dag, opts: &Options) -> Result<(), String> {
    let plan = Session::new(dag, opts.geometry())
        .price(&opts.memory_spec(), None)
        .map_err(|e| e.to_string())?;
    let design = &plan.design;
    let m = imagen_power::measure_schedule(
        &describe(&plan.dag, design),
        &BitWidths::default(),
        design,
        None,
    )
    .map_err(|e| e.to_string())?;

    let mut text = header(dag, opts);
    text.push_str("\n## Power (analytic model vs schedule-counted activity)\n\n");
    let rows = [
        (
            "total power mW",
            design.total_power_mw(),
            m.ungated.total_mw(),
        ),
        (
            "memory power mW",
            design.memory_power_mw(),
            m.ungated.memory_mw(),
        ),
    ];
    text.push_str(&format!(
        "  {:<16} {:>10} {:>10} {:>8}\n",
        "", "analytic", "measured", "ratio"
    ));
    for (label, a, b) in rows {
        text.push_str(&format!(
            "  {label:<16} {a:>10.3} {b:>10.3} {:>8.3}\n",
            if a > 0.0 { b / a } else { f64::NAN }
        ));
    }
    text.push_str(&format!(
        "\n  energy/frame   : {:.1} pJ ({:.1} dynamic + {:.1} static)\n",
        m.ungated.energy_pj_per_frame(),
        m.ungated.dynamic_pj_per_frame(),
        m.ungated.static_pj_per_frame()
    ));
    text.push_str(&format!(
        "  clock gating   : {:.3} mW -> {:.3} mW ({:.2}% of dynamic energy, {} read-port cycles gated off)\n",
        m.ungated.total_mw(),
        m.gated.total_mw(),
        m.gating_saving_pct(),
        m.gated.gated_off_cycles
    ));

    text.push_str("\n## Per-buffer activity (ungated)\n\n");
    text.push_str(&format!(
        "  {:<12} {:>8} {:>8} {:>8} {:>12} {:>10}\n",
        "buffer", "reads", "writes", "idle", "dynamic pJ", "static mW"
    ));
    for b in &m.ungated.buffers {
        text.push_str(&format!(
            "  {:<12} {:>8} {:>8} {:>8} {:>12.1} {:>10.4}\n",
            plan.dag.stage(StageId::from_index(b.stage)).name(),
            b.reads,
            b.writes,
            b.idle_reads,
            b.dynamic_pj,
            b.static_mw
        ));
    }
    out!("{text}");
    Ok(())
}
