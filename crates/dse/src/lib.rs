//! # imagen-dse
//!
//! Design-space exploration over per-stage memory configurations (paper
//! Sec. 8.5, Fig. 10).
//!
//! Because ImaGen accepts *arbitrary* memory specifications, each stage's
//! line buffer can independently use a dual-port block (DP) or a
//! dual-port block with line coalescing (DPLC). For an algorithm with
//! `N` buffered stages that is a `2^N` design space. [`explore`] walks it
//! under a chosen [`ExploreStrategy`]:
//!
//! * [`ExploreStrategy::Exhaustive`] — every configuration, the paper's
//!   Fig. 10 sweep ([`sweep`] is this strategy with default options);
//! * [`ExploreStrategy::Greedy`] — the "judicious coalescing" descent
//!   from all-DPLC ([`judicious_lc`] wraps it);
//! * [`ExploreStrategy::Random`] — budget-capped, deterministically
//!   seeded sampling for spaces too large to enumerate.
//!
//! Evaluation fans out over `std::thread::scope` workers sharing one
//! memoized [`Session`]: the constraint skeleton is built once per DAG,
//! each buffer's contention constraints once per port count and
//! coalescing factor (Canny-m's 512 points build 18;
//! [`ExploreStats::formulation_pieces`]), each distinct line buffer's
//! port checks run once per sweep (Canny-m's
//! 512 points realize 4,608 buffers and run 12 checks;
//! [`ExploreStats::port_checks`]), repeated configurations (the greedy
//! walk revisits many) are cache hits, and points are *priced* (area
//! from the SRAM model, power from the access statistics) without
//! generating RTL text nobody reads. Each
//! point is described once (`imagen_rtl::describe`) and never
//! elaborated into a netlist; from that [`Structure`] it carries a
//! [`ResourceReport`] (instantiated SRAM macro bits, flip-flops, datapath
//! operators) as a structural costing axis. Results are byte-identical
//! to a sequential walk regardless of thread count, and the workers of a
//! traced sweep record their spans into the caller's collector.
//!
//! By default every point also carries measured energy
//! ([`MeasureMode::Schedule`]): `imagen_power::measure_schedule` prices
//! the structure's ungated and clock-gated activity from the schedule
//! alone, at any rate — the pyramids included. No netlist is built and
//! no frame is interpreted, so a measured point costs work in proportion
//! to each line buffer's pipeline depth and steady period in rows, not
//! to the frame's height, let alone pixels times kernel operations, and
//! the sweep needs no stimulus. The workers share one
//! `imagen_rtl::BlockSweepMemo`, so each distinct line buffer's block
//! sweep runs once per sweep (Canny-m's 4,608 buffers take 12;
//! [`ExploreStats::block_sweeps`]).
//!
//! [`pareto_front`] / [`ParetoFront`] extract the non-dominated designs —
//! incrementally, not by the quadratic post-hoc scan. The paper's
//! headline observation — the Pareto frontier is *algorithm-specific*
//! (3 points for Canny-m, 2 for Denoise-m, with all-DPLC strictly
//! dominated on Canny-m) — is reproduced by the `fig10` experiment
//! binary.
//!
//! [ImaGen]: https://arxiv.org/abs/2304.03352

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use imagen_core::{CompileError, Session};
use imagen_ir::Dag;
use imagen_mem::{Design, DesignStyle, ImageGeometry, MemBackend, MemorySpec, StageMemConfig};
use imagen_power::EnergyReport;
use imagen_rtl::{
    describe, report_resources, BitWidths, BlockSweepMemo, InterpError, ResourceReport, Structure,
};
use imagen_schedule::Plan;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::sync::Arc;

/// Per-stage memory choice explored by the DSE (Sec. 8.5).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum StageChoice {
    /// Dual-port block, one row per block.
    Dp,
    /// Dual-port block with line coalescing.
    Dplc,
}

impl StageChoice {
    /// Short label used in reports.
    pub fn label(&self) -> &'static str {
        match self {
            StageChoice::Dp => "DP",
            StageChoice::Dplc => "DPLC",
        }
    }
}

/// One evaluated design point.
#[derive(Clone, Debug)]
pub struct DsePoint {
    /// Choice per buffered stage (parallel to `buffered_stages`).
    pub choices: Vec<StageChoice>,
    /// Total accelerator area, mm².
    pub area_mm2: f64,
    /// Total accelerator power, mW.
    pub power_mw: f64,
    /// Allocated SRAM, KB.
    pub sram_kb: f64,
    /// Hardware inventory (instantiated SRAM macro bits, flip-flops,
    /// datapath operators) — the structural costing axis next to the
    /// analytic area/power models: what the point's netlist instantiates,
    /// counted from its structure without elaborating one.
    pub resources: ResourceReport,
    /// Measured (netlist-activity) energy, populated during the sweep
    /// itself under the default [`MeasureMode::Schedule`]; `None` when the
    /// sweep ran with [`MeasureMode::Off`].
    pub measured: Option<MeasuredEnergy>,
    /// The priced design.
    pub design: Design,
}

/// Measured energy/power of one design point, priced by `imagen_power`
/// from the activity the point's structure and schedule fix: the analytic
/// `power_mw` axis's activity-measured counterpart. No frame is run, so
/// it depends on no stimulus.
#[derive(Clone, Copy, Debug)]
pub struct MeasuredEnergy {
    /// Total (dynamic + static) energy per frame, pJ, ungated.
    pub energy_pj_per_frame: f64,
    /// Total measured power at the evaluation clock, mW, ungated.
    pub power_mw: f64,
    /// Total measured power of the clock-gated netlist, mW.
    pub gated_power_mw: f64,
    /// Read-port cycles the gating pass removed.
    pub gated_off_cycles: u64,
}

impl MeasuredEnergy {
    fn from_reports(ungated: &EnergyReport, gated: &EnergyReport) -> Self {
        MeasuredEnergy {
            energy_pj_per_frame: ungated.energy_pj_per_frame(),
            power_mw: ungated.total_mw(),
            gated_power_mw: gated.total_mw(),
            gated_off_cycles: gated.gated_off_cycles,
        }
    }
}

impl DsePoint {
    /// Number of stages using DPLC.
    pub fn dplc_count(&self) -> usize {
        self.choices
            .iter()
            .filter(|c| **c == StageChoice::Dplc)
            .count()
    }
}

/// Work counters of one [`explore`] run — the numbers `imagen dse
/// --profile` and the serve stats endpoint report per sweep.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ExploreStats {
    /// Pricing requests issued (cache hits + misses): how many times the
    /// sweep asked for a design point, counting revisits.
    pub points_priced: u64,
    /// Pricing requests served from the session's compile cache. A
    /// request that waited for a racing worker's plan of the same point
    /// counts as a hit.
    pub cache_hits: u64,
    /// Pricing requests that ran the planner.
    pub cache_misses: u64,
    /// Solver pivots performed process-wide during the sweep: network-simplex
    /// basis exchanges (a delta of [`imagen_ilp::stats::pivot_count`];
    /// with concurrent sweeps in one process the delta covers all of them).
    pub simplex_pivots: u64,
    /// Distinct per-buffer formulation pieces the sweep built: the entry
    /// count of its session's piece memo at the end. Like `port_checks`
    /// it counts keys, so it repeats at any worker count.
    pub formulation_pieces: u64,
    /// Distinct line-buffer port checks the sweep ran: the entry count of
    /// its session's port-check memo at the end. Counting keys, not
    /// misses, makes it repeat at any worker count.
    pub port_checks: u64,
    /// Of those, the checks whose verdict needed the row scanner rather
    /// than the arithmetic alone: the same memo's count.
    pub port_scans: u64,
    /// Distinct line-buffer block sweeps the measurement ran: the entry
    /// count of the sweep's block-sweep memo at the end (0 when it does
    /// not measure). Like `port_checks` it counts keys, so it repeats at
    /// any worker count.
    pub block_sweeps: u64,
}

/// Result of a sweep: all points plus the ids of the buffered stages the
/// choice vectors refer to.
#[derive(Clone, Debug)]
pub struct DseResult {
    /// Stage indices (into the DAG) that own line buffers.
    pub buffered_stages: Vec<usize>,
    /// All evaluated points, in enumeration order (for
    /// [`ExploreStrategy::Exhaustive`]: all-DP first, all-DPLC last).
    pub points: Vec<DsePoint>,
    /// Work counters of the run that produced this result.
    pub stats: ExploreStats,
}

impl DseResult {
    /// Indices of the Pareto-optimal points (minimizing area and power)
    /// — [`DseResult::pareto_front_by`] over the default
    /// `(area_mm2, power_mw)` objectives.
    pub fn pareto_front(&self) -> Vec<usize> {
        self.pareto_front_by(|p| (p.area_mm2, p.power_mw))
    }

    /// Indices of the Pareto-optimal points under an arbitrary pair of
    /// minimized objectives — e.g. `(area_mm2, measured energy)` for the
    /// measured frontier. Reuses the incremental NaN-rejecting
    /// [`ParetoFront`]; points whose objectives are non-finite are never
    /// on the frontier.
    pub fn pareto_front_by(&self, objectives: impl Fn(&DsePoint) -> (f64, f64)) -> Vec<usize> {
        let mut front = ParetoFront::new();
        for (i, p) in self.points.iter().enumerate() {
            let (x, y) = objectives(p);
            front.offer(i, x, y);
        }
        front.indices()
    }

    /// The per-stage memory spec a point was explored with — what a
    /// front end needs to replan (and, e.g., certify) any point of the
    /// sweep outside of it.
    pub fn spec_of(&self, point: &DsePoint, backend: MemBackend) -> MemorySpec {
        spec_for(backend, &self.buffered_stages, &point.choices)
    }
}

/// How [`explore`] walks the per-stage DP/DPLC space.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ExploreStrategy {
    /// Every configuration (`2^N` points; `N <= 20` enforced).
    #[default]
    Exhaustive,
    /// Greedy "judicious coalescing" descent: start all-DPLC, revert any
    /// stage whose coalescing does not reduce allocated SRAM, to a
    /// fixpoint. Points are recorded in first-evaluation order.
    Greedy,
    /// Deterministically seeded random sampling, capped at `samples`
    /// evaluated points. The all-DP and all-DPLC anchors are always
    /// included. Usable when `N` is beyond exhaustive reach (up to the
    /// 64-stage mask width).
    Random {
        /// Evaluation budget (number of distinct points).
        samples: usize,
        /// Seed for the deterministic mask stream.
        seed: u64,
    },
}

/// Whether [`explore`] measures each point's energy while sweeping.
///
/// Measured energy prices only activity the netlist's structure and
/// schedule fix, so every point is measured from its schedule
/// (`imagen_power::measure_schedule`) in work that grows with each line
/// buffer's pipeline depth and steady period, not with the frame's
/// height, without interpreting a frame. That makes full measured sweeps
/// cheap enough to be the default: every [`DsePoint`] comes back with
/// [`DsePoint::measured`] populated, so the measured-energy frontier
/// (`pareto_front_by` over `(area, energy)`) is available without a
/// second pass.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum MeasureMode {
    /// Measure every point (ungated and clock-gated) from its schedule.
    #[default]
    Schedule,
    /// Skip measurement (pricing only): points carry `measured: None`.
    Off,
}

/// Options for [`explore`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ExploreOptions {
    /// The walk strategy.
    pub strategy: ExploreStrategy,
    /// Worker threads for fan-out; `0` uses the machine's available
    /// parallelism. Results do not depend on this value.
    pub threads: usize,
    /// Measured-energy policy; [`MeasureMode::Schedule`] (default)
    /// measures every point during the sweep.
    pub measure: MeasureMode,
}

impl Default for ExploreOptions {
    fn default() -> Self {
        ExploreOptions {
            strategy: ExploreStrategy::Exhaustive,
            threads: 0,
            measure: MeasureMode::default(),
        }
    }
}

/// Builds the spec selecting `choices` for the given buffered stages.
fn spec_for(backend: MemBackend, buffered: &[usize], choices: &[StageChoice]) -> MemorySpec {
    let mut spec = MemorySpec::new(backend, 2);
    for (c, &stage) in choices.iter().zip(buffered) {
        spec.set_stage(
            stage,
            StageMemConfig {
                ports: 2,
                coalesce: *c == StageChoice::Dplc,
            },
        );
    }
    spec
}

/// Decodes a bitmask into per-stage choices (bit `i` set = stage `i` on
/// DPLC).
fn choices_for(mask: u64, n: usize) -> Vec<StageChoice> {
    (0..n)
        .map(|bit| {
            if mask & (1 << bit) != 0 {
                StageChoice::Dplc
            } else {
                StageChoice::Dp
            }
        })
        .collect()
}

/// Measures the design `structure` describes, ungated and clock-gated,
/// from its schedule, at the default widths, taking the block sweeps
/// `memo` holds.
fn measure_energy(
    structure: &Structure,
    design: &Design,
    memo: &BlockSweepMemo,
) -> Result<MeasuredEnergy, InterpError> {
    let _s = imagen_obs::span("measure");
    let p = imagen_power::measure_schedule(structure, &BitWidths::default(), design, Some(memo))?;
    Ok(MeasuredEnergy::from_reports(&p.ungated, &p.gated))
}

/// The point of `plan`, measured when `measure` holds the sweep's
/// block-sweep memo.
fn point_from(
    plan: &Plan,
    choices: Vec<StageChoice>,
    measure: Option<&BlockSweepMemo>,
) -> DsePoint {
    let design = plan.design.clone();
    // One description per point feeds both the structural axis and the
    // measured energy; no netlist is elaborated.
    let structure = describe(&plan.dag, &design);
    let resources = report_resources(&structure, &BitWidths::default());
    let measured = measure.map(|memo| {
        measure_energy(&structure, &design, memo).expect("the planner emits streamable designs")
    });
    DsePoint {
        choices,
        area_mm2: design.total_area_mm2(),
        power_mw: design.total_power_mw(),
        sram_kb: design.sram_kb(),
        resources,
        measured,
        design,
    }
}

/// Evaluates `masks` against the session, fanning out over up to
/// `threads` scoped workers, each recording its spans into the caller's
/// collector. Output order and values are identical to a sequential
/// evaluation; on error the first failure in `masks` order is returned.
fn evaluate_masks(
    session: &Session,
    backend: MemBackend,
    buffered: &[usize],
    masks: &[u64],
    threads: usize,
    measure: Option<&BlockSweepMemo>,
) -> Result<Vec<DsePoint>, CompileError> {
    let n = buffered.len();
    // Exhaustive/random mask lists never repeat, so memoizing every plan
    // would only grow the cache — price transiently.
    let price = |mask: u64| -> Result<DsePoint, CompileError> {
        let choices = choices_for(mask, n);
        let spec = spec_for(backend, buffered, &choices);
        let plan = session.price_transient(&spec, None)?;
        Ok(point_from(&plan, choices, measure))
    };

    let threads = if threads == 0 {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    } else {
        threads
    }
    .min(masks.len().max(1));

    if threads <= 1 {
        return masks.iter().map(|&m| price(m)).collect();
    }

    let mut slots: Vec<Option<Result<DsePoint, CompileError>>> = Vec::new();
    slots.resize_with(masks.len(), || None);
    let chunk = masks.len().div_ceil(threads);
    let collector = &imagen_obs::current();
    std::thread::scope(|scope| {
        for (slot_chunk, mask_chunk) in slots.chunks_mut(chunk).zip(masks.chunks(chunk)) {
            scope.spawn(move || {
                let mut work = || {
                    for (slot, &mask) in slot_chunk.iter_mut().zip(mask_chunk) {
                        *slot = Some(price(mask));
                    }
                };
                match collector {
                    Some(c) => imagen_obs::with_collector(c, work),
                    None => work(),
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("worker filled every slot"))
        .collect()
}

/// Explores the per-stage DP/DPLC space of `dag` under `opts`.
///
/// # Errors
///
/// Propagates the first [`CompileError`] in enumeration order; individual
/// infeasible points cannot occur for DP/DPLC choices (both are
/// dual-port).
pub fn explore(
    dag: &Dag,
    geom: &ImageGeometry,
    backend: MemBackend,
    opts: ExploreOptions,
) -> Result<DseResult, CompileError> {
    let _sweep = imagen_obs::span("dse.explore");
    let session = Session::new(dag, *geom);
    let pivots_before = imagen_ilp::stats::pivot_count();
    let buffered: Vec<usize> = dag.buffered_stages().iter().map(|s| s.index()).collect();
    let n = buffered.len();
    // Configurations are u64 bitmasks throughout (choices_for, the greedy
    // walk's dedup keys, sample_masks).
    assert!(n <= 64, "{n} buffered stages exceed the u64 mask width");

    // One block-sweep memo per sweep, shared by its workers.
    let memo = BlockSweepMemo::new();
    let measure = (opts.measure == MeasureMode::Schedule).then_some(&memo);

    let points = match opts.strategy {
        ExploreStrategy::Exhaustive => {
            assert!(n <= 20, "sweep of 2^{n} points is impractical");
            let masks: Vec<u64> = (0..(1u64 << n)).collect();
            evaluate_masks(&session, backend, &buffered, &masks, opts.threads, measure)?
        }
        ExploreStrategy::Random { samples, seed } => {
            let masks = sample_masks(n, samples, seed);
            evaluate_masks(&session, backend, &buffered, &masks, opts.threads, measure)?
        }
        ExploreStrategy::Greedy => greedy_walk(&session, backend, &buffered, measure)?.points,
    };

    let (hits, misses) = session.cache().stats();
    Ok(DseResult {
        buffered_stages: buffered,
        points,
        stats: ExploreStats {
            points_priced: (hits + misses) as u64,
            cache_hits: hits as u64,
            cache_misses: misses as u64,
            simplex_pivots: imagen_ilp::stats::pivot_count() - pivots_before,
            formulation_pieces: session.formulation_pieces() as u64,
            port_checks: session.port_checks() as u64,
            port_scans: session.port_scans() as u64,
            block_sweeps: memo.len() as u64,
        },
    })
}

/// Budget-capped deterministic mask sample: the all-DP and all-DPLC
/// anchors, then SplitMix64 draws (first occurrence kept) until `samples`
/// distinct masks are collected or the space / attempt budget runs out.
fn sample_masks(n: usize, samples: usize, seed: u64) -> Vec<u64> {
    let space: Option<u64> = if n < 64 { Some(1u64 << n) } else { None };
    if let Some(space) = space {
        if samples as u64 >= space {
            return (0..space).collect();
        }
    }
    let all_dplc = if n >= 64 { u64::MAX } else { (1u64 << n) - 1 };
    let mut seen: HashSet<u64> = HashSet::new();
    let mut masks: Vec<u64> = Vec::new();
    for anchor in [0, all_dplc] {
        if masks.len() < samples && seen.insert(anchor) {
            masks.push(anchor);
        }
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut attempts = 0usize;
    while masks.len() < samples && attempts < samples.saturating_mul(64) {
        attempts += 1;
        let mask = rng.next_u64() & all_dplc;
        if seen.insert(mask) {
            masks.push(mask);
        }
    }
    masks
}

/// Sweeps every per-stage DP/DPLC combination for `dag` —
/// [`ExploreStrategy::Exhaustive`] with default fan-out.
///
/// # Errors
///
/// See [`explore`].
pub fn sweep(
    dag: &Dag,
    geom: &ImageGeometry,
    backend: MemBackend,
) -> Result<DseResult, CompileError> {
    explore(dag, geom, backend, ExploreOptions::default())
}

/// Outcome of the greedy descent. The winning plan itself stays in the
/// session cache — callers re-request it (a hit) when they need it.
struct GreedyOutcome {
    choices: Vec<StageChoice>,
    /// Distinct configurations in first-evaluation order.
    points: Vec<DsePoint>,
}

/// The judicious-coalescing walk: start all-DPLC, revert any stage whose
/// coalescing does not strictly reduce allocated SRAM, repeat to a
/// fixpoint. Memoized through the session, so configurations revisited
/// across passes cost a cache lookup, not a compile.
fn greedy_walk(
    session: &Session,
    backend: MemBackend,
    buffered: &[usize],
    measure: Option<&BlockSweepMemo>,
) -> Result<GreedyOutcome, CompileError> {
    let n = buffered.len();
    assert!(n <= 64, "{n} buffered stages exceed the u64 mask width");
    let mut recorded: HashSet<u64> = HashSet::new();
    let mut points: Vec<DsePoint> = Vec::new();

    let mask_of = |choices: &[StageChoice]| -> u64 {
        choices
            .iter()
            .enumerate()
            .filter(|(_, c)| **c == StageChoice::Dplc)
            .fold(0u64, |m, (i, _)| m | (1 << i))
    };

    let mut price = |choices: &[StageChoice]| -> Result<Arc<Plan>, CompileError> {
        let spec = spec_for(backend, buffered, choices);
        let plan = session.price(&spec, Some(DesignStyle::OursLc))?;
        if recorded.insert(mask_of(choices)) {
            points.push(point_from(&plan, choices.to_vec(), measure));
        }
        Ok(plan)
    };

    let mut choices: Vec<StageChoice> = vec![StageChoice::Dplc; n];
    let mut best = price(&choices)?;
    let mut improved = true;
    while improved {
        improved = false;
        for i in 0..n {
            if choices[i] == StageChoice::Dp {
                continue;
            }
            choices[i] = StageChoice::Dp;
            let cand = price(&choices)?;
            if cand.design.sram_kb() < best.design.sram_kb() {
                best = cand;
                improved = true;
            } else {
                choices[i] = StageChoice::Dplc;
            }
        }
    }
    Ok(GreedyOutcome { choices, points })
}

/// Chooses line coalescing *judiciously*, per buffer: starting from the
/// all-coalesced configuration, greedily reverts any stage whose
/// coalescing does not reduce the allocated SRAM, until a fixpoint
/// ([`ExploreStrategy::Greedy`]).
///
/// This implements the paper's framing that the compiler "judiciously
/// coalesces multiple lines" (Sec. 1): coalescing is a per-buffer choice,
/// and on some pipelines (Xcorr-m's tall windows with two readers) the
/// stronger coalesced-contention constraints cost more rows than the
/// blocks save — exactly the trade-off Fig. 10 explores.
///
/// Returns the chosen per-stage configs and the compiled design. Probe
/// configurations are priced without RTL; Verilog is generated once, for
/// the winner.
///
/// # Errors
///
/// Propagates the first [`CompileError`].
pub fn judicious_lc(
    dag: &Dag,
    geom: &ImageGeometry,
    backend: MemBackend,
) -> Result<(Vec<(usize, StageChoice)>, imagen_core::CompileOutput), CompileError> {
    let session = Session::new(dag, *geom);
    let buffered: Vec<usize> = dag.buffered_stages().iter().map(|s| s.index()).collect();
    // Probe points are pricing-only; nobody reads their measured energy.
    let outcome = greedy_walk(&session, backend, &buffered, None)?;
    // The winner's plan is a cache hit; this only adds codegen.
    let out = session.compile(
        &spec_for(backend, &buffered, &outcome.choices),
        Some(DesignStyle::OursLc),
    )?;
    let cfg = buffered.into_iter().zip(outcome.choices).collect();
    Ok((cfg, out))
}

/// An incrementally maintained two-dimensional Pareto frontier
/// (minimizing both axes).
///
/// Points stream in via [`ParetoFront::offer`]; the structure keeps only
/// the currently non-dominated set, sorted by the first axis, so each
/// offer costs a binary search plus a contiguous splice of the kept set —
/// `O(n log n)` total when the frontier stays small (the typical DSE
/// shape), degrading to the scan's quadratic bound only when nearly every
/// point survives in adversarial order. Duplicate points are all kept
/// (neither dominates the
/// other); points with non-finite coordinates are rejected outright —
/// a NaN compares false against everything, which under the quadratic
/// definition would sneak it *onto* the frontier.
#[derive(Clone, Debug, Default)]
pub struct ParetoFront {
    /// Non-dominated `(x, y, index)`, sorted by `x` ascending; across
    /// distinct values `y` is strictly decreasing; equal `(x, y)`
    /// duplicates are adjacent.
    entries: Vec<(f64, f64, usize)>,
}

impl ParetoFront {
    /// An empty frontier.
    pub fn new() -> ParetoFront {
        ParetoFront::default()
    }

    /// Offers point `index` at `(x, y)`. Returns `true` when the point is
    /// currently on the frontier; `false` when it is dominated or has a
    /// non-finite coordinate.
    pub fn offer(&mut self, index: usize, x: f64, y: f64) -> bool {
        if !x.is_finite() || !y.is_finite() {
            return false;
        }
        // First entry with entry.x >= x.
        let pos = self.entries.partition_point(|e| e.0 < x);
        // Dominated by the best predecessor (strictly smaller x)?
        if pos > 0 && self.entries[pos - 1].1 <= y {
            return false;
        }
        // Dominated by an equal-x entry with smaller y?
        if pos < self.entries.len() && self.entries[pos].0 == x && self.entries[pos].1 < y {
            return false;
        }
        // Remove entries the new point dominates: x' >= x and y' >= y,
        // excluding exact duplicates (kept). Given the sort, these are
        // contiguous from `pos` (skipping duplicates of (x, y)).
        let mut start = pos;
        while start < self.entries.len() && self.entries[start].0 == x && self.entries[start].1 == y
        {
            start += 1;
        }
        let mut end = start;
        while end < self.entries.len() && self.entries[end].1 >= y {
            end += 1;
        }
        self.entries.drain(start..end);
        self.entries.insert(pos, (x, y, index));
        true
    }

    /// Indices currently on the frontier, ascending.
    pub fn indices(&self) -> Vec<usize> {
        let mut out: Vec<usize> = self.entries.iter().map(|e| e.2).collect();
        out.sort_unstable();
        out
    }

    /// Number of points currently on the frontier.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the frontier is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Returns the indices of non-dominated points (minimize both axes).
///
/// A point dominates another when it is no worse on both axes and
/// strictly better on at least one. Points with non-finite coordinates
/// (NaN, infinities) are never part of the frontier.
pub fn pareto_front(points: &[(f64, f64)]) -> Vec<usize> {
    let mut front = ParetoFront::new();
    for (i, &(x, y)) in points.iter().enumerate() {
        front.offer(i, x, y);
    }
    front.indices()
}

#[cfg(test)]
mod tests {
    use super::*;
    use imagen_algos::Algorithm;

    fn geom() -> ImageGeometry {
        ImageGeometry {
            width: 32,
            height: 24,
            pixel_bits: 16,
        }
    }

    fn backend() -> MemBackend {
        // Blocks hold two rows, so DPLC is available.
        MemBackend::Asic {
            block_bits: 2 * 32 * 16,
        }
    }

    #[test]
    fn pareto_front_logic() {
        let pts = [(1.0, 5.0), (2.0, 3.0), (3.0, 1.0), (3.0, 3.0), (2.5, 2.9)];
        let front = pareto_front(&pts);
        // (3.0, 3.0) is dominated by (2.0, 3.0); the rest trade off.
        assert_eq!(front, vec![0, 1, 2, 4], "dominated points excluded");
    }

    #[test]
    fn pareto_handles_duplicates() {
        let pts = [(1.0, 1.0), (1.0, 1.0)];
        // Identical points do not dominate each other (no strict better).
        assert_eq!(pareto_front(&pts), vec![0, 1]);
    }

    #[test]
    fn pareto_rejects_non_finite() {
        // A NaN compares false against everything: the quadratic
        // definition would put it on the frontier. It must not be.
        let pts = [
            (1.0, 5.0),
            (f64::NAN, 2.0),
            (2.0, f64::NAN),
            (f64::INFINITY, 0.5),
            (f64::NAN, f64::NAN),
            (2.0, 3.0),
        ];
        assert_eq!(pareto_front(&pts), vec![0, 5]);
        let only_bad = [(f64::NAN, 1.0)];
        assert!(pareto_front(&only_bad).is_empty());
    }

    #[test]
    fn pareto_streaming_matches_bruteforce() {
        // Deterministic pseudo-random point clouds, including ties.
        let mut rng = StdRng::seed_from_u64(0x1234_5678_9abc_def0);
        for round in 0..50 {
            let n = 1 + (round % 17);
            let pts: Vec<(f64, f64)> = (0..n)
                .map(|_| ((rng.next_u64() % 8) as f64, (rng.next_u64() % 8) as f64))
                .collect();
            let brute: Vec<usize> = (0..pts.len())
                .filter(|&i| {
                    !pts.iter().enumerate().any(|(j, q)| {
                        j != i
                            && q.0 <= pts[i].0
                            && q.1 <= pts[i].1
                            && (q.0 < pts[i].0 || q.1 < pts[i].1)
                    })
                })
                .collect();
            assert_eq!(pareto_front(&pts), brute, "points: {pts:?}");
        }
    }

    #[test]
    fn pareto_front_by_pins_default_behavior() {
        // The generalized objective form must reproduce the hard-wired
        // (area, power) frontier exactly.
        let dag = Algorithm::XcorrM.build();
        let res = sweep(&dag, &geom(), backend()).unwrap();
        assert_eq!(
            res.pareto_front(),
            res.pareto_front_by(|p| (p.area_mm2, p.power_mw))
        );
        assert_eq!(
            res.pareto_front(),
            pareto_front(
                &res.points
                    .iter()
                    .map(|p| (p.area_mm2, p.power_mw))
                    .collect::<Vec<_>>()
            ),
            "and the free function agrees"
        );
        // A different objective pair is a different frontier machine:
        // single-axis degenerate case keeps only the minima.
        let front = res.pareto_front_by(|p| (p.sram_kb, p.sram_kb));
        let min = res
            .points
            .iter()
            .map(|p| p.sram_kb)
            .fold(f64::INFINITY, f64::min);
        assert!(front.iter().all(|&i| res.points[i].sram_kb == min));
    }

    #[test]
    fn sweep_measures_every_point_by_default() {
        let dag = Algorithm::XcorrM.build();
        let res = sweep(&dag, &geom(), backend()).unwrap();
        for (i, p) in res.points.iter().enumerate() {
            let m = p.measured.expect("default sweep measures every point");
            assert!(m.energy_pj_per_frame > 0.0, "point {i}");
            assert!(m.power_mw > 0.0, "point {i}");
            assert!(
                m.gated_power_mw < m.power_mw,
                "gating saves measured power on point {i}"
            );
            assert!(m.gated_off_cycles > 0, "point {i}");
        }
        // The measured frontier is available straight off the sweep.
        let front = res.pareto_front_by(|p| (p.area_mm2, p.measured.unwrap().energy_pj_per_frame));
        assert!(!front.is_empty());
        // Measurement is deterministic: a second sweep measures
        // identically, bit for bit.
        let again = sweep(&dag, &geom(), backend()).unwrap();
        for (a, b) in res.points.iter().zip(&again.points) {
            let (ma, mb) = (a.measured.unwrap(), b.measured.unwrap());
            assert_eq!(
                ma.energy_pj_per_frame.to_bits(),
                mb.energy_pj_per_frame.to_bits()
            );
            assert_eq!(ma.gated_power_mw.to_bits(), mb.gated_power_mw.to_bits());
            assert_eq!(ma.gated_off_cycles, mb.gated_off_cycles);
        }
    }

    #[test]
    fn sweep_explores_full_space() {
        let dag = Algorithm::XcorrM.build(); // 2 buffered stages -> 4 points
        let res = sweep(&dag, &geom(), backend()).unwrap();
        assert_eq!(res.points.len(), 4);
        assert_eq!(res.points[0].dplc_count(), 0, "all-DP first");
        assert_eq!(
            res.points.last().unwrap().dplc_count(),
            res.buffered_stages.len(),
            "all-DPLC last"
        );
        let front = res.pareto_front();
        assert!(!front.is_empty());
        // All-DP must appear on the frontier or be dominated by a cheaper
        // design; either way every frontier point has minimal power among
        // designs of no-larger area.
        for &i in &front {
            for (j, p) in res.points.iter().enumerate() {
                if j == i {
                    continue;
                }
                assert!(
                    !(p.area_mm2 <= res.points[i].area_mm2 && p.power_mw < res.points[i].power_mw),
                    "frontier point {i} dominated by {j}"
                );
            }
        }
    }

    #[test]
    fn resources_expose_the_netlist_inventory() {
        let dag = Algorithm::CannyS.build();
        let res = sweep_small(&dag);
        let all_dp = &res.points[0];
        let all_dplc = res.points.last().unwrap();
        // Coalescing packs rows into fewer macros; the datapath (kernel
        // operators, window registers) is choice-invariant.
        assert!(
            all_dplc.resources.sram_blocks < all_dp.resources.sram_blocks,
            "DPLC {} blocks vs DP {} blocks",
            all_dplc.resources.sram_blocks,
            all_dp.resources.sram_blocks
        );
        assert_eq!(all_dp.resources.multipliers, all_dplc.resources.multipliers);
        assert_eq!(all_dp.resources.adders, all_dplc.resources.adders);
        assert!(all_dp.resources.flipflop_bits > 0);
        assert!(all_dp.resources.sram_kb() > 0.0);
        // The structural axis supports its own Pareto sweep.
        let front = pareto_front(
            &res.points
                .iter()
                .map(|p| (p.resources.sram_bits as f64, p.power_mw))
                .collect::<Vec<_>>(),
        );
        assert!(!front.is_empty());
    }

    #[test]
    fn dplc_reduces_area_on_chains() {
        // For a deep single-consumer chain, all-DPLC should shrink SRAM
        // (fewer blocks) versus all-DP.
        let dag = Algorithm::CannyS.build();
        let res = sweep_small(&dag);
        let all_dp = &res.points[0];
        let all_dplc = res.points.last().unwrap();
        assert!(
            all_dplc.sram_kb < all_dp.sram_kb,
            "DPLC {} KB vs DP {} KB",
            all_dplc.sram_kb,
            all_dp.sram_kb
        );
    }

    #[test]
    fn random_strategy_is_deterministic_and_capped() {
        let dag = Algorithm::CannyS.build(); // 8 buffered stages
        let opts = ExploreOptions {
            strategy: ExploreStrategy::Random {
                samples: 20,
                seed: 7,
            },
            threads: 1,
            measure: MeasureMode::Off,
        };
        let a = explore(&dag, &geom(), backend(), opts).unwrap();
        let b = explore(&dag, &geom(), backend(), opts).unwrap();
        assert_eq!(a.points.len(), 20);
        assert!(
            a.points.iter().all(|p| p.measured.is_none()),
            "MeasureMode::Off measures no point"
        );
        assert_eq!(a.points[0].dplc_count(), 0, "all-DP anchor first");
        assert_eq!(
            a.points[1].dplc_count(),
            a.buffered_stages.len(),
            "all-DPLC anchor second"
        );
        let masks = |r: &DseResult| -> Vec<Vec<StageChoice>> {
            r.points.iter().map(|p| p.choices.clone()).collect()
        };
        assert_eq!(masks(&a), masks(&b), "seeded sampling is deterministic");
        // Distinct masks only.
        let set: HashSet<Vec<StageChoice>> = masks(&a).into_iter().collect();
        assert_eq!(set.len(), 20);
    }

    #[test]
    fn random_covers_small_spaces_exhaustively() {
        let dag = Algorithm::XcorrM.build(); // 2 buffered stages -> 4 points
        let opts = ExploreOptions {
            strategy: ExploreStrategy::Random {
                samples: 100,
                seed: 3,
            },
            threads: 1,
            measure: MeasureMode::Off,
        };
        let res = explore(&dag, &geom(), backend(), opts).unwrap();
        assert_eq!(res.points.len(), 4, "budget beyond the space: enumerate");
    }

    #[test]
    fn greedy_strategy_matches_judicious_lc() {
        let dag = Algorithm::UnsharpM.build();
        let (cfg, out) = judicious_lc(&dag, &geom(), backend()).unwrap();
        let res = explore(
            &dag,
            &geom(),
            backend(),
            ExploreOptions {
                strategy: ExploreStrategy::Greedy,
                threads: 1,
                measure: MeasureMode::Off,
            },
        )
        .unwrap();
        // The walk starts at all-DPLC.
        assert_eq!(
            res.points[0].dplc_count(),
            res.buffered_stages.len(),
            "greedy starts all-DPLC"
        );
        // The chosen design's SRAM matches the best visited point.
        let best_visited = res
            .points
            .iter()
            .map(|p| p.sram_kb)
            .fold(f64::INFINITY, f64::min);
        assert_eq!(out.plan.design.sram_kb(), best_visited);
        assert_eq!(cfg.len(), res.buffered_stages.len());
        assert!(out.verilog.contains("module"), "winner gets RTL");
    }

    // Canny-s has 8 buffered stages -> 256 points; keep the test fast by
    // sweeping only the extremes.
    fn sweep_small(dag: &imagen_ir::Dag) -> DseResult {
        let buffered: Vec<usize> = dag.buffered_stages().iter().map(|s| s.index()).collect();
        let session = Session::new(dag, geom());
        let mut points = Vec::new();
        for &all_lc in &[false, true] {
            let choices = vec![
                if all_lc {
                    StageChoice::Dplc
                } else {
                    StageChoice::Dp
                };
                buffered.len()
            ];
            let spec = spec_for(backend(), &buffered, &choices);
            let plan = session.price(&spec, None).unwrap();
            points.push(point_from(&plan, choices, None));
        }
        DseResult {
            buffered_stages: buffered,
            points,
            stats: ExploreStats::default(),
        }
    }
}
