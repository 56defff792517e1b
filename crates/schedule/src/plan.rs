//! The end-to-end planner: DAG + geometry + memory spec → scheduled,
//! allocated, priced [`Design`].
//!
//! This is the "Optimizer" box of the paper's Fig. 5: line coalescing
//! (when the spec allows it), constraint formulation, ILP solving, buffer
//! sizing, physical block allocation (with the aliasing slack that
//! [`crate::checker`] computes) and analytic access statistics for the
//! power model. The cycle-level simulator (`imagen-sim`) independently
//! replays the result and verifies throughput, port discipline and
//! functional correctness.
//!
//! Each buffer's port checks — the absolute rows, then the smallest
//! physical rotation that passes — are one [`BufferCheck`], decided by
//! [`BufferCheck::verdict`]: by arithmetic on the streams' start
//! differences where that is certain, by the row scanner otherwise (see
//! [`crate::checker`]). Checks go through a [`PortCheckMemo`], keyed by
//! the whole `BufferCheck` with its starts taken relative to the
//! earliest. Design points that share a buffer's streams — most of a DSE
//! sweep's — check it once per memo, and the memo counts the buffers that
//! needed the scanner.

use crate::checker::{BufferCheck, BufferVerdict, PortViolation, ResolvedEntity};
use crate::constraints::{
    formulate_skeleton, BufferParams, BufferPiece, ConstraintSkeleton, ScheduleOptions,
};
use crate::entity::{buffer_entities, AccessEntity};
use crate::solve::{solve_schedule, Schedule, ScheduleError};
use imagen_ir::{apply_line_coalescing, CoalesceFactor, Dag, StageId, StageKind};
use imagen_mem::{
    allocate_buffer, BlockLayout, Design, DesignStyle, ImageGeometry, MemorySpec, PeModel,
    CLOCK_MHZ,
};
use imagen_obs::Memo;
use std::fmt;
use std::sync::Arc;

/// Planner failure.
#[derive(Clone, PartialEq, Debug)]
pub enum PlanError {
    /// Scheduling failed.
    Schedule(ScheduleError),
    /// The schedule violates port discipline at absolute-row level — a
    /// formulation bug (surfaced rather than silently repaired).
    ScheduleViolation {
        /// The offending buffer's producer stage.
        buffer: StageId,
        /// The violation.
        violation: PortViolation,
    },
    /// No physical row count within the slack budget satisfies the port
    /// discipline (also indicates a formulation inconsistency).
    AliasingUnrepairable {
        /// The offending buffer's producer stage.
        buffer: StageId,
        /// The stubborn violation.
        violation: PortViolation,
    },
    /// A stage's cumulative rate does not divide the frame extents: a
    /// `downsample(2,2)` chain on a 15-pixel-wide frame has no integral
    /// iteration domain. Multirate planning requires exact divisibility.
    IndivisibleExtent {
        /// The offending stage.
        stage: StageId,
        /// Cumulative horizontal factor.
        fx: u64,
        /// Cumulative vertical factor.
        fy: u64,
        /// Frame width.
        width: u32,
        /// Frame height.
        height: u32,
    },
    /// The backend's memory block holds less than one pixel, so no line
    /// buffer row fits any number of blocks.
    SubPixelBlock {
        /// Block capacity, bits.
        block_bits: u64,
        /// Bits per pixel.
        pixel_bits: u32,
    },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::Schedule(e) => write!(f, "{e}"),
            PlanError::ScheduleViolation { buffer, violation } => write!(
                f,
                "schedule violates ports on buffer of stage {}: {violation}",
                buffer.index()
            ),
            PlanError::AliasingUnrepairable { buffer, violation } => write!(
                f,
                "cannot repair aliasing on buffer of stage {}: {violation}",
                buffer.index()
            ),
            PlanError::IndivisibleExtent {
                stage,
                fx,
                fy,
                width,
                height,
            } => write!(
                f,
                "stage {} at cumulative rate ({fx},{fy}) does not divide the {width}x{height} frame",
                stage.index()
            ),
            PlanError::SubPixelBlock {
                block_bits,
                pixel_bits,
            } => write!(
                f,
                "{block_bits}-bit memory blocks cannot hold one {pixel_bits}-bit pixel"
            ),
        }
    }
}

impl std::error::Error for PlanError {}

impl From<ScheduleError> for PlanError {
    fn from(e: ScheduleError) -> Self {
        PlanError::Schedule(e)
    }
}

/// A complete plan: the working DAG (with coalescing rewrites applied),
/// the schedule, and the priced design.
#[derive(Clone, Debug)]
pub struct Plan {
    /// Working DAG (clone of the input, possibly with coalesced edges).
    pub dag: Dag,
    /// The optimal schedule.
    pub schedule: Schedule,
    /// The allocated and priced design.
    pub design: Design,
}

/// [`BufferParams`] view of a [`MemorySpec`] at a given geometry — the
/// parameter source the planner itself formulates with. Public so
/// out-of-crate checkers (the static analyzer) can re-derive the exact
/// constraint system a plan was solved against.
pub struct SpecBufferParams<'a> {
    /// The memory spec supplying ports and coalesce factors.
    pub spec: &'a MemorySpec,
    /// The frame geometry coalesce factors depend on.
    pub geom: &'a ImageGeometry,
}

impl BufferParams for SpecBufferParams<'_> {
    fn ports(&self, p: StageId) -> u32 {
        self.spec.ports_for(p.index())
    }
    fn coalesce(&self, p: StageId) -> u32 {
        self.spec.coalesce_factor(p.index(), self.geom)
    }
}

/// Plans a design for `dag` on the given geometry and memory spec.
///
/// `style` labels the output (callers: `Ours`, `Ours+LC`, or a baseline
/// style when invoked from `imagen-baselines`). Port checks go through a
/// fresh [`PortCheckMemo`], so buffers with identical streams within the
/// one plan are checked once.
///
/// # Errors
///
/// See [`PlanError`].
pub fn plan_design(
    dag: &Dag,
    geom: &ImageGeometry,
    spec: &MemorySpec,
    opts: ScheduleOptions,
    style: DesignStyle,
) -> Result<Plan, PlanError> {
    plan_design_with(
        dag,
        &formulate_skeleton(dag, geom.width),
        geom,
        spec,
        opts,
        style,
        &PortCheckMemo::new(),
    )
}

/// [`plan_design`] with a prebuilt [`ConstraintSkeleton`] and a caller's
/// [`PortCheckMemo`].
///
/// The skeleton must come from [`formulate_skeleton`] on this `dag` (the
/// *base*, un-coalesced DAG) at this geometry's width. Compile sessions
/// and the design-space explorer build the skeleton once per DAG and call
/// this per memory configuration, skipping the spec-independent half of
/// the formulation, and each buffer's contention constraints and access
/// entities once per configuration of that buffer: the skeleton memoizes
/// them, and a plan looks each buffer's up once, to formulate and to
/// realize. They also pass one memo for all their calls, so a
/// buffer whose streams an earlier plan already checked — at any
/// geometry or memory spec — is not checked again. The memo changes no
/// result: every answer equals the checks run on that buffer.
///
/// # Errors
///
/// See [`PlanError`].
pub fn plan_design_with(
    dag: &Dag,
    skeleton: &ConstraintSkeleton,
    geom: &ImageGeometry,
    spec: &MemorySpec,
    opts: ScheduleOptions,
    style: DesignStyle,
    memo: &PortCheckMemo,
) -> Result<Plan, PlanError> {
    let block_bits = spec.backend().block_bits();
    if block_bits < u64::from(geom.pixel_bits) {
        return Err(PlanError::SubPixelBlock {
            block_bits,
            pixel_bits: geom.pixel_bits,
        });
    }
    let mut working = dag.clone();

    // Multirate planning needs every stage's iteration domain to be
    // integral: the cumulative scale must divide the frame extents.
    let scales = dag.stage_scales();
    for (id, _) in dag.stages() {
        let (fx, fy) = scales[id.index()];
        if !(geom.width as u64).is_multiple_of(fx) || !(geom.height as u64).is_multiple_of(fy) {
            return Err(PlanError::IndivisibleExtent {
                stage: id,
                fx,
                fy,
                width: geom.width,
                height: geom.height,
            });
        }
    }

    // Line coalescing rewrite (Sec. 6) where the spec enables it.
    {
        let _s = imagen_obs::span("plan.coalesce");
        let factors: Vec<u32> = (0..working.num_stages())
            .map(|i| spec.coalesce_factor(i, geom))
            .collect();
        if factors.iter().any(|&g| g > 1) {
            apply_line_coalescing(&mut working, |p| CoalesceFactor::new(factors[p]));
        }
    }

    // Each buffer's piece is looked up once: its constraints join the
    // set, and its entities become the streams realize checks.
    let params = SpecBufferParams { spec, geom };
    let (set, pieces) = {
        let _s = imagen_obs::span("plan.formulate");
        let pieces = skeleton.pieces(&working, &params, opts);
        (skeleton.assemble(&pieces), pieces)
    };
    let schedule = {
        let _s = imagen_obs::span("ilp.solve");
        solve_schedule(&working, geom.width, &set)?
    };

    let design = {
        let _s = imagen_obs::span("plan.realize");
        realize_design(&working, &pieces, geom, spec, &schedule, style, memo)?
    };
    Ok(Plan {
        dag: working,
        schedule,
        design,
    })
}

/// Resolves stage `p`'s buffer access streams against a schedule,
/// attaching each stream's multirate cadence (all 1 for rate-1 stages):
/// every accessor maps base rows to producer rows by `pcy` and touches
/// memory at the producer's column cadence `pcx`; the writer is
/// row-active at its own `pcy`, a reader at its consumer's `ccy`.
///
/// Public so out-of-crate checkers (the static analyzer, the cycle
/// simulator) replay exactly the streams the planner certified.
pub fn resolve_entities(
    dag: &Dag,
    p: StageId,
    scales: &[(u64, u64)],
    starts: &[i64],
) -> Vec<ResolvedEntity> {
    streams(&buffer_entities(dag, p), p, scales, starts)
}

/// The streams of stage `p`'s buffer, whose access entities are
/// `entities`, at `starts`: the one builder behind [`resolve_entities`],
/// [`buffer_check`] and the planner's own checks.
fn streams(
    entities: &[AccessEntity],
    p: StageId,
    scales: &[(u64, u64)],
    starts: &[i64],
) -> Vec<ResolvedEntity> {
    let (pcx, pcy) = scales[p.index()];
    entities
        .iter()
        .map(|e| ResolvedEntity {
            start: starts[e.stage.index()],
            row_offset: e.row_offset,
            height: e.height,
            is_writer: e.is_writer,
            row_div: pcy as u32,
            col_div: pcx as u32,
            row_active: if e.is_writer {
                pcy as u32
            } else {
                scales[e.stage.index()].1 as u32
            },
        })
        .collect()
}

/// The port check the planner runs on stage `p`'s buffer under
/// `schedule`: the frame, the ports, the block layout and the streams
/// [`resolve_entities`] resolves. The buffer stores producer-grid rows,
/// so its row splits over blocks by the producer's scale.
pub fn buffer_check(
    dag: &Dag,
    p: StageId,
    scales: &[(u64, u64)],
    schedule: &Schedule,
    geom: &ImageGeometry,
    spec: &MemorySpec,
) -> BufferCheck {
    check_of(&buffer_entities(dag, p), p, scales, schedule, geom, spec)
}

/// [`buffer_check`] of the buffer whose access entities are `entities`.
fn check_of(
    entities: &[AccessEntity],
    p: StageId,
    scales: &[(u64, u64)],
    schedule: &Schedule,
    geom: &ImageGeometry,
    spec: &MemorySpec,
) -> BufferCheck {
    BufferCheck {
        width: geom.width,
        height: geom.height,
        pixel_bits: geom.pixel_bits,
        ports: spec.ports_for(p.index()),
        logical_rows: schedule.buffer_rows[p.index()],
        layout: BlockLayout::new(
            buffer_geometry(geom, scales[p.index()]).row_bits(),
            spec.backend().block_bits(),
            spec.coalesce_factor(p.index(), geom),
        ),
        streams: streams(entities, p, scales, &schedule.starts),
    }
}

/// The frame a buffer at producer scale `(pcx, pcy)` stores: `W/pcx`
/// pixels a row and `H/pcy` rows. Rate-1 buffers keep the full frame.
fn buffer_geometry(geom: &ImageGeometry, (pcx, pcy): (u64, u64)) -> ImageGeometry {
    ImageGeometry {
        width: (geom.width as u64 / pcx) as u32,
        height: (geom.height as u64 / pcy) as u32,
        pixel_bits: geom.pixel_bits,
    }
}

/// Memoized buffer port checks: each distinct buffer is checked once per
/// memo.
///
/// The key is the buffer's [`BufferCheck`], with every stream's start
/// taken relative to the buffer's earliest start. Both checks depend only
/// on start differences, except that a violation's cycle moves with the
/// starts, so the memo stores that cycle relative to the earliest start
/// and a hit adds back its own buffer's. Across a DSE sweep most points
/// share most buffers: Canny-m's 512 points at 32×24 realize 4,608
/// buffers with 12 distinct keys, and a hit costs less than deciding the
/// key again. Verdicts are kept in an [`imagen_obs::Memo`], so every key
/// is decided once at any worker count.
///
/// A compile session (`imagen_core::Session`) owns one memo for its
/// lifetime; [`plan_design`] makes one per call. The memo has no cap:
/// it holds at most one entry per buffer of each plan its owner computes,
/// and the owner already holds every such plan — as a DSE point or a
/// cache entry — at far larger size. In practice it holds far fewer: at
/// 64×48 on 32 Kbit macros, 256-point random sweeps of three 60-stage
/// synthetic pipelines end with 506–708 entries from 15,104 lookups, and
/// 1,024-point sweeps of three 40-stage ones with 230–671 from 39,936.
#[derive(Default, Debug)]
pub struct PortCheckMemo {
    verdicts: Memo<BufferCheck, BufferVerdict>,
}

impl PortCheckMemo {
    /// An empty memo.
    pub fn new() -> PortCheckMemo {
        PortCheckMemo::default()
    }

    /// Distinct buffer checks run so far: the number of memoized keys.
    pub fn len(&self) -> usize {
        self.verdicts.len()
    }

    /// Whether no buffer has been checked yet.
    pub fn is_empty(&self) -> bool {
        self.verdicts.is_empty()
    }

    /// Distinct buffer checks whose verdict needed the row scanner: the
    /// memoized keys the arithmetic left undecided. Like [`len`](Self::len)
    /// it counts keys, so it does not depend on the order of the lookups
    /// or on how many workers made them.
    pub fn scans(&self) -> usize {
        self.verdicts.count(|v| v.scanned)
    }

    /// The physical rows of `buffer`, whose check inputs `key` holds with
    /// absolute stream starts, or its violation at its absolute cycle.
    fn phys_rows(&self, buffer: StageId, mut key: BufferCheck) -> Result<u32, PlanError> {
        let origin = key.streams.iter().map(|e| e.start).min().unwrap_or(0);
        for e in &mut key.streams {
            e.start -= origin;
        }
        let (verdict, _) = self.verdicts.get_or_compute(&key, || key.verdict());
        verdict.phys_rows.map_err(|v| {
            let violation = PortViolation {
                cycle: v.cycle + origin,
                ..v
            };
            if violation.physical {
                PlanError::AliasingUnrepairable { buffer, violation }
            } else {
                PlanError::ScheduleViolation { buffer, violation }
            }
        })
    }
}

/// Turns a schedule into an allocated, priced design: per-buffer physical
/// planning, aliasing slack, analytic access statistics, PE costs.
/// `pieces` holds each buffer's formulation piece, in
/// [`Dag::buffered_stages`] order.
fn realize_design(
    dag: &Dag,
    pieces: &[Arc<BufferPiece>],
    geom: &ImageGeometry,
    spec: &MemorySpec,
    schedule: &Schedule,
    style: DesignStyle,
    memo: &PortCheckMemo,
) -> Result<Design, PlanError> {
    let scales = dag.stage_scales();

    let mut buffers = Vec::new();
    for (p, piece) in dag.buffered_stages().into_iter().zip(pieces) {
        let check = check_of(&piece.entities, p, &scales, schedule, geom, spec);
        let (pcx, pcy) = scales[p.index()];

        // Analytic access statistics: per *active* cycle the writer makes
        // 1 access and each reader entity `height` accesses; multirate
        // streams are active only on their cadence sub-grid, so each
        // stream's per-base-cycle rate is scaled by its activity fraction.
        // Spread over the buffer's blocks below (uniform across blocks of
        // equal configuration, which keeps the total — what the power
        // model integrates — exact).
        let per_cycle: f64 = check
            .streams
            .iter()
            .map(|e| {
                let accesses = if e.is_writer { 1.0 } else { e.height as f64 };
                accesses / (e.row_active as f64 * e.col_div as f64)
            })
            .sum();

        // The absolute-row discipline (must hold by construction), then
        // the minimal physical rows.
        let (ports, logical_rows, layout) = (check.ports, check.logical_rows, check.layout);
        let phys_rows = memo.phys_rows(p, check)?;

        let mut plan = allocate_buffer(
            p.index(),
            logical_rows,
            layout.with_phys_rows(phys_rows),
            &buffer_geometry(geom, (pcx, pcy)),
            ports,
            0,
            false,
        );

        let write_fraction = 1.0 / (pcy as f64 * pcx as f64);
        let nblocks = plan.blocks.len().max(1) as f64;
        for blk in &mut plan.blocks {
            blk.avg_accesses_per_cycle = per_cycle / nblocks;
            // One producer write per active cycle, spread over the rotation.
            blk.avg_writes_per_cycle = write_fraction / nblocks;
            blk.peak_accesses = blk.peak_accesses.max(ports.min(per_cycle.ceil() as u32));
        }
        buffers.push(plan);
    }

    // PE and shift-register-array costs.
    let mut pe_area = 0.0;
    let mut pe_pj = 0.0;
    let mut sra_bits = 0u64;
    for (_, s) in dag.stages() {
        if let StageKind::Compute { kernel } = s.kind() {
            let c = kernel.op_census();
            pe_area += PeModel::area_mm2(c.adds, c.muls, c.divs, c.cmps, c.muxes);
            pe_pj += PeModel::energy_pj(c.adds, c.muls, c.divs, c.cmps, c.muxes);
        }
    }
    for (_, e) in dag.edges() {
        sra_bits += e.window().height as u64 * e.window().width() as u64 * geom.pixel_bits as u64;
    }

    Ok(Design {
        name: dag.name().to_string(),
        geometry: *geom,
        backend: spec.backend(),
        style,
        start_cycles: schedule.starts.iter().map(|&s| s as u64).collect(),
        buffers,
        pe_area_mm2: pe_area,
        pe_power_mw: imagen_mem::tech::pj_per_cycle_to_mw(pe_pj, CLOCK_MHZ),
        sra_bits,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraints::dependency_gap;
    use crate::solve::{size_buffers, SolveReport};
    use imagen_ir::Expr;
    use imagen_mem::MemBackend;

    fn box3(slot: usize) -> Expr {
        Expr::sum((0..9).map(move |i| Expr::tap(slot, i % 3 - 1, i / 3 - 1)))
    }

    fn fig6() -> Dag {
        let mut dag = Dag::new("fig6");
        let k0 = dag.add_input("K0");
        let k1 = dag.add_stage("K1", &[k0], box3(0)).unwrap();
        let k2 = dag
            .add_stage(
                "K2",
                &[k0, k1],
                Expr::bin(
                    imagen_ir::BinOp::Add,
                    Expr::sum((0..4).map(|i| Expr::tap(0, i % 2, i / 2))),
                    box3(1),
                ),
            )
            .unwrap();
        dag.mark_output(k2);
        dag
    }

    fn small_geom() -> ImageGeometry {
        ImageGeometry {
            width: 32,
            height: 24,
            pixel_bits: 16,
        }
    }

    #[test]
    fn ours_dual_port_plans() {
        let spec = MemorySpec::new(MemBackend::Asic { block_bits: 2048 }, 2);
        let plan = plan_design(
            &fig6(),
            &small_geom(),
            &spec,
            ScheduleOptions::default(),
            DesignStyle::Ours,
        )
        .unwrap();
        assert!(plan.design.ports_respected());
        // Dual-port: single-consumer buffers need no aliasing slack
        // (write+read block sharing is legal); the multi-consumer K0
        // buffer may need at most one slack row (the writer would
        // otherwise alias K2's oldest row while K1 overlaps the writer —
        // the rotation aliasing `checker` refines the check with).
        for b in &plan.design.buffers {
            assert!(
                b.layout.phys_rows() - b.logical_rows <= 1,
                "slack bounded by one row on dual port"
            );
        }
        let k1_buffer = &plan.design.buffers[1];
        assert_eq!(
            k1_buffer.layout.phys_rows(),
            k1_buffer.logical_rows,
            "single-consumer buffer needs no slack"
        );
        assert!(plan.design.sram_kb() > 0.0);
    }

    /// A block smaller than one pixel is refused before any sizing; a
    /// block of exactly one pixel plans.
    #[test]
    fn blocks_smaller_than_a_pixel_are_refused() {
        let plan_with = |block_bits| {
            plan_design(
                &fig6(),
                &small_geom(),
                &MemorySpec::new(MemBackend::Asic { block_bits }, 2),
                ScheduleOptions::default(),
                DesignStyle::Ours,
            )
        };
        for block_bits in [0, 8, 15] {
            assert_eq!(
                plan_with(block_bits).unwrap_err(),
                PlanError::SubPixelBlock {
                    block_bits,
                    pixel_bits: 16
                }
            );
        }
        assert!(plan_with(16).unwrap().design.ports_respected());
    }

    #[test]
    fn fixynn_single_port_needs_slack() {
        let spec = MemorySpec::new(MemBackend::Asic { block_bits: 2048 }, 1);
        let plan = plan_design(
            &fig6(),
            &small_geom(),
            &spec,
            ScheduleOptions::default(),
            DesignStyle::FixyNn,
        )
        .unwrap();
        // Single-port: the writer must never physically alias a reader
        // row, so at least one buffer carries slack.
        assert!(plan
            .design
            .buffers
            .iter()
            .any(|b| b.layout.phys_rows() > b.logical_rows));
        // And single-port must use at least as much SRAM as dual-port.
        let dual = plan_design(
            &fig6(),
            &small_geom(),
            &MemorySpec::new(MemBackend::Asic { block_bits: 2048 }, 2),
            ScheduleOptions::default(),
            DesignStyle::Ours,
        )
        .unwrap();
        assert!(plan.design.sram_kb() >= dual.design.sram_kb());
    }

    #[test]
    fn coalescing_reduces_block_count() {
        let geom = small_geom();
        // Blocks hold two rows: 2 * 32 * 16 = 1024 bits.
        let backend = MemBackend::Asic { block_bits: 1024 };
        let plain = plan_design(
            &fig6(),
            &geom,
            &MemorySpec::new(backend, 2),
            ScheduleOptions::default(),
            DesignStyle::Ours,
        )
        .unwrap();
        let lc = plan_design(
            &fig6(),
            &geom,
            &MemorySpec::new(backend, 2).with_coalescing(),
            ScheduleOptions::default(),
            DesignStyle::OursLc,
        )
        .unwrap();
        assert!(
            lc.design.block_count() < plain.design.block_count(),
            "LC: {} blocks vs plain {} blocks",
            lc.design.block_count(),
            plain.design.block_count()
        );
        assert!(lc.design.sram_kb() < plain.design.sram_kb());
    }

    #[test]
    fn split_rows_plan_when_rows_exceed_blocks() {
        // Tiny blocks force each row across 2 blocks.
        let spec = MemorySpec::new(MemBackend::Asic { block_bits: 256 }, 2);
        let plan = plan_design(
            &fig6(),
            &small_geom(),
            &spec,
            ScheduleOptions::default(),
            DesignStyle::Ours,
        )
        .unwrap();
        assert!(plan
            .design
            .buffers
            .iter()
            .all(|b| b.layout.blocks_per_row() == 2));
    }

    #[test]
    fn access_totals_preserved() {
        let spec = MemorySpec::new(MemBackend::Asic { block_bits: 2048 }, 2);
        let plan = plan_design(
            &fig6(),
            &small_geom(),
            &spec,
            ScheduleOptions::default(),
            DesignStyle::Ours,
        )
        .unwrap();
        // K0's buffer: writer 1 + K1 reads 3 + K2 reads 2 = 6 accesses per
        // cycle, spread over its blocks.
        let b0 = &plan.design.buffers[0];
        let total: f64 = b0.blocks.iter().map(|b| b.avg_accesses_per_cycle).sum();
        assert!((total - 6.0).abs() < 1e-9, "got {total}");
    }

    /// The scanner run directly on one buffer, at its absolute starts.
    fn checked_directly(buffer: StageId, k: &BufferCheck) -> Result<u32, PlanError> {
        k.scan().map_err(|violation| {
            if violation.physical {
                PlanError::AliasingUnrepairable { buffer, violation }
            } else {
                PlanError::ScheduleViolation { buffer, violation }
            }
        })
    }

    /// One memo fed random buffers, each followed by variants that change
    /// one key field (or only move every start), answers every buffer as
    /// the checks run directly on it do. A key that dropped a field would
    /// serve a variant its base buffer's verdict.
    #[test]
    fn shared_memo_answers_every_buffer_as_the_checks_do() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x3e30_c4ec_0b0f_fe25);
        let mut next = move |n: u64| rng.next_u64() % n;
        let (w, px) = (32u32, 16u32);
        let row = (w * px) as u64;
        let memo = PortCheckMemo::new();
        let buffer = StageId::from_index(1);
        let (mut lookups, mut answers) = (0usize, std::collections::HashSet::new());
        for round in 0..80 {
            let strided = round % 2 == 1;
            let (row_div, col_div) = if strided {
                (2, 1 + next(2) as u32)
            } else {
                (1, 1)
            };
            let origin = next(4) as i64 * 97;
            let g = 1 + next(2) as u32;
            let base = BufferCheck {
                width: w,
                height: [24, 48][next(2) as usize],
                pixel_bits: px,
                ports: 1 + next(2) as u32,
                logical_rows: 1 + next(4) as u32,
                layout: BlockLayout::new(row, 2 * row, g),
                streams: (0..2 + next(3))
                    .map(|i| ResolvedEntity {
                        start: origin + next(5) as i64 * w as i64 + next(3) as i64,
                        row_offset: next(3) as u32,
                        height: 1 + next(3) as u32,
                        is_writer: i == 0,
                        row_div,
                        col_div,
                        row_active: if strided { 1 + next(2) as u32 } else { 1 },
                    })
                    .collect(),
            };
            let pick = 1 + next(base.streams.len() as u64 - 1) as usize;
            let d = 1 + next(8 * w as u64) as i64;
            let variants = [
                base.clone(),
                BufferCheck {
                    ports: 3 - base.ports,
                    ..base.clone()
                },
                BufferCheck {
                    layout: BlockLayout::new(row, 2 * row, 3 - g),
                    ..base.clone()
                },
                BufferCheck {
                    layout: BlockLayout::new(row, row / 2, 1),
                    ..base.clone()
                },
                {
                    let mut k = base.clone();
                    let e = &mut k.streams[pick];
                    e.row_active = 3 - e.row_active;
                    if !strided {
                        e.row_div = 2;
                        e.col_div = 2;
                    }
                    k
                },
                {
                    let mut k = base.clone();
                    k.streams[pick].row_offset += 1;
                    k
                },
                BufferCheck {
                    height: 72 - base.height,
                    ..base.clone()
                },
                {
                    let mut k = base.clone();
                    k.streams.iter_mut().for_each(|e| e.start += d);
                    k
                },
            ];
            for key in variants {
                let direct = checked_directly(buffer, &key);
                assert_eq!(
                    memo.phys_rows(buffer, key.clone()),
                    direct,
                    "memo disagrees with the checks on {key:?}"
                );
                lookups += 1;
                answers.insert(format!("{direct:?}"));
            }
        }
        assert!(memo.len() < lookups, "some variants hit the memo");
        assert!(answers.len() > 3, "the variants reach varied verdicts");
    }

    /// Fig. 6 on one port with K1 at its dependency bound: the writer and
    /// K1's window meet on row 2, an absolute violation on K0's buffer.
    /// Realized a second time through the same memo with every start
    /// moved by `3W + 5`, it reports the violation `3W + 5` cycles later,
    /// as a fresh memo does.
    #[test]
    fn memo_hit_moves_the_violation_cycle_with_the_starts() {
        let dag = fig6();
        let geom = small_geom();
        let w = geom.width as i64;
        let spec = MemorySpec::new(MemBackend::Asic { block_bits: 2048 }, 1);
        let gap = |p: usize, c: usize| {
            let (_, e) = dag
                .edges()
                .find(|(_, e)| e.producer().index() == p && e.consumer().index() == c)
                .expect("edge");
            dependency_gap(e.window(), w)
        };
        let k1 = gap(0, 1);
        let starts = vec![0, k1, gap(0, 2).max(k1 + gap(1, 2))];
        let schedule_at = |starts: Vec<i64>| {
            let (buffer_rows, total_rows) = size_buffers(&dag, geom.width, &starts);
            Schedule {
                starts,
                buffer_rows,
                total_rows,
                report: SolveReport::default(),
            }
        };
        let shift = 3 * w + 5;
        let first = schedule_at(starts.clone());
        let moved = schedule_at(starts.iter().map(|s| s + shift).collect());
        let params = SpecBufferParams {
            spec: &spec,
            geom: &geom,
        };
        let pieces =
            formulate_skeleton(&dag, geom.width).pieces(&dag, &params, ScheduleOptions::default());
        let realize = |schedule: &Schedule, memo: &PortCheckMemo| {
            realize_design(
                &dag,
                &pieces,
                &geom,
                &spec,
                schedule,
                DesignStyle::Ours,
                memo,
            )
            .expect_err("one port cannot serve the writer and K1 on one row")
        };

        let memo = PortCheckMemo::new();
        let cold = realize(&first, &memo);
        let PlanError::ScheduleViolation { buffer, violation } = cold.clone() else {
            panic!("expected an absolute violation, got {cold}");
        };
        assert_eq!(buffer.index(), 0);
        assert_eq!(memo.len(), 1);
        let hit = realize(&moved, &memo);
        assert_eq!(memo.len(), 1, "the moved schedule is a hit");
        assert_eq!(
            hit,
            PlanError::ScheduleViolation {
                buffer,
                violation: PortViolation {
                    cycle: violation.cycle + shift,
                    ..violation
                },
            }
        );
        assert_eq!(hit, realize(&moved, &PortCheckMemo::new()));
    }

    #[test]
    fn pe_and_sra_costs_present() {
        let spec = MemorySpec::new(MemBackend::Asic { block_bits: 2048 }, 2);
        let plan = plan_design(
            &fig6(),
            &small_geom(),
            &spec,
            ScheduleOptions::default(),
            DesignStyle::Ours,
        )
        .unwrap();
        assert!(plan.design.pe_area_mm2 > 0.0);
        assert!(plan.design.pe_power_mw > 0.0);
        assert!(plan.design.sra_bits > 0);
        assert!(plan.design.memory_area_fraction() > 0.5);
    }
}
