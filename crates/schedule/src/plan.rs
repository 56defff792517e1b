//! The end-to-end planner: DAG + geometry + memory spec → scheduled,
//! allocated, priced [`Design`].
//!
//! This is the "Optimizer" box of the paper's Fig. 5: line coalescing
//! (when the spec allows it), constraint formulation, ILP solving, buffer
//! sizing, physical block allocation (with aliasing slack, DESIGN.md §4)
//! and analytic access statistics for the power model. The cycle-level
//! simulator (`imagen-sim`) independently replays the result and verifies
//! throughput, port discipline and functional correctness.

use crate::checker::{check_accesses, required_phys_rows, PortViolation, ResolvedEntity};
use crate::constraints::{
    formulate_skeleton, formulate_with, BufferParams, ConstraintSkeleton, FormulationOptions,
};
use crate::entity::buffer_entities;
use crate::solve::{solve_schedule, Schedule, ScheduleError, ScheduleOptions};
use imagen_ir::{apply_line_coalescing, CoalesceFactor, Dag, StageId, StageKind};
use imagen_mem::{
    allocate_buffer, Design, DesignStyle, ImageGeometry, MemorySpec, PeModel, CLOCK_MHZ,
};
use std::fmt;

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
/// style when invoked from `imagen-baselines`).
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
    )
}

/// [`plan_design`] with a prebuilt [`ConstraintSkeleton`].
///
/// The skeleton must come from [`formulate_skeleton`] on this `dag` (the
/// *base*, un-coalesced DAG) at this geometry's width. Compile sessions
/// and the design-space explorer build the skeleton once per DAG and call
/// this per memory configuration, skipping the spec-independent half of
/// the formulation.
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
) -> Result<Plan, PlanError> {
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

    let params = SpecBufferParams { spec, geom };
    let set = {
        let _s = imagen_obs::span("plan.formulate");
        formulate_with(
            &working,
            geom.width,
            skeleton,
            &params,
            FormulationOptions {
                pruning: opts.pruning,
            },
        )
    };
    let schedule = {
        let _s = imagen_obs::span("ilp.solve");
        solve_schedule(&working, geom.width, &set)?
    };

    let design = {
        let _s = imagen_obs::span("plan.realize");
        realize_design(&working, geom, spec, &schedule, style)?
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
    let (pcx, pcy) = scales[p.index()];
    buffer_entities(dag, p)
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

/// Turns a schedule into an allocated, priced design: per-buffer physical
/// planning, aliasing slack, analytic access statistics, PE costs.
pub fn realize_design(
    dag: &Dag,
    geom: &ImageGeometry,
    spec: &MemorySpec,
    schedule: &Schedule,
    style: DesignStyle,
) -> Result<Design, PlanError> {
    let block_bits = spec.backend().block_bits();
    let scales = dag.stage_scales();

    let mut buffers = Vec::new();
    for p in dag.buffered_stages() {
        let ports = spec.ports_for(p.index());
        let g = spec.coalesce_factor(p.index(), geom).max(1);
        let (pcx, pcy) = scales[p.index()];
        // The buffer stores producer-grid rows: `W/pcx` pixels each, and
        // `H/pcy` of them per frame. Rate-1 buffers keep the full frame
        // geometry.
        let buf_geom = ImageGeometry {
            width: (geom.width as u64 / pcx) as u32,
            height: (geom.height as u64 / pcy) as u32,
            pixel_bits: geom.pixel_bits,
        };
        let row_bits = buf_geom.row_bits();
        let blocks_per_row = if row_bits > block_bits {
            row_bits.div_ceil(block_bits) as u32
        } else {
            1
        };
        let entities: Vec<ResolvedEntity> = resolve_entities(dag, p, &scales, &schedule.starts);

        // Absolute-row discipline: must hold by construction.
        if let Err(violation) = check_accesses(
            geom.width,
            geom.height,
            geom.pixel_bits,
            &entities,
            ports,
            None,
        ) {
            return Err(PlanError::ScheduleViolation {
                buffer: p,
                violation,
            });
        }

        let logical_rows = schedule.buffer_rows[p.index()];
        let phys_rows = required_phys_rows(
            geom.width,
            geom.height,
            geom.pixel_bits,
            &entities,
            ports,
            logical_rows,
            if blocks_per_row > 1 { 1 } else { g },
            blocks_per_row,
            block_bits,
        )
        .map_err(|violation| PlanError::AliasingUnrepairable {
            buffer: p,
            violation,
        })?;

        let mut plan = allocate_buffer(
            p.index(),
            phys_rows,
            logical_rows,
            if blocks_per_row > 1 { 1 } else { g },
            &buf_geom,
            spec.backend(),
            ports,
            0,
            false,
        );

        // Analytic access statistics: per *active* cycle the writer makes
        // 1 access and each reader entity `height` accesses; multirate
        // streams are active only on their cadence sub-grid, so each
        // stream's per-base-cycle rate is scaled by its activity fraction.
        // Spread over the buffer's blocks (uniform across blocks of equal
        // configuration, which keeps the total — what the power model
        // integrates — exact).
        let per_cycle: f64 = entities
            .iter()
            .map(|e| {
                let accesses = if e.is_writer { 1.0 } else { e.height as f64 };
                accesses / (e.row_active as f64 * e.col_div as f64)
            })
            .sum();
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
        // the physical refinement documented in DESIGN.md §4).
        for b in &plan.design.buffers {
            assert!(
                b.phys_rows - b.logical_rows <= 1,
                "slack bounded by one row on dual port"
            );
        }
        let k1_buffer = &plan.design.buffers[1];
        assert_eq!(
            k1_buffer.phys_rows, k1_buffer.logical_rows,
            "single-consumer buffer needs no slack"
        );
        assert!(plan.design.sram_kb() > 0.0);
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
            .any(|b| b.phys_rows > b.logical_rows));
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
        assert!(plan.design.buffers.iter().all(|b| b.blocks_per_row == 2));
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
