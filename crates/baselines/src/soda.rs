//! SODA-style FIFO line-buffer generator (paper Sec. 3.1, Fig. 4).
//!
//! SODA implements each line buffer as a chain of FIFOs on dual-port
//! memories. Per producer:
//!
//! * the consumer's window rows become full-line FIFO segments — a
//!   consumer of stencil height `SH` needs `SH - 1` full lines in SRAM;
//! * the *head* segment (the line currently being written, a handful of
//!   elements deep) is a DFF shift register, which is why SODA's SRAM
//!   figure undercuts the classic design (the paper measures Ours ≈ 31%
//!   higher SRAM than SODA at 320p);
//! * with multiple consumers each shared segment must split into two
//!   FIFOs (Fig. 4b) — two more blocks per shared line — so SODA pays for
//!   multi-consumer stages in *block count*;
//! * every FIFO block performs one push and one pop per cycle: two
//!   accesses per block per cycle, the ~35% BRAM power penalty the paper
//!   measures (Sec. 3.1).
//!
//! FIFOs are dataflow-scheduled, so the stage start cycles are the ASAP
//! dependency schedule; there are no port-contention constraints to solve.

use imagen_ir::{Dag, StageId};
use imagen_mem::{
    BlockLayout, BlockRole, BufferPlan, Design, DesignStyle, ImageGeometry, MemBackend, PeModel,
    PhysBlock, CLOCK_MHZ,
};
use imagen_schedule::{
    asap_schedule, dependency_gap, row_periods, DiffGe, Plan, PlanError, Schedule,
};

/// Generates a SODA-style FIFO design.
///
/// # Errors
///
/// Propagates [`PlanError::Schedule`] if the dependency system is
/// infeasible (cannot happen for validated DAGs).
pub fn generate_soda(
    dag: &Dag,
    geom: &ImageGeometry,
    backend: MemBackend,
) -> Result<Plan, PlanError> {
    // ASAP dependency schedule (multirate-aware: each producer's row
    // period in the common base clock scales the gap).
    let periods = row_periods(dag, geom.width);
    let deps: Vec<DiffGe> = dag
        .edges()
        .map(|(_, e)| DiffGe {
            a: e.consumer(),
            b: e.producer(),
            k: dependency_gap(e.window(), periods[e.producer().index()]),
        })
        .collect();
    let starts = asap_schedule(dag.num_stages(), &deps, &[]).map_err(PlanError::Schedule)?;

    let block_bits = backend.block_bits();
    let row_bits = geom.row_bits();
    let mut buffers = Vec::new();
    for p in dag.buffered_stages() {
        buffers.push(plan_fifo_buffer(
            dag, p, geom, block_bits, row_bits, &starts,
        ));
    }

    // PE / SRA costs (identical machinery to the planner's).
    let mut pe_area = 0.0;
    let mut pe_pj = 0.0;
    let mut sra_bits = 0u64;
    for (_, s) in dag.stages() {
        if let imagen_ir::StageKind::Compute { kernel } = s.kind() {
            let c = kernel.op_census();
            pe_area += PeModel::area_mm2(c.adds, c.muls, c.divs, c.cmps, c.muxes);
            pe_pj += PeModel::energy_pj(c.adds, c.muls, c.divs, c.cmps, c.muxes);
        }
    }
    for (_, e) in dag.edges() {
        sra_bits += e.window().height as u64 * e.window().width() as u64 * geom.pixel_bits as u64;
    }

    let design = Design {
        name: dag.name().to_string(),
        geometry: *geom,
        backend,
        style: DesignStyle::Soda,
        start_cycles: starts.iter().map(|&s| s as u64).collect(),
        buffers,
        pe_area_mm2: pe_area,
        pe_power_mw: imagen_mem::tech::pj_per_cycle_to_mw(pe_pj, CLOCK_MHZ),
        sra_bits,
    };

    let (buffer_rows, total_rows) = imagen_schedule::size_buffers(dag, geom.width, &starts);
    let schedule = Schedule {
        starts,
        buffer_rows,
        total_rows,
        report: Default::default(),
    };
    Ok(Plan {
        dag: dag.clone(),
        schedule,
        design,
    })
}

/// Plans one producer's FIFO chain.
///
/// The chain depth for each consumer is its full *reuse distance* under
/// the dataflow (ASAP) schedule: FIFOs must hold every pixel from the
/// moment the producer emits it until the consumer's last tap — including
/// the skew introduced by the consumer's own upstream pipeline. This is
/// what makes SODA pay on multiple-consumer graphs: a late consumer
/// (e.g. the final blend of a denoiser) forces a deep FIFO on data that a
/// rotating line buffer would have simply retained in place.
fn plan_fifo_buffer(
    dag: &Dag,
    p: StageId,
    geom: &ImageGeometry,
    block_bits: u64,
    row_bits: u64,
    starts: &[i64],
) -> BufferPlan {
    let w = geom.width as i64;
    // Consumers sorted by how deep into the history they reach: rows of
    // retention = ceil((S_c - S_p - lag*W) / W), never less than the
    // window reach itself.
    let depths: Vec<u32> = dag
        .consumer_edges(p)
        .map(|(_, e)| {
            let d = starts[e.consumer().index()] - starts[p.index()] - e.window().lag as i64 * w;
            let skew_rows = (d + w - 1).div_euclid(w).max(1) as u32;
            skew_rows.max(e.window().newest_row() + 1)
        })
        .collect();
    let max_depth = depths.iter().copied().max().unwrap_or(1);
    let n_consumers = depths.len() as u32;
    // The rotating functional model needs the full reuse distance.
    let layout = BlockLayout::new(row_bits, block_bits, 1).with_phys_rows(max_depth);

    // Full-line FIFO segments: lines 1..max_depth-1 relative to the head.
    // A line needed by k consumers beyond the first splits into k FIFOs
    // (Fig. 4b); each split chain carries the *full* pixel stream — the
    // second pop port is bought by duplicating the data flow, which is
    // exactly why SODA pays in blocks and in write energy on
    // multiple-consumer pipelines.
    let mut blocks = Vec::new();
    for line in 1..max_depth {
        // How many consumers reach at least this deep?
        let sharers = depths.iter().filter(|&&d| d > line).count() as u32;
        let splits = sharers.max(1);
        for _split in 0..splits {
            let mut remaining = row_bits;
            for _ in 0..layout.blocks_per_row() {
                let used = remaining.min(block_bits);
                remaining -= used;
                blocks.push(PhysBlock {
                    capacity_bits: block_bits,
                    used_bits: used,
                    ports: 2,
                    role: BlockRole::FifoSegment,
                    // FIFO property: one push + one pop every cycle — the
                    // push re-writes the pixel at every segment, which is
                    // where FIFO designs lose power.
                    avg_accesses_per_cycle: 2.0,
                    avg_writes_per_cycle: 1.0,
                    peak_accesses: 2,
                });
            }
        }
    }

    // Head segment in DFFs: the partial line between the writer and the
    // first tap — a few elements per consumer (we charge one stencil-width
    // worth per consumer chain, Fig. 4's "2 here" example).
    let head_px: u64 = dag
        .consumer_edges(p)
        .map(|(_, e)| e.window().width() as u64)
        .sum::<u64>()
        .max(1);
    let dff_bits = head_px * geom.pixel_bits as u64 * n_consumers.min(1) as u64;

    BufferPlan {
        stage: p.index(),
        logical_rows: max_depth,
        layout,
        blocks,
        dff_bits,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imagen_ir::Expr;

    fn box3(slot: usize) -> Expr {
        Expr::sum((0..9).map(move |i| Expr::tap(slot, i % 3 - 1, i / 3 - 1)))
    }

    fn geom() -> ImageGeometry {
        ImageGeometry {
            width: 24,
            height: 16,
            pixel_bits: 16,
        }
    }

    fn backend() -> MemBackend {
        MemBackend::Asic {
            block_bits: 2 * 24 * 16,
        }
    }

    #[test]
    fn single_consumer_uses_sh_minus_one_lines() {
        let mut dag = Dag::new("chain");
        let k0 = dag.add_input("K0");
        let k1 = dag.add_stage("K1", &[k0], box3(0)).unwrap();
        dag.mark_output(k1);
        let plan = generate_soda(&dag, &geom(), backend()).unwrap();
        let buf = &plan.design.buffers[0];
        // 3-row window -> 2 full-line FIFOs in SRAM + DFF head.
        assert_eq!(buf.blocks.len(), 2);
        assert!(buf.dff_bits > 0);
        assert!(buf
            .blocks
            .iter()
            .all(|b| b.role == BlockRole::FifoSegment && b.avg_accesses_per_cycle == 2.0));
    }

    #[test]
    fn multi_consumer_splits_fifos() {
        let mut dag = Dag::new("mc");
        let k0 = dag.add_input("K0");
        let k1 = dag.add_stage("K1", &[k0], box3(0)).unwrap();
        let k2 = dag
            .add_stage(
                "K2",
                &[k0, k1],
                Expr::bin(imagen_ir::BinOp::Add, box3(0), box3(1)),
            )
            .unwrap();
        dag.mark_output(k2);
        let plan = generate_soda(&dag, &geom(), backend()).unwrap();
        // K0's buffer: both consumers reach 3 rows deep (K2's window on K0
        // sits at lag 1 -> depth 4); shared lines split into 2 FIFOs.
        let buf = &plan.design.buffers[0];
        assert!(
            buf.blocks.len() >= 4,
            "shared lines must split: got {} blocks",
            buf.blocks.len()
        );
    }

    #[test]
    fn soda_uses_asap_schedule() {
        let mut dag = Dag::new("chain");
        let k0 = dag.add_input("K0");
        let k1 = dag.add_stage("K1", &[k0], box3(0)).unwrap();
        let k2 = dag.add_stage("K2", &[k1], box3(0)).unwrap();
        dag.mark_output(k2);
        let plan = generate_soda(&dag, &geom(), backend()).unwrap();
        // ASAP: exactly the dependency gaps (2W+1 = 49 at W=24).
        assert_eq!(plan.schedule.starts, vec![0, 49, 98]);
        assert_eq!(plan.design.style, DesignStyle::Soda);
    }

    #[test]
    fn soda_sram_below_ours_single_consumer() {
        // The headline SODA property: fewer SRAM bits for single-consumer
        // chains (head line in DFFs).
        let mut dag = Dag::new("chain");
        let k0 = dag.add_input("K0");
        let k1 = dag.add_stage("K1", &[k0], box3(0)).unwrap();
        dag.mark_output(k1);
        let soda = generate_soda(&dag, &geom(), backend()).unwrap().design;
        let spec = imagen_mem::MemorySpec::new(backend(), 2);
        let ours = imagen_schedule::plan_design(
            &dag,
            &geom(),
            &spec,
            imagen_schedule::ScheduleOptions::default(),
            DesignStyle::Ours,
        )
        .unwrap()
        .design;
        assert!(
            soda.sram_kb() < ours.sram_kb(),
            "SODA {} KB vs Ours {} KB",
            soda.sram_kb(),
            ours.sram_kb()
        );
    }
}
