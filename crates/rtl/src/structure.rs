//! The structure of a scheduled design, derived once.
//!
//! [`describe`] reads `(Dag, Design)` into a [`Structure`]: the stages
//! with their start cycles, rate scales, input streams, kernels,
//! operator census and line buffers, the stencil edges, and each line
//! buffer's geometry on its producer's grid. It is the one per-stage
//! record of a design: a stage's kernel, windows (its consumed edges),
//! start cycle and buffer are read by stage index or in one grouping
//! pass, never found by a scan per stage.
//! [`build_netlist`](crate::build_netlist) elaborates modules on top of
//! it and keeps it; the emitter, the executor, resource accounting,
//! clock gating and energy pricing read it instead of any module, so a
//! design-space sweep describes each point and never elaborates it.

use imagen_ir::{Dag, Expr, OpCensus, StageKind, Window};
use imagen_mem::{Design, ImageGeometry};
use std::sync::Arc;

/// Per-stage control/schedule information.
#[derive(Clone, Debug)]
pub struct NetStage {
    /// Stage index in the DAG (= topological position).
    pub index: usize,
    /// Stage name as authored.
    pub name: String,
    /// Identifier-safe stage name used for nets and module names.
    pub sanitized: String,
    /// `Some(k)` when this is the `k`-th input stream; `None` for compute
    /// stages.
    pub input_stream: Option<usize>,
    /// The kernel evaluated once per output pixel: the DAG stage's own
    /// tree ([`imagen_ir::StageKind::Compute`]), shared, not copied.
    /// `None` for input stages, which have no compute module.
    pub kernel: Option<Arc<Expr>>,
    /// Operator census of the stage's kernel; `None` for input stages.
    pub census: Option<OpCensus>,
    /// Index into [`Structure::buffers`] of the line buffer the stage
    /// writes; `None` when no consumer windows it.
    pub buffer: Option<usize>,
    /// Whether the stage drives an output stream.
    pub is_output: bool,
    /// ILP start cycle.
    pub start_cycle: u64,
    /// Cumulative horizontal rate scale (`1` for rate-1 stages): the
    /// stage computes only on base cycles with `x % scale_x == 0`.
    pub scale_x: u64,
    /// Cumulative vertical rate scale (`1` for rate-1 stages): the stage
    /// computes only on base rows with `y % scale_y == 0`.
    pub scale_y: u64,
}

impl NetStage {
    /// Whether the stage runs at a non-unit cumulative rate.
    pub fn is_multirate(&self) -> bool {
        self.scale_x != 1 || self.scale_y != 1
    }
}

/// One producer→consumer stencil edge.
#[derive(Clone, Debug)]
pub struct NetEdge {
    /// Producer stage index.
    pub producer: usize,
    /// Consumer stage index.
    pub consumer: usize,
    /// Tap slot in the consumer's kernel.
    pub slot: usize,
    /// The stencil window (normalized coordinates).
    pub window: Window,
}

/// One planned line buffer, sized on its producer's grid.
#[derive(Clone, Debug)]
pub struct NetBuffer {
    /// Producer stage index owning the buffer.
    pub stage: usize,
    /// Words per buffered row: the producer's own grid, `W / scale_x`
    /// (the frame width for rate-1 producers).
    pub width: u32,
    /// Rows physically allocated by the plan.
    pub phys_rows: u32,
    /// Rows required by the schedule.
    pub logical_rows: u32,
    /// Rows of rotating storage the hardware holds
    /// (`phys_rows.max(logical_rows).max(1)` — the cycle simulator's
    /// storage model).
    pub storage_rows: u32,
    /// Number of SRAM blocks instantiated.
    pub blocks: usize,
    /// SRAM blocks the plan actually allocated (`0` for pure-DFF
    /// buffers, where [`NetBuffer::blocks`] still instantiates one for
    /// the pinned module shape).
    pub phys_blocks: usize,
    /// Ports per block.
    pub ports: u32,
    /// Rows sharing one block (the coalescing factor `g`).
    pub rows_per_block: u32,
    /// Blocks one row spans when rows exceed block capacity.
    pub blocks_per_row: u32,
    /// Allocated capacity of one block, bits (the bank-select segment
    /// size when rows split across blocks).
    pub block_capacity_bits: u64,
    /// Whether the plan allocated FIFO segments (SODA-style) rather than
    /// rotating line stores.
    pub fifo: bool,
    /// Words per SRAM macro (power of two).
    pub depth: u64,
    /// Address width of the macros.
    pub aw: u32,
}

impl NetBuffer {
    /// Maps an absolute image row (+ column for split rows) to the index
    /// of the physical block serving it — the mirror of
    /// `BufferPlan::block_of`, pinned equal by test so the interpreter's
    /// activity accounting and the cycle simulator's agree on bank
    /// attribution.
    ///
    /// Returns `None` for buffers with no allocated SRAM blocks.
    pub fn block_of(&self, abs_row: u64, x: u32, pixel_bits: u32) -> Option<usize> {
        if self.phys_blocks == 0 || self.phys_rows == 0 {
            return None;
        }
        let phys_row = (abs_row % self.phys_rows as u64) as u32;
        let idx = if self.blocks_per_row > 1 {
            let seg = (x as u64 * pixel_bits as u64) / self.block_capacity_bits.max(1);
            phys_row as u64 * self.blocks_per_row as u64 + seg
        } else {
            (phys_row / self.rows_per_block.max(1)) as u64
        };
        Some((idx as usize).min(self.phys_blocks - 1))
    }
}

/// The structure of a scheduled design: what [`describe`] derives from
/// `(Dag, Design)`, independent of datapath widths and clock gating.
#[derive(Clone, Debug)]
pub struct Structure {
    /// Frame geometry the design was compiled for.
    pub geometry: ImageGeometry,
    /// Pixels per frame (`width * height`).
    pub frame: u64,
    /// Cycle at which the last output pixel has streamed out.
    pub done_cycle: u64,
    /// Per-stage control information, in topological order.
    pub stages: Vec<NetStage>,
    /// Stencil edges in DAG edge order: grouped by consumer in stage
    /// order, each consumer's edges in slot order.
    pub edges: Vec<NetEdge>,
    /// Line buffers in design order.
    pub buffers: Vec<NetBuffer>,
}

impl Structure {
    /// Input streams: `(stream index, stage index, start cycle)`.
    pub fn input_streams(&self) -> Vec<(usize, usize, u64)> {
        self.stages
            .iter()
            .filter_map(|s| s.input_stream.map(|k| (k, s.index, s.start_cycle)))
            .collect()
    }

    /// Output streams: `(stream index, stage index, start cycle)`, in
    /// stage order (the order the `stream_out_*` ports are declared).
    pub fn output_streams(&self) -> Vec<(usize, usize, u64)> {
        self.stages
            .iter()
            .filter(|s| s.is_output)
            .enumerate()
            .map(|(k, s)| (k, s.index, s.start_cycle))
            .collect()
    }

    /// Each stage with the edges it consumes, in stage order: `(stage,
    /// index of its first edge, its edges)`. One pass over
    /// [`Structure::edges`], which hold each consumer's edges together.
    pub fn edges_by_consumer(&self) -> impl Iterator<Item = (&NetStage, usize, &[NetEdge])> {
        let mut first = 0;
        self.stages.iter().map(move |s| {
            let rest = &self.edges[first..];
            let n = rest.iter().take_while(|e| e.consumer == s.index).count();
            first += n;
            (s, first - n, &rest[..n])
        })
    }

    /// Stage `index`, when the stage list holds it at its own position
    /// (`None` for an index past the list or a stage filed elsewhere).
    pub fn stage(&self, index: usize) -> Option<&NetStage> {
        self.stages.get(index).filter(|s| s.index == index)
    }
}

/// Replaces non-alphanumeric characters so names are Verilog identifiers.
pub(crate) fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

/// Columns of the shift-register array serving one window: the span from
/// the oldest tap to the *current* raster column (`dx = 0`), even when
/// `dx_max < 0`, because the load path always shifts the just-read pixel
/// in at the right edge — the same storage the cycle-level simulator
/// models. For the common `dx_max = 0` window this equals `width()`.
///
/// Public so the symbolic certifier can cross-check declared SRA nets
/// against the windows they were sized from.
pub fn sra_columns(w: &Window) -> u32 {
    (-w.dx_min + 1).max(1) as u32
}

/// Cells of the shift-register array serving one window
/// (`height × sra_columns`).
pub fn sra_cells(w: &Window) -> u32 {
    w.height * sra_columns(w)
}

/// Derives the structure of a scheduled design.
pub fn describe(dag: &Dag, design: &Design) -> Structure {
    let geometry = design.geometry;
    let frame = geometry.pixels();
    let scales = dag.stage_scales();

    let mut stages: Vec<NetStage> = Vec::with_capacity(dag.num_stages());
    let mut inputs = 0;
    for (id, stage) in dag.stages() {
        let (input_stream, kernel) = match stage.kind() {
            StageKind::Input => {
                inputs += 1;
                (Some(inputs - 1), None)
            }
            StageKind::Compute { kernel } => (None, Some(Arc::clone(kernel))),
        };
        let (scale_x, scale_y) = scales[id.index()];
        stages.push(NetStage {
            index: id.index(),
            name: stage.name().to_string(),
            sanitized: sanitize(stage.name()),
            input_stream,
            census: kernel.as_ref().map(|k| k.op_census()),
            kernel,
            buffer: None,
            is_output: stage.is_output(),
            start_cycle: *design.start_cycles.get(id.index()).unwrap_or(&0),
            scale_x,
            scale_y,
        });
    }

    let edges = dag
        .edges()
        .map(|(_, e)| NetEdge {
            producer: e.producer().index(),
            consumer: e.consumer().index(),
            slot: e.slot(),
            window: *e.window(),
        })
        .collect();

    let buffers = design
        .buffers
        .iter()
        .enumerate()
        .map(|(bi, plan)| {
            stages[plan.stage].buffer = Some(bi);
            let width = (u64::from(geometry.width) / scales[plan.stage].0.max(1)) as u32;
            // Macros are sized in whole powers of two.
            let depth = (plan.rows_per_block as u64 * width as u64).next_power_of_two();
            NetBuffer {
                stage: plan.stage,
                width,
                phys_rows: plan.phys_rows,
                logical_rows: plan.logical_rows,
                storage_rows: plan.phys_rows.max(plan.logical_rows).max(1),
                blocks: plan.blocks.len().max(1),
                phys_blocks: plan.blocks.len(),
                ports: plan.blocks.first().map(|b| b.ports).unwrap_or(2),
                rows_per_block: plan.rows_per_block,
                blocks_per_row: plan.blocks_per_row,
                block_capacity_bits: plan.blocks.first().map(|b| b.capacity_bits).unwrap_or(0),
                fifo: plan
                    .blocks
                    .iter()
                    .any(|b| b.role == imagen_mem::BlockRole::FifoSegment),
                depth,
                aw: depth.trailing_zeros().max(1),
            }
        })
        .collect();

    let done_cycle = stages
        .iter()
        .filter(|s| s.is_output)
        .map(|s| s.start_cycle + frame)
        .max()
        .unwrap_or(frame);

    Structure {
        geometry,
        frame,
        done_cycle,
        stages,
        edges,
        buffers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imagen_ir::Expr;
    use imagen_mem::{DesignStyle, MemBackend, MemorySpec};
    use imagen_schedule::{plan_design, ScheduleOptions};

    #[test]
    fn netbuffer_block_mapping_matches_plan() {
        // The structure's mirror of `BufferPlan::block_of` must agree with
        // the plan's own mapping — the interpreter's activity accounting
        // and the cycle simulator attribute accesses to banks through
        // these two paths.
        let geom = ImageGeometry {
            width: 40,
            height: 30,
            pixel_bits: 16,
        };
        for alg in imagen_algos::Algorithm::all() {
            for coalesce in [false, true] {
                let mut spec = MemorySpec::new(
                    MemBackend::Asic {
                        block_bits: 2 * geom.row_bits(),
                    },
                    2,
                );
                if coalesce {
                    spec = spec.with_coalescing();
                }
                let p = plan_design(
                    &alg.build(),
                    &geom,
                    &spec,
                    ScheduleOptions::default(),
                    DesignStyle::Ours,
                )
                .unwrap();
                let s = describe(&p.dag, &p.design);
                for (bp, nb) in p.design.buffers.iter().zip(&s.buffers) {
                    assert_eq!(bp.stage, nb.stage);
                    for row in 0..2 * geom.height as u64 {
                        for x in [0, geom.width / 2, geom.width - 1] {
                            assert_eq!(
                                nb.block_of(row, x, geom.pixel_bits),
                                bp.block_of(row, x, &geom),
                                "{} coalesce={coalesce} stage={} row={row} x={x}",
                                alg.name(),
                                bp.stage
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn netbuffer_block_mapping_matches_plan_on_split_rows() {
        // Rows wider than a block span several macros (the 1080p
        // regime); the column-segment decode must agree too.
        let mut dag = Dag::new("split");
        let k0 = dag.add_input("K0");
        let k1 = dag
            .add_stage("K1", &[k0], Expr::sum((0..3).map(|i| Expr::tap(0, 0, i))))
            .unwrap();
        dag.mark_output(k1);
        let geom = ImageGeometry {
            width: 120,
            height: 20,
            pixel_bits: 16,
        };
        let spec = MemorySpec::new(MemBackend::Asic { block_bits: 1024 }, 2);
        let p = plan_design(
            &dag,
            &geom,
            &spec,
            ScheduleOptions::default(),
            DesignStyle::Ours,
        )
        .unwrap();
        let bp = &p.design.buffers[0];
        let nb = &describe(&p.dag, &p.design).buffers[0];
        assert!(nb.blocks_per_row > 1, "rows must split for this test");
        for row in 0..2 * geom.height as u64 {
            for x in 0..geom.width {
                assert_eq!(
                    nb.block_of(row, x, geom.pixel_bits),
                    bp.block_of(row, x, &geom),
                    "row={row} x={x}"
                );
            }
        }
    }
}
