//! The structure of a scheduled design, derived once.
//!
//! [`describe`] reads `(Dag, Design)` into a [`Structure`]: the stages
//! with their start cycles, rate scales, input streams, kernels,
//! operator census and line buffers, the stencil edges, and each line
//! buffer's geometry on its producer's grid. A buffer keeps its plan's
//! [`BlockLayout`], a `Copy` value: the block map, macro depth and
//! address width that the emitter, the block sweep and resource
//! accounting read are the allocator's own, not copies of them. The
//! structure is the one per-stage record of a design: a stage's kernel,
//! windows (its consumed edges), start cycle and buffer are read by
//! stage index or in one grouping pass, never found by a scan per stage.
//! [`build_netlist`](crate::build_netlist) elaborates modules on top of
//! it and keeps it; the emitter, the executor, resource accounting,
//! clock gating and energy pricing read it instead of any module, so a
//! design-space sweep describes each point and never elaborates it.

use imagen_ir::{Dag, Expr, OpCensus, StageKind, Window};
use imagen_mem::{BlockLayout, Design, ImageGeometry};
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
#[derive(Clone, Copy, Debug)]
pub struct NetBuffer {
    /// Producer stage index owning the buffer.
    pub stage: usize,
    /// Words per buffered row: the producer's own grid, `W / scale_x`
    /// (the frame width for rate-1 producers).
    pub width: u32,
    /// The plan's block layout: its physical rows, the (row, column) →
    /// block map, and the macros' depth and address width.
    pub layout: BlockLayout,
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
    /// Whether the plan allocated FIFO segments (SODA-style) rather than
    /// rotating line stores.
    pub fifo: bool,
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
            NetBuffer {
                stage: plan.stage,
                width: (u64::from(geometry.width) / scales[plan.stage].0.max(1)) as u32,
                layout: plan.layout,
                logical_rows: plan.logical_rows,
                storage_rows: plan.layout.phys_rows().max(plan.logical_rows).max(1),
                blocks: plan.blocks.len().max(1),
                phys_blocks: plan.blocks.len(),
                ports: plan.blocks.first().map(|b| b.ports).unwrap_or(2),
                fifo: plan
                    .blocks
                    .iter()
                    .any(|b| b.role == imagen_mem::BlockRole::FifoSegment),
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
