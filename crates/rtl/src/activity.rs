//! Per-frame activity counts of a scheduled design.
//!
//! [`ActivityTrace`] holds, over one frame, the events the analytic
//! power model only *assumes*:
//!
//! * per-SRAM-bank read and write accesses, attributed through the same
//!   bank mapping and same-address read merging as the cycle-level
//!   simulator (`imagen_sim::simulate`), so the two independent
//!   access-counting paths can be cross-checked against each other;
//! * per-buffer read-port enable duty: the emitted hardware holds the
//!   line-buffer read enable high on *every* cycle (`.ren(1'b1)`), so
//!   cycles where the enabled port serves no consumer are wasted reads —
//!   the quantity the clock-gating pass (`imagen_power::gate_clocks`)
//!   eliminates;
//! * per-register-array shift activity (cycles shifted, cell loads) and
//!   per-stage enable duty and output-register loads.
//!
//! # Every field comes from the schedule
//!
//! No field depends on pixel values. Each is fixed by the netlist's
//! structure, schedule and gating plan:
//!
//! * `run_cycles` and `frame`;
//! * per buffer: `block_reads`, `block_writes` and `block_peaks` (which
//!   rows and columns each consumer loads in each cycle, and which bank
//!   holds them), `read_enabled_cycles`, `idle_read_cycles` and
//!   `gated_off_cycles` (the gate window against the consumers' enable
//!   windows);
//! * per stage: `active_cycles` and `out_reg_writes`;
//! * per SRA: `shift_cycles` and `cell_writes`.
//!
//! [`ScheduleActivity`](crate::ScheduleActivity) computes every trace,
//! rate-1 and multirate alike, without running a frame;
//! [`interpret_with_trace`](crate::interpret_with_trace) pairs a run's
//! report with that same trace.
//!
//! `imagen_power` converts a trace plus the technology constants in
//! `imagen_mem::tech` into an `EnergyReport` — measured pJ/frame and mW
//! instead of the scheduled-rate analytic estimate.

/// Per-line-buffer activity over one frame.
#[derive(Clone, Debug, Default)]
pub struct BufferActivity {
    /// Producer stage index owning the buffer.
    pub stage: usize,
    /// Read accesses per allocated SRAM block, merged on identical
    /// `(block, row, column)` within a cycle — the cycle simulator's
    /// convention, so these totals cross-check against
    /// `simulate_and_annotate`.
    pub block_reads: Vec<u64>,
    /// Write accesses per allocated SRAM block.
    pub block_writes: Vec<u64>,
    /// Peak accesses (reads + writes) of any block in a single cycle.
    pub block_peaks: Vec<u32>,
    /// Cycles the buffer's read port was enabled (ungated: the whole
    /// run; gated: the consumer window).
    pub read_enabled_cycles: u64,
    /// Enabled read-port cycles in which no consumer actually loaded
    /// data — the wasted reads clock gating removes.
    pub idle_read_cycles: u64,
    /// Cycles the read port was gated off (0 for ungated netlists).
    pub gated_off_cycles: u64,
    /// Whether the buffer is a FIFO chain (SODA). FIFO access totals
    /// follow the simulator's convention: one push and one pop per
    /// segment per live cycle.
    pub fifo: bool,
}

impl BufferActivity {
    /// Average accesses (reads + writes) per streaming cycle per block,
    /// the quantity `simulate_and_annotate` writes into
    /// `PhysBlock::avg_accesses_per_cycle`.
    pub fn avg_accesses_per_cycle(&self, block: usize, frame: u64) -> f64 {
        (self.block_reads[block] + self.block_writes[block]) as f64 / frame as f64
    }

    /// Average writes per streaming cycle per block.
    pub fn avg_writes_per_cycle(&self, block: usize, frame: u64) -> f64 {
        self.block_writes[block] as f64 / frame as f64
    }

    /// Total read accesses over all blocks.
    pub fn reads(&self) -> u64 {
        self.block_reads.iter().sum()
    }

    /// Total write accesses over all blocks.
    pub fn writes(&self) -> u64 {
        self.block_writes.iter().sum()
    }
}

/// Per-stage activity over one frame.
#[derive(Clone, Copy, Debug, Default)]
pub struct StageActivity {
    /// Cycles the stage enable was asserted (= frame pixels for a
    /// stall-free schedule).
    pub active_cycles: u64,
    /// Output-register load events (one per active cycle).
    pub out_reg_writes: u64,
}

impl StageActivity {
    /// Enable duty cycle over the whole run.
    pub fn duty(&self, run_cycles: u64) -> f64 {
        if run_cycles == 0 {
            0.0
        } else {
            self.active_cycles as f64 / run_cycles as f64
        }
    }
}

/// Per-window-register-array (SRA) activity over one frame.
#[derive(Clone, Copy, Debug, Default)]
pub struct SraActivity {
    /// Cycles the array shifted (= the consumer's active cycles).
    pub shift_cycles: u64,
    /// Cell load events (`cells × shift_cycles`).
    pub cell_writes: u64,
}

/// Activity over one frame, parallel to the design's
/// [`Structure`](crate::Structure): `buffers[i]` ↔ `structure.buffers[i]`,
/// `stages[i]` ↔ `structure.stages[i]`, `sras[i]` ↔ `structure.edges[i]`.
#[derive(Clone, Debug, Default)]
pub struct ActivityTrace {
    /// Clock edges of the run.
    pub run_cycles: u64,
    /// Pixels per frame (the steady-state streaming period).
    pub frame: u64,
    /// Per-buffer activity, in netlist buffer order.
    pub buffers: Vec<BufferActivity>,
    /// Per-stage activity, in stage order.
    pub stages: Vec<StageActivity>,
    /// Per-edge window-register-array activity, in edge order.
    pub sras: Vec<SraActivity>,
}

impl ActivityTrace {
    /// Total gated-off read-port cycles over all buffers.
    pub fn gated_off_cycles(&self) -> u64 {
        self.buffers.iter().map(|b| b.gated_off_cycles).sum()
    }

    /// Total idle (enabled-but-unconsumed) read-port cycles.
    pub fn idle_read_cycles(&self) -> u64 {
        self.buffers.iter().map(|b| b.idle_read_cycles).sum()
    }
}
