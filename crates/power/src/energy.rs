//! Converting an activity trace into measured energy.
//!
//! [`measure`] prices every counted event with the *same* technology
//! constants the analytic model uses (`imagen_mem::tech`): SRAM reads
//! and writes at the per-access energies of the macro actually holding
//! the data, register activity at the DFF shift energy, kernel
//! activations at the PE energy of the stage's operator census, and
//! leakage per instantiated macro. The difference from
//! `Design::total_power_mw` is therefore purely the *activity basis*:
//! scheduled rates there, events counted cycle by cycle here — which is
//! exactly what makes the cross-check meaningful.
//!
//! Power normalization: energies are integrated over one frame and
//! converted to mW using the steady-state streaming period
//! (`frame` pixels = `frame` cycles at one pixel per cycle), matching
//! the analytic model's per-cycle-rate convention.

use imagen_mem::{BramModel, Design, DffModel, MemBackend, PeModel, SramConfig, SramModel};
use imagen_rtl::{ActivityTrace, BitWidths, Netlist, Structure};

/// Measured energy of one line buffer (banks + FIFO head DFFs).
#[derive(Clone, Debug)]
pub struct BufferEnergy {
    /// Producer stage index owning the buffer.
    pub stage: usize,
    /// SRAM read accesses over the frame (same-address merged).
    pub reads: u64,
    /// SRAM write accesses over the frame.
    pub writes: u64,
    /// Enabled-but-unconsumed read-port cycles (each costs one read in
    /// the macro).
    pub idle_reads: u64,
    /// Dynamic energy of the buffer over the frame, pJ.
    pub dynamic_pj: f64,
    /// Leakage (ASIC) or BRAM static power (FPGA) of the buffer's
    /// macros, mW.
    pub static_mw: f64,
}

/// Measured energy/power of one frame.
#[derive(Clone, Debug)]
pub struct EnergyReport {
    /// Clock the mW figures are quoted at, MHz.
    pub clock_mhz: f64,
    /// Steady-state streaming period, cycles (= pixels per frame).
    pub frame_cycles: u64,
    /// Clock edges of the run (frame + schedule skew).
    pub run_cycles: u64,
    /// SRAM read energy, pJ per frame (consumed reads).
    pub sram_read_pj: f64,
    /// SRAM write energy, pJ per frame.
    pub sram_write_pj: f64,
    /// SRAM energy of enabled-but-unconsumed read-port cycles, pJ per
    /// frame — the component clock gating removes.
    pub sram_idle_pj: f64,
    /// FIFO-head DFF shift energy, pJ per frame (SODA designs).
    pub buffer_dff_pj: f64,
    /// Window shift-register-array energy, pJ per frame.
    pub sra_dff_pj: f64,
    /// Stage output-register energy, pJ per frame.
    pub outreg_dff_pj: f64,
    /// PE (kernel datapath) energy, pJ per frame.
    pub pe_pj: f64,
    /// Leakage / static power of all memory macros, mW.
    pub static_mw: f64,
    /// Read-port cycles the gating plan suppressed (0 when ungated).
    pub gated_off_cycles: u64,
    /// Per-buffer breakdown, in design buffer order.
    pub buffers: Vec<BufferEnergy>,
}

impl EnergyReport {
    /// Dynamic memory energy (banks + idle reads + FIFO head DFFs), pJ
    /// per frame.
    pub fn memory_dynamic_pj(&self) -> f64 {
        self.sram_read_pj + self.sram_write_pj + self.sram_idle_pj + self.buffer_dff_pj
    }

    /// Total dynamic energy, pJ per frame.
    pub fn dynamic_pj_per_frame(&self) -> f64 {
        self.memory_dynamic_pj() + self.sra_dff_pj + self.outreg_dff_pj + self.pe_pj
    }

    /// Static energy over one frame period, pJ.
    pub fn static_pj_per_frame(&self) -> f64 {
        // mW → pJ/cycle at the quoted clock, × cycles per frame.
        self.static_mw / (self.clock_mhz * 1.0e-3) * self.frame_cycles as f64
    }

    /// Total (dynamic + static) energy per frame, pJ.
    pub fn energy_pj_per_frame(&self) -> f64 {
        self.dynamic_pj_per_frame() + self.static_pj_per_frame()
    }

    fn to_mw(&self, pj_per_frame: f64) -> f64 {
        pj_per_frame / self.frame_cycles as f64 * self.clock_mhz * 1.0e-3
    }

    /// Dynamic power at the quoted clock, mW.
    pub fn dynamic_mw(&self) -> f64 {
        self.to_mw(self.dynamic_pj_per_frame())
    }

    /// Memory power (the analytic `Design::memory_power_mw` analogue):
    /// bank dynamic + FIFO DFFs + static, mW.
    pub fn memory_mw(&self) -> f64 {
        self.to_mw(self.memory_dynamic_pj()) + self.static_mw
    }

    /// Total accelerator power (the analytic `Design::total_power_mw`
    /// analogue), mW.
    pub fn total_mw(&self) -> f64 {
        self.dynamic_mw() + self.static_mw
    }
}

/// Prices `trace` of `net` — [`measure_at`] over the netlist's structure
/// and widths.
pub fn measure(net: &Netlist, design: &Design, trace: &ActivityTrace) -> EnergyReport {
    measure_at(&net.structure, &net.widths, design, trace)
}

/// Prices an [`ActivityTrace`] into an [`EnergyReport`] at the evaluation
/// clock ([`imagen_mem::CLOCK_MHZ`]).
///
/// `design` supplies the physical block inventory (allocated macro
/// sizes, port counts — the same configurations the analytic model
/// prices); `structure` supplies the stages' operator census and
/// `widths` the datapath width; `trace` supplies the measured event
/// counts.
///
/// The priced counts — per-block SRAM reads and writes, read-port
/// enabled, idle and gated-off cycles, SRA cell writes, stage active
/// cycles and output-register writes — are all fixed by the design's
/// structure and schedule.
pub fn measure_at(
    structure: &Structure,
    widths: &BitWidths,
    design: &Design,
    trace: &ActivityTrace,
) -> EnergyReport {
    let pixel = widths.pixel_bits as u64;
    let word_bits = design.geometry.pixel_bits;

    let mut sram_read_pj = 0.0;
    let mut sram_write_pj = 0.0;
    let mut sram_idle_pj = 0.0;
    let mut buffer_dff_pj = 0.0;
    let mut static_mw = 0.0;
    let mut buffers = Vec::with_capacity(design.buffers.len());

    for (bp, ba) in design.buffers.iter().zip(&trace.buffers) {
        debug_assert_eq!(bp.stage, ba.stage, "trace parallels the design");
        let mut dyn_pj = 0.0;
        let mut stat_mw = 0.0;
        for (blk, (reads, writes)) in bp
            .blocks
            .iter()
            .zip(ba.block_reads.iter().zip(&ba.block_writes))
        {
            match design.backend {
                MemBackend::Asic { .. } => {
                    let cfg = SramConfig {
                        bits: blk.used_bits.max(1),
                        ports: blk.ports,
                        word_bits,
                    };
                    dyn_pj += SramModel::read_energy_pj(cfg) * *reads as f64
                        + SramModel::write_energy_pj(cfg) * *writes as f64;
                    sram_read_pj += SramModel::read_energy_pj(cfg) * *reads as f64;
                    sram_write_pj += SramModel::write_energy_pj(cfg) * *writes as f64;
                    stat_mw += SramModel::leakage_mw(cfg);
                }
                MemBackend::Fpga => {
                    let e = BramModel::access_energy_pj();
                    dyn_pj += e * (*reads + *writes) as f64;
                    sram_read_pj += e * *reads as f64;
                    sram_write_pj += e * *writes as f64;
                    stat_mw += BramModel::static_mw();
                }
            }
        }
        // Enabled-but-unconsumed read cycles: the selected bank performs
        // a real read whose data is discarded. Priced at the buffer's
        // representative macro.
        if let Some(blk) = bp.blocks.first() {
            let idle = ba.idle_read_cycles as f64;
            let e = match design.backend {
                MemBackend::Asic { .. } => SramModel::read_energy_pj(SramConfig {
                    bits: blk.used_bits.max(1),
                    ports: blk.ports,
                    word_bits,
                }),
                MemBackend::Fpga => BramModel::access_energy_pj(),
            };
            dyn_pj += e * idle;
            sram_idle_pj += e * idle;
        }
        // FIFO head segments shift their DFF bits every live cycle.
        if bp.dff_bits > 0 {
            let pj = DffModel::shift_energy_pj(bp.dff_bits) * trace.frame as f64;
            dyn_pj += pj;
            buffer_dff_pj += pj;
        }
        static_mw += stat_mw;
        buffers.push(BufferEnergy {
            stage: bp.stage,
            reads: ba.reads(),
            writes: ba.writes(),
            idle_reads: ba.idle_read_cycles,
            dynamic_pj: dyn_pj,
            static_mw: stat_mw,
        });
    }

    // Window shift-register arrays: every shifted cell is a clocked
    // pixel-wide DFF load.
    let sra_dff_pj: f64 = trace
        .sras
        .iter()
        .map(|s| DffModel::shift_energy_pj(s.cell_writes * pixel))
        .sum();

    // Stage output registers and PE activations.
    let mut outreg_dff_pj = 0.0;
    let mut pe_pj = 0.0;
    for (stage, sa) in structure.stages.iter().zip(&trace.stages) {
        outreg_dff_pj += DffModel::shift_energy_pj(sa.out_reg_writes * pixel);
        if let Some(c) = stage.census {
            pe_pj += sa.active_cycles as f64
                * PeModel::energy_pj(c.adds, c.muls, c.divs, c.cmps, c.muxes);
        }
    }

    EnergyReport {
        clock_mhz: imagen_mem::CLOCK_MHZ,
        frame_cycles: trace.frame,
        run_cycles: trace.run_cycles,
        sram_read_pj,
        sram_write_pj,
        sram_idle_pj,
        buffer_dff_pj,
        sra_dff_pj,
        outreg_dff_pj,
        pe_pj,
        static_mw,
        gated_off_cycles: trace.gated_off_cycles(),
        buffers,
    }
}
