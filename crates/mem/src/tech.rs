//! Analytical memory and compute cost models.
//!
//! The paper prices ASIC memories with OpenRAM + FreePDK45 and FPGA
//! memories with Vivado's power analyzer; neither tool exists in this
//! environment, so this module provides analytical substitutes calibrated
//! to reproduce the *relative* behaviours every comparison in the paper
//! depends on:
//!
//! * SRAM cell area grows **quadratically with the port count**
//!   (Weste–Harris, the paper's citation \[37\]): doubling ports roughly
//!   doubles a block's area.
//! * Per-access energy grows with block capacity (≈ √bits bitline/periphery
//!   scaling, CACTI-style) and with port loading.
//! * A dual-port FPGA BRAM serving two accesses per cycle consumes ≈ 35%
//!   more power than one access per cycle (the paper's own measurement,
//!   Sec. 3.1).
//! * DFF storage is an order of magnitude less dense than SRAM and toggles
//!   every cycle when used as a shift register (SODA's head segments).
//!
//! Absolute scales are calibrated so that the average ImaGen accelerator
//! lands near the paper's reported 0.65 mm² / 72.9 mW at 320p.

/// An SRAM macro configuration (ASIC backend).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct SramConfig {
    /// Storage capacity in bits.
    pub bits: u64,
    /// Number of read/write ports (1 or 2 in the evaluation).
    pub ports: u32,
    /// Word width in bits (one pixel per word in line buffers).
    pub word_bits: u32,
}

/// FreePDK45-flavored constants for the SRAM model.
mod k {
    /// 6T cell area at 45 nm, mm² per bit (≈ 0.49 µm²/bit with overhead).
    pub const CELL_MM2_PER_BIT: f64 = 0.49e-6;
    /// Port scaling of cell area. Area grows superlinearly with port
    /// count ([37]); for the 1→2 port step the realistic cost is the
    /// 6T→8T cell plus a second wordline/bitline pair, ≈ 1.45×, with the
    /// quadratic term dominating beyond that.
    pub fn port_area_factor(ports: u32) -> f64 {
        let p = ports as f64;
        1.0 + 0.45 * (p - 1.0) + 0.15 * (p - 1.0) * (p - 1.0)
    }
    /// Fixed periphery area per macro, mm² (decoder, sense amps, control).
    pub const MACRO_OVERHEAD_MM2: f64 = 0.004;
    /// Periphery area scaling with √bits, mm².
    pub const PERIPHERY_MM2_PER_SQRT_BIT: f64 = 6.0e-5;
    /// Per-read energy: fixed part, pJ.
    pub const ACCESS_PJ_BASE: f64 = 0.8;
    /// Per-read energy: √bits part, pJ.
    pub const ACCESS_PJ_PER_SQRT_BIT: f64 = 0.026;
    /// Extra per-access energy per additional port (loading), ratio.
    pub const PORT_ENERGY_SLOPE: f64 = 0.15;
    /// Write energy relative to read energy (full bitline swing vs. sense
    /// amplification; the asymmetry that penalizes FIFO designs, which
    /// re-write every pixel at every segment).
    pub const WRITE_ENERGY_RATIO: f64 = 2.0;
    /// Leakage per macro (periphery, decoders, sense amps), mW — the
    /// block-count-driven static cost.
    pub const LEAK_MW_PER_MACRO: f64 = 0.45;
    /// Leakage, mW per Mbit of cells (scaled by the port area factor).
    pub const LEAK_MW_PER_MBIT: f64 = 0.35;

    /// DFF area per bit, mm² (≈ 12× the 6T cell).
    pub const DFF_MM2_PER_BIT: f64 = 6.0e-6;
    /// DFF energy per bit per cycle when shifting, pJ.
    pub const DFF_SHIFT_PJ_PER_BIT: f64 = 0.011;

    /// BRAM static power per used block, mW.
    pub const BRAM_STATIC_MW: f64 = 1.9;
    /// BRAM per-access power at the evaluation clock, mW per access/cycle.
    /// Chosen so two accesses/cycle ≈ 1.35× the one-access power.
    pub const BRAM_ACCESS_MW: f64 = 1.023;

    /// PE area: adder/comparator/mux, mm² (16-bit datapath with operand
    /// registers and control, 45 nm).
    pub const ADD_MM2: f64 = 1.1e-3;
    /// PE area: multiplier, mm².
    pub const MUL_MM2: f64 = 8.0e-3;
    /// PE area: divider, mm².
    pub const DIV_MM2: f64 = 2.0e-2;
    /// PE energy per op, pJ: adder-class.
    pub const ADD_PJ: f64 = 0.05;
    /// PE energy per op, pJ: multiplier.
    pub const MUL_PJ: f64 = 0.6;
    /// PE energy per op, pJ: divider.
    pub const DIV_PJ: f64 = 1.6;
}

/// ASIC SRAM macro model (OpenRAM/FreePDK45 substitute).
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct SramModel;

impl SramModel {
    /// Macro area in mm².
    pub fn area_mm2(cfg: SramConfig) -> f64 {
        let cells = cfg.bits as f64 * k::CELL_MM2_PER_BIT * k::port_area_factor(cfg.ports);
        let periphery = k::MACRO_OVERHEAD_MM2
            + k::PERIPHERY_MM2_PER_SQRT_BIT * (cfg.bits as f64).sqrt()
            + 0.0008 * (cfg.ports as f64 - 1.0);
        cells + periphery
    }

    /// Energy of one read access, pJ.
    pub fn read_energy_pj(cfg: SramConfig) -> f64 {
        let base = k::ACCESS_PJ_BASE + k::ACCESS_PJ_PER_SQRT_BIT * (cfg.bits as f64).sqrt();
        base * (1.0 + k::PORT_ENERGY_SLOPE * (cfg.ports as f64 - 1.0))
    }

    /// Energy of one write access, pJ (bitlines swing fully, so writes
    /// cost [`WRITE_ENERGY_RATIO`]× a read — the asymmetry behind the
    /// paper's FIFO power penalty).
    ///
    /// [`WRITE_ENERGY_RATIO`]: #
    pub fn write_energy_pj(cfg: SramConfig) -> f64 {
        Self::read_energy_pj(cfg) * k::WRITE_ENERGY_RATIO
    }

    /// Energy of one read or write access (average), pJ.
    pub fn access_energy_pj(cfg: SramConfig) -> f64 {
        0.5 * (Self::read_energy_pj(cfg) + Self::write_energy_pj(cfg))
    }

    /// Leakage power of the macro, mW: a per-macro periphery term (the
    /// block-count-driven cost that makes single-port FixyNN designs lose
    /// overall despite cheaper accesses) plus a per-bit cell term.
    pub fn leakage_mw(cfg: SramConfig) -> f64 {
        k::LEAK_MW_PER_MACRO
            + k::LEAK_MW_PER_MBIT * (cfg.bits as f64 / 1.0e6) * k::port_area_factor(cfg.ports)
    }
}

/// Xilinx-style 36 Kbit BRAM model (Spartan-7 substitute).
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct BramModel;

impl BramModel {
    /// Capacity of one BRAM block, bits.
    pub const BLOCK_BITS: u64 = 36 * 1024;

    /// Power of one used BRAM block given its average accesses per cycle.
    ///
    /// Two accesses/cycle ≈ 1.35× one access/cycle, matching the paper's
    /// FPGA measurement.
    pub fn power_mw(accesses_per_cycle: f64) -> f64 {
        k::BRAM_STATIC_MW + k::BRAM_ACCESS_MW * accesses_per_cycle
    }

    /// Static power of one used BRAM block, mW (the zero-access floor of
    /// [`BramModel::power_mw`]).
    pub fn static_mw() -> f64 {
        k::BRAM_STATIC_MW
    }

    /// Energy of one BRAM access at the evaluation clock, pJ — the
    /// per-event form of the dynamic term of [`BramModel::power_mw`]
    /// (`power_mw(r) == static_mw() + pj_per_cycle_to_mw(access_energy_pj()
    /// * r, CLOCK_MHZ)`), used by the activity-based energy meter.
    pub fn access_energy_pj() -> f64 {
        k::BRAM_ACCESS_MW / (CLOCK_MHZ * 1.0e-3)
    }
}

/// DFF / shift-register storage model.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct DffModel;

impl DffModel {
    /// Area of `bits` of DFF storage, mm².
    pub fn area_mm2(bits: u64) -> f64 {
        bits as f64 * k::DFF_MM2_PER_BIT
    }

    /// Power of `bits` of DFF storage shifting every cycle at `mhz`, mW.
    pub fn shift_power_mw(bits: u64, mhz: f64) -> f64 {
        // pJ/cycle * cycles/s = pJ * MHz * 1e6 / 1e9 mW = pJ * MHz * 1e-3.
        bits as f64 * k::DFF_SHIFT_PJ_PER_BIT * mhz * 1.0e-3
    }

    /// Energy of shifting `bits` of DFF storage for one cycle, pJ — the
    /// per-event form of [`DffModel::shift_power_mw`], used when actual
    /// shift cycles are counted instead of assumed every-cycle.
    pub fn shift_energy_pj(bits: u64) -> f64 {
        bits as f64 * k::DFF_SHIFT_PJ_PER_BIT
    }
}

/// Functional-unit cost model for the stencil PEs.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct PeModel;

impl PeModel {
    /// Area of a PE with the given op counts, mm².
    pub fn area_mm2(adds: usize, muls: usize, divs: usize, cmps: usize, muxes: usize) -> f64 {
        (adds + cmps + muxes) as f64 * k::ADD_MM2
            + muls as f64 * k::MUL_MM2
            + divs as f64 * k::DIV_MM2
    }

    /// Energy of one activation of the PE, pJ.
    pub fn energy_pj(adds: usize, muls: usize, divs: usize, cmps: usize, muxes: usize) -> f64 {
        (adds + cmps + muxes) as f64 * k::ADD_PJ + muls as f64 * k::MUL_PJ + divs as f64 * k::DIV_PJ
    }
}

/// Converts energy-per-cycle (pJ) at a clock (MHz) into mW.
pub fn pj_per_cycle_to_mw(pj: f64, mhz: f64) -> f64 {
    pj * mhz * 1.0e-3
}

/// The evaluation clock frequency, MHz (paper Sec. 5.1 assumes 100 MHz).
pub const CLOCK_MHZ: f64 = 100.0;

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(bits: u64, ports: u32) -> SramConfig {
        SramConfig {
            bits,
            ports,
            word_bits: 16,
        }
    }

    #[test]
    fn port_scaling_superlinear() {
        // Dual-port ≈ 1.45x cells; quad-port grows faster than linearly.
        let a1 = SramModel::area_mm2(cfg(32768, 1));
        let a2 = SramModel::area_mm2(cfg(32768, 2));
        let ratio = a2 / a1;
        assert!(
            ratio > 1.2 && ratio < 1.6,
            "dual-port block should cost ~1.45x the area, got {ratio}"
        );
        let f2 = super::k::port_area_factor(2) - super::k::port_area_factor(1);
        let f4 = super::k::port_area_factor(4) - super::k::port_area_factor(3);
        assert!(f4 > f2, "marginal port cost grows");
    }

    #[test]
    fn bigger_blocks_amortize_overhead() {
        // One 32 Kbit block must be cheaper than two 16 Kbit blocks.
        let one = SramModel::area_mm2(cfg(32768, 2));
        let two = 2.0 * SramModel::area_mm2(cfg(16384, 2));
        assert!(one < two);
    }

    #[test]
    fn access_energy_grows_with_size_and_ports() {
        assert!(
            SramModel::access_energy_pj(cfg(65536, 1)) > SramModel::access_energy_pj(cfg(8192, 1))
        );
        assert!(
            SramModel::access_energy_pj(cfg(32768, 2)) > SramModel::access_energy_pj(cfg(32768, 1))
        );
    }

    #[test]
    fn bram_two_access_penalty_is_35_percent() {
        let one = BramModel::power_mw(1.0);
        let two = BramModel::power_mw(2.0);
        let ratio = two / one;
        assert!((ratio - 1.35).abs() < 0.01, "expected ~1.35x, got {ratio}");
    }

    #[test]
    fn dff_denser_in_power_than_area() {
        // A 480-pixel (7.7 Kbit) DFF line is much larger than its SRAM
        // equivalent but avoids SRAM port pressure.
        let bits = 480 * 16;
        assert!(DffModel::area_mm2(bits) > SramModel::area_mm2(cfg(bits, 2)) * 0.5);
        assert!(DffModel::shift_power_mw(bits, CLOCK_MHZ) > 0.0);
    }

    #[test]
    fn pe_model_orders_ops() {
        assert!(PeModel::area_mm2(0, 1, 0, 0, 0) > PeModel::area_mm2(7, 0, 0, 0, 0));
        assert!(PeModel::energy_pj(0, 0, 1, 0, 0) > PeModel::energy_pj(0, 1, 0, 0, 0));
    }

    #[test]
    fn unit_conversion() {
        // 10 pJ per cycle at 100 MHz = 1 mW.
        assert!((pj_per_cycle_to_mw(10.0, 100.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn per_event_forms_match_rate_forms() {
        // The event-level accessors must integrate back to the rate-level
        // models they decompose.
        for rate in [0.0, 0.5, 1.0, 2.0] {
            let rebuilt = BramModel::static_mw()
                + pj_per_cycle_to_mw(BramModel::access_energy_pj() * rate, CLOCK_MHZ);
            assert!((rebuilt - BramModel::power_mw(rate)).abs() < 1e-12);
        }
        let bits = 480 * 16;
        assert!(
            (pj_per_cycle_to_mw(DffModel::shift_energy_pj(bits), CLOCK_MHZ)
                - DffModel::shift_power_mw(bits, CLOCK_MHZ))
            .abs()
                < 1e-12
        );
    }
}
