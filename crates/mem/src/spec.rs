//! On-chip memory specifications — the compiler's hardware input.
//!
//! The ImaGen front end takes, besides the algorithm, a description of the
//! memory structures available (block sizes and port counts, Sec. 4). A
//! [`MemorySpec`] carries the backend (ASIC macro library or FPGA BRAM),
//! the default port count, and optional per-stage overrides used by the
//! design-space exploration (Sec. 8.5: DP vs. DPLC per stage).

use crate::geometry::ImageGeometry;
use crate::tech::BramModel;
use std::collections::HashMap;

/// Memory backend targeted by a compilation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum MemBackend {
    /// ASIC flow with a fixed-size SRAM macro library.
    Asic {
        /// Capacity of one SRAM macro, bits.
        block_bits: u64,
    },
    /// FPGA flow with 36 Kbit BRAM blocks (Spartan-7 style).
    Fpga,
}

impl MemBackend {
    /// The paper's ASIC line-buffer macro: 32 Kbit, so a 320p row of
    /// 16-bit pixels fits 4× and a 1080p row 1×.
    pub fn asic_default() -> MemBackend {
        MemBackend::Asic { block_bits: 32768 }
    }

    /// Capacity of one block, bits.
    pub fn block_bits(&self) -> u64 {
        match self {
            MemBackend::Asic { block_bits } => *block_bits,
            MemBackend::Fpga => BramModel::BLOCK_BITS,
        }
    }
}

/// Per-stage memory configuration override (DSE knob).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct StageMemConfig {
    /// Port count of the blocks implementing this stage's line buffer.
    pub ports: u32,
    /// Whether line coalescing is enabled for this stage's line buffer.
    pub coalesce: bool,
}

/// Description of the on-chip memory available to the generator.
///
/// # Examples
///
/// ```
/// use imagen_mem::{ImageGeometry, MemBackend, MemorySpec};
///
/// let spec = MemorySpec::new(MemBackend::asic_default(), 2);
/// let geom = ImageGeometry::p320();
/// // Dual-port 32 Kbit blocks hold up to 4 rows of 480x16b, but the port
/// // count caps the coalescing factor at 2.
/// assert_eq!(spec.rows_fitting(&geom), 4);
/// assert_eq!(spec.coalesce_factor(0, &geom), 1); // coalescing off by default
/// ```
#[derive(Clone, PartialEq, Debug)]
pub struct MemorySpec {
    backend: MemBackend,
    default_ports: u32,
    default_coalesce: bool,
    overrides: HashMap<usize, StageMemConfig>,
}

impl MemorySpec {
    /// Creates a spec with uniform `ports`-ported blocks and coalescing off.
    ///
    /// # Panics
    ///
    /// Panics if `ports == 0`.
    #[track_caller]
    pub fn new(backend: MemBackend, ports: u32) -> MemorySpec {
        assert!(ports > 0, "memory blocks need at least one port");
        MemorySpec {
            backend,
            default_ports: ports,
            default_coalesce: false,
            overrides: HashMap::new(),
        }
    }

    /// Enables line coalescing for every stage (the paper's `Ours+LC`).
    pub fn with_coalescing(mut self) -> MemorySpec {
        self.default_coalesce = true;
        self
    }

    /// Overrides the configuration of one stage's line buffer (DSE knob).
    pub fn set_stage(&mut self, stage: usize, cfg: StageMemConfig) -> &mut MemorySpec {
        self.overrides.insert(stage, cfg);
        self
    }

    /// The memory backend.
    pub fn backend(&self) -> MemBackend {
        self.backend
    }

    /// Port count for a stage's buffer blocks.
    pub fn ports_for(&self, stage: usize) -> u32 {
        self.overrides
            .get(&stage)
            .map(|c| c.ports)
            .unwrap_or(self.default_ports)
    }

    /// Whether a stage's buffer uses line coalescing.
    pub fn coalesce_enabled(&self, stage: usize) -> bool {
        self.overrides
            .get(&stage)
            .map(|c| c.coalesce)
            .unwrap_or(self.default_coalesce)
    }

    /// How many rows of `geom` fit in one block (0 if a row must be split
    /// across blocks).
    pub fn rows_fitting(&self, geom: &ImageGeometry) -> u32 {
        (self.backend.block_bits() / geom.row_bits()) as u32
    }

    /// Whether any stage's buffer actually coalesces at this geometry —
    /// the rule labeling a design `Ours+LC` rather than `Ours`. Scans the
    /// per-stage overrides plus the default configuration.
    pub fn ever_coalesces(&self, geom: &ImageGeometry) -> bool {
        let default_factor = if self.default_coalesce {
            self.default_ports.min(self.rows_fitting(geom)).max(1)
        } else {
            1
        };
        default_factor > 1
            || self
                .overrides
                .keys()
                .any(|&stage| self.coalesce_factor(stage, geom) > 1)
    }

    /// The effective coalescing factor `g` for a stage: `min(P, rows that
    /// fit)` when enabled (Algo. 1's bound), otherwise 1.
    ///
    /// Matches the paper's setup: at 320p the blocks hold several rows so
    /// `g = P = 2`; at 1080p a block holds at most one row so `g = 1` and
    /// coalescing is unavailable (Sec. 7).
    pub fn coalesce_factor(&self, stage: usize, geom: &ImageGeometry) -> u32 {
        if !self.coalesce_enabled(stage) {
            return 1;
        }
        self.ports_for(stage).min(self.rows_fitting(geom)).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coalescing_regimes_match_paper() {
        let spec = MemorySpec::new(MemBackend::asic_default(), 2).with_coalescing();
        // 320p: 32768 / 7680 = 4 rows fit; g = min(2, 4) = 2.
        assert_eq!(spec.coalesce_factor(0, &ImageGeometry::p320()), 2);
        // 1080p: 32768 / 30720 = 1 row fits; g = 1 (no coalescing).
        assert_eq!(spec.coalesce_factor(0, &ImageGeometry::p1080()), 1);
    }

    #[test]
    fn fpga_regimes() {
        let spec = MemorySpec::new(MemBackend::Fpga, 2).with_coalescing();
        // BRAM 36864 bits: 320p rows (7680b) -> 4 fit, g = 2.
        assert_eq!(spec.coalesce_factor(0, &ImageGeometry::p320()), 2);
        // 1080p rows (30720b) -> 1 fits, g = 1.
        assert_eq!(spec.coalesce_factor(0, &ImageGeometry::p1080()), 1);
    }

    #[test]
    fn per_stage_overrides() {
        let mut spec = MemorySpec::new(MemBackend::asic_default(), 2);
        spec.set_stage(
            3,
            StageMemConfig {
                ports: 1,
                coalesce: false,
            },
        );
        assert_eq!(spec.ports_for(3), 1);
        assert_eq!(spec.ports_for(0), 2);
        assert!(!spec.coalesce_enabled(3));
    }

    #[test]
    #[should_panic(expected = "at least one port")]
    fn zero_ports_rejected() {
        let _ = MemorySpec::new(MemBackend::Fpga, 0);
    }
}
