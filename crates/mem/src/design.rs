//! The `Design` artifact: a fully planned accelerator memory system.
//!
//! Every generator in this repository — ImaGen's optimizer and the three
//! baselines (FixyNN, SODA, Darkroom) — produces a [`Design`]: the stage
//! schedule plus, per line buffer, the physical block inventory. The
//! cycle-level simulator replays a `Design` and fills in per-block access
//! counts; the pricing methods here turn the inventory + counts into the
//! paper's metrics (SRAM KB, BRAM blocks, mm², mW).

use crate::geometry::ImageGeometry;
use crate::layout::BlockLayout;
use crate::spec::MemBackend;
use crate::tech::{pj_per_cycle_to_mw, BramModel, DffModel, SramConfig, SramModel, CLOCK_MHZ};

/// What a physical block stores.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BlockRole {
    /// One or more line-buffer rows (classic rotating line buffer).
    LineStore,
    /// A FIFO segment (SODA-style); always served at 2 accesses/cycle.
    FifoSegment,
}

/// One physical memory block (SRAM macro or BRAM).
#[derive(Clone, PartialEq, Debug)]
pub struct PhysBlock {
    /// Allocated macro capacity, bits (the fragmentation-aware size).
    pub capacity_bits: u64,
    /// Bits actually holding pixels.
    pub used_bits: u64,
    /// Port count.
    pub ports: u32,
    /// Contents.
    pub role: BlockRole,
    /// Average accesses per active cycle (filled by the simulator or by
    /// the generator's analytic model).
    pub avg_accesses_per_cycle: f64,
    /// Average *write* accesses per active cycle (a subset of
    /// `avg_accesses_per_cycle`; writes cost more energy than reads).
    pub avg_writes_per_cycle: f64,
    /// Peak accesses in any single cycle (must stay ≤ `ports`).
    pub peak_accesses: u32,
}

/// The planned line buffer of one producer stage.
#[derive(Clone, PartialEq, Debug)]
pub struct BufferPlan {
    /// Producer stage index (into the DAG's stage list).
    pub stage: usize,
    /// Rows required by the schedule: `ceil(max_delay / W)` (Equ. 2).
    pub logical_rows: u32,
    /// How the physically allocated rows (logical + aliasing slack) pack
    /// into the blocks.
    pub layout: BlockLayout,
    /// The block inventory.
    pub blocks: Vec<PhysBlock>,
    /// Head-segment bits kept in DFFs instead of SRAM (SODA).
    pub dff_bits: u64,
}

impl BufferPlan {
    /// Total allocated SRAM/BRAM capacity, bits.
    pub fn capacity_bits(&self) -> u64 {
        self.blocks.iter().map(|b| b.capacity_bits).sum()
    }
}

/// Which generator produced a design (labels for reports).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum DesignStyle {
    /// ImaGen without line coalescing ("Ours").
    Ours,
    /// ImaGen with line coalescing ("Ours+LC").
    OursLc,
    /// FixyNN: single-port SRAMs, fully disjoint accesses.
    FixyNn,
    /// SODA: FIFO-based line buffers (dual-port), split per consumer.
    Soda,
    /// Darkroom: linearized algorithm on dual-port SRAMs.
    Darkroom,
}

impl DesignStyle {
    /// Human-readable label used in the figure harnesses.
    pub fn label(&self) -> &'static str {
        match self {
            DesignStyle::Ours => "Ours",
            DesignStyle::OursLc => "Ours+LC",
            DesignStyle::FixyNn => "FixyNN",
            DesignStyle::Soda => "SODA",
            DesignStyle::Darkroom => "Darkroom",
        }
    }
}

/// A fully planned accelerator memory system.
#[derive(Clone, PartialEq, Debug)]
pub struct Design {
    /// Pipeline name.
    pub name: String,
    /// Frame geometry the design was compiled for.
    pub geometry: ImageGeometry,
    /// Memory backend.
    pub backend: MemBackend,
    /// Generator that produced this design.
    pub style: DesignStyle,
    /// Start cycle of every stage (indexed by stage).
    pub start_cycles: Vec<u64>,
    /// Line-buffer plans (only stages that own a buffer appear).
    pub buffers: Vec<BufferPlan>,
    /// PE area of all stages, mm² (from kernel op censuses).
    pub pe_area_mm2: f64,
    /// PE power of all stages at the evaluation clock, mW.
    pub pe_power_mw: f64,
    /// Shift-register-array bits (stencil windows), stored in DFFs.
    pub sra_bits: u64,
}

impl Design {
    /// Total allocated SRAM/BRAM capacity in KB — the paper's Fig. 8a/9a
    /// metric. DFF storage is excluded (it is not SRAM), matching the
    /// paper's accounting where SODA's DFF head segments reduce its SRAM
    /// figure.
    pub fn sram_kb(&self) -> f64 {
        let bits: u64 = self.buffers.iter().map(|b| b.capacity_bits()).sum();
        bits as f64 / 8.0 / 1024.0
    }

    /// Number of memory blocks allocated (BRAM count on FPGA).
    pub fn block_count(&self) -> usize {
        self.buffers.iter().map(|b| b.blocks.len()).sum()
    }

    /// SRAM bits actually holding pixels, in KB. Unlike [`Design::sram_kb`]
    /// (the allocation-quantum metric), this scales with the frame width —
    /// a 1080p design stores 4× the bits of a 320p one.
    pub fn used_kb(&self) -> f64 {
        let bits: u64 = self
            .buffers
            .iter()
            .flat_map(|b| &b.blocks)
            .map(|blk| blk.used_bits)
            .sum();
        bits as f64 / 8.0 / 1024.0
    }

    /// Total DFF bits used for buffering (FIFO heads) — excludes SRA.
    pub fn buffer_dff_bits(&self) -> u64 {
        self.buffers.iter().map(|b| b.dff_bits).sum()
    }

    /// On-chip memory area, mm² (ASIC backend; includes buffer DFFs).
    ///
    /// Arrays are priced at their *compiled* size (OpenRAM right-sizes the
    /// cell array inside the macro footprint), so area scales with the
    /// stored rows — a 1080p design is physically larger than a 320p one
    /// even when both consume the same number of allocation blocks.
    pub fn memory_area_mm2(&self) -> f64 {
        let sram: f64 = self
            .buffers
            .iter()
            .flat_map(|b| &b.blocks)
            .map(|blk| {
                SramModel::area_mm2(SramConfig {
                    bits: blk.used_bits.max(1),
                    ports: blk.ports,
                    word_bits: self.geometry.pixel_bits,
                })
            })
            .sum();
        sram + DffModel::area_mm2(self.buffer_dff_bits())
    }

    /// On-chip memory power, mW, from per-block access statistics.
    ///
    /// ASIC: leakage + access energy × access rate. FPGA: the BRAM model
    /// (static + per-access, with the 35% two-access penalty built in).
    /// DFF buffers shift every cycle.
    pub fn memory_power_mw(&self) -> f64 {
        let mut total = 0.0;
        for b in &self.buffers {
            for blk in &b.blocks {
                total += match self.backend {
                    MemBackend::Asic { .. } => {
                        // Leakage follows the powered macro; dynamic energy
                        // follows the *active* array (rows actually stored),
                        // which is why coalesced blocks pay more per access
                        // — the Fig. 10 area-vs-power tension.
                        let leak_cfg = SramConfig {
                            bits: blk.used_bits.max(1),
                            ports: blk.ports,
                            word_bits: self.geometry.pixel_bits,
                        };
                        let dyn_cfg = SramConfig {
                            bits: blk.used_bits.max(1),
                            ports: blk.ports,
                            word_bits: self.geometry.pixel_bits,
                        };
                        let reads =
                            (blk.avg_accesses_per_cycle - blk.avg_writes_per_cycle).max(0.0);
                        SramModel::leakage_mw(leak_cfg)
                            + pj_per_cycle_to_mw(
                                SramModel::read_energy_pj(dyn_cfg) * reads
                                    + SramModel::write_energy_pj(dyn_cfg)
                                        * blk.avg_writes_per_cycle,
                                CLOCK_MHZ,
                            )
                    }
                    MemBackend::Fpga => BramModel::power_mw(blk.avg_accesses_per_cycle),
                };
            }
            total += DffModel::shift_power_mw(b.dff_bits, CLOCK_MHZ);
        }
        total
    }

    /// Total accelerator area: memory + PEs + shift-register arrays.
    pub fn total_area_mm2(&self) -> f64 {
        self.memory_area_mm2() + self.pe_area_mm2 + DffModel::area_mm2(self.sra_bits)
    }

    /// Total accelerator power: memory + PEs + shift-register arrays.
    pub fn total_power_mw(&self) -> f64 {
        self.memory_power_mw()
            + self.pe_power_mw
            + DffModel::shift_power_mw(self.sra_bits, CLOCK_MHZ)
    }

    /// Fraction of total area spent on memory (the paper reports ≈ 79.8%
    /// at 320p and 92.7% at 1080p).
    pub fn memory_area_fraction(&self) -> f64 {
        self.memory_area_mm2() / self.total_area_mm2()
    }

    /// Largest per-block peak access count vs. ports — `true` when no
    /// block is ever oversubscribed (the paper's requirement R3).
    pub fn ports_respected(&self) -> bool {
        self.buffers
            .iter()
            .flat_map(|b| &b.blocks)
            .all(|blk| blk.peak_accesses <= blk.ports)
    }
}

/// Allocates the physical blocks of one line buffer of rows of
/// `geom.row_bits()` bits, packed by `layout`.
///
/// * `logical_rows` — rows the schedule requires;
/// * `layout` — the rows to allocate (logical + aliasing slack) and
///   their packing, built for `geom`'s rows;
/// * `dff_bits` — head bits held in DFFs instead of SRAM (SODA-style);
/// * `fifo` — allocate as FIFO segments (`BlockRole::FifoSegment`).
///
/// Handles both fragmentation regimes: rows that fit a block (possibly
/// several per block when coalescing) and rows that must split across
/// multiple blocks (1080p rows on small macros).
pub fn allocate_buffer(
    stage: usize,
    logical_rows: u32,
    layout: BlockLayout,
    geom: &ImageGeometry,
    ports: u32,
    dff_bits: u64,
    fifo: bool,
) -> BufferPlan {
    let row_bits = geom.row_bits();
    let block_bits = layout.block_bits();
    let role = if fifo {
        BlockRole::FifoSegment
    } else {
        BlockRole::LineStore
    };
    let block = |used_bits| PhysBlock {
        capacity_bits: block_bits,
        used_bits,
        ports,
        role,
        avg_accesses_per_cycle: 0.0,
        avg_writes_per_cycle: 0.0,
        peak_accesses: 0,
    };
    let mut blocks = Vec::with_capacity(layout.blocks());
    if layout.is_split() {
        // A row spans several blocks (e.g. 1080p rows on small macros).
        for _row in 0..layout.phys_rows() {
            let mut remaining = row_bits;
            for _ in 0..layout.blocks_per_row() {
                let used = remaining.min(block_bits);
                remaining -= used;
                blocks.push(block(used));
            }
        }
    } else {
        let g = layout.rows_per_block();
        let mut rows_left = layout.phys_rows();
        while rows_left > 0 {
            let rows_here = g.min(rows_left);
            rows_left -= rows_here;
            blocks.push(block(rows_here as u64 * row_bits));
        }
    }

    BufferPlan {
        stage,
        logical_rows,
        layout,
        blocks,
        dff_bits,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom320() -> ImageGeometry {
        ImageGeometry::p320()
    }

    /// A line store of `phys_rows` rows of `geom`, `g` to a block, on
    /// `backend`'s blocks.
    fn line_store(
        phys_rows: u32,
        logical_rows: u32,
        g: u32,
        geom: &ImageGeometry,
        backend: MemBackend,
    ) -> BufferPlan {
        let layout = BlockLayout::new(geom.row_bits(), backend.block_bits(), g);
        allocate_buffer(
            0,
            logical_rows,
            layout.with_phys_rows(phys_rows),
            geom,
            2,
            0,
            false,
        )
    }

    #[test]
    fn plain_allocation_one_row_per_block() {
        let plan = line_store(3, 3, 1, &geom320(), MemBackend::asic_default());
        assert_eq!(plan.blocks.len(), 3);
        assert_eq!(plan.blocks[0].used_bits, 7680);
        assert_eq!(plan.capacity_bits(), 3 * 32768);
        assert_eq!(plan.layout.block_of(0, 0, 16), 0);
        assert_eq!(plan.layout.block_of(4, 0, 16), 1, "rotation wraps");
    }

    #[test]
    fn coalesced_allocation_halves_blocks() {
        let plan = line_store(4, 3, 2, &geom320(), MemBackend::asic_default());
        assert_eq!(plan.blocks.len(), 2);
        assert_eq!(plan.blocks[0].used_bits, 2 * 7680);
        // Rows 0,1 -> block 0; rows 2,3 -> block 1; row 4 wraps to block 0.
        assert_eq!(plan.layout.block_of(0, 0, 16), 0);
        assert_eq!(plan.layout.block_of(2, 0, 16), 1);
        assert_eq!(plan.layout.block_of(4, 0, 16), 0);
    }

    #[test]
    fn split_rows_1080p() {
        let geom = ImageGeometry::p1080();
        // 30720-bit rows on 32 Kbit blocks fit; force splitting with a
        // smaller macro.
        let plan = line_store(2, 2, 1, &geom, MemBackend::Asic { block_bits: 16384 });
        assert_eq!(plan.layout.blocks_per_row(), 2);
        assert_eq!(plan.blocks.len(), 4);
        // Column 0 lands in the row's first block, column 1919 in the second.
        assert_eq!(plan.layout.block_of(0, 0, 16), 0);
        assert_eq!(plan.layout.block_of(0, 1919, 16), 1);
        assert_eq!(plan.layout.block_of(1, 0, 16), 2);
    }

    #[test]
    fn design_metrics() {
        let plan = line_store(3, 3, 1, &geom320(), MemBackend::asic_default());
        let mut design = Design {
            name: "t".into(),
            geometry: geom320(),
            backend: MemBackend::asic_default(),
            style: DesignStyle::Ours,
            start_cycles: vec![0, 961],
            buffers: vec![plan],
            pe_area_mm2: 0.01,
            pe_power_mw: 0.5,
            sra_bits: 9 * 16,
        };
        assert!((design.sram_kb() - 12.0).abs() < 1e-9, "3 x 4KB blocks");
        assert_eq!(design.block_count(), 3);
        assert!(design.memory_area_mm2() > 0.0);
        assert!(design.total_area_mm2() > design.memory_area_mm2());
        // Fill access stats and check power responds.
        let p0 = design.memory_power_mw();
        for b in &mut design.buffers {
            for blk in &mut b.blocks {
                blk.avg_accesses_per_cycle = 1.0;
                blk.peak_accesses = 2;
            }
        }
        assert!(design.memory_power_mw() > p0);
        assert!(design.ports_respected());
        design.buffers[0].blocks[0].peak_accesses = 3;
        assert!(!design.ports_respected());
    }

    #[test]
    fn fifo_role_allocates() {
        let layout = BlockLayout::new(7680, BramModel::BLOCK_BITS, 1).with_phys_rows(2);
        let plan = allocate_buffer(1, 2, layout, &geom320(), 2, 480 * 16, true);
        assert!(plan.blocks.iter().all(|b| b.role == BlockRole::FifoSegment));
        assert_eq!(plan.dff_bits, 7680);
        assert_eq!(plan.blocks[0].capacity_bits, BramModel::BLOCK_BITS);
    }

    #[test]
    fn empty_buffer_is_legal() {
        // SODA head-only buffers: everything in DFFs, no SRAM blocks.
        let layout = BlockLayout::new(7680, BramModel::BLOCK_BITS, 1);
        let plan = allocate_buffer(0, 0, layout, &geom320(), 2, 100, true);
        assert!(plan.blocks.is_empty());
        assert_eq!(plan.layout.blocks(), 0);
        assert_eq!(plan.capacity_bits(), 0);
    }
}
