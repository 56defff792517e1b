//! How a line buffer's rows pack into memory blocks (Equ. 2, Sec. 6):
//! decided once per buffer by [`BlockLayout`], which the allocator, the
//! port checker, the netlist structure, the block sweep and the Verilog
//! emitter all read, so they agree on which block serves each pixel and
//! on the macros' depth.

/// The block packing of one line buffer: its physical rows, rows per
/// block, blocks per row and block capacity.
///
/// A row that fits a block is stored whole, `g` consecutive physical
/// rows to a block (the coalescing factor; 1 without coalescing). A row
/// wider than a block splits into column segments of `block_bits` bits,
/// one block each, and does not coalesce. Absolute rows rotate modulo
/// the physical rows.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct BlockLayout {
    phys_rows: u32,
    rows_per_block: u32,
    blocks_per_row: u32,
    block_bits: u64,
}

impl BlockLayout {
    /// The layout of rows of `row_bits` bits on blocks of `block_bits`
    /// bits, `coalesce` rows to a block where a row fits one. It holds no
    /// rows until [`BlockLayout::with_phys_rows`] sets them.
    ///
    /// # Panics
    ///
    /// Panics if `block_bits` is zero and `row_bits` is not.
    pub fn new(row_bits: u64, block_bits: u64, coalesce: u32) -> BlockLayout {
        let split = row_bits > block_bits;
        BlockLayout {
            phys_rows: 0,
            rows_per_block: if split { 1 } else { coalesce.max(1) },
            blocks_per_row: if split {
                row_bits.div_ceil(block_bits) as u32
            } else {
                1
            },
            block_bits,
        }
    }

    /// This layout holding `phys_rows` physical rows.
    pub fn with_phys_rows(self, phys_rows: u32) -> BlockLayout {
        BlockLayout { phys_rows, ..self }
    }

    /// Rows physically allocated: the rotation modulus.
    pub fn phys_rows(&self) -> u32 {
        self.phys_rows
    }

    /// Rows sharing one block (the coalescing factor `g`; 1 on split rows).
    pub fn rows_per_block(&self) -> u32 {
        self.rows_per_block
    }

    /// Blocks one row spans (1 unless a row exceeds a block).
    pub fn blocks_per_row(&self) -> u32 {
        self.blocks_per_row
    }

    /// Capacity of one block, bits: also a split row's segment size.
    pub fn block_bits(&self) -> u64 {
        self.block_bits
    }

    /// Whether a row spans several blocks.
    pub fn is_split(&self) -> bool {
        self.blocks_per_row > 1
    }

    /// Blocks the layout's physical rows occupy.
    pub fn blocks(&self) -> usize {
        let rows = self.phys_rows as usize;
        rows.div_ceil(self.rows_per_block as usize) * self.blocks_per_row as usize
    }

    /// The block serving absolute buffer row `row` at column `x` of
    /// `pixel_bits`-bit pixels: physical row `row mod phys_rows`, then its
    /// group of `g` rows, or on a split row the column segment holding the
    /// pixel's first bit. A layout without rows maps as if it held one.
    #[inline]
    pub fn block_of(&self, row: u64, x: u32, pixel_bits: u32) -> usize {
        let phys = row % u64::from(self.phys_rows.max(1));
        let block = if self.is_split() {
            let segment = u64::from(x) * u64::from(pixel_bits) / self.block_bits;
            phys * u64::from(self.blocks_per_row) + segment
        } else {
            phys / u64::from(self.rows_per_block)
        };
        block as usize
    }

    /// The first column of each column segment after the first, in
    /// order: where [`BlockLayout::block_of`] moves to the next block of
    /// a split row. Empty when rows do not split.
    pub fn segment_starts(&self, pixel_bits: u32) -> impl Iterator<Item = u64> {
        let (block_bits, pixel_bits) = (self.block_bits, u64::from(pixel_bits));
        (1..u64::from(self.blocks_per_row)).map(move |s| (s * block_bits).div_ceil(pixel_bits))
    }

    /// Words per macro, a whole power of two: `g` rows of `width` words,
    /// or on a split row the words of one column segment.
    pub fn depth(&self, width: u32, pixel_bits: u32) -> u64 {
        let words = if self.is_split() {
            self.block_bits.div_ceil(u64::from(pixel_bits))
        } else {
            u64::from(self.rows_per_block) * u64::from(width)
        };
        words.next_power_of_two()
    }

    /// Address bits of a macro of [`BlockLayout::depth`] words (at least 1).
    pub fn addr_width(&self, width: u32, pixel_bits: u32) -> u32 {
        self.depth(width, pixel_bits).trailing_zeros().max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn whole_rows_coalesce() {
        // 640-bit rows on 2048-bit blocks, two rows to a block.
        let l = BlockLayout::new(640, 2048, 2).with_phys_rows(4);
        assert_eq!(
            (l.rows_per_block(), l.blocks_per_row(), l.blocks()),
            (2, 1, 2)
        );
        let blocks: Vec<usize> = (0..6).map(|r| l.block_of(r, 39, 16)).collect();
        assert_eq!(blocks, [0, 0, 1, 1, 0, 0], "rows rotate modulo 4");
        assert_eq!(l.segment_starts(16).count(), 0);
        assert_eq!((l.depth(40, 16), l.addr_width(40, 16)), (128, 7));
    }

    #[test]
    fn split_rows_do_not_coalesce() {
        // 640-bit rows on 512-bit blocks: two 32-word segments a row.
        let l = BlockLayout::new(640, 512, 2).with_phys_rows(3);
        assert_eq!(
            (l.rows_per_block(), l.blocks_per_row(), l.blocks()),
            (1, 2, 6)
        );
        assert_eq!(l.segment_starts(16).collect::<Vec<_>>(), [32]);
        assert_eq!((l.block_of(0, 31, 16), l.block_of(0, 32, 16)), (0, 1));
        assert_eq!((l.block_of(2, 39, 16), l.block_of(4, 0, 16)), (5, 2));
        assert_eq!((l.depth(40, 16), l.addr_width(40, 16)), (32, 5));
    }

    #[test]
    fn segments_follow_the_bits() {
        // 12-bit pixels on 100-bit blocks: a segment starts at the first
        // pixel whose first bit lies in it.
        let l = BlockLayout::new(13 * 12, 100, 1).with_phys_rows(1);
        assert_eq!(l.segment_starts(12).collect::<Vec<_>>(), [9]);
        assert_eq!((l.block_of(0, 8, 12), l.block_of(0, 9, 12)), (0, 1));
        assert_eq!(l.depth(13, 12), 16);
    }

    #[test]
    fn a_layout_without_rows_has_no_blocks() {
        let l = BlockLayout::new(640, 512, 1);
        assert_eq!((l.phys_rows(), l.blocks()), (0, 0));
        assert_eq!(l.block_of(7, 0, 16), 0);
    }
}
