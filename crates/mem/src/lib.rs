//! # imagen-mem
//!
//! Hardware cost models and memory planning for the [ImaGen] accelerator
//! generator.
//!
//! * [`ImageGeometry`] — frame dimensions (the paper's 320p/1080p);
//! * [`MemorySpec`] / [`MemBackend`] — the compiler's hardware input:
//!   block sizes, port counts, per-stage DSE overrides (Sec. 4, 8.5);
//! * [`tech`] — analytical SRAM/BRAM/DFF/PE cost models substituting for
//!   OpenRAM+FreePDK45 and Vivado (their calibration is in its module
//!   doc);
//! * [`BlockLayout`] — how a line buffer's rows pack into blocks: the
//!   one (row, column) → block map and macro depth every consumer reads;
//! * [`Design`] / [`BufferPlan`] / [`allocate_buffer`] — the planned
//!   memory system every generator (ours + baselines) produces, priced
//!   into the paper's metrics (SRAM KB, block counts, mm², mW).
//!
//! [ImaGen]: https://arxiv.org/abs/2304.03352

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod design;
mod geometry;
mod layout;
mod spec;
pub mod tech;

pub use design::{allocate_buffer, BlockRole, BufferPlan, Design, DesignStyle, PhysBlock};
pub use geometry::ImageGeometry;
pub use layout::BlockLayout;
pub use spec::{MemBackend, MemorySpec, StageMemConfig};
pub use tech::{BramModel, DffModel, PeModel, SramConfig, SramModel, CLOCK_MHZ};
