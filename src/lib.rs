//! # ImaGen
//!
//! A general framework for generating memory- and power-efficient image
//! processing accelerators — a from-scratch Rust reproduction of the
//! ISCA 2023 paper by Ujjainkar, Leng and Zhu ([arXiv:2304.03352]).
//!
//! Given an image-processing pipeline in a Darkroom-like DSL and a
//! description of the on-chip memory available (block sizes and port
//! counts), ImaGen emits a line-buffered accelerator — schedule,
//! line-buffer configuration and synthesizable Verilog — whose on-chip
//! memory is minimized by an exact integer linear program while
//! guaranteeing full throughput of one pixel per cycle.
//!
//! This facade crate re-exports the subsystem crates:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`dsl`] | `imagen-dsl` | the language front end |
//! | [`ir`] | `imagen-ir` | pipeline DAG, windows, transforms |
//! | [`ilp`] | `imagen-ilp` | difference-constraint solvers: longest path, an `i64` network simplex for the schedule LP |
//! | [`schedule`] | `imagen-schedule` | the constrained-optimization core |
//! | [`mem`] | `imagen-mem` | memory specs, cost models, `Design` |
//! | [`sim`] | `imagen-sim` | golden executor + cycle-level simulator |
//! | [`rtl`] | `imagen-rtl` | Verilog generation |
//! | [`power`] | `imagen-power` | activity-based energy measurement + clock gating |
//! | [`baselines`] | `imagen-baselines` | FixyNN, SODA, Darkroom |
//! | [`algos`] | `imagen-algos` | the Tbl. 3 evaluation workloads |
//! | [`dse`] | `imagen-dse` | design-space exploration |
//!
//! The most common entry point is [`Compiler`]:
//!
//! ```
//! use imagen::{Compiler, ImageGeometry, MemBackend, MemorySpec};
//!
//! let geom = ImageGeometry { width: 64, height: 48, pixel_bits: 16 };
//! let spec = MemorySpec::new(MemBackend::Asic { block_bits: 4096 }, 2);
//! let out = Compiler::new(geom, spec).compile_source("sobelish", "
//!     input raw;
//!     output grad = im(x,y)
//!         abs(raw(x+1,y) - raw(x-1,y)) + abs(raw(x,y+1) - raw(x,y-1))
//!     end
//! ")?;
//! println!("SRAM: {:.1} KB over {} blocks",
//!          out.plan.design.sram_kb(), out.plan.design.block_count());
//! # Ok::<(), imagen::CompileError>(())
//! ```
//!
//! [arXiv:2304.03352]: https://arxiv.org/abs/2304.03352

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use imagen_algos as algos;
pub use imagen_analysis as analysis;
pub use imagen_baselines as baselines;
pub use imagen_dse as dse;
pub use imagen_dsl as dsl;
pub use imagen_ilp as ilp;
pub use imagen_ir as ir;
pub use imagen_mem as mem;
pub use imagen_power as power;
pub use imagen_rtl as rtl;
pub use imagen_schedule as schedule;
pub use imagen_sim as sim;

pub use imagen_core::{CompileCache, CompileError, CompileOutput, Compiler, Session};
pub use imagen_mem::{Design, DesignStyle, ImageGeometry, MemBackend, MemorySpec};
pub use imagen_schedule::{Plan, ScheduleOptions};
