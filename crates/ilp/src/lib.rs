//! # imagen-ilp
//!
//! The schedule solver of the [ImaGen] accelerator generator.
//!
//! The ImaGen optimizer (ISCA 2023, Sec. 5.5) formulates line-buffer
//! scheduling as an ILP and hands it to a solver; the original system used
//! Google OR-Tools. With the row ceiling dropped (footnote 7), every
//! constraint of that program is a difference constraint, so this crate
//! solves exactly that class, from scratch in Rust:
//!
//! * [`DiffSystem`] — difference-constraint systems `x_u − x_v >= k`:
//!   a longest-path fixpoint for feasibility and ASAP schedules, and
//!   [`DiffSystem::minimize`], which solves a linear objective over the
//!   system as an integer **min-cost flow** (a primal network simplex in
//!   checked `i64`). Every scheduling LP is such a system, so this is the
//!   solver on the compile path;
//! * [`stats`] — a process-wide count of solver pivots (network-simplex
//!   basis exchanges) for profilers.
//!
//! [ImaGen]: https://arxiv.org/abs/2304.03352
//!
//! # Examples
//!
//! A miniature scheduling problem (two consumers of one producer, image
//! width 480, stencil height 3, à la the paper's Fig. 6):
//!
//! ```
//! use imagen_ilp::DiffSystem;
//!
//! let w = 480i64;
//! let mut sys = DiffSystem::new(3);
//! // Data dependencies (Equ. 1b): S_c - S_p >= (SH-1)*W + 1.
//! sys.add_ge(1, 0, 2 * w + 1);
//! sys.add_ge(2, 1, 2 * w + 1);
//! // Contention (Equ. 12): the surviving pruned pair constraint.
//! sys.add_ge(2, 0, 3 * w);
//! // Minimize total buffering: here simply S_1 + S_2 - 2*S_0.
//! let opt = sys.minimize(&[-2, 1, 1])?;
//! assert_eq!(opt.x, vec![0, 961, 1922]);
//! assert_eq!(opt.objective, 2883);
//! # Ok::<(), imagen_ilp::MinimizeError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod diff;
mod network;
pub mod stats;

pub use diff::{DiffOptimum, DiffSystem, MinimizeError, PositiveCycle};
