//! # imagen-ilp
//!
//! Exact linear and integer optimization for the [ImaGen] accelerator
//! generator.
//!
//! The ImaGen optimizer (ISCA 2023, Sec. 5.5) formulates line-buffer
//! scheduling as an ILP and hands it to a solver; the original system used
//! Google OR-Tools. This crate provides the solving substrate built from
//! scratch in Rust:
//!
//! * [`DiffSystem`] — difference-constraint systems `x_u − x_v >= k`:
//!   a longest-path fixpoint for feasibility and ASAP schedules, and
//!   [`DiffSystem::minimize`], which solves a linear objective over the
//!   system as an integer **min-cost flow** (successive shortest paths in
//!   checked `i64`). Every default-objective scheduling LP is such a
//!   system, so this is the solver on the compile path;
//! * [`Rational`] — exact rational arithmetic on `i128`;
//! * [`Model`] — a mixed-integer model builder with [`LinExpr`] expressions;
//! * a two-phase primal **simplex** over rationals ([`Model::solve_lp`]);
//! * **branch and bound** on top ([`Model::solve`]) — for the general
//!   integer programs (the exact-rows objective) and as the oracle the
//!   flow solver is tested against.
//!
//! [ImaGen]: https://arxiv.org/abs/2304.03352
//!
//! # Examples
//!
//! A miniature scheduling problem (two consumers of one producer, image
//! width 480, stencil height 3, à la the paper's Fig. 6), solved both ways:
//!
//! ```
//! use imagen_ilp::{DiffSystem, LinExpr, Model, Sense};
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
//!
//! // The same LP through the general model and the simplex.
//! let mut m = Model::new("fig6");
//! let s0 = m.add_int_var("S_K0");
//! let s1 = m.add_int_var("S_K1");
//! let s2 = m.add_int_var("S_K2");
//! m.add_diff_ge(s1, s0, 2 * w + 1, "dep_K0_K1");
//! m.add_diff_ge(s2, s1, 2 * w + 1, "dep_K1_K2");
//! m.add_diff_ge(s2, s0, 3 * w, "port_K0_K2");
//! m.set_objective(
//!     Sense::Minimize,
//!     LinExpr::from(s1) + LinExpr::from(s2) - LinExpr::from(s0) * 2,
//! );
//! let sol = m.solve()?;
//! assert_eq!(sol.int_value(s1), 961);
//! assert_eq!(sol.int_value(s2), 1922);
//! assert_eq!(sol.objective_value(), opt.objective.into());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod branch_bound;
mod diff;
mod flow;
mod model;
mod rational;
mod simplex;
pub mod stats;

pub use branch_bound::{SolveStats, DEFAULT_NODE_LIMIT};
pub use diff::{DiffOptimum, DiffSystem, MinimizeError, PositiveCycle};
pub use model::{Cmp, Constraint, LinExpr, Model, Sense, VarId};
pub use rational::Rational;
pub use simplex::{Solution, SolveError};
