//! # imagen-schedule
//!
//! The core contribution of the [ImaGen] paper (ISCA 2023): a constrained
//! optimization that schedules line-buffered image-processing pipelines
//! for minimum on-chip memory at full (one pixel per cycle) throughput.
//!
//! * [`constraints`] — Equ. 1b data dependencies; Equ. 1c memory
//!   contention expressed through access sets and transformed into linear
//!   difference constraints (Equ. 8–12), exact away from the bottom edge;
//!   Sec. 5.4 constraint pruning over the DAG's partial order.
//! * [`solve_schedule`] — the ILP (Sec. 5.5), solved as the min-cost-flow
//!   dual of its difference LP by the network simplex, plus depth-first
//!   resolution of surviving OR-groups.
//! * [`checker`] — exact per-buffer port-discipline verification at both
//!   absolute-row and physical-block granularity (rotation aliasing),
//!   decided by arithmetic on start differences, with the row scanner as
//!   fallback and reference.
//! * [`plan_design`] — the full Fig. 5 "Optimizer": coalescing rewrite,
//!   formulation, solving, buffer sizing (Equ. 2), block allocation and
//!   pricing into a [`imagen_mem::Design`], running each distinct
//!   buffer's port checks once per [`PortCheckMemo`].
//!
//! [ImaGen]: https://arxiv.org/abs/2304.03352

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checker;
pub mod constraints;
mod entity;
mod plan;
mod solve;

pub use constraints::{
    dependency_gap, formulate, formulate_skeleton, formulate_with, row_periods, schedule_satisfies,
    BufferParams, ConstraintSet, ConstraintSkeleton, DiffBounds, DiffGe, FormulationStats, OrGroup,
    ScheduleOptions,
};
pub use entity::{buffer_entities, AccessEntity};
pub use plan::{
    buffer_check, plan_design, plan_design_with, resolve_entities, Plan, PlanError, PortCheckMemo,
    SpecBufferParams,
};
pub use solve::{
    asap_schedule, delay_lp, size_buffers, solve_schedule, Schedule, ScheduleError, SolveReport,
    MAX_SUBPROBLEMS,
};
