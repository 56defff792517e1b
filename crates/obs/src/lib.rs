//! # imagen-obs
//!
//! Observability substrate for the ImaGen compile stack: a lock-cheap
//! [`Metrics`] registry (atomic counters, gauges, and log-scale
//! histograms with p50/p90/p99 extraction), a [`Collector`] of
//! hierarchical timed spans with text-timeline and Chrome
//! `trace_event` JSON export, and [`Memo`], the single-flight map every
//! memo of the stack is built on: each key is computed once, at any
//! worker count, and racing lookups wait and count as hits.
//!
//! The crate is std-only and sits at the bottom of the workspace
//! dependency graph so every layer (ILP, scheduler, RTL, core, DSE,
//! CLI, serve) can be instrumented without cycles.
//!
//! ## Design constraints
//!
//! * **Uninstrumented paths stay free.** [`span`] reads one
//!   thread-local; when no collector is installed it returns an inert
//!   guard without ever calling `Instant::now()`. The compile pipeline
//!   is instrumented unconditionally, and the regression gate pins the
//!   cost of the disabled probes at ≤ 1%.
//! * **Snapshots race live writers safely.** Every metric cell is an
//!   atomic; [`Metrics::snapshot`] reads them relaxed while other
//!   threads keep writing. A snapshot is a consistent-enough view for
//!   operational stats, not a linearizable cut.
//! * **Determinism is untouched.** Instrumentation only appends to
//!   side channels (atomics, per-thread span logs); compile results
//!   are byte-identical with and without a collector installed, pinned
//!   by proptests in `imagen-core`.
//!
//! ## Examples
//!
//! ```
//! use imagen_obs::{span, Collector, Metrics};
//! use std::sync::Arc;
//!
//! let metrics = Metrics::new();
//! let compiles = metrics.counter("requests.compile");
//! compiles.add(1);
//!
//! let collector = Arc::new(Collector::new());
//! imagen_obs::with_collector(&collector, || {
//!     let _outer = span("compile");
//!     {
//!         let _inner = span("ilp.solve");
//!     }
//! });
//! let phases = collector.phase_totals();
//! assert_eq!(phases[0].name, "compile");
//! assert_eq!(metrics.snapshot().counters[0].1, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod memo;
mod metrics;
mod trace;

pub use memo::{Memo, Slot};
pub use metrics::{
    Counter, Gauge, HistSnapshot, Histogram, Metrics, MetricsSnapshot, SNAPSHOT_SCHEMA,
};
pub use trace::{current, span, with_collector, Collector, PhaseTotal, SpanGuard, SpanRecord};
