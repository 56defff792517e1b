//! The pipeline DAG: stages, producer→consumer edges, stencil windows.
//!
//! Stages are appended in topological order by construction (a stage's
//! producers must already exist), so stage indices double as a topological
//! order and acyclicity holds by construction.
//!
//! # Window normalization
//!
//! Kernels may tap producers at arbitrary offsets (e.g. a centered 3×3
//! window uses `dy ∈ [-1, 1]`). At construction every stage is normalized
//! by a global shift so that all taps satisfy `dy >= 0` and `dx <= 0`:
//! the newest pixel any tap needs at raster step `k` then has producer
//! index at most `k + (lag + height - 1) * W`, which is exactly the form
//! the ImaGen scheduling constraints (Equ. 1b, Equ. 12) expect. The shift
//! only relabels output coordinates; both the golden executor and the
//! cycle-level simulator use the same normalized semantics, so functional
//! comparisons are exact.

use crate::expr::{Expr, TapExtent};
use std::fmt;
use std::sync::Arc;

/// Identifier of a stage within a [`Dag`].
///
/// Stage ids are dense indices assigned in insertion (= topological) order.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct StageId(pub(crate) usize);

impl StageId {
    /// Dense index of the stage (also its topological position).
    pub fn index(&self) -> usize {
        self.0
    }

    /// Builds a stage id from a dense index (callers must ensure the index
    /// is valid for the DAG it will be used with).
    pub fn from_index(index: usize) -> StageId {
        StageId(index)
    }
}

impl fmt::Display for StageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "K{}", self.0)
    }
}

/// Identifier of an edge within a [`Dag`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EdgeId(pub(crate) usize);

impl EdgeId {
    /// Dense index of the edge.
    pub fn index(&self) -> usize {
        self.0
    }

    /// Builds an edge id from a dense index (callers must ensure the index
    /// is valid for the DAG it will be used with).
    pub fn from_index(index: usize) -> EdgeId {
        EdgeId(index)
    }
}

/// Per-stage resampling rate, relative to the stage's producers.
///
/// A `Down { fx, fy }` stage emits one output pixel per `fx × fy` block
/// of its producers' grid; an `Up { fx, fy }` stage emits `fx × fy`
/// output pixels per producer pixel (nearest-neighbour expansion of the
/// tap coordinates — the kernel still sees arbitrary stencil offsets in
/// the *producer* grid). `Unit` is the classic fixed-rate stage; every
/// pre-multirate pipeline is all-`Unit` by construction.
///
/// Rates compose down the DAG into a per-stage *cumulative scale*
/// (see [`Dag::stage_scales`]): the factor between the base (input)
/// grid and the stage's own grid on each axis. All producers of a stage
/// must sit at the same cumulative scale ([`IrError::RateMismatch`]
/// otherwise), and upsampling must never rise above the base grid
/// ([`IrError::UpsampleAboveBase`]) — the accelerator streams at most
/// one pixel per cycle per stage.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Rate {
    /// Same grid as the producers (the implicit pre-multirate rate).
    Unit,
    /// Emit one pixel per `fx × fy` producer block (decimation).
    Down {
        /// Horizontal factor (`>= 1`).
        fx: u32,
        /// Vertical factor (`>= 1`).
        fy: u32,
    },
    /// Emit `fx × fy` pixels per producer pixel (expansion).
    Up {
        /// Horizontal factor (`>= 1`).
        fx: u32,
        /// Vertical factor (`>= 1`).
        fy: u32,
    },
}

impl Rate {
    /// Whether this is the unit rate.
    pub fn is_unit(&self) -> bool {
        matches!(self, Rate::Unit)
    }

    /// `(fx, fy)` factors; `(1, 1)` for the unit rate.
    pub fn factors(&self) -> (u32, u32) {
        match *self {
            Rate::Unit => (1, 1),
            Rate::Down { fx, fy } | Rate::Up { fx, fy } => (fx, fy),
        }
    }

    /// Canonical form: factor-1 `Down`/`Up` collapse to `Unit`, so the
    /// same hardware has one spelling (and one fingerprint).
    pub fn normalized(self) -> Rate {
        match self {
            Rate::Down { fx: 1, fy: 1 } | Rate::Up { fx: 1, fy: 1 } => Rate::Unit,
            r => r,
        }
    }
}

impl fmt::Display for Rate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rate::Unit => write!(f, "1:1"),
            Rate::Down { fx, fy } => write!(f, "down({fx},{fy})"),
            Rate::Up { fx, fy } => write!(f, "up({fx},{fy})"),
        }
    }
}

/// Largest accepted rate factor (and cumulative scale) on one axis,
/// `2^20` — the same plausibility bound as [`MAX_WINDOW_SPAN`]. Factors
/// of `0` or beyond this are rejected with [`IrError::RateOutOfRange`]
/// before any scale arithmetic can wrap.
pub const MAX_RATE_FACTOR: u64 = 1 << 20;

/// What a stage does.
#[derive(Clone, PartialEq, Debug)]
pub enum StageKind {
    /// Pipeline input: streams pixels from the (double-buffered) input
    /// buffer; has no producers.
    Input,
    /// A stencil compute stage evaluating `kernel` once per output pixel.
    Compute {
        /// The per-pixel expression (normalized offsets). Built once when
        /// the stage is added and shared, never copied: a cloned `Dag`,
        /// every plan made from it and every netlist built from a plan
        /// hold this same tree. Equality and hashing see the expression,
        /// so sharing changes no comparison and no fingerprint.
        kernel: Arc<Expr>,
    },
}

/// Provenance of a stage (used by transforms and reporting).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Origin {
    /// Authored by the user program.
    User,
    /// Dummy relay stage inserted by Darkroom-style linearization; mirrors
    /// the read pattern of the referenced stage.
    Relay {
        /// The sibling consumer whose read pattern this relay mirrors.
        mirrors: StageId,
    },
}

/// A pipeline stage.
#[derive(Clone, Debug)]
pub struct Stage {
    pub(crate) name: String,
    pub(crate) kind: StageKind,
    pub(crate) producers: Vec<StageId>,
    pub(crate) is_output: bool,
    pub(crate) origin: Origin,
    /// Normalization shift `(sx, sy)` applied to the user's tap offsets:
    /// stored taps are `(dx - sx, dy + sy)` of the authored ones.
    pub(crate) norm_shift: (i32, i32),
    pub(crate) sync_group: Option<u32>,
    /// Resampling rate relative to the producers (always canonical,
    /// see [`Rate::normalized`]).
    pub(crate) rate: Rate,
    /// Cumulative scale, see [`Dag::stage_scales`]; derived from the
    /// first producer's when the stage is added.
    pub(crate) scale: (u64, u64),
}

impl Stage {
    /// Stage name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Stage kind.
    pub fn kind(&self) -> &StageKind {
        &self.kind
    }

    /// Producer stages, in tap-slot order.
    pub fn producers(&self) -> &[StageId] {
        &self.producers
    }

    /// Whether this stage writes the pipeline output buffer.
    pub fn is_output(&self) -> bool {
        self.is_output
    }

    /// Whether this is the pipeline input stage.
    pub fn is_input(&self) -> bool {
        matches!(self.kind, StageKind::Input)
    }

    /// Stage provenance.
    pub fn origin(&self) -> Origin {
        self.origin
    }

    /// The kernel, if this is a compute stage.
    pub fn kernel(&self) -> Option<&Expr> {
        match &self.kind {
            StageKind::Compute { kernel } => Some(kernel.as_ref()),
            StageKind::Input => None,
        }
    }

    /// Normalization shift `(sx, sy)` applied to authored tap offsets.
    pub fn norm_shift(&self) -> (i32, i32) {
        self.norm_shift
    }

    /// Start-cycle synchronization group, if any (stages in the same group
    /// are constrained to start at the same cycle).
    pub fn sync_group(&self) -> Option<u32> {
        self.sync_group
    }

    /// Resampling rate relative to this stage's producers.
    pub fn rate(&self) -> Rate {
        self.rate
    }
}

/// The stencil window of one producer→consumer edge, in normalized
/// coordinates.
///
/// At raster step `k = (y, x)` the consumer reads producer rows
/// `y + lag .. y + lag + height - 1` (one column per cycle; horizontal
/// context lives in the shift-register array spanning `dx_min ..= dx_max`,
/// with `dx_max <= 0`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Window {
    /// First row offset read below the consumer anchor (`>= 0`).
    pub lag: u32,
    /// Number of consecutive rows read (`>= 1`). The paper's stencil
    /// height `SH` equals `height`; `lag` is zero except for
    /// multi-producer stages with mismatched anchors.
    pub height: u32,
    /// Leftmost horizontal tap (`<= dx_max`).
    pub dx_min: i32,
    /// Rightmost horizontal tap (`<= 0` after normalization).
    pub dx_max: i32,
}

impl Window {
    /// Window covering a single pixel.
    pub fn point() -> Window {
        Window {
            lag: 0,
            height: 1,
            dx_min: 0,
            dx_max: 0,
        }
    }

    /// Stencil width in columns.
    pub fn width(&self) -> u32 {
        (self.dx_max - self.dx_min + 1) as u32
    }

    /// Newest row offset read: `lag + height - 1` (the paper's `SH - 1`
    /// when `lag == 0`).
    pub fn newest_row(&self) -> u32 {
        self.lag + self.height - 1
    }

    fn from_extent(e: &TapExtent) -> Window {
        debug_assert!(e.dy_min >= 0 && e.dx_max <= 0);
        Window {
            lag: e.dy_min as u32,
            height: e.height(),
            dx_min: e.dx_min,
            dx_max: e.dx_max,
        }
    }
}

/// One contiguous group of window rows read through a single memory port.
///
/// An un-coalesced edge has exactly one port covering the whole window.
/// Line coalescing (paper Sec. 6 / Algo. 1) splits the window into several
/// ports — the "virtual stages" — each confined to one memory block's rows.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ReadPort {
    /// First row offset (from the consumer anchor) this port reads.
    pub row_offset: u32,
    /// Number of consecutive rows this port reads.
    pub height: u32,
}

/// A producer→consumer data edge.
#[derive(Clone, Debug)]
pub struct Edge {
    pub(crate) producer: StageId,
    pub(crate) consumer: StageId,
    /// Tap slot in the consumer's kernel referring to this producer.
    pub(crate) slot: usize,
    pub(crate) window: Window,
    pub(crate) ports: Vec<ReadPort>,
}

impl Edge {
    /// The producing stage.
    pub fn producer(&self) -> StageId {
        self.producer
    }

    /// The consuming stage.
    pub fn consumer(&self) -> StageId {
        self.consumer
    }

    /// The consumer's tap slot served by this edge.
    pub fn slot(&self) -> usize {
        self.slot
    }

    /// The stencil window.
    pub fn window(&self) -> &Window {
        &self.window
    }

    /// Read ports (one for plain edges; several after line coalescing).
    pub fn ports(&self) -> &[ReadPort] {
        &self.ports
    }
}

/// Errors raised while building or validating a [`Dag`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum IrError {
    /// A kernel tap referenced a slot with no corresponding producer.
    UnknownSlot {
        /// Offending stage name.
        stage: String,
        /// The out-of-range slot.
        slot: usize,
        /// Number of producers declared.
        producers: usize,
    },
    /// A producer id did not exist at stage construction time.
    UnknownProducer {
        /// Offending stage name.
        stage: String,
    },
    /// A declared producer is never tapped by the kernel.
    UnreadProducer {
        /// Offending stage name.
        stage: String,
        /// The unread slot.
        slot: usize,
    },
    /// The DAG has no output stage.
    NoOutput,
    /// The DAG has no input stage.
    NoInput,
    /// A non-output stage has no consumers (dead code).
    DeadStage {
        /// Name of the dead stage.
        stage: String,
    },
    /// A stage name was used twice.
    DuplicateName {
        /// The repeated name.
        name: String,
    },
    /// A kernel's tap span exceeds [`MAX_WINDOW_SPAN`] on some axis.
    ///
    /// Arbitrary `i32` offsets are accepted per tap, but the *span* —
    /// `max - min + 1` over a stage's taps, which sizes windows, shift
    /// register arrays and line buffers — must stay within a hardware
    /// plausibility bound, both to reject nonsense programs early and to
    /// keep all downstream `i32`/`u32` window arithmetic overflow-free.
    WindowTooLarge {
        /// Offending stage name.
        stage: String,
        /// The offending span (columns or rows).
        span: u64,
    },
    /// A rate factor (or the cumulative scale it produces) is `0` or
    /// exceeds [`MAX_RATE_FACTOR`] on some axis.
    RateOutOfRange {
        /// Offending stage name.
        stage: String,
        /// The offending factor or cumulative scale.
        factor: u64,
    },
    /// The producers of a stage sit at different cumulative scales, so
    /// the stage's taps would mix grids of different resolution.
    RateMismatch {
        /// Offending stage name.
        stage: String,
    },
    /// An `up(..)` stage would rise above the base (input) grid, which
    /// needs more than one pixel per cycle.
    UpsampleAboveBase {
        /// Offending stage name.
        stage: String,
    },
}

/// Largest accepted stencil span (columns or rows) of a single stage,
/// `2^20`. A window this size already dwarfs any real frame; beyond it,
/// [`Dag::add_stage`] returns [`IrError::WindowTooLarge`] instead of
/// risking `i32` overflow in normalization and window arithmetic.
pub const MAX_WINDOW_SPAN: u64 = 1 << 20;

impl fmt::Display for IrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IrError::UnknownSlot {
                stage,
                slot,
                producers,
            } => write!(
                f,
                "stage `{stage}` taps slot {slot} but declares only {producers} producer(s)"
            ),
            IrError::UnknownProducer { stage } => {
                write!(
                    f,
                    "stage `{stage}` references a producer that does not exist"
                )
            }
            IrError::UnreadProducer { stage, slot } => {
                write!(
                    f,
                    "stage `{stage}` never reads its declared producer {slot}"
                )
            }
            IrError::NoOutput => write!(f, "pipeline has no output stage"),
            IrError::NoInput => write!(f, "pipeline has no input stage"),
            IrError::DeadStage { stage } => {
                write!(f, "stage `{stage}` has no consumers and is not an output")
            }
            IrError::DuplicateName { name } => {
                write!(f, "stage name `{name}` is used more than once")
            }
            IrError::WindowTooLarge { stage, span } => {
                write!(
                    f,
                    "stage `{stage}` spans {span} rows/columns, above the supported {MAX_WINDOW_SPAN}"
                )
            }
            IrError::RateOutOfRange { stage, factor } => {
                write!(
                    f,
                    "stage `{stage}` has rate factor {factor}, outside the supported 1..={MAX_RATE_FACTOR}"
                )
            }
            IrError::RateMismatch { stage } => {
                write!(
                    f,
                    "stage `{stage}` taps producers at different cumulative rates"
                )
            }
            IrError::UpsampleAboveBase { stage } => {
                write!(
                    f,
                    "stage `{stage}` upsamples above the base input grid (more than one pixel per cycle)"
                )
            }
        }
    }
}

impl std::error::Error for IrError {}

/// An image-processing pipeline as a DAG of stencil stages.
///
/// # Examples
///
/// The paper's running example (Fig. 1): `K0 → K1 → K2`, with `K2` also
/// reading `K0` directly:
///
/// ```
/// use imagen_ir::{Dag, Expr, BinOp};
///
/// let mut dag = Dag::new("fig1");
/// let k0 = dag.add_input("K0");
/// let k1 = dag.add_stage("K1", &[k0], Expr::sum(
///     (0..9).map(|i| Expr::tap(0, i % 3 - 1, i / 3 - 1)),
/// ))?;
/// let k2 = dag.add_stage("K2", &[k0, k1], Expr::bin(
///     BinOp::Add,
///     Expr::tap(0, 0, 0),
///     Expr::sum((0..9).map(|i| Expr::tap(1, i % 3 - 1, i / 3 - 1))),
/// ))?;
/// dag.mark_output(k2);
/// dag.validate()?;
/// assert_eq!(dag.num_stages(), 3);
/// assert_eq!(dag.multi_consumer_stages(), vec![k0]);
/// # Ok::<(), imagen_ir::IrError>(())
/// ```
#[derive(Clone, Debug)]
pub struct Dag {
    name: String,
    stages: Vec<Stage>,
    edges: Vec<Edge>,
    next_sync_group: u32,
}

impl Dag {
    /// Creates an empty pipeline.
    pub fn new(name: impl Into<String>) -> Dag {
        Dag {
            name: name.into(),
            stages: Vec::new(),
            edges: Vec::new(),
            next_sync_group: 0,
        }
    }

    /// Pipeline name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the pipeline.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Adds an input stage (no producers).
    pub fn add_input(&mut self, name: impl Into<String>) -> StageId {
        self.stages.push(Stage {
            name: name.into(),
            kind: StageKind::Input,
            producers: Vec::new(),
            is_output: false,
            origin: Origin::User,
            norm_shift: (0, 0),
            sync_group: None,
            rate: Rate::Unit,
            scale: (1, 1),
        });
        StageId(self.stages.len() - 1)
    }

    /// Adds a compute stage reading `producers` through `kernel`.
    ///
    /// The kernel's tap offsets may be arbitrary; they are normalized here
    /// (see module docs). Producers must already exist, which keeps the
    /// graph acyclic by construction.
    ///
    /// # Errors
    ///
    /// [`IrError::UnknownSlot`], [`IrError::UnknownProducer`], or
    /// [`IrError::UnreadProducer`].
    pub fn add_stage(
        &mut self,
        name: impl Into<String>,
        producers: &[StageId],
        kernel: Expr,
    ) -> Result<StageId, IrError> {
        self.add_stage_full(name, producers, kernel, Origin::User, &[])
    }

    /// Adds a compute stage with an explicit resampling [`Rate`].
    ///
    /// # Errors
    ///
    /// Everything [`Dag::add_stage`] raises, plus
    /// [`IrError::RateOutOfRange`], [`IrError::RateMismatch`] and
    /// [`IrError::UpsampleAboveBase`].
    pub fn add_stage_rated(
        &mut self,
        name: impl Into<String>,
        producers: &[StageId],
        kernel: Expr,
        rate: Rate,
    ) -> Result<StageId, IrError> {
        self.add_stage_rated_full(name, producers, kernel, rate, Origin::User, &[])
    }

    /// Adds a compute stage with explicit per-slot window overrides.
    ///
    /// `window_overrides` pairs `(slot, window)` force an edge's window to
    /// be at least the given shape (used by linearization relays, which
    /// must *read* in their mirrored sibling's pattern even though their
    /// kernel only forwards a single tap). Overrides are given in
    /// normalized coordinates and must contain the kernel's own extent.
    ///
    /// # Errors
    ///
    /// Same as [`Dag::add_stage`].
    pub fn add_stage_full(
        &mut self,
        name: impl Into<String>,
        producers: &[StageId],
        kernel: Expr,
        origin: Origin,
        window_overrides: &[(usize, Window)],
    ) -> Result<StageId, IrError> {
        self.add_stage_rated_full(
            name,
            producers,
            kernel,
            Rate::Unit,
            origin,
            window_overrides,
        )
    }

    /// The full constructor: explicit rate, origin and window overrides.
    ///
    /// # Errors
    ///
    /// See [`Dag::add_stage`] and [`Dag::add_stage_rated`].
    pub fn add_stage_rated_full(
        &mut self,
        name: impl Into<String>,
        producers: &[StageId],
        kernel: Expr,
        rate: Rate,
        origin: Origin,
        window_overrides: &[(usize, Window)],
    ) -> Result<StageId, IrError> {
        let name = name.into();
        let rate = rate.normalized();
        // Rate factors are bounded before any scale arithmetic.
        {
            let (fx, fy) = rate.factors();
            for f in [fx as u64, fy as u64] {
                if f == 0 || f > MAX_RATE_FACTOR {
                    return Err(IrError::RateOutOfRange {
                        stage: name,
                        factor: f,
                    });
                }
            }
        }
        for p in producers {
            if p.0 >= self.stages.len() {
                return Err(IrError::UnknownProducer { stage: name });
            }
        }

        // Rate composition: all producers must sit at one cumulative
        // scale, and this stage's own scale must stay within
        // `1..=MAX_RATE_FACTOR` on both axes (an `up` below 1 would need
        // more than one pixel per cycle; a runaway `down` chain is as
        // implausible as an oversized window). A stage without producers
        // composes its rate onto the base grid unchecked.
        let base = producers.first().map_or((1, 1), |p| self.stages[p.0].scale);
        let (fx, fy) = (u64::from(rate.factors().0), u64::from(rate.factors().1));
        let scale = match rate {
            Rate::Unit => base,
            Rate::Down { .. } => (base.0 * fx, base.1 * fy),
            Rate::Up { .. } => (base.0 / fx, base.1 / fy),
        };
        if !producers.is_empty() {
            if producers.iter().any(|p| self.stages[p.0].scale != base) {
                return Err(IrError::RateMismatch { stage: name });
            }
            if matches!(rate, Rate::Up { .. })
                && (!base.0.is_multiple_of(fx) || !base.1.is_multiple_of(fy))
            {
                return Err(IrError::UpsampleAboveBase { stage: name });
            }
            for s in [scale.0, scale.1] {
                if s > MAX_RATE_FACTOR {
                    return Err(IrError::RateOutOfRange {
                        stage: name,
                        factor: s,
                    });
                }
            }
        }

        // Normalize: global shift so that dy >= 0 and dx <= 0 for all taps.
        let extents = kernel.tap_extents();
        for (slot, e) in extents.iter().enumerate() {
            if e.is_some() && slot >= producers.len() {
                return Err(IrError::UnknownSlot {
                    stage: name,
                    slot,
                    producers: producers.len(),
                });
            }
        }
        for slot in 0..producers.len() {
            if extents.get(slot).copied().flatten().is_none() {
                return Err(IrError::UnreadProducer { stage: name, slot });
            }
        }
        // Reject absurd stencil spans before any i32 window arithmetic
        // (normalization shifts, `width()`/`height()` casts) can overflow.
        // The span is global over slots because normalization applies one
        // global shift.
        // The raster anchor (offset 0) is part of the physical window, so
        // the hull includes it on every side.
        {
            let mut xl = 0i64;
            let mut xh = 0i64;
            let mut yl = 0i64;
            let mut yh = 0i64;
            for e in extents.iter().flatten() {
                xl = xl.min(e.dx_min as i64);
                xh = xh.max(e.dx_max as i64);
                yl = yl.min(e.dy_min as i64);
                yh = yh.max(e.dy_max as i64);
            }
            let span = ((xh - xl) as u64 + 1).max((yh - yl) as u64 + 1);
            if span > MAX_WINDOW_SPAN {
                return Err(IrError::WindowTooLarge { stage: name, span });
            }
        }
        let sy = extents
            .iter()
            .flatten()
            .map(|e| e.dy_min)
            .min()
            .unwrap_or(0)
            .min(0);
        let sx = extents
            .iter()
            .flatten()
            .map(|e| e.dx_max)
            .max()
            .unwrap_or(0)
            .max(0);
        let mut kernel = kernel;
        let mut extents = extents;
        if sy != 0 || sx != 0 {
            kernel.shift_taps(-sx, -sy);
            for e in extents.iter_mut().flatten() {
                e.dx_min -= sx;
                e.dx_max -= sx;
                e.dy_min -= sy;
                e.dy_max -= sy;
            }
        }

        let id = StageId(self.stages.len());
        for (slot, p) in producers.iter().enumerate() {
            let mut window = Window::from_extent(
                extents[slot]
                    .as_ref()
                    .expect("validated above: every slot has taps"),
            );
            if let Some((_, w)) = window_overrides.iter().find(|(s, _)| *s == slot) {
                debug_assert!(
                    w.lag <= window.lag && w.newest_row() >= window.newest_row(),
                    "window override must contain the kernel extent"
                );
                window = *w;
            }
            self.edges.push(Edge {
                producer: *p,
                consumer: id,
                slot,
                window,
                ports: vec![ReadPort {
                    row_offset: window.lag,
                    height: window.height,
                }],
            });
        }
        self.stages.push(Stage {
            name,
            kind: StageKind::Compute {
                kernel: Arc::new(kernel),
            },
            producers: producers.to_vec(),
            is_output: false,
            origin,
            norm_shift: (sx, sy),
            sync_group: None,
            rate,
            scale,
        });
        Ok(id)
    }

    /// Per-stage cumulative scale `(sx, sy)`: the factor between the
    /// base (input) grid and the stage's own grid on each axis. Input
    /// stages are `(1, 1)`; a `down(2,2)` stage below them is `(2, 2)`
    /// (its frame is a quarter of the base frame). Scale consistency is
    /// validated at construction, so this never fails.
    pub fn stage_scales(&self) -> Vec<(u64, u64)> {
        self.stages.iter().map(|s| s.scale).collect()
    }

    /// Whether any stage has a non-unit rate.
    pub fn is_multirate(&self) -> bool {
        self.stages.iter().any(|s| !s.rate.is_unit())
    }

    /// Marks a stage as a pipeline output.
    pub fn mark_output(&mut self, id: StageId) {
        self.stages[id.0].is_output = true;
    }

    /// Constrains two stages to start at the same cycle (used for
    /// linearization relays; coalescing "virtual stages" are read ports of
    /// one physical stage and synchronize implicitly).
    pub fn synchronize(&mut self, a: StageId, b: StageId) {
        match (self.stages[a.0].sync_group, self.stages[b.0].sync_group) {
            (Some(ga), None) => self.stages[b.0].sync_group = Some(ga),
            (None, Some(gb)) => self.stages[a.0].sync_group = Some(gb),
            (None, None) => {
                let g = self.next_sync_group;
                self.next_sync_group += 1;
                self.stages[a.0].sync_group = Some(g);
                self.stages[b.0].sync_group = Some(g);
            }
            (Some(ga), Some(gb)) => {
                if ga != gb {
                    for s in &mut self.stages {
                        if s.sync_group == Some(gb) {
                            s.sync_group = Some(ga);
                        }
                    }
                }
            }
        }
    }

    /// Number of stages.
    pub fn num_stages(&self) -> usize {
        self.stages.len()
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Stage lookup.
    pub fn stage(&self, id: StageId) -> &Stage {
        &self.stages[id.0]
    }

    /// Edge lookup.
    pub fn edge(&self, id: EdgeId) -> &Edge {
        &self.edges[id.0]
    }

    /// Iterates over stage ids in topological order.
    pub fn stage_ids(&self) -> impl Iterator<Item = StageId> {
        (0..self.stages.len()).map(StageId)
    }

    /// Iterates over all stages with their ids, in topological order.
    pub fn stages(&self) -> impl Iterator<Item = (StageId, &Stage)> {
        self.stages.iter().enumerate().map(|(i, s)| (StageId(i), s))
    }

    /// Iterates over all edges with their ids.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, &Edge)> {
        self.edges.iter().enumerate().map(|(i, e)| (EdgeId(i), e))
    }

    /// Edges out of a producer (its consumers' reads).
    pub fn consumer_edges(&self, p: StageId) -> impl Iterator<Item = (EdgeId, &Edge)> {
        self.edges().filter(move |(_, e)| e.producer == p)
    }

    /// Edges into a consumer (its producer reads), in slot order.
    pub fn producer_edges(&self, c: StageId) -> impl Iterator<Item = (EdgeId, &Edge)> {
        self.edges().filter(move |(_, e)| e.consumer == c)
    }

    /// Distinct consumer stages of a producer.
    pub fn consumers_of(&self, p: StageId) -> Vec<StageId> {
        let mut out: Vec<StageId> = self
            .edges
            .iter()
            .filter(|e| e.producer == p)
            .map(|e| e.consumer)
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Stages with more than one distinct consumer (the paper's
    /// "multiple-consumer" stages, Tbl. 3).
    pub fn multi_consumer_stages(&self) -> Vec<StageId> {
        self.stage_ids()
            .filter(|&s| self.consumers_of(s).len() > 1)
            .collect()
    }

    /// Whether any stage has multiple consumers (a `-m` algorithm).
    pub fn is_multi_consumer(&self) -> bool {
        !self.multi_consumer_stages().is_empty()
    }

    /// Stages that own a line buffer (those with at least one consumer),
    /// in stage order: one pass over the edges marks the producers.
    pub fn buffered_stages(&self) -> Vec<StageId> {
        let mut buffered = vec![false; self.stages.len()];
        for e in &self.edges {
            buffered[e.producer.0] = true;
        }
        self.stage_ids().filter(|s| buffered[s.0]).collect()
    }

    /// Replaces the read ports of an edge (used by line coalescing).
    ///
    /// # Panics
    ///
    /// Panics if the ports do not exactly partition the edge's window rows.
    #[track_caller]
    pub fn set_edge_ports(&mut self, id: EdgeId, ports: Vec<ReadPort>) {
        let e = &self.edges[id.0];
        let mut covered: Vec<u32> = Vec::new();
        for p in &ports {
            covered.extend(p.row_offset..p.row_offset + p.height);
        }
        covered.sort_unstable();
        let expect: Vec<u32> = (e.window.lag..=e.window.newest_row()).collect();
        assert_eq!(
            covered, expect,
            "read ports must partition the window rows exactly"
        );
        self.edges[id.0].ports = ports;
    }

    /// Computes the reachability relation: `reach[i]` has bit `j` set when
    /// there is a path from stage `i` to stage `j` (the paper's partial
    /// order `i ≼ j`, including reflexivity).
    pub fn reachability(&self) -> Reachability {
        let n = self.stages.len();
        let words = n.div_ceil(64);
        let mut reach = vec![vec![0u64; words]; n];
        // Process in reverse topological order: a stage reaches itself and
        // everything its consumers reach.
        for i in (0..n).rev() {
            reach[i][i / 64] |= 1 << (i % 64);
            let succ: Vec<usize> = self
                .edges
                .iter()
                .filter(|e| e.producer.0 == i)
                .map(|e| e.consumer.0)
                .collect();
            for s in succ {
                let (head, tail) = reach.split_at_mut(s.max(i));
                // i < s always (topological construction).
                let (src, dst) = (&tail[0], &mut head[i]);
                for w in 0..words {
                    dst[w] |= src[w];
                }
            }
        }
        Reachability { words, bits: reach }
    }

    /// A stable structural fingerprint of the pipeline: name, stages
    /// (kind, kernel, producers, outputs, sync groups), and edges
    /// (endpoints, windows, read ports).
    ///
    /// The normalization shift a stage was *constructed* with is pure
    /// provenance (it relabels authored coordinates; every consumer of
    /// the DAG reads the normalized kernels and windows hashed here), so
    /// it is deliberately **not** part of the fingerprint: a DAG built
    /// from centered taps and the same DAG re-lowered from its printed
    /// normalized form compile identically and fingerprint identically.
    ///
    /// Two DAGs with equal fingerprints compile identically for any given
    /// geometry and memory specification, which is what compile caches key
    /// on. The hash is FNV-1a over the structural fields, so it is stable
    /// across processes of the same build target (unlike `DefaultHasher`,
    /// whose output is unspecified); it is *not* defined to be portable
    /// across architectures, since the `Hash` impls feed native-endian
    /// bytes.
    pub fn fingerprint(&self) -> u64 {
        use std::hash::{Hash, Hasher};

        /// FNV-1a, deliberately not `DefaultHasher` (whose output is
        /// unspecified across std versions).
        struct Fnv(u64);
        impl Hasher for Fnv {
            fn finish(&self) -> u64 {
                self.0
            }
            fn write(&mut self, bytes: &[u8]) {
                for &b in bytes {
                    self.0 ^= b as u64;
                    self.0 = self.0.wrapping_mul(0x100_0000_01b3);
                }
            }
        }

        let mut h = Fnv(0xcbf2_9ce4_8422_2325);
        self.name.hash(&mut h);
        self.stages.len().hash(&mut h);
        for s in &self.stages {
            s.name.hash(&mut h);
            match &s.kind {
                StageKind::Input => 0u8.hash(&mut h),
                StageKind::Compute { kernel } => {
                    1u8.hash(&mut h);
                    kernel.hash(&mut h);
                }
            }
            s.producers.len().hash(&mut h);
            for p in &s.producers {
                p.0.hash(&mut h);
            }
            s.is_output.hash(&mut h);
            s.sync_group.hash(&mut h);
            // Unit-rate stages hash exactly as before rates existed, so
            // every pre-multirate pipeline keeps its fingerprint.
            match s.rate {
                Rate::Unit => {}
                Rate::Down { fx, fy } => (2u8, fx, fy).hash(&mut h),
                Rate::Up { fx, fy } => (3u8, fx, fy).hash(&mut h),
            }
        }
        self.edges.len().hash(&mut h);
        for e in &self.edges {
            e.producer.0.hash(&mut h);
            e.consumer.0.hash(&mut h);
            e.slot.hash(&mut h);
            let w = &e.window;
            (w.lag, w.height, w.dx_min, w.dx_max).hash(&mut h);
            e.ports.len().hash(&mut h);
            for p in &e.ports {
                (p.row_offset, p.height).hash(&mut h);
            }
        }
        h.finish()
    }

    /// Structural validation (see [`IrError`]).
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    pub fn validate(&self) -> Result<(), IrError> {
        if !self.stages.iter().any(|s| s.is_input()) {
            return Err(IrError::NoInput);
        }
        if !self.stages.iter().any(|s| s.is_output) {
            return Err(IrError::NoOutput);
        }
        let mut names: Vec<&str> = self.stages.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        for pair in names.windows(2) {
            if pair[0] == pair[1] {
                return Err(IrError::DuplicateName {
                    name: pair[0].to_string(),
                });
            }
        }
        let mut has_consumer = vec![false; self.stages.len()];
        for e in &self.edges {
            has_consumer[e.producer.0] = true;
        }
        for (s, has_consumer) in self.stages.iter().zip(has_consumer) {
            if !s.is_output && !has_consumer {
                return Err(IrError::DeadStage {
                    stage: s.name.clone(),
                });
            }
        }
        Ok(())
    }

    /// Summary statistics (stage/edge counts, Tbl. 3 style).
    pub fn stats(&self) -> DagStats {
        DagStats {
            stages: self.num_stages(),
            edges: self.num_edges(),
            multi_consumer_stages: self.multi_consumer_stages().len(),
            relay_stages: self
                .stages
                .iter()
                .filter(|s| matches!(s.origin, Origin::Relay { .. }))
                .count(),
            max_stencil_height: self
                .edges
                .iter()
                .map(|e| e.window.newest_row() + 1)
                .max()
                .unwrap_or(0),
        }
    }

    /// Graphviz dot rendering (diagnostics).
    pub fn to_dot(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::from("digraph pipeline {\n  rankdir=LR;\n");
        for (id, st) in self.stages() {
            let shape = if st.is_input() {
                "invhouse"
            } else if st.is_output {
                "house"
            } else {
                "box"
            };
            let _ = writeln!(s, "  {} [label=\"{}\", shape={}];", id.0, st.name, shape);
        }
        for (_, e) in self.edges() {
            let _ = writeln!(
                s,
                "  {} -> {} [label=\"{}x{}\"];",
                e.producer.0,
                e.consumer.0,
                e.window.height,
                e.window.width()
            );
        }
        s.push_str("}\n");
        s
    }
}

/// Dense reachability matrix over stages (see [`Dag::reachability`]).
#[derive(Clone, Debug)]
pub struct Reachability {
    words: usize,
    bits: Vec<Vec<u64>>,
}

impl Reachability {
    /// Whether there is a path from `a` to `b` (reflexive: `a ≼ a`).
    pub fn le(&self, a: StageId, b: StageId) -> bool {
        debug_assert!(self.words > 0);
        self.bits[a.0][b.0 / 64] & (1 << (b.0 % 64)) != 0
    }
}

/// Summary statistics of a DAG.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DagStats {
    /// Total stage count (the paper's `N`).
    pub stages: usize,
    /// Total edge count.
    pub edges: usize,
    /// Stages with more than one distinct consumer.
    pub multi_consumer_stages: usize,
    /// Relay (dummy) stages introduced by linearization.
    pub relay_stages: usize,
    /// Largest `lag + height` over all windows.
    pub max_stencil_height: u32,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::BinOp;

    fn box3(slot: usize) -> Expr {
        Expr::sum((0..9).map(move |i| Expr::tap(slot, i % 3 - 1, i / 3 - 1)))
    }

    fn chain3() -> (Dag, StageId, StageId, StageId) {
        let mut dag = Dag::new("chain");
        let k0 = dag.add_input("K0");
        let k1 = dag.add_stage("K1", &[k0], box3(0)).unwrap();
        let k2 = dag.add_stage("K2", &[k1], box3(0)).unwrap();
        dag.mark_output(k2);
        (dag, k0, k1, k2)
    }

    #[test]
    fn construction_and_windows() {
        let (dag, k0, k1, _) = chain3();
        assert_eq!(dag.num_stages(), 3);
        assert_eq!(dag.num_edges(), 2);
        let (_, e) = dag.consumer_edges(k0).next().unwrap();
        assert_eq!(e.consumer(), k1);
        // Centered 3x3 window normalizes to lag 0, height 3, dx in [-2, 0].
        assert_eq!(e.window().lag, 0);
        assert_eq!(e.window().height, 3);
        assert_eq!(e.window().dx_min, -2);
        assert_eq!(e.window().dx_max, 0);
        assert_eq!(e.window().width(), 3);
    }

    #[test]
    fn normalization_shift_recorded() {
        let (dag, _, k1, _) = chain3();
        // Taps dy in [-1,1] -> shift sy = -1; dx in [-1,1] -> sx = 1.
        assert_eq!(dag.stage(k1).norm_shift(), (1, -1));
        // After normalization every tap satisfies dy >= 0, dx <= 0.
        let mut ok = true;
        dag.stage(k1)
            .kernel()
            .unwrap()
            .for_each_tap(&mut |_, dx, dy| {
                ok &= dy >= 0 && dx <= 0;
            });
        assert!(ok);
    }

    #[test]
    fn multi_producer_lag() {
        // Consumer reads 3x3 from K1 (dy -1..1) and 1x1 center from K0.
        let mut dag = Dag::new("lag");
        let k0 = dag.add_input("K0");
        let k1 = dag.add_stage("K1", &[k0], box3(0)).unwrap();
        let k2 = dag
            .add_stage(
                "K2",
                &[k0, k1],
                Expr::bin(BinOp::Add, Expr::tap(0, 0, 0), box3(1)),
            )
            .unwrap();
        dag.mark_output(k2);
        // Global shift sy=-1 moves K0's point tap to dy=1: lag 1, height 1.
        let e0 = dag
            .producer_edges(k2)
            .find(|(_, e)| e.slot() == 0)
            .unwrap()
            .1;
        assert_eq!(e0.window().lag, 1);
        assert_eq!(e0.window().height, 1);
        let e1 = dag
            .producer_edges(k2)
            .find(|(_, e)| e.slot() == 1)
            .unwrap()
            .1;
        assert_eq!(e1.window().lag, 0);
        assert_eq!(e1.window().height, 3);
        assert_eq!(e1.window().newest_row(), 2);
    }

    #[test]
    fn validation_errors() {
        let mut dag = Dag::new("v");
        assert_eq!(dag.validate().unwrap_err(), IrError::NoInput);
        let k0 = dag.add_input("K0");
        assert_eq!(dag.validate().unwrap_err(), IrError::NoOutput);
        let k1 = dag.add_stage("K1", &[k0], Expr::tap(0, 0, 0)).unwrap();
        dag.mark_output(k1);
        dag.validate().unwrap();
        // Dead stage: added but never consumed, not an output.
        let _dead = dag.add_stage("D", &[k0], Expr::tap(0, 0, 0)).unwrap();
        assert!(matches!(dag.validate(), Err(IrError::DeadStage { .. })));
    }

    #[test]
    fn bad_kernel_slots() {
        let mut dag = Dag::new("v");
        let k0 = dag.add_input("K0");
        let err = dag.add_stage("K1", &[k0], Expr::tap(1, 0, 0)).unwrap_err();
        assert!(matches!(err, IrError::UnknownSlot { slot: 1, .. }));
        let err = dag.add_stage("K1", &[k0], Expr::Const(5)).unwrap_err();
        assert!(matches!(err, IrError::UnreadProducer { slot: 0, .. }));
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut dag = Dag::new("v");
        let k0 = dag.add_input("K");
        let k1 = dag.add_stage("K", &[k0], Expr::tap(0, 0, 0)).unwrap();
        dag.mark_output(k1);
        assert!(matches!(dag.validate(), Err(IrError::DuplicateName { .. })));
    }

    #[test]
    fn reachability_partial_order() {
        let mut dag = Dag::new("r");
        let k0 = dag.add_input("K0");
        let k1 = dag.add_stage("K1", &[k0], box3(0)).unwrap();
        let k2 = dag.add_stage("K2", &[k0], box3(0)).unwrap();
        let k3 = dag
            .add_stage(
                "K3",
                &[k1, k2],
                Expr::bin(BinOp::Add, Expr::tap(0, 0, 0), Expr::tap(1, 0, 0)),
            )
            .unwrap();
        dag.mark_output(k3);
        let r = dag.reachability();
        assert!(r.le(k0, k3));
        assert!(r.le(k0, k0), "reflexive");
        assert!(r.le(k1, k3));
        assert!(!r.le(k1, k2), "siblings are incomparable");
        assert!(!r.le(k3, k0), "antisymmetric");
    }

    #[test]
    fn multi_consumer_detection() {
        let mut dag = Dag::new("mc");
        let k0 = dag.add_input("K0");
        let k1 = dag.add_stage("K1", &[k0], box3(0)).unwrap();
        let k2 = dag
            .add_stage(
                "K2",
                &[k0, k1],
                Expr::bin(BinOp::Add, Expr::tap(0, 0, 0), Expr::tap(1, 0, 0)),
            )
            .unwrap();
        dag.mark_output(k2);
        assert_eq!(dag.multi_consumer_stages(), vec![k0]);
        assert!(dag.is_multi_consumer());
        assert_eq!(dag.consumers_of(k0), vec![k1, k2]);
        assert_eq!(dag.buffered_stages(), vec![k0, k1]);
    }

    #[test]
    fn sync_groups_merge() {
        let (mut dag, k0, k1, k2) = chain3();
        dag.synchronize(k0, k1);
        let g = dag.stage(k0).sync_group().unwrap();
        assert_eq!(dag.stage(k1).sync_group(), Some(g));
        dag.synchronize(k2, k1);
        assert_eq!(dag.stage(k2).sync_group(), Some(g));
    }

    #[test]
    fn edge_port_partition_enforced() {
        let (mut dag, k0, _, _) = chain3();
        let (eid, _) = dag.consumer_edges(k0).next().unwrap();
        dag.set_edge_ports(
            eid,
            vec![
                ReadPort {
                    row_offset: 0,
                    height: 2,
                },
                ReadPort {
                    row_offset: 2,
                    height: 1,
                },
            ],
        );
        assert_eq!(dag.edge(eid).ports().len(), 2);
    }

    #[test]
    #[should_panic(expected = "partition")]
    fn edge_port_partition_rejects_gaps() {
        let (mut dag, k0, _, _) = chain3();
        let (eid, _) = dag.consumer_edges(k0).next().unwrap();
        dag.set_edge_ports(
            eid,
            vec![ReadPort {
                row_offset: 0,
                height: 2,
            }],
        );
    }

    #[test]
    fn fingerprint_distinguishes_structure() {
        let (a, ..) = chain3();
        let (b, ..) = chain3();
        assert_eq!(a.fingerprint(), b.fingerprint(), "deterministic");
        let (mut c, k0, _, _) = chain3();
        let (eid, _) = c.consumer_edges(k0).next().unwrap();
        c.set_edge_ports(
            eid,
            vec![
                ReadPort {
                    row_offset: 0,
                    height: 2,
                },
                ReadPort {
                    row_offset: 2,
                    height: 1,
                },
            ],
        );
        assert_ne!(
            a.fingerprint(),
            c.fingerprint(),
            "port rewrite changes the fingerprint"
        );
        let mut d = Dag::new("other-name");
        let k0 = d.add_input("K0");
        let k1 = d.add_stage("K1", &[k0], box3(0)).unwrap();
        let k2 = d.add_stage("K2", &[k1], box3(0)).unwrap();
        d.mark_output(k2);
        assert_ne!(a.fingerprint(), d.fingerprint(), "name is part of the key");
    }

    #[test]
    fn fingerprint_ignores_normalization_provenance() {
        // A centered window and its pre-normalized spelling are the same
        // hardware; the fingerprint must agree so compile caches and
        // round-trip tests treat them as one design.
        let mut a = Dag::new("p");
        let a0 = a.add_input("K0");
        let a1 = a.add_stage("K1", &[a0], box3(0)).unwrap();
        a.mark_output(a1);
        let mut b = Dag::new("p");
        let b0 = b.add_input("K0");
        // box3 normalized: dx in [-2, 0], dy in [0, 2].
        let normalized = Expr::sum((0..9).map(|i| Expr::tap(0, i % 3 - 2, i / 3)));
        let b1 = b.add_stage("K1", &[b0], normalized).unwrap();
        b.mark_output(b1);
        assert_eq!(a.stage(a1).kernel(), b.stage(b1).kernel());
        assert_ne!(a.stage(a1).norm_shift(), b.stage(b1).norm_shift());
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn absurd_window_spans_rejected() {
        let max = crate::MAX_WINDOW_SPAN;
        let mut dag = Dag::new("w");
        let k0 = dag.add_input("K0");
        // Exactly at the limit: accepted (span counts the 0 anchor).
        let wide = Expr::bin(
            BinOp::Add,
            Expr::tap(0, -(max as i32 - 1), 0),
            Expr::tap(0, 0, 0),
        );
        dag.add_stage("ok", &[k0], wide).unwrap();
        // One beyond: rejected, instead of risking i32 overflow later.
        let too_wide = Expr::bin(
            BinOp::Add,
            Expr::tap(0, -(max as i32), 0),
            Expr::tap(0, 0, 0),
        );
        let err = dag.add_stage("kx", &[k0], too_wide).unwrap_err();
        assert!(matches!(err, IrError::WindowTooLarge { span, .. } if span == max + 1));
        // Extreme offsets on both axes must error, not overflow.
        let err = dag
            .add_stage(
                "ky",
                &[k0],
                Expr::bin(
                    BinOp::Add,
                    Expr::tap(0, i32::MIN, i32::MIN),
                    Expr::tap(0, i32::MAX, i32::MAX),
                ),
            )
            .unwrap_err();
        assert!(matches!(err, IrError::WindowTooLarge { .. }));
    }

    #[test]
    fn rates_compose_and_validate() {
        let mut dag = Dag::new("pyr");
        let k0 = dag.add_input("K0");
        let d1 = dag
            .add_stage_rated("D1", &[k0], box3(0), Rate::Down { fx: 2, fy: 2 })
            .unwrap();
        let d2 = dag
            .add_stage_rated("D2", &[d1], box3(0), Rate::Down { fx: 2, fy: 2 })
            .unwrap();
        let u1 = dag
            .add_stage_rated("U1", &[d2], Expr::tap(0, 0, 0), Rate::Up { fx: 2, fy: 2 })
            .unwrap();
        dag.mark_output(u1);
        let scales = dag.stage_scales();
        assert_eq!(scales[k0.index()], (1, 1));
        assert_eq!(scales[d1.index()], (2, 2));
        assert_eq!(scales[d2.index()], (4, 4));
        assert_eq!(scales[u1.index()], (2, 2));
        assert!(dag.is_multirate());
        assert_eq!(dag.stage(d1).rate(), Rate::Down { fx: 2, fy: 2 });

        // Upsampling above the base grid is rejected.
        let err = dag
            .add_stage_rated("bad", &[k0], Expr::tap(0, 0, 0), Rate::Up { fx: 2, fy: 2 })
            .unwrap_err();
        assert!(matches!(err, IrError::UpsampleAboveBase { .. }));

        // Producers at different scales cannot be mixed.
        let err = dag
            .add_stage_rated(
                "mix",
                &[k0, d1],
                Expr::bin(BinOp::Add, Expr::tap(0, 0, 0), Expr::tap(1, 0, 0)),
                Rate::Unit,
            )
            .unwrap_err();
        assert!(matches!(err, IrError::RateMismatch { .. }));
    }

    #[test]
    fn hostile_rate_factors_rejected() {
        let mut dag = Dag::new("hostile");
        let k0 = dag.add_input("K0");
        for rate in [
            Rate::Down { fx: 0, fy: 2 },
            Rate::Up { fx: 2, fy: 0 },
            Rate::Down {
                fx: (MAX_RATE_FACTOR + 1) as u32,
                fy: 1,
            },
        ] {
            let err = dag
                .add_stage_rated("R", &[k0], Expr::tap(0, 0, 0), rate)
                .unwrap_err();
            assert!(matches!(err, IrError::RateOutOfRange { .. }), "{rate:?}");
        }
        // A down-chain whose cumulative scale overflows the bound errors
        // instead of wrapping.
        let big = Rate::Down { fx: 1 << 12, fy: 1 };
        let a = dag
            .add_stage_rated("A", &[k0], Expr::tap(0, 0, 0), big)
            .unwrap();
        let err = dag
            .add_stage_rated("B", &[a], Expr::tap(0, 0, 0), big)
            .unwrap_err();
        assert!(matches!(err, IrError::RateOutOfRange { .. }));
    }

    #[test]
    fn unit_rate_fingerprint_untouched_and_rates_hash() {
        // Factor-1 modifiers normalize to `Unit` and fingerprint like a
        // plain stage; real factors change the fingerprint.
        let build = |rate: Rate| {
            let mut dag = Dag::new("fp");
            let k0 = dag.add_input("K0");
            let k1 = dag.add_stage_rated("K1", &[k0], box3(0), rate).unwrap();
            dag.mark_output(k1);
            dag
        };
        let plain = build(Rate::Unit);
        assert_eq!(
            plain.fingerprint(),
            build(Rate::Down { fx: 1, fy: 1 }).fingerprint()
        );
        assert_ne!(
            plain.fingerprint(),
            build(Rate::Down { fx: 2, fy: 2 }).fingerprint()
        );
        assert_ne!(
            build(Rate::Down { fx: 2, fy: 2 }).fingerprint(),
            build(Rate::Down { fx: 2, fy: 1 }).fingerprint()
        );
    }

    #[test]
    fn stats_and_dot() {
        let (dag, ..) = chain3();
        let st = dag.stats();
        assert_eq!(st.stages, 3);
        assert_eq!(st.max_stencil_height, 3);
        let dot = dag.to_dot();
        assert!(dot.contains("digraph"));
        assert!(dot.contains("3x3"));
    }
}
