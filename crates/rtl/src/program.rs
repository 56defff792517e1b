//! One-time netlist → flat evaluation program compiler: the netlist
//! executor.
//!
//! A per-cycle walker would re-traverse the netlist graph every clock
//! edge: scan every stage against every edge, recompute `x`/`y` per
//! access, and evaluate kernels by recursing over the [`Expr`] tree
//! behind a fetch closure. [`EvalProgram::compile`] pays all of that
//! once, lowering a [`Netlist`] into a flat program the executor streams
//! through:
//!
//! * **register-tape bytecode** — each kernel tree is linearized into a
//!   [`TapeOp`] sequence evaluated into a dense register file, with
//!   common subexpressions hash-consed away and tap operands resolved to
//!   `(window row, column offset)` pairs at compile time;
//! * **stage-at-a-time streaming** — the compiler proves from the ILP
//!   schedule that every window load happens at least one cycle after
//!   the producer wrote the word and before the rotating buffer reuses
//!   its slot (the `streamable` margins). Under that proof the lockstep
//!   cycle loop is unnecessary: stages execute one *whole frame* at a
//!   time in start-cycle order, each tap reading the producer's dense
//!   output image directly — `image[min(y+lag+j, h-1)][max(x+dx, 0)]`
//!   is exactly the value the shift-register array would have delivered,
//!   with clock-gated read ports zeroing the affected load columns. The
//!   kernel tape then runs op-by-op over column tiles, so each bytecode
//!   instruction becomes a tight (auto-vectorizable) loop instead of a
//!   per-pixel dispatch;
//! * **one frame loop for every rate** — pipelines with `downsample`/
//!   `upsample` stages stream in the same order through the same tile
//!   loop, each stage over its *own* grid (`W/cx × H/cy`, every row
//!   padded to whole tiles). Consumer row `y`, column `x` steps taps
//!   through the producer's grid with the cumulative-scale stride
//!   (`row = min(⌊y·cy/pcy⌋ + lag + j, ph-1)`, `col = max(⌊x·cx/pcx⌋ +
//!   dx, 0)`), which is exactly the value the rate-scheduled SRA holds
//!   at the stage's compute-enable cycles. The streaming-margin proof
//!   generalizes with rows re-measured in producer row periods. Where
//!   both ends of an edge share a column scale (every rate-1 edge) a
//!   tap is a [`TapeOp::Load`], the tile's shift-copy; across a
//!   column-rate change it is a [`TapeOp::Gather`], one per lane;
//! * **closed-form + single-pass activity, at every rate** — the
//!   compiler splits into a pixel-free *layout* (stage order,
//!   window-load edges, gate windows, the streaming-margin proof), read
//!   from the netlist's [`Structure`] and gating plan alone, and the
//!   kernel tapes. Every trace quantity comes from the layout: enable
//!   duty, gated-off cycles, shift/write totals and SRAM access totals
//!   are closed forms, and per-block SRAM read/write/peak counters and
//!   the cycles some consumer loads come from an event sweep over spans
//!   where every participant's row, bank segment and gate state are
//!   constant. Each participant steps the producer's grid at its own
//!   cadence, so within a span the per-cycle counts repeat with the
//!   producer's column stride (1 at rate 1) and each residue class is
//!   counted once. Once every participant of a buffer is live, the spans
//!   repeat with a period of a few rows (the physical rows times the row
//!   steps) until the first one stops or clamps at the bottom edge: the
//!   sweep covers one period and counts it once per whole period, so its
//!   work grows with the pipeline's depth and that period, not with the
//!   frame's height. [`ScheduleActivity`] exposes exactly that part
//!   without a netlist, a tape or a frame, and is the only source of
//!   [`ActivityTrace`]s;
//! * **streamable schedules only** — a netlist whose schedule violates
//!   the streaming margins (never produced by the planner or the
//!   baseline generators, and refuted by `imagen certify`) is refused
//!   at compile time with [`InterpError::NotStreamable`].
//!
//! The program is *semantics-preserving by construction and pinned by
//! test*: [`crate::interpret`] routes through it, and the differential
//! suite (`crates/rtl/tests/program_differential.rs`) checks report and
//! images, and the [`ScheduleActivity`] trace field-for-field, against a
//! per-cycle reference walker kept in the test tree, on the whole
//! example corpus (pyramids included) at both width regimes, gated and
//! ungated.

use crate::activity::{ActivityTrace, BufferActivity};
use crate::interp::{trunc, InterpError, InterpReport};
use crate::netlist::{GatingPlan, Netlist};
use crate::structure::{sra_columns, NetBuffer, NetEdge, Structure};
use imagen_ir::{BinOp, CmpOp, Expr};
use imagen_obs::Memo;
use imagen_sim::Image;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Column-tile width of the vectorized tape evaluator: one bytecode
/// dispatch covers this many raster columns, and the per-op inner loops
/// stay resident in L1 (`max_regs × TILE × 8` bytes).
const TILE: usize = 64;

/// One bytecode instruction of a linearized kernel. Instruction `i`
/// writes register `i`; operands name earlier registers. Every result is
/// truncated to the accumulator width, mirroring [`crate::eval_acc`]'s
/// truncate-after-every-node datapath semantics exactly.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum TapeOp {
    /// Integer literal.
    Const(i64),
    /// Stencil tap on an edge whose ends share a column scale: window
    /// row `vrow` (stage-local virtual-row index) at column `x + dx`,
    /// clamped to the left edge.
    Load {
        /// Stage-local virtual-row index (edge window rows, flattened).
        vrow: u32,
        /// Horizontal tap offset (`<= 0` after window normalization).
        dx: i32,
    },
    /// Stencil tap across a column-rate change: window row `vrow` at
    /// producer column `⌊x·num/den⌋ + dx` for consumer column `x`,
    /// clamped to the left edge.
    Gather {
        /// Stage-local virtual-row index (edge window rows, flattened).
        vrow: u32,
        /// Horizontal tap offset (`<= 0` after window normalization).
        dx: i32,
        /// The consumer's cumulative column scale.
        num: u32,
        /// The producer's cumulative column scale.
        den: u32,
    },
    /// Wrapping negation.
    Neg(u32),
    /// Wrapping absolute value.
    Abs(u32),
    /// Binary arithmetic with the interpreter's pinned semantics
    /// (div-by-zero → 0, Verilog shift behaviour).
    Bin(BinOp, u32, u32),
    /// Three-way wrapping sum — fusion of two single-use `Add` nodes
    /// (wrapping addition is associative, and the fused-away
    /// intermediate was not demanded exact, so the value is unchanged).
    Add3(u32, u32, u32),
    /// Four-way wrapping sum (see [`TapeOp::Add3`]).
    Add4(u32, u32, u32, u32),
    /// Comparison producing 0 or 1.
    Cmp(CmpOp, u32, u32),
    /// `if c != 0 { t } else { o }` — both arms are evaluated eagerly,
    /// which is value-identical because every operation is pure and
    /// total.
    Select(u32, u32, u32),
    /// `clamp(v, lo, hi)` with the `lo > hi → lo` convention.
    Clamp(u32, u32, u32),
}

impl TapeOp {
    /// Calls `f` with each operand register.
    fn for_each_operand(&self, f: &mut impl FnMut(u32)) {
        match *self {
            TapeOp::Const(_) | TapeOp::Load { .. } | TapeOp::Gather { .. } => {}
            TapeOp::Neg(a) | TapeOp::Abs(a) => f(a),
            TapeOp::Bin(_, a, b) | TapeOp::Cmp(_, a, b) => {
                f(a);
                f(b);
            }
            TapeOp::Add3(a, b, c) | TapeOp::Select(a, b, c) | TapeOp::Clamp(a, b, c) => {
                f(a);
                f(b);
                f(c);
            }
            TapeOp::Add4(a, b, c, d) => {
                f(a);
                f(b);
                f(c);
                f(d);
            }
        }
    }

    /// Rewrites each operand register through `remap`.
    fn remap_operands(&mut self, remap: &[u32]) {
        match self {
            TapeOp::Const(_) | TapeOp::Load { .. } | TapeOp::Gather { .. } => {}
            TapeOp::Neg(a) | TapeOp::Abs(a) => *a = remap[*a as usize],
            TapeOp::Bin(_, a, b) | TapeOp::Cmp(_, a, b) => {
                *a = remap[*a as usize];
                *b = remap[*b as usize];
            }
            TapeOp::Add3(a, b, c) | TapeOp::Select(a, b, c) | TapeOp::Clamp(a, b, c) => {
                *a = remap[*a as usize];
                *b = remap[*b as usize];
                *c = remap[*c as usize];
            }
            TapeOp::Add4(a, b, c, d) => {
                *a = remap[*a as usize];
                *b = remap[*b as usize];
                *c = remap[*c as usize];
                *d = remap[*d as usize];
            }
        }
    }
}

/// A linearized kernel: evaluate `ops` in order, read `root`.
#[derive(Clone, Debug, Default)]
struct Tape {
    ops: Vec<TapeOp>,
    root: u32,
    /// Per-register "demanded exactness": whether this register must
    /// hold the accumulator-truncated value. Wrapping `Add`/`Sub`/`Mul`,
    /// `Neg` and the shifted operand of `Shl` are ring homomorphisms
    /// modulo `2^acc`, so a register consumed only in such positions can
    /// skip its truncation — the final truncated root is unchanged.
    /// Sign/magnitude-sensitive positions (`Abs`, `Div`, `Min`/`Max`,
    /// `Shr`, shift amounts, comparisons, `Clamp`, select conditions)
    /// demand the exact value, and a `Select` passes its own demand
    /// through to both value arms.
    exact: Vec<bool>,
}

/// Tape construction with hash-consing: structurally identical
/// instructions (same op, same operand registers) share one register.
#[derive(Default)]
struct TapeBuilder {
    ops: Vec<TapeOp>,
    memo: HashMap<TapeOp, u32>,
}

impl TapeBuilder {
    fn push(&mut self, op: TapeOp) -> u32 {
        if let Some(&r) = self.memo.get(&op) {
            return r;
        }
        let r = self.ops.len() as u32;
        self.ops.push(op);
        self.memo.insert(op, r);
        r
    }

    /// Lowers `e`, mapping taps through `tap`.
    fn lower(&mut self, e: &Expr, tap: &impl Fn(usize, i32, i32) -> TapeOp) -> u32 {
        let op = match e {
            Expr::Const(c) => TapeOp::Const(*c),
            Expr::Tap { slot, dx, dy } => tap(*slot, *dx, *dy),
            Expr::Neg(a) => TapeOp::Neg(self.lower(a, tap)),
            Expr::Abs(a) => TapeOp::Abs(self.lower(a, tap)),
            Expr::Bin(op, a, b) => {
                let a = self.lower(a, tap);
                let b = self.lower(b, tap);
                TapeOp::Bin(*op, a, b)
            }
            Expr::Cmp(op, a, b) => {
                let a = self.lower(a, tap);
                let b = self.lower(b, tap);
                TapeOp::Cmp(*op, a, b)
            }
            Expr::Select {
                cond,
                then,
                otherwise,
            } => {
                let c = self.lower(cond, tap);
                let t = self.lower(then, tap);
                let o = self.lower(otherwise, tap);
                TapeOp::Select(c, t, o)
            }
            Expr::Clamp { value, lo, hi } => {
                let v = self.lower(value, tap);
                let lo = self.lower(lo, tap);
                let hi = self.lower(hi, tap);
                TapeOp::Clamp(v, lo, hi)
            }
        };
        self.push(op)
    }

    fn finish(self, root: u32) -> Tape {
        let (ops, root) = fuse_adds(self.ops, root);
        let mut exact = vec![false; ops.len()];
        if let Some(e) = exact.get_mut(root as usize) {
            *e = true;
        }
        // Reverse pass: operands always precede their op, so one sweep
        // settles the Select pass-through inheritance too.
        for i in (0..ops.len()).rev() {
            let need = exact[i];
            let mut demand = |r: u32| exact[r as usize] = true;
            match ops[i] {
                TapeOp::Const(_)
                | TapeOp::Load { .. }
                | TapeOp::Gather { .. }
                | TapeOp::Neg(_)
                | TapeOp::Add3(..)
                | TapeOp::Add4(..) => {}
                TapeOp::Abs(a) => demand(a),
                TapeOp::Bin(op, a, b) => match op {
                    BinOp::Add | BinOp::Sub | BinOp::Mul => {}
                    BinOp::Shl => demand(b),
                    BinOp::Div | BinOp::Min | BinOp::Max | BinOp::Shr => {
                        demand(a);
                        demand(b);
                    }
                },
                TapeOp::Cmp(_, a, b) => {
                    demand(a);
                    demand(b);
                }
                TapeOp::Select(c, t, o) => {
                    demand(c);
                    if need {
                        demand(t);
                        demand(o);
                    }
                }
                TapeOp::Clamp(v, lo, hi) => {
                    demand(v);
                    demand(lo);
                    demand(hi);
                }
            }
        }
        Tape { ops, root, exact }
    }
}

/// Rewrites chains of single-use `Add` nodes into [`TapeOp::Add3`] /
/// [`TapeOp::Add4`] reductions. A node is absorbed into its consumer
/// when it is an `Add` referenced exactly once, by another `Add`:
/// wrapping addition is associative, the intermediate cannot have been
/// demanded exact (its only consumer is truncation-insensitive and it
/// is not the root), so flattening preserves the value while removing
/// the intermediate's register-file round trip.
fn fuse_adds(ops: Vec<TapeOp>, root: u32) -> (Vec<TapeOp>, u32) {
    let n = ops.len();
    let is_add = |i: u32| matches!(ops[i as usize], TapeOp::Bin(BinOp::Add, _, _));
    let mut uses = vec![0u32; n];
    let mut add_uses = vec![0u32; n];
    for op in ops.iter() {
        let adder = matches!(op, TapeOp::Bin(BinOp::Add, _, _));
        op.for_each_operand(&mut |r| {
            uses[r as usize] += 1;
            if adder {
                add_uses[r as usize] += 1;
            }
        });
    }
    uses[root as usize] += 1;
    let absorbed: Vec<bool> = (0..n as u32)
        .map(|i| is_add(i) && uses[i as usize] == 1 && add_uses[i as usize] == 1)
        .collect();

    let mut out: Vec<TapeOp> = Vec::with_capacity(n);
    let mut remap = vec![u32::MAX; n];
    for i in 0..n {
        if absorbed[i] {
            continue;
        }
        if let TapeOp::Bin(BinOp::Add, a, b) = ops[i] {
            // Flatten the absorbed subtree into a term list (left to
            // right), then reduce it with the widest ops available,
            // accumulating left-to-right for determinism.
            let mut terms: Vec<u32> = Vec::new();
            let mut stack = vec![b, a];
            while let Some(t) = stack.pop() {
                if absorbed[t as usize] {
                    if let TapeOp::Bin(BinOp::Add, x, y) = ops[t as usize] {
                        stack.push(y);
                        stack.push(x);
                    }
                } else {
                    terms.push(remap[t as usize]);
                }
            }
            let mut cur = terms[0];
            let mut k = 1;
            while k < terms.len() {
                let op = match terms.len() - k {
                    rem if rem >= 3 => TapeOp::Add4(cur, terms[k], terms[k + 1], terms[k + 2]),
                    2 => TapeOp::Add3(cur, terms[k], terms[k + 1]),
                    _ => TapeOp::Bin(BinOp::Add, cur, terms[k]),
                };
                k += match op {
                    TapeOp::Add4(..) => 3,
                    TapeOp::Add3(..) => 2,
                    _ => 1,
                };
                out.push(op);
                cur = (out.len() - 1) as u32;
            }
            remap[i] = cur;
        } else {
            let mut op = ops[i];
            op.remap_operands(&remap);
            out.push(op);
            remap[i] = (out.len() - 1) as u32;
        }
    }
    let root = remap[root as usize];
    (out, root)
}

/// Evaluates a tape over exactly [`TILE`] consecutive columns of the
/// stage's grid starting at `x0` (rows are padded to a multiple of
/// [`TILE`], so every tile is full). Each op becomes one tight loop with
/// a compile-time trip count, which the optimizer turns into branch-
/// and remainder-free SIMD; `sh` is the truncation shift (`64 - acc`,
/// zero at full width) applied after every demanded-exact node.
fn eval_tile(tape: &Tape, regs: &mut [i64], vrows: &[&[i64]], sh: u32, x0: usize) {
    for (i, op) in tape.ops.iter().enumerate() {
        let (done, rest) = regs.split_at_mut(i * TILE);
        let done = &*done;
        let dst = &mut rest[..TILE];
        // Truncation shift for this register: demanded-exact registers
        // truncate to the accumulator width, the rest stay un-truncated
        // (sound per the [`Tape::exact`] analysis).
        let sh = if tape.exact[i] { sh } else { 0 };
        match *op {
            TapeOp::Const(c) => dst.fill((c << sh) >> sh),
            TapeOp::Load { vrow, dx } => {
                let row = vrows[vrow as usize];
                let off = x0 as i64 + dx as i64;
                // Taps satisfy `dx <= 0` (window normalization), so only
                // the left edge clamps: the first `k` lanes read column
                // 0, the rest shift-copy (`x + dx` stays in range on the
                // right).
                let k = (-off).clamp(0, TILE as i64) as usize;
                let src = &row[(off + k as i64).max(0) as usize..][..TILE - k];
                if sh == 0 {
                    dst[..k].fill(row[0]);
                    dst[k..].copy_from_slice(src);
                } else {
                    dst[..k].fill((row[0] << sh) >> sh);
                    for (d, &s) in dst[k..].iter_mut().zip(src) {
                        *d = (s << sh) >> sh;
                    }
                }
            }
            TapeOp::Gather { vrow, dx, num, den } => {
                // In-frame lanes stay inside the producer's row; padding
                // lanes, whose values are never read back, clamp into it.
                let row = vrows[vrow as usize];
                let (num, den) = (num as usize, den as usize);
                for (l, d) in dst.iter_mut().enumerate() {
                    let col = (((x0 + l) * num / den) as i64 + dx as i64).max(0) as usize;
                    *d = (row[col.min(row.len() - 1)] << sh) >> sh;
                }
            }
            TapeOp::Neg(a) => {
                let ra = &done[a as usize * TILE..][..TILE];
                for (d, &a) in dst.iter_mut().zip(ra) {
                    *d = (a.wrapping_neg() << sh) >> sh;
                }
            }
            TapeOp::Abs(a) => {
                let ra = &done[a as usize * TILE..][..TILE];
                for (d, &a) in dst.iter_mut().zip(ra) {
                    *d = (a.wrapping_abs() << sh) >> sh;
                }
            }
            TapeOp::Bin(op, a, b) => {
                let ra = &done[a as usize * TILE..][..TILE];
                let rb = &done[b as usize * TILE..][..TILE];
                macro_rules! lanes {
                    ($f:expr) => {
                        if sh == 0 {
                            for l in 0..TILE {
                                dst[l] = $f(ra[l], rb[l]);
                            }
                        } else {
                            for l in 0..TILE {
                                let v: i64 = $f(ra[l], rb[l]);
                                dst[l] = (v << sh) >> sh;
                            }
                        }
                    };
                }
                match op {
                    BinOp::Add => lanes!(i64::wrapping_add),
                    BinOp::Sub => lanes!(i64::wrapping_sub),
                    BinOp::Mul => lanes!(i64::wrapping_mul),
                    BinOp::Min => lanes!(|a: i64, b: i64| a.min(b)),
                    BinOp::Max => lanes!(|a: i64, b: i64| a.max(b)),
                    // Branchless forms of the pinned Verilog shift
                    // semantics so the lanes stay vectorizable:
                    // out-of-range left shifts zero via the 0/1 factor,
                    // out-of-range right shifts saturate the amount at 63
                    // (negative amounts wrap to huge u64s and hit the min).
                    BinOp::Shl => {
                        lanes!(
                            |a: i64, b: i64| a.wrapping_shl(b as u32) * i64::from((b as u64) < 64)
                        )
                    }
                    BinOp::Shr => {
                        lanes!(|a: i64, b: i64| a.wrapping_shr((b as u64).min(63) as u32))
                    }
                    BinOp::Div => {
                        lanes!(|a: i64, b: i64| if b == 0 { 0 } else { a.wrapping_div(b) })
                    }
                }
            }
            TapeOp::Add3(a, b, c) => {
                let ra = &done[a as usize * TILE..][..TILE];
                let rb = &done[b as usize * TILE..][..TILE];
                let rc = &done[c as usize * TILE..][..TILE];
                if sh == 0 {
                    for l in 0..TILE {
                        dst[l] = ra[l].wrapping_add(rb[l]).wrapping_add(rc[l]);
                    }
                } else {
                    for l in 0..TILE {
                        let v = ra[l].wrapping_add(rb[l]).wrapping_add(rc[l]);
                        dst[l] = (v << sh) >> sh;
                    }
                }
            }
            TapeOp::Add4(a, b, c, d) => {
                let ra = &done[a as usize * TILE..][..TILE];
                let rb = &done[b as usize * TILE..][..TILE];
                let rc = &done[c as usize * TILE..][..TILE];
                let rd = &done[d as usize * TILE..][..TILE];
                if sh == 0 {
                    for l in 0..TILE {
                        dst[l] = ra[l]
                            .wrapping_add(rb[l])
                            .wrapping_add(rc[l].wrapping_add(rd[l]));
                    }
                } else {
                    for l in 0..TILE {
                        let v = ra[l]
                            .wrapping_add(rb[l])
                            .wrapping_add(rc[l].wrapping_add(rd[l]));
                        dst[l] = (v << sh) >> sh;
                    }
                }
            }
            TapeOp::Cmp(op, a, b) => {
                let ra = &done[a as usize * TILE..][..TILE];
                let rb = &done[b as usize * TILE..][..TILE];
                // 0/1 survives any truncation width; one monomorphic loop
                // per operator keeps the compare+zext vectorizable.
                macro_rules! cmp_lanes {
                    ($f:expr) => {
                        for l in 0..TILE {
                            dst[l] = i64::from($f(&ra[l], &rb[l]));
                        }
                    };
                }
                match op {
                    CmpOp::Lt => cmp_lanes!(i64::lt),
                    CmpOp::Le => cmp_lanes!(i64::le),
                    CmpOp::Gt => cmp_lanes!(i64::gt),
                    CmpOp::Ge => cmp_lanes!(i64::ge),
                    CmpOp::Eq => cmp_lanes!(i64::eq),
                    CmpOp::Ne => cmp_lanes!(i64::ne),
                }
            }
            TapeOp::Select(c, t, o) => {
                let rc = &done[c as usize * TILE..][..TILE];
                let rt = &done[t as usize * TILE..][..TILE];
                let ro = &done[o as usize * TILE..][..TILE];
                for l in 0..TILE {
                    // Operands are already truncated; select passes one
                    // through unchanged.
                    dst[l] = if rc[l] != 0 { rt[l] } else { ro[l] };
                }
            }
            TapeOp::Clamp(v, lo, hi) => {
                let rv = &done[v as usize * TILE..][..TILE];
                let rl = &done[lo as usize * TILE..][..TILE];
                let rh = &done[hi as usize * TILE..][..TILE];
                for l in 0..TILE {
                    let (v, lo, hi) = (rv[l], rl[l], rh[l]);
                    dst[l] = if lo > hi { lo } else { v.clamp(lo, hi) };
                }
            }
        }
    }
}

/// Compiled window-load path of one consumer edge.
#[derive(Clone, Debug)]
struct EdgeProg {
    /// Netlist edge index (trace attribution).
    edge: usize,
    /// Consumer input slot the edge feeds (kernel tap resolution).
    slot: usize,
    /// Producer's netlist buffer index (gating, trace attribution).
    buf: usize,
    /// Producer's netlist stage index (dense-image source).
    prod_stage: usize,
    /// SRA rows.
    height: usize,
    /// SRA columns.
    width: usize,
    /// Window row lag.
    lag: u32,
    /// First stage-local virtual-row index of this edge's window rows.
    vrow_base: usize,
    /// Read-enable window `[start, end)` of the producer buffer's clock
    /// gate, `None` when ungated.
    gate: Option<(u64, u64)>,
}

/// One pipeline stage of the [`Layout`].
#[derive(Clone, Debug)]
struct StageProg {
    /// Netlist stage index.
    stage: usize,
    /// ILP start cycle.
    start: u64,
    /// Input-stream index for source stages.
    input: Option<usize>,
    /// Whether the stage owns a compute module (output register).
    has_module: bool,
    /// This stage's consumer edges: a contiguous range of
    /// [`Layout::edges`].
    edges: std::ops::Range<usize>,
    /// Virtual rows consumed by the kernel tape (sum of edge window
    /// heights).
    n_vrows: usize,
}

/// Per-block SRAM access counters of one buffer, from its block sweep.
#[derive(Debug)]
struct BufferCounts {
    reads: Vec<u64>,
    writes: Vec<u64>,
    peaks: Vec<u32>,
    /// Cycles in which some consumer edge loads from the buffer (the
    /// read port's busy cycles).
    loading: u64,
}

impl BufferCounts {
    fn zeroed(blocks: usize) -> BufferCounts {
        BufferCounts {
            reads: vec![0; blocks],
            writes: vec![0; blocks],
            peaks: vec![0; blocks],
            loading: 0,
        }
    }
}

/// Everything [`Layout::sweep`] reads for one buffer, as words, with
/// every start and gate taken relative to the writer's start. The sweep
/// depends on cycles only through their differences, so two buffers with
/// equal keys have equal counts. In order: the frame (`w`, `h`, pixels,
/// pixel bits); the [`NetBuffer`] fields the sweep reads (row width,
/// physical rows and blocks, and the rows per block, blocks per row and
/// block capacity of its layout's block map); the producer's scale;
/// then per reader edge its start, row step, lag, height and gate
/// (`0, 0, 0` ungated, else `1` and its ends). Starts and gates are
/// wrapping differences from the writer's start: for a fixed writer that
/// map is one-to-one, so equal keys mean equal relative inputs. Words
/// keep a lookup free of allocation: it borrows the key as a slice.
type SweepKey = Vec<u64>;

/// Block sweeps shared across designs: each distinct buffer is swept
/// once.
///
/// A buffer's per-block counts are a function of the frame, the buffer's
/// layout fields, its producer's scale and its reader edges, with every
/// start and gate taken relative to the writer's start.
/// Across a design-space sweep most points share most buffers, so
/// [`ScheduleActivity::derive`] looks each buffer up here and sweeps only
/// keys it has not met: Canny-m's 512 points at 32×24 hold 4,608 buffer
/// sweeps and 12 keys. The counts are kept in an [`imagen_obs::Memo`],
/// so the memo's entries, and what it hands out, do not depend on how
/// many threads share it.
///
/// The memo has no cap: it holds at most one entry per buffer of the
/// designs its owner derives, and a DSE sweep, which owns one, already
/// holds every such design.
#[derive(Default, Debug)]
pub struct BlockSweepMemo {
    sweeps: Memo<SweepKey, Arc<BufferCounts>>,
}

impl BlockSweepMemo {
    /// An empty memo.
    pub fn new() -> BlockSweepMemo {
        BlockSweepMemo::default()
    }

    /// Distinct buffer sweeps looked up so far: the number of keys. It
    /// depends only on the designs derived, not on their order or on the
    /// number of threads.
    pub fn len(&self) -> usize {
        self.sweeps.len()
    }

    /// Whether no buffer has been looked up yet.
    pub fn is_empty(&self) -> bool {
        self.sweeps.is_empty()
    }
}

/// Extent of one stage's dense frame image: the stage's own `W/cx ×
/// H/cy` grid, rows `stride` words apart.
#[derive(Clone, Copy, Debug)]
struct Grid {
    cols: usize,
    rows: usize,
    stride: usize,
}

/// The pixel-free half of an [`EvalProgram`]: stage order, window-load
/// edges, gate windows, the streaming-margin proof and every activity
/// count the schedule fixes — the closed forms computed here, and the
/// per-block SRAM counters of [`Layout::block_counts`]. Building it
/// lowers no kernel tape.
#[derive(Clone, Debug)]
struct Layout {
    w: i64,
    h: i64,
    frame: u64,
    end: u64,
    geom_pixel_bits: u32,
    /// Stages sorted by start cycle (ties by netlist index).
    stages: Vec<StageProg>,
    /// Consumer edges grouped per stage, in sorted-stage order.
    edges: Vec<EdgeProg>,
    /// The netlist's buffers, in netlist buffer order.
    buffers: Vec<NetBuffer>,
    /// Read-enable window per netlist buffer, `None` when ungated.
    gates: Vec<Option<(u64, u64)>>,
    /// Start cycle per netlist stage index (block-sweep writer lookup).
    start_of: Vec<u64>,
    n_net_stages: usize,
    n_net_edges: usize,
    /// Closed-form totals (identical to what a per-cycle walk counts).
    sram_reads: u64,
    sram_writes: u64,
    gated_off_cycles: u64,
    /// Cumulative rate scale per netlist stage (`(1, 1)` for rate-1).
    scale_of: Vec<(u64, u64)>,
}

/// Per-buffer read-enable windows of `plan`, in buffer order. FIFO
/// chains are dataflow-clocked, so their gates are never applied (the
/// gating pass never targets them).
fn gate_windows(
    plan: Option<&GatingPlan>,
    fifo: impl Iterator<Item = bool>,
) -> Vec<Option<(u64, u64)>> {
    fifo.enumerate()
        .map(|(i, fifo)| {
            plan.and_then(|g| g.gate_for(i))
                .filter(|_| !fifo)
                .map(|g| (g.read_start, g.read_end))
        })
        .collect()
}

/// Cycles of a run of `end` cycles in which `gate` holds its read port
/// off (0 when ungated).
fn gated_off(gate: Option<(u64, u64)>, end: u64) -> u64 {
    gate.map_or(0, |(gs, ge)| end - ge.min(end).saturating_sub(gs.min(end)))
}

/// `(a / d, a % d)`. `UNIT` promises `d == 1` — every stride at rate
/// 1 — so the division compiles away.
#[inline]
fn div_rem<const UNIT: bool>(a: u64, d: u64) -> (u64, u64) {
    if UNIT {
        (a, 0)
    } else {
        (a / d, a % d)
    }
}

/// Greatest common divisor (`gcd(a, 0) == a`).
fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// For a participant at base column `x` stepping a grid of column stride
/// `pcx`: the cycle offset (`0..pcx`) of its next grid column, and that
/// column.
#[inline]
fn grid_step<const UNIT: bool>(x: u64, pcx: u64) -> (u64, u64) {
    match div_rem::<UNIT>(x, pcx) {
        (col, 0) => (0, col),
        (col, off) => (pcx - off, col + 1),
    }
}

/// Loads an edge issues in the first `k` cycles of its consumer's `w × h`
/// raster: one per producer-grid column (`x % pcx == 0`) of each consumer
/// row (`y % ccy == 0`). Consumer rows start `ccy·w` cycles apart; those
/// before the one `k` falls in load whole, and that one loads the columns
/// before `k`.
fn edge_loads(k: u64, w: u64, h: u64, ccy: u64, pcx: u64) -> u64 {
    let (rows, per_row) = (h.div_ceil(ccy), w.div_ceil(pcx));
    let (done, rest) = (k / (ccy * w), k % (ccy * w));
    if done >= rows {
        rows * per_row
    } else {
        done * per_row + rest.min(w).div_ceil(pcx)
    }
}

/// A consumer edge as the block sweep sees it: (consumer start, consumer
/// row step `ccy`, lag, height, gate).
type ReaderEdge = (u64, u64, u64, u64, Option<(u64, u64)>);

/// The loads of a row of `n`, issued at cycles `base + c·step` for `c` in
/// `0..n`, that fall inside the gate window: `[lo, hi)` (the whole row
/// when ungated). Loaded values outside it are zero.
fn gate_cols(gate: Option<(u64, u64)>, base: u64, n: usize, step: u64) -> (usize, usize) {
    match gate {
        None => (0, n),
        Some((gs, ge)) => {
            let first_at = |t: u64| t.saturating_sub(base).div_ceil(step).min(n as u64) as usize;
            let (lo, hi) = (first_at(gs), first_at(ge));
            (lo, hi.max(lo))
        }
    }
}

impl Layout {
    /// Derives the layout of `structure` with its read ports gated by
    /// `gating` (`None`: ungated).
    ///
    /// # Errors
    ///
    /// [`InterpError::MissingBuffer`] when a windowed producer owns no
    /// line buffer, and [`InterpError::NotStreamable`] when the schedule
    /// violates the streaming margins on an edge.
    fn new(structure: &Structure, gating: Option<&GatingPlan>) -> Result<Layout, InterpError> {
        let geom = structure.geometry;
        let (w, h) = (geom.width as i64, geom.height as i64);
        let frame = structure.frame;

        // The line buffer each edge's producer writes, in edge order.
        let edge_buf = structure
            .edges
            .iter()
            .map(|e| {
                structure.stages[e.producer]
                    .buffer
                    .ok_or(InterpError::MissingBuffer { stage: e.producer })
            })
            .collect::<Result<Vec<usize>, _>>()?;

        let gates = gate_windows(gating, structure.buffers.iter().map(|b| b.fifo));

        // Stage order: sorted by ILP start cycle, so producers stream
        // before their consumers (the write-lead margin below proves the
        // starts are strictly ordered along every edge).
        let mut order: Vec<usize> = (0..structure.stages.len()).collect();
        order.sort_by_key(|&i| (structure.stages[i].start_cycle, i));

        let end = structure
            .stages
            .iter()
            .map(|s| s.start_cycle + frame)
            .max()
            .unwrap_or(frame);

        // Streaming-margin proof: frame-at-a-time execution with direct
        // image reads is exact iff, for every edge, (a) the producer
        // writes each window row at least one cycle before the earliest
        // load of it (write lead — also covers clamp-to-edge reads of
        // the last row, whose loads happen strictly later), and (b) the
        // rotating buffer does not reuse a slot until the load has
        // happened (read-first ties allowed). Both margins are measured
        // in the producer's row period `P_p = pcy·W` (which is `W` for
        // rate-1, reducing to the original formulas exactly); upsample
        // readers re-read a producer row for `P_p - P_c` base cycles
        // past the rate-1 model's last access, hence the extra reuse
        // slack term. Every planner schedule satisfies both; a
        // hand-built netlist that does not is refused.
        let scale_of: Vec<(u64, u64)> = structure
            .stages
            .iter()
            .map(|s| (s.scale_x, s.scale_y))
            .collect();
        for (edge, e) in structure.edges.iter().enumerate() {
            let sc = structure.stages[e.consumer].start_cycle as i64;
            let sp = structure.stages[e.producer].start_cycle as i64;
            let lag = e.window.lag as i64;
            let height = e.window.height as i64;
            let rows = structure.buffers[edge_buf[edge]].storage_rows as i64;
            let pp = scale_of[e.producer].1 as i64 * w;
            let pc = scale_of[e.consumer].1 as i64 * w;
            let write_lead = sc - sp - (lag + height - 1) * pp;
            let reuse = (lag + rows) * pp - (sc - sp) - (pp - pc).max(0);
            if write_lead < 1 || reuse < 0 {
                return Err(InterpError::NotStreamable {
                    edge,
                    producer: e.producer,
                    consumer: e.consumer,
                });
            }
        }

        let mut stages = Vec::with_capacity(structure.stages.len());
        let mut edges: Vec<EdgeProg> = Vec::with_capacity(structure.edges.len());
        let mut sram_reads = 0u64;
        // Each stage's consumed edges, with the index of its first one.
        let consumed: Vec<(usize, &[NetEdge])> = structure
            .edges_by_consumer()
            .map(|(_, first, es)| (first, es))
            .collect();

        for &si in &order {
            let s = &structure.stages[si];
            let first_edge = edges.len();
            let mut n_vrows = 0usize;
            let (first, consumed) = consumed[si];
            for (eidx, e) in (first..).zip(consumed) {
                let width = sra_columns(&e.window) as usize;
                let height = e.window.height as usize;
                let bufidx = edge_buf[eidx];
                let gate = gates[bufidx];
                // Closed-form SRAM read total: `height` words per
                // non-gated *edge-active* cycle of this edge, the loads
                // the stage issues inside the gate window.
                let (ccy, pcx) = (scale_of[si].1, scale_of[e.producer].0);
                let loads_before = |t: u64| {
                    let k = t.clamp(s.start_cycle, s.start_cycle + frame) - s.start_cycle;
                    edge_loads(k, w as u64, h as u64, ccy, pcx)
                };
                let enabled = match gate {
                    Some((gs, ge)) => loads_before(ge).saturating_sub(loads_before(gs)),
                    None => loads_before(u64::MAX),
                };
                sram_reads += height as u64 * enabled;
                edges.push(EdgeProg {
                    edge: eidx,
                    slot: e.slot,
                    buf: bufidx,
                    prod_stage: e.producer,
                    height,
                    width,
                    lag: e.window.lag,
                    vrow_base: n_vrows,
                    gate,
                });
                n_vrows += height;
            }
            stages.push(StageProg {
                stage: si,
                start: s.start_cycle,
                input: s.input_stream,
                has_module: s.census.is_some(),
                edges: first_edge..edges.len(),
                n_vrows,
            });
        }

        // One write per buffered stage per *write-cadence* cycle: a
        // stage at cumulative scale `(cx, cy)` commits `frame/(cx·cy)`
        // words (the full frame for rate-1 stages).
        let sram_writes = structure
            .buffers
            .iter()
            .map(|b| {
                let (sx, sy) = scale_of[b.stage];
                frame / (sx * sy)
            })
            .sum();

        Ok(Layout {
            w,
            h,
            frame,
            end,
            geom_pixel_bits: geom.pixel_bits,
            stages,
            edges,
            buffers: structure.buffers.clone(),
            gated_off_cycles: gates.iter().map(|&g| gated_off(g, end)).sum(),
            gates,
            start_of: structure.stages.iter().map(|s| s.start_cycle).collect(),
            n_net_stages: structure.stages.len(),
            n_net_edges: structure.edges.len(),
            sram_reads,
            sram_writes,
            scale_of,
        })
    }

    /// The extent of netlist stage `stage`'s dense frame image: its own
    /// grid, every row padded to a whole number of evaluation tiles.
    fn grid(&self, stage: usize) -> Grid {
        let (cx, cy) = self.scale_of[stage];
        let cols = (self.w as u64 / cx) as usize;
        Grid {
            cols,
            rows: (self.h as u64 / cy) as usize,
            stride: cols.next_multiple_of(TILE),
        }
    }

    /// The first consumer enable window `[start, start + frame)` that a
    /// gate in `gates` does not cover — the windows in which the gate
    /// zeroes some of that consumer's loads.
    fn uncovered(&self, gates: &[Option<(u64, u64)>]) -> Option<GateGap> {
        self.stages.iter().find_map(|st| {
            self.edges[st.edges.clone()].iter().find_map(|ep| {
                let (gs, ge) = gates[ep.buf]?;
                let window = (st.start, st.start + self.frame);
                (window.0 < gs || window.1 > ge).then_some(GateGap {
                    buffer: ep.buf,
                    consumer: st.stage,
                    gate: (gs, ge),
                    window,
                })
            })
        })
    }

    /// Per-block SRAM read/write/peak accounting and the read ports'
    /// busy cycles, reproduced without a cycle loop: for each buffer,
    /// sweep spans of cycles over which every participant (the writer and
    /// each consumer edge) keeps its raster row, bank segment and gate
    /// state. Every participant steps the producer's grid — the writer
    /// commits on rows `y % pcy == 0`, a reader loads on rows `y % ccy ==
    /// 0`, both at columns `x % pcx == 0` — so within a span the
    /// per-cycle counts repeat with period `pcx` (1 at rate 1). Each
    /// residue class is counted once and multiplied by its cycles; the
    /// peak is the largest class. Reads merge on identical `(block, row,
    /// column)` within a cycle, which across edges can only collide when
    /// two consumers run phase-aligned (start cycles congruent mod `w`);
    /// each class sorts and dedups its `(column, row)` loads before
    /// attributing them to blocks.
    ///
    /// With a `memo`, each buffer is swept only if its [`SweepKey`] is new
    /// to it; without one, every buffer is swept.
    fn block_counts(&self, memo: Option<&BlockSweepMemo>) -> Vec<Arc<BufferCounts>> {
        let sweep = |bi: usize, rd: &[ReaderEdge]| {
            // At unit stride every participant acts on every cycle of its
            // live rows, and the stride arithmetic compiles away.
            if self.scale_of[self.buffers[bi].stage] == (1, 1) && rd.iter().all(|r| r.1 == 1) {
                self.sweep::<true>(bi, rd)
            } else {
                self.sweep::<false>(bi, rd)
            }
        };
        let mut key: Vec<u64> = Vec::new();
        self.buffers
            .iter()
            .zip(&self.readers())
            .enumerate()
            .map(|(bi, (nb, rd))| {
                if nb.phys_blocks == 0 || nb.fifo {
                    return Arc::new(BufferCounts::zeroed(nb.phys_blocks));
                }
                let Some(memo) = memo else {
                    return Arc::new(sweep(bi, rd));
                };
                self.sweep_key(bi, rd, &mut key);
                memo.sweeps
                    .get_or_compute(key.as_slice(), || Arc::new(sweep(bi, rd)))
                    .0
            })
            .collect()
    }

    /// The consumer edges reading each buffer, in sweep order.
    fn readers(&self) -> Vec<Vec<ReaderEdge>> {
        let mut readers: Vec<Vec<ReaderEdge>> = vec![Vec::new(); self.buffers.len()];
        for st in &self.stages {
            let ccy = self.scale_of[st.stage].1;
            for ep in &self.edges[st.edges.clone()] {
                readers[ep.buf].push((st.start, ccy, ep.lag as u64, ep.height as u64, ep.gate));
            }
        }
        readers
    }

    /// Writes the [`SweepKey`] words of buffer `bi` read by `rd` into `key`.
    fn sweep_key(&self, bi: usize, rd: &[ReaderEdge], key: &mut Vec<u64>) {
        let nb = &self.buffers[bi];
        let ws = self.start_of[nb.stage];
        let (pcx, pcy) = self.scale_of[nb.stage];
        key.clear();
        key.extend([
            self.w as u64,
            self.h as u64,
            self.frame,
            self.geom_pixel_bits.into(),
            nb.width.into(),
            nb.layout.phys_rows().into(),
            nb.phys_blocks as u64,
            nb.layout.rows_per_block().into(),
            nb.layout.blocks_per_row().into(),
            nb.layout.block_bits(),
            pcx,
            pcy,
        ]);
        let relative = |t: u64| t.wrapping_sub(ws);
        for &(rs, ccy, lag, height, gate) in rd {
            let (gated, gs, ge) =
                gate.map_or((0, 0, 0), |(gs, ge)| (1, relative(gs), relative(ge)));
            key.extend([relative(rs), ccy, lag, height, gated, gs, ge]);
        }
    }

    /// The block sweep of buffer `bi` read by `rd` (see
    /// [`Layout::block_counts`]). `UNIT` promises that every
    /// participant's strides are 1.
    ///
    /// Between the buffer's last activation (a participant starts or a
    /// gate opens) and its first deactivation (a participant stops, a
    /// gate closes or a reader's window reaches the bottom-edge clamp),
    /// moving every participant on by `P` base rows — a multiple of the
    /// writer's row step times the physical rows and of every reader's
    /// row step — keeps its column, cadence phase, residue class, bank
    /// segment and block. The per-cycle counts of that steady state
    /// therefore repeat every `P·w` cycles: the sweep covers one period,
    /// counts it once per whole period (peaks repeat), and resumes after
    /// the last. Its work is the pipeline's depth in rows plus `P`, not
    /// the frame's height.
    fn sweep<const UNIT: bool>(&self, bi: usize, rd: &[ReaderEdge]) -> BufferCounts {
        let w = self.w as u64;
        let frame = self.frame;
        let nb = &self.buffers[bi];
        let (pcx, pcy) = self.scale_of[nb.stage];
        let classes = if UNIT { 1 } else { pcx as usize };
        let ph = self.h as u64 / pcy;
        let ws = self.start_of[nb.stage];
        let t0 = rd.iter().map(|r| r.0).min().unwrap_or(ws).min(ws);
        let tend = rd
            .iter()
            .map(|r| r.0 + frame)
            .max()
            .unwrap_or(ws + frame)
            .max(ws + frame);

        // The steady state `[from, to)` and its period `P` in base rows.
        let (mut from, mut to) = (ws, ws + frame);
        let mut period_rows = pcy * u64::from(nb.layout.phys_rows().max(1));
        for &(rs, ccy, lag, height, gate) in rd {
            let (gs, ge) = gate.unwrap_or((0, u64::MAX));
            let clamp = rs + w * pcy * (ph + 1).saturating_sub(lag + height);
            from = from.max(rs).max(gs);
            to = to.min(rs + frame).min(ge).min(clamp);
            period_rows = period_rows / gcd(period_rows, ccy) * ccy;
        }
        let period = period_rows * w;
        let reps = to.saturating_sub(from) / period;
        // The head, one period standing for all `reps`, and the tail.
        let segments = [
            (t0, from, 1),
            (from, from + reps.min(1) * period, reps),
            (from + reps * period, tend, 1),
        ];

        // Per-block reads and writes of the current residue class, the
        // blocks they touch, and the span's loads per residue class as
        // (producer column, row), merged by sort + dedup.
        let mut rcnt: Vec<u32> = vec![0; nb.phys_blocks];
        let mut wcnt: Vec<u32> = vec![0; nb.phys_blocks];
        let mut touched: Vec<usize> = Vec::new();
        let mut loads: Vec<Vec<(u64, u64)>> = vec![Vec::new(); classes];
        let split = nb.layout.is_split();
        let block_of = |row: u64, xp: u64| nb.layout.block_of(row, xp as u32, self.geom_pixel_bits);

        // Position of a participant active since `start` at cycle `t`,
        // shrinking the span end `se` to the next boundary at which its
        // row / segment / liveness changes.
        let span_for = |start: u64, t: u64, se: &mut u64| -> Option<(u64, u64)> {
            if t < start {
                *se = (*se).min(start);
                return None;
            }
            if t >= start + frame {
                return None;
            }
            let k = t - start;
            let (y, x) = (k / w, k % w);
            *se = (*se).min(t + (w - x)).min(start + frame);
            if split {
                // The next bank segment starts at base column `c·pcx`:
                // participants address the producer's grid.
                let mut starts = nb.layout.segment_starts(self.geom_pixel_bits);
                let cut = starts
                    .find(|&c| c * pcx > x)
                    .map_or(w, |c| (c * pcx).min(w));
                *se = (*se).min(t + cut - x);
            }
            Some((y, x))
        };

        let mut counts = BufferCounts::zeroed(nb.phys_blocks);
        let mut loading = 0u64;
        for (lo, hi, times) in segments {
            let mut t = lo;
            while t < hi {
                let mut se = hi;
                // The writer commits only on its own grid's rows: (residue
                // class, row, column).
                let writer = span_for(ws, t, &mut se).and_then(|(y, x)| {
                    let (row, off) = div_rem::<UNIT>(y, pcy);
                    let (class, xp) = grid_step::<UNIT>(x, pcx);
                    (off == 0).then_some((class, row, xp))
                });
                for &(rs, ccy, lag, height, gate) in rd {
                    let pos = span_for(rs, t, &mut se);
                    let mut enabled = true;
                    if let Some((gs, ge)) = gate {
                        if t < gs {
                            se = se.min(gs);
                            enabled = false;
                        } else if t < ge {
                            se = se.min(ge);
                        } else {
                            enabled = false;
                        }
                    }
                    if let Some((y, x)) = pos {
                        if enabled && div_rem::<UNIT>(y, ccy).1 == 0 {
                            let (class, xp) = grid_step::<UNIT>(x, pcx);
                            let row0 = div_rem::<UNIT>(y, pcy).0 + lag;
                            loads[class as usize]
                                .extend((0..height).map(|j| (xp, (row0 + j).min(ph - 1))));
                        }
                    }
                }
                let len = se - t;

                // Per-cycle counts of each residue class the span reaches:
                // merged unique loads, then the write.
                for (r, class_loads) in loads[..classes].iter_mut().enumerate() {
                    let r = r as u64;
                    if r >= len {
                        class_loads.clear();
                        continue;
                    }
                    let (whole, part) = div_rem::<UNIT>(len - r, pcx);
                    let cycles = (whole + u64::from(part != 0)) * times;
                    class_loads.sort_unstable();
                    class_loads.dedup();
                    for &(xp, row) in class_loads.iter() {
                        let b = block_of(row, xp);
                        if rcnt[b] == 0 && wcnt[b] == 0 {
                            touched.push(b);
                        }
                        rcnt[b] += 1;
                    }
                    if !class_loads.is_empty() {
                        loading += cycles;
                    }
                    class_loads.clear();
                    if let Some((class, row, xp)) = writer {
                        if class == r {
                            let b = block_of(row, xp);
                            if rcnt[b] == 0 && wcnt[b] == 0 {
                                touched.push(b);
                            }
                            wcnt[b] += 1;
                        }
                    }
                    for &b in &touched {
                        counts.reads[b] += rcnt[b] as u64 * cycles;
                        counts.writes[b] += wcnt[b] as u64 * cycles;
                        counts.peaks[b] = counts.peaks[b].max(rcnt[b] + wcnt[b]);
                        rcnt[b] = 0;
                        wcnt[b] = 0;
                    }
                    touched.clear();
                }
                t = se;
            }
        }
        counts.loading = loading;
        counts
    }

    /// The [`ActivityTrace`] of `blocks` with the read ports gated by
    /// `gates`. `blocks` must come from a sweep whose gates zero exactly
    /// the loads `gates` zeroes (the same gates, or two plans that both
    /// cover every consumer window and so zero none).
    fn trace(&self, blocks: &[Arc<BufferCounts>], gates: &[Option<(u64, u64)>]) -> ActivityTrace {
        let (w, h) = (self.w as u64, self.h as u64);
        let mut trace = ActivityTrace {
            run_cycles: self.end,
            frame: self.frame,
            buffers: Vec::with_capacity(self.buffers.len()),
            stages: vec![Default::default(); self.n_net_stages],
            sras: vec![Default::default(); self.n_net_edges],
        };
        for ((nb, &gate), counts) in self.buffers.iter().zip(gates).zip(blocks) {
            let mut b = BufferActivity {
                stage: nb.stage,
                block_reads: counts.reads.clone(),
                block_writes: counts.writes.clone(),
                block_peaks: counts.peaks.clone(),
                read_enabled_cycles: 0,
                idle_read_cycles: 0,
                gated_off_cycles: gated_off(gate, self.end),
                fifo: nb.fifo,
            };
            if nb.fifo {
                // FIFO chains: one push and one pop per segment per live
                // cycle of the producer's grid — the cycle simulator's
                // synthetic SODA accounting.
                let (sx, sy) = self.scale_of[nb.stage];
                let live = self.frame / (sx * sy);
                b.block_reads.fill(live);
                b.block_writes.fill(live);
                b.block_peaks.fill(2);
            } else if nb.phys_blocks > 0 {
                // The port is enabled whenever the gate is open and idle
                // when no consumer loads.
                b.read_enabled_cycles = self.end - b.gated_off_cycles;
                b.idle_read_cycles = b.read_enabled_cycles - counts.loading;
            }
            trace.buffers.push(b);
        }
        for st in &self.stages {
            // A stage fires once per point of its own grid; an edge's
            // register array shifts once per load, on every consumer row
            // at every producer-grid column (gated-off loads included).
            let (cx, cy) = self.scale_of[st.stage];
            let sa = &mut trace.stages[st.stage];
            sa.active_cycles = self.frame / (cx * cy);
            if st.has_module {
                sa.out_reg_writes = sa.active_cycles;
            }
            for ep in &self.edges[st.edges.clone()] {
                let pcx = self.scale_of[ep.prod_stage].0;
                let ea = &mut trace.sras[ep.edge];
                ea.shift_cycles = (h / cy) * (w / pcx);
                ea.cell_writes = (ep.height * ep.width) as u64 * ea.shift_cycles;
            }
        }
        trace
    }
}

/// A clock gate whose read window misses part of a consumer's enable
/// window: the gated netlist would load zeros where the ungated one
/// loads data.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct GateGap {
    /// Netlist buffer index of the gated read port.
    pub buffer: usize,
    /// Netlist stage index of the consumer.
    pub consumer: usize,
    /// The gate's read window `[start, end)`.
    pub gate: (u64, u64),
    /// The consumer's enable window `[start, start + frame)`.
    pub window: (u64, u64),
}

impl fmt::Display for GateGap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "the gate [{}, {}) of buffer {} does not cover consumer stage {}'s enable window [{}, {})",
            self.gate.0, self.gate.1, self.buffer, self.consumer, self.window.0, self.window.1
        )
    }
}

impl std::error::Error for GateGap {}

/// The activity counts a design's structure and schedule fix, derived
/// without running a frame.
///
/// For every design the executor accepts — any rate, any backend, as
/// long as the schedule satisfies the streaming margins — every
/// [`ActivityTrace`] field is a function of the schedule: SRAM block
/// reads, writes and peaks, read-port enabled, idle and gated-off
/// cycles, stage active cycles, output-register writes and SRA shift
/// cycles and cell writes. [`ScheduleActivity`] computes them from the
/// [`Structure`] and a gating plan, through the layout
/// [`EvalProgram::compile`] builds, in work that grows with each line
/// buffer's pipeline depth and steady period in rows, not with the
/// frame's height or pixels; it needs no netlist and lowers no kernel.
#[derive(Clone, Debug)]
pub struct ScheduleActivity {
    layout: Layout,
    blocks: Vec<Arc<BufferCounts>>,
}

impl ScheduleActivity {
    /// Derives the schedule-determined activity of `structure` with its
    /// read ports gated by `gating` (`None`: ungated; a netlist's own is
    /// `net.gating.as_ref()`). Each line buffer's block sweep comes from
    /// `memo` when it holds the buffer's inputs, and is stored there
    /// otherwise; without a memo every buffer is swept. The streaming
    /// margins are proved either way.
    ///
    /// # Errors
    ///
    /// [`InterpError`] exactly when [`EvalProgram::compile`] refuses the
    /// netlist: a windowed producer without a line buffer, or a schedule
    /// that violates the streaming margins.
    pub fn derive(
        structure: &Structure,
        gating: Option<&GatingPlan>,
        memo: Option<&BlockSweepMemo>,
    ) -> Result<ScheduleActivity, InterpError> {
        let layout = Layout::new(structure, gating)?;
        let blocks = layout.block_counts(memo);
        Ok(ScheduleActivity { layout, blocks })
    }

    /// The trace under the derived gating: what a per-cycle walk of a
    /// netlist of the structure carrying that gating counts.
    pub fn trace(&self) -> ActivityTrace {
        self.layout.trace(&self.blocks, &self.layout.gates)
    }

    /// The trace of the same design clock-gated by `plan` instead of the
    /// derived gating, without re-running the block sweep: the block counts
    /// and the read ports' busy cycles are shared, and only the enabled,
    /// idle and gated-off cycles are re-derived under `plan`'s windows.
    ///
    /// # Errors
    ///
    /// [`GateGap`] when a gate of `plan`, or of the derived gating,
    /// misses part of a consumer's enable window `[start, start +
    /// frame)`. When every gate covers its consumers, a gated netlist
    /// loads exactly the words the ungated one loads, on every input, so
    /// the shared counts are exact.
    pub fn trace_gated(&self, plan: &GatingPlan) -> Result<ActivityTrace, GateGap> {
        let l = &self.layout;
        let gates = gate_windows(Some(plan), l.buffers.iter().map(|b| b.fifo));
        if let Some(gap) = l.uncovered(&l.gates).or_else(|| l.uncovered(&gates)) {
            return Err(gap);
        }
        Ok(l.trace(&self.blocks, &gates))
    }
}

/// A [`Netlist`] lowered to a flat evaluation program.
///
/// Compile once with [`EvalProgram::compile`], then execute frames with
/// [`EvalProgram::run`]. The public entry points [`crate::interpret`]
/// and [`crate::interpret_with_trace`] compile-and-run internally; hold
/// an `EvalProgram` directly to amortize compilation over repeated
/// frames. Its activity comes from [`ScheduleActivity`], which builds
/// the same layout without the tapes.
#[derive(Clone, Debug)]
pub struct EvalProgram {
    /// The pixel-free half: stage order, edges, closed forms.
    layout: Layout,
    /// Linearized kernel per [`Layout::stages`] entry.
    tapes: Vec<Tape>,
    width_px: u32,
    height_px: u32,
    done_cycle: u64,
    pixel: u32,
    acc: u32,
    n_inputs: usize,
    /// Output stages in netlist order (slot -> netlist stage index).
    outputs: Vec<usize>,
    max_regs: usize,
}

impl EvalProgram {
    /// Lowers `net` into a flat evaluation program.
    ///
    /// # Errors
    ///
    /// [`InterpError::MissingBuffer`] when a windowed producer owns no
    /// line buffer, and [`InterpError::NotStreamable`] when the schedule
    /// violates the streaming margins on an edge.
    pub fn compile(net: &Netlist) -> Result<EvalProgram, InterpError> {
        let _s = imagen_obs::span("program.build");
        let layout = Layout::new(&net.structure, net.gating.as_ref())?;

        // Linearize each kernel; taps resolve to (virtual row, dx).
        let tapes: Vec<Tape> = layout
            .stages
            .iter()
            .map(|st| {
                let Some(kernel) = &net.structure.stages[st.stage].kernel else {
                    return Tape::default();
                };
                let edges = &layout.edges[st.edges.clone()];
                let mut tb = TapeBuilder::default();
                let root = tb.lower(kernel, &|slot, dx, dy| {
                    let le = edges
                        .iter()
                        .find(|e| e.slot == slot)
                        .expect("every kernel slot has an edge");
                    // The window row the register array holds tap `dy` in.
                    let j = (dy as u32).saturating_sub(le.lag) as usize;
                    assert!(j < le.height, "tap dy={dy} reaches outside the edge window");
                    let vrow = (le.vrow_base + j) as u32;
                    let (num, den) = (
                        layout.scale_of[st.stage].0 as u32,
                        layout.scale_of[le.prod_stage].0 as u32,
                    );
                    if num == den {
                        TapeOp::Load { vrow, dx }
                    } else {
                        TapeOp::Gather { vrow, dx, num, den }
                    }
                });
                tb.finish(root)
            })
            .collect();
        let max_regs = tapes.iter().map(|t| t.ops.len()).max().unwrap_or(0);

        let s = &net.structure;
        let outputs: Vec<usize> = s
            .stages
            .iter()
            .filter(|s| s.is_output)
            .map(|s| s.index)
            .collect();

        Ok(EvalProgram {
            width_px: s.geometry.width,
            height_px: s.geometry.height,
            done_cycle: s.done_cycle,
            pixel: net.widths.pixel_bits,
            acc: net.widths.acc_bits,
            n_inputs: s.input_streams().len(),
            outputs,
            max_regs,
            layout,
            tapes,
        })
    }

    /// Executes one frame.
    ///
    /// # Errors
    ///
    /// [`InterpError`] on input count/geometry mismatch.
    pub fn run(&self, inputs: &[Image]) -> Result<InterpReport, InterpError> {
        self.check_inputs(inputs)?;
        Ok(self.report(&self.frame(inputs)))
    }

    fn check_inputs(&self, inputs: &[Image]) -> Result<(), InterpError> {
        if self.n_inputs != inputs.len() {
            return Err(InterpError::InputCount {
                expected: self.n_inputs,
                provided: inputs.len(),
            });
        }
        if inputs
            .iter()
            .any(|i| i.width() != self.width_px || i.height() != self.height_px)
        {
            return Err(InterpError::GeometryMismatch);
        }
        Ok(())
    }

    /// The dense image of every stage over one frame, indexed by netlist
    /// stage, each on its [`Layout::grid`]. Stages stream whole frames in
    /// start-cycle order, and every tile evaluation is full-width: the
    /// padding lanes hold don't-care values that no in-frame column ever
    /// reads back (taps satisfy `dx <= 0`, and an in-frame column of a
    /// grid maps into its producer's grid at any rate).
    fn frame(&self, inputs: &[Image]) -> Vec<Vec<i64>> {
        let l = &self.layout;
        let mut images: Vec<Vec<i64>> = vec![Vec::new(); l.n_net_stages];
        // Shared workspaces across stages.
        let mut regs = vec![0i64; self.max_regs * TILE];
        let mut scratch: Vec<Vec<i64>> = Vec::new();

        for (st, tape) in l.stages.iter().zip(&self.tapes) {
            let g = l.grid(st.stage);
            let mut img = vec![0i64; g.rows * g.stride];
            match st.input {
                // Input stages are always rate-1.
                Some(k) => {
                    let mut it = inputs[k].raster();
                    for y in 0..g.rows {
                        for v in img[y * g.stride..][..g.cols].iter_mut() {
                            *v = trunc(it.next().unwrap_or(0), self.pixel);
                        }
                    }
                }
                None => self.eval_stage(st, tape, &images, &mut img, &mut regs, &mut scratch),
            }
            images[st.stage] = img;
        }
        images
    }

    /// The report of a streamed frame: the compile-time closed forms plus
    /// the output stages' images.
    fn report(&self, images: &[Vec<i64>]) -> InterpReport {
        let l = &self.layout;
        let output_images = self
            .outputs
            .iter()
            .map(|&stage| {
                let g = l.grid(stage);
                let mut raster = Vec::with_capacity(g.cols * g.rows);
                for y in 0..g.rows {
                    raster.extend_from_slice(&images[stage][y * g.stride..][..g.cols]);
                }
                (
                    stage,
                    Image::from_raster(g.cols as u32, g.rows as u32, raster),
                )
            })
            .collect();
        InterpReport {
            cycles: l.end,
            latency: self.done_cycle,
            output_images,
            sram_reads: l.sram_reads,
            sram_writes: l.sram_writes,
            gated_off_cycles: l.gated_off_cycles,
        }
    }

    /// Streams one compute stage's whole frame into `out`, one row of
    /// its grid at a time. Row `y` is enabled at base cycle `start +
    /// y·cy·W` and loads window row `j` of an edge from producer row
    /// `min(⌊y·cy/pcy⌋ + lag + j, ph-1)`.
    fn eval_stage(
        &self,
        st: &StageProg,
        tape: &Tape,
        images: &[Vec<i64>],
        out: &mut [i64],
        regs: &mut [i64],
        scratch: &mut Vec<Vec<i64>>,
    ) {
        let l = &self.layout;
        let g = l.grid(st.stage);
        let cy = l.scale_of[st.stage].1;
        let sh = 64 - self.acc.min(64);
        let pixel = self.pixel;
        if scratch.len() < st.n_vrows {
            scratch.resize(st.n_vrows, Vec::new());
        }
        let edges = &l.edges[st.edges.clone()];
        let prods: Vec<(Grid, (u64, u64))> = edges
            .iter()
            .map(|ep| (l.grid(ep.prod_stage), l.scale_of[ep.prod_stage]))
            .collect();

        for y in 0..g.rows {
            let yb = y as u64 * cy;
            let base = st.start + yb * l.w as u64;
            // Per edge: the producer row of window row 0 and the producer
            // columns the gate lets this row load.
            let window = |ep: &EdgeProg, &(pg, (pcx, pcy)): &(Grid, (u64, u64))| {
                let (en_lo, en_hi) = gate_cols(ep.gate, base, pg.cols, pcx);
                ((yb / pcy) as usize + ep.lag as usize, en_lo, en_hi)
            };
            // Resolve the virtual SRA rows: producer image rows with the
            // bottom clamp, gate-zeroed per load column. Scratch copies
            // are only made on partially-gated rows (adversarial plans).
            for (ep, prod) in edges.iter().zip(&prods) {
                let (r0, en_lo, en_hi) = window(ep, prod);
                let pg = prod.0;
                if en_lo == 0 && en_hi == pg.cols {
                    continue;
                }
                let img = &images[ep.prod_stage];
                for j in 0..ep.height {
                    let r = (r0 + j).min(pg.rows - 1);
                    let s = &mut scratch[ep.vrow_base + j];
                    s.clear();
                    s.resize(pg.stride, 0);
                    s[en_lo..en_hi].copy_from_slice(&img[r * pg.stride..][en_lo..en_hi]);
                }
            }
            let mut vrows: Vec<&[i64]> = Vec::with_capacity(st.n_vrows);
            for (ep, prod) in edges.iter().zip(&prods) {
                let (r0, en_lo, en_hi) = window(ep, prod);
                let pg = prod.0;
                let img = &images[ep.prod_stage];
                for j in 0..ep.height {
                    if en_lo == 0 && en_hi == pg.cols {
                        let r = (r0 + j).min(pg.rows - 1);
                        vrows.push(&img[r * pg.stride..][..pg.stride]);
                    } else {
                        vrows.push(&scratch[ep.vrow_base + j]);
                    }
                }
            }

            let orow = &mut out[y * g.stride..][..g.stride];
            // The whole row runs through the vectorized tile path; the
            // tile loader handles the left-edge column clamp itself and
            // the padding lanes compute don't-care values.
            for x0 in (0..g.stride).step_by(TILE) {
                eval_tile(tape, regs, &vrows, sh, x0);
                let root = &regs[tape.root as usize * TILE..][..TILE];
                for (o, &v) in orow[x0..x0 + TILE].iter_mut().zip(root) {
                    *o = trunc(v, pixel);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imagen_mem::{BlockLayout, DesignStyle, ImageGeometry, MemBackend, MemorySpec};
    use imagen_schedule::{plan_design, ScheduleOptions};

    /// A buffer's sweep key moves with every input the block sweep reads,
    /// so the memo cannot hand one buffer another's counts, and stays put
    /// when the writer and every reader start one cycle later, which the
    /// sweep cannot see.
    #[test]
    fn sweep_keys_separate_every_input() {
        let dag = imagen_algos::Algorithm::CannyM.build();
        let geom = ImageGeometry {
            width: 64,
            height: 48,
            pixel_bits: 16,
        };
        let spec = MemorySpec::new(MemBackend::Asic { block_bits: 2048 }, 2);
        let plan = plan_design(
            &dag,
            &geom,
            &spec,
            ScheduleOptions::default(),
            DesignStyle::Ours,
        )
        .unwrap();
        let layout = Layout::new(&crate::describe(&plan.dag, &plan.design), None).unwrap();
        let readers = layout.readers();
        let bi = (0..layout.buffers.len())
            .find(|&b| layout.buffers[b].phys_blocks > 0 && !readers[b].is_empty())
            .expect("a swept buffer");
        let stage = layout.buffers[bi].stage;
        assert_eq!(
            layout.buffers[bi].layout,
            BlockLayout::new(1024, 2048, 1).with_phys_rows(layout.buffers[bi].layout.phys_rows()),
            "64-pixel rows, one to a block"
        );
        /// `nb` with its rows repacked as rows of `row_bits` bits on
        /// blocks of `block_bits` bits, `g` to a block.
        fn relaid(nb: &mut NetBuffer, row_bits: u64, block_bits: u64, g: u32) {
            nb.layout =
                BlockLayout::new(row_bits, block_bits, g).with_phys_rows(nb.layout.phys_rows());
        }
        let key = |l: &Layout, rd: &[ReaderEdge]| {
            let mut k = Vec::new();
            l.sweep_key(bi, rd, &mut k);
            k
        };
        let base = key(&layout, &readers[bi]);

        let reader_moves: [fn(&mut ReaderEdge); 6] = [
            |r| r.0 += 1,
            |r| r.1 += 1,
            |r| r.2 += 1,
            |r| r.3 += 1,
            |r| r.4 = Some((r.0, r.0 + 1)),
            |r| r.4 = Some((0, 0)),
        ];
        for (i, m) in reader_moves.iter().enumerate() {
            let mut rd = readers[bi].clone();
            m(&mut rd[0]);
            assert_ne!(key(&layout, &rd), base, "reader input {i}");
        }
        let layout_moves: [fn(&mut Layout, usize); 12] = [
            |l, _| l.w += 1,
            |l, _| l.h += 1,
            |l, _| l.frame += 1,
            |l, _| l.geom_pixel_bits += 1,
            |l, b| l.buffers[b].width += 1,
            |l, b| {
                let nb = &mut l.buffers[b];
                nb.layout = nb.layout.with_phys_rows(nb.layout.phys_rows() + 1);
            },
            |l, b| l.buffers[b].phys_blocks += 1,
            // Two rows to a block, a row split over two blocks, one bit
            // more a block.
            |l, b| relaid(&mut l.buffers[b], 1024, 2048, 2),
            |l, b| relaid(&mut l.buffers[b], 4096, 2048, 1),
            |l, b| relaid(&mut l.buffers[b], 1024, 2049, 1),
            |l, b| l.scale_of[l.buffers[b].stage].0 += 1,
            |l, b| l.scale_of[l.buffers[b].stage].1 += 1,
        ];
        for (i, m) in layout_moves.iter().enumerate() {
            let mut l = layout.clone();
            m(&mut l, bi);
            assert_ne!(key(&l, &readers[bi]), base, "layout input {i}");
        }

        let mut later = layout.clone();
        later.start_of[stage] += 1;
        let rd: Vec<ReaderEdge> = readers[bi]
            .iter()
            .map(|&(rs, ccy, lag, h, gate)| {
                (rs + 1, ccy, lag, h, gate.map(|(s, e)| (s + 1, e + 1)))
            })
            .collect();
        assert_eq!(key(&later, &rd), base);
    }
}
