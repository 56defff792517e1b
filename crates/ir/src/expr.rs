//! Stencil kernel expressions.
//!
//! A [`Kernel`] is the per-output-pixel computation of a pipeline stage: an
//! expression tree over *taps* — reads of producer pixels at fixed offsets
//! `(dx, dy)` from the current raster position. Kernels are produced by the
//! DSL front end (`imagen-dsl`), evaluated by the golden executor and the
//! cycle-level simulator (`imagen-sim`), and translated to Verilog
//! (`imagen-rtl`).
//!
//! Pixel values are modeled as `i64` throughout the software stack; the
//! hardware uses fixed-width integers, and the RTL generator sizes
//! intermediates accordingly.

use std::fmt;

/// Binary arithmetic operators available to kernels.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Integer division (rounds toward zero; division by zero yields zero,
    /// matching the generated hardware's guarded divider).
    Div,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// Arithmetic shift left. Out-of-range amounts (`< 0` or `> 63`)
    /// follow the emitted Verilog's `<<<`: the amount is treated as
    /// unsigned, so the result is `0` (see [`Expr::eval`]).
    Shl,
    /// Arithmetic shift right. Out-of-range amounts (`< 0` or `> 63`)
    /// follow the emitted Verilog's `>>>`: the result is the sign fill
    /// (`0` or `-1`; see [`Expr::eval`]).
    Shr,
}

impl BinOp {
    /// Operator mnemonic used by the pretty printer and RTL generator.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Min => "min",
            BinOp::Max => "max",
            BinOp::Shl => "<<",
            BinOp::Shr => ">>",
        }
    }
}

/// Comparison operators (produce `1` for true, `0` for false).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CmpOp {
    /// Less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater than or equal.
    Ge,
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
}

impl CmpOp {
    /// Operator mnemonic.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
            CmpOp::Eq => "==",
            CmpOp::Ne => "!=",
        }
    }

    /// Applies the comparison.
    pub fn apply(&self, a: i64, b: i64) -> bool {
        match self {
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
        }
    }
}

/// A kernel expression node.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Expr {
    /// Integer literal.
    Const(i64),
    /// A producer tap: pixel `(x + dx, y + dy)` of the `slot`-th producer
    /// of the stage (slots index the stage's producer list).
    Tap {
        /// Index into the owning stage's producer list.
        slot: usize,
        /// Horizontal offset from the current raster position.
        dx: i32,
        /// Vertical offset from the current raster position.
        dy: i32,
    },
    /// Arithmetic negation.
    Neg(Box<Expr>),
    /// Absolute value.
    Abs(Box<Expr>),
    /// Binary arithmetic.
    Bin(BinOp, Box<Expr>, Box<Expr>),
    /// Comparison producing `0` or `1`.
    Cmp(CmpOp, Box<Expr>, Box<Expr>),
    /// `if cond != 0 { then } else { otherwise }`.
    Select {
        /// Condition (nonzero = true).
        cond: Box<Expr>,
        /// Value when the condition is nonzero.
        then: Box<Expr>,
        /// Value when the condition is zero.
        otherwise: Box<Expr>,
    },
    /// `clamp(value, lo, hi)` with `lo <= hi` enforced at evaluation.
    Clamp {
        /// Value being clamped.
        value: Box<Expr>,
        /// Lower limit.
        lo: Box<Expr>,
        /// Upper limit.
        hi: Box<Expr>,
    },
}

impl Expr {
    /// Shorthand for a tap of producer `slot` at offset `(dx, dy)`.
    pub fn tap(slot: usize, dx: i32, dy: i32) -> Expr {
        Expr::Tap { slot, dx, dy }
    }

    /// Shorthand for a binary node.
    pub fn bin(op: BinOp, a: Expr, b: Expr) -> Expr {
        Expr::Bin(op, Box::new(a), Box::new(b))
    }

    /// Shorthand for a comparison node.
    pub fn cmp(op: CmpOp, a: Expr, b: Expr) -> Expr {
        Expr::Cmp(op, Box::new(a), Box::new(b))
    }

    /// Shorthand for a select node.
    pub fn select(cond: Expr, then: Expr, otherwise: Expr) -> Expr {
        Expr::Select {
            cond: Box::new(cond),
            then: Box::new(then),
            otherwise: Box::new(otherwise),
        }
    }

    /// Sum of a sequence of expressions (zero if empty).
    pub fn sum<I: IntoIterator<Item = Expr>>(items: I) -> Expr {
        let mut it = items.into_iter();
        let first = it.next().unwrap_or(Expr::Const(0));
        it.fold(first, |acc, e| Expr::bin(BinOp::Add, acc, e))
    }

    /// Evaluates the kernel. `fetch(slot, dx, dy)` supplies tap values.
    ///
    /// Arithmetic is wrapping on `i64` (far wider than the 16-bit pixel
    /// datapath, so real kernels never wrap); division by zero yields
    /// zero. Shift amounts follow the emitted Verilog's `<<<`/`>>>`
    /// semantics on a 64-bit datapath: the amount is treated as
    /// unsigned, so negative or `> 63` amounts shift everything out —
    /// `0` for `<<`, the sign fill (`0`/`-1`) for `>>`. (The model
    /// formerly clamped amounts to `0..=62`, silently diverging from
    /// the generated hardware; the hardware behavior is the pinned one.)
    pub fn eval(&self, fetch: &mut impl FnMut(usize, i32, i32) -> i64) -> i64 {
        match self {
            Expr::Const(c) => *c,
            Expr::Tap { slot, dx, dy } => fetch(*slot, *dx, *dy),
            Expr::Neg(e) => e.eval(fetch).wrapping_neg(),
            Expr::Abs(e) => e.eval(fetch).wrapping_abs(),
            Expr::Bin(op, a, b) => {
                let a = a.eval(fetch);
                let b = b.eval(fetch);
                match op {
                    BinOp::Add => a.wrapping_add(b),
                    BinOp::Sub => a.wrapping_sub(b),
                    BinOp::Mul => a.wrapping_mul(b),
                    BinOp::Div => {
                        if b == 0 {
                            0
                        } else {
                            a.wrapping_div(b)
                        }
                    }
                    BinOp::Min => a.min(b),
                    BinOp::Max => a.max(b),
                    BinOp::Shl => {
                        if (0..64).contains(&b) {
                            a.wrapping_shl(b as u32)
                        } else {
                            0
                        }
                    }
                    BinOp::Shr => {
                        let amt = if (0..64).contains(&b) { b as u32 } else { 63 };
                        a.wrapping_shr(amt)
                    }
                }
            }
            Expr::Cmp(op, a, b) => {
                let a = a.eval(fetch);
                let b = b.eval(fetch);
                i64::from(op.apply(a, b))
            }
            Expr::Select {
                cond,
                then,
                otherwise,
            } => {
                if cond.eval(fetch) != 0 {
                    then.eval(fetch)
                } else {
                    otherwise.eval(fetch)
                }
            }
            Expr::Clamp { value, lo, hi } => {
                let v = value.eval(fetch);
                let lo = lo.eval(fetch);
                let hi = hi.eval(fetch);
                if lo > hi {
                    lo
                } else {
                    v.clamp(lo, hi)
                }
            }
        }
    }

    /// Visits every tap in the expression.
    pub fn for_each_tap(&self, f: &mut impl FnMut(usize, i32, i32)) {
        match self {
            Expr::Const(_) => {}
            Expr::Tap { slot, dx, dy } => f(*slot, *dx, *dy),
            Expr::Neg(e) | Expr::Abs(e) => e.for_each_tap(f),
            Expr::Bin(_, a, b) | Expr::Cmp(_, a, b) => {
                a.for_each_tap(f);
                b.for_each_tap(f);
            }
            Expr::Select {
                cond,
                then,
                otherwise,
            } => {
                cond.for_each_tap(f);
                then.for_each_tap(f);
                otherwise.for_each_tap(f);
            }
            Expr::Clamp { value, lo, hi } => {
                value.for_each_tap(f);
                lo.for_each_tap(f);
                hi.for_each_tap(f);
            }
        }
    }

    /// Rewrites every tap through `f`, returning the transformed expression.
    pub fn map_taps(&self, f: &impl Fn(usize, i32, i32) -> Expr) -> Expr {
        match self {
            Expr::Const(c) => Expr::Const(*c),
            Expr::Tap { slot, dx, dy } => f(*slot, *dx, *dy),
            Expr::Neg(e) => Expr::Neg(Box::new(e.map_taps(f))),
            Expr::Abs(e) => Expr::Abs(Box::new(e.map_taps(f))),
            Expr::Bin(op, a, b) => Expr::bin(*op, a.map_taps(f), b.map_taps(f)),
            Expr::Cmp(op, a, b) => Expr::cmp(*op, a.map_taps(f), b.map_taps(f)),
            Expr::Select {
                cond,
                then,
                otherwise,
            } => Expr::select(cond.map_taps(f), then.map_taps(f), otherwise.map_taps(f)),
            Expr::Clamp { value, lo, hi } => Expr::Clamp {
                value: Box::new(value.map_taps(f)),
                lo: Box::new(lo.map_taps(f)),
                hi: Box::new(hi.map_taps(f)),
            },
        }
    }

    /// Moves every tap by `(dx, dy)` in place: the tree
    /// `map_taps(|slot, x, y| Expr::tap(slot, x + dx, y + dy))` returns.
    pub(crate) fn shift_taps(&mut self, dx: i32, dy: i32) {
        match self {
            Expr::Const(_) => {}
            Expr::Tap { dx: x, dy: y, .. } => {
                *x += dx;
                *y += dy;
            }
            Expr::Neg(e) | Expr::Abs(e) => e.shift_taps(dx, dy),
            Expr::Bin(_, a, b) | Expr::Cmp(_, a, b) => {
                a.shift_taps(dx, dy);
                b.shift_taps(dx, dy);
            }
            Expr::Select {
                cond: a,
                then: b,
                otherwise: c,
            }
            | Expr::Clamp {
                value: a,
                lo: b,
                hi: c,
            } => {
                a.shift_taps(dx, dy);
                b.shift_taps(dx, dy);
                c.shift_taps(dx, dy);
            }
        }
    }

    /// Tap bounding box per producer slot: `(dx_min, dx_max, dy_min, dy_max)`.
    ///
    /// Returns a vector indexed by slot covering `0..=max_slot`; slots with
    /// no taps get `None`.
    pub fn tap_extents(&self) -> Vec<Option<TapExtent>> {
        let mut out: Vec<Option<TapExtent>> = Vec::new();
        self.for_each_tap(&mut |slot, dx, dy| {
            if out.len() <= slot {
                out.resize(slot + 1, None);
            }
            let e = out[slot].get_or_insert(TapExtent {
                dx_min: dx,
                dx_max: dx,
                dy_min: dy,
                dy_max: dy,
            });
            e.dx_min = e.dx_min.min(dx);
            e.dx_max = e.dx_max.max(dx);
            e.dy_min = e.dy_min.min(dy);
            e.dy_max = e.dy_max.max(dy);
        });
        out
    }

    /// Counts operations by kind, for PE area/power estimation.
    pub fn op_census(&self) -> OpCensus {
        let mut c = OpCensus::default();
        self.census_into(&mut c);
        c
    }

    fn census_into(&self, c: &mut OpCensus) {
        match self {
            Expr::Const(_) => {}
            Expr::Tap { .. } => c.taps += 1,
            Expr::Neg(e) | Expr::Abs(e) => {
                c.adds += 1;
                e.census_into(c);
            }
            Expr::Bin(op, a, b) => {
                match op {
                    BinOp::Mul => c.muls += 1,
                    BinOp::Div => c.divs += 1,
                    _ => c.adds += 1,
                }
                a.census_into(c);
                b.census_into(c);
            }
            Expr::Cmp(_, a, b) => {
                c.cmps += 1;
                a.census_into(c);
                b.census_into(c);
            }
            Expr::Select {
                cond,
                then,
                otherwise,
            } => {
                c.muxes += 1;
                cond.census_into(c);
                then.census_into(c);
                otherwise.census_into(c);
            }
            Expr::Clamp { value, lo, hi } => {
                c.cmps += 2;
                c.muxes += 2;
                value.census_into(c);
                lo.census_into(c);
                hi.census_into(c);
            }
        }
    }
}

/// Tap bounding box of one producer slot.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TapExtent {
    /// Smallest horizontal offset.
    pub dx_min: i32,
    /// Largest horizontal offset.
    pub dx_max: i32,
    /// Smallest vertical offset.
    pub dy_min: i32,
    /// Largest vertical offset.
    pub dy_max: i32,
}

impl TapExtent {
    /// Stencil window height `dy_max - dy_min + 1`.
    pub fn height(&self) -> u32 {
        (self.dy_max - self.dy_min + 1) as u32
    }

    /// Stencil window width `dx_max - dx_min + 1`.
    pub fn width(&self) -> u32 {
        (self.dx_max - self.dx_min + 1) as u32
    }
}

/// Operation counts of a kernel, used for PE area/power estimation.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct OpCensus {
    /// Producer taps (register reads from the shift-register array).
    pub taps: usize,
    /// Adders/subtractors (incl. neg/abs/min/max/shifts).
    pub adds: usize,
    /// Multipliers.
    pub muls: usize,
    /// Dividers.
    pub divs: usize,
    /// Comparators.
    pub cmps: usize,
    /// Multiplexers.
    pub muxes: usize,
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Const(c) => write!(f, "{c}"),
            Expr::Tap { slot, dx, dy } => write!(f, "in{slot}(x{dx:+},y{dy:+})"),
            Expr::Neg(e) => write!(f, "(-{e})"),
            Expr::Abs(e) => write!(f, "abs({e})"),
            Expr::Bin(op, a, b) => match op {
                BinOp::Min | BinOp::Max => write!(f, "{}({a}, {b})", op.mnemonic()),
                _ => write!(f, "({a} {} {b})", op.mnemonic()),
            },
            Expr::Cmp(op, a, b) => write!(f, "({a} {} {b})", op.mnemonic()),
            Expr::Select {
                cond,
                then,
                otherwise,
            } => write!(f, "select({cond}, {then}, {otherwise})"),
            Expr::Clamp { value, lo, hi } => write!(f, "clamp({value}, {lo}, {hi})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat(v: i64) -> impl FnMut(usize, i32, i32) -> i64 {
        move |_, _, _| v
    }

    #[test]
    fn eval_arithmetic() {
        let e = Expr::bin(
            BinOp::Add,
            Expr::bin(BinOp::Mul, Expr::Const(3), Expr::Const(4)),
            Expr::Const(5),
        );
        assert_eq!(e.eval(&mut flat(0)), 17);
    }

    #[test]
    fn eval_taps_positional() {
        let e = Expr::bin(BinOp::Sub, Expr::tap(0, 1, 0), Expr::tap(0, -1, 0));
        let mut fetch = |_s: usize, dx: i32, _dy: i32| (dx * 10) as i64;
        assert_eq!(e.eval(&mut fetch), 20);
    }

    #[test]
    fn eval_division_guards() {
        let e = Expr::bin(BinOp::Div, Expr::Const(7), Expr::Const(0));
        assert_eq!(e.eval(&mut flat(0)), 0);
        let e = Expr::bin(BinOp::Div, Expr::Const(-7), Expr::Const(2));
        assert_eq!(e.eval(&mut flat(0)), -3);
    }

    #[test]
    fn eval_select_and_cmp() {
        let e = Expr::select(
            Expr::cmp(CmpOp::Gt, Expr::tap(0, 0, 0), Expr::Const(10)),
            Expr::Const(1),
            Expr::Const(2),
        );
        assert_eq!(e.eval(&mut flat(20)), 1);
        assert_eq!(e.eval(&mut flat(5)), 2);
    }

    #[test]
    fn eval_clamp() {
        let e = Expr::Clamp {
            value: Box::new(Expr::tap(0, 0, 0)),
            lo: Box::new(Expr::Const(0)),
            hi: Box::new(Expr::Const(255)),
        };
        assert_eq!(e.eval(&mut flat(300)), 255);
        assert_eq!(e.eval(&mut flat(-5)), 0);
        assert_eq!(e.eval(&mut flat(42)), 42);
    }

    #[test]
    fn extents_cover_all_slots() {
        let e = Expr::bin(
            BinOp::Add,
            Expr::tap(0, -1, -1),
            Expr::bin(BinOp::Add, Expr::tap(0, 1, 1), Expr::tap(1, 0, 2)),
        );
        let ex = e.tap_extents();
        assert_eq!(ex.len(), 2);
        let e0 = ex[0].unwrap();
        assert_eq!((e0.dx_min, e0.dx_max, e0.dy_min, e0.dy_max), (-1, 1, -1, 1));
        assert_eq!(e0.height(), 3);
        assert_eq!(e0.width(), 3);
        let e1 = ex[1].unwrap();
        assert_eq!(e1.height(), 1);
    }

    #[test]
    fn map_taps_shifts_offsets() {
        let e = Expr::tap(0, 2, 3);
        let shifted = e.map_taps(&|slot, dx, dy| Expr::tap(slot, dx - 2, dy - 3));
        assert_eq!(shifted, Expr::tap(0, 0, 0));
    }

    #[test]
    fn census_counts() {
        // 3x3 sum: 9 taps, 8 adds.
        let taps = (0..9).map(|i| Expr::tap(0, i % 3 - 1, i / 3 - 1));
        let e = Expr::sum(taps);
        let c = e.op_census();
        assert_eq!(c.taps, 9);
        assert_eq!(c.adds, 8);
        assert_eq!(c.muls, 0);
    }

    #[test]
    fn sum_of_empty_is_zero() {
        assert_eq!(Expr::sum(std::iter::empty()), Expr::Const(0));
    }

    #[test]
    fn display_is_readable() {
        let e = Expr::bin(BinOp::Add, Expr::tap(0, -1, 0), Expr::Const(2));
        assert_eq!(e.to_string(), "(in0(x-1,y+0) + 2)");
    }

    #[test]
    fn shift_semantics_match_verilog() {
        let shl = |a: i64, b: i64| Expr::bin(BinOp::Shl, Expr::Const(a), Expr::Const(b));
        let shr = |a: i64, b: i64| Expr::bin(BinOp::Shr, Expr::Const(a), Expr::Const(b));
        // In-range amounts shift normally.
        assert_eq!(shl(1, 4).eval(&mut flat(0)), 16);
        assert_eq!(shr(1024, 3).eval(&mut flat(0)), 128);
        assert_eq!(shr(-8, 1).eval(&mut flat(0)), -4, "arithmetic shift");
        assert_eq!(shl(1, 63).eval(&mut flat(0)), i64::MIN);
        assert_eq!(shr(i64::MIN, 63).eval(&mut flat(0)), -1);
        // Out-of-range amounts behave like Verilog's `<<<`/`>>>` with an
        // unsigned amount: everything shifts out.
        for amt in [64, 100, i64::MAX, -1, -100, i64::MIN] {
            assert_eq!(shl(1024, amt).eval(&mut flat(0)), 0, "shl by {amt}");
            assert_eq!(shr(1024, amt).eval(&mut flat(0)), 0, "shr(+) by {amt}");
            assert_eq!(shr(-1024, amt).eval(&mut flat(0)), -1, "shr(-) by {amt}");
        }
    }
}
