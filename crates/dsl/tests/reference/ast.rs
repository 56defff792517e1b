//! Abstract syntax tree of the ImaGen DSL.

use super::token::Pos;

/// A whole program: a sequence of stage definitions.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Program {
    /// Stage definitions in source order.
    pub items: Vec<Item>,
}

/// Rate modifier written on a stage definition.
///
/// `down = downsample(2, 2) im(x, y) ... end` halves the stage's
/// iteration domain along each axis relative to its producers;
/// `upsample` doubles it back. Factors are kept as raw `i64` literals
/// here — range validation happens in the parser (span-carrying) and
/// again in `imagen-ir` during lowering.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AstRate {
    /// No modifier: the stage runs at its producers' rate.
    Unit,
    /// `downsample(fx, fy)` — one output pixel per `fx`×`fy` producer block.
    Down {
        /// Horizontal factor.
        fx: i64,
        /// Vertical factor.
        fy: i64,
        /// Source position of the modifier keyword.
        pos: Pos,
    },
    /// `upsample(fx, fy)` — `fx`×`fy` output pixels per producer pixel.
    Up {
        /// Horizontal factor.
        fx: i64,
        /// Vertical factor.
        fy: i64,
        /// Source position of the modifier keyword.
        pos: Pos,
    },
}

impl AstRate {
    /// True when no modifier was written.
    pub fn is_unit(&self) -> bool {
        matches!(self, AstRate::Unit)
    }
}

/// One top-level item.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Item {
    /// `input NAME;` — declares a pipeline input.
    Input {
        /// Stage name.
        name: String,
        /// Source position of the name.
        pos: Pos,
    },
    /// `[output] NAME = im(x, y) EXPR end` — a compute stage.
    Stage {
        /// Stage name.
        name: String,
        /// Whether the stage is marked `output`.
        output: bool,
        /// Name bound to the horizontal coordinate (usually `x`).
        x_var: String,
        /// Name bound to the vertical coordinate (usually `y`).
        y_var: String,
        /// The stage body.
        body: AstExpr,
        /// Rate modifier (`downsample`/`upsample`), if any.
        rate: AstRate,
        /// Source position of the name.
        pos: Pos,
    },
}

/// Expression AST (taps still refer to producers by name).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum AstExpr {
    /// Integer literal.
    Number(i64),
    /// `NAME(x+dx, y+dy)` — stencil tap into a named producer.
    Tap {
        /// Producer stage name.
        stage: String,
        /// Horizontal offset.
        dx: i32,
        /// Vertical offset.
        dy: i32,
        /// Source position.
        pos: Pos,
    },
    /// Unary negation.
    Neg(Box<AstExpr>),
    /// Built-in call: `abs(e)`, `min(a,b)`, `max(a,b)`,
    /// `clamp(v,lo,hi)`, `select(c,a,b)`.
    Call {
        /// Function name.
        func: String,
        /// Arguments.
        args: Vec<AstExpr>,
        /// Source position.
        pos: Pos,
    },
    /// Binary operator by mnemonic: `+ - * / << >> < <= > >= == !=`.
    Bin {
        /// Operator mnemonic.
        op: &'static str,
        /// Left operand.
        lhs: Box<AstExpr>,
        /// Right operand.
        rhs: Box<AstExpr>,
    },
}

impl AstExpr {
    /// Constant-folds the expression, returning `Some(v)` when it contains
    /// no taps and every operator is a known built-in. The arithmetic
    /// mirrors `imagen-ir`'s `Expr::eval` semantics exactly (wrapping
    /// `i64` ops, division by zero yielding zero, Verilog shift rules,
    /// `clamp` with `lo > hi` pinning to `lo`), so a folded value is the
    /// value the lowered kernel would compute.
    pub fn const_value(&self) -> Option<i64> {
        match self {
            AstExpr::Number(n) => Some(*n),
            AstExpr::Tap { .. } => None,
            AstExpr::Neg(e) => Some(e.const_value()?.wrapping_neg()),
            AstExpr::Call { func, args, .. } => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(a.const_value()?);
                }
                match (func.as_str(), vals.as_slice()) {
                    ("abs", [v]) => Some(v.wrapping_abs()),
                    ("min", [a, b]) => Some(*a.min(b)),
                    ("max", [a, b]) => Some(*a.max(b)),
                    ("clamp", [v, lo, hi]) => Some(if lo > hi { *lo } else { *v.clamp(lo, hi) }),
                    ("select", [c, t, e]) => Some(if *c != 0 { *t } else { *e }),
                    _ => None,
                }
            }
            AstExpr::Bin { op, lhs, rhs } => {
                let a = lhs.const_value()?;
                let b = rhs.const_value()?;
                match *op {
                    "+" => Some(a.wrapping_add(b)),
                    "-" => Some(a.wrapping_sub(b)),
                    "*" => Some(a.wrapping_mul(b)),
                    "/" => Some(if b == 0 { 0 } else { a.wrapping_div(b) }),
                    "<<" => Some(if (0..64).contains(&b) {
                        a.wrapping_shl(b as u32)
                    } else {
                        0
                    }),
                    ">>" => {
                        let amt = if (0..64).contains(&b) { b as u32 } else { 63 };
                        Some(a.wrapping_shr(amt))
                    }
                    "<" => Some(i64::from(a < b)),
                    "<=" => Some(i64::from(a <= b)),
                    ">" => Some(i64::from(a > b)),
                    ">=" => Some(i64::from(a >= b)),
                    "==" => Some(i64::from(a == b)),
                    "!=" => Some(i64::from(a != b)),
                    _ => None,
                }
            }
        }
    }

    /// Visits tap nodes in evaluation order.
    pub fn for_each_tap<'a>(&'a self, f: &mut impl FnMut(&'a str, i32, i32)) {
        match self {
            AstExpr::Number(_) => {}
            AstExpr::Tap { stage, dx, dy, .. } => f(stage, *dx, *dy),
            AstExpr::Neg(e) => e.for_each_tap(f),
            AstExpr::Call { args, .. } => {
                for a in args {
                    a.for_each_tap(f);
                }
            }
            AstExpr::Bin { lhs, rhs, .. } => {
                lhs.for_each_tap(f);
                rhs.for_each_tap(f);
            }
        }
    }
}
