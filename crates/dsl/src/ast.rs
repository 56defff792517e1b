//! Abstract syntax tree of the ImaGen DSL. Names borrow from the source
//! text the tree was parsed from.

use crate::token::Pos;
use std::collections::HashMap;

/// A whole program: a sequence of stage definitions.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Program<'src> {
    /// Stage definitions in source order.
    pub items: Vec<Item<'src>>,
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
pub enum Item<'src> {
    /// `input NAME;` — declares a pipeline input.
    Input {
        /// Stage name.
        name: &'src str,
        /// Source position of the name.
        pos: Pos,
    },
    /// `[output] NAME = im(x, y) EXPR end` — a compute stage.
    Stage {
        /// Stage name.
        name: &'src str,
        /// Whether the stage is marked `output`.
        output: bool,
        /// Name bound to the horizontal coordinate (usually `x`).
        x_var: &'src str,
        /// Name bound to the vertical coordinate (usually `y`).
        y_var: &'src str,
        /// The stage body.
        body: AstExpr<'src>,
        /// Rate modifier (`downsample`/`upsample`), if any.
        rate: AstRate,
        /// Source position of the name.
        pos: Pos,
    },
}

/// Expression AST (taps still refer to producers by name).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum AstExpr<'src> {
    /// Integer literal.
    Number(i64),
    /// `NAME(x+dx, y+dy)` — stencil tap into a named producer.
    Tap {
        /// Producer stage name.
        stage: &'src str,
        /// Horizontal offset.
        dx: i32,
        /// Vertical offset.
        dy: i32,
        /// Source position.
        pos: Pos,
    },
    /// Unary negation.
    Neg(Box<AstExpr<'src>>),
    /// Built-in call: `abs(e)`, `min(a,b)`, `max(a,b)`,
    /// `clamp(v,lo,hi)`, `select(c,a,b)`.
    Call {
        /// Function name.
        func: &'src str,
        /// Arguments.
        args: Vec<AstExpr<'src>>,
        /// Source position.
        pos: Pos,
    },
    /// Binary operator by mnemonic: `+ - * / << >> < <= > >= == !=`.
    Bin {
        /// Operator mnemonic.
        op: &'static str,
        /// Left operand.
        lhs: Box<AstExpr<'src>>,
        /// Right operand.
        rhs: Box<AstExpr<'src>>,
    },
}

impl<'src> AstExpr<'src> {
    /// Constant-folds the expression, returning `Some(v)` when it contains
    /// no taps and every operator is a known built-in. The arithmetic
    /// mirrors `imagen-ir`'s `Expr::eval` semantics exactly (wrapping
    /// `i64` ops, division by zero yielding zero, Verilog shift rules,
    /// `clamp` with `lo > hi` pinning to `lo`), so a folded value is the
    /// value the lowered kernel would compute.
    pub fn const_value(&self) -> Option<i64> {
        self.fold(&mut Vec::new(), &mut |_| {})
    }

    /// Calls `f` with the value of each *maximal* constant subtree that
    /// is not a bare literal, in source order, without descending into
    /// it: the subtrees a constant fold would replace. One bottom-up
    /// walk; each value is the subtree's [`AstExpr::const_value`].
    pub fn for_each_maximal_const(&self, f: &mut impl FnMut(i64)) {
        let mut pending = Vec::new();
        self.fold(&mut pending, f);
        pending.into_iter().flatten().for_each(f);
    }

    /// Folds bottom-up, returning the expression's constant value.
    /// `pending` holds the finished constant subtrees (`None` for a bare
    /// literal) whose parent is still being folded; all of them have
    /// unfinished ancestors only, so once any subtree proves
    /// non-constant every pending one is maximal and is reported, in the
    /// order it finished.
    fn fold(&self, pending: &mut Vec<Option<i64>>, f: &mut impl FnMut(i64)) -> Option<i64> {
        let mark = pending.len();
        let value = match self {
            AstExpr::Number(n) => Some(*n),
            AstExpr::Tap { .. } => None,
            AstExpr::Neg(e) => e.fold(pending, f).map(i64::wrapping_neg),
            AstExpr::Call { func, args, .. } => {
                let mut vals = [0; 3];
                let mut constant = args.len() <= vals.len();
                for (i, a) in args.iter().enumerate() {
                    match (a.fold(pending, f), vals.get_mut(i)) {
                        (Some(v), Some(slot)) => *slot = v,
                        _ => constant = false,
                    }
                }
                if constant {
                    call_value(func, &vals[..args.len()])
                } else {
                    None
                }
            }
            AstExpr::Bin { op, lhs, rhs } => match (lhs.fold(pending, f), rhs.fold(pending, f)) {
                (Some(a), Some(b)) => bin_value(op, a, b),
                _ => None,
            },
        };
        match value {
            Some(v) => {
                pending.truncate(mark);
                pending.push((!matches!(self, AstExpr::Number(_))).then_some(v));
            }
            None => pending.drain(..).flatten().for_each(&mut *f),
        }
        value
    }

    /// Visits tap nodes in evaluation order.
    pub fn for_each_tap(&self, f: &mut impl FnMut(&'src str, i32, i32, Pos)) {
        match self {
            AstExpr::Number(_) => {}
            AstExpr::Tap { stage, dx, dy, pos } => f(stage, *dx, *dy, *pos),
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

    /// The distinct producers the expression taps, in order of first
    /// appearance (the lowered stage's slot order), each with the
    /// position of its first tap.
    pub fn producers(&self) -> Vec<(&'src str, Pos)> {
        let mut seen = FirstSeen::default();
        let mut out = Vec::new();
        self.for_each_tap(&mut |stage, _, _, pos| {
            if seen.number(stage).1 {
                out.push((stage, pos));
            }
        });
        out
    }
}

/// Value of a built-in call on constant arguments.
fn call_value(func: &str, vals: &[i64]) -> Option<i64> {
    match (func, vals) {
        ("abs", [v]) => Some(v.wrapping_abs()),
        ("min", [a, b]) => Some(*a.min(b)),
        ("max", [a, b]) => Some(*a.max(b)),
        ("clamp", [v, lo, hi]) => Some(if lo > hi { *lo } else { *v.clamp(lo, hi) }),
        ("select", [c, t, e]) => Some(if *c != 0 { *t } else { *e }),
        _ => None,
    }
}

/// Value of a binary operator on constant operands.
fn bin_value(op: &str, a: i64, b: i64) -> Option<i64> {
    match op {
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

/// Numbers distinct names in order of first appearance. A stage body
/// taps a handful of producers, so a scan finds a name faster than a
/// hash; past [`SCAN_LIMIT`] names a map takes over, so a body tapping
/// thousands of producers still costs linear time.
#[derive(Default)]
pub(crate) struct FirstSeen<'src> {
    names: Vec<&'src str>,
    index: Option<HashMap<&'src str, usize>>,
}

/// Most names [`FirstSeen`] scans before it builds its map.
const SCAN_LIMIT: usize = 8;

impl<'src> FirstSeen<'src> {
    /// `name`'s number, and whether this is its first appearance.
    pub(crate) fn number(&mut self, name: &'src str) -> (usize, bool) {
        let found = match &self.index {
            None => self.names.iter().position(|n| *n == name),
            Some(index) => index.get(name).copied(),
        };
        if let Some(i) = found {
            return (i, false);
        }
        let i = self.names.len();
        self.names.push(name);
        match &mut self.index {
            Some(index) => {
                index.insert(name, i);
            }
            None if self.names.len() > SCAN_LIMIT => {
                self.index = Some(
                    self.names
                        .iter()
                        .enumerate()
                        .map(|(i, n)| (*n, i))
                        .collect(),
                );
            }
            None => {}
        }
        (i, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn num(n: i64) -> AstExpr<'static> {
        AstExpr::Number(n)
    }

    fn bin(op: &'static str, a: AstExpr<'static>, b: AstExpr<'static>) -> AstExpr<'static> {
        AstExpr::Bin {
            op,
            lhs: Box::new(a),
            rhs: Box::new(b),
        }
    }

    fn call(func: &'static str, args: Vec<AstExpr<'static>>) -> AstExpr<'static> {
        AstExpr::Call {
            func,
            args,
            pos: Pos { line: 1, col: 1 },
        }
    }

    #[test]
    fn const_value_folds_arithmetic() {
        assert_eq!(
            bin("+", num(2), bin("*", num(3), num(4))).const_value(),
            Some(14)
        );
        assert_eq!(AstExpr::Neg(Box::new(num(5))).const_value(), Some(-5));
        assert_eq!(bin("<", num(1), num(2)).const_value(), Some(1));
        assert_eq!(
            call("clamp", vec![num(300), num(0), num(255)]).const_value(),
            Some(255)
        );
        assert_eq!(
            call("select", vec![num(0), num(7), num(9)]).const_value(),
            Some(9)
        );
    }

    #[test]
    fn const_value_matches_eval_edge_semantics() {
        // Division by zero, out-of-range shifts, and inverted clamp bounds
        // follow the kernel evaluator, not plain Rust arithmetic.
        assert_eq!(bin("/", num(7), num(0)).const_value(), Some(0));
        assert_eq!(bin("<<", num(1024), num(64)).const_value(), Some(0));
        assert_eq!(bin(">>", num(-1024), num(-1)).const_value(), Some(-1));
        assert_eq!(
            call("clamp", vec![num(5), num(9), num(2)]).const_value(),
            Some(9)
        );
    }

    #[test]
    fn const_value_stops_at_taps() {
        let tap = AstExpr::Tap {
            stage: "a",
            dx: 0,
            dy: 0,
            pos: Pos { line: 1, col: 1 },
        };
        assert_eq!(tap.const_value(), None);
        assert_eq!(bin("+", num(1), tap).const_value(), None);
    }
}
