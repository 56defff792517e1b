//! Lowering from the DSL AST to the `imagen-ir` DAG.

use crate::ast::{AstExpr, AstRate, FirstSeen, Item, Program};
use crate::token::Pos;
use imagen_ir::{BinOp, CmpOp, Dag, Expr, IrError, Rate, StageId};
use std::collections::HashMap;
use std::fmt;

/// Errors raised while lowering a parsed program to IR.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum LowerError {
    /// A tap referenced a stage that has not been defined (yet).
    UnknownStage {
        /// Name referenced.
        name: String,
        /// Where.
        pos: Pos,
    },
    /// A stage name was defined twice.
    Redefinition {
        /// The repeated name.
        name: String,
        /// Where.
        pos: Pos,
    },
    /// Structural IR error (propagated from DAG construction).
    Ir(IrError),
}

impl LowerError {
    /// Source position of the error, when one is known (structural IR
    /// errors carry stage names instead of spans).
    pub fn pos(&self) -> Option<Pos> {
        match self {
            LowerError::UnknownStage { pos, .. } | LowerError::Redefinition { pos, .. } => {
                Some(*pos)
            }
            LowerError::Ir(_) => None,
        }
    }
}

impl fmt::Display for LowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LowerError::UnknownStage { name, pos } => {
                write!(f, "stage `{name}` is not defined at {pos}")
            }
            LowerError::Redefinition { name, pos } => {
                write!(f, "stage `{name}` is defined twice at {pos}")
            }
            LowerError::Ir(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for LowerError {}

impl From<IrError> for LowerError {
    fn from(e: IrError) -> Self {
        LowerError::Ir(e)
    }
}

/// Lowers a parsed [`Program`] into a validated [`Dag`].
///
/// Producer slots are assigned in order of first tap appearance, matching
/// the textual order of the program.
///
/// # Errors
///
/// [`LowerError`] on name-resolution failures or structural violations.
pub fn lower(name: &str, program: &Program<'_>) -> Result<Dag, LowerError> {
    let _s = imagen_obs::span("frontend.lower");
    let mut dag = Dag::new(name);
    let mut by_name: HashMap<&str, StageId> = HashMap::with_capacity(program.items.len());

    for item in &program.items {
        match item {
            Item::Input { name, pos } => {
                if by_name.contains_key(name) {
                    return Err(LowerError::Redefinition {
                        name: name.to_string(),
                        pos: *pos,
                    });
                }
                let id = dag.add_input(*name);
                by_name.insert(name, id);
            }
            Item::Stage {
                name,
                output,
                body,
                rate,
                pos,
                ..
            } => {
                if by_name.contains_key(name) {
                    return Err(LowerError::Redefinition {
                        name: name.to_string(),
                        pos: *pos,
                    });
                }
                let mut slots = Slots {
                    by_name: &by_name,
                    seen: FirstSeen::default(),
                    producers: Vec::new(),
                    pos: *pos,
                };
                let kernel = slots.lower(body)?;
                let id = dag.add_stage_rated(*name, &slots.producers, kernel, lower_rate(rate))?;
                if *output {
                    dag.mark_output(id);
                }
                by_name.insert(name, id);
            }
        }
    }
    dag.validate()?;
    Ok(dag)
}

/// Maps the surface rate modifier to the IR [`Rate`]. The parser caps
/// factors at `MAX_RATE_FACTOR`, which fits `u32`; a programmatically
/// built AST with larger factors saturates to `u32::MAX`, which the IR
/// constructor then rejects as out of range (error, never truncation).
fn lower_rate(rate: &AstRate) -> Rate {
    let f = |v: i64| u32::try_from(v).unwrap_or(u32::MAX);
    match *rate {
        AstRate::Unit => Rate::Unit,
        AstRate::Down { fx, fy, .. } => Rate::Down {
            fx: f(fx),
            fy: f(fy),
        },
        AstRate::Up { fx, fy, .. } => Rate::Up {
            fx: f(fx),
            fy: f(fy),
        },
    }
}

/// One stage body's producers: each distinct tapped name is resolved
/// once, at its first tap, and takes the next slot.
struct Slots<'a, 'src> {
    by_name: &'a HashMap<&'src str, StageId>,
    seen: FirstSeen<'src>,
    producers: Vec<StageId>,
    /// The stage's position, where an unknown producer is reported.
    pos: Pos,
}

impl<'src> Slots<'_, 'src> {
    fn slot(&mut self, stage: &'src str) -> Result<usize, LowerError> {
        let (slot, first) = self.seen.number(stage);
        if first {
            match self.by_name.get(stage) {
                Some(&id) => self.producers.push(id),
                None => {
                    return Err(LowerError::UnknownStage {
                        name: stage.to_string(),
                        pos: self.pos,
                    })
                }
            }
        }
        Ok(slot)
    }

    /// Lowers `e`, visiting taps in evaluation order.
    fn lower(&mut self, e: &AstExpr<'src>) -> Result<Expr, LowerError> {
        Ok(match e {
            AstExpr::Number(n) => Expr::Const(*n),
            AstExpr::Tap { stage, dx, dy, .. } => Expr::tap(self.slot(stage)?, *dx, *dy),
            // A negated literal is a constant, not a negation unit: folding
            // here makes `-3` and a programmatic `Expr::Const(-3)` identical
            // IR (and `to_dsl` → `compile` round-trips bit-exact). The lexer
            // caps literals at i64::MAX, so the negation cannot overflow.
            AstExpr::Neg(inner) => match **inner {
                AstExpr::Number(n) => Expr::Const(-n),
                _ => Expr::Neg(Box::new(self.lower(inner)?)),
            },
            AstExpr::Call { func, args, .. } => match (*func, args.as_slice()) {
                ("abs", [v]) => Expr::Abs(Box::new(self.lower(v)?)),
                ("min", [a, b]) => Expr::bin(BinOp::Min, self.lower(a)?, self.lower(b)?),
                ("max", [a, b]) => Expr::bin(BinOp::Max, self.lower(a)?, self.lower(b)?),
                ("clamp", [v, lo, hi]) => Expr::Clamp {
                    value: Box::new(self.lower(v)?),
                    lo: Box::new(self.lower(lo)?),
                    hi: Box::new(self.lower(hi)?),
                },
                ("select", [c, t, o]) => {
                    Expr::select(self.lower(c)?, self.lower(t)?, self.lower(o)?)
                }
                (other, args) => unreachable!(
                    "parser admits only known functions at their arity, got {other} of {}",
                    args.len()
                ),
            },
            AstExpr::Bin { op, lhs, rhs } => {
                let l = self.lower(lhs)?;
                let r = self.lower(rhs)?;
                match *op {
                    "+" => Expr::bin(BinOp::Add, l, r),
                    "-" => Expr::bin(BinOp::Sub, l, r),
                    "*" => Expr::bin(BinOp::Mul, l, r),
                    "/" => Expr::bin(BinOp::Div, l, r),
                    "<<" => Expr::bin(BinOp::Shl, l, r),
                    ">>" => Expr::bin(BinOp::Shr, l, r),
                    "<" => Expr::cmp(CmpOp::Lt, l, r),
                    "<=" => Expr::cmp(CmpOp::Le, l, r),
                    ">" => Expr::cmp(CmpOp::Gt, l, r),
                    ">=" => Expr::cmp(CmpOp::Ge, l, r),
                    "==" => Expr::cmp(CmpOp::Eq, l, r),
                    "!=" => Expr::cmp(CmpOp::Ne, l, r),
                    other => unreachable!("parser admits only known operators, got {other}"),
                }
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn compile(src: &str) -> Result<Dag, LowerError> {
        let p = parse_program(src).expect("parse");
        lower("test", &p)
    }

    #[test]
    fn paper_listing_compiles() {
        let dag = compile(
            "input K0;
             K1 = im(x,y) K0(x-1,y-1)+K0(x,y)+K0(x+1,y+1) end
             output K2 = im(x,y) K0(x,y)+K0(x+1,y+1)+K1(x-1,y-1)+K1(x+1,y+1) end",
        )
        .unwrap();
        assert_eq!(dag.num_stages(), 3);
        assert_eq!(dag.multi_consumer_stages().len(), 1);
        // K2 reads K0 (slot 0) over 2x2 and K1 (slot 1) over 3x3.
        let k2 = dag.stage_ids().nth(2).unwrap();
        let heights: Vec<u32> = dag
            .producer_edges(k2)
            .map(|(_, e)| e.window().height)
            .collect();
        assert_eq!(heights, vec![2, 3]);
    }

    #[test]
    fn unknown_stage_reported() {
        let err = compile("input A; output B = im(x,y) C(x,y) end").unwrap_err();
        assert!(matches!(err, LowerError::UnknownStage { name, .. } if name == "C"));
    }

    #[test]
    fn forward_reference_rejected() {
        let err = compile(
            "input A;
             B = im(x,y) C(x,y) end
             output C = im(x,y) A(x,y) + B(x,y) end",
        )
        .unwrap_err();
        assert!(matches!(err, LowerError::UnknownStage { .. }));
    }

    #[test]
    fn redefinition_rejected() {
        let err = compile(
            "input A;
             A = im(x,y) A(x,y) end",
        )
        .unwrap_err();
        assert!(matches!(err, LowerError::Redefinition { .. }));
    }

    #[test]
    fn dead_stage_rejected() {
        let err = compile(
            "input A;
             B = im(x,y) A(x,y) end
             output C = im(x,y) A(x,y) end",
        )
        .unwrap_err();
        assert!(matches!(err, LowerError::Ir(IrError::DeadStage { .. })));
    }

    #[test]
    fn builtins_lower() {
        let dag = compile(
            "input A;
             output B = im(x,y) clamp(select(A(x,y) > 8, abs(A(x-1,y)), min(A(x,y), 3)), 0, 255) end",
        )
        .unwrap();
        let b = dag.stage_ids().nth(1).unwrap();
        let kernel = dag.stage(b).kernel().unwrap();
        let census = kernel.op_census();
        assert!(census.cmps >= 1);
        assert!(census.muxes >= 1);
    }

    #[test]
    fn slots_in_first_appearance_order() {
        let dag = compile(
            "input A;
             B = im(x,y) A(x,y) end
             output C = im(x,y) B(x,y) + A(x,y) end",
        )
        .unwrap();
        let c = dag.stage_ids().nth(2).unwrap();
        // Slot 0 must be B (first tap), slot 1 A.
        let producers = dag.stage(c).producers();
        assert_eq!(dag.stage(producers[0]).name(), "B");
        assert_eq!(dag.stage(producers[1]).name(), "A");
    }
}
