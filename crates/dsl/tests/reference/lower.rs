//! Lowering from the DSL AST to the `imagen-ir` DAG.

use super::ast::{AstExpr, AstRate, Item, Program};
use super::token::Pos;
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
pub fn lower(name: &str, program: &Program) -> Result<Dag, LowerError> {
    let _s = imagen_obs::span("frontend.lower");
    let mut dag = Dag::new(name);
    let mut by_name: HashMap<String, StageId> = HashMap::new();

    for item in &program.items {
        match item {
            Item::Input { name, pos } => {
                if by_name.contains_key(name) {
                    return Err(LowerError::Redefinition {
                        name: name.clone(),
                        pos: *pos,
                    });
                }
                let id = dag.add_input(name.clone());
                by_name.insert(name.clone(), id);
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
                        name: name.clone(),
                        pos: *pos,
                    });
                }
                // Assign slots by first appearance.
                let mut producers: Vec<StageId> = Vec::new();
                let mut slot_of: HashMap<&str, usize> = HashMap::new();
                let mut missing: Option<LowerError> = None;
                body.for_each_tap(&mut |stage, _, _| {
                    if missing.is_some() || slot_of.contains_key(stage) {
                        return;
                    }
                    match by_name.get(stage) {
                        Some(id) => {
                            slot_of.insert(stage, producers.len());
                            producers.push(*id);
                        }
                        None => {
                            missing = Some(LowerError::UnknownStage {
                                name: stage.to_string(),
                                pos: *pos,
                            });
                        }
                    }
                });
                if let Some(e) = missing {
                    return Err(e);
                }
                let kernel = lower_expr(body, &slot_of);
                let id = dag.add_stage_rated(name.clone(), &producers, kernel, lower_rate(rate))?;
                if *output {
                    dag.mark_output(id);
                }
                by_name.insert(name.clone(), id);
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

fn lower_expr(e: &AstExpr, slot_of: &HashMap<&str, usize>) -> Expr {
    match e {
        AstExpr::Number(n) => Expr::Const(*n),
        AstExpr::Tap { stage, dx, dy, .. } => Expr::tap(slot_of[stage.as_str()], *dx, *dy),
        // A negated literal is a constant, not a negation unit: folding
        // here makes `-3` and a programmatic `Expr::Const(-3)` identical
        // IR (and `to_dsl` → `compile` round-trips bit-exact). The lexer
        // caps literals at i64::MAX, so the negation cannot overflow.
        AstExpr::Neg(inner) if matches!(**inner, AstExpr::Number(_)) => {
            let AstExpr::Number(n) = **inner else {
                unreachable!()
            };
            Expr::Const(-n)
        }
        AstExpr::Neg(inner) => Expr::Neg(Box::new(lower_expr(inner, slot_of))),
        AstExpr::Call { func, args, .. } => {
            let mut a: Vec<Expr> = args.iter().map(|x| lower_expr(x, slot_of)).collect();
            match func.as_str() {
                "abs" => Expr::Abs(Box::new(a.remove(0))),
                "min" => {
                    let y = a.pop().expect("arity checked");
                    let x = a.pop().expect("arity checked");
                    Expr::bin(BinOp::Min, x, y)
                }
                "max" => {
                    let y = a.pop().expect("arity checked");
                    let x = a.pop().expect("arity checked");
                    Expr::bin(BinOp::Max, x, y)
                }
                "clamp" => {
                    let hi = a.pop().expect("arity checked");
                    let lo = a.pop().expect("arity checked");
                    let v = a.pop().expect("arity checked");
                    Expr::Clamp {
                        value: Box::new(v),
                        lo: Box::new(lo),
                        hi: Box::new(hi),
                    }
                }
                "select" => {
                    let otherwise = a.pop().expect("arity checked");
                    let then = a.pop().expect("arity checked");
                    let cond = a.pop().expect("arity checked");
                    Expr::select(cond, then, otherwise)
                }
                other => unreachable!("parser admits only known functions, got {other}"),
            }
        }
        AstExpr::Bin { op, lhs, rhs } => {
            let l = lower_expr(lhs, slot_of);
            let r = lower_expr(rhs, slot_of);
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
    }
}
