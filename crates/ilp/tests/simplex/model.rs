//! Optimization model builder: variables, linear expressions, constraints.

use super::Rational;
use std::fmt;
use std::ops::{Add, Mul, Neg, Sub};

/// Handle to a decision variable in a [`Model`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct VarId(pub(crate) usize);

impl VarId {
    /// Index of the variable within its model.
    pub fn index(&self) -> usize {
        self.0
    }
}

/// Comparison operator of a linear constraint.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Cmp {
    /// `expr <= rhs`
    Le,
    /// `expr >= rhs`
    Ge,
    /// `expr == rhs`
    Eq,
}

impl fmt::Display for Cmp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Cmp::Le => "<=",
            Cmp::Ge => ">=",
            Cmp::Eq => "==",
        };
        f.write_str(s)
    }
}

/// Optimization direction.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum Sense {
    /// Minimize the objective (default).
    #[default]
    Minimize,
    /// Maximize the objective.
    Maximize,
}

/// A linear expression `sum(coeff_i * var_i) + constant`, built with
/// operator overloading: `LinExpr::from(x) * 3 - LinExpr::from(y) + 7`.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct LinExpr {
    terms: Vec<(VarId, Rational)>,
    constant: Rational,
}

impl LinExpr {
    /// The empty (zero) expression.
    pub fn zero() -> LinExpr {
        LinExpr::default()
    }

    /// A single variable with coefficient one.
    pub fn var(v: VarId) -> LinExpr {
        LinExpr {
            terms: vec![(v, Rational::ONE)],
            constant: Rational::ZERO,
        }
    }

    /// Adds `coeff * var` to the expression.
    pub fn add_term(&mut self, v: VarId, coeff: impl Into<Rational>) -> &mut LinExpr {
        let coeff = coeff.into();
        if let Some(slot) = self.terms.iter_mut().find(|(tv, _)| *tv == v) {
            slot.1 += coeff;
        } else {
            self.terms.push((v, coeff));
        }
        self
    }

    /// Coefficient of `v` (zero if absent).
    pub fn coeff(&self, v: VarId) -> Rational {
        self.terms
            .iter()
            .find(|(tv, _)| *tv == v)
            .map(|(_, c)| *c)
            .unwrap_or(Rational::ZERO)
    }

    /// The constant term.
    pub fn constant(&self) -> Rational {
        self.constant
    }

    /// Iterates over `(variable, coefficient)` pairs with nonzero coefficients.
    pub fn iter(&self) -> impl Iterator<Item = (VarId, Rational)> + '_ {
        self.terms.iter().filter(|(_, c)| !c.is_zero()).copied()
    }

    /// Evaluates the expression under an assignment (indexed by variable).
    pub fn eval(&self, assignment: &[Rational]) -> Rational {
        let mut acc = self.constant;
        for (v, c) in self.iter() {
            acc += *assignment
                .get(v.0)
                .expect("assignment shorter than variable count")
                * c;
        }
        acc
    }
}

impl From<VarId> for LinExpr {
    fn from(v: VarId) -> Self {
        LinExpr::var(v)
    }
}

impl Add for LinExpr {
    type Output = LinExpr;
    fn add(mut self, rhs: LinExpr) -> LinExpr {
        for (v, c) in rhs.terms {
            self.add_term(v, c);
        }
        self.constant += rhs.constant;
        self
    }
}

impl Sub for LinExpr {
    type Output = LinExpr;
    fn sub(self, rhs: LinExpr) -> LinExpr {
        self + (-rhs)
    }
}

impl Neg for LinExpr {
    type Output = LinExpr;
    fn neg(mut self) -> LinExpr {
        for t in &mut self.terms {
            t.1 = -t.1;
        }
        self.constant = -self.constant;
        self
    }
}

impl Add<i64> for LinExpr {
    type Output = LinExpr;
    fn add(mut self, rhs: i64) -> LinExpr {
        self.constant += Rational::from(rhs);
        self
    }
}

impl Sub<i64> for LinExpr {
    type Output = LinExpr;
    fn sub(mut self, rhs: i64) -> LinExpr {
        self.constant -= Rational::from(rhs);
        self
    }
}

impl Mul<i64> for LinExpr {
    type Output = LinExpr;
    fn mul(mut self, rhs: i64) -> LinExpr {
        let r = Rational::from(rhs);
        for t in &mut self.terms {
            t.1 = t.1 * r;
        }
        self.constant = self.constant * r;
        self
    }
}

/// Variable metadata.
#[derive(Clone, Debug)]
pub(crate) struct VarDef {
    pub name: String,
    pub integer: bool,
    /// Lower bound (all ImaGen variables are nonnegative by default).
    pub lower: Rational,
    /// Optional upper bound.
    pub upper: Option<Rational>,
}

/// A linear constraint `expr cmp rhs` stored in normalized form
/// (constant folded into the right-hand side).
#[derive(Clone, Debug)]
pub struct Constraint {
    pub(crate) expr: LinExpr,
    pub(crate) cmp: Cmp,
    pub(crate) rhs: Rational,
    pub(crate) label: String,
}

impl Constraint {
    /// Checks the constraint under an assignment.
    pub fn is_satisfied(&self, assignment: &[Rational]) -> bool {
        let lhs = self.expr.eval(assignment);
        match self.cmp {
            Cmp::Le => lhs <= self.rhs,
            Cmp::Ge => lhs >= self.rhs,
            Cmp::Eq => lhs == self.rhs,
        }
    }
}

/// A mixed-integer linear optimization model.
///
/// All variables are nonnegative by default (matching the ImaGen
/// formulation where start cycles are nonnegative integers); bounds can be
/// adjusted per variable.
#[derive(Clone, Debug)]
pub struct Model {
    name: String,
    pub(crate) vars: Vec<VarDef>,
    pub(crate) constraints: Vec<Constraint>,
    pub(crate) sense: Sense,
    pub(crate) objective: LinExpr,
}

impl Model {
    /// Creates an empty model.
    pub fn new(name: impl Into<String>) -> Model {
        Model {
            name: name.into(),
            vars: Vec::new(),
            constraints: Vec::new(),
            sense: Sense::Minimize,
            objective: LinExpr::zero(),
        }
    }

    /// Adds a continuous variable with bounds `[0, +inf)`.
    pub fn add_var(&mut self, name: impl Into<String>) -> VarId {
        self.vars.push(VarDef {
            name: name.into(),
            integer: false,
            lower: Rational::ZERO,
            upper: None,
        });
        VarId(self.vars.len() - 1)
    }

    /// Adds an integer variable with bounds `[0, +inf)`.
    pub fn add_int_var(&mut self, name: impl Into<String>) -> VarId {
        let v = self.add_var(name);
        self.vars[v.0].integer = true;
        v
    }

    /// Sets variable bounds. `upper = None` means unbounded above.
    ///
    /// # Panics
    ///
    /// Panics if `lower > upper`.
    #[track_caller]
    pub fn set_bounds(&mut self, v: VarId, lower: i64, upper: Option<i64>) {
        if let Some(u) = upper {
            assert!(lower <= u, "lower bound exceeds upper bound");
        }
        self.vars[v.0].lower = Rational::from(lower);
        self.vars[v.0].upper = upper.map(Rational::from);
    }

    /// Adds the linear constraint `expr cmp rhs`.
    pub fn add_constraint(
        &mut self,
        expr: LinExpr,
        cmp: Cmp,
        rhs: impl Into<Rational>,
        label: impl Into<String>,
    ) {
        let mut expr = expr;
        let rhs = rhs.into() - expr.constant();
        expr.constant = Rational::ZERO;
        self.constraints.push(Constraint {
            expr,
            cmp,
            rhs,
            label: label.into(),
        });
    }

    /// Convenience: adds the difference constraint `a - b >= c`.
    pub fn add_diff_ge(&mut self, a: VarId, b: VarId, c: i64, label: impl Into<String>) {
        let expr = LinExpr::var(a) - LinExpr::var(b);
        self.add_constraint(expr, Cmp::Ge, c, label);
    }

    /// Sets the objective.
    pub fn set_objective(&mut self, sense: Sense, expr: LinExpr) {
        self.sense = sense;
        self.objective = expr;
    }

    /// Returns the constraints (for inspection and diagnostics).
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Checks a full assignment against bounds and all constraints.
    pub fn is_feasible(&self, assignment: &[Rational]) -> bool {
        if assignment.len() != self.vars.len() {
            return false;
        }
        for (i, def) in self.vars.iter().enumerate() {
            if assignment[i] < def.lower {
                return false;
            }
            if let Some(u) = def.upper {
                if assignment[i] > u {
                    return false;
                }
            }
            if def.integer && !assignment[i].is_integer() {
                return false;
            }
        }
        self.constraints.iter().all(|c| c.is_satisfied(assignment))
    }

    /// Writes the model in a human-readable LP-like format (diagnostics).
    pub fn to_lp_string(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(s, "\\ model {}", self.name);
        let dir = match self.sense {
            Sense::Minimize => "Minimize",
            Sense::Maximize => "Maximize",
        };
        let _ = writeln!(s, "{dir}");
        let _ = writeln!(s, "  obj: {}", self.expr_string(&self.objective));
        let _ = writeln!(s, "Subject To");
        for c in &self.constraints {
            let _ = writeln!(
                s,
                "  {}: {} {} {}",
                c.label,
                self.expr_string(&c.expr),
                c.cmp,
                c.rhs
            );
        }
        let _ = writeln!(s, "Bounds");
        for (i, v) in self.vars.iter().enumerate() {
            let up = v
                .upper
                .map(|u| u.to_string())
                .unwrap_or_else(|| "+inf".to_string());
            let _ = writeln!(s, "  {} <= {} <= {}", v.lower, self.vars[i].name, up);
        }
        let ints: Vec<&str> = self
            .vars
            .iter()
            .filter(|v| v.integer)
            .map(|v| v.name.as_str())
            .collect();
        if !ints.is_empty() {
            let _ = writeln!(s, "General\n  {}", ints.join(" "));
        }
        let _ = writeln!(s, "End");
        s
    }

    fn expr_string(&self, e: &LinExpr) -> String {
        let mut parts = Vec::new();
        for (v, c) in e.iter() {
            parts.push(format!("{} {}", c, self.vars[v.0].name));
        }
        if !e.constant().is_zero() || parts.is_empty() {
            parts.push(e.constant().to_string());
        }
        parts.join(" + ")
    }
}
