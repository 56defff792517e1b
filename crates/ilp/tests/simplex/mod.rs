//! The exact rational simplex: a test-only oracle for the network simplex.
//!
//! `imagen_ilp` ships one LP solver, [`DiffSystem::minimize`], an integer
//! network simplex on the min-cost-flow dual of a difference LP. This
//! module keeps the general machinery it replaced, as an independent
//! reference: a
//! mixed-integer [`Model`] builder with [`LinExpr`] expressions, exact
//! [`Rational`] arithmetic on `i128`, and a two-phase primal simplex
//! ([`Model::solve_lp`]). [`to_model`] states a [`DiffSystem`] LP as a
//! [`Model`].
//!
//! The oracle solves LP relaxations only. Difference LPs are totally
//! unimodular, so the simplex vertex of one is already integral, and
//! [`Solution::int_value`] asserts that it is.
//!
//! The solver is deliberately straightforward (dense tableau, Bland's rule)
//! because the ImaGen scheduling problems are small — tens of variables,
//! hundreds of constraints — and exactness matters more than raw speed.
//! Bland's rule guarantees termination in the presence of degeneracy.

mod model;
mod rational;

pub use model::{Cmp, LinExpr, Model, Sense, VarId};
pub use rational::Rational;

use imagen_ilp::DiffSystem;
use std::fmt;

/// Errors produced by the simplex.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SolveError {
    /// The constraint system has no feasible point.
    Infeasible,
    /// The objective is unbounded in the optimization direction.
    Unbounded,
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::Infeasible => write!(f, "model is infeasible"),
            SolveError::Unbounded => write!(f, "objective is unbounded"),
        }
    }
}

impl std::error::Error for SolveError {}

/// An optimal assignment returned by the simplex.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Solution {
    pub(crate) values: Vec<Rational>,
    pub(crate) objective: Rational,
}

impl Solution {
    /// Value of a variable.
    pub fn value(&self, v: VarId) -> Rational {
        self.values[v.index()]
    }

    /// Integer value of a variable.
    ///
    /// # Panics
    ///
    /// Panics if the value is not integral (cannot happen at a vertex of a
    /// difference LP, which is totally unimodular) or does not fit in an
    /// `i64` — a silent wrapping cast here would hand the comparison
    /// garbage start cycles.
    #[track_caller]
    pub fn int_value(&self, v: VarId) -> i64 {
        let value = self.values[v.index()]
            .to_integer()
            .expect("variable value is not integral");
        i64::try_from(value)
            .unwrap_or_else(|_| panic!("variable value {value} does not fit in an i64"))
    }

    /// The optimal objective value.
    pub fn objective_value(&self) -> Rational {
        self.objective
    }
}

/// Dense simplex tableau in canonical form (basis columns are identity).
struct Tableau {
    /// `m x n_total` coefficient rows.
    rows: Vec<Vec<Rational>>,
    /// Right-hand sides (always nonnegative in canonical form).
    rhs: Vec<Rational>,
    /// Basic variable (column index) of each row.
    basis: Vec<usize>,
    /// Reduced-cost row.
    obj: Vec<Rational>,
    /// Current objective value `c_B * x_B`.
    obj_val: Rational,
    /// Number of structural columns (shifted original variables).
    n_struct: usize,
    /// First artificial column index (columns >= this are artificial).
    art_start: usize,
}

enum RunOutcome {
    Optimal,
    Unbounded,
}

impl Tableau {
    fn pivot(&mut self, r: usize, c: usize) {
        let piv = self.rows[r][c];
        debug_assert!(!piv.is_zero());
        let inv = piv.recip();
        for x in self.rows[r].iter_mut() {
            if !x.is_zero() {
                *x = *x * inv;
            }
        }
        self.rhs[r] = self.rhs[r] * inv;
        let m = self.rows.len();
        for i in 0..m {
            if i == r {
                continue;
            }
            let f = self.rows[i][c];
            if f.is_zero() {
                continue;
            }
            for j in 0..self.rows[i].len() {
                if self.rows[r][j].is_zero() {
                    continue;
                }
                let delta = self.rows[r][j] * f;
                self.rows[i][j] -= delta;
            }
            let d = self.rhs[r] * f;
            self.rhs[i] -= d;
        }
        let f = self.obj[c];
        if !f.is_zero() {
            for j in 0..self.obj.len() {
                if self.rows[r][j].is_zero() {
                    continue;
                }
                let delta = self.rows[r][j] * f;
                self.obj[j] -= delta;
            }
            // Entering variable takes value rhs[r] (already normalized), so
            // the objective moves by its reduced cost times that amount.
            let d = self.rhs[r] * f;
            self.obj_val += d;
        }
        self.basis[r] = c;
    }

    /// Rebuilds the reduced-cost row for cost vector `costs` given the basis.
    fn canonicalize_objective(&mut self, costs: &[Rational]) {
        self.obj = costs.to_vec();
        self.obj_val = Rational::ZERO;
        for (i, &b) in self.basis.iter().enumerate() {
            let cb = costs[b];
            if cb.is_zero() {
                continue;
            }
            for j in 0..self.obj.len() {
                if self.rows[i][j].is_zero() {
                    continue;
                }
                let delta = self.rows[i][j] * cb;
                self.obj[j] -= delta;
            }
            self.obj_val += self.rhs[i] * cb;
        }
    }

    /// Runs simplex iterations with Bland's rule until optimal or unbounded.
    /// `allowed` limits the entering columns (used to freeze artificials).
    fn run(&mut self, allowed: usize) -> RunOutcome {
        loop {
            // Bland: entering column = smallest index with negative reduced cost.
            let mut entering = None;
            for j in 0..allowed {
                if self.obj[j].is_negative() {
                    entering = Some(j);
                    break;
                }
            }
            let Some(c) = entering else {
                return RunOutcome::Optimal;
            };
            // Ratio test; Bland tie-break on smallest basic variable index.
            let mut leave: Option<(usize, Rational)> = None;
            for i in 0..self.rows.len() {
                let a = self.rows[i][c];
                if a.is_positive() {
                    let ratio = self.rhs[i] / a;
                    match &leave {
                        None => leave = Some((i, ratio)),
                        Some((li, lr)) => {
                            if ratio < *lr || (ratio == *lr && self.basis[i] < self.basis[*li]) {
                                leave = Some((i, ratio));
                            }
                        }
                    }
                }
            }
            let Some((r, _)) = leave else {
                return RunOutcome::Unbounded;
            };
            self.pivot(r, c);
        }
    }
}

impl Model {
    /// Solves the LP relaxation (integrality constraints ignored).
    ///
    /// # Errors
    ///
    /// [`SolveError::Infeasible`] or [`SolveError::Unbounded`].
    pub fn solve_lp(&self) -> Result<Solution, SolveError> {
        solve_lp(self)
    }
}

/// Solves the LP relaxation of `model` (integrality dropped).
///
/// Returns variable values in original (unshifted) space.
fn solve_lp(model: &Model) -> Result<Solution, SolveError> {
    let n = model.vars.len();

    // Shift variables by their lower bound so every structural column is >= 0.
    let lower: Vec<Rational> = model.vars.iter().map(|v| v.lower).collect();

    // Rows: model constraints (with shifted RHS) + upper-bound rows.
    struct Row {
        coeffs: Vec<Rational>,
        cmp: Cmp,
        rhs: Rational,
    }
    let mut raw_rows: Vec<Row> = Vec::new();
    for c in &model.constraints {
        let mut coeffs = vec![Rational::ZERO; n];
        let mut shift = Rational::ZERO;
        for (v, k) in c.expr.iter() {
            coeffs[v.index()] += k;
            shift += k * lower[v.index()];
        }
        raw_rows.push(Row {
            coeffs,
            cmp: c.cmp,
            rhs: c.rhs - shift,
        });
    }
    for (i, def) in model.vars.iter().enumerate() {
        if let Some(u) = def.upper {
            let mut coeffs = vec![Rational::ZERO; n];
            coeffs[i] = Rational::ONE;
            raw_rows.push(Row {
                coeffs,
                cmp: Cmp::Le,
                rhs: u - lower[i],
            });
        }
    }

    // Normalize RHS signs.
    for row in &mut raw_rows {
        if row.rhs.is_negative() {
            for c in &mut row.coeffs {
                *c = -*c;
            }
            row.rhs = -row.rhs;
            row.cmp = match row.cmp {
                Cmp::Le => Cmp::Ge,
                Cmp::Ge => Cmp::Le,
                Cmp::Eq => Cmp::Eq,
            };
        }
    }

    let m = raw_rows.len();
    // Column layout: [structural | slack/surplus | artificial].
    let n_slack = raw_rows
        .iter()
        .filter(|r| matches!(r.cmp, Cmp::Le | Cmp::Ge))
        .count();
    let n_art = raw_rows
        .iter()
        .filter(|r| matches!(r.cmp, Cmp::Ge | Cmp::Eq))
        .count();
    let art_start = n + n_slack;
    let total = n + n_slack + n_art;

    let mut rows = vec![vec![Rational::ZERO; total]; m];
    let mut rhs = vec![Rational::ZERO; m];
    let mut basis = vec![0usize; m];
    let mut next_slack = n;
    let mut next_art = art_start;
    for (i, row) in raw_rows.iter().enumerate() {
        rows[i][..n].copy_from_slice(&row.coeffs);
        rhs[i] = row.rhs;
        match row.cmp {
            Cmp::Le => {
                rows[i][next_slack] = Rational::ONE;
                basis[i] = next_slack;
                next_slack += 1;
            }
            Cmp::Ge => {
                rows[i][next_slack] = -Rational::ONE;
                next_slack += 1;
                rows[i][next_art] = Rational::ONE;
                basis[i] = next_art;
                next_art += 1;
            }
            Cmp::Eq => {
                rows[i][next_art] = Rational::ONE;
                basis[i] = next_art;
                next_art += 1;
            }
        }
    }

    let mut t = Tableau {
        rows,
        rhs,
        basis,
        obj: vec![Rational::ZERO; total],
        obj_val: Rational::ZERO,
        n_struct: n,
        art_start,
    };

    // Phase 1: minimize the sum of artificials.
    if n_art > 0 {
        let mut costs = vec![Rational::ZERO; total];
        for c in costs.iter_mut().skip(art_start) {
            *c = Rational::ONE;
        }
        t.canonicalize_objective(&costs);
        match t.run(total) {
            RunOutcome::Optimal => {}
            RunOutcome::Unbounded => unreachable!("phase-1 objective is bounded below by 0"),
        }
        if t.obj_val.is_positive() {
            return Err(SolveError::Infeasible);
        }
        // Drive any (degenerate) artificial out of the basis.
        for i in 0..t.rows.len() {
            if t.basis[i] >= t.art_start {
                if let Some(c) = (0..t.art_start).find(|&j| !t.rows[i][j].is_zero()) {
                    t.pivot(i, c);
                }
                // Rows with no structural support are redundant; the
                // artificial stays basic at value zero, which is harmless
                // as long as it never re-enters (phase 2 freezes it).
            }
        }
    }

    // Phase 2: original objective (converted to minimization).
    let mut costs = vec![Rational::ZERO; total];
    for (v, k) in model.objective.iter() {
        costs[v.index()] += match model.sense {
            Sense::Minimize => k,
            Sense::Maximize => -k,
        };
    }
    t.canonicalize_objective(&costs);
    match t.run(t.art_start) {
        RunOutcome::Optimal => {}
        RunOutcome::Unbounded => return Err(SolveError::Unbounded),
    }

    // Extract values (shift back by lower bounds).
    let mut values = lower;
    let mut shifted = vec![Rational::ZERO; t.n_struct];
    for (i, &b) in t.basis.iter().enumerate() {
        if b < t.n_struct {
            shifted[b] = t.rhs[i];
        }
    }
    for (i, v) in values.iter_mut().enumerate() {
        *v += shifted[i];
    }

    let mut objective = model.objective.constant();
    for (v, k) in model.objective.iter() {
        objective += values[v.index()] * k;
    }

    Ok(Solution { values, objective })
}

/// The LP of `sys` as a general [`Model`] (variable `i` is the `i`-th
/// returned [`VarId`], integral, bounded below by its lower bound),
/// minimizing `Σ costs[i]·x_i`: the simplex oracle for
/// [`DiffSystem::minimize`].
///
/// # Panics
///
/// Panics if `costs` does not hold one entry per variable.
#[track_caller]
pub fn to_model(sys: &DiffSystem, name: &str, costs: &[i64]) -> (Model, Vec<VarId>) {
    assert_eq!(costs.len(), sys.num_vars(), "one cost per variable");
    let (constraints, lower) = sys.constraints();
    let mut m = Model::new(name);
    let vars: Vec<VarId> = (0..sys.num_vars())
        .map(|i| m.add_int_var(format!("x{i}")))
        .collect();
    for (&v, &lo) in vars.iter().zip(lower) {
        if lo != 0 {
            m.set_bounds(v, lo, None);
        }
    }
    for (u, v, k) in constraints {
        m.add_diff_ge(vars[u], vars[v], k, "c");
    }
    let obj = vars
        .iter()
        .zip(costs)
        .fold(LinExpr::zero(), |acc, (&v, &c)| acc + LinExpr::from(v) * c);
    m.set_objective(Sense::Minimize, obj);
    (m, vars)
}
