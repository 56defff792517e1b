//! Property-based cross-checks of the difference-constraint solvers
//! (longest path and the network-simplex min-cost flow) against the exact
//! rational simplex, a test-only oracle kept in this test tree
//! (`simplex/mod.rs`), plus the oracle's own checks.

mod simplex;

use imagen_ilp::{DiffSystem, MinimizeError};
use proptest::prelude::*;
use simplex::{to_model, LinExpr, Model, Rational, Sense, SolveError};

/// Variables in the random difference LPs.
const LP_VARS: usize = 6;

/// Weight of the objective in the lexicographic oracle `M·obj + Σx` for
/// `sys`: above its variable count times the largest coordinate a vertex
/// can reach, so one unit of objective outweighs any `Σx`. A vertex is
/// fixed by a forest of tight constraints, each tree holding a tight
/// lower bound, so no coordinate exceeds the largest lower bound plus
/// every constraint's `|k|`.
fn lex_weight(sys: &DiffSystem) -> i64 {
    let (constraints, lower) = sys.constraints();
    let reach =
        lower.iter().copied().max().unwrap_or(0) + constraints.map(|c| c.2.abs()).sum::<i64>();
    1 + sys.num_vars() as i64 * reach
}

/// Strategy: the edges of a random difference LP. Forward edges (higher
/// index minus lower) carry gaps up to 60 and backward ones gaps of at
/// most −30, except one edge in sixteen, whose backward gap keeps its
/// drawn value: those, and long forward paths, close the positive cycles
/// of infeasible systems.
fn lp_edges() -> impl Strategy<Value = Vec<(usize, usize, i64)>> {
    let edge = (0..LP_VARS, 0..LP_VARS, -20i64..60, 0u8..16);
    proptest::collection::vec(edge, 0..14).prop_map(|edges| {
        edges
            .into_iter()
            .filter(|(u, v, _, _)| u != v)
            .map(|(u, v, c, wild)| {
                if u > v || wild == 0 {
                    (u, v, c)
                } else {
                    (u, v, c.min(0) - 30)
                }
            })
            .collect()
    })
}

/// Builds the system: `edges`, one edge `x_a − x_b >= k` per cost pair,
/// `x_u = x_v` as two `k = 0` edges per tie (the zero cycles sync groups
/// emit), and raised lower bounds.
fn lp_system(
    edges: &[(usize, usize, i64)],
    pairs: &[(usize, usize, i64, i64)],
    ties: &[(usize, usize)],
    lower: &[(usize, i64)],
) -> DiffSystem {
    let mut sys = DiffSystem::new(LP_VARS);
    for &(u, v, c) in edges {
        sys.add_ge(u, v, c);
    }
    for &(a, b, _, k) in pairs {
        sys.add_ge(a, b, k);
    }
    for &(u, v) in ties.iter().filter(|(u, v)| u != v) {
        sys.add_ge(u, v, 0);
        sys.add_ge(v, u, 0);
    }
    for &(i, b) in lower {
        sys.set_lower(i, b);
    }
    sys
}

/// Objective coefficients: `+w` at `a` and `−w` at `b` per pair (the
/// scheduler's weighted `T_p − S_p`, held below by the pair's forward
/// edge `x_a − x_b >= k` in [`lp_system`]), then a drift at one variable.
/// Negative drift makes the objective unbounded (shifting every variable
/// up lowers it); positive drift is held by the lower bounds.
fn lp_costs(pairs: &[(usize, usize, i64, i64)], (at, drift): (usize, i64)) -> Vec<i64> {
    let mut costs = vec![0i64; LP_VARS];
    for &(a, b, w, _) in pairs {
        costs[a] += w;
        costs[b] -= w;
    }
    costs[at] += drift;
    costs
}

/// The cost pairs, each ordered so that `a > b`.
fn lp_pairs() -> impl Strategy<Value = Vec<(usize, usize, i64, i64)>> {
    let pair = (0..LP_VARS, 0..LP_VARS, 1i64..4, 0i64..10);
    proptest::collection::vec(pair, 0..5).prop_map(|pairs| {
        pairs
            .into_iter()
            .filter(|(a, b, _, _)| a != b)
            .map(|(a, b, w, k)| (a.max(b), a.min(b), w, k))
            .collect()
    })
}

/// Variables in the large random difference LPs: 8 to this many.
const BIG_VARS: usize = 24;

/// Checks `sys.minimize(costs)` against the simplex: the same status, the
/// same optimal objective, a feasible point, and that point the
/// componentwise minimum of the optimal face — the unique optimum of the
/// lexicographic objective `M·obj + Σx`.
fn agrees_with_oracle(sys: &DiffSystem, costs: &[i64]) -> Result<(), TestCaseError> {
    let (model, _) = to_model(sys, "prop", costs);
    match (sys.minimize(costs), model.solve_lp()) {
        (Ok(opt), Ok(sol)) => {
            prop_assert_eq!(Rational::from(opt.objective), sol.objective_value());
            prop_assert!(sys.is_feasible(&opt.x));
            let lex_costs: Vec<i64> = costs.iter().map(|c| c * lex_weight(sys) + 1).collect();
            let (lex, vars) = to_model(sys, "lex", &lex_costs);
            let lex = lex.solve_lp().expect("bounded whenever obj is");
            let lex_x: Vec<i64> = vars.iter().map(|&v| lex.int_value(v)).collect();
            prop_assert_eq!(opt.x, lex_x);
        }
        (Err(MinimizeError::Infeasible(_)), Err(SolveError::Infeasible))
        | (Err(MinimizeError::Unbounded), Err(SolveError::Unbounded)) => {}
        (flow, simplex) => {
            return Err(TestCaseError::fail(format!(
                "solvers disagree: flow={flow:?} simplex={simplex:?}"
            )));
        }
    }
    Ok(())
}

/// A large random difference LP over `n` of [`BIG_VARS`] variables, with
/// about four arcs per variable, built around a planted point `plant`:
/// each arc `x_u − x_v >= plant_u − plant_v − slack` holds at the plant,
/// and is tight there when its slack is zero, so cycles of tight arcs are
/// zero-gap cycles that force equalities. One arc in 255 is wild: its gap
/// exceeds the plant's difference, which can close a positive cycle. The
/// cost pairs are the scheduler's weighted `x_a − x_b`, each held below by
/// an arc of its own; `cycle` is one explicit tight cycle, and `lower`
/// raises lower bounds. Indices are drawn below [`BIG_VARS`] and folded
/// below `n`.
#[derive(Clone, Debug)]
struct BigLp {
    n: usize,
    plant: Vec<i64>,
    edges: Vec<(usize, usize, i64, u8)>,
    pairs: Vec<(usize, usize, i64, i64)>,
    cycle: Vec<usize>,
    lower: Vec<(usize, i64)>,
    drift: (usize, i64),
}

impl BigLp {
    /// The system and the objective. With a `gap`, every arc has that gap
    /// and the cycle is left out.
    fn build(&self, gap: Option<i64>) -> (DiffSystem, Vec<i64>) {
        let n = self.n;
        let plant = |u: usize, v: usize| self.plant[u] - self.plant[v];
        let mut sys = DiffSystem::new(n);
        for &(u, v, slack, wild) in self.edges.iter().take(4 * n) {
            let (u, v) = (u % n, v % n);
            if u == v {
                continue;
            }
            // Two arcs in three are tight at the plant.
            let slack = if slack < 20 { 0 } else { slack - 20 };
            let k = match gap {
                Some(g) => g,
                None if wild == 0 => plant(u, v) + 1 + slack,
                None => plant(u, v) - slack,
            };
            sys.add_ge(u, v, k);
        }
        let mut costs = vec![0i64; n];
        for &(a, b, w, slack) in &self.pairs {
            let (a, b) = (a % n, b % n);
            if a != b {
                sys.add_ge(a, b, gap.unwrap_or(plant(a, b) - slack));
                costs[a] += w;
                costs[b] -= w;
            }
        }
        let mut cycle: Vec<usize> = self.cycle.iter().map(|&u| u % n).collect();
        cycle.dedup();
        if gap.is_none() && cycle.len() > 1 && cycle[0] != cycle[cycle.len() - 1] {
            for (i, &u) in cycle.iter().enumerate() {
                let next = cycle[(i + 1) % cycle.len()];
                sys.add_ge(next, u, plant(next, u));
            }
        }
        for &(i, b) in &self.lower {
            sys.set_lower(i % n, b);
        }
        costs[self.drift.0 % n] += self.drift.1;
        (sys, costs)
    }
}

/// Strategy: a [`BigLp`].
fn big_lp() -> impl Strategy<Value = BigLp> {
    let edge = (0..BIG_VARS, 0..BIG_VARS, 0i64..30, 0u8..255);
    let pair = (0..BIG_VARS, 0..BIG_VARS, 1i64..4, 0i64..10);
    (
        (
            8..BIG_VARS + 1,
            proptest::collection::vec(0i64..200, BIG_VARS..BIG_VARS + 1),
        ),
        proptest::collection::vec(edge, 0..4 * BIG_VARS + 1),
        proptest::collection::vec(pair, 0..8),
        proptest::collection::vec(0..BIG_VARS, 0..6),
        proptest::collection::vec((0..BIG_VARS, 0i64..250), 0..6),
        (0..BIG_VARS, -1i64..4),
    )
        .prop_map(|((n, plant), edges, pairs, cycle, lower, drift)| BigLp {
            n,
            plant,
            edges,
            pairs,
            cycle,
            lower,
            drift,
        })
}

/// Strategy: a gap or bound from ±2^62, or one of the `i64` extremes.
fn wide() -> impl Strategy<Value = i64> {
    (0u8..6, -(1i64 << 62)..(1i64 << 62)).prop_map(|(kind, v)| match kind {
        0 => i64::MIN,
        1 => i64::MAX,
        _ => v,
    })
}

/// Strategy: a random difference system over `n` variables, biased toward
/// feasible DAG-like systems (edges from lower to higher index).
fn diff_system(n: usize) -> impl Strategy<Value = Vec<(usize, usize, i64)>> {
    let edge = (0..n, 0..n, -20i64..60);
    proptest::collection::vec(edge, 0..12).prop_map(move |edges| {
        edges
            .into_iter()
            .filter(|(u, v, _)| u != v)
            .map(|(u, v, c)| if u > v { (u, v, c) } else { (u, v, c.min(0)) })
            .collect()
    })
}

/// The four LPs the crash-start unit tests of `src/network.rs` solve,
/// each `(x_u − x_v >= k edges, lower bounds, costs, optimum)`: one whose
/// longest-path point is optimal, one whose demand cannot ride its tight
/// arc, one with a zero-supply subtree under a down arc, and a delay LP
/// (costs summing to zero) whose trees must be joined by a pivot. The
/// oracle agrees with `minimize` on each, at the optimum those tests pin.
#[test]
fn crash_start_cases_agree_with_oracle() {
    type Case<'a> = (&'a [(usize, usize, i64)], &'a [i64], &'a [i64], i64);
    let cases: [Case; 4] = [
        (&[(1, 0, 2)], &[5, 0], &[1, 1], 12),
        (&[(1, 0, 2), (0, 1, -5)], &[0, 0], &[1, -1], -5),
        (
            &[(0, 1, 0), (2, 0, 3), (3, 1, 2)],
            &[0; 4],
            &[-1, -1, 1, 1],
            5,
        ),
        (
            &[(2, 0, 1), (2, 1, 10), (3, 2, 0)],
            &[0; 4],
            &[-1, 0, 0, 1],
            1,
        ),
    ];
    for (edges, lower, costs, optimum) in cases {
        let mut sys = DiffSystem::new(costs.len());
        for &(u, v, k) in edges {
            sys.add_ge(u, v, k);
        }
        for (i, &lo) in lower.iter().enumerate() {
            sys.set_lower(i, lo);
        }
        agrees_with_oracle(&sys, costs).unwrap();
        assert_eq!(sys.minimize(costs).unwrap().objective, optimum, "{edges:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The componentwise-minimal solution of a feasible difference system
    /// must match the simplex optimum when minimizing the plain sum of
    /// variables (a monotone objective).
    #[test]
    fn diff_solver_matches_simplex(edges in diff_system(5)) {
        let n = 5;
        let mut sys = DiffSystem::new(n);
        for &(u, v, c) in &edges {
            sys.add_ge(u, v, c);
        }
        let minimal = sys.minimal_solution();

        let mut m = Model::new("prop");
        let vars: Vec<_> = (0..n).map(|i| m.add_int_var(format!("x{i}"))).collect();
        let mut obj = LinExpr::zero();
        for &v in &vars {
            obj = obj + LinExpr::from(v);
        }
        for &(u, v, c) in &edges {
            m.add_diff_ge(vars[u], vars[v], c, "e");
        }
        m.set_objective(Sense::Minimize, obj);
        let lp = m.solve_lp();

        match (minimal, lp) {
            (Ok(xs), Ok(sol)) => {
                let sum: i64 = xs.iter().sum();
                prop_assert_eq!(Rational::from(sum), sol.objective_value());
                // And the simplex answer must satisfy the system.
                let vals: Vec<i64> = vars.iter().map(|&v| sol.int_value(v)).collect();
                prop_assert!(sys.is_feasible(&vals));
            }
            (Err(_), Err(_)) => {} // both infeasible: consistent
            (a, b) => {
                return Err(TestCaseError::fail(format!(
                    "solvers disagree on feasibility: diff={a:?} simplex-ok={}",
                    b.is_ok()
                )));
            }
        }
    }

    /// The network simplex agrees with the rational simplex on status and
    /// objective, returns a feasible point, and that point is the
    /// componentwise minimum of the optimal face: the unique optimum of
    /// the lexicographic objective `M·obj + Σx`.
    #[test]
    fn flow_minimize_matches_simplex(
        edges in lp_edges(),
        ties in proptest::collection::vec((0..LP_VARS, 0..LP_VARS), 0..2),
        lower in proptest::collection::vec((0..LP_VARS, 0i64..25), 0..3),
        pairs in lp_pairs(),
        drift in (0..LP_VARS, -1i64..4),
    ) {
        let sys = lp_system(&edges, &pairs, &ties, &lower);
        agrees_with_oracle(&sys, &lp_costs(&pairs, drift))?;
    }

    /// Rational arithmetic is a field on small values.
    #[test]
    fn rational_field_axioms(
        an in -50i128..50, ad in 1i128..20,
        bn in -50i128..50, bd in 1i128..20,
        cn in -50i128..50, cd in 1i128..20,
    ) {
        let a = Rational::new(an, ad);
        let b = Rational::new(bn, bd);
        let c = Rational::new(cn, cd);
        prop_assert_eq!(a + b, b + a);
        prop_assert_eq!((a + b) + c, a + (b + c));
        prop_assert_eq!(a * (b + c), a * b + a * c);
        prop_assert_eq!(a - a, Rational::ZERO);
        if !b.is_zero() {
            prop_assert_eq!(a / b * b, a);
        }
        // Ordering consistent with f64 on this range.
        prop_assert_eq!(a < b, a.to_f64() < b.to_f64());
    }

    /// Rational arithmetic near the `i128` extremes: operations either
    /// produce the exact value or refuse (checked `None`) — never a
    /// silently wrapped result.
    #[test]
    fn rational_extreme_magnitudes(pick_a in 0usize..8, pick_b in 0usize..8, d in 1i128..5) {
        const EDGES: [i128; 8] = [
            i128::MIN,
            i128::MIN + 1,
            i128::MIN / 2,
            -1,
            0,
            1,
            i128::MAX / 2,
            i128::MAX,
        ];
        let a = Rational::new(EDGES[pick_a], d);
        let b = Rational::new(EDGES[pick_b], d);

        // Construction invariants: reduced, positive denominator.
        prop_assert!(a.denom() > 0);
        prop_assert!(b.denom() > 0);

        // Self-subtraction is exact even at magnitude 2^127.
        prop_assert_eq!(a.checked_sub(&a), Some(Rational::ZERO));

        // Checked ops round-trip when they succeed.
        if let Some(s) = a.checked_add(&b) {
            prop_assert_eq!(s.checked_sub(&b), Some(a));
        }
        if let Some(p) = a.checked_mul(&b) {
            if !b.is_zero() && b.numer() != i128::MIN {
                prop_assert_eq!(p / b, a);
            }
        }

        // Ordering is total and consistent with sign at the extremes.
        prop_assert_eq!(a < b, b > a);
        prop_assert_eq!(a == b, EDGES[pick_a] == EDGES[pick_b]);
        if a.is_negative() {
            prop_assert!(a < Rational::ZERO);
        }
    }

    /// The same agreement on systems of up to 24 variables with about
    /// four arcs per variable, zero-gap cycles and raised lower bounds.
    #[test]
    fn large_minimize_matches_simplex(lp in big_lp()) {
        let (sys, costs) = lp.build(None);
        agrees_with_oracle(&sys, &costs)?;
    }

    /// Every arc with the same gap: zero gaps tie every path, so nearly
    /// every pivot is degenerate; the solve must still terminate at the
    /// oracle's optimum. (A positive common gap makes any cycle
    /// infeasible.)
    #[test]
    fn equal_gaps_terminate(lp in big_lp(), gap in -2i64..2) {
        let (sys, costs) = lp.build(Some(gap));
        agrees_with_oracle(&sys, &costs)?;
    }

    /// A variable with a positive cost that no constraint holds from
    /// below, beside one variable of negative cost and no net cost: its
    /// supply has no arc to leave by, and every other variable can rise
    /// without end. A feasible system is unbounded, whatever else it
    /// holds.
    #[test]
    fn supply_without_a_route_is_unbounded(lp in big_lp(), pick in (0..BIG_VARS, 1..BIG_VARS)) {
        let (full, _) = lp.build(None);
        let a = pick.0 % lp.n;
        let b = (a + 1 + pick.1 % (lp.n - 1)) % lp.n;
        let (constraints, lower) = full.constraints();
        let mut sys = DiffSystem::new(lp.n);
        for (u, v, k) in constraints.filter(|&(u, _, _)| u != a) {
            sys.add_ge(u, v, k);
        }
        for (i, &lo) in lower.iter().enumerate() {
            sys.set_lower(i, lo);
        }
        let mut costs = vec![0i64; lp.n];
        costs[a] = 2;
        costs[b] = -2;
        match sys.minimize(&costs) {
            Err(MinimizeError::Unbounded) | Err(MinimizeError::Infeasible(_)) => {}
            other => return Err(TestCaseError::fail(format!("routed the supply: {other:?}"))),
        }
        agrees_with_oracle(&sys, &costs)?;
    }

    /// Near the ends of the `i64` range a longest path can leave it: then
    /// no `i64` point is feasible, and both solvers must say so rather
    /// than return a clipped point. Every point they do return is
    /// feasible.
    #[test]
    fn wide_systems_return_only_feasible_points(
        n in 2usize..6,
        edges in proptest::collection::vec((0usize..6, 0usize..6, wide()), 0..9),
        lower in proptest::collection::vec((0usize..6, wide()), 0..4),
        costs in proptest::collection::vec(-3i64..4, 6..7),
    ) {
        let mut sys = DiffSystem::new(n);
        for &(u, v, k) in &edges {
            if u % n != v % n {
                sys.add_ge(u % n, v % n, k);
            }
        }
        for &(i, b) in &lower {
            sys.set_lower(i % n, b);
        }
        if let Ok(x) = sys.minimal_solution() {
            prop_assert!(sys.is_feasible(&x), "minimal point {x:?} of {sys:?}");
        }
        if let Ok(opt) = sys.minimize(&costs[..n]) {
            prop_assert!(sys.is_feasible(&opt.x), "optimum {opt:?} of {sys:?}");
        }
    }

    /// A positive cycle makes the system infeasible, and that is the error
    /// whatever the objective, unbounded ones included: infeasibility wins.
    #[test]
    fn infeasible_wins_over_unbounded(lp in big_lp(), gaps in (1i64..5, -3i64..3), drift in -3i64..0) {
        let (mut sys, mut costs) = lp.build(None);
        let (u, v) = (0, lp.n - 1);
        sys.add_ge(v, u, gaps.0 + gaps.1.max(0));
        sys.add_ge(u, v, -gaps.1.max(0));
        costs[u] += drift;
        prop_assert_eq!(
            sys.minimize(&costs),
            Err(MinimizeError::Infeasible(imagen_ilp::PositiveCycle))
        );
        agrees_with_oracle(&sys, &costs)?;
    }
}

/// The oracle's own checks: the simplex on small LPs with known optima,
/// the model builder, and exact rational arithmetic.
mod oracle {
    use crate::simplex::{Cmp, LinExpr, Model, Rational, Sense, SolveError};
    use std::cmp::Ordering;

    #[test]
    fn basic_maximize() {
        // max 3x + 2y s.t. x + y <= 4; x + 3y <= 6 -> x=4, y=0, obj=12.
        let mut m = Model::new("t");
        let x = m.add_var("x");
        let y = m.add_var("y");
        m.add_constraint(LinExpr::from(x) + LinExpr::from(y), Cmp::Le, 4, "c1");
        m.add_constraint(LinExpr::from(x) + LinExpr::from(y) * 3, Cmp::Le, 6, "c2");
        m.set_objective(Sense::Maximize, LinExpr::from(x) * 3 + LinExpr::from(y) * 2);
        let s = m.solve_lp().unwrap();
        assert_eq!(s.objective_value(), Rational::from(12));
        assert_eq!(s.value(x), Rational::from(4));
        assert_eq!(s.value(y), Rational::from(0));
    }

    #[test]
    fn basic_minimize_with_ge() {
        // min x + y s.t. x + 2y >= 4; 3x + y >= 6 -> x=8/5, y=6/5, obj=14/5.
        let mut m = Model::new("t");
        let x = m.add_var("x");
        let y = m.add_var("y");
        m.add_constraint(LinExpr::from(x) + LinExpr::from(y) * 2, Cmp::Ge, 4, "c1");
        m.add_constraint(LinExpr::from(x) * 3 + LinExpr::from(y), Cmp::Ge, 6, "c2");
        m.set_objective(Sense::Minimize, LinExpr::from(x) + LinExpr::from(y));
        let s = m.solve_lp().unwrap();
        assert_eq!(s.objective_value(), Rational::new(14, 5));
    }

    #[test]
    fn infeasible_detected() {
        let mut m = Model::new("t");
        let x = m.add_var("x");
        m.add_constraint(LinExpr::from(x), Cmp::Le, 1, "c1");
        m.add_constraint(LinExpr::from(x), Cmp::Ge, 2, "c2");
        assert_eq!(m.solve_lp().unwrap_err(), SolveError::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        let mut m = Model::new("t");
        let x = m.add_var("x");
        m.set_objective(Sense::Maximize, LinExpr::from(x));
        assert_eq!(m.solve_lp().unwrap_err(), SolveError::Unbounded);
    }

    #[test]
    fn equality_constraints() {
        // min x + y s.t. x + y == 10, x - y == 2 -> x=6, y=4.
        let mut m = Model::new("t");
        let x = m.add_var("x");
        let y = m.add_var("y");
        m.add_constraint(LinExpr::from(x) + LinExpr::from(y), Cmp::Eq, 10, "sum");
        m.add_constraint(LinExpr::from(x) - LinExpr::from(y), Cmp::Eq, 2, "diff");
        m.set_objective(Sense::Minimize, LinExpr::from(x) + LinExpr::from(y));
        let s = m.solve_lp().unwrap();
        assert_eq!(s.value(x), Rational::from(6));
        assert_eq!(s.value(y), Rational::from(4));
    }

    #[test]
    fn lower_bounds_shifted_correctly() {
        // min x with x >= 5 (bound) and x >= 3 (constraint) -> 5.
        let mut m = Model::new("t");
        let x = m.add_var("x");
        m.set_bounds(x, 5, None);
        m.add_constraint(LinExpr::from(x), Cmp::Ge, 3, "c");
        m.set_objective(Sense::Minimize, LinExpr::from(x));
        let s = m.solve_lp().unwrap();
        assert_eq!(s.value(x), Rational::from(5));
    }

    #[test]
    fn upper_bounds_respected() {
        let mut m = Model::new("t");
        let x = m.add_var("x");
        m.set_bounds(x, 0, Some(7));
        m.set_objective(Sense::Maximize, LinExpr::from(x));
        let s = m.solve_lp().unwrap();
        assert_eq!(s.value(x), Rational::from(7));
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Klee-Minty-flavored degeneracy; Bland's rule must terminate.
        let mut m = Model::new("t");
        let x = m.add_var("x");
        let y = m.add_var("y");
        let z = m.add_var("z");
        m.add_constraint(LinExpr::from(x), Cmp::Le, 1, "c1");
        m.add_constraint(LinExpr::from(x) * 4 + LinExpr::from(y), Cmp::Le, 8, "c2");
        m.add_constraint(
            LinExpr::from(x) * 8 + LinExpr::from(y) * 4 + LinExpr::from(z),
            Cmp::Le,
            64,
            "c3",
        );
        m.set_objective(
            Sense::Maximize,
            LinExpr::from(x) * 4 + LinExpr::from(y) * 2 + LinExpr::from(z),
        );
        let s = m.solve_lp().unwrap();
        assert_eq!(s.objective_value(), Rational::from(64));
    }

    #[test]
    fn redundant_equalities_ok() {
        let mut m = Model::new("t");
        let x = m.add_var("x");
        let y = m.add_var("y");
        m.add_constraint(LinExpr::from(x) + LinExpr::from(y), Cmp::Eq, 4, "c1");
        m.add_constraint(
            LinExpr::from(x) * 2 + LinExpr::from(y) * 2,
            Cmp::Eq,
            8,
            "c2-redundant",
        );
        m.set_objective(Sense::Minimize, LinExpr::from(x));
        let s = m.solve_lp().unwrap();
        assert_eq!(s.value(x), Rational::ZERO);
        assert_eq!(s.value(y), Rational::from(4));
    }

    #[test]
    fn negative_rhs_normalization() {
        // x - y <= -2 means y >= x + 2.
        let mut m = Model::new("t");
        let x = m.add_var("x");
        let y = m.add_var("y");
        m.add_constraint(LinExpr::from(x) - LinExpr::from(y), Cmp::Le, -2, "c");
        m.set_objective(Sense::Minimize, LinExpr::from(y));
        let s = m.solve_lp().unwrap();
        assert_eq!(s.value(y), Rational::from(2));
    }

    #[test]
    fn expr_algebra() {
        let mut m = Model::new("t");
        let x = m.add_var("x");
        let y = m.add_var("y");
        let e = (LinExpr::from(x) * 2 + LinExpr::from(y)) - LinExpr::from(x);
        assert_eq!(e.coeff(x), Rational::ONE);
        assert_eq!(e.coeff(y), Rational::ONE);
    }

    #[test]
    fn eval_and_feasibility() {
        let mut m = Model::new("t");
        let x = m.add_int_var("x");
        let y = m.add_int_var("y");
        m.add_constraint(LinExpr::from(x) + LinExpr::from(y), Cmp::Le, 5, "c0");
        let a = vec![Rational::from(2), Rational::from(3)];
        assert!(m.is_feasible(&a));
        let b = vec![Rational::from(3), Rational::from(3)];
        assert!(!m.is_feasible(&b));
        let frac = vec![Rational::new(1, 2), Rational::from(0)];
        assert!(!m.is_feasible(&frac), "integrality must be enforced");
    }

    #[test]
    fn constraint_constant_folding() {
        let mut m = Model::new("t");
        let x = m.add_var("x");
        m.add_constraint(LinExpr::from(x) + 3, Cmp::Ge, 5, "c");
        assert_eq!(m.constraints()[0].rhs, Rational::from(2));
    }

    #[test]
    fn lp_dump_contains_pieces() {
        let mut m = Model::new("dump");
        let x = m.add_int_var("start_0");
        m.add_constraint(LinExpr::from(x), Cmp::Ge, 1, "dep");
        m.set_objective(Sense::Minimize, LinExpr::from(x));
        let s = m.to_lp_string();
        assert!(s.contains("Minimize"));
        assert!(s.contains("dep:"));
        assert!(s.contains("start_0"));
        assert!(s.contains("General"));
    }

    #[test]
    fn construction_reduces() {
        let r = Rational::new(6, -4);
        assert_eq!(r.numer(), -3);
        assert_eq!(r.denom(), 2);
    }

    #[test]
    fn zero_numerator_normalizes() {
        let r = Rational::new(0, -7);
        assert_eq!(r, Rational::ZERO);
        assert_eq!(r.denom(), 1);
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn zero_denominator_panics() {
        let _ = Rational::new(1, 0);
    }

    #[test]
    fn arithmetic_basics() {
        let a = Rational::new(1, 2);
        let b = Rational::new(1, 3);
        assert_eq!(a + b, Rational::new(5, 6));
        assert_eq!(a - b, Rational::new(1, 6));
        assert_eq!(a * b, Rational::new(1, 6));
        assert_eq!(a / b, Rational::new(3, 2));
        assert_eq!(-a, Rational::new(-1, 2));
    }

    #[test]
    fn ordering() {
        assert!(Rational::new(1, 3) < Rational::new(1, 2));
        assert!(Rational::new(-1, 2) < Rational::ZERO);
        assert!(Rational::new(7, 7) == Rational::ONE);
    }

    #[test]
    fn integrality() {
        assert!(Rational::new(4, 2).is_integer());
        assert_eq!(Rational::new(4, 2).to_integer(), Some(2));
        assert_eq!(Rational::new(1, 2).to_integer(), None);
    }

    #[test]
    fn display() {
        assert_eq!(Rational::new(3, 6).to_string(), "1/2");
        assert_eq!(Rational::from(5).to_string(), "5");
    }

    #[test]
    fn i128_min_constructs_and_compares() {
        let min = Rational::new(i128::MIN, 1);
        assert_eq!(min.numer(), i128::MIN);
        assert_eq!(min.denom(), 1);
        assert_eq!(Rational::new(0, i128::MIN), Rational::ZERO);
        assert_eq!(Rational::new(i128::MIN, i128::MIN), Rational::ONE);
        assert!(min < Rational::ZERO);
        assert!(min < Rational::new(i128::MIN, 2));
        assert_eq!(min.cmp(&min), Ordering::Equal);
        // Even halves reduce without negating the raw i128::MIN.
        let half = Rational::new(i128::MIN, 2);
        assert_eq!(half.numer(), i128::MIN / 2);
        assert_eq!(half.denom(), 1);
        assert_eq!(min - min, Rational::ZERO);
    }

    #[test]
    #[should_panic(expected = "negation overflow")]
    fn i128_min_negation_panics() {
        let _ = -Rational::new(i128::MIN, 1);
    }

    #[test]
    #[should_panic(expected = "abs overflow")]
    fn i128_min_abs_panics() {
        let _ = Rational::new(i128::MIN, 1).abs();
    }

    #[test]
    #[should_panic(expected = "rational overflow normalizing")]
    fn i128_min_denominator_panics() {
        let _ = Rational::new(1, i128::MIN);
    }

    #[test]
    fn checked_overflow_detected() {
        let big = Rational::from(i128::MAX / 2);
        assert!(big.checked_add(&big).is_none() || big.checked_add(&big).is_some());
        let huge = Rational::new(i128::MAX, 1);
        assert!(huge.checked_mul(&Rational::from(3)).is_none());
    }
}
