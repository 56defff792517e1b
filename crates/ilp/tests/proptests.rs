//! Property-based cross-checks of the ILP substrate:
//! simplex vs. the difference-constraint solvers (longest path and min-cost
//! flow) vs. brute-force enumeration.

use imagen_ilp::{Cmp, DiffSystem, LinExpr, MinimizeError, Model, Rational, Sense, SolveError};
use proptest::prelude::*;

/// Variables in the random difference LPs.
const LP_VARS: usize = 6;

/// Weight of the objective in the lexicographic oracle `M·obj + Σx`:
/// above `LP_VARS` times the largest vertex coordinate the generated
/// systems can reach, so one unit of objective outweighs any `Σx`.
const LEX_WEIGHT: i64 = 100_000;

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
        let lp = m.solve();

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

    /// The min-cost-flow solver agrees with the simplex on status and
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
        let costs = lp_costs(&pairs, drift);
        let (model, _) = sys.to_model("prop", &costs);
        match (sys.minimize(&costs), model.solve()) {
            (Ok(opt), Ok(sol)) => {
                prop_assert_eq!(Rational::from(opt.objective), sol.objective_value());
                prop_assert!(sys.is_feasible(&opt.x));
                let lex_costs: Vec<i64> = costs.iter().map(|c| c * LEX_WEIGHT + 1).collect();
                let (lex, vars) = sys.to_model("lex", &lex_costs);
                let lex = lex.solve().expect("bounded whenever obj is");
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
    }

    /// Branch-and-bound must agree with brute-force enumeration on tiny
    /// bounded integer programs.
    #[test]
    fn bnb_matches_bruteforce(
        a in proptest::array::uniform4(-4i64..5),
        b in 0i64..30,
        c in proptest::array::uniform2(-3i64..4),
    ) {
        let ub = 6i64;
        let mut m = Model::new("bf");
        let x = m.add_int_var("x");
        let y = m.add_int_var("y");
        m.set_bounds(x, 0, Some(ub));
        m.set_bounds(y, 0, Some(ub));
        let e1 = LinExpr::from(x) * a[0] + LinExpr::from(y) * a[1];
        let e2 = LinExpr::from(x) * a[2] + LinExpr::from(y) * a[3];
        m.add_constraint(e1, Cmp::Le, b, "c1");
        m.add_constraint(e2, Cmp::Ge, -b, "c2");
        m.set_objective(Sense::Maximize, LinExpr::from(x) * c[0] + LinExpr::from(y) * c[1]);

        // Brute force over the (ub+1)^2 grid.
        let mut best: Option<i64> = None;
        for xv in 0..=ub {
            for yv in 0..=ub {
                let ok1 = a[0] * xv + a[1] * yv <= b;
                let ok2 = a[2] * xv + a[3] * yv >= -b;
                if ok1 && ok2 {
                    let obj = c[0] * xv + c[1] * yv;
                    best = Some(best.map_or(obj, |cur| cur.max(obj)));
                }
            }
        }

        match (best, m.solve()) {
            (Some(bf), Ok(sol)) => prop_assert_eq!(Rational::from(bf), sol.objective_value()),
            (None, Err(_)) => {}
            (bf, sol) => {
                return Err(TestCaseError::fail(format!(
                    "feasibility mismatch: brute={bf:?} solver-ok={}",
                    sol.is_ok()
                )));
            }
        }
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

        // floor/ceil stay in range and bracket the value.
        prop_assert!(Rational::from(a.floor()) <= a);
        prop_assert!(Rational::from(a.ceil()) >= a);
        prop_assert!(a.ceil() - a.floor() <= 1);
    }

    /// floor/ceil/fract are consistent.
    #[test]
    fn rational_floor_ceil(n in -500i128..500, d in 1i128..40) {
        let r = Rational::new(n, d);
        prop_assert!(Rational::from(r.floor()) <= r);
        prop_assert!(Rational::from(r.ceil()) >= r);
        prop_assert!(r.ceil() - r.floor() <= 1);
        let fr = r.fract();
        prop_assert!(fr >= Rational::ZERO && fr < Rational::ONE);
        prop_assert_eq!(Rational::from(r.floor()) + fr, r);
    }
}
