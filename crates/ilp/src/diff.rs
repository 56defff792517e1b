//! Difference-constraint systems and their componentwise-minimal solutions.
//!
//! A difference system is a conjunction of constraints `x_u - x_v >= c`
//! together with per-variable lower bounds. Such systems are *min-closed*:
//! the componentwise minimum of two feasible points is feasible, so a unique
//! componentwise-minimal solution exists whenever the system is feasible.
//! It is computed by a longest-path (Bellman–Ford) fixpoint.
//!
//! In ImaGen this solver serves three roles:
//! 1. fast feasibility checks for candidate constraint subsets,
//! 2. the minimum-latency ("ASAP") schedule used for latency reporting, and
//! 3. the buffer-minimal schedule itself, through [`DiffSystem::minimize`].
//!
//! The *buffer-minimal* schedule is not in general the componentwise-minimal
//! feasible point (delaying a producer can shrink its own buffer while
//! growing upstream ones), so it takes a linear objective. A difference LP
//! `min Σ c_i·x_i` has a min-cost flow as its dual: each constraint
//! `x_u − x_v >= k` is an uncapacitated arc `u → v` of cost `−k`, each
//! lower bound `x_i >= l_i` an arc `i → z` of cost `−l_i` into a zero node
//! `z`, and node `i` has net outflow `c_i`. [`DiffSystem::minimize`] solves
//! that flow by the network simplex in `i64` and reads the primal optimum
//! back off it.

use crate::network::Network;
use std::fmt;

/// Error returned when a difference system is infeasible.
///
/// Infeasibility of `x_u - x_v >= c` systems is witnessed by a positive
/// cycle in the constraint graph.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PositiveCycle;

impl fmt::Display for PositiveCycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "difference system contains a positive cycle (infeasible)"
        )
    }
}

impl std::error::Error for PositiveCycle {}

/// Why [`DiffSystem::minimize`] has no optimum.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MinimizeError {
    /// The constraints are infeasible.
    Infeasible(PositiveCycle),
    /// The objective decreases without bound over the feasible set: the
    /// dual flow cannot route all of its demand.
    Unbounded,
    /// A longest path, or an intermediate flow, cost, potential or
    /// objective value, left the `i64` range.
    Overflow,
}

impl fmt::Display for MinimizeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MinimizeError::Infeasible(e) => e.fmt(f),
            MinimizeError::Unbounded => write!(f, "objective is unbounded below"),
            MinimizeError::Overflow => write!(f, "difference LP exceeds the i64 range"),
        }
    }
}

impl std::error::Error for MinimizeError {}

impl From<PositiveCycle> for MinimizeError {
    fn from(e: PositiveCycle) -> Self {
        MinimizeError::Infeasible(e)
    }
}

/// An optimum of [`DiffSystem::minimize`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DiffOptimum {
    /// The minimal objective value `Σ c_i·x_i`.
    pub objective: i64,
    /// The componentwise-minimal point attaining it.
    pub x: Vec<i64>,
}

/// A system of difference constraints over `n` nonnegative variables.
///
/// # Examples
///
/// ```
/// use imagen_ilp::DiffSystem;
///
/// let mut sys = DiffSystem::new(3);
/// sys.add_ge(1, 0, 641); // x1 >= x0 + 641
/// sys.add_ge(2, 1, 641); // x2 >= x1 + 641
/// let sol = sys.minimal_solution().unwrap();
/// assert_eq!(sol, vec![0, 641, 1282]);
/// ```
#[derive(Clone, Debug, Default)]
pub struct DiffSystem {
    n: usize,
    /// Edge `(v, u, c)` encodes `x_u >= x_v + c`.
    edges: Vec<(usize, usize, i64)>,
    lower: Vec<i64>,
}

impl DiffSystem {
    /// Creates a system with `n` variables, all bounded below by zero.
    pub fn new(n: usize) -> DiffSystem {
        DiffSystem {
            n,
            edges: Vec::new(),
            lower: vec![0; n],
        }
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.n
    }

    /// Number of constraints.
    pub fn num_constraints(&self) -> usize {
        self.edges.len()
    }

    /// The system as added: every constraint `x_u - x_v >= k` as a
    /// `(u, v, k)` triple, in insertion order, and the lower bound of
    /// every variable.
    pub fn constraints(&self) -> (impl Iterator<Item = (usize, usize, i64)> + '_, &[i64]) {
        let triples = self.edges.iter().map(|&(v, u, k)| (u, v, k));
        (triples, &self.lower)
    }

    /// Adds the constraint `x_u - x_v >= c`.
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` is out of range.
    #[track_caller]
    pub fn add_ge(&mut self, u: usize, v: usize, c: i64) {
        assert!(u < self.n && v < self.n, "variable index out of range");
        self.edges.push((v, u, c));
    }

    /// Raises the lower bound of `x_i` to `max(current, b)`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[track_caller]
    pub fn set_lower(&mut self, i: usize, b: i64) {
        assert!(i < self.n, "variable index out of range");
        if b > self.lower[i] {
            self.lower[i] = b;
        }
    }

    /// Computes the componentwise-minimal feasible point.
    ///
    /// # Errors
    ///
    /// [`MinimizeError::Infeasible`] if the system is infeasible, and
    /// [`MinimizeError::Overflow`] if a longest path leaves the `i64`
    /// range, so that no `i64` point is feasible.
    pub fn minimal_solution(&self) -> Result<Vec<i64>, MinimizeError> {
        self.raise(self.lower.clone(), &[])
    }

    /// Raises `x`, which must lie between the lower bounds and every
    /// feasible point, to the componentwise-minimal feasible point of the
    /// system with the constraints `extra` (in `(v, u, c)` edge form)
    /// added: the longest-path fixpoint from `x`, in at most n rounds of
    /// relaxation and one more to detect positive cycles. Every value
    /// stays at or above its lower bound, which is at least zero, so a
    /// relaxation can only leave the `i64` range upward: an overflow.
    fn raise(
        &self,
        mut x: Vec<i64>,
        extra: &[(usize, usize, i64)],
    ) -> Result<Vec<i64>, MinimizeError> {
        for round in 0..=self.n {
            let mut changed = false;
            for &(v, u, c) in self.edges.iter().chain(extra) {
                let cand = x[v].checked_add(c).ok_or(MinimizeError::Overflow)?;
                if cand > x[u] {
                    x[u] = cand;
                    changed = true;
                }
            }
            if !changed {
                return Ok(x);
            }
            if round == self.n {
                return Err(MinimizeError::Infeasible(PositiveCycle));
            }
        }
        Ok(x)
    }

    /// Minimizes `Σ costs[i]·x_i` over the system and returns the
    /// componentwise-minimal optimal point.
    ///
    /// The dual min-cost flow (see the module docs) is solved by the
    /// network simplex, once the longest-path fixpoint `x0` of
    /// [`DiffSystem::minimal_solution`] has shown the system feasible. The
    /// simplex starts from a crash basis: a spanning tree of the arcs
    /// tight at `x0` wherever those can carry the supplies, artificial
    /// arcs elsewhere. For an optimal flow, the primal optima are exactly
    /// the feasible points tight on every arc that carries flow
    /// (complementary slackness), so that face is the same for every
    /// optimal flow. It is a difference system again, whose minimal
    /// solution is returned: unique, and no later than any other optimal
    /// point. When the crash basis is already optimal (the solve takes no
    /// pivot), its flow rides arcs tight at `x0` alone, so `x0` itself is
    /// that point and is returned as it is.
    ///
    /// # Errors
    ///
    /// [`MinimizeError::Infeasible`] on a positive cycle,
    /// [`MinimizeError::Unbounded`] when the objective has no minimum, and
    /// [`MinimizeError::Overflow`] when a value leaves the `i64` range.
    ///
    /// # Panics
    ///
    /// Panics if `costs` does not hold one entry per variable.
    ///
    /// # Examples
    ///
    /// ```
    /// use imagen_ilp::DiffSystem;
    ///
    /// // A buffer retires at x2 >= x1 + 5 and x2 >= x0 + 3; minimize its
    /// // lifetime x2 - x1 with x1 >= x0 + 1.
    /// let mut sys = DiffSystem::new(3);
    /// sys.add_ge(1, 0, 1);
    /// sys.add_ge(2, 1, 5);
    /// sys.add_ge(2, 0, 3);
    /// let opt = sys.minimize(&[0, -1, 1]).unwrap();
    /// assert_eq!(opt.objective, 5);
    /// assert_eq!(opt.x, vec![0, 1, 6]);
    /// ```
    #[track_caller]
    pub fn minimize(&self, costs: &[i64]) -> Result<DiffOptimum, MinimizeError> {
        assert_eq!(costs.len(), self.n, "one cost per variable");
        let x0 = self.minimal_solution()?;
        let z = self.n;

        // Node i has net outflow c_i and the zero node z takes up the rest.
        // z can only absorb flow (its arcs all point into it), so a
        // positive rest is unbounded: raising every variable by one keeps
        // the system feasible and changes the objective by Σ c_i < 0.
        // Without a rest the lower-bound arcs carry no flow at all.
        let rest = costs
            .iter()
            .try_fold(0i64, |acc, &c| acc.checked_sub(c))
            .ok_or(MinimizeError::Overflow)?;
        if rest > 0 {
            return Err(MinimizeError::Unbounded);
        }
        let mut net = Network::with_arcs(self.edges.len() + self.n);
        for &(v, u, c) in &self.edges {
            net.add_arc(u, v, c.checked_neg().ok_or(MinimizeError::Overflow)?);
        }
        if rest < 0 {
            for (i, &lo) in self.lower.iter().enumerate() {
                net.add_arc(i, z, -lo);
            }
        }
        let supply: Vec<i64> = costs.iter().copied().chain([rest]).collect();
        // x0, with z at zero, prices every arc at or above zero; the start
        // basis is built from the arcs it makes tight.
        let pot: Vec<i64> = x0.iter().copied().chain([0]).collect();
        let (flow, pivots) = net.solve(&supply, &pot)?;

        // The face: every arc that carries flow is tight. It holds every
        // optimum, each above x0, so its fixpoint can start from x0. Without
        // a pivot the flow rides arcs tight at x0 alone, so x0 is on the
        // face, and as the least feasible point it is the face's least.
        let x = if pivots == 0 {
            x0
        } else {
            let tight: Vec<(usize, usize, i64)> = self
                .edges
                .iter()
                .zip(&flow)
                .filter(|&(_, &f)| f > 0)
                .map(|(&(v, u, c), _)| (u, v, -c))
                .collect();
            self.raise(x0, &tight)?
        };
        let objective = x
            .iter()
            .zip(costs)
            .try_fold(0i64, |acc, (&xi, &c)| acc.checked_add(xi.checked_mul(c)?))
            .ok_or(MinimizeError::Overflow)?;
        Ok(DiffOptimum { objective, x })
    }

    /// Checks whether an assignment satisfies every constraint and bound.
    pub fn is_feasible(&self, x: &[i64]) -> bool {
        if x.len() != self.n {
            return false;
        }
        if x.iter().zip(&self.lower).any(|(xi, lo)| xi < lo) {
            return false;
        }
        self.edges.iter().all(|&(v, u, c)| x[u] - x[v] >= c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_resolves_to_longest_path() {
        let mut s = DiffSystem::new(4);
        s.add_ge(1, 0, 10);
        s.add_ge(2, 1, 5);
        s.add_ge(3, 2, 5);
        s.add_ge(3, 0, 25); // tighter diamond path
        let x = s.minimal_solution().unwrap();
        assert_eq!(x, vec![0, 10, 15, 25]);
        assert!(s.is_feasible(&x));
    }

    #[test]
    fn lower_bounds_respected() {
        let mut s = DiffSystem::new(2);
        s.set_lower(0, 7);
        s.add_ge(1, 0, 3);
        let x = s.minimal_solution().unwrap();
        assert_eq!(x, vec![7, 10]);
    }

    #[test]
    fn positive_cycle_is_infeasible() {
        let mut s = DiffSystem::new(2);
        s.add_ge(1, 0, 1);
        s.add_ge(0, 1, 0);
        assert_eq!(
            s.minimal_solution(),
            Err(MinimizeError::Infeasible(PositiveCycle))
        );
    }

    #[test]
    fn longest_paths_past_i64_overflow() {
        // min x0 − x1 over x0 >= x1 + i64::MAX and x1 >= 2^40: the least
        // x0 is 2^40 + i64::MAX, so no i64 point is feasible.
        let mut s = DiffSystem::new(2);
        s.add_ge(0, 1, i64::MAX);
        s.set_lower(1, 1 << 40);
        assert_eq!(s.minimal_solution(), Err(MinimizeError::Overflow));
        assert_eq!(s.minimize(&[1, -1]), Err(MinimizeError::Overflow));
        // At the edge of the range the point is exact.
        let mut edge = DiffSystem::new(2);
        edge.add_ge(0, 1, i64::MAX - (1 << 40));
        edge.set_lower(1, 1 << 40);
        assert_eq!(edge.minimal_solution(), Ok(vec![i64::MAX, 1 << 40]));
    }

    #[test]
    fn zero_cycle_is_feasible() {
        // x1 >= x0, x0 >= x1 forces equality; feasible.
        let mut s = DiffSystem::new(2);
        s.add_ge(1, 0, 0);
        s.add_ge(0, 1, 0);
        let x = s.minimal_solution().unwrap();
        assert_eq!(x, vec![0, 0]);
    }

    #[test]
    fn minimality_vs_feasible_points() {
        let mut s = DiffSystem::new(3);
        s.add_ge(1, 0, 4);
        s.add_ge(2, 0, 9);
        let min = s.minimal_solution().unwrap();
        // Any feasible point dominates the minimal one.
        let other = vec![3, 100, 50];
        assert!(s.is_feasible(&other));
        for i in 0..3 {
            assert!(min[i] <= other[i]);
        }
    }

    #[test]
    fn empty_system() {
        let s = DiffSystem::new(0);
        assert_eq!(s.minimal_solution().unwrap(), Vec::<i64>::new());
    }

    #[test]
    fn minimize_is_held_by_lower_bounds() {
        // min x0 + x1 with x0 >= 5 and x1 >= x0 + 2: both lower-bound
        // arcs carry flow into the zero node.
        let mut s = DiffSystem::new(2);
        s.set_lower(0, 5);
        s.add_ge(1, 0, 2);
        let opt = s.minimize(&[1, 1]).unwrap();
        assert_eq!((opt.objective, opt.x), (12, vec![5, 7]));
    }

    #[test]
    fn minimize_picks_the_earliest_optimum() {
        // min x2 - x0 is 10 at x0 = 0 whatever x1 does in [3, 4]; the
        // componentwise minimum puts x1 at its earliest.
        let mut s = DiffSystem::new(3);
        s.add_ge(1, 0, 3);
        s.add_ge(2, 1, 6);
        s.add_ge(2, 0, 10);
        let opt = s.minimize(&[-1, 0, 1]).unwrap();
        assert_eq!((opt.objective, opt.x), (10, vec![0, 3, 10]));
    }

    #[test]
    fn minimize_reports_each_failure() {
        let mut cycle = DiffSystem::new(2);
        cycle.add_ge(1, 0, 1);
        cycle.add_ge(0, 1, 0);
        assert_eq!(
            cycle.minimize(&[0, 0]),
            Err(MinimizeError::Infeasible(PositiveCycle))
        );

        // Net cost below zero: raising everything lowers the objective.
        let free = DiffSystem::new(2);
        assert_eq!(free.minimize(&[-1, 0]), Err(MinimizeError::Unbounded));
        // Net cost zero but nothing holds x1 above x0: the flow cannot
        // route x1's supply.
        assert_eq!(free.minimize(&[-1, 1]), Err(MinimizeError::Unbounded));

        let mut huge = DiffSystem::new(2);
        huge.add_ge(1, 0, i64::MAX);
        assert_eq!(huge.minimize(&[0, 2]), Err(MinimizeError::Overflow));
        let mut tiny = DiffSystem::new(2);
        tiny.add_ge(1, 0, i64::MIN);
        assert_eq!(tiny.minimize(&[0, 1]), Err(MinimizeError::Overflow));
    }
}
