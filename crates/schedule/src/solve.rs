//! ILP assembly and sub-problem search: turns a [`ConstraintSet`] into an
//! optimal pipeline schedule (paper Sec. 5.2, 5.5).
//!
//! The optimization variables are the stage start cycles `S_i` plus one
//! auxiliary "retire" variable `T_p` per buffered producer with
//! `T_p ≥ S_c − lag_e·W` for each consumer edge; the objective
//! `Σ (T_p − S_p)` is the paper's Equ. 1a with the ceiling dropped
//! (footnote 7). Every constraint is a difference constraint, so the
//! problem is a difference LP ([`delay_lp`]) with an integral optimum. Its
//! dual is a min-cost flow, which [`DiffSystem::minimize`] solves by the
//! network simplex in `i64` arithmetic; the schedule is the
//! componentwise-minimal optimum, so it does not depend on which optimal
//! vertex or flow a solver happens to reach.
//!
//! OR-groups that survive pruning are resolved by depth-first search over
//! alternative choices with incumbent-based pruning (the paper's
//! "sub-optimization problems", Sec. 5.4), at most [`MAX_SUBPROBLEMS`]
//! leaves per schedule.

use crate::constraints::{row_periods, to_diff_system, ConstraintSet, DiffGe, FormulationStats};
use imagen_ilp::{DiffSystem, MinimizeError};
use imagen_ir::{Dag, StageId};
use std::fmt;

/// Maximum OR-group sub-problems (leaf LPs) one schedule solve explores
/// before it gives up with [`ScheduleError::TooManySubproblems`].
pub const MAX_SUBPROBLEMS: usize = 4096;

/// Scheduling failure.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ScheduleError {
    /// No schedule satisfies the constraint system.
    Infeasible,
    /// The sub-problem budget was exhausted before proving optimality.
    TooManySubproblems(usize),
    /// The schedule LP's objective decreases without bound.
    Unbounded,
    /// The schedule LP's start cycles or costs leave the `i64` range.
    Overflow,
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::Infeasible => write!(f, "no feasible pipeline schedule exists"),
            ScheduleError::TooManySubproblems(n) => {
                write!(f, "OR-group search exceeded {n} sub-problems")
            }
            ScheduleError::Unbounded => write!(f, "schedule LP objective is unbounded below"),
            ScheduleError::Overflow => write!(f, "schedule LP exceeds the i64 range"),
        }
    }
}

impl std::error::Error for ScheduleError {}

impl From<MinimizeError> for ScheduleError {
    fn from(e: MinimizeError) -> Self {
        match e {
            MinimizeError::Infeasible(_) => ScheduleError::Infeasible,
            MinimizeError::Unbounded => ScheduleError::Unbounded,
            MinimizeError::Overflow => ScheduleError::Overflow,
        }
    }
}

/// Search and solver statistics for the Sec. 8.2 experiments.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct SolveReport {
    /// Formulation statistics (combination/pruning counts).
    pub formulation: FormulationStats,
    /// ILP sub-problems actually solved.
    pub subproblems: usize,
    /// Variables in each ILP.
    pub ilp_vars: usize,
    /// Constraints in each ILP.
    pub ilp_constraints: usize,
    /// Optimal objective of the chosen leaf: the weighted total delay of
    /// [`delay_lp`].
    pub objective: i64,
}

/// An optimal pipeline schedule.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Schedule {
    /// Start cycle per stage (normalized: earliest stage starts at 0).
    pub starts: Vec<i64>,
    /// Line-buffer rows per stage (Equ. 2; 0 for stages with no buffer).
    pub buffer_rows: Vec<u32>,
    /// Total buffered rows (the minimized objective, in row units).
    pub total_rows: u64,
    /// Search statistics.
    pub report: SolveReport,
}

impl Schedule {
    /// Start cycle of a stage.
    pub fn start(&self, s: StageId) -> i64 {
        self.starts[s.index()]
    }

    /// End-to-end latency in cycles for a `width × height` frame: the
    /// cycle after the last output pixel is produced, for the latest
    /// output stage.
    pub fn latency(&self, dag: &Dag, width: u32, height: u32) -> i64 {
        let frame = width as i64 * height as i64;
        dag.stages()
            .filter(|(_, s)| s.is_output())
            .map(|(id, _)| self.starts[id.index()] + frame)
            .max()
            .unwrap_or(frame)
    }
}

/// Solves the scheduling problem for `dag` given its formulated
/// constraints.
///
/// # Errors
///
/// * [`ScheduleError::Infeasible`] when the constraint system (or every
///   OR-group resolution) is unsatisfiable;
/// * [`ScheduleError::Overflow`] when a leaf LP's start cycles or costs
///   leave the `i64` range;
/// * [`ScheduleError::Unbounded`] when a leaf LP's objective has no
///   minimum;
/// * [`ScheduleError::TooManySubproblems`] when the group search would
///   solve more than [`MAX_SUBPROBLEMS`] leaves.
pub fn solve_schedule(
    dag: &Dag,
    width: u32,
    set: &ConstraintSet,
) -> Result<Schedule, ScheduleError> {
    let n = dag.num_stages();

    if set.groups.iter().any(|g| g.alternatives.is_empty()) {
        return Err(ScheduleError::Infeasible);
    }

    // Order groups smallest-first so the DFS branches late.
    let mut groups: Vec<&crate::constraints::OrGroup> = set.groups.iter().collect();
    groups.sort_by_key(|g| g.alternatives.len());

    let mut best: Option<(i64, Vec<i64>)> = None;
    let mut subproblems = 0usize;
    let mut report = SolveReport {
        formulation: set.stats,
        ..SolveReport::default()
    };

    let mut chosen: Vec<DiffGe> = Vec::new();
    let mut stack: Vec<usize> = Vec::new(); // alternative index per depth

    // Iterative DFS over group alternatives.
    loop {
        if stack.len() == groups.len() {
            // Leaf: solve the ILP for this resolution.
            subproblems += 1;
            if subproblems > MAX_SUBPROBLEMS {
                return Err(ScheduleError::TooManySubproblems(MAX_SUBPROBLEMS));
            }
            match solve_leaf(dag, width, &set.hard, &chosen, &mut report) {
                Ok((obj, starts)) => {
                    if best.as_ref().is_none_or(|(b, _)| obj < *b) {
                        best = Some((obj, starts));
                    }
                }
                Err(ScheduleError::Infeasible) => {}
                Err(e) => return Err(e),
            }
            // Backtrack.
            if !advance(&mut stack, &mut chosen, &groups) {
                break;
            }
            continue;
        }
        // Descend into the next group, first alternative.
        let alt = groups[stack.len()].alternatives[0];
        stack.push(0);
        chosen.push(alt);
        // Quick feasibility cut on the partial choice; an overflow is left
        // for its leaves to report.
        if matches!(
            to_diff_system(n, &set.hard, &chosen).minimal_solution(),
            Err(MinimizeError::Infeasible(_))
        ) && !advance(&mut stack, &mut chosen, &groups)
        {
            break;
        }
    }

    report.subproblems = subproblems;
    let (objective, mut starts) = best.ok_or(ScheduleError::Infeasible)?;
    report.objective = objective;

    // Normalize so the earliest stage starts at cycle 0.
    let min = starts.iter().copied().min().unwrap_or(0);
    for s in &mut starts {
        *s -= min;
    }

    let (buffer_rows, total_rows) = size_buffers(dag, width, &starts);
    Ok(Schedule {
        starts,
        buffer_rows,
        total_rows,
        report,
    })
}

/// Advances the DFS cursor to the next unexplored alternative; returns
/// `false` when the search space is exhausted.
fn advance(
    stack: &mut Vec<usize>,
    chosen: &mut Vec<DiffGe>,
    groups: &[&crate::constraints::OrGroup],
) -> bool {
    while let Some(mut idx) = stack.pop() {
        chosen.pop();
        idx += 1;
        let depth = stack.len();
        if idx < groups[depth].alternatives.len() {
            stack.push(idx);
            chosen.push(groups[depth].alternatives[idx]);
            return true;
        }
    }
    false
}

/// The default-objective LP of one OR-group resolution: the `hard`
/// constraints plus the `chosen` alternatives over the stage starts
/// (variable `i` is `S_i`), one retire variable `T_p` per buffered stage
/// after them (in [`Dag::buffered_stages`] order), and the objective
/// coefficients of `Σ (L/P_p)·(T_p − S_p)`.
///
/// The row periods `P_p` come from [`row_periods`] at `width`; weighting
/// each buffer's delay by `L / P_p` (`L` = lcm of the periods) counts
/// *rows* in a common unit — for rate-1 pipelines every weight is 1.
pub fn delay_lp(
    dag: &Dag,
    width: u32,
    hard: &[DiffGe],
    chosen: &[DiffGe],
) -> (DiffSystem, Vec<i64>) {
    let periods = row_periods(dag, width);
    let n = dag.num_stages();
    let buffered = dag.buffered_stages();
    let mut sys = DiffSystem::new(n + buffered.len());
    for c in hard.iter().chain(chosen) {
        if c.a == c.b {
            continue; // trivially-true marker constraints
        }
        sys.add_ge(c.a.index(), c.b.index(), c.k);
    }

    // Common delay unit for mixed-period buffers (lcm of the buffered
    // periods; 1-buffer lcm = that period). Rate-1: L = W, weights = 1.
    let lcm_period = buffered
        .iter()
        .map(|p| periods[p.index()])
        .fold(1i64, |acc, p| {
            let g = gcd(acc, p);
            (acc / g).saturating_mul(p)
        });
    let mut costs = vec![0i64; sys.num_vars()];
    for (t, &p) in (n..).zip(&buffered) {
        let pw = periods[p.index()];
        for (_, e) in dag.consumer_edges(p) {
            let lag = e.window().lag as i64;
            // T_p >= S_c - lag * P_p + max(0, P_p - P_c). The extra term
            // covers upsample readers (P_c < P_p): they re-read a producer
            // row for P_p - P_c base cycles past the rate-1 model's last
            // access, so the row retires that much later.
            let extra = (pw - periods[e.consumer().index()]).max(0);
            sys.add_ge(t, e.consumer().index(), -lag * pw + extra);
        }
        // Buffers hold at least one row.
        sys.add_ge(t, p.index(), pw);
        let weight = lcm_period / pw;
        costs[t] = weight;
        costs[p.index()] -= weight;
    }
    (sys, costs)
}

/// Builds and solves one leaf; returns (objective, starts).
fn solve_leaf(
    dag: &Dag,
    width: u32,
    hard: &[DiffGe],
    chosen: &[DiffGe],
    report: &mut SolveReport,
) -> Result<(i64, Vec<i64>), ScheduleError> {
    let (sys, costs) = delay_lp(dag, width, hard, chosen);
    report.ilp_vars = sys.num_vars();
    report.ilp_constraints = sys.num_constraints();
    let mut opt = sys.minimize(&costs)?;
    opt.x.truncate(dag.num_stages());
    Ok((opt.objective, opt.x))
}

/// Sizes every line buffer from a concrete schedule (Equ. 2, per-edge lag
/// aware, in the producer's row period): `rows_p = max_e ⌈(S_c - S_p -
/// lag_e·P_p + max(0, P_p - P_c)) / P_p⌉` with `P_p = pcy·W` (just `W`
/// for rate-1 stages). The `max(0, P_p - P_c)` term is the upsample-reader
/// correction: a consumer with a shorter row period re-reads each producer
/// row until `P_p - P_c` base cycles after the rate-1 model's last access,
/// so the row must survive that much longer before the writer recycles it.
pub fn size_buffers(dag: &Dag, width: u32, starts: &[i64]) -> (Vec<u32>, u64) {
    let periods = row_periods(dag, width);
    let mut rows = vec![0u32; dag.num_stages()];
    for p in dag.buffered_stages() {
        let w = periods[p.index()];
        let mut q = 1i64;
        for (_, e) in dag.consumer_edges(p) {
            let extra = (w - periods[e.consumer().index()]).max(0);
            let d = starts[e.consumer().index()] - starts[p.index()] - e.window().lag as i64 * w
                + extra;
            debug_assert!(d >= 1, "dependency constraints guarantee d >= 1");
            q = q.max((d + w - 1).div_euclid(w));
        }
        rows[p.index()] = q as u32;
    }
    let total = rows.iter().map(|&r| r as u64).sum();
    (rows, total)
}

fn gcd(a: i64, b: i64) -> i64 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a.max(1)
}

/// ASAP (as-soon-as-possible) schedule from the hard constraints plus a
/// fixed alternative choice — the minimum-latency schedule, used for
/// latency reporting and as an independent check (it is feasible but not
/// buffer-minimal in general).
pub fn asap_schedule(
    n: usize,
    hard: &[DiffGe],
    chosen: &[DiffGe],
) -> Result<Vec<i64>, ScheduleError> {
    Ok(to_diff_system(n, hard, chosen).minimal_solution()?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraints::{formulate, schedule_satisfies, ScheduleOptions};
    use crate::entity::buffer_entities;
    use imagen_ir::Expr;

    struct Uniform {
        ports: u32,
        g: u32,
    }
    impl crate::constraints::BufferParams for Uniform {
        fn ports(&self, _: StageId) -> u32 {
            self.ports
        }
        fn coalesce(&self, _: StageId) -> u32 {
            self.g
        }
    }

    fn box3(slot: usize) -> Expr {
        Expr::sum((0..9).map(move |i| Expr::tap(slot, i % 3 - 1, i / 3 - 1)))
    }

    fn fig6() -> Dag {
        let mut dag = Dag::new("fig6");
        let k0 = dag.add_input("K0");
        let k1 = dag.add_stage("K1", &[k0], box3(0)).unwrap();
        let k2 = dag
            .add_stage(
                "K2",
                &[k0, k1],
                Expr::bin(
                    imagen_ir::BinOp::Add,
                    Expr::sum((0..4).map(|i| Expr::tap(0, i % 2, i / 2))),
                    box3(1),
                ),
            )
            .unwrap();
        dag.mark_output(k2);
        dag
    }

    fn solve(dag: &Dag, ports: u32, g: u32, opts: ScheduleOptions) -> Schedule {
        let set = formulate(dag, 480, &Uniform { ports, g }, opts);
        let sched = solve_schedule(dag, 480, &set).unwrap();
        assert!(schedule_satisfies(&set, &sched.starts));
        sched
    }

    #[test]
    fn chain_schedules_at_dependency_bound() {
        let mut dag = Dag::new("chain");
        let k0 = dag.add_input("K0");
        let k1 = dag.add_stage("K1", &[k0], box3(0)).unwrap();
        let k2 = dag.add_stage("K2", &[k1], box3(0)).unwrap();
        dag.mark_output(k2);
        let s = solve(&dag, 2, 1, ScheduleOptions::default());
        assert_eq!(s.starts, vec![0, 961, 1922]);
        // Each producer buffers ceil((2W+1)/W) = 3 rows.
        assert_eq!(s.buffer_rows, vec![3, 3, 0]);
        assert_eq!(s.total_rows, 6);
    }

    #[test]
    fn fig6_dual_port_optimum() {
        let dag = fig6();
        let s = solve(&dag, 2, 1, ScheduleOptions::default());
        // K1 at the dependency bound; K2 pushed to 3W past K0 by the
        // surviving contention constraint, and 2W+1 past K1.
        assert_eq!(s.starts[0], 0);
        assert_eq!(s.starts[1], 961);
        assert_eq!(s.starts[2], 1922);
        // K0's buffer: K1 delay 961 -> 3 rows; K2 delay 1922 at lag 1 ->
        // ceil((1922-480)/480) = 4 rows... max = 4. K1's buffer: 3 rows.
        assert_eq!(s.buffer_rows[0], 4);
        assert_eq!(s.buffer_rows[1], 3);
    }

    #[test]
    fn single_port_costs_more_rows() {
        let dag = fig6();
        let dual = solve(&dag, 2, 1, ScheduleOptions::default());
        let single = solve(&dag, 1, 1, ScheduleOptions::default());
        assert!(
            single.total_rows > dual.total_rows,
            "single-port must buffer more: {} vs {}",
            single.total_rows,
            dual.total_rows
        );
    }

    #[test]
    fn pruning_does_not_change_optimum() {
        let dag = fig6();
        let with = solve(&dag, 2, 1, ScheduleOptions::default());
        let without = solve(&dag, 2, 1, ScheduleOptions { pruning: false });
        assert_eq!(with.total_rows, without.total_rows);
        assert!(
            without.report.subproblems >= with.report.subproblems,
            "pruning explores fewer sub-problems"
        );
    }

    #[test]
    fn asap_vs_optimal() {
        let dag = fig6();
        let set = formulate(
            &dag,
            480,
            &Uniform { ports: 2, g: 1 },
            ScheduleOptions::default(),
        );
        let asap = asap_schedule(dag.num_stages(), &set.hard, &[]).unwrap();
        let opt = solve(&dag, 2, 1, ScheduleOptions::default());
        // ASAP is feasible and no later than the optimum stage-wise.
        for (a, s) in asap.iter().zip(&opt.starts) {
            assert!(a <= s);
        }
    }

    #[test]
    fn latency_accounts_frame() {
        let mut dag = Dag::new("chain");
        let k0 = dag.add_input("K0");
        let k1 = dag.add_stage("K1", &[k0], box3(0)).unwrap();
        dag.mark_output(k1);
        let s = solve(&dag, 2, 1, ScheduleOptions::default());
        assert_eq!(s.latency(&dag, 480, 320), 961 + 480 * 320);
    }

    #[test]
    fn entities_sanity() {
        let dag = fig6();
        let ents = buffer_entities(&dag, StageId::from_index(0));
        assert_eq!(ents.len(), 3);
    }

    #[test]
    fn infeasible_empty_group_reported() {
        use crate::constraints::{ConstraintSet, OrGroup};
        let dag = fig6();
        let set = ConstraintSet {
            hard: vec![],
            groups: vec![OrGroup {
                alternatives: vec![],
                buffer: StageId::from_index(0),
            }],
            stats: Default::default(),
        };
        assert!(matches!(
            solve_schedule(&dag, 480, &set),
            Err(ScheduleError::Infeasible)
        ));
    }
}
