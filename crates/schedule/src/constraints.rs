//! Constraint formulation: Equ. 1b data dependencies, Equ. 1c memory
//! contention via access sets, the set-counting → arithmetic transformation
//! (Equ. 8–12), and constraint pruning (Sec. 5.4).
//!
//! # The pair-disjointness constraint, exactly
//!
//! With floor-based row semantics — stage `i` at cycle `t` is at raster
//! row `y_i = ⌊(t - S_i) / W⌋` and accesses buffer rows
//! `[y_i + off_i, y_i + off_i + h_i - 1]` — the requirement that entity
//! `i`'s rows stay *strictly behind* entity `j`'s rows at every cycle is
//!
//! ```text
//! ∀t  y_i + off_i + h_i - 1 < y_j + off_j
//! ```
//!
//! Since `y_j - y_i` over all `t` ranges exactly over
//! `{⌊D/W⌋, ⌈D/W⌉}` where `D = S_i - S_j`, the condition holds for all
//! `t` **iff** `⌊D/W⌋ ≥ off_i + h_i - off_j`, i.e. the linear constraint
//!
//! ```text
//! S_i - S_j ≥ W · (off_i + h_i - off_j)
//! ```
//!
//! This matches the paper's Equ. 12, whose stencil height is the trailing
//! entity's (`h_i` above), and, unlike the ceiling derivation in the
//! paper, is exact rather than merely sufficient — *away from the bottom
//! edge*. The rows above are unclamped, but the hardware clamps a window
//! at row `H - 1`. A window that only partly passes the edge reads a
//! subset of its modeled rows, which no constraint misses. A window wholly
//! below the frame — entity `i` on one of its last `off_i` raster rows —
//! reads row `H - 1` instead, which its modeled rows never include, so
//! there the constraint is neither exact nor sufficient. The pinned
//! counterexample is `synthetic_pipeline(29, 2710633447341882416)`
//! (ROADMAP item 1): at 64×48 its schedule meets every constraint, pruned
//! or not, yet on stage 2's buffer a reader with `off = 1` on raster row
//! 47 reads row 47 beside two other readers. The checker
//! ([`crate::checker`]) refuses it — "row 47 receives 3 accesses (> 2
//! ports) at cycle 3660", pinned by
//! `a_violation_keeps_its_cycle_through_the_memo`
//! (`crates/dse/tests/determinism.rs`).
//!
//! # Multirate stages and the common base clock
//!
//! With per-stage rates, every stage still spans the same `W·H` base
//! cycles; a stage at cumulative scale `(cx, cy)` merely computes on the
//! cadence sub-grid `y_b % cy == 0 ∧ x_b % cx == 0`. The producer `p` of a
//! buffer (scale `(pcx, pcy)`) emits one buffer row per **row period**
//! `P_p = pcy·W` base cycles, and — the key identity — *every* accessor of
//! that buffer advances through producer rows as `⌊(t − S) / P_p⌋ + off`:
//! the writer by construction, and each reader because its SRA base row is
//! `r0 = ⌊y_b / pcy⌋ = ⌊(t − S_c) / P_p⌋`. So the entire formulation above
//! holds verbatim with `W` replaced by the buffer's row period `P_p`, the
//! constraints stay linear [`DiffGe`]s, and the solver is untouched.
//! Rate-1 pipelines have `P_p = W` everywhere and produce bit-identical
//! constraint systems.

use crate::entity::{buffer_entities, AccessEntity};
use imagen_ilp::DiffSystem;
use imagen_ir::{Dag, StageId};
use imagen_obs::Memo;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A difference constraint `S_a - S_b >= k` over stage start cycles.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct DiffGe {
    /// Left stage (the trailing one in contention constraints).
    pub a: StageId,
    /// Right stage (the leading one).
    pub b: StageId,
    /// Required minimum gap in cycles.
    pub k: i64,
}

impl fmt::Display for DiffGe {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "S[{}] - S[{}] >= {}",
            self.a.index(),
            self.b.index(),
            self.k
        )
    }
}

/// An OR-group: at least one member constraint must hold (paper
/// Equ. 7a–7c). Groups with a single member are effectively hard.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct OrGroup {
    /// The alternatives.
    pub alternatives: Vec<DiffGe>,
    /// Which buffer (producer stage) generated this group.
    pub buffer: StageId,
}

/// The assembled constraint system for a pipeline.
#[derive(Clone, Debug)]
pub struct ConstraintSet {
    /// Always-on constraints: data dependencies, sync-group equalities
    /// (represented as two opposing `>=`), and collapsed OR-groups.
    pub hard: Vec<DiffGe>,
    /// Remaining OR-groups with two or more live alternatives.
    pub groups: Vec<OrGroup>,
    /// Statistics for the Sec. 8.2 experiments.
    pub stats: FormulationStats,
}

/// Formulation statistics (constraint pruning effectiveness, Sec. 8.2).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct FormulationStats {
    /// Data-dependency constraints emitted.
    pub dependencies: usize,
    /// (P+1)-combinations examined.
    pub combinations: usize,
    /// Raw OR alternatives before pruning.
    pub alternatives_raw: usize,
    /// Alternatives dropped as infeasible (contradict dependencies).
    pub pruned_infeasible: usize,
    /// Alternatives dropped as dominated (implied by a more relaxed one).
    pub pruned_dominated: usize,
    /// OR-groups that collapsed to a single alternative.
    pub groups_collapsed: usize,
    /// OR-groups still open after pruning (drive sub-problem search).
    pub groups_open: usize,
}

/// Scheduling options: how the constraint system is formulated.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ScheduleOptions {
    /// Apply Sec. 5.4 constraint pruning (on by default; the Sec. 8.2
    /// ablation turns it off).
    pub pruning: bool,
}

impl Default for ScheduleOptions {
    fn default() -> Self {
        ScheduleOptions { pruning: true }
    }
}

/// Per-stage memory parameters needed by the formulation.
pub trait BufferParams {
    /// Port count of the blocks under stage `p`'s buffer.
    fn ports(&self, p: StageId) -> u32;
    /// Coalescing factor `g` (rows per block) of stage `p`'s buffer.
    fn coalesce(&self, p: StageId) -> u32;
}

/// Data-dependency constant for an edge window (Equ. 1b, generalized):
/// the consumer must start `newest_row · P + 1` base cycles after the
/// producer, where `row_period` is the producer's row period `pcy·W`
/// (just `W` for rate-1 stages). Consumer pixel `(0,0)` needs producer
/// pixel `(0, newest_row)`, produced at `S_p + newest_row·P`; every later
/// consumer pixel's demand cancels exactly against its own base-clock
/// delay (down-readers because `ccy·W = fy·P`, up-readers because
/// `⌊y/fy⌋·P ≤ (y/fy)·P = ccy·y·W`), so this single constant is exact
/// for the whole frame.
pub fn dependency_gap(window: &imagen_ir::Window, row_period: i64) -> i64 {
    window.newest_row() as i64 * row_period + 1
}

/// Per-stage buffer row periods in base cycles: `pcy · W` for a stage at
/// cumulative scale `(pcx, pcy)`. Index by `StageId::index`.
pub fn row_periods(dag: &Dag, width: u32) -> Vec<i64> {
    dag.stage_scales()
        .iter()
        .map(|&(_, cy)| cy as i64 * width as i64)
        .collect()
}

/// The memory-spec-independent part of a formulation: data dependencies
/// (Equ. 1b), sync-group equalities, and the longest-path bounds they
/// imply, together with a memo of the formulation's per-buffer pieces.
///
/// Edge *windows* and sync groups are invariant under the line-coalescing
/// rewrite (which only re-partitions read ports), so a skeleton built from
/// the base DAG is valid for every per-stage DP/DPLC memory configuration
/// of that DAG. Design-space exploration builds it once per DAG and
/// re-runs only [`formulate_with`] per design point.
///
/// With the DAG and the width fixed, a buffer's access entities and
/// contention constraints (Equ. 1c) depend on four things only: its stage,
/// its ports, its coalescing factor and whether pruning is on. Coalescing
/// rewrites only that buffer's own consumer edges. So the skeleton keeps
/// each buffer's piece under those four in an [`imagen_obs::Memo`], and a
/// design point pays only for the buffers whose configuration no earlier
/// point shared: Canny-m's 512 DP/DPLC points at 64×48 build 18 pieces (9
/// buffers, 2 coalescing factors each). The memo has no cap: it holds one
/// piece per buffer and distinct configuration formulated, at most two per
/// buffer in a DP/DPLC sweep.
#[derive(Debug)]
pub struct ConstraintSkeleton {
    /// Dependency + sync-equality constraints (always hard).
    pub hard: Vec<DiffGe>,
    /// Longest-path bounds implied by `hard`.
    pub bounds: DiffBounds,
    /// How many of `hard` are data dependencies (for statistics).
    dependencies: usize,
    /// Row period of every stage's buffer at the skeleton's width.
    periods: Vec<i64>,
    /// Each buffer's piece, by its [`PieceKey`].
    pieces: Memo<PieceKey, Arc<BufferPiece>>,
}

/// What one buffer's formulation piece depends on, the skeleton's DAG and
/// width aside.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct PieceKey {
    buffer: StageId,
    ports: u32,
    coalesce: u32,
    pruning: bool,
}

/// One hashed word per key rather than the derived four. Every plan looks
/// up each of its buffers, and on a one-shot session every lookup misses
/// and hashes twice, so hashing is a large share of what the memo costs.
impl Hash for PieceKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let index = self.buffer.index() as u64;
        let params = u64::from(self.ports) << 33 | u64::from(self.coalesce) << 1;
        state.write_u64(index.rotate_left(48) ^ params ^ u64::from(self.pruning));
    }
}

/// One buffer's share of a formulation: its access entities on the
/// coalesced DAG and the contention constraints among them, with their
/// statistics (`dependencies` stays zero).
#[derive(Debug)]
pub(crate) struct BufferPiece {
    pub(crate) entities: Vec<AccessEntity>,
    hard: Vec<DiffGe>,
    groups: Vec<OrGroup>,
    stats: FormulationStats,
}

/// Builds the spec-independent constraint skeleton for `dag` at image
/// width `width` (the cacheable front half of [`formulate`]).
pub fn formulate_skeleton(dag: &Dag, width: u32) -> ConstraintSkeleton {
    let mut hard: Vec<DiffGe> = Vec::new();
    let mut dependencies = 0usize;
    let periods = row_periods(dag, width);

    // --- Data dependencies (Equ. 1b) --------------------------------
    for (_, e) in dag.edges() {
        hard.push(DiffGe {
            a: e.consumer(),
            b: e.producer(),
            k: dependency_gap(e.window(), periods[e.producer().index()]),
        });
        dependencies += 1;
    }

    // --- Sync-group equalities (linearization relays) ---------------
    let mut groups_seen: Vec<(u32, StageId)> = Vec::new();
    for (id, s) in dag.stages() {
        if let Some(g) = s.sync_group() {
            if let Some((_, rep)) = groups_seen.iter().find(|(gg, _)| *gg == g) {
                hard.push(DiffGe {
                    a: id,
                    b: *rep,
                    k: 0,
                });
                hard.push(DiffGe {
                    a: *rep,
                    b: id,
                    k: 0,
                });
            } else {
                groups_seen.push((g, id));
            }
        }
    }

    // Longest-path lower bounds on start-cycle differences implied by the
    // hard constraints; used by both pruning rules.
    let bounds = DiffBounds::new(dag.num_stages(), &hard);
    ConstraintSkeleton {
        hard,
        bounds,
        dependencies,
        periods,
        pieces: Memo::new(),
    }
}

impl ConstraintSkeleton {
    /// Distinct per-buffer formulation pieces built so far: the entry
    /// count of the skeleton's memo. It counts keys, so it depends only on
    /// the configurations formulated, not on their order or on how many
    /// threads formulated them.
    pub fn piece_count(&self) -> usize {
        self.pieces.len()
    }

    /// The piece of every buffer of `dag`, in [`Dag::buffered_stages`]
    /// order, each built on its first lookup. `dag` is the skeleton's DAG
    /// with each buffer coalesced by `params.coalesce`.
    pub(crate) fn pieces(
        &self,
        dag: &Dag,
        params: &impl BufferParams,
        opts: ScheduleOptions,
    ) -> Vec<Arc<BufferPiece>> {
        dag.buffered_stages()
            .into_iter()
            .map(|p| {
                let key = PieceKey {
                    buffer: p,
                    ports: params.ports(p),
                    coalesce: params.coalesce(p),
                    pruning: opts.pruning,
                };
                let build = || Arc::new(self.build_piece(dag, key));
                self.pieces.get_or_compute(&key, build).0
            })
            .collect()
    }

    /// The skeleton's constraints followed by each piece's, in order.
    pub(crate) fn assemble(&self, pieces: &[Arc<BufferPiece>]) -> ConstraintSet {
        let contention: usize = pieces.iter().map(|p| p.hard.len()).sum();
        let mut hard = Vec::with_capacity(self.hard.len() + contention);
        hard.extend_from_slice(&self.hard);
        let mut groups = Vec::new();
        let mut stats = FormulationStats {
            dependencies: self.dependencies,
            ..FormulationStats::default()
        };
        for piece in pieces {
            hard.extend_from_slice(&piece.hard);
            groups.extend_from_slice(&piece.groups);
            let s = &piece.stats;
            stats.combinations += s.combinations;
            stats.alternatives_raw += s.alternatives_raw;
            stats.pruned_infeasible += s.pruned_infeasible;
            stats.pruned_dominated += s.pruned_dominated;
            stats.groups_collapsed += s.groups_collapsed;
            stats.groups_open += s.groups_open;
        }
        ConstraintSet {
            hard,
            groups,
            stats,
        }
    }

    /// The contention constraints (Equ. 1c) of the buffer `key` names.
    fn build_piece(&self, dag: &Dag, key: PieceKey) -> BufferPiece {
        let PieceKey {
            buffer: p,
            ports,
            coalesce: g,
            pruning,
        } = key;
        let bounds = &self.bounds;
        let mut piece = BufferPiece {
            entities: buffer_entities(dag, p),
            hard: Vec::new(),
            groups: Vec::new(),
            stats: FormulationStats::default(),
        };
        let BufferPiece {
            entities,
            hard,
            groups,
            stats,
        } = &mut piece;
        // All accessors of this buffer walk producer rows with the same
        // period (module docs), so the seed's width becomes the buffer's
        // row period.
        let w = self.periods[p.index()];

        if g > 1 {
            // Coalesced buffer: deterministic pairwise constraints (see
            // module docs of `plan`): the writer must clear each consumer's
            // whole window by one row; distinct consumers must be at least
            // row-disjoint (block-disjoint when 2(g-1) > P).
            let block_gap = if 2 * (g - 1) > ports { g as i64 } else { 1 };
            for (i, a) in entities.iter().enumerate() {
                for b in entities.iter().skip(i + 1) {
                    push_coalesced_pair(hard, a, b, w, block_gap, bounds);
                }
            }
            return piece;
        }

        // Un-coalesced: (P+1)-combination machinery (Equ. 5).
        let n = entities.len();
        let k = ports as usize + 1;
        if n < k {
            return piece;
        }
        for combo in combinations(n, k) {
            stats.combinations += 1;
            let mut alternatives = Vec::new();
            for &i in &combo {
                for &j in &combo {
                    if i == j {
                        continue;
                    }
                    let (ei, ej) = (&entities[i], &entities[j]);
                    let gap = ei.top_offset() as i64 + 1 - ej.row_offset as i64;
                    stats.alternatives_raw += 1;
                    if ei.stage == ej.stage {
                        // Same physical stage: statically decided.
                        if gap <= 0 {
                            // Already disjoint; whole combination satisfied.
                            alternatives.clear();
                            alternatives.push(DiffGe {
                                a: ei.stage,
                                b: ej.stage,
                                k: 0,
                            });
                            break;
                        }
                        stats.pruned_infeasible += 1;
                        continue;
                    }
                    let c = DiffGe {
                        a: ei.stage,
                        b: ej.stage,
                        k: w * gap,
                    };
                    if pruning && bounds.is_infeasible(&c) {
                        stats.pruned_infeasible += 1;
                        continue;
                    }
                    alternatives.push(c);
                }
                if alternatives.len() == 1 && alternatives[0].k == 0 {
                    break; // statically satisfied combination
                }
            }
            if alternatives.len() == 1 && alternatives[0].k == 0 {
                continue;
            }
            if pruning {
                let before = alternatives.len();
                alternatives = prune_dominated(alternatives, bounds);
                stats.pruned_dominated += before - alternatives.len();
            }
            match alternatives.len() {
                0 => {
                    // Every alternative contradicted the dependencies: the
                    // combination is unsatisfiable — surface it as an open
                    // group so the solver reports infeasibility honestly.
                    groups.push(OrGroup {
                        alternatives,
                        buffer: p,
                    });
                    stats.groups_open += 1;
                }
                1 => {
                    hard.push(alternatives[0]);
                    stats.groups_collapsed += 1;
                }
                _ => {
                    stats.groups_open += 1;
                    groups.push(OrGroup {
                        alternatives,
                        buffer: p,
                    });
                }
            }
        }
        piece
    }
}

/// Builds the full constraint system for `dag` at image width `width`.
pub fn formulate(
    dag: &Dag,
    width: u32,
    params: &impl BufferParams,
    opts: ScheduleOptions,
) -> ConstraintSet {
    formulate_with(dag, &formulate_skeleton(dag, width), params, opts)
}

/// Completes a [`ConstraintSkeleton`] with the memory-config-dependent
/// contention constraints (Equ. 1c) for `dag`: the skeleton's constraints,
/// then each buffer's memoized piece in [`Dag::buffered_stages`] order,
/// built on the first lookup of its stage, ports, coalescing factor and
/// pruning flag. The result equals [`formulate`]'s on `dag`.
///
/// `dag` may be the coalesced working copy of the DAG the skeleton was
/// built from, each buffer coalesced by `params.coalesce`: the rewrite
/// changes read ports but neither windows nor sync groups, so the
/// skeleton stays exact, and it changes only the coalesced buffer's own
/// entities, so a piece serves every DAG that coalesces its buffer alike.
pub fn formulate_with(
    dag: &Dag,
    skeleton: &ConstraintSkeleton,
    params: &impl BufferParams,
    opts: ScheduleOptions,
) -> ConstraintSet {
    skeleton.assemble(&skeleton.pieces(dag, params, opts))
}

fn push_coalesced_pair(
    hard: &mut Vec<DiffGe>,
    a: &AccessEntity,
    b: &AccessEntity,
    w: i64,
    block_gap: i64,
    bounds: &DiffBounds,
) {
    if a.stage == b.stage {
        return; // virtual siblings partition the window statically
    }
    // Writer–reader: the writer must stay a full row past the reader's
    // newest block row; reader–reader: (block-)disjoint, trailing form.
    // Emit the orientation consistent with the dependency bounds.
    let mk = |trail: &AccessEntity, lead: &AccessEntity| -> DiffGe {
        let extra = if lead.is_writer || trail.is_writer {
            1
        } else {
            block_gap
        };
        DiffGe {
            a: trail.stage,
            b: lead.stage,
            k: w * (trail.top_offset() as i64 + extra - lead.row_offset as i64),
        }
    };
    let ab = mk(a, b);
    let ba = mk(b, a);
    let ab_bad = bounds.is_infeasible(&ab);
    let ba_bad = bounds.is_infeasible(&ba);
    match (ab_bad, ba_bad) {
        (false, true) => hard.push(ab),
        (true, false) => hard.push(ba),
        // Ambiguous orientation: order by existing dependency direction
        // (b reachable from a means a leads), defaulting to `ab`.
        _ => {
            if bounds.gap(b.stage, a.stage) > i64::MIN {
                hard.push(ba)
            } else {
                hard.push(ab)
            }
        }
    }
}

/// Longest-path lower bounds `S_a - S_b >= gap(a, b)` implied by a set of
/// hard difference constraints.
#[derive(Clone, Debug)]
pub struct DiffBounds {
    n: usize,
    /// `gap[a * n + b]`; `i64::MIN` when unconstrained.
    gap: Vec<i64>,
}

impl DiffBounds {
    /// Computes all-pairs longest paths over the constraint graph.
    pub fn new(n: usize, hard: &[DiffGe]) -> DiffBounds {
        let mut gap = vec![i64::MIN; n * n];
        for i in 0..n {
            gap[i * n + i] = 0;
        }
        for c in hard {
            let idx = c.a.index() * n + c.b.index();
            if c.k > gap[idx] {
                gap[idx] = c.k;
            }
        }
        // Floyd–Warshall, max-plus semiring.
        for m in 0..n {
            for i in 0..n {
                let gim = gap[i * n + m];
                if gim == i64::MIN {
                    continue;
                }
                for j in 0..n {
                    let gmj = gap[m * n + j];
                    if gmj == i64::MIN {
                        continue;
                    }
                    let cand = gim.saturating_add(gmj);
                    if cand > gap[i * n + j] {
                        gap[i * n + j] = cand;
                    }
                }
            }
        }
        DiffBounds { n, gap }
    }

    /// Lower bound on `S_a - S_b` (`i64::MIN` when unconstrained).
    pub fn gap(&self, a: StageId, b: StageId) -> i64 {
        self.gap[a.index() * self.n + b.index()]
    }

    /// Whether constraint `c` contradicts the implied bounds: if the
    /// system forces `S_b - S_a >= m` then `S_a - S_b <= -m`, so `c`
    /// (requiring `S_a - S_b >= k`) is unsatisfiable when `-m < k`.
    pub fn is_infeasible(&self, c: &DiffGe) -> bool {
        let m = self.gap(c.b, c.a);
        m != i64::MIN && -m < c.k
    }

    /// Whether constraint `by` implies constraint `c`:
    /// `S_a ≥ S_x + gap(a,x)` and `S_y ≥ S_b + gap(y,b)` chain with
    /// `S_x - S_y >= by.k` to give `S_a - S_b >= gap(a,x) + by.k + gap(y,b)`.
    pub fn implies(&self, by: &DiffGe, c: &DiffGe) -> bool {
        let g1 = self.gap(c.a, by.a);
        let g2 = self.gap(by.b, c.b);
        if g1 == i64::MIN || g2 == i64::MIN {
            return false;
        }
        g1.saturating_add(by.k).saturating_add(g2) >= c.k
    }
}

/// Removes alternatives implied by a more relaxed sibling (Sec. 5.4: in an
/// OR, a constraint implied by another is the *stricter* one and can be
/// dropped without losing optimality).
fn prune_dominated(mut alts: Vec<DiffGe>, bounds: &DiffBounds) -> Vec<DiffGe> {
    alts.sort_by_key(|c| (c.a, c.b, c.k));
    alts.dedup();
    let mut keep = vec![true; alts.len()];
    for i in 0..alts.len() {
        if !keep[i] {
            continue;
        }
        for j in 0..alts.len() {
            if i == j || !keep[j] {
                continue;
            }
            // If alternative j implies alternative i, any schedule chosen
            // via j also satisfies i, so j is redundant as an alternative.
            if bounds.implies(&alts[j], &alts[i]) {
                keep[j] = false;
            }
        }
    }
    alts.into_iter()
        .zip(keep)
        .filter_map(|(a, k)| k.then_some(a))
        .collect()
}

/// All `k`-subsets of `0..n` (lexicographic).
fn combinations(n: usize, k: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut cur = Vec::with_capacity(k);
    fn rec(start: usize, n: usize, k: usize, cur: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if cur.len() == k {
            out.push(cur.clone());
            return;
        }
        for i in start..n {
            if n - i < k - cur.len() {
                break;
            }
            cur.push(i);
            rec(i + 1, n, k, cur, out);
            cur.pop();
        }
    }
    rec(0, n, k, &mut cur, &mut out);
    out
}

/// Feasibility check of a concrete schedule against a constraint set
/// (hard constraints and at least one alternative per group).
pub fn schedule_satisfies(set: &ConstraintSet, starts: &[i64]) -> bool {
    let ok = |c: &DiffGe| starts[c.a.index()] - starts[c.b.index()] >= c.k;
    set.hard.iter().all(ok) && set.groups.iter().all(|g| g.alternatives.iter().any(ok))
}

/// Builds a [`DiffSystem`] from hard constraints plus chosen alternatives
/// (for ASAP scheduling and fast feasibility checks).
pub fn to_diff_system(n: usize, hard: &[DiffGe], chosen: &[DiffGe]) -> DiffSystem {
    let mut sys = DiffSystem::new(n);
    for c in hard.iter().chain(chosen) {
        sys.add_ge(c.a.index(), c.b.index(), c.k);
    }
    sys
}

#[cfg(test)]
mod tests {
    use super::*;
    use imagen_ir::Expr;

    struct Uniform {
        ports: u32,
        g: u32,
    }
    impl BufferParams for Uniform {
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

    /// Fig. 6 pipeline: K0 -> K1 -> K2, K2 also reads K0.
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

    #[test]
    fn dependency_gaps_match_paper() {
        // 3x3 window: (SH-1)*W + 1 = 2W + 1.
        let dag = fig6();
        let set = formulate(
            &dag,
            480,
            &Uniform { ports: 2, g: 1 },
            ScheduleOptions::default(),
        );
        assert!(set
            .hard
            .iter()
            .any(|c| c.a.index() == 1 && c.b.index() == 0 && c.k == 961));
    }

    #[test]
    fn fig6_pruning_collapses_to_single_constraint() {
        // The paper's worked example: the three OR-ed pair constraints on
        // K0's buffer reduce to the single writer-vs-K2 constraint
        // (Equ. 7b survives; 7a and 7c are dominated).
        let dag = fig6();
        let set = formulate(
            &dag,
            480,
            &Uniform { ports: 2, g: 1 },
            ScheduleOptions::default(),
        );
        assert_eq!(
            set.stats.combinations, 1,
            "one 3-combination on K0's buffer"
        );
        assert_eq!(set.groups.len(), 0, "group fully collapsed");
        assert_eq!(set.stats.groups_collapsed, 1);
        // The surviving constraint forces K2 behind K0's writer. K2's
        // 2-row window on K0 sits at lag 1 (it aligns with K2's 3-row
        // window on K1), so its newest row offset is 2 and the gap is 3W.
        assert!(set
            .hard
            .iter()
            .any(|c| c.a.index() == 2 && c.b.index() == 0 && c.k == 3 * 480));
    }

    #[test]
    fn pruning_off_keeps_group_open() {
        let dag = fig6();
        let set = formulate(
            &dag,
            480,
            &Uniform { ports: 2, g: 1 },
            ScheduleOptions { pruning: false },
        );
        // Without pruning the combination keeps multiple feasible-looking
        // alternatives (writer-behind-reader ones are syntactically kept).
        assert_eq!(set.groups.len(), 1);
        assert!(set.groups[0].alternatives.len() >= 2);
    }

    #[test]
    fn single_port_all_pairs_constrained() {
        // FixyNN mode: P=1 -> every pair of accessors forms a combination.
        let dag = fig6();
        let set = formulate(
            &dag,
            480,
            &Uniform { ports: 1, g: 1 },
            ScheduleOptions::default(),
        );
        // K0's buffer has 3 entities -> 3 pairs; K1's has 2 -> 1 pair.
        assert_eq!(set.stats.combinations, 4);
        // All collapse: the only feasible orientation is reader-behind-writer.
        assert_eq!(set.groups.len(), 0);
        // Writer/K1 pair on K0's buffer: S_1 - S_0 >= 3W.
        assert!(set
            .hard
            .iter()
            .any(|c| c.a.index() == 1 && c.b.index() == 0 && c.k == 3 * 480));
    }

    #[test]
    fn dual_port_single_consumer_unconstrained() {
        // Writer + one reader on dual-port blocks: no combination of size
        // 3 exists; only the dependency remains.
        let mut dag = Dag::new("chain");
        let k0 = dag.add_input("K0");
        let k1 = dag.add_stage("K1", &[k0], box3(0)).unwrap();
        dag.mark_output(k1);
        let set = formulate(
            &dag,
            480,
            &Uniform { ports: 2, g: 1 },
            ScheduleOptions::default(),
        );
        assert_eq!(set.stats.combinations, 0);
        assert_eq!(set.hard.len(), 1, "just the dependency");
    }

    #[test]
    fn coalesced_writer_gap_is_full_window() {
        // g=2: writer must clear the reader's whole 3-row window: D >= 3W.
        let mut dag = Dag::new("chain");
        let k0 = dag.add_input("K0");
        let k1 = dag.add_stage("K1", &[k0], box3(0)).unwrap();
        dag.mark_output(k1);
        imagen_ir::apply_line_coalescing(&mut dag, |_| imagen_ir::CoalesceFactor::new(2));
        let set = formulate(
            &dag,
            480,
            &Uniform { ports: 2, g: 2 },
            ScheduleOptions::default(),
        );
        // Strongest writer constraint: trailing reader port covering rows
        // [2,2]: S_1 - S_0 >= (2 + 1) * W = 3W.
        let max_k = set
            .hard
            .iter()
            .filter(|c| c.a.index() == 1 && c.b.index() == 0)
            .map(|c| c.k)
            .max()
            .unwrap();
        assert_eq!(max_k, 3 * 480);
    }

    #[test]
    fn bounds_and_implication() {
        let dag = fig6();
        let set = formulate(
            &dag,
            480,
            &Uniform { ports: 2, g: 1 },
            ScheduleOptions::default(),
        );
        let bounds = DiffBounds::new(dag.num_stages(), &set.hard);
        // Path K0 -> K1 -> K2 composes: S2 - S0 >= 961 + 961.
        assert!(bounds.gap(StageId::from_index(2), StageId::from_index(0)) >= 1922);
        // Writer never trails its consumer.
        let bad = DiffGe {
            a: StageId::from_index(0),
            b: StageId::from_index(2),
            k: 480,
        };
        assert!(bounds.is_infeasible(&bad));
    }

    #[test]
    fn combination_enumeration() {
        assert_eq!(combinations(4, 3).len(), 4);
        assert_eq!(combinations(5, 2).len(), 10);
        assert_eq!(combinations(3, 3), vec![vec![0, 1, 2]]);
    }

    #[test]
    fn schedule_satisfaction_checker() {
        let dag = fig6();
        let set = formulate(
            &dag,
            480,
            &Uniform { ports: 2, g: 1 },
            ScheduleOptions::default(),
        );
        // The paper-optimal schedule for Fig. 6 style pipelines.
        assert!(schedule_satisfies(&set, &[0, 961, 1922]));
        assert!(!schedule_satisfies(&set, &[0, 961, 960]));
    }
}
