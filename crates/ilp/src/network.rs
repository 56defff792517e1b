//! Uncapacitated min-cost flow by the primal network simplex, in checked
//! `i64`.
//!
//! This is the dual side of [`DiffSystem::minimize`](crate::DiffSystem::minimize):
//! a difference LP's dual is a flow problem on its constraint graph, with
//! node supplies and arcs without upper bounds. The basis is a spanning
//! tree of arcs, its flow fixed by the supplies; node potentials make
//! every tree arc's reduced cost `cost(u→v) + pi[u] − pi[v]` zero, and a
//! pivot brings in a non-tree arc of negative reduced cost.
//!
//! * **Start.** A crash basis from caller-given potentials (the
//!   minimizer's longest-path point): the arcs whose reduced cost is zero
//!   at those potentials span a forest, grown breadth-first from the root
//!   and then from each node it missed, in index order. Bottom-up, a node
//!   keeps its tight arc when that arc can carry its subtree's net supply
//!   with the tree strongly feasible; otherwise the subtree hangs from the
//!   root by an artificial arc carrying that supply, as does the top of
//!   every other tree of the forest. With no tight arc this is the
//!   artificial star. Costs and potentials are lexicographic
//!   `(artificial, cost)` pairs, so an artificial arc costs more than any
//!   path of real arcs without a big-M that could overflow. Flow left on
//!   an artificial arc at the optimum is supply the real arcs cannot
//!   route.
//! * **Entering arc.** Block search: the real arcs are priced in blocks of
//!   `⌊√m⌋`, round-robin from where the last search stopped, and the most
//!   negative arc of the first block holding one enters. Ties go to the
//!   arc priced first, so a network always takes the same pivots. (A
//!   floor of ten arcs a block made the examples' 10–50-arc leaf LPs
//!   20–60% slower.)
//! * **Leaving arc.** The tree stays strongly feasible (every arc without
//!   flow points toward the root): the leaving arc is the last blocking
//!   arc met going round the cycle from its apex, so degenerate pivots
//!   cannot cycle.
//! * **Update.** The path from the entering arc's endpoint to the leaving
//!   arc is reversed, and only the subtree it detaches is re-priced.
//!
//! Every vector is allocated once per solve. Each basis exchange counts as
//! one solver pivot in [`crate::stats`].

use crate::MinimizeError;

/// No node: the root's parent, and the end of a child list.
const NONE: usize = usize::MAX;

/// A lexicographic `(artificial, cost)` pair: a reduced cost or a
/// potential. The artificial part counts artificial arcs and stays within
/// the node count.
type Pair = (i64, i64);

/// The real arcs of an uncapacitated flow network.
#[derive(Debug)]
pub(crate) struct Network {
    tail: Vec<usize>,
    head: Vec<usize>,
    cost: Vec<i64>,
}

impl Network {
    pub(crate) fn with_arcs(arcs: usize) -> Network {
        Network {
            tail: Vec::with_capacity(arcs),
            head: Vec::with_capacity(arcs),
            cost: Vec::with_capacity(arcs),
        }
    }

    /// Adds an uncapacitated arc `u → v` and returns its index.
    pub(crate) fn add_arc(&mut self, u: usize, v: usize, cost: i64) -> usize {
        self.tail.push(u);
        self.head.push(v);
        self.cost.push(cost);
        self.tail.len() - 1
    }

    /// A min-cost flow that leaves each node `i` with net outflow
    /// `supply[i]`: the flow on every arc, in arc order, and the pivots the
    /// solve took. The supplies must sum to zero; the last node roots the
    /// basis. The start basis is the crash tree of the arcs tight at the
    /// potentials `pot`, one per node (module docs).
    ///
    /// # Errors
    ///
    /// [`MinimizeError::Unbounded`] when the arcs cannot route the
    /// supplies, and [`MinimizeError::Overflow`] when a flow or potential
    /// leaves the `i64` range, or when a cycle of negative cost makes the
    /// flow's cost unbounded (the caller has ruled such cycles out, so
    /// only arithmetic that saturated can hide one).
    pub(crate) fn solve(
        &self,
        supply: &[i64],
        pot: &[i64],
    ) -> Result<(Vec<i64>, u64), MinimizeError> {
        let mut tree = Tree::crash(self, supply, pot)?;
        let m = self.cost.len();
        let block = m.isqrt().max(1);
        let mut next = 0;
        let mut pivots = 0u64;
        while let Some(enter) = tree.entering(block, &mut next)? {
            tree.pivot(enter)?;
            pivots += 1;
        }
        crate::stats::record_pivots(pivots);
        let mut flow = tree.flow;
        if flow[m..].iter().any(|&f| f > 0) {
            return Err(MinimizeError::Unbounded);
        }
        flow.truncate(m);
        Ok((flow, pivots))
    }

    /// The arcs whose reduced cost at `pot` is zero, as an undirected
    /// adjacency over `nodes` nodes: node `u`'s arcs, in arc order, are
    /// `adj[start[u]..start[u + 1]]`. A reduced cost that overflows is not
    /// zero.
    fn tight_arcs(&self, pot: &[i64]) -> (Vec<usize>, Vec<usize>) {
        let nodes = pot.len();
        let tight: Vec<usize> = (0..self.cost.len())
            .filter(|&e| {
                let (t, h) = (self.tail[e], self.head[e]);
                t != h
                    && self.cost[e]
                        .checked_add(pot[t])
                        .and_then(|c| c.checked_sub(pot[h]))
                        == Some(0)
            })
            .collect();
        let mut start = vec![0usize; nodes + 1];
        for &e in &tight {
            start[self.tail[e] + 1] += 1;
            start[self.head[e] + 1] += 1;
        }
        for u in 0..nodes {
            start[u + 1] += start[u];
        }
        let mut fill = start.clone();
        let mut adj = vec![0usize; 2 * tight.len()];
        for &e in &tight {
            for end in [self.tail[e], self.head[e]] {
                adj[fill[end]] = e;
                fill[end] += 1;
            }
        }
        (start, adj)
    }
}

/// A node of the basis tree.
#[derive(Clone, Copy, Debug)]
struct Node {
    /// The node's parent, and the tree arc joining them.
    parent: usize,
    pred: usize,
    /// Whether `pred` points toward the root.
    up: bool,
    depth: usize,
    /// The node's potential, as an `(artificial, cost)` pair.
    pot: Pair,
    /// The node's children, as a doubly linked list.
    first_child: usize,
    next_sibling: usize,
    prev_sibling: usize,
}

/// A strongly feasible spanning-tree basis of `net`. Arcs `0..m` are the
/// network's real arcs and arc `m + i` is node `i`'s artificial arc (the
/// root's slot is unused); only flows are kept for the artificial ones.
struct Tree<'n> {
    net: &'n Network,
    flow: Vec<i64>,
    nodes: Vec<Node>,
    /// Scratch for the re-pricing walk.
    stack: Vec<usize>,
}

impl<'n> Tree<'n> {
    /// The crash basis of the arcs tight at `pot` (module docs). A node
    /// keeps its tight arc to its parent when the arc can carry the net
    /// supply `s` of the node's subtree: flow `s ≥ 0` up an arc pointing
    /// toward the root, or `−s > 0` down one pointing away, so that every
    /// arc without flow points up. Any other node `i` sends `s` up an
    /// artificial arc `i → root`, or receives `−s` down `root → i`, by
    /// the same rule. Every tree arc is tight, so each node's potential
    /// keeps `pot[i]` as its cost part.
    fn crash(net: &'n Network, supply: &[i64], pot: &[i64]) -> Result<Tree<'n>, MinimizeError> {
        let nodes = supply.len();
        let root = nodes - 1;
        let m = net.cost.len();
        let (start, adj) = net.tight_arcs(pot);
        let leaf = Node {
            parent: NONE,
            pred: NONE,
            up: false,
            depth: 0,
            pot: (0, 0),
            first_child: NONE,
            next_sibling: NONE,
            prev_sibling: NONE,
        };
        let mut tree = Tree {
            net,
            flow: vec![0; m + nodes],
            nodes: vec![leaf; nodes],
            stack: Vec::with_capacity(nodes),
        };

        // The tight forest, breadth-first from the root and then from each
        // node not reached yet; a tree's first node has no parent.
        let mut order = Vec::with_capacity(nodes);
        let mut seen = vec![false; nodes];
        for first in std::iter::once(root).chain(0..root) {
            if seen[first] {
                continue;
            }
            seen[first] = true;
            order.push(first);
            let mut next = order.len() - 1;
            while let Some(&u) = order.get(next) {
                next += 1;
                for &e in &adj[start[u]..start[u + 1]] {
                    let (t, h) = (net.tail[e], net.head[e]);
                    let v = if t == u { h } else { t };
                    if !seen[v] {
                        seen[v] = true;
                        let n = &mut tree.nodes[v];
                        (n.parent, n.pred, n.up) = (u, e, t == v);
                        order.push(v);
                    }
                }
            }
        }

        // Bottom-up: each subtree's net supply, and which tight arcs carry
        // it; a node that cannot keep its arc loses its parent.
        let mut sub = supply.to_vec();
        for &u in order.iter().rev() {
            let n = tree.nodes[u];
            if n.parent == NONE {
                continue;
            }
            let s = sub[u];
            if (n.up && s >= 0) || (!n.up && s < 0) {
                tree.flow[n.pred] = s.checked_abs().ok_or(MinimizeError::Overflow)?;
                sub[n.parent] = sub[n.parent]
                    .checked_add(s)
                    .ok_or(MinimizeError::Overflow)?;
            } else {
                tree.nodes[u].parent = NONE;
            }
        }

        // Top-down: hang every parentless node but the root from the root
        // by its artificial arc, then set depths and potentials.
        for &u in &order {
            if u == root {
                tree.nodes[u].pot = (0, pot[u]);
                continue;
            }
            let (parent, art) = match tree.nodes[u].parent {
                NONE => {
                    let s = sub[u];
                    tree.flow[m + u] = s.checked_abs().ok_or(MinimizeError::Overflow)?;
                    let n = &mut tree.nodes[u];
                    (n.pred, n.up) = (m + u, s >= 0);
                    (root, if s >= 0 { -1 } else { 1 })
                }
                p => (p, tree.nodes[p].pot.0),
            };
            let depth = tree.nodes[parent].depth + 1;
            let n = &mut tree.nodes[u];
            (n.depth, n.pot) = (depth, (art, pot[u]));
            tree.attach(u, parent);
        }
        Ok(tree)
    }

    /// The reduced cost `cost(e) + pot[tail] − pot[head]` of real arc `e`.
    fn reduced(&self, e: usize) -> Result<Pair, MinimizeError> {
        let (t, h) = (
            self.nodes[self.net.tail[e]].pot,
            self.nodes[self.net.head[e]].pot,
        );
        let cost = self.net.cost[e]
            .checked_add(t.1)
            .and_then(|c| c.checked_sub(h.1))
            .ok_or(MinimizeError::Overflow)?;
        Ok((t.0 - h.0, cost))
    }

    /// The entering arc by block search over the real arcs, resuming at
    /// `next`; `None` once no real arc has a negative reduced cost.
    fn entering(&self, block: usize, next: &mut usize) -> Result<Option<usize>, MinimizeError> {
        let m = self.net.cost.len();
        let mut best: Option<(Pair, usize)> = None;
        let mut e = *next;
        for scanned in 1..=m {
            let rc = self.reduced(e)?;
            if rc < best.map_or((0, 0), |b| b.0) {
                best = Some((rc, e));
            }
            e = if e + 1 == m { 0 } else { e + 1 };
            if scanned % block == 0 && best.is_some() {
                break;
            }
        }
        *next = e;
        Ok(best.map(|b| b.1))
    }

    /// Brings arc `enter` into the basis: pushes flow round the cycle it
    /// closes, drops the leaving arc and re-hangs the detached subtree.
    fn pivot(&mut self, enter: usize) -> Result<(), MinimizeError> {
        // Flow goes `first → second` along the entering arc, then up from
        // `second` to the apex and down from the apex to `first`.
        let (first, second) = (self.net.tail[enter], self.net.head[enter]);
        let apex = self.apex(first, second);

        // The leaving arc: the last blocking arc met from the apex — on
        // `second`'s side the one nearest the apex, else on `first`'s side
        // the one nearest `first`. An arc blocks where the cycle runs
        // against it: pointing up on `first`'s side, down on `second`'s.
        let mut delta = i64::MAX;
        let mut leave: Option<(usize, bool)> = None;
        let mut u = first;
        while u != apex {
            let n = self.nodes[u];
            if n.up && (leave.is_none() || self.flow[n.pred] < delta) {
                delta = self.flow[n.pred];
                leave = Some((u, true));
            }
            u = n.parent;
        }
        let mut u = second;
        while u != apex {
            let n = self.nodes[u];
            if !n.up && self.flow[n.pred] <= delta {
                delta = self.flow[n.pred];
                leave = Some((u, false));
            }
            u = n.parent;
        }
        // No blocking arc: a cycle of negative cost with no upper bound.
        let (out, on_first) = leave.ok_or(MinimizeError::Overflow)?;

        if delta > 0 {
            let grow = |f: i64| f.checked_add(delta).ok_or(MinimizeError::Overflow);
            self.flow[enter] = grow(self.flow[enter])?;
            for (start, along) in [(first, false), (second, true)] {
                let mut u = start;
                while u != apex {
                    let n = self.nodes[u];
                    self.flow[n.pred] = if n.up == along {
                        grow(self.flow[n.pred])?
                    } else {
                        self.flow[n.pred] - delta
                    };
                    u = n.parent;
                }
            }
        }

        // `into` is the entering arc's endpoint inside the subtree the
        // leaving arc cuts off; `onto` the one outside it.
        let (into, onto) = if on_first {
            (first, second)
        } else {
            (second, first)
        };
        let rc = self.reduced(enter)?;
        // Re-hang `into` from `onto` and reverse the path up to `out`.
        let (mut u, mut parent, mut arc, mut up) = (into, onto, enter, into == first);
        loop {
            let old = self.nodes[u];
            self.detach(u);
            self.nodes[u].pred = arc;
            self.nodes[u].up = up;
            self.attach(u, parent);
            if u == out {
                break;
            }
            (parent, arc, up) = (u, old.pred, !old.up);
            u = old.parent;
        }

        // The entering arc's reduced cost must become zero: every node of
        // the re-hung subtree moves by the same amount.
        let shift = if into == second { rc } else { (-rc.0, -rc.1) };
        self.stack.push(into);
        while let Some(u) = self.stack.pop() {
            let depth = self.nodes[self.nodes[u].parent].depth + 1;
            let n = &mut self.nodes[u];
            n.depth = depth;
            n.pot.0 += shift.0;
            n.pot.1 = n
                .pot
                .1
                .checked_add(shift.1)
                .ok_or(MinimizeError::Overflow)?;
            let mut c = n.first_child;
            while c != NONE {
                self.stack.push(c);
                c = self.nodes[c].next_sibling;
            }
        }
        Ok(())
    }

    /// The deepest common ancestor of `a` and `b`.
    fn apex(&self, mut a: usize, mut b: usize) -> usize {
        while a != b {
            let (na, nb) = (&self.nodes[a], &self.nodes[b]);
            if na.depth >= nb.depth {
                a = na.parent;
            } else {
                b = nb.parent;
            }
        }
        a
    }

    /// Links node `u` in as the first child of `parent`.
    fn attach(&mut self, u: usize, parent: usize) {
        let old = self.nodes[parent].first_child;
        let n = &mut self.nodes[u];
        n.parent = parent;
        n.prev_sibling = NONE;
        n.next_sibling = old;
        if old != NONE {
            self.nodes[old].prev_sibling = u;
        }
        self.nodes[parent].first_child = u;
    }

    /// Unlinks node `u` from its parent's children.
    fn detach(&mut self, u: usize) {
        let Node {
            parent,
            prev_sibling: prev,
            next_sibling: next,
            ..
        } = self.nodes[u];
        if prev == NONE {
            self.nodes[parent].first_child = next;
        } else {
            self.nodes[prev].next_sibling = next;
        }
        if next != NONE {
            self.nodes[next].prev_sibling = prev;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The dual of the difference LP `min Σ costs[i]·x_i` over
    /// `x_u − x_v >= k` for each `(u, v, k)` in `ge`, built as
    /// `DiffSystem::minimize` builds it (lower-bound arcs `i → z` when the
    /// costs sum below zero), solved from the potentials `x0`: the nodes
    /// of the crash tree, then the flow, the pivots, and the flow's cost,
    /// which is minus the primal optimum.
    fn solve_dual(
        ge: &[(usize, usize, i64)],
        lower: &[i64],
        costs: &[i64],
        x0: &[i64],
    ) -> (Vec<Node>, Vec<i64>, u64, i64) {
        let z = costs.len();
        let mut net = Network::with_arcs(ge.len() + z);
        for &(u, v, k) in ge {
            net.add_arc(u, v, -k);
        }
        let rest = -costs.iter().sum::<i64>();
        if rest < 0 {
            for (i, &lo) in lower.iter().enumerate() {
                net.add_arc(i, z, -lo);
            }
        }
        let supply: Vec<i64> = costs.iter().copied().chain([rest]).collect();
        let pot: Vec<i64> = x0.iter().copied().chain([0]).collect();
        let start = Tree::crash(&net, &supply, &pot).unwrap().nodes;
        let (flow, pivots) = net.solve(&supply, &pot).unwrap();
        let cost = flow.iter().zip(&net.cost).map(|(f, c)| f * c).sum();
        (start, flow, pivots, cost)
    }

    /// `min x0 + x1` with `x0 >= 5` and `x1 >= x0 + 2`: the lower-bound arc
    /// of x0 and the arc of `x1 − x0 >= 2` are tight at x0 = (5, 7) and
    /// carry both supplies into the root, so the crash tree is optimal.
    #[test]
    fn an_optimal_longest_path_point_takes_no_pivot() {
        let (start, flow, pivots, cost) = solve_dual(&[(1, 0, 2)], &[5, 0], &[1, 1], &[5, 7]);
        assert!(start[..2].iter().all(|n| n.pred < 3), "all real");
        assert_eq!((flow, pivots, cost), (vec![1, 2, 0], 0, -12));
    }

    /// `min x0 − x1` with `x1 − x0 >= 2` (tight at x0 = (0, 2)) and
    /// `x1 − x0 <= 5`: x1's demand cannot come up the tight arc `1 → 0`,
    /// so x1 hangs from the root by its artificial arc, and one pivot
    /// brings in `0 → 1`. The rational simplex of `tests/simplex` puts the
    /// optimum at −5 (`crash_start_cases_agree_with_oracle`).
    #[test]
    fn supply_that_cannot_ride_its_tight_arc_hangs_from_the_root() {
        let (start, flow, pivots, cost) =
            solve_dual(&[(1, 0, 2), (0, 1, -5)], &[0; 2], &[1, -1], &[0, 2]);
        assert_eq!((start[1].pred, start[1].up), (2 + 1, false));
        assert_eq!((flow, pivots, cost), (vec![0, 1], 1, 5));
    }

    /// `min (x2 − x0) + (x3 − x1)` with `x0 >= x1`, `x2 >= x0 + 3` and
    /// `x3 >= x1 + 2`: breadth-first from x0, x1 sits under the down arc
    /// `0 → 1` (of `x0 − x1 >= 0`, tight at x0 = (0, 0, 3, 2)) with x3
    /// below it, and their supplies cancel. A down arc without flow would
    /// break strong feasibility, so the pair hangs from the root by x1's
    /// artificial arc, empty and pointing up. The oracle's optimum is 5.
    #[test]
    fn a_zero_supply_subtree_under_a_down_arc_is_cut() {
        let (start, flow, pivots, cost) = solve_dual(
            &[(0, 1, 0), (2, 0, 3), (3, 1, 2)],
            &[0; 4],
            &[-1, -1, 1, 1],
            &[0, 0, 3, 2],
        );
        assert_eq!((start[1].pred, start[1].up), (3 + 1, true));
        assert_eq!(start[3].parent, 1);
        assert_eq!((flow, pivots, cost), (vec![0, 1, 1], 0, -5));
    }

    /// A delay LP's costs sum to zero, so the root has no real arc and
    /// every tree of the tight forest hangs from it by an artificial arc.
    /// `min x3 − x0` with `x2 >= x0 + 1`, `x2 >= x1 + 10` and `x3 >= x2`:
    /// at x0 = (0, 0, 10, 10) x0 alone demands, the tree of x1 supplies,
    /// and one pivot routes the unit `3 → 2 → 0`, delaying x0 to 9. The
    /// oracle's optimum is 1.
    #[test]
    fn a_root_without_real_arcs_joins_its_trees_by_pivots() {
        let (start, flow, pivots, cost) = solve_dual(
            &[(2, 0, 1), (2, 1, 10), (3, 2, 0)],
            &[0; 4],
            &[-1, 0, 0, 1],
            &[0, 0, 10, 10],
        );
        let tops: Vec<usize> = (0..4).filter(|&i| start[i].pred >= 3).collect();
        assert_eq!(tops, [0, 1]);
        assert_eq!((flow, pivots, cost), (vec![1, 0, 1], 1, -1));
    }

    #[test]
    fn picks_the_cheaper_route() {
        // 0 → {1, 2} → 3: five units from node 0 to node 3, the route
        // through 1 cheaper.
        let mut net = Network::with_arcs(4);
        let a = net.add_arc(0, 1, 1);
        let b = net.add_arc(0, 2, 5);
        net.add_arc(1, 3, 1);
        net.add_arc(2, 3, 1);
        let (flow, _) = net.solve(&[5, 0, 0, -5], &[0; 4]).unwrap();
        assert_eq!((flow[a], flow[b]), (5, 0));
    }

    #[test]
    fn reports_supply_it_cannot_route() {
        let mut net = Network::with_arcs(1);
        net.add_arc(0, 1, 0);
        assert_eq!(
            net.solve(&[0, 3, -3], &[0; 3]),
            Err(MinimizeError::Unbounded)
        );
    }

    #[test]
    fn equal_costs_terminate() {
        // A complete digraph on six nodes, every arc of cost zero: every
        // pivot is degenerate or ties, and the strongly feasible tree
        // still reaches the optimum.
        let mut net = Network::with_arcs(30);
        for u in 0..6 {
            for v in 0..6 {
                if u != v {
                    net.add_arc(u, v, 0);
                }
            }
        }
        let (flow, _) = net.solve(&[3, -1, 0, 2, -2, -2], &[0; 6]).unwrap();
        let mut out = [0i64; 6];
        for (e, &f) in flow.iter().enumerate() {
            out[net.tail[e]] += f;
            out[net.head[e]] -= f;
        }
        assert_eq!(out, [3, -1, 0, 2, -2, -2]);
    }

    #[test]
    fn a_negative_cycle_is_refused() {
        let mut net = Network::with_arcs(2);
        net.add_arc(0, 1, -1);
        net.add_arc(1, 0, 0);
        assert_eq!(net.solve(&[0, 0, 0], &[0; 3]), Err(MinimizeError::Overflow));
    }
}
