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
//! * **Start.** An artificial star: one artificial arc between every node
//!   and the root, carrying the node's supply. Costs and potentials are
//!   lexicographic `(artificial, cost)` pairs, so an artificial arc costs
//!   more than any path of real arcs without a big-M that could overflow.
//!   Flow left on an artificial arc at the optimum is supply the real arcs
//!   cannot route.
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
    /// `supply[i]`: the flow on every arc, in arc order. The supplies must
    /// sum to zero; the last node roots the basis.
    ///
    /// # Errors
    ///
    /// [`MinimizeError::Unbounded`] when the arcs cannot route the
    /// supplies, and [`MinimizeError::Overflow`] when a flow or potential
    /// leaves the `i64` range, or when a cycle of negative cost makes the
    /// flow's cost unbounded (the caller has ruled such cycles out, so
    /// only arithmetic that saturated can hide one).
    pub(crate) fn solve(&self, supply: &[i64]) -> Result<Vec<i64>, MinimizeError> {
        let mut tree = Tree::star(self, supply)?;
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
        Ok(flow)
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
    /// The artificial star basis: node `i` sends its supply up an
    /// artificial arc `i → root`, or receives its demand down `root → i`.
    /// Arcs without flow point up, so the star is strongly feasible.
    fn star(net: &'n Network, supply: &[i64]) -> Result<Tree<'n>, MinimizeError> {
        let root = supply.len() - 1;
        let m = net.cost.len();
        let leaf = Node {
            parent: NONE,
            pred: NONE,
            up: false,
            depth: 1,
            pot: (0, 0),
            first_child: NONE,
            next_sibling: NONE,
            prev_sibling: NONE,
        };
        let mut tree = Tree {
            net,
            flow: vec![0; m + supply.len()],
            nodes: vec![leaf; supply.len()],
            stack: Vec::with_capacity(supply.len()),
        };
        tree.nodes[root].depth = 0;
        for (i, &b) in supply[..root].iter().enumerate() {
            tree.flow[m + i] = b.checked_abs().ok_or(MinimizeError::Overflow)?;
            let node = &mut tree.nodes[i];
            node.pred = m + i;
            node.up = b >= 0;
            node.pot = (if b >= 0 { -1 } else { 1 }, 0);
            tree.attach(i, root);
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

    #[test]
    fn picks_the_cheaper_route() {
        // 0 → {1, 2} → 3: five units from node 0 to node 3, the route
        // through 1 cheaper.
        let mut net = Network::with_arcs(4);
        let a = net.add_arc(0, 1, 1);
        let b = net.add_arc(0, 2, 5);
        net.add_arc(1, 3, 1);
        net.add_arc(2, 3, 1);
        let flow = net.solve(&[5, 0, 0, -5]).unwrap();
        assert_eq!((flow[a], flow[b]), (5, 0));
    }

    #[test]
    fn reports_supply_it_cannot_route() {
        let mut net = Network::with_arcs(1);
        net.add_arc(0, 1, 0);
        assert_eq!(net.solve(&[0, 3, -3]), Err(MinimizeError::Unbounded));
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
        let flow = net.solve(&[3, -1, 0, 2, -2, -2]).unwrap();
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
        assert_eq!(net.solve(&[0, 0, 0]), Err(MinimizeError::Overflow));
    }
}
