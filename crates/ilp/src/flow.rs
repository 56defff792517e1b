//! Min-cost flow by successive shortest paths, in checked `i64`.
//!
//! This is the dual side of [`DiffSystem::minimize`](crate::DiffSystem::minimize):
//! a difference LP's dual is a flow problem on its constraint graph. The
//! solver keeps node potentials that make every residual arc's reduced
//! cost nonnegative, so each shortest path is one Dijkstra run; it then
//! pushes the path's bottleneck capacity and shifts the potentials by the
//! distances found. Ties break by node index and adjacency follows arc
//! insertion order, so a given network always takes the same paths.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Residual capacity of an arc without an upper bound.
pub(crate) const UNCAPACITATED: i64 = i64::MAX;

/// An intermediate cost, capacity or potential left the `i64` range.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct Overflow;

/// A flow network in residual form: arc `e` and its reverse `e ^ 1` are
/// stored side by side, so the flow on a forward arc is its reverse's
/// residual capacity.
#[derive(Debug)]
pub(crate) struct Network {
    /// Head node of each arc; the tail of arc `e` is `head[e ^ 1]`.
    head: Vec<usize>,
    /// Residual capacity of each arc.
    cap: Vec<i64>,
    /// Cost per unit of each arc.
    cost: Vec<i64>,
}

impl Network {
    pub(crate) fn with_arcs(arcs: usize) -> Network {
        Network {
            head: Vec::with_capacity(2 * arcs),
            cap: Vec::with_capacity(2 * arcs),
            cost: Vec::with_capacity(2 * arcs),
        }
    }

    /// Adds an arc `u → v` and returns its index.
    pub(crate) fn add_arc(
        &mut self,
        u: usize,
        v: usize,
        cap: i64,
        cost: i64,
    ) -> Result<usize, Overflow> {
        let e = self.head.len();
        let back = cost.checked_neg().ok_or(Overflow)?;
        self.head.extend([v, u]);
        self.cap.extend([cap, 0]);
        self.cost.extend([cost, back]);
        Ok(e)
    }

    /// Units of flow on the forward arc `e`.
    pub(crate) fn flow(&self, e: usize) -> i64 {
        self.cap[e ^ 1]
    }

    /// Sends up to `amount` units from `s` to `t` along successive
    /// cheapest residual paths and returns the units sent; fewer than
    /// `amount` means `t` became unreachable. The result is a min-cost
    /// flow of its value.
    ///
    /// `pi` holds one potential per node and must make the reduced cost
    /// `cost(u→v) + pi[u] − pi[v]` of every residual arc nonnegative; it
    /// is kept that way. Each augmenting path counts as one solver pivot
    /// in [`crate::stats`].
    pub(crate) fn send(
        &mut self,
        s: usize,
        t: usize,
        amount: i64,
        pi: &mut [i64],
    ) -> Result<i64, Overflow> {
        let nodes = pi.len();
        // Adjacency in arc order (counting sort by tail node).
        let mut first = vec![0usize; nodes + 1];
        for e in 0..self.head.len() {
            first[self.head[e ^ 1] + 1] += 1;
        }
        for i in 0..nodes {
            first[i + 1] += first[i];
        }
        let mut fill = first.clone();
        let mut adj = vec![0usize; self.head.len()];
        for e in 0..self.head.len() {
            let u = self.head[e ^ 1];
            adj[fill[u]] = e;
            fill[u] += 1;
        }

        let mut dist = vec![i64::MAX; nodes];
        let mut pred = vec![usize::MAX; nodes];
        let mut done = vec![false; nodes];
        let mut heap = BinaryHeap::new();
        let mut sent = 0i64;
        while sent < amount {
            dist.fill(i64::MAX);
            done.fill(false);
            heap.clear();
            dist[s] = 0;
            heap.push(Reverse((0i64, s)));
            while let Some(Reverse((d, u))) = heap.pop() {
                if done[u] {
                    continue;
                }
                done[u] = true;
                if u == t {
                    break;
                }
                // d + cost + pi[u] - pi[v], with the u-terms hoisted.
                let base = d.checked_add(pi[u]).ok_or(Overflow)?;
                for &e in &adj[first[u]..first[u + 1]] {
                    let v = self.head[e];
                    if self.cap[e] == 0 || done[v] {
                        continue;
                    }
                    let nd = base
                        .checked_add(self.cost[e])
                        .and_then(|c| c.checked_sub(pi[v]))
                        .ok_or(Overflow)?;
                    debug_assert!(nd >= d, "potentials lost dual feasibility");
                    if nd < dist[v] {
                        dist[v] = nd;
                        pred[v] = e;
                        heap.push(Reverse((nd, v)));
                    }
                }
            }
            if !done[t] {
                break;
            }
            // Shift by distances capped at t's: reduced costs stay
            // nonnegative and every arc on the path becomes tight.
            let dt = dist[t];
            for (p, &d) in pi.iter_mut().zip(&dist) {
                *p = p.checked_add(d.min(dt)).ok_or(Overflow)?;
            }
            let mut push = amount - sent;
            let mut v = t;
            while v != s {
                let e = pred[v];
                push = push.min(self.cap[e]);
                v = self.head[e ^ 1];
            }
            let mut v = t;
            while v != s {
                let e = pred[v];
                self.cap[e] -= push;
                self.cap[e ^ 1] = self.cap[e ^ 1].checked_add(push).ok_or(Overflow)?;
                v = self.head[e ^ 1];
            }
            sent += push;
            crate::stats::record_pivot();
        }
        Ok(sent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picks_the_cheaper_route_then_the_dearer_one() {
        // s=0 → {1, 2} → t=3; the cheap route through 1 holds 2 units.
        let mut net = Network::with_arcs(4);
        let a = net.add_arc(0, 1, 2, 1).unwrap();
        let b = net.add_arc(0, 2, UNCAPACITATED, 5).unwrap();
        net.add_arc(1, 3, UNCAPACITATED, 1).unwrap();
        net.add_arc(2, 3, UNCAPACITATED, 1).unwrap();
        let mut pi = vec![0; 4];
        assert_eq!(net.send(0, 3, 5, &mut pi), Ok(5));
        assert_eq!((net.flow(a), net.flow(b)), (2, 3));
    }

    #[test]
    fn reports_what_it_could_not_send() {
        let mut net = Network::with_arcs(4);
        net.add_arc(0, 1, 3, 0).unwrap();
        let mut pi = vec![0; 3];
        assert_eq!(net.send(0, 2, 3, &mut pi), Ok(0));
    }

    #[test]
    fn negating_the_most_negative_cost_overflows() {
        let mut net = Network::with_arcs(4);
        assert_eq!(net.add_arc(0, 1, 1, i64::MIN), Err(Overflow));
    }
}
