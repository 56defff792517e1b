//! Line-coalescing DAG rewrite (paper Sec. 6, Algo. 1).
//!
//! When a memory block is large enough to hold `g > 1` image rows, several
//! line-buffer rows can be *coalesced* into one block, reducing the block
//! count (and hence SRAM/BRAM area). The paper expresses this to the
//! optimizer by splitting each consumer into "virtual stages" that share a
//! start cycle; in this implementation the virtual stages are the
//! [`ReadPort`]s of an edge — contiguous row groups of at most `g` rows —
//! which share the consumer's start cycle by construction.
//!
//! The split is bounded by the port count `P` of the blocks: a block of
//! `g` rows receives up to `min(height, g)` simultaneous reads from one
//! consumer, so `g` may not exceed `P` (writer traffic is kept off
//! saturated blocks by the scheduler's contention constraints).

use crate::graph::{Dag, EdgeId, ReadPort};

/// Per-buffer coalescing decision: how many rows share one memory block.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CoalesceFactor(u32);

impl CoalesceFactor {
    /// No coalescing: one row per block.
    pub const NONE: CoalesceFactor = CoalesceFactor(1);

    /// Creates a factor of `g` rows per block.
    ///
    /// # Panics
    ///
    /// Panics if `g == 0`.
    #[track_caller]
    pub fn new(g: u32) -> CoalesceFactor {
        assert!(g > 0, "coalescing factor must be at least 1");
        CoalesceFactor(g)
    }

    /// Rows per block.
    pub fn rows_per_block(&self) -> u32 {
        self.0
    }

    /// Whether this factor actually coalesces (`g > 1`).
    pub fn is_coalesced(&self) -> bool {
        self.0 > 1
    }
}

/// Report of one rewritten edge.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CoalescedEdge {
    /// The edge whose ports were split.
    pub edge: EdgeId,
    /// Number of virtual stages (read ports) after the split.
    pub virtual_stages: u32,
}

/// Applies line coalescing to every edge whose producer's buffer uses a
/// coalesced block layout.
///
/// `factor(producer_index)` returns the coalescing factor chosen for each
/// producer's line buffer (e.g. from the memory specification, or from a
/// DSE sweep assigning DP vs. DPLC per stage). Edges reading a coalesced
/// buffer get their window rows re-partitioned into ports of at most `g`
/// rows — the paper's virtual stages (a 3-row window with `g = 2` becomes
/// ports of 2 and 1 rows, matching Fig. 7's `K21`/`K22`).
///
/// Returns the list of rewritten edges.
pub fn apply_line_coalescing(
    dag: &mut Dag,
    factor: impl Fn(usize) -> CoalesceFactor,
) -> Vec<CoalescedEdge> {
    let mut rewritten = Vec::new();
    let edge_ids: Vec<EdgeId> = dag.edges().map(|(id, _)| id).collect();
    for id in edge_ids {
        let e = dag.edge(id);
        let g = factor(e.producer().index());
        if !g.is_coalesced() {
            continue;
        }
        let w = *e.window();
        if w.height <= 1 {
            continue;
        }
        let g = g.rows_per_block();
        // Partition rows [lag, lag + height) into chunks of at most g rows.
        // Chunks are anchored to the window top, mirroring Fig. 7 where the
        // first virtual stage takes the full-block rows and the last takes
        // the remainder.
        let mut ports = Vec::new();
        let mut row = w.lag;
        let end = w.lag + w.height;
        while row < end {
            let h = g.min(end - row);
            ports.push(ReadPort {
                row_offset: row,
                height: h,
            });
            row += h;
        }
        if ports.len() > 1 {
            let n = ports.len() as u32;
            dag.set_edge_ports(id, ports);
            rewritten.push(CoalescedEdge {
                edge: id,
                virtual_stages: n,
            });
        }
    }
    rewritten
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::graph::Dag;

    fn column(slot: usize, h: i32) -> Expr {
        Expr::sum((0..h).map(move |dy| Expr::tap(slot, 0, dy)))
    }

    #[test]
    fn factor_coalesces_above_one_row() {
        assert_eq!(CoalesceFactor::new(2).rows_per_block(), 2);
        assert!(CoalesceFactor::new(2).is_coalesced());
        assert!(!CoalesceFactor::NONE.is_coalesced());
    }

    #[test]
    fn fig7_three_rows_two_ports() {
        // Fig. 7: K1 -> K2 with a 3-row window, dual-port blocks holding
        // two rows: K2 splits into virtual stages of heights 2 and 1.
        let mut dag = Dag::new("fig7");
        let k1 = dag.add_input("K1");
        let k2 = dag.add_stage("K2", &[k1], column(0, 3)).unwrap();
        dag.mark_output(k2);
        let rewritten = apply_line_coalescing(&mut dag, |_| CoalesceFactor::new(2));
        assert_eq!(rewritten.len(), 1);
        assert_eq!(rewritten[0].virtual_stages, 2);
        let (_, e) = dag.consumer_edges(k1).next().unwrap();
        assert_eq!(
            e.ports(),
            &[
                ReadPort {
                    row_offset: 0,
                    height: 2
                },
                ReadPort {
                    row_offset: 2,
                    height: 1
                }
            ]
        );
    }

    #[test]
    fn tall_window_chunks_by_factor() {
        // An 18-row window (Xcorr-m's tall stencil) with g=2 -> 9 ports.
        let mut dag = Dag::new("tall");
        let k0 = dag.add_input("K0");
        let k1 = dag.add_stage("K1", &[k0], column(0, 18)).unwrap();
        dag.mark_output(k1);
        let rewritten = apply_line_coalescing(&mut dag, |_| CoalesceFactor::new(2));
        assert_eq!(rewritten[0].virtual_stages, 9);
        let (_, e) = dag.consumer_edges(k0).next().unwrap();
        assert!(e.ports().iter().all(|p| p.height <= 2));
        let total: u32 = e.ports().iter().map(|p| p.height).sum();
        assert_eq!(total, 18);
    }

    #[test]
    fn single_row_windows_untouched() {
        let mut dag = Dag::new("pt");
        let k0 = dag.add_input("K0");
        let k1 = dag.add_stage("K1", &[k0], Expr::tap(0, 0, 0)).unwrap();
        dag.mark_output(k1);
        let rewritten = apply_line_coalescing(&mut dag, |_| CoalesceFactor::new(2));
        assert!(rewritten.is_empty());
    }

    #[test]
    fn per_producer_selectivity() {
        // Only K1's buffer is coalesced; K0's stays row-per-block.
        let mut dag = Dag::new("sel");
        let k0 = dag.add_input("K0");
        let k1 = dag.add_stage("K1", &[k0], column(0, 3)).unwrap();
        let k2 = dag.add_stage("K2", &[k1], column(0, 3)).unwrap();
        dag.mark_output(k2);
        let k1_idx = k1.index();
        let rewritten = apply_line_coalescing(&mut dag, |p| {
            if p == k1_idx {
                CoalesceFactor::new(2)
            } else {
                CoalesceFactor::NONE
            }
        });
        assert_eq!(rewritten.len(), 1);
        let (_, e01) = dag.consumer_edges(k0).next().unwrap();
        assert_eq!(e01.ports().len(), 1);
        let (_, e12) = dag.consumer_edges(k1).next().unwrap();
        assert_eq!(e12.ports().len(), 2);
    }

    #[test]
    fn lagged_windows_partition_from_lag() {
        // A window with lag 1, height 3 partitions rows [1..4).
        let mut dag = Dag::new("lagged");
        let k0 = dag.add_input("K0");
        let k1 = dag
            .add_stage(
                "K1",
                &[k0, k0],
                Expr::bin(
                    crate::expr::BinOp::Add,
                    column(0, 4),
                    Expr::sum((1..4).map(|dy| Expr::tap(1, 0, dy))),
                ),
            )
            .unwrap();
        dag.mark_output(k1);
        let (_, e) = dag.producer_edges(k1).find(|(_, e)| e.slot() == 1).unwrap();
        assert_eq!(e.window().lag, 1);
        apply_line_coalescing(&mut dag, |_| CoalesceFactor::new(2));
        let (_, e) = dag.producer_edges(k1).find(|(_, e)| e.slot() == 1).unwrap();
        assert_eq!(e.ports()[0].row_offset, 1);
        assert_eq!(e.ports()[0].height, 2);
        assert_eq!(e.ports()[1].row_offset, 3);
        assert_eq!(e.ports()[1].height, 1);
    }
}
