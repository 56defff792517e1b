//! Process-global solver statistics hook.
//!
//! The solver pivot is the unit of work the whole optimizer bottoms out
//! in: one basis exchange of the network simplex behind
//! [`DiffSystem::minimize`](crate::DiffSystem::minimize), which every
//! schedule solve runs. Profilers (DSE `--profile`, the serve stats
//! endpoint) want a running count without threading a handle through
//! every solve, and a single relaxed atomic does it: a solve adds its
//! pivots once, at its end. The solver is deterministic, so a given
//! problem always counts the same pivots. Readers take deltas
//! (`pivot_count()` before/after); with concurrent solves a delta covers
//! *all* solver activity in the window, which is the useful number for
//! profiling anyway.

use std::sync::atomic::{AtomicU64, Ordering};

static PIVOTS: AtomicU64 = AtomicU64::new(0);

/// Records `n` solver pivots: network-simplex basis exchanges.
pub(crate) fn record_pivots(n: u64) {
    PIVOTS.fetch_add(n, Ordering::Relaxed);
}

/// Total solver pivots (network-simplex basis exchanges) performed by
/// this process so far.
pub fn pivot_count() -> u64 {
    PIVOTS.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pivots_accumulate() {
        let before = pivot_count();
        record_pivots(1);
        record_pivots(1);
        assert!(pivot_count() >= before + 2);
    }
}
