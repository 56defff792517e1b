//! Process-global solver statistics hook.
//!
//! The solver pivot is the unit of work the whole optimizer bottoms out
//! in: one augmenting path of the min-cost-flow solver behind
//! [`DiffSystem::minimize`](crate::DiffSystem::minimize), which every
//! schedule solve runs. Profilers (DSE `--profile`, the serve stats
//! endpoint) want a running count without threading a handle through
//! every solve, and a single relaxed atomic does it: each pivot is at
//! least one shortest-path search, so the added `fetch_add` is noise. The
//! solver is deterministic, so a given problem always counts the same
//! pivots. Readers take deltas (`pivot_count()` before/after); with
//! concurrent solves a delta covers *all* solver activity in the window,
//! which is the useful number for profiling anyway.

use std::sync::atomic::{AtomicU64, Ordering};

static PIVOTS: AtomicU64 = AtomicU64::new(0);

/// Records one solver pivot: one min-cost-flow augmenting path.
pub(crate) fn record_pivot() {
    PIVOTS.fetch_add(1, Ordering::Relaxed);
}

/// Total solver pivots (min-cost-flow augmenting paths) performed by this
/// process so far.
pub fn pivot_count() -> u64 {
    PIVOTS.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pivots_accumulate() {
        let before = pivot_count();
        record_pivot();
        record_pivot();
        assert!(pivot_count() >= before + 2);
    }
}
