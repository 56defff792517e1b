//! Process-global solver statistics hook.
//!
//! The solver pivot is the unit of work the whole optimizer bottoms out
//! in: one augmenting path of the min-cost-flow solver behind
//! [`DiffSystem::minimize`](crate::DiffSystem::minimize) (every default
//! schedule solve) or one simplex tableau pivot (the general
//! [`Model`](crate::Model) path). Profilers (DSE `--profile`, the serve
//! stats endpoint) want a running count without threading a handle
//! through every solve, and a single relaxed atomic does it: each pivot
//! is at least a shortest-path search or an O(m·n) row update, so the
//! added `fetch_add` is noise. Both solvers are deterministic, so a given
//! problem always counts the same pivots. Readers take deltas
//! (`pivot_count()` before/after); with concurrent solves a delta covers
//! *all* solver activity in the window, which is the useful number for
//! profiling anyway.

use std::sync::atomic::{AtomicU64, Ordering};

static PIVOTS: AtomicU64 = AtomicU64::new(0);

/// Records one solver pivot. Called per simplex tableau pivot and per
/// min-cost-flow augmenting path; public so alternative solver
/// frontends can participate.
pub fn record_pivot() {
    PIVOTS.fetch_add(1, Ordering::Relaxed);
}

/// Total solver pivots (simplex pivots plus augmenting paths) performed
/// by this process so far.
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
