//! Parallel configuration sweeps for the experiment drivers.
//!
//! The paper's figures are design-space sweeps: dozens of independent
//! (dense, sparse, hash-size, MLP, batch) simulations whose results are
//! folded into one table. [`sweep`] fans those points across cores via
//! `recsim-pool` while keeping the driver code shaped exactly like the old
//! serial loop: map each grid point to a plain result struct, then fold the
//! returned (submission-ordered) vector serially.
//!
//! # Determinism contract
//!
//! A driver refactored onto [`sweep`] must produce **byte-identical**
//! [`crate::ExperimentOutput`] JSON at any thread count. That holds as long
//! as the per-point closure is a pure function of its grid point (the pool
//! guarantees submission ordering, so the fold sees results in the same
//! order the serial loop did). Anything order-sensitive — accumulators,
//! claim thresholds, formatting — belongs in the fold, not the closure.
//! `crates/core/tests/determinism.rs` enforces this for every refactored
//! driver at 1, 2 and 8 threads, and `recsim verify --detsan` (DESIGN.md
//! §11) localizes a violation to the first divergent stage and sweep point:
//! when the sanitizer is armed, the pool runs each point inside a digest
//! scope and re-emits the captured per-stage digests serially in
//! submission order.

/// Maps `f` over the sweep points on all available cores (see
/// `recsim_pool::thread_count` for the `RECSIM_THREADS` / `--threads`
/// override chain), returning results in submission order.
pub fn sweep<T, R, F>(points: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    recsim_pool::par_map(points, f)
}

/// Serial variant of [`sweep`] for sub-threshold grids.
///
/// Dispatching a sweep through the pool costs worker spawns and a join per
/// call; for grid drivers whose whole serial runtime is under
/// ~20ms (fig10–fig14, table3, scaleout, compression at quick effort) that
/// overhead exceeds the work and `recsim run --all` regressed below 1x.
/// Those drivers iterate inline instead — same closure contract, same
/// submission-order results, trivially thread-count invariant — while
/// `run_all` still fans the *drivers themselves* across the pool. Sweeps
/// with real per-point work (locality, autoshard, faults) stay on [`sweep`].
pub fn sweep_compact<T, R, F>(points: &[T], f: F) -> Vec<R>
where
    F: Fn(&T) -> R,
{
    points.iter().map(f).collect()
}

/// The cartesian product of two axes, row-major (`a` outer, `b` inner) —
/// the iteration order of the nested loops the grid drivers started from.
pub fn grid2<A: Copy, B: Copy>(a: &[A], b: &[B]) -> Vec<(A, B)> {
    let mut out = Vec::with_capacity(a.len() * b.len());
    for &x in a {
        for &y in b {
            out.push((x, y));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_preserves_submission_order() {
        let points: Vec<u32> = (0..97).collect();
        let out = sweep(&points, |&p| p * 3);
        assert_eq!(out, points.iter().map(|&p| p * 3).collect::<Vec<_>>());
    }

    #[test]
    fn sweep_compact_matches_sweep() {
        let points: Vec<u32> = (0..97).collect();
        assert_eq!(
            sweep_compact(&points, |&p| p * 3),
            sweep(&points, |&p| p * 3)
        );
    }

    #[test]
    fn grid2_is_row_major() {
        assert_eq!(
            grid2(&[1, 2], &["a", "b", "c"]),
            vec![(1, "a"), (1, "b"), (1, "c"), (2, "a"), (2, "b"), (2, "c")]
        );
    }
}
