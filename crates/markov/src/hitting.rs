//! Expected hitting times `h_ij = E[T_ij]` (paper, Section 3).
//!
//! For a fixed target `j`, the vector `h_·j` solves the linear system
//! `h_ij = 1 + Σ_{k ≠ j} p_ik h_kj` for `i ≠ j`, and the return time is
//! `h_jj = 1 + Σ_{k ≠ j} p_jk h_kj`.
//!
//! Two solvers: a dense direct solve ([`hitting_times`], the oracle
//! for small `n`) and sparse Gauss–Seidel
//! ([`sparse_hitting_times`]) — the reduced system matrix
//! `I − P_{−j}` is an M-matrix, for which Gauss–Seidel sweeps converge
//! monotonically from zero, in `O(nnz)` per sweep.

use std::hash::Hash;
use std::time::Instant;

use pwf_obs::Metrics;

use crate::chain::MarkovChain;
use crate::linalg::{self, Matrix};
use crate::solve::{record_solve, GaussSeidelOptions, SolveStats};
use crate::sparse::SparseChain;
use crate::stationary::StationaryError;
use crate::structure;

/// Expected hitting times from every state to `target`.
///
/// Index `target` of the result holds the expected *return* time
/// `h_jj` (first revisit after leaving), matching Theorem 1's
/// `h_jj = 1/π_j` for irreducible chains.
///
/// # Errors
///
/// Returns [`StationaryError::NotIrreducible`] when some state cannot
/// reach `target` (the hitting time would be infinite), or a linear
/// algebra error.
///
/// # Panics
///
/// Panics if `target >= chain.len()`.
pub fn hitting_times<S: Clone + Eq + Hash>(
    chain: &MarkovChain<S>,
    target: usize,
) -> Result<Vec<f64>, StationaryError> {
    let n = chain.len();
    assert!(target < n, "target state {target} out of bounds ({n})");
    if !structure::is_irreducible(chain) {
        // A reducible chain may still have all states reaching the
        // target, but the paper only needs the irreducible case; be
        // conservative and refuse.
        return Err(StationaryError::NotIrreducible);
    }

    // Unknowns: h_kj for k ≠ target, in chain order skipping target.
    let reduced: Vec<usize> = (0..n).filter(|&k| k != target).collect();
    let m = reduced.len();
    let mut a = Matrix::zeros(m, m);
    let b = vec![1.0; m];
    for (row, &i) in reduced.iter().enumerate() {
        for (col, &k) in reduced.iter().enumerate() {
            a[(row, col)] = if i == k { 1.0 } else { 0.0 } - chain.prob(i, k);
        }
    }
    let h_reduced = linalg::solve(&a, &b)?;

    let mut h = vec![0.0; n];
    for (idx, &k) in reduced.iter().enumerate() {
        h[k] = h_reduced[idx];
    }
    // Return time for the target itself.
    let mut ret = 1.0;
    for (idx, &k) in reduced.iter().enumerate() {
        ret += chain.prob(target, k) * h_reduced[idx];
    }
    h[target] = ret;
    Ok(h)
}

/// Expected hitting times to `target` on a sparse chain by
/// Gauss–Seidel sweeps over the reduced system, with optional solver
/// metrics (`markov.hitting.*`).
///
/// Index `target` of the result holds the expected *return* time, as
/// in [`hitting_times`].
///
/// # Errors
///
/// Returns [`StationaryError::NotIrreducible`] for reducible chains,
/// or [`StationaryError::NotConverged`] if the largest in-sweep update
/// stays above `opts.tol` for `opts.max_sweeps` sweeps.
///
/// # Panics
///
/// Panics if `target >= chain.len()`.
pub fn sparse_hitting_times<S: Clone + Eq + Hash>(
    chain: &SparseChain<S>,
    target: usize,
    opts: &GaussSeidelOptions,
    metrics: Option<&Metrics>,
) -> Result<Vec<f64>, StationaryError> {
    let n = chain.len();
    assert!(target < n, "target state {target} out of bounds ({n})");
    if !structure::is_irreducible_sparse(chain) {
        return Err(StationaryError::NotIrreducible);
    }

    let start = Instant::now();
    let mut h = vec![0.0; n]; // h[target] pinned to 0 during sweeps
    let mut change = f64::INFINITY;
    for sweep in 1..=opts.max_sweeps {
        change = 0.0;
        for i in 0..n {
            if i == target {
                continue;
            }
            // h_i = (1 + Σ_{k ∉ {target, i}} p_ik h_k) / (1 − p_ii).
            let mut acc = 1.0;
            let mut self_p = 0.0;
            for (j, p) in chain.row(i) {
                let j = j as usize;
                if j == target {
                    continue;
                }
                if j == i {
                    self_p += p;
                } else {
                    acc += p * h[j];
                }
            }
            // 1 − p_ii > 0: irreducibility (n ≥ 2 here) rules out an
            // absorbing non-target state.
            let v = acc / (1.0 - self_p);
            change = change.max((v - h[i]).abs());
            h[i] = v;
        }
        if change < opts.tol {
            // Return time of the target from the converged vector.
            let mut ret = 1.0;
            for (j, p) in chain.row(target) {
                let j = j as usize;
                if j != target {
                    ret += p * h[j];
                }
            }
            h[target] = ret;
            record_solve(
                metrics,
                "hitting",
                &SolveStats {
                    iterations: sweep,
                    residual: change,
                    wall_ms: start.elapsed().as_secs_f64() * 1e3,
                },
            );
            return Ok(h);
        }
    }
    record_solve(
        metrics,
        "hitting",
        &SolveStats {
            iterations: opts.max_sweeps,
            residual: change,
            wall_ms: start.elapsed().as_secs_f64() * 1e3,
        },
    );
    Err(StationaryError::NotConverged {
        iterations: opts.max_sweeps,
        delta: change,
    })
}

/// Expected return time `h_jj` of a single state, as a convenience.
///
/// # Errors
///
/// Propagates the errors of [`hitting_times`].
///
/// # Panics
///
/// Panics if `state >= chain.len()`.
pub fn return_time<S: Clone + Eq + Hash>(
    chain: &MarkovChain<S>,
    state: usize,
) -> Result<f64, StationaryError> {
    Ok(hitting_times(chain, state)?[state])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::ChainBuilder;
    use crate::stationary::stationary_distribution;

    #[test]
    fn symmetric_two_state_hitting_times() {
        // Flip with probability p: expected hitting time to the other
        // state is 1/p; return time is 2 (uniform stationary).
        let p = 0.25;
        let c = ChainBuilder::new()
            .transition(0, 1, p)
            .transition(0, 0, 1.0 - p)
            .transition(1, 0, p)
            .transition(1, 1, 1.0 - p)
            .build()
            .unwrap();
        let h = hitting_times(&c, 1).unwrap();
        assert!((h[0] - 1.0 / p).abs() < 1e-9);
        assert!((h[1] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn return_times_match_reciprocal_stationary() {
        // Theorem 1 cross-check on an asymmetric ergodic chain.
        let c = ChainBuilder::new()
            .transition(0, 1, 0.9)
            .transition(0, 0, 0.1)
            .transition(1, 2, 0.5)
            .transition(1, 0, 0.5)
            .transition(2, 0, 1.0)
            .build()
            .unwrap();
        let pi = stationary_distribution(&c).unwrap();
        #[allow(clippy::needless_range_loop)] // index loop is clearer here
        for j in 0..3 {
            let h = return_time(&c, j).unwrap();
            assert!(
                (h - 1.0 / pi[j]).abs() < 1e-8,
                "state {j}: return {h} vs 1/pi {}",
                1.0 / pi[j]
            );
        }
    }

    #[test]
    fn deterministic_cycle_hitting_times_are_path_lengths() {
        let n = 5;
        let mut b = ChainBuilder::new();
        for i in 0..n {
            b = b.transition(i, (i + 1) % n, 1.0);
        }
        let c = b.build().unwrap();
        let h = hitting_times(&c, 0).unwrap();
        #[allow(clippy::needless_range_loop)] // index loop is clearer here
        for i in 1..n {
            assert!((h[i] - (n - i) as f64).abs() < 1e-9);
        }
        assert!((h[0] - n as f64).abs() < 1e-9);
    }

    #[test]
    fn reducible_chain_is_rejected() {
        let c = ChainBuilder::new()
            .transition(0, 0, 1.0)
            .transition(1, 1, 1.0)
            .build()
            .unwrap();
        assert!(matches!(
            hitting_times(&c, 0),
            Err(StationaryError::NotIrreducible)
        ));
    }

    #[test]
    fn gauss_seidel_matches_direct_solve() {
        // Asymmetric ergodic chain with self-loops; compare every
        // target against the dense oracle.
        let c = ChainBuilder::new()
            .transition(0, 1, 0.9)
            .transition(0, 0, 0.1)
            .transition(1, 2, 0.5)
            .transition(1, 0, 0.5)
            .transition(2, 0, 0.8)
            .transition(2, 2, 0.2)
            .build()
            .unwrap();
        let sparse = c.to_sparse();
        let opts = GaussSeidelOptions {
            max_sweeps: 100_000,
            tol: 1e-13,
        };
        for target in 0..3 {
            let dense = hitting_times(&c, target).unwrap();
            let gs = sparse_hitting_times(&sparse, target, &opts, None).unwrap();
            for (i, (a, b)) in dense.iter().zip(&gs).enumerate() {
                assert!(
                    (a - b).abs() < 1e-9,
                    "target {target}, state {i}: dense {a} vs GS {b}"
                );
            }
        }
    }

    #[test]
    fn gauss_seidel_on_cycle_is_exact() {
        let n = 50;
        let mut b = crate::sparse::SparseChainBuilder::new();
        for i in 0..n {
            b.transition(i, (i + 1) % n, 1.0);
        }
        let c = b.build().unwrap();
        let h = sparse_hitting_times(&c, 0, &GaussSeidelOptions::default(), None).unwrap();
        #[allow(clippy::needless_range_loop)] // index loop is clearer here
        for i in 1..n {
            assert!((h[i] - (n - i) as f64).abs() < 1e-8);
        }
        assert!((h[0] - n as f64).abs() < 1e-8);
    }

    #[test]
    fn gauss_seidel_rejects_reducible_and_records_metrics() {
        let mut b = crate::sparse::SparseChainBuilder::new();
        b.transition(0, 0, 1.0).transition(1, 1, 1.0);
        let c = b.build().unwrap();
        assert!(matches!(
            sparse_hitting_times(&c, 0, &GaussSeidelOptions::default(), None),
            Err(StationaryError::NotIrreducible)
        ));

        let m = pwf_obs::Metrics::new();
        let mut b = crate::sparse::SparseChainBuilder::new();
        b.transition(0, 1, 1.0)
            .transition(1, 0, 0.5)
            .transition(1, 1, 0.5);
        let c = b.build().unwrap();
        sparse_hitting_times(&c, 0, &GaussSeidelOptions::default(), Some(&m)).unwrap();
        assert!(m
            .snapshot()
            .counters
            .iter()
            .any(|(n, v)| n == "markov.hitting.solves" && *v == 1));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_target_panics() {
        let c = ChainBuilder::new().transition((), (), 1.0).build().unwrap();
        let _ = hitting_times(&c, 1);
    }
}
