//! Mixing diagnostics: total-variation distance and empirical mixing
//! times.
//!
//! The paper's guarantees are *stationary* ("the behavior of the
//! algorithm at infinity"); mixing times quantify how quickly a real
//! execution reaches that regime — i.e. how long "long executions"
//! must be for the predictions to apply.

use std::hash::Hash;

use crate::chain::MarkovChain;
use crate::sparse::SparseChain;
use crate::stationary::{stationary_distribution, StationaryError};

/// Total-variation distance `½‖p − q‖₁` between two distributions.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn total_variation(p: &[f64], q: &[f64]) -> f64 {
    assert_eq!(p.len(), q.len(), "distribution lengths differ");
    0.5 * p.iter().zip(q).map(|(a, b)| (a - b).abs()).sum::<f64>()
}

/// The result of a mixing measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct MixingReport {
    /// Steps until TV distance to stationarity first dropped to ≤ ε,
    /// `None` if it never did within the budget. Measured on the
    /// *lazy* chain `(I + P)/2`, which converges for periodic chains
    /// too (the paper's chains have period 2).
    pub mixing_time: Option<usize>,
    /// TV distance at the end of the budget.
    pub final_distance: f64,
    /// The ε threshold used.
    pub epsilon: f64,
}

/// Measures the ε-mixing time of the lazy version of `chain` from the
/// worst of the provided start states (point distributions).
///
/// # Errors
///
/// Propagates stationary-distribution errors.
///
/// # Panics
///
/// Panics if `starts` is empty, any start is out of bounds, or
/// `epsilon <= 0`.
pub fn lazy_mixing_time<S: Clone + Eq + Hash>(
    chain: &MarkovChain<S>,
    starts: &[usize],
    epsilon: f64,
    max_steps: usize,
) -> Result<MixingReport, StationaryError> {
    assert!(!starts.is_empty(), "need at least one start state");
    assert!(epsilon > 0.0, "epsilon must be positive");
    let n = chain.len();
    assert!(starts.iter().all(|&s| s < n), "start state out of bounds");

    let pi = stationary_distribution(chain)?;
    let mut worst_mixing: Option<usize> = Some(0);
    let mut worst_final: f64 = 0.0;

    for &start in starts {
        let mut dist = vec![0.0; n];
        dist[start] = 1.0;
        let mut mixed_at = None;
        let mut d = total_variation(&dist, &pi);
        if d <= epsilon {
            mixed_at = Some(0);
        }
        for t in 1..=max_steps {
            if mixed_at.is_some() {
                break;
            }
            let stepped = chain.step_distribution(&dist);
            for (a, b) in dist.iter_mut().zip(&stepped) {
                *a = 0.5 * *a + 0.5 * b;
            }
            d = total_variation(&dist, &pi);
            if d <= epsilon {
                mixed_at = Some(t);
            }
        }
        worst_final = worst_final.max(d);
        worst_mixing = match (worst_mixing, mixed_at) {
            (Some(w), Some(m)) => Some(w.max(m)),
            _ => None,
        };
    }

    Ok(MixingReport {
        mixing_time: worst_mixing,
        final_distance: worst_final,
        epsilon,
    })
}

/// Measures the ε-mixing time of the lazy version of a sparse chain
/// from the worst of the provided start states, against a
/// caller-supplied stationary distribution `pi` (so one solve can be
/// shared across calls). Each step is one CSR step (`O(nnz)` work).
///
/// # Panics
///
/// Panics if `starts` is empty, any start is out of bounds,
/// `epsilon <= 0`, or `pi.len() != chain.len()`.
pub fn sparse_lazy_mixing_time<S: Clone + Eq + Hash>(
    chain: &SparseChain<S>,
    pi: &[f64],
    starts: &[usize],
    epsilon: f64,
    max_steps: usize,
) -> MixingReport {
    assert!(!starts.is_empty(), "need at least one start state");
    assert!(epsilon > 0.0, "epsilon must be positive");
    let n = chain.len();
    assert_eq!(pi.len(), n, "stationary distribution length mismatch");
    assert!(starts.iter().all(|&s| s < n), "start state out of bounds");

    let mut worst_mixing: Option<usize> = Some(0);
    let mut worst_final: f64 = 0.0;
    let mut stepped = vec![0.0; n];

    for &start in starts {
        let mut dist = vec![0.0; n];
        dist[start] = 1.0;
        let mut mixed_at = None;
        let mut d = total_variation(&dist, pi);
        if d <= epsilon {
            mixed_at = Some(0);
        }
        for t in 1..=max_steps {
            if mixed_at.is_some() {
                break;
            }
            chain.step_into(&dist, &mut stepped);
            for (a, b) in dist.iter_mut().zip(&stepped) {
                *a = 0.5 * *a + 0.5 * b;
            }
            d = total_variation(&dist, pi);
            if d <= epsilon {
                mixed_at = Some(t);
            }
        }
        worst_final = worst_final.max(d);
        worst_mixing = match (worst_mixing, mixed_at) {
            (Some(w), Some(m)) => Some(w.max(m)),
            _ => None,
        };
    }

    MixingReport {
        mixing_time: worst_mixing,
        final_distance: worst_final,
        epsilon,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::ChainBuilder;
    use crate::solve::PowerOptions;

    #[test]
    fn tv_distance_basics() {
        assert_eq!(total_variation(&[1.0, 0.0], &[1.0, 0.0]), 0.0);
        assert_eq!(total_variation(&[1.0, 0.0], &[0.0, 1.0]), 1.0);
        assert!((total_variation(&[0.75, 0.25], &[0.25, 0.75]) - 0.5).abs() < 1e-15);
    }

    #[test]
    fn fast_chain_mixes_fast() {
        // Uniform-jump chain: the lazy walk halves the remaining point
        // mass each step, so TV ≈ 0.75 · 2^{−t}.
        let mut b = ChainBuilder::new();
        for i in 0..4 {
            for j in 0..4 {
                b = b.transition(i, j, 0.25);
            }
        }
        let c = b.build().unwrap();
        let r = lazy_mixing_time(&c, &[0], 0.01, 100).unwrap();
        assert!(r.mixing_time.unwrap() <= 8, "mixing {:?}", r.mixing_time);
    }

    #[test]
    fn slow_chain_mixes_slowly() {
        // Sticky two-state chain: stays with probability 0.99.
        let c = ChainBuilder::new()
            .transition(0, 0, 0.99)
            .transition(0, 1, 0.01)
            .transition(1, 1, 0.99)
            .transition(1, 0, 0.01)
            .build()
            .unwrap();
        let fast = lazy_mixing_time(&c, &[0], 0.25, 10_000).unwrap();
        let slow = lazy_mixing_time(&c, &[0], 0.01, 10_000).unwrap();
        assert!(slow.mixing_time.unwrap() > fast.mixing_time.unwrap());
        assert!(fast.mixing_time.unwrap() > 10);
    }

    #[test]
    fn periodic_chain_still_mixes_in_lazy_time() {
        let c = ChainBuilder::new()
            .transition(0, 1, 1.0)
            .transition(1, 0, 1.0)
            .build()
            .unwrap();
        let r = lazy_mixing_time(&c, &[0, 1], 1e-6, 1000).unwrap();
        assert!(r.mixing_time.is_some());
    }

    #[test]
    fn sparse_mixing_matches_dense() {
        // Sticky two-state chain in both representations.
        let dense = ChainBuilder::new()
            .transition(0, 0, 0.9)
            .transition(0, 1, 0.1)
            .transition(1, 1, 0.9)
            .transition(1, 0, 0.1)
            .build()
            .unwrap();
        let sparse = dense.to_sparse();
        let d = lazy_mixing_time(&dense, &[0, 1], 0.01, 10_000).unwrap();
        let pi = sparse
            .stationary_with(&PowerOptions::new(200_000, 1e-13), None)
            .unwrap()
            .pi;
        let s = sparse_lazy_mixing_time(&sparse, &pi, &[0, 1], 0.01, 10_000);
        assert_eq!(d.mixing_time, s.mixing_time);
        assert!((d.final_distance - s.final_distance).abs() < 1e-9);
    }

    #[test]
    fn budget_exhaustion_reports_distance() {
        let c = ChainBuilder::new()
            .transition(0, 0, 0.999)
            .transition(0, 1, 0.001)
            .transition(1, 1, 0.999)
            .transition(1, 0, 0.001)
            .build()
            .unwrap();
        let r = lazy_mixing_time(&c, &[0], 1e-12, 3).unwrap();
        assert_eq!(r.mixing_time, None);
        assert!(r.final_distance > 1e-12);
    }
}
