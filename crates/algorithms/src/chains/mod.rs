//! Exact Markov-chain constructions for the paper's algorithms
//! (Sections 6.1.1, 6.2, 7.1).
//!
//! Each submodule builds, for small `n`, both the *individual* chain
//! (states = vectors of per-process extended local states) and the
//! *system* chain (states = anonymous counts), together with the
//! lifting map between them. These are the objects Lemmas 3–7, 10–11,
//! and 13–14 are about; the workspace verifies every lifting
//! numerically via [`pwf_markov::lifting`].
//!
//! State-space sizes are exponential in `n` for individual chains
//! (`3ⁿ − 1` for SCU, `2ⁿ − 1` for fetch-and-increment, `qⁿ` for
//! parallel code), so constructions enforce small-`n` limits; the
//! system chains scale comfortably to hundreds of processes.
//!
//! Each system chain has one representation: the CSR
//! [`pwf_markov::sparse::SparseChain`] its builder returns
//! ([`scu::sparse_system_chain`], [`fai::sparse_global_chain`],
//! [`lock::sparse_system_chain`], [`scan::system_chain`]), which the
//! iterative solvers run on directly. The dense variants are
//! [`pwf_markov::sparse::SparseChain::to_dense`] conversions of those,
//! kept as the small-`n` oracle. Past the enumeration wall, the SCU
//! lifting is verified by the symmetry-reduced kernel check against
//! the stored system chain ([`scu::verify_lifting_by_symmetry`],
//! chunked for parallel fan-out by [`scu::orbit_chunks`]) and
//! latencies come from the adaptive iterative solvers.
//!
//! ## A note on the paper's printed transition probabilities
//!
//! The arXiv version's list of system-chain transitions in
//! Section 6.1.1 does not sum to 1 (an apparent typo). The transitions
//! implemented in [`scu`] are derived directly from the individual
//! chain's dynamics — from state `(a, b)` with `c = n − a − b`
//! processes holding a current CAS:
//!
//! * a `Read` process steps (probability `a/n`): it now holds a
//!   current CAS → `(a−1, b)`;
//! * an `OldCAS` process steps (probability `b/n`): its CAS fails and
//!   it returns to reading → `(a+1, b−1)`;
//! * a `CCAS` process steps (probability `c/n`): it **succeeds**; the
//!   winner returns to reading and every other current CAS becomes
//!   stale → `(a+1, n−a−1)`.
//!
//! The verified lifting from the individual chain (which follows the
//! paper's prose exactly) confirms this correction.

pub mod fai;
pub mod lock;
pub mod parallel;
pub mod scan;
pub mod scu;

use pwf_markov::solve::{Metrics, PowerOptions, SolveStats};
use pwf_markov::sparse::SparseChain;

/// An algorithm family whose individual and system chains are built
/// here, and whose lifting Lemmas 5, 10 and 13 are about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChainFamily {
    /// The scan-validate component `SCU(0, 1)` (Section 6.1.1).
    Scu01,
    /// Parallel code with the given `q` (Section 6.2).
    Parallel {
        /// Steps per call.
        q: usize,
    },
    /// Fetch-and-increment (Section 7).
    FetchAndInc,
}

impl ChainFamily {
    /// Whether the family's CSR chains can be built at `n` processes:
    /// the one cap the individual-chain builders assert, so a caller
    /// that checks it first never reaches their panics. (`SCU(0, 1)`'s
    /// kernel check enumerates no individual chain.)
    pub fn admits(self, n: usize) -> bool {
        n >= 1
            && match self {
                ChainFamily::Scu01 => true,
                ChainFamily::FetchAndInc => n <= fai::MAX_INDIVIDUAL_N,
                ChainFamily::Parallel { q } => {
                    (1..=255).contains(&q)
                        && n <= 255
                        && (q as f64).powi(n as i32) <= parallel::MAX_INDIVIDUAL_STATES as f64
                }
            }
    }
}

/// Expected steps between successes given per-state success
/// probabilities and a stationary distribution: `W = 1 / Σ π_x μ_x`.
///
/// # Panics
///
/// Panics if the slices differ in length or the aggregate success
/// probability is zero.
pub fn latency_from_success_probabilities(pi: &[f64], success: &[f64]) -> f64 {
    assert_eq!(pi.len(), success.len(), "length mismatch");
    let mu: f64 = pi.iter().zip(success).map(|(p, s)| p * s).sum();
    assert!(mu > 0.0, "success probability is zero in stationarity");
    1.0 / mu
}

/// System latency `W` of a CSR system chain whose state `x` completes
/// an operation with probability `success(x)`, from one adaptive
/// power-iteration solve; returned with the solver's work statistics.
///
/// # Errors
///
/// Propagates solver-convergence failures.
pub fn sparse_system_latency<S: Clone + Eq + std::hash::Hash>(
    chain: &SparseChain<S>,
    success: impl Fn(&S) -> f64,
    opts: &PowerOptions,
    metrics: Option<&Metrics>,
) -> Result<(f64, SolveStats), scu::LatencyError> {
    let solve = chain.stationary_with(opts, metrics)?;
    let succ: Vec<f64> = chain.states().iter().map(success).collect();
    Ok((
        latency_from_success_probabilities(&solve.pi, &succ),
        solve.stats,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_is_reciprocal_success_rate() {
        let w = latency_from_success_probabilities(&[0.5, 0.5], &[0.2, 0.6]);
        assert!((w - 2.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "zero")]
    fn zero_success_panics() {
        let _ = latency_from_success_probabilities(&[1.0], &[0.0]);
    }
}
