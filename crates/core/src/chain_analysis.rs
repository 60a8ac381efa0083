//! Chain analysis drivers: build the paper's individual and system
//! chains, verify the lifting between them, and extract the latencies
//! the theorems are about.
//!
//! [`analyze`] is the production analysis. It runs on the CSR chains
//! alone: a solve-free kernel check of the lifting (Lemmas 5/10/13),
//! one stationary solve of the system chain for `W`, and `W_i = n·W`
//! (Lemmas 7/11/14), which the verified lifting makes exact.
//! [`analyze_exhaustive`] is its oracle: it enumerates the dense
//! individual chain, verifies the lifting by ergodic flow, and solves
//! both chains directly, so it is limited to small `n`.

use std::fmt;

use pwf_algorithms::chains::{fai, parallel, scu, sparse_system_latency};
use pwf_markov::lifting::{kernel_residual_sparse, verify_lifting, LiftingError};
use pwf_markov::solve::PowerOptions;

pub use pwf_algorithms::chains::ChainFamily;

/// Largest kernel residual [`analyze`] accepts as a verified lifting.
/// The collapsed rows are sums of at most `n` terms `1/n`, so a true
/// lifting leaves only float rounding.
const KERNEL_TOL: f64 = 1e-12;

/// Seed of the SCU kernel check's sampled permutations: a constant, so
/// the report is a pure function of `(family, n)`.
const SCU_SAMPLE_SEED: u64 = 0x5EED_C4A1;

/// The outcome of the production chain analysis ([`analyze`]).
#[derive(Debug, Clone)]
pub struct ChainReport {
    /// States in the CSR system chain.
    pub system_states: usize,
    /// System latency `W` from the system chain's stationary solve.
    pub system_latency: f64,
    /// Individual latency `n·W` (Lemmas 7/11/14), exact because the
    /// lifting is kernel-verified.
    pub individual_latency: f64,
    /// Worst violation of the kernel lifting condition (at most
    /// `1e-12`).
    pub kernel_residual: f64,
}

/// Runs the production analysis for a family at `n` processes. The
/// lifting is verified without a solve: for `SCU(0, 1)` by the
/// symmetry-reduced kernel check ([`scu::verify_lifting_by_symmetry`],
/// two sampled permutations per class), for fetch-and-increment and
/// parallel code by [`kernel_residual_sparse`] over the CSR pair. `W`
/// comes from one adaptive power-iteration solve of the system chain;
/// for `SCU(0, 1)` it is exactly [`scu::large_system_latency_with`] at
/// 500 000 iterations and tolerance `1e-12`.
///
/// # Errors
///
/// [`ChainAnalysisError::Lifting`] if the kernel residual exceeds
/// `1e-12`; [`ChainAnalysisError::Latency`] if the solve does not
/// converge.
///
/// # Panics
///
/// Panics unless [`ChainFamily::admits`] `n`.
pub fn analyze(family: ChainFamily, n: usize) -> Result<ChainReport, ChainAnalysisError> {
    let opts = PowerOptions::new(500_000, 1e-12);
    let nf = n as f64;
    let (residual, system_states, (system_latency, _)) = match family {
        ChainFamily::Scu01 => {
            let lifting = scu::verify_lifting_by_symmetry(n, 2, SCU_SAMPLE_SEED)?;
            let w = scu::large_system_latency_with(n, &opts, None)?;
            (lifting.kernel_residual, lifting.classes, w)
        }
        ChainFamily::Parallel { q } => {
            let sys = parallel::sparse_system_chain(n, q)?;
            let ind = parallel::sparse_individual_chain(n, q)?;
            let residual = kernel_residual_sparse(&ind, &sys, |s| parallel::lift(s, q))?;
            let w = sparse_system_latency(&sys, |s| s[q - 1] as f64 / nf, &opts, None)?;
            (residual, sys.len(), w)
        }
        ChainFamily::FetchAndInc => {
            let sys = fai::sparse_global_chain(n)?;
            let ind = fai::sparse_individual_chain(n)?;
            let residual = kernel_residual_sparse(&ind, &sys, fai::lift)?;
            let w = sparse_system_latency(&sys, |&i| i as f64 / nf, &opts, None)?;
            (residual, sys.len(), w)
        }
    };
    if residual > KERNEL_TOL {
        return Err(LiftingError::KernelMismatch { residual }.into());
    }
    Ok(ChainReport {
        system_states,
        system_latency,
        individual_latency: nf * system_latency,
        kernel_residual: residual,
    })
}

/// The outcome of the exhaustive oracle analysis
/// ([`analyze_exhaustive`]) at a given `n`.
#[derive(Debug, Clone)]
pub struct ExhaustiveReport {
    /// Algorithm family analyzed.
    pub family: ChainFamily,
    /// Number of processes.
    pub n: usize,
    /// States in the individual chain.
    pub individual_states: usize,
    /// States in the system chain.
    pub system_states: usize,
    /// Exact system latency `W`.
    pub system_latency: f64,
    /// Exact individual latency `W_0` (all processes are symmetric).
    pub individual_latency: f64,
    /// Max violation of the lifting flow homomorphism.
    pub lifting_flow_residual: f64,
    /// Max violation of Lemma 1's stationary collapse.
    pub lifting_stationary_residual: f64,
}

impl ExhaustiveReport {
    /// The ratio `W_i / (n·W)`, which Lemmas 7/11/14 say equals 1.
    pub fn fairness_identity(&self) -> f64 {
        self.individual_latency / (self.n as f64 * self.system_latency)
    }
}

/// Errors from chain analysis.
#[derive(Debug)]
pub enum ChainAnalysisError {
    /// Latency computation failed.
    Latency(scu::LatencyError),
    /// Lifting verification failed.
    Lifting(LiftingError),
}

impl fmt::Display for ChainAnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChainAnalysisError::Latency(e) => write!(f, "latency computation failed: {e}"),
            ChainAnalysisError::Lifting(e) => write!(f, "lifting verification failed: {e}"),
        }
    }
}

impl std::error::Error for ChainAnalysisError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ChainAnalysisError::Latency(e) => Some(e),
            ChainAnalysisError::Lifting(e) => Some(e),
        }
    }
}

impl From<scu::LatencyError> for ChainAnalysisError {
    fn from(e: scu::LatencyError) -> Self {
        ChainAnalysisError::Latency(e)
    }
}

impl From<pwf_markov::chain::ChainError> for ChainAnalysisError {
    fn from(e: pwf_markov::chain::ChainError) -> Self {
        ChainAnalysisError::Latency(scu::LatencyError::Chain(e))
    }
}

impl From<LiftingError> for ChainAnalysisError {
    fn from(e: LiftingError) -> Self {
        ChainAnalysisError::Lifting(e)
    }
}

/// The test oracle for [`analyze`]: the full exhaustive analysis
/// (dense chains, ergodic-flow lifting check, direct solves) for a
/// family at `n` processes. The individual chain is solved once: its
/// latency comes from the stationary distribution the lifting check
/// already computed. `n` is limited by the individual chain's
/// exponential state count — see the per-family `MAX_INDIVIDUAL`
/// constants in [`pwf_algorithms::chains`].
///
/// # Errors
///
/// Returns an error if a chain is not irreducible (cannot happen for
/// valid inputs), a solve fails, or the lifting check fails.
///
/// # Panics
///
/// Panics if `n` is zero or too large for the family's individual
/// chain.
pub fn analyze_exhaustive(
    family: ChainFamily,
    n: usize,
) -> Result<ExhaustiveReport, ChainAnalysisError> {
    match family {
        ChainFamily::Scu01 => {
            let ind = scu::individual_chain(n)?;
            let sys = scu::system_chain(n)?;
            let lifting = verify_lifting(&ind, &sys, scu::lift, 1e-7)?;
            Ok(ExhaustiveReport {
                family,
                n,
                individual_states: ind.len(),
                system_states: sys.len(),
                system_latency: scu::exact_system_latency(n)?,
                individual_latency: scu::individual_latency_from_stationary(
                    &ind,
                    &lifting.lifted_stationary,
                    n,
                    0,
                ),
                lifting_flow_residual: lifting.flow_residual,
                lifting_stationary_residual: lifting.stationary_residual,
            })
        }
        ChainFamily::Parallel { q } => {
            let ind = parallel::individual_chain(n, q)?;
            let sys = parallel::system_chain(n, q)?;
            let lifting = verify_lifting(&ind, &sys, |s| parallel::lift(s, q), 1e-7)?;
            Ok(ExhaustiveReport {
                family,
                n,
                individual_states: ind.len(),
                system_states: sys.len(),
                system_latency: parallel::exact_system_latency(n, q)?,
                individual_latency: parallel::individual_latency_from_stationary(
                    &ind,
                    &lifting.lifted_stationary,
                    n,
                    q,
                    0,
                ),
                lifting_flow_residual: lifting.flow_residual,
                lifting_stationary_residual: lifting.stationary_residual,
            })
        }
        ChainFamily::FetchAndInc => {
            let ind = fai::individual_chain(n)?;
            let sys = fai::global_chain(n)?;
            let lifting = verify_lifting(&ind, &sys, fai::lift, 1e-7)?;
            Ok(ExhaustiveReport {
                family,
                n,
                individual_states: ind.len(),
                system_states: sys.len(),
                system_latency: fai::exact_system_latency(n)?,
                individual_latency: fai::individual_latency_from_stationary(
                    &ind,
                    &lifting.lifted_stationary,
                    n,
                    0,
                ),
                lifting_flow_residual: lifting.flow_residual,
                lifting_stationary_residual: lifting.stationary_residual,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scu01_oracle_confirms_fairness_identity() {
        for n in 2..=5 {
            let r = analyze_exhaustive(ChainFamily::Scu01, n).unwrap();
            assert!((r.fairness_identity() - 1.0).abs() < 1e-8, "n = {n}");
            assert!(r.lifting_flow_residual < 1e-9);
        }
    }

    #[test]
    fn parallel_analysis_matches_lemma_11() {
        let r = analyze(ChainFamily::Parallel { q: 4 }, 3).unwrap();
        assert!((r.system_latency - 4.0).abs() < 1e-8);
        assert!((r.individual_latency - 12.0).abs() < 1e-8);
        assert!(r.kernel_residual <= KERNEL_TOL);
        assert_eq!(r.system_states, 20, "C(3 + 4 - 1, 4 - 1) occupancies");
    }

    #[test]
    fn fai_analysis_within_lemma_12_bound() {
        for n in 2..=10 {
            let r = analyze(ChainFamily::FetchAndInc, n).unwrap();
            assert!(r.system_latency <= 2.0 * (n as f64).sqrt());
            assert!(r.kernel_residual <= KERNEL_TOL);
        }
    }

    #[test]
    fn oracle_reuses_the_lifting_solve_bit_for_bit() {
        // The individual latency comes from the lifting check's
        // stationary distribution; it must equal a fresh solve exactly.
        for n in 1..=5 {
            let r = analyze_exhaustive(ChainFamily::Scu01, n).unwrap();
            let fresh = scu::exact_individual_latency(n, 0).unwrap();
            assert_eq!(
                r.individual_latency.to_bits(),
                fresh.to_bits(),
                "scu n = {n}"
            );
        }
        for n in 1..=6 {
            let r = analyze_exhaustive(ChainFamily::FetchAndInc, n).unwrap();
            let fresh = fai::exact_individual_latency(n, 0).unwrap();
            assert_eq!(
                r.individual_latency.to_bits(),
                fresh.to_bits(),
                "fai n = {n}"
            );
        }
        for (q, n) in [(1, 4), (2, 3), (3, 3)] {
            let r = analyze_exhaustive(ChainFamily::Parallel { q }, n).unwrap();
            let fresh = parallel::exact_individual_latency(n, q, 0).unwrap();
            assert_eq!(
                r.individual_latency.to_bits(),
                fresh.to_bits(),
                "parallel q = {q}, n = {n}"
            );
        }
    }

    #[test]
    fn state_counts_are_reported() {
        let r = analyze_exhaustive(ChainFamily::Scu01, 3).unwrap();
        assert_eq!(r.individual_states, 26);
        assert_eq!(r.system_states, 9);
    }
}
