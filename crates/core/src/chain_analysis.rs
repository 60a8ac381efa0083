//! Exact-chain analysis drivers: build the paper's individual and
//! system chains, verify the lifting between them, and extract the
//! latencies the theorems are about.
//!
//! Two regimes: [`analyze`] runs the exhaustive small-`n` analysis on
//! the dense oracle chains, and [`analyze_scu_large`] scales the SCU
//! analysis past the `3ⁿ − 1` enumeration wall using the sparse
//! system chain, the adaptive iterative solver, and the
//! symmetry-reduced kernel lifting check.

use std::fmt;

use pwf_algorithms::chains::{fai, parallel, scu};
use pwf_markov::lifting::{verify_lifting, LiftingError};
use pwf_markov::solve::{Metrics, PowerOptions, SolveStats};

/// Which algorithm family's chains to analyze.
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

/// The outcome of an exact-chain analysis at a given `n`.
#[derive(Debug, Clone)]
pub struct ChainReport {
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

impl ChainReport {
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

/// Runs the full exact analysis (chains, lifting, latencies) for a
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
pub fn analyze(family: ChainFamily, n: usize) -> Result<ChainReport, ChainAnalysisError> {
    match family {
        ChainFamily::Scu01 => {
            let ind = scu::individual_chain(n)?;
            let sys = scu::system_chain(n)?;
            let lifting = verify_lifting(&ind, &sys, scu::lift, 1e-7)?;
            Ok(ChainReport {
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
            Ok(ChainReport {
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
            Ok(ChainReport {
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

/// The outcome of the scalable SCU analysis ([`analyze_scu_large`]).
#[derive(Debug, Clone)]
pub struct LargeScuReport {
    /// Number of processes.
    pub n: usize,
    /// States in the sparse system chain (`(n+1)(n+2)/2 − 1`).
    pub system_states: usize,
    /// States the individual chain *would* have (`3ⁿ − 1`) — reported
    /// as `f64` because it exceeds `usize` long before `n = 64`.
    pub individual_states: f64,
    /// System latency `W` from the adaptive sparse solver.
    pub system_latency: f64,
    /// Individual latency `n·W`, as given by Lemma 7 — valid because
    /// the lifting underlying it is verified by the kernel check.
    pub individual_latency: f64,
    /// Worst violation of the strong-lumpability kernel condition
    /// across all symmetry classes (see
    /// [`scu::verify_lifting_by_symmetry`]).
    pub kernel_residual: f64,
    /// Symmetry classes checked.
    pub classes: usize,
    /// Individual-chain rows checked (representatives + samples).
    pub states_checked: usize,
    /// Work statistics of the stationary solve.
    pub solver: SolveStats,
}

/// Runs the scalable SCU analysis at `n` processes: the sparse system
/// chain, adaptive-power-iteration latency, and the symmetry-reduced
/// kernel verification of Lemma 5's lifting against it. Practical far
/// past the dense oracle (`n` in the hundreds; the individual chain is
/// never enumerated).
///
/// # Errors
///
/// Propagates solver-convergence errors.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn analyze_scu_large(
    n: usize,
    samples_per_class: usize,
    seed: u64,
    opts: &PowerOptions,
    metrics: Option<&Metrics>,
) -> Result<LargeScuReport, ChainAnalysisError> {
    let lifting = scu::verify_lifting_by_symmetry(n, samples_per_class, seed)?;
    assemble_scu_large(&lifting, opts, metrics)
}

/// Assembles a [`LargeScuReport`] from a pre-computed (possibly
/// chunk-merged) lifting report plus a fresh sparse stationary
/// solve — the entry point for callers that fan the kernel check out
/// over [`scu::orbit_chunks`] in parallel and
/// [`merge`](scu::SymmetryLiftingReport::merge) the per-chunk reports.
/// [`analyze_scu_large`] is exactly this with a serial all-classes
/// check.
///
/// # Errors
///
/// Propagates solver-convergence errors.
///
/// # Panics
///
/// Panics if the lifting report's `n == 0`.
pub fn assemble_scu_large(
    lifting: &scu::SymmetryLiftingReport,
    opts: &PowerOptions,
    metrics: Option<&Metrics>,
) -> Result<LargeScuReport, ChainAnalysisError> {
    let n = lifting.n;
    let (w, solver) = scu::large_system_latency_with(n, opts, metrics)?;
    Ok(LargeScuReport {
        n,
        system_states: lifting.classes,
        individual_states: 3f64.powi(n as i32) - 1.0,
        system_latency: w,
        individual_latency: n as f64 * w,
        kernel_residual: lifting.kernel_residual,
        classes: lifting.classes,
        states_checked: lifting.states_checked,
        solver,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scu01_analysis_confirms_fairness_identity() {
        for n in 2..=5 {
            let r = analyze(ChainFamily::Scu01, n).unwrap();
            assert!((r.fairness_identity() - 1.0).abs() < 1e-8, "n = {n}");
            assert!(r.lifting_flow_residual < 1e-9);
        }
    }

    #[test]
    fn parallel_analysis_matches_lemma_11() {
        let r = analyze(ChainFamily::Parallel { q: 4 }, 3).unwrap();
        assert!((r.system_latency - 4.0).abs() < 1e-8);
        assert!((r.individual_latency - 12.0).abs() < 1e-8);
    }

    #[test]
    fn fai_analysis_within_lemma_12_bound() {
        for n in 2..=8 {
            let r = analyze(ChainFamily::FetchAndInc, n).unwrap();
            assert!(r.system_latency <= 2.0 * (n as f64).sqrt());
            assert!((r.fairness_identity() - 1.0).abs() < 1e-8);
        }
    }

    #[test]
    fn analysis_reuses_the_lifting_solve_bit_for_bit() {
        // The individual latency comes from the lifting check's
        // stationary distribution; it must equal a fresh solve exactly.
        for n in 1..=5 {
            let r = analyze(ChainFamily::Scu01, n).unwrap();
            let fresh = scu::exact_individual_latency(n, 0).unwrap();
            assert_eq!(
                r.individual_latency.to_bits(),
                fresh.to_bits(),
                "scu n = {n}"
            );
        }
        for n in 1..=6 {
            let r = analyze(ChainFamily::FetchAndInc, n).unwrap();
            let fresh = fai::exact_individual_latency(n, 0).unwrap();
            assert_eq!(
                r.individual_latency.to_bits(),
                fresh.to_bits(),
                "fai n = {n}"
            );
        }
        for (q, n) in [(1, 4), (2, 3), (3, 3)] {
            let r = analyze(ChainFamily::Parallel { q }, n).unwrap();
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
        let r = analyze(ChainFamily::Scu01, 3).unwrap();
        assert_eq!(r.individual_states, 26);
        assert_eq!(r.system_states, 9);
    }

    #[test]
    fn large_scu_analysis_matches_exhaustive_at_overlap() {
        // At n ≤ 7 both regimes run; they must agree.
        let n = 6;
        let exact = analyze(ChainFamily::Scu01, n).unwrap();
        let large = analyze_scu_large(n, 2, 7, &PowerOptions::new(400_000, 1e-12), None).unwrap();
        assert!(
            (exact.system_latency - large.system_latency).abs() / exact.system_latency < 1e-6,
            "dense {} vs sparse {}",
            exact.system_latency,
            large.system_latency
        );
        assert!(large.kernel_residual < 1e-12);
        assert_eq!(large.system_states, exact.system_states);
        assert!((large.individual_states - exact.individual_states as f64).abs() < 0.5);
    }

    #[test]
    fn large_scu_analysis_verifies_n_20_and_beyond() {
        let r = analyze_scu_large(20, 2, 11, &PowerOptions::new(400_000, 1e-11), None).unwrap();
        assert!(r.kernel_residual < 1e-12);
        assert_eq!(r.classes, 21 * 22 / 2 - 1);
        // Lemma 7's identity is definitional here; the payload is W.
        assert!((r.individual_latency - 20.0 * r.system_latency).abs() < 1e-9);
        // W/√n stays in the band the dense range established.
        let ratio = r.system_latency / 20f64.sqrt();
        assert!(ratio > 1.4 && ratio < 2.2, "W/sqrt(n) = {ratio}");
        assert!(r.solver.iterations > 0);
    }
}
