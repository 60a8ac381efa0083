//! Stationary distributions and return times (Theorem 1 of the paper:
//! an irreducible finite chain has a unique stationary distribution
//! `π` with `π_j = 1 / h_jj`).

use std::fmt;
use std::hash::Hash;

use crate::chain::MarkovChain;
use crate::linalg::{self, LinalgError, Matrix};
use crate::structure;

/// Errors from the stationary-distribution solvers.
#[derive(Debug, Clone, PartialEq)]
pub enum StationaryError {
    /// The chain is not irreducible, so Theorem 1 does not apply and
    /// the stationary distribution is not unique.
    NotIrreducible,
    /// The underlying linear solve failed.
    Linalg(LinalgError),
    /// Power iteration failed to converge within the step budget.
    NotConverged {
        /// Number of iterations performed.
        iterations: usize,
        /// Final L1 change between successive iterates.
        delta: f64,
    },
}

impl fmt::Display for StationaryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StationaryError::NotIrreducible => {
                write!(
                    f,
                    "chain is not irreducible; stationary distribution not unique"
                )
            }
            StationaryError::Linalg(e) => write!(f, "linear solve failed: {e}"),
            StationaryError::NotConverged { iterations, delta } => {
                write!(
                    f,
                    "power iteration did not converge after {iterations} steps (delta {delta})"
                )
            }
        }
    }
}

impl std::error::Error for StationaryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StationaryError::Linalg(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LinalgError> for StationaryError {
    fn from(e: LinalgError) -> Self {
        StationaryError::Linalg(e)
    }
}

/// Computes the unique stationary distribution of an irreducible chain
/// by solving `π (P − I) = 0` with the normalization `Σ π = 1`
/// substituted for one (redundant) balance equation.
///
/// # Errors
///
/// Returns [`StationaryError::NotIrreducible`] if the chain is not
/// irreducible, or a [`StationaryError::Linalg`] error if the solve
/// fails numerically.
pub fn stationary_distribution<S: Clone + Eq + Hash>(
    chain: &MarkovChain<S>,
) -> Result<Vec<f64>, StationaryError> {
    if !structure::is_irreducible(chain) {
        return Err(StationaryError::NotIrreducible);
    }
    let n = chain.len();
    // Build Aᵀ where A = Pᵀ − I with the last row replaced by the
    // normalization constraint Σ π_j = 1.
    let mut a = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..n {
            // Balance equations: Σ_i π_i p_ij = π_j  ⇔ column j of
            // (Pᵀ − I) dotted with π is 0.
            a[(j, i)] = chain.prob(i, j) - if i == j { 1.0 } else { 0.0 };
        }
    }
    let mut b = vec![0.0; n];
    for j in 0..n {
        a[(n - 1, j)] = 1.0;
    }
    b[n - 1] = 1.0;
    let mut pi = linalg::solve(&a, &b)?;
    // Clamp tiny negative round-off and renormalize.
    for p in &mut pi {
        if *p < 0.0 && *p > -1e-9 {
            *p = 0.0;
        }
    }
    let total: f64 = pi.iter().sum();
    for p in &mut pi {
        *p /= total;
    }
    Ok(pi)
}

/// Expected return times `h_jj = 1 / π_j` for every state (Theorem 1).
///
/// # Errors
///
/// Propagates the errors of [`stationary_distribution`].
pub fn return_times<S: Clone + Eq + Hash>(
    chain: &MarkovChain<S>,
) -> Result<Vec<f64>, StationaryError> {
    let pi = stationary_distribution(chain)?;
    Ok(pi.iter().map(|p| 1.0 / p).collect())
}

/// Maximum violation of the balance equations `π P = π`; useful in
/// tests and as an a-posteriori solver check.
///
/// # Panics
///
/// Panics if `pi.len() != chain.len()`.
pub fn balance_residual<S: Clone + Eq + Hash>(chain: &MarkovChain<S>, pi: &[f64]) -> f64 {
    assert_eq!(
        pi.len(),
        chain.len(),
        "distribution length must match chain"
    );
    let stepped = chain.step_distribution(pi);
    stepped
        .iter()
        .zip(pi)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::ChainBuilder;

    fn biased_two_state() -> MarkovChain<&'static str> {
        // π = (1/3, 2/3): flows 1·(2/3)·(1/2) = (1/3)·1? Check:
        // a -> b w.p. 1; b -> a w.p. 0.5, b -> b w.p. 0.5.
        // Balance: π_a = 0.5 π_b; π_a + π_b = 1 ⇒ π = (1/3, 2/3).
        ChainBuilder::new()
            .transition("a", "b", 1.0)
            .transition("b", "a", 0.5)
            .transition("b", "b", 0.5)
            .build()
            .unwrap()
    }

    #[test]
    fn stationary_of_biased_two_state() {
        let c = biased_two_state();
        let pi = stationary_distribution(&c).unwrap();
        assert!((pi[0] - 1.0 / 3.0).abs() < 1e-12);
        assert!((pi[1] - 2.0 / 3.0).abs() < 1e-12);
        assert!(balance_residual(&c, &pi) < 1e-12);
    }

    #[test]
    fn return_times_are_reciprocal_probabilities() {
        let c = biased_two_state();
        let h = return_times(&c).unwrap();
        assert!((h[0] - 3.0).abs() < 1e-9);
        assert!((h[1] - 1.5).abs() < 1e-9);
    }

    #[test]
    fn uniform_chain_has_uniform_stationary() {
        let n = 5;
        let mut b = ChainBuilder::new();
        for i in 0..n {
            for j in 0..n {
                b = b.transition(i, j, 1.0 / n as f64);
            }
        }
        let c = b.build().unwrap();
        let pi = stationary_distribution(&c).unwrap();
        for p in pi {
            assert!((p - 1.0 / n as f64).abs() < 1e-12);
        }
    }

    #[test]
    fn reducible_chain_is_rejected() {
        let c = ChainBuilder::new()
            .transition(0, 0, 1.0)
            .transition(1, 1, 1.0)
            .build()
            .unwrap();
        assert_eq!(
            stationary_distribution(&c).unwrap_err(),
            StationaryError::NotIrreducible
        );
    }

    #[test]
    fn random_walk_on_weighted_cycle() {
        // Walk on 3-cycle with asymmetric probabilities still doubly
        // stochastic? No — use a chain with known stationary: birth-
        // death 0<->1<->2 with p_up = 0.4 at 0→1, etc. Simpler: verify
        // the solution satisfies balance to high precision.
        let c = ChainBuilder::new()
            .transition(0, 1, 0.4)
            .transition(0, 0, 0.6)
            .transition(1, 2, 0.3)
            .transition(1, 0, 0.2)
            .transition(1, 1, 0.5)
            .transition(2, 1, 0.7)
            .transition(2, 2, 0.3)
            .build()
            .unwrap();
        let pi = stationary_distribution(&c).unwrap();
        assert!(balance_residual(&c, &pi) < 1e-12);
        assert!((pi.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(pi.iter().all(|&p| p > 0.0));
    }
}
