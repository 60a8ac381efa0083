//! Ergodic flow `Q_ij = π_i p_ij` (paper, Section 3).
//!
//! For an ergodic chain the flow satisfies `Σ_i Q_ij = Σ_i Q_ji = π_j`
//! and `Σ_{i,j} Q_ij = 1`; these conservation identities are exactly
//! what the lifting homomorphism (Section 3, "Lifting Markov Chains")
//! is stated over.

use std::hash::Hash;

use crate::chain::MarkovChain;
use crate::linalg::Matrix;
use crate::stationary::{stationary_distribution, StationaryError};

/// The ergodic flow of a chain together with the stationary
/// distribution it was derived from.
#[derive(Debug, Clone)]
pub struct ErgodicFlow {
    pi: Vec<f64>,
    q: Matrix,
}

impl ErgodicFlow {
    /// Computes the ergodic flow of an irreducible chain.
    ///
    /// # Errors
    ///
    /// Propagates the errors of [`stationary_distribution`].
    pub fn compute<S: Clone + Eq + Hash>(chain: &MarkovChain<S>) -> Result<Self, StationaryError> {
        let pi = stationary_distribution(chain)?;
        let n = chain.len();
        let mut q = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                q[(i, j)] = pi[i] * chain.prob(i, j);
            }
        }
        Ok(ErgodicFlow { pi, q })
    }

    /// The stationary distribution `π`.
    pub fn stationary(&self) -> &[f64] {
        &self.pi
    }

    /// The flow value `Q_ij`.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of bounds.
    pub fn flow(&self, i: usize, j: usize) -> f64 {
        self.q[(i, j)]
    }

    /// Number of states.
    pub fn len(&self) -> usize {
        self.pi.len()
    }

    /// Whether the flow is over zero states (never for computed flows).
    pub fn is_empty(&self) -> bool {
        self.pi.is_empty()
    }

    /// Total flow `Σ_{i,j} Q_ij`; equals 1 up to round-off.
    pub fn total(&self) -> f64 {
        let n = self.len();
        let mut t = 0.0;
        for i in 0..n {
            for j in 0..n {
                t += self.q[(i, j)];
            }
        }
        t
    }

    /// Maximum violation of the conservation identities
    /// `Σ_i Q_ij = Σ_i Q_ji = π_j`.
    pub fn conservation_residual(&self) -> f64 {
        let n = self.len();
        let mut worst: f64 = 0.0;
        for j in 0..n {
            let inflow: f64 = (0..n).map(|i| self.q[(i, j)]).sum();
            let outflow: f64 = (0..n).map(|i| self.q[(j, i)]).sum();
            worst = worst.max((inflow - self.pi[j]).abs());
            worst = worst.max((outflow - self.pi[j]).abs());
        }
        worst
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::ChainBuilder;

    fn asymmetric_chain() -> MarkovChain<u8> {
        ChainBuilder::new()
            .transition(0, 1, 0.8)
            .transition(0, 0, 0.2)
            .transition(1, 2, 0.6)
            .transition(1, 1, 0.4)
            .transition(2, 0, 1.0)
            .build()
            .unwrap()
    }

    #[test]
    fn total_flow_is_one() {
        let f = ErgodicFlow::compute(&asymmetric_chain()).unwrap();
        assert!((f.total() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn flow_is_conserved() {
        let f = ErgodicFlow::compute(&asymmetric_chain()).unwrap();
        assert!(f.conservation_residual() < 1e-12);
    }

    #[test]
    fn flow_values_match_definition() {
        let c = asymmetric_chain();
        let f = ErgodicFlow::compute(&c).unwrap();
        let pi = f.stationary().to_vec();
        #[allow(clippy::needless_range_loop)] // index loop is clearer here
        for i in 0..3 {
            for j in 0..3 {
                assert!((f.flow(i, j) - pi[i] * c.prob(i, j)).abs() < 1e-15);
            }
        }
    }

    #[test]
    fn reducible_chain_is_rejected() {
        let c = ChainBuilder::new()
            .transition(0, 0, 1.0)
            .transition(1, 1, 1.0)
            .build()
            .unwrap();
        assert!(ErgodicFlow::compute(&c).is_err());
    }
}
