//! Finite, time-invariant, discrete-time Markov chains over explicit
//! state sets (paper, Section 3).
//!
//! States carry an arbitrary label type `S` so chains built from
//! algorithm configurations (e.g. tuples `(a, b)` of the system chain,
//! or full extended-local-state vectors of the individual chain) keep
//! their domain meaning.

use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;

use crate::linalg::Matrix;
use crate::sparse::SparseChain;

/// Tolerance used when validating that transition rows are stochastic.
pub const ROW_SUM_TOLERANCE: f64 = 1e-9;

/// Errors produced while building or querying a [`MarkovChain`].
#[derive(Debug, Clone, PartialEq)]
pub enum ChainError {
    /// A transition probability was negative or not finite.
    InvalidProbability {
        /// Index of the source state.
        from: usize,
        /// Index of the destination state.
        to: usize,
        /// The offending probability.
        prob: f64,
    },
    /// A row of the transition matrix does not sum to 1.
    RowNotStochastic {
        /// Index of the offending state.
        state: usize,
        /// The actual row sum.
        sum: f64,
    },
    /// The same state label was added twice.
    DuplicateState,
    /// A transition referenced a state label that was never added.
    UnknownState,
    /// The chain has no states.
    Empty,
}

impl fmt::Display for ChainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChainError::InvalidProbability { from, to, prob } => {
                write!(f, "invalid probability {prob} on transition {from} -> {to}")
            }
            ChainError::RowNotStochastic { state, sum } => {
                write!(f, "row {state} sums to {sum}, expected 1")
            }
            ChainError::DuplicateState => write!(f, "duplicate state label"),
            ChainError::UnknownState => write!(f, "transition references unknown state"),
            ChainError::Empty => write!(f, "chain has no states"),
        }
    }
}

impl std::error::Error for ChainError {}

/// A finite time-invariant Markov chain `M(P, ·)` with labelled states.
///
/// The transition matrix is dense; chains in this workspace are exact
/// constructions with at most a few thousand states.
///
/// # Examples
///
/// ```
/// use pwf_markov::chain::ChainBuilder;
///
/// // Two-state chain: flip with probability 1/4, stay with 3/4.
/// let chain = ChainBuilder::new()
///     .transition("a", "b", 0.25)
///     .transition("a", "a", 0.75)
///     .transition("b", "a", 0.25)
///     .transition("b", "b", 0.75)
///     .build()
///     .expect("rows are stochastic");
/// assert_eq!(chain.len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct MarkovChain<S> {
    states: Vec<S>,
    index: HashMap<S, usize>,
    transition: Matrix,
}

impl<S: Clone + Eq + Hash> MarkovChain<S> {
    /// Builds a chain from an explicit state list and transition matrix.
    ///
    /// # Errors
    ///
    /// Returns an error if states are duplicated, the matrix shape does
    /// not match, any probability is invalid, or a row is not
    /// stochastic within [`ROW_SUM_TOLERANCE`].
    pub fn from_matrix(states: Vec<S>, transition: Matrix) -> Result<Self, ChainError> {
        if states.is_empty() {
            return Err(ChainError::Empty);
        }
        if transition.rows() != states.len() || transition.cols() != states.len() {
            return Err(ChainError::RowNotStochastic {
                state: 0,
                sum: f64::NAN,
            });
        }
        let mut index = HashMap::with_capacity(states.len());
        for (i, s) in states.iter().enumerate() {
            if index.insert(s.clone(), i).is_some() {
                return Err(ChainError::DuplicateState);
            }
        }
        for i in 0..states.len() {
            let mut sum = 0.0;
            for j in 0..states.len() {
                let p = transition[(i, j)];
                if !p.is_finite() || p < 0.0 {
                    return Err(ChainError::InvalidProbability {
                        from: i,
                        to: j,
                        prob: p,
                    });
                }
                sum += p;
            }
            if (sum - 1.0).abs() > ROW_SUM_TOLERANCE {
                return Err(ChainError::RowNotStochastic { state: i, sum });
            }
        }
        Ok(MarkovChain {
            states,
            index,
            transition,
        })
    }

    /// Number of states.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Whether the chain has no states (never true for a built chain).
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// The state labels, in index order.
    pub fn states(&self) -> &[S] {
        &self.states
    }

    /// The index of a state label, if present.
    pub fn state_index(&self, s: &S) -> Option<usize> {
        self.index.get(s).copied()
    }

    /// The label of state `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn state(&self, i: usize) -> &S {
        &self.states[i]
    }

    /// The transition probability `P[i → j]`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of bounds.
    pub fn prob(&self, i: usize, j: usize) -> f64 {
        self.transition[(i, j)]
    }

    /// Applies one step of the chain to a distribution (`q ↦ q·P`).
    ///
    /// # Panics
    ///
    /// Panics if `dist.len() != self.len()`.
    pub fn step_distribution(&self, dist: &[f64]) -> Vec<f64> {
        self.transition.vec_mul(dist)
    }

    /// The out-neighbours of state `i` (indices with positive
    /// probability).
    ///
    /// Each call scans one dense row and allocates; code traversing
    /// the whole graph should extract a
    /// [`crate::structure::Adjacency`] once instead of calling this in
    /// a loop (the old `structure` reachability did exactly that and
    /// was accidentally `O(n³)`).
    pub fn successors(&self, i: usize) -> Vec<usize> {
        (0..self.len()).filter(|&j| self.prob(i, j) > 0.0).collect()
    }

    /// Converts to the CSR sparse representation, dropping zero
    /// entries. Infallible: a built dense chain is already validated.
    pub fn to_sparse(&self) -> SparseChain<S> {
        let n = self.len();
        let mut cols = Vec::new();
        let mut probs = Vec::new();
        let mut row_ptr = Vec::with_capacity(n + 1);
        row_ptr.push(0);
        for i in 0..n {
            for j in 0..n {
                let p = self.transition[(i, j)];
                if p > 0.0 {
                    cols.push(j as u32);
                    probs.push(p);
                }
            }
            row_ptr.push(cols.len());
        }
        SparseChain::from_validated_parts(
            self.states.clone(),
            self.index.clone(),
            cols,
            probs,
            row_ptr,
        )
    }
}

/// Incremental builder for [`MarkovChain`].
///
/// States are created implicitly the first time a label appears, in
/// order of first appearance. Multiple `transition` calls for the same
/// pair accumulate.
#[derive(Debug, Clone)]
pub struct ChainBuilder<S> {
    states: Vec<S>,
    index: HashMap<S, usize>,
    entries: Vec<(usize, usize, f64)>,
}

impl<S: Clone + Eq + Hash> ChainBuilder<S> {
    /// Creates an empty builder.
    pub fn new() -> Self {
        ChainBuilder {
            states: Vec::new(),
            index: HashMap::new(),
            entries: Vec::new(),
        }
    }

    fn intern(&mut self, s: S) -> usize {
        if let Some(&i) = self.index.get(&s) {
            return i;
        }
        let i = self.states.len();
        self.states.push(s.clone());
        self.index.insert(s, i);
        i
    }

    /// Declares a state without any transition (useful to fix ordering).
    #[must_use]
    pub fn state(mut self, s: S) -> Self {
        self.intern(s);
        self
    }

    /// Adds probability mass `p` to the transition `from → to`.
    #[must_use]
    pub fn transition(mut self, from: S, to: S, p: f64) -> Self {
        let i = self.intern(from);
        let j = self.intern(to);
        self.entries.push((i, j, p));
        self
    }

    /// Finalizes the chain.
    ///
    /// # Errors
    ///
    /// Propagates the validation errors of
    /// [`MarkovChain::from_matrix`].
    pub fn build(self) -> Result<MarkovChain<S>, ChainError> {
        if self.states.is_empty() {
            return Err(ChainError::Empty);
        }
        let n = self.states.len();
        let mut m = Matrix::zeros(n, n);
        for (i, j, p) in self.entries {
            m[(i, j)] += p;
        }
        MarkovChain::from_matrix(self.states, m)
    }
}

impl<S: Clone + Eq + Hash> Default for ChainBuilder<S> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_state() -> MarkovChain<&'static str> {
        ChainBuilder::new()
            .transition("a", "b", 0.25)
            .transition("a", "a", 0.75)
            .transition("b", "a", 0.5)
            .transition("b", "b", 0.5)
            .build()
            .unwrap()
    }

    #[test]
    fn builder_creates_states_in_first_appearance_order() {
        let c = two_state();
        assert_eq!(c.states(), &["a", "b"]);
        assert_eq!(c.state_index(&"b"), Some(1));
        assert_eq!(c.state_index(&"missing"), None);
    }

    #[test]
    fn probabilities_round_trip() {
        let c = two_state();
        assert_eq!(c.prob(0, 1), 0.25);
        assert_eq!(c.prob(1, 0), 0.5);
    }

    #[test]
    fn accumulating_transitions_sum() {
        let c = ChainBuilder::new()
            .transition("x", "x", 0.5)
            .transition("x", "x", 0.5)
            .build()
            .unwrap();
        assert_eq!(c.prob(0, 0), 1.0);
    }

    #[test]
    fn non_stochastic_row_is_rejected() {
        let err = ChainBuilder::new()
            .transition("a", "a", 0.5)
            .build()
            .unwrap_err();
        assert!(matches!(err, ChainError::RowNotStochastic { state: 0, .. }));
    }

    #[test]
    fn negative_probability_is_rejected() {
        let err = ChainBuilder::new()
            .transition("a", "a", 1.5)
            .transition("a", "b", -0.5)
            .transition("b", "b", 1.0)
            .build()
            .unwrap_err();
        assert!(matches!(err, ChainError::InvalidProbability { .. }));
    }

    #[test]
    fn empty_chain_is_rejected() {
        let err = ChainBuilder::<u32>::new().build().unwrap_err();
        assert_eq!(err, ChainError::Empty);
    }

    #[test]
    fn missing_row_is_rejected() {
        // "b" gets a state but no outgoing probability.
        let err = ChainBuilder::new()
            .transition("a", "b", 1.0)
            .build()
            .unwrap_err();
        assert!(matches!(err, ChainError::RowNotStochastic { state: 1, .. }));
    }

    #[test]
    fn step_distribution_preserves_mass() {
        let c = two_state();
        let d = c.step_distribution(&[0.3, 0.7]);
        assert!((d.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        // q·P by hand: [0.3*0.75 + 0.7*0.5, 0.3*0.25 + 0.7*0.5]
        assert!((d[0] - 0.575).abs() < 1e-12);
        assert!((d[1] - 0.425).abs() < 1e-12);
    }

    #[test]
    fn successors_lists_positive_edges() {
        let c = ChainBuilder::new()
            .transition(0u8, 1u8, 1.0)
            .transition(1u8, 0u8, 0.5)
            .transition(1u8, 1u8, 0.5)
            .build()
            .unwrap();
        assert_eq!(c.successors(0), vec![1]);
        assert_eq!(c.successors(1), vec![0, 1]);
    }

    #[test]
    fn to_sparse_drops_zero_entries() {
        let c = two_state();
        let s = c.to_sparse();
        assert_eq!(s.len(), 2);
        assert_eq!(s.nnz(), 4);
        assert_eq!(s.prob(0, 1), 0.25);
        assert_eq!(s.state_index(&"b"), Some(1));
    }

    #[test]
    fn from_matrix_validates_shape() {
        let m = Matrix::zeros(2, 3);
        assert!(MarkovChain::from_matrix(vec!["a", "b"], m).is_err());
    }

    #[test]
    fn duplicate_states_rejected() {
        let m = Matrix::zeros(2, 2);
        let err = MarkovChain::from_matrix(vec!["a", "a"], m).unwrap_err();
        assert_eq!(err, ChainError::DuplicateState);
    }
}
