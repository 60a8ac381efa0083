//! Sparse chains and iterative solvers, for state spaces where the
//! dense `O(n²)` representation of [`crate::chain::MarkovChain`] is
//! infeasible — e.g. the SCU system chain at thousands of processes
//! (`Θ(n²)` states, ≤ 3 transitions each).
//!
//! Storage is compressed sparse row (CSR): flat `cols`/`probs` arrays
//! sliced by `row_ptr`, so a row scan is a contiguous read and the
//! whole transition structure lives in three allocations.
//!
//! The stationary solver is lazy power iteration (`q ← q(I + P)/2`),
//! which converges for every irreducible chain regardless of
//! periodicity — important here because the paper's chains are
//! periodic (see the workspace's Lemma 3 deviation note). See
//! [`crate::solve`] for the adaptive stopping rule and solve
//! statistics.

use std::collections::HashMap;
use std::hash::Hash;
use std::time::Instant;

use pwf_obs::Metrics;

use crate::chain::{ChainError, MarkovChain};
use crate::linalg::Matrix;
use crate::solve::{record_solve, PowerOptions, SolveStats};
use crate::stationary::StationaryError;
use crate::structure::Adjacency;

/// A sparse row-stochastic Markov chain over labelled states, stored
/// in CSR form.
#[derive(Debug, Clone)]
pub struct SparseChain<S> {
    states: Vec<S>,
    index: HashMap<S, usize>,
    /// Column (target-state) indices, row-major, sorted within a row.
    cols: Vec<u32>,
    /// Transition probabilities, parallel to `cols`.
    probs: Vec<f64>,
    /// `row_ptr[i]..row_ptr[i + 1]` slices row `i` out of
    /// `cols`/`probs`; length `len() + 1`.
    row_ptr: Vec<usize>,
}

/// The result of a sparse stationary solve: the distribution plus how
/// hard the solver worked.
#[derive(Debug, Clone)]
pub struct StationarySolve {
    /// The stationary distribution.
    pub pi: Vec<f64>,
    /// Iterations, final delta, wall time.
    pub stats: SolveStats,
}

impl<S: Clone + Eq + Hash> SparseChain<S> {
    /// Assembles a chain from pre-validated CSR parts (crate-internal:
    /// used by [`MarkovChain::to_sparse`]).
    pub(crate) fn from_validated_parts(
        states: Vec<S>,
        index: HashMap<S, usize>,
        cols: Vec<u32>,
        probs: Vec<f64>,
        row_ptr: Vec<usize>,
    ) -> Self {
        SparseChain {
            states,
            index,
            cols,
            probs,
            row_ptr,
        }
    }

    /// Number of states.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Whether the chain has no states (never true once built).
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// The state labels in index order.
    pub fn states(&self) -> &[S] {
        &self.states
    }

    /// Index of a state label.
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

    /// Non-zero transitions out of state `i` as `(target, prob)`
    /// pairs, in increasing target order.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn row(&self, i: usize) -> impl Iterator<Item = (u32, f64)> + '_ {
        self.row_cols(i)
            .iter()
            .copied()
            .zip(self.row_probs(i).iter().copied())
    }

    /// The target-state indices of row `i` (CSR slice).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn row_cols(&self, i: usize) -> &[u32] {
        &self.cols[self.row_ptr[i]..self.row_ptr[i + 1]]
    }

    /// The probabilities of row `i`, parallel to
    /// [`row_cols`](Self::row_cols).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn row_probs(&self, i: usize) -> &[f64] {
        &self.probs[self.row_ptr[i]..self.row_ptr[i + 1]]
    }

    /// The transition probability `P[i → j]` (binary search within the
    /// row; 0 for absent entries).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn prob(&self, i: usize, j: usize) -> f64 {
        let cols = self.row_cols(i);
        match cols.binary_search(&(j as u32)) {
            Ok(k) => self.row_probs(i)[k],
            Err(_) => 0.0,
        }
    }

    /// Total number of stored transitions.
    pub fn nnz(&self) -> usize {
        self.cols.len()
    }

    /// One step of the chain applied to a distribution: `q ↦ q·P`.
    ///
    /// # Panics
    ///
    /// Panics if `dist.len() != len()`.
    pub fn step_distribution(&self, dist: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.len()];
        self.step_into(dist, &mut out);
        out
    }

    /// [`step_distribution`](Self::step_distribution) into a caller
    /// buffer, so iterative solvers can avoid per-step allocation.
    ///
    /// # Panics
    ///
    /// Panics if either length differs from `len()`.
    pub fn step_into(&self, dist: &[f64], out: &mut [f64]) {
        assert_eq!(dist.len(), self.len(), "distribution length mismatch");
        assert_eq!(out.len(), self.len(), "output length mismatch");
        out.fill(0.0);
        for (i, &qi) in dist.iter().enumerate() {
            if qi == 0.0 {
                continue;
            }
            let lo = self.row_ptr[i];
            let hi = self.row_ptr[i + 1];
            for (&j, &p) in self.cols[lo..hi].iter().zip(&self.probs[lo..hi]) {
                out[j as usize] += qi * p;
            }
        }
    }

    /// Stationary distribution by lazy power iteration from uniform,
    /// with the historical raw-delta stopping rule.
    ///
    /// # Errors
    ///
    /// Returns [`StationaryError::NotConverged`] if the L1 change stays
    /// above `tol` after `max_iters` iterations. (Irreducibility is
    /// assumed, not checked — checking is `O(nnz)` via
    /// [`is_irreducible`](Self::is_irreducible) when wanted.)
    pub fn stationary(&self, max_iters: usize, tol: f64) -> Result<Vec<f64>, StationaryError> {
        self.stationary_with(&PowerOptions::new(max_iters, tol).raw(), None)
            .map(|s| s.pi)
    }

    /// Stationary distribution by lazy power iteration
    /// (`q ← q(I + P)/2`) from uniform, with explicit [`PowerOptions`]
    /// (adaptive geometric-extrapolation stopping by default) and
    /// optional solver metrics (`markov.stationary.*`).
    ///
    /// # Errors
    ///
    /// Returns [`StationaryError::NotConverged`] when the budget runs
    /// out; the error carries the last observed delta.
    pub fn stationary_with(
        &self,
        opts: &PowerOptions,
        metrics: Option<&Metrics>,
    ) -> Result<StationarySolve, StationaryError> {
        let n = self.len();
        let start = Instant::now();
        let mut dist = vec![1.0 / n as f64; n];
        let mut next = vec![0.0; n];
        let mut delta = f64::INFINITY;
        let mut prev_delta = f64::INFINITY;
        for it in 1..=opts.max_iters {
            self.step_into(&dist, &mut next);
            delta = 0.0;
            for (d, s) in dist.iter_mut().zip(&next) {
                let v = 0.5 * *d + 0.5 * s;
                delta += (v - *d).abs();
                *d = v;
            }
            let remaining = if opts.adaptive && prev_delta.is_finite() {
                // Geometric extrapolation: with observed decay rate
                // r = δ_t/δ_{t−1}, the distance left to the fixpoint
                // is ≈ δ·r/(1 − r). Fall back to the raw delta while
                // the rate estimate is unusable (first step, exact
                // convergence, or non-contracting transients); cap the
                // estimate below by δ so a transiently tiny rate can
                // never fake convergence.
                let rate = delta / prev_delta;
                if rate > 0.0 && rate < 1.0 {
                    f64::max(delta, delta * rate / (1.0 - rate))
                } else {
                    delta
                }
            } else {
                delta
            };
            prev_delta = delta;
            if remaining < opts.tol {
                let stats = SolveStats {
                    iterations: it,
                    residual: delta,
                    wall_ms: start.elapsed().as_secs_f64() * 1e3,
                };
                record_solve(metrics, "stationary", &stats);
                return Ok(StationarySolve { pi: dist, stats });
            }
        }
        record_solve(
            metrics,
            "stationary",
            &SolveStats {
                iterations: opts.max_iters,
                residual: delta,
                wall_ms: start.elapsed().as_secs_f64() * 1e3,
            },
        );
        Err(StationaryError::NotConverged {
            iterations: opts.max_iters,
            delta,
        })
    }

    /// Whether the positive-probability graph is strongly connected
    /// (Tarjan SCC over the CSR adjacency).
    pub fn is_irreducible(&self) -> bool {
        Adjacency::from_sparse(self).is_strongly_connected()
    }

    /// Densifies the chain for use with the direct solvers — the
    /// cross-check oracle path for small `n`.
    ///
    /// # Errors
    ///
    /// Propagates [`MarkovChain::from_matrix`] validation (cannot fail
    /// for a chain built by [`SparseChainBuilder`]).
    pub fn to_dense(&self) -> Result<MarkovChain<S>, ChainError> {
        let n = self.len();
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            for (j, p) in self.row(i) {
                m[(i, j as usize)] += p;
            }
        }
        MarkovChain::from_matrix(self.states.clone(), m)
    }
}

/// Incremental builder for [`SparseChain`].
#[derive(Debug, Clone)]
pub struct SparseChainBuilder<S> {
    states: Vec<S>,
    index: HashMap<S, usize>,
    entries: Vec<(usize, usize, f64)>,
}

impl<S: Clone + Eq + Hash> SparseChainBuilder<S> {
    /// Creates an empty builder.
    pub fn new() -> Self {
        SparseChainBuilder {
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

    /// Declares a state (fixes its index order).
    pub fn state(&mut self, s: S) -> &mut Self {
        self.intern(s);
        self
    }

    /// Adds probability mass to a transition (accumulating).
    pub fn transition(&mut self, from: S, to: S, p: f64) -> &mut Self {
        let i = self.intern(from);
        let j = self.intern(to);
        self.entries.push((i, j, p));
        self
    }

    /// Finalizes the chain into CSR form, validating stochasticity.
    ///
    /// # Errors
    ///
    /// Same validation as the dense builder: every probability finite
    /// and non-negative, every row summing to 1 within tolerance.
    pub fn build(self) -> Result<SparseChain<S>, ChainError> {
        if self.states.is_empty() {
            return Err(ChainError::Empty);
        }
        let n = self.states.len();
        assert!(n <= u32::MAX as usize, "state space exceeds u32 indexing");

        // Bucket entries by row (counting sort), then sort and merge
        // duplicates within each row — no per-row hash maps.
        let mut bucket_ptr = vec![0usize; n + 1];
        for &(i, j, p) in &self.entries {
            if !p.is_finite() || p < 0.0 {
                return Err(ChainError::InvalidProbability {
                    from: i,
                    to: j,
                    prob: p,
                });
            }
            bucket_ptr[i + 1] += 1;
        }
        for i in 0..n {
            bucket_ptr[i + 1] += bucket_ptr[i];
        }
        let mut scratch: Vec<(u32, f64)> = vec![(0, 0.0); self.entries.len()];
        let mut cursor = bucket_ptr.clone();
        for &(i, j, p) in &self.entries {
            scratch[cursor[i]] = (j as u32, p);
            cursor[i] += 1;
        }

        let mut cols = Vec::with_capacity(self.entries.len());
        let mut probs = Vec::with_capacity(self.entries.len());
        let mut row_ptr = Vec::with_capacity(n + 1);
        row_ptr.push(0);
        for i in 0..n {
            let seg = &mut scratch[bucket_ptr[i]..bucket_ptr[i + 1]];
            seg.sort_unstable_by_key(|&(j, _)| j);
            let mut sum = 0.0;
            let mut k = 0;
            while k < seg.len() {
                let j = seg[k].0;
                let mut p = 0.0;
                while k < seg.len() && seg[k].0 == j {
                    p += seg[k].1;
                    k += 1;
                }
                sum += p;
                cols.push(j);
                probs.push(p);
            }
            if (sum - 1.0).abs() > crate::chain::ROW_SUM_TOLERANCE {
                return Err(ChainError::RowNotStochastic { state: i, sum });
            }
            row_ptr.push(cols.len());
        }
        Ok(SparseChain {
            states: self.states,
            index: self.index,
            cols,
            probs,
            row_ptr,
        })
    }
}

impl<S: Clone + Eq + Hash> Default for SparseChainBuilder<S> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn biased() -> SparseChain<&'static str> {
        let mut b = SparseChainBuilder::new();
        b.transition("a", "b", 1.0)
            .transition("b", "a", 0.5)
            .transition("b", "b", 0.5);
        b.build().unwrap()
    }

    #[test]
    fn stationary_matches_dense_result() {
        // Same chain as the dense test: π = (1/3, 2/3).
        let c = biased();
        let pi = c.stationary(100_000, 1e-13).unwrap();
        assert!((pi[0] - 1.0 / 3.0).abs() < 1e-9);
        assert!((pi[1] - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn adaptive_solver_matches_raw_solver() {
        let c = biased();
        let raw = c.stationary(100_000, 1e-12).unwrap();
        let adaptive = c
            .stationary_with(&PowerOptions::new(100_000, 1e-12), None)
            .unwrap();
        assert!(adaptive.stats.iterations > 0);
        assert!(adaptive.stats.residual.is_finite());
        for (a, b) in raw.iter().zip(&adaptive.pi) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn solver_publishes_metrics() {
        let m = Metrics::new();
        let c = biased();
        c.stationary_with(&PowerOptions::default(), Some(&m))
            .unwrap();
        let snap = m.snapshot();
        assert!(snap
            .counters
            .iter()
            .any(|(n, v)| n == "markov.stationary.solves" && *v == 1));
        assert!(snap
            .gauges
            .iter()
            .any(|(n, _)| n == "markov.stationary.wall_ms"));
    }

    #[test]
    fn periodic_chain_converges_via_laziness() {
        let mut b = SparseChainBuilder::new();
        b.transition(0, 1, 1.0).transition(1, 0, 1.0);
        let c = b.build().unwrap();
        let pi = c.stationary(100_000, 1e-12).unwrap();
        assert!((pi[0] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn irreducibility_detection() {
        assert!(biased().is_irreducible());
        let mut b = SparseChainBuilder::new();
        b.transition(0, 0, 1.0).transition(1, 1, 1.0);
        assert!(!b.build().unwrap().is_irreducible());
    }

    #[test]
    fn validation_matches_dense_builder() {
        let mut b = SparseChainBuilder::new();
        b.transition(0, 0, 0.5);
        assert!(matches!(
            b.build(),
            Err(ChainError::RowNotStochastic { state: 0, .. })
        ));
        let mut b = SparseChainBuilder::new();
        b.transition(0, 0, 1.5)
            .transition(0, 1, -0.5)
            .transition(1, 1, 1.0);
        assert!(matches!(
            b.build(),
            Err(ChainError::InvalidProbability { .. })
        ));
        assert!(matches!(
            SparseChainBuilder::<u8>::new().build(),
            Err(ChainError::Empty)
        ));
    }

    #[test]
    fn nnz_counts_transitions() {
        assert_eq!(biased().nnz(), 3);
    }

    #[test]
    fn csr_layout_is_sorted_and_sliced() {
        let c = biased();
        assert_eq!(c.row_cols(0), &[1]);
        assert_eq!(c.row_probs(0), &[1.0]);
        assert_eq!(c.row_cols(1), &[0, 1]);
        assert_eq!(c.row_probs(1), &[0.5, 0.5]);
        assert_eq!(c.prob(1, 0), 0.5);
        assert_eq!(c.prob(0, 0), 0.0);
    }

    #[test]
    fn accumulating_duplicate_entries() {
        let mut b = SparseChainBuilder::new();
        b.transition(0, 1, 0.5)
            .transition(0, 1, 0.5)
            .transition(1, 0, 1.0);
        let c = b.build().unwrap();
        assert_eq!(c.row(0).collect::<Vec<_>>(), vec![(1, 1.0)]);
    }

    #[test]
    fn step_distribution_preserves_mass() {
        let c = biased();
        let d = c.step_distribution(&[0.25, 0.75]);
        assert!((d.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn dense_round_trip_preserves_probabilities() {
        let c = biased();
        let dense = c.to_dense().unwrap();
        assert_eq!(dense.states(), c.states());
        for i in 0..c.len() {
            for j in 0..c.len() {
                assert_eq!(dense.prob(i, j), c.prob(i, j), "({i}, {j})");
            }
        }
        let back = dense.to_sparse();
        assert_eq!(back.nnz(), c.nnz());
        for i in 0..c.len() {
            assert_eq!(back.row_cols(i), c.row_cols(i));
            assert_eq!(back.row_probs(i), c.row_probs(i));
        }
    }
}
