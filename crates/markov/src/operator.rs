//! Implicit transition operators: `y = x·P` computed on the fly.
//!
//! The paper's chains are *generated* objects — the SCU system chain's
//! row at `(a, b)` is three closed-form entries, the FAI global
//! chain's row at `v_i` is two — so materializing a CSR matrix is a
//! convenience, not a necessity. [`TransitionOperator`] abstracts the
//! only two capabilities the iterative solvers actually use: the state
//! count and on-demand row generation. Everything downstream —
//! stationary power iteration ([`stationary_operator`]), Gauss–Seidel
//! hitting times ([`crate::hitting::operator_hitting_times`]), TV
//! mixing ([`crate::mixing::operator_lazy_mixing_time`]), and the
//! lifting kernel check ([`crate::lifting::RowResidualScratch`]) — is
//! generic over the operator, so a chain family can be solved at any
//! `n` whose *state count* fits in memory, with `O(1)` rows resident.
//!
//! [`crate::sparse::SparseChain`] implements the trait by delegating
//! to its CSR kernels, **bit-exactly**: an operator-generic solve on a
//! `SparseChain` performs the identical float operations in the
//! identical order as the historical CSR solve, so the sparse engine
//! remains the drop-in oracle for implicit operators.

use std::time::Instant;

use pwf_obs::Metrics;

use crate::solve::{record_solve, PowerOptions, SolveStats};
use crate::sparse::StationarySolve;
use crate::stationary::StationaryError;

/// An implicit row-stochastic transition matrix: the minimal surface
/// the iterative solvers need, dyn-compatible so heterogeneous chain
/// families can share one solver instantiation.
///
/// Implementations must generate rows deterministically — two calls to
/// [`row_into`](Self::row_into) for the same `i` must produce the same
/// entries in the same order, with column indices strictly increasing
/// (the CSR invariant). Solvers rely on this for reproducible float
/// arithmetic.
pub trait TransitionOperator {
    /// Number of states.
    fn len(&self) -> usize;

    /// Whether the operator has no states (never true for a valid
    /// chain).
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Generates row `i` into `row` as `(target, prob)` pairs with
    /// strictly increasing targets, replacing its previous contents.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    fn row_into(&self, i: usize, row: &mut Vec<(u32, f64)>);

    /// One step applied to a distribution: `out = dist·P`.
    ///
    /// The default implementation scatters row by row in ascending
    /// state order, skipping zero entries of `dist` — the identical
    /// float schedule as [`crate::sparse::SparseChain::step_into`], so
    /// implicit operators whose rows match a CSR chain's rows produce
    /// bit-identical iterates.
    ///
    /// # Panics
    ///
    /// Panics if either length differs from `len()`.
    fn apply_into(&self, dist: &[f64], out: &mut [f64]) {
        assert_eq!(dist.len(), self.len(), "distribution length mismatch");
        assert_eq!(out.len(), self.len(), "output length mismatch");
        out.fill(0.0);
        let mut row: Vec<(u32, f64)> = Vec::new();
        for (i, &qi) in dist.iter().enumerate() {
            if qi == 0.0 {
                continue;
            }
            self.row_into(i, &mut row);
            for &(j, p) in &row {
                out[j as usize] += qi * p;
            }
        }
    }
}

/// Stationary distribution of any [`TransitionOperator`] by lazy power
/// iteration (`q ← q(I + P)/2`) from uniform, with the adaptive
/// geometric-extrapolation stopping rule of [`PowerOptions`] and
/// optional solver metrics (`markov.stationary.*`).
///
/// This is *the* stationary solver:
/// [`crate::sparse::SparseChain::stationary_with`] delegates here, and
/// for a `SparseChain` the iterates are bit-identical to the
/// historical CSR loop.
///
/// # Errors
///
/// Returns [`StationaryError::NotConverged`] when the budget runs out;
/// the error carries the last observed delta. (Irreducibility is
/// assumed, not checked.)
pub fn stationary_operator<O: TransitionOperator + ?Sized>(
    op: &O,
    opts: &PowerOptions,
    metrics: Option<&Metrics>,
) -> Result<StationarySolve, StationaryError> {
    let n = op.len();
    let start = Instant::now();
    let mut dist = vec![1.0 / n as f64; n];
    let mut next = vec![0.0; n];
    let mut delta = f64::INFINITY;
    let mut prev_delta = f64::INFINITY;
    for it in 1..=opts.max_iters {
        op.apply_into(&dist, &mut next);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::{SparseChain, SparseChainBuilder};

    fn ring(n: usize) -> SparseChain<usize> {
        // Asymmetric ring with self-loops: irreducible, aperiodic-ish
        // under laziness, every row nontrivial.
        let mut b = SparseChainBuilder::new();
        for i in 0..n {
            b.transition(i, (i + 1) % n, 0.6)
                .transition(i, (i + 2) % n, 0.3)
                .transition(i, i, 0.1);
        }
        b.build().unwrap()
    }

    #[test]
    fn sparse_chain_apply_is_bit_exact_vs_step_into() {
        let c = ring(37);
        let dist: Vec<f64> = (0..c.len()).map(|i| (i % 5) as f64 / 74.0).collect();
        let mut a = vec![0.0; c.len()];
        let mut b = vec![0.0; c.len()];
        c.step_into(&dist, &mut a);
        TransitionOperator::apply_into(&c, &dist, &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn default_apply_matches_csr_kernel_bitwise() {
        // The default row-scatter apply on rows copied out of the CSR
        // must replay the identical float schedule as step_into.
        struct RowView<'a>(&'a SparseChain<usize>);
        impl TransitionOperator for RowView<'_> {
            fn len(&self) -> usize {
                self.0.len()
            }
            fn row_into(&self, i: usize, row: &mut Vec<(u32, f64)>) {
                row.clear();
                row.extend(self.0.row(i));
            }
        }
        let c = ring(53);
        let dist: Vec<f64> = (0..c.len()).map(|i| (i % 7) as f64 / 159.0).collect();
        let mut want = vec![0.0; c.len()];
        let mut got = vec![0.0; c.len()];
        c.step_into(&dist, &mut want);
        RowView(&c).apply_into(&dist, &mut got);
        assert_eq!(want, got);
    }

    #[test]
    fn stationary_operator_is_bit_exact_vs_sparse_solver() {
        let c = ring(64);
        let opts = PowerOptions::new(200_000, 1e-12);
        let direct = c.stationary_with(&opts, None).unwrap();
        let via_op = stationary_operator(&c, &opts, None).unwrap();
        assert_eq!(direct.pi, via_op.pi);
        assert_eq!(direct.stats.iterations, via_op.stats.iterations);
        assert_eq!(direct.stats.residual, via_op.stats.residual);
    }
}
