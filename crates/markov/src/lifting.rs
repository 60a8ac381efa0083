//! Markov-chain liftings (paper, Section 3, following Chen–Lovász–Pak
//! and Hayes–Sinclair).
//!
//! A chain `M'` over `S'` is a *lifting* of `M` over `S` if there is a
//! map `f : S' → S` such that the ergodic flows satisfy
//!
//! ```text
//! Q_ij = Σ_{x ∈ f⁻¹(i), y ∈ f⁻¹(j)} Q'_xy     for all i, j ∈ S,
//! ```
//!
//! which immediately implies the stationary collapse of Lemma 1:
//! `π(v) = Σ_{x ∈ f⁻¹(v)} π'(x)`.
//!
//! The paper's central analytical device (Lemmas 5, 10, 13) is that the
//! *system* chain of an algorithm is a lifting of its *individual*
//! chain; this module verifies such claims numerically for exact chain
//! constructions.

use std::fmt;
use std::hash::Hash;

use crate::chain::MarkovChain;
use crate::flow::ErgodicFlow;
use crate::sparse::SparseChain;
use crate::stationary::StationaryError;

/// Outcome of a successful lifting verification.
#[derive(Debug, Clone)]
pub struct LiftingReport {
    /// Maximum absolute violation of the flow homomorphism.
    pub flow_residual: f64,
    /// Maximum absolute violation of the stationary collapse (Lemma 1).
    pub stationary_residual: f64,
    /// Number of states in the lifted (bigger) chain.
    pub lifted_states: usize,
    /// Number of states in the base (smaller) chain.
    pub base_states: usize,
    /// The lifted chain's stationary distribution, solved for the flow
    /// check and kept so callers need not solve the chain again.
    pub lifted_stationary: Vec<f64>,
}

/// Why a lifting verification failed.
#[derive(Debug)]
pub enum LiftingError {
    /// The map sent a lifted state to a label absent from the base
    /// chain.
    UnmappedState {
        /// Index of the offending lifted state.
        lifted_index: usize,
    },
    /// Some base state has an empty preimage, so the map cannot induce
    /// a lifting.
    EmptyPreimage {
        /// Index of the base state with no preimage.
        base_index: usize,
    },
    /// The flow homomorphism is violated beyond tolerance.
    FlowMismatch {
        /// Base source state.
        from: usize,
        /// Base destination state.
        to: usize,
        /// Flow in the base chain.
        base_flow: f64,
        /// Aggregated flow from the lifted chain.
        lifted_flow: f64,
    },
    /// The kernel condition (see [`kernel_residual_sparse`]) is
    /// violated beyond tolerance.
    KernelMismatch {
        /// Worst violation observed.
        residual: f64,
    },
    /// A stationary computation failed on one of the chains.
    Stationary(StationaryError),
}

impl fmt::Display for LiftingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LiftingError::UnmappedState { lifted_index } => {
                write!(f, "lifted state {lifted_index} maps outside the base chain")
            }
            LiftingError::EmptyPreimage { base_index } => {
                write!(
                    f,
                    "base state {base_index} has no preimage under the lifting map"
                )
            }
            LiftingError::FlowMismatch {
                from,
                to,
                base_flow,
                lifted_flow,
            } => write!(
                f,
                "flow mismatch on base edge {from} -> {to}: base {base_flow}, lifted {lifted_flow}"
            ),
            LiftingError::KernelMismatch { residual } => {
                write!(f, "kernel residual {residual:e} exceeds tolerance")
            }
            LiftingError::Stationary(e) => write!(f, "stationary computation failed: {e}"),
        }
    }
}

impl std::error::Error for LiftingError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LiftingError::Stationary(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StationaryError> for LiftingError {
    fn from(e: StationaryError) -> Self {
        LiftingError::Stationary(e)
    }
}

/// Verifies that `base` is a lifting image of `lifted` under `f`, i.e.
/// that collapsing `lifted` through `f` reproduces `base`'s ergodic
/// flow, within `tol`.
///
/// Both chains must be irreducible (the paper's chains are ergodic).
///
/// # Errors
///
/// See [`LiftingError`] for the failure cases.
pub fn verify_lifting<S2, S1>(
    lifted: &MarkovChain<S2>,
    base: &MarkovChain<S1>,
    f: impl Fn(&S2) -> S1,
    tol: f64,
) -> Result<LiftingReport, LiftingError>
where
    S2: Clone + Eq + Hash,
    S1: Clone + Eq + Hash,
{
    // Map every lifted state to a base index, checking surjectivity.
    let image = image_map(lifted.states(), |s| base.state_index(s), base.len(), f)?;

    let lifted_flow = ErgodicFlow::compute(lifted)?;
    let base_flow = ErgodicFlow::compute(base)?;

    // Aggregate lifted flow through f.
    let nb = base.len();
    let mut agg = vec![vec![0.0; nb]; nb];
    for x in 0..lifted.len() {
        for y in 0..lifted.len() {
            let q = lifted_flow.flow(x, y);
            if q != 0.0 {
                agg[image[x]][image[y]] += q;
            }
        }
    }

    let mut worst_flow: f64 = 0.0;
    for (i, row) in agg.iter().enumerate() {
        for (j, &lifted_q) in row.iter().enumerate() {
            let base_q = base_flow.flow(i, j);
            let diff = (lifted_q - base_q).abs();
            if diff > tol {
                return Err(LiftingError::FlowMismatch {
                    from: i,
                    to: j,
                    base_flow: base_q,
                    lifted_flow: lifted_q,
                });
            }
            worst_flow = worst_flow.max(diff);
        }
    }

    // Lemma 1: stationary collapse.
    let mut collapsed = vec![0.0; nb];
    for (x, &i) in image.iter().enumerate() {
        collapsed[i] += lifted_flow.stationary()[x];
    }
    let worst_pi = collapsed
        .iter()
        .zip(base_flow.stationary())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max);

    Ok(LiftingReport {
        flow_residual: worst_flow,
        stationary_residual: worst_pi,
        lifted_states: lifted.len(),
        base_states: base.len(),
        lifted_stationary: lifted_flow.stationary().to_vec(),
    })
}

fn image_map<S2, S1>(
    lifted_states: &[S2],
    base_index: impl Fn(&S1) -> Option<usize>,
    base_len: usize,
    f: impl Fn(&S2) -> S1,
) -> Result<Vec<usize>, LiftingError> {
    let mut image = Vec::with_capacity(lifted_states.len());
    for (x, label) in lifted_states.iter().enumerate() {
        match base_index(&f(label)) {
            Some(i) => image.push(i),
            None => return Err(LiftingError::UnmappedState { lifted_index: x }),
        }
    }
    let mut covered = vec![false; base_len];
    for &i in &image {
        covered[i] = true;
    }
    if let Some(base_index) = covered.iter().position(|&c| !c) {
        return Err(LiftingError::EmptyPreimage { base_index });
    }
    Ok(image)
}

/// Maximum violation of *strong lumpability* (the kernel-level lifting
/// condition): for every lifted state `x` and base state `j`,
///
/// ```text
/// Σ_{y : f(y) = j} P'(x, y)  =  P(f(x), j).
/// ```
///
/// This is strictly stronger than the flow homomorphism — it implies
/// it for *any* stationary distribution (`Q_ij = Σ_{x ∈ f⁻¹(i)} π'_x ·
/// P(i, j) = π_i P(i, j)`), so checking it needs no solves at all:
/// pure `O(nnz)` row arithmetic. The paper's SCU/FAI/parallel liftings
/// all satisfy it.
///
/// # Errors
///
/// [`LiftingError::UnmappedState`] / [`LiftingError::EmptyPreimage`]
/// as in [`verify_lifting`].
pub fn kernel_residual_sparse<S2, S1>(
    lifted: &SparseChain<S2>,
    base: &SparseChain<S1>,
    f: impl Fn(&S2) -> S1,
) -> Result<f64, LiftingError>
where
    S2: Clone + Eq + Hash,
    S1: Clone + Eq + Hash,
{
    let nb = base.len();
    let image = image_map(lifted.states(), |s| base.state_index(s), nb, f)?;

    let mut collapsed = vec![0.0; nb];
    let mut touched: Vec<usize> = Vec::new();
    let mut worst: f64 = 0.0;
    for (x, &ix) in image.iter().enumerate() {
        for (y, p) in lifted.row(x) {
            let j = image[y as usize];
            if collapsed[j] == 0.0 {
                touched.push(j);
            }
            collapsed[j] += p;
        }
        // Compare the collapsed row against base row f(x), then reset.
        for (j, p) in base.row(ix) {
            let j = j as usize;
            if collapsed[j] == 0.0 {
                touched.push(j);
            }
            collapsed[j] -= p;
        }
        for &j in &touched {
            worst = worst.max(collapsed[j].abs());
            collapsed[j] = 0.0;
        }
        touched.clear();
    }
    Ok(worst)
}

/// Reusable scratch for row-at-a-time kernel checks: compares
/// caller-collapsed lifted rows against a stored base chain's rows.
///
/// This is the orbit-enumeration counterpart of
/// [`kernel_residual_sparse`]: instead of materializing the lifted
/// chain and reducing an enumerated state space, the caller enumerates
/// canonical orbit representatives combinatorially, collapses each
/// representative's row through the lifting map itself (dynamics, not
/// matrices), and hands the collapsed row here. The comparison uses
/// the same scatter/subtract/reset arithmetic as the stored-chain
/// check — `O(row support)` per call with no allocation after
/// warm-up — so the lifted chain is never stored.
#[derive(Debug, Default)]
pub struct RowResidualScratch {
    /// Base-indexed accumulator, kept all-zero between calls.
    acc: Vec<f64>,
    touched: Vec<usize>,
}

impl RowResidualScratch {
    /// Fresh scratch; the accumulator grows to the base size on first
    /// use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Maximum violation of the kernel condition on one row: compares
    /// `collapsed` — the lifted row `Σ_{y : f(y) = j} P'(x, y)` of
    /// some state `x` with `f(x) = base_row`, given as
    /// `(base_target, prob)` pairs (any order, duplicates allowed and
    /// summed) — against the base chain's row `P(base_row, ·)`,
    /// over the union of supports.
    ///
    /// # Panics
    ///
    /// Panics if `base_row` or any collapsed target is out of bounds.
    pub fn residual<S: Clone + Eq + Hash>(
        &mut self,
        base: &SparseChain<S>,
        base_row: usize,
        collapsed: &[(usize, f64)],
    ) -> f64 {
        let nb = base.len();
        assert!(base_row < nb, "base row {base_row} out of bounds ({nb})");
        if self.acc.len() < nb {
            self.acc.resize(nb, 0.0);
        }
        for &(j, p) in collapsed {
            assert!(j < nb, "collapsed target {j} out of bounds ({nb})");
            if self.acc[j] == 0.0 {
                self.touched.push(j);
            }
            self.acc[j] += p;
        }
        for (j, p) in base.row(base_row) {
            let j = j as usize;
            if self.acc[j] == 0.0 {
                self.touched.push(j);
            }
            self.acc[j] -= p;
        }
        let mut worst: f64 = 0.0;
        for &j in &self.touched {
            worst = worst.max(self.acc[j].abs());
            self.acc[j] = 0.0;
        }
        self.touched.clear();
        worst
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::ChainBuilder;

    /// A 4-state chain that is a lifting of a 2-state chain under
    /// "parity of the label".
    fn lifted_pair() -> (MarkovChain<u8>, MarkovChain<u8>) {
        // Lifted: states 0,2 map to base 0; states 1,3 map to base 1.
        // Uniform walk between the classes.
        let lifted = ChainBuilder::new()
            .transition(0u8, 1, 0.25)
            .transition(0, 3, 0.25)
            .transition(0, 0, 0.5)
            .transition(2, 1, 0.25)
            .transition(2, 3, 0.25)
            .transition(2, 2, 0.5)
            .transition(1, 0, 0.25)
            .transition(1, 2, 0.25)
            .transition(1, 1, 0.5)
            .transition(3, 0, 0.25)
            .transition(3, 2, 0.25)
            .transition(3, 3, 0.5)
            .build()
            .unwrap();
        let base = ChainBuilder::new()
            .transition(0u8, 1, 0.5)
            .transition(0, 0, 0.5)
            .transition(1, 0, 0.5)
            .transition(1, 1, 0.5)
            .build()
            .unwrap();
        (lifted, base)
    }

    #[test]
    fn valid_lifting_verifies() {
        let (lifted, base) = lifted_pair();
        let report = verify_lifting(&lifted, &base, |&s| s % 2, 1e-9).unwrap();
        assert!(report.flow_residual < 1e-12);
        assert!(report.stationary_residual < 1e-12);
        assert_eq!(report.lifted_states, 4);
        assert_eq!(report.base_states, 2);
    }

    #[test]
    fn identity_is_a_lifting() {
        let (_, base) = lifted_pair();
        let report = verify_lifting(&base, &base, |&s| s, 1e-12).unwrap();
        assert!(report.flow_residual < 1e-15);
    }

    #[test]
    fn wrong_base_chain_fails_flow_check() {
        let (lifted, _) = lifted_pair();
        // Base with badly skewed probabilities cannot match the flows.
        let wrong = ChainBuilder::new()
            .transition(0u8, 1, 0.9)
            .transition(0, 0, 0.1)
            .transition(1, 0, 0.9)
            .transition(1, 1, 0.1)
            .build()
            .unwrap();
        assert!(matches!(
            verify_lifting(&lifted, &wrong, |&s| s % 2, 1e-9),
            Err(LiftingError::FlowMismatch { .. })
        ));
    }

    #[test]
    fn unmapped_state_is_reported() {
        let (lifted, base) = lifted_pair();
        assert!(matches!(
            verify_lifting(&lifted, &base, |&s| s + 10, 1e-9),
            Err(LiftingError::UnmappedState { .. })
        ));
    }

    #[test]
    fn non_surjective_map_is_reported() {
        let (lifted, base) = lifted_pair();
        assert!(matches!(
            verify_lifting(&lifted, &base, |_| 0u8, 1e-9),
            Err(LiftingError::EmptyPreimage { base_index: 1 })
        ));
    }

    #[test]
    fn kernel_residual_is_zero_for_lumpable_lifting() {
        let (lifted, base) = lifted_pair();
        let r = kernel_residual_sparse(&lifted.to_sparse(), &base.to_sparse(), |&s| s % 2).unwrap();
        assert!(r < 1e-15, "kernel residual {r}");
    }

    #[test]
    fn kernel_residual_detects_non_lumpable_map() {
        // Identity-ish chain where collapsing rows through parity does
        // NOT reproduce a 2-state chain with the wrong probabilities.
        let (lifted, _) = lifted_pair();
        let wrong = ChainBuilder::new()
            .transition(0u8, 1, 0.9)
            .transition(0, 0, 0.1)
            .transition(1, 0, 0.9)
            .transition(1, 1, 0.1)
            .build()
            .unwrap();
        let r =
            kernel_residual_sparse(&lifted.to_sparse(), &wrong.to_sparse(), |&s| s % 2).unwrap();
        assert!(r > 0.1, "kernel residual {r}");
    }

    #[test]
    fn sparse_errors_match_dense_errors() {
        let (lifted, base) = lifted_pair();
        let (sl, sb) = (lifted.to_sparse(), base.to_sparse());
        assert!(matches!(
            kernel_residual_sparse(&sl, &sb, |&s| s + 10),
            Err(LiftingError::UnmappedState { .. })
        ));
        assert!(matches!(
            kernel_residual_sparse(&sl, &sb, |_| 0u8),
            Err(LiftingError::EmptyPreimage { base_index: 1 })
        ));
    }

    #[test]
    fn row_residual_scratch_matches_stored_kernel_check() {
        // Feed the scratch exactly what the stored-chain check
        // computes internally: the per-row collapses of the lifted
        // chain. Both paths must agree on the worst residual.
        let (lifted, base) = lifted_pair();
        let (sl, sb) = (lifted.to_sparse(), base.to_sparse());
        let want = kernel_residual_sparse(&sl, &sb, |&s| s % 2).unwrap();
        let mut scratch = RowResidualScratch::new();
        let mut worst: f64 = 0.0;
        for x in 0..sl.len() {
            let base_row = (sl.state(x) % 2) as usize;
            let collapsed: Vec<(usize, f64)> = sl
                .row(x)
                .map(|(y, p)| ((sl.state(y as usize) % 2) as usize, p))
                .collect();
            worst = worst.max(scratch.residual(&sb, base_row, &collapsed));
        }
        assert_eq!(worst, want);
    }

    #[test]
    fn row_residual_scratch_flags_mismatched_row() {
        let skew = ChainBuilder::new()
            .transition(0u8, 1, 0.9)
            .transition(0, 0, 0.1)
            .transition(1, 0, 0.2)
            .transition(1, 1, 0.8)
            .build()
            .unwrap()
            .to_sparse();
        let mut scratch = RowResidualScratch::new();
        // A collapsed row that is not skew's row 0 (off by 0.4)…
        let r = scratch.residual(&skew, 0, &[(0, 0.5), (1, 0.5)]);
        assert!((r - 0.4).abs() < 1e-15, "residual {r}");
        // …and one that is, with duplicate targets summed: residual 0.
        let r0 = scratch.residual(&skew, 0, &[(1, 0.45), (0, 0.1), (1, 0.45)]);
        assert_eq!(r0, 0.0);
    }
}
