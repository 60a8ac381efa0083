//! Markov-chain substrate for the *practically-wait-free* workspace.
//!
//! Implements exactly the toolkit of Section 3 of Alistarh,
//! Censor-Hillel & Shavit, *"Are Lock-Free Concurrent Algorithms
//! Practically Wait-Free?"*:
//!
//! * finite, time-invariant chains over labelled state sets
//!   ([`chain::MarkovChain`]),
//! * structural checks — irreducibility, periodicity, ergodicity
//!   ([`structure`]),
//! * stationary distributions and return times `h_jj = 1/π_j`
//!   ([`stationary`], Theorem 1),
//! * expected hitting times ([`hitting`]),
//! * ergodic flow `Q_ij = π_i p_ij` ([`flow`]),
//! * chain **liftings** and numerical verification of the flow
//!   homomorphism and Lemma 1's stationary collapse ([`lifting`]).
//!
//! Chains here are exact constructions from algorithm state spaces.
//! Every chain is stored in one representation, the CSR
//! [`sparse::SparseChain`], and the iterative solvers run on it: lazy
//! power iteration with adaptive stopping
//! ([`sparse::SparseChain::stationary_with`]), Gauss–Seidel for
//! hitting-time systems ([`hitting::sparse_hitting_times`]), and
//! total-variation mixing bounds
//! ([`mixing::sparse_lazy_mixing_time`]). Lifting claims are verified
//! row-by-row on stored chains ([`lifting::kernel_residual_sparse`])
//! or from combinatorially enumerated orbit representatives against a
//! stored base chain ([`lifting::RowResidualScratch`]). The dense
//! [`chain::MarkovChain`] with direct `O(n³)` solves ([`linalg`]) is
//! retained as the cross-check oracle for small `n`; the two convert
//! via [`sparse::SparseChain::to_dense`] and
//! [`chain::MarkovChain::to_sparse`].
//!
//! # Examples
//!
//! ```
//! use pwf_markov::chain::ChainBuilder;
//! use pwf_markov::stationary::stationary_distribution;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let chain = ChainBuilder::new()
//!     .transition("work", "done", 0.5)
//!     .transition("work", "work", 0.5)
//!     .transition("done", "work", 1.0)
//!     .build()?;
//! let pi = stationary_distribution(&chain)?;
//! assert!((pi[0] - 2.0 / 3.0).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chain;
pub mod flow;
pub mod hitting;
pub mod lifting;
pub mod linalg;
pub mod mixing;
pub mod solve;
pub mod sparse;
pub mod stationary;
pub mod structure;

pub use chain::{ChainBuilder, ChainError, MarkovChain};
pub use flow::ErgodicFlow;
pub use hitting::{hitting_times, return_time, sparse_hitting_times};
pub use lifting::{
    kernel_residual_sparse, verify_lifting, LiftingError, LiftingReport, RowResidualScratch,
};
pub use linalg::{LinalgError, Matrix};
pub use mixing::{lazy_mixing_time, sparse_lazy_mixing_time, total_variation, MixingReport};
pub use solve::{GaussSeidelOptions, PowerOptions, SolveStats};
pub use sparse::{SparseChain, SparseChainBuilder, StationarySolve};
pub use stationary::{return_times, stationary_distribution, StationaryError};
pub use structure::{analyze, is_ergodic, Adjacency, StructureReport};
