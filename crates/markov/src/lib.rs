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
//! The substrate is **operator-first**: the iterative solvers — lazy
//! power iteration with adaptive stopping
//! ([`operator::stationary_operator`]), Gauss–Seidel for hitting-time
//! systems ([`hitting::operator_hitting_times`]), and total-variation
//! mixing bounds ([`mixing::operator_lazy_mixing_time`]) — are generic
//! over the implicit [`operator::TransitionOperator`], which generates
//! `y = x·P` rows on the fly from state encodings. The CSR-backed
//! [`sparse::SparseChain`] implements the trait by delegating to its
//! own kernels, so operator solves on a stored chain are bit-identical
//! to the historical sparse paths and the sparse engine remains the
//! small-`n` oracle for implicit operators. Lifting claims are
//! verified row-by-row on stored chains
//! ([`lifting::kernel_residual_sparse`]) or matrix-free from
//! combinatorially enumerated orbit representatives
//! ([`lifting::RowResidualScratch`]). The dense
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
pub mod operator;
pub mod solve;
pub mod sparse;
pub mod stationary;
pub mod structure;

pub use chain::{ChainBuilder, ChainError, MarkovChain};
pub use flow::ErgodicFlow;
pub use hitting::{hitting_times, operator_hitting_times, return_time, sparse_hitting_times};
pub use lifting::{
    kernel_residual_sparse, verify_lifting, LiftingError, LiftingReport, RowResidualScratch,
};
pub use linalg::{LinalgError, Matrix};
pub use mixing::{lazy_mixing_time, operator_lazy_mixing_time, total_variation, MixingReport};
pub use operator::{stationary_operator, TransitionOperator};
pub use solve::{GaussSeidelOptions, PowerOptions, SolveStats};
pub use sparse::{SparseChain, SparseChainBuilder, StationarySolve};
pub use stationary::{return_times, stationary_distribution, StationaryError};
pub use structure::{analyze, is_ergodic, Adjacency, StructureReport};
