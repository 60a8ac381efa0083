//! High-level analysis drivers for *"Are Lock-Free Concurrent
//! Algorithms Practically Wait-Free?"* — one-call experiments tying
//! together the simulator ([`pwf_sim`]), the algorithms
//! ([`pwf_algorithms`]), the exact chains ([`pwf_markov`]), and the
//! closed-form predictions ([`pwf_theory`]).
//!
//! * [`spec`] — declarative [`spec::AlgorithmSpec`] and
//!   [`spec::SchedulerSpec`].
//! * [`experiment`] — run a spec, get latencies, completion rates,
//!   and progress bounds ([`experiment::SimExperiment`]).
//! * [`chain_analysis`] — verify the lifting between the CSR chains
//!   and extract `W` and `W_i` ([`chain_analysis::analyze`]), with the
//!   exhaustive dense analysis as its oracle
//!   ([`chain_analysis::analyze_exhaustive`]).
//! * [`progress_audit`] — Theorem 3 in executable form
//!   ([`progress_audit::audit`]).
//! * [`completion_model`] — the Figure 5 measured-vs-predicted
//!   pipeline ([`completion_model::completion_rate_series`]).
//!
//! # Examples
//!
//! ```
//! use pwf_core::chain_analysis::{analyze, ChainFamily};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let report = analyze(ChainFamily::FetchAndInc, 6)?;
//! // Lemma 12: W ≤ 2√n.
//! assert!(report.system_latency <= 2.0 * 6f64.sqrt());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chain_analysis;
pub mod completion_model;
pub mod experiment;
pub mod progress_audit;
pub mod scan_analysis;
pub mod spec;

pub use chain_analysis::{analyze, analyze_exhaustive, ChainFamily, ChainReport, ExhaustiveReport};
pub use completion_model::{
    completion_rate_series, completion_rate_series_from, CompletionRatePoint,
};
pub use experiment::{SimExperiment, SimReport};
pub use progress_audit::{audit, ProgressAuditReport};
pub use scan_analysis::{analyze_scan, ScanReport};
pub use spec::{AlgorithmSpec, SchedulerSpec};
