//! # practically-wait-free
//!
//! A full reproduction of **"Are Lock-Free Concurrent Algorithms
//! Practically Wait-Free?"** by Dan Alistarh, Keren Censor-Hillel, and
//! Nir Shavit (STOC 2014; brief announcement at PODC 2014).
//!
//! The paper's thesis: under scheduling conditions approximating real
//! hardware — modelled as a *stochastic scheduler* that picks every
//! live process with probability at least `θ > 0` each step — a large
//! class of lock-free algorithms behaves as if it were wait-free.
//! Concretely, for the class `SCU(q, s)` of single-CAS-universal
//! algorithms (preamble of `q` steps, scan of `s` registers, one CAS):
//!
//! * **Theorem 3**: any algorithm with *bounded* minimal progress is
//!   maximal-progress (wait-free) with probability 1, with a generic
//!   `(1/θ)^T` expected bound;
//! * **Theorems 4–5**: under the uniform stochastic scheduler the
//!   expected *system latency* is `O(q + s·√n)` and every process's
//!   *individual latency* is exactly `n` times that — proven by
//!   lifting the algorithm's Markov chain onto a small system chain;
//! * **Lemma 2**: the bounded-progress hypothesis is necessary — an
//!   unbounded lock-free algorithm exists that is not wait-free w.h.p.
//!
//! This workspace implements every layer from scratch:
//!
//! | Crate | Contents |
//! |---|---|
//! | [`pwf_markov`] | chains, stationary distributions, hitting times, ergodic flow, **lifting verification** |
//! | [`pwf_sim`] | discrete-time shared-memory simulator, Definition 1 schedulers, crash schedules, progress/latency measurement |
//! | [`pwf_algorithms`] | Algorithms 1–5 (`SCU(q,s)`, parallel code, fetch-and-increment, unbounded backoff), simulated Treiber stack and RCU, exact chain constructions |
//! | [`pwf_ballsbins`] | the iterated balls-into-bins game of Section 6.1.3 |
//! | [`pwf_theory`] | Ramanujan Q / `Z(i)` recurrence, birthday bounds, latency and completion-rate predictions |
//! | [`pwf_hardware`] | real-atomics Treiber stack, Michael–Scott queue, FAI counter, schedule recorders (Appendix A/B) |
//! | [`pwf_obs`] | zero-dependency tracing + metrics: ticket-ordered event rings, log2 histograms with quantiles, Perfetto export, and the workspace's one JSON writer and parser |
//! | [`pwf_core`] | one-call experiment drivers combining all of the above |
//!
//! # Quickstart
//!
//! ```
//! use practically_wait_free::core::chain_analysis::{analyze, analyze_exhaustive, ChainFamily};
//! use practically_wait_free::core::{AlgorithmSpec, SimExperiment};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Exact: W for SCU(0,1), n=4, from the lifted system chain; Lemma
//! // 7's fairness identity W_i = n·W, checked by enumeration.
//! let exact = analyze(ChainFamily::Scu01, 4)?;
//! let oracle = analyze_exhaustive(ChainFamily::Scu01, 4)?;
//! assert!((oracle.fairness_identity() - 1.0).abs() < 1e-8);
//!
//! // Simulated: the same system latency, measured over a long run.
//! let sim = SimExperiment::new(AlgorithmSpec::Scu { q: 0, s: 1 }, 4, 100_000).run()?;
//! let w = sim.system_latency.expect("many completions");
//! assert!((w - exact.system_latency).abs() / exact.system_latency < 0.05);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use pwf_algorithms as algorithms;
pub use pwf_ballsbins as ballsbins;
pub use pwf_core as core;
pub use pwf_hardware as hardware;
pub use pwf_markov as markov;
pub use pwf_obs as obs;
pub use pwf_sim as sim;
pub use pwf_theory as theory;
