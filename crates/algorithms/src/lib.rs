//! The algorithms analyzed in *"Are Lock-Free Concurrent Algorithms
//! Practically Wait-Free?"* (Alistarh, Censor-Hillel, Shavit),
//! implemented as simulated processes over [`pwf_sim`], together with
//! their exact Markov-chain representations over [`pwf_markov`].
//!
//! * [`scu`] — the class `SCU(q, s)` (Section 5, Algorithm 2).
//! * [`parallel`] — contention-free `q`-step calls (Algorithm 4).
//! * [`fai`] — fetch-and-increment via augmented CAS (Algorithm 5).
//! * [`unbounded`] — the unbounded lock-free algorithm that is *not*
//!   wait-free w.h.p. (Algorithm 1, Lemma 2).
//! * [`treiber`], [`rcu`] — data-structure instances of the SCU
//!   pattern (Treiber stack \[21\], RCU \[7\]). The Treiber stack's
//!   processes are the ones `pwf vet` explores, ABA mutant included.
//! * [`chains`] — exact individual/system chains and lifting maps for
//!   `SCU(0, 1)`, parallel code, and fetch-and-increment
//!   (Sections 6.1.1, 6.2, 7.1).
//!
//! # Examples
//!
//! Exact vs. simulated system latency of the scan-validate pattern:
//!
//! ```
//! use pwf_algorithms::chains::scu::exact_system_latency;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let w4 = exact_system_latency(4)?;
//! let w64 = exact_system_latency(64)?;
//! // Theorem 5: W = O(√n) — far below linear growth.
//! assert!(w64 / w4 < (64.0f64 / 4.0));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backoff;
pub mod chains;
pub mod fai;
pub mod lock;
pub mod msqueue;
pub mod parallel;
pub mod rcu;
pub mod scu;
pub mod treiber;
pub mod unbounded;
pub mod universal;

pub use backoff::BackoffFaiProcess;
pub use fai::FaiProcess;
pub use lock::{LockObject, LockProcess};
pub use msqueue::{QueueProcess, SimQueue};
pub use parallel::ParallelProcess;
pub use rcu::{RcuObject, RcuReader, RcuUpdater};
pub use scu::{ScuObject, ScuProcess};
pub use treiber::{SimStack, StackProcess};
pub use unbounded::{UnboundedObject, UnboundedProcess};
pub use universal::{SeqObject, UniversalObject, UniversalProcess};
