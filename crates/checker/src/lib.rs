//! Systematic concurrency checking for the practically-wait-free
//! workspace: `pwf vet`.
//!
//! The paper's claims are probabilistic statements about *schedules*:
//! lock-free algorithms behave wait-free because the scheduler is
//! stochastic. This crate supplies the complementary *exhaustive*
//! guarantee for small configurations — that the simulated algorithms
//! are actually correct concurrent objects in every schedule, not just
//! the likely ones:
//!
//! * [`explore`] — a schedule explorer with sleep-set dynamic
//!   partial-order reduction over snapshots of reached states, driving
//!   [`pwf_sim::process::Process`] implementations through every
//!   inequivalent interleaving of a bounded configuration, drained on
//!   one thread from a deterministic frontier;
//! * [`lin`] — Wing–Gong linearizability checking of the recorded
//!   operation histories against sequential specs ([`spec`]);
//! * [`audit`] — lock-freedom auditing: no reachable completion-free
//!   state cycle, plus the workspace's stochastic Theorem 3 audit;
//! * [`shrink`] — delta-debugging counterexample schedules down to
//!   minimal, replayable witnesses;
//! * [`targets`] — small configurations of the paper's algorithms
//!   (fetch-and-inc, Treiber stack, `SCU(q,s)`, parallel code) and
//!   seeded mutants (ABA, lost update, livelock) the checker must
//!   catch;
//! * [`cli`] — the `pwf vet` front end.
//!
//! The static atomics-ordering lint lives in the standalone
//! `pwf-lint` crate (`pwf lint`), which scans the whole workspace;
//! `pwf lint --pass orderings` runs its orderings pass alone.

pub mod audit;
pub mod cli;
pub mod explore;
pub mod lin;
pub mod op;
pub mod shrink;
pub mod spec;
pub mod target;
pub mod targets;
