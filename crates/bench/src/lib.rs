//! Experiment bodies and figure plotting for the
//! *practically-wait-free* workspace.
//!
//! Every table and figure of the paper is a registered experiment in
//! [`experiments`] (see `DESIGN.md`'s experiment index and
//! `EXPERIMENTS.md` for recorded outputs), orchestrated by the `pwf`
//! binary through `pwf-runner`. The per-figure binaries under
//! `src/bin/` are thin compatibility wrappers that run one experiment
//! each and print its report.
//!
//! The formatting helpers (`note`/`fmt`/`row`/`header`) moved into
//! `pwf_runner::text` — the runner needs them to render reports — and
//! are re-exported here unchanged for existing callers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod plot;

pub use plot::{log_log_chart, Series};
pub use pwf_runner::text::{fmt, header, note, row};
