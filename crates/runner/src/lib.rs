//! `pwf-runner` — the experiment-orchestration subsystem of the
//! *practically-wait-free* workspace.
//!
//! Every figure and table of the paper reproduction used to be an
//! independent binary that hand-rolled seeding, formatting, and result
//! recording. This crate unifies them behind one pipeline:
//!
//! * [`registry::Experiment`] + [`registry::Registry`] — a named,
//!   duplicate-rejecting catalogue of experiments, each a pure
//!   `fn(&ExpConfig, &mut ReportBuilder) -> Result` producing a
//!   structured [`report::Report`];
//! * [`config::ExpConfig`] — deterministic per-experiment seeds
//!   derived from one master seed, plus the `--fast` smoke profile;
//! * [`orchestrator`] — a `std::thread` worker pool (`--jobs N`) with
//!   per-experiment timeouts and panic isolation, so one failing
//!   experiment degrades the run instead of killing it;
//! * [`par`] — [`par::parallel_map`], the scoped-thread fan-out that
//!   experiment bodies use to sweep chain sizes in parallel (budgeted
//!   by [`config::ExpConfig::jobs`], input-order results);
//! * [`text`] — the aligned-column renderer (byte-compatible with the
//!   historical `results/*.txt` stdout format) and the shared
//!   `note`/`fmt`/`row`/`header` helpers the binaries use;
//! * [`check`] — golden-file regression: fresh runs diffed against
//!   recorded `results/*.txt`, first divergence reported;
//! * [`cli`] — the `pwf` command-line front end: `list | run | check |
//!   trace` here, and one table dispatching `vet`, `lint`, `serve` and
//!   `report` to their crates.
//!
//! The crate knows nothing about the paper: experiments are injected
//! by `pwf-bench`, which registers all twenty binaries' bodies.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
pub mod cli;
pub mod config;
pub mod orchestrator;
pub mod par;
pub mod registry;
pub mod report;
pub mod text;
pub mod trend;

pub use check::{check_report, check_text, Drift};
pub use config::{derive_seed, ExpConfig, DEFAULT_MASTER_SEED};
pub use orchestrator::{run_experiments, ExpOutcome, ExpRun, ObsData, RunOptions, RunSummary};
pub use par::{parallel_map, replicate};
pub use registry::{Experiment, FnExperiment, Registry, RegistryError};
pub use report::{Block, Report, ReportBuilder};
pub use text::{fmt, header, note, render, row};

/// The error type experiment bodies return; `Send + Sync` so failures
/// cross the orchestrator's thread boundary.
pub type ExpError = Box<dyn std::error::Error + Send + Sync>;

/// Result alias for experiment bodies.
pub type ExpResult = Result<(), ExpError>;
