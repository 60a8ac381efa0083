//! Workspace-wide concurrency static analysis: `pwf lint`.
//!
//! The source paper (Alistarh, Censor-Hillel, Shavit — "Are Lock-Free
//! Concurrent Algorithms Practically Wait-Free?") models every
//! lock-free operation as a *bounded sequence of correctly-ordered
//! atomic steps* driven by a stochastic scheduler. That is a
//! structural precondition on the code, and it breaks silently in
//! review: a weakened ordering, an unbounded spin, a condvar wait
//! that can miss its wakeup. This crate makes those preconditions
//! checkable over the whole workspace, with no dependencies:
//!
//! * [`scan`] — comment/string/raw-string-aware masking, so nothing
//!   inside `//`, `/* */`, `"…"`, `r#"…"#`, or `#[doc = "…"]` ever
//!   counts as a call site (the original line-textual scanner's
//!   false-attribution bug class);
//! * [`model`] — the lightweight site model: brace-matched function
//!   spans (attribution + fingerprinting), loop spans, block
//!   structure;
//! * [`passes`] — the four analysis passes: memory-ordering rules
//!   with role inference ([`passes::orderings`]), unbounded
//!   spin/retry detection — the paper's bounded-step assumption
//!   ([`passes::progress`]), condvar discipline — the lost-wakeup
//!   class ([`passes::condvar`]), and the unsafe inventory
//!   ([`passes::unsafety`]);
//! * [`allow`] — allowlist v2: per-crate `lint.allow` files whose
//!   entries carry a content fingerprint of the allowed site, so
//!   editing the site invalidates its justification;
//! * [`report`] — deny-by-default verdicts per crate and workspace,
//!   rendered as clickable text or the schema-pinned `--json`
//!   document;
//! * [`cli`] — the `pwf lint` front end.
//!
//! Every rule ships with a seeded-mutant fixture corpus under
//! `tests/fixtures/` that the pass MUST flag, mirroring `pwf vet`'s
//! mutation-testing style; ci.sh gates both directions (clean tree
//! lints clean, every mutant is caught).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod allow;
pub mod cli;
pub mod model;
pub mod passes;
pub mod report;
pub mod scan;

pub use allow::{fnv1a64, parse_allow, site_fingerprint, AllowEntry};
pub use model::SourceModel;
pub use passes::{Finding, Pass};
pub use report::{lint_tree, lint_workspace, CrateReport, Violation, WorkspaceReport};

/// Exports the lint summary counters through a pwf-obs [`Metrics`]
/// registry: `lint.files_scanned`, `lint.sites_scanned`,
/// `lint.findings`, `lint.allows_used`, `lint.violations`,
/// `lint.stale_entries`.
///
/// [`Metrics`]: pwf_obs::Metrics
pub fn export_metrics(report: &WorkspaceReport, metrics: &pwf_obs::Metrics) {
    let t = report.totals();
    metrics.counter_add("lint.files_scanned", t.files as u64);
    metrics.counter_add("lint.sites_scanned", t.sites as u64);
    metrics.counter_add("lint.findings", t.findings as u64);
    metrics.counter_add("lint.allows_used", t.allowed as u64);
    metrics.counter_add("lint.violations", t.violations as u64);
    metrics.counter_add("lint.stale_entries", t.stale as u64);
}
