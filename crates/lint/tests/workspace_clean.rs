//! The false-positive gate: the shipped workspace must lint clean.
//!
//! Runs every pass over every crate exactly the way `pwf lint` does
//! and asserts the tree is finding-free modulo the checked-in
//! `lint.allow` files — every fingerprint valid, no stale entries.
//! This is the in-test twin of the ci.sh gate, so a rule change that
//! starts flagging shipped code fails `cargo test` before it fails CI.

use std::path::Path;

use pwf_lint::{lint_workspace, Pass};

#[test]
fn shipped_workspace_lints_clean_under_all_passes() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves");
    let report = lint_workspace(&root, &Pass::ALL, &[]).expect("workspace scan succeeds");
    assert!(
        report.crates.len() >= 13,
        "expected the full workspace, scanned only {} crates",
        report.crates.len()
    );
    assert!(
        report.clean(),
        "shipped tree is not lint-clean:\n{}",
        report.render_text(false)
    );
    let totals = report.totals();
    assert!(totals.files > 100, "suspiciously few files scanned");
    assert!(
        totals.allowed > 0,
        "allow files should be exercised by the shipped tree"
    );
}

#[test]
fn orderings_pass_subset_is_clean_and_ignores_other_passes_entries() {
    // `pwf lint --pass orderings --crate hardware` runs only the
    // orderings pass against crates/hardware; pass-aware staleness
    // must keep the progress entry in hardware's lint.allow from
    // reading as stale.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves");
    let report = pwf_lint::lint_tree(
        &root,
        &root.join("crates/hardware/src"),
        Some(&root.join("crates/hardware/lint.allow")),
        "hardware",
        &[Pass::Orderings],
    )
    .expect("hardware scan succeeds");
    assert!(
        report.clean(),
        "orderings pass is dirty: {} violations, {} stale",
        report.violations.len(),
        report.stale.len()
    );
    assert!(report.allowed > 0);
}
