//! E16 (extension) — Corollary 1, sharpened: the exact `SCU(0, s)`
//! system chain with honest mid-scan invalidation, versus simulation
//! and the paper's `α·s·√n` model. Each `(n, s)` point is an
//! independent chain solve plus a simulation run; the sweep fans out
//! on `cfg.jobs` threads, the sparse engine extends it to `n = 32`,
//! and a chain-only point at `n = 64` is cross-checked against the SCU
//! chain (at `s = 1` the two models coincide).

use pwf_algorithms::chains::{scan, scu};
use pwf_core::{AlgorithmSpec, SimExperiment};
use pwf_markov::solve::PowerOptions;
use pwf_runner::{fmt, parallel_map, ExpConfig, ExpResult, FnExperiment, ReportBuilder};

/// The registered experiment.
pub const EXP: FnExperiment = FnExperiment {
    name: "exp_scan_chain",
    description: "Corollary 1 sharpened: exact SCU(0,s) scan chain vs simulation",
    sizes: "n=4..32 s=1..3",
    deterministic: true,
    body: fill,
};

fn fill(cfg: &ExpConfig, out: &mut ReportBuilder) -> ExpResult {
    out.note("E16 / Corollary 1 with mid-scan invalidation: W(n, s) exact vs sim.");
    out.header(&["n", "s", "W chain", "W sim", "rel err", "W/(s*sqrt(n))"]);
    let points: Vec<(usize, (usize, usize))> = [
        (4usize, 1usize),
        (4, 2),
        (4, 3),
        (8, 1),
        (8, 2),
        (8, 3),
        (16, 1),
        (16, 2),
        (16, 3),
        (32, 1),
        (32, 2),
    ]
    .into_iter()
    .enumerate()
    .collect();
    let rows = parallel_map(cfg.jobs, &points, |&(tag, (n, s))| -> Result<_, String> {
        let chain = scan::exact_system_latency(n, s).map_err(|e| e.to_string())?;
        let sim = SimExperiment::new(AlgorithmSpec::Scu { q: 0, s }, n, cfg.scaled(500_000))
            .seed(cfg.sub_seed(tag as u64))
            .run()
            .map_err(|e| e.to_string())?
            .system_latency
            .ok_or("simulation recorded no completions")?;
        Ok((n, s, chain, sim))
    });
    for row in rows {
        let (n, s, chain, sim) = row?;
        out.row(&[
            n.to_string(),
            s.to_string(),
            fmt(chain),
            fmt(sim),
            fmt((chain - sim).abs() / sim),
            fmt(chain / (s as f64 * (n as f64).sqrt())),
        ]);
    }
    // Chain-only extension at (64, 1), where no simulation is needed —
    // at s = 1 the scan chain collapses to the SCU(0,1) system chain,
    // so the independent SCU chain solve is an exact oracle.
    let opts = PowerOptions::new(500_000, 1e-12);
    let (w_scan, stats) = scan::exact_system_latency_with(64, 1, &opts, None)?;
    let (w_scu, _) = scu::large_system_latency_with(64, &opts, None)?;
    let rel = (w_scan - w_scu).abs() / w_scu;
    if rel > 1e-9 {
        return Err(format!(
            "scan chain W {w_scan} disagrees with SCU oracle {w_scu} at (64, 1): rel {rel:e}"
        )
        .into());
    }
    out.row(&[
        "64 (chain only)".into(),
        "1".into(),
        fmt(w_scan),
        "-".into(),
        fmt(rel),
        fmt(w_scan / 64f64.sqrt()),
    ]);
    out.note("");
    out.note(&format!(
        "chain-only (64, 1) solved in {} iterations with no simulation;",
        stats.iterations
    ));
    out.note("'rel err' on that row is vs the independent SCU chain solve.");

    out.note("");
    out.note("the fine-grained chain matches simulation to ~1%, confirming both the");
    out.note("implementation and Corollary 1's O(s*sqrt(n)) shape; the normalized");
    out.note("column drifts slowly upward with s because invalidated mid-scan work");
    out.note("is wasted -- a constant the paper's coarse argument absorbs into alpha.");
    Ok(())
}
