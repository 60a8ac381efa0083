//! `exp_checker_bench` — the perf gate for the DPOR frontier: times the
//! recursive replaying explorer against the snapshot frontier on the
//! two biggest built-in targets, recording the trajectory in
//! `BENCH_checker.json`.
//!
//! Wall-clock measurement is hardware-dependent, so the experiment
//! registers `deterministic: false` and `pwf check` skips it. What
//! makes it a test rather than a report:
//!
//! - differential parity: at the shipped options, the frontier
//!   explorer must reproduce the recursive baseline's execution and
//!   state counts exactly;
//! - the gate: at the largest target, the frontier must beat the
//!   recursive baseline outright — expanding state snapshots instead
//!   of replaying every prefix guarantees this.
//!
//! Each target also records the peak number of frontier units alive
//! at once and the bytes their state snapshots held, and the table
//! prints the frontier's wall time per process step, so a change in
//! frontier ms reads as a cheaper step or a different tree.

use std::path::Path;
use std::time::Instant;

use pwf_checker::explore::{explore, explore_recursive, ExploreOptions};
use pwf_checker::targets::find;
use pwf_obs::json::Json;
use pwf_runner::{fmt, ExpConfig, ExpResult, FnExperiment, ReportBuilder};

/// The registered experiment.
pub const EXP: FnExperiment = FnExperiment {
    name: "exp_checker_bench",
    description: "Perf gate: recursive DPOR vs snapshot frontier, BENCH_checker.json",
    sizes: "n=2..3 targets",
    deterministic: false,
    body: fill,
};

/// Timed repetitions per configuration; best-of wins, so a single
/// descheduling hiccup cannot fail the gate.
const REPS: usize = 3;

fn timed<R>(mut f: impl FnMut() -> R) -> (f64, R) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..REPS {
        let start = Instant::now();
        let r = f();
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
        out = Some(r);
    }
    (best, out.expect("REPS > 0"))
}

fn fill(cfg: &ExpConfig, out: &mut ReportBuilder) -> ExpResult {
    out.note("DPOR exploration benchmark: recursive baseline vs the chunked");
    out.note("snapshot frontier.");
    out.header(&[
        "target",
        "execs",
        "rec ms",
        "frontier ms",
        "ns/step",
        "speedup",
    ]);

    // The biggest targets carry the gate; the fast profile swaps the
    // multi-second stack-n3 for its n=2 sibling to keep CI in the
    // hundreds of milliseconds. Last entry is the largest.
    let names: &[&str] = if cfg.fast {
        &["scu-2-2", "scu-2-2-n3"]
    } else {
        &["scu-2-2-n3", "stack-n3"]
    };
    let cores = std::thread::available_parallelism().map_or(1, usize::from);

    let mut entries: Vec<Json> = Vec::new();
    let mut gate = None;
    for &name in names {
        let target = find(name).ok_or_else(|| format!("unknown target {name}"))?;

        let opts = ExploreOptions::default();
        let (rec_ms, rec) = timed(|| explore_recursive(&target, &opts));
        let (frontier_ms, frontier) = timed(|| explore(&target, &opts));

        // Differential parity: the frontier drain must walk exactly the
        // recursive explorer's tree.
        if frontier.stats.executions != rec.stats.executions
            || frontier.stats.distinct_states != rec.stats.distinct_states
        {
            return Err(format!(
                "frontier diverges from the recursive baseline on {name}: \
                 {} vs {} executions",
                frontier.stats.executions, rec.stats.executions
            )
            .into());
        }
        let speedup = rec_ms / frontier_ms;
        // Per-step cost separates a faster step from a smaller tree.
        let ns_per_step = frontier_ms * 1e6 / frontier.stats.steps.max(1) as f64;
        gate = Some((name, speedup));
        out.row(&[
            name.to_string(),
            frontier.stats.executions.to_string(),
            fmt(rec_ms),
            fmt(frontier_ms),
            fmt(ns_per_step),
            fmt(speedup),
        ]);
        entries.push(Json::Obj(vec![
            ("name".into(), Json::Str(name.into())),
            (
                "executions".into(),
                Json::Int(frontier.stats.executions as i128),
            ),
            (
                "states".into(),
                Json::Int(frontier.stats.distinct_states as i128),
            ),
            ("ms_recursive".into(), Json::Num(rec_ms)),
            ("ms_frontier".into(), Json::Num(frontier_ms)),
            ("speedup".into(), Json::Num(speedup)),
            (
                "peak_frontier_units".into(),
                Json::Int(frontier.stats.peak_frontier_units as i128),
            ),
            (
                "peak_frontier_bytes".into(),
                Json::Int(frontier.stats.peak_frontier_bytes as i128),
            ),
        ]));
    }

    let (largest, speedup_at_largest) = gate.expect("names is non-empty");
    let fields = vec![
        ("benchmark".into(), Json::Str("pwf-checker".into())),
        ("profile".into(), Json::Str(cfg.profile().into())),
        ("cores".into(), Json::Int(cores as i128)),
        ("reps".into(), Json::Int(REPS as i128)),
        ("largest_target".into(), Json::Str(largest.into())),
        ("speedup_at_largest".into(), Json::Num(speedup_at_largest)),
        ("targets".into(), Json::Arr(entries)),
    ];
    std::fs::write(Path::new("BENCH_checker.json"), Json::Obj(fields).render())
        .map_err(|e| format!("writing BENCH_checker.json: {e}"))?;
    out.note("");
    out.note("trajectory written to BENCH_checker.json.");

    // The gate: the frontier must beat the replaying baseline on the
    // biggest exploration.
    if speedup_at_largest <= 1.0 {
        return Err(format!(
            "frontier exploration is not faster than the recursive baseline on \
             {largest} (speedup {speedup_at_largest:.2}x)"
        )
        .into());
    }
    out.note(&format!(
        "gate: frontier beats recursive on {largest} ({speedup_at_largest:.2}x > 1)."
    ));
    Ok(())
}
