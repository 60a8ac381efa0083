//! The `pwf vet` subcommand: systematic checking of the built-in
//! targets and schedule replay.

use std::fs;
use std::path::PathBuf;

use crate::explore::{explore, run_schedule, ExploreOptions, Violation, ViolationKind};
use crate::lin;
use crate::shrink::{parse_schedule, serialize_schedule, shrink};
use crate::target::{CheckTarget, Progress};
use crate::targets::{fast_registry, find, registry};

const USAGE: &str = "\
pwf vet — systematic concurrency checking (DPOR exploration,
linearizability, lock-freedom)

USAGE:
    pwf vet [TARGET...] [OPTIONS]
        Exhaustively model-check the named targets (default: all).
        Correct targets must verify; MUTANT targets must be caught,
        with a shrunk, replayable counterexample schedule.
        --fast          check the CI smoke subset (counter, stack and
                        dedup families, with their mutants)
        --jobs N        accepted for compatibility; exploration runs on
                        one thread, so N changes nothing
        --no-prune      disable partial-order reduction (full tree)
        --metrics       print vet.* counters (pwf-obs registry)
        --emit DIR      write counterexample schedules to DIR
        --list          list targets and exit

    pwf vet --replay FILE [TARGET]
        Re-execute a schedule file against its target and report the
        outcome. The target comes from the file header unless named.
";

/// Cap on naive-enumeration executions when measuring the reduction
/// ratio; past this the ratio is reported as a lower bound. `--fast`
/// uses the smaller cap to keep the CI smoke run in seconds.
const NAIVE_CAP: u64 = 200_000;
const NAIVE_CAP_FAST: u64 = 20_000;

/// Pruned-execution count past which the naive-enumeration ratio is
/// skipped: on the n=3 targets the unreduced tree runs to the cap in
/// minutes, and E25 (`exp_checker_bench`) already times them properly.
const NAIVE_SKIP: u64 = 200;

struct VetArgs {
    names: Vec<String>,
    fast: bool,
    no_prune: bool,
    metrics: bool,
    list: bool,
    replay: Option<PathBuf>,
    emit: Option<PathBuf>,
}

fn parse_vet_args(argv: Vec<String>) -> Result<VetArgs, String> {
    let mut args = VetArgs {
        names: Vec::new(),
        fast: false,
        no_prune: false,
        metrics: false,
        list: false,
        replay: None,
        emit: None,
    };
    let mut it = argv.into_iter();
    while let Some(arg) = it.next() {
        let mut value_of = |flag: &str| it.next().ok_or_else(|| format!("{flag} needs a value"));
        match arg.as_str() {
            "--fast" => args.fast = true,
            "--no-prune" => args.no_prune = true,
            "--metrics" => args.metrics = true,
            "--jobs" => {
                let v = value_of("--jobs")?;
                v.parse::<usize>()
                    .map_err(|_| format!("--jobs needs a positive integer, got {v:?}"))?;
            }
            "--list" => args.list = true,
            "--replay" => args.replay = Some(PathBuf::from(value_of("--replay")?)),
            "--emit" => args.emit = Some(PathBuf::from(value_of("--emit")?)),
            "--help" | "-h" => return Err(String::new()),
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            name => args.names.push(name.to_string()),
        }
    }
    Ok(args)
}

/// Entry point for `pwf vet`. Returns the process exit code: 0 when
/// every target behaved as expected, 1 on
/// failures, 2 on usage errors.
pub fn main(argv: Vec<String>) -> i32 {
    let args = match parse_vet_args(argv) {
        Ok(args) => args,
        Err(msg) => {
            if msg.is_empty() {
                println!("{USAGE}");
                return 0;
            }
            eprintln!("error: {msg}\n\n{USAGE}");
            return 2;
        }
    };
    if args.list {
        for t in registry() {
            let expect = if t.expect_failure {
                "must-fail"
            } else {
                "must-pass"
            };
            println!("{:<22} {:<9} {}", t.name, expect, t.description);
        }
        return 0;
    }
    if args.replay.is_some() {
        return cmd_replay(&args);
    }
    cmd_vet(&args)
}

fn select_targets(args: &VetArgs) -> Result<Vec<CheckTarget>, String> {
    if !args.names.is_empty() {
        args.names
            .iter()
            .map(|n| find(n).ok_or_else(|| format!("unknown target {n:?} (see `pwf vet --list`)")))
            .collect()
    } else if args.fast {
        Ok(fast_registry())
    } else {
        Ok(registry())
    }
}

fn cmd_vet(args: &VetArgs) -> i32 {
    let targets = match select_targets(args) {
        Ok(t) => t,
        Err(msg) => {
            eprintln!("error: {msg}");
            return 2;
        }
    };
    let metrics = pwf_obs::Metrics::new();
    let mut failures = 0usize;
    let mut dpor_total = 0u64;
    let mut naive_total = 0u64;
    let mut ratio_capped = false;
    for target in &targets {
        println!("== {} — {}", target.name, target.description);
        let opts = ExploreOptions {
            prune: !args.no_prune,
            ..ExploreOptions::default()
        };
        let report = explore(target, &opts);
        let s = &report.stats;
        println!(
            "   explored: {} executions, {} states, {} transitions, max depth {}{}",
            s.executions,
            s.distinct_states,
            s.transitions,
            s.max_depth,
            if s.capped { " (CAPPED)" } else { "" }
        );
        println!("   frontier: {} units", s.units);
        metrics.counter_add("vet.executions", s.executions);
        metrics.counter_add("vet.units", s.units);
        metrics.counter_add("vet.targets", 1);
        // Reduction ratio: only meaningful on targets explored to
        // completion with pruning on (mutants stop at the first
        // violation in both modes). The big n=3 targets skip it — the
        // unreduced tree runs to the cap in minutes.
        if !args.no_prune && !target.expect_failure && report.violation.is_none() {
            if s.executions > NAIVE_SKIP {
                println!(
                    "   naive enumeration: skipped (large target; timed by exp_checker_bench)"
                );
            } else {
                let naive = explore(
                    target,
                    &ExploreOptions {
                        prune: false,
                        max_executions: if args.fast { NAIVE_CAP_FAST } else { NAIVE_CAP },
                        ..ExploreOptions::default()
                    },
                );
                let (n, capped) = (naive.stats.executions, naive.stats.capped);
                let ratio = n as f64 / s.executions.max(1) as f64;
                println!(
                    "   naive enumeration: {}{} executions → {:.1}x{} reduction",
                    n,
                    if capped { "+" } else { "" },
                    ratio,
                    if capped { "+" } else { "" }
                );
                dpor_total += s.executions;
                naive_total += n;
                ratio_capped |= capped;
            }
        }
        // Violation source: the exploration itself, or — for
        // blocking-by-design targets where within-run spinning is
        // legal — the Theorem 3 fair-cycle audit. The fair audit needs
        // an *edge-complete* graph: sleep-set pruning drops edges whose
        // interleavings are covered elsewhere, which can make an
        // escapable spin state look like a bottom component. Blocking
        // targets are small by design, so they get a dedicated
        // unpruned exploration; for lock-free targets a pass of the
        // completion-free-cycle audit already implies a fair pass on
        // the same graph.
        let mut violation = report.violation.clone();
        let mut fair_caught = false;
        if violation.is_none() && target.progress == Progress::StochasticOnly {
            let full = if args.no_prune {
                None
            } else {
                Some(explore(
                    target,
                    &ExploreOptions {
                        prune: false,
                        ..ExploreOptions::default()
                    },
                ))
            };
            let graph = full.as_ref().map_or(&report.graph, |r| &r.graph);
            if let Some(state) = graph.fair_livelock() {
                let prefix = graph
                    .witness_prefix(state)
                    .map(<[usize]>::to_vec)
                    .unwrap_or_default();
                violation = Some(Violation {
                    kind: ViolationKind::Livelock,
                    schedule: prefix,
                    ops: Vec::new(),
                });
                fair_caught = true;
            }
        }
        let ok = match (&violation, target.expect_failure) {
            (None, false) => {
                let (lock_free, ok) = match target.progress {
                    Progress::LockFree => match report.graph.completion_free_cycle() {
                        None => ("yes", true),
                        Some(_) => ("NO (completion-free cycle)", false),
                    },
                    Progress::StochasticOnly => ("n/a (blocking by design)", true),
                };
                println!("   linearizable: yes   lock-free: {lock_free}   fair-progress: yes");
                ok
            }
            (None, true) => {
                println!(
                    "   MUTANT NOT CAUGHT: no violation in {} executions",
                    s.executions
                );
                false
            }
            (Some(v), expect) => {
                let kind = if fair_caught {
                    "fair livelock (Theorem 3: completion-free bottom component)"
                } else {
                    match v.kind {
                        ViolationKind::NotLinearizable => "not linearizable",
                        ViolationKind::Livelock => "livelock (completion-free cycle)",
                    }
                };
                println!("   violation: {kind} (witness {} steps)", v.schedule.len());
                let small = shrink(target, v.kind, &v.schedule);
                println!(
                    "   shrunk schedule ({} steps): {}",
                    small.len(),
                    join(&small)
                );
                let rerun = run_schedule(target, &small, 4_096);
                for op in rerun.ops() {
                    println!("     {op}");
                }
                if let Some(dir) = &args.emit {
                    let path = dir.join(format!("{}.sched", target.name));
                    if fs::create_dir_all(dir)
                        .and_then(|()| fs::write(&path, serialize_schedule(target.name, &small)))
                        .is_ok()
                    {
                        println!("   wrote {}", path.display());
                    }
                }
                expect
            }
        };
        println!(
            "   {}",
            match (ok, target.expect_failure) {
                (true, true) => "PASS (expected failure caught)",
                (true, false) => "PASS",
                (false, _) => "FAIL",
            }
        );
        if !ok {
            failures += 1;
        }
    }
    if naive_total > 0 {
        println!(
            "\naggregate DPOR reduction: {:.1}x{} (naive {}{} vs {} pruned executions)",
            naive_total as f64 / dpor_total.max(1) as f64,
            if ratio_capped { "+" } else { "" },
            naive_total,
            if ratio_capped { "+" } else { "" },
            dpor_total
        );
    }
    println!(
        "{} targets, {} passed, {} failed",
        targets.len(),
        targets.len() - failures,
        failures
    );
    if args.metrics {
        metrics.counter_add("vet.failures", failures as u64);
        for line in metrics.snapshot().render() {
            println!("{line}");
        }
    }
    i32::from(failures > 0)
}

fn join(schedule: &[usize]) -> String {
    schedule
        .iter()
        .map(usize::to_string)
        .collect::<Vec<_>>()
        .join(" ")
}

fn cmd_replay(args: &VetArgs) -> i32 {
    let path = args.replay.as_ref().expect("checked by caller");
    let text = match fs::read_to_string(path) {
        Ok(t) => t,
        Err(err) => {
            eprintln!("error: reading {}: {err}", path.display());
            return 1;
        }
    };
    let (header_target, schedule) = match parse_schedule(&text) {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("error: {msg}");
            return 1;
        }
    };
    let name = args.names.first().cloned().or(header_target);
    let Some(name) = name else {
        eprintln!("error: schedule file has no target header; name the target");
        return 2;
    };
    let Some(target) = find(&name) else {
        eprintln!("error: unknown target {name:?} (see `pwf vet --list`)");
        return 2;
    };
    println!("replaying {} steps against {}", schedule.len(), target.name);
    let run = run_schedule(&target, &schedule, 4_096);
    for op in run.ops() {
        println!("  {op}");
    }
    if run.livelocked() {
        println!("outcome: livelock (completion-free state revisited)");
    } else {
        let linearizable = lin::check(run.spec(), run.ops()).is_linearizable();
        println!(
            "outcome: terminal, linearizable: {}",
            if linearizable { "yes" } else { "NO" }
        );
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_recognises_flags() {
        let args =
            parse_vet_args(argv(&["counter", "--fast", "--no-prune", "--emit", "out"])).unwrap();
        assert_eq!(args.names, vec!["counter"]);
        assert!(args.fast && args.no_prune);
        assert_eq!(args.emit.as_deref(), Some(std::path::Path::new("out")));
    }

    #[test]
    fn parse_rejects_unknown_flags() {
        assert!(parse_vet_args(argv(&["--bogus"])).is_err());
        assert!(parse_vet_args(argv(&["--emit"])).is_err());
    }

    #[test]
    fn jobs_is_accepted_but_still_validated() {
        assert!(parse_vet_args(argv(&["--jobs", "8"])).is_ok());
        assert!(parse_vet_args(argv(&["--jobs", "many"])).is_err());
        assert!(parse_vet_args(argv(&["--jobs"])).is_err());
    }

    #[test]
    fn unknown_target_is_a_usage_error() {
        assert_eq!(main(argv(&["no-such-target"])), 2);
    }

    #[test]
    fn list_exits_cleanly() {
        assert_eq!(main(argv(&["--list"])), 0);
    }
}
