//! Every `pwf vet` report, pinned byte for byte. The explorer's
//! internals (state hashing, map hashers, frontier draining) may change
//! freely as long as these outputs do not: the pruned report of every
//! registry target, the unpruned report and fair-audit verdict of the
//! blocking coalescer pair, and the shrunk counterexample of every
//! caught mutant.

use pwf_checker::explore::{explore, ExploreOptions, ViolationKind};
use pwf_checker::shrink::shrink;
use pwf_checker::target::{CheckTarget, Progress};
use pwf_checker::targets::{find, registry};

/// One pinned report per registry target, in registry order.
const PRUNED: [&str; 14] = [
    r#"{"target":"counter","stats":{"executions":10,"sleep_blocked":0,"transitions":30,"distinct_states":26,"max_depth":7,"capped":false,"units":9},"violation":null}"#,
    r#"{"target":"stack","stats":{"executions":86,"sleep_blocked":37,"transitions":240,"distinct_states":194,"max_depth":26,"capped":false,"units":122},"violation":null}"#,
    r#"{"target":"stack-aba-scenario","stats":{"executions":25,"sleep_blocked":7,"transitions":130,"distinct_states":118,"max_depth":24,"capped":false,"units":31},"violation":null}"#,
    r#"{"target":"stack-n3","stats":{"executions":9318,"sleep_blocked":4402,"transitions":4205,"distinct_states":3067,"max_depth":42,"capped":false,"units":13132},"violation":null}"#,
    r#"{"target":"scu-0-1","stats":{"executions":46,"sleep_blocked":0,"transitions":221,"distinct_states":210,"max_depth":14,"capped":false,"units":45},"violation":null}"#,
    r#"{"target":"scu-2-2","stats":{"executions":46,"sleep_blocked":27,"transitions":588,"distinct_states":577,"max_depth":29,"capped":false,"units":72},"violation":null}"#,
    r#"{"target":"scu-2-2-n3","stats":{"executions":446,"sleep_blocked":295,"transitions":3668,"distinct_states":3363,"max_depth":35,"capped":false,"units":701},"violation":null}"#,
    r#"{"target":"parallel","stats":{"executions":1,"sleep_blocked":6,"transitions":48,"distinct_states":49,"max_depth":12,"capped":false,"units":6},"violation":null}"#,
    r#"{"target":"dedup","stats":{"executions":6,"sleep_blocked":1,"transitions":24,"distinct_states":20,"max_depth":7,"capped":false,"units":6},"violation":null}"#,
    r#"{"target":"counter-rw-mutant","stats":{"executions":5,"sleep_blocked":0,"transitions":37,"distinct_states":34,"max_depth":8,"capped":false,"units":12},"violation":{"kind":"not-linearizable","schedule":[1,1,0,1,1,0,0,0]}}"#,
    r#"{"target":"stack-aba-mutant","stats":{"executions":14,"sleep_blocked":5,"transitions":129,"distinct_states":116,"max_depth":20,"capped":false,"units":22},"violation":{"kind":"not-linearizable","schedule":[0,0,0,1,1,1,1,1,1,1,1,1,1,1,1,0]}}"#,
    r#"{"target":"livelock-mutant","stats":{"executions":2,"sleep_blocked":0,"transitions":3,"distinct_states":2,"max_depth":2,"capped":false,"units":1},"violation":{"kind":"livelock","schedule":[1]}}"#,
    r#"{"target":"spinner-pair-mutant","stats":{"executions":2,"sleep_blocked":0,"transitions":1,"distinct_states":1,"max_depth":1,"capped":false,"units":1},"violation":null}"#,
    r#"{"target":"dedup-lost-wakeup-mutant","stats":{"executions":5,"sleep_blocked":2,"transitions":25,"distinct_states":23,"max_depth":7,"capped":false,"units":7},"violation":{"kind":"not-linearizable","schedule":[0,0,0,1,1,1,0]}}"#,
];

/// The unpruned reports the fair audit runs on, with its verdict.
const UNPRUNED: [(&str, &str, bool); 2] = [
    (
        "dedup",
        r#"{"target":"dedup","stats":{"executions":20,"sleep_blocked":0,"transitions":32,"distinct_states":20,"max_depth":7,"capped":false,"units":19},"violation":null}"#,
        false,
    ),
    (
        "dedup-lost-wakeup-mutant",
        r#"{"target":"dedup-lost-wakeup-mutant","stats":{"executions":26,"sleep_blocked":0,"transitions":38,"distinct_states":26,"max_depth":7,"capped":false,"units":25},"violation":{"kind":"not-linearizable","schedule":[0,0,0,1,1,1,0]}}"#,
        false,
    ),
];

/// The shrunk counterexample of every mutant, in registry order.
const SHRUNK: [(&str, &[usize]); 5] = [
    ("counter-rw-mutant", &[1, 1, 0, 1, 1, 0, 0, 0]),
    (
        "stack-aba-mutant",
        &[0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0],
    ),
    ("livelock-mutant", &[1]),
    ("spinner-pair-mutant", &[0]),
    ("dedup-lost-wakeup-mutant", &[0, 0, 0, 1, 1, 1, 0]),
];

fn unpruned() -> ExploreOptions {
    ExploreOptions {
        prune: false,
        ..ExploreOptions::default()
    }
}

/// The counterexample `pwf vet` shrinks: the pruned exploration's
/// violation, or on a blocking target the fair audit's witness.
fn witness(target: &CheckTarget) -> Option<(ViolationKind, Vec<usize>)> {
    let report = explore(target, &ExploreOptions::default());
    if let Some(v) = report.violation {
        return Some((v.kind, v.schedule));
    }
    if target.progress != Progress::StochasticOnly {
        return None;
    }
    let full = explore(target, &unpruned());
    let state = full.graph.fair_livelock()?;
    let prefix = full.graph.witness_prefix(state).unwrap_or_default();
    Some((ViolationKind::Livelock, prefix.to_vec()))
}

#[test]
fn pruned_reports_of_every_target_are_pinned() {
    let targets = registry();
    assert_eq!(targets.len(), PRUNED.len());
    for (target, pinned) in targets.iter().zip(PRUNED) {
        let report = explore(target, &ExploreOptions::default());
        assert_eq!(report.deterministic_json(target.name), pinned);
    }
}

#[test]
fn the_ignored_cache_option_leaves_every_report_unchanged() {
    // Callers still set `cache`; it must not select another path.
    for target in registry() {
        let with = |cache| {
            explore(
                &target,
                &ExploreOptions {
                    cache,
                    ..ExploreOptions::default()
                },
            )
            .deterministic_json(target.name)
        };
        assert_eq!(with(true), with(false), "{}", target.name);
    }
}

#[test]
fn unpruned_reports_and_fair_verdicts_of_the_coalescers_are_pinned() {
    for (name, pinned, fair) in UNPRUNED {
        let report = explore(&find(name).unwrap(), &unpruned());
        assert_eq!(report.deterministic_json(name), pinned);
        assert_eq!(report.graph.fair_livelock().is_some(), fair, "{name}");
    }
}

#[test]
fn shrunk_counterexamples_of_every_mutant_are_pinned() {
    let mutants: Vec<CheckTarget> = registry()
        .into_iter()
        .filter(|t| t.expect_failure)
        .collect();
    assert_eq!(mutants.len(), SHRUNK.len());
    for (target, (name, pinned)) in mutants.iter().zip(SHRUNK) {
        assert_eq!(target.name, name);
        let (kind, schedule) = witness(target).unwrap_or_else(|| panic!("{name} must be caught"));
        assert_eq!(shrink(target, kind, &schedule), pinned, "{name}");
    }
}
