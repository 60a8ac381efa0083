//! End-to-end checks for `pwf vet`: the seeded mutants must be caught
//! with shrunk, replayable counterexamples; the corrected variants of
//! the same scenarios must verify; and counterexample schedules must
//! round-trip through the schedule-file format into the simulator's
//! replay scheduler with an identical history.

use pwf_checker::explore::{explore, run_schedule, ExploreOptions, ViolationKind};
use pwf_checker::lin;
use pwf_checker::shrink::{parse_schedule, serialize_schedule, shrink, to_replay_trace};
use pwf_checker::target::{CheckTarget, Shim};
use pwf_checker::targets::{counter, stack};
use pwf_sim::executor::{run, RunConfig};
use pwf_sim::process::{Process, StepOutcome};
use pwf_sim::replay::ReplayScheduler;

/// Explores `target`, expecting a violation of `kind`, and returns the
/// shrunk counterexample schedule.
fn caught(target: &CheckTarget, kind: ViolationKind) -> Vec<usize> {
    let report = explore(target, &ExploreOptions::default());
    let v = report
        .violation
        .unwrap_or_else(|| panic!("{} must be caught", target.name));
    assert_eq!(v.kind, kind, "{}", target.name);
    let small = shrink(target, v.kind, &v.schedule);
    assert!(small.len() <= v.schedule.len());
    small
}

#[test]
fn rw_counter_mutant_is_caught_and_shrunk() {
    let target = counter::RW_COUNTER_MUTANT;
    let small = caught(&target, ViolationKind::NotLinearizable);
    // The lost update needs both of p0's steps inside p1's read-write
    // window (or vice versa): 8 scheduled steps, and the replay indeed
    // fails linearization.
    let run1 = run_schedule(&target, &small, 4_096);
    assert!(run1.is_terminal());
    assert!(!lin::check(run1.spec(), run1.ops()).is_linearizable());
}

#[test]
fn aba_mutant_is_caught_and_shrunk() {
    let target = stack::ABA_MUTANT;
    let small = caught(&target, ViolationKind::NotLinearizable);
    let run1 = run_schedule(&target, &small, 4_096);
    // The witness history pops the same value twice.
    let pops: Vec<u64> = run1
        .ops()
        .iter()
        .filter(|op| op.record.name == "pop")
        .filter_map(|op| op.record.output)
        .collect();
    assert!(
        pops.iter()
            .any(|v| pops.iter().filter(|w| *w == v).count() > 1),
        "ABA witness must contain a duplicate pop: {pops:?}"
    );
}

#[test]
fn tag_increment_fixes_the_aba_scenario() {
    // Same scripts, same free-list discipline, tags enabled: every
    // interleaving must linearize.
    let report = explore(&stack::ABA_SCENARIO_TAGGED, &ExploreOptions::default());
    assert!(report.violation.is_none());
    assert!(report.graph.completion_free_cycle().is_none());
}

#[test]
fn livelock_mutant_is_caught() {
    let small = caught(&counter::LIVELOCK_MUTANT, ViolationKind::Livelock);
    let run1 = run_schedule(&counter::LIVELOCK_MUTANT, &small, 4_096);
    assert!(run1.livelocked());
}

#[test]
fn counterexample_schedules_replay_deterministically() {
    let target = stack::ABA_MUTANT;
    let small = caught(&target, ViolationKind::NotLinearizable);
    let text = serialize_schedule(target.name, &small);
    let (header, parsed) = parse_schedule(&text).expect("own serialization must parse");
    assert_eq!(header.as_deref(), Some(target.name));
    assert_eq!(parsed, small);
    let a = run_schedule(&target, &parsed, 4_096);
    let b = run_schedule(&target, &parsed, 4_096);
    assert_eq!(a.ops(), b.ops());
    assert!(!lin::check(a.spec(), a.ops()).is_linearizable());
}

#[test]
fn shrunk_schedule_round_trips_through_the_sim_replay_scheduler() {
    // A counterexample found by the checker must drive the *simulator*
    // through the same execution: serialize, parse, convert to a
    // ProcessId trace, and replay under `pwf_sim`'s ReplayScheduler.
    let target = stack::ABA_MUTANT;
    let small = caught(&target, ViolationKind::NotLinearizable);
    let text = serialize_schedule(target.name, &small);
    let (_, parsed) = parse_schedule(&text).unwrap();
    let trace = to_replay_trace(&parsed);

    let reference = run_schedule(&target, &parsed, 4_096);

    let mut cfg = target.build();
    let mut procs: Vec<Box<dyn Process>> = cfg
        .procs
        .drain(..)
        .map(|p| Box::new(Shim(p)) as Box<dyn Process>)
        .collect();
    let mut scheduler = ReplayScheduler::new(trace.clone());
    let run_cfg = RunConfig::new(trace.len() as u64).record_trace(true);
    let execution = run(&mut procs, &mut scheduler, &mut cfg.mem, &run_cfg);

    // Identical schedule, step for step.
    assert_eq!(execution.trace.as_deref(), Some(trace.as_slice()));
    // Identical completion history: same processes completing in the
    // same order at the same times as the checker's own replay.
    let sim_completions: Vec<(u64, usize)> = execution
        .completions
        .iter()
        .map(|c| (c.time, c.process.index()))
        .collect();
    let checker_completions: Vec<(u64, usize)> = reference
        .ops()
        .iter()
        .map(|op| (op.response, op.process.index()))
        .collect();
    assert_eq!(sim_completions, checker_completions);
}

#[test]
fn shim_preserves_step_outcomes() {
    let mut cfg = counter::FAI_COUNTER.build();
    let mut shim = Shim(cfg.procs.remove(0));
    let mut seen_completion = false;
    for _ in 0..16 {
        if shim.step(&mut cfg.mem) == StepOutcome::Completed {
            seen_completion = true;
            break;
        }
    }
    assert!(seen_completion, "FAI process must complete within 16 steps");
}
