//! Counterexample shrinking and replayable schedule files.
//!
//! A violating schedule straight out of the explorer often contains
//! steps irrelevant to the failure. [`shrink`] applies a delta-debug
//! style minimisation: repeatedly delete chunks of the schedule
//! (halving chunk sizes down to single steps) and keep any candidate
//! that still reproduces the violation. Candidates are evaluated by
//! best-effort re-execution ([`crate::explore::run_schedule`]): steps
//! naming a finished process are skipped and truncated runs are
//! completed round-robin, so every candidate is a *complete* execution
//! and its linearizability verdict is sound. The schedule kept is the
//! trace that was actually executed, so the result replays
//! deterministically. One [`Linearizer`] checks every candidate's
//! history.
//!
//! Shrunk schedules serialise to a small text format (`# target:`
//! header plus whitespace-separated process indices) consumable by
//! `pwf vet --replay` and convertible to a
//! [`pwf_sim::replay::ReplayScheduler`] trace.

use pwf_sim::process::ProcessId;

use crate::explore::{run_schedule, ViolationKind};
use crate::lin::Linearizer;
use crate::target::CheckTarget;

/// Depth bound used when re-executing candidate schedules.
const SHRINK_MAX_DEPTH: usize = 4_096;

/// Re-executes `schedule` and reports whether the violation of `kind`
/// reproduces; on reproduction returns the actually executed trace.
fn reproduces(
    lin: &mut Linearizer,
    target: &CheckTarget,
    kind: ViolationKind,
    schedule: &[usize],
) -> Option<Vec<usize>> {
    let run = run_schedule(target, schedule, SHRINK_MAX_DEPTH);
    let hit = match kind {
        ViolationKind::Livelock => run.livelocked(),
        ViolationKind::NotLinearizable => {
            run.is_terminal() && lin.check(run.spec(), run.ops()).is_none()
        }
    };
    if hit {
        Some(run.trace().to_vec())
    } else {
        None
    }
}

/// Minimises a violating schedule. Returns the shrunk schedule (always
/// itself a reproducing, fully executed trace).
///
/// # Panics
///
/// Panics if `schedule` does not reproduce the violation — the input
/// is supposed to come from the explorer.
pub fn shrink(target: &CheckTarget, kind: ViolationKind, schedule: &[usize]) -> Vec<usize> {
    let mut lin = Linearizer::default();
    let mut best = reproduces(&mut lin, target, kind, schedule)
        .expect("the explorer-provided schedule must reproduce its violation");
    let mut chunk = (best.len() / 2).max(1);
    loop {
        let mut improved = false;
        let mut i = 0;
        while i < best.len() {
            let end = (i + chunk).min(best.len());
            let mut candidate = best[..i].to_vec();
            candidate.extend_from_slice(&best[end..]);
            match reproduces(&mut lin, target, kind, &candidate) {
                Some(trace) if trace.len() < best.len() => {
                    best = trace;
                    improved = true;
                    i = 0;
                }
                _ => i += chunk,
            }
        }
        if chunk == 1 && !improved {
            return best;
        }
        chunk = (chunk / 2).max(1);
    }
}

/// Serialises a schedule to the replay file format.
pub fn serialize_schedule(target_name: &str, schedule: &[usize]) -> String {
    let steps: Vec<String> = schedule.iter().map(usize::to_string).collect();
    format!(
        "# pwf-vet schedule\n# target: {target_name}\n{}\n",
        steps.join(" ")
    )
}

/// Parses the replay file format. Returns the target name from the
/// header (if present) and the schedule.
///
/// # Errors
///
/// Returns a description of the first malformed token.
pub fn parse_schedule(text: &str) -> Result<(Option<String>, Vec<usize>), String> {
    let mut target = None;
    let mut schedule = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if let Some(comment) = line.strip_prefix('#') {
            if let Some(name) = comment.trim().strip_prefix("target:") {
                target = Some(name.trim().to_string());
            }
            continue;
        }
        for token in line.split_whitespace() {
            let idx: usize = token
                .parse()
                .map_err(|_| format!("malformed schedule token {token:?}"))?;
            schedule.push(idx);
        }
    }
    Ok((target, schedule))
}

/// Converts a schedule of process indices into a replay trace for
/// [`pwf_sim::replay::ReplayScheduler`].
pub fn to_replay_trace(schedule: &[usize]) -> Vec<ProcessId> {
    schedule.iter().map(|&i| ProcessId::new(i)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_files_round_trip() {
        let text = serialize_schedule("counter", &[0, 1, 1, 0, 2]);
        let (target, schedule) = parse_schedule(&text).unwrap();
        assert_eq!(target.as_deref(), Some("counter"));
        assert_eq!(schedule, vec![0, 1, 1, 0, 2]);
    }

    #[test]
    fn parse_rejects_junk() {
        assert!(parse_schedule("0 1 x 2").is_err());
    }

    #[test]
    fn parse_accepts_headerless_files() {
        let (target, schedule) = parse_schedule("0 1\n1 0\n").unwrap();
        assert_eq!(target, None);
        assert_eq!(schedule, vec![0, 1, 1, 0]);
    }

    #[test]
    fn replay_trace_preserves_order() {
        let trace = to_replay_trace(&[1, 0]);
        assert_eq!(trace, vec![ProcessId::new(1), ProcessId::new(0)]);
    }
}
