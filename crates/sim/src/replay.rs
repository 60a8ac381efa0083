//! Deterministic schedule replay: re-run an execution under the exact
//! schedule of a previous one.
//!
//! Replay is the debugging companion of the recorders in
//! `pwf-hardware`: any interesting execution (a starvation episode, a
//! worst-case latency spike) can be captured as a trace and re-executed
//! step-for-step — against the same algorithm to reproduce it, or
//! against a modified algorithm to test a fix under the identical
//! schedule.

use pwf_rng::rngs::StdRng;

use crate::process::ProcessId;
use crate::scheduler::{ActiveSet, Scheduler};

/// A scheduler that replays a fixed trace of process ids, step by
/// step. Exhausting the trace or hitting a crashed process is a
/// configuration error and panics — a replayed schedule is supposed to
/// match the run it came from.
#[derive(Debug, Clone)]
pub struct ReplayScheduler {
    trace: Vec<ProcessId>,
    pos: usize,
}

impl ReplayScheduler {
    /// Creates a replay scheduler from a recorded trace.
    ///
    /// # Panics
    ///
    /// Panics if the trace is empty.
    pub fn new(trace: Vec<ProcessId>) -> Self {
        assert!(!trace.is_empty(), "trace must be non-empty");
        ReplayScheduler { trace, pos: 0 }
    }

    /// Steps remaining in the trace.
    pub fn remaining(&self) -> usize {
        self.trace.len() - self.pos
    }
}

impl Scheduler for ReplayScheduler {
    fn schedule(&mut self, _tau: u64, active: &ActiveSet, _rng: &mut StdRng) -> ProcessId {
        assert!(
            self.pos < self.trace.len(),
            "replay trace exhausted: run no longer than the recorded execution"
        );
        let p = self.trace[self.pos];
        self.pos += 1;
        assert!(
            active.is_active(p),
            "replayed schedule selects crashed process {p}: crash schedules must match"
        );
        p
    }

    fn theta(&self, _n: usize) -> f64 {
        // A fixed schedule is an adversary in Definition 1's terms.
        0.0
    }

    fn name(&self) -> &'static str {
        "replay"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{run, RunConfig};
    use crate::memory::SharedMemory;
    use crate::process::{Process, TickingProcess};
    use crate::scheduler::UniformScheduler;
    use pwf_rng::SeedableRng;

    fn ticking(mem: &mut SharedMemory, n: usize) -> Vec<Box<dyn Process>> {
        let r = mem.alloc(0);
        (0..n)
            .map(|_| Box::new(TickingProcess::new(r, 3)) as Box<dyn Process>)
            .collect()
    }

    #[test]
    fn replay_reproduces_the_original_execution_exactly() {
        let mut mem = SharedMemory::new();
        let mut ps = ticking(&mut mem, 4);
        let original = run(
            &mut ps,
            &mut UniformScheduler::new(),
            &mut mem,
            &RunConfig::new(5_000).seed(3).record_trace(true),
        );

        let mut mem2 = SharedMemory::new();
        let mut ps2 = ticking(&mut mem2, 4);
        let mut replay = ReplayScheduler::new(original.trace.clone().unwrap());
        let replayed = run(
            &mut ps2,
            &mut replay,
            &mut mem2,
            &RunConfig::new(5_000).seed(999).record_trace(true), // seed irrelevant
        );

        assert_eq!(original.trace, replayed.trace);
        assert_eq!(original.completions, replayed.completions);
        assert_eq!(original.process_steps, replayed.process_steps);
    }

    #[test]
    fn remaining_counts_down() {
        let mut s = ReplayScheduler::new(vec![ProcessId::new(0), ProcessId::new(1)]);
        let active = ActiveSet::all(2);
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(s.remaining(), 2);
        let _ = s.schedule(1, &active, &mut rng);
        assert_eq!(s.remaining(), 1);
    }

    #[test]
    #[should_panic(expected = "trace exhausted")]
    fn overrunning_the_trace_panics() {
        let mut s = ReplayScheduler::new(vec![ProcessId::new(0)]);
        let active = ActiveSet::all(1);
        let mut rng = StdRng::seed_from_u64(0);
        let _ = s.schedule(1, &active, &mut rng);
        let _ = s.schedule(2, &active, &mut rng);
    }

    #[test]
    #[should_panic(expected = "crashed process")]
    fn replaying_onto_crashed_process_panics() {
        let mut s = ReplayScheduler::new(vec![ProcessId::new(0)]);
        let mut active = ActiveSet::all(2);
        active.crash(ProcessId::new(0));
        let mut rng = StdRng::seed_from_u64(0);
        let _ = s.schedule(1, &active, &mut rng);
    }
}
