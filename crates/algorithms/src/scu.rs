//! The class `SCU(q, s)` (paper, Section 5, Algorithm 2).
//!
//! An algorithm in the class runs, per method call:
//!
//! 1. a *preamble* of `q` steps (auxiliary shared-memory work that
//!    never touches the decision register `R`), then
//! 2. a loop of a *scan region* — reading `R, R_1, …, R_{s−1}` — and a
//!    *validation step*: `CAS(R, v, v′)` where `v` is the scanned value
//!    of `R` and `v′` a freshly proposed state. Success completes the
//!    method call; failure restarts the loop.
//!
//! Distinct processes never propose the same value for `R` (enforced
//! here, as the paper suggests, by embedding a per-process timestamp
//! into proposals).

use std::sync::Arc;

use pwf_sim::memory::{RegisterId, SharedMemory};
use pwf_sim::process::{Process, ProcessId, StepOutcome};

/// Shared registers of an `SCU(q, s)` object: the decision register
/// `R`, the auxiliary scan registers `R_1 … R_{s−1}`, and a scratch
/// register absorbing preamble accesses. Clones share the register
/// list, so copying a process (one per simulated or checked process)
/// allocates nothing.
#[derive(Debug, Clone)]
pub struct ScuObject {
    decision: RegisterId,
    aux: Arc<[RegisterId]>,
    scratch: RegisterId,
}

impl ScuObject {
    /// Allocates the registers for an `SCU(·, s)` object.
    ///
    /// # Panics
    ///
    /// Panics if `s == 0` (the scan region must at least read `R`).
    pub fn alloc(mem: &mut SharedMemory, s: usize) -> Self {
        assert!(s >= 1, "scan region must have at least one step");
        let decision = mem.alloc(0);
        let aux = (1..s).map(|_| mem.alloc(0)).collect();
        let scratch = mem.alloc(0);
        ScuObject {
            decision,
            aux,
            scratch,
        }
    }

    /// The decision register `R`.
    pub fn decision(&self) -> RegisterId {
        self.decision
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Preamble step `k` of `q` (skipped entirely when `q = 0`).
    Preamble(usize),
    /// Scan step `j` of `s`; step 0 reads the decision register.
    Scan(usize),
    /// About to CAS the decision register.
    Validate,
}

/// One process running an `SCU(q, s)` method call in an infinite loop.
///
/// Proposed values are unique across processes and invocations: the
/// proposal is `(sequence << 16) | pid`, so two processes never CAS
/// the same value into `R` (the paper's timestamp assumption).
///
/// # Examples
///
/// ```
/// use pwf_algorithms::scu::{ScuObject, ScuProcess};
/// use pwf_sim::executor::{run, RunConfig};
/// use pwf_sim::memory::SharedMemory;
/// use pwf_sim::process::{Process, ProcessId};
/// use pwf_sim::scheduler::UniformScheduler;
///
/// let mut mem = SharedMemory::new();
/// let obj = ScuObject::alloc(&mut mem, 1);
/// let mut ps: Vec<Box<dyn Process>> = (0..4)
///     .map(|i| Box::new(ScuProcess::new(ProcessId::new(i), obj.clone(), 0, 1)) as Box<dyn Process>)
///     .collect();
/// let exec = run(&mut ps, &mut UniformScheduler::new(), &mut mem, &RunConfig::new(10_000));
/// assert!(exec.total_completions() > 1_000);
/// ```
#[derive(Debug, Clone)]
pub struct ScuProcess {
    id: ProcessId,
    object: ScuObject,
    q: usize,
    s: usize,
    phase: Phase,
    /// Value of `R` read at the start of the current scan.
    scanned: u64,
    /// Per-process proposal sequence number.
    seq: u64,
    /// `(observed, proposed)` of the most recent successful CAS, for
    /// operation-history recording by checking tools.
    last_completed: Option<(u64, u64)>,
}

impl ScuProcess {
    /// Creates a process executing `SCU(q, s)` method calls forever on
    /// `object`.
    ///
    /// # Panics
    ///
    /// Panics if `s == 0` or if `s` exceeds the object's scan width + 1.
    pub fn new(id: ProcessId, object: ScuObject, q: usize, s: usize) -> Self {
        assert!(s >= 1, "scan region must have at least one step");
        assert!(
            s - 1 <= object.aux.len(),
            "object allocated for a narrower scan region"
        );
        ScuProcess {
            id,
            object,
            q,
            s,
            phase: if q > 0 {
                Phase::Preamble(0)
            } else {
                Phase::Scan(0)
            },
            scanned: 0,
            seq: 0,
            last_completed: None,
        }
    }

    /// The preamble length `q`.
    pub fn q(&self) -> usize {
        self.q
    }

    /// The scan length `s`.
    pub fn s(&self) -> usize {
        self.s
    }

    fn start_of_call(&self) -> Phase {
        if self.q > 0 {
            Phase::Preamble(0)
        } else {
            Phase::Scan(0)
        }
    }

    fn propose(&mut self) -> u64 {
        self.seq += 1;
        (self.seq << 16) | (self.id.index() as u64 & 0xFFFF)
    }

    /// The `(observed, proposed)` pair of the most recent completed
    /// method call: the CAS swung `R` from `observed` to `proposed`.
    /// Linearizability of the SCU object is exactly the chaining of
    /// these pairs across all processes (see `pwf-checker`).
    pub fn last_completed(&self) -> Option<(u64, u64)> {
        self.last_completed
    }

    /// Fingerprint of the behaviour-relevant local state: the phase
    /// program counter, the scanned value it will validate against,
    /// and the proposal sequence number (which feeds future proposals).
    pub fn fingerprint(&self) -> u64 {
        let phase = match self.phase {
            Phase::Preamble(k) => k as u64,
            Phase::Scan(j) => (1 << 20) | j as u64,
            Phase::Validate => 1 << 21,
        };
        pwf_sim::memory::fold_words(0x517CC1B727220A95, &[phase, self.scanned, self.seq])
    }
}

impl Process for ScuProcess {
    fn step(&mut self, mem: &mut SharedMemory) -> StepOutcome {
        match self.phase {
            Phase::Preamble(k) => {
                // Auxiliary work: the paper allows updates to any
                // register except the decision register R.
                let _ = mem.read(self.object.scratch);
                self.phase = if k + 1 < self.q {
                    Phase::Preamble(k + 1)
                } else {
                    Phase::Scan(0)
                };
                StepOutcome::Ongoing
            }
            Phase::Scan(0) => {
                self.scanned = mem.read(self.object.decision);
                self.phase = if self.s > 1 {
                    Phase::Scan(1)
                } else {
                    Phase::Validate
                };
                StepOutcome::Ongoing
            }
            Phase::Scan(j) => {
                // Read R_j; the scanned values only matter through the
                // validity of `scanned`, which the CAS checks.
                let _ = mem.read(self.object.aux[j - 1]);
                self.phase = if j + 1 < self.s {
                    Phase::Scan(j + 1)
                } else {
                    Phase::Validate
                };
                StepOutcome::Ongoing
            }
            Phase::Validate => {
                let proposal = self.propose();
                if mem.cas(self.object.decision, self.scanned, proposal) {
                    self.last_completed = Some((self.scanned, proposal));
                    self.phase = self.start_of_call();
                    StepOutcome::Completed
                } else {
                    self.phase = Phase::Scan(0);
                    StepOutcome::Ongoing
                }
            }
        }
    }

    fn name(&self) -> &'static str {
        "scu"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pwf_sim::executor::{run, RunConfig};
    use pwf_sim::scheduler::{AdversarialScheduler, UniformScheduler};

    fn fleet(mem: &mut SharedMemory, n: usize, q: usize, s: usize) -> Vec<Box<dyn Process>> {
        let obj = ScuObject::alloc(mem, s);
        (0..n)
            .map(|i| {
                Box::new(ScuProcess::new(ProcessId::new(i), obj.clone(), q, s)) as Box<dyn Process>
            })
            .collect()
    }

    #[test]
    fn solo_process_completes_every_q_plus_s_plus_one_steps() {
        let mut mem = SharedMemory::new();
        let mut ps = fleet(&mut mem, 1, 3, 2);
        let mut sched = AdversarialScheduler::solo(ProcessId::new(0));
        let exec = run(&mut ps, &mut sched, &mut mem, &RunConfig::new(60));
        // One call = 3 preamble + 2 scan + 1 CAS = 6 steps.
        assert_eq!(exec.total_completions(), 10);
        assert_eq!(exec.completion_times(ProcessId::new(0))[0], 6);
    }

    #[test]
    fn scu01_solo_completes_every_two_steps() {
        let mut mem = SharedMemory::new();
        let mut ps = fleet(&mut mem, 1, 0, 1);
        let mut sched = AdversarialScheduler::solo(ProcessId::new(0));
        let exec = run(&mut ps, &mut sched, &mut mem, &RunConfig::new(100));
        assert_eq!(exec.total_completions(), 50);
    }

    #[test]
    fn contended_processes_all_make_progress_under_uniform() {
        let mut mem = SharedMemory::new();
        let mut ps = fleet(&mut mem, 8, 0, 1);
        let mut sched = UniformScheduler::new();
        let exec = run(
            &mut ps,
            &mut sched,
            &mut mem,
            &RunConfig::new(100_000).seed(7),
        );
        for i in 0..8 {
            assert!(
                exec.process_completions[i] > 100,
                "process {i} starved: {:?}",
                exec.process_completions
            );
        }
    }

    #[test]
    fn round_robin_adversary_starves_the_second_process() {
        // The classic lock-free-but-not-wait-free schedule: under
        // round-robin, p0 reads, p1 reads, p0's CAS succeeds, p1's CAS
        // fails — forever. Minimal progress holds (p0 completes every
        // round) but p1 starves: exactly what a θ = 0 adversary can do
        // and a stochastic scheduler cannot (Theorem 3).
        let mut mem = SharedMemory::new();
        let mut ps = fleet(&mut mem, 2, 0, 1);
        let mut sched = AdversarialScheduler::round_robin(2);
        let exec = run(&mut ps, &mut sched, &mut mem, &RunConfig::new(1_000));
        assert!(exec.process_completions[0] > 200);
        assert_eq!(exec.process_completions[1], 0);
    }

    #[test]
    fn decision_register_only_changed_by_successful_cas() {
        let mut mem = SharedMemory::new();
        let obj = ScuObject::alloc(&mut mem, 1);
        let mut ps: Vec<Box<dyn Process>> = (0..3)
            .map(|i| {
                Box::new(ScuProcess::new(ProcessId::new(i), obj.clone(), 0, 1)) as Box<dyn Process>
            })
            .collect();
        let mut sched = UniformScheduler::new();
        let exec = run(
            &mut ps,
            &mut sched,
            &mut mem,
            &RunConfig::new(10_000).seed(3),
        );
        // Final value's embedded pid is a real process, and the total
        // number of completions is consistent with a changed register.
        let v = mem.peek(obj.decision());
        assert!((v & 0xFFFF) < 3);
        assert!(exec.total_completions() > 0);
    }

    #[test]
    fn proposals_are_unique_across_processes() {
        let mut p0 = {
            let mut mem = SharedMemory::new();
            let obj = ScuObject::alloc(&mut mem, 1);
            ScuProcess::new(ProcessId::new(0), obj.clone(), 0, 1)
        };
        let mut p1 = {
            let mut mem = SharedMemory::new();
            let obj = ScuObject::alloc(&mut mem, 1);
            ScuProcess::new(ProcessId::new(1), obj.clone(), 0, 1)
        };
        let a: Vec<u64> = (0..100).map(|_| p0.propose()).collect();
        let b: Vec<u64> = (0..100).map(|_| p1.propose()).collect();
        for x in &a {
            assert!(!b.contains(x));
        }
    }

    #[test]
    #[should_panic(expected = "at least one step")]
    fn zero_scan_length_panics() {
        let mut mem = SharedMemory::new();
        let _ = ScuObject::alloc(&mut mem, 0);
    }

    #[test]
    fn preamble_never_touches_decision_register() {
        let mut mem = SharedMemory::new();
        let obj = ScuObject::alloc(&mut mem, 1);
        let initial = mem.peek(obj.decision());
        let mut p = ScuProcess::new(ProcessId::new(0), obj.clone(), 5, 1);
        for _ in 0..5 {
            assert_eq!(p.step(&mut mem), StepOutcome::Ongoing);
            assert_eq!(mem.peek(obj.decision()), initial);
        }
    }
}
