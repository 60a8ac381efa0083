//! Lock-free fetch-and-increment via *augmented* CAS (paper,
//! Section 7, Algorithm 5).
//!
//! The augmented CAS returns the current register value, so a failed
//! attempt doubles as the read: every attempt is a single shared-memory
//! step, and a process whose local `v` matches `R` wins immediately
//! when scheduled. Section 7 shows the expected system steps between
//! wins is `W ≤ 2√n` (Lemma 12, asymptotically `√(πn/2)` — the
//! Ramanujan Q function), and `W_i = n·W` by lifting (Lemma 14).

use pwf_sim::memory::{RegisterId, SharedMemory};
use pwf_sim::process::{Process, StepOutcome};

/// A process running `fetch-and-inc` operations forever on a shared
/// counter register.
///
/// The local value `v` persists across invocations: after a win the
/// process knows the value it just wrote, matching the paper's chain
/// model where the winner is the unique process in the `Current`
/// state.
///
/// # Examples
///
/// ```
/// use pwf_algorithms::fai::FaiProcess;
/// use pwf_sim::memory::SharedMemory;
/// use pwf_sim::process::Process;
///
/// let mut mem = SharedMemory::new();
/// let counter = mem.alloc(0);
/// let mut p = FaiProcess::new(counter);
/// // Solo, every step is a successful increment.
/// assert!(p.step(&mut mem).is_completed());
/// assert!(p.step(&mut mem).is_completed());
/// assert_eq!(mem.peek(counter), 2);
/// ```
#[derive(Debug, Clone)]
pub struct FaiProcess {
    counter: RegisterId,
    /// The process's view of the counter (`v` in Algorithm 5).
    v: u64,
    /// Number of successful increments, for verification.
    wins: u64,
    /// Values returned by successful increments, when collection is on.
    collected: Option<Vec<u64>>,
}

impl FaiProcess {
    /// Creates a fetch-and-increment process on `counter`.
    pub fn new(counter: RegisterId) -> Self {
        FaiProcess {
            counter,
            v: 0,
            wins: 0,
            collected: None,
        }
    }

    /// Enables collection of the values returned by successful
    /// increments (each fetch-and-inc returns the pre-increment
    /// value).
    #[must_use]
    pub fn collecting(mut self) -> Self {
        self.collected = Some(Vec::new());
        self
    }

    /// Number of successful increments so far.
    pub fn wins(&self) -> u64 {
        self.wins
    }

    /// Values returned by this process's successful operations, if
    /// collection was enabled.
    pub fn collected(&self) -> Option<&[u64]> {
        self.collected.as_deref()
    }

    /// Whether this process currently holds the current value of the
    /// register (the `Current` extended local state of Section 7.1).
    pub fn has_current_value(&self, mem: &SharedMemory) -> bool {
        mem.peek(self.counter) == self.v
    }

    /// The value returned by the most recent successful increment
    /// (`None` before the first win). Used by `pwf-checker` to record
    /// operation histories without enabling full collection.
    ///
    /// Only meaningful *immediately after* a step that returned
    /// [`StepOutcome::Completed`]: a later failed attempt refreshes the
    /// local view `v` that the win value is derived from.
    pub fn last_win(&self) -> Option<u64> {
        if self.wins == 0 {
            None
        } else {
            // A win at counter value k returned k, then set v = k + 1.
            Some(self.v - 1)
        }
    }

    /// Fingerprint of the behaviour-relevant local state. Two
    /// `FaiProcess` values with equal fingerprints behave identically
    /// on identical memory: the local view `v` is the entire state
    /// machine (wins and collection only record history).
    pub fn fingerprint(&self) -> u64 {
        pwf_sim::memory::fold_words(0x9E3779B97F4A7C15, &[self.v])
    }
}

impl Process for FaiProcess {
    fn step(&mut self, mem: &mut SharedMemory) -> StepOutcome {
        let old = self.v;
        let ret = mem.cas_augmented(self.counter, old, old + 1);
        if ret == old {
            // Success: we hold the (new) current value.
            self.v = old + 1;
            self.wins += 1;
            if let Some(c) = self.collected.as_mut() {
                c.push(old);
            }
            StepOutcome::Completed
        } else {
            // Failure: the augmented CAS told us the current value.
            self.v = ret;
            StepOutcome::Ongoing
        }
    }

    fn name(&self) -> &'static str {
        "fetch-and-inc"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pwf_sim::executor::{run, RunConfig};
    use pwf_sim::process::ProcessId;
    use pwf_sim::scheduler::{AdversarialScheduler, UniformScheduler};
    use pwf_sim::stats::system_latency;

    fn fleet(mem: &mut SharedMemory, n: usize) -> (RegisterId, Vec<Box<dyn Process>>) {
        let counter = mem.alloc(0);
        let ps = (0..n)
            .map(|_| Box::new(FaiProcess::new(counter).collecting()) as Box<dyn Process>)
            .collect();
        (counter, ps)
    }

    #[test]
    fn counter_equals_total_completions() {
        let mut mem = SharedMemory::new();
        let (counter, mut ps) = fleet(&mut mem, 6);
        let exec = run(
            &mut ps,
            &mut UniformScheduler::new(),
            &mut mem,
            &RunConfig::new(50_000).seed(5),
        );
        assert_eq!(mem.peek(counter), exec.total_completions());
    }

    #[test]
    fn returned_values_are_unique_and_dense() {
        // Fetch-and-increment linearizability: across all processes the
        // returned values are exactly 0..total, with no duplicates.
        let mut mem = SharedMemory::new();
        let counter = mem.alloc(0);
        let mut procs: Vec<FaiProcess> = (0..4)
            .map(|_| FaiProcess::new(counter).collecting())
            .collect();
        // Drive manually with a deterministic irregular pattern.
        let pattern = [0usize, 1, 1, 2, 3, 0, 2, 2, 1, 3, 3, 3, 0, 1, 2];
        for step in 0..30_000 {
            let who = pattern[step % pattern.len()];
            let _ = procs[who].step(&mut mem);
        }
        let mut all: Vec<u64> = procs
            .iter()
            .flat_map(|p| p.collected().unwrap().iter().copied())
            .collect();
        all.sort_unstable();
        let expected: Vec<u64> = (0..all.len() as u64).collect();
        assert_eq!(all, expected, "returned values must be 0..k with no gaps");
        assert_eq!(mem.peek(counter), all.len() as u64);
    }

    #[test]
    fn round_robin_one_winner_per_round() {
        // Under round-robin on n processes, exactly one CAS per round
        // succeeds (the process whose v matches), so completions ≈
        // steps / n.
        let n = 4;
        let mut mem = SharedMemory::new();
        let (_, mut ps) = fleet(&mut mem, n);
        let exec = run(
            &mut ps,
            &mut AdversarialScheduler::round_robin(n),
            &mut mem,
            &RunConfig::new(4_000),
        );
        let per_round = exec.total_completions() as f64 / (4_000.0 / n as f64);
        assert!(
            (per_round - 1.0).abs() < 0.01,
            "wins per round = {per_round}"
        );
    }

    #[test]
    fn system_latency_grows_sublinearly() {
        // Lemma 12: W ≤ 2√n. Check W for n=16 stays well below n/2
        // (the naive linear guess) and within 2√n.
        let n = 16;
        let mut mem = SharedMemory::new();
        let (_, mut ps) = fleet(&mut mem, n);
        let exec = run(
            &mut ps,
            &mut UniformScheduler::new(),
            &mut mem,
            &RunConfig::new(500_000).seed(17),
        );
        let w = system_latency(&exec).unwrap().mean;
        let bound = 2.0 * (n as f64).sqrt();
        assert!(w < bound, "W = {w} exceeds 2√n = {bound}");
        assert!(w > 1.0, "W = {w} suspiciously small");
    }

    #[test]
    fn all_processes_complete_under_uniform() {
        let n = 8;
        let mut mem = SharedMemory::new();
        let (_, mut ps) = fleet(&mut mem, n);
        let exec = run(
            &mut ps,
            &mut UniformScheduler::new(),
            &mut mem,
            &RunConfig::new(100_000).seed(23),
        );
        for i in 0..n {
            assert!(exec.process_completions[i] > 0, "process {i} starved");
        }
        // Fairness (Lemma 14): each process completes ≈ total/n.
        let mean = exec.total_completions() as f64 / n as f64;
        for i in 0..n {
            let c = exec.process_completions[i] as f64;
            assert!(
                (c - mean).abs() / mean < 0.25,
                "process {i} completions {c} far from mean {mean}"
            );
        }
    }

    #[test]
    fn completion_time_of_process_zero_finite_on_adversarial_solo() {
        // Lock-free: a solo schedule gives maximal progress.
        let mut mem = SharedMemory::new();
        let (_, mut ps) = fleet(&mut mem, 3);
        let exec = run(
            &mut ps,
            &mut AdversarialScheduler::solo(ProcessId::new(2)),
            &mut mem,
            &RunConfig::new(100),
        );
        assert_eq!(exec.process_completions[2], 100);
    }
}
