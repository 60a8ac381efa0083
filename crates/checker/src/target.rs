//! Checkable targets: a [`Process`] that can also *report* what each
//! completed operation did, bundled with the shared memory, sequential
//! spec, and per-process operation budgets that define one small,
//! exhaustively explorable configuration.
//!
//! A [`CheckTarget`] carries a factory that builds the initial
//! configuration. The frontier explorer builds it once per exploration
//! and from then on *snapshots* reached states: every checkable
//! process is plain data behind [`CheckProcess::clone_box`], so a
//! frontier unit clones the live run it reached instead of rebuilding
//! and replaying its schedule prefix. Only the recursive baseline
//! ([`crate::explore::explore_recursive`]) and schedule re-execution
//! ([`crate::explore::run_schedule`]) still rebuild from the factory.

use pwf_sim::memory::SharedMemory;
use pwf_sim::process::{Process, StepOutcome};

use crate::op::OpRecord;
use crate::spec::Spec;

/// A process the checker can drive *and* interrogate.
///
/// `last_op` must describe the operation that the most recent
/// [`Process::step`] completed; it is only read immediately after a
/// step returning [`StepOutcome::Completed`], so implementations may
/// let the value go stale between completions.
///
/// Processes are plain data, and a step mutates only the stepping
/// process and shared memory: the explorer caches every process's
/// [`local_fingerprint`](Self::local_fingerprint) and refreshes only
/// the stepping process's entry after a step.
pub trait CheckProcess: Process {
    /// The operation completed by the most recent `Completed` step.
    fn last_op(&self) -> OpRecord;

    /// Fingerprint of all local state that influences future behaviour
    /// (program counter, cached reads, pending proposal, …). Together
    /// with [`SharedMemory::fingerprint`] this keys the explored-state
    /// table, so two states with equal fingerprints must behave
    /// identically from here on.
    fn local_fingerprint(&self) -> u64;

    /// A boxed copy of this process in its current state. Stepping the
    /// copy must not affect the original; per-configuration data that
    /// never changes (scripts, register layouts) should be shared, not
    /// copied, to keep snapshots cheap.
    fn clone_box(&self) -> Box<dyn CheckProcess>;
}

impl Clone for Box<dyn CheckProcess> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

impl std::fmt::Debug for dyn CheckProcess + '_ {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "CheckProcess({})", self.name())
    }
}

/// Adapter lifting a boxed [`CheckProcess`] into a plain
/// [`Process`], for running checker targets under the simulator's
/// executor (e.g. the replay round-trip). Rust will not coerce
/// `Box<dyn CheckProcess>` into `Box<dyn Process>` directly, hence the
/// newtype.
pub struct Shim(pub Box<dyn CheckProcess>);

impl Process for Shim {
    fn step(&mut self, mem: &mut SharedMemory) -> StepOutcome {
        self.0.step(mem)
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }
}

/// One fully built configuration: shared memory, processes, the spec
/// their completed operations are checked against, and how many
/// operations each process runs before halting.
pub struct CheckConfig {
    /// Shared memory, pre-initialised (e.g. a pre-populated stack).
    pub mem: SharedMemory,
    /// The processes, index = [`pwf_sim::process::ProcessId`].
    pub procs: Vec<Box<dyn CheckProcess>>,
    /// Sequential specification for the object the processes share.
    pub spec: Spec,
    /// Operations each process performs before it halts (same order as
    /// `procs`). A process whose budget is exhausted is disabled.
    pub budgets: Vec<u32>,
}

impl CheckConfig {
    /// Number of processes.
    pub fn n(&self) -> usize {
        self.procs.len()
    }

    /// Total operation budget across all processes.
    pub fn total_ops(&self) -> u32 {
        self.budgets.iter().sum()
    }
}

/// Which progress property a target is held to.
///
/// The paper's Theorem 3 separates two liveness standards: lock-free
/// algorithms make progress under *every* scheduler, while blocking
/// protocols (a joiner waiting on a coalescer's publish) make progress
/// only under schedulers that are fair to the publisher. The checker
/// mirrors that split: `LockFree` targets must have no schedulable
/// completion-free cycle at all, and any within-run completion-free
/// state revisit is itself a violation; `StochasticOnly` targets may
/// spin, and are instead audited for *fair* progress — every bottom
/// strongly-connected component of the merged state graph must contain
/// a completion edge ([`crate::audit::StateGraph::fair_livelock`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Progress {
    /// Progress under every scheduler: no completion-free cycle.
    LockFree,
    /// Progress under fair (stochastic) schedulers only: spinning is
    /// legal, but no reachable sink component may be completion-free.
    StochasticOnly,
}

/// A named, rebuildable configuration for the checker, plus the
/// expected verdict (mutant targets are *supposed* to fail).
#[derive(Clone, Copy)]
pub struct CheckTarget {
    /// Stable identifier used on the `pwf vet` command line.
    pub name: &'static str,
    /// One-line description for `pwf vet --list` and reports.
    pub description: &'static str,
    /// `true` for seeded mutants: the target passes vetting precisely
    /// when the checker *finds* a violation.
    pub expect_failure: bool,
    /// The progress standard the target is audited against.
    pub progress: Progress,
    /// Factory: builds a fresh configuration. Called once per frontier
    /// exploration (and once per execution by the recursive baseline
    /// and by schedule re-execution), so it must be deterministic.
    pub build: fn() -> CheckConfig,
}

impl CheckTarget {
    /// Builds a fresh configuration.
    pub fn build(&self) -> CheckConfig {
        (self.build)()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone)]
    struct Fixed(pwf_sim::memory::RegisterId);

    impl Process for Fixed {
        fn step(&mut self, mem: &mut SharedMemory) -> StepOutcome {
            let _ = mem.read(self.0);
            StepOutcome::Completed
        }

        fn name(&self) -> &'static str {
            "fixed"
        }
    }

    impl CheckProcess for Fixed {
        fn last_op(&self) -> OpRecord {
            OpRecord {
                name: "read",
                input: None,
                output: Some(0),
            }
        }

        fn local_fingerprint(&self) -> u64 {
            0
        }

        fn clone_box(&self) -> Box<dyn CheckProcess> {
            Box::new(self.clone())
        }
    }

    #[test]
    fn shim_delegates_to_the_inner_process() {
        let mut mem = SharedMemory::new();
        let r = mem.alloc(0);
        let mut shim = Shim(Box::new(Fixed(r)));
        assert_eq!(shim.name(), "fixed");
        assert!(shim.step(&mut mem).is_completed());
    }

    #[test]
    fn config_totals_budgets() {
        let mut mem = SharedMemory::new();
        let r = mem.alloc(0);
        let cfg = CheckConfig {
            mem,
            procs: vec![Box::new(Fixed(r)), Box::new(Fixed(r))],
            spec: Spec::counter(),
            budgets: vec![2, 3],
        };
        assert_eq!(cfg.n(), 2);
        assert_eq!(cfg.total_ops(), 5);
    }
}
