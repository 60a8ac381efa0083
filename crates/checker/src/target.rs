//! Checkable targets: a [`Process`] that can also *report* what each
//! completed operation did, bundled with the shared memory, sequential
//! spec, and per-process operation budgets that define one small,
//! exhaustively explorable configuration.
//!
//! A [`CheckTarget`] carries a factory that builds the initial
//! configuration. The frontier explorer builds it once per exploration
//! and from then on *snapshots* reached states: every checkable
//! process is plain data that clones through [`CloneProcess`], so a
//! frontier unit clones the live run it reached instead of rebuilding
//! and replaying its schedule prefix. Only the recursive baseline
//! ([`crate::explore::explore_recursive`]) and schedule re-execution
//! ([`crate::explore::run_schedule`]) still rebuild from the factory.

use std::any::Any;

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
///
/// Snapshots copy processes through [`CloneProcess`], which every
/// `CheckProcess + Clone + 'static` type implements: deriving or
/// writing [`Clone`] is all a target needs. Stepping a copy must not
/// affect the original. Per-configuration data that never changes
/// (scripts, register layouts) should be shared, not copied, and
/// [`Clone::clone_from`] should reuse the buffers of the value it
/// overwrites: the explorer recycles ended runs by overwriting each
/// boxed process in place with `clone_from`.
pub trait CheckProcess: Process + CloneProcess {
    /// The operation completed by the most recent `Completed` step.
    fn last_op(&self) -> OpRecord;

    /// Fingerprint of all local state that influences future behaviour
    /// (program counter, cached reads, pending proposal, …). Together
    /// with [`SharedMemory::fingerprint`] this keys the explored-state
    /// table, so two states with equal fingerprints must behave
    /// identically from here on.
    fn local_fingerprint(&self) -> u64;
}

/// Object-safe cloning of a boxed [`CheckProcess`], implemented once for
/// every `CheckProcess + Clone + 'static` type.
pub trait CloneProcess {
    /// A boxed copy of this process in its current state.
    fn clone_box(&self) -> Box<dyn CheckProcess>;

    /// Overwrites `target` with a copy of this process: in place, with
    /// [`Clone::clone_from`], when `target` holds the same concrete
    /// type; otherwise with a fresh box.
    fn clone_into_box(&self, target: &mut Box<dyn CheckProcess>);

    /// The process as [`Any`], for the concrete-type check of
    /// [`clone_into_box`](Self::clone_into_box).
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

impl<T: CheckProcess + Clone + 'static> CloneProcess for T {
    fn clone_box(&self) -> Box<dyn CheckProcess> {
        Box::new(self.clone())
    }

    fn clone_into_box(&self, target: &mut Box<dyn CheckProcess>) {
        match target.as_any_mut().downcast_mut::<T>() {
            Some(same) => same.clone_from(self),
            None => *target = Box::new(self.clone()),
        }
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

impl Clone for Box<dyn CheckProcess> {
    fn clone(&self) -> Self {
        (**self).clone_box()
    }

    fn clone_from(&mut self, source: &Self) {
        (**source).clone_into_box(self);
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
            self.0.index() as u64
        }
    }

    /// A process of another concrete type than [`Fixed`].
    #[derive(Clone)]
    struct Idle;

    impl Process for Idle {
        fn step(&mut self, _: &mut SharedMemory) -> StepOutcome {
            StepOutcome::Ongoing
        }

        fn name(&self) -> &'static str {
            "idle"
        }
    }

    impl CheckProcess for Idle {
        fn last_op(&self) -> OpRecord {
            unreachable!("an idle process never completes")
        }

        fn local_fingerprint(&self) -> u64 {
            u64::MAX
        }
    }

    /// The address of the process a box holds.
    fn addr(p: &dyn CheckProcess) -> *const () {
        (p as *const dyn CheckProcess).cast()
    }

    #[test]
    fn boxed_clone_from_overwrites_in_place_only_within_one_type() {
        let mut mem = SharedMemory::new();
        let a = mem.alloc(0);
        let b = mem.alloc(0);
        let source: Box<dyn CheckProcess> = Box::new(Fixed(b));
        let mut same: Box<dyn CheckProcess> = Box::new(Fixed(a));
        assert_ne!(same.local_fingerprint(), source.local_fingerprint());
        let before = addr(&*same);
        same.clone_from(&source);
        assert_eq!(addr(&*same), before, "same type: overwritten in place");
        assert_eq!(same.local_fingerprint(), source.local_fingerprint());
        let mut other: Box<dyn CheckProcess> = Box::new(Idle);
        other.clone_from(&source);
        assert_eq!(other.name(), "fixed", "other type: replaced by a fresh box");
        assert_eq!(other.local_fingerprint(), source.local_fingerprint());
        let copy = source.clone();
        assert_ne!(addr(&*copy), addr(&*source));
        assert_eq!(copy.local_fingerprint(), source.local_fingerprint());
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
