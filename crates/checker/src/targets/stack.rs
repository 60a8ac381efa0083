//! Treiber-stack targets: the simulator's [`StackProcess`] on a
//! tag-protected stack (correct) and on the classic ABA mutant that
//! drops the tag increment.
//!
//! Processes run short scripted op sequences (the checker bounds
//! operations anyway, at one pass through each script). The mutant
//! surfaces ABA as a duplicate pop in the history.

use pwf_algorithms::treiber::{SimStack, StackOp, StackProcess, StackResult};
use pwf_sim::memory::SharedMemory;

use crate::op::OpRecord;
use crate::spec::Spec;
use crate::target::{CheckConfig, CheckProcess, CheckTarget, Progress};

impl CheckProcess for StackProcess {
    fn last_op(&self) -> OpRecord {
        match self.last_completed() {
            Some(StackResult::Pushed(v)) => OpRecord {
                name: "push",
                input: Some(v),
                output: None,
            },
            Some(StackResult::Popped(v)) => OpRecord {
                name: "pop",
                input: None,
                output: v,
            },
            None => unreachable!("last_op is only read after a completed step"),
        }
    }

    fn local_fingerprint(&self) -> u64 {
        self.fingerprint()
    }
}

/// Builds a stack configuration: `initial` bottom first, one op script
/// per process (each run once), and whether CASes bump the tag.
fn build_stack(initial: &[u64], scripts: &[&[StackOp]], tagged: bool) -> CheckConfig {
    let mut mem = SharedMemory::new();
    let stack = SimStack::alloc(&mut mem, initial, scripts.len(), tagged);
    let procs: Vec<Box<dyn CheckProcess>> = scripts
        .iter()
        .enumerate()
        .map(|(i, script)| Box::new(StackProcess::new(&stack, i, script)) as Box<dyn CheckProcess>)
        .collect();
    CheckConfig {
        mem,
        budgets: scripts.iter().map(|s| s.len() as u32).collect(),
        procs,
        spec: Spec::stack(initial),
    }
}

fn build_tagged() -> CheckConfig {
    build_stack(
        &[20, 10],
        &[
            &[StackOp::Pop, StackOp::Push(5)],
            &[StackOp::Pop, StackOp::Push(6)],
        ],
        true,
    )
}

fn build_tagged_n3() -> CheckConfig {
    build_stack(
        &[20, 10],
        &[
            &[StackOp::Pop, StackOp::Push(5)],
            &[StackOp::Pop, StackOp::Push(6)],
            &[StackOp::Push(7)],
        ],
        true,
    )
}

fn build_aba_mutant() -> CheckConfig {
    build_stack(
        &[20, 10],
        &[
            &[StackOp::Pop],
            &[StackOp::Pop, StackOp::Pop, StackOp::Push(30)],
        ],
        false,
    )
}

fn build_aba_scenario_tagged() -> CheckConfig {
    build_stack(
        &[20, 10],
        &[
            &[StackOp::Pop],
            &[StackOp::Pop, StackOp::Pop, StackOp::Push(30)],
        ],
        true,
    )
}

/// Tag-protected Treiber stack, 2 processes × 2 ops.
pub const TAGGED_STACK: CheckTarget = CheckTarget {
    name: "stack",
    description: "tagged Treiber stack, n=2, 2 ops each (pop then push)",
    expect_failure: false,
    progress: Progress::LockFree,
    build: build_tagged,
};

/// Tag-protected Treiber stack with a third process — the other
/// deep-frontier workload for frontier exploration; CAS retry loops
/// from three contenders converge heavily on shared states.
pub const TAGGED_STACK_N3: CheckTarget = CheckTarget {
    name: "stack-n3",
    description: "tagged Treiber stack, n=3 (pop/push x2 + one push)",
    expect_failure: false,
    progress: Progress::LockFree,
    build: build_tagged_n3,
};

/// The seeded ABA mutant: tags never increment, so node reuse lets a
/// stale CAS succeed.
pub const ABA_MUTANT: CheckTarget = CheckTarget {
    name: "stack-aba-mutant",
    description: "MUTANT: Treiber stack without tag increment (ABA on node reuse)",
    expect_failure: true,
    progress: Progress::LockFree,
    build: build_aba_mutant,
};

/// The ABA scenario scripts under the *tagged* stack — must pass,
/// pinning the mutant's failure on the dropped tag increment alone.
pub const ABA_SCENARIO_TAGGED: CheckTarget = CheckTarget {
    name: "stack-aba-scenario",
    description: "ABA mutant's exact scripts on the tagged stack (must pass)",
    expect_failure: false,
    progress: Progress::LockFree,
    build: build_aba_scenario_tagged,
};
