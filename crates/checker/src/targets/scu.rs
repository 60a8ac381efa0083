//! `SCU(q, s)` targets (paper, Algorithm 2).
//!
//! The sequential object behind an SCU method call is a CAS register:
//! each completed call atomically swung the decision register `R` from
//! its scanned value to a fresh proposal. Linearizability is exactly
//! the chaining of `(observed, proposed)` pairs — every completed
//! call's observation must be the previous call's proposal (or the
//! initial value).

use pwf_algorithms::scu::{ScuObject, ScuProcess};
use pwf_sim::memory::SharedMemory;
use pwf_sim::process::ProcessId;

use crate::op::OpRecord;
use crate::spec::Spec;
use crate::target::{CheckConfig, CheckProcess, CheckTarget, Progress};

impl CheckProcess for ScuProcess {
    fn last_op(&self) -> OpRecord {
        let (observed, proposed) = self
            .last_completed()
            .expect("last_op is only read after a completed step");
        OpRecord {
            name: "cas",
            input: Some(observed),
            output: Some(proposed),
        }
    }

    fn local_fingerprint(&self) -> u64 {
        self.fingerprint()
    }
}

fn build_scu_n(q: usize, s: usize, budgets: Vec<u32>) -> CheckConfig {
    let mut mem = SharedMemory::new();
    let object = ScuObject::alloc(&mut mem, s);
    CheckConfig {
        procs: (0..budgets.len())
            .map(|i| {
                Box::new(ScuProcess::new(ProcessId::new(i), object.clone(), q, s))
                    as Box<dyn CheckProcess>
            })
            .collect(),
        mem,
        spec: Spec::cas_register(),
        budgets,
    }
}

fn build_scu_0_1() -> CheckConfig {
    build_scu_n(0, 1, vec![2, 2])
}

fn build_scu_2_2() -> CheckConfig {
    build_scu_n(2, 2, vec![2, 2])
}

fn build_scu_2_2_n3() -> CheckConfig {
    build_scu_n(2, 2, vec![2, 1, 1])
}

/// `SCU(0, 1)` — scan is a single read of `R`, no preamble.
pub const SCU_0_1: CheckTarget = CheckTarget {
    name: "scu-0-1",
    description: "SCU(0,1) as a CAS register, n=2, 2 ops each",
    expect_failure: false,
    progress: Progress::LockFree,
    build: build_scu_0_1,
};

/// `SCU(2, 2)` — two preamble steps and a two-step scan; the
/// read-only prefix steps commute, exercising the reduction.
pub const SCU_2_2: CheckTarget = CheckTarget {
    name: "scu-2-2",
    description: "SCU(2,2) as a CAS register, n=2, 2 ops each",
    expect_failure: false,
    progress: Progress::LockFree,
    build: build_scu_2_2,
};

/// `SCU(2, 2)` with a third process — the deep-frontier workload for
/// frontier exploration. Three processes retrying multi-step scans
/// against one register create many inequivalent prefixes that
/// converge on the same reached state, which is exactly what the
/// shared state cache prunes.
pub const SCU_2_2_N3: CheckTarget = CheckTarget {
    name: "scu-2-2-n3",
    description: "SCU(2,2) as a CAS register, n=3 (2+1+1 ops)",
    expect_failure: false,
    progress: Progress::LockFree,
    build: build_scu_2_2_n3,
};
