//! Counter targets: the paper's fetch-and-increment (Algorithm 5) and
//! a deliberately non-linearizable read-then-write mutant.

use pwf_algorithms::fai::FaiProcess;
use pwf_sim::memory::{fold_words, RegisterId, SharedMemory};
use pwf_sim::process::{Process, StepOutcome};

use crate::op::OpRecord;
use crate::spec::Spec;
use crate::target::{CheckConfig, CheckProcess, CheckTarget, Progress};

impl CheckProcess for FaiProcess {
    fn last_op(&self) -> OpRecord {
        OpRecord {
            name: "inc",
            input: None,
            output: self.last_win(),
        }
    }

    fn local_fingerprint(&self) -> u64 {
        self.fingerprint()
    }
}

/// The classic broken counter: `inc` *reads* the register in one step
/// and *writes* `read + 1` in the next, with no validation in between
/// — the textbook lost-update race a CAS (or fetch-and-inc) exists to
/// prevent. Two overlapping increments can both return the same value.
#[derive(Clone)]
pub struct RwCounter {
    reg: RegisterId,
    seen: Option<u64>,
    last: u64,
}

impl RwCounter {
    /// Creates a read-then-write counter process on `reg`.
    pub fn new(reg: RegisterId) -> Self {
        RwCounter {
            reg,
            seen: None,
            last: 0,
        }
    }
}

impl Process for RwCounter {
    fn step(&mut self, mem: &mut SharedMemory) -> StepOutcome {
        match self.seen {
            None => {
                self.seen = Some(mem.read(self.reg));
                StepOutcome::Ongoing
            }
            Some(v) => {
                mem.write(self.reg, v + 1);
                self.seen = None;
                self.last = v;
                StepOutcome::Completed
            }
        }
    }

    fn name(&self) -> &'static str {
        "rw-counter"
    }
}

impl CheckProcess for RwCounter {
    fn last_op(&self) -> OpRecord {
        OpRecord {
            name: "inc",
            input: None,
            output: Some(self.last),
        }
    }

    fn local_fingerprint(&self) -> u64 {
        fold_words(0x6A09_E667, &[self.seen.map_or(u64::MAX, |v| v)])
    }
}

/// A process that spins reading a register and never completes its
/// operation: the minimal lock-freedom violation. Any schedule
/// confining itself to spinners revisits a global state without a
/// completion, which the explorer reports as a livelock.
#[derive(Clone)]
pub struct Spinner {
    reg: RegisterId,
}

impl Spinner {
    /// Creates a spinner on `reg`.
    pub fn new(reg: RegisterId) -> Self {
        Spinner { reg }
    }
}

impl Process for Spinner {
    fn step(&mut self, mem: &mut SharedMemory) -> StepOutcome {
        let _ = mem.read(self.reg);
        StepOutcome::Ongoing
    }

    fn name(&self) -> &'static str {
        "spinner"
    }
}

impl CheckProcess for Spinner {
    fn last_op(&self) -> OpRecord {
        unreachable!("a spinner never completes an operation")
    }

    fn local_fingerprint(&self) -> u64 {
        0
    }
}

fn build_fai() -> CheckConfig {
    let mut mem = SharedMemory::new();
    let counter = mem.alloc(0);
    CheckConfig {
        procs: (0..2)
            .map(|_| Box::new(FaiProcess::new(counter)) as Box<dyn CheckProcess>)
            .collect(),
        mem,
        spec: Spec::counter(),
        budgets: vec![2, 2],
    }
}

fn build_rw_mutant() -> CheckConfig {
    let mut mem = SharedMemory::new();
    let reg = mem.alloc(0);
    CheckConfig {
        procs: (0..2)
            .map(|_| Box::new(RwCounter::new(reg)) as Box<dyn CheckProcess>)
            .collect(),
        mem,
        spec: Spec::counter(),
        budgets: vec![2, 2],
    }
}

fn build_spinner_pair_mutant() -> CheckConfig {
    let mut mem = SharedMemory::new();
    let counter = mem.alloc(0);
    CheckConfig {
        procs: vec![
            Box::new(Spinner::new(counter)),
            Box::new(Spinner::new(counter)),
        ],
        mem,
        spec: Spec::counter(),
        budgets: vec![1, 1],
    }
}

fn build_livelock_mutant() -> CheckConfig {
    let mut mem = SharedMemory::new();
    let counter = mem.alloc(0);
    CheckConfig {
        procs: vec![
            Box::new(FaiProcess::new(counter)),
            Box::new(Spinner::new(counter)),
        ],
        mem,
        spec: Spec::counter(),
        budgets: vec![1, 1],
    }
}

/// Fetch-and-increment counter (Algorithm 5), 2 processes × 2 ops.
pub const FAI_COUNTER: CheckTarget = CheckTarget {
    name: "counter",
    description: "fetch-and-inc counter (Algorithm 5), n=2, 2 ops each",
    expect_failure: false,
    progress: Progress::LockFree,
    build: build_fai,
};

/// The seeded non-linearizable counter mutant.
pub const RW_COUNTER_MUTANT: CheckTarget = CheckTarget {
    name: "counter-rw-mutant",
    description: "MUTANT: read-then-write counter without CAS (lost updates)",
    expect_failure: true,
    progress: Progress::LockFree,
    build: build_rw_mutant,
};

/// The seeded lock-freedom violation: one honest incrementer plus one
/// spinner that never completes.
pub const LIVELOCK_MUTANT: CheckTarget = CheckTarget {
    name: "livelock-mutant",
    description: "MUTANT: a spinning process that never completes (livelock)",
    expect_failure: true,
    progress: Progress::LockFree,
    build: build_livelock_mutant,
};

/// The seeded *fair*-progress violation: two mutual spinners. Classed
/// [`Progress::StochasticOnly`], so within-run spinning is tolerated
/// and exploration alone reports nothing — the target exists to be
/// caught by the Theorem 3 fair-cycle audit
/// ([`crate::audit::StateGraph::fair_livelock`]): the whole reachable
/// graph is one completion-free bottom component, so even a stochastic
/// scheduler never sees an operation complete.
pub const SPINNER_PAIR_MUTANT: CheckTarget = CheckTarget {
    name: "spinner-pair-mutant",
    description: "MUTANT: mutual spinners — no fair schedule completes (Thm 3)",
    expect_failure: true,
    progress: Progress::StochasticOnly,
    build: build_spinner_pair_mutant,
};
