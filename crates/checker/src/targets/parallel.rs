//! Fully parallel target (paper, Algorithm 4): each process works on
//! its own register only, so *every* pair of steps from distinct
//! processes is independent and partial-order reduction collapses the
//! whole schedule tree to a single execution — the yardstick for the
//! reported reduction ratio.

use pwf_sim::memory::{fold_words, RegisterId, SharedMemory};
use pwf_sim::process::{Process, StepOutcome};

use crate::op::OpRecord;
use crate::spec::Spec;
use crate::target::{CheckConfig, CheckProcess, CheckTarget, Progress};

/// A process performing `q`-step operations on its own register:
/// `q − 1` reads followed by a write publishing a fresh value. Checked
/// against the single-writer snapshot spec (updates are always legal;
/// the point of this target is the schedule *count*, not the object).
#[derive(Clone)]
pub struct OwnRegisterWriter {
    reg: RegisterId,
    writer: usize,
    q: usize,
    pos: usize,
    count: u64,
}

impl OwnRegisterWriter {
    /// Creates writer `writer` doing `q`-step operations on `reg`.
    ///
    /// # Panics
    ///
    /// Panics if `q == 0`.
    pub fn new(reg: RegisterId, writer: usize, q: usize) -> Self {
        assert!(q > 0, "operations need at least one step");
        OwnRegisterWriter {
            reg,
            writer,
            q,
            pos: 0,
            count: 0,
        }
    }
}

impl Process for OwnRegisterWriter {
    fn step(&mut self, mem: &mut SharedMemory) -> StepOutcome {
        if self.pos + 1 < self.q {
            let _ = mem.read(self.reg);
            self.pos += 1;
            StepOutcome::Ongoing
        } else {
            self.count += 1;
            mem.write(self.reg, self.count);
            self.pos = 0;
            StepOutcome::Completed
        }
    }

    fn name(&self) -> &'static str {
        "own-register-writer"
    }
}

impl CheckProcess for OwnRegisterWriter {
    fn last_op(&self) -> OpRecord {
        OpRecord {
            name: "update",
            input: Some(Spec::pack_update(self.writer, self.count)),
            output: None,
        }
    }

    fn local_fingerprint(&self) -> u64 {
        fold_words(0x243F_6A88, &[self.pos as u64, self.count])
    }
}

fn build_parallel() -> CheckConfig {
    let n = 2;
    let q = 3;
    let mut mem = SharedMemory::new();
    let procs: Vec<Box<dyn CheckProcess>> = (0..n)
        .map(|i| {
            let reg = mem.alloc(0);
            Box::new(OwnRegisterWriter::new(reg, i, q)) as Box<dyn CheckProcess>
        })
        .collect();
    CheckConfig {
        mem,
        procs,
        spec: Spec::snapshot(n),
        budgets: vec![2; n],
    }
}

/// Disjoint-register parallel work, 2 processes × 2 three-step ops.
pub const PARALLEL: CheckTarget = CheckTarget {
    name: "parallel",
    description: "disjoint registers (Algorithm 4), n=2, 2 three-step ops each",
    expect_failure: false,
    progress: Progress::LockFree,
    build: build_parallel,
};
