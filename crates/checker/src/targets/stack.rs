//! Treiber-stack targets: a tag-protected variant (correct) and the
//! classic ABA mutant that drops the tag increment.
//!
//! The stack is array-backed: node `i` (1-based) owns a value register
//! and a next register; the `top` register packs `(node index, tag)`.
//! Each successful CAS of `top` bumps the tag in the tagged variant,
//! so a stale top observation can never match again. The mutant keeps
//! the tag constant: after a popped node is *reused* by a push, a
//! stale CAS succeeds against the bit-identical top value and splices
//! a popped node back into the stack — the ABA anomaly, surfacing as a
//! duplicate pop in the history.
//!
//! Processes run short scripted op sequences (the checker bounds
//! operations anyway), and pop/push retry loops mirror the real
//! Treiber structure: read top, read through it, validate with CAS.

use std::sync::Arc;

use pwf_rng::mix64;
use pwf_sim::memory::{RegisterId, SharedMemory};
use pwf_sim::process::{Process, StepOutcome};

use crate::explore::primary_word;
use crate::op::OpRecord;
use crate::spec::Spec;
use crate::target::{CheckConfig, CheckProcess, CheckTarget, Progress};

/// One scripted stack operation.
#[derive(Debug, Clone, Copy)]
pub enum StackOp {
    /// Push the given value.
    Push(u64),
    /// Pop (possibly observing an empty stack).
    Pop,
}

/// Register layout of the array-backed stack.
#[derive(Debug)]
struct Layout {
    top: RegisterId,
    /// `value[i - 1]` for node `i`.
    value: Vec<RegisterId>,
    /// `next[i - 1]` for node `i` (stores a plain node index, 0 = nil).
    next: Vec<RegisterId>,
}

fn pack(idx: u64, tag: u64) -> u64 {
    (idx << 32) | (tag & 0xFFFF_FFFF)
}

fn idx_of(packed: u64) -> u64 {
    packed >> 32
}

fn tag_of(packed: u64) -> u64 {
    packed & 0xFFFF_FFFF
}

/// Where a scripted stack process is inside its current operation.
#[derive(Debug, Clone, Copy)]
enum SPhase {
    /// About to begin the next scripted op (or retry a pop from the
    /// top read).
    Start,
    /// Push: wrote the value, about to read top. `node` is ours.
    PushReadTop { node: u64, v: u64 },
    /// Push: read top `t`, about to link our node to it.
    PushWriteNext { node: u64, v: u64, t: u64 },
    /// Push: about to CAS top from `t` to our node.
    PushCas { node: u64, v: u64, t: u64 },
    /// Pop: read top `t` (non-nil), about to read its next pointer.
    PopReadNext { t: u64 },
    /// Pop: about to read the value of the node top points to.
    PopReadValue { t: u64, n: u64 },
    /// Pop: about to CAS top from `t` to `n`.
    PopCas { t: u64, n: u64, v: u64 },
}

impl SPhase {
    fn code(self) -> u64 {
        match self {
            SPhase::Start => 0,
            SPhase::PushReadTop { .. } => 1,
            SPhase::PushWriteNext { .. } => 2,
            SPhase::PushCas { .. } => 3,
            SPhase::PopReadNext { .. } => 4,
            SPhase::PopReadValue { .. } => 5,
            SPhase::PopCas { .. } => 6,
        }
    }

    fn words(self) -> [u64; 4] {
        match self {
            SPhase::Start => [0; 4],
            SPhase::PushReadTop { node, v } => [node, v, 0, 0],
            SPhase::PushWriteNext { node, v, t } => [node, v, t, 0],
            SPhase::PushCas { node, v, t } => [node, v, t, 0],
            SPhase::PopReadNext { t } => [t, 0, 0, 0],
            SPhase::PopReadValue { t, n } => [t, n, 0, 0],
            SPhase::PopCas { t, n, v } => [t, n, v, 0],
        }
    }
}

/// A process running a short script of pushes and pops against the
/// array-backed Treiber stack. The layout and script never change
/// after the build, so snapshots share them.
#[derive(Clone)]
pub struct ScriptStackProcess {
    layout: Arc<Layout>,
    tagged: bool,
    script: Arc<[StackOp]>,
    pos: usize,
    phase: SPhase,
    /// Nodes this process popped and may reuse, oldest first — FIFO
    /// reuse maximises the window for ABA in the mutant.
    recycled: Vec<u64>,
    /// A pre-allocated node for pushes that outnumber prior pops.
    spare: Option<u64>,
    last: OpRecord,
}

impl ScriptStackProcess {
    fn bump(&self, tag: u64) -> u64 {
        if self.tagged {
            tag + 1
        } else {
            tag
        }
    }

    fn complete(&mut self, record: OpRecord) -> StepOutcome {
        self.last = record;
        self.pos += 1;
        self.phase = SPhase::Start;
        StepOutcome::Completed
    }
}

impl Process for ScriptStackProcess {
    fn step(&mut self, mem: &mut SharedMemory) -> StepOutcome {
        let l: &Layout = &self.layout;
        match self.phase {
            SPhase::Start => match self.script[self.pos] {
                StackOp::Push(v) => {
                    let node = if self.recycled.is_empty() {
                        self.spare.take().expect("push with no node available")
                    } else {
                        self.recycled.remove(0)
                    };
                    mem.write(l.value[node as usize - 1], v);
                    self.phase = SPhase::PushReadTop { node, v };
                    StepOutcome::Ongoing
                }
                StackOp::Pop => {
                    let t = mem.read(l.top);
                    if idx_of(t) == 0 {
                        self.complete(OpRecord {
                            name: "pop",
                            input: None,
                            output: None,
                        })
                    } else {
                        self.phase = SPhase::PopReadNext { t };
                        StepOutcome::Ongoing
                    }
                }
            },
            SPhase::PushReadTop { node, v } => {
                let t = mem.read(l.top);
                self.phase = SPhase::PushWriteNext { node, v, t };
                StepOutcome::Ongoing
            }
            SPhase::PushWriteNext { node, v, t } => {
                mem.write(l.next[node as usize - 1], idx_of(t));
                self.phase = SPhase::PushCas { node, v, t };
                StepOutcome::Ongoing
            }
            SPhase::PushCas { node, v, t } => {
                let new = pack(node, self.bump(tag_of(t)));
                if mem.cas(l.top, t, new) {
                    self.complete(OpRecord {
                        name: "push",
                        input: Some(v),
                        output: None,
                    })
                } else {
                    self.phase = SPhase::PushReadTop { node, v };
                    StepOutcome::Ongoing
                }
            }
            SPhase::PopReadNext { t } => {
                let n = mem.read(l.next[idx_of(t) as usize - 1]);
                self.phase = SPhase::PopReadValue { t, n };
                StepOutcome::Ongoing
            }
            SPhase::PopReadValue { t, n } => {
                let v = mem.read(l.value[idx_of(t) as usize - 1]);
                self.phase = SPhase::PopCas { t, n, v };
                StepOutcome::Ongoing
            }
            SPhase::PopCas { t, n, v } => {
                let new = pack(n, self.bump(tag_of(t)));
                if mem.cas(l.top, t, new) {
                    self.recycled.push(idx_of(t));
                    self.complete(OpRecord {
                        name: "pop",
                        input: None,
                        output: Some(v),
                    })
                } else {
                    // Retry from the top read (Start re-dispatches the
                    // same scripted pop).
                    self.phase = SPhase::Start;
                    StepOutcome::Ongoing
                }
            }
        }
    }

    fn name(&self) -> &'static str {
        if self.tagged {
            "treiber-tagged"
        } else {
            "treiber-untagged"
        }
    }
}

impl CheckProcess for ScriptStackProcess {
    fn last_op(&self) -> OpRecord {
        self.last
    }

    fn local_fingerprint(&self) -> u64 {
        // Called once per step: fold whole words, then finalise once.
        let words = [self.pos as u64, self.phase.code()]
            .into_iter()
            .chain(self.phase.words())
            .chain([self.spare.map_or(0, |s| s + 1), self.recycled.len() as u64])
            .chain(self.recycled.iter().copied());
        mix64(words.fold(0xB7E1_5162, primary_word))
    }

    fn clone_box(&self) -> Box<dyn CheckProcess> {
        Box::new(self.clone())
    }
}

/// Builds a stack configuration.
///
/// * `initial`: bottom-first initial stack contents (nodes `1..`).
/// * `scripts`: one op script per process.
/// * `tagged`: whether successful top-CASes bump the tag.
///
/// Each process additionally owns one spare node for pushes that
/// outnumber its pops.
fn build_stack(initial: &[u64], scripts: &[&[StackOp]], tagged: bool) -> CheckConfig {
    let mut mem = SharedMemory::new();
    let n_nodes = initial.len() + scripts.len();
    let top = mem.alloc(pack(initial.len() as u64, 0));
    let mut value = Vec::new();
    let mut next = Vec::new();
    for (i, &v) in initial.iter().enumerate() {
        value.push(mem.alloc(v));
        next.push(mem.alloc(i as u64)); // node i+1 links down to node i
    }
    for _ in initial.len()..n_nodes {
        value.push(mem.alloc(0));
        next.push(mem.alloc(0));
    }
    let layout = Arc::new(Layout { top, value, next });
    let procs: Vec<Box<dyn CheckProcess>> = scripts
        .iter()
        .enumerate()
        .map(|(i, script)| {
            Box::new(ScriptStackProcess {
                layout: Arc::clone(&layout),
                tagged,
                script: Arc::from(*script),
                pos: 0,
                phase: SPhase::Start,
                recycled: Vec::new(),
                spare: Some((initial.len() + i + 1) as u64),
                last: OpRecord {
                    name: "pop",
                    input: None,
                    output: None,
                },
            }) as Box<dyn CheckProcess>
        })
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
