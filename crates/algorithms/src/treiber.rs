//! A simulated Treiber stack (reference \[21\] in the paper) — the
//! canonical `SCU(q, 1)`-shaped data structure: each push and pop
//! reads the `top` register and validates with a single CAS.
//!
//! The stack is array-backed: node `i` (1-based) owns a value register
//! and a next register, and `top` packs `(node index, tag)`. A
//! [`StackProcess`] runs a script of pushes and pops, repeated when it
//! ends. Node management is local: each process owns one spare node
//! and reuses the nodes it pops, oldest first (the paper's cost model
//! treats this `malloc`/`free` as free local computation).
//!
//! On a tagged stack every successful CAS of `top` bumps the tag, so a
//! stale `top` observation can never match again. The untagged stack
//! is the classic ABA mutant: once a popped node is reused by a push,
//! a stale CAS succeeds against the bit-identical `top` and splices
//! the popped node back in, which shows up as a duplicate pop.
//!
//! These are the processes `pwf vet` explores (its `stack*` targets
//! check every history against a sequential stack); the tests below
//! replay long simulated runs against a sequential stack the same way.
//! A process is plain data over the shared, immutable [`SimStack`], so
//! cloning one snapshots it.

use std::sync::Arc;

use pwf_rng::mix64;
use pwf_sim::memory::{fold_word, RegisterId, SharedMemory};
use pwf_sim::process::{Process, StepOutcome};

/// One scripted stack operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StackOp {
    /// Push the given value.
    Push(u64),
    /// Pop (possibly observing an empty stack).
    Pop,
}

/// A completed stack operation and what it returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StackResult {
    /// A push of the given value.
    Pushed(u64),
    /// A pop returning the top value, or `None` on an empty stack.
    Popped(Option<u64>),
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

/// The register layout of a simulated Treiber stack. It never changes
/// after [`SimStack::alloc`], so processes share it through an [`Arc`].
#[derive(Debug)]
pub struct SimStack {
    top: RegisterId,
    /// `value[i - 1]` for node `i`.
    value: Vec<RegisterId>,
    /// `next[i - 1]` for node `i` (stores a plain node index, 0 = nil).
    next: Vec<RegisterId>,
    /// Nodes holding the initial contents; process `i`'s spare node is
    /// `initial + i + 1`.
    initial: usize,
    /// Whether successful CASes of `top` bump the tag.
    tagged: bool,
}

impl SimStack {
    /// Allocates a stack holding `initial` (bottom first, in nodes
    /// `1..`) plus one spare node for each of `procs` processes.
    /// `tagged = false` builds the ABA mutant, whose CASes never bump
    /// the tag.
    pub fn alloc(mem: &mut SharedMemory, initial: &[u64], procs: usize, tagged: bool) -> Arc<Self> {
        let top = mem.alloc(pack(initial.len() as u64, 0));
        let mut value = Vec::new();
        let mut next = Vec::new();
        for (i, &v) in initial.iter().enumerate() {
            value.push(mem.alloc(v));
            next.push(mem.alloc(i as u64)); // node i+1 links down to node i
        }
        for _ in 0..procs {
            value.push(mem.alloc(0));
            next.push(mem.alloc(0));
        }
        Arc::new(SimStack {
            top,
            value,
            next,
            initial: initial.len(),
            tagged,
        })
    }
}

/// Where a stack process is inside its current operation.
#[derive(Debug, Clone, Copy)]
enum Phase {
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

impl Phase {
    fn code(self) -> u64 {
        match self {
            Phase::Start => 0,
            Phase::PushReadTop { .. } => 1,
            Phase::PushWriteNext { .. } => 2,
            Phase::PushCas { .. } => 3,
            Phase::PopReadNext { .. } => 4,
            Phase::PopReadValue { .. } => 5,
            Phase::PopCas { .. } => 6,
        }
    }

    fn words(self) -> [u64; 4] {
        match self {
            Phase::Start => [0; 4],
            Phase::PushReadTop { node, v } => [node, v, 0, 0],
            Phase::PushWriteNext { node, v, t } => [node, v, t, 0],
            Phase::PushCas { node, v, t } => [node, v, t, 0],
            Phase::PopReadNext { t } => [t, 0, 0, 0],
            Phase::PopReadValue { t, n } => [t, n, 0, 0],
            Phase::PopCas { t, n, v } => [t, n, v, 0],
        }
    }
}

/// A process running a script of pushes and pops against a
/// [`SimStack`]. A push takes 4 steps (write value, read top, write
/// next, CAS), a pop of a non-empty stack 4 (read top, read next, read
/// value, CAS) and a pop of an empty stack 1; a failed CAS retries
/// from the top read.
#[derive(Debug)]
pub struct StackProcess {
    stack: Arc<SimStack>,
    script: Arc<[StackOp]>,
    /// Operations completed; the current one is
    /// `script[pos % script.len()]`.
    pos: usize,
    phase: Phase,
    /// Nodes this process popped and may reuse, oldest first — FIFO
    /// reuse maximises the window for ABA in the mutant.
    recycled: Vec<u64>,
    /// The process's own node, for pushes that outnumber prior pops.
    spare: Option<u64>,
    last: Option<StackResult>,
}

/// Seeds of [`StackProcess::fingerprint`]'s two lanes.
const FINGERPRINT_LANES: (u64, u64) = (0xB7E1_5162, 0x243F_6A88_85A3_08D3);

/// Folds `words` into `lanes` with [`fold_word`]: even positions into
/// the first lane, odd into the second.
#[inline]
fn fold_lanes((mut x, mut y): (u64, u64), words: &[u64]) -> (u64, u64) {
    for pair in words.chunks(2) {
        x = fold_word(x, pair[0]);
        if let Some(&w) = pair.get(1) {
            y = fold_word(y, w);
        }
    }
    (x, y)
}

impl StackProcess {
    /// Creates process `index` of `stack`, running `script` and
    /// starting over when it ends.
    ///
    /// # Panics
    ///
    /// Panics if `stack` has no spare node for `index`. A push panics
    /// when the process has no node: neither its spare nor one it
    /// popped.
    pub fn new(stack: &Arc<SimStack>, index: usize, script: &[StackOp]) -> Self {
        let spare = stack.initial + index + 1;
        assert!(
            spare <= stack.value.len(),
            "no spare node for process {index}"
        );
        StackProcess {
            stack: Arc::clone(stack),
            script: Arc::from(script),
            pos: 0,
            phase: Phase::Start,
            recycled: Vec::new(),
            spare: Some(spare as u64),
            last: None,
        }
    }

    /// The most recent completed operation, if any.
    pub fn last_completed(&self) -> Option<StackResult> {
        self.last
    }

    /// Fingerprint of the behaviour-relevant local state: script
    /// position, phase and its cached reads, and the nodes in hand.
    ///
    /// The words are folded in two independent lanes, even positions
    /// into one and odd into the other, so the two multiply chains
    /// overlap instead of running back to back; the lanes are combined
    /// and finished with one `mix64`. A change to one word changes one
    /// lane, bijectively, so equal-length word lists that differ in one
    /// word still never collide.
    pub fn fingerprint(&self) -> u64 {
        let [a, b, c, d] = self.phase.words();
        let head = [
            self.pos as u64,
            self.phase.code(),
            a,
            b,
            c,
            d,
            self.spare.map_or(0, |s| s + 1),
            self.recycled.len() as u64,
        ];
        // `head` has even length, so `recycled` starts on the even lane.
        let lanes = fold_lanes(FINGERPRINT_LANES, &head);
        let (x, y) = fold_lanes(lanes, &self.recycled);
        mix64(x ^ y.rotate_left(32))
    }

    fn bump(&self, tag: u64) -> u64 {
        if self.stack.tagged {
            tag + 1
        } else {
            tag
        }
    }

    fn complete(&mut self, result: StackResult) -> StepOutcome {
        self.last = Some(result);
        self.pos += 1;
        self.phase = Phase::Start;
        StepOutcome::Completed
    }
}

/// [`Clone::clone_from`] reuses the `recycled` buffer and leaves the
/// shared stack and script alone when they already match, so a checker
/// overwriting a snapshot in place allocates nothing.
impl Clone for StackProcess {
    fn clone(&self) -> Self {
        StackProcess {
            stack: Arc::clone(&self.stack),
            script: Arc::clone(&self.script),
            pos: self.pos,
            phase: self.phase,
            recycled: self.recycled.clone(),
            spare: self.spare,
            last: self.last,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        if !Arc::ptr_eq(&self.stack, &source.stack) {
            self.stack = Arc::clone(&source.stack);
        }
        if !Arc::ptr_eq(&self.script, &source.script) {
            self.script = Arc::clone(&source.script);
        }
        self.pos = source.pos;
        self.phase = source.phase;
        self.recycled.clone_from(&source.recycled);
        self.spare = source.spare;
        self.last = source.last;
    }
}

impl Process for StackProcess {
    fn step(&mut self, mem: &mut SharedMemory) -> StepOutcome {
        let s: &SimStack = &self.stack;
        match self.phase {
            Phase::Start => match self.script[self.pos % self.script.len()] {
                StackOp::Push(v) => {
                    let node = if self.recycled.is_empty() {
                        self.spare.take().expect("push with no node available")
                    } else {
                        self.recycled.remove(0)
                    };
                    mem.write(s.value[node as usize - 1], v);
                    self.phase = Phase::PushReadTop { node, v };
                    StepOutcome::Ongoing
                }
                StackOp::Pop => {
                    let t = mem.read(s.top);
                    if idx_of(t) == 0 {
                        self.complete(StackResult::Popped(None))
                    } else {
                        self.phase = Phase::PopReadNext { t };
                        StepOutcome::Ongoing
                    }
                }
            },
            Phase::PushReadTop { node, v } => {
                let t = mem.read(s.top);
                self.phase = Phase::PushWriteNext { node, v, t };
                StepOutcome::Ongoing
            }
            Phase::PushWriteNext { node, v, t } => {
                mem.write(s.next[node as usize - 1], idx_of(t));
                self.phase = Phase::PushCas { node, v, t };
                StepOutcome::Ongoing
            }
            Phase::PushCas { node, v, t } => {
                let new = pack(node, self.bump(tag_of(t)));
                if mem.cas(s.top, t, new) {
                    self.complete(StackResult::Pushed(v))
                } else {
                    self.phase = Phase::PushReadTop { node, v };
                    StepOutcome::Ongoing
                }
            }
            Phase::PopReadNext { t } => {
                let n = mem.read(s.next[idx_of(t) as usize - 1]);
                self.phase = Phase::PopReadValue { t, n };
                StepOutcome::Ongoing
            }
            Phase::PopReadValue { t, n } => {
                let v = mem.read(s.value[idx_of(t) as usize - 1]);
                self.phase = Phase::PopCas { t, n, v };
                StepOutcome::Ongoing
            }
            Phase::PopCas { t, n, v } => {
                let new = pack(n, self.bump(tag_of(t)));
                if mem.cas(s.top, t, new) {
                    self.recycled.push(idx_of(t));
                    self.complete(StackResult::Popped(Some(v)))
                } else {
                    // Retry from the top read (Start re-dispatches the
                    // same scripted pop).
                    self.phase = Phase::Start;
                    StepOutcome::Ongoing
                }
            }
        }
    }

    fn name(&self) -> &'static str {
        "treiber-stack"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pwf_rng::rngs::StdRng;
    use pwf_rng::{Rng, SeedableRng};
    use pwf_sim::executor::{run, RunConfig};
    use pwf_sim::process::ProcessId;
    use pwf_sim::scheduler::{AdversarialScheduler, UniformScheduler};

    /// `n` processes alternating `push(i + 1)` and pop on an empty
    /// stack, as the simulator's Treiber-stack fleet runs them.
    fn fleet(mem: &mut SharedMemory, n: usize) -> Vec<Box<dyn Process>> {
        let stack = SimStack::alloc(mem, &[], n, true);
        (0..n)
            .map(|i| {
                let script = [StackOp::Push(i as u64 + 1), StackOp::Pop];
                Box::new(StackProcess::new(&stack, i, &script)) as Box<dyn Process>
            })
            .collect()
    }

    /// Runs `n` processes for `steps` uniformly random steps, process
    /// `i` alternating pushes of unique values with pops, and replays
    /// every completion in step order against a sequential stack.
    /// Steps are atomic and each operation completes at its
    /// linearization point (a successful CAS, or the read of an empty
    /// `top`), so step order is a linearization order. Returns the
    /// number of completions, or the step whose completion the
    /// sequential stack disagrees with.
    fn replay(n: usize, tagged: bool, steps: u64, seed: u64) -> Result<u64, u64> {
        let mut mem = SharedMemory::new();
        let stack = SimStack::alloc(&mut mem, &[], n, tagged);
        // An op pair takes at least 8 steps, so no script repeats.
        let mut procs: Vec<StackProcess> = (0..n as u64)
            .map(|i| {
                let script: Vec<StackOp> = (0..steps / 8 + 1)
                    .flat_map(|k| [StackOp::Push((i << 32) | k), StackOp::Pop])
                    .collect();
                StackProcess::new(&stack, i as usize, &script)
            })
            .collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut model = Vec::new();
        let mut completions = 0;
        for step in 0..steps {
            let p = &mut procs[rng.gen_range(0..n)];
            if p.step(&mut mem) == StepOutcome::Ongoing {
                continue;
            }
            completions += 1;
            let agrees = match p.last_completed().expect("a completed step") {
                StackResult::Pushed(v) => {
                    model.push(v);
                    true
                }
                StackResult::Popped(v) => v == model.pop(),
            };
            if !agrees {
                return Err(step);
            }
        }
        Ok(completions)
    }

    #[test]
    fn solo_push_pop_alternation() {
        let mut mem = SharedMemory::new();
        let mut ps = fleet(&mut mem, 1);
        let exec = run(
            &mut ps,
            &mut AdversarialScheduler::solo(ProcessId::new(0)),
            &mut mem,
            &RunConfig::new(1_000),
        );
        // Push = 4 steps, pop of a non-empty stack = 4 steps.
        assert_eq!(exec.total_completions(), 250);
    }

    #[test]
    fn contended_stack_replays_against_a_sequential_stack() {
        let completions = replay(6, true, 200_000, 37).expect("linearizable");
        assert!(completions > 10_000, "{completions} completions");
    }

    #[test]
    fn untagged_stack_fails_the_replay() {
        for n in [2, 6] {
            for seed in 0..3 {
                assert!(
                    replay(n, false, 200_000, seed).is_err(),
                    "ABA went unnoticed at n = {n}, seed {seed}"
                );
            }
        }
    }

    #[test]
    fn all_processes_progress() {
        let mut mem = SharedMemory::new();
        let mut ps = fleet(&mut mem, 4);
        let exec = run(
            &mut ps,
            &mut UniformScheduler::new(),
            &mut mem,
            &RunConfig::new(100_000).seed(41),
        );
        for i in 0..4 {
            assert!(exec.process_completions[i] > 100, "process {i} starved");
        }
    }

    /// [`StackProcess::fingerprint`]'s two-lane fold, written as one
    /// iterator chain over the same words.
    fn chained_fingerprint(p: &StackProcess) -> u64 {
        let words = [p.pos as u64, p.phase.code()]
            .into_iter()
            .chain(p.phase.words())
            .chain([p.spare.map_or(0, |s| s + 1), p.recycled.len() as u64])
            .chain(p.recycled.iter().copied());
        let (x, y) = words.enumerate().fold(FINGERPRINT_LANES, |(x, y), (i, w)| {
            if i % 2 == 0 {
                (fold_word(x, w), y)
            } else {
                (x, fold_word(y, w))
            }
        });
        mix64(x ^ y.rotate_left(32))
    }

    #[test]
    fn fingerprint_and_clone_from_track_a_contended_run() {
        let mut mem = SharedMemory::new();
        let stack = SimStack::alloc(&mut mem, &[5, 6], 3, true);
        let mut procs: Vec<StackProcess> = (0..3)
            .map(|i| StackProcess::new(&stack, i, &[StackOp::Push(i as u64), StackOp::Pop]))
            .collect();
        let mut rng = StdRng::seed_from_u64(9);
        let mut copy = procs[2].clone();
        copy.recycled.reserve(8);
        let mut recycling = 0;
        for _ in 0..500 {
            let i = rng.gen_range(0..3);
            procs[i].step(&mut mem);
            let p = &procs[i];
            recycling += usize::from(!p.recycled.is_empty());
            assert_eq!(p.fingerprint(), chained_fingerprint(p));
            let buffer = copy.recycled.as_ptr();
            copy.clone_from(p);
            assert_eq!(copy.fingerprint(), p.fingerprint());
            assert_eq!(copy.recycled, p.recycled);
            if p.recycled.len() <= copy.recycled.capacity() {
                assert_eq!(copy.recycled.as_ptr(), buffer, "recycled buffer reused");
            }
        }
        assert!(recycling > 0, "some step had popped nodes in hand");
    }

    #[test]
    #[should_panic(expected = "push with no node available")]
    fn a_push_without_a_node_panics() {
        // The spare node goes to the first push; nothing was popped.
        let mut mem = SharedMemory::new();
        let stack = SimStack::alloc(&mut mem, &[], 1, true);
        let mut p = StackProcess::new(&stack, 0, &[StackOp::Push(1), StackOp::Push(2)]);
        while p.step(&mut mem) == StepOutcome::Ongoing {}
        p.step(&mut mem);
    }
}
