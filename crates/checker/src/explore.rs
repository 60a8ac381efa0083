//! Exhaustive schedule exploration with sleep-set dynamic
//! partial-order reduction, drained on one thread from a deterministic
//! frontier.
//!
//! The explorer drives a [`CheckTarget`] through every inequivalent
//! interleaving of its (budget-bounded) processes. Exploration is
//! *stateful*: the configuration is built once, and every frontier
//! unit carries a snapshot of the state it reached (a [`LiveRun`],
//! whose processes clone through [`crate::target::CloneProcess`]). Expanding
//! a unit clones that snapshot for every explorable process but the
//! last, which steps the snapshot itself, so no schedule prefix is ever
//! re-executed. The recursive baseline
//! ([`explore_recursive`]) stays stateless — it rebuilds the
//! configuration and replays the prefix for every branch — and is kept
//! as the replay oracle the frontier explorer is tested against.
//!
//! ## Reduction
//!
//! Two steps are *independent* when their shared-memory accesses
//! commute ([`Access::conflicts_with`]); swapping adjacent independent
//! steps yields an equivalent execution (same Mazurkiewicz trace), so
//! only one linear extension per trace needs checking. The classic
//! sleep-set scheme realises this: after exploring process `p` from a
//! state, `p` is put to sleep for the sibling subtrees and stays
//! asleep in descendants until a step *dependent* on `p`'s pending
//! access executes. A state whose enabled processes are all asleep is
//! pruned (every trace through it has been covered). With `prune:
//! false` the sleep sets are ignored and the full schedule tree is
//! enumerated — the baseline for the reported reduction ratio.
//!
//! ## Draining
//!
//! The frontier is a LIFO stack of self-contained *units* — a snapshot
//! of a reached state plus the sleep set there and the explorable
//! processes as a `u64` mask (at most 64 processes), whose branches are
//! taken lowest bit first. Expanding a unit writes straight into the
//! exploration: its state-graph edges, counters and violation
//! candidates are recorded as each step is taken, and its interior
//! children are pushed onto the stack. The step path allocates nothing
//! once its buffers have grown: the explorer owns the sleep sets being
//! stepped (copied into a unit only when one is queued), a run that
//! ends (terminal, livelocked or sleep-blocked) becomes a spare that a
//! later sibling branch overwrites with [`Clone::clone_from`] instead
//! of allocating a copy, and one [`Linearizer`] checks every terminal
//! history. Overwriting a spare reuses everything it holds: the
//! register file, each boxed process of the same concrete type (see
//! [`crate::target::CloneProcess::clone_into_box`]) and every buffer.
//! Units and spares hold their runs boxed, so queueing, splitting off
//! and recycling a unit moves a pointer. Units are taken from the top
//! of the stack in chunks of 256; the stop conditions (a violation
//! found, the execution cap reached) are checked only between chunks,
//! so where a stopped exploration ends depends on the chunk size alone.
//! Exploration runs on the caller's thread; [`ExploreOptions::jobs`] is
//! accepted and ignored.
//!
//! Violations are selected order-independently: the winner is the
//! minimum by `(schedule length, schedule lexicographic)` among all
//! candidates found before the stop.
//!
//! ## What is checked
//!
//! Terminal executions (every process exhausted its operation budget)
//! have their operation histories checked for linearizability
//! ([`crate::lin`]). Non-terminal repetition of a full-state
//! fingerprint with no intervening completion is a *livelock*: the
//! repeated segment can be scheduled forever, so some infinite
//! execution completes only finitely many operations. For
//! [`Progress::LockFree`] targets that refutes lock-freedom and is
//! reported as a violation; for [`Progress::StochasticOnly`] targets
//! (blocking by design, e.g. a waiting coalescer) it merely truncates
//! the run, and liveness is judged by the fair-cycle audit on the
//! merged state graph instead ([`crate::audit::StateGraph::fair_livelock`]).
//! A run detects the repetition with its `seen` list: the fingerprint
//! pairs of the states since its last completion, appended as they are
//! reached and scanned linearly. Fingerprints are 64-bit, so a hash
//! collision could in principle misreport; `seen` keys on a *pair* of
//! independent 64-bit hashes, so a single-hash collision cannot
//! fabricate a livelock, and every reported schedule replays
//! deterministically for confirmation.
//!
//! ## Step hashing
//!
//! Both hashes cover the same state words: every register, every
//! process's local fingerprint, every remaining budget. Each is a
//! wrapping sum of one [`mix64`] term per word, keyed by the word's
//! position, with a different key sequence and word transform per
//! hash. The primary hash names a state in the state graph; the
//! verification hash backs it in the livelock check. A step changes at
//! most three words — the register its access touched (processes are
//! plain data and issue one shared-memory access per step), the
//! stepping process's local fingerprint, and on a completion its
//! budget — so `step_raw` updates both sums by swapping those words' old terms for new ones
//! and never rehashes the rest. A run keeps a shadow of the register
//! file for the old values and a cache of every process's
//! [`CheckProcess::local_fingerprint`]. Debug builds check each
//! updated pair against a from-scratch hash of all words.
//!
//! Recording a step hashes nothing more. The state graph numbers states
//! densely, and every unit and every stepped branch carries its state's
//! id, so a step whose transition is already recorded finds it among
//! that state's out-edges (at most one per process) by comparing
//! fingerprints. Only a new transition looks its target up in the
//! graph's fingerprint map ([`StateGraph`]).
//!
//! No report depends on the hash values themselves: the state graph
//! only compares fingerprints for equality, and the fair-livelock
//! witness is chosen by schedule prefix
//! ([`crate::audit::StateGraph::fair_livelock`]).

use pwf_obs::json::Json;
use pwf_rng::mix64;
use pwf_sim::memory::{Access, SharedMemory};
use pwf_sim::process::ProcessId;
use std::sync::Arc;

use crate::audit::StateGraph;
use crate::lin::{self, iter_bits, Linearizer};
use crate::op::TimedOp;
use crate::spec::Spec;
use crate::target::{CheckProcess, CheckTarget, Progress};

/// Units expanded between checks of the stop conditions. A stopped
/// exploration (mutants, capped baselines) ends at a chunk boundary, so
/// the chunk fixes its `units` and `executions`; changing it changes
/// those reports.
const CHUNK: usize = 256;

/// Exploration parameters.
#[derive(Debug, Clone)]
pub struct ExploreOptions {
    /// Sleep-set partial-order reduction on (`true`) or naive full
    /// enumeration (`false`).
    pub prune: bool,
    /// Abort a single execution past this many steps (treated as
    /// divergence, reported as a livelock).
    pub max_depth: usize,
    /// Stop exploring after this many executions (naive baselines of
    /// larger configs are capped; the cap is reported). Enforced at
    /// chunk granularity.
    pub max_executions: u64,
    /// Accepted for compatibility and ignored: exploration always runs
    /// on the caller's thread.
    pub jobs: usize,
    /// Accepted for compatibility and ignored: the state cache it
    /// switched was removed.
    pub cache: bool,
}

impl Default for ExploreOptions {
    fn default() -> Self {
        ExploreOptions {
            prune: true,
            max_depth: 4_096,
            max_executions: 1_000_000,
            jobs: 1,
            cache: true,
        }
    }
}

/// Counters from one exploration, all deterministic.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExploreStats {
    /// Complete executions examined (leaves of the schedule tree).
    pub executions: u64,
    /// States pruned because every enabled process was asleep.
    pub sleep_blocked: u64,
    /// Distinct state-graph transitions taken.
    pub transitions: u64,
    /// Distinct global states reached (fingerprint-deduplicated).
    pub distinct_states: u64,
    /// Longest execution, in steps.
    pub max_depth: usize,
    /// Whether the execution cap cut exploration short.
    pub capped: bool,
    /// Frontier units expanded.
    pub units: u64,
    /// Always 0: kept for callers that read it from the removed state
    /// cache.
    pub cache_hits: u64,
    /// Always 0: kept for callers that read it from the removed state
    /// cache.
    pub cache_misses: u64,
    /// Always 0: kept for callers that read it from the removed
    /// work-stealing pool.
    pub steals: u64,
    /// Most frontier units alive at once (queued plus the chunk being
    /// drained); each holds a snapshot of its reached state.
    pub peak_frontier_units: u64,
    /// Most bytes those snapshots held at once: each run's fields and
    /// the heap behind them, not counting heap owned inside a process.
    pub peak_frontier_bytes: u64,
    /// Process steps taken, replays included (the recursive baseline
    /// re-executes every prefix). Deterministic, but kept out of
    /// [`ExploreReport::deterministic_json`]: it measures the cost of
    /// an exploration, not its result.
    pub steps: u64,
}

/// What kind of property failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// A terminal history admits no legal linearization.
    NotLinearizable,
    /// A completion-free state cycle is schedulable (lock-freedom
    /// fails), or an execution diverged past the depth bound.
    Livelock,
}

/// A property violation with its witness schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which property failed.
    pub kind: ViolationKind,
    /// The witness schedule (process indices, in step order).
    pub schedule: Vec<usize>,
    /// The operations completed along the witness.
    pub ops: Vec<TimedOp>,
}

/// Result of exploring one target.
#[derive(Debug)]
pub struct ExploreReport {
    /// Exploration counters.
    pub stats: ExploreStats,
    /// The minimal violation found (by schedule length, then
    /// lexicographic order), if any.
    pub violation: Option<Violation>,
    /// The explored state graph (for the global lock-freedom audit).
    pub graph: StateGraph,
}

impl ExploreReport {
    /// Renders the report's counters and violation as one line of JSON.
    /// Wall times and the frontier's peak sizes are absent.
    pub fn deterministic_json(&self, target: &str) -> String {
        let s = &self.stats;
        let int = |v: u64| Json::Int(v.into());
        let violation = self.violation.as_ref().map_or(Json::Null, |v| {
            let kind = match v.kind {
                ViolationKind::NotLinearizable => "not-linearizable",
                ViolationKind::Livelock => "livelock",
            };
            let schedule = v.schedule.iter().map(|&p| Json::Int(p as i128)).collect();
            Json::Obj(vec![
                ("kind".into(), Json::Str(kind.into())),
                ("schedule".into(), Json::Arr(schedule)),
            ])
        });
        let stats = vec![
            ("executions".into(), int(s.executions)),
            ("sleep_blocked".into(), int(s.sleep_blocked)),
            ("transitions".into(), int(s.transitions)),
            ("distinct_states".into(), int(s.distinct_states)),
            ("max_depth".into(), Json::Int(s.max_depth as i128)),
            ("capped".into(), Json::Bool(s.capped)),
            ("units".into(), int(s.units)),
        ];
        Json::Obj(vec![
            ("target".into(), Json::Str(target.into())),
            ("stats".into(), Json::Obj(stats)),
            ("violation".into(), violation),
        ])
        .render_compact()
    }
}

/// Key of the first state word's primary term.
const FP_SEED: u64 = 0x9D89_5A4B_C2B2_AE35;
/// Step between the keys of consecutive words' primary terms.
const FP_STEP: u64 = 0xD6E8_FEB8_6659_FD93;
/// Key of the first state word's verification term.
const VERIFY_SEED: u64 = 0x9E37_79B9_7F4A_7C15;
/// Step between the keys of consecutive words' verification terms.
const VERIFY_STEP: u64 = 0xA076_1D64_78BD_642F;

/// The terms state word `w` at position `i` adds to the primary and
/// the verification hash. Each hash of a state is the wrapping sum of
/// its words' terms, so a step that changes a word updates both hashes
/// by subtracting the word's old terms and adding its new ones. The
/// two terms key the position differently and transform the word
/// differently (a rotation feeds the verification term), so the hashes
/// are independent. [`mix64`] is a bijection, so states that differ in
/// one word always differ in both sums; two configurations colliding
/// under *both* hashes at once is the livelock check's residual risk
/// (~2⁻¹²⁸ per pair).
#[inline]
fn terms(i: usize, w: u64) -> (u64, u64) {
    let i = i as u64;
    (
        mix64(w ^ FP_SEED.wrapping_add(i.wrapping_mul(FP_STEP))),
        mix64(w.rotate_left(29) ^ VERIFY_SEED.wrapping_add(i.wrapping_mul(VERIFY_STEP))),
    )
}

/// Hashes the state words from scratch: the wrapping sums of their
/// [`terms`], each word keyed by its position.
fn hash_words(words: impl Iterator<Item = u64>) -> (u64, u64) {
    words.enumerate().fold((0, 0), |(h, v), (i, w)| {
        let (a, b) = terms(i, w);
        (h.wrapping_add(a), v.wrapping_add(b))
    })
}

/// Moves `pair` from a state where word `i` held `old` to one where it
/// holds `new`.
#[inline]
fn rehash(pair: &mut (u64, u64), i: usize, old: u64, new: u64) {
    if old != new {
        let (a0, b0) = terms(i, old);
        let (a1, b1) = terms(i, new);
        pair.0 = pair.0.wrapping_sub(a0).wrapping_add(a1);
        pair.1 = pair.1.wrapping_sub(b0).wrapping_add(b1);
    }
}

/// One in-flight execution of a configuration. Cloning a run snapshots
/// its state: the clone steps independently of the original, and
/// [`Clone::clone_from`] reuses every buffer of the run it overwrites.
pub struct LiveRun {
    mem: SharedMemory,
    /// The register values [`fingerprint_pair`](Self::fingerprint_pair)
    /// hashes: a step compares the register it accessed against its
    /// shadow to find the old value it rehashes away.
    regs: Vec<u64>,
    procs: Vec<Box<dyn CheckProcess>>,
    /// Every process's [`CheckProcess::local_fingerprint`]; a step
    /// refreshes only the stepping process's entry.
    locals: Vec<u64>,
    /// The (immutable) initial spec terminal histories check against,
    /// shared by every snapshot.
    spec: Arc<Spec>,
    remaining: Vec<u32>,
    trace: Vec<usize>,
    ops: Vec<TimedOp>,
    op_start: Vec<Option<u64>>,
    /// Fingerprint *pairs* of every state this run has passed through
    /// since its last completion, in the order reached: a set that
    /// snapshots with one copy, grows by appending, and is searched
    /// linearly (a completion-free segment is tens of states, so a scan
    /// beats keeping it sorted). A completion lowers a budget, which
    /// the state words include, so no later state can equal an earlier
    /// one. Keying on
    /// the pair means a single-hash collision cannot forge a revisit
    /// (phantom livelock) — both independent hashes would have to
    /// collide at once.
    seen: Vec<(u64, u64)>,
    livelocked: bool,
    /// Fingerprint pair of the current state, updated by each step
    /// from the words it changed.
    fp_pair: (u64, u64),
}

impl Clone for LiveRun {
    fn clone(&self) -> Self {
        LiveRun {
            mem: self.mem.clone(),
            regs: self.regs.clone(),
            procs: self.procs.clone(),
            locals: self.locals.clone(),
            spec: Arc::clone(&self.spec),
            remaining: self.remaining.clone(),
            trace: self.trace.clone(),
            ops: self.ops.clone(),
            op_start: self.op_start.clone(),
            seen: self.seen.clone(),
            livelocked: self.livelocked,
            fp_pair: self.fp_pair,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.mem.clone_from(&source.mem);
        self.regs.clone_from(&source.regs);
        self.procs.clone_from(&source.procs);
        self.locals.clone_from(&source.locals);
        if !Arc::ptr_eq(&self.spec, &source.spec) {
            self.spec = Arc::clone(&source.spec);
        }
        self.remaining.clone_from(&source.remaining);
        self.trace.clone_from(&source.trace);
        self.ops.clone_from(&source.ops);
        self.op_start.clone_from(&source.op_start);
        self.seen.clone_from(&source.seen);
        self.livelocked = source.livelocked;
        self.fp_pair = source.fp_pair;
    }
}

impl LiveRun {
    /// Starts a run from a freshly built configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has more than 64 processes (the
    /// width of the [`enabled`](Self::enabled) mask) or not one budget
    /// per process.
    pub fn new(cfg: crate::target::CheckConfig) -> Self {
        let n = cfg.procs.len();
        assert!(n <= 64, "process count exceeds bitmask capacity");
        assert_eq!(cfg.budgets.len(), n, "one budget per process");
        let mut run = LiveRun {
            regs: cfg.mem.registers().to_vec(),
            mem: cfg.mem,
            locals: cfg.procs.iter().map(|p| p.local_fingerprint()).collect(),
            procs: cfg.procs,
            spec: Arc::new(cfg.spec),
            remaining: cfg.budgets,
            trace: Vec::new(),
            ops: Vec::new(),
            op_start: vec![None; n],
            seen: Vec::new(),
            livelocked: false,
            fp_pair: (0, 0),
        };
        run.fp_pair = run.compute_pair();
        run.seen.push(run.fp_pair);
        run
    }

    /// Hashes the state words from scratch — every register, every
    /// process's cached local fingerprint, the remaining budgets: the
    /// oracle a step's incremental update must agree with.
    fn compute_pair(&self) -> (u64, u64) {
        hash_words(
            self.mem
                .registers()
                .iter()
                .chain(&self.locals)
                .copied()
                .chain(self.remaining.iter().map(|&r| u64::from(r))),
        )
    }

    /// Full-state fingerprint: shared memory, every process's local
    /// state, and the remaining budgets.
    pub fn fingerprint(&self) -> u64 {
        self.fp_pair.0
    }

    /// The primary and independent-verification fingerprints of the
    /// current state.
    pub fn fingerprint_pair(&self) -> (u64, u64) {
        self.fp_pair
    }

    /// The processes that may still step, as a mask: bit `i` is set
    /// when process `i` is enabled.
    pub fn enabled(&self) -> u64 {
        if self.livelocked {
            return 0;
        }
        self.remaining
            .iter()
            .enumerate()
            .filter(|&(_, &r)| r > 0)
            .fold(0, |mask, (i, _)| mask | 1 << i)
    }

    /// Whether every process has exhausted its budget.
    pub fn is_terminal(&self) -> bool {
        self.remaining.iter().all(|&r| r == 0)
    }

    /// Whether the run hit a repeated completion-free state (or the
    /// depth bound).
    pub fn livelocked(&self) -> bool {
        self.livelocked
    }

    /// The schedule so far.
    pub fn trace(&self) -> &[usize] {
        &self.trace
    }

    /// Completed operations so far.
    pub fn ops(&self) -> &[TimedOp] {
        &self.ops
    }

    /// The initial sequential spec of this configuration.
    pub fn spec(&self) -> &Spec {
        &self.spec
    }

    /// Approximate bytes this run holds: its own fields plus the heap
    /// behind them (register file and its shadow, process boxes,
    /// budgets, trace, ops, and the `seen` set). Heap owned inside a
    /// process, such as a stack process's recycled nodes, is not
    /// counted.
    fn footprint_bytes(&self) -> usize {
        use std::mem::{size_of, size_of_val};
        let procs: usize = self
            .procs
            .iter()
            .map(|p| size_of::<Box<dyn CheckProcess>>() + size_of_val(&**p))
            .sum();
        size_of::<Self>()
            + procs
            + (2 * self.mem.register_count() + self.locals.len()) * size_of::<u64>()
            + self.remaining.len() * size_of::<u32>()
            + self.trace.len() * size_of::<usize>()
            + self.ops.len() * size_of::<TimedOp>()
            + self.op_start.len() * size_of::<Option<u64>>()
            + self.seen.len() * size_of::<(u64, u64)>()
    }

    /// Steps process `p` once; returns its shared-memory access and
    /// whether the step completed an operation.
    ///
    /// The fingerprint pair is updated from at most three words: the
    /// register the step accessed, `p`'s local fingerprint, and on a
    /// completion `p`'s budget.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not enabled.
    pub fn step_raw(&mut self, p: usize, max_depth: usize) -> (Access, bool) {
        assert!(self.remaining[p] > 0, "process p{p} is not enabled");
        let now = self.trace.len() as u64 + 1;
        if self.op_start[p].is_none() {
            self.op_start[p] = Some(now);
        }
        let outcome = self.procs[p].step(&mut self.mem);
        let access = self
            .mem
            .last_access()
            .expect("every process step issues one shared-memory access");
        // State word positions: registers, then locals, then budgets.
        let r = access.register.index();
        let value = self.mem.peek(access.register);
        let old = std::mem::replace(&mut self.regs[r], value);
        rehash(&mut self.fp_pair, r, old, value);
        let local_at = self.regs.len();
        let local = self.procs[p].local_fingerprint();
        let old = std::mem::replace(&mut self.locals[p], local);
        rehash(&mut self.fp_pair, local_at + p, old, local);
        self.trace.push(p);
        let completed = outcome.is_completed();
        if completed {
            let invoke = self.op_start[p].take().expect("op start was just set");
            let timed = TimedOp {
                process: ProcessId::new(p),
                invoke,
                response: now,
                record: self.procs[p].last_op(),
            };
            self.ops.push(timed);
            self.remaining[p] -= 1;
            let budget = u64::from(self.remaining[p]);
            let budget_at = local_at + self.locals.len();
            rehash(&mut self.fp_pair, budget_at + p, budget + 1, budget);
            self.seen.clear();
        }
        debug_assert_eq!(
            self.fp_pair,
            self.compute_pair(),
            "a step changed a state word other than its register, its \
             process's local fingerprint and its budget"
        );
        let revisit = self.seen.contains(&self.fp_pair);
        if !revisit {
            self.seen.push(self.fp_pair);
        }
        if revisit || self.trace.len() >= max_depth {
            self.livelocked = true;
        }
        (access, completed)
    }
}

/// One frontier unit: an unexpanded interior node of the schedule
/// tree, self-contained (state snapshot + sleep set + explorable
/// processes) so it expands without touching its siblings.
struct Unit {
    /// Boxed, so queueing, splitting off and recycling a unit moves a
    /// pointer instead of the run.
    run: Box<LiveRun>,
    /// The state-graph id of the run's state.
    state: u32,
    sleep: Vec<(usize, Access)>,
    /// The enabled processes not asleep here, as a mask; branches are
    /// taken lowest bit first.
    explorable: u64,
    /// Approximate bytes the unit holds (see
    /// [`LiveRun::footprint_bytes`]), taken when it is queued.
    bytes: usize,
}

impl Unit {
    fn new(run: Box<LiveRun>, state: u32, sleep: Vec<(usize, Access)>, explorable: u64) -> Self {
        let bytes = run.footprint_bytes() + sleep.len() * std::mem::size_of::<(usize, Access)>();
        Unit {
            run,
            state,
            sleep,
            explorable,
            bytes,
        }
    }
}

/// Steps `run`, whose state has graph id `*at`, by process `p` and
/// records the step: a new transition (and the state it reaches, with
/// the schedule that reached it) in `graph`, the depth in `stats`.
/// Moves `*at` to the reached state's id and returns the step's
/// shared-memory access.
fn record_step(
    graph: &mut StateGraph,
    stats: &mut ExploreStats,
    run: &mut LiveRun,
    at: &mut u32,
    p: usize,
    max_depth: usize,
) -> Access {
    let (access, completed) = run.step_raw(p, max_depth);
    stats.steps += 1;
    let (to, new) = graph.note_step(*at, run.fingerprint(), completed, run.trace());
    stats.transitions += u64::from(new);
    *at = to;
    stats.max_depth = stats.max_depth.max(run.trace().len());
    access
}

/// A frontier exploration in progress: everything expanding a unit
/// writes to, and the buffers it reuses from step to step.
struct Explorer<'a> {
    target: &'a CheckTarget,
    opts: &'a ExploreOptions,
    stats: ExploreStats,
    graph: StateGraph,
    violation: Option<Violation>,
    /// A LIFO stack of units keeps frontier memory near the depth-first
    /// footprint; chunks are taken from the top in queue order.
    frontier: Vec<Unit>,
    /// Bytes held by the snapshots of every live unit: the queued
    /// frontier plus the chunk being drained.
    held_bytes: usize,
    /// Runs that ended (terminal, livelocked or sleep-blocked). A
    /// sibling branch overwrites one instead of allocating a copy, so
    /// the list never holds more runs than were alive at once. The
    /// runs stay boxed: a recycled box becomes a unit's run without
    /// moving it.
    #[allow(clippy::vec_box)]
    spare: Vec<Box<LiveRun>>,
    /// The sleep set at the state being stepped from.
    sleep_now: Vec<(usize, Access)>,
    /// The sleep set being built for the state a step reaches; swapped
    /// with `sleep_now` on path compression.
    sleep_next: Vec<(usize, Access)>,
    /// The expanding unit's branches taken so far, with the access of
    /// each one's first step.
    explored: Vec<(usize, Access)>,
    lin: Linearizer,
}

impl Explorer<'_> {
    /// Keeps the minimal violation by `(schedule length, lexicographic
    /// schedule)` — an order-independent choice, so every candidate
    /// found before the stop lands on the same winner. The run's
    /// schedule and ops are copied only when it wins.
    fn consider_violation(&mut self, kind: ViolationKind, run: &LiveRun) {
        let schedule = run.trace();
        let wins = self.violation.as_ref().map_or(true, |best| {
            (schedule.len(), schedule) < (best.schedule.len(), best.schedule.as_slice())
        });
        if wins {
            self.violation = Some(Violation {
                kind,
                schedule: schedule.to_vec(),
                ops: run.ops().to_vec(),
            });
        }
    }

    /// A copy of `snapshot`, overwriting a spare run when there is one.
    fn copy_of(&mut self, snapshot: &LiveRun) -> Box<LiveRun> {
        match self.spare.pop() {
            Some(mut run) => {
                (*run).clone_from(snapshot);
                run
            }
            None => Box::new(snapshot.clone()),
        }
    }

    /// Expands one frontier unit: steps a copy of its snapshot once per
    /// explorable process (the last process steps the snapshot itself)
    /// and classifies the result — a leaf, a sleep-blocked state, or a
    /// new unit, pushed onto the frontier with the stepped run as its
    /// snapshot.
    ///
    /// Unary chains are *path-compressed*: while a reached state has
    /// exactly one explorable process, expansion keeps stepping the
    /// same live run instead of queueing a unit, which saves a snapshot
    /// clone and a frontier round trip per chain step.
    fn expand(&mut self, unit: Unit) {
        let Unit {
            run: snapshot,
            state,
            sleep,
            explorable,
            ..
        } = unit;
        let mut snapshot = Some(snapshot);
        self.explored.clear();
        for p in iter_bits(explorable) {
            let mut run = if explorable >> p == 1 {
                snapshot
                    .take()
                    .expect("only the last branch takes the snapshot")
            } else {
                let snapshot = snapshot.as_ref().expect("siblings branch before the last");
                self.copy_of(snapshot)
            };
            self.sleep_now.clear();
            self.sleep_now.extend_from_slice(&sleep);
            let mut next_p = p;
            let mut at = state;
            // Sibling sleepers apply to the first step only; compressed
            // chain steps have no siblings.
            let mut first = true;
            let ended = loop {
                let access = record_step(
                    &mut self.graph,
                    &mut self.stats,
                    &mut run,
                    &mut at,
                    next_p,
                    self.opts.max_depth,
                );
                if first {
                    self.explored.push((p, access));
                }
                if run.livelocked() {
                    self.stats.executions += 1;
                    // Blocking-by-design targets legitimately revisit
                    // states while waiting; the run is truncated, and
                    // liveness is judged by the fair-cycle audit on the
                    // merged graph.
                    if self.target.progress == Progress::LockFree {
                        self.consider_violation(ViolationKind::Livelock, &run);
                    }
                    break Some(run);
                }
                if run.is_terminal() {
                    self.stats.executions += 1;
                    if self.lin.check(run.spec(), run.ops()).is_none() {
                        self.consider_violation(ViolationKind::NotLinearizable, &run);
                    }
                    break Some(run);
                }
                // A sibling/inherited sleeper stays asleep only while the
                // executed step is independent of its pending access.
                let stepped = next_p;
                let mut asleep = 0u64;
                self.sleep_next.clear();
                if self.opts.prune {
                    let sibs = if first { self.explored.as_slice() } else { &[] };
                    for &(q, a) in self.sleep_now.iter().chain(sibs) {
                        if q != stepped && !a.conflicts_with(access) {
                            self.sleep_next.push((q, a));
                            asleep |= 1 << q;
                        }
                    }
                }
                std::mem::swap(&mut self.sleep_now, &mut self.sleep_next);
                let explorable = run.enabled() & !asleep;
                if explorable == 0 {
                    self.stats.sleep_blocked += 1;
                    break Some(run);
                }
                if explorable & (explorable - 1) == 0 {
                    // Path compression: continue inline.
                    next_p = explorable.trailing_zeros() as usize;
                    first = false;
                } else {
                    let child = Unit::new(run, at, self.sleep_now.clone(), explorable);
                    self.held_bytes += child.bytes;
                    self.frontier.push(child);
                    break None;
                }
            };
            self.spare.extend(ended);
        }
    }
}

/// Exhaustively explores `target` under `opts`.
pub fn explore(target: &CheckTarget, opts: &ExploreOptions) -> ExploreReport {
    let mut ex = Explorer {
        target,
        opts,
        stats: ExploreStats::default(),
        graph: StateGraph::default(),
        violation: None,
        frontier: Vec::new(),
        held_bytes: 0,
        spare: Vec::new(),
        sleep_now: Vec::new(),
        sleep_next: Vec::new(),
        explored: Vec::new(),
        lin: Linearizer::default(),
    };
    let root = Box::new(LiveRun::new(target.build()));
    let state = ex.graph.note_state(root.fingerprint(), &[]);
    if root.is_terminal() {
        ex.stats.executions = 1;
        if ex.lin.check(root.spec(), root.ops()).is_none() {
            ex.consider_violation(ViolationKind::NotLinearizable, &root);
        }
    } else {
        let explorable = root.enabled();
        let unit = Unit::new(root, state, Vec::new(), explorable);
        ex.held_bytes = unit.bytes;
        ex.frontier.push(unit);
    }

    while !ex.frontier.is_empty() {
        let take = ex.frontier.len().min(CHUNK);
        let chunk = ex.frontier.split_off(ex.frontier.len() - take);
        let chunk_bytes: usize = chunk.iter().map(|unit| unit.bytes).sum();
        for unit in chunk {
            ex.expand(unit);
        }
        ex.stats.units += take as u64;
        // The chunk's snapshots count as alive next to every child it
        // queued (an upper bound: a unit's last branch steps its own
        // snapshot).
        ex.stats.peak_frontier_units = ex
            .stats
            .peak_frontier_units
            .max((ex.frontier.len() + take) as u64);
        ex.stats.peak_frontier_bytes = ex.stats.peak_frontier_bytes.max(ex.held_bytes as u64);
        ex.held_bytes -= chunk_bytes;
        if ex.stats.executions >= opts.max_executions {
            ex.stats.capped = true;
            break;
        }
        if ex.violation.is_some() {
            break;
        }
    }
    ex.stats.distinct_states = ex.graph.state_count() as u64;
    ExploreReport {
        stats: ex.stats,
        violation: ex.violation,
        graph: ex.graph,
    }
}

/// The recursive depth-first explorer, kept as the replaying baseline
/// `exp_checker_bench` times the frontier explorer against (and as a
/// differential oracle in tests). Stops at the first violation in
/// depth-first order.
pub fn explore_recursive(target: &CheckTarget, opts: &ExploreOptions) -> ExploreReport {
    struct Rec<'t> {
        target: &'t CheckTarget,
        opts: ExploreOptions,
        stats: ExploreStats,
        graph: StateGraph,
        violation: Option<Violation>,
    }

    impl Rec<'_> {
        /// Replays `prefix` from a fresh build; returns the run and its
        /// state's graph id.
        fn execute(&mut self, prefix: &[usize]) -> (LiveRun, u32) {
            let mut run = LiveRun::new(self.target.build());
            let mut at = self.graph.note_state(run.fingerprint(), &[]);
            for &p in prefix {
                self.step(&mut run, &mut at, p);
            }
            (run, at)
        }

        fn step(&mut self, run: &mut LiveRun, at: &mut u32, p: usize) -> Access {
            record_step(
                &mut self.graph,
                &mut self.stats,
                run,
                at,
                p,
                self.opts.max_depth,
            )
        }

        fn record_violation(&mut self, kind: ViolationKind, run: &LiveRun) {
            if self.violation.is_none() {
                self.violation = Some(Violation {
                    kind,
                    schedule: run.trace().to_vec(),
                    ops: run.ops().to_vec(),
                });
            }
        }

        fn done(&self) -> bool {
            self.violation.is_some() || self.stats.executions >= self.opts.max_executions
        }

        fn dfs(&mut self, run: LiveRun, prefix: &mut Vec<usize>, sleep: &[(usize, Access)]) {
            if self.done() {
                return;
            }
            if run.livelocked() {
                self.stats.executions += 1;
                if self.target.progress == Progress::LockFree {
                    self.record_violation(ViolationKind::Livelock, &run);
                }
                return;
            }
            if run.is_terminal() {
                self.stats.executions += 1;
                if !lin::check(run.spec(), run.ops()).is_linearizable() {
                    self.record_violation(ViolationKind::NotLinearizable, &run);
                }
                return;
            }
            let mut explorable = run.enabled();
            if self.opts.prune {
                for &(q, _) in sleep {
                    explorable &= !(1 << q);
                }
            }
            if explorable == 0 {
                self.stats.sleep_blocked += 1;
                return;
            }
            drop(run); // each child re-executes from a fresh build
            let mut explored: Vec<(usize, Access)> = Vec::new();
            for p in iter_bits(explorable) {
                if self.done() {
                    return;
                }
                let (mut child, mut at) = self.execute(prefix);
                let access = self.step(&mut child, &mut at, p);
                let child_sleep: Vec<(usize, Access)> = sleep
                    .iter()
                    .chain(explored.iter())
                    .filter(|&&(q, a)| q != p && !a.conflicts_with(access))
                    .copied()
                    .collect();
                prefix.push(p);
                self.dfs(child, prefix, &child_sleep);
                prefix.pop();
                explored.push((p, access));
            }
        }
    }

    let mut ex = Rec {
        target,
        opts: opts.clone(),
        stats: ExploreStats::default(),
        graph: StateGraph::default(),
        violation: None,
    };
    let (run, _) = ex.execute(&[]);
    let mut prefix = Vec::new();
    ex.dfs(run, &mut prefix, &[]);
    ex.stats.distinct_states = ex.graph.state_count() as u64;
    if ex.stats.executions >= ex.opts.max_executions {
        ex.stats.capped = true;
    }
    ExploreReport {
        stats: ex.stats,
        violation: ex.violation,
        graph: ex.graph,
    }
}

/// Re-executes a schedule against a fresh build of `target`, best
/// effort: steps naming a disabled process are skipped, and if the run
/// is not terminal when the schedule ends it is completed round-robin.
/// Used by counterexample shrinking, where candidate schedules may be
/// arbitrary subsequences.
///
/// Returns the run (terminal or livelocked).
pub fn run_schedule(target: &CheckTarget, schedule: &[usize], max_depth: usize) -> LiveRun {
    let mut run = LiveRun::new(target.build());
    let n = run.procs.len();
    // The mask is empty once the run is livelocked or terminal.
    for &p in schedule {
        let enabled = run.enabled();
        if enabled == 0 {
            break;
        }
        if p < n && enabled >> p & 1 == 1 {
            let _ = run.step_raw(p, max_depth);
        }
    }
    let mut next = 0usize;
    loop {
        let enabled = run.enabled();
        if enabled == 0 {
            break;
        }
        if enabled >> (next % n) & 1 == 1 {
            let _ = run.step_raw(next % n, max_depth);
        }
        next += 1;
    }
    run
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::OpRecord;
    use crate::target::CheckConfig;
    use pwf_sim::memory::{fnv1a, RegisterId};
    use pwf_sim::process::{Process, StepOutcome};

    /// A two-step counter increment *with* CAS retry (correct).
    #[derive(Clone)]
    struct CasInc {
        reg: RegisterId,
        seen: Option<u64>,
        last: u64,
    }

    impl Process for CasInc {
        fn step(&mut self, mem: &mut SharedMemory) -> StepOutcome {
            match self.seen {
                None => {
                    self.seen = Some(mem.read(self.reg));
                    StepOutcome::Ongoing
                }
                Some(v) => {
                    if mem.cas(self.reg, v, v + 1) {
                        self.seen = None;
                        self.last = v;
                        StepOutcome::Completed
                    } else {
                        self.seen = None;
                        StepOutcome::Ongoing
                    }
                }
            }
        }

        fn name(&self) -> &'static str {
            "cas-inc"
        }
    }

    impl CheckProcess for CasInc {
        fn last_op(&self) -> OpRecord {
            OpRecord {
                name: "inc",
                input: None,
                output: Some(self.last),
            }
        }

        fn local_fingerprint(&self) -> u64 {
            fnv1a(7, &[self.seen.map_or(u64::MAX, |v| v)])
        }
    }

    fn cas_counter_config() -> CheckConfig {
        let mut mem = SharedMemory::new();
        let reg = mem.alloc(0);
        CheckConfig {
            mem,
            procs: (0..2)
                .map(|_| {
                    Box::new(CasInc {
                        reg,
                        seen: None,
                        last: 0,
                    }) as Box<dyn CheckProcess>
                })
                .collect(),
            spec: Spec::counter(),
            budgets: vec![1, 1],
        }
    }

    const CAS_COUNTER: CheckTarget = CheckTarget {
        name: "test-cas-counter",
        description: "two-step CAS counter, 2 procs x 1 op",
        expect_failure: false,
        progress: Progress::LockFree,
        build: cas_counter_config,
    };

    #[test]
    fn correct_cas_counter_has_no_violation() {
        let report = explore(&CAS_COUNTER, &ExploreOptions::default());
        assert!(report.violation.is_none());
        assert!(report.stats.executions > 0);
        assert!(!report.stats.capped);
    }

    #[test]
    fn pruned_exploration_examines_no_more_executions_than_naive() {
        let naive = explore(
            &CAS_COUNTER,
            &ExploreOptions {
                prune: false,
                ..ExploreOptions::default()
            },
        );
        let pruned = explore(&CAS_COUNTER, &ExploreOptions::default());
        assert!(naive.violation.is_none());
        assert!(pruned.violation.is_none());
        assert!(pruned.stats.executions <= naive.stats.executions);
        assert!(pruned.stats.distinct_states <= naive.stats.distinct_states);
    }

    #[test]
    fn frontier_explorer_matches_the_recursive_baseline_on_clean_targets() {
        // At the shipped options both walk the identical
        // sleep-set-pruned tree, one from snapshots and one by replaying
        // every prefix. stack-n3 is left out: its recursive run alone
        // takes seconds.
        let opts = ExploreOptions::default();
        let targets = crate::targets::registry()
            .into_iter()
            .filter(|t| !t.expect_failure && t.name != "stack-n3");
        for target in std::iter::once(CAS_COUNTER).chain(targets) {
            let frontier = explore(&target, &opts);
            let recursive = explore_recursive(&target, &opts);
            let (f, r) = (&frontier.stats, &recursive.stats);
            let name = target.name;
            assert_eq!(f.executions, r.executions, "{name}");
            assert_eq!(f.sleep_blocked, r.sleep_blocked, "{name}");
            assert_eq!(f.transitions, r.transitions, "{name}");
            assert_eq!(f.distinct_states, r.distinct_states, "{name}");
            assert_eq!(f.max_depth, r.max_depth, "{name}");
            // Not just as many transitions: the same ones.
            assert_eq!(
                frontier.graph.edge_list(),
                recursive.graph.edge_list(),
                "{name}"
            );
        }
    }

    /// A process that never completes: each step reads its register and
    /// advances a local counter modulo `period`, so a solo run revisits
    /// its first state after exactly `period` steps.
    #[derive(Clone)]
    struct Cycler {
        reg: RegisterId,
        at: u64,
        period: u64,
    }

    impl Process for Cycler {
        fn step(&mut self, mem: &mut SharedMemory) -> StepOutcome {
            let _ = mem.read(self.reg);
            self.at = (self.at + 1) % self.period;
            StepOutcome::Ongoing
        }

        fn name(&self) -> &'static str {
            "cycler"
        }
    }

    impl CheckProcess for Cycler {
        fn last_op(&self) -> OpRecord {
            unreachable!("a cycler never completes an operation")
        }

        fn local_fingerprint(&self) -> u64 {
            self.at
        }
    }

    const PERIOD: u64 = 300;

    fn cycler_config() -> CheckConfig {
        let mut mem = SharedMemory::new();
        let reg = mem.alloc(0);
        CheckConfig {
            mem,
            procs: vec![Box::new(Cycler {
                reg,
                at: 0,
                period: PERIOD,
            })],
            spec: Spec::counter(),
            budgets: vec![1],
        }
    }

    #[test]
    fn a_long_completion_free_segment_is_reported_as_a_livelock() {
        // Every state of the 300-step segment stays in `seen` until the
        // run returns to its first state.
        let cycler = CheckTarget {
            name: "test-cycler",
            description: "one process cycling through 300 completion-free states",
            expect_failure: true,
            progress: Progress::LockFree,
            build: cycler_config,
        };
        let mut run = LiveRun::new(cycler.build());
        for _ in 1..PERIOD {
            let _ = run.step_raw(0, 4_096);
            assert!(!run.livelocked());
        }
        let _ = run.step_raw(0, 4_096);
        assert!(run.livelocked());
        assert_eq!(run.seen.len(), PERIOD as usize);
        let report = explore(&cycler, &ExploreOptions::default());
        let v = report.violation.expect("the cycle is a livelock");
        assert_eq!(v.kind, ViolationKind::Livelock);
        assert_eq!(v.schedule, vec![0; PERIOD as usize]);
        assert_eq!(report.stats.transitions, PERIOD);
        assert_eq!(report.stats.distinct_states, PERIOD);
        // The segment is one completion-free bottom component; its
        // witness is the state the empty prefix reaches.
        let witness = report
            .graph
            .fair_livelock()
            .expect("no exit from the cycle");
        assert_eq!(report.graph.witness_prefix(witness), Some(&[][..]));

        // The shipped spinning mutants: a lock-free target's spinner
        // is a livelock, and two spinners' self-loops from one state
        // are a single transition.
        let livelock = explore(
            &crate::targets::find("livelock-mutant").unwrap(),
            &ExploreOptions::default(),
        );
        let v = livelock.violation.expect("livelock-mutant is caught");
        assert_eq!((v.kind, v.schedule), (ViolationKind::Livelock, vec![1]));
        let spinners = explore(
            &crate::targets::find("spinner-pair-mutant").unwrap(),
            &ExploreOptions::default(),
        );
        assert!(spinners.violation.is_none(), "blocking by design");
        assert_eq!(
            (spinners.stats.executions, spinners.stats.transitions),
            (2, 1)
        );
        assert!(spinners.graph.fair_livelock().is_some());
    }

    /// A schedule of at most `len` steps from a fresh build: at step
    /// `i`, the first enabled process at or after `pick(i) % n`.
    fn fixed_schedule(target: &CheckTarget, pick: impl Fn(usize) -> usize) -> Vec<usize> {
        let mut run = LiveRun::new(target.build());
        let n = run.procs.len();
        let mut i = 0;
        while i < 40 && run.enabled() != 0 {
            let enabled = run.enabled();
            let p = (0..n)
                .map(|d| (pick(i) + d) % n)
                .find(|&p| enabled >> p & 1 == 1)
                .expect("some process is enabled");
            let _ = run.step_raw(p, 4_096);
            i += 1;
        }
        run.trace
    }

    fn replayed(target: &CheckTarget, schedule: &[usize]) -> LiveRun {
        let mut run = LiveRun::new(target.build());
        for &p in schedule {
            let _ = run.step_raw(p, 4_096);
        }
        run
    }

    type Observed = (
        (u64, u64),
        Vec<Option<u64>>,
        Vec<usize>,
        Vec<TimedOp>,
        bool,
        Vec<(u64, u64)>,
    );

    fn observe(run: &LiveRun) -> Observed {
        (
            run.fingerprint_pair(),
            run.op_start.clone(),
            run.trace().to_vec(),
            run.ops().to_vec(),
            run.livelocked(),
            run.seen.clone(),
        )
    }

    /// Steps the last process alone, at most 8 times while it is
    /// enabled. On `stack-aba-scenario` these are process 1's two pops,
    /// which leave it holding two popped nodes where a fresh build holds
    /// none.
    fn solo_last(target: &CheckTarget) -> LiveRun {
        let mut run = LiveRun::new(target.build());
        let last = run.procs.len() - 1;
        for _ in 0..8 {
            if run.enabled() >> last & 1 == 1 {
                let _ = run.step_raw(last, 4_096);
            }
        }
        run
    }

    #[test]
    fn snapshot_runs_match_replay_from_a_fresh_build() {
        let picks: [fn(usize) -> usize; 3] =
            [|i| i, |i| usize::MAX - i, |i| mix64(i as u64) as usize];
        let registry = crate::targets::registry();
        let mut spares_with_ops = 0;
        for (t, target) in registry.iter().enumerate() {
            // A run of the next target in the registry: overwriting its
            // processes where their concrete type differs takes the
            // fresh-box fallback, and its register file and process
            // list have other lengths.
            let other = &registry[(t + 1) % registry.len()];
            let foreign = replayed(other, &fixed_schedule(other, |i| i));
            for pick in picks {
                let schedule = fixed_schedule(target, pick);
                let reference = observe(&replayed(target, &schedule));
                // Recycled runs are overwritten from: a longer
                // schedule's run, flagged livelocked, with completed ops
                // and a populated `seen` set; a solo run whose stack
                // processes hold a different number of popped nodes;
                // and the foreign run.
                let mut ended = replayed(target, &schedule);
                ended.livelocked = true;
                spares_with_ops += usize::from(!ended.ops().is_empty());
                assert!(!ended.seen.is_empty());
                let spares = [ended, solo_last(target), foreign.clone()];
                for k in [0, schedule.len() / 2, schedule.len()] {
                    let mut original = replayed(target, &schedule[..k]);
                    let before = observe(&original);
                    let mut snapshot = original.clone();
                    let mut recycled: Vec<LiveRun> = spares
                        .iter()
                        .map(|spare| {
                            let mut run = spare.clone();
                            run.clone_from(&original);
                            run
                        })
                        .collect();
                    let at = format!("{} at step {k} of {schedule:?}", target.name);
                    for run in &recycled {
                        assert_eq!(observe(run), before, "{at}");
                    }
                    for &p in &schedule[k..] {
                        let _ = snapshot.step_raw(p, 4_096);
                        for run in &mut recycled {
                            let _ = run.step_raw(p, 4_096);
                        }
                    }
                    assert_eq!(observe(&snapshot), reference, "{at}");
                    for run in &recycled {
                        assert_eq!(observe(run), reference, "{at}");
                    }
                    // The snapshot shares no mutable state: the
                    // original is untouched and still finishes alike.
                    assert_eq!(observe(&original), before, "{at}");
                    for &p in &schedule[k..] {
                        let _ = original.step_raw(p, 4_096);
                    }
                    assert_eq!(observe(&original), reference, "{at}");
                }
            }
        }
        assert!(spares_with_ops > 0, "some spare run completed an op");
    }

    #[test]
    fn verify_hash_is_independent_of_the_primary() {
        // Not a proof of independence, but the two hashes must at least
        // disagree on trivial inputs, term by term, and both must be
        // order-sensitive.
        let hash = |words: &[u64]| hash_words(words.iter().copied());
        let (h, v) = hash(&[0]);
        assert_ne!(h, v);
        for i in 0..64 {
            for w in [0, 1, u64::MAX, mix64(i as u64)] {
                let (a, b) = terms(i, w);
                assert_ne!(a, b, "word {w} at {i}");
            }
        }
        // Both sums key their terms by position: unequal words that
        // swap places, apart or adjacent, change both.
        for (x, y) in [
            (&[1, 2][..], &[2, 1][..]),
            (&[5, 0, 9], &[9, 0, 5]),
            (&[0, 7, 3, 0], &[0, 3, 7, 0]),
        ] {
            assert_ne!(hash(x).0, hash(y).0, "{x:?}");
            assert_ne!(hash(x).1, hash(y).1, "{x:?}");
        }
    }

    #[test]
    fn rehashing_one_word_matches_hashing_from_scratch() {
        let mut words: Vec<u64> = (0..17).map(|i| mix64(i) >> (i % 40)).collect();
        let mut pair = hash(&words);
        for step in 0..200u64 {
            let i = (mix64(step) % 17) as usize;
            let new = if step % 3 == 0 {
                words[i]
            } else {
                mix64(!step)
            };
            rehash(&mut pair, i, words[i], new);
            words[i] = new;
            assert_eq!(pair, hash(&words), "after step {step}");
        }

        fn hash(words: &[u64]) -> (u64, u64) {
            hash_words(words.iter().copied())
        }
    }

    /// The fingerprint pair of `run` hashed from scratch, with every
    /// local fingerprint recomputed from its process instead of read
    /// from `locals`.
    fn pair_recomputed(run: &LiveRun) -> (u64, u64) {
        let words = run
            .mem
            .registers()
            .iter()
            .copied()
            .chain(run.procs.iter().map(|p| p.local_fingerprint()))
            .chain(run.remaining.iter().map(|&r| u64::from(r)));
        hash_words(words)
    }

    #[test]
    fn cached_local_fingerprints_match_a_recomputation_after_every_step() {
        let picks: [fn(usize) -> usize; 3] =
            [|i| i, |i| usize::MAX - i, |i| mix64(i as u64) as usize];
        for target in crate::targets::registry() {
            for pick in picks {
                let schedule = fixed_schedule(&target, pick);
                let mut run = LiveRun::new(target.build());
                assert_eq!(run.fingerprint_pair(), pair_recomputed(&run));
                for (i, &p) in schedule.iter().enumerate() {
                    let _ = run.step_raw(p, 4_096);
                    let at = format!("{} after step {i} of {schedule:?}", target.name);
                    assert_eq!(run.regs, run.mem.registers(), "{at}");
                    assert_eq!(run.fingerprint_pair(), pair_recomputed(&run), "{at}");
                }
            }
        }
    }

    #[test]
    fn run_schedule_completes_partial_schedules() {
        let run = run_schedule(&CAS_COUNTER, &[0], 1_000);
        assert!(run.is_terminal());
        assert_eq!(run.ops().len(), 2);
    }
}
