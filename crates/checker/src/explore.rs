//! Exhaustive schedule exploration with sleep-set dynamic
//! partial-order reduction, drained on one thread from a deterministic
//! frontier.
//!
//! The explorer drives a [`CheckTarget`] through every inequivalent
//! interleaving of its (budget-bounded) processes. Exploration is
//! *stateful*: the configuration is built once, and every frontier
//! unit carries a snapshot of the state it reached (a [`LiveRun`],
//! whose processes clone through [`CheckProcess::clone_box`]). Expanding
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
//! ## Chunked draining
//!
//! The frontier is a LIFO stack of self-contained *units* — a snapshot
//! of a reached state plus the sleep set and explorable process list
//! there. Units are drained in fixed-size chunks of 256: every
//! unit of a chunk is expanded against the cache as it stood when the
//! chunk began (the cache is frozen during a chunk), and a merge pass
//! then folds the outcomes — stats, state-graph edges, cache inserts,
//! child units, violation selection — in unit order. Exploration runs
//! on the caller's thread: a work-stealing pool once drained each
//! chunk, but per-chunk spawns and the workers' doubled clone and step
//! costs made a pass slower at two workers than at one, so the pool
//! was removed. [`ExploreOptions::jobs`] is accepted and ignored.
//!
//! Violations are selected order-independently: exploration stops at
//! chunk granularity once a chunk yields a violation, and the winner
//! is the minimum by `(schedule length, schedule lexicographic)` among
//! all candidates found so far.
//!
//! ## The shared state cache
//!
//! Units from different prefixes can converge on equivalent
//! configurations. The shared cache ([`crate::cache`]) records every
//! state committed for expansion under a key covering the full state
//! fingerprint, an independent verification hash (collision guard),
//! the operation-history fingerprint (completed ops with their
//! invoke/response times, plus pending invocation times), the sleep
//! set, and the depth. Agreement on all five means the subtrees are
//! step-for-step identical — same histories, same verdicts — except
//! for per-run livelock truncation points, which depend on the run's
//! own path; there, any terminal history reached through a revisited
//! cycle is also reached by the retained instance with the cycle cut
//! (cutting a completion-free cycle shifts later events uniformly and
//! preserves every precedence relation, hence the linearizability
//! verdict). So a cache hit prunes a redundant subtree, never a
//! verdict-bearing one.
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
//! Fingerprints are 64-bit, so a hash collision could in principle
//! misreport; the run-local `seen` table and the shared cache both key
//! on a *pair* of independent 64-bit hashes, so a single-hash
//! collision cannot suppress or fabricate a result, and every reported
//! schedule replays deterministically for confirmation.
//!
//! ## Step hashing
//!
//! Both hashes fold the same state words: every register, every
//! process's local fingerprint, every remaining budget. A step mutates
//! only the stepping process and shared memory (processes are plain
//! data), so a run caches each process's
//! [`CheckProcess::local_fingerprint`] and refreshes only the stepping
//! process's entry; folding the words then costs one multiply-xorshift
//! step (primary) and one SplitMix avalanche step (verification) per
//! word.

use pwf_rng::mix64;
use pwf_sim::memory::{fnv1a, Access, AccessKind, SharedMemory};
use pwf_sim::process::ProcessId;
use std::sync::Arc;

use crate::audit::StateGraph;
use crate::cache::{SharedCache, StateKey};
use crate::lin;
use crate::op::TimedOp;
use crate::spec::Spec;
use crate::target::{CheckProcess, CheckTarget, Progress};

/// Units expanded per round against the frozen cache. The chunk bounds
/// which sibling states see each other's cache inserts, so it fixes
/// `cache_hits`, `units` and `executions`; changing it changes reports.
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
    /// Cross-schedule shared state cache (only effective with `prune`;
    /// the naive baseline must re-enumerate everything).
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
    /// Subtrees pruned because an equivalent state was already
    /// committed for expansion (shared-cache hits).
    pub cache_hits: u64,
    /// States newly committed to the shared cache.
    pub cache_misses: u64,
    /// Primary-fingerprint cache hits rejected by the verification
    /// components (the collision guard firing).
    pub collisions_averted: u64,
    /// Always 0: kept for callers that read it from the removed
    /// work-stealing pool.
    pub steals: u64,
    /// Most frontier units alive at once (queued plus the chunk being
    /// drained); each holds a snapshot of its reached state.
    pub peak_frontier_units: u64,
    /// Most bytes those snapshots held at once: each run's fields and
    /// the heap behind them, not counting heap owned inside a process.
    pub peak_frontier_bytes: u64,
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
        let violation = match &self.violation {
            None => "null".to_string(),
            Some(v) => {
                let kind = match v.kind {
                    ViolationKind::NotLinearizable => "not-linearizable",
                    ViolationKind::Livelock => "livelock",
                };
                let sched: Vec<String> = v.schedule.iter().map(usize::to_string).collect();
                format!("{{\"kind\":\"{kind}\",\"schedule\":[{}]}}", sched.join(","))
            }
        };
        format!(
            concat!(
                "{{\"target\":\"{}\",\"stats\":{{",
                "\"executions\":{},\"sleep_blocked\":{},\"transitions\":{},",
                "\"distinct_states\":{},\"max_depth\":{},\"capped\":{},",
                "\"units\":{},\"cache_hits\":{},\"cache_misses\":{},",
                "\"collisions_averted\":{}}},\"violation\":{}}}"
            ),
            target,
            s.executions,
            s.sleep_blocked,
            s.transitions,
            s.distinct_states,
            s.max_depth,
            s.capped,
            s.units,
            s.cache_hits,
            s.cache_misses,
            s.collisions_averted,
            violation
        )
    }
}

/// Seed of the primary state fingerprint.
const FP_SEED: u64 = 0x9D89_5A4B;
/// Seed of [`verify_word`] over the state words.
const VERIFY_SEED: u64 = 0x9E37_79B9_7F4A_7C15;

/// Folds one state word into the primary fingerprint: a
/// multiply-xorshift step, bijective in `w` for a fixed `h`, so states
/// differing in one word never collide. [`LiveRun::compute_pair`]
/// finalises the fold with [`mix64`].
fn primary_word(h: u64, w: u64) -> u64 {
    let h = (h ^ w).wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^ (h >> 29)
}

/// Folds one state word into the independent verification hash: a
/// SplitMix64-style avalanche chain. Two configurations colliding
/// under *both* hashes at once is the collision guard's residual risk
/// (~2⁻¹²⁸ per pair).
fn verify_word(h: u64, w: u64) -> u64 {
    mix64(h ^ mix64(w.wrapping_add(0xA076_1D64_78BD_642F)))
}

/// Canonical fingerprint of a sleep set: entries are encoded and
/// sorted, so equal *sets* built in different orders agree.
fn sleep_fingerprint(sleep: &[(usize, Access)]) -> u64 {
    let mut words: Vec<u64> = sleep
        .iter()
        .map(|&(q, a)| {
            let kind = match a.kind {
                AccessKind::Read => 0u64,
                AccessKind::Write => 1,
                AccessKind::CasSuccess => 2,
                AccessKind::CasFailure => 3,
            };
            ((q as u64) << 40) | ((a.register.index() as u64) << 2) | kind
        })
        .collect();
    words.sort_unstable();
    fnv1a(0x51EE_9CE7, &words)
}

/// One in-flight execution of a configuration. Cloning a run snapshots
/// its state: the clone steps independently of the original.
#[derive(Clone)]
pub struct LiveRun {
    mem: SharedMemory,
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
    /// since its last completion, sorted: a set that snapshots with one
    /// copy. A completion lowers a budget, which the state words
    /// include, so no later state can equal an earlier one. Keying on
    /// the pair means a single-hash collision cannot forge a revisit
    /// (phantom livelock) — both independent hashes would have to
    /// collide at once.
    seen: Vec<(u64, u64)>,
    livelocked: bool,
    /// Cached fingerprint pair of the current state (recomputed once
    /// per step from the cached state words).
    fp_pair: (u64, u64),
    /// Running fingerprint of the completed-operation history,
    /// maintained incrementally; equals
    /// [`lin::ops_fingerprint`]`(self.ops())` at all times.
    ops_fp: u64,
}

impl LiveRun {
    /// Starts a run from a freshly built configuration.
    pub fn new(cfg: crate::target::CheckConfig) -> Self {
        let n = cfg.procs.len();
        assert_eq!(cfg.budgets.len(), n, "one budget per process");
        let mut run = LiveRun {
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
            ops_fp: 0x1000_0001,
        };
        run.fp_pair = run.compute_pair();
        run.seen.push(run.fp_pair);
        run
    }

    /// Streams the state words — every register, every process's
    /// cached local fingerprint, the remaining budgets — through both
    /// hashes, one word at a time.
    fn compute_pair(&self) -> (u64, u64) {
        let words = self
            .mem
            .registers()
            .iter()
            .chain(&self.locals)
            .copied()
            .chain(self.remaining.iter().map(|&r| u64::from(r)));
        let (h, v) = words.fold((FP_SEED, VERIFY_SEED), |(h, v), w| {
            (primary_word(h, w), verify_word(v, w))
        });
        (mix64(h), v)
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

    /// Fingerprint of the operation history so far: completed ops with
    /// their invoke/response times, plus the pending invocation times.
    pub fn history_fingerprint(&self) -> u64 {
        self.op_start
            .iter()
            .fold(self.ops_fp, |h, s| fnv1a(h, &[s.map_or(u64::MAX, |v| v)]))
    }

    /// Indices of processes that may still step.
    pub fn enabled(&self) -> Vec<usize> {
        if self.livelocked {
            return Vec::new();
        }
        (0..self.procs.len())
            .filter(|&i| self.remaining[i] > 0)
            .collect()
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
    /// behind them (register file, process boxes, budgets, trace, ops,
    /// and the `seen` set). Heap owned inside a process, such as a
    /// stack process's recycled nodes, is not counted.
    fn footprint_bytes(&self) -> usize {
        use std::mem::{size_of, size_of_val};
        let procs: usize = self
            .procs
            .iter()
            .map(|p| size_of::<Box<dyn CheckProcess>>() + size_of_val(&**p))
            .sum();
        size_of::<Self>()
            + procs
            + (self.mem.register_count() + self.locals.len()) * size_of::<u64>()
            + self.remaining.len() * size_of::<u32>()
            + self.trace.len() * size_of::<usize>()
            + self.ops.len() * size_of::<TimedOp>()
            + self.op_start.len() * size_of::<Option<u64>>()
            + self.seen.len() * size_of::<(u64, u64)>()
    }

    /// Steps process `p` once; returns its shared-memory access and
    /// whether the step completed an operation.
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
        self.locals[p] = self.procs[p].local_fingerprint();
        let access = self
            .mem
            .last_access()
            .expect("every process step issues one shared-memory access");
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
            self.ops_fp = fold_op(self.ops_fp, &timed);
            self.ops.push(timed);
            self.remaining[p] -= 1;
            self.seen.clear();
        }
        self.fp_pair = self.compute_pair();
        let revisit = match self.seen.binary_search(&self.fp_pair) {
            Ok(_) => true,
            Err(i) => {
                self.seen.insert(i, self.fp_pair);
                false
            }
        };
        if revisit || self.trace.len() >= max_depth {
            self.livelocked = true;
        }
        (access, completed)
    }
}

/// Folds one completed operation into the running history fingerprint
/// — the incremental form of [`lin::ops_fingerprint`].
fn fold_op(h: u64, op: &TimedOp) -> u64 {
    let name_hash = op
        .record
        .name
        .bytes()
        .fold(0, |h, b| fnv1a(h, &[u64::from(b)]));
    fnv1a(
        h,
        &[
            op.process.index() as u64,
            op.invoke,
            op.response,
            name_hash,
            op.record.input.map_or(u64::MAX, |v| v),
            op.record.output.map_or(u64::MAX, |v| v),
        ],
    )
}

/// One frontier unit: an unexpanded interior node of the schedule
/// tree, self-contained (state snapshot + sleep set + explorable
/// processes) so it expands without touching its siblings.
struct Unit {
    run: LiveRun,
    sleep: Vec<(usize, Access)>,
    explorable: Vec<usize>,
}

impl Unit {
    /// Approximate bytes the unit holds (see [`LiveRun::footprint_bytes`]).
    fn footprint_bytes(&self) -> usize {
        self.run.footprint_bytes()
            + self.sleep.len() * std::mem::size_of::<(usize, Access)>()
            + self.explorable.len() * std::mem::size_of::<usize>()
    }
}

/// Everything a unit expansion produces, merged in unit order by
/// [`explore_seeded`] once its whole chunk is expanded.
#[derive(Default)]
struct UnitOutcome {
    executions: u64,
    sleep_blocked: u64,
    max_depth: usize,
    frozen_hits: u64,
    violation: Option<Violation>,
    /// `(from, to, completed)` for each child step taken, in step order.
    edges: Vec<(u64, u64, bool)>,
    /// One trace per compressed chain, with the end (exclusive) of its
    /// steps in `edges`: the chain's steps are the last steps of its
    /// trace, so the state its `k`-th last step reached was first
    /// reached by the trace minus its last `k - 1` steps.
    chains: Vec<(usize, Vec<usize>)>,
    /// Interior children to queue, with their cache keys.
    children: Vec<(StateKey, Unit)>,
}

/// Keeps the minimal violation by `(schedule length, lexicographic
/// schedule)` — an order-independent choice, so every candidate found
/// before the stop lands on the same winner.
fn consider_violation(best: &mut Option<Violation>, candidate: Option<Violation>) {
    let Some(c) = candidate else { return };
    match best {
        None => *best = Some(c),
        Some(b) => {
            if (c.schedule.len(), &c.schedule) < (b.schedule.len(), &b.schedule) {
                *best = Some(c);
            }
        }
    }
}

/// Expands one frontier unit: steps a copy of its snapshot once per
/// explorable process (the last process steps the snapshot itself) and
/// classifies the result (leaf, sleep-blocked, cache-pruned, or a new
/// unit carrying the stepped run as its snapshot). Reads the frozen
/// cache; never writes it.
///
/// Unary chains are *path-compressed*: while a reached state has
/// exactly one explorable process, expansion keeps stepping the same
/// live run instead of queueing a unit, which saves a snapshot clone,
/// a cache probe and a frontier round trip per chain step. Compressed
/// states never enter the frontier, so they are neither cache-checked
/// nor cache-inserted; the decision depends only on the unit itself,
/// keeping expansion deterministic.
fn expand(
    target: &CheckTarget,
    opts: &ExploreOptions,
    cache: Option<&SharedCache>,
    unit: Unit,
) -> UnitOutcome {
    let mut out = UnitOutcome::default();
    let mut explored: Vec<(usize, Access)> = Vec::new();
    let last = unit.explorable.len().saturating_sub(1);
    let mut snapshot = Some(unit.run);
    for (i, &p) in unit.explorable.iter().enumerate() {
        let mut run = if i == last {
            snapshot.take()
        } else {
            snapshot.clone()
        }
        .expect("only the last branch takes the snapshot");
        let mut sleep_now = unit.sleep.clone();
        let mut next_p = p;
        // Sibling sleepers apply to the first step only; compressed
        // chain steps have no siblings.
        let mut first = true;
        let child = loop {
            let from = run.fingerprint();
            let (access, completed) = run.step_raw(next_p, opts.max_depth);
            let to = run.fingerprint();
            out.edges.push((from, to, completed));
            out.max_depth = out.max_depth.max(run.trace().len());
            if first {
                explored.push((p, access));
            }
            if run.livelocked() {
                out.executions += 1;
                // Blocking-by-design targets legitimately revisit
                // states while waiting; the run is truncated, and
                // liveness is judged by the fair-cycle audit on the
                // merged graph.
                if target.progress == Progress::LockFree {
                    consider_violation(
                        &mut out.violation,
                        Some(Violation {
                            kind: ViolationKind::Livelock,
                            schedule: run.trace().to_vec(),
                            ops: run.ops().to_vec(),
                        }),
                    );
                }
                break None;
            }
            if run.is_terminal() {
                out.executions += 1;
                if !lin::check(run.spec(), run.ops()).is_linearizable() {
                    consider_violation(
                        &mut out.violation,
                        Some(Violation {
                            kind: ViolationKind::NotLinearizable,
                            schedule: run.trace().to_vec(),
                            ops: run.ops().to_vec(),
                        }),
                    );
                }
                break None;
            }
            // A sibling/inherited sleeper stays asleep only while the
            // executed step is independent of its pending access.
            let stepped = next_p;
            let child_sleep: Vec<(usize, Access)> = if opts.prune {
                let sibs = if first { explored.as_slice() } else { &[] };
                sleep_now
                    .iter()
                    .chain(sibs.iter())
                    .filter(|&&(q, a)| q != stepped && !a.conflicts_with(access))
                    .copied()
                    .collect()
            } else {
                Vec::new()
            };
            let explorable: Vec<usize> = run
                .enabled()
                .into_iter()
                .filter(|e| !child_sleep.iter().any(|&(q, _)| q == *e))
                .collect();
            match explorable.as_slice() {
                [] => {
                    out.sleep_blocked += 1;
                    break None;
                }
                [only] => {
                    // Path compression: continue inline.
                    next_p = *only;
                    sleep_now = child_sleep;
                    first = false;
                }
                _ => {
                    let (state, verify) = run.fingerprint_pair();
                    let key = StateKey {
                        state,
                        verify,
                        ops: run.history_fingerprint(),
                        sleep: sleep_fingerprint(&child_sleep),
                        depth: run.trace().len() as u32,
                    };
                    if cache.is_some_and(|c| c.contains(&key)) {
                        out.frozen_hits += 1;
                        break None;
                    }
                    break Some((key, child_sleep, explorable));
                }
            }
        };
        out.chains.push((out.edges.len(), run.trace().to_vec()));
        if let Some((key, sleep, explorable)) = child {
            out.children.push((
                key,
                Unit {
                    run,
                    sleep,
                    explorable,
                },
            ));
        }
    }
    out
}

/// Exhaustively explores `target` under `opts`.
pub fn explore(target: &CheckTarget, opts: &ExploreOptions) -> ExploreReport {
    explore_seeded(target, opts, &SharedCache::new())
}

/// [`explore`] with a caller-supplied cache. Normal callers want a
/// fresh cache per exploration; the forged-collision regression test
/// pre-poisons one to prove the guard holds.
pub fn explore_seeded(
    target: &CheckTarget,
    opts: &ExploreOptions,
    cache: &SharedCache,
) -> ExploreReport {
    let mut stats = ExploreStats::default();
    let mut graph = StateGraph::default();
    let mut violation: Option<Violation> = None;
    // The cache is a pruning layer on top of the reduction; the naive
    // baseline must enumerate everything, so `prune: false` disables
    // it too.
    let cache_on = opts.cache && opts.prune;

    let root = LiveRun::new(target.build());
    graph.note_state(root.fingerprint(), &[]);
    // A LIFO stack of units keeps frontier memory near the depth-first
    // footprint; chunks are taken from the top in queue order.
    let mut frontier: Vec<Unit> = Vec::new();
    // Bytes held by the snapshots of every live unit: the queued
    // frontier plus the chunk being drained.
    let mut held_bytes = 0usize;
    if root.is_terminal() {
        stats.executions = 1;
        if !lin::check(root.spec(), root.ops()).is_linearizable() {
            violation = Some(Violation {
                kind: ViolationKind::NotLinearizable,
                schedule: Vec::new(),
                ops: root.ops().to_vec(),
            });
        }
    } else {
        let unit = Unit {
            explorable: root.enabled(),
            run: root,
            sleep: Vec::new(),
        };
        held_bytes = unit.footprint_bytes();
        frontier.push(unit);
    }

    while !frontier.is_empty() {
        let take = frontier.len().min(CHUNK);
        let chunk: Vec<Unit> = frontier.split_off(frontier.len() - take);
        let chunk_bytes: usize = chunk.iter().map(Unit::footprint_bytes).sum();
        // Expand the whole chunk before merging any of it: no unit sees
        // a cache insert made by a sibling in the same chunk.
        let outcomes: Vec<UnitOutcome> = chunk
            .into_iter()
            .map(|u| expand(target, opts, cache_on.then_some(cache), u))
            .collect();
        stats.units += take as u64;
        // Merge in unit order.
        for out in outcomes {
            stats.executions += out.executions;
            stats.sleep_blocked += out.sleep_blocked;
            stats.max_depth = stats.max_depth.max(out.max_depth);
            stats.cache_hits += out.frozen_hits;
            let mut start = 0;
            for (end, trace) in &out.chains {
                let first_depth = trace.len() + start + 1 - end;
                for (depth, &(from, to, completed)) in (first_depth..).zip(&out.edges[start..*end])
                {
                    // A known edge's target state was noted with it.
                    if graph.note_edge(from, to, completed) {
                        stats.transitions += 1;
                        graph.note_state(to, &trace[..depth]);
                    }
                }
                start = *end;
            }
            consider_violation(&mut violation, out.violation);
            for (key, unit) in out.children {
                if cache_on {
                    if cache.insert(key) {
                        stats.cache_misses += 1;
                        held_bytes += unit.footprint_bytes();
                        frontier.push(unit);
                    } else {
                        // A sibling in this same chunk already queued
                        // an equivalent state.
                        stats.cache_hits += 1;
                    }
                } else {
                    held_bytes += unit.footprint_bytes();
                    frontier.push(unit);
                }
            }
        }
        // The chunk's snapshots count as alive next to every child it
        // queued (an upper bound: a unit's last branch steps its own
        // snapshot).
        stats.peak_frontier_units = stats
            .peak_frontier_units
            .max((frontier.len() + take) as u64);
        stats.peak_frontier_bytes = stats.peak_frontier_bytes.max(held_bytes as u64);
        held_bytes -= chunk_bytes;
        if stats.executions >= opts.max_executions {
            stats.capped = true;
            break;
        }
        if violation.is_some() {
            break;
        }
    }
    stats.distinct_states = graph.state_count() as u64;
    stats.collisions_averted = cache.collisions_averted();
    ExploreReport {
        stats,
        violation,
        graph,
    }
}

/// The recursive depth-first explorer, kept as the replaying baseline
/// `exp_checker_bench` times the frontier explorer against (and as a
/// differential oracle in tests). Stops at the first violation in
/// depth-first order; takes no cache.
pub fn explore_recursive(target: &CheckTarget, opts: &ExploreOptions) -> ExploreReport {
    struct Rec<'t> {
        target: &'t CheckTarget,
        opts: ExploreOptions,
        stats: ExploreStats,
        graph: StateGraph,
        violation: Option<Violation>,
    }

    impl Rec<'_> {
        fn execute(&mut self, prefix: &[usize]) -> LiveRun {
            let mut run = LiveRun::new(self.target.build());
            self.graph.note_state(run.fingerprint(), &[]);
            for &p in prefix {
                self.step(&mut run, p);
            }
            run
        }

        fn step(&mut self, run: &mut LiveRun, p: usize) -> Access {
            let from = run.fingerprint();
            let (access, completed) = run.step_raw(p, self.opts.max_depth);
            let to = run.fingerprint();
            if self.graph.note_edge(from, to, completed) {
                self.stats.transitions += 1;
            }
            self.graph.note_state(to, run.trace());
            self.stats.max_depth = self.stats.max_depth.max(run.trace().len());
            access
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
            let enabled = run.enabled();
            let explorable: Vec<usize> = if self.opts.prune {
                enabled
                    .iter()
                    .copied()
                    .filter(|p| !sleep.iter().any(|&(q, _)| q == *p))
                    .collect()
            } else {
                enabled
            };
            if explorable.is_empty() {
                self.stats.sleep_blocked += 1;
                return;
            }
            drop(run); // each child re-executes from a fresh build
            let mut explored: Vec<(usize, Access)> = Vec::new();
            for p in explorable {
                if self.done() {
                    return;
                }
                let mut child = self.execute(prefix);
                let access = self.step(&mut child, p);
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
    let run = ex.execute(&[]);
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
    for &p in schedule {
        if run.livelocked() || run.is_terminal() {
            break;
        }
        if p < n && run.remaining[p] > 0 {
            let _ = run.step_raw(p, max_depth);
        }
    }
    let mut next = 0usize;
    while !run.livelocked() && !run.is_terminal() {
        if run.remaining[next % n] > 0 {
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
    use pwf_sim::memory::RegisterId;
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

        fn clone_box(&self) -> Box<dyn CheckProcess> {
            Box::new(self.clone())
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
        // Cache off: both walk the identical sleep-set-pruned tree, one
        // from snapshots and one by replaying every prefix. stack-n3 is
        // left out: its recursive run alone takes seconds.
        let opts = ExploreOptions {
            cache: false,
            ..ExploreOptions::default()
        };
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
        }
    }

    /// A schedule of at most `len` steps from a fresh build: at step
    /// `i`, the first enabled process at or after `pick(i) % n`.
    fn fixed_schedule(target: &CheckTarget, pick: impl Fn(usize) -> usize) -> Vec<usize> {
        let mut run = LiveRun::new(target.build());
        let n = run.procs.len();
        let mut i = 0;
        while i < 40 && !run.enabled().is_empty() {
            let enabled = run.enabled();
            let p = (0..n)
                .map(|d| (pick(i) + d) % n)
                .find(|p| enabled.contains(p))
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

    type Observed = ((u64, u64), u64, Vec<usize>, Vec<TimedOp>, bool);

    fn observe(run: &LiveRun) -> Observed {
        (
            run.fingerprint_pair(),
            run.history_fingerprint(),
            run.trace().to_vec(),
            run.ops().to_vec(),
            run.livelocked(),
        )
    }

    #[test]
    fn snapshot_runs_match_replay_from_a_fresh_build() {
        let picks: [fn(usize) -> usize; 3] =
            [|i| i, |i| usize::MAX - i, |i| mix64(i as u64) as usize];
        for target in crate::targets::registry() {
            for pick in picks {
                let schedule = fixed_schedule(&target, pick);
                let reference = observe(&replayed(&target, &schedule));
                for k in [0, schedule.len() / 2, schedule.len()] {
                    let mut original = replayed(&target, &schedule[..k]);
                    let before = observe(&original);
                    let mut snapshot = original.clone();
                    for &p in &schedule[k..] {
                        let _ = snapshot.step_raw(p, 4_096);
                    }
                    let at = format!("{} at step {k} of {schedule:?}", target.name);
                    assert_eq!(observe(&snapshot), reference, "{at}");
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
    }

    #[test]
    fn cache_prunes_without_changing_the_state_graph() {
        let cached = explore(&CAS_COUNTER, &ExploreOptions::default());
        let uncached = explore(
            &CAS_COUNTER,
            &ExploreOptions {
                cache: false,
                ..ExploreOptions::default()
            },
        );
        assert!(cached.stats.executions <= uncached.stats.executions);
        // The graph is keyed by state fingerprints: a pruned subtree
        // is a duplicate of an explored one, so the merged graph is
        // unchanged.
        assert_eq!(cached.stats.distinct_states, uncached.stats.distinct_states);
        assert_eq!(cached.stats.transitions, uncached.stats.transitions);
    }

    #[test]
    fn running_ops_fingerprint_matches_the_batch_recomputation() {
        let run = run_schedule(&CAS_COUNTER, &[0, 1, 0, 1], 1_000);
        assert!(run.is_terminal());
        let pending: Vec<u64> = run
            .op_start
            .iter()
            .map(|s| s.map_or(u64::MAX, |v| v))
            .collect();
        assert_eq!(
            run.history_fingerprint(),
            fnv1a(lin::ops_fingerprint(run.ops()), &pending)
        );
    }

    #[test]
    fn verify_hash_is_independent_of_the_primary() {
        // Not a proof of independence, but the two functions must at
        // least disagree on trivial inputs, and both must be
        // order-sensitive.
        let fold = |words: &[u64]| {
            words.iter().fold((FP_SEED, VERIFY_SEED), |(h, v), &w| {
                (primary_word(h, w), verify_word(v, w))
            })
        };
        let (h, v) = fold(&[0]);
        assert_ne!(mix64(h), v);
        assert_ne!(fold(&[1, 2]).0, fold(&[2, 1]).0);
        assert_ne!(fold(&[1, 2]).1, fold(&[2, 1]).1);
    }

    /// The fingerprint pair of `run` with every local fingerprint
    /// recomputed from its process instead of read from the cache.
    fn pair_recomputed(run: &LiveRun) -> (u64, u64) {
        let words = run
            .mem
            .registers()
            .iter()
            .copied()
            .chain(run.procs.iter().map(|p| p.local_fingerprint()))
            .chain(run.remaining.iter().map(|&r| u64::from(r)));
        let (h, v) = words.fold((FP_SEED, VERIFY_SEED), |(h, v), w| {
            (primary_word(h, w), verify_word(v, w))
        });
        (mix64(h), v)
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
                    assert_eq!(run.fingerprint_pair(), pair_recomputed(&run), "{at}");
                }
            }
        }
    }

    #[test]
    fn sleep_fingerprint_is_order_insensitive() {
        let mut mem = SharedMemory::new();
        let r1 = mem.alloc(0);
        let r2 = mem.alloc(0);
        let a = (
            0usize,
            Access {
                register: r1,
                kind: AccessKind::Read,
            },
        );
        let b = (
            1usize,
            Access {
                register: r2,
                kind: AccessKind::Write,
            },
        );
        assert_eq!(sleep_fingerprint(&[a, b]), sleep_fingerprint(&[b, a]));
        assert_ne!(sleep_fingerprint(&[a]), sleep_fingerprint(&[b]));
    }

    #[test]
    fn run_schedule_completes_partial_schedules() {
        let run = run_schedule(&CAS_COUNTER, &[0], 1_000);
        assert!(run.is_terminal());
        assert_eq!(run.ops().len(), 2);
    }
}
