//! Query-deduplication (request-coalescing) targets, ported from the
//! apollo-router wait-map protocol (SNIPPETS.md, Snippet 1) — the same
//! coalescing logic `crates/serve` ships in its production
//! [`pwf_serve`-style] coalescer.
//!
//! Protocol, per process, all against one cache key:
//!
//! 1. **Claim**: CAS the `flight` register `0 → 1`. The winner is the
//!    *leader*; losers are *joiners* (they registered in the wait
//!    map).
//! 2. Leader: **compute** (one read modelling the backend fetch), then
//!    **publish** the result into `slot`, then **notify** by writing
//!    `ready = 1`, completing `get() -> 42`.
//! 3. Joiner: spin-read `ready` until it is `1`, then **fetch** `slot`
//!    and complete `get() -> v`.
//!
//! The sequential object is [`Spec::Coalesced`]: every `get` must
//! return the leader's computed value. The protocol is *blocking by
//! design* — a joiner makes no progress while the leader is parked —
//! so the target is classed [`Progress::StochasticOnly`]: spinning
//! truncates a run instead of flagging it, and liveness is judged by
//! the fair-cycle audit (every reachable bottom component of the state
//! graph completes), which this protocol passes: once the leader
//! finishes, `ready` is permanently `1` and every joiner completes.
//!
//! The seeded **lost-wakeup mutant** swaps steps 2's publish and
//! notify: the leader raises `ready` *before* writing `slot`, so a
//! joiner scheduled in between fetches the unpublished slot and
//! returns `get() -> 0` — not linearizable against the coalesced spec.
//! `pwf vet` catches it and ddmin-shrinks the witness to a replayable
//! `.sched`.

use pwf_sim::memory::{fold_words, RegisterId, SharedMemory};
use pwf_sim::process::{Process, StepOutcome};

use crate::op::OpRecord;
use crate::spec::Spec;
use crate::target::{CheckConfig, CheckProcess, CheckTarget, Progress};

/// The value the leader's backend computation produces.
const COMPUTED: u64 = 42;

/// Where a dedup process is inside its single `get`.
#[derive(Debug, Clone, Copy)]
enum DPhase {
    /// About to CAS the flight claim.
    Claim,
    /// Leader: about to perform the backend computation (modelled as
    /// one read of the input register).
    Compute,
    /// Leader: about to write the computed value into the slot.
    Publish,
    /// Leader: about to raise the ready flag.
    Notify,
    /// Joiner: spinning on the ready flag.
    AwaitReady,
    /// Joiner: ready was observed; about to read the slot.
    Fetch,
}

impl DPhase {
    fn code(self) -> u64 {
        match self {
            DPhase::Claim => 0,
            DPhase::Compute => 1,
            DPhase::Publish => 2,
            DPhase::Notify => 3,
            DPhase::AwaitReady => 4,
            DPhase::Fetch => 5,
        }
    }
}

/// One coalescing requester: leader or joiner, decided by the claim
/// CAS. With `notify_before_publish` the leader's publish and notify
/// steps are swapped — the seeded lost-wakeup mutant.
#[derive(Clone)]
pub struct DedupProcess {
    flight: RegisterId,
    input: RegisterId,
    slot: RegisterId,
    ready: RegisterId,
    notify_before_publish: bool,
    phase: DPhase,
    fetched: u64,
}

impl DedupProcess {
    fn complete(&mut self, value: u64) -> StepOutcome {
        self.fetched = value;
        self.phase = DPhase::Claim;
        StepOutcome::Completed
    }
}

impl Process for DedupProcess {
    fn step(&mut self, mem: &mut SharedMemory) -> StepOutcome {
        match self.phase {
            DPhase::Claim => {
                self.phase = if mem.cas(self.flight, 0, 1) {
                    DPhase::Compute
                } else {
                    DPhase::AwaitReady
                };
                StepOutcome::Ongoing
            }
            DPhase::Compute => {
                // The backend fetch: reads the request input; the
                // result is deterministic in it.
                let _ = mem.read(self.input);
                self.phase = if self.notify_before_publish {
                    DPhase::Notify
                } else {
                    DPhase::Publish
                };
                StepOutcome::Ongoing
            }
            DPhase::Publish => {
                mem.write(self.slot, COMPUTED);
                if self.notify_before_publish {
                    // Mutant: publish is the leader's last step.
                    self.complete(COMPUTED)
                } else {
                    self.phase = DPhase::Notify;
                    StepOutcome::Ongoing
                }
            }
            DPhase::Notify => {
                mem.write(self.ready, 1);
                if self.notify_before_publish {
                    self.phase = DPhase::Publish;
                    StepOutcome::Ongoing
                } else {
                    self.complete(COMPUTED)
                }
            }
            DPhase::AwaitReady => {
                if mem.read(self.ready) == 1 {
                    self.phase = DPhase::Fetch;
                }
                StepOutcome::Ongoing
            }
            DPhase::Fetch => {
                let v = mem.read(self.slot);
                self.complete(v)
            }
        }
    }

    fn name(&self) -> &'static str {
        if self.notify_before_publish {
            "dedup-lost-wakeup"
        } else {
            "dedup"
        }
    }
}

impl CheckProcess for DedupProcess {
    fn last_op(&self) -> OpRecord {
        OpRecord {
            name: "get",
            input: None,
            output: Some(self.fetched),
        }
    }

    fn local_fingerprint(&self) -> u64 {
        fold_words(0xDED0_0DED, &[self.phase.code(), self.fetched])
    }
}

fn build_dedup_inner(notify_before_publish: bool) -> CheckConfig {
    let mut mem = SharedMemory::new();
    let flight = mem.alloc(0);
    let input = mem.alloc(7);
    let slot = mem.alloc(0);
    let ready = mem.alloc(0);
    CheckConfig {
        procs: (0..2)
            .map(|_| {
                Box::new(DedupProcess {
                    flight,
                    input,
                    slot,
                    ready,
                    notify_before_publish,
                    phase: DPhase::Claim,
                    fetched: 0,
                }) as Box<dyn CheckProcess>
            })
            .collect(),
        mem,
        spec: Spec::coalesced(COMPUTED),
        budgets: vec![1, 1],
    }
}

fn build_dedup() -> CheckConfig {
    build_dedup_inner(false)
}

fn build_lost_wakeup_mutant() -> CheckConfig {
    build_dedup_inner(true)
}

/// The correct coalescer: publish strictly before notify.
pub const DEDUP: CheckTarget = CheckTarget {
    name: "dedup",
    description: "query-dedup coalescer (apollo wait-map), n=2, 1 get each",
    expect_failure: false,
    progress: Progress::StochasticOnly,
    build: build_dedup,
};

/// The seeded lost-wakeup mutant: notify raised before the slot is
/// published, so an interleaved joiner fetches the unpublished value.
pub const LOST_WAKEUP_MUTANT: CheckTarget = CheckTarget {
    name: "dedup-lost-wakeup-mutant",
    description: "MUTANT: coalescer notifies before publishing (lost wakeup)",
    expect_failure: true,
    progress: Progress::StochasticOnly,
    build: build_lost_wakeup_mutant,
};
