//! Sequential specifications — the "atomic object" a concurrent
//! history is checked against.
//!
//! A [`Spec`] is a deterministic sequential state machine:
//! [`Spec::apply`] feeds it one [`OpRecord`] and answers whether the
//! recorded return value is what the sequential object would have
//! returned at this point. The Wing–Gong checker ([`crate::lin`])
//! searches over orders of applying records; cloning a spec forks the
//! search state, and [`Spec::fingerprint`] keys the memoization table.

use pwf_sim::memory::{fnv1a, fold_words};

use crate::op::OpRecord;

/// A cloneable sequential specification.
///
/// Implemented as an enum rather than a trait object so the
/// linearizability search can clone states freely without boxing;
/// [`Clone::clone_from`] reuses a same-variant target's buffers.
#[derive(Debug, PartialEq, Eq)]
pub enum Spec {
    /// Fetch-and-increment counter: `inc() -> k` returns the
    /// pre-increment value; `read() -> v` returns the current value.
    Counter {
        /// Current counter value.
        value: u64,
    },
    /// LIFO stack: `push(v)`, `pop() -> v` (or `-> ·` when empty).
    Stack {
        /// Contents, bottom first.
        items: Vec<u64>,
    },
    /// A CAS register: `cas(observed) -> proposed` succeeds iff the
    /// register currently holds `observed`, then holds `proposed`.
    /// This is the sequential object behind `SCU(q, s)` — every
    /// completed method call atomically swung `R` from its scanned
    /// value to its proposal.
    CasRegister {
        /// Current register value.
        value: u64,
    },
    /// Single-writer snapshot memory: `update(v)` from process `i`
    /// (encoded in the input's high bits) sets segment `i`; `scan() ->
    /// h` returns an order-insensitive fingerprint of all segments.
    Snapshot {
        /// Per-process segments.
        segments: Vec<u64>,
    },
    /// A request-coalescing (query-deduplication) cache for one key:
    /// whichever process wins the in-flight claim computes `value` and
    /// publishes it; every `get() -> v` — leader's and joiners' alike
    /// — must return exactly that computed value. Returning anything
    /// else (e.g. an unpublished slot read after a premature notify)
    /// is the lost-wakeup anomaly.
    Coalesced {
        /// The value the leader computes and publishes.
        value: u64,
    },
}

impl Clone for Spec {
    fn clone(&self) -> Self {
        match self {
            Spec::Counter { value } => Spec::Counter { value: *value },
            Spec::Stack { items } => Spec::Stack {
                items: items.clone(),
            },
            Spec::CasRegister { value } => Spec::CasRegister { value: *value },
            Spec::Snapshot { segments } => Spec::Snapshot {
                segments: segments.clone(),
            },
            Spec::Coalesced { value } => Spec::Coalesced { value: *value },
        }
    }

    fn clone_from(&mut self, source: &Self) {
        match (self, source) {
            (Spec::Stack { items }, Spec::Stack { items: from }) => items.clone_from(from),
            (Spec::Snapshot { segments }, Spec::Snapshot { segments: from }) => {
                segments.clone_from(from)
            }
            (this, _) => *this = source.clone(),
        }
    }
}

impl Spec {
    /// A counter starting at zero.
    pub fn counter() -> Self {
        Spec::Counter { value: 0 }
    }

    /// A stack with the given initial contents (bottom first).
    pub fn stack(initial: &[u64]) -> Self {
        Spec::Stack {
            items: initial.to_vec(),
        }
    }

    /// A CAS register starting at zero.
    pub fn cas_register() -> Self {
        Spec::CasRegister { value: 0 }
    }

    /// A snapshot object with `n` zeroed single-writer segments.
    pub fn snapshot(n: usize) -> Self {
        Spec::Snapshot {
            segments: vec![0; n],
        }
    }

    /// A coalescing cache whose leader computes `value`.
    pub fn coalesced(value: u64) -> Self {
        Spec::Coalesced { value }
    }

    /// Packs an `update` input for [`Spec::Snapshot`]: writer index in
    /// the high 16 bits, value below.
    pub fn pack_update(writer: usize, value: u64) -> u64 {
        ((writer as u64) << 48) | (value & 0xFFFF_FFFF_FFFF)
    }

    /// The scan fingerprint [`Spec::Snapshot`] expects for `segments`.
    pub fn scan_digest(segments: &[u64]) -> u64 {
        fnv1a(0x100, segments)
    }

    /// Applies one operation record. Returns `true` when the recorded
    /// return value matches what the sequential object returns here
    /// (mutating the spec state); `false` — leaving the state
    /// unspecified — when it does not, i.e. the record cannot be
    /// linearized at this point.
    ///
    /// # Panics
    ///
    /// Panics on a method name the spec does not understand: that is a
    /// target/spec wiring bug, not a linearizability violation.
    pub fn apply(&mut self, op: &OpRecord) -> bool {
        match self {
            Spec::Counter { value } => match op.name {
                "inc" => {
                    let expected = *value;
                    *value += 1;
                    op.output == Some(expected)
                }
                "read" => op.output == Some(*value),
                other => panic!("counter spec cannot interpret {other:?}"),
            },
            Spec::Stack { items } => match op.name {
                "push" => {
                    items.push(op.input.expect("push needs an input"));
                    true
                }
                "pop" => match items.pop() {
                    Some(top) => op.output == Some(top),
                    None => op.output.is_none(),
                },
                other => panic!("stack spec cannot interpret {other:?}"),
            },
            Spec::CasRegister { value } => match op.name {
                "cas" => {
                    let observed = op.input.expect("cas needs the observed value");
                    let proposed = op.output.expect("cas needs the proposed value");
                    if *value == observed {
                        *value = proposed;
                        true
                    } else {
                        false
                    }
                }
                other => panic!("cas-register spec cannot interpret {other:?}"),
            },
            Spec::Snapshot { segments } => match op.name {
                "update" => {
                    let packed = op.input.expect("update needs an input");
                    let writer = (packed >> 48) as usize;
                    assert!(writer < segments.len(), "writer index out of range");
                    segments[writer] = packed & 0xFFFF_FFFF_FFFF;
                    true
                }
                "scan" => op.output == Some(Self::scan_digest(segments)),
                other => panic!("snapshot spec cannot interpret {other:?}"),
            },
            Spec::Coalesced { value } => match op.name {
                "get" => op.output == Some(*value),
                other => panic!("coalesced spec cannot interpret {other:?}"),
            },
        }
    }

    /// Fingerprint of the sequential state, for search memoization: a
    /// variant tag and the state words, folded word by word.
    pub fn fingerprint(&self) -> u64 {
        let (tag, words): (u64, &[u64]) = match self {
            Spec::Counter { value } => (1, std::slice::from_ref(value)),
            Spec::Stack { items } => (2, items),
            Spec::CasRegister { value } => (4, std::slice::from_ref(value)),
            Spec::Snapshot { segments } => (5, segments),
            Spec::Coalesced { value } => (6, std::slice::from_ref(value)),
        };
        fold_words(tag, words)
    }

    /// The spec's name, for reports.
    pub fn name(&self) -> &'static str {
        match self {
            Spec::Counter { .. } => "counter",
            Spec::Stack { .. } => "stack",
            Spec::CasRegister { .. } => "cas-register",
            Spec::Snapshot { .. } => "snapshot",
            Spec::Coalesced { .. } => "coalesced",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &'static str, input: Option<u64>, output: Option<u64>) -> OpRecord {
        OpRecord {
            name,
            input,
            output,
        }
    }

    #[test]
    fn counter_returns_pre_increment_values() {
        let mut s = Spec::counter();
        assert!(s.apply(&rec("inc", None, Some(0))));
        assert!(s.apply(&rec("inc", None, Some(1))));
        assert!(s.apply(&rec("read", None, Some(2))));
        assert!(!s.apply(&rec("inc", None, Some(0))), "stale return value");
    }

    #[test]
    fn stack_is_lifo_with_empty_pops() {
        let mut s = Spec::stack(&[]);
        assert!(s.apply(&rec("pop", None, None)), "empty pop returns ·");
        assert!(s.apply(&rec("push", Some(1), None)));
        assert!(s.apply(&rec("push", Some(2), None)));
        assert!(s.apply(&rec("pop", None, Some(2))));
        assert!(!s.apply(&rec("pop", None, Some(2))), "2 already popped");
    }

    #[test]
    fn stack_honours_initial_contents() {
        let mut s = Spec::stack(&[10, 20]);
        assert!(s.apply(&rec("pop", None, Some(20))));
        assert!(s.apply(&rec("pop", None, Some(10))));
        assert!(s.apply(&rec("pop", None, None)));
    }

    #[test]
    fn cas_register_chains_observed_to_proposed() {
        let mut s = Spec::cas_register();
        assert!(s.apply(&rec("cas", Some(0), Some(5))));
        assert!(s.apply(&rec("cas", Some(5), Some(9))));
        assert!(!s.apply(&rec("cas", Some(5), Some(11))), "stale observe");
    }

    #[test]
    fn snapshot_scan_sees_latest_segments() {
        let mut s = Spec::snapshot(2);
        assert!(s.apply(&rec("update", Some(Spec::pack_update(1, 7)), None)));
        let digest = Spec::scan_digest(&[0, 7]);
        assert!(s.apply(&rec("scan", None, Some(digest))));
        let stale = Spec::scan_digest(&[0, 0]);
        assert!(!s.apply(&rec("scan", None, Some(stale))));
    }

    #[test]
    fn coalesced_accepts_only_the_computed_value() {
        let mut s = Spec::coalesced(42);
        assert!(s.apply(&rec("get", None, Some(42))));
        assert!(!s.apply(&rec("get", None, Some(0))), "unpublished read");
        assert!(!s.apply(&rec("get", None, None)));
    }

    #[test]
    fn clone_from_matches_clone_within_and_across_variants() {
        let specs = [
            Spec::stack(&[1, 2, 3]),
            Spec::stack(&[4]),
            Spec::snapshot(3),
            Spec::counter(),
            Spec::stack(&[]),
        ];
        let mut target = Spec::snapshot(1);
        for source in &specs {
            target.clone_from(source);
            assert_eq!(&target, source);
        }
    }

    #[test]
    fn fingerprints_distinguish_states() {
        let a = Spec::stack(&[1, 2]);
        let b = Spec::stack(&[2, 1]);
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.fingerprint(), Spec::stack(&[1, 2]).fingerprint());
    }
}
