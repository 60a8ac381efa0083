//! Wing–Gong linearizability checking.
//!
//! Given the complete operations of one explored execution (as
//! [`TimedOp`]s) and a sequential [`Spec`], search for a
//! *linearization*: a total order of the operations that (a) respects
//! real-time precedence — if `a` responded before `b` was invoked, `a`
//! comes first — and (b) is legal for the spec, each operation
//! returning what the sequential object returns at its place in the
//! order.
//!
//! The search is the classic Wing–Gong recursion: repeatedly pick a
//! *minimal* remaining operation (one invoked no later than every
//! remaining response — nothing remaining is forced before it), apply
//! it to the spec, recurse, backtrack. Failed `(remaining-set,
//! spec-state)` pairs are memoized, the refinement due to Lowe's
//! just-in-time linearizability checker. Operation counts here are
//! tiny (≤ 64 by construction), so a `u64` bitmask encodes the
//! remaining set. A [`Linearizer`] keeps one spec per search depth and
//! applies each candidate to a copy in the next depth's slot, so a
//! search reuses its buffers instead of allocating a spec per try.

use std::collections::HashSet;

use crate::op::TimedOp;
use crate::spec::Spec;

/// Outcome of a linearizability check.
#[derive(Debug, Clone)]
pub enum LinResult {
    /// A legal linearization exists; the witness lists indices into the
    /// input slice in linearization order.
    Linearizable {
        /// Indices into the checked ops, in linearization order.
        witness: Vec<usize>,
    },
    /// No legal linearization exists.
    NotLinearizable,
}

impl LinResult {
    /// Whether the history linearized.
    pub fn is_linearizable(&self) -> bool {
        matches!(self, LinResult::Linearizable { .. })
    }
}

/// Checks whether `ops` (the completed operations of one execution)
/// linearize against `spec`: a one-shot [`Linearizer`].
///
/// # Panics
///
/// Panics if more than 64 operations are supplied; checker
/// configurations are bounded far below that.
pub fn check(spec: &Spec, ops: &[TimedOp]) -> LinResult {
    match Linearizer::default().check(spec, ops) {
        Some(witness) => LinResult::Linearizable {
            witness: witness.to_vec(),
        },
        None => LinResult::NotLinearizable,
    }
}

/// A reusable Wing–Gong search: one spec per search depth, the memo
/// set of failed `(remaining-set, spec-fingerprint)` pairs, and the
/// witness. Checking a history reuses all three buffers (the memo set
/// is cleared first), so checking many histories in sequence allocates
/// only while a buffer grows.
#[derive(Debug, Default)]
pub struct Linearizer {
    /// `specs[d]` is the spec state after the first `d` ops of the
    /// linearization being tried.
    specs: Vec<Spec>,
    failed: HashSet<(u64, u64)>,
    witness: Vec<usize>,
}

impl Linearizer {
    /// Checks whether `ops` linearize against `spec`. Returns the
    /// witness (indices into `ops`, in linearization order), or `None`
    /// when no legal linearization exists.
    ///
    /// # Panics
    ///
    /// Panics if more than 64 operations are supplied; checker
    /// configurations are bounded far below that.
    pub fn check(&mut self, spec: &Spec, ops: &[TimedOp]) -> Option<&[usize]> {
        assert!(ops.len() <= 64, "op count exceeds bitmask capacity");
        let full: u64 = if ops.len() == 64 {
            u64::MAX
        } else {
            (1u64 << ops.len()) - 1
        };
        self.failed.clear();
        self.witness.clear();
        while self.specs.len() <= ops.len() {
            self.specs.push(spec.clone());
        }
        self.specs[0].clone_from(spec);
        if self.dfs(ops, 0, full) {
            Some(&self.witness)
        } else {
            None
        }
    }

    /// Tries to linearize the operations in `remaining` (bitmask over
    /// `ops`) starting from `specs[depth]`; on success `witness` holds
    /// the order.
    fn dfs(&mut self, ops: &[TimedOp], depth: usize, remaining: u64) -> bool {
        if remaining == 0 {
            return true;
        }
        let key = (remaining, self.specs[depth].fingerprint());
        if self.failed.contains(&key) {
            return false;
        }
        // An op is minimal iff no remaining op's response precedes its
        // invocation — equivalently, invoke ≤ min remaining response.
        let min_response = iter_bits(remaining)
            .map(|i| ops[i].response)
            .min()
            .expect("remaining is non-empty");
        for i in iter_bits(remaining) {
            if ops[i].invoke > min_response {
                continue;
            }
            let (done, next) = self.specs.split_at_mut(depth + 1);
            let child = &mut next[0];
            child.clone_from(&done[depth]);
            if child.apply(&ops[i].record) {
                self.witness.push(i);
                if self.dfs(ops, depth + 1, remaining & !(1 << i)) {
                    return true;
                }
                self.witness.pop();
            }
        }
        self.failed.insert(key);
        false
    }
}

/// Iterates the set bit positions of a mask, lowest first.
pub(crate) fn iter_bits(mask: u64) -> impl Iterator<Item = usize> {
    let mut m = mask;
    std::iter::from_fn(move || {
        if m == 0 {
            None
        } else {
            let i = m.trailing_zeros() as usize;
            m &= m - 1;
            Some(i)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::OpRecord;
    use pwf_sim::process::ProcessId;

    fn op(
        p: usize,
        invoke: u64,
        response: u64,
        name: &'static str,
        input: Option<u64>,
        output: Option<u64>,
    ) -> TimedOp {
        TimedOp {
            process: ProcessId::new(p),
            invoke,
            response,
            record: OpRecord {
                name,
                input,
                output,
            },
        }
    }

    #[test]
    fn sequential_counter_history_linearizes() {
        let ops = vec![
            op(0, 1, 2, "inc", None, Some(0)),
            op(1, 3, 4, "inc", None, Some(1)),
        ];
        assert!(check(&Spec::counter(), &ops).is_linearizable());
    }

    #[test]
    fn duplicate_counter_values_do_not_linearize() {
        // Two increments both returning 0: the lost-update anomaly.
        let ops = vec![
            op(0, 1, 3, "inc", None, Some(0)),
            op(1, 2, 4, "inc", None, Some(0)),
        ];
        assert!(!check(&Spec::counter(), &ops).is_linearizable());
    }

    #[test]
    fn overlap_permits_reordering_but_real_time_is_respected() {
        // p1's inc returned 0 *after* p0's inc returned 1 — legal only
        // because they overlap.
        let ops = vec![
            op(0, 2, 3, "inc", None, Some(1)),
            op(1, 1, 4, "inc", None, Some(0)),
        ];
        let res = check(&Spec::counter(), &ops);
        match res {
            LinResult::Linearizable { witness } => assert_eq!(witness, vec![1, 0]),
            LinResult::NotLinearizable => panic!("should linearize by reordering"),
        }
        // Same values without overlap: p0 strictly precedes p1, so the
        // reorder is illegal.
        let ops = vec![
            op(0, 1, 2, "inc", None, Some(1)),
            op(1, 3, 4, "inc", None, Some(0)),
        ];
        assert!(!check(&Spec::counter(), &ops).is_linearizable());
    }

    #[test]
    fn stack_duplicate_pop_is_caught() {
        // ABA symptom: both pops return the same element of a
        // two-element stack.
        let ops = vec![
            op(0, 1, 5, "pop", None, Some(9)),
            op(1, 2, 6, "pop", None, Some(9)),
        ];
        assert!(!check(&Spec::stack(&[5, 9]), &ops).is_linearizable());
        // Distinct pops are fine.
        let ops = vec![
            op(0, 1, 5, "pop", None, Some(9)),
            op(1, 2, 6, "pop", None, Some(5)),
        ];
        assert!(check(&Spec::stack(&[5, 9]), &ops).is_linearizable());
    }

    #[test]
    fn empty_history_is_trivially_linearizable() {
        assert!(check(&Spec::counter(), &[]).is_linearizable());
    }

    #[test]
    fn a_reused_linearizer_agrees_with_one_shot_checks() {
        use crate::explore::{explore, run_schedule, ExploreOptions};
        use pwf_rng::mix64;
        // Terminal histories of every registry target in registry
        // order, so the spec variant changes between targets; a
        // mutant's violating history comes before its target's other
        // histories, so a memo set leaking out of a failed search
        // would reject them.
        let mut histories: Vec<(Spec, Vec<TimedOp>)> = Vec::new();
        for target in crate::targets::registry() {
            let n = target.build().n() as u64;
            let mut schedules: Vec<Vec<usize>> = Vec::new();
            if target.expect_failure {
                let report = explore(&target, &ExploreOptions::default());
                schedules.extend(report.violation.map(|v| v.schedule));
            }
            schedules.extend((0..4u64).map(|seed| {
                (0..64)
                    .map(|i| (mix64(seed << 8 | i) % n) as usize)
                    .collect()
            }));
            for schedule in schedules {
                let run = run_schedule(&target, &schedule, 4_096);
                if run.is_terminal() {
                    histories.push((run.spec().clone(), run.ops().to_vec()));
                }
            }
        }
        let mut lin = Linearizer::default();
        let (mut rejected, mut switches) = (0, 0);
        for (i, (spec, ops)) in histories.iter().enumerate() {
            let reused = lin.check(spec, ops).map(<[usize]>::to_vec);
            match check(spec, ops) {
                LinResult::Linearizable { witness } => assert_eq!(reused, Some(witness), "{i}"),
                LinResult::NotLinearizable => {
                    assert_eq!(reused, None, "{i}");
                    rejected += 1;
                }
            }
            if i > 0 && histories[i - 1].0.name() != spec.name() {
                switches += 1;
            }
        }
        assert!(rejected > 0, "some mutant history is rejected");
        assert!(rejected < histories.len(), "some history linearizes");
        assert!(switches > 0, "the spec variant changes mid-sequence");
    }
}
