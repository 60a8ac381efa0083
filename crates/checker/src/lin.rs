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
//! remaining set.

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
/// linearize against `spec`.
///
/// # Panics
///
/// Panics if more than 64 operations are supplied; checker
/// configurations are bounded far below that.
pub fn check(spec: &Spec, ops: &[TimedOp]) -> LinResult {
    assert!(ops.len() <= 64, "op count exceeds bitmask capacity");
    let full: u64 = if ops.len() == 64 {
        u64::MAX
    } else {
        (1u64 << ops.len()) - 1
    };
    let mut failed: HashSet<(u64, u64)> = HashSet::new();
    let mut witness = Vec::with_capacity(ops.len());
    let mut spec = spec.clone();
    if dfs(&mut spec, ops, full, &mut failed, &mut witness) {
        LinResult::Linearizable { witness }
    } else {
        LinResult::NotLinearizable
    }
}

/// Tries to linearize the operations in `remaining` (bitmask over
/// `ops`) starting from `spec`; on success `witness` holds the order.
fn dfs(
    spec: &mut Spec,
    ops: &[TimedOp],
    remaining: u64,
    failed: &mut HashSet<(u64, u64)>,
    witness: &mut Vec<usize>,
) -> bool {
    if remaining == 0 {
        return true;
    }
    let key = (remaining, spec.fingerprint());
    if failed.contains(&key) {
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
        let mut child = spec.clone();
        if child.apply(&ops[i].record) {
            witness.push(i);
            if dfs(&mut child, ops, remaining & !(1 << i), failed, witness) {
                *spec = child;
                return true;
            }
            witness.pop();
        }
    }
    failed.insert(key);
    false
}

/// Iterates the set bit positions of a mask, lowest first.
fn iter_bits(mask: u64) -> impl Iterator<Item = usize> {
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
}
