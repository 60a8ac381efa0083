//! Exact chains for the lock-based counter baseline (extension E15),
//! in the same individual/system/lifting format as the paper's
//! algorithms.
//!
//! System chain: the lock is `Free`, or `Held(r)` with `r` remaining
//! holder steps (critical section of `cs` steps plus the unlock, so
//! `r ∈ {1, …, cs+1}`). From `Free` every scheduled process acquires
//! (probability 1); from `Held(r)` the holder advances with
//! probability `1/n` and spinners change nothing. The closed form
//! `W = 1 + (cs+1)·n` drops out of the stationary distribution.
//!
//! Individual chain: additionally tracks *which* process holds the
//! lock; collapsing it through "forget the identity" is a lifting in
//! exactly the sense of Lemma 5.

use pwf_markov::chain::{ChainError, MarkovChain};
use pwf_markov::sparse::{SparseChain, SparseChainBuilder};
use pwf_markov::stationary::stationary_distribution;

use super::latency_from_success_probabilities;
use super::scu::LatencyError;

/// System-chain state of the lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LockState {
    /// Nobody holds the lock.
    Free,
    /// Someone holds it with `r` holder steps remaining (the last is
    /// the unlock, whose completion is a success).
    Held(u8),
}

/// Individual-chain state: as [`LockState`], but naming the holder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LockStateWho {
    /// Nobody holds the lock.
    Free,
    /// Process `holder` has `r` steps remaining.
    Held {
        /// Index of the holder.
        holder: u8,
        /// Remaining holder steps.
        remaining: u8,
    },
}

/// The lifting map: forget the holder's identity.
pub fn lift(state: &LockStateWho) -> LockState {
    match *state {
        LockStateWho::Free => LockState::Free,
        LockStateWho::Held { remaining, .. } => LockState::Held(remaining),
    }
}

/// Builds the system chain for `n` processes and a `cs`-step critical
/// section.
///
/// # Errors
///
/// Propagates chain-validation errors (none occur for valid inputs).
///
/// # Panics
///
/// Panics if `n == 0`, `cs == 0`, or `cs > 254`.
pub fn system_chain(n: usize, cs: usize) -> Result<MarkovChain<LockState>, ChainError> {
    sparse_system_chain(n, cs)?.to_dense()
}

/// Builds the system chain in sparse (CSR) form — the primary
/// representation; [`system_chain`] is its dense conversion.
///
/// # Errors
///
/// Propagates chain-validation errors (none occur for valid inputs).
///
/// # Panics
///
/// Panics if `n == 0`, `cs == 0`, or `cs > 254`.
pub fn sparse_system_chain(n: usize, cs: usize) -> Result<SparseChain<LockState>, ChainError> {
    assert!(n >= 1 && cs >= 1, "need n ≥ 1 and cs ≥ 1");
    assert!(cs <= 254, "critical section must fit in a byte");
    let nf = n as f64;
    let total = (cs + 1) as u8; // critical steps + unlock
    let mut b = SparseChainBuilder::new();
    b.state(LockState::Free);
    for r in 1..=total {
        b.state(LockState::Held(r));
    }
    // Free: whoever is scheduled acquires.
    b.transition(LockState::Free, LockState::Held(total), 1.0);
    for r in 1..=total {
        let next = if r == 1 {
            LockState::Free
        } else {
            LockState::Held(r - 1)
        };
        b.transition(LockState::Held(r), next, 1.0 / nf);
        if n > 1 {
            // A spinner steps: nothing changes.
            b.transition(LockState::Held(r), LockState::Held(r), 1.0 - 1.0 / nf);
        }
    }
    b.build()
}

/// Builds the individual chain (holder identities tracked).
///
/// # Errors
///
/// Propagates chain-validation errors (none occur for valid inputs).
///
/// # Panics
///
/// Panics if `n == 0`, `n > 255`, `cs == 0`, or `cs > 254`.
pub fn individual_chain(n: usize, cs: usize) -> Result<MarkovChain<LockStateWho>, ChainError> {
    sparse_individual_chain(n, cs)?.to_dense()
}

/// Builds the individual chain in sparse (CSR) form — the primary
/// representation; [`individual_chain`] is its dense conversion.
///
/// # Errors
///
/// Propagates chain-validation errors (none occur for valid inputs).
///
/// # Panics
///
/// Panics if `n == 0`, `n > 255`, `cs == 0`, or `cs > 254`.
pub fn sparse_individual_chain(
    n: usize,
    cs: usize,
) -> Result<SparseChain<LockStateWho>, ChainError> {
    assert!(n >= 1 && cs >= 1, "need n ≥ 1 and cs ≥ 1");
    assert!(n <= 255, "n must fit in a byte");
    assert!(cs <= 254, "critical section must fit in a byte");
    let nf = n as f64;
    let total = (cs + 1) as u8;
    let mut b = SparseChainBuilder::new();
    b.state(LockStateWho::Free);
    for holder in 0..n as u8 {
        for r in 1..=total {
            b.state(LockStateWho::Held {
                holder,
                remaining: r,
            });
        }
    }
    for holder in 0..n as u8 {
        // From Free, the scheduled process (prob 1/n each) acquires.
        b.transition(
            LockStateWho::Free,
            LockStateWho::Held {
                holder,
                remaining: total,
            },
            1.0 / nf,
        );
        for r in 1..=total {
            let state = LockStateWho::Held {
                holder,
                remaining: r,
            };
            let next = if r == 1 {
                LockStateWho::Free
            } else {
                LockStateWho::Held {
                    holder,
                    remaining: r - 1,
                }
            };
            b.transition(state, next, 1.0 / nf);
            if n > 1 {
                b.transition(state, state, 1.0 - 1.0 / nf);
            }
        }
    }
    b.build()
}

/// Exact system latency from the system chain: a step is a success iff
/// the holder at `Held(1)` is scheduled (the unlock completes the
/// operation).
///
/// # Errors
///
/// Propagates chain and stationary errors.
pub fn exact_system_latency(n: usize, cs: usize) -> Result<f64, LatencyError> {
    let chain = system_chain(n, cs)?;
    let pi = stationary_distribution(&chain)?;
    let succ: Vec<f64> = chain
        .states()
        .iter()
        .map(|s| match s {
            LockState::Held(1) => 1.0 / n as f64,
            _ => 0.0,
        })
        .collect();
    Ok(latency_from_success_probabilities(&pi, &succ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lock::predicted_system_latency;
    use pwf_markov::lifting::verify_lifting;
    use pwf_markov::structure::analyze;

    #[test]
    fn closed_form_matches_chain_exactly() {
        for (n, cs) in [(1usize, 1usize), (2, 1), (4, 2), (8, 3), (16, 2)] {
            let chain = exact_system_latency(n, cs).unwrap();
            let formula = predicted_system_latency(n, cs);
            assert!(
                (chain - formula).abs() < 1e-8,
                "n={n}, cs={cs}: chain {chain} vs formula {formula}"
            );
        }
    }

    #[test]
    fn lifting_forgets_holder_identity() {
        for (n, cs) in [(2usize, 1usize), (3, 2), (4, 3)] {
            let ind = individual_chain(n, cs).unwrap();
            let sys = system_chain(n, cs).unwrap();
            let report = verify_lifting(&ind, &sys, lift, 1e-8)
                .unwrap_or_else(|e| panic!("lifting failed n={n} cs={cs}: {e}"));
            assert!(report.flow_residual < 1e-10);
            assert!(report.stationary_residual < 1e-10);
            assert_eq!(report.lifted_states, 1 + n * (cs + 1));
            assert_eq!(report.base_states, cs + 2);
        }
    }

    #[test]
    fn chains_are_ergodic_for_n_at_least_two() {
        // Spinner self-loops make the chains aperiodic (unlike the
        // paper's CAS chains).
        let s = analyze(&system_chain(3, 2).unwrap());
        assert!(s.is_ergodic());
        let i = analyze(&individual_chain(3, 2).unwrap());
        assert!(i.is_ergodic());
    }

    #[test]
    fn latency_is_linear_in_both_parameters() {
        let w_base = exact_system_latency(4, 1).unwrap();
        let w_more_cs = exact_system_latency(4, 3).unwrap();
        let w_more_n = exact_system_latency(8, 1).unwrap();
        assert!((w_more_cs - w_base - 8.0).abs() < 1e-8); // +2 cs steps × n=4
        assert!((w_more_n - (1.0 + 2.0 * 8.0)).abs() < 1e-8);
    }

    #[test]
    fn kernel_condition_holds_on_sparse_chains() {
        use pwf_markov::lifting::kernel_residual_sparse;
        for (n, cs) in [(2usize, 1usize), (3, 2), (16, 3)] {
            let ind = sparse_individual_chain(n, cs).unwrap();
            let sys = sparse_system_chain(n, cs).unwrap();
            let r = kernel_residual_sparse(&ind, &sys, lift).unwrap();
            assert!(r < 1e-12, "n={n} cs={cs}: kernel residual {r}");
        }
    }

    #[test]
    fn single_process_lock_has_no_contention_overhead() {
        // n = 1: W = cs + 2 (acquire + cs + unlock).
        for cs in [1usize, 2, 5] {
            let w = exact_system_latency(1, cs).unwrap();
            assert!((w - (cs as f64 + 2.0)).abs() < 1e-9, "cs={cs}: {w}");
        }
    }
}
