//! Exact chains for the fetch-and-increment counter of Section 7
//! (Lemmas 12–14, Corollary 3).
//!
//! Individual chain: states are the non-empty subsets of processes
//! holding the *current* value of the register (`2ⁿ − 1` states).
//! Global chain: states `v_1 … v_n` counting how many processes hold
//! the current value.

use pwf_markov::chain::{ChainError, MarkovChain};
use pwf_markov::hitting::{hitting_times, sparse_hitting_times};
use pwf_markov::solve::{GaussSeidelOptions, Metrics};
use pwf_markov::sparse::{SparseChain, SparseChainBuilder};
use pwf_markov::stationary::stationary_distribution;

use super::scu::LatencyError;
use super::{latency_from_success_probabilities, ChainFamily};

/// A state of the individual chain: bitmask of processes in the
/// `Current` extended local state (never zero).
pub type SubsetState = u32;

/// Maximum `n` for which the individual chain (`2ⁿ − 1` states) is
/// built.
pub const MAX_INDIVIDUAL_N: usize = 10;

/// The lifting map of Lemma 13: a subset maps to its cardinality.
pub fn lift(state: &SubsetState) -> usize {
    state.count_ones() as usize
}

/// Builds the individual chain on `n` processes in sparse (CSR) form:
/// from subset `S`, a step by `i ∈ S` wins and moves to `{i}`; a step
/// by `i ∉ S` fails its CAS, learns the current value, and moves to
/// `S ∪ {i}`.
///
/// # Errors
///
/// Propagates chain-validation errors (none occur for valid `n`).
///
/// # Panics
///
/// Panics if `n == 0` or `n > MAX_INDIVIDUAL_N`.
pub fn sparse_individual_chain(n: usize) -> Result<SparseChain<SubsetState>, ChainError> {
    assert!(
        ChainFamily::FetchAndInc.admits(n),
        "individual chain has 2^n - 1 states; need 1 <= n <= {MAX_INDIVIDUAL_N}"
    );
    let p = 1.0 / n as f64;
    let full: u32 = if n == 32 { u32::MAX } else { (1u32 << n) - 1 };
    let mut b = SparseChainBuilder::new();
    for s in 1..=full {
        b.state(s);
    }
    for s in 1..=full {
        for i in 0..n {
            let bit = 1u32 << i;
            let next = if s & bit != 0 { bit } else { s | bit };
            b.transition(s, next, p);
        }
    }
    b.build()
}

/// Dense individual chain — a [`SparseChain::to_dense`] conversion of
/// [`sparse_individual_chain`], kept as the direct-solve oracle.
///
/// # Errors
///
/// Propagates chain-validation errors (none occur for valid `n`).
///
/// # Panics
///
/// Panics if `n == 0` or `n > MAX_INDIVIDUAL_N`.
pub fn individual_chain(n: usize) -> Result<MarkovChain<SubsetState>, ChainError> {
    sparse_individual_chain(n)?.to_dense()
}

/// Builds the global chain in sparse (CSR) form — the primary
/// representation; the chain is `n` states with ≤ 2 transitions each,
/// so it scales to millions of processes. From `i`: to `1` with
/// probability `i/n` (a holder wins), to `i + 1` with probability
/// `1 − i/n`.
///
/// # Errors
///
/// Propagates chain-validation errors (none occur for valid `n`).
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn sparse_global_chain(n: usize) -> Result<SparseChain<usize>, ChainError> {
    assert!(n >= 1, "need at least one process");
    let nf = n as f64;
    let mut b = SparseChainBuilder::new();
    for i in 1..=n {
        b.state(i);
    }
    for i in 1..=n {
        b.transition(i, 1, i as f64 / nf);
        if i < n {
            b.transition(i, i + 1, 1.0 - i as f64 / nf);
        }
    }
    b.build()
}

/// Dense global chain — a [`SparseChain::to_dense`] conversion of
/// [`sparse_global_chain`], kept as the direct-solve oracle for
/// small `n`.
///
/// # Errors
///
/// Propagates chain-validation errors (none occur for valid `n`).
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn global_chain(n: usize) -> Result<MarkovChain<usize>, ChainError> {
    sparse_global_chain(n)?.to_dense()
}

/// Exact system latency `W` (expected steps between wins) from the
/// global chain's stationary distribution: a step from state `i`
/// succeeds with probability `i/n`. Lemma 12 bounds this by `2√n`.
///
/// # Errors
///
/// Propagates chain and stationary errors.
pub fn exact_system_latency(n: usize) -> Result<f64, LatencyError> {
    let chain = global_chain(n)?;
    let pi = stationary_distribution(&chain)?;
    let succ: Vec<f64> = chain
        .states()
        .iter()
        .map(|&i| i as f64 / n as f64)
        .collect();
    Ok(latency_from_success_probabilities(&pi, &succ))
}

/// The expected return time of the win state `v_1` in the global
/// chain, computed by the hitting-time linear system. This equals the
/// system latency because every success lands in `v_1`.
///
/// # Errors
///
/// Propagates chain and hitting-time errors.
pub fn return_time_of_win_state(n: usize) -> Result<f64, LatencyError> {
    let chain = global_chain(n)?;
    let idx = chain.state_index(&1).expect("state 1 exists");
    Ok(hitting_times(&chain, idx)?[idx])
}

/// Expected return time of the win state via sparse Gauss–Seidel —
/// the scalable counterpart of [`return_time_of_win_state`].
///
/// # Errors
///
/// Propagates chain and solver-convergence errors.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn sparse_return_time_of_win_state(
    n: usize,
    opts: &GaussSeidelOptions,
    metrics: Option<&Metrics>,
) -> Result<f64, LatencyError> {
    let chain = sparse_global_chain(n)?;
    let idx = chain.state_index(&1).expect("state 1 exists");
    Ok(sparse_hitting_times(&chain, idx, opts, metrics)?[idx])
}

/// Exact individual latency `W_i` from the individual chain: process
/// `i` wins from states containing `i`, with probability `1/n` each
/// step (Lemma 14 asserts `W_i = n·W`).
///
/// # Errors
///
/// Propagates chain and stationary errors.
///
/// # Panics
///
/// Panics if `i >= n` or `n > MAX_INDIVIDUAL_N`.
pub fn exact_individual_latency(n: usize, i: usize) -> Result<f64, LatencyError> {
    let chain = individual_chain(n)?;
    let pi = stationary_distribution(&chain)?;
    Ok(individual_latency_from_stationary(&chain, &pi, n, i))
}

/// Individual latency `W_i` of process `i` from the individual chain
/// on `n` processes and its stationary distribution `pi` — for callers
/// that already solved the chain.
///
/// # Panics
///
/// Panics if `i >= n` or `pi` does not match the chain's length.
pub fn individual_latency_from_stationary(
    chain: &MarkovChain<SubsetState>,
    pi: &[f64],
    n: usize,
    i: usize,
) -> f64 {
    assert!(i < n, "process index out of range");
    let bit = 1u32 << i;
    let succ: Vec<f64> = chain
        .states()
        .iter()
        .map(|&s| if s & bit != 0 { 1.0 / n as f64 } else { 0.0 })
        .collect();
    latency_from_success_probabilities(pi, &succ)
}

/// The recurrence of Lemma 12: `Z(0) = 1`, `Z(i) = i·Z(i−1)/n + 1`,
/// where `Z(i)` is the hitting time of the win state from the state
/// with `n − i` current-value holders. Returns `Z(0), …, Z(n−1)`.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn z_recurrence(n: usize) -> Vec<f64> {
    assert!(n >= 1, "need at least one process");
    let nf = n as f64;
    let mut z = Vec::with_capacity(n);
    z.push(1.0);
    for i in 1..n {
        let prev = z[i - 1];
        z.push(i as f64 * prev / nf + 1.0);
    }
    z
}

#[cfg(test)]
mod tests {
    use super::*;
    use pwf_markov::lifting::verify_lifting;
    use pwf_markov::structure::is_ergodic;

    #[test]
    fn individual_chain_has_2n_minus_1_states() {
        for n in 1..=6 {
            let c = individual_chain(n).unwrap();
            assert_eq!(c.len(), (1usize << n) - 1, "n = {n}");
        }
    }

    #[test]
    fn global_chain_has_n_states() {
        for n in 1..=20 {
            assert_eq!(global_chain(n).unwrap().len(), n);
        }
    }

    #[test]
    fn lemma_13_chains_are_ergodic_and_lifting_holds() {
        for n in 2..=6 {
            let ind = individual_chain(n).unwrap();
            let glob = global_chain(n).unwrap();
            assert!(is_ergodic(&ind), "individual n={n}");
            assert!(is_ergodic(&glob), "global n={n}");
            let report = verify_lifting(&ind, &glob, lift, 1e-8)
                .unwrap_or_else(|e| panic!("lifting failed for n={n}: {e}"));
            assert!(report.flow_residual < 1e-9);
            assert!(report.stationary_residual < 1e-9);
        }
    }

    #[test]
    fn lemma_14_individual_latency_is_n_times_system() {
        for n in 2..=6 {
            let w = exact_system_latency(n).unwrap();
            let wi = exact_individual_latency(n, 1).unwrap();
            assert!(
                (wi - n as f64 * w).abs() < 1e-6,
                "n={n}: W_i={wi}, n·W={}",
                n as f64 * w
            );
        }
    }

    #[test]
    fn lemma_12_return_time_at_most_2_sqrt_n() {
        for n in [2, 4, 9, 16, 25, 64, 100] {
            let w = return_time_of_win_state(n).unwrap();
            assert!(
                w <= 2.0 * (n as f64).sqrt() + 1e-9,
                "n={n}: W={w} > 2√n={}",
                2.0 * (n as f64).sqrt()
            );
        }
    }

    #[test]
    fn return_time_matches_success_rate_latency() {
        for n in [3, 7, 12] {
            let a = return_time_of_win_state(n).unwrap();
            let b = exact_system_latency(n).unwrap();
            assert!((a - b).abs() < 1e-8, "n={n}: {a} vs {b}");
        }
    }

    #[test]
    fn z_recurrence_matches_hitting_times() {
        // Z(i) is the hitting time of v1 from v_{n−i}.
        let n = 8;
        let chain = global_chain(n).unwrap();
        let target = chain.state_index(&1).unwrap();
        let h = hitting_times(&chain, target).unwrap();
        let z = z_recurrence(n);
        #[allow(clippy::needless_range_loop)] // index loop is clearer here
        for i in 0..n {
            let from_state = n - i; // v_{n-i}
            if from_state == 1 {
                continue; // h[target] is the return time, not Z(n−1).
            }
            let idx = chain.state_index(&from_state).unwrap();
            assert!(
                (z[i] - h[idx]).abs() < 1e-9,
                "Z({i})={} vs hitting from v_{from_state}={}",
                z[i],
                h[idx]
            );
        }
    }

    #[test]
    fn z_asymptotics_ramanujan() {
        // Z(n−1) → √(πn/2): check the ratio approaches 1 from n=100 up.
        for n in [100usize, 400, 1600] {
            let z = z_recurrence(n);
            let asym = (std::f64::consts::PI * n as f64 / 2.0).sqrt();
            let ratio = z[n - 1] / asym;
            assert!(
                (ratio - 1.0).abs() < 0.1,
                "n={n}: Z(n-1)={}, asym={asym}",
                z[n - 1]
            );
        }
    }

    #[test]
    fn corollary_3_scaling() {
        // W_i = n·W = O(n√n): for n=6 check W_i/(n√n) is order 1.
        let n = 6;
        let wi = exact_individual_latency(n, 0).unwrap();
        let norm = wi / (n as f64 * (n as f64).sqrt());
        assert!(norm > 0.3 && norm < 3.0, "normalized W_i = {norm}");
    }

    #[test]
    fn single_process_always_wins() {
        let w = exact_system_latency(1).unwrap();
        assert!((w - 1.0).abs() < 1e-12);
    }

    #[test]
    fn lift_is_popcount() {
        assert_eq!(lift(&0b1011), 3);
        assert_eq!(lift(&0b1), 1);
    }

    #[test]
    fn sparse_latency_matches_dense() {
        use crate::chains::sparse_system_latency;
        use pwf_markov::solve::PowerOptions;
        for n in [4usize, 16, 64] {
            let dense = exact_system_latency(n).unwrap();
            let chain = sparse_global_chain(n).unwrap();
            let opts = PowerOptions::new(400_000, 1e-12);
            let (sparse, stats) =
                sparse_system_latency(&chain, |&i| i as f64 / n as f64, &opts, None).unwrap();
            assert!(
                (dense - sparse).abs() / dense < 1e-6,
                "n={n}: dense {dense} vs sparse {sparse}"
            );
            assert!(stats.iterations > 0);
        }
    }

    #[test]
    fn sparse_return_time_is_pinned_bitwise() {
        // The Gauss–Seidel return time of v_1 that exp_fai_chain prints
        // as 'W GS', pinned at the default options.
        let opts = GaussSeidelOptions::default();
        for (n, bits) in [
            (3usize, 0x3ffe_38e3_8e38_e38f_u64),
            (100, 0x4028_6b7f_f5b0_3498),
            (4096, 0x4053_f858_691e_f1f5),
        ] {
            let w = sparse_return_time_of_win_state(n, &opts, None).unwrap();
            assert_eq!(w.to_bits(), bits, "n={n}: W = {w}");
        }
    }

    #[test]
    fn sparse_return_time_matches_dense_and_scales() {
        let opts = GaussSeidelOptions::default();
        for n in [4usize, 16, 64] {
            let dense = return_time_of_win_state(n).unwrap();
            let sparse = sparse_return_time_of_win_state(n, &opts, None).unwrap();
            assert!(
                (dense - sparse).abs() < 1e-7,
                "n={n}: dense {dense} vs sparse {sparse}"
            );
        }
        // Far past any dense solve: Lemma 12's 2√n bound must hold.
        let w = sparse_return_time_of_win_state(10_000, &opts, None).unwrap();
        assert!(w <= 2.0 * 100.0 + 1e-6, "W = {w}");
        assert!(w > 100.0, "W = {w} suspiciously small");
    }
}
