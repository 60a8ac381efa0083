//! Exact chains for parallel code (paper, Section 6.2, Lemmas 10–11).
//!
//! Individual chain `M_I`: states are counter vectors
//! `(C_1, …, C_n) ∈ {0, …, q−1}ⁿ`; a step increments one counter mod
//! `q`, and a wrap is a completed operation. Its stationary
//! distribution is uniform, giving `W_i = n·q` and `W = q`.
//!
//! System chain `M_S`: states are the occupancy vectors
//! `(v_0, …, v_{q−1})` with `Σ v_j = n`.

use pwf_markov::chain::{ChainError, MarkovChain};
use pwf_markov::sparse::{SparseChain, SparseChainBuilder};
use pwf_markov::stationary::stationary_distribution;

use super::scu::LatencyError;
use super::{latency_from_success_probabilities, ChainFamily};

/// A state of the individual chain: per-process step counters.
pub type CounterState = Vec<u8>;

/// A state of the system chain: `v_j` = number of processes with
/// counter value `j`.
pub type OccupancyState = Vec<u8>;

/// Bound on `qⁿ`, the individual-chain state count.
pub const MAX_INDIVIDUAL_STATES: usize = 20_000;

/// The lifting map of Lemma 10: counter vector ↦ occupancy vector.
pub fn lift(state: &CounterState, q: usize) -> OccupancyState {
    let mut v = vec![0u8; q];
    for &c in state {
        v[c as usize] += 1;
    }
    v
}

/// Builds the individual chain `M_I` for `n` processes and `q`-step
/// method calls.
///
/// # Errors
///
/// Propagates chain-validation errors (none occur for valid inputs).
///
/// # Panics
///
/// Panics unless `ChainFamily::Parallel { q }.admits(n)`
/// ([`ChainFamily::admits`]): `1 ≤ q, n ≤ 255` and
/// `qⁿ ≤` [`MAX_INDIVIDUAL_STATES`].
pub fn individual_chain(n: usize, q: usize) -> Result<MarkovChain<CounterState>, ChainError> {
    sparse_individual_chain(n, q)?.to_dense()
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
/// Panics unless `ChainFamily::Parallel { q }.admits(n)`
/// ([`ChainFamily::admits`]): `1 ≤ q, n ≤ 255` and
/// `qⁿ ≤` [`MAX_INDIVIDUAL_STATES`].
pub fn sparse_individual_chain(
    n: usize,
    q: usize,
) -> Result<SparseChain<CounterState>, ChainError> {
    assert!(
        ChainFamily::Parallel { q }.admits(n),
        "q = {q}, n = {n} exceeds the chain caps (1 ≤ q, n ≤ 255 and q^n ≤ {MAX_INDIVIDUAL_STATES})"
    );

    // Enumerate {0..q−1}^n.
    let mut states: Vec<CounterState> = vec![vec![0u8; n]];
    let mut current = vec![0u8; n];
    'outer: loop {
        let mut i = 0;
        loop {
            current[i] += 1;
            if (current[i] as usize) < q {
                break;
            }
            current[i] = 0;
            i += 1;
            if i == n {
                break 'outer;
            }
        }
        states.push(current.clone());
    }

    let p = 1.0 / n as f64;
    let mut b = SparseChainBuilder::new();
    for s in &states {
        b.state(s.clone());
    }
    for s in &states {
        for i in 0..n {
            let mut next = s.clone();
            next[i] = ((next[i] as usize + 1) % q) as u8;
            b.transition(s.clone(), next, p);
        }
    }
    b.build()
}

/// Builds the system chain `M_S`: occupancy vectors of `n` processes
/// over `q` counter values.
///
/// # Errors
///
/// Propagates chain-validation errors (none occur for valid inputs).
///
/// # Panics
///
/// Panics if `n == 0`, `q == 0`, or `n > 255`.
pub fn system_chain(n: usize, q: usize) -> Result<MarkovChain<OccupancyState>, ChainError> {
    sparse_system_chain(n, q)?.to_dense()
}

/// Builds the system chain in sparse (CSR) form — the primary
/// representation (`C(n+q−1, q−1)` states, ≤ `q` transitions each);
/// [`system_chain`] is its dense conversion.
///
/// # Errors
///
/// Propagates chain-validation errors (none occur for valid inputs).
///
/// # Panics
///
/// Panics if `n == 0`, `q == 0`, or `n > 255`.
pub fn sparse_system_chain(n: usize, q: usize) -> Result<SparseChain<OccupancyState>, ChainError> {
    assert!(n >= 1 && q >= 1, "need n ≥ 1 and q ≥ 1");
    assert!(n <= 255, "n must fit in a byte");

    // Enumerate compositions of n into q non-negative parts.
    fn compositions(n: usize, q: usize, acc: &mut Vec<u8>, out: &mut Vec<OccupancyState>) {
        if q == 1 {
            let mut full = acc.clone();
            full.push(n as u8);
            out.push(full);
            return;
        }
        for k in 0..=n {
            acc.push(k as u8);
            compositions(n - k, q - 1, acc, out);
            acc.pop();
        }
    }
    let mut states = Vec::new();
    compositions(n, q, &mut Vec::new(), &mut states);

    let nf = n as f64;
    let mut b = SparseChainBuilder::new();
    for s in &states {
        b.state(s.clone());
    }
    for s in &states {
        for j in 0..q {
            if s[j] == 0 {
                continue;
            }
            let mut next = s.clone();
            next[j] -= 1;
            next[(j + 1) % q] += 1;
            b.transition(s.clone(), next, s[j] as f64 / nf);
        }
    }
    b.build()
}

/// Exact system latency of parallel code from the system chain: a
/// step completes an operation iff it advances a counter at `q − 1`.
/// Lemma 11: this is exactly `q`.
///
/// # Errors
///
/// Propagates chain and stationary errors.
pub fn exact_system_latency(n: usize, q: usize) -> Result<f64, LatencyError> {
    let chain = system_chain(n, q)?;
    let pi = stationary_distribution(&chain)?;
    let succ: Vec<f64> = chain
        .states()
        .iter()
        .map(|s| s[q - 1] as f64 / n as f64)
        .collect();
    Ok(latency_from_success_probabilities(&pi, &succ))
}

/// Exact individual latency of process `i` from the individual chain.
/// Lemma 11: this is exactly `n·q`.
///
/// # Errors
///
/// Propagates chain and stationary errors.
///
/// # Panics
///
/// Panics if `i >= n` or the individual chain is too large.
pub fn exact_individual_latency(n: usize, q: usize, i: usize) -> Result<f64, LatencyError> {
    let chain = individual_chain(n, q)?;
    let pi = stationary_distribution(&chain)?;
    Ok(individual_latency_from_stationary(&chain, &pi, n, q, i))
}

/// Individual latency `W_i` of process `i` from the individual chain
/// on `n` processes with `q` steps per call and its stationary
/// distribution `pi` — for callers that already solved the chain.
///
/// # Panics
///
/// Panics if `i >= n` or `pi` does not match the chain's length.
pub fn individual_latency_from_stationary(
    chain: &MarkovChain<CounterState>,
    pi: &[f64],
    n: usize,
    q: usize,
    i: usize,
) -> f64 {
    assert!(i < n, "process index out of range");
    let succ: Vec<f64> = chain
        .states()
        .iter()
        .map(|s| {
            if s[i] as usize == q - 1 {
                1.0 / n as f64
            } else {
                0.0
            }
        })
        .collect();
    latency_from_success_probabilities(pi, &succ)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pwf_markov::lifting::verify_lifting;
    use pwf_markov::structure::analyze;

    #[test]
    fn individual_chain_has_q_pow_n_states() {
        assert_eq!(individual_chain(3, 4).unwrap().len(), 64);
        assert_eq!(individual_chain(2, 5).unwrap().len(), 25);
    }

    #[test]
    fn system_chain_has_binomial_states() {
        // C(n+q−1, q−1) compositions.
        assert_eq!(system_chain(4, 3).unwrap().len(), 15);
        assert_eq!(system_chain(5, 2).unwrap().len(), 6);
    }

    #[test]
    fn individual_stationary_is_uniform() {
        let c = individual_chain(3, 3).unwrap();
        let pi = stationary_distribution(&c).unwrap();
        let u = 1.0 / c.len() as f64;
        for p in pi {
            assert!((p - u).abs() < 1e-10);
        }
    }

    #[test]
    fn lemma_10_lifting_holds() {
        // Deviation note: the paper calls M_I and M_S ergodic, but the
        // counter sum advances by exactly 1 mod q each step, so for
        // q ≥ 2 both chains have period q. They are irreducible, which
        // is what the stationary analysis uses.
        for (n, q) in [(2, 3), (3, 3), (4, 2), (2, 5)] {
            let ind = individual_chain(n, q).unwrap();
            let sys = system_chain(n, q).unwrap();
            let structure = analyze(&ind);
            assert!(structure.irreducible, "individual n={n} q={q}");
            assert_eq!(structure.period, q, "individual n={n} q={q}");
            let report = verify_lifting(&ind, &sys, |s| lift(s, q), 1e-8)
                .unwrap_or_else(|e| panic!("lifting failed for n={n}, q={q}: {e}"));
            assert!(report.flow_residual < 1e-9);
        }
    }

    #[test]
    fn lemma_11_system_latency_is_q() {
        for (n, q) in [(2, 3), (4, 4), (5, 2), (3, 6)] {
            let w = exact_system_latency(n, q).unwrap();
            assert!((w - q as f64).abs() < 1e-8, "n={n}, q={q}: W={w}");
        }
    }

    #[test]
    fn lemma_11_individual_latency_is_nq() {
        for (n, q) in [(2, 3), (3, 3), (4, 2)] {
            let wi = exact_individual_latency(n, q, 0).unwrap();
            assert!((wi - (n * q) as f64).abs() < 1e-8, "n={n}, q={q}: W_i={wi}");
        }
    }

    #[test]
    fn q_one_degenerate_case() {
        // q = 1: every step completes; W = 1, W_i = n.
        let w = exact_system_latency(4, 1).unwrap();
        assert!((w - 1.0).abs() < 1e-12);
        let wi = exact_individual_latency(4, 1, 2).unwrap();
        assert!((wi - 4.0).abs() < 1e-12);
    }

    #[test]
    fn lift_counts_occupancy() {
        assert_eq!(lift(&vec![0, 2, 2, 1], 3), vec![1, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn oversized_chain_panics() {
        let _ = individual_chain(10, 10);
    }
}
