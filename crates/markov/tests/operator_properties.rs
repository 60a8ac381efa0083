//! Property-based tests for the implicit-operator substrate: for
//! arbitrary stochastic chains, the [`TransitionOperator`] trait's
//! default row-scatter apply — the path every implicit operator
//! takes — must agree bit-for-bit with the CSR engine, one step at a
//! time and through a whole stationary solve.

// Proptest is an external crate gated behind `heavy-deps` so the
// default workspace builds with zero crates.io dependencies; enable
// the feature to run this suite.
#![cfg(feature = "heavy-deps")]

use proptest::prelude::*;

use pwf_markov::operator::{stationary_operator, TransitionOperator};
use pwf_markov::solve::PowerOptions;
use pwf_markov::sparse::{SparseChain, SparseChainBuilder};

/// Wraps a chain exposing only `row_into`, forcing the trait's
/// *default* `apply_into` instead of any CSR-specialized override.
struct RowsOnly<'a>(&'a SparseChain<usize>);

impl TransitionOperator for RowsOnly<'_> {
    fn len(&self) -> usize {
        self.0.len()
    }

    fn row_into(&self, i: usize, row: &mut Vec<(u32, f64)>) {
        row.clear();
        row.extend(self.0.row(i));
    }
}

/// Raw material for one row: arbitrary extra targets (possibly
/// duplicated) plus guaranteed self-loop / to-zero / to-next weights.
type RowSpec = (Vec<(usize, u32)>, u32, u32, u32);

/// Builds a row-stochastic chain on states `0..n`: every row gets a
/// self-loop, an edge to state 0, and an edge to the next state
/// (mod n) — guaranteeing irreducibility and aperiodicity — plus the
/// extra targets, with integer weights normalized to sum to 1.
fn build_chain(n: usize, rows: Vec<RowSpec>) -> SparseChain<usize> {
    let mut b = SparseChainBuilder::new();
    for s in 0..n {
        b.state(s);
    }
    for (i, (extra, w_self, w_zero, w_next)) in rows.into_iter().enumerate() {
        let total = f64::from(w_self + w_zero + w_next)
            + extra.iter().map(|&(_, w)| f64::from(w)).sum::<f64>();
        b.transition(i, i, f64::from(w_self) / total);
        b.transition(i, 0, f64::from(w_zero) / total);
        b.transition(i, (i + 1) % n, f64::from(w_next) / total);
        for (j, w) in extra {
            b.transition(i, j, f64::from(w) / total);
        }
    }
    b.build().expect("rows are normalized")
}

/// A random chain paired with a start distribution over its states
/// (zero entries are kept — they exercise the scatter loop's skip
/// path).
fn chain_and_dist() -> impl Strategy<Value = (SparseChain<usize>, Vec<f64>)> {
    (1usize..12)
        .prop_flat_map(|n| {
            let row = (
                prop::collection::vec((0usize..n, 1u32..50), 0..4),
                1u32..50,
                1u32..50,
                1u32..50,
            );
            (
                Just(n),
                prop::collection::vec(row, n),
                prop::collection::vec(0u32..20, n),
            )
        })
        .prop_map(|(n, rows, weights)| {
            let chain = build_chain(n, rows);
            let mut dist: Vec<f64> = weights.into_iter().map(f64::from).collect();
            if dist.iter().all(|&w| w == 0.0) {
                dist[0] = 1.0;
            }
            let total: f64 = dist.iter().sum();
            dist.iter_mut().for_each(|w| *w /= total);
            (chain, dist)
        })
}

/// A random chain alone.
fn chains() -> impl Strategy<Value = SparseChain<usize>> {
    chain_and_dist().prop_map(|(chain, _)| chain)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The trait's default row-scatter `apply_into` is bit-identical
    /// to the CSR `step_into` kernel on every chain and start vector.
    #[test]
    fn default_apply_matches_csr_step_bitwise(case in chain_and_dist()) {
        let (chain, dist) = case;
        let mut want = vec![0.0; chain.len()];
        let mut got = vec![0.0; chain.len()];
        chain.step_into(&dist, &mut want);
        RowsOnly(&chain).apply_into(&dist, &mut got);
        for (a, b) in want.iter().zip(&got) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// The stationary solve through the default apply is
    /// bit-identical to the CSR solve: identical pi and identical
    /// iteration count — generating rows on demand changes *where*
    /// rows come from, never the arithmetic.
    #[test]
    fn stationary_via_default_apply_matches_csr_bitwise(chain in chains()) {
        let opts = PowerOptions::new(200_000, 1e-10);
        let csr = chain.stationary_with(&opts, None).expect("irreducible by construction");
        let rows = stationary_operator(&RowsOnly(&chain), &opts, None)
            .expect("irreducible by construction");
        prop_assert_eq!(csr.stats.iterations, rows.stats.iterations);
        for (a, b) in csr.pi.iter().zip(&rows.pi) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// Row generation is deterministic and conservative: two calls
    /// agree bitwise and every row sums to 1 within builder tolerance.
    #[test]
    fn rows_are_deterministic_and_stochastic(chain in chains()) {
        let op = RowsOnly(&chain);
        let mut first = Vec::new();
        let mut second = Vec::new();
        for i in 0..op.len() {
            op.row_into(i, &mut first);
            op.row_into(i, &mut second);
            prop_assert_eq!(&first, &second);
            let sum: f64 = first.iter().map(|&(_, p)| p).sum();
            prop_assert!((sum - 1.0).abs() < 1e-9, "row {} sums to {}", i, sum);
        }
    }
}
