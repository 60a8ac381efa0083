//! Property-based tests for the sparse-first Markov engine: the
//! iterative CSR solvers must agree with the dense direct-solve
//! oracle on arbitrary ergodic chains, the CSR representation must
//! round-trip builder input exactly, and its rows must read back
//! deterministically and stochastically.

use practically_wait_free::markov::chain::{ChainBuilder, MarkovChain};
use practically_wait_free::markov::linalg::Matrix;
use practically_wait_free::markov::solve::PowerOptions;
use practically_wait_free::markov::sparse::{SparseChain, SparseChainBuilder};
use practically_wait_free::markov::stationary::stationary_distribution;
use proptest::prelude::*;

/// Strategy: a random irreducible row-stochastic matrix of size n,
/// built by mixing a random non-negative matrix with a cycle (which
/// guarantees strong connectivity) and a touch of self-loop (which
/// guarantees aperiodicity).
fn random_ergodic_chain(n: usize) -> impl Strategy<Value = MarkovChain<usize>> {
    prop::collection::vec(0.01f64..1.0, n * n).prop_map(move |raw| {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            let row = &raw[i * n..(i + 1) * n];
            let sum: f64 = row.iter().sum();
            for j in 0..n {
                // 80% random mass, 10% cycle edge, 10% self loop.
                let mut p = 0.8 * row[j] / sum;
                if j == (i + 1) % n {
                    p += 0.1;
                }
                if j == i {
                    p += 0.1;
                }
                m[(i, j)] = p;
            }
        }
        MarkovChain::from_matrix((0..n).collect(), m).expect("constructed stochastic")
    })
}

/// Strategy: a sparse ergodic chain on a ring with random extra
/// chords — the regime the CSR solvers are built for, at sizes the
/// dense oracle can still check.
fn random_sparse_ergodic_chain(n: usize) -> impl Strategy<Value = MarkovChain<usize>> {
    let chords = prop::collection::vec((0..n, 0..n, 0.05f64..1.0), 1..2 * n + 1);
    chords.prop_map(move |extra| {
        let mut m = Matrix::zeros(n, n);
        // Guaranteed skeleton: half self-loop, half cycle edge.
        for i in 0..n {
            m[(i, i)] += 0.5;
            m[(i, (i + 1) % n)] += 0.5;
        }
        // Random chords, folded in and renormalized row by row.
        for &(i, j, w) in &extra {
            m[(i, j)] += w;
        }
        for i in 0..n {
            let sum: f64 = (0..n).map(|j| m[(i, j)]).sum();
            for j in 0..n {
                m[(i, j)] /= sum;
            }
        }
        MarkovChain::from_matrix((0..n).collect(), m).expect("constructed stochastic")
    })
}

/// Strategy: a builder-made chain on states `0..n` whose rows carry a
/// self-loop, an edge to state 0, an edge to the next state and up to
/// three extra targets, duplicates included (the builder merges
/// them), with integer weights normalized to sum to 1.
fn random_builder_chain() -> impl Strategy<Value = SparseChain<usize>> {
    (1usize..12)
        .prop_flat_map(|n| {
            let row = (
                prop::collection::vec((0usize..n, 1u32..50), 0..4),
                1u32..50,
                1u32..50,
                1u32..50,
            );
            (Just(n), prop::collection::vec(row, n))
        })
        .prop_map(|(n, rows)| {
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
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// CSR rows are deterministic and conservative: two reads of a row
    /// agree bitwise, targets strictly increase, and every row sums to
    /// 1 within builder tolerance.
    #[test]
    fn rows_are_deterministic_and_stochastic(chain in random_builder_chain()) {
        for i in 0..chain.len() {
            let first: Vec<(u32, f64)> = chain.row(i).collect();
            let second: Vec<(u32, f64)> = chain.row(i).collect();
            prop_assert_eq!(&first, &second);
            prop_assert!(first.windows(2).all(|w| w[0].0 < w[1].0), "row {} unsorted", i);
            let sum: f64 = first.iter().map(|&(_, p)| p).sum();
            prop_assert!((sum - 1.0).abs() < 1e-9, "row {} sums to {}", i, sum);
        }
    }

    /// The adaptive sparse power iteration agrees with dense Gaussian
    /// elimination on dense random chains up to n = 64.
    #[test]
    fn sparse_iterative_matches_dense_direct(
        chain in (2usize..65).prop_flat_map(random_ergodic_chain)
    ) {
        let dense_pi = stationary_distribution(&chain).unwrap();
        let sparse = chain.to_sparse();
        let solve = sparse
            .stationary_with(&PowerOptions::new(500_000, 1e-12), None)
            .unwrap();
        for (i, (&d, &s)) in dense_pi.iter().zip(&solve.pi).enumerate() {
            prop_assert!((d - s).abs() < 1e-8,
                "state {}: dense {} vs sparse {}", i, d, s);
        }
    }

    /// Same agreement in the genuinely sparse regime (ring + chords).
    #[test]
    fn sparse_iterative_matches_dense_on_sparse_chains(
        chain in (3usize..49).prop_flat_map(random_sparse_ergodic_chain)
    ) {
        let dense_pi = stationary_distribution(&chain).unwrap();
        let solve = chain
            .to_sparse()
            .stationary_with(&PowerOptions::new(500_000, 1e-12), None)
            .unwrap();
        for (&d, &s) in dense_pi.iter().zip(&solve.pi) {
            prop_assert!((d - s).abs() < 1e-8);
        }
    }

    /// CSR round-trips builder input: the same states and transitions
    /// fed to the dense and sparse builders produce identical state
    /// order and entry-for-entry equal probabilities, and converting
    /// back to dense recovers the dense chain exactly.
    #[test]
    fn csr_round_trips_builder_input(
        entries in prop::collection::vec((0usize..6, 0usize..6, 0.05f64..1.0), 6..30)
    ) {
        // Make every row stochastic: normalize per-source mass.
        let mut row_sum = [0.0f64; 6];
        for &(i, _, w) in &entries {
            row_sum[i] += w;
        }
        let mut dense = ChainBuilder::new();
        let mut sparse = SparseChainBuilder::new();
        for s in 0..6usize {
            dense = dense.state(s);
            sparse.state(s);
        }
        for &(i, j, w) in &entries {
            let p = w / row_sum[i];
            dense = dense.transition(i, j, p);
            sparse.transition(i, j, p);
        }
        // Sources with no entries get a self loop in both builders.
        for (s, &sum) in row_sum.iter().enumerate() {
            if sum == 0.0 {
                dense = dense.transition(s, s, 1.0);
                sparse.transition(s, s, 1.0);
            }
        }
        let dense = dense.build().unwrap();
        let sparse = sparse.build().unwrap();
        prop_assert_eq!(dense.states(), sparse.states());
        for i in 0..dense.len() {
            for j in 0..dense.len() {
                prop_assert!((dense.prob(i, j) - sparse.prob(i, j)).abs() < 1e-15,
                    "({}, {}): dense {} vs sparse {}", i, j,
                    dense.prob(i, j), sparse.prob(i, j));
            }
        }
        let back = sparse.to_dense().unwrap();
        prop_assert_eq!(back.states(), dense.states());
        for i in 0..dense.len() {
            for j in 0..dense.len() {
                prop_assert!((back.prob(i, j) - dense.prob(i, j)).abs() < 1e-15);
            }
        }
    }
}
