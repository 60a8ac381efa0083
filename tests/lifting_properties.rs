//! Property-based tests for the Markov-chain substrate: stationary
//! distributions, hitting times, ergodic flow, and liftings on
//! randomly generated chains.

use practically_wait_free::markov::chain::MarkovChain;
use practically_wait_free::markov::flow::ErgodicFlow;
use practically_wait_free::markov::hitting::hitting_times;
use practically_wait_free::markov::lifting::verify_lifting;
use practically_wait_free::markov::linalg::Matrix;
use practically_wait_free::markov::stationary::{balance_residual, stationary_distribution};
use practically_wait_free::markov::structure::is_irreducible;
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn stationary_is_a_normalized_fixed_point(chain in (2usize..8).prop_flat_map(random_ergodic_chain)) {
        let pi = stationary_distribution(&chain).unwrap();
        prop_assert!((pi.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        prop_assert!(pi.iter().all(|&p| p >= -1e-12));
        prop_assert!(balance_residual(&chain, &pi) < 1e-9);
    }

    #[test]
    fn return_times_match_reciprocal_stationary(chain in (2usize..7).prop_flat_map(random_ergodic_chain)) {
        let pi = stationary_distribution(&chain).unwrap();
        for j in 0..chain.len() {
            let h = hitting_times(&chain, j).unwrap();
            prop_assert!((h[j] - 1.0 / pi[j]).abs() / (1.0 / pi[j]) < 1e-7,
                "state {}: h={} vs 1/pi={}", j, h[j], 1.0 / pi[j]);
        }
    }

    #[test]
    fn ergodic_flow_is_conserved(chain in (2usize..8).prop_flat_map(random_ergodic_chain)) {
        let flow = ErgodicFlow::compute(&chain).unwrap();
        prop_assert!((flow.total() - 1.0).abs() < 1e-9);
        prop_assert!(flow.conservation_residual() < 1e-9);
    }

    #[test]
    fn identity_map_is_always_a_lifting(chain in (2usize..8).prop_flat_map(random_ergodic_chain)) {
        let report = verify_lifting(&chain, &chain, |&s| s, 1e-8).unwrap();
        prop_assert!(report.flow_residual < 1e-10);
        prop_assert!(report.stationary_residual < 1e-10);
    }

    #[test]
    fn random_chains_are_irreducible_by_construction(chain in (2usize..8).prop_flat_map(random_ergodic_chain)) {
        prop_assert!(is_irreducible(&chain));
    }

    #[test]
    fn product_lifting_collapses_correctly(base in (2usize..5).prop_flat_map(random_ergodic_chain)) {
        // Lift the base chain by pairing it with an independent fair
        // coin that flips at every step: states (s, b), transition
        // (s,b) -> (s', 1-b) with probability P[s->s']/1... coin flips
        // to either side with prob 1/2.
        let n = base.len();
        let mut m = Matrix::zeros(2 * n, 2 * n);
        for s in 0..n {
            for b in 0..2 {
                for s2 in 0..n {
                    for b2 in 0..2 {
                        m[(s * 2 + b, s2 * 2 + b2)] = base.prob(s, s2) * 0.5;
                    }
                }
            }
        }
        let lifted = MarkovChain::from_matrix((0..2 * n).collect(), m).unwrap();
        let report = verify_lifting(&lifted, &base, |&x| x / 2, 1e-8).unwrap();
        prop_assert!(report.flow_residual < 1e-9);
        prop_assert!(report.stationary_residual < 1e-9);
    }
}

#[test]
fn paper_liftings_all_verify() {
    use practically_wait_free::algorithms::chains::{fai, parallel, scu};
    // One consolidated sweep of every lifting the paper claims.
    for n in 2..=6 {
        let r = verify_lifting(
            &fai::individual_chain(n).unwrap(),
            &fai::global_chain(n).unwrap(),
            fai::lift,
            1e-8,
        )
        .unwrap();
        assert!(r.flow_residual < 1e-9, "fai n={n}");
    }
    for n in 2..=5 {
        let r = verify_lifting(
            &scu::individual_chain(n).unwrap(),
            &scu::system_chain(n).unwrap(),
            scu::lift,
            1e-8,
        )
        .unwrap();
        assert!(r.flow_residual < 1e-9, "scu n={n}");
    }
    for (n, q) in [(2usize, 4usize), (3, 3), (4, 2)] {
        let r = verify_lifting(
            &parallel::individual_chain(n, q).unwrap(),
            &parallel::system_chain(n, q).unwrap(),
            |s| parallel::lift(s, q),
            1e-8,
        )
        .unwrap();
        assert!(r.flow_residual < 1e-9, "parallel n={n} q={q}");
    }
}
