//! Cross-validation: the same quantity computed by independent layers
//! of the workspace must agree — exact chain vs simulator vs
//! balls-into-bins game vs closed forms.

use practically_wait_free::algorithms::chains::{fai, parallel, scu};
use practically_wait_free::ballsbins::game::mean_phase_length;
use practically_wait_free::core::chain_analysis::{analyze, analyze_exhaustive, ChainFamily};
use practically_wait_free::core::{AlgorithmSpec, SimExperiment};
use practically_wait_free::theory::ramanujan::z_worst;
use pwf_rng::rngs::StdRng;
use pwf_rng::SeedableRng;

fn sim_system_latency(spec: AlgorithmSpec, n: usize, steps: u64, seed: u64) -> f64 {
    SimExperiment::new(spec, n, steps)
        .seed(seed)
        .run()
        .expect("crash-free")
        .system_latency
        .expect("completions")
}

#[test]
fn scu01_simulation_matches_exact_chain() {
    for n in [2usize, 4, 8, 16] {
        let exact = scu::exact_system_latency(n).unwrap();
        let sim = sim_system_latency(AlgorithmSpec::Scu { q: 0, s: 1 }, n, 600_000, 101);
        assert!(
            (sim - exact).abs() / exact < 0.03,
            "n={n}: sim {sim} vs exact {exact}"
        );
    }
}

#[test]
fn ballsbins_game_matches_exact_chain() {
    let mut rng = StdRng::seed_from_u64(202);
    for n in [4usize, 16, 64] {
        let exact = scu::exact_system_latency(n).unwrap();
        let game = mean_phase_length(n, 1_000, 60_000, &mut rng);
        assert!(
            (game - exact).abs() / exact < 0.03,
            "n={n}: game {game} vs exact {exact}"
        );
    }
}

#[test]
fn fai_simulation_matches_global_chain() {
    for n in [2usize, 4, 8, 16, 32] {
        let exact = fai::exact_system_latency(n).unwrap();
        let sim = sim_system_latency(AlgorithmSpec::FetchAndInc, n, 600_000, 103);
        assert!(
            (sim - exact).abs() / exact < 0.03,
            "n={n}: sim {sim} vs exact {exact}"
        );
    }
}

#[test]
fn fai_chain_return_time_consistent_with_z_recurrence() {
    // Three routes to the same number: stationary success rate,
    // hitting-time solve, and (as an upper bound) the Z recurrence.
    for n in [3usize, 8, 20, 50] {
        let w_rate = fai::exact_system_latency(n).unwrap();
        let w_hit = fai::return_time_of_win_state(n).unwrap();
        assert!((w_rate - w_hit).abs() < 1e-7, "n={n}");
        assert!(
            w_rate <= z_worst(n) + 1e-9,
            "stationary W below worst-state Z"
        );
    }
}

#[test]
fn parallel_code_three_way_agreement() {
    for (n, q) in [(3usize, 4usize), (5, 2)] {
        let exact = parallel::exact_system_latency(n, q).unwrap();
        assert!((exact - q as f64).abs() < 1e-8, "Lemma 11 exact");
        let sim = sim_system_latency(AlgorithmSpec::Parallel { q }, n, 400_000, 104);
        let rel = (sim - q as f64).abs() / q as f64;
        assert!(rel < 0.03, "sim {sim} vs q={q}");
    }
}

#[test]
fn individual_latency_is_n_times_system_in_simulation() {
    // Theorem 4's fairness claim, measured (not just the chain
    // identity): mean individual latency ≈ n · system latency.
    for (spec, n) in [
        (AlgorithmSpec::Scu { q: 0, s: 1 }, 8usize),
        (AlgorithmSpec::FetchAndInc, 8),
        (AlgorithmSpec::Parallel { q: 3 }, 6),
    ] {
        let report = SimExperiment::new(spec.clone(), n, 600_000)
            .seed(105)
            .run()
            .unwrap();
        let w = report.system_latency.unwrap();
        let wi = report.mean_individual_latency().unwrap();
        assert!(
            (wi / (n as f64 * w) - 1.0).abs() < 0.1,
            "{}: Wi={wi}, n*W={}",
            spec.name(),
            n as f64 * w
        );
    }
}

#[test]
fn exact_analysis_agrees_across_chain_families() {
    // The exhaustive oracle's fairness identity holds for every family
    // (the lifting lemmas 7, 11, 14), and the production analysis
    // (kernel-checked lifting, one sparse system-chain solve,
    // W_i = n·W) agrees with it on W and W_i: at every scu and fai
    // size the oracle enumerates, and at the parallel chain keys the
    // service benchmark draws.
    let parallel = [
        (1, 2),
        (1, 4),
        (1, 6),
        (2, 2),
        (2, 3),
        (2, 4),
        (3, 2),
        (3, 3),
        (3, 4),
    ];
    let families = (1..=scu::MAX_INDIVIDUAL_N)
        .map(|n| (ChainFamily::Scu01, n))
        .chain((1..=fai::MAX_INDIVIDUAL_N).map(|n| (ChainFamily::FetchAndInc, n)))
        .chain(parallel.map(|(q, n)| (ChainFamily::Parallel { q }, n)));
    let rel = |a: f64, b: f64| (a - b).abs() / b;
    for (family, n) in families {
        let oracle = analyze_exhaustive(family, n).unwrap();
        assert!(
            (oracle.fairness_identity() - 1.0).abs() < 1e-7,
            "{family:?} n = {n}"
        );
        assert!(oracle.lifting_flow_residual < 1e-8, "{family:?} n = {n}");
        assert!(
            oracle.lifting_stationary_residual < 1e-8,
            "{family:?} n = {n}"
        );
        let r = analyze(family, n).unwrap();
        assert!(r.kernel_residual <= 1e-12, "{family:?} n = {n}");
        assert_eq!(r.system_states, oracle.system_states, "{family:?} n = {n}");
        let (w, wi) = (r.system_latency, r.individual_latency);
        assert!(
            rel(w, oracle.system_latency) < 1e-9,
            "{family:?} n = {n}: W {w}"
        );
        assert!(
            rel(wi, oracle.individual_latency) < 1e-9,
            "{family:?} n = {n}: W_i {wi}"
        );
    }
}

#[test]
fn scu_qs_preamble_bound_brackets_latency() {
    // Theorem 4 gives the UPPER bound W(q, s) ≤ q + α·s·√n. The naive
    // additive guess q + W(0, s) over-counts: while processes sit in
    // the preamble they do not contend in the loop, so the measured
    // W(q, s) lands strictly between q + s + 1 (zero contention) and
    // q + W(0, s) (full contention).
    let n = 8;
    let w0 = sim_system_latency(AlgorithmSpec::Scu { q: 0, s: 1 }, n, 600_000, 106);
    let w10 = sim_system_latency(AlgorithmSpec::Scu { q: 10, s: 1 }, n, 600_000, 106);
    assert!(
        w10 > 10.0 + 2.0 - 0.1,
        "W(10,1)={w10} below the contention-free floor"
    );
    assert!(
        w10 <= 10.0 + w0 + 0.1,
        "W(10,1)={w10} exceeds the additive upper bound {}",
        10.0 + w0
    );
    // And the preamble dominates for large q: latency grew by most of
    // q (the rest is absorbed by the reduced loop contention).
    assert!(
        w10 - w0 > 6.0,
        "preamble barely moved the latency: {w0} -> {w10}"
    );
}
