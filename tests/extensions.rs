//! Integration tests for the workspace's extensions beyond the
//! paper's headline results: the blocking baseline, quantum/priority
//! scheduling, the fine-grained `SCU(0, s)` chain, sparse large-`n`
//! analysis, mixing times, and the α-fit.

use practically_wait_free::algorithms::chains::{scan, scu};
use practically_wait_free::algorithms::lock::predicted_system_latency;
use practically_wait_free::ballsbins::game::mean_phase_length;
use practically_wait_free::core::progress_audit::audit;
use practically_wait_free::core::{AlgorithmSpec, SchedulerSpec, SimExperiment};
use practically_wait_free::markov::mixing::lazy_mixing_time;
use practically_wait_free::markov::solve::PowerOptions;
use practically_wait_free::theory::fitting::fit_scu_alpha;
use pwf_rng::rngs::StdRng;
use pwf_rng::SeedableRng;

#[test]
fn lock_counter_latency_matches_closed_form() {
    for (n, cs) in [(4usize, 1usize), (8, 2), (16, 3)] {
        let w = SimExperiment::new(AlgorithmSpec::LockCounter { cs_len: cs }, n, 400_000)
            .seed(201)
            .run()
            .unwrap()
            .system_latency
            .unwrap();
        let pred = predicted_system_latency(n, cs);
        assert!(
            (w - pred).abs() / pred < 0.05,
            "n={n}, cs={cs}: W={w} vs {pred}"
        );
    }
}

#[test]
fn lock_free_asymptotically_dominates_lock_based() {
    // The ratio W_lock / W_lockfree grows with n (Θ(n) vs Θ(√n)).
    let ratio = |n: usize| {
        let lock = SimExperiment::new(AlgorithmSpec::LockCounter { cs_len: 2 }, n, 300_000)
            .seed(202)
            .run()
            .unwrap()
            .system_latency
            .unwrap();
        let free = SimExperiment::new(AlgorithmSpec::FetchAndInc, n, 300_000)
            .seed(202)
            .run()
            .unwrap()
            .system_latency
            .unwrap();
        lock / free
    };
    let r4 = ratio(4);
    let r32 = ratio(32);
    assert!(r32 > 1.8 * r4, "ratio at 32 ({r32}) vs at 4 ({r4})");
}

#[test]
fn quantum_scheduler_keeps_wait_freedom_and_cuts_latency() {
    let uniform = audit(
        AlgorithmSpec::Scu { q: 0, s: 1 },
        SchedulerSpec::Uniform,
        8,
        300_000,
        203,
    )
    .unwrap();
    let quantum = audit(
        AlgorithmSpec::Scu { q: 0, s: 1 },
        SchedulerSpec::Quantum(0.1),
        8,
        300_000,
        203,
    )
    .unwrap();
    assert!(uniform.achieved_maximal_progress());
    assert!(quantum.achieved_maximal_progress());

    let w_uniform = SimExperiment::new(AlgorithmSpec::Scu { q: 0, s: 1 }, 8, 300_000)
        .seed(203)
        .run()
        .unwrap()
        .system_latency
        .unwrap();
    let w_quantum = SimExperiment::new(AlgorithmSpec::Scu { q: 0, s: 1 }, 8, 300_000)
        .scheduler(SchedulerSpec::Quantum(0.1))
        .seed(203)
        .run()
        .unwrap()
        .system_latency
        .unwrap();
    assert!(
        w_quantum < w_uniform,
        "quantum {w_quantum} should beat uniform {w_uniform}"
    );
}

#[test]
fn priority_noise_separates_stochastic_from_adversarial() {
    let noisy = audit(
        AlgorithmSpec::Scu { q: 0, s: 1 },
        SchedulerSpec::Priority(0.1),
        4,
        300_000,
        204,
    )
    .unwrap();
    assert!(noisy.theta > 0.0);
    assert!(noisy.achieved_maximal_progress());

    let pure = audit(
        AlgorithmSpec::Scu { q: 0, s: 1 },
        SchedulerSpec::Priority(0.0),
        4,
        100_000,
        204,
    )
    .unwrap();
    assert_eq!(pure.theta, 0.0);
    assert!(!pure.achieved_maximal_progress());
}

#[test]
fn ms_queue_behaves_like_the_scu_class_empirically() {
    // Not in SCU(q,s) strictly (helping), but wait-free in practice
    // under every stochastic scheduler all the same.
    for sched in [
        SchedulerSpec::Uniform,
        SchedulerSpec::Sticky(0.6),
        SchedulerSpec::Quantum(0.2),
    ] {
        let r = audit(AlgorithmSpec::MsQueue, sched.clone(), 4, 300_000, 205).unwrap();
        assert!(
            r.achieved_maximal_progress(),
            "ms-queue starved under {sched:?}"
        );
    }
}

#[test]
fn scan_chain_agrees_with_game_and_paper_chain_at_s1() {
    let mut rng = StdRng::seed_from_u64(206);
    for n in [4usize, 8, 16] {
        let fine = scan::exact_system_latency(n, 1).unwrap();
        let coarse = scu::exact_system_latency(n).unwrap();
        let game = mean_phase_length(n, 500, 40_000, &mut rng);
        assert!((fine - coarse).abs() / coarse < 1e-7);
        assert!((game - coarse).abs() / coarse < 0.03);
    }
}

#[test]
fn sparse_solver_extends_the_dense_frontier() {
    // Dense is capped at MAX_SYSTEM_N; sparse goes beyond and stays on
    // the √n curve.
    let dense64 = scu::exact_system_latency(64).unwrap();
    let sparse64 = scu::large_system_latency_with(64, &PowerOptions::new(300_000, 1e-12), None)
        .unwrap()
        .0;
    assert!((dense64 - sparse64).abs() < 1e-6);
    let sparse256 = scu::large_system_latency_with(256, &PowerOptions::new(400_000, 1e-11), None)
        .unwrap()
        .0;
    let ratio = (sparse256 / dense64) / (256f64 / 64.0).sqrt();
    assert!(
        (ratio - 1.0).abs() < 0.05,
        "√n scaling violated: ratio {ratio}"
    );
}

#[test]
fn alpha_fit_on_exact_latencies_is_tight() {
    // Fit α on exact chain data: W(n) = offset + α√n should fit with
    // small residual and α ≈ 1.8–2.0.
    let obs: Vec<(usize, usize, f64)> = [8usize, 16, 32, 64, 100]
        .iter()
        .map(|&n| (n, 1, scu::exact_system_latency(n).unwrap()))
        .collect();
    let fit = fit_scu_alpha(&obs);
    assert!(
        fit.alpha > 1.5 && fit.alpha < 2.1,
        "fitted alpha {}",
        fit.alpha
    );
    assert!(
        fit.rms_relative_error < 0.02,
        "residual {}",
        fit.rms_relative_error
    );
}

#[test]
fn mixing_time_small_relative_to_run_lengths() {
    // The stationary regime arrives quickly: t_mix(0.01) for n = 32 is
    // far below the run lengths used across this workspace.
    let chain = scu::system_chain(32).unwrap();
    let start = chain.state_index(&(32, 0)).unwrap();
    let report = lazy_mixing_time(&chain, &[start], 0.01, 100_000).unwrap();
    assert!(report.mixing_time.unwrap() < 1_000);
}

#[test]
fn gap_histogram_tail_is_thin_under_uniform_scheduler() {
    use practically_wait_free::algorithms::scu::{ScuObject, ScuProcess};
    use practically_wait_free::sim::executor::{run, RunConfig};
    use practically_wait_free::sim::memory::SharedMemory;
    use practically_wait_free::sim::process::{Process, ProcessId};
    use practically_wait_free::sim::scheduler::UniformScheduler;
    use practically_wait_free::sim::stats::individual_latency_histogram;

    let n = 8;
    let mut mem = SharedMemory::new();
    let obj = ScuObject::alloc(&mut mem, 1);
    let mut ps: Vec<Box<dyn Process>> = (0..n)
        .map(|i| {
            Box::new(ScuProcess::new(ProcessId::new(i), obj.clone(), 0, 1)) as Box<dyn Process>
        })
        .collect();
    let exec = run(
        &mut ps,
        &mut UniformScheduler::new(),
        &mut mem,
        &RunConfig::new(400_000).seed(207),
    );
    let h = individual_latency_histogram(&exec, ProcessId::new(0)).unwrap();
    // Median within ~2× the mean n·W ≈ 8·5.5; p99.9 within ~10×: the
    // lock-free worst case (unbounded) never materializes.
    let median = h.quantile_upper_bound(0.5);
    let tail = h.quantile_upper_bound(0.999);
    assert!(median <= 128, "median bucket {median}");
    assert!(tail <= 1024, "p99.9 bucket {tail}");
    assert!(h.max_gap() < 4_096, "worst observed gap {}", h.max_gap());
}
