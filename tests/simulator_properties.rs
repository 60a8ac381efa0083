//! Property-based tests on the simulator: executions are well-formed
//! regardless of algorithm, scheduler, seed, or crash pattern.

use practically_wait_free::core::{AlgorithmSpec, SchedulerSpec, SimExperiment};
use proptest::prelude::*;

fn arb_algorithm() -> impl Strategy<Value = AlgorithmSpec> {
    prop_oneof![
        (0usize..6, 1usize..4).prop_map(|(q, s)| AlgorithmSpec::Scu { q, s }),
        (1usize..6).prop_map(|q| AlgorithmSpec::Parallel { q }),
        Just(AlgorithmSpec::FetchAndInc),
        Just(AlgorithmSpec::Unbounded),
        Just(AlgorithmSpec::TreiberStack),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn executions_are_well_formed(
        algorithm in arb_algorithm(),
        n in 1usize..6,
        seed in 0u64..1000,
    ) {
        let steps = 5_000u64;
        let report = SimExperiment::new(algorithm, n, steps).seed(seed).run().unwrap();
        // Steps conserved.
        prop_assert_eq!(report.steps, steps);
        // Completions cannot exceed steps.
        prop_assert!(report.total_completions <= steps);
        // Per-process completions sum to the total.
        prop_assert_eq!(
            report.process_completions.iter().sum::<u64>(),
            report.total_completions
        );
        // Completion rate in [0, 1].
        prop_assert!((0.0..=1.0).contains(&report.completion_rate));
    }

    #[test]
    fn any_scheduler_produces_minimal_progress_for_bounded_algorithms(
        n in 2usize..6,
        seed in 0u64..1000,
        sched_seed in 0u64..4,
    ) {
        // SCU is lock-free: under ANY of our schedulers some process
        // keeps completing (minimal progress) — the defining property.
        let scheduler = match sched_seed {
            0 => SchedulerSpec::Uniform,
            1 => SchedulerSpec::Sticky(0.5),
            2 => SchedulerSpec::Lottery((1..=n as u64).collect()),
            _ => SchedulerSpec::Adversarial((0..n).collect()),
        };
        let report = SimExperiment::new(AlgorithmSpec::Scu { q: 0, s: 1 }, n, 20_000)
            .scheduler(scheduler)
            .seed(seed)
            .run()
            .unwrap();
        prop_assert!(report.minimal_progress_bound.is_some());
        // Lock-freedom quantified: some completion every ≤ 3n steps
        // under any schedule (scan + CAS per "round" of interference).
        prop_assert!(report.minimal_progress_bound.unwrap() <= (3 * n) as u64 + 3);
    }

    #[test]
    fn determinism_same_seed_same_report(
        algorithm in arb_algorithm(),
        n in 1usize..5,
        seed in 0u64..100,
    ) {
        let run = |s| {
            let r = SimExperiment::new(algorithm.clone(), n, 3_000).seed(s).run().unwrap();
            (r.total_completions, r.process_completions.clone())
        };
        prop_assert_eq!(run(seed), run(seed));
    }

    #[test]
    fn crashes_never_unblock_more_completions(
        n in 3usize..6,
        seed in 0u64..100,
        crash_time in 100u64..2_000,
    ) {
        // A crashed process takes (almost) no steps after its crash.
        let report = SimExperiment::new(AlgorithmSpec::FetchAndInc, n, 10_000)
            .seed(seed)
            .crash(crash_time, 0)
            .run()
            .unwrap();
        prop_assert!(report.process_completions[0] <= crash_time);
        // Survivors still progress.
        prop_assert!(report.total_completions > 0);
    }

    #[test]
    fn scheduler_specs_respect_theta_semantics(n in 1usize..8, p in 0.0f64..0.9) {
        prop_assert!((SchedulerSpec::Uniform.theta(n) - 1.0 / n as f64).abs() < 1e-12);
        prop_assert!(SchedulerSpec::Sticky(p).theta(n) > 0.0);
        prop_assert_eq!(SchedulerSpec::Adversarial(vec![0]).theta(n), 0.0);
    }
}

#[test]
fn trace_statistics_are_consistent_with_uniform_scheduling() {
    use practically_wait_free::sim::executor::{run, RunConfig};
    use practically_wait_free::sim::memory::SharedMemory;
    use practically_wait_free::sim::process::{Process, ProcessId, TickingProcess};
    use practically_wait_free::sim::scheduler::UniformScheduler;
    use practically_wait_free::sim::stats::{conditional_next_step, step_share};

    let n = 6;
    let mut mem = SharedMemory::new();
    let r = mem.alloc(0);
    let mut ps: Vec<Box<dyn Process>> = (0..n)
        .map(|_| Box::new(TickingProcess::new(r, 3)) as Box<dyn Process>)
        .collect();
    let exec = run(
        &mut ps,
        &mut UniformScheduler::new(),
        &mut mem,
        &RunConfig::new(300_000).seed(5).record_trace(true),
    );
    // Figure 3 analogue: step shares ≈ 1/n.
    for share in step_share(&exec) {
        assert!((share - 1.0 / n as f64).abs() < 0.01, "share {share}");
    }
    // Figure 4 analogue: conditional next-step ≈ uniform.
    let d = conditional_next_step(&exec, ProcessId::new(0)).unwrap();
    for p in d {
        assert!((p - 1.0 / n as f64).abs() < 0.02, "conditional {p}");
    }
}
