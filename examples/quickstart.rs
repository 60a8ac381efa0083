//! Quickstart: the paper's headline claim in three views.
//!
//! For the scan-validate pattern `SCU(0, 1)` we compute the system
//! latency `W` three independent ways — exact Markov chain, long-run
//! simulation, and the closed-form `Θ(√n)` prediction — and check the
//! fairness identity `W_i = n·W`.
//!
//! Run with: `cargo run --release --example quickstart`

use practically_wait_free::core::chain_analysis::{analyze_exhaustive, ChainFamily};
use practically_wait_free::core::{AlgorithmSpec, SimExperiment};
use practically_wait_free::theory::bounds::ScuPrediction;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("SCU(0,1) under the uniform stochastic scheduler");
    println!(
        "{:>4} {:>12} {:>12} {:>12} {:>10}",
        "n", "W (exact)", "W (sim)", "W (theory)", "W_i/(n·W)"
    );

    for n in [2usize, 3, 4, 5] {
        // Exact: stationary analysis of the system chain, with the
        // individual→system lifting verified along the way.
        let exact = analyze_exhaustive(ChainFamily::Scu01, n)?;

        // Simulated: 400k scheduler steps of the real state machines.
        let sim = SimExperiment::new(AlgorithmSpec::Scu { q: 0, s: 1 }, n, 400_000)
            .seed(1)
            .run()?;
        let w_sim = sim.system_latency.expect("long run always completes ops");

        // Closed form: q + α·s·√n with α calibrated to n = 2.
        let alpha = (analyze_exhaustive(ChainFamily::Scu01, 2)?.system_latency) / (2.0f64).sqrt();
        let theory = ScuPrediction::with_alpha(0, 1, n, alpha).system_latency();

        println!(
            "{:>4} {:>12.4} {:>12.4} {:>12.4} {:>10.4}",
            n,
            exact.system_latency,
            w_sim,
            theory,
            exact.fairness_identity(),
        );
    }

    println!();
    println!("Larger n — exact system chain up to n = 64, then the step-equivalent");
    println!("balls-into-bins game (Section 6.1.3) as a Monte-Carlo estimator:");
    println!("{:>6} {:>12} {:>10} {:>10}", "n", "W", "W/√n", "method");
    for n in [16usize, 64] {
        let w = practically_wait_free::algorithms::chains::scu::exact_system_latency(n)?;
        println!(
            "{:>6} {:>12.4} {:>10.4} {:>10}",
            n,
            w,
            w / (n as f64).sqrt(),
            "chain"
        );
    }
    use pwf_rng::SeedableRng;
    let mut rng = pwf_rng::rngs::StdRng::seed_from_u64(2);
    for n in [256usize, 1024, 4096] {
        let w = practically_wait_free::ballsbins::game::mean_phase_length(n, 200, 5_000, &mut rng);
        println!(
            "{:>6} {:>12.4} {:>10.4} {:>10}",
            n,
            w,
            w / (n as f64).sqrt(),
            "game"
        );
    }
    println!("\nW/√n is flat: system latency is Θ(√n), not Θ(n) — Theorem 5.");
    Ok(())
}
