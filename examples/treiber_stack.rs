//! The Treiber stack two ways: the simulated `SCU`-shaped model that
//! `pwf vet` checks for linearizability, and the real lock-free stack on
//! this machine's atomics with a per-operation latency histogram —
//! the measurement that motivates the whole paper (most operations
//! are fast; the adversarial worst case never shows up).
//!
//! Run with: `cargo run --release --example treiber_stack`

use practically_wait_free::core::{AlgorithmSpec, SimExperiment};
use practically_wait_free::hardware::latency::measure_stack_op_latency;
use practically_wait_free::hardware::treiber::TreiberStack;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("Simulated Treiber stack under the uniform stochastic scheduler:");
    println!(
        "{:>4} {:>14} {:>14} {:>10}",
        "n", "ops completed", "W (sys steps)", "fairness"
    );
    for n in [2usize, 4, 8] {
        let report = SimExperiment::new(AlgorithmSpec::TreiberStack, n, 300_000)
            .seed(5)
            .run()?;
        println!(
            "{:>4} {:>14} {:>14.2} {:>10.3}",
            n,
            report.total_completions,
            report.system_latency.unwrap(),
            report.fairness_ratio()
        );
    }
    println!("(these are the processes `pwf vet` explores exhaustively in small");
    println!(" configurations and checks for linearizability)");

    println!("\nReal lock-free stack, sanity check:");
    let stack = TreiberStack::with_capacity(1024);
    for v in 0..10u64 {
        stack.push(v)?;
    }
    let mut popped = Vec::new();
    while let Some(v) = stack.pop() {
        popped.push(v);
    }
    println!("pushed 0..10, popped {popped:?} (LIFO)");

    let threads = std::thread::available_parallelism()?.get().min(8);
    println!("\nPer-operation latency histogram ({threads} threads, 50k push/pop pairs each):");
    let h = measure_stack_op_latency(threads, 50_000);
    println!("{:>12} {:>12}", "≥ ns", "count");
    for (lower, count) in h.non_empty_buckets() {
        println!("{:>12} {:>12}", lower, count);
    }
    println!(
        "\nmedian ≤ {} ns, p99.9 ≤ {} ns, max {} ns over {} ops — the heavy-tail\n\
         adversarial executions allowed by lock-freedom are vanishingly rare in\n\
         practice, which is the phenomenon the paper's model explains.",
        h.quantile_upper_bound(0.5),
        h.quantile_upper_bound(0.999),
        h.max_ns(),
        h.count()
    );
    Ok(())
}
