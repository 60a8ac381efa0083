//! Oracle test for the one-pass [`CompletionSummary`]: on seeded
//! executions, with and without crashes, every mean and worst gap it
//! reports equals the per-process rescan it replaced, bit for bit.

use pwf_sim::executor::{run, Execution, RunConfig};
use pwf_sim::memory::SharedMemory;
use pwf_sim::process::{Process, ProcessId, TickingProcess};
use pwf_sim::progress::{self, ProgressReport};
use pwf_sim::scheduler::UniformScheduler;
use pwf_sim::stats::{self, CompletionSummary};
use pwf_sim::CrashSchedule;

/// The per-process reference: worst gap between consecutive times plus
/// the leading gap from step 0 and the trailing gap to the end of the
/// run. `None` when `times` is empty.
fn worst_gap(times: &[u64], total_steps: u64) -> Option<u64> {
    let first = *times.first()?;
    let mut worst = first;
    for w in times.windows(2) {
        worst = worst.max(w[1] - w[0]);
    }
    Some(worst.max(total_steps - times.last().expect("non-empty")))
}

/// [`progress::measure`] restated over per-process rescans.
fn reference_progress(exec: &Execution, crashed: &[ProcessId]) -> ProgressReport {
    let all: Vec<u64> = exec.completions.iter().map(|c| c.time).collect();
    let per_process_bound: Vec<Option<u64>> = (0..exec.process_count())
        .map(|i| worst_gap(&exec.completion_times(ProcessId::new(i)), exec.steps))
        .collect();
    let maximal_bound = (0..exec.process_count())
        .filter(|&i| !crashed.contains(&ProcessId::new(i)))
        .map(|i| per_process_bound[i])
        .try_fold(0u64, |acc, b| b.map(|b| acc.max(b)));
    ProgressReport {
        minimal_bound: worst_gap(&all, exec.steps),
        maximal_bound,
        per_process_bound,
    }
}

/// `n` ticking processes whose periods spread from 1 (a completion
/// per step) to far past the steps a process gets (none at all).
fn execute(n: usize, steps: u64, seed: u64, crashes: &[(u64, usize)]) -> Execution {
    let mut mem = SharedMemory::new();
    let r = mem.alloc(0);
    let per_process = steps / n as u64 + 1;
    let mut processes: Vec<Box<dyn Process>> = (0..n)
        .map(|i| {
            let period = 1 + (i as u64 * 7919 + seed) % (2 * per_process);
            Box::new(TickingProcess::new(r, period)) as Box<dyn Process>
        })
        .collect();
    let schedule = CrashSchedule::new(
        crashes
            .iter()
            .map(|&(t, p)| (t, ProcessId::new(p)))
            .collect(),
        n,
    )
    .expect("valid crash schedule");
    let config = RunConfig::new(steps).seed(seed).crashes(schedule);
    run(
        &mut processes,
        &mut UniformScheduler::new(),
        &mut mem,
        &config,
    )
}

#[test]
fn one_pass_summary_matches_per_process_rescans_bit_for_bit() {
    let mut cases = vec![
        (1, 1, vec![]),
        (1, 3, vec![]),
        (1, 500, vec![]),
        (2, 40, vec![]),
        (2, 400, vec![(5, 1)]),
        (16, 2_000, vec![]),
        (16, 2_000, vec![(1, 3), (40, 7), (900, 12)]),
        (1024, 60_000, vec![]),
    ];
    // A tenth of the large fleet crashes, staggered through the run.
    cases.push((
        1024,
        60_000,
        (0..1024)
            .step_by(10)
            .map(|p| (1 + p as u64 * 50, p))
            .collect(),
    ));

    let mut seen = [false; 3]; // processes completing 0, 1, many times
    for (n, steps, crashes) in cases {
        let crashed: Vec<ProcessId> = crashes.iter().map(|&(_, p)| ProcessId::new(p)).collect();
        for seed in [1, 7, 2024] {
            let exec = execute(n, steps, seed, &crashes);
            let summary = CompletionSummary::of(&exec);
            let label = format!(
                "n = {n}, steps = {steps}, crashes = {}, seed = {seed}",
                crashes.len()
            );

            assert_eq!(
                summary.system_latency().map(f64::to_bits),
                stats::system_latency(&exec).map(|s| s.mean.to_bits()),
                "system latency, {label}"
            );
            let mut means = Vec::new();
            for i in 0..n {
                let p = ProcessId::new(i);
                let reference = stats::individual_latency(&exec, p).map(|s| s.mean);
                assert_eq!(
                    summary.individual_latency(p).map(f64::to_bits),
                    reference.map(f64::to_bits),
                    "W_{i}, {label}"
                );
                means.extend(reference);
                seen[exec.process_completions[i].min(2) as usize] = true;
            }
            let mean_reference = (!means.is_empty())
                .then(|| means.iter().fold(0.0, |a, b| a + b) / means.len() as f64);
            assert_eq!(
                stats::mean_individual_latency(&exec).map(f64::to_bits),
                mean_reference.map(f64::to_bits),
                "mean W_i, {label}"
            );

            let reference = reference_progress(&exec, &crashed);
            assert_eq!(progress::measure(&exec, &crashed), reference, "{label}");
            assert_eq!(
                ProgressReport::from_summary(&summary, &crashed),
                reference,
                "{label}"
            );
        }
    }
    assert_eq!(seen, [true; 3], "cases cover 0, 1 and many completions");
}
