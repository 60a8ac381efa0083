//! One-call simulation experiments: run an [`AlgorithmSpec`] under a
//! [`SchedulerSpec`] and summarize the paper's measures.

use pwf_obs::ObsHandle;
use pwf_sim::crash::{CrashSchedule, CrashScheduleError};
use pwf_sim::executor::{run, run_traced, RunConfig};
use pwf_sim::memory::SharedMemory;
use pwf_sim::process::ProcessId;
use pwf_sim::progress::ProgressReport;
use pwf_sim::stats::{self, CompletionSummary};

use crate::spec::{AlgorithmSpec, SchedulerSpec};

/// A configured simulation experiment.
#[derive(Debug, Clone)]
pub struct SimExperiment {
    /// The algorithm under test.
    pub algorithm: AlgorithmSpec,
    /// The scheduler model.
    pub scheduler: SchedulerSpec,
    /// Number of processes.
    pub n: usize,
    /// System steps to simulate.
    pub steps: u64,
    /// RNG seed.
    pub seed: u64,
    /// Crash events `(time, process index)`.
    pub crashes: Vec<(u64, usize)>,
    /// Observability session (disabled by default; a handle with
    /// tracing on makes [`run`](Self::run) emit scheduler events).
    pub obs: ObsHandle,
}

impl SimExperiment {
    /// A crash-free experiment under the uniform scheduler.
    pub fn new(algorithm: AlgorithmSpec, n: usize, steps: u64) -> Self {
        SimExperiment {
            algorithm,
            scheduler: SchedulerSpec::Uniform,
            n,
            steps,
            seed: 0xABCD,
            crashes: Vec::new(),
            obs: ObsHandle::disabled(),
        }
    }

    /// Attaches an observability session: metrics are recorded after
    /// the run, and scheduler picks/completions/crashes are emitted as
    /// events when the handle has tracing enabled.
    #[must_use]
    pub fn obs(mut self, obs: ObsHandle) -> Self {
        self.obs = obs;
        self
    }

    /// Replaces the scheduler.
    #[must_use]
    pub fn scheduler(mut self, s: SchedulerSpec) -> Self {
        self.scheduler = s;
        self
    }

    /// Replaces the seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Adds a crash event.
    #[must_use]
    pub fn crash(mut self, time: u64, process: usize) -> Self {
        self.crashes.push((time, process));
        self
    }

    /// Runs the experiment.
    ///
    /// # Errors
    ///
    /// Returns an error if the crash schedule is invalid.
    pub fn run(&self) -> Result<SimReport, CrashScheduleError> {
        let crashes = CrashSchedule::new(
            self.crashes
                .iter()
                .map(|&(t, p)| (t, ProcessId::new(p)))
                .collect(),
            self.n,
        )?;
        let crashed: Vec<ProcessId> = self
            .crashes
            .iter()
            .map(|&(_, p)| ProcessId::new(p))
            .collect();

        let mut mem = SharedMemory::new();
        let mut processes = self.algorithm.build(&mut mem, self.n);
        let mut scheduler = self.scheduler.build();
        let config = RunConfig::new(self.steps).seed(self.seed).crashes(crashes);
        let exec = if let Some(tc) = self.obs.trace() {
            let mut recorder = tc.recorder(0);
            run_traced(
                &mut processes,
                scheduler.as_mut(),
                &mut mem,
                &config,
                &mut recorder,
            )
        } else {
            run(&mut processes, scheduler.as_mut(), &mut mem, &config)
        };

        if let Some(metrics) = self.obs.metrics() {
            metrics.counter_add("sim.completions", exec.total_completions());
            metrics.counter_add("sim.steps", exec.steps);
            // Alias-table epoch churn: how often the weighted/lottery
            // samplers paid an O(m) rebuild (0 for other schedulers).
            metrics.counter_add("sim.sampler_rebuilds", scheduler.sampler_rebuilds());
            if let Some(h) = stats::system_latency_histogram(&exec) {
                metrics.merge_histogram("sim.system_gap_steps", h.histogram());
            }
        }

        // One pass over the completions yields every mean and gap below.
        let summary = CompletionSummary::of(&exec);
        let progress_report = ProgressReport::from_summary(&summary, &crashed);
        let individual_means: Vec<Option<f64>> = (0..self.n)
            .map(|i| summary.individual_latency(ProcessId::new(i)))
            .collect();

        Ok(SimReport {
            n: self.n,
            steps: self.steps,
            total_completions: exec.total_completions(),
            completion_rate: stats::completion_rate(&exec),
            system_latency: summary.system_latency(),
            individual_latencies: individual_means,
            process_completions: exec.process_completions.clone(),
            minimal_progress_bound: progress_report.minimal_bound,
            maximal_progress_bound: progress_report.maximal_bound,
        })
    }
}

/// Summary of a simulation run, in the paper's vocabulary.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Number of processes.
    pub n: usize,
    /// System steps simulated.
    pub steps: u64,
    /// Total completed operations.
    pub total_completions: u64,
    /// Completions per system step (`≈ 1/W`).
    pub completion_rate: f64,
    /// Mean system latency `W`, if at least two operations completed.
    pub system_latency: Option<f64>,
    /// Mean individual latency `W_i` per process.
    pub individual_latencies: Vec<Option<f64>>,
    /// Operations completed per process.
    pub process_completions: Vec<u64>,
    /// Measured bounded-minimal-progress bound.
    pub minimal_progress_bound: Option<u64>,
    /// Measured bounded-maximal-progress bound (`None` if some
    /// non-crashed process never completed).
    pub maximal_progress_bound: Option<u64>,
}

impl SimReport {
    /// Mean individual latency averaged over processes with data.
    pub fn mean_individual_latency(&self) -> Option<f64> {
        let vals: Vec<f64> = self
            .individual_latencies
            .iter()
            .flatten()
            .copied()
            .collect();
        if vals.is_empty() {
            None
        } else {
            Some(vals.iter().sum::<f64>() / vals.len() as f64)
        }
    }

    /// Fairness ratio: max over min per-process completions (1.0 =
    /// perfectly fair; the paper's `W_i = n·W` implies ≈ 1 under the
    /// uniform scheduler).
    pub fn fairness_ratio(&self) -> f64 {
        let max = self.process_completions.iter().copied().max().unwrap_or(0);
        let min = self.process_completions.iter().copied().min().unwrap_or(0);
        if min == 0 {
            f64::INFINITY
        } else {
            max as f64 / min as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scu_report_matches_theory_shape() {
        let report = SimExperiment::new(AlgorithmSpec::Scu { q: 0, s: 1 }, 16, 200_000)
            .seed(1)
            .run()
            .unwrap();
        let w = report.system_latency.unwrap();
        // Theorem 5: W = O(√n); for n = 16, W should be well below n.
        assert!(w < 16.0, "W = {w}");
        assert!(w > 1.0);
        // Fairness under the uniform scheduler.
        assert!(report.fairness_ratio() < 1.5);
        // W_i ≈ n·W.
        let wi = report.mean_individual_latency().unwrap();
        assert!(
            (wi / (16.0 * w) - 1.0).abs() < 0.2,
            "W_i/(nW) = {}",
            wi / (16.0 * w)
        );
    }

    #[test]
    fn crash_reduces_to_k_processes() {
        let report = SimExperiment::new(AlgorithmSpec::FetchAndInc, 4, 100_000)
            .crash(10, 0)
            .crash(10, 1)
            .seed(2)
            .run()
            .unwrap();
        // Crashed processes take (almost) no steps.
        assert!(report.process_completions[0] <= 10);
        assert!(report.process_completions[1] <= 10);
        assert!(report.process_completions[2] > 1000);
    }

    #[test]
    fn invalid_crash_schedule_is_an_error() {
        let res = SimExperiment::new(AlgorithmSpec::FetchAndInc, 2, 100)
            .crash(1, 0)
            .crash(2, 1)
            .run();
        assert!(res.is_err());
    }

    #[test]
    fn adversarial_scheduler_starves_in_scu() {
        let report = SimExperiment::new(AlgorithmSpec::Scu { q: 0, s: 1 }, 2, 10_000)
            .scheduler(SchedulerSpec::Adversarial(vec![0, 1]))
            .run()
            .unwrap();
        assert_eq!(report.maximal_progress_bound, None);
        assert!(report.minimal_progress_bound.is_some());
    }

    #[test]
    fn observed_run_collects_metrics_and_events() {
        let obs = ObsHandle::collecting(Some(1 << 12));
        let report = SimExperiment::new(AlgorithmSpec::FetchAndInc, 2, 2_000)
            .seed(7)
            .obs(obs.clone())
            .run()
            .unwrap();
        let snap = obs.metrics().unwrap().snapshot();
        let completions = snap
            .counters
            .iter()
            .find(|(n, _)| n == "sim.completions")
            .map(|&(_, v)| v)
            .unwrap();
        assert_eq!(completions, report.total_completions);
        // One event per pick plus one per completion, no crashes
        // (empty only if pwf-obs was built with tracing off).
        let events = obs.trace().unwrap().events();
        if !events.is_empty() {
            assert_eq!(events.len() as u64, 2_000 + report.total_completions);
        }
    }

    #[test]
    fn weighted_run_reports_sampler_rebuild_metric() {
        let obs = ObsHandle::collecting(None);
        // A crash partway through forces at least the initial build;
        // the counter must surface through the obs session.
        SimExperiment::new(AlgorithmSpec::FetchAndInc, 4, 5_000)
            .scheduler(SchedulerSpec::Weighted(vec![1.0, 2.0, 3.0, 4.0]))
            .crash(1_000, 0)
            .seed(11)
            .obs(obs.clone())
            .run()
            .unwrap();
        let snap = obs.metrics().unwrap().snapshot();
        let rebuilds = snap
            .counters
            .iter()
            .find(|(n, _)| n == "sim.sampler_rebuilds")
            .map(|&(_, v)| v)
            .unwrap();
        assert!(rebuilds >= 1, "alias sampler should have built a table");
    }

    #[test]
    fn uniform_scheduler_gives_maximal_progress() {
        let report = SimExperiment::new(AlgorithmSpec::Scu { q: 0, s: 1 }, 4, 100_000)
            .seed(3)
            .run()
            .unwrap();
        assert!(report.maximal_progress_bound.is_some());
    }
}
