//! Latency and schedule statistics (paper, Section 2.4 and Appendix A).
//!
//! * **System latency** `W`: expected system steps between consecutive
//!   completions by *any* process.
//! * **Individual latency** `W_i`: expected system steps between
//!   consecutive completions by a *specific* process.
//! * **Completion rate** (Appendix B): completions per system step,
//!   `≈ 1/W`.
//! * **Schedule statistics** (Appendix A): per-process step share
//!   (Figure 3) and conditional next-step distribution (Figure 4).

use crate::executor::Execution;
use crate::process::ProcessId;

use pwf_obs::Histogram;

/// Records the gaps between consecutive values of `times` into a
/// fresh histogram without materializing the sequence — the
/// allocation-free core behind the latency summaries. `None` if fewer
/// than two times arrive. Non-monotonic pairs saturate to a zero gap,
/// matching [`LatencySummary::from_times`].
fn gap_histogram_of(times: impl Iterator<Item = u64>) -> Option<Histogram> {
    let mut hist = Histogram::new();
    let mut prev: Option<u64> = None;
    for t in times {
        if let Some(p) = prev {
            hist.record(t.saturating_sub(p));
        }
        prev = Some(t);
    }
    if hist.is_empty() {
        None
    } else {
        Some(hist)
    }
}

/// Summary statistics of a sequence of gaps (latencies): exact
/// `count/mean/min/max` plus bucketed `p50/p90/p99/p999` quantile
/// upper bounds. Shared with the hardware measurements via `pwf-obs`.
pub use pwf_obs::LatencySummary;

/// System latency: gaps between consecutive completions by any
/// process. `None` if fewer than two operations completed.
pub fn system_latency(execution: &Execution) -> Option<LatencySummary> {
    gap_histogram_of(execution.completions.iter().map(|c| c.time))
        .as_ref()
        .and_then(LatencySummary::from_histogram)
}

/// Individual latency of process `p`: gaps between its consecutive
/// completions, measured in *system* steps. `None` if it completed
/// fewer than two operations.
///
/// Called once per process per run by the experiment layer; works off
/// [`Execution::completion_times_iter`] so the per-call completion
/// vector the historical version built is gone.
pub fn individual_latency(execution: &Execution, p: ProcessId) -> Option<LatencySummary> {
    gap_histogram_of(execution.completion_times_iter(p))
        .as_ref()
        .and_then(LatencySummary::from_histogram)
}

/// Mean individual latency averaged over all processes that completed
/// at least two operations. `None` if no process did.
pub fn mean_individual_latency(execution: &Execution) -> Option<f64> {
    let summary = CompletionSummary::of(execution);
    let mut sum = 0.0;
    let mut cnt = 0usize;
    for i in 0..summary.process_count() {
        if let Some(mean) = summary.individual_latency(ProcessId::new(i)) {
            sum += mean;
            cnt += 1;
        }
    }
    if cnt == 0 {
        None
    } else {
        Some(sum / cnt as f64)
    }
}

/// The completions of one process, or of all processes together, as
/// four words: how many, the first and last completion time, and the
/// worst gap so far counting the leading gap from step 0.
#[derive(Debug, Clone, Copy, Default)]
struct Track {
    count: u64,
    first: u64,
    last: u64,
    worst_gap: u64,
}

impl Track {
    fn record(&mut self, t: u64) {
        let gap = if self.count == 0 {
            self.first = t;
            t
        } else {
            t - self.last
        };
        self.worst_gap = self.worst_gap.max(gap);
        self.last = t;
        self.count += 1;
    }

    /// Mean gap between consecutive completions. Completions are time
    /// ordered, so the gaps telescope to `last − first`: this equals
    /// the gap histogram's exact mean bit for bit (both divide the same
    /// integers, converted to `f64` once each).
    fn mean_gap(&self) -> Option<f64> {
        (self.count >= 2).then(|| (self.last - self.first) as f64 / (self.count - 1) as f64)
    }

    /// Worst gap including both run edges: from step 0 to the first
    /// completion and from the last one to the end of the run.
    fn worst_gap_until(&self, steps: u64) -> Option<u64> {
        (self.count > 0).then(|| self.worst_gap.max(steps - self.last))
    }
}

/// Every per-process latency and progress quantity of an execution,
/// gathered in one pass over its completions: O(C + n) time for C
/// completions and 4·n words of state, where rescanning the completion
/// list per process costs O(n·C).
///
/// [`progress::measure`](crate::progress::measure) and the experiment
/// layer read their means and worst gaps from here;
/// [`individual_latency`] stays the per-process summary with quantiles.
#[derive(Debug, Clone)]
pub struct CompletionSummary {
    steps: u64,
    all: Track,
    per_process: Vec<Track>,
}

impl CompletionSummary {
    /// Summarises `execution` in one pass over its completions.
    pub fn of(execution: &Execution) -> Self {
        let mut all = Track::default();
        let mut per_process = vec![Track::default(); execution.process_count()];
        for c in &execution.completions {
            all.record(c.time);
            per_process[c.process.index()].record(c.time);
        }
        CompletionSummary {
            steps: execution.steps,
            all,
            per_process,
        }
    }

    /// Number of processes in the summarised execution.
    pub fn process_count(&self) -> usize {
        self.per_process.len()
    }

    /// Mean system latency; equals [`system_latency`]'s mean bit for
    /// bit. `None` if fewer than two operations completed.
    pub fn system_latency(&self) -> Option<f64> {
        self.all.mean_gap()
    }

    /// Mean individual latency of `p`; equals [`individual_latency`]'s
    /// mean bit for bit. `None` if `p` completed fewer than two
    /// operations.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not a process of the execution.
    pub fn individual_latency(&self, p: ProcessId) -> Option<f64> {
        self.per_process[p.index()].mean_gap()
    }

    /// Worst gap between completions by any process, run edges
    /// included: the bounded-minimal-progress bound. `None` if nothing
    /// completed.
    pub fn minimal_bound(&self) -> Option<u64> {
        self.all.worst_gap_until(self.steps)
    }

    /// Worst gap between consecutive completions by `p`, run edges
    /// included. `None` if `p` never completed.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not a process of the execution.
    pub fn process_bound(&self, p: ProcessId) -> Option<u64> {
        self.per_process[p.index()].worst_gap_until(self.steps)
    }
}

/// Completion rate: total completed operations divided by total system
/// steps (the Appendix B measure, approximately `1 / W`).
pub fn completion_rate(execution: &Execution) -> f64 {
    if execution.steps == 0 {
        0.0
    } else {
        execution.total_completions() as f64 / execution.steps as f64
    }
}

/// Per-process share of scheduled steps (Figure 3): fraction of the
/// trace occupied by each process.
///
/// # Panics
///
/// Panics if the execution was run without trace recording.
pub fn step_share(execution: &Execution) -> Vec<f64> {
    let trace = execution
        .trace
        .as_ref()
        .expect("step_share requires record_trace(true)");
    let n = execution.process_count();
    let mut counts = vec![0u64; n];
    for p in trace {
        counts[p.index()] += 1;
    }
    let total = trace.len().max(1) as f64;
    counts.iter().map(|&c| c as f64 / total).collect()
}

/// Conditional next-step distribution (Figure 4): given that `p` took
/// a step, the empirical distribution of the process scheduled at the
/// *next* time step.
///
/// Returns `None` if `p` never appears before the last trace entry.
///
/// # Panics
///
/// Panics if the execution was run without trace recording.
pub fn conditional_next_step(execution: &Execution, p: ProcessId) -> Option<Vec<f64>> {
    let trace = execution
        .trace
        .as_ref()
        .expect("conditional_next_step requires record_trace(true)");
    let n = execution.process_count();
    let mut counts = vec![0u64; n];
    let mut total = 0u64;
    for w in trace.windows(2) {
        if w[0] == p {
            counts[w[1].index()] += 1;
            total += 1;
        }
    }
    if total == 0 {
        return None;
    }
    Some(counts.iter().map(|&c| c as f64 / total as f64).collect())
}

/// A base-2 logarithmic histogram of latency gaps (system steps), the
/// model-side analogue of the hardware per-operation latency
/// distribution: lock-freedom permits unbounded gaps, and the
/// histogram shows how thin the tail actually is under a stochastic
/// scheduler.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct GapHistogram {
    inner: Histogram,
}

impl GapHistogram {
    fn new() -> Self {
        Self::default()
    }

    fn record(&mut self, gap: u64) {
        self.inner.record(gap);
    }

    /// Number of recorded gaps.
    pub fn count(&self) -> u64 {
        self.inner.count()
    }

    /// Largest recorded gap.
    pub fn max_gap(&self) -> u64 {
        self.inner.max_value()
    }

    /// Non-empty buckets as `(lower bound, count)`.
    pub fn non_empty_buckets(&self) -> Vec<(u64, u64)> {
        self.inner.non_empty_buckets()
    }

    /// Smallest bucket upper bound covering at least `quantile` of the
    /// samples.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < quantile <= 1` and the histogram is
    /// non-empty.
    pub fn quantile_upper_bound(&self, quantile: f64) -> u64 {
        self.inner.quantile_upper_bound(quantile)
    }

    /// Reduces the histogram to a quantile-capable summary. `None` if
    /// no gaps were recorded.
    pub fn summary(&self) -> Option<LatencySummary> {
        LatencySummary::from_histogram(&self.inner)
    }

    /// The underlying shared histogram (for merging into a metrics
    /// registry).
    pub fn histogram(&self) -> &Histogram {
        &self.inner
    }
}

/// Histogram of the gaps between consecutive completions by process
/// `p` (its operation latencies, in system steps). `None` if it
/// completed fewer than two operations.
pub fn individual_latency_histogram(execution: &Execution, p: ProcessId) -> Option<GapHistogram> {
    let mut h = GapHistogram::new();
    let mut prev: Option<u64> = None;
    for t in execution.completion_times_iter(p) {
        if let Some(q) = prev {
            h.record(t - q);
        }
        prev = Some(t);
    }
    if h.count() == 0 {
        None
    } else {
        Some(h)
    }
}

/// Histogram of the gaps between consecutive completions by *any*
/// process (system latencies). `None` if fewer than two operations
/// completed.
pub fn system_latency_histogram(execution: &Execution) -> Option<GapHistogram> {
    if execution.completions.len() < 2 {
        return None;
    }
    let mut h = GapHistogram::new();
    for w in execution.completions.windows(2) {
        h.record(w[1].time - w[0].time);
    }
    Some(h)
}

/// Operation spans of process `p`: for each completed operation, the
/// pair `(start, end)` in system time, where `start` is the step at
/// which `p` took the operation's *first* step and `end` the step at
/// which it completed. Requires trace recording.
///
/// The span `end − start + 1` is the operation's wall-clock duration;
/// the individual latency `W_i` additionally includes the idle wait
/// before the first step — comparing the two separates scheduling
/// delay from retry work.
///
/// # Panics
///
/// Panics if the execution was run without trace recording.
pub fn operation_spans(execution: &Execution, p: ProcessId) -> Vec<(u64, u64)> {
    let trace = execution
        .trace
        .as_ref()
        .expect("operation_spans requires record_trace(true)");
    let mut spans = Vec::with_capacity(execution.process_completions[p.index()] as usize);
    let mut op_start: Option<u64> = None;
    let mut next_completion = execution.completion_times_iter(p).peekable();
    for (idx, &who) in trace.iter().enumerate() {
        let tau = idx as u64 + 1; // 1-based system time
        if who != p {
            continue;
        }
        if op_start.is_none() {
            op_start = Some(tau);
        }
        if next_completion.peek() == Some(&tau) {
            next_completion.next();
            spans.push((op_start.take().expect("just set"), tau));
        }
    }
    spans
}

/// Mean operation duration (`end − start + 1`) of process `p`, from
/// [`operation_spans`]. `None` if it completed no operations.
///
/// # Panics
///
/// Panics if the execution was run without trace recording.
pub fn mean_operation_duration(execution: &Execution, p: ProcessId) -> Option<f64> {
    let spans = operation_spans(execution, p);
    if spans.is_empty() {
        return None;
    }
    let total: u64 = spans.iter().map(|&(s, e)| e - s + 1).sum();
    Some(total as f64 / spans.len() as f64)
}

/// Maximum absolute deviation of a distribution from uniform over its
/// support size; the fairness statistic quoted for Figures 3 and 4.
pub fn uniformity_deviation(dist: &[f64]) -> f64 {
    if dist.is_empty() {
        return 0.0;
    }
    let u = 1.0 / dist.len() as f64;
    dist.iter().map(|&p| (p - u).abs()).fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Completion;

    fn exec_with(
        steps: u64,
        completions: Vec<(u64, usize)>,
        n: usize,
        trace: Option<Vec<usize>>,
    ) -> Execution {
        let mut process_completions = vec![0u64; n];
        let completions: Vec<Completion> = completions
            .into_iter()
            .map(|(time, p)| {
                process_completions[p] += 1;
                Completion {
                    time,
                    process: ProcessId::new(p),
                }
            })
            .collect();
        Execution {
            steps,
            completions,
            process_steps: vec![0; n],
            process_completions,
            trace: trace.map(|t| t.into_iter().map(ProcessId::new).collect()),
        }
    }

    #[test]
    fn system_latency_from_gaps() {
        let e = exec_with(100, vec![(10, 0), (20, 1), (40, 0)], 2, None);
        let s = system_latency(&e).unwrap();
        assert_eq!(s.count, 2);
        assert_eq!(s.min, 10);
        assert_eq!(s.max, 20);
        assert!((s.mean - 15.0).abs() < 1e-12);
    }

    #[test]
    fn individual_latency_uses_system_steps() {
        let e = exec_with(100, vec![(10, 0), (20, 1), (40, 0)], 2, None);
        let s = individual_latency(&e, ProcessId::new(0)).unwrap();
        assert_eq!(s.count, 1);
        assert!((s.mean - 30.0).abs() < 1e-12);
        assert!(individual_latency(&e, ProcessId::new(1)).is_none());
    }

    #[test]
    fn too_few_completions_yield_none() {
        let e = exec_with(100, vec![(10, 0)], 2, None);
        assert!(system_latency(&e).is_none());
        assert!(mean_individual_latency(&e).is_none());
    }

    #[test]
    fn completion_rate_counts_ops_per_step() {
        let e = exec_with(100, vec![(10, 0), (20, 1), (40, 0), (80, 1)], 2, None);
        assert!((completion_rate(&e) - 0.04).abs() < 1e-12);
    }

    #[test]
    fn step_share_sums_to_one() {
        let e = exec_with(6, vec![], 3, Some(vec![0, 1, 1, 2, 2, 2]));
        let share = step_share(&e);
        assert!((share.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((share[0] - 1.0 / 6.0).abs() < 1e-12);
        assert!((share[2] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn conditional_next_step_counts_followers() {
        // After p0's steps: followers are 1, 0, 2.
        let e = exec_with(7, vec![], 3, Some(vec![0, 1, 0, 0, 2, 1, 0]));
        let d = conditional_next_step(&e, ProcessId::new(0)).unwrap();
        assert!((d[0] - 1.0 / 3.0).abs() < 1e-12);
        assert!((d[1] - 1.0 / 3.0).abs() < 1e-12);
        assert!((d[2] - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn conditional_next_step_none_when_absent() {
        let e = exec_with(3, vec![], 3, Some(vec![0, 0, 1]));
        assert!(conditional_next_step(&e, ProcessId::new(2)).is_none());
    }

    #[test]
    fn operation_spans_partition_the_process_steps() {
        // Trace: p0 at τ=1,2,4,6; p0 completes at τ=2 and τ=6.
        let e = exec_with(6, vec![(2, 0), (6, 0)], 2, Some(vec![0, 0, 1, 0, 1, 0]));
        let spans = operation_spans(&e, ProcessId::new(0));
        assert_eq!(spans, vec![(1, 2), (4, 6)]);
        // Durations: 2 and 3 → mean 2.5.
        let mean = mean_operation_duration(&e, ProcessId::new(0)).unwrap();
        assert!((mean - 2.5).abs() < 1e-12);
    }

    #[test]
    fn operation_spans_empty_without_completions() {
        let e = exec_with(3, vec![], 2, Some(vec![0, 1, 0]));
        assert!(operation_spans(&e, ProcessId::new(0)).is_empty());
        assert!(mean_operation_duration(&e, ProcessId::new(0)).is_none());
    }

    #[test]
    fn span_duration_excludes_other_processes_idle_time() {
        // p1 completes at τ=4 having stepped only at τ=4: span (4,4).
        let e = exec_with(4, vec![(4, 1)], 2, Some(vec![0, 0, 0, 1]));
        assert_eq!(operation_spans(&e, ProcessId::new(1)), vec![(4, 4)]);
    }

    #[test]
    fn gap_histogram_buckets_and_quantiles() {
        let e = exec_with(100, vec![(1, 0), (2, 0), (4, 0), (20, 0)], 1, None);
        let h = individual_latency_histogram(&e, ProcessId::new(0)).unwrap();
        // Gaps: 1, 2, 16.
        assert_eq!(h.count(), 3);
        assert_eq!(h.max_gap(), 16);
        assert_eq!(h.non_empty_buckets(), vec![(1, 1), (2, 1), (16, 1)]);
        assert_eq!(h.quantile_upper_bound(0.33), 2);
        assert_eq!(h.quantile_upper_bound(0.66), 3);
        assert_eq!(h.quantile_upper_bound(1.0), 17);
    }

    #[test]
    fn system_histogram_covers_all_processes() {
        let e = exec_with(100, vec![(1, 0), (3, 1), (7, 0)], 2, None);
        let h = system_latency_histogram(&e).unwrap();
        assert_eq!(h.count(), 2); // gaps 2 and 4
        assert_eq!(h.max_gap(), 4);
    }

    #[test]
    fn histograms_need_two_completions() {
        let e = exec_with(10, vec![(1, 0)], 1, None);
        assert!(individual_latency_histogram(&e, ProcessId::new(0)).is_none());
        assert!(system_latency_histogram(&e).is_none());
    }

    #[test]
    fn latency_summaries_expose_quantiles() {
        let e = exec_with(100, vec![(10, 0), (20, 1), (40, 0)], 2, None);
        let s = system_latency(&e).unwrap();
        assert!(s.p50 <= s.p90 && s.p90 <= s.p99 && s.p99 <= s.p999);
        assert!(s.p999 >= s.max);
    }

    #[test]
    fn gap_histogram_reduces_to_summary() {
        let e = exec_with(100, vec![(1, 0), (2, 0), (4, 0), (20, 0)], 1, None);
        let h = individual_latency_histogram(&e, ProcessId::new(0)).unwrap();
        let s = h.summary().unwrap();
        assert_eq!(s.count, 3);
        assert_eq!(s.max, 16);
        assert_eq!(s.min, 1);
        assert_eq!(h.histogram().count(), 3);
    }

    #[test]
    fn uniformity_deviation_zero_for_uniform() {
        assert!(uniformity_deviation(&[0.25; 4]) < 1e-15);
        assert!((uniformity_deviation(&[0.5, 0.5, 0.0, 0.0]) - 0.25).abs() < 1e-12);
    }
}
