//! Progress-condition checkers (paper, Section 2.2).
//!
//! *Minimal progress*: in every suffix of the history, some pending
//! active invocation completes. *Maximal progress*: every pending
//! active invocation completes. The *bounded* variants require a bound
//! `B` such that some (resp. every) invocation returns within any
//! window of `B` system steps.
//!
//! On a finite execution these are measured as the worst observed gap:
//! the smallest `B` for which the condition held throughout the run,
//! read from one [`CompletionSummary`] pass over the completions.

use crate::executor::Execution;
use crate::process::ProcessId;
use crate::stats::CompletionSummary;

/// Measured progress bounds of a finite execution.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgressReport {
    /// Smallest `B` such that every window of `B` steps contained a
    /// completion by *some* process (bounded minimal progress). `None`
    /// if no operation ever completed.
    pub minimal_bound: Option<u64>,
    /// Smallest `B` such that every window of `B` steps contained a
    /// completion by *every* non-crashed process (bounded maximal
    /// progress). `None` if some process never completed an operation.
    pub maximal_bound: Option<u64>,
    /// Per-process worst gap between consecutive completions (system
    /// steps, including run edges); `None` for processes that never
    /// completed.
    pub per_process_bound: Vec<Option<u64>>,
}

impl ProgressReport {
    /// The progress bounds of an already summarised execution, for
    /// callers that also read latencies from the same
    /// [`CompletionSummary`]. `crashed` is as in [`measure`].
    pub fn from_summary(summary: &CompletionSummary, crashed: &[ProcessId]) -> Self {
        let per_process_bound: Vec<Option<u64>> = (0..summary.process_count())
            .map(|i| summary.process_bound(ProcessId::new(i)))
            .collect();
        let maximal_bound = per_process_bound
            .iter()
            .enumerate()
            .filter(|&(i, _)| !crashed.contains(&ProcessId::new(i)))
            .try_fold(0u64, |acc, (_, b)| b.map(|b| acc.max(b)));
        ProgressReport {
            minimal_bound: summary.minimal_bound(),
            maximal_bound,
            per_process_bound,
        }
    }

    /// Whether the execution exhibited minimal progress with bound `b`.
    pub fn is_minimal_within(&self, b: u64) -> bool {
        matches!(self.minimal_bound, Some(m) if m <= b)
    }

    /// Whether the execution exhibited maximal progress with bound `b`.
    pub fn is_maximal_within(&self, b: u64) -> bool {
        matches!(self.maximal_bound, Some(m) if m <= b)
    }
}

/// Measures the progress bounds of an execution.
///
/// `crashed` lists processes that crashed during the run; they are
/// exempt from the maximal-progress requirement (only *active*
/// invocations must return).
pub fn measure(execution: &Execution, crashed: &[ProcessId]) -> ProgressReport {
    ProgressReport::from_summary(&CompletionSummary::of(execution), crashed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Completion;

    fn exec(steps: u64, completions: Vec<(u64, usize)>, n: usize) -> Execution {
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
            trace: None,
        }
    }

    #[test]
    fn no_completions_means_no_bounds() {
        let r = measure(&exec(100, vec![], 2), &[]);
        assert_eq!(r.minimal_bound, None);
        assert_eq!(r.maximal_bound, None);
        assert!(!r.is_minimal_within(1000));
    }

    #[test]
    fn minimal_bound_is_worst_gap() {
        // Completions at 10, 30, 90 in a 100-step run: gaps 10, 20, 60,
        // trailing 10 → worst 60.
        let r = measure(&exec(100, vec![(10, 0), (30, 0), (90, 1)], 2), &[]);
        assert_eq!(r.minimal_bound, Some(60));
        assert!(r.is_minimal_within(60));
        assert!(!r.is_minimal_within(59));
    }

    #[test]
    fn maximal_bound_requires_every_process() {
        // p1 never completes → maximal progress fails.
        let r = measure(&exec(100, vec![(10, 0), (50, 0)], 2), &[]);
        assert_eq!(r.maximal_bound, None);
        assert_eq!(r.per_process_bound[0], Some(50));
        assert_eq!(r.per_process_bound[1], None);
    }

    #[test]
    fn crashed_process_exempt_from_maximal() {
        let crashed = [ProcessId::new(1)];
        let r = measure(&exec(100, vec![(10, 0), (50, 0)], 2), &crashed);
        // Only p0 counts: worst gap max(10, 40, 50) = 50.
        assert_eq!(r.maximal_bound, Some(50));
    }

    #[test]
    fn maximal_bound_is_worst_over_processes() {
        let r = measure(&exec(60, vec![(10, 0), (20, 1), (30, 0), (60, 1)], 2), &[]);
        // p0 gaps: 10, 20, trailing 30 → 30. p1 gaps: 20, 40, 0 → 40.
        assert_eq!(r.per_process_bound[0], Some(30));
        assert_eq!(r.per_process_bound[1], Some(40));
        assert_eq!(r.maximal_bound, Some(40));
        assert_eq!(r.minimal_bound, Some(30));
    }
}
