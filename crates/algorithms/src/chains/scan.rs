//! Exact system chain for the full scan region `SCU(0, s)` with
//! honest *mid-scan invalidation* — an extension beyond the paper.
//!
//! Corollary 1 handles `s > 1` by multiplying the `s = 1` bounds by
//! `s`, arguing that a process's extended local state only changes
//! when it is "about to perform a CAS". Strictly, a process *mid-scan*
//! is also invalidated the moment another process's CAS succeeds (its
//! eventual CAS will fail because it read `R` before the change).
//! This module builds the exact chain for that finer model:
//!
//! Per-process extended state (``2s + 1`` cells):
//!
//! * `Pos(0)` — about to read `R` (a fresh scan);
//! * `Pos(j, valid)` for `1 ≤ j < s` — about to take scan step `j`,
//!   where `valid` records whether `R` is unchanged since its step-0
//!   read;
//! * `Cas(valid)` — about to CAS; succeeds iff `valid`.
//!
//! On a success every *valid* mid-scan or pending-CAS process becomes
//! invalid. The system chain tracks occupancy counts of the cells and
//! is built sparsely over the reachable set only.

use pwf_markov::chain::ChainError;
use pwf_markov::solve::{Metrics, PowerOptions, SolveStats};
use pwf_markov::sparse::{SparseChain, SparseChainBuilder};

use super::latency_from_success_probabilities;
use super::scu::LatencyError;

/// Occupancy state: counts per cell, length `2s + 1`, in the order
/// `[Pos0, Pos1V, Pos1I, …, Pos(s−1)V, Pos(s−1)I, CasV, CasI]`.
pub type ScanState = Vec<u16>;

/// Cell layout helper for `SCU(0, s)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellLayout {
    /// Scan length `s ≥ 1`.
    pub s: usize,
}

impl CellLayout {
    /// Number of cells `2s + 1`.
    pub fn cells(&self) -> usize {
        2 * self.s + 1
    }

    /// Index of `Pos(0)`.
    pub fn pos0(&self) -> usize {
        0
    }

    /// Index of `Pos(j, valid?)` for `1 ≤ j < s`.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    pub fn pos(&self, j: usize, valid: bool) -> usize {
        assert!((1..self.s).contains(&j), "scan position out of range");
        1 + 2 * (j - 1) + usize::from(!valid)
    }

    /// Index of `Cas(valid?)`.
    pub fn cas(&self, valid: bool) -> usize {
        2 * (self.s - 1) + 1 + usize::from(!valid)
    }

    /// The cell a process moves to after taking a step from `cell`,
    /// ignoring success side-effects (`None` marks "successful CAS",
    /// which needs global handling).
    fn advance(&self, cell: usize) -> Option<usize> {
        if cell == self.pos0() {
            // Fresh read of R: the view is valid.
            return Some(if self.s == 1 {
                self.cas(true)
            } else {
                self.pos(1, true)
            });
        }
        if cell == self.cas(true) {
            return None; // success
        }
        if cell == self.cas(false) {
            return Some(self.pos0()); // failed CAS, restart
        }
        // Mid-scan cell: advance preserving validity.
        let j = 1 + (cell - 1) / 2;
        let valid = (cell - 1) % 2 == 0;
        Some(if j + 1 < self.s {
            self.pos(j + 1, valid)
        } else {
            self.cas(valid)
        })
    }
}

/// The successor occupancy when a process in `cell` is scheduled.
fn successor(layout: &CellLayout, state: &ScanState, cell: usize) -> ScanState {
    match layout.advance(cell) {
        Some(target) => {
            let mut next = state.clone();
            next[cell] -= 1;
            next[target] += 1;
            next
        }
        None => {
            // Success by a Cas(valid) process: winner → Pos0,
            // every other valid process becomes invalid.
            let s = layout.s;
            let mut next = state.clone();
            next[layout.cas(true)] -= 1;
            next[layout.pos0()] += 1;
            for j in 1..s {
                let v = layout.pos(j, true);
                let i = layout.pos(j, false);
                next[i] += next[v];
                next[v] = 0;
            }
            let (cv, ci) = (layout.cas(true), layout.cas(false));
            next[ci] += next[cv];
            next[cv] = 0;
            next
        }
    }
}

/// Builds the reachable system chain for `SCU(0, s)` on `n` processes
/// under the uniform scheduler, with mid-scan invalidation.
///
/// # Errors
///
/// Propagates chain-validation errors (none occur for valid inputs).
///
/// # Panics
///
/// Panics if `n == 0`, `s == 0`, or `n > u16::MAX as usize`.
pub fn system_chain(n: usize, s: usize) -> Result<SparseChain<ScanState>, ChainError> {
    assert!(n >= 1, "need at least one process");
    assert!(s >= 1, "scan region must be non-empty");
    assert!(n <= u16::MAX as usize, "n must fit in u16 counts");
    let layout = CellLayout { s };
    let cells = layout.cells();
    let nf = n as f64;

    // BFS over reachable occupancy states from the all-Pos0 start.
    let mut initial = vec![0u16; cells];
    initial[layout.pos0()] = n as u16;

    let mut builder = SparseChainBuilder::new();
    let mut frontier = vec![initial.clone()];
    let mut seen = std::collections::HashSet::new();
    seen.insert(initial.clone());
    builder.state(initial);

    while let Some(state) = frontier.pop() {
        for cell in 0..cells {
            if state[cell] == 0 {
                continue;
            }
            let p = state[cell] as f64 / nf;
            let next = successor(&layout, &state, cell);
            if seen.insert(next.clone()) {
                frontier.push(next.clone());
            }
            builder.transition(state.clone(), next, p);
        }
    }
    builder.build()
}

/// Exact system latency of `SCU(0, s)` with mid-scan invalidation,
/// via the adaptive sparse solver, with solver statistics and optional
/// metrics publication.
///
/// # Errors
///
/// Propagates chain construction and solver-convergence errors.
pub fn exact_system_latency_with(
    n: usize,
    s: usize,
    opts: &PowerOptions,
    metrics: Option<&Metrics>,
) -> Result<(f64, SolveStats), LatencyError> {
    let layout = CellLayout { s };
    let chain = system_chain(n, s)?;
    let solve = chain
        .stationary_with(opts, metrics)
        .map_err(LatencyError::Stationary)?;
    let succ: Vec<f64> = chain
        .states()
        .iter()
        .map(|state| state[layout.cas(true)] as f64 / n as f64)
        .collect();
    Ok((
        latency_from_success_probabilities(&solve.pi, &succ),
        solve.stats,
    ))
}

/// Exact system latency of `SCU(0, s)` with mid-scan invalidation.
///
/// # Errors
///
/// Propagates chain construction and solver-convergence errors.
pub fn exact_system_latency(n: usize, s: usize) -> Result<f64, LatencyError> {
    exact_system_latency_with(n, s, &PowerOptions::new(500_000, 1e-12), None).map(|(w, _)| w)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chains::scu;

    #[test]
    fn layout_indices_are_disjoint_and_dense() {
        for s in 1..5 {
            let l = CellLayout { s };
            let mut seen = vec![false; l.cells()];
            seen[l.pos0()] = true;
            for j in 1..s {
                for valid in [true, false] {
                    let i = l.pos(j, valid);
                    assert!(!seen[i], "collision at s={s}, j={j}");
                    seen[i] = true;
                }
            }
            for valid in [true, false] {
                let i = l.cas(valid);
                assert!(!seen[i], "collision at cas s={s}");
                seen[i] = true;
            }
            assert!(seen.iter().all(|&b| b), "gap in layout s={s}");
        }
    }

    #[test]
    fn s_equals_one_reproduces_the_paper_chain() {
        for n in [2usize, 4, 8, 16] {
            let fine = exact_system_latency(n, 1).unwrap();
            let paper = scu::exact_system_latency(n).unwrap();
            assert!(
                (fine - paper).abs() / paper < 1e-7,
                "n={n}: fine {fine} vs paper {paper}"
            );
        }
    }

    #[test]
    fn reachable_chain_is_irreducible() {
        for (n, s) in [(3usize, 2usize), (4, 2), (3, 3)] {
            let c = system_chain(n, s).unwrap();
            assert!(c.is_irreducible(), "n={n} s={s}");
        }
    }

    #[test]
    fn corollary_1_latency_scales_multiplicatively_in_s() {
        // W(s) for fixed n should grow close to ×s (the paper's
        // Corollary 1 claims O(s√n)).
        let n = 8;
        let w1 = exact_system_latency(n, 1).unwrap();
        let w2 = exact_system_latency(n, 2).unwrap();
        let w4 = exact_system_latency(n, 4).unwrap();
        let r2 = w2 / w1;
        let r4 = w4 / w1;
        assert!(r2 > 1.6 && r2 < 2.8, "W(2)/W(1) = {r2}");
        assert!(r4 > 3.0 && r4 < 6.5, "W(4)/W(1) = {r4}");
    }

    #[test]
    fn fine_model_matches_simulation() {
        // The honest chain should match the simulated SCU(0, s) —
        // closing the gap Corollary 1 papers over with a constant.
        use pwf_core_free_check::sim_latency;
        for (n, s) in [(4usize, 2usize), (4, 3), (8, 2)] {
            let chain = exact_system_latency(n, s).unwrap();
            let sim = sim_latency(n, s);
            assert!(
                (chain - sim).abs() / sim < 0.03,
                "n={n}, s={s}: chain {chain} vs sim {sim}"
            );
        }
    }

    /// Minimal local simulation helper (kept here to avoid a circular
    /// dev-dependency on pwf-core).
    mod pwf_core_free_check {
        use crate::scu::{ScuObject, ScuProcess};
        use pwf_sim::executor::{run, RunConfig};
        use pwf_sim::memory::SharedMemory;
        use pwf_sim::process::{Process, ProcessId};
        use pwf_sim::scheduler::UniformScheduler;
        use pwf_sim::stats::system_latency;

        pub fn sim_latency(n: usize, s: usize) -> f64 {
            let mut mem = SharedMemory::new();
            let obj = ScuObject::alloc(&mut mem, s);
            let mut ps: Vec<Box<dyn Process>> = (0..n)
                .map(|i| {
                    Box::new(ScuProcess::new(ProcessId::new(i), obj.clone(), 0, s))
                        as Box<dyn Process>
                })
                .collect();
            let exec = run(
                &mut ps,
                &mut UniformScheduler::new(),
                &mut mem,
                &RunConfig::new(600_000).seed(500),
            );
            system_latency(&exec).expect("completions").mean
        }
    }

    #[test]
    fn state_count_grows_with_s() {
        let c1 = system_chain(4, 1).unwrap();
        let c2 = system_chain(4, 2).unwrap();
        assert!(c2.len() > c1.len());
    }
}
