//! Additional stochastic schedulers beyond Definition 1's uniform
//! instance: quantum-based and noisy-priority scheduling.
//!
//! [`QuantumScheduler`] models what a preemptive OS on few cores
//! actually does — run one process for a geometrically-distributed
//! quantum, then switch uniformly — which is exactly the behaviour the
//! hardware Figure 4 experiment shows on this repository's single-core
//! test hosts. It is stochastic (θ > 0), so Theorem 3 applies; its
//! latencies interpolate between the uniform scheduler's and solo
//! execution's.
//!
//! [`PriorityScheduler`] models fixed priorities softened by noise:
//! with probability `1 − ε` schedule the highest-priority active
//! process, otherwise pick uniformly. For `ε > 0` it is stochastic;
//! `ε = 0` is the classic priority adversary.

use pwf_rng::rngs::StdRng;
use pwf_rng::Rng;

use crate::process::ProcessId;
use crate::scheduler::{ActiveSet, Scheduler};

/// Geometric-quantum scheduler: keeps scheduling the same process; at
/// each step it switches (to a uniformly random active process,
/// possibly the same one) with probability `switch_prob`.
#[derive(Debug, Clone)]
pub struct QuantumScheduler {
    switch_prob: f64,
    current: Option<ProcessId>,
}

impl QuantumScheduler {
    /// Creates a quantum scheduler with expected quantum length
    /// `1 / switch_prob`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < switch_prob <= 1`.
    pub fn new(switch_prob: f64) -> Self {
        assert!(
            switch_prob > 0.0 && switch_prob <= 1.0,
            "switch probability must be in (0, 1]"
        );
        QuantumScheduler {
            switch_prob,
            current: None,
        }
    }

    /// Expected quantum length in steps.
    pub fn expected_quantum(&self) -> f64 {
        1.0 / self.switch_prob
    }
}

impl Scheduler for QuantumScheduler {
    fn schedule(&mut self, _tau: u64, active: &ActiveSet, rng: &mut StdRng) -> ProcessId {
        let must_switch = match self.current {
            Some(p) if active.is_active(p) => rng.gen_bool(self.switch_prob),
            _ => true,
        };
        if must_switch {
            self.current = Some(active.pick_uniform(rng));
        }
        self.current.expect("just set")
    }

    fn theta(&self, n: usize) -> f64 {
        // A fresh quantum lands on any process with probability 1/n.
        self.switch_prob / n as f64
    }

    fn name(&self) -> &'static str {
        "quantum"
    }
}

/// Noisy-priority scheduler: with probability `1 − epsilon` run the
/// lowest-index active process (highest priority), otherwise uniform.
#[derive(Debug, Clone)]
pub struct PriorityScheduler {
    epsilon: f64,
}

impl PriorityScheduler {
    /// Creates a noisy-priority scheduler.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= epsilon <= 1`.
    pub fn new(epsilon: f64) -> Self {
        assert!((0.0..=1.0).contains(&epsilon), "epsilon must be in [0, 1]");
        PriorityScheduler { epsilon }
    }
}

impl Scheduler for PriorityScheduler {
    fn schedule(&mut self, _tau: u64, active: &ActiveSet, rng: &mut StdRng) -> ProcessId {
        if self.epsilon > 0.0 && rng.gen_bool(self.epsilon) {
            return active.pick_uniform(rng);
        }
        active.iter().next().expect("non-empty active set")
    }

    fn theta(&self, n: usize) -> f64 {
        self.epsilon / n as f64
    }

    fn name(&self) -> &'static str {
        "priority"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pwf_rng::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xFEED)
    }

    #[test]
    fn quantum_scheduler_produces_long_runs() {
        let mut s = QuantumScheduler::new(0.05); // quanta ≈ 20 steps
        let active = ActiveSet::all(4);
        let mut r = rng();
        let trace: Vec<usize> = (0..20_000)
            .map(|t| s.schedule(t, &active, &mut r).index())
            .collect();
        // Mean run length should be near the expected quantum (switch
        // may reselect the same process, lengthening runs slightly).
        let mut runs = 1usize;
        for w in trace.windows(2) {
            if w[0] != w[1] {
                runs += 1;
            }
        }
        let mean_run = trace.len() as f64 / runs as f64;
        assert!(
            mean_run > 10.0 && mean_run < 40.0,
            "mean quantum {mean_run}, expected ≈ {}",
            s.expected_quantum()
        );
    }

    #[test]
    fn quantum_scheduler_is_fair_in_the_long_run() {
        let mut s = QuantumScheduler::new(0.1);
        let active = ActiveSet::all(4);
        let mut r = rng();
        let mut counts = [0u32; 4];
        for t in 0..100_000 {
            counts[s.schedule(t, &active, &mut r).index()] += 1;
        }
        for &c in &counts {
            assert!((c as f64 - 25_000.0).abs() < 2_500.0, "{counts:?}");
        }
    }

    #[test]
    fn quantum_scheduler_abandons_crashed_process() {
        let mut s = QuantumScheduler::new(0.001); // very long quanta
        let mut active = ActiveSet::all(2);
        let mut r = rng();
        let first = s.schedule(0, &active, &mut r);
        active.crash(first);
        let next = s.schedule(1, &active, &mut r);
        assert_ne!(next, first, "crashed process must not be scheduled");
    }

    #[test]
    fn priority_scheduler_favors_process_zero() {
        let mut s = PriorityScheduler::new(0.2);
        let active = ActiveSet::all(4);
        let mut r = rng();
        let mut zero = 0u32;
        let total = 20_000;
        for t in 0..total {
            if s.schedule(t, &active, &mut r).index() == 0 {
                zero += 1;
            }
        }
        // P[p0] = 0.8 + 0.2/4 = 0.85.
        let frac = zero as f64 / total as f64;
        assert!((frac - 0.85).abs() < 0.02, "frac {frac}");
        assert!((s.theta(4) - 0.05).abs() < 1e-12);
    }

    #[test]
    fn pure_priority_is_adversarial() {
        let mut s = PriorityScheduler::new(0.0);
        let active = ActiveSet::all(3);
        let mut r = rng();
        for t in 0..100 {
            assert_eq!(s.schedule(t, &active, &mut r).index(), 0);
        }
        assert_eq!(s.theta(3), 0.0);
    }

    #[test]
    fn priority_scheduler_falls_to_next_after_crash() {
        let mut s = PriorityScheduler::new(0.0);
        let mut active = ActiveSet::all(3);
        active.crash(ProcessId::new(0));
        let mut r = rng();
        assert_eq!(s.schedule(0, &active, &mut r).index(), 1);
    }

    #[test]
    #[should_panic(expected = "switch probability")]
    fn zero_switch_prob_panics() {
        let _ = QuantumScheduler::new(0.0);
    }
}
