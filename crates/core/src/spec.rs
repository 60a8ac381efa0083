//! Declarative experiment specifications: which algorithm, which
//! scheduler, which failure pattern. The drivers in this crate
//! instantiate these against the simulator.

use pwf_algorithms::fai::FaiProcess;
use pwf_algorithms::lock::{LockObject, LockProcess};
use pwf_algorithms::msqueue::{QueueProcess, SimQueue};
use pwf_algorithms::parallel::ParallelProcess;
use pwf_algorithms::scu::{ScuObject, ScuProcess};
use pwf_algorithms::treiber::{SimStack, StackOp, StackProcess};
use pwf_algorithms::unbounded::{UnboundedObject, UnboundedProcess};
use pwf_sim::memory::SharedMemory;
use pwf_sim::process::{Process, ProcessId};
use pwf_sim::quantum::{PriorityScheduler, QuantumScheduler};
use pwf_sim::scheduler::{
    AdversarialScheduler, LotteryScheduler, MarkovScheduler, Scheduler, UniformScheduler,
    WeightedScheduler,
};

/// Which algorithm a fleet of `n` processes runs.
#[derive(Debug, Clone, PartialEq)]
pub enum AlgorithmSpec {
    /// `SCU(q, s)` (Algorithm 2).
    Scu {
        /// Preamble length.
        q: usize,
        /// Scan length (≥ 1).
        s: usize,
    },
    /// Parallel code with `q`-step calls (Algorithm 4).
    Parallel {
        /// Steps per call (≥ 1).
        q: usize,
    },
    /// Fetch-and-increment via augmented CAS (Algorithm 5).
    FetchAndInc,
    /// The unbounded-backoff algorithm (Algorithm 1).
    Unbounded,
    /// The simulated Treiber stack (push/pop alternation).
    TreiberStack,
    /// The simulated Michael–Scott queue (enqueue/dequeue alternation).
    MsQueue,
    /// The blocking spinlock counter with a critical section of
    /// `cs_len` steps — the deadlock-free baseline.
    LockCounter {
        /// Critical-section length in shared-memory steps (≥ 1).
        cs_len: usize,
    },
}

impl AlgorithmSpec {
    /// Instantiates the fleet of `n` processes (and their shared
    /// registers) in `mem`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or the spec's parameters are invalid (e.g.
    /// `s == 0`).
    pub fn build(&self, mem: &mut SharedMemory, n: usize) -> Vec<Box<dyn Process>> {
        assert!(n > 0, "need at least one process");
        match *self {
            AlgorithmSpec::Scu { q, s } => {
                let obj = ScuObject::alloc(mem, s);
                (0..n)
                    .map(|i| {
                        Box::new(ScuProcess::new(ProcessId::new(i), obj.clone(), q, s))
                            as Box<dyn Process>
                    })
                    .collect()
            }
            AlgorithmSpec::Parallel { q } => {
                let r = mem.alloc(0);
                (0..n)
                    .map(|_| Box::new(ParallelProcess::new(r, q)) as Box<dyn Process>)
                    .collect()
            }
            AlgorithmSpec::FetchAndInc => {
                let r = mem.alloc(0);
                (0..n)
                    .map(|_| Box::new(FaiProcess::new(r)) as Box<dyn Process>)
                    .collect()
            }
            AlgorithmSpec::Unbounded => {
                let obj = UnboundedObject::alloc(mem);
                (0..n)
                    .map(|_| Box::new(UnboundedProcess::new(obj, n)) as Box<dyn Process>)
                    .collect()
            }
            AlgorithmSpec::TreiberStack => {
                // Strict push-then-pop alternation never pops an empty
                // stack, so each process's spare node is all it needs.
                let stack = SimStack::alloc(mem, &[], n, true);
                (0..n)
                    .map(|i| {
                        let script = [StackOp::Push(i as u64 + 1), StackOp::Pop];
                        Box::new(StackProcess::new(&stack, i, &script)) as Box<dyn Process>
                    })
                    .collect()
            }
            AlgorithmSpec::MsQueue => {
                let queue = SimQueue::alloc(mem, 2 + 4 * n);
                (0..n)
                    .map(|i| {
                        Box::new(QueueProcess::new(ProcessId::new(i), queue.clone()))
                            as Box<dyn Process>
                    })
                    .collect()
            }
            AlgorithmSpec::LockCounter { cs_len } => {
                let obj = LockObject::alloc(mem);
                (0..n)
                    .map(|i| {
                        Box::new(LockProcess::new(ProcessId::new(i), obj, cs_len))
                            as Box<dyn Process>
                    })
                    .collect()
            }
        }
    }

    /// A short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            AlgorithmSpec::Scu { .. } => "scu",
            AlgorithmSpec::Parallel { .. } => "parallel",
            AlgorithmSpec::FetchAndInc => "fetch-and-inc",
            AlgorithmSpec::Unbounded => "unbounded",
            AlgorithmSpec::TreiberStack => "treiber-stack",
            AlgorithmSpec::MsQueue => "ms-queue",
            AlgorithmSpec::LockCounter { .. } => "lock-counter",
        }
    }
}

/// Which scheduler drives the execution.
#[derive(Debug, Clone, PartialEq)]
pub enum SchedulerSpec {
    /// The uniform stochastic scheduler (the paper's model).
    Uniform,
    /// Fixed positive weights.
    Weighted(Vec<f64>),
    /// Lottery tickets.
    Lottery(Vec<u64>),
    /// Locally-correlated scheduling with the given stickiness.
    Sticky(f64),
    /// A scripted adversary cycling the given process indices.
    Adversarial(Vec<usize>),
    /// Geometric OS-style quanta with the given switch probability.
    Quantum(f64),
    /// Fixed priorities softened by uniform noise `ε`.
    Priority(f64),
}

impl SchedulerSpec {
    /// Instantiates the scheduler.
    ///
    /// # Panics
    ///
    /// Panics on invalid parameters (empty scripts, non-positive
    /// weights, stickiness outside `[0, 1)`).
    pub fn build(&self) -> Box<dyn Scheduler> {
        match self {
            SchedulerSpec::Uniform => Box::new(UniformScheduler::new()),
            SchedulerSpec::Weighted(w) => Box::new(WeightedScheduler::new(w.clone())),
            SchedulerSpec::Lottery(t) => Box::new(LotteryScheduler::new(t.clone())),
            SchedulerSpec::Sticky(p) => Box::new(MarkovScheduler::new(*p)),
            SchedulerSpec::Adversarial(script) => Box::new(AdversarialScheduler::cycle(
                script.iter().map(|&i| ProcessId::new(i)).collect(),
            )),
            SchedulerSpec::Quantum(p) => Box::new(QuantumScheduler::new(*p)),
            SchedulerSpec::Priority(e) => Box::new(PriorityScheduler::new(*e)),
        }
    }

    /// The scheduler's threshold `θ` for `n` processes.
    pub fn theta(&self, n: usize) -> f64 {
        self.build().theta(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_creates_n_processes() {
        let mut mem = SharedMemory::new();
        let ps = AlgorithmSpec::Scu { q: 2, s: 2 }.build(&mut mem, 5);
        assert_eq!(ps.len(), 5);
        assert_eq!(ps[0].name(), "scu");
    }

    #[test]
    fn every_spec_builds() {
        for spec in [
            AlgorithmSpec::Scu { q: 0, s: 1 },
            AlgorithmSpec::Parallel { q: 3 },
            AlgorithmSpec::FetchAndInc,
            AlgorithmSpec::Unbounded,
            AlgorithmSpec::TreiberStack,
            AlgorithmSpec::MsQueue,
            AlgorithmSpec::LockCounter { cs_len: 2 },
        ] {
            let mut mem = SharedMemory::new();
            let ps = spec.build(&mut mem, 3);
            assert_eq!(ps.len(), 3, "{}", spec.name());
        }
    }

    #[test]
    fn scheduler_specs_build_with_expected_theta() {
        assert!((SchedulerSpec::Uniform.theta(4) - 0.25).abs() < 1e-12);
        assert_eq!(SchedulerSpec::Adversarial(vec![0]).theta(4), 0.0);
        assert!((SchedulerSpec::Lottery(vec![1, 3]).theta(2) - 0.25).abs() < 1e-12);
        assert!(SchedulerSpec::Sticky(0.5).theta(2) > 0.0);
        assert!(SchedulerSpec::Quantum(0.1).theta(4) > 0.0);
        assert!((SchedulerSpec::Priority(0.2).theta(4) - 0.05).abs() < 1e-12);
        assert_eq!(SchedulerSpec::Priority(0.0).theta(4), 0.0);
    }
}
