//! The discrete-time execution loop (paper, Section 2.1).
//!
//! At each time step the scheduler picks an active process, which
//! performs local computation and one shared-memory step. The executor
//! records completions and (optionally) the full schedule trace.
//! A pick never depends on process state, so [`run_into`] draws up to
//! [`PICK_BLOCK`] picks in a loop of their own before stepping them:
//! the generator stays in registers, and the execution is the
//! step-by-step loop's, pick for pick.

use pwf_obs::{EventKind, ThreadRecorder};
use pwf_rng::rngs::StdRng;
use pwf_rng::SeedableRng;

use crate::crash::CrashSchedule;
use crate::memory::SharedMemory;
use crate::process::{Process, ProcessId, StepOutcome};
use crate::scheduler::{ActiveSet, Scheduler};

/// One completed method invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// System step (1-based time `τ`) at which the operation returned.
    pub time: u64,
    /// The process whose invocation completed.
    pub process: ProcessId,
}

/// The observable outcome of a simulated execution.
#[derive(Debug, Clone)]
pub struct Execution {
    /// Total system steps taken.
    pub steps: u64,
    /// All completions, in time order.
    pub completions: Vec<Completion>,
    /// Steps each process took.
    pub process_steps: Vec<u64>,
    /// Operations each process completed.
    pub process_completions: Vec<u64>,
    /// The schedule (process id per time step), when trace recording
    /// was enabled.
    pub trace: Option<Vec<ProcessId>>,
}

impl Execution {
    /// An empty execution shell whose buffers [`run_into`] fills and
    /// re-fills. Reusing one `Execution` across Monte Carlo
    /// replications keeps the hot loop allocation-free after the first
    /// run (vector capacity persists across `run_into` calls).
    pub fn empty() -> Self {
        Execution {
            steps: 0,
            completions: Vec::new(),
            process_steps: Vec::new(),
            process_completions: Vec::new(),
            trace: None,
        }
    }

    /// Number of processes in the execution.
    pub fn process_count(&self) -> usize {
        self.process_steps.len()
    }

    /// Total completed operations.
    pub fn total_completions(&self) -> u64 {
        self.completions.len() as u64
    }

    /// Completion times of a single process, in order.
    ///
    /// Allocates a fresh vector per call; the call-heavy statistics
    /// paths use the allocation-free
    /// [`completion_times_iter`](Self::completion_times_iter) instead.
    pub fn completion_times(&self, p: ProcessId) -> Vec<u64> {
        self.completion_times_iter(p).collect()
    }

    /// Completion times of a single process, in order, without
    /// allocating.
    pub fn completion_times_iter(&self, p: ProcessId) -> impl Iterator<Item = u64> + '_ {
        self.completions
            .iter()
            .filter(move |c| c.process == p)
            .map(|c| c.time)
    }
}

/// Configuration for a simulation run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Number of system steps to simulate.
    pub steps: u64,
    /// RNG seed (executions are deterministic given seed + scheduler).
    pub seed: u64,
    /// Whether to record the full schedule trace (memory-heavy for
    /// long runs).
    pub record_trace: bool,
    /// Crash schedule (empty = crash-free execution).
    pub crashes: CrashSchedule,
}

impl RunConfig {
    /// A crash-free, trace-less run of `steps` steps with a fixed
    /// default seed.
    pub fn new(steps: u64) -> Self {
        RunConfig {
            steps,
            seed: 0x5EED,
            record_trace: false,
            crashes: CrashSchedule::none(),
        }
    }

    /// Sets the RNG seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables schedule-trace recording.
    #[must_use]
    pub fn record_trace(mut self, on: bool) -> Self {
        self.record_trace = on;
        self
    }

    /// Installs a crash schedule.
    #[must_use]
    pub fn crashes(mut self, crashes: CrashSchedule) -> Self {
        self.crashes = crashes;
        self
    }
}

/// Observer of executor decisions, called once per scheduler pick,
/// completion, and crash.
///
/// The executor is generic over the hook and `run` instantiates it
/// with [`NoHook`] (empty inline methods), so un-observed runs compile
/// to exactly the pre-hook loop — observability costs nothing unless a
/// hook is passed.
pub trait StepHook {
    /// The scheduler picked process `p` at time `tau`.
    #[inline]
    fn on_pick(&mut self, tau: u64, p: ProcessId) {
        let _ = (tau, p);
    }

    /// Process `p` completed an operation at time `tau`.
    #[inline]
    fn on_complete(&mut self, tau: u64, p: ProcessId) {
        let _ = (tau, p);
    }

    /// Process `p` crashed at time `tau`.
    #[inline]
    fn on_crash(&mut self, tau: u64, p: ProcessId) {
        let _ = (tau, p);
    }
}

/// The do-nothing hook used by [`run`].
#[derive(Debug, Clone, Copy, Default)]
pub struct NoHook;

impl StepHook for NoHook {}

/// A `pwf-obs` event recorder observes the executor directly: picks,
/// completions, and crashes become typed events (ticks = system steps).
/// With the `obs` feature off the recorder is a zero-sized no-op and
/// this impl is free.
impl StepHook for ThreadRecorder {
    #[inline]
    fn on_pick(&mut self, tau: u64, p: ProcessId) {
        self.record(EventKind::SchedulerPick, tau, p.index() as u64);
    }

    #[inline]
    fn on_complete(&mut self, tau: u64, p: ProcessId) {
        self.record(EventKind::Complete, tau, p.index() as u64);
    }

    #[inline]
    fn on_crash(&mut self, tau: u64, p: ProcessId) {
        self.record(EventKind::Crash, tau, p.index() as u64);
    }
}

/// The most picks [`run_into`] draws ahead of the steps that use them:
/// one stack array of process ids.
pub const PICK_BLOCK: usize = 64;

/// Runs `processes` under `scheduler` against `memory` per `config`.
///
/// Time steps are 1-based (`τ = 1, 2, …`), matching the paper. Crashes
/// listed for time `τ` take effect *before* the step at `τ`.
///
/// # Panics
///
/// Panics if `processes` is empty, or if a process fails to issue
/// exactly one shared-memory access per step (a broken [`Process`]
/// implementation).
pub fn run(
    processes: &mut [Box<dyn Process>],
    scheduler: &mut dyn Scheduler,
    memory: &mut SharedMemory,
    config: &RunConfig,
) -> Execution {
    run_hooked(processes, scheduler, memory, config, &mut NoHook)
}

/// [`run`] with event recording: scheduler picks, completions, and
/// crashes are emitted into `recorder` (one [`Event`](pwf_obs::Event)
/// each, `tick` = system step `τ`).
pub fn run_traced(
    processes: &mut [Box<dyn Process>],
    scheduler: &mut dyn Scheduler,
    memory: &mut SharedMemory,
    config: &RunConfig,
    recorder: &mut ThreadRecorder,
) -> Execution {
    run_hooked(processes, scheduler, memory, config, recorder)
}

/// [`run`] with an arbitrary [`StepHook`], monomorphized per hook
/// type.
pub fn run_hooked<H: StepHook>(
    processes: &mut [Box<dyn Process>],
    scheduler: &mut dyn Scheduler,
    memory: &mut SharedMemory,
    config: &RunConfig,
    hook: &mut H,
) -> Execution {
    let mut out = Execution::empty();
    run_into(processes, scheduler, memory, config, hook, &mut out);
    out
}

/// The stepping core: generic over the process type, the scheduler,
/// and the hook, so homogeneous fleets compile to a fully
/// monomorphized loop with no virtual dispatch (`&mut [Box<dyn
/// Process>]` still works — `Box<dyn Process>` is itself a
/// [`Process`] — which is the path the heterogeneous fleets and the
/// checker's replay keep using).
///
/// Results land in `out`, whose buffers are cleared and refilled:
/// reusing one [`Execution`] across replications makes the loop
/// allocation-free after warm-up. The schedule is drawn in blocks of
/// up to [`PICK_BLOCK`] picks, each cut at the next crash time and at
/// `config.steps`; the hook then sees every `on_pick` and
/// `on_complete` in `τ` order, as in a step-by-step loop.
///
/// # Panics
///
/// As [`run`].
pub fn run_into<P, S, H>(
    processes: &mut [P],
    scheduler: &mut S,
    memory: &mut SharedMemory,
    config: &RunConfig,
    hook: &mut H,
    out: &mut Execution,
) where
    P: Process,
    S: Scheduler + ?Sized,
    H: StepHook,
{
    let n = processes.len();
    assert!(n > 0, "need at least one process");
    let mut active = ActiveSet::all(n);
    let mut rng = StdRng::seed_from_u64(config.seed);

    // Reset the output shell in place: lengths change, capacity stays.
    out.steps = config.steps;
    out.completions.clear();
    out.process_steps.clear();
    out.process_steps.resize(n, 0);
    out.process_completions.clear();
    out.process_completions.resize(n, 0);
    if config.record_trace {
        let trace = out.trace.get_or_insert_with(Vec::new);
        trace.clear();
        trace.reserve(config.steps as usize);
    } else {
        out.trace = None;
    }

    // Crash dispatch by cursor over the time-sorted schedule instead
    // of an O(#crashes) filter scan per step. Events timed before the
    // first step (τ < 1) never fire, matching `crashes_at`.
    let crash_events = config.crashes.events();
    let mut crash_idx = crash_events.partition_point(|&(t, _)| t < 1);

    let mut picks = [ProcessId::new(0); PICK_BLOCK];
    let mut start = 1;
    while start <= config.steps {
        while crash_idx < crash_events.len() && crash_events[crash_idx].0 == start {
            let p = crash_events[crash_idx].1;
            active.crash(p);
            hook.on_crash(start, p);
            crash_idx += 1;
        }
        // Every remaining crash is timed after `start`, so the block
        // holds at least one step.
        let next_crash = crash_events.get(crash_idx).map_or(u64::MAX, |&(t, _)| t);
        let end = config
            .steps
            .min(next_crash - 1)
            .min(start + PICK_BLOCK as u64 - 1);
        let block = &mut picks[..(end - start + 1) as usize];
        for (tau, slot) in (start..).zip(block.iter_mut()) {
            *slot = scheduler.schedule(tau, &active, &mut rng);
        }
        for (tau, &p) in (start..).zip(block.iter()) {
            debug_assert!(active.is_active(p), "scheduler returned crashed process");
            hook.on_pick(tau, p);
            let before = memory.steps();
            let outcome = processes[p.index()].step(memory);
            debug_assert_eq!(
                memory.steps(),
                before + 1,
                "process {p} must issue exactly one shared-memory step"
            );
            out.process_steps[p.index()] += 1;
            if outcome == StepOutcome::Completed {
                out.completions.push(Completion {
                    time: tau,
                    process: p,
                });
                out.process_completions[p.index()] += 1;
                hook.on_complete(tau, p);
            }
        }
        if let Some(t) = out.trace.as_mut() {
            t.extend_from_slice(block);
        }
        start = end + 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::SharedMemory;
    use crate::process::TickingProcess;
    use crate::quantum::{PriorityScheduler, QuantumScheduler};
    use crate::scheduler::{
        ActiveSet, AdversarialScheduler, LotteryScheduler, MarkovScheduler, UniformScheduler,
        WeightedScheduler,
    };

    fn ticking_fleet(mem: &mut SharedMemory, n: usize, period: u64) -> Vec<Box<dyn Process>> {
        let r = mem.alloc(0);
        (0..n)
            .map(|_| Box::new(TickingProcess::new(r, period)) as Box<dyn Process>)
            .collect()
    }

    /// Records every hook call in order: `(kind, τ, process)` with kind
    /// 0 = crash, 1 = pick, 2 = completion.
    #[derive(Default)]
    struct Log(Vec<(u8, u64, usize)>);

    impl StepHook for Log {
        fn on_pick(&mut self, tau: u64, p: ProcessId) {
            self.0.push((1, tau, p.index()));
        }

        fn on_complete(&mut self, tau: u64, p: ProcessId) {
            self.0.push((2, tau, p.index()));
        }

        fn on_crash(&mut self, tau: u64, p: ProcessId) {
            self.0.push((0, tau, p.index()));
        }
    }

    /// The step-by-step loop `run_into` must agree with: crashes at `τ`,
    /// then one pick, then its step, for every `τ` in turn.
    fn run_per_step(
        processes: &mut [Box<dyn Process>],
        scheduler: &mut dyn Scheduler,
        memory: &mut SharedMemory,
        config: &RunConfig,
        hook: &mut Log,
    ) -> Execution {
        let n = processes.len();
        let mut active = ActiveSet::all(n);
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut out = Execution::empty();
        out.steps = config.steps;
        out.process_steps = vec![0; n];
        out.process_completions = vec![0; n];
        let mut trace = Vec::new();
        for tau in 1..=config.steps {
            for p in config.crashes.crashes_at(tau) {
                active.crash(p);
                hook.on_crash(tau, p);
            }
            let p = scheduler.schedule(tau, &active, &mut rng);
            hook.on_pick(tau, p);
            out.process_steps[p.index()] += 1;
            if processes[p.index()].step(memory) == StepOutcome::Completed {
                out.completions.push(Completion {
                    time: tau,
                    process: p,
                });
                out.process_completions[p.index()] += 1;
                hook.on_complete(tau, p);
            }
            trace.push(p);
        }
        out.trace = Some(trace);
        out
    }

    #[test]
    fn pick_blocks_match_the_step_by_step_loop() {
        let n = 7;
        let schedulers: [fn() -> Box<dyn Scheduler>; 7] = [
            || Box::new(UniformScheduler::new()),
            || {
                Box::new(WeightedScheduler::new(vec![
                    1.0, 8.0, 2.0, 0.5, 3.0, 1.0, 4.0,
                ]))
            },
            || Box::new(LotteryScheduler::new(vec![3, 1, 4, 1, 5, 9, 2])),
            || Box::new(MarkovScheduler::new(0.6)),
            || {
                Box::new(AdversarialScheduler::cycle(
                    [1, 0, 6, 1, 2, 5, 3, 4].map(ProcessId::new).to_vec(),
                ))
            },
            || Box::new(QuantumScheduler::new(0.2)),
            || Box::new(PriorityScheduler::new(0.3)),
        ];
        let crash_plans: [&[(u64, usize)]; 4] = [
            &[],
            &[(1, 1)],
            &[(63, 0), (64, 5), (65, 1)],
            &[(1, 6), (63, 1), (64, 0), (65, 4), (128, 3)],
        ];
        for build in schedulers {
            for plan in crash_plans {
                for steps in [1, 63, 64, 65, 129] {
                    let crashes = CrashSchedule::new(
                        plan.iter().map(|&(t, p)| (t, ProcessId::new(p))).collect(),
                        n,
                    )
                    .unwrap();
                    let config = RunConfig::new(steps)
                        .seed(steps ^ 0x9E37)
                        .record_trace(true)
                        .crashes(crashes);
                    let fleet = |mem: &mut SharedMemory| -> Vec<Box<dyn Process>> {
                        let r = mem.alloc(0);
                        (0..n as u64)
                            .map(|i| {
                                Box::new(TickingProcess::new(r, 1 + i % 3)) as Box<dyn Process>
                            })
                            .collect()
                    };
                    let (mut mem_a, mut mem_b) = (SharedMemory::new(), SharedMemory::new());
                    let (mut log_a, mut log_b) = (Log::default(), Log::default());
                    let (mut sched_a, mut sched_b) = (build(), build());
                    let name = sched_a.name();
                    let a = run_hooked(
                        &mut fleet(&mut mem_a),
                        sched_a.as_mut(),
                        &mut mem_a,
                        &config,
                        &mut log_a,
                    );
                    let b = run_per_step(
                        &mut fleet(&mut mem_b),
                        sched_b.as_mut(),
                        &mut mem_b,
                        &config,
                        &mut log_b,
                    );
                    let case = format!("{name}, crashes {plan:?}, {steps} steps");
                    assert_eq!(a.trace, b.trace, "{case}");
                    assert_eq!(a.completions, b.completions, "{case}");
                    assert_eq!(a.process_steps, b.process_steps, "{case}");
                    assert_eq!(a.process_completions, b.process_completions, "{case}");
                    assert_eq!(log_a.0, log_b.0, "{case}");
                    assert_eq!(mem_a.steps(), steps, "{case}");
                }
            }
        }
    }

    #[test]
    fn steps_are_conserved() {
        let mut mem = SharedMemory::new();
        let mut ps = ticking_fleet(&mut mem, 3, 2);
        let mut sched = UniformScheduler::new();
        let exec = run(&mut ps, &mut sched, &mut mem, &RunConfig::new(1000));
        assert_eq!(exec.steps, 1000);
        assert_eq!(exec.process_steps.iter().sum::<u64>(), 1000);
        assert_eq!(mem.steps(), 1000);
    }

    #[test]
    fn round_robin_ticking_completes_deterministically() {
        let mut mem = SharedMemory::new();
        let mut ps = ticking_fleet(&mut mem, 2, 2);
        let mut sched = AdversarialScheduler::round_robin(2);
        let exec = run(&mut ps, &mut sched, &mut mem, &RunConfig::new(8));
        // Each process steps 4 times, completing at its 2nd and 4th step.
        assert_eq!(exec.total_completions(), 4);
        assert_eq!(exec.process_completions, vec![2, 2]);
        // p0 steps at τ=1,3,5,7 → completes at 3 and 7.
        assert_eq!(exec.completion_times(ProcessId::new(0)), vec![3, 7]);
    }

    #[test]
    fn trace_recording_captures_schedule() {
        let mut mem = SharedMemory::new();
        let mut ps = ticking_fleet(&mut mem, 2, 3);
        let mut sched = AdversarialScheduler::round_robin(2);
        let exec = run(
            &mut ps,
            &mut sched,
            &mut mem,
            &RunConfig::new(4).record_trace(true),
        );
        let trace: Vec<usize> = exec.trace.unwrap().iter().map(|p| p.index()).collect();
        assert_eq!(trace, vec![0, 1, 0, 1]);
    }

    #[test]
    fn crashed_process_stops_taking_steps() {
        let mut mem = SharedMemory::new();
        let mut ps = ticking_fleet(&mut mem, 2, 1);
        let mut sched = UniformScheduler::new();
        let crashes = CrashSchedule::new(vec![(100, ProcessId::new(0))], 2).unwrap();
        let exec = run(
            &mut ps,
            &mut sched,
            &mut mem,
            &RunConfig::new(1000).crashes(crashes),
        );
        // After τ=100 only p1 runs: p0 takes < 100 steps.
        assert!(exec.process_steps[0] < 100);
        assert_eq!(exec.process_steps[0] + exec.process_steps[1], 1000);
    }

    #[test]
    fn same_seed_reproduces_execution() {
        let run_once = || {
            let mut mem = SharedMemory::new();
            let mut ps = ticking_fleet(&mut mem, 4, 3);
            let mut sched = UniformScheduler::new();
            run(
                &mut ps,
                &mut sched,
                &mut mem,
                &RunConfig::new(500).seed(42).record_trace(true),
            )
        };
        let a = run_once();
        let b = run_once();
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.completions, b.completions);
    }

    #[cfg(feature = "obs")]
    #[test]
    fn traced_run_emits_the_schedule_as_events() {
        use pwf_obs::TraceCollector;

        let mut mem = SharedMemory::new();
        let mut ps = ticking_fleet(&mut mem, 2, 2);
        let mut sched = AdversarialScheduler::round_robin(2);
        let collector = TraceCollector::new(1024);
        let mut rec = collector.recorder(0);
        let exec = run_traced(
            &mut ps,
            &mut sched,
            &mut mem,
            &RunConfig::new(8).record_trace(true),
            &mut rec,
        );
        rec.finish();
        let events = collector.events();
        // 8 scheduler picks + 4 completions.
        let picks: Vec<u64> = events
            .iter()
            .filter(|e| e.kind == pwf_obs::EventKind::SchedulerPick)
            .map(|e| e.arg)
            .collect();
        assert_eq!(picks, vec![0, 1, 0, 1, 0, 1, 0, 1]);
        let completes: Vec<(u64, u64)> = events
            .iter()
            .filter(|e| e.kind == pwf_obs::EventKind::Complete)
            .map(|e| (e.tick, e.arg))
            .collect();
        assert_eq!(
            completes,
            exec.completions
                .iter()
                .map(|c| (c.time, c.process.index() as u64))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn hooked_run_matches_plain_run() {
        let run_with_hook = |hooked: bool| {
            let mut mem = SharedMemory::new();
            let mut ps = ticking_fleet(&mut mem, 4, 3);
            let mut sched = UniformScheduler::new();
            let config = RunConfig::new(500).seed(42).record_trace(true);
            if hooked {
                struct CountHook(u64);
                impl StepHook for CountHook {
                    fn on_pick(&mut self, _tau: u64, _p: ProcessId) {
                        self.0 += 1;
                    }
                }
                let mut hook = CountHook(0);
                let exec = run_hooked(&mut ps, &mut sched, &mut mem, &config, &mut hook);
                assert_eq!(hook.0, 500);
                exec
            } else {
                run(&mut ps, &mut sched, &mut mem, &config)
            }
        };
        let a = run_with_hook(true);
        let b = run_with_hook(false);
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.completions, b.completions);
    }

    #[test]
    fn different_seeds_differ() {
        let run_with = |seed| {
            let mut mem = SharedMemory::new();
            let mut ps = ticking_fleet(&mut mem, 4, 3);
            let mut sched = UniformScheduler::new();
            run(
                &mut ps,
                &mut sched,
                &mut mem,
                &RunConfig::new(500).seed(seed).record_trace(true),
            )
        };
        assert_ne!(run_with(1).trace, run_with(2).trace);
    }
}
