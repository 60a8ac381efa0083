//! `exp_sim_bench` — the perf gate for the simulator fast path: times
//! the linear-scan weighted pick against the O(1) alias sampler on a
//! uniform-weight workload, and the `Box<dyn Process>` stepping loop
//! against the monomorphized allocation-free core, recording the
//! trajectory in `BENCH_sim.json` so speedups are tracked across PRs.
//! A third table splits a uniform-scheduler step of the served fleets
//! into its components: the pick alone (the scheduler filling a
//! `PICK_BLOCK` array, as the executor does) and the full executor
//! step; the rest is the process step and the loop around it.
//!
//! Wall-clock measurement is hardware-dependent, so the experiment
//! registers `deterministic: false` and `pwf check` skips it; the
//! agreement checks (mono and dyn stepping byte-identical; linear and
//! alias completion totals within 1%) and the speedup gate (alias
//! strictly faster at the largest size) are what make it a test
//! rather than a report.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use pwf_core::spec::{AlgorithmSpec, SchedulerSpec};
use pwf_obs::json::Json;
use pwf_rng::rngs::StdRng;
use pwf_rng::SeedableRng;
use pwf_runner::{fmt, ExpConfig, ExpResult, FnExperiment, ReportBuilder};
use pwf_sim::executor::{run_into, Execution, NoHook, RunConfig, PICK_BLOCK};
use pwf_sim::memory::SharedMemory;
use pwf_sim::process::{Process, ProcessId, TickingProcess};
use pwf_sim::scheduler::{ActiveSet, Scheduler, UniformScheduler, WeightedScheduler};

/// The registered experiment.
pub const EXP: FnExperiment = FnExperiment {
    name: "exp_sim_bench",
    description:
        "Perf gate: alias vs linear-scan sampling and mono vs dyn stepping, BENCH_sim.json",
    sizes: "n=64..1024",
    deterministic: false,
    body: fill,
};

/// Steps per timed run — enough for the per-step cost to dominate the
/// setup, small enough to keep the linear-scan side of the largest
/// size under a second.
const STEPS: u64 = 300_000;

/// One timed simulator run over `n` monomorphized ticking processes;
/// returns elapsed milliseconds and total completions. `out` is
/// reused across calls, so warm runs are allocation-free.
fn timed_run(
    n: usize,
    scheduler: &mut dyn Scheduler,
    seed: u64,
    steps: u64,
    out: &mut Execution,
) -> (f64, u64) {
    let mut mem = SharedMemory::new();
    let r = mem.alloc(0);
    let mut ps: Vec<TickingProcess> = (0..n).map(|_| TickingProcess::new(r, 5)).collect();
    let config = RunConfig::new(steps).seed(seed);
    let start = Instant::now();
    run_into(&mut ps, scheduler, &mut mem, &config, &mut NoHook, out);
    (start.elapsed().as_secs_f64() * 1e3, out.total_completions())
}

/// The fleets of the per-step breakdown: the algorithms `pwf serve`
/// simulates.
const SERVED_FLEETS: [(&str, AlgorithmSpec); 3] = [
    ("scu(2,1)", AlgorithmSpec::Scu { q: 2, s: 1 }),
    ("fai", AlgorithmSpec::FetchAndInc),
    ("parallel(8)", AlgorithmSpec::Parallel { q: 8 }),
];

/// Best-of-three nanoseconds per uniform pick over `n` active
/// processes: the boxed scheduler the served path builds, filling one
/// `PICK_BLOCK` array after another, with no process stepping.
fn pick_ns(n: usize, seed: u64, steps: u64) -> f64 {
    let active = ActiveSet::all(n);
    let blocks = steps.div_ceil(PICK_BLOCK as u64);
    let mut block = [ProcessId::new(0); PICK_BLOCK];
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let mut scheduler = SchedulerSpec::Uniform.build();
        let mut rng = StdRng::seed_from_u64(seed);
        let start = Instant::now();
        for b in 0..blocks {
            for (tau, slot) in (b * PICK_BLOCK as u64 + 1..).zip(block.iter_mut()) {
                *slot = scheduler.schedule(tau, &active, &mut rng);
            }
            black_box(&block);
        }
        best = best.min(start.elapsed().as_secs_f64());
    }
    best * 1e9 / (blocks * PICK_BLOCK as u64) as f64
}

/// Best-of-three milliseconds of `run_into` over a fresh copy of the
/// fleet `fleet` allocates: the stepping loop is so cheap that a
/// single run is dominated by cache warm-up noise.
fn best_run_ms<P: Process, S: Scheduler + ?Sized>(
    fleet: impl Fn(&mut SharedMemory) -> Vec<P>,
    scheduler: &mut S,
    config: &RunConfig,
    out: &mut Execution,
) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let mut mem = SharedMemory::new();
        let mut ps = fleet(&mut mem);
        let start = Instant::now();
        run_into(&mut ps, scheduler, &mut mem, config, &mut NoHook, out);
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
    }
    best
}

fn fill(cfg: &ExpConfig, out: &mut ReportBuilder) -> ExpResult {
    out.note("simulator fast-path benchmark: weighted scheduling with the O(1)");
    out.note("alias sampler vs the linear-scan oracle, uniform weights.");
    out.header(&["n", "linear ms", "alias ms", "speedup", "alias Msteps/s"]);

    let steps = cfg.scaled(STEPS);
    let sizes: &[usize] = if cfg.fast {
        &[64, 256]
    } else {
        &[64, 256, 1024]
    };

    let mut buf = Execution::empty();
    let mut entries: Vec<Json> = Vec::new();
    let mut gate = None;
    for &n in sizes {
        let seed = cfg.sub_seed(n as u64);
        let mut linear = WeightedScheduler::with_linear_sampling(vec![1.0; n]);
        let (linear_ms, linear_done) = timed_run(n, &mut linear, seed, steps, &mut buf);
        let mut alias = WeightedScheduler::new(vec![1.0; n]);
        let (alias_ms, alias_done) = timed_run(n, &mut alias, seed, steps, &mut buf);

        // Different samplers consume the RNG stream differently, so
        // the runs are distinct executions of the same distribution;
        // throughput (completions/step is pinned by the ticking
        // period) must still agree closely.
        let rel = (linear_done as f64 - alias_done as f64).abs() / linear_done as f64;
        if rel > 0.01 {
            return Err(format!(
                "linear/alias completion totals diverge at n = {n} (rel {rel:.3})"
            )
            .into());
        }

        let speedup = linear_ms / alias_ms;
        gate = Some((n, speedup));
        out.row(&[
            n.to_string(),
            fmt(linear_ms),
            fmt(alias_ms),
            fmt(speedup),
            fmt(steps as f64 / alias_ms / 1e3),
        ]);
        entries.push(Json::Obj(vec![
            ("n".into(), Json::Int(n as i128)),
            ("linear_ms".into(), Json::Num(linear_ms)),
            ("alias_ms".into(), Json::Num(alias_ms)),
            ("speedup".into(), Json::Num(speedup)),
            ("completions_rel_err".into(), Json::Num(rel)),
        ]));
    }

    out.note("");
    out.note("stepping core: Box<dyn Process> fleet vs monomorphized fleet");
    out.note("(identical seeds; outputs must agree exactly):");
    out.header(&["n", "dyn ms", "mono ms", "speedup"]);
    let n = 256;
    let seed = cfg.sub_seed(1 << 20);
    let config = RunConfig::new(steps).seed(seed);
    let ticking = |mem: &mut SharedMemory| {
        let r = mem.alloc(0);
        (0..n).map(move |_| TickingProcess::new(r, 5))
    };
    let mut dyn_out = Execution::empty();
    let dyn_ms = best_run_ms(
        |mem| {
            ticking(mem)
                .map(|p| Box::new(p) as Box<dyn Process>)
                .collect()
        },
        &mut UniformScheduler::new(),
        &config,
        &mut dyn_out,
    );
    let mut mono_out = Execution::empty();
    let mono_ms = best_run_ms(
        |mem| ticking(mem).collect(),
        &mut UniformScheduler::new(),
        &config,
        &mut mono_out,
    );
    if dyn_out.process_completions != mono_out.process_completions {
        return Err("mono and dyn stepping disagree under identical seeds".into());
    }
    let mono_speedup = dyn_ms / mono_ms;
    out.row(&[n.to_string(), fmt(dyn_ms), fmt(mono_ms), fmt(mono_speedup)]);

    out.note("");
    out.note(&format!(
        "uniform-scheduler step components at n = {n}: the pick alone, in"
    ));
    out.note(&format!(
        "{PICK_BLOCK}-pick blocks, and the full executor step (best of 3):"
    ));
    out.header(&["fleet", "ns/pick", "ns/step", "pick share"]);
    let pick = pick_ns(n, seed, steps);
    let mut served = SchedulerSpec::Uniform.build();
    for (name, spec) in &SERVED_FLEETS {
        let ms = best_run_ms(|mem| spec.build(mem, n), served.as_mut(), &config, &mut buf);
        let step = ms * 1e6 / steps as f64;
        out.row(&[name.to_string(), fmt(pick), fmt(step), fmt(pick / step)]);
    }

    let mut fields = vec![
        ("benchmark".into(), Json::Str("pwf-sim".into())),
        ("profile".into(), Json::Str(cfg.profile().into())),
        ("steps_per_run".into(), Json::Int(steps as i128)),
        ("mono_vs_dyn_speedup".into(), Json::Num(mono_speedup)),
    ];
    if let Some((n, speedup)) = gate {
        fields.push(("largest_n".into(), Json::Int(n as i128)));
        fields.push(("speedup_at_largest_n".into(), Json::Num(speedup)));
    }
    fields.push(("sizes".into(), Json::Arr(entries)));
    std::fs::write(Path::new("BENCH_sim.json"), Json::Obj(fields).render())
        .map_err(|e| format!("writing BENCH_sim.json: {e}"))?;
    out.note("");
    out.note("trajectory written to BENCH_sim.json.");

    if let Some((n, speedup)) = gate {
        // The gate: at the largest size run, O(1) sampling must beat
        // the O(n) scan outright.
        if speedup <= 1.0 {
            return Err(format!(
                "alias sampling is not faster than the linear scan at n = {n} \
                 (speedup {speedup:.2}x)"
            )
            .into());
        }
        out.note(&format!(
            "sampling speedup at the largest size (n = {n}): {speedup:.0}x"
        ));
    }
    Ok(())
}
