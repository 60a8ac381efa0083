//! The traced run: each workload's generated inputs replayed in-process,
//! with a span around every call into a layer's public functions.
//!
//! Spans carry a name, start, end and parent; the spans of one request
//! (or one verdict, or one layer call) share a request id. They are kept
//! in memory and written out when the run ends. Every per-layer metric
//! is derived from these spans or from the layers' own counters.

use std::collections::HashMap;
use std::hint::black_box;
use std::io::Write;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::Instant;

use pwf_algorithms::chains::scu;
use pwf_checker::explore::explore;
use pwf_core::chain_analysis::{analyze, ChainFamily};
use pwf_core::spec::{AlgorithmSpec, SchedulerSpec};
use pwf_hardware::FaiCounter;
use pwf_markov::solve::PowerOptions;
use pwf_obs::ObsHandle;
use pwf_serve::engine::{Engine, EngineConfig, EngineStats, Source};
use pwf_serve::http::{parse_request, Response};
use pwf_serve::lru::LruCache;
use pwf_serve::predict::{self, Alg, Layer, PredictKey};
use pwf_serve::shaper::Shaper;
use pwf_sim::process::ProcessId;
use pwf_sim::{progress, stats as sim_stats, RunConfig, SharedMemory};

use crate::keys::{self, ColdPlan, HotStream, COLD_PRIVATE_PER_ROUND};
use crate::limits::{fan_out, nproc};
use crate::stats::{mean, median, quantile};
use crate::vet::{build_registry, pruned, verdict};
use crate::Workload;

/// One recorded span. `id` is unique within its `thread` (a tracer);
/// `parent` is 0 for a root span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Request id shared by all spans of one request.
    pub req: u64,
    /// Span id within its tracer, from 1.
    pub id: u32,
    /// Parent span id within the same tracer, 0 for none.
    pub parent: u32,
    /// Tracer (thread) id.
    pub thread: u32,
    /// What was called.
    pub name: &'static str,
    /// Start, nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the run's epoch.
    pub end_ns: u64,
}

impl Span {
    fn duration_us(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e3
    }
}

static TRACERS: AtomicU32 = AtomicU32::new(0);

/// A per-thread span recorder; when off, every call is a pass-through.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    thread: u32,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder timing against `epoch`.
    pub fn new(on: bool, epoch: Instant) -> Self {
        Tracer {
            on,
            epoch,
            thread: TRACERS.fetch_add(1, Ordering::Relaxed),
            spans: Vec::new(),
        }
    }

    /// A recorder that records nothing.
    pub fn off() -> Self {
        Tracer::new(false, Instant::now())
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its id (0 when off).
    pub fn open(&mut self, req: u64, parent: u32, name: &'static str) -> u32 {
        if !self.on {
            return 0;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            req,
            id: self.spans.len() as u32 + 1,
            parent,
            thread: self.thread,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() as u32
    }

    /// Closes span `id` (a no-op for 0).
    pub fn close(&mut self, id: u32) {
        if id != 0 {
            let end = self.now_ns();
            self.spans[id as usize - 1].end_ns = end;
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        req: u64,
        parent: u32,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(req, parent, name);
        let out = f();
        self.close(id);
        out
    }
}

/// Durations of the spans named `name`, microseconds.
fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration_us)
        .collect()
}

/// Request-id namespaces of the replays.
const HOT_REQ: u64 = 1 << 40;
const COLD_REQ: u64 = 2 << 40;
const LAYER_REQ: u64 = 3 << 40;
const VET_REQ: u64 = 4 << 40;

/// Requests each thread replays of serve-hot.
const HOT_REPLAY_PER_THREAD: usize = 5_000;
/// Rounds of serve-cold replayed (extended to cover both chain paths).
const COLD_REPLAY_ROUNDS: usize = 8;
/// Length of the untraced HTTP serve-hot segment that gives the client
/// p50 behind `serve.transport_share`: the traced run is a process of its
/// own, so it measures the client side itself rather than reading another
/// run's `latency_p50_us`.
const CLIENT_SEGMENT_S: f64 = 1.0;

/// Checks made during the traced run.
#[derive(Debug, Default)]
pub struct Checks {
    /// Outputs checked.
    pub attempted: u64,
    /// Outputs that were wrong.
    pub failed: u64,
    /// The first failure, for the log.
    pub first_error: Option<String>,
}

impl Checks {
    fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.first_error.get_or_insert_with(why);
        }
    }

    fn absorb(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        if self.first_error.is_none() {
            self.first_error = other.first_error;
        }
    }
}

fn request_bytes(key: &PredictKey) -> Vec<u8> {
    format!(
        "GET /predict?{} HTTP/1.1\r\nHost: bench\r\n\r\n",
        key.canonical()
    )
    .into_bytes()
}

/// A replayed request through the serve layers: HTTP parse, key parse,
/// engine, HTTP write. Returns the served body and its source.
fn serve_one(
    tracer: &mut Tracer,
    req: u64,
    parent: u32,
    key: &PredictKey,
    engine: &Engine,
    sink: &mut Vec<u8>,
    checks: &mut Checks,
) -> Option<(Arc<String>, Source)> {
    let raw = request_bytes(key);
    let parsed = tracer.span(req, parent, "serve.http.parse", || {
        parse_request(&mut &raw[..])
    });
    let Ok(parsed) = parsed else {
        checks.check(false, || format!("parse_request rejected {key}"));
        return None;
    };
    let parsed = tracer.span(req, parent, "predict.parse_key", || {
        predict::parse_key(&parsed.query)
    });
    if parsed.as_ref() != Ok(key) {
        checks.check(false, || format!("parse_key changed {key}"));
        return None;
    }
    let served = match tracer.span(req, parent, "serve.engine.serve", || engine.serve(key)) {
        Ok(served) => served,
        Err(e) => {
            checks.check(false, || format!("engine refused {key}: {e:?}"));
            return None;
        }
    };
    let response = Response::json(200, served.body.as_ref().clone())
        .header("x-pwf-source", served.source.name())
        .header("x-pwf-ticket", served.ticket.to_string());
    sink.clear();
    let written = tracer.span(req, parent, "serve.http.write", || {
        response.write_to(sink, true)
    });
    checks.check(
        written.is_ok() && sink.ends_with(served.body.as_bytes()),
        || format!("write_to lost the body of {key}"),
    );
    Some((served.body, served.source))
}

struct HotReplay {
    wall_s: f64,
    spans: Vec<Span>,
    checks: Checks,
    ticket_steps: Vec<f64>,
    /// Requests the engine and the standalone shaper had to queue.
    queued: u64,
    shed: u64,
}

/// serve-hot's key streams through a warmed engine, plus the engine's
/// admission, ticket and cache primitives called on their own.
fn replay_hot(seed: u64, on: bool, epoch: Instant) -> HotReplay {
    let keys = keys::hot_working_set();
    let config = EngineConfig::default();
    let engine = Engine::new(&config, ObsHandle::collecting(None));
    let lru = Mutex::new(LruCache::new(config.cache_capacity, config.cache_ttl_us));
    let mut expected = Vec::new();
    for key in &keys {
        let body = Arc::new(predict::compute(key).expect("working-set keys compute"));
        let _ = engine.serve(key);
        lru.lock()
            .expect("lru poisoned")
            .put(&key.canonical(), Arc::clone(&body));
        expected.push(body);
    }
    let shaper = Shaper::new(config.max_active, config.max_queue, config.max_wait);
    let ticket = FaiCounter::new();

    let started = Instant::now();
    let parts = fan_out(vec![(); nproc()], |t, ()| {
        let mut tracer = Tracer::new(on, epoch);
        let mut checks = Checks::default();
        let mut stream = HotStream::new(seed, t);
        let mut sink = Vec::with_capacity(1024);
        let mut steps = Vec::with_capacity(HOT_REPLAY_PER_THREAD);
        for i in 0..HOT_REPLAY_PER_THREAD {
            let k = stream.next_index();
            let key = &keys[k];
            let req = HOT_REQ | (t as u64) << 32 | i as u64;
            let root = tracer.open(req, 0, "request");
            let permit = tracer.span(req, root, "serve.shaper.admit", || shaper.admit());
            drop(permit);
            let (_, s) = tracer.span(req, root, "serve.ticket.fai", || ticket.fetch_and_inc());
            steps.push(s as f64);
            let canonical = key.canonical();
            let hit = {
                let mut cache = lru.lock().expect("lru poisoned");
                tracer.span(req, root, "serve.lru.get", || cache.get(&canonical))
            };
            checks.check(hit.is_some(), || {
                format!("warmed key {key} missed the cache")
            });
            let served = serve_one(&mut tracer, req, root, key, &engine, &mut sink, &mut checks);
            tracer.close(root);
            checks.check(
                matches!(&served, Some((body, Source::Cache)) if **body == *expected[k]),
                || format!("hot replay served a wrong or uncached body for {key}"),
            );
        }
        (tracer.spans, checks, steps)
    });
    let wall_s = started.elapsed().as_secs_f64();
    let mut out = HotReplay {
        wall_s,
        spans: Vec::new(),
        checks: Checks::default(),
        ticket_steps: Vec::new(),
        queued: engine.stats().shaper.queued + shaper.stats().queued,
        shed: engine.stats().shaper.shed + shaper.stats().shed,
    };
    for (spans, checks, steps) in parts {
        out.spans.extend(spans);
        out.checks.absorb(checks);
        out.ticket_steps.extend(steps);
    }
    out
}

struct ColdReplay {
    wall_s: f64,
    spans: Vec<Span>,
    checks: Checks,
    served: Vec<(PredictKey, Arc<String>)>,
    join_wait_us: Vec<f64>,
    stats: EngineStats,
}

/// The first rounds of serve-cold's plan through a fresh engine, from
/// `nproc` threads meeting at a barrier before each shared key, with
/// the result cache's own get/put called beside it.
fn replay_cold(seed: u64, on: bool, epoch: Instant) -> ColdReplay {
    let conns = nproc();
    let plan = ColdPlan::new(seed, conns);
    let rounds = plan.replay_rounds(COLD_REPLAY_ROUNDS);
    let config = EngineConfig::default();
    let engine = Engine::new(&config, ObsHandle::collecting(None));
    let lru = Mutex::new(LruCache::new(config.cache_capacity, config.cache_ttl_us));
    let barrier = Barrier::new(conns);

    let started = Instant::now();
    let parts = fan_out(vec![(); conns], |t, ()| {
        let mut tracer = Tracer::new(on, epoch);
        let mut checks = Checks::default();
        let mut sink = Vec::with_capacity(1024);
        let mut served = Vec::new();
        let mut join_wait = Vec::new();
        let mut i = 0u64;
        let mut one = |key: PredictKey, tracer: &mut Tracer, checks: &mut Checks| {
            let req = COLD_REQ | (t as u64) << 32 | i;
            i += 1;
            let root = tracer.open(req, 0, "request");
            let canonical = key.canonical();
            {
                let mut cache = lru.lock().expect("lru poisoned");
                black_box(tracer.span(req, root, "serve.lru.get", || cache.get(&canonical)));
            }
            let t0 = Instant::now();
            let reply = serve_one(tracer, req, root, &key, &engine, &mut sink, checks);
            let waited = t0.elapsed().as_secs_f64() * 1e6;
            if let Some((body, source)) = reply {
                if source == Source::Coalesced {
                    join_wait.push(waited);
                }
                let mut cache = lru.lock().expect("lru poisoned");
                tracer.span(req, root, "serve.lru.put", || {
                    cache.put(&canonical, Arc::clone(&body))
                });
                served.push((key, body));
            }
            tracer.close(root);
        };
        for round in 0..rounds {
            for slot in 0..COLD_PRIVATE_PER_ROUND {
                one(
                    plan.private(t, round * COLD_PRIVATE_PER_ROUND + slot),
                    &mut tracer,
                    &mut checks,
                );
            }
            barrier.wait();
            one(plan.shared(round), &mut tracer, &mut checks);
        }
        (tracer.spans, checks, served, join_wait)
    });
    let wall_s = started.elapsed().as_secs_f64();
    let mut out = ColdReplay {
        wall_s,
        spans: Vec::new(),
        checks: Checks::default(),
        served: Vec::new(),
        join_wait_us: Vec::new(),
        stats: engine.stats(),
    };
    for (spans, checks, served, join_wait) in parts {
        out.spans.extend(spans);
        out.checks.absorb(checks);
        out.served.extend(served);
        out.join_wait_us.extend(join_wait);
    }
    out
}

/// The JSON spelling `predict::compute` gives a float.
fn body_num(v: f64) -> String {
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        s + ".0"
    }
}

#[derive(Default)]
struct LayerReplay {
    spans: Vec<Span>,
    checks: Checks,
    solve_iterations: Vec<f64>,
    sim_steps: u64,
}

/// Each distinct key of the cold replay through `predict::compute`,
/// then through the Markov or simulator layer's own public calls. The
/// direct body is the reference every served body is checked against.
fn replay_layers(cold: &ColdReplay, epoch: Instant) -> LayerReplay {
    let mut out = LayerReplay::default();
    let mut tracer = Tracer::new(true, epoch);
    let mut reference: HashMap<String, String> = HashMap::new();
    for (i, (key, _)) in cold.served.iter().enumerate() {
        let canonical = key.canonical();
        if reference.contains_key(&canonical) {
            continue;
        }
        let req = LAYER_REQ | i as u64;
        let name = match key.layer {
            Layer::Theory => "predict.compute.theory",
            Layer::Chain => "predict.compute.chain",
            Layer::Sim => "predict.compute.sim",
        };
        let body = match tracer.span(req, 0, name, || predict::compute(key)) {
            Ok(body) => body,
            Err(e) => {
                out.checks
                    .check(false, || format!("compute failed for {key}: {e}"));
                continue;
            }
        };
        match key.layer {
            Layer::Theory => {}
            Layer::Chain => markov_layer(key, &body, &mut tracer, req, &mut out),
            Layer::Sim => sim_layer(key, &body, &mut tracer, req, &mut out),
        }
        reference.insert(canonical, body);
    }
    for (key, body) in &cold.served {
        out.checks.check(
            reference.get(&key.canonical()) == Some(body.as_ref()),
            || format!("served body of {key} differs from predict::compute"),
        );
    }
    out.spans = tracer.spans;
    out
}

/// The Markov layer's calls behind a chain key: the symmetry-reduced
/// lifting check and operator solve past the dense wall, the dense
/// analysis below it. The latency must match the served body.
fn markov_layer(
    key: &PredictKey,
    body: &str,
    tracer: &mut Tracer,
    req: u64,
    out: &mut LayerReplay,
) {
    let latency = if key.alg == Alg::Scu && key.n > 7 {
        let lifting = tracer.span(req, 0, "markov.lifting", || {
            scu::verify_lifting_by_symmetry(key.n, 2, 0x5EED_C4A1)
        });
        black_box(lifting.ok());
        let solved = tracer.span(req, 0, "markov.solve", || {
            scu::large_system_latency_with(key.n, &PowerOptions::new(500_000, 1e-12), None)
        });
        solved.ok().map(|(w, stats)| {
            out.solve_iterations.push(stats.iterations as f64);
            w
        })
    } else {
        let family = match key.alg {
            Alg::Scu => ChainFamily::Scu01,
            Alg::Fai => ChainFamily::FetchAndInc,
            Alg::Parallel => ChainFamily::Parallel { q: key.q },
        };
        let report = tracer.span(req, 0, "markov.dense", || analyze(family, key.n));
        report.ok().map(|r| r.system_latency)
    };
    out.checks.check(
        latency.is_some_and(|w| body.contains(&format!("\"system_latency\": {}", body_num(w)))),
        || format!("Markov layer disagrees with the served body of {key}"),
    );
}

/// The simulator's calls behind a sim key: the executor run, then the
/// statistics and progress measures over its execution.
fn sim_layer(key: &PredictKey, body: &str, tracer: &mut Tracer, req: u64, out: &mut LayerReplay) {
    let spec = match key.alg {
        Alg::Scu => AlgorithmSpec::Scu { q: key.q, s: key.s },
        Alg::Fai => AlgorithmSpec::FetchAndInc,
        Alg::Parallel => AlgorithmSpec::Parallel { q: key.q },
    };
    let mut mem = SharedMemory::new();
    let mut procs = spec.build(&mut mem, key.n);
    let mut scheduler = SchedulerSpec::Uniform.build();
    let config = RunConfig::new(key.steps).seed(key.seed);
    let exec = tracer.span(req, 0, "sim.run", || {
        pwf_sim::run(&mut procs, scheduler.as_mut(), &mut mem, &config)
    });
    out.sim_steps += key.steps;
    tracer.span(req, 0, "sim.post", || {
        black_box(sim_stats::system_latency(&exec));
        for p in 0..key.n {
            black_box(sim_stats::individual_latency(&exec, ProcessId::new(p)));
        }
        black_box(sim_stats::completion_rate(&exec));
        black_box(progress::measure(&exec, &[]));
    });
    let completions = format!("\"total_completions\": {}", exec.total_completions());
    out.checks.check(body.contains(&completions), || {
        format!("simulator disagrees with the served body of {key}")
    });
}

#[derive(Default)]
struct VetReplay {
    wall_s: f64,
    spans: Vec<Span>,
    checks: Checks,
    explore_jobs1_ms: f64,
    executions: u64,
    transitions: u64,
    sleep_blocked: u64,
    units: u64,
    steals: u64,
    cache_hits: u64,
    cache_misses: u64,
}

/// One verdict pass at jobs = `nproc` in the seeded order, then (when
/// traced) every target explored at jobs 1 and its report compared.
fn replay_vet(seed: u64, on: bool, epoch: Instant) -> VetReplay {
    let mut out = VetReplay::default();
    let mut tracer = Tracer::new(on, epoch);
    let targets = build_registry();
    let mut reports = vec![String::new(); targets.len()];
    let started = Instant::now();
    for (slot, i) in keys::vet_order(seed, 0, targets.len())
        .into_iter()
        .enumerate()
    {
        let target = &targets[i];
        let req = VET_REQ | slot as u64;
        let root = tracer.open(req, 0, "verdict");
        let v = verdict(target, nproc(), &mut tracer, req, root);
        tracer.close(root);
        out.checks
            .check(v.ok, || format!("wrong verdict on {}", target.name));
        let s = &v.stats;
        out.executions += s.executions;
        out.transitions += s.transitions;
        out.sleep_blocked += s.sleep_blocked;
        out.units += s.units;
        out.steals += s.steals;
        out.cache_hits += s.cache_hits;
        out.cache_misses += s.cache_misses;
        reports[i] = v.json;
    }
    out.wall_s = started.elapsed().as_secs_f64();
    if on {
        for (i, target) in targets.iter().enumerate() {
            let req = VET_REQ | (targets.len() + i) as u64;
            let single = tracer.span(req, 0, "checker.explore_jobs1", || {
                explore(target, &pruned(1))
            });
            out.checks
                .check(single.deterministic_json(target.name) == reports[i], || {
                    format!(
                        "{} differs between jobs {} and jobs 1",
                        target.name,
                        nproc()
                    )
                });
        }
        out.explore_jobs1_ms = durations_us(&tracer.spans, "checker.explore_jobs1")
            .iter()
            .sum::<f64>()
            / 1e3;
    }
    out.spans = tracer.spans;
    out
}

/// The per-layer metrics, in output order, with their units.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("serve.http.parse_us", "us"),
    ("serve.http.write_us", "us"),
    ("serve.engine.serve_us.p50", "us"),
    ("serve.engine.serve_us.p99", "us"),
    ("serve.transport_share", "ratio"),
    ("serve.shaper.admit_us", "us"),
    ("serve.shaper.queued", "count"),
    ("serve.shaper.shed", "count"),
    ("serve.ticket.fai_us", "us"),
    ("serve.ticket.steps_mean", "steps"),
    ("serve.lru.get_us", "us"),
    ("serve.lru.put_us", "us"),
    ("serve.lru.hit_rate", "ratio"),
    ("serve.coalesce.leaders", "count"),
    ("serve.coalesce.joins", "count"),
    ("serve.coalesce.join_wait_us", "us"),
    ("predict.parse_key_us", "us"),
    ("predict.compute_us.theory.p50", "us"),
    ("predict.compute_us.theory.p99", "us"),
    ("predict.compute_us.chain.p50", "us"),
    ("predict.compute_us.chain.p99", "us"),
    ("predict.compute_us.sim.p50", "us"),
    ("predict.compute_us.sim.p99", "us"),
    ("markov.lifting_ms", "ms"),
    ("markov.solve_ms", "ms"),
    ("markov.solve_iterations", "count"),
    ("markov.dense_ms", "ms"),
    ("sim.run_ms", "ms"),
    ("sim.post_ms", "ms"),
    ("sim.steps_per_s", "1/s"),
    ("checker.explore_ms", "ms"),
    ("checker.fair_audit_ms", "ms"),
    ("checker.shrink_ms", "ms"),
    ("checker.explore_ms_jobs1", "ms"),
    ("checker.parallel_efficiency", "ratio"),
    ("checker.executions", "count"),
    ("checker.transitions", "count"),
    ("checker.sleep_blocked", "count"),
    ("checker.units", "count"),
    ("checker.steals", "count"),
    ("checker.cache.hit_ratio", "ratio"),
    ("obs.trace_overhead", "ratio"),
    ("error_rate", "ratio"),
];

/// What the traced run produced.
pub struct TracedRun {
    /// Per-layer metric values in [`PER_LAYER`] order.
    pub values: [f64; PER_LAYER.len()],
    /// Output checks across all replays.
    pub checks: Checks,
    /// Every span recorded.
    pub spans: Vec<Span>,
}

/// Replays every workload's inputs traced (so that each layer is
/// measured on the workload that drives it), and the named workload
/// once more untraced for `obs.trace_overhead`.
///
/// # Errors
///
/// When the HTTP segment behind `serve.transport_share` cannot run.
pub fn run(workload: Workload, seed: u64) -> Result<TracedRun, String> {
    let epoch = Instant::now();
    let mut checks = Checks::default();

    let client = crate::serve::hot(seed, CLIENT_SEGMENT_S, 1)?;
    checks.attempted += client.attempted;
    checks.failed += client.failed;
    checks.first_error = client.first_error.clone();
    let client_p50 = median(&client.latencies_us);

    let untraced = match workload {
        Workload::ServeHot => replay_hot(seed, false, epoch).wall_s,
        Workload::ServeCold => replay_cold(seed, false, epoch).wall_s,
        Workload::Vet => replay_vet(seed, false, epoch).wall_s,
    };
    let hot = replay_hot(seed, true, epoch);
    let cold = replay_cold(seed, true, epoch);
    let layers = replay_layers(&cold, epoch);
    let vet = replay_vet(seed, true, epoch);
    let traced = match workload {
        Workload::ServeHot => hot.wall_s,
        Workload::ServeCold => cold.wall_s,
        Workload::Vet => vet.wall_s,
    };

    let p50 = |spans: &[Span], name: &str| median(&durations_us(spans, name));
    let p99 = |spans: &[Span], name: &str| quantile(&durations_us(spans, name), 0.99);
    let ms = |name: &str| median(&durations_us(&layers.spans, name)) / 1e3;
    let total_ms = |name: &str| durations_us(&vet.spans, name).iter().sum::<f64>() / 1e3;
    let engine_p50 = p50(&hot.spans, "serve.engine.serve");
    let explore_ms = total_ms("checker.explore");
    let sim_run_s = durations_us(&layers.spans, "sim.run").iter().sum::<f64>() / 1e6;
    let cache = cold.stats.cache;
    let lookups = vet.cache_hits + vet.cache_misses;

    for part in [hot.checks, cold.checks, layers.checks, vet.checks] {
        checks.absorb(part);
    }
    let error_rate = checks.failed as f64 / checks.attempted.max(1) as f64;

    let values = [
        p50(&hot.spans, "serve.http.parse"),
        p50(&hot.spans, "serve.http.write"),
        engine_p50,
        p99(&cold.spans, "serve.engine.serve"),
        1.0 - engine_p50 / client_p50,
        p50(&hot.spans, "serve.shaper.admit"),
        (hot.queued + cold.stats.shaper.queued) as f64,
        (hot.shed + cold.stats.shaper.shed) as f64,
        p50(&hot.spans, "serve.ticket.fai"),
        mean(&hot.ticket_steps),
        p50(&hot.spans, "serve.lru.get"),
        p50(&cold.spans, "serve.lru.put"),
        cache.hits as f64 / (cache.hits + cache.misses).max(1) as f64,
        cold.stats.dedup.leaders as f64,
        cold.stats.dedup.joins as f64,
        if cold.join_wait_us.is_empty() {
            0.0
        } else {
            median(&cold.join_wait_us)
        },
        p50(&hot.spans, "predict.parse_key"),
        p50(&layers.spans, "predict.compute.theory"),
        p99(&layers.spans, "predict.compute.theory"),
        p50(&layers.spans, "predict.compute.chain"),
        p99(&layers.spans, "predict.compute.chain"),
        p50(&layers.spans, "predict.compute.sim"),
        p99(&layers.spans, "predict.compute.sim"),
        ms("markov.lifting"),
        ms("markov.solve"),
        mean(&layers.solve_iterations),
        ms("markov.dense"),
        ms("sim.run"),
        ms("sim.post"),
        layers.sim_steps as f64 / sim_run_s,
        explore_ms,
        total_ms("checker.fair_audit"),
        total_ms("checker.shrink"),
        vet.explore_jobs1_ms,
        vet.explore_jobs1_ms / (nproc() as f64 * explore_ms),
        vet.executions as f64,
        vet.transitions as f64,
        vet.sleep_blocked as f64,
        vet.units as f64,
        vet.steals as f64,
        vet.cache_hits as f64 / lookups.max(1) as f64,
        traced / untraced - 1.0,
        error_rate,
    ];
    let mut spans = hot.spans;
    spans.extend(cold.spans);
    spans.extend(layers.spans);
    spans.extend(vet.spans);
    Ok(TracedRun {
        values,
        checks,
        spans,
    })
}

/// Writes spans as JSON lines.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"req\":{},\"id\":{},\"parent\":{},\"thread\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.req, s.id, s.parent, s.thread, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}
