//! The serve workloads end to end: a `pwf_serve` server started
//! in-process on an ephemeral loopback port, driven over real sockets by
//! `nproc` keep-alive connections in a closed loop.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use pwf_obs::ObsHandle;
use pwf_serve::predict::{self, PredictKey};
use pwf_serve::server::{start, ServerConfig, ServerHandle};

use crate::client::{Conn, Source};
use crate::keys::{self, ColdPlan, HotStream, COLD_PRIVATE_PER_ROUND};
use crate::limits::{fan_out, nproc};
use crate::stats::median;

/// Requests per connection that make one serve pass (a serve-cold
/// round: three private keys and the shared one).
const PASS_REQUESTS: usize = COLD_PRIVATE_PER_ROUND + 1;

/// What one end-to-end serve run measured.
#[derive(Debug, Default)]
pub struct ServeRun {
    /// Set-up times of the repeated boots, seconds.
    pub setups_s: Vec<f64>,
    /// Requests sent (including warm-up).
    pub attempted: u64,
    /// Non-200 replies, body mismatches and transport errors.
    pub failed: u64,
    /// The first failure, for the log.
    pub first_error: Option<String>,
    /// Client latency of each successful timed request, send to last
    /// body byte, microseconds.
    pub latencies_us: Vec<f64>,
    /// Wall time of each pass of [`PASS_REQUESTS`] requests on one
    /// connection, seconds.
    pub passes_s: Vec<f64>,
    /// Successful timed requests.
    pub ok: u64,
    /// Length of the timed window, first send to last reply.
    pub wall_s: f64,
    /// Replies by `x-pwf-source`: cache, computed, coalesced.
    pub sources: [u64; 3],
}

impl ServeRun {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        self.first_error.get_or_insert(why);
    }

    /// Median set-up time.
    pub fn setup_s(&self) -> f64 {
        median(&self.setups_s)
    }
}

fn target(key: &PredictKey) -> String {
    format!("/predict?{}", key.canonical())
}

/// Starts a fresh server (the `pwf serve` defaults on an ephemeral port)
/// and opens `nproc` connections, each checked with `/healthz`.
fn boot() -> Result<(ServerHandle, Vec<Conn>), String> {
    let config = ServerConfig {
        addr: "127.0.0.1:0".into(),
        ..ServerConfig::default()
    };
    let server = start(&config, ObsHandle::collecting(None)).map_err(|e| format!("start: {e}"))?;
    let mut conns = Vec::new();
    let mut body = Vec::new();
    for _ in 0..nproc() {
        let mut conn = Conn::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
        match conn.get("/healthz", &mut body) {
            Ok((200, _)) if body == b"ok\n" => {}
            other => return Err(format!("healthz: {other:?}")),
        }
        conns.push(conn);
    }
    Ok((server, conns))
}

/// Boots `reps` times, keeping the last server; `warm` runs inside each
/// timed set-up. Runs call it again after their window, so set-up time
/// is sampled at both ends of the run: over ten runs on a 2-vCPU VM,
/// serve-cold's set-up time spread 0.05 (quartile distance ÷ median)
/// this way and 0.24 with every sample taken at process start.
fn setup(
    run: &mut ServeRun,
    reps: usize,
    mut warm: impl FnMut(&mut Conn, &mut ServeRun),
) -> Result<(ServerHandle, Vec<Conn>), String> {
    let mut live = None;
    for _ in 0..reps.max(1) {
        // Close the previous server's connections before booting anew.
        drop(live.take());
        let t0 = Instant::now();
        let (server, mut conns) = boot()?;
        warm(&mut conns[0], run);
        run.setups_s.push(t0.elapsed().as_secs_f64());
        live = Some((server, conns));
    }
    Ok(live.expect("at least one boot"))
}

fn source_slot(source: Source) -> Option<usize> {
    match source {
        Source::Cache => Some(0),
        Source::Computed => Some(1),
        Source::Coalesced => Some(2),
        Source::Other => None,
    }
}

/// Per-connection tallies of the timed window.
#[derive(Default)]
struct ConnTally {
    run: ServeRun,
    end: Option<Instant>,
    served: Vec<(PredictKey, Vec<u8>)>,
}

impl ConnTally {
    /// Records one reply; `expected` is checked when known now.
    fn record(
        &mut self,
        key: &PredictKey,
        reply: std::io::Result<(u16, Source)>,
        latency: Duration,
        body: &[u8],
        expected: Option<&[u8]>,
    ) -> bool {
        self.run.attempted += 1;
        match reply {
            Ok((200, source)) => {
                if let Some(expected) = expected {
                    if expected != body {
                        self.run.fail(format!("body mismatch for {key}"));
                        return true;
                    }
                }
                self.run.ok += 1;
                self.run.latencies_us.push(latency.as_secs_f64() * 1e6);
                if let Some(slot) = source_slot(source) {
                    self.run.sources[slot] += 1;
                }
                true
            }
            Ok((status, _)) => {
                self.run.fail(format!("status {status} for {key}"));
                true
            }
            Err(e) => {
                self.run.fail(format!("transport error for {key}: {e}"));
                false
            }
        }
    }
}

fn merge(
    run: &mut ServeRun,
    epoch: Instant,
    tallies: Vec<ConnTally>,
) -> Vec<(PredictKey, Vec<u8>)> {
    if let Some(end) = tallies.iter().filter_map(|t| t.end).max() {
        run.wall_s = end.duration_since(epoch).as_secs_f64();
    }
    let mut served = Vec::new();
    for t in tallies {
        run.attempted += t.run.attempted;
        run.failed += t.run.failed;
        if run.first_error.is_none() {
            run.first_error = t.run.first_error;
        }
        run.ok += t.run.ok;
        run.latencies_us.extend(t.run.latencies_us);
        run.passes_s.extend(t.run.passes_s);
        for (a, b) in run.sources.iter_mut().zip(t.run.sources) {
            *a += b;
        }
        served.extend(t.served);
    }
    served
}

/// serve-hot: every key of the working set is warmed into the cache
/// during set-up, then each keep-alive connection draws Zipf(1.1) keys
/// for `seconds`. Bodies are compared with `predict::compute` output computed before
/// the window, after each reply's end timestamp.
///
/// # Errors
///
/// Server start-up or connection failures.
pub fn hot(seed: u64, seconds: f64, setup_reps: usize) -> Result<ServeRun, String> {
    let keys = keys::hot_working_set();
    let targets: Vec<String> = keys.iter().map(target).collect();
    let expected: Vec<Vec<u8>> = keys
        .iter()
        .map(|k| predict::compute(k).map(String::into_bytes))
        .collect::<Result<_, _>>()?;
    let mut run = ServeRun::default();
    let warm = |conn: &mut Conn, run: &mut ServeRun| {
        let mut body = Vec::new();
        for (i, key) in keys.iter().enumerate() {
            let reply = conn.get(&targets[i], &mut body);
            run.attempted += 1;
            match reply {
                Ok((200, _)) if body == expected[i] => {}
                other => run.fail(format!("warm-up of {key}: {other:?}")),
            }
        }
    };
    let (server, conns) = setup(&mut run, setup_reps.div_ceil(2), warm)?;

    let window = Duration::from_secs_f64(seconds);
    let epoch = Instant::now();
    let tallies = fan_out(conns, |c, mut conn| {
        let mut tally = ConnTally::default();
        let mut stream = HotStream::new(seed, c);
        let mut body = Vec::with_capacity(1024);
        let mut pass_start = Instant::now();
        let mut in_pass = 0;
        while epoch.elapsed() < window {
            let i = stream.next_index();
            let t0 = Instant::now();
            let reply = conn.get(&targets[i], &mut body);
            let latency = t0.elapsed();
            if !tally.record(&keys[i], reply, latency, &body, Some(&expected[i])) {
                break;
            }
            in_pass += 1;
            if in_pass == PASS_REQUESTS {
                let now = Instant::now();
                tally.run.passes_s.push((now - pass_start).as_secs_f64());
                pass_start = now;
                in_pass = 0;
            }
        }
        tally.end = Some(Instant::now());
        tally
    });
    merge(&mut run, epoch, tallies);
    server.shutdown();
    drop(setup(&mut run, setup_reps / 2, warm)?);
    Ok(run)
}

/// serve-cold: a fresh server; each round every connection sends three
/// private fresh keys, then all send the round's shared key at once.
/// The run stops at the first round boundary after `seconds`. Bodies
/// are kept and compared with `predict::compute` after the window.
///
/// # Errors
///
/// Server start-up or connection failures.
pub fn cold(seed: u64, seconds: f64, setup_reps: usize) -> Result<ServeRun, String> {
    let mut run = ServeRun::default();
    let (server, conns) = setup(&mut run, setup_reps.div_ceil(2), |_, _| {})?;
    let plan = ColdPlan::new(seed, conns.len());
    let window = Duration::from_secs_f64(seconds);
    let barrier = Barrier::new(conns.len());
    // The first round at whose boundary every connection stops; a
    // connection past the deadline lowers it before the barrier, and
    // all read it after, so they agree.
    let stop_round = AtomicUsize::new(usize::MAX);

    let epoch = Instant::now();
    let tallies = fan_out(conns, |c, mut conn| {
        let mut tally = ConnTally::default();
        let mut body = Vec::with_capacity(1024);
        let mut send = |tally: &mut ConnTally, conn: &mut Conn, key: PredictKey| {
            let t0 = Instant::now();
            let reply = conn.get(&target(&key), &mut body);
            let latency = t0.elapsed();
            if matches!(reply, Ok((200, _))) {
                tally.served.push((key, body.clone()));
            }
            tally.record(&key, reply, latency, &body, None)
        };
        let mut index = 0;
        let mut alive = true;
        for round in 0.. {
            let pass_start = Instant::now();
            for _ in 0..COLD_PRIVATE_PER_ROUND {
                if alive {
                    alive = send(&mut tally, &mut conn, plan.private(c, index));
                }
                index += 1;
            }
            if !alive || epoch.elapsed() >= window {
                stop_round.fetch_min(round, Ordering::SeqCst);
            }
            barrier.wait();
            if stop_round.load(Ordering::SeqCst) <= round {
                break;
            }
            alive = send(&mut tally, &mut conn, plan.shared(round));
            tally.run.passes_s.push(pass_start.elapsed().as_secs_f64());
        }
        tally.end = Some(Instant::now());
        tally
    });
    let served = merge(&mut run, epoch, tallies);
    server.shutdown();
    drop(setup(&mut run, setup_reps / 2, |_, _| {})?);
    verify(&mut run, &served);
    Ok(run)
}

/// Compares every served body with `predict::compute` on the same key,
/// computing each distinct key once across `nproc` threads.
fn verify(run: &mut ServeRun, served: &[(PredictKey, Vec<u8>)]) {
    let mut distinct: Vec<PredictKey> = Vec::new();
    let mut index: HashMap<String, usize> = HashMap::new();
    for (key, _) in served {
        index.entry(key.canonical()).or_insert_with(|| {
            distinct.push(*key);
            distinct.len() - 1
        });
    }
    let workers = nproc().min(distinct.len()).max(1);
    let parts = fan_out((0..workers).collect(), |_, w| {
        distinct
            .iter()
            .enumerate()
            .filter(|(i, _)| i % workers == w)
            .map(|(i, k)| (i, predict::compute(k).map(String::into_bytes)))
            .collect::<Vec<_>>()
    });
    let mut expected: Vec<Option<Result<Vec<u8>, String>>> = vec![None; distinct.len()];
    for (i, body) in parts.into_iter().flatten() {
        expected[i] = Some(body);
    }
    for (key, body) in served {
        let slot = &expected[index[&key.canonical()]];
        if !matches!(slot, Some(Ok(want)) if want == body) {
            run.fail(format!("body mismatch for {key}"));
        }
    }
}
