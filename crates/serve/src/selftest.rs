//! The built-in loadgen: `pwf serve --selftest`.
//!
//! Boots a server on an ephemeral port, precomputes the expected body
//! for every key in a small working set by calling
//! [`predict::compute`] directly, then drives tens of thousands of
//! keep-alive requests from seeded client threads — a Zipf-skewed key
//! popularity so the cache and the coalescer both engage — and
//! asserts **zero drift**: every served body byte-identical to the
//! direct computation. Client-side latency lands in merged log2
//! histograms (p50/p99/p999), and the whole report goes to
//! `BENCH_serve.json`.
//!
//! Round zero is special: all clients synchronize on a barrier and
//! request the same cold, slow simulation key at the same instant, so
//! in-flight deduplication provably fires (one leader, the rest
//! joiners) before the randomized traffic starts.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use pwf_obs::json::Json;
use pwf_obs::{Histogram, LatencySummary, ObsHandle};
use pwf_rng::{SeedableRng, Xoshiro256PlusPlus, Zipf};

use crate::engine::EngineConfig;
use crate::predict::{self, PredictKey};
use crate::server::{start, ServerConfig};

/// Loadgen knobs.
#[derive(Debug, Clone)]
pub struct SelftestConfig {
    /// Total successful requests to drive (the acceptance floor is
    /// 10,000).
    pub requests: u64,
    /// Concurrent client threads.
    pub clients: usize,
    /// Master seed for the per-client request streams.
    pub seed: u64,
    /// Write `BENCH_serve.json` into the working directory.
    pub write_bench: bool,
}

impl Default for SelftestConfig {
    fn default() -> Self {
        SelftestConfig {
            requests: 30_000,
            clients: 64,
            seed: 0x5E1F,
            write_bench: true,
        }
    }
}

impl SelftestConfig {
    /// The reduced profile (`--fast`): still at the 10,000-request
    /// acceptance floor, fewer clients.
    pub fn fast() -> Self {
        SelftestConfig {
            requests: 10_000,
            clients: 32,
            ..Self::default()
        }
    }
}

/// What the loadgen measured.
#[derive(Debug, Clone)]
pub struct SelftestReport {
    /// Successful (HTTP 200, drift-checked) requests.
    pub completed: u64,
    /// Responses whose body differed from the direct computation.
    pub drift: u64,
    /// 429/503 rejections that were retried.
    pub rejected_retries: u64,
    /// Responses served from the result cache.
    pub from_cache: u64,
    /// Responses that joined an in-flight computation.
    pub coalesced: u64,
    /// Responses computed fresh.
    pub computed: u64,
    /// Client-observed request latency (µs).
    pub latency: LatencySummary,
    /// Wall-clock duration of the drive phase.
    pub wall: Duration,
    /// Distinct keys in the working set.
    pub keys: usize,
}

impl SelftestReport {
    /// Successful requests per wall-clock second.
    pub fn throughput_rps(&self) -> f64 {
        self.completed as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    /// Fraction of successes served from the cache.
    pub fn cache_hit_rate(&self) -> f64 {
        self.from_cache as f64 / self.completed.max(1) as f64
    }
}

/// The request working set: enough variety to touch every layer and
/// every algorithm family, small enough that the cache and coalescer
/// see heavy key reuse.
fn working_set() -> Vec<PredictKey> {
    let pairs = |spec: &[(&str, &str)]| -> PredictKey {
        let pairs: Vec<(String, String)> = spec
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        predict::parse_key(&pairs).expect("working-set keys are valid")
    };
    vec![
        // Theory: microsecond-fast closed forms.
        pairs(&[("alg", "scu"), ("q", "0"), ("s", "1"), ("n", "64")]),
        pairs(&[("alg", "scu"), ("q", "2"), ("s", "1"), ("n", "64")]),
        pairs(&[("alg", "scu"), ("q", "4"), ("s", "2"), ("n", "256")]),
        pairs(&[("alg", "fai"), ("n", "128")]),
        pairs(&[("alg", "parallel"), ("q", "3"), ("n", "512")]),
        // Chain: exact dense analyses (milliseconds).
        pairs(&[("alg", "scu"), ("n", "4"), ("layer", "chain")]),
        pairs(&[("alg", "scu"), ("n", "6"), ("layer", "chain")]),
        pairs(&[("alg", "fai"), ("n", "5"), ("layer", "chain")]),
        pairs(&[
            ("alg", "parallel"),
            ("q", "2"),
            ("n", "6"),
            ("layer", "chain"),
        ]),
        // Sim: seeded runs, tens of milliseconds.
        pairs(&[
            ("alg", "scu"),
            ("n", "16"),
            ("layer", "sim"),
            ("steps", "50000"),
        ]),
        pairs(&[
            ("alg", "fai"),
            ("n", "8"),
            ("layer", "sim"),
            ("steps", "50000"),
        ]),
        pairs(&[
            ("alg", "parallel"),
            ("q", "2"),
            ("n", "8"),
            ("layer", "sim"),
            ("steps", "50000"),
        ]),
    ]
}

/// The deliberately slow cold key for the dedup round: a simulation
/// long enough that every barrier-released client arrives while it is
/// still in flight.
fn dedup_key() -> PredictKey {
    let spec = [
        ("alg".to_string(), "scu".to_string()),
        ("n".to_string(), "32".to_string()),
        ("layer".to_string(), "sim".to_string()),
        ("steps".to_string(), "2000000".to_string()),
    ];
    predict::parse_key(&spec).expect("dedup key is valid")
}

/// One keep-alive client connection.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Issues one GET; returns `(status, x-pwf-source, body)`.
    fn get(&mut self, target: &str) -> std::io::Result<(u16, String, String)> {
        write!(
            self.writer,
            "GET {target} HTTP/1.1\r\nHost: selftest\r\n\r\n"
        )?;
        self.writer.flush()?;
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| std::io::Error::other(format!("bad status line {line:?}")))?;
        let mut source = String::new();
        let mut content_length = 0usize;
        loop {
            let mut header = String::new();
            self.reader.read_line(&mut header)?;
            let header = header.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                let value = value.trim();
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value.parse().map_err(std::io::Error::other)?;
                } else if name.eq_ignore_ascii_case("x-pwf-source") {
                    source = value.to_string();
                }
            }
        }
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body)?;
        let body = String::from_utf8(body).map_err(std::io::Error::other)?;
        Ok((status, source, body))
    }
}

/// Per-client tallies, merged after the drive.
#[derive(Default)]
struct ClientTally {
    completed: u64,
    drift: u64,
    rejected: u64,
    from_cache: u64,
    coalesced: u64,
    computed: u64,
    latency: Histogram,
    errors: Vec<String>,
}

/// Runs the full selftest: boot, precompute, drive, verify, report.
///
/// # Errors
///
/// Any gate failure (drift, missing dedup/cache engagement, transport
/// errors) or I/O failure, as a human-readable message.
pub fn run(config: &SelftestConfig, obs: ObsHandle) -> Result<SelftestReport, String> {
    let keys = working_set();
    let dedup = dedup_key();

    // Ground truth first: the drift gate compares every response
    // against these bytes.
    let mut expected: Vec<(String, Arc<String>)> = Vec::with_capacity(keys.len() + 1);
    for key in keys.iter().chain(std::iter::once(&dedup)) {
        let body = predict::compute(key).map_err(|e| format!("direct compute for {key}: {e}"))?;
        expected.push((key.canonical(), Arc::new(body)));
    }
    let expected = Arc::new(expected);

    let server_config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        engine: EngineConfig {
            max_active: config.clients.max(8),
            max_queue: config.clients * 4,
            ..EngineConfig::default()
        },
        max_conns: config.clients + 8,
    };
    let server = start(&server_config, obs).map_err(|e| format!("starting server: {e}"))?;
    let addr = server.addr();

    let remaining = AtomicU64::new(config.requests);
    let gate = Barrier::new(config.clients);
    let zipf = Zipf::new(keys.len(), 1.1);
    let started = Instant::now();

    let tallies: Vec<ClientTally> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..config.clients)
            .map(|client_id| {
                let keys = &keys;
                let dedup = &dedup;
                let expected = Arc::clone(&expected);
                let remaining = &remaining;
                let gate = &gate;
                let zipf = &zipf;
                let seed = config.seed ^ (client_id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                scope.spawn(move || {
                    let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
                    let mut tally = ClientTally::default();
                    let mut client = match Client::connect(addr) {
                        Ok(client) => client,
                        Err(e) => {
                            tally
                                .errors
                                .push(format!("client {client_id}: connect: {e}"));
                            gate.wait();
                            return tally;
                        }
                    };
                    // Round zero: everyone slams the same cold slow key.
                    gate.wait();
                    drive_one(&mut client, dedup, &expected, &mut tally, remaining, addr);
                    // Randomized traffic until the global budget drains.
                    while remaining.load(Ordering::Relaxed) > 0 {
                        // Zipf ranks are 1-based.
                        let key = &keys[zipf.sample(&mut rng) - 1];
                        if !drive_one(&mut client, key, &expected, &mut tally, remaining, addr) {
                            // Transport failure: reconnect once, give up
                            // on repeat.
                            match Client::connect(addr) {
                                Ok(fresh) => client = fresh,
                                Err(e) => {
                                    tally
                                        .errors
                                        .push(format!("client {client_id}: reconnect: {e}"));
                                    break;
                                }
                            }
                        }
                    }
                    tally
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let wall = started.elapsed();

    let stats = server.engine().stats();
    server.shutdown();

    let mut completed = 0u64;
    let mut drift = 0u64;
    let mut rejected = 0u64;
    let mut from_cache = 0u64;
    let mut coalesced = 0u64;
    let mut computed = 0u64;
    let mut latency = Histogram::new();
    let mut errors: Vec<String> = Vec::new();
    for tally in &tallies {
        completed += tally.completed;
        drift += tally.drift;
        rejected += tally.rejected;
        from_cache += tally.from_cache;
        coalesced += tally.coalesced;
        computed += tally.computed;
        latency.merge(&tally.latency);
        errors.extend(tally.errors.iter().cloned());
    }

    if !errors.is_empty() {
        return Err(format!(
            "{} client transport errors, first: {}",
            errors.len(),
            errors[0]
        ));
    }
    if drift > 0 {
        return Err(format!(
            "DRIFT: {drift} responses differed from direct computation"
        ));
    }
    if completed < config.requests {
        return Err(format!(
            "only {completed} of {} requests completed",
            config.requests
        ));
    }
    if from_cache == 0 || stats.cache.hits == 0 {
        return Err("cache never engaged (zero hits)".to_string());
    }
    if coalesced == 0 || stats.dedup.joins == 0 {
        return Err("dedup never engaged (zero in-flight joins)".to_string());
    }

    let summary = LatencySummary::from_histogram(&latency)
        .ok_or_else(|| "no latency samples recorded".to_string())?;
    Ok(SelftestReport {
        completed,
        drift,
        rejected_retries: rejected,
        from_cache,
        coalesced,
        computed,
        latency: summary,
        wall,
        keys: keys.len() + 1,
    })
}

/// Issues one request and classifies the outcome. Returns `false` on a
/// transport error (caller reconnects).
fn drive_one(
    client: &mut Client,
    key: &PredictKey,
    expected: &[(String, Arc<String>)],
    tally: &mut ClientTally,
    remaining: &AtomicU64,
    addr: std::net::SocketAddr,
) -> bool {
    let canonical = key.canonical();
    let target = format!("/predict?{canonical}");
    loop {
        let begin = Instant::now();
        let (status, source, body) = match client.get(&target) {
            Ok(reply) => reply,
            Err(_) => return false,
        };
        match status {
            200 => {
                tally.latency.record(begin.elapsed().as_micros() as u64);
                let reference = expected
                    .iter()
                    .find(|(k, _)| *k == canonical)
                    .map(|(_, body)| body);
                match reference {
                    Some(reference) if **reference == body => {}
                    _ => tally.drift += 1,
                }
                match source.as_str() {
                    "cache" => tally.from_cache += 1,
                    "coalesced" => tally.coalesced += 1,
                    _ => tally.computed += 1,
                }
                // Claim one unit of the global budget (saturating: a
                // success after the budget drains still counts).
                let _ = remaining
                    .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| v.checked_sub(1));
                tally.completed += 1;
                return true;
            }
            429 | 503 => {
                // Shed or queue-timeout: brief backoff, then retry the
                // same key on a fresh connection (the server closed
                // rejected ones are still keep-alive, but reconnect
                // defensively after repeated rejections).
                tally.rejected += 1;
                std::thread::sleep(Duration::from_millis(2));
                if tally.rejected % 64 == 0 {
                    match Client::connect(addr) {
                        Ok(fresh) => *client = fresh,
                        Err(_) => return false,
                    }
                }
            }
            other => {
                tally
                    .errors
                    .push(format!("unexpected status {other} for {canonical}"));
                tally.drift += 1;
                return true;
            }
        }
    }
}

/// Renders the report (plus server-side stats) as the
/// `BENCH_serve.json` document.
pub fn bench_json(report: &SelftestReport, config: &SelftestConfig) -> Json {
    let latency = |s: &LatencySummary| {
        Json::Obj(vec![
            ("count".into(), Json::Int(s.count as i128)),
            ("mean_us".into(), Json::Num(s.mean)),
            ("min_us".into(), Json::Int(s.min as i128)),
            ("max_us".into(), Json::Int(s.max as i128)),
            ("p50_us".into(), Json::Int(s.p50 as i128)),
            ("p90_us".into(), Json::Int(s.p90 as i128)),
            ("p99_us".into(), Json::Int(s.p99 as i128)),
            ("p999_us".into(), Json::Int(s.p999 as i128)),
        ])
    };
    Json::Obj(vec![
        ("experiment".into(), Json::Str("exp_serve_bench".into())),
        ("requests".into(), Json::Int(config.requests as i128)),
        ("clients".into(), Json::Int(config.clients as i128)),
        ("completed".into(), Json::Int(report.completed as i128)),
        ("drift".into(), Json::Int(report.drift as i128)),
        ("keys".into(), Json::Int(report.keys as i128)),
        ("from_cache".into(), Json::Int(report.from_cache as i128)),
        ("coalesced".into(), Json::Int(report.coalesced as i128)),
        ("computed".into(), Json::Int(report.computed as i128)),
        (
            "rejected_retries".into(),
            Json::Int(report.rejected_retries as i128),
        ),
        ("cache_hit_rate".into(), Json::Num(report.cache_hit_rate())),
        ("throughput_rps".into(), Json::Num(report.throughput_rps())),
        ("wall_s".into(), Json::Num(report.wall.as_secs_f64())),
        ("latency".into(), latency(&report.latency)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn working_set_keys_are_distinct_and_computable() {
        let keys = working_set();
        let canon: std::collections::HashSet<String> = keys.iter().map(|k| k.canonical()).collect();
        assert_eq!(canon.len(), keys.len(), "keys must be distinct");
        assert!(!canon.contains(&dedup_key().canonical()));
    }

    #[test]
    fn small_selftest_passes_all_gates() {
        // A miniature run: the full profile is exercised by
        // `pwf serve --selftest` in CI; this keeps `cargo test` quick.
        let config = SelftestConfig {
            requests: 400,
            clients: 16,
            seed: 7,
            write_bench: false,
        };
        let report = run(&config, ObsHandle::collecting(None)).unwrap();
        assert!(report.completed >= 400);
        assert_eq!(report.drift, 0);
        assert!(report.from_cache > 0, "cache engaged");
        assert!(report.coalesced > 0, "dedup engaged");
        assert!(report.latency.count >= report.completed);
        let doc = bench_json(&report, &config);
        assert_eq!(
            doc.get("experiment").and_then(Json::as_str),
            Some("exp_serve_bench")
        );
    }
}
