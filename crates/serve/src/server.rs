//! The HTTP server: a bounded thread-per-connection acceptor over
//! `std::net`, routing onto the [`Engine`](crate::engine::Engine).
//!
//! Routes:
//!
//! * `GET /predict?alg=…&q=…&s=…&n=…&layer=…` — a prediction, served
//!   through shaping → cache → coalescing;
//! * `GET /metrics` — the `serve.*` counters, gauges, and latency
//!   histograms in a pinned plain-text format;
//! * `GET /trace` — the request-span ring as Perfetto JSON (when
//!   tracing is enabled);
//! * `GET /flight` — the most recent flight dump (404 until the tail
//!   watchdog trips);
//! * `GET /healthz` — liveness.
//!
//! Every connection carries its own pwf-obs [`ThreadRecorder`]: each
//! request becomes an `OpStart`/`OpEnd` span pair (arg = route tag /
//! status code, tick = microseconds since server start), so a busy
//! server renders in the Perfetto UI exactly like a simulator run.

use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pwf_obs::json::Json;
use pwf_obs::{EventKind, ObsHandle};

use crate::engine::{Engine, EngineConfig, ServeError, Served};
use crate::http::{parse_request, ParseError, Request, Response};
use crate::predict;

/// Per-connection socket read timeout: bounds how long an idle
/// keep-alive connection can pin a thread after shutdown.
const READ_TIMEOUT: Duration = Duration::from_secs(5);

/// Server construction knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Engine (cache / dedup / shaper) knobs.
    pub engine: EngineConfig,
    /// Most connection threads alive at once; excess connections are
    /// answered `503` and closed without spawning.
    pub max_conns: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:7878".to_string(),
            engine: EngineConfig::default(),
            max_conns: 256,
        }
    }
}

/// A running server; dropping it (or calling
/// [`shutdown`](ServerHandle::shutdown)) stops the acceptor.
pub struct ServerHandle {
    addr: SocketAddr,
    engine: Arc<Engine>,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerHandle")
            .field("addr", &self.addr)
            .finish()
    }
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The engine, for stats inspection.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// Stops accepting and joins the acceptor thread. Connection
    /// threads drain on their own (read timeout or peer close).
    pub fn shutdown(mut self) {
        self.stop_acceptor();
    }

    fn stop_acceptor(&mut self) {
        if let Some(acceptor) = self.acceptor.take() {
            self.stop.store(true, Ordering::SeqCst);
            // Unblock the blocking accept with a throwaway connection.
            let _ = TcpStream::connect(self.addr);
            let _ = acceptor.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop_acceptor();
    }
}

/// Binds and starts serving on a background acceptor thread.
///
/// # Errors
///
/// Propagates the bind failure.
pub fn start(config: &ServerConfig, obs: ObsHandle) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let engine = Engine::new(&config.engine, obs.clone());
    let stop = Arc::new(AtomicBool::new(false));
    let started = Instant::now();
    let max_conns = config.max_conns.max(1);

    let acceptor = {
        let engine = Arc::clone(&engine);
        let stop = Arc::clone(&stop);
        let obs = obs.clone();
        std::thread::Builder::new()
            .name("pwf-serve-accept".into())
            .spawn(move || {
                let live = Arc::new(AtomicUsize::new(0));
                let mut conn_id: u32 = 0;
                for stream in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    if live.load(Ordering::SeqCst) >= max_conns {
                        // Full house: refuse at the door without a
                        // thread.
                        let mut stream = stream;
                        let _ = Response::text(503, "connection limit reached\n")
                            .write_to(&mut stream, false);
                        if let Some(metrics) = obs.metrics() {
                            metrics.counter_add("serve.conn_refused", 1);
                        }
                        continue;
                    }
                    conn_id = conn_id.wrapping_add(1);
                    live.fetch_add(1, Ordering::SeqCst);
                    let engine = Arc::clone(&engine);
                    let conn_live = Arc::clone(&live);
                    let stop = Arc::clone(&stop);
                    let obs = obs.clone();
                    let spawned = std::thread::Builder::new()
                        .name(format!("pwf-serve-conn-{conn_id}"))
                        .spawn(move || {
                            handle_connection(stream, &engine, &obs, conn_id, started, &stop);
                            conn_live.fetch_sub(1, Ordering::SeqCst);
                        });
                    if spawned.is_err() {
                        live.fetch_sub(1, Ordering::SeqCst);
                    }
                }
            })?
    };

    Ok(ServerHandle {
        addr,
        engine,
        stop,
        acceptor: Some(acceptor),
    })
}

/// Route tags for trace spans (`OpStart.arg`).
const TAG_PREDICT: u64 = 1;
const TAG_METRICS: u64 = 2;
const TAG_TRACE: u64 = 3;
const TAG_HEALTHZ: u64 = 4;
const TAG_FLIGHT: u64 = 5;
const TAG_OTHER: u64 = 0;

fn route_tag(path: &str) -> u64 {
    match path {
        "/predict" => TAG_PREDICT,
        "/metrics" => TAG_METRICS,
        "/trace" => TAG_TRACE,
        "/healthz" => TAG_HEALTHZ,
        "/flight" => TAG_FLIGHT,
        _ => TAG_OTHER,
    }
}

/// One connection's keep-alive loop.
fn handle_connection(
    stream: TcpStream,
    engine: &Arc<Engine>,
    obs: &ObsHandle,
    conn_id: u32,
    started: Instant,
    stop: &Arc<AtomicBool>,
) {
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let _ = stream.set_nodelay(true);
    let mut recorder = obs.trace().map(|collector| collector.recorder(conn_id));
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(clone) => clone,
        Err(_) => return,
    });
    let mut writer = stream;

    loop {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let request = match parse_request(&mut reader) {
            Ok(request) => request,
            Err(ParseError::ConnectionClosed) => break,
            Err(ParseError::Io(_)) => break,
            Err(ParseError::Malformed(message)) => {
                let _ = error_response(400, &message).write_to(&mut writer, false);
                break;
            }
        };
        let tick = started.elapsed().as_micros() as u64;
        if let Some(recorder) = recorder.as_mut() {
            recorder.record(EventKind::OpStart, tick, route_tag(&request.path));
        }
        let keep_alive = request.keep_alive;
        let response = route(&request, engine);
        if let Some(recorder) = recorder.as_mut() {
            recorder.record(
                EventKind::OpEnd,
                started.elapsed().as_micros() as u64,
                u64::from(response.status),
            );
        }
        if response.write_to(&mut writer, keep_alive).is_err() || !keep_alive {
            break;
        }
    }
    let _ = writer.flush();
    if let Some(recorder) = recorder {
        recorder.finish();
    }
}

/// A JSON error body (shape pinned by the schema tests).
fn error_response(status: u16, message: &str) -> Response {
    let body = Json::Obj(vec![
        ("error".into(), Json::Str(message.to_string())),
        ("status".into(), Json::Int(i128::from(status))),
    ])
    .render();
    Response::json(status, body)
}

/// Dispatches one parsed request.
fn route(request: &Request, engine: &Arc<Engine>) -> Response {
    if request.method != "GET" {
        return error_response(405, "only GET is supported");
    }
    match request.path.as_str() {
        "/predict" => predict_route(request, engine),
        "/metrics" => Response::text(200, render_metrics(engine)),
        "/trace" => trace_route(engine),
        "/flight" => flight_route(engine),
        "/healthz" => Response::text(200, "ok\n"),
        other => error_response(404, &format!("no route {other:?}")),
    }
}

fn predict_route(request: &Request, engine: &Arc<Engine>) -> Response {
    let key = match predict::parse_key(&request.query) {
        Ok(key) => key,
        Err(message) => return error_response(400, &message),
    };
    match engine.serve(&key) {
        Ok(Served {
            body,
            source,
            ticket,
        }) => Response::json(200, body.as_ref().clone())
            .header("x-pwf-source", source.name())
            .header("x-pwf-ticket", ticket.to_string()),
        Err(ServeError::Overloaded) => error_response(429, "overloaded: request shed"),
        Err(ServeError::QueueTimeout) => error_response(503, "queue admission timed out"),
        Err(ServeError::Failed(message)) => error_response(500, &message),
        Err(ServeError::SloBreach { latency_us, slo_us }) => error_response(
            504,
            &format!("slo breach: served in {latency_us}us against an slo of {slo_us}us"),
        ),
    }
}

/// The most recent flight dump (404 until the watchdog trips).
fn flight_route(engine: &Arc<Engine>) -> Response {
    match engine.flight() {
        Some(dump) => Response::json(200, dump.to_json()),
        None => error_response(404, "no flight dump captured (watchdog has not tripped)"),
    }
}

fn trace_route(engine: &Arc<Engine>) -> Response {
    match engine.obs().trace() {
        Some(collector) => {
            let events = collector.events();
            let body = pwf_obs::trace_json(&events, "pwf-serve", collector.ticks_per_us());
            Response::json(200, body)
        }
        None => error_response(404, "tracing is not enabled on this server"),
    }
}

/// Renders the metrics endpoint body. Format (pinned by the schema
/// tests): one record per line —
///
/// ```text
/// # pwf-serve metrics
/// counter serve.requests 1234
/// gauge serve.cache.entries 12
/// hist serve.latency_us count=100 mean=41.250 min=2 max=950 p50=31 p90=127 p99=511 p999=1023
/// ```
///
/// sorted by kind then name, counters/quantiles as integers, gauges
/// and means with three decimals.
pub fn render_metrics(engine: &Arc<Engine>) -> String {
    let stats = engine.stats();
    let mut out = String::from("# pwf-serve metrics\n");
    let mut counters: Vec<(String, u64)> = Vec::new();
    let mut gauges: Vec<(String, f64)> = vec![
        ("serve.cache.entries".into(), stats.cache_len as f64),
        ("serve.shaper.active".into(), stats.shaper.active as f64),
        ("serve.shaper.waiting".into(), stats.shaper.waiting as f64),
        ("serve.dedup.inflight".into(), stats.inflight as f64),
    ];
    let mut hists: Vec<(String, pwf_obs::LatencySummary)> = Vec::new();
    if let Some(metrics) = engine.obs().metrics() {
        let snapshot = metrics.snapshot();
        counters.extend(snapshot.counters);
        gauges.extend(snapshot.gauges);
        hists.extend(snapshot.histograms);
    }
    // The layer-native counters exist even when the obs registry is
    // disabled; surface them under stable names either way.
    for (name, value) in [
        ("serve.cache.hit_total", stats.cache.hits),
        ("serve.cache.miss_total", stats.cache.misses),
        ("serve.cache.evictions", stats.cache.evictions),
        ("serve.cache.expirations", stats.cache.expirations),
        ("serve.dedup.leaders", stats.dedup.leaders),
        ("serve.dedup.joins", stats.dedup.joins),
        ("serve.shaper.shed_total", stats.shaper.shed),
        ("serve.shaper.timeouts", stats.shaper.timeouts),
        ("serve.shaper.queued_total", stats.shaper.queued),
    ] {
        counters.push((name.to_string(), value));
    }
    counters.sort();
    counters.dedup_by(|a, b| a.0 == b.0);
    gauges.sort_by(|a, b| a.0.cmp(&b.0));
    hists.sort_by(|a, b| a.0.cmp(&b.0));
    for (name, value) in &counters {
        out.push_str(&format!("counter {name} {value}\n"));
    }
    for (name, value) in &gauges {
        out.push_str(&format!("gauge {name} {value:.3}\n"));
    }
    for (name, h) in &hists {
        out.push_str(&format!(
            "hist {name} count={} mean={:.3} min={} max={} p50={} p90={} p99={} p999={}\n",
            h.count, h.mean, h.min, h.max, h.p50, h.p90, h.p99, h.p999
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, Read as _};

    fn get(addr: SocketAddr, target: &str) -> (u16, Vec<(String, String)>, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "GET {target} HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        let mut reader = BufReader::new(stream);
        let mut status_line = String::new();
        reader.read_line(&mut status_line).unwrap();
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .unwrap()
            .parse()
            .unwrap();
        let mut headers = Vec::new();
        loop {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            let line = line.trim_end();
            if line.is_empty() {
                break;
            }
            if let Some((name, value)) = line.split_once(':') {
                headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
            }
        }
        let mut body = String::new();
        reader.read_to_string(&mut body).unwrap();
        (status, headers, body)
    }

    fn ephemeral() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            ..ServerConfig::default()
        }
    }

    #[test]
    fn end_to_end_predict_metrics_healthz() {
        let server = start(&ephemeral(), ObsHandle::collecting(Some(1 << 12))).unwrap();
        let addr = server.addr();

        let (status, _, body) = get(addr, "/healthz");
        assert_eq!((status, body.as_str()), (200, "ok\n"));

        let (status, headers, body) = get(addr, "/predict?alg=scu&q=2&s=1&n=64");
        assert_eq!(status, 200);
        let source = headers.iter().find(|(n, _)| n == "x-pwf-source").unwrap();
        assert_eq!(source.1, "computed");
        let doc = Json::parse(&body).unwrap();
        assert_eq!(
            doc.get("query")
                .and_then(|q| q.get("alg"))
                .and_then(Json::as_str),
            Some("scu")
        );

        // Same query again: served from cache, byte-identical.
        let (status, headers, again) = get(addr, "/predict?alg=scu&q=2&s=1&n=64");
        assert_eq!(status, 200);
        assert_eq!(
            headers.iter().find(|(n, _)| n == "x-pwf-source").unwrap().1,
            "cache"
        );
        assert_eq!(again, body);

        let (status, _, metrics) = get(addr, "/metrics");
        assert_eq!(status, 200);
        assert!(metrics.starts_with("# pwf-serve metrics\n"));
        assert!(
            metrics.contains("counter serve.cache_hits 1\n"),
            "{metrics}"
        );
        assert!(metrics.contains("counter serve.requests 2\n"), "{metrics}");

        let (status, _, errors) = get(addr, "/predict?alg=nope&n=4");
        assert_eq!(status, 400);
        assert!(Json::parse(&errors).unwrap().get("error").is_some());

        let (status, _, _) = get(addr, "/nope");
        assert_eq!(status, 404);

        server.shutdown();
    }

    #[test]
    fn trace_endpoint_exports_request_spans() {
        let server = start(&ephemeral(), ObsHandle::collecting(Some(1 << 12))).unwrap();
        let addr = server.addr();
        let _ = get(addr, "/predict?alg=fai&n=4");
        let (status, _, trace) = get(addr, "/trace");
        assert_eq!(status, 200);
        let doc = Json::parse(&trace).unwrap();
        let events = doc.get("traceEvents").and_then(Json::as_array).unwrap();
        assert!(!events.is_empty(), "request spans must appear in the trace");
        server.shutdown();
    }

    #[test]
    fn flight_route_serves_the_dump_after_a_trip() {
        let mut config = ephemeral();
        config.engine.arm_us = Some(1);
        let server = start(&config, ObsHandle::collecting(Some(1 << 12))).unwrap();
        let addr = server.addr();

        let (status, _, _) = get(addr, "/flight");
        assert_eq!(status, 404, "no dump before the watchdog trips");

        // A real multi-millisecond simulation against a 1 µs arm.
        let (status, _, _) = get(addr, "/predict?alg=scu&n=16&layer=sim&steps=200000");
        assert_eq!(status, 200);

        let (status, _, body) = get(addr, "/flight");
        assert_eq!(status, 200);
        let doc = Json::parse(&body).unwrap();
        assert_eq!(
            doc.get("reason").and_then(Json::as_str),
            Some("tail exceedance")
        );
        assert!(doc.get("offenders").and_then(Json::as_array).is_some());
        assert!(
            doc.get("trace")
                .and_then(|t| t.get("traceEvents"))
                .is_some(),
            "embedded Perfetto trace rides along"
        );
        server.shutdown();
    }

    #[test]
    fn slo_5xx_turns_breaches_into_504() {
        let mut config = ephemeral();
        config.engine.slo_us = Some(1);
        config.engine.slo_fail = true;
        let server = start(&config, ObsHandle::disabled()).unwrap();
        let (status, _, body) = get(
            server.addr(),
            "/predict?alg=scu&n=16&layer=sim&steps=200000",
        );
        assert_eq!(status, 504);
        assert!(Json::parse(&body).unwrap().get("error").is_some());
        server.shutdown();
    }

    #[test]
    fn trace_route_is_404_without_tracing() {
        let server = start(&ephemeral(), ObsHandle::disabled()).unwrap();
        let (status, _, _) = get(server.addr(), "/trace");
        assert_eq!(status, 404);
        server.shutdown();
    }
}
