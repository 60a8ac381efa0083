//! The serving engine: traffic shaping → cache → coalescing →
//! compute, with a lock-free fetch-and-increment ticket stamped on
//! every admitted request and `serve.*` metrics throughout.
//!
//! The request ticket is [`pwf_hardware::FaiCounter`] — the paper's
//! Algorithm 5 running on real hardware — so the service itself is a
//! live instance of the system the repo analyzes: the ticket's CAS
//! retry count feeds the `serve.ticket_steps` histogram, a
//! per-request sample of the scheduler-induced step distribution.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use pwf_hardware::FaiCounter;
use pwf_obs::{
    FlightDump, ObsHandle, Watchdog, WatchdogReport, DEFAULT_BUDGET, DEFAULT_KEEP_PER_THREAD,
};

use crate::coalesce::{CoalesceStats, Coalescer, Role};
use crate::lru::{CacheStats, LruCache};
use crate::predict::{self, PredictKey};
use crate::shaper::{Rejection, Shaper, ShaperStats};

/// Where a served body came from (reported in `X-Pwf-Source`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Served from the LRU result cache.
    Cache,
    /// Computed by this request (it led the flight).
    Computed,
    /// Joined another request's in-flight computation.
    Coalesced,
}

impl Source {
    /// Stable header spelling.
    pub fn name(self) -> &'static str {
        match self {
            Source::Cache => "cache",
            Source::Computed => "computed",
            Source::Coalesced => "coalesced",
        }
    }
}

/// A successfully served prediction.
#[derive(Debug, Clone)]
pub struct Served {
    /// The canonical JSON body (shared, not copied, across coalesced
    /// waiters and cache hits).
    pub body: Arc<String>,
    /// How this request was satisfied.
    pub source: Source,
    /// This request's admission ticket (FAI value).
    pub ticket: u64,
}

/// Why a request was not served.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// Shed at the door: active and queue limits full (HTTP 429).
    Overloaded,
    /// Queued past the admission deadline (HTTP 503).
    QueueTimeout,
    /// The underlying analysis failed (HTTP 500).
    Failed(String),
    /// Served, but past the configured SLO with `--slo-5xx` set
    /// (HTTP 504).
    SloBreach {
        /// How long the request actually took.
        latency_us: u64,
        /// The SLO it breached.
        slo_us: u64,
    },
}

/// Engine construction knobs.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Result-cache capacity (entries).
    pub cache_capacity: usize,
    /// Result-cache TTL in microseconds; `None` = never expires.
    pub cache_ttl_us: Option<u64>,
    /// Concurrent requests allowed past the shaper.
    pub max_active: usize,
    /// Requests allowed to queue behind them.
    pub max_queue: usize,
    /// Longest a request may wait in the queue.
    pub max_wait: Duration,
    /// Per-request latency SLO in microseconds; breaches bump
    /// `serve.slo_violations` and arm the tail watchdog.
    pub slo_us: Option<u64>,
    /// When set, a request that breaches the SLO is answered 504 even
    /// though its body was computed (the `--slo-5xx` knob).
    pub slo_fail: bool,
    /// Explicit watchdog threshold in microseconds (the `--arm` knob):
    /// strict — any exceedance trips the watchdog and captures a
    /// flight dump. Overrides the SLO-derived threshold.
    pub arm_us: Option<u64>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            cache_capacity: 1024,
            cache_ttl_us: None,
            max_active: 64,
            max_queue: 256,
            max_wait: Duration::from_secs(10),
            slo_us: None,
            slo_fail: false,
            arm_us: None,
        }
    }
}

/// One-stop stats snapshot across all three production layers.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineStats {
    /// Cache counters.
    pub cache: CacheStats,
    /// Dedup counters.
    pub dedup: CoalesceStats,
    /// Shaper counters.
    pub shaper: ShaperStats,
    /// Live cache entries.
    pub cache_len: usize,
    /// Coalescer executions currently in flight.
    pub inflight: usize,
}

/// The serving engine. Shared across connection threads behind an
/// `Arc`.
pub struct Engine {
    shaper: Arc<Shaper>,
    cache: Mutex<LruCache<Arc<String>>>,
    coalescer: Coalescer<Arc<String>>,
    ticket: FaiCounter,
    obs: ObsHandle,
    slo_us: Option<u64>,
    slo_fail: bool,
    /// Armed when `arm_us` or `slo_us` is configured; offender `op` is
    /// the request's FAI ticket.
    watchdog: Option<Watchdog>,
    /// Most recent flight dump, captured when the watchdog trips.
    flight: Mutex<Option<Arc<FlightDump>>>,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("stats", &self.stats())
            .finish()
    }
}

impl Engine {
    /// Builds an engine with the given knobs, reporting into `obs`.
    pub fn new(config: &EngineConfig, obs: ObsHandle) -> Arc<Self> {
        // `--arm` is strict (any exceedance trips); an SLO-derived
        // threshold keeps the default budget for transient spikes.
        let watchdog = match (config.arm_us, config.slo_us) {
            (Some(arm), _) => Some(Watchdog::armed(arm, 0)),
            (None, Some(slo)) => Some(Watchdog::armed(slo, DEFAULT_BUDGET)),
            (None, None) => None,
        };
        Arc::new(Engine {
            shaper: Shaper::new(config.max_active, config.max_queue, config.max_wait),
            cache: Mutex::new(LruCache::new(config.cache_capacity, config.cache_ttl_us)),
            coalescer: Coalescer::new(),
            ticket: FaiCounter::new(),
            obs,
            slo_us: config.slo_us,
            slo_fail: config.slo_fail,
            watchdog,
            flight: Mutex::new(None),
        })
    }

    fn count(&self, name: &str) {
        if let Some(metrics) = self.obs.metrics() {
            metrics.counter_add(name, 1);
        }
    }

    fn record(&self, name: &str, value: u64) {
        if let Some(metrics) = self.obs.metrics() {
            metrics.record(name, value);
        }
    }

    /// Serves one prediction request end to end: admission, cache
    /// probe, coalesced compute, cache fill.
    ///
    /// # Errors
    ///
    /// [`ServeError::Overloaded`] / [`ServeError::QueueTimeout`] from
    /// the shaper, [`ServeError::Failed`] when the analysis itself
    /// errors.
    pub fn serve(&self, key: &PredictKey) -> Result<Served, ServeError> {
        let started = Instant::now();
        self.count("serve.requests");
        let permit = self.shaper.admit().map_err(|rejection| match rejection {
            Rejection::Shed => {
                self.count("serve.shed");
                ServeError::Overloaded
            }
            Rejection::TimedOut => {
                self.count("serve.queue_timeouts");
                ServeError::QueueTimeout
            }
        })?;
        self.record("serve.queue_wait_us", permit.queue_wait.as_micros() as u64);

        // Admission ticket: lock-free FAI, Algorithm 5 live.
        let (ticket, steps) = self.ticket.fetch_and_inc();
        self.record("serve.ticket_steps", steps);

        let canonical = key.canonical();
        let outcome = self.serve_admitted(key, &canonical, ticket);
        drop(permit);

        let latency_us = started.elapsed().as_micros() as u64;
        self.record("serve.latency_us", latency_us);
        match &outcome {
            Ok(served) => self.count(match served.source {
                Source::Cache => "serve.cache_hits",
                Source::Computed => "serve.computed",
                Source::Coalesced => "serve.dedup_joins",
            }),
            Err(ServeError::Failed(_)) => self.count("serve.errors"),
            Err(_) => {}
        }
        self.verdict(ticket, latency_us, outcome)
    }

    /// Post-serve telemetry verdict: counts SLO violations, feeds the
    /// tail watchdog (capturing a flight dump on trip), and — with
    /// `slo_fail` — converts a breached success into
    /// [`ServeError::SloBreach`].
    fn verdict(
        &self,
        ticket: u64,
        latency_us: u64,
        outcome: Result<Served, ServeError>,
    ) -> Result<Served, ServeError> {
        let breached = self.slo_us.is_some_and(|slo| latency_us > slo);
        if breached {
            self.count("serve.slo_violations");
        }
        if let Some(watchdog) = &self.watchdog {
            if watchdog.observe(0, ticket, latency_us) {
                self.capture_flight("tail exceedance");
            }
        }
        match (breached && self.slo_fail, outcome) {
            (true, Ok(_)) => Err(ServeError::SloBreach {
                latency_us,
                slo_us: self.slo_us.unwrap_or(0),
            }),
            (_, outcome) => outcome,
        }
    }

    /// Snapshots rings + metrics + watchdog report into the flight
    /// slot (rare: runs once, when the watchdog trips).
    fn capture_flight(&self, reason: &str) {
        let Some(watchdog) = &self.watchdog else {
            return;
        };
        let report = watchdog.report();
        let (events, ticks_per_us) = match self.obs.trace() {
            Some(collector) => (collector.events(), collector.ticks_per_us()),
            None => (Vec::new(), 1.0),
        };
        let metrics = self.obs.metrics().map(|m| m.snapshot());
        let dump = FlightDump::capture(
            reason,
            &report,
            &events,
            DEFAULT_KEEP_PER_THREAD,
            metrics,
            ticks_per_us,
        );
        *self.flight.lock().expect("flight poisoned") = Some(Arc::new(dump));
        self.count("serve.flight_dumps");
    }

    /// The most recent flight dump, if the watchdog has tripped
    /// (served on `GET /flight`).
    pub fn flight(&self) -> Option<Arc<FlightDump>> {
        self.flight.lock().expect("flight poisoned").clone()
    }

    /// The live watchdog report, when the engine is armed
    /// (`slo_us`/`arm_us`).
    pub fn watchdog_report(&self) -> Option<WatchdogReport> {
        self.watchdog.as_ref().map(Watchdog::report)
    }

    fn serve_admitted(
        &self,
        key: &PredictKey,
        canonical: &str,
        ticket: u64,
    ) -> Result<Served, ServeError> {
        if let Some(body) = self.cache.lock().expect("cache poisoned").get(canonical) {
            return Ok(Served {
                body,
                source: Source::Cache,
                ticket,
            });
        }
        let (result, role) = self.coalescer.run(
            canonical,
            || predict::compute(key).map(Arc::new),
            |result| {
                // Cache fill happens before the flight deregisters, so
                // a concurrent request for this key always finds it in
                // the cache or joins in flight — never recomputes.
                if let Ok(body) = result {
                    self.cache
                        .lock()
                        .expect("cache poisoned")
                        .put(canonical, Arc::clone(body));
                }
            },
        );
        let body = result.map_err(ServeError::Failed)?;
        Ok(Served {
            body,
            source: match role {
                Role::Leader => Source::Computed,
                Role::Joiner => Source::Coalesced,
            },
            ticket,
        })
    }

    /// Snapshot of all layer counters (also pushed as gauges into the
    /// metrics registry by the caller of `/metrics`).
    pub fn stats(&self) -> EngineStats {
        let cache = self.cache.lock().expect("cache poisoned");
        EngineStats {
            cache: cache.stats(),
            dedup: self.coalescer.stats(),
            shaper: self.shaper.stats(),
            cache_len: cache.len(),
            inflight: self.coalescer.inflight_len(),
        }
    }

    /// The observability handle the engine reports into.
    pub fn obs(&self) -> &ObsHandle {
        &self.obs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predict::parse_key;

    fn key(spec: &[(&str, &str)]) -> PredictKey {
        let pairs: Vec<(String, String)> = spec
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        parse_key(&pairs).unwrap()
    }

    #[test]
    fn second_request_hits_the_cache_with_identical_bytes() {
        let engine = Engine::new(&EngineConfig::default(), ObsHandle::disabled());
        let k = key(&[("alg", "scu"), ("q", "2"), ("s", "1"), ("n", "64")]);
        let first = engine.serve(&k).unwrap();
        let second = engine.serve(&k).unwrap();
        assert_eq!(first.source, Source::Computed);
        assert_eq!(second.source, Source::Cache);
        assert_eq!(first.body, second.body);
        assert_eq!(*first.body, predict::compute(&k).unwrap());
        assert!(second.ticket > first.ticket, "FAI tickets are increasing");
        let stats = engine.stats();
        assert_eq!(stats.cache.hits, 1);
        assert_eq!(stats.dedup.leaders, 1);
    }

    #[test]
    fn analysis_errors_surface_as_failed_and_are_not_cached() {
        let engine = Engine::new(&EngineConfig::default(), ObsHandle::disabled());
        // Hand-built key that sidesteps validation: chain-layer fai
        // above its state-count wall fails in compute's chain guard,
        // not in parse_key and not in a builder panic.
        let bad = PredictKey {
            n: 24,
            ..key(&[("alg", "fai"), ("n", "4"), ("layer", "chain")])
        };
        match engine.serve(&bad) {
            Err(ServeError::Failed(_)) => {}
            other => panic!("expected Failed, got {other:?}"),
        }
        assert_eq!(engine.stats().cache_len, 0, "errors must not be cached");
    }

    #[test]
    fn shed_when_saturated() {
        let config = EngineConfig {
            max_active: 1,
            max_queue: 0,
            ..EngineConfig::default()
        };
        let engine = Engine::new(&config, ObsHandle::disabled());
        // Hold the only slot open by serving from inside a thread that
        // blocks on a slow sim while we poke the front door.
        let k = key(&[
            ("alg", "scu"),
            ("n", "64"),
            ("layer", "sim"),
            ("steps", "5000000"),
        ]);
        let quick = key(&[("alg", "scu"), ("n", "8")]);
        std::thread::scope(|scope| {
            let slow = scope.spawn(|| engine.serve(&k));
            // Wait until the slow request owns the slot.
            while engine.stats().shaper.active == 0 {
                std::thread::yield_now();
            }
            assert_eq!(engine.serve(&quick).unwrap_err(), ServeError::Overloaded);
            slow.join().unwrap().unwrap();
        });
        assert_eq!(engine.stats().shaper.shed, 1);
        assert_eq!(engine.serve(&quick).unwrap().source, Source::Computed);
    }

    /// A key slow enough (a real multi-millisecond simulation) that a
    /// 1 µs SLO is always breached.
    fn slow_key() -> PredictKey {
        key(&[
            ("alg", "scu"),
            ("n", "16"),
            ("layer", "sim"),
            ("steps", "200000"),
        ])
    }

    #[test]
    fn slo_breach_counts_violations_and_fails_with_slo_5xx() {
        let config = EngineConfig {
            slo_us: Some(1),
            slo_fail: true,
            ..EngineConfig::default()
        };
        let engine = Engine::new(&config, ObsHandle::collecting(None));
        match engine.serve(&slow_key()) {
            Err(ServeError::SloBreach { latency_us, slo_us }) => {
                assert_eq!(slo_us, 1);
                assert!(latency_us > slo_us);
            }
            other => panic!("expected SloBreach, got {other:?}"),
        }
        let metrics = engine.obs().metrics().unwrap().snapshot();
        let violations = metrics
            .counters
            .iter()
            .find(|(n, _)| n == "serve.slo_violations")
            .map(|(_, v)| *v);
        assert_eq!(violations, Some(1));
    }

    #[test]
    fn generous_slo_does_not_fail_fast_requests() {
        let config = EngineConfig {
            slo_us: Some(60_000_000),
            slo_fail: true,
            ..EngineConfig::default()
        };
        let engine = Engine::new(&config, ObsHandle::disabled());
        let k = key(&[("alg", "scu"), ("q", "2"), ("s", "1"), ("n", "64")]);
        assert!(engine.serve(&k).is_ok());
        assert!(!engine.watchdog_report().unwrap().tripped);
        assert!(engine.flight().is_none());
    }

    #[test]
    fn armed_watchdog_trips_and_captures_a_flight_dump() {
        let config = EngineConfig {
            arm_us: Some(1),
            ..EngineConfig::default()
        };
        let engine = Engine::new(&config, ObsHandle::collecting(None));
        assert!(engine.flight().is_none());
        let served = engine.serve(&slow_key()).unwrap();
        let report = engine.watchdog_report().unwrap();
        assert!(report.tripped, "1 µs arm must trip on a slow sim");
        let dump = engine.flight().expect("trip captures a flight dump");
        assert_eq!(dump.reason, "tail exceedance");
        assert_eq!(dump.threshold, 1);
        // The offender op is the breaching request's FAI ticket.
        assert!(dump.offenders.iter().any(|o| o.op == served.ticket));
        let metrics = dump.metrics.as_ref().expect("metrics snapshot rides along");
        assert!(metrics.counters.iter().any(|(n, _)| n == "serve.requests"));
    }
}
