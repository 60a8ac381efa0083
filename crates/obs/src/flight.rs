//! The flight recorder: when the watchdog trips, snapshot what the
//! rings saw.
//!
//! A trip is only useful if it names the *context* of the anomaly, so
//! a [`FlightDump`] captures the last N events of every thread's ring,
//! the metrics snapshot, and the watchdog's offender list into one
//! replayable JSON document. The dump embeds its own Perfetto export
//! (the existing [`crate::perfetto`] pipeline), so the `trace` field
//! can be cut out and loaded straight into `chrome://tracing` /
//! Perfetto to view the moments before the trip.
//!
//! Dumps are written as `flight/<slug>-<seq>.json`; the sequence
//! number is the first free index in the directory, so repeated trips
//! never overwrite earlier evidence.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::event::Event;
use crate::json::Json;
use crate::metrics::MetricsSnapshot;
use crate::perfetto::{trace_json, trace_value};
use crate::watchdog::{Offender, WatchdogReport};

/// Default number of trailing events kept per thread in a dump.
pub const DEFAULT_KEEP_PER_THREAD: usize = 256;

/// A replayable snapshot of the observability state at trip time.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightDump {
    /// Why the recorder fired ("tail exceedance", "slo breach", …).
    pub reason: String,
    /// The armed threshold that was breached.
    pub threshold: u64,
    /// Observations the watchdog had seen at capture time.
    pub observed: u64,
    /// Observations beyond the threshold at capture time.
    pub exceeded: u64,
    /// Per-thread trailing-event cap applied at capture.
    pub per_thread_kept: usize,
    /// Tick-to-microsecond conversion for the embedded trace.
    pub ticks_per_us: f64,
    /// Worst offending operations, worst first.
    pub offenders: Vec<Offender>,
    /// The last `per_thread_kept` events of every thread, merged in
    /// global ticket order.
    pub events: Vec<Event>,
    /// Metrics at capture time, when a registry was attached.
    pub metrics: Option<MetricsSnapshot>,
}

impl FlightDump {
    /// Captures a dump from a watchdog report plus the ticket-ordered
    /// event stream (as returned by
    /// [`TraceCollector::events`](crate::ring::TraceCollector::events)),
    /// keeping the last `keep_per_thread` events of each thread.
    pub fn capture(
        reason: &str,
        report: &WatchdogReport,
        events: &[Event],
        keep_per_thread: usize,
        metrics: Option<MetricsSnapshot>,
        ticks_per_us: f64,
    ) -> Self {
        let mut totals: std::collections::BTreeMap<u32, usize> = std::collections::BTreeMap::new();
        for e in events {
            *totals.entry(e.thread).or_insert(0) += 1;
        }
        let mut seen: std::collections::BTreeMap<u32, usize> = std::collections::BTreeMap::new();
        let kept: Vec<Event> = events
            .iter()
            .filter(|e| {
                let idx = seen.entry(e.thread).or_insert(0);
                *idx += 1;
                // Keep an event iff it is among its thread's last
                // `keep_per_thread`; the merged stream stays
                // ticket-sorted because filtering preserves order.
                *idx + keep_per_thread > totals[&e.thread]
            })
            .copied()
            .collect();
        FlightDump {
            reason: reason.to_string(),
            threshold: report.threshold,
            observed: report.observed,
            exceeded: report.exceeded,
            per_thread_kept: keep_per_thread,
            ticks_per_us,
            offenders: report.offenders.clone(),
            events: kept,
            metrics,
        }
    }

    /// The embedded Perfetto/Chrome trace for the captured events.
    pub fn perfetto_json(&self) -> String {
        trace_json(&self.events, &self.process_name(), self.ticks_per_us)
    }

    fn process_name(&self) -> String {
        format!("flight: {}", self.reason)
    }

    /// Serializes the dump as one line of JSON (the flight-dump
    /// schema pinned in DESIGN.md "Telemetry verdicts").
    pub fn to_json(&self) -> String {
        let offenders = self
            .offenders
            .iter()
            .map(|o| {
                Json::Obj(vec![
                    ("thread".into(), Json::Int(o.thread.into())),
                    ("op".into(), Json::Int(o.op.into())),
                    ("value".into(), Json::Int(o.value.into())),
                ])
            })
            .collect();
        let events = self
            .events
            .iter()
            .map(|e| {
                Json::Obj(vec![
                    ("ticket".into(), Json::Int(e.ticket.into())),
                    ("tick".into(), Json::Int(e.tick.into())),
                    ("thread".into(), Json::Int(e.thread.into())),
                    ("kind".into(), Json::Str(e.kind.name().into())),
                    ("arg".into(), Json::Int(e.arg.into())),
                ])
            })
            .collect();
        let trace = trace_value(&self.events, &self.process_name(), self.ticks_per_us);
        Json::Obj(vec![
            ("reason".into(), Json::Str(self.reason.clone())),
            ("threshold".into(), Json::Int(self.threshold.into())),
            ("observed".into(), Json::Int(self.observed.into())),
            ("exceeded".into(), Json::Int(self.exceeded.into())),
            (
                "per_thread_kept".into(),
                Json::Int(self.per_thread_kept as i128),
            ),
            ("ticks_per_us".into(), Json::number(self.ticks_per_us)),
            ("offenders".into(), Json::Arr(offenders)),
            ("events".into(), Json::Arr(events)),
            (
                "metrics".into(),
                self.metrics.as_ref().map_or(Json::Null, metrics_json),
            ),
            ("trace".into(), trace),
        ])
        .render_compact()
    }

    /// Writes the dump into `dir` as `<slug>-<seq>.json` (creating the
    /// directory), picking the first free sequence number so earlier
    /// dumps are never overwritten. Returns the written path.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from directory creation or the
    /// write.
    pub fn write_to_dir(&self, dir: &Path) -> io::Result<PathBuf> {
        fs::create_dir_all(dir)?;
        let slug: String = self
            .reason
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() {
                    c.to_ascii_lowercase()
                } else {
                    '-'
                }
            })
            .collect();
        for seq in 0..10_000u32 {
            let path = dir.join(format!("{slug}-{seq:04}.json"));
            if !path.exists() {
                fs::write(&path, self.to_json())?;
                return Ok(path);
            }
        }
        Err(io::Error::other(
            "flight directory has 10000 dumps for this reason",
        ))
    }
}

fn metrics_json(snap: &MetricsSnapshot) -> Json {
    let counters = snap
        .counters
        .iter()
        .map(|(name, v)| (name.clone(), Json::Int((*v).into())))
        .collect();
    let gauges = snap
        .gauges
        .iter()
        .map(|(name, v)| (name.clone(), Json::number(*v)))
        .collect();
    let hists = snap
        .histograms
        .iter()
        .map(|(name, s)| {
            let int = |v: u64| Json::Int(v.into());
            let summary = vec![
                ("count".into(), int(s.count)),
                ("mean".into(), Json::number(s.mean)),
                ("min".into(), int(s.min)),
                ("max".into(), int(s.max)),
                ("p50".into(), int(s.p50)),
                ("p90".into(), int(s.p90)),
                ("p99".into(), int(s.p99)),
                ("p999".into(), int(s.p999)),
            ];
            (name.clone(), Json::Obj(summary))
        })
        .collect();
    Json::Obj(vec![
        ("counters".into(), Json::Obj(counters)),
        ("gauges".into(), Json::Obj(gauges)),
        ("histograms".into(), Json::Obj(hists)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use crate::metrics::Metrics;
    use crate::watchdog::Watchdog;

    fn ev(ticket: u64, thread: u32, kind: EventKind) -> Event {
        Event {
            ticket,
            tick: ticket * 10,
            thread,
            kind,
            arg: 0,
        }
    }

    fn tripped_report() -> WatchdogReport {
        let w = Watchdog::armed(10, 0);
        for i in 0..5u64 {
            w.observe(1, i, 100 + i);
        }
        w.report()
    }

    #[test]
    fn capture_keeps_the_last_n_per_thread_in_ticket_order() {
        let mut events = Vec::new();
        for i in 0..20u64 {
            events.push(ev(2 * i, 0, EventKind::Complete));
            events.push(ev(2 * i + 1, 1, EventKind::SchedulerPick));
        }
        let dump = FlightDump::capture("tail exceedance", &tripped_report(), &events, 4, None, 1.0);
        assert_eq!(dump.events.len(), 8);
        for t in [0u32, 1] {
            assert_eq!(dump.events.iter().filter(|e| e.thread == t).count(), 4);
        }
        // Survivors are each thread's most recent events, still in
        // global ticket order.
        assert!(dump.events.windows(2).all(|w| w[0].ticket < w[1].ticket));
        assert!(dump.events.iter().all(|e| e.ticket >= 32));
    }

    #[test]
    fn dump_json_names_the_offending_ops() {
        let events = vec![ev(0, 1, EventKind::OpStart), ev(1, 1, EventKind::OpEnd)];
        let m = Metrics::new();
        m.counter_add("ops", 7);
        let dump = FlightDump::capture(
            "slo breach",
            &tripped_report(),
            &events,
            DEFAULT_KEEP_PER_THREAD,
            Some(m.snapshot()),
            1.0,
        );
        let json = dump.to_json();
        assert!(json.contains("\"reason\":\"slo breach\""));
        assert!(json.contains("\"threshold\":10"));
        // The worst offender (value 104, op 4, thread 1) is named.
        assert!(json.contains("{\"thread\":1,\"op\":4,\"value\":104}"));
        assert!(json.contains("\"counters\":{\"ops\":7}"));
        // The embedded Perfetto trace rides along, replayable as-is.
        assert!(json.contains("\"trace\":{\"traceEvents\":["));
        assert!(dump.perfetto_json().contains("\"ph\":\"X\""));

        // The whole document, with a gauge and a histogram added.
        m.gauge_set("load", 0.25);
        for v in [3, 5, 900] {
            m.record("lat_us", v);
        }
        let dump = FlightDump {
            metrics: Some(m.snapshot()),
            ..dump
        };
        assert_eq!(
            dump.to_json(),
            concat!(
                r#"{"reason":"slo breach","threshold":10,"observed":5,"exceeded":5,"#,
                r#""per_thread_kept":256,"ticks_per_us":1,"offenders":["#,
                r#"{"thread":1,"op":4,"value":104},{"thread":1,"op":3,"value":103},"#,
                r#"{"thread":1,"op":2,"value":102},{"thread":1,"op":1,"value":101},"#,
                r#"{"thread":1,"op":0,"value":100}],"events":["#,
                r#"{"ticket":0,"tick":0,"thread":1,"kind":"op_start","arg":0},"#,
                r#"{"ticket":1,"tick":10,"thread":1,"kind":"op_end","arg":0}],"#,
                r#""metrics":{"counters":{"ops":7},"gauges":{"load":0.25},"#,
                r#""histograms":{"lat_us":{"count":3,"mean":302.6666666666667,"min":3,"#,
                r#""max":900,"p50":6,"p90":928,"p99":928,"p999":928}}},"#,
                r#""trace":{"traceEvents":[{"name":"process_name","ph":"M","pid":1,"#,
                r#""tid":0,"args":{"name":"flight: slo breach"}},{"name":"thread_name","#,
                r#""ph":"M","pid":1,"tid":1,"args":{"name":"thread 1"}},{"name":"op:0","#,
                r#""ph":"X","pid":1,"tid":1,"ts":0,"dur":10,"args":{"tag":0,"#,
                r#""retries":0}}],"displayTimeUnit":"ns"}}"#
            )
        );
    }

    #[test]
    fn dumps_get_sequential_paths_and_never_overwrite() {
        let dir = std::env::temp_dir().join(format!("pwf-flight-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let dump = FlightDump::capture("tail exceedance", &tripped_report(), &[], 8, None, 1.0);
        let first = dump.write_to_dir(&dir).unwrap();
        let second = dump.write_to_dir(&dir).unwrap();
        assert_eq!(first.file_name().unwrap(), "tail-exceedance-0000.json");
        assert_eq!(second.file_name().unwrap(), "tail-exceedance-0001.json");
        assert!(first.exists() && second.exists());
        fs::remove_dir_all(&dir).unwrap();
    }
}
