//! Chrome trace-event JSON export (loadable by Perfetto / `chrome://tracing`).
//!
//! Emits the JSON-object form of the trace-event format:
//! `{"traceEvents": [...], "displayTimeUnit": "ns"}`. Paired
//! [`EventKind::OpStart`]/[`EventKind::OpEnd`] events on the same
//! thread become `"X"` complete events (duration slices); everything
//! else becomes `"i"` instant events. Process and thread names are
//! emitted as `"M"` metadata records.
//!
//! The exporter is tolerant of ring-buffer drops: an `OpEnd` whose
//! start was overwritten is emitted as an instant, and unmatched
//! `OpStart`s are flushed as instants at the end.

use std::collections::BTreeMap;

use crate::event::{Event, EventKind};
use crate::json::Json;

/// Serializes events as Chrome trace-event JSON, on one line.
///
/// `ticks_per_us` converts the events' `tick` unit into microseconds
/// (the format's `ts` unit): pass `1.0` when ticks are already µs,
/// `1000.0` when they are nanoseconds, or any scale that keeps the
/// trace readable for unitless simulator steps.
///
/// Each trace event is rendered as soon as it is built, so the output
/// string is the only thing that grows with the trace. The bytes are
/// those of [`trace_value`] rendered compactly.
pub fn trace_json(events: &[Event], process_name: &str, ticks_per_us: f64) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    for_each_trace_event(events, process_name, ticks_per_us, |event| {
        if !first {
            out.push(',');
        }
        first = false;
        event.render_compact_into(&mut out);
    });
    out.push_str("],\"displayTimeUnit\":\"ns\"}");
    out
}

/// The [`trace_json`] document as a value, for embedding whole in a
/// flight dump.
pub(crate) fn trace_value(events: &[Event], process_name: &str, ticks_per_us: f64) -> Json {
    let mut out = Vec::new();
    for_each_trace_event(events, process_name, ticks_per_us, |event| out.push(event));
    Json::Obj(vec![
        ("traceEvents".into(), Json::Arr(out)),
        ("displayTimeUnit".into(), Json::Str("ns".into())),
    ])
}

/// Builds the trace's records in document order and hands each to
/// `sink`: process and thread metadata, then one record per event or
/// matched operation, then the operations still open at the end.
fn for_each_trace_event(
    events: &[Event],
    process_name: &str,
    ticks_per_us: f64,
    mut sink: impl FnMut(Json),
) {
    let scale = if ticks_per_us > 0.0 {
        ticks_per_us
    } else {
        1.0
    };
    sink(metadata("process_name", 0, process_name));
    let mut threads: Vec<u32> = events.iter().map(|e| e.thread).collect();
    threads.sort_unstable();
    threads.dedup();
    for t in threads {
        sink(metadata("thread_name", t, &format!("thread {t}")));
    }

    // Per-thread stacks of open OpStart events, matched LIFO so nested
    // operations pair correctly.
    let mut open: BTreeMap<u32, Vec<Event>> = BTreeMap::new();
    for e in events {
        match e.kind {
            EventKind::OpStart => open.entry(e.thread).or_default().push(*e),
            EventKind::OpEnd => {
                if let Some(start) = open.get_mut(&e.thread).and_then(Vec::pop) {
                    sink(complete_event(&start, e, scale));
                } else {
                    // The matching start was lost to ring wraparound.
                    sink(instant_event(e, scale));
                }
            }
            _ => sink(instant_event(e, scale)),
        }
    }
    for starts in open.values() {
        for start in starts {
            sink(instant_event(start, scale));
        }
    }
}

fn ts(tick: u64, scale: f64) -> Json {
    Json::number(tick as f64 / scale)
}

fn metadata(name: &str, thread: u32, value: &str) -> Json {
    Json::Obj(vec![
        ("name".into(), Json::Str(name.into())),
        ("ph".into(), Json::Str("M".into())),
        ("pid".into(), Json::Int(1)),
        ("tid".into(), Json::Int(thread.into())),
        (
            "args".into(),
            Json::Obj(vec![("name".into(), Json::Str(value.into()))]),
        ),
    ])
}

fn complete_event(start: &Event, end: &Event, scale: f64) -> Json {
    let args = vec![
        ("tag".into(), Json::Int(start.arg.into())),
        ("retries".into(), Json::Int(end.arg.into())),
    ];
    Json::Obj(vec![
        ("name".into(), Json::Str(format!("op:{}", start.arg))),
        ("ph".into(), Json::Str("X".into())),
        ("pid".into(), Json::Int(1)),
        ("tid".into(), Json::Int(start.thread.into())),
        ("ts".into(), ts(start.tick, scale)),
        ("dur".into(), ts(end.tick.saturating_sub(start.tick), scale)),
        ("args".into(), Json::Obj(args)),
    ])
}

fn instant_event(e: &Event, scale: f64) -> Json {
    Json::Obj(vec![
        ("name".into(), Json::Str(e.kind.name().into())),
        ("ph".into(), Json::Str("i".into())),
        ("s".into(), Json::Str("t".into())),
        ("pid".into(), Json::Int(1)),
        ("tid".into(), Json::Int(e.thread.into())),
        ("ts".into(), ts(e.tick, scale)),
        (
            "args".into(),
            Json::Obj(vec![("arg".into(), Json::Int(e.arg.into()))]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ticket: u64, tick: u64, thread: u32, kind: EventKind, arg: u64) -> Event {
        Event {
            ticket,
            tick,
            thread,
            kind,
            arg,
        }
    }

    #[test]
    fn pairs_start_end_into_complete_events() {
        let events = [
            ev(0, 100, 1, EventKind::OpStart, 7),
            ev(1, 150, 1, EventKind::CasFail, 1),
            ev(2, 200, 1, EventKind::OpEnd, 2),
        ];
        let json = trace_json(&events, "demo", 1.0);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"dur\":100"));
        assert!(json.contains("\"retries\":2"));
        assert!(json.contains("\"name\":\"cas_fail\""));
        assert!(json.contains("\"displayTimeUnit\":\"ns\""));
        assert_eq!(
            json,
            concat!(
                r#"{"traceEvents":[{"name":"process_name","ph":"M","pid":1,"tid":0,"#,
                r#""args":{"name":"demo"}},{"name":"thread_name","ph":"M","pid":1,"#,
                r#""tid":1,"args":{"name":"thread 1"}},{"name":"cas_fail","ph":"i","#,
                r#""s":"t","pid":1,"tid":1,"ts":150,"args":{"arg":1}},{"name":"op:7","#,
                r#""ph":"X","pid":1,"tid":1,"ts":100,"dur":100,"args":{"tag":7,"#,
                r#""retries":2}}],"displayTimeUnit":"ns"}"#
            )
        );
    }

    #[test]
    fn unmatched_events_degrade_to_instants() {
        // End without start (wrapped ring) and start without end
        // (still in flight) both survive as instants.
        let events = [
            ev(0, 10, 0, EventKind::OpEnd, 0),
            ev(1, 20, 0, EventKind::OpStart, 3),
        ];
        let json = trace_json(&events, "demo", 1.0);
        assert!(!json.contains("\"ph\":\"X\""));
        assert_eq!(json.matches("\"ph\":\"i\"").count(), 2);
    }

    #[test]
    fn nested_ops_match_lifo() {
        let events = [
            ev(0, 0, 0, EventKind::OpStart, 1),
            ev(1, 10, 0, EventKind::OpStart, 2),
            ev(2, 20, 0, EventKind::OpEnd, 0),
            ev(3, 30, 0, EventKind::OpEnd, 0),
        ];
        let json = trace_json(&events, "demo", 1.0);
        // Inner op: ts 10 dur 10; outer op: ts 0 dur 30.
        assert!(json.contains("\"ts\":10,\"dur\":10"));
        assert!(json.contains("\"ts\":0,\"dur\":30"));
    }

    #[test]
    fn scale_converts_ticks_to_microseconds() {
        let events = [
            ev(0, 2000, 0, EventKind::OpStart, 0),
            ev(1, 4000, 0, EventKind::OpEnd, 0),
        ];
        let json = trace_json(&events, "demo", 1000.0);
        assert!(json.contains("\"ts\":2,\"dur\":2"));
    }

    #[test]
    fn streamed_export_matches_the_rendered_value() {
        let events = [
            ev(0, 0, 2, EventKind::OpStart, 1),
            ev(1, 10, 0, EventKind::OpEnd, 4),
            ev(2, 15, 2, EventKind::CasFail, 1),
            ev(3, 20, 2, EventKind::OpEnd, 3),
            ev(4, 30, 1, EventKind::OpStart, 5),
        ];
        for (events, scale) in [(&events[..], 1.0), (&events[..], 3.0), (&[][..], 0.0)] {
            assert_eq!(
                trace_json(events, "p \"q\"", scale),
                trace_value(events, "p \"q\"", scale).render_compact()
            );
        }
    }

    #[test]
    fn strings_are_escaped() {
        let json = trace_json(&[], "a \"b\"\n", 1.0);
        assert!(json.contains("a \\\"b\\\"\\n"));
    }
}
