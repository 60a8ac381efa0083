//! Schema-shape validation of the Perfetto export, using the
//! workspace's JSON parser (`pwf_obs::json`): the trace document `pwf trace` writes must parse
//! as standard JSON and carry exactly the Chrome trace-event fields
//! Perfetto and `chrome://tracing` require.

use pwf_obs::json::Json;
use pwf_obs::{trace_json, Event, EventKind};

fn ev(ticket: u64, tick: u64, thread: u32, kind: EventKind, arg: u64) -> Event {
    Event {
        ticket,
        tick,
        thread,
        kind,
        arg,
    }
}

/// A small two-thread trace with paired ops, a retry instant, and an
/// unmatched start (as a ring that dropped the matching end would
/// produce).
fn sample_events() -> Vec<Event> {
    vec![
        ev(0, 0, 0, EventKind::OpStart, 1),
        ev(1, 5, 1, EventKind::OpStart, 2),
        ev(2, 8, 0, EventKind::CasFail, 1),
        ev(3, 20, 0, EventKind::OpEnd, 1),
        ev(4, 30, 1, EventKind::OpEnd, 0),
        ev(5, 40, 1, EventKind::OpStart, 3),
    ]
}

#[test]
fn trace_document_parses_and_matches_the_chrome_schema() {
    let doc = trace_json(&sample_events(), "schema_test", 1.0);
    let json = Json::parse(&doc).expect("trace output must be valid JSON");

    assert_eq!(
        json.get("displayTimeUnit").and_then(Json::as_str),
        Some("ns")
    );
    let events = json
        .get("traceEvents")
        .and_then(Json::as_array)
        .expect("traceEvents array");
    assert!(!events.is_empty());

    for e in events {
        // Required by the trace-event format for every record.
        let ph = e.get("ph").and_then(Json::as_str).expect("ph");
        assert!(e.get("name").and_then(Json::as_str).is_some());
        assert!(e.get("pid").and_then(Json::as_u64).is_some());
        assert!(e.get("tid").and_then(Json::as_u64).is_some());
        match ph {
            "M" => {
                // Metadata: a name argument, no timestamp.
                assert!(e
                    .get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Json::as_str)
                    .is_some());
            }
            "X" => {
                // Complete event: timestamp + duration, microseconds.
                assert!(e.get("ts").and_then(Json::as_f64).is_some());
                assert!(e.get("dur").and_then(Json::as_f64).unwrap_or(-1.0) >= 0.0);
            }
            "i" => {
                // Instant, thread-scoped.
                assert!(e.get("ts").and_then(Json::as_f64).is_some());
                assert_eq!(e.get("s").and_then(Json::as_str), Some("t"));
            }
            other => panic!("unexpected event phase {other:?}"),
        }
    }

    // The first record names the process after the experiment.
    assert_eq!(
        events[0].get("name").and_then(Json::as_str),
        Some("process_name")
    );
    assert_eq!(
        events[0]
            .get("args")
            .and_then(|a| a.get("name"))
            .and_then(Json::as_str),
        Some("schema_test")
    );

    // Both paired ops became complete events; the unmatched trailing
    // OpStart degraded to an instant instead of vanishing.
    let count_of = |phase: &str| {
        events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some(phase))
            .count()
    };
    assert_eq!(count_of("X"), 2);
    // CasFail + the unmatched OpStart.
    assert_eq!(count_of("i"), 2);
}

#[test]
fn golden_shape_is_stable_for_a_minimal_trace() {
    // One paired op at ticks-are-nanoseconds scale: the golden string
    // pins the exact field set and number formatting so an accidental
    // exporter change is caught here before Perfetto rejects it.
    let events = vec![
        ev(0, 1_000, 0, EventKind::OpStart, 7),
        ev(1, 3_000, 0, EventKind::OpEnd, 2),
    ];
    let doc = trace_json(&events, "golden", 1000.0);
    let expected = concat!(
        "{\"traceEvents\":[",
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,",
        "\"args\":{\"name\":\"golden\"}},",
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,",
        "\"args\":{\"name\":\"thread 0\"}},",
        "{\"name\":\"op:7\",\"ph\":\"X\",\"pid\":1,\"tid\":0,",
        "\"ts\":1,\"dur\":2,\"args\":{\"tag\":7,\"retries\":2}}",
        "],\"displayTimeUnit\":\"ns\"}"
    );
    assert_eq!(doc, expected);
}
