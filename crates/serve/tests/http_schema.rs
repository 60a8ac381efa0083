//! Schema pins for the service's wire formats, validated with the
//! workspace's JSON parser, `pwf_obs::json` (the same approach as the
//! runner's `perfetto_schema` suite): the `/predict` response body,
//! the error shape, and the `/metrics` plain-text grammar are
//! contracts — dashboards and the CI gate parse them — so their shape
//! is locked here, field by field.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};

use pwf_obs::json::Json;
use pwf_obs::ObsHandle;
use pwf_serve::server::{start, ServerConfig};

fn boot() -> (pwf_serve::server::ServerHandle, SocketAddr) {
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        ..ServerConfig::default()
    };
    let server = start(&config, ObsHandle::collecting(Some(1 << 12))).unwrap();
    let addr = server.addr();
    (server, addr)
}

fn get(addr: SocketAddr, target: &str) -> (u16, String) {
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
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        if line.trim_end().is_empty() {
            break;
        }
    }
    let mut body = String::new();
    reader.read_to_string(&mut body).unwrap();
    (status, body)
}

/// Every `/predict` response is `{"query": {...}, "result": {...}}`
/// with the full canonical key echoed and a `model` discriminator in
/// the result.
#[test]
fn predict_response_schema_is_pinned() {
    let (server, addr) = boot();
    for (target, model, extra_fields) in [
        (
            "/predict?alg=scu&q=2&s=1&n=64",
            "theorem4",
            vec![
                "alpha",
                "system_latency",
                "individual_latency",
                "completion_rate",
            ],
        ),
        (
            "/predict?alg=fai&n=32",
            "lemma12",
            vec![
                "system_latency_bound",
                "individual_latency_bound",
                "completion_rate_bound",
            ],
        ),
        (
            "/predict?alg=parallel&q=3&n=16",
            "lemma11",
            vec!["system_latency", "individual_latency", "completion_rate"],
        ),
        (
            "/predict?alg=fai&n=4&layer=sim&steps=5000",
            "simulation",
            vec![
                "total_completions",
                "completion_rate",
                "mean_individual_latency",
            ],
        ),
    ] {
        let (status, body) = get(addr, target);
        assert_eq!(status, 200, "{target}: {body}");
        let doc = Json::parse(&body).unwrap_or_else(|e| panic!("{target}: bad JSON: {e}"));

        // The echoed query carries the complete canonical key.
        let query = doc
            .get("query")
            .unwrap_or_else(|| panic!("{target}: no query"));
        for field in ["alg", "layer"] {
            assert!(
                query.get(field).and_then(Json::as_str).is_some(),
                "{target}: query.{field} must be a string"
            );
        }
        for field in ["q", "s", "n", "steps", "seed"] {
            assert!(
                query.get(field).and_then(Json::as_u64).is_some(),
                "{target}: query.{field} must be an integer"
            );
        }

        let result = doc
            .get("result")
            .unwrap_or_else(|| panic!("{target}: no result"));
        assert_eq!(
            result.get("model").and_then(Json::as_str),
            Some(model),
            "{target}: model discriminator"
        );
        for field in extra_fields {
            assert!(
                result.get(field).is_some(),
                "{target}: result.{field} missing"
            );
        }
    }
    server.shutdown();
}

/// Every chain key answers with one body schema, whatever the family
/// or size: the `chain` model and exactly these fields, in this order.
/// Parallel code at q = 255 is the byte cap of its chain builders.
#[test]
fn chain_response_schema_is_one_schema() {
    let (server, addr) = boot();
    for target in [
        "/predict?alg=scu&n=4&layer=chain",
        "/predict?alg=scu&n=8&layer=chain",
        "/predict?alg=fai&n=5&layer=chain",
        "/predict?alg=parallel&q=2&n=6&layer=chain",
        "/predict?alg=parallel&q=255&n=1&layer=chain",
    ] {
        let (status, body) = get(addr, target);
        assert_eq!(status, 200, "{target}: {body}");
        let doc = Json::parse(&body).unwrap_or_else(|e| panic!("{target}: bad JSON: {e}"));
        let Some(Json::Obj(fields)) = doc.get("result") else {
            panic!("{target}: result is not an object");
        };
        let names: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            names,
            [
                "model",
                "system_states",
                "system_latency",
                "individual_latency",
                "completion_rate",
                "kernel_residual",
            ],
            "{target}: field list"
        );
        assert_eq!(fields[0].1.as_str(), Some("chain"), "{target}: model");
    }
    server.shutdown();
}

/// Error responses are `{"error": <string>, "status": <int>}` and the
/// status field matches the HTTP status line.
#[test]
fn error_response_schema_is_pinned() {
    let (server, addr) = boot();
    for (target, expected) in [
        ("/predict?alg=bogus&n=4", 400),
        ("/predict?alg=scu", 400),
        ("/predict?alg=fai&n=11&layer=chain", 400),
        // Past the chain builders' caps: refused up front, never a
        // panicking computation that strands coalesced joiners.
        ("/predict?alg=parallel&q=256&n=1&layer=chain", 400),
        ("/nowhere", 404),
    ] {
        let (status, body) = get(addr, target);
        assert_eq!(status, expected, "{target}");
        let doc = Json::parse(&body).unwrap();
        assert!(
            doc.get("error")
                .and_then(Json::as_str)
                .is_some_and(|m| !m.is_empty()),
            "{target}: error message"
        );
        assert_eq!(
            doc.get("status").and_then(Json::as_u64),
            Some(u64::from(expected)),
            "{target}: status echo"
        );
    }
    server.shutdown();
}

/// The `/metrics` grammar: a comment header, then `counter NAME INT`,
/// `gauge NAME FLOAT`, and
/// `hist NAME count=.. mean=.. min=.. max=.. p50=.. p90=.. p99=.. p999=..`
/// lines, in that kind order, sorted by name within each kind.
#[test]
fn metrics_text_format_is_pinned() {
    let (server, addr) = boot();
    // Generate some traffic so every record kind is populated.
    for _ in 0..3 {
        let (status, _) = get(addr, "/predict?alg=scu&q=2&s=1&n=64");
        assert_eq!(status, 200);
    }
    let (status, text) = get(addr, "/metrics");
    assert_eq!(status, 200);

    let mut lines = text.lines();
    assert_eq!(lines.next(), Some("# pwf-serve metrics"));

    let mut kinds_seen: Vec<&str> = Vec::new();
    let mut names_by_kind: std::collections::HashMap<&str, Vec<&str>> =
        std::collections::HashMap::new();
    for line in lines {
        let mut parts = line.split_whitespace();
        let kind = parts
            .next()
            .unwrap_or_else(|| panic!("empty line in {text}"));
        let name = parts
            .next()
            .unwrap_or_else(|| panic!("no name in {line:?}"));
        match kind {
            "counter" => {
                let value = parts
                    .next()
                    .unwrap_or_else(|| panic!("no value in {line:?}"));
                assert!(value.parse::<u64>().is_ok(), "counter value in {line:?}");
                assert!(parts.next().is_none(), "trailing tokens in {line:?}");
            }
            "gauge" => {
                let value = parts
                    .next()
                    .unwrap_or_else(|| panic!("no value in {line:?}"));
                assert!(value.parse::<f64>().is_ok(), "gauge value in {line:?}");
                assert!(parts.next().is_none(), "trailing tokens in {line:?}");
            }
            "hist" => {
                let fields: Vec<(&str, &str)> = parts
                    .map(|p| {
                        p.split_once('=')
                            .unwrap_or_else(|| panic!("bad field {p:?}"))
                    })
                    .collect();
                let keys: Vec<&str> = fields.iter().map(|(k, _)| *k).collect();
                assert_eq!(
                    keys,
                    vec!["count", "mean", "min", "max", "p50", "p90", "p99", "p999"],
                    "hist fields in {line:?}"
                );
                for (key, value) in fields {
                    if key == "mean" {
                        assert!(value.parse::<f64>().is_ok(), "hist {key} in {line:?}");
                    } else {
                        assert!(value.parse::<u64>().is_ok(), "hist {key} in {line:?}");
                    }
                }
            }
            other => panic!("unknown record kind {other:?} in {line:?}"),
        }
        if kinds_seen.last() != Some(&kind) {
            kinds_seen.push(kind);
        }
        names_by_kind.entry(kind).or_default().push(name);
    }
    // Kind order is pinned: counters, then gauges, then histograms.
    assert_eq!(kinds_seen, vec!["counter", "gauge", "hist"]);
    // Names sorted within each kind (stable diffs, binary-searchable).
    for (kind, names) in &names_by_kind {
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, &sorted, "{kind} names must be sorted");
    }

    // The contract counters the CI gate greps for.
    for required in [
        "counter serve.requests 3",
        "counter serve.cache_hits 2",
        "counter serve.computed 1",
        "counter serve.cache.hit_total 2",
        "counter serve.dedup.leaders 1",
        "counter serve.shaper.shed_total 0",
        "gauge serve.cache.entries 1.000",
        "gauge serve.shaper.waiting 0.000",
        "gauge serve.dedup.inflight 0.000",
    ] {
        assert!(
            text.lines().any(|l| l == required),
            "missing {required:?} in:\n{text}"
        );
    }
    assert!(
        text.lines()
            .any(|l| l.starts_with("hist serve.latency_us ")),
        "latency histogram missing in:\n{text}"
    );
    server.shutdown();
}

/// The `X-Pwf-Source` header is part of the contract: computed on the
/// first request, cache on the repeat.
#[test]
fn source_header_is_pinned() {
    let (server, addr) = boot();
    let source_of = |target: &str| -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "GET {target} HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        let mut text = String::new();
        BufReader::new(stream).read_to_string(&mut text).unwrap();
        text.lines()
            .find_map(|l| l.strip_prefix("x-pwf-source: "))
            .unwrap_or_default()
            .to_string()
    };
    assert_eq!(source_of("/predict?alg=fai&n=16"), "computed");
    assert_eq!(source_of("/predict?alg=fai&n=16"), "cache");
    server.shutdown();
}
