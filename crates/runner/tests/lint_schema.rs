//! Schema pin for `pwf lint --json`, using the workspace's JSON parser
//! (`pwf_obs::json`): the document must parse as standard JSON and
//! carry exactly the fields downstream tooling (ci.sh, dashboards)
//! keys on. A field rename or type change in pwf-lint's renderer fails
//! here before it breaks a consumer.

use std::path::Path;

use pwf_lint::{lint_workspace, Pass};
use pwf_obs::json::Json;

#[test]
fn lint_json_parses_and_matches_the_pinned_schema() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves");
    let report = lint_workspace(&root, &Pass::ALL, &[]).expect("workspace scan succeeds");
    let doc = report.render_json();
    let json = Json::parse(&doc).expect("lint --json must be valid JSON");
    // The whole document is its own value in the single-line layout.
    assert_eq!(doc, format!("{}\n", json.render_compact()));

    // Envelope.
    assert_eq!(json.get("tool").and_then(Json::as_str), Some("pwf-lint"));
    assert_eq!(json.get("schema_version").and_then(Json::as_u64), Some(1));
    assert!(json.get("root").and_then(Json::as_str).is_some());
    let passes: Vec<_> = json
        .get("passes")
        .and_then(Json::as_array)
        .expect("passes array")
        .iter()
        .filter_map(Json::as_str)
        .collect();
    assert_eq!(passes, vec!["orderings", "progress", "condvar", "unsafe"]);

    // Per-crate records.
    let crates = json
        .get("crates")
        .and_then(Json::as_array)
        .expect("crates array");
    assert!(crates.len() >= 13, "expected the full workspace");
    for c in crates {
        assert!(c.get("name").and_then(Json::as_str).is_some());
        for counter in ["files", "sites", "findings", "allowed"] {
            assert!(
                c.get(counter).and_then(Json::as_u64).is_some(),
                "crate record missing {counter}"
            );
        }
        assert!(c.get("clean").and_then(Json::as_bool).is_some());
        for v in c
            .get("violations")
            .and_then(Json::as_array)
            .expect("violations")
        {
            assert!(v.get("path").and_then(Json::as_str).is_some());
            assert!(v.get("line").and_then(Json::as_u64).is_some());
            assert!(v.get("function").and_then(Json::as_str).is_some());
            assert!(v.get("rule").and_then(Json::as_str).is_some());
            assert!(v.get("message").and_then(Json::as_str).is_some());
            let fp = v
                .get("fingerprint")
                .and_then(Json::as_str)
                .expect("fingerprint");
            assert_eq!(fp.len(), 16, "fingerprints are zero-padded hex64");
        }
        for s in c.get("stale").and_then(Json::as_array).expect("stale") {
            assert!(s.get("key").and_then(Json::as_str).is_some());
            assert!(s.get("line").and_then(Json::as_u64).is_some());
        }
    }

    // Summary totals agree with the crate records.
    let summary = json.get("summary").expect("summary object");
    let total = |field: &str| {
        summary
            .get(field)
            .and_then(Json::as_u64)
            .expect("summary counter")
    };
    let crate_sum = |field: &str| {
        crates
            .iter()
            .map(|c| c.get(field).and_then(Json::as_u64).unwrap_or(0))
            .sum::<u64>()
    };
    assert_eq!(total("crates"), crates.len() as u64);
    for field in ["files", "sites", "findings", "allowed"] {
        assert_eq!(total(field), crate_sum(field), "summary.{field} disagrees");
    }
    assert_eq!(summary.get("clean").and_then(Json::as_bool), Some(true));
}

#[test]
fn golden_shape_is_stable_for_a_dirty_single_crate_report() {
    // A hand-built report pins the exact field order and formatting of
    // the violation/stale records, including the mismatch extension
    // fields, without depending on workspace content.
    use pwf_lint::passes::Finding;
    use pwf_lint::{AllowEntry, CrateReport, Violation, WorkspaceReport};

    let report = WorkspaceReport {
        root: "/ws".to_string(),
        passes: vec!["orderings"],
        crates: vec![CrateReport {
            name: "demo".to_string(),
            allow_path: Some("crates/demo/lint.allow".to_string()),
            files: 1,
            sites: 2,
            findings: 2,
            violations: vec![Violation {
                finding: Finding {
                    path: "crates/demo/src/lib.rs".to_string(),
                    file: "lib.rs".to_string(),
                    line: 4,
                    function: "f".to_string(),
                    rule: "seqcst",
                    message: "load uses SeqCst".to_string(),
                    fingerprint: 0xdead_beef,
                },
                mismatch: Some((0xcafe, 7)),
            }],
            allowed: 1,
            stale: vec![AllowEntry {
                key: "lib.rs:gone:seqcst".to_string(),
                fingerprint: 1,
                justification: "old".to_string(),
                line: 9,
            }],
            allow_error: None,
        }],
    };
    let expected = concat!(
        "{\"tool\":\"pwf-lint\",\"schema_version\":1,\"root\":\"/ws\",",
        "\"passes\":[\"orderings\"],\"crates\":[",
        "{\"name\":\"demo\",\"files\":1,\"sites\":2,\"findings\":2,\"allowed\":1,",
        "\"violations\":[{\"path\":\"crates/demo/src/lib.rs\",\"line\":4,",
        "\"function\":\"f\",\"rule\":\"seqcst\",\"message\":\"load uses SeqCst\",",
        "\"fingerprint\":\"00000000deadbeef\",",
        "\"expected_fingerprint\":\"000000000000cafe\",\"entry_line\":7}],",
        "\"stale\":[{\"key\":\"lib.rs:gone:seqcst\",\"line\":9}],\"clean\":false}],",
        "\"summary\":{\"crates\":1,\"files\":1,\"sites\":2,\"findings\":2,",
        "\"allowed\":1,\"violations\":1,\"stale\":1,\"clean\":false}}\n"
    );
    assert_eq!(report.render_json(), expected);

    // A second crate, clean, and a violation without the mismatch
    // extension.
    let mut report = report;
    let mut plain = report.crates[0].violations[0].clone();
    plain.mismatch = None;
    plain.finding.line = 12;
    plain.finding.message = "tab\there \"quoted\"".to_string();
    report.crates[0].violations.push(plain);
    report.crates.push(CrateReport {
        name: "tidy".to_string(),
        allow_path: None,
        files: 3,
        sites: 0,
        findings: 0,
        violations: vec![],
        allowed: 0,
        stale: vec![],
        allow_error: None,
    });
    let expected = concat!(
        "{\"tool\":\"pwf-lint\",\"schema_version\":1,\"root\":\"/ws\",",
        "\"passes\":[\"orderings\"],\"crates\":[",
        "{\"name\":\"demo\",\"files\":1,\"sites\":2,\"findings\":2,\"allowed\":1,",
        "\"violations\":[{\"path\":\"crates/demo/src/lib.rs\",\"line\":4,",
        "\"function\":\"f\",\"rule\":\"seqcst\",\"message\":\"load uses SeqCst\",",
        "\"fingerprint\":\"00000000deadbeef\",",
        "\"expected_fingerprint\":\"000000000000cafe\",\"entry_line\":7},",
        "{\"path\":\"crates/demo/src/lib.rs\",\"line\":12,\"function\":\"f\",",
        "\"rule\":\"seqcst\",\"message\":\"tab\\there \\\"quoted\\\"\",",
        "\"fingerprint\":\"00000000deadbeef\"}],",
        "\"stale\":[{\"key\":\"lib.rs:gone:seqcst\",\"line\":9}],\"clean\":false},",
        "{\"name\":\"tidy\",\"files\":3,\"sites\":0,\"findings\":0,\"allowed\":0,",
        "\"violations\":[],\"stale\":[],\"clean\":true}],",
        "\"summary\":{\"crates\":2,\"files\":4,\"sites\":2,\"findings\":2,",
        "\"allowed\":1,\"violations\":2,\"stale\":1,\"clean\":false}}\n"
    );
    assert_eq!(report.render_json(), expected);
}
