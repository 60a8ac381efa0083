//! End-to-end exercises of the orchestration pipeline: register →
//! run in parallel → render → JSON round-trip → golden check —
//! including the failure paths (panic isolation, injected drift).

use std::sync::Arc;

use pwf_obs::json::Json;
use pwf_rng::RngCore;
use pwf_runner::{
    check_report, check_text, render, run_experiments, Drift, ExpConfig, ExpOutcome, ExpResult,
    FnExperiment, Registry, ReportBuilder, RunOptions,
};

fn table(cfg: &ExpConfig, out: &mut ReportBuilder) -> ExpResult {
    out.note("deterministic table driven by the derived seed");
    out.header(&["i", "draw"]);
    let mut rng = cfg.rng();
    for i in 0..4u64 {
        out.row(&[i.to_string(), rng.next_u64().to_string()]);
    }
    out.param("rows", 4);
    Ok(())
}

fn boom(_cfg: &ExpConfig, _out: &mut ReportBuilder) -> ExpResult {
    panic!("intentional test panic");
}

fn fail(_cfg: &ExpConfig, _out: &mut ReportBuilder) -> ExpResult {
    Err("structured failure".into())
}

const TABLE: FnExperiment = FnExperiment {
    name: "it_table",
    description: "integration: deterministic table",
    sizes: "",
    deterministic: true,
    body: table,
};
const BOOM: FnExperiment = FnExperiment {
    name: "it_boom",
    description: "integration: panics",
    sizes: "",
    deterministic: true,
    body: boom,
};
const FAIL: FnExperiment = FnExperiment {
    name: "it_fail",
    description: "integration: returns Err",
    sizes: "",
    deterministic: true,
    body: fail,
};

fn registry() -> Arc<Registry> {
    let mut r = Registry::new();
    for e in [TABLE, BOOM, FAIL] {
        r.register(Box::new(e)).unwrap();
    }
    Arc::new(r)
}

fn run_one(reg: &Arc<Registry>, name: &str, opts: &RunOptions) -> ExpOutcome {
    let summary = run_experiments(reg, &[name.to_string()], opts);
    summary.runs.into_iter().next().unwrap().outcome
}

#[test]
fn same_seed_same_report_across_job_counts() {
    let reg = registry();
    let names = vec!["it_table".to_string()];
    let mut opts = RunOptions {
        master_seed: 42,
        ..RunOptions::default()
    };

    let mut renders = Vec::new();
    for jobs in [1, 4] {
        opts.jobs = jobs;
        let summary = run_experiments(&reg, &names, &opts);
        assert!(summary.all_passed());
        match &summary.runs[0].outcome {
            ExpOutcome::Success(report) => renders.push(render(report)),
            other => panic!("expected success, got {}", other.label()),
        }
    }
    assert_eq!(renders[0], renders[1], "jobs count must not change output");

    opts.master_seed = 43;
    opts.jobs = 1;
    let summary = run_experiments(&reg, &names, &opts);
    let ExpOutcome::Success(report) = &summary.runs[0].outcome else {
        panic!("expected success");
    };
    assert_ne!(renders[0], render(report), "a new master seed must reseed");
}

#[test]
fn panic_and_error_are_isolated_from_healthy_experiments() {
    let reg = registry();
    let names: Vec<String> = ["it_boom", "it_fail", "it_table"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let opts = RunOptions {
        jobs: 3,
        ..RunOptions::default()
    };
    let summary = run_experiments(&reg, &names, &opts);

    assert_eq!(summary.passed(), 1);
    assert!(!summary.all_passed());
    let outcome_of = |name: &str| {
        &summary
            .runs
            .iter()
            .find(|r| r.name == name)
            .unwrap()
            .outcome
    };
    assert!(matches!(outcome_of("it_table"), ExpOutcome::Success(_)));
    match outcome_of("it_boom") {
        ExpOutcome::Panicked(msg) => assert!(msg.contains("intentional test panic")),
        other => panic!("expected panic, got {}", other.label()),
    }
    match outcome_of("it_fail") {
        ExpOutcome::Failed(msg) => assert!(msg.contains("structured failure")),
        other => panic!("expected failure, got {}", other.label()),
    }
}

#[test]
fn report_survives_a_json_round_trip() {
    let reg = registry();
    let outcome = run_one(&reg, "it_table", &RunOptions::default());
    let ExpOutcome::Success(report) = outcome else {
        panic!("expected success");
    };

    let encoded = report.to_json().render();
    let decoded = pwf_runner::Report::from_json(&Json::parse(&encoded).unwrap()).unwrap();
    assert_eq!(decoded.name, report.name);
    assert_eq!(decoded.seed, report.seed);
    assert_eq!(decoded.param("rows"), Some("4"));
    assert_eq!(render(&decoded), render(&report));
}

#[test]
fn check_detects_a_single_injected_cell_of_drift() {
    let reg = registry();
    let outcome = run_one(&reg, "it_table", &RunOptions::default());
    let ExpOutcome::Success(report) = outcome else {
        panic!("expected success");
    };
    let golden = render(&report);

    assert!(check_report(Some(&golden), &report).is_none());
    assert!(matches!(
        check_report(None, &report),
        Some(Drift::MissingGolden)
    ));

    // Flip one digit in one data cell, as a stale golden would show.
    let drifted = golden.replacen('0', "9", 1);
    assert_ne!(drifted, golden);
    match check_text(&drifted, &golden) {
        Some(Drift::Line { line, .. }) => assert!(line >= 1),
        other => panic!("expected line drift, got {other:?}"),
    }
}
