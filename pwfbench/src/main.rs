//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path pwfbench/Cargo.toml -- \
//!     --workload serve-hot|serve-cold|vet --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` it runs one workload end to end and prints the
//! end-to-end metrics; with `--trace 1` it replays the workloads'
//! inputs in-process with per-layer spans and prints the per-layer
//! metrics. The last line of standard output is the result object; the
//! line before it is the run's provenance. Both, and the spans of a
//! traced run, are also written under `.bench_out/`.

mod client;
mod keys;
mod limits;
mod serve;
mod stats;
mod trace;
mod vet;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use limits::{nproc, CONNS, THREADS};
use stats::{median, quantile};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Cache hits only: transport and hit path.
    ServeHot,
    /// Fresh keys only: Markov and simulator compute.
    ServeCold,
    /// Checker verdict passes.
    Vet,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "serve-hot" => Some(Workload::ServeHot),
            "serve-cold" => Some(Workload::ServeCold),
            "vet" => Some(Workload::Vet),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::ServeHot => "serve-hot",
            Workload::ServeCold => "serve-cold",
            Workload::Vet => "vet",
        }
    }
}

/// The end-to-end metrics, in output order, with their units.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("throughput_rps", "req/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("vet_pass_s", "s"),
];

/// Timed set-ups per serve run, split before and after the window; the
/// median is reported.
const SETUP_REPS_HOT: usize = 5;
const SETUP_REPS_COLD: usize = 25;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} needs {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("a workload"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or_else(|| bad("seconds > 0"))?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// The repository checkout the benchmark was built from.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// What the source digest covers: the repository's manifests and crates,
/// and the benchmark's own definition and sources.
const DIGESTED: [&str; 6] = [
    "Cargo.toml",
    "Cargo.lock",
    "crates",
    "BENCHMARK.json",
    "pwfbench/Cargo.toml",
    "pwfbench/src",
];

/// FNV-1a over the files under [`DIGESTED`], so results can be matched
/// to code without a git checkout. Also returns the entries that are
/// missing or unreadable, which the provenance line lists.
fn source_digest() -> (String, Vec<String>) {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>, missing: &mut Vec<String>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            missing.push(dir.to_string_lossy().into_owned());
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files, missing);
            } else {
                files.push(path);
            }
        }
    }
    let root = repo_root();
    let mut files = Vec::new();
    let mut missing = Vec::new();
    for rel in DIGESTED {
        let path = root.join(rel);
        if path.is_dir() {
            walk(&path, &mut files, &mut missing);
        } else if path.is_file() {
            files.push(path);
        } else {
            missing.push(rel.to_string());
        }
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for file in files {
        let rel = file.strip_prefix(&root).unwrap_or(&file);
        let Ok(bytes) = std::fs::read(&file) else {
            missing.push(rel.to_string_lossy().into_owned());
            continue;
        };
        for b in rel.to_string_lossy().bytes().chain(bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
    (format!("{h:016x}"), missing)
}

/// The git revision when built from a git checkout.
fn git_revision() -> String {
    let root = repo_root();
    if !root.join(".git").exists() {
        return "none".into();
    }
    std::process::Command::new("git")
        .arg("-C")
        .arg(&root)
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "none".into(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

/// A JSON string literal (benchmark-controlled text only needs quotes
/// and backslashes escaped; control characters are dropped).
fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' | '\\' => {
                out.push('\\');
                out.push(c);
            }
            c if c.is_control() => {}
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A metric value: finite numbers print with all their digits.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

struct Outcome {
    attempted: u64,
    failed: u64,
    first_error: Option<String>,
    /// `END_TO_END` or `trace::PER_LAYER`, paired with `values`.
    names: &'static [(&'static str, &'static str)],
    values: Vec<f64>,
    extra: Vec<(&'static str, String)>,
}

/// The [`END_TO_END`] values of one timed window: requests per second
/// and latency quantiles over the whole window, and the median pass.
fn window_metrics(setup_s: f64, latencies_us: &[f64], wall_s: f64, passes_s: &[f64]) -> Vec<f64> {
    vec![
        setup_s,
        latencies_us.len() as f64 / wall_s,
        quantile(latencies_us, 0.5),
        quantile(latencies_us, 0.99),
        median(passes_s),
    ]
}

fn end_to_end(args: &Args) -> Result<Outcome, String> {
    let (seed, seconds) = (args.seed, args.seconds);
    match args.workload {
        Workload::ServeHot | Workload::ServeCold => {
            let run = if args.workload == Workload::ServeHot {
                serve::hot(seed, seconds, SETUP_REPS_HOT)?
            } else {
                serve::cold(seed, seconds, SETUP_REPS_COLD)?
            };
            let [cache, computed, coalesced] = run.sources;
            Ok(Outcome {
                attempted: run.attempted,
                failed: run.failed,
                first_error: run.first_error.clone(),
                names: &END_TO_END,
                values: window_metrics(
                    run.setup_s(),
                    &run.latencies_us,
                    run.wall_s,
                    &run.passes_s,
                ),
                extra: vec![
                    ("samples", run.latencies_us.len().to_string()),
                    ("passes", run.passes_s.len().to_string()),
                    ("wall_s", json_num(run.wall_s)),
                    (
                        "sources",
                        format!("{{\"cache\":{cache},\"computed\":{computed},\"coalesced\":{coalesced}}}"),
                    ),
                ],
            })
        }
        Workload::Vet => {
            let run = vet::run(seed, seconds);
            Ok(Outcome {
                attempted: run.attempted,
                failed: run.failed,
                first_error: run.first_error.clone(),
                names: &END_TO_END,
                values: window_metrics(run.setup_s(), &run.latencies_us, run.wall_s, &run.passes_s),
                extra: vec![
                    ("samples", run.latencies_us.len().to_string()),
                    ("passes", run.passes_s.len().to_string()),
                    ("wall_s", json_num(run.wall_s)),
                ],
            })
        }
    }
}

fn traced(args: &Args) -> Result<Outcome, String> {
    let run = trace::run(args.workload, args.seed)?;
    let out_dir = Path::new(".bench_out");
    let spans_file = out_dir.join(format!("spans-{}.jsonl", args.workload.name()));
    std::fs::create_dir_all(out_dir)
        .and_then(|()| trace::write_spans(&spans_file, &run.spans))
        .map_err(|e| format!("writing {}: {e}", spans_file.display()))?;
    Ok(Outcome {
        attempted: run.checks.attempted,
        failed: run.checks.failed,
        first_error: run.checks.first_error,
        names: &trace::PER_LAYER,
        values: run.values.to_vec(),
        extra: vec![
            ("spans", run.spans.len().to_string()),
            ("spans_file", json_str(&spans_file.to_string_lossy())),
        ],
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("pwfbench: {e}");
            eprintln!("usage: pwfbench --workload serve-hot|serve-cold|vet --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.trace {
        traced(&args)
    } else {
        end_to_end(&args)
    };
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("pwfbench: {} failed: {e}", args.workload.name());
            return ExitCode::FAILURE;
        }
    };
    if let Some(e) = &outcome.first_error {
        eprintln!("pwfbench: first failure: {e}");
    }

    let (digest, missing) = source_digest();
    let missing: Vec<String> = missing.iter().map(|m| json_str(m)).collect();
    let mut provenance = format!(
        "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{},\"client_threads\":{},\"connections\":{},\"git_revision\":{},\"source_digest\":{},\"source_missing\":[{}]",
        json_str(args.workload.name()),
        args.seed,
        json_num(args.seconds),
        u8::from(args.trace),
        nproc(),
        THREADS.peak(),
        CONNS.peak(),
        json_str(&git_revision()),
        json_str(&digest),
        missing.join(","),
    );
    for (key, value) in &outcome.extra {
        let _ = write!(provenance, ",{}:{value}", json_str(key));
    }
    provenance.push('}');

    let mut metrics = String::new();
    for (i, ((name, unit), value)) in outcome.names.iter().zip(&outcome.values).enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            metrics,
            "{sep}{}:{{\"value\":{},\"unit\":{}}}",
            json_str(name),
            json_num(*value),
            json_str(unit)
        );
    }
    let result = format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
        outcome.failed == 0,
        outcome.attempted.max(1),
        outcome.failed
    );

    let record = Path::new(".bench_out").join(format!(
        "{}-seed{}-trace{}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    let written = std::fs::create_dir_all(".bench_out").and_then(|()| {
        std::fs::write(
            &record,
            format!("{{\"provenance\":{provenance},\"result\":{result}}}\n"),
        )
    });
    if let Err(e) = written {
        eprintln!("pwfbench: writing {}: {e}", record.display());
    }
    println!("provenance {provenance}");
    println!("{result}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let names: Vec<&str> = END_TO_END
            .iter()
            .chain(&trace::PER_LAYER)
            .map(|(name, _)| *name)
            .chain(["serve-hot", "serve-cold", "vet"])
            .collect();
        for name in &names {
            assert!(
                spec.contains(&format!("\"name\": \"{name}\"")),
                "{name} is not in BENCHMARK.json"
            );
        }
        assert_eq!(spec.matches("\"name\":").count(), names.len());
    }

    #[test]
    fn benchmark_never_holds_more_than_nproc_threads_or_connections() {
        for run in [serve::hot(3, 0.3, 2), serve::cold(3, 0.3, 2)] {
            let run = run.expect("the serve workloads run");
            assert_eq!(run.failed, 0, "{:?}", run.first_error);
        }
        let (threads, conns) = (THREADS.peak(), CONNS.peak());
        assert!((1..=nproc()).contains(&threads), "{threads} threads");
        assert!((1..=nproc()).contains(&conns), "{conns} connections");
    }
}
