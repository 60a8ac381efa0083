//! The `pwf` command-line front end: `list`, `run`, `check`, `trace`
//! here, and `vet`, `lint`, `serve` and `report` handed to their crates.
//!
//! The binary itself lives in `pwf-bench` (which owns the experiment
//! registrations); it delegates straight here:
//!
//! ```ignore
//! fn main() {
//!     std::process::exit(pwf_runner::cli::main(registry, args));
//! }
//! ```

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use pwf_obs::json::Json;

use crate::check::check_report;
use crate::orchestrator::{run_experiments, ExpOutcome, RunOptions, RunSummary};
use crate::registry::Registry;
use crate::text::{fmt, render};
use crate::DEFAULT_MASTER_SEED;

const USAGE: &str = "\
pwf — parallel experiment runner for the practically-wait-free workspace

USAGE:
    pwf list
        List registered experiments (with last-run wall time when a
        BENCH_runner.json trajectory is present).

    pwf run (--all | NAME...) [OPTIONS]
        Run experiments in parallel and record results.
        --jobs N        worker threads (default: available cores);
                        also budgets each experiment's internal
                        size-sweep fan-out
        --seed S        master seed (default the golden-results seed)
        --fast          reduced-iteration smoke profile
        --timeout SECS  per-experiment budget (default 300)
        --out DIR       results directory (default results/)
        --no-write      do not write any files
        --metrics       print per-experiment counters/gauges/quantiles
        --trace DIR     also write Chrome trace-event JSON (Perfetto)

    pwf check [NAME...] [OPTIONS]
        Re-run deterministic experiments under the golden seed and
        diff against recorded results; exits nonzero on drift.
        --jobs N, --timeout SECS, --out DIR as above.

    pwf trace (--all | NAME...) [OPTIONS]
        Run experiments with tracing on and write one Perfetto-loadable
        trace-event JSON file per experiment (default traces/; override
        with --out DIR). Implies --metrics; results files are not
        touched.

    pwf vet [TARGET...] [OPTIONS]
        Systematic concurrency checking: DPOR schedule exploration,
        linearizability, lock-freedom. See `pwf vet --help`.

    pwf lint [OPTIONS]
        Workspace-wide concurrency static analysis: atomics-ordering,
        progress (unbounded spin/retry), condvar-discipline, and
        unsafe-inventory passes over every crate, gated by per-crate
        fingerprinted lint.allow files. See `pwf lint --help`.

    pwf serve [OPTIONS]
        The latency-prediction service: GET /predict answers from the
        theory, chain, or sim layer through request coalescing, an LRU
        result cache, and load shedding; /metrics and /trace expose
        the pwf-obs counters and request spans. `pwf serve --selftest`
        drives the built-in loadgen. See `pwf serve --help`.

    pwf report [OPTIONS]
        Aggregate BENCH_*.json plus the append-only
        results/bench_history.jsonl into a per-metric trend report
        (delta vs last run and vs best-ever, with tolerance bands).
        `pwf report --check` fails on regression beyond tolerance —
        the CI perf gate; `--record` appends the current metrics as
        the next baseline. See `pwf report --help`.
";

/// The default `--jobs`: every available core. Experiments fan their
/// size sweeps out through [`crate::par::parallel_map`], so idle cores
/// are wasted latency, not safety margin.
fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

struct Args {
    command: String,
    names: Vec<String>,
    all: bool,
    jobs: usize,
    seed: u64,
    fast: bool,
    timeout_secs: u64,
    out: PathBuf,
    out_explicit: bool,
    no_write: bool,
    metrics: bool,
    trace: Option<PathBuf>,
}

fn parse_args(mut argv: Vec<String>) -> Result<Args, String> {
    if argv.is_empty() {
        return Err("missing subcommand".into());
    }
    let command = argv.remove(0);
    let mut args = Args {
        command,
        names: Vec::new(),
        all: false,
        jobs: default_jobs(),
        seed: DEFAULT_MASTER_SEED,
        fast: false,
        timeout_secs: 300,
        out: PathBuf::from("results"),
        out_explicit: false,
        no_write: false,
        metrics: false,
        trace: None,
    };
    let mut it = argv.into_iter();
    while let Some(arg) = it.next() {
        let mut value_of = |flag: &str| it.next().ok_or_else(|| format!("{flag} needs a value"));
        match arg.as_str() {
            "--all" => args.all = true,
            "--fast" => args.fast = true,
            "--no-write" => args.no_write = true,
            "--metrics" => args.metrics = true,
            "--trace" => {
                args.trace = Some(PathBuf::from(value_of("--trace")?));
            }
            "--jobs" => {
                args.jobs = value_of("--jobs")?
                    .parse()
                    .map_err(|_| "--jobs needs an integer".to_string())?;
            }
            "--seed" => {
                args.seed = value_of("--seed")?
                    .parse()
                    .map_err(|_| "--seed needs a u64".to_string())?;
            }
            "--timeout" => {
                args.timeout_secs = value_of("--timeout")?
                    .parse()
                    .map_err(|_| "--timeout needs seconds".to_string())?;
            }
            "--out" => {
                args.out = PathBuf::from(value_of("--out")?);
                args.out_explicit = true;
            }
            flag if flag.starts_with("--") => {
                return Err(format!("unknown flag {flag}"));
            }
            name => args.names.push(name.to_string()),
        }
    }
    Ok(args)
}

/// Entry point. Returns the process exit code: 0 success, 1 failures
/// or drift, 2 usage errors.
pub fn main(registry: Registry, argv: Vec<String>) -> i32 {
    // These subcommands own their own flag grammars; hand them the raw
    // argv before the experiment-runner flags are parsed.
    let rest = || argv[1..].to_vec();
    match argv.first().map(String::as_str) {
        Some("vet") => return pwf_checker::cli::main(rest()),
        Some("lint") => return pwf_lint::cli::main(rest()),
        Some("serve") => return pwf_serve::cli::main(rest()),
        Some("report") => return crate::trend::cli_main(rest()),
        _ => {}
    }
    let args = match parse_args(argv) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("error: {msg}\n\n{USAGE}");
            return 2;
        }
    };
    let registry = Arc::new(registry);
    match args.command.as_str() {
        "list" => cmd_list(&registry),
        "run" => cmd_run(&registry, &args),
        "check" => cmd_check(&registry, &args),
        "trace" => cmd_trace(&registry, &args),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            0
        }
        other => {
            eprintln!("error: unknown subcommand {other:?}\n\n{USAGE}");
            2
        }
    }
}

/// Last-run wall time per experiment, read from the trajectory the
/// previous `pwf run` left behind. Missing or malformed files just
/// mean no column.
fn last_run_wall_ms(path: &Path) -> std::collections::BTreeMap<String, f64> {
    let mut map = std::collections::BTreeMap::new();
    let Ok(text) = std::fs::read_to_string(path) else {
        return map;
    };
    let Ok(doc) = Json::parse(&text) else {
        return map;
    };
    if let Some(exps) = doc.get("experiments").and_then(Json::as_array) {
        for e in exps {
            if let (Some(name), Some(wall)) = (
                e.get("name").and_then(Json::as_str),
                e.get("wall_ms").and_then(Json::as_f64),
            ) {
                map.insert(name.to_string(), wall);
            }
        }
    }
    map
}

fn cmd_list(registry: &Registry) -> i32 {
    let last = last_run_wall_ms(Path::new("BENCH_runner.json"));
    for exp in registry.iter() {
        let kind = if exp.deterministic() {
            "deterministic"
        } else {
            "hardware"
        };
        let wall = match last.get(exp.name()) {
            Some(ms) => format!("{}s", fmt(ms / 1e3)),
            None => "-".to_string(),
        };
        let sizes = if exp.sizes().is_empty() {
            "-"
        } else {
            exp.sizes()
        };
        println!(
            "{:<24} {:<14} {:<16} {:>9}  {}",
            exp.name(),
            kind,
            sizes,
            wall,
            exp.description()
        );
    }
    0
}

fn resolve_names(registry: &Registry, args: &Args) -> Result<Vec<String>, String> {
    if args.all {
        if !args.names.is_empty() {
            return Err("pass either --all or names, not both".into());
        }
        return Ok(registry.names());
    }
    if args.names.is_empty() {
        return Err("no experiments selected (use --all or name them)".into());
    }
    for name in &args.names {
        if registry.get(name).is_none() {
            return Err(format!("unknown experiment {name:?} (see `pwf list`)"));
        }
    }
    Ok(args.names.clone())
}

fn run_options(args: &Args) -> RunOptions {
    RunOptions {
        jobs: args.jobs,
        timeout: Duration::from_secs(args.timeout_secs),
        master_seed: args.seed,
        fast: args.fast,
        metrics: args.metrics,
        trace_dir: args.trace.clone(),
    }
}

fn print_summary(summary: &RunSummary) {
    println!(
        "\n{} experiments, {} passed, {} failed; {} jobs, total {}s",
        summary.runs.len(),
        summary.passed(),
        summary.runs.len() - summary.passed(),
        summary.jobs,
        fmt(summary.total_wall_ms / 1e3),
    );
    for run in &summary.runs {
        let detail = match &run.outcome {
            ExpOutcome::Success(_) => String::new(),
            ExpOutcome::Failed(msg) | ExpOutcome::Panicked(msg) => format!("  ({msg})"),
            ExpOutcome::TimedOut => "  (exceeded --timeout)".into(),
            ExpOutcome::Unknown => "  (not registered)".into(),
        };
        println!(
            "  {:<24} {:<9} {:>9}s{detail}",
            run.name,
            run.outcome.label(),
            fmt(run.wall_ms / 1e3),
        );
    }
}

/// Prints the observability harvest of every run that has one.
fn print_metrics(summary: &RunSummary) {
    for run in &summary.runs {
        let Some(obs) = &run.obs else { continue };
        println!("\nmetrics for {}:", run.name);
        if obs.metrics.is_empty() {
            println!("  (nothing recorded)");
        }
        for line in obs.metrics.render() {
            println!("  {line}");
        }
        if obs.events_recorded > 0 {
            println!(
                "  events  {} recorded, {} dropped to ring wraparound",
                obs.events_recorded, obs.events_dropped
            );
        }
    }
}

/// Writes one Chrome trace-event JSON file per traced run; returns
/// how many were written.
fn write_traces(dir: &Path, summary: &RunSummary) -> std::io::Result<usize> {
    std::fs::create_dir_all(dir)?;
    let mut written = 0;
    for run in &summary.runs {
        let Some(trace) = run.obs.as_ref().and_then(|o| o.trace_json.as_ref()) else {
            continue;
        };
        std::fs::write(dir.join(format!("{}.trace.json", run.name)), trace)?;
        written += 1;
    }
    Ok(written)
}

fn cmd_run(registry: &Arc<Registry>, args: &Args) -> i32 {
    let names = match resolve_names(registry, args) {
        Ok(names) => names,
        Err(msg) => {
            eprintln!("error: {msg}\n\n{USAGE}");
            return 2;
        }
    };
    // Never clobber the full-profile golden results with a fast run:
    // fast output goes nowhere unless an explicit --out says where.
    let write = if args.no_write {
        false
    } else if args.fast && !args.out_explicit {
        eprintln!(
            "note: --fast without --out does not overwrite {} (smoke profile)",
            args.out.display()
        );
        false
    } else {
        true
    };

    let summary = run_experiments(registry, &names, &run_options(args));
    print_summary(&summary);
    if args.metrics {
        print_metrics(&summary);
    }
    if let Some(dir) = &args.trace {
        match write_traces(dir, &summary) {
            Ok(written) => println!("wrote {} trace files under {}", written, dir.display()),
            Err(err) => {
                eprintln!("error: writing traces: {err}");
                return 1;
            }
        }
    }

    if write {
        if let Err(err) = write_outputs(&args.out, &summary) {
            eprintln!("error: writing results: {err}");
            return 1;
        }
        println!(
            "wrote {} text + JSON reports under {}",
            summary.passed(),
            args.out.display()
        );
    }
    if let Err(err) = write_trajectory(Path::new("BENCH_runner.json"), &summary) {
        eprintln!("error: writing BENCH_runner.json: {err}");
        return 1;
    }
    i32::from(!summary.all_passed())
}

fn write_outputs(out_dir: &Path, summary: &RunSummary) -> std::io::Result<()> {
    let json_dir = out_dir.join("json");
    std::fs::create_dir_all(&json_dir)?;
    for run in &summary.runs {
        if let ExpOutcome::Success(report) = &run.outcome {
            std::fs::write(out_dir.join(format!("{}.txt", run.name)), render(report))?;
            std::fs::write(
                json_dir.join(format!("{}.json", run.name)),
                report.to_json().render(),
            )?;
        }
    }
    Ok(())
}

/// Writes the timing trajectory of the run — when each experiment
/// started and how long it took, i.e. the realized parallel schedule,
/// plus trace event volumes when observability was on.
fn write_trajectory(path: &Path, summary: &RunSummary) -> std::io::Result<()> {
    let experiments = summary
        .runs
        .iter()
        .map(|run| {
            let mut fields = vec![
                ("name".into(), Json::Str(run.name.clone())),
                ("outcome".into(), Json::Str(run.outcome.label().into())),
                ("started_ms".into(), Json::Num(run.started_ms)),
                ("wall_ms".into(), Json::Num(run.wall_ms)),
            ];
            if let Some(obs) = &run.obs {
                fields.push((
                    "events_recorded".into(),
                    Json::Int(obs.events_recorded as i128),
                ));
                fields.push((
                    "events_dropped".into(),
                    Json::Int(obs.events_dropped as i128),
                ));
            }
            Json::Obj(fields)
        })
        .collect();
    let doc = Json::Obj(vec![
        ("benchmark".into(), Json::Str("pwf-runner".into())),
        ("jobs".into(), Json::Int(summary.jobs as i128)),
        ("master_seed".into(), Json::Int(summary.master_seed as i128)),
        ("total_wall_ms".into(), Json::Num(summary.total_wall_ms)),
        ("experiments".into(), Json::Arr(experiments)),
    ]);
    std::fs::write(path, doc.render())
}

/// `pwf trace`: run with event tracing on and write one Perfetto
/// trace per experiment. A diagnostic run — golden results files are
/// never touched.
fn cmd_trace(registry: &Arc<Registry>, args: &Args) -> i32 {
    let names = match resolve_names(registry, args) {
        Ok(names) => names,
        Err(msg) => {
            eprintln!("error: {msg}\n\n{USAGE}");
            return 2;
        }
    };
    let dir = if args.out_explicit {
        args.out.clone()
    } else {
        PathBuf::from("traces")
    };
    let mut opts = run_options(args);
    opts.metrics = true;
    opts.trace_dir = Some(dir.clone());

    let summary = run_experiments(registry, &names, &opts);
    print_summary(&summary);
    print_metrics(&summary);
    match write_traces(&dir, &summary) {
        Ok(written) => println!(
            "\nwrote {} trace files under {} (load in ui.perfetto.dev or chrome://tracing)",
            written,
            dir.display()
        ),
        Err(err) => {
            eprintln!("error: writing traces: {err}");
            return 1;
        }
    }
    i32::from(!summary.all_passed())
}

fn cmd_check(registry: &Arc<Registry>, args: &Args) -> i32 {
    let requested = if args.all || !args.names.is_empty() {
        match resolve_names(registry, args) {
            Ok(names) => names,
            Err(msg) => {
                eprintln!("error: {msg}\n\n{USAGE}");
                return 2;
            }
        }
    } else {
        registry.names()
    };
    // Only deterministic experiments can be diffed against goldens.
    let (names, skipped): (Vec<_>, Vec<_>) = requested
        .into_iter()
        .partition(|n| registry.get(n).map(|e| e.deterministic()).unwrap_or(false));
    for name in &skipped {
        println!("  {name:<24} skipped   (hardware-dependent output)");
    }

    // Golden results are recorded under the default master seed; an
    // overridden seed would always drift, so check pins it.
    let mut opts = run_options(args);
    opts.master_seed = DEFAULT_MASTER_SEED;
    opts.fast = false;
    let summary = run_experiments(registry, &names, &opts);

    let mut drifted = 0usize;
    for run in &summary.runs {
        match &run.outcome {
            ExpOutcome::Success(report) => {
                let golden_path = args.out.join(format!("{}.txt", run.name));
                let golden = std::fs::read_to_string(&golden_path).ok();
                match check_report(golden.as_deref(), report) {
                    None => println!("  {:<24} ok", run.name),
                    Some(drift) => {
                        drifted += 1;
                        println!("  {:<24} DRIFT     {drift}", run.name);
                    }
                }
            }
            outcome => {
                drifted += 1;
                println!("  {:<24} {}", run.name, outcome.label());
            }
        }
    }
    println!(
        "\nchecked {} experiments against {}: {} drifted, {} skipped",
        summary.runs.len(),
        args.out.display(),
        drifted,
        skipped.len()
    );
    i32::from(drifted > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_run_flags() {
        let args = parse_args(argv(&[
            "run",
            "--all",
            "--jobs",
            "4",
            "--seed",
            "9",
            "--fast",
            "--timeout",
            "60",
        ]))
        .unwrap();
        assert_eq!(args.command, "run");
        assert!(args.all && args.fast);
        assert_eq!((args.jobs, args.seed, args.timeout_secs), (4, 9, 60));
    }

    #[test]
    fn parse_rejects_unknown_flags_and_missing_values() {
        assert!(parse_args(argv(&["run", "--bogus"])).is_err());
        assert!(parse_args(argv(&["run", "--jobs"])).is_err());
        assert!(parse_args(argv(&["run", "--trace"])).is_err());
        assert!(parse_args(argv(&[])).is_err());
    }

    #[test]
    fn parse_observability_flags() {
        let args = parse_args(argv(&["run", "--all", "--metrics", "--trace", "tr"])).unwrap();
        assert!(args.metrics);
        assert_eq!(args.trace, Some(PathBuf::from("tr")));
        let args = parse_args(argv(&["trace", "exp_a"])).unwrap();
        assert_eq!(args.command, "trace");
        assert_eq!(args.names, vec!["exp_a"]);
    }

    #[test]
    fn jobs_defaults_to_available_parallelism() {
        let args = parse_args(argv(&["run", "--all"])).unwrap();
        assert_eq!(args.jobs, default_jobs());
        assert!(args.jobs >= 1);
    }

    #[test]
    fn names_are_positional() {
        let args = parse_args(argv(&["check", "exp_a", "exp_b"])).unwrap();
        assert_eq!(args.names, vec!["exp_a", "exp_b"]);
    }
}
