//! `pwf report`: the bench trend report and CI perf gate.
//!
//! Aggregates every `BENCH_*.json` in the working directory into one
//! flat metric set, diffs it against the append-only
//! `results/bench_history.jsonl` trajectory (delta vs the last
//! recorded run and vs best-ever, with tolerance bands), and — with
//! `--check` — exits nonzero when a gated metric regresses beyond the
//! band. `--record` appends the current metrics as a new history
//! entry, so the CI sequence `pwf report --check --record` gates
//! against the previous run and then becomes the next baseline.
//!
//! Metric names are the dotted JSON paths prefixed with the bench
//! slug (`BENCH_serve.json` → `serve.…`); array rows keyed by a
//! `name` or `n` field get stable path segments, so a size sweep that
//! grows does not renumber history.

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use pwf_obs::json::Json;

use crate::text::fmt;

/// Usage text for `pwf report --help`.
pub const USAGE: &str = "\
pwf report — bench trend report and CI perf gate

USAGE:
    pwf report [OPTIONS]

Aggregates BENCH_*.json into a per-metric trend against the
append-only bench history, printing delta vs the last recorded run
and vs best-ever.

OPTIONS:
    --dir DIR         directory holding BENCH_*.json      [default: .]
    --history FILE    history file  [default: results/bench_history.jsonl]
    --tolerance PCT   regression band in percent         [default: 35]
    --check           exit 1 when a gated metric regresses beyond the
                      band (the CI perf gate)
    --record          append the current metrics as a new history entry
    --json            emit the report as JSON instead of text
    -h, --help        show this text
";

/// Default relative tolerance band (35%): wide enough to absorb
/// normal wall-clock noise, tight enough to catch a real regression.
pub const DEFAULT_TOLERANCE: f64 = 0.35;

/// Which way a metric is supposed to move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Smaller is better (latencies, errors, drift).
    Lower,
    /// Bigger is better (speedups, throughput, hit rates).
    Higher,
    /// Informational only — tracked, never gated (sizes, seeds).
    Neutral,
}

impl Direction {
    /// Heuristic by metric name. Speedups are checked first so
    /// `speedup_at_dense_wall` gates as a speedup, not a wall time;
    /// error-like fragments come next so `completions_rel_err` gates
    /// on the error, not the completions.
    pub fn of(name: &str) -> Direction {
        const LOWER: [&str; 11] = [
            "drift", "err", "residual", "_ms", "_us", "wall", "latency", "timeout", "rejected",
            "dropped", "retries",
        ];
        const HIGHER: [&str; 6] = [
            "throughput",
            "rate",
            "completed",
            "completions",
            "hit",
            "coalesced",
        ];
        if name.contains("speedup") {
            Direction::Higher
        } else if LOWER.iter().any(|frag| name.contains(frag)) {
            Direction::Lower
        } else if HIGHER.iter().any(|frag| name.contains(frag)) {
            Direction::Higher
        } else {
            Direction::Neutral
        }
    }

    /// The arrow rendered next to gated metrics.
    fn arrow(self) -> &'static str {
        match self {
            Direction::Lower => "v",
            Direction::Higher => "^",
            Direction::Neutral => " ",
        }
    }
}

/// Flattens a bench document into dotted-path numeric metrics.
/// Non-numeric and non-finite leaves are skipped. Array elements
/// carrying a `name` or `n` field keep that as their path segment.
pub fn flatten(prefix: &str, doc: &Json, out: &mut BTreeMap<String, f64>) {
    match doc {
        Json::Obj(fields) => {
            for (key, value) in fields {
                let path = if prefix.is_empty() {
                    key.clone()
                } else {
                    format!("{prefix}.{key}")
                };
                flatten(&path, value, out);
            }
        }
        Json::Arr(items) => {
            for (index, item) in items.iter().enumerate() {
                let tag = item
                    .get("name")
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .or_else(|| {
                        item.get("n")
                            .and_then(Json::as_f64)
                            .map(|n| format!("n{n}"))
                    })
                    .unwrap_or_else(|| index.to_string());
                flatten(&format!("{prefix}.{tag}"), item, out);
            }
        }
        leaf => {
            if let Some(value) = leaf.as_f64() {
                if value.is_finite() {
                    out.insert(prefix.to_string(), value);
                }
            }
        }
    }
}

/// Reads every `BENCH_*.json` under `dir`; returns the file names and
/// the merged flat metric set.
///
/// # Errors
///
/// I/O failures and JSON parse failures (a malformed bench file must
/// fail the gate, not silently vanish from it).
pub fn load_bench_metrics(dir: &Path) -> io::Result<(Vec<String>, BTreeMap<String, f64>)> {
    let mut names: Vec<String> = fs::read_dir(dir)?
        .filter_map(|entry| entry.ok())
        .filter_map(|entry| entry.file_name().into_string().ok())
        .filter(|name| name.starts_with("BENCH_") && name.ends_with(".json"))
        .collect();
    names.sort();
    let mut metrics = BTreeMap::new();
    for name in &names {
        let slug = name
            .trim_start_matches("BENCH_")
            .trim_end_matches(".json")
            .to_string();
        let text = fs::read_to_string(dir.join(name))?;
        let doc = Json::parse(&text)
            .map_err(|e| io::Error::other(format!("{name}: malformed JSON: {e}")))?;
        flatten(&slug, &doc, &mut metrics);
    }
    Ok((names, metrics))
}

/// One recorded run in `bench_history.jsonl`.
#[derive(Debug, Clone, PartialEq)]
pub struct HistoryEntry {
    /// Monotonic record number.
    pub seq: u64,
    /// Wall-clock capture time (unix milliseconds; 0 if unknown).
    pub recorded_unix_ms: u64,
    /// The flat metric set at record time.
    pub metrics: BTreeMap<String, f64>,
}

/// Parses the JSONL history text. Lines that fail to parse are
/// reported as errors — the gate must not silently shrink its
/// baseline.
///
/// # Errors
///
/// The 1-based line number and parse failure of the first bad line.
pub fn parse_history(text: &str) -> Result<Vec<HistoryEntry>, String> {
    let mut entries = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let doc = Json::parse(line).map_err(|e| format!("history line {}: {e}", lineno + 1))?;
        let mut metrics = BTreeMap::new();
        if let Some(Json::Obj(fields)) = doc.get("metrics") {
            for (key, value) in fields {
                if let Some(v) = value.as_f64() {
                    metrics.insert(key.clone(), v);
                }
            }
        }
        entries.push(HistoryEntry {
            seq: doc.get("seq").and_then(Json::as_u64).unwrap_or(0),
            recorded_unix_ms: doc
                .get("recorded_unix_ms")
                .and_then(Json::as_u64)
                .unwrap_or(0),
            metrics,
        });
    }
    Ok(entries)
}

/// Loads the history file; a missing file is an empty history.
///
/// # Errors
///
/// I/O failures other than not-found, and malformed lines.
pub fn load_history(path: &Path) -> Result<Vec<HistoryEntry>, String> {
    match fs::read_to_string(path) {
        Ok(text) => parse_history(&text),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(Vec::new()),
        Err(e) => Err(format!("{}: {e}", path.display())),
    }
}

/// Renders one history entry as a single JSONL line (no trailing
/// newline). Metrics print as [`Json::number`] spells them: integral
/// values as integers, others in Rust's shortest round-trip form.
pub fn history_line(entry: &HistoryEntry) -> String {
    let metrics = entry
        .metrics
        .iter()
        .map(|(name, value)| (name.clone(), Json::number(*value)))
        .collect();
    Json::Obj(vec![
        ("seq".into(), Json::Int(entry.seq.into())),
        (
            "recorded_unix_ms".into(),
            Json::Int(entry.recorded_unix_ms.into()),
        ),
        ("metrics".into(), Json::Obj(metrics)),
    ])
    .render_compact()
}

/// Appends one entry to the history file, creating parent directories
/// as needed.
///
/// # Errors
///
/// Filesystem errors.
pub fn append_history(path: &Path, entry: &HistoryEntry) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            fs::create_dir_all(parent)?;
        }
    }
    use std::io::Write as _;
    let mut file = fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(file, "{}", history_line(entry))
}

/// One metric's trend line.
#[derive(Debug, Clone, PartialEq)]
pub struct TrendRow {
    /// Dotted metric path (`serve.latency.p99_us`).
    pub metric: String,
    /// Gate direction.
    pub direction: Direction,
    /// Value in the current BENCH files.
    pub current: f64,
    /// Value in the last history entry, when recorded.
    pub last: Option<f64>,
    /// Best value across all history, by `direction` (None for
    /// neutral metrics or empty history).
    pub best: Option<f64>,
    /// Signed relative delta vs `last` (`+0.10` = 10% increase).
    pub delta_vs_last: Option<f64>,
    /// Signed relative delta vs `best`.
    pub delta_vs_best: Option<f64>,
    /// Whether this row breaches the tolerance band against `last`.
    pub regressed: bool,
}

/// The assembled report.
#[derive(Debug, Clone)]
pub struct TrendReport {
    /// One row per current metric, sorted by path.
    pub rows: Vec<TrendRow>,
    /// The band the rows were gated with.
    pub tolerance: f64,
    /// History entries consulted.
    pub history_len: usize,
}

/// Signed relative delta of `current` against `base`, saturating the
/// divide-by-zero case (a metric that was 0 and now is not is an
/// infinite relative change; 1e12 keeps it finite and very much
/// beyond any band).
fn rel_delta(current: f64, base: f64) -> f64 {
    if current == base {
        0.0
    } else if base.abs() < 1e-12 {
        ((current - base) / 1e-12).clamp(-1e12, 1e12)
    } else {
        (current - base) / base.abs()
    }
}

impl TrendReport {
    /// Builds the trend of `current` against `history`.
    pub fn build(
        current: &BTreeMap<String, f64>,
        history: &[HistoryEntry],
        tolerance: f64,
    ) -> TrendReport {
        let last = history.last();
        let rows = current
            .iter()
            .map(|(metric, &value)| {
                let direction = Direction::of(metric);
                let last_value = last.and_then(|e| e.metrics.get(metric)).copied();
                let best = match direction {
                    Direction::Neutral => None,
                    _ => history
                        .iter()
                        .filter_map(|e| e.metrics.get(metric))
                        .copied()
                        .reduce(|a, b| match direction {
                            Direction::Lower => a.min(b),
                            _ => a.max(b),
                        }),
                };
                let delta_vs_last = last_value.map(|base| rel_delta(value, base));
                let delta_vs_best = best.map(|base| rel_delta(value, base));
                let regressed = match (direction, delta_vs_last) {
                    (Direction::Lower, Some(delta)) => delta > tolerance,
                    (Direction::Higher, Some(delta)) => delta < -tolerance,
                    _ => false,
                };
                TrendRow {
                    metric: metric.clone(),
                    direction,
                    current: value,
                    last: last_value,
                    best,
                    delta_vs_last,
                    delta_vs_best,
                    regressed,
                }
            })
            .collect();
        TrendReport {
            rows,
            tolerance,
            history_len: history.len(),
        }
    }

    /// Rows breaching the band, worst first.
    pub fn regressions(&self) -> Vec<&TrendRow> {
        let mut rows: Vec<&TrendRow> = self.rows.iter().filter(|r| r.regressed).collect();
        rows.sort_by(|a, b| {
            let severity = |r: &TrendRow| r.delta_vs_last.map(f64::abs).unwrap_or(0.0);
            severity(b).total_cmp(&severity(a))
        });
        rows
    }

    /// The plain-text report.
    pub fn render_text(&self, files: &[String]) -> String {
        let mut out = format!(
            "# pwf report — {} bench files, {} history entries, band ±{:.0}%\n",
            files.len(),
            self.history_len,
            self.tolerance * 100.0
        );
        out.push_str(&format!("# files: {}\n\n", files.join(" ")));
        out.push_str(&format!(
            "{:<44} {:>12} {:>12} {:>9} {:>12} {:>9}\n",
            "metric", "current", "last", "d-last", "best", "d-best"
        ));
        let pct = |delta: Option<f64>| match delta {
            None => "-".to_string(),
            Some(d) if d.abs() > 99.99 => format!("{}inf%", if d > 0.0 { "+" } else { "-" }),
            Some(d) => format!("{:+.1}%", d * 100.0),
        };
        let val = |v: Option<f64>| v.map(fmt).unwrap_or_else(|| "-".to_string());
        for row in &self.rows {
            out.push_str(&format!(
                "{:<44} {:>12} {:>12} {:>9} {:>12} {:>9}{}\n",
                format!("{} {}", row.metric, row.direction.arrow()),
                fmt(row.current),
                val(row.last),
                pct(row.delta_vs_last),
                val(row.best),
                pct(row.delta_vs_best),
                if row.regressed { "  REGRESSION" } else { "" },
            ));
        }
        let regressions = self.regressions();
        if regressions.is_empty() {
            out.push_str(&format!(
                "\nno regressions beyond the ±{:.0}% band\n",
                self.tolerance * 100.0
            ));
        } else {
            out.push_str(&format!(
                "\n{} regression(s) beyond the ±{:.0}% band:\n",
                regressions.len(),
                self.tolerance * 100.0
            ));
            for row in regressions {
                out.push_str(&format!(
                    "  REGRESSION {}: {} vs last {} ({})\n",
                    row.metric,
                    fmt(row.current),
                    val(row.last),
                    pct(row.delta_vs_last),
                ));
            }
        }
        out
    }

    /// The report as a JSON document.
    pub fn to_json(&self, files: &[String]) -> Json {
        let direction = |d: Direction| {
            Json::Str(
                match d {
                    Direction::Lower => "lower",
                    Direction::Higher => "higher",
                    Direction::Neutral => "neutral",
                }
                .into(),
            )
        };
        let opt = |v: Option<f64>| v.map(Json::Num).unwrap_or(Json::Null);
        let rows = self
            .rows
            .iter()
            .map(|row| {
                Json::Obj(vec![
                    ("metric".into(), Json::Str(row.metric.clone())),
                    ("direction".into(), direction(row.direction)),
                    ("current".into(), Json::Num(row.current)),
                    ("last".into(), opt(row.last)),
                    ("best".into(), opt(row.best)),
                    ("delta_vs_last".into(), opt(row.delta_vs_last)),
                    ("delta_vs_best".into(), opt(row.delta_vs_best)),
                    ("regressed".into(), Json::Bool(row.regressed)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("report".into(), Json::Str("pwf-bench-trend".into())),
            (
                "files".into(),
                Json::Arr(files.iter().map(|f| Json::Str(f.clone())).collect()),
            ),
            (
                "history_entries".into(),
                Json::Int(self.history_len as i128),
            ),
            ("tolerance".into(), Json::Num(self.tolerance)),
            (
                "regressions".into(),
                Json::Int(self.regressions().len() as i128),
            ),
            ("metrics".into(), Json::Arr(rows)),
        ])
    }
}

struct ReportArgs {
    dir: PathBuf,
    history: PathBuf,
    tolerance: f64,
    check: bool,
    record: bool,
    json: bool,
}

fn parse(argv: &[String]) -> Result<Option<ReportArgs>, String> {
    let mut args = ReportArgs {
        dir: PathBuf::from("."),
        history: PathBuf::from("results/bench_history.jsonl"),
        tolerance: DEFAULT_TOLERANCE,
        check: false,
        record: false,
        json: false,
    };
    let mut iter = argv.iter();
    while let Some(arg) = iter.next() {
        let mut value = |name: &str| -> Result<String, String> {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "-h" | "--help" => return Ok(None),
            "--dir" => args.dir = PathBuf::from(value("--dir")?),
            "--history" => args.history = PathBuf::from(value("--history")?),
            "--tolerance" => {
                let pct: f64 = value("--tolerance")?
                    .parse()
                    .map_err(|e| format!("--tolerance: {e}"))?;
                if !(pct > 0.0 && pct.is_finite()) {
                    return Err("--tolerance must be a positive percentage".into());
                }
                args.tolerance = pct / 100.0;
            }
            "--check" => args.check = true,
            "--record" => args.record = true,
            "--json" => args.json = true,
            other => return Err(format!("unknown flag {other:?} (see pwf report --help)")),
        }
    }
    Ok(Some(args))
}

/// Entry point for the `report` subcommand (dispatched from the `pwf`
/// binary). Returns the process exit code: 0 clean, 1 regressions or
/// I/O failure, 2 usage errors.
pub fn cli_main(argv: Vec<String>) -> i32 {
    let args = match parse(&argv) {
        Ok(Some(args)) => args,
        Ok(None) => {
            print!("{USAGE}");
            return 0;
        }
        Err(message) => {
            eprintln!("pwf report: {message}");
            return 2;
        }
    };
    let (files, metrics) = match load_bench_metrics(&args.dir) {
        Ok(loaded) => loaded,
        Err(e) => {
            eprintln!("pwf report: reading {}: {e}", args.dir.display());
            return 1;
        }
    };
    if files.is_empty() {
        eprintln!(
            "pwf report: no BENCH_*.json files under {} (run `pwf run --all` and `pwf serve --selftest` first)",
            args.dir.display()
        );
        return 1;
    }
    let history = match load_history(&args.history) {
        Ok(history) => history,
        Err(message) => {
            eprintln!("pwf report: {message}");
            return 1;
        }
    };
    let report = TrendReport::build(&metrics, &history, args.tolerance);
    if args.json {
        print!("{}", report.to_json(&files).render());
    } else {
        print!("{}", report.render_text(&files));
    }
    if args.record {
        let entry = HistoryEntry {
            seq: history.last().map(|e| e.seq + 1).unwrap_or(0),
            recorded_unix_ms: std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_millis() as u64)
                .unwrap_or(0),
            metrics,
        };
        if let Err(e) = append_history(&args.history, &entry) {
            eprintln!("pwf report: appending {}: {e}", args.history.display());
            return 1;
        }
        println!(
            "recorded history entry {} in {}",
            entry.seq,
            args.history.display()
        );
    }
    let regressions = report.regressions().len();
    if args.check && regressions > 0 {
        eprintln!(
            "pwf report: FAIL — {regressions} metric(s) regressed beyond ±{:.0}%",
            args.tolerance * 100.0
        );
        return 1;
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(text: &str) -> Json {
        Json::parse(text).unwrap()
    }

    #[test]
    fn flatten_uses_stable_keys_for_named_and_sized_rows() {
        let mut out = BTreeMap::new();
        flatten(
            "sim",
            &doc(r#"{"profile":"fast","total":3,
                    "sizes":[{"n":64,"speedup":6.0},{"n":256,"speedup":16.5}],
                    "experiments":[{"name":"exp_a","wall_ms":5.5}],
                    "raw":[1,2]}"#),
            &mut out,
        );
        assert_eq!(out.get("sim.total"), Some(&3.0));
        assert_eq!(out.get("sim.sizes.n64.speedup"), Some(&6.0));
        assert_eq!(out.get("sim.sizes.n256.speedup"), Some(&16.5));
        assert_eq!(out.get("sim.experiments.exp_a.wall_ms"), Some(&5.5));
        assert_eq!(out.get("sim.raw.0"), Some(&1.0));
        assert_eq!(out.get("sim.raw.1"), Some(&2.0));
        // Strings are not metrics.
        assert!(!out.contains_key("sim.profile"));
    }

    #[test]
    fn direction_heuristic_prefers_error_fragments() {
        assert_eq!(Direction::of("sim.completions_rel_err"), Direction::Lower);
        assert_eq!(Direction::of("serve.latency.p99_us"), Direction::Lower);
        assert_eq!(Direction::of("serve.throughput_rps"), Direction::Higher);
        assert_eq!(Direction::of("serve.cache_hit_rate"), Direction::Higher);
        assert_eq!(Direction::of("markov.largest_dense_n"), Direction::Neutral);
        assert_eq!(
            Direction::of("markov.speedup_at_dense_wall"),
            Direction::Higher
        );
    }

    #[test]
    fn history_lines_round_trip() {
        let entry = HistoryEntry {
            seq: 3,
            recorded_unix_ms: 1700,
            metrics: [("a.b".to_string(), 1.5), ("c".to_string(), 2.0)]
                .into_iter()
                .collect(),
        };
        let line = history_line(&entry);
        assert_eq!(
            line,
            r#"{"seq":3,"recorded_unix_ms":1700,"metrics":{"a.b":1.5,"c":2}}"#
        );
        let parsed = parse_history(&line).unwrap();
        assert_eq!(parsed, vec![entry]);
    }

    #[test]
    fn malformed_history_lines_are_errors_not_silence() {
        let err = parse_history("{\"seq\":0,\"metrics\":{}}\nnot json\n").unwrap_err();
        assert!(err.contains("line 2"), "{err}");
    }

    #[test]
    fn equal_metrics_never_regress_and_improvements_pass() {
        let current: BTreeMap<String, f64> = [
            ("serve.latency.p99_us".to_string(), 10_000.0),
            ("sim.speedup".to_string(), 8.0),
        ]
        .into_iter()
        .collect();
        let history = vec![HistoryEntry {
            seq: 0,
            recorded_unix_ms: 0,
            metrics: current.clone(),
        }];
        let report = TrendReport::build(&current, &history, DEFAULT_TOLERANCE);
        assert!(report.regressions().is_empty());

        // Better on both axes: still clean, and best-ever reflects it.
        let better: BTreeMap<String, f64> = [
            ("serve.latency.p99_us".to_string(), 5_000.0),
            ("sim.speedup".to_string(), 12.0),
        ]
        .into_iter()
        .collect();
        let report = TrendReport::build(&better, &history, DEFAULT_TOLERANCE);
        assert!(report.regressions().is_empty());
        let row = report
            .rows
            .iter()
            .find(|r| r.metric == "serve.latency.p99_us")
            .unwrap();
        assert!(row.delta_vs_last.unwrap() < 0.0);
    }

    #[test]
    fn regressions_beyond_the_band_are_flagged_in_both_directions() {
        let history = vec![HistoryEntry {
            seq: 0,
            recorded_unix_ms: 0,
            metrics: [
                ("serve.latency.p99_us".to_string(), 1_000.0),
                ("sim.speedup".to_string(), 10.0),
                ("markov.largest_dense_n".to_string(), 6.0),
            ]
            .into_iter()
            .collect(),
        }];
        let current: BTreeMap<String, f64> = [
            // Latency 10x worse: gated (lower-is-better).
            ("serve.latency.p99_us".to_string(), 10_000.0),
            // Speedup halved: gated (higher-is-better).
            ("sim.speedup".to_string(), 5.0),
            // Neutral metric moved: never gated.
            ("markov.largest_dense_n".to_string(), 60.0),
        ]
        .into_iter()
        .collect();
        let report = TrendReport::build(&current, &history, DEFAULT_TOLERANCE);
        let regressed: Vec<&str> = report
            .regressions()
            .iter()
            .map(|r| r.metric.as_str())
            .collect();
        assert_eq!(regressed, vec!["serve.latency.p99_us", "sim.speedup"]);
        // Within-band wobble is fine.
        let wobble: BTreeMap<String, f64> = [
            ("serve.latency.p99_us".to_string(), 1_200.0),
            ("sim.speedup".to_string(), 9.0),
        ]
        .into_iter()
        .collect();
        assert!(TrendReport::build(&wobble, &history, DEFAULT_TOLERANCE)
            .regressions()
            .is_empty());
    }

    #[test]
    fn zero_baseline_drift_is_an_infinite_regression() {
        let history = vec![HistoryEntry {
            seq: 0,
            recorded_unix_ms: 0,
            metrics: [("serve.drift".to_string(), 0.0)].into_iter().collect(),
        }];
        let current: BTreeMap<String, f64> =
            [("serve.drift".to_string(), 1.0)].into_iter().collect();
        let report = TrendReport::build(&current, &history, DEFAULT_TOLERANCE);
        assert_eq!(report.regressions().len(), 1);
    }

    #[test]
    fn best_ever_tracks_the_direction() {
        let entry = |seq: u64, latency: f64, speedup: f64| HistoryEntry {
            seq,
            recorded_unix_ms: 0,
            metrics: [
                ("a.latency_us".to_string(), latency),
                ("a.speedup".to_string(), speedup),
            ]
            .into_iter()
            .collect(),
        };
        let history = vec![
            entry(0, 900.0, 4.0),
            entry(1, 400.0, 9.0),
            entry(2, 600.0, 7.0),
        ];
        let current: BTreeMap<String, f64> = [
            ("a.latency_us".to_string(), 500.0),
            ("a.speedup".to_string(), 8.0),
        ]
        .into_iter()
        .collect();
        let report = TrendReport::build(&current, &history, DEFAULT_TOLERANCE);
        let by_name = |name: &str| report.rows.iter().find(|r| r.metric == name).unwrap();
        assert_eq!(by_name("a.latency_us").best, Some(400.0));
        assert_eq!(by_name("a.speedup").best, Some(9.0));
        assert!(
            report.regressions().is_empty(),
            "vs last (600, 7) both improved"
        );
    }

    #[test]
    fn text_and_json_renders_carry_the_verdict() {
        let history = vec![HistoryEntry {
            seq: 0,
            recorded_unix_ms: 0,
            metrics: [("a.latency_us".to_string(), 100.0)].into_iter().collect(),
        }];
        let current: BTreeMap<String, f64> = [("a.latency_us".to_string(), 1_000.0)]
            .into_iter()
            .collect();
        let report = TrendReport::build(&current, &history, DEFAULT_TOLERANCE);
        let files = vec!["BENCH_a.json".to_string()];
        let text = report.render_text(&files);
        assert!(text.contains("REGRESSION a.latency_us"), "{text}");
        let json = report.to_json(&files);
        assert_eq!(json.get("regressions").and_then(Json::as_u64), Some(1));
        let rows = json.get("metrics").and_then(Json::as_array).unwrap();
        assert_eq!(rows[0].get("regressed").and_then(Json::as_bool), Some(true));
    }

    #[test]
    fn empty_history_reports_without_gating() {
        let current: BTreeMap<String, f64> =
            [("a.latency_us".to_string(), 100.0)].into_iter().collect();
        let report = TrendReport::build(&current, &[], DEFAULT_TOLERANCE);
        assert!(report.regressions().is_empty());
        assert_eq!(report.rows[0].last, None);
    }
}
