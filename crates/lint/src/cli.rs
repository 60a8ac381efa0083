//! The `pwf lint` front end.

use std::path::PathBuf;

use crate::passes::{Pass, RULE_TABLE};
use crate::report::lint_workspace;

const USAGE: &str = "\
pwf lint — workspace-wide concurrency static analysis

Scans every crate under crates/ (comment/string/doc-attr aware) with
four passes — atomics orderings, progress (unbounded spin/retry),
condvar discipline, unsafe inventory — and applies each crate's
fingerprinted lint.allow file. Deny by default: violations, stale
entries, and fingerprint mismatches all fail.

USAGE:
    pwf lint [OPTIONS]
        --root DIR      workspace root to scan (default: .)
        --pass NAME     run one pass (repeatable; default: all four of
                        orderings|progress|condvar|unsafe)
        --crate NAME    restrict to the named crate(s) (repeatable)
        --json          machine-readable report on stdout
        -v, --verbose   per-crate counters and summary metrics
        --list-rules    print the rule table and exit
";

struct LintArgs {
    root: PathBuf,
    passes: Vec<Pass>,
    crates: Vec<String>,
    json: bool,
    verbose: bool,
    list_rules: bool,
}

fn parse_lint_args(argv: Vec<String>) -> Result<LintArgs, String> {
    let mut args = LintArgs {
        root: PathBuf::from("."),
        passes: Vec::new(),
        crates: Vec::new(),
        json: false,
        verbose: false,
        list_rules: false,
    };
    let mut it = argv.into_iter();
    while let Some(arg) = it.next() {
        let mut value_of = |flag: &str| it.next().ok_or_else(|| format!("{flag} needs a value"));
        match arg.as_str() {
            "--root" => args.root = PathBuf::from(value_of("--root")?),
            "--pass" => {
                let name = value_of("--pass")?;
                let pass = Pass::from_name(&name).ok_or_else(|| {
                    format!("unknown pass {name:?} (orderings|progress|condvar|unsafe)")
                })?;
                if !args.passes.contains(&pass) {
                    args.passes.push(pass);
                }
            }
            "--crate" => args.crates.push(value_of("--crate")?),
            "--json" => args.json = true,
            "-v" | "--verbose" => args.verbose = true,
            "--list-rules" => args.list_rules = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.passes.is_empty() {
        args.passes = Pass::ALL.to_vec();
    }
    args.passes.sort();
    Ok(args)
}

/// Entry point for `pwf lint`. Returns the process exit code: 0 when
/// the tree is clean (every finding fixed or fingerprint-allowed), 1
/// on violations/stale/mismatch, 2 on usage errors.
pub fn main(argv: Vec<String>) -> i32 {
    let args = match parse_lint_args(argv) {
        Ok(args) => args,
        Err(msg) => {
            if msg.is_empty() {
                println!("{USAGE}");
                return 0;
            }
            eprintln!("error: {msg}\n\n{USAGE}");
            return 2;
        }
    };
    if args.list_rules {
        for (rule, pass, what) in RULE_TABLE {
            println!("{rule:<22} {pass:<10} {what}");
        }
        return 0;
    }
    let report = match lint_workspace(&args.root, &args.passes, &args.crates) {
        Ok(report) => report,
        Err(err) => {
            eprintln!("error: {err}");
            return 2;
        }
    };
    if args.json {
        print!("{}", report.render_json());
    } else {
        print!("{}", report.render_text(args.verbose));
    }
    if args.verbose && !args.json {
        print_metrics(&report);
    }
    i32::from(!report.clean())
}

/// Exports the summary counters through the pwf-obs metrics registry
/// and prints its rendering — so `pwf lint -v` shows the same
/// counters any metrics consumer would scrape.
fn print_metrics(report: &crate::report::WorkspaceReport) {
    let metrics = pwf_obs::Metrics::new();
    crate::export_metrics(report, &metrics);
    for line in metrics.snapshot().render() {
        println!("{line}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_recognises_flags() {
        let args = parse_lint_args(argv(&[
            "--root",
            "/tmp/ws",
            "--pass",
            "orderings",
            "--pass",
            "unsafe",
            "--crate",
            "hardware",
            "--json",
            "-v",
        ]))
        .unwrap();
        assert_eq!(args.root, PathBuf::from("/tmp/ws"));
        assert_eq!(args.passes, vec![Pass::Orderings, Pass::Unsafety]);
        assert_eq!(args.crates, vec!["hardware"]);
        assert!(args.json && args.verbose);
    }

    #[test]
    fn default_is_all_passes() {
        let args = parse_lint_args(argv(&[])).unwrap();
        assert_eq!(args.passes, Pass::ALL.to_vec());
    }

    #[test]
    fn unknown_flags_and_passes_are_usage_errors() {
        assert!(parse_lint_args(argv(&["--bogus"])).is_err());
        assert!(parse_lint_args(argv(&["--pass", "vibes"])).is_err());
        assert!(parse_lint_args(argv(&["--pass"])).is_err());
        assert_eq!(main(argv(&["--bogus"])), 2);
    }

    #[test]
    fn list_rules_exits_cleanly() {
        assert_eq!(main(argv(&["--list-rules"])), 0);
    }
}
