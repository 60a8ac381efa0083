//! `pwf` — the unified experiment orchestrator CLI.
//!
//! `pwf list` shows the registered experiments, `pwf run --all
//! --jobs N` regenerates `results/` in parallel, and `pwf check`
//! diffs fresh deterministic runs against the recorded golden files.
//! See `pwf help` for the full option set.

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let registry = pwf_bench::experiments::registry();
    std::process::exit(pwf_runner::cli::main(registry, argv));
}
