//! `exp_markov_bench` — the perf gate for the sparse Markov engine:
//! times the dense direct-solve SCU analysis against the sparse
//! pipeline at the sizes both can run, sweeps the sparse engine to
//! `n = 100`, and records the trajectory in `BENCH_markov.json` so
//! speedups are tracked across PRs.
//!
//! Wall-clock measurement is hardware-dependent, so the experiment
//! registers `deterministic: false` and `pwf check` skips it; the
//! agreement check (dense and sparse `W` within `1e-6`), the
//! crossover gate (sparse pipeline strictly faster at the dense
//! wall), the kernel-residual gate (`≤ 1e-12` at `n ≥ 100`) and the
//! positive-throughput gate are what make it a test rather than a
//! report.
//!
//! Every per-size record carries the same schema — `n`, `sparse_ms`,
//! `solver_iterations`, `kernel_residual`, `states_per_sec`
//! (dense-comparison rows add `dense_ms`, `speedup`, `w_rel_err`) —
//! so `pwf report`'s dotted-path flattening tracks every metric at
//! every size.

use std::path::Path;
use std::time::Instant;

use pwf_algorithms::chains::scu;
use pwf_core::chain_analysis::{analyze_exhaustive, ChainFamily};
use pwf_markov::solve::{PowerOptions, SolveStats};
use pwf_obs::json::Json;
use pwf_runner::{fmt, ExpConfig, ExpResult, FnExperiment, ReportBuilder};

/// The registered experiment.
pub const EXP: FnExperiment = FnExperiment {
    name: "exp_markov_bench",
    description: "Perf gate: dense vs sparse SCU analysis wall time, BENCH_markov.json trajectory",
    sizes: "n=5..100",
    deterministic: false,
    body: fill,
};

/// Largest `n` the dense oracle handles (`3⁷ − 1 = 2186` individual
/// states); the full profile times both pipelines up to here, and the
/// crossover gate is applied at the largest dense size run.
const DENSE_WALL: usize = 7;

/// Solver throughput: CSR row applications per second during the
/// stationary solve (states × iterations / solve wall time).
fn states_per_sec(lifting: &scu::SymmetryLiftingReport, solver: &SolveStats) -> f64 {
    lifting.classes as f64 * solver.iterations as f64 / (solver.wall_ms / 1e3)
}

/// One uniform-schema record; `dense` adds the comparison fields.
fn size_record(
    n: usize,
    sparse_ms: f64,
    (lifting, solver): (&scu::SymmetryLiftingReport, &SolveStats),
    dense: Option<(f64, f64, f64)>,
) -> Json {
    let mut fields = vec![("n".into(), Json::Int(n as i128))];
    if let Some((dense_ms, speedup, w_rel_err)) = dense {
        fields.push(("dense_ms".into(), Json::Num(dense_ms)));
        fields.push(("speedup".into(), Json::Num(speedup)));
        fields.push(("w_rel_err".into(), Json::Num(w_rel_err)));
    }
    fields.push(("sparse_ms".into(), Json::Num(sparse_ms)));
    fields.push((
        "solver_iterations".into(),
        Json::Int(solver.iterations as i128),
    ));
    fields.push(("kernel_residual".into(), Json::Num(lifting.kernel_residual)));
    fields.push((
        "states_per_sec".into(),
        Json::Num(states_per_sec(lifting, solver)),
    ));
    Json::Obj(fields)
}

fn fill(cfg: &ExpConfig, out: &mut ReportBuilder) -> ExpResult {
    out.note("markov engine benchmark: full SCU analysis (chains + lifting + W),");
    out.note("dense direct solve vs sparse CSR pipeline.");
    out.header(&[
        "n",
        "dense ms",
        "sparse ms",
        "speedup",
        "states/s",
        "W rel err",
    ]);

    let opts = PowerOptions::new(500_000, 1e-12);
    let metrics = cfg.obs.metrics().map(|m| &**m);
    let dense_sizes: &[usize] = if cfg.fast {
        &[5, 6]
    } else {
        &[5, 6, DENSE_WALL]
    };
    // n = 100 runs in every profile: it feeds the CI gates (kernel
    // residual ≤ 1e-12 past the n ≥ 100 bar, states/sec > 0).
    let sparse_only: &[usize] = if cfg.fast {
        &[12, 100]
    } else {
        &[12, 20, 28, 100]
    };

    let mut entries: Vec<Json> = Vec::new();
    let mut wall_speedup = None;
    for &n in dense_sizes {
        let start = Instant::now();
        let dense = analyze_exhaustive(ChainFamily::Scu01, n)?;
        let dense_ms = start.elapsed().as_secs_f64() * 1e3;

        let start = Instant::now();
        let lifting = scu::verify_lifting_by_symmetry(n, 2, cfg.sub_seed(n as u64))?;
        let (w, solver) = scu::large_system_latency_with(n, &opts, metrics)?;
        let sparse_ms = start.elapsed().as_secs_f64() * 1e3;

        let rel = (dense.system_latency - w).abs() / dense.system_latency;
        if rel > 1e-6 {
            return Err(format!("dense/sparse W disagree at n = {n} (rel {rel:e})").into());
        }
        let speedup = dense_ms / sparse_ms;
        wall_speedup = Some((n, speedup));
        let record = size_record(
            n,
            sparse_ms,
            (&lifting, &solver),
            Some((dense_ms, speedup, rel)),
        );
        out.row(&[
            n.to_string(),
            fmt(dense_ms),
            fmt(sparse_ms),
            fmt(speedup),
            fmt(states_per_sec(&lifting, &solver)),
            fmt(rel),
        ]);
        entries.push(record);
    }

    let mut large_report: Option<scu::SymmetryLiftingReport> = None;
    for &n in sparse_only {
        let start = Instant::now();
        let lifting = scu::verify_lifting_by_symmetry(n, 2, cfg.sub_seed(n as u64))?;
        let (_, solver) = scu::large_system_latency_with(n, &opts, metrics)?;
        let sparse_ms = start.elapsed().as_secs_f64() * 1e3;
        if n >= 100 && lifting.kernel_residual > 1e-12 {
            return Err(format!(
                "lifting not verified at n = {n}: kernel residual {} > 1e-12",
                lifting.kernel_residual
            )
            .into());
        }
        let throughput = states_per_sec(&lifting, &solver);
        // NaN (zero wall time) must fail too, hence the explicit form.
        let throughput_ok = throughput.is_finite() && throughput > 0.0;
        if !throughput_ok {
            return Err(format!("states/sec not positive at n = {n}").into());
        }
        out.row(&[
            n.to_string(),
            "-".into(),
            fmt(sparse_ms),
            "-".into(),
            fmt(throughput),
            "-".into(),
        ]);
        entries.push(size_record(n, sparse_ms, (&lifting, &solver), None));
        if n >= 100 {
            large_report = Some(lifting);
        }
    }
    let large_report = large_report.expect("n = 100 runs in every profile");

    let mut fields = vec![
        ("benchmark".into(), Json::Str("pwf-markov".into())),
        ("dense_wall_n".into(), Json::Int(DENSE_WALL as i128)),
        ("profile".into(), Json::Str(cfg.profile().into())),
    ];
    if let Some((n, speedup)) = wall_speedup {
        fields.push(("largest_dense_n".into(), Json::Int(n as i128)));
        fields.push(("speedup_at_dense_wall".into(), Json::Num(speedup)));
    }
    fields.push((
        "lifting_verified_n".into(),
        Json::Int(large_report.n as i128),
    ));
    fields.push((
        "lifting_kernel_residual".into(),
        Json::Num(large_report.kernel_residual),
    ));
    fields.push(("sizes".into(), Json::Arr(entries)));
    std::fs::write(Path::new("BENCH_markov.json"), Json::Obj(fields).render())
        .map_err(|e| format!("writing BENCH_markov.json: {e}"))?;
    out.note("");
    out.note("trajectory written to BENCH_markov.json.");
    out.note(&format!(
        "lifting verified by symmetry at n = {} (kernel residual {}, {} classes).",
        large_report.n,
        fmt(large_report.kernel_residual),
        large_report.classes
    ));

    if let Some((n, speedup)) = wall_speedup {
        // The crossover gate: at the largest dense size run, the
        // iterative sparse pipeline must beat O(states^3)
        // elimination outright.
        if speedup <= 1.0 {
            return Err(format!(
                "sparse pipeline is not faster than dense at n = {n} (speedup {speedup:.2}x)"
            )
            .into());
        }
        out.note(&format!(
            "speedup at the largest dense size (n = {n}): {speedup:.0}x"
        ));
    }
    Ok(())
}
