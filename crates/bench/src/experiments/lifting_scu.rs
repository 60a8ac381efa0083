//! E5 — Lemmas 4–7: the system chain is a lifting of the individual
//! chain for `SCU(0, 1)`, and the fairness identity `W_i = n·W`.
//!
//! Two regimes, cross-checked where they overlap. Up to `n = 7` the
//! dense oracle enumerates all `3ⁿ − 1` individual states and verifies
//! the lifting exhaustively; past that the sparse engine takes over —
//! symmetry-reduced kernel verification against the stored system
//! chain plus the adaptive iterative solver — and the sweep continues
//! to `n = 100` (≈ 5·10⁴⁷ virtual individual states, none of them
//! enumerated).
//!
//! Parallelism is *orbit-class* fan-out: every size's symmetry classes
//! are split into fixed-size [`scu::orbit_chunks`] and the flat chunk
//! list across all sizes runs on `cfg.jobs` threads. Per-class RNG
//! seeding makes each chunk's report independent of the chunking, and
//! `parallel_map` returns input order, so the merged per-size reports
//! — and hence this report — are byte-identical at any `--jobs`.

use pwf_algorithms::chains::scu;
use pwf_core::chain_analysis::{analyze_exhaustive, ChainFamily};
use pwf_markov::solve::PowerOptions;
use pwf_runner::{fmt, parallel_map, ExpConfig, ExpResult, FnExperiment, ReportBuilder};

/// The registered experiment.
pub const EXP: FnExperiment = FnExperiment {
    name: "exp_lifting_scu",
    description: "Lemmas 4-7: SCU(0,1) lifting verification and exact latencies",
    sizes: "n=2..100",
    deterministic: true,
    body: fill,
};

/// Largest `n` the dense oracle still enumerates (`3⁷ − 1` states).
const DENSE_MAX: usize = 7;

/// Sampled permutations per symmetry class, on top of the canonical
/// representative.
const SAMPLES_PER_CLASS: usize = 2;

/// Symmetry classes per fan-out chunk — a pure constant, so the chunk
/// partition depends only on `n` and merged reports are byte-identical
/// at any `--jobs`.
const CHUNK_CLASSES: usize = 64;

fn fill(cfg: &ExpConfig, out: &mut ReportBuilder) -> ExpResult {
    out.note("E5 / Lemmas 4-7: lifting verification and exact latencies, SCU(0,1).");

    let sizes: Vec<usize> = [2usize, 3, 4, 5, 6, 7, 8, 10, 12, 16, 20, 24, 48, 100]
        .into_iter()
        .filter(|&n| !cfg.fast || n <= 12)
        .collect();
    let opts = PowerOptions::new(500_000, 1e-12);

    // Flat orbit-chunk work list across all sizes: good load balance
    // (n = 100 alone is 81 chunks) and a deterministic merge. Each
    // size's system chain is built once and shared by its chunks.
    let chains = sizes
        .iter()
        .map(|&n| scu::sparse_system_chain(n))
        .collect::<Result<Vec<_>, _>>()?;
    let chunks: Vec<(usize, scu::OrbitChunk)> = sizes
        .iter()
        .enumerate()
        .flat_map(|(i, &n)| {
            scu::orbit_chunks(n, CHUNK_CLASSES)
                .into_iter()
                .map(move |c| (i, c))
        })
        .collect();
    let chunk_reports = parallel_map(cfg.jobs, &chunks, |(i, chunk)| {
        scu::verify_lifting_chunk(
            &chains[*i],
            chunk,
            SAMPLES_PER_CLASS,
            cfg.sub_seed(chunk.n as u64),
        )
    });

    // Merge per size, in input order, then solve the system chain.
    let mut results = Vec::with_capacity(sizes.len());
    let mut it = chunk_reports.into_iter();
    for &n in &sizes {
        let k = scu::orbit_chunks(n, CHUNK_CLASSES).len();
        let mut merged = it.next().expect("one report per chunk");
        for _ in 1..k {
            merged = merged.merge(&it.next().expect("one report per chunk"));
        }
        let large = scu::large_system_latency_with(n, &opts, None);
        let dense = (n <= DENSE_MAX).then(|| analyze_exhaustive(ChainFamily::Scu01, n));
        results.push((n, merged, large, dense));
    }

    out.note("");
    out.note("dense oracle vs sparse engine (both run up to the 3^n-1 wall):");
    out.header(&["n", "flow res", "pi res", "W dense", "W sparse", "rel err"]);
    for (n, _, large, dense) in &results {
        let Some(dense) = dense else { continue };
        let dense = dense.as_ref().map_err(|e| e.to_string())?;
        let (w, _) = large.as_ref().map_err(|e| e.to_string())?;
        let rel = (dense.system_latency - w).abs() / dense.system_latency;
        if rel > 1e-6 {
            return Err(format!(
                "dense/sparse disagreement at n = {n}: {} vs {w} (rel {rel:e})",
                dense.system_latency
            )
            .into());
        }
        out.row(&[
            n.to_string(),
            fmt(dense.lifting_flow_residual),
            fmt(dense.lifting_stationary_residual),
            fmt(dense.system_latency),
            fmt(*w),
            fmt(rel),
        ]);
    }

    out.note("");
    out.note("sparse sweep: symmetry-reduced kernel verification + iterative");
    out.note("solver, orbit chunks fanned out on --jobs threads (one canonical");
    out.note("representative per orbit plus sampled permutations):");
    out.header(&[
        "n",
        "classes",
        "chunks",
        "ind states",
        "rows checked",
        "kernel res",
        "iters",
        "W",
        "W/sqrt(n)",
    ]);
    for (n, lifting, large, _) in &results {
        let (w, solver) = large.as_ref().map_err(|e| e.to_string())?;
        let gate = if *n >= 100 { 1e-12 } else { 1e-9 };
        if lifting.kernel_residual > gate {
            return Err(format!(
                "kernel lifting condition violated at n = {n}: residual {}",
                lifting.kernel_residual
            )
            .into());
        }
        out.row(&[
            n.to_string(),
            lifting.classes.to_string(),
            scu::orbit_chunks(*n, CHUNK_CLASSES).len().to_string(),
            fmt(3f64.powi(*n as i32) - 1.0),
            lifting.states_checked.to_string(),
            fmt(lifting.kernel_residual),
            solver.iterations.to_string(),
            fmt(*w),
            fmt(w / (*n as f64).sqrt()),
        ]);
    }

    out.note("");
    out.note("the kernel condition sum_{y: f(y)=j} P'(x,y) = P(f(x),j) is invariant");
    out.note("under process permutation, so checking one representative per orbit");
    out.note("(plus random permutations as a guard) verifies the full 3^n-1 state");
    out.note("lifting without enumerating it. Collapsed rows are compared with the");
    out.note("stored system chain, so Lemma 5 is verified at n = 100 (kernel residual");
    out.note("at float rounding, gated at 1e-12) without the individual chain, and with it");
    out.note("the fairness identity W_i = n*W (Lemma 7).");
    Ok(())
}
