//! E18 (extension) — how long is a "long execution"? Mixing times of
//! the paper's system chains: the number of steps after which the
//! stationary predictions (Theorems 4–5) actually govern behaviour.
//!
//! Runs on the sparse engine (`O(nnz)` per distribution step instead
//! of a dense matrix–vector product), with the dense path cross-checked
//! at the smallest size; the per-size measurements are independent and
//! fan out on `cfg.jobs` threads.

use pwf_algorithms::chains::{fai, scu};
use pwf_markov::mixing::{lazy_mixing_time, sparse_lazy_mixing_time};
use pwf_markov::solve::PowerOptions;
use pwf_markov::sparse::SparseChain;
use pwf_runner::{fmt, parallel_map, ExpConfig, ExpResult, FnExperiment, ReportBuilder};
use std::hash::Hash;

/// The registered experiment.
pub const EXP: FnExperiment = FnExperiment {
    name: "exp_mixing",
    description: "Mixing times of the SCU and FAI system chains ('long executions' quantified)",
    sizes: "n=4..1024",
    deterministic: true,
    body: fill,
};

/// Mixing time of the lazy sparse chain from the worst of two starts,
/// to TV distance 0.01.
fn sparse_t_mix<S: Clone + Eq + Hash>(
    chain: &SparseChain<S>,
    starts: &[usize],
) -> Result<usize, String> {
    let solve = chain
        .stationary_with(&PowerOptions::new(500_000, 1e-12), None)
        .map_err(|e| e.to_string())?;
    let report = sparse_lazy_mixing_time(chain, &solve.pi, starts, 0.01, 200_000);
    report.mixing_time.ok_or_else(|| "budget generous".into())
}

fn fill(cfg: &ExpConfig, out: &mut ReportBuilder) -> ExpResult {
    out.note("E18 / lazy mixing times to TV distance 0.01, worst over two starts");
    out.note("(all-fresh and post-success states).");

    out.note("SCU(0,1) system chain:");
    out.header(&["n", "states", "t_mix", "t_mix/sqrt(n)"]);
    let scu_sizes = [4usize, 8, 16, 32, 64, 128];
    let scu_rows = parallel_map(cfg.jobs, &scu_sizes, |&n| -> Result<_, String> {
        let chain = scu::sparse_system_chain(n).map_err(|e| e.to_string())?;
        let fresh = chain.state_index(&(n, 0)).expect("initial state");
        let post = chain.state_index(&(1, n - 1)).expect("post-success state");
        let t = sparse_t_mix(&chain, &[fresh, post])?;
        Ok((n, chain.len(), t))
    });
    for row in scu_rows {
        let (n, states, t) = row?;
        out.row(&[
            n.to_string(),
            states.to_string(),
            t.to_string(),
            fmt(t as f64 / (n as f64).sqrt()),
        ]);
    }

    out.note("");
    out.note("fetch-and-increment global chain:");
    out.header(&["n", "states", "t_mix", "t_mix/sqrt(n)"]);
    let fai_sizes = [4usize, 16, 64, 256, 1024];
    let fai_rows = parallel_map(cfg.jobs, &fai_sizes, |&n| -> Result<_, String> {
        let chain = fai::sparse_global_chain(n).map_err(|e| e.to_string())?;
        let worst = chain.state_index(&n).expect("state v_n");
        let win = chain.state_index(&1).expect("state v_1");
        let t = sparse_t_mix(&chain, &[worst, win])?;
        Ok((n, chain.len(), t))
    });
    for row in fai_rows {
        let (n, states, t) = row?;
        out.row(&[
            n.to_string(),
            states.to_string(),
            t.to_string(),
            fmt(t as f64 / (n as f64).sqrt()),
        ]);
    }

    // Dense cross-check at the smallest sizes: the sparse lazy walk
    // must reproduce the dense oracle's t_mix exactly.
    let scu_dense = scu::system_chain(4)?;
    let starts = [
        scu_dense.state_index(&(4, 0)).expect("initial state"),
        scu_dense.state_index(&(1, 3)).expect("post-success state"),
    ];
    let dense_t = lazy_mixing_time(&scu_dense, &starts, 0.01, 200_000)?
        .mixing_time
        .expect("budget generous");
    let sparse_t = sparse_t_mix(&scu_dense.to_sparse(), &starts)?;
    if dense_t != sparse_t {
        return Err(format!("dense t_mix {dense_t} != sparse t_mix {sparse_t} at n = 4").into());
    }
    out.note("");
    out.note(&format!(
        "dense/sparse cross-check at n = 4: both give t_mix = {dense_t}."
    ));

    out.note("");
    out.note("measured scaling: t_mix ~ Theta(n) steps for the SCU system chain and");
    out.note("Theta(sqrt(n)) steps for the FAI global chain. Divided by the per-");
    out.note("operation cost W = Theta(sqrt(n)), both mix within O(sqrt(n)) and O(1)");
    out.note("*completed operations* respectively: 'long executions' in the paper's");
    out.note("sense begin after a handful of operations, which is why stationary");
    out.note("predictions match even short simulation runs.");
    Ok(())
}
