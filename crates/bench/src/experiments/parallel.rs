//! E6 — Lemmas 10–11: parallel code has system latency exactly `q`
//! and individual latency exactly `n·q`, by lifting `M_I` onto `M_S`.

use pwf_core::chain_analysis::{analyze_exhaustive, ChainFamily};
use pwf_core::{AlgorithmSpec, SimExperiment};
use pwf_runner::{fmt, ExpConfig, ExpResult, FnExperiment, ReportBuilder};

/// The registered experiment.
pub const EXP: FnExperiment = FnExperiment {
    name: "exp_parallel",
    description: "Lemmas 10-11: parallel code exact chain latency q and n*q vs simulation",
    sizes: "n=2..4 q=2..6",
    deterministic: true,
    body: fill,
};

fn fill(cfg: &ExpConfig, out: &mut ReportBuilder) -> ExpResult {
    out.note("E6 / Lemma 11: parallel code, exact chain vs simulation.");
    out.header(&["n", "q", "W exact", "W sim", "W_i exact", "n*q", "flow res"]);
    for (tag, (n, q)) in [(2usize, 3usize), (3, 3), (4, 2), (2, 6), (4, 4)]
        .into_iter()
        .enumerate()
    {
        let r = analyze_exhaustive(ChainFamily::Parallel { q }, n)?;
        let sim = SimExperiment::new(AlgorithmSpec::Parallel { q }, n, cfg.scaled(400_000))
            .seed(cfg.sub_seed(tag as u64))
            .run()?;
        out.row(&[
            n.to_string(),
            q.to_string(),
            fmt(r.system_latency),
            fmt(sim.system_latency.unwrap()),
            fmt(r.individual_latency),
            (n * q).to_string(),
            fmt(r.lifting_flow_residual),
        ]);
    }
    out.note("");
    out.note("W = q and W_i = n*q exactly (the individual chain's stationary");
    out.note("distribution is uniform); simulation converges to the same values.");
    Ok(())
}
