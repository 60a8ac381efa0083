//! E7 — Section 7 (Lemmas 12–14, Corollary 3): the fetch-and-increment
//! counter's chains, the `Z(i)` recurrence, Ramanujan asymptotics, and
//! simulation cross-check.

use pwf_algorithms::chains::fai;
use pwf_core::chain_analysis::{analyze_exhaustive, ChainFamily};
use pwf_core::{AlgorithmSpec, SimExperiment};
use pwf_markov::solve::GaussSeidelOptions;
use pwf_runner::{fmt, ExpConfig, ExpResult, FnExperiment, ReportBuilder};
use pwf_theory::ramanujan::{sqrt_pi_n_over_2, z_worst};

/// The registered experiment.
pub const EXP: FnExperiment = FnExperiment {
    name: "exp_fai_chain",
    description: "Lemmas 12-14: fetch-and-increment chains, Z recurrence, Ramanujan asymptotics",
    sizes: "n=2..4096",
    deterministic: true,
    body: fill,
};

fn fill(cfg: &ExpConfig, out: &mut ReportBuilder) -> ExpResult {
    out.note("E7 / Lemmas 12-14: fetch-and-increment via augmented CAS.");
    out.note("small n: individual chain (2^n - 1 states) + lifting + simulation");
    out.header(&["n", "W chain", "W sim", "Wi/(nW)", "flow res"]);
    for n in 2..=8 {
        let r = analyze_exhaustive(ChainFamily::FetchAndInc, n)?;
        let sim = SimExperiment::new(AlgorithmSpec::FetchAndInc, n, cfg.scaled(400_000))
            .seed(cfg.sub_seed(n as u64))
            .run()?;
        out.row(&[
            n.to_string(),
            fmt(r.system_latency),
            fmt(sim.system_latency.unwrap()),
            fmt(r.fairness_identity()),
            fmt(r.lifting_flow_residual),
        ]);
    }

    out.note("");
    out.note("large n: global chain only (n states), Z recurrence, asymptotics.");
    out.note("'W GS' re-derives W as the return time of the win state v_1");
    out.note("(Gauss-Seidel hitting times on the sparse global chain):");
    out.header(&[
        "n",
        "W chain",
        "W GS",
        "2*sqrt(n)",
        "Z(n-1)",
        "sqrt(pi n/2)",
    ]);
    let gs = GaussSeidelOptions::default();
    for n in [16usize, 64, 256, 1024, 4096] {
        let w = fai::exact_system_latency(n)?;
        let w_gs = fai::sparse_return_time_of_win_state(n, &gs, None)?;
        if (w - w_gs).abs() / w > 1e-6 {
            return Err(
                format!("chain W {w} != Gauss-Seidel return time {w_gs} at n = {n}").into(),
            );
        }
        out.row(&[
            n.to_string(),
            fmt(w),
            fmt(w_gs),
            fmt(2.0 * (n as f64).sqrt()),
            fmt(z_worst(n)),
            fmt(sqrt_pi_n_over_2(n)),
        ]);
    }
    out.note("");
    out.note("W stays below 2*sqrt(n) (Lemma 12); Z(n-1) -> sqrt(pi n/2) (Ramanujan Q,");
    out.note("Flajolet et al.); individual latency is n*W (Lemma 14, Corollary 3).");
    Ok(())
}
