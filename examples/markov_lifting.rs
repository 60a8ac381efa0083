//! The paper's key analytical device, made concrete: the system chain
//! is a *lifting* of the individual chain (Figure 1 / Lemma 5).
//!
//! For two processes we print both chains of the scan-validate
//! pattern, the lifting map, and the numerically verified flow
//! homomorphism and stationary collapse; then the same for
//! fetch-and-increment and parallel code.
//!
//! Run with: `cargo run --release --example markov_lifting`

use practically_wait_free::algorithms::chains::scu::{
    individual_chain, lift, system_chain, PState,
};
use practically_wait_free::core::chain_analysis::{analyze_exhaustive, ChainFamily};
use practically_wait_free::markov::stationary::stationary_distribution;

fn pstate(p: &PState) -> &'static str {
    match p {
        PState::Read => "Read",
        PState::CCas => "CCAS",
        PState::OldCas => "OldCAS",
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 2;
    let ind = individual_chain(n)?;
    let sys = system_chain(n)?;

    println!("Figure 1 — the two chains for n = 2 processes.\n");
    println!(
        "Individual chain ({} states): stationary π and lifting image",
        ind.len()
    );
    let pi = stationary_distribution(&ind)?;
    for (i, s) in ind.states().iter().enumerate() {
        let labels: Vec<&str> = s.iter().map(pstate).collect();
        println!(
            "  ({:<6} {:<6}) π = {:.4}  → system state {:?}",
            labels[0],
            labels[1],
            pi[i],
            lift(s)
        );
    }

    println!(
        "\nSystem chain ({} states): transition probabilities",
        sys.len()
    );
    let pi_sys = stationary_distribution(&sys)?;
    for (i, &(a, b)) in sys.states().iter().enumerate() {
        let row: Vec<String> = sys
            .states()
            .iter()
            .enumerate()
            .filter(|&(j, _)| sys.prob(i, j) > 0.0)
            .map(|(j, &(a2, b2))| format!("({a2},{b2}) w.p. {:.2}", sys.prob(i, j)))
            .collect();
        println!("  ({a},{b}) π = {:.4}  →  {}", pi_sys[i], row.join(", "));
    }

    println!("\nLifting verification (flow homomorphism + Lemma 1 collapse):");
    for (family, label) in [
        (ChainFamily::Scu01, "SCU(0,1), n = 5"),
        (ChainFamily::FetchAndInc, "fetch-and-inc, n = 6"),
        (ChainFamily::Parallel { q: 3 }, "parallel code q = 3, n = 4"),
    ] {
        let n = match family {
            ChainFamily::Scu01 => 5,
            ChainFamily::FetchAndInc => 6,
            ChainFamily::Parallel { .. } => 4,
        };
        let r = analyze_exhaustive(family, n)?;
        println!(
            "  {label:<28} {:>6} → {:>3} states   flow residual {:.2e}   π residual {:.2e}   W_i/(nW) = {:.6}",
            r.individual_states,
            r.system_states,
            r.lifting_flow_residual,
            r.lifting_stationary_residual,
            r.fairness_identity()
        );
    }
    println!("\nAll residuals at numerical zero: the collapsed big chain IS the small");
    println!("chain, so system-level latency analysis transfers to every process.");
    Ok(())
}
