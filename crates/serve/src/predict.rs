//! The prediction request path: query parsing, canonical cache keys,
//! and the layer dispatch into the repo's theory / chain / simulator
//! engines.
//!
//! A request names an algorithm family, its parameters, a process
//! count, and which layer of the reproduction should answer:
//!
//! * `layer=theory` — closed forms (Theorems 4–5, Lemmas 11–12):
//!   microseconds of compute;
//! * `layer=chain` — Markov-chain analysis on the CSR chains
//!   (`pwf-markov` through `pwf-core`): a solve-free lifting check and
//!   one system-chain solve: sub-millisecond to seconds;
//! * `layer=sim` — a seeded discrete-time simulation (`pwf-sim`):
//!   deterministic for a given `(steps, seed)`, so it caches and
//!   coalesces like any pure function.
//!
//! Every response body is a pure function of the canonical key — no
//! timestamps, no per-request state — which is what makes the LRU
//! cache and the drift gate ("server output byte-identical to direct
//! invocation") sound.

use pwf_core::chain_analysis::{analyze, ChainFamily};
use pwf_core::{AlgorithmSpec, SimExperiment};
use pwf_obs::json::Json;
use pwf_theory::bounds::{fai_system_latency_bound, ScuPrediction};

/// Hard cap on `n` (largest value any layer accepts).
pub const MAX_N: usize = 4096;

/// Hard cap on simulated steps per request.
pub const MAX_STEPS: u64 = 10_000_000;

/// Largest `n` the chain layer accepts for `SCU(0,1)`: a compute-time
/// cap, not a builder limit.
pub const MAX_CHAIN_SCU_N: usize = 64;

/// Default simulated steps when the query does not say.
pub const DEFAULT_STEPS: u64 = 200_000;

/// Default simulation seed when the query does not say.
pub const DEFAULT_SEED: u64 = 0x5EED;

/// Which algorithm family a request asks about.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Alg {
    /// `SCU(q, s)` (Algorithm 2).
    Scu,
    /// Fetch-and-increment via augmented CAS (Algorithm 5).
    Fai,
    /// Parallel code with `q`-step calls (Algorithm 4).
    Parallel,
}

impl Alg {
    /// Stable query-string spelling.
    pub fn name(self) -> &'static str {
        match self {
            Alg::Scu => "scu",
            Alg::Fai => "fai",
            Alg::Parallel => "parallel",
        }
    }
}

/// Which analysis layer answers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Layer {
    /// Closed-form predictions.
    Theory,
    /// Markov-chain analysis.
    Chain,
    /// Seeded simulation.
    Sim,
}

impl Layer {
    /// Stable query-string spelling.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Theory => "theory",
            Layer::Chain => "chain",
            Layer::Sim => "sim",
        }
    }
}

/// A validated, canonicalized prediction request — the cache and
/// coalescing key.
///
/// Fields irrelevant to the `(alg, layer)` combination are forced to
/// zero during validation so spelling variants of the same question
/// (`seed=7` on a theory query, say) cannot fragment the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PredictKey {
    /// Algorithm family.
    pub alg: Alg,
    /// Preamble length `q` (scu, parallel).
    pub q: usize,
    /// Scan length `s` (scu only).
    pub s: usize,
    /// Process count.
    pub n: usize,
    /// Answering layer.
    pub layer: Layer,
    /// Simulated steps (sim only; zero elsewhere).
    pub steps: u64,
    /// Simulation seed (sim only; zero elsewhere).
    pub seed: u64,
}

impl PredictKey {
    /// The canonical string form — what the cache, the coalescer, and
    /// the metrics key on.
    pub fn canonical(&self) -> String {
        format!(
            "alg={}&q={}&s={}&n={}&layer={}&steps={}&seed={}",
            self.alg.name(),
            self.q,
            self.s,
            self.n,
            self.layer.name(),
            self.steps,
            self.seed
        )
    }
}

impl std::fmt::Display for PredictKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.canonical())
    }
}

fn parse_field<T: std::str::FromStr>(
    pairs: &[(String, String)],
    name: &str,
    default: T,
) -> Result<T, String> {
    match pairs.iter().find(|(k, _)| k == name) {
        Some((_, v)) => v
            .parse()
            .map_err(|_| format!("parameter {name:?} is not a valid number: {v:?}")),
        None => Ok(default),
    }
}

/// Parses and validates query parameters into a canonical key.
///
/// # Errors
///
/// A human-readable message naming the offending parameter (the
/// server turns it into HTTP 400).
pub fn parse_key(pairs: &[(String, String)]) -> Result<PredictKey, String> {
    let alg = match pairs.iter().find(|(k, _)| k == "alg") {
        Some((_, v)) => match v.as_str() {
            "scu" => Alg::Scu,
            "fai" => Alg::Fai,
            "parallel" => Alg::Parallel,
            other => return Err(format!("unknown alg {other:?} (scu | fai | parallel)")),
        },
        None => Alg::Scu,
    };
    let layer = match pairs.iter().find(|(k, _)| k == "layer") {
        Some((_, v)) => match v.as_str() {
            "theory" => Layer::Theory,
            "chain" => Layer::Chain,
            "sim" => Layer::Sim,
            other => return Err(format!("unknown layer {other:?} (theory | chain | sim)")),
        },
        None => Layer::Theory,
    };
    let n: usize = parse_field(pairs, "n", 0)?;
    if n == 0 {
        return Err("parameter \"n\" is required and must be at least 1".into());
    }
    if n > MAX_N {
        return Err(format!("n = {n} exceeds the service cap of {MAX_N}"));
    }
    let mut q: usize = parse_field(pairs, "q", 0)?;
    let mut s: usize = parse_field(pairs, "s", 1)?;
    let mut steps: u64 = parse_field(pairs, "steps", DEFAULT_STEPS)?;
    let mut seed: u64 = parse_field(pairs, "seed", DEFAULT_SEED)?;

    // Per-family parameter validity.
    match alg {
        Alg::Scu => {
            if s == 0 {
                return Err("scu needs a scan length s >= 1".into());
            }
            if q > 1_000_000 {
                return Err("q exceeds the service cap of 1000000".into());
            }
        }
        Alg::Fai => {
            // q and s are meaningless: canonicalize them away.
            q = 0;
            s = 0;
        }
        Alg::Parallel => {
            if q == 0 {
                return Err("parallel needs a preamble length q >= 1".into());
            }
            s = 0;
        }
    }

    // Per-layer caps and canonicalization.
    match layer {
        Layer::Theory | Layer::Chain => {
            steps = 0;
            seed = 0;
        }
        Layer::Sim => {
            if steps == 0 {
                return Err("sim needs steps >= 1".into());
            }
            if steps > MAX_STEPS {
                return Err(format!(
                    "steps = {steps} exceeds the service cap of {MAX_STEPS}"
                ));
            }
        }
    }
    let key = PredictKey {
        alg,
        q,
        s,
        n,
        layer,
        steps,
        seed,
    };
    if layer == Layer::Chain {
        chain_family(&key)?;
    }
    Ok(key)
}

/// Echo of the canonical key as the response's `query` object.
fn query_json(key: &PredictKey) -> Json {
    Json::Obj(vec![
        ("alg".into(), Json::Str(key.alg.name().into())),
        ("q".into(), Json::Int(key.q as i128)),
        ("s".into(), Json::Int(key.s as i128)),
        ("n".into(), Json::Int(key.n as i128)),
        ("layer".into(), Json::Str(key.layer.name().into())),
        ("steps".into(), Json::Int(key.steps as i128)),
        ("seed".into(), Json::Int(key.seed as i128)),
    ])
}

fn theory_result(key: &PredictKey) -> Json {
    match key.alg {
        Alg::Scu => {
            let p = ScuPrediction::new(key.q, key.s, key.n);
            Json::Obj(vec![
                ("model".into(), Json::Str("theorem4".into())),
                ("alpha".into(), Json::Num(p.alpha)),
                ("system_latency".into(), Json::Num(p.system_latency())),
                (
                    "individual_latency".into(),
                    Json::Num(p.individual_latency()),
                ),
                ("completion_rate".into(), Json::Num(p.completion_rate())),
                (
                    "worst_case_system_latency".into(),
                    Json::Num(p.worst_case_system_latency()),
                ),
                (
                    "worst_case_completion_rate".into(),
                    Json::Num(p.worst_case_completion_rate()),
                ),
            ])
        }
        Alg::Fai => {
            let w = fai_system_latency_bound(key.n);
            Json::Obj(vec![
                ("model".into(), Json::Str("lemma12".into())),
                ("system_latency_bound".into(), Json::Num(w)),
                (
                    "individual_latency_bound".into(),
                    Json::Num(key.n as f64 * w),
                ),
                ("completion_rate_bound".into(), Json::Num(1.0 / w)),
            ])
        }
        Alg::Parallel => {
            let w = key.q as f64;
            Json::Obj(vec![
                ("model".into(), Json::Str("lemma11".into())),
                ("system_latency".into(), Json::Num(w)),
                ("individual_latency".into(), Json::Num(key.n as f64 * w)),
                ("completion_rate".into(), Json::Num(1.0 / w)),
            ])
        }
    }
}

/// The chain layer's admission rule, shared by [`parse_key`] and
/// [`chain_result`]: scu only at `(q, s) = (0, 1)` and
/// `n ≤` [`MAX_CHAIN_SCU_N`], fai and parallel exactly where their
/// chain builders accept `(q, n)` ([`ChainFamily::admits`]). A builder
/// panic in a coalescing leader would strand every joiner, so a
/// hand-built key that skipped validation must fail softly here too.
fn chain_family(key: &PredictKey) -> Result<ChainFamily, String> {
    let family = match key.alg {
        Alg::Scu => {
            if (key.q, key.s) != (0, 1) {
                return Err(
                    "the chain layer covers scu only at (q=0, s=1); use layer=theory or layer=sim for other (q, s)"
                        .into(),
                );
            }
            if key.n > MAX_CHAIN_SCU_N {
                return Err(format!("chain-layer scu caps at n = {MAX_CHAIN_SCU_N}"));
            }
            ChainFamily::Scu01
        }
        Alg::Fai => ChainFamily::FetchAndInc,
        Alg::Parallel => ChainFamily::Parallel { q: key.q },
    };
    if family.admits(key.n) {
        Ok(family)
    } else {
        Err(format!(
            "chain-layer {} has no chains at q = {}, n = {}: outside the chain builders' caps",
            key.alg.name(),
            key.q,
            key.n
        ))
    }
}

fn chain_result(key: &PredictKey) -> Result<Json, String> {
    let report =
        analyze(chain_family(key)?, key.n).map_err(|e| format!("chain analysis failed: {e}"))?;
    Ok(Json::Obj(vec![
        ("model".into(), Json::Str("chain".into())),
        (
            "system_states".into(),
            Json::Int(report.system_states as i128),
        ),
        ("system_latency".into(), Json::Num(report.system_latency)),
        (
            "individual_latency".into(),
            Json::Num(report.individual_latency),
        ),
        (
            "completion_rate".into(),
            Json::Num(1.0 / report.system_latency),
        ),
        ("kernel_residual".into(), Json::Num(report.kernel_residual)),
    ]))
}

fn sim_result(key: &PredictKey) -> Result<Json, String> {
    if key.n == 0 || key.n > MAX_N || key.steps == 0 || key.steps > MAX_STEPS {
        return Err(format!("sim layer cannot answer {key}"));
    }
    let spec = match key.alg {
        Alg::Scu => AlgorithmSpec::Scu { q: key.q, s: key.s },
        Alg::Fai => AlgorithmSpec::FetchAndInc,
        Alg::Parallel => AlgorithmSpec::Parallel { q: key.q },
    };
    let report = SimExperiment::new(spec, key.n, key.steps)
        .seed(key.seed)
        .run()
        .map_err(|e| format!("simulation failed: {e}"))?;
    let opt_num = |v: Option<f64>| v.map(Json::Num).unwrap_or(Json::Null);
    Ok(Json::Obj(vec![
        ("model".into(), Json::Str("simulation".into())),
        (
            "total_completions".into(),
            Json::Int(report.total_completions as i128),
        ),
        ("completion_rate".into(), Json::Num(report.completion_rate)),
        ("system_latency".into(), opt_num(report.system_latency)),
        (
            "mean_individual_latency".into(),
            opt_num(report.mean_individual_latency()),
        ),
        (
            "min_progress_bound".into(),
            report
                .minimal_progress_bound
                .map(|v| Json::Int(v as i128))
                .unwrap_or(Json::Null),
        ),
    ]))
}

/// Computes the canonical response body for a key: the pure function
/// the cache, the coalescer, and the drift gate all agree on.
///
/// # Errors
///
/// A message describing the failed analysis (the server turns it into
/// HTTP 500; validation errors are caught earlier by [`parse_key`]).
pub fn compute(key: &PredictKey) -> Result<String, String> {
    let result = match key.layer {
        Layer::Theory => theory_result(key),
        Layer::Chain => chain_result(key)?,
        Layer::Sim => sim_result(key)?,
    };
    Ok(Json::Obj(vec![
        ("query".into(), query_json(key)),
        ("result".into(), result),
    ])
    .render())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pairs(spec: &[(&str, &str)]) -> Vec<(String, String)> {
        spec.iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    #[test]
    fn canonicalization_zeroes_irrelevant_fields() {
        // A theory query's seed/steps must not fragment the cache.
        let a = parse_key(&pairs(&[("alg", "scu"), ("n", "8"), ("seed", "7")])).unwrap();
        let b = parse_key(&pairs(&[("alg", "scu"), ("n", "8"), ("seed", "9")])).unwrap();
        assert_eq!(a.canonical(), b.canonical());
        // fai ignores q and s entirely.
        let c = parse_key(&pairs(&[
            ("alg", "fai"),
            ("n", "4"),
            ("q", "3"),
            ("s", "2"),
        ]))
        .unwrap();
        assert_eq!((c.q, c.s), (0, 0));
    }

    #[test]
    fn validation_rejects_bad_queries() {
        for bad in [
            vec![("alg", "scu")],                                             // missing n
            vec![("alg", "scu"), ("n", "0")],                                 // n = 0
            vec![("alg", "scu"), ("n", "8"), ("s", "0")],                     // s = 0
            vec![("alg", "nope"), ("n", "4")],                                // unknown alg
            vec![("alg", "scu"), ("n", "4"), ("layer", "nope")],              // unknown layer
            vec![("alg", "scu"), ("n", "x")],                                 // non-numeric
            vec![("alg", "parallel"), ("n", "4")],                            // parallel q = 0
            vec![("alg", "scu"), ("n", "9999999")],                           // over cap
            vec![("alg", "fai"), ("n", "11"), ("layer", "chain")],            // fai chain cap
            vec![("alg", "scu"), ("n", "4"), ("q", "2"), ("layer", "chain")], // scu chain (q,s)
            vec![("alg", "scu"), ("n", "65"), ("layer", "chain")],            // scu chain cap
        ] {
            assert!(
                parse_key(&pairs(&bad)).is_err(),
                "{bad:?} should be rejected"
            );
        }
    }

    #[test]
    fn compute_is_deterministic_per_key() {
        for spec in [
            vec![("alg", "scu"), ("q", "2"), ("s", "1"), ("n", "64")],
            vec![("alg", "scu"), ("n", "4"), ("layer", "chain")],
            vec![("alg", "fai"), ("n", "6"), ("layer", "chain")],
            vec![
                ("alg", "scu"),
                ("n", "8"),
                ("layer", "sim"),
                ("steps", "20000"),
            ],
        ] {
            let key = parse_key(&pairs(&spec)).unwrap();
            let a = compute(&key).unwrap();
            let b = compute(&key).unwrap();
            assert_eq!(a, b, "{key} must be reproducible");
            assert!(a.contains("\"query\""), "{key} echoes its query");
        }
    }

    #[test]
    fn theory_matches_the_closed_forms() {
        let key = parse_key(&pairs(&[
            ("alg", "scu"),
            ("q", "2"),
            ("s", "1"),
            ("n", "64"),
        ]))
        .unwrap();
        let body = compute(&key).unwrap();
        let doc = Json::parse(&body).unwrap();
        let w = doc
            .get("result")
            .and_then(|r| r.get("system_latency"))
            .and_then(Json::as_f64)
            .unwrap();
        assert!(
            (w - (2.0 + 8.0)).abs() < 1e-12,
            "q + s*sqrt(n) = 10, got {w}"
        );
    }
}
