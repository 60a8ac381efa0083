//! `exp_serve_bench` — the service loadgen gate (E23): boots
//! `pwf-serve` on an ephemeral port and drives the built-in selftest
//! through it — thousands of concurrent requests across all three
//! analysis layers, Zipf-skewed so the LRU cache and the in-flight
//! coalescer both engage — then records client-observed latency
//! quantiles in `BENCH_serve.json`.
//!
//! Wall-clock latency is hardware-dependent, so the experiment
//! registers `deterministic: false` and `pwf check` skips it. The
//! gates are what make it a test rather than a report:
//!
//! * **zero drift** — every response body byte-identical to invoking
//!   the analysis layers directly;
//! * **both production layers engaged** — cache hits > 0 and
//!   in-flight dedup joins > 0;
//! * **p999 sanity** — against the previous `BENCH_serve.json` (when
//!   one exists), the tail may not blow up by more than 20× while
//!   also exceeding an absolute floor; run-to-run noise passes, a
//!   lost-wakeup-style stall does not.

use std::path::Path;

use pwf_obs::json::Json;
use pwf_runner::{fmt, ExpConfig, ExpResult, FnExperiment, ReportBuilder};
use pwf_serve::selftest::{bench_json, run as run_selftest, SelftestConfig};

/// The registered experiment.
pub const EXP: FnExperiment = FnExperiment {
    name: "exp_serve_bench",
    description:
        "Service loadgen gate: coalescing + caching under concurrent load, BENCH_serve.json",
    sizes: "requests=2000..20000",
    deterministic: false,
    body: fill,
};

/// Successful requests in the full profile (`--fast` scales ~10×
/// down).
const REQUESTS: u64 = 20_000;

/// The p999 regression gate only fires above this absolute tail (µs):
/// debug builds and loaded CI hosts shift every quantile, but a
/// coordination bug (a lost wakeup, a stuck flight) parks requests for
/// entire timeouts, which this floor catches.
const P999_FLOOR_US: u64 = 2_000_000;

/// …and only when the tail also regressed by more than this factor
/// against the previous recorded run.
const P999_FACTOR: f64 = 20.0;

fn fill(cfg: &ExpConfig, out: &mut ReportBuilder) -> ExpResult {
    let config = SelftestConfig {
        requests: cfg.scaled(REQUESTS),
        clients: if cfg.fast { 24 } else { 48 },
        seed: cfg.sub_seed(1),
        write_bench: false,
    };

    out.note("service loadgen: concurrent /predict requests through the");
    out.note("shaper -> LRU cache -> in-flight coalescer pipeline, verified");
    out.note("byte-for-byte against direct computation.");

    // The previous tail, for the regression gate, read before the run
    // overwrites the file.
    let previous_p999 = std::fs::read_to_string("BENCH_serve.json")
        .ok()
        .and_then(|text| Json::parse(&text).ok())
        .and_then(|doc| {
            doc.get("latency")
                .and_then(|l| l.get("p999_us"))
                .and_then(Json::as_u64)
        });

    let report =
        run_selftest(&config, cfg.obs.clone()).map_err(|e| format!("selftest failed: {e}"))?;

    out.header(&["metric", "value"]);
    out.row(&["requests completed".into(), report.completed.to_string()]);
    out.row(&["distinct keys".into(), report.keys.to_string()]);
    out.row(&["drift".into(), report.drift.to_string()]);
    out.row(&["cache hits".into(), report.from_cache.to_string()]);
    out.row(&[
        "cache hit rate".into(),
        format!("{:.1}%", 100.0 * report.cache_hit_rate()),
    ]);
    out.row(&["dedup joins".into(), report.coalesced.to_string()]);
    out.row(&["computed fresh".into(), report.computed.to_string()]);
    out.row(&["shed retries".into(), report.rejected_retries.to_string()]);
    out.row(&["throughput rps".into(), fmt(report.throughput_rps())]);
    out.row(&["p50 us".into(), report.latency.p50.to_string()]);
    out.row(&["p99 us".into(), report.latency.p99.to_string()]);
    out.row(&["p999 us".into(), report.latency.p999.to_string()]);

    // selftest::run() already gated drift == 0, cache hits > 0, and
    // dedup joins > 0 (it returns Err otherwise); the tail gate is
    // ours.
    if let Some(previous) = previous_p999 {
        let p999 = report.latency.p999;
        if p999 > P999_FLOOR_US && (p999 as f64) > (previous as f64) * P999_FACTOR {
            return Err(format!(
                "p999 regression: {p999} us vs {previous} us previously \
                 (> {P999_FACTOR}x and above the {P999_FLOOR_US} us floor)"
            )
            .into());
        }
        out.note("");
        out.note(&format!(
            "p999 vs previous run: {} us vs {} us",
            report.latency.p999, previous
        ));
    }

    let mut doc = match bench_json(&report, &config) {
        Json::Obj(fields) => fields,
        _ => unreachable!("bench_json renders an object"),
    };
    doc.push(("profile".into(), Json::Str(cfg.profile().into())));
    std::fs::write(Path::new("BENCH_serve.json"), Json::Obj(doc).render())
        .map_err(|e| format!("writing BENCH_serve.json: {e}"))?;
    out.note("");
    out.note("trajectory written to BENCH_serve.json.");
    Ok(())
}
