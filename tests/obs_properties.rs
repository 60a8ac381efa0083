//! Property-based tests on the observability layer: histogram merge
//! is a commutative monoid, quantile bounds really bound ranks (to
//! sub-octave precision), flight dumps round-trip through their JSON
//! schema, and latency summaries never panic on adversarial timestamp
//! streams.

use practically_wait_free::obs::{
    Event, EventKind, FlightDump, Histogram, LatencySummary, Metrics, Watchdog,
    DEFAULT_KEEP_PER_THREAD, DEFAULT_MAX_OFFENDERS,
};
use proptest::prelude::*;
use pwf_obs::json::Json;

/// Samples spanning every magnitude (including the extremes), not
/// just the small integers a naive `0..N` range would produce.
fn arb_sample() -> impl Strategy<Value = u64> {
    prop_oneof![
        (0u64..64, 0u64..u64::MAX).prop_map(|(shift, raw)| raw >> shift),
        Just(u64::MAX),
        Just(0u64),
    ]
}

fn hist_of(values: &[u64]) -> Histogram {
    let mut h = Histogram::new();
    for &v in values {
        h.record(v);
    }
    h
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn merge_is_commutative_and_associative(
        a in prop::collection::vec(arb_sample(), 0..40),
        b in prop::collection::vec(arb_sample(), 0..40),
        c in prop::collection::vec(arb_sample(), 0..40),
    ) {
        let (ha, hb, hc) = (hist_of(&a), hist_of(&b), hist_of(&c));

        // Commutativity: a ⊕ b == b ⊕ a.
        let mut ab = ha.clone();
        ab.merge(&hb);
        let mut ba = hb.clone();
        ba.merge(&ha);
        prop_assert_eq!(&ab, &ba);

        // Associativity: (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c).
        let mut ab_c = ab;
        ab_c.merge(&hc);
        let mut bc = hb.clone();
        bc.merge(&hc);
        let mut a_bc = ha.clone();
        a_bc.merge(&bc);
        prop_assert_eq!(&ab_c, &a_bc);

        // Both equal recording every sample into one histogram — the
        // property that makes per-thread recording safe.
        let all: Vec<u64> = a.iter().chain(&b).chain(&c).copied().collect();
        prop_assert_eq!(&ab_c, &hist_of(&all));
    }

    #[test]
    fn quantile_bounds_cover_their_rank(
        values in prop::collection::vec(arb_sample(), 1..80),
        q_permille in 1u32..1001,
    ) {
        let h = hist_of(&values);
        let q = q_permille as f64 / 1000.0;
        let bound = h.quantile_upper_bound(q);

        // Rank guarantee: at least ceil(q * n) samples are <= bound.
        let target = (q * values.len() as f64).ceil() as usize;
        let covered = values.iter().filter(|&&v| v <= bound).count();
        prop_assert!(
            covered >= target,
            "bound {} covers {}/{} samples, needed {}",
            bound, covered, values.len(), target
        );

        // Monotone in q, and q = 1 covers the maximum.
        prop_assert!(bound <= h.quantile_upper_bound(1.0));
        prop_assert!(h.quantile_upper_bound(1.0) >= h.max_value());
    }

    #[test]
    fn quantile_bounds_are_sub_octave_tight(
        values in prop::collection::vec(arb_sample(), 1..80),
        q_permille in 1u32..1001,
    ) {
        let h = hist_of(&values);
        let q = q_permille as f64 / 1000.0;
        let bound = h.quantile_upper_bound(q);

        let mut sorted = values.clone();
        sorted.sort_unstable();
        let target = ((q * values.len() as f64).ceil() as usize).max(1);
        let exact = sorted[target - 1];

        // The log-linear layout guarantees the bound lands in the
        // rank-quantile sample's own sub-bucket: at most 1/16 relative
        // overshoot (one sub-bucket) plus the integer rounding unit —
        // the bound a plain log2 histogram misses by a whole octave.
        prop_assert!(bound >= exact, "bound {} under exact {}", bound, exact);
        prop_assert!(
            bound <= exact.saturating_add(exact >> 4).saturating_add(1),
            "bound {} overshoots exact rank quantile {} by more than a sub-bucket",
            bound, exact
        );
    }

    #[test]
    fn merged_quantiles_match_global_recording(
        a in prop::collection::vec(arb_sample(), 1..40),
        b in prop::collection::vec(arb_sample(), 0..40),
        q_permille in 1u32..1001,
    ) {
        // Structural merge equality (above) implies this, but the
        // quantile path is what consumers actually read — pin the
        // behavioural contract directly.
        let mut merged = hist_of(&a);
        merged.merge(&hist_of(&b));
        let all: Vec<u64> = a.iter().chain(&b).copied().collect();
        let q = q_permille as f64 / 1000.0;
        prop_assert_eq!(
            merged.quantile_upper_bound(q),
            hist_of(&all).quantile_upper_bound(q)
        );
    }

    #[test]
    fn flight_dumps_round_trip_through_json(
        raw in prop::collection::vec(
            (arb_sample(), 0u32..8, 0usize..10, arb_sample()),
            0..40,
        ),
        breaches in 1u64..20,
    ) {
        const KINDS: [EventKind; 10] = [
            EventKind::OpStart,
            EventKind::OpEnd,
            EventKind::Complete,
            EventKind::CasAttempt,
            EventKind::CasFail,
            EventKind::Backoff,
            EventKind::SchedulerPick,
            EventKind::PhaseBegin,
            EventKind::PhaseEnd,
            EventKind::Crash,
        ];
        let events: Vec<Event> = raw
            .iter()
            .enumerate()
            .map(|(i, &(tick, thread, kind, arg))| Event {
                ticket: i as u64,
                tick,
                thread,
                kind: KINDS[kind],
                arg,
            })
            .collect();
        let w = Watchdog::armed(10, 0);
        for i in 0..breaches {
            w.observe((i % 4) as u32, i, 100 + i);
        }
        // Gauges take any f64; JSON cannot spell the non-finite ones,
        // so they must come out as null, not as a bare `NaN`/`inf`.
        let m = Metrics::new();
        m.gauge_set("nan", f64::NAN);
        m.gauge_set("inf", f64::INFINITY);
        m.gauge_set("half", 0.5);
        let dump = FlightDump::capture(
            "tail exceedance",
            &w.report(),
            &events,
            DEFAULT_KEEP_PER_THREAD,
            Some(m.snapshot()),
            1.0,
        );

        let doc = Json::parse(&dump.to_json()).expect("dump JSON parses");
        prop_assert_eq!(doc.get("reason").and_then(Json::as_str), Some("tail exceedance"));
        prop_assert_eq!(doc.get("threshold").and_then(Json::as_u64), Some(10));
        prop_assert_eq!(doc.get("observed").and_then(Json::as_u64), Some(breaches));
        prop_assert_eq!(doc.get("exceeded").and_then(Json::as_u64), Some(breaches));
        let gauges = doc.get("metrics").and_then(|m| m.get("gauges")).expect("gauges");
        prop_assert_eq!(gauges.get("nan"), Some(&Json::Null));
        prop_assert_eq!(gauges.get("inf"), Some(&Json::Null));
        prop_assert_eq!(gauges.get("half").and_then(Json::as_f64), Some(0.5));

        // Every event survives the trip to JSON and back, in order.
        let evs = doc.get("events").and_then(Json::as_array).expect("events array");
        prop_assert_eq!(evs.len(), events.len());
        for (e, j) in events.iter().zip(evs) {
            prop_assert_eq!(j.get("ticket").and_then(Json::as_u64), Some(e.ticket));
            prop_assert_eq!(j.get("tick").and_then(Json::as_u64), Some(e.tick));
            prop_assert_eq!(j.get("thread").and_then(Json::as_u64), Some(e.thread as u64));
            prop_assert_eq!(j.get("kind").and_then(Json::as_str), Some(e.kind.name()));
            prop_assert_eq!(j.get("arg").and_then(Json::as_u64), Some(e.arg));
        }

        // The watchdog's offender list is named, capped at the keep
        // limit, worst first.
        let offs = doc.get("offenders").and_then(Json::as_array).expect("offenders array");
        prop_assert_eq!(offs.len() as u64, breaches.min(DEFAULT_MAX_OFFENDERS as u64));
        let values: Vec<u64> = offs
            .iter()
            .map(|o| o.get("value").and_then(Json::as_u64).expect("offender value"))
            .collect();
        prop_assert!(values.windows(2).all(|w| w[0] >= w[1]));

        // The embedded Perfetto trace is exactly the standalone
        // export: cutting the `trace` field out of a dump yields a
        // document Perfetto loads as-is.
        let embedded = doc.get("trace").expect("embedded trace").clone();
        let standalone = Json::parse(&dump.perfetto_json()).expect("perfetto JSON parses");
        prop_assert_eq!(embedded, standalone);
    }

    #[test]
    fn summaries_survive_non_monotonic_time_streams(
        times in prop::collection::vec(arb_sample(), 0..60),
    ) {
        // Timestamps from real clocks can go backwards (migration
        // between cores, NTP steps); from_times must saturate, never
        // underflow or panic.
        match LatencySummary::from_times(&times) {
            None => prop_assert!(times.len() < 2),
            Some(s) => {
                prop_assert_eq!(s.count, times.len() as u64 - 1);
                prop_assert!(s.min <= s.max);
                prop_assert!(s.p50 <= s.p90 && s.p90 <= s.p99 && s.p99 <= s.p999);
                prop_assert!(s.mean >= 0.0);
            }
        }
    }
}

#[test]
fn same_octave_values_get_distinct_quantiles() {
    // 100 and 120 share the [64, 128) octave: a log2 histogram maps
    // both to the same bucket and reports one value for every
    // quantile between them (the p99 == p999 artifact the log-linear
    // layout exists to fix). Sub-buckets of width 4 resolve them.
    let mut h = Histogram::new();
    for _ in 0..1000 {
        h.record(100);
    }
    h.record(120);
    let p50 = h.quantile_upper_bound(0.5);
    let p9999 = h.quantile_upper_bound(0.9999);
    assert!(
        (100..120).contains(&p50),
        "p50 bound {p50} left the 100-sample sub-bucket"
    );
    assert!(p9999 >= 120, "p9999 bound {p9999} missed the 120 outlier");
    assert!(p50 < p9999, "sub-octave quantiles collapsed");
}
