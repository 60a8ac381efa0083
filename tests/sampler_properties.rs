//! Property-based tests for the O(1) scheduler sampling path: the
//! alias-table sampler must realize the same distribution as the
//! linear-scan oracle across arbitrary weight vectors and crash
//! patterns, within chi-square tolerance.

use proptest::prelude::*;

use pwf_rng::rngs::StdRng;
use pwf_rng::SeedableRng;
use pwf_sim::sampler::AliasTable;
use pwf_sim::scheduler::{ActiveSet, Scheduler, WeightedScheduler};
use pwf_sim::ProcessId;

/// Draws per empirical histogram: large enough that every retained
/// weight's expected count is comfortably in chi-square territory.
const DRAWS: u32 = 40_000;

/// Strategy: a weight vector whose ratios stay moderate, so every
/// cell keeps a healthy expected count under [`DRAWS`] samples.
fn weights(n: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.05f64..1.0, n)
}

/// Strategy: a set of distinct indices to crash, always leaving at
/// least two processes alive.
fn crash_set(n: usize) -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(0..n, 0..n.saturating_sub(2) + 1).prop_map(move |mut ix| {
        ix.sort_unstable();
        ix.dedup();
        ix.truncate(n - 2);
        ix
    })
}

/// Pearson chi-square statistic of observed counts against expected
/// probabilities over `total` draws.
fn chi_square(counts: &[u32], expected: &[f64], total: u32) -> f64 {
    counts
        .iter()
        .zip(expected)
        .map(|(&c, &p)| {
            let e = f64::from(total) * p;
            (f64::from(c) - e).powi(2) / e
        })
        .sum()
}

/// Renormalized weight distribution over the surviving processes.
fn renormalized(weights: &[f64], active: &ActiveSet) -> Vec<f64> {
    let total: f64 = active.iter().map(|p| weights[p.index()]).sum();
    active.iter().map(|p| weights[p.index()] / total).collect()
}

/// Empirical pick distribution of a scheduler over the active set,
/// indexed by the active set's rank order.
fn empirical(
    scheduler: &mut dyn Scheduler,
    active: &ActiveSet,
    weights_len: usize,
    seed: u64,
) -> Vec<u32> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut by_id = vec![0u32; weights_len];
    for tau in 0..DRAWS {
        let p = scheduler.schedule(u64::from(tau), active, &mut rng);
        assert!(active.is_active(p), "scheduler picked a crashed process");
        by_id[p.index()] += 1;
    }
    active.iter().map(|p| by_id[p.index()]).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A raw alias table realizes its weight distribution: chi-square
    /// against the exact probabilities stays below a generous cutoff
    /// (dof ≤ 15, so 60 is far out in the tail; the deterministic
    /// shim RNG keeps this stable).
    #[test]
    fn alias_table_matches_exact_distribution(
        w in (2usize..16).prop_flat_map(weights)
    ) {
        let n = w.len();
        let support: Vec<ProcessId> = (0..n).map(ProcessId::new).collect();
        let table = AliasTable::build(support, &w);
        let mut rng = StdRng::seed_from_u64(0xA11A5);
        let mut counts = vec![0u32; n];
        for _ in 0..DRAWS {
            counts[table.sample(&mut rng).index()] += 1;
        }
        let total: f64 = w.iter().sum();
        let expected: Vec<f64> = w.iter().map(|x| x / total).collect();
        let stat = chi_square(&counts, &expected, DRAWS);
        prop_assert!(stat < 60.0, "chi-square {stat} for weights {w:?}");
    }

    /// The alias-sampling scheduler and the linear-scan oracle realize
    /// the same renormalized distribution over any surviving set —
    /// both within chi-square tolerance of the exact probabilities.
    #[test]
    fn alias_scheduler_matches_linear_oracle_under_crashes(
        wc in (2usize..16)
            .prop_flat_map(|n| (weights(n), crash_set(n)))
    ) {
        let (w, crashed) = wc;
        let n = w.len();
        let mut active = ActiveSet::all(n);
        for &i in &crashed {
            active.crash(ProcessId::new(i));
        }

        let mut alias = WeightedScheduler::new(w.clone());
        let mut linear = WeightedScheduler::with_linear_sampling(w.clone());
        let alias_counts = empirical(&mut alias, &active, n, 0x0A11A5);
        let linear_counts = empirical(&mut linear, &active, n, 0x11EA12);

        let expected = renormalized(&w, &active);
        let alias_stat = chi_square(&alias_counts, &expected, DRAWS);
        let linear_stat = chi_square(&linear_counts, &expected, DRAWS);
        prop_assert!(
            alias_stat < 60.0 && linear_stat < 60.0,
            "chi-square alias {alias_stat} / linear {linear_stat} \
             for weights {w:?} crashed {crashed:?}"
        );
    }

    /// Crashing processes mid-stream never lets the alias sampler pick
    /// a dead process, and epoch rebuilds stay bounded by the crash
    /// count (amortized-O(1) maintenance, not rebuild-per-crash …
    /// plus the initial build).
    #[test]
    fn progressive_crashes_stay_sound_and_cheap(
        wc in (4usize..24)
            .prop_flat_map(|n| (weights(n), crash_set(n)))
    ) {
        let (w, crashed) = wc;
        let n = w.len();
        let mut active = ActiveSet::all(n);
        let mut sched = WeightedScheduler::new(w);
        let mut rng = StdRng::seed_from_u64(0xC4A5);
        for (step, &i) in crashed.iter().enumerate() {
            for tau in 0..50u64 {
                let p = sched.schedule(step as u64 * 50 + tau, &active, &mut rng);
                prop_assert!(active.is_active(p));
            }
            active.crash(ProcessId::new(i));
        }
        for tau in 0..50u64 {
            let p = sched.schedule(10_000 + tau, &active, &mut rng);
            prop_assert!(active.is_active(p));
        }
        prop_assert!(
            sched.sampler_rebuilds() <= crashed.len() as u64 + 1,
            "rebuilds {} for {} crashes",
            sched.sampler_rebuilds(),
            crashed.len()
        );
    }
}
