//! Stochastic schedulers (paper, Definition 1).
//!
//! A scheduler for `n` processes is a triple `(Π_τ, A_τ, θ)`: at every
//! time step `τ` it draws the process to schedule from a distribution
//! `Π_τ` supported on the *possibly active* set `A_τ`, and it is
//! *stochastic* when every active process has probability at least
//! `θ > 0`. Crashes only shrink `A_τ` (crash containment).
//!
//! Implementations here:
//!
//! * [`UniformScheduler`] — the refined model of Section 2.3
//!   (`γ_i = 1/|A_τ|`); the scheduler under which all the paper's
//!   latency bounds are proved.
//! * [`WeightedScheduler`] — arbitrary fixed weights (threshold
//!   `θ = min weight / total`), for the Section 8 robustness studies.
//! * [`LotteryScheduler`] — ticket-proportional weights, modelling
//!   lottery scheduling [Petrou et al., reference 19].
//! * [`MarkovScheduler`] — locally-correlated choices: with
//!   probability `stickiness` reschedule the previous process;
//!   otherwise pick uniformly. Captures "a process is less/more likely
//!   to be scheduled twice in succession" (Appendix A.2).
//! * [`AdversarialScheduler`] — `θ = 0`: a scripted schedule encoded
//!   into `Π_τ` as point masses (the paper's observation that any
//!   classic adversary is the `θ = 0` special case).
//!
//! Schedulers draw from the executor's concrete [`StdRng`], so every
//! draw inlines, and uniform picks go through
//! [`ActiveSet::pick_uniform`], which divides once per crash, not once
//! per step.

use pwf_rng::rngs::StdRng;
use pwf_rng::{Rng, UniformBelow};

use crate::process::ProcessId;
use crate::sampler::ActiveAliasSampler;

/// The set `A_τ` of possibly-active processes. Supports only removal,
/// enforcing the paper's crash-containment condition `A_{τ+1} ⊆ A_τ`.
///
/// Alongside the membership bitmap it maintains a **dense, sorted**
/// list of active ids, so the k-th active process is one array read
/// ([`select`](Self::select)) instead of an `O(n)` scan, and a
/// [`UniformBelow`] for the active count, so a uniform rank costs no
/// division ([`pick_uniform`](Self::pick_uniform)). A generation
/// counter increments on every effective crash, letting samplers cache
/// epoch-scoped derived state (alias tables) and detect staleness in
/// O(1).
#[derive(Debug, Clone)]
pub struct ActiveSet {
    active: Vec<bool>,
    /// Active ids in ascending order (the same order `iter` has always
    /// produced, so selection-by-rank is unchanged from the historical
    /// scan).
    ids: Vec<ProcessId>,
    /// Uniform ranks in `[0, ids.len())`, rebuilt on every crash.
    rank: UniformBelow,
    /// Bumped on every effective crash.
    generation: u64,
}

impl ActiveSet {
    /// Creates the full set `{p_0, …, p_{n−1}}`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn all(n: usize) -> Self {
        assert!(n > 0, "need at least one process");
        ActiveSet {
            active: vec![true; n],
            ids: (0..n).map(ProcessId::new).collect(),
            rank: UniformBelow::new(n as u64),
            generation: 0,
        }
    }

    /// Total number of processes `n`.
    pub fn len(&self) -> usize {
        self.active.len()
    }

    /// Whether no process exists (never true: constructors require
    /// `n > 0`).
    pub fn is_empty(&self) -> bool {
        self.active.is_empty()
    }

    /// Number of currently active processes `|A_τ|`.
    pub fn active_count(&self) -> usize {
        self.ids.len()
    }

    /// Whether `p` is active.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn is_active(&self, p: ProcessId) -> bool {
        self.active[p.index()]
    }

    /// The `k`-th active process in ascending id order, in O(1) —
    /// equivalent to `iter().nth(k)` without the scan.
    ///
    /// # Panics
    ///
    /// Panics if `k >= active_count()`.
    #[inline]
    pub fn select(&self, k: usize) -> ProcessId {
        self.ids[k]
    }

    /// A uniformly random active process (`γ_i = 1/|A_τ|`). Takes
    /// exactly the draws of `select(rng.gen_range(0..active_count()))`
    /// and returns the same process, without a division.
    #[inline]
    pub fn pick_uniform(&self, rng: &mut StdRng) -> ProcessId {
        self.select(self.rank.sample(rng) as usize)
    }

    /// Epoch counter: incremented on every effective crash. Samplers
    /// cache it to detect active-set change without diffing.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Crashes process `p` (idempotent). At least one process must
    /// remain active — the paper allows at most `n − 1` crashes.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range or if crashing it would empty the
    /// active set.
    pub fn crash(&mut self, p: ProcessId) {
        if self.active[p.index()] {
            assert!(self.ids.len() > 1, "cannot crash the last active process");
            self.active[p.index()] = false;
            // Crashes are rare (at most n − 1 per run); an ordered
            // remove keeps `select` rank-stable with the historical
            // scan order.
            let pos = self
                .ids
                .binary_search(&p)
                .expect("bitmap and id list agree");
            self.ids.remove(pos);
            self.rank = UniformBelow::new(self.ids.len() as u64);
            self.generation += 1;
        }
    }

    /// Iterates over the active process ids in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = ProcessId> + '_ {
        self.ids.iter().copied()
    }
}

/// A scheduler `(Π_τ, A_τ, θ)` in the sense of Definition 1.
///
/// The executor owns `A_τ` (crashes are part of the experiment
/// configuration); the scheduler is handed the current active set and
/// must return an active process. It never sees process state, so the
/// executor may draw several picks before stepping any of them.
pub trait Scheduler {
    /// Chooses the process to schedule at time step `tau`, drawing any
    /// randomness from `rng`, the executor's seeded generator.
    ///
    /// Must return an active process (well-formedness: all probability
    /// mass on `A_τ`).
    fn schedule(&mut self, tau: u64, active: &ActiveSet, rng: &mut StdRng) -> ProcessId;

    /// The probability threshold `θ` for `n` processes, assuming all
    /// are active. `0` means the scheduler is adversarial, not
    /// stochastic.
    fn theta(&self, n: usize) -> f64;

    /// Human-readable name, for reports.
    fn name(&self) -> &'static str {
        "scheduler"
    }

    /// Number of sampling-table (re)builds this scheduler has
    /// performed, for schedulers that maintain epoch-cached sampling
    /// state. `0` for everyone else. Exposed as the
    /// `sim.sampler_rebuilds` metric.
    fn sampler_rebuilds(&self) -> u64 {
        0
    }
}

/// The uniform stochastic scheduler: `γ_i = 1/|A_τ|` for active `i`.
#[derive(Debug, Clone, Copy, Default)]
pub struct UniformScheduler;

impl UniformScheduler {
    /// Creates a uniform scheduler.
    pub fn new() -> Self {
        UniformScheduler
    }
}

impl Scheduler for UniformScheduler {
    fn schedule(&mut self, _tau: u64, active: &ActiveSet, rng: &mut StdRng) -> ProcessId {
        active.pick_uniform(rng)
    }

    fn theta(&self, n: usize) -> f64 {
        1.0 / n as f64
    }

    fn name(&self) -> &'static str {
        "uniform"
    }
}

/// A scheduler with fixed positive weights; the probability of an
/// active process is its weight renormalized over the active set.
///
/// Sampling is O(1) via a Walker alias table maintained across
/// active-set epochs ([`crate::sampler`]); the historical O(n) linear
/// scan is retained as a cross-check oracle
/// ([`with_linear_sampling`](Self::with_linear_sampling)), the same
/// way the Markov engine keeps its dense direct solver next to the
/// sparse pipeline.
#[derive(Debug, Clone)]
pub struct WeightedScheduler {
    weights: Vec<f64>,
    /// `Some` = alias sampling (the fast path); `None` = the linear
    /// scan oracle.
    sampler: Option<ActiveAliasSampler>,
}

impl WeightedScheduler {
    /// Creates a weighted scheduler with O(1) alias sampling.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or any weight is non-positive or
    /// non-finite (θ > 0 requires strictly positive mass everywhere).
    pub fn new(weights: Vec<f64>) -> Self {
        Self::validate(&weights);
        WeightedScheduler {
            weights,
            sampler: Some(ActiveAliasSampler::new()),
        }
    }

    /// Creates a weighted scheduler that samples by the historical
    /// O(n) linear scan — the pre-alias reference implementation, kept
    /// as an oracle for distribution cross-checks and old-vs-new
    /// benchmarking (`exp_sim_bench`).
    ///
    /// # Panics
    ///
    /// As [`new`](Self::new).
    pub fn with_linear_sampling(weights: Vec<f64>) -> Self {
        Self::validate(&weights);
        WeightedScheduler {
            weights,
            sampler: None,
        }
    }

    fn validate(weights: &[f64]) {
        assert!(!weights.is_empty(), "need at least one weight");
        assert!(
            weights.iter().all(|w| w.is_finite() && *w > 0.0),
            "all weights must be positive and finite"
        );
    }

    /// The linear-scan oracle: walk the active set subtracting weights
    /// from a uniform draw in `[0, total)`.
    ///
    /// Floating-point accumulation can make the draw overshoot the
    /// running sum (`x` never drops below the final weight even though
    /// `x < total`, e.g. under many `1e-300` weights and one `1.0`);
    /// the explicit last-active fallback makes that rounding case land
    /// on the final active process instead of falling off the loop.
    pub fn pick_linear(&self, active: &ActiveSet, rng: &mut StdRng) -> ProcessId {
        let total: f64 = active.iter().map(|p| self.weights[p.index()]).sum();
        let mut x = rng.gen_range(0.0..total);
        let mut last = None;
        for p in active.iter() {
            let w = self.weights[p.index()];
            if x < w {
                return p;
            }
            x -= w;
            last = Some(p);
        }
        last.expect("active set is non-empty")
    }
}

impl Scheduler for WeightedScheduler {
    fn schedule(&mut self, _tau: u64, active: &ActiveSet, rng: &mut StdRng) -> ProcessId {
        match &mut self.sampler {
            Some(s) => s.sample(&self.weights, active, rng),
            None => self.pick_linear(active, rng),
        }
    }

    fn theta(&self, n: usize) -> f64 {
        let total: f64 = self.weights.iter().take(n).sum();
        self.weights
            .iter()
            .take(n)
            .fold(f64::INFINITY, |m, &w| m.min(w))
            / total
    }

    fn name(&self) -> &'static str {
        "weighted"
    }

    fn sampler_rebuilds(&self) -> u64 {
        self.sampler
            .as_ref()
            .map_or(0, ActiveAliasSampler::rebuilds)
    }
}

/// Ticket-proportional lottery scheduling (reference \[19\] in the
/// paper): process `i` holds `tickets[i]` tickets and is scheduled
/// with probability proportional to them.
#[derive(Debug, Clone)]
pub struct LotteryScheduler {
    inner: WeightedScheduler,
}

impl LotteryScheduler {
    /// Creates a lottery scheduler (O(1) alias sampling).
    ///
    /// # Panics
    ///
    /// Panics if `tickets` is empty or contains a zero.
    pub fn new(tickets: Vec<u64>) -> Self {
        assert!(
            tickets.iter().all(|&t| t > 0),
            "every process needs at least one ticket"
        );
        LotteryScheduler {
            inner: WeightedScheduler::new(tickets.iter().map(|&t| t as f64).collect()),
        }
    }

    /// The linear-scan oracle variant, for cross-checks and
    /// old-vs-new benchmarking.
    ///
    /// # Panics
    ///
    /// As [`new`](Self::new).
    pub fn with_linear_sampling(tickets: Vec<u64>) -> Self {
        assert!(
            tickets.iter().all(|&t| t > 0),
            "every process needs at least one ticket"
        );
        LotteryScheduler {
            inner: WeightedScheduler::with_linear_sampling(
                tickets.iter().map(|&t| t as f64).collect(),
            ),
        }
    }
}

impl Scheduler for LotteryScheduler {
    fn schedule(&mut self, tau: u64, active: &ActiveSet, rng: &mut StdRng) -> ProcessId {
        self.inner.schedule(tau, active, rng)
    }

    fn theta(&self, n: usize) -> f64 {
        self.inner.theta(n)
    }

    fn name(&self) -> &'static str {
        "lottery"
    }

    fn sampler_rebuilds(&self) -> u64 {
        self.inner.sampler_rebuilds()
    }
}

/// A locally-correlated stochastic scheduler: with probability
/// `stickiness` the previously scheduled process runs again (if still
/// active); otherwise a uniformly random active process runs.
///
/// `stickiness` may also be negative-like behaviour via small values;
/// `0.0` reduces to [`UniformScheduler`]. Used for the Section 8
/// discussion that liftings should survive non-uniform schedulers.
#[derive(Debug, Clone)]
pub struct MarkovScheduler {
    stickiness: f64,
    last: Option<ProcessId>,
}

impl MarkovScheduler {
    /// Creates a Markov scheduler.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ stickiness < 1`.
    pub fn new(stickiness: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&stickiness),
            "stickiness must be in [0, 1)"
        );
        MarkovScheduler {
            stickiness,
            last: None,
        }
    }
}

impl Scheduler for MarkovScheduler {
    fn schedule(&mut self, _tau: u64, active: &ActiveSet, rng: &mut StdRng) -> ProcessId {
        if let Some(last) = self.last {
            if active.is_active(last) && rng.gen_bool(self.stickiness) {
                return last;
            }
        }
        let p = active.pick_uniform(rng);
        self.last = Some(p);
        p
    }

    fn theta(&self, n: usize) -> f64 {
        (1.0 - self.stickiness) / n as f64
    }

    fn name(&self) -> &'static str {
        "markov"
    }
}

/// An adversarial scheduler (`θ = 0`): replays a fixed script of
/// process ids, cycling when exhausted. Skips crashed processes by
/// advancing the script.
#[derive(Debug, Clone)]
pub struct AdversarialScheduler {
    script: Vec<ProcessId>,
    pos: usize,
}

impl AdversarialScheduler {
    /// Creates an adversary that repeats `script` forever.
    ///
    /// # Panics
    ///
    /// Panics if `script` is empty.
    pub fn cycle(script: Vec<ProcessId>) -> Self {
        assert!(!script.is_empty(), "script must be non-empty");
        AdversarialScheduler { script, pos: 0 }
    }

    /// The adversary that always schedules one process (a solo run —
    /// the paper's example of maximal progress in *some* execution for
    /// lock-free algorithms).
    pub fn solo(p: ProcessId) -> Self {
        AdversarialScheduler::cycle(vec![p])
    }

    /// The round-robin adversary over `n` processes.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn round_robin(n: usize) -> Self {
        assert!(n > 0, "need at least one process");
        AdversarialScheduler::cycle((0..n).map(ProcessId::new).collect())
    }
}

impl Scheduler for AdversarialScheduler {
    fn schedule(&mut self, _tau: u64, active: &ActiveSet, _rng: &mut StdRng) -> ProcessId {
        // Advance past crashed entries; guaranteed to terminate since
        // the active set is non-empty and we cycle the whole script.
        for _ in 0..self.script.len() {
            let p = self.script[self.pos];
            self.pos = (self.pos + 1) % self.script.len();
            if active.is_active(p) {
                return p;
            }
        }
        // Script mentions only crashed processes: fall back to any
        // active one (the adversary must satisfy well-formedness).
        active.iter().next().expect("non-empty active set")
    }

    fn theta(&self, _n: usize) -> f64 {
        0.0
    }

    fn name(&self) -> &'static str {
        "adversarial"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pwf_rng::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xC0FFEE)
    }

    #[test]
    fn pick_uniform_matches_a_gen_range_rank_across_crashes() {
        let mut active = ActiveSet::all(7);
        let (mut a, mut b) = (rng(), rng());
        for crash in [None, Some(3), Some(0), Some(6), Some(5)] {
            if let Some(p) = crash {
                active.crash(ProcessId::new(p));
            }
            for _ in 0..200 {
                let k = b.gen_range(0..active.active_count());
                assert_eq!(active.pick_uniform(&mut a), active.select(k));
            }
        }
        assert_eq!(a, b);
    }

    #[test]
    fn active_set_crash_containment() {
        let mut a = ActiveSet::all(3);
        assert_eq!(a.active_count(), 3);
        assert_eq!(a.generation(), 0);
        a.crash(ProcessId::new(1));
        a.crash(ProcessId::new(1)); // idempotent
        assert_eq!(a.active_count(), 2);
        assert_eq!(a.generation(), 1, "idempotent crash bumps the epoch once");
        assert!(!a.is_active(ProcessId::new(1)));
        let ids: Vec<usize> = a.iter().map(ProcessId::index).collect();
        assert_eq!(ids, vec![0, 2]);
    }

    #[test]
    fn select_matches_iter_rank_order() {
        let mut a = ActiveSet::all(5);
        a.crash(ProcessId::new(2));
        a.crash(ProcessId::new(0));
        for (k, p) in a.iter().enumerate() {
            assert_eq!(a.select(k), p);
        }
        assert_eq!(a.select(0).index(), 1);
        assert_eq!(a.select(2).index(), 4);
    }

    #[test]
    #[should_panic(expected = "last active process")]
    fn crashing_everyone_panics() {
        let mut a = ActiveSet::all(2);
        a.crash(ProcessId::new(0));
        a.crash(ProcessId::new(1));
    }

    #[test]
    fn uniform_scheduler_is_roughly_fair() {
        let mut s = UniformScheduler::new();
        let active = ActiveSet::all(4);
        let mut counts = [0u32; 4];
        let mut r = rng();
        for tau in 0..40_000 {
            counts[s.schedule(tau, &active, &mut r).index()] += 1;
        }
        for &c in &counts {
            assert!((c as f64 - 10_000.0).abs() < 500.0, "counts {counts:?}");
        }
        assert!((s.theta(4) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn uniform_scheduler_respects_crashes() {
        let mut s = UniformScheduler::new();
        let mut active = ActiveSet::all(3);
        active.crash(ProcessId::new(0));
        let mut r = rng();
        for tau in 0..1000 {
            let p = s.schedule(tau, &active, &mut r);
            assert_ne!(p.index(), 0);
        }
    }

    #[test]
    fn weighted_scheduler_respects_weights() {
        let mut s = WeightedScheduler::new(vec![1.0, 3.0]);
        let active = ActiveSet::all(2);
        let mut r = rng();
        let mut hi = 0u32;
        let total = 40_000;
        for tau in 0..total {
            if s.schedule(tau, &active, &mut r).index() == 1 {
                hi += 1;
            }
        }
        let frac = hi as f64 / total as f64;
        assert!((frac - 0.75).abs() < 0.02, "frac {frac}");
        assert!((s.theta(2) - 0.25).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn weighted_scheduler_rejects_zero_weight() {
        let _ = WeightedScheduler::new(vec![1.0, 0.0]);
    }

    #[test]
    fn linear_oracle_matches_alias_distribution() {
        let weights = vec![1.0, 2.0, 5.0, 0.5];
        let active = ActiveSet::all(4);
        let total = 120_000u32;
        let sample_counts = |s: &mut WeightedScheduler| {
            let mut r = rng();
            let mut counts = [0u32; 4];
            for tau in 0..total {
                counts[s.schedule(u64::from(tau), &active, &mut r).index()] += 1;
            }
            counts
        };
        let alias = sample_counts(&mut WeightedScheduler::new(weights.clone()));
        let linear = sample_counts(&mut WeightedScheduler::with_linear_sampling(weights));
        for (a, l) in alias.iter().zip(&linear) {
            let (fa, fl) = (
                f64::from(*a) / f64::from(total),
                f64::from(*l) / f64::from(total),
            );
            assert!(
                (fa - fl).abs() < 0.01,
                "alias {alias:?} vs linear {linear:?}"
            );
        }
    }

    #[test]
    fn adversarial_weights_never_fall_off_the_linear_scan() {
        // Regression: float accumulation can overshoot the running sum
        // when the draw lands beyond the representable prefix sums —
        // many subnormal-adjacent weights plus one dominant weight is
        // the adversarial case. The scan must always return an active
        // process (via the explicit last-active fallback) and, here,
        // essentially always the dominant one.
        let mut weights = vec![1e-300; 255];
        weights.push(1.0);
        let s = WeightedScheduler::with_linear_sampling(weights.clone());
        let active = ActiveSet::all(256);
        let mut r = rng();
        for _ in 0..50_000 {
            let p = s.pick_linear(&active, &mut r);
            assert!(active.is_active(p));
            assert_eq!(p.index(), 255, "1e-300 weights cannot win vs 1.0");
        }
        // The alias path handles the same weights.
        let mut alias = WeightedScheduler::new(weights);
        for tau in 0..50_000 {
            assert_eq!(alias.schedule(tau, &active, &mut r).index(), 255);
        }
    }

    #[test]
    fn weighted_scheduler_counts_rebuilds_across_crashes() {
        let mut s = WeightedScheduler::new(vec![1.0; 8]);
        let mut active = ActiveSet::all(8);
        let mut r = rng();
        assert_eq!(s.sampler_rebuilds(), 0);
        s.schedule(0, &active, &mut r);
        assert_eq!(s.sampler_rebuilds(), 1);
        // A lone crash is absorbed by rejection sampling.
        active.crash(ProcessId::new(3));
        for tau in 0..50 {
            assert_ne!(s.schedule(tau, &active, &mut r).index(), 3);
        }
        assert_eq!(s.sampler_rebuilds(), 1);
        // The oracle mode never builds tables.
        let mut oracle = WeightedScheduler::with_linear_sampling(vec![1.0; 8]);
        oracle.schedule(0, &active, &mut r);
        assert_eq!(oracle.sampler_rebuilds(), 0);
    }

    #[test]
    fn weighted_scheduler_respects_crashes_in_both_modes() {
        let weights = vec![4.0, 1.0, 1.0, 1.0];
        for mut s in [
            WeightedScheduler::new(weights.clone()),
            WeightedScheduler::with_linear_sampling(weights),
        ] {
            let mut active = ActiveSet::all(4);
            active.crash(ProcessId::new(0));
            let mut r = rng();
            for tau in 0..2_000 {
                assert_ne!(s.schedule(tau, &active, &mut r).index(), 0);
            }
        }
    }

    #[test]
    fn lottery_scheduler_theta() {
        let s = LotteryScheduler::new(vec![1, 1, 2]);
        assert!((s.theta(3) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn markov_scheduler_sticks() {
        let mut s = MarkovScheduler::new(0.9);
        let active = ActiveSet::all(8);
        let mut r = rng();
        let mut repeats = 0u32;
        let mut prev = s.schedule(0, &active, &mut r);
        let total = 20_000;
        for tau in 1..total {
            let p = s.schedule(tau, &active, &mut r);
            if p == prev {
                repeats += 1;
            }
            prev = p;
        }
        let frac = repeats as f64 / total as f64;
        // ~0.9 + 0.1/8 ≈ 0.9125 repeat probability.
        assert!(frac > 0.85, "repeat fraction {frac}");
    }

    #[test]
    fn markov_scheduler_zero_stickiness_is_uniform_like() {
        let mut s = MarkovScheduler::new(0.0);
        assert!((s.theta(4) - 0.25).abs() < 1e-12);
        let active = ActiveSet::all(2);
        let mut r = rng();
        let mut seen = [false; 2];
        for tau in 0..100 {
            seen[s.schedule(tau, &active, &mut r).index()] = true;
        }
        assert!(seen[0] && seen[1]);
    }

    #[test]
    fn adversary_replays_script_and_skips_crashed() {
        let mut s = AdversarialScheduler::cycle(vec![
            ProcessId::new(0),
            ProcessId::new(1),
            ProcessId::new(2),
        ]);
        let mut active = ActiveSet::all(3);
        let mut r = rng();
        assert_eq!(s.schedule(0, &active, &mut r).index(), 0);
        active.crash(ProcessId::new(1));
        assert_eq!(s.schedule(1, &active, &mut r).index(), 2);
        assert_eq!(s.schedule(2, &active, &mut r).index(), 0);
        assert_eq!(s.theta(3), 0.0);
    }

    #[test]
    fn solo_adversary_always_schedules_same() {
        let mut s = AdversarialScheduler::solo(ProcessId::new(1));
        let active = ActiveSet::all(2);
        let mut r = rng();
        for tau in 0..10 {
            assert_eq!(s.schedule(tau, &active, &mut r).index(), 1);
        }
    }
}
