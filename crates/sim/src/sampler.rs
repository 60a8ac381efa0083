//! O(1) weighted sampling for the scheduler hot path: Walker alias
//! tables with incremental active-set maintenance.
//!
//! The linear-scan pick in [`crate::scheduler::WeightedScheduler`]
//! costs `O(|A_τ|)` per step — the dominant term of every weighted
//! Monte Carlo run once `n` grows. The alias method replaces it with
//! two RNG draws and two array reads per sample after an `O(m)` build
//! over the `m` active processes.
//!
//! Crash containment (`A_{τ+1} ⊆ A_τ`) makes incremental maintenance
//! cheap: the active set only ever *shrinks*, so a table built at some
//! epoch still supports every currently active process. Within an
//! epoch the sampler draws directly; after crashes it **rejection
//! samples** — draws from the stale table and rejects crashed
//! processes, which conditions the distribution on the surviving set,
//! i.e. exactly the renormalized weights the scheduler must realize.
//! The table is rebuilt (a new epoch) only when rejection gets
//! expensive: when the active count has halved since the build, or
//! when a single sample burns through [`MAX_REJECTIONS`] draws
//! (possible when a crashed process held most of the mass).
//!
//! Like `markov::solve` keeps the dense direct solver as an oracle for
//! the sparse pipeline, the scheduler keeps the linear scan as a
//! cross-check oracle: see
//! [`WeightedScheduler::with_linear_sampling`](crate::scheduler::WeightedScheduler::with_linear_sampling)
//! and the distribution-agreement suite in `tests/sampler_properties.rs`.

use pwf_rng::rngs::StdRng;
use pwf_rng::{Rng, UniformBelow};

use crate::process::ProcessId;
use crate::scheduler::ActiveSet;

/// Rejection budget per sample before the stale table is declared too
/// expensive and rebuilt. With at least half the *mass* still active a
/// sample rejects with probability < 1/2 per draw, so 16 consecutive
/// rejections signal a mass-skewed epoch worth paying a rebuild for.
const MAX_REJECTIONS: u32 = 16;

/// A Walker alias table over an explicit support: samples index `i`
/// with probability `weights[i] / Σ weights` in O(1).
#[derive(Debug, Clone)]
pub struct AliasTable {
    /// Acceptance threshold per slot, in [0, 1]: with probability
    /// `accept[k]` a draw landing on slot `k` yields `support[k]`,
    /// otherwise `support[alias[k]]`.
    accept: Vec<f64>,
    /// Alias slot per slot.
    alias: Vec<u32>,
    /// The sampled values (process ids, here).
    support: Vec<ProcessId>,
    /// Uniform slot indices in `[0, support.len())`.
    slot: UniformBelow,
}

impl AliasTable {
    /// Builds the table with Vose's stable two-stack construction.
    ///
    /// # Panics
    ///
    /// Panics if `support` is empty, lengths differ, or any weight is
    /// non-positive or non-finite.
    pub fn build(support: Vec<ProcessId>, weights: &[f64]) -> Self {
        let m = support.len();
        assert!(m > 0, "alias table needs a non-empty support");
        assert_eq!(m, weights.len(), "one weight per support element");
        assert!(
            weights.iter().all(|w| w.is_finite() && *w > 0.0),
            "all weights must be positive and finite"
        );
        let total: f64 = weights.iter().sum();
        // Scaled weights average exactly 1; slots below go on the
        // small stack, slots at or above on the large stack.
        let scale = m as f64 / total;
        let mut accept: Vec<f64> = weights.iter().map(|w| w * scale).collect();
        let mut alias: Vec<u32> = (0..m as u32).collect();
        let mut small: Vec<u32> = Vec::with_capacity(m);
        let mut large: Vec<u32> = Vec::with_capacity(m);
        for (k, &a) in accept.iter().enumerate() {
            if a < 1.0 {
                small.push(k as u32);
            } else {
                large.push(k as u32);
            }
        }
        while let (Some(s), Some(l)) = (small.pop(), large.pop()) {
            // Slot `s` keeps its deficit and points its overflow at
            // `l`; `l` donates the difference.
            alias[s as usize] = l;
            let leftover = accept[l as usize] - (1.0 - accept[s as usize]);
            accept[l as usize] = leftover;
            if leftover < 1.0 {
                small.push(l);
            } else {
                large.push(l);
            }
        }
        // Whatever remains (on either stack) is exactly 1 up to
        // rounding; clamp so those slots never take the alias branch.
        for k in small.into_iter().chain(large) {
            accept[k as usize] = 1.0;
        }
        AliasTable {
            accept,
            alias,
            slot: UniformBelow::new(m as u64),
            support,
        }
    }

    /// Number of slots (= support size).
    pub fn len(&self) -> usize {
        self.support.len()
    }

    /// Whether the table is empty (never: construction requires a
    /// non-empty support).
    pub fn is_empty(&self) -> bool {
        self.support.is_empty()
    }

    /// Draws one process: two RNG draws, two reads.
    #[inline]
    pub fn sample(&self, rng: &mut StdRng) -> ProcessId {
        let k = self.slot.sample(rng) as usize;
        if rng.gen_f64() < self.accept[k] {
            self.support[k]
        } else {
            self.support[self.alias[k] as usize]
        }
    }
}

/// An alias-table sampler that tracks an [`ActiveSet`] across epochs:
/// O(1) per sample amortized, rebuilding only when the active set has
/// changed enough to make rejection sampling expensive.
#[derive(Debug, Clone, Default)]
pub struct ActiveAliasSampler {
    table: Option<AliasTable>,
    /// [`ActiveSet::generation`] at build time; a matching generation
    /// means the table is exact and no rejection loop is needed.
    built_generation: u64,
    /// Active count at build time, for the rebuild heuristic.
    built_count: usize,
    /// Epochs built so far (exposed as a `pwf-obs` metric by the
    /// experiment layer: sampler-table churn).
    rebuilds: u64,
}

impl ActiveAliasSampler {
    /// A sampler with no table yet; the first sample builds epoch 1.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of table builds so far.
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds
    }

    fn rebuild(&mut self, weights: &[f64], active: &ActiveSet) {
        let support: Vec<ProcessId> = active.iter().collect();
        let w: Vec<f64> = support.iter().map(|p| weights[p.index()]).collect();
        self.table = Some(AliasTable::build(support, &w));
        self.built_generation = active.generation();
        self.built_count = active.active_count();
        self.rebuilds += 1;
    }

    /// Samples an active process with probability proportional to
    /// `weights`, renormalized over `active`.
    ///
    /// `weights` must cover every process id (the full `n`-sized
    /// vector the scheduler was built with) and be identical across
    /// calls; the sampler only reads the entries of active processes.
    pub fn sample(&mut self, weights: &[f64], active: &ActiveSet, rng: &mut StdRng) -> ProcessId {
        let stale_count = match &self.table {
            None => true,
            // Rebuild once the active set has halved since the build:
            // keeps the expected count-wise rejection rate below 2.
            Some(t) => 2 * active.active_count() <= t.len(),
        };
        if stale_count {
            self.rebuild(weights, active);
        }
        let table = self.table.as_ref().expect("just ensured");
        if active.generation() == self.built_generation {
            return table.sample(rng);
        }
        // Stale-but-usable epoch: reject crashed processes. The
        // conditional distribution over survivors is exactly the
        // renormalized weight distribution.
        let mut rejections = 0;
        loop {
            let p = table.sample(rng);
            if active.is_active(p) {
                return p;
            }
            rejections += 1;
            if rejections >= MAX_REJECTIONS {
                // A crashed process holds most of the epoch's mass;
                // pay for a fresh table instead of looping.
                self.rebuild(weights, active);
                return self.table.as_ref().expect("just rebuilt").sample(rng);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pwf_rng::SeedableRng;

    fn ids(ix: &[usize]) -> Vec<ProcessId> {
        ix.iter().copied().map(ProcessId::new).collect()
    }

    #[test]
    fn alias_table_matches_weights() {
        let table = AliasTable::build(ids(&[0, 1, 2]), &[1.0, 3.0, 4.0]);
        let mut rng = StdRng::seed_from_u64(1);
        let mut counts = [0u32; 3];
        let total = 80_000;
        for _ in 0..total {
            counts[table.sample(&mut rng).index()] += 1;
        }
        for (c, expect) in counts.iter().zip([0.125, 0.375, 0.5]) {
            let frac = f64::from(*c) / f64::from(total);
            assert!((frac - expect).abs() < 0.01, "counts {counts:?}");
        }
    }

    #[test]
    fn alias_table_handles_extreme_weight_ratios() {
        // Subnormal-adjacent weights must neither panic nor steal
        // observable mass from the dominant slot.
        let mut weights = vec![1e-300; 63];
        weights.push(1.0);
        let table = AliasTable::build(ids(&(0..64).collect::<Vec<_>>()), &weights);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..10_000 {
            assert_eq!(table.sample(&mut rng).index(), 63);
        }
    }

    #[test]
    fn alias_table_uniform_weights_are_fair() {
        let table = AliasTable::build(ids(&[0, 1, 2, 3]), &[2.0; 4]);
        let mut rng = StdRng::seed_from_u64(3);
        let mut counts = [0u32; 4];
        for _ in 0..40_000 {
            counts[table.sample(&mut rng).index()] += 1;
        }
        for &c in &counts {
            assert!((f64::from(c) - 10_000.0).abs() < 500.0, "counts {counts:?}");
        }
    }

    #[test]
    fn sampler_rebuilds_only_on_sufficient_shrink() {
        let weights = vec![1.0; 8];
        let mut active = ActiveSet::all(8);
        let mut sampler = ActiveAliasSampler::new();
        let mut rng = StdRng::seed_from_u64(4);
        sampler.sample(&weights, &active, &mut rng);
        assert_eq!(sampler.rebuilds(), 1);
        // One crash out of eight: rejection-sample, no rebuild.
        active.crash(ProcessId::new(0));
        for _ in 0..100 {
            let p = sampler.sample(&weights, &active, &mut rng);
            assert_ne!(p.index(), 0);
        }
        assert_eq!(sampler.rebuilds(), 1);
        // Halve the active set: next sample rebuilds.
        for i in 1..4 {
            active.crash(ProcessId::new(i));
        }
        let p = sampler.sample(&weights, &active, &mut rng);
        assert!(p.index() >= 4);
        assert_eq!(sampler.rebuilds(), 2);
    }

    #[test]
    fn mass_skewed_crash_triggers_rejection_rebuild() {
        // Process 0 holds ~all the mass; crashing it makes the stale
        // table reject almost every draw, forcing the budgeted rebuild.
        let mut weights = vec![1e-6; 4];
        weights[0] = 1.0;
        let mut active = ActiveSet::all(4);
        let mut sampler = ActiveAliasSampler::new();
        let mut rng = StdRng::seed_from_u64(5);
        sampler.sample(&weights, &active, &mut rng);
        active.crash(ProcessId::new(0));
        let p = sampler.sample(&weights, &active, &mut rng);
        assert_ne!(p.index(), 0);
        assert_eq!(sampler.rebuilds(), 2, "rejection budget should rebuild");
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_support_panics() {
        let _ = AliasTable::build(Vec::new(), &[]);
    }
}
