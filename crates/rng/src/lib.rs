//! Zero-dependency deterministic randomness for the
//! *practically-wait-free* workspace.
//!
//! The workspace's experiments need seeded, reproducible randomness in
//! an environment with no network access, so this crate replaces the
//! external `rand`/`rand_chacha` stack with a small self-contained
//! implementation:
//!
//! * [`SplitMix64`] — the seeding generator (also used to expand a
//!   `u64` seed into a full generator state, exactly the technique
//!   `rand`'s `seed_from_u64` uses);
//! * [`Xoshiro256PlusPlus`] — the workhorse generator behind
//!   [`rngs::StdRng`]: fast, 256-bit state, passes BigCrush;
//! * [`ChaChaRng`] — a ChaCha stream-cipher generator for call sites
//!   that want a cryptographically grounded stream with a 256-bit
//!   seed, mirroring the role `rand_chacha` played;
//! * the [`Rng`]/[`RngCore`]/[`SeedableRng`] trait surface the rest of
//!   the workspace programs against, kept deliberately source-
//!   compatible with the `rand 0.8` call sites it replaced (migrating
//!   a call site means changing `rand` to `pwf_rng` in its imports and
//!   nothing else);
//! * distribution helpers: unbiased integer ranges, `f64` ranges,
//!   [`Bernoulli`], [`Zipf`], and Fisher–Yates [`Rng::shuffle`];
//! * [`UniformBelow`], a reusable uniform draw from `[0, n)` that
//!   takes exactly the draws of `gen_range(0..n)` without dividing.
//!
//! Everything is deterministic given a seed; nothing reads OS entropy.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chacha;
pub mod dist;
pub mod splitmix;
pub mod xoshiro;

pub use chacha::ChaChaRng;
pub use dist::{Bernoulli, Zipf};
pub use splitmix::{mix64, SplitMix64};
pub use xoshiro::Xoshiro256PlusPlus;

/// Generator namespace mirroring `rand`'s `rngs` module, so migrated
/// call sites keep their module paths (`pwf_rng::rngs::StdRng`).
pub mod rngs {
    /// The workspace's standard generator: xoshiro256++.
    ///
    /// Unlike `rand`, the concrete algorithm is part of the contract —
    /// recorded experiment outputs depend on the exact stream.
    pub type StdRng = super::Xoshiro256PlusPlus;
}

/// The minimal object-safe generator interface: a source of `u64`s.
///
/// Everything else ([`Rng`]'s ranges, distributions, shuffling) is
/// derived from `next_u64`.
pub trait RngCore {
    /// Returns the next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;

    /// Returns the next 32 uniformly random bits (upper half of
    /// [`next_u64`](Self::next_u64), which has the better-mixed bits
    /// for every generator in this crate).
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Fills `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Construction of a generator from a seed.
pub trait SeedableRng: Sized {
    /// The full-entropy seed type (a fixed byte array).
    type Seed;

    /// Builds the generator from a full seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Builds the generator from a `u64`, expanded to full state with
    /// [`SplitMix64`] (the same expansion `rand 0.8` uses, and the one
    /// recommended by the xoshiro authors).
    fn seed_from_u64(seed: u64) -> Self;
}

/// Samplable-by-uniform-range marker: the numeric types
/// [`Rng::gen_range`] accepts.
pub trait SampleUniform: PartialOrd + Copy {
    /// Draws a uniform sample from `[lo, hi)`.
    fn sample_half_open<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self;
}

/// The largest draw a uniform pick below `n` accepts: `[0, limit]`
/// holds a whole number of copies of `[0, n)`, so `v % n` of an
/// accepted `v` has no modulo bias. At worst (`n` just above 2^63)
/// half the draws are rejected.
fn rejection_limit(n: u64) -> u64 {
    let overhang = (u64::MAX % n + 1) % n;
    u64::MAX - overhang
}

/// Draws a uniform `u64` in `[0, n)` by rejection sampling, with no
/// modulo bias.
fn uniform_u64_below<R: RngCore + ?Sized>(rng: &mut R, n: u64) -> u64 {
    debug_assert!(n > 0);
    let limit = rejection_limit(n);
    loop {
        let v = rng.next_u64();
        if v <= limit {
            return v % n;
        }
    }
}

/// A uniform draw from `[0, n)` with its divisions paid once.
///
/// [`sample`](Self::sample) takes exactly the draws of
/// `rng.gen_range(0..n)` and returns the same value, but computes the
/// remainder from `m = ⌈2^128 / n⌉` by multiplication alone (Lemire,
/// Kaser & Kurz, "Faster remainder by direct computation", 2019),
/// exact for every `u64` draw and `n`. Building `m` costs more than
/// one pick, so one-shot `gen_range` keeps its divide.
#[derive(Debug, Clone, Copy)]
pub struct UniformBelow {
    n: u64,
    limit: u64,
    /// `⌈2^128 / n⌉ mod 2^128` (0 at `n = 1`, where every remainder is
    /// 0 anyway).
    m: u128,
}

impl UniformBelow {
    /// The sampler for `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: u64) -> Self {
        assert!(n > 0, "cannot sample from empty range");
        UniformBelow {
            n,
            limit: rejection_limit(n),
            m: (u128::MAX / u128::from(n)).wrapping_add(1),
        }
    }

    /// `v % n`, computed as the top 64 bits of `n · (m · v mod 2^128)`.
    #[inline]
    fn rem(&self, v: u64) -> u64 {
        let frac = self.m.wrapping_mul(u128::from(v));
        let n = u128::from(self.n);
        // The 192-bit product n · frac, split at the 64-bit halves of
        // frac; the sum cannot overflow 128 bits.
        let high = n * (frac >> 64) + ((n * (frac as u64 as u128)) >> 64);
        (high >> 64) as u64
    }

    /// Draws a uniform value in `[0, n)`.
    #[inline]
    pub fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> u64 {
        loop {
            let v = rng.next_u64();
            if v <= self.limit {
                return self.rem(v);
            }
        }
    }
}

macro_rules! impl_sample_uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_half_open<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
                assert!(lo < hi, "cannot sample from empty range");
                // Work in u64 offset space so signed ranges and the
                // full unsigned span are both handled.
                let span = (hi as i128 - lo as i128) as u64;
                let off = uniform_u64_below(rng, span);
                ((lo as i128) + off as i128) as $t
            }
        }
    )*};
}

impl_sample_uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleUniform for f64 {
    fn sample_half_open<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
        assert!(lo < hi, "cannot sample from empty range");
        let unit = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        let v = lo + (hi - lo) * unit;
        // Guard against lo + span rounding up to hi.
        if v < hi {
            v
        } else {
            lo
        }
    }
}

impl SampleUniform for f32 {
    fn sample_half_open<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
        f64::sample_half_open(rng, lo as f64, hi as f64) as f32
    }
}

/// Range argument for [`Rng::gen_range`]: `lo..hi` or `lo..=hi`.
pub trait SampleRange<T> {
    /// Draws a uniform sample from the range.
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for core::ops::Range<T> {
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_half_open(rng, self.start, self.end)
    }
}

macro_rules! impl_sample_range_inclusive_int {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample from empty range");
                let span = (hi as i128 - lo as i128 + 1) as u64;
                // span == 0 means the full u64/i64 domain: every draw
                // is in range.
                let off = if span == 0 {
                    rng.next_u64()
                } else {
                    uniform_u64_below(rng, span)
                };
                ((lo as i128) + off as i128) as $t
            }
        }
    )*};
}

impl_sample_range_inclusive_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Ergonomic sampling methods, implemented for every [`RngCore`]
/// (including `&mut dyn RngCore`).
pub trait Rng: RngCore {
    /// Draws a uniform sample from `range` (`lo..hi` half-open, or
    /// `lo..=hi` inclusive for integers).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample(self)
    }

    /// Returns `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p <= 1.0`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0, 1]");
        // Compare in fixed point: p == 1.0 must always return true.
        if p >= 1.0 {
            return true;
        }
        ((self.next_u64() >> 11) as f64) < p * (1u64 << 53) as f64
    }

    /// Draws a uniform `f64` in `[0, 1)`.
    fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Shuffles `slice` in place (Fisher–Yates).
    fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = uniform_u64_below(self, (i + 1) as u64) as usize;
            slice.swap(i, j);
        }
    }

    /// Returns a reference to a uniformly chosen element, or `None`
    /// if `slice` is empty.
    fn choose<'a, T>(&mut self, slice: &'a [T]) -> Option<&'a T> {
        if slice.is_empty() {
            None
        } else {
            let k = uniform_u64_below(self, slice.len() as u64) as usize;
            Some(&slice[k])
        }
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rngs::StdRng;

    /// The divisors where a remainder shortcut is likeliest to break:
    /// the smallest, powers of two and their neighbours, both sides of
    /// 2^32 and 2^63, and the largest.
    fn edge_divisors() -> Vec<u64> {
        let mut ns = vec![1, 2, 3, 7, 1 << 32, (1 << 32) - 1, (1 << 32) + 1];
        for k in [4, 10, 31, 33, 62, 63] {
            let p = 1u64 << k;
            ns.extend([p - 1, p, p + 1]);
        }
        ns.extend([u64::MAX - 1, u64::MAX]);
        ns
    }

    #[test]
    fn uniform_below_remainder_is_exact() {
        let mut r = StdRng::seed_from_u64(12);
        for n in edge_divisors() {
            let s = UniformBelow::new(n);
            for v in [
                0,
                s.limit - 1,
                s.limit,
                u64::MAX,
                n - 1,
                n,
                n.wrapping_add(1),
            ] {
                assert_eq!(s.rem(v), v % n, "v = {v}, n = {n}");
            }
            for _ in 0..100_000 {
                let v = r.next_u64();
                assert_eq!(s.rem(v), v % n, "v = {v}, n = {n}");
            }
        }
    }

    #[test]
    fn uniform_below_draws_exactly_what_gen_range_draws() {
        let mut ns = edge_divisors();
        ns.extend([5, 6, 1000, 1023, 1024, 1025]);
        for (i, n) in ns.into_iter().enumerate() {
            let s = UniformBelow::new(n);
            let mut a = StdRng::seed_from_u64(i as u64);
            let mut b = a.clone();
            for _ in 0..2_000 {
                assert_eq!(s.sample(&mut a), b.gen_range(0..n), "n = {n}");
            }
            // Rejections consumed the same number of draws on each side.
            assert_eq!(a, b, "n = {n}");
        }
    }

    #[test]
    fn gen_range_stays_in_bounds_and_hits_all_values() {
        let mut r = StdRng::seed_from_u64(1);
        let mut seen = [false; 7];
        for _ in 0..1_000 {
            let k: usize = r.gen_range(0..7);
            seen[k] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues reachable");
    }

    #[test]
    fn gen_range_works_through_dyn_rngcore() {
        let mut r = StdRng::seed_from_u64(2);
        let dyn_rng: &mut dyn RngCore = &mut r;
        let v = dyn_rng.gen_range(0..10usize);
        assert!(v < 10);
        assert!(dyn_rng.gen_range(0.0..1.0) < 1.0);
        let _ = dyn_rng.gen_bool(0.5);
    }

    #[test]
    fn gen_range_signed_and_inclusive() {
        let mut r = StdRng::seed_from_u64(3);
        for _ in 0..200 {
            let v: i64 = r.gen_range(-5..5);
            assert!((-5..5).contains(&v));
            let w: i32 = r.gen_range(-3..=3);
            assert!((-3..=3).contains(&w));
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let mut r = StdRng::seed_from_u64(4);
        let _: usize = r.gen_range(3..3);
    }

    #[test]
    fn gen_bool_extremes() {
        let mut r = StdRng::seed_from_u64(5);
        assert!((0..100).all(|_| r.gen_bool(1.0)));
        assert!((0..100).all(|_| !r.gen_bool(0.0)));
    }

    #[test]
    fn gen_bool_frequency_tracks_p() {
        let mut r = StdRng::seed_from_u64(6);
        let hits = (0..100_000).filter(|_| r.gen_bool(0.3)).count();
        let freq = hits as f64 / 100_000.0;
        assert!((freq - 0.3).abs() < 0.01, "freq {freq}");
    }

    #[test]
    fn range_uniformity_chi_square() {
        // 10 buckets, 100k draws: chi-square with 9 dof has mean 9 and
        // std ~4.24; 40 is far beyond any plausible statistical
        // fluctuation for a correct generator.
        let mut r = StdRng::seed_from_u64(7);
        let mut counts = [0u32; 10];
        let draws = 100_000u32;
        for _ in 0..draws {
            counts[r.gen_range(0..10usize)] += 1;
        }
        let expected = draws as f64 / 10.0;
        let chi2: f64 = counts
            .iter()
            .map(|&c| {
                let d = c as f64 - expected;
                d * d / expected
            })
            .sum();
        assert!(chi2 < 40.0, "chi-square {chi2} too large");
    }

    #[test]
    fn shuffle_is_a_permutation_and_mixes() {
        let mut r = StdRng::seed_from_u64(8);
        let mut v: Vec<usize> = (0..100).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        // A fixed point count near 1 is expected; all 100 fixed points
        // would mean the shuffle did nothing.
        let fixed = v.iter().enumerate().filter(|&(i, &x)| i == x).count();
        assert!(fixed < 20, "shuffle left {fixed} fixed points");
    }

    #[test]
    fn shuffle_first_position_uniform() {
        // Each element should land in slot 0 about n_trials/n times.
        let mut r = StdRng::seed_from_u64(9);
        let n = 8usize;
        let trials = 80_000;
        let mut counts = vec![0u32; n];
        for _ in 0..trials {
            let mut v: Vec<usize> = (0..n).collect();
            r.shuffle(&mut v);
            counts[v[0]] += 1;
        }
        let expected = trials as f64 / n as f64;
        for (i, &c) in counts.iter().enumerate() {
            let rel = (c as f64 - expected).abs() / expected;
            assert!(rel < 0.05, "slot-0 frequency of {i} off by {rel}");
        }
    }

    #[test]
    fn reproducible_across_runs() {
        let mut a = StdRng::seed_from_u64(0xDEADBEEF);
        let mut b = StdRng::seed_from_u64(0xDEADBEEF);
        let va: Vec<u64> = (0..100).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..100).map(|_| b.next_u64()).collect();
        assert_eq!(va, vb);
        let mut c = StdRng::seed_from_u64(0xDEADBEF0);
        assert_ne!(va, (0..100).map(|_| c.next_u64()).collect::<Vec<_>>());
    }

    #[test]
    fn choose_covers_all_elements() {
        let mut r = StdRng::seed_from_u64(10);
        let items = [1, 2, 3, 4];
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[*r.choose(&items).unwrap() - 1] = true;
        }
        assert!(seen.iter().all(|&s| s));
        assert_eq!(r.choose::<i32>(&[]), None);
    }

    #[test]
    fn fill_bytes_covers_partial_chunks() {
        let mut r = StdRng::seed_from_u64(11);
        let mut buf = [0u8; 13];
        r.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }
}
