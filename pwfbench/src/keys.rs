//! Workload inputs. Every key the benchmark sends is a pure function of
//! the workload seed and its coordinates (stream, index), so any request
//! can be regenerated without replaying the ones before it.

use pwf_rng::{mix64, Rng, SeedableRng, Xoshiro256PlusPlus, Zipf};
use pwf_serve::predict::{self, PredictKey};

/// Parses a query string exactly as the server's `/predict` route does.
///
/// # Panics
///
/// Panics if the query is not a valid prediction key (a benchmark bug).
pub fn key(query: &str) -> PredictKey {
    let pairs: Vec<(String, String)> = query
        .split('&')
        .map(|pair| {
            let (k, v) = pair.split_once('=').expect("benchmark keys are k=v pairs");
            (k.to_string(), v.to_string())
        })
        .collect();
    predict::parse_key(&pairs).unwrap_or_else(|e| panic!("benchmark key {query:?}: {e}"))
}

/// A generator for one (seed, stream, index) coordinate.
fn rng_at(seed: u64, stream: u64, index: u64) -> Xoshiro256PlusPlus {
    let state = mix64(seed ^ mix64(stream.wrapping_add(0x5EED)) ^ mix64(!index));
    Xoshiro256PlusPlus::seed_from_u64(state)
}

/// Stream ids past the per-connection ones.
const CHAIN_STREAM: u64 = 1 << 20;
const SHARED_STREAM: u64 = (1 << 20) + 1;
const ORDER_STREAM: u64 = (1 << 20) + 2;

/// The `pwf serve --selftest` working set: theory, chain and sim keys
/// across all three algorithm families.
pub const HOT_KEYS: [&str; 12] = [
    "alg=scu&q=0&s=1&n=64",
    "alg=scu&q=2&s=1&n=64",
    "alg=scu&q=4&s=2&n=256",
    "alg=fai&n=128",
    "alg=parallel&q=3&n=512",
    "alg=scu&n=4&layer=chain",
    "alg=scu&n=6&layer=chain",
    "alg=fai&n=5&layer=chain",
    "alg=parallel&q=2&n=6&layer=chain",
    "alg=scu&n=16&layer=sim&steps=50000",
    "alg=fai&n=8&layer=sim&steps=50000",
    "alg=parallel&q=2&n=8&layer=sim&steps=50000",
];

/// The serve-hot keys, parsed.
pub fn hot_working_set() -> Vec<PredictKey> {
    HOT_KEYS.iter().map(|q| key(q)).collect()
}

/// One connection's serve-hot stream: Zipf(1.1) ranks over the working
/// set.
pub struct HotStream {
    rng: Xoshiro256PlusPlus,
    zipf: Zipf,
}

impl HotStream {
    /// The stream of connection `conn`.
    pub fn new(seed: u64, conn: usize) -> Self {
        HotStream {
            rng: rng_at(seed, conn as u64, 0),
            zipf: Zipf::new(HOT_KEYS.len(), 1.1),
        }
    }

    /// Index into [`HOT_KEYS`] of the next request.
    pub fn next_index(&mut self) -> usize {
        // Zipf ranks are 1-based.
        self.zipf.sample(&mut self.rng) - 1
    }
}

/// Process counts of simulator keys.
const SIM_N: [usize; 4] = [16, 64, 256, 1024];

/// The chain-layer keys serve-cold draws from — SCU(0,1) n = 2..64,
/// fetch-and-increment n ≤ 10 and parallel chains of at most 256 states —
/// in strata of similar cost. A run sends one key of each stratum, once:
/// always both sides of the chain layer's cliff (n = 7 takes the dense
/// path, about 1.5 s; n = 8 the operator path, about 0.2 ms), and few
/// enough chain keys that the top 1% of latencies stays within the
/// simulator's tail rather than on the steep cost curve of the chains.
pub fn chain_strata() -> Vec<Vec<PredictKey>> {
    let scu = |n: usize| key(&format!("alg=scu&n={n}&layer=chain"));
    let fai = |n: usize| key(&format!("alg=fai&n={n}&layer=chain"));
    let parallel = [
        (1, 2),
        (1, 4),
        (1, 6),
        (2, 2),
        (2, 3),
        (2, 4),
        (3, 2),
        (3, 3),
        (3, 4),
    ]
    .into_iter()
    .map(|(q, n)| key(&format!("alg=parallel&q={q}&n={n}&layer=chain")))
    .collect();
    let mut strata = vec![
        vec![scu(7)],
        vec![scu(8)],
        (2..=6).map(scu).collect(),
        (1..=8).map(fai).collect(),
        (9..=10).map(fai).collect(),
        parallel,
    ];
    strata.extend(
        (9..=64)
            .step_by(8)
            .map(|lo| (lo..lo + 8).map(scu).collect()),
    );
    strata
}

/// The largest `q` the service accepts for scu keys.
const MAX_Q: u64 = 1_000_000;

/// A theory key unique to (stream, index) among `streams` streams: `q`
/// encodes both, each stream owning an equal share of `1..=MAX_Q`.
fn theory_key(streams: u64, stream: u64, index: u64, rng: &mut Xoshiro256PlusPlus) -> PredictKey {
    let share = MAX_Q / streams;
    assert!(index < share, "theory keys encode the index in q");
    let q = 1 + stream * share + index;
    let n = rng.gen_range(1..=4096usize);
    if rng.gen_bool(0.5) {
        let s = rng.gen_range(1..=8usize);
        key(&format!("alg=scu&q={q}&s={s}&n={n}"))
    } else {
        key(&format!("alg=parallel&q={q}&n={n}"))
    }
}

/// A simulator key unique to (stream, index): the simulation seed
/// encodes both. Default 200k steps, 4–14 ms of compute each.
fn sim_key(seed: u64, stream: u64, index: u64, rng: &mut Xoshiro256PlusPlus) -> PredictKey {
    assert!(index < 1 << 40, "sim seeds encode the index in 40 bits");
    let sim_seed = mix64(seed) ^ ((stream + 1) << 40 | index);
    let n = SIM_N[rng.gen_range(0..SIM_N.len())];
    match rng.gen_range(0..3u32) {
        0 => {
            let q = rng.gen_range(0..=4usize);
            let s = rng.gen_range(1..=2usize);
            key(&format!(
                "alg=scu&q={q}&s={s}&n={n}&layer=sim&seed={sim_seed}"
            ))
        }
        1 => key(&format!("alg=fai&n={n}&layer=sim&seed={sim_seed}")),
        // Parallel code is costlier per step; cap it at n = 256.
        _ => {
            let n = n.min(256);
            key(&format!("alg=parallel&q=8&n={n}&layer=sim&seed={sim_seed}"))
        }
    }
}

/// Private keys each connection sends per serve-cold round before the
/// shared one.
pub const COLD_PRIVATE_PER_ROUND: usize = 3;

/// The serve-cold key plan: per-connection private streams of fresh
/// keys plus one shared key per round that every connection sends at
/// once.
///
/// Each connection's round is fixed in composition: slot 0 a chain key
/// while the connection's share lasts (a sim key after), slot 1 a theory
/// key, slot 2 a sim key, then the shared sim key. The run's chain keys
/// — one per stratum of [`chain_strata`], chosen and ordered by the
/// seed — are dealt to the connections in turn.
pub struct ColdPlan {
    seed: u64,
    conns: usize,
    /// `chain[conn][round]`: the connection's chain key in that round.
    chain: Vec<Vec<PredictKey>>,
}

impl ColdPlan {
    /// The plan for `conns` connections.
    pub fn new(seed: u64, conns: usize) -> Self {
        let mut rng = rng_at(seed, CHAIN_STREAM, 0);
        let mut picks: Vec<PredictKey> = chain_strata()
            .iter()
            .map(|stratum| *rng.choose(stratum).expect("strata are not empty"))
            .collect();
        rng.shuffle(&mut picks);
        let mut chain = vec![Vec::new(); conns];
        for (i, k) in picks.into_iter().enumerate() {
            chain[i % conns].push(k);
        }
        ColdPlan { seed, conns, chain }
    }

    /// Connection `conn`'s `index`-th private key.
    pub fn private(&self, conn: usize, index: usize) -> PredictKey {
        let slot = index % COLD_PRIVATE_PER_ROUND;
        if slot == 0 {
            if let Some(k) = self.chain[conn].get(index / COLD_PRIVATE_PER_ROUND) {
                return *k;
            }
        }
        let (stream, index) = (conn as u64, index as u64);
        let mut rng = rng_at(self.seed, stream, index);
        if slot == 1 {
            theory_key(self.conns as u64, stream, index, &mut rng)
        } else {
            sim_key(self.seed, stream, index, &mut rng)
        }
    }

    /// The key every connection sends in `round`: a simulation, slow
    /// enough that the later arrivals join the first one's flight.
    pub fn shared(&self, round: usize) -> PredictKey {
        let stream = self.conns as u64;
        let mut rng = rng_at(self.seed, SHARED_STREAM, round as u64);
        sim_key(self.seed, stream, round as u64, &mut rng)
    }

    /// Rounds from the start that the in-process replay covers: at least
    /// `min_rounds`, extended until the replayed chain keys include both
    /// a dense-path and an operator-path analysis.
    pub fn replay_rounds(&self, min_rounds: usize) -> usize {
        let operator = |k: &&PredictKey| k.alg == predict::Alg::Scu && k.n > 7;
        let longest = self.chain.iter().map(Vec::len).max().unwrap_or(0);
        (min_rounds..longest)
            .find(|&rounds| {
                let seen: Vec<&PredictKey> = self
                    .chain
                    .iter()
                    .flat_map(|c| c.iter().take(rounds))
                    .collect();
                seen.iter().any(operator) && !seen.iter().all(operator)
            })
            .unwrap_or(longest.max(min_rounds))
    }
}

/// The vet target order of pass `pass`: a seeded permutation.
pub fn vet_order(seed: u64, pass: usize, targets: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..targets).collect();
    rng_at(seed, ORDER_STREAM, pass as u64).shuffle(&mut order);
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn hot_prefix(seed: u64, conn: usize, len: usize) -> Vec<usize> {
        let mut stream = HotStream::new(seed, conn);
        (0..len).map(|_| stream.next_index()).collect()
    }

    fn cold_prefix(seed: u64, conns: usize, rounds: usize) -> Vec<String> {
        let plan = ColdPlan::new(seed, conns);
        let mut out = Vec::new();
        for round in 0..rounds {
            for conn in 0..conns {
                for slot in 0..COLD_PRIVATE_PER_ROUND {
                    let index = round * COLD_PRIVATE_PER_ROUND + slot;
                    out.push(plan.private(conn, index).canonical());
                }
            }
            out.push(plan.shared(round).canonical());
        }
        out
    }

    #[test]
    fn key_streams_are_a_pure_function_of_the_seed() {
        assert_eq!(hot_prefix(7, 0, 500), hot_prefix(7, 0, 500));
        assert_ne!(hot_prefix(7, 0, 500), hot_prefix(8, 0, 500));
        assert_ne!(hot_prefix(7, 0, 500), hot_prefix(7, 1, 500));
        assert_eq!(cold_prefix(7, 2, 60), cold_prefix(7, 2, 60));
        assert_ne!(cold_prefix(7, 2, 60), cold_prefix(8, 2, 60));
        assert_eq!(vet_order(7, 3, 14), vet_order(7, 3, 14));
        assert_ne!(vet_order(7, 3, 14), vet_order(8, 3, 14));
    }

    #[test]
    fn hot_stream_covers_the_working_set_with_zipf_skew() {
        let mut counts = [0usize; HOT_KEYS.len()];
        for i in hot_prefix(3, 0, 20_000) {
            counts[i] += 1;
        }
        assert!(counts.iter().all(|&c| c > 0), "{counts:?}");
        assert!(counts[0] > counts[11] * 5, "rank 1 dominates: {counts:?}");
    }

    #[test]
    fn serve_cold_never_repeats_a_key_except_the_shared_ones() {
        for conns in [1, 2, 4, 8, 16, 64] {
            let plan = ColdPlan::new(11, conns);
            let mut seen = HashSet::new();
            for conn in 0..conns {
                for index in 0..3_000 {
                    let k = plan.private(conn, index).canonical();
                    assert!(seen.insert(k.clone()), "private key repeated: {k}");
                }
            }
            for round in 0..1_000 {
                let k = plan.shared(round).canonical();
                assert!(seen.insert(k.clone()), "shared key repeated: {k}");
            }
        }
    }

    #[test]
    fn theory_keys_stay_within_the_q_cap() {
        for streams in [1, 2, 11, 64, 1000] {
            let share = MAX_Q / streams;
            let mut rng = rng_at(5, 0, 0);
            // `key` panics on a q the service rejects.
            let last = theory_key(streams, streams - 1, share - 1, &mut rng);
            assert!(last.q as u64 <= MAX_Q, "q = {}", last.q);
        }
    }

    #[test]
    fn a_run_sends_one_chain_key_per_stratum() {
        let strata = chain_strata();
        let mut drawn = HashSet::new();
        for seed in 0..40 {
            let plan = ColdPlan::new(seed, 2);
            let chain: Vec<PredictKey> = (0..2)
                .flat_map(|conn| (0..600).map(move |index| (conn, index)))
                .map(|(conn, index)| plan.private(conn, index))
                .filter(|k| k.layer == predict::Layer::Chain)
                .collect();
            for stratum in &strata {
                assert_eq!(chain.iter().filter(|k| stratum.contains(k)).count(), 1);
            }
            assert_eq!(chain.len(), strata.len());
            drawn.extend(chain.iter().map(PredictKey::canonical));
        }
        assert!(drawn.len() > strata.len() * 2, "seeds vary the draw");
    }

    #[test]
    fn replay_rounds_cover_both_chain_paths() {
        for seed in 0..20 {
            let plan = ColdPlan::new(seed, 2);
            let rounds = plan.replay_rounds(4);
            assert!(rounds >= 4);
            let (operator, dense): (Vec<PredictKey>, Vec<PredictKey>) = (0..2)
                .flat_map(|conn| (0..rounds).map(move |r| (conn, r * COLD_PRIVATE_PER_ROUND)))
                .map(|(conn, index)| plan.private(conn, index))
                .filter(|k| k.layer == predict::Layer::Chain)
                .partition(|k| k.alg == predict::Alg::Scu && k.n > 7);
            assert!(!operator.is_empty() && !dense.is_empty(), "seed {seed}");
        }
    }
}
