//! Exact chains for the scan-validate component `SCU(0, 1)`
//! (paper, Section 6.1.1, Lemmas 3–7).
//!
//! The system chain is stored once, in CSR form
//! ([`sparse_system_chain`]): the scalable paths
//! ([`large_system_latency_with`], [`verify_lifting_chunk`]) solve and
//! read it directly, and the dense [`SparseChain::to_dense`]
//! conversions are the small-`n` oracle. Beyond the exhaustive range,
//! the lifting of Lemma 5 is verified by the symmetry-reduced kernel
//! check ([`verify_lifting_by_symmetry`]), `O(n)` work per symmetry
//! class with no `3ⁿ − 1` enumeration; the `Θ(n²)` classes split into
//! [`orbit_chunks`] for parallel fan-out with byte-identical merged
//! reports.

use pwf_markov::chain::{ChainError, MarkovChain};
use pwf_markov::lifting::RowResidualScratch;
use pwf_markov::solve::{Metrics, PowerOptions, SolveStats};
use pwf_markov::sparse::{SparseChain, SparseChainBuilder};
use pwf_markov::stationary::{stationary_distribution, StationaryError};
use pwf_rng::{Rng, SeedableRng};

use super::{latency_from_success_probabilities, sparse_system_latency};

/// Extended local state of one process (paper, Section 6.1.1): the
/// state is defined *from the viewpoint of the entire system* — a
/// pending CAS is `CCas` or `OldCas` depending on whether it would
/// currently succeed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PState {
    /// About to CAS with an old (invalid) value of `R`.
    OldCas,
    /// About to read `R`.
    Read,
    /// About to CAS with the current value of `R`.
    CCas,
}

/// A state of the individual chain: the extended local state of every
/// process.
pub type IndividualState = Vec<PState>;

/// A state `(a, b)` of the system chain: `a` processes about to read,
/// `b` processes about to CAS with an old value (and `n − a − b` about
/// to CAS with the current value).
pub type SystemState = (usize, usize);

/// Maximum `n` for which the *dense* individual chain (`3ⁿ − 1`
/// states) is built; beyond this the `(3ⁿ − 1)²` matrix is
/// impractical.
pub const MAX_INDIVIDUAL_N: usize = 7;

/// Maximum `n` for the *sparse* individual chain: `3ⁿ − 1` states
/// with `n` transitions each is memory-feasible a bit further than
/// the dense matrix, but still exponential.
pub const MAX_SPARSE_INDIVIDUAL_N: usize = 12;

/// Maximum `n` for the system chain: it has `Θ(n²)` states and the
/// solver is dense, so `n = 128` (≈ 8.4k states) is the practical
/// ceiling. For larger `n` use the step-equivalent balls-into-bins
/// game in `pwf-ballsbins`, which estimates the same latency in
/// `O(phases · √n)` time.
pub const MAX_SYSTEM_N: usize = 128;

/// The lifting map `f` of Definition 2: counts processes in `Read`
/// and `OldCas`.
pub fn lift(state: &IndividualState) -> SystemState {
    let a = state.iter().filter(|&&p| p == PState::Read).count();
    let b = state.iter().filter(|&&p| p == PState::OldCas).count();
    (a, b)
}

fn enumerate_individual_states(n: usize) -> Vec<IndividualState> {
    // All vectors over {OldCas, Read, CCas}^n except all-OldCas.
    let mut states = Vec::with_capacity(3usize.pow(n as u32) - 1);
    let mut current = vec![PState::OldCas; n];
    loop {
        if current.iter().any(|&p| p != PState::OldCas) {
            states.push(current.clone());
        }
        // Increment base-3 counter.
        let mut i = 0;
        loop {
            current[i] = match current[i] {
                PState::OldCas => PState::Read,
                PState::Read => PState::CCas,
                PState::CCas => {
                    current[i] = PState::OldCas;
                    i += 1;
                    if i == n {
                        return states;
                    }
                    continue;
                }
            };
            break;
        }
    }
}

/// One scheduled step of process `i` from an individual-chain state:
/// returns the successor state and whether the step was a successful
/// CAS. This is the paper's prose dynamics verbatim and the single
/// source of truth for every SCU chain construction and for the
/// symmetry-reduced lifting check.
pub fn individual_successor(state: &IndividualState, i: usize) -> (IndividualState, bool) {
    let mut next = state.clone();
    match state[i] {
        PState::Read => {
            next[i] = PState::CCas;
            (next, false)
        }
        PState::OldCas => {
            next[i] = PState::Read;
            (next, false)
        }
        PState::CCas => {
            // Success: winner returns to reading, every other current
            // CAS becomes stale.
            for (j, p) in next.iter_mut().enumerate() {
                if j != i && *p == PState::CCas {
                    *p = PState::OldCas;
                }
            }
            next[i] = PState::Read;
            (next, true)
        }
    }
}

/// Builds the individual chain for `SCU(0, 1)` on `n` processes in
/// sparse (CSR) form: `3ⁿ − 1` states with `n` transitions each,
/// uniform scheduling (each process steps with probability `1/n`).
///
/// # Errors
///
/// Propagates chain-validation errors (none occur for valid `n`).
///
/// # Panics
///
/// Panics if `n == 0` or `n > MAX_SPARSE_INDIVIDUAL_N`.
pub fn sparse_individual_chain(n: usize) -> Result<SparseChain<IndividualState>, ChainError> {
    assert!(n >= 1, "need at least one process");
    assert!(
        n <= MAX_SPARSE_INDIVIDUAL_N,
        "individual chain has 3^n - 1 states even in sparse form; \
         n must be at most {MAX_SPARSE_INDIVIDUAL_N}"
    );
    let states = enumerate_individual_states(n);
    let p = 1.0 / n as f64;
    let mut b = SparseChainBuilder::new();
    for s in &states {
        b.state(s.clone());
    }
    for s in &states {
        for i in 0..n {
            let (next, _) = individual_successor(s, i);
            b.transition(s.clone(), next, p);
        }
    }
    b.build()
}

/// Builds the dense individual chain — a [`SparseChain::to_dense`]
/// conversion of [`sparse_individual_chain`], kept as the direct-solve
/// oracle.
///
/// # Errors
///
/// Propagates chain-validation errors (none occur for valid `n`).
///
/// # Panics
///
/// Panics if `n == 0` or `n > MAX_INDIVIDUAL_N`.
pub fn individual_chain(n: usize) -> Result<MarkovChain<IndividualState>, ChainError> {
    assert!(
        n <= MAX_INDIVIDUAL_N,
        "individual chain has 3^n - 1 states; n must be at most {MAX_INDIVIDUAL_N}"
    );
    sparse_individual_chain(n)?.to_dense()
}

/// Builds the dense system chain — a [`SparseChain::to_dense`]
/// conversion of [`sparse_system_chain`], kept as the direct-solve
/// oracle for small `n`.
///
/// # Errors
///
/// Propagates chain-validation errors (none occur for valid `n`).
///
/// # Panics
///
/// Panics if `n == 0` or `n > MAX_SYSTEM_N`.
pub fn system_chain(n: usize) -> Result<MarkovChain<SystemState>, ChainError> {
    assert!(
        n <= MAX_SYSTEM_N,
        "system chain has Θ(n²) states; n must be at most {MAX_SYSTEM_N} \
         (use pwf-ballsbins for Monte-Carlo estimates at larger n)"
    );
    sparse_system_chain(n)?.to_dense()
}

/// Builds the system chain in sparse (CSR) form — the primary
/// representation, usable far beyond [`MAX_SYSTEM_N`] (the chain has
/// `Θ(n²)` states but only ≤ 3 transitions per state).
///
/// # Errors
///
/// Propagates chain-validation errors (none occur for valid `n`).
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn sparse_system_chain(n: usize) -> Result<SparseChain<SystemState>, ChainError> {
    assert!(n >= 1, "need at least one process");
    let nf = n as f64;
    let mut b = SparseChainBuilder::new();
    for a in 0..=n {
        for bb in 0..=(n - a) {
            if (a, bb) != (0, n) {
                b.state((a, bb));
            }
        }
    }
    for a in 0..=n {
        for bb in 0..=(n - a) {
            if (a, bb) == (0, n) {
                continue;
            }
            let c = n - a - bb;
            if a > 0 {
                b.transition((a, bb), (a - 1, bb), a as f64 / nf);
            }
            if bb > 0 {
                b.transition((a, bb), (a + 1, bb - 1), bb as f64 / nf);
            }
            if c > 0 {
                b.transition((a, bb), (a + 1, n - a - 1), c as f64 / nf);
            }
        }
    }
    b.build()
}

/// Number of system states — and of symmetry classes of the
/// individual chain — for `n` processes: `(n+1)(n+2)/2 − 1` (every
/// `(a, b)` with `a + b ≤ n` except the unreachable `(0, n)`).
fn class_count(n: usize) -> usize {
    (n + 1) * (n + 2) / 2 - 1
}

/// System latency for large `n` via [`sparse_system_chain`] and
/// adaptive lazy power iteration — the scalable counterpart of
/// [`exact_system_latency`]. Returns the latency together with the
/// solver's work statistics; an optional metrics registry receives the
/// solver's counters and gauges.
///
/// # Errors
///
/// Propagates chain-construction and solver-convergence failures.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn large_system_latency_with(
    n: usize,
    opts: &PowerOptions,
    metrics: Option<&Metrics>,
) -> Result<(f64, SolveStats), LatencyError> {
    let chain = sparse_system_chain(n)?;
    sparse_system_latency(
        &chain,
        |&(a, b)| (n - a - b) as f64 / n as f64,
        opts,
        metrics,
    )
}

/// Result of the symmetry-reduced kernel check of Lemma 5's lifting
/// (see [`verify_lifting_by_symmetry`]).
#[derive(Debug, Clone, Copy)]
pub struct SymmetryLiftingReport {
    /// Number of processes.
    pub n: usize,
    /// Symmetry classes checked — one per system-chain state `(a, b)`,
    /// i.e. `(n+1)(n+2)/2 − 1`.
    pub classes: usize,
    /// Individual states whose rows were checked (canonical
    /// representative plus sampled permutations, per class).
    pub states_checked: usize,
    /// Worst violation of the kernel condition
    /// `Σ_{y : f(y) = j} P'(x, y) = P(f(x), j)` over all checked rows.
    pub kernel_residual: f64,
}

impl SymmetryLiftingReport {
    /// Folds another chunk's report into this one: classes and
    /// checked-state counts add, the kernel residual takes the max.
    /// Because [`verify_lifting_chunk`] seeds its RNG per class, any
    /// chunking of the same class range merges to the identical report.
    ///
    /// # Panics
    ///
    /// Panics if the reports are for different `n`.
    #[must_use]
    pub fn merge(mut self, other: &SymmetryLiftingReport) -> SymmetryLiftingReport {
        assert_eq!(self.n, other.n, "cannot merge reports across n");
        self.classes += other.classes;
        self.states_checked += other.states_checked;
        self.kernel_residual = self.kernel_residual.max(other.kernel_residual);
        self
    }
}

/// A contiguous run of symmetry classes (system states, in
/// [`sparse_system_chain`] index order) for one unit of lifting-check
/// work — the fan-out granule for `pwf_runner::parallel_map`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OrbitChunk {
    /// Number of processes.
    pub n: usize,
    /// Index of the first class in this chunk.
    pub first_class: usize,
    /// Number of classes in this chunk.
    pub classes: usize,
}

/// Splits the `(n+1)(n+2)/2 − 1` symmetry classes of `SCU(0, 1)` into
/// chunks of at most `classes_per_chunk` classes. The partition is a
/// pure function of `(n, classes_per_chunk)` — independent of worker
/// count — so chunked runs merge to byte-identical reports at any
/// `--jobs`.
///
/// # Panics
///
/// Panics if `n == 0` or `classes_per_chunk == 0`.
pub fn orbit_chunks(n: usize, classes_per_chunk: usize) -> Vec<OrbitChunk> {
    assert!(n >= 1, "need at least one process");
    assert!(classes_per_chunk >= 1, "chunks must be non-empty");
    let total = class_count(n);
    let mut chunks = Vec::with_capacity(total.div_ceil(classes_per_chunk));
    let mut first = 0;
    while first < total {
        let classes = classes_per_chunk.min(total - first);
        chunks.push(OrbitChunk {
            n,
            first_class: first,
            classes,
        });
        first += classes;
    }
    chunks
}

/// The kernel check over one [`OrbitChunk`]: for each class `(a, b)`
/// in the chunk, collapses the rows of the canonical representative
/// (`a`×`Read`, `b`×`OldCas`, rest `CCas`) and `samples_per_class`
/// seeded random permutations of it through the lifting map, and
/// compares them against row `(a, b)` of `chain`, which must be
/// [`sparse_system_chain`]`(chunk.n)` — built once by the caller and
/// shared by every chunk of that `n`. The individual chain is never
/// materialized.
///
/// Each class draws from its own RNG stream
/// (`seed ⊕ class · 0x9E3779B97F4A7C15`), so the permutations sampled
/// for a class do not depend on how classes are split into chunks:
/// chunked parallel runs are byte-identical to the serial sweep.
///
/// # Panics
///
/// Panics if `chain` does not have the class count of `chunk.n`, or
/// the chunk is out of range for it.
pub fn verify_lifting_chunk(
    chain: &SparseChain<SystemState>,
    chunk: &OrbitChunk,
    samples_per_class: usize,
    seed: u64,
) -> SymmetryLiftingReport {
    let n = chunk.n;
    assert_eq!(
        chain.len(),
        class_count(n),
        "chain is not the n = {n} system chain"
    );
    assert!(
        chunk.first_class + chunk.classes <= chain.len(),
        "chunk exceeds the class count"
    );
    let inv_n = 1.0 / n as f64;
    let mut scratch = RowResidualScratch::new();
    let mut worst: f64 = 0.0;
    let mut states_checked = 0usize;
    let mut collapsed: Vec<(usize, f64)> = Vec::with_capacity(4);
    for class in chunk.first_class..chunk.first_class + chunk.classes {
        let (a, b) = *chain.state(class);
        let c = n - a - b;
        let mut rng = pwf_rng::rngs::StdRng::seed_from_u64(
            seed ^ (class as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        let mut rep = vec![PState::Read; a];
        rep.extend(std::iter::repeat(PState::OldCas).take(b));
        rep.extend(std::iter::repeat(PState::CCas).take(c));
        for sample in 0..=samples_per_class {
            let mut x = rep.clone();
            if sample > 0 {
                rng.shuffle(&mut x);
            }
            debug_assert_eq!(lift(&x), (a, b));
            // Collapsed row: Σ_{y : f(y) = j} P'(x, y), at most 4
            // distinct targets (one per scheduled-process kind, plus
            // coincidences).
            collapsed.clear();
            for i in 0..n {
                let (next, _) = individual_successor(&x, i);
                let target = chain
                    .state_index(&lift(&next))
                    .expect("lifted successors are system states");
                match collapsed.iter_mut().find(|(t, _)| *t == target) {
                    Some((_, p)) => *p += inv_n,
                    None => collapsed.push((target, inv_n)),
                }
            }
            worst = worst.max(scratch.residual(chain, class, &collapsed));
            states_checked += 1;
        }
    }
    SymmetryLiftingReport {
        n,
        classes: chunk.classes,
        states_checked,
        kernel_residual: worst,
    }
}

/// Verifies Lemma 5's lifting for `SCU(0, 1)` at sizes where the
/// `3ⁿ − 1`-state individual chain cannot be enumerated, via *strong
/// lumpability*: the kernel condition
/// `Σ_{y : f(y) = j} P'(x, y) = P(f(x), j)` for every individual state
/// `x` implies the ergodic-flow homomorphism of Definition 2 for
/// whatever stationary distribution the chains have, so checking it
/// row-by-row needs no solves and no full enumeration.
///
/// The check is symmetry-reduced: the lifting map and the dynamics are
/// invariant under permuting process indices, so the kernel condition
/// holds for every `x` in a permutation orbit iff it holds for one
/// member. Each system state `(a, b)` is one orbit; the check visits
/// its canonical representative (`a`×`Read`, `b`×`OldCas`, rest
/// `CCas`) and, to guard the symmetry argument itself, an extra
/// `samples_per_class` seeded random permutations of it. Total work is
/// `O(n³ · samples)` for the `Θ(n²)` classes — at `n = 100` that is
/// 5150 classes against 3¹⁰⁰ − 1 ≈ 5 · 10⁴⁷ individual states.
///
/// It builds [`sparse_system_chain`]`(n)` once and runs
/// [`verify_lifting_chunk`] over a single all-classes [`OrbitChunk`].
/// For parallel fan-out, split the classes with [`orbit_chunks`] and
/// [`merge`](SymmetryLiftingReport::merge) the per-chunk reports —
/// per-class RNG seeding makes any chunking byte-identical to this
/// serial sweep.
///
/// # Errors
///
/// Propagates chain-construction errors (none occur for valid `n`).
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn verify_lifting_by_symmetry(
    n: usize,
    samples_per_class: usize,
    seed: u64,
) -> Result<SymmetryLiftingReport, LatencyError> {
    let chain = sparse_system_chain(n)?;
    let chunk = OrbitChunk {
        n,
        first_class: 0,
        classes: chain.len(),
    };
    Ok(verify_lifting_chunk(
        &chain,
        &chunk,
        samples_per_class,
        seed,
    ))
}

/// Per-state success probability in the system chain: a step from
/// `(a, b)` is a success iff a `CCAS` process is scheduled, i.e. with
/// probability `(n − a − b)/n`.
pub fn system_success_probabilities(chain: &MarkovChain<SystemState>, n: usize) -> Vec<f64> {
    chain
        .states()
        .iter()
        .map(|&(a, b)| (n - a - b) as f64 / n as f64)
        .collect()
}

/// Exact system latency `W` of `SCU(0, 1)` on `n` processes, from the
/// stationary distribution of the system chain (the quantity bounded
/// by `O(√n)` in Theorem 5).
///
/// # Errors
///
/// Propagates chain and stationary-distribution errors.
pub fn exact_system_latency(n: usize) -> Result<f64, LatencyError> {
    let chain = system_chain(n)?;
    let pi = stationary_distribution(&chain)?;
    let succ = system_success_probabilities(&chain, n);
    Ok(latency_from_success_probabilities(&pi, &succ))
}

/// Exact individual latency `W_i` of process `i` in `SCU(0, 1)` on `n`
/// processes, from the individual chain (Lemma 7 asserts this equals
/// `n · W`; tests verify it).
///
/// # Errors
///
/// Propagates chain and stationary-distribution errors.
///
/// # Panics
///
/// Panics if `i >= n` or `n > MAX_INDIVIDUAL_N`.
pub fn exact_individual_latency(n: usize, i: usize) -> Result<f64, LatencyError> {
    let chain = individual_chain(n)?;
    let pi = stationary_distribution(&chain)?;
    Ok(individual_latency_from_stationary(&chain, &pi, n, i))
}

/// Individual latency `W_i` of process `i` from the individual chain
/// on `n` processes and its stationary distribution `pi` — for callers
/// that already solved the chain.
///
/// # Panics
///
/// Panics if `i >= n` or `pi` does not match the chain's length.
pub fn individual_latency_from_stationary(
    chain: &MarkovChain<IndividualState>,
    pi: &[f64],
    n: usize,
    i: usize,
) -> f64 {
    assert!(i < n, "process index out of range");
    // η_i = Σ_{x : x[i] = CCas} π'_x / n (Lemma 7).
    let succ: Vec<f64> = chain
        .states()
        .iter()
        .map(|s| {
            if s[i] == PState::CCas {
                1.0 / n as f64
            } else {
                0.0
            }
        })
        .collect();
    latency_from_success_probabilities(pi, &succ)
}

/// Errors from exact-latency computations.
#[derive(Debug)]
pub enum LatencyError {
    /// Chain construction failed.
    Chain(ChainError),
    /// Stationary-distribution computation failed.
    Stationary(StationaryError),
}

impl std::fmt::Display for LatencyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LatencyError::Chain(e) => write!(f, "chain construction failed: {e}"),
            LatencyError::Stationary(e) => write!(f, "stationary computation failed: {e}"),
        }
    }
}

impl std::error::Error for LatencyError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LatencyError::Chain(e) => Some(e),
            LatencyError::Stationary(e) => Some(e),
        }
    }
}

impl From<ChainError> for LatencyError {
    fn from(e: ChainError) -> Self {
        LatencyError::Chain(e)
    }
}

impl From<StationaryError> for LatencyError {
    fn from(e: StationaryError) -> Self {
        LatencyError::Stationary(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pwf_markov::lifting::verify_lifting;
    use pwf_markov::structure::analyze;

    #[test]
    fn individual_chain_has_3n_minus_1_states() {
        for n in 1..=4 {
            let c = individual_chain(n).unwrap();
            assert_eq!(c.len(), 3usize.pow(n as u32) - 1, "n = {n}");
        }
    }

    #[test]
    fn system_chain_state_count() {
        // (n+1)(n+2)/2 − 1 states.
        for n in 1..=10 {
            let c = system_chain(n).unwrap();
            assert_eq!(c.len(), (n + 1) * (n + 2) / 2 - 1, "n = {n}");
        }
    }

    #[test]
    fn lemma_3_chains_are_irreducible_with_period_two() {
        // Deviation note: the paper's Lemma 3 calls both chains
        // ergodic, but every transition changes the number of `Read`
        // processes by exactly ±1, so the chains are bipartite with
        // period 2. Irreducibility — which is all Theorem 1 needs for
        // the unique stationary distribution the analysis rests on —
        // does hold, and time-average behaviour is unaffected.
        for n in 2..=4 {
            let ind = analyze(&individual_chain(n).unwrap());
            let sys = analyze(&system_chain(n).unwrap());
            assert!(ind.irreducible, "individual n={n}");
            assert_eq!(ind.period, 2, "individual n={n}");
            assert!(sys.irreducible, "system n={n}");
            assert_eq!(sys.period, 2, "system n={n}");
        }
    }

    #[test]
    fn lemma_5_system_chain_is_lifting_of_individual() {
        for n in 2..=5 {
            let ind = individual_chain(n).unwrap();
            let sys = system_chain(n).unwrap();
            let report = verify_lifting(&ind, &sys, lift, 1e-8)
                .unwrap_or_else(|e| panic!("lifting failed for n={n}: {e}"));
            assert!(report.flow_residual < 1e-9, "n = {n}");
            assert!(report.stationary_residual < 1e-9, "n = {n}");
        }
    }

    #[test]
    fn lemma_7_individual_latency_is_n_times_system() {
        for n in 2..=5 {
            let w = exact_system_latency(n).unwrap();
            let wi = exact_individual_latency(n, 0).unwrap();
            assert!(
                (wi - n as f64 * w).abs() < 1e-6,
                "n={n}: W_i={wi}, n·W={}",
                n as f64 * w
            );
        }
    }

    #[test]
    fn lemma_6_symmetric_states_have_equal_stationary_probability() {
        let n = 3;
        let chain = individual_chain(n).unwrap();
        let pi = stationary_distribution(&chain).unwrap();
        // States that are permutations of each other have equal π.
        let a = chain
            .state_index(&vec![PState::Read, PState::CCas, PState::OldCas])
            .unwrap();
        let b = chain
            .state_index(&vec![PState::OldCas, PState::Read, PState::CCas])
            .unwrap();
        assert!((pi[a] - pi[b]).abs() < 1e-12);
    }

    #[test]
    fn single_process_system_latency_is_two() {
        // n = 1: read, CAS, read, CAS … every second step succeeds.
        let w = exact_system_latency(1).unwrap();
        assert!((w - 2.0).abs() < 1e-9);
    }

    #[test]
    fn theorem_5_system_latency_is_order_sqrt_n() {
        // W/√n should be bounded and roughly flat.
        let ratios: Vec<f64> = [4, 16, 36, 64]
            .iter()
            .map(|&n| exact_system_latency(n).unwrap() / (n as f64).sqrt())
            .collect();
        for r in &ratios {
            assert!(*r > 0.5 && *r < 4.0, "ratios {ratios:?}");
        }
        // Ratio should not grow: later ratios within 50% of earlier.
        assert!(
            ratios.last().unwrap() < &(ratios.first().unwrap() * 1.5),
            "ratios {ratios:?}"
        );
    }

    #[test]
    fn lift_counts_states() {
        let s = vec![PState::Read, PState::OldCas, PState::CCas, PState::Read];
        assert_eq!(lift(&s), (2, 1));
    }

    #[test]
    fn initial_state_all_read_exists() {
        let n = 3;
        let c = individual_chain(n).unwrap();
        assert!(c.state_index(&vec![PState::Read; n]).is_some());
        // The all-OldCas state must not exist.
        assert!(c.state_index(&vec![PState::OldCas; n]).is_none());
    }

    #[test]
    #[should_panic(expected = "3^n - 1")]
    fn oversized_individual_chain_panics() {
        let _ = individual_chain(MAX_INDIVIDUAL_N + 1);
    }
}

#[cfg(test)]
mod sparse_tests {
    use super::*;

    fn large_system_latency(n: usize, max_iters: usize, tol: f64) -> f64 {
        large_system_latency_with(n, &PowerOptions::new(max_iters, tol), None)
            .unwrap()
            .0
    }

    #[test]
    fn sparse_chain_matches_dense_latency() {
        for n in [4usize, 16, 64] {
            let dense = exact_system_latency(n).unwrap();
            let sparse = large_system_latency(n, 200_000, 1e-12);
            assert!(
                (dense - sparse).abs() / dense < 1e-6,
                "n={n}: dense {dense} vs sparse {sparse}"
            );
        }
    }

    #[test]
    fn sparse_chain_is_irreducible() {
        let c = sparse_system_chain(32).unwrap();
        assert!(c.is_irreducible());
        assert_eq!(c.len(), 33 * 34 / 2 - 1);
        // ≤ 3 transitions per state.
        assert!(c.nnz() <= 3 * c.len());
    }

    #[test]
    fn large_n_latency_continues_sqrt_trend() {
        // n = 256 is past the dense cap; W/√n must stay in the same
        // narrow band the dense values occupy.
        let w = large_system_latency(256, 400_000, 1e-11);
        let ratio = w / 16.0;
        assert!(ratio > 1.6 && ratio < 2.0, "W/sqrt(n) = {ratio}");
    }

    #[test]
    fn latency_with_reports_solver_work() {
        let (w, stats) =
            large_system_latency_with(64, &PowerOptions::new(400_000, 1e-10), None).unwrap();
        assert!(w > 0.0);
        assert!(stats.iterations > 0);
        assert!(stats.residual.is_finite());
    }

    #[test]
    fn large_system_latency_is_pinned_bitwise() {
        // W and the iteration count at the options every caller uses
        // (serve, pwfbench's trace cross-check, the experiments). Served
        // bodies and goldens print these numbers, so any change to the
        // chain's interning order, row layout or the solver's float
        // schedule must show up here first.
        let opts = PowerOptions::new(500_000, 1e-12);
        for (n, bits, iterations) in [
            (8usize, 0x4016_1f5c_b564_b453_u64, 208usize),
            (33, 0x4025_8f0d_8faa_8373, 915),
            (64, 0x402d_9854_7b9b_9db2, 1806),
            (100, 0x4032_5a42_a101_a8f8, 2846),
        ] {
            let (w, stats) = large_system_latency_with(n, &opts, None).unwrap();
            assert_eq!(w.to_bits(), bits, "n={n}: W = {w}");
            assert_eq!(stats.iterations, iterations, "n={n}");
        }
    }

    #[test]
    fn sparse_individual_chain_matches_dense() {
        let n = 4;
        let sparse = sparse_individual_chain(n).unwrap();
        let dense = individual_chain(n).unwrap();
        assert_eq!(sparse.len(), dense.len());
        // Distinct processes always produce distinct successors here,
        // so each row has exactly n entries.
        assert_eq!(sparse.nnz(), sparse.len() * n);
        for i in 0..sparse.len() {
            for (j, p) in sparse.row(i) {
                assert!((p - dense.prob(i, j as usize)).abs() < 1e-15);
            }
        }
    }
}

#[cfg(test)]
mod lifting_tests {
    use super::*;
    use pwf_markov::lifting::kernel_residual_sparse;

    #[test]
    fn kernel_condition_holds_exhaustively_for_small_n() {
        // The strong-lumpability (kernel) condition checked over every
        // individual state — the ground truth the symmetry-reduced
        // check must reproduce.
        for n in 2..=6 {
            let ind = sparse_individual_chain(n).unwrap();
            let sys = sparse_system_chain(n).unwrap();
            let r = kernel_residual_sparse(&ind, &sys, lift).unwrap();
            assert!(r < 1e-12, "n={n}: kernel residual {r}");
        }
    }

    #[test]
    fn symmetry_check_matches_exhaustive_kernel_check() {
        for n in 2..=6 {
            let report = verify_lifting_by_symmetry(n, 3, 0xA11CE).unwrap();
            assert!(
                report.kernel_residual < 1e-12,
                "n={n}: residual {}",
                report.kernel_residual
            );
            assert_eq!(report.classes, (n + 1) * (n + 2) / 2 - 1);
            assert_eq!(report.states_checked, report.classes * 4);
        }
    }

    #[test]
    fn chunked_check_merges_to_the_serial_report() {
        // Any chunking must reproduce the single-chunk sweep exactly:
        // per-class seeding makes the sampled permutations chunk-shape
        // independent, and merge is max/sum.
        let n = 9;
        let serial = verify_lifting_by_symmetry(n, 3, 0xFEED).unwrap();
        let chain = sparse_system_chain(n).unwrap();
        for chunk_size in [1usize, 7, 16, 1000] {
            let chunks = orbit_chunks(n, chunk_size);
            assert_eq!(
                chunks.iter().map(|c| c.classes).sum::<usize>(),
                serial.classes,
                "chunks must partition the classes"
            );
            let merged = chunks
                .iter()
                .map(|c| verify_lifting_chunk(&chain, c, 3, 0xFEED))
                .reduce(|acc, r| acc.merge(&r))
                .unwrap();
            assert_eq!(merged.classes, serial.classes);
            assert_eq!(merged.states_checked, serial.states_checked);
            assert_eq!(
                merged.kernel_residual.to_bits(),
                serial.kernel_residual.to_bits(),
                "chunk_size {chunk_size}"
            );
        }
    }

    #[test]
    fn symmetry_check_verifies_lifting_at_n_100() {
        // The acceptance bar for the symmetry-reduced check: Lemma 5
        // verified at n = 100 (5150 classes, 3¹⁰⁰ − 1 individual
        // states) with residual at float-rounding level.
        let report = verify_lifting_by_symmetry(100, 1, 0xD00D).unwrap();
        assert_eq!(report.classes, 101 * 102 / 2 - 1);
        assert_eq!(report.states_checked, report.classes * 2);
        assert!(
            report.kernel_residual < 1e-12,
            "residual {}",
            report.kernel_residual
        );
    }

    #[test]
    fn symmetry_check_verifies_lifting_at_n_20() {
        // The acceptance bar for the sparse-first engine: Lemma 5
        // verified at n = 20, far past the 3ⁿ − 1 enumeration wall.
        let report = verify_lifting_by_symmetry(20, 4, 0xBEEF).unwrap();
        assert_eq!(report.classes, 21 * 22 / 2 - 1);
        assert!(
            report.kernel_residual < 1e-12,
            "residual {}",
            report.kernel_residual
        );
    }
}
