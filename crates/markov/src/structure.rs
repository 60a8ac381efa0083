//! Structural properties of chains: irreducibility, periodicity,
//! ergodicity (hypotheses of Theorems 1 and 2 in the paper).
//!
//! All traversals run on an [`Adjacency`] — a CSR positive-probability
//! graph extracted once per analysis from either chain representation
//! — so dense chains pay one `O(n²)` matrix scan up front instead of
//! re-scanning rows inside every BFS/DFS step, and sparse chains pay
//! `O(nnz)`. Irreducibility is Tarjan's strongly-connected-components
//! algorithm (iterative, one pass); the period uses the BFS-level gcd
//! trick.

use std::collections::VecDeque;
use std::hash::Hash;

use crate::chain::MarkovChain;
use crate::sparse::SparseChain;

/// Structural classification of a chain, produced by [`analyze`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StructureReport {
    /// Whether every state reaches every other state.
    pub irreducible: bool,
    /// The period (gcd of closed-walk lengths through state 0's
    /// communicating class); `1` means aperiodic. Only meaningful when
    /// `irreducible` is true.
    pub period: usize,
}

impl StructureReport {
    /// Whether the chain is ergodic (irreducible and aperiodic), so
    /// Theorems 1–2 apply: a unique stationary distribution exists and
    /// every initial distribution converges to it.
    pub fn is_ergodic(&self) -> bool {
        self.irreducible && self.period == 1
    }
}

/// The positive-probability graph of a chain in CSR form: the one
/// object every structural traversal runs on, built exactly once per
/// analysis.
#[derive(Debug, Clone)]
pub struct Adjacency {
    row_ptr: Vec<usize>,
    cols: Vec<u32>,
}

impl Adjacency {
    /// Extracts the adjacency of a dense chain in one matrix scan.
    pub fn from_dense<S: Clone + Eq + Hash>(chain: &MarkovChain<S>) -> Self {
        let n = chain.len();
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut cols = Vec::new();
        row_ptr.push(0);
        for i in 0..n {
            for j in 0..n {
                if chain.prob(i, j) > 0.0 {
                    cols.push(j as u32);
                }
            }
            row_ptr.push(cols.len());
        }
        Adjacency { row_ptr, cols }
    }

    /// Extracts the adjacency of a sparse chain (drops explicit zero
    /// entries, if any).
    pub fn from_sparse<S: Clone + Eq + Hash>(chain: &SparseChain<S>) -> Self {
        let n = chain.len();
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut cols = Vec::with_capacity(chain.nnz());
        row_ptr.push(0);
        for i in 0..n {
            for (j, p) in chain.row(i) {
                if p > 0.0 {
                    cols.push(j);
                }
            }
            row_ptr.push(cols.len());
        }
        Adjacency { row_ptr, cols }
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.row_ptr.len() - 1
    }

    /// Whether the graph has no vertices.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Out-neighbours of `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of bounds.
    pub fn neighbors(&self, u: usize) -> &[u32] {
        &self.cols[self.row_ptr[u]..self.row_ptr[u + 1]]
    }

    /// Number of strongly connected components (iterative Tarjan).
    pub fn scc_count(&self) -> usize {
        let n = self.len();
        const UNVISITED: usize = usize::MAX;
        let mut disc = vec![UNVISITED; n];
        let mut low = vec![0usize; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<usize> = Vec::new();
        // Explicit DFS frames: (vertex, next out-edge offset).
        let mut frames: Vec<(usize, usize)> = Vec::new();
        let mut next_disc = 0usize;
        let mut components = 0usize;

        for root in 0..n {
            if disc[root] != UNVISITED {
                continue;
            }
            disc[root] = next_disc;
            low[root] = next_disc;
            next_disc += 1;
            stack.push(root);
            on_stack[root] = true;
            frames.push((root, 0));

            while let Some(frame) = frames.last_mut() {
                let u = frame.0;
                let edges = &self.cols[self.row_ptr[u]..self.row_ptr[u + 1]];
                if frame.1 < edges.len() {
                    let v = edges[frame.1] as usize;
                    frame.1 += 1;
                    if disc[v] == UNVISITED {
                        disc[v] = next_disc;
                        low[v] = next_disc;
                        next_disc += 1;
                        stack.push(v);
                        on_stack[v] = true;
                        frames.push((v, 0));
                    } else if on_stack[v] {
                        low[u] = low[u].min(disc[v]);
                    }
                } else {
                    frames.pop();
                    if let Some(parent) = frames.last() {
                        let p = parent.0;
                        low[p] = low[p].min(low[u]);
                    }
                    if low[u] == disc[u] {
                        components += 1;
                        loop {
                            let w = stack.pop().expect("Tarjan stack underflow");
                            on_stack[w] = false;
                            if w == u {
                                break;
                            }
                        }
                    }
                }
            }
        }
        components
    }

    /// Whether the graph is strongly connected (one SCC, non-empty).
    pub fn is_strongly_connected(&self) -> bool {
        !self.is_empty() && self.scc_count() == 1
    }

    /// The period of the communicating class containing vertex 0,
    /// computed by the BFS-level trick: for an edge `u → v` with BFS
    /// levels `d(u), d(v)`, every value `d(u) + 1 − d(v)` is a
    /// multiple of the period, and their gcd over all edges *is* the
    /// period. Returns 0 for the degenerate no-closed-walk case.
    pub fn period(&self) -> usize {
        let n = self.len();
        if n == 0 {
            return 0;
        }
        let mut level = vec![usize::MAX; n];
        let mut queue = VecDeque::from([0usize]);
        level[0] = 0;
        let mut g: usize = 0;
        while let Some(u) = queue.pop_front() {
            for &v in self.neighbors(u) {
                let v = v as usize;
                if level[v] == usize::MAX {
                    level[v] = level[u] + 1;
                    queue.push_back(v);
                } else {
                    let diff = (level[u] + 1).abs_diff(level[v]);
                    g = gcd(g, diff);
                }
            }
        }
        g
    }

    /// The [`StructureReport`] of this graph (one traversal pass for
    /// each of irreducibility and period, sharing the adjacency).
    pub fn report(&self) -> StructureReport {
        StructureReport {
            irreducible: self.is_strongly_connected(),
            period: self.period(),
        }
    }
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Whether the chain's positive-probability graph is strongly
/// connected.
pub fn is_irreducible<S: Clone + Eq + Hash>(chain: &MarkovChain<S>) -> bool {
    Adjacency::from_dense(chain).is_strongly_connected()
}

/// The period of the communicating class containing state 0; see
/// [`Adjacency::period`]. For an irreducible chain this is the period
/// of the whole chain.
pub fn period<S: Clone + Eq + Hash>(chain: &MarkovChain<S>) -> usize {
    Adjacency::from_dense(chain).period()
}

/// Whether the chain has at least one self-loop, a cheap sufficient
/// condition for aperiodicity the paper invokes ("If a Markov chain has
/// at least one self-loop, then it is aperiodic").
pub fn has_self_loop<S: Clone + Eq + Hash>(chain: &MarkovChain<S>) -> bool {
    (0..chain.len()).any(|i| chain.prob(i, i) > 0.0)
}

/// Computes the full structural report for a dense chain, building the
/// adjacency once and sharing it between the irreducibility and period
/// traversals.
pub fn analyze<S: Clone + Eq + Hash>(chain: &MarkovChain<S>) -> StructureReport {
    Adjacency::from_dense(chain).report()
}

/// Whether the chain is ergodic (irreducible + aperiodic).
pub fn is_ergodic<S: Clone + Eq + Hash>(chain: &MarkovChain<S>) -> bool {
    analyze(chain).is_ergodic()
}

/// [`is_irreducible`] for sparse chains.
pub fn is_irreducible_sparse<S: Clone + Eq + Hash>(chain: &SparseChain<S>) -> bool {
    Adjacency::from_sparse(chain).is_strongly_connected()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::ChainBuilder;
    use crate::sparse::SparseChainBuilder;

    fn cycle(n: usize) -> MarkovChain<usize> {
        let mut b = ChainBuilder::new();
        for i in 0..n {
            b = b.transition(i, (i + 1) % n, 1.0);
        }
        b.build().unwrap()
    }

    #[test]
    fn cycle_is_irreducible_with_period_n() {
        for n in 2..6 {
            let c = cycle(n);
            assert!(is_irreducible(&c), "cycle of length {n}");
            assert_eq!(period(&c), n);
            assert!(!is_ergodic(&c));
        }
    }

    #[test]
    fn lazy_cycle_is_ergodic() {
        let c = ChainBuilder::new()
            .transition(0, 1, 0.5)
            .transition(0, 0, 0.5)
            .transition(1, 0, 0.5)
            .transition(1, 1, 0.5)
            .build()
            .unwrap();
        assert!(has_self_loop(&c));
        assert!(is_ergodic(&c));
        assert_eq!(period(&c), 1);
    }

    #[test]
    fn disconnected_chain_is_reducible() {
        let c = ChainBuilder::new()
            .transition(0, 0, 1.0)
            .transition(1, 1, 1.0)
            .build()
            .unwrap();
        assert!(!is_irreducible(&c));
        assert!(!is_ergodic(&c));
        assert_eq!(Adjacency::from_dense(&c).scc_count(), 2);
    }

    #[test]
    fn absorbing_state_is_reducible() {
        let c = ChainBuilder::new()
            .transition(0, 1, 1.0)
            .transition(1, 1, 1.0)
            .build()
            .unwrap();
        assert!(!is_irreducible(&c));
    }

    #[test]
    fn even_odd_bipartite_has_period_two() {
        // 4-cycle with chords preserving parity: period 2.
        let c = ChainBuilder::new()
            .transition(0, 1, 0.5)
            .transition(0, 3, 0.5)
            .transition(1, 2, 0.5)
            .transition(1, 0, 0.5)
            .transition(2, 3, 0.5)
            .transition(2, 1, 0.5)
            .transition(3, 0, 0.5)
            .transition(3, 2, 0.5)
            .build()
            .unwrap();
        assert!(is_irreducible(&c));
        assert_eq!(period(&c), 2);
    }

    #[test]
    fn single_state_self_loop_is_ergodic() {
        let c = ChainBuilder::new().transition((), (), 1.0).build().unwrap();
        assert!(is_ergodic(&c));
    }

    #[test]
    fn report_matches_components() {
        let c = cycle(3);
        let r = analyze(&c);
        assert_eq!(r.irreducible, is_irreducible(&c));
        assert_eq!(r.period, period(&c));
    }

    #[test]
    fn tarjan_counts_nested_components() {
        // 0 → 1 ⇄ 2, 3 alone with self-loop: three SCCs ({0}, {1,2}, {3}).
        let c = ChainBuilder::new()
            .transition(0, 1, 1.0)
            .transition(1, 2, 0.5)
            .transition(1, 1, 0.5)
            .transition(2, 1, 1.0)
            .transition(3, 3, 1.0)
            .build()
            .unwrap();
        assert_eq!(Adjacency::from_dense(&c).scc_count(), 3);
        assert!(!is_irreducible(&c));
    }

    #[test]
    fn sparse_analysis_matches_dense() {
        // Same 3-cycle in both representations.
        let dense = cycle(3);
        let mut b = SparseChainBuilder::new();
        for i in 0..3usize {
            b.transition(i, (i + 1) % 3, 1.0);
        }
        let sparse = b.build().unwrap();
        assert_eq!(Adjacency::from_sparse(&sparse).report(), analyze(&dense));
        assert!(is_irreducible_sparse(&sparse));
    }

    #[test]
    fn deep_path_does_not_overflow_stack() {
        // 40k-state cycle: the recursive Tarjan would blow the stack.
        let n = 40_000usize;
        let mut b = SparseChainBuilder::new();
        for i in 0..n {
            b.transition(i, (i + 1) % n, 1.0);
        }
        let c = b.build().unwrap();
        let adj = Adjacency::from_sparse(&c);
        assert_eq!(adj.scc_count(), 1);
        assert_eq!(adj.period(), n);
    }
}
