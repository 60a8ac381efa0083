//! Lock-freedom auditing over the explored state graph.
//!
//! The explorer ([`crate::explore`]) catches livelocks *within* one
//! execution (a repeated completion-free state). This module adds the
//! global check: in the union of all explored transitions, is there a
//! reachable cycle containing no operation completion? Such a cycle
//! can be scheduled forever, producing an infinite execution in which
//! no process completes — refuting lock-freedom even when no single
//! bounded execution repeats a state.
//!
//! The checker also verifies the paper's Theorem 3 *exhaustively*:
//! under a stochastic (fair) scheduler, progress fails precisely when
//! some reachable state can never again reach a completion — i.e. the
//! merged graph has a reachable *bottom* strongly-connected component
//! that contains a cycle but no completion edge. [`StateGraph::fair_livelock`]
//! finds such components. This is strictly weaker than
//! [`StateGraph::completion_free_cycle`]: a spin loop with an escape
//! edge refutes lock-freedom (an adversarial scheduler stays in it
//! forever) but passes the fair audit (a stochastic scheduler leaves
//! it with probability 1) — exactly the gap between the paper's
//! worst-case and practically-wait-free claims, and the standard
//! blocking-by-design targets ([`crate::target::Progress::StochasticOnly`])
//! are held to.
//!
//! A second, stochastic angle reuses the workspace's Theorem 3 audit
//! (`pwf_core::progress_audit`): long uniform-scheduler runs of the
//! *unbounded* algorithm confirm that bounded minimal progress holds
//! in the large, complementing the small-config exhaustive proof.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

use pwf_core::progress_audit::{audit as stochastic_audit, ProgressAuditReport};
use pwf_core::spec::{AlgorithmSpec, SchedulerSpec};
use pwf_sim::crash::CrashScheduleError;

/// Hasher of the fingerprint-keyed maps below: one multiply-rotate per
/// word. The keys are already 64-bit hashes of internal state, not
/// external input, so SipHash's flooding resistance buys nothing.
#[derive(Default)]
struct FpHasher(u64);

impl Hasher for FpHasher {
    fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.write_u64(u64::from(*b));
        }
    }

    fn write_u64(&mut self, w: u64) {
        self.0 = (self.0.rotate_left(26) ^ w).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type FpMap<V> = HashMap<u64, V, BuildHasherDefault<FpHasher>>;

/// The explored state graph: fingerprint-keyed states, transitions
/// annotated with whether they completed an operation, and for each
/// state the first schedule prefix that reached it (a witness).
#[derive(Debug, Default)]
pub struct StateGraph {
    edges: FpMap<Vec<(u64, bool)>>,
    edge_set: HashSet<(u64, u64, bool), BuildHasherDefault<FpHasher>>,
    first_prefix: FpMap<Vec<usize>>,
}

impl StateGraph {
    /// Records a state and (if new) the schedule prefix reaching it.
    pub fn note_state(&mut self, fp: u64, prefix: &[usize]) {
        self.first_prefix
            .entry(fp)
            .or_insert_with(|| prefix.to_vec());
    }

    /// Records a transition; returns `true` if it was new.
    pub fn note_edge(&mut self, from: u64, to: u64, completed: bool) -> bool {
        if self.edge_set.insert((from, to, completed)) {
            self.edges.entry(from).or_default().push((to, completed));
            true
        } else {
            false
        }
    }

    /// Number of distinct states recorded.
    pub fn state_count(&self) -> usize {
        self.first_prefix.len()
    }

    /// The first schedule prefix that reached `fp`, if recorded.
    pub fn witness_prefix(&self, fp: u64) -> Option<&[usize]> {
        self.first_prefix.get(&fp).map(Vec::as_slice)
    }

    /// The fair-progress (Theorem 3) audit: finds a reachable bottom
    /// strongly-connected component that contains at least one edge
    /// but no completion edge. From any state of such a component no
    /// completion is ever reachable, so *every* scheduler — fair or
    /// not — starves the processes; its existence refutes progress
    /// under the paper's stochastic scheduler. Conversely, a
    /// completion-free cycle that can still *exit* toward a completion
    /// is left alone: a fair scheduler escapes it with probability 1.
    ///
    /// Returns the state of a violating component that the shortest
    /// recorded schedule prefix reached first, ties broken by the
    /// lexicographically smallest prefix, or `None` when every fair
    /// execution keeps completing operations. The choice depends on the
    /// explored schedules alone, not on fingerprint values or map
    /// iteration order. States with no recorded prefix (possible only
    /// in a hand-built graph) come last, smallest fingerprint first.
    ///
    /// Soundness requires an *edge-complete* graph (an unpruned
    /// exploration): sleep-set reduction omits edges whose
    /// interleavings are covered from equivalent states elsewhere, and
    /// a missing escape edge can make an escapable spin state look
    /// like a bottom component. On a pruned graph, only trust a `None`
    /// (and note that [`Self::completion_free_cycle`] returning `None`
    /// already implies it: a completion-free bottom component contains
    /// a completion-free cycle).
    pub fn fair_livelock(&self) -> Option<u64> {
        // Node universe: everything noted plus every edge endpoint,
        // sorted so component numbering is deterministic.
        let mut nodes: Vec<u64> = self.first_prefix.keys().copied().collect();
        for (&from, outs) in &self.edges {
            nodes.push(from);
            nodes.extend(outs.iter().map(|&(to, _)| to));
        }
        nodes.sort_unstable();
        nodes.dedup();
        let idx_of: FpMap<usize> = nodes.iter().enumerate().map(|(i, &f)| (f, i)).collect();
        let adj: Vec<Vec<usize>> = nodes
            .iter()
            .map(|f| {
                self.edges.get(f).map_or_else(Vec::new, |outs| {
                    outs.iter().map(|&(to, _)| idx_of[&to]).collect()
                })
            })
            .collect();
        let n = nodes.len();

        // Iterative Tarjan SCC.
        let mut order = vec![usize::MAX; n];
        let mut low = vec![0usize; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<usize> = Vec::new();
        let mut comp = vec![usize::MAX; n];
        let mut next_order = 0usize;
        let mut ncomps = 0usize;
        for root in 0..n {
            if order[root] != usize::MAX {
                continue;
            }
            let mut call: Vec<(usize, usize)> = vec![(root, 0)];
            order[root] = next_order;
            low[root] = next_order;
            next_order += 1;
            stack.push(root);
            on_stack[root] = true;
            while let Some(&(v, cursor)) = call.last() {
                if let Some(&w) = adj[v].get(cursor) {
                    call.last_mut().expect("frame exists").1 += 1;
                    if order[w] == usize::MAX {
                        order[w] = next_order;
                        low[w] = next_order;
                        next_order += 1;
                        stack.push(w);
                        on_stack[w] = true;
                        call.push((w, 0));
                    } else if on_stack[w] {
                        low[v] = low[v].min(order[w]);
                    }
                } else {
                    call.pop();
                    if low[v] == order[v] {
                        loop {
                            let w = stack.pop().expect("SCC stack underflow");
                            on_stack[w] = false;
                            comp[w] = ncomps;
                            if w == v {
                                break;
                            }
                        }
                        ncomps += 1;
                    }
                    if let Some(&(u, _)) = call.last() {
                        low[u] = low[u].min(low[v]);
                    }
                }
            }
        }

        // Per-component: any internal edge, any internal completion,
        // any edge out to another component.
        let mut internal = vec![false; ncomps];
        let mut completes = vec![false; ncomps];
        let mut outgoing = vec![false; ncomps];
        for (&from, outs) in &self.edges {
            let cf = comp[idx_of[&from]];
            for &(to, completed) in outs {
                let ct = comp[idx_of[&to]];
                if cf == ct {
                    internal[cf] = true;
                    if completed {
                        completes[cf] = true;
                    }
                } else {
                    outgoing[cf] = true;
                }
            }
        }
        nodes
            .iter()
            .enumerate()
            .filter(|&(i, _)| {
                let c = comp[i];
                internal[c] && !completes[c] && !outgoing[c]
            })
            .map(|(_, &fp)| fp)
            .min_by_key(|&fp| {
                let prefix = self.witness_prefix(fp);
                (prefix.is_none(), prefix.map(|p| (p.len(), p)), fp)
            })
    }

    /// Searches the completion-free transition subgraph for a cycle.
    /// Returns a state on the cycle, or `None` when every cycle of the
    /// explored graph completes an operation — the explored witness of
    /// lock-freedom.
    pub fn completion_free_cycle(&self) -> Option<u64> {
        // Iterative three-colour DFS over edges with `completed ==
        // false`.
        #[derive(Clone, Copy, PartialEq)]
        enum Colour {
            White,
            Grey,
            Black,
        }
        let mut colour: FpMap<Colour> = FpMap::default();
        for &root in self.first_prefix.keys() {
            if *colour.get(&root).unwrap_or(&Colour::White) != Colour::White {
                continue;
            }
            // Stack of (node, next-child-index).
            let mut stack: Vec<(u64, usize)> = vec![(root, 0)];
            colour.insert(root, Colour::Grey);
            while let Some(&mut (node, ref mut idx)) = stack.last_mut() {
                let children = self.edges.get(&node);
                let next = children.and_then(|cs| {
                    cs.iter()
                        .skip(*idx)
                        .position(|&(_, completed)| !completed)
                        .map(|off| (*idx + off, cs[*idx + off].0))
                });
                match next {
                    Some((child_idx, child)) => {
                        *idx = child_idx + 1;
                        match *colour.get(&child).unwrap_or(&Colour::White) {
                            Colour::Grey => return Some(child),
                            Colour::White => {
                                colour.insert(child, Colour::Grey);
                                stack.push((child, 0));
                            }
                            Colour::Black => {}
                        }
                    }
                    None => {
                        colour.insert(node, Colour::Black);
                        stack.pop();
                    }
                }
            }
        }
        None
    }
}

/// Runs the workspace's stochastic Theorem 3 progress audit for one of
/// the paper's algorithm specs — the large-scale complement to the
/// exhaustive small-config exploration.
///
/// # Errors
///
/// Propagates crash-schedule validation errors from the underlying
/// experiment (none occur without crashes).
pub fn stochastic_progress(
    algorithm: AlgorithmSpec,
    n: usize,
    steps: u64,
    seed: u64,
) -> Result<ProgressAuditReport, CrashScheduleError> {
    stochastic_audit(algorithm, SchedulerSpec::Uniform, n, steps, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acyclic_graph_has_no_completion_free_cycle() {
        let mut g = StateGraph::default();
        g.note_state(1, &[]);
        g.note_state(2, &[0]);
        g.note_state(3, &[0, 1]);
        g.note_edge(1, 2, false);
        g.note_edge(2, 3, false);
        assert_eq!(g.completion_free_cycle(), None);
        assert_eq!(g.state_count(), 3);
    }

    #[test]
    fn cycle_broken_by_completion_is_accepted() {
        let mut g = StateGraph::default();
        g.note_state(1, &[]);
        g.note_state(2, &[0]);
        g.note_edge(1, 2, false);
        g.note_edge(2, 1, true); // the cycle completes an op
        assert_eq!(g.completion_free_cycle(), None);
    }

    #[test]
    fn completion_free_cycle_is_found() {
        let mut g = StateGraph::default();
        g.note_state(1, &[]);
        g.note_state(2, &[0]);
        g.note_state(3, &[0, 1]);
        g.note_edge(1, 2, false);
        g.note_edge(2, 3, false);
        g.note_edge(3, 2, false);
        let hit = g.completion_free_cycle().expect("cycle exists");
        assert!(hit == 2 || hit == 3);
        assert!(g.witness_prefix(hit).is_some());
    }

    #[test]
    fn duplicate_edges_are_not_recorded_twice() {
        let mut g = StateGraph::default();
        assert!(g.note_edge(1, 2, false));
        assert!(!g.note_edge(1, 2, false));
        assert!(g.note_edge(1, 2, true), "completion flag distinguishes");
    }

    #[test]
    fn stochastic_progress_confirms_scu_minimal_progress() {
        let report = stochastic_progress(AlgorithmSpec::Scu { q: 0, s: 1 }, 3, 50_000, 11).unwrap();
        assert!(report.minimal_bound.is_some());
    }

    #[test]
    fn self_loop_without_completion_is_a_livelock() {
        let mut g = StateGraph::default();
        g.note_state(5, &[]);
        g.note_edge(5, 5, false);
        assert_eq!(g.completion_free_cycle(), Some(5));
    }

    #[test]
    fn escapable_spin_loop_fails_lock_freedom_but_passes_the_fair_audit() {
        // 1 ⇄ 2 is a completion-free cycle, but 2 → 3 completes an op:
        // an adversarial scheduler can spin forever (not lock-free),
        // while a stochastic one escapes with probability 1 (Thm 3
        // progress holds). This is exactly the gap between the two
        // audits.
        let mut g = StateGraph::default();
        g.note_state(1, &[]);
        g.note_state(2, &[0]);
        g.note_state(3, &[0, 1]);
        g.note_edge(1, 2, false);
        g.note_edge(2, 1, false);
        g.note_edge(2, 3, true);
        assert!(g.completion_free_cycle().is_some());
        assert_eq!(g.fair_livelock(), None);
    }

    #[test]
    fn completion_free_bottom_component_fails_the_fair_audit() {
        // 1 → {2 ⇄ 3} with no exit and no completion: once inside, no
        // scheduler — fair or not — ever completes an operation.
        let mut g = StateGraph::default();
        g.note_state(1, &[]);
        g.note_edge(1, 2, true);
        g.note_edge(2, 3, false);
        g.note_edge(3, 2, false);
        assert_eq!(g.fair_livelock(), Some(2), "smallest member is returned");
    }

    #[test]
    fn fair_livelock_witness_is_the_state_with_the_shortest_prefix() {
        // 1 → {9 ⇄ 4 ⇄ 6}: 9 has the shortest prefix, though 4 is the
        // smallest fingerprint.
        let mut g = StateGraph::default();
        g.note_state(1, &[]);
        g.note_state(9, &[1]);
        g.note_state(4, &[1, 0]);
        g.note_state(6, &[1, 0, 0]);
        g.note_edge(1, 9, true);
        g.note_edge(9, 4, false);
        g.note_edge(4, 9, false);
        g.note_edge(4, 6, false);
        g.note_edge(6, 4, false);
        assert_eq!(g.fair_livelock(), Some(9));
        // Equal lengths: the lexicographically smaller prefix wins.
        let mut g = StateGraph::default();
        g.note_state(1, &[]);
        g.note_state(5, &[1, 0]);
        g.note_state(8, &[0, 1]);
        g.note_edge(1, 5, true);
        g.note_edge(1, 8, true);
        g.note_edge(5, 8, false);
        g.note_edge(8, 5, false);
        assert_eq!(g.fair_livelock(), Some(8));
    }

    #[test]
    fn bottom_component_with_an_internal_completion_passes() {
        let mut g = StateGraph::default();
        g.note_state(1, &[]);
        g.note_edge(1, 2, false);
        g.note_edge(2, 1, true); // the cycle keeps completing ops
        assert_eq!(g.fair_livelock(), None);
    }

    #[test]
    fn terminal_states_are_not_fair_livelocks() {
        let mut g = StateGraph::default();
        g.note_state(1, &[]);
        g.note_state(2, &[0]);
        g.note_edge(1, 2, true);
        assert_eq!(g.fair_livelock(), None, "sinks without cycles are fine");
    }

    #[test]
    fn completion_free_self_loop_sink_fails_both_audits() {
        let mut g = StateGraph::default();
        g.note_state(7, &[]);
        g.note_edge(7, 7, false);
        assert_eq!(g.completion_free_cycle(), Some(7));
        assert_eq!(g.fair_livelock(), Some(7));
    }
}
