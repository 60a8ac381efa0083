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

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use pwf_core::progress_audit::{audit as stochastic_audit, ProgressAuditReport};
use pwf_core::spec::{AlgorithmSpec, SchedulerSpec};
use pwf_sim::crash::CrashScheduleError;

/// Hasher of the fingerprint-to-id map below: one multiply-rotate per
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

/// One recorded transition, stored with the state it leaves.
#[derive(Debug, Clone, Copy)]
struct Edge {
    /// Fingerprint of the state reached, so a step recognises a known
    /// edge without looking its target up.
    to_fp: u64,
    /// Id of the state reached.
    to: u32,
    /// Whether the transition completed an operation.
    completed: bool,
}

/// The explored state graph: states numbered densely in discovery
/// order, transitions annotated with whether they completed an
/// operation, and for each state the first schedule prefix that
/// reached it (a witness).
///
/// One map takes a fingerprint to its state's id; everything else is
/// an array indexed by id. A step from a known state whose transition
/// is already recorded finds it among that state's out-edges (at most
/// one per process) and touches no map: only a new transition probes
/// the fingerprint map.
#[derive(Debug, Default)]
pub struct StateGraph {
    ids: FpMap<u32>,
    /// Each state's fingerprint.
    fps: Vec<u64>,
    /// Each state's first prefix, as a range of `prefix_steps`; `None`
    /// for a state only ever named as an edge endpoint (possible only
    /// in a hand-built graph).
    prefixes: Vec<Option<(usize, usize)>>,
    /// Every recorded prefix, concatenated.
    prefix_steps: Vec<usize>,
    /// Each state's distinct out-edges, in the order they were found.
    out: Vec<Vec<Edge>>,
}

impl StateGraph {
    /// The id of state `fp`, numbering it if it is new.
    fn intern(&mut self, fp: u64) -> u32 {
        let next = u32::try_from(self.fps.len()).expect("fewer than 2^32 states");
        let id = *self.ids.entry(fp).or_insert(next);
        if id == next {
            self.fps.push(fp);
            self.prefixes.push(None);
            self.out.push(Vec::new());
        }
        id
    }

    /// Records a state and (if it has none yet) the schedule prefix
    /// reaching it; returns the state's id.
    pub fn note_state(&mut self, fp: u64, prefix: &[usize]) -> u32 {
        let id = self.intern(fp);
        let slot = &mut self.prefixes[id as usize];
        if slot.is_none() {
            let start = self.prefix_steps.len();
            self.prefix_steps.extend_from_slice(prefix);
            *slot = Some((start, self.prefix_steps.len()));
        }
        id
    }

    /// The state reached from state `from` by a recorded transition to
    /// fingerprint `to` with this completion flag, if there is one.
    fn known_edge(&self, from: u32, to: u64, completed: bool) -> Option<u32> {
        self.out[from as usize]
            .iter()
            .find(|e| e.to_fp == to && e.completed == completed)
            .map(|e| e.to)
    }

    /// Records a transition between fingerprints; returns `true` if it
    /// was new. Two transitions from one state to the same state with
    /// the same completion flag are one transition, whichever processes
    /// took them.
    pub fn note_edge(&mut self, from: u64, to: u64, completed: bool) -> bool {
        let from = self.intern(from);
        if self.known_edge(from, to, completed).is_some() {
            return false;
        }
        let to_id = self.intern(to);
        self.out[from as usize].push(Edge {
            to_fp: to,
            to: to_id,
            completed,
        });
        true
    }

    /// Records a step from state id `from` to fingerprint `to`, which
    /// `prefix` reached. A new transition is recorded with its target
    /// state, and the target keeps `prefix` if it had none. Returns the
    /// target's id and whether the transition was new.
    pub(crate) fn note_step(
        &mut self,
        from: u32,
        to: u64,
        completed: bool,
        prefix: &[usize],
    ) -> (u32, bool) {
        if let Some(id) = self.known_edge(from, to, completed) {
            return (id, false);
        }
        let id = self.note_state(to, prefix);
        self.out[from as usize].push(Edge {
            to_fp: to,
            to: id,
            completed,
        });
        (id, true)
    }

    /// Number of distinct states recorded.
    pub fn state_count(&self) -> usize {
        self.fps.len()
    }

    /// The first schedule prefix that reached `fp`, if recorded.
    pub fn witness_prefix(&self, fp: u64) -> Option<&[usize]> {
        let &id = self.ids.get(&fp)?;
        self.prefix_of(id as usize)
    }

    /// The first prefix of state `id`, if recorded.
    fn prefix_of(&self, id: usize) -> Option<&[usize]> {
        self.prefixes[id].map(|(start, end)| &self.prefix_steps[start..end])
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
    /// explored schedules alone, not on fingerprint values or the order
    /// states were found in. States with no recorded prefix (possible
    /// only in a hand-built graph) come last, smallest fingerprint
    /// first.
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
        let n = self.fps.len();

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
                if let Some(e) = self.out[v].get(cursor) {
                    let w = e.to as usize;
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
        for (from, outs) in self.out.iter().enumerate() {
            let cf = comp[from];
            for e in outs {
                if cf == comp[e.to as usize] {
                    internal[cf] = true;
                    completes[cf] |= e.completed;
                } else {
                    outgoing[cf] = true;
                }
            }
        }
        (0..n)
            .filter(|&i| {
                let c = comp[i];
                internal[c] && !completes[c] && !outgoing[c]
            })
            .min_by_key(|&i| {
                let prefix = self.prefix_of(i);
                (prefix.is_none(), prefix.map(|p| (p.len(), p)), self.fps[i])
            })
            .map(|i| self.fps[i])
    }

    /// Searches the completion-free transition subgraph for a cycle.
    /// Returns a state on the cycle, or `None` when every cycle of the
    /// explored graph completes an operation — the explored witness of
    /// lock-freedom.
    pub fn completion_free_cycle(&self) -> Option<u64> {
        // Iterative three-colour DFS over edges with `completed ==
        // false`. A grey state is on the DFS path, so an edge into one
        // closes a cycle through it.
        #[derive(Clone, Copy, PartialEq)]
        enum Colour {
            White,
            Grey,
            Black,
        }
        let mut colour = vec![Colour::White; self.fps.len()];
        // Stack of (state, next out-edge index).
        let mut stack: Vec<(usize, usize)> = Vec::new();
        for root in 0..self.fps.len() {
            if colour[root] != Colour::White {
                continue;
            }
            stack.push((root, 0));
            colour[root] = Colour::Grey;
            while let Some(&mut (node, ref mut idx)) = stack.last_mut() {
                let outs = &self.out[node];
                let next = outs[*idx..].iter().position(|e| !e.completed);
                match next {
                    Some(off) => {
                        let child = outs[*idx + off].to as usize;
                        *idx += off + 1;
                        match colour[child] {
                            Colour::Grey => return Some(self.fps[child]),
                            Colour::White => {
                                colour[child] = Colour::Grey;
                                stack.push((child, 0));
                            }
                            Colour::Black => {}
                        }
                    }
                    None => {
                        colour[node] = Colour::Black;
                        stack.pop();
                    }
                }
            }
        }
        None
    }
}

#[cfg(test)]
impl StateGraph {
    /// Every transition as `(from, to, completed)` fingerprints, sorted.
    pub(crate) fn edge_list(&self) -> Vec<(u64, u64, bool)> {
        let mut edges: Vec<(u64, u64, bool)> = (self.fps.iter().zip(&self.out))
            .flat_map(|(&from, outs)| outs.iter().map(move |e| (from, e.to_fp, e.completed)))
            .collect();
        edges.sort_unstable();
        edges
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
    fn processes_stepping_to_the_same_successor_make_one_transition() {
        // Two processes stepping from one state to the same state, with
        // the same completion flag, record one transition; the flag
        // alone makes a second.
        let mut g = StateGraph::default();
        let root = g.note_state(10, &[]);
        let (to, new) = g.note_step(root, 20, false, &[0]);
        assert!(new);
        assert_eq!(g.note_step(root, 20, false, &[1]), (to, false));
        assert_eq!(g.note_step(root, 20, true, &[1]).0, to);
        assert_eq!(g.edge_list(), [(10, 20, false), (10, 20, true)]);
        assert_eq!(g.state_count(), 2);
        // A known transition is known by fingerprint too.
        assert!(!g.note_edge(10, 20, true));
    }

    #[test]
    fn a_state_keeps_the_prefix_of_the_first_new_edge_into_it() {
        let mut g = StateGraph::default();
        let root = g.note_state(1, &[]);
        let (a, _) = g.note_step(root, 2, false, &[0]);
        let (b, _) = g.note_step(root, 3, false, &[1]);
        let (via_a, _) = g.note_step(a, 4, false, &[0, 1]);
        let (via_b, new) = g.note_step(b, 4, false, &[1, 0]);
        assert!(new, "a second edge into a known state is a new edge");
        assert_eq!(via_a, via_b);
        assert_eq!(g.witness_prefix(4), Some(&[0, 1][..]));
        // A state first named as an edge endpoint takes the prefix of
        // the first step that reaches it.
        g.note_edge(4, 5, false);
        assert_eq!(g.witness_prefix(5), None);
        g.note_step(via_a, 6, true, &[0, 1, 1]);
        let (five, _) = g.note_step(via_a, 5, true, &[0, 1, 0]);
        assert_eq!(g.witness_prefix(5), Some(&[0, 1, 0][..]));
        g.note_state(5, &[9]);
        assert_eq!(g.witness_prefix(5), Some(&[0, 1, 0][..]));
        assert_eq!(g.note_state(5, &[]), five);
        assert_eq!(g.witness_prefix(7), None, "unknown state");
    }

    #[test]
    fn completion_free_cycle_returns_a_state_on_the_cycle() {
        // A completion-free tail 1 → 2 → … → 8 into the cycle
        // 8 → 9 → 10 → 8, and a completing branch 1 → 11 → 1. The tail
        // is found first, so the returned state must come from the
        // cycle, not the path that led to it.
        let mut g = StateGraph::default();
        g.note_state(1, &[]);
        for fp in 1..8 {
            g.note_edge(fp, fp + 1, false);
        }
        g.note_edge(8, 9, false);
        g.note_edge(9, 10, false);
        g.note_edge(10, 8, false);
        g.note_edge(1, 11, true);
        g.note_edge(11, 1, false);
        let hit = g.completion_free_cycle().expect("8 → 9 → 10 → 8");
        assert!((8..=10).contains(&hit), "{hit} is not on the cycle");
        // Completing the cycle's last edge leaves no completion-free
        // cycle (1 → 11 → 1 completes).
        let mut g2 = StateGraph::default();
        for (from, to, completed) in g.edge_list() {
            g2.note_edge(from, to, completed || (from, to) == (10, 8));
        }
        assert_eq!(g2.completion_free_cycle(), None);
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
