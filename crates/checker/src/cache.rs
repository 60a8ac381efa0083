//! The cross-schedule state cache backing frontier exploration.
//!
//! Exploration units from *different* schedule prefixes can converge
//! on the same reached configuration; once the explorer has queued (and
//! eventually expanded) a state, re-expanding an equivalent instance
//! from another prefix only re-derives the same subtree. The cache
//! records every state the explorer has committed to expanding, keyed
//! by a [`StateKey`] that captures everything the subtree below can
//! depend on — so a hit is a sound prune, not a heuristic.
//!
//! ## Collision guard
//!
//! State fingerprints are 64-bit, so distinct configurations can in
//! principle collide. A collision that *suppressed* exploration would
//! silently hide a violation, which is the one failure mode a checker
//! must not have. Every entry therefore stores, alongside the primary
//! fingerprint, a second hash computed by an independent function (a
//! SplitMix64-style avalanche over the same state words)
//! plus the history fingerprint, sleep-set fingerprint, and depth. A
//! lookup prunes only when *all five* components match; a primary-hash
//! match with any mismatching component is counted in
//! `collisions_averted` and treated as a miss. Forging a colliding
//! entry (see the regression test in `tests/collision_guard.rs`)
//! therefore cannot suppress a mutant's violation.
//!
//! ## Sharding
//!
//! The table is sharded into `SHARDS` independent `Mutex<HashMap>`s
//! selected by the low bits of the primary fingerprint, a layout left
//! from the removed parallel drain. While a chunk expands the cache is
//! *frozen* (read-only); all inserts happen in the merge pass between
//! chunks.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Shard count; a power of two so selection is a mask.
const SHARDS: usize = 64;

/// Everything a queued exploration unit's subtree can depend on.
///
/// Two units agreeing on all five components reach configurations with
/// identical shared memory, local states, budgets, completed-operation
/// histories (including invoke/response times and pending invocation
/// times), sleep sets, and schedule depth — so their subtrees yield
/// the same verdicts, and the second is safely pruned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StateKey {
    /// Primary full-state fingerprint ([`crate::explore::LiveRun`]).
    pub state: u64,
    /// Independent second hash of the same state words (collision
    /// guard).
    pub verify: u64,
    /// Fingerprint of the operation history so far, completed and
    /// pending.
    pub ops: u64,
    /// Canonical fingerprint of the unit's sleep set.
    pub sleep: u64,
    /// Schedule depth (prefix length) at which the state was reached.
    pub depth: u32,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    verify: u64,
    ops: u64,
    sleep: u64,
    depth: u32,
}

impl Entry {
    fn matches(&self, key: &StateKey) -> bool {
        self.verify == key.verify
            && self.ops == key.ops
            && self.sleep == key.sleep
            && self.depth == key.depth
    }
}

/// Sharded state cache of one exploration.
pub struct SharedCache {
    shards: Vec<Mutex<HashMap<u64, Vec<Entry>>>>,
    collisions_averted: AtomicU64,
}

impl Default for SharedCache {
    fn default() -> Self {
        Self::new()
    }
}

impl SharedCache {
    /// An empty cache.
    pub fn new() -> Self {
        SharedCache {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            collisions_averted: AtomicU64::new(0),
        }
    }

    fn shard(&self, state: u64) -> &Mutex<HashMap<u64, Vec<Entry>>> {
        &self.shards[(state as usize) & (SHARDS - 1)]
    }

    /// Whether `key` is present. An entry agreeing on the primary
    /// fingerprint and the full context (ops, sleep, depth) but
    /// *disagreeing* on the verify hash is a genuine 64-bit collision
    /// the guard just averted: keyed on the primary alone the lookup
    /// would have pruned a different configuration's subtree. It is
    /// counted and reported as a miss. Entries sharing a primary but
    /// differing in context are ordinary distinct keys, not collisions.
    pub fn contains(&self, key: &StateKey) -> bool {
        let shard = self.shard(key.state).lock().expect("cache shard poisoned");
        match shard.get(&key.state) {
            None => false,
            Some(entries) => {
                if entries.iter().any(|e| e.matches(key)) {
                    true
                } else {
                    if entries.iter().any(|e| {
                        e.verify != key.verify
                            && e.ops == key.ops
                            && e.sleep == key.sleep
                            && e.depth == key.depth
                    }) {
                        self.collisions_averted.fetch_add(1, Ordering::Relaxed);
                    }
                    false
                }
            }
        }
    }

    /// Inserts `key`; returns `true` if it was new. Only called from
    /// the merge pass, never while a chunk expands.
    pub fn insert(&self, key: StateKey) -> bool {
        let mut shard = self.shard(key.state).lock().expect("cache shard poisoned");
        let entries = shard.entry(key.state).or_default();
        if entries.iter().any(|e| e.matches(&key)) {
            return false;
        }
        entries.push(Entry {
            verify: key.verify,
            ops: key.ops,
            sleep: key.sleep,
            depth: key.depth,
        });
        true
    }

    /// How many primary-fingerprint hits were rejected by the
    /// verification components (the collision guard firing).
    pub fn collisions_averted(&self) -> u64 {
        self.collisions_averted.load(Ordering::Relaxed)
    }

    /// Every stored key, in unspecified order (diagnostics and the
    /// collision-guard regression tests).
    pub fn keys(&self) -> Vec<StateKey> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let shard = shard.lock().expect("cache shard poisoned");
            for (&state, entries) in shard.iter() {
                out.extend(entries.iter().map(|e| StateKey {
                    state,
                    verify: e.verify,
                    ops: e.ops,
                    sleep: e.sleep,
                    depth: e.depth,
                }));
            }
        }
        out
    }

    /// Total entries across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.lock()
                    .expect("cache shard poisoned")
                    .values()
                    .map(Vec::len)
                    .sum::<usize>()
            })
            .sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(state: u64, verify: u64) -> StateKey {
        StateKey {
            state,
            verify,
            ops: 10,
            sleep: 20,
            depth: 3,
        }
    }

    #[test]
    fn insert_then_contains_round_trips() {
        let c = SharedCache::new();
        assert!(!c.contains(&key(1, 2)));
        assert!(c.insert(key(1, 2)));
        assert!(c.contains(&key(1, 2)));
        assert!(!c.insert(key(1, 2)), "duplicate insert is rejected");
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn primary_collision_with_wrong_verify_hash_is_a_miss() {
        let c = SharedCache::new();
        assert!(c.insert(key(1, 2)));
        assert!(!c.contains(&key(1, 99)), "verify hash mismatch");
        assert_eq!(c.collisions_averted(), 1);
        // Both entries can coexist under the same primary fingerprint.
        assert!(c.insert(key(1, 99)));
        assert!(c.contains(&key(1, 2)) && c.contains(&key(1, 99)));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn depth_ops_and_sleep_all_participate_in_the_match() {
        let c = SharedCache::new();
        let base = key(7, 8);
        assert!(c.insert(base));
        for wrong in [
            StateKey { ops: 11, ..base },
            StateKey { sleep: 21, ..base },
            StateKey { depth: 4, ..base },
        ] {
            assert!(!c.contains(&wrong));
        }
        // Context mismatches are distinct keys, not hash collisions.
        assert_eq!(c.collisions_averted(), 0);
    }
}
