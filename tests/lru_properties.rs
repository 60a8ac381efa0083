//! Property-based tests for the LRU result cache: for arbitrary
//! operation sequences, the intrusive-list implementation must agree
//! with a trivially-correct reference model (a `Vec` ordered by
//! recency), and the TTL machinery must respect its edge semantics.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use pwf_serve::lru::{Clock, LruCache};

/// A reference model: most-recently-used first, evicts from the back.
struct ModelLru {
    capacity: usize,
    entries: Vec<(String, u32)>,
}

impl ModelLru {
    fn new(capacity: usize) -> Self {
        ModelLru {
            capacity,
            entries: Vec::new(),
        }
    }

    fn get(&mut self, key: &str) -> Option<u32> {
        let pos = self.entries.iter().position(|(k, _)| k == key)?;
        let entry = self.entries.remove(pos);
        let value = entry.1;
        self.entries.insert(0, entry);
        Some(value)
    }

    fn put(&mut self, key: &str, value: u32) {
        if let Some(pos) = self.entries.iter().position(|(k, _)| k == key) {
            self.entries.remove(pos);
        } else if self.entries.len() == self.capacity {
            self.entries.pop();
        }
        self.entries.insert(0, (key.to_string(), value));
    }

    fn keys(&self) -> Vec<String> {
        self.entries.iter().map(|(k, _)| k.clone()).collect()
    }
}

/// One scripted cache operation.
#[derive(Debug, Clone)]
enum Op {
    Get(u8),
    Put(u8, u32),
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    // Keys are drawn from a small universe so gets hit often and
    // capacity pressure is constant.
    let op = prop_oneof![
        (0u8..12).prop_map(Op::Get),
        ((0u8..12), (0u32..1_000_000)).prop_map(|(k, v)| Op::Put(k, v)),
    ];
    prop::collection::vec(op, 1..200)
}

fn manual_clock() -> (Arc<AtomicU64>, Clock) {
    let tick = Arc::new(AtomicU64::new(0));
    let t = Arc::clone(&tick);
    (tick, Arc::new(move || t.load(Ordering::Relaxed)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Without TTL, every operation sequence leaves the real cache and
    /// the reference model with identical contents, recency order, and
    /// get results.
    #[test]
    fn agrees_with_the_reference_model(ops in ops(), capacity in 1usize..8) {
        let mut real: LruCache<u32> = LruCache::new(capacity, None);
        let mut model = ModelLru::new(capacity);
        for op in &ops {
            match op {
                Op::Get(k) => {
                    let key = format!("k{k}");
                    prop_assert_eq!(real.get(&key), model.get(&key));
                }
                Op::Put(k, v) => {
                    let key = format!("k{k}");
                    real.put(&key, *v);
                    model.put(&key, *v);
                }
            }
            prop_assert_eq!(real.keys_by_recency(), model.keys());
            prop_assert!(real.len() <= capacity);
        }
    }

    /// A capacity-1 cache is exactly "the last key written".
    #[test]
    fn capacity_one_is_last_writer_wins(writes in prop::collection::vec((0u8..6, (0u32..1_000_000)), 1..50)) {
        let mut cache: LruCache<u32> = LruCache::new(1, None);
        for (k, v) in &writes {
            cache.put(&format!("k{k}"), *v);
        }
        let (last_k, last_v) = writes.last().unwrap();
        prop_assert_eq!(cache.len(), 1);
        prop_assert_eq!(cache.get(&format!("k{last_k}")), Some(*last_v));
    }

    /// Zero TTL degrades the cache to a pass-through: no get ever
    /// returns a value, regardless of the write pattern.
    #[test]
    fn zero_ttl_never_serves(writes in prop::collection::vec(0u8..6, 1..50)) {
        let (_tick, clock) = manual_clock();
        let mut cache: LruCache<u32> = LruCache::with_clock(4, Some(0), clock);
        for (i, k) in writes.iter().enumerate() {
            let key = format!("k{k}");
            cache.put(&key, i as u32);
            prop_assert_eq!(cache.get(&key), None);
        }
        prop_assert_eq!(cache.stats().hits, 0);
    }

    /// An entry is alive strictly below its TTL and dead at or past
    /// it, wherever the boundary lands.
    #[test]
    fn ttl_boundary_is_exact(ttl in 1u64..1000, age in 0u64..2000) {
        let (tick, clock) = manual_clock();
        let mut cache: LruCache<u32> = LruCache::with_clock(2, Some(ttl), clock);
        cache.put("k", 7);
        tick.store(age, Ordering::Relaxed);
        let alive = cache.get("k").is_some();
        prop_assert_eq!(alive, age < ttl, "age {} vs ttl {}", age, ttl);
    }

    /// Gets protect an entry from eviction: after touching `hot`, a
    /// round of inserts up to capacity-1 fresh keys must not push it
    /// out.
    #[test]
    fn get_promotes_out_of_the_victim_slot(capacity in 2usize..8) {
        let mut cache: LruCache<u32> = LruCache::new(capacity, None);
        cache.put("hot", 1);
        // Fill the rest, making "hot" the LRU.
        for i in 0..capacity - 1 {
            cache.put(&format!("cold{i}"), 0);
        }
        prop_assert_eq!(cache.keys_by_recency().last().map(String::as_str), Some("hot"));
        // Touch it, then insert capacity-1 fresh keys: every cold key
        // cycles out, "hot" survives.
        prop_assert_eq!(cache.get("hot"), Some(1));
        for i in 0..capacity - 1 {
            cache.put(&format!("fresh{i}"), 0);
        }
        prop_assert_eq!(cache.get("hot"), Some(1));
    }
}
