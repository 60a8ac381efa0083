//! A tiny fork-join pool with work-stealing, used to drain one chunk
//! of the exploration frontier.
//!
//! The chunk's units are split into per-worker *shards* of contiguous
//! indices, each drained through an atomic cursor. A worker that
//! exhausts its own shard becomes a thief: it walks the other shards
//! and claims leftover indices through the victims' cursors (the same
//! fetch-add, so claims stay unique without any hand-off protocol).
//! Stealing keeps all workers busy when unit costs are skewed — one
//! unit with a long compressed chain does not idle the rest of the
//! pool.
//!
//! Results land in per-index slots, so the returned vector is in input
//! order regardless of which worker computed what — the same
//! input-order guarantee `pwf_runner::parallel_map` gives, and the
//! property the deterministic merge pass builds on. The steal count is
//! returned for telemetry only; it is inherently racy and must never
//! feed deterministic output.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Applies `f` to every item using up to `jobs` workers with
/// work-stealing; returns the results in input order plus the number
/// of stolen items. `jobs <= 1` (or a single item) runs inline on the
/// caller's thread with zero spawns.
pub fn drain_chunk<T, R, F>(jobs: usize, items: &[T], f: F) -> (Vec<R>, u64)
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    if jobs <= 1 || n <= 1 {
        return (items.iter().map(&f).collect(), 0);
    }
    let workers = jobs.min(n);
    // Shard w owns indices [w*n/workers, (w+1)*n/workers).
    let cursors: Vec<AtomicUsize> = (0..workers)
        .map(|w| AtomicUsize::new(w * n / workers))
        .collect();
    let ends: Vec<usize> = (0..workers).map(|w| (w + 1) * n / workers).collect();
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let steals = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for w in 0..workers {
            let (cursors, ends, slots, steals, f) = (&cursors, &ends, &slots, &steals, &f);
            scope.spawn(move || {
                // Own shard first (v == 0), then steal round-robin.
                for v in 0..workers {
                    let victim = (w + v) % workers;
                    loop {
                        let i = cursors[victim].fetch_add(1, Ordering::Relaxed);
                        if i >= ends[victim] {
                            break;
                        }
                        if victim != w {
                            steals.fetch_add(1, Ordering::Relaxed);
                        }
                        *slots[i].lock().expect("result slot poisoned") = Some(f(&items[i]));
                    }
                }
            });
        }
    });
    let results = slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("result slot poisoned")
                .expect("every index was claimed by exactly one worker")
        })
        .collect();
    (results, steals.load(Ordering::Relaxed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_input_order_at_every_job_count() {
        let items: Vec<u64> = (0..100).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x).collect();
        for jobs in [1, 2, 3, 8, 200] {
            let (got, _) = drain_chunk(jobs, &items, |&x| x * x);
            assert_eq!(got, expect, "jobs={jobs}");
        }
    }

    #[test]
    fn empty_and_singleton_inputs_run_inline() {
        let (got, steals) = drain_chunk(8, &[] as &[u64], |&x| x);
        assert!(got.is_empty() && steals == 0);
        let (got, steals) = drain_chunk(8, &[7u64], |&x| x + 1);
        assert_eq!(got, vec![8]);
        assert_eq!(steals, 0);
    }

    #[test]
    fn skewed_costs_still_fill_every_slot() {
        // One expensive item at the front of shard 0; thieves should
        // finish the rest either way, and every slot must be filled.
        let items: Vec<u64> = (0..64).collect();
        let (got, _) = drain_chunk(4, &items, |&x| {
            if x == 0 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            x
        });
        assert_eq!(got, items);
    }

    #[test]
    fn more_jobs_than_items_is_fine() {
        let items: Vec<u64> = (0..3).collect();
        let (got, _) = drain_chunk(16, &items, |&x| x * 10);
        assert_eq!(got, vec![0, 10, 20]);
    }
}
