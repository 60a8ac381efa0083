//! The benchmark's own concurrency budget: it never runs more than
//! `nproc` worker threads or holds more than `nproc` open connections at
//! once. Threads the program under test starts (server connection
//! threads, checker workers) are the program's and are not counted.

use std::sync::atomic::{AtomicUsize, Ordering};

/// A live/peak counter for one kind of resource.
pub struct Gauge {
    what: &'static str,
    live: AtomicUsize,
    peak: AtomicUsize,
}

/// Worker threads the benchmark has spawned.
pub static THREADS: Gauge = Gauge::new("worker threads");
/// Client connections the benchmark holds open.
pub static CONNS: Gauge = Gauge::new("connections");

/// Available hardware parallelism: the cap on threads and connections.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

impl Gauge {
    const fn new(what: &'static str) -> Self {
        Gauge {
            what,
            live: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
        }
    }

    /// Claims one unit until the returned guard drops.
    ///
    /// # Panics
    ///
    /// Panics if the claim would exceed `nproc` (a benchmark bug).
    pub fn enter(&'static self) -> Held {
        let live = self.live.fetch_add(1, Ordering::SeqCst) + 1;
        self.peak.fetch_max(live, Ordering::SeqCst);
        assert!(
            live <= nproc(),
            "benchmark holds {live} {} but nproc is {}",
            self.what,
            nproc()
        );
        Held(self)
    }

    /// The most ever held at once.
    pub fn peak(&self) -> usize {
        self.peak.load(Ordering::SeqCst)
    }
}

/// One claimed unit; released on drop.
pub struct Held(&'static Gauge);

impl Drop for Held {
    fn drop(&mut self) {
        self.0.live.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Runs `f(i, item)` for every item on its own counted thread and
/// returns the results in input order.
///
/// # Panics
///
/// Panics if there are more items than `nproc`, or if a worker panics.
pub fn fan_out<I: Send, T: Send>(items: Vec<I>, f: impl Fn(usize, I) -> T + Sync) -> Vec<T> {
    assert!(items.len() <= nproc(), "fan-out wider than nproc");
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = items
            .into_iter()
            .enumerate()
            .map(|(i, item)| {
                scope.spawn(move || {
                    let _held = THREADS.enter();
                    f(i, item)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("benchmark worker panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "nproc")]
    fn exceeding_the_budget_is_a_bug() {
        static UNITS: Gauge = Gauge::new("test units");
        let _held: Vec<Held> = (0..=nproc()).map(|_| UNITS.enter()).collect();
    }
}
