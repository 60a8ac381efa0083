//! Heap allocations of one `stack-n3` exploration, counted by a global
//! allocator and held under a budget. A snapshot copy that overwrites a
//! recycled run reuses its register file, process boxes and buffers, so
//! the count tracks the frontier's growth and the state graph, not the
//! number of steps.
//!
//! This binary holds a single test: the counter is process-wide, and a
//! second test running alongside would add its allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use pwf_checker::explore::{explore, ExploreOptions};
use pwf_checker::targets::find;

/// Allocations and reallocations since the process started.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting every allocation and reallocation.
struct Counting;

// SAFETY: every call forwards to `System` with the caller's arguments,
// so `System`'s guarantees carry over unchanged.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // Only the count matters, not its ordering with other memory.
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations of one `stack-n3` exploration: 17,739 measured once the
/// state graph became arrays indexed by state id, one prefix arena
/// instead of a vector per state (20,780 before; 74,260 before recycled
/// runs overwrote their processes and register file in place), plus a
/// quarter of headroom.
const BUDGET: u64 = 22_174;

#[test]
fn a_stack_n3_exploration_stays_within_its_allocation_budget() {
    let target = find("stack-n3").expect("stack-n3 is registered");
    let opts = ExploreOptions::default();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let report = explore(&target, &opts);
    let made = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(report.stats.steps, 96_880, "the exploration itself changed");
    println!(
        "stack-n3: {made} allocations over {} steps",
        report.stats.steps
    );
    assert!(
        made <= BUDGET,
        "{made} allocations exceed the budget of {BUDGET}"
    );
}
