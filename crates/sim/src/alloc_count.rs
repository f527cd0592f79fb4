//! A counting global allocator for the zero-allocation proofs and the
//! paper testbed's allocation budget.
//!
//! Wrap the system allocator in [`CountingAlloc`] and install it with
//! `#[global_allocator]` to count every heap allocation in the process:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: ctms_sim::alloc_count::CountingAlloc = ctms_sim::alloc_count::CountingAlloc::new();
//! ```
//!
//! [`allocations`](CountingAlloc::allocations) reads the running count,
//! so a test can snapshot it around a measured region and assert — not
//! merely claim — that the scheduler's steady state performs zero
//! allocations per event. Reallocation (`Vec` growth) counts too:
//! capacity retained across steps is precisely what the hot path
//! promises.
//!
//! The module is always compiled but installs nothing by itself: only
//! this crate's `tests/zero_alloc.rs` and `tests/zero_alloc_sharded.rs`
//! and the workspace root's `tests/alloc_budget.rs` declare it their
//! global allocator, each in its own test binary, so no other test
//! writes to the process-wide counter.
//!
//! The counter is a relaxed atomic: the measured regions are
//! single-threaded simulations, and cross-thread precision is not
//! needed — only monotonic per-thread accuracy.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// The system allocator with an allocation counter bolted on.
pub struct CountingAlloc {
    allocs: AtomicU64,
}

impl CountingAlloc {
    /// A fresh counting allocator (the counter starts at zero).
    #[allow(clippy::new_without_default)]
    pub const fn new() -> Self {
        CountingAlloc {
            allocs: AtomicU64::new(0),
        }
    }

    /// Heap allocations (including reallocations) observed so far.
    pub fn allocations(&self) -> u64 {
        self.allocs.load(Ordering::Relaxed)
    }
}

// SAFETY: defers entirely to `System`; the counter has no effect on the
// returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.allocs.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        self.allocs.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.allocs.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}
