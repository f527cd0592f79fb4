//! Tier-1 proof of the *sharded* scheduler's zero-allocation steady
//! state.
//!
//! Runs only under `--features alloc-count`, which swaps in the counting
//! global allocator. Like `zero_alloc.rs`, this test lives alone in its
//! own integration-test binary: the allocation counter is process-wide,
//! so a concurrently running test would pollute the measured window.
//!
//! The workload is `ctms_sim::synth::build_sharded_ring` — two disjoint
//! ticker rings (one per shard) plus a sync-class relay whose fires
//! cross the shard cut — so the measured window exercises window
//! negotiation, outbox flushing and pending-mail delivery, not just the
//! per-shard stepping loop.
#![cfg(feature = "alloc-count")]

use ctms_sim::alloc_count::CountingAlloc;
use ctms_sim::SimTime;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

#[test]
fn steady_state_sharded_hot_path_allocates_nothing() {
    // Two shards on one thread (the inline dispatch path — worker
    // threads have their own stacks and queues, which would charge
    // pool machinery, not the scheduler, to the counter), with live
    // cross-shard mail every relay period.
    let mut h = ctms_sim::synth::build_sharded_ring(16, 1_000, 4, 2_500, 2_500, 2);
    h.set_threads(1);
    // Nothing influences shard 0 (the cut is one-way), so without a
    // span cap its window would run clear to the horizon and its outbox
    // would grow with the run length — the cap keeps mailbox memory
    // (and hence steady-state capacity) bounded.
    h.set_max_window_span(ctms_sim::Dur::from_ns(250_000));

    // Warm-up: grow every reusable buffer — per-shard heaps, waves,
    // sinks, outboxes, pending-mail queues, the coordinator's bound
    // scratch — to steady-state capacity.
    h.run_until(SimTime::from_ns(2_000_000));
    let events_before = h.events();
    assert!(events_before > 0, "warm-up must service events");

    // Measured window: many more events and windows, zero allocations.
    let allocs_before = ALLOC.allocations();
    h.run_until(SimTime::from_ns(10_000_000));
    let allocs = ALLOC.allocations() - allocs_before;
    let events = h.events() - events_before;

    assert!(
        events > 10_000,
        "window too small to be meaningful: {events}"
    );
    assert_eq!(
        allocs, 0,
        "steady-state sharded scheduler allocated {allocs} times over {events} events"
    );
}
