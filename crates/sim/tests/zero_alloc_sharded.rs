//! Tier-1 proof of the *sharded* scheduler's zero-allocation steady
//! state.
//!
//! Installs the counting global allocator, so it runs in every
//! `cargo test`. Like `zero_alloc.rs`, this test lives alone in its own
//! integration-test binary: the allocation counter is process-wide, so
//! a concurrently running test would pollute the measured window. The
//! same process-wide counter sees every thread, so the shard workers'
//! allocations count too.
//!
//! The workload is `ctms_sim::synth::build_sharded_ring` — two disjoint
//! ticker rings (one per shard) plus a sync-class relay whose fires
//! cross the shard cut — so the measured window exercises window
//! negotiation, outbox flushing and pending-mail delivery, not just the
//! per-shard stepping loop. Its windows hold hundreds of events per
//! shard, so on a machine with two or more cores they run on a worker.

use ctms_sim::alloc_count::CountingAlloc;
use ctms_sim::SimTime;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Windows that ran on a worker so far.
fn worker_windows(
    h: &ctms_sim::Harness<ctms_sim::synth::SynthNode, ctms_sim::synth::ShardForward>,
) -> u64 {
    h.exec_telemetry()
        .counter_value("sched.worker_windows")
        .expect("worker_windows is published")
}

#[test]
fn steady_state_sharded_hot_path_allocates_nothing() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let warm_up = SimTime::from_ns(2_000_000);

    // Many run calls. Nothing influences shard 0 (the cut is one-way);
    // the runahead span keeps it from running a whole call ahead, so
    // mailbox memory stays bounded and capacity reaches steady state.
    let mut h = ctms_sim::synth::build_sharded_ring(16, 1_000, 4, 2_500, 2_500, 2);
    // Warm-up: grow every reusable buffer — per-shard heaps, waves,
    // sinks, outboxes, pending-mail queues, the coordinator's bound
    // scratch — to steady-state capacity, and spawn the worker.
    h.run_until(warm_up);
    let events_before = h.events();
    assert!(events_before > 0, "warm-up must service events");
    let dispatched_before = worker_windows(&h);

    // Measured window: many more events and windows, zero allocations.
    let allocs_before = ALLOC.allocations();
    for ms in 3..=10 {
        h.run_until(SimTime::from_ns(ms * 1_000_000));
    }
    let allocs = ALLOC.allocations() - allocs_before;
    let events = h.events() - events_before;
    let dispatched = worker_windows(&h) - dispatched_before;

    assert!(
        events > 10_000,
        "window too small to be meaningful: {events}"
    );
    assert_eq!(
        allocs, 0,
        "steady-state sharded scheduler allocated {allocs} times over {events} events \
         ({dispatched} windows on a worker)"
    );
    if cores >= 2 {
        assert!(dispatched > 0, "no window ran on a worker on {cores} cores");
    }

    // One run call ten times longer than the warm-up: the mail in flight
    // is bounded by the runahead span, not by the call's length, so the
    // warmed-up capacity still suffices.
    let mut h = ctms_sim::synth::build_sharded_ring(16, 1_000, 4, 2_500, 2_500, 2);
    h.run_until(warm_up);
    let events_before = h.events();
    let dispatched_before = worker_windows(&h);
    let allocs_before = ALLOC.allocations();
    h.run_until(SimTime::from_ns(11 * warm_up.as_ns()));
    let allocs = ALLOC.allocations() - allocs_before;
    let events = h.events() - events_before;
    let dispatched = worker_windows(&h) - dispatched_before;
    assert_eq!(
        allocs, 0,
        "a run call 10x the warm-up allocated {allocs} times over {events} events \
         ({dispatched} windows on a worker)"
    );
    if cores >= 2 {
        assert!(dispatched > 0, "no window ran on a worker on {cores} cores");
    }
}
