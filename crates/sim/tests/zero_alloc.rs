//! Tier-1 proof of the scheduler's zero-allocation steady state.
//!
//! Installs the counting global allocator, so it runs in every
//! `cargo test`. The test lives alone in its own integration-test
//! binary so no concurrent test can pollute the process-wide counter.
//!
//! The workload is `ctms_sim::synth::build_ring` — components and router
//! that provably never allocate — so any allocation observed during the
//! measured window belongs to the harness hot path itself.

use ctms_sim::alloc_count::CountingAlloc;
use ctms_sim::SimTime;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

#[test]
fn steady_state_scheduler_hot_path_allocates_nothing() {
    let mut h = ctms_sim::synth::build_ring(16, 1_000, 4);

    // Warm-up: let every reusable buffer (wave, due, touched, CmdSink,
    // heap index arrays) grow to its steady-state capacity; nodes push
    // their outputs straight into the wave.
    h.run_until(SimTime::from_ns(2_000_000));
    let events_before = h.events();
    assert!(events_before > 0, "warm-up must service events");

    // Measured window: many more events, zero allocations.
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
        "steady-state scheduler allocated {allocs} times over {events} events"
    );
}
