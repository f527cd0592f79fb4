//! Tier-1 allocation budget of the paper's own testbed in steady state.
//!
//! The zero-allocation proofs (`crates/sim/tests/zero_alloc*.rs`) run
//! synthetic components that never allocate, so they see the scheduler
//! alone. This test runs the real topology — token ring, RT/PC machines,
//! kernels, drivers — on bare case-A and case-B buses (no history sink),
//! so it also sees every buffer a node or the router keeps per output.
//! A node's outputs go straight into the scheduler's wave through a
//! closure sink; what still allocates is per-frame substrate state, well
//! under one allocation in five events.
//!
//! Installs the counting global allocator, so it lives alone in its own
//! test binary, and measures both cases in one test so no concurrent
//! test moves the process-wide counter.

use ctms_core::{Scenario, Testbed};
use ctms_sim::alloc_count::CountingAlloc;
use ctms_sim::SimTime;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Allocations per event a bare paper-case bus may make in steady state.
const BUDGET: f64 = 0.2;

#[test]
fn paper_cases_stay_within_the_allocation_budget() {
    for (name, sc) in [
        ("case A", Scenario::test_case_a(1)),
        ("case B", Scenario::test_case_b(1)),
    ] {
        let mut bus = Testbed::ctms_topology(&sc).0.build();
        // Warm-up: let every retained buffer reach its steady-state
        // capacity.
        bus.run_until(SimTime::from_secs(5));
        let (allocs_before, events_before) = (ALLOC.allocations(), bus.events());
        bus.run_until(SimTime::from_secs(25));
        let allocs = ALLOC.allocations() - allocs_before;
        let events = bus.events() - events_before;
        assert!(events > 10_000, "{name}: window too small: {events} events");
        let per_event = allocs as f64 / events as f64;
        assert!(
            per_event <= BUDGET,
            "{name}: {allocs} allocations over {events} events ({per_event:.3} per event, \
             budget {BUDGET})"
        );
    }
}
