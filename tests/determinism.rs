//! Cross-harness determinism regression: a fixed seed must produce
//! bit-identical ground-truth logs, run after run and release after
//! release.
//!
//! The golden digests below were recorded from the unified
//! scheduler/event-bus harness (`ctms_sim::Harness`), which reproduces
//! the original per-testbed advance-and-route loops exactly: nodes are
//! serviced in registration order on deadline ties, so the event order —
//! and therefore every recorded edge — is unchanged. If a change to the
//! scheduler, the ring model, or the kernel model shifts even one edge
//! by one nanosecond, these digests move and the diff is caught here
//! rather than as a silent drift in the reproduced figures.

use ctms_core::{Scenario, Testbed};
use ctms_sim::SimTime;
use ctms_unixkern::MeasurePoint;

fn digests(sc: &Scenario) -> [u64; 4] {
    let mut bed = Testbed::ctms(sc);
    bed.run_until(SimTime::from_secs(10));
    let get = |host: usize, point: MeasurePoint| {
        bed.truth_log(host, point)
            .map(|log| log.digest())
            .unwrap_or(0)
    };
    [
        get(0, MeasurePoint::VcaIrq),
        get(0, MeasurePoint::VcaHandlerEntry),
        get(0, MeasurePoint::PreTransmit),
        get(1, MeasurePoint::CtmspIdentified),
    ]
}

#[test]
fn case_a_truth_digests_are_golden() {
    let got = digests(&Scenario::test_case_a(42));
    assert_eq!(
        got,
        [
            0x940268B83F8CF91A,
            0xF827E2062981EE34,
            0xD1E3D58CA7C69E09,
            0x612EFD91E2863AC5,
        ],
        "case A ground truth drifted: {got:#018X?}"
    );
}

#[test]
fn case_b_truth_digests_are_golden() {
    let got = digests(&Scenario::test_case_b(42));
    assert_eq!(
        got,
        [
            0x940268B83F8CF91A,
            0xF827E2062981EE34,
            0x83B4DADF58457160,
            0x866F7B1998BFE1CF,
        ],
        "case B ground truth drifted: {got:#018X?}"
    );
}

#[test]
fn sharded_harness_shares_the_golden_truth() {
    // The conservative-parallel scheduler's contract: parallelism may
    // never change the answer, only the wall clock. Three layers pin it:
    //
    // * Cases A and B are single-ring topologies, so `build_sharded`
    //   transparently falls back — and must still reproduce the exact
    //   golden digests and telemetry tree pinned above.
    // * A 16-ring chain genuinely partitions across 2 and 4 shards; its
    //   edge logs and canonical telemetry JSON must be byte-identical
    //   to the single-threaded chain, window protocol and all.
    use ctms_core::RingChainTestbed;
    use ctms_router::BridgeKind;

    for (sc, golden) in [
        (
            Scenario::test_case_a(42),
            [
                0x940268B83F8CF91A,
                0xF827E2062981EE34,
                0xD1E3D58CA7C69E09,
                0x612EFD91E2863AC5,
            ],
        ),
        (
            Scenario::test_case_b(42),
            [
                0x940268B83F8CF91A,
                0xF827E2062981EE34,
                0x83B4DADF58457160,
                0x866F7B1998BFE1CF,
            ],
        ),
    ] {
        let single_json = ctms_bench::telemetry_case(&sc);
        for shards in [1usize, 2, 4] {
            let (mut bus, _roles) = Testbed::ctms_sharded(&sc, shards);
            assert!(bus.is_single(), "single ring must fall back");
            bus.run_until(SimTime::from_secs(10));
            let get = |host: usize, point: MeasurePoint| {
                bus.truth_log(host, point)
                    .map(|log| log.digest())
                    .unwrap_or(0)
            };
            let got = [
                get(0, MeasurePoint::VcaIrq),
                get(0, MeasurePoint::VcaHandlerEntry),
                get(0, MeasurePoint::PreTransmit),
                get(1, MeasurePoint::CtmspIdentified),
            ];
            assert_eq!(got, golden, "sharded fallback drifted: {got:#018X?}");
            assert_eq!(
                bus.telemetry_json(),
                single_json,
                "fallback telemetry drifted (shards={shards})"
            );
        }
    }

    let sc = Scenario::scaled_chain(42);
    let kind = BridgeKind::cut_through_bridge();
    let horizon = SimTime::from_secs(2);
    let chain_digests = |bed_truth: &dyn Fn(usize, MeasurePoint) -> u64| {
        [
            bed_truth(0, MeasurePoint::VcaIrq),
            bed_truth(0, MeasurePoint::VcaHandlerEntry),
            bed_truth(0, MeasurePoint::PreTransmit),
            bed_truth(1, MeasurePoint::CtmspIdentified),
        ]
    };
    let mut single = RingChainTestbed::chain(&sc, kind, 16);
    single.run_until(horizon);
    let single_json = single.telemetry_json();
    let single_digests = chain_digests(&|host, point| {
        single
            .bus()
            .measurements()
            .truth_log(host, point)
            .map(|log| log.digest())
            .unwrap_or(0)
    });
    for shards in [1usize, 2, 4] {
        let mut bed = RingChainTestbed::chain_sharded(&sc, kind, 16, shards);
        assert_eq!(bed.shard_count(), shards, "16 rings split into {shards}");
        bed.run_until(horizon);
        let got = chain_digests(&|host, point| {
            bed.bus()
                .truth_log(host, point)
                .map(|log| log.digest())
                .unwrap_or(0)
        });
        assert_eq!(
            got, single_digests,
            "sharded chain truth drifted (shards={shards}): {got:#018X?}"
        );
        assert_eq!(
            bed.telemetry_json(),
            single_json,
            "sharded chain telemetry drifted (shards={shards})"
        );
    }
}

#[test]
fn topology_variants_share_the_golden_truth() {
    // The graph generalization of the chain parity test: a tree, a mesh
    // with a redundant parallel bridge, and an FDDI-style dual-backbone
    // each run single-threaded and at 1, 2, and 4 graph-partitioned
    // shards. For every shape, every shard count must reproduce the
    // single-threaded run byte for byte — truth-log digests, counters,
    // event counts, and the whole canonical telemetry tree. This is the
    // license for `perf --topology` to compare wall clocks across
    // shapes: the per-cut-edge lookahead windows are pure scheduling.
    use ctms_core::{RingChainTestbed, RingGraph};
    use ctms_router::BridgeKind;

    let sc = Scenario::scaled_chain(42);
    let kind = BridgeKind::cut_through_bridge();
    let horizon = SimTime::from_secs(2);
    for (name, graph) in [
        ("tree", RingGraph::tree(13, 3)),
        ("mesh", RingGraph::mesh(12, 42)),
        ("fddi", RingGraph::fddi(12)),
    ] {
        let mut single = RingChainTestbed::graph(&sc, kind, &graph);
        single.run_until(horizon);
        let single_json = single.telemetry_json();
        let single_counters = single.counters();
        let single_events = single.bus().events();
        let single_digests = [
            single.measurement_set().vca_irq.digest(),
            single.measurement_set().handler.digest(),
            single.measurement_set().pre_tx.digest(),
            single.measurement_set().ctmsp_rx.digest(),
        ];
        let (sent, received, _) = single_counters;
        assert!(sent > 100, "{name}: stream must actually flow ({sent})");
        assert!(
            received >= sent.saturating_sub(2),
            "{name}: stream must arrive ({received}/{sent})"
        );
        for shards in [1usize, 2, 4] {
            let mut bed = RingChainTestbed::graph_sharded(&sc, kind, &graph, shards);
            assert_eq!(
                bed.shard_count(),
                shards,
                "{name}: graph must fill {shards} shards"
            );
            bed.run_until(horizon);
            let got = [
                bed.measurement_set().vca_irq.digest(),
                bed.measurement_set().handler.digest(),
                bed.measurement_set().pre_tx.digest(),
                bed.measurement_set().ctmsp_rx.digest(),
            ];
            assert_eq!(
                got, single_digests,
                "{name} truth drifted (shards={shards}): {got:#018X?}"
            );
            assert_eq!(
                bed.counters(),
                single_counters,
                "{name} counters drifted (shards={shards})"
            );
            assert_eq!(
                bed.events(),
                single_events,
                "{name} event count drifted (shards={shards})"
            );
            assert_eq!(
                bed.telemetry_json(),
                single_json,
                "{name} telemetry drifted (shards={shards})"
            );
        }
    }
}

#[test]
fn repeated_runs_are_bit_identical() {
    // Same seed, same process, two independently built testbeds: every
    // digest must agree (no hidden global state, no allocator or
    // HashMap-iteration dependence in the event order).
    let sc = Scenario::test_case_b(7);
    assert_eq!(digests(&sc), digests(&sc));
}

#[test]
fn telemetry_json_is_byte_identical_across_runs() {
    // The whole metric tree — every counter, gauge, histogram and text
    // in every crate's namespace — serialized twice from independently
    // built testbeds. Byte equality, not just digest equality: any
    // non-deterministic iteration order or float formatting anywhere in
    // the registry shows up as a readable diff here.
    for sc in [Scenario::test_case_a(42), Scenario::test_case_b(42)] {
        let first = ctms_bench::telemetry_case(&sc);
        let second = ctms_bench::telemetry_case(&sc);
        assert_eq!(first, second, "telemetry JSON drifted between runs");
    }
}

#[test]
fn telemetry_digests_are_golden() {
    // FNV-1a over the canonical JSON bytes, pinned like the edge-log
    // digests above: a change to any registered metric path or value —
    // or to the serializer itself — moves these and is caught as a
    // reviewable diff instead of silent telemetry drift.
    let digest =
        |sc: &Scenario| ctms_sim::telemetry::fnv1a(ctms_bench::telemetry_case(sc).as_bytes());
    let a = digest(&Scenario::test_case_a(42));
    let b = digest(&Scenario::test_case_b(42));
    assert_eq!(
        a, 0x4EFA_4772_20F4_EE0B,
        "case A telemetry drifted: {a:#018X}"
    );
    assert_eq!(
        b, 0xF9C7_8BD2_FDF4_71C1,
        "case B telemetry drifted: {b:#018X}"
    );
}
