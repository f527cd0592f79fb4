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
//! rather than as a silent drift in the reproduced figures. The
//! multi-ring references (the 16-ring chain, the tree, mesh and FDDI
//! graphs) are pinned too: they were recorded from the sequential
//! engine the one-shard run replaced, so every shard count is held to
//! that engine's output, not only to itself.

use ctms_core::{Scenario, Testbed};
use ctms_measure::HistId;
use ctms_sim::SimTime;
use ctms_unixkern::MeasurePoint;

/// Runs a paper case to the 10 s horizon the goldens were recorded at.
fn run(sc: &Scenario) -> Testbed {
    let mut bed = Testbed::ctms(sc);
    bed.run_until(SimTime::from_secs(10));
    bed
}

fn digests(sc: &Scenario) -> [u64; 4] {
    let bed = run(sc);
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
    //   builds one shard — and must still reproduce the exact golden
    //   digests and telemetry tree pinned above.
    // * A 16-ring chain genuinely partitions across 2 and 4 shards; its
    //   edge logs and canonical telemetry JSON must be byte-identical
    //   to the one-shard chain, window protocol and all, and the
    //   one-shard chain to its pinned reference.
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
            let mut bus = Testbed::ctms_topology(&sc).0.build_sharded(shards);
            assert_eq!(bus.shard_count(), 1, "single ring must build one shard");
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
    assert_eq!(
        single_digests,
        [
            0xC78D83894A74D333,
            0x274A165F15C7B978,
            0x9E819E14C64487C0,
            0x0164DB4376E35DFC,
        ],
        "chain/16 truth drifted from the pinned reference"
    );
    assert_eq!(
        (
            ctms_sim::telemetry::fnv1a(single_json.as_bytes()),
            single.events()
        ),
        (0x86F2_765B_D608_BA47, 27_861),
        "chain/16 telemetry or event count drifted from the pinned reference"
    );
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
    // each run on one shard — held to pinned reference truth digests,
    // telemetry FNV-1a and event counts — and at 1, 2, and 4
    // graph-partitioned shards. For every shape, every shard count must
    // reproduce the one-shard run byte for byte — truth-log digests,
    // counters, event counts, and the whole canonical telemetry tree.
    // This is the license for perfbench's graph workloads to compare
    // wall clocks across shard counts: the per-cut-edge lookahead
    // windows are pure scheduling. The window schedule itself (the
    // execution counters) must not vary between two builds of the same
    // configuration; its values are not pinned, only its repeatability.
    use ctms_core::{RingChainTestbed, RingGraph};
    use ctms_router::BridgeKind;

    let sc = Scenario::scaled_chain(42);
    let kind = BridgeKind::cut_through_bridge();
    let horizon = SimTime::from_secs(2);
    let exec_json = |bed: &RingChainTestbed| bed.bus().exec_telemetry().map(|r| r.to_json());
    // Per shape: the fourth (receiver) truth digest — the first three
    // are the transmitter's and match the chain's — then the telemetry
    // FNV-1a and the event count.
    for (name, graph, (rx_digest, tele_fnv, events)) in [
        (
            "tree",
            RingGraph::tree(13, 3),
            (0x0B4CF9C3C47CBC8D, 0x7732_5FDA_8F13_DCEF, 11_964),
        ),
        (
            "mesh",
            RingGraph::mesh(12, 42),
            (0x4934F9E92FBA7A7E, 0x428D_27C2_ED97_1CDD, 11_484),
        ),
        (
            "fddi",
            RingGraph::fddi(12),
            (0x0E379EE4ECA12930, 0xE6D1_00DD_9E60_BC4D, 11_484),
        ),
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
        assert_eq!(
            single_digests,
            [
                0xC78D83894A74D333,
                0x274A165F15C7B978,
                0x9E819E14C64487C0,
                rx_digest
            ],
            "{name} truth drifted from the pinned reference"
        );
        assert_eq!(
            (
                ctms_sim::telemetry::fnv1a(single_json.as_bytes()),
                single_events
            ),
            (tele_fnv, events),
            "{name} telemetry or event count drifted from the pinned reference"
        );
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
            let mut again = RingChainTestbed::graph_sharded(&sc, kind, &graph, shards);
            again.run_until(horizon);
            assert_eq!(
                exec_json(&again),
                exec_json(&bed),
                "{name}: window schedule varied between builds (shards={shards})"
            );
        }
    }
}

#[test]
fn windows_on_workers_share_the_golden_truth() {
    // A 4,096-ring tree at 2 shards carries several hundred events per
    // shard in each runahead window, so on a machine with two or more
    // cores most windows run shard 1 on a worker thread. Digests, the
    // telemetry tree and the checkpoint bytes must still equal the
    // one-shard run's, over run calls that leave the worker parked in
    // between.
    use ctms_core::{RingChainTestbed, RingGraph};
    use ctms_router::BridgeKind;

    let sc = Scenario::scaled_chain(42);
    let kind = BridgeKind::cut_through_bridge();
    let graph = RingGraph::tree(4_096, 3);
    let horizon_ms = 200;
    let truth = |bed: &mut RingChainTestbed| {
        let set = bed.measurement_set();
        (
            [
                set.vca_irq.digest(),
                set.handler.digest(),
                set.pre_tx.digest(),
                set.ctmsp_rx.digest(),
            ],
            bed.events(),
            bed.telemetry_json(),
            bed.bus().checkpoint(),
        )
    };
    let mut single = RingChainTestbed::graph(&sc, kind, &graph);
    single.run_until(SimTime::from_ms(horizon_ms));
    let want = truth(&mut single);
    assert!(single.counters().1 > 0, "the stream must arrive");

    let mut bed = RingChainTestbed::graph_sharded(&sc, kind, &graph, 2);
    assert_eq!(bed.shard_count(), 2);
    for ms in (50..=horizon_ms).step_by(50) {
        bed.run_until(SimTime::from_ms(ms));
    }
    let got = truth(&mut bed);
    assert_eq!(got.0, want.0, "truth digests drifted on workers");
    assert_eq!(got.1, want.1, "event count drifted on workers");
    assert_eq!(got.2, want.2, "telemetry drifted on workers");
    assert!(got.3 == want.3, "checkpoint bytes drifted on workers");

    let reg = bed.bus().exec_telemetry().expect("a sharded bus");
    let on_workers = reg.counter_value("sched.worker_windows").unwrap_or(0);
    let windows = reg.counter_value("sched.windows").unwrap_or(0);
    if std::thread::available_parallelism().map_or(1, |n| n.get()) >= 2 {
        assert!(
            on_workers > 0,
            "no window of {windows} ran on a worker on a multi-core machine"
        );
    }
}

#[test]
fn repeated_runs_are_bit_identical() {
    // Same seed, same process, two independently built testbeds: every
    // digest and the serviced event count must agree (no hidden global
    // state, no allocator or HashMap-iteration dependence in the event
    // order).
    let sc = Scenario::test_case_b(7);
    assert_eq!(digests(&sc), digests(&sc));
    for sc in [Scenario::test_case_a(42), Scenario::test_case_b(42)] {
        assert_eq!(
            run(&sc).bus().events(),
            run(&sc).bus().events(),
            "repetition changed the event count"
        );
    }
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

#[test]
fn paper_histogram_samples_are_golden() {
    // The H1–H7 sample series the figures are drawn from, cases A and B
    // at seed 42 run to 120 s: their count and an FNV-1a over each
    // sample's `f64` bits (little-endian), in series order. The truth
    // digests above pin the edges; these pin the analysis that pairs
    // them (`inter_occurrence`, `deltas_to`), so a rewrite of it that
    // moves one sample, reorders two or pairs a duplicate differently
    // is caught here.
    let pins = |sc: &Scenario| -> Vec<(usize, u64)> {
        let mut bed = Testbed::ctms(sc);
        bed.run_until(SimTime::from_secs(120));
        let set = bed.measurement_set();
        HistId::ALL
            .iter()
            .map(|&h| {
                let xs = set.samples_us(h);
                let bytes: Vec<u8> = xs.iter().flat_map(|x| x.to_bits().to_le_bytes()).collect();
                (xs.len(), ctms_sim::telemetry::fnv1a(&bytes))
            })
            .collect()
    };
    assert_eq!(
        pins(&Scenario::test_case_a(42)),
        [
            (9_999, 0x4937_322D_DF40_641A),
            (9_998, 0xC924_69D0_B7D3_A4E0),
            (9_998, 0xBB44_C7BC_AEB8_DCC7),
            (9_997, 0x74C5_E96A_B63E_171E),
            (9_999, 0x0C0E_1D72_58FA_BEA9),
            (9_999, 0x26A2_F812_EB03_07AA),
            (9_998, 0xD375_4B74_0534_42CF),
        ],
        "case A histogram samples drifted"
    );
    assert_eq!(
        pins(&Scenario::test_case_b(42)),
        [
            (9_999, 0x4937_322D_DF40_641A),
            (9_998, 0x68C6_379A_CE36_4A1E),
            (9_998, 0x43AD_3541_6AF4_69BF),
            (9_997, 0x7E0E_41F0_52A0_63B5),
            (9_999, 0x9A51_B670_41D4_A9D4),
            (9_999, 0xD564_35FB_2843_05EF),
            (9_998, 0xFE82_EA3D_9E0E_3605),
        ],
        "case B histogram samples drifted"
    );
}
