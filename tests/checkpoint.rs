//! Checkpoint/restore equivalence: the tier-1 golden invariant of the
//! state-serialization layer.
//!
//! The contract under test: snapshot a run mid-flight, rebuild the
//! topology from the same scenario, restore, continue — and the result
//! is **byte-identical** to never having stopped. "Byte-identical" is
//! pinned against the same golden truth-log digests and canonical
//! telemetry JSON the determinism suite pins for uninterrupted runs, so
//! a checkpoint that silently loses any piece of state (an RNG stream,
//! a timer wheel, a TAP count, a half-open TCP retransmit) moves a
//! digest and fails here.
//!
//! The format is also shard-agnostic: a snapshot taken at 4 shards must
//! restore into 1- and 2-shard rebuilds and still continue onto the
//! one-shard goldens.

use ctms_core::{
    apply_mutations, fork, graph_topology, Bus, ForkSpec, Mutation, RingChainTestbed, RingGraph,
    Scenario, Testbed,
};
use ctms_router::BridgeKind;
use ctms_sim::telemetry::fnv1a;
use ctms_sim::telemetry::Value;
use ctms_sim::{Dur, PersistError, SimTime};
use ctms_unixkern::MeasurePoint;

/// The four truth-log digests the determinism suite pins.
fn digests(bed: &Testbed) -> [u64; 4] {
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
fn resume_is_byte_identical_to_uninterrupted_run() {
    // Cases A and B: checkpoint at 5 s, restore into a fresh build,
    // continue to 10 s. Telemetry and digests must equal the
    // uninterrupted run — including the goldens pinned in
    // tests/determinism.rs, so resume correctness is anchored to the
    // same constants as plain determinism.
    for (sc, golden) in [
        (
            Scenario::test_case_a(42),
            [
                0x940268B83F8CF91A,
                0xF827E2062981EE34,
                0xD1E3D58CA7C69E09,
                0x612EFD91E2863AC5u64,
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
        let mut straight = Testbed::ctms(&sc);
        straight.run_until(SimTime::from_secs(10));
        let straight_json = straight.telemetry_json();
        assert_eq!(digests(&straight), golden, "uninterrupted run drifted");

        let mut first = Testbed::ctms(&sc);
        first.run_until(SimTime::from_secs(5));
        let snapshot = first.bus().checkpoint();

        let mut resumed = Testbed::ctms(&sc);
        resumed
            .bus_mut()
            .restore_checkpoint(&snapshot)
            .expect("restore into an identical rebuild");
        assert_eq!(resumed.now(), SimTime::from_secs(5));
        resumed.run_until(SimTime::from_secs(10));

        assert_eq!(digests(&resumed), golden, "resumed run drifted");
        assert_eq!(
            resumed.telemetry_json(),
            straight_json,
            "resumed telemetry is not byte-identical"
        );
    }
}

#[test]
fn checkpoint_round_trips_through_a_second_snapshot() {
    // Restore then immediately re-checkpoint: the bytes must match the
    // original snapshot exactly (the canonical encoding is a fixed
    // point), which is what lets a service hand checkpoints around
    // without generation drift.
    let sc = Scenario::test_case_a(42);
    let mut bed = Testbed::ctms(&sc);
    bed.run_until(SimTime::from_secs(5));
    let snapshot = bed.bus().checkpoint();

    let mut resumed = Testbed::ctms(&sc);
    resumed
        .bus_mut()
        .restore_checkpoint(&snapshot)
        .expect("restore");
    assert_eq!(
        resumed.bus().checkpoint(),
        snapshot,
        "re-checkpoint after restore is not a fixed point"
    );
}

#[test]
fn sharded_snapshot_restores_at_any_shard_count() {
    // The 16-ring chain genuinely partitions. Snapshot it at 4 shards
    // half-way, then restore at 1 and 2 shards — and into the plain
    // single-threaded chain — and continue. Every continuation must
    // land on the uninterrupted single-threaded run's telemetry and
    // truth digests.
    let sc = Scenario::scaled_chain(42);
    let kind = BridgeKind::cut_through_bridge();
    let mid = SimTime::from_ms(1000);
    let end = SimTime::from_secs(2);

    let chain_digests = |get: &dyn Fn(usize, MeasurePoint) -> u64| {
        [
            get(0, MeasurePoint::VcaIrq),
            get(0, MeasurePoint::VcaHandlerEntry),
            get(0, MeasurePoint::PreTransmit),
            get(1, MeasurePoint::CtmspIdentified),
        ]
    };

    let mut straight = RingChainTestbed::chain(&sc, kind, 16);
    straight.run_until(end);
    let straight_json = straight.telemetry_json();
    let straight_digests = chain_digests(&|host, point| {
        straight
            .bus()
            .measurements()
            .truth_log(host, point)
            .map(|log| log.digest())
            .unwrap_or(0)
    });

    let mut origin = RingChainTestbed::chain_sharded(&sc, kind, 16, 4);
    assert_eq!(origin.shard_count(), 4, "snapshot origin must be sharded");
    origin.run_until(mid);
    let snapshot = origin.bus().checkpoint();

    // Restore into sharded rebuilds with *different* shard counts.
    for shards in [1usize, 2] {
        let mut bed = RingChainTestbed::chain_sharded(&sc, kind, 16, shards);
        bed.bus_mut()
            .restore_checkpoint(&snapshot)
            .unwrap_or_else(|e| panic!("restore at {shards} shards: {e}"));
        assert_eq!(bed.now(), mid);
        bed.run_until(end);
        let got = chain_digests(&|host, point| {
            bed.bus()
                .truth_log(host, point)
                .map(|log| log.digest())
                .unwrap_or(0)
        });
        assert_eq!(
            got, straight_digests,
            "restored chain truth drifted (shards={shards}): {got:#018X?}"
        );
        assert_eq!(
            bed.telemetry_json(),
            straight_json,
            "restored chain telemetry drifted (shards={shards})"
        );
    }

    // And into the plain single-threaded bus.
    let mut bed = RingChainTestbed::chain(&sc, kind, 16);
    bed.bus_mut()
        .restore_checkpoint(&snapshot)
        .expect("restore sharded snapshot into single-threaded bus");
    bed.run_until(end);
    assert_eq!(
        bed.telemetry_json(),
        straight_json,
        "single-threaded restore of a sharded snapshot drifted"
    );

    // Symmetrically: a single-threaded snapshot restores into a
    // sharded rebuild (the formats are one format).
    let mut single_origin = RingChainTestbed::chain(&sc, kind, 16);
    single_origin.run_until(mid);
    let single_snapshot = single_origin.bus().checkpoint();
    let mut bed = RingChainTestbed::chain_sharded(&sc, kind, 16, 4);
    bed.bus_mut()
        .restore_checkpoint(&single_snapshot)
        .expect("restore single snapshot into 4 shards");
    bed.run_until(end);
    assert_eq!(
        bed.telemetry_json(),
        straight_json,
        "sharded restore of a single-threaded snapshot drifted"
    );
}

#[test]
fn sharded_fallback_buses_share_the_checkpoint_format() {
    // Cases A and B are single-ring topologies: `build_sharded` builds
    // one shard at every requested shard count. Snapshot a build asked
    // for 4 shards and restore at 1 and 2 — the fallback must be
    // transparent to the checkpoint layer too.
    let build = |sc: &Scenario, shards: usize| Testbed::ctms_topology(sc).0.build_sharded(shards);
    for sc in [Scenario::test_case_a(42), Scenario::test_case_b(42)] {
        let mut origin = build(&sc, 4);
        origin.run_until(SimTime::from_secs(5));
        let snapshot = origin.checkpoint();

        let mut straight = Testbed::ctms(&sc);
        straight.run_until(SimTime::from_secs(10));
        let straight_json = straight.telemetry_json();

        for shards in [1usize, 2] {
            let mut bus = build(&sc, shards);
            bus.restore_checkpoint(&snapshot)
                .unwrap_or_else(|e| panic!("restore at {shards} shards: {e}"));
            bus.run_until(SimTime::from_secs(10));
            assert_eq!(
                bus.telemetry_json(),
                straight_json,
                "fallback restore drifted (shards={shards})"
            );
        }
    }
}

#[test]
fn mutations_steer_deterministically() {
    // Mutations applied at a restore point must (a) actually change the
    // continuation, and (b) be exactly reproducible: two independent
    // restore-mutate-continue passes agree byte-for-byte.
    let sc = Scenario::test_case_a(42);
    let mut origin = Testbed::ctms(&sc);
    origin.run_until(SimTime::from_secs(5));
    let snapshot = origin.bus().checkpoint();
    let baseline_purges = {
        let mut bed = Testbed::ctms(&sc);
        bed.bus_mut()
            .restore_checkpoint(&snapshot)
            .expect("restore");
        bed.run_until(SimTime::from_secs(8));
        bed.purge_starts().len()
    };

    let mutated = |mutations: &[Mutation]| {
        let mut bed = Testbed::ctms(&sc);
        bed.bus_mut()
            .restore_checkpoint(&snapshot)
            .expect("restore");
        apply_mutations(bed.bus_mut(), mutations).expect("mutations apply");
        bed.run_until(SimTime::from_secs(8));
        let purges = bed.purge_starts().len();
        (purges, bed.telemetry_json())
    };

    let storm = [Mutation::PurgeStorm { ring: 0, count: 3 }];
    let (purges_1, json_1) = mutated(&storm);
    let (purges_2, json_2) = mutated(&storm);
    assert!(
        purges_1 > baseline_purges,
        "a purge storm must add purge sequences ({purges_1} vs {baseline_purges})"
    );
    assert_eq!(purges_1, purges_2, "mutated continuation not deterministic");
    assert_eq!(json_1, json_2, "mutated telemetry not deterministic");

    let churn = [Mutation::StationChurn { ring: 0 }];
    let (churn_purges, churn_json) = mutated(&churn);
    assert!(
        churn_purges > baseline_purges,
        "station churn must trigger an insertion purge burst"
    );
    assert_eq!(churn_json, mutated(&churn).1, "churn not deterministic");

    let stall = [Mutation::DmaStall {
        host: 0,
        extra: Dur::from_us(500),
    }];
    assert_eq!(
        mutated(&stall).1,
        mutated(&stall).1,
        "DMA stall not deterministic"
    );

    // Out-of-range targets are rejected, not silently dropped.
    let mut bed = Testbed::ctms(&sc);
    bed.bus_mut()
        .restore_checkpoint(&snapshot)
        .expect("restore");
    assert!(apply_mutations(bed.bus_mut(), &[Mutation::StationChurn { ring: 9 }]).is_err());
    assert!(apply_mutations(
        bed.bus_mut(),
        &[Mutation::DmaStall {
            host: 99,
            extra: Dur::from_us(1),
        }]
    )
    .is_err());
    // A batch with a bad index applies nothing, not its valid prefix.
    let before = bed.bus().checkpoint();
    let batch = [
        Mutation::StationChurn { ring: 0 },
        Mutation::StationChurn { ring: 9 },
    ];
    assert!(apply_mutations(bed.bus_mut(), &batch).is_err());
    assert_eq!(
        bed.bus().checkpoint(),
        before,
        "a rejected batch must change nothing"
    );
}

#[test]
fn fork_matches_sequential_restores() {
    // Warm-start forking on the sweep pool: each branch must produce
    // exactly what a sequential restore-mutate-run of the same spec
    // produces — parallelism may never change the answer.
    let sc = Scenario::test_case_a(42);
    let mut origin = Testbed::ctms(&sc);
    origin.run_until(SimTime::from_secs(5));
    let snapshot = origin.bus().checkpoint();
    let horizon = SimTime::from_secs(8);

    let branches = vec![
        ForkSpec {
            mutations: Vec::new(),
            run_to: horizon,
        },
        ForkSpec {
            mutations: vec![Mutation::PurgeStorm { ring: 0, count: 2 }],
            run_to: horizon,
        },
        ForkSpec {
            mutations: vec![Mutation::DmaStall {
                host: 0,
                extra: Dur::from_us(200),
            }],
            run_to: horizon,
        },
    ];

    let sequential: Vec<String> = branches
        .iter()
        .map(|spec| {
            let mut bed = Testbed::ctms(&sc);
            bed.bus_mut()
                .restore_checkpoint(&snapshot)
                .expect("restore");
            apply_mutations(bed.bus_mut(), &spec.mutations).expect("mutations");
            bed.run_until(spec.run_to);
            bed.telemetry_json()
        })
        .collect();

    let sc_fork = sc.clone();
    let forked = fork(
        snapshot,
        branches,
        3,
        move || Testbed::ctms(&sc_fork).into_bus(),
        |_idx, mut bus| bus.telemetry_json(),
    )
    .expect("fork runs");

    assert_eq!(
        forked, sequential,
        "forked branches diverged from sequential"
    );
}

#[test]
fn corrupt_and_mismatched_checkpoints_are_rejected() {
    let sc = Scenario::test_case_a(42);
    let mut bed = Testbed::ctms(&sc);
    bed.run_until(SimTime::from_secs(1));
    let good = bed.bus().checkpoint();

    let mut fresh = Testbed::ctms(&sc);

    // Bad magic.
    let mut bad = good.clone();
    bad[0] ^= 0xFF;
    assert!(fresh.bus_mut().restore_checkpoint(&bad).is_err());

    // Unknown version, and a v2 image: its router chunk held samples,
    // which a v3 build cannot read as accumulators.
    let mut bad = good.clone();
    bad[8] = bad[8].wrapping_add(1);
    assert!(fresh.bus_mut().restore_checkpoint(&bad).is_err());
    assert_eq!(u32::from_le_bytes(good[8..12].try_into().unwrap()), 3);
    let mut v2 = good.clone();
    v2[8..12].copy_from_slice(&2u32.to_le_bytes());
    assert!(matches!(
        fresh.bus_mut().restore_checkpoint(&v2),
        Err(PersistError::Mismatch(m)) if m.contains("version 2")
    ));

    // Truncated stream.
    assert!(fresh
        .bus_mut()
        .restore_checkpoint(&good[..good.len() - 1])
        .is_err());

    // Trailing garbage.
    let mut bad = good.clone();
    bad.push(0);
    assert!(fresh.bus_mut().restore_checkpoint(&bad).is_err());

    // Rewound clock: the persisted instant (after the 12-byte header
    // and the length-prefixed topology signature) set to 0 leaves the
    // recorded measurements in the future, where the next record would
    // trip `EdgeLog`'s monotonic assert.
    let sig_len = u32::from_le_bytes(good[12..16].try_into().unwrap()) as usize;
    let clock = 16 + sig_len;
    let mut bad = good.clone();
    bad[clock..clock + 8].fill(0);
    let err = fresh
        .bus_mut()
        .restore_checkpoint(&bad)
        .expect_err("a rewound clock must be rejected");
    assert!(
        matches!(err, PersistError::Mismatch(_)),
        "want Mismatch, got {err:?}"
    );

    // Advanced clock: the persisted instant moved from 1 s to 1.5 s
    // leaves node deadlines (the next at about 1.000025 s) behind it,
    // where the run would service them backwards in time — on one shard
    // and on two.
    let advance = |mut bytes: Vec<u8>| {
        let sig_len = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
        let clock = 16 + sig_len;
        assert_eq!(
            u64::from_le_bytes(bytes[clock..clock + 8].try_into().unwrap()),
            1_000_000_000,
            "the clock sits right after the signature"
        );
        bytes[clock..clock + 8].copy_from_slice(&1_500_000_000u64.to_le_bytes());
        bytes
    };
    let err = fresh
        .bus_mut()
        .restore_checkpoint(&advance(good.clone()))
        .expect_err("an advanced clock must be rejected");
    assert!(
        matches!(err, PersistError::Mismatch(_)),
        "want Mismatch, got {err:?}"
    );
    let chain_sc = Scenario::scaled_chain(42);
    let kind = BridgeKind::cut_through_bridge();
    for shards in [1usize, 2] {
        let mut origin = RingChainTestbed::chain_sharded(&chain_sc, kind, 16, shards);
        origin.run_until(SimTime::from_secs(1));
        let bad = advance(origin.bus().checkpoint());
        let mut target = RingChainTestbed::chain_sharded(&chain_sc, kind, 16, shards);
        let err = target
            .bus_mut()
            .restore_checkpoint(&bad)
            .expect_err("an advanced clock must be rejected");
        assert!(
            matches!(err, PersistError::Mismatch(_)),
            "shards={shards}: want Mismatch, got {err:?}"
        );
    }

    // Wrong topology: a single-ring case-A snapshot cannot land on a
    // 16-ring chain (node count mismatch).
    let mut chain = RingChainTestbed::chain(&sc, BridgeKind::cut_through_bridge(), 16);
    assert!(chain.bus_mut().restore_checkpoint(&good).is_err());
}

#[test]
fn steering_in_place_matches_at_every_shard_count() {
    // A 16-ring chain runs to 1 s, takes one mutation of each kind in
    // place, and runs on to 2 s. The continuation — checkpoint bytes
    // and telemetry JSON — must be identical at 1, 2 and 4 shards, and
    // equal to FNV-1a pins: the telemetry and event count as recorded by
    // steering the same state through the sequential engine before
    // steering worked at any shard count, the checkpoint bytes as
    // re-recorded for format v3.
    let sc = Scenario::scaled_chain(42);
    let kind = BridgeKind::cut_through_bridge();
    let mutations = [
        Mutation::StationChurn { ring: 3 },
        Mutation::PurgeStorm { ring: 9, count: 2 },
        Mutation::DmaStall {
            host: 0,
            extra: Dur::from_us(500),
        },
    ];
    let mut reference: Option<(Vec<u8>, String)> = None;
    for shards in [1usize, 2, 4] {
        let mut bed = RingChainTestbed::chain_sharded(&sc, kind, 16, shards);
        assert_eq!(bed.shard_count(), shards);
        bed.run_until(SimTime::from_secs(1));
        apply_mutations(bed.bus_mut(), &mutations)
            .unwrap_or_else(|e| panic!("steer at {shards} shards: {e}"));
        bed.run_until(SimTime::from_secs(2));
        let got = (bed.bus().checkpoint(), bed.telemetry_json());
        assert_eq!(
            (
                got.0.len(),
                fnv1a(&got.0),
                fnv1a(got.1.as_bytes()),
                bed.events()
            ),
            (8_973, 0xE7AD_4A7D_B131_3F22, 0x335A_1604_D63B_611E, 27_865),
            "steered continuation drifted from the pinned reference (shards={shards})"
        );
        match &reference {
            None => reference = Some(got),
            Some(want) => assert!(*want == got, "shards={shards} diverged"),
        }
    }
}

#[test]
fn checkpoint_bytes_match_the_recorded_format() {
    // Every other test here compares the code with itself, so a silent
    // format change would pass them all. These FNV-1a digests of the
    // image were recorded when format v3 made the router section state
    // only; any byte of drift fails here.
    let mut bed = Testbed::ctms(&Scenario::test_case_a(42));
    bed.run_until(SimTime::from_secs(1));
    let image = bed.bus().checkpoint();
    let got = (image.len(), fnv1a(&image));
    assert_eq!(
        got,
        (2_551, 0xE868_EE9A_037C_BC4C),
        "case A checkpoint bytes drifted: {got:#X?}"
    );

    let sc = Scenario::scaled_chain(42);
    let tree = RingGraph::tree(12, 3);
    let mut origin =
        RingChainTestbed::graph_sharded(&sc, BridgeKind::cut_through_bridge(), &tree, 4);
    origin.run_until(SimTime::from_secs(1));
    let image = origin.bus().checkpoint();
    let got = (image.len(), fnv1a(&image));
    assert_eq!(
        got,
        (6_916, 0x6782_9E2E_3557_6E4E),
        "4-shard tree checkpoint bytes drifted: {got:#X?}"
    );
}

#[test]
fn a_tree_image_is_the_same_at_every_shard_count() {
    // The image is shard-agnostic: a 12-ring tree at 1, 2 and 4 shards
    // snapshots to the bytes of the one-shard `graph` build run to the
    // same instant.
    let sc = Scenario::scaled_chain(42);
    let kind = BridgeKind::cut_through_bridge();
    let tree = RingGraph::tree(12, 3);
    let mut one_shard = RingChainTestbed::graph(&sc, kind, &tree);
    one_shard.run_until(SimTime::from_ms(1000));
    let one_shard_image = one_shard.bus().checkpoint();
    for shards in [1usize, 2, 4] {
        let mut origin = RingChainTestbed::graph_sharded(&sc, kind, &tree, shards);
        assert_eq!(origin.shard_count(), shards);
        origin.run_until(SimTime::from_ms(1000));
        assert!(
            origin.bus().checkpoint() == one_shard_image,
            "image differs from the one-shard run's (shards={shards})"
        );
    }
}

#[test]
fn every_truncated_image_is_rejected_as_truncation() {
    // An image cut anywhere, from no byte at all to one byte short, is
    // `PersistError::UnexpectedEof` — never a panic, a mismatch or a
    // partial apply that leaves the bus usable.
    let sc = Scenario::test_case_a(42);
    let mut bed = Testbed::ctms(&sc);
    bed.run_until(SimTime::from_secs(2));
    let image = bed.bus().checkpoint();
    for cut in 0..image.len() {
        let mut fresh = bare_case_a(42);
        assert_eq!(
            fresh.restore_checkpoint(&image[..cut]),
            Err(PersistError::UnexpectedEof),
            "cut at {cut}/{} should read as truncation",
            image.len()
        );
    }

    // Corrupt magic in an image of full length is a mismatch, not EOF —
    // the typed distinction callers branch on.
    let mut bad = image.clone();
    bad[0] ^= 0xFF;
    let err = bare_case_a(42)
        .restore_checkpoint(&bad)
        .expect_err("bad magic must be rejected");
    assert!(
        matches!(err, PersistError::Mismatch(_)),
        "want Mismatch, got {err:?}"
    );
}

#[test]
fn graph_snapshot_restores_across_shard_counts() {
    // The v2 format on a topology that is *not* a chain: snapshot a
    // 12-ring tree at 4 shards mid-flight, restore at 1, 2 and 4 shards
    // and into the plain single-threaded build, continue — byte-identical to the
    // uninterrupted run, and the restored bus re-checkpoints to the
    // exact snapshot bytes (the encoding is a fixed point regardless of
    // shard count).
    let sc = Scenario::scaled_chain(42);
    let kind = BridgeKind::cut_through_bridge();
    let tree = RingGraph::tree(12, 3);
    let mid = SimTime::from_ms(1000);
    let end = SimTime::from_secs(2);

    let mut straight = RingChainTestbed::graph(&sc, kind, &tree);
    straight.run_until(end);
    let straight_json = straight.telemetry_json();

    let mut origin = RingChainTestbed::graph_sharded(&sc, kind, &tree, 4);
    assert_eq!(origin.shard_count(), 4, "tree must genuinely partition");
    origin.run_until(mid);
    let snapshot = origin.bus().checkpoint();

    // Snapshot at 4 shards, restore at 1, 2 and 4: the continuation
    // and the re-checkpoint must both be exact.
    for shards in [1usize, 2, 4] {
        let mut bed = RingChainTestbed::graph_sharded(&sc, kind, &tree, shards);
        bed.bus_mut()
            .restore_checkpoint(&snapshot)
            .unwrap_or_else(|e| panic!("restore tree snapshot at {shards} shards: {e}"));
        assert_eq!(bed.now(), mid);
        assert!(
            bed.bus().checkpoint() == snapshot,
            "re-checkpoint after restore at {shards} shards is not a fixed point"
        );
        bed.run_until(end);
        assert_eq!(
            bed.telemetry_json(),
            straight_json,
            "tree restored at {shards} shards drifted"
        );
    }

    // And into the plain single-threaded build.
    let mut single = RingChainTestbed::graph(&sc, kind, &tree);
    single
        .bus_mut()
        .restore_checkpoint(&snapshot)
        .expect("restore tree snapshot into single-threaded bus");
    assert_eq!(
        single.bus().checkpoint(),
        snapshot,
        "single-threaded re-checkpoint is not a fixed point"
    );
    single.run_until(end);
    assert_eq!(single.telemetry_json(), straight_json);

    // The embedded graph signature catches shape mismatches loudly: a
    // tree snapshot aimed at a mesh (or FDDI) build of the same ring
    // count is rejected before any node state is touched.
    let mut mesh = RingChainTestbed::graph(&sc, kind, &RingGraph::mesh(12, 42));
    let err = mesh
        .bus_mut()
        .restore_checkpoint(&snapshot)
        .expect_err("tree snapshot must not restore onto a mesh");
    assert!(
        err.to_string().contains("topology"),
        "want a topology-signature error, got: {err}"
    );
    let mut fddi = RingChainTestbed::graph(&sc, kind, &RingGraph::fddi(12));
    assert!(fddi.bus_mut().restore_checkpoint(&snapshot).is_err());
}

/// The bare, sample-less builds `serve` makes: case A on one shard and
/// the 16-ring chain on `shards`.
fn bare_case_a(seed: u64) -> Bus {
    Testbed::ctms_topology(&Scenario::test_case_a(seed))
        .0
        .build_sharded(1)
}

fn bare_chain(seed: u64, shards: usize) -> Bus {
    let sc = Scenario::scaled_chain(seed);
    graph_topology(&sc, BridgeKind::cut_through_bridge(), &RingGraph::chain(16))
        .0
        .build_sharded(shards)
}

/// The four truth-log digests of a bus at any shard count.
fn bus_digests(bus: &Bus) -> [u64; 4] {
    let get = |host: usize, point: MeasurePoint| {
        bus.truth_log(host, point)
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
fn snapshots_hold_state_not_history() {
    // A checkpoint carries accumulators, not samples: run a hundred
    // times longer and the image stays within 2x of its size — on the
    // testbeds that do keep samples in memory, and at 2 shards.
    let sc_a = Scenario::test_case_a(42);
    let sc_b = Scenario::test_case_b(42);
    let sc_chain = Scenario::scaled_chain(42);
    let kind = BridgeKind::cut_through_bridge();
    let cases: [(&str, Bus); 3] = [
        ("case A", Testbed::ctms(&sc_a).into_bus()),
        ("case B", Testbed::ctms(&sc_b).into_bus()),
        (
            "chain/16 at 2 shards",
            RingChainTestbed::chain_sharded(&sc_chain, kind, 16, 2).into_bus(),
        ),
    ];
    for (name, mut bus) in cases {
        bus.run_until(SimTime::from_secs(1));
        let early = bus.checkpoint().len();
        bus.run_until(SimTime::from_secs(100));
        let late = bus.checkpoint().len();
        assert!(
            late <= 2 * early && early <= 2 * late,
            "{name}: {early} B at 1 s, {late} B at 100 s"
        );
        let kept: usize = bus
            .measure_parts()
            .iter()
            .map(|m| m.presented().samples().len())
            .sum();
        assert!(
            kept > 8_000,
            "{name}: the testbed keeps its samples ({kept})"
        );
    }
}

#[test]
fn the_history_sink_does_not_perturb_the_run() {
    // A testbed that keeps every sample and a bare bus that keeps none
    // run the same simulation: the same checkpoint bytes, telemetry and
    // truth digests. Only the samples differ.
    let sc_a = Scenario::test_case_a(7);
    let sc_chain = Scenario::scaled_chain(7);
    let kind = BridgeKind::cut_through_bridge();
    let pairs: [(Bus, Bus); 2] = [
        (Testbed::ctms(&sc_a).into_bus(), bare_case_a(7)),
        (
            RingChainTestbed::chain_sharded(&sc_chain, kind, 16, 2).into_bus(),
            bare_chain(7, 2),
        ),
    ];
    for (mut recording, mut bare) in pairs {
        for bus in [&mut recording, &mut bare] {
            bus.run_until(SimTime::from_secs(3));
        }
        assert!(
            recording.checkpoint() == bare.checkpoint(),
            "checkpoint bytes"
        );
        assert_eq!(recording.telemetry_json(), bare.telemetry_json());
        assert_eq!(bus_digests(&recording), bus_digests(&bare));
        let count = |bus: &Bus| -> (usize, usize) {
            bus.measure_parts()
                .iter()
                .map(|m| (m.presented().len(), m.presented().samples().len()))
                .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1))
        };
        let (total, kept) = count(&recording);
        assert!(
            total > 200 && kept == total,
            "{total} presented, {kept} kept"
        );
        assert_eq!(
            count(&bare),
            (total, 0),
            "a bare bus counts but keeps nothing"
        );
        assert!(bare.tap(0).records() > 0, "the TAP counts its captures");
    }
}

#[test]
fn restore_counts_from_zero_and_samples_from_the_restore_point() {
    // A restored testbed reports totals and digests since t = 0, and
    // samples only from the restore point on.
    let sc = Scenario::test_case_a(42);
    let mut straight = Testbed::ctms(&sc);
    straight.run_until(SimTime::from_secs(4));
    let mut origin = Testbed::ctms(&sc);
    origin.run_until(SimTime::from_secs(2));
    let mut resumed = Testbed::ctms(&sc);
    resumed
        .bus_mut()
        .restore_checkpoint(&origin.bus().checkpoint())
        .expect("restore");
    resumed.run_until(SimTime::from_secs(4));
    assert_eq!(resumed.presented().len(), straight.presented().len());
    assert_eq!(digests(&resumed), digests(&straight));
    let kept = resumed.presented().samples();
    assert!(kept.len() < straight.presented().len() && kept.len() > 100);
    assert!(kept.iter().all(|p| p.0 > SimTime::from_secs(2)));
    assert_eq!(
        kept,
        &straight.presented().samples()[straight.presented().len() - kept.len()..]
    );
}

#[test]
fn measurement_sets_borrow_the_truth_logs() {
    // Handing out a measurement set copies no edge: each of its logs is
    // the truth log itself, on a testbed and on a chain at 2 shards.
    let points = [
        (0, MeasurePoint::VcaIrq),
        (0, MeasurePoint::VcaHandlerEntry),
        (0, MeasurePoint::PreTransmit),
        (1, MeasurePoint::CtmspIdentified),
    ];
    let mut bed = Testbed::ctms(&Scenario::test_case_a(42));
    bed.run_until(SimTime::from_secs(2));
    let mut chain = RingChainTestbed::chain_sharded(
        &Scenario::scaled_chain(42),
        BridgeKind::cut_through_bridge(),
        4,
        2,
    );
    chain.run_until(SimTime::from_secs(2));
    for (set, bus) in [
        (bed.measurement_set(), bed.bus()),
        (chain.measurement_set(), chain.bus()),
    ] {
        let logs = [set.vca_irq, set.handler, set.pre_tx, set.ctmsp_rx];
        for (log, (host, point)) in logs.into_iter().zip(points) {
            let truth = bus.truth_log(host, point).expect("the point fired");
            assert!(!truth.edges().is_empty(), "{point:?} keeps its edges");
            assert_eq!(
                log.edges().as_ptr(),
                truth.edges().as_ptr(),
                "{point:?} was copied"
            );
        }
    }
}

#[test]
fn a_recording_testbed_counts_tap_captures_without_keeping_them() {
    // The TAP keeps accumulators only, on a recording testbed too (it
    // has no record storage); its capture count is what telemetry
    // publishes as `records`.
    let mut bed = Testbed::ctms(&Scenario::test_case_b(42));
    bed.run_until(SimTime::from_secs(10));
    let captured = bed.tap().records();
    let published = bed
        .bus_mut()
        .collect_telemetry()
        .counter_value("measure.tap.ring0.records");
    assert!(captured > 1_000, "{captured} captures");
    assert_eq!(published, Some(captured));
}

/// Every accumulator invariant restore promises, read back through the
/// public API of a restored bus: TAP class counts sum to the captures
/// and its instants are ordered and not past the clock, every truth
/// log's first ≤ last ≤ clock, and the gap histogram holds one gap
/// fewer than the presentations.
fn accumulators_hold(bus: &mut Bus) -> Result<(), String> {
    let now = bus.now();
    for k in 0..bus.ring_count() {
        let tap = bus.tap(k);
        let b = tap.breakdown();
        let classes = [b.mac, b.small, b.file_transfer, b.ctmsp, b.other];
        if classes.iter().try_fold(0u64, |a, &c| a.checked_add(c)) != Some(tap.records()) {
            return Err(format!("ring {k}: class counts do not sum to the captures"));
        }
        let [last_record, first_at, last_at] = tap.instants();
        let ordered = match (first_at, last_at) {
            (None, None) => last_record.is_none(),
            (Some(a), Some(b)) => {
                a <= b && b <= now && last_record.is_none_or(|r| a <= r && r <= b)
            }
            _ => false,
        };
        if !ordered {
            return Err(format!(
                "ring {k}: TAP instants out of order or past the clock"
            ));
        }
    }
    for host in 0..bus.host_count() {
        for point in [
            MeasurePoint::VcaIrq,
            MeasurePoint::VcaHandlerEntry,
            MeasurePoint::PreTransmit,
            MeasurePoint::CtmspIdentified,
            MeasurePoint::Presented,
        ] {
            if let Some(log) = bus.truth_log(host, point) {
                let ok = match (log.first(), log.last()) {
                    (None, None) => log.is_empty(),
                    (Some(a), Some(b)) => a <= b && b <= now && !log.is_empty(),
                    _ => false,
                };
                if !ok {
                    return Err(format!("h{host} {point:?}: instants out of order"));
                }
            }
        }
    }
    let presented: u64 = bus
        .measure_parts()
        .iter()
        .map(|m| m.presented().len() as u64)
        .sum();
    let gaps = match bus.collect_telemetry().get("measure.presented_gap_ms") {
        Some(Value::Hist(h)) => h.total(),
        _ => 0,
    };
    if gaps != presented.saturating_sub(1) {
        return Err(format!("{gaps} gaps for {presented} presentations"));
    }
    Ok(())
}

#[test]
fn corrupt_router_state_is_rejected_or_consistent() {
    // Every byte of the router section — the last 901 bytes of the
    // case-A image, the last 3,001 of the chain's (DESIGN §11) — +0x01
    // and +0x80: restore either fails with a typed error, or yields
    // accumulators that keep every invariant above and run on for
    // 100 ms. Nothing panics.
    let case_a: fn() -> Bus = || bare_case_a(42);
    let chain: fn() -> Bus = || bare_chain(42, 2);
    for (name, build, router_len) in [
        ("case A", case_a, 901),
        ("chain/16 at 2 shards", chain, 3_001),
    ] {
        let mut origin = build();
        origin.run_until(SimTime::from_secs(1));
        let good = origin.checkpoint();
        let router = good.len() - router_len;
        let (mut rejected, mut accepted) = (0, 0);
        for at in router..good.len() {
            for delta in [0x01u8, 0x80] {
                let mut bad = good.clone();
                bad[at] = bad[at].wrapping_add(delta);
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let mut bus = build();
                    match bus.restore_checkpoint(&bad) {
                        Err(e) => Err(e),
                        Ok(()) => {
                            let held = accumulators_hold(&mut bus);
                            let until = bus.now() + Dur::from_ms(100);
                            let _ = bus.try_run_until(until);
                            Ok(held)
                        }
                    }
                }));
                match outcome {
                    Err(_) => panic!("{name}: byte {at} +{delta:#04x} panicked"),
                    Ok(Err(_)) => rejected += 1,
                    Ok(Ok(Err(broken))) => {
                        panic!("{name}: byte {at} +{delta:#04x} was accepted with {broken}")
                    }
                    Ok(Ok(Ok(()))) => accepted += 1,
                }
            }
        }
        assert!(
            rejected > 0 && accepted > 0,
            "{name}: {rejected} rejected, {accepted} accepted"
        );
    }
}
