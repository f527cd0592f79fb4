//! Checkpoint/restore equivalence: the tier-1 golden invariant of the
//! state-serialization layer.
//!
//! The contract under test: snapshot a run mid-flight, rebuild the
//! topology from the same scenario, restore, continue — and the result
//! is **byte-identical** to never having stopped. "Byte-identical" is
//! pinned against the same golden truth-log digests and canonical
//! telemetry JSON the determinism suite pins for uninterrupted runs, so
//! a checkpoint that silently loses any piece of state (an RNG stream,
//! a timer wheel, a TAP record, a half-open TCP retransmit) moves a
//! digest and fails here.
//!
//! The format is also shard-agnostic: a snapshot taken at 4 shards must
//! restore into 1- and 2-shard rebuilds and still continue onto the
//! one-shard goldens.

use ctms_core::{
    apply_mutations, fork, ForkSpec, Mutation, RingChainTestbed, RingGraph, Scenario, Testbed,
};
use ctms_router::BridgeKind;
use ctms_sim::telemetry::fnv1a;
use ctms_sim::{ChunkSink, Dur, PersistError, SimTime};
use ctms_unixkern::MeasurePoint;

/// Collects a chunk stream for inspection: every payload chunk in
/// order, plus the total the writer reported at finish.
struct CollectSink {
    chunks: Vec<Vec<u8>>,
    finished: Option<u64>,
}

impl CollectSink {
    fn new() -> Self {
        CollectSink {
            chunks: Vec::new(),
            finished: None,
        }
    }
}

impl ChunkSink for CollectSink {
    fn chunk(&mut self, bytes: &[u8]) -> Result<(), PersistError> {
        assert!(!bytes.is_empty(), "payload chunks are never empty");
        self.chunks.push(bytes.to_vec());
        Ok(())
    }

    fn finish(&mut self, payload: u64) -> Result<(), PersistError> {
        self.finished = Some(payload);
        Ok(())
    }
}

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

    // Unknown version.
    let mut bad = good.clone();
    bad[8] = bad[8].wrapping_add(1);
    assert!(fresh.bus_mut().restore_checkpoint(&bad).is_err());

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
    // equal to FNV-1a pins recorded by steering the same state through
    // the sequential engine before steering worked at any shard count.
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
            (
                121_775,
                0x2874_13C7_4B27_700E,
                0x335A_1604_D63B_611E,
                27_865
            ),
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
    // image and framed bytes were recorded before the codec was folded
    // into one streamed path; any byte of drift fails here.
    let bytes_digests =
        |image: Vec<u8>, framed: Vec<u8>| (image.len(), fnv1a(&image), fnv1a(&framed));

    let mut bed = Testbed::ctms(&Scenario::test_case_a(42));
    bed.run_until(SimTime::from_secs(1));
    let mut framed = Vec::new();
    bed.bus().write_checkpoint(&mut framed).expect("write");
    let got = bytes_digests(bed.bus().checkpoint(), framed);
    assert_eq!(
        got,
        (11_852, 0xA351_95B0_5FA1_19F9, 0xB363_1A95_9960_7A2F),
        "case A checkpoint bytes drifted: {got:#X?}"
    );

    let sc = Scenario::scaled_chain(42);
    let tree = RingGraph::tree(12, 3);
    let mut origin =
        RingChainTestbed::graph_sharded(&sc, BridgeKind::cut_through_bridge(), &tree, 4);
    origin.run_until(SimTime::from_secs(1));
    let mut framed = Vec::new();
    origin.bus().write_checkpoint(&mut framed).expect("write");
    let got = bytes_digests(origin.bus().checkpoint(), framed);
    assert_eq!(
        got,
        (32_502, 0x3CEB_C05A_AD83_980E, 0x570E_60E9_68C7_C515),
        "4-shard tree checkpoint bytes drifted: {got:#X?}"
    );
}

#[test]
fn streamed_checkpoint_concatenates_to_the_monolithic_snapshot() {
    // The streaming writer's contract: chunk payloads concatenate to
    // **exactly** the bytes of the monolithic `checkpoint()`, on the
    // single-threaded bus and on genuinely sharded builds at every
    // shard count. The writer must also actually chunk — a snapshot
    // bigger than the chunk size may not arrive as one buffer.
    let sc = Scenario::test_case_a(42);
    let mut bed = Testbed::ctms(&sc);
    bed.run_until(SimTime::from_secs(5));
    let mono = bed.bus().checkpoint();
    let mut sink = CollectSink::new();
    let (payload, chunks) = bed.bus().checkpoint_stream(&mut sink).expect("stream");
    assert_eq!(sink.chunks.concat(), mono, "concatenation drifted (single)");
    assert_eq!(payload as usize, mono.len());
    assert_eq!(chunks as usize, sink.chunks.len());
    assert_eq!(sink.finished, Some(payload), "finish not reported");

    let chain_sc = Scenario::scaled_chain(42);
    let kind = BridgeKind::cut_through_bridge();
    let tree = RingGraph::tree(12, 3);
    for shards in [1usize, 2, 4] {
        let mut origin = RingChainTestbed::graph_sharded(&chain_sc, kind, &tree, shards);
        origin.run_until(SimTime::from_ms(1000));
        let mono = origin.bus().checkpoint();
        let mut sink = CollectSink::new();
        let (payload, _) = origin
            .bus()
            .checkpoint_stream(&mut sink)
            .unwrap_or_else(|e| panic!("stream at {shards} shards: {e}"));
        assert_eq!(
            sink.chunks.concat(),
            mono,
            "concatenation drifted (shards={shards})"
        );
        assert_eq!(payload as usize, mono.len());
        assert!(
            sink.chunks.len() > 1,
            "snapshot of {} bytes should span multiple chunks",
            mono.len()
        );
    }
}

#[test]
fn framed_stream_round_trips_across_shard_counts() {
    // write_checkpoint at 4 shards, read_checkpoint at 1/2/4 and into
    // the plain single-threaded build: every continuation lands on the
    // uninterrupted run's telemetry, and the restored bus re-streams to
    // the identical framed bytes (the encoding stays a fixed point
    // through the chunked path).
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
    let mut framed = Vec::new();
    origin.bus().write_checkpoint(&mut framed).expect("write");

    for shards in [1usize, 2, 4] {
        let mut bed = RingChainTestbed::graph_sharded(&sc, kind, &tree, shards);
        bed.bus_mut()
            .read_checkpoint(&mut framed.as_slice())
            .unwrap_or_else(|e| panic!("read at {shards} shards: {e}"));
        assert_eq!(bed.now(), mid);
        let mut again = Vec::new();
        bed.bus().write_checkpoint(&mut again).expect("re-write");
        assert_eq!(
            again, framed,
            "re-streamed checkpoint is not a fixed point (shards={shards})"
        );
        bed.run_until(end);
        assert_eq!(
            bed.telemetry_json(),
            straight_json,
            "streamed restore drifted (shards={shards})"
        );
    }

    let mut single = RingChainTestbed::graph(&sc, kind, &tree);
    single
        .bus_mut()
        .read_checkpoint(&mut framed.as_slice())
        .expect("read into single-threaded bus");
    single.run_until(end);
    assert_eq!(
        single.telemetry_json(),
        straight_json,
        "single-threaded streamed restore drifted"
    );
}

#[test]
fn truncated_stream_is_rejected_with_a_typed_error() {
    // A framed stream cut anywhere — mid-length-prefix, mid-chunk,
    // mid-terminator — must surface as `PersistError::UnexpectedEof`
    // from `read_checkpoint`, never a panic and never a partial apply
    // that leaves the bus half-restored and usable.
    let sc = Scenario::test_case_a(42);
    let mut bed = Testbed::ctms(&sc);
    bed.run_until(SimTime::from_secs(2));
    let mut framed = Vec::new();
    bed.bus().write_checkpoint(&mut framed).expect("write");

    let cuts = [
        0,                // before any byte
        2,                // inside the first chunk's length prefix
        framed.len() / 3, // mid-chunk payload
        framed.len() / 2,
        framed.len() - 10, // inside the terminator
        framed.len() - 1,
    ];
    for cut in cuts {
        let mut fresh = Testbed::ctms(&sc);
        let err = fresh
            .bus_mut()
            .read_checkpoint(&mut &framed[..cut])
            .expect_err("truncated stream must be rejected");
        assert_eq!(
            err,
            PersistError::UnexpectedEof,
            "cut at {cut}/{} should read as truncation",
            framed.len()
        );
    }

    // Corrupt magic inside an intact frame is a mismatch, not EOF —
    // the typed distinction callers branch on.
    let mut bad = framed.clone();
    bad[4] ^= 0xFF; // first magic byte (after the u32 chunk length)
    let mut fresh = Testbed::ctms(&sc);
    let err = fresh
        .bus_mut()
        .read_checkpoint(&mut bad.as_slice())
        .expect_err("bad magic must be rejected");
    assert!(
        matches!(err, PersistError::Mismatch(_)),
        "want Mismatch, got {err:?}"
    );
}

#[test]
fn graph_snapshot_restores_across_shard_counts() {
    // The v2 format on a topology that is *not* a chain: snapshot a
    // 12-ring tree at 4 shards mid-flight, restore at 1 shard and into
    // the plain single-threaded build, continue — byte-identical to the
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

    // Snapshot at 4 shards, restore at 1 (the sharded API's fallback):
    // the continuation and the re-checkpoint must both be exact.
    let mut at_one = RingChainTestbed::graph_sharded(&sc, kind, &tree, 1);
    at_one
        .bus_mut()
        .restore_checkpoint(&snapshot)
        .expect("restore tree snapshot at 1 shard");
    assert_eq!(at_one.now(), mid);
    assert_eq!(
        at_one.bus().checkpoint(),
        snapshot,
        "re-checkpoint after cross-shard restore is not a fixed point"
    );
    at_one.run_until(end);
    assert_eq!(
        at_one.telemetry_json(),
        straight_json,
        "tree restored at 1 shard drifted"
    );

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
