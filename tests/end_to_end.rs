//! Cross-crate integration tests: the full testbed, end to end.

use ctms_core::{Scenario, Testbed};
use ctms_devices::{CtmsVcaSink, CtmsVcaSource};
use ctms_measure::HistId;
use ctms_sim::SimTime;
use ctms_stats::Summary;
use ctms_tokenring::Disturb;
use ctms_unixkern::SockProto;

/// The simulation is fully deterministic: identical seeds produce
/// identical measurement sets, sample for sample.
#[test]
fn same_seed_same_run() {
    let run = || {
        let sc = Scenario::test_case_b(1234);
        let mut bed = Testbed::ctms(&sc);
        bed.run_until(SimTime::from_secs(10));
        bed.measurement_set().samples_us(HistId::H7)
    };
    let a = run();
    let b = run();
    assert_eq!(a.len(), b.len());
    assert_eq!(a, b);
}

/// Different seeds produce different (but statistically similar) runs.
#[test]
fn different_seed_different_run() {
    let run = |seed| {
        let sc = Scenario::test_case_b(seed);
        let mut bed = Testbed::ctms(&sc);
        bed.run_until(SimTime::from_secs(10));
        bed.measurement_set().samples_us(HistId::H7)
    };
    let a = run(1);
    let b = run(2);
    assert_ne!(a, b);
    let (sa, sb) = (Summary::of(&a), Summary::of(&b));
    assert!(
        (sa.mean - sb.mean).abs() < 1000.0,
        "{} vs {}",
        sa.mean,
        sb.mean
    );
}

/// A 2 s slice of case A presents the stream at its nominal rate.
#[test]
fn run_slice_delivers_packets() {
    let sc = Scenario::test_case_a(7);
    let mut bed = Testbed::ctms(&sc);
    bed.run_until(SimTime::from_secs(2));
    let n = bed.presented().len();
    // ~83 packets/s for 2 s, minus in-flight.
    assert!((150..=170).contains(&n), "{n}");
}

/// Case A sustains the stream with essentially no loss and a tight
/// latency distribution (Figure 5-3's headline shape).
#[test]
fn case_a_invariants() {
    let sc = Scenario::test_case_a(99);
    let mut bed = Testbed::ctms(&sc);
    bed.run_until(SimTime::from_secs(30));
    let src = bed
        .host(0)
        .kernel
        .driver_ref::<CtmsVcaSource>(bed.roles.vca_src)
        .expect("src");
    let sink = bed
        .host(1)
        .kernel
        .driver_ref::<CtmsVcaSink>(bed.roles.vca_sink)
        .expect("sink");
    assert_eq!(src.stats().mbuf_drops, 0);
    assert!(sink.stats().received >= src.stats().pkts_sent - 2);
    assert_eq!(sink.stats().duplicates, 0);
    let h7 = bed.measurement_set().samples_us(HistId::H7);
    let s = Summary::of(&h7);
    assert!(s.min >= 10_600.0, "min {}", s.min);
    assert!(s.mean < 11_100.0, "mean {}", s.mean);
    // Latency floor: the simulation can never beat the analytic floor.
    assert!(s.min >= sc.calib.h7_floor_us(sc.pkt_len), "below floor");
}

/// CTMSP packets are delivered strictly in order (the §3 sequencing
/// guarantee): the receiver never sees a packet number decrease.
#[test]
fn sequencing_guarantee() {
    let sc = Scenario::test_case_b(5);
    let mut bed = Testbed::ctms(&sc);
    bed.run_until(SimTime::from_secs(20));
    let mut last = 0u64;
    for (_, tag, _) in bed.presented() {
        assert!(tag > last, "out of order: {tag} after {last}");
        last = tag;
    }
    assert!(last > 1_500, "stream ran: {last}");
}

/// A station insertion purges the ring; the stream loses at most the
/// in-flight window and recovers by itself (§5's recovery code).
#[test]
fn insertion_recovery() {
    let sc = Scenario::test_case_a(77);
    let mut bed = Testbed::ctms(&sc);
    bed.run_until(SimTime::from_secs(5));
    bed.disturb(Disturb::StationInsertion);
    bed.run_until(SimTime::from_secs(15));
    let stats = bed.ring().stats();
    assert_eq!(stats.purge_sequences, 1);
    assert!((8..=12).contains(&(stats.purges as u32)));
    let sink_stats = bed
        .host(1)
        .kernel
        .driver_ref::<CtmsVcaSink>(bed.roles.vca_sink)
        .expect("sink")
        .stats();
    // The stream continues after the purge: packets received near the end.
    let received_after = bed
        .presented()
        .iter()
        .filter(|(t, _, _)| *t > SimTime::from_secs(14))
        .count();
    assert!(received_after > 50, "stream recovered: {received_after}");
    // At most the blocked backlog was lost (purge ≈ 130 ms ≈ 11 packets),
    // and the recovery tolerated every gap without stalling.
    assert!(sink_stats.missed_pkts <= 13, "{:?}", sink_stats);
    // The worst delayed packets show the 120–130 ms outlier signature.
    let h7 = bed.measurement_set().samples_us(HistId::H7);
    let max = h7.iter().copied().fold(0.0f64, f64::max);
    assert!(
        (100_000.0..200_000.0).contains(&max),
        "outlier packet delayed ~120-130 ms, got {max}"
    );
}

/// The purge-interrupt extension (the mode §5 wishes the adapter had)
/// recovers the lost packet by retransmission, at the cost of duplicates
/// the receiver must discard.
#[test]
fn purge_interrupt_retransmission() {
    let mut sc = Scenario::test_case_a(31);
    sc.purge_interrupt = true;
    let mut bed = Testbed::ctms(&sc);
    bed.run_until(SimTime::from_secs(5));
    bed.disturb(Disturb::SoftError);
    bed.run_until(SimTime::from_secs(10));
    let tr = bed
        .host(0)
        .kernel
        .driver_ref::<ctms_ctmsp::TrDriver>(bed.roles.tr_tx)
        .expect("tr");
    assert!(tr.stats().retransmits >= 1, "{:?}", tr.stats());
}

/// The stock path's breakdown is rate-dependent: clean at 16 KB/s,
/// failing at 150 KB/s, with TCP-lite no better than UDP-lite.
#[test]
fn stock_path_rate_cliff() {
    let glitches = |rate: u32, proto: SockProto| {
        let sc = Scenario::test_case_a(3);
        let mut bed = Testbed::stock(&sc, rate, proto);
        bed.run_until(SimTime::from_secs(20));
        bed.host(1)
            .kernel
            .driver_ref::<ctms_devices::StockAudioSink>(bed.roles.vca_sink)
            .expect("sink")
            .stats()
            .underruns
    };
    assert_eq!(glitches(16_000, SockProto::UdpLite), 0);
    assert!(glitches(150_000, SockProto::UdpLite) > 10);
    assert!(glitches(150_000, SockProto::TcpLite) > 10);
}

/// TCP-lite generates the §3 complaint: extra ack traffic on the ring.
#[test]
fn tcp_ack_traffic_exists() {
    let sc = Scenario::test_case_a(13);
    let mut bed = Testbed::stock(&sc, 16_000, SockProto::TcpLite);
    bed.run_until(SimTime::from_secs(10));
    let acks = bed.host(1).kernel.stats().acks_tx;
    assert!(acks > 700, "one ack per segment, got {acks}");
    // And the transmitter processed them.
    let sock = bed
        .host(0)
        .kernel
        .sock(ctms_unixkern::Port(10))
        .expect("sock");
    assert!(sock.stats.acks_rx > 700);
    assert_eq!(bed.host(0).kernel.stats().retx, 0, "reliable ring: no retx");
}

/// TAP sees the same CTMSP stream the receiver gets: its loss/order
/// analysis agrees with the sink's recovery counters.
#[test]
fn tap_agrees_with_receiver() {
    let sc = Scenario::test_case_a(21);
    let mut bed = Testbed::ctms(&sc);
    bed.run_until(SimTime::from_secs(20));
    let a = bed.tap().analyze_stream();
    let sink = bed
        .host(1)
        .kernel
        .driver_ref::<CtmsVcaSink>(bed.roles.vca_sink)
        .expect("sink");
    assert_eq!(a.out_of_order, 0);
    assert_eq!(a.duplicates, 0);
    // Frames on the wire ≥ frames delivered (losses happen after TAP's
    // vantage point only via receive-side drops).
    assert!(a.captured >= sink.stats().received);
}

/// Buffer accounting: mbuf pool drains back to the background level when
/// the stream stops (no leaks across the driver paths).
#[test]
fn mbuf_pool_conservation() {
    let sc = Scenario::test_case_a(8);
    let mut bed = Testbed::ctms(&sc);
    bed.run_until(SimTime::from_secs(10));
    for host in bed.hosts() {
        let stats = host.kernel.mbuf_stats();
        assert_eq!(stats.drops, 0, "no interrupt-level drops in case A");
        // In-flight CTMS data holds at most a few chains.
        assert!(
            host.kernel.mbuf_stats().peak_in_use < 200,
            "peak {}",
            stats.peak_in_use
        );
    }
}

/// The §5.1 control-plane path: a user process establishes the connection
/// through the ioctl sequence (mode, precomputed header, handles, start)
/// and exits; the stream then flows entirely in-kernel.
#[test]
fn explicit_ioctl_setup_starts_the_stream() {
    let mut sc = Scenario::test_case_a(55);
    sc.explicit_setup = true;
    let mut bed = Testbed::ctms(&sc);
    bed.run_until(SimTime::from_secs(5));
    let src = bed
        .host(0)
        .kernel
        .driver_ref::<CtmsVcaSource>(bed.roles.vca_src)
        .expect("src");
    assert!(src.setup().complete(), "{:?}", src.setup());
    assert!(src.setup().running);
    assert_eq!(src.stats().ioctl_rejects, 0);
    // The stream started a hair later than autostart (setup ioctls take
    // a few syscalls) but flows at full rate.
    assert!(src.stats().pkts_sent > 400, "{:?}", src.stats());
    let sink = bed
        .host(1)
        .kernel
        .driver_ref::<CtmsVcaSink>(bed.roles.vca_sink)
        .expect("sink");
    assert!(sink.stats().received >= src.stats().pkts_sent - 2);
}

/// Before the control-plane ioctls run, a `require_setup` device is
/// inert — and out-of-order ioctls are rejected (§5.1's device state).
#[test]
fn stream_requires_setup_when_configured() {
    let mut sc = Scenario::test_case_a(56);
    sc.explicit_setup = true;
    let mut bed = Testbed::ctms(&sc);
    // Boot only: the setup process has not completed any ioctl yet.
    bed.run_until(SimTime::from_ns(1));
    let src = bed
        .host(0)
        .kernel
        .driver_ref::<CtmsVcaSource>(bed.roles.vca_src)
        .expect("src");
    assert!(!src.setup().running, "inert before setup");
    assert!(!src.setup().complete());
    assert_eq!(src.stats().pkts_sent, 0);
    // After one second the control process has finished and the stream
    // flows; the setup sequence rejected nothing.
    bed.run_until(SimTime::from_secs(1));
    let src = bed
        .host(0)
        .kernel
        .driver_ref::<CtmsVcaSource>(bed.roles.vca_src)
        .expect("src");
    assert!(src.setup().running);
    assert_eq!(src.stats().ioctl_rejects, 0);
    assert!(src.stats().pkts_sent > 50);
}

/// The latency distribution's *shape* is stable across seeds: different
/// randomness, same physics. Guards against accidental calibration drift
/// (a change that moves the distribution shows up as a large KS distance
/// between a current run and the physics the claims were tuned to).
#[test]
fn h7_distribution_stable_across_seeds() {
    let run = |seed| {
        let sc = Scenario::test_case_a(seed);
        let mut bed = Testbed::ctms(&sc);
        bed.run_until(SimTime::from_secs(20));
        bed.measurement_set().samples_us(HistId::H7)
    };
    let a = run(101);
    let b = run(202);
    let d = ctms_stats::ks_statistic(&a, &b);
    assert!(d < 0.12, "seed-to-seed KS distance {d}");
    // And both stay inside the Figure 5-3 envelope.
    for xs in [&a, &b] {
        let s = Summary::of(xs);
        assert!((10_700.0..10_800.0).contains(&s.min), "min {}", s.min);
        assert!((10_820.0..10_960.0).contains(&s.mean), "mean {}", s.mean);
    }
}
