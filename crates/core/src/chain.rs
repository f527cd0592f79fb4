//! Ring-chain testbeds: a CTMS stream crossing `N` Token Rings through
//! `N − 1` routers (experiment E12, the paper's footnote-5 extension,
//! generalized to arbitrary chain length).
//!
//! Topology for `N = 2` (the paper's dual-ring case):
//!
//! ```text
//!   ring 0: [0] tx host   [1] idle  [2] idle  [3] bridge 0 port A
//!   ring 1: [0] bridge 0 port B  [1] rx host  [2] idle  [3] idle
//! ```
//!
//! Longer chains repeat the middle pattern: every interior ring carries
//! the previous bridge's B port at station 0 and the next bridge's A
//! port at station 3. The transmitter addresses the first bridge's
//! ring-0 station; each bridge re-addresses CTMSP frames one hop
//! further, until the last bridge targets the receiver. All rings carry
//! their own MAC background; measurement points work exactly as on the
//! single-ring testbed (tags survive every hop).

use crate::graph::{graph_topology, RingGraph};
use crate::scenario::Scenario;
use crate::topology::Bus;
use ctms_devices::{CtmsVcaSink, CtmsVcaSource};
use ctms_measure::MeasurementSet;
use ctms_router::BridgeKind;
use ctms_sim::{CascadeError, EdgeLog, SimTime};
use ctms_tokenring::TokenRing;
use ctms_unixkern::{DriverId, Host, MeasurePoint};

/// The N-ring chain testbed. See module docs.
pub struct RingChainTestbed {
    bus: Bus,
    vca_src: DriverId,
    vca_sink: DriverId,
}

/// The paper's dual-ring case is the two-ring chain.
pub type DualRingTestbed = RingChainTestbed;

impl RingChainTestbed {
    /// Builds the two-ring (dual-ring) testbed with the given forwarding
    /// engine — the paper's footnote-5 configuration.
    pub fn new(sc: &Scenario, kind: BridgeKind) -> RingChainTestbed {
        Self::chain(sc, kind, 2)
    }

    /// Builds a chain of `n ≥ 2` rings joined by `n − 1` identical
    /// forwarding engines, on one shard. Host-side configuration
    /// (packet size, period, copy flags) comes from the scenario; every
    /// ring is a private four-station ring.
    pub fn chain(sc: &Scenario, kind: BridgeKind, n: usize) -> RingChainTestbed {
        Self::chain_sharded(sc, kind, n, 1)
    }

    /// Like [`RingChainTestbed::chain`], but with `shards` ring
    /// partitions. Bit-identical results at every shard count for the
    /// same scenario, seed, and horizon — the shard-parity tests pin
    /// this. The layout (and every RNG stream) is the historical
    /// hand-rolled chain's: [`graph_topology`] over
    /// [`RingGraph::chain`].
    pub fn chain_sharded(
        sc: &Scenario,
        kind: BridgeKind,
        n: usize,
        shards: usize,
    ) -> RingChainTestbed {
        Self::graph_sharded(sc, kind, &RingGraph::chain(n), shards)
    }

    /// Builds the testbed for an arbitrary [`RingGraph`] on one shard —
    /// a chain is just one shape; trees, meshes, and FDDI backbones come
    /// from the same construction. The stream runs from the graph's TX
    /// ring to its RX ring along the build-time shortest bridge path.
    pub fn graph(sc: &Scenario, kind: BridgeKind, graph: &RingGraph) -> RingChainTestbed {
        Self::graph_sharded(sc, kind, graph, 1)
    }

    /// Like [`RingChainTestbed::graph`], but with a `shards`-way graph
    /// partition. Bit-identical at every shard count for any shape —
    /// the topology-variant golden tests pin this.
    pub fn graph_sharded(
        sc: &Scenario,
        kind: BridgeKind,
        graph: &RingGraph,
        shards: usize,
    ) -> RingChainTestbed {
        let (topo, vca_src, vca_sink) = graph_topology(sc, kind, graph);
        RingChainTestbed {
            bus: topo.build_sharded(shards),
            vca_src,
            vca_sink,
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.bus.now()
    }

    /// Runs until `horizon`.
    pub fn run_until(&mut self, horizon: SimTime) {
        self.bus.run_until(horizon);
    }

    /// Runs until `horizon`, reporting cascade overflow as a typed error.
    pub fn try_run_until(&mut self, horizon: SimTime) -> Result<(), CascadeError> {
        self.bus.try_run_until(horizon)
    }

    /// Number of rings in the chain.
    pub fn ring_count(&self) -> usize {
        self.bus.ring_count()
    }

    /// Number of shards the chain runs on.
    pub fn shard_count(&self) -> usize {
        self.bus.shard_count()
    }

    /// Caps how many pool workers a window dispatch invites.
    pub fn set_threads(&mut self, threads: usize) {
        self.bus.set_threads(threads);
    }

    /// Component activations serviced so far.
    pub fn events(&self) -> u64 {
        self.bus.events()
    }

    /// Ring `k` (0 = transmitter's, last = receiver's).
    pub fn ring(&self, k: usize) -> &TokenRing {
        self.bus.ring(k)
    }

    /// Bridge `k` (joins ring `k` to ring `k + 1`).
    pub fn bridge(&self, k: usize) -> &ctms_router::Bridge {
        self.bus.bridge(k)
    }

    /// The transmitter host.
    pub fn tx_host(&self) -> &Host {
        self.bus.host(0)
    }

    /// The receiver host.
    pub fn rx_host(&self) -> &Host {
        self.bus.host(1)
    }

    /// The underlying event bus.
    pub fn bus(&self) -> &Bus {
        &self.bus
    }

    /// Mutable event bus, for telemetry collection and phase snapshots.
    pub fn bus_mut(&mut self) -> &mut Bus {
        &mut self.bus
    }

    /// Consumes the testbed, yielding its bus — the shape
    /// [`crate::checkpoint::fork`] builders produce.
    pub fn into_bus(self) -> Bus {
        self.bus
    }

    /// Collects and serializes the whole chain's metric tree as
    /// canonical JSON (byte-identical across runs of the same seed).
    pub fn telemetry_json(&mut self) -> String {
        self.bus.telemetry_json()
    }

    /// The measurement set: points 1–3 from the transmitter (ring 0),
    /// point 4 from the receiver (last ring). H7 spans every ring and
    /// router in the chain.
    pub fn measurement_set(&self) -> MeasurementSet {
        let log = |host: usize, point: MeasurePoint| {
            self.bus
                .truth_log(host, point)
                .cloned()
                .unwrap_or_else(|| EdgeLog::new(format!("h{host}-{point:?}")))
        };
        MeasurementSet {
            vca_irq: log(0, MeasurePoint::VcaIrq),
            handler: log(0, MeasurePoint::VcaHandlerEntry),
            pre_tx: log(0, MeasurePoint::PreTransmit),
            ctmsp_rx: log(1, MeasurePoint::CtmspIdentified),
        }
    }

    /// Packets sent / received / dropped. Drops count every loss along
    /// the chain: host-stack drops, ring-queue drops, purge losses, and
    /// bridge-queue overflows, summed over the shards' measurement
    /// parts.
    pub fn counters(&self) -> (u64, u64, u64) {
        let sent = self
            .tx_host()
            .kernel
            .driver_ref::<CtmsVcaSource>(self.vca_src)
            .map(|d| d.stats().pkts_sent)
            .unwrap_or(0);
        let received = self
            .rx_host()
            .kernel
            .driver_ref::<CtmsVcaSink>(self.vca_sink)
            .map(|d| d.stats().received)
            .unwrap_or(0);
        let overflow: u64 = (0..self.bus.bridge_count())
            .map(|k| self.bus.bridge(k).stats().overflows)
            .sum();
        let measured: u64 = self
            .bus
            .measure_parts()
            .iter()
            .map(|m| m.drops().len() as u64 + m.lost_to_purge().len() as u64 + m.bridge_drops())
            .sum();
        (sent, received, measured + overflow)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctms_measure::HistId;
    use ctms_sim::Dur;
    use ctms_stats::Summary;

    #[test]
    fn stream_crosses_two_rings_via_cut_through() {
        let sc = Scenario::test_case_a(42);
        let mut bed = DualRingTestbed::new(&sc, BridgeKind::cut_through_bridge());
        bed.run_until(SimTime::from_secs(10));
        let (sent, received, drops) = bed.counters();
        assert!(sent > 800, "{sent}");
        assert!(received >= sent - 2, "sent {sent} received {received}");
        assert_eq!(drops, 0);
        // End-to-end latency ≈ two single-ring hops + bridge service.
        let h7 = bed.measurement_set().samples_us(HistId::H7);
        let s = Summary::of(&h7);
        let single = sc.calib.h7_floor_us(sc.pkt_len);
        assert!(
            s.min > single + 4_000.0,
            "two hops strictly slower: {} vs {single}",
            s.min
        );
        assert!(s.mean < 25_000.0, "cut-through keeps it tight: {}", s.mean);
    }

    #[test]
    fn host_router_cannot_keep_up_at_full_rate() {
        // The footnote-5 worry, quantified: the 1991 forwarding host's
        // ~12.6 ms service exceeds the stream's 12 ms period, so its
        // queue overflows and the stream breaks up.
        let sc = Scenario::test_case_a(42);
        let mut bed = DualRingTestbed::new(&sc, BridgeKind::host_router_1991());
        bed.run_until(SimTime::from_secs(20));
        let (sent, received, drops) = bed.counters();
        assert!(
            (received as f64) < sent as f64 * 0.97,
            "router saturated: {received}/{sent}"
        );
        assert!(drops > 5, "{drops}");
    }

    #[test]
    fn host_router_keeps_up_at_half_rate() {
        // At one packet per 24 ms (~83 KB/s) the same host router keeps
        // up — the crossover sits between half and full CTMS rate.
        let mut sc = Scenario::test_case_a(42);
        sc.period = Dur::from_ms(24);
        let mut bed = DualRingTestbed::new(&sc, BridgeKind::host_router_1991());
        bed.run_until(SimTime::from_secs(20));
        let (sent, received, drops) = bed.counters();
        assert!(received >= sent - 2, "{received}/{sent}");
        assert_eq!(drops, 0);
        // It pays the store-and-forward latency even when it keeps up.
        let h7 = bed.measurement_set().samples_us(HistId::H7);
        let host = Summary::of(&h7).mean;
        let cut = {
            let mut b2 = DualRingTestbed::new(&sc, BridgeKind::cut_through_bridge());
            b2.run_until(SimTime::from_secs(20));
            Summary::of(&b2.measurement_set().samples_us(HistId::H7)).mean
        };
        assert!(
            host > cut + 10_000.0,
            "store-and-forward pays ~12 ms: host {host} vs cut {cut}"
        );
    }

    #[test]
    fn stream_crosses_a_three_ring_chain() {
        // The generalization: three rings, two cut-through bridges, end to
        // end. Each extra hop adds ring latency but loses nothing.
        let sc = Scenario::test_case_a(42);
        let mut bed = RingChainTestbed::chain(&sc, BridgeKind::cut_through_bridge(), 3);
        assert_eq!(bed.ring_count(), 3);
        bed.run_until(SimTime::from_secs(10));
        let (sent, received, drops) = bed.counters();
        assert!(sent > 800, "{sent}");
        assert!(received >= sent - 2, "sent {sent} received {received}");
        assert_eq!(drops, 0);
        // Three hops are strictly slower than two.
        let h7_3 = bed.measurement_set().samples_us(HistId::H7);
        let two = {
            let mut b2 = DualRingTestbed::new(&sc, BridgeKind::cut_through_bridge());
            b2.run_until(SimTime::from_secs(10));
            Summary::of(&b2.measurement_set().samples_us(HistId::H7)).mean
        };
        let three = Summary::of(&h7_3).mean;
        assert!(
            three > two + 3_000.0,
            "third hop adds a ring transit: {three} vs {two}"
        );
    }

    #[test]
    fn sharded_chain_matches_single_threaded_bit_for_bit() {
        // The conservative-parallel contract on the real testbed:
        // partitioning a six-ring chain across 1, 2, and 4 shards
        // changes nothing — counters, event counts, and the entire
        // canonical telemetry tree are byte-identical.
        let sc = Scenario::scaled_chain(42);
        let kind = BridgeKind::cut_through_bridge();
        let horizon = SimTime::from_secs(2);
        let mut single = RingChainTestbed::chain(&sc, kind, 6);
        single.run_until(horizon);
        let counters = single.counters();
        let events = single.bus().events();
        let json = single.telemetry_json();
        for shards in [1usize, 2, 4] {
            let mut bed = RingChainTestbed::chain_sharded(&sc, kind, 6, shards);
            assert_eq!(bed.shard_count(), shards, "partition size");
            bed.run_until(horizon);
            assert_eq!(bed.counters(), counters, "shards={shards}");
            assert_eq!(bed.events(), events, "shards={shards}");
            assert_eq!(bed.telemetry_json(), json, "shards={shards}");
        }
    }

    #[test]
    fn single_ring_testbed_falls_back_to_single_threaded() {
        // One ring cannot be partitioned: build_sharded must build one
        // shard, not panic or degrade.
        let sc = Scenario::test_case_a(42);
        let (topo, _roles) = crate::Testbed::ctms_topology(&sc);
        let bus = topo.build_sharded(4);
        assert_eq!(bus.shard_count(), 1, "single ring builds one shard");
        assert!(bus.exec_telemetry().is_none());
    }

    #[test]
    fn chain_latency_grows_monotonically_with_hops() {
        let sc = Scenario::test_case_a(7);
        let mut means = Vec::new();
        for n in 2..=4 {
            let mut bed = RingChainTestbed::chain(&sc, BridgeKind::cut_through_bridge(), n);
            bed.run_until(SimTime::from_secs(5));
            let (sent, received, _) = bed.counters();
            assert!(
                received >= sent.saturating_sub(2),
                "n={n}: {received}/{sent}"
            );
            means.push(Summary::of(&bed.measurement_set().samples_us(HistId::H7)).mean);
        }
        assert!(
            means[0] < means[1] && means[1] < means[2],
            "per-hop cost accumulates: {means:?}"
        );
    }
}
