//! Bridged-ring **graphs**: the city-scale generalization of the linear
//! chain (ROADMAP item 2).
//!
//! The paper answers its data-rate question for one ring; the era's
//! answer for scaling past one ring was backboning many of them (FDDI:
//! Current Issues and Future Trends). This module turns the topology
//! layer from "chain-shaped special case" into a graph model:
//!
//! * [`RingGraph`] — rings as nodes, bridges as typed edges (an edge
//!   may span more than two rings: an FDDI concentrator attaches a
//!   leaf to both backbone rings with one three-port bridge);
//! * deterministic, seedable generators for [`RingGraph::chain`],
//!   [`RingGraph::tree`], [`RingGraph::mesh`] (redundant parallel
//!   bridges included), and [`RingGraph::fddi`] (dual counter-rotating
//!   backbone);
//! * [`graph_topology`] — builds the [`Topology`]: stations are
//!   allocated per ring, the CTMS path is the shortest path over the
//!   graph (computed once, at build time), and every path bridge's
//!   static forwarding table is configured hop by hop;
//! * [`partition_rings`] — the greedy edge-cut-minimizing shard
//!   partitioner `Topology::build_sharded` uses for *any* graph, not
//!   just contiguous chain blocks.
//!
//! Determinism rules (the golden-digest tests pin all of them):
//!
//! * generators derive every random choice from the scenario seed via
//!   labeled [`Pcg32`] streams — same seed, same graph;
//! * the shortest path is breadth-first with neighbors explored in
//!   canonical (edge index, port position) order, so **redundant
//!   parallel bridges tie-break to the lowest edge index** — the
//!   redundant bridge carries no CTMS traffic unless the graph changes;
//! * the partitioner sees the edge multiset in canonical sorted order,
//!   so its output is invariant under ring/bridge registration order.

use crate::scenario::Scenario;
use crate::topology::Topology;
use ctms_ctmsp::{TrDriver, TrDriverCfg};
use ctms_devices::{CtmsSinkCfg, CtmsSourceCfg, CtmsVcaSink, CtmsVcaSource};
use ctms_router::{Bridge, BridgeKind, BridgePort};
use ctms_rtpc::{Machine, MachineConfig, MemRegion};
use ctms_sim::{Dur, Pcg32};
use ctms_tokenring::{StationId, TokenRing};
use ctms_unixkern::{DriverId, Host, KernConfig, Kernel};

/// One bridge in the graph: the rings of its ports, in port order. Two
/// rings is the classic inter-ring bridge; three is the FDDI
/// concentrator shape (leaf, primary backbone, secondary backbone).
#[derive(Clone, Debug)]
pub struct GraphEdge {
    /// Ring index per bridge port.
    pub rings: Vec<usize>,
}

impl GraphEdge {
    fn pair(a: usize, b: usize) -> GraphEdge {
        GraphEdge { rings: vec![a, b] }
    }
}

/// A bridged-ring graph description: pure shape, no components. Feed it
/// to [`graph_topology`] (or [`crate::RingChainTestbed::graph`]) to get
/// a runnable CTMS testbed with a transmitter on `tx_ring` streaming to
/// a receiver on `rx_ring` along the shortest bridge path.
#[derive(Clone, Debug)]
pub struct RingGraph {
    n_rings: usize,
    edges: Vec<GraphEdge>,
    tx_ring: usize,
    rx_ring: usize,
}

impl RingGraph {
    /// A linear chain of `n ≥ 2` rings — exactly the shape
    /// [`crate::RingChainTestbed::chain`] has always built (and now
    /// builds through this description).
    pub fn chain(n: usize) -> RingGraph {
        assert!(n >= 2, "a chain needs at least two rings");
        RingGraph {
            n_rings: n,
            edges: (0..n - 1).map(|i| GraphEdge::pair(i, i + 1)).collect(),
            tx_ring: 0,
            rx_ring: n - 1,
        }
    }

    /// A rooted tree of `n ≥ 2` rings: ring `i` hangs off ring
    /// `(i − 1) / fanout`. The stream runs root → last leaf, so the
    /// path depth grows with `log_fanout(n)` while most of the tree is
    /// off-path — the shape that rewards per-shard lookahead.
    pub fn tree(n: usize, fanout: usize) -> RingGraph {
        assert!(n >= 2, "a tree needs at least two rings");
        assert!(fanout >= 1, "fanout must be positive");
        RingGraph {
            n_rings: n,
            edges: (1..n)
                .map(|i| GraphEdge::pair((i - 1) / fanout, i))
                .collect(),
            tx_ring: 0,
            rx_ring: n - 1,
        }
    }

    /// A chain of `n ≥ 2` rings thickened into a mesh: seeded chords
    /// (about one per four rings) plus one redundant bridge parallel to
    /// the first chain edge — the redundancy the tie-breaking rule is
    /// pinned against. Same seed, same mesh.
    pub fn mesh(n: usize, seed: u64) -> RingGraph {
        assert!(n >= 2, "a mesh needs at least two rings");
        let mut edges: Vec<GraphEdge> = (0..n - 1).map(|i| GraphEdge::pair(i, i + 1)).collect();
        // Redundant parallel bridge on the first chain edge: the BFS
        // tie-break (lowest edge index) must keep routing through edge 0.
        edges.push(GraphEdge::pair(0, 1));
        let mut rng = Pcg32::new(seed, 0xD2).derive("mesh-chords");
        for _ in 0..(n / 4).max(1) {
            let a = rng.index(n);
            let span = 2 + rng.index((n - 1).max(1));
            let b = (a + span) % n;
            if a != b {
                edges.push(GraphEdge::pair(a.min(b), a.max(b)));
            }
        }
        RingGraph {
            n_rings: n,
            edges,
            tx_ring: 0,
            rx_ring: n - 1,
        }
    }

    /// An FDDI-style dual counter-rotating backbone: rings 0 and 1 are
    /// the primary and secondary backbone rings; every leaf ring
    /// `2 ≤ k < n` attaches through one three-port concentrator bridge
    /// `[leaf, primary, secondary]`. The stream runs leaf 2 → leaf
    /// `n − 1` across the primary; the secondary is the standby port
    /// that makes every concentrator a genuine multi-port bridge.
    /// Needs `n ≥ 4` (two backbone rings, two leaves).
    pub fn fddi(n: usize) -> RingGraph {
        assert!(
            n >= 4,
            "an FDDI backbone needs two backbone rings and two leaves"
        );
        RingGraph {
            n_rings: n,
            edges: (2..n)
                .map(|k| GraphEdge {
                    rings: vec![k, 0, 1],
                })
                .collect(),
            tx_ring: 2,
            rx_ring: n - 1,
        }
    }

    /// Generator lookup by shape name (`chain`, `tree`, `mesh`, `fddi`)
    /// — how perfbench's graph workloads build their topology. `None`
    /// for an unknown name.
    pub fn named(shape: &str, n: usize, seed: u64) -> Option<RingGraph> {
        Some(match shape {
            "chain" => RingGraph::chain(n),
            "tree" => RingGraph::tree(n, 4),
            "mesh" => RingGraph::mesh(n, seed),
            "fddi" => RingGraph::fddi(n),
            _ => return None,
        })
    }

    /// Number of rings.
    pub fn ring_count(&self) -> usize {
        self.n_rings
    }

    /// Number of bridges (edges).
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// The transmitter's ring.
    pub fn tx_ring(&self) -> usize {
        self.tx_ring
    }

    /// The receiver's ring.
    pub fn rx_ring(&self) -> usize {
        self.rx_ring
    }

    /// The ring-pair multiset of the graph (a multi-ring edge couples
    /// every pair of its rings) — the partitioner's input.
    pub fn pair_edges(&self) -> Vec<(usize, usize)> {
        self.edges
            .iter()
            .flat_map(|e| {
                let r = &e.rings;
                (0..r.len()).flat_map(move |i| (i + 1..r.len()).map(move |j| (r[i], r[j])))
            })
            .collect()
    }

    /// Shortest bridge path `tx_ring → rx_ring`: breadth-first over the
    /// edges with neighbors explored in canonical (edge index, port
    /// position) order, so parallel redundant bridges deterministically
    /// tie-break to the **lowest edge index**. Each hop is
    /// `(edge, in_ring, out_ring)`. Panics if the receiver is
    /// unreachable — a generated graph is connected by construction.
    fn shortest_path(&self) -> Vec<(usize, usize, usize)> {
        // incident[r] = edges touching ring r, ascending.
        let mut incident: Vec<Vec<usize>> = vec![Vec::new(); self.n_rings];
        for (e, edge) in self.edges.iter().enumerate() {
            for &r in &edge.rings {
                assert!(r < self.n_rings, "edge on unknown ring {r}");
                if incident[r].last() != Some(&e) {
                    incident[r].push(e);
                }
            }
        }
        let mut prev: Vec<Option<(usize, usize)>> = vec![None; self.n_rings]; // (edge, from)
        let mut seen = vec![false; self.n_rings];
        let mut frontier = std::collections::VecDeque::new();
        seen[self.tx_ring] = true;
        frontier.push_back(self.tx_ring);
        while let Some(r) = frontier.pop_front() {
            if r == self.rx_ring {
                break;
            }
            for &e in &incident[r] {
                for &next in &self.edges[e].rings {
                    if !seen[next] {
                        seen[next] = true;
                        prev[next] = Some((e, r));
                        frontier.push_back(next);
                    }
                }
            }
        }
        assert!(seen[self.rx_ring], "receiver ring is unreachable");
        let mut path = Vec::new();
        let mut at = self.rx_ring;
        while at != self.tx_ring {
            let (e, from) = prev[at].expect("path step");
            path.push((e, from, at));
            at = from;
        }
        path.reverse();
        path
    }
}

/// Flat per-(edge, port) table: one contiguous arena indexed through a
/// prefix-sum offset vector, instead of one heap `Vec` per edge. At
/// 10^4 edges the nested layout costs an allocation and a pointer chase
/// per edge; the arena is two allocations total and stays cache-dense
/// for the sequential passes the builder makes over it.
struct PortTable<T> {
    /// `off[e]..off[e + 1]` bounds edge `e`'s ports in `data`.
    off: Vec<u32>,
    data: Vec<T>,
}

impl<T: Copy> PortTable<T> {
    /// A table shaped like `g`'s edges, each entry filled by
    /// `fill(port_count, port)`.
    fn new(g: &RingGraph, fill: impl Fn(usize, usize) -> T) -> PortTable<T> {
        let total: usize = g.edges.iter().map(|e| e.rings.len()).sum();
        let mut off = Vec::with_capacity(g.edges.len() + 1);
        let mut data = Vec::with_capacity(total);
        off.push(0u32);
        for e in &g.edges {
            let n = e.rings.len();
            for p in 0..n {
                data.push(fill(n, p));
            }
            off.push(data.len() as u32);
        }
        PortTable { off, data }
    }

    fn get(&self, e: usize, p: usize) -> T {
        self.edge(e)[p]
    }

    fn set(&mut self, e: usize, p: usize, v: T) {
        let i = self.off[e] as usize + p;
        debug_assert!(i < self.off[e + 1] as usize, "port {p} out of range");
        self.data[i] = v;
    }

    /// Edge `e`'s ports as one contiguous slice.
    fn edge(&self, e: usize) -> &[T] {
        &self.data[self.off[e] as usize..self.off[e + 1] as usize]
    }
}

/// Per-ring station allocation. Reproduces the historical chain layout
/// exactly: ports where the ring sits at a non-zero edge position
/// ("B-like" — downstream entries) take stations `0, 1, …` in edge
/// order, hosts take the next free stations, and ports where the ring
/// is the edge's first ring ("A-like" — upstream exits) take stations
/// from the top down (`S−1, S−2, …`). Rings always have at least the
/// classic four stations.
struct StationPlan {
    /// stations[r] = ring r's station count.
    stations: Vec<u32>,
    /// Station of edge `e`'s port `p` on its ring, as a flat arena.
    port_station: PortTable<StationId>,
    /// Host stations on (tx_ring, rx_ring).
    tx_station: StationId,
    rx_station: StationId,
}

fn plan_stations(g: &RingGraph) -> StationPlan {
    let mut b_ports: Vec<Vec<(usize, usize)>> = vec![Vec::new(); g.n_rings];
    let mut a_ports: Vec<Vec<(usize, usize)>> = vec![Vec::new(); g.n_rings];
    for (e, edge) in g.edges.iter().enumerate() {
        for (p, &r) in edge.rings.iter().enumerate() {
            if p == 0 {
                a_ports[r].push((e, p));
            } else {
                b_ports[r].push((e, p));
            }
        }
    }
    let mut hosts: Vec<u32> = vec![0; g.n_rings];
    hosts[g.tx_ring] += 1;
    hosts[g.rx_ring] += 1;

    let mut stations = Vec::with_capacity(g.n_rings);
    let mut port_station = PortTable::new(g, |_, _| StationId(0));
    let mut tx_station = StationId(0);
    let mut rx_station = StationId(0);
    for r in 0..g.n_rings {
        let attachments = (b_ports[r].len() + a_ports[r].len()) as u32 + hosts[r];
        let s = attachments.max(4);
        stations.push(s);
        let mut low = 0u32;
        for &(e, p) in &b_ports[r] {
            port_station.set(e, p, StationId(low));
            low += 1;
        }
        if r == g.tx_ring {
            tx_station = StationId(low);
            low += 1;
        }
        if r == g.rx_ring {
            rx_station = StationId(low);
            low += 1;
        }
        let mut high = s;
        for &(e, p) in &a_ports[r] {
            high -= 1;
            port_station.set(e, p, StationId(high));
        }
        assert!(low <= high, "ring {r} ran out of stations");
    }
    StationPlan {
        stations,
        port_station,
        tx_station,
        rx_station,
    }
}

/// Builds the complete CTMS testbed topology for `graph`: one
/// transmitter host on the graph's TX ring streaming `sc`'s CTMS load
/// to a receiver host on the RX ring, every edge realized as a bridge
/// of `kind`, and every path bridge's forwarding table configured for
/// the (build-time) shortest path. Returns the topology plus the VCA
/// source/sink driver ids. For [`RingGraph::chain`] this reproduces the
/// historical `RingChainTestbed` construction bit for bit.
pub fn graph_topology(
    sc: &Scenario,
    kind: BridgeKind,
    graph: &RingGraph,
) -> (Topology, DriverId, DriverId) {
    let g = graph;
    let plan = plan_stations(g);
    let path = g.shortest_path();
    // First-hop entry: the station the transmitter addresses.
    let (first_edge, _, _) = path[0];
    let first_port = g.edges[first_edge]
        .rings
        .iter()
        .position(|&r| r == g.tx_ring)
        .expect("first hop leaves the tx ring");
    let stream_dst = plan.port_station.get(first_edge, first_port);

    let root = Pcg32::new(sc.seed, 0xD2);
    let mk_ring = |label: &str, stations: u32| {
        let mut ring = TokenRing::new(sc.calib.ring.clone(), root.derive(label));
        for _ in 0..stations {
            ring.add_station();
        }
        ring
    };

    let mut adapter = sc.calib.adapter;
    adapter.buffer_region = if sc.io_channel_memory {
        MemRegion::IoChannel
    } else {
        MemRegion::System
    };

    let tr_cfg = |station: StationId| TrDriverCfg {
        station,
        adapter,
        ctmsp_enabled: true,
        driver_priority: sc.driver_priority,
        precomputed_header: sc.precomputed_header,
        tx_copy_full: sc.tx_copy_full,
        rx_copy_to_mbufs: sc.rx_copy_to_mbufs,
        ctmsp_sink: None,
        ifq_cap: 50,
        header_cost: sc.calib.header_cost,
        precomp_header_cost: sc.calib.precomp_header_cost,
        ctmsp_check_cost: sc.calib.ctmsp_check_cost,
        copy_spl: 5,
        racy_critical_sections: sc.racy_driver,
    };
    let kcfg = KernConfig {
        calib: sc.calib.kern,
        ..KernConfig::default()
    };

    // Transmitter, streaming to the first path bridge's entry port.
    let mut ktx = Kernel::new(kcfg, root.derive("kern-tx"));
    let tr_tx = ktx.add_driver(
        Box::new(TrDriver::new(tr_cfg(plan.tx_station))),
        Some(ctms_unixkern::LINE_TR),
    );
    ktx.set_net_if(tr_tx);
    let vca_src = ktx.add_driver(
        Box::new(CtmsVcaSource::new(CtmsSourceCfg {
            period: sc.period,
            pkt_len: sc.pkt_len,
            dst: stream_dst,
            tr_driver: tr_tx,
            handler_code: sc.calib.vca_handler_code,
            copy_from_device: false,
            pio_per_byte: Dur::ZERO,
            ring_priority: if sc.ring_priority { 4 } else { 0 },
            irq_jitter: Dur::ZERO,
            autostart: true,
            require_setup: false,
        })),
        Some(ctms_unixkern::LINE_VCA),
    );

    // Receiver on the RX ring.
    let mut krx = Kernel::new(kcfg, root.derive("kern-rx"));
    let vca_sink = krx.add_driver(
        Box::new(CtmsVcaSink::new(CtmsSinkCfg {
            copy_to_device: sc.rx_copy_to_device,
            pio_per_byte: Dur::from_ns(800),
            copy_spl: 5,
        })),
        None,
    );
    let mut rx_cfg = tr_cfg(plan.rx_station);
    rx_cfg.ctmsp_sink = Some(vca_sink);
    let tr_rx = krx.add_driver(
        Box::new(TrDriver::new(rx_cfg)),
        Some(ctms_unixkern::LINE_TR),
    );
    krx.set_net_if(tr_rx);

    // Per-edge forwarding configuration, held in flat arenas (not one
    // `Vec` per edge). Defaults: rotate to the next port (the classic
    // two-port A↔B swap), next hop station 0 — only path edges ever see
    // CTMSP traffic, so only they are routed.
    let mut forward = PortTable::new(g, |n, p| ((p + 1) % n) as u8);
    let mut dst = PortTable::new(g, |_, _| StationId(0));
    let mut owner: Vec<usize> = vec![0; g.edges.len()];
    for (hop, &(e, in_ring, out_ring)) in path.iter().enumerate() {
        let in_pos = g.edges[e].rings.iter().position(|&r| r == in_ring).unwrap();
        let out_pos = g.edges[e]
            .rings
            .iter()
            .position(|&r| r == out_ring)
            .unwrap();
        // Forward direction: toward the next hop's entry port, or the
        // receiver on the last hop.
        forward.set(e, in_pos, out_pos as u8);
        dst.set(
            e,
            out_pos,
            match path.get(hop + 1) {
                Some(&(ne, nin, _)) => {
                    let np = g.edges[ne].rings.iter().position(|&r| r == nin).unwrap();
                    plan.port_station.get(ne, np)
                }
                None => plan.rx_station,
            },
        );
        // Reverse direction: back toward the previous hop's exit port,
        // or the transmitter on the first hop.
        forward.set(e, out_pos, in_pos as u8);
        dst.set(
            e,
            in_pos,
            match hop.checked_sub(1) {
                Some(prev) => {
                    let (pe, _, pout) = path[prev];
                    let pp = g.edges[pe].rings.iter().position(|&r| r == pout).unwrap();
                    plan.port_station.get(pe, pp)
                }
                None => plan.tx_station,
            },
        );
        // Ring→bridge delivery is an ordinary same-shard command, so
        // the bridge must co-shard with the ring that feeds it.
        owner[e] = in_pos;
    }

    let mut topo = Topology::new(sc.cascade_limit);
    let rings: Vec<usize> = (0..g.n_rings)
        .map(|i| {
            // The first two rings keep the historical dual-ring RNG
            // labels so existing seeds reproduce bit-identically.
            let label = match i {
                0 => "ring-a".to_string(),
                1 => "ring-b".to_string(),
                _ => format!("ring-{i}"),
            };
            topo.ring(mk_ring(&label, plan.stations[i]))
        })
        .collect();
    for (e, edge) in g.edges.iter().enumerate() {
        let ports: Vec<BridgePort> = (0..edge.rings.len())
            .map(|p| BridgePort {
                station: plan.port_station.get(e, p),
                ctmsp_dst: dst.get(e, p),
            })
            .collect();
        topo.bridge_multi(
            edge.rings.iter().map(|&r| rings[r]).collect(),
            owner[e],
            Bridge::multi(kind, 16, ports, forward.edge(e).to_vec()),
        );
    }
    topo.host(
        rings[g.tx_ring],
        plan.tx_station,
        Host::new(Machine::new(MachineConfig::default()), ktx),
    );
    topo.host(
        rings[g.rx_ring],
        plan.rx_station,
        Host::new(Machine::new(MachineConfig::default()), krx),
    );

    (topo, vca_src, vca_sink)
}

/// Deterministic greedy edge-cut-minimizing graph partition: assigns
/// each of `n_rings` rings to one of `shards` balanced parts, growing
/// each part from the lowest unassigned ring by repeatedly absorbing
/// the unassigned ring with the strongest (highest edge multiplicity)
/// coupling to the part — ties to the lowest ring index.
///
/// Properties (pinned by the enumerated-case tests below):
///
/// * every ring is assigned to exactly one shard, every shard gets at
///   least one ring (`shards ≤ n_rings` required);
/// * the output depends only on the edge *multiset* — the edge list is
///   canonicalized (endpoints sorted, then the list sorted) first, so
///   bridge registration order cannot change the partition;
/// * on a chain it degenerates to the classic contiguous blocks.
pub fn partition_rings(n_rings: usize, edges: &[(usize, usize)], shards: usize) -> Vec<usize> {
    assert!(n_rings > 0, "no rings to partition");
    assert!(
        (1..=n_rings).contains(&shards),
        "need 1..=n_rings shards, got {shards} for {n_rings} rings"
    );
    // Canonical edge multiset → weighted adjacency, invariant under
    // registration order.
    let mut canon: Vec<(usize, usize)> = edges
        .iter()
        .map(|&(a, b)| {
            assert!(a < n_rings && b < n_rings, "edge on unknown ring");
            assert_ne!(a, b, "self-edge");
            (a.min(b), a.max(b))
        })
        .collect();
    canon.sort_unstable();
    let mut adj: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n_rings]; // (neighbor, weight)
    let mut i = 0;
    while i < canon.len() {
        let (a, b) = canon[i];
        let mut w = 0;
        while i < canon.len() && canon[i] == (a, b) {
            w += 1;
            i += 1;
        }
        adj[a].push((b, w));
        adj[b].push((a, w));
    }

    let mut assignment = vec![usize::MAX; n_rings];
    // weight[r] = total multiplicity of edges from r into the part
    // currently being grown. Candidates live in a lazy max-heap keyed
    // (weight, Reverse(ring)): stale entries (superseded weight, or the
    // ring was assigned meanwhile) are skipped on pop, so an absorption
    // costs O(log n) instead of a full O(n) ring scan — the difference
    // between milliseconds and minutes when partitioning 10^4 rings.
    // The pick order is identical to the scan it replaces: highest
    // weight, ties to the lowest ring index, and a part with no
    // positive-weight frontier falls back to the lowest unassigned
    // ring (weights only grow within a shard, so the newest entry for
    // a ring is the one that pops first).
    let mut weight = vec![0usize; n_rings];
    let mut heap: std::collections::BinaryHeap<(usize, std::cmp::Reverse<usize>)> =
        std::collections::BinaryHeap::new();
    let mut touched: Vec<usize> = Vec::new();
    // Lowest unassigned ring; monotone, since rings are never unassigned.
    let mut cursor = 0;
    let mut remaining = n_rings;
    for shard in 0..shards {
        let quota = remaining.div_ceil(shards - shard);
        for r in touched.drain(..) {
            weight[r] = 0;
        }
        heap.clear();
        let mut size = 0;
        while size < quota {
            let pick = if size == 0 {
                // Seed: the lowest unassigned ring.
                while assignment[cursor] != usize::MAX {
                    cursor += 1;
                }
                cursor
            } else {
                loop {
                    match heap.pop() {
                        Some((w, std::cmp::Reverse(r))) => {
                            if assignment[r] == usize::MAX && weight[r] == w {
                                break r;
                            }
                        }
                        None => {
                            // Disconnected remainder: lowest unassigned.
                            while assignment[cursor] != usize::MAX {
                                cursor += 1;
                            }
                            break cursor;
                        }
                    }
                }
            };
            assignment[pick] = shard;
            size += 1;
            remaining -= 1;
            for &(n, w) in &adj[pick] {
                if assignment[n] == usize::MAX {
                    if weight[n] == 0 {
                        touched.push(n);
                    }
                    weight[n] += w;
                    heap.push((weight[n], std::cmp::Reverse(n)));
                }
            }
        }
    }
    debug_assert!(assignment.iter().all(|&s| s < shards));
    assignment
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_partition_degenerates_to_contiguous_blocks() {
        let g = RingGraph::chain(16);
        let part = partition_rings(16, &g.pair_edges(), 4);
        let expect: Vec<usize> = (0..16).map(|i| i / 4).collect();
        assert_eq!(part, expect);
        // Six rings across four shards: every shard non-empty.
        let g6 = RingGraph::chain(6);
        let part6 = partition_rings(6, &g6.pair_edges(), 4);
        assert_eq!(part6, vec![0, 0, 1, 1, 2, 3]);
    }

    #[test]
    fn heap_partitioner_keeps_contiguous_blocks_at_scale() {
        // The lazy-heap frontier must reproduce the scan-based picks
        // exactly; on a chain that means contiguous quota-sized blocks
        // at any size. 100 rings / 7 shards has uneven quotas
        // (15,15,14,14,14,14,14).
        let g = RingGraph::chain(100);
        let part = partition_rings(100, &g.pair_edges(), 7);
        let mut expect = Vec::new();
        for (shard, quota) in [15, 15, 14, 14, 14, 14, 14].into_iter().enumerate() {
            expect.extend(std::iter::repeat_n(shard, quota));
        }
        assert_eq!(part, expect);
    }

    #[test]
    fn every_ring_lands_in_exactly_one_shard() {
        for (g, shards) in [
            (RingGraph::chain(9), 3),
            (RingGraph::tree(13, 3), 4),
            (RingGraph::mesh(10, 7), 3),
            (RingGraph::fddi(8), 4),
        ] {
            let part = partition_rings(g.ring_count(), &g.pair_edges(), shards);
            assert_eq!(part.len(), g.ring_count());
            for s in 0..shards {
                assert!(part.contains(&s), "shard {s} empty for {g:?}");
            }
            assert!(part.iter().all(|&p| p < shards));
        }
    }

    #[test]
    fn partition_is_invariant_under_edge_registration_order() {
        // Enumerated permutations, no RNG — the house style. The
        // partitioner must see a canonical edge multiset regardless of
        // the order bridges were registered in.
        let edges = [(0usize, 1usize), (1, 2), (2, 3), (0, 3), (1, 3)];
        let baseline = partition_rings(4, &edges, 2);
        let mut perm: Vec<(usize, usize)> = edges.to_vec();
        crate::graph::tests::for_each_permutation(&mut perm, &mut |p| {
            assert_eq!(partition_rings(4, p, 2), baseline, "order {p:?}");
        });
        // Endpoint orientation is also canonicalized.
        let flipped: Vec<(usize, usize)> = edges.iter().map(|&(a, b)| (b, a)).collect();
        assert_eq!(partition_rings(4, &flipped, 2), baseline);
    }

    /// Heap's algorithm, same shape as the shard.rs test helper.
    fn for_each_permutation<T: Clone>(items: &mut [T], f: &mut impl FnMut(&[T])) {
        let n = items.len();
        if n <= 1 {
            f(items);
            return;
        }
        fn heaps<T: Clone>(k: usize, items: &mut [T], f: &mut impl FnMut(&[T])) {
            if k == 1 {
                f(items);
                return;
            }
            for i in 0..k {
                heaps(k - 1, items, f);
                if k.is_multiple_of(2) {
                    items.swap(i, k - 1);
                } else {
                    items.swap(0, k - 1);
                }
            }
        }
        heaps(n, items, f);
    }

    #[test]
    fn multi_ring_edges_couple_all_their_rings() {
        // An FDDI concentrator edge [leaf, 0, 1] contributes all three
        // pairs; the partitioner keeps the backbone pair together when
        // quotas allow.
        let g = RingGraph::fddi(6);
        let pairs = g.pair_edges();
        assert!(pairs.contains(&(2, 0)) && pairs.contains(&(2, 1)) && pairs.contains(&(0, 1)));
        let part = partition_rings(6, &pairs, 2);
        assert_eq!(part[0], part[1], "backbone rings stay together");
    }

    #[test]
    fn shortest_path_tie_breaks_to_the_lowest_edge_index() {
        // Two parallel bridges between rings 0 and 1: the path must use
        // edge 0, deterministically.
        let g = RingGraph {
            n_rings: 2,
            edges: vec![GraphEdge::pair(0, 1), GraphEdge::pair(0, 1)],
            tx_ring: 0,
            rx_ring: 1,
        };
        assert_eq!(g.shortest_path(), vec![(0, 0, 1)]);
        // In the generated mesh the redundant bridge is always edge
        // n − 1 (right after the chain edges); chords may shorten the
        // path, but the parallel duplicate never carries it.
        let m = RingGraph::mesh(8, 3);
        let path = m.shortest_path();
        assert!(
            path.iter().all(|&(e, _, _)| e != 7),
            "mesh path avoids the redundant parallel bridge: {path:?}"
        );
    }

    #[test]
    fn generated_shapes_are_well_formed() {
        for g in [
            RingGraph::chain(5),
            RingGraph::tree(9, 2),
            RingGraph::mesh(9, 11),
            RingGraph::fddi(7),
        ] {
            let path = g.shortest_path();
            assert!(!path.is_empty());
            assert_eq!(path[0].1, g.tx_ring());
            assert_eq!(path.last().unwrap().2, g.rx_ring());
            // Consecutive hops chain up.
            for w in path.windows(2) {
                assert_eq!(w[0].2, w[1].1);
            }
            let plan = plan_stations(&g);
            // No station double-booked on any ring.
            let mut used: Vec<Vec<u32>> = vec![Vec::new(); g.ring_count()];
            for (e, edge) in g.edges.iter().enumerate() {
                for (p, &r) in edge.rings.iter().enumerate() {
                    used[r].push(plan.port_station.get(e, p).0);
                }
            }
            used[g.tx_ring()].push(plan.tx_station.0);
            used[g.rx_ring()].push(plan.rx_station.0);
            for (r, mut stations) in used.into_iter().enumerate() {
                let n = stations.len();
                stations.sort_unstable();
                stations.dedup();
                assert_eq!(stations.len(), n, "ring {r} double-booked a station");
                assert!(
                    stations.iter().all(|&s| s < plan.stations[r]),
                    "ring {r} station out of range"
                );
            }
        }
    }

    #[test]
    fn chain_description_matches_the_historical_layout() {
        let g = RingGraph::chain(4);
        let plan = plan_stations(&g);
        assert!(plan.stations.iter().all(|&s| s == 4));
        assert_eq!(plan.tx_station, StationId(0));
        assert_eq!(plan.rx_station, StationId(1));
        for (e, _) in g.edges.iter().enumerate() {
            assert_eq!(plan.port_station.get(e, 0), StationId(3), "A port");
            assert_eq!(plan.port_station.get(e, 1), StationId(0), "B port");
        }
    }
}
