//! Topologies as data: rings, hosts, bridges, and background traffic
//! registered as nodes on the generic `ctms-sim` scheduler/event-bus.
//!
//! Every testbed in this crate used to hand-roll the same
//! advance-and-route loop (§5.2.1's "centralized control point"). Now a
//! testbed is only a *description*: a [`Topology`] lists which
//! components sit where, [`Topology::build_sharded`] registers them with
//! a [`ctms_sim::Harness`] partitioned by ring (one shard when the
//! topology cannot or need not be partitioned), and [`CtmsRouter`] — the
//! one implementation of [`ctms_sim::Router`] — carries the complete
//! inter-component wiring:
//!
//! * ring deliveries and strips go to the host or bridge attached at
//!   the destination station,
//! * host submissions go to the host's ring; bridge forwards go to the
//!   bridge's other ring; phantom traffic goes to its ring,
//! * measurement traffic (TAP observations, trace points, drops,
//!   presentations) is absorbed into [`Measurements`], the ground truth
//!   the experiment suite reads.
//!
//! Node registration order is fixed — rings, then bridges, then hosts,
//! then phantom — which is also the deadline-tie service order, so runs
//! are bit-identical to the old fixed advance orders.

use ctms_measure::{MeasurementSet, Tap, TapCfg};
use ctms_router::{Bridge, BridgeCmd, BridgeOut};
use ctms_sim::telemetry::Hist;
use ctms_sim::{
    CascadeError, CmdSink, Component, Dur, EdgeLog, Harness, History, Label, NodeId, PersistError,
    Registry, Router, ShardStats, SimTime,
};
use ctms_tokenring::{RingCmd, RingOut, StationId, TokenRing};
use ctms_unixkern::{DriverCall, DriverId, Host, HostCmd, HostOut, KernCmd, MeasurePoint};
use ctms_workloads::{PhantomOut, PhantomTraffic};
use std::collections::HashMap;
use std::sync::Arc;

/// A registered component: the one node type the CTMS bus schedules.
///
/// Every node takes a slot the size of the largest variant, so the
/// large one is boxed. A `Host` carries a whole kernel (1,256 bytes),
/// and inline it made every slot 1,280 bytes, though a topology holds
/// a few hosts beside up to 10^4 rings (400 bytes with their scratch)
/// and bridges (216): the 10^4-ring tree's 20,001 slots took 25.6 MB,
/// and take 8.0 MB with the box. The indirection falls only on the
/// hosts' events.
///
/// Each variant carries a retained scratch `Vec` of its substrate's own
/// output type: `advance`/`handle` drain the substrate into the scratch
/// and map into [`Event`] from there, so the translation allocates
/// nothing once the scratch has reached its peak burst size.
pub enum Node {
    /// A Token Ring medium.
    Ring(TokenRing, Vec<RingOut>),
    /// A full host (machine + kernel), boxed: see above.
    Host(Box<Host>, Vec<HostOut>),
    /// A two-port ring-to-ring forwarder.
    Bridge(Bridge, Vec<BridgeOut>),
    /// Background campus traffic bound to one ring.
    Phantom(PhantomTraffic, Vec<PhantomOut>),
}

/// Events emitted by any [`Node`].
pub enum Event {
    /// From a ring.
    Ring(RingOut),
    /// From a host.
    Host(HostOut),
    /// From a bridge.
    Bridge(BridgeOut),
    /// From phantom traffic.
    Phantom(PhantomOut),
}

/// Commands routable to any [`Node`].
#[derive(Clone)]
pub enum Cmd {
    /// To a ring.
    Ring(RingCmd),
    /// To a host.
    Host(HostCmd),
    /// To a bridge.
    Bridge(BridgeCmd),
}

impl Component for Node {
    type Cmd = Cmd;
    type Out = Event;

    fn next_deadline(&self) -> Option<SimTime> {
        match self {
            Node::Ring(r, _) => r.next_deadline(),
            Node::Host(h, _) => h.next_deadline(),
            Node::Bridge(b, _) => b.next_deadline(),
            Node::Phantom(p, _) => p.next_deadline(),
        }
    }

    fn advance(&mut self, now: SimTime, sink: &mut Vec<Event>) {
        match self {
            Node::Ring(r, buf) => {
                r.advance(now, buf);
                sink.extend(buf.drain(..).map(Event::Ring));
            }
            Node::Host(h, buf) => {
                h.advance(now, buf);
                sink.extend(buf.drain(..).map(Event::Host));
            }
            Node::Bridge(b, buf) => {
                b.advance(now, buf);
                sink.extend(buf.drain(..).map(Event::Bridge));
            }
            Node::Phantom(p, buf) => {
                p.advance(now, buf);
                sink.extend(buf.drain(..).map(Event::Phantom));
            }
        }
    }

    fn handle(&mut self, now: SimTime, cmd: Cmd, sink: &mut Vec<Event>) {
        match (self, cmd) {
            (Node::Ring(r, buf), Cmd::Ring(c)) => {
                r.handle(now, c, buf);
                sink.extend(buf.drain(..).map(Event::Ring));
            }
            (Node::Host(h, buf), Cmd::Host(c)) => {
                h.handle(now, c, buf);
                sink.extend(buf.drain(..).map(Event::Host));
            }
            (Node::Bridge(b, buf), Cmd::Bridge(c)) => {
                b.handle(now, c, buf);
                sink.extend(buf.drain(..).map(Event::Bridge));
            }
            _ => panic!("misrouted command: node/command kinds disagree"),
        }
    }

    fn publish_telemetry(&self, scope: &mut ctms_sim::telemetry::Scope<'_>) {
        match self {
            Node::Ring(r, _) => r.publish_telemetry(scope),
            Node::Host(h, _) => h.publish_telemetry(scope),
            Node::Bridge(b, _) => b.publish_telemetry(scope),
            Node::Phantom(p, _) => p.publish_telemetry(scope),
        }
    }
}

/// What sits at a ring station, from the router's point of view.
#[derive(Clone, Copy, Debug)]
enum Endpoint {
    /// A host.
    Host { node: NodeId },
    /// One port of a bridge.
    Bridge { node: NodeId, port: u8 },
}

/// Per-node routing metadata, indexed by [`NodeId`]. The complete table
/// is built once and shared read-only (behind one `Arc`) by every shard
/// router — routing is immutable metadata; only taps and measurements
/// are per-shard. At 10^4 rings the table is tens of megabytes, so
/// cloning it per shard would dominate build memory.
enum Slot {
    Ring {
        /// Attached endpoint per station, indexed densely by
        /// [`StationId`] (`None` stations are idle or phantom; their
        /// traffic is not delivered anywhere). Dense so the hot
        /// per-frame delivery lookup is one bounds check and a load,
        /// not a hash.
        endpoints: Vec<Option<Endpoint>>,
    },
    Host {
        index: usize,
        ring: NodeId,
    },
    Bridge {
        /// Ring node per bridge port, in port order.
        rings: Vec<NodeId>,
    },
    Phantom {
        ring: NodeId,
    },
}

/// Ground truth recorded while routing: every measurement stream the
/// experiment suite consumes, absorbed by the router so measurement
/// infrastructure needs no scheduling of its own.
///
/// Each stream is state plus history (DESIGN.md §8): running
/// accumulators — counts, truth-log digests, the presentation-gap
/// histogram — that a checkpoint carries and that never grow, and, for
/// the streams someone reads sample by sample (the truth logs,
/// presentations and purge starts), the raw samples, which only a build
/// with a history sink attached keeps (the testbeds that hand samples
/// out: [`crate::Testbed`], [`crate::RingChainTestbed`]). A bare
/// [`Topology::build_sharded`] bus keeps no samples. Counts always run
/// from t = 0; samples run from the build or the last restore.
pub struct Measurements {
    /// Per-host trace points (the paper's measurement points 1–4).
    truth: Vec<HashMap<MeasurePoint, EdgeLog>>,
    /// Losses recorded across hosts and ring queues.
    drops: u64,
    /// CTMS payload presentations at sinks: `(time, tag, bytes)`.
    presented: History<(SimTime, u64, u32)>,
    /// Socket deliveries (stock path).
    sock_delivered: u64,
    /// Purge-sequence start instants.
    purge_starts: History<SimTime>,
    /// Frames destroyed by purges.
    lost_to_purge: u64,
    /// Frames dropped inside bridges (queue overflow).
    bridge_drops: u64,
    /// Presentation instants of the current run call, not yet folded
    /// into the gap histogram ([`Bus`] folds them once every shard has
    /// settled).
    unfolded: Vec<SimTime>,
    /// Inter-presentation gaps in ms (1 ms bins up to 64 ms), folded in
    /// global time order. Only shard 0's part folds; the others stay
    /// empty.
    gaps: Hist,
    /// The last folded presentation instant (shard 0's part).
    last_presented: Option<SimTime>,
    /// Whether truth logs created from now on keep their edges.
    history: bool,
}

/// A host's truth log for one point, keeping its edges or not.
fn truth_log(host: usize, point: MeasurePoint, history: bool) -> EdgeLog {
    let name = format!("h{host}-{point:?}");
    if history {
        EdgeLog::new(name)
    } else {
        EdgeLog::summary(name)
    }
}

/// The presentation-gap histogram's shape: 1 ms bins up to 64 ms.
fn gap_hist() -> Hist {
    Hist::new(1, 64)
}

/// Folds presentation `instants`, in time order and none before `last`,
/// into `gaps`, moving `last` to the latest.
fn fold_gaps(gaps: &mut Hist, last: &mut Option<SimTime>, instants: &[SimTime]) {
    for &t in instants {
        if let Some(prev) = *last {
            gaps.record(t.since(prev).as_ns() / 1_000_000);
        }
        *last = Some(t);
    }
}

impl Measurements {
    /// Empty ground truth for `n_hosts` hosts, keeping no samples.
    fn new(n_hosts: usize) -> Self {
        Measurements {
            truth: (0..n_hosts).map(|_| HashMap::new()).collect(),
            drops: 0,
            presented: History::summary(),
            sock_delivered: 0,
            purge_starts: History::summary(),
            lost_to_purge: 0,
            bridge_drops: 0,
            unfolded: Vec::new(),
            gaps: gap_hist(),
            last_presented: None,
            history: false,
        }
    }

    /// Attaches the history sink: the truth logs, presentations and
    /// purge starts keep their samples from now on.
    fn attach_history(&mut self) {
        self.history = true;
        for log in self.truth.iter_mut().flat_map(HashMap::values_mut) {
            log.attach_history();
        }
        self.presented.attach_history();
        self.purge_starts.attach_history();
    }

    /// Per-host trace log for one measurement point, if recorded.
    pub fn truth_log(&self, host: usize, point: MeasurePoint) -> Option<&EdgeLog> {
        self.truth.get(host).and_then(|m| m.get(&point))
    }

    /// Losses recorded across hosts and ring queues.
    pub fn drops(&self) -> u64 {
        self.drops
    }

    /// CTMS payload presentations at sinks.
    pub fn presented(&self) -> &History<(SimTime, u64, u32)> {
        &self.presented
    }

    /// Socket deliveries (stock path).
    pub fn sock_delivered(&self) -> u64 {
        self.sock_delivered
    }

    /// Purge-sequence start instants.
    pub fn purge_starts(&self) -> &History<SimTime> {
        &self.purge_starts
    }

    /// Frames destroyed by purges.
    pub fn lost_to_purge(&self) -> u64 {
        self.lost_to_purge
    }

    /// Count of frames dropped inside bridges.
    pub fn bridge_drops(&self) -> u64 {
        self.bridge_drops
    }
}

/// The one [`Router`] of the CTMS world: owns the wiring tables, the
/// per-ring TAP monitors, and the [`Measurements`] ground truth.
pub struct CtmsRouter {
    /// The wiring table, shared (not cloned) across shard routers.
    slots: Arc<[Slot]>,
    /// TAP monitor per node (same index space as `slots`): `Some` for
    /// the rings this shard owns. Boxed, so a node another shard owns
    /// costs one pointer here, not a whole monitor.
    taps: Vec<Option<Box<Tap>>>,
    /// Hosts notified (as a driver call) when a ring purge starts.
    purge_subscribers: Vec<(NodeId, DriverId)>,
    m: Measurements,
}

impl CtmsRouter {
    /// The recorded ground truth.
    pub fn measurements(&self) -> &Measurements {
        &self.m
    }

    /// The TAP attached to a ring node.
    fn tap(&self, ring: NodeId) -> &Tap {
        self.own_tap(ring.0).expect("node is a ring with a tap")
    }

    /// The TAP of node `node` if it is a ring this shard owns.
    fn own_tap(&self, node: usize) -> Option<&Tap> {
        self.taps[node].as_deref()
    }

    fn own_tap_mut(&mut self, node: usize) -> Option<&mut Tap> {
        self.taps[node].as_deref_mut()
    }
}

impl Router<Node> for CtmsRouter {
    fn route(&mut self, now: SimTime, src: NodeId, event: Event, sink: &mut CmdSink<Cmd>) {
        match event {
            Event::Ring(out) => self.route_ring(now, src, out, sink),
            Event::Host(out) => self.route_host(now, src, out, sink),
            Event::Bridge(out) => self.route_bridge(src, out, sink),
            Event::Phantom(out) => self.route_phantom(src, out, sink),
        }
    }
}

/// Mounts the measurement ground truth under `measure.*`: aggregate
/// counters, the per-ring TAP monitors (`measure.tap.ring{k}`), the
/// per-host truth logs (`measure.truth.h{i}.*`, points in `Debug` name
/// order), and the inter-presentation histogram the paper's glitch
/// analysis reads (1 ms bins up to 64 ms) — the same tree at every
/// shard count (the shard-parity tests pin it). Aggregate counters are
/// sums over the shard routers; the gap histogram was folded in global
/// time order by [`Bus`] after the last run call (each sink's stream is
/// chronological, and tie order cannot change the gaps); each TAP and
/// each truth log is owned by exactly one shard (the ring's or host's
/// owner), so merging is selection, not summation.
impl ctms_sim::MergeTelemetry for CtmsRouter {
    fn publish_merged(parts: &[&Self], reg: &mut Registry) {
        use ctms_sim::Instrument as _;
        let total =
            |count: fn(&Measurements) -> u64| -> u64 { parts.iter().map(|p| count(&p.m)).sum() };
        let mut m = reg.scope("measure");
        m.counter("drops", total(|m| m.drops));
        m.counter("presented", total(|m| m.presented.len() as u64));
        m.counter("sock_delivered", total(|m| m.sock_delivered));
        m.counter("purge_starts", total(|m| m.purge_starts.len() as u64));
        m.counter("lost_to_purge", total(|m| m.lost_to_purge));
        m.counter("bridge_drops", parts.iter().map(|p| p.m.bridge_drops).sum());
        // A cascade failure snapshots the tree mid-call, before `Bus`
        // folds the call's presentations; fold them into a copy.
        let mut unfolded: Vec<SimTime> = parts
            .iter()
            .flat_map(|p| p.m.unfolded.iter().copied())
            .collect();
        let mut gaps = std::borrow::Cow::Borrowed(&parts[0].m.gaps);
        if !unfolded.is_empty() {
            unfolded.sort_unstable();
            let mut last = parts[0].m.last_presented;
            fold_gaps(gaps.to_mut(), &mut last, &unfolded);
        }
        if gaps.total() > 0 {
            m.hist("presented_gap_ms", gaps.into_owned());
        }
        // Every ring slot has its TAP in exactly one part; numbering
        // follows slot order.
        let n_slots = parts.first().map_or(0, |p| p.slots.len());
        let mut k = 0;
        for i in 0..n_slots {
            if let Some(tap) = parts.iter().find_map(|p| p.own_tap(i)) {
                tap.publish(&mut m.scope(&format!("tap.ring{k}")));
                k += 1;
            }
        }
        let n_hosts = parts.first().map_or(0, |p| p.m.truth.len());
        for i in 0..n_hosts {
            let mut logs: Vec<(String, &EdgeLog)> = parts
                .iter()
                .flat_map(|p| p.m.truth[i].iter().map(|(pt, l)| (format!("{pt:?}"), l)))
                .collect();
            logs.sort_by(|a, b| a.0.cmp(&b.0));
            for (name, log) in logs {
                log.publish(&mut m.scope(&format!("truth.h{i}.{name}")));
            }
        }
    }
}

impl CtmsRouter {
    fn ring_endpoint(&self, ring: NodeId, station: StationId) -> Option<Endpoint> {
        match &self.slots[ring.0] {
            Slot::Ring { endpoints } => endpoints.get(station.0 as usize).copied().flatten(),
            _ => unreachable!("ring events come from ring nodes"),
        }
    }

    fn route_ring(&mut self, now: SimTime, src: NodeId, out: RingOut, sink: &mut CmdSink<Cmd>) {
        match out {
            RingOut::Delivered { to, frame } => match self.ring_endpoint(src, to) {
                Some(Endpoint::Host { node }) => {
                    sink.push(node, Cmd::Host(HostCmd::RingDelivered(frame)));
                }
                Some(Endpoint::Bridge { node, port }) => {
                    sink.push(node, Cmd::Bridge(BridgeCmd::Delivered { port, frame }));
                }
                None => {}
            },
            RingOut::Stripped {
                from,
                tag,
                delivered,
                ..
            } => {
                // Bridge submissions complete silently; host submissions
                // go back to the host's driver.
                if let Some(Endpoint::Host { node }) = self.ring_endpoint(src, from) {
                    sink.push(node, Cmd::Host(HostCmd::RingStripped { tag, delivered }));
                }
            }
            RingOut::Observed(view) => {
                if let Some(tap) = self.own_tap_mut(src.0) {
                    tap.observe(now, &view);
                }
            }
            RingOut::LostToPurge { .. } => {
                self.m.lost_to_purge += 1;
            }
            RingOut::PurgeStarted { .. } => {
                self.m.purge_starts.push(now);
                for &(host, driver) in &self.purge_subscribers {
                    sink.push(
                        host,
                        Cmd::Host(HostCmd::Kern(KernCmd::Call {
                            driver,
                            call: DriverCall::Custom {
                                code: ctms_ctmsp::CALL_PURGE_SEEN,
                                arg: 0,
                            },
                        })),
                    );
                }
            }
            RingOut::PurgeEnded => {}
            RingOut::QueueDrop { .. } => {
                self.m.drops += 1;
            }
        }
    }

    fn route_host(&mut self, now: SimTime, src: NodeId, out: HostOut, sink: &mut CmdSink<Cmd>) {
        let (index, ring) = match self.slots[src.0] {
            Slot::Host { index, ring } => (index, ring),
            _ => unreachable!("host events come from host nodes"),
        };
        match out {
            HostOut::RingSubmit(frame) => sink.push(ring, Cmd::Ring(RingCmd::Submit(frame))),
            HostOut::Trace { point, tag } => {
                let history = self.m.history;
                self.m.truth[index]
                    .entry(point)
                    .or_insert_with(|| truth_log(index, point, history))
                    .record(now, tag);
            }
            HostOut::Drop { .. } => {
                self.m.drops += 1;
            }
            HostOut::Presented { tag, bytes } => {
                self.m.presented.push((now, tag, bytes));
                self.m.unfolded.push(now);
            }
            HostOut::SockDelivered { .. } => {
                self.m.sock_delivered += 1;
            }
            HostOut::ProcExited { .. } => {}
        }
    }

    fn route_bridge(&mut self, src: NodeId, out: BridgeOut, sink: &mut CmdSink<Cmd>) {
        match out {
            BridgeOut::Submit { port, frame } => {
                let ring = match &self.slots[src.0] {
                    Slot::Bridge { rings } => rings[port as usize],
                    _ => unreachable!("bridge events come from bridge nodes"),
                };
                sink.push(ring, Cmd::Ring(RingCmd::Submit(frame)));
            }
            BridgeOut::Dropped { .. } => {
                self.m.bridge_drops += 1;
            }
        }
    }

    fn route_phantom(&mut self, src: NodeId, out: PhantomOut, sink: &mut CmdSink<Cmd>) {
        let ring = match self.slots[src.0] {
            Slot::Phantom { ring } => ring,
            _ => unreachable!("phantom events come from the phantom node"),
        };
        match out {
            PhantomOut::Submit(frame) => sink.push(ring, Cmd::Ring(RingCmd::Submit(frame))),
            PhantomOut::Disturb(d) => sink.push(ring, Cmd::Ring(RingCmd::Disturb(d))),
        }
    }
}

/// One bridge attachment record: the rings of its ports (in port
/// order) and which port's ring owns the bridge under sharding.
struct BridgeSpec {
    rings: Vec<usize>,
    owner: usize,
    bridge: Bridge,
}

/// A topology under construction: components plus where they attach.
/// Build order within each kind is preserved; kinds are registered
/// rings → bridges → hosts → phantom, fixing NodeId (and therefore
/// deadline-tie) order.
#[derive(Default)]
pub struct Topology {
    rings: Vec<TokenRing>,
    bridges: Vec<BridgeSpec>,
    hosts: Vec<(usize, StationId, Host)>,
    phantom: Option<(usize, PhantomTraffic)>,
    purge_subscribers: Vec<(usize, DriverId)>,
    cascade_limit: u32,
}

impl Topology {
    /// Starts an empty topology with the given same-instant cascade
    /// step limit.
    pub fn new(cascade_limit: u32) -> Self {
        Topology {
            cascade_limit,
            ..Topology::default()
        }
    }

    /// Adds a ring; returns its ring index.
    pub fn ring(&mut self, ring: TokenRing) -> usize {
        self.rings.push(ring);
        self.rings.len() - 1
    }

    /// Attaches a host at `station` of ring `ring`; returns its dense
    /// host index (the index used by `Measurements` and accessors).
    pub fn host(&mut self, ring: usize, station: StationId, host: Host) -> usize {
        assert!(ring < self.rings.len(), "host on unknown ring {ring}");
        self.hosts.push((ring, station, host));
        self.hosts.len() - 1
    }

    /// Attaches a two-port bridge between `ring_a` and `ring_b` (port
    /// stations come from the bridge's own config); returns its bridge
    /// index. The bridge is owned by `ring_a`'s shard when sharded.
    pub fn bridge(&mut self, ring_a: usize, ring_b: usize, bridge: Bridge) -> usize {
        self.bridge_multi(vec![ring_a, ring_b], 0, bridge)
    }

    /// Attaches a multi-port bridge: `rings[p]` is the ring of port `p`
    /// (must match the bridge's port count). `owner` picks which of
    /// those rings the bridge co-shards with — it must be the ring that
    /// *delivers* CTMSP traffic into the bridge, because ring→bridge
    /// delivery is an ordinary same-shard command, not a sync-mailbox
    /// hop. Returns the bridge index.
    pub fn bridge_multi(&mut self, rings: Vec<usize>, owner: usize, bridge: Bridge) -> usize {
        assert!(
            rings.iter().all(|&r| r < self.rings.len()),
            "bridge on unknown ring"
        );
        assert_eq!(rings.len(), bridge.port_count(), "one ring per bridge port");
        assert!(owner < rings.len(), "owner is a port index");
        self.bridges.push(BridgeSpec {
            rings,
            owner,
            bridge,
        });
        self.bridges.len() - 1
    }

    /// Attaches background campus traffic to ring `ring`.
    pub fn phantom(&mut self, ring: usize, phantom: PhantomTraffic) {
        assert!(ring < self.rings.len(), "phantom on unknown ring {ring}");
        assert!(self.phantom.is_none(), "one phantom generator per topology");
        self.phantom = Some((ring, phantom));
    }

    /// Subscribes a host driver to purge-start notifications (the §5
    /// hypothetical purge-interrupt adapter).
    pub fn subscribe_purge(&mut self, host: usize, driver: DriverId) {
        assert!(host < self.hosts.len(), "unknown host {host}");
        self.purge_subscribers.push((host, driver));
    }

    /// The complete routing-metadata table, in NodeId order (rings,
    /// bridges, hosts, phantom).
    fn make_slots(&self) -> Vec<Slot> {
        let n_rings = self.rings.len();
        let n_bridges = self.bridges.len();
        // NodeIds are assigned in push order: rings, bridges, hosts, phantom.
        let ring_node = |k: usize| NodeId(k);
        let bridge_node = |k: usize| NodeId(n_rings + k);
        let host_node = |k: usize| NodeId(n_rings + n_bridges + k);

        let mut slots: Vec<Slot> = Vec::new();
        let mut endpoints: Vec<Vec<Option<Endpoint>>> = (0..n_rings).map(|_| Vec::new()).collect();
        let mut attach = |ring: usize, station: StationId, ep: Endpoint| {
            let table: &mut Vec<Option<Endpoint>> = &mut endpoints[ring];
            let i = station.0 as usize;
            if table.len() <= i {
                table.resize(i + 1, None);
            }
            assert!(table[i].is_none(), "two endpoints at station {station:?}");
            table[i] = Some(ep);
        };
        for (k, spec) in self.bridges.iter().enumerate() {
            let node = bridge_node(k);
            for (p, &ring) in spec.rings.iter().enumerate() {
                attach(
                    ring,
                    spec.bridge.port_station(p),
                    Endpoint::Bridge {
                        node,
                        port: p as u8,
                    },
                );
            }
        }
        for (k, (ring, station, _)) in self.hosts.iter().enumerate() {
            attach(*ring, *station, Endpoint::Host { node: host_node(k) });
        }

        for ep in endpoints.drain(..) {
            slots.push(Slot::Ring { endpoints: ep });
        }
        for spec in &self.bridges {
            slots.push(Slot::Bridge {
                rings: spec.rings.iter().map(|&r| ring_node(r)).collect(),
            });
        }
        for (k, (ring, _, _)) in self.hosts.iter().enumerate() {
            slots.push(Slot::Host {
                index: k,
                ring: ring_node(*ring),
            });
        }
        if let Some((ring, _)) = &self.phantom {
            slots.push(Slot::Phantom {
                ring: ring_node(*ring),
            });
        }
        slots
    }

    /// Registers everything with a fresh one-shard harness and returns
    /// the live bus: [`Topology::build_sharded`] at one shard.
    pub fn build(self) -> Bus {
        self.build_sharded(1)
    }

    /// Registers everything with a [`Harness`] partitioned by ring and
    /// returns the live [`Bus`]. Results are bit-identical at every
    /// shard count — parallelism may never change the answer, only the
    /// wall clock.
    ///
    /// Partition rule: the ring graph (rings as nodes, bridges as
    /// edges — a multi-port bridge couples every pair of its rings) is
    /// cut into `min(shards, n_rings)` balanced parts by the greedy
    /// edge-cut-minimizing [`crate::graph::partition_rings`]; every
    /// bridge and host lives with its owner ring. Bridges whose port
    /// rings span shards are sync-class: they are the only legal
    /// cross-shard emitters, and their forwarding latencies
    /// ([`ctms_router::BridgeKind::lookahead`]) bound the conservative
    /// windows — **per cut edge**: shard `k`'s window is bounded only by
    /// the shards that can actually mail it, each over its tightest
    /// bridge, so well-separated partitions run wider windows than the
    /// global minimum would allow.
    ///
    /// Builds one shard whenever sharding cannot help or cannot be
    /// proven sound:
    ///
    /// * fewer than two shards would result (`shards <= 1` or one ring),
    /// * purge subscriptions exist (purge fan-out may cross shards from
    ///   a non-sync ring node),
    /// * a phantom generator is attached (its broadcast LLC frames are
    ///   delivered to every station, including remote bridge ports).
    pub fn build_sharded(self, shards: usize) -> Bus {
        let n_rings = self.rings.len();
        let n_bridges = self.bridges.len();
        let n_hosts = self.hosts.len();
        let host_node = |k: usize| NodeId(n_rings + n_bridges + k);
        let s = if self.purge_subscribers.is_empty() && self.phantom.is_none() {
            shards.min(n_rings).max(1)
        } else {
            1
        };

        // Graph partition: bridges are the edges (a multi-port bridge
        // couples every pair of its rings).
        let part = if s == 1 {
            Vec::new()
        } else {
            let edges: Vec<(usize, usize)> = self
                .bridges
                .iter()
                .flat_map(|spec| {
                    let r = &spec.rings;
                    (0..r.len()).flat_map(move |i| (i + 1..r.len()).map(move |j| (r[i], r[j])))
                })
                .collect();
            crate::graph::partition_rings(n_rings, &edges, s)
        };
        let ring_shard = |r: usize| if s == 1 { 0 } else { part[r] };
        let bridge_shard: Vec<usize> = self
            .bridges
            .iter()
            .map(|spec| ring_shard(spec.rings[spec.owner]))
            .collect();
        let bridge_sync: Vec<bool> = self
            .bridges
            .iter()
            .map(|spec| {
                spec.rings
                    .iter()
                    .any(|&r| ring_shard(r) != ring_shard(spec.rings[0]))
            })
            .collect();
        // Global floor: the seal-time sanity bound.
        let lookahead = self
            .bridges
            .iter()
            .zip(&bridge_sync)
            .filter(|(_, sync)| **sync)
            .map(|(spec, _)| spec.bridge.kind().lookahead())
            .min()
            .unwrap_or(Dur::ZERO);
        // Directed per-edge influence for the window protocol (none at
        // one shard). Cross-shard mail flows only out of sync bridges
        // (the owner ring — the one that delivers traffic *into* the
        // bridge — is co-sharded with it, so delivery into the bridge is
        // always local), and only toward the shards of the bridge's
        // port rings, delayed by at least that bridge's forwarding
        // latency.
        let influence = (s > 1).then(|| {
            let mut influence: Vec<Vec<Option<Dur>>> = vec![vec![None; s]; s];
            for ((spec, sync), &o) in self.bridges.iter().zip(&bridge_sync).zip(&bridge_shard) {
                if !*sync {
                    continue;
                }
                // `set_influence_lookaheads` rejects a zero lookahead,
                // which would collapse the window and stall the run.
                let la = spec.bridge.kind().lookahead();
                for &r in &spec.rings {
                    let k = ring_shard(r);
                    if k != o {
                        influence[o][k] = Some(influence[o][k].map_or(la, |cur| cur.min(la)));
                    }
                }
            }
            influence
        });

        let slots: Arc<[Slot]> = self.make_slots().into();
        let purge_subscribers: Vec<(NodeId, DriverId)> = self
            .purge_subscribers
            .iter()
            .map(|&(host, driver)| (host_node(host), driver))
            .collect();
        let routers: Vec<CtmsRouter> = (0..s)
            .map(|shard| CtmsRouter {
                // One shared wiring table for all shards: the Arc clone
                // is a refcount bump, not a copy of the slot data.
                slots: Arc::clone(&slots),
                // Each ring's TAP lives with the ring's owner shard; the
                // merged telemetry re-numbers them globally.
                taps: slots
                    .iter()
                    .enumerate()
                    .map(|(i, sl)| {
                        (matches!(sl, Slot::Ring { .. }) && ring_shard(i) == shard)
                            .then(|| Box::new(Tap::new(TapCfg::default())))
                    })
                    .collect(),
                // Only a one-shard build has subscribers (see above).
                purge_subscribers: purge_subscribers.clone(),
                m: Measurements::new(n_hosts),
            })
            .collect();

        let mut h = Harness::new(routers, self.cascade_limit, lookahead);
        if let Some(influence) = influence {
            h.set_influence_lookaheads(influence);
        }
        let mut per_shard = vec![0; s];
        for k in (0..n_rings).chain(self.hosts.iter().map(|(ring, _, _)| *ring)) {
            per_shard[ring_shard(k)] += 1;
        }
        for &k in &bridge_shard {
            per_shard[k] += 1;
        }
        per_shard[0] += usize::from(self.phantom.is_some());
        h.reserve_nodes(&per_shard);
        let ring_nodes = self
            .rings
            .into_iter()
            .enumerate()
            .map(|(k, ring)| {
                h.add_node_labeled(
                    Node::Ring(ring, Vec::new()),
                    Label::Indexed("tokenring.ring", k),
                    ring_shard(k),
                    false,
                )
            })
            .collect();
        let bridge_nodes = self
            .bridges
            .into_iter()
            .enumerate()
            .map(|(k, spec)| {
                h.add_node_labeled(
                    Node::Bridge(spec.bridge, Vec::new()),
                    Label::Indexed("router.bridge", k),
                    bridge_shard[k],
                    bridge_sync[k],
                )
            })
            .collect();
        let host_nodes = self
            .hosts
            .into_iter()
            .enumerate()
            .map(|(k, (ring, _, host))| {
                h.add_node_labeled(
                    Node::Host(Box::new(host), Vec::new()),
                    Label::Indexed("unixkern.h", k),
                    ring_shard(ring),
                    false,
                )
            })
            .collect();
        let phantom_node = self.phantom.map(|(_, p)| {
            h.add_node_labeled(Node::Phantom(p, Vec::new()), "workloads.phantom", 0, false)
        });

        Bus {
            h,
            ring_nodes,
            bridge_nodes,
            host_nodes,
            phantom_node,
        }
    }
}

/// A built topology: the harness plus typed access to its nodes, at
/// any shard count. The concrete testbeds ([`crate::Testbed`],
/// [`crate::RingChainTestbed`]) wrap this with scenario-specific
/// construction and accessors.
pub struct Bus {
    h: Harness<Node, CtmsRouter>,
    ring_nodes: Vec<NodeId>,
    bridge_nodes: Vec<NodeId>,
    host_nodes: Vec<NodeId>,
    phantom_node: Option<NodeId>,
}

/// The name the sharded builders used to return, kept for callers
/// that spell it; a bus at any shard count is a [`Bus`].
pub type ShardedBus = Bus;

impl Bus {
    /// Number of shards the bus runs on (1 when the topology cannot or
    /// need not be partitioned).
    pub fn shard_count(&self) -> usize {
        self.h.shard_count()
    }

    /// Accepts a worker-thread count and ignores it. The harness picks
    /// its own threads: a fat window runs shard 0 on the caller and
    /// each other shard on a long-lived worker, up to the core count
    /// minus one, and every other window runs on the caller (DESIGN.md
    /// §13). Kept because the benchmark calls it.
    pub fn set_threads(&mut self, _threads: usize) {}

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.h.now()
    }

    /// Runs until `horizon`; panics on cascade overflow.
    pub fn run_until(&mut self, horizon: SimTime) {
        if let Err(e) = self.try_run_until(horizon) {
            panic!("{e}");
        }
    }

    /// Runs until `horizon`, reporting cascade overflow as an error.
    pub fn try_run_until(&mut self, horizon: SimTime) -> Result<(), CascadeError> {
        let ran = self.h.try_run_until(horizon);
        self.fold_presentations();
        ran
    }

    /// Keeps the samples someone reads from now on: truth edges,
    /// presentations and purge starts. The testbeds whose API hands
    /// samples out attach it right after the build; nothing else does,
    /// and it is never checkpointed.
    pub(crate) fn attach_history(&mut self) {
        for part in self.h.routers_mut() {
            part.m.attach_history();
        }
    }

    /// Folds the presentations of the last run call or injection into
    /// shard 0's gap histogram in global time order. Every shard has
    /// settled at the call's end, so no later presentation can precede
    /// one folded here.
    fn fold_presentations(&mut self) {
        let mut parts = self.h.routers_mut();
        let first = &mut parts.next().expect("a bus has a router per shard").m;
        let mut merged = false;
        for part in parts {
            if !part.m.unfolded.is_empty() {
                first.unfolded.extend_from_slice(&part.m.unfolded);
                part.m.unfolded.clear();
                merged = true;
            }
        }
        if merged {
            first.unfolded.sort_unstable();
        }
        fold_gaps(&mut first.gaps, &mut first.last_presented, &first.unfolded);
        first.unfolded.clear();
    }

    /// Number of rings.
    pub fn ring_count(&self) -> usize {
        self.ring_nodes.len()
    }

    /// Component activations serviced so far (perfbench's
    /// `events_per_s` numerator; not part of telemetry; the same at
    /// every shard count).
    pub fn events(&self) -> u64 {
        self.h.events()
    }

    /// Ring `k`.
    pub fn ring(&self, k: usize) -> &TokenRing {
        match self.h.node(self.ring_nodes[k]) {
            Node::Ring(r, _) => r,
            _ => unreachable!("ring node"),
        }
    }

    /// Number of hosts.
    pub fn host_count(&self) -> usize {
        self.host_nodes.len()
    }

    /// Host `k` (dense index from [`Topology::host`]).
    pub fn host(&self, k: usize) -> &Host {
        match self.h.node(self.host_nodes[k]) {
            Node::Host(host, _) => host,
            _ => unreachable!("host node"),
        }
    }

    /// Mutable host `k`; its deadline is rescheduled before the next step.
    pub fn host_mut(&mut self, k: usize) -> &mut Host {
        match self.h.node_mut(self.host_nodes[k]) {
            Node::Host(host, _) => host,
            _ => unreachable!("host node"),
        }
    }

    /// Number of bridges.
    pub fn bridge_count(&self) -> usize {
        self.bridge_nodes.len()
    }

    /// Bridge `k`.
    pub fn bridge(&self, k: usize) -> &Bridge {
        match self.h.node(self.bridge_nodes[k]) {
            Node::Bridge(b, _) => b,
            _ => unreachable!("bridge node"),
        }
    }

    /// The phantom traffic generator, if attached.
    pub fn phantom(&self) -> Option<&PhantomTraffic> {
        self.phantom_node.map(|id| match self.h.node(id) {
            Node::Phantom(p, _) => p,
            _ => unreachable!("phantom node"),
        })
    }

    /// The TAP monitor on ring `k` (kept by the ring's owner shard).
    pub fn tap(&self, k: usize) -> &Tap {
        let ring = self.ring_nodes[k];
        self.h.shard_router(self.h.shard_of(ring)).tap(ring)
    }

    /// The recorded ground truth of a one-shard bus. A bus on several
    /// shards splits it across [`Bus::measure_parts`]; read those, or
    /// [`Bus::truth_log`], at any shard count.
    pub fn measurements(&self) -> &Measurements {
        assert_eq!(
            self.shard_count(),
            1,
            "measurements() reads one shard; use measure_parts() or truth_log()"
        );
        self.h.shard_router(0).measurements()
    }

    /// The recorded ground truth, one part per shard. Aggregate counters
    /// are sums over the parts; truth logs and presentations live in
    /// exactly one part each.
    pub fn measure_parts(&self) -> Vec<&Measurements> {
        self.h.routers().map(CtmsRouter::measurements).collect()
    }

    /// Per-host trace log for one measurement point, if recorded; the
    /// log lives in the shard that owns the host.
    pub fn truth_log(&self, host: usize, point: MeasurePoint) -> Option<&EdgeLog> {
        let shard = self.h.shard_of(self.host_nodes[host]);
        self.h
            .shard_router(shard)
            .measurements()
            .truth_log(host, point)
    }

    /// The measurement set of a stream from host `tx` to host `rx`:
    /// points 1–3 on `tx`, point 4 on `rx`, borrowed from the truth logs
    /// (a point that never fired reads as an empty log).
    pub fn measurement_set(&self, tx: usize, rx: usize) -> MeasurementSet<'_> {
        static NEVER_FIRED: EdgeLog = EdgeLog::empty();
        let log = |host, point| self.truth_log(host, point).unwrap_or(&NEVER_FIRED);
        MeasurementSet {
            vca_irq: log(tx, MeasurePoint::VcaIrq),
            handler: log(tx, MeasurePoint::VcaHandlerEntry),
            pre_tx: log(tx, MeasurePoint::PreTransmit),
            ctmsp_rx: log(rx, MeasurePoint::CtmspIdentified),
        }
    }

    /// The cascade failure that poisoned this bus, if any.
    pub fn failure(&self) -> Option<CascadeError> {
        self.h.failure()
    }

    /// Delivers a ring command (e.g. a disturbance) to ring `k` at the
    /// current instant, routing its fallout like any other event — at
    /// any shard count.
    pub fn inject_ring(&mut self, k: usize, cmd: RingCmd) -> Result<(), CascadeError> {
        let injected = self.h.inject(self.ring_nodes[k], Cmd::Ring(cmd));
        self.fold_presentations();
        injected
    }

    /// The telemetry registry as last collected (see
    /// [`collect_telemetry`](Self::collect_telemetry)).
    pub fn telemetry(&self) -> &Registry {
        self.h.telemetry()
    }

    /// Re-collects every node's and the routers' metrics into the
    /// registry and returns it.
    pub fn collect_telemetry(&mut self) -> &mut Registry {
        self.h.collect_telemetry()
    }

    /// Collects and freezes the current metric tree as a named phase.
    pub fn snapshot_phase(&mut self, name: impl Into<String>) {
        self.h.snapshot_phase(name);
    }

    /// Collects and serializes the registry as canonical JSON
    /// (byte-identical across runs of the same seed and across shard
    /// counts).
    pub fn telemetry_json(&mut self) -> String {
        self.h.telemetry_json()
    }

    /// Execution-layer counters of a partitioned run (windows, sync
    /// instants, per-shard mailbox traffic) — kept out of the main
    /// registry so telemetry stays the same at every shard count.
    /// `None` at one shard, where there is no cross-shard execution
    /// to report.
    pub fn exec_telemetry(&self) -> Option<Registry> {
        (self.shard_count() > 1).then(|| self.h.exec_telemetry())
    }

    /// Execution counters for shard `k` (zeros at one shard, like
    /// [`Bus::exec_telemetry`]).
    pub fn shard_stats(&self, k: usize) -> ShardStats {
        if self.shard_count() > 1 {
            self.h.shard_stats(k)
        } else {
            ShardStats::default()
        }
    }

    /// The canonical graph-shape signature checkpoints embed (format
    /// v2). Every shard's router holds the complete slot table, so
    /// shard 0 signs for the whole topology at any shard count.
    pub(crate) fn topology_signature(&self) -> Vec<u8> {
        self.h.shard_router(0).topology_signature()
    }

    /// Appends the harness state, then the merged router state, to
    /// `enc`. Call at a run boundary.
    pub(crate) fn persist_state(&self, enc: &mut ctms_sim::Enc) {
        self.h.persist_state(enc);
        persist_router_parts(&self.h.routers().collect::<Vec<_>>(), enc);
    }

    /// Applies what [`Bus::persist_state`] wrote — at any shard count —
    /// onto a fresh rebuild.
    pub(crate) fn restore_state(
        &mut self,
        dec: &mut ctms_sim::Dec<'_>,
    ) -> Result<(), PersistError> {
        self.h.restore_state(dec)?;
        let now = self.h.now();
        let ckpt = decode_router_state(dec, self.ring_count(), self.host_count())?;
        apply_router_ckpt(&mut self.h.routers_mut().collect::<Vec<_>>(), ckpt, now)
    }
}

// --- Checkpoint plumbing -------------------------------------------------
//
// A checkpoint must be *shard-agnostic*: bytes written by a 4-shard run
// restore into a one-shard bus or a 2-shard one. The harness side walks
// nodes in global registration order; the router side is handled here by
// merging the per-shard parts into one canonical section at persist time
// and re-distributing at restore time (taps to the ring's owner, truth
// logs to the host's owner, counts and the presentation-gap state to
// shard 0 — merged telemetry sums counts, so their placement is
// unobservable). The router section carries state only (format v3): no
// sample a history sink kept is ever written.

impl ctms_sim::Persist for Node {
    /// One kind tag (checked against the rebuilt topology on restore)
    /// then the component's own state. The scratch buffer is drained at
    /// every quiescent instant, so it carries no state.
    fn persist(&self, enc: &mut ctms_sim::Enc) {
        match self {
            Node::Ring(r, buf) => {
                debug_assert!(buf.is_empty(), "checkpoint off a quiescent instant");
                enc.u8(0);
                r.persist(enc);
            }
            Node::Host(h, buf) => {
                debug_assert!(buf.is_empty(), "checkpoint off a quiescent instant");
                enc.u8(1);
                h.persist(enc);
            }
            Node::Bridge(b, buf) => {
                debug_assert!(buf.is_empty(), "checkpoint off a quiescent instant");
                enc.u8(2);
                b.persist(enc);
            }
            Node::Phantom(p, buf) => {
                debug_assert!(buf.is_empty(), "checkpoint off a quiescent instant");
                enc.u8(3);
                p.persist(enc);
            }
        }
    }

    fn restore(&mut self, dec: &mut ctms_sim::Dec<'_>) -> Result<(), ctms_sim::PersistError> {
        let tag = dec.u8()?;
        match (self, tag) {
            (Node::Ring(r, buf), 0) => {
                buf.clear();
                r.restore(dec)
            }
            (Node::Host(h, buf), 1) => {
                buf.clear();
                h.restore(dec)
            }
            (Node::Bridge(b, buf), 2) => {
                buf.clear();
                b.restore(dec)
            }
            (Node::Phantom(p, buf), 3) => {
                buf.clear();
                p.restore(dec)
            }
            _ => Err(ctms_sim::PersistError::mismatch(format!(
                "checkpoint node kind {tag} does not match the rebuilt topology"
            ))),
        }
    }
}

/// Stable sort key for canonical [`MeasurePoint`] ordering in checkpoints.
fn measure_point_key(p: MeasurePoint) -> (u8, u8) {
    match p {
        MeasurePoint::VcaIrq => (0, 0),
        MeasurePoint::VcaHandlerEntry => (1, 0),
        MeasurePoint::PreTransmit => (2, 0),
        MeasurePoint::CtmspIdentified => (3, 0),
        MeasurePoint::Presented => (4, 0),
        MeasurePoint::Custom(x) => (5, x),
    }
}

fn persist_measure_point(enc: &mut ctms_sim::Enc, p: MeasurePoint) {
    let (tag, custom) = measure_point_key(p);
    enc.u8(tag);
    if tag == 5 {
        enc.u8(custom);
    }
}

fn restore_measure_point(
    dec: &mut ctms_sim::Dec<'_>,
) -> Result<MeasurePoint, ctms_sim::PersistError> {
    Ok(match dec.u8()? {
        0 => MeasurePoint::VcaIrq,
        1 => MeasurePoint::VcaHandlerEntry,
        2 => MeasurePoint::PreTransmit,
        3 => MeasurePoint::CtmspIdentified,
        4 => MeasurePoint::Presented,
        5 => MeasurePoint::Custom(dec.u8()?),
        tag => {
            return Err(ctms_sim::PersistError::BadTag {
                what: "measure point",
                tag,
            })
        }
    })
}

/// Decoded router-side checkpoint state, ready for [`apply_router_ckpt`]
/// to distribute across one or more router parts.
pub(crate) struct RouterCkpt {
    /// One TAP per ring slot, in slot order.
    taps: Vec<Tap>,
    /// Per-host truth logs, points in canonical tag order.
    truth: Vec<Vec<(MeasurePoint, EdgeLog)>>,
    drops: u64,
    presented: u64,
    sock_delivered: u64,
    purge_starts: u64,
    lost_to_purge: u64,
    bridge_drops: u64,
    gaps: Hist,
    last_presented: Option<SimTime>,
}

/// Appends the canonical merged router state of `parts` (one part per
/// shard) to `enc`, the last section of every image: each TAP's and
/// each truth log's accumulators (each lives in exactly one part), the
/// stream counts summed over the parts, and the presentation-gap
/// histogram with the last folded presentation. The bytes do not
/// depend on the shard count, and none of them is a sample.
pub(crate) fn persist_router_parts(parts: &[&CtmsRouter], enc: &mut ctms_sim::Enc) {
    use ctms_sim::Persist as _;
    let first = parts.first().expect("at least one router part");

    let ring_slots: Vec<usize> = first.ring_slot_indices();
    enc.seq_len(ring_slots.len());
    for slot in ring_slots {
        let tap = parts
            .iter()
            .find_map(|p| p.own_tap(slot))
            .expect("every ring slot has its tap in exactly one part");
        tap.persist(enc);
    }

    let n_hosts = first.m.truth.len();
    enc.seq_len(n_hosts);
    for host in 0..n_hosts {
        let mut entries: Vec<(MeasurePoint, &EdgeLog)> = parts
            .iter()
            .flat_map(|p| p.m.truth[host].iter().map(|(pt, l)| (*pt, l)))
            .collect();
        entries.sort_by_key(|(pt, _)| measure_point_key(*pt));
        enc.seq_len(entries.len());
        for (point, log) in entries {
            persist_measure_point(enc, point);
            log.persist(enc);
        }
    }

    let total =
        |count: fn(&Measurements) -> u64| -> u64 { parts.iter().map(|p| count(&p.m)).sum() };
    enc.u64(total(|m| m.drops));
    enc.u64(total(|m| m.presented.len() as u64));
    enc.u64(total(|m| m.sock_delivered));
    enc.u64(total(|m| m.purge_starts.len() as u64));
    enc.u64(total(|m| m.lost_to_purge));
    enc.u64(parts.iter().map(|p| p.m.bridge_drops).sum());
    debug_assert!(
        parts.iter().all(|p| p.m.unfolded.is_empty()),
        "checkpoint taken before the presentation fold"
    );
    first.m.gaps.persist(enc);
    enc.opt(first.m.last_presented.as_ref(), |e, t| e.time(*t));
}

/// Decodes router state written by [`persist_router_parts`] for a bus
/// of `rings` rings and `hosts` hosts. Counts are checked before
/// anything is allocated for them, so a corrupt length cannot ask for
/// more memory than the topology needs.
pub(crate) fn decode_router_state(
    dec: &mut ctms_sim::Dec<'_>,
    rings: usize,
    hosts: usize,
) -> Result<RouterCkpt, PersistError> {
    use ctms_sim::Persist as _;
    let n = dec.seq_len()?;
    if n != rings {
        return Err(PersistError::mismatch(format!(
            "checkpoint has {n} taps, topology has {rings} rings"
        )));
    }
    let mut taps = Vec::with_capacity(rings);
    for _ in 0..rings {
        let mut tap = Tap::new(TapCfg::default());
        tap.restore(dec)?;
        taps.push(tap);
    }
    let n = dec.seq_len()?;
    if n != hosts {
        return Err(PersistError::mismatch(format!(
            "checkpoint has {n} truth maps, topology has {hosts} hosts"
        )));
    }
    let mut truth = Vec::with_capacity(hosts);
    for host in 0..hosts {
        let n = dec.seq_len()?;
        let mut logs: Vec<(MeasurePoint, EdgeLog)> = Vec::new();
        for _ in 0..n {
            let point = restore_measure_point(dec)?;
            // Strictly ascending keys: the canonical order, no repeats
            // (which also bounds the loop by the number of points).
            if logs
                .last()
                .is_some_and(|(prev, _)| measure_point_key(*prev) >= measure_point_key(point))
            {
                return Err(PersistError::mismatch(format!(
                    "checkpoint truth logs of host {host} are out of order at {point:?}"
                )));
            }
            let mut log = truth_log(host, point, false);
            log.restore(dec)?;
            logs.push((point, log));
        }
        truth.push(logs);
    }
    let mut ckpt = RouterCkpt {
        taps,
        truth,
        drops: dec.u64()?,
        presented: dec.u64()?,
        sock_delivered: dec.u64()?,
        purge_starts: dec.u64()?,
        lost_to_purge: dec.u64()?,
        bridge_drops: dec.u64()?,
        gaps: gap_hist(),
        last_presented: None,
    };
    ckpt.gaps.restore(dec)?;
    ckpt.last_presented = dec.opt(|d| d.time())?;
    Ok(ckpt)
}

/// Distributes a decoded router snapshot across `parts` — the shard
/// routers of a [`Bus`] in shard order: each TAP to its ring's owner
/// part, each host's truth logs to the part that owns the host's ring
/// (and therefore routes the host), the counts and the
/// presentation-gap state to part 0. Each part keeps its history sink
/// if it had one, emptied: samples start again here.
///
/// Every kept instant must be at or before the restored clock `now`,
/// and the gap histogram must hold one gap fewer than the
/// presentations, none longer in sum than the last presentation's
/// instant; anything else is a [`PersistError::Mismatch`], since
/// continuing would record behind the clock or publish a histogram no
/// run can produce.
pub(crate) fn apply_router_ckpt(
    parts: &mut [&mut CtmsRouter],
    ckpt: RouterCkpt,
    now: SimTime,
) -> Result<(), PersistError> {
    let after = |what: &str, t: SimTime| {
        PersistError::mismatch(format!("checkpoint {what} at {t} is after the clock {now}"))
    };
    for tap in &ckpt.taps {
        if let Some(t) = tap.instants().into_iter().flatten().find(|&t| t > now) {
            return Err(after("TAP instant", t));
        }
    }
    for (_, log) in ckpt.truth.iter().flatten() {
        if let Some(t) = log.last().filter(|&t| t > now) {
            return Err(after("truth edge", t));
        }
    }
    if let Some(t) = ckpt.last_presented.filter(|&t| t > now) {
        return Err(after("presentation", t));
    }
    let gaps_fit = match ckpt.last_presented {
        None => ckpt.presented == 0 && ckpt.gaps.total() == 0,
        Some(last) => {
            ckpt.presented > 0
                && ckpt.gaps.total() == ckpt.presented - 1
                && ckpt.gaps.sum() <= last.as_ns() / 1_000_000
        }
    };
    if !gaps_fit {
        return Err(PersistError::mismatch(format!(
            "checkpoint gap histogram ({} gaps, {} ms) does not fit {} presentations, the last at {:?}",
            ckpt.gaps.total(),
            ckpt.gaps.sum(),
            ckpt.presented,
            ckpt.last_presented
        )));
    }

    let slots = Arc::clone(&parts[0].slots);
    let owner = |parts: &[&mut CtmsRouter], ring: usize| {
        parts
            .iter()
            .position(|p| p.own_tap(ring).is_some())
            .expect("every ring slot has its tap in exactly one part")
    };
    for (slot, tap) in parts[0].ring_slot_indices().into_iter().zip(ckpt.taps) {
        let k = owner(parts, slot);
        *parts[k].own_tap_mut(slot).expect("the owner holds the tap") = tap;
    }
    let mut truth = ckpt.truth;
    for p in parts.iter_mut() {
        p.m.truth.iter_mut().for_each(HashMap::clear);
    }
    for slot in slots.iter() {
        if let Slot::Host { index, ring } = *slot {
            let k = owner(parts, ring.0);
            let m = &mut parts[k].m;
            m.truth[index] = std::mem::take(&mut truth[index])
                .into_iter()
                .map(|(point, mut log)| {
                    if m.history {
                        log.attach_history();
                    }
                    (point, log)
                })
                .collect();
        }
    }
    for (k, p) in parts.iter_mut().enumerate() {
        let m = &mut p.m;
        let mine = |n: u64| if k == 0 { n } else { 0 };
        m.drops = mine(ckpt.drops);
        m.presented.restart(mine(ckpt.presented));
        m.sock_delivered = mine(ckpt.sock_delivered);
        m.purge_starts.restart(mine(ckpt.purge_starts));
        m.lost_to_purge = mine(ckpt.lost_to_purge);
        m.bridge_drops = mine(ckpt.bridge_drops);
        m.unfolded.clear();
        m.gaps = if k == 0 {
            ckpt.gaps.clone()
        } else {
            gap_hist()
        };
        m.last_presented = if k == 0 { ckpt.last_presented } else { None };
    }
    Ok(())
}

impl CtmsRouter {
    /// Indices of the ring slots, in slot (= NodeId) order.
    fn ring_slot_indices(&self) -> Vec<usize> {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| matches!(s, Slot::Ring { .. }))
            .map(|(i, _)| i)
            .collect()
    }

    /// A canonical byte description of the wiring graph — slot kinds,
    /// endpoint stations, bridge port rings — independent of shard
    /// count (every shard router holds the complete slot table);
    /// endpoints are encoded in station order. Embedded in
    /// checkpoints since format v2 so a snapshot refuses to restore
    /// onto a differently-shaped topology instead of corrupting state.
    pub(crate) fn topology_signature(&self) -> Vec<u8> {
        let mut enc = ctms_sim::Enc::new();
        enc.seq_len(self.slots.len());
        for slot in self.slots.iter() {
            match slot {
                Slot::Ring { endpoints } => {
                    enc.u8(0);
                    // The dense table is already in station order, which
                    // is exactly the sorted order the v2 signature
                    // encoded — bytes stay identical across the layout
                    // change, so old checkpoints still match.
                    let eps: Vec<(u32, u8, u64, u8)> = endpoints
                        .iter()
                        .enumerate()
                        .filter_map(|(st, ep)| {
                            ep.map(|ep| match ep {
                                Endpoint::Host { node } => (st as u32, 0u8, node.0 as u64, 0u8),
                                Endpoint::Bridge { node, port } => {
                                    (st as u32, 1u8, node.0 as u64, port)
                                }
                            })
                        })
                        .collect();
                    enc.seq_len(eps.len());
                    for (st, kind, node, port) in eps {
                        enc.u32(st);
                        enc.u8(kind);
                        enc.u64(node);
                        enc.u8(port);
                    }
                }
                Slot::Bridge { rings } => {
                    enc.u8(1);
                    enc.seq_len(rings.len());
                    for r in rings {
                        enc.u64(r.0 as u64);
                    }
                }
                Slot::Host { index, ring } => {
                    enc.u8(2);
                    enc.u64(*index as u64);
                    enc.u64(ring.0 as u64);
                }
                Slot::Phantom { ring } => {
                    enc.u8(3);
                    enc.u64(ring.0 as u64);
                }
            }
        }
        enc.into_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::mem::size_of;

    /// A node slot is sized for a ring and its scratch: a variant that
    /// outgrows that (an inline `Host`, with its whole kernel, made
    /// every slot 1,280 bytes) is boxed.
    #[test]
    fn a_node_slot_is_sized_for_a_ring() {
        let ring = size_of::<TokenRing>() + size_of::<Vec<RingOut>>();
        assert!(
            size_of::<Node>() <= ring + 8,
            "a node slot takes {} bytes; a ring with its scratch takes {ring}",
            size_of::<Node>()
        );
    }
}
