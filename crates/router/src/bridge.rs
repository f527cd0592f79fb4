//! Inter-ring forwarding engines.
//!
//! §1 footnote 5: "If we did not [keep source and destination on the same
//! ring] then we would have the additional problem of creating a router
//! that could keep up with the data rates that we were using. This is
//! possible but has not been implemented." This module implements it,
//! with two engines spanning the design space the paper hints at:
//!
//! * [`BridgeKind::HostRouter`] — a store-and-forward host doing
//!   kernel-level forwarding: receive DMA, route lookup, two CPU copies,
//!   transmit DMA. One shared engine for both directions (one CPU). At
//!   1991 copy rates this is ~13 ms per 2000-byte packet — more than the
//!   stream's 12 ms period, exactly the paper's worry;
//! * [`BridgeKind::CutThrough`] — a source-routing bridge forwarding in
//!   hardware with a small fixed latency and one engine per port.
//!
//! A bridge occupies one station on each ring it attaches to. The
//! classic configuration is two ports (the paper's dual-ring case), but
//! a bridge may attach to any number of rings — FDDI-style backbone
//! concentrators take three (leaf, primary backbone, secondary
//! backbone). Forwarding is a static per-input-port table (`forward`):
//! CTMSP traffic entering port `p` leaves on port `forward[p]`,
//! re-addressed to that port's configured next hop (the protocol's §3
//! point-to-point assumption, extended hop by hop along a precomputed
//! path); everything else is dropped, as the paper's CTMSP is
//! "specifically designed for and limited to" the media path.

use ctms_sim::{Component, Dur, SimTime};
use ctms_tokenring::{Frame, FrameId, Proto, StationId};
use std::collections::VecDeque;

/// Forwarding engine model.
#[derive(Clone, Copy, Debug)]
pub enum BridgeKind {
    /// Store-and-forward host: one shared engine, per-packet +
    /// per-byte service cost.
    HostRouter {
        /// Fixed per-packet cost (interrupt, route lookup, headers).
        per_packet: Dur,
        /// Per-byte cost (receive copy + transmit copy).
        per_byte: Dur,
    },
    /// Hardware source-routing bridge: per-port engines, fixed latency
    /// plus a per-byte cut-through cost.
    CutThrough {
        /// Fixed forwarding latency.
        latency: Dur,
        /// Per-byte forwarding cost (elastic buffer).
        per_byte: Dur,
    },
}

impl BridgeKind {
    /// A 1991 host router at the paper's copy rates: two adapter
    /// interrupts, a receive copy out of the fixed DMA buffer, route
    /// lookup and header rebuild, a transmit copy back into the other
    /// adapter's buffer — all on a CPU that both adapters' DMA engines
    /// are simultaneously stealing cycles from. ≈13 ms for a 2000-byte
    /// packet: *more than the stream's 12 ms period*, which is exactly
    /// the paper's footnote-5 worry.
    pub fn host_router_1991() -> BridgeKind {
        BridgeKind::HostRouter {
            per_packet: Dur::from_us(2_500),
            per_byte: Dur::from_ns(5_000),
        }
    }

    /// A contemporary source-routing bridge.
    pub fn cut_through_bridge() -> BridgeKind {
        BridgeKind::CutThrough {
            latency: Dur::from_us(350),
            per_byte: Dur::from_ns(150),
        }
    }

    /// Service time for a frame of `wire_bytes`.
    pub fn service(&self, wire_bytes: u32) -> Dur {
        match *self {
            BridgeKind::HostRouter {
                per_packet,
                per_byte,
            } => per_packet + per_byte * u64::from(wire_bytes),
            BridgeKind::CutThrough { latency, per_byte } => {
                latency + per_byte * u64::from(wire_bytes)
            }
        }
    }

    /// Lower bound on the time between a frame entering this bridge and
    /// any effect appearing on another ring: the fixed per-packet term
    /// of [`BridgeKind::service`] (byte costs only add to it).
    ///
    /// This is the conservative-synchronization **lookahead** of a
    /// cross-shard link in the sharded scheduler. When a bridge's port
    /// rings land in different shards, the bridge becomes a sync-class
    /// node, and this bound licenses the shards to run ahead: a shard
    /// that has simulated up to `t` can safely run to `t + lookahead()`
    /// before looking at its inbox again, because a frame a neighbor
    /// hands the bridge at or after `t` cannot emerge on any other ring
    /// earlier than `t + lookahead()`. The topology build derives each
    /// shard's window bound as the minimum over the cut bridges incident
    /// to it (see `ctms_core::Topology::build_sharded`), so the bound
    /// must be **positive**: a zero here would collapse the conservative
    /// window to nothing and stall the parallel engine. Both engine
    /// models have an inherently positive fixed term; the topology build
    /// debug-asserts this for every bridge that ends up on a shard cut.
    pub fn lookahead(&self) -> Dur {
        match *self {
            BridgeKind::HostRouter { per_packet, .. } => per_packet,
            BridgeKind::CutThrough { latency, .. } => latency,
        }
    }

    fn shared_engine(&self) -> bool {
        matches!(self, BridgeKind::HostRouter { .. })
    }
}

/// One bridge attachment: the station the bridge occupies on that ring
/// and the static CTMSP next hop used when *emitting* on that ring.
#[derive(Clone, Copy, Debug)]
pub struct BridgePort {
    /// The bridge's station on this port's ring.
    pub station: StationId,
    /// CTMSP forward target on this port's ring (static route).
    pub ctmsp_dst: StationId,
}

/// Two-port bridge configuration — the classic dual-ring shape, kept as
/// the convenient construction path for chains. Port 0 is the A (source
/// side) ring, port 1 the B (destination side) ring.
#[derive(Clone, Copy, Debug)]
pub struct BridgeCfg {
    /// The bridge's station on ring A (port 0).
    pub station_a: StationId,
    /// The bridge's station on ring B (port 1).
    pub station_b: StationId,
    /// CTMSP forward target on ring B (static route, A→B direction).
    pub ctmsp_dst_b: StationId,
    /// CTMSP forward target on ring A (static route, B→A direction).
    pub ctmsp_dst_a: StationId,
    /// Engine model.
    pub kind: BridgeKind,
    /// Per-port queue capacity in frames.
    pub queue_cap: usize,
}

/// Commands into the bridge.
#[derive(Clone, Debug)]
pub enum BridgeCmd {
    /// A frame arrived at the bridge's station on port `port`.
    Delivered {
        /// Which port (ring attachment) it came from.
        port: u8,
        /// The frame.
        frame: Frame,
    },
}

/// Events out of the bridge.
#[derive(Clone, Debug)]
pub enum BridgeOut {
    /// Submit this frame on the given port's ring.
    Submit {
        /// Target port (ring attachment).
        port: u8,
        /// The (re-addressed) frame.
        frame: Frame,
    },
    /// A frame was dropped (queue overflow or non-routable protocol).
    Dropped {
        /// The frame's tag.
        tag: u64,
        /// True if dropped for queue overflow (vs. unroutable).
        overflow: bool,
    },
}

/// Bridge counters, aggregated over ports. `forwarded_ab`/`forwarded_ba`
/// are the two-port directions (frames that *entered* port 0 / port 1);
/// per-port counts on wider bridges come from [`Bridge::forwarded`].
#[derive(Clone, Copy, Debug, Default)]
pub struct BridgeStats {
    /// Frames forwarded that entered on port 0 (A→B on a two-port).
    pub forwarded_ab: u64,
    /// Frames forwarded that entered on port 1 (B→A on a two-port).
    pub forwarded_ba: u64,
    /// Queue-overflow drops.
    pub overflows: u64,
    /// Unroutable frames discarded.
    pub unroutable: u64,
    /// High-water queue depth (all ports).
    pub queue_highwater: usize,
    /// Busy nanoseconds of the (shared or per-port) engines.
    pub busy_ns: u64,
}

struct Pending {
    port_in: u8,
    frame: Frame,
}

/// The bridge. See module docs.
pub struct Bridge {
    kind: BridgeKind,
    queue_cap: usize,
    ports: Vec<BridgePort>,
    /// Static forwarding table: input port → output port.
    forward: Vec<u8>,
    /// One ingress queue per port.
    queues: Vec<VecDeque<Pending>>,
    /// Engine-busy horizon per port (a shared HostRouter engine uses
    /// slot 0 only; the rest stay idle).
    busy_until: Vec<Option<(SimTime, u8)>>,
    next_id: u64,
    /// Forwarded frames per *input* port.
    forwarded: Vec<u64>,
    overflows: u64,
    unroutable: u64,
    queue_highwater: usize,
    busy_ns: u64,
}

impl Bridge {
    /// Creates the classic two-port bridge from a [`BridgeCfg`]: frames
    /// entering either port leave on the other.
    pub fn new(cfg: BridgeCfg) -> Self {
        Bridge::multi(
            cfg.kind,
            cfg.queue_cap,
            vec![
                BridgePort {
                    station: cfg.station_a,
                    ctmsp_dst: cfg.ctmsp_dst_a,
                },
                BridgePort {
                    station: cfg.station_b,
                    ctmsp_dst: cfg.ctmsp_dst_b,
                },
            ],
            vec![1, 0],
        )
    }

    /// Creates a multi-port bridge: `ports[p]` is the attachment on the
    /// `p`-th ring, `forward[p]` the output port for frames entering at
    /// `p`. The table must be complete, in range, and never forward a
    /// frame back onto its own ring.
    pub fn multi(
        kind: BridgeKind,
        queue_cap: usize,
        ports: Vec<BridgePort>,
        forward: Vec<u8>,
    ) -> Self {
        assert!(ports.len() >= 2, "a bridge joins at least two rings");
        assert!(ports.len() <= u8::MAX as usize, "too many bridge ports");
        assert_eq!(
            forward.len(),
            ports.len(),
            "one forwarding entry per input port"
        );
        for (p, &out) in forward.iter().enumerate() {
            assert!((out as usize) < ports.len(), "forward target out of range");
            assert_ne!(out as usize, p, "port {p} would forward onto its own ring");
        }
        let n = ports.len();
        Bridge {
            kind,
            queue_cap,
            ports,
            forward,
            queues: (0..n).map(|_| VecDeque::new()).collect(),
            busy_until: vec![None; n],
            next_id: 0,
            forwarded: vec![0; n],
            overflows: 0,
            unroutable: 0,
            queue_highwater: 0,
            busy_ns: 0,
        }
    }

    /// Aggregate counters (two-port directions; see [`BridgeStats`]).
    pub fn stats(&self) -> BridgeStats {
        BridgeStats {
            forwarded_ab: self.forwarded.first().copied().unwrap_or(0),
            forwarded_ba: self.forwarded.get(1).copied().unwrap_or(0),
            overflows: self.overflows,
            unroutable: self.unroutable,
            queue_highwater: self.queue_highwater,
            busy_ns: self.busy_ns,
        }
    }

    /// Forwarded frames that entered on `port`.
    pub fn forwarded(&self, port: usize) -> u64 {
        self.forwarded[port]
    }

    /// The forwarding-engine model (shard-partition derivation reads the
    /// lookahead off it).
    pub fn kind(&self) -> BridgeKind {
        self.kind
    }

    /// Number of ring attachments.
    pub fn port_count(&self) -> usize {
        self.ports.len()
    }

    /// This bridge's station id on port `port`'s ring.
    pub fn port_station(&self, port: usize) -> StationId {
        self.ports[port].station
    }

    fn engine_index(&self, port_in: u8) -> usize {
        if self.kind.shared_engine() {
            0
        } else {
            port_in as usize
        }
    }

    fn alloc_id(&mut self) -> FrameId {
        self.next_id += 1;
        FrameId(0xB000_0000_0000_0000 | self.next_id)
    }

    /// Starts service on `engine` if it is idle and work is queued.
    fn kick(&mut self, now: SimTime, engine: usize) {
        if self.busy_until[engine].is_some() {
            return;
        }
        // A shared engine serves every queue, longest first (lowest port
        // wins ties); per-port engines serve their own queue.
        let mut best: Option<usize> = None;
        let candidates = if self.kind.shared_engine() {
            0..self.queues.len()
        } else {
            engine..engine + 1
        };
        for q in candidates {
            if !self.queues[q].is_empty()
                && best
                    .map(|b| self.queues[q].len() > self.queues[b].len())
                    .unwrap_or(true)
            {
                best = Some(q);
            }
        }
        let Some(q) = best else { return };
        let head = self.queues[q].front().expect("non-empty");
        let service = self.kind.service(head.frame.wire_bytes());
        self.busy_ns += service.as_ns();
        self.busy_until[engine] = Some((now + service, head.port_in));
        // The frame leaves the queue when service completes; keep it at
        // the head so depth accounting stays truthful.
    }

    fn finish(&mut self, port_in: u8, sink: &mut Vec<BridgeOut>) {
        let Some(p) = self.queues[port_in as usize].pop_front() else {
            return;
        };
        let port_out = self.forward[p.port_in as usize];
        let out = self.ports[port_out as usize];
        let mut frame = p.frame;
        frame.id = self.alloc_id();
        frame.src = out.station;
        frame.dst = Some(out.ctmsp_dst);
        self.forwarded[p.port_in as usize] += 1;
        sink.push(BridgeOut::Submit {
            port: port_out,
            frame,
        });
    }
}

fn restore_port(dec: &mut ctms_sim::Dec<'_>, ports: usize) -> Result<u8, ctms_sim::PersistError> {
    let port = dec.u8()?;
    if (port as usize) >= ports {
        return Err(ctms_sim::PersistError::BadTag {
            what: "bridge port",
            tag: port,
        });
    }
    Ok(port)
}

impl ctms_sim::Persist for Bridge {
    /// Dynamic bridge state: every port's ingress queue, the engine-busy
    /// horizons, the forwarded-frame id allocator and counters. The port
    /// list, forwarding table, kind, and queue cap are structural, so the
    /// per-port vectors are written without a count prefix — a two-port
    /// bridge produces exactly the bytes the fixed-two-ring format did.
    fn persist(&self, enc: &mut ctms_sim::Enc) {
        for q in &self.queues {
            enc.seq_len(q.len());
            for p in q {
                enc.u8(p.port_in);
                p.frame.persist(enc);
            }
        }
        for b in &self.busy_until {
            enc.opt(b.as_ref(), |e, (t, port)| {
                e.time(*t);
                e.u8(*port);
            });
        }
        enc.u64(self.next_id);
        for f in &self.forwarded {
            enc.u64(*f);
        }
        enc.u64(self.overflows);
        enc.u64(self.unroutable);
        enc.u64(self.queue_highwater as u64);
        enc.u64(self.busy_ns);
    }

    fn restore(&mut self, dec: &mut ctms_sim::Dec<'_>) -> Result<(), ctms_sim::PersistError> {
        use ctms_tokenring::decode_frame;
        let ports = self.ports.len();
        for q in &mut self.queues {
            *q = dec
                .seq(|d| {
                    let port_in = restore_port(d, ports)?;
                    let frame = decode_frame(d)?;
                    Ok(Pending { port_in, frame })
                })?
                .into_iter()
                .collect();
        }
        for b in &mut self.busy_until {
            *b = dec.opt(|d| Ok((d.time()?, restore_port(d, ports)?)))?;
        }
        self.next_id = dec.u64()?;
        for f in &mut self.forwarded {
            *f = dec.u64()?;
        }
        self.overflows = dec.u64()?;
        self.unroutable = dec.u64()?;
        self.queue_highwater = dec.u64()? as usize;
        self.busy_ns = dec.u64()?;
        Ok(())
    }
}

impl Component for Bridge {
    type Cmd = BridgeCmd;
    type Out = BridgeOut;

    fn next_deadline(&self) -> Option<SimTime> {
        ctms_sim::earliest(self.busy_until.iter().map(|b| b.map(|(t, _)| t)))
    }

    fn advance(&mut self, now: SimTime, sink: &mut Vec<BridgeOut>) {
        for engine in 0..self.busy_until.len() {
            if let Some((t, port_in)) = self.busy_until[engine] {
                if t <= now {
                    self.busy_until[engine] = None;
                    self.finish(port_in, sink);
                    self.kick(now, engine);
                }
            }
        }
    }

    fn handle(&mut self, now: SimTime, cmd: BridgeCmd, sink: &mut Vec<BridgeOut>) {
        let BridgeCmd::Delivered { port, frame } = cmd;
        // Only the static CTMSP route is forwarded (§3's point-to-point
        // assumption, extended hop by hop).
        if frame.kind != ctms_tokenring::FrameKind::Llc(Proto::Ctmsp) {
            self.unroutable += 1;
            sink.push(BridgeOut::Dropped {
                tag: frame.tag,
                overflow: false,
            });
            return;
        }
        let q = port as usize;
        if self.queues[q].len() >= self.queue_cap {
            self.overflows += 1;
            sink.push(BridgeOut::Dropped {
                tag: frame.tag,
                overflow: true,
            });
            return;
        }
        self.queues[q].push_back(Pending {
            port_in: port,
            frame,
        });
        let depth: usize = self.queues.iter().map(|q| q.len()).sum();
        self.queue_highwater = self.queue_highwater.max(depth);
        let engine = self.engine_index(port);
        self.kick(now, engine);
    }

    fn publish_telemetry(&self, scope: &mut ctms_sim::telemetry::Scope<'_>) {
        // Ports 0/1 keep the historical direction names so existing
        // telemetry trees (and their golden digests) are untouched;
        // wider bridges add per-port counters beyond them.
        scope.counter("forwarded_ab", self.forwarded.first().copied().unwrap_or(0));
        scope.counter("forwarded_ba", self.forwarded.get(1).copied().unwrap_or(0));
        for (p, f) in self.forwarded.iter().enumerate().skip(2) {
            scope.counter(&format!("forwarded_p{p}"), *f);
        }
        scope.counter("overflows", self.overflows);
        scope.counter("unroutable", self.unroutable);
        scope.gauge("queue_highwater", self.queue_highwater as i64);
        scope.counter("busy_ns", self.busy_ns);
        scope.gauge(
            "queue_depth",
            self.queues.iter().map(|q| q.len()).sum::<usize>() as i64,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctms_sim::drain_component;
    use ctms_tokenring::FrameKind;

    fn cfg(kind: BridgeKind) -> BridgeCfg {
        BridgeCfg {
            station_a: StationId(3),
            station_b: StationId(0),
            ctmsp_dst_b: StationId(1),
            ctmsp_dst_a: StationId(0),
            kind,
            queue_cap: 8,
        }
    }

    fn ctmsp(tag: u64) -> Frame {
        Frame {
            id: FrameId(tag),
            src: StationId(0),
            dst: Some(StationId(3)),
            kind: FrameKind::Llc(Proto::Ctmsp),
            info_len: 2000,
            priority: 4,
            tag,
        }
    }

    #[test]
    fn forwards_with_service_latency() {
        let mut b = Bridge::new(cfg(BridgeKind::host_router_1991()));
        let mut sink = Vec::new();
        b.handle(
            SimTime::ZERO,
            BridgeCmd::Delivered {
                port: 0,
                frame: ctmsp(1),
            },
            &mut sink,
        );
        assert!(sink.is_empty(), "service takes time");
        let evs = drain_component(&mut b, SimTime::from_ms(100));
        let (t, out) = &evs[0];
        // 2.5 ms + 2021 × 5 µs ≈ 12.6 ms.
        assert_eq!(*t, SimTime::from_ns(2_500_000 + 2021 * 5_000));
        match out {
            BridgeOut::Submit { port, frame } => {
                assert_eq!(*port, 1);
                assert_eq!(frame.dst, Some(StationId(1)));
                assert_eq!(frame.src, StationId(0));
                assert_eq!(frame.tag, 1);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(b.stats().forwarded_ab, 1);
    }

    #[test]
    fn cut_through_is_fast_and_duplex() {
        let mut b = Bridge::new(cfg(BridgeKind::cut_through_bridge()));
        let mut sink = Vec::new();
        b.handle(
            SimTime::ZERO,
            BridgeCmd::Delivered {
                port: 0,
                frame: ctmsp(1),
            },
            &mut sink,
        );
        let mut back = ctmsp(2);
        back.src = StationId(1);
        back.dst = Some(StationId(0));
        b.handle(
            SimTime::ZERO,
            BridgeCmd::Delivered {
                port: 1,
                frame: back,
            },
            &mut sink,
        );
        let evs = drain_component(&mut b, SimTime::from_ms(10));
        // Per-port engines: both forwarded at the same instant.
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].0, evs[1].0);
        let service = BridgeKind::cut_through_bridge().service(2021);
        assert_eq!(evs[0].0, SimTime::ZERO + service);
        assert!(service < Dur::from_us(700), "{service}");
        assert_eq!(b.stats().forwarded_ab, 1);
        assert_eq!(b.stats().forwarded_ba, 1);
    }

    #[test]
    fn host_router_serializes_directions() {
        let mut b = Bridge::new(cfg(BridgeKind::host_router_1991()));
        let mut sink = Vec::new();
        b.handle(
            SimTime::ZERO,
            BridgeCmd::Delivered {
                port: 0,
                frame: ctmsp(1),
            },
            &mut sink,
        );
        b.handle(
            SimTime::ZERO,
            BridgeCmd::Delivered {
                port: 1,
                frame: ctmsp(2),
            },
            &mut sink,
        );
        let evs = drain_component(&mut b, SimTime::from_ms(100));
        assert_eq!(evs.len(), 2);
        let service = BridgeKind::host_router_1991().service(2021);
        assert_eq!(evs[1].0.since(evs[0].0), service, "one CPU, one at a time");
    }

    #[test]
    fn queue_overflow_drops() {
        let mut b = Bridge::new(cfg(BridgeKind::host_router_1991()));
        let mut sink = Vec::new();
        for k in 0..12 {
            b.handle(
                SimTime::ZERO,
                BridgeCmd::Delivered {
                    port: 0,
                    frame: ctmsp(k),
                },
                &mut sink,
            );
        }
        let drops = sink
            .iter()
            .filter(|e| matches!(e, BridgeOut::Dropped { overflow: true, .. }))
            .count();
        assert_eq!(drops, 4, "cap 8");
        assert_eq!(b.stats().overflows, 4);
        assert_eq!(b.stats().queue_highwater, 8);
    }

    #[test]
    fn non_ctmsp_is_unroutable() {
        let mut b = Bridge::new(cfg(BridgeKind::cut_through_bridge()));
        let mut sink = Vec::new();
        let mut f = ctmsp(9);
        f.kind = FrameKind::Llc(Proto::Ip);
        b.handle(
            SimTime::ZERO,
            BridgeCmd::Delivered { port: 0, frame: f },
            &mut sink,
        );
        assert!(matches!(
            sink[0],
            BridgeOut::Dropped {
                overflow: false,
                ..
            }
        ));
        assert_eq!(b.stats().unroutable, 1);
    }

    /// The FDDI-concentrator shape: three ports (leaf, primary,
    /// secondary) with leaf↔primary forwarding configured and the
    /// secondary parked on the default next port.
    fn three_port(kind: BridgeKind) -> Bridge {
        Bridge::multi(
            kind,
            8,
            vec![
                BridgePort {
                    station: StationId(3),
                    ctmsp_dst: StationId(0),
                },
                BridgePort {
                    station: StationId(0),
                    ctmsp_dst: StationId(7),
                },
                BridgePort {
                    station: StationId(1),
                    ctmsp_dst: StationId(0),
                },
            ],
            vec![1, 0, 0],
        )
    }

    #[test]
    fn multi_port_forwards_by_table() {
        let mut b = three_port(BridgeKind::cut_through_bridge());
        let mut sink = Vec::new();
        b.handle(
            SimTime::ZERO,
            BridgeCmd::Delivered {
                port: 0,
                frame: ctmsp(1),
            },
            &mut sink,
        );
        b.handle(
            SimTime::ZERO,
            BridgeCmd::Delivered {
                port: 1,
                frame: ctmsp(2),
            },
            &mut sink,
        );
        let evs = drain_component(&mut b, SimTime::from_ms(10));
        assert_eq!(evs.len(), 2);
        let submits: Vec<(u8, StationId)> = evs
            .iter()
            .filter_map(|(_, e)| match e {
                BridgeOut::Submit { port, frame } => Some((*port, frame.dst.unwrap())),
                _ => None,
            })
            .collect();
        // Leaf ingress goes out the primary port toward its next hop;
        // primary ingress comes back out the leaf port.
        assert_eq!(submits, vec![(1, StationId(7)), (0, StationId(0))]);
        assert_eq!(b.forwarded(0), 1);
        assert_eq!(b.forwarded(1), 1);
        assert_eq!(b.forwarded(2), 0);
    }

    #[test]
    fn multi_port_state_round_trips() {
        use ctms_sim::{Dec, Enc, Persist as _};
        let mut b = three_port(BridgeKind::host_router_1991());
        let mut sink = Vec::new();
        for (port, tag) in [(0u8, 1u64), (2, 2), (0, 3)] {
            b.handle(
                SimTime::ZERO,
                BridgeCmd::Delivered {
                    port,
                    frame: ctmsp(tag),
                },
                &mut sink,
            );
        }
        let mut enc = Enc::new();
        b.persist(&mut enc);
        let bytes = enc.into_bytes();

        let mut fresh = three_port(BridgeKind::host_router_1991());
        let mut dec = Dec::new(&bytes);
        fresh.restore(&mut dec).expect("restore");
        dec.finish().expect("stream fully consumed");
        let mut enc2 = Enc::new();
        fresh.persist(&mut enc2);
        assert_eq!(enc2.into_bytes(), bytes, "re-persist is a fixed point");
        // The restored bridge drains identically.
        let a = drain_component(&mut b, SimTime::from_secs(1));
        let c = drain_component(&mut fresh, SimTime::from_secs(1));
        assert_eq!(a.len(), c.len());
        for ((ta, ea), (tc, ec)) in a.iter().zip(&c) {
            assert_eq!(ta, tc);
            assert_eq!(format!("{ea:?}"), format!("{ec:?}"));
        }
    }
}
