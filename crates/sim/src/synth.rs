//! Synthetic allocation-free scheduler workloads.
//!
//! Proving the *scheduler's* steady state allocation-free needs a
//! workload whose components provably never allocate themselves
//! — otherwise an allocation in a component would be indistinguishable
//! from one in the harness. [`build_ring`] wires `n` periodic tickers
//! into a command ring: every fire is routed as a command to the next
//! node, which re-emits with a decremented hop budget, exercising the
//! full hot path (due-node lookup, advance, route, handle, same-instant
//! cascade, reschedule/update-key) with nothing but `u64` payloads.
//!
//! Used by `tests/zero_alloc.rs` and `tests/zero_alloc_sharded.rs`,
//! which run in tier-1 `cargo test`.

use crate::bus::{CmdSink, NodeId, Router, DEFAULT_CASCADE_LIMIT};
use crate::engine::{Component, Sink};
use crate::persist::{Dec, Enc, Persist, PersistError};
use crate::shard::{Harness, MergeTelemetry};
use crate::telemetry::Registry;
use crate::time::{Dur, SimTime};

/// A periodic ticker that emits its fire count and forwards commands
/// while their hop budget lasts. Contains no heap-allocating state.
pub struct SynthNode {
    period: Dur,
    next: SimTime,
    fired: u64,
    handled: u64,
}

impl SynthNode {
    /// Fires this node has performed.
    pub fn fired(&self) -> u64 {
        self.fired
    }

    /// Commands this node has received.
    pub fn handled(&self) -> u64 {
        self.handled
    }
}

impl Component for SynthNode {
    type Cmd = u64;
    type Out = u64;

    fn next_deadline(&self) -> Option<SimTime> {
        Some(self.next)
    }

    fn advance(&mut self, now: SimTime, sink: &mut impl Sink<u64>) {
        if now == self.next {
            self.fired += 1;
            self.next = now + self.period;
            sink.push(self.fired);
        }
    }

    fn handle(&mut self, _now: SimTime, hops: u64, sink: &mut impl Sink<u64>) {
        self.handled += 1;
        if hops > 0 {
            sink.push(hops);
        }
    }
}

impl Persist for SynthNode {
    fn persist(&self, enc: &mut Enc) {
        enc.dur(self.period);
        enc.time(self.next);
        enc.u64(self.fired);
        enc.u64(self.handled);
    }
    fn restore(&mut self, dec: &mut Dec<'_>) -> Result<(), PersistError> {
        self.period = dec.dur()?;
        self.next = dec.time()?;
        self.fired = dec.u64()?;
        self.handled = dec.u64()?;
        Ok(())
    }
}

/// Routes every event to the emitter's ring successor with one hop of
/// budget consumed, so each fire produces a bounded same-instant
/// cascade around the ring.
pub struct RingForward {
    nodes: usize,
    hops: u64,
    routed: u64,
}

impl RingForward {
    /// Events routed so far.
    pub fn routed(&self) -> u64 {
        self.routed
    }
}

impl MergeTelemetry for RingForward {
    fn publish_merged(_parts: &[&Self], _reg: &mut Registry) {}
}

impl Router<SynthNode> for RingForward {
    fn route(&mut self, _now: SimTime, src: NodeId, event: u64, sink: &mut CmdSink<u64>) {
        self.routed += 1;
        let budget = event.min(self.hops);
        if budget > 0 {
            let dst = NodeId((src.0 + 1) % self.nodes);
            sink.push(dst, budget - 1);
        }
    }
}

/// Builds an `n`-node command ring with staggered periods near
/// `base_period_ns` (staggering keeps the deadline heap busy with
/// update-keys rather than degenerate ties) and per-fire cascades of up
/// to `hops` hops. Runs on one shard.
pub fn build_ring(n: usize, base_period_ns: u64, hops: u64) -> Harness<SynthNode, RingForward> {
    assert!(n > 0, "ring needs at least one node");
    let router = RingForward {
        nodes: n,
        hops,
        routed: 0,
    };
    let mut h = Harness::new(vec![router], DEFAULT_CASCADE_LIMIT, Dur::ZERO);
    for k in 0..n {
        let period = Dur::from_ns(base_period_ns + (k as u64 % 7) * 13);
        let node = SynthNode {
            period,
            next: SimTime::from_ns(period.as_ns()),
            fired: 0,
            handled: 0,
        };
        h.add_node_labeled(node, format!("node{k}"), 0, false);
    }
    h
}

/// Routing for the two-shard workload of [`build_sharded_ring`]: two
/// disjoint `n`-node command rings (one per shard, forwards never cross
/// the cut) plus one sync-class relay on shard 0 whose fires are mailed
/// to shard 1. Contains no heap-allocating state.
pub struct ShardForward {
    nodes_per_shard: usize,
    hops: u64,
    routed: u64,
}

impl ShardForward {
    /// Events routed so far (per shard router, when sharded).
    pub fn routed(&self) -> u64 {
        self.routed
    }
}

impl Persist for ShardForward {
    fn persist(&self, enc: &mut Enc) {
        enc.u64(self.routed);
    }
    fn restore(&mut self, dec: &mut Dec<'_>) -> Result<(), PersistError> {
        self.routed = dec.u64()?;
        Ok(())
    }
}

impl MergeTelemetry for ShardForward {
    fn publish_merged(parts: &[&Self], reg: &mut Registry) {
        reg.scope("synth")
            .counter("routed", parts.iter().map(|p| p.routed).sum());
    }
}

impl Router<SynthNode> for ShardForward {
    fn route(&mut self, _now: SimTime, src: NodeId, event: u64, sink: &mut CmdSink<u64>) {
        self.routed += 1;
        let n = self.nodes_per_shard;
        if src.0 == 2 * n {
            // The relay: every fire crosses the cut into shard 1 with a
            // spent hop budget, so the recipient counts it and stops —
            // the relay never reacts to input, which satisfies any
            // positive lookahead vacuously.
            sink.push(NodeId(n + (event as usize % n)), 0);
        } else {
            let budget = event.min(self.hops);
            if budget > 0 {
                let base = if src.0 < n { 0 } else { n };
                sink.push(NodeId(base + (src.0 - base + 1) % n), budget - 1);
            }
        }
    }
}

/// Builds the two-shard mirror of [`build_ring`]: shard 0 holds ring
/// nodes `0..n` plus the sync relay (node `2n`), shard 1 holds ring
/// nodes `n..2n`; the relay fires every `relay_period_ns` and each fire
/// is delivered cross-shard. Exercises the full sharded hot path —
/// window negotiation, outbox flush, pending-mail delivery, per-shard
/// stepping — with nothing but `u64` payloads, so
/// `tests/zero_alloc_sharded.rs` can pin the sharded steady state at
/// zero allocations too. With `shards == 1` every node runs on one
/// shard: the reference the two-shard run must reproduce.
pub fn build_sharded_ring(
    n: usize,
    base_period_ns: u64,
    hops: u64,
    relay_period_ns: u64,
    lookahead_ns: u64,
    shards: usize,
) -> Harness<SynthNode, ShardForward> {
    assert!(n > 0, "ring needs at least one node");
    assert!(shards == 1 || shards == 2, "one or two shards");
    let routers = (0..shards)
        .map(|_| ShardForward {
            nodes_per_shard: n,
            hops,
            routed: 0,
        })
        .collect();
    let mut h = Harness::new(routers, DEFAULT_CASCADE_LIMIT, Dur::from_ns(lookahead_ns));
    for k in 0..2 * n + 1 {
        let relay = k == 2 * n;
        let period = if relay {
            Dur::from_ns(relay_period_ns)
        } else {
            Dur::from_ns(base_period_ns + (k as u64 % 7) * 13)
        };
        let node = SynthNode {
            period,
            next: SimTime::from_ns(period.as_ns()),
            fired: 0,
            handled: 0,
        };
        let shard = if shards == 1 || relay { 0 } else { k / n };
        h.add_node_labeled(node, format!("synth.n{k}"), shard, relay && shards > 1);
    }
    h
}

// ----------------------------------------------------------------------
// Enumerated straggler schedules: adversarial cross-shard traffic at the
// minimal 1 ns lookahead.
//
// The graph workload arranges `cells` identical cells into one of the
// four testbed shapes (chain / tree / mesh / fddi); each cell holds a
// free-running ticker (never crosses the cut) and a sync-class relay
// whose fire times are *enumerated up front* so tests can aim
// cross-shard mail at adversarial points: exactly on a receiving cell's
// own event instants, in same-instant streaks across every shard at
// once, or as a tight ascending cascade from shard to shard. Relays
// never react to input, so any positive lookahead is vacuously
// satisfied and the conservative engine stays exact.
// ----------------------------------------------------------------------

/// Which adversarial point the relay schedules aim their mail at.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StragglerCase {
    /// Fires land exactly on a receiving cell's own event instants, so
    /// delivered mail and local deadlines tie at the same instant.
    EventTie,
    /// Every relay fires a burst at the same instants, so mail is in
    /// flight on every shard when the sync instants hit.
    SameInstantStreak,
    /// Tightly ascending fire times across cells: each shard's mail
    /// lands just past the next shard's clock in turn.
    MultiShardCascade,
}

/// One cell member of the straggler graph: a periodic ticker or an
/// enumerated-schedule relay. Schedules and periods are construction
/// config; only the moving state is persisted.
pub enum GraphCellNode {
    Ticker {
        period: Dur,
        next: SimTime,
        fired: u64,
        handled: u64,
    },
    Relay {
        schedule: Vec<SimTime>,
        cursor: usize,
        burst: u32,
        fired: u64,
        handled: u64,
    },
}

impl Component for GraphCellNode {
    type Cmd = u64;
    type Out = u64;

    fn next_deadline(&self) -> Option<SimTime> {
        match self {
            GraphCellNode::Ticker { next, .. } => Some(*next),
            GraphCellNode::Relay {
                schedule, cursor, ..
            } => schedule.get(*cursor).copied(),
        }
    }

    fn advance(&mut self, now: SimTime, sink: &mut impl Sink<u64>) {
        match self {
            GraphCellNode::Ticker {
                period,
                next,
                fired,
                ..
            } => {
                if *next == now {
                    *fired += 1;
                    *next = now + *period;
                    sink.push(3);
                }
            }
            GraphCellNode::Relay {
                schedule,
                cursor,
                burst,
                fired,
                ..
            } => {
                while schedule.get(*cursor).is_some_and(|&s| s <= now) {
                    *cursor += 1;
                    *fired += 1;
                    for _ in 0..*burst {
                        sink.push(2);
                    }
                }
            }
        }
    }

    fn handle(&mut self, _now: SimTime, hops: u64, sink: &mut impl Sink<u64>) {
        match self {
            GraphCellNode::Ticker { handled, .. } => {
                *handled += 1;
                if hops > 0 {
                    sink.push(hops - 1);
                }
            }
            // Relays never react: lookahead is vacuous for them.
            GraphCellNode::Relay { handled, .. } => *handled += 1,
        }
    }

    fn publish_telemetry(&self, scope: &mut crate::telemetry::Scope<'_>) {
        match self {
            GraphCellNode::Ticker { fired, handled, .. }
            | GraphCellNode::Relay { fired, handled, .. } => {
                scope.counter("fired", *fired);
                scope.counter("handled", *handled);
            }
        }
    }
}

impl Persist for GraphCellNode {
    fn persist(&self, enc: &mut Enc) {
        match self {
            GraphCellNode::Ticker {
                next,
                fired,
                handled,
                ..
            } => {
                enc.u8(0);
                enc.time(*next);
                enc.u64(*fired);
                enc.u64(*handled);
            }
            GraphCellNode::Relay {
                cursor,
                fired,
                handled,
                ..
            } => {
                enc.u8(1);
                enc.u64(*cursor as u64);
                enc.u64(*fired);
                enc.u64(*handled);
            }
        }
    }

    fn restore(&mut self, dec: &mut Dec<'_>) -> Result<(), PersistError> {
        let tag = dec.u8()?;
        match (tag, &mut *self) {
            (
                0,
                GraphCellNode::Ticker {
                    next,
                    fired,
                    handled,
                    ..
                },
            ) => {
                *next = dec.time()?;
                *fired = dec.u64()?;
                *handled = dec.u64()?;
            }
            (
                1,
                GraphCellNode::Relay {
                    cursor,
                    fired,
                    handled,
                    ..
                },
            ) => {
                *cursor = dec.u64()? as usize;
                *fired = dec.u64()?;
                *handled = dec.u64()?;
            }
            (tag, _) => {
                return Err(PersistError::BadTag {
                    what: "GraphCellNode",
                    tag,
                })
            }
        }
        Ok(())
    }
}

/// Static fan-out routing over the cell graph: a ticker's emissions
/// cascade locally (routed back to itself with the hop budget spent
/// down), a relay's emissions go to every out-neighbor cell's ticker —
/// crossing the shard cut whenever the neighbor lives elsewhere.
pub struct GraphForward {
    out: Vec<Vec<NodeId>>,
    routed: u64,
}

impl Router<GraphCellNode> for GraphForward {
    fn route(&mut self, _now: SimTime, src: NodeId, event: u64, sink: &mut CmdSink<u64>) {
        self.routed += 1;
        for &dst in &self.out[src.0] {
            sink.push(dst, event);
        }
    }
}

impl Persist for GraphForward {
    fn persist(&self, enc: &mut Enc) {
        enc.u64(self.routed);
    }
    fn restore(&mut self, dec: &mut Dec<'_>) -> Result<(), PersistError> {
        self.routed = dec.u64()?;
        Ok(())
    }
}

impl MergeTelemetry for GraphForward {
    fn publish_merged(parts: &[&Self], reg: &mut Registry) {
        reg.counter("graph.routed", parts.iter().map(|p| p.routed).sum());
    }
}

/// Out-neighbor lists for the four testbed shapes over `cells` cells.
pub fn graph_shape(shape: &str, cells: usize) -> Vec<Vec<usize>> {
    assert!(cells >= 2, "graph needs at least two cells");
    (0..cells)
        .map(|c| match shape {
            "chain" => (c + 1 < cells).then_some(c + 1).into_iter().collect(),
            "tree" => [2 * c + 1, 2 * c + 2]
                .into_iter()
                .filter(|&d| d < cells)
                .collect(),
            "mesh" => vec![(c + 1) % cells, (c + 2) % cells],
            "fddi" => vec![(c + 1) % cells, (c + cells - 1) % cells],
            other => panic!("unknown graph shape {other:?}"),
        })
        .collect()
}

fn ticker_period(cell: usize) -> u64 {
    97 + 13 * cell as u64
}

/// The enumerated relay fire times (and burst width) for `cell` under
/// `case`. Times are chosen against [`ticker_period`] so the event-tie
/// case collides exactly with the succeeding cell's own event instants
/// while the other cases stay off them.
pub fn relay_schedule(case: StragglerCase, cell: usize, cells: usize) -> (Vec<SimTime>, u32) {
    let times: Vec<u64> = match case {
        StragglerCase::EventTie => {
            let p = ticker_period((cell + 1) % cells);
            vec![8 * p, 8 * p + 500, 20_000 + 61 * cell as u64]
        }
        StragglerCase::SameInstantStreak => vec![1_000, 1_001, 1_002, 2_000, 5_000],
        StragglerCase::MultiShardCascade => {
            let base = 1_000 + 10 * cell as u64;
            vec![base, base + 2_000, base + 4_000]
        }
    };
    let burst = if case == StragglerCase::SameInstantStreak {
        3
    } else {
        1
    };
    (times.into_iter().map(SimTime::from_ns).collect(), burst)
}

fn graph_cell_nodes(case: StragglerCase, cells: usize) -> Vec<(GraphCellNode, String)> {
    let mut nodes = Vec::with_capacity(2 * cells);
    for c in 0..cells {
        let p = ticker_period(c);
        nodes.push((
            GraphCellNode::Ticker {
                period: Dur::from_ns(p),
                next: SimTime::from_ns(p),
                fired: 0,
                handled: 0,
            },
            format!("g.c{c}.t"),
        ));
        let (schedule, burst) = relay_schedule(case, c, cells);
        nodes.push((
            GraphCellNode::Relay {
                schedule,
                cursor: 0,
                burst,
                fired: 0,
                handled: 0,
            },
            format!("g.c{c}.r"),
        ));
    }
    nodes
}

fn graph_adjacency(shape: &str, cells: usize) -> Vec<Vec<NodeId>> {
    let neigh = graph_shape(shape, cells);
    let mut out = vec![Vec::new(); 2 * cells];
    for c in 0..cells {
        out[2 * c] = vec![NodeId(2 * c)]; // local ticker cascade
        out[2 * c + 1] = neigh[c].iter().map(|&d| NodeId(2 * d)).collect();
    }
    out
}

/// Builds the sharded straggler graph: cells are block-partitioned over
/// `shards` shards in index order, relays are sync-class, and the
/// lookahead is the minimal 1 ns (vacuous — relays never react), so the
/// window bounds are as tight as the protocol allows.
pub fn build_straggler_graph(
    shape: &str,
    cells: usize,
    shards: usize,
    case: StragglerCase,
) -> Harness<GraphCellNode, GraphForward> {
    assert!(shards >= 1 && shards <= cells);
    let out = graph_adjacency(shape, cells);
    let routers = (0..shards)
        .map(|_| GraphForward {
            out: out.clone(),
            routed: 0,
        })
        .collect();
    let mut h = Harness::new(routers, DEFAULT_CASCADE_LIMIT, Dur::from_ns(1));
    for (k, (node, label)) in graph_cell_nodes(case, cells).into_iter().enumerate() {
        let cell = k / 2;
        let shard = cell * shards / cells;
        let sync = k % 2 == 1;
        h.add_node_labeled(node, label, shard, sync);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_cascades_are_bounded_and_deterministic() {
        let mut h = build_ring(8, 1_000, 3);
        h.run_until(SimTime::from_ns(50_000));
        let total_fired: u64 = (0..8).map(|k| h.node(NodeId(k)).fired()).sum();
        let total_handled: u64 = (0..8).map(|k| h.node(NodeId(k)).handled()).sum();
        assert!(total_fired > 0);
        // Each fire spawns at most `hops` handles around the ring.
        assert!(total_handled <= total_fired * 3);
        assert!(h.shard_router(0).routed() >= total_fired);
        assert_eq!(h.events(), total_fired + total_handled);

        // Re-running the identical workload is bit-deterministic.
        let mut h2 = build_ring(8, 1_000, 3);
        h2.run_until(SimTime::from_ns(50_000));
        assert_eq!(h2.events(), h.events());
        assert_eq!(h2.shard_router(0).routed(), h.shard_router(0).routed());
    }

    #[test]
    fn sharded_ring_matches_the_single_threaded_reference() {
        // The reference is the one-shard run, and the one-shard run is
        // held to totals recorded from the sequential engine it
        // replaced: 12,460 events, and an FNV-1a over every node's
        // (fired, handled) pair.
        let horizon = SimTime::from_ns(200_000);
        let mut single = build_sharded_ring(8, 1_000, 3, 2_500, 2_500, 1);
        single.run_until(horizon);
        assert!(single.node(NodeId(16)).fired() > 0, "relay must fire");
        let relayed: u64 = (8..16).map(|k| single.node(NodeId(k)).handled()).sum();
        assert!(relayed > 0, "cross-shard mail must flow");
        let totals: Vec<u8> = (0..17)
            .flat_map(|k| {
                let n = single.node(NodeId(k));
                [n.fired().to_le_bytes(), n.handled().to_le_bytes()]
            })
            .flatten()
            .collect();
        assert_eq!(single.events(), 12_460);
        assert_eq!(
            crate::telemetry::fnv1a(&totals),
            0x4EE5_6662_5239_4B95,
            "per-node fired/handled totals drifted"
        );

        let mut sharded = build_sharded_ring(8, 1_000, 3, 2_500, 2_500, 2);
        sharded.run_until(horizon);
        assert_eq!(sharded.events(), single.events());
        for k in 0..17 {
            let (s, r) = (sharded.node(NodeId(k)), single.node(NodeId(k)));
            assert_eq!(s.fired(), r.fired(), "node {k}");
            assert_eq!(s.handled(), r.handled(), "node {k}");
        }
    }

    /// Telemetry FNV-1a and event count of each straggler graph, recorded
    /// from the sequential engine the one-shard run replaced.
    const STRAGGLER_PINS: [(&str, StragglerCase, u64, u64); 12] = [
        (
            "chain",
            StragglerCase::EventTie,
            0x3052_80A7_D4FB_5725,
            7_213,
        ),
        (
            "chain",
            StragglerCase::SameInstantStreak,
            0xD84F_1001_4CB9_CAD1,
            7_405,
        ),
        (
            "chain",
            StragglerCase::MultiShardCascade,
            0x3052_80A7_D4FB_5725,
            7_213,
        ),
        (
            "tree",
            StragglerCase::EventTie,
            0x3052_80A7_D4FB_5725,
            7_213,
        ),
        (
            "tree",
            StragglerCase::SameInstantStreak,
            0xD84F_1001_4CB9_CAD1,
            7_405,
        ),
        (
            "tree",
            StragglerCase::MultiShardCascade,
            0x3052_80A7_D4FB_5725,
            7_213,
        ),
        (
            "mesh",
            StragglerCase::EventTie,
            0xE274_696A_D700_0ACE,
            7_276,
        ),
        (
            "mesh",
            StragglerCase::SameInstantStreak,
            0x7880_742D_77B2_4AFB,
            7_720,
        ),
        (
            "mesh",
            StragglerCase::MultiShardCascade,
            0xE274_696A_D700_0ACE,
            7_276,
        ),
        (
            "fddi",
            StragglerCase::EventTie,
            0xE274_696A_D700_0ACE,
            7_276,
        ),
        (
            "fddi",
            StragglerCase::SameInstantStreak,
            0x7880_742D_77B2_4AFB,
            7_720,
        ),
        (
            "fddi",
            StragglerCase::MultiShardCascade,
            0xE274_696A_D700_0ACE,
            7_276,
        ),
    ];

    #[test]
    fn straggler_schedules_match_the_reference() {
        // Adversarial relay schedules at the minimal 1 ns lookahead, on
        // every testbed shape and at 1, 2 and 4 shards: every run must
        // reproduce the pinned reference telemetry byte for byte.
        let horizon = SimTime::from_ns(30_000);
        let cells = 6;
        for (shape, case, tele_fnv, events) in STRAGGLER_PINS {
            let mut single = build_straggler_graph(shape, cells, 1, case);
            single.run_until(horizon);
            let golden = single.telemetry_json();
            assert_eq!(
                (crate::telemetry::fnv1a(golden.as_bytes()), single.events()),
                (tele_fnv, events),
                "{shape}/{case:?}: one-shard run drifted from the pinned reference"
            );

            for shards in [2usize, 4] {
                let mut sharded = build_straggler_graph(shape, cells, shards, case);
                sharded.run_until(horizon);
                assert_eq!(
                    sharded.telemetry_json(),
                    golden,
                    "{shape}/{case:?}/{shards}"
                );
                assert_eq!(sharded.events(), events, "{shape}/{case:?}/{shards}");
                let sent: u64 = (0..shards)
                    .map(|k| sharded.shard_stats(k).mailbox_sent)
                    .sum();
                assert!(sent > 0, "{shape}/{case:?}/{shards}: mail must cross");
                // The streak collapses every window bound onto one
                // instant, so the sync-instant exchange is under parity
                // too, not only the window path.
                if case == StragglerCase::SameInstantStreak {
                    let syncs = sharded
                        .exec_telemetry()
                        .counter_value("sched.sync_instants");
                    assert!(syncs > Some(0), "{shape}/{case:?}/{shards}: {syncs:?}");
                }
            }
        }
    }
}
