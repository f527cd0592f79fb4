//! The event-bus vocabulary: the "motherboard" pattern as reusable
//! infrastructure.
//!
//! Historically every testbed in `ctms-core` hand-wrote the same loop:
//! poll each component for its next deadline, advance whichever is due,
//! and route the emitted events between components with a cascade guard.
//! The scheduler ([`crate::shard::Harness`]) owns that loop once; this
//! module holds what it and its callers share:
//!
//! * [`NodeId`] — the dense registration-order handle of a node, which
//!   is also the service order on deadline ties, so runs stay
//!   bit-deterministic and reproduce the fixed advance order of the old
//!   hand-rolled loops,
//! * [`Router`] — the caller-supplied wiring that turns each emitted
//!   event into commands for other nodes, pushed into a harness-owned
//!   [`CmdSink`],
//! * [`CascadeError`] — the typed failure a same-instant cascade that
//!   never converges (or a cross-shard protocol violation) reports
//!   instead of tearing the simulation down.

use crate::engine::Component;
use crate::time::SimTime;

/// Registry handle of a node in a [`crate::shard::Harness`]; assigned
/// densely in registration order, which is also the service order on
/// deadline ties.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "node {}", self.0)
    }
}

/// A caller-owned command buffer the [`Router`] pushes into.
///
/// The harness passes the same sink (drained, capacity retained) to
/// every `route` call, so routing a steady-state event allocates
/// nothing. Commands are delivered in push order.
#[derive(Debug)]
pub struct CmdSink<Cmd> {
    buf: Vec<(NodeId, Cmd)>,
}

impl<Cmd> Default for CmdSink<Cmd> {
    fn default() -> Self {
        CmdSink::new()
    }
}

impl<Cmd> CmdSink<Cmd> {
    /// An empty sink.
    pub fn new() -> Self {
        CmdSink { buf: Vec::new() }
    }

    /// Queues `cmd` for delivery to `dst` (in push order).
    #[inline]
    pub fn push(&mut self, dst: NodeId, cmd: Cmd) {
        self.buf.push((dst, cmd));
    }

    /// Commands queued so far in this `route` call.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Drops queued commands, retaining capacity — the same reuse
    /// contract as the harness's other scratch buffers.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Drains the queued `(dst, cmd)` pairs in push order, retaining
    /// capacity; the scheduler consumes routed commands through this.
    pub fn drain(&mut self) -> std::vec::Drain<'_, (NodeId, Cmd)> {
        self.buf.drain(..)
    }
}

/// Turns events emitted by one node into commands for other nodes.
///
/// The router is the only place topology lives: the harness knows
/// nothing about what its nodes are. Routing runs inside the
/// same-instant cascade, so commands pushed into `sink` are delivered
/// (and their outputs routed) before simulated time moves. The router
/// may also absorb events (measurement taps, counters) by pushing no
/// commands for them.
pub trait Router<C: Component> {
    /// Routes one `event` emitted by `src` at `now`, pushing any
    /// resulting commands into `sink`. The sink is reused across calls —
    /// never assume it is freshly allocated, and (since [`Router::route_all`]
    /// shares one sink across a batch) never assume it is empty on entry.
    fn route(&mut self, now: SimTime, src: NodeId, event: C::Out, sink: &mut CmdSink<C::Cmd>);

    /// Routes a batch of events all emitted by `src` at `now`, draining
    /// `events` front to back. The harness batches consecutive same-source
    /// events from one cascade wave into a single call, so routers whose
    /// per-call overhead dominates (table lookups, telemetry taps) can hoist
    /// the per-source work out of the loop. The default simply forwards to
    /// [`Router::route`] per event; implementations must preserve exactly
    /// that command order so batching stays bit-identical.
    fn route_all(
        &mut self,
        now: SimTime,
        src: NodeId,
        events: &mut Vec<C::Out>,
        sink: &mut CmdSink<C::Cmd>,
    ) {
        for event in events.drain(..) {
            self.route(now, src, event, sink);
        }
    }
}

/// A scheduling failure that poisons the harness: a same-instant routing
/// cascade that never converged, or a cross-shard emission from a node
/// the sharded scheduler does not allow to emit one. Both variants
/// surface as typed errors (e.g. as a JSON error line from `ctms-serve`)
/// instead of tearing the process down.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CascadeError {
    /// A same-instant routing cascade exceeded the configured step limit —
    /// some component keeps scheduling work at the current instant forever.
    Overflow {
        /// The instant at which the cascade never converged.
        at: SimTime,
        /// The node whose events were being routed when the limit tripped.
        node: NodeId,
        /// Cascade steps performed at `at` before giving up.
        steps: u32,
    },
    /// A node that is not sync-class emitted a command for a node owned
    /// by another shard while its shard ran ahead inside a window — a
    /// violation of the lookahead contract: only sync-class nodes may
    /// emit cross-shard commands, because only their lookahead bounds
    /// when such a command can take effect.
    CrossShard {
        /// The instant of the offending emission.
        at: SimTime,
        /// The emitting node.
        src: NodeId,
        /// The cross-shard destination.
        dst: NodeId,
        /// Shard owning `src`.
        src_shard: u32,
        /// Shard owning `dst`.
        dst_shard: u32,
    },
}

impl CascadeError {
    /// The classic cascade-guard overflow.
    pub fn overflow(at: SimTime, node: NodeId, steps: u32) -> Self {
        CascadeError::Overflow { at, node, steps }
    }

    /// The simulation instant at which the failure occurred.
    pub fn at(&self) -> SimTime {
        match *self {
            CascadeError::Overflow { at, .. } | CascadeError::CrossShard { at, .. } => at,
        }
    }

    /// The node involved in the failure: the routed node for an
    /// overflow, the emitter for a cross-shard violation.
    pub fn node(&self) -> NodeId {
        match *self {
            CascadeError::Overflow { node, .. } => node,
            CascadeError::CrossShard { src, .. } => src,
        }
    }

    /// Cascade steps performed before giving up (0 for a cross-shard
    /// violation, which is not step-bounded).
    pub fn steps(&self) -> u32 {
        match *self {
            CascadeError::Overflow { steps, .. } => steps,
            CascadeError::CrossShard { .. } => 0,
        }
    }

    /// The one-line detail string recorded on the telemetry edge-signal
    /// event when this failure poisons a harness.
    pub fn event_detail(&self) -> String {
        match *self {
            CascadeError::Overflow { node, steps, .. } => {
                format!("{steps} steps routing events from {node}")
            }
            CascadeError::CrossShard {
                src,
                dst,
                src_shard,
                dst_shard,
                ..
            } => format!(
                "cross-shard emission {src} (shard {src_shard}) -> {dst} (shard {dst_shard})"
            ),
        }
    }
}

impl std::fmt::Display for CascadeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            CascadeError::Overflow { at, node, steps } => write!(
                f,
                "cascade guard tripped: {steps} same-instant routing steps at {at} while routing events from {node}",
            ),
            CascadeError::CrossShard {
                at,
                src,
                dst,
                src_shard,
                dst_shard,
            } => write!(
                f,
                "sharded scheduler protocol violation: {src} (shard {src_shard}) emitted a \
                 cross-shard command for {dst} (shard {dst_shard}) at {at}; only sync-class \
                 nodes may emit cross-shard commands",
            ),
        }
    }
}

impl std::error::Error for CascadeError {}

/// Default same-instant cascade step limit.
pub const DEFAULT_CASCADE_LIMIT: u32 = 100_000;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::{Harness, MergeTelemetry};
    use crate::telemetry::Registry;
    use crate::time::Dur;

    /// A one-shard harness around `router`.
    fn one_shard<C, R>(router: R, limit: u32) -> Harness<C, R>
    where
        C: Component + Send + 'static,
        C::Cmd: Send + 'static,
        C::Out: Send + 'static,
        R: Router<C> + MergeTelemetry + Send + 'static,
    {
        Harness::new(vec![router], limit, Dur::ZERO)
    }

    /// Registers `node` on the only shard under `node{k}`.
    fn add<C, R>(h: &mut Harness<C, R>, node: C) -> NodeId
    where
        C: Component + Send + 'static,
        C::Cmd: Send + 'static,
        C::Out: Send + 'static,
        R: Router<C> + MergeTelemetry + Send + 'static,
    {
        let label = format!("node{}", h.len());
        h.add_node_labeled(node, label, 0, false)
    }

    /// A ticker that fires at a fixed period, logging (time, id) into a
    /// shared order via its emitted events; commands restart it.
    struct Ticker {
        id: u32,
        period: Dur,
        next: Option<SimTime>,
        remaining: u32,
    }

    impl Component for Ticker {
        type Cmd = u32;
        type Out = u32;
        fn next_deadline(&self) -> Option<SimTime> {
            self.next
        }
        fn advance(&mut self, now: SimTime, sink: &mut Vec<u32>) {
            if Some(now) == self.next {
                self.remaining -= 1;
                sink.push(self.id);
                self.next = if self.remaining > 0 {
                    Some(now + self.period)
                } else {
                    None
                };
            }
        }
        fn handle(&mut self, now: SimTime, extra: u32, _sink: &mut Vec<u32>) {
            self.remaining += extra;
            if self.next.is_none() {
                self.next = Some(now + self.period);
            }
        }
    }

    /// Absorbs everything, recording `(time, source)` service order.
    struct Recorder {
        seen: Vec<(SimTime, NodeId)>,
    }

    impl Router<Ticker> for Recorder {
        fn route(&mut self, now: SimTime, src: NodeId, _event: u32, _sink: &mut CmdSink<u32>) {
            self.seen.push((now, src));
        }
    }

    impl MergeTelemetry for Recorder {
        fn publish_merged(parts: &[&Self], reg: &mut Registry) {
            reg.counter(
                "router.routed",
                parts.iter().map(|r| r.seen.len() as u64).sum(),
            );
        }
    }

    fn ticker(id: u32, period_ms: u64, fires: u32) -> Ticker {
        Ticker {
            id,
            period: Dur::from_ms(period_ms),
            next: Some(SimTime::from_ms(period_ms)),
            remaining: fires,
        }
    }

    #[test]
    fn nodes_sharing_a_deadline_fire_in_registration_order() {
        // Three tickers with identical periods land on every deadline
        // simultaneously; service order must be registration order at
        // every instant, regardless of heap internals.
        let mut h = one_shard(Recorder { seen: Vec::new() }, 100);
        let c = add(&mut h, ticker(2, 10, 4));
        let a = add(&mut h, ticker(0, 10, 4));
        let b = add(&mut h, ticker(1, 10, 4));
        h.run_until(SimTime::from_ms(100));
        let seen = &h.shard_router(0).seen;
        assert_eq!(seen.len(), 12);
        for (k, chunk) in seen.chunks(3).enumerate() {
            let t = SimTime::from_ms(10 * (k as u64 + 1));
            assert_eq!(chunk, [(t, c), (t, a), (t, b)], "instant {t}");
        }
    }

    #[test]
    fn rescheduling_keeps_single_node_fifo() {
        let mut h = one_shard(Recorder { seen: Vec::new() }, 100);
        let a = add(&mut h, ticker(0, 7, 3));
        h.run_until(SimTime::from_secs(1));
        assert_eq!(
            h.shard_router(0).seen,
            vec![
                (SimTime::from_ms(7), a),
                (SimTime::from_ms(14), a),
                (SimTime::from_ms(21), a)
            ]
        );
        assert_eq!(h.now(), SimTime::from_secs(1));
    }

    #[test]
    fn inject_restarts_an_idle_node() {
        let mut h = one_shard(Recorder { seen: Vec::new() }, 100);
        let a = add(&mut h, ticker(0, 5, 1));
        h.run_until(SimTime::from_ms(100));
        assert_eq!(h.shard_router(0).seen.len(), 1);
        h.inject(a, 2).unwrap();
        h.run_until(SimTime::from_ms(200));
        assert_eq!(h.shard_router(0).seen.len(), 3);
        assert_eq!(h.shard_router(0).seen[2].0, SimTime::from_ms(110));
    }

    #[test]
    fn node_mut_reschedules_external_changes() {
        let mut h = one_shard(Recorder { seen: Vec::new() }, 100);
        let a = add(&mut h, ticker(0, 5, 1));
        // One fire at 5 ms, then the node goes idle (no deadline).
        h.run_until(SimTime::from_ms(20));
        let before = h.shard_router(0).seen.len();
        assert_eq!(before, 1);
        h.node_mut(a).remaining = 2;
        h.node_mut(a).next = Some(SimTime::from_ms(25));
        h.run_until(SimTime::from_ms(40));
        assert_eq!(h.shard_router(0).seen.len(), before + 2);
    }

    #[test]
    fn node_mut_update_key_moves_deadlines_both_ways() {
        // The indexed heap's update-key after node_mut: pull a deadline
        // earlier, then push another one later, and check the service
        // times follow the *current* deadlines, not the originally
        // scheduled ones.
        let mut h = one_shard(Recorder { seen: Vec::new() }, 100);
        let a = add(&mut h, ticker(0, 50, 2));
        let b = add(&mut h, ticker(1, 60, 2));
        // Before anything fires: a jumps earlier, b is postponed.
        h.node_mut(a).next = Some(SimTime::from_ms(10));
        h.node_mut(b).next = Some(SimTime::from_ms(90));
        h.run_until(SimTime::from_ms(200));
        let seen = &h.shard_router(0).seen;
        assert_eq!(
            seen,
            &vec![
                (SimTime::from_ms(10), a),
                (SimTime::from_ms(60), a),
                (SimTime::from_ms(90), b),
                (SimTime::from_ms(150), b),
            ]
        );
    }

    /// A pathological router: echoes every event straight back as a
    /// command, and the component re-emits on handle — a same-instant
    /// livelock the guard must catch.
    struct Echo;
    struct Loop {
        armed: bool,
    }

    impl Component for Loop {
        type Cmd = u32;
        type Out = u32;
        fn next_deadline(&self) -> Option<SimTime> {
            self.armed.then(|| SimTime::from_ms(1))
        }
        fn advance(&mut self, _now: SimTime, sink: &mut Vec<u32>) {
            if self.armed {
                self.armed = false;
                sink.push(0);
            }
        }
        fn handle(&mut self, _now: SimTime, v: u32, sink: &mut Vec<u32>) {
            sink.push(v + 1);
        }
    }

    impl Router<Loop> for Echo {
        fn route(&mut self, _now: SimTime, src: NodeId, event: u32, sink: &mut CmdSink<u32>) {
            sink.push(src, event);
        }
    }

    impl MergeTelemetry for Echo {
        fn publish_merged(_parts: &[&Self], _reg: &mut Registry) {}
    }

    #[test]
    fn cascade_overflow_is_a_typed_error_and_poisons() {
        let mut h = one_shard(Echo, 50);
        let n = add(&mut h, Loop { armed: true });
        let err = h.try_run_until(SimTime::from_secs(1)).unwrap_err();
        assert_eq!(err.node(), n);
        assert_eq!(err.at(), SimTime::from_ms(1));
        assert_eq!(err.steps(), 51);
        assert_eq!(h.failure(), Some(err));
        // Poisoned: further runs report the same failure.
        assert_eq!(h.try_run_until(SimTime::from_secs(2)), Err(err));
        let msg = err.to_string();
        assert!(msg.contains("node 0") && msg.contains("51"), "{msg}");
    }

    #[test]
    #[should_panic(expected = "cascade guard tripped")]
    fn run_until_panics_on_overflow() {
        let mut h = one_shard(Echo, 10);
        add(&mut h, Loop { armed: true });
        h.run_until(SimTime::from_secs(1));
    }

    /// A ticker variant that publishes its fire count.
    impl crate::telemetry::Instrument for Ticker {
        fn publish(&self, scope: &mut crate::telemetry::Scope<'_>) {
            scope.counter("remaining", u64::from(self.remaining));
            scope.counter("period_ns", self.period.as_ns());
        }
    }

    struct Published(Ticker);
    impl Component for Published {
        type Cmd = u32;
        type Out = u32;
        fn next_deadline(&self) -> Option<SimTime> {
            self.0.next_deadline()
        }
        fn advance(&mut self, now: SimTime, sink: &mut Vec<u32>) {
            self.0.advance(now, sink);
        }
        fn handle(&mut self, now: SimTime, extra: u32, sink: &mut Vec<u32>) {
            self.0.handle(now, extra, sink);
        }
        fn publish_telemetry(&self, scope: &mut crate::telemetry::Scope<'_>) {
            use crate::telemetry::Instrument as _;
            self.0.publish(scope);
        }
    }

    impl Router<Published> for Recorder {
        fn route(&mut self, now: SimTime, src: NodeId, _event: u32, _sink: &mut CmdSink<u32>) {
            self.seen.push((now, src));
        }
    }

    #[test]
    fn collect_telemetry_mounts_nodes_under_labels() {
        let mut h = one_shard(Recorder { seen: Vec::new() }, 100);
        h.add_node_labeled(Published(ticker(0, 10, 2)), "tick.a", 0, false);
        add(&mut h, Published(ticker(1, 10, 2))); // labelled node1
        h.run_until(SimTime::from_ms(100));
        let reg = h.collect_telemetry();
        assert_eq!(reg.counter_value("tick.a.remaining"), Some(0));
        assert_eq!(reg.counter_value("node1.period_ns"), Some(10_000_000));
        assert_eq!(reg.counter_value("router.routed"), Some(4));
        assert_eq!(reg.counter_value("sim.nodes"), Some(2));
        assert_eq!(reg.counter_value("sim.cascade.overflows"), Some(0));
        // Re-collection is idempotent on a quiescent harness.
        let a = h.telemetry_json();
        let b = h.telemetry_json();
        assert_eq!(a, b);
    }

    #[test]
    fn phase_snapshots_capture_per_phase_state() {
        let mut h = one_shard(Recorder { seen: Vec::new() }, 100);
        h.add_node_labeled(Published(ticker(0, 10, 4)), "t", 0, false);
        h.run_until(SimTime::from_ms(20));
        h.snapshot_phase("warmup");
        h.run_until(SimTime::from_ms(100));
        h.collect_telemetry();
        let reg = h.telemetry();
        use crate::telemetry::Value;
        assert_eq!(
            reg.phase("warmup")
                .and_then(|m| match m.get("t.remaining") {
                    Some(Value::Counter(c)) => Some(*c),
                    _ => None,
                }),
            Some(2)
        );
        assert_eq!(reg.counter_value("t.remaining"), Some(0));
    }

    #[test]
    fn cascade_overflow_leaves_a_telemetry_trail() {
        let mut h = one_shard(Echo, 50);
        let n = add(&mut h, Loop { armed: true });
        let err = h.try_run_until(SimTime::from_secs(1)).unwrap_err();
        let reg = h.telemetry();
        // The edge-signal event names the failing instant and node.
        assert_eq!(reg.events().len(), 1);
        assert_eq!(reg.events()[0].at, err.at());
        assert_eq!(reg.events()[0].path, "sim.cascade.overflow");
        assert!(reg.events()[0].detail.contains(&format!("{n}")));
        // A final snapshot froze the metric tree at the failure.
        let snap = reg.phase("cascade-failure").expect("final snapshot");
        assert!(matches!(
            snap.get("sim.cascade.overflows"),
            Some(crate::telemetry::Value::Counter(1))
        ));
        // The trail also serializes.
        assert!(h.telemetry_json().contains("cascade-failure"));
    }
}
