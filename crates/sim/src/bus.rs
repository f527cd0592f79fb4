//! The scheduler / event bus: the "motherboard" pattern as reusable
//! infrastructure.
//!
//! Historically every testbed in `ctms-core` hand-wrote the same loop:
//! poll each component for its next deadline, advance whichever is due,
//! and route the emitted events between components with a cascade guard.
//! [`Harness`] owns that loop once:
//!
//! * components register into a [`NodeId`]-addressable registry,
//! * a central deadline scheduler (an indexed d-ary min-heap keyed by
//!   `(SimTime, NodeId)`, see [`crate::heap::IndexedHeap`]) picks the
//!   next instant and services due nodes in registration order — so runs
//!   remain bit-deterministic and exactly reproduce the fixed advance
//!   order of the old hand-rolled loops,
//! * a [`Router`] supplied by the caller turns each emitted event into
//!   commands for other nodes, pushed into a harness-owned [`CmdSink`];
//!   same-instant cascades are bounded by the built-in guard, which
//!   reports a typed [`CascadeError`] instead of tearing the simulation
//!   down.
//!
//! # The zero-allocation hot path
//!
//! The paper's whole argument is that throughput is won by deleting
//! per-packet CPU work from the data path (§2 removes two of four
//! copies; §4 keeps DMA off the system bus). The scheduler holds itself
//! to the same discipline: in steady state, servicing an event performs
//! **zero heap allocations**.
//!
//! * The indexed heap keeps exactly one entry per node and supports
//!   update-key in place, so rescheduling never pushes garbage entries
//!   and `peek`/`pop` never discard stale ones.
//! * Routing pushes into a reusable [`CmdSink`]; the wave, due-list,
//!   touched-list, and per-node output buffers all live in the harness
//!   and retain their capacity across steps.
//!
//! `cargo test -p ctms-sim --features alloc-count --test zero_alloc`
//! proves the claim with a counting global allocator, and the
//! `ctms-bench` `perf` binary measures the resulting events/sec.

//! The harness also owns the run's [`telemetry::Registry`]: every node
//! (and the router) registers its statistics under a dotted namespace
//! on demand via [`Harness::collect_telemetry`], phases can be frozen
//! with [`Harness::snapshot_phase`], and a tripped cascade guard leaves
//! a diagnosable trail — an edge-signal event plus a final
//! `cascade-failure` snapshot — instead of only an error value.

use crate::engine::Component;
use crate::heap::IndexedHeap;
use crate::persist::{ChunkedWriter, Dec, Persist, PersistError, UnitReader};
use crate::telemetry::Registry;
use crate::time::SimTime;

/// Registry handle of a node in a [`Harness`]; assigned densely in
/// registration order, which is also the service order on deadline ties.
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
    /// capacity. Schedulers built on top of the harness machinery (the
    /// sharded engine) consume routed commands through this.
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

    /// Registers the router's own statistics (absorbed measurement
    /// traffic, wiring-level counters) into the telemetry tree. Called by
    /// [`Harness::collect_telemetry`] after every node has published.
    fn publish_telemetry(&self, reg: &mut Registry) {
        let _ = reg;
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

/// The generic scheduler/event-bus. See the module docs.
pub struct Harness<C: Component, R: Router<C>> {
    nodes: Vec<C>,
    labels: Vec<String>,
    router: R,
    now: SimTime,
    heap: IndexedHeap,
    limit: u32,
    failed: Option<CascadeError>,
    dirty: Vec<usize>,
    telemetry: Registry,
    /// Component activations (advances + delivered commands) so far.
    events: u64,
    // Reusable hot-path buffers: drained every step, capacity retained,
    // so steady-state stepping performs no heap allocation.
    due: Vec<usize>,
    touched: Vec<usize>,
    wave: Vec<(NodeId, C::Out)>,
    next_wave: Vec<(NodeId, C::Out)>,
    out_buf: Vec<C::Out>,
    cmds: CmdSink<C::Cmd>,
    batch: Vec<C::Out>,
    /// Per-node visit stamps for O(1) dedup in `reschedule_touched`
    /// (node k was visited iff `stamp[k] == epoch`).
    stamp: Vec<u64>,
    epoch: u64,
}

/// Default same-instant cascade step limit.
pub const DEFAULT_CASCADE_LIMIT: u32 = 100_000;

impl<C: Component, R: Router<C>> Harness<C, R> {
    /// Creates an empty harness around `router` with the given
    /// same-instant cascade step limit.
    pub fn new(router: R, cascade_limit: u32) -> Self {
        assert!(cascade_limit > 0, "cascade limit must be positive");
        Harness {
            nodes: Vec::new(),
            labels: Vec::new(),
            router,
            now: SimTime::ZERO,
            heap: IndexedHeap::new(),
            limit: cascade_limit,
            failed: None,
            dirty: Vec::new(),
            telemetry: Registry::new(),
            events: 0,
            due: Vec::new(),
            touched: Vec::new(),
            wave: Vec::new(),
            next_wave: Vec::new(),
            out_buf: Vec::new(),
            cmds: CmdSink::new(),
            batch: Vec::new(),
            stamp: Vec::new(),
            epoch: 0,
        }
    }

    /// Registers a node and schedules its current deadline. The node's
    /// telemetry namespace defaults to `node{k}`; use
    /// [`Harness::add_node_labeled`] to mount it elsewhere.
    pub fn add_node(&mut self, node: C) -> NodeId {
        let label = format!("node{}", self.nodes.len());
        self.add_node_labeled(node, label)
    }

    /// Registers a node under an explicit dotted telemetry namespace
    /// (e.g. `tokenring.ring0`, `unixkern.h1`).
    pub fn add_node_labeled(&mut self, node: C, label: impl Into<String>) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(node);
        self.labels.push(label.into());
        self.stamp.push(0);
        self.reschedule(id.0);
        id
    }

    /// Number of registered nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when no nodes are registered.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Component activations (deadline advances plus delivered commands)
    /// serviced so far — the numerator of the `perf` harness's
    /// events/sec figure. Not published as telemetry (the metric tree is
    /// pinned by golden digests); purely a scheduler-throughput counter.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Shared access to a node.
    pub fn node(&self, id: NodeId) -> &C {
        &self.nodes[id.0]
    }

    /// Mutable access to a node. The node is conservatively rescheduled
    /// before the next step, since the caller may change its deadline.
    pub fn node_mut(&mut self, id: NodeId) -> &mut C {
        self.dirty.push(id.0);
        &mut self.nodes[id.0]
    }

    /// Shared access to the router.
    pub fn router(&self) -> &R {
        &self.router
    }

    /// Mutable access to the router.
    pub fn router_mut(&mut self) -> &mut R {
        &mut self.router
    }

    /// The error that poisoned this harness, if a cascade overflowed.
    pub fn failure(&self) -> Option<CascadeError> {
        self.failed
    }

    /// The run's telemetry registry as last collected (events and phase
    /// snapshots accumulate live; metrics are rebuilt by
    /// [`Harness::collect_telemetry`]).
    pub fn telemetry(&self) -> &Registry {
        &self.telemetry
    }

    /// Rebuilds the metric tree by pulling every node's instruments
    /// (each under its registration label), the router's, and the
    /// harness's own `sim.*` metrics, then returns the registry for
    /// further additions or serialization. Deterministic: nodes publish
    /// in registration order into a path-ordered tree.
    pub fn collect_telemetry(&mut self) -> &mut Registry {
        self.telemetry.clear_metrics();
        for (k, node) in self.nodes.iter().enumerate() {
            let mut scope = self.telemetry.scope(&self.labels[k]);
            node.publish_telemetry(&mut scope);
        }
        self.router.publish_telemetry(&mut self.telemetry);
        let mut sim = self.telemetry.scope("sim");
        sim.gauge("now_ns", self.now.as_ns() as i64);
        sim.counter("nodes", self.nodes.len() as u64);
        sim.counter("cascade.overflows", u64::from(self.failed.is_some()));
        &mut self.telemetry
    }

    /// Collects the current metric tree and freezes it as a named phase
    /// snapshot (serialized with the registry).
    pub fn snapshot_phase(&mut self, name: impl Into<String>) {
        self.collect_telemetry();
        self.telemetry.snapshot_phase(name);
    }

    /// Collects and serializes the registry as canonical JSON.
    pub fn telemetry_json(&mut self) -> String {
        self.collect_telemetry();
        self.telemetry.to_json()
    }

    /// Records the diagnosable trail of a cascade overflow: an
    /// edge-signal event at the failing instant plus a final
    /// `cascade-failure` phase snapshot of every metric. A blown run
    /// thus leaves the state the §5.2.1 operators would have examined,
    /// not just an error value.
    fn record_failure(&mut self, err: CascadeError) {
        self.telemetry
            .event(err.at(), "sim.cascade.overflow", err.event_detail());
        self.snapshot_phase("cascade-failure");
    }

    /// Delivers `cmd` to `id` at the current instant and routes the
    /// resulting cascade, exactly as if the command had been produced by
    /// the router mid-run.
    pub fn inject(&mut self, id: NodeId, cmd: C::Cmd) -> Result<(), CascadeError> {
        if let Some(e) = self.failed {
            return Err(e);
        }
        let now = self.now;
        debug_assert!(self.out_buf.is_empty() && self.wave.is_empty());
        self.events += 1;
        self.nodes[id.0].handle(now, cmd, &mut self.out_buf);
        while let Some(e) = self.out_buf.pop() {
            self.wave.push((id, e));
        }
        self.wave.reverse();
        self.touched.clear();
        self.touched.push(id.0);
        let result = self.cascade(now);
        self.reschedule_touched();
        result
    }

    /// Runs until no node has a deadline at or before `horizon`, then
    /// leaves the clock at `horizon`. Returns a [`CascadeError`] (and
    /// poisons the harness) if a same-instant cascade never converges;
    /// the simulation state up to the failing instant remains readable.
    pub fn try_run_until(&mut self, horizon: SimTime) -> Result<(), CascadeError> {
        if let Some(e) = self.failed {
            return Err(e);
        }
        self.flush_dirty();
        while let Some(t) = self.peek_deadline() {
            if t > horizon {
                break;
            }
            debug_assert!(t >= self.now, "time went backwards");
            self.now = t;
            self.pop_due(t);
            self.touched.clear();
            self.touched.extend_from_slice(&self.due);
            debug_assert!(self.wave.is_empty() && self.out_buf.is_empty());
            for i in 0..self.due.len() {
                let n = self.due[i];
                self.events += 1;
                self.nodes[n].advance(t, &mut self.out_buf);
                for e in self.out_buf.drain(..) {
                    self.wave.push((NodeId(n), e));
                }
            }
            let result = self.cascade(t);
            self.reschedule_touched();
            result?;
        }
        if self.now < horizon {
            self.now = horizon;
        }
        Ok(())
    }

    /// Like [`Harness::try_run_until`] but panics on cascade overflow
    /// (for callers that treat it as the bug it is).
    pub fn run_until(&mut self, horizon: SimTime) {
        if let Err(e) = self.try_run_until(horizon) {
            panic!("{e}");
        }
    }

    /// Streams the harness's dynamic state into `w` — clock, event
    /// counter, every node in registration order, and the telemetry
    /// event/phase history; see [`persist_harness`] for the framing.
    /// The scheduler heap is *not* encoded: it is a pure function of
    /// node deadlines and is rebuilt on restore. The router is also not
    /// encoded; the topology layer that owns its concrete type persists
    /// it after this call.
    ///
    /// Must be called at a quiescent instant (after `try_run_until`
    /// returned), when every scratch buffer is drained.
    pub fn persist_state(&self, w: &mut ChunkedWriter<'_>) -> Result<(), PersistError>
    where
        C: Persist,
    {
        debug_assert!(self.wave.is_empty() && self.out_buf.is_empty());
        persist_harness(w, self.now, self.events, self.nodes.iter(), &self.telemetry)
    }

    /// Applies state written by [`Harness::persist_state`] (or by the
    /// sharded harness — the formats are identical) onto this freshly
    /// rebuilt harness (same topology, same registration order). Every
    /// node is conservatively marked dirty so the scheduler re-keys it
    /// from its restored deadline before the next step.
    pub fn restore_state(&mut self, r: &mut UnitReader<'_>) -> Result<(), PersistError>
    where
        C: Persist,
    {
        check_not_poisoned(self.failed)?;
        let (now, events) = restore_harness(r, self.nodes.len(), &mut self.telemetry, |i, dec| {
            self.nodes[i].restore(dec)?;
            self.dirty.push(i);
            Ok(())
        })?;
        self.now = now;
        self.events = events;
        Ok(())
    }

    /// Re-syncs the scheduler entry of every node recorded in `touched`,
    /// deduplicated by epoch stamp in O(len) — no sort, no allocation.
    /// First-touch order is fine: the indexed heap's update-key is
    /// order-independent.
    fn reschedule_touched(&mut self) {
        self.epoch += 1;
        let epoch = self.epoch;
        for i in 0..self.touched.len() {
            let n = self.touched[i];
            if self.stamp[n] != epoch {
                self.stamp[n] = epoch;
                self.reschedule(n);
            }
        }
        self.touched.clear();
    }

    /// Syncs the scheduler with the node's current deadline: an
    /// in-place update-key on the indexed heap.
    fn reschedule(&mut self, node: usize) {
        let at = self.nodes[node].next_deadline();
        self.heap.set(node, at);
    }

    fn flush_dirty(&mut self) {
        while let Some(n) = self.dirty.pop() {
            self.reschedule(n);
        }
    }

    /// The earliest scheduled deadline. The indexed heap's root is
    /// always current.
    fn peek_deadline(&self) -> Option<SimTime> {
        let (at, node) = self.heap.peek()?;
        debug_assert_eq!(
            self.nodes[node].next_deadline(),
            Some(at),
            "indexed heap out of sync with node {node}"
        );
        Some(at)
    }

    /// Fills `self.due` with every node scheduled at exactly `t`, in
    /// NodeId order (the heap yields ties in that order by construction).
    fn pop_due(&mut self, t: SimTime) {
        self.due.clear();
        while let Some((at, node)) = self.heap.peek() {
            if at > t {
                break;
            }
            self.heap.pop();
            self.due.push(node);
        }
    }

    /// Routes `self.wave` breadth-first at `now` until it drains,
    /// recording every commanded node in `self.touched`. Each iteration
    /// of the outer loop is one guard step, matching the wave accounting
    /// of the old per-testbed loops.
    fn cascade(&mut self, now: SimTime) -> Result<(), CascadeError> {
        let mut steps = 0u32;
        while !self.wave.is_empty() {
            steps += 1;
            if steps > self.limit {
                let err = CascadeError::overflow(now, self.wave[0].0, steps);
                self.failed = Some(err);
                self.wave.clear();
                self.next_wave.clear();
                self.cmds.clear();
                self.record_failure(err);
                return Err(err);
            }
            // Drain the wave in runs of consecutive same-source events,
            // entering the router once per run. Routing order and
            // delivery order are exactly the per-event loop's (the router
            // never reads node state and commands drain in push order),
            // so batching is bit-identical — only cheaper.
            let mut wave = std::mem::take(&mut self.wave);
            let mut iter = wave.drain(..).peekable();
            while let Some((src, event)) = iter.next() {
                debug_assert!(self.cmds.is_empty());
                match iter.peek() {
                    Some((s, _)) if *s == src => {
                        debug_assert!(self.batch.is_empty());
                        self.batch.push(event);
                        while let Some((s, _)) = iter.peek() {
                            if *s != src {
                                break;
                            }
                            let (_, e) = iter.next().expect("peeked entry");
                            self.batch.push(e);
                        }
                        self.router
                            .route_all(now, src, &mut self.batch, &mut self.cmds);
                        self.batch.clear();
                    }
                    // Singleton run — the common case on sparse
                    // workloads — skips the batch buffer entirely.
                    _ => self.router.route(now, src, event, &mut self.cmds),
                }
                for (dst, cmd) in self.cmds.buf.drain(..) {
                    self.events += 1;
                    self.nodes[dst.0].handle(now, cmd, &mut self.out_buf);
                    self.touched.push(dst.0);
                    for e in self.out_buf.drain(..) {
                        self.next_wave.push((dst, e));
                    }
                }
            }
            drop(iter);
            self.wave = wave;
            std::mem::swap(&mut self.wave, &mut self.next_wave);
        }
        Ok(())
    }
}

/// Refuses a restore into a harness a cascade failure has poisoned.
pub(crate) fn check_not_poisoned(failed: Option<CascadeError>) -> Result<(), PersistError> {
    match failed {
        Some(e) => Err(PersistError::mismatch(format!(
            "cannot restore into a poisoned harness: {e}"
        ))),
        None => Ok(()),
    }
}

/// The harness checkpoint body both engines share, so their streams
/// are interchangeable. Framing: clock, event counter and node count
/// close the first chunk (together with whatever header the caller
/// already buffered); nodes then pack greedily, each chunk holding
/// whole nodes in global registration order; the telemetry history is
/// flushed as its own chunk.
pub(crate) fn persist_harness<'n, C: Persist + 'n>(
    w: &mut ChunkedWriter<'_>,
    now: SimTime,
    events: u64,
    nodes: impl ExactSizeIterator<Item = &'n C>,
    telemetry: &Registry,
) -> Result<(), PersistError> {
    let enc = w.enc();
    enc.time(now);
    enc.u64(events);
    enc.seq_len(nodes.len());
    w.flush_chunk()?;
    for node in nodes {
        node.persist(w.enc());
        w.unit()?;
    }
    w.flush_chunk()?;
    telemetry.persist(w.enc());
    w.flush_chunk()
}

/// Decodes what [`persist_harness`] wrote: checks the node count
/// against `n_nodes`, hands node `i`'s unit to `restore_node(i, dec)`,
/// restores `telemetry`, and returns the persisted `(now, events)`.
pub(crate) fn restore_harness(
    r: &mut UnitReader<'_>,
    n_nodes: usize,
    telemetry: &mut Registry,
    mut restore_node: impl FnMut(usize, &mut Dec<'_>) -> Result<(), PersistError>,
) -> Result<(SimTime, u64), PersistError> {
    // A bare u32, not `seq_len`: in a stream the node payloads live in
    // later chunks, so the remaining-bytes bound would misfire.
    let (now, events, n) = r.unit(|d| Ok((d.time()?, d.u64()?, d.u32()? as usize)))?;
    if n != n_nodes {
        return Err(PersistError::mismatch(format!(
            "checkpoint has {n} nodes, rebuilt harness has {n_nodes}"
        )));
    }
    for i in 0..n {
        r.unit(|dec| restore_node(i, dec))?;
    }
    r.unit(|dec| telemetry.restore(dec))?;
    Ok((now, events))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Dur;

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
        let mut h = Harness::new(Recorder { seen: Vec::new() }, 100);
        let c = h.add_node(ticker(2, 10, 4));
        let a = h.add_node(ticker(0, 10, 4));
        let b = h.add_node(ticker(1, 10, 4));
        h.run_until(SimTime::from_ms(100));
        let seen = &h.router().seen;
        assert_eq!(seen.len(), 12);
        for (k, chunk) in seen.chunks(3).enumerate() {
            let t = SimTime::from_ms(10 * (k as u64 + 1));
            assert_eq!(chunk, [(t, c), (t, a), (t, b)], "instant {t}");
        }
    }

    #[test]
    fn rescheduling_keeps_single_node_fifo() {
        let mut h = Harness::new(Recorder { seen: Vec::new() }, 100);
        let a = h.add_node(ticker(0, 7, 3));
        h.run_until(SimTime::from_secs(1));
        assert_eq!(
            h.router().seen,
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
        let mut h = Harness::new(Recorder { seen: Vec::new() }, 100);
        let a = h.add_node(ticker(0, 5, 1));
        h.run_until(SimTime::from_ms(100));
        assert_eq!(h.router().seen.len(), 1);
        h.inject(a, 2).unwrap();
        h.run_until(SimTime::from_ms(200));
        assert_eq!(h.router().seen.len(), 3);
        assert_eq!(h.router().seen[2].0, SimTime::from_ms(110));
    }

    #[test]
    fn node_mut_reschedules_external_changes() {
        let mut h = Harness::new(Recorder { seen: Vec::new() }, 100);
        let a = h.add_node(ticker(0, 5, 1));
        // One fire at 5 ms, then the node goes idle (no deadline).
        h.run_until(SimTime::from_ms(20));
        let before = h.router().seen.len();
        assert_eq!(before, 1);
        h.node_mut(a).remaining = 2;
        h.node_mut(a).next = Some(SimTime::from_ms(25));
        h.run_until(SimTime::from_ms(40));
        assert_eq!(h.router().seen.len(), before + 2);
    }

    #[test]
    fn node_mut_update_key_moves_deadlines_both_ways() {
        // The indexed heap's update-key after node_mut: pull a deadline
        // earlier, then push another one later, and check the service
        // times follow the *current* deadlines, not the originally
        // scheduled ones.
        let mut h = Harness::new(Recorder { seen: Vec::new() }, 100);
        let a = h.add_node(ticker(0, 50, 2));
        let b = h.add_node(ticker(1, 60, 2));
        // Before anything fires: a jumps earlier, b is postponed.
        h.node_mut(a).next = Some(SimTime::from_ms(10));
        h.node_mut(b).next = Some(SimTime::from_ms(90));
        h.run_until(SimTime::from_ms(200));
        let seen = &h.router().seen;
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

    #[test]
    fn cascade_overflow_is_a_typed_error_and_poisons() {
        let mut h = Harness::new(Echo, 50);
        let n = h.add_node(Loop { armed: true });
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
        let mut h = Harness::new(Echo, 10);
        h.add_node(Loop { armed: true });
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
        fn publish_telemetry(&self, reg: &mut crate::telemetry::Registry) {
            reg.counter("router.routed", self.seen.len() as u64);
        }
    }

    #[test]
    fn collect_telemetry_mounts_nodes_under_labels() {
        let mut h = Harness::new(Recorder { seen: Vec::new() }, 100);
        h.add_node_labeled(Published(ticker(0, 10, 2)), "tick.a");
        h.add_node(Published(ticker(1, 10, 2))); // default label node1
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
        let mut h = Harness::new(Recorder { seen: Vec::new() }, 100);
        h.add_node_labeled(Published(ticker(0, 10, 4)), "t");
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
        let mut h = Harness::new(Echo, 50);
        let n = h.add_node(Loop { armed: true });
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
