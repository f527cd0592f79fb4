//! The scheduler: one conservative engine for every run.
//!
//! [`Harness`] owns the advance-and-route loop every testbed used to
//! hand-write. Components register into a [`NodeId`]-addressable
//! registry; each node belongs to one **shard**, and each shard keeps
//! an indexed deadline heap (see [`crate::heap::IndexedHeap`]), its own
//! [`Router`] and reusable scratch buffers. A run services instants in
//! time order and, within an instant, due nodes in registration order,
//! then routes their events breadth-first through the same-instant
//! cascade, bounded by a guard that reports a typed [`CascadeError`].
//!
//! A topology that cannot, or need not, be partitioned runs as **one
//! shard**: every node local, no sync-class node, no mail, one window
//! per run on the calling thread. Several shards run under an adaptive
//! conservative window protocol (the caller supplies the partition —
//! `ctms-core` cuts the ring graph into balanced parts):
//!
//! * A small set of nodes is declared **sync-class** at registration —
//!   in `ctms-core` these are the bridges whose port rings landed in
//!   different shards. Only sync nodes may emit commands that cross a
//!   shard boundary.
//! * Every cut edge `o → k` carries a **lookahead**: a lower bound on
//!   the time between a command entering a sync node of shard `o` and
//!   any consequence emerging from it into shard `k` (for a bridge, its
//!   fixed forwarding latency). From each shard's earliest pending
//!   instant and earliest sync deadline, the coordinator computes per
//!   shard the earliest instant any other shard could still affect it
//!   (an influence fixpoint, see `adaptive_bounds`). Every shard then
//!   runs **independently** over all of its instants strictly before
//!   that bound, so the shards' interleaving is irrelevant — the result
//!   is the one a single shard would compute. Mail a sync node emits
//!   inside a window waits in the receiver's sorted pending queue and is
//!   delivered when the receiver's clock reaches the emission instant.
//! * When no shard can make progress (every bound collapses onto the
//!   global minimum `T`), the harness runs a **sync instant**: every
//!   shard due at `T` advances, and cross-shard commands are exchanged
//!   in repeated rounds until no mail is in flight, each round
//!   delivering through the same pending queues windows use. A command
//!   injected from outside ([`Harness::inject`]) takes the same rounds.
//! * Every outbox flush sorts the receiving pending queue with
//!   [`merge_mail`] into [`MailKey`] order (`(time, src_shard, seq)` —
//!   a total order, so delivery is deterministic no matter which shard
//!   emitted first).
//!
//! * **Runahead.** Each shard's window also ends at most a span `S`
//!   past its own earliest instant, with `S = max(2λ, F_s / ρ)`: `λ` is
//!   the smallest cut-edge lookahead, `ρ` the events per simulated
//!   nanosecond per shard serviced so far and `F_s`
//!   ([`RUNAHEAD_MIN_EVENTS`]) a floor on a window's events. An
//!   upstream shard therefore simulates span `k + 1` while the shards
//!   it feeds simulate span `k`, instead of running a whole run call
//!   alone first; and the mail one shard buffers for another covers at
//!   most about `S + λ` of simulated time, however long the run call.
//!   Both inputs are deterministic, so the window schedule repeats, and
//!   the cap only ever shrinks a window, so soundness rests on the
//!   fixpoint bound alone.
//!
//! Sync instants and mail rounds run on the calling thread, shard after
//! shard in shard order, and so does every window unless it is fat: a
//! window whose active shards (at least two) each serviced at least
//! `F_d` ([`DISPATCH_MIN_EVENTS`]) events in their previous window runs
//! on long-lived workers, one per shard past the first up to the core
//! count minus one, while the caller runs shard 0 and any shard without
//! a worker. A worker is spawned at its harness's first dispatched
//! window and joined when the harness drops; a dispatch publishes the
//! window end, bumps a generation counter and unparks the worker, which
//! spins briefly before it parks again, and the caller waits on a
//! completion counter. Nothing allocates per window, and a panic inside
//! a worker's window is re-raised on the caller. A thin window stays on
//! the caller: its handoff would cost more than it holds (DESIGN.md
//! §13 derives both floors from measured costs).
//!
//! Determinism is the contract: the shard count may change the wall
//! clock, never the answer. The tier-1 parity tests pin byte-identical
//! telemetry at 1, 2 and 4 shards against golden digests and against
//! references recorded from the sequential engine this one replaced
//! (DESIGN.md §14).
//!
//! A node that is not sync-class and emits a cross-shard command inside
//! a window has violated the lookahead contract (the partition put
//! tightly coupled nodes in different shards); the harness poisons
//! itself with a typed [`CascadeError::CrossShard`] rather than silently
//! diverging.
//!
//! # The zero-allocation hot path
//!
//! The paper's whole argument is that throughput is won by deleting
//! per-packet CPU work from the data path (§2 removes two of four
//! copies; §4 keeps DMA off the system bus). The scheduler holds itself
//! to the same discipline: in steady state, servicing an event performs
//! **zero heap allocations**. The indexed heap keeps one entry per node
//! with update-key in place; the wave, due, touched and mail buffers
//! retain their capacity across steps; and a node's outputs go straight
//! into the wave, tagged with its id by the closure
//! [`Sink`](crate::engine::Sink) the shard passes to its `advance` or
//! `handle`, with no buffer of their own.
//! `tests/zero_alloc.rs` and `tests/zero_alloc_sharded.rs` prove it at
//! one and at two shards with a counting global allocator.
//!
//! # Telemetry
//!
//! The harness owns the run's [`Registry`]: every node (and, through
//! [`MergeTelemetry`], the shard routers) registers its statistics
//! under a dotted namespace on demand via [`Harness::collect_telemetry`],
//! phases can be frozen with [`Harness::snapshot_phase`], and a tripped
//! cascade guard leaves a diagnosable trail — an edge-signal event plus
//! a final `cascade-failure` snapshot — instead of only an error value.
//! Execution counters that vary with the shard count live apart, in
//! [`Harness::exec_telemetry`].

use crate::bus::{CascadeError, CmdSink, NodeId, Router};
use crate::engine::Component;
use crate::heap::IndexedHeap;
use crate::persist::{Dec, Enc, Persist, PersistError};
use crate::telemetry::Registry;
use crate::time::{Dur, SimTime};
use std::any::Any;
use std::borrow::Cow;
use std::fmt::Write as _;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// `F_s`: the events per shard a window should carry at least. The
/// runahead span grows past `2λ` until a window holds this many at the
/// run's average rate, so the coordinator's 320–360 ns per window stays
/// under about 2% of a window's work at 350–440 ns per event.
pub const RUNAHEAD_MIN_EVENTS: u64 = 64;

/// `F_d`: the events each active shard must have serviced in its
/// previous window before a window runs on workers. At 350–440 ns per
/// event that is 90–113 µs of work per shard: a parked worker's wake-up
/// round trip (5.0–20.7 µs) costs at most about a fifth of it, and even
/// a harness's first dispatch, which spawns the worker (38–53 µs), is
/// repaid within the window. It sits well above `F_s`, so windows the
/// runahead floor alone sizes stay on the caller.
pub const DISPATCH_MIN_EVENTS: u64 = 4 * RUNAHEAD_MIN_EVENTS;

/// How long a waiting thread spins before it blocks: no longer than a
/// parked wake-up round trip (5.0–20.7 µs), so spinning first never
/// costs much more than blocking at once would have.
const SPIN_FOR: Duration = Duration::from_micros(10);

/// The generation that tells a worker to exit.
const SHUTDOWN: u64 = u64::MAX;

/// The machine's parallelism, asked of the OS once per process and only
/// when a window is fat enough to dispatch.
fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Merge key of one cross-shard command: commands are delivered in
/// ascending `(at, src_shard, seq)` order. `seq` is a per-source-shard
/// monotonic counter, so keys are globally unique and the order is
/// total — two runs always deliver the same mail in the same order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MailKey {
    /// The instant the command was emitted (and is delivered).
    pub at: SimTime,
    /// The emitting shard.
    pub src_shard: u32,
    /// Emission sequence number within the source shard.
    pub seq: u64,
}

/// Sorts a merged mailbox into delivery order.
///
/// The sort is **stable** on the full [`MailKey`], so entries with
/// equal keys (impossible in the engine — `seq` is unique per source —
/// but representable) keep their push order; the property test in this
/// module enumerates permutations to pin both totality and stability.
pub fn merge_mail<T>(mail: &mut [(MailKey, T)]) {
    mail.sort_by_key(|m| m.0);
}

/// Per-shard execution counters, published under `sched.shard{k}` by
/// [`Harness::exec_telemetry`]. Kept out of the simulation's own
/// registry so the telemetry tree stays byte-identical at every shard
/// count (golden digests must not depend on it).
#[derive(Clone, Copy, Debug, Default)]
pub struct ShardStats {
    /// Windows in which this shard advanced at least one node.
    pub window_advances: u64,
    /// Windows this shard sat out (no deadline inside the window).
    pub idle_windows: u64,
    /// Cross-shard commands this shard emitted.
    pub mailbox_sent: u64,
    /// Cross-shard commands this shard received.
    pub mailbox_recv: u64,
    /// Component activations (advances + delivered commands) serviced.
    pub events: u64,
}

/// One cross-shard command in flight: key, then `(dst, cmd)` payload —
/// shaped so the engine merges through the same [`merge_mail`] the
/// property tests pin.
type Mail<Cmd> = (MailKey, (NodeId, Cmd));

/// Cross-shard emission policy for one cascade, by protocol phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Cross {
    /// A lone shard's window: every destination is local, so no
    /// command is looked up or mailed.
    Local,
    /// Window: sync-class sources may emit to the outbox (their
    /// lookahead contract bounds when the mail can matter); anything
    /// else is a protocol violation.
    SyncOnly,
    /// Sync instant: every cross-shard command goes to the outbox.
    Allow,
}

/// Global node id → (shard, local index) table; `None` at one shard,
/// where shard `idx` owns every node under its global index.
type Owner = Option<Arc<Vec<(u32, u32)>>>;

/// The (shard, local index) that owns global node `id`.
#[inline(always)]
fn locate(owner: &Owner, idx: u32, id: NodeId) -> (u32, u32) {
    match owner {
        None => (idx, id.0 as u32),
        Some(owner) => owner[id.0],
    }
}

/// One empty mail queue per shard — none at one shard, which never
/// mails (and builds faster without them).
fn mailboxes<M>(n_shards: usize) -> Vec<Vec<M>> {
    if n_shards > 1 {
        (0..n_shards).map(|_| Vec::new()).collect()
    } else {
        Vec::new()
    }
}

/// One shard: a slice of the node set with its own heap, router, and
/// reusable scratch buffers.
struct ShardState<C: Component, R> {
    idx: u32,
    /// Nodes local to this shard, in global registration order.
    nodes: Vec<C>,
    /// The harness's only shard: local and global indices coincide and
    /// nothing crosses a shard, so the two tables below stay empty.
    solo: bool,
    /// Local index → global [`NodeId`] (routers speak global ids).
    global_ids: Vec<NodeId>,
    /// Local index → is this a sync-class node?
    sync_local: Vec<bool>,
    /// True when any local node is sync-class; a shard without one
    /// skips the sync heap's upkeep.
    any_sync: bool,
    router: R,
    /// All local nodes, keyed by local index.
    heap: IndexedHeap,
    /// Sync-class nodes only, keyed by local index; `B` comes from here.
    sync_heap: IndexedHeap,
    /// Who owns each global node, shared by every shard.
    owner: Owner,
    now: SimTime,
    limit: u32,
    failed: Option<CascadeError>,
    dirty: Vec<usize>,
    events: u64,
    /// Events serviced in this shard's most recent window.
    window_events: u64,
    stats: ShardStats,
    /// Outgoing mail per destination shard, drained by the coordinator.
    outbox: Vec<Vec<Mail<C::Cmd>>>,
    /// Incoming mail not yet due: kept sorted in [`MailKey`] order,
    /// delivered when the shard's clock reaches each entry's emission
    /// instant.
    pending: Vec<Mail<C::Cmd>>,
    seq: u64,
    /// This shard's end for the current window, set by the
    /// coordinator right before the window runs.
    w_end: SimTime,
    // Reusable hot-path buffers: drained every step, capacity retained,
    // so steady-state stepping performs no heap allocation.
    due: Vec<usize>,
    touched: Vec<usize>,
    /// Node outputs tagged with their source, pushed here straight from
    /// each node's `advance`/`handle` through a closure sink.
    wave: Vec<(NodeId, C::Out)>,
    next_wave: Vec<(NodeId, C::Out)>,
    cmds: CmdSink<C::Cmd>,
    /// Per-node visit stamps for O(1) dedup in `reschedule_touched`.
    stamp: Vec<u64>,
    epoch: u64,
}

impl<C: Component, R: Router<C>> ShardState<C, R> {
    fn new(idx: u32, router: R, limit: u32, n_shards: usize) -> Self {
        ShardState {
            idx,
            nodes: Vec::new(),
            solo: n_shards == 1,
            global_ids: Vec::new(),
            sync_local: Vec::new(),
            any_sync: false,
            router,
            heap: IndexedHeap::new(),
            sync_heap: IndexedHeap::new(),
            owner: None,
            now: SimTime::ZERO,
            limit,
            failed: None,
            dirty: Vec::new(),
            events: 0,
            window_events: 0,
            stats: ShardStats::default(),
            outbox: mailboxes(n_shards),
            pending: Vec::new(),
            seq: 0,
            w_end: SimTime::ZERO,
            due: Vec::new(),
            touched: Vec::new(),
            wave: Vec::new(),
            next_wave: Vec::new(),
            cmds: CmdSink::new(),
            stamp: Vec::new(),
            epoch: 0,
        }
    }

    /// Makes room for `n` more nodes in every per-node table, so that
    /// registering them does not regrow (and over-allocate) any.
    fn reserve(&mut self, n: usize) {
        self.nodes.reserve_exact(n);
        self.stamp.reserve_exact(n);
        self.heap.reserve(n);
        if !self.solo {
            self.global_ids.reserve_exact(n);
            self.sync_local.reserve_exact(n);
        }
    }

    fn add_node(&mut self, node: C, global: NodeId, sync: bool) -> u32 {
        let local = self.nodes.len();
        self.nodes.push(node);
        if !self.solo {
            self.global_ids.push(global);
            self.sync_local.push(sync);
            self.any_sync |= sync;
        }
        self.stamp.push(0);
        self.reschedule(local);
        local as u32
    }

    /// The global id of local node `l`.
    #[inline(always)]
    fn global_id(&self, l: usize) -> NodeId {
        if self.solo {
            NodeId(l)
        } else {
            self.global_ids[l]
        }
    }

    /// Syncs both heaps with the node's current deadline: an in-place
    /// update-key on the indexed heap.
    fn reschedule(&mut self, local: usize) {
        let at = self.nodes[local].next_deadline();
        self.heap.set(local, at);
        if self.any_sync && self.sync_local[local] {
            self.sync_heap.set(local, at);
        }
    }

    /// Re-syncs the heaps for every node in `touched`, deduplicated by
    /// epoch stamp in O(len) — no sort, no allocation. First-touch order
    /// is fine: the indexed heap's update-key is order-independent. A
    /// due node still holds its slot, so its re-key is one in-place
    /// sift.
    #[inline(always)]
    fn reschedule_touched(&mut self) {
        self.epoch += 1;
        let epoch = self.epoch;
        for i in 0..self.touched.len() {
            let l = self.touched[i];
            if self.stamp[l] != epoch {
                self.stamp[l] = epoch;
                self.reschedule(l);
            }
        }
        self.touched.clear();
    }

    fn flush_dirty(&mut self) {
        while let Some(l) = self.dirty.pop() {
            self.reschedule(l);
        }
    }

    /// Earliest local deadline.
    fn peek(&self) -> Option<SimTime> {
        self.heap.peek().map(|(at, _)| at)
    }

    /// Earliest local sync-node deadline.
    fn peek_sync(&self) -> Option<SimTime> {
        self.sync_heap.peek().map(|(at, _)| at)
    }

    /// Emission instant of the earliest undelivered pending mail (the
    /// pending queue is kept sorted).
    fn peek_pending(&self) -> Option<SimTime> {
        self.pending.first().map(|m| m.0.at)
    }

    /// Routes `wave` breadth-first at `now` until it drains; each
    /// iteration of the outer loop is one guard step. Local commands
    /// are delivered immediately; cross-shard commands follow the
    /// [`Cross`] policy: outbox at sync instants and injections, outbox
    /// for sync-class sources inside windows, protocol violation
    /// otherwise.
    #[inline(always)]
    fn cascade(&mut self, now: SimTime, cross: Cross) -> Result<(), CascadeError> {
        let mut steps = 0u32;
        while !self.wave.is_empty() {
            steps += 1;
            if steps > self.limit {
                let err = CascadeError::overflow(now, self.wave[0].0, steps);
                self.failed = Some(err);
                self.wave.clear();
                self.next_wave.clear();
                self.cmds.clear();
                return Err(err);
            }
            'wave: for (src, event) in self.wave.drain(..) {
                debug_assert!(self.cmds.is_empty());
                self.router.route(now, src, event, &mut self.cmds);
                for (dst, cmd) in self.cmds.drain() {
                    let (os, ol) = match cross {
                        Cross::Local => (self.idx, dst.0 as u32),
                        _ => locate(&self.owner, self.idx, dst),
                    };
                    if os == self.idx {
                        let ol = ol as usize;
                        self.events += 1;
                        let next_wave = &mut self.next_wave;
                        self.nodes[ol].handle(now, cmd, &mut |e| next_wave.push((dst, e)));
                        self.touched.push(ol);
                    } else {
                        let sync_src = match cross {
                            Cross::Allow => true,
                            Cross::Local | Cross::SyncOnly => {
                                let (_, sl) = locate(&self.owner, self.idx, src);
                                self.sync_local[sl as usize]
                            }
                        };
                        if !sync_src {
                            // The partition split tightly coupled nodes
                            // or the lookahead overstates the link
                            // latency: a typed error, not a process kill.
                            self.failed = Some(CascadeError::CrossShard {
                                at: now,
                                src,
                                dst,
                                src_shard: self.idx,
                                dst_shard: os,
                            });
                            break 'wave;
                        }
                        self.seq += 1;
                        self.stats.mailbox_sent += 1;
                        let key = MailKey {
                            at: now,
                            src_shard: self.idx,
                            seq: self.seq,
                        };
                        self.outbox[os as usize].push((key, (dst, cmd)));
                    }
                }
            }
            if let Some(err) = self.failed {
                self.wave.clear();
                self.next_wave.clear();
                self.cmds.clear();
                return Err(err);
            }
            std::mem::swap(&mut self.wave, &mut self.next_wave);
        }
        Ok(())
    }

    /// Runs every local instant — heap deadlines *and* pending mail —
    /// strictly before `w_end` (the window body), one [`run_instant`]
    /// each; the loop re-enters the same instant if it scheduled new
    /// work there. Sync-class nodes may emit cross-shard mail
    /// throughout.
    ///
    /// [`run_instant`]: ShardState::run_instant
    fn run_window(&mut self, w_end: SimTime) {
        let before = self.events;
        // Two copies of the loop, each with its policy fixed at compile
        // time: a lone shard's skips every cross-shard check.
        if self.solo {
            self.run_window_as(w_end, Cross::Local);
        } else {
            self.run_window_as(w_end, Cross::SyncOnly);
        }
        self.window_events = self.events - before;
    }

    #[inline(always)]
    fn run_window_as(&mut self, w_end: SimTime, cross: Cross) {
        loop {
            let mail = match cross {
                Cross::Local => None,
                _ => self.peek_pending(),
            };
            let t = match (self.peek(), mail) {
                (Some(a), Some(b)) => a.min(b),
                (Some(a), None) => a,
                (None, Some(b)) => b,
                (None, None) => break,
            };
            if t >= w_end || self.run_instant(t, cross).is_err() {
                break;
            }
        }
    }

    /// One local instant `t`, shared by windows and the opening round
    /// of a sync instant: due nodes advance first, then pending mail
    /// emitted at `t` is delivered, and the fallout routes under
    /// `cross`.
    #[inline(always)]
    fn run_instant(&mut self, t: SimTime, cross: Cross) -> Result<(), CascadeError> {
        assert!(
            t >= self.now,
            "sharded scheduler protocol violation: work at {t} arrived behind shard {} clock {} \
             — the adaptive window bound admitted a causality miss",
            self.idx,
            self.now
        );
        self.now = t;
        // A lone shard's window only visits heap instants.
        if cross == Cross::Local || self.heap.peek().is_some_and(|(at, _)| at == t) {
            // Every node due at `t`, in local (= global registration)
            // order. They stay in both heaps until `reschedule_touched`
            // re-keys them.
            self.heap.due(t, &mut self.due);
            self.touched.clear();
            self.touched.extend_from_slice(&self.due);
            debug_assert!(self.wave.is_empty());
            for i in 0..self.due.len() {
                let l = self.due[i];
                let id = match cross {
                    Cross::Local => NodeId(l),
                    _ => self.global_id(l),
                };
                self.events += 1;
                let wave = &mut self.wave;
                self.nodes[l].advance(t, &mut |e| wave.push((id, e)));
            }
            let result = self.cascade(t, cross);
            self.reschedule_touched();
            result?;
        }
        if cross == Cross::Local || self.pending.is_empty() {
            return Ok(());
        }
        self.deliver_due_pending(t, cross)
    }

    /// Delivers every pending-mail entry emitted at or before `t` (a
    /// sorted prefix), routing the fallout under `cross`. Capacity is
    /// retained; the not-yet-due tail stays queued.
    #[inline(never)]
    fn deliver_due_pending(&mut self, t: SimTime, cross: Cross) -> Result<(), CascadeError> {
        if self.failed.is_some() {
            return Ok(()); // failure already recorded by the cascade
        }
        let end = self.pending.iter().take_while(|m| m.0.at <= t).count();
        if end == 0 {
            return Ok(());
        }
        debug_assert!(self.wave.is_empty());
        self.stats.mailbox_recv += end as u64;
        self.touched.clear();
        for (_key, (dst, cmd)) in self.pending.drain(..end) {
            let (os, ol) = locate(&self.owner, self.idx, dst);
            debug_assert_eq!(os, self.idx, "mail delivered to the wrong shard");
            let ol = ol as usize;
            self.events += 1;
            let wave = &mut self.wave;
            self.nodes[ol].handle(t, cmd, &mut |e| wave.push((dst, e)));
            self.touched.push(ol);
        }
        let result = self.cascade(t, cross);
        self.reschedule_touched();
        result
    }

    /// Delivers an injected `cmd` to local node `l` at the shard's clock
    /// and routes the fallout, mailing every cross-shard command.
    fn inject(&mut self, l: usize, cmd: C::Cmd) -> Result<(), CascadeError> {
        let now = self.now;
        debug_assert!(self.wave.is_empty());
        self.events += 1;
        let id = self.global_id(l);
        let wave = &mut self.wave;
        self.nodes[l].handle(now, cmd, &mut |e| wave.push((id, e)));
        self.touched.clear();
        self.touched.push(l);
        let result = self.cascade(now, Cross::Allow);
        self.reschedule_touched();
        result
    }
}

/// Runs the window of the shard behind `shard` to its published end.
///
/// # Safety
///
/// `shard` must point to a live `ShardState<C, R>` that no other thread
/// touches until the call returns.
unsafe fn run_shard_window<C: Component, R: Router<C>>(shard: *mut ()) {
    // SAFETY: the caller hands this thread the shard exclusively.
    let s = unsafe { &mut *shard.cast::<ShardState<C, R>>() };
    s.run_window(s.w_end);
}

/// What the coordinator shares with one worker. The coordinator's
/// Release store of `generation` pairs with the worker's Acquire load,
/// publishing `shard` and everything the coordinator wrote into that
/// shard; the worker's Release store of `done` pairs with the
/// coordinator's Acquire load, publishing the window's writes back.
struct Slot {
    /// The shard of the current window; written before `generation`.
    shard: AtomicPtr<()>,
    /// `run_shard_window` for the harness's node and router types. The
    /// pointer erases them, lifetimes included; that is sound because
    /// the worker calls it only between a dispatch and its completion,
    /// while the caller holds the harness borrowed and waits.
    run: unsafe fn(*mut ()),
    /// Bumped once per dispatched window; [`SHUTDOWN`] ends the worker.
    generation: AtomicU64,
    /// The last generation whose window the worker finished.
    done: AtomicU64,
    /// A panic caught inside a window, for the coordinator to re-raise.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

/// Spin-then-block waiting: each [`Backoff::snooze`] spins once until
/// [`SPIN_FOR`] has passed, and blocks from then on.
struct Backoff {
    start: Instant,
    spins: u32,
}

impl Backoff {
    fn new() -> Self {
        Backoff {
            start: Instant::now(),
            spins: 0,
        }
    }

    fn snooze(&mut self, block: impl FnOnce()) {
        if self.spins == u32::MAX {
            block();
            return;
        }
        self.spins += 1;
        std::hint::spin_loop();
        if self.spins.is_multiple_of(64) && self.start.elapsed() >= SPIN_FOR {
            self.spins = u32::MAX;
        }
    }
}

impl Slot {
    /// The worker's side: waits for a generation other than `seen`,
    /// then parks. A dispatch always unparks after its bump, so a park
    /// that races it returns at once.
    fn next_generation(&self, seen: u64) -> u64 {
        let mut backoff = Backoff::new();
        loop {
            let generation = self.generation.load(Ordering::Acquire);
            if generation != seen {
                return generation;
            }
            backoff.snooze(std::thread::park);
        }
    }
}

/// The body of a worker thread: run each dispatched window, record a
/// panic instead of dying of it, and report completion.
fn worker_main(slot: Arc<Slot>) {
    let mut seen = 0;
    loop {
        let generation = slot.next_generation(seen);
        if generation == SHUTDOWN {
            return;
        }
        seen = generation;
        let shard = slot.shard.load(Ordering::Relaxed);
        // SAFETY: the coordinator handed over `shard` with this
        // generation and touches it again only once `done` moves.
        let ran = catch_unwind(AssertUnwindSafe(|| unsafe { (slot.run)(shard) }));
        if let Err(payload) = ran {
            *slot.panic.lock().unwrap_or_else(PoisonError::into_inner) = Some(payload);
        }
        slot.done.store(generation, Ordering::Release);
    }
}

/// One long-lived worker thread; it serves the same shard for its
/// harness's life.
struct Worker {
    slot: Arc<Slot>,
    thread: Option<JoinHandle<()>>,
    /// The last generation dispatched to this worker.
    generation: u64,
}

impl Worker {
    fn spawn<C: Component, R: Router<C>>(shard: usize) -> std::io::Result<Worker> {
        let slot = Arc::new(Slot {
            shard: AtomicPtr::new(std::ptr::null_mut()),
            run: run_shard_window::<C, R>,
            generation: AtomicU64::new(0),
            done: AtomicU64::new(0),
            panic: Mutex::new(None),
        });
        let shared = Arc::clone(&slot);
        let thread = std::thread::Builder::new()
            .name(format!("ctms-shard-{shard}"))
            .spawn(move || worker_main(shared))?;
        Ok(Worker {
            slot,
            thread: Some(thread),
            generation: 0,
        })
    }

    /// Hands `shard` to the worker for one window.
    fn dispatch(&mut self, shard: *mut ()) {
        self.generation += 1;
        self.slot.shard.store(shard, Ordering::Relaxed);
        self.slot
            .generation
            .store(self.generation, Ordering::Release);
        if let Some(thread) = &self.thread {
            thread.thread().unpark();
        }
    }

    /// Waits until the worker has finished every window dispatched to
    /// it, spinning and then yielding the core: the caller's own
    /// windows hold about as much work, so the wait is short.
    fn wait(&self) {
        let mut backoff = Backoff::new();
        while self.slot.done.load(Ordering::Acquire) != self.generation {
            backoff.snooze(std::thread::yield_now);
        }
    }

    /// The panic the worker caught in its last window, if any.
    fn take_panic(&self) -> Option<Box<dyn Any + Send>> {
        self.slot
            .panic
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
    }

    /// Lets any window in flight finish, then ends and joins the thread.
    fn join(&mut self) {
        self.wait();
        self.slot.generation.store(SHUTDOWN, Ordering::Release);
        if let Some(thread) = self.thread.take() {
            thread.thread().unpark();
            // The worker catches every window's panic, so joining only
            // fails if the thread died outside a window; `Drop` must
            // not panic over it.
            let _ = thread.join();
        }
    }
}

/// Waits for the workers it holds when dropped, so a window in flight
/// ends before the coordinator goes on, even if the coordinator's own
/// window panicked.
struct InFlight<'a>(&'a [Worker]);

impl Drop for InFlight<'_> {
    fn drop(&mut self) {
        for w in self.0 {
            w.wait();
        }
    }
}

/// "No instant" in the coordinator's raw-nanosecond buffers. It is
/// later than every instant and adding a lookahead leaves it in place,
/// so in a `min` it acts exactly as an absent `Option` would; an
/// instant at [`SimTime::MAX`] acts the same, as it always did.
const NEVER: u64 = u64::MAX;

/// An optional instant as raw nanoseconds, [`NEVER`] for none.
#[inline(always)]
fn raw(at: Option<SimTime>) -> u64 {
    at.map_or(NEVER, SimTime::as_ns)
}

/// The per-shard window bounds, as a standalone function so the
/// property tests can drive it over enumerated inputs.
///
/// Inputs are per-shard published state at one coordinator iteration,
/// in raw nanoseconds with [`NEVER`] for none: `t[k]` is shard `k`'s
/// earliest actionable instant (heap head or pending-mail head), `b[k]`
/// its earliest sync-class deadline, and `influence[o * n + k]` the
/// lookahead of the cut edge `o → k` (`None` when shard `o` cannot send
/// mail to shard `k`).
///
/// The earliest instant shard `o` can *influence* shard `k` over an
/// edge is `M(o→k) = min(b[o], A[o] + la(o→k))`: a sync node firing on
/// its own deadline can emit at `b[o]`, and any consequence of a
/// command entering a sync node at or after `A[o]` emerges no earlier
/// than `A[o] + la` (the lookahead contract). `A[o]` — the earliest
/// instant shard `o` can act at all — must account for *transitive*
/// wake-ups (an idle middle shard can receive mail and relay it), so it
/// is the greatest fixpoint of
///
/// ```text
/// A[k] = min(t[k], min over edges o→k of M(o→k))
/// ```
///
/// computed by Bellman–Ford relaxation (at most `n` rounds; bounds only
/// ever decrease and are bounded below by `T`). The window bound is
/// then `E[k] = min(run_end, min over edges o→k of M(o→k))`: shard `k`
/// may run every instant strictly before the earliest moment any other
/// shard could possibly affect it.
///
/// The sums saturate at [`NEVER`], so an absent instant stays absent
/// and every relaxation is one `min` on plain integers; the tests hold
/// the result to the `Option` formulation this replaced.
///
/// Two provable orderings anchor the property tests: `E[k]` never
/// exceeds the per-edge safety bound `min(b[o], t[o] + la(o→k))` of any
/// single incoming edge (since `A[o] <= t[o]`), and `E[k]` is at least
/// the classic bounded-window bound `min(run_end, B_min, T + min
/// incoming la)` (since every `A[o] >= T` and `b[o] >= B_min`).
pub(crate) fn adaptive_bounds(
    t: &[u64],
    b: &[u64],
    influence: &[Option<Dur>],
    run_end: u64,
    a_buf: &mut Vec<u64>,
    e_buf: &mut Vec<u64>,
) {
    let n = t.len();
    debug_assert_eq!(b.len(), n);
    debug_assert_eq!(influence.len(), n * n);
    a_buf.clear();
    a_buf.extend_from_slice(t);
    for _ in 0..n {
        let mut changed = false;
        for k in 0..n {
            for o in 0..n {
                if o == k {
                    continue;
                }
                let Some(la) = influence[o * n + k] else {
                    continue;
                };
                let m = b[o].min(a_buf[o].saturating_add(la.as_ns()));
                if m < a_buf[k] {
                    a_buf[k] = m;
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    e_buf.clear();
    for k in 0..n {
        let mut e = run_end;
        for o in 0..n {
            if o == k {
                continue;
            }
            if let Some(la) = influence[o * n + k] {
                e = e.min(b[o].min(a_buf[o].saturating_add(la.as_ns())));
            }
        }
        e_buf.push(e);
    }
}

/// The runahead span `S = max(2λ, F_s / ρ)` in nanoseconds at global
/// minimum `t`, with `ρ = events / (shards · t)` the events per
/// simulated nanosecond per shard serviced so far; `2λ` until the first
/// event. `F_s · shards · t` is formed in `u64`, and in `u128` only
/// when it overflows, so a window pays for no wide division; the
/// quotient saturates at `u64::MAX`.
fn runahead_span(events: u64, shards: u64, t: u64, lambda: u64) -> u64 {
    let floor = lambda.saturating_mul(2);
    if events == 0 {
        return floor;
    }
    let span = match RUNAHEAD_MIN_EVENTS
        .checked_mul(shards)
        .and_then(|f| f.checked_mul(t))
    {
        Some(product) => product / events,
        None => {
            let wide = u128::from(RUNAHEAD_MIN_EVENTS) * u128::from(shards) * u128::from(t)
                / u128::from(events);
            u64::try_from(wide).unwrap_or(u64::MAX)
        }
    };
    span.max(floor)
}

/// A node's telemetry namespace, given at registration: a whole name,
/// or a fixed prefix and the node's index among its kind
/// (`Label::Indexed("tokenring.ring", 12)` is `tokenring.ring12`). An
/// indexed label allocates nothing; the harness writes its path out
/// only when it collects telemetry.
#[derive(Clone, Debug)]
pub enum Label {
    /// A whole name.
    Name(Cow<'static, str>),
    /// A prefix, followed by an index.
    Indexed(&'static str, usize),
}

impl Label {
    /// Appends the label's path to `out`.
    fn write_to(&self, out: &mut String) {
        match self {
            Label::Name(name) => out.push_str(name),
            Label::Indexed(prefix, k) => {
                out.push_str(prefix);
                write!(out, "{k}").expect("writing to a String cannot fail");
            }
        }
    }
}

impl From<&'static str> for Label {
    fn from(name: &'static str) -> Self {
        Label::Name(Cow::Borrowed(name))
    }
}

impl From<String> for Label {
    fn from(name: String) -> Self {
        Label::Name(Cow::Owned(name))
    }
}

/// The scheduler/event bus. See the module docs.
///
/// Nodes declare their shard (and whether they are sync-class) at
/// registration and each shard gets its own router instance; router
/// state is merged for telemetry through [`MergeTelemetry`].
pub struct Harness<C: Component, R: Router<C>> {
    shards: Vec<ShardState<C, R>>,
    /// Global registration-order labels (telemetry namespaces).
    labels: Vec<Label>,
    /// Global node id → (shard, local index); empty at one shard (see
    /// `owner_of`).
    owner_map: Vec<(u32, u32)>,
    sealed: bool,
    has_sync: bool,
    /// Lower bound on every sync node's forwarding latency; seeds the
    /// fallback influence matrix when the caller installs none.
    lookahead: Dur,
    /// Flattened `n × n` influence matrix: `influence[o * n + k]` is the
    /// tightest cut-edge lookahead over which shard `o` can mail shard
    /// `k`, `None` when it cannot. Derived generically at seal when the
    /// topology layer installs nothing explicit.
    influence: Option<Vec<Option<Dur>>>,
    /// `λ`, the smallest cut-edge lookahead in `influence`; `None` when
    /// no shard can mail another, and no runahead cap applies.
    min_lookahead: Option<Dur>,
    /// Workers for shards `1..=workers.len()`, spawned at the first
    /// dispatched window. `Drop` joins them before `shards` is freed.
    workers: Vec<Worker>,
    now: SimTime,
    failed: Option<CascadeError>,
    telemetry: Registry,
    windows: u64,
    /// Windows in which at least one shard ran on a worker.
    worker_windows: u64,
    sync_instants: u64,
    mail_rounds: u64,
    /// Per-destination merge scratch for mailbox exchange rounds.
    merge_buf: Vec<Vec<Mail<C::Cmd>>>,
    /// Dispatch scratch: indices of shards participating in a round.
    active: Vec<usize>,
    // Coordinator scratch in raw nanoseconds, [`NEVER`] for none
    // (cleared and refilled per iteration, capacity retained — the
    // sharded path is also alloc-free in steady state).
    t_buf: Vec<u64>,
    b_buf: Vec<u64>,
    a_buf: Vec<u64>,
    e_buf: Vec<u64>,
}

impl<C, R> Harness<C, R>
where
    C: Component + Send,
    C::Cmd: Send,
    C::Out: Send,
    R: Router<C> + MergeTelemetry + Send,
{
    /// Creates a harness with one shard per router in `routers`.
    /// `lookahead` is a lower bound on every sync node's forwarding
    /// latency, used when no influence matrix is installed (must be
    /// positive if any sync-class node is registered; irrelevant at one
    /// shard); `cascade_limit` bounds same-instant cascades (and also
    /// mailbox exchange rounds per instant).
    pub fn new(routers: Vec<R>, cascade_limit: u32, lookahead: Dur) -> Self {
        assert!(!routers.is_empty(), "at least one shard required");
        assert!(cascade_limit > 0, "cascade limit must be positive");
        let n = routers.len();
        Harness {
            shards: routers
                .into_iter()
                .enumerate()
                .map(|(k, r)| ShardState::new(k as u32, r, cascade_limit, n))
                .collect(),
            labels: Vec::new(),
            owner_map: Vec::new(),
            sealed: false,
            has_sync: false,
            lookahead,
            influence: None,
            min_lookahead: None,
            workers: Vec::new(),
            now: SimTime::ZERO,
            failed: None,
            telemetry: Registry::new(),
            windows: 0,
            worker_windows: 0,
            sync_instants: 0,
            mail_rounds: 0,
            merge_buf: mailboxes(n),
            active: Vec::new(),
            t_buf: Vec::new(),
            b_buf: Vec::new(),
            a_buf: Vec::new(),
            e_buf: Vec::new(),
        }
    }

    /// Registers `node` on `shard` under a dotted telemetry namespace
    /// (e.g. `tokenring.ring0`, `unixkern.h1`) and schedules its current
    /// deadline. Global [`NodeId`]s are assigned densely in registration
    /// order across all shards, which is also the service order on
    /// deadline ties — so the numbering, and every result, does not
    /// depend on the partition. `sync` marks the node sync-class (it
    /// may emit cross-shard commands; its deadlines bound the windows).
    pub fn add_node_labeled(
        &mut self,
        node: C,
        label: impl Into<Label>,
        shard: usize,
        sync: bool,
    ) -> NodeId {
        assert!(!self.sealed, "cannot add nodes after the first run");
        let id = NodeId(self.labels.len());
        let s = &mut self.shards[shard];
        let local = s.add_node(node, id, sync);
        if self.shards.len() > 1 {
            self.owner_map.push((shard as u32, local));
        }
        self.labels.push(label.into());
        self.has_sync |= sync;
        id
    }

    /// Makes room for `nodes[k]` more nodes on shard `k`, for a caller
    /// that knows its node counts before registering them: each table
    /// is then allocated once at its final size instead of doubling its
    /// way there (a shard of 10^4 nodes would hold 16,384 slots).
    pub fn reserve_nodes(&mut self, nodes: &[usize]) {
        assert_eq!(nodes.len(), self.shards.len(), "one node count per shard");
        let total: usize = nodes.iter().sum();
        self.labels.reserve_exact(total);
        if self.shards.len() > 1 {
            self.owner_map.reserve_exact(total);
        }
        for (s, &n) in self.shards.iter_mut().zip(nodes) {
            s.reserve(n);
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total registered nodes.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True when no nodes are registered.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// The (shard, local index) of global node `gid`. A lone shard keeps
    /// no table: its local indices are the global ones.
    fn owner_of(&self, gid: usize) -> (usize, usize) {
        if self.shards.len() == 1 {
            (0, gid)
        } else {
            let (s, l) = self.owner_map[gid];
            (s as usize, l as usize)
        }
    }

    /// Current simulation time (the run horizon after a completed run).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Component activations (deadline advances plus delivered commands)
    /// serviced so far, summed over shards — the numerator of the
    /// benchmarks' events/sec. Not published as telemetry (the metric
    /// tree is pinned by golden digests), and the same at any shard
    /// count.
    pub fn events(&self) -> u64 {
        self.shards.iter().map(|s| s.events).sum()
    }

    /// The error that poisoned this harness, if any shard's cascade
    /// overflowed.
    pub fn failure(&self) -> Option<CascadeError> {
        self.failed
    }

    /// Installs the per-edge influence matrix: `lookahead[o][k]` is the
    /// tightest cut-edge lookahead over which shard `o` can mail shard
    /// `k`, `None` when no such edge exists. The topology layer derives
    /// this from the sync bridges' actual port-ring placement; when
    /// nothing is installed, seal derives a conservative fallback from
    /// the global lookahead (every shard with sync-class nodes
    /// influences every other shard).
    ///
    /// Soundness requirement on the caller: mail from shard `o` to
    /// shard `k` must only ever emerge from a sync node whose lookahead
    /// is at least `lookahead[o][k]`.
    pub fn set_influence_lookaheads(&mut self, lookahead: Vec<Vec<Option<Dur>>>) {
        assert!(!self.sealed, "cannot change influence after the first run");
        let n = self.shards.len();
        assert_eq!(lookahead.len(), n, "one influence row per shard");
        let mut flat = Vec::with_capacity(n * n);
        for (o, row) in lookahead.iter().enumerate() {
            assert_eq!(
                row.len(),
                n,
                "influence row {o} must have one entry per shard"
            );
            for (k, la) in row.iter().enumerate() {
                if let Some(d) = la {
                    assert!(
                        o != k,
                        "influence matrix diagonal must be None (a shard cannot mail itself)"
                    );
                    assert!(
                        *d > Dur::ZERO,
                        "influence edge {o}→{k}: a zero lookahead would stall the window"
                    );
                }
                flat.push(*la);
            }
        }
        self.influence = Some(flat);
    }

    /// Execution counters for shard `k`.
    pub fn shard_stats(&self, k: usize) -> ShardStats {
        let s = &self.shards[k];
        let mut stats = s.stats;
        stats.events = s.events;
        stats
    }

    /// Shared access to shard `k`'s router.
    pub fn shard_router(&self, k: usize) -> &R {
        &self.shards[k].router
    }

    /// Every shard's router, in shard order.
    pub fn routers(&self) -> impl Iterator<Item = &R> {
        self.shards.iter().map(|s| &s.router)
    }

    /// Every shard's router, mutably, in shard order (checkpoint
    /// restoration distributes decoded router state across them).
    pub fn routers_mut(&mut self) -> impl Iterator<Item = &mut R> {
        self.shards.iter_mut().map(|s| &mut s.router)
    }

    /// The shard that owns `id`.
    pub fn shard_of(&self, id: NodeId) -> usize {
        self.owner_of(id.0).0
    }

    /// Shared access to a node by its global id.
    pub fn node(&self, id: NodeId) -> &C {
        let (s, l) = self.owner_of(id.0);
        &self.shards[s].nodes[l]
    }

    /// Mutable access to a node. The node is conservatively rescheduled
    /// before the next step, since the caller may change its deadline.
    pub fn node_mut(&mut self, id: NodeId) -> &mut C {
        let (s, l) = self.owner_of(id.0);
        let shard = &mut self.shards[s];
        shard.dirty.push(l);
        &mut shard.nodes[l]
    }

    /// Distributes the final owner map to the shards; registration is
    /// closed afterwards.
    fn seal(&mut self) {
        if self.sealed {
            return;
        }
        if self.has_sync {
            assert!(
                self.lookahead > Dur::ZERO,
                "sync-class nodes require a positive lookahead"
            );
        }
        if self.shards.len() > 1 {
            let owner = Arc::new(self.owner_map.clone());
            for s in &mut self.shards {
                s.owner = Some(Arc::clone(&owner));
            }
        }
        if self.influence.is_none() {
            // Generic fallback influence matrix: every shard with at
            // least one sync-class node can mail every other shard over
            // the global lookahead.
            let n = self.shards.len();
            let mut flat = vec![None; n * n];
            for o in 0..n {
                if !self.shards[o].any_sync {
                    continue;
                }
                for k in 0..n {
                    if o != k {
                        flat[o * n + k] = Some(self.lookahead);
                    }
                }
            }
            self.influence = Some(flat);
        }
        self.min_lookahead = self.influence.iter().flatten().flatten().copied().min();
        self.sealed = true;
    }

    /// Runs `f` on each shard in `self.active`, in shard order, on the
    /// calling thread.
    fn run_active(&mut self, mut f: impl FnMut(&mut ShardState<C, R>)) {
        for i in 0..self.active.len() {
            let k = self.active[i];
            f(&mut self.shards[k]);
        }
    }

    /// Adopts the deterministically-first shard failure (by failing
    /// instant, then node) as the harness failure, leaving its
    /// telemetry trail.
    fn check_failures(&mut self) -> Result<(), CascadeError> {
        if let Some(e) = self.failed {
            return Err(e);
        }
        let mut first: Option<CascadeError> = None;
        for s in &self.shards {
            if let Some(e) = s.failed {
                first = Some(match first {
                    Some(f) if (f.at(), f.node()) <= (e.at(), e.node()) => f,
                    _ => e,
                });
            }
        }
        match first {
            Some(err) => self.poison(err),
            None => Ok(()),
        }
    }

    /// Poisons the harness with `err`, leaving a diagnosable trail: an
    /// edge-signal event at the failing instant and a final
    /// `cascade-failure` snapshot of every metric — the state the
    /// §5.2.1 operators would have examined, not just an error value.
    fn poison(&mut self, err: CascadeError) -> Result<(), CascadeError> {
        self.failed = Some(err);
        self.telemetry
            .event(err.at(), "sim.cascade.overflow", err.event_detail());
        self.snapshot_phase("cascade-failure");
        Err(err)
    }

    /// Moves every outbox (already per-(src,dst) batched) into its
    /// destination's pending queue and re-sorts each receiving queue
    /// with [`merge_mail`]; keys are unique, so the order does not
    /// depend on which shard emitted first. Returns whether any mail
    /// moved — each flush that moves mail is one mail round.
    fn flush_mail(&mut self) -> bool {
        let mut moved = false;
        for s in &mut self.shards {
            for (dst, out) in s.outbox.iter_mut().enumerate() {
                if !out.is_empty() {
                    moved = true;
                    self.merge_buf[dst].append(out);
                }
            }
        }
        if !moved {
            return false;
        }
        self.mail_rounds += 1;
        for (s, mail) in self.shards.iter_mut().zip(&mut self.merge_buf) {
            if !mail.is_empty() {
                s.pending.append(mail);
                merge_mail(&mut s.pending);
            }
        }
        true
    }

    /// Runs until no node has a deadline at or before `horizon`, then
    /// leaves the clock at `horizon`. Returns a [`CascadeError`] (and
    /// poisons the harness) if a same-instant cascade never converges;
    /// the simulation state up to the failing instant remains readable.
    /// The result does not depend on the shard count; the wall clock
    /// falls when the partition decouples the shards.
    pub fn try_run_until(&mut self, horizon: SimTime) -> Result<(), CascadeError> {
        if let Some(e) = self.failed {
            return Err(e);
        }
        self.seal();
        // One window past the horizon is enough for every shard: the
        // window end is exclusive, so `horizon + 1 ns` makes deadlines
        // at exactly `horizon` runnable.
        let run_end = horizon.saturating_add(Dur::from_ns(1));
        self.run_adaptive(horizon, run_end)?;
        for s in &mut self.shards {
            if s.now < horizon {
                s.now = horizon;
            }
        }
        if self.now < horizon {
            self.now = horizon;
        }
        Ok(())
    }

    /// The coordinator loop. Per iteration: flush every outbox into the
    /// destination shards' sorted pending queues, publish each shard's
    /// earliest actionable instant `t[k]` and sync deadline `b[k]`,
    /// compute per-shard window bounds through the [`adaptive_bounds`]
    /// influence fixpoint, and run every shard with work strictly
    /// inside its bound. When no shard can make progress (every bound
    /// collapses onto `T`), fall back to one global sync instant at
    /// `T`, which always advances. A run of consecutive iterations
    /// stuck at one instant beyond the cascade limit is the cross-shard
    /// livelock (zero-lookahead mail ping-pong) and poisons the harness
    /// exactly like a cascade overflow.
    fn run_adaptive(&mut self, horizon: SimTime, run_end: SimTime) -> Result<(), CascadeError> {
        let n = self.shards.len();
        let limit = u64::from(self.shards[0].limit);
        let mut streak_at: Option<SimTime> = None;
        let mut streak = 0u64;
        loop {
            self.flush_mail();
            // Publish per-shard state.
            self.t_buf.clear();
            self.b_buf.clear();
            let mut t_min: Option<SimTime> = None;
            for k in 0..n {
                let s = &mut self.shards[k];
                s.flush_dirty();
                let tk = crate::engine::earliest([s.peek(), s.peek_pending()]);
                t_min = crate::engine::earliest([t_min, tk]);
                self.t_buf.push(raw(tk));
                self.b_buf.push(raw(s.peek_sync()));
            }
            let Some(t) = t_min else { break };
            if t > horizon {
                break;
            }
            // Livelock guard: the global minimum not moving for `limit`
            // consecutive iterations means mail is ping-ponging at one
            // instant without the lookahead ever separating the shards.
            if streak_at == Some(t) {
                streak += 1;
            } else {
                streak_at = Some(t);
                streak = 1;
            }
            if streak > limit {
                let node = self
                    .shards
                    .iter()
                    .filter_map(|s| s.pending.first().map(|m| m.1 .0))
                    .next()
                    .or_else(|| {
                        self.shards
                            .iter()
                            .find_map(|s| s.heap.peek().map(|(_, l)| s.global_id(l)))
                    })
                    .expect("a stuck instant has work somewhere");
                return self.poison(CascadeError::overflow(t, node, streak as u32));
            }
            // Window bounds and the active set.
            let influence = self.influence.as_deref().expect("sealed with influence");
            adaptive_bounds(
                &self.t_buf,
                &self.b_buf,
                influence,
                run_end.as_ns(),
                &mut self.a_buf,
                &mut self.e_buf,
            );
            if let Some(lambda) = self.min_lookahead {
                let span = runahead_span(self.events(), n as u64, t.as_ns(), lambda.as_ns());
                // A shard with no work has `t[k] = NEVER`, whose cap
                // saturates to `NEVER` and leaves its bound alone.
                for (e, &tk) in self.e_buf.iter_mut().zip(&self.t_buf) {
                    *e = (*e).min(tk.saturating_add(span));
                }
            }
            self.active.clear();
            for k in 0..n {
                if self.t_buf[k] < self.e_buf[k] {
                    let s = &mut self.shards[k];
                    s.w_end = SimTime::from_ns(self.e_buf[k]);
                    self.active.push(k);
                }
            }
            if self.active.is_empty() {
                // Every bound collapsed onto T: a sync instant always
                // advances past it.
                self.sync_instants += 1;
                self.run_sync_instant(t)?;
                continue;
            }
            self.windows += 1;
            let mut next_active = 0;
            for k in 0..n {
                let s = &mut self.shards[k];
                if next_active < self.active.len() && self.active[next_active] == k {
                    next_active += 1;
                    s.stats.window_advances += 1;
                } else {
                    s.stats.idle_windows += 1;
                }
            }
            if self.fat_window() {
                self.run_on_workers();
            } else {
                self.run_active(|s| s.run_window(s.w_end));
            }
            self.check_failures()?;
        }
        debug_assert!(
            self.shards
                .iter()
                .all(|s| s.pending.is_empty() && s.outbox.iter().all(|o| o.is_empty())),
            "run ended with mail in flight"
        );
        Ok(())
    }

    /// True when this window runs on workers: at least two shards are
    /// active, each serviced at least [`DISPATCH_MIN_EVENTS`] events in
    /// its previous window, and the machine has a second core.
    fn fat_window(&self) -> bool {
        self.active.len() >= 2
            && self
                .active
                .iter()
                .all(|&k| self.shards[k].window_events >= DISPATCH_MIN_EVENTS)
            && cores() >= 2
    }

    /// Runs the active shards' windows with every shard that has a
    /// worker on it and the rest, shard 0 among them, on the calling
    /// thread; returns once all have ended, re-raising a worker's panic.
    fn run_on_workers(&mut self) {
        let wanted = (self.shards.len() - 1).min(cores() - 1);
        while self.workers.len() < wanted {
            // A failed spawn leaves that shard on the caller; the next
            // fat window tries again.
            match Worker::spawn::<C, R>(self.workers.len() + 1) {
                Ok(w) => self.workers.push(w),
                Err(_) => break,
            }
        }
        let served = self.workers.len();
        let base = self.shards.as_mut_ptr();
        let mut handed = false;
        for &k in &self.active {
            if (1..=served).contains(&k) {
                // SAFETY: `k` is in bounds, and the shard vector is never
                // reallocated after seal. From here until `in_flight`
                // has waited, only the worker touches shard `k`: the
                // caller reaches its own shards through `base`, never
                // through a borrow of the whole vector.
                self.workers[k - 1].dispatch(unsafe { base.add(k) }.cast());
                handed = true;
            }
        }
        self.worker_windows += u64::from(handed);
        let in_flight = InFlight(&self.workers);
        for &k in &self.active {
            if k == 0 || k > served {
                // SAFETY: as above; no worker serves shard `k`.
                let s = unsafe { &mut *base.add(k) };
                s.run_window(s.w_end);
            }
        }
        drop(in_flight);
        let mut panicked = None;
        for w in &self.workers {
            if let Some(payload) = w.take_panic() {
                panicked.get_or_insert(payload);
            }
        }
        if let Some(payload) = panicked {
            resume_unwind(payload);
        }
    }

    /// Like [`Harness::try_run_until`] but panics on cascade overflow
    /// (for callers that treat it as the bug it is).
    pub fn run_until(&mut self, horizon: SimTime) {
        if let Err(e) = self.try_run_until(horizon) {
            panic!("{e}");
        }
    }

    /// Delivers `cmd` to `id` at the current instant and routes the
    /// resulting cascade, exactly as if the command had been produced by
    /// the router mid-run: the owner shard takes it with every
    /// cross-shard command mailed, and the mail settles through the
    /// rounds a sync instant runs. Call between runs.
    pub fn inject(&mut self, id: NodeId, cmd: C::Cmd) -> Result<(), CascadeError> {
        if let Some(e) = self.failed {
            return Err(e);
        }
        self.seal();
        let (s, l) = self.owner_of(id.0);
        let shard = &mut self.shards[s];
        debug_assert_eq!(shard.now, self.now, "inject off a run boundary");
        let _ = shard.inject(l, cmd);
        self.check_failures()?;
        self.exchange_mail(self.now)
    }

    /// One sync instant at `t`: due shards take the instant with every
    /// cross-shard command diverted to the outbox, then the mail is
    /// exchanged (see [`Harness::exchange_mail`]).
    fn run_sync_instant(&mut self, t: SimTime) -> Result<(), CascadeError> {
        self.active.clear();
        for (k, s) in self.shards.iter().enumerate() {
            // Pending mail emitted exactly at `t` joins the opening
            // round alongside the due deadlines.
            if s.peek() == Some(t) || s.peek_pending() == Some(t) {
                self.active.push(k);
            }
        }
        if !self.active.is_empty() {
            self.run_active(|s| {
                let _ = s.run_instant(t, Cross::Allow);
            });
            self.check_failures()?;
        }
        self.exchange_mail(t)
    }

    /// Exchanges the mail emitted at `t` through the pending queues in
    /// deterministic rounds until none is in flight.
    fn exchange_mail(&mut self, t: SimTime) -> Result<(), CascadeError> {
        let limit = u64::from(self.shards[0].limit);
        let mut rounds = 0u64;
        while self.flush_mail() {
            // Every shard delivered all of its mail due at `t` in the
            // previous round, so a pending head at `t` is this round's.
            self.active.clear();
            for (k, s) in self.shards.iter().enumerate() {
                if s.peek_pending() == Some(t) {
                    self.active.push(k);
                }
            }
            rounds += 1;
            if rounds > limit {
                // Mail ping-pong at one instant that never converges is
                // the cross-shard flavor of a cascade livelock.
                let first = &self.shards[self.active[0]];
                let (_, (dst, _)) = &first.pending[0];
                let dst = *dst;
                return self.poison(CascadeError::overflow(t, dst, rounds as u32));
            }
            self.run_active(|s| {
                let _ = s.deliver_due_pending(t, Cross::Allow);
            });
            self.check_failures()?;
        }
        Ok(())
    }

    /// The run's telemetry registry as last collected (events and phase
    /// snapshots accumulate live; metrics are rebuilt by
    /// [`Harness::collect_telemetry`]).
    pub fn telemetry(&self) -> &Registry {
        &self.telemetry
    }

    /// Rebuilds the metric tree: every node publishes under its
    /// registration label in **global** registration order, the
    /// per-shard routers publish through [`MergeTelemetry`], and the
    /// harness adds its own `sim.*` metrics, then returns the registry
    /// for further additions or serialization. Deterministic, and the
    /// same bytes at any shard count.
    pub fn collect_telemetry(&mut self) -> &mut Registry {
        self.telemetry.clear_metrics();
        let mut path = String::new();
        for gid in 0..self.len() {
            let (s, l) = self.owner_of(gid);
            let shard = &self.shards[s];
            path.clear();
            self.labels[gid].write_to(&mut path);
            let mut scope = self.telemetry.scope(&path);
            shard.nodes[l].publish_telemetry(&mut scope);
        }
        let routers: Vec<&R> = self.shards.iter().map(|s| &s.router).collect();
        R::publish_merged(&routers, &mut self.telemetry);
        let mut sim = self.telemetry.scope("sim");
        sim.gauge("now_ns", self.now.as_ns() as i64);
        sim.counter("nodes", self.labels.len() as u64);
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

    /// Appends the harness's dynamic state to `enc`: clock, total event
    /// count and node count, every node in *global* registration order,
    /// then the telemetry event/phase history. Nothing in the bytes
    /// mentions a shard, which is what lets a snapshot restore at any
    /// shard count. The scheduler heaps are not encoded: they are a pure
    /// function of node deadlines and are rebuilt on restore.
    ///
    /// Must be called at a run boundary — after `try_run_until`
    /// returned, when every shard's clock sits at the horizon and no
    /// mail is in flight. Routers are persisted separately by the
    /// topology layer (which knows their concrete type and how to merge
    /// the per-shard parts canonically).
    pub fn persist_state(&self, enc: &mut Enc)
    where
        C: Persist,
    {
        debug_assert!(
            self.shards.iter().all(|s| {
                s.wave.is_empty() && s.pending.is_empty() && s.outbox.iter().all(|o| o.is_empty())
            }),
            "checkpoint taken off a run boundary"
        );
        enc.time(self.now);
        enc.u64(self.events());
        enc.seq_len(self.len());
        for gid in 0..self.len() {
            let (s, l) = self.owner_of(gid);
            self.shards[s].nodes[l].persist(enc);
        }
        self.telemetry.persist(enc);
    }

    /// Applies state written by [`Harness::persist_state`] at any shard
    /// count onto this freshly rebuilt harness (same topology, same
    /// registration order). Every node is marked dirty so its shard's
    /// heaps re-key it from the restored deadline, every shard's clock
    /// is set to the checkpoint instant, and the total event count is
    /// assigned to shard 0 (only the sum is observable).
    ///
    /// A node deadline earlier than the restored clock is a
    /// [`PersistError::Mismatch`]: the run would service it behind the
    /// clock.
    pub fn restore_state(&mut self, dec: &mut Dec<'_>) -> Result<(), PersistError>
    where
        C: Persist,
    {
        if let Some(e) = self.failed {
            return Err(PersistError::mismatch(format!(
                "cannot restore into a poisoned harness: {e}"
            )));
        }
        let (now, events) = (dec.time()?, dec.u64()?);
        // A bare u32, not `seq_len`: a node count that disagrees with
        // the rebuild is a mismatch, however many bytes follow it.
        let n = dec.u32()? as usize;
        if n != self.len() {
            return Err(PersistError::mismatch(format!(
                "checkpoint has {n} nodes, rebuilt harness has {}",
                self.len()
            )));
        }
        for gid in 0..n {
            let (s, l) = self.owner_of(gid);
            let shard = &mut self.shards[s];
            let node = &mut shard.nodes[l];
            node.restore(dec)?;
            if let Some(at) = node.next_deadline().filter(|&at| at < now) {
                return Err(PersistError::mismatch(format!(
                    "checkpoint node {gid} is due at {at}, before the clock {now}"
                )));
            }
            shard.dirty.push(l);
        }
        self.telemetry.restore(dec)?;
        for (k, s) in self.shards.iter_mut().enumerate() {
            s.now = now;
            s.events = if k == 0 { events } else { 0 };
        }
        self.now = now;
        Ok(())
    }

    /// Scheduler-execution counters (windows, sync instants, mailbox
    /// traffic, idle stalls) in a registry of their own, under a
    /// `sched` namespace with per-shard `sched.shard{k}` scopes.
    ///
    /// Deliberately **not** part of [`Harness::telemetry`]: the
    /// simulation's metric tree is pinned by golden digests and must
    /// not vary with the shard count; these counters exist precisely to
    /// vary with it.
    pub fn exec_telemetry(&self) -> Registry {
        let mut reg = Registry::new();
        let mut sched = reg.scope("sched");
        sched.counter("windows", self.windows);
        sched.counter("worker_windows", self.worker_windows);
        sched.counter("sync_instants", self.sync_instants);
        sched.counter("mail_rounds", self.mail_rounds);
        for k in 0..self.shards.len() {
            let stats = self.shard_stats(k);
            let mut shard = sched.scope(&format!("shard{k}"));
            shard.counter("events", stats.events);
            shard.counter("idle_windows", stats.idle_windows);
            shard.counter("mailbox_recv", stats.mailbox_recv);
            shard.counter("mailbox_sent", stats.mailbox_sent);
            shard.counter("window_advances", stats.window_advances);
        }
        reg
    }
}

impl<C: Component, R: Router<C>> Drop for Harness<C, R> {
    /// Joins the workers, each after its window in flight, before the
    /// shards they point into are freed.
    fn drop(&mut self) {
        for w in &mut self.workers {
            w.join();
        }
    }
}

/// A router's statistics in the telemetry tree, merged over shards.
///
/// The harness gives every shard its own router instance; absorbed
/// state (measurement taps, counters, logs) lands in the router of
/// whichever shard routed it. The router type publishes the merged
/// view of its parts — `parts[k]` is shard `k`'s router, in shard
/// order; a one-shard run passes one part. Implementations must publish
/// the same bytes at every shard count: the golden-digest tests hold
/// them to it. Called by [`Harness::collect_telemetry`] after every
/// node has published.
pub trait MergeTelemetry {
    /// Publishes the merged view of `parts` into `reg`.
    fn publish_merged(parts: &[&Self], reg: &mut Registry);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Sink;
    use crate::persist::{Dec, Enc};
    use crate::telemetry::Value;

    fn t(ns: u64) -> SimTime {
        SimTime::from_ns(ns)
    }

    /// Walks every permutation of `0..n` (Heap's algorithm, no RNG) and
    /// hands each to `f` — same enumeration as the heap property tests.
    fn for_each_permutation(n: usize, mut f: impl FnMut(&[usize])) {
        let mut a: Vec<usize> = (0..n).collect();
        let mut c = vec![0usize; n];
        f(&a);
        let mut i = 0;
        while i < n {
            if c[i] < i {
                if i % 2 == 0 {
                    a.swap(0, i);
                } else {
                    a.swap(c[i], i);
                }
                f(&a);
                c[i] += 1;
                i = 0;
            } else {
                c[i] = 0;
                i += 1;
            }
        }
    }

    #[test]
    fn mail_merge_order_is_total_for_all_arrival_orders() {
        // Keys with deliberate collisions on every prefix: equal times
        // across shards, equal (time, shard) pairs with distinct seqs.
        // Whatever order the shards delivered their outboxes in, the
        // merged mailbox must come out in one canonical order.
        let keys = [
            MailKey {
                at: t(50),
                src_shard: 1,
                seq: 2,
            },
            MailKey {
                at: t(20),
                src_shard: 0,
                seq: 7,
            },
            MailKey {
                at: t(20),
                src_shard: 2,
                seq: 1,
            },
            MailKey {
                at: t(20),
                src_shard: 0,
                seq: 3,
            },
            MailKey {
                at: t(50),
                src_shard: 0,
                seq: 9,
            },
            MailKey {
                at: t(10),
                src_shard: 3,
                seq: 4,
            },
        ];
        let mut expected: Vec<(MailKey, usize)> =
            keys.iter().enumerate().map(|(p, &k)| (k, p)).collect();
        expected.sort_by_key(|m| m.0);
        let mut checked = 0u32;
        for_each_permutation(keys.len(), |perm| {
            let mut mail: Vec<(MailKey, usize)> = perm.iter().map(|&p| (keys[p], p)).collect();
            merge_mail(&mut mail);
            assert_eq!(mail, expected, "arrival order {perm:?}");
            checked += 1;
        });
        assert_eq!(checked, 720, "all 6! arrival orders enumerated");
    }

    #[test]
    fn mail_merge_is_stable_for_tied_keys() {
        // Duplicate full keys cannot occur in the engine (seq is unique
        // per source shard) but the merge contract is still pinned:
        // ties keep push order, so the order is well-defined for any
        // input.
        let dup = MailKey {
            at: t(5),
            src_shard: 1,
            seq: 1,
        };
        let early = MailKey {
            at: t(1),
            src_shard: 9,
            seq: 9,
        };
        let mut mail = vec![(dup, "first"), (early, "zero"), (dup, "second")];
        merge_mail(&mut mail);
        assert_eq!(mail, vec![(early, "zero"), (dup, "first"), (dup, "second")]);
    }

    #[test]
    fn adaptive_bounds_stay_inside_the_conservative_envelope() {
        // Enumerates every assignment (permutation of a fixed deadline
        // pool, Heap's algorithm, no RNG) of per-shard earliest-work and
        // sync-deadline instants over two influence shapes, and pins the
        // two orderings the protocol's correctness argument rests on:
        //
        // * safety — the adaptive bound never exceeds the conservative
        //   per-edge bound `min(b[o], t[o] + la)` of ANY direct
        //   influencer `o` (shard `o` could act at `t[o]`, so nothing
        //   it sends can be ruled out past that),
        // * progress — the adaptive bound is never narrower than the
        //   classic bounded-window bound `min(run_end, B_min, T +
        //   la_in)`, so it never erects a barrier that protocol would
        //   not.
        let pool: [Option<SimTime>; 6] = [
            None,
            Some(t(10)),
            Some(t(12)),
            Some(t(25)),
            Some(t(40)),
            Some(t(100)),
        ];
        let run_end = t(1_000);
        // A 3-shard chain (asymmetric lookaheads) and a full mesh with
        // per-edge lookaheads all distinct.
        let chain: Vec<Option<Dur>> = vec![
            None,
            Some(Dur::from_ns(5)),
            None,
            Some(Dur::from_ns(5)),
            None,
            Some(Dur::from_ns(17)),
            None,
            Some(Dur::from_ns(17)),
            None,
        ];
        let mesh: Vec<Option<Dur>> = (0..9)
            .map(|i| {
                let (o, k) = (i / 3, i % 3);
                (o != k).then(|| Dur::from_ns(3 + 2 * o as u64 + k as u64))
            })
            .collect();
        let mut a_buf = Vec::new();
        let mut e_buf = Vec::new();
        let mut checked = 0u32;
        for influence in [&chain, &mesh] {
            for_each_permutation(pool.len(), |perm| {
                let mut tv = [None; 3];
                let mut bv = [None; 3];
                for k in 0..3 {
                    tv[k] = pool[perm[k]];
                    // The sync heap is a subset of the shard's heap, so
                    // a sync deadline can never precede the earliest
                    // local work (and an empty shard has none).
                    bv[k] = match (tv[k], pool[perm[k + 3]]) {
                        (Some(tk), Some(raw)) => Some(raw.max(tk)),
                        _ => None,
                    };
                }
                checked += 1;
                let Some(t_min) = tv.iter().flatten().copied().min() else {
                    return;
                };
                adaptive_bounds(
                    &tv.map(raw),
                    &bv.map(raw),
                    influence,
                    run_end.as_ns(),
                    &mut a_buf,
                    &mut e_buf,
                );
                let e_buf: Vec<SimTime> = e_buf.iter().map(|&e| t(e)).collect();
                let b_min = bv.iter().flatten().copied().min();
                for k in 0..3 {
                    for o in 0..3 {
                        if o == k {
                            continue;
                        }
                        let Some(la) = influence[o * 3 + k] else {
                            continue;
                        };
                        let direct =
                            crate::engine::earliest([bv[o], tv[o].map(|x| x.saturating_add(la))]);
                        if let Some(direct) = direct {
                            assert!(
                                e_buf[k] <= direct,
                                "safety: E[{k}]={} exceeds direct bound {} of edge {o}→{k} \
                                 (t={tv:?} b={bv:?})",
                                e_buf[k],
                                direct
                            );
                        }
                    }
                    let la_in = (0..3)
                        .filter(|&o| o != k)
                        .filter_map(|o| influence[o * 3 + k])
                        .min();
                    let mut fixed = run_end;
                    if let Some(b) = b_min {
                        fixed = fixed.min(b);
                    }
                    if let Some(la) = la_in {
                        fixed = fixed.min(t_min.saturating_add(la));
                    }
                    assert!(
                        e_buf[k] >= fixed,
                        "progress: E[{k}]={} narrower than fixed bound {} \
                         (t={tv:?} b={bv:?})",
                        e_buf[k],
                        fixed
                    );
                }
            });
        }
        assert_eq!(
            checked,
            2 * 720,
            "all arrangements × both shapes enumerated"
        );
    }

    /// [`adaptive_bounds`] as the coordinator computed it before it
    /// moved to raw nanoseconds: an `Option` per instant and per edge
    /// sum. Kept as the oracle the `u64` version must equal.
    fn adaptive_bounds_oracle(
        t: &[Option<SimTime>],
        b: &[Option<SimTime>],
        influence: &[Option<Dur>],
        run_end: SimTime,
    ) -> (Vec<Option<SimTime>>, Vec<SimTime>) {
        let n = t.len();
        let mut a = t.to_vec();
        for _ in 0..n {
            let mut changed = false;
            for k in 0..n {
                for o in 0..n {
                    if o == k {
                        continue;
                    }
                    let Some(la) = influence[o * n + k] else {
                        continue;
                    };
                    let m = crate::engine::earliest([b[o], a[o].map(|a| a.saturating_add(la))]);
                    if let Some(m) = m {
                        if a[k].is_none_or(|a| m < a) {
                            a[k] = Some(m);
                            changed = true;
                        }
                    }
                }
            }
            if !changed {
                break;
            }
        }
        let mut e = Vec::new();
        for k in 0..n {
            let mut ek = run_end;
            for o in 0..n {
                if o == k {
                    continue;
                }
                let Some(la) = influence[o * n + k] else {
                    continue;
                };
                let m = crate::engine::earliest([b[o], a[o].map(|a| a.saturating_add(la))]);
                if let Some(m) = m {
                    ek = ek.min(m);
                }
            }
            e.push(ek);
        }
        (a, e)
    }

    #[test]
    fn adaptive_bounds_in_u64_equal_the_option_oracle() {
        // PCG-driven inputs at 1 to 8 shards: instants that are mostly
        // absent, some at or just below `SimTime::MAX` (where an
        // absent instant and a saturated sum meet), influence rows that
        // are mostly empty, and lookaheads large enough to saturate.
        let mut rng = crate::rng::Pcg32::new(30, 1);
        let instant = |rng: &mut crate::rng::Pcg32| match rng.below(8) {
            0..=3 => None,
            4 => Some(SimTime::MAX),
            5 => Some(t(u64::MAX - rng.below(64))),
            _ => Some(t(rng.below(1_000))),
        };
        let (mut a_buf, mut e_buf) = (Vec::new(), Vec::new());
        let mut saturated = 0u32;
        for case in 0..20_000 {
            let n = 1 + rng.index(8);
            let tv: Vec<Option<SimTime>> = (0..n).map(|_| instant(&mut rng)).collect();
            let bv: Vec<Option<SimTime>> = (0..n).map(|_| instant(&mut rng)).collect();
            let influence: Vec<Option<Dur>> = (0..n * n)
                .map(|i| {
                    let edge = i / n != i % n && rng.below(3) == 0;
                    edge.then(|| match rng.below(4) {
                        0 => Dur::from_ns(u64::MAX - rng.below(64)),
                        _ => Dur::from_ns(1 + rng.below(200)),
                    })
                })
                .collect();
            let run_end = match rng.below(4) {
                0 => SimTime::MAX,
                _ => t(rng.below(2_000)),
            };
            let (a, e) = adaptive_bounds_oracle(&tv, &bv, &influence, run_end);
            let raw_t: Vec<u64> = tv.iter().map(|&x| raw(x)).collect();
            let raw_b: Vec<u64> = bv.iter().map(|&x| raw(x)).collect();
            adaptive_bounds(
                &raw_t,
                &raw_b,
                &influence,
                run_end.as_ns(),
                &mut a_buf,
                &mut e_buf,
            );
            let want_a: Vec<u64> = a.iter().map(|&x| raw(x)).collect();
            let want_e: Vec<u64> = e.iter().map(|x| x.as_ns()).collect();
            assert_eq!(a_buf, want_a, "case {case}: A (t={tv:?} b={bv:?})");
            assert_eq!(e_buf, want_e, "case {case}: E (t={tv:?} b={bv:?})");
            saturated += u32::from(a.contains(&Some(SimTime::MAX)));
        }
        assert!(
            saturated > 1_000,
            "saturated fixpoints exercised: {saturated}"
        );
    }

    #[test]
    fn runahead_span_in_u64_equals_the_u128_formula() {
        // The formula as the coordinator computed it before: every
        // product in `u128`.
        let wide = |events: u64, shards: u64, t: u64, lambda: u64| -> u64 {
            let floor = lambda.saturating_mul(2);
            if events == 0 {
                return floor;
            }
            let span = u128::from(RUNAHEAD_MIN_EVENTS) * u128::from(shards) * u128::from(t)
                / u128::from(events);
            u64::try_from(span).unwrap_or(u64::MAX).max(floor)
        };
        let mut rng = crate::rng::Pcg32::new(30, 2);
        let mut overflowed = 0u32;
        for _ in 0..100_000 {
            let shards = 1 + rng.below(8);
            // Around the largest instant whose product still fits.
            let edge = u64::MAX / (RUNAHEAD_MIN_EVENTS * shards);
            let t = match rng.below(4) {
                0 => rng.next_u64(),
                1 => edge - 2 + rng.below(5),
                2 => u64::MAX - rng.below(1 << 20),
                _ => rng.below(1 << 40),
            };
            let events = match rng.below(4) {
                0 => 0,
                1 => 1 + rng.below(10),
                2 => rng.next_u64(),
                _ => 1 + rng.below(1 << 30),
            };
            let lambda = match rng.below(3) {
                0 => 0,
                1 => rng.below(1_000_000),
                _ => rng.next_u64(),
            };
            overflowed += u32::from(t > edge);
            assert_eq!(
                runahead_span(events, shards, t, lambda),
                wide(events, shards, t, lambda),
                "events {events}, shards {shards}, t {t}, lambda {lambda}"
            );
        }
        assert!(
            overflowed > 10_000,
            "overflowing products exercised: {overflowed}"
        );
    }

    // ------------------------------------------------------------------
    // A toy two-shard topology exercising windows, sync instants and
    // mailboxes, checked for bit-identical results against one shard
    // running the same node set.
    //
    // Node graph: a `Source` on shard 0 fires every `period`, routed as
    // a command into a `Relay` (sync-class, shard 0) that holds each
    // item for `latency` and then emits it; the relay's emissions are
    // routed to a `Counter` on shard 1.
    // ------------------------------------------------------------------

    #[derive(Debug, PartialEq)]
    enum Toy {
        Source {
            next: Option<SimTime>,
            period: Dur,
            remaining: u32,
            fired: u64,
        },
        Relay {
            ready: std::collections::VecDeque<SimTime>,
            latency: Dur,
            forwarded: u64,
        },
        Counter {
            received: u64,
            last: Option<SimTime>,
        },
    }

    impl Component for Toy {
        type Cmd = u32;
        type Out = u32;

        fn next_deadline(&self) -> Option<SimTime> {
            match self {
                Toy::Source { next, .. } => *next,
                Toy::Relay { ready, .. } => ready.front().copied(),
                Toy::Counter { .. } => None,
            }
        }

        fn advance(&mut self, now: SimTime, sink: &mut impl Sink<u32>) {
            match self {
                Toy::Source {
                    next,
                    period,
                    remaining,
                    fired,
                } => {
                    if *next == Some(now) {
                        *fired += 1;
                        *remaining -= 1;
                        sink.push(0);
                        *next = (*remaining > 0).then(|| now + *period);
                    }
                }
                Toy::Relay {
                    ready, forwarded, ..
                } => {
                    while ready.front().is_some_and(|&r| r <= now) {
                        ready.pop_front();
                        *forwarded += 1;
                        sink.push(1);
                    }
                }
                Toy::Counter { .. } => {}
            }
        }

        fn handle(&mut self, now: SimTime, _cmd: u32, _sink: &mut impl Sink<u32>) {
            match self {
                Toy::Source { .. } => {}
                Toy::Relay { ready, latency, .. } => ready.push_back(now + *latency),
                Toy::Counter { received, last } => {
                    *received += 1;
                    *last = Some(now);
                }
            }
        }

        fn publish_telemetry(&self, scope: &mut crate::telemetry::Scope<'_>) {
            match self {
                Toy::Source { fired, .. } => scope.counter("fired", *fired),
                Toy::Relay { forwarded, .. } => scope.counter("forwarded", *forwarded),
                Toy::Counter { received, last } => {
                    scope.counter("received", *received);
                    scope.gauge("last_ns", last.map(|t| t.as_ns() as i64).unwrap_or(-1));
                }
            }
        }
    }

    impl Persist for Toy {
        fn persist(&self, enc: &mut Enc) {
            match self {
                Toy::Source {
                    next,
                    period,
                    remaining,
                    fired,
                } => {
                    enc.u8(0);
                    enc.opt(next.as_ref(), |e, t| e.time(*t));
                    enc.dur(*period);
                    enc.u32(*remaining);
                    enc.u64(*fired);
                }
                Toy::Relay {
                    ready,
                    latency,
                    forwarded,
                } => {
                    enc.u8(1);
                    enc.seq_len(ready.len());
                    for &r in ready {
                        enc.time(r);
                    }
                    enc.dur(*latency);
                    enc.u64(*forwarded);
                }
                Toy::Counter { received, last } => {
                    enc.u8(2);
                    enc.u64(*received);
                    enc.opt(last.as_ref(), |e, t| e.time(*t));
                }
            }
        }

        fn restore(&mut self, dec: &mut Dec<'_>) -> Result<(), PersistError> {
            *self = match dec.u8()? {
                0 => Toy::Source {
                    next: dec.opt(|d| d.time())?,
                    period: dec.dur()?,
                    remaining: dec.u32()?,
                    fired: dec.u64()?,
                },
                1 => {
                    let n = dec.seq_len()?;
                    let mut ready = std::collections::VecDeque::with_capacity(n);
                    for _ in 0..n {
                        ready.push_back(dec.time()?);
                    }
                    Toy::Relay {
                        ready,
                        latency: dec.dur()?,
                        forwarded: dec.u64()?,
                    }
                }
                2 => Toy::Counter {
                    received: dec.u64()?,
                    last: dec.opt(|d| d.time())?,
                },
                tag => return Err(PersistError::BadTag { what: "Toy", tag }),
            };
            Ok(())
        }
    }

    /// Static toy wiring: source(0) → relay(1) → counter(2); absorbed
    /// routing is counted so router-state merging is exercised too.
    struct ToyRouter {
        routed: u64,
    }

    impl Persist for ToyRouter {
        fn persist(&self, enc: &mut Enc) {
            enc.u64(self.routed);
        }
        fn restore(&mut self, dec: &mut Dec<'_>) -> Result<(), PersistError> {
            self.routed = dec.u64()?;
            Ok(())
        }
    }

    impl Router<Toy> for ToyRouter {
        fn route(&mut self, _now: SimTime, src: NodeId, _event: u32, sink: &mut CmdSink<u32>) {
            self.routed += 1;
            match src.0 {
                0 => sink.push(NodeId(1), 0),
                1 => sink.push(NodeId(2), 0),
                _ => {}
            }
        }
    }

    impl MergeTelemetry for ToyRouter {
        fn publish_merged(parts: &[&Self], reg: &mut Registry) {
            reg.counter("toy.routed", parts.iter().map(|r| r.routed).sum());
        }
    }

    fn toy_nodes() -> [Toy; 3] {
        [
            Toy::Source {
                next: Some(t(1_000)),
                period: Dur::from_ns(700),
                remaining: 40,
                fired: 0,
            },
            Toy::Relay {
                ready: std::collections::VecDeque::new(),
                latency: Dur::from_ns(350),
                forwarded: 0,
            },
            Toy::Counter {
                received: 0,
                last: None,
            },
        ]
    }

    #[test]
    fn sharded_toy_matches_single_threaded_harness() {
        let horizon = t(40_000);
        // Ground truth: one shard, one thread.
        let mut single = Harness::new(vec![ToyRouter { routed: 0 }], 64, Dur::ZERO);
        for (node, label) in toy_nodes().into_iter().zip(["src", "relay", "dst"]) {
            single.add_node_labeled(node, label, 0, false);
        }
        single.run_until(horizon);
        let single_json = single.telemetry_json();

        // Sharded: relay is the sync node; its 350 ns latency is the
        // lookahead. Counter lives alone on shard 1.
        let mut sharded = Harness::new(
            vec![ToyRouter { routed: 0 }, ToyRouter { routed: 0 }],
            64,
            Dur::from_ns(350),
        );
        let [src, relay, dst] = toy_nodes();
        sharded.add_node_labeled(src, "src", 0, false);
        sharded.add_node_labeled(relay, "relay", 0, true);
        sharded.add_node_labeled(dst, "dst", 1, false);
        sharded.run_until(horizon);

        assert_eq!(sharded.telemetry_json(), single_json);
        assert_eq!(sharded.events(), single.events());
        assert_eq!(sharded.now(), single.now());
        // The cross-shard path really was exercised through mailboxes.
        let sent: u64 = (0..2).map(|k| sharded.shard_stats(k).mailbox_sent).sum();
        assert_eq!(sent, 40, "every relayed item crossed the boundary");
        // The windows pipeline the whole chain without a barrier: shard
        // 0 (which nothing influences) runs at most one runahead span
        // past its own clock per window while shard 1 drains the mail of
        // the span before, in 6 windows.
        let reg = sharded.exec_telemetry();
        assert_eq!(reg.counter_value("sched.sync_instants"), Some(0));
        assert_eq!(reg.counter_value("sched.windows"), Some(6));
        // A handful of events per window stays on the caller.
        assert_eq!(reg.counter_value("sched.worker_windows"), Some(0));
    }

    #[test]
    fn a_panic_in_a_worker_window_reaches_the_caller() {
        // Two uncoupled shards of 10 ns tickers: with no cut edge the
        // run call is one window, and the second call's window is fat
        // (500 events per shard before it), so on a multi-core machine
        // shard 1 runs it on a worker — where its node panics.
        struct Bomb {
            next: SimTime,
            fuse: SimTime,
        }
        impl Component for Bomb {
            type Cmd = u32;
            type Out = u32;
            fn next_deadline(&self) -> Option<SimTime> {
                Some(self.next)
            }
            fn advance(&mut self, now: SimTime, _sink: &mut impl Sink<u32>) {
                assert!(now < self.fuse, "bomb went off at {now}");
                self.next = now + Dur::from_ns(10);
            }
            fn handle(&mut self, _now: SimTime, _cmd: u32, _sink: &mut impl Sink<u32>) {}
        }
        struct Quiet;
        impl Router<Bomb> for Quiet {
            fn route(&mut self, _now: SimTime, _src: NodeId, _e: u32, _sink: &mut CmdSink<u32>) {}
        }
        impl MergeTelemetry for Quiet {
            fn publish_merged(_parts: &[&Self], _reg: &mut Registry) {}
        }
        let mut h = Harness::new(vec![Quiet, Quiet], 64, Dur::ZERO);
        for (shard, fuse) in [(0, SimTime::MAX), (1, t(15_000))] {
            let bomb = Bomb { next: t(10), fuse };
            h.add_node_labeled(bomb, format!("b{shard}"), shard, false);
        }
        h.run_until(t(5_000));
        let caught = catch_unwind(AssertUnwindSafe(|| h.run_until(t(20_000))));
        let payload = caught.expect_err("the panic must reach the caller");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert_eq!(msg, format!("bomb went off at {}", t(15_000)));
        let on_worker = h
            .exec_telemetry()
            .counter_value("sched.worker_windows")
            .unwrap_or(0);
        if cores() >= 2 {
            assert_eq!(on_worker, 1, "the fat window ran on the worker");
        }
        // Dropping the harness joins the worker; the test ending proves
        // it did not hang.
        drop(h);
    }

    #[test]
    fn independent_shards_run_without_sync_nodes() {
        // No sync nodes at all: each shard gets one self-contained
        // source; the run must cover the horizon in one window per
        // shard with zero mailbox traffic.
        struct Absorb;
        impl Router<Toy> for Absorb {
            fn route(&mut self, _now: SimTime, _src: NodeId, _e: u32, _sink: &mut CmdSink<u32>) {}
        }
        impl Persist for Absorb {
            fn persist(&self, _enc: &mut Enc) {}
            fn restore(&mut self, _dec: &mut Dec<'_>) -> Result<(), PersistError> {
                Ok(())
            }
        }
        impl MergeTelemetry for Absorb {
            fn publish_merged(_parts: &[&Self], _reg: &mut Registry) {}
        }
        let mut sharded = Harness::new(vec![Absorb, Absorb], 64, Dur::ZERO);
        for k in 0..2 {
            sharded.add_node_labeled(
                Toy::Source {
                    next: Some(t(10 + k as u64)),
                    period: Dur::from_ns(100),
                    remaining: 25,
                    fired: 0,
                },
                format!("s{k}"),
                k,
                false,
            );
        }
        sharded.run_until(t(1_000_000));
        let reg = sharded.exec_telemetry();
        assert_eq!(reg.counter_value("sched.sync_instants"), Some(0));
        assert_eq!(reg.counter_value("sched.mail_rounds"), Some(0));
        let collected = sharded.collect_telemetry();
        assert_eq!(collected.counter_value("s0.fired"), Some(25));
        assert_eq!(collected.counter_value("s1.fired"), Some(25));
        assert_eq!(sharded.events(), 50);
    }

    #[test]
    fn cross_shard_emission_from_a_window_is_a_typed_error() {
        // The source routes straight to a node on the other shard with
        // no sync-class relay in between: the first window must fail
        // with a typed CrossShard error rather than deliver mail late
        // (or kill the process, as it did before the error existed).
        struct BadRouter;
        impl Router<Toy> for BadRouter {
            fn route(&mut self, _now: SimTime, src: NodeId, _e: u32, sink: &mut CmdSink<u32>) {
                if src.0 == 0 {
                    sink.push(NodeId(1), 0);
                }
            }
        }
        impl Persist for BadRouter {
            fn persist(&self, _enc: &mut Enc) {}
            fn restore(&mut self, _dec: &mut Dec<'_>) -> Result<(), PersistError> {
                Ok(())
            }
        }
        impl MergeTelemetry for BadRouter {
            fn publish_merged(_parts: &[&Self], _reg: &mut Registry) {}
        }
        let mut sharded = Harness::new(vec![BadRouter, BadRouter], 64, Dur::from_ns(1));
        sharded.add_node_labeled(
            Toy::Source {
                next: Some(t(5)),
                period: Dur::from_ns(5),
                remaining: 1,
                fired: 0,
            },
            "src",
            0,
            false,
        );
        sharded.add_node_labeled(
            Toy::Counter {
                received: 0,
                last: None,
            },
            "dst",
            1,
            true, // sync-class but idle: windows still open, then src trips the guard
        );
        let err = sharded.try_run_until(t(1_000)).unwrap_err();
        match err {
            CascadeError::CrossShard {
                at,
                src,
                dst,
                src_shard,
                dst_shard,
            } => {
                assert_eq!(at, t(5));
                assert_eq!(src, NodeId(0));
                assert_eq!(dst, NodeId(1));
                assert_eq!((src_shard, dst_shard), (0, 1));
            }
            other => panic!("expected CrossShard, got {other:?}"),
        }
        assert!(err.to_string().contains("protocol violation"), "{err}");
        // Poisoned like any other cascade failure, with the trail.
        assert_eq!(sharded.failure(), Some(err));
        assert_eq!(sharded.try_run_until(t(2_000)), Err(err));
        let reg = sharded.telemetry();
        assert_eq!(reg.events().len(), 1);
        assert!(reg.events()[0].detail.contains("cross-shard emission"));
    }

    #[test]
    fn injected_fallout_crosses_shards_through_mail_rounds() {
        // An injected command whose fallout bounces between two shards
        // at the injection instant: every hop is a cross-shard command
        // from a non-sync node, which an injection mails and the
        // exchange rounds deliver. The result must equal one shard's.
        struct Bounce {
            hits: u64,
        }
        impl Component for Bounce {
            type Cmd = u32;
            type Out = u32;
            fn next_deadline(&self) -> Option<SimTime> {
                None
            }
            fn advance(&mut self, _now: SimTime, _sink: &mut impl Sink<u32>) {}
            fn handle(&mut self, _now: SimTime, v: u32, sink: &mut impl Sink<u32>) {
                self.hits += 1;
                if v < 5 {
                    sink.push(v + 1);
                }
            }
            fn publish_telemetry(&self, scope: &mut crate::telemetry::Scope<'_>) {
                scope.counter("hits", self.hits);
            }
        }
        struct Across;
        impl Router<Bounce> for Across {
            fn route(&mut self, _now: SimTime, src: NodeId, v: u32, sink: &mut CmdSink<u32>) {
                sink.push(NodeId(1 - src.0), v);
            }
        }
        impl MergeTelemetry for Across {
            fn publish_merged(_parts: &[&Self], _reg: &mut Registry) {}
        }
        let run = |shards: usize| {
            let mut h = Harness::new((0..shards).map(|_| Across).collect(), 64, Dur::ZERO);
            h.add_node_labeled(Bounce { hits: 0 }, "a", 0, false);
            h.add_node_labeled(Bounce { hits: 0 }, "b", shards - 1, false);
            h.run_until(t(10));
            h.inject(NodeId(0), 0).expect("bounded fallout converges");
            h.run_until(t(20));
            let rounds = h.exec_telemetry().counter_value("sched.mail_rounds");
            (h.telemetry_json(), h.events(), rounds)
        };
        let (one, one_events, _) = run(1);
        let (two, two_events, rounds) = run(2);
        assert_eq!(two, one);
        assert_eq!((two_events, one_events), (6, 6));
        assert_eq!(rounds, Some(5), "each hop after the first is one round");
    }

    #[test]
    fn sync_instant_failure_poisons_with_a_telemetry_trail() {
        // Two echoes wired to each other across the boundary: every
        // delivered command re-emits immediately, so each mailbox
        // exchange round at the first instant produces the next — the
        // round guard must trip like a same-instant cascade overflow.
        struct Echo {
            armed: bool,
        }
        impl Component for Echo {
            type Cmd = u32;
            type Out = u32;
            fn next_deadline(&self) -> Option<SimTime> {
                self.armed.then(|| SimTime::from_ns(10))
            }
            fn advance(&mut self, _now: SimTime, sink: &mut impl Sink<u32>) {
                if self.armed {
                    self.armed = false;
                    sink.push(0);
                }
            }
            fn handle(&mut self, _now: SimTime, v: u32, sink: &mut impl Sink<u32>) {
                sink.push(v + 1);
            }
        }
        impl Persist for Echo {
            fn persist(&self, enc: &mut Enc) {
                enc.bool(self.armed);
            }
            fn restore(&mut self, dec: &mut Dec<'_>) -> Result<(), PersistError> {
                self.armed = dec.bool()?;
                Ok(())
            }
        }
        struct PingPong;
        impl Persist for PingPong {
            fn persist(&self, _enc: &mut Enc) {}
            fn restore(&mut self, _dec: &mut Dec<'_>) -> Result<(), PersistError> {
                Ok(())
            }
        }
        impl Router<Echo> for PingPong {
            fn route(&mut self, _now: SimTime, src: NodeId, event: u32, sink: &mut CmdSink<u32>) {
                // echo 0 (shard 0) ↔ echo 1 (shard 1)
                sink.push(NodeId(1 - src.0), event);
            }
        }
        impl MergeTelemetry for PingPong {
            fn publish_merged(_parts: &[&Self], _reg: &mut Registry) {}
        }
        let mut sharded = Harness::new(vec![PingPong, PingPong], 8, Dur::from_ns(1));
        sharded.add_node_labeled(Echo { armed: true }, "a", 0, true);
        sharded.add_node_labeled(Echo { armed: false }, "b", 1, true);
        let err = sharded.try_run_until(t(100)).unwrap_err();
        assert_eq!(err.at(), t(10));
        assert!(err.steps() > 8);
        assert_eq!(sharded.failure(), Some(err));
        assert_eq!(sharded.try_run_until(t(200)), Err(err));
        let reg = sharded.telemetry();
        assert_eq!(reg.events().len(), 1);
        assert_eq!(reg.events()[0].path, "sim.cascade.overflow");
        let snap = reg.phase("cascade-failure").expect("final snapshot");
        assert!(matches!(
            snap.get("sim.cascade.overflows"),
            Some(Value::Counter(1))
        ));
    }
}
