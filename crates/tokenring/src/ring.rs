//! The 4 Mbit Token Ring medium.
//!
//! Models the token-access protocol the paper's guarantees rest on (§3):
//!
//! * **single token** — one frame occupies the ring at a time; a
//!   transmitter finishes a frame before the next can start, which (with an
//!   in-order driver queue) yields the paper's packet-sequence guarantee;
//! * **priority and reservation** — a station only captures a token whose
//!   priority is at or below its frame's priority; at token release the
//!   priority is recomputed from the highest-priority frame waiting
//!   anywhere on the ring (this is the effect the 802.5
//!   reservation/stacking machinery achieves within one rotation);
//! * **hardware delivery confirmation** — the transmitter strips its own
//!   frame and sees the address-recognized/frame-copied bits, so it knows
//!   at interrupt level whether the packet was received;
//! * **Ring Purge** — the Active Monitor resets the ring after station
//!   insertions and soft errors; any in-flight frame is lost *silently*
//!   (the paper's adapters raise no interrupt for purges, §4), and the
//!   medium is unusable for the purge sequence's duration.
//!
//! The ring is a passive [`Component`]: adapters submit frames, the ring
//! reports deliveries, strips, observations (for the TAP monitor) and purge
//! activity.

use crate::frame::{Frame, FrameId, FrameKind, MacKind, StationId, TOKEN_BITS};
use ctms_sim::{Component, Dur, Pcg32, SimTime, Sink};
use std::collections::VecDeque;

/// Static configuration of the ring.
#[derive(Clone, Debug)]
pub struct RingConfig {
    /// Signalling rate; the paper's ring is 4 Mbit/s.
    pub bit_rate_bps: u64,
    /// Per-station repeat latency in bits.
    pub station_delay_bits: u64,
    /// Fixed latency (active-monitor elastic buffer + propagation) in bits.
    pub fixed_latency_bits: u64,
    /// Duration of a single Ring Purge (monitor purge frame circulation +
    /// ring recovery). Calibrated so that ~10 back-to-back purges plus the
    /// ring timeout span the paper's 120–130 ms outliers.
    pub purge_duration: Dur,
    /// Additional one-off "ring timing out and resetting" cost at the start
    /// of a purge sequence (§5.3 attributes ~10 ms to this).
    pub purge_timeout: Dur,
    /// Number of back-to-back purges for a station insertion, inclusive
    /// range (§5.3: "on the order of 10 Ring Purges back to back").
    pub insertion_purges: (u32, u32),
    /// Poisson rate of background MAC frames (ring polls etc.); the paper
    /// observes 50–250 MAC frames/s (0.2–1.0 % of a 4 Mbit ring, §4).
    pub mac_rate_per_sec: f64,
    /// Whether the 802.5 priority mechanism is honoured. Disabling it is
    /// the §5.3 ablation "use of the same level of priority as all other
    /// packets on the ring".
    pub priority_enabled: bool,
    /// Per-station transmit queue cap; overflow frames are dropped with a
    /// [`RingOut::QueueDrop`].
    pub station_queue_cap: usize,
}

impl Default for RingConfig {
    fn default() -> Self {
        RingConfig {
            bit_rate_bps: 4_000_000,
            station_delay_bits: 2,
            fixed_latency_bits: 32,
            purge_duration: Dur::from_ms(11),
            purge_timeout: Dur::from_ms(10),
            insertion_purges: (8, 12),
            mac_rate_per_sec: 50.0,
            priority_enabled: true,
            station_queue_cap: 64,
        }
    }
}

/// Ring disturbances injected by the workload layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Disturb {
    /// A station inserting/reinserting into the ring: a burst of purges.
    StationInsertion,
    /// A transient soft error: a single purge.
    SoftError,
}

/// Commands into the ring.
#[derive(Clone, Debug)]
pub enum RingCmd {
    /// Submit a frame for transmission from its `src` station's queue.
    Submit(Frame),
    /// Inject a disturbance (purge sequence).
    Disturb(Disturb),
}

/// A TAP-visible observation of a frame on the wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrameView {
    /// Access Control byte.
    pub ac: u8,
    /// Frame Control byte.
    pub fc: u8,
    /// Total on-wire length in bytes.
    pub wire_bytes: u32,
    /// Transmitting station.
    pub src: StationId,
    /// Destination (None = broadcast).
    pub dst: Option<StationId>,
    /// Frame classification.
    pub kind: FrameKind,
    /// Measurement tag (CTMSP packet number).
    pub tag: u64,
    /// Simulation frame id.
    pub id: FrameId,
}

/// Events out of the ring.
#[derive(Clone, Debug)]
pub enum RingOut {
    /// The frame has fully arrived at the destination adapter.
    Delivered { to: StationId, frame: Frame },
    /// The transmitter stripped its frame: transmission is over.
    /// `delivered` is the copied-bit ground truth; on a purge loss the
    /// paper's adapter surfaces no error, so the adapter layer treats every
    /// strip as a normal transmit completion.
    Stripped {
        from: StationId,
        id: FrameId,
        tag: u64,
        delivered: bool,
    },
    /// A promiscuous monitor (TAP) would record this frame here.
    Observed(FrameView),
    /// An in-flight frame was destroyed by a purge.
    LostToPurge { id: FrameId, tag: u64 },
    /// A purge sequence began (`purges` back-to-back purges).
    PurgeStarted { purges: u32 },
    /// The purge sequence finished; the ring is usable again.
    PurgeEnded,
    /// A station transmit queue overflowed and dropped this frame.
    QueueDrop { station: StationId, id: FrameId },
}

#[derive(Debug)]
struct Station {
    queue: StationQueue,
}

/// A station's transmit queue of `(frame, submitted)` entries, in FIFO
/// order. Most stations wait on one frame at a time (a MAC frame now
/// and then), so the head lives inline and only a second waiting frame
/// allocates: a 10^4-ring tree saves a 192-byte `VecDeque` at each of
/// its 42,499 stations. `rest` is non-empty only while `head` is
/// occupied.
#[derive(Debug, Default)]
struct StationQueue {
    head: Option<(Frame, SimTime)>,
    rest: VecDeque<(Frame, SimTime)>,
}

impl StationQueue {
    fn len(&self) -> usize {
        usize::from(self.head.is_some()) + self.rest.len()
    }

    fn is_empty(&self) -> bool {
        self.head.is_none()
    }

    fn front(&self) -> Option<&(Frame, SimTime)> {
        self.head.as_ref()
    }

    fn push_back(&mut self, entry: (Frame, SimTime)) {
        if self.head.is_none() {
            self.head = Some(entry);
        } else {
            self.rest.push_back(entry);
        }
    }

    fn pop_front(&mut self) -> Option<(Frame, SimTime)> {
        let head = self.head.take()?;
        self.head = self.rest.pop_front();
        Some(head)
    }

    fn iter(&self) -> impl Iterator<Item = &(Frame, SimTime)> {
        self.head.iter().chain(&self.rest)
    }
}

impl FromIterator<(Frame, SimTime)> for StationQueue {
    fn from_iter<I: IntoIterator<Item = (Frame, SimTime)>>(entries: I) -> Self {
        let mut queue = StationQueue::default();
        for entry in entries {
            queue.push_back(entry);
        }
        queue
    }
}

#[derive(Clone, Debug)]
struct Busy {
    frame: Frame,
    captured_at: SimTime,
    /// Priority of the token this transmission captured (the release
    /// priority before any raise).
    captured_priority: u8,
    observe_at: Option<SimTime>,
    /// Pending deliveries, earliest first. Unicast frames have one entry;
    /// broadcast LLC frames (ARP) one per other inserted station.
    deliveries: VecDeque<(SimTime, StationId)>,
    strip_at: SimTime,
    will_deliver: bool,
}

/// What the free token does next.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum TokenAction {
    /// A station captures it to transmit.
    Capture(StationId),
    /// A stacking station catches it to lower the priority.
    Lower(StationId),
}

#[derive(Clone, Debug)]
enum Medium {
    /// Token circulating from `at` since `released_at` with `priority`.
    TokenFree {
        released_at: SimTime,
        at: StationId,
        priority: u8,
    },
    /// A frame on the ring.
    Busy(Busy),
    /// Purge sequence in progress.
    Purging {
        until: SimTime,
        obs: VecDeque<SimTime>,
    },
}

/// Running counters for utilization and reliability claims.
#[derive(Clone, Copy, Debug, Default)]
pub struct RingStats {
    /// Frames fully transmitted (stripped).
    pub frames_sent: u64,
    /// Frames delivered to their destination.
    pub frames_delivered: u64,
    /// Frames destroyed by purges.
    pub frames_lost: u64,
    /// MAC frames transmitted.
    pub mac_frames: u64,
    /// Individual purges (not sequences).
    pub purges: u64,
    /// Purge sequences (disturbances).
    pub purge_sequences: u64,
    /// Nanoseconds the medium carried a frame.
    pub busy_ns: u64,
    /// Frames dropped at station queues.
    pub queue_drops: u64,
    /// Token priority raises (a station stacked).
    pub priority_raises: u64,
    /// Token priority lowers (a stacking station caught its token).
    pub priority_lowers: u64,
}

impl ctms_sim::Instrument for RingStats {
    fn publish(&self, scope: &mut ctms_sim::telemetry::Scope<'_>) {
        scope.counter("frames_sent", self.frames_sent);
        scope.counter("frames_delivered", self.frames_delivered);
        scope.counter("frames_lost", self.frames_lost);
        scope.counter("mac_frames", self.mac_frames);
        scope.counter("purges", self.purges);
        scope.counter("purge_sequences", self.purge_sequences);
        scope.counter("busy_ns", self.busy_ns);
        scope.counter("queue_drops", self.queue_drops);
        scope.counter("priority_raises", self.priority_raises);
        scope.counter("priority_lowers", self.priority_lowers);
    }
}

/// The Token Ring medium model. See the module docs.
#[derive(Debug)]
pub struct TokenRing {
    cfg: RingConfig,
    rng: Pcg32,
    stations: Vec<Station>,
    state: Medium,
    next_mac_at: Option<SimTime>,
    next_frame_id: u64,
    /// 802.5 priority stacking: stations that raised the token priority
    /// record `(old, new, station)` and must later catch the token to
    /// lower it. The protocol guarantees LIFO order, so one stack
    /// suffices for the whole ring.
    stack: Vec<(u8, u8, StationId)>,
    stats: RingStats,
    /// Station indices with a non-empty transmit queue, ascending. The
    /// deadline query (`next_token_action`, via the harness scheduler's
    /// reschedule) runs on every touched instant and only cares about
    /// stations with work; keeping the busy set explicit turns its scan
    /// of all stations into a scan of the (usually 0–2) waiting ones.
    /// Ascending order preserves the lowest-station-wins tie-break of
    /// the full scan. Derived state: rebuilt from the queues on restore.
    busy: Vec<u32>,
}

impl TokenRing {
    /// Creates a ring with no stations; the token idles at position 0.
    pub fn new(cfg: RingConfig, mut rng: Pcg32) -> Self {
        let next_mac_at = if cfg.mac_rate_per_sec > 0.0 {
            Some(SimTime::ZERO + rng.exp_dur(Dur::from_secs_f64(1.0 / cfg.mac_rate_per_sec)))
        } else {
            None
        };
        TokenRing {
            cfg,
            rng,
            stations: Vec::new(),
            state: Medium::TokenFree {
                released_at: SimTime::ZERO,
                at: StationId(0),
                priority: 0,
            },
            next_mac_at,
            next_frame_id: 1,
            stack: Vec::new(),
            stats: RingStats::default(),
            busy: Vec::new(),
        }
    }

    /// Marks `idx`'s queue non-empty (sorted insert, no-op if present).
    fn mark_busy(&mut self, idx: u32) {
        if let Err(slot) = self.busy.binary_search(&idx) {
            self.busy.insert(slot, idx);
        }
    }

    /// Marks `idx`'s queue empty.
    fn mark_idle(&mut self, idx: u32) {
        if let Ok(slot) = self.busy.binary_search(&idx) {
            self.busy.remove(slot);
        }
    }

    /// Attaches a station before the run starts and returns its id.
    pub fn add_station(&mut self) -> StationId {
        self.stations.push(Station {
            queue: StationQueue::default(),
        });
        StationId(self.stations.len() as u32 - 1)
    }

    /// Number of attached stations.
    pub fn station_count(&self) -> usize {
        self.stations.len()
    }

    /// Allocates a fresh simulation-unique frame id.
    pub fn alloc_frame_id(&mut self) -> FrameId {
        let id = FrameId(self.next_frame_id);
        self.next_frame_id += 1;
        id
    }

    /// The configured ring.
    pub fn config(&self) -> &RingConfig {
        &self.cfg
    }

    /// Counters so far.
    pub fn stats(&self) -> RingStats {
        self.stats
    }

    /// Duration of one bit on the wire.
    pub fn bit_time(&self) -> Dur {
        Dur::from_ns(1_000_000_000 / self.cfg.bit_rate_bps)
    }

    /// One full rotation of the idle ring.
    pub fn ring_latency(&self) -> Dur {
        let bits = self.stations.len() as u64 * self.cfg.station_delay_bits
            + self.cfg.fixed_latency_bits
            + TOKEN_BITS;
        self.bit_time() * bits.max(1)
    }

    /// Time for the leading edge of a signal to travel from `from` to `to`
    /// (a full rotation when `from == to`).
    fn walk(&self, from: StationId, to: StationId) -> Dur {
        let n = self.stations.len() as u64;
        if n == 0 {
            return self.ring_latency();
        }
        let l = self.ring_latency();
        let hops = (u64::from(to.0) + n - u64::from(from.0)) % n;
        if hops == 0 {
            l
        } else {
            Dur::from_ns(l.as_ns() * hops / n)
        }
    }

    /// Transmission time of a frame at the ring's bit rate.
    pub fn tx_time(&self, frame: &Frame) -> Dur {
        self.bit_time() * frame.wire_bits()
    }

    /// Earliest instant the free token can be captured by station `j`,
    /// given its head frame was submitted at `submitted`.
    fn capture_time(
        &self,
        released_at: SimTime,
        from: StationId,
        j: StationId,
        submitted: SimTime,
    ) -> SimTime {
        let l = self.ring_latency();
        let first = released_at + self.walk(from, j);
        if first >= submitted {
            first
        } else {
            let behind = submitted.since(first).as_ns();
            let k = behind.div_ceil(l.as_ns().max(1));
            first + l * k
        }
    }

    /// What happens to the current free token next.
    fn next_token_action(&self) -> Option<(TokenAction, SimTime)> {
        let Medium::TokenFree {
            released_at,
            at,
            priority,
        } = &self.state
        else {
            return None;
        };
        let mut best: Option<(StationId, SimTime)> = None;
        for &i in &self.busy {
            let sid = StationId(i);
            let (frame, submitted) = self.stations[i as usize]
                .queue
                .front()
                .expect("busy set tracks non-empty queues");
            if self.cfg.priority_enabled && frame.priority < *priority {
                continue;
            }
            let t = self.capture_time(*released_at, *at, sid, *submitted);
            match best {
                Some((_, bt)) if bt <= t => {}
                _ => best = Some((sid, t)),
            }
        }
        if let Some((sid, t)) = best {
            return Some((TokenAction::Capture(sid), t));
        }
        // 802.5 stacking: with no eligible transmitter, the station that
        // raised the priority catches the raised token on its next pass
        // and re-releases it lower (one extra rotation of latency that a
        // global-knowledge model would skip).
        if self.cfg.priority_enabled {
            if let Some(&(_, new, station)) = self.stack.last() {
                if new == *priority && *priority > 0 {
                    let t = self.capture_time(*released_at, *at, station, *released_at);
                    return Some((TokenAction::Lower(station), t));
                }
            }
        }
        None
    }

    /// Priority the next token should carry: the highest priority waiting
    /// anywhere (the one-rotation effect of 802.5 reservations — stations
    /// set the AC reservation bits in every passing frame), or 0.
    fn reservation_priority(&self) -> u8 {
        if !self.cfg.priority_enabled {
            return 0;
        }
        self.busy
            .iter()
            .filter_map(|&i| self.stations[i as usize].queue.front())
            .map(|(f, _)| f.priority)
            .max()
            .unwrap_or(0)
    }

    /// Releases the token at `station` after a transmission that captured
    /// the token at `captured_priority`, applying the 802.5 raise rule.
    fn release_token(&mut self, now: SimTime, station: StationId, captured_priority: u8) {
        let res = self.reservation_priority();
        let priority = if res > captured_priority {
            // Raise: this station becomes a stacking station and owes the
            // ring a matching lower.
            self.stack.push((captured_priority, res, station));
            self.stats.priority_raises += 1;
            res
        } else {
            captured_priority
        };
        self.state = Medium::TokenFree {
            released_at: now,
            at: station,
            priority,
        };
    }

    fn view(frame: &Frame) -> FrameView {
        FrameView {
            ac: frame.ac_byte(),
            fc: frame.fc_byte(),
            wire_bytes: frame.wire_bytes(),
            src: frame.src,
            dst: frame.dst,
            kind: frame.kind,
            tag: frame.tag,
            id: frame.id,
        }
    }

    /// Begins transmitting `frame` from its source at `now`, having
    /// captured a token of priority `captured_priority`.
    fn begin_transmit(&mut self, now: SimTime, frame: Frame, captured_priority: u8) {
        let tx = self.tx_time(&frame);
        let l = self.ring_latency();
        let mut deliveries: Vec<(SimTime, StationId)> = Vec::new();
        match frame.dst {
            Some(d) if (d.0 as usize) < self.stations.len() => {
                deliveries.push((now + self.walk(frame.src, d) + tx, d));
            }
            Some(_) => {}
            None => {
                // Broadcast: LLC frames (ARP) are copied by every other
                // station; MAC frames stay between adapters (§4).
                if !frame.is_mac() {
                    for i in 0..self.stations.len() as u32 {
                        let d = StationId(i);
                        if d != frame.src {
                            deliveries.push((now + self.walk(frame.src, d) + tx, d));
                        }
                    }
                }
            }
        }
        deliveries.sort();
        let will_deliver = !deliveries.is_empty();
        // The transmitter strips its frame as it returns; the strip (and
        // with it the copied-bit delivery confirmation of §3) completes
        // when the frame's tail has travelled the whole ring: tx + L.
        // Delivery at any destination (walk ≤ L after each bit leaves the
        // source) therefore always precedes the strip.
        let strip_at = now + tx + l;
        self.state = Medium::Busy(Busy {
            observe_at: Some(now + tx),
            deliveries: deliveries.into_iter().collect(),
            strip_at,
            captured_at: now,
            captured_priority,
            frame,
            will_deliver,
        });
    }

    /// Starts a purge sequence of `purges` purges at `now`.
    fn begin_purge(&mut self, now: SimTime, purges: u32, sink: &mut impl Sink<RingOut>) {
        self.stats.purge_sequences += 1;
        self.stats.purges += u64::from(purges);
        // Destroy any in-flight frame, silently for the transmitter.
        if let Medium::Busy(b) = &self.state {
            let delivered_already = b.deliveries.is_empty() && b.will_deliver;
            // MAC frames are generated inside the adapters; hosts never
            // submitted them and see no completion for them.
            if !b.frame.is_mac() {
                sink.push(RingOut::Stripped {
                    from: b.frame.src,
                    id: b.frame.id,
                    tag: b.frame.tag,
                    delivered: delivered_already,
                });
            }
            if !delivered_already {
                self.stats.frames_lost += 1;
                sink.push(RingOut::LostToPurge {
                    id: b.frame.id,
                    tag: b.frame.tag,
                });
            } else {
                self.stats.frames_delivered += 1;
            }
            self.stats.frames_sent += 1;
            self.stats.busy_ns += now.since(b.captured_at).as_ns();
        }
        let mut until = now + self.cfg.purge_timeout;
        let mut obs = VecDeque::new();
        for _ in 0..purges {
            obs.push_back(until);
            until += self.cfg.purge_duration;
        }
        sink.push(RingOut::PurgeStarted { purges });
        self.state = Medium::Purging { until, obs };
    }
}

impl ctms_sim::Persist for TokenRing {
    /// Dynamic ring state: rng, per-station queues, the medium state
    /// machine, MAC-traffic schedule, frame-id allocator, priority stack
    /// and counters. `cfg` and the station count are structural — the
    /// rebuilt ring must already have them (the restore verifies the
    /// station count).
    fn persist(&self, enc: &mut ctms_sim::Enc) {
        self.rng.persist(enc);
        enc.seq_len(self.stations.len());
        for st in &self.stations {
            enc.seq_len(st.queue.len());
            for (f, at) in st.queue.iter() {
                f.persist(enc);
                enc.time(*at);
            }
        }
        match &self.state {
            Medium::TokenFree {
                released_at,
                at,
                priority,
            } => {
                enc.u8(0);
                enc.time(*released_at);
                enc.u32(at.0);
                enc.u8(*priority);
            }
            Medium::Busy(b) => {
                enc.u8(1);
                b.frame.persist(enc);
                enc.time(b.captured_at);
                enc.u8(b.captured_priority);
                enc.opt(b.observe_at.as_ref(), |e, t| e.time(*t));
                enc.seq_len(b.deliveries.len());
                for (t, d) in &b.deliveries {
                    enc.time(*t);
                    enc.u32(d.0);
                }
                enc.time(b.strip_at);
                enc.bool(b.will_deliver);
            }
            Medium::Purging { until, obs } => {
                enc.u8(2);
                enc.time(*until);
                enc.seq_len(obs.len());
                for t in obs {
                    enc.time(*t);
                }
            }
        }
        enc.opt(self.next_mac_at.as_ref(), |e, t| e.time(*t));
        enc.u64(self.next_frame_id);
        enc.seq_len(self.stack.len());
        for (old, new, st) in &self.stack {
            enc.u8(*old);
            enc.u8(*new);
            enc.u32(st.0);
        }
        let s = &self.stats;
        for v in [
            s.frames_sent,
            s.frames_delivered,
            s.frames_lost,
            s.mac_frames,
            s.purges,
            s.purge_sequences,
            s.busy_ns,
            s.queue_drops,
            s.priority_raises,
            s.priority_lowers,
        ] {
            enc.u64(v);
        }
    }

    fn restore(&mut self, dec: &mut ctms_sim::Dec<'_>) -> Result<(), ctms_sim::PersistError> {
        use crate::frame::decode_frame;
        self.rng.restore(dec)?;
        let n = dec.seq_len()?;
        if n != self.stations.len() {
            return Err(ctms_sim::PersistError::mismatch(format!(
                "ring checkpoint has {n} stations, rebuilt ring has {}",
                self.stations.len()
            )));
        }
        for st in &mut self.stations {
            st.queue = dec
                .seq(|d| Ok((decode_frame(d)?, d.time()?)))?
                .into_iter()
                .collect();
        }
        // Rebuild the derived busy set (ascending by construction).
        self.busy.clear();
        for (i, st) in self.stations.iter().enumerate() {
            if !st.queue.is_empty() {
                self.busy.push(i as u32);
            }
        }
        self.state = match dec.u8()? {
            0 => Medium::TokenFree {
                released_at: dec.time()?,
                at: StationId(dec.u32()?),
                priority: dec.u8()?,
            },
            1 => Medium::Busy(Busy {
                frame: decode_frame(dec)?,
                captured_at: dec.time()?,
                captured_priority: dec.u8()?,
                observe_at: dec.opt(|d| d.time())?,
                deliveries: dec
                    .seq(|d| Ok((d.time()?, StationId(d.u32()?))))?
                    .into_iter()
                    .collect(),
                strip_at: dec.time()?,
                will_deliver: dec.bool()?,
            }),
            2 => Medium::Purging {
                until: dec.time()?,
                obs: dec.seq(|d| d.time())?.into_iter().collect(),
            },
            tag => {
                return Err(ctms_sim::PersistError::BadTag {
                    what: "ring medium",
                    tag,
                })
            }
        };
        self.next_mac_at = dec.opt(|d| d.time())?;
        self.next_frame_id = dec.u64()?;
        self.stack = dec.seq(|d| Ok((d.u8()?, d.u8()?, StationId(d.u32()?))))?;
        self.stats = RingStats {
            frames_sent: dec.u64()?,
            frames_delivered: dec.u64()?,
            frames_lost: dec.u64()?,
            mac_frames: dec.u64()?,
            purges: dec.u64()?,
            purge_sequences: dec.u64()?,
            busy_ns: dec.u64()?,
            queue_drops: dec.u64()?,
            priority_raises: dec.u64()?,
            priority_lowers: dec.u64()?,
        };
        Ok(())
    }
}

impl Component for TokenRing {
    type Cmd = RingCmd;
    type Out = RingOut;

    fn publish_telemetry(&self, scope: &mut ctms_sim::telemetry::Scope<'_>) {
        use ctms_sim::Instrument as _;
        self.stats.publish(scope);
        scope.gauge("stations", self.stations.len() as i64);
    }

    fn next_deadline(&self) -> Option<SimTime> {
        let state_deadline = match &self.state {
            Medium::TokenFree { .. } => self.next_token_action().map(|(_, t)| t),
            Medium::Busy(b) => ctms_sim::earliest([
                b.observe_at,
                b.deliveries.front().map(|&(t, _)| t),
                Some(b.strip_at),
            ]),
            Medium::Purging { until, obs } => {
                ctms_sim::earliest([obs.front().copied(), Some(*until)])
            }
        };
        ctms_sim::earliest([state_deadline, self.next_mac_at])
    }

    fn advance(&mut self, now: SimTime, sink: &mut impl Sink<RingOut>) {
        // Background MAC traffic generation.
        if self.next_mac_at == Some(now) {
            let mean = Dur::from_secs_f64(1.0 / self.cfg.mac_rate_per_sec);
            self.next_mac_at = Some(now + self.rng.exp_dur(mean));
            if !self.stations.is_empty() {
                let src = StationId(self.rng.index(self.stations.len()) as u32);
                let id = self.alloc_frame_id();
                let kind = if self.rng.chance(0.5) {
                    MacKind::ActiveMonitorPresent
                } else {
                    MacKind::StandbyMonitorPresent
                };
                let frame = Frame {
                    id,
                    src,
                    dst: None,
                    kind: FrameKind::Mac(kind),
                    info_len: 4,
                    priority: 0,
                    tag: 0,
                };
                self.handle(now, RingCmd::Submit(frame), sink);
            }
        }

        loop {
            match &mut self.state {
                Medium::TokenFree { priority, .. } => {
                    let cur_priority = *priority;
                    match self.next_token_action() {
                        Some((TokenAction::Capture(sid), t)) if t == now => {
                            let (frame, _) = self.stations[sid.0 as usize]
                                .queue
                                .pop_front()
                                .expect("candidate has a queued frame");
                            if self.stations[sid.0 as usize].queue.is_empty() {
                                self.mark_idle(sid.0);
                            }
                            self.begin_transmit(now, frame, cur_priority);
                            // Fall through: a zero-length frame could
                            // complete instantly (not in practice).
                            continue;
                        }
                        Some((TokenAction::Lower(station), t)) if t == now => {
                            // The stacking station catches its raised
                            // token and re-releases it at the stacked
                            // priority (or re-raises if a new reservation
                            // arrived above it meanwhile).
                            let (old, _, st) = self.stack.pop().expect("lower implies stacker");
                            debug_assert_eq!(st, station);
                            self.stats.priority_lowers += 1;
                            self.release_token(now, station, old);
                            continue;
                        }
                        _ => break,
                    }
                }
                Medium::Busy(b) => {
                    let mut progressed = false;
                    if b.observe_at == Some(now) {
                        b.observe_at = None;
                        let v = Self::view(&b.frame);
                        if b.frame.is_mac() {
                            self.stats.mac_frames += 1;
                        }
                        sink.push(RingOut::Observed(v));
                        progressed = true;
                    }
                    while b.deliveries.front().map(|&(t, _)| t) == Some(now) {
                        let (_, to) = b.deliveries.pop_front().expect("checked front");
                        sink.push(RingOut::Delivered {
                            to,
                            frame: b.frame.clone(),
                        });
                        progressed = true;
                    }
                    if b.strip_at == now {
                        let b = b.clone();
                        self.stats.frames_sent += 1;
                        if b.will_deliver {
                            self.stats.frames_delivered += 1;
                        }
                        self.stats.busy_ns += now.since(b.captured_at).as_ns();
                        if !b.frame.is_mac() {
                            sink.push(RingOut::Stripped {
                                from: b.frame.src,
                                id: b.frame.id,
                                tag: b.frame.tag,
                                delivered: b.will_deliver,
                            });
                        }
                        self.release_token(now, b.frame.src, b.captured_priority);
                        continue;
                    }
                    if !progressed {
                        break;
                    }
                }
                Medium::Purging { until, obs } => {
                    if obs.front() == Some(&now) {
                        obs.pop_front();
                        let id = self.alloc_frame_id();
                        sink.push(RingOut::Observed(FrameView {
                            ac: crate::frame::ac_byte(7, false, 0),
                            fc: Frame {
                                id,
                                src: StationId(0),
                                dst: None,
                                kind: FrameKind::Mac(MacKind::RingPurge),
                                info_len: 4,
                                priority: 7,
                                tag: 0,
                            }
                            .fc_byte(),
                            wire_bytes: 25,
                            src: StationId(0),
                            dst: None,
                            kind: FrameKind::Mac(MacKind::RingPurge),
                            tag: 0,
                            id,
                        }));
                        continue;
                    }
                    if *until == now {
                        sink.push(RingOut::PurgeEnded);
                        // The purge resets the ring: new token at priority
                        // 0 from the Active Monitor, all stacks cleared.
                        self.stack.clear();
                        self.state = Medium::TokenFree {
                            released_at: now,
                            at: StationId(0),
                            priority: 0,
                        };
                        continue;
                    }
                    break;
                }
            }
        }
    }

    fn handle(&mut self, now: SimTime, cmd: RingCmd, sink: &mut impl Sink<RingOut>) {
        match cmd {
            RingCmd::Submit(frame) => {
                let idx = frame.src.0 as usize;
                assert!(
                    idx < self.stations.len(),
                    "submit from unattached station {:?}",
                    frame.src
                );
                let st = &mut self.stations[idx];
                if st.queue.len() >= self.cfg.station_queue_cap {
                    self.stats.queue_drops += 1;
                    sink.push(RingOut::QueueDrop {
                        station: frame.src,
                        id: frame.id,
                    });
                    return;
                }
                st.queue.push_back((frame, now));
                self.mark_busy(idx as u32);
            }
            RingCmd::Disturb(d) => {
                let purges = match d {
                    Disturb::StationInsertion => {
                        let (lo, hi) = self.cfg.insertion_purges;
                        self.rng.range_u64(u64::from(lo), u64::from(hi)) as u32
                    }
                    Disturb::SoftError => 1,
                };
                self.begin_purge(now, purges, sink);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::Proto;
    use ctms_sim::drain_component;

    fn ring_with(n: usize) -> TokenRing {
        let cfg = RingConfig {
            mac_rate_per_sec: 0.0, // quiet ring for deterministic tests
            ..RingConfig::default()
        };
        let mut r = TokenRing::new(cfg, Pcg32::new(1, 1));
        for _ in 0..n {
            r.add_station();
        }
        r
    }

    fn ctmsp_frame(r: &mut TokenRing, src: u32, dst: u32, len: u32, prio: u8, tag: u64) -> Frame {
        Frame {
            id: r.alloc_frame_id(),
            src: StationId(src),
            dst: Some(StationId(dst)),
            kind: FrameKind::Llc(Proto::Ctmsp),
            info_len: len,
            priority: prio,
            tag,
        }
    }

    fn submit(r: &mut TokenRing, now: SimTime, f: Frame) {
        let mut sink = Vec::new();
        r.handle(now, RingCmd::Submit(f), &mut sink);
        assert!(sink.is_empty(), "submit should not emit: {sink:?}");
    }

    #[test]
    fn bit_time_at_4mbit_is_250ns() {
        let r = ring_with(2);
        assert_eq!(r.bit_time(), Dur::from_ns(250));
    }

    #[test]
    fn single_frame_timing() {
        let mut r = ring_with(4);
        let f = ctmsp_frame(&mut r, 0, 2, 2000, 4, 1);
        let tx = r.tx_time(&f);
        // 2021 bytes * 8 bits * 250 ns = 4042 µs.
        assert_eq!(tx, Dur::from_us(4042));
        submit(&mut r, SimTime::ZERO, f);
        let evs = drain_component(&mut r, SimTime::from_secs(1));
        // Capture happens after the token walks 0 -> 0 is not needed; the
        // token starts at station 0 (released_at = 0) so capture is a full
        // rotation later (walk from 0 to 0 = L).
        let l = r.ring_latency();
        let strip = evs
            .iter()
            .find_map(|(t, e)| match e {
                RingOut::Stripped { delivered, .. } => Some((*t, *delivered)),
                _ => None,
            })
            .expect("stripped");
        assert!(strip.1, "frame delivered");
        // Strip completes when the frame tail has circled the whole ring.
        assert_eq!(strip.0, SimTime::ZERO + l + tx + l);
        let deliver = evs
            .iter()
            .find_map(|(t, e)| match e {
                RingOut::Delivered { to, .. } => Some((*t, *to)),
                _ => None,
            })
            .expect("delivered");
        assert_eq!(deliver.1, StationId(2));
        // Delivery = capture + walk(0->2) + tx, walk(0->2) = L/2 for 4 stations.
        assert_eq!(
            deliver.0,
            SimTime::ZERO + l + Dur::from_ns(l.as_ns() / 2) + tx
        );
        assert_eq!(r.stats().frames_sent, 1);
        assert_eq!(r.stats().frames_delivered, 1);
    }

    #[test]
    fn frames_serialize_one_at_a_time() {
        let mut r = ring_with(4);
        let f1 = ctmsp_frame(&mut r, 0, 2, 1500, 0, 1);
        let f2 = ctmsp_frame(&mut r, 1, 3, 1500, 0, 2);
        submit(&mut r, SimTime::ZERO, f1);
        submit(&mut r, SimTime::ZERO, f2);
        let evs = drain_component(&mut r, SimTime::from_secs(1));
        let strips: Vec<SimTime> = evs
            .iter()
            .filter_map(|(t, e)| matches!(e, RingOut::Stripped { .. }).then_some(*t))
            .collect();
        assert_eq!(strips.len(), 2);
        let tx = Dur::from_us((1500 + 21) * 8 / 4); // bits * 250ns = bytes*8/4 us
        assert!(strips[1] >= strips[0] + tx, "no overlap on the medium");
    }

    #[test]
    fn priority_token_prefers_high_priority_frame() {
        let mut r = ring_with(8);
        // Seven low-priority frames queued at station 1, one CTMSP frame at
        // station 5 submitted later. With priority, the CTMSP frame goes
        // second (after the in-progress one), not eighth.
        for k in 0..7 {
            let f = ctmsp_frame(&mut r, 1, 2, 1500, 0, 100 + k);
            submit(&mut r, SimTime::ZERO, f);
        }
        let hi = ctmsp_frame(&mut r, 5, 6, 2000, 4, 1);
        submit(&mut r, SimTime::from_us(100), hi);
        let evs = drain_component(&mut r, SimTime::from_secs(1));
        let order: Vec<u64> = evs
            .iter()
            .filter_map(|(_, e)| match e {
                RingOut::Stripped { tag, .. } => Some(*tag),
                _ => None,
            })
            .collect();
        let pos_hi = order.iter().position(|&t| t == 1).expect("hi sent");
        assert!(
            pos_hi <= 1,
            "high-priority frame should preempt the queue order: {order:?}"
        );
    }

    #[test]
    fn without_ring_priority_ctmsp_waits_in_line() {
        let mut r = ring_with(8);
        let cfg = RingConfig {
            mac_rate_per_sec: 0.0,
            priority_enabled: false,
            ..RingConfig::default()
        };
        r.cfg = cfg;
        for k in 0..7 {
            let f = ctmsp_frame(&mut r, 1, 2, 1500, 0, 100 + k);
            submit(&mut r, SimTime::ZERO, f);
        }
        let hi = ctmsp_frame(&mut r, 5, 6, 2000, 4, 1);
        submit(&mut r, SimTime::from_us(100), hi);
        let evs = drain_component(&mut r, SimTime::from_secs(1));
        let order: Vec<u64> = evs
            .iter()
            .filter_map(|(_, e)| match e {
                RingOut::Stripped { tag, .. } => Some(*tag),
                _ => None,
            })
            .collect();
        let pos_hi = order.iter().position(|&t| t == 1).expect("hi sent");
        // Station 5 is downstream of station 1; token-order fairness means
        // the CTMSP frame goes after at least a couple of station-1 frames
        // but the ring alternates 1,5,1,1,... — the key contrast with the
        // priority test is that it is NOT first or second by preemption.
        assert!(pos_hi >= 1, "order: {order:?}");
    }

    #[test]
    fn purge_loses_in_flight_frame_silently() {
        let mut r = ring_with(4);
        let f = ctmsp_frame(&mut r, 0, 2, 2000, 4, 9);
        submit(&mut r, SimTime::ZERO, f);
        // Let the capture happen, then purge mid-transmission.
        let l = r.ring_latency();
        let mut sink = Vec::new();
        let capture = SimTime::ZERO + l;
        r.advance(capture, &mut sink);
        let mid = capture + Dur::from_us(1000);
        r.handle(mid, RingCmd::Disturb(Disturb::SoftError), &mut sink);
        let lost = sink
            .iter()
            .any(|e| matches!(e, RingOut::LostToPurge { tag: 9, .. }));
        assert!(lost, "in-flight frame lost: {sink:?}");
        // The strip still reports (silent loss at the adapter level).
        let stripped = sink.iter().any(|e| {
            matches!(
                e,
                RingOut::Stripped {
                    delivered: false,
                    tag: 9,
                    ..
                }
            )
        });
        assert!(stripped, "{sink:?}");
        assert_eq!(r.stats().frames_lost, 1);
        // After the purge ends the ring recovers and can carry frames.
        let evs = drain_component(&mut r, SimTime::from_secs(2));
        assert!(evs.iter().any(|(_, e)| matches!(e, RingOut::PurgeEnded)));
        let f2 = ctmsp_frame(&mut r, 0, 2, 2000, 4, 10);
        submit(&mut r, SimTime::from_secs(2), f2);
        let evs = drain_component(&mut r, SimTime::from_secs(3));
        assert!(evs
            .iter()
            .any(|(_, e)| matches!(e, RingOut::Delivered { .. })));
    }

    #[test]
    fn insertion_blocks_ring_on_the_order_of_120ms() {
        let mut r = ring_with(4);
        let mut sink = Vec::new();
        r.handle(
            SimTime::from_ms(1),
            RingCmd::Disturb(Disturb::StationInsertion),
            &mut sink,
        );
        let purges = sink
            .iter()
            .find_map(|e| match e {
                RingOut::PurgeStarted { purges } => Some(*purges),
                _ => None,
            })
            .expect("purge started");
        assert!((8..=12).contains(&purges));
        let evs = drain_component(&mut r, SimTime::from_secs(1));
        let end = evs
            .iter()
            .find_map(|(t, e)| matches!(e, RingOut::PurgeEnded).then_some(*t))
            .expect("purge ended");
        let blocked = end.since(SimTime::from_ms(1));
        // 10 ms timeout + 8..12 purges of 11 ms: 98–142 ms.
        assert!(
            blocked >= Dur::from_ms(98) && blocked <= Dur::from_ms(142),
            "blocked {blocked}"
        );
        // TAP sees one Ring Purge MAC frame per purge.
        let purge_frames = evs
            .iter()
            .filter(|(_, e)| {
                matches!(
                    e,
                    RingOut::Observed(FrameView {
                        kind: FrameKind::Mac(MacKind::RingPurge),
                        ..
                    })
                )
            })
            .count();
        assert_eq!(purge_frames as u32, purges);
    }

    #[test]
    fn mac_traffic_uses_fraction_of_ring() {
        let cfg = RingConfig {
            mac_rate_per_sec: 50.0, // paper's 0.2 % level
            ..RingConfig::default()
        };
        let mut r = TokenRing::new(cfg, Pcg32::new(7, 7));
        for _ in 0..70 {
            r.add_station();
        }
        let horizon = SimTime::from_secs(10);
        let _ = drain_component(&mut r, horizon);
        let stats = r.stats();
        assert!(
            stats.mac_frames > 350 && stats.mac_frames < 650,
            "~50/s expected, got {} over 10 s",
            stats.mac_frames
        );
        let util = stats.busy_ns as f64 / horizon.as_ns() as f64;
        assert!(util < 0.02, "MAC-only utilization small, got {util}");
    }

    #[test]
    fn queue_overflow_drops() {
        let cfg = RingConfig {
            mac_rate_per_sec: 0.0,
            station_queue_cap: 2,
            ..RingConfig::default()
        };
        let mut r = TokenRing::new(cfg, Pcg32::new(1, 1));
        r.add_station();
        r.add_station();
        let mut sink = Vec::new();
        for k in 0..3 {
            let f = ctmsp_frame(&mut r, 0, 1, 100, 0, k);
            r.handle(SimTime::ZERO, RingCmd::Submit(f), &mut sink);
        }
        assert_eq!(
            sink.iter()
                .filter(|e| matches!(e, RingOut::QueueDrop { .. }))
                .count(),
            1
        );
        assert_eq!(r.stats().queue_drops, 1);
    }

    #[test]
    fn broadcast_mac_frames_not_delivered_to_hosts() {
        let mut r = ring_with(3);
        let id = r.alloc_frame_id();
        let f = Frame {
            id,
            src: StationId(0),
            dst: None,
            kind: FrameKind::Mac(MacKind::ActiveMonitorPresent),
            info_len: 4,
            priority: 0,
            tag: 0,
        };
        submit(&mut r, SimTime::ZERO, f);
        let evs = drain_component(&mut r, SimTime::from_secs(1));
        assert!(evs.iter().any(|(_, e)| matches!(e, RingOut::Observed(_))));
        assert!(!evs
            .iter()
            .any(|(_, e)| matches!(e, RingOut::Delivered { .. })));
    }

    #[test]
    fn priority_raise_stacks_and_lowers_after_extra_rotation() {
        let mut r = ring_with(8);
        // A low-priority frame is transmitting when a priority-4 frame
        // arrives and reserves; the transmitter raises the token (and
        // stacks), the high frame goes, and the stacker must then catch
        // the raised token to lower it. An idle ring never raises: the
        // raise exists only to serve a reservation made during a
        // transmission.
        let lo = ctmsp_frame(&mut r, 5, 6, 1500, 0, 1);
        submit(&mut r, SimTime::ZERO, lo);
        let hi = ctmsp_frame(&mut r, 2, 3, 2000, 4, 2);
        submit(&mut r, SimTime::from_ms(2), hi);
        let evs = drain_component(&mut r, SimTime::from_secs(1));
        let order: Vec<u64> = evs
            .iter()
            .filter_map(|(_, e)| match e {
                RingOut::Stripped { tag, .. } => Some(*tag),
                _ => None,
            })
            .collect();
        assert_eq!(order, vec![1, 2], "in-progress finishes, then priority");
        let stats = r.stats();
        assert_eq!(stats.priority_raises, 1, "token raised once");
        assert_eq!(stats.priority_lowers, 1, "and lowered by the stacker");
    }

    #[test]
    fn no_raise_when_only_low_priority_waits() {
        let mut r = ring_with(4);
        for k in 0..3 {
            let f = ctmsp_frame(&mut r, 0, 2, 500, 0, k);
            submit(&mut r, SimTime::ZERO, f);
        }
        let _ = drain_component(&mut r, SimTime::from_secs(1));
        assert_eq!(r.stats().priority_raises, 0);
        assert_eq!(r.stats().priority_lowers, 0);
    }

    #[test]
    fn sustained_high_priority_keeps_token_raised() {
        let mut r = ring_with(4);
        // Back-to-back priority-4 frames: one raise at the start, one
        // lower at the end, nothing in between.
        for k in 0..5u64 {
            let f = ctmsp_frame(&mut r, 0, 2, 2000, 4, k + 1);
            submit(&mut r, SimTime::from_ms(k), f);
        }
        let lo = ctmsp_frame(&mut r, 1, 3, 500, 0, 100);
        submit(&mut r, SimTime::ZERO, lo);
        let evs = drain_component(&mut r, SimTime::from_secs(1));
        let order: Vec<u64> = evs
            .iter()
            .filter_map(|(_, e)| match e {
                RingOut::Stripped { tag, .. } => Some(*tag),
                _ => None,
            })
            .collect();
        // The low frame was closest to the idle token and goes first; the
        // priority-4 burst then reserves, raises once, holds the raised
        // token for all five frames, and lowers once at the end.
        assert_eq!(order, vec![100, 1, 2, 3, 4, 5]);
        let stats = r.stats();
        assert_eq!(stats.priority_raises, 1, "raised once for the burst");
        assert_eq!(stats.priority_lowers, 1);
    }

    #[test]
    fn nested_raises_lower_in_lifo_order() {
        let mut r = ring_with(8);
        // Priority 2 raises over 0; priority 6 then raises over 2; the
        // lowers must unwind 6 -> 2 -> 0.
        let mid = ctmsp_frame(&mut r, 1, 2, 2000, 2, 1);
        submit(&mut r, SimTime::ZERO, mid);
        // While the mid frame transmits, a high-priority frame arrives
        // (reservation above the raised level) and a low one too.
        let hi = ctmsp_frame(&mut r, 3, 4, 2000, 6, 2);
        submit(&mut r, SimTime::from_ms(2), hi);
        let mid2 = ctmsp_frame(&mut r, 5, 6, 2000, 2, 3);
        submit(&mut r, SimTime::from_ms(2), mid2);
        let lo = ctmsp_frame(&mut r, 7, 0, 500, 0, 4);
        submit(&mut r, SimTime::from_ms(2), lo);
        let evs = drain_component(&mut r, SimTime::from_secs(1));
        let order: Vec<u64> = evs
            .iter()
            .filter_map(|(_, e)| match e {
                RingOut::Stripped { tag, .. } => Some(*tag),
                _ => None,
            })
            .collect();
        assert_eq!(order, vec![1, 2, 3, 4], "strict priority order");
        let stats = r.stats();
        assert_eq!(stats.priority_raises, stats.priority_lowers);
        assert!(stats.priority_raises >= 2, "{stats:?}");
    }

    #[test]
    fn purge_clears_priority_stack() {
        let mut r = ring_with(4);
        let hi = ctmsp_frame(&mut r, 0, 2, 2000, 4, 1);
        submit(&mut r, SimTime::ZERO, hi);
        // Purge mid-transmission, after the raise decision would be
        // pending; the new token must come back at priority 0.
        let l = r.ring_latency();
        let mut sink = Vec::new();
        r.advance(SimTime::ZERO + l, &mut sink);
        r.handle(
            SimTime::ZERO + l + Dur::from_us(500),
            RingCmd::Disturb(Disturb::SoftError),
            &mut sink,
        );
        let _ = drain_component(&mut r, SimTime::from_secs(1));
        // Low-priority traffic flows immediately after recovery.
        let lo = ctmsp_frame(&mut r, 1, 3, 500, 0, 9);
        submit(&mut r, SimTime::from_secs(1), lo);
        let evs = drain_component(&mut r, SimTime::from_secs(2));
        assert!(evs
            .iter()
            .any(|(_, e)| matches!(e, RingOut::Delivered { frame, .. } if frame.tag == 9)));
    }

    #[test]
    fn sequence_preserved_for_same_station_frames() {
        let mut r = ring_with(4);
        for k in 0..10 {
            let f = ctmsp_frame(&mut r, 0, 2, 2000, 4, k);
            submit(&mut r, SimTime::from_ms(k), f);
        }
        let evs = drain_component(&mut r, SimTime::from_secs(2));
        let tags: Vec<u64> = evs
            .iter()
            .filter_map(|(_, e)| match e {
                RingOut::Delivered { frame, .. } => Some(frame.tag),
                _ => None,
            })
            .collect();
        assert_eq!(tags, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn station_queue_is_fifo_across_its_inline_head_and_overflow() {
        let mut r = ring_with(2);
        let mut q = StationQueue::default();
        let mut expect = VecDeque::new();
        let mut next = 0;
        for (pushes, pops) in [(1, 1), (2, 1), (3, 2), (1, 3), (4, 0), (0, 4)] {
            for _ in 0..pushes {
                let f = ctmsp_frame(&mut r, 0, 1, 100, 0, next);
                q.push_back((f, SimTime::from_us(next)));
                expect.push_back(next);
                next += 1;
            }
            for _ in 0..pops {
                let (f, at) = q.pop_front().expect("a frame is queued");
                let tag = expect.pop_front().expect("the model agrees");
                assert_eq!((f.tag, at), (tag, SimTime::from_us(tag)));
            }
            assert_eq!(q.len(), expect.len());
            assert_eq!(q.is_empty(), expect.is_empty());
            assert_eq!(q.front().map(|(f, _)| f.tag), expect.front().copied());
            assert!(q.iter().map(|(f, _)| f.tag).eq(expect.iter().copied()));
        }
        assert!(q.pop_front().is_none());
    }

    #[test]
    fn queued_frames_restore_and_re_encode_byte_identically() {
        use ctms_sim::{Dec, Enc, Persist};
        for queued in [0, 1, 3] {
            let mut r = ring_with(4);
            for k in 0..queued {
                let f = ctmsp_frame(&mut r, 1, 2, 500, 0, k);
                submit(&mut r, SimTime::from_us(k), f);
            }
            let mut enc = Enc::new();
            r.persist(&mut enc);
            let bytes = enc.into_bytes();
            let mut back = ring_with(4);
            back.restore(&mut Dec::new(&bytes))
                .expect("a ring's own checkpoint restores");
            assert_eq!(back.stations[1].queue.len(), queued as usize);
            let mut again = Enc::new();
            back.persist(&mut again);
            assert_eq!(again.into_bytes(), bytes, "{queued} frames queued");
            let horizon = SimTime::from_secs(1);
            assert_eq!(
                format!("{:?}", drain_component(&mut back, horizon)),
                format!("{:?}", drain_component(&mut r, horizon)),
                "{queued} frames queued"
            );
        }
    }
}
