//! Ring-level background traffic from the other ~66 stations.
//!
//! The paper's ring carries a campus department: "70 machines of which
//! several are file servers running AFS" (§1). Simulating 70 full kernels
//! is unnecessary — what the CTMS hosts feel is the *frames*: §5.3
//! identifies three classes (≈20-byte MAC frames, 60–300-byte ARP/AFS
//! keep-alives, 1522-byte file-transfer packets) plus station
//! insertions/reinsertions (~20/day) that purge the ring. This component
//! generates exactly those, from "phantom" stations that transmit and
//! receive without a host model attached.

use ctms_sim::{Component, Dur, Pcg32, SimTime, Sink};
use ctms_tokenring::{Disturb, Frame, FrameId, FrameKind, Proto, StationId};

/// Phantom-traffic configuration.
#[derive(Clone, Debug)]
pub struct PhantomCfg {
    /// Phantom station id range `[lo, hi)` (must be attached to the ring
    /// by the testbed).
    pub stations: (u32, u32),
    /// Real host stations: receive a share of addressed traffic.
    pub host_stations: Vec<StationId>,
    /// AFS keep-alive / RPC small packets per second (ring-wide).
    pub small_rate: f64,
    /// Fraction of small packets addressed to a real host.
    pub small_to_host_frac: f64,
    /// Small packet size range (info bytes).
    pub small_size: (u32, u32),
    /// Broadcast ARP packets per second.
    pub arp_rate: f64,
    /// File-transfer bursts per second (compiles, kernel copies).
    pub burst_rate: f64,
    /// Frames per burst, inclusive range.
    pub burst_len: (u32, u32),
    /// Sender pacing between frames of a burst.
    pub burst_gap: Dur,
    /// File-transfer frame info size (1500 info + 21 overhead + LLC ≈ the
    /// paper's 1522 total).
    pub ft_size: u32,
    /// Station insertions per hour (§5: "under 20 [per day],
    /// approximately one an hour").
    pub insertions_per_hour: f64,
    /// Ring soft errors per hour (single purges).
    pub soft_errors_per_hour: f64,
}

impl PhantomCfg {
    /// A quiet private ring: no background traffic, no churn (test case A
    /// plus the MAC traffic the ring itself generates).
    pub fn private() -> Self {
        PhantomCfg {
            stations: (2, 4),
            host_stations: Vec::new(),
            small_rate: 0.0,
            small_to_host_frac: 0.0,
            small_size: (60, 300),
            arp_rate: 0.0,
            burst_rate: 0.0,
            burst_len: (0, 0),
            burst_gap: Dur::from_ms(4),
            ft_size: 1501,
            insertions_per_hour: 0.0,
            soft_errors_per_hour: 0.0,
        }
    }

    /// The public campus ring of test case B.
    pub fn public(hosts: Vec<StationId>) -> Self {
        PhantomCfg {
            stations: (4, 70),
            host_stations: hosts,
            small_rate: 120.0,
            small_to_host_frac: 0.08,
            small_size: (60, 300),
            arp_rate: 2.0,
            burst_rate: 3.0,
            burst_len: (4, 12),
            burst_gap: Dur::from_ms(4),
            ft_size: 1501,
            insertions_per_hour: 0.8,
            soft_errors_per_hour: 0.2,
        }
    }
}

/// Events out of the generator, for the testbed to route to the ring.
#[derive(Clone, Debug)]
pub enum PhantomOut {
    /// Submit this frame to the ring.
    Submit(Frame),
    /// Inject a ring disturbance.
    Disturb(Disturb),
}

/// Counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct PhantomStats {
    /// Small packets generated.
    pub small: u64,
    /// ARP broadcasts generated.
    pub arp: u64,
    /// File-transfer frames generated.
    pub ft_frames: u64,
    /// Insertions injected.
    pub insertions: u64,
    /// Soft errors injected.
    pub soft_errors: u64,
}

impl ctms_sim::Instrument for PhantomStats {
    fn publish(&self, scope: &mut ctms_sim::telemetry::Scope<'_>) {
        scope.counter("small", self.small);
        scope.counter("arp", self.arp);
        scope.counter("ft_frames", self.ft_frames);
        scope.counter("insertions", self.insertions);
        scope.counter("soft_errors", self.soft_errors);
    }
}

/// The generator. See module docs.
#[derive(Debug)]
pub struct PhantomTraffic {
    cfg: PhantomCfg,
    rng: Pcg32,
    next_small: Option<SimTime>,
    next_arp: Option<SimTime>,
    next_burst: Option<SimTime>,
    burst_left: u32,
    next_burst_frame: Option<SimTime>,
    burst_src: StationId,
    burst_dst: StationId,
    next_insertion: Option<SimTime>,
    next_soft: Option<SimTime>,
    next_id: u64,
    stats: PhantomStats,
}

impl PhantomTraffic {
    /// Creates the generator; event streams start after their first
    /// randomized inter-arrival from time zero.
    pub fn new(cfg: PhantomCfg, mut rng: Pcg32) -> Self {
        let next = |rng: &mut Pcg32, rate: f64| -> Option<SimTime> {
            (rate > 0.0).then(|| SimTime::ZERO + rng.exp_dur(Dur::from_secs_f64(1.0 / rate)))
        };
        let next_small = next(&mut rng, cfg.small_rate);
        let next_arp = next(&mut rng, cfg.arp_rate);
        let next_burst = next(&mut rng, cfg.burst_rate);
        let next_insertion = next(&mut rng, cfg.insertions_per_hour / 3600.0);
        let next_soft = next(&mut rng, cfg.soft_errors_per_hour / 3600.0);
        PhantomTraffic {
            cfg,
            rng,
            next_small,
            next_arp,
            next_burst,
            burst_left: 0,
            next_burst_frame: None,
            burst_src: StationId(0),
            burst_dst: StationId(0),
            next_insertion,
            next_soft,
            next_id: 0,
            stats: PhantomStats::default(),
        }
    }

    /// Counters.
    pub fn stats(&self) -> PhantomStats {
        self.stats
    }

    fn frame_id(&mut self) -> FrameId {
        self.next_id += 1;
        FrameId(0xF000_0000_0000_0000 | self.next_id)
    }

    fn phantom_station(&mut self) -> StationId {
        let (lo, hi) = self.cfg.stations;
        StationId(self.rng.range_u64(u64::from(lo), u64::from(hi - 1)) as u32)
    }

    fn reschedule(&mut self, rate: f64, now: SimTime) -> Option<SimTime> {
        (rate > 0.0).then(|| now + self.rng.exp_dur(Dur::from_secs_f64(1.0 / rate)))
    }
}

impl ctms_sim::Persist for PhantomTraffic {
    /// The rng, every pending arrival, in-progress burst bookkeeping, the
    /// frame-id counter and the counters; `cfg` is structural.
    fn persist(&self, enc: &mut ctms_sim::Enc) {
        self.rng.persist(enc);
        enc.opt(self.next_small.as_ref(), |e, t| e.time(*t));
        enc.opt(self.next_arp.as_ref(), |e, t| e.time(*t));
        enc.opt(self.next_burst.as_ref(), |e, t| e.time(*t));
        enc.u32(self.burst_left);
        enc.opt(self.next_burst_frame.as_ref(), |e, t| e.time(*t));
        enc.u32(self.burst_src.0);
        enc.u32(self.burst_dst.0);
        enc.opt(self.next_insertion.as_ref(), |e, t| e.time(*t));
        enc.opt(self.next_soft.as_ref(), |e, t| e.time(*t));
        enc.u64(self.next_id);
        enc.u64(self.stats.small);
        enc.u64(self.stats.arp);
        enc.u64(self.stats.ft_frames);
        enc.u64(self.stats.insertions);
        enc.u64(self.stats.soft_errors);
    }

    fn restore(&mut self, dec: &mut ctms_sim::Dec<'_>) -> Result<(), ctms_sim::PersistError> {
        self.rng.restore(dec)?;
        self.next_small = dec.opt(|d| d.time())?;
        self.next_arp = dec.opt(|d| d.time())?;
        self.next_burst = dec.opt(|d| d.time())?;
        self.burst_left = dec.u32()?;
        self.next_burst_frame = dec.opt(|d| d.time())?;
        self.burst_src = StationId(dec.u32()?);
        self.burst_dst = StationId(dec.u32()?);
        self.next_insertion = dec.opt(|d| d.time())?;
        self.next_soft = dec.opt(|d| d.time())?;
        self.next_id = dec.u64()?;
        self.stats.small = dec.u64()?;
        self.stats.arp = dec.u64()?;
        self.stats.ft_frames = dec.u64()?;
        self.stats.insertions = dec.u64()?;
        self.stats.soft_errors = dec.u64()?;
        Ok(())
    }
}

impl Component for PhantomTraffic {
    type Cmd = ();
    type Out = PhantomOut;

    fn next_deadline(&self) -> Option<SimTime> {
        ctms_sim::earliest([
            self.next_small,
            self.next_arp,
            self.next_burst,
            self.next_burst_frame,
            self.next_insertion,
            self.next_soft,
        ])
    }

    fn advance(&mut self, now: SimTime, sink: &mut impl Sink<PhantomOut>) {
        if self.next_small == Some(now) {
            self.next_small = self.reschedule(self.cfg.small_rate, now);
            self.stats.small += 1;
            let src = self.phantom_station();
            let dst = if !self.cfg.host_stations.is_empty()
                && self.rng.chance(self.cfg.small_to_host_frac)
            {
                self.cfg.host_stations[self.rng.index(self.cfg.host_stations.len())]
            } else {
                self.phantom_station()
            };
            let (lo, hi) = self.cfg.small_size;
            let id = self.frame_id();
            sink.push(PhantomOut::Submit(Frame {
                id,
                src,
                dst: Some(dst),
                kind: FrameKind::Llc(Proto::Ip),
                info_len: self.rng.range_u64(u64::from(lo), u64::from(hi)) as u32,
                priority: 0,
                tag: 0,
            }));
        }
        if self.next_arp == Some(now) {
            self.next_arp = self.reschedule(self.cfg.arp_rate, now);
            self.stats.arp += 1;
            let src = self.phantom_station();
            let id = self.frame_id();
            sink.push(PhantomOut::Submit(Frame {
                id,
                src,
                dst: None,
                kind: FrameKind::Llc(Proto::Arp),
                info_len: 46,
                priority: 0,
                tag: 0,
            }));
        }
        if self.next_burst == Some(now) {
            self.next_burst = self.reschedule(self.cfg.burst_rate, now);
            let (lo, hi) = self.cfg.burst_len;
            self.burst_left = self.rng.range_u64(u64::from(lo), u64::from(hi)) as u32;
            self.burst_src = self.phantom_station();
            self.burst_dst = self.phantom_station();
            if self.burst_left > 0 {
                self.next_burst_frame = Some(now);
            }
        }
        if self.next_burst_frame == Some(now) && self.burst_left > 0 {
            self.burst_left -= 1;
            self.stats.ft_frames += 1;
            let id = self.frame_id();
            sink.push(PhantomOut::Submit(Frame {
                id,
                src: self.burst_src,
                dst: Some(self.burst_dst),
                kind: FrameKind::Llc(Proto::Ip),
                info_len: self.cfg.ft_size,
                priority: 0,
                tag: 0,
            }));
            self.next_burst_frame = (self.burst_left > 0).then(|| now + self.cfg.burst_gap);
        }
        if self.next_insertion == Some(now) {
            self.next_insertion = self.reschedule(self.cfg.insertions_per_hour / 3600.0, now);
            self.stats.insertions += 1;
            sink.push(PhantomOut::Disturb(Disturb::StationInsertion));
        }
        if self.next_soft == Some(now) {
            self.next_soft = self.reschedule(self.cfg.soft_errors_per_hour / 3600.0, now);
            self.stats.soft_errors += 1;
            sink.push(PhantomOut::Disturb(Disturb::SoftError));
        }
    }

    fn handle(&mut self, _now: SimTime, _cmd: (), _sink: &mut impl Sink<PhantomOut>) {}

    fn publish_telemetry(&self, scope: &mut ctms_sim::telemetry::Scope<'_>) {
        use ctms_sim::Instrument as _;
        self.stats.publish(scope);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctms_sim::drain_component;

    #[test]
    fn private_ring_is_silent() {
        let mut g = PhantomTraffic::new(PhantomCfg::private(), Pcg32::new(1, 1));
        let evs = drain_component(&mut g, SimTime::from_secs(100));
        assert!(evs.is_empty());
    }

    #[test]
    fn public_ring_rates_are_close() {
        let cfg = PhantomCfg::public(vec![StationId(0), StationId(1)]);
        let mut g = PhantomTraffic::new(cfg, Pcg32::new(7, 1));
        let evs = drain_component(&mut g, SimTime::from_secs(60));
        let stats = g.stats();
        // 120/s small over 60 s.
        assert!((6000..8500).contains(&stats.small), "{}", stats.small);
        assert!((60..180).contains(&stats.arp), "{}", stats.arp);
        // 3 bursts/s × ~8 frames.
        assert!(
            (800..2200).contains(&stats.ft_frames),
            "{}",
            stats.ft_frames
        );
        // Some small packets are addressed to hosts.
        let to_hosts = evs
            .iter()
            .filter(|(_, e)| match e {
                PhantomOut::Submit(f) => {
                    matches!(f.dst, Some(StationId(0)) | Some(StationId(1)))
                }
                _ => false,
            })
            .count();
        assert!(to_hosts > 100, "{to_hosts}");
    }

    #[test]
    fn insertions_arrive_at_about_one_per_hour() {
        let mut cfg = PhantomCfg::public(vec![]);
        cfg.small_rate = 0.0;
        cfg.arp_rate = 0.0;
        cfg.burst_rate = 0.0;
        cfg.soft_errors_per_hour = 0.0;
        let mut g = PhantomTraffic::new(cfg, Pcg32::new(3, 5));
        let _ = drain_component(&mut g, SimTime::from_secs(24 * 3600));
        let n = g.stats().insertions;
        // ~24 expected over a day; the paper saw "under 20".
        assert!((10..45).contains(&n), "insertions over a day: {n}");
    }

    #[test]
    fn burst_frames_are_paced() {
        let mut cfg = PhantomCfg::public(vec![]);
        cfg.small_rate = 0.0;
        cfg.arp_rate = 0.0;
        cfg.insertions_per_hour = 0.0;
        cfg.soft_errors_per_hour = 0.0;
        cfg.burst_rate = 0.2;
        cfg.burst_len = (5, 5);
        let mut g = PhantomTraffic::new(cfg, Pcg32::new(9, 2));
        let evs = drain_component(&mut g, SimTime::from_secs(20));
        let times: Vec<SimTime> = evs
            .iter()
            .filter_map(|(t, e)| matches!(e, PhantomOut::Submit(_)).then_some(*t))
            .collect();
        assert!(times.len() >= 5);
        // Within a burst, consecutive frames are exactly burst_gap apart.
        let gap = times[1].since(times[0]);
        assert_eq!(gap, Dur::from_ms(4));
    }
}
