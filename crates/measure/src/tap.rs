//! IBM Trace and Analysis Program (TAP) model (§5).
//!
//! "This tool allowed for the recording and time stamping of all packets
//! seen on the network, including all MAC frames. The tool also recorded
//! the first Token Ring adapter's buffer of actual packet data (up to 96
//! bytes) as well as the Token Ring's Access Control byte, Frame Control
//! byte and total length. However, there are limitations of the tool's
//! ability to record all packets." The model records frame observations
//! from the ring with a configurable minimum inter-record gap (the real
//! tool's capture limitation) and provides the §5 analyses: packet
//! ordering/loss detection for CTMSP streams, Ring Purge counting, and
//! the traffic-class breakdown of §5.3.

use ctms_sim::SimTime;
use ctms_tokenring::{fc_is_mac, FrameKind, FrameView, MacKind, Proto};

/// TAP configuration.
#[derive(Clone, Copy, Debug)]
pub struct TapCfg {
    /// Minimum gap between records; closer frames are missed (the real
    /// tool's documented capture limitation).
    pub min_record_gap: ctms_sim::Dur,
    /// Capture buffer capacity; older records are not overwritten (the
    /// tool stops capturing when full).
    pub buffer_records: usize,
}

impl Default for TapCfg {
    fn default() -> Self {
        TapCfg {
            min_record_gap: ctms_sim::Dur::from_us(30),
            buffer_records: 2_000_000,
        }
    }
}

/// §5.3's traffic classes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TrafficBreakdown {
    /// ~20-byte MAC frames.
    pub mac: u64,
    /// 60–300-byte ARP / AFS keep-alive class.
    pub small: u64,
    /// ~1522-byte file-transfer class.
    pub file_transfer: u64,
    /// CTMSP frames.
    pub ctmsp: u64,
    /// Anything else.
    pub other: u64,
}

/// Stream-order analysis of the CTMSP packets TAP saw.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StreamAnalysis {
    /// CTMSP frames captured.
    pub captured: u64,
    /// Sequence gaps (lost packets).
    pub gaps: u64,
    /// Packets missing inside gaps.
    pub missing: u64,
    /// Out-of-order observations.
    pub out_of_order: u64,
    /// Duplicate packet numbers.
    pub duplicates: u64,
}

/// The stream-order state behind [`Tap::analyze_stream`]: the analysis
/// so far (its `captured` is the CTMSP class count) and the last
/// in-order packet number.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct StreamState {
    analysis: StreamAnalysis,
    last_seq: Option<u64>,
}

impl StreamState {
    /// Folds one captured CTMSP packet number into the analysis.
    fn push(&mut self, tag: u64) {
        let a = &mut self.analysis;
        a.captured += 1;
        if let Some(prev) = self.last_seq {
            if tag == prev {
                a.duplicates += 1;
                return;
            } else if tag < prev {
                a.out_of_order += 1;
                return;
            } else if tag - prev > 1 {
                a.gaps += 1;
                a.missing += tag - prev - 1;
            }
        }
        self.last_seq = Some(tag);
    }
}

/// The TAP monitor.
///
/// Its §5 analyses are running accumulators — capture count, class
/// counts, stream-order state — updated as each record is captured, so
/// they cost the same and checkpoint to the same size at any run
/// length. The records themselves are not kept: every analysis the
/// paper ran on them offline is one of those accumulators here.
#[derive(Debug)]
pub struct Tap {
    cfg: TapCfg,
    /// Records captured since t = 0.
    records: u64,
    purges: u64,
    missed: u64,
    last_record: Option<SimTime>,
    busy_ns: u64,
    first_at: Option<SimTime>,
    last_at: Option<SimTime>,
    classes: TrafficBreakdown,
    stream: StreamState,
}

impl Tap {
    /// Creates the monitor.
    pub fn new(cfg: TapCfg) -> Self {
        Tap {
            cfg,
            records: 0,
            purges: 0,
            missed: 0,
            last_record: None,
            busy_ns: 0,
            first_at: None,
            last_at: None,
            classes: TrafficBreakdown::default(),
            stream: StreamState::default(),
        }
    }

    /// Feeds one ring observation.
    pub fn observe(&mut self, at: SimTime, view: &FrameView) {
        self.first_at.get_or_insert(at);
        self.last_at = Some(at);
        // Purges are counted even when the record is dropped: the monitor
        // port sees them as MAC frames and the analysis counts kinds.
        if view.kind == FrameKind::Mac(MacKind::RingPurge) {
            self.purges += 1;
        }
        self.busy_ns += u64::from(view.wire_bytes) * 8 * 250; // 4 Mbit/s
        if let Some(last) = self.last_record {
            if at.since(last) < self.cfg.min_record_gap {
                self.missed += 1;
                return;
            }
        }
        if self.records >= self.cfg.buffer_records as u64 {
            self.missed += 1;
            return;
        }
        self.last_record = Some(at);
        debug_assert_eq!(fc_is_mac(view.fc), matches!(view.kind, FrameKind::Mac(_)));
        let b = &mut self.classes;
        match view.kind {
            FrameKind::Mac(_) => b.mac += 1,
            FrameKind::Llc(Proto::Ctmsp) => {
                b.ctmsp += 1;
                self.stream.push(view.tag);
            }
            FrameKind::Llc(_) => {
                if (60..=321).contains(&view.wire_bytes) {
                    b.small += 1;
                } else if (1500..=1550).contains(&view.wire_bytes) {
                    b.file_transfer += 1;
                } else {
                    b.other += 1;
                }
            }
        }
        self.records += 1;
    }

    /// Records captured since t = 0.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Frames seen but not recorded (capture limitation).
    pub fn missed(&self) -> u64 {
        self.missed
    }

    /// Ring Purges observed.
    pub fn purges(&self) -> u64 {
        self.purges
    }

    /// When the last record was captured, when the first and the last
    /// frame were seen.
    pub fn instants(&self) -> [Option<SimTime>; 3] {
        [self.last_record, self.first_at, self.last_at]
    }

    /// Fraction of wire time occupied by observed frames over the
    /// observation window.
    pub fn utilization(&self) -> f64 {
        match (self.first_at, self.last_at) {
            (Some(a), Some(b)) if b > a => self.busy_ns as f64 / b.since(a).as_ns() as f64,
            _ => 0.0,
        }
    }

    /// §5.3 traffic-class breakdown of every captured record.
    pub fn breakdown(&self) -> TrafficBreakdown {
        self.classes
    }

    /// Ordering/loss analysis of the captured CTMSP stream (§5: "Using
    /// the TAP tool, we were able to detect when packets were out of
    /// order and lost").
    pub fn analyze_stream(&self) -> StreamAnalysis {
        self.stream.analysis
    }
}

impl ctms_sim::Persist for Tap {
    /// The accumulators: capture count, counters, instants, class
    /// counts and stream-order state. `cfg` is structural.
    fn persist(&self, enc: &mut ctms_sim::Enc) {
        enc.u64(self.records);
        enc.u64(self.purges);
        enc.u64(self.missed);
        enc.opt(self.last_record.as_ref(), |e, t| e.time(*t));
        enc.u64(self.busy_ns);
        enc.opt(self.first_at.as_ref(), |e, t| e.time(*t));
        enc.opt(self.last_at.as_ref(), |e, t| e.time(*t));
        let b = &self.classes;
        for n in [b.mac, b.small, b.file_transfer, b.ctmsp, b.other] {
            enc.u64(n);
        }
        let a = &self.stream.analysis;
        for n in [a.gaps, a.missing, a.out_of_order, a.duplicates] {
            enc.u64(n);
        }
        enc.opt(self.stream.last_seq.as_ref(), |e, s| e.u64(*s));
    }

    /// Restores the accumulators. State no run of the monitor can reach
    /// is a [`PersistError::Mismatch`]: class counts that do not sum to
    /// the capture count, captures past the buffer or without a capture
    /// instant, instants out of order (first seen ≤ last captured ≤ last
    /// seen), stream-order counts beyond the CTMSP captures, or counters
    /// with nothing seen.
    fn restore(&mut self, dec: &mut ctms_sim::Dec<'_>) -> Result<(), ctms_sim::PersistError> {
        let captured = dec.u64()?;
        let purges = dec.u64()?;
        let missed = dec.u64()?;
        let last_record = dec.opt(|d| d.time())?;
        let busy_ns = dec.u64()?;
        let first_at = dec.opt(|d| d.time())?;
        let last_at = dec.opt(|d| d.time())?;
        let classes = TrafficBreakdown {
            mac: dec.u64()?,
            small: dec.u64()?,
            file_transfer: dec.u64()?,
            ctmsp: dec.u64()?,
            other: dec.u64()?,
        };
        let analysis = StreamAnalysis {
            captured: classes.ctmsp,
            gaps: dec.u64()?,
            missing: dec.u64()?,
            out_of_order: dec.u64()?,
            duplicates: dec.u64()?,
        };
        let last_seq = dec.opt(|d| d.u64())?;

        let b = &classes;
        let class_sum = [b.mac, b.small, b.file_transfer, b.ctmsp, b.other]
            .into_iter()
            .try_fold(0u64, u64::checked_add);
        let instants_ok = match (first_at, last_at) {
            (None, None) => last_record.is_none() && purges == 0 && missed == 0 && busy_ns == 0,
            (Some(first), Some(last)) => {
                first <= last && last_record.is_none_or(|r| first <= r && r <= last)
            }
            _ => false,
        };
        let a = &analysis;
        let stream_ok = last_seq.is_some() == (b.ctmsp > 0)
            && a.out_of_order
                .checked_add(a.duplicates)
                .is_some_and(|n| n < b.ctmsp.max(1))
            && a.gaps <= a.missing;
        let problem = if class_sum != Some(captured) {
            Some("class counts do not sum to the capture count")
        } else if captured > self.cfg.buffer_records as u64
            || last_record.is_some() != (captured > 0)
        {
            Some("capture count does not fit the buffer or the capture instant")
        } else if !instants_ok {
            Some("instants or counters are inconsistent")
        } else if !stream_ok {
            Some("stream-order state exceeds the CTMSP captures")
        } else {
            None
        };
        if let Some(problem) = problem {
            return Err(ctms_sim::PersistError::mismatch(format!(
                "checkpoint TAP: {problem}"
            )));
        }
        self.records = captured;
        self.purges = purges;
        self.missed = missed;
        self.last_record = last_record;
        self.busy_ns = busy_ns;
        self.first_at = first_at;
        self.last_at = last_at;
        self.classes = classes;
        self.stream = StreamState { analysis, last_seq };
        Ok(())
    }
}

impl ctms_sim::Instrument for Tap {
    /// Registers the monitor's capture summary: record/miss/purge counts,
    /// observed wire-busy time, the §5.3 class breakdown under `class.*`,
    /// the CTMSP stream analysis under `stream.*`, and utilization as an
    /// integer parts-per-million gauge (the registry carries no floats).
    fn publish(&self, scope: &mut ctms_sim::telemetry::Scope<'_>) {
        scope.counter("records", self.records);
        scope.counter("missed", self.missed);
        scope.counter("purges", self.purges);
        scope.counter("busy_ns", self.busy_ns);
        scope.gauge(
            "utilization_ppm",
            (self.utilization() * 1_000_000.0).round() as i64,
        );
        let b = self.breakdown();
        {
            let mut c = scope.scope("class");
            c.counter("mac", b.mac);
            c.counter("small", b.small);
            c.counter("file_transfer", b.file_transfer);
            c.counter("ctmsp", b.ctmsp);
            c.counter("other", b.other);
        }
        let a = self.analyze_stream();
        let mut s = scope.scope("stream");
        s.counter("captured", a.captured);
        s.counter("gaps", a.gaps);
        s.counter("missing", a.missing);
        s.counter("out_of_order", a.out_of_order);
        s.counter("duplicates", a.duplicates);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctms_sim::Dur;
    use ctms_tokenring::{ac_byte, FrameId, StationId};

    fn ctmsp_view(tag: u64) -> FrameView {
        FrameView {
            ac: ac_byte(4, false, 0),
            fc: 0x40,
            wire_bytes: 2021,
            src: StationId(0),
            dst: Some(StationId(1)),
            kind: FrameKind::Llc(Proto::Ctmsp),
            tag,
            id: FrameId(tag),
        }
    }

    fn mac_view(kind: MacKind) -> FrameView {
        FrameView {
            ac: ac_byte(0, false, 0),
            fc: 0x05,
            wire_bytes: 25,
            src: StationId(0),
            dst: None,
            kind: FrameKind::Mac(kind),
            tag: 0,
            id: FrameId(999),
        }
    }

    #[test]
    fn records_and_classifies() {
        let mut tap = Tap::new(TapCfg::default());
        tap.observe(
            SimTime::from_ms(1),
            &mac_view(MacKind::ActiveMonitorPresent),
        );
        tap.observe(SimTime::from_ms(2), &ctmsp_view(1));
        tap.observe(
            SimTime::from_ms(3),
            &FrameView {
                ac: ac_byte(0, false, 0),
                fc: 0x40,
                wire_bytes: 1522,
                src: StationId(2),
                dst: Some(StationId(3)),
                kind: FrameKind::Llc(Proto::Ip),
                tag: 0,
                id: FrameId(5),
            },
        );
        tap.observe(
            SimTime::from_ms(4),
            &FrameView {
                ac: ac_byte(0, false, 0),
                fc: 0x40,
                wire_bytes: 120,
                src: StationId(2),
                dst: None,
                kind: FrameKind::Llc(Proto::Arp),
                tag: 0,
                id: FrameId(6),
            },
        );
        let b = tap.breakdown();
        assert_eq!(b.mac, 1);
        assert_eq!(b.ctmsp, 1);
        assert_eq!(b.file_transfer, 1);
        assert_eq!(b.small, 1);
        assert_eq!(tap.records(), 4);
    }

    #[test]
    fn detects_loss_order_and_duplicates() {
        let mut tap = Tap::new(TapCfg::default());
        for (ms, tag) in [(1, 1u64), (13, 2), (25, 4), (37, 4), (49, 3), (61, 5)] {
            tap.observe(SimTime::from_ms(ms), &ctmsp_view(tag));
        }
        let a = tap.analyze_stream();
        assert_eq!(a.captured, 6);
        assert_eq!(a.gaps, 1);
        assert_eq!(a.missing, 1); // packet 3 skipped at first
        assert_eq!(a.duplicates, 1); // 4 twice
        assert_eq!(a.out_of_order, 1); // 3 after 4
    }

    #[test]
    fn capture_limitation_drops_close_frames() {
        let cfg = TapCfg {
            min_record_gap: Dur::from_us(100),
            ..TapCfg::default()
        };
        let mut tap = Tap::new(cfg);
        tap.observe(SimTime::from_us(0), &ctmsp_view(1));
        tap.observe(SimTime::from_us(50), &ctmsp_view(2)); // too close
        tap.observe(SimTime::from_us(200), &ctmsp_view(3));
        assert_eq!(tap.records(), 2);
        assert_eq!(tap.missed(), 1);
    }

    #[test]
    fn purge_counted_even_when_dropped() {
        let cfg = TapCfg {
            min_record_gap: Dur::from_ms(1),
            ..TapCfg::default()
        };
        let mut tap = Tap::new(cfg);
        tap.observe(SimTime::from_us(10), &ctmsp_view(1));
        tap.observe(SimTime::from_us(20), &mac_view(MacKind::RingPurge));
        assert_eq!(tap.purges(), 1);
        assert_eq!(tap.records(), 1);
    }

    #[test]
    fn utilization_estimate() {
        let mut tap = Tap::new(TapCfg::default());
        // Two 2021-byte frames over 24 ms: 2 × 4042 µs of wire time.
        tap.observe(SimTime::from_ms(0), &ctmsp_view(1));
        tap.observe(SimTime::from_ms(24), &ctmsp_view(2));
        let u = tap.utilization();
        assert!((u - 2.0 * 4.042 / 24.0).abs() < 0.01, "u={u}");
    }

    #[test]
    fn buffer_cap_stops_capture() {
        let cfg = TapCfg {
            buffer_records: 2,
            min_record_gap: Dur::ZERO,
        };
        let mut tap = Tap::new(cfg);
        for k in 0..5u64 {
            tap.observe(SimTime::from_ms(k), &ctmsp_view(k));
        }
        assert_eq!(tap.records(), 2);
        assert_eq!(tap.missed(), 3);
    }

    /// A fixed mix of frames: every class, a repeat, a reordering and a
    /// purge, some of them too close together to be captured.
    fn feed(tap: &mut Tap) {
        let frames = [
            (0, mac_view(MacKind::ActiveMonitorPresent)),
            (1_000, ctmsp_view(1)),
            (1_010, ctmsp_view(2)),
            (2_000, ctmsp_view(4)),
            (3_000, ctmsp_view(4)),
            (4_000, ctmsp_view(3)),
            (5_000, mac_view(MacKind::RingPurge)),
            (6_000, ctmsp_view(9)),
        ];
        for (us, view) in frames {
            tap.observe(SimTime::from_us(us), &view);
        }
    }

    #[test]
    fn summary_tap_publishes_what_the_records_gave() {
        // The seven records `feed` captures, classified and ordered by
        // hand: the accumulators must give what the records would.
        let mut tap = Tap::new(TapCfg::default());
        feed(&mut tap);
        let a = tap.analyze_stream();
        assert_eq!((a.captured, a.gaps, a.missing), (5, 2, 6));
        assert_eq!((a.duplicates, a.out_of_order), (1, 1));
        let b = tap.breakdown();
        assert_eq!(
            (b.mac, b.ctmsp, b.small, b.file_transfer, b.other),
            (2, 5, 0, 0, 0)
        );
        assert_eq!(tap.records(), 7);
        assert_eq!(tap.missed(), 1);
    }

    #[test]
    fn persisted_state_restores_and_continues() {
        use ctms_sim::{Dec, Enc, Persist};
        let mut tap = Tap::new(TapCfg::default());
        feed(&mut tap);
        let mut enc = Enc::new();
        tap.persist(&mut enc);
        let bytes = enc.into_bytes();
        let mut back = Tap::new(TapCfg::default());
        back.restore(&mut Dec::new(&bytes)).unwrap();
        for t in [&mut tap, &mut back] {
            t.observe(SimTime::from_us(9_000), &ctmsp_view(10));
        }
        assert_eq!(back.analyze_stream(), tap.analyze_stream());
        assert_eq!(back.records(), tap.records());
        let mut again = Enc::new();
        back.persist(&mut again);
        let mut want = Enc::new();
        tap.persist(&mut want);
        assert_eq!(again.into_bytes(), want.into_bytes());

        // One class count off: the classes no longer sum to the captures.
        // The MAC count leads the five class counts, which precede four
        // stream counters and the optional last packet number.
        let mut bad = bytes.clone();
        let mac_count = bytes.len() - 9 - 4 * 8 - 5 * 8;
        bad[mac_count] += 1;
        let err = Tap::new(TapCfg::default()).restore(&mut Dec::new(&bad));
        assert!(
            matches!(err, Err(ctms_sim::PersistError::Mismatch(_))),
            "{err:?}"
        );
    }
}
