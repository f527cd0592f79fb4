//! Event/edge tracing.
//!
//! The paper instruments four *points of measurement* (§5.2): the VCA IRQ
//! line, VCA handler entry, the pre-transmit point in the Token Ring driver,
//! and the CTMSP-identified point on the receiver. Each is a named signal on
//! which timestamped occurrences ("edges") are recorded. [`EdgeLog`] is the
//! ground-truth record; the measurement-tool models in `ctms-measure` read
//! it through their own error models (clock quantization, service-loop
//! delay, …).

use crate::persist::{Dec, Enc, Persist, PersistError};
use crate::time::{Dur, SimTime};

/// One timestamped occurrence on a signal, with an optional tag
/// (the paper tags transmit/receive edges with the low 7 bits of the packet
/// number, §5.2.3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Edge {
    /// Exact simulation time of the occurrence.
    pub at: SimTime,
    /// Free-form tag; packet sequence number for packet edges.
    pub tag: u64,
}

/// An append-only log of edges on one signal.
#[derive(Clone, Debug, Default)]
pub struct EdgeLog {
    name: String,
    edges: Vec<Edge>,
}

impl EdgeLog {
    /// Creates an empty log for the named signal.
    pub fn new(name: impl Into<String>) -> Self {
        EdgeLog {
            name: name.into(),
            edges: Vec::new(),
        }
    }

    /// The signal name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Records an occurrence.
    ///
    /// # Panics
    ///
    /// Panics if `at` precedes the previous edge: signals are recorded in
    /// simulation order.
    pub fn record(&mut self, at: SimTime, tag: u64) {
        if let Some(last) = self.edges.last() {
            assert!(
                at >= last.at,
                "EdgeLog {}: non-monotonic record {at} after {}",
                self.name,
                last.at
            );
        }
        self.edges.push(Edge { at, tag });
    }

    /// All recorded edges, in time order.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Number of recorded edges.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Inter-occurrence intervals (the paper's histograms 1–4 are exactly
    /// this on the four measurement points).
    pub fn inter_occurrence(&self) -> Vec<Dur> {
        self.edges
            .windows(2)
            .map(|w| w[1].at.since(w[0].at))
            .collect()
    }

    /// Differences between *like occurrences* of two signals (the paper's
    /// histograms 5–7): for every tag present in both logs, the delta from
    /// this log's edge to `later`'s edge with the same tag.
    ///
    /// Edges whose counterpart is missing (lost packets) are skipped.
    /// If a tag repeats (duplicate packets), occurrences are paired in
    /// order of appearance.
    pub fn deltas_to(&self, later: &EdgeLog) -> Vec<Dur> {
        use std::collections::HashMap;
        // Index `later`'s edges by tag, preserving order per tag.
        let mut by_tag: HashMap<u64, std::collections::VecDeque<SimTime>> = HashMap::new();
        for e in &later.edges {
            by_tag.entry(e.tag).or_default().push_back(e.at);
        }
        let mut out = Vec::new();
        for e in &self.edges {
            if let Some(q) = by_tag.get_mut(&e.tag) {
                if let Some(t) = q.pop_front() {
                    if let Some(d) = t.checked_since(e.at) {
                        out.push(d);
                    }
                }
            }
        }
        out
    }

    /// Pairs edges positionally with `later` (k-th with k-th), for signals
    /// without meaningful tags. Unpaired trailing edges are skipped, as are
    /// negative deltas.
    pub fn deltas_positional(&self, later: &EdgeLog) -> Vec<Dur> {
        self.edges
            .iter()
            .zip(later.edges.iter())
            .filter_map(|(a, b)| b.at.checked_since(a.at))
            .collect()
    }

    /// A 64-bit FNV-1a digest over every `(at, tag)` pair (the name is
    /// excluded, so relabelling a signal does not change its digest).
    /// Used by determinism regression tests: a fixed seed must produce a
    /// bit-identical log, hence a stable digest.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xCBF2_9CE4_8422_2325;
        let mut eat = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        for e in &self.edges {
            eat(e.at.as_ns());
            eat(e.tag);
        }
        h
    }
}

impl Persist for EdgeLog {
    /// Encodes the name and every `(at, tag)` pair; restore replaces the
    /// whole log (including the name, so `EdgeLog::new("")` is a valid
    /// decode target).
    fn persist(&self, enc: &mut Enc) {
        enc.str(&self.name);
        enc.seq_len(self.edges.len());
        for e in &self.edges {
            enc.time(e.at);
            enc.u64(e.tag);
        }
    }
    fn restore(&mut self, dec: &mut Dec<'_>) -> Result<(), PersistError> {
        self.name = dec.str()?;
        self.edges = dec.seq(|d| {
            Ok(Edge {
                at: d.time()?,
                tag: d.u64()?,
            })
        })?;
        Ok(())
    }
}

impl crate::telemetry::Instrument for EdgeLog {
    /// Registers the log's summary: edge count, first/last instants, and
    /// the FNV-1a content digest (as hex text, so the full 64 bits
    /// survive). Full edge streams stay in the log itself — the registry
    /// carries the diffable fingerprint.
    fn publish(&self, scope: &mut crate::telemetry::Scope<'_>) {
        scope.counter("edges", self.edges.len() as u64);
        scope.text("digest", format!("{:#018X}", self.digest()));
        if let (Some(first), Some(last)) = (self.edges.first(), self.edges.last()) {
            scope.gauge("first_ns", first.at.as_ns() as i64);
            scope.gauge("last_ns", last.at.as_ns() as i64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_us(us)
    }

    #[test]
    fn inter_occurrence_intervals() {
        let mut log = EdgeLog::new("vca_irq");
        for k in 0..4 {
            log.record(t(12_000 * k), k);
        }
        assert_eq!(
            log.inter_occurrence(),
            vec![Dur::from_ms(12), Dur::from_ms(12), Dur::from_ms(12)]
        );
        assert_eq!(log.len(), 4);
        assert!(!log.is_empty());
    }

    #[test]
    #[should_panic(expected = "non-monotonic")]
    fn non_monotonic_record_panics() {
        let mut log = EdgeLog::new("x");
        log.record(t(10), 0);
        log.record(t(5), 1);
    }

    #[test]
    fn deltas_by_tag_skip_lost_packets() {
        let mut tx = EdgeLog::new("tx");
        let mut rx = EdgeLog::new("rx");
        tx.record(t(0), 1);
        tx.record(t(12_000), 2);
        tx.record(t(24_000), 3);
        // Packet 2 lost on the ring.
        rx.record(t(10_740), 1);
        rx.record(t(34_900), 3);
        assert_eq!(
            tx.deltas_to(&rx),
            vec![Dur::from_us(10_740), Dur::from_us(10_900)]
        );
    }

    #[test]
    fn deltas_by_tag_pair_duplicates_in_order() {
        let mut tx = EdgeLog::new("tx");
        let mut rx = EdgeLog::new("rx");
        // Packet 5 retransmitted: two tx edges, two rx edges.
        tx.record(t(0), 5);
        tx.record(t(100), 5);
        rx.record(t(10), 5);
        rx.record(t(150), 5);
        assert_eq!(tx.deltas_to(&rx), vec![Dur::from_us(10), Dur::from_us(50)]);
    }

    #[test]
    fn positional_deltas() {
        let mut a = EdgeLog::new("irq");
        let mut b = EdgeLog::new("handler");
        a.record(t(0), 0);
        a.record(t(12_000), 0);
        a.record(t(24_000), 0);
        b.record(t(40), 0);
        b.record(t(12_480), 0);
        assert_eq!(
            a.deltas_positional(&b),
            vec![Dur::from_us(40), Dur::from_us(480)]
        );
    }

    #[test]
    fn deltas_drop_negative_pairs() {
        let mut a = EdgeLog::new("a");
        let mut b = EdgeLog::new("b");
        a.record(t(100), 1);
        b.record(t(50), 1);
        assert!(a.deltas_to(&b).is_empty());
        assert!(a.deltas_positional(&b).is_empty());
    }
}
