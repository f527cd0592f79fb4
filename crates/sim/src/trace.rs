//! Event/edge tracing.
//!
//! The paper instruments four *points of measurement* (§5.2): the VCA IRQ
//! line, VCA handler entry, the pre-transmit point in the Token Ring driver,
//! and the CTMSP-identified point on the receiver. Each is a named signal on
//! which timestamped occurrences ("edges") are recorded. [`EdgeLog`] is the
//! ground-truth record; the measurement-tool models in `ctms-measure` read
//! it through their own error models (clock quantization, service-loop
//! delay, …).
//!
//! A log is **state plus history**. The state is a handful of running
//! accumulators (count, FNV-1a digest, first and last instant) that never
//! grow and are all a checkpoint carries. The history is the edges
//! themselves, packed a few bytes each into a [`History`] sample buffer
//! only where one is attached: a log built by [`EdgeLog::new`] keeps its
//! edges; one built by [`EdgeLog::summary`] keeps the accumulators alone,
//! so its memory and its snapshot stay the same size however long the
//! run goes.

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

/// A sample a [`History`] keeps packed: each field is stored as the
/// zigzag-LEB128 varint of its wrapping difference from the same field
/// of the previous kept sample, so a stream of close instants and
/// climbing tags takes a few bytes a sample instead of its width.
pub trait Packed: Copy {
    /// The delta base of the first kept sample.
    const ORIGIN: Self;

    /// Appends `self` as deltas from `prev`.
    fn pack(self, prev: Self, out: &mut Vec<u8>);

    /// Reads the sample that follows `prev` from the front of `bytes`
    /// and moves `bytes` past it.
    fn unpack(prev: Self, bytes: &mut &[u8]) -> Self;
}

/// Appends `now − prev` (wrapping, read as signed) as a zigzag LEB128
/// varint: one byte for a delta in −64..64, one more per 7 bits.
fn put_delta(out: &mut Vec<u8>, now: u64, prev: u64) {
    let d = now.wrapping_sub(prev) as i64;
    let mut z = ((d << 1) ^ (d >> 63)) as u64;
    while z >= 0x80 {
        out.push(z as u8 | 0x80);
        z >>= 7;
    }
    out.push(z as u8);
}

/// Reads a varint written by [`put_delta`] from the front of `bytes`
/// and returns `prev` plus the delta.
fn take_delta(bytes: &mut &[u8], prev: u64) -> u64 {
    let (mut z, mut shift) = (0u64, 0);
    // A history ends on a whole sample, so the loop ends on a byte
    // below 0x80; an exhausted slice only stops it early.
    while let Some((&b, rest)) = bytes.split_first() {
        *bytes = rest;
        z |= u64::from(b & 0x7F) << shift;
        if b < 0x80 {
            break;
        }
        shift += 7;
    }
    let d = (z >> 1) as i64 ^ -((z & 1) as i64);
    prev.wrapping_add(d as u64)
}

impl Packed for SimTime {
    const ORIGIN: Self = SimTime::ZERO;

    fn pack(self, prev: Self, out: &mut Vec<u8>) {
        put_delta(out, self.as_ns(), prev.as_ns());
    }

    fn unpack(prev: Self, bytes: &mut &[u8]) -> Self {
        SimTime::from_ns(take_delta(bytes, prev.as_ns()))
    }
}

impl Packed for Edge {
    const ORIGIN: Self = Edge {
        at: SimTime::ZERO,
        tag: 0,
    };

    fn pack(self, prev: Self, out: &mut Vec<u8>) {
        self.at.pack(prev.at, out);
        put_delta(out, self.tag, prev.tag);
    }

    fn unpack(prev: Self, bytes: &mut &[u8]) -> Self {
        Edge {
            at: SimTime::unpack(prev.at, bytes),
            tag: take_delta(bytes, prev.tag),
        }
    }
}

/// A presentation: instant, packet tag and payload bytes.
impl Packed for (SimTime, u64, u32) {
    const ORIGIN: Self = (SimTime::ZERO, 0, 0);

    fn pack(self, prev: Self, out: &mut Vec<u8>) {
        self.0.pack(prev.0, out);
        put_delta(out, self.1, prev.1);
        put_delta(out, u64::from(self.2), u64::from(prev.2));
    }

    fn unpack(prev: Self, bytes: &mut &[u8]) -> Self {
        (
            SimTime::unpack(prev.0, bytes),
            take_delta(bytes, prev.1),
            // The delta of two u32s lands back in u32 range.
            take_delta(bytes, u64::from(prev.2)) as u32,
        )
    }
}

/// A sample stream's count since t = 0, plus the samples themselves
/// while a history sink is attached.
///
/// The count is state: it is checkpointed and survives a restore. The
/// samples are history: kept only where a sink is attached
/// ([`History::new`], [`History::attach_history`]), never checkpointed,
/// and after a restore they start again at the restore point. So
/// [`History::len`] always counts from t = 0, while
/// [`History::iter`] yields what was recorded since the sink was
/// attached or the state last restored — the same thing on a build run
/// from t = 0. The kept samples are [`Packed`] into one byte buffer.
#[derive(Clone, Debug)]
pub struct History<T> {
    total: u64,
    kept: Option<Kept<T>>,
}

/// A history sink: the packed samples, how many there are, and the
/// last one (the delta base of the next).
#[derive(Clone, Debug)]
struct Kept<T> {
    bytes: Vec<u8>,
    len: usize,
    last: T,
}

impl<T: Packed> Kept<T> {
    fn new() -> Self {
        Kept {
            bytes: Vec::new(),
            len: 0,
            last: T::ORIGIN,
        }
    }
}

impl<T> Default for History<T> {
    /// A count with no sink attached.
    fn default() -> Self {
        History::summary()
    }
}

impl<T> History<T> {
    /// An empty stream that only counts.
    pub const fn summary() -> Self {
        History {
            total: 0,
            kept: None,
        }
    }

    /// Samples counted since t = 0, kept or not.
    pub fn len(&self) -> usize {
        self.total as usize
    }

    /// True if nothing was counted since t = 0.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// True if a sink is attached.
    pub fn keeps_history(&self) -> bool {
        self.kept.is_some()
    }

    /// Bytes the kept samples take packed (excluding the buffer's
    /// spare capacity): zero without a sink.
    pub fn kept_bytes(&self) -> usize {
        self.kept.as_ref().map_or(0, |k| k.bytes.len())
    }
}

impl<T: Packed> History<T> {
    /// An empty stream that keeps its samples.
    pub fn new() -> Self {
        History {
            total: 0,
            kept: Some(Kept::new()),
        }
    }

    /// Counts one sample and keeps it if a sink is attached.
    pub fn push(&mut self, sample: T) {
        self.total += 1;
        if let Some(kept) = &mut self.kept {
            sample.pack(kept.last, &mut kept.bytes);
            kept.last = sample;
            kept.len += 1;
        }
    }

    /// The kept samples, decoded in arrival order: none without a sink.
    pub fn iter(&self) -> Samples<'_, T> {
        let (bytes, left) = self
            .kept
            .as_ref()
            .map_or((&[][..], 0), |k| (&k.bytes[..], k.len));
        Samples {
            bytes,
            prev: T::ORIGIN,
            left,
        }
    }

    /// Attaches a sink: samples counted from now on are kept too.
    pub fn attach_history(&mut self) {
        self.kept.get_or_insert_with(Kept::new);
    }

    /// Sets the count to `total` (a restored state) and empties the
    /// sink, which stays attached if it was; the next kept sample is
    /// packed from the origin again.
    pub fn restart(&mut self, total: u64) {
        self.total = total;
        if let Some(kept) = &mut self.kept {
            kept.bytes.clear();
            kept.len = 0;
            kept.last = T::ORIGIN;
        }
    }
}

impl<'a, T: Packed> IntoIterator for &'a History<T> {
    type Item = T;
    type IntoIter = Samples<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// The kept samples of a [`History`], decoded one by one in arrival
/// order.
#[derive(Clone, Debug)]
pub struct Samples<'a, T> {
    bytes: &'a [u8],
    prev: T,
    left: usize,
}

impl<T: Packed> Iterator for Samples<'_, T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        self.left = self.left.checked_sub(1)?;
        self.prev = T::unpack(self.prev, &mut self.bytes);
        Some(self.prev)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl<T: Packed> ExactSizeIterator for Samples<'_, T> {}

/// Pairs each edge of `from`, in order, with the first unused entry of
/// its tag in `index`, which holds `(tag, instant)` sorted by tag with
/// ties in time order. The cursor of a tag sits at the index position
/// where the tag's entries start. Negative deltas are skipped.
fn pair_by_tag(from: Samples<'_, Edge>, index: &[(u64, SimTime)]) -> Vec<Dur> {
    let mut used = vec![0usize; index.len()];
    let mut out = Vec::with_capacity(from.len().min(index.len()));
    for e in from {
        let start = index.partition_point(|x| x.0 < e.tag);
        let Some(cursor) = used.get_mut(start) else {
            continue;
        };
        match index.get(start + *cursor) {
            Some(&(tag, at)) if tag == e.tag => {
                *cursor += 1;
                if let Some(d) = at.checked_since(e.at) {
                    out.push(d);
                }
            }
            _ => {}
        }
    }
    out
}

/// True if the kept edges' tags never decrease, as a packet stream's
/// do.
fn tags_climb(log: &EdgeLog) -> bool {
    log.edges().is_sorted_by_key(|e| e.tag)
}

/// FNV-1a offset basis: the digest of an empty log.
const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// Folds `v`'s little-endian bytes into the FNV-1a state `h`.
fn fnv_u64(mut h: u64, v: u64) -> u64 {
    for b in v.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// An append-only log of edges on one signal: running accumulators,
/// plus the edges themselves where a history sink is attached (see the
/// module docs).
#[derive(Clone, Debug)]
pub struct EdgeLog {
    name: String,
    edges: History<Edge>,
    digest: u64,
    first: Option<SimTime>,
    last: Option<SimTime>,
}

impl Default for EdgeLog {
    fn default() -> Self {
        EdgeLog::new("")
    }
}

impl EdgeLog {
    /// Creates an empty log for the named signal that keeps its edges.
    pub fn new(name: impl Into<String>) -> Self {
        EdgeLog {
            edges: History::new(),
            ..EdgeLog::summary(name)
        }
    }

    /// Creates an empty log that keeps only the accumulators: count,
    /// digest, first and last instant. [`EdgeLog::edges`] stays empty.
    pub fn summary(name: impl Into<String>) -> Self {
        EdgeLog {
            name: name.into(),
            ..EdgeLog::empty()
        }
    }

    /// An unnamed summary log with nothing recorded: what a reader is
    /// handed for a signal that never fired (it can sit in a `static`).
    pub const fn empty() -> Self {
        EdgeLog {
            name: String::new(),
            edges: History::summary(),
            digest: FNV_OFFSET,
            first: None,
            last: None,
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
        if let Some(last) = self.last {
            assert!(
                at >= last,
                "EdgeLog {}: non-monotonic record {at} after {last}",
                self.name
            );
        }
        self.first.get_or_insert(at);
        self.last = Some(at);
        self.digest = fnv_u64(fnv_u64(self.digest, at.as_ns()), tag);
        self.edges.push(Edge { at, tag });
    }

    /// The kept edges, decoded in time order: every edge on a log that
    /// keeps its history and was never restored, none on a summary log.
    pub fn edges(&self) -> Samples<'_, Edge> {
        self.edges.iter()
    }

    /// Bytes the kept edges take packed: zero on a summary log.
    pub fn kept_bytes(&self) -> usize {
        self.edges.kept_bytes()
    }

    /// Number of edges recorded since t = 0, kept or not.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Instant of the first edge since t = 0.
    pub fn first(&self) -> Option<SimTime> {
        self.first
    }

    /// Instant of the latest edge.
    pub fn last(&self) -> Option<SimTime> {
        self.last
    }

    /// True if the log keeps its edges.
    pub fn keeps_history(&self) -> bool {
        self.edges.keeps_history()
    }

    /// Keeps the edges recorded from now on.
    pub fn attach_history(&mut self) {
        self.edges.attach_history();
    }

    /// Inter-occurrence intervals of the kept edges (the paper's
    /// histograms 1–4 are exactly this on the four measurement points).
    pub fn inter_occurrence(&self) -> Vec<Dur> {
        let mut edges = self.edges();
        let Some(mut prev) = edges.next() else {
            return Vec::new();
        };
        edges
            .map(|e| {
                let d = e.at.since(prev.at);
                prev = e;
                d
            })
            .collect()
    }

    /// Differences between *like occurrences* of two signals (the paper's
    /// histograms 5–7), over the kept edges: for every tag present in
    /// both logs, the delta from this log's edge to `later`'s edge with
    /// the same tag, in this log's edge order.
    ///
    /// Edges whose counterpart is missing (lost packets) are skipped.
    /// If a tag repeats (duplicate packets), occurrences are paired in
    /// order of appearance. A pair whose `later` edge comes first gives
    /// no delta, but uses that edge up.
    ///
    /// When both logs' tags never decrease, as every packet stream's
    /// do, the two are walked once side by side and nothing is decoded
    /// into a copy. Otherwise `later`'s edges are found through one
    /// index of `(tag, instant)` sorted by tag, with a cursor per tag.
    pub fn deltas_to(&self, later: &EdgeLog) -> Vec<Dur> {
        if !(tags_climb(self) && tags_climb(later)) {
            let mut index: Vec<(u64, SimTime)> = later.edges().map(|e| (e.tag, e.at)).collect();
            index.sort_unstable();
            return pair_by_tag(self.edges(), &index);
        }
        let mut out = Vec::with_capacity(self.edges().len().min(later.edges().len()));
        let mut rest = later.edges().peekable();
        for e in self.edges() {
            while rest.next_if(|l| l.tag < e.tag).is_some() {}
            if let Some(l) = rest.next_if(|l| l.tag == e.tag) {
                if let Some(d) = l.at.checked_since(e.at) {
                    out.push(d);
                }
            }
        }
        out
    }

    /// Pairs kept edges positionally with `later`'s (k-th with k-th),
    /// for signals without meaningful tags. Unpaired trailing edges are
    /// skipped, as are negative deltas.
    pub fn deltas_positional(&self, later: &EdgeLog) -> Vec<Dur> {
        self.edges()
            .zip(later.edges())
            .filter_map(|(a, b)| b.at.checked_since(a.at))
            .collect()
    }

    /// A 64-bit FNV-1a digest over every `(at, tag)` pair since t = 0,
    /// kept or not (the name is excluded, so relabelling a signal does
    /// not change its digest). Folded as edges arrive, so it survives a
    /// checkpoint. Used by determinism regression tests: a fixed seed
    /// must produce a bit-identical log, hence a stable digest.
    pub fn digest(&self) -> u64 {
        self.digest
    }
}

impl Persist for EdgeLog {
    /// Encodes the accumulators: count, digest, first and last instant.
    /// The name and whether edges are kept are structural; the kept
    /// edges are history and are not encoded.
    fn persist(&self, enc: &mut Enc) {
        enc.u64(self.edges.len() as u64);
        enc.u64(self.digest);
        enc.opt(self.first.as_ref(), |e, t| e.time(*t));
        enc.opt(self.last.as_ref(), |e, t| e.time(*t));
    }

    /// Restores the accumulators and empties the kept edges. An empty
    /// log must have no instants and the empty digest; a non-empty one
    /// both instants, in order, and one edge only at one instant —
    /// anything else is a [`PersistError::Mismatch`].
    fn restore(&mut self, dec: &mut Dec<'_>) -> Result<(), PersistError> {
        let count = dec.u64()?;
        let digest = dec.u64()?;
        let first = dec.opt(|d| d.time())?;
        let last = dec.opt(|d| d.time())?;
        let consistent = match (first, last) {
            (None, None) => count == 0 && digest == FNV_OFFSET,
            (Some(a), Some(b)) => count > 0 && a <= b && (count > 1 || a == b),
            _ => false,
        };
        if !consistent {
            return Err(PersistError::mismatch(format!(
                "checkpoint edge log {}: {count} edges do not fit first {first:?}, last {last:?} \
                 and digest {digest:#018X}",
                self.name
            )));
        }
        self.edges.restart(count);
        self.digest = digest;
        self.first = first;
        self.last = last;
        Ok(())
    }
}

impl crate::telemetry::Instrument for EdgeLog {
    /// Registers the log's summary: edge count, first/last instants, and
    /// the FNV-1a content digest (as hex text, so the full 64 bits
    /// survive). Edge streams stay in the log itself — the registry
    /// carries the diffable fingerprint.
    fn publish(&self, scope: &mut crate::telemetry::Scope<'_>) {
        scope.counter("edges", self.edges.len() as u64);
        scope.text("digest", format!("{:#018X}", self.digest));
        if let (Some(first), Some(last)) = (self.first, self.last) {
            scope.gauge("first_ns", first.as_ns() as i64);
            scope.gauge("last_ns", last.as_ns() as i64);
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

    /// `deltas_to` as it was before the sorted index, one FIFO queue of
    /// `later`'s instants per tag: the reference the index must match.
    /// Also counts the pairs it skipped as negative.
    fn deltas_by_queues(from: &EdgeLog, later: &EdgeLog) -> (Vec<Dur>, usize) {
        use std::collections::{HashMap, VecDeque};
        let mut by_tag: HashMap<u64, VecDeque<SimTime>> = HashMap::new();
        for e in later.edges() {
            by_tag.entry(e.tag).or_default().push_back(e.at);
        }
        let (mut out, mut negative) = (Vec::new(), 0);
        for e in from.edges() {
            if let Some(q) = by_tag.get_mut(&e.tag) {
                if let Some(t) = q.pop_front() {
                    match t.checked_since(e.at) {
                        Some(d) => out.push(d),
                        None => negative += 1,
                    }
                }
            }
        }
        (out, negative)
    }

    /// A random log of up to 40 edges, 0–30 µs apart. Its tags climb by
    /// 0–2 at a time when `climbing` (repeats and gaps, never back),
    /// else are drawn from `0..tags` (repeats, gaps and reorderings).
    fn random_log(rng: &mut crate::rng::Pcg32, tags: u64, climbing: bool) -> EdgeLog {
        let mut log = EdgeLog::new("x");
        let (mut at, mut tag) = (0, 0);
        for _ in 0..rng.index(41) {
            at += rng.below(31);
            tag = if climbing {
                tag + rng.below(3)
            } else {
                rng.below(tags)
            };
            log.record(t(at), tag);
        }
        log
    }

    #[test]
    fn deltas_to_matches_the_per_tag_queues() {
        let mut rng = crate::rng::Pcg32::new(21, 5);
        // Cases with `later`'s tags out of order (the sorted index) and
        // in order (its edges are the index), with a repeated tag in
        // `later`, with an edge of `from` left unpaired, and with a
        // negative pair skipped.
        let (mut unsorted, mut sorted, mut repeats, mut unpaired, mut negative) = (0, 0, 0, 0, 0);
        for case in 0..2_000 {
            let tags = 1 + rng.below(12);
            let climbing = rng.chance(0.5);
            let from = random_log(&mut rng, tags, climbing);
            let later = random_log(&mut rng, tags, case % 2 == 0);
            let (want, skipped) = deltas_by_queues(&from, &later);
            assert_eq!(from.deltas_to(&later), want, "case {case}");
            let l: Vec<Edge> = later.edges().collect();
            if l.windows(2).all(|w| w[0].tag <= w[1].tag) {
                sorted += 1;
            } else {
                unsorted += 1;
            }
            repeats += usize::from(l.windows(2).any(|w| w[0].tag == w[1].tag));
            unpaired += usize::from(want.len() + skipped < from.len());
            negative += usize::from(skipped > 0);
        }
        for (what, n) in [
            ("unsorted", unsorted),
            ("sorted", sorted),
            ("repeated tag", repeats),
            ("unpaired edge", unpaired),
            ("negative pair", negative),
        ] {
            assert!(n >= 100, "only {n} cases with {what}");
        }
    }

    /// The digest recomputed from scratch as a fold over `(at, tag)` pairs.
    fn fold(edges: &[(u64, u64)]) -> u64 {
        edges
            .iter()
            .fold(FNV_OFFSET, |h, &(at, tag)| fnv_u64(fnv_u64(h, at), tag))
    }

    #[test]
    fn summary_log_keeps_state_not_edges() {
        let mut full = EdgeLog::new("x");
        let mut summary = EdgeLog::summary("x");
        assert_eq!(full.digest(), fold(&[]));
        let edges = [(5, 1), (5, 2), (17, 9)];
        for &(us, tag) in &edges {
            full.record(t(us), tag);
            summary.record(t(us), tag);
        }
        let ns: Vec<(u64, u64)> = edges.iter().map(|&(us, tag)| (us * 1_000, tag)).collect();
        assert_eq!(full.digest(), fold(&ns));
        assert_eq!(summary.digest(), full.digest());
        assert_eq!((summary.len(), full.len()), (3, 3));
        assert_eq!(full.edges().len(), 3);
        assert_eq!(summary.edges().len(), 0);
        assert_eq!((summary.first(), summary.last()), (Some(t(5)), Some(t(17))));
    }

    #[test]
    fn restore_keeps_the_state_and_restarts_the_history() {
        let mut log = EdgeLog::new("x");
        log.record(t(1), 1);
        log.record(t(2), 2);
        let mut enc = Enc::new();
        log.persist(&mut enc);
        let bytes = enc.into_bytes();

        let mut back = EdgeLog::new("x");
        back.restore(&mut Dec::new(&bytes)).unwrap();
        assert_eq!((back.len(), back.digest()), (2, log.digest()));
        assert!(back.edges().len() == 0 && back.keeps_history());
        back.record(t(3), 3);
        log.record(t(3), 3);
        assert_eq!(back.digest(), log.digest());
        assert_eq!(
            back.edges().collect::<Vec<_>>(),
            [Edge { at: t(3), tag: 3 }]
        );
    }

    #[test]
    fn restore_rejects_inconsistent_accumulators() {
        let state = |count: u64, digest: u64, first: Option<u64>, last: Option<u64>| {
            let mut enc = Enc::new();
            enc.u64(count);
            enc.u64(digest);
            enc.opt(first.as_ref(), |e, us| e.time(t(*us)));
            enc.opt(last.as_ref(), |e, us| e.time(t(*us)));
            enc.into_bytes()
        };
        for (bytes, ok) in [
            (state(0, FNV_OFFSET, None, None), true),
            (state(2, 7, Some(1), Some(4)), true),
            (state(1, 7, Some(4), Some(4)), true),
            (state(0, 7, None, None), false),
            (state(1, FNV_OFFSET, None, None), false),
            (state(0, FNV_OFFSET, Some(1), Some(1)), false),
            (state(2, 7, Some(4), Some(1)), false),
            (state(1, 7, Some(1), Some(4)), false),
            (state(2, 7, Some(1), None), false),
        ] {
            let got = EdgeLog::summary("x").restore(&mut Dec::new(&bytes));
            assert_eq!(got.is_ok(), ok, "{got:?}");
            if !ok {
                assert!(matches!(got, Err(PersistError::Mismatch(_))));
            }
        }
    }

    /// The next value of a packed field after `prev`: an extreme (0,
    /// `u64::MAX` or beside them), `prev` itself, a small step up or
    /// down, a gap beyond 2^32, or anything.
    fn field(rng: &mut crate::rng::Pcg32, prev: u64) -> u64 {
        match rng.below(6) {
            0 => [0, 1, u64::MAX - 1, u64::MAX][rng.index(4)],
            1 => prev,
            2 => prev.wrapping_add(rng.below(200)),
            3 => prev.wrapping_sub(rng.below(200)),
            4 => prev.wrapping_add((1 << 32) + rng.below(1 << 40)),
            _ => rng.next_u64(),
        }
    }

    /// Pushes samples drawn by `next` into a history, some before its
    /// sink is attached, and checks what it keeps, counts and packs,
    /// before and after a restart.
    fn check_round_trip<T: Packed + PartialEq + std::fmt::Debug>(
        rng: &mut crate::rng::Pcg32,
        next: impl Fn(&mut crate::rng::Pcg32, T) -> T,
    ) {
        let draw = |rng: &mut crate::rng::Pcg32, n: usize| -> Vec<T> {
            let mut prev = T::ORIGIN;
            (0..n)
                .map(|_| {
                    prev = next(rng, prev);
                    prev
                })
                .collect()
        };
        let mut h = History::summary();
        let unkept = draw(rng, 4);
        for &s in &unkept {
            h.push(s);
        }
        h.attach_history();
        let n = rng.index(200);
        let kept = draw(rng, n);
        for &s in &kept {
            h.push(s);
        }
        assert_eq!((h.len(), h.iter().len()), (4 + n, n));
        assert_eq!(h.iter().collect::<Vec<_>>(), kept);

        h.restart(7);
        assert_eq!((h.len(), h.iter().len(), h.kept_bytes()), (7, 0, 0));
        let n = rng.index(200);
        let after = draw(rng, n);
        let mut fresh = History::new();
        for &s in &after {
            h.push(s);
            fresh.push(s);
        }
        assert_eq!(h.len(), 7 + n);
        assert_eq!(h.iter().collect::<Vec<_>>(), after);
        // The deltas start again from the origin: the restarted history
        // packs exactly as a new one does.
        assert_eq!(h.kept_bytes(), fresh.kept_bytes());
    }

    #[test]
    fn packed_histories_round_trip() {
        let mut rng = crate::rng::Pcg32::new(24, 3);
        let time =
            |rng: &mut crate::rng::Pcg32, p: SimTime| SimTime::from_ns(field(rng, p.as_ns()));
        for _ in 0..300 {
            check_round_trip(&mut rng, time);
            check_round_trip(&mut rng, |rng, p: Edge| Edge {
                at: time(rng, p.at),
                tag: field(rng, p.tag),
            });
            check_round_trip(&mut rng, |rng, p: (SimTime, u64, u32)| {
                (
                    time(rng, p.0),
                    field(rng, p.1),
                    field(rng, u64::from(p.2)) as u32,
                )
            });
        }
    }

    #[test]
    fn a_packet_stream_packs_to_a_few_bytes_a_sample() {
        // 12 ms apart and one packet number up: the paper's streams.
        let mut edges = EdgeLog::new("x");
        let mut presented = History::new();
        let mut instants = History::new();
        for k in 0..1_000 {
            edges.record(t(12_000 * k), k);
            presented.push((t(12_000 * k + 10_775), k, 1_508));
            instants.push(t(12_000 * k));
        }
        // 4 B of instant, 1 B of tag and 1 B of payload size, after a
        // first sample at or near the origin.
        assert_eq!(edges.kept_bytes(), 2 + 5 * 999);
        assert_eq!(presented.kept_bytes(), 7 + 6 * 999);
        assert_eq!(instants.kept_bytes(), 1 + 4 * 999);
        assert_eq!(EdgeLog::summary("x").kept_bytes(), 0);
    }

    #[test]
    fn history_counts_from_zero_and_keeps_from_attach() {
        let mut h = History::summary();
        h.push(t(1));
        h.attach_history();
        h.push(t(2));
        assert_eq!((h.len(), h.iter().collect::<Vec<_>>()), (2, vec![t(2)]));
        h.restart(10);
        assert_eq!((h.len(), h.iter().len()), (10, 0));
        h.push(t(3));
        assert_eq!(h.iter().collect::<Vec<_>>(), vec![t(3)]);
    }
}
