//! The workspace-wide deterministic telemetry registry.
//!
//! Half of the paper is measurement methodology (§5: four measurement
//! points, seven histograms, the TAP/PC-AT/pseudo-driver error models),
//! and the reproduction used to scatter its own observability the same
//! way the original lab did — per-crate counter structs, hand-plumbed
//! edge logs, ad-hoc claim tables. This module is the single metrics
//! substrate they all register into:
//!
//! * [`Registry`] — a flat tree of dotted-path metrics
//!   (`unixkern.h0.mbuf.drops`, `tokenring.ring0.purges`, …) held in a
//!   `BTreeMap`, so iteration order is the path order, always,
//! * [`Value`] — counters, gauges, fixed-bin [`Hist`]ograms and short
//!   text values (digests, labels); **no floats**, so serialization is
//!   byte-exact by construction,
//! * [`Event`] — sim-time-stamped edge signals (watchdog anomalies,
//!   cascade-guard trips, purge storms) appended in simulation order,
//! * phase snapshots ([`Registry::snapshot_phase`]) that freeze the
//!   tree for before/after comparisons,
//! * a canonical JSON serializer ([`Registry::to_json`]): sorted keys,
//!   fixed two-space indentation, integers only, no timestamps other
//!   than simulated time — two runs of the same seed produce
//!   byte-identical bytes, which `tests/determinism.rs` pins with a
//!   golden FNV-1a digest.
//!
//! Stats structs implement [`Instrument`] to publish themselves under a
//! [`Scope`] (a registry view with a path prefix); the scheduler/event-bus
//! ([`crate::Harness`]) owns the registry for a run and pulls every
//! node's instruments on demand (Prometheus-style collection, but
//! deterministic), keeping the existing per-crate `stats()` accessors as
//! the thin typed views the numeric test envelopes already rely on.

use crate::persist::{Dec, Enc, Persist, PersistError};
use crate::time::SimTime;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One registered metric value. Everything is integral: floats are kept
/// out of the registry so the canonical serialization can never depend
/// on float formatting. Ratios are registered in parts-per-million.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Value {
    /// A monotonically non-decreasing event count.
    Counter(u64),
    /// A point-in-time level; may move in both directions.
    Gauge(i64),
    /// A fixed-bin histogram.
    Hist(Hist),
    /// A short identifying string (hex digests, mode labels).
    Text(String),
}

/// A fixed-bin histogram: `counts[k]` holds occurrences in
/// `[k·bin_width, (k+1)·bin_width)`; everything at or past the last
/// edge lands in `overflow`. Bin width and samples are plain integers
/// (typically nanoseconds), so histograms serialize exactly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Hist {
    bin_width: u64,
    counts: Vec<u64>,
    overflow: u64,
    total: u64,
    sum: u64,
}

impl Hist {
    /// Creates an empty histogram of `bins` bins of `bin_width` units.
    pub fn new(bin_width: u64, bins: usize) -> Self {
        assert!(bin_width > 0, "bin width must be positive");
        assert!(bins > 0, "at least one bin");
        Hist {
            bin_width,
            counts: vec![0; bins],
            overflow: 0,
            total: 0,
            sum: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, sample: u64) {
        let bin = (sample / self.bin_width) as usize;
        if bin < self.counts.len() {
            self.counts[bin] += 1;
        } else {
            self.overflow += 1;
        }
        self.total += 1;
        self.sum += sample;
    }

    /// Samples recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Sum of all samples (mean = `sum / total`, computed by consumers).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Samples at or past the last bin edge.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Per-bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }
}

impl Hist {
    fn persist_bytes(&self, enc: &mut Enc) {
        enc.u64(self.bin_width);
        enc.seq_len(self.counts.len());
        for c in &self.counts {
            enc.u64(*c);
        }
        enc.u64(self.overflow);
        enc.u64(self.total);
        enc.u64(self.sum);
    }

    fn restore_bytes(dec: &mut Dec<'_>) -> Result<Hist, PersistError> {
        Ok(Hist {
            bin_width: dec.u64()?,
            counts: dec.seq(|d| d.u64())?,
            overflow: dec.u64()?,
            total: dec.u64()?,
            sum: dec.u64()?,
        })
    }
}

impl Persist for Hist {
    /// The registry's own layout: bin width, bins, overflow, total, sum.
    fn persist(&self, enc: &mut Enc) {
        self.persist_bytes(enc);
    }

    /// Restores onto a histogram of the same shape. Another bin width
    /// or bin count, or a total that is not the bins plus the overflow,
    /// is a [`PersistError::Mismatch`].
    fn restore(&mut self, dec: &mut Dec<'_>) -> Result<(), PersistError> {
        let h = Hist::restore_bytes(dec)?;
        if h.bin_width != self.bin_width || h.counts.len() != self.counts.len() {
            return Err(PersistError::mismatch(format!(
                "checkpoint histogram has {} bins of {}, expected {} of {}",
                h.counts.len(),
                h.bin_width,
                self.counts.len(),
                self.bin_width
            )));
        }
        let binned = h
            .counts
            .iter()
            .try_fold(h.overflow, |sum, &c| sum.checked_add(c));
        if binned != Some(h.total) {
            return Err(PersistError::mismatch(format!(
                "checkpoint histogram total {} is not its bins plus overflow",
                h.total
            )));
        }
        *self = h;
        Ok(())
    }
}

impl Value {
    fn persist_bytes(&self, enc: &mut Enc) {
        match self {
            Value::Counter(c) => {
                enc.u8(0);
                enc.u64(*c);
            }
            Value::Gauge(g) => {
                enc.u8(1);
                enc.i64(*g);
            }
            Value::Hist(h) => {
                enc.u8(2);
                h.persist_bytes(enc);
            }
            Value::Text(t) => {
                enc.u8(3);
                enc.str(t);
            }
        }
    }

    fn restore_bytes(dec: &mut Dec<'_>) -> Result<Value, PersistError> {
        Ok(match dec.u8()? {
            0 => Value::Counter(dec.u64()?),
            1 => Value::Gauge(dec.i64()?),
            2 => Value::Hist(Hist::restore_bytes(dec)?),
            3 => Value::Text(dec.str()?),
            tag => {
                return Err(PersistError::BadTag {
                    what: "telemetry value",
                    tag,
                })
            }
        })
    }
}

fn persist_metric_map(metrics: &BTreeMap<String, Value>, enc: &mut Enc) {
    enc.seq_len(metrics.len());
    for (path, v) in metrics {
        // Already in ascending key order: BTreeMap iteration.
        enc.str(path);
        v.persist_bytes(enc);
    }
}

fn restore_metric_map(dec: &mut Dec<'_>) -> Result<BTreeMap<String, Value>, PersistError> {
    let pairs = dec.seq(|d| Ok((d.str()?, Value::restore_bytes(d)?)))?;
    Ok(pairs.into_iter().collect())
}

/// A sim-time-stamped edge signal: something *happened*, as opposed to a
/// level that *is*. Watchdog anomalies, cascade-guard trips and purge
/// notifications are events; they are appended in simulation order and
/// survive metric re-collection.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Event {
    /// Simulated instant of the occurrence.
    pub at: SimTime,
    /// Dotted path naming the signal, e.g. `sim.cascade.overflow`.
    pub path: String,
    /// Free-form human-readable detail.
    pub detail: String,
}

/// A named frozen copy of the metric tree (see
/// [`Registry::snapshot_phase`]).
#[derive(Clone, Debug, PartialEq)]
pub struct Phase {
    /// Phase label, e.g. `warmup` or `cascade-failure`.
    pub name: String,
    /// The metric tree at snapshot time.
    pub metrics: BTreeMap<String, Value>,
}

/// The hierarchical metrics registry. See the module docs.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Registry {
    metrics: BTreeMap<String, Value>,
    events: Vec<Event>,
    phases: Vec<Phase>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Registers (or overwrites) a counter.
    pub fn counter(&mut self, path: impl Into<String>, v: u64) {
        self.metrics.insert(path.into(), Value::Counter(v));
    }

    /// Registers (or overwrites) a gauge.
    pub fn gauge(&mut self, path: impl Into<String>, v: i64) {
        self.metrics.insert(path.into(), Value::Gauge(v));
    }

    /// Registers (or overwrites) a histogram.
    pub fn hist(&mut self, path: impl Into<String>, h: Hist) {
        self.metrics.insert(path.into(), Value::Hist(h));
    }

    /// Registers (or overwrites) a text value.
    pub fn text(&mut self, path: impl Into<String>, v: impl Into<String>) {
        self.metrics.insert(path.into(), Value::Text(v.into()));
    }

    /// Appends an edge-signal event.
    ///
    /// # Panics
    ///
    /// Panics if `at` precedes the previous event: events are recorded in
    /// simulation order, exactly like [`crate::EdgeLog`].
    pub fn event(&mut self, at: SimTime, path: impl Into<String>, detail: impl Into<String>) {
        if let Some(last) = self.events.last() {
            assert!(
                at >= last.at,
                "telemetry event out of order: {at} after {}",
                last.at
            );
        }
        self.events.push(Event {
            at,
            path: path.into(),
            detail: detail.into(),
        });
    }

    /// A view of this registry under a dotted path prefix.
    pub fn scope<'a>(&'a mut self, prefix: &str) -> Scope<'a> {
        Scope {
            reg: self,
            prefix: prefix.to_string(),
        }
    }

    /// Looks up a metric by full path.
    pub fn get(&self, path: &str) -> Option<&Value> {
        self.metrics.get(path)
    }

    /// Convenience: the value of a counter metric, or `None` if absent or
    /// not a counter.
    pub fn counter_value(&self, path: &str) -> Option<u64> {
        match self.metrics.get(path) {
            Some(Value::Counter(c)) => Some(*c),
            _ => None,
        }
    }

    /// All metrics in path order (the only order there is).
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.metrics.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// True when no metrics are registered.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// Recorded events, in simulation order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Recorded phase snapshots, in snapshot order.
    pub fn phases(&self) -> &[Phase] {
        &self.phases
    }

    /// Drops every metric, keeping events and phase snapshots: the
    /// collector rebuilds the tree from live instruments on each pull,
    /// while the edge-signal history and frozen phases persist.
    pub fn clear_metrics(&mut self) {
        self.metrics.clear();
    }

    /// Freezes the current metric tree under `name`. Snapshots are kept
    /// in order and serialized with the registry, so a run report can
    /// show per-phase state (warmup vs. steady vs. failure).
    pub fn snapshot_phase(&mut self, name: impl Into<String>) {
        self.phases.push(Phase {
            name: name.into(),
            metrics: self.metrics.clone(),
        });
    }

    /// The metric tree frozen under `name`, if that phase was snapshot.
    pub fn phase(&self, name: &str) -> Option<&BTreeMap<String, Value>> {
        self.phases
            .iter()
            .find(|p| p.name == name)
            .map(|p| &p.metrics)
    }

    /// Canonical JSON: metrics in path order, two-space indentation,
    /// `\n` separators, integers only, no wall-clock anything. The same
    /// registry always serializes to the same bytes.
    pub fn to_json(&self) -> String {
        self.write_json(true)
    }

    /// The canonical JSON on one line: [`to_json`](Self::to_json)'s
    /// bytes with every newline and the indentation after it left out
    /// (strings escape their control characters, so none is lost).
    pub fn to_json_line(&self) -> String {
        self.write_json(false)
    }

    /// Serializes the registry, indented when `pretty`, else on one line.
    fn write_json(&self, pretty: bool) -> String {
        let mut out = String::new();
        out.push('{');
        break_line(&mut out, pretty, 2);
        out.push_str("\"metrics\": ");
        write_metric_map(&mut out, &self.metrics, 1, pretty);
        out.push(',');
        break_line(&mut out, pretty, 2);
        out.push_str("\"events\": [");
        for (k, e) in self.events.iter().enumerate() {
            if k > 0 {
                out.push(',');
            }
            break_line(&mut out, pretty, 4);
            let _ = write!(
                out,
                "{{\"at_ns\": {}, \"path\": {}, \"detail\": {}}}",
                e.at.as_ns(),
                json_string(&e.path),
                json_string(&e.detail)
            );
        }
        if !self.events.is_empty() {
            break_line(&mut out, pretty, 2);
        }
        out.push_str("],");
        break_line(&mut out, pretty, 2);
        out.push_str("\"phases\": [");
        for (k, p) in self.phases.iter().enumerate() {
            if k > 0 {
                out.push(',');
            }
            break_line(&mut out, pretty, 4);
            let _ = write!(out, "{{\"name\": {}, \"metrics\": ", json_string(&p.name));
            write_metric_map(&mut out, &p.metrics, 2, pretty);
            out.push('}');
        }
        if !self.phases.is_empty() {
            break_line(&mut out, pretty, 2);
        }
        out.push(']');
        break_line(&mut out, pretty, 0);
        out.push('}');
        out
    }

    /// 64-bit FNV-1a digest of the canonical JSON bytes — the registry's
    /// golden fingerprint for determinism regression tests.
    pub fn digest(&self) -> u64 {
        fnv1a(self.to_json().as_bytes())
    }
}

impl Persist for Registry {
    /// Encodes the event history and phase snapshots — the parts of the
    /// registry that *cannot* be rebuilt by re-collecting instruments.
    /// Live metrics are deliberately excluded: the harness's collector
    /// clears and repopulates them from component state on every pull,
    /// so persisting them would only duplicate component state.
    fn persist(&self, enc: &mut Enc) {
        enc.seq_len(self.events.len());
        for e in &self.events {
            enc.time(e.at);
            enc.str(&e.path);
            enc.str(&e.detail);
        }
        enc.seq_len(self.phases.len());
        for p in &self.phases {
            enc.str(&p.name);
            persist_metric_map(&p.metrics, enc);
        }
    }

    fn restore(&mut self, dec: &mut Dec<'_>) -> Result<(), PersistError> {
        self.events = dec.seq(|d| {
            Ok(Event {
                at: d.time()?,
                path: d.str()?,
                detail: d.str()?,
            })
        })?;
        self.phases = dec.seq(|d| {
            Ok(Phase {
                name: d.str()?,
                metrics: restore_metric_map(d)?,
            })
        })?;
        self.metrics.clear();
        Ok(())
    }
}

/// Writes `metrics` as a JSON object whose entries sit at `depth`
/// indentation levels when `pretty`, or on one line. Keys and integers
/// go straight into `out`, reserved once for the whole map from its key
/// lengths and an estimate per value (a longer value only grows `out`
/// past it).
fn write_metric_map(
    out: &mut String,
    metrics: &BTreeMap<String, Value>,
    depth: usize,
    pretty: bool,
) {
    let pad = 2 * depth + 2;
    out.reserve(
        metrics
            .iter()
            .map(|(path, v)| {
                let value = match v {
                    Value::Hist(h) => 96 + 22 * h.counts.len(),
                    Value::Text(t) => 16 + t.len(),
                    Value::Counter(_) | Value::Gauge(_) => 36,
                };
                pad + path.len() + value
            })
            .sum::<usize>()
            + pad,
    );
    out.push('{');
    for (k, (path, v)) in metrics.iter().enumerate() {
        if k > 0 {
            out.push(',');
        }
        break_line(out, pretty, pad);
        push_json_string(out, path);
        out.push_str(": ");
        match v {
            Value::Counter(c) => {
                out.push_str("{\"counter\": ");
                push_u64(out, *c);
                out.push('}');
            }
            Value::Gauge(g) => {
                out.push_str("{\"gauge\": ");
                if *g < 0 {
                    out.push('-');
                }
                push_u64(out, g.unsigned_abs());
                out.push('}');
            }
            Value::Text(t) => {
                out.push_str("{\"text\": ");
                push_json_string(out, t);
                out.push('}');
            }
            Value::Hist(h) => {
                out.push_str("{\"hist\": {\"bin_width\": ");
                push_u64(out, h.bin_width);
                out.push_str(", \"counts\": [");
                for (i, c) in h.counts.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    push_u64(out, *c);
                }
                out.push_str("], \"overflow\": ");
                push_u64(out, h.overflow);
                out.push_str(", \"total\": ");
                push_u64(out, h.total);
                out.push_str(", \"sum\": ");
                push_u64(out, h.sum);
                out.push_str("}}");
            }
        }
    }
    if !metrics.is_empty() {
        break_line(out, pretty, pad - 2);
    }
    out.push('}');
}

/// Starts a new line indented by `pad` spaces, if `pretty`.
fn break_line(out: &mut String, pretty: bool, pad: usize) {
    if pretty {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', pad));
    }
}

/// Appends `v` in decimal, as `{v}` formats it.
fn push_u64(out: &mut String, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[start..]).expect("ASCII digits"));
}

/// Appends `s` as a JSON string literal: verbatim between quotes when
/// nothing in it needs an escape (no metric path does), through
/// [`json_string`] otherwise.
fn push_json_string(out: &mut String, s: &str) {
    if s.bytes().any(|b| b < 0x20 || b == b'"' || b == b'\\') {
        out.push_str(&json_string(s));
    } else {
        out.push('"');
        out.push_str(s);
        out.push('"');
    }
}

/// 64-bit FNV-1a over raw bytes (the same function [`crate::EdgeLog`]
/// uses over edges, exposed for golden-digest tests).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// JSON string literal with the escapes JSON requires (quote, backslash,
/// control characters).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// JSON number literal for an `f64` (shortest round-trip form, which is
/// a pure function of the value). Non-finite values, which JSON cannot
/// carry, become `null`. Only *report* layers (claim tables) use floats;
/// registry values themselves are integral.
pub fn json_f64(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v:?}");
        // `{:?}` always includes a decimal point or exponent, so the
        // token is a valid JSON number as-is.
        s
    } else {
        "null".to_string()
    }
}

/// A registry view that prefixes every path with `prefix.`; instruments
/// publish through this so one stats struct can be mounted anywhere in
/// the tree.
pub struct Scope<'a> {
    reg: &'a mut Registry,
    prefix: String,
}

impl Scope<'_> {
    fn path(&self, name: &str) -> String {
        if self.prefix.is_empty() {
            return name.to_string();
        }
        let mut path = String::with_capacity(self.prefix.len() + 1 + name.len());
        path.push_str(&self.prefix);
        path.push('.');
        path.push_str(name);
        path
    }

    /// Registers a counter under this scope.
    pub fn counter(&mut self, name: &str, v: u64) {
        let p = self.path(name);
        self.reg.counter(p, v);
    }

    /// Registers a gauge under this scope.
    pub fn gauge(&mut self, name: &str, v: i64) {
        let p = self.path(name);
        self.reg.gauge(p, v);
    }

    /// Registers a histogram under this scope.
    pub fn hist(&mut self, name: &str, h: Hist) {
        let p = self.path(name);
        self.reg.hist(p, h);
    }

    /// Registers a text value under this scope.
    pub fn text(&mut self, name: &str, v: impl Into<String>) {
        let p = self.path(name);
        self.reg.text(p, v);
    }

    /// Appends an event whose path is under this scope.
    pub fn event(&mut self, at: SimTime, name: &str, detail: impl Into<String>) {
        let p = self.path(name);
        self.reg.event(at, p, detail);
    }

    /// A sub-scope one dotted level down.
    pub fn scope(&mut self, name: &str) -> Scope<'_> {
        let prefix = self.path(name);
        Scope {
            reg: self.reg,
            prefix,
        }
    }

    /// Publishes an [`Instrument`] under a sub-scope in one call.
    pub fn publish(&mut self, name: &str, instrument: &dyn Instrument) {
        instrument.publish(&mut self.scope(name));
    }
}

/// A stats source that registers its values into the telemetry tree.
///
/// Every per-crate stats struct (`MbufStats`, `RingStats`,
/// `TrDriverStats`, …) implements this; the collector mounts each under
/// its dotted namespace, so the registry is always a complete, ordered
/// union of the workspace's counters.
pub trait Instrument {
    /// Registers this source's current values under `scope`.
    fn publish(&self, scope: &mut Scope<'_>);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_ms(ms)
    }

    #[test]
    fn metrics_iterate_in_path_order() {
        let mut r = Registry::new();
        r.counter("z.last", 1);
        r.counter("a.first", 2);
        r.gauge("m.middle", -3);
        let paths: Vec<&str> = r.iter().map(|(p, _)| p).collect();
        assert_eq!(paths, vec!["a.first", "m.middle", "z.last"]);
    }

    #[test]
    fn scope_prefixes_and_nests() {
        let mut r = Registry::new();
        let mut s = r.scope("unixkern.h0");
        s.counter("mbuf.drops", 4);
        s.scope("kern").counter("ticks", 9);
        assert_eq!(r.counter_value("unixkern.h0.mbuf.drops"), Some(4));
        assert_eq!(r.counter_value("unixkern.h0.kern.ticks"), Some(9));
    }

    #[test]
    fn json_is_canonical_and_stable() {
        let build = || {
            let mut r = Registry::new();
            r.counter("b", 2);
            r.counter("a", 1);
            r.gauge("g", -7);
            r.text("t", "x\"y");
            let mut h = Hist::new(10, 3);
            h.record(0);
            h.record(25);
            h.record(99);
            r.hist("h", h);
            r.event(t(5), "ev", "first");
            r
        };
        let a = build().to_json();
        let b = build().to_json();
        assert_eq!(a, b, "same registry must serialize to the same bytes");
        assert!(a.contains("\"a\": {\"counter\": 1}"));
        assert!(a.contains("\"g\": {\"gauge\": -7}"));
        assert!(a.contains("\\\"y"));
        assert!(a.contains("\"counts\": [1, 0, 1], \"overflow\": 1, \"total\": 3, \"sum\": 124"));
        assert!(a.contains("\"at_ns\": 5000000"));
        assert_eq!(build().digest(), build().digest());
    }

    #[test]
    fn keys_and_texts_serialize_exactly_as_json_string_does() {
        for s in [
            "a.b",
            "q\"uote",
            "back\\slash",
            "ctl\u{1}x",
            "tab\tnl\ncr\r",
            "é\u{7f}",
        ] {
            let mut r = Registry::new();
            r.text(s, s);
            let want = format!(
                "{{\n  \"metrics\": {{\n    {}: {{\"text\": {}}}\n  }},\n  \"events\": [],\n  \"phases\": []\n}}",
                json_string(s),
                json_string(s)
            );
            assert_eq!(r.to_json(), want, "{s:?}");
        }
        let mut r = Registry::new();
        r.counter("max", u64::MAX);
        r.gauge("min", i64::MIN);
        r.gauge("zero", 0);
        let json = r.to_json();
        assert!(json.contains(&format!("\"max\": {{\"counter\": {}}}", u64::MAX)));
        assert!(json.contains(&format!("\"min\": {{\"gauge\": {}}}", i64::MIN)));
        assert!(json.contains("\"zero\": {\"gauge\": 0}"));
    }

    #[test]
    fn the_one_line_json_is_the_collapsed_canonical_json() {
        // What `serve` replied before it asked for one line: the
        // canonical tree with each newline and the indentation after it
        // removed.
        let collapse = |tree: String| {
            let mut indent = false;
            let mut line = tree;
            line.retain(|c| {
                indent = c == '\n' || (indent && c == ' ');
                !indent
            });
            line
        };
        let mut r = Registry::new();
        assert_eq!(r.to_json_line(), collapse(r.to_json()));
        r.counter("a.b", 3);
        r.counter("max", u64::MAX);
        r.gauge("g", -7);
        let mut h = Hist::new(10, 3);
        for x in [0, 25, 99] {
            h.record(x);
        }
        r.hist("h", h);
        r.text("t", "q\"uote nl\n ctl\u{1}");
        r.event(t(5), "ev", "first \"one\"");
        r.snapshot_phase("warm");
        r.counter("a.b", 4);
        r.event(t(9), "ev2", "line\nbreak");
        r.snapshot_phase("run");
        let line = r.to_json_line();
        assert_eq!(line, collapse(r.to_json()));
        assert!(!line.contains('\n') && line.contains("\"phases\": [{\"name\": \"warm\""));
    }

    #[test]
    fn hist_bins_and_overflow() {
        let mut h = Hist::new(1000, 4);
        for v in [0, 999, 1000, 3999, 4000, 50_000] {
            h.record(v);
        }
        assert_eq!(h.counts(), &[2, 1, 0, 1]);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.total(), 6);
        assert_eq!(h.sum(), 59_998);
    }

    #[test]
    fn phase_snapshots_freeze_the_tree() {
        let mut r = Registry::new();
        r.counter("c", 1);
        r.snapshot_phase("warmup");
        r.counter("c", 9);
        assert_eq!(
            r.phase("warmup").and_then(|m| match m.get("c") {
                Some(Value::Counter(c)) => Some(*c),
                _ => None,
            }),
            Some(1)
        );
        assert_eq!(r.counter_value("c"), Some(9));
        let json = r.to_json();
        assert!(json.contains("\"name\": \"warmup\""));
    }

    #[test]
    fn clear_metrics_keeps_events_and_phases() {
        let mut r = Registry::new();
        r.counter("c", 1);
        r.snapshot_phase("p");
        r.event(t(3), "e", "kept");
        r.clear_metrics();
        assert!(r.is_empty());
        assert_eq!(r.events().len(), 1);
        assert_eq!(r.phases().len(), 1);
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn events_must_be_monotonic() {
        let mut r = Registry::new();
        r.event(t(5), "e", "");
        r.event(t(4), "e", "");
    }

    #[test]
    fn float_formatting_for_reports() {
        assert_eq!(json_f64(1.5), "1.5");
        assert_eq!(json_f64(10740.0), "10740.0");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
    }

    #[test]
    fn instrument_publish_helper() {
        struct S;
        impl Instrument for S {
            fn publish(&self, scope: &mut Scope<'_>) {
                scope.counter("x", 7);
            }
        }
        let mut r = Registry::new();
        r.scope("top").publish("sub", &S);
        assert_eq!(r.counter_value("top.sub.x"), Some(7));
    }
}
