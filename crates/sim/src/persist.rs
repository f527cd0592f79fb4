//! Canonical state serialization for checkpoint/restore.
//!
//! Every piece of live run state implements [`Persist`]: a deterministic,
//! versioned, canonical **binary** encoding with the same discipline the
//! telemetry registry applies to its JSON — two identical simulation
//! states always produce identical bytes, regardless of how the state was
//! reached (single-threaded or sharded execution, fresh run or a chain of
//! restores). No serde: the format is little-endian, length-prefixed, and
//! hand-rolled so the bytes are a pure function of the state.
//!
//! Restoration is **in-place**: the caller rebuilds the identical
//! topology from its scenario description (fresh structure, same
//! registration order, same static config) and then applies the dynamic
//! state via [`Persist::restore`]. This keeps structural configuration
//! (wiring tables, driver boxes, programs) out of the checkpoint, which
//! is what makes the format shard-agnostic: a snapshot taken under a
//! 4-shard harness restores into a 1-, 2- or 8-shard rebuild of the same
//! topology, because nodes are encoded in global registration order and
//! nothing in the bytes mentions a shard.
//!
//! Conventions, in the spirit of the canonical-JSON rules:
//!
//! * integers are fixed-width little-endian; `f64` travels as its IEEE
//!   bit pattern ([`f64::to_bits`]) so round-trips are exact,
//! * sequences carry a `u32` length prefix,
//! * maps are emitted in ascending key order (callers sort `HashMap`s),
//! * optional values carry a one-byte presence tag,
//! * enums carry a one-byte discriminant tag, checked on decode.
//!
//! Versioning lives at the **container** level: the checkpoint header
//! (magic + format version, written by `ctms-core`) gates the whole
//! image, so individual `Persist` impls stay tag-free and dense.
//! Any change to any impl's field set is a format change and must bump
//! the container version. Since container version 2 the header is
//! followed by a **topology signature** — a canonical byte description
//! of the graph shape, station layout and host placement, derived from
//! the (shard-agnostic) router slot table — so restoring a snapshot
//! into a differently-shaped rebuild fails with a readable error
//! before any dynamic state is touched. The signature describes the
//! topology, never the shard count: the shard-agnostic restore
//! property above is unchanged.
//!
//! A checkpoint is one byte image: the whole state is encoded into one
//! [`Enc`] and decoded from one [`Dec`] over the complete image, which
//! must be consumed exactly ([`Dec::finish`]).

use crate::time::{Dur, SimTime};

/// Why a restore failed. Restores never panic on malformed bytes; they
/// return one of these so service-mode callers (`ctms-serve`) can reject
/// a bad checkpoint and keep running.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PersistError {
    /// The image ended before the value was complete.
    UnexpectedEof,
    /// A one-byte discriminant had no matching variant.
    BadTag {
        /// What was being decoded.
        what: &'static str,
        /// The unrecognized tag byte.
        tag: u8,
    },
    /// The checkpoint does not fit the rebuilt topology (wrong node
    /// count, mismatched driver name, wrong magic/version, …).
    Mismatch(String),
    /// Bytes remained after the last value was decoded.
    TrailingBytes(usize),
    /// A string field held invalid UTF-8.
    BadUtf8,
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::UnexpectedEof => write!(f, "checkpoint truncated"),
            PersistError::BadTag { what, tag } => {
                write!(f, "unknown tag {tag:#04x} decoding {what}")
            }
            PersistError::Mismatch(m) => write!(f, "checkpoint mismatch: {m}"),
            PersistError::TrailingBytes(n) => {
                write!(f, "{n} trailing bytes after checkpoint payload")
            }
            PersistError::BadUtf8 => write!(f, "invalid UTF-8 in checkpoint string"),
        }
    }
}

impl std::error::Error for PersistError {}

impl PersistError {
    /// A [`PersistError::Mismatch`] from anything displayable.
    pub fn mismatch(msg: impl Into<String>) -> Self {
        PersistError::Mismatch(msg.into())
    }
}

/// The canonical binary encoder: an append-only byte buffer.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// An empty encoder.
    pub fn new() -> Self {
        Enc::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u16`.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `i64` (two's complement).
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its exact IEEE-754 bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends a bool as one byte (0 or 1).
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.seq_len(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends raw bytes with a length prefix.
    pub fn bytes(&mut self, b: &[u8]) {
        self.seq_len(b.len());
        self.buf.extend_from_slice(b);
    }

    /// Appends a sequence length prefix (`u32`; panics past 4 GiB of
    /// elements, far beyond any simulation state).
    pub fn seq_len(&mut self, n: usize) {
        self.u32(u32::try_from(n).expect("sequence too long for checkpoint"));
    }

    /// Appends a `SimTime` as raw nanoseconds.
    pub fn time(&mut self, t: SimTime) {
        self.u64(t.as_ns());
    }

    /// Appends a `Dur` as raw nanoseconds.
    pub fn dur(&mut self, d: Dur) {
        self.u64(d.as_ns());
    }

    /// Appends an optional value: a presence byte, then the value.
    pub fn opt<T>(&mut self, v: Option<&T>, mut f: impl FnMut(&mut Self, &T)) {
        match v {
            Some(x) => {
                self.u8(1);
                f(self, x);
            }
            None => self.u8(0),
        }
    }
}

/// The canonical binary decoder: a cursor over a byte slice.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Verifies every byte was consumed.
    pub fn finish(self) -> Result<(), PersistError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(PersistError::TrailingBytes(self.remaining()))
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], PersistError> {
        if self.remaining() < n {
            return Err(PersistError::UnexpectedEof);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, PersistError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, PersistError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, PersistError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, PersistError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64, PersistError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads an `f64` from its IEEE-754 bit pattern.
    pub fn f64(&mut self) -> Result<f64, PersistError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a bool; any byte other than 0 or 1 is a bad tag.
    pub fn bool(&mut self) -> Result<bool, PersistError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(PersistError::BadTag { what: "bool", tag }),
        }
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, PersistError> {
        let n = self.seq_len()?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| PersistError::BadUtf8)
    }

    /// Reads length-prefixed raw bytes.
    pub fn bytes(&mut self) -> Result<Vec<u8>, PersistError> {
        let n = self.seq_len()?;
        Ok(self.take(n)?.to_vec())
    }

    /// Reads a sequence length prefix, bounded by the remaining byte
    /// count so a corrupt length can never trigger a huge allocation.
    pub fn seq_len(&mut self) -> Result<usize, PersistError> {
        let n = self.u32()? as usize;
        if n > self.remaining() {
            return Err(PersistError::UnexpectedEof);
        }
        Ok(n)
    }

    /// Reads a `SimTime` from raw nanoseconds.
    pub fn time(&mut self) -> Result<SimTime, PersistError> {
        Ok(SimTime::from_ns(self.u64()?))
    }

    /// Reads a `Dur` from raw nanoseconds.
    pub fn dur(&mut self) -> Result<Dur, PersistError> {
        Ok(Dur::from_ns(self.u64()?))
    }

    /// Reads an optional value.
    pub fn opt<T>(
        &mut self,
        mut f: impl FnMut(&mut Self) -> Result<T, PersistError>,
    ) -> Result<Option<T>, PersistError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(f(self)?)),
            tag => Err(PersistError::BadTag {
                what: "option",
                tag,
            }),
        }
    }

    /// Reads a sequence: the length prefix, then `n` elements through `f`.
    pub fn seq<T>(
        &mut self,
        mut f: impl FnMut(&mut Self) -> Result<T, PersistError>,
    ) -> Result<Vec<T>, PersistError> {
        let n = self.seq_len()?;
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(f(self)?);
        }
        Ok(v)
    }
}

/// Deterministic, canonical state serialization.
///
/// `persist` appends this value's **dynamic** state to the encoder;
/// `restore` applies previously persisted state onto an equivalently
/// *rebuilt* value (same static configuration, fresh dynamic state).
/// Static configuration is deliberately not encoded — the caller is
/// responsible for rebuilding the identical structure before restoring,
/// and impls verify cheap invariants (counts, names) where they can.
pub trait Persist {
    /// Appends this value's canonical state bytes.
    fn persist(&self, enc: &mut Enc);

    /// Applies previously persisted state onto this rebuilt value.
    fn restore(&mut self, dec: &mut Dec<'_>) -> Result<(), PersistError>;
}

/// Decodes a fresh value through its [`Persist::restore`], starting from
/// [`Default`]. The bridge between in-place restoration and containers
/// (queues, options) that are rebuilt element-by-element.
pub fn decode_new<T: Persist + Default>(dec: &mut Dec<'_>) -> Result<T, PersistError> {
    let mut v = T::default();
    v.restore(dec)?;
    Ok(v)
}

impl Persist for SimTime {
    fn persist(&self, enc: &mut Enc) {
        enc.time(*self);
    }
    fn restore(&mut self, dec: &mut Dec<'_>) -> Result<(), PersistError> {
        *self = dec.time()?;
        Ok(())
    }
}

impl Persist for Dur {
    fn persist(&self, enc: &mut Enc) {
        enc.dur(*self);
    }
    fn restore(&mut self, dec: &mut Dec<'_>) -> Result<(), PersistError> {
        *self = dec.dur()?;
        Ok(())
    }
}

macro_rules! persist_int {
    ($ty:ty, $write:ident, $read:ident) => {
        impl Persist for $ty {
            fn persist(&self, enc: &mut Enc) {
                enc.$write(*self);
            }
            fn restore(&mut self, dec: &mut Dec<'_>) -> Result<(), PersistError> {
                *self = dec.$read()?;
                Ok(())
            }
        }
    };
}

persist_int!(u8, u8, u8);
persist_int!(u16, u16, u16);
persist_int!(u32, u32, u32);
persist_int!(u64, u64, u64);
persist_int!(i64, i64, i64);
persist_int!(f64, f64, f64);
persist_int!(bool, bool, bool);

impl Persist for String {
    fn persist(&self, enc: &mut Enc) {
        enc.str(self);
    }
    fn restore(&mut self, dec: &mut Dec<'_>) -> Result<(), PersistError> {
        *self = dec.str()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut e = Enc::new();
        e.u8(7);
        e.u16(5_000);
        e.u32(70_000);
        e.u64(u64::MAX - 3);
        e.i64(-42);
        e.f64(1.5e-3);
        e.bool(true);
        e.str("kern-tx");
        e.time(SimTime::from_ms(12));
        e.dur(Dur::from_us(440));
        e.opt(Some(&9u64), |e, v| e.u64(*v));
        e.opt::<u64>(None, |e, v| e.u64(*v));
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert_eq!(d.u8().unwrap(), 7);
        assert_eq!(d.u16().unwrap(), 5_000);
        assert_eq!(d.u32().unwrap(), 70_000);
        assert_eq!(d.u64().unwrap(), u64::MAX - 3);
        assert_eq!(d.i64().unwrap(), -42);
        assert_eq!(d.f64().unwrap(), 1.5e-3);
        assert!(d.bool().unwrap());
        assert_eq!(d.str().unwrap(), "kern-tx");
        assert_eq!(d.time().unwrap(), SimTime::from_ms(12));
        assert_eq!(d.dur().unwrap(), Dur::from_us(440));
        assert_eq!(d.opt(|d| d.u64()).unwrap(), Some(9));
        assert_eq!(d.opt(|d| d.u64()).unwrap(), None);
        d.finish().unwrap();
    }

    #[test]
    fn f64_round_trips_exactly() {
        for v in [0.0, -0.0, 1.0 / 3.0, f64::NAN, f64::INFINITY, 2.5e-308] {
            let mut e = Enc::new();
            e.f64(v);
            let b = e.into_bytes();
            let got = Dec::new(&b).f64().unwrap();
            assert_eq!(got.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn truncated_input_is_an_error_not_a_panic() {
        let mut e = Enc::new();
        e.u64(1234);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes[..5]);
        assert_eq!(d.u64(), Err(PersistError::UnexpectedEof));
    }

    #[test]
    fn corrupt_sequence_length_cannot_overallocate() {
        let mut e = Enc::new();
        e.u32(u32::MAX); // claims 4 billion elements, provides none
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert_eq!(d.seq(|d| d.u8()), Err(PersistError::UnexpectedEof));
    }

    #[test]
    fn trailing_bytes_are_reported() {
        let mut e = Enc::new();
        e.u8(1);
        e.u8(2);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        let _ = d.u8().unwrap();
        assert_eq!(d.finish(), Err(PersistError::TrailingBytes(1)));
    }

    #[test]
    fn bad_tags_name_the_site() {
        let bytes = [9u8];
        assert_eq!(
            Dec::new(&bytes).bool(),
            Err(PersistError::BadTag {
                what: "bool",
                tag: 9
            })
        );
        let msg = PersistError::BadTag {
            what: "option",
            tag: 3,
        }
        .to_string();
        assert!(msg.contains("option") && msg.contains("0x03"), "{msg}");
    }

    #[test]
    fn persist_trait_round_trips_in_place() {
        let src = 0x1234_5678_9ABC_DEF0u64;
        let mut e = Enc::new();
        src.persist(&mut e);
        let bytes = e.into_bytes();
        let mut dst = 0u64;
        let mut d = Dec::new(&bytes);
        dst.restore(&mut d).unwrap();
        assert_eq!(dst, src);
        d.finish().unwrap();
    }

    #[test]
    fn sequences_round_trip() {
        let xs = vec![3u64, 1, 4, 1, 5];
        let mut e = Enc::new();
        e.seq_len(xs.len());
        for x in &xs {
            e.u64(*x);
        }
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert_eq!(d.seq(|d| d.u64()).unwrap(), xs);
        d.finish().unwrap();
    }
}
