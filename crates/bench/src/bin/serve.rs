//! `ctms-serve` — a steerable simulation runtime on stdin/stdout.
//!
//! The checkpoint layer (`ctms_core::checkpoint`) turns a run into a
//! value; this binary turns the simulator into a *service* over that
//! value: a driving process (a notebook, a sweep orchestrator, a CI
//! step) feeds line-oriented JSON commands on stdin and reads JSON
//! replies on stdout, one line each. Everything stderr is human-facing
//! commentary; stdout is protocol only.
//!
//! ## Session
//!
//! The first line selects the scenario:
//!
//! ```text
//! {"scenario": "case_a" | "case_b" | "chain", "seed": 42,
//!  "rings": 16, "shards": 4, "cascade_limit": 64}
//! ```
//!
//! `seed` defaults to 42; `rings` (chain only) to 16; `shards` to 1. A
//! chain build may take at most 256 MiB by a measured model (about
//! 4 KiB per ring, 64 bytes more per ring for each shard past the
//! first, 64 bytes per ordered pair of distinct shards): past it the
//! line is `"rings" out of range` (above 65,536 rings, even at one
//! shard) or `"shards" out of range`, and nothing is built.
//! Single-ring scenarios always run as one shard regardless of
//! `shards`, mirroring `Topology::build_sharded`. `cascade_limit`
//! overrides the same-instant cascade bound — mostly useful for
//! deliberately tripping the typed error path. Every number must be a
//! non-negative integer written as plain digits; an unknown key or a
//! value of the wrong type rejects the line with a `bad session line`
//! error rather than falling back to a default.
//!
//! ## Commands
//!
//! ```text
//! {"cmd":"run","until_ms":N,"step_ms":M}   run to N ms; with step_ms,
//!                                          emit a progress event per
//!                                          bounded step (streaming)
//! {"cmd":"telemetry"}                      full canonical metric tree
//! {"cmd":"checkpoint"}                     serialize state as hex
//! {"cmd":"checkpoint_stream"}              the same bytes as chunk
//!                                          events: one
//!                                          checkpoint_chunk line per
//!                                          64 KiB of snapshot, then
//!                                          checkpoint_done;
//!                                          concatenating the "data"
//!                                          fields reproduces the
//!                                          "checkpoint" hex exactly
//! {"cmd":"restore","checkpoint":"<hex>"}   rebuild + restore; the hex
//!                                          may come from any session
//!                                          with the same scenario —
//!                                          any shard count
//! {"cmd":"steer","mutations":[...]}        apply mutations now
//! {"cmd":"fork","branches":[[...],...],"until_ms":N}
//!                                          checkpoint, fork one branch
//!                                          per mutation list on
//!                                          sweep threads, report each
//!                                          branch's outcome
//! {"cmd":"quit"}                           exit
//! ```
//!
//! Mutations: `{"kind":"station_churn","ring":0}`,
//! `{"kind":"purge_storm","ring":0,"count":3}`,
//! `{"kind":"dma_stall","host":0,"extra_us":500}`. A steer applies the
//! mutations in place on the session's bus at any shard count (like
//! `Bus::inject_ring`): every index is checked first, so a bad one
//! changes nothing, and the continuation is the same at every shard
//! count. Fork branches each run on one shard.
//!
//! Every reply carries `"ok"`; failures are reported as
//! `{"ok":false,"error":"..."}` and the session keeps serving. Every
//! non-blank line gets a reply: one that is not UTF-8 is a `bad command
//! line: not UTF-8` error, and one longer than 64 MiB
//! (`MAX_LINE_BYTES`) is a `bad command line: longer than …` error,
//! read past without being buffered. A line holding more JSON values
//! than the largest admitted command needs (`MAX_VALUES`, 294,916) is a
//! `bad command line: more than … values` error, refused as soon as the
//! parse passes the count, so parsing costs at most about 30 MB whatever
//! the line's length. A `steer` or `fork` line carrying more than
//! 65,536 mutations in all is a `"mutations" out of range` error. A
//! `fork` whose branches, each a one-shard build of the session's
//! scenario, would together pass the 256 MiB build budget is a
//! `"branches" out of range` error. A number
//! is read exactly from its digits; one that does not fit its field, or
//! overflows once scaled to
//! nanoseconds, is a `"<key>" out of range` error. A read error on
//! stdin ends the session, like end of input.
//! Scheduling failures carry a machine-readable tag alongside the
//! prose: `{"ok":false,"kind":"overflow"|"cross_shard","at_ns":N,
//! "error":"..."}` — one kind per `CascadeError` variant. The
//! simulation is deterministic throughout: the same command script
//! against the same session line produces byte-identical stdout.
//!
//! ## Request path
//!
//! A session's builds keep no measurement samples, so a snapshot holds
//! state only (checkpoint format v3): about 9 KB on a 16-ring chain
//! however long the session has run, and at most about 29 MB on the
//! largest chain admitted. A `restore` line carries the whole snapshot
//! as hex, so its cost is kept to about one pass over its bytes: one
//! bounded read into a line buffer that lives for the session, one
//! UTF-8 check, a parse whose strings borrow from the line, and one
//! table decode into a reused snapshot buffer. A `checkpoint` encodes
//! the snapshot once, then its hex through one table into a reused hex
//! buffer, 64 KiB of snapshot at a time.

use ctms_core::{
    apply_mutations, fork, graph_topology, Bus, ForkSpec, Measurements, Mutation, RingGraph,
    Scenario, Testbed,
};
use ctms_router::BridgeKind;
use ctms_sim::telemetry::{fnv1a, json_string};
use ctms_sim::{Dur, SimTime};
use std::borrow::Cow;
use std::fmt;
use std::io::{BufRead, BufReader, Read, Write};

// --- Minimal JSON ---------------------------------------------------------
//
// The workspace deliberately has no serde dependency (PERSIST is a
// hand-rolled canonical format for the same reason); the command
// protocol is small enough for a ~100-line recursive-descent parser.
// A parsed value borrows from its line: a string without escapes (every
// checkpoint hex) and every number are slices of it, not copies.

#[derive(Clone, Debug, PartialEq)]
enum Json<'a> {
    Null,
    Bool(bool),
    /// The literal's text, checked against the number syntax. It is
    /// read as an integer only on demand ([`Json::uint`]), exactly,
    /// never through an `f64` that rounds above 2^53.
    Num(&'a str),
    Str(Cow<'a, str>),
    Arr(Vec<Json<'a>>),
    Obj(Vec<(Cow<'a, str>, Json<'a>)>),
}

/// Why a field is not a usable integer.
enum IntError {
    /// Not a number written as plain digits.
    Mistyped,
    /// Digits that do not fit the field's type.
    OutOfRange,
}

impl<'a> Json<'a> {
    fn get(&self, key: &str) -> Option<&Json<'a>> {
        match self {
            Json::Obj(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Field `key` as a `T`, read exactly from its digits; `Ok(None)`
    /// when the field is absent.
    fn uint<T: TryFrom<u64>>(&self, key: &str) -> Result<Option<T>, IntError> {
        let Some(v) = self.get(key) else {
            return Ok(None);
        };
        match v {
            Json::Num(lit) if lit.bytes().all(|b| b.is_ascii_digit()) => lit
                .parse::<u64>()
                .ok()
                .and_then(|n| T::try_from(n).ok())
                .map(Some)
                .ok_or(IntError::OutOfRange),
            _ => Err(IntError::Mistyped),
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    fn as_arr(&self) -> Option<&[Json<'a>]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

fn out_of_range(key: &str) -> String {
    format!("\"{key}\" out of range")
}

/// An optional integer field: absent is `None`, anything but an integer
/// that fits `T` is an error.
fn opt<T: TryFrom<u64>>(v: &Json, key: &str) -> Result<Option<T>, String> {
    v.uint(key).map_err(|e| match e {
        IntError::Mistyped => format!("\"{key}\" must be a non-negative integer"),
        IntError::OutOfRange => out_of_range(key),
    })
}

/// A required integer field of a `what` (`run`, `fork`, `mutation`).
fn need<T: TryFrom<u64>>(v: &Json, what: &str, key: &str) -> Result<T, String> {
    match v.uint(key) {
        Ok(Some(n)) => Ok(n),
        Ok(None) | Err(IntError::Mistyped) => Err(format!("{what} needs numeric \"{key}\"")),
        Err(IntError::OutOfRange) => Err(out_of_range(key)),
    }
}

/// Nanoseconds per millisecond and per microsecond.
const MS: u64 = 1_000_000;
const US: u64 = 1_000;

/// `n` units of `unit_ns` as nanoseconds, or `"<key>" out of range`
/// where `SimTime::from_ms` and `Dur::from_us` would silently wrap.
fn to_ns(n: u64, unit_ns: u64, key: &str) -> Result<u64, String> {
    n.checked_mul(unit_ns).ok_or_else(|| out_of_range(key))
}

/// Deepest array/object nesting a line may carry. Protocol lines nest
/// at most 4 deep (a `fork` line: command object, branch list, one
/// branch, one mutation); the cap keeps a hostile line from exhausting
/// the stack of the recursive parser.
const MAX_DEPTH: usize = 16;

/// Most branches an admitted `fork` can carry: the budget's worth of
/// one-shard builds of the smallest chain (2 rings).
const MAX_FORK_BRANCHES: usize = (BUILD_BUDGET_BYTES / (2 * CHAIN_BYTES_PER_RING)) as usize;

/// Most mutations one `steer` or `fork` line may carry in all: one per
/// ring of the largest chain the budget admits.
const MAX_MUTATIONS: usize = (BUILD_BUDGET_BYTES / CHAIN_BYTES_PER_RING) as usize;

/// Most JSON values a line may hold, counted as the parser meets them,
/// like [`MAX_DEPTH`] counts nesting. The largest line an admitted
/// command needs is a `fork` of [`MAX_FORK_BRANCHES`] branch arrays
/// carrying [`MAX_MUTATIONS`] mutations of an object and three fields
/// each, inside the command object and its three fields. At 32 bytes a
/// parsed value, 56 in an object, a line within the count costs at most
/// about 30 MB to parse, however long it is.
const MAX_VALUES: usize = 4 + MAX_FORK_BRANCHES + 4 * MAX_MUTATIONS;

struct Parser<'a> {
    src: &'a str,
    pos: usize,
    depth: usize,
    /// Values met so far.
    values: usize,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Self {
        Parser {
            src,
            pos: 0,
            depth: 0,
            values: 0,
        }
    }
}

fn parse_json(s: &str) -> Result<Json<'_>, String> {
    let mut p = Parser::new(s);
    let v = p.value()?;
    p.skip_ws();
    if p.pos != s.len() {
        return Err(format!("trailing bytes at offset {}", p.pos));
    }
    Ok(v)
}

impl<'a> Parser<'a> {
    fn bytes(&self) -> &'a [u8] {
        self.src.as_bytes()
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes().get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.skip_ws();
        self.bytes()
            .get(self.pos)
            .copied()
            .ok_or_else(|| "unexpected end of input".to_string())
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek()? == b {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at offset {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Json<'a>, String> {
        self.values += 1;
        if self.values > MAX_VALUES {
            return Err(format!(
                "more than {MAX_VALUES} values at offset {}",
                self.pos
            ));
        }
        match self.peek()? {
            b'{' | b'[' if self.depth == MAX_DEPTH => Err(format!(
                "nesting deeper than {MAX_DEPTH} at offset {}",
                self.pos
            )),
            open @ (b'{' | b'[') => {
                self.depth += 1;
                let v = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                v
            }
            b'"' => Ok(Json::Str(self.string()?)),
            b't' => self.keyword("true", Json::Bool(true)),
            b'f' => self.keyword("false", Json::Bool(false)),
            b'n' => self.keyword("null", Json::Null),
            b'-' | b'0'..=b'9' => self.number(),
            other => Err(format!(
                "unexpected '{}' at offset {}",
                other as char, self.pos
            )),
        }
    }

    fn keyword(&mut self, word: &str, v: Json<'a>) -> Result<Json<'a>, String> {
        self.skip_ws();
        if self.bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad keyword at offset {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json<'a>, String> {
        self.skip_ws();
        let start = self.pos;
        while let Some(&b) = self.bytes().get(self.pos) {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        // The scan stopped on an ASCII byte or the end, so the slice
        // falls on char boundaries.
        let lit = &self.src[start..self.pos];
        match lit.parse::<f64>() {
            Ok(_) => Ok(Json::Num(lit)),
            Err(_) => Err(format!("bad number at offset {start}")),
        }
    }

    /// A string, borrowed from the line unless it holds an escape. Each
    /// run of plain bytes is found with one scan for the next `"` or
    /// `\`; multi-byte UTF-8 passes through inside a run, since the line
    /// was validated as UTF-8 and both delimiters are ASCII.
    fn string(&mut self) -> Result<Cow<'a, str>, String> {
        self.expect(b'"')?;
        let mut unescaped: Option<String> = None;
        loop {
            let start = self.pos;
            let rest = &self.bytes()[start..];
            let Some(len) = find_quote_or_backslash(rest) else {
                return Err("unterminated string".to_string());
            };
            let run = &self.src[start..start + len];
            self.pos = start + len + 1;
            if rest[len] == b'"' {
                return Ok(match unescaped {
                    None => Cow::Borrowed(run),
                    Some(mut s) => {
                        s.push_str(run);
                        Cow::Owned(s)
                    }
                });
            }
            let s = unescaped.get_or_insert_with(String::new);
            s.push_str(run);
            s.push(self.escape()?);
        }
    }

    /// The character an escape stands for; `pos` is just past the `\`.
    fn escape(&mut self) -> Result<char, String> {
        let &esc = self
            .bytes()
            .get(self.pos)
            .ok_or_else(|| "unterminated escape".to_string())?;
        self.pos += 1;
        Ok(match esc {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'n' => '\n',
            b't' => '\t',
            b'r' => '\r',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'u' => {
                let code = self
                    .bytes()
                    .get(self.pos..self.pos + 4)
                    .and_then(|digits| {
                        digits.iter().try_fold(0, |code, &d| {
                            let nibble = NIBBLES[usize::from(d)];
                            (nibble <= 0xF).then_some((code << 4) | u32::from(nibble))
                        })
                    })
                    .ok_or_else(|| "bad \\u escape".to_string())?;
                self.pos += 4;
                char::from_u32(code).ok_or_else(|| "unsupported \\u codepoint".to_string())?
            }
            other => return Err(format!("bad escape '\\{}'", other as char)),
        })
    }

    fn array(&mut self) -> Result<Json<'a>, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                other => return Err(format!("expected ',' or ']', got '{}'", other as char)),
            }
        }
    }

    fn object(&mut self) -> Result<Json<'a>, String> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Json::Obj(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            entries.push((key, self.value()?));
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Json::Obj(entries));
                }
                other => return Err(format!("expected ',' or '}}', got '{}'", other as char)),
            }
        }
    }
}

/// Offset of the first `"` or `\` in `bytes`. Whole 32-byte blocks are
/// tested without an early exit, which the compiler turns into vector
/// compares; only the block holding the hit is scanned byte by byte.
/// On a megabyte of checkpoint hex this is about five times faster
/// than a plain `position` (2-vCPU x86-64 Xeon VM, release build).
fn find_quote_or_backslash(bytes: &[u8]) -> Option<usize> {
    let hit = |b: &u8| *b == b'"' || *b == b'\\';
    let clean = bytes
        .chunks_exact(32)
        .take_while(|block| !block.iter().fold(false, |any, b| any | hit(b)))
        .count()
        * 32;
    bytes[clean..].iter().position(hit).map(|i| clean + i)
}

// --- Hex checkpoints ------------------------------------------------------

/// Each byte's two lowercase hex digits.
const HEX_PAIRS: [[u8; 2]; 256] = {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut table = [[0; 2]; 256];
    let mut b = 0;
    while b < 256 {
        table[b] = [DIGITS[b >> 4], DIGITS[b & 0xF]];
        b += 1;
    }
    table
};

/// Each byte's value as a hex digit of either case; `0xFF` for a byte
/// outside `[0-9a-fA-F]`.
const NIBBLES: [u8; 256] = {
    let mut table = [0xFF; 256];
    let mut d = 0;
    while d < 10 {
        table[b'0' as usize + d] = d as u8;
        d += 1;
    }
    let mut d = 0;
    while d < 6 {
        table[b'a' as usize + d] = 10 + d as u8;
        table[b'A' as usize + d] = 10 + d as u8;
        d += 1;
    }
    table
};

/// Appends the lowercase hex of `bytes` to `dst`.
fn encode_hex(bytes: &[u8], dst: &mut Vec<u8>) {
    let start = dst.len();
    dst.resize(start + 2 * bytes.len(), 0);
    for (pair, &b) in dst[start..].chunks_exact_mut(2).zip(bytes) {
        pair.copy_from_slice(&HEX_PAIRS[usize::from(b)]);
    }
}

/// Why a checkpoint's hex did not decode.
#[derive(Debug, PartialEq)]
enum HexError {
    OddLength,
    /// Offset of the first byte outside `[0-9a-fA-F]`.
    BadDigit(usize),
}

impl fmt::Display for HexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HexError::OddLength => f.write_str("hex checkpoint has odd length"),
            HexError::BadDigit(offset) => write!(f, "bad hex at offset {offset}"),
        }
    }
}

/// Decodes `hex` into `dst`, replacing its contents. Strict: only hex
/// digits, no sign or whitespace; `dst` holds garbage on error.
fn decode_hex(hex: &[u8], dst: &mut Vec<u8>) -> Result<(), HexError> {
    if !hex.len().is_multiple_of(2) {
        return Err(HexError::OddLength);
    }
    dst.clear();
    dst.resize(hex.len() / 2, 0);
    // No branch per byte: any bad digit sets a high bit in `seen`, and
    // only then does a second pass look for its offset.
    let mut seen = 0;
    for (b, pair) in dst.iter_mut().zip(hex.chunks_exact(2)) {
        let (hi, lo) = (NIBBLES[usize::from(pair[0])], NIBBLES[usize::from(pair[1])]);
        seen |= hi | lo;
        *b = (hi << 4) | lo;
    }
    if seen > 0xF {
        let offset = hex.iter().position(|&d| NIBBLES[usize::from(d)] > 0xF);
        return Err(HexError::BadDigit(offset.expect("a bad digit was seen")));
    }
    Ok(())
}

/// Snapshot bytes hex-encoded per write of a `checkpoint` reply and per
/// `checkpoint_chunk` line: the hex buffer stays at 128 KiB however
/// large the snapshot.
const HEX_SLICE: usize = 64 * 1024;

/// Writes raw bytes onto the reply stream with the same broken-pipe
/// policy as [`emit`]: if the driver went away, exit quietly.
fn write_or_exit(out: &mut impl Write, bytes: &[u8]) {
    if out.write_all(bytes).is_err() {
        std::process::exit(0);
    }
}

// --- Session --------------------------------------------------------------

#[derive(Clone)]
enum ScenarioKind {
    CaseA,
    CaseB,
    Chain,
}

#[derive(Clone)]
struct Spec {
    kind: ScenarioKind,
    seed: u64,
    rings: usize,
    shards: usize,
    cascade_limit: Option<u32>,
}

/// Memory one chain build may take; a session line asking for more is
/// refused before anything is built. A session holds up to two builds
/// at once (a restore lands on a fresh one before the old one goes),
/// and fork branches add theirs.
const BUILD_BUDGET_BYTES: u64 = 256 << 20;
/// Peak memory per ring at one shard. A chain session's peak RSS
/// (seed 42) reads 2.75 KiB per ring at `ready` and 2.95 after a 1 s
/// `run` at 16,384 rings, and 2.65 and 2.85 at 32,768, the run's
/// station queues and output scratch included (DESIGN.md §11). It
/// stays 4 KiB, above every figure, because [`MAX_MUTATIONS`] and
/// [`MAX_VALUES`] derive from it, and [`MAX_LINE_BYTES`] from the
/// largest chain it admits.
const CHAIN_BYTES_PER_RING: u64 = 4 << 10;
/// Peak memory per ring for each shard past the first, rounded up from
/// 32–62 bytes (1.6·10^4 and 3.3·10^4 rings on 2 to 16 shards): every
/// shard's router keeps one pointer-sized TAP slot per node, and each
/// shard's scheduler tables cover the nodes it was handed.
const BYTES_PER_RING_PER_SHARD: u64 = 64;
/// Peak memory per ordered pair of distinct shards, rounded up from
/// about 55 bytes: each shard's outbox per destination shard and the window
/// protocol's `n × n` influence matrix.
const BYTES_PER_SHARD_PAIR: u64 = 64;

/// Peak memory of a chain build of `rings` rings on `shards` shards
/// (clamped to the ring count, as the build clamps it). The three
/// terms were measured as the growth of `serve`'s peak RSS between
/// builds of 10^3 to 6.5·10^4 rings on 1 to 2,048 shards.
fn chain_build_bytes(rings: usize, shards: usize) -> u64 {
    let r = rings as u64;
    let s = shards.min(rings).max(1) as u64;
    let per_ring = (s - 1)
        .saturating_mul(BYTES_PER_RING_PER_SHARD)
        .saturating_add(CHAIN_BYTES_PER_RING);
    let pairs = s.saturating_mul(s - 1).saturating_mul(BYTES_PER_SHARD_PAIR);
    r.saturating_mul(per_ring).saturating_add(pairs)
}

/// Peak memory of one build of a one-ring scenario (case A or B),
/// rounded up from the 0.33 MB a case A or B session's peak RSS grows
/// over a 100 s run.
const ONE_RING_BUILD_BYTES: u64 = 512 << 10;

/// Longest line `serve` reads, newline excluded: the hex of the largest
/// admitted session's snapshot, with room to spare. A 65,536-ring chain
/// snapshots to 25.0 MB at t = 0 and 26.6 MB at 4 s, and to about
/// 28.7 MB once every ring and bridge has carried traffic (437.8 bytes
/// per warm ring on 10^3- and 4·10^3-ring chains), so its `restore`
/// line is at most about 57.4 MB (DESIGN.md §11).
const MAX_LINE_BYTES: usize = 64 << 20;

/// Every key a session line may carry.
const SESSION_KEYS: [&str; 5] = ["scenario", "seed", "rings", "shards", "cascade_limit"];

impl Spec {
    fn parse(v: &Json) -> Result<Spec, String> {
        let Json::Obj(entries) = v else {
            return Err("session line must be a JSON object".to_string());
        };
        if let Some((key, _)) = entries.iter().find(|(k, _)| !SESSION_KEYS.contains(&&**k)) {
            return Err(format!("unknown key \"{key}\""));
        }
        let kind = match v
            .get("scenario")
            .and_then(Json::as_str)
            .ok_or("session needs \"scenario\"")?
        {
            "case_a" => ScenarioKind::CaseA,
            "case_b" => ScenarioKind::CaseB,
            "chain" => ScenarioKind::Chain,
            other => return Err(format!("unknown scenario \"{other}\"")),
        };
        // A present key must hold a non-negative integer; only an absent
        // one falls back to its default.
        let rings = opt(v, "rings")?.unwrap_or(16);
        let chain = matches!(kind, ScenarioKind::Chain);
        if chain && chain_build_bytes(rings, 1) > BUILD_BUDGET_BYTES {
            return Err(out_of_range("rings"));
        }
        if chain && rings < 2 {
            return Err("chain needs rings >= 2".to_string());
        }
        let seed = opt(v, "seed")?.unwrap_or(42);
        let shards = opt(v, "shards")?.unwrap_or(1);
        if chain && chain_build_bytes(rings, shards) > BUILD_BUDGET_BYTES {
            return Err(out_of_range("shards"));
        }
        Ok(Spec {
            kind,
            seed,
            rings,
            shards,
            cascade_limit: opt::<u32>(v, "cascade_limit")?.map(|n| n.max(1)),
        })
    }

    /// Peak memory of one fork branch: a one-shard build of the
    /// session's scenario.
    fn branch_bytes(&self) -> u64 {
        match self.kind {
            ScenarioKind::CaseA | ScenarioKind::CaseB => ONE_RING_BUILD_BYTES,
            ScenarioKind::Chain => chain_build_bytes(self.rings, 1),
        }
    }

    fn scenario(&self) -> Scenario {
        let mut sc = match self.kind {
            ScenarioKind::CaseA => Scenario::test_case_a(self.seed),
            ScenarioKind::CaseB => Scenario::test_case_b(self.seed),
            ScenarioKind::Chain => Scenario::scaled_chain(self.seed),
        };
        if let Some(limit) = self.cascade_limit {
            sc.cascade_limit = limit;
        }
        sc
    }

    /// A fresh build of the session's scenario on `shards` shards
    /// (one-ring scenarios always build one). Checkpoints are
    /// shard-agnostic, so any build restores a snapshot from any other.
    /// A bare topology build keeps no measurement samples: nothing
    /// `serve` replies with needs one, so a session's memory and its
    /// snapshots stay the same size however long it runs.
    fn build(&self, shards: usize) -> Bus {
        let sc = self.scenario();
        let topo = match self.kind {
            ScenarioKind::CaseA | ScenarioKind::CaseB => Testbed::ctms_topology(&sc).0,
            ScenarioKind::Chain => {
                let kind = BridgeKind::cut_through_bridge();
                graph_topology(&sc, kind, &RingGraph::chain(self.rings)).0
            }
        };
        topo.build_sharded(shards)
    }
}

fn parse_mutation(v: &Json) -> Result<Mutation, String> {
    let what = "mutation";
    match v
        .get("kind")
        .and_then(Json::as_str)
        .ok_or("mutation needs \"kind\"")?
    {
        "station_churn" => Ok(Mutation::StationChurn {
            ring: need(v, what, "ring")?,
        }),
        "purge_storm" => Ok(Mutation::PurgeStorm {
            ring: need(v, what, "ring")?,
            count: need(v, what, "count")?,
        }),
        "dma_stall" => Ok(Mutation::DmaStall {
            host: need(v, what, "host")?,
            extra: Dur::from_ns(to_ns(need(v, what, "extra_us")?, US, "extra_us")?),
        }),
        other => Err(format!("unknown mutation kind \"{other}\"")),
    }
}

/// One mutation list, charged against `left`, the mutations its line
/// may still carry (see [`MAX_MUTATIONS`]).
fn parse_mutations(v: &Json, left: &mut usize) -> Result<Vec<Mutation>, String> {
    let list = v.as_arr().ok_or("\"mutations\" must be an array")?;
    *left = left
        .checked_sub(list.len())
        .ok_or_else(|| out_of_range("mutations"))?;
    list.iter().map(parse_mutation).collect()
}

// --- Replies --------------------------------------------------------------

fn emit(out: &mut impl Write, line: &str) {
    // A broken pipe means the driver went away; exit quietly.
    if writeln!(out, "{line}").is_err() {
        std::process::exit(0);
    }
    let _ = out.flush();
}

fn emit_err(out: &mut impl Write, msg: &str) {
    emit(
        out,
        &format!("{{\"ok\":false,\"error\":{}}}", json_string(msg)),
    );
}

/// A scheduling failure as a machine-readable error line: `kind` names
/// the typed [`CascadeError`] variant (a same-instant cascade overflow
/// or a cross-shard lookahead violation) so drivers can branch without
/// parsing prose, and the session keeps serving — the failure poisons
/// the simulation, not the process.
fn emit_cascade_err(out: &mut impl Write, e: &ctms_sim::CascadeError) {
    let kind = match e {
        ctms_sim::CascadeError::Overflow { .. } => "overflow",
        ctms_sim::CascadeError::CrossShard { .. } => "cross_shard",
    };
    emit(
        out,
        &format!(
            "{{\"ok\":false,\"kind\":{},\"at_ns\":{},\"error\":{}}}",
            json_string(kind),
            e.at().as_ns(),
            json_string(&e.to_string())
        ),
    );
}

/// `count` summed over the bus's measurement parts (one per shard).
fn measured(bus: &Bus, count: fn(&Measurements) -> usize) -> usize {
    bus.measure_parts().into_iter().map(count).sum()
}

fn status_line(bus: &Bus) -> String {
    format!(
        "\"now_ms\":{},\"events\":{},\"presented\":{},\"purge_starts\":{}",
        bus.now().as_ns() / 1_000_000,
        bus.events(),
        measured(bus, |m| m.presented().len()),
        measured(bus, |m| m.purge_starts().len())
    )
}

// --- Main loop ------------------------------------------------------------

/// Capacity of the stdin buffer: a pipe's worth, so a megabyte restore
/// line arrives in a few large reads.
const PIPE_CAPACITY: usize = 64 * 1024;

/// Reads the next line into `line`, which the caller keeps for the
/// whole session so a long line allocates only while the buffer grows,
/// and returns it trimmed, as a slice of `line`. At most
/// [`MAX_LINE_BYTES`] bytes (plus the newline) are buffered: a longer
/// line is read past to its newline without being kept. `None` at end
/// of input or on a read error, either of which ends the session;
/// `Err` for a line that is too long or not UTF-8.
fn read_line<'b>(
    input: &mut impl BufRead,
    line: &'b mut Vec<u8>,
) -> Option<Result<&'b str, String>> {
    line.clear();
    let bounded = (MAX_LINE_BYTES + 1) as u64;
    let read = Read::take(&mut *input, bounded)
        .read_until(b'\n', line)
        .and_then(|n| {
            if line.len() > MAX_LINE_BYTES && line.last() != Some(&b'\n') {
                line.clear();
                input.skip_until(b'\n')?;
                Ok(Err(format!("longer than {MAX_LINE_BYTES} bytes")))
            } else {
                Ok(Ok(n))
            }
        });
    match read {
        Ok(Ok(0)) => None,
        Ok(Ok(_)) => Some(
            std::str::from_utf8(line)
                .map(str::trim)
                .map_err(|_| "not UTF-8".to_string()),
        ),
        Ok(Err(too_long)) => Some(Err(too_long)),
        Err(e) => {
            eprintln!("serve: reading stdin failed ({e}); ending the session");
            None
        }
    }
}

/// Byte buffers a session's checkpoint and restore requests reuse.
#[derive(Default)]
struct Buffers {
    /// Checkpoint hex on its way out, one [`HEX_SLICE`] at a time.
    hex: Vec<u8>,
    /// A restore's decoded snapshot.
    snapshot: Vec<u8>,
}

fn main() {
    let stdout = std::io::stdout();
    serve(
        BufReader::with_capacity(PIPE_CAPACITY, std::io::stdin().lock()),
        &mut stdout.lock(),
    );
}

/// Runs one session: the session line, then commands until `quit`, end
/// of input or a read error. Blank lines are skipped; every other line
/// gets a reply.
fn serve(mut input: impl BufRead, out: &mut impl Write) {
    let mut line = Vec::new();
    let spec = loop {
        let parsed = match read_line(&mut input, &mut line) {
            None => return, // No session line: nothing to do.
            Some(Ok("")) => continue,
            Some(Ok(text)) => parse_json(text).and_then(|v| Spec::parse(&v)),
            Some(Err(e)) => Err(e),
        };
        match parsed {
            Ok(spec) => break spec,
            Err(e) => emit_err(out, &format!("bad session line: {e}")),
        }
    };
    let mut bus = spec.build(spec.shards);
    emit(
        out,
        &format!(
            "{{\"ok\":true,\"event\":\"ready\",\"shards\":{},{}}}",
            bus.shard_count(),
            status_line(&bus)
        ),
    );

    let mut bufs = Buffers::default();
    loop {
        let parsed = match read_line(&mut input, &mut line) {
            None => return,
            Some(Ok("")) => continue,
            Some(Ok(text)) => parse_json(text),
            Some(Err(e)) => Err(e),
        };
        let served = match parsed {
            Ok(cmd) => command(&cmd, &spec, &mut bus, &mut bufs, out),
            Err(e) => Err(format!("bad command line: {e}")),
        };
        match served {
            Ok(true) => {}
            Ok(false) => return,
            Err(e) => emit_err(out, &e),
        }
    }
}

/// Serves one command; `Ok(false)` once it was `quit`. An `Err` is the
/// prose of the `{"ok":false}` reply; a scheduling failure emits its
/// own kind-tagged reply instead.
fn command(
    cmd: &Json,
    spec: &Spec,
    bus: &mut Bus,
    bufs: &mut Buffers,
    out: &mut impl Write,
) -> Result<bool, String> {
    match cmd.get("cmd").and_then(Json::as_str) {
        Some("run") => {
            let until = SimTime::from_ns(to_ns(need(cmd, "run", "until_ms")?, MS, "until_ms")?);
            if until < bus.now() {
                return Err("\"until_ms\" is in the simulated past".to_string());
            }
            let step_ns = match opt::<u64>(cmd, "step_ms")? {
                Some(ms) if ms > 0 => Some(to_ns(ms, MS, "step_ms")?),
                _ => None,
            };
            while bus.now() < until {
                let next = match step_ns {
                    Some(ns) => SimTime::from_ns(bus.now().as_ns().saturating_add(ns)).min(until),
                    None => until,
                };
                if let Err(e) = bus.try_run_until(next) {
                    emit_cascade_err(out, &e);
                    return Ok(true);
                }
                if step_ns.is_some() && bus.now() < until {
                    emit(
                        out,
                        &format!(
                            "{{\"ok\":true,\"event\":\"progress\",{}}}",
                            status_line(bus)
                        ),
                    );
                }
            }
            emit(
                out,
                &format!("{{\"ok\":true,\"event\":\"ran\",{}}}", status_line(bus)),
            );
        }
        Some("telemetry") => {
            // The canonical tree is pretty-printed; collapse it to
            // one line in place (each newline and the indentation
            // after it go) so the reply stays a single stdout record.
            // Safe because the emitter escapes every control
            // character inside strings — no literal newlines exist.
            let mut tree = bus.telemetry_json();
            let mut indent = false;
            tree.retain(|c| {
                indent = c == '\n' || (indent && c == ' ');
                !indent
            });
            write_or_exit(out, b"{\"ok\":true,\"telemetry\":");
            write_or_exit(out, tree.as_bytes());
            emit(out, "}");
        }
        Some("checkpoint") => {
            // Slice by slice, so the hex is never a second, doubled copy
            // of the snapshot.
            let snapshot = bus.checkpoint();
            write_or_exit(out, b"{\"ok\":true,\"checkpoint\":\"");
            for slice in snapshot.chunks(HEX_SLICE) {
                bufs.hex.clear();
                encode_hex(slice, &mut bufs.hex);
                write_or_exit(out, &bufs.hex);
            }
            write_or_exit(
                out,
                format!("\",\"bytes\":{}}}\n", snapshot.len()).as_bytes(),
            );
            let _ = out.flush();
        }
        Some("checkpoint_stream") => {
            // One `checkpoint_chunk` line per slice of the same hex.
            let snapshot = bus.checkpoint();
            for (seq, slice) in snapshot.chunks(HEX_SLICE).enumerate() {
                bufs.hex.clear();
                bufs.hex.extend_from_slice(
                    format!(
                        "{{\"ok\":true,\"event\":\"checkpoint_chunk\",\"seq\":{seq},\"data\":\""
                    )
                    .as_bytes(),
                );
                encode_hex(slice, &mut bufs.hex);
                bufs.hex.extend_from_slice(b"\"}\n");
                write_or_exit(out, &bufs.hex);
            }
            emit(
                out,
                &format!(
                    "{{\"ok\":true,\"event\":\"checkpoint_done\",\"chunks\":{},\"bytes\":{}}}",
                    snapshot.len().div_ceil(HEX_SLICE),
                    snapshot.len()
                ),
            );
        }
        Some("restore") => {
            let hex = cmd
                .get("checkpoint")
                .and_then(Json::as_str)
                .ok_or("restore needs \"checkpoint\" hex")?;
            decode_hex(hex.as_bytes(), &mut bufs.snapshot).map_err(|e| e.to_string())?;
            // Restore lands on a fresh rebuild; the old bus is only
            // replaced once the snapshot is verified applicable.
            let mut fresh = spec.build(spec.shards);
            fresh
                .restore_checkpoint(&bufs.snapshot)
                .map_err(|e| format!("restore failed: {e}"))?;
            *bus = fresh;
            emit(
                out,
                &format!(
                    "{{\"ok\":true,\"event\":\"restored\",{}}}",
                    status_line(bus)
                ),
            );
        }
        Some("steer") => {
            let muts = parse_mutations(
                cmd.get("mutations").ok_or("steer needs \"mutations\"")?,
                &mut { MAX_MUTATIONS },
            )?;
            apply_mutations(bus, &muts).map_err(|e| format!("steer failed: {e}"))?;
            emit(
                out,
                &format!(
                    "{{\"ok\":true,\"event\":\"steered\",\"applied\":{},{}}}",
                    muts.len(),
                    status_line(bus)
                ),
            );
        }
        Some("fork") => {
            let run_to = SimTime::from_ns(to_ns(need(cmd, "fork", "until_ms")?, MS, "until_ms")?);
            if run_to < bus.now() {
                return Err("\"until_ms\" is in the simulated past".to_string());
            }
            let mut left = MAX_MUTATIONS;
            let branches = cmd
                .get("branches")
                .and_then(Json::as_arr)
                .filter(|lists| !lists.is_empty())
                .ok_or("fork needs a non-empty \"branches\" array of mutation lists")?
                .iter()
                .map(|l| {
                    Ok(ForkSpec {
                        mutations: parse_mutations(l, &mut left)?,
                        run_to,
                    })
                })
                .collect::<Result<Vec<ForkSpec>, String>>()?;
            let n = branches.len();
            // Each branch is a one-shard build of the session's
            // scenario; together they stay within the build budget.
            if (n as u64).saturating_mul(spec.branch_bytes()) > BUILD_BUDGET_BYTES {
                return Err(out_of_range("branches"));
            }
            let snapshot = bus.checkpoint();
            let build_spec = spec.clone();
            let summaries = fork(
                snapshot,
                branches,
                ctms_sim::default_threads(n),
                move || build_spec.build(1),
                |_idx, mut branch: Bus| {
                    let tree = branch.telemetry_json();
                    format!(
                        "{{\"telemetry_digest\":\"{:#018X}\",\"now_ms\":{},\"events\":{},\
                         \"presented\":{},\"purge_starts\":{},\"drops\":{}}}",
                        fnv1a(tree.as_bytes()),
                        branch.now().as_ns() / 1_000_000,
                        branch.events(),
                        measured(&branch, |m| m.presented().len()),
                        measured(&branch, |m| m.purge_starts().len()),
                        measured(&branch, |m| m.drops() as usize)
                    )
                },
            )
            .map_err(|e| format!("fork failed: {e}"))?;
            emit(
                out,
                &format!(
                    "{{\"ok\":true,\"event\":\"forked\",\"branches\":[{}]}}",
                    summaries.join(",")
                ),
            );
        }
        Some("quit") => {
            emit(out, "{\"ok\":true,\"event\":\"bye\"}");
            return Ok(false);
        }
        Some(other) => return Err(format!("unknown command \"{other}\"")),
        None => return Err("command needs a \"cmd\" string".to_string()),
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctms_sim::{CascadeError, NodeId};

    fn line(e: &CascadeError) -> String {
        let mut buf = Vec::new();
        emit_cascade_err(&mut buf, e);
        String::from_utf8(buf).unwrap()
    }

    /// One machine-readable `kind` per `CascadeError` variant, with the
    /// failure instant stamped so drivers can place the error on the
    /// simulation timeline without parsing the prose.
    #[test]
    fn cascade_errors_emit_kind_tagged_json() {
        let overflow = CascadeError::overflow(SimTime::from_ns(1_500), NodeId(7), 65);
        let got = line(&overflow);
        assert!(
            got.starts_with("{\"ok\":false,\"kind\":\"overflow\",\"at_ns\":1500,"),
            "{got}"
        );
        assert!(got.contains("\"error\":\"cascade guard tripped"), "{got}");

        let cross = CascadeError::CrossShard {
            at: SimTime::from_ns(2_000),
            src: NodeId(1),
            dst: NodeId(9),
            src_shard: 0,
            dst_shard: 1,
        };
        let got = line(&cross);
        assert!(
            got.starts_with("{\"ok\":false,\"kind\":\"cross_shard\",\"at_ns\":2000,"),
            "{got}"
        );
        assert!(got.contains("protocol violation"), "{got}");
    }

    /// A hostile line nested 100,000 deep is a parse error, not a stack
    /// overflow that takes the service down; the deepest line the
    /// protocol uses (a `fork`) still parses.
    #[test]
    fn nesting_depth_is_capped() {
        let deep = "[".repeat(100_000);
        let err = parse_json(&deep).expect_err("a 100,000-deep line must be rejected");
        assert!(err.contains("nesting deeper than"), "{err}");

        let fork = r#"{"cmd":"fork","until_ms":2000,"branches":[[{"kind":"purge_storm","ring":0,"count":2}]]}"#;
        let v = parse_json(fork).expect("the deepest protocol line parses");
        let branch = &v.get("branches").and_then(Json::as_arr).expect("branches")[0];
        assert_eq!(
            parse_mutations(branch, &mut { MAX_MUTATIONS }).map(|m| m.len()),
            Ok(1)
        );
    }

    /// A line's parse is bounded by a count of values, not by its
    /// length: the 6 MB `fork` line of two million empty branches is
    /// refused at the first value past [`MAX_VALUES`] with one typed
    /// reply, and the session keeps serving. The largest admitted
    /// `fork` line (every branch the smallest chain admits, carrying
    /// every mutation a line may) parses within the count, and a
    /// `restore` line costs three values whatever the length of its hex.
    #[test]
    fn value_count_is_capped() {
        assert_eq!((MAX_FORK_BRANCHES, MAX_MUTATIONS), (32_768, 65_536));
        let smallest_chain = spec(r#"{"scenario":"chain","rings":2}"#).unwrap();
        assert_eq!(
            smallest_chain.branch_bytes() * MAX_FORK_BRANCHES as u64,
            BUILD_BUDGET_BYTES
        );
        assert_eq!(chain_build_bytes(MAX_MUTATIONS, 1), BUILD_BUDGET_BYTES);

        let fork = |branches: &[String]| {
            format!(
                "{{\"cmd\":\"fork\",\"until_ms\":0,\"branches\":[{}]}}",
                branches.join(",")
            )
        };
        let hostile = fork(&vec!["[]".to_string(); 2_000_000]);
        assert!(hostile.len() > 6_000_000);
        let mut p = Parser::new(&hostile);
        let err = p.value().expect_err("two million branches are refused");
        assert!(
            err.starts_with(&format!("more than {MAX_VALUES} values")),
            "{err}"
        );
        assert_eq!(
            p.values,
            MAX_VALUES + 1,
            "refused at the first value past the count"
        );
        let replies = session(
            format!("{{\"scenario\":\"case_a\"}}\n{hostile}\n{{\"cmd\":\"quit\"}}\n").as_bytes(),
        );
        assert_eq!(replies.len(), 3, "{replies:#?}");
        assert!(
            replies[1].starts_with(&format!(
                "{{\"ok\":false,\"error\":\"bad command line: more than {MAX_VALUES} values"
            )),
            "{}",
            replies[1]
        );

        let mutation = r#"{"kind":"dma_stall","host":0,"extra_us":1}"#;
        let per_branch = MAX_MUTATIONS / MAX_FORK_BRANCHES;
        let branch = format!("[{}]", vec![mutation; per_branch].join(","));
        let largest = fork(&vec![branch; MAX_FORK_BRANCHES]);
        let mut p = Parser::new(&largest);
        let v = p.value().expect("the largest admitted fork line parses");
        assert_eq!(p.values, MAX_VALUES);
        let mut left = MAX_MUTATIONS;
        for list in v.get("branches").and_then(Json::as_arr).unwrap() {
            assert_eq!(
                parse_mutations(list, &mut left).map(|m| m.len()),
                Ok(per_branch)
            );
        }
        assert_eq!(left, 0);
        let one_more = Json::Arr(vec![Json::Null]);
        assert_eq!(
            parse_mutations(&one_more, &mut left),
            Err(r#""mutations" out of range"#.to_string())
        );

        let restore = format!(
            "{{\"cmd\":\"restore\",\"checkpoint\":\"{}\"}}",
            "ab".repeat(1 << 20)
        );
        let mut p = Parser::new(&restore);
        p.value().expect("a restore line parses");
        assert_eq!(p.values, 3);
    }

    /// A `steer` line with more mutations than any admitted chain has
    /// rings is refused whole, before any is applied.
    #[test]
    fn mutation_counts_are_capped() {
        let churn = r#"{"kind":"station_churn","ring":0}"#;
        let steer = |n: usize| {
            format!(
                "{{\"cmd\":\"steer\",\"mutations\":[{}]}}\n",
                vec![churn; n].join(",")
            )
        };
        let input = format!(
            "{{\"scenario\":\"case_a\"}}\n{}{}{{\"cmd\":\"quit\"}}\n",
            steer(MAX_MUTATIONS + 1),
            steer(2)
        );
        let replies = session(input.as_bytes());
        assert_eq!(replies.len(), 4, "{replies:#?}");
        assert_eq!(
            replies[1],
            r#"{"ok":false,"error":"\"mutations\" out of range"}"#
        );
        assert!(
            replies[2].starts_with(r#"{"ok":true,"event":"steered","applied":2,"#),
            "{}",
            replies[2]
        );
    }

    fn spec(line: &str) -> Result<Spec, String> {
        Spec::parse(&parse_json(line).expect("test lines are valid JSON"))
    }

    /// The session line is validated, not best-effort: a known key with
    /// a value of the wrong type, or a key the runtime does not know
    /// (including the retired `exec`), is a `bad session line` instead
    /// of a silent fallback to the default.
    #[test]
    fn session_line_rejects_unknown_keys_and_mistyped_values() {
        // The exact line the benchmark's serve client sends.
        let ok = spec(r#"{"scenario":"chain","rings":16,"shards":2,"seed":7}"#).unwrap();
        assert!(matches!(ok.kind, ScenarioKind::Chain));
        assert_eq!((ok.rings, ok.shards, ok.seed), (16, 2, 7));
        assert_eq!(ok.cascade_limit, None);

        let ok = spec(r#"{"scenario":"case_a","cascade_limit":3}"#).unwrap();
        assert_eq!(ok.cascade_limit, Some(3));
        assert_eq!(ok.scenario().cascade_limit, 3);
        assert_eq!((ok.rings, ok.shards, ok.seed), (16, 1, 42));

        for (bad, why) in [
            (
                r#"{"scenario":"chain","exec":"optimistic"}"#,
                r#"unknown key "exec""#,
            ),
            (
                r#"{"scenario":"chain","shard":2}"#,
                r#"unknown key "shard""#,
            ),
            (r#"{"scenario":"chain","seed":"42"}"#, r#""seed" must be"#),
            (r#"{"scenario":"chain","shards":-1}"#, r#""shards" must be"#),
            (r#"{"scenario":"chain","rings":2.5}"#, r#""rings" must be"#),
            (
                r#"{"scenario":"chain","cascade_limit":null}"#,
                r#""cascade_limit" must"#,
            ),
            (r#"{"scenario":7}"#, r#"session needs "scenario""#),
            (r#"["chain"]"#, "must be a JSON object"),
        ] {
            let err = spec(bad)
                .err()
                .unwrap_or_else(|| panic!("{bad} was accepted"));
            assert!(err.contains(why), "{bad}: {err}");
        }
    }

    /// Every byte value survives encode then decode, in either case.
    #[test]
    fn hex_round_trips_every_byte_value() {
        let bytes: Vec<u8> = (0..=255).collect();
        let mut hex = b"kept".to_vec();
        encode_hex(&bytes, &mut hex);
        assert_eq!(&hex[..6], b"kept00");
        assert_eq!(&hex[hex.len() - 4..], b"feff");
        let mut back = vec![7; 3];
        decode_hex(&hex[4..], &mut back).unwrap();
        assert_eq!(back, bytes);
        decode_hex(hex[4..].to_ascii_uppercase().as_slice(), &mut back).unwrap();
        assert_eq!(back, bytes);
    }

    /// The decoder accepts hex digits and nothing else: no sign (which
    /// `u8::from_str_radix` took), no whitespace, and no multi-byte
    /// UTF-8 (which used to split a char and panic).
    #[test]
    fn hex_decoder_rejects_everything_but_hex_digits() {
        let mut dst = Vec::new();
        for (hex, want) in [
            ("aéb", HexError::BadDigit(1)),
            ("+a+b", HexError::BadDigit(0)),
            ("0a+b", HexError::BadDigit(2)),
            ("0a0g", HexError::BadDigit(3)),
            ("0a 0", HexError::BadDigit(2)),
            ("abc", HexError::OddLength),
        ] {
            assert_eq!(decode_hex(hex.as_bytes(), &mut dst), Err(want), "{hex}");
        }
        assert_eq!(HexError::BadDigit(1).to_string(), "bad hex at offset 1");
    }

    /// A string without escapes is a slice of the line — the restore
    /// path's megabyte of hex is never copied — and escapes still
    /// decode: quote, backslash, `\u`, and raw multi-byte UTF-8 beside
    /// them.
    #[test]
    fn strings_borrow_unless_escaped() {
        let v = parse_json(r#"{"checkpoint":"00ff"}"#).unwrap();
        assert!(matches!(
            v.get("checkpoint"),
            Some(Json::Str(Cow::Borrowed("00ff")))
        ));

        let v = parse_json(r#"["a\"b\\c\u00e9d", "é→\n", "\/\t", "日本"]"#).unwrap();
        let items = v.as_arr().unwrap();
        assert_eq!(items[0], Json::Str(Cow::Owned("a\"b\\céd".to_string())));
        assert_eq!(items[1], Json::Str(Cow::Owned("é→\n".to_string())));
        assert_eq!(items[2].as_str(), Some("/\t"));
        assert!(matches!(&items[3], Json::Str(Cow::Borrowed("日本"))));

        // Delimiters on either side of the 32-byte blocks the scan tests
        // at once.
        for n in [0, 1, 31, 32, 33, 95] {
            let run = "x".repeat(n);
            let line = format!(r#"["{run}", "{run}\\{run}"]"#);
            let v = parse_json(&line).unwrap();
            let items = v.as_arr().unwrap();
            assert_eq!(items[0].as_str(), Some(run.as_str()));
            assert_eq!(items[1].as_str(), Some(format!("{run}\\{run}").as_str()));
        }

        for (bad, why) in [
            (r#""abc"#, "unterminated string"),
            (r#""ab\"#, "unterminated escape"),
            (r#""\u00+9""#, "bad \\u escape"),
            (r#""\u00e""#, "bad \\u escape"),
            (r#""\ud800""#, "unsupported \\u codepoint"),
            (r#""\x""#, "bad escape"),
        ] {
            let err = parse_json(bad).expect_err(bad);
            assert!(err.contains(why), "{bad}: {err}");
        }
    }

    /// Integers are read exactly from their digits: 2^53 + 1 is not
    /// rounded to 2^53, and a value that does not fit its field, or
    /// overflows once scaled to nanoseconds, is an error rather than a
    /// wrapped or truncated number.
    #[test]
    fn integers_are_exact_and_range_checked() {
        assert_eq!(
            spec(r#"{"scenario":"case_a","seed":9007199254740993}"#)
                .unwrap()
                .seed,
            9_007_199_254_740_993
        );
        assert_eq!(
            spec(r#"{"scenario":"case_a","seed":18446744073709551615}"#)
                .unwrap()
                .seed,
            u64::MAX
        );
        for (bad, why) in [
            (
                r#"{"scenario":"case_a","seed":18446744073709551616}"#,
                r#""seed" out of range"#,
            ),
            (
                r#"{"scenario":"case_a","cascade_limit":4294967297}"#,
                r#""cascade_limit" out of range"#,
            ),
            (
                r#"{"scenario":"case_a","seed":1e3}"#,
                r#""seed" must be a non-negative integer"#,
            ),
        ] {
            assert_eq!(spec(bad).err().as_deref(), Some(why), "{bad}");
        }

        let mutation = |line: &str| parse_mutation(&parse_json(line).unwrap());
        assert_eq!(
            mutation(r#"{"kind":"purge_storm","ring":0,"count":4294967297}"#)
                .err()
                .as_deref(),
            Some(r#""count" out of range"#)
        );
        assert_eq!(
            mutation(r#"{"kind":"dma_stall","host":0,"extra_us":18446744073709552}"#)
                .err()
                .as_deref(),
            Some(r#""extra_us" out of range"#)
        );
        assert_eq!(
            mutation(r#"{"kind":"purge_storm","ring":0,"count":"3"}"#)
                .err()
                .as_deref(),
            Some(r#"mutation needs numeric "count""#)
        );
        assert!(matches!(
            mutation(r#"{"kind":"dma_stall","host":1,"extra_us":18446744073709551}"#),
            Ok(Mutation::DmaStall { host: 1, extra }) if extra.as_ns() == 18_446_744_073_709_551_000
        ));
    }

    /// Runs a whole session over `input` and returns its reply lines.
    fn session(input: &[u8]) -> Vec<String> {
        let mut out = Vec::new();
        serve(input, &mut out);
        String::from_utf8(out)
            .expect("replies are UTF-8")
            .lines()
            .map(str::to_string)
            .collect()
    }

    /// A chain whose build would pass the memory budget is refused
    /// before anything is built, and the session still starts on the
    /// next valid line. One-ring scenarios ignore both size keys.
    #[test]
    fn oversized_chains_are_refused_before_the_build() {
        let chain = |rings: usize, shards: usize| {
            spec(&format!(
                r#"{{"scenario":"chain","rings":{rings},"shards":{shards}}}"#
            ))
            .map(|s| (s.rings, s.shards))
        };
        // The largest one-shard chain fills the budget exactly.
        assert_eq!(chain_build_bytes(65_536, 1), BUILD_BUDGET_BYTES);
        for (rings, shards) in [(65_536, 1), (4_096, 256), (1_024, 1_024), (16, 50_000_000)] {
            assert_eq!(chain(rings, shards), Ok((rings, shards)));
        }
        for (rings, shards, key) in [
            (65_537, 1, "rings"),
            (50_000_000, 1, "rings"),
            (65_536, 2, "shards"),
            (4_096, 1_024, "shards"),
            (2_048, 2_048, "shards"),
        ] {
            assert_eq!(
                chain(rings, shards),
                Err(format!("\"{key}\" out of range")),
                "rings={rings} shards={shards}"
            );
        }
        let one_ring = spec(r#"{"scenario":"case_a","rings":50000000,"shards":50000000}"#);
        assert!(one_ring.is_ok(), "{:?}", one_ring.err());

        let replies = session(
            b"{\"scenario\":\"chain\",\"rings\":65537}\n\
              {\"scenario\":\"chain\",\"rings\":2}\n\
              {\"cmd\":\"quit\"}\n",
        );
        assert_eq!(replies.len(), 3, "{replies:#?}");
        assert_eq!(
            replies[0],
            r#"{"ok":false,"error":"bad session line: \"rings\" out of range"}"#
        );
        assert!(
            replies[1].starts_with(r#"{"ok":true,"event":"ready""#),
            "{}",
            replies[1]
        );
    }

    /// Yields `len` bytes of `x` on demand, then a newline: an
    /// over-long line that is never held in memory at once.
    struct LongLine {
        left: u64,
    }

    impl Read for LongLine {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.left == 0 {
                return Ok(0);
            }
            let n = buf
                .len()
                .min(usize::try_from(self.left).unwrap_or(usize::MAX));
            if n == 0 {
                return Ok(0);
            }
            buf[..n].fill(b'x');
            self.left -= n as u64;
            if self.left == 0 {
                buf[n - 1] = b'\n';
            }
            Ok(n)
        }
    }

    /// A line one byte past the cap gets exactly one typed reply, before
    /// and after the session line, and the session keeps serving; the
    /// line is read past, not buffered.
    #[test]
    fn over_long_lines_get_one_typed_reply() {
        let too_long = || LongLine {
            left: MAX_LINE_BYTES as u64 + 2,
        };
        let input = too_long()
            .chain(b"{\"scenario\":\"case_a\"}\n".as_slice())
            .chain(too_long())
            .chain(b"{\"cmd\":\"run\",\"until_ms\":5}\n{\"cmd\":\"quit\"}\n".as_slice());
        let mut out = Vec::new();
        serve(BufReader::new(input), &mut out);
        let replies: Vec<String> = String::from_utf8(out)
            .unwrap()
            .lines()
            .map(str::to_string)
            .collect();
        let cap = format!("longer than {MAX_LINE_BYTES} bytes");
        assert_eq!(replies.len(), 5, "{replies:#?}");
        assert_eq!(
            replies[0],
            format!("{{\"ok\":false,\"error\":\"bad session line: {cap}\"}}")
        );
        assert!(replies[1].starts_with(r#"{"ok":true,"event":"ready""#));
        assert_eq!(
            replies[2],
            format!("{{\"ok\":false,\"error\":\"bad command line: {cap}\"}}")
        );
        assert!(replies[3].starts_with(r#"{"ok":true,"event":"ran","now_ms":5,"#));
        assert_eq!(replies[4], r#"{"ok":true,"event":"bye"}"#);
    }

    /// A fork whose branches, each a one-shard build, would together
    /// pass the build budget is refused before any branch runs.
    #[test]
    fn fork_branch_counts_are_capped() {
        let case_a = spec(r#"{"scenario":"case_a"}"#).unwrap();
        assert_eq!(case_a.branch_bytes() * 512, BUILD_BUDGET_BYTES);
        let chain = spec(r#"{"scenario":"chain","rings":16,"shards":2}"#).unwrap();
        assert_eq!(chain.branch_bytes() * 4_096, BUILD_BUDGET_BYTES);
        let fork = |n: usize| {
            let branches = vec!["[]"; n].join(",");
            format!("{{\"cmd\":\"fork\",\"until_ms\":0,\"branches\":[{branches}]}}\n")
        };
        for (session_line, n) in [
            (r#"{"scenario":"case_a"}"#, 513),
            (r#"{"scenario":"chain","rings":16,"shards":2}"#, 4_097),
        ] {
            let input = format!("{session_line}\n{}{{\"cmd\":\"quit\"}}\n", fork(n));
            let replies = session(input.as_bytes());
            assert_eq!(replies.len(), 3, "{replies:#?}");
            assert_eq!(
                replies[1],
                r#"{"ok":false,"error":"\"branches\" out of range"}"#
            );
        }
    }

    /// `checkpoint_stream` cuts the `checkpoint` hex every 64 KiB of
    /// snapshot: on a chain whose image spans two slices, the `data`
    /// fields concatenate to the `checkpoint` hex, and that hex decodes
    /// to the library's image of the same bus.
    #[test]
    fn streamed_chunks_concatenate_to_the_checkpoint_hex() {
        let session_line = r#"{"scenario":"chain","rings":256,"shards":2}"#;
        let input = format!(
            "{session_line}\n{{\"cmd\":\"run\",\"until_ms\":20}}\n\
             {{\"cmd\":\"checkpoint\"}}\n{{\"cmd\":\"checkpoint_stream\"}}\n"
        );
        let replies = session(input.as_bytes());
        let field = |line: &str, key: &str| -> String {
            let reply = parse_json(line).expect("replies are JSON");
            reply
                .get(key)
                .and_then(Json::as_str)
                .expect(key)
                .to_string()
        };
        let hex = field(&replies[2], "checkpoint");
        let data: Vec<String> = replies[3..replies.len() - 1]
            .iter()
            .map(|line| field(line, "data"))
            .collect();
        assert!(data.len() >= 2, "{} hex digits in one slice", hex.len());
        assert_eq!(data.concat(), hex);
        assert!(replies[replies.len() - 1].contains(&format!(
            "\"event\":\"checkpoint_done\",\"chunks\":{},\"bytes\":{}",
            data.len(),
            hex.len() / 2
        )));

        let mut image = Vec::new();
        decode_hex(hex.as_bytes(), &mut image).expect("the reply is hex");
        let mut bus = spec(session_line).unwrap().build(2);
        bus.run_until(SimTime::from_ms(20));
        assert!(image == bus.checkpoint(), "the hex is not the bus's image");
    }

    /// Every non-blank line gets exactly one reply, including one that
    /// is not UTF-8 (it used to be dropped silently, stalling a
    /// closed-loop driver), and an overflowing time is refused instead
    /// of wrapping to a past instant; the session keeps serving.
    #[test]
    fn hostile_lines_each_get_one_typed_reply() {
        let mut input = b"\xff\n\n{\"scenario\":\"case_a\"}\n".to_vec();
        input.extend_from_slice(b"{\"cmd\":\"run\",\"until_ms\":5}\xff\n");
        for line in [
            r#"{"cmd":"run","until_ms":18446744073710}"#,
            r#"{"cmd":"run","until_ms":5,"step_ms":18446744073710}"#,
            r#"{"cmd":"run","until_ms":5,"step_ms":"1"}"#,
            r#"{"cmd":"fork","until_ms":18446744073710,"branches":[[]]}"#,
            r#"{"cmd":"restore","checkpoint":"aéb"}"#,
            r#"{"cmd":"restore","checkpoint":"+a+b"}"#,
            r#"{"cmd":"run","until_ms":5}"#,
            r#"{"cmd":"quit"}"#,
        ] {
            input.extend_from_slice(line.as_bytes());
            input.push(b'\n');
        }
        let replies = session(&input);
        let errors = [
            "bad session line: not UTF-8",
            "bad command line: not UTF-8",
            "\"until_ms\" out of range",
            "\"step_ms\" out of range",
            "\"step_ms\" must be a non-negative integer",
            "\"until_ms\" out of range",
            "bad hex at offset 1",
            "bad hex at offset 0",
        ];
        assert_eq!(replies.len(), errors.len() + 3, "{replies:#?}");
        assert_eq!(
            replies[0],
            format!("{{\"ok\":false,\"error\":\"{}\"}}", errors[0])
        );
        assert!(
            replies[1].starts_with("{\"ok\":true,\"event\":\"ready\""),
            "{}",
            replies[1]
        );
        for (reply, error) in replies[2..].iter().zip(&errors[1..]) {
            assert_eq!(
                *reply,
                format!("{{\"ok\":false,\"error\":{}}}", json_string(error))
            );
        }
        assert!(
            replies[9].starts_with("{\"ok\":true,\"event\":\"ran\",\"now_ms\":5,"),
            "{}",
            replies[9]
        );
        assert_eq!(replies[10], "{\"ok\":true,\"event\":\"bye\"}");
    }

    /// A read error ends the session instead of being retried forever.
    #[test]
    fn a_read_error_ends_the_session() {
        struct Broken;
        impl std::io::Read for Broken {
            fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("broken"))
            }
        }
        let mut out = Vec::new();
        serve(BufReader::new(Broken), &mut out);
        assert!(out.is_empty());

        let ready = b"{\"scenario\":\"case_a\"}\n".as_slice();
        serve(BufReader::new(ready.chain(Broken)), &mut out);
        let replies = String::from_utf8(out).unwrap();
        assert_eq!(replies.lines().count(), 1, "{replies}");
        assert!(
            replies.starts_with("{\"ok\":true,\"event\":\"ready\""),
            "{replies}"
        );
    }
}
