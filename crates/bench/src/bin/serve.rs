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
//! `seed` defaults to 42; `rings` (chain only) to 16; `shards` to 1
//! (single-threaded). Single-ring scenarios always fall back to the
//! single-threaded harness regardless of `shards`, mirroring
//! `Topology::build_sharded`. `cascade_limit` overrides the
//! same-instant cascade bound — mostly useful for deliberately
//! tripping the typed error path. Every number must be a non-negative
//! integer; an unknown key or a value of the wrong type rejects the
//! line with a `bad session line` error rather than falling back to a
//! default.
//!
//! ## Commands
//!
//! ```text
//! {"cmd":"run","until_ms":N,"step_ms":M}   run to N ms; with step_ms,
//!                                          emit a progress event per
//!                                          bounded step (streaming)
//! {"cmd":"telemetry"}                      full canonical metric tree
//! {"cmd":"checkpoint"}                     serialize state as hex
//! {"cmd":"checkpoint_stream"}              the same bytes as a stream
//!                                          of chunk events (bounded
//!                                          peak memory): one
//!                                          checkpoint_chunk line per
//!                                          chunk, then checkpoint_done;
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
//!                                          per mutation list on the
//!                                          sweep pool, report each
//!                                          branch's outcome
//! {"cmd":"quit"}                           exit
//! ```
//!
//! Mutations: `{"kind":"station_churn","ring":0}`,
//! `{"kind":"purge_storm","ring":0,"count":3}`,
//! `{"kind":"dma_stall","host":0,"extra_us":500}`. Only the
//! single-threaded bus can inject (like `Bus::inject_ring`), so a
//! sharded session steers through the shard-agnostic snapshot round
//! trip: checkpoint → apply the mutations on a single-threaded rebuild
//! → restore the mutated state into a fresh sharded build. The
//! continuation is bit-identical to steering the same state
//! single-threaded.
//!
//! Every reply carries `"ok"`; failures are reported as
//! `{"ok":false,"error":"..."}` and the session keeps serving.
//! Scheduling failures carry a machine-readable tag alongside the
//! prose: `{"ok":false,"kind":"overflow"|"cross_shard","at_ns":N,
//! "error":"..."}` — one kind per `CascadeError` variant. The
//! simulation is deterministic throughout: the same command script
//! against the same session line produces byte-identical stdout.

use ctms_core::{
    apply_mutations, fork, Bus, ForkSpec, Mutation, RingChainTestbed, Scenario, ShardedBus, Testbed,
};
use ctms_router::BridgeKind;
use ctms_sim::telemetry::{fnv1a, json_string};
use ctms_sim::{ChunkSink, Dur, PersistError, SimTime};
use std::io::{BufRead, Write};

// --- Minimal JSON ---------------------------------------------------------
//
// The workspace deliberately has no serde dependency (PERSIST is a
// hand-rolled canonical format for the same reason); the command
// protocol is small enough for a ~100-line recursive-descent parser.

#[derive(Clone, Debug, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Deepest array/object nesting a line may carry. Protocol lines nest
/// at most 4 deep (a `fork` line: command object, branch list, one
/// branch, one mutation); the cap keeps a hostile line from exhausting
/// the stack of the recursive parser.
const MAX_DEPTH: usize = 16;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

fn parse_json(s: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing bytes at offset {}", p.pos));
    }
    Ok(v)
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.skip_ws();
        self.bytes
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

    fn value(&mut self) -> Result<Json, String> {
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

    fn keyword(&mut self, word: &str, v: Json) -> Result<Json, String> {
        self.skip_ws();
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad keyword at offset {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        self.skip_ws();
        let start = self.pos;
        while let Some(&b) = self.bytes.get(self.pos) {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("bad number at offset {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let b = *self
                .bytes
                .get(self.pos)
                .ok_or("unterminated string".to_string())?;
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = *self
                        .bytes
                        .get(self.pos)
                        .ok_or("unterminated escape".to_string())?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or("bad \\u escape".to_string())?;
                            self.pos += 4;
                            out.push(
                                char::from_u32(hex)
                                    .ok_or("unsupported \\u codepoint".to_string())?,
                            );
                        }
                        other => return Err(format!("bad escape '\\{}'", other as char)),
                    }
                }
                _ => {
                    // Multi-byte UTF-8 passes through untouched; the
                    // input line was already validated as UTF-8.
                    out.push(b as char);
                    if b >= 0x80 {
                        // Re-take the full scalar from the source.
                        out.pop();
                        let start = self.pos - 1;
                        let s = std::str::from_utf8(&self.bytes[start..])
                            .map_err(|_| "bad utf-8".to_string())?;
                        let c = s.chars().next().ok_or("bad utf-8".to_string())?;
                        out.push(c);
                        self.pos = start + c.len_utf8();
                    }
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
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

    fn object(&mut self) -> Result<Json, String> {
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

// --- Hex checkpoints ------------------------------------------------------

fn push_hex(dst: &mut String, bytes: &[u8]) {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    dst.reserve(bytes.len() * 2);
    for &b in bytes {
        dst.push(DIGITS[(b >> 4) as usize] as char);
        dst.push(DIGITS[(b & 0xF) as usize] as char);
    }
}

/// Streams a checkpoint's hex onto an open reply line, one chunk at a
/// time: peak memory is one chunk's hex, not snapshot-plus-full-hex
/// (the monolithic `to_hex` reply doubled the peak). The caller writes
/// the JSON prefix and suffix around it.
struct HexLineSink<'a, W: Write> {
    out: &'a mut W,
    hex: String,
}

impl<W: Write> ChunkSink for HexLineSink<'_, W> {
    fn chunk(&mut self, bytes: &[u8]) -> Result<(), PersistError> {
        self.hex.clear();
        push_hex(&mut self.hex, bytes);
        write_or_exit(self.out, self.hex.as_bytes());
        Ok(())
    }
}

/// Emits each chunk as its own `checkpoint_chunk` reply line; the
/// caller follows up with the `checkpoint_done` summary. Concatenating
/// every `data` field reproduces the monolithic checkpoint hex.
struct ChunkEventSink<'a, W: Write> {
    out: &'a mut W,
    hex: String,
    seq: u64,
}

impl<W: Write> ChunkSink for ChunkEventSink<'_, W> {
    fn chunk(&mut self, bytes: &[u8]) -> Result<(), PersistError> {
        self.hex.clear();
        push_hex(&mut self.hex, bytes);
        let line = format!(
            "{{\"ok\":true,\"event\":\"checkpoint_chunk\",\"seq\":{},\"data\":\"{}\"}}\n",
            self.seq, self.hex
        );
        write_or_exit(self.out, line.as_bytes());
        self.seq += 1;
        Ok(())
    }
}

/// Writes raw bytes onto the reply stream with the same broken-pipe
/// policy as [`emit`]: if the driver went away, exit quietly.
fn write_or_exit(out: &mut impl Write, bytes: &[u8]) {
    if out.write_all(bytes).is_err() {
        std::process::exit(0);
    }
}

fn from_hex(s: &str) -> Result<Vec<u8>, String> {
    if !s.len().is_multiple_of(2) {
        return Err("hex checkpoint has odd length".to_string());
    }
    (0..s.len() / 2)
        .map(|i| {
            u8::from_str_radix(&s[2 * i..2 * i + 2], 16)
                .map_err(|_| format!("bad hex at offset {}", 2 * i))
        })
        .collect()
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

/// Every key a session line may carry.
const SESSION_KEYS: [&str; 5] = ["scenario", "seed", "rings", "shards", "cascade_limit"];

impl Spec {
    fn parse(v: &Json) -> Result<Spec, String> {
        let Json::Obj(entries) = v else {
            return Err("session line must be a JSON object".to_string());
        };
        if let Some((key, _)) = entries
            .iter()
            .find(|(k, _)| !SESSION_KEYS.contains(&k.as_str()))
        {
            return Err(format!("unknown key \"{key}\""));
        }
        // A present key must hold a non-negative integer; only an absent
        // one falls back to its default.
        let num = |key: &str| {
            v.get(key)
                .map(|n| {
                    n.as_u64()
                        .ok_or_else(|| format!("\"{key}\" must be a non-negative integer"))
                })
                .transpose()
        };
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
        let rings = num("rings")?.unwrap_or(16) as usize;
        if matches!(kind, ScenarioKind::Chain) && rings < 2 {
            return Err("chain needs rings >= 2".to_string());
        }
        Ok(Spec {
            kind,
            seed: num("seed")?.unwrap_or(42),
            rings,
            shards: num("shards")?.unwrap_or(1) as usize,
            cascade_limit: num("cascade_limit")?.map(|n| n.max(1) as u32),
        })
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

    fn build(&self) -> ShardedBus {
        let sc = self.scenario();
        match self.kind {
            ScenarioKind::CaseA | ScenarioKind::CaseB => {
                if self.shards > 1 {
                    Testbed::ctms_sharded(&sc, self.shards).0
                } else {
                    ShardedBus::Single(Testbed::ctms(&sc).into_bus())
                }
            }
            ScenarioKind::Chain => {
                let kind = BridgeKind::cut_through_bridge();
                if self.shards > 1 {
                    RingChainTestbed::chain_sharded(&sc, kind, self.rings, self.shards).into_bus()
                } else {
                    ShardedBus::Single(RingChainTestbed::chain(&sc, kind, self.rings).into_bus())
                }
            }
        }
    }

    /// The single-threaded rebuild fork branches run on (checkpoints
    /// are shard-agnostic, so this restores snapshots from any mode).
    fn build_single(&self) -> Bus {
        let sc = self.scenario();
        match self.kind {
            ScenarioKind::CaseA | ScenarioKind::CaseB => Testbed::ctms(&sc).into_bus(),
            ScenarioKind::Chain => {
                RingChainTestbed::chain(&sc, BridgeKind::cut_through_bridge(), self.rings)
                    .into_bus()
            }
        }
    }
}

fn parse_mutation(v: &Json) -> Result<Mutation, String> {
    let need = |key: &str| {
        v.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("mutation needs numeric \"{key}\""))
    };
    match v
        .get("kind")
        .and_then(Json::as_str)
        .ok_or("mutation needs \"kind\"")?
    {
        "station_churn" => Ok(Mutation::StationChurn {
            ring: need("ring")? as usize,
        }),
        "purge_storm" => Ok(Mutation::PurgeStorm {
            ring: need("ring")? as usize,
            count: need("count")? as u32,
        }),
        "dma_stall" => Ok(Mutation::DmaStall {
            host: need("host")? as usize,
            extra: Dur::from_us(need("extra_us")?),
        }),
        other => Err(format!("unknown mutation kind \"{other}\"")),
    }
}

fn parse_mutations(v: &Json) -> Result<Vec<Mutation>, String> {
    v.as_arr()
        .ok_or("\"mutations\" must be an array".to_string())?
        .iter()
        .map(parse_mutation)
        .collect()
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

fn status_line(bus: &ShardedBus) -> String {
    let presented: usize = bus
        .measure_parts()
        .iter()
        .map(|m| m.presented().len())
        .sum();
    let purges: usize = bus
        .measure_parts()
        .iter()
        .map(|m| m.purge_starts().len())
        .sum();
    format!(
        "\"now_ms\":{},\"events\":{},\"presented\":{presented},\"purge_starts\":{purges}",
        bus.now().as_ns() / 1_000_000,
        bus.events()
    )
}

// --- Main loop ------------------------------------------------------------

fn main() {
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let mut lines = stdin.lock().lines().filter_map(|l| {
        let l = l.ok()?;
        let t = l.trim().to_string();
        (!t.is_empty()).then_some(t)
    });

    let spec = loop {
        let Some(line) = lines.next() else {
            return; // EOF before a session line: nothing to do.
        };
        match parse_json(&line).and_then(|v| Spec::parse(&v)) {
            Ok(spec) => break spec,
            Err(e) => emit_err(&mut out, &format!("bad session line: {e}")),
        }
    };
    let mut bus = spec.build();
    emit(
        &mut out,
        &format!(
            "{{\"ok\":true,\"event\":\"ready\",\"shards\":{},{}}}",
            bus.shard_count(),
            status_line(&bus)
        ),
    );

    for line in lines {
        let cmd = match parse_json(&line) {
            Ok(v) => v,
            Err(e) => {
                emit_err(&mut out, &format!("bad command line: {e}"));
                continue;
            }
        };
        match cmd.get("cmd").and_then(Json::as_str) {
            Some("run") => {
                let Some(until_ms) = cmd.get("until_ms").and_then(Json::as_u64) else {
                    emit_err(&mut out, "run needs numeric \"until_ms\"");
                    continue;
                };
                let until = SimTime::from_ms(until_ms);
                if until < bus.now() {
                    emit_err(&mut out, "\"until_ms\" is in the simulated past");
                    continue;
                }
                let step = cmd.get("step_ms").and_then(Json::as_u64).filter(|&s| s > 0);
                let mut failed = false;
                while bus.now() < until {
                    let next = match step {
                        Some(ms) => {
                            let stepped = SimTime::from_ns(bus.now().as_ns() + ms * 1_000_000);
                            if stepped < until {
                                stepped
                            } else {
                                until
                            }
                        }
                        None => until,
                    };
                    if let Err(e) = bus.try_run_until(next) {
                        emit_cascade_err(&mut out, &e);
                        failed = true;
                        break;
                    }
                    if step.is_some() && bus.now() < until {
                        emit(
                            &mut out,
                            &format!(
                                "{{\"ok\":true,\"event\":\"progress\",{}}}",
                                status_line(&bus)
                            ),
                        );
                    }
                }
                if !failed {
                    emit(
                        &mut out,
                        &format!("{{\"ok\":true,\"event\":\"ran\",{}}}", status_line(&bus)),
                    );
                }
            }
            Some("telemetry") => {
                // The canonical tree is pretty-printed; collapse it to
                // one line so the reply stays a single stdout record.
                // Safe because the emitter escapes every control
                // character inside strings — no literal newlines exist.
                let tree: String = bus.telemetry_json().lines().map(str::trim_start).collect();
                emit(&mut out, &format!("{{\"ok\":true,\"telemetry\":{tree}}}"));
            }
            Some("checkpoint") => {
                // The hex streams straight onto the reply line chunk by
                // chunk; `bytes` (known only at the end) follows the hex.
                write_or_exit(&mut out, b"{\"ok\":true,\"checkpoint\":\"");
                let mut sink = HexLineSink {
                    out: &mut out,
                    hex: String::new(),
                };
                let (payload, _) = bus
                    .checkpoint_stream(&mut sink)
                    .expect("in-memory persist cannot fail");
                write_or_exit(&mut out, format!("\",\"bytes\":{payload}}}\n").as_bytes());
                let _ = out.flush();
            }
            Some("checkpoint_stream") => {
                let mut sink = ChunkEventSink {
                    out: &mut out,
                    hex: String::new(),
                    seq: 0,
                };
                let (payload, chunks) = bus
                    .checkpoint_stream(&mut sink)
                    .expect("in-memory persist cannot fail");
                emit(
                    &mut out,
                    &format!(
                        "{{\"ok\":true,\"event\":\"checkpoint_done\",\"chunks\":{chunks},\"bytes\":{payload}}}"
                    ),
                );
            }
            Some("restore") => {
                let Some(hex) = cmd.get("checkpoint").and_then(Json::as_str) else {
                    emit_err(&mut out, "restore needs \"checkpoint\" hex");
                    continue;
                };
                let snapshot = match from_hex(hex) {
                    Ok(b) => b,
                    Err(e) => {
                        emit_err(&mut out, &e);
                        continue;
                    }
                };
                // Restore lands on a fresh rebuild; the old bus is only
                // replaced once the snapshot is verified applicable.
                let mut fresh = spec.build();
                match fresh.restore_checkpoint(&snapshot) {
                    Ok(()) => {
                        bus = fresh;
                        emit(
                            &mut out,
                            &format!(
                                "{{\"ok\":true,\"event\":\"restored\",{}}}",
                                status_line(&bus)
                            ),
                        );
                    }
                    Err(e) => emit_err(&mut out, &format!("restore failed: {e}")),
                }
            }
            Some("steer") => {
                let Some(muts) = cmd.get("mutations") else {
                    emit_err(&mut out, "steer needs \"mutations\"");
                    continue;
                };
                let muts = match parse_mutations(muts) {
                    Ok(m) => m,
                    Err(e) => {
                        emit_err(&mut out, &e);
                        continue;
                    }
                };
                let steered = match bus.as_single_mut() {
                    Some(single) => apply_mutations(single, &muts),
                    None => {
                        // Sharded session: only the single-threaded bus
                        // can inject, so steer through the shard-agnostic
                        // snapshot round trip — checkpoint here, mutate
                        // on a single-threaded rebuild, restore the
                        // mutated state into a fresh sharded build.
                        let snapshot = bus.checkpoint();
                        let mut single = spec.build_single();
                        single
                            .restore_checkpoint(&snapshot)
                            .and_then(|()| apply_mutations(&mut single, &muts))
                            .and_then(|()| {
                                let mutated = single.checkpoint();
                                let mut fresh = spec.build();
                                fresh.restore_checkpoint(&mutated).map(|()| {
                                    bus = fresh;
                                })
                            })
                    }
                };
                match steered {
                    Ok(()) => emit(
                        &mut out,
                        &format!(
                            "{{\"ok\":true,\"event\":\"steered\",\"applied\":{},{}}}",
                            muts.len(),
                            status_line(&bus)
                        ),
                    ),
                    Err(e) => emit_err(&mut out, &format!("steer failed: {e}")),
                }
            }
            Some("fork") => {
                let Some(until_ms) = cmd.get("until_ms").and_then(Json::as_u64) else {
                    emit_err(&mut out, "fork needs numeric \"until_ms\"");
                    continue;
                };
                let run_to = SimTime::from_ms(until_ms);
                if run_to < bus.now() {
                    emit_err(&mut out, "\"until_ms\" is in the simulated past");
                    continue;
                }
                let branches: Result<Vec<ForkSpec>, String> =
                    match cmd.get("branches").and_then(Json::as_arr) {
                        Some(lists) if !lists.is_empty() => lists
                            .iter()
                            .map(|l| {
                                Ok(ForkSpec {
                                    mutations: parse_mutations(l)?,
                                    run_to,
                                })
                            })
                            .collect(),
                        _ => Err(
                            "fork needs a non-empty \"branches\" array of mutation lists"
                                .to_string(),
                        ),
                    };
                let branches = match branches {
                    Ok(b) => b,
                    Err(e) => {
                        emit_err(&mut out, &e);
                        continue;
                    }
                };
                let n = branches.len();
                let snapshot = bus.checkpoint();
                let build_spec = spec.clone();
                let result = fork(
                    snapshot,
                    branches,
                    ctms_sim::default_threads(n),
                    move || build_spec.build_single(),
                    |_idx, mut branch: Bus| {
                        let tree = branch.telemetry_json();
                        let m = branch.measurements();
                        format!(
                            "{{\"telemetry_digest\":\"{:#018X}\",\"now_ms\":{},\"events\":{},\
                             \"presented\":{},\"purge_starts\":{},\"drops\":{}}}",
                            fnv1a(tree.as_bytes()),
                            branch.now().as_ns() / 1_000_000,
                            branch.events(),
                            m.presented().len(),
                            m.purge_starts().len(),
                            m.drops().len()
                        )
                    },
                );
                match result {
                    Ok(summaries) => emit(
                        &mut out,
                        &format!(
                            "{{\"ok\":true,\"event\":\"forked\",\"branches\":[{}]}}",
                            summaries.join(",")
                        ),
                    ),
                    Err(e) => emit_err(&mut out, &format!("fork failed: {e}")),
                }
            }
            Some("quit") => {
                emit(&mut out, "{\"ok\":true,\"event\":\"bye\"}");
                return;
            }
            Some(other) => emit_err(&mut out, &format!("unknown command \"{other}\"")),
            None => emit_err(&mut out, "command needs a \"cmd\" string"),
        }
    }
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
        assert_eq!(parse_mutations(branch).map(|m| m.len()), Ok(1));
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
}
