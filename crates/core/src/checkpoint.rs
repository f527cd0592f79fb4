//! Serializable simulation state: versioned checkpoints of a live bus,
//! byte-identical resume, and warm-start forking.
//!
//! A checkpoint captures **every** piece of dynamic run state — the
//! clock, each node's component state (rings, full host kernels,
//! bridges, background traffic), the RNG streams, the telemetry
//! event/phase history, and the router's measurement accumulators — in
//! one canonical byte stream behind a magic/version header. Raw
//! measurement samples are history, not state: a restored bus counts,
//! digests and bins from t = 0, and keeps samples (where its build keeps
//! any) only from the restore point on. Restore
//! rebuilds the identical topology from the same scenario description
//! and applies the stream in place, after which continuing the run is
//! indistinguishable from never having stopped: telemetry JSON and
//! edge-log digests are byte-identical (pinned by tier-1 tests).
//!
//! The format is *shard-agnostic*: bytes written by a 4-shard run
//! restore into a one-shard bus or a 2-shard one, because the harness
//! walks nodes in global registration order and the per-shard router
//! parts are merged canonically at persist time (see
//! `topology::persist_router_parts`).
//!
//! On top of plain resume sit two steering facilities:
//!
//! * [`Mutation`] — deterministic what-if perturbations applied at a
//!   restore point (station churn, purge storms, DMA stalls),
//! * [`fork`] — clone one checkpoint into N divergent continuations and
//!   run them concurrently on the persistent sweep pool.

use crate::topology::Bus;
use ctms_sim::{
    parallel_map, ChunkSink, ChunkedWriter, Dec, Dur, FramedWrite, PersistError, SimTime,
    UnitReader,
};
use ctms_tokenring::{Disturb, RingCmd};

/// Leading magic of every checkpoint stream.
pub const CHECKPOINT_MAGIC: [u8; 8] = *b"CTMSCKPT";

/// Current checkpoint format version. Bumped whenever any `Persist`
/// impl in the workspace changes its byte layout.
///
/// Version history:
///
/// * **1** — magic, version, dynamic state.
/// * **2** — a canonical topology signature (graph shape: slot kinds,
///   station→endpoint wiring, bridge port lists, host placement) sits
///   between the header and the dynamic state. Restore verifies it
///   against the receiving bus, so a snapshot can only land on a bus
///   built from the same graph description — at *any* shard count —
///   and a tree snapshot aimed at a mesh build fails loudly instead of
///   desynchronizing.
/// * **3** — the router chunk holds state, not history: per TAP its
///   capture, class and stream-order accumulators instead of every
///   capture record; per truth log its count, running FNV-1a digest
///   and first/last instant instead of every edge; per measurement
///   stream a count instead of every sample; plus the
///   presentation-gap histogram and the last folded presentation. A
///   snapshot's size no longer grows with simulated time.
pub const CHECKPOINT_VERSION: u32 = 3;

/// Header, topology signature, then the bus's dynamic state. The
/// header and signature close the first chunk together with the
/// harness prefix.
fn encode(bus: &Bus, w: &mut ChunkedWriter<'_>) -> Result<(), PersistError> {
    let enc = w.enc();
    for b in CHECKPOINT_MAGIC {
        enc.u8(b);
    }
    enc.u32(CHECKPOINT_VERSION);
    enc.bytes(&bus.topology_signature());
    bus.persist_state(w)
}

/// The in-memory image: the streamed encoding kept in one buffer.
fn image(bus: &Bus) -> Vec<u8> {
    let mut w = ChunkedWriter::image();
    encode(bus, &mut w).expect("an encode without a sink cannot fail");
    w.into_bytes()
}

/// The encoding through `sink`; returns `(payload_bytes, chunks)`.
fn stream(bus: &Bus, sink: &mut dyn ChunkSink) -> Result<(u64, u64), PersistError> {
    let mut w = ChunkedWriter::new(sink);
    encode(bus, &mut w)?;
    w.finish()
}

/// Verifies the header and the topology signature, applies the state,
/// and requires the encoding to end exactly there. The signature is
/// shard-agnostic — every shard's router holds the complete slot
/// table, so a 4-shard tree snapshot signs identically to the
/// one-shard build of the same tree.
fn decode(bus: &mut Bus, mut r: UnitReader<'_>) -> Result<(), PersistError> {
    let own = bus.topology_signature();
    r.unit(|dec| {
        open_header(dec)?;
        if dec.bytes()? != own {
            return Err(PersistError::mismatch(
                "checkpoint topology does not match this bus (different graph \
                 shape, station layout, or host placement)",
            ));
        }
        Ok(())
    })?;
    bus.restore_state(&mut r)?;
    r.finish()
}

fn open_header(dec: &mut Dec<'_>) -> Result<(), PersistError> {
    for expect in CHECKPOINT_MAGIC {
        if dec.u8()? != expect {
            return Err(PersistError::mismatch("not a CTMS checkpoint (bad magic)"));
        }
    }
    let version = dec.u32()?;
    if version != CHECKPOINT_VERSION {
        return Err(PersistError::mismatch(format!(
            "checkpoint version {version}, this build reads {CHECKPOINT_VERSION}"
        )));
    }
    Ok(())
}

impl Bus {
    /// Serializes the complete dynamic state behind a magic/version
    /// header — the same bytes at every shard count. Call at a run
    /// boundary — after [`Bus::try_run_until`] has returned.
    pub fn checkpoint(&self) -> Vec<u8> {
        image(self)
    }

    /// Applies a checkpoint onto this freshly built bus. The bus must
    /// have been built from the same topology description (same
    /// scenario, same seeds) at any shard count — the embedded graph
    /// signature is verified first, then node counts and kinds, and the
    /// whole stream must be consumed.
    pub fn restore_checkpoint(&mut self, bytes: &[u8]) -> Result<(), PersistError> {
        decode(self, UnitReader::image(bytes))
    }

    /// Streams the checkpoint through `sink` chunk by chunk. The chunk
    /// payloads concatenate to **exactly** the bytes of
    /// [`Bus::checkpoint`], but peak memory stays at one chunk buffer
    /// (~[`ctms_sim::STREAM_CHUNK`]) plus the largest single node
    /// encoding, instead of the whole snapshot. Returns
    /// `(payload_bytes, chunks)`.
    pub fn checkpoint_stream(&self, sink: &mut dyn ChunkSink) -> Result<(u64, u64), PersistError> {
        stream(self, sink)
    }

    /// Streams the checkpoint into `out` using the standard
    /// length-prefixed chunk framing ([`ctms_sim::FramedWrite`]).
    /// Returns `(payload_bytes, chunks)`.
    pub fn write_checkpoint(
        &self,
        out: &mut dyn std::io::Write,
    ) -> Result<(u64, u64), PersistError> {
        stream(self, &mut FramedWrite::new(out))
    }

    /// Restores from a stream written by [`Bus::write_checkpoint`],
    /// decoding chunk by chunk — the inverse bound: peak memory is one
    /// chunk, not the whole snapshot. A stream truncated mid-chunk or
    /// mid-state surfaces as a typed [`PersistError`], never a panic.
    pub fn read_checkpoint(&mut self, inp: &mut dyn std::io::Read) -> Result<(), PersistError> {
        decode(self, UnitReader::stream(inp))
    }
}

/// A deterministic perturbation applied at a restore point, before the
/// continued run — the steering hooks of the what-if workflow. Each
/// mutation maps onto an existing first-class disturbance of the model,
/// so a mutated continuation is exactly as reproducible as a plain run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Mutation {
    /// A station inserts into ring `ring`: the §4 insertion burst of
    /// Ring Purges ("primarily due to new stations inserting").
    StationChurn {
        /// Ring index (dense, from the topology build order).
        ring: usize,
    },
    /// `count` back-to-back soft-error purge sequences on ring `ring` —
    /// a purge storm.
    PurgeStorm {
        /// Ring index.
        ring: usize,
        /// Number of purge sequences injected.
        count: u32,
    },
    /// Every in-flight DMA on host `host` completes `extra` later, as
    /// if the bus arbiter had stalled the engines.
    DmaStall {
        /// Dense host index.
        host: usize,
        /// Extra completion delay.
        extra: Dur,
    },
}

/// Applies mutations in order at the current instant, in place at any
/// shard count, routing their fallout deterministically: the
/// continuation is the same at every shard count.
///
/// Errors use the checkpoint layer's [`PersistError`]. Every index is
/// checked before anything is applied, so an out-of-range mutation
/// leaves the bus untouched; a cascade overflow during fallout routing
/// poisons the bus.
pub fn apply_mutations(bus: &mut Bus, mutations: &[Mutation]) -> Result<(), PersistError> {
    for m in mutations {
        match *m {
            Mutation::StationChurn { ring } | Mutation::PurgeStorm { ring, .. }
                if ring >= bus.ring_count() =>
            {
                return Err(PersistError::mismatch(format!(
                    "mutation on unknown ring {ring} (topology has {})",
                    bus.ring_count()
                )));
            }
            Mutation::DmaStall { host, .. } if host >= bus.host_count() => {
                return Err(PersistError::mismatch(format!(
                    "DMA stall on unknown host {host} (topology has {})",
                    bus.host_count()
                )));
            }
            _ => {}
        }
    }
    for m in mutations {
        match *m {
            Mutation::StationChurn { ring } => {
                bus.inject_ring(ring, RingCmd::Disturb(Disturb::StationInsertion))
                    .map_err(|e| PersistError::mismatch(format!("station churn: {e}")))?;
            }
            Mutation::PurgeStorm { ring, count } => {
                for _ in 0..count {
                    bus.inject_ring(ring, RingCmd::Disturb(Disturb::SoftError))
                        .map_err(|e| PersistError::mismatch(format!("purge storm: {e}")))?;
                }
            }
            Mutation::DmaStall { host, extra } => {
                bus.host_mut(host).machine.delay_active_dmas(extra);
            }
        }
    }
    Ok(())
}

/// One divergent continuation of a forked checkpoint.
#[derive(Clone, Debug)]
pub struct ForkSpec {
    /// Mutations applied at the restore point, before running.
    pub mutations: Vec<Mutation>,
    /// Horizon the branch runs to (must be at or past the checkpoint
    /// instant).
    pub run_to: SimTime,
}

/// Warm-start forking: clones one checkpoint into `branches.len()`
/// divergent continuations and runs them concurrently on the
/// persistent sweep pool ([`ctms_sim::parallel_map`]).
///
/// Each branch rebuilds a fresh bus via `build` (same topology as the
/// checkpoint's origin, at any shard count), restores the shared
/// snapshot, applies its
/// [`ForkSpec::mutations`], runs to its horizon, and hands the finished
/// bus to `analyze`. Results come back in branch order, and each branch
/// is bit-deterministic — a branch re-run alone produces the same
/// answer it produced inside the fork.
///
/// An empty `mutations` list makes the branch a pure resume, which is
/// how the equivalence tests pin "forked continuation ≡ uninterrupted
/// run".
pub fn fork<R, B, A>(
    checkpoint: Vec<u8>,
    branches: Vec<ForkSpec>,
    threads: usize,
    build: B,
    analyze: A,
) -> Result<Vec<R>, PersistError>
where
    R: Send + 'static,
    B: Fn() -> Bus + Send + Sync + 'static,
    A: Fn(usize, Bus) -> R + Send + Sync + 'static,
{
    let items: Vec<(usize, ForkSpec)> = branches.into_iter().enumerate().collect();
    let results: Vec<Result<R, PersistError>> = parallel_map(items, threads, move |(idx, spec)| {
        let mut bus = build();
        bus.restore_checkpoint(&checkpoint)?;
        apply_mutations(&mut bus, &spec.mutations)?;
        bus.try_run_until(spec.run_to)
            .map_err(|e| PersistError::mismatch(format!("fork branch {idx}: {e}")))?;
        Ok(analyze(idx, bus))
    });
    results.into_iter().collect()
}
