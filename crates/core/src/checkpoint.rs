//! Serializable simulation state: versioned checkpoints of a live bus,
//! byte-identical resume, and warm-start forking.
//!
//! A checkpoint captures **every** piece of dynamic run state — the
//! clock, each node's component state (rings, full host kernels,
//! bridges, background traffic), the RNG streams, the telemetry
//! event/phase history, and the router's measurement accumulators — in
//! one canonical byte image behind a magic/version header, encoded into
//! one `Enc` and decoded from one `Dec`. Raw
//! measurement samples are history, not state: a restored bus counts,
//! digests and bins from t = 0, and keeps samples (where its build keeps
//! any) only from the restore point on. Restore
//! rebuilds the identical topology from the same scenario description
//! and applies the image in place, after which continuing the run is
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
//!   run them concurrently on scoped sweep threads.

use crate::topology::Bus;
use ctms_sim::{parallel_map, Dec, Dur, Enc, PersistError, SimTime};
use ctms_tokenring::{Disturb, RingCmd};

/// Leading magic of every checkpoint image.
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
/// * **3** — the router section holds state, not history: per TAP its
///   capture, class and stream-order accumulators instead of every
///   capture record; per truth log its count, running FNV-1a digest
///   and first/last instant instead of every edge; per measurement
///   stream a count instead of every sample; plus the
///   presentation-gap histogram and the last folded presentation. A
///   snapshot's size no longer grows with simulated time.
pub const CHECKPOINT_VERSION: u32 = 3;

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
    /// header and the topology signature — the same bytes at every
    /// shard count. Call at a run boundary — after
    /// [`Bus::try_run_until`] has returned.
    pub fn checkpoint(&self) -> Vec<u8> {
        let mut enc = Enc::new();
        for b in CHECKPOINT_MAGIC {
            enc.u8(b);
        }
        enc.u32(CHECKPOINT_VERSION);
        enc.bytes(&self.topology_signature());
        self.persist_state(&mut enc);
        enc.into_bytes()
    }

    /// Applies a checkpoint onto this freshly built bus. The bus must
    /// have been built from the same topology description (same
    /// scenario, same seeds) at any shard count — the embedded graph
    /// signature is verified first, then node counts and kinds, and the
    /// whole image must be consumed. A truncated image is
    /// [`PersistError::UnexpectedEof`], never a panic.
    ///
    /// The signature is shard-agnostic — every shard's router holds the
    /// complete slot table, so a 4-shard tree snapshot signs
    /// identically to the one-shard build of the same tree.
    pub fn restore_checkpoint(&mut self, bytes: &[u8]) -> Result<(), PersistError> {
        let mut dec = Dec::new(bytes);
        open_header(&mut dec)?;
        if dec.bytes()? != self.topology_signature() {
            return Err(PersistError::mismatch(
                "checkpoint topology does not match this bus (different graph \
                 shape, station layout, or host placement)",
            ));
        }
        self.restore_state(&mut dec)?;
        dec.finish()
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
/// divergent continuations and runs them concurrently on scoped sweep
/// threads ([`ctms_sim::parallel_map`]).
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
    R: Send,
    B: Fn() -> Bus + Sync,
    A: Fn(usize, Bus) -> R + Sync,
{
    let items: Vec<(usize, ForkSpec)> = branches.into_iter().enumerate().collect();
    let results: Vec<Result<R, PersistError>> = parallel_map(items, threads, |(idx, spec)| {
        let mut bus = build();
        bus.restore_checkpoint(&checkpoint)?;
        apply_mutations(&mut bus, &spec.mutations)?;
        bus.try_run_until(spec.run_to)
            .map_err(|e| PersistError::mismatch(format!("fork branch {idx}: {e}")))?;
        Ok(analyze(idx, bus))
    });
    results.into_iter().collect()
}
