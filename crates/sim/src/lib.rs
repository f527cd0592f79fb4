//! # ctms-sim — discrete-event simulation engine
//!
//! Foundation for the reproduction of *"Distributed Multimedia: How Can the
//! Necessary Data Rates be Supported?"* (Pasieka, Crumley, Marks, Infortuna;
//! USENIX 1991). The paper measured a physical prototype — IBM RT/PCs on a
//! 4 Mbit Token Ring with a modified AOS 4.3 kernel. This workspace rebuilds
//! that prototype as a deterministic discrete-event simulation; this crate
//! provides the shared substrate:
//!
//! * [`time`] — nanosecond-resolution simulation clock types,
//! * [`rng`] — deterministic, stream-splittable random numbers,
//! * [`engine`] — the [`engine::Component`] state-machine protocol and a
//!   closure-based [`engine::EventLoop`] for tests,
//! * [`bus`] — the generic scheduler/event-bus ([`bus::Harness`]): a
//!   [`bus::NodeId`]-addressable registry, a central deadline scheduler
//!   with deterministic tie-breaking, and typed routing via [`bus::Router`],
//! * [`heap`] — the indexed d-ary min-heap behind the scheduler
//!   (update-key per node, no stale entries, allocation-free stepping),
//! * [`shard`] — the conservative parallel scheduler
//!   ([`shard::ShardedHarness`]): per-shard deadline heaps on the sweep
//!   pool, per-shard windows bounded by an influence fixpoint over the
//!   cut-edge lookaheads, and deterministic cross-shard mailboxes that
//!   only sync-class nodes may post to — bit-identical to the
//!   single-threaded harness by construction,
//! * [`synth`] — synthetic allocation-free workloads for the perf
//!   harness and the zero-allocation steady-state test,
//! * [`persist`] — canonical binary state serialization ([`persist::Persist`])
//!   for checkpoint/restore with byte-identical resume,
//! * [`sweep`] — a `std::thread` fan-out for independent simulations with
//!   results returned in sequential order,
//! * [`trace`] — ground-truth signal edge logs for the measurement points,
//! * [`telemetry`] — the workspace-wide deterministic metrics registry
//!   (counters, gauges, fixed-bin histograms, edge-signal events) with
//!   canonical, byte-stable JSON serialization.

#[cfg(feature = "alloc-count")]
pub mod alloc_count;
pub mod bus;
pub mod engine;
pub mod heap;
pub mod persist;
pub mod rng;
pub mod shard;
pub mod sweep;
pub mod synth;
pub mod telemetry;
pub mod time;
pub mod trace;

pub use bus::{CascadeError, CmdSink, Harness, NodeId, Router, DEFAULT_CASCADE_LIMIT};
pub use engine::{drain_component, earliest, CascadeGuard, Component, EventLoop};
pub use heap::IndexedHeap;
pub use persist::{
    decode_new, ChunkSink, ChunkedReader, ChunkedWriter, Dec, Enc, FramedWrite, Persist,
    PersistError, STREAM_CHUNK,
};
pub use rng::{Pcg32, SplitMix64};
pub use shard::{merge_mail, MailKey, MergeTelemetry, ShardStats, ShardedHarness};
pub use sweep::{default_threads, parallel_map};
pub use telemetry::{Instrument, Registry};
pub use time::{Dur, SimTime};
pub use trace::{Edge, EdgeLog};
