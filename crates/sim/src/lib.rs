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
//! * [`engine`] — the [`engine::Component`] state-machine protocol and
//!   the [`engine::Sink`] its outputs go into,
//! * [`bus`] — the event-bus vocabulary: [`bus::NodeId`]-addressable
//!   nodes, typed routing via [`bus::Router`], and the typed
//!   [`bus::CascadeError`],
//! * [`heap`] — the indexed d-ary min-heap behind the scheduler
//!   (update-key per node, no stale entries, allocation-free stepping),
//! * [`shard`] — the scheduler ([`shard::Harness`]): per-shard deadline
//!   heaps with deterministic tie-breaking, per-shard windows bounded
//!   by an influence fixpoint over the cut-edge lookaheads and a
//!   runahead span, fat windows on long-lived shard workers, and
//!   deterministic cross-shard mailboxes that only sync-class nodes may
//!   post to — the same answer at every shard count by construction,
//! * [`synth`] — synthetic allocation-free workloads for the
//!   zero-allocation steady-state tests and the shard parity tests,
//! * [`persist`] — canonical binary state serialization ([`persist::Persist`])
//!   for checkpoint/restore with byte-identical resume,
//! * [`sweep`] — a `std::thread` fan-out for independent simulations with
//!   results returned in sequential order,
//! * [`trace`] — ground-truth signal edge logs for the measurement points,
//! * [`telemetry`] — the workspace-wide deterministic metrics registry
//!   (counters, gauges, fixed-bin histograms, edge-signal events) with
//!   canonical, byte-stable JSON serialization,
//! * [`alloc_count`] — a counting global allocator for the
//!   zero-allocation steady-state tests.

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

pub use bus::{CascadeError, CmdSink, NodeId, Router, DEFAULT_CASCADE_LIMIT};
pub use engine::{drain_component, earliest, CascadeGuard, Component, Sink};
pub use heap::IndexedHeap;
pub use persist::{decode_new, Dec, Enc, Persist, PersistError};
pub use rng::{Pcg32, SplitMix64};
pub use shard::{merge_mail, Harness, Label, MailKey, MergeTelemetry, ShardStats};
pub use sweep::{default_threads, parallel_map};
pub use telemetry::{Instrument, Registry};
pub use time::{Dur, SimTime};
pub use trace::{Edge, EdgeLog, History, Packed, Samples};
