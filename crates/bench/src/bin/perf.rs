//! `perf` — scheduler hot-path benchmark for the CTMS testbed.
//!
//! ```text
//! perf [--quick] [--seed N] [--json PATH] [--compare PATH]
//!      [--shards N] [--rings N] [--threads N] [--scale]
//!      [--topology SHAPE[:RINGS]]...
//!
//! --quick        short simulated horizon and a single repetition
//!                (CI smoke size) instead of the full measurement
//! --seed N       simulation seed (default 42)
//! --json PATH    write the machine-readable benchmark report
//!                (the checked-in BENCH_PR4.json / BENCH_PR5.json /
//!                BENCH_PR7.json are produced this way)
//! --compare PATH report-only comparison against a previously written
//!                report; never fails, prints current vs recorded
//! --shards N     also benchmark the conservative-parallel sharded
//!                scheduler on the N-ring chain, sweeping power-of-two
//!                shard counts up to N
//! --rings N      chain length for --shards and default ring count for
//!                --topology (default 128)
//! --threads N    worker threads per sharded run (default: hardware
//!                parallelism capped at the shard count; at 1 the
//!                windows run inline, measuring pure protocol overhead)
//! --topology SHAPE[:RINGS]
//!                also benchmark a generated graph topology — one of
//!                chain, tree, mesh, fddi — single-threaded and at
//!                power-of-two shard counts up to --shards (default 4).
//!                Repeatable; an optional :RINGS overrides --rings per
//!                shape (e.g. --topology tree:1024 --topology fddi:32)
//! --scale        run the city-scale capacity section: build a large
//!                tree topology (10³ and 10⁴ rings; smaller with
//!                --quick), recording build wall-time, peak build
//!                allocation bytes (with --features alloc-count),
//!                events/sec to a scaled horizon, and streamed
//!                checkpoint write/read throughput — with the streamed
//!                bytes asserted identical to the monolithic snapshot
//!                and round-tripped at 1/2/4 shards before any timing
//!                is reported
//! ```
//!
//! The binary runs test cases A and B to a fixed simulated horizon on
//! the indexed scheduler and reports events/sec, with every repetition
//! asserted to reproduce the same edge-log digests and event count.
//!
//! With `--shards N` it additionally runs the scaled ring-chain scenario
//! on the single-threaded scheduler (the ground truth and the baseline)
//! and on the sharded conservative-parallel scheduler at each swept
//! shard count, reporting each configuration's protocol-efficiency
//! counters (windows, sync instants, mailbox rounds, idle-window
//! fraction). Per configuration, edge-log digests and event counts must
//! match the single-threaded run before the wall clock is reported, so
//! a speedup can never come from simulating something different.
//!
//! When built with `--features alloc-count` the counting global
//! allocator is installed and a steady-state window on the synthetic
//! allocation-free ring (`ctms_sim::synth`) measures allocations/event,
//! which must come out at exactly zero.

use ctms_core::{RingChainTestbed, RingGraph, Scenario, Testbed};
use ctms_router::BridgeKind;
use ctms_sim::telemetry::{json_f64, json_string};
use ctms_sim::SimTime;
use ctms_unixkern::MeasurePoint;

#[cfg(feature = "alloc-count")]
#[global_allocator]
static ALLOC: ctms_sim::alloc_count::CountingAlloc = ctms_sim::alloc_count::CountingAlloc::new();

/// Simulated horizon for the full measurement. Long enough that the
/// run-loop dominates testbed construction by orders of magnitude.
const FULL_HORIZON_SECS: u64 = 60;
/// Simulated horizon for `--quick` (CI smoke).
const QUICK_HORIZON_SECS: u64 = 10;
/// Wall-clock repetitions in full mode; the best (minimum) run is kept,
/// which is the standard way to strip scheduler/cache noise from a
/// deterministic workload.
const FULL_REPS: usize = 3;
/// Simulated horizon for the `--shards` chain benchmark. The chain is
/// two orders of magnitude more nodes than a test case, so its horizon
/// is shorter than the cases' while still dominating construction.
const CHAIN_HORIZON_SECS: u64 = 10;
/// `--quick` chain horizon (CI smoke).
const CHAIN_QUICK_HORIZON_SECS: u64 = 2;
/// Default chain length for `--shards` (the N ≥ 128 scaling regime the
/// sharded scheduler is built for).
const DEFAULT_CHAIN_RINGS: usize = 128;

struct TimedRun {
    events: u64,
    wall_secs: f64,
    digests: [u64; 4],
}

struct CaseResult {
    name: &'static str,
    run: TimedRun,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut seed = 42u64;
    let mut json_path: Option<String> = None;
    let mut compare_path: Option<String> = None;
    let mut shards: Option<usize> = None;
    let mut rings = DEFAULT_CHAIN_RINGS;
    let mut threads: Option<usize> = None;
    let mut scale = false;
    let mut topologies: Vec<(String, Option<usize>)> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--scale" => scale = true,
            "--seed" => {
                seed = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--seed needs a number"));
            }
            "--json" => {
                json_path = Some(
                    it.next()
                        .cloned()
                        .unwrap_or_else(|| die("--json needs a path")),
                );
            }
            "--compare" => {
                compare_path = Some(
                    it.next()
                        .cloned()
                        .unwrap_or_else(|| die("--compare needs a path")),
                );
            }
            "--shards" => {
                let n: usize = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--shards needs a number"));
                if n < 2 {
                    die("--shards needs at least 2");
                }
                shards = Some(n);
            }
            "--rings" => {
                rings = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--rings needs a number"));
                if rings < 2 {
                    die("--rings needs at least 2");
                }
            }
            "--threads" => {
                let n: usize = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--threads needs a number"));
                if n < 1 {
                    die("--threads needs at least 1");
                }
                threads = Some(n);
            }
            "--topology" => {
                let spec = it
                    .next()
                    .cloned()
                    .unwrap_or_else(|| die("--topology needs a shape"));
                let (shape, n) = match spec.split_once(':') {
                    Some((shape, n)) => {
                        let n: usize = n
                            .parse()
                            .unwrap_or_else(|_| die("--topology SHAPE:RINGS needs a ring count"));
                        (shape.to_string(), Some(n))
                    }
                    None => (spec, None),
                };
                if !matches!(shape.as_str(), "chain" | "tree" | "mesh" | "fddi") {
                    die(&format!(
                        "--topology {shape}: unknown shape (chain, tree, mesh, fddi)"
                    ));
                }
                topologies.push((shape, n));
            }
            "--help" | "-h" => {
                eprintln!("{HELP}");
                return;
            }
            other => die(&format!("unknown argument {other}")),
        }
    }

    let horizon_secs = if quick {
        QUICK_HORIZON_SECS
    } else {
        FULL_HORIZON_SECS
    };
    let reps = if quick { 1 } else { FULL_REPS };
    eprintln!(
        "# perf: seed={seed} horizon={horizon_secs}s reps={reps} alloc_count={}",
        cfg!(feature = "alloc-count")
    );
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores == 1 {
        eprintln!(
            "# perf: WARNING: one hardware core available — sharded runs execute their \
             windows inline, so parallel speedups are degraded (expect <1.0x); the report \
             is marked \"degraded_parallelism\": true"
        );
    }

    let cases = [
        ("case_a", Scenario::test_case_a(seed)),
        ("case_b", Scenario::test_case_b(seed)),
    ];
    let mut results = Vec::new();
    for (name, sc) in &cases {
        let run = measure_case(sc, horizon_secs, reps);
        eprintln!(
            "# {name}: indexed {:.1}ms ({:.2}M ev/s)",
            run.wall_secs * 1e3,
            run.events as f64 / run.wall_secs / 1e6,
        );
        results.push(CaseResult { name, run });
    }

    let chain = shards.map(|max_shards| {
        let chain_horizon = if quick {
            CHAIN_QUICK_HORIZON_SECS
        } else {
            CHAIN_HORIZON_SECS
        };
        measure_chain(seed, rings, max_shards, threads, chain_horizon, reps)
    });

    let topo_horizon = if quick {
        CHAIN_QUICK_HORIZON_SECS
    } else {
        CHAIN_HORIZON_SECS
    };
    let topo_results: Vec<TopoResult> = topologies
        .iter()
        .map(|(shape, n)| {
            measure_topology(
                seed,
                shape,
                n.unwrap_or(rings),
                shards.unwrap_or(4),
                threads,
                topo_horizon,
                reps,
            )
        })
        .collect();

    let scale_results: Vec<ScaleEntry> = if scale {
        let sizes: &[usize] = if quick { &[64, 256] } else { &[1000, 10_000] };
        sizes
            .iter()
            .map(|&rings| measure_scale_entry(seed, rings, quick, reps))
            .collect()
    } else {
        Vec::new()
    };

    let steady = steady_state_allocs();
    if let Some(s) = &steady {
        eprintln!(
            "# steady-state synth ring: {} allocs / {} events",
            s.allocs, s.events
        );
    }

    let json = report_json(
        seed,
        quick,
        horizon_secs,
        threads,
        &results,
        chain.as_ref(),
        &topo_results,
        &scale_results,
        steady.as_ref(),
    );
    if let Some(path) = &json_path {
        if let Err(e) = std::fs::write(path, &json) {
            die(&format!("cannot write {path}: {e}"));
        }
        eprintln!("# benchmark report written to {path}");
    } else if compare_path.is_none() {
        println!("{json}");
    }

    if let Some(path) = &compare_path {
        compare_report(path, &results, chain.as_ref(), &topo_results);
    }
}

fn measure_case(sc: &Scenario, horizon_secs: u64, reps: usize) -> TimedRun {
    let mut best: Option<TimedRun> = None;
    for _ in 0..reps {
        let mut bed = Testbed::ctms(sc);
        let t0 = std::time::Instant::now();
        bed.run_until(SimTime::from_secs(horizon_secs));
        let wall_secs = t0.elapsed().as_secs_f64();
        let events = bed.bus().events();
        let get = |host: usize, point: MeasurePoint| {
            bed.truth_log(host, point)
                .map(|log| log.digest())
                .unwrap_or(0)
        };
        let digests = [
            get(0, MeasurePoint::VcaIrq),
            get(0, MeasurePoint::VcaHandlerEntry),
            get(0, MeasurePoint::PreTransmit),
            get(1, MeasurePoint::CtmspIdentified),
        ];
        let run = TimedRun {
            events,
            wall_secs,
            digests,
        };
        if let Some(b) = &best {
            assert_eq!(b.digests, run.digests, "repetition changed ground truth");
            assert_eq!(b.events, run.events, "repetition changed event count");
        }
        if best.as_ref().is_none_or(|b| run.wall_secs < b.wall_secs) {
            best = Some(run);
        }
    }
    best.expect("at least one repetition")
}

/// Protocol-efficiency counters for one sharded run, read from the
/// harness's execution telemetry. Deterministic (they describe the
/// synchronization schedule, not the wall clock), so repetitions are
/// asserted identical.
#[derive(Clone, Copy, PartialEq)]
struct WindowStats {
    windows: u64,
    sync_instants: u64,
    mail_rounds: u64,
    /// Fraction of per-shard window grants that found no work:
    /// `sum(idle_windows) / sum(idle_windows + window_advances)`.
    idle_fraction: f64,
}

fn window_stats(bus: &ctms_core::Bus, shards: usize) -> Option<WindowStats> {
    let reg = bus.exec_telemetry()?;
    let count = |key: &str| reg.counter_value(key).unwrap_or(0);
    let (mut idle, mut advances) = (0u64, 0u64);
    for k in 0..shards {
        let s = bus.shard_stats(k);
        idle += s.idle_windows;
        advances += s.window_advances;
    }
    let grants = idle + advances;
    Some(WindowStats {
        windows: count("sched.windows"),
        sync_instants: count("sched.sync_instants"),
        mail_rounds: count("sched.mail_rounds"),
        idle_fraction: if grants == 0 {
            0.0
        } else {
            idle as f64 / grants as f64
        },
    })
}

struct ChainSharded {
    shards: usize,
    threads: usize,
    run: TimedRun,
    window: Option<WindowStats>,
}

struct ChainResult {
    rings: usize,
    horizon_secs: u64,
    single: TimedRun,
    sharded: Vec<ChainSharded>,
}

/// Measures one sharded configuration: best-of-`reps` wall clock, with
/// ground-truth parity against `single` asserted on every repetition
/// before the timing is kept, and the (deterministic)
/// protocol-efficiency counters asserted stable across repetitions.
#[allow(clippy::too_many_arguments)]
fn measure_sharded(
    build: &dyn Fn() -> RingChainTestbed,
    digests_of: &dyn Fn(&RingChainTestbed) -> [u64; 4],
    k: usize,
    workers: usize,
    horizon: SimTime,
    reps: usize,
    single: &TimedRun,
    label: &str,
) -> (TimedRun, Option<WindowStats>) {
    let mut best: Option<TimedRun> = None;
    let mut stats: Option<WindowStats> = None;
    for _ in 0..reps {
        let mut bed = build();
        assert_eq!(bed.shard_count(), k, "{label} must partition into {k}");
        bed.set_threads(workers);
        let t0 = std::time::Instant::now();
        bed.run_until(horizon);
        let wall_secs = t0.elapsed().as_secs_f64();
        let run = TimedRun {
            events: bed.events(),
            wall_secs,
            digests: digests_of(&bed),
        };
        // Ground-truth parity before timing is reported: the parallel
        // run must have simulated the exact same world.
        assert_eq!(
            run.digests, single.digests,
            "{label} shards={k}: sharded scheduler changed ground truth"
        );
        assert_eq!(
            run.events, single.events,
            "{label} shards={k}: sharded scheduler changed event count"
        );
        let s = window_stats(bed.bus(), k);
        if let (Some(prev), Some(now)) = (&stats, &s) {
            assert!(
                prev == now,
                "{label} shards={k}: window schedule varied across repetitions"
            );
        }
        stats = s;
        if best.as_ref().is_none_or(|b| run.wall_secs < b.wall_secs) {
            best = Some(run);
        }
    }
    (best.expect("at least one repetition"), stats)
}

/// One stderr progress line per measured sharded configuration,
/// including the protocol-efficiency counters when available.
fn report_sharded(
    label: &str,
    k: usize,
    workers: usize,
    run: &TimedRun,
    single: &TimedRun,
    window: Option<&WindowStats>,
) {
    let counters = window
        .map(|w| {
            format!(
                "  windows {} sync {} mail {} idle {:.0}%",
                w.windows,
                w.sync_instants,
                w.mail_rounds,
                w.idle_fraction * 100.0
            )
        })
        .unwrap_or_default();
    eprintln!(
        "# {label}: shards={k} threads={workers} {:.1}ms ({:.2}M ev/s)  speedup {:.2}x{counters}",
        run.wall_secs * 1e3,
        run.events as f64 / run.wall_secs / 1e6,
        single.wall_secs / run.wall_secs
    );
}

fn chain_digests(mut get: impl FnMut(usize, MeasurePoint) -> u64) -> [u64; 4] {
    [
        get(0, MeasurePoint::VcaIrq),
        get(0, MeasurePoint::VcaHandlerEntry),
        get(0, MeasurePoint::PreTransmit),
        get(1, MeasurePoint::CtmspIdentified),
    ]
}

/// Benchmarks the scaled `rings`-ring chain: single-threaded indexed
/// (the ground truth and the baseline) against the sharded
/// conservative-parallel scheduler at every power-of-two shard count up
/// to `max_shards`. Per configuration, edge-log digests and serviced
/// event counts are asserted equal to the single-threaded run before
/// any wall clock is reported.
#[allow(clippy::too_many_arguments)]
fn measure_chain(
    seed: u64,
    rings: usize,
    max_shards: usize,
    threads: Option<usize>,
    horizon_secs: u64,
    reps: usize,
) -> ChainResult {
    let sc = Scenario::scaled_chain(seed);
    let kind = BridgeKind::cut_through_bridge();
    let horizon = SimTime::from_secs(horizon_secs);

    let mut single: Option<TimedRun> = None;
    for _ in 0..reps {
        let mut bed = RingChainTestbed::chain(&sc, kind, rings);
        let t0 = std::time::Instant::now();
        bed.run_until(horizon);
        let wall_secs = t0.elapsed().as_secs_f64();
        let run = TimedRun {
            events: bed.bus().events(),
            wall_secs,
            digests: chain_digests(|host, point| {
                bed.bus()
                    .measurements()
                    .truth_log(host, point)
                    .map(|log| log.digest())
                    .unwrap_or(0)
            }),
        };
        if let Some(b) = &single {
            assert_eq!(b.digests, run.digests, "repetition changed ground truth");
            assert_eq!(b.events, run.events, "repetition changed event count");
        }
        if single.as_ref().is_none_or(|b| run.wall_secs < b.wall_secs) {
            single = Some(run);
        }
    }
    let single = single.expect("at least one repetition");
    eprintln!(
        "# chain/{rings}: single-threaded {:.1}ms ({:.2}M ev/s, {} events)",
        single.wall_secs * 1e3,
        single.events as f64 / single.wall_secs / 1e6,
        single.events
    );

    let mut sharded = Vec::new();
    let mut k = 2;
    while k <= max_shards {
        let workers = threads.unwrap_or_else(|| ctms_sim::default_threads(k));
        let label = format!("chain/{rings}");
        let build = || RingChainTestbed::chain_sharded(&sc, kind, rings, k);
        let digests_of = |bed: &RingChainTestbed| {
            chain_digests(|host, point| {
                bed.bus()
                    .truth_log(host, point)
                    .map(|log| log.digest())
                    .unwrap_or(0)
            })
        };
        let (run, window) = measure_sharded(
            &build,
            &digests_of,
            k,
            workers,
            horizon,
            reps,
            &single,
            &label,
        );
        report_sharded(&label, k, workers, &run, &single, window.as_ref());
        sharded.push(ChainSharded {
            shards: k,
            threads: workers,
            run,
            window,
        });
        k *= 2;
    }

    ChainResult {
        rings,
        horizon_secs,
        single,
        sharded,
    }
}

struct TopoResult {
    shape: String,
    rings: usize,
    horizon_secs: u64,
    single: TimedRun,
    sharded: Vec<ChainSharded>,
}

/// Benchmarks one generated graph topology: single-threaded indexed
/// (ground truth) against the graph-partitioned sharded scheduler at
/// every power-of-two shard count up to `max_shards`. Same parity rule
/// as the chain benchmark — edge-log digests and serviced event counts
/// must match the single-threaded run before any wall clock is
/// reported, which is what makes per-shape wall clocks comparable.
#[allow(clippy::too_many_arguments)]
fn measure_topology(
    seed: u64,
    shape: &str,
    rings: usize,
    max_shards: usize,
    threads: Option<usize>,
    horizon_secs: u64,
    reps: usize,
) -> TopoResult {
    let sc = Scenario::scaled_chain(seed);
    let kind = BridgeKind::cut_through_bridge();
    let graph = RingGraph::named(shape, rings, seed)
        .unwrap_or_else(|| die(&format!("unknown topology shape {shape}")));
    let horizon = SimTime::from_secs(horizon_secs);
    let set_digests = |set: &ctms_measure::MeasurementSet| {
        [
            set.vca_irq.digest(),
            set.handler.digest(),
            set.pre_tx.digest(),
            set.ctmsp_rx.digest(),
        ]
    };

    let mut single: Option<TimedRun> = None;
    for _ in 0..reps {
        let mut bed = RingChainTestbed::graph(&sc, kind, &graph);
        let t0 = std::time::Instant::now();
        bed.run_until(horizon);
        let wall_secs = t0.elapsed().as_secs_f64();
        let run = TimedRun {
            events: bed.bus().events(),
            wall_secs,
            digests: set_digests(&bed.measurement_set()),
        };
        if let Some(b) = &single {
            assert_eq!(b.digests, run.digests, "repetition changed ground truth");
            assert_eq!(b.events, run.events, "repetition changed event count");
        }
        if single.as_ref().is_none_or(|b| run.wall_secs < b.wall_secs) {
            single = Some(run);
        }
    }
    let single = single.expect("at least one repetition");
    eprintln!(
        "# {shape}/{rings}: single-threaded {:.1}ms ({:.2}M ev/s, {} events)",
        single.wall_secs * 1e3,
        single.events as f64 / single.wall_secs / 1e6,
        single.events
    );

    let mut sharded = Vec::new();
    let mut k = 2;
    while k <= max_shards {
        let workers = threads.unwrap_or_else(|| ctms_sim::default_threads(k));
        let label = format!("{shape}/{rings}");
        let build = || RingChainTestbed::graph_sharded(&sc, kind, &graph, k);
        let digests_of = |bed: &RingChainTestbed| set_digests(&bed.measurement_set());
        let (run, window) = measure_sharded(
            &build,
            &digests_of,
            k,
            workers,
            horizon,
            reps,
            &single,
            &label,
        );
        report_sharded(&label, k, workers, &run, &single, window.as_ref());
        sharded.push(ChainSharded {
            shards: k,
            threads: workers,
            run,
            window,
        });
        k *= 2;
    }

    TopoResult {
        shape: shape.to_string(),
        rings,
        horizon_secs,
        single,
        sharded,
    }
}

/// One row of the `--scale` capacity section: a large tree topology,
/// measured end to end — build, run, streamed checkpoint.
struct ScaleEntry {
    rings: usize,
    /// Rings + bridges + hosts of the built topology.
    nodes: usize,
    build_wall_secs: f64,
    /// Peak heap growth during graph generation + topology build, with
    /// `--features alloc-count`; `None` otherwise.
    build_peak_bytes: Option<u64>,
    horizon_ms: u64,
    run: TimedRun,
    ckpt_bytes: u64,
    ckpt_chunks: u64,
    write_secs: f64,
    read_secs: f64,
    /// Shard counts the streamed checkpoint round-tripped at, with the
    /// re-streamed bytes asserted identical to the monolithic snapshot.
    parity_shards: Vec<usize>,
}

/// Concatenating sink for the stream-vs-monolithic identity assert.
struct ConcatSink(Vec<u8>);

impl ctms_sim::ChunkSink for ConcatSink {
    fn chunk(&mut self, bytes: &[u8]) -> Result<(), ctms_sim::PersistError> {
        self.0.extend_from_slice(bytes);
        Ok(())
    }
}

#[cfg(feature = "alloc-count")]
fn peak_region_start() -> u64 {
    ALLOC.reset_peak();
    ALLOC.current_bytes()
}

#[cfg(feature = "alloc-count")]
fn peak_region_bytes(live0: u64) -> Option<u64> {
    Some(ALLOC.peak_bytes().saturating_sub(live0))
}

#[cfg(not(feature = "alloc-count"))]
fn peak_region_start() -> u64 {
    0
}

#[cfg(not(feature = "alloc-count"))]
fn peak_region_bytes(_live0: u64) -> Option<u64> {
    None
}

/// Simulated horizon for one scale row: long enough to exercise the
/// steady state, scaled down as the topology grows so the section's
/// wall clock stays bounded. Deterministic per ring count, so every
/// shard configuration of a row simulates the same world.
fn scale_horizon_ms(rings: usize, quick: bool) -> u64 {
    if quick {
        500
    } else {
        (1_000_000 / rings as u64).clamp(100, 1000)
    }
}

/// Measures one `--scale` row at `rings`: times the tree build (with
/// peak heap growth under `alloc-count`), runs to the scaled horizon,
/// then asserts — before any number is reported — that ground truth is
/// bit-identical at 1/2/4 shards and that the streamed checkpoint
/// concatenates to exactly the monolithic snapshot and round-trips
/// byte-identically (telemetry included) at every shard count. Only
/// then are streamed write/read throughput measured, best-of-`reps`.
fn measure_scale_entry(seed: u64, rings: usize, quick: bool, reps: usize) -> ScaleEntry {
    let sc = Scenario::scaled_chain(seed);
    let kind = BridgeKind::cut_through_bridge();
    let horizon_ms = scale_horizon_ms(rings, quick);
    let horizon = SimTime::from_ms(horizon_ms);
    let set_digests = |set: &ctms_measure::MeasurementSet| {
        [
            set.vca_irq.digest(),
            set.handler.digest(),
            set.pre_tx.digest(),
            set.ctmsp_rx.digest(),
        ]
    };

    // Build: graph generation plus topology construction, timed as one
    // region — this is the "10⁴ rings build in seconds" claim.
    let live0 = peak_region_start();
    let t0 = std::time::Instant::now();
    let graph = RingGraph::named("tree", rings, seed).expect("tree is a known shape");
    let mut bed = RingChainTestbed::graph(&sc, kind, &graph);
    let build_wall_secs = t0.elapsed().as_secs_f64();
    let build_peak_bytes = peak_region_bytes(live0);
    let nodes = bed.bus().ring_count() + bed.bus().host_count() + bed.bus().bridge_count();
    eprintln!(
        "# scale tree/{rings}: built {nodes} nodes in {:.2}s{}",
        build_wall_secs,
        build_peak_bytes
            .map(|b| format!(" (peak +{:.1} MB)", b as f64 / 1e6))
            .unwrap_or_default()
    );

    // Single-threaded run to the horizon: the ground truth and the
    // events/sec number of the row.
    let t0 = std::time::Instant::now();
    bed.run_until(horizon);
    let run = TimedRun {
        events: bed.bus().events(),
        wall_secs: t0.elapsed().as_secs_f64(),
        digests: set_digests(&bed.measurement_set()),
    };
    let single_telemetry = bed.telemetry_json();
    eprintln!(
        "# scale tree/{rings}: ran {horizon_ms}ms sim in {:.2}s ({:.2}M ev/s, {} events)",
        run.wall_secs,
        run.events as f64 / run.wall_secs / 1e6,
        run.events
    );

    // The monolithic snapshot is the byte-level reference for every
    // streaming assert below.
    let mono = bed.bus().checkpoint();
    let mut concat = ConcatSink(Vec::with_capacity(mono.len()));
    let (payload, chunks) = bed
        .bus()
        .checkpoint_stream(&mut concat)
        .expect("stream checkpoint");
    assert_eq!(
        concat.0, mono,
        "tree/{rings}: streamed chunks do not concatenate to the monolithic snapshot"
    );
    assert_eq!(payload as usize, mono.len());

    // Parity before timing: 1/2/4 shards must reproduce the exact same
    // world, snapshot to the exact same bytes, and round-trip through
    // the framed streaming path back to those bytes with telemetry
    // intact.
    let mut parity_shards = Vec::new();
    for shards in [1usize, 2, 4] {
        let mut sbed = RingChainTestbed::graph_sharded(&sc, kind, &graph, shards);
        sbed.run_until(horizon);
        let sdigests = set_digests(&sbed.measurement_set());
        assert_eq!(
            sdigests, run.digests,
            "tree/{rings} shards={shards}: sharded run changed ground truth"
        );
        assert_eq!(
            sbed.events(),
            run.events,
            "tree/{rings} shards={shards}: sharded run changed event count"
        );
        assert_eq!(
            sbed.bus().checkpoint(),
            mono,
            "tree/{rings} shards={shards}: sharded snapshot is not byte-identical"
        );
        let mut framed = Vec::new();
        sbed.bus()
            .write_checkpoint(&mut framed)
            .expect("framed write");
        let mut back = RingChainTestbed::graph_sharded(&sc, kind, &graph, shards);
        back.bus_mut()
            .read_checkpoint(&mut framed.as_slice())
            .unwrap_or_else(|e| panic!("tree/{rings} shards={shards}: streamed restore: {e}"));
        assert_eq!(
            back.bus().checkpoint(),
            mono,
            "tree/{rings} shards={shards}: streamed round-trip drifted"
        );
        assert_eq!(
            back.telemetry_json(),
            single_telemetry,
            "tree/{rings} shards={shards}: streamed round-trip changed telemetry"
        );
        parity_shards.push(shards);
    }

    // Streamed checkpoint throughput, best-of-reps, measured only after
    // every parity assert above has passed.
    let mut write_secs = f64::INFINITY;
    let mut framed = Vec::with_capacity(mono.len() + mono.len() / 8);
    for _ in 0..reps {
        framed.clear();
        let t0 = std::time::Instant::now();
        bed.bus()
            .write_checkpoint(&mut framed)
            .expect("framed write");
        write_secs = write_secs.min(t0.elapsed().as_secs_f64());
    }
    let mut fresh = RingChainTestbed::graph(&sc, kind, &graph);
    let mut read_secs = f64::INFINITY;
    for _ in 0..reps {
        let t0 = std::time::Instant::now();
        fresh
            .bus_mut()
            .read_checkpoint(&mut framed.as_slice())
            .expect("framed read");
        read_secs = read_secs.min(t0.elapsed().as_secs_f64());
    }
    assert_eq!(
        fresh.bus().checkpoint(),
        mono,
        "tree/{rings}: timed streamed restore drifted"
    );
    let mb = mono.len() as f64 / 1e6;
    eprintln!(
        "# scale tree/{rings}: checkpoint {:.1} MB in {chunks} chunks, write {:.0} MB/s, read {:.0} MB/s",
        mb,
        mb / write_secs,
        mb / read_secs
    );

    ScaleEntry {
        rings,
        nodes,
        build_wall_secs,
        build_peak_bytes,
        horizon_ms,
        run,
        ckpt_bytes: mono.len() as u64,
        ckpt_chunks: chunks,
        write_secs,
        read_secs,
        parity_shards,
    }
}

struct SteadyState {
    events: u64,
    allocs: u64,
}

/// Measures allocations/event over a steady-state window on the
/// synthetic allocation-free ring. Only meaningful with the counting
/// allocator installed; returns `None` otherwise.
#[cfg(feature = "alloc-count")]
fn steady_state_allocs() -> Option<SteadyState> {
    let mut h = ctms_sim::synth::build_ring(16, 1_000, 4);
    h.run_until(SimTime::from_ns(2_000_000)); // warm-up: buffers reach capacity
    let events0 = h.events();
    let allocs0 = ALLOC.allocations();
    h.run_until(SimTime::from_ns(10_000_000));
    Some(SteadyState {
        events: h.events() - events0,
        allocs: ALLOC.allocations() - allocs0,
    })
}

#[cfg(not(feature = "alloc-count"))]
fn steady_state_allocs() -> Option<SteadyState> {
    None
}

fn run_json(m: &TimedRun) -> String {
    format!(
        "{{ \"events\": {}, \"wall_secs\": {}, \"events_per_sec\": {} }}",
        m.events,
        json_f64(m.wall_secs),
        json_f64(m.events as f64 / m.wall_secs)
    )
}

fn window_json(w: &WindowStats) -> String {
    format!(
        "{{ \"windows\": {}, \"sync_instants\": {}, \"mail_rounds\": {}, \
         \"idle_window_fraction\": {} }}",
        w.windows,
        w.sync_instants,
        w.mail_rounds,
        json_f64(w.idle_fraction)
    )
}

/// Emits one sharded configuration entry. `indent` is the indentation
/// of the entry's opening brace.
fn sharded_json(
    s: &ChainSharded,
    single: &TimedRun,
    threads_requested: Option<usize>,
    indent: &str,
) -> String {
    let mut out = String::new();
    out.push_str(&format!("{indent}{{\n"));
    out.push_str(&format!("{indent}  \"shards\": {},\n", s.shards));
    out.push_str(&format!("{indent}  \"threads\": {},\n", s.threads));
    // The thread count actually used is stamped above; this records
    // whether it was a `--threads` request, so trend tooling can tell
    // "measured on one core" from "ran with --threads 1 by request".
    match threads_requested {
        Some(n) => out.push_str(&format!("{indent}  \"threads_requested\": {n},\n")),
        None => out.push_str(&format!("{indent}  \"threads_requested\": null,\n")),
    }
    out.push_str(&format!("{indent}  \"run\": {},\n", run_json(&s.run)));
    out.push_str(&format!(
        "{indent}  \"speedup\": {},\n",
        json_f64(single.wall_secs / s.run.wall_secs)
    ));
    match &s.window {
        Some(w) => out.push_str(&format!("{indent}  \"window\": {},\n", window_json(w))),
        None => out.push_str(&format!("{indent}  \"window\": null,\n")),
    }
    out.push_str(&format!("{indent}  \"ground_truth_parity\": true\n"));
    out.push_str(&format!("{indent}}}"));
    out
}

fn scale_json(entries: &[ScaleEntry]) -> String {
    let mut out = String::new();
    out.push_str("  \"scale\": {\n");
    out.push_str("    \"shape\": \"tree\",\n");
    out.push_str("    \"entries\": [\n");
    for (i, e) in entries.iter().enumerate() {
        out.push_str("      {\n");
        out.push_str(&format!("        \"rings\": {},\n", e.rings));
        out.push_str(&format!("        \"nodes\": {},\n", e.nodes));
        out.push_str(&format!(
            "        \"build_wall_secs\": {},\n",
            json_f64(e.build_wall_secs)
        ));
        match e.build_peak_bytes {
            Some(b) => out.push_str(&format!("        \"build_peak_bytes\": {b},\n")),
            None => out.push_str("        \"build_peak_bytes\": null,\n"),
        }
        out.push_str(&format!("        \"horizon_ms\": {},\n", e.horizon_ms));
        out.push_str(&format!("        \"run\": {},\n", run_json(&e.run)));
        let mb = e.ckpt_bytes as f64 / 1e6;
        out.push_str(&format!(
            "        \"checkpoint\": {{ \"bytes\": {}, \"chunks\": {}, \"write_secs\": {}, \
             \"write_mb_per_sec\": {}, \"read_secs\": {}, \"read_mb_per_sec\": {} }},\n",
            e.ckpt_bytes,
            e.ckpt_chunks,
            json_f64(e.write_secs),
            json_f64(mb / e.write_secs),
            json_f64(e.read_secs),
            json_f64(mb / e.read_secs)
        ));
        let shards: Vec<String> = e.parity_shards.iter().map(|s| s.to_string()).collect();
        out.push_str(&format!(
            "        \"stream_parity_shards\": [{}],\n",
            shards.join(", ")
        ));
        out.push_str("        \"ground_truth_parity\": true\n");
        out.push_str(if i + 1 == entries.len() {
            "      }\n"
        } else {
            "      },\n"
        });
    }
    out.push_str("    ]\n");
    out.push_str("  },\n");
    out
}

#[allow(clippy::too_many_arguments)]
fn report_json(
    seed: u64,
    quick: bool,
    horizon_secs: u64,
    threads_requested: Option<usize>,
    results: &[CaseResult],
    chain: Option<&ChainResult>,
    topologies: &[TopoResult],
    scale: &[ScaleEntry],
    steady: Option<&SteadyState>,
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"format\": \"ctms-perf/7\",\n");
    out.push_str(&format!("  \"seed\": {seed},\n"));
    out.push_str(&format!("  \"quick\": {quick},\n"));
    out.push_str(&format!("  \"horizon_secs\": {horizon_secs},\n"));
    out.push_str(&format!(
        "  \"alloc_count\": {},\n",
        cfg!(feature = "alloc-count")
    ));
    // Hardware parallelism of the measuring machine: sharded speedups
    // below 1.0 on a single-core box are expected (the window protocol
    // runs inline there) and must be read against these two fields —
    // `degraded_parallelism` is the machine-readable version of the
    // stderr warning, so trend tooling can flag single-core numbers.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    out.push_str(&format!("  \"cores\": {cores},\n"));
    out.push_str(&format!("  \"degraded_parallelism\": {},\n", cores == 1));
    out.push_str("  \"cases\": [\n");
    for (i, case) in results.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"name\": {},\n", json_string(case.name)));
        out.push_str(&format!("      \"indexed\": {}\n", run_json(&case.run)));
        out.push_str(if i + 1 == results.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    out.push_str("  ],\n");
    match chain {
        Some(c) => {
            out.push_str("  \"chain\": {\n");
            out.push_str(&format!("    \"rings\": {},\n", c.rings));
            out.push_str(&format!("    \"horizon_secs\": {},\n", c.horizon_secs));
            out.push_str(&format!("    \"single\": {},\n", run_json(&c.single)));
            out.push_str("    \"sharded\": [\n");
            for (i, s) in c.sharded.iter().enumerate() {
                out.push_str(&sharded_json(s, &c.single, threads_requested, "      "));
                out.push_str(if i + 1 == c.sharded.len() {
                    "\n"
                } else {
                    ",\n"
                });
            }
            out.push_str("    ]\n");
            out.push_str("  },\n");
        }
        None => out.push_str("  \"chain\": null,\n"),
    }
    if topologies.is_empty() {
        out.push_str("  \"topologies\": null,\n");
    } else {
        out.push_str("  \"topologies\": [\n");
        for (i, t) in topologies.iter().enumerate() {
            out.push_str("    {\n");
            out.push_str(&format!("      \"shape\": {},\n", json_string(&t.shape)));
            out.push_str(&format!("      \"rings\": {},\n", t.rings));
            out.push_str(&format!("      \"horizon_secs\": {},\n", t.horizon_secs));
            out.push_str(&format!("      \"single\": {},\n", run_json(&t.single)));
            out.push_str("      \"sharded\": [\n");
            for (j, s) in t.sharded.iter().enumerate() {
                out.push_str(&sharded_json(s, &t.single, threads_requested, "        "));
                out.push_str(if j + 1 == t.sharded.len() {
                    "\n"
                } else {
                    ",\n"
                });
            }
            out.push_str("      ]\n");
            out.push_str(if i + 1 == topologies.len() {
                "    }\n"
            } else {
                "    },\n"
            });
        }
        out.push_str("  ],\n");
    }
    if scale.is_empty() {
        out.push_str("  \"scale\": null,\n");
    } else {
        out.push_str(&scale_json(scale));
    }
    match steady {
        Some(s) => {
            out.push_str("  \"steady_state\": {\n");
            out.push_str("    \"workload\": \"synth-ring/16\",\n");
            out.push_str(&format!("    \"events\": {},\n", s.events));
            out.push_str(&format!(
                "    \"indexed\": {{ \"allocations\": {}, \"allocs_per_event\": {} }}\n",
                s.allocs,
                json_f64(s.allocs as f64 / s.events as f64)
            ));
            out.push_str("  }\n");
        }
        None => out.push_str("  \"steady_state\": null\n"),
    }
    out.push_str("}\n");
    out
}

/// Report-only comparison against a previously written report. Wall
/// clocks differ across machines, so this never fails the run — it
/// surfaces the recorded vs current case throughput and sharded
/// speedups for a human (or a CI log reader) to eyeball.
fn compare_report(
    path: &str,
    results: &[CaseResult],
    chain: Option<&ChainResult>,
    topologies: &[TopoResult],
) {
    let recorded = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("# compare: cannot read {path}: {e} (skipping)");
            return;
        }
    };
    for case in results {
        // The first rate after a case's name is its indexed run in every
        // report format.
        let anchor = format!("\"name\": \"{}\"", case.name);
        let now = case.run.events as f64 / case.run.wall_secs / 1e6;
        match number_after(&recorded, &anchor, "events_per_sec") {
            Some(r) => eprintln!(
                "# compare {}: recorded {:.2}M ev/s, this run {now:.2}M ev/s",
                case.name,
                r / 1e6
            ),
            None => eprintln!(
                "# compare {}: no recorded events_per_sec found in {path}",
                case.name
            ),
        }
    }
    if let Some(c) = chain {
        for s in &c.sharded {
            let rec = number_after(&recorded, &format!("\"shards\": {}", s.shards), "speedup");
            let now = c.single.wall_secs / s.run.wall_secs;
            match rec {
                Some(r) => eprintln!(
                    "# compare chain shards={}: recorded speedup {r:.2}x, this run {now:.2}x",
                    s.shards
                ),
                None => eprintln!(
                    "# compare chain shards={}: no recorded speedup found in {path}",
                    s.shards
                ),
            }
        }
    }
    for t in topologies {
        for s in &t.sharded {
            // Anchor on the shape name, then the shard entry after it.
            let anchor = format!("\"shape\": \"{}\"", t.shape);
            let rec = recorded.find(&anchor).and_then(|at| {
                number_after(
                    &recorded[at..],
                    &format!("\"shards\": {}", s.shards),
                    "speedup",
                )
            });
            let now = t.single.wall_secs / s.run.wall_secs;
            match rec {
                Some(r) => eprintln!(
                    "# compare {}/{} shards={}: recorded speedup {r:.2}x, this run {now:.2}x",
                    t.shape, t.rings, s.shards
                ),
                None => eprintln!(
                    "# compare {}/{} shards={}: no recorded speedup found in {path}",
                    t.shape, t.rings, s.shards
                ),
            }
        }
    }
}

/// Pulls the `"<key>": <number>` that follows `anchor` out of a report
/// without a JSON parser: find the anchor line (a case's `"name"` or a
/// chain entry's `"shards"` key), then the next `key` after it.
fn number_after(report: &str, anchor: &str, key: &str) -> Option<f64> {
    let at = report.find(anchor)?;
    let rest = &report[at..];
    let key = format!("\"{key}\":");
    let sp = rest.find(&key)?;
    let tail = rest[sp + key.len()..].trim_start();
    let end = tail
        .find(|c: char| {
            !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E' || c == '+')
        })
        .unwrap_or(tail.len());
    tail[..end].parse().ok()
}

fn die(msg: &str) -> ! {
    eprintln!("perf: {msg}\n{HELP}");
    std::process::exit(2);
}

const HELP: &str = "usage: perf [--quick] [--seed N] [--json PATH] [--compare PATH] [--shards N] [--rings N] [--threads N] [--scale] [--topology SHAPE[:RINGS]]...";
