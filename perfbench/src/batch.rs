//! The batch workloads. `paper-ab` runs test cases A and B
//! single-threaded and then the paper's histogram analysis; `city-tree`
//! and `fddi-thin` run a generated ring graph at two shards on two
//! worker threads, checked against a single-threaded reference.
//!
//! One repetition is: build (set-up), run to the horizon in fixed
//! simulated slices (each slice is one cycle), analyse, then check the
//! simulated outputs outside the timed region.

use crate::trace::Tracer;
use crate::{
    cycle_quantile, median_of, min_filtered, pooled_cycle_note, repeat, stats, sys, Gate, Outcome,
    Params,
};
use ctms_core::{graph_topology, partition_rings, RingChainTestbed, RingGraph, Scenario, Testbed};
use ctms_measure::HistId;
use ctms_router::BridgeKind;
use ctms_sim::telemetry::fnv1a;
use ctms_sim::{CascadeError, SimTime};
use ctms_stats::Histogram;
use ctms_unixkern::MeasurePoint;
use std::collections::BTreeMap;
use std::time::Instant;

/// Simulated horizon and slice of test cases A and B, in seconds. Case B
/// costs about 1.7 times as much host time per simulated second, so its
/// shorter slice makes the slices of both cases cost about the same.
const PAPER_CASES: [(u64, u64); 2] = [(400, 10), (600, 6)];
/// Histogram bin width for the H1–H7 analysis, in microseconds.
const HIST_BIN_US: f64 = 50.0;

/// Shards and worker threads of the graph workloads.
const SHARDS: usize = 2;
const THREADS: usize = 2;

/// Repetitions a run makes at least: each step's minimum is taken over
/// them (see [`stats::stepwise_min`]).
const MIN_REPS: usize = 8;
/// Repetitions that start from a trimmed heap with a reset `VmHWM`; the
/// median of their peaks is the reported peak memory.
const RSS_REPS: usize = 3;

/// A sharded graph workload.
pub struct GraphSpec {
    pub name: &'static str,
    pub shape: &'static str,
    pub rings: usize,
    pub horizon_ms: u64,
    pub slices: u64,
}

/// A tree of 10^4 rings: few, fat windows and a working set far larger
/// than the caches.
pub const CITY_TREE: GraphSpec = GraphSpec {
    name: "city-tree",
    shape: "tree",
    rings: 10_000,
    horizon_ms: 1_000,
    slices: 100,
};

/// An FDDI backbone of 32 rings: thousands of thin windows.
pub const FDDI_THIN: GraphSpec = GraphSpec {
    name: "fddi-thin",
    shape: "fddi",
    rings: 32,
    horizon_ms: 100_000,
    slices: 100,
};

// The 90th percentile of the cycle latencies needs ten cycles beyond it.
const _: () = assert!(CITY_TREE.slices >= 100 && FDDI_THIN.slices >= 100);

/// The simulated outputs a repetition must reproduce exactly.
#[derive(Clone, Debug, PartialEq)]
struct Fingerprint {
    events: u64,
    /// Edge-log (and, for `paper-ab`, histogram) digests.
    digests: Vec<u64>,
    /// Digest of the canonical telemetry JSON.
    telemetry: u64,
    work: Vec<(&'static str, u64)>,
}

impl Fingerprint {
    fn check(&self, want: &Fingerprint, what: &str) -> Result<(), String> {
        if self == want {
            return Ok(());
        }
        let field = if self.events != want.events {
            format!("events {} vs {}", self.events, want.events)
        } else if self.digests != want.digests {
            "edge-log digests".to_string()
        } else if self.work != want.work {
            "simulated work counts".to_string()
        } else {
            "telemetry digest".to_string()
        };
        Err(format!("{what}: {field} differ"))
    }
}

/// Sharded-execution counters, summed over every bus they were read
/// from.
#[derive(Clone, Default)]
pub struct ShardCounters {
    windows: u64,
    sync_instants: u64,
    mail_rounds: u64,
    idle_windows: u64,
    window_advances: u64,
    mailbox_sent: u64,
    shard_events: Vec<u64>,
}

impl ShardCounters {
    /// Adds the counters of `bus` (nothing for a single-threaded bus).
    pub fn add(&mut self, bus: &ctms_core::ShardedBus) {
        let Some(reg) = bus.exec_telemetry() else {
            return;
        };
        let count = |key: &str| reg.counter_value(key).unwrap_or(0);
        self.windows += count("sched.windows");
        self.sync_instants += count("sched.sync_instants");
        self.mail_rounds += count("sched.mail_rounds");
        self.shard_events.resize(bus.shard_count(), 0);
        for k in 0..bus.shard_count() {
            let s = bus.shard_stats(k);
            self.idle_windows += s.idle_windows;
            self.window_advances += s.window_advances;
            self.mailbox_sent += s.mailbox_sent;
            self.shard_events[k] += s.events;
        }
    }

    /// The `shard.*` layer metrics, for `events` simulated events.
    pub fn insert_layers(&self, layers: &mut BTreeMap<&'static str, f64>, events: f64) {
        if self.windows == 0 {
            return;
        }
        let grants = (self.idle_windows + self.window_advances).max(1);
        let per_shard: Vec<f64> = self.shard_events.iter().map(|&e| e as f64).collect();
        let mean = per_shard.iter().sum::<f64>() / per_shard.len() as f64;
        let max = per_shard.iter().copied().fold(0.0, f64::max);
        layers.insert("shard.windows", self.windows as f64);
        layers.insert("shard.sync_instants", self.sync_instants as f64);
        layers.insert("shard.mail_rounds", self.mail_rounds as f64);
        layers.insert("shard.events_per_window", events / self.windows as f64);
        layers.insert(
            "shard.idle_window_fraction",
            self.idle_windows as f64 / grants as f64,
        );
        layers.insert("shard.imbalance", max / mean.max(1.0));
        layers.insert("shard.mailbox_sent", self.mailbox_sent as f64);
    }
}

/// One repetition's measurements.
struct Rep {
    traced: bool,
    setup_s: f64,
    /// Host time of each run slice, in order.
    slices_ms: Vec<f64>,
    /// Host time of the analysis after the run (`paper-ab` only).
    analysis_s: f64,
    run_s: f64,
    wall_s: f64,
    cpu_s: f64,
    /// Peak resident memory since the last `VmHWM` reset, read at the
    /// end of this repetition's timed region.
    peak_rss_mb: f64,
    fp: Fingerprint,
    telemetry_bytes: usize,
    samples: usize,
    nodes: usize,
    shard: ShardCounters,
}

/// The simulated work counts, each a sum over the canonical telemetry
/// registry's counters that match its rule.
type WorkRule = (&'static str, fn(&str) -> bool);
const WORK: [WorkRule; 9] = [
    ("tokenring.frames_sent", |p| {
        p.starts_with("tokenring.") && p.ends_with(".frames_sent")
    }),
    ("tokenring.purges", |p| {
        p.starts_with("tokenring.") && p.ends_with(".purges")
    }),
    ("unixkern.irqs_dispatched", |p| {
        p.starts_with("unixkern.") && p.ends_with(".cpu.irqs_dispatched")
    }),
    ("unixkern.jobs_done", |p| {
        p.starts_with("unixkern.") && p.ends_with(".cpu.jobs_done")
    }),
    ("unixkern.mbuf_waits", |p| {
        p.starts_with("unixkern.") && p.ends_with(".mbuf.waits")
    }),
    ("rtpc.cpu_stall_ns", |p| {
        p.starts_with("unixkern.") && p.ends_with(".bus.cpu_stall_ns")
    }),
    ("router.forwarded", |p| {
        p.starts_with("router.") && p.contains(".forwarded_")
    }),
    ("measure.presented", |p| p == "measure.presented"),
    ("measure.drops", |p| p == "measure.drops"),
];

/// Sums the [`WORK`] counters out of a canonical telemetry document.
/// Top-level metrics are the lines `    "path": {"counter": N}` (four
/// spaces deep); phase snapshots sit deeper and are skipped.
pub fn work_counts(telemetry_json: &str) -> Vec<(&'static str, u64)> {
    let mut sums = [0u64; WORK.len()];
    for line in telemetry_json.lines() {
        let Some(rest) = line.strip_prefix("    \"") else {
            continue;
        };
        let Some((path, value)) = rest.split_once("\": {\"counter\": ") else {
            continue;
        };
        let Some(n) = value
            .trim_end_matches(',')
            .strip_suffix('}')
            .and_then(|n| n.parse::<u64>().ok())
        else {
            continue;
        };
        for (sum, (_, rule)) in sums.iter_mut().zip(WORK) {
            if rule(path) {
                *sum += n;
            }
        }
    }
    WORK.iter().map(|(name, _)| *name).zip(sums).collect()
}

fn add_work(into: &mut Vec<(&'static str, u64)>, more: Vec<(&'static str, u64)>) {
    if into.is_empty() {
        *into = more;
    } else {
        for ((_, a), (_, b)) in into.iter_mut().zip(more) {
            *a += b;
        }
    }
}

const POINTS: [(usize, MeasurePoint); 4] = [
    (0, MeasurePoint::VcaIrq),
    (0, MeasurePoint::VcaHandlerEntry),
    (0, MeasurePoint::PreTransmit),
    (1, MeasurePoint::CtmspIdentified),
];

fn log_digests(get: impl Fn(usize, MeasurePoint) -> Option<u64>) -> Vec<u64> {
    POINTS
        .iter()
        .map(|&(h, pt)| get(h, pt).unwrap_or(0))
        .collect()
}

/// Advances a simulation to `horizon` in `slices` equal simulated steps,
/// recording each step's host time as one cycle. Returns the summed run
/// time in seconds.
fn run_sliced(
    tr: &Tracer,
    rep: u32,
    horizon: SimTime,
    slices: u64,
    cycles_ms: &mut Vec<f64>,
    mut step: impl FnMut(SimTime) -> Result<(), CascadeError>,
) -> Result<f64, String> {
    let mut total = 0.0;
    for k in 1..=slices {
        let until = SimTime::from_ns(horizon.as_ns() / slices * k);
        let t = Instant::now();
        tr.span("sim.run_until", rep, 0, || step(until))
            .map_err(|e| format!("cascade error: {e}"))?;
        let dt = t.elapsed().as_secs_f64();
        cycles_ms.push(dt * 1e3);
        total += dt;
    }
    Ok(total)
}

/// Starts repetition `i`: the first [`RSS_REPS`] measure peak memory
/// from a trimmed heap. Later ones reuse the allocator's memory instead
/// of faulting fresh pages in, which keeps their timings steady.
fn start_rep(i: u32, gate: &mut Gate) {
    if (i as usize) < RSS_REPS {
        if let Err(e) = sys::reset_peak_rss() {
            gate.op(Err(format!("cannot reset peak RSS: {e}")));
        }
    }
}

/// Test cases A and B, single-threaded, then the H1–H7 analysis.
pub fn paper_ab(p: &Params) -> Result<Outcome, String> {
    let tr = Tracer::new(false);
    let cases = [Scenario::test_case_a(p.seed), Scenario::test_case_b(p.seed)];
    let mut gate = Gate::default();
    let mut first: Option<Fingerprint> = None;
    // The host slows each CPU down on its own, for stretches that can
    // outlast a run, and the scheduler leaves a lone thread where it is.
    // So the simulating thread runs each repetition on the next allowed
    // CPU in turn: one slowed CPU cannot cover every repetition of a step.
    let cpus = sys::allowed_cpus().map_err(|e| format!("cannot read CPU affinity: {e}"))?;
    let reps = repeat(p, &tr, &mut gate, MIN_REPS, |i, gate| {
        start_rep(i, gate);
        let rep = paper_rep(&tr, i, &cases, cpus[i as usize % cpus.len()])?;
        gate.op(match &first {
            None => {
                first = Some(rep.fp.clone());
                Ok(())
            }
            Some(want) => rep.fp.check(want, "repetition vs first"),
        });
        Ok(rep)
    });
    sys::pin_to(&cpus).map_err(|e| format!("cannot restore CPU affinity: {e}"))?;
    Ok(outcome(
        p,
        &tr,
        gate,
        "paper-ab",
        "repetitions (build, run, analyse, check)",
        &reps,
        &[],
    ))
}

/// One repetition; it moves to `cpu` after set-up, so that the move's
/// cold caches do not land in the few microseconds set-up takes.
fn paper_rep(tr: &Tracer, rep: u32, cases: &[Scenario; 2], cpu: usize) -> Result<Rep, String> {
    let t = Instant::now();
    let mut beds: Vec<Testbed> = tr.span("core.build", rep, 0, || {
        cases.iter().map(Testbed::ctms).collect()
    });
    let setup_s = t.elapsed().as_secs_f64();
    sys::pin_to(&[cpu]).map_err(|e| format!("cannot move to CPU {cpu}: {e}"))?;

    let t_wall = Instant::now();
    let cpu0 = sys::process_cpu_secs();
    let mut slices_ms = Vec::new();
    let mut run_s = 0.0;
    for (bed, (secs, slice)) in beds.iter_mut().zip(PAPER_CASES) {
        run_s += run_sliced(
            tr,
            rep,
            SimTime::from_secs(secs),
            secs / slice,
            &mut slices_ms,
            |until| bed.try_run_until(until),
        )?;
    }
    let cpu_s = sys::process_cpu_secs() - cpu0;
    let t_analysis = Instant::now();
    let mut samples = 0;
    let mut hists = Vec::new();
    for bed in &beds {
        let series: Vec<Vec<f64>> = tr.span("measure.set", rep, 0, || {
            let set = bed.measurement_set();
            HistId::ALL.iter().map(|&h| set.samples_us(h)).collect()
        });
        samples += series.iter().map(Vec::len).sum::<usize>();
        tr.span("stats.hist", rep, 0, || {
            hists.extend(series.iter().map(|xs| Histogram::of(xs, 0.0, HIST_BIN_US)));
        });
    }
    let analysis_s = t_analysis.elapsed().as_secs_f64();
    let wall_s = t_wall.elapsed().as_secs_f64();
    let peak_rss_mb = own_peak_rss_mb();

    // Checks, outside the timed region.
    let mut fp = Fingerprint {
        events: 0,
        digests: Vec::new(),
        telemetry: 0,
        work: Vec::new(),
    };
    let mut telemetry_bytes = 0;
    for bed in &mut beds {
        fp.events += bed.bus().events();
        fp.digests.extend(log_digests(|h, pt| {
            bed.truth_log(h, pt).map(|l| l.digest())
        }));
        let json = tr.span("telemetry.json", rep, 0, || bed.telemetry_json());
        telemetry_bytes += json.len();
        fp.telemetry = fp.telemetry.rotate_left(1) ^ fnv1a(json.as_bytes());
        add_work(&mut fp.work, work_counts(&json));
    }
    for h in &hists {
        let bytes: Vec<u8> = h.counts().iter().flat_map(|c| c.to_le_bytes()).collect();
        fp.digests.push(fnv1a(&bytes));
    }
    let nodes = beds
        .iter()
        .map(|b| b.bus().ring_count() + b.bus().host_count() + b.bus().bridge_count())
        .sum();
    Ok(Rep {
        traced: tr.enabled(),
        setup_s,
        slices_ms,
        analysis_s,
        run_s,
        wall_s,
        cpu_s,
        peak_rss_mb,
        fp,
        telemetry_bytes,
        samples,
        nodes,
        shard: ShardCounters::default(),
    })
}

/// A generated ring graph at [`SHARDS`] shards on [`THREADS`] threads,
/// checked against a single-threaded reference of the same seed.
pub fn graph(p: &Params, spec: &GraphSpec) -> Result<Outcome, String> {
    let sc = Scenario::scaled_chain(p.seed);
    let kind = BridgeKind::cut_through_bridge();
    let horizon = SimTime::from_ms(spec.horizon_ms);
    let tr = Tracer::new(false);
    let mut gate = Gate::default();

    // The single-threaded reference: run once, outside the timed region.
    let (reference, _) = single_run(p.seed, spec, &sc, kind, horizon)?;

    // With tracing on, each traced repetition is followed by a timed
    // single-threaded run, so both sides of the speedup are warm, untraced,
    // interleaved with each other and summarized the same way.
    let mut single_slices = Vec::new();
    let reps = repeat(p, &tr, &mut gate, MIN_REPS, |i, gate| {
        start_rep(i, gate);
        let rep = graph_rep(&tr, i, spec, &sc, kind, horizon)?;
        gate.op(rep
            .fp
            .check(&reference, "sharded run vs single-threaded reference"));
        if rep.traced {
            let (fp, slices_ms) = single_run(p.seed, spec, &sc, kind, horizon)?;
            gate.op(fp.check(&reference, "single-threaded run vs reference"));
            single_slices.push(slices_ms);
        }
        Ok(rep)
    });
    Ok(outcome(
        p,
        &tr,
        gate,
        spec.name,
        "repetitions (build, run, check against the single-threaded reference), \
         plus the single-threaded runs when traced",
        &reps,
        &single_slices,
    ))
}

/// Builds and runs `spec` single-threaded in the same slices as the
/// sharded repetitions. Returns its fingerprint and the host time of each
/// slice in milliseconds.
fn single_run(
    seed: u64,
    spec: &GraphSpec,
    sc: &Scenario,
    kind: BridgeKind,
    horizon: SimTime,
) -> Result<(Fingerprint, Vec<f64>), String> {
    let graph = RingGraph::named(spec.shape, spec.rings, seed)
        .ok_or_else(|| format!("unknown shape {}", spec.shape))?;
    let mut single = RingChainTestbed::graph(sc, kind, &graph);
    let mut slices_ms = Vec::new();
    run_sliced(
        &Tracer::new(false),
        0,
        horizon,
        spec.slices,
        &mut slices_ms,
        |until| single.try_run_until(until),
    )?;
    let bus = single.bus_mut();
    let digests = log_digests(|h, pt| bus.measurements().truth_log(h, pt).map(|l| l.digest()));
    let json = bus.telemetry_json();
    let fp = Fingerprint {
        events: bus.events(),
        digests,
        telemetry: fnv1a(json.as_bytes()),
        work: work_counts(&json),
    };
    Ok((fp, slices_ms))
}

fn graph_rep(
    tr: &Tracer,
    rep: u32,
    spec: &GraphSpec,
    sc: &Scenario,
    kind: BridgeKind,
    horizon: SimTime,
) -> Result<Rep, String> {
    let t = Instant::now();
    let graph = tr
        .span("core.graph_gen", rep, 0, || {
            RingGraph::named(spec.shape, spec.rings, sc.seed)
        })
        .ok_or_else(|| format!("unknown shape {}", spec.shape))?;
    let mut bus = tr.span("core.build", rep, 0, || {
        graph_topology(sc, kind, &graph).0.build_sharded(SHARDS)
    });
    bus.set_threads(THREADS);
    let setup_s = t.elapsed().as_secs_f64();
    if bus.shard_count() != SHARDS {
        return Err(format!(
            "{} fell back to {} shard(s)",
            spec.name,
            bus.shard_count()
        ));
    }
    if tr.enabled() {
        let edges = graph.pair_edges();
        tr.span("core.partition", rep, 0, || {
            partition_rings(graph.ring_count(), &edges, SHARDS)
        });
    }

    let cpu0 = sys::process_cpu_secs();
    let mut slices_ms = Vec::new();
    let run_s = run_sliced(tr, rep, horizon, spec.slices, &mut slices_ms, |until| {
        bus.try_run_until(until)
    })?;
    let cpu_s = sys::process_cpu_secs() - cpu0;
    let peak_rss_mb = own_peak_rss_mb();

    // Checks and counters, outside the timed region.
    let mut shard = ShardCounters::default();
    shard.add(&bus);
    let digests = log_digests(|h, pt| bus.truth_log(h, pt).map(|l| l.digest()));
    let json = tr.span("telemetry.json", rep, 0, || bus.telemetry_json());
    let fp = Fingerprint {
        events: bus.events(),
        digests,
        telemetry: fnv1a(json.as_bytes()),
        work: work_counts(&json),
    };
    Ok(Rep {
        traced: tr.enabled(),
        setup_s,
        slices_ms,
        analysis_s: 0.0,
        run_s,
        wall_s: run_s,
        cpu_s,
        peak_rss_mb,
        fp,
        telemetry_bytes: json.len(),
        samples: 0,
        nodes: bus.ring_count() + bus.host_count() + bus.bridge_count(),
        shard,
    })
}

fn own_peak_rss_mb() -> f64 {
    sys::peak_rss_mb(std::process::id()).unwrap_or(f64::NAN)
}

/// Wall time of the timed region with each step at its fastest
/// repetition.
fn filtered_wall_s(reps: &[&Rep]) -> f64 {
    let slices: Vec<&[f64]> = reps.iter().map(|r| r.slices_ms.as_slice()).collect();
    let analysis = reps.iter().map(|r| r.analysis_s).fold(f64::NAN, f64::min);
    stats::stepwise_min(&slices).iter().sum::<f64>() / 1e3 + analysis
}

/// Host times and rates are taken step by step at their fastest untraced
/// repetition; `single_slices` holds the slice times of the timed
/// single-threaded runs of a traced graph workload.
fn outcome(
    p: &Params,
    tr: &Tracer,
    gate: Gate,
    workload: &str,
    op_base: &'static str,
    reps: &[Rep],
    single_slices: &[Vec<f64>],
) -> Outcome {
    let (traced, untraced): (Vec<&Rep>, Vec<&Rep>) = reps.iter().partition(|r| r.traced);
    let col = |rs: &[&Rep], f: fn(&Rep) -> f64| rs.iter().map(|r| f(r)).collect::<Vec<f64>>();
    let slices: Vec<&[f64]> = untraced.iter().map(|r| r.slices_ms.as_slice()).collect();
    let cycles = stats::stepwise_min(&slices);
    let run_s = cycles.iter().sum::<f64>() / 1e3;
    let events = untraced.first().map_or(f64::NAN, |r| r.fp.events as f64);

    let mut end_to_end = BTreeMap::new();
    end_to_end.insert(
        "events_per_s",
        min_filtered(
            events / run_s,
            &col(&untraced, |r| r.fp.events as f64 / r.run_s),
        ),
    );
    end_to_end.insert(
        "wall_s",
        min_filtered(filtered_wall_s(&untraced), &col(&untraced, |r| r.wall_s)),
    );
    end_to_end.insert("setup_s", median_of(&col(&untraced, |r| r.setup_s)));
    let rss: Vec<f64> = reps.iter().take(RSS_REPS).map(|r| r.peak_rss_mb).collect();
    end_to_end.insert("peak_rss_mb", median_of(&rss));
    end_to_end.insert("cycle_p50_ms", cycle_quantile(&cycles, 0.5));
    end_to_end.insert("cycle_p90_ms", cycle_quantile(&cycles, 0.9));

    let mut layers = BTreeMap::new();
    if p.trace {
        let med = |xs: Vec<f64>| stats::median(&xs).unwrap_or(f64::NAN);
        for (metric, span) in [
            ("core.graph_gen_s", "core.graph_gen"),
            ("core.build_s", "core.build"),
            ("core.partition_s", "core.partition"),
            ("measure.set_s", "measure.set"),
            ("stats.hist_s", "stats.hist"),
            ("telemetry.json_s", "telemetry.json"),
        ] {
            let per_rep = tr.self_secs_per_rep(span);
            if !per_rep.is_empty() {
                layers.insert(metric, med(per_rep));
            }
        }
        if let Some(r) = traced.first() {
            layers.insert("core.nodes", r.nodes as f64);
            layers.insert("sim.events", r.fp.events as f64);
            layers.insert("telemetry.bytes", r.telemetry_bytes as f64);
            if r.samples > 0 {
                layers.insert("measure.samples", r.samples as f64);
            }
            for (name, n) in &r.fp.work {
                layers.insert(name, *n as f64);
            }
            r.shard.insert_layers(&mut layers, r.fp.events as f64);
        }
        let traced_run_s = med(tr.self_secs_per_rep("sim.run_until"));
        let events = traced.first().map_or(f64::NAN, |r| r.fp.events as f64);
        layers.insert("sim.run_s", traced_run_s);
        layers.insert("sim.ns_per_event", traced_run_s / events * 1e9);
        layers.insert("sim.cpu_per_wall", med(col(&traced, |r| r.cpu_s / r.run_s)));
        if !single_slices.is_empty() {
            // Both sides untraced, each slice at its fastest run.
            let single: Vec<&[f64]> = single_slices.iter().map(Vec::as_slice).collect();
            let single_s = stats::stepwise_min(&single).iter().sum::<f64>() / 1e3;
            layers.insert("shard.speedup_vs_single", single_s / run_s);
        }
        layers.insert(
            "trace.overhead",
            filtered_wall_s(&traced) / filtered_wall_s(&untraced) - 1.0,
        );
    }
    Outcome {
        gate,
        op_base,
        end_to_end,
        layers,
        notes: vec![pooled_cycle_note(&slices)],
        trace_json: p.trace.then(|| tr.to_json(workload, p.seed)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn work_counts_sum_top_level_counters_only() {
        let json = "{\n  \"metrics\": {\n    \"measure.drops\": {\"counter\": 2},\n    \
                    \"router.bridge0.forwarded_ab\": {\"counter\": 5},\n    \
                    \"router.bridge1.forwarded_p2\": {\"counter\": 1},\n    \
                    \"tokenring.ring0.frames_sent\": {\"counter\": 7},\n    \
                    \"tokenring.ring1.frames_sent\": {\"counter\": 3}\n  },\n  \
                    \"events\": [],\n  \"phases\": [\n    {\"name\": \"p\", \"metrics\": {\n      \
                    \"measure.drops\": {\"counter\": 100}}}\n  ]\n}";
        let got: BTreeMap<_, _> = work_counts(json).into_iter().collect();
        assert_eq!(got["measure.drops"], 2);
        assert_eq!(got["router.forwarded"], 6);
        assert_eq!(got["tokenring.frames_sent"], 10);
        assert_eq!(got["tokenring.purges"], 0);
    }

    #[test]
    fn every_repetition_has_a_hundred_cycles() {
        // p90 of the cycle latencies needs ten cycles beyond it.
        let paper: u64 = PAPER_CASES.iter().map(|(secs, slice)| secs / slice).sum();
        assert!(paper >= 100);
        for (secs, slice) in PAPER_CASES {
            assert_eq!(secs % slice, 0, "slices must tile the horizon");
        }
    }
}
