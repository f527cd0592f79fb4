//! `ctms-perfbench` — end-to-end and per-layer benchmark of the CTMS
//! simulator.
//!
//! ```text
//! ctms-perfbench --workload NAME --seed N --seconds S --trace 0|1
//!                --serve-bin PATH
//! ```
//!
//! Workloads: `paper-ab`, `city-tree`, `fddi-thin`, `serve-steer` (see
//! `perfbench/README.md`). Each repeats a fixed unit of work until `S`
//! seconds have passed (and at least often enough for its percentiles),
//! checks every simulated result, prints a human-readable table, and
//! prints one JSON object as the last line of stdout: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.

mod batch;
mod stats;
mod steer;
mod sys;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;
use trace::Tracer;

/// End-to-end metrics: name and unit. Every workload reports all of them.
pub const END_TO_END: [(&str, &str); 6] = [
    ("events_per_s", "1/s"),
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("cycle_p50_ms", "ms"),
    ("cycle_p90_ms", "ms"),
];

/// Per-layer metrics: name and unit. A layer a workload does not
/// exercise reads 0 and is listed as absent on stderr.
pub const PER_LAYER: [(&str, &str); 45] = [
    ("core.graph_gen_s", "s"),
    ("core.build_s", "s"),
    ("core.partition_s", "s"),
    ("core.nodes", "count"),
    ("sim.run_s", "s"),
    ("sim.events", "count"),
    ("sim.ns_per_event", "ns"),
    ("sim.cpu_per_wall", "ratio"),
    ("shard.windows", "count"),
    ("shard.sync_instants", "count"),
    ("shard.mail_rounds", "count"),
    ("shard.events_per_window", "count"),
    ("shard.idle_window_fraction", "ratio"),
    ("shard.imbalance", "ratio"),
    ("shard.mailbox_sent", "count"),
    ("shard.speedup_vs_single", "x"),
    ("persist.ckpt_bytes", "bytes"),
    ("persist.write_s", "s"),
    ("persist.read_s", "s"),
    ("persist.write_mb_per_s", "MB/s"),
    ("persist.read_mb_per_s", "MB/s"),
    ("telemetry.json_s", "s"),
    ("telemetry.bytes", "bytes"),
    ("fork.s", "s"),
    ("serve.req_p50_ms.run", "ms"),
    ("serve.req_p50_ms.telemetry", "ms"),
    ("serve.req_p50_ms.checkpoint", "ms"),
    ("serve.req_p50_ms.restore", "ms"),
    ("serve.req_p50_ms.steer", "ms"),
    ("serve.req_p50_ms.fork", "ms"),
    ("serve.overhead_ms.checkpoint", "ms"),
    ("serve.overhead_ms.restore", "ms"),
    ("measure.set_s", "s"),
    ("stats.hist_s", "s"),
    ("measure.samples", "count"),
    ("tokenring.frames_sent", "count"),
    ("tokenring.purges", "count"),
    ("unixkern.irqs_dispatched", "count"),
    ("unixkern.jobs_done", "count"),
    ("unixkern.mbuf_waits", "count"),
    ("rtpc.cpu_stall_ns", "ns"),
    ("router.forwarded", "count"),
    ("measure.presented", "count"),
    ("measure.drops", "count"),
    ("trace.overhead", "ratio"),
];

/// What one invocation was asked to do.
pub struct Params {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub serve_bin: Option<String>,
}

/// Counts attempted and failed operations; a failure is kept with its
/// reason instead of aborting the run.
#[derive(Default)]
pub struct Gate {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Gate {
    /// Records one operation and whether its outputs checked out.
    pub fn op(&mut self, check: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = check {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(why);
            }
        }
    }
}

/// An end-to-end metric value with the number of samples behind it and
/// their spread (interquartile distance over the median) within the run.
pub struct Measured {
    pub value: f64,
    pub samples: usize,
    pub spread: Option<f64>,
}

/// Everything a workload run reports.
pub struct Outcome {
    pub gate: Gate,
    /// What one attempted operation is, for the failed-ratio base.
    pub op_base: &'static str,
    pub end_to_end: BTreeMap<&'static str, Measured>,
    pub layers: BTreeMap<&'static str, f64>,
    /// Extra lines for the human-readable table.
    pub notes: Vec<String>,
    /// Span dump of the traced run.
    pub trace_json: Option<String>,
}

fn main() {
    let params = match parse_args(std::env::args().skip(1)) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("ctms-perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let outcome = match params.1.as_str() {
        "paper-ab" => batch::paper_ab(&params.0),
        "city-tree" => batch::graph(&params.0, &batch::CITY_TREE),
        "fddi-thin" => batch::graph(&params.0, &batch::FDDI_THIN),
        "serve-steer" => steer::serve_steer(&params.0),
        other => {
            eprintln!("ctms-perfbench: unknown workload {other}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("ctms-perfbench: {}: {e}", params.1);
            std::process::exit(1);
        }
    };
    if let Some(json) = &outcome.trace_json {
        let dir = std::path::Path::new(".bench_trace");
        let path = dir.join(format!("{}-seed{}.json", params.1, params.0.seed));
        match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, json)) {
            Ok(()) => eprintln!("# spans written to {}", path.display()),
            Err(e) => eprintln!("# cannot write {}: {e}", path.display()),
        }
    }
    print!("{}", report(&params.1, &params.0, &outcome));
}

const USAGE: &str = "usage: ctms-perfbench --workload paper-ab|city-tree|fddi-thin|serve-steer \
                     --seed N --seconds S --trace 0|1 [--serve-bin PATH]";

fn parse_args(args: impl Iterator<Item = String>) -> Result<(Params, String), String> {
    let mut workload = None;
    let mut params = Params {
        seed: 42,
        seconds: 10.0,
        trace: false,
        serve_bin: None,
    };
    let mut it = args;
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => params.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                params.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(params.seconds > 0.0 && params.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                params.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other}: expected 0 or 1")),
                }
            }
            "--serve-bin" => params.serve_bin = Some(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok((params, workload))
}

/// The human-readable table followed by the one-line JSON result.
fn report(workload: &str, params: &Params, o: &Outcome) -> String {
    let mut out = String::new();
    let g = &o.gate;
    let _ = writeln!(
        out,
        "# {workload} seed={} trace={} cores={}",
        params.seed,
        u8::from(params.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let _ = writeln!(
        out,
        "# failed_ratio = {} / {} = {} (base: {})",
        g.failed,
        g.attempted,
        g.failed as f64 / g.attempted.max(1) as f64,
        o.op_base
    );
    for why in &g.failures {
        let _ = writeln!(out, "# FAILED: {why}");
    }
    for note in &o.notes {
        let _ = writeln!(out, "# {note}");
    }
    let mut metrics = Vec::new();
    let mut bad_value = false;
    if params.trace {
        for (name, unit) in PER_LAYER {
            let v = o.layers.get(name).copied();
            if v.is_none() {
                eprintln!("# {name}: absent (layer not exercised by {workload})");
            }
            let v = v.unwrap_or(0.0);
            bad_value |= !v.is_finite();
            let _ = writeln!(out, "#   {name:<32} {v:>16.6} {unit}");
            metrics.push((name, v, unit));
        }
    } else {
        for (name, unit) in END_TO_END {
            let m = o.end_to_end.get(name);
            let (v, n) = m.map_or((f64::NAN, 0), |m| (m.value, m.samples));
            let spread = m
                .and_then(|m| m.spread)
                .map_or(String::new(), |s| format!(", iqr/median={s:.4}"));
            bad_value |= !v.is_finite();
            let _ = writeln!(out, "#   {name:<14} {v:>16.6} {unit:<4} (n={n}{spread})");
            metrics.push((name, v, unit));
        }
    }
    let correct = g.failed == 0 && g.attempted > 0 && !bad_value;
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    let _ = writeln!(
        out,
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        g.attempted.max(1),
        g.failed,
        body.join(", ")
    );
    out
}

/// Stop repeating after this long even if the minimum count is not met,
/// so a run always ends well inside its time limit.
const HARD_STOP_SECS: f64 = 120.0;

/// Repeats `one` until `p.seconds` have passed and at least `min`
/// untraced (and, when tracing, as many traced) repetitions succeeded.
/// With tracing on, repetitions alternate untraced and traced so the two
/// are measured under the same conditions. `one` gets the repetition
/// index and the gate for its own checks; a failed repetition is counted
/// in the gate, not fatal.
pub fn repeat<T>(
    p: &Params,
    tr: &Tracer,
    gate: &mut Gate,
    min: usize,
    mut one: impl FnMut(u32, &mut Gate) -> Result<T, String>,
) -> Vec<T> {
    let start = Instant::now();
    let mut done = [0usize; 2];
    let mut items = Vec::new();
    for i in 0u32.. {
        let traced = p.trace && i % 2 == 1;
        tr.set_enabled(traced);
        let result = one(i, gate);
        tr.set_enabled(false);
        match result {
            Ok(item) => {
                items.push(item);
                done[usize::from(traced)] += 1;
            }
            Err(e) => gate.op(Err(format!("repetition {i}: {e}"))),
        }
        let enough = done[0] >= min && (!p.trace || done[1] >= min);
        let elapsed = start.elapsed().as_secs_f64();
        if (enough && elapsed >= p.seconds) || elapsed >= HARD_STOP_SECS {
            break;
        }
    }
    items
}

/// The median over repetitions of a per-repetition value, with their
/// count and spread.
pub fn median_of(per_rep: &[f64]) -> Measured {
    Measured {
        value: stats::median(per_rep).unwrap_or(f64::NAN),
        samples: per_rep.len(),
        spread: stats::relative_iqr(per_rep),
    }
}

/// A host time or rate computed from per-step minima (see
/// [`stats::stepwise_min`]), with the per-repetition values it
/// summarizes (their count and spread).
pub fn min_filtered(value: f64, per_rep: &[f64]) -> Measured {
    Measured {
        value,
        samples: per_rep.len(),
        spread: stats::relative_iqr(per_rep),
    }
}

/// Quantile `q` of the per-step minimum cycle latencies: the cost of
/// each cycle position at its least disturbed repetition, over the
/// positions. This is not a latency tail of any one run (see
/// [`pooled_cycle_note`]).
pub fn cycle_quantile(best_ms: &[f64], q: f64) -> Measured {
    Measured {
        value: stats::quantile(best_ms, q).unwrap_or(f64::NAN),
        samples: best_ms.len(),
        spread: None,
    }
}

/// The table line with the latency tail of the raw cycles of every
/// repetition pooled: p50, p90 and the highest percentile that has at
/// least ten cycles beyond it. These move with the host's speed mode, so
/// they are printed next to the end-to-end percentiles, not reported.
pub fn pooled_cycle_note(per_rep: &[&[f64]]) -> String {
    let pooled: Vec<f64> = per_rep.iter().flat_map(|c| c.iter().copied()).collect();
    let n = pooled.len();
    let q = |p: u32| stats::quantile(&pooled, f64::from(p) / 100.0).unwrap_or(f64::NAN);
    match stats::tail_percentile(n) {
        Some(p) => format!(
            "pooled cycles of {} repetitions: p50 {:.6} ms, p90 {:.6} ms, p{p} {:.6} ms \
             ({n} cycles, {} beyond p{p})",
            per_rep.len(),
            q(50),
            q(90),
            q(p),
            n * (100 - p as usize) / 100
        ),
        None => format!("pooled cycles: only {n}"),
    }
}
