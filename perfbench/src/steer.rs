//! The `serve-steer` workload: a closed loop with one client driving a
//! `serve` child over its JSON-lines protocol, one request outstanding
//! at a time.
//!
//! A session spawns `serve` on a 16-ring chain at two shards and runs a
//! fixed script of steering cycles. A cycle is `run` (+200 ms simulated)
//! → `telemetry` → `checkpoint` → `restore` with the returned hex; every
//! tenth cycle also does a `steer` and a two-branch `fork`. Sessions are
//! repeated; every reply must be `ok`, each `restore` must report the
//! status its `checkpoint` was taken at, and every session's transcript
//! must match the first one line for line.
//!
//! The traced run also replays the same script in-process through the
//! library calls `serve` makes, which gives the persist, telemetry and
//! fork layers and the protocol overhead over them.

use crate::batch::{work_counts, ShardCounters};
use crate::trace::Tracer;
use crate::{
    cycle_quantile, median_of, min_filtered, pooled_cycle_note, repeat, stats, sys, Gate, Outcome,
    Params,
};
use ctms_core::{
    apply_mutations, fork, graph_topology, partition_rings, Bus, ForkSpec, Mutation,
    RingChainTestbed, RingGraph, Scenario, ShardedBus,
};
use ctms_router::BridgeKind;
use ctms_sim::telemetry::fnv1a;
use ctms_sim::SimTime;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::Instant;

const RINGS: usize = 16;
const SHARDS: usize = 2;
/// Simulated time each `run` request advances.
const RUN_MS: u64 = 200;
/// Steering cycles per session.
const CYCLES: u32 = 100;
/// Every this many cycles, a `steer` and a `fork` follow the restore.
const STEER_EVERY: u32 = 10;
/// Sessions a run makes at least: each request's minimum is taken over
/// them (see [`stats::stepwise_min`]).
const MIN_SESSIONS: usize = 5;

/// The seed-derived steering inputs of a session.
#[derive(Clone, Copy)]
struct Script {
    seed: u64,
    storm_ring: usize,
    storm_count: u32,
    churn_ring: usize,
}

impl Script {
    fn new(seed: u64) -> Script {
        // SplitMix64 finalizer: spreads nearby seeds over the rings.
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        Script {
            seed,
            storm_ring: (z % RINGS as u64) as usize,
            storm_count: 1 + ((z >> 8) % 3) as u32,
            churn_ring: ((z >> 16) % RINGS as u64) as usize,
        }
    }

    fn session_line(&self) -> String {
        format!(
            "{{\"scenario\":\"chain\",\"rings\":{RINGS},\"shards\":{SHARDS},\"seed\":{}}}",
            self.seed
        )
    }

    fn steer_mutations(&self) -> Vec<Mutation> {
        vec![Mutation::PurgeStorm {
            ring: self.storm_ring,
            count: self.storm_count,
        }]
    }

    fn steer_line(&self) -> String {
        format!(
            "{{\"cmd\":\"steer\",\"mutations\":[{{\"kind\":\"purge_storm\",\"ring\":{},\"count\":{}}}]}}",
            self.storm_ring, self.storm_count
        )
    }

    fn fork_branches(&self, run_to: SimTime) -> Vec<ForkSpec> {
        vec![
            ForkSpec {
                mutations: Vec::new(),
                run_to,
            },
            ForkSpec {
                mutations: vec![Mutation::StationChurn {
                    ring: self.churn_ring,
                }],
                run_to,
            },
        ]
    }

    fn fork_line(&self, until_ms: u64) -> String {
        format!(
            "{{\"cmd\":\"fork\",\"branches\":[[],[{{\"kind\":\"station_churn\",\"ring\":{}}}]],\"until_ms\":{until_ms}}}",
            self.churn_ring
        )
    }
}

/// The `serve` status fragment of a reply (`"now_ms":…,"purge_starts":N`).
fn status_of(reply: &str) -> Option<&str> {
    let at = reply.find("\"now_ms\":")?;
    reply[at..].strip_suffix('}')
}

fn events_of(status: &str) -> Option<u64> {
    let rest = &status[status.find("\"events\":")? + "\"events\":".len()..];
    rest.split(',').next()?.parse().ok()
}

/// The status fragment `serve` would print for `bus`.
fn status_line(bus: &ShardedBus) -> String {
    let parts = bus.measure_parts();
    let presented: usize = parts.iter().map(|m| m.presented().len()).sum();
    let purges: usize = parts.iter().map(|m| m.purge_starts().len()).sum();
    format!(
        "\"now_ms\":{},\"events\":{},\"presented\":{presented},\"purge_starts\":{purges}",
        bus.now().as_ns() / 1_000_000,
        bus.events()
    )
}

/// One request of a session: its span name, the cycle it belongs to
/// (`None` for `quit`) and its host time.
#[derive(Clone, Copy)]
struct Step {
    kind: &'static str,
    cycle: Option<u32>,
    ms: f64,
}

/// One session's client-side measurements.
struct Session {
    traced: bool,
    /// Spawn until the `ready` reply.
    setup_s: f64,
    peak_rss_mb: f64,
    /// Simulated events serviced by the `run` requests.
    run_events: u64,
    /// Every request after `ready`, in script order.
    steps: Vec<Step>,
    /// Status fragments after each `run` and `steer`, in order, for the
    /// in-process replay to match.
    statuses: Vec<String>,
}

struct Client {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
}

impl Client {
    fn spawn(bin: &str) -> Result<Client, String> {
        let mut child = Command::new(bin)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {bin}: {e}"))?;
        let stdin = child.stdin.take().expect("stdin was piped");
        let stdout = BufReader::new(child.stdout.take().expect("stdout was piped"));
        Ok(Client {
            child,
            stdin,
            stdout,
        })
    }

    fn send(&mut self, line: &str) -> Result<String, String> {
        self.stdin
            .write_all(line.as_bytes())
            .and_then(|()| self.stdin.write_all(b"\n"))
            .and_then(|()| self.stdin.flush())
            .map_err(|e| format!("write to serve: {e}"))?;
        self.read()
    }

    fn read(&mut self) -> Result<String, String> {
        let mut reply = String::new();
        match self.stdout.read_line(&mut reply) {
            Ok(0) => Err("serve closed its output".to_string()),
            Ok(_) => {
                reply.truncate(reply.trim_end().len());
                Ok(reply)
            }
            Err(e) => Err(format!("read from serve: {e}")),
        }
    }
}

impl Drop for Client {
    fn drop(&mut self) {
        // A session that failed midway must not leave its child behind.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Checks one reply, the operation's verdict for the gate.
fn verdict(
    reply: &str,
    event: &str,
    transcript: Option<&u64>,
    expect_status: Option<&str>,
) -> Result<(), String> {
    if !reply.starts_with("{\"ok\":true") {
        let head: String = reply.chars().take(200).collect();
        return Err(format!("not ok: {head}"));
    }
    if !reply.contains(&format!("\"event\":\"{event}\"")) && !event.is_empty() {
        return Err(format!("expected a {event} reply"));
    }
    if let Some(want) = expect_status {
        if status_of(reply) != Some(want) {
            return Err(format!(
                "restore reported {:?}, checkpoint was taken at {want}",
                status_of(reply)
            ));
        }
    }
    if transcript.is_some_and(|&h| h != fnv1a(reply.as_bytes())) {
        return Err("reply differs from the first session's transcript".to_string());
    }
    Ok(())
}

/// Sends one request, recording its host time as a step and, when
/// tracing, as span `kind`.
fn timed(
    tr: &Tracer,
    rep: u32,
    cycle: Option<u32>,
    kind: &'static str,
    client: &mut Client,
    line: &str,
    steps: &mut Vec<Step>,
) -> Result<String, String> {
    let t = Instant::now();
    let reply = tr.span(kind, rep, cycle.unwrap_or(0), || client.send(line))?;
    steps.push(Step {
        kind,
        cycle,
        ms: t.elapsed().as_secs_f64() * 1e3,
    });
    Ok(reply)
}

/// Runs one session: spawn, the cycle script, quit. Every request is
/// one gate operation.
fn session(
    bin: &str,
    script: &Script,
    tr: &Tracer,
    rep: u32,
    gate: &mut Gate,
    transcript: &mut Vec<u64>,
) -> Result<Session, String> {
    let first = transcript.is_empty();
    let mut line_no = 0usize;
    // Checks a reply and appends it to (or matches it against) the
    // first session's transcript.
    let mut check = |gate: &mut Gate, reply: &str, event: &str, want: Option<&str>| {
        let expected = if first {
            transcript.push(fnv1a(reply.as_bytes()));
            None
        } else {
            transcript.get(line_no).or(Some(&0))
        };
        gate.op(verdict(reply, event, expected, want));
        line_no += 1;
    };

    let t_session = Instant::now();
    let (mut client, ready) = tr.span("serve.spawn", rep, 0, || {
        let mut client = Client::spawn(bin)?;
        let ready = client.send(&script.session_line())?;
        Ok::<_, String>((client, ready))
    })?;
    let setup_s = t_session.elapsed().as_secs_f64();
    check(gate, &ready, "ready", None);

    let mut steps = Vec::new();
    let mut statuses = Vec::new();
    let mut run_events = 0;
    let mut events = status_of(&ready).and_then(events_of).unwrap_or(0);
    for c in 0..CYCLES {
        let until_ms = (u64::from(c) + 1) * RUN_MS;
        tr.span("serve.cycle", rep, c, || -> Result<(), String> {
            let mut send = |kind: &'static str, line: &str| {
                timed(tr, rep, Some(c), kind, &mut client, line, &mut steps)
            };
            let ran = send(
                "serve.run",
                &format!("{{\"cmd\":\"run\",\"until_ms\":{until_ms}}}"),
            )?;
            check(gate, &ran, "ran", None);
            let status = status_of(&ran).unwrap_or_default().to_string();
            let after = events_of(&status).unwrap_or(events);
            run_events += after.saturating_sub(events);
            events = after;
            statuses.push(status.clone());

            let tele = send("serve.telemetry", "{\"cmd\":\"telemetry\"}")?;
            check(gate, &tele, "", None);

            let ckpt = send("serve.checkpoint", "{\"cmd\":\"checkpoint\"}")?;
            check(gate, &ckpt, "", None);
            let hex = ckpt
                .split_once("\"checkpoint\":\"")
                .and_then(|(_, rest)| rest.split_once('"'))
                .map(|(hex, _)| hex)
                .ok_or("checkpoint reply without hex")?;
            let restore = format!("{{\"cmd\":\"restore\",\"checkpoint\":\"{hex}\"}}");
            drop(ckpt);
            let restored = send("serve.restore", &restore)?;
            check(gate, &restored, "restored", Some(&status));

            if (c + 1) % STEER_EVERY == 0 {
                let steered = send("serve.steer", &script.steer_line())?;
                check(gate, &steered, "steered", None);
                let status = status_of(&steered).unwrap_or_default().to_string();
                events = events_of(&status).unwrap_or(events);
                statuses.push(status);
                let forked = send("serve.fork", &script.fork_line(until_ms + RUN_MS))?;
                check(gate, &forked, "forked", None);
            }
            Ok(())
        })?;
    }

    let peak_rss_mb = sys::peak_rss_mb(client.child.id()).unwrap_or(f64::NAN);
    let bye = timed(
        tr,
        rep,
        None,
        "serve.quit",
        &mut client,
        "{\"cmd\":\"quit\"}",
        &mut steps,
    )?;
    check(gate, &bye, "bye", None);
    let status = client
        .child
        .wait()
        .map_err(|e| format!("wait for serve: {e}"))?;
    if !status.success() {
        return Err(format!("serve exited with {status}"));
    }
    Ok(Session {
        traced: tr.enabled(),
        setup_s,
        peak_rss_mb,
        run_events,
        steps,
        statuses,
    })
}

impl Session {
    /// Host seconds of this session's requests, or of those of one kind.
    fn secs(&self, kind: Option<&str>) -> f64 {
        self.steps
            .iter()
            .filter(|st| kind.is_none_or(|k| st.kind == k))
            .map(|st| st.ms)
            .sum::<f64>()
            / 1e3
    }

    /// Spawn to exit.
    fn wall_s(&self) -> f64 {
        self.setup_s + self.secs(None)
    }

    /// Latency of each steering cycle: the sum of its requests.
    fn cycles_ms(&self) -> Vec<f64> {
        let mut cycles = vec![0.0; CYCLES as usize];
        for st in &self.steps {
            if let Some(c) = st.cycle {
                cycles[c as usize] += st.ms;
            }
        }
        cycles
    }
}

/// Cycle latencies, `run` time and session wall time of `sessions`,
/// each request taken at its fastest session.
struct Filtered {
    cycles_ms: Vec<f64>,
    run_s: f64,
    wall_s: f64,
}

fn filtered(sessions: &[&Session]) -> Filtered {
    let steps: Vec<Vec<f64>> = sessions
        .iter()
        .map(|s| s.steps.iter().map(|st| st.ms).collect())
        .collect();
    let refs: Vec<&[f64]> = steps.iter().map(Vec::as_slice).collect();
    let fastest = stats::stepwise_min(&refs);
    let layout = sessions.first().map_or(&[][..], |s| s.steps.as_slice());
    let mut cycles_ms = vec![0.0; CYCLES as usize];
    let mut run_ms = 0.0;
    for (step, ms) in layout.iter().zip(&fastest) {
        if let Some(c) = step.cycle {
            cycles_ms[c as usize] += ms;
        }
        if step.kind == "serve.run" {
            run_ms += ms;
        }
    }
    let setup_s = sessions.iter().map(|s| s.setup_s).fold(f64::NAN, f64::min);
    Filtered {
        cycles_ms,
        run_s: run_ms / 1e3,
        wall_s: setup_s + fastest.iter().sum::<f64>() / 1e3,
    }
}

pub fn serve_steer(p: &Params) -> Result<Outcome, String> {
    let bin = p
        .serve_bin
        .as_deref()
        .ok_or("serve-steer needs --serve-bin")?;
    let script = Script::new(p.seed);
    let tr = Tracer::new(false);
    let mut gate = Gate::default();
    let mut transcript = Vec::new();
    let sessions = repeat(p, &tr, &mut gate, MIN_SESSIONS, |i, gate| {
        session(bin, &script, &tr, i, gate, &mut transcript)
    });

    let (traced, untraced): (Vec<&Session>, Vec<&Session>) =
        sessions.iter().partition(|s| s.traced);
    let col =
        |ss: &[&Session], f: &dyn Fn(&Session) -> f64| ss.iter().map(|s| f(s)).collect::<Vec<_>>();
    let f = filtered(&untraced);
    let cycles: Vec<Vec<f64>> = untraced.iter().map(|s| s.cycles_ms()).collect();
    let per_session: Vec<&[f64]> = cycles.iter().map(Vec::as_slice).collect();
    let run_events = untraced.first().map_or(f64::NAN, |s| s.run_events as f64);
    let mut end_to_end = BTreeMap::new();
    end_to_end.insert(
        "events_per_s",
        min_filtered(
            run_events / f.run_s,
            &col(&untraced, &|s| {
                s.run_events as f64 / s.secs(Some("serve.run"))
            }),
        ),
    );
    end_to_end.insert(
        "wall_s",
        min_filtered(f.wall_s, &col(&untraced, &Session::wall_s)),
    );
    end_to_end.insert("setup_s", median_of(&col(&untraced, &|s| s.setup_s)));
    end_to_end.insert(
        "peak_rss_mb",
        median_of(&col(&untraced, &|s| s.peak_rss_mb)),
    );
    end_to_end.insert("cycle_p50_ms", cycle_quantile(&f.cycles_ms, 0.5));
    end_to_end.insert("cycle_p90_ms", cycle_quantile(&f.cycles_ms, 0.9));

    let mut layers = BTreeMap::new();
    if p.trace {
        let ms_p50 = |name: &str| stats::median(&tr.durations(name)).map(|s| s * 1e3);
        for (metric, span) in [
            ("serve.req_p50_ms.run", "serve.run"),
            ("serve.req_p50_ms.telemetry", "serve.telemetry"),
            ("serve.req_p50_ms.checkpoint", "serve.checkpoint"),
            ("serve.req_p50_ms.restore", "serve.restore"),
            ("serve.req_p50_ms.steer", "serve.steer"),
            ("serve.req_p50_ms.fork", "serve.fork"),
        ] {
            if let Some(v) = ms_p50(span) {
                layers.insert(metric, v);
            }
        }
        let want: Vec<String> = traced
            .first()
            .or(untraced.first())
            .map(|s| s.statuses.clone())
            .unwrap_or_default();
        let replay_tr = Tracer::new(true);
        replay(p.seed, &script, &replay_tr, &want, &mut gate, &mut layers);
        // Request p50 minus the p50 of the same library work in-process.
        let lib_ms = |name: &str| stats::median(&replay_tr.durations(name)).map(|s| s * 1e3);
        for (metric, request, span) in [
            (
                "serve.overhead_ms.checkpoint",
                "serve.req_p50_ms.checkpoint",
                "persist.write",
            ),
            (
                "serve.overhead_ms.restore",
                "serve.req_p50_ms.restore",
                "replay.restore",
            ),
        ] {
            if let (Some(req), Some(lib)) = (layers.get(request).copied(), lib_ms(span)) {
                layers.insert(metric, req - lib);
            }
        }
        layers.insert("trace.overhead", filtered(&traced).wall_s / f.wall_s - 1.0);
    }
    Ok(Outcome {
        gate,
        op_base: "requests to serve, plus in-process replay checks when traced",
        end_to_end,
        layers,
        notes: vec![pooled_cycle_note(&per_session)],
        trace_json: p.trace.then(|| tr.to_json("serve-steer", p.seed)),
    })
}

/// Replays the session script in-process through the library calls
/// `serve` makes, on the same scenario, recording the layer metrics.
/// Each replayed status is checked against the session's `want`.
fn replay(
    seed: u64,
    script: &Script,
    tr: &Tracer,
    want: &[String],
    gate: &mut Gate,
    layers: &mut BTreeMap<&'static str, f64>,
) {
    let sc = Scenario::scaled_chain(seed);
    let kind = BridgeKind::cut_through_bridge();
    let graph = tr.span("core.graph_gen", 0, 0, || RingGraph::chain(RINGS));
    let edges = graph.pair_edges();
    tr.span("core.partition", 0, 0, || {
        partition_rings(graph.ring_count(), &edges, SHARDS)
    });
    let build = |c: u32| {
        tr.span("core.build", 0, c, || {
            graph_topology(&sc, kind, &graph).0.build_sharded(SHARDS)
        })
    };
    let build_single = {
        let sc = sc.clone();
        move || RingChainTestbed::chain(&sc, BridgeKind::cut_through_bridge(), RINGS).into_bus()
    };
    let mut bus = build(0);
    let nodes = bus.ring_count() + bus.host_count() + bus.bridge_count();
    let mut shard = ShardCounters::default();
    let (mut run_s, mut cpu_s, mut run_events) = (0.0, 0.0, 0u64);
    let mut ckpt_bytes = Vec::new();
    let mut tele_bytes = Vec::new();
    let mut last_telemetry = String::new();
    let mut statuses = want.iter();
    let mut expect = |gate: &mut Gate, got: String| {
        gate.op(match statuses.next() {
            Some(w) if *w == got => Ok(()),
            w => Err(format!(
                "in-process replay reached {got}, serve reported {w:?}"
            )),
        })
    };

    for c in 0..CYCLES {
        let until = SimTime::from_ms((u64::from(c) + 1) * RUN_MS);
        let before = bus.events();
        let (t, cpu0) = (Instant::now(), sys::process_cpu_secs());
        let ran = tr.span("sim.run_until", 0, c, || bus.try_run_until(until));
        cpu_s += sys::process_cpu_secs() - cpu0;
        run_s += t.elapsed().as_secs_f64();
        if let Err(e) = ran {
            gate.op(Err(format!("in-process replay cycle {c}: {e}")));
            return;
        }
        run_events += bus.events() - before;
        shard.add(&bus);
        expect(gate, status_line(&bus));

        last_telemetry = tr.span("telemetry.json", 0, c, || bus.telemetry_json());
        tele_bytes.push(last_telemetry.len() as f64);
        let snapshot = tr.span("persist.write", 0, c, || bus.checkpoint());
        ckpt_bytes.push(snapshot.len() as f64);
        let restored = tr.span("replay.restore", 0, c, || {
            let mut fresh = build(c);
            tr.span("persist.read", 0, c, || fresh.restore_checkpoint(&snapshot))
                .map(|()| fresh)
        });
        match restored {
            Ok(fresh) => bus = fresh,
            Err(e) => {
                gate.op(Err(format!("in-process restore, cycle {c}: {e}")));
                return;
            }
        }

        if (c + 1) % STEER_EVERY == 0 {
            // Sharded steering goes through a single-threaded rebuild,
            // exactly as `serve` does it.
            let steered = tr.span("replay.steer", 0, c, || {
                let snapshot = bus.checkpoint();
                let mut single: Bus = build_single();
                single.restore_checkpoint(&snapshot)?;
                apply_mutations(&mut single, &script.steer_mutations())?;
                let mut fresh = build(c);
                fresh.restore_checkpoint(&single.checkpoint())?;
                Ok::<_, ctms_sim::PersistError>(fresh)
            });
            match steered {
                Ok(fresh) => bus = fresh,
                Err(e) => {
                    gate.op(Err(format!("in-process steer, cycle {c}: {e}")));
                    return;
                }
            }
            expect(gate, status_line(&bus));
            let snapshot = bus.checkpoint();
            let branches =
                script.fork_branches(SimTime::from_ms(until.as_ns() / 1_000_000 + RUN_MS));
            let builder = build_single.clone();
            let forked = tr.span("fork", 0, c, || {
                fork(
                    snapshot,
                    branches,
                    ctms_sim::default_threads(2),
                    builder,
                    |_, branch: Bus| branch.events(),
                )
            });
            gate.op(forked
                .map(|_| ())
                .map_err(|e| format!("in-process fork: {e}")));
        }
    }

    let med = |xs: &[f64]| stats::median(xs).unwrap_or(f64::NAN);
    let p50 = |name: &str| med(&tr.durations(name));
    layers.insert("core.graph_gen_s", p50("core.graph_gen"));
    layers.insert("core.build_s", p50("core.build"));
    layers.insert("core.partition_s", p50("core.partition"));
    layers.insert("core.nodes", nodes as f64);
    layers.insert("sim.run_s", run_s);
    layers.insert("sim.events", run_events as f64);
    layers.insert("sim.ns_per_event", run_s / run_events as f64 * 1e9);
    layers.insert("sim.cpu_per_wall", cpu_s / run_s);
    shard.insert_layers(layers, run_events as f64);
    let bytes = med(&ckpt_bytes);
    let (write_s, read_s) = (p50("persist.write"), p50("persist.read"));
    layers.insert("persist.ckpt_bytes", bytes);
    layers.insert("persist.write_s", write_s);
    layers.insert("persist.read_s", read_s);
    layers.insert("persist.write_mb_per_s", bytes / 1e6 / write_s);
    layers.insert("persist.read_mb_per_s", bytes / 1e6 / read_s);
    layers.insert("telemetry.json_s", p50("telemetry.json"));
    layers.insert("telemetry.bytes", med(&tele_bytes));
    layers.insert("fork.s", p50("fork"));
    for (name, n) in work_counts(&last_telemetry) {
        layers.insert(name, n as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_fragment_and_events_parse() {
        let reply = "{\"ok\":true,\"event\":\"ran\",\"now_ms\":200,\"events\":1234,\
                     \"presented\":5,\"purge_starts\":0}";
        let status = status_of(reply).unwrap();
        assert_eq!(
            status,
            "\"now_ms\":200,\"events\":1234,\"presented\":5,\"purge_starts\":0"
        );
        assert_eq!(events_of(status), Some(1234));
        assert_eq!(status_of("{\"ok\":true,\"event\":\"bye\"}"), None);
    }

    #[test]
    fn verdict_flags_errors_status_drift_and_transcript_drift() {
        let ok = "{\"ok\":true,\"event\":\"restored\",\"now_ms\":1,\"events\":2,\
                  \"presented\":0,\"purge_starts\":0}";
        let want = "\"now_ms\":1,\"events\":2,\"presented\":0,\"purge_starts\":0";
        assert!(verdict(ok, "restored", None, Some(want)).is_ok());
        assert!(verdict(ok, "restored", None, Some("\"now_ms\":1")).is_err());
        assert!(verdict(ok, "ran", None, None).is_err());
        assert!(verdict("{\"ok\":false,\"error\":\"x\"}", "", None, None).is_err());
        let h = fnv1a(ok.as_bytes());
        assert!(verdict(ok, "restored", Some(&h), None).is_ok());
        assert!(verdict(ok, "restored", Some(&(h ^ 1)), None).is_err());
    }

    #[test]
    fn script_is_a_function_of_the_seed() {
        let (a, b) = (Script::new(7), Script::new(7));
        assert_eq!(a.steer_line(), b.steer_line());
        assert_eq!(a.fork_line(400), b.fork_line(400));
        assert!(a.storm_ring < RINGS && a.churn_ring < RINGS);
        assert!((1..=3).contains(&a.storm_count));
    }
}
