#!/usr/bin/env python3
"""Aggregate every checked-in BENCH_*.json into one trajectory table.

Each PR that lands a measured change checks in a machine-readable report
(BENCH_PR2.json, BENCH_PR4.json, ...). The formats differ by what the PR
measured — "ctms-repro-run/1" carries paper-claim checks, "ctms-perf/1"
through "ctms-perf/5" carry scheduler wall-clock results (/3 added
per-topology sections for the graph-shape benchmarks, /4 adds the
window-protocol efficiency counters and the fixed-lookahead ablation
baseline, /5 adds the optimistic-execution ablation with its
speculation counters and the requested-thread stamp) — so this script
normalizes all of them into a long-format
table: one row per headline metric, ordered by PR number. Sharded rows
carry an events-per-sync-instant column when the report recorded window
counters, and an "[opt]" ablation row (rollback count and speculation
efficiency) when the report measured optimistic execution. "ctms-perf/6"
reports add a capacity ("scale") section — per topology size, the build
wall time (with peak build bytes when the report was recorded with the
counting allocator), the steady-state events/sec with the shard counts
whose streamed checkpoints round-tripped byte-identically, and the
streaming-checkpoint write/read throughput in MB/s. "ctms-perf/7"
reports drop the retired ablations: each case row carries only the
indexed scheduler's run (no lazy-baseline speedup) and sharded rows
carry no fixed-lookahead or optimistic entries; older reports keep
rendering their "[fixed]"/"[opt]" rows unchanged. Malformed
reports (unparseable JSON, or a structurally broken
section) are listed on stderr and make the exit code non-zero — as does
a recorded sharded configuration running more than 10% slower than its
own single-threaded row, unless the report is flagged
"degraded_parallelism" (measured on one core, where sub-1.0x parallel
speedups are expected and documented). Stdlib only; run from anywhere:

    python3 scripts/bench_trend.py [repo-root]
    python3 scripts/bench_trend.py --selftest   # exercise the malformed
                                                # handling, exit 0 if OK
"""

import io
import json
import re
import sys
import tempfile
from pathlib import Path


def fmt_speedup(x):
    return f"{x:.2f}x"


def fmt_bytes(n):
    if n >= 1e9:
        return f"{n / 1e9:.1f} GB"
    if n >= 1e6:
        return f"{n / 1e6:.1f} MB"
    if n >= 1e3:
        return f"{n / 1e3:.1f} kB"
    return f"{n} B"


def rows_repro(report):
    """ctms-repro-run/1: per-experiment paper-claim pass counts."""
    total = passed = 0
    for exp in report.get("experiments", []):
        claims = exp.get("claims", [])
        total += len(claims)
        passed += sum(1 for c in claims if c.get("holds"))
    yield ("paper claims holding", f"{passed}/{total}")
    if passed < total:
        for exp in report.get("experiments", []):
            for c in exp.get("claims", []):
                if not c.get("holds"):
                    yield (f"  FAILED {exp['name']}.{c['id']}", str(c.get("measured")))


def fmt_ev_per_sync(run, window):
    """Events per sync instant — the protocol-efficiency headline of the
    /4 reports. Zero sync instants means the whole run needed no global
    barrier at all; shown as the full event count with a marker."""
    if not window or not run or run.get("events") is None:
        return ""
    sync = window.get("sync_instants", 0)
    eps = run["events"] / max(sync, 1)
    mark = " (no sync)" if sync == 0 else ""
    return f", {eps:,.0f} ev/sync{mark}"


def rows_sharded(label, section):
    """The single-vs-sharded block shared by chain and topology rows."""
    single = section["single"]["events_per_sec"]
    yield (f"{label} single-threaded", f"{single / 1e6:.2f}M ev/s")
    for s in section.get("sharded", []):
        threads = s.get("threads")
        t = f" threads={threads}" if threads is not None else ""
        parity = "parity OK" if s.get("ground_truth_parity") else "PARITY BROKEN"
        eps = fmt_ev_per_sync(s.get("run"), s.get("window"))
        yield (
            f"{label} shards={s['shards']}{t}",
            f"{fmt_speedup(s['speedup'])} ({parity}{eps})",
        )
        fixed = s.get("fixed_lookahead")
        if fixed:
            eps = fmt_ev_per_sync(fixed.get("run"), fixed.get("window"))
            reduction = fixed.get("sync_instant_reduction")
            red = f", {reduction:.0f}x more syncs" if reduction is not None else ""
            yield (
                f"{label} shards={s['shards']}{t} [fixed]",
                f"{fmt_speedup(fixed['speedup'])} (ablation{eps}{red})",
            )
        opt = s.get("optimistic")
        if opt:
            spec = opt["speculation"]
            eff = spec["speculation_efficiency"]
            yield (
                f"{label} shards={s['shards']}{t} [opt]",
                f"{fmt_speedup(opt['speedup'])} (ablation, "
                f"{spec['rollbacks']} rollbacks, {eff:.1%} efficient)",
            )


def rows_scale(scale):
    """ctms-perf/6: the city-scale capacity section — per topology size,
    build wall time, steady-state events/sec, and streaming-checkpoint
    throughput. Parity here means the run's ground-truth digests matched
    the single-threaded run AND the streamed checkpoint round-tripped
    byte-identically at every listed shard count."""
    shape = scale["shape"]
    for e in scale["entries"]:
        label = f"{shape}/{e['rings']} [scale]"
        run = e["run"]
        ck = e["checkpoint"]
        parity = "parity OK" if e["ground_truth_parity"] else "PARITY BROKEN"
        shards = ",".join(str(s) for s in e["stream_parity_shards"])
        peak = e["build_peak_bytes"]
        peak_txt = f", peak {fmt_bytes(peak)}" if peak is not None else ""
        yield (
            f"{label} build",
            f"{e['nodes']} nodes in {e['build_wall_secs']:.2f}s{peak_txt}",
        )
        yield (
            f"{label} run",
            f"{run['events_per_sec'] / 1e6:.2f}M ev/s "
            f"({parity}, stream shards {shards})",
        )
        yield (
            f"{label} checkpoint",
            f"{fmt_bytes(ck['bytes'])} in {ck['chunks']} chunks, "
            f"write {ck['write_mb_per_sec']:.0f} MB/s, "
            f"read {ck['read_mb_per_sec']:.0f} MB/s",
        )


def report_degraded(report):
    """True when the report was measured without real parallelism.
    Older reports predate the explicit flag; infer it from the core
    count so single-core numbers are always treated as degraded."""
    cores = report.get("cores")
    inferred = cores == 1 if cores is not None else False
    return bool(report.get("degraded_parallelism", inferred))


def sharded_regressions(report):
    """Sharded configurations running >10% slower than their own
    single-threaded row — the conservative row and, when the report
    measured it, the optimistic ablation too (speculation that is >10%
    below single-threaded on real cores means rollback churn ate the
    parallelism and must not land silently). Exempt on
    degraded_parallelism reports: on one core the window protocol runs
    inline, so sub-1.0x is the expected (and separately flagged) shape,
    not a regression."""
    if not report.get("format", "").startswith("ctms-perf/"):
        return []
    if report_degraded(report):
        return []
    sections = []
    chain = report.get("chain")
    if chain:
        sections.append((f"chain/{chain['rings']}", chain))
    for topo in report.get("topologies") or []:
        sections.append((f"{topo['shape']}/{topo['rings']}", topo))
    found = []
    for label, section in sections:
        for s in section.get("sharded", []):
            if s["speedup"] < 0.9:
                found.append(
                    f"{label} shards={s['shards']}: "
                    f"{fmt_speedup(s['speedup'])} vs single-threaded"
                )
            opt = s.get("optimistic")
            if opt and opt["speedup"] < 0.9:
                found.append(
                    f"{label} shards={s['shards']} [opt]: "
                    f"{fmt_speedup(opt['speedup'])} vs single-threaded"
                )
    return found


def rows_perf(report):
    """ctms-perf/1 and later: case throughput (with the indexed-vs-lazy
    speedup through /6), allocs, sharded chain, and (since /3)
    per-topology graph-shape results."""
    cores = report.get("cores")
    if cores is not None:
        note = ", DEGRADED PARALLELISM" if report_degraded(report) else ""
        yield ("measured on", f"{cores} core(s){note}")
    for case in report.get("cases", []):
        ev = case["indexed"]["events_per_sec"]
        if "speedup" in case:
            yield (
                f"{case['name']} indexed vs lazy",
                f"{fmt_speedup(case['speedup'])} ({ev / 1e6:.2f}M ev/s)",
            )
        else:
            yield (f"{case['name']} indexed", f"{ev / 1e6:.2f}M ev/s")
    steady = report.get("steady_state")
    if steady:
        yield (
            "steady-state allocs/event (indexed)",
            f"{steady['indexed']['allocs_per_event']:g}",
        )
    chain = report.get("chain")
    if chain:
        yield from rows_sharded(f"chain/{chain['rings']}", chain)
    for topo in report.get("topologies") or []:
        yield from rows_sharded(f"{topo['shape']}/{topo['rings']}", topo)
    scale = report.get("scale")
    if scale:
        yield from rows_scale(scale)


def rows_for(report):
    fmt = report.get("format", "")
    if fmt.startswith("ctms-repro-run/"):
        return list(rows_repro(report))
    if fmt.startswith("ctms-perf/"):
        return list(rows_perf(report))
    return [("unrecognized format", fmt or "<missing>")]


def pr_number(path):
    m = re.search(r"BENCH_PR(\d+)", path.name)
    return int(m.group(1)) if m else 10**9


def render(root, out, err):
    reports = sorted(root.glob("BENCH_*.json"), key=pr_number)
    if not reports:
        print(f"no BENCH_*.json under {root}", file=err)
        return 1
    table = []
    malformed = []
    regressions = []
    for path in reports:
        try:
            report = json.loads(path.read_text())
            rows = rows_for(report)
            regressions += [(path, r) for r in sharded_regressions(report)]
        except (OSError, json.JSONDecodeError) as e:
            malformed.append((path, e))
            continue
        except (KeyError, TypeError, AttributeError) as e:
            # Parseable JSON, broken structure — a chain or topology
            # section missing a required key is as malformed as bad
            # syntax, and must not pass silently.
            malformed.append((path, f"bad section structure: {e!r}"))
            continue
        for metric, value in rows:
            table.append((path.name, metric, value))
    if table:
        w0 = max(len(r[0]) for r in table)
        w1 = max(len(r[1]) for r in table)
        print(f"{'report':{w0}}  {'metric':{w1}}  value", file=out)
        print(f"{'-' * w0}  {'-' * w1}  {'-' * 5}", file=out)
        last = None
        for name, metric, value in table:
            shown = name if name != last else ""
            last = name
            print(f"{shown:{w0}}  {metric:{w1}}  {value}", file=out)
    failed = False
    if malformed:
        for path, e in malformed:
            print(f"bench_trend: {path.name} is malformed: {e}", file=err)
        print(
            f"bench_trend: {len(malformed)} malformed report(s) — "
            "re-record with `cargo run -p ctms-bench --bin perf -- --json <path>`",
            file=err,
        )
        failed = True
    if regressions:
        for path, r in regressions:
            print(f"bench_trend: {path.name}: sharded regression: {r}", file=err)
        print(
            f"bench_trend: {len(regressions)} sharded configuration(s) >10% below "
            "their single-threaded row on a multi-core measurement",
            file=err,
        )
        failed = True
    return 1 if failed else 0


WELL_FORMED = {
    "format": "ctms-perf/3",
    "cores": 4,
    "degraded_parallelism": False,
    "cases": [
        {
            "name": "case_a",
            "indexed": {"events_per_sec": 2.5e6},
            "speedup": 1.5,
        }
    ],
    "chain": {
        "rings": 128,
        "single": {"events_per_sec": 3.0e6},
        "sharded": [
            {"shards": 2, "threads": 2, "speedup": 1.4, "ground_truth_parity": True}
        ],
    },
    "topologies": [
        {
            "shape": "tree",
            "rings": 1024,
            "single": {"events_per_sec": 2.0e6},
            "sharded": [
                {"shards": 4, "threads": 4, "speedup": 1.8, "ground_truth_parity": True}
            ],
        }
    ],
}


WELL_FORMED_V4 = {
    "format": "ctms-perf/4",
    "cores": 4,
    "degraded_parallelism": False,
    "cases": [
        {
            "name": "case_a",
            "indexed": {"events_per_sec": 2.5e6},
            "speedup": 1.5,
        }
    ],
    "chain": {
        "rings": 32,
        "single": {"events_per_sec": 5.0e6},
        "sharded": [
            {
                "shards": 2,
                "threads": 2,
                "run": {"events": 51662},
                "speedup": 1.3,
                "window": {"sync_instants": 0, "windows": 2, "mail_rounds": 1},
                "fixed_lookahead": {
                    "run": {"events": 51662},
                    "speedup": 0.95,
                    "window": {"sync_instants": 159, "windows": 4403},
                    "sync_instant_reduction": 159.0,
                },
                "ground_truth_parity": True,
            }
        ],
    },
    "topologies": None,
}


WELL_FORMED_V5 = {
    "format": "ctms-perf/5",
    "cores": 4,
    "degraded_parallelism": False,
    "cases": [
        {
            "name": "case_a",
            "indexed": {"events_per_sec": 2.5e6},
            "speedup": 1.5,
        }
    ],
    "chain": {
        "rings": 32,
        "single": {"events_per_sec": 5.0e6},
        "sharded": [
            {
                "shards": 4,
                "threads": 4,
                "threads_requested": None,
                "run": {"events": 27861},
                "speedup": 1.4,
                "window": {"sync_instants": 0, "windows": 4, "mail_rounds": 3},
                "optimistic": {
                    "run": {"events": 27861},
                    "speedup": 1.2,
                    "window": {"sync_instants": 0, "windows": 4},
                    "speculation": {
                        "rollbacks": 17,
                        "events_rolled_back": 512,
                        "snapshot_bytes": 84353,
                        "gvt_rounds": 5,
                        "speculation_efficiency": 0.982,
                    },
                },
                "ground_truth_parity": True,
            }
        ],
    },
    "topologies": None,
}


WELL_FORMED_V6 = {
    "format": "ctms-perf/6",
    "cores": 4,
    "degraded_parallelism": False,
    "cases": [
        {
            "name": "case_a",
            "indexed": {"events_per_sec": 2.5e6},
            "speedup": 1.5,
        }
    ],
    "chain": {
        "rings": 32,
        "single": {"events_per_sec": 5.0e6},
        "sharded": [
            {"shards": 2, "threads": 2, "speedup": 1.3, "ground_truth_parity": True}
        ],
    },
    "topologies": None,
    "scale": {
        "shape": "tree",
        "entries": [
            {
                "rings": 10000,
                "nodes": 20001,
                "build_wall_secs": 0.02,
                "build_peak_bytes": 31457280,
                "horizon_ms": 100,
                "run": {
                    "events": 199683,
                    "wall_secs": 0.0955,
                    "events_per_sec": 2.09e6,
                },
                "checkpoint": {
                    "bytes": 4521907,
                    "chunks": 37,
                    "write_secs": 0.0069,
                    "write_mb_per_sec": 655.6,
                    "read_secs": 0.0056,
                    "read_mb_per_sec": 804.3,
                },
                "stream_parity_shards": [1, 2, 4],
                "ground_truth_parity": True,
            }
        ],
    },
}


WELL_FORMED_V7 = {
    "format": "ctms-perf/7",
    "cores": 2,
    "degraded_parallelism": False,
    "cases": [
        {
            "name": "case_a",
            "indexed": {"events": 1311000, "wall_secs": 0.25, "events_per_sec": 5.244e6},
        }
    ],
    "chain": {
        "rings": 32,
        "single": {"events_per_sec": 5.0e6},
        "sharded": [
            {
                "shards": 2,
                "threads": 2,
                "threads_requested": None,
                "run": {"events": 51662},
                "speedup": 1.1,
                "window": {"sync_instants": 0, "windows": 2, "mail_rounds": 1},
                "ground_truth_parity": True,
            }
        ],
    },
    "topologies": None,
    "scale": None,
    "steady_state": {
        "workload": "synth-ring/16",
        "events": 50000,
        "indexed": {"allocations": 0, "allocs_per_event": 0.0},
    },
}


def selftest():
    """Pins the malformed-report contract (bad syntax and a broken
    topology section both produce a non-zero exit, a clean tree a zero
    one), the /4 efficiency columns, the /5 optimistic ablation row,
    the /6 scale section, the /7 speedup-free case rows, and the
    sharded-regression gate (conservative and optimistic) with its
    degraded-parallelism exemption."""

    def run_on(files):
        with tempfile.TemporaryDirectory() as td:
            root = Path(td)
            for name, text in files.items():
                (root / name).write_text(text)
            out, err = io.StringIO(), io.StringIO()
            code = render(root, out, err)
            return code, out.getvalue(), err.getvalue()

    # A well-formed /3 report renders per-topology rows and exits 0.
    code, out, err = run_on({"BENCH_PR7.json": json.dumps(WELL_FORMED)})
    assert code == 0, f"well-formed report must exit 0: {err}"
    assert "tree/1024 shards=4" in out, f"missing per-topology row:\n{out}"
    assert "1.80x (parity OK)" in out, f"missing topology speedup:\n{out}"

    # Syntactically malformed JSON: non-zero, named on stderr.
    code, _, err = run_on(
        {
            "BENCH_PR7.json": json.dumps(WELL_FORMED),
            "BENCH_PR8.json": "{ this is not json",
        }
    )
    assert code == 1, "syntactic damage must fail the run"
    assert "BENCH_PR8.json is malformed" in err, err

    # Structurally malformed topology section (entry missing its
    # "single" block): equally fatal, not a silent skip.
    broken = json.loads(json.dumps(WELL_FORMED))
    del broken["topologies"][0]["single"]
    code, _, err = run_on({"BENCH_PR7.json": json.dumps(broken)})
    assert code == 1, "a broken topology section must fail the run"
    assert "bad section structure" in err, err

    # Same for a topology entry of the wrong JSON type entirely.
    broken = json.loads(json.dumps(WELL_FORMED))
    broken["topologies"] = [42]
    code, _, err = run_on({"BENCH_PR7.json": json.dumps(broken)})
    assert code == 1, "a non-object topology entry must fail the run"

    # A /4 report renders the events-per-sync-instant column and the
    # fixed-lookahead ablation row, and exits 0 when nothing regressed.
    code, out, err = run_on({"BENCH_PR8.json": json.dumps(WELL_FORMED_V4)})
    assert code == 0, f"well-formed /4 report must exit 0: {err}"
    assert "51,662 ev/sync (no sync)" in out, f"missing ev/sync column:\n{out}"
    assert "chain/32 shards=2 threads=2 [fixed]" in out, f"missing ablation row:\n{out}"
    assert "159x more syncs" in out, f"missing sync reduction:\n{out}"

    # A sharded row >10% below its single-threaded baseline fails the
    # run when the report was measured with real parallelism...
    regressed = json.loads(json.dumps(WELL_FORMED_V4))
    regressed["chain"]["sharded"][0]["speedup"] = 0.82
    code, _, err = run_on({"BENCH_PR8.json": json.dumps(regressed)})
    assert code == 1, "a >10% sharded regression must fail the run"
    assert "sharded regression" in err and "0.82x" in err, err

    # ...but is exempt on a degraded-parallelism (single-core) report,
    # where sub-1.0x parallel speedups are the documented expectation.
    degraded = json.loads(json.dumps(regressed))
    degraded["cores"] = 1
    degraded["degraded_parallelism"] = True
    code, _, err = run_on({"BENCH_PR8.json": json.dumps(degraded)})
    assert code == 0, f"degraded-parallelism reports must be exempt: {err}"

    # A /5 report renders the optimistic ablation row with its rollback
    # count and speculation efficiency, and exits 0 when healthy.
    code, out, err = run_on({"BENCH_PR9.json": json.dumps(WELL_FORMED_V5)})
    assert code == 0, f"well-formed /5 report must exit 0: {err}"
    assert "chain/32 shards=4 threads=4 [opt]" in out, f"missing [opt] row:\n{out}"
    assert "17 rollbacks, 98.2% efficient" in out, f"missing speculation columns:\n{out}"

    # The optimistic ablation is held to the same >10% regression gate
    # as the conservative row on real-core measurements...
    regressed = json.loads(json.dumps(WELL_FORMED_V5))
    regressed["chain"]["sharded"][0]["optimistic"]["speedup"] = 0.7
    code, _, err = run_on({"BENCH_PR9.json": json.dumps(regressed)})
    assert code == 1, "a >10% optimistic regression must fail the run"
    assert "[opt]: 0.70x" in err, err

    # ...and shares the degraded-parallelism exemption.
    degraded = json.loads(json.dumps(regressed))
    degraded["cores"] = 1
    degraded["degraded_parallelism"] = True
    code, _, err = run_on({"BENCH_PR9.json": json.dumps(degraded)})
    assert code == 0, f"degraded /5 reports must be exempt: {err}"

    # A /6 report renders the scale section's build, run, and checkpoint
    # rows and exits 0 — the capacity pass is display-only, but stays
    # subject to the same chain/topology regression gate as /4 and /5.
    code, out, err = run_on({"BENCH_PR10.json": json.dumps(WELL_FORMED_V6)})
    assert code == 0, f"well-formed /6 report must exit 0: {err}"
    assert "tree/10000 [scale] build" in out, f"missing scale build row:\n{out}"
    assert "20001 nodes in 0.02s, peak 31.5 MB" in out, f"missing build columns:\n{out}"
    assert "2.09M ev/s (parity OK, stream shards 1,2,4)" in out, (
        f"missing scale run row:\n{out}"
    )
    assert "4.5 MB in 37 chunks, write 656 MB/s, read 804 MB/s" in out, (
        f"missing checkpoint throughput row:\n{out}"
    )

    # Without the counting allocator the build row simply omits the peak.
    no_peak = json.loads(json.dumps(WELL_FORMED_V6))
    no_peak["scale"]["entries"][0]["build_peak_bytes"] = None
    code, out, err = run_on({"BENCH_PR10.json": json.dumps(no_peak)})
    assert code == 0, f"null build_peak_bytes must render: {err}"
    assert "20001 nodes in 0.02s" in out and "peak" not in out, out

    # A structurally broken scale entry (missing its checkpoint block)
    # is malformed, same as a broken topology section.
    broken = json.loads(json.dumps(WELL_FORMED_V6))
    del broken["scale"]["entries"][0]["checkpoint"]
    code, _, err = run_on({"BENCH_PR10.json": json.dumps(broken)})
    assert code == 1, "a broken scale entry must fail the run"
    assert "bad section structure" in err, err

    # The >10% sharded-regression gate still applies to /6 reports.
    regressed = json.loads(json.dumps(WELL_FORMED_V6))
    regressed["chain"]["sharded"][0]["speedup"] = 0.8
    code, _, err = run_on({"BENCH_PR10.json": json.dumps(regressed)})
    assert code == 1, "a /6 sharded regression must fail the run"
    assert "0.80x" in err, err

    # A /7 report's case rows carry only the indexed run: they render as
    # plain throughput, with no lazy-baseline speedup, next to the
    # unchanged sharded and steady-state rows.
    code, out, err = run_on({"BENCH_PR12.json": json.dumps(WELL_FORMED_V7)})
    assert code == 0, f"well-formed /7 report must exit 0: {err}"
    assert "case_a indexed  " in out and "5.24M ev/s" in out, f"missing /7 case row:\n{out}"
    assert "vs lazy" not in out, f"/7 case rows have no speedup:\n{out}"
    assert "chain/32 shards=2 threads=2" in out and "1.10x (parity OK" in out, out
    assert "[fixed]" not in out and "[opt]" not in out, out
    assert "steady-state allocs/event (indexed)" in out, out

    # A /7 case row without its indexed run is malformed, and the
    # sharded-regression gate still applies.
    broken = json.loads(json.dumps(WELL_FORMED_V7))
    del broken["cases"][0]["indexed"]
    code, _, err = run_on({"BENCH_PR12.json": json.dumps(broken)})
    assert code == 1 and "bad section structure" in err, err
    regressed = json.loads(json.dumps(WELL_FORMED_V7))
    regressed["chain"]["sharded"][0]["speedup"] = 0.5
    code, _, err = run_on({"BENCH_PR12.json": json.dumps(regressed)})
    assert code == 1 and "0.50x" in err, err

    print("bench_trend selftest: OK")
    return 0


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "--selftest":
        return selftest()
    root = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parents[1]
    return render(root, sys.stdout, sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
