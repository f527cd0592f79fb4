//! # ctms-bench — benchmark harness
//!
//! Two entry points:
//!
//! * the **`repro` binary** regenerates every table and figure of the
//!   paper (experiments E1–E11 of DESIGN.md) and prints paper-vs-measured
//!   claim tables plus ASCII renderings of Figures 5-2/5-3/5-4;
//! * the **`serve` binary** is the line-oriented JSON service runtime
//!   (run/telemetry/checkpoint/restore/steer/fork) over a live bus.
//!
//! Wall-clock timing is not done here: `perfbench/` at the repository
//! root is the one benchmark (DESIGN.md §9).

use ctms_core::{ExpCfg, Scenario};
use ctms_stats::Report;

/// An experiment entry point: scenario config in, report out.
pub type Runner = fn(ExpCfg) -> Report;

/// The experiment registry: `(name, runner)` in DESIGN.md order.
pub fn registry() -> Vec<(&'static str, Runner)> {
    use ctms_core::experiments as e;
    vec![
        ("e1", e::e1_stock_unix as Runner),
        ("e2", e::e2_copy_count),
        ("e3", e::e3_logic_analyzer),
        ("e4", e::e4_pcat_tool),
        ("fig5_2", e::e5_fig5_2),
        ("fig5_3", e::e6_fig5_3),
        ("fig5_4", e::e7_fig5_4),
        ("hist1_5", e::e8_hist1_5),
        ("e9", e::e9_ring_purges),
        ("e10", e::e10_conclusions),
        ("ablation", e::e11_ablation),
        ("router", e::e12_router),
        ("capacity", e::e13_capacity),
        ("ring16", e::e14_ring_speed),
        ("spl_audit", e::e15_spl_audit),
    ]
}

/// Simulated horizon of [`telemetry_case`]: fixed regardless of
/// `--quick`, so the run report's telemetry section and the
/// determinism tests hash the same tree.
pub const TELEMETRY_CASE_SECS: u64 = 10;

/// Runs a scenario on the CTMS testbed for the fixed
/// [`TELEMETRY_CASE_SECS`] horizon and returns the canonical registry
/// JSON. This is the single source of truth for telemetry determinism:
/// `tests/determinism.rs` asserts two calls are byte-identical and pins
/// the digest, and `repro --json` embeds the same trees in the run
/// report.
pub fn telemetry_case(sc: &Scenario) -> String {
    let mut bed = ctms_core::Testbed::ctms(sc);
    bed.run_until(ctms_sim::SimTime::from_secs(TELEMETRY_CASE_SECS));
    bed.telemetry_json()
}

/// One experiment's outcome plus its wall-clock cost, as recorded by
/// the `repro` binary for the machine-readable run report.
pub struct ExperimentRun {
    /// Registry name (`e1`, `fig5_2`, …).
    pub name: String,
    /// Wall-clock seconds the runner took.
    pub wall_secs: f64,
    /// The paper-vs-measured report.
    pub report: Report,
}

/// Serializes a whole `repro` invocation as a JSON run report: the
/// claims table per experiment (with wall-clock timings) and the full
/// telemetry trees for test cases A and B. Everything except
/// `wall_secs` is deterministic for a fixed seed; floats use `{:?}`
/// shortest-round-trip formatting via [`ctms_sim::telemetry::json_f64`].
pub fn run_report_json(
    seed: u64,
    quick: bool,
    runs: &[ExperimentRun],
    case_a: &str,
    case_b: &str,
) -> String {
    use ctms_sim::telemetry::{json_f64, json_string};
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"format\": \"ctms-repro-run/1\",\n");
    out.push_str(&format!("  \"seed\": {seed},\n"));
    out.push_str(&format!("  \"quick\": {quick},\n"));
    out.push_str("  \"experiments\": [\n");
    for (i, run) in runs.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"name\": {},\n", json_string(&run.name)));
        out.push_str(&format!(
            "      \"title\": {},\n",
            json_string(&run.report.title)
        ));
        out.push_str(&format!(
            "      \"wall_secs\": {},\n",
            json_f64(run.wall_secs)
        ));
        out.push_str("      \"claims\": [\n");
        for (j, c) in run.report.claims.iter().enumerate() {
            out.push_str("        {");
            out.push_str(&format!("\"id\": {}, ", json_string(&c.id)));
            out.push_str(&format!("\"paper\": {}, ", json_f64(c.paper)));
            out.push_str(&format!("\"measured\": {}, ", json_f64(c.measured)));
            out.push_str(&format!("\"unit\": {}, ", json_string(&c.unit)));
            out.push_str(&format!("\"band\": {}, ", json_string(&c.band.label())));
            out.push_str(&format!("\"holds\": {}", c.holds()));
            out.push('}');
            if j + 1 < run.report.claims.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("      ]\n");
        out.push_str("    }");
        if i + 1 < runs.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ],\n");
    out.push_str("  \"telemetry\": {\n");
    out.push_str(&format!("    \"case_a\": {case_a},\n"));
    out.push_str(&format!("    \"case_b\": {case_b}\n"));
    out.push_str("  }\n");
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_design_md() {
        let names: Vec<&str> = registry().iter().map(|(n, _)| *n).collect();
        for required in [
            "e1",
            "e2",
            "e3",
            "e4",
            "fig5_2",
            "fig5_3",
            "fig5_4",
            "hist1_5",
            "e9",
            "e10",
            "ablation",
            "router",
            "capacity",
            "ring16",
            "spl_audit",
        ] {
            assert!(names.contains(&required), "missing {required}");
        }
    }
}
