//! The metric catalogue, output checks and the result line.
//!
//! Every metric the benchmark can print is declared once here with its unit
//! and better direction; `BENCHMARK.json` at the repository root lists the
//! same names (a test keeps the two in step).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// `(name, unit, better)` of every end-to-end metric. Each workload reports
/// all of them on an untraced run.
pub const END_TO_END: &[(&str, &str, &str)] = &[
    ("setup_s", "s", "lower"),
    ("sim_req_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("dev_p50_ms", "ms", "lower"),
    ("dev_lat_geomean_ms", "ms", "lower"),
    ("dev_peak_mem_mb", "MB", "lower"),
];

/// `(name, unit, better)` of every per-layer metric, reported by the traced
/// run. A layer a workload does not exercise reports 0.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    // graph, fusion and profiler: compile stages
    ("graph.build_ms", "ms", "lower"),
    ("graph.fusion_ms", "ms", "lower"),
    ("fusion.adaptive_ms", "ms", "lower"),
    ("profiler.capacity_ms", "ms", "lower"),
    // LC-OPG planner and solver
    ("lcopg.plan_ms", "ms", "lower"),
    ("lcopg.solve_ms", "ms", "lower"),
    ("lcopg.windows", "count", "lower"),
    ("lcopg.fallbacks", "count", "lower"),
    ("lcopg.deadline_plans", "count", "lower"),
    // overlap plans
    ("plan.streamed_mb", "MB", "lower"),
    ("plan.preload_mb", "MB", "lower"),
    // one solo inference per plan_cold cell
    ("exec.solo_ms", "ms", "lower"),
    // plan cache
    ("cache.hits", "count", "higher"),
    ("cache.misses", "count", "lower"),
    ("cache.hit_us", "us", "lower"),
    // executor lowering and gpu-sim stepping
    ("lower.us_per_req", "us", "lower"),
    ("lower.cmds_per_req", "count", "lower"),
    ("step.ns_per_cmd", "ns", "lower"),
    // serve engine, host side
    ("serve.run_ms", "ms", "lower"),
    ("serve.self_us_per_req", "us", "lower"),
    ("serve.rss_growth_mb", "MB", "lower"),
    // serve engine, simulated
    ("serve.queue_wait_tail_ms", "ms", "lower"),
    ("serve.transfer_busy", "fraction", "higher"),
    ("serve.compute_busy", "fraction", "higher"),
    ("serve.rejected", "count", "lower"),
    ("serve.stolen", "count", "lower"),
    ("serve.preemptions", "count", "lower"),
    ("serve.retries", "count", "lower"),
    ("serve.failovers", "count", "lower"),
    ("serve.quarantines", "count", "lower"),
    ("serve.probes", "count", "lower"),
    ("serve.attempts_per_req", "count", "lower"),
    // decode engine, host side
    ("decode.run_ms", "ms", "lower"),
    ("decode.step_replay_us", "us", "lower"),
    ("decode.kv_grow_ns", "ns", "lower"),
    ("decode.self_ns_per_token", "ns", "lower"),
    ("decode.rss_growth_mb", "MB", "lower"),
    ("decode.sim_tok_per_s", "1/s", "higher"),
    // decode engine, simulated
    ("decode.batch_fill", "fraction", "higher"),
    ("decode.kv_used_ratio", "fraction", "higher"),
    // simulated results that only some workloads have
    ("dev.tail_ms", "ms", "lower"),
    ("dev.slo_attainment", "fraction", "higher"),
    ("dev.ttft_p50_ms", "ms", "lower"),
    ("dev.ttft_tail_ms", "ms", "lower"),
    ("dev.itl_p50_ms", "ms", "lower"),
    ("dev.itl_tail_ms", "ms", "lower"),
    ("dev.tok_per_s", "1/s", "higher"),
    // thread pool
    ("pool.speedup", "ratio", "higher"),
    // tracing
    ("trace.record_overhead_pct", "%", "lower"),
    ("trace.events", "count", "lower"),
    ("trace.dropped", "count", "lower"),
    ("bench.trace_overhead_pct", "%", "lower"),
];

/// Output checks: every checked operation counts as attempted, every
/// violation as failed. Modelled rejects and failures are simulated
/// outcomes, not failed operations.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    problems: Vec<String>,
}

impl Checks {
    /// Record one checked operation.
    pub fn item(&mut self, ok: bool, describe: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.problems.len() < 20 {
                self.problems.push(describe());
            }
        }
    }

    pub fn problems(&self) -> &[String] {
        &self.problems
    }
}

/// What one run measured.
#[derive(Debug, Default)]
pub struct Measured {
    pub checks: Checks,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable context printed before the result line.
    pub notes: Vec<String>,
}

impl Measured {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

/// Render the result line for the `catalogue` the run reports: every
/// metric in it, with layers a workload does not exercise at 0.
///
/// # Panics
///
/// Panics if an end-to-end metric is missing or a metric outside the
/// catalogue was set — both are bugs in a workload.
pub fn result_line(measured: &Measured, traced: bool) -> (String, Vec<String>) {
    let catalogue = if traced { PER_LAYER } else { END_TO_END };
    for name in measured.metrics.keys() {
        assert!(
            catalogue.iter().any(|(n, _, _)| n == name),
            "metric {name} is not in the {} catalogue",
            if traced { "per-layer" } else { "end-to-end" }
        );
    }
    let mut lines = Vec::new();
    let mut json = String::new();
    let _ = write!(
        json,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        measured.checks.failed == 0,
        measured.checks.attempted.max(1),
        measured.checks.failed
    );
    for (i, (name, unit, better)) in catalogue.iter().enumerate() {
        let value = match measured.metrics.get(name) {
            Some(v) => *v,
            None => {
                assert!(traced, "end-to-end metric {name} was not measured");
                0.0
            }
        };
        let value = if value.is_finite() { value } else { 0.0 };
        lines.push(format!(
            "{name:<28} {value:>16.6} {unit:<9} ({better} is better)"
        ));
        if i > 0 {
            json.push_str(", ");
        }
        let _ = write!(
            json,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    json.push_str("}}");
    (json, lines)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_declares_exactly_this_catalogue() {
        let spec = include_str!("../../BENCHMARK.json");
        for (name, unit, better) in END_TO_END.iter().chain(PER_LAYER) {
            let entry =
                format!("\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"");
            assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            spec.matches("\"unit\":").count(),
            END_TO_END.len() + PER_LAYER.len(),
            "BENCHMARK.json declares metrics the benchmark does not print"
        );
    }

    #[test]
    fn result_line_lists_every_metric_with_its_unit() {
        let mut measured = Measured::default();
        for (name, _, _) in END_TO_END {
            measured.set(name, 1.5);
        }
        measured.checks.item(true, String::new);
        let (json, lines) = result_line(&measured, false);
        assert!(json.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        assert!(json.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert_eq!(lines.len(), END_TO_END.len());
        let (traced, _) = result_line(&Measured::default(), true);
        assert!(traced.contains("\"pool.speedup\": {\"value\": 0, \"unit\": \"ratio\"}"));
    }
}
