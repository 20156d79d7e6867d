//! Table 4 — the LC-OPG planner's running time and termination status.
//!
//! The paper breaks its CP-SAT planning time into process nodes, build model
//! and solve model. LC-OPG decides every window in closed form, so there is
//! no model to build or solve, and only the process-nodes time remains.

use std::time::Duration;

use flashmem_core::{FlashMemConfig, LcOpgSolver};
use flashmem_gpu_sim::DeviceSpec;
use flashmem_graph::{ModelSpec, ModelZoo};

use crate::json::Json;
use crate::table::TextTable;

/// One row of Table 4.
#[derive(Debug, Clone, PartialEq)]
pub struct Table4Row {
    /// Model name.
    pub model: String,
    /// Number of lowered nodes in the graph.
    pub nodes: usize,
    /// Time spent processing nodes (graph, fusion, capacities).
    pub process_nodes: Duration,
    /// Final solver status (`OPTIMAL` / `FEASIBLE`).
    pub status: String,
    /// Weight windows the planner processed.
    pub windows: usize,
    /// Fallback tiers used: soft-threshold retries, greedy backups and
    /// fallback preloads.
    pub fallbacks: usize,
    /// Fraction of weights streamed by the resulting plan.
    pub streamed_fraction: f64,
}

/// The full Table 4 result.
#[derive(Debug, Clone, PartialEq)]
pub struct Table4 {
    /// Rows in model order.
    pub rows: Vec<Table4Row>,
}

fn models(quick: bool) -> Vec<ModelSpec> {
    if quick {
        vec![ModelZoo::gptneo_small(), ModelZoo::vit()]
    } else {
        vec![
            ModelZoo::gptneo_small(),
            ModelZoo::gptneo_1_3b(),
            ModelZoo::gptneo_2_7b(),
            ModelZoo::vit_8b(),
            ModelZoo::llama2_13b(),
            ModelZoo::llama2_70b(),
        ]
    }
}

/// Run the Table 4 experiment.
pub fn run(quick: bool) -> Table4 {
    let device = DeviceSpec::oneplus_12();
    let rows = models(quick)
        .into_iter()
        .map(|model| {
            let solver = LcOpgSolver::new(device.clone(), FlashMemConfig::memory_priority());
            let (plan, report) = solver.plan(model.graph());
            Table4Row {
                model: model.name.clone(),
                nodes: model.graph().len(),
                process_nodes: report.process_nodes,
                status: report.status.name().to_string(),
                windows: report.windows,
                fallbacks: report.fallback_soft + report.fallback_greedy + report.fallback_preload,
                streamed_fraction: plan.streamed_fraction(),
            }
        })
        .collect();
    Table4 { rows }
}

impl Table4 {
    /// Machine-readable form with the deterministic columns only: the phase
    /// times are wall clocks and stay in the text table.
    pub fn to_json(&self) -> Json {
        let rows: Vec<Json> = self
            .rows
            .iter()
            .map(|r| {
                Json::obj()
                    .field("model", r.model.as_str())
                    .field("graph_nodes", r.nodes)
                    .field("windows", r.windows)
                    .field("status", r.status.as_str())
                    .field("fallbacks", r.fallbacks)
                    .field("streamed_fraction", r.streamed_fraction)
            })
            .collect();
        Json::obj()
            .field("experiment", "table4")
            .field("rows", Json::Arr(rows))
    }
}

impl std::fmt::Display for Table4 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Table 4: LC-OPG planning time and status")?;
        let mut t = TextTable::new(&[
            "Model",
            "Nodes",
            "Process nodes (s)",
            "Solver Status",
            "Fallbacks",
            "Streamed (%)",
        ]);
        for r in &self.rows {
            t.row(&[
                r.model.clone(),
                format!("{}", r.nodes),
                format!("{:.3}", r.process_nodes.as_secs_f64()),
                r.status.clone(),
                format!("{}", r.fallbacks),
                format!("{:.1}", r.streamed_fraction * 100.0),
            ]);
        }
        write!(f, "{t}")?;
        writeln!(
            f,
            "No build or solve times: every window is decided in closed form from \
             its back-to-front fill, so there is no model to build or solve."
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_table_4_reports_statuses_and_phase_times() {
        let result = run(true);
        assert_eq!(result.rows.len(), 2);
        for r in &result.rows {
            assert!(r.nodes > 100);
            assert!(matches!(r.status.as_str(), "OPTIMAL" | "FEASIBLE"));
            assert!(r.streamed_fraction > 0.0);
            assert!(r.process_nodes > Duration::ZERO);
        }
        let text = result.to_string();
        assert!(text.contains("GPTNeo-Small"));
        assert!(text.contains("Solver Status"));
        // The JSON keeps the deterministic columns and drops the wall clocks.
        let json = result.to_json().pretty();
        assert!(json.contains("\"fallbacks\""));
        assert!(json.contains("\"status\""));
        assert!(!json.contains("process_nodes"));
    }

    #[test]
    fn larger_models_cost_more_planner_work() {
        let result = run(true);
        let small = &result.rows[0]; // GPT-Neo-S
        let vit = &result.rows[1];
        // ViT has more weights to schedule than GPT-Neo-S (more blocks).
        assert!(vit.nodes > small.nodes);
        assert!(vit.windows > small.windows);
    }
}
