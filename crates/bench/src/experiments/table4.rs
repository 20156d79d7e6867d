//! Table 4 — execution-time breakdown of the LC-OPG solver (process nodes /
//! build model / solve model) and its termination status under a search-node
//! budget.

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
    /// Time spent building CP models (searched windows only).
    pub build_model: Duration,
    /// Time spent solving (searched windows only).
    pub solve_model: Duration,
    /// Final solver status (`OPTIMAL` / `FEASIBLE`).
    pub status: String,
    /// Weight windows the planner processed.
    pub windows: usize,
    /// CP window models built and searched; every other window is decided
    /// in closed form.
    pub searched_windows: usize,
    /// Fallback tiers used: soft-threshold retries, greedy backups and
    /// fallback preloads.
    pub fallbacks: usize,
    /// Search nodes the CP solves explored.
    pub solver_nodes: u64,
    /// Fraction of weights streamed by the resulting plan.
    pub streamed_fraction: f64,
}

/// The full Table 4 result.
#[derive(Debug, Clone, PartialEq)]
pub struct Table4 {
    /// Rows in model order.
    pub rows: Vec<Table4Row>,
    /// The per-model solver node budget (standing in for the paper's 150 s).
    pub node_budget: u64,
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

/// Run the Table 4 experiment with a total solver node budget (per model).
pub fn run_with_budget(quick: bool, node_budget: u64) -> Table4 {
    let device = DeviceSpec::oneplus_12();
    let rows = models(quick)
        .into_iter()
        .map(|model| {
            let config = FlashMemConfig {
                solver_node_budget: node_budget,
                ..FlashMemConfig::memory_priority()
            };
            let solver = LcOpgSolver::new(device.clone(), config);
            let (plan, report) = solver.plan(model.graph());
            Table4Row {
                model: model.name.clone(),
                nodes: model.graph().len(),
                process_nodes: report.process_nodes,
                build_model: report.build_model,
                solve_model: report.solve_model,
                status: report.status.name().to_string(),
                windows: report.windows,
                searched_windows: report.searched_windows,
                fallbacks: report.fallback_soft + report.fallback_greedy + report.fallback_preload,
                solver_nodes: report.nodes_explored,
                streamed_fraction: plan.streamed_fraction(),
            }
        })
        .collect();
    Table4 { rows, node_budget }
}

/// Run the Table 4 experiment with the planner's default node budget.
pub fn run(quick: bool) -> Table4 {
    run_with_budget(quick, FlashMemConfig::memory_priority().solver_node_budget)
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
                    .field("searched_windows", r.searched_windows)
                    .field("status", r.status.as_str())
                    .field("fallbacks", r.fallbacks)
                    .field("solver_nodes", r.solver_nodes)
                    .field("streamed_fraction", r.streamed_fraction)
            })
            .collect();
        Json::obj()
            .field("experiment", "table4")
            .field("node_budget", self.node_budget)
            .field("rows", Json::Arr(rows))
    }
}

impl std::fmt::Display for Table4 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Table 4: LC-OPG execution-time breakdown (budget {} search nodes per model)",
            self.node_budget
        )?;
        let mut t = TextTable::new(&[
            "Model",
            "Nodes",
            "Process nodes (s)",
            "Build model (s)",
            "Solve model (s)",
            "Solver Status",
            "Searched windows",
            "Fallbacks",
            "Solver nodes",
            "Streamed (%)",
        ]);
        for r in &self.rows {
            t.row(&[
                r.model.clone(),
                format!("{}", r.nodes),
                format!("{:.3}", r.process_nodes.as_secs_f64()),
                format!("{:.3}", r.build_model.as_secs_f64()),
                format!("{:.3}", r.solve_model.as_secs_f64()),
                r.status.clone(),
                format!("{}", r.searched_windows),
                format!("{}", r.fallbacks),
                format!("{}", r.solver_nodes),
                format!("{:.1}", r.streamed_fraction * 100.0),
            ]);
        }
        write!(f, "{t}")?;
        writeln!(
            f,
            "Build and solve times cover only the searched windows; every other \
             window is decided in closed form from its back-to-front fill."
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
            // Every phase is accounted for (may be tiny but not negative).
            assert!(r.process_nodes + r.build_model + r.solve_model > Duration::ZERO);
        }
        let text = result.to_string();
        assert!(text.contains("GPTNeo-Small"));
        assert!(text.contains("Solver Status"));
        // The JSON keeps the deterministic columns and drops the wall clocks.
        let json = result.to_json().pretty();
        assert!(json.contains("\"solver_nodes\""));
        assert!(json.contains("\"searched_windows\""));
        assert!(json.contains("\"status\""));
        assert!(!json.contains("process_nodes"));
    }

    #[test]
    fn larger_models_cost_more_planner_time() {
        let result = run(true);
        let small = &result.rows[0]; // GPT-Neo-S
        let vit = &result.rows[1];
        let total = |r: &Table4Row| r.process_nodes + r.build_model + r.solve_model;
        // ViT has more weights to schedule than GPT-Neo-S (more blocks).
        assert!(vit.nodes > small.nodes);
        assert!(
            total(vit) >= total(small) / 4,
            "planner time not absurdly inverted"
        );
    }
}
