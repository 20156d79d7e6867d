//! The Load-Capacity-aware OPG solver (LC-OPG, Section 3.2).
//!
//! LC-OPG schedules the per-weight windows of [`crate::opg`] over the whole
//! model in execution order, maintaining the shared per-kernel load capacities
//! (C3) and the in-flight memory budget `M_peak` (C2) between windows — the
//! paper's *incremental scheduling over a rolling window*.
//!
//! A window is decided in closed form from its back-to-front fill
//! ([`crate::opg::back_to_front_fill`]), which is the best streamed
//! assignment when one exists (see [`crate::opg::WindowObjective::optimum`]).
//! A failed fill proves that no assignment streams the weight, so the window
//! preloads; a fill that scores no worse than preloading is the window's
//! optimum and streams. Only a feasible fill that scores worse than
//! preloading, which takes a λ that makes preloading cheap, builds a CP
//! window model. Its search starts from the fill as a warm-start hint and
//! stops at preloading's score, the proven bound, or at its node cap, which
//! may leave a streamed incumbent. When a window preloads, the tiered
//! fallback of Section 3.2 kicks in:
//!
//! 1. **soft thresholding** — retry with the load capacities relaxed by 25%,
//! 2. **greedy heuristic backup** — the unrelaxed window's fill,
//! 3. **incremental preloading** — put the weight into the preload set `W`.
//!
//! The backup therefore only streams weights whose feasible fill scores worse
//! than preloading. Soft thresholding relaxes the load capacities (C3) but
//! not the `M_peak` headroom (C2): every chunk is in flight at the window's
//! last kernel, so it cannot rescue a weight with more chunks than the
//! headroom there.
//!
//! Every window's CP solve is capped at [`FlashMemConfig::solver_node_limit`]
//! search nodes, and a plan's windows share a total of
//! [`FlashMemConfig::solver_node_budget`] nodes (the stand-in for the paper's
//! 150 s offline limit): once it is spent, remaining weights are scheduled by
//! the fill alone and the final status degrades from `OPTIMAL` to `FEASIBLE`,
//! matching the behaviour reported in Table 4. Both are counts, so a plan is
//! a pure function of the graph, the device and the configuration; clocks
//! only fill the report's durations.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use flashmem_gpu_sim::DeviceSpec;
use flashmem_graph::{FusionPlan, Graph, NodeId, WeightInventory};
use flashmem_profiler::{CapacityProfiler, LoadCapacity};
use flashmem_solver::{CpSolver, SolveStatus, SolverConfig};
use serde::{Deserialize, Serialize};

use crate::config::FlashMemConfig;
use crate::kernel_rewrite::KernelRewriter;
use crate::opg::{
    back_to_front_fill, build_weight_window_model, extract_decision, greedy_hint, CandidateSlot,
    WindowObjective,
};
use crate::plan::OverlapPlan;

/// Timing and quality report of one LC-OPG run — the columns of Table 4.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LcOpgReport {
    /// Time spent preparing the graph, fusion plan and capacities
    /// ("Process nodes" in Table 4).
    pub process_nodes: Duration,
    /// Time spent building CP models ("Build model"), in searched windows
    /// only.
    pub build_model: Duration,
    /// Time spent in the CP solver ("Solve model"), in searched windows only.
    pub solve_model: Duration,
    /// Final status: `Optimal` when every window solved to optimality within
    /// budget, otherwise `Feasible`.
    pub status: SolveStatus,
    /// Number of weight windows processed.
    pub windows: usize,
    /// CP window models built and searched, one per capacity scale whose
    /// feasible fill scored worse than preloading; every other window is
    /// decided in closed form.
    pub searched_windows: usize,
    /// Search nodes the CP solves explored, summed over every window — a
    /// deterministic measure of solver work.
    pub nodes_explored: u64,
    /// Windows that needed the soft-threshold retry.
    pub fallback_soft: usize,
    /// Windows the CP tiers left to the greedy backup.
    pub fallback_greedy: usize,
    /// Weights pushed into the preload set by the fallback chain, plus
    /// windows with no load capacity at all, which never enter the chain.
    /// Those are the one fallback of Table 4's `OPTIMAL` rows.
    pub fallback_preload: usize,
    /// Weights preloaded in total (including structural preloads).
    pub preloaded_weights: usize,
    /// Weights streamed during execution.
    pub streamed_weights: usize,
}

impl LcOpgReport {
    /// Total planner wall-clock time.
    pub fn total_time(&self) -> Duration {
        self.process_nodes + self.build_model + self.solve_model
    }
}

/// How the planner schedules weights.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PlannerMode {
    /// CP-SAT windows with the tiered fallback (the full LC-OPG).
    Hybrid,
    /// Preload everything (OPG disabled; the ablation baseline), the same as
    /// [`FlashMemConfig::enable_opg`] set to false.
    FullPreload,
}

/// The LC-OPG planner.
#[derive(Debug, Clone)]
pub struct LcOpgSolver {
    device: DeviceSpec,
    config: FlashMemConfig,
    mode: PlannerMode,
}

impl LcOpgSolver {
    /// Create a planner for `device` with `config` in hybrid (CP + fallback)
    /// mode.
    pub fn new(device: DeviceSpec, config: FlashMemConfig) -> Self {
        LcOpgSolver {
            device,
            config,
            mode: PlannerMode::Hybrid,
        }
    }

    /// Select the planning mode.
    pub fn with_mode(mut self, mode: PlannerMode) -> Self {
        self.mode = mode;
        self
    }

    /// The active configuration.
    pub fn config(&self) -> &FlashMemConfig {
        &self.config
    }

    /// Plan the given graph with an externally supplied fusion plan and
    /// capacity profile (the runtime passes the adaptively refined ones).
    pub fn plan_with(
        &self,
        graph: &Graph,
        fusion: &FusionPlan,
        capacities: &[LoadCapacity],
    ) -> (OverlapPlan, LcOpgReport) {
        let started = Instant::now();

        let inventory = WeightInventory::with_chunk_size(graph, self.config.chunk_bytes);
        let node_to_kernel = node_to_kernel_map(fusion);
        let chunk_bytes = self.config.chunk_bytes;
        let m_peak_bytes = self.config.m_peak_bytes;
        let num_kernels = fusion.len();

        let mut remaining_capacity: Vec<u64> = capacities
            .iter()
            .map(|c| c.capacity_bytes / chunk_bytes)
            .collect();
        remaining_capacity.resize(num_kernels, 0);
        let mut inflight_bytes: Vec<u64> = vec![0; num_kernels];

        let mut plan = OverlapPlan::new(num_kernels, chunk_bytes);
        let mut report = LcOpgReport {
            process_nodes: started.elapsed(),
            build_model: Duration::ZERO,
            solve_model: Duration::ZERO,
            status: SolveStatus::Optimal,
            windows: 0,
            searched_windows: 0,
            nodes_explored: 0,
            fallback_soft: 0,
            fallback_greedy: 0,
            fallback_preload: 0,
            preloaded_weights: 0,
            streamed_weights: 0,
        };

        if self.mode == PlannerMode::FullPreload || !self.config.enable_opg {
            for w in inventory.weights() {
                let kernel = node_to_kernel.get(&w.consumer).copied().unwrap_or(0);
                plan.add_preload(w.consumer, kernel, w.bytes);
                report.preloaded_weights += 1;
            }
            return (plan, report);
        }

        let budget = self.config.solver_node_budget;
        // Each window may spend its own cap, but no more than the budget has
        // left.
        let window_solver = |spent: u64| {
            CpSolver::with_config(SolverConfig::with_max_nodes(
                self.config.solver_node_limit.min(budget - spent),
            ))
        };

        for weight in inventory.weights() {
            let consumer_kernel = node_to_kernel.get(&weight.consumer).copied().unwrap_or(0);
            let total_chunks = weight.chunk_count(chunk_bytes);
            report.windows += 1;

            // Structural preloads: first-kernel weights (nothing precedes
            // them), explicitly pinned weights, and convolution weights whose
            // Winograd/im2col transformation cannot be overlapped (the paper's
            // explanation for SD-UNet's smaller savings).
            let pinned = self.config.explicit_preload.contains(&weight.name);
            if consumer_kernel == 0 || pinned || weight.needs_transform || total_chunks == 0 {
                plan.add_preload(weight.consumer, consumer_kernel, weight.bytes);
                report.preloaded_weights += 1;
                continue;
            }

            let window_start = consumer_kernel.saturating_sub(self.config.window);
            let candidates = |capacity_scale: f64| {
                (window_start..consumer_kernel)
                    .map(|k| CandidateSlot {
                        kernel: k,
                        capacity_chunks: (remaining_capacity[k] as f64 * capacity_scale) as u64,
                        memory_headroom_chunks: m_peak_bytes.saturating_sub(inflight_bytes[k])
                            / chunk_bytes,
                    })
                    .collect::<Vec<_>>()
            };

            let use_cp = report.nodes_explored < budget;
            if !use_cp {
                report.status = SolveStatus::Feasible;
            }

            let slots = candidates(1.0);
            let window_capacity: u64 = slots
                .iter()
                .map(|c| c.capacity_chunks.min(c.memory_headroom_chunks))
                .sum();
            if window_capacity == 0 {
                plan.add_preload(weight.consumer, consumer_kernel, weight.bytes);
                report.preloaded_weights += 1;
                report.fallback_preload += 1;
                continue;
            }

            // --- Tier 0: the window; Tier 1: soft thresholding, the same
            // window with load capacities relaxed by 25% -------------------
            let objective = WindowObjective::new(consumer_kernel, total_chunks, &self.config);
            let mut decision = None;
            for capacity_scale in [1.0, 1.25] {
                if !use_cp || decision.is_some() {
                    break;
                }
                if capacity_scale > 1.0 {
                    report.fallback_soft += 1;
                    report.status = SolveStatus::Feasible;
                }
                let scaled = candidates(capacity_scale);
                decision = match back_to_front_fill(total_chunks, &scaled) {
                    // No assignment streams the weight: preloading is optimal.
                    None => None,
                    Some(fill) if objective.prefers(&fill) => Some(fill),
                    // Preloading is optimal, but a node-capped search may
                    // stop on a streamed incumbent first.
                    Some(_) => {
                        report.searched_windows += 1;
                        let build_started = Instant::now();
                        let window = build_weight_window_model(
                            consumer_kernel,
                            total_chunks,
                            &scaled,
                            &self.config,
                        );
                        let hint = greedy_hint(&window);
                        report.build_model += build_started.elapsed();

                        let solve_started = Instant::now();
                        let outcome = window_solver(report.nodes_explored)
                            .solve_with_hint(&window.model, Some(&hint));
                        report.solve_model += solve_started.elapsed();
                        report.nodes_explored += outcome.nodes_explored;
                        if outcome.status == SolveStatus::Feasible {
                            report.status = SolveStatus::Feasible;
                        }
                        outcome
                            .solution
                            .and_then(|solution| extract_decision(&window, &solution))
                    }
                };
            }

            // --- Tier 2: greedy heuristic backup, the unrelaxed fill ------
            if decision.is_none() {
                report.fallback_greedy += usize::from(use_cp);
                report.status = SolveStatus::Feasible;
                decision = back_to_front_fill(total_chunks, &slots);
            }

            // --- Tier 3: incremental preloading ----------------------------
            match decision {
                Some(d) => {
                    // Commit: update shared capacity and in-flight state.
                    for (kernel, chunks) in &d.assignments {
                        let used = (*chunks).min(remaining_capacity[*kernel]);
                        remaining_capacity[*kernel] -= used;
                        for slot in inflight_bytes
                            .iter_mut()
                            .take(consumer_kernel)
                            .skip(*kernel)
                        {
                            *slot = slot.saturating_add(chunks * chunk_bytes);
                        }
                    }
                    plan.add_streamed(
                        weight.consumer,
                        consumer_kernel,
                        d.disk_load_kernel,
                        weight.bytes,
                        &d.assignments,
                    );
                    report.streamed_weights += 1;
                }
                None => {
                    plan.add_preload(weight.consumer, consumer_kernel, weight.bytes);
                    report.preloaded_weights += 1;
                    report.fallback_preload += 1;
                    report.status = SolveStatus::Feasible;
                }
            }
        }

        (plan, report)
    }

    /// Plan the graph end to end: default fusion, static-threshold capacities,
    /// then the window sweep.
    pub fn plan(&self, graph: &Graph) -> (OverlapPlan, LcOpgReport) {
        let started = Instant::now();
        let fusion = FusionPlan::default_fusion(graph);
        let options = KernelRewriter::for_kernel_rewriting(self.config.enable_kernel_rewriting)
            .lowering_options();
        let capacities = CapacityProfiler::new(self.device.clone())
            .with_options(options)
            .capacities(graph, &fusion);
        let prep = started.elapsed();
        let (plan, mut report) = self.plan_with(graph, &fusion, &capacities);
        report.process_nodes += prep;
        (plan, report)
    }
}

/// Map every node to the index of the fusion group (kernel) containing it.
pub fn node_to_kernel_map(fusion: &FusionPlan) -> HashMap<NodeId, usize> {
    let mut map = HashMap::new();
    for (idx, group) in fusion.groups().iter().enumerate() {
        for node in &group.nodes {
            map.insert(*node, idx);
        }
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashmem_graph::ModelZoo;

    fn small_model() -> Graph {
        ModelZoo::gptneo_small().build()
    }

    #[test]
    fn hybrid_plan_is_valid_and_streams_a_majority_of_weights() {
        let graph = small_model();
        let config = FlashMemConfig::memory_priority();
        let solver = LcOpgSolver::new(DeviceSpec::oneplus_12(), config.clone());
        let (plan, report) = solver.plan(&graph);
        let inventory = WeightInventory::with_chunk_size(&graph, config.chunk_bytes);
        plan.validate(&inventory, None).unwrap();
        assert!(
            plan.streamed_fraction() > 0.3,
            "{}",
            plan.streamed_fraction()
        );
        assert!(report.windows > 0);
        assert!(report.status.has_solution());
        assert_eq!(
            report.preloaded_weights + report.streamed_weights,
            inventory.len()
        );
    }

    #[test]
    fn peak_inflight_respects_m_peak_budget() {
        let graph = small_model();
        let config = FlashMemConfig::memory_priority();
        let solver = LcOpgSolver::new(DeviceSpec::oneplus_12(), config.clone());
        let (plan, _) = solver.plan(&graph);
        // Allow one chunk of slack for the final short chunk of each weight.
        assert!(
            plan.peak_inflight_bytes() <= config.m_peak_bytes + config.chunk_bytes,
            "inflight {} budget {}",
            plan.peak_inflight_bytes(),
            config.m_peak_bytes
        );
    }

    #[test]
    fn full_preload_mode_streams_nothing() {
        let graph = small_model();
        let solver = LcOpgSolver::new(DeviceSpec::oneplus_12(), FlashMemConfig::memory_priority())
            .with_mode(PlannerMode::FullPreload);
        let (plan, report) = solver.plan(&graph);
        assert_eq!(plan.streamed_bytes(), 0);
        assert_eq!(report.streamed_weights, 0);
    }

    #[test]
    fn hybrid_streams_at_least_as_much_as_it_preloads_on_transformers() {
        // Transformer weights are MatMul-dominated (no conv transform), so the
        // planner should stream the bulk of them under memory priority.
        let graph = ModelZoo::vit().build();
        let solver = LcOpgSolver::new(DeviceSpec::oneplus_12(), FlashMemConfig::memory_priority());
        let (plan, _) = solver.plan(&graph);
        assert!(plan.streamed_bytes() > plan.preload_bytes() / 2);
    }

    #[test]
    fn latency_priority_preloads_more_than_memory_priority() {
        let graph = small_model();
        let device = DeviceSpec::oneplus_12();
        let (mem_plan, _) =
            LcOpgSolver::new(device.clone(), FlashMemConfig::memory_priority()).plan(&graph);
        let (lat_plan, _) =
            LcOpgSolver::new(device, FlashMemConfig::latency_priority()).plan(&graph);
        assert!(lat_plan.preload_bytes() >= mem_plan.preload_bytes());
    }

    #[test]
    fn explicit_preload_list_is_honoured() {
        let graph = small_model();
        // Pin one of the feed-forward weights by name.
        let pinned = graph
            .nodes()
            .iter()
            .find(|n| n.name.contains("mlp.fc1") && n.weight_bytes() > 0)
            .map(|n| format!("{}.weight", n.name))
            .expect("an mlp weight exists");
        let config = FlashMemConfig::memory_priority().with_explicit_preload(&pinned);
        let solver = LcOpgSolver::new(DeviceSpec::oneplus_12(), config);
        let (plan, _) = solver.plan(&graph);
        let node = graph
            .nodes()
            .iter()
            .find(|n| format!("{}.weight", n.name) == pinned)
            .unwrap();
        assert!(plan.schedule_for(node.id).unwrap().preloaded);
    }

    #[test]
    fn convolution_weights_are_preloaded() {
        let graph = ModelZoo::resnet50().build();
        let solver = LcOpgSolver::new(DeviceSpec::oneplus_12(), FlashMemConfig::memory_priority());
        let (plan, _) = solver.plan(&graph);
        for node in graph.nodes() {
            if node.kind.needs_weight_transform() && node.weight_bytes() > 0 {
                assert!(
                    plan.schedule_for(node.id).unwrap().preloaded,
                    "conv weight {} should be preloaded",
                    node.name
                );
            }
        }
    }

    #[test]
    fn exhausted_budget_degrades_to_feasible() {
        let graph = small_model();
        let mut config = FlashMemConfig::memory_priority();
        config.solver_node_budget = 0;
        let solver = LcOpgSolver::new(DeviceSpec::oneplus_12(), config);
        let (plan, report) = solver.plan(&graph);
        assert_eq!(report.status, SolveStatus::Feasible);
        assert_eq!(report.nodes_explored, 0);
        assert!(plan.total_weight_bytes() > 0);
    }

    #[test]
    fn every_window_is_decided_in_closed_form() {
        let (_, report) =
            LcOpgSolver::new(DeviceSpec::oneplus_12(), FlashMemConfig::memory_priority())
                .plan(&small_model());
        assert_eq!(report.status, SolveStatus::Optimal);
        assert_eq!(report.searched_windows, 0);
        assert_eq!(report.nodes_explored, 0);
        assert_eq!(report.build_model + report.solve_model, Duration::ZERO);
    }

    #[test]
    fn node_to_kernel_map_covers_every_node() {
        let graph = small_model();
        let fusion = FusionPlan::default_fusion(&graph);
        let map = node_to_kernel_map(&fusion);
        assert_eq!(map.len(), graph.len());
        for node in graph.nodes() {
            assert!(map.contains_key(&node.id));
        }
    }

    #[test]
    fn report_total_time_is_sum_of_phases() {
        let graph = small_model();
        let solver = LcOpgSolver::new(DeviceSpec::oneplus_12(), FlashMemConfig::memory_priority());
        let (_, report) = solver.plan(&graph);
        let total = report.total_time();
        assert!(total >= report.solve_model);
        assert!(total >= report.build_model);
    }
}
