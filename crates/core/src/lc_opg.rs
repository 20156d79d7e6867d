//! The Load-Capacity-aware OPG solver (LC-OPG, Section 3.2).
//!
//! LC-OPG schedules the per-weight windows of [`crate::opg`] over the whole
//! model in execution order, maintaining the shared per-kernel load capacities
//! (C3) and the in-flight memory budget `M_peak` (C2) between windows — the
//! paper's *incremental scheduling over a rolling window*.
//!
//! The paper solves each window with CP-SAT. Here every window is decided in
//! closed form from its back-to-front fill ([`crate::opg::back_to_front_fill`]):
//! a window's optimum is the better of preloading and the fill (see
//! [`crate::opg`]), so no search runs. At each capacity scale:
//!
//! - a failed fill proves that no assignment streams the weight, and the
//!   window goes on to the next tier;
//! - a fill that scores no worse than preloading is the optimum and streams;
//! - any other window preloads. Preloading is then the window's optimum: the
//!   decision is final, it is not a fallback and it keeps the plan `OPTIMAL`.
//!
//! Only a window whose fill fails enters the tiered fallback of Section 3.2:
//!
//! 1. **soft thresholding** — retry with the load capacities relaxed by 25%,
//! 2. **greedy heuristic backup** — the unrelaxed window's fill, which has
//!    already failed here, so this tier always hands over to
//! 3. **incremental preloading** — put the weight into the preload set `W`.
//!
//! Soft thresholding relaxes the load capacities (C3) but not the `M_peak`
//! headroom (C2): every chunk is in flight at the window's last kernel, so it
//! cannot rescue a weight with more chunks than the headroom there. A plan
//! whose windows enter the fallback tiers ends `FEASIBLE`, matching the
//! statuses of Table 4. No clock decides anything, so a plan is a pure
//! function of the graph, the device and the configuration; clocks only fill
//! the report's durations.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use flashmem_gpu_sim::DeviceSpec;
use flashmem_graph::{FusionPlan, Graph, NodeId, WeightInventory};
use flashmem_profiler::{CapacityProfiler, LoadCapacity};
use flashmem_solver::SolveStatus;
use serde::{Deserialize, Serialize};

use crate::config::FlashMemConfig;
use crate::kernel_rewrite::KernelRewriter;
use crate::opg::{back_to_front_fill, CandidateSlot, WindowObjective};
use crate::plan::OverlapPlan;

/// Timing and quality report of one LC-OPG run — the columns of Table 4.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LcOpgReport {
    /// Time spent preparing the graph, fusion plan and capacities
    /// ("Process nodes" in Table 4).
    pub process_nodes: Duration,
    /// Time spent in a solver ("Solve model"): always zero, since every
    /// window is decided in closed form. Kept while perfbench's
    /// `lcopg.solve_ms` reads it.
    pub solve_model: Duration,
    /// Final status: `Optimal` when every window took its closed-form
    /// optimum, `Feasible` when some window entered the fallback tiers.
    pub status: SolveStatus,
    /// Number of weight windows processed.
    pub windows: usize,
    /// Windows that needed the soft-threshold retry.
    pub fallback_soft: usize,
    /// Windows that reached the greedy backup; each hands over to
    /// incremental preloading.
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

/// How the planner schedules weights.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PlannerMode {
    /// Closed-form windows with the tiered fallback (the full LC-OPG).
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
    /// Create a planner for `device` with `config` in hybrid mode.
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
            solve_model: Duration::ZERO,
            status: SolveStatus::Optimal,
            windows: 0,
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
            let mut fill = back_to_front_fill(total_chunks, &slots);
            if fill.is_none() {
                report.fallback_soft += 1;
                report.status = SolveStatus::Feasible;
                fill = back_to_front_fill(total_chunks, &candidates(1.25));
            }

            let objective = WindowObjective::new(consumer_kernel, total_chunks, &self.config);
            let decision = match fill {
                Some(fill) if objective.prefers(&fill) => Some(fill),
                // Preloading is the window's optimum: final, not a fallback.
                Some(_) => None,
                // --- Tier 2: greedy heuristic backup, the unrelaxed fill,
                // which failed at Tier 0; Tier 3: incremental preloading ----
                None => {
                    report.fallback_greedy += 1;
                    report.fallback_preload += 1;
                    report.status = SolveStatus::Feasible;
                    None
                }
            };

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
    fn every_window_takes_its_closed_form_optimum() {
        let (_, report) =
            LcOpgSolver::new(DeviceSpec::oneplus_12(), FlashMemConfig::memory_priority())
                .plan(&small_model());
        assert_eq!(report.status, SolveStatus::Optimal);
        assert_eq!((report.fallback_soft, report.fallback_greedy), (0, 0));
    }

    #[test]
    fn preloading_is_final_where_it_is_the_window_optimum() {
        // At λ = 0 preloading beats some feasible fills. Those windows
        // preload without entering the fallback tiers.
        let graph = small_model();
        let memory = FlashMemConfig::memory_priority();
        let device = DeviceSpec::oneplus_12();
        let (plan, report) =
            LcOpgSolver::new(device.clone(), memory.clone().with_lambda(0.0)).plan(&graph);
        let (memory_plan, _) = LcOpgSolver::new(device, memory).plan(&graph);
        assert!(plan.preload_bytes() > memory_plan.preload_bytes());
        assert_eq!(report.status, SolveStatus::Optimal);
        assert_eq!((report.fallback_soft, report.fallback_greedy), (0, 0));
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
}
