//! Adaptive fusion (Section 4.3).
//!
//! Operator fusion shrinks kernel-launch overhead and intermediate tensors,
//! but fusing `k` operators into one kernel collapses their `k` scheduling
//! slots into one, shrinking the schedulable load capacity from `ΣC_i` to
//! roughly `min(C_1..C_k)`. When the OPG solver runs out of capacity it forces
//! weights into the preload set `W`, which is exactly what FlashMem is trying
//! to avoid. Adaptive fusion therefore scores fused kernels by the capacity
//! they destroy and selectively splits the worst offenders — but only when the
//! split recovers at least `(1 + α)` times the fused capacity, and never for
//! hierarchical fusions.

use flashmem_gpu_sim::DeviceSpec;
use flashmem_graph::{FusionGroup, FusionPlan, Graph, OpCategory};
use flashmem_profiler::{CapacityProfiler, LoadCapacity, LoweringOptions};
use serde::{Deserialize, Serialize};

use crate::config::FlashMemConfig;
use crate::kernel_rewrite::KernelRewriter;

/// Summary of one adaptive-fusion pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AdaptiveFusionReport {
    /// Number of fused kernels that were split.
    pub splits: usize,
    /// Number of split candidates examined.
    pub candidates: usize,
    /// Total schedulable capacity (bytes) before the pass.
    pub capacity_before: u64,
    /// Total schedulable capacity (bytes) after the pass.
    pub capacity_after: u64,
}

impl AdaptiveFusionReport {
    /// Relative capacity gain achieved by the pass.
    pub fn capacity_gain(&self) -> f64 {
        if self.capacity_before == 0 {
            return 0.0;
        }
        self.capacity_after as f64 / self.capacity_before as f64 - 1.0
    }
}

/// The adaptive-fusion pass.
#[derive(Debug, Clone)]
pub struct AdaptiveFusion {
    device: DeviceSpec,
    config: FlashMemConfig,
    options: LoweringOptions,
}

impl AdaptiveFusion {
    /// Create a pass for `device` under `config`.
    pub fn new(device: DeviceSpec, config: FlashMemConfig) -> Self {
        let options =
            KernelRewriter::for_kernel_rewriting(config.enable_kernel_rewriting).lowering_options();
        AdaptiveFusion {
            device,
            config,
            options,
        }
    }

    /// Refine `plan`: split fused kernels whose members would, as separate
    /// kernels, offer at least `(1 + α)` times the fused load capacity.
    /// Returns the refined plan and a report.
    pub fn refine(&self, graph: &Graph, plan: &FusionPlan) -> (FusionPlan, AdaptiveFusionReport) {
        let (refined, report, _) = self.refine_with_capacities(graph, plan);
        (refined, report)
    }

    /// [`refine`](Self::refine), also returning the refined plan's load
    /// capacities, equal to profiling the refined plan afresh.
    ///
    /// The input plan is profiled once. A group's capacity depends only on
    /// the group and the graph, so a candidate's fused capacity is its entry
    /// in that profile and only the two halves of a candidate are priced.
    /// The refined plan's capacities are the input profile with each split
    /// entry replaced by its halves.
    pub fn refine_with_capacities(
        &self,
        graph: &Graph,
        plan: &FusionPlan,
    ) -> (FusionPlan, AdaptiveFusionReport, Vec<LoadCapacity>) {
        let profiler = CapacityProfiler::new(self.device.clone()).with_options(self.options);
        let profile = profiler.capacities(graph, plan);

        let mut groups = Vec::with_capacity(plan.len());
        let mut capacities = Vec::with_capacity(plan.len());
        let mut candidates = 0usize;
        let mut splits = 0usize;
        for (group, fused) in plan.groups().iter().zip(&profile) {
            // Rule 2: hierarchical fusions are retained intact.
            let candidate =
                !group.is_singleton() && group.dominant_category(graph) != OpCategory::Hierarchical;
            if candidate {
                candidates += 1;
                let halves = split_point(graph, group).and_then(|at| group.split_at(at));
                if let Some((left, right)) = halves {
                    // Capacity check: C_v1 + C_v2 ≥ (1 + α) · C_fused.
                    let left_capacity = profiler.capacity(graph, &left, groups.len());
                    let right_capacity = profiler.capacity(graph, &right, groups.len() + 1);
                    let split_capacity =
                        left_capacity.capacity_bytes + right_capacity.capacity_bytes;
                    if (split_capacity as f64)
                        >= (1.0 + self.config.alpha) * fused.capacity_bytes as f64
                    {
                        groups.extend([left, right]);
                        capacities.extend([left_capacity, right_capacity]);
                        splits += 1;
                        continue;
                    }
                }
            }
            capacities.push(LoadCapacity {
                kernel_index: groups.len(),
                ..*fused
            });
            groups.push(group.clone());
        }

        let report = AdaptiveFusionReport {
            splits,
            candidates,
            capacity_before: total_capacity(&profile),
            capacity_after: total_capacity(&capacities),
        };
        (FusionPlan::from_groups(groups), report, capacities)
    }
}

/// Operator-specific splitting rule (Section 4.3): split a reusable+elemental
/// fusion right after its last reusable member (e.g. `MatMul+Add` | `GeLU`).
/// Returns `None` when no useful split point exists.
fn split_point(graph: &Graph, group: &FusionGroup) -> Option<usize> {
    let categories: Vec<OpCategory> = group
        .nodes
        .iter()
        .filter_map(|id| graph.node(*id).map(|n| n.category()))
        .collect();
    let has_reusable = categories.contains(&OpCategory::Reusable);
    let has_elemental = categories.contains(&OpCategory::Elemental);
    if !has_reusable || !has_elemental {
        return None;
    }
    let last_reusable = categories
        .iter()
        .rposition(|c| *c == OpCategory::Reusable)?;
    let split_after = last_reusable + 1;
    if split_after == 0 || split_after >= group.len() {
        return None;
    }
    Some(split_after)
}

fn total_capacity(capacities: &[LoadCapacity]) -> u64 {
    capacities.iter().map(|c| c.capacity_bytes).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashmem_graph::{GraphBuilder, ModelZoo, OpKind};

    fn ffn_graph() -> Graph {
        let mut b = GraphBuilder::new("ffn");
        let x = b.input("x", &[128, 768]);
        let m1 = b.matmul("fc1", x, 3072);
        let a1 = b.bias_add("bias1", m1);
        let g1 = b.unary("gelu", OpKind::GeLU, a1);
        let m2 = b.matmul("fc2", g1, 768);
        let a2 = b.bias_add("bias2", m2);
        b.norm("ln", OpKind::LayerNorm, a2);
        b.build()
    }

    #[test]
    fn refinement_increases_total_capacity() {
        let graph = ffn_graph();
        let plan = FusionPlan::default_fusion(&graph);
        let pass = AdaptiveFusion::new(DeviceSpec::oneplus_12(), FlashMemConfig::memory_priority());
        let (refined, report) = pass.refine(&graph, &plan);
        assert!(refined.is_valid_partition(&graph));
        assert!(report.capacity_after >= report.capacity_before);
        if report.splits > 0 {
            assert!(refined.len() > plan.len());
            assert!(report.capacity_gain() > 0.0);
        }
    }

    #[test]
    fn splits_separate_reusable_from_elemental() {
        let graph = ffn_graph();
        let plan = FusionPlan::default_fusion(&graph);
        let pass = AdaptiveFusion::new(
            DeviceSpec::oneplus_12(),
            FlashMemConfig::memory_priority().with_alpha(0.05),
        );
        let (refined, report) = pass.refine(&graph, &plan);
        assert!(report.candidates > 0);
        // After splitting, no group mixes a MatMul with a trailing GeLU.
        if report.splits > 0 {
            for group in refined.groups() {
                let kinds: Vec<OpKind> = group
                    .nodes
                    .iter()
                    .map(|id| graph.node(*id).unwrap().kind)
                    .collect();
                let has_matmul = kinds.contains(&OpKind::MatMul);
                let has_gelu = kinds.contains(&OpKind::GeLU);
                assert!(!(has_matmul && has_gelu), "group still mixes {kinds:?}");
            }
        }
    }

    #[test]
    fn hierarchical_fusions_are_never_split() {
        // Build a graph whose default fusion would put an elemental op with a
        // hierarchical op — then verify the pass leaves such groups alone.
        let graph = ffn_graph();
        let plan = FusionPlan::default_fusion(&graph);
        let hierarchical_groups_before = plan
            .groups()
            .iter()
            .filter(|g| g.dominant_category(&graph) == OpCategory::Hierarchical)
            .count();
        let pass = AdaptiveFusion::new(
            DeviceSpec::oneplus_12(),
            FlashMemConfig::memory_priority().with_alpha(0.0),
        );
        let (refined, _) = pass.refine(&graph, &plan);
        let hierarchical_groups_after = refined
            .groups()
            .iter()
            .filter(|g| g.dominant_category(&graph) == OpCategory::Hierarchical)
            .count();
        assert_eq!(hierarchical_groups_before, hierarchical_groups_after);
    }

    #[test]
    fn large_alpha_suppresses_splits() {
        let graph = ffn_graph();
        let plan = FusionPlan::default_fusion(&graph);
        let pass = AdaptiveFusion::new(
            DeviceSpec::oneplus_12(),
            FlashMemConfig::memory_priority().with_alpha(1_000.0),
        );
        let (refined, report) = pass.refine(&graph, &plan);
        assert_eq!(report.splits, 0);
        assert_eq!(refined.len(), plan.len());
    }

    #[test]
    fn refinement_on_a_real_model_preserves_partition() {
        let model = ModelZoo::vit();
        let plan = FusionPlan::default_fusion(model.graph());
        let pass = AdaptiveFusion::new(DeviceSpec::oneplus_12(), FlashMemConfig::memory_priority());
        let (refined, report) = pass.refine(model.graph(), &plan);
        assert!(refined.is_valid_partition(model.graph()));
        assert!(report.capacity_after >= report.capacity_before);
    }
}
