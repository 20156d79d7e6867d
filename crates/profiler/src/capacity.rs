//! Per-layer load-capacity determination (Section 4.2).
//!
//! The load capacity `C_ℓ` of a layer is the number of extra weight bytes that
//! can be transformed from unified into texture memory *while layer ℓ
//! executes* without slowing it down past an acceptable threshold. FlashMem
//! derives capacities in two ways:
//!
//! * **Static thresholds** per operator class: the largest extra volume whose
//!   *analytic* latency increase stays within the class budget (0%
//!   hierarchical, 20% reusable, 300% elemental — the Figure 2 thresholds),
//!   found by bisection on the simulator cost model.
//! * **Model-predicted** capacities obtained by bisecting the latency
//!   predicted by the trained GBRT regressor — the profile-guided refinement.

use flashmem_gpu_sim::kernel::{KernelCostModel, KernelDesc};
use flashmem_gpu_sim::DeviceSpec;
use flashmem_graph::{FusionGroup, FusionPlan, Graph};
use serde::{Deserialize, Serialize};

use crate::gbrt::{GbrtConfig, GbrtModel};
use crate::latency_model::{kernel_for_group, LoweringOptions};
use crate::sampling::{KernelSample, KernelSampler, SamplingConfig};

/// Load capacity of one schedulable kernel (fusion group).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LoadCapacity {
    /// Index of the kernel in the execution order (fusion-group index).
    pub kernel_index: usize,
    /// Extra bytes the kernel can absorb while staying under the threshold.
    pub capacity_bytes: u64,
    /// Baseline latency of the kernel with no extra load, in milliseconds.
    pub baseline_latency_ms: f64,
}

/// How capacities are derived.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum CapacityPolicy {
    /// Per-class latency-increase budgets evaluated on the analytic cost
    /// model (the paper's deployment defaults).
    StaticThresholds,
    /// Thresholds refined by the latency regressor: the capacity is the
    /// largest extra volume whose *predicted* relative slowdown stays below
    /// `max_penalty`.
    Predicted {
        /// Maximum tolerated relative latency increase (e.g. 0.2 = 20%).
        max_penalty: f64,
    },
}

/// The load-capacity profiler: computes `C_ℓ` for every kernel of a model.
#[derive(Debug, Clone)]
pub struct CapacityProfiler {
    cost: KernelCostModel,
    options: LoweringOptions,
    policy: CapacityPolicy,
    model: Option<GbrtModel>,
}

impl CapacityProfiler {
    /// A profiler using the paper's static per-class thresholds.
    pub fn new(device: DeviceSpec) -> Self {
        CapacityProfiler {
            cost: KernelCostModel::new(device),
            options: LoweringOptions::flashmem(),
            policy: CapacityPolicy::StaticThresholds,
            model: None,
        }
    }

    /// Override the kernel-lowering options.
    pub fn with_options(mut self, options: LoweringOptions) -> Self {
        self.options = options;
        self
    }

    /// Switch to predicted capacities, training the GBRT regressor on a fresh
    /// profiling sweep of the device (the offline stage of Figure 3/4).
    pub fn with_trained_model(mut self, max_penalty: f64) -> Self {
        let samples =
            KernelSampler::new(self.cost.device().clone(), SamplingConfig::default()).collect();
        let features: Vec<Vec<f64>> = samples.iter().map(KernelSample::features).collect();
        let targets: Vec<f64> = samples.iter().map(|s| s.latency_ms).collect();
        self.model = Some(GbrtModel::fit(&features, &targets, &GbrtConfig::default()));
        self.policy = CapacityPolicy::Predicted { max_penalty };
        self
    }

    /// The active policy.
    pub fn policy(&self) -> CapacityPolicy {
        self.policy
    }

    /// The trained regressor, if any.
    pub fn model(&self) -> Option<&GbrtModel> {
        self.model.as_ref()
    }

    /// Compute the capacity of every fusion group of `plan` over `graph`.
    pub fn capacities(&self, graph: &Graph, plan: &FusionPlan) -> Vec<LoadCapacity> {
        plan.groups()
            .iter()
            .enumerate()
            .map(|(idx, group)| self.capacity(graph, group, idx))
            .collect()
    }

    /// The capacity of one fusion group as kernel `kernel_index` of a plan.
    /// Only `kernel_index` depends on the plan: the capacity and baseline
    /// latency depend on the group and the graph alone.
    pub fn capacity(
        &self,
        graph: &Graph,
        group: &FusionGroup,
        kernel_index: usize,
    ) -> LoadCapacity {
        let kernel = kernel_for_group(graph, group, &self.options);
        let baseline = self.cost.latency_ms(&kernel);
        let capacity = match self.policy {
            CapacityPolicy::StaticThresholds => self.static_capacity(graph, group, &kernel),
            CapacityPolicy::Predicted { max_penalty } => {
                self.predicted_capacity(&kernel, baseline, max_penalty)
            }
        };
        LoadCapacity {
            kernel_index,
            capacity_bytes: capacity,
            baseline_latency_ms: baseline,
        }
    }

    fn static_capacity(&self, graph: &Graph, group: &FusionGroup, kernel: &KernelDesc) -> u64 {
        // The class threshold is a *latency-increase budget* (Figure 2):
        // hierarchical kernels tolerate none, reusable kernels 20%, elemental
        // kernels 300% (their absolute latency is tiny). The capacity is the
        // largest extra volume whose modelled slowdown stays within budget.
        let threshold = group.dominant_category(graph).capacity_threshold();
        if threshold <= 0.0 {
            return 0;
        }
        self.cost.max_extra_load_bytes(kernel, threshold)
    }

    fn predicted_capacity(&self, kernel: &KernelDesc, baseline: f64, max_penalty: f64) -> u64 {
        let Some(model) = &self.model else {
            return 0;
        };
        if max_penalty <= 0.0 || baseline <= 0.0 {
            return 0;
        }
        // Bisect on the extra ratio in [0, 4] using the regressor's predicted
        // latency; the predicted baseline is used for the relative comparison
        // so regressor bias largely cancels.
        let predict = |ratio: f64| {
            let sample = KernelSample {
                category: kernel.category,
                bytes_in: kernel.bytes_in,
                bytes_out: kernel.bytes_out,
                flops: kernel.flops,
                gws: kernel.launch.global_items(),
                lws: kernel.launch.local_items(),
                extra_ratio: ratio,
                latency_ms: 0.0,
            };
            model.predict(&sample.features())
        };
        let predicted_base = predict(0.0).max(1e-6);
        let penalty = |ratio: f64| predict(ratio) / predicted_base - 1.0;
        if penalty(4.0) <= max_penalty {
            return kernel.total_bytes() * 4;
        }
        let mut lo = 0.0f64;
        let mut hi = 4.0f64;
        for _ in 0..24 {
            let mid = (lo + hi) / 2.0;
            if penalty(mid) <= max_penalty {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        (kernel.total_bytes() as f64 * lo) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashmem_graph::{GraphBuilder, OpKind};

    fn transformer_slice() -> Graph {
        let mut b = GraphBuilder::new("slice");
        let x = b.input("x", &[128, 768]);
        let ln = b.norm("ln", OpKind::LayerNorm, x);
        let m = b.matmul("fc1", ln, 3072);
        let g = b.unary("gelu", OpKind::GeLU, m);
        let m2 = b.matmul("fc2", g, 768);
        b.softmax("softmax", m2);
        b.build()
    }

    #[test]
    fn static_capacities_follow_category_thresholds() {
        let graph = transformer_slice();
        let plan = FusionPlan::unfused(&graph);
        let profiler = CapacityProfiler::new(DeviceSpec::oneplus_12());
        let caps = profiler.capacities(&graph, &plan);
        assert_eq!(caps.len(), graph.len());
        // LayerNorm and Softmax get zero capacity.
        assert_eq!(caps[1].capacity_bytes, 0);
        assert_eq!(caps[5].capacity_bytes, 0);
        // MatMuls get 20% of their input bytes.
        assert!(caps[2].capacity_bytes > 0);
        // GeLU (elemental) gets 300%, so proportionally the largest ratio.
        let gelu_node = &graph.nodes()[3];
        assert!(caps[3].capacity_bytes as f64 >= 2.9 * gelu_node.output_bytes() as f64);
    }

    #[test]
    fn fused_plan_capacity_governed_by_dominant_category() {
        let graph = transformer_slice();
        let plan = FusionPlan::default_fusion(&graph);
        let profiler = CapacityProfiler::new(DeviceSpec::oneplus_12());
        let caps = profiler.capacities(&graph, &plan);
        assert_eq!(caps.len(), plan.len());
        // Total capacity of the fused plan is below the unfused plan's total:
        // fusion shrinks schedulable capacity (the Section 4.3 trade-off).
        let unfused_caps = profiler.capacities(&graph, &FusionPlan::unfused(&graph));
        let fused_total: u64 = caps.iter().map(|c| c.capacity_bytes).sum();
        let unfused_total: u64 = unfused_caps.iter().map(|c| c.capacity_bytes).sum();
        assert!(fused_total < unfused_total);
    }

    #[test]
    fn baseline_latencies_positive() {
        let graph = transformer_slice();
        let plan = FusionPlan::default_fusion(&graph);
        let caps = CapacityProfiler::new(DeviceSpec::oneplus_12()).capacities(&graph, &plan);
        for c in caps {
            assert!(c.baseline_latency_ms > 0.0);
        }
    }

    #[test]
    fn predicted_policy_zeroes_hierarchical_and_allows_elemental() {
        let graph = transformer_slice();
        let plan = FusionPlan::unfused(&graph);
        let profiler = CapacityProfiler::new(DeviceSpec::oneplus_12()).with_trained_model(0.20);
        assert!(profiler.model().is_some());
        let caps = profiler.capacities(&graph, &plan);
        // Hierarchical kernels should still end up with (near-)zero capacity,
        // and elemental kernels should get clearly more than reusable ones in
        // relative terms.
        let ln_cap = caps[1].capacity_bytes as f64 / graph.nodes()[1].output_bytes().max(1) as f64;
        let gelu_cap =
            caps[3].capacity_bytes as f64 / graph.nodes()[3].output_bytes().max(1) as f64;
        assert!(ln_cap < gelu_cap, "ln {ln_cap} vs gelu {gelu_cap}");
    }

    #[test]
    fn device_differences_show_up_in_latency_not_in_zero_pattern() {
        // Capacities are latency-budget based, so their magnitude is device
        // dependent — but the zero/non-zero structure (hierarchical kernels
        // get nothing) is identical, and baseline latencies must grow on the
        // weaker device.
        let graph = transformer_slice();
        let plan = FusionPlan::unfused(&graph);
        let fast = CapacityProfiler::new(DeviceSpec::oneplus_12()).capacities(&graph, &plan);
        let slow = CapacityProfiler::new(DeviceSpec::xiaomi_mi_6()).capacities(&graph, &plan);
        for (f, s) in fast.iter().zip(&slow) {
            assert_eq!(f.capacity_bytes == 0, s.capacity_bytes == 0);
            assert!(s.baseline_latency_ms >= f.baseline_latency_ms);
        }
    }
}
