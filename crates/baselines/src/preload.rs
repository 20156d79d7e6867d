//! Simulated preloading frameworks (MNN, NCNN, TVM, LiteRT, ExecuTorch).
//!
//! All the baselines of Table 7/8 share the same architecture: parse the
//! model, load **all** weights from disk into unified memory, transform every
//! weight into the GPU-friendly layout (the "Trans." column of Table 1 — a
//! long sequence of small repack kernels), and only then execute the graph.
//! They differ in the weight layout they use, how many redundant copies they
//! keep around, how fast their kernels are, and which operators / model sizes
//! they support at all. [`FrameworkProfile`] captures those differences and
//! [`PreloadFramework`] compiles them onto the simulator.

use std::sync::Arc;

use flashmem_core::engine::{
    execute_command_stream, CompiledArtifact, FrameworkKind, InferenceEngine,
};
use flashmem_core::ExecutionReport;
use flashmem_gpu_sim::bandwidth::MemoryTier;
use flashmem_gpu_sim::engine::{Command, CommandStream, QueueKind};
use flashmem_gpu_sim::error::SimResult;
use flashmem_gpu_sim::texture::WeightLayout;
use flashmem_gpu_sim::{DeviceSpec, SimError};
use flashmem_graph::{FusionPlan, Graph, ModelSpec};
use flashmem_profiler::{kernel_for_group, LoweringOptions};
use serde::{Deserialize, Serialize};

/// Behavioural profile of a preloading framework.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FrameworkProfile {
    /// Which framework this profile models.
    pub kind: FrameworkKind,
    /// Layout weights end up in for SM reads.
    pub weight_layout: WeightLayout,
    /// Whether weights are stored in FP32 internally (TVM keeps FP32 copies
    /// for fallback paths, inflating memory).
    pub fp32_weights: bool,
    /// Effective disk-read efficiency during model loading (model parsing,
    /// small reads and allocator churn keep frameworks well below the raw
    /// 1.5 GB/s of the flash storage).
    pub load_efficiency: f64,
    /// Fixed per-weight layout-transformation overhead in milliseconds (the
    /// many small repack kernel launches of the "Trans." phase).
    pub transform_overhead_ms: f64,
    /// Multiplier applied to the transform overhead of convolution weights
    /// (Winograd/im2col transforms are much heavier).
    pub conv_transform_multiplier: f64,
    /// Fraction of the unified-memory staging copy of the weights that stays
    /// resident after transformation (1.0 = the framework never releases the
    /// CPU-side copy; 0.0 = released immediately).
    pub retained_um_copy: f64,
    /// Effective GPU compute efficiency of the framework's kernels relative
    /// to the simulator's roofline (captures kernel quality / tuning).
    pub exec_efficiency: f64,
    /// Fixed runtime overhead in MiB (interpreter, delegate caches, arenas).
    pub runtime_overhead_mib: u64,
    /// Activation-arena slack factor (frameworks over-allocate activation
    /// arenas; 1.0 = exactly the peak activation working set).
    pub activation_slack: f64,
    /// Largest model (in millions of parameters) the framework can initialise
    /// on a 16 GB flagship before aborting.
    pub max_params_m: f64,
    /// Whether transformer normalisation operators (LayerNorm & friends) are
    /// available on the GPU path.
    pub supports_layernorm: bool,
    /// Model abbreviations from Table 7 that the framework cannot run for
    /// reasons beyond the two generic predicates above (export toolchain or
    /// operator gaps).
    pub unsupported_abbrs: Vec<String>,
}

impl FrameworkProfile {
    /// Alibaba MNN.
    pub fn mnn() -> Self {
        FrameworkProfile {
            kind: FrameworkKind::Mnn,
            weight_layout: WeightLayout::Texture2p5d,
            fp32_weights: false,
            load_efficiency: 0.25,
            transform_overhead_ms: 1.6,
            conv_transform_multiplier: 20.0,
            retained_um_copy: 0.6,
            exec_efficiency: 0.12,
            runtime_overhead_mib: 120,
            activation_slack: 2.0,
            max_params_m: 900.0,
            supports_layernorm: true,
            unsupported_abbrs: vec!["GPTN-1.3B".into(), "GPTN-2.7B".into(), "SAM-2".into()],
        }
    }

    /// Tencent NCNN: fast convolution kernels but no GPU LayerNorm, so no
    /// transformer model runs on its GPU path.
    pub fn ncnn() -> Self {
        FrameworkProfile {
            kind: FrameworkKind::Ncnn,
            weight_layout: WeightLayout::Texture2p5d,
            fp32_weights: false,
            load_efficiency: 0.30,
            transform_overhead_ms: 1.2,
            conv_transform_multiplier: 12.0,
            retained_um_copy: 0.8,
            exec_efficiency: 0.11,
            runtime_overhead_mib: 90,
            activation_slack: 1.6,
            max_params_m: 600.0,
            supports_layernorm: false,
            unsupported_abbrs: vec![],
        }
    }

    /// Apache TVM: auto-tuned kernels but FP32 weight copies and a heavy
    /// runtime, giving it the largest memory footprints of Table 8.
    pub fn tvm() -> Self {
        FrameworkProfile {
            kind: FrameworkKind::Tvm,
            weight_layout: WeightLayout::Texture2p5d,
            fp32_weights: true,
            load_efficiency: 0.35,
            transform_overhead_ms: 2.2,
            conv_transform_multiplier: 4.0,
            retained_um_copy: 1.0,
            exec_efficiency: 0.10,
            runtime_overhead_mib: 160,
            activation_slack: 2.5,
            max_params_m: 900.0,
            supports_layernorm: true,
            unsupported_abbrs: vec![
                "GPTN-1.3B".into(),
                "GPTN-2.7B".into(),
                "SAM-2".into(),
                "SD-UNet".into(),
            ],
        }
    }

    /// LiteRT (TensorFlow Lite): efficient classification kernels, limited
    /// coverage of generative / speech models on the GPU delegate.
    pub fn litert() -> Self {
        FrameworkProfile {
            kind: FrameworkKind::LiteRt,
            weight_layout: WeightLayout::Texture2p5d,
            fp32_weights: false,
            load_efficiency: 0.40,
            transform_overhead_ms: 1.0,
            conv_transform_multiplier: 10.0,
            retained_um_copy: 1.0,
            exec_efficiency: 0.20,
            runtime_overhead_mib: 140,
            activation_slack: 2.2,
            max_params_m: 500.0,
            supports_layernorm: true,
            unsupported_abbrs: vec![
                "GPTN-S".into(),
                "GPTN-1.3B".into(),
                "GPTN-2.7B".into(),
                "SAM-2".into(),
                "SD-UNet".into(),
                "Whisp-M".into(),
                "DepA-S".into(),
                "DepA-L".into(),
            ],
        }
    }

    /// PyTorch ExecuTorch: portable but without GPU-specific memory-hierarchy
    /// optimisations — weights stay in flat unified-memory buffers, which is
    /// why its execution latencies explode in Table 7.
    pub fn executorch() -> Self {
        FrameworkProfile {
            kind: FrameworkKind::ExecuTorch,
            weight_layout: WeightLayout::LinearBuffer,
            fp32_weights: false,
            load_efficiency: 0.55,
            transform_overhead_ms: 0.05,
            conv_transform_multiplier: 1.0,
            retained_um_copy: 1.0,
            exec_efficiency: 0.004,
            runtime_overhead_mib: 110,
            activation_slack: 1.8,
            max_params_m: 1_600.0,
            supports_layernorm: true,
            unsupported_abbrs: vec![
                "GPTN-2.7B".into(),
                "Whisp-M".into(),
                "DepA-S".into(),
                "DepA-L".into(),
            ],
        }
    }

    /// SmartMem: the precursor prototype — 2.5D layouts chosen offline so no
    /// runtime Reshape/Transpose, much cheaper transformation and better
    /// kernels, but still a preloading framework.
    pub fn smartmem() -> Self {
        FrameworkProfile {
            kind: FrameworkKind::SmartMem,
            weight_layout: WeightLayout::Texture2p5dOptimized,
            fp32_weights: false,
            load_efficiency: 0.45,
            transform_overhead_ms: 0.45,
            conv_transform_multiplier: 12.0,
            retained_um_copy: 0.25,
            exec_efficiency: 0.30,
            runtime_overhead_mib: 100,
            activation_slack: 1.5,
            max_params_m: 1_600.0,
            supports_layernorm: true,
            unsupported_abbrs: vec!["GPTN-2.7B".into()],
        }
    }
}

/// A preloading framework driven by a [`FrameworkProfile`].
#[derive(Debug, Clone)]
pub struct PreloadFramework {
    profile: FrameworkProfile,
}

impl PreloadFramework {
    /// Wrap a profile.
    pub fn new(profile: FrameworkProfile) -> Self {
        PreloadFramework { profile }
    }

    /// All six baseline frameworks of Tables 7/8, in table order.
    pub fn all_baselines() -> Vec<PreloadFramework> {
        vec![
            Self::new(FrameworkProfile::mnn()),
            Self::new(FrameworkProfile::ncnn()),
            Self::new(FrameworkProfile::tvm()),
            Self::new(FrameworkProfile::litert()),
            Self::new(FrameworkProfile::executorch()),
            Self::new(FrameworkProfile::smartmem()),
        ]
    }

    /// The behavioural profile.
    pub fn profile(&self) -> &FrameworkProfile {
        &self.profile
    }

    fn lowering_options(&self) -> LoweringOptions {
        LoweringOptions {
            weight_layout: self.profile.weight_layout,
            pipelined: false,
            divergence_penalty: 0.0,
            fp16: !self.profile.fp32_weights,
        }
    }

    /// Compile the preload-then-execute schedule for `graph`.
    pub fn compile_stream(&self, graph: &Graph) -> CommandStream {
        let profile = &self.profile;
        let fusion = FusionPlan::default_fusion(graph);
        let options = self.lowering_options();
        let weight_scale = if profile.fp32_weights { 2 } else { 1 };

        let mut stream = CommandStream::new();
        stream.push(Command::alloc(
            MemoryTier::UnifiedMemory,
            profile.runtime_overhead_mib * 1024 * 1024,
            [],
        ));
        let activation_bytes =
            (graph.max_activation_bytes() as f64 * 2.0 * profile.activation_slack) as u64;
        stream.push(Command::alloc(
            MemoryTier::UnifiedMemory,
            activation_bytes.max(1),
            [],
        ));

        // Phase 1 — load every weight from disk into unified memory. The
        // framework's parser/allocator keeps the effective read rate well
        // below the raw flash bandwidth, modelled as extra traffic.
        let total_weight_bytes = graph.total_weight_bytes() * weight_scale;
        let effective_load_bytes =
            (total_weight_bytes as f64 / profile.load_efficiency.max(0.05)) as u64;
        let um_alloc = stream.push(Command::alloc(
            MemoryTier::UnifiedMemory,
            total_weight_bytes,
            [],
        ));
        let load = stream.push(Command::transfer(
            "weights.load",
            effective_load_bytes,
            MemoryTier::Disk,
            MemoryTier::UnifiedMemory,
            [um_alloc],
        ));

        // Phase 2 — transform every weight into the execution layout: one
        // repack kernel per weighted node, each with a fixed launch/sync
        // overhead (Winograd transforms for convolutions are far heavier).
        let traffic_factor = options.weight_layout.transform_traffic_factor();
        let mut last_transform = load;
        let mut tm_total: u64 = 0;
        for node in graph.nodes().iter().filter(|n| n.weight_bytes() > 0) {
            let bytes = node.weight_bytes() * weight_scale;
            tm_total += bytes;
            let overhead = if node.kind.needs_weight_transform() {
                profile.transform_overhead_ms * profile.conv_transform_multiplier
            } else {
                profile.transform_overhead_ms
            };
            // Model the fixed overhead as extra traffic on the transform
            // (overhead_ms at texture bandwidth), so a single command carries
            // both the data movement and the launch/sync cost.
            let overhead_bytes = (overhead * 1e-3 * 172.0e9) as u64;
            let transform = stream.push(Command::transform(
                format!("{}.repack", node.name),
                bytes + overhead_bytes,
                traffic_factor.max(0.2),
                QueueKind::Compute,
                [last_transform],
            ));
            last_transform = transform;
        }
        if options.weight_layout != WeightLayout::LinearBuffer {
            stream.push(Command::alloc(
                MemoryTier::TextureMemory,
                tm_total,
                [last_transform],
            ));
        }
        // Release the fraction of the unified-memory staging copy the
        // framework does not retain.
        let released =
            (total_weight_bytes as f64 * (1.0 - profile.retained_um_copy)).round() as u64;
        if released > 0 && options.weight_layout != WeightLayout::LinearBuffer {
            // Model the partial release by freeing the staging buffer and
            // re-allocating the retained share.
            let free = stream.push(Command::free(um_alloc, [last_transform]));
            if total_weight_bytes > released {
                stream.push(Command::alloc(
                    MemoryTier::UnifiedMemory,
                    total_weight_bytes - released,
                    [free],
                ));
            }
        }
        let init_done = stream.push(Command::barrier([last_transform]));

        // Phase 3 — execute the graph, one fused kernel at a time.
        let mut prev = init_done;
        for group in fusion.groups() {
            let mut kernel = kernel_for_group(graph, group, &options);
            // Framework kernel quality: effective FLOP rate is a fraction of
            // the roofline the simulator models.
            kernel.flops /= self.profile.exec_efficiency.max(1e-3);
            prev = stream.push(Command::kernel(kernel.name.clone(), kernel, 0, [prev]));
        }
        stream
    }
}

impl InferenceEngine for PreloadFramework {
    fn kind(&self) -> FrameworkKind {
        self.profile.kind
    }

    fn supports(&self, model: &ModelSpec) -> bool {
        let profile = &self.profile;
        if profile.unsupported_abbrs.iter().any(|a| a == &model.abbr) {
            return false;
        }
        if model.params_m() > profile.max_params_m {
            return false;
        }
        if !profile.supports_layernorm {
            let has_layernorm = model.graph().nodes().iter().any(|n| {
                matches!(
                    n.kind,
                    flashmem_graph::OpKind::LayerNorm | flashmem_graph::OpKind::RMSNorm
                )
            });
            if has_layernorm {
                return false;
            }
        }
        true
    }

    fn compile(&self, model: &ModelSpec, _device: &DeviceSpec) -> SimResult<CompiledArtifact> {
        if !self.supports(model) {
            return Err(SimError::InvalidParameter {
                message: format!("{} does not support {}", self.name(), model.abbr),
            });
        }
        Ok(CompiledArtifact::Preload(Arc::new(
            self.compile_stream(model.graph()),
        )))
    }

    fn execute(
        &self,
        model: &ModelSpec,
        artifact: &CompiledArtifact,
        device: &DeviceSpec,
    ) -> SimResult<ExecutionReport> {
        match artifact {
            CompiledArtifact::Preload(stream) => {
                execute_command_stream(&self.name(), model, stream, device)
            }
            _ => Err(CompiledArtifact::mismatch(&self.name())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashmem_graph::ModelZoo;

    #[test]
    fn support_matrix_matches_table_7_dashes() {
        let mnn = PreloadFramework::new(FrameworkProfile::mnn());
        let ncnn = PreloadFramework::new(FrameworkProfile::ncnn());
        let tvm = PreloadFramework::new(FrameworkProfile::tvm());
        let litert = PreloadFramework::new(FrameworkProfile::litert());
        let etorch = PreloadFramework::new(FrameworkProfile::executorch());
        let smem = PreloadFramework::new(FrameworkProfile::smartmem());

        let gptn_s = ModelZoo::gptneo_small();
        let gptn_13 = ModelZoo::gptneo_1_3b();
        let gptn_27 = ModelZoo::gptneo_2_7b();
        let resnet = ModelZoo::resnet50();
        let vit = ModelZoo::vit();
        let whisper = ModelZoo::whisper_medium();

        // NCNN: no transformer support (LayerNorm missing), ResNet fine.
        assert!(!ncnn.supports(&gptn_s));
        assert!(!ncnn.supports(&vit));
        assert!(ncnn.supports(&resnet));
        // MNN: runs GPTN-S and ViT but not the 1.3B/2.7B models.
        assert!(mnn.supports(&gptn_s));
        assert!(!mnn.supports(&gptn_13));
        // LiteRT: classification only.
        assert!(litert.supports(&vit));
        assert!(litert.supports(&resnet));
        assert!(!litert.supports(&whisper));
        assert!(!litert.supports(&gptn_s));
        // ExecuTorch runs the 1.3B model (slowly) but not Whisper.
        assert!(etorch.supports(&gptn_13));
        assert!(!etorch.supports(&whisper));
        // TVM: no SD-UNet.
        assert!(!tvm.supports(&ModelZoo::sd_unet()));
        assert!(tvm.supports(&gptn_s));
        // Nobody supports GPTN-2.7B.
        for fw in PreloadFramework::all_baselines() {
            assert!(!fw.supports(&gptn_27), "{} should reject 2.7B", fw.name());
        }
        // SmartMem supports everything else in the table.
        for m in ModelZoo::all_evaluated() {
            if m.abbr != "GPTN-2.7B" {
                assert!(smem.supports(&m), "SmartMem should support {}", m.abbr);
            }
        }
    }

    #[test]
    fn init_dominates_latency_for_preloading_frameworks() {
        // Table 1's observation: load + transform dwarfs inference.
        let mnn = PreloadFramework::new(FrameworkProfile::mnn());
        let report = mnn
            .run(&ModelZoo::gptneo_small(), &DeviceSpec::oneplus_12())
            .unwrap();
        assert!(report.init_latency_ms > report.exec_latency_ms);
        assert!(
            report.init_latency_ms > 1_000.0,
            "{}",
            report.init_latency_ms
        );
    }

    #[test]
    fn smartmem_is_faster_and_leaner_than_mnn() {
        let device = DeviceSpec::oneplus_12();
        let model = ModelZoo::vit();
        let mnn = PreloadFramework::new(FrameworkProfile::mnn())
            .run(&model, &device)
            .unwrap();
        let smem = PreloadFramework::new(FrameworkProfile::smartmem())
            .run(&model, &device)
            .unwrap();
        assert!(smem.integrated_latency_ms < mnn.integrated_latency_ms);
        assert!(smem.average_memory_mb < mnn.average_memory_mb);
    }

    #[test]
    fn executorch_execution_is_orders_of_magnitude_slower() {
        let device = DeviceSpec::oneplus_12();
        let model = ModelZoo::vit();
        let etorch = PreloadFramework::new(FrameworkProfile::executorch())
            .run(&model, &device)
            .unwrap();
        let smem = PreloadFramework::new(FrameworkProfile::smartmem())
            .run(&model, &device)
            .unwrap();
        assert!(
            etorch.exec_latency_ms > 10.0 * smem.exec_latency_ms,
            "etorch {} vs smartmem {}",
            etorch.exec_latency_ms,
            smem.exec_latency_ms
        );
    }

    #[test]
    fn tvm_has_the_largest_memory_footprint() {
        let device = DeviceSpec::oneplus_12();
        let model = ModelZoo::vit();
        let reports: Vec<ExecutionReport> = PreloadFramework::all_baselines()
            .iter()
            .filter(|f| f.supports(&model))
            .map(|f| f.run(&model, &device).unwrap())
            .collect();
        let tvm = reports.iter().find(|r| r.framework == "TVM").unwrap();
        for r in &reports {
            assert!(
                tvm.average_memory_mb >= r.average_memory_mb,
                "{}",
                r.framework
            );
        }
    }

    #[test]
    fn unsupported_model_returns_error() {
        let ncnn = PreloadFramework::new(FrameworkProfile::ncnn());
        let err = ncnn
            .run(&ModelZoo::vit(), &DeviceSpec::oneplus_12())
            .unwrap_err();
        assert!(matches!(err, SimError::InvalidParameter { .. }));
    }

    #[test]
    fn conv_models_pay_heavier_transformation() {
        // SD-UNet's Winograd-style transforms inflate initialization time
        // disproportionately vs a transformer of comparable weight volume.
        let mnn = PreloadFramework::new(FrameworkProfile::mnn());
        let device = DeviceSpec::oneplus_12();
        let unet = mnn.run(&ModelZoo::sd_unet(), &device).unwrap();
        let whisper_like = mnn.run(&ModelZoo::deepvit(), &device).unwrap();
        let unet_weights = ModelZoo::sd_unet().graph().total_weight_bytes() as f64;
        let deepvit_weights = ModelZoo::deepvit().graph().total_weight_bytes() as f64;
        let unet_init_per_byte = unet.init_latency_ms / unet_weights;
        let deepvit_init_per_byte = whisper_like.init_latency_ms / deepvit_weights;
        assert!(unet_init_per_byte > deepvit_init_per_byte);
    }
}
