//! The unified inference-engine abstraction.
//!
//! The paper's evaluation (Tables 7–9, Figures 6–10) runs many frameworks —
//! FlashMem itself, the commercial preloading frameworks, SmartMem and the
//! naive overlap strawmen — over the same model × device matrix. This module
//! is the seam that makes that uniform: every runtime implements
//! [`InferenceEngine`] (`compile` → [`CompiledArtifact`] → `execute` →
//! [`ExecutionReport`]) and the benchmark harness enumerates them through an
//! [`EngineRegistry`] instead of wiring each framework by hand.
//!
//! FlashMem's own engine implementations live here; the baseline frameworks
//! implement the trait in `flashmem-baselines`, which also assembles the full
//! standard registry.

use std::sync::Arc;

use flashmem_gpu_sim::engine::{CommandStream, GpuSimulator, SimConfig};
use flashmem_gpu_sim::error::SimResult;
use flashmem_gpu_sim::{DeviceSpec, SimError};
use flashmem_graph::{FusionPlan, ModelSpec};
use serde::{Deserialize, Serialize};

use crate::config::FlashMemConfig;
use crate::executor::StreamingExecutor;
use crate::metrics::ExecutionReport;
use crate::plan::OverlapPlan;
use crate::runtime::{CompiledModel, FlashMem};

/// Identity of a mobile DNN framework appearing in the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FrameworkKind {
    /// Alibaba MNN.
    Mnn,
    /// Tencent NCNN.
    Ncnn,
    /// Apache TVM.
    Tvm,
    /// LiteRT (formerly TensorFlow Lite).
    LiteRt,
    /// PyTorch ExecuTorch.
    ExecuTorch,
    /// SmartMem (the precursor research prototype FlashMem builds on).
    SmartMem,
    /// FlashMem itself.
    FlashMem,
    /// The Always-Next naive overlap strategy (Figure 9).
    AlwaysNext,
    /// The Same-Op-Type prefetching strategy (Figure 9).
    SameOpType,
}

impl FrameworkKind {
    /// Display name used in the tables.
    pub fn name(&self) -> &'static str {
        match self {
            FrameworkKind::Mnn => "MNN",
            FrameworkKind::Ncnn => "NCNN",
            FrameworkKind::Tvm => "TVM",
            FrameworkKind::LiteRt => "LiteRT",
            FrameworkKind::ExecuTorch => "ExecuTorch",
            FrameworkKind::SmartMem => "SmartMem",
            FrameworkKind::FlashMem => "FlashMem",
            FrameworkKind::AlwaysNext => "Always-Next",
            FrameworkKind::SameOpType => "Same-Op-Type",
        }
    }

    /// The baseline frameworks compared in Tables 7 and 8, in table order.
    pub fn baselines() -> [FrameworkKind; 6] {
        [
            FrameworkKind::Mnn,
            FrameworkKind::Ncnn,
            FrameworkKind::Tvm,
            FrameworkKind::LiteRt,
            FrameworkKind::ExecuTorch,
            FrameworkKind::SmartMem,
        ]
    }

    /// Every framework kind, in evaluation order (baselines, FlashMem, then
    /// the naive overlap strawmen).
    pub fn all() -> [FrameworkKind; 9] {
        [
            FrameworkKind::Mnn,
            FrameworkKind::Ncnn,
            FrameworkKind::Tvm,
            FrameworkKind::LiteRt,
            FrameworkKind::ExecuTorch,
            FrameworkKind::SmartMem,
            FrameworkKind::FlashMem,
            FrameworkKind::AlwaysNext,
            FrameworkKind::SameOpType,
        ]
    }

    /// True for the engines that stream weights during execution (FlashMem
    /// and the naive overlap strawmen); false for preloading frameworks.
    pub fn is_streaming(&self) -> bool {
        matches!(
            self,
            FrameworkKind::FlashMem | FrameworkKind::AlwaysNext | FrameworkKind::SameOpType
        )
    }
}

impl std::fmt::Display for FrameworkKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The device-ready output of [`InferenceEngine::compile`].
///
/// Engines lower models very differently — FlashMem produces a streaming
/// overlap plan, preloading frameworks a flat command stream, the naive
/// strawmen a fusion plan plus a capacity-oblivious overlap plan — so the
/// artifact is an enum rather than a trait object: `execute` implementations
/// match on the variant they produced, and the harness can still inspect
/// common properties such as [`streamed_fraction`](Self::streamed_fraction).
#[derive(Debug, Clone)]
pub enum CompiledArtifact {
    /// A FlashMem compilation: refined fusion, overlap plan and reports.
    Streaming(CompiledModel),
    /// A preloading framework's full load → transform → execute schedule,
    /// shared with every run that replays it.
    Preload(Arc<CommandStream>),
    /// A naive streaming plan sharing FlashMem's executor.
    NaivePlan {
        /// The fusion plan the naive strategy executes.
        fusion: FusionPlan,
        /// The capacity-oblivious overlap plan.
        plan: OverlapPlan,
    },
}

impl CompiledArtifact {
    /// Fraction of weight bytes streamed rather than preloaded (0 for
    /// preloading frameworks).
    pub fn streamed_fraction(&self) -> f64 {
        match self {
            CompiledArtifact::Streaming(compiled) => compiled.streamed_fraction(),
            CompiledArtifact::Preload(_) => 0.0,
            CompiledArtifact::NaivePlan { plan, .. } => plan.streamed_fraction(),
        }
    }

    /// The FlashMem compilation, if this is a [`Streaming`](Self::Streaming)
    /// artifact.
    pub fn as_streaming(&self) -> Option<&CompiledModel> {
        match self {
            CompiledArtifact::Streaming(compiled) => Some(compiled),
            _ => None,
        }
    }

    /// Error used by `execute` implementations handed an artifact produced by
    /// a different engine.
    pub fn mismatch(engine: &str) -> SimError {
        SimError::InvalidParameter {
            message: format!("artifact was not compiled by {engine}"),
        }
    }
}

/// Lower a compiled artifact to the command stream a device replays.
///
/// A FlashMem artifact lowers through the [`StreamingExecutor`] its
/// configuration implies; a preload artifact *is* a command stream, which
/// this returns as an owned copy; a naive
/// plan lowers like a configuration without kernel rewriting, as in the
/// Figure 9 strawmen.
///
/// Lowering is a pure function of its inputs, which the plan cache already
/// identifies by [`ArtifactCache::key_for`](crate::ArtifactCache::key_for),
/// so a caller may lower once per key and share the stream.
pub fn lower_artifact(
    artifact: &CompiledArtifact,
    model: &ModelSpec,
    device: &DeviceSpec,
    config: &FlashMemConfig,
) -> CommandStream {
    let (kernel_rewriting, fusion, plan) = match artifact {
        CompiledArtifact::Streaming(compiled) => (
            config.enable_kernel_rewriting,
            &compiled.fusion,
            &compiled.plan,
        ),
        CompiledArtifact::NaivePlan { fusion, plan } => (false, fusion, plan),
        CompiledArtifact::Preload(stream) => return CommandStream::clone(stream),
    };
    StreamingExecutor::for_kernel_rewriting(device.clone(), kernel_rewriting).compile(
        model.graph(),
        fusion,
        plan,
    )
}

/// A DNN runtime that can compile and execute the evaluation models on a
/// simulated device.
///
/// This is the uniform entry point the benchmark harness drives: FlashMem,
/// every preloading baseline and the naive overlap strawmen all implement it,
/// so experiment code sweeps `engines × models × devices` without
/// per-framework wiring.
pub trait InferenceEngine: Send + Sync {
    /// The engine's identity.
    fn kind(&self) -> FrameworkKind;

    /// Display name. Engines representing configuration variants (ablations,
    /// trade-off sweeps) override this with a distinguishing label.
    fn name(&self) -> String {
        self.kind().name().to_string()
    }

    /// Whether the engine supports the model at all (the "–" cells of
    /// Tables 7/8 come from operator gaps and model-scale limits).
    fn supports(&self, _model: &ModelSpec) -> bool {
        true
    }

    /// Fingerprint of the engine's *configuration*, mixed into
    /// [`ArtifactCache`](crate::cache::ArtifactCache) keys so two engines
    /// sharing a display name but differing in configuration never alias.
    /// Engines without tunable configuration keep the default.
    fn cache_salt(&self) -> u64 {
        0
    }

    /// Compile `model` for `device`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidParameter`] for unsupported models.
    fn compile(&self, model: &ModelSpec, device: &DeviceSpec) -> SimResult<CompiledArtifact>;

    /// Execute a previously compiled artifact on `device`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidParameter`] if `artifact` was produced by a
    /// different engine, and propagates simulator errors (most importantly
    /// out-of-memory on constrained devices).
    fn execute(
        &self,
        model: &ModelSpec,
        artifact: &CompiledArtifact,
        device: &DeviceSpec,
    ) -> SimResult<ExecutionReport>;

    /// Compile and execute in one call.
    ///
    /// # Errors
    ///
    /// Propagates compile and execution errors.
    fn run(&self, model: &ModelSpec, device: &DeviceSpec) -> SimResult<ExecutionReport> {
        let artifact = self.compile(model, device)?;
        self.execute(model, &artifact, device)
    }
}

/// Run an engine and flatten "unsupported" and simulator failures (OOM) into
/// `None` — how the paper's tables render those cells.
pub fn run_or_dash(
    engine: &dyn InferenceEngine,
    model: &ModelSpec,
    device: &DeviceSpec,
) -> Option<ExecutionReport> {
    if !engine.supports(model) {
        return None;
    }
    engine.run(model, device).ok()
}

/// An ordered collection of [`InferenceEngine`]s, resolvable by
/// [`FrameworkKind`].
///
/// The registry is what experiment drivers iterate: `flashmem-baselines`
/// assembles the standard one (every framework of the evaluation), and
/// ablation/trade-off experiments build ad-hoc registries of
/// [`FlashMemVariant`]s.
#[derive(Default)]
pub struct EngineRegistry {
    engines: Vec<Box<dyn InferenceEngine>>,
}

impl EngineRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        EngineRegistry::default()
    }

    /// Append an engine (builder style).
    pub fn with(mut self, engine: Box<dyn InferenceEngine>) -> Self {
        self.engines.push(engine);
        self
    }

    /// Append an engine in place.
    pub fn register(&mut self, engine: Box<dyn InferenceEngine>) {
        self.engines.push(engine);
    }

    /// Iterate the engines in registration order.
    pub fn iter(&self) -> impl Iterator<Item = &dyn InferenceEngine> {
        self.engines.iter().map(|e| e.as_ref())
    }

    /// The first engine of `kind`, if registered.
    pub fn get(&self, kind: FrameworkKind) -> Option<&dyn InferenceEngine> {
        self.iter().find(|e| e.kind() == kind)
    }

    /// Every engine of `kind`, in registration order (several config variants
    /// of one kind may coexist, e.g. in ablation registries).
    pub fn by_kind(&self, kind: FrameworkKind) -> Vec<&dyn InferenceEngine> {
        self.iter().filter(|e| e.kind() == kind).collect()
    }

    /// The distinct kinds present, in registration order.
    pub fn kinds(&self) -> Vec<FrameworkKind> {
        let mut kinds = Vec::new();
        for engine in self.iter() {
            if !kinds.contains(&engine.kind()) {
                kinds.push(engine.kind());
            }
        }
        kinds
    }

    /// Engine display names, in registration order.
    pub fn names(&self) -> Vec<String> {
        self.iter().map(|e| e.name()).collect()
    }

    /// Number of registered engines.
    pub fn len(&self) -> usize {
        self.engines.len()
    }

    /// True if no engine is registered.
    pub fn is_empty(&self) -> bool {
        self.engines.is_empty()
    }
}

impl std::fmt::Debug for EngineRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineRegistry")
            .field("engines", &self.names())
            .finish()
    }
}

/// Compile through a fresh FlashMem runtime pinned to `device` — shared by
/// the [`FlashMem`] and [`FlashMemVariant`] engine impls, which differ only
/// in labelling.
fn compile_streaming(
    config: &FlashMemConfig,
    model: &ModelSpec,
    device: &DeviceSpec,
) -> SimResult<CompiledArtifact> {
    let runtime = FlashMem::new(device.clone()).with_config(config.clone());
    Ok(CompiledArtifact::Streaming(runtime.compile(model.graph())))
}

/// Execute a [`CompiledArtifact::Streaming`] artifact under `label` —
/// companion to [`compile_streaming`].
fn execute_streaming(
    label: &str,
    config: &FlashMemConfig,
    model: &ModelSpec,
    artifact: &CompiledArtifact,
    device: &DeviceSpec,
) -> SimResult<ExecutionReport> {
    let compiled = artifact
        .as_streaming()
        .ok_or_else(|| CompiledArtifact::mismatch(label))?;
    let runtime = FlashMem::new(device.clone()).with_config(config.clone());
    let mut report = runtime.run_compiled(model.graph(), compiled)?;
    report.framework = label.to_string();
    report.model = model.abbr.clone();
    Ok(report)
}

impl InferenceEngine for FlashMem {
    fn kind(&self) -> FrameworkKind {
        FrameworkKind::FlashMem
    }

    fn cache_salt(&self) -> u64 {
        self.config().fingerprint()
    }

    fn compile(&self, model: &ModelSpec, device: &DeviceSpec) -> SimResult<CompiledArtifact> {
        // The runtime is pinned to one device at construction; the engine
        // interface targets whichever device the matrix sweep asks for.
        compile_streaming(self.config(), model, device)
    }

    fn execute(
        &self,
        model: &ModelSpec,
        artifact: &CompiledArtifact,
        device: &DeviceSpec,
    ) -> SimResult<ExecutionReport> {
        execute_streaming("FlashMem", self.config(), model, artifact, device)
    }
}

/// A named FlashMem configuration variant.
///
/// Ablation and trade-off experiments (Figures 7/8, the design-choice
/// sweeps) compare FlashMem against itself under different configurations;
/// each variant registers as its own engine so the shared matrix harness can
/// sweep them like any other framework.
#[derive(Debug, Clone)]
pub struct FlashMemVariant {
    label: String,
    config: FlashMemConfig,
}

impl FlashMemVariant {
    /// A variant running `config` under the display name `label`.
    pub fn new(label: impl Into<String>, config: FlashMemConfig) -> Self {
        FlashMemVariant {
            label: label.into(),
            config,
        }
    }

    /// The variant's configuration.
    pub fn config(&self) -> &FlashMemConfig {
        &self.config
    }
}

impl InferenceEngine for FlashMemVariant {
    fn kind(&self) -> FrameworkKind {
        FrameworkKind::FlashMem
    }

    fn name(&self) -> String {
        self.label.clone()
    }

    fn cache_salt(&self) -> u64 {
        self.config.fingerprint()
    }

    fn compile(&self, model: &ModelSpec, device: &DeviceSpec) -> SimResult<CompiledArtifact> {
        compile_streaming(&self.config, model, device)
    }

    fn execute(
        &self,
        model: &ModelSpec,
        artifact: &CompiledArtifact,
        device: &DeviceSpec,
    ) -> SimResult<ExecutionReport> {
        execute_streaming(&self.label, &self.config, model, artifact, device)
    }
}

/// Execute a preload-style [`CommandStream`] artifact and summarise it as an
/// [`ExecutionReport`] — shared by every preloading framework's `execute`.
///
/// # Errors
///
/// Propagates simulator errors (most importantly out-of-memory).
pub fn execute_command_stream(
    framework: &str,
    model: &ModelSpec,
    stream: &Arc<CommandStream>,
    device: &DeviceSpec,
) -> SimResult<ExecutionReport> {
    let mut sim = GpuSimulator::new(device.clone(), SimConfig::default());
    let outcome = sim.execute(Arc::clone(stream))?;
    Ok(ExecutionReport::from_outcome(
        framework,
        &model.abbr,
        outcome,
        0.0,
    ))
}

/// Execute a [`CompiledArtifact::NaivePlan`] through FlashMem's streaming
/// executor without load-capacity awareness or rewritten kernels — shared by
/// the naive overlap strawmen.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn execute_naive_plan(
    framework: &str,
    model: &ModelSpec,
    fusion: &FusionPlan,
    plan: &OverlapPlan,
    device: &DeviceSpec,
) -> SimResult<ExecutionReport> {
    let outcome = StreamingExecutor::for_kernel_rewriting(device.clone(), false).execute(
        model.graph(),
        fusion,
        plan,
    )?;
    Ok(ExecutionReport::from_outcome(
        framework,
        &model.abbr,
        outcome,
        plan.streamed_fraction(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashmem_graph::ModelZoo;

    #[test]
    fn names_are_unique_and_nonempty() {
        let names: Vec<&str> = FrameworkKind::all().iter().map(|k| k.name()).collect();
        assert!(names.iter().all(|n| !n.is_empty()));
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len());
    }

    #[test]
    fn baseline_list_matches_table_order() {
        let b = FrameworkKind::baselines();
        assert_eq!(b[0], FrameworkKind::Mnn);
        assert_eq!(b[5], FrameworkKind::SmartMem);
    }

    #[test]
    fn streaming_split_covers_all_kinds() {
        let streaming: Vec<_> = FrameworkKind::all()
            .into_iter()
            .filter(FrameworkKind::is_streaming)
            .collect();
        assert_eq!(
            streaming,
            vec![
                FrameworkKind::FlashMem,
                FrameworkKind::AlwaysNext,
                FrameworkKind::SameOpType
            ]
        );
    }

    #[test]
    fn flashmem_engine_round_trips_through_the_trait() {
        let device = DeviceSpec::oneplus_12();
        let engine = FlashMem::new(device.clone()).with_config(FlashMemConfig::memory_priority());
        let model = ModelZoo::gptneo_small();
        assert_eq!(engine.kind(), FrameworkKind::FlashMem);
        assert_eq!(InferenceEngine::name(&engine), "FlashMem");
        // UFCS: `FlashMem` also has an inherent graph-level `compile`.
        let artifact = InferenceEngine::compile(&engine, &model, &device).unwrap();
        assert!(artifact.streamed_fraction() > 0.0);
        let report = engine.execute(&model, &artifact, &device).unwrap();
        assert_eq!(report.framework, "FlashMem");
        assert_eq!(report.model, "GPTN-S");
        assert!(report.integrated_latency_ms > 0.0);
    }

    #[test]
    fn variant_reports_its_label() {
        let device = DeviceSpec::oneplus_12();
        let variant = FlashMemVariant::new(
            "FlashMem (no rewriting)",
            FlashMemConfig::memory_priority().with_kernel_rewriting(false),
        );
        let report = variant.run(&ModelZoo::gptneo_small(), &device).unwrap();
        assert_eq!(report.framework, "FlashMem (no rewriting)");
        assert_eq!(variant.kind(), FrameworkKind::FlashMem);
    }

    #[test]
    fn executing_a_mismatched_artifact_fails() {
        let device = DeviceSpec::oneplus_12();
        let engine = FlashMem::new(device.clone());
        let model = ModelZoo::gptneo_small();
        let bogus = CompiledArtifact::Preload(Arc::new(CommandStream::new()));
        assert!(matches!(
            engine.execute(&model, &bogus, &device),
            Err(SimError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn registry_resolves_by_kind_and_preserves_order() {
        let device = DeviceSpec::oneplus_12();
        let registry = EngineRegistry::new()
            .with(Box::new(FlashMem::new(device.clone())))
            .with(Box::new(FlashMemVariant::new(
                "FlashMem (full preload)",
                FlashMemConfig::memory_priority().with_opg(false),
            )));
        assert_eq!(registry.len(), 2);
        assert!(!registry.is_empty());
        assert_eq!(registry.kinds(), vec![FrameworkKind::FlashMem]);
        assert_eq!(
            registry.names(),
            vec![
                "FlashMem".to_string(),
                "FlashMem (full preload)".to_string()
            ]
        );
        assert!(registry.get(FrameworkKind::FlashMem).is_some());
        assert!(registry.get(FrameworkKind::Mnn).is_none());
        assert_eq!(registry.by_kind(FrameworkKind::FlashMem).len(), 2);
    }

    #[test]
    fn run_or_dash_flattens_failures() {
        let device = DeviceSpec::oneplus_12();
        let engine = FlashMem::new(device.clone());
        let report = run_or_dash(&engine, &ModelZoo::gptneo_small(), &device);
        assert!(report.is_some());
    }
}
