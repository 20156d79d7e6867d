//! The top-level FlashMem runtime.
//!
//! [`FlashMem`] ties the pipeline of Figure 3 together: default fusion →
//! adaptive fusion → load-capacity profiling → LC-OPG planning → kernel
//! rewriting → streaming execution on the simulated device, producing an
//! [`ExecutionReport`] comparable with the baseline frameworks.

use flashmem_gpu_sim::error::SimResult;
use flashmem_gpu_sim::memory::MemoryTracker;
use flashmem_gpu_sim::DeviceSpec;
use flashmem_graph::{FusionPlan, Graph, ModelSpec};
use flashmem_profiler::{CapacityProfiler, LoadCapacity};

use crate::config::FlashMemConfig;
use crate::executor::StreamingExecutor;
use crate::fusion::{AdaptiveFusion, AdaptiveFusionReport};
use crate::kernel_rewrite::KernelRewriter;
use crate::lc_opg::{LcOpgReport, LcOpgSolver, PlannerMode};
use crate::metrics::ExecutionReport;
use crate::plan::OverlapPlan;

/// Everything FlashMem produced while compiling one model: the refined fusion
/// plan, the overlap plan and the planning/adaptive-fusion reports.
#[derive(Debug, Clone)]
pub struct CompiledModel {
    /// Name of the compiled model.
    pub model_name: String,
    /// The (possibly adaptively split) fusion plan.
    pub fusion: FusionPlan,
    /// The overlap plan produced by LC-OPG.
    pub plan: OverlapPlan,
    /// The LC-OPG timing/status report (Table 4 columns).
    pub planner_report: LcOpgReport,
    /// The adaptive-fusion report, if the pass ran.
    pub fusion_report: Option<AdaptiveFusionReport>,
}

impl CompiledModel {
    /// Fraction of weight bytes streamed rather than preloaded.
    pub fn streamed_fraction(&self) -> f64 {
        self.plan.streamed_fraction()
    }
}

/// The FlashMem runtime for one device.
#[derive(Debug, Clone)]
pub struct FlashMem {
    device: DeviceSpec,
    config: FlashMemConfig,
}

impl FlashMem {
    /// Create a runtime for `device` with the balanced default configuration.
    pub fn new(device: DeviceSpec) -> Self {
        FlashMem {
            device,
            config: FlashMemConfig::default(),
        }
    }

    /// Replace the configuration (builder style).
    pub fn with_config(mut self, config: FlashMemConfig) -> Self {
        self.config = config;
        self
    }

    /// The active configuration.
    pub fn config(&self) -> &FlashMemConfig {
        &self.config
    }

    /// The target device.
    pub fn device(&self) -> &DeviceSpec {
        &self.device
    }

    /// The kernel rewriter implied by the configuration.
    pub fn rewriter(&self) -> KernelRewriter {
        KernelRewriter::for_kernel_rewriting(self.config.enable_kernel_rewriting)
    }

    /// The executor the configuration implies.
    fn executor(&self) -> StreamingExecutor {
        StreamingExecutor::for_kernel_rewriting(
            self.device.clone(),
            self.config.enable_kernel_rewriting,
        )
    }

    /// The offline stage before planning: default fusion, adaptive fusion
    /// when enabled, and the load capacities of the resulting fusion plan.
    /// Each kernel is profiled once: adaptive fusion returns the refined
    /// plan's capacities, equal to profiling that plan afresh.
    pub fn fuse_and_profile(
        &self,
        graph: &Graph,
    ) -> (FusionPlan, Option<AdaptiveFusionReport>, Vec<LoadCapacity>) {
        let fusion = FusionPlan::default_fusion(graph);
        if self.config.enable_adaptive_fusion {
            let pass = AdaptiveFusion::new(self.device.clone(), self.config.clone());
            let (refined, report, capacities) = pass.refine_with_capacities(graph, &fusion);
            return (refined, Some(report), capacities);
        }
        let capacities = CapacityProfiler::new(self.device.clone())
            .with_options(self.rewriter().lowering_options())
            .capacities(graph, &fusion);
        (fusion, None, capacities)
    }

    /// Compile a graph: fusion, adaptive fusion, capacity profiling and
    /// LC-OPG planning (the offline stage).
    pub fn compile(&self, graph: &Graph) -> CompiledModel {
        let (fusion, fusion_report, capacities) = self.fuse_and_profile(graph);
        let mode = if self.config.enable_opg {
            PlannerMode::Hybrid
        } else {
            PlannerMode::FullPreload
        };
        let solver = LcOpgSolver::new(self.device.clone(), self.config.clone()).with_mode(mode);
        let (plan, planner_report) = solver.plan_with(graph, &fusion, &capacities);

        CompiledModel {
            model_name: graph.name().to_string(),
            fusion,
            plan,
            planner_report,
            fusion_report,
        }
    }

    /// Run a compiled model on the simulated device.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors (most importantly out-of-memory on
    /// constrained devices).
    pub fn run_compiled(
        &self,
        graph: &Graph,
        compiled: &CompiledModel,
    ) -> SimResult<ExecutionReport> {
        let outcome = self
            .executor()
            .execute(graph, &compiled.fusion, &compiled.plan)?;
        Ok(ExecutionReport::from_outcome(
            "FlashMem",
            &compiled.model_name,
            outcome,
            compiled.streamed_fraction(),
        ))
    }

    /// Run a compiled model against a shared memory tracker (used by the
    /// multi-model runner so memory accumulates across models).
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    pub fn run_compiled_with_tracker(
        &self,
        graph: &Graph,
        compiled: &CompiledModel,
        tracker: &mut MemoryTracker,
    ) -> SimResult<ExecutionReport> {
        let outcome = self.executor().execute_with_tracker(
            graph,
            &compiled.fusion,
            &compiled.plan,
            tracker,
        )?;
        Ok(ExecutionReport::from_outcome(
            "FlashMem",
            &compiled.model_name,
            outcome,
            compiled.streamed_fraction(),
        ))
    }

    /// Compile and run a graph in one call.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    pub fn run_graph(&self, graph: &Graph) -> SimResult<ExecutionReport> {
        let compiled = self.compile(graph);
        self.run_compiled(graph, &compiled)
    }

    /// Compile and run one of the model-zoo specs.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    pub fn run(&self, model: &ModelSpec) -> SimResult<ExecutionReport> {
        let mut report = self.run_graph(model.graph())?;
        report.model = model.abbr.clone();
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashmem_graph::ModelZoo;

    #[test]
    fn end_to_end_run_produces_sensible_report() {
        let runtime =
            FlashMem::new(DeviceSpec::oneplus_12()).with_config(FlashMemConfig::memory_priority());
        let model = ModelZoo::gptneo_small();
        let report = runtime.run(&model).unwrap();
        assert_eq!(report.framework, "FlashMem");
        assert_eq!(report.model, "GPTN-S");
        assert!(report.integrated_latency_ms > 0.0);
        assert!(report.peak_memory_mb > 0.0);
        assert!(report.average_memory_mb <= report.peak_memory_mb + 1e-9);
        assert!(report.energy_j > 0.0);
        assert!(report.streamed_weight_fraction > 0.0);
    }

    #[test]
    fn compile_reports_planner_and_fusion_activity() {
        let runtime =
            FlashMem::new(DeviceSpec::oneplus_12()).with_config(FlashMemConfig::memory_priority());
        let model = ModelZoo::vit();
        let compiled = runtime.compile(model.graph());
        assert!(compiled.planner_report.windows > 0);
        assert!(compiled.fusion_report.is_some());
        assert!(compiled.fusion.is_valid_partition(model.graph()));
        assert!(compiled.streamed_fraction() > 0.0);
    }

    #[test]
    fn disabling_opg_preloads_everything() {
        let runtime = FlashMem::new(DeviceSpec::oneplus_12())
            .with_config(FlashMemConfig::memory_priority().with_opg(false));
        let model = ModelZoo::gptneo_small();
        let compiled = runtime.compile(model.graph());
        assert_eq!(compiled.plan.streamed_bytes(), 0);
        let report = runtime.run_compiled(model.graph(), &compiled).unwrap();
        assert_eq!(report.streamed_weight_fraction, 0.0);
    }

    #[test]
    fn full_feature_set_beats_ablated_configurations() {
        // The Figure 7 direction: enabling OPG + fusion + rewriting must not
        // be slower or more memory hungry than the all-disabled configuration.
        let device = DeviceSpec::oneplus_12();
        let model = ModelZoo::vit();
        let full = FlashMem::new(device.clone())
            .with_config(FlashMemConfig::memory_priority())
            .run(&model)
            .unwrap();
        let ablated = FlashMem::new(device)
            .with_config(
                FlashMemConfig::memory_priority()
                    .with_opg(false)
                    .with_adaptive_fusion(false)
                    .with_kernel_rewriting(false),
            )
            .run(&model)
            .unwrap();
        assert!(full.integrated_latency_ms < ablated.integrated_latency_ms);
        assert!(full.average_memory_mb < ablated.average_memory_mb);
    }

    #[test]
    fn memory_priority_uses_less_memory_than_latency_priority() {
        let device = DeviceSpec::oneplus_12();
        let model = ModelZoo::gptneo_small();
        let mem = FlashMem::new(device.clone())
            .with_config(FlashMemConfig::memory_priority())
            .run(&model)
            .unwrap();
        let lat = FlashMem::new(device)
            .with_config(FlashMemConfig::latency_priority())
            .run(&model)
            .unwrap();
        assert!(mem.average_memory_mb <= lat.average_memory_mb + 1.0);
    }

    #[test]
    fn rewriter_follows_configuration() {
        let on = FlashMem::new(DeviceSpec::oneplus_12())
            .with_config(FlashMemConfig::default().with_kernel_rewriting(true));
        let off = FlashMem::new(DeviceSpec::oneplus_12())
            .with_config(FlashMemConfig::default().with_kernel_rewriting(false));
        assert!(on.rewriter().lowering_options().pipelined);
        assert!(!off.rewriter().lowering_options().pipelined);
    }
}
