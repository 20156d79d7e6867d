//! Calls into the program's layers shared by the workloads: compiling
//! through an `ArtifactCache` (plainly, or one public call at a time with a
//! span around each stage), plan bookkeeping, and the replay of the host
//! work one serve attempt does.

use flashmem_core::cache::ArtifactCache;
use flashmem_core::engine::{CompiledArtifact, FrameworkKind, InferenceEngine};
use flashmem_core::pool::ThreadPool;
use flashmem_core::{
    AdaptiveFusion, CompiledModel, ExecutionReport, FlashMem, FlashMemConfig, LcOpgSolver,
    PlannerMode,
};
use flashmem_gpu_sim::engine::{GpuSimulator, QueueClocks, SimConfig, StreamStepper};
use flashmem_gpu_sim::error::SimResult;
use flashmem_gpu_sim::memory::MemoryTracker;
use flashmem_gpu_sim::DeviceSpec;
use flashmem_graph::{FusionPlan, ModelSpec};
use flashmem_profiler::CapacityProfiler;
use flashmem_serve::server::lower_artifact;
use flashmem_solver::SolveStatus;

use crate::report::Measured;
use crate::spans::{SpanId, SpanLog, SpanSet};

/// The fixed pool width every timed phase runs at.
pub const POOL_WIDTH: usize = 2;

/// The FlashMem configuration every workload compiles with.
pub fn config() -> FlashMemConfig {
    FlashMemConfig::memory_priority()
}

/// Where a traced call records its spans.
#[derive(Clone, Copy)]
pub struct Tracing<'a> {
    pub log: &'a SpanLog,
    pub parent: SpanId,
}

/// Run `f` inside a span named `name` when tracing, plainly otherwise.
pub fn spanned<R>(tracing: Option<Tracing<'_>>, name: &str, f: impl FnOnce() -> R) -> R {
    match tracing {
        None => f(),
        Some(t) => t.log.scope(name, Some(t.parent), None, |_| f()),
    }
}

/// `FlashMem::compile`'s pipeline called one public function at a time,
/// with a span around each stage. It reports the same engine kind, name and
/// configuration salt as [`FlashMem`], so its artifacts land under the keys
/// the serving engines look up.
struct SpannedFlashMem<'a> {
    config: FlashMemConfig,
    tracing: Tracing<'a>,
}

impl InferenceEngine for SpannedFlashMem<'_> {
    fn kind(&self) -> FrameworkKind {
        FrameworkKind::FlashMem
    }

    fn cache_salt(&self) -> u64 {
        self.config.fingerprint()
    }

    fn compile(&self, model: &ModelSpec, device: &DeviceSpec) -> SimResult<CompiledArtifact> {
        let Tracing { log, parent } = self.tracing;
        let label = format!("compile {}@{}", model.abbr, device.name);
        let graph = model.graph();
        let runtime = FlashMem::new(device.clone()).with_config(self.config.clone());
        let compiled = log.scope(&label, Some(parent), None, |id| {
            let mut fusion = log.scope("graph.fusion", Some(id), None, |_| {
                FusionPlan::default_fusion(graph)
            });
            let mut fusion_report = None;
            if self.config.enable_adaptive_fusion {
                let pass = AdaptiveFusion::new(device.clone(), self.config.clone());
                let (refined, report) = log.scope("fusion.adaptive", Some(id), None, |_| {
                    pass.refine(graph, &fusion)
                });
                fusion = refined;
                fusion_report = Some(report);
            }
            let capacities = log.scope("profiler.capacity", Some(id), None, |_| {
                CapacityProfiler::new(device.clone())
                    .with_options(runtime.rewriter().lowering_options())
                    .capacities(graph, &fusion)
            });
            let mode = if self.config.enable_opg {
                PlannerMode::Hybrid
            } else {
                PlannerMode::FullPreload
            };
            let solver = LcOpgSolver::new(device.clone(), self.config.clone()).with_mode(mode);
            let (plan, planner_report) = log.scope("lcopg.plan", Some(id), None, |_| {
                solver.plan_with(graph, &fusion, &capacities)
            });
            CompiledModel {
                model_name: graph.name().to_string(),
                fusion,
                plan,
                planner_report,
                fusion_report,
            }
        });
        Ok(CompiledArtifact::Streaming(compiled))
    }

    fn execute(
        &self,
        model: &ModelSpec,
        artifact: &CompiledArtifact,
        device: &DeviceSpec,
    ) -> SimResult<ExecutionReport> {
        FlashMem::new(device.clone())
            .with_config(self.config.clone())
            .execute(model, artifact, device)
    }
}

/// Compile `model` for `device` through `cache` — with [`FlashMem`] itself,
/// or stage by stage under spans when `tracing` is given. Returns the
/// artifact and whether the cache already held it.
pub fn compile(
    cache: &ArtifactCache,
    model: &ModelSpec,
    device: &DeviceSpec,
    tracing: Option<Tracing<'_>>,
) -> SimResult<(CompiledArtifact, bool)> {
    match tracing {
        None => {
            let engine = FlashMem::new(device.clone()).with_config(config());
            cache.compile(&engine, model, device)
        }
        Some(tracing) => {
            let engine = SpannedFlashMem {
                config: config(),
                tracing,
            };
            cache.compile(&engine, model, device)
        }
    }
}

/// Cold-compile every `(model, device)` pair through `cache` on `pool`.
pub fn compile_all(
    pool: &ThreadPool,
    cache: &ArtifactCache,
    pairs: &[(&ModelSpec, &DeviceSpec)],
    tracing: Option<Tracing<'_>>,
) -> SimResult<Vec<CompiledModel>> {
    let artifacts = pool.try_parallel_map(pairs.to_vec(), |(model, device)| {
        compile(cache, model, device, tracing).map(|(artifact, _)| artifact)
    })?;
    Ok(artifacts
        .into_iter()
        .filter_map(|a| a.as_streaming().cloned())
        .collect())
}

/// What a set of compiled plans amounts to.
#[derive(Debug, Default, Clone, Copy)]
pub struct PlanTotals {
    pub plans: usize,
    pub windows: usize,
    pub fallbacks: usize,
    /// Plans that came out `Feasible` with no fallback tier used — only a
    /// window stopped by the solver's wall clock explains that status.
    pub deadline_plans: usize,
    pub solve_ms: f64,
    pub streamed_mb: f64,
    pub preload_mb: f64,
}

impl PlanTotals {
    pub fn add(&mut self, compiled: &CompiledModel) {
        let r = &compiled.planner_report;
        let fallbacks = r.fallback_soft + r.fallback_greedy + r.fallback_preload;
        self.plans += 1;
        self.windows += r.windows;
        self.fallbacks += fallbacks;
        if r.status == SolveStatus::Feasible && fallbacks == 0 {
            self.deadline_plans += 1;
        }
        self.solve_ms += r.solve_model.as_secs_f64() * 1e3;
        self.streamed_mb += compiled.plan.streamed_bytes() as f64 / MIB;
        self.preload_mb += compiled.plan.preload_bytes() as f64 / MIB;
    }

    pub fn of<'a>(compiled: impl IntoIterator<Item = &'a CompiledModel>) -> Self {
        let mut totals = PlanTotals::default();
        for c in compiled {
            totals.add(c);
        }
        totals
    }

    /// Set the `lcopg.*` and `plan.*` per-layer metrics.
    pub fn report(&self, measured: &mut Measured) {
        measured.set("lcopg.solve_ms", self.solve_ms);
        measured.set("lcopg.windows", self.windows as f64);
        measured.set("lcopg.fallbacks", self.fallbacks as f64);
        measured.set("lcopg.deadline_plans", self.deadline_plans as f64);
        measured.set("plan.streamed_mb", self.streamed_mb);
        measured.set("plan.preload_mb", self.preload_mb);
    }
}

pub const MIB: f64 = 1024.0 * 1024.0;

/// The compile-stage per-layer metrics: graph builds under `builds`, the
/// spanned compile stages under `compiles`, and the plans those compiles
/// produced.
pub fn compile_layers<'a>(
    set: &SpanSet,
    builds: SpanId,
    compiles: SpanId,
    compiled: impl IntoIterator<Item = &'a CompiledModel>,
    measured: &mut Measured,
) {
    measured.set("graph.build_ms", set.total_ms(builds, "graph.build"));
    for (metric, layer) in [
        ("graph.fusion_ms", "graph.fusion"),
        ("fusion.adaptive_ms", "fusion.adaptive"),
        ("profiler.capacity_ms", "profiler.capacity"),
        ("lcopg.plan_ms", "lcopg.plan"),
    ] {
        measured.set(metric, set.total_ms(compiles, layer));
    }
    PlanTotals::of(compiled).report(measured);
}

/// Replay the public calls one serve attempt makes on `device`: a warm
/// cache lookup, `lower_artifact`, and stepping the stream to completion on
/// idle queues, each inside a span (`cache.lookup`, `lower`, `step`) tagged
/// with request `seq` (`None` for the overload prologue's service
/// predictions). Returns the number of commands stepped.
pub fn replay_attempt(
    cache: &ArtifactCache,
    model: &ModelSpec,
    device: &DeviceSpec,
    sim: &GpuSimulator,
    tracing: Tracing<'_>,
    seq: Option<usize>,
) -> SimResult<usize> {
    let Tracing { log, parent } = tracing;
    let (artifact, _) = log.scope("cache.lookup", Some(parent), seq, |_| {
        compile(cache, model, device, None)
    })?;
    let stream = log.scope("lower", Some(parent), seq, |_| {
        lower_artifact(&artifact, model, device, &config())
    });
    let commands = stream.len();
    log.scope("step", Some(parent), seq, |_| {
        step_to_end(stream, sim, device)
    })?;
    Ok(commands)
}

/// Step a lowered stream alone to completion on idle queues.
fn step_to_end(
    stream: flashmem_gpu_sim::engine::CommandStream,
    sim: &GpuSimulator,
    device: &DeviceSpec,
) -> SimResult<()> {
    let mut tracker = MemoryTracker::for_device(device);
    let mut clocks = QueueClocks::new();
    let mut stepper = StreamStepper::new(stream)?;
    while !stepper.is_done() {
        stepper.step(sim, &mut clocks, &mut tracker, 0.0)?;
    }
    Ok(())
}

/// A simulator for `device` with the default configuration.
pub fn simulator(device: &DeviceSpec) -> GpuSimulator {
    GpuSimulator::new(device.clone(), SimConfig::default())
}
