//! # FlashMem
//!
//! `flashmem` is the umbrella crate for the FlashMem reproduction: a
//! memory-streaming DNN execution framework for mobile GPUs, built on a
//! discrete-event simulator of the mobile GPU memory hierarchy
//! (disk → unified memory → 2.5D texture memory → streaming multiprocessors).
//!
//! It re-exports the public API of every workspace crate so that examples,
//! integration tests and downstream users can depend on a single crate:
//!
//! * [`trace`] — deterministic, sim-clock-stamped cross-layer event tracing
//!   with Chrome trace-event export and per-request phase attribution
//!   (also reachable as `flashmem::core::telemetry`).
//! * [`gpu_sim`] — mobile GPU memory-hierarchy simulator (devices, memory
//!   pools, command queues, kernels, energy model).
//! * [`graph`] — DNN computational graphs, operator taxonomy, the model zoo
//!   used in the paper's evaluation (GPT-Neo, ViT, SD-UNet, Whisper, ...).
//! * [`solver`] — the status type only: `SolveStatus`, the `OPTIMAL` /
//!   `FEASIBLE` status of an LC-OPG plan, whose windows are decided in
//!   closed form.
//! * [`profiler`] — operator classification, load-capacity profiling and the
//!   gradient-boosted latency regressor.
//! * [`core`] — the FlashMem contribution itself: OPG, the LC-OPG planner with
//!   fallbacks, adaptive fusion, kernel rewriting and the streaming executor.
//! * [`baselines`] — simulated baseline frameworks (MNN, NCNN, TVM, LiteRT,
//!   ExecuTorch, SmartMem) and naive overlap strategies.
//! * [`serve`] — the multi-tenant serving layer: a dual-queue event loop,
//!   FIFO/priority/affinity/preemptive and deadline-aware (EDF,
//!   least-laxity, deadline-triggered preemption) scheduling over a device
//!   fleet, per-tenant memory caps, SLO deadlines and the plan cache.
//!
//! A crate-by-crate walkthrough of how these layers fit together lives in
//! `docs/ARCHITECTURE.md` at the repository root.
//!
//! ## Quickstart
//!
//! ```rust
//! use flashmem::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Pick one of the paper's evaluation models and the flagship device.
//! let model = ModelZoo::vit();
//! let device = DeviceSpec::oneplus_12();
//!
//! // Compile an overlap plan and run a streamed inference.
//! let runtime = FlashMem::new(device).with_config(FlashMemConfig::memory_priority());
//! let report = runtime.run(&model)?;
//!
//! assert!(report.integrated_latency_ms > 0.0);
//! assert!(report.peak_memory_mb > 0.0);
//! # Ok(())
//! # }
//! ```

pub use flashmem_baselines as baselines;
pub use flashmem_core as core;
pub use flashmem_gpu_sim as gpu_sim;
pub use flashmem_graph as graph;
pub use flashmem_profiler as profiler;
pub use flashmem_serve as serve;
pub use flashmem_solver as solver;
pub use flashmem_trace as trace;

/// Convenience prelude re-exporting the types used by nearly every program
/// built on FlashMem.
pub mod prelude {
    pub use flashmem_baselines::{
        baseline_registry, standard_registry, NaiveOverlap, PreloadFramework, SmartMem,
    };
    pub use flashmem_core::{
        AdaptiveFusion, ArtifactCache, CompiledArtifact, EngineRegistry, ExecutionReport, FlashMem,
        FlashMemConfig, FlashMemVariant, FrameworkKind, InferenceEngine, LcOpgSolver, OverlapPlan,
        ThreadPool,
    };
    pub use flashmem_gpu_sim::{DeviceSpec, GpuSimulator, MemoryTracker, SimConfig};
    pub use flashmem_graph::{Graph, ModelZoo, OpCategory, OpKind, TensorDesc};
    pub use flashmem_profiler::{CapacityProfiler, LoadCapacity, OperatorClass};
    pub use flashmem_serve::{
        AffinityPolicy, ArrivalPattern, ChaosScenario, DeadlinePreemptivePolicy, EdfPolicy,
        FailureCause, FaultKind, FaultPlan, FifoPolicy, LeastLaxityPolicy, MissCause,
        MultiModelRunner, PolicyContext, PreemptionCost, PreemptivePriorityPolicy, PriorityPolicy,
        RecoveryControl, ServeEngine, ServeRequest, SloSummary, WorkloadSpec,
    };
    pub use flashmem_solver::SolveStatus;
    pub use flashmem_trace::{chrome_trace, FleetTrace, PhaseBreakdown, TraceConfig};
}
