//! # flashmem-core
//!
//! The FlashMem contribution itself (ASPLOS '26): a memory-streaming DNN
//! execution framework for mobile GPUs that, instead of preloading every
//! weight, *plans* when each weight is loaded from disk and when each of its
//! chunks is transformed into 2.5D texture memory, then overlaps that data
//! movement with kernel execution.
//!
//! The crate mirrors the paper's structure:
//!
//! * [`config`] — the `M_peak` / `λ` / `μ` / `S` / `α` hyper-parameters and
//!   ablation switches.
//! * [`opg`] — the Overlap Plan Generation weight window (Section 3.1):
//!   variables `W`, `z_w`, `x_{w,ℓ}` under constraints C0–C3, and its
//!   closed-form optimum.
//! * [`lc_opg`] — the load-capacity-aware planner with rolling-window
//!   incremental scheduling and the tiered fallback (Section 3.2).
//! * [`fusion`] — adaptive fusion (Section 4.3).
//! * [`kernel_rewrite`] — branch-free pipelined kernel templates (Section 4.4).
//! * [`plan`] / [`executor`] — the overlap plan and the streaming executor
//!   that compiles it onto the simulated GPU's dual command queues.
//! * [`runtime`] — the end-to-end [`FlashMem`] API.
//! * [`metrics`] — [`ExecutionReport`], the unit of comparison in Tables 7–9.
//! * [`engine`] — the [`InferenceEngine`] trait and [`EngineRegistry`] that
//!   put FlashMem and every baseline framework behind one uniform
//!   compile/execute interface for the benchmark harness.
//! * [`cache`] — the keyed [`ArtifactCache`] fronting
//!   [`InferenceEngine::compile`] so sweeps and servers skip redundant
//!   LC-OPG plans; sharded locks plus per-key in-flight compile
//!   deduplication make it safe (and profitable) to share across threads.
//! * [`pool`] — a std-only [`ThreadPool`]: one ordered, self-scheduling map
//!   over scoped threads. Every embarrassingly parallel sweep above the
//!   simulator (the bench matrix, the serving sweep, the fuzz harness) fans
//!   out through it with deterministic, input-ordered results.
//! * [`telemetry`] — the deterministic sim-clock event tracer (re-exported
//!   `flashmem-trace` crate): per-device ring-buffered recorders, the merged
//!   [`telemetry::FleetTrace`], Chrome trace-event export and per-request
//!   [`telemetry::PhaseBreakdown`] latency attribution.
//!
//! Multi-model FIFO execution, which lived here as `multi_model` through
//! PR 1, moved to the `flashmem-serve` crate where the general multi-tenant
//! scheduler subsumes it.
//!
//! ## Example
//!
//! ```rust
//! use flashmem_core::{FlashMem, FlashMemConfig};
//! use flashmem_gpu_sim::DeviceSpec;
//! use flashmem_graph::ModelZoo;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let runtime = FlashMem::new(DeviceSpec::oneplus_12())
//!     .with_config(FlashMemConfig::memory_priority());
//! let report = runtime.run(&ModelZoo::vit())?;
//! assert!(report.streamed_weight_fraction > 0.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cache;
pub mod config;
pub mod engine;
pub mod executor;
pub mod fusion;
pub mod kernel_rewrite;
pub mod lc_opg;
pub mod metrics;
pub mod opg;
pub mod plan;
pub mod pool;
pub mod runtime;

/// Deterministic cross-layer event tracing (the `flashmem-trace` crate).
pub use flashmem_trace as telemetry;

pub use cache::{run_cached, ArtifactCache, CacheStats};
pub use config::FlashMemConfig;
pub use engine::{
    lower_artifact, run_or_dash, CompiledArtifact, EngineRegistry, FlashMemVariant, FrameworkKind,
    InferenceEngine,
};
pub use executor::StreamingExecutor;
pub use fusion::{AdaptiveFusion, AdaptiveFusionReport};
pub use kernel_rewrite::{KernelRewriter, KernelTemplate};
pub use lc_opg::{LcOpgReport, LcOpgSolver, PlannerMode};
pub use metrics::{geo_mean, ExecutionReport};
pub use opg::{CandidateSlot, WindowDecision};
pub use plan::{ChunkAssignment, OverlapPlan, PlanError, WeightSchedule};
pub use pool::ThreadPool;
pub use runtime::{CompiledModel, FlashMem};
