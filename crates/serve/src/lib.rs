//! # flashmem-serve
//!
//! The multi-tenant serving layer over the FlashMem simulator: where
//! `flashmem-core` replays **one** inference synchronously, this crate models
//! the "heavy traffic" regime — many in-flight inferences from many tenants
//! time-sharing the load/compute command queues of a fleet of simulated
//! devices.
//!
//! The crate is tokio-free by design: simulated time is advanced by a
//! hand-rolled discrete event loop ([`server::ServeEngine`]) that steps each
//! in-flight inference's lowered [`CommandStream`](flashmem_gpu_sim::engine::CommandStream)
//! one command at a time through
//! [`StreamStepper`](flashmem_gpu_sim::engine::StreamStepper), always
//! advancing whichever request can start its next command earliest on the
//! shared [`QueueClocks`](flashmem_gpu_sim::engine::QueueClocks).
//!
//! Device timelines are independent after placement, so one
//! [`ServeEngine::run`] steps its whole fleet **in parallel** on the
//! process-wide thread pool (`flashmem_core::pool`): placement is a
//! sequential prologue, per-device stepping fans out as pool jobs sharing
//! one plan cache, and the merged report is re-assembled in deterministic
//! order — byte-identical to the serial loop, which
//! [`ServeEngine::run_on`] with a width-1 pool still provides for
//! bisection. This is what makes 100–1000-device fleet scenarios affordable
//! in one run (see the `fleet_scale` bench). [`DecodeEngine`] runs on the
//! same fleet runner; only the per-device loop differs.
//!
//! * [`request`] — [`ServeRequest`], the unit of admission (model, tenant,
//!   priority, arrival time, optional SLO deadline).
//! * [`policy`] — the [`SchedulePolicy`] trait plus the FIFO, priority,
//!   device-affinity, preemptive-priority and deadline-aware (EDF,
//!   least-laxity, deadline-triggered preemption) policies.
//! * [`server`] — the [`ServeEngine`] event loop with per-tenant memory caps
//!   and SLO defaults, fronted by the shared
//!   [`ArtifactCache`](flashmem_core::ArtifactCache).
//! * [`metrics`] — per-request outcomes, per-device utilization, latency
//!   percentiles (overall and per priority), SLO attainment and preemption
//!   accounting.
//! * [`workload`] — deterministic seeded request generators (steady, Poisson,
//!   bursty, flash-crowd and diurnal arrivals) plus the adversarial
//!   [`OverloadScenario`] suite.
//! * [`multi_model`] — the FIFO [`MultiModelRunner`] of Figure 6, now a thin
//!   delegation to the scheduler's exclusive (single-slot) mode; its traces
//!   reproduce the legacy `flashmem-core` implementation byte for byte.
//!
//! ## Preemption and SLOs
//!
//! A [`PreemptivePriorityPolicy`] may *interrupt* running work: when every
//! slot is busy and an arrived request strictly outranks the lowest-priority
//! in-flight inference, that inference is suspended at its next command
//! boundary — the simulator freezes its stepper into a
//! [`Suspension`](flashmem_gpu_sim::engine::Suspension) snapshot and evicts
//! its resident weights — and resumed once a slot frees, paying a
//! configurable [`PreemptionCost`] (texture re-residency) before issuing its
//! next command. Requests carry optional relative deadlines (their own, or a
//! per-tenant default via [`ServeEngine::with_tenant_slo`]); the report
//! tallies attainment in [`SloSummary`] and breaks latency percentiles down
//! per priority level in [`PriorityLatency`].
//!
//! ## Deadline-aware scheduling
//!
//! Beyond static priority, three policies order work by *urgency*:
//! [`EdfPolicy`] admits the earliest absolute deadline first;
//! [`LeastLaxityPolicy`] admits the smallest **laxity** first, where
//! `laxity = deadline − now − estimated_remaining_service` and the estimate
//! is the compiled plan's uncontended stream makespan
//! ([`server::predicted_service_ms`]); and [`DeadlinePreemptivePolicy`]
//! additionally suspends a running inference when an arrival's laxity would
//! go negative waiting for it while the victim stays slack. Every decision
//! receives a [`PolicyContext`] with the simulated clock, and the report
//! attributes each deadline miss to a [`metrics::MissCause`] (queueing,
//! execution, preemption or failure).
//!
//! ## Overload survival
//!
//! [`ServeEngine::with_overload_control`](server::ServeEngine::with_overload_control)
//! arms three opt-in defenses for fleets pushed past saturation, all decided
//! in the run's sequential prologue or per-device loop so reports stay
//! byte-identical at every pool width: **admission control** early-rejects
//! requests whose deadline is provably unmeetable (negative laxity even on
//! the best shard they may run on), **bounded queues** shed arrivals past a
//! per-device depth limit at their arrival instant, and the **steal phase**
//! re-places queued (never in-flight) requests from backed-up shards onto
//! devices that can start them strictly earlier. Shed requests are never
//! silently dropped: each outcome carries a typed [`RejectCause`] and the
//! report tallies them in [`ShedBreakdown`].
//! [`ServeEngine::with_fleet_tenant_cap`](server::ServeEngine::with_fleet_tenant_cap)
//! extends per-device tenant caps fleet-wide by confining a tenant to a
//! hashed shard set with per-shard sub-caps.
//!
//! ## Tracing
//!
//! [`ServeEngine::with_trace`](server::ServeEngine::with_trace) threads the
//! deterministic cross-layer event recorder (`flashmem_core::telemetry`)
//! through every device job: request lifecycles (queue wait → admit → run →
//! preempt/resume → complete or fail), per-command queue spans and cache
//! hit/miss instants. Each device fills a private ring buffer inside its
//! pool job and the buffers merge at the same ordered commit point as the
//! outcomes, so the exported Chrome trace ([`chrome_trace`]) is
//! byte-identical at every pool width. Recording is off by default and
//! costs one branch per event when disabled.
//!
//! ## Example
//!
//! ```rust
//! use flashmem_core::FlashMemConfig;
//! use flashmem_gpu_sim::DeviceSpec;
//! use flashmem_graph::ModelZoo;
//! use flashmem_serve::{ArrivalPattern, PriorityPolicy, ServeEngine, WorkloadSpec};
//!
//! let fleet = vec![DeviceSpec::oneplus_12(), DeviceSpec::pixel_8()];
//! let engine = ServeEngine::new(fleet, FlashMemConfig::memory_priority())
//!     .with_policy(Box::new(PriorityPolicy::with_max_in_flight(2)));
//! let workload = WorkloadSpec {
//!     pattern: ArrivalPattern::Steady { interval_ms: 200.0 },
//!     requests: 6,
//!     tenants: 3,
//!     priority_levels: 2,
//!     seed: 7,
//! };
//! let requests = workload.generate(&[ModelZoo::gptneo_small(), ModelZoo::vit()]);
//! let report = engine.run(&requests).unwrap();
//! assert_eq!(report.outcomes.len(), 6);
//! let latency = report.latency.expect("some requests completed");
//! assert!(latency.p99_ms >= latency.p50_ms);
//! ```
//!
//! ## Continuous batching
//!
//! Generative requests (a [`ServeRequest`] with
//! [`with_decode_tokens`](ServeRequest::with_decode_tokens)) are served by
//! the [`DecodeEngine`]: one full-graph **prefill** pass per request, then a
//! step loop in which every in-flight request generates one token per
//! **decode step** while its KV cache grows in the device's memory tracker.
//! Requests join and leave the batch only at step boundaries under a
//! [`BatchConfig`] token budget, with a waiting/served join heuristic so
//! prefills don't starve in-flight decodes. The report gains token-level
//! TTFT and ITL percentiles next to the existing SLO metrics.
//!
//! ## Chaos & recovery
//!
//! A seeded [`FaultPlan`] injects device loss, transient kernel faults and
//! spurious OOM spikes into a run; firing is keyed by
//! `(device, seq, command, attempt)` so the same faults hit at every pool
//! width and scheduling order. Unprotected, each fault becomes a typed
//! failure ([`FailureCause`]) on the request's outcome. A run is a
//! sequence of rounds (a fault-free run is just the first), and arming
//! [`ServeEngine::with_recovery_control`](server::ServeEngine::with_recovery_control)
//! (or the decode-side equivalent) lets the **sequential recovery planner**
//! between rounds re-dispatch faulted work: per-request retries under a
//! budget with simulated-time backoff, failover of in-flight work onto the
//! least-loaded survivor (resuming a
//! [`Suspension`](flashmem_gpu_sim::engine::Suspension) on a same-spec
//! sibling, re-running from scratch elsewhere; decode requests re-prefill
//! from their token position), and a per-device circuit breaker that
//! quarantines repeat offenders and reinstates them via probe requests.
//! Every decision is planned on the caller thread in submission order, so
//! protected reports stay byte-identical at any pool width; the tallies
//! land in [`ServeReport::recovery`] and the trace gains
//! `Fault`/`Retry`/`Failover`/`Quarantine`/`Probe` events. The four
//! [`ChaosScenario`]s drive the `chaos` bench, which sweeps each scenario
//! unprotected vs protected.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod decode;
mod fleet;
pub mod metrics;
pub mod multi_model;
pub mod policy;
pub mod request;
pub mod server;
pub mod workload;

pub use decode::{BatchConfig, DecodeEngine};
pub use flashmem_core::telemetry::{
    chrome_trace, FleetTrace, PhaseBreakdown, TraceConfig, TraceEvent, TraceKind, TraceLane,
};
pub use flashmem_gpu_sim::engine::PreemptionCost;
pub use flashmem_gpu_sim::{FaultKind, FaultPlan};
pub use metrics::{
    DecodeOutcome, DeviceReport, FailureBreakdown, LatencySummary, MissCause, PriorityLatency,
    RecoveryTallies, RequestOutcome, ServeReport, ShedBreakdown, SloSummary, TokenMetrics,
};
pub use multi_model::{InvocationResult, MultiModelReport, MultiModelRunner};
pub use policy::{
    AffinityPolicy, DeadlinePreemptivePolicy, EdfPolicy, FifoPolicy, InFlightEntry,
    LeastLaxityPolicy, OverloadControl, PendingEntry, PolicyContext, PreemptivePriorityPolicy,
    PriorityPolicy, RecoveryControl, SchedulePolicy,
};
pub use request::{DecodeParams, FailureCause, RejectCause, ServeRequest};
pub use server::ServeEngine;
pub use workload::{
    ArrivalPattern, ChaosScenario, DecodeWorkloadSpec, OverloadScenario, WorkloadSpec,
};
