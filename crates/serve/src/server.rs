//! The multi-tenant serving engine: a hand-rolled (tokio-free) discrete
//! event loop that time-shares each device's dual command queues across many
//! in-flight inferences.
//!
//! ## How time advances
//!
//! Every admitted request owns a [`StreamStepper`] over its plan's lowered
//! command stream. A device run lowers each compiled plan once, on its first
//! admission, and every later request with that plan steps the same shared
//! stream — the plan is fixed offline, only its replay is per request.
//! Devices are independent timelines; on each device the loop repeatedly
//! (1) preempts in-flight work if the policy allows and a waiting request
//! outranks it, (2) admits arrived requests into free slots in policy order,
//! then (3) advances whichever in-flight stepper can start its next command
//! earliest on the shared [`QueueClocks`]. One inference's disk loads
//! therefore fill transfer-queue gaps left by another inference's kernels —
//! per-layer interleaving, not back-to-back replay.
//!
//! A device's pending requests stay sorted by (arrival, seq), so phases (1)
//! and (2) scan only the prefix that has arrived: one step costs
//! O(waiting + in flight), however many later arrivals the device holds.
//!
//! ## How the fleet advances
//!
//! Device timelines share nothing but the plan cache, so
//! [`ServeEngine::run`] hands them to the crate's fleet runner (shared with
//! [`DecodeEngine`](crate::DecodeEngine)), which steps them on the
//! process-wide [`ThreadPool`] in strictly ordered stages:
//!
//! 1. **Prologue (sequential).** [`SchedulePolicy::place`] assigns every
//!    request to a device on the caller thread, in submission order —
//!    placement may depend on global request order, so it never races.
//!    Plan-cache warmth is snapshotted next, before [`OverloadControl`]'s
//!    admission control and steal planning compile anything, so each
//!    outcome's `cache_hit` means "warm when the run began".
//! 2. **Parallel device stepping.** Each device's assignment becomes one
//!    job running `run_device`, with its runtime ([`FlashMem`]) and
//!    simulator ([`GpuSimulator`]) constructed once per device, not once
//!    per request. Workers share the engine's [`ArtifactCache`], whose
//!    in-flight compile dedup guarantees N devices serving one tenant
//!    config solve LC-OPG exactly once with schedule-independent hit/miss
//!    counters. A job that panics (a buggy policy) is caught on its worker
//!    and surfaced as [`SimError::WorkerPanic`]; errors propagate by device
//!    index, so failure behaviour matches `--threads 1` exactly.
//! 3. **Ordered merge (the commit point).** Device reports land in
//!    fleet-index slots and per-request outcomes are re-sorted by submission
//!    `seq`, so the merged [`ServeReport`] is byte-identical to the serial
//!    loop's no matter how the workers interleaved.
//!
//! A fault-free run ends there: it is round 0 of the runner's recovery
//! loop. When a [`FaultPlan`] knocks requests out of a round, the runner
//! plans their retries, failovers, quarantines and probes sequentially and
//! runs another round on the devices that received work; a request
//! stranded in flight by a device loss resumes its [`Suspension`] on a
//! same-spec sibling.
//!
//! `run` uses [`pool::global`] (width from `--threads N` /
//! `FLASHMEM_THREADS`); [`ServeEngine::run_on`] takes an explicit pool for
//! tests and `--threads 1` bisection. A nested call — a serve run already
//! inside a pool worker, e.g. one sweep cell of the bench — steps its fleet
//! inline on that worker, by the pool's no-nested-fan-out rule.
//!
//! ## Preemption
//!
//! Under a preemptive policy (one whose
//! [`SchedulePolicy::preemption`] returns a cost), a running inference can be
//! suspended at any command boundary: its [`StreamStepper`] is frozen into a
//! [`Suspension`] snapshot (queue clocks, in-flight command finish times,
//! resident-memory state) and its allocations are evicted so the
//! higher-priority request has the device to itself. Commands that were
//! already issued still drain — a dispatched kernel cannot be aborted, the
//! stream just stops issuing new work. When a slot frees up the suspended
//! request competes for admission again (at its original priority and
//! arrival, so FIFO tie-breaking favours it over younger work) and, on
//! resume, re-acquires the identical residency and pays the policy's
//! [`PreemptionCost`] before issuing its next command. The suspended
//! request's tenant-cap reservation is kept while suspended, so a tenant
//! cannot starve its own preempted work by submitting more requests.
//!
//! ## Exclusive mode and legacy equivalence
//!
//! When the policy allows a single in-flight inference and is not preemptive
//! (`max_in_flight() == 1`, e.g. [`FifoPolicy`]), each
//! request runs in run-local time against freshly reset queue clocks, its
//! memory-trace segment is stitched onto the device timeline, and its weights
//! are evicted before the next admission — the *identical* float arithmetic
//! of the legacy `MultiModelRunner::run_fifo`, which is why the FIFO policy
//! reproduces Figure 6 traces byte for byte (see `tests/scheduler.rs`).
//!
//! Under concurrent (and all preemptive) policies the device keeps one global
//! timeline (re-based only across idle gaps) and a shared memory tracker, and
//! a finished request's remaining allocations are released individually. The
//! tracker applies memory effects in event order, which the earliest-start
//! stepping rule keeps near time order; tiny reorderings across concurrent
//! streams are an accepted modelling artifact.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use flashmem_core::cache::{ArtifactCache, Fnv1a};
use flashmem_core::engine::CompiledArtifact;
use flashmem_core::executor::RUNTIME_OVERHEAD_BYTES;
use flashmem_core::pool::{self, ThreadPool};
use flashmem_core::telemetry::{PhaseBreakdown, TraceConfig, TraceKind, TraceLane, TraceRecorder};
use flashmem_core::{ExecutionReport, FlashMem, FlashMemConfig, KernelRewriter, StreamingExecutor};
use flashmem_gpu_sim::engine::{
    CommandStream, GpuSimulator, PreemptionCost, QueueClocks, QueueKind, SimConfig, StreamStepper,
    Suspension,
};
use flashmem_gpu_sim::error::SimResult;
use flashmem_gpu_sim::memory::MemoryTracker;
use flashmem_gpu_sim::trace::MemoryTrace;
use flashmem_gpu_sim::{DeviceSpec, FaultKind, FaultPlan, SimError};
use flashmem_graph::ModelSpec;
use flashmem_profiler::LoweringOptions;

use crate::fleet::{
    Carry, DeviceJob, DeviceLoop, DeviceRun, Fleet, NextAttempt, Orphan, Redispatch,
};
use crate::metrics::{DeviceReport, RequestOutcome, ServeReport};
use crate::policy::{
    FifoPolicy, InFlightEntry, OverloadControl, PendingEntry, PolicyContext, RecoveryControl,
    SchedulePolicy,
};
use crate::request::{clamp_non_negative, FailureCause, RejectCause, ServeRequest};

const MIB: f64 = 1024.0 * 1024.0;

/// Lower a compiled artifact to the command stream the event loop steps.
///
/// Streaming artifacts reuse the [`StreamingExecutor`] lowering the one-shot
/// runtime uses; preload artifacts *are* command streams; naive plans lower
/// through the executor without kernel rewriting, as in the Figure 9 strawmen.
///
/// Lowering is a pure function of its inputs, which the plan cache already
/// identifies by [`ArtifactCache::key_for`]; the serving loop therefore
/// lowers once per key per device run and shares the stream between every
/// request admitted with that plan.
pub fn lower_artifact(
    artifact: &CompiledArtifact,
    model: &ModelSpec,
    device: &DeviceSpec,
    config: &FlashMemConfig,
) -> CommandStream {
    match artifact {
        CompiledArtifact::Streaming(compiled) => {
            let rewriter = if config.enable_kernel_rewriting {
                KernelRewriter::pipelined()
            } else {
                KernelRewriter::naive()
            };
            StreamingExecutor::new(device.clone(), rewriter.lowering_options())
                .with_embedded_transforms(config.enable_kernel_rewriting)
                .compile(model.graph(), &compiled.fusion, &compiled.plan)
        }
        CompiledArtifact::Preload(stream) => stream.clone(),
        CompiledArtifact::NaivePlan { fusion, plan } => {
            StreamingExecutor::new(device.clone(), LoweringOptions::texture_framework())
                .with_embedded_transforms(false)
                .compile(model.graph(), fusion, plan)
        }
    }
}

/// Estimated resident bytes of one in-flight request — the admission-control
/// quantity behind per-tenant memory caps. Runtime overhead + double-buffered
/// activations + everything the plan keeps resident, plus the largest
/// streamed weight as staging headroom.
pub fn estimate_resident_bytes(artifact: &CompiledArtifact, model: &ModelSpec) -> u64 {
    let base = RUNTIME_OVERHEAD_BYTES + (2 * model.graph().max_activation_bytes()).max(1);
    match artifact {
        CompiledArtifact::Streaming(compiled) => {
            base + plan_resident_bytes(compiled.plan.weights())
        }
        CompiledArtifact::NaivePlan { plan, .. } => base + plan_resident_bytes(plan.weights()),
        CompiledArtifact::Preload(stream) => {
            // No plan to consult: every allocation in the stream is an upper
            // bound on what can be live at once.
            base + stream
                .commands()
                .iter()
                .filter_map(|c| match &c.kind {
                    flashmem_gpu_sim::engine::CommandKind::Alloc { bytes, .. } => Some(*bytes),
                    _ => None,
                })
                .sum::<u64>()
        }
    }
}

/// Predicted uncontended service time of a compiled artifact on `device`:
/// the makespan of stepping its lowered command stream alone against idle
/// queues and an empty tracker. This is what laxity-driven policies
/// ([`LeastLaxityPolicy`](crate::LeastLaxityPolicy),
/// [`DeadlinePreemptivePolicy`](crate::DeadlinePreemptivePolicy)) use as the
/// estimated remaining service time of a request that has not started yet;
/// the engine computes it once per distinct model per device and scales it
/// by the remaining command fraction for partially executed streams.
///
/// Returns 0.0 for a stream that fails validation, and the makespan reached
/// so far if stepping fails mid-stream (e.g. the model alone exceeds the
/// device budget — admission will surface that as its own failure).
pub fn predicted_service_ms(
    artifact: &CompiledArtifact,
    model: &ModelSpec,
    device: &DeviceSpec,
    config: &FlashMemConfig,
) -> f64 {
    let stream = lower_artifact(artifact, model, device, config);
    let sim = GpuSimulator::new(device.clone(), SimConfig::default());
    let mut tracker = MemoryTracker::for_device(device);
    let mut clocks = QueueClocks::new();
    let Ok(mut stepper) = StreamStepper::new(stream) else {
        return 0.0;
    };
    while !stepper.is_done() {
        if stepper.step(&sim, &mut clocks, &mut tracker, 0.0).is_err() {
            break;
        }
    }
    stepper.makespan_ms()
}

fn plan_resident_bytes(weights: &[flashmem_core::WeightSchedule]) -> u64 {
    let preloaded: u64 = weights
        .iter()
        .filter(|w| w.preloaded)
        .map(|w| w.bytes)
        .sum();
    let largest_streamed = weights
        .iter()
        .filter(|w| !w.preloaded)
        .map(|w| w.bytes)
        .max()
        .unwrap_or(0);
    preloaded + largest_streamed
}

/// The scheduler-visible view of everything that could be admitted at `now`:
/// pending requests that have arrived, plus every suspended request (a
/// suspended request arrived before it was first admitted, by construction).
/// Both the admission phase and the preemption phase rank exactly this list,
/// so a preemption can only fire for a candidate admission would pick.
///
/// `pending` is sorted by (arrival, seq), so the scan stops at the first
/// request that has not arrived yet.
///
/// `gate`, when present, restricts pending candidates to requests that have
/// already passed the bounded-queue shed check (`Some` only when a queue
/// bound is configured): an arrival the loop has not yet observed might be
/// about to be shed, and must not trigger a preemption first.
fn arrived_candidates(
    pending: &[(usize, &ServeRequest)],
    suspended: &[Suspended],
    now: f64,
    deadlines: &HashMap<usize, Option<f64>>,
    estimates: &HashMap<usize, f64>,
    gate: Option<&HashSet<usize>>,
) -> Vec<PendingEntry> {
    let mut candidates: Vec<PendingEntry> = pending
        .iter()
        .take_while(|(_, r)| r.arrival_ms <= now)
        .filter(|(seq, _)| gate.is_none_or(|g| g.contains(seq)))
        .map(|(seq, r)| PendingEntry {
            seq: *seq,
            priority: r.priority,
            arrival_ms: r.arrival_ms,
            deadline_ms: deadlines.get(seq).copied().flatten(),
            estimated_remaining_ms: estimates.get(seq).copied().unwrap_or(0.0),
        })
        .collect();
    candidates.extend(
        suspended
            .iter()
            .filter(|s| s.ready_ms <= now)
            .map(|s| PendingEntry {
                seq: s.meta.seq,
                priority: s.meta.priority,
                arrival_ms: s.meta.arrival_ms,
                deadline_ms: s.meta.absolute_deadline_ms(),
                estimated_remaining_ms: s.meta.estimated_remaining_ms(s.suspension.remaining()),
            }),
    );
    candidates
}

/// Everything the loop knows about an admitted request except its execution
/// state — shared between the in-flight and suspended representations.
/// `Clone` exists for device loss, which snapshots the meta of work
/// stranded on the lost device so the recovery planner can either resume it
/// elsewhere or finalize its typed-failure outcome.
#[derive(Clone)]
pub(crate) struct FlightMeta {
    seq: usize,
    abbr: String,
    tenant: String,
    priority: u8,
    arrival_ms: f64,
    deadline_ms: Option<f64>,
    start_ms: f64,
    cache_hit: bool,
    streamed_fraction: f64,
    estimate_bytes: u64,
    /// Predicted uncontended service time of the whole stream (0.0 when the
    /// policy does not use estimates).
    predicted_ms: f64,
    /// Command count of the lowered stream, for scaling `predicted_ms` to
    /// a partially executed remainder.
    total_commands: usize,
    /// Laxity at admission: absolute deadline − start − predicted service.
    admission_laxity_ms: Option<f64>,
    /// Home device index when the steal planner re-placed this request.
    stolen_from: Option<usize>,
    /// Injected-fault retries this request has already consumed (carried
    /// across recovery rounds; 0 on a first attempt).
    retries: u32,
    /// True when the recovery planner re-placed this request off a lost or
    /// quarantined device.
    failed_over: bool,
    trace_start: usize,
    order: usize,
    preemptions: usize,
    suspended_ms: f64,
    penalty_ms: f64,
    /// Global time at which the current running segment began (admission or
    /// last resume, after any reload penalty) — the open edge of the event
    /// trace's `Running` span.
    run_start_ms: f64,
    /// This request's own transfer-queue command intervals, in stream-local
    /// (epoch-relative) time. Per-queue commands never overlap, so phase
    /// attribution can union them directly.
    transfer_intervals: Vec<(f64, f64)>,
    /// This request's own compute-queue command intervals, stream-local.
    compute_intervals: Vec<(f64, f64)>,
}

impl FlightMeta {
    /// Absolute deadline on the device clock, if the request carries one.
    fn absolute_deadline_ms(&self) -> Option<f64> {
        self.deadline_ms.map(|d| self.arrival_ms + d)
    }

    /// Predicted service time still ahead of a stream with `remaining`
    /// commands left: the whole-stream prediction scaled by the unexecuted
    /// command fraction.
    fn estimated_remaining_ms(&self, remaining: usize) -> f64 {
        if self.total_commands == 0 {
            0.0
        } else {
            self.predicted_ms * remaining as f64 / self.total_commands as f64
        }
    }
    /// Build the outcome row for this request, completing (or failing) at
    /// `completion_ms`.
    fn into_outcome(
        self,
        device: &str,
        device_index: usize,
        completion_ms: f64,
        peak_memory_mb: f64,
        error: Option<SimError>,
        report: Option<ExecutionReport>,
    ) -> RequestOutcome {
        let queue_wait_ms = (self.start_ms - self.arrival_ms).max(0.0);
        let latency_ms = (completion_ms - self.arrival_ms).max(0.0);
        // Compile time is 0.0 on the simulated clock (LC-OPG solves are
        // charged to host wall time, not device time); suspension includes
        // the re-residency penalties; the residual stall term makes the
        // phases sum to the latency exactly.
        let phases = PhaseBreakdown::attribute(
            latency_ms,
            queue_wait_ms,
            0.0,
            self.suspended_ms + self.penalty_ms,
            &self.transfer_intervals,
            &self.compute_intervals,
        );
        RequestOutcome {
            seq: self.seq,
            model: self.abbr,
            tenant: self.tenant,
            priority: self.priority,
            device: device.to_string(),
            device_index,
            arrival_ms: self.arrival_ms,
            start_ms: self.start_ms,
            completion_ms,
            queue_wait_ms,
            latency_ms,
            deadline_ms: self.deadline_ms,
            admission_laxity_ms: self.admission_laxity_ms,
            resident_estimate_bytes: self.estimate_bytes,
            preemptions: self.preemptions,
            suspended_ms: self.suspended_ms,
            resume_penalty_ms: self.penalty_ms,
            cache_hit: self.cache_hit,
            peak_memory_mb,
            phases,
            rejected: None,
            stolen_from: self.stolen_from,
            failure: error.as_ref().map(FailureCause::from_error),
            retries: self.retries,
            failed_over: self.failed_over,
            error,
            report,
            decode: None,
        }
    }
}

/// One admitted, in-flight request on a device.
struct InFlight {
    meta: FlightMeta,
    stepper: StreamStepper,
}

/// A preempted request waiting for a slot (and its residency) to come back.
struct Suspended {
    meta: FlightMeta,
    /// Global (device-timeline) time at which the request was suspended.
    suspended_at_ms: f64,
    suspension: Suspension,
    /// Earliest global time this suspension may resume. `NEG_INFINITY`
    /// (always ready) for ordinary preemptions; the recovery planner's
    /// backoff floor for suspensions failed over from a lost device.
    ready_ms: f64,
}

/// What the overload prologue decided for one device, handed to its round-0
/// job.
#[derive(Default)]
pub(crate) struct Admission {
    /// Requests admission control rejected, with their (provably negative)
    /// best-case laxity. Their outcomes and trace instants are emitted by
    /// this device so the ordered merge stays the only commit point.
    rejected: Vec<(usize, f64)>,
    /// For requests the steal planner re-placed here: `seq → home device`.
    stolen: HashMap<usize, usize>,
}

/// A suspension the recovery planner failed over onto this device: seeded
/// into the device loop's `suspended` list at round start so the ordinary
/// resume path re-acquires its residency (and pays the reload penalty).
pub(crate) struct SeededSuspension {
    meta: FlightMeta,
    suspension: Suspension,
    /// Global time the work was stranded (the device-loss instant) — the
    /// start of its `Suspended` span on the destination device.
    suspended_at_ms: f64,
    /// Backoff floor: earliest global time the resume may happen.
    ready_ms: f64,
}

/// In-flight state snapshotted at a device loss, resumable on a same-spec
/// sibling.
type Stranded = Option<(FlightMeta, Suspension)>;

/// A fleet-wide tenant cap: `bytes` of estimated resident memory across the
/// whole fleet, enforced without cross-device shared state by confining the
/// tenant to `shards` devices that each apply a `bytes / shards` sub-cap.
#[derive(Debug, Clone, Copy)]
struct FleetTenantCap {
    bytes: u64,
    shards: usize,
}

/// The multi-tenant serving engine over a fleet of simulated devices.
pub struct ServeEngine {
    fleet: Fleet,
    policy: Box<dyn SchedulePolicy>,
    tenant_caps: HashMap<String, u64>,
    fleet_tenant_caps: HashMap<String, FleetTenantCap>,
    tenant_slos: HashMap<String, f64>,
    overload: OverloadControl,
}

impl ServeEngine {
    /// A FIFO engine over `fleet` running FlashMem under `config`.
    ///
    /// An empty fleet is accepted here but rejected by [`run`](Self::run):
    /// silently substituting a default device would hide a configuration bug
    /// (and historically let `place(..).min(fleet_len - 1)` underflow).
    pub fn new(fleet: Vec<DeviceSpec>, config: FlashMemConfig) -> Self {
        ServeEngine {
            fleet: Fleet::new(fleet, config),
            policy: Box::new(FifoPolicy),
            tenant_caps: HashMap::new(),
            fleet_tenant_caps: HashMap::new(),
            tenant_slos: HashMap::new(),
            overload: OverloadControl::disabled(),
        }
    }

    /// Inject deterministic faults from a seeded [`FaultPlan`] (builder
    /// style). The plan keys every per-command draw by `(device, seq,
    /// command, attempt)`, so which commands fault is independent of the
    /// scheduling policy, pool width and retry timing. With an empty plan
    /// (the default) nothing can fault, so the run is a single round and
    /// the device loops skip every per-command fault draw.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fleet.fault_plan = plan;
        self
    }

    /// Configure failure recovery (builder style): per-request retry budgets
    /// with simulated-time backoff, failover re-placement of work stranded
    /// by a device loss onto surviving devices (in-flight work is carried
    /// over as a [`Suspension`] and resumed on a same-spec sibling when one
    /// exists, paying the re-residency penalty; otherwise it restarts from
    /// scratch), and circuit-breaker quarantine with probe-based
    /// reinstatement. Everything is off by default
    /// ([`RecoveryControl::disabled`]). Recovery only acts on injected
    /// faults: without a [`FaultPlan`] a run is the same with or without
    /// it.
    ///
    /// All recovery decisions are planned sequentially at round boundaries
    /// of the fleet runner, so reports stay byte-identical at any pool
    /// width — including which requests retried, where failovers landed and
    /// when devices were quarantined or probed.
    pub fn with_recovery_control(mut self, recovery: RecoveryControl) -> Self {
        self.fleet.recovery = recovery;
        self
    }

    /// Configure event tracing (builder style). Off by default; when
    /// enabled, each device fills a ring-buffered [`TraceRecorder`] inside
    /// its `run_device` job and the ordered merge seals them into
    /// [`ServeReport::trace`]. Recording never perturbs the simulation: a
    /// traced report minus its `trace` field is byte-identical to an
    /// untraced run.
    pub fn with_trace(mut self, trace: TraceConfig) -> Self {
        self.fleet.trace = trace;
        self
    }

    /// Replace the scheduling policy (builder style).
    pub fn with_policy(mut self, policy: Box<dyn SchedulePolicy>) -> Self {
        self.policy = policy;
        self
    }

    /// Share an existing plan cache (e.g. the benchmark harness's) instead of
    /// a private one.
    pub fn with_cache(mut self, cache: Arc<ArtifactCache>) -> Self {
        self.fleet.cache = cache;
        self
    }

    /// Cap `tenant`'s estimated resident bytes per device. Requests that
    /// would exceed the cap wait for the tenant's in-flight work to finish;
    /// a request whose own working set exceeds the cap fails outright.
    pub fn with_tenant_cap(mut self, tenant: impl Into<String>, bytes: u64) -> Self {
        self.tenant_caps.insert(tenant.into(), bytes);
        self
    }

    /// Configure overload survival (builder style): bounded per-device
    /// queues, deadline admission control and the steal phase that re-places
    /// queued requests from backed-up shards onto idle ones. Everything is
    /// off by default ([`OverloadControl::disabled`]), in which case the
    /// engine's behaviour is bit-identical to one without overload control.
    pub fn with_overload_control(mut self, overload: OverloadControl) -> Self {
        self.overload = overload;
        self
    }

    /// Cap `tenant`'s estimated resident bytes across the **whole fleet**.
    /// The tenant is confined to `shards` devices (a stable hash of the
    /// tenant name picks which; clamped to the fleet size) and each shard
    /// enforces a `bytes / shards` sub-cap with the same real-state
    /// accounting as [`with_tenant_cap`](Self::with_tenant_cap) — so the
    /// tenant's summed resident reservations never exceed `bytes` at any
    /// instant, by construction, without any cross-device shared state
    /// (which is what keeps parallel device stepping deterministic). The
    /// steal planner respects the confinement: a fleet-capped tenant's
    /// requests are only ever re-placed within its shard set.
    pub fn with_fleet_tenant_cap(
        mut self,
        tenant: impl Into<String>,
        bytes: u64,
        shards: usize,
    ) -> Self {
        self.fleet_tenant_caps.insert(
            tenant.into(),
            FleetTenantCap {
                bytes,
                shards: shards.max(1),
            },
        );
        self
    }

    /// Give every request of `tenant` a default SLO deadline: a relative
    /// latency budget in milliseconds, used when the request does not carry
    /// its own [`deadline_ms`](ServeRequest::deadline_ms). Deadline-carrying
    /// requests feed the report's [`SloSummary`](crate::SloSummary).
    /// Clamped to non-negative; a NaN is kept, and the run rejects it.
    pub fn with_tenant_slo(mut self, tenant: impl Into<String>, deadline_ms: f64) -> Self {
        self.tenant_slos
            .insert(tenant.into(), clamp_non_negative(deadline_ms));
        self
    }

    /// The fleet being served.
    pub fn fleet(&self) -> &[DeviceSpec] {
        &self.fleet.devices
    }

    /// The shared plan cache.
    pub fn cache(&self) -> &ArtifactCache {
        &self.fleet.cache
    }

    /// The deadline a request must meet, if any: its own, else its tenant's
    /// default.
    fn effective_deadline(&self, request: &ServeRequest) -> Option<f64> {
        request
            .deadline_ms
            .or_else(|| self.tenant_slos.get(&request.tenant).copied())
    }

    /// The device indices a fleet-capped tenant may run on: `shards`
    /// consecutive fleet slots starting at a stable hash of the tenant name.
    /// `None` for tenants without a fleet cap (any device).
    fn shard_set(&self, tenant: &str, fleet_len: usize) -> Option<Vec<usize>> {
        self.fleet_tenant_caps.get(tenant).map(|cap| {
            let k = cap.shards.clamp(1, fleet_len);
            let start = (Fnv1a::new().write_str(tenant).finish() % fleet_len as u64) as usize;
            (0..k).map(|i| (start + i) % fleet_len).collect()
        })
    }

    /// The per-device resident-byte cap admission charges `tenant` against:
    /// the tighter of the per-device cap and the fleet cap's per-shard
    /// slice.
    fn effective_tenant_cap(&self, tenant: &str) -> Option<u64> {
        let per_device = self.tenant_caps.get(tenant).copied();
        let fleet_len = self.fleet.devices.len().max(1);
        let per_shard = self.fleet_tenant_caps.get(tenant).map(|cap| {
            let k = cap.shards.clamp(1, fleet_len) as u64;
            cap.bytes / k
        });
        match (per_device, per_shard) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// The outcome row of a request overload control shed: zero latency and
    /// queue wait (it never occupied the device), no error — the typed
    /// [`RejectCause`] is the whole story, and the metrics layer excludes
    /// rejected requests from SLO accounting.
    #[allow(clippy::too_many_arguments)]
    fn rejected_outcome(
        &self,
        seq: usize,
        request: &ServeRequest,
        device: &DeviceSpec,
        device_index: usize,
        cause: RejectCause,
        admission_laxity_ms: Option<f64>,
        stolen_from: Option<usize>,
    ) -> RequestOutcome {
        RequestOutcome {
            seq,
            model: request.model.abbr.clone(),
            tenant: request.tenant.clone(),
            priority: request.priority,
            device: device.name.clone(),
            device_index,
            arrival_ms: request.arrival_ms,
            start_ms: request.arrival_ms,
            completion_ms: request.arrival_ms,
            queue_wait_ms: 0.0,
            latency_ms: 0.0,
            deadline_ms: self.effective_deadline(request),
            admission_laxity_ms,
            resident_estimate_bytes: 0,
            preemptions: 0,
            suspended_ms: 0.0,
            resume_penalty_ms: 0.0,
            cache_hit: false,
            peak_memory_mb: 0.0,
            phases: PhaseBreakdown::attribute(0.0, 0.0, 0.0, 0.0, &[], &[]),
            rejected: Some(cause),
            stolen_from,
            failure: None,
            retries: 0,
            failed_over: false,
            error: None,
            report: None,
            decode: None,
        }
    }

    /// Observe every arrival up to `now` (pending is sorted by arrival, so
    /// this walks a prefix), shedding past the queue bound and tracking the
    /// queue-depth high-water mark. Runs at each scheduling boundary of the
    /// device loop; depth can only shrink at those same boundaries
    /// (admissions), so processing the arrivals of a busy interval in
    /// arrival order here reproduces the depth evolution exactly. A shed
    /// request is rejected *at its own arrival instant* with
    /// [`RejectCause::QueueFull`].
    #[allow(clippy::too_many_arguments)]
    fn observe_arrivals(
        &self,
        now: f64,
        device: &DeviceSpec,
        device_index: usize,
        stolen: &HashMap<usize, usize>,
        pending: &mut Vec<(usize, &ServeRequest)>,
        enqueued: &mut HashSet<usize>,
        queued: &mut usize,
        high_water: &mut usize,
        outcomes: &mut Vec<RequestOutcome>,
        trace: &mut TraceRecorder,
    ) {
        let bound = self.overload.queue_bound;
        let mut i = 0;
        while i < pending.len() {
            let (seq, request) = pending[i];
            if request.arrival_ms > now {
                break;
            }
            if enqueued.contains(&seq) {
                i += 1;
                continue;
            }
            if let Some(bound) = bound {
                if *queued >= bound {
                    pending.remove(i);
                    outcomes.push(self.rejected_outcome(
                        seq,
                        request,
                        device,
                        device_index,
                        RejectCause::QueueFull,
                        None,
                        stolen.get(&seq).copied(),
                    ));
                    if trace.enabled() {
                        trace.instant(
                            TraceKind::Reject,
                            TraceLane::Request(seq),
                            &format!("reject {} (queue-full)", request.model.abbr),
                            request.arrival_ms,
                        );
                    }
                    continue;
                }
            }
            enqueued.insert(seq);
            *queued += 1;
            *high_water = (*high_water).max(*queued);
            i += 1;
        }
    }

    /// Serve `requests` (any order; arrival times need not be sorted) and
    /// report per-request outcomes, per-device utilization, latency
    /// percentiles (overall and per priority), SLO attainment and preemption
    /// counts.
    ///
    /// Independent device timelines advance **concurrently** on the
    /// process-wide [`pool::global`] thread pool (see the
    /// [module docs](self) for the placement → parallel stepping → ordered
    /// merge structure); the report is byte-identical to a serial run.
    ///
    /// Per-request failures (out-of-memory, tenant caps) are recorded in the
    /// outcomes, not propagated.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidParameter`] for an empty fleet, a
    /// non-finite `arrival_ms`, a NaN or negative `deadline_ms`, a NaN
    /// tenant SLO, a non-finite or negative [`RecoveryControl`] time, an error
    /// for malformed command streams (an internal invariant violation, not
    /// a modelled outcome), and [`SimError::WorkerPanic`] for a panic inside
    /// a device worker.
    pub fn run(&self, requests: &[ServeRequest]) -> SimResult<ServeReport> {
        self.run_on(pool::global(), requests)
    }

    /// [`run`](Self::run) on an explicit pool. `ThreadPool::with_threads(1)`
    /// steps the fleet inline on the caller thread in fleet order — the
    /// exact serial loop, kept as the byte-identity oracle and the
    /// `--threads 1` bisection path.
    pub fn run_on(&self, pool: &ThreadPool, requests: &[ServeRequest]) -> SimResult<ServeReport> {
        self.fleet.check("ServeEngine", requests)?;
        let nan_slos = self.tenant_slos.iter().filter(|(_, slo)| slo.is_nan());
        if let Some((tenant, _)) = nan_slos.min_by_key(|(tenant, _)| *tenant) {
            return Err(SimError::InvalidParameter {
                message: format!("tenant {tenant} has a NaN SLO deadline; it must be a number"),
            });
        }
        // Warmth is snapshotted *before* the overload prologue compiles
        // anything, so `cache_hit` keeps meaning "warm when the run began"
        // even when admission control / steal planning populate the cache.
        let warm = self.fleet.warm_keys(requests);
        let fleet_len = self.fleet.devices.len();

        // ---- placement: the sequential prologue ----
        let mut placement: Vec<usize> = Vec::with_capacity(requests.len());
        for (seq, request) in requests.iter().enumerate() {
            let placed = self
                .policy
                .place(request, seq, fleet_len)
                .min(fleet_len - 1);
            // A fleet-capped tenant is confined to its shard set, so the
            // per-shard sub-caps bound its fleet-wide footprint by
            // construction (see `with_fleet_tenant_cap`).
            let device = match self.shard_set(&request.tenant, fleet_len) {
                Some(allowed) => allowed[placed % allowed.len()],
                None => placed,
            };
            placement.push(device);
        }

        // ---- overload pipeline (sequential): admission control + steal ----
        // Both stages run on the caller thread in submission order — the
        // same commit-point discipline as placement, which is what keeps
        // every shed/steal decision byte-identical at any pool width.
        // Service-time predictions are memoized per (model, device) and
        // compile through the shared cache, sequentially, so the cache
        // hit/miss counters stay schedule-independent too.
        let mut admission: Vec<Admission> = (0..fleet_len).map(|_| Admission::default()).collect();
        let mut rejected: HashSet<usize> = HashSet::new();
        if self.overload.uses_estimates() {
            let engines: Vec<FlashMem> = self
                .fleet
                .devices
                .iter()
                .map(|device| self.fleet.runtime(device))
                .collect();
            let mut memo: HashMap<(String, usize), f64> = HashMap::new();
            let mut predict = |model: &ModelSpec, d: usize| -> f64 {
                *memo.entry((model.abbr.clone(), d)).or_insert_with(|| {
                    let device = &self.fleet.devices[d];
                    match self.fleet.cache.compile(&engines[d], model, device) {
                        Ok((artifact, _)) => {
                            predicted_service_ms(&artifact, model, device, &self.fleet.config)
                        }
                        // Compilation failures surface at admission.
                        Err(_) => 0.0,
                    }
                })
            };

            if self.overload.admission_control {
                for (seq, request) in requests.iter().enumerate() {
                    let Some(budget) = self.effective_deadline(request) else {
                        continue;
                    };
                    let allowed = self
                        .shard_set(&request.tenant, fleet_len)
                        .unwrap_or_else(|| (0..fleet_len).collect());
                    let best = allowed
                        .iter()
                        .map(|&d| predict(&request.model, d))
                        .fold(f64::INFINITY, f64::min);
                    // Provably unmeetable: the *uncontended* service time on
                    // the best device this request may run on already
                    // exceeds its latency budget, so its laxity is negative
                    // on every shard before any queueing.
                    if best.is_finite() && best > budget + 1e-9 {
                        rejected.insert(seq);
                        admission[placement[seq]]
                            .rejected
                            .push((seq, budget - best));
                    }
                }
            }

            if self.overload.steal {
                // Discrete-event plan over the accepted requests in arrival
                // order: each device is `max_in_flight` slots that free up
                // after the predicted service time. A request that would
                // queue at its home shard is re-placed onto the device that
                // starts it strictly earliest (ties to the lowest fleet
                // index); in-flight work is never moved — by the time a
                // later arrival is planned, everything planned before it is
                // already committed.
                let slots = self.policy.max_in_flight().max(1);
                let mut free: Vec<Vec<f64>> = vec![vec![0.0_f64; slots]; fleet_len];
                let start_at = |free: &[Vec<f64>], d: usize, arrival: f64| -> f64 {
                    arrival.max(free[d].iter().copied().fold(f64::INFINITY, f64::min))
                };
                let mut order: Vec<usize> = (0..requests.len())
                    .filter(|seq| !rejected.contains(seq))
                    .collect();
                order.sort_by(|&a, &b| {
                    requests[a]
                        .arrival_ms
                        .total_cmp(&requests[b].arrival_ms)
                        .then(a.cmp(&b))
                });
                for seq in order {
                    let request = &requests[seq];
                    let home = placement[seq];
                    let mut dest = home;
                    if start_at(&free, home, request.arrival_ms) > request.arrival_ms + 1e-9 {
                        // The request would queue at home — it is stealable.
                        let allowed = self
                            .shard_set(&request.tenant, fleet_len)
                            .unwrap_or_else(|| (0..fleet_len).collect());
                        for d in allowed {
                            if start_at(&free, d, request.arrival_ms) + 1e-9
                                < start_at(&free, dest, request.arrival_ms)
                            {
                                dest = d;
                            }
                        }
                    }
                    if dest != home {
                        admission[dest].stolen.insert(seq, home);
                        placement[seq] = dest;
                    }
                    let start = start_at(&free, dest, request.arrival_ms);
                    let service = predict(&request.model, dest);
                    let mut slot = 0;
                    for (i, &value) in free[dest].iter().enumerate() {
                        if value < free[dest][slot] {
                            slot = i;
                        }
                    }
                    free[dest][slot] = start + service;
                }
            }
        }

        let mut per_device: Vec<Vec<(usize, &ServeRequest)>> = vec![Vec::new(); fleet_len];
        for (seq, request) in requests.iter().enumerate() {
            if !rejected.contains(&seq) {
                per_device[placement[seq]].push((seq, request));
            }
        }
        self.fleet
            .run(self, pool, requests, per_device, admission, warm)
    }
}

impl DeviceLoop for ServeEngine {
    type Prologue = Admission;
    type Resume = Stranded;
    type Seed = SeededSuspension;

    fn policy_name(&self) -> String {
        self.policy.name().to_string()
    }

    fn allowed_devices(&self, tenant: &str) -> Option<Vec<usize>> {
        self.shard_set(tenant, self.fleet.devices.len())
    }

    /// Run one device's timeline to completion for one round. Called once
    /// per [`DeviceJob`], usually from a pool worker: everything it touches
    /// is either owned by the job, local to this call, or a thread-safe
    /// shared structure (the plan cache). The returned [`TraceRecorder`] is
    /// this device's private event buffer, filled single-threaded here and
    /// merged (deterministically, in fleet order) at the run's commit point.
    ///
    /// Re-dispatched work carries its recovery state in `job.carry` and
    /// failed-over suspensions in `job.seeds`; both are empty in round 0.
    /// Per-command fault draws happen only when the [`FaultPlan`] can fire.
    #[allow(clippy::too_many_lines)]
    fn run_device(&self, job: DeviceJob<'_, Self>) -> SimResult<DeviceRun<Stranded>> {
        let DeviceJob {
            index: device_index,
            device,
            engine,
            sim,
            requests,
            assigned,
            warm,
            carry: carry_map,
            seeds: seed_list,
            prologue:
                Admission {
                    rejected: prerejected,
                    mut stolen,
                },
        } = job;
        stolen.extend(
            carry_map
                .iter()
                .filter_map(|(seq, carry)| carry.stolen_from.map(|home| (*seq, home))),
        );
        let fault_plan = &self.fleet.fault_plan;
        let faults_armed = !fault_plan.is_empty();
        let lost_at_ms = fault_plan.device_loss_ms(device_index);
        let mut orphans: Vec<Orphan<Stranded>> = Vec::new();
        let mut lost = false;
        let mut faults = 0_u32;
        let mut trace = TraceRecorder::new(self.fleet.trace);
        let mut tracker = MemoryTracker::for_device(device);
        let slots = self.policy.max_in_flight().max(1);
        let exclusive = slots == 1 && self.policy.preemption().is_none();

        let total_assigned = assigned.len() + prerejected.len() + seed_list.len();
        // Sorted once by (arrival, seq) and afterwards only removed from:
        // the arrived requests are always a prefix.
        let mut pending = assigned;
        pending.sort_by(|a, b| {
            a.1.arrival_ms
                .total_cmp(&b.1.arrival_ms)
                .then(a.0.cmp(&b.0))
        });

        // Static per-request scheduling inputs. Absolute deadlines are cheap
        // and always resolved; service-time predictions cost one uncontended
        // stream replay per distinct model, so they are only computed when
        // the policy asks ([`SchedulePolicy::uses_estimates`]) and are
        // memoized by model abbreviation (plan, device and config are fixed
        // within one device run). Prediction compiles through the shared
        // plan cache on purpose: the artifact is needed again at admission,
        // and solving LC-OPG twice to keep the hit counters pristine would
        // double the expensive part. Under estimate-using policies the
        // admission-time compile of each model is therefore always a cache
        // hit (the precompute paid the miss).
        let uses_estimates = self.policy.uses_estimates();
        let mut service_memo: HashMap<String, f64> = HashMap::new();
        let mut deadlines: HashMap<usize, Option<f64>> = HashMap::new();
        let mut estimates: HashMap<usize, f64> = HashMap::new();
        for (seq, request) in &pending {
            // Re-dispatched requests arrive at the recovery planner's ready
            // floor, but their deadline clock started at true submission.
            let arrival = carry_map
                .get(seq)
                .map_or(request.arrival_ms, |c| c.original_arrival_ms);
            deadlines.insert(*seq, self.effective_deadline(request).map(|d| arrival + d));
            let estimate = if uses_estimates {
                *service_memo
                    .entry(request.model.abbr.clone())
                    .or_insert_with(|| {
                        match self.fleet.cache.compile(&engine, &request.model, device) {
                            Ok((artifact, _)) => predicted_service_ms(
                                &artifact,
                                &request.model,
                                device,
                                &self.fleet.config,
                            ),
                            // Compilation failures surface at admission.
                            Err(_) => 0.0,
                        }
                    })
            } else {
                0.0
            };
            estimates.insert(*seq, estimate);
        }

        let mut in_flight: Vec<InFlight> = Vec::new();
        let mut suspended: Vec<Suspended> = Vec::new();
        let mut outcomes: Vec<RequestOutcome> = Vec::new();
        let mut epoch = 0.0_f64;
        let mut clocks = QueueClocks::new();
        let mut stitched = MemoryTrace::new();
        let mut transfer_busy = 0.0_f64;
        let mut compute_busy = 0.0_f64;
        let mut makespan = 0.0_f64;
        let mut tenant_bytes: HashMap<String, u64> = HashMap::new();
        let mut admit_order = 0_usize;
        // Resident-byte estimates computed by the preemption phase's
        // feasibility checks, memoized per request seq.
        let mut estimate_memo: HashMap<usize, u64> = HashMap::new();
        // Lowered streams by plan-cache key: each plan is lowered on its
        // first admission and shared by every later request that uses it.
        let mut lowered: HashMap<u64, Arc<CommandStream>> = HashMap::new();
        // Bounded-queue bookkeeping: which pending requests the loop has
        // observed arriving (and not shed), the live queue depth (arrived
        // but not yet admitted), and its high-water mark.
        let mut enqueued: HashSet<usize> = HashSet::new();
        let mut queued = 0_usize;
        let mut queue_high_water = 0_usize;

        // Failed-over suspensions seed the suspended list: the ordinary
        // resume path re-acquires their residency (charging the reload
        // penalty) once their backoff floor passes. Their tenant reservation
        // is held while suspended, exactly like a preemption's.
        for seed in seed_list {
            let SeededSuspension {
                mut meta,
                suspension,
                suspended_at_ms,
                ready_ms,
            } = seed;
            *tenant_bytes.entry(meta.tenant.clone()).or_insert(0) += meta.estimate_bytes;
            meta.trace_start = tracker.trace().len();
            meta.order = admit_order;
            admit_order += 1;
            suspended.push(Suspended {
                meta,
                suspended_at_ms,
                suspension,
                ready_ms,
            });
        }

        // Admission-control rejects were decided in the run prologue; their
        // outcomes and trace instants are emitted here so each lands on its
        // placed device's private buffers and flows through the ordered
        // merge like everything else.
        for &(seq, laxity) in &prerejected {
            let request = &requests[seq];
            outcomes.push(self.rejected_outcome(
                seq,
                request,
                device,
                device_index,
                RejectCause::DeadlineUnmeetable,
                Some(laxity),
                None,
            ));
            if trace.enabled() {
                trace.instant(
                    TraceKind::Reject,
                    TraceLane::Request(seq),
                    &format!("reject {} (deadline-unmeetable)", request.model.abbr),
                    request.arrival_ms,
                );
            }
        }
        if trace.enabled() {
            for (seq, request) in &pending {
                if let Some(home) = stolen.get(seq) {
                    trace.instant(
                        TraceKind::Steal,
                        TraceLane::Request(*seq),
                        &format!("steal {} from device #{home}", request.model.abbr),
                        request.arrival_ms,
                    );
                }
            }
        }

        // Build the wait-only outcome of a request that failed before it
        // ever executed (compile error, hopeless tenant cap, device loss
        // while still queued).
        let waiting_failure = |seq: usize,
                               request: &ServeRequest,
                               deadline_ms: Option<f64>,
                               now: f64,
                               error: SimError|
         -> RequestOutcome {
            let carry = carry_map.get(&seq);
            let arrival_ms = carry.map_or(request.arrival_ms, |c| c.original_arrival_ms);
            let wait_ms = (now - arrival_ms).max(0.0);
            RequestOutcome {
                seq,
                model: request.model.abbr.clone(),
                tenant: request.tenant.clone(),
                priority: request.priority,
                device: device.name.clone(),
                device_index,
                arrival_ms,
                start_ms: now,
                completion_ms: now,
                queue_wait_ms: wait_ms,
                latency_ms: wait_ms,
                deadline_ms,
                admission_laxity_ms: None,
                resident_estimate_bytes: 0,
                preemptions: 0,
                suspended_ms: 0.0,
                resume_penalty_ms: 0.0,
                cache_hit: false,
                peak_memory_mb: 0.0,
                phases: PhaseBreakdown::attribute(wait_ms, wait_ms, 0.0, 0.0, &[], &[]),
                rejected: None,
                stolen_from: stolen.get(&seq).copied(),
                failure: Some(FailureCause::from_error(&error)),
                retries: carry.map_or(0, |c| c.retries),
                failed_over: carry.is_some_and(|c| c.failed_over),
                error: Some(error),
                report: None,
                decode: None,
            }
        };
        let fail = |outcomes: &mut Vec<RequestOutcome>,
                    trace: &mut TraceRecorder,
                    seq: usize,
                    request: &ServeRequest,
                    deadline_ms: Option<f64>,
                    now: f64,
                    error: SimError| {
            outcomes.push(waiting_failure(seq, request, deadline_ms, now, error));
            trace_failure(trace, outcomes.last().expect("just pushed"), None);
        };

        let bounded = self.overload.queue_bound.is_some();
        loop {
            // ---------------- preemption ----------------
            if self.policy.preemption().is_some() {
                if bounded && !in_flight.is_empty() {
                    // Observe (and shed past the bound) every arrival the
                    // preemption phase is about to see, so a request that is
                    // about to be shed can never trigger a preemption first.
                    let now = epoch
                        + in_flight
                            .iter()
                            .filter_map(|f| f.stepper.peek_start_ms(&clocks))
                            .fold(f64::INFINITY, f64::min);
                    if now.is_finite() {
                        self.observe_arrivals(
                            now,
                            device,
                            device_index,
                            &stolen,
                            &mut pending,
                            &mut enqueued,
                            &mut queued,
                            &mut queue_high_water,
                            &mut outcomes,
                            &mut trace,
                        );
                    }
                }
                self.preempt_outranked(
                    &engine,
                    device,
                    slots,
                    epoch,
                    &clocks,
                    &mut tracker,
                    &pending,
                    &tenant_bytes,
                    &mut estimate_memo,
                    &deadlines,
                    &estimates,
                    bounded.then_some(&enqueued),
                    &mut in_flight,
                    &mut suspended,
                    &mut trace,
                )?;
            }

            // ---------------- admission ----------------
            'admit: while in_flight.len() < slots && !(pending.is_empty() && suspended.is_empty()) {
                if in_flight.is_empty() && suspended.is_empty() {
                    // Idle: re-base the device timeline onto a fresh epoch at
                    // the later of "now" and the earliest pending arrival.
                    // (Never re-based while work is suspended — suspension
                    // snapshots reference the current epoch's local times.)
                    let earliest = pending.first().map_or(f64::INFINITY, |(_, r)| r.arrival_ms);
                    epoch = (epoch + clocks.horizon_ms()).max(earliest);
                    clocks.reset();
                }
                let mut now = if in_flight.is_empty() {
                    if suspended.is_empty() {
                        epoch
                    } else {
                        // Resume as soon as the queues drain.
                        epoch + clocks.horizon_ms()
                    }
                } else {
                    epoch
                        + in_flight
                            .iter()
                            .filter_map(|f| f.stepper.peek_start_ms(&clocks))
                            .fold(f64::INFINITY, f64::min)
                };
                if in_flight.is_empty() {
                    // Re-dispatched work carries a backoff floor its original
                    // arrival does not reflect; with nothing running, jump to
                    // the earliest floor so the loop cannot spin on a queue
                    // whose every candidate is still backing off. A first
                    // attempt's floor is its arrival, which the idle re-base
                    // above has already passed, and ordinary suspensions have
                    // a `NEG_INFINITY` floor, so only re-dispatched work ever
                    // moves `now` here.
                    let earliest = pending
                        .first()
                        .map(|(_, r)| r.arrival_ms)
                        .into_iter()
                        .chain(suspended.iter().map(|s| s.ready_ms))
                        .fold(f64::INFINITY, f64::min);
                    if earliest.is_finite() {
                        now = now.max(earliest);
                    }
                }
                self.observe_arrivals(
                    now,
                    device,
                    device_index,
                    &stolen,
                    &mut pending,
                    &mut enqueued,
                    &mut queued,
                    &mut queue_high_water,
                    &mut outcomes,
                    &mut trace,
                );
                let mut candidates =
                    arrived_candidates(&pending, &suspended, now, &deadlines, &estimates, None);
                let ctx = PolicyContext::at(now);
                while !candidates.is_empty() {
                    let choice = self
                        .policy
                        .pick(&candidates, &ctx)
                        .min(candidates.len() - 1);
                    let chosen_seq = candidates[choice].seq;

                    if let Some(pos) = suspended.iter().position(|s| s.meta.seq == chosen_seq) {
                        // -------- resume a preempted request --------
                        if !suspended[pos].suspension.can_resume(&tracker) {
                            if in_flight.is_empty() {
                                // Nothing running will ever free the memory:
                                // the residency is unrecoverable.
                                let s = suspended.remove(pos);
                                let requested = s.suspension.evicted_bytes();
                                makespan = makespan.max(now);
                                decrement(&mut tenant_bytes, &s.meta.tenant, s.meta.estimate_bytes);
                                let mut meta = s.meta;
                                if trace.enabled() {
                                    trace.span(
                                        TraceKind::Suspended,
                                        TraceLane::Request(meta.seq),
                                        &format!("suspended {}", meta.abbr),
                                        s.suspended_at_ms,
                                        now,
                                    );
                                }
                                meta.suspended_ms += (now - s.suspended_at_ms).max(0.0);
                                outcomes.push(meta.into_outcome(
                                    &device.name,
                                    device_index,
                                    now,
                                    0.0,
                                    Some(SimError::OutOfMemory {
                                        pool: "resume residency".to_string(),
                                        requested,
                                        available:
                                            tracker.budget().saturating_sub(tracker.total_in_use()),
                                        capacity: tracker.budget(),
                                    }),
                                    None,
                                ));
                                trace_failure(
                                    &mut trace,
                                    outcomes.last().expect("just pushed"),
                                    None,
                                );
                                continue 'admit;
                            }
                            // Defer until in-flight work frees memory.
                            candidates.remove(choice);
                            continue;
                        }
                        let s = suspended.remove(pos);
                        let cost = self
                            .policy
                            .preemption()
                            .unwrap_or_else(PreemptionCost::free);
                        let resume_local = (now - epoch).max(0.0);
                        if trace.enabled() {
                            trace.span(
                                TraceKind::Suspended,
                                TraceLane::Request(s.meta.seq),
                                &format!("suspended {}", s.meta.abbr),
                                s.suspended_at_ms,
                                now,
                            );
                        }
                        let evicted = s.suspension.evicted_bytes();
                        let (stepper, penalty) = s.suspension.resume_into(
                            &sim,
                            &mut tracker,
                            resume_local,
                            epoch,
                            &cost,
                        )?;
                        if trace.enabled() {
                            let start = epoch + resume_local;
                            trace.span_bytes(
                                TraceKind::Resume,
                                TraceLane::Request(s.meta.seq),
                                &format!("resume {}", s.meta.abbr),
                                start,
                                start + penalty,
                                evicted,
                            );
                        }
                        let mut meta = s.meta;
                        meta.suspended_ms += (now - s.suspended_at_ms).max(0.0);
                        meta.penalty_ms += penalty;
                        meta.run_start_ms = epoch + resume_local + penalty;
                        in_flight.push(InFlight { meta, stepper });
                        continue 'admit;
                    }

                    // -------- admit a fresh request --------
                    let position = pending
                        .iter()
                        .position(|(seq, _)| *seq == chosen_seq)
                        .expect("candidate is pending");
                    let (seq, request) = pending[position];

                    // Report warmth-at-run-start (the prologue snapshot),
                    // not `compile`'s racy mid-run flag: at pool width > 1
                    // that flag records which device won the compile race.
                    let key = ArtifactCache::key_for(&engine, &request.model, device);
                    let cache_hit = warm.contains(&key);
                    let artifact = match self.fleet.cache.compile(&engine, &request.model, device) {
                        Ok((artifact, _)) => {
                            if trace.enabled() {
                                let abbr = &request.model.abbr;
                                let (kind, probe) = if cache_hit {
                                    (TraceKind::CacheHit, "hit")
                                } else {
                                    (TraceKind::CacheMiss, "miss")
                                };
                                let lane = TraceLane::Host;
                                trace.instant(kind, lane, &format!("cache {probe} {abbr}"), now);
                                if !cache_hit {
                                    // Planning costs host wall time, not
                                    // device time: an instant on the
                                    // simulated clock.
                                    trace.instant(
                                        TraceKind::Compile,
                                        lane,
                                        &format!("compile {abbr}"),
                                        now,
                                    );
                                }
                            }
                            artifact
                        }
                        Err(error) => {
                            pending.remove(position);
                            if enqueued.remove(&seq) {
                                queued -= 1;
                            }
                            let deadline = self.effective_deadline(request);
                            fail(
                                &mut outcomes,
                                &mut trace,
                                seq,
                                request,
                                deadline,
                                now,
                                error,
                            );
                            continue 'admit;
                        }
                    };
                    let estimate = estimate_resident_bytes(&artifact, &request.model);
                    if let Some(cap) = self.effective_tenant_cap(&request.tenant) {
                        let used = tenant_bytes.get(&request.tenant).copied().unwrap_or(0);
                        if used.saturating_add(estimate) > cap {
                            if used == 0 {
                                // The cap cannot fit this model at all.
                                pending.remove(position);
                                if enqueued.remove(&seq) {
                                    queued -= 1;
                                }
                                let deadline = self.effective_deadline(request);
                                fail(
                                    &mut outcomes,
                                    &mut trace,
                                    seq,
                                    request,
                                    deadline,
                                    now,
                                    SimError::OutOfMemory {
                                        pool: format!("tenant `{}` cap", request.tenant),
                                        requested: estimate,
                                        available: cap,
                                        capacity: cap,
                                    },
                                );
                                continue 'admit;
                            }
                            // Defer until the tenant's in-flight work drains.
                            candidates.remove(choice);
                            continue;
                        }
                    }

                    pending.remove(position);
                    if enqueued.remove(&seq) {
                        queued -= 1;
                    }
                    let stream = Arc::clone(lowered.entry(key).or_insert_with(|| {
                        Arc::new(lower_artifact(
                            &artifact,
                            &request.model,
                            device,
                            &self.fleet.config,
                        ))
                    }));
                    let total_commands = stream.len();
                    let floor = (request.arrival_ms - epoch).max(0.0);
                    let stepper = StreamStepper::new(stream)?.with_floor_ms(floor);
                    if exclusive {
                        tracker.reset_trace();
                    }
                    *tenant_bytes.entry(request.tenant.clone()).or_insert(0) += estimate;
                    let predicted_ms = estimates.get(&seq).copied().unwrap_or(0.0);
                    let start_ms = now.max(request.arrival_ms);
                    let admission_laxity_ms = deadlines
                        .get(&seq)
                        .copied()
                        .flatten()
                        .map(|deadline| deadline - start_ms - predicted_ms);
                    if trace.enabled() {
                        let lane = TraceLane::Request(seq);
                        trace.span(
                            TraceKind::QueueWait,
                            lane,
                            &format!("queue {}", request.model.abbr),
                            request.arrival_ms,
                            start_ms,
                        );
                        let label = match admission_laxity_ms {
                            Some(laxity) => {
                                format!("admit {} laxity {laxity:.3} ms", request.model.abbr)
                            }
                            None => format!("admit {}", request.model.abbr),
                        };
                        trace.instant(TraceKind::Admit, lane, &label, start_ms);
                    }
                    let carry = carry_map.get(&seq);
                    in_flight.push(InFlight {
                        meta: FlightMeta {
                            seq,
                            abbr: request.model.abbr.clone(),
                            tenant: request.tenant.clone(),
                            priority: request.priority,
                            // Metrics measure from true submission, not from
                            // the recovery planner's re-dispatch floor.
                            arrival_ms: carry.map_or(request.arrival_ms, |c| c.original_arrival_ms),
                            deadline_ms: self.effective_deadline(request),
                            start_ms,
                            cache_hit,
                            streamed_fraction: artifact.streamed_fraction(),
                            estimate_bytes: estimate,
                            predicted_ms,
                            total_commands,
                            admission_laxity_ms,
                            stolen_from: stolen.get(&seq).copied(),
                            retries: carry.map_or(0, |c| c.retries),
                            failed_over: carry.is_some_and(|c| c.failed_over),
                            trace_start: tracker.trace().len(),
                            order: admit_order,
                            preemptions: 0,
                            suspended_ms: 0.0,
                            penalty_ms: 0.0,
                            run_start_ms: start_ms,
                            transfer_intervals: Vec::new(),
                            compute_intervals: Vec::new(),
                        },
                        stepper,
                    });
                    admit_order += 1;
                    continue 'admit;
                }
                break 'admit;
            }

            if in_flight.is_empty() {
                if pending.is_empty() && suspended.is_empty() {
                    break;
                }
                // Nothing admissible right now (all candidates deferred on
                // tenant caps with no in-flight work — prevented by the
                // `used == 0` fail path and the unrecoverable-resume path,
                // but keep the loop safe).
                continue;
            }

            // ---------------- step ----------------
            let mut chosen = 0;
            let mut chosen_start = f64::INFINITY;
            for (i, flight) in in_flight.iter().enumerate() {
                let start = flight
                    .stepper
                    .peek_start_ms(&clocks)
                    .unwrap_or(f64::INFINITY);
                let earlier = start < chosen_start
                    || (start == chosen_start && flight.meta.order < in_flight[chosen].meta.order);
                if i == 0 || earlier {
                    chosen = i;
                    chosen_start = start;
                }
            }
            let base = if exclusive { 0.0 } else { epoch };

            // ---------------- fault injection ----------------
            if faults_armed && chosen_start.is_finite() {
                let would_start = epoch + chosen_start;
                if lost_at_ms.is_some_and(|t| would_start + 1e-9 >= t) {
                    // The device dies before this command starts: everything
                    // on it — running, suspended, queued — is stranded. Hand
                    // it all to the recovery planner as orphans and stop the
                    // timeline.
                    let loss_ms = lost_at_ms.expect("just checked");
                    lost = true;
                    makespan = makespan.max(loss_ms);
                    if trace.enabled() {
                        trace.instant(
                            TraceKind::Fault,
                            TraceLane::Host,
                            &format!("fault device-loss {}", device.name),
                            loss_ms,
                        );
                    }
                    let carry_over = self.fleet.recovery.failover;
                    for flight in in_flight.drain(..) {
                        let seq = flight.meta.seq;
                        let local_now =
                            ((loss_ms - epoch).max(0.0)).max(flight.stepper.makespan_ms());
                        let completion = epoch + local_now;
                        if trace.enabled() {
                            trace.span(
                                TraceKind::Running,
                                TraceLane::Request(seq),
                                &format!("run {}", flight.meta.abbr),
                                flight.meta.run_start_ms,
                                completion,
                            );
                            trace.instant(
                                TraceKind::Fault,
                                TraceLane::Request(seq),
                                &format!("fault device-loss {}", flight.meta.abbr),
                                completion,
                            );
                        }
                        let carry = carry_map.get(&seq).copied();
                        let (retries, hops) = carry.map_or((0, 0), |c| (c.retries, c.hops));
                        let mut stepper = flight.stepper;
                        let meta = flight.meta;
                        let resume = if carry_over {
                            // Freeze the in-flight state for a same-spec
                            // sibling to resume from.
                            let suspension = stepper.suspend_evicting(
                                &clocks,
                                &mut tracker,
                                local_now,
                                epoch,
                            )?;
                            trace_preempt(&mut trace, &meta, epoch + local_now, &suspension);
                            Some((meta.clone(), suspension))
                        } else {
                            stepper.release_remaining(&mut tracker, base + local_now)?;
                            None
                        };
                        let outcome = meta.into_outcome(
                            &device.name,
                            device_index,
                            completion,
                            0.0,
                            Some(SimError::Fault {
                                kind: FaultKind::DeviceLoss,
                                at_ms: loss_ms,
                            }),
                            None,
                        );
                        orphans.push(Orphan {
                            outcome,
                            kind: FaultKind::DeviceLoss,
                            retries,
                            hops,
                            resume,
                        });
                    }
                    for s in suspended.drain(..) {
                        let seq = s.meta.seq;
                        let at = loss_ms.max(s.suspended_at_ms);
                        if trace.enabled() {
                            trace.span(
                                TraceKind::Suspended,
                                TraceLane::Request(seq),
                                &format!("suspended {}", s.meta.abbr),
                                s.suspended_at_ms,
                                at,
                            );
                            trace.instant(
                                TraceKind::Fault,
                                TraceLane::Request(seq),
                                &format!("fault device-loss {}", s.meta.abbr),
                                at,
                            );
                        }
                        let carry = carry_map.get(&seq).copied();
                        let (retries, hops) = carry.map_or((0, 0), |c| (c.retries, c.hops));
                        let mut meta = s.meta;
                        meta.suspended_ms += (at - s.suspended_at_ms).max(0.0);
                        let resume = carry_over.then(|| (meta.clone(), s.suspension));
                        let outcome = meta.into_outcome(
                            &device.name,
                            device_index,
                            at,
                            0.0,
                            Some(SimError::Fault {
                                kind: FaultKind::DeviceLoss,
                                at_ms: loss_ms,
                            }),
                            None,
                        );
                        orphans.push(Orphan {
                            outcome,
                            kind: FaultKind::DeviceLoss,
                            retries,
                            hops,
                            resume,
                        });
                    }
                    for (seq, request) in pending.drain(..) {
                        let at = loss_ms.max(request.arrival_ms);
                        if trace.enabled() {
                            trace.instant(
                                TraceKind::Fault,
                                TraceLane::Request(seq),
                                &format!("fault device-loss {}", request.model.abbr),
                                at,
                            );
                        }
                        let carry = carry_map.get(&seq).copied();
                        let (retries, hops) = carry.map_or((0, 0), |c| (c.retries, c.hops));
                        let deadline = self.effective_deadline(request);
                        let outcome = waiting_failure(
                            seq,
                            request,
                            deadline,
                            at,
                            SimError::Fault {
                                kind: FaultKind::DeviceLoss,
                                at_ms: loss_ms,
                            },
                        );
                        orphans.push(Orphan {
                            outcome,
                            kind: FaultKind::DeviceLoss,
                            retries,
                            hops,
                            resume: None,
                        });
                    }
                    if exclusive {
                        stitched.append_shifted(tracker.trace(), epoch);
                    }
                    break;
                }
                let flight = &in_flight[chosen];
                let executed = flight
                    .meta
                    .total_commands
                    .saturating_sub(flight.stepper.remaining());
                let attempt = carry_map.get(&flight.meta.seq).map_or(0, Carry::attempt);
                if let Some(kind) =
                    fault_plan.command_fault(device_index, flight.meta.seq, executed, attempt)
                {
                    // A transient injected fault: fail this attempt exactly
                    // like a modelled mid-run error, but channel it to the
                    // recovery planner instead of the final outcome list.
                    faults += 1;
                    let mut flight = in_flight.remove(chosen);
                    let now_local = chosen_start.max(flight.stepper.makespan_ms());
                    flight
                        .stepper
                        .release_remaining(&mut tracker, base + now_local)?;
                    if exclusive {
                        stitched.append_shifted(tracker.trace(), epoch);
                        tracker.evict_all(epoch + now_local);
                        stitched.record(epoch + now_local, 0);
                        epoch += now_local;
                        clocks.reset();
                    }
                    decrement(
                        &mut tenant_bytes,
                        &flight.meta.tenant,
                        flight.meta.estimate_bytes,
                    );
                    let completion = if exclusive { epoch } else { base + now_local };
                    makespan = makespan.max(completion);
                    let seq = flight.meta.seq;
                    if trace.enabled() {
                        trace.span(
                            TraceKind::Running,
                            TraceLane::Request(seq),
                            &format!("run {}", flight.meta.abbr),
                            flight.meta.run_start_ms,
                            completion,
                        );
                        trace.instant(
                            TraceKind::Fault,
                            TraceLane::Request(seq),
                            &format!("fault {kind} {}", flight.meta.abbr),
                            completion,
                        );
                    }
                    let carry = carry_map.get(&seq).copied();
                    let (retries, hops) = carry.map_or((0, 0), |c| (c.retries, c.hops));
                    let outcome = flight.meta.into_outcome(
                        &device.name,
                        device_index,
                        completion,
                        0.0,
                        Some(SimError::Fault {
                            kind,
                            at_ms: completion,
                        }),
                        None,
                    );
                    orphans.push(Orphan {
                        outcome,
                        kind,
                        retries,
                        hops,
                        resume: None,
                    });
                    continue;
                }
            }

            let step_result = in_flight[chosen]
                .stepper
                .step(&sim, &mut clocks, &mut tracker, base);
            match step_result {
                Ok(Some(event)) => {
                    let flight = &mut in_flight[chosen];
                    if trace.enabled() && event.queue != QueueKind::Host {
                        // Host bookkeeping occupies no hardware queue.
                        let lane = match event.queue {
                            QueueKind::Transfer => TraceLane::TransferQueue,
                            _ => TraceLane::ComputeQueue,
                        };
                        trace.span_bytes(
                            TraceKind::Command,
                            lane,
                            &flight.stepper.stream().commands()[event.command].label,
                            epoch + event.start_ms,
                            epoch + event.end_ms,
                            event.bytes,
                        );
                    }
                    let meta = &mut flight.meta;
                    match event.queue {
                        QueueKind::Transfer => {
                            transfer_busy += event.duration_ms();
                            if event.end_ms > event.start_ms {
                                meta.transfer_intervals.push((event.start_ms, event.end_ms));
                            }
                        }
                        QueueKind::Compute => {
                            compute_busy += event.duration_ms();
                            if event.end_ms > event.start_ms {
                                meta.compute_intervals.push((event.start_ms, event.end_ms));
                            }
                        }
                        QueueKind::Host => {}
                    }
                }
                Ok(None) => {}
                Err(error) => {
                    // The request failed mid-run (modelled OOM): release what
                    // it held and keep serving everyone else.
                    let mut flight = in_flight.remove(chosen);
                    let now_local = flight.stepper.makespan_ms();
                    let now_global = base + now_local;
                    flight.stepper.release_remaining(&mut tracker, now_global)?;
                    if exclusive {
                        stitched.append_shifted(tracker.trace(), epoch);
                        tracker.evict_all(epoch + now_local);
                        stitched.record(epoch + now_local, 0);
                        epoch += now_local;
                        clocks.reset();
                    }
                    decrement(
                        &mut tenant_bytes,
                        &flight.meta.tenant,
                        flight.meta.estimate_bytes,
                    );
                    let completion = if exclusive { epoch } else { now_global };
                    makespan = makespan.max(completion);
                    let run_start = flight.meta.run_start_ms;
                    outcomes.push(flight.meta.into_outcome(
                        &device.name,
                        device_index,
                        completion,
                        0.0,
                        Some(error),
                        None,
                    ));
                    trace_failure(
                        &mut trace,
                        outcomes.last().expect("just pushed"),
                        Some(run_start),
                    );
                    continue;
                }
            }

            // ---------------- completion ----------------
            if !in_flight[chosen].stepper.is_done() {
                continue;
            }
            let flight = in_flight.remove(chosen);
            if exclusive {
                // Legacy path: the request ran in run-local time against a
                // freshly reset trace; finalize exactly like the monolithic
                // executor, stitch, then evict the whole model.
                let outcome_exec = flight.stepper.finish(&sim, &mut tracker);
                let report = ExecutionReport::from_outcome(
                    "FlashMem",
                    &flight.meta.abbr,
                    &outcome_exec,
                    flight.meta.streamed_fraction,
                );
                let total = report.integrated_latency_ms;
                stitched.append_shifted(&report.memory_trace, epoch);
                let completion = epoch + total;
                epoch = completion;
                tracker.evict_all(epoch);
                stitched.record(epoch, 0);
                clocks.reset();
                decrement(
                    &mut tenant_bytes,
                    &flight.meta.tenant,
                    flight.meta.estimate_bytes,
                );
                makespan = makespan.max(completion);
                let peak_memory_mb = report.peak_memory_mb;
                let run_start = flight.meta.run_start_ms;
                outcomes.push(flight.meta.into_outcome(
                    &device.name,
                    device_index,
                    completion,
                    peak_memory_mb,
                    None,
                    Some(report),
                ));
                trace_completion(&mut trace, outcomes.last().expect("just pushed"), run_start);
            } else {
                let mut flight = flight;
                let total_local = flight.stepper.makespan_ms();
                let completion = epoch + total_local;
                tracker.sample(completion);
                flight.stepper.release_remaining(&mut tracker, completion)?;
                let peak_bytes = tracker.trace().samples()[flight.meta.trace_start..]
                    .iter()
                    .map(|s| s.bytes)
                    .max()
                    .unwrap_or(0);
                decrement(
                    &mut tenant_bytes,
                    &flight.meta.tenant,
                    flight.meta.estimate_bytes,
                );
                makespan = makespan.max(completion);
                let run_start = flight.meta.run_start_ms;
                outcomes.push(flight.meta.into_outcome(
                    &device.name,
                    device_index,
                    completion,
                    peak_bytes as f64 / MIB,
                    None,
                    None,
                ));
                trace_completion(&mut trace, outcomes.last().expect("just pushed"), run_start);
            }
        }

        let mem_trace = if exclusive {
            stitched
        } else {
            tracker.trace().clone()
        };
        let completed = outcomes.iter().filter(|o| o.succeeded()).count();
        let report = DeviceReport {
            device: device.name.clone(),
            requests: total_assigned,
            completed,
            makespan_ms: makespan,
            transfer_busy_ms: transfer_busy,
            compute_busy_ms: compute_busy,
            transfer_busy_fraction: if makespan > 0.0 {
                transfer_busy / makespan
            } else {
                0.0
            },
            compute_busy_fraction: if makespan > 0.0 {
                compute_busy / makespan
            } else {
                0.0
            },
            peak_memory_mb: mem_trace.peak_bytes() as f64 / MIB,
            queue_depth_high_water: queue_high_water,
            memory_trace: mem_trace,
        };
        Ok(DeviceRun {
            outcomes,
            report,
            trace,
            orphans,
            lost,
            faults,
        })
    }

    /// In-flight state resumes only on a same-spec sibling — the suspension
    /// snapshot is meaningful against the same cost model. Anywhere else the
    /// request restarts from scratch.
    fn redispatch(
        &self,
        request: &ServeRequest,
        plan: &Redispatch,
        resume: Stranded,
    ) -> NextAttempt<SeededSuspension> {
        let devices = &self.fleet.devices;
        match resume {
            Some((mut meta, suspension)) if devices[plan.dest].name == devices[plan.from].name => {
                meta.retries = plan.carry.retries;
                meta.failed_over = plan.carry.failed_over;
                NextAttempt::Resume(SeededSuspension {
                    meta,
                    suspension,
                    suspended_at_ms: plan.failed_at_ms,
                    ready_ms: plan.ready_ms,
                })
            }
            _ => {
                let mut request = request.clone();
                request.arrival_ms = plan.ready_ms;
                NextAttempt::Restart(Box::new(request), plan.carry)
            }
        }
    }
}

impl ServeEngine {
    /// Preemption phase of the device loop: while every slot is busy and an
    /// arrived (or previously suspended) request
    /// [`outranks`](SchedulePolicy::outranks) the policy's chosen
    /// [`victim`](SchedulePolicy::victim) among the in-flight inferences,
    /// suspend that victim at its next command boundary and evict its
    /// residency. Under the priority policies a candidate outranks by
    /// strictly higher priority; under the deadline-triggered policy it
    /// outranks when its laxity would go negative waiting for the victim
    /// while the victim stays slack. Candidates that could not actually use
    /// the freed slot — a suspended request whose residency would still not
    /// fit, or a pending request its tenant cap would defer — never trigger
    /// a preemption, so the loop cannot thrash.
    #[allow(clippy::too_many_arguments)]
    fn preempt_outranked(
        &self,
        engine: &FlashMem,
        device: &DeviceSpec,
        slots: usize,
        epoch: f64,
        clocks: &QueueClocks,
        tracker: &mut MemoryTracker,
        pending: &[(usize, &ServeRequest)],
        tenant_bytes: &HashMap<String, u64>,
        estimate_memo: &mut HashMap<usize, u64>,
        deadlines: &HashMap<usize, Option<f64>>,
        estimates: &HashMap<usize, f64>,
        gate: Option<&HashSet<usize>>,
        in_flight: &mut Vec<InFlight>,
        suspended: &mut Vec<Suspended>,
        trace: &mut TraceRecorder,
    ) -> SimResult<()> {
        while in_flight.len() >= slots && !in_flight.is_empty() {
            let now = epoch
                + in_flight
                    .iter()
                    .filter_map(|f| f.stepper.peek_start_ms(clocks))
                    .fold(f64::INFINITY, f64::min);
            if !now.is_finite() {
                return Ok(());
            }
            let ctx = PolicyContext::at(now);
            let flights: Vec<InFlightEntry> = in_flight
                .iter()
                .map(|f| InFlightEntry {
                    seq: f.meta.seq,
                    priority: f.meta.priority,
                    order: f.meta.order,
                    deadline_ms: f.meta.absolute_deadline_ms(),
                    estimated_remaining_ms: f.meta.estimated_remaining_ms(f.stepper.remaining()),
                })
                .collect();
            let victim_idx = self.policy.victim(&flights, &ctx).min(flights.len() - 1);
            let victim_entry = flights[victim_idx];
            let (victim_unified, victim_texture) =
                in_flight[victim_idx].stepper.resident_split(tracker);

            let mut candidates =
                arrived_candidates(pending, suspended, now, deadlines, estimates, gate);

            let mut trigger = false;
            while !candidates.is_empty() {
                let choice = self
                    .policy
                    .pick(&candidates, &ctx)
                    .min(candidates.len() - 1);
                let cand = candidates[choice];
                if !self.policy.outranks(&cand, &victim_entry, &ctx) {
                    // Keep scanning in the policy's preference order: pick
                    // order need not be monotone with outranking (under the
                    // deadline-triggered policy the least-laxity candidate
                    // can be too *long* to rescue while a shorter, slightly
                    // slacker one qualifies).
                    candidates.remove(choice);
                    continue;
                }
                if let Some(pos) = suspended.iter().position(|s| s.meta.seq == cand.seq) {
                    // Only preempt for a suspended request whose residency
                    // fits once the victim is evicted.
                    let (need_unified, need_texture) = suspended[pos].suspension.evicted_split();
                    let headroom = tracker.budget().saturating_sub(tracker.total_in_use());
                    let fits = need_unified <= tracker.unified().available() + victim_unified
                        && need_texture <= tracker.texture().available() + victim_texture
                        && need_unified + need_texture
                            <= headroom + victim_unified + victim_texture;
                    if !fits {
                        candidates.remove(choice);
                        continue;
                    }
                } else {
                    // Only preempt for a pending request its tenant cap
                    // would actually let in.
                    let request = pending
                        .iter()
                        .find(|(seq, _)| *seq == cand.seq)
                        .map(|(_, r)| *r)
                        .expect("candidate is pending");
                    if let Some(cap) = self.effective_tenant_cap(&request.tenant) {
                        // Memoized per request: this phase runs at every
                        // command boundary, and repeated cache probes would
                        // inflate the plan-cache hit counters.
                        let estimate = match estimate_memo.get(&cand.seq) {
                            Some(&estimate) => estimate,
                            None => {
                                match self.fleet.cache.compile(engine, &request.model, device) {
                                    Ok((artifact, _)) => {
                                        let estimate =
                                            estimate_resident_bytes(&artifact, &request.model);
                                        estimate_memo.insert(cand.seq, estimate);
                                        estimate
                                    }
                                    Err(_) => {
                                        // Compilation failures surface at
                                        // admission.
                                        candidates.remove(choice);
                                        continue;
                                    }
                                }
                            }
                        };
                        let used = tenant_bytes.get(&request.tenant).copied().unwrap_or(0);
                        if used.saturating_add(estimate) > cap {
                            candidates.remove(choice);
                            continue;
                        }
                    }
                }
                trigger = true;
                break;
            }
            if !trigger {
                return Ok(());
            }

            // Suspend the victim at its current command boundary: commands it
            // already issued drain, no new ones are issued, and its resident
            // memory is evicted for the higher-priority work.
            let flight = in_flight.remove(victim_idx);
            let local_now = (now - epoch).max(flight.stepper.makespan_ms());
            let mut meta = flight.meta;
            meta.preemptions += 1;
            if trace.enabled() {
                trace.span(
                    TraceKind::Running,
                    TraceLane::Request(meta.seq),
                    &format!("run {}", meta.abbr),
                    meta.run_start_ms,
                    epoch + local_now,
                );
            }
            let suspension = flight
                .stepper
                .suspend_evicting(clocks, tracker, local_now, epoch)?;
            trace_preempt(trace, &meta, epoch + local_now, &suspension);
            suspended.push(Suspended {
                meta,
                suspended_at_ms: epoch + local_now,
                suspension,
                ready_ms: f64::NEG_INFINITY,
            });
        }
        Ok(())
    }
}

fn decrement(tenant_bytes: &mut HashMap<String, u64>, tenant: &str, bytes: u64) {
    if let Some(used) = tenant_bytes.get_mut(tenant) {
        *used = used.saturating_sub(bytes);
    }
}

/// Mark an evicting suspension on the request's lane: a `Preempt` instant
/// tagged with the bytes it released.
fn trace_preempt(
    trace: &mut TraceRecorder,
    meta: &FlightMeta,
    at_ms: f64,
    suspension: &Suspension,
) {
    if trace.enabled() {
        trace.instant_bytes(
            TraceKind::Preempt,
            TraceLane::Request(meta.seq),
            &format!("preempt {}", meta.abbr),
            at_ms,
            suspension.evicted_bytes(),
        );
    }
}

/// Close a completed request's lifecycle on its trace lane: the final
/// `Running` span, a completion instant, and — when the deadline was missed
/// — an [`TraceKind::SloMiss`] instant tagged with the miss cause.
fn trace_completion(trace: &mut TraceRecorder, outcome: &RequestOutcome, run_start_ms: f64) {
    if !trace.enabled() {
        return;
    }
    let lane = TraceLane::Request(outcome.seq);
    trace.span(
        TraceKind::Running,
        lane,
        &format!("run {}", outcome.model),
        run_start_ms,
        outcome.completion_ms,
    );
    trace.instant(
        TraceKind::Complete,
        lane,
        &format!("complete {}", outcome.model),
        outcome.completion_ms,
    );
    if let Some(cause) = outcome.miss_cause() {
        trace.instant(
            TraceKind::SloMiss,
            lane,
            &format!("slo miss {} ({cause:?})", outcome.model),
            outcome.completion_ms,
        );
    }
}

/// Close a failed request's lifecycle on its trace lane; `run_start_ms` is
/// `Some` when the request had started executing (mid-run failure) so the
/// partial `Running` span is closed too.
fn trace_failure(trace: &mut TraceRecorder, outcome: &RequestOutcome, run_start_ms: Option<f64>) {
    if !trace.enabled() {
        return;
    }
    let lane = TraceLane::Request(outcome.seq);
    if let Some(run_start) = run_start_ms {
        trace.span(
            TraceKind::Running,
            lane,
            &format!("run {}", outcome.model),
            run_start,
            outcome.completion_ms,
        );
    }
    trace.instant(
        TraceKind::Fail,
        lane,
        &format!("fail {}", outcome.model),
        outcome.completion_ms,
    );
}

impl std::fmt::Debug for ServeEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeEngine")
            .field(
                "fleet",
                &self
                    .fleet
                    .devices
                    .iter()
                    .map(|d| &d.name)
                    .collect::<Vec<_>>(),
            )
            .field("policy", &self.policy.name())
            .field("tenant_caps", &self.tenant_caps)
            .field("fleet_tenant_caps", &self.fleet_tenant_caps)
            .field("tenant_slos", &self.tenant_slos)
            .field("overload", &self.overload)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{PreemptivePriorityPolicy, PriorityPolicy};
    use flashmem_graph::ModelZoo;

    fn requests(n: usize) -> Vec<ServeRequest> {
        (0..n)
            .map(|i| {
                ServeRequest::new(
                    if i % 2 == 0 {
                        ModelZoo::gptneo_small()
                    } else {
                        ModelZoo::vit()
                    },
                    format!("tenant-{}", i % 2),
                )
            })
            .collect()
    }

    #[test]
    fn fifo_run_completes_every_request_in_order() {
        let engine = ServeEngine::new(
            vec![DeviceSpec::oneplus_12()],
            FlashMemConfig::memory_priority(),
        );
        let report = engine.run(&requests(4)).unwrap();
        assert_eq!(report.completed(), 4);
        assert_eq!(report.policy, "fifo");
        // Exclusive FIFO on one device: completions are strictly ordered.
        for pair in report.outcomes.windows(2) {
            assert!(pair[1].completion_ms > pair[0].completion_ms);
            assert!(pair[1].start_ms >= pair[0].completion_ms - 1e-9);
        }
        // Repeated models hit the plan cache.
        assert!(report.cache.hits >= 2, "{}", report.cache);
        assert!(report.throughput_rps > 0.0);
        assert!(report.devices[0].compute_busy_fraction > 0.0);
        assert!(report.devices[0].transfer_busy_fraction > 0.0);
        // Non-preemptive: nothing was suspended, SLOs vacuously attained.
        assert_eq!(report.preemptions, 0);
        assert_eq!(report.slo.tracked, 0);
        assert_eq!(report.slo.attainment(), 1.0);
    }

    #[test]
    fn concurrent_slots_interleave_and_beat_exclusive_makespan() {
        let device = DeviceSpec::oneplus_12();
        let reqs = requests(4);
        let exclusive = ServeEngine::new(vec![device.clone()], FlashMemConfig::memory_priority())
            .with_policy(Box::new(PriorityPolicy::new()))
            .run(&reqs)
            .unwrap();
        let concurrent = ServeEngine::new(vec![device], FlashMemConfig::memory_priority())
            .with_policy(Box::new(PriorityPolicy::with_max_in_flight(2)))
            .run(&reqs)
            .unwrap();
        assert_eq!(concurrent.completed(), 4);
        assert!(
            concurrent.makespan_ms() < exclusive.makespan_ms(),
            "interleaving {} vs exclusive {}",
            concurrent.makespan_ms(),
            exclusive.makespan_ms()
        );
        // Sharing the queues cannot beat the sum of pure compute/load time:
        // utilization goes up instead.
        assert!(
            concurrent.devices[0].transfer_busy_fraction
                > exclusive.devices[0].transfer_busy_fraction - 1e-9
        );
    }

    #[test]
    fn arrivals_gate_execution() {
        let engine = ServeEngine::new(
            vec![DeviceSpec::oneplus_12()],
            FlashMemConfig::memory_priority(),
        );
        let reqs = vec![ServeRequest::new(ModelZoo::gptneo_small(), "a").with_arrival_ms(10_000.0)];
        let report = engine.run(&reqs).unwrap();
        let outcome = &report.outcomes[0];
        assert!(outcome.start_ms >= 10_000.0);
        assert_eq!(outcome.queue_wait_ms, 0.0);
        assert!(outcome.completion_ms > 10_000.0);
    }

    #[test]
    fn tenant_cap_smaller_than_model_fails_fast() {
        let engine = ServeEngine::new(
            vec![DeviceSpec::oneplus_12()],
            FlashMemConfig::memory_priority(),
        )
        .with_tenant_cap("tiny", 1024);
        let reqs = vec![ServeRequest::new(ModelZoo::gptneo_small(), "tiny")];
        let report = engine.run(&reqs).unwrap();
        assert_eq!(report.failed(), 1);
        assert!(matches!(
            report.outcomes[0].error,
            Some(SimError::OutOfMemory { .. })
        ));
    }

    #[test]
    fn empty_fleet_is_rejected_instead_of_underflowing_placement() {
        // Regression: placement used to compute `place(..).min(fleet_len - 1)`
        // which underflows at fleet_len == 0 (hidden by a silent
        // default-device fallback in `new`). An empty fleet is now a proper
        // error — even with zero requests, and before any placement runs.
        let engine = ServeEngine::new(Vec::new(), FlashMemConfig::memory_priority());
        assert!(engine.fleet().is_empty());
        for requests in [Vec::new(), requests(2)] {
            match engine.run(&requests) {
                Err(SimError::InvalidParameter { message }) => {
                    assert!(message.contains("empty fleet"), "{message}");
                }
                other => panic!("expected an empty-fleet error, got {other:?}"),
            }
        }
    }

    #[test]
    fn non_finite_arrivals_are_rejected_with_a_typed_error() {
        // The fields are public, so a caller can bypass the builders' clamps.
        // A non-finite arrival must come back as a typed error, not as a
        // worker panic (FIFO) or a panic on the caller thread (the steal
        // planner's arrival sort); so must a NaN or negative deadline.
        let fresh = || {
            ServeEngine::new(
                vec![DeviceSpec::oneplus_12()],
                FlashMemConfig::memory_priority(),
            )
        };
        let fifo = fresh();
        let steal = ServeEngine::new(
            vec![DeviceSpec::oneplus_12(), DeviceSpec::pixel_8()],
            FlashMemConfig::memory_priority(),
        )
        .with_policy(Box::new(PriorityPolicy::with_max_in_flight(2)))
        .with_overload_control(OverloadControl::disabled().with_steal());
        let nan = f64::NAN;
        let inf = f64::INFINITY;
        let cases = [
            (nan, None, "finite"),
            (inf, None, "finite"),
            (-inf, None, "finite"),
            (0.0, Some(nan), "deadline"),
            (0.0, Some(-1.0), "deadline"),
            (0.0, Some(-inf), "deadline"),
        ];
        fn rejects(engine: &ServeEngine, reqs: &[ServeRequest], words: [&str; 2]) {
            match engine.run_on(&ThreadPool::with_threads(1), reqs) {
                Err(SimError::InvalidParameter { message }) => {
                    assert!(words.iter().all(|w| message.contains(w)), "{message}");
                }
                other => panic!("expected a typed {words:?} error, got {other:?}"),
            }
        }
        let mut reqs = requests(3);
        for engine in [&fifo, &steal] {
            for (arrival, deadline, word) in cases {
                reqs[1].arrival_ms = arrival;
                reqs[1].deadline_ms = deadline;
                rejects(engine, &reqs, ["request 1", word]);
            }
            // A NaN passed to a builder meets the same check as one set on
            // the field: the builders clamp negatives but keep NaN.
            reqs[1] = requests(3)[1].clone().with_arrival_ms(nan);
            rejects(engine, &reqs, ["request 1", "finite"]);
            reqs[1] = requests(3)[1].clone().with_deadline_ms(nan);
            rejects(engine, &reqs, ["request 1", "deadline"]);
        }
        // So do the engine-level times: a tenant SLO and the recovery knobs.
        let reqs = requests(3);
        let slo = fresh().with_tenant_slo("tenant-0", nan);
        rejects(&slo, &reqs, ["tenant-0", "SLO"]);
        let off = RecoveryControl::disabled;
        let set = |backoff_ms, probe_after_ms| RecoveryControl {
            backoff_ms,
            probe_after_ms,
            ..off()
        };
        for (recovery, word) in [
            (off().with_backoff_ms(nan), "backoff_ms"),
            (off().with_backoff_ms(inf), "backoff_ms"),
            (set(-1.0, 0.0), "backoff_ms"),
            (off().with_quarantine(1, nan), "probe_after_ms"),
            (off().with_quarantine(1, inf), "probe_after_ms"),
            (set(0.0, -1.0), "probe_after_ms"),
        ] {
            let engine = fresh().with_recovery_control(recovery);
            rejects(&engine, &reqs, ["RecoveryControl", word]);
        }
    }

    #[test]
    fn engine_is_shareable_across_pool_workers() {
        // The fleet fan-out hands `&self` to pool workers: the engine (and
        // everything a policy factory produces) must stay `Send + Sync`.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ServeEngine>();
        assert_send_sync::<Box<dyn SchedulePolicy>>();
    }

    #[test]
    fn tenant_slo_sets_effective_deadlines() {
        let engine = ServeEngine::new(
            vec![DeviceSpec::oneplus_12()],
            FlashMemConfig::memory_priority(),
        )
        .with_tenant_slo("tenant-0", 1e9);
        let report = engine.run(&requests(2)).unwrap();
        // tenant-0's request inherits the tenant default; tenant-1's has none.
        let t0 = report.outcomes.iter().find(|o| o.tenant == "tenant-0");
        let t1 = report.outcomes.iter().find(|o| o.tenant == "tenant-1");
        assert_eq!(t0.unwrap().deadline_ms, Some(1e9));
        assert_eq!(t1.unwrap().deadline_ms, None);
        assert_eq!(report.slo.tracked, 1);
        assert_eq!(report.slo.met, 1);
        // A request-level deadline overrides the tenant default.
        let reqs = vec![ServeRequest::new(ModelZoo::vit(), "tenant-0").with_deadline_ms(0.5)];
        let engine = ServeEngine::new(
            vec![DeviceSpec::oneplus_12()],
            FlashMemConfig::memory_priority(),
        )
        .with_tenant_slo("tenant-0", 1e9);
        let report = engine.run(&reqs).unwrap();
        assert_eq!(report.outcomes[0].deadline_ms, Some(0.5));
        assert_eq!(report.slo.missed(), 1);
    }

    #[test]
    fn preemptive_policy_suspends_low_priority_work() {
        // A long low-priority inference arrives first; a high-priority one
        // arrives while it runs. Under the preemptive policy the later
        // arrival must preempt (preemption count > 0) and every request must
        // still complete.
        let reqs = vec![
            ServeRequest::new(ModelZoo::gptneo_small(), "background").with_priority(0),
            ServeRequest::new(ModelZoo::vit(), "camera")
                .with_priority(5)
                .with_arrival_ms(50.0),
        ];
        let report = ServeEngine::new(
            vec![DeviceSpec::oneplus_12()],
            FlashMemConfig::memory_priority(),
        )
        .with_policy(Box::new(PreemptivePriorityPolicy::new()))
        .run(&reqs)
        .unwrap();
        assert_eq!(report.completed(), 2, "{report}");
        assert!(report.preemptions > 0, "{report}");
        let background = &report.outcomes[0];
        assert!(background.preemptions > 0);
        assert!(background.suspended_ms > 0.0);
        // The preempted request pays for re-residency.
        assert!(background.resume_penalty_ms > 0.0);
    }
}
