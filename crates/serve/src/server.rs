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
//! Everything one device holds through a round — its queues, clocks, memory
//! tracker, epoch, makespan and tenant reservations — lives in one
//! `DeviceState`. An admitted request's [`RequestOutcome`] row is its
//! running state: admission fills it in, preemptions and resumes add to it,
//! and leaving the device closes it.
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
//!
//! Both modes retire an in-flight request through one path,
//! `DeviceState::release`, whether it completed, failed mid-run with a
//! modelled error, or took an injected transient fault. Only an exclusive
//! run that completed is finalized like the monolithic executor, with a
//! full [`ExecutionReport`]; every other exit releases what the stream
//! still holds. In exclusive mode the path then stitches the run's segment
//! onto the device timeline and evicts the model, so a failed run moves the
//! epoch exactly like a finished one. A device loss strands everything at
//! once and stitches whatever segment is open.
//!
//! ## Memory
//!
//! A device keeps its memory series — every sample, in the tracker, the
//! stitched trace and each exclusive request's report — only under
//! [`ServeEngine::with_memory_series`]. Without it the device's memory
//! state is O(1) and every peak stays exact: the device report's is the
//! tracker's running peak (in exclusive mode, the largest stitched
//! segment's), and a concurrent request's is a running maximum that the
//! device folds into every request on it before a request enters and
//! before a completed request's peak is read.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use flashmem_core::cache::{ArtifactCache, Fnv1a};
use flashmem_core::engine::CompiledArtifact;
use flashmem_core::executor::RUNTIME_OVERHEAD_BYTES;
use flashmem_core::pool::{self, ThreadPool};
use flashmem_core::telemetry::{TraceConfig, TraceKind, TraceLane, TraceRecorder};
use flashmem_core::{ExecutionReport, FlashMem, FlashMemConfig};
use flashmem_gpu_sim::engine::{
    CommandStream, GpuSimulator, PreemptionCost, QueueClocks, QueueKind, SimConfig, StreamStepper,
    Suspension,
};
use flashmem_gpu_sim::error::SimResult;
use flashmem_gpu_sim::memory::MemoryTracker;
use flashmem_gpu_sim::trace::MemoryTrace;
use flashmem_gpu_sim::{DeviceSpec, FaultKind, FaultPlan, SimError};
use flashmem_graph::ModelSpec;

use crate::fleet::{
    Carry, DeviceJob, DeviceLoop, DeviceRun, Fleet, NextAttempt, Orphan, Redispatch,
};
use crate::metrics::{DeviceReport, RequestOutcome, ServeReport};
use crate::policy::{
    FifoPolicy, InFlightEntry, OverloadControl, PendingEntry, PolicyContext, RecoveryControl,
    SchedulePolicy,
};
use crate::request::{clamp_non_negative, RejectCause, ServeRequest};

/// Lowering lives next to [`CompiledArtifact`] in `flashmem-core`; the
/// serve loop lowers each plan once per device run and shares the stream.
pub use flashmem_core::lower_artifact;

const MIB: f64 = 1024.0 * 1024.0;

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
/// device budget — admission will surface that as its own failure). Only
/// the makespan is read, so the throwaway tracker keeps no memory series.
pub fn predicted_service_ms(
    artifact: &CompiledArtifact,
    model: &ModelSpec,
    device: &DeviceSpec,
    config: &FlashMemConfig,
) -> f64 {
    let stream = lower_artifact(artifact, model, device, config);
    let sim = GpuSimulator::new(device.clone(), SimConfig::default());
    let mut tracker = MemoryTracker::for_device(device).with_series(false);
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

/// Everything the loop knows about an admitted request except its execution
/// state — shared between the in-flight and suspended representations. Its
/// outcome row is its running state: admission fills the row in,
/// preemptions and resumes add to it, and retiring the request closes it.
/// `Clone` exists for device loss, which snapshots the meta of work
/// stranded on the lost device so the recovery planner can either resume it
/// elsewhere or finalize its typed-failure outcome.
#[derive(Clone)]
pub(crate) struct FlightMeta {
    /// The request's outcome row, kept current while it is on a device.
    row: RequestOutcome,
    streamed_fraction: f64,
    /// Predicted uncontended service time of the whole stream (0.0 when the
    /// policy does not use estimates).
    predicted_ms: f64,
    /// Command count of the lowered stream, for scaling `predicted_ms` to
    /// a partially executed remainder.
    total_commands: usize,
    /// The largest device footprint recorded since the request entered the
    /// device, as of the last fold ([`DeviceState::fold_recent_peak`]).
    peak_bytes: u64,
    order: usize,
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
        self.row.deadline_ms.map(|d| self.row.arrival_ms + d)
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

    /// The outcome row, closed at `completion_ms` over this request's own
    /// command intervals.
    fn close(mut self, completion_ms: f64) -> RequestOutcome {
        self.row.close(
            completion_ms,
            &self.transfer_intervals,
            &self.compute_intervals,
        );
        self.row
    }
}

/// A plan as one device steps it: lowered on its first admission and
/// priced once on the device's simulator, then shared by every request
/// admitted with it.
#[derive(Clone)]
struct LoweredPlan {
    stream: Arc<CommandStream>,
    /// Each command's duration on this device ([`GpuSimulator::price`]).
    prices: Arc<[f64]>,
    /// [`estimate_resident_bytes`] of the plan, which walks the model
    /// graph: admission control reads it at every admission.
    resident_estimate_bytes: u64,
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

    /// Keep the memory series (builder style): every device report's
    /// [`memory_trace`](DeviceReport::memory_trace) is then `Some`, and in
    /// exclusive mode each request's report carries its run's series too
    /// (Figure 6 plots them). Off by default: a device then keeps only
    /// running statistics, so its memory does not grow with the requests it
    /// serves. Peaks are exact either way, and nothing else in the report
    /// moves.
    pub fn with_memory_series(mut self) -> Self {
        self.fleet.memory_series = true;
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
    /// tenant SLO, a non-finite or negative [`RecoveryControl`] time, a
    /// [`FaultPlan`] naming a device outside the fleet or holding a
    /// non-finite value, a zero [`OverloadControl::queue_bound`], an error
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
        if self.overload.queue_bound == Some(0) {
            return Err(SimError::InvalidParameter {
                message: "OverloadControl::queue_bound is Some(0), which sheds every request; \
                          a bounded queue must hold at least one (None leaves it unbounded)"
                    .to_string(),
            });
        }
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
                    match self.fleet.cache.compile_shared(&engines[d], model, device) {
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
    fn run_device(&self, job: DeviceJob<'_, Self>) -> SimResult<DeviceRun<Stranded>> {
        let fault_plan = &self.fleet.fault_plan;
        let faults_armed = !fault_plan.is_empty();
        let lost_at_ms = fault_plan.device_loss_ms(job.index);
        let mut device = DeviceState::new(self, job);
        loop {
            if self.policy.preemption().is_some() {
                device.preempt_outranked()?;
            }
            device.admit()?;
            if device.in_flight.is_empty() {
                if device.pending.is_empty() && device.suspended.is_empty() {
                    break;
                }
                // Nothing admissible right now (all candidates deferred on
                // tenant caps with no in-flight work — prevented by the
                // hopeless-cap fail path and the unrecoverable-resume path,
                // but keep the loop safe).
                continue;
            }

            let (chosen, start) = device.earliest_flight();
            if faults_armed && start.is_finite() {
                if let Some(loss_ms) = lost_at_ms.filter(|&t| device.epoch + start + 1e-9 >= t) {
                    // The device dies before this command starts.
                    device.lose(loss_ms)?;
                    break;
                }
                if let Some(kind) = device.command_fault(chosen) {
                    // A transient injected fault fails this attempt exactly
                    // like a modelled mid-run error, but the recovery
                    // planner decides what follows.
                    let now_local = start.max(device.in_flight[chosen].stepper.makespan_ms());
                    device.release(chosen, now_local, Exit::Faulted(kind))?;
                    continue;
                }
            }
            device.step(chosen)?;
        }
        Ok(device.finish())
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
                meta.row.retries = plan.carry.retries;
                meta.row.failed_over = plan.carry.failed_over;
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

/// How an in-flight request leaves its device through
/// [`DeviceState::release`].
enum Exit {
    /// Every command ran.
    Done,
    /// A modelled error (out of memory) failed it mid-run.
    Failed(SimError),
    /// An injected transient fault knocked it out; the recovery planner
    /// decides what follows.
    Faulted(FaultKind),
}

/// One device's state through one round of the serve loop: its queues, the
/// clocks and memory tracker its requests share, the tenant reservations
/// they hold and everything the round reports.
struct DeviceState<'a> {
    serve: &'a ServeEngine,
    index: usize,
    device: &'a DeviceSpec,
    engine: FlashMem,
    sim: GpuSimulator,
    warm: &'a HashSet<u64>,
    /// Recovery state of re-dispatched requests, by `seq`.
    carry: HashMap<usize, Carry>,
    /// `seq → home device` of requests the steal planner re-placed here.
    stolen: HashMap<usize, usize>,
    slots: usize,
    /// One request at a time and no preemption: see the module docs.
    exclusive: bool,
    /// Requests this round placed here, for the device report.
    assigned: usize,
    /// Device-clock origin of the current timeline segment; the queue
    /// clocks and the streams run in time local to it.
    epoch: f64,
    clocks: QueueClocks,
    tracker: MemoryTracker,
    /// Exclusive mode's memory trace, kept only with the memory series:
    /// each request's run-local segment stitched onto the device timeline
    /// at its epoch.
    stitched: Option<MemoryTrace>,
    /// Exclusive mode's device peak: the largest peak of the segments
    /// stitched so far.
    stitched_peak: u64,
    makespan: f64,
    transfer_busy: f64,
    compute_busy: f64,
    /// Estimated resident bytes each tenant holds here, in flight or
    /// suspended.
    tenant_bytes: HashMap<String, u64>,
    /// Sorted once by (arrival, seq) and afterwards only removed from:
    /// the arrived requests are always a prefix.
    pending: Vec<(usize, &'a ServeRequest)>,
    in_flight: Vec<InFlight>,
    suspended: Vec<Suspended>,
    /// Bounded-queue bookkeeping: which pending requests the loop has
    /// observed arriving (and not shed), the live queue depth (arrived but
    /// not yet admitted), and its high-water mark.
    enqueued: HashSet<usize>,
    queued: usize,
    queue_high_water: usize,
    /// Admissions so far: the stepping tie-break.
    admit_order: usize,
    /// Absolute deadlines and predicted service times of pending requests.
    deadlines: HashMap<usize, Option<f64>>,
    estimates: HashMap<usize, f64>,
    /// Resident-byte estimates computed by the preemption phase's
    /// feasibility checks, memoized per request seq.
    estimate_memo: HashMap<usize, u64>,
    /// Lowered and priced plans by plan-cache key: each plan is lowered
    /// on its first admission and shared by every later request that uses
    /// it.
    lowered: HashMap<u64, LoweredPlan>,
    outcomes: Vec<RequestOutcome>,
    orphans: Vec<Orphan<Stranded>>,
    trace: TraceRecorder,
    /// Transient injected faults this round.
    faults: u32,
    /// The fault plan's device loss fired.
    lost: bool,
}

impl<'a> DeviceState<'a> {
    /// The device at the start of a round: pending work in arrival order
    /// with its static scheduling inputs, failed-over suspensions seeded,
    /// and the prologue's rejects and steals recorded.
    fn new(serve: &'a ServeEngine, job: DeviceJob<'a, ServeEngine>) -> Self {
        let DeviceJob {
            index,
            device,
            engine,
            sim,
            requests,
            assigned: mut pending,
            warm,
            carry,
            seeds,
            prologue:
                Admission {
                    rejected,
                    mut stolen,
                },
        } = job;
        stolen.extend(
            carry
                .iter()
                .filter_map(|(seq, carry)| carry.stolen_from.map(|home| (*seq, home))),
        );
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
        let uses_estimates = serve.policy.uses_estimates();
        let mut service_memo: HashMap<String, f64> = HashMap::new();
        let mut deadlines = HashMap::new();
        let mut estimates = HashMap::new();
        for &(seq, request) in &pending {
            // Re-dispatched requests arrive at the recovery planner's ready
            // floor, but their deadline clock started at true submission.
            let arrival = carry
                .get(&seq)
                .map_or(request.arrival_ms, |c| c.original_arrival_ms);
            deadlines.insert(seq, serve.effective_deadline(request).map(|d| arrival + d));
            let estimate = if uses_estimates {
                *service_memo
                    .entry(request.model.abbr.clone())
                    .or_insert_with(|| {
                        match serve
                            .fleet
                            .cache
                            .compile_shared(&engine, &request.model, device)
                        {
                            Ok((artifact, _)) => predicted_service_ms(
                                &artifact,
                                &request.model,
                                device,
                                &serve.fleet.config,
                            ),
                            // Compilation failures surface at admission.
                            Err(_) => 0.0,
                        }
                    })
            } else {
                0.0
            };
            estimates.insert(seq, estimate);
        }

        let slots = serve.policy.max_in_flight().max(1);
        let exclusive = slots == 1 && serve.policy.preemption().is_none();
        let mut state = DeviceState {
            serve,
            index,
            device,
            engine,
            sim,
            warm,
            assigned: pending.len() + rejected.len() + seeds.len(),
            carry,
            stolen,
            slots,
            exclusive,
            epoch: 0.0,
            clocks: QueueClocks::new(),
            tracker: serve.fleet.tracker(device),
            stitched: (exclusive && serve.fleet.memory_series).then(MemoryTrace::new),
            stitched_peak: 0,
            makespan: 0.0,
            transfer_busy: 0.0,
            compute_busy: 0.0,
            tenant_bytes: HashMap::new(),
            pending,
            in_flight: Vec::new(),
            suspended: Vec::new(),
            enqueued: HashSet::new(),
            queued: 0,
            queue_high_water: 0,
            admit_order: 0,
            deadlines,
            estimates,
            estimate_memo: HashMap::new(),
            lowered: HashMap::new(),
            outcomes: Vec::new(),
            orphans: Vec::new(),
            trace: TraceRecorder::new(serve.fleet.trace),
            faults: 0,
            lost: false,
        };

        // Failed-over suspensions seed the suspended list: the ordinary
        // resume path re-acquires their residency (charging the reload
        // penalty) once their backoff floor passes. Their tenant reservation
        // is held while suspended, exactly like a preemption's, their row
        // now reports this device, and their peak starts over here.
        for seed in seeds {
            let SeededSuspension {
                mut meta,
                suspension,
                suspended_at_ms,
                ready_ms,
            } = seed;
            *state
                .tenant_bytes
                .entry(meta.row.tenant.clone())
                .or_insert(0) += meta.row.resident_estimate_bytes;
            meta.row.device = device.name.clone();
            meta.row.device_index = index;
            state.fold_recent_peak();
            meta.peak_bytes = 0;
            meta.order = state.admit_order;
            state.admit_order += 1;
            state.suspended.push(Suspended {
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
        for (seq, laxity) in rejected {
            state.reject(
                seq,
                &requests[seq],
                RejectCause::DeadlineUnmeetable,
                Some(laxity),
            );
        }
        if state.trace.enabled() {
            for &(seq, request) in &state.pending {
                if let Some(home) = state.stolen.get(&seq) {
                    state.trace.instant(
                        TraceKind::Steal,
                        TraceLane::Request(seq),
                        &format!("steal {} from device #{home}", request.model.abbr),
                        request.arrival_ms,
                    );
                }
            }
        }
        state
    }

    /// The tracker's time base: exclusive runs record memory in run-local
    /// time, concurrent ones on the device timeline.
    fn base(&self) -> f64 {
        if self.exclusive {
            0.0
        } else {
            self.epoch
        }
    }

    /// Device-clock instant the earliest in-flight command can start
    /// (infinite when nothing is in flight).
    fn next_start(&self) -> f64 {
        self.epoch
            + self
                .in_flight
                .iter()
                .filter_map(|f| f.stepper.peek_start_ms(&self.clocks))
                .fold(f64::INFINITY, f64::min)
    }

    /// The unstarted row of `request` here, with its effective deadline and
    /// the home it was stolen from; `carry` is an attempt's recovery state.
    fn row(&self, seq: usize, request: &ServeRequest, carry: Option<&Carry>) -> RequestOutcome {
        let mut row = RequestOutcome::unstarted(seq, request, self.device, self.index, carry);
        row.deadline_ms = self.serve.effective_deadline(request);
        row.stolen_from = self.stolen.get(&seq).copied();
        row
    }

    /// The row of `request` failing with `error` at `now`, before it ever
    /// ran.
    fn waiting_row(
        &self,
        seq: usize,
        request: &ServeRequest,
        now: f64,
        error: SimError,
    ) -> RequestOutcome {
        let mut row = self.row(seq, request, self.carry.get(&seq));
        row.start_ms = now;
        row.close(now, &[], &[]);
        row.fail(error);
        row
    }

    /// Shed `request` with `cause` at its own arrival instant. The row
    /// carries no error: rejection is the scheduler declining work, and the
    /// metrics layer excludes it from SLO accounting.
    fn reject(
        &mut self,
        seq: usize,
        request: &ServeRequest,
        cause: RejectCause,
        laxity: Option<f64>,
    ) {
        let mut row = self.row(seq, request, None);
        row.admission_laxity_ms = laxity;
        row.rejected = Some(cause);
        self.outcomes.push(row);
        if self.trace.enabled() {
            self.trace.instant(
                TraceKind::Reject,
                TraceLane::Request(seq),
                &format!("reject {} ({})", request.model.abbr, cause.label()),
                request.arrival_ms,
            );
        }
    }

    /// Take pending request `position` off the queue.
    fn take_pending(&mut self, position: usize) -> (usize, &'a ServeRequest) {
        let (seq, request) = self.pending.remove(position);
        if self.enqueued.remove(&seq) {
            self.queued -= 1;
        }
        (seq, request)
    }

    /// Fail pending request `position` at `now`, before it ever ran (a
    /// compile error or a tenant cap too small for the model).
    fn fail_waiting(&mut self, position: usize, now: f64, error: SimError) {
        let (seq, request) = self.take_pending(position);
        let row = self.waiting_row(seq, request, now, error);
        close_lane(&mut self.trace, &row, None, now, TraceKind::Fail, "fail");
        self.outcomes.push(row);
    }

    /// Observe every arrival up to `now` (pending is sorted by arrival, so
    /// this walks a prefix), shedding past the queue bound and tracking the
    /// queue-depth high-water mark. Runs at each scheduling boundary of the
    /// device loop; depth can only shrink at those same boundaries
    /// (admissions), so processing the arrivals of a busy interval in
    /// arrival order here reproduces the depth evolution exactly. A shed
    /// request is rejected *at its own arrival instant* with
    /// [`RejectCause::QueueFull`].
    fn observe_arrivals(&mut self, now: f64) {
        let bound = self.serve.overload.queue_bound;
        let mut i = 0;
        while i < self.pending.len() {
            let (seq, request) = self.pending[i];
            if request.arrival_ms > now {
                break;
            }
            if self.enqueued.contains(&seq) {
                i += 1;
                continue;
            }
            if bound.is_some_and(|bound| self.queued >= bound) {
                self.pending.remove(i);
                self.reject(seq, request, RejectCause::QueueFull, None);
                continue;
            }
            self.enqueued.insert(seq);
            self.queued += 1;
            self.queue_high_water = self.queue_high_water.max(self.queued);
            i += 1;
        }
    }

    /// The scheduler-visible view of everything that could be admitted at
    /// `now`: pending requests that have arrived, plus every suspended
    /// request whose backoff floor has passed (a suspended request arrived
    /// before it was first admitted, by construction). Both the admission
    /// phase and the preemption phase rank exactly this list, so a
    /// preemption can only fire for a candidate admission would pick.
    ///
    /// `observed_only` (set by the preemption phase) restricts pending
    /// candidates to requests that already passed the bounded-queue shed
    /// check when a queue bound is configured: an arrival the loop has not
    /// yet observed might be about to be shed, and must not trigger a
    /// preemption first.
    fn candidates(&self, now: f64, observed_only: bool) -> Vec<PendingEntry> {
        let gate =
            (observed_only && self.serve.overload.queue_bound.is_some()).then_some(&self.enqueued);
        let mut candidates: Vec<PendingEntry> = self
            .pending
            .iter()
            .take_while(|(_, r)| r.arrival_ms <= now)
            .filter(|(seq, _)| gate.is_none_or(|g| g.contains(seq)))
            .map(|&(seq, r)| PendingEntry {
                seq,
                priority: r.priority,
                arrival_ms: r.arrival_ms,
                deadline_ms: self.deadlines.get(&seq).copied().flatten(),
                estimated_remaining_ms: self.estimates.get(&seq).copied().unwrap_or(0.0),
            })
            .collect();
        candidates.extend(
            self.suspended
                .iter()
                .filter(|s| s.ready_ms <= now)
                .map(|s| PendingEntry {
                    seq: s.meta.row.seq,
                    priority: s.meta.row.priority,
                    arrival_ms: s.meta.row.arrival_ms,
                    deadline_ms: s.meta.absolute_deadline_ms(),
                    estimated_remaining_ms: s.meta.estimated_remaining_ms(s.suspension.remaining()),
                }),
        );
        candidates
    }

    /// Preemption phase of the device loop: while every slot is busy and an
    /// arrived (or previously suspended) request
    /// [`outranks`](SchedulePolicy::outranks) the policy's chosen
    /// [`victim`](SchedulePolicy::victim) among the in-flight inferences,
    /// suspend that victim at its next command boundary and evict its
    /// residency. Under the priority policies a candidate outranks by
    /// strictly higher priority; under the deadline-triggered policy it
    /// outranks when its laxity would go negative waiting for the victim
    /// while the victim stays slack. Candidates that could not actually use
    /// the freed slot never trigger a preemption (see
    /// [`could_use_slot`](Self::could_use_slot)), so the loop cannot thrash.
    fn preempt_outranked(&mut self) -> SimResult<()> {
        let serve = self.serve;
        let policy = &serve.policy;
        if serve.overload.queue_bound.is_some() && !self.in_flight.is_empty() {
            // Observe (and shed past the bound) every arrival the preemption
            // phase is about to see, so a request that is about to be shed
            // can never trigger a preemption first.
            let now = self.next_start();
            if now.is_finite() {
                self.observe_arrivals(now);
            }
        }
        while self.in_flight.len() >= self.slots && !self.in_flight.is_empty() {
            let now = self.next_start();
            if !now.is_finite() {
                return Ok(());
            }
            let ctx = PolicyContext::at(now);
            let flights: Vec<InFlightEntry> = self
                .in_flight
                .iter()
                .map(|f| InFlightEntry {
                    seq: f.meta.row.seq,
                    priority: f.meta.row.priority,
                    order: f.meta.order,
                    deadline_ms: f.meta.absolute_deadline_ms(),
                    estimated_remaining_ms: f.meta.estimated_remaining_ms(f.stepper.remaining()),
                })
                .collect();
            let victim_idx = policy.victim(&flights, &ctx).min(flights.len() - 1);
            let victim = flights[victim_idx];
            let evictable = self.in_flight[victim_idx].stepper.resident_split();

            let mut candidates = self.candidates(now, true);
            let mut trigger = false;
            while !candidates.is_empty() && !trigger {
                let choice = policy.pick(&candidates, &ctx).min(candidates.len() - 1);
                let cand = candidates[choice];
                // Keep scanning in the policy's preference order: pick
                // order need not be monotone with outranking (under the
                // deadline-triggered policy the least-laxity candidate can
                // be too *long* to rescue while a shorter, slightly slacker
                // one qualifies).
                trigger = policy.outranks(&cand, &victim, &ctx)
                    && self.could_use_slot(cand.seq, evictable);
                if !trigger {
                    candidates.remove(choice);
                }
            }
            if !trigger {
                return Ok(());
            }

            // Suspend the victim at its current command boundary: commands it
            // already issued drain, no new ones are issued, and its resident
            // memory is evicted for the higher-priority work.
            let InFlight { mut meta, stepper } = self.in_flight.remove(victim_idx);
            let local_now = (now - self.epoch).max(stepper.makespan_ms());
            meta.row.preemptions += 1;
            if self.trace.enabled() {
                self.trace.span(
                    TraceKind::Running,
                    TraceLane::Request(meta.row.seq),
                    &format!("run {}", meta.row.model),
                    meta.run_start_ms,
                    self.epoch + local_now,
                );
            }
            let suspension =
                stepper.suspend_evicting(&self.clocks, &mut self.tracker, local_now, self.epoch)?;
            trace_preempt(&mut self.trace, &meta, self.epoch + local_now, &suspension);
            self.suspended.push(Suspended {
                meta,
                suspended_at_ms: self.epoch + local_now,
                suspension,
                ready_ms: f64::NEG_INFINITY,
            });
        }
        Ok(())
    }

    /// Whether candidate `seq` could use the slot that evicting a victim
    /// holding `(unified, texture)` bytes would free: a suspended request
    /// whose residency would then fit, or a pending request its tenant cap
    /// would let in.
    fn could_use_slot(&mut self, seq: usize, (victim_unified, victim_texture): (u64, u64)) -> bool {
        if let Some(s) = self.suspended.iter().find(|s| s.meta.row.seq == seq) {
            let (need_unified, need_texture) = s.suspension.evicted_split();
            let tracker = &self.tracker;
            let headroom = tracker.budget().saturating_sub(tracker.total_in_use());
            return need_unified <= tracker.unified().available() + victim_unified
                && need_texture <= tracker.texture().available() + victim_texture
                && need_unified + need_texture <= headroom + victim_unified + victim_texture;
        }
        let request = self
            .pending
            .iter()
            .find(|(s, _)| *s == seq)
            .map(|(_, r)| *r)
            .expect("candidate is pending");
        let Some(cap) = self.serve.effective_tenant_cap(&request.tenant) else {
            return true;
        };
        // Memoized per request: this phase runs at every command boundary,
        // and repeated cache probes would inflate the plan-cache hit
        // counters.
        let estimate = match self.estimate_memo.get(&seq) {
            Some(&estimate) => estimate,
            None => match self.serve.fleet.cache.compile_shared(
                &self.engine,
                &request.model,
                self.device,
            ) {
                Ok((artifact, _)) => {
                    let estimate = estimate_resident_bytes(&artifact, &request.model);
                    self.estimate_memo.insert(seq, estimate);
                    estimate
                }
                // Compilation failures surface at admission.
                Err(_) => return false,
            },
        };
        let used = self.tenant_bytes.get(&request.tenant).copied().unwrap_or(0);
        used.saturating_add(estimate) <= cap
    }

    /// Admission phase: while a slot is free, take the policy's pick among
    /// the arrived candidates — resume it if suspended, start it if
    /// pending — and re-rank after each one settles. A candidate that
    /// cannot run yet is deferred; the phase ends when every candidate is.
    fn admit(&mut self) -> SimResult<()> {
        let serve = self.serve;
        let policy = &serve.policy;
        while self.in_flight.len() < self.slots
            && !(self.pending.is_empty() && self.suspended.is_empty())
        {
            let now = self.admission_now();
            self.observe_arrivals(now);
            let mut candidates = self.candidates(now, false);
            let ctx = PolicyContext::at(now);
            let mut settled = false;
            while !candidates.is_empty() && !settled {
                let choice = policy.pick(&candidates, &ctx).min(candidates.len() - 1);
                let seq = candidates[choice].seq;
                settled = match self.suspended.iter().position(|s| s.meta.row.seq == seq) {
                    Some(pos) => self.resume(pos, now)?,
                    None => self.start(seq, now)?,
                };
                if !settled {
                    candidates.remove(choice);
                }
            }
            if !settled {
                break;
            }
        }
        Ok(())
    }

    /// The instant the admission phase ranks candidates at. An idle device
    /// first re-bases its timeline onto a fresh epoch at the later of "now"
    /// and the earliest pending arrival (never while work is suspended —
    /// suspension snapshots reference the current epoch's local times).
    fn admission_now(&mut self) -> f64 {
        if !self.in_flight.is_empty() {
            return self.next_start();
        }
        let earliest_arrival = self.pending.first().map(|(_, r)| r.arrival_ms);
        let now = if self.suspended.is_empty() {
            self.epoch = (self.epoch + self.clocks.horizon_ms())
                .max(earliest_arrival.unwrap_or(f64::INFINITY));
            self.clocks.reset();
            self.epoch
        } else {
            // Resume as soon as the queues drain.
            self.epoch + self.clocks.horizon_ms()
        };
        // Re-dispatched work carries a backoff floor its original arrival
        // does not reflect; with nothing running, jump to the earliest floor
        // so the loop cannot spin on a queue whose every candidate is still
        // backing off. A first attempt's floor is its arrival, which the
        // idle re-base above has already passed, and ordinary suspensions
        // have a `NEG_INFINITY` floor, so only re-dispatched work ever moves
        // `now` here.
        let earliest = earliest_arrival
            .into_iter()
            .chain(self.suspended.iter().map(|s| s.ready_ms))
            .fold(f64::INFINITY, f64::min);
        if earliest.is_finite() {
            now.max(earliest)
        } else {
            now
        }
    }

    /// Resume suspended request `pos` at `now`, re-acquiring its residency
    /// and paying the policy's [`PreemptionCost`]. `Ok(false)` defers it
    /// until in-flight work frees memory; with nothing running that would
    /// never happen, so the residency is unrecoverable and it fails.
    fn resume(&mut self, pos: usize, now: f64) -> SimResult<bool> {
        let fits = self.suspended[pos].suspension.can_resume(&self.tracker);
        if !fits && !self.in_flight.is_empty() {
            return Ok(false);
        }
        let Suspended {
            mut meta,
            suspended_at_ms,
            suspension,
            ..
        } = self.suspended.remove(pos);
        let suspended = Some((TraceKind::Suspended, suspended_at_ms));
        meta.row.suspended_ms += (now - suspended_at_ms).max(0.0);
        if !fits {
            let error = SimError::OutOfMemory {
                pool: "resume residency".to_string(),
                requested: suspension.evicted_bytes(),
                available: self
                    .tracker
                    .budget()
                    .saturating_sub(self.tracker.total_in_use()),
                capacity: self.tracker.budget(),
            };
            let mut row = self.retire(meta, now);
            row.fail(error);
            close_lane(
                &mut self.trace,
                &row,
                suspended,
                now,
                TraceKind::Fail,
                "fail",
            );
            self.outcomes.push(row);
            return Ok(true);
        }
        let cost = self
            .serve
            .policy
            .preemption()
            .unwrap_or_else(PreemptionCost::free);
        let resume_local = (now - self.epoch).max(0.0);
        let lane = TraceLane::Request(meta.row.seq);
        if self.trace.enabled() {
            let label = format!("suspended {}", meta.row.model);
            self.trace
                .span(TraceKind::Suspended, lane, &label, suspended_at_ms, now);
        }
        let evicted = suspension.evicted_bytes();
        // An exclusive segment starts empty, as in `start`: the previous
        // request's eviction sample was taken at device time.
        if self.exclusive {
            self.tracker.reset_trace();
        }
        let base = self.base();
        let (stepper, penalty) =
            suspension.resume_into(&self.sim, &mut self.tracker, resume_local, base, &cost)?;
        let start = self.epoch + resume_local;
        if self.trace.enabled() {
            let label = format!("resume {}", meta.row.model);
            self.trace.span_bytes(
                TraceKind::Resume,
                lane,
                &label,
                start,
                start + penalty,
                evicted,
            );
        }
        meta.row.resume_penalty_ms += penalty;
        meta.run_start_ms = start + penalty;
        self.in_flight.push(InFlight { meta, stepper });
        Ok(true)
    }

    /// Start pending request `seq` at `now`: compile its plan (through the
    /// shared cache), lower it once per device run, reserve its tenant bytes
    /// and put its stepper in flight. A compile error or a tenant cap too
    /// small for the model fails it; `Ok(false)` defers it until the
    /// tenant's in-flight work drains.
    fn start(&mut self, seq: usize, now: f64) -> SimResult<bool> {
        let serve = self.serve;
        let device = self.device;
        let position = self
            .pending
            .iter()
            .position(|(s, _)| *s == seq)
            .expect("candidate is pending");
        let request = self.pending[position].1;
        let abbr = &request.model.abbr;

        // Report warmth-at-run-start (the prologue snapshot), not
        // `compile`'s racy mid-run flag: at pool width > 1 that flag records
        // which device won the compile race.
        let key = ArtifactCache::key_for(&self.engine, &request.model, device);
        let cache_hit = self.warm.contains(&key);
        let artifact = match serve
            .fleet
            .cache
            .compile_shared(&self.engine, &request.model, device)
        {
            Ok((artifact, _)) => artifact,
            Err(error) => {
                self.fail_waiting(position, now, error);
                return Ok(true);
            }
        };
        if self.trace.enabled() {
            let (kind, probe) = if cache_hit {
                (TraceKind::CacheHit, "hit")
            } else {
                (TraceKind::CacheMiss, "miss")
            };
            let lane = TraceLane::Host;
            self.trace
                .instant(kind, lane, &format!("cache {probe} {abbr}"), now);
            if !cache_hit {
                // Planning costs host wall time, not device time: an
                // instant on the simulated clock.
                let label = format!("compile {abbr}");
                self.trace.instant(TraceKind::Compile, lane, &label, now);
            }
        }
        let plan = match self.lowered(key, &artifact, &request.model) {
            Ok(plan) => plan,
            // A lowered stream always prices; if one did not, its request
            // would fail like a compile error.
            Err(error) => {
                self.fail_waiting(position, now, error);
                return Ok(true);
            }
        };
        let estimate = plan.resident_estimate_bytes;
        if let Some(cap) = serve.effective_tenant_cap(&request.tenant) {
            let used = self.tenant_bytes.get(&request.tenant).copied().unwrap_or(0);
            if used.saturating_add(estimate) > cap {
                if used > 0 {
                    // Defer until the tenant's in-flight work drains.
                    return Ok(false);
                }
                // The cap cannot fit this model at all.
                let error = SimError::OutOfMemory {
                    pool: format!("tenant `{}` cap", request.tenant),
                    requested: estimate,
                    available: cap,
                    capacity: cap,
                };
                self.fail_waiting(position, now, error);
                return Ok(true);
            }
        }

        self.take_pending(position);
        let total_commands = plan.stream.len();
        let floor = (request.arrival_ms - self.epoch).max(0.0);
        let stepper = StreamStepper::new(plan.stream)?
            .with_prices(plan.prices)?
            .with_floor_ms(floor);
        if self.exclusive {
            self.tracker.reset_trace();
        }
        *self.tenant_bytes.entry(request.tenant.clone()).or_insert(0) += estimate;
        let predicted_ms = self.estimates.get(&seq).copied().unwrap_or(0.0);
        let start_ms = now.max(request.arrival_ms);
        let admission_laxity_ms = self
            .deadlines
            .get(&seq)
            .copied()
            .flatten()
            .map(|deadline| deadline - start_ms - predicted_ms);
        if self.trace.enabled() {
            let lane = TraceLane::Request(seq);
            let queue = format!("queue {abbr}");
            self.trace.span(
                TraceKind::QueueWait,
                lane,
                &queue,
                request.arrival_ms,
                start_ms,
            );
            let label = match admission_laxity_ms {
                Some(laxity) => format!("admit {abbr} laxity {laxity:.3} ms"),
                None => format!("admit {abbr}"),
            };
            self.trace.instant(TraceKind::Admit, lane, &label, start_ms);
        }
        let mut row = self.row(seq, request, self.carry.get(&seq));
        row.start_ms = start_ms;
        row.cache_hit = cache_hit;
        row.resident_estimate_bytes = estimate;
        row.admission_laxity_ms = admission_laxity_ms;
        self.fold_recent_peak();
        let meta = FlightMeta {
            row,
            streamed_fraction: artifact.streamed_fraction(),
            predicted_ms,
            total_commands,
            peak_bytes: 0,
            order: self.admit_order,
            run_start_ms: start_ms,
            transfer_intervals: Vec::new(),
            compute_intervals: Vec::new(),
        };
        self.in_flight.push(InFlight { meta, stepper });
        self.admit_order += 1;
        Ok(true)
    }

    /// The lowered plan of cache key `key`, compiled as `artifact` for
    /// `model`: lowered, priced and its residency estimated on its first
    /// use in this device run.
    ///
    /// # Errors
    ///
    /// A pricing error, which no lowered stream gives.
    fn lowered(
        &mut self,
        key: u64,
        artifact: &CompiledArtifact,
        model: &ModelSpec,
    ) -> SimResult<LoweredPlan> {
        if let Some(plan) = self.lowered.get(&key) {
            return Ok(plan.clone());
        }
        let stream = lower_artifact(artifact, model, self.device, &self.serve.fleet.config);
        let plan = LoweredPlan {
            prices: self.sim.price(&stream)?,
            stream: Arc::new(stream),
            resident_estimate_bytes: estimate_resident_bytes(artifact, model),
        };
        self.lowered.insert(key, plan.clone());
        Ok(plan)
    }

    /// The in-flight request whose next command can start earliest (ties
    /// to the earliest admitted), with that stream-local start.
    fn earliest_flight(&self) -> (usize, f64) {
        let mut chosen = 0;
        let mut chosen_start = f64::INFINITY;
        for (i, flight) in self.in_flight.iter().enumerate() {
            let start = flight
                .stepper
                .peek_start_ms(&self.clocks)
                .unwrap_or(f64::INFINITY);
            let earlier = start < chosen_start
                || (start == chosen_start && flight.meta.order < self.in_flight[chosen].meta.order);
            if i == 0 || earlier {
                chosen = i;
                chosen_start = start;
            }
        }
        (chosen, chosen_start)
    }

    /// The fault, if any, the plan injects into `chosen`'s next command.
    fn command_fault(&self, chosen: usize) -> Option<FaultKind> {
        let flight = &self.in_flight[chosen];
        let seq = flight.meta.row.seq;
        let executed = flight
            .meta
            .total_commands
            .saturating_sub(flight.stepper.remaining());
        let attempt = self.carry.get(&seq).map_or(0, Carry::attempt);
        self.serve
            .fleet
            .fault_plan
            .command_fault(self.index, seq, executed, attempt)
    }

    /// Issue `chosen`'s next command, then retire it if that was its last
    /// command or it failed.
    fn step(&mut self, chosen: usize) -> SimResult<()> {
        let base = self.base();
        let flight = &mut self.in_flight[chosen];
        match flight
            .stepper
            .step(&self.sim, &mut self.clocks, &mut self.tracker, base)
        {
            Ok(Some(event)) => {
                if self.trace.enabled() && event.queue != QueueKind::Host {
                    // Host bookkeeping occupies no hardware queue.
                    let lane = match event.queue {
                        QueueKind::Transfer => TraceLane::TransferQueue,
                        _ => TraceLane::ComputeQueue,
                    };
                    self.trace.span_bytes(
                        TraceKind::Command,
                        lane,
                        &flight.stepper.stream().commands()[event.command].label,
                        self.epoch + event.start_ms,
                        self.epoch + event.end_ms,
                        event.bytes,
                    );
                }
                let queue = match event.queue {
                    QueueKind::Transfer => {
                        Some((&mut self.transfer_busy, &mut flight.meta.transfer_intervals))
                    }
                    QueueKind::Compute => {
                        Some((&mut self.compute_busy, &mut flight.meta.compute_intervals))
                    }
                    QueueKind::Host => None,
                };
                if let Some((busy, intervals)) = queue {
                    *busy += event.duration_ms();
                    if event.end_ms > event.start_ms {
                        intervals.push((event.start_ms, event.end_ms));
                    }
                }
            }
            Ok(None) => {}
            Err(error) => {
                // The request failed mid-run (modelled OOM): release what it
                // held and keep serving everyone else.
                let now_local = flight.stepper.makespan_ms();
                return self.release(chosen, now_local, Exit::Failed(error));
            }
        }
        let flight = &self.in_flight[chosen];
        if flight.stepper.is_done() {
            let now_local = flight.stepper.makespan_ms();
            self.release(chosen, now_local, Exit::Done)?;
        }
        Ok(())
    }

    /// Fold the tracker's peak since the last fold into every request on
    /// the device, in flight or suspended, and return it for a request
    /// that is leaving. Runs before a request enters and before a completed
    /// request's peak is read, so each request's running peak covers
    /// exactly the samples recorded while it was on the device.
    fn fold_recent_peak(&mut self) -> u64 {
        let recent = self.tracker.take_recent_peak();
        let metas = self.in_flight.iter_mut().map(|f| &mut f.meta);
        for meta in metas.chain(self.suspended.iter_mut().map(|s| &mut s.meta)) {
            meta.peak_bytes = meta.peak_bytes.max(recent);
        }
        recent
    }

    /// Stitch `segment`, an exclusive run's memory trace in run-local time,
    /// onto the device timeline at the current epoch: its peak always, its
    /// samples when the device keeps its series.
    fn stitch(&mut self, segment: &MemoryTrace) {
        self.stitched_peak = self.stitched_peak.max(segment.peak_bytes());
        if let Some(stitched) = &mut self.stitched {
            stitched.append_shifted(segment, self.epoch);
        }
    }

    /// Retire in-flight request `chosen` at stream-local `now_local`: the
    /// one path a one-shot request leaves a live device by. It releases
    /// what the stream still holds — an exclusive run that completed is
    /// instead finalized like the monolithic executor — then stitches an
    /// exclusive run's memory segment onto the device timeline and evicts
    /// the model, returns the tenant reservation, and closes the row and
    /// the trace lane. A done or failed row is final; a faulted one goes to
    /// the recovery planner.
    fn release(&mut self, chosen: usize, now_local: f64, exit: Exit) -> SimResult<()> {
        let InFlight {
            mut meta,
            mut stepper,
        } = self.in_flight.remove(chosen);
        let completion = self.epoch + now_local;
        let done = matches!(exit, Exit::Done);
        if done && self.exclusive {
            // The request ran in run-local time against a freshly reset
            // trace: finalize exactly like the monolithic executor, which
            // hands the trace over to the report.
            let outcome = stepper.finish(&self.sim, &mut self.tracker);
            let report = ExecutionReport::from_outcome(
                "FlashMem",
                &meta.row.model,
                outcome,
                meta.streamed_fraction,
            );
            self.stitch(&report.memory_trace);
            meta.row.peak_memory_mb = report.peak_memory_mb;
            meta.row.report = Some(report);
        } else {
            let at = self.base() + now_local;
            if done {
                self.tracker.sample(at);
            }
            stepper.release_remaining(&mut self.tracker, at)?;
            if done {
                meta.peak_bytes = meta.peak_bytes.max(self.fold_recent_peak());
                meta.row.peak_memory_mb = meta.peak_bytes as f64 / MIB;
            }
            if self.exclusive {
                let segment = self.tracker.take_trace();
                self.stitch(&segment);
            }
        }
        if self.exclusive {
            self.epoch = completion;
            self.tracker.evict_all(completion);
            if let Some(stitched) = &mut self.stitched {
                stitched.record(completion, 0);
            }
            self.clocks.reset();
        }
        let running = Some((TraceKind::Running, meta.run_start_ms));
        let mut row = self.retire(meta, completion);
        let (instant, verb) = match exit {
            Exit::Done => (TraceKind::Complete, "complete".to_string()),
            Exit::Failed(error) => {
                row.fail(error);
                (TraceKind::Fail, "fail".to_string())
            }
            Exit::Faulted(kind) => {
                self.faults += 1;
                row.fail(SimError::Fault {
                    kind,
                    at_ms: completion,
                });
                (TraceKind::Fault, format!("fault {kind}"))
            }
        };
        close_lane(&mut self.trace, &row, running, completion, instant, &verb);
        if instant == TraceKind::Fault {
            self.orphan(row, None);
        } else {
            self.outcomes.push(row);
        }
        Ok(())
    }

    /// Return `meta`'s tenant reservation, extend the makespan and close
    /// the row at `completion_ms`.
    fn retire(&mut self, meta: FlightMeta, completion_ms: f64) -> RequestOutcome {
        if let Some(used) = self.tenant_bytes.get_mut(&meta.row.tenant) {
            *used = used.saturating_sub(meta.row.resident_estimate_bytes);
        }
        self.makespan = self.makespan.max(completion_ms);
        meta.close(completion_ms)
    }

    /// Hand `row`, failed by an injected fault, to the recovery planner with
    /// the recovery counters this attempt started with.
    fn orphan(&mut self, row: RequestOutcome, resume: Stranded) {
        let (retries, hops) = self
            .carry
            .get(&row.seq)
            .map_or((0, 0), |c| (c.retries, c.hops));
        self.orphans.push(Orphan {
            outcome: row,
            retries,
            hops,
            resume,
        });
    }

    /// The device dies at `loss_ms`: everything on it — running, suspended,
    /// queued — is stranded and goes to the recovery planner, and the
    /// timeline stops. Under failover, running work is frozen into a
    /// suspension a same-spec sibling can resume. A run is frozen, and its
    /// row closed, once the command straddling the loss has finished, and a
    /// suspended row closes no earlier than its suspension; the makespan
    /// covers those instants.
    fn lose(&mut self, loss_ms: f64) -> SimResult<()> {
        self.lost = true;
        self.makespan = self.makespan.max(loss_ms);
        if self.trace.enabled() {
            self.trace.instant(
                TraceKind::Fault,
                TraceLane::Host,
                &format!("fault device-loss {}", self.device.name),
                loss_ms,
            );
        }
        let carry_over = self.serve.fleet.recovery.failover;
        let error = SimError::Fault {
            kind: FaultKind::DeviceLoss,
            at_ms: loss_ms,
        };
        let fault = "fault device-loss";
        let base = self.base();
        for flight in std::mem::take(&mut self.in_flight) {
            let InFlight { meta, mut stepper } = flight;
            let local_now = ((loss_ms - self.epoch).max(0.0)).max(stepper.makespan_ms());
            let completion = self.epoch + local_now;
            self.makespan = self.makespan.max(completion);
            let running = Some((TraceKind::Running, meta.run_start_ms));
            close_lane(
                &mut self.trace,
                &meta.row,
                running,
                completion,
                TraceKind::Fault,
                fault,
            );
            let resume = if carry_over {
                let suspension =
                    stepper.suspend_evicting(&self.clocks, &mut self.tracker, local_now, base)?;
                trace_preempt(&mut self.trace, &meta, completion, &suspension);
                Some((meta.clone(), suspension))
            } else {
                stepper.release_remaining(&mut self.tracker, base + local_now)?;
                None
            };
            let mut row = meta.close(completion);
            row.fail(error.clone());
            self.orphan(row, resume);
        }
        for s in std::mem::take(&mut self.suspended) {
            let Suspended {
                mut meta,
                suspended_at_ms,
                suspension,
                ..
            } = s;
            let at = loss_ms.max(suspended_at_ms);
            self.makespan = self.makespan.max(at);
            let suspended = Some((TraceKind::Suspended, suspended_at_ms));
            close_lane(
                &mut self.trace,
                &meta.row,
                suspended,
                at,
                TraceKind::Fault,
                fault,
            );
            meta.row.suspended_ms += (at - suspended_at_ms).max(0.0);
            let resume = carry_over.then(|| (meta.clone(), suspension));
            let mut row = meta.close(at);
            row.fail(error.clone());
            self.orphan(row, resume);
        }
        for (seq, request) in std::mem::take(&mut self.pending) {
            let at = loss_ms.max(request.arrival_ms);
            let row = self.waiting_row(seq, request, at, error.clone());
            close_lane(&mut self.trace, &row, None, at, TraceKind::Fault, fault);
            self.orphan(row, None);
        }
        if self.exclusive {
            let segment = self.tracker.take_trace();
            self.stitch(&segment);
        }
        Ok(())
    }

    /// What the round hands the merge: its rows, orphans and trace, and the
    /// device report — in exclusive mode over the stitched device timeline.
    fn finish(self) -> DeviceRun<Stranded> {
        let (peak, memory_trace) = if self.exclusive {
            (self.stitched_peak, self.stitched)
        } else {
            let series = self.serve.fleet.memory_series;
            (
                self.tracker.peak_bytes(),
                series.then(|| self.tracker.into_trace()),
            )
        };
        let report = DeviceReport {
            requests: self.assigned,
            completed: self.outcomes.iter().filter(|o| o.succeeded()).count(),
            queue_depth_high_water: self.queue_high_water,
            ..DeviceReport::new(
                self.device.name.clone(),
                self.makespan,
                self.transfer_busy,
                self.compute_busy,
                peak as f64 / MIB,
                memory_trace,
            )
        };
        DeviceRun {
            outcomes: self.outcomes,
            report,
            trace: self.trace,
            orphans: self.orphans,
            lost: self.lost,
            faults: self.faults,
        }
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
            TraceLane::Request(meta.row.seq),
            &format!("preempt {}", meta.row.model),
            at_ms,
            suspension.evicted_bytes(),
        );
    }
}

/// Close a request's trace lane at `at_ms`: end the `Running` or
/// `Suspended` span it has had open since `open`, if any, then mark how it
/// left with an `exit` instant labelled `"{verb} {model}"` — and a completed
/// request that missed its deadline with an [`TraceKind::SloMiss`] instant
/// tagged with the miss cause.
fn close_lane(
    trace: &mut TraceRecorder,
    row: &RequestOutcome,
    open: Option<(TraceKind, f64)>,
    at_ms: f64,
    exit: TraceKind,
    verb: &str,
) {
    if !trace.enabled() {
        return;
    }
    let lane = TraceLane::Request(row.seq);
    let model = &row.model;
    if let Some((kind, start_ms)) = open {
        let what = if kind == TraceKind::Suspended {
            "suspended"
        } else {
            "run"
        };
        trace.span(kind, lane, &format!("{what} {model}"), start_ms, at_ms);
    }
    trace.instant(exit, lane, &format!("{verb} {model}"), at_ms);
    if let Some(cause) = row.miss_cause().filter(|_| exit == TraceKind::Complete) {
        let label = format!("slo miss {model} ({cause:?})");
        trace.instant(TraceKind::SloMiss, lane, &label, at_ms);
    }
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
        // So do a fault plan naming a device outside the fleet or holding a
        // NaN, which the builders keep, and a zero queue bound.
        let plan = FaultPlan::seeded(1);
        for (plan, words) in [
            (
                plan.clone().with_device_loss(9, 5.0),
                ["with_device_loss", "device 9"],
            ),
            (
                plan.clone().with_device_loss(0, nan),
                ["with_device_loss", "NaN"],
            ),
            (
                plan.clone().with_flaky_device(0, nan),
                ["with_flaky_device", "NaN"],
            ),
            (plan.with_oom_spikes(0, nan), ["with_oom_spikes", "NaN"]),
        ] {
            rejects(&fresh().with_fault_plan(plan), &reqs, words);
        }
        let zero = OverloadControl {
            queue_bound: Some(0),
            ..OverloadControl::disabled()
        };
        let engine = fresh().with_overload_control(zero);
        rejects(&engine, &reqs, ["queue_bound", "Some(0)"]);
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
