//! Continuous batching for generative decode.
//!
//! Where [`ServeEngine`](crate::ServeEngine) replays each request as one
//! lowered command stream, the [`DecodeEngine`] models autoregressive
//! generation as a *step loop*: every request runs one full-graph **prefill**
//! pass (the prompt, emitting the first token), then joins a per-device
//! decode batch in which every in-flight request emits one token per
//! **decode step** while its KV cache grows in the device's
//! [`MemoryTracker`]. At sequence length 1 a decode step is dominated by
//! weight traffic, which a batch shares: the step's weights are loaded once
//! and serve every sequence in it (see
//! [`DecodeStepPlan::batched`](flashmem_gpu_sim::DecodeStepPlan::batched)),
//! so batched decode throughput rises far faster than step latency — the
//! continuous-batching win on an IO-bound hierarchy.
//!
//! ## The step loop
//!
//! Each device repeats, on its own timeline:
//!
//! 1. **Join** — at the step boundary, arrived waiting requests join the
//!    batch when the batch is empty or when
//!    `arrived ≥ waiting_served_ratio × active` ([`BatchConfig`]), so a
//!    steady trickle of prefills cannot starve in-flight decodes: the
//!    scheduler only pays a prefill stall once enough work has queued up to
//!    amortize it. Joins respect `max_batch` and the `token_budget` — a
//!    request reserves its *maximum* context (`prompt + output − 1` tokens)
//!    up front, so a joined request can never blow the budget mid-decode.
//!    Each joiner's prefill replays sequentially (a prefill owns the device,
//!    as in production continuous-batching servers).
//! 2. **Step** — the active batch is grouped per model (deterministically,
//!    in abbreviation order) and each group replays its batched step stream;
//!    every member's KV cache grows by one token and emits one token at the
//!    step's end.
//! 3. **Leave** — requests that have emitted their last token leave at the
//!    boundary and release their KV residency in one sweep.
//!
//! ## Determinism
//!
//! Placement is decided in the sequential prologue (round-robin over
//! arrival order); after that each device's step loop is a pure function of
//! its assigned request list, stepped single-threaded inside one pool job.
//! Outcomes merge sorted by submission `seq` and trace buffers merge in
//! fleet order — the same commit-point discipline as
//! [`ServeEngine::run_on`](crate::ServeEngine::run_on) — so the report is
//! byte-identical at every pool width.
//!
//! ## Cost memoization
//!
//! Replaying a command stream per token would cost millions of simulator
//! events for long generations. Instead each device replays every distinct
//! (model, batch-size) step stream **once** against its tracker (charging
//! and releasing the step's transients, which establishes the transient
//! peak) and memoizes the [`StepCost`]; subsequent steps advance sessions
//! through [`DecodeSession::advance_step`], which grows KV and timestamps
//! the token without re-stepping the stream. Prefill costs are memoized per
//! model the same way.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use flashmem_core::cache::ArtifactCache;
use flashmem_core::pool::{self, ThreadPool};
use flashmem_core::telemetry::{
    FleetTrace, PhaseBreakdown, TraceConfig, TraceKind, TraceLane, TraceRecorder,
};
use flashmem_core::{FlashMem, FlashMemConfig};
use flashmem_gpu_sim::decode::replay_stream;
use flashmem_gpu_sim::engine::{CommandStream, GpuSimulator, SimConfig};
use flashmem_gpu_sim::error::SimResult;
use flashmem_gpu_sim::memory::MemoryTracker;
use flashmem_gpu_sim::{DecodeSession, DecodeStepPlan, DeviceSpec, SimError, StepCost};

use crate::metrics::{
    DecodeOutcome, DeviceReport, LatencySummary, PriorityLatency, RecoveryTallies, RequestOutcome,
    ServeReport, SloSummary, TokenMetrics,
};
use crate::policy::RecoveryControl;
use crate::request::{check_arrivals, FailureCause, ServeRequest};
use crate::server::lower_artifact;
use flashmem_gpu_sim::{FaultKind, FaultPlan};

const MIB: f64 = 1024.0 * 1024.0;

/// Continuous-batching knobs. The defaults are deliberately conservative:
/// a batch of 8 and a 2048-token KV budget fit every autoregressive model in
/// the zoo on every device spec without starving one-shot traffic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchConfig {
    /// Largest number of requests decoding together on one device
    /// (clamped to at least 1; 1 means one-shot serving — each request
    /// prefills and decodes alone).
    pub max_batch: usize,
    /// Fleet-wide KV-cache budget per device, in *context tokens*. A
    /// request reserves its maximum context (`prompt + output − 1`) at
    /// join, so the resident KV of a device's batch never exceeds the
    /// budget.
    pub token_budget: u64,
    /// Join threshold: waiting prefills are admitted at a step boundary
    /// only when the batch is empty or `arrived ≥ ratio × active`. Higher
    /// values protect in-flight decode latency (ITL) at the cost of
    /// time-to-first-token for waiting requests.
    pub waiting_served_ratio: f64,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            max_batch: 8,
            token_budget: 2048,
            waiting_served_ratio: 1.2,
        }
    }
}

impl BatchConfig {
    /// One-shot serving: every request prefills and decodes alone, in
    /// arrival order. The baseline the continuous-batching sweep compares
    /// against.
    pub fn one_shot() -> Self {
        BatchConfig {
            max_batch: 1,
            ..BatchConfig::default()
        }
    }
}

/// Compiled per-model state one device keeps across its whole run.
struct ModelPlans {
    /// Lowered full-graph stream (the prefill pass).
    prefill_stream: CommandStream,
    /// The single-token step plan the batch replays.
    step_plan: DecodeStepPlan,
    /// KV bytes appended per context token.
    kv_bytes_per_token: u64,
}

/// One in-flight generative request on a device.
struct ActiveDecode {
    seq: usize,
    abbr: String,
    tenant: String,
    priority: u8,
    arrival_ms: f64,
    deadline_ms: Option<f64>,
    /// Prefill start (admission) time.
    start_ms: f64,
    cache_hit: bool,
    session: DecodeSession,
    /// Largest per-model sub-batch this request shared a step with.
    max_batch_seen: usize,
    /// Transfer-queue busy intervals attributed to this request (absolute
    /// time), for phase attribution.
    transfer_intervals: Vec<(f64, f64)>,
    /// Compute-queue busy intervals attributed to this request.
    compute_intervals: Vec<(f64, f64)>,
    /// Step failure, if one of this request's steps could not complete.
    error: Option<SimError>,
    /// Tokens emitted by *earlier* attempts (a re-prefilled request resumes
    /// from this position; 0 on a first attempt).
    resumed_tokens: u32,
    /// Retry redispatches this request consumed before this attempt.
    retries: u32,
    /// Device-loss failover hops this request consumed before this attempt.
    hops: u32,
    /// Whether an earlier attempt ran (and died) on a different device.
    failed_over: bool,
}

impl ActiveDecode {
    /// Build the outcome row at `completion_ms`, consuming the entry. The
    /// session's KV must already be released.
    fn into_outcome(
        self,
        device: &str,
        device_index: usize,
        completion_ms: f64,
        peak_memory_mb: f64,
    ) -> RequestOutcome {
        let queue_wait_ms = (self.start_ms - self.arrival_ms).max(0.0);
        let latency_ms = (completion_ms - self.arrival_ms).max(0.0);
        let phases = PhaseBreakdown::attribute(
            latency_ms,
            queue_wait_ms,
            0.0,
            0.0,
            &self.transfer_intervals,
            &self.compute_intervals,
        );
        let times = self.session.token_times_ms();
        let decode = if self.error.is_none() {
            // A re-prefilled attempt's session holds `original prompt +
            // resumed` context and emits only the remaining tokens; the
            // outcome reports the submission's cumulative view.
            Some(DecodeOutcome {
                prompt_tokens: self.session.prompt_tokens() - self.resumed_tokens,
                output_tokens: self.resumed_tokens + self.session.emitted_tokens(),
                ttft_ms: times.first().map_or(0.0, |t| t - self.arrival_ms),
                itl_ms: times.windows(2).map(|w| w[1] - w[0]).collect(),
                kv_peak_bytes: self.session.max_context_tokens()
                    * self.session.kv().bytes_per_token(),
                max_batch: self.max_batch_seen,
            })
        } else {
            None
        };
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
            admission_laxity_ms: None,
            resident_estimate_bytes: self.session.max_context_tokens()
                * self.session.kv().bytes_per_token(),
            preemptions: 0,
            suspended_ms: 0.0,
            resume_penalty_ms: 0.0,
            cache_hit: self.cache_hit,
            peak_memory_mb,
            phases,
            rejected: None,
            stolen_from: None,
            failure: self.error.as_ref().map(FailureCause::from_error),
            retries: self.retries,
            failed_over: self.failed_over,
            error: self.error,
            report: None,
            decode,
        }
    }
}

/// One device timeline's unit of parallel work, assembled by the sequential
/// placement prologue.
struct DecodeJob<'a> {
    index: usize,
    device: &'a DeviceSpec,
    engine: FlashMem,
    sim: GpuSimulator,
    /// `(seq, request)` pairs placed here, sorted by `(arrival, seq)`.
    assigned: Vec<(usize, &'a ServeRequest)>,
    /// Plan-cache keys warm when the run began (prologue snapshot, so
    /// `cache_hit` is identical at every pool width).
    warm: HashSet<u64>,
}

/// Attempt state a re-dispatched decode request carries between rounds.
#[derive(Debug, Clone)]
struct DecodeCarry {
    /// The submission's true arrival (the per-round request clone's
    /// `arrival_ms` is the re-dispatch ready floor, not the arrival).
    original_arrival_ms: f64,
    /// Tokens emitted by earlier attempts: the re-prefill resume position.
    resumed_tokens: u32,
    /// Same-fault retry redispatches consumed.
    retries: u32,
    /// Device-loss failover hops consumed.
    hops: u32,
    /// Whether any earlier attempt ran on a different device.
    failed_over: bool,
}

impl DecodeCarry {
    fn fresh(request: &ServeRequest) -> Self {
        DecodeCarry {
            original_arrival_ms: request.arrival_ms,
            resumed_tokens: 0,
            retries: 0,
            hops: 0,
            failed_over: false,
        }
    }
}

/// Per-round chaos state handed to `run_device` alongside its job.
struct DecodeChaosJob {
    carry: HashMap<usize, DecodeCarry>,
}

impl DecodeChaosJob {
    /// Stamp a freshly admitted entry with its carried attempt state.
    fn apply(&self, seq: usize, entry: &mut ActiveDecode) {
        if let Some(carry) = self.carry.get(&seq) {
            entry.arrival_ms = carry.original_arrival_ms;
            entry.resumed_tokens = carry.resumed_tokens;
            entry.retries = carry.retries;
            entry.hops = carry.hops;
            entry.failed_over = carry.failed_over;
        }
    }
}

/// A request attempt an injected fault killed, surfaced to the sequential
/// re-dispatch planner. Carries the fully built typed-failed outcome so the
/// planner can commit it unchanged when no recovery budget remains.
struct DecodeOrphan {
    outcome: RequestOutcome,
    /// Cumulative tokens emitted across all attempts (the resume position).
    emitted: u32,
    retries: u32,
    hops: u32,
    kind: FaultKind,
}

/// Everything one device's round produces.
struct DecodeRun {
    outcomes: Vec<RequestOutcome>,
    report: DeviceReport,
    trace: TraceRecorder,
    orphans: Vec<DecodeOrphan>,
    /// The device was lost (injected device-loss) during this round.
    lost: bool,
}

/// Route a finished (or fault-killed) entry: injected faults become orphans
/// for the planner; everything else commits its outcome row here.
#[allow(clippy::too_many_arguments)]
fn push_entry(
    entry: ActiveDecode,
    outcomes: &mut Vec<RequestOutcome>,
    orphans: &mut Vec<DecodeOrphan>,
    chaos: bool,
    device: &DeviceSpec,
    device_index: usize,
    completion_ms: f64,
    peak_memory_mb: f64,
) {
    let fault = match &entry.error {
        Some(SimError::Fault { kind, .. }) => Some(*kind),
        _ => None,
    };
    let emitted = entry.resumed_tokens + entry.session.emitted_tokens();
    let retries = entry.retries;
    let hops = entry.hops;
    let outcome = entry.into_outcome(&device.name, device_index, completion_ms, peak_memory_mb);
    match fault {
        Some(kind) if chaos => orphans.push(DecodeOrphan {
            outcome,
            emitted,
            retries,
            hops,
            kind,
        }),
        _ => outcomes.push(outcome),
    }
}

/// Render a caught panic payload for [`SimError::WorkerPanic`].
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(message) = payload.downcast_ref::<&str>() {
        (*message).to_string()
    } else if let Some(message) = payload.downcast_ref::<String>() {
        message.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The continuous-batching engine for generative (decode) requests.
///
/// Every request must carry decode token counts
/// ([`ServeRequest::with_decode_tokens`]) and reference a model with a
/// [`DecodeSpec`](flashmem_graph::models::DecodeSpec); mixing in one-shot requests
/// is an [`SimError::InvalidParameter`] — serve those through
/// [`ServeEngine`](crate::ServeEngine).
pub struct DecodeEngine {
    fleet: Vec<DeviceSpec>,
    config: FlashMemConfig,
    batch: BatchConfig,
    cache: Arc<ArtifactCache>,
    trace: TraceConfig,
    fault_plan: FaultPlan,
    recovery: RecoveryControl,
}

impl DecodeEngine {
    /// A continuous-batching engine over `fleet` with default
    /// [`BatchConfig`] knobs.
    pub fn new(fleet: Vec<DeviceSpec>, config: FlashMemConfig) -> Self {
        DecodeEngine {
            fleet,
            config,
            batch: BatchConfig::default(),
            cache: Arc::new(ArtifactCache::new()),
            trace: TraceConfig::disabled(),
            fault_plan: FaultPlan::default(),
            recovery: RecoveryControl::disabled(),
        }
    }

    /// Arm a deterministic [`FaultPlan`] (builder style). Empty by default;
    /// with an empty plan and recovery disabled the engine takes the exact
    /// legacy single-round path, byte for byte.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Configure failure recovery (builder style). The decode path supports
    /// retry budgets, simulated-time backoff and device-loss failover; a
    /// redispatched request **re-prefills from its token position** (tokens
    /// already streamed to the client are not re-generated: the retry's
    /// prompt absorbs them, preserving the `prompt + output − 1` context
    /// invariant). Quarantine/probe knobs are ignored here — the decode
    /// placement has no policy hook to confine, so the circuit breaker lives
    /// only in [`ServeEngine`](crate::ServeEngine). A retried request's
    /// [`DecodeOutcome`] reports the *final* attempt's token telemetry.
    pub fn with_recovery_control(mut self, recovery: RecoveryControl) -> Self {
        self.recovery = recovery;
        self
    }

    /// Replace the batching knobs (builder style). Values are clamped to
    /// sane minima: `max_batch ≥ 1`, `token_budget ≥ 1`,
    /// `waiting_served_ratio ≥ 0`.
    pub fn with_batching(mut self, batch: BatchConfig) -> Self {
        self.batch = BatchConfig {
            max_batch: batch.max_batch.max(1),
            token_budget: batch.token_budget.max(1),
            waiting_served_ratio: batch.waiting_served_ratio.max(0.0),
        };
        self
    }

    /// Share an existing plan cache instead of a private one.
    pub fn with_cache(mut self, cache: Arc<ArtifactCache>) -> Self {
        self.cache = cache;
        self
    }

    /// Configure event tracing (builder style). Off by default; when
    /// enabled the report's trace carries [`TraceKind::Prefill`] spans and
    /// [`TraceKind::BatchJoin`]/[`TraceKind::BatchLeave`] instants on each
    /// request's lane, plus [`TraceKind::DecodeStep`] spans on the compute
    /// lane.
    pub fn with_trace(mut self, trace: TraceConfig) -> Self {
        self.trace = trace;
        self
    }

    /// The fleet being served.
    pub fn fleet(&self) -> &[DeviceSpec] {
        &self.fleet
    }

    /// The shared plan cache.
    pub fn cache(&self) -> &ArtifactCache {
        &self.cache
    }

    /// The active batching knobs.
    pub fn batch_config(&self) -> BatchConfig {
        self.batch
    }

    /// Serve `requests` on the process-wide pool. See [`run_on`](Self::run_on).
    ///
    /// # Errors
    ///
    /// As [`run_on`](Self::run_on).
    pub fn run(&self, requests: &[ServeRequest]) -> SimResult<ServeReport> {
        self.run_on(pool::global(), requests)
    }

    /// Serve `requests` (any order) and report per-request outcomes with
    /// token-level decode results, plus the usual fleet utilization, latency
    /// and SLO metrics. Device timelines fan out on `pool`; the report is
    /// byte-identical at every pool width.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidParameter`] for an empty fleet, a
    /// non-finite `arrival_ms`, a request without decode token counts, a
    /// model without a decode spec, or a request whose maximum context
    /// exceeds its model's context window.
    /// Worker panics surface as [`SimError::WorkerPanic`]; per-request
    /// failures (out-of-memory) are recorded in the outcomes instead.
    pub fn run_on(&self, pool: &ThreadPool, requests: &[ServeRequest]) -> SimResult<ServeReport> {
        let fleet_len = self.fleet.len();
        if fleet_len == 0 {
            return Err(SimError::InvalidParameter {
                message: "cannot serve on an empty fleet: DecodeEngine needs at least one device"
                    .to_string(),
            });
        }
        check_arrivals(requests)?;

        // ---- validation + placement: the sequential prologue ----
        for request in requests {
            let Some(params) = request.decode else {
                return Err(SimError::InvalidParameter {
                    message: format!(
                        "request for {} has no decode token counts; DecodeEngine only serves \
                         generative requests (use ServeRequest::with_decode_tokens)",
                        request.model.abbr
                    ),
                });
            };
            let Some(spec) = request.model.decode() else {
                return Err(SimError::InvalidParameter {
                    message: format!(
                        "model {} has no decode spec; only autoregressive models can be served \
                         through the decode path",
                        request.model.abbr
                    ),
                });
            };
            if params.max_context_tokens() > spec.max_context {
                return Err(SimError::InvalidParameter {
                    message: format!(
                        "request for {} needs {} context tokens but the model's window is {}",
                        request.model.abbr,
                        params.max_context_tokens(),
                        spec.max_context
                    ),
                });
            }
        }

        // Round-robin placement over (arrival, seq) order: the decode path
        // has no policy hook yet, and round-robin keeps per-device batches
        // balanced, which is what batching throughput wants.
        let mut order: Vec<usize> = (0..requests.len()).collect();
        order.sort_by(|&a, &b| {
            requests[a]
                .arrival_ms
                .total_cmp(&requests[b].arrival_ms)
                .then(a.cmp(&b))
        });
        let mut per_device: Vec<Vec<(usize, &ServeRequest)>> = vec![Vec::new(); fleet_len];
        for (i, &seq) in order.iter().enumerate() {
            per_device[i % fleet_len].push((seq, &requests[seq]));
        }

        if !self.fault_plan.is_empty() || self.recovery.any_enabled() {
            return self.run_chaos(pool, requests, per_device);
        }

        let jobs: Vec<DecodeJob<'_>> = self
            .fleet
            .iter()
            .enumerate()
            .map(|(index, device)| {
                let engine = FlashMem::new(device.clone()).with_config(self.config.clone());
                let assigned = std::mem::take(&mut per_device[index]);
                let warm: HashSet<u64> = assigned
                    .iter()
                    .map(|(_, request)| ArtifactCache::key_for(&engine, &request.model, device))
                    .filter(|&key| self.cache.is_warm(key))
                    .collect();
                DecodeJob {
                    index,
                    device,
                    engine,
                    sim: GpuSimulator::new(device.clone(), SimConfig::default()),
                    assigned,
                    warm,
                }
            })
            .collect();

        // ---- parallel device stepping ----
        let device_results = pool.try_parallel_map(jobs, |job| {
            catch_unwind(AssertUnwindSafe(|| self.run_device(job, None))).unwrap_or_else(
                |payload| {
                    Err(SimError::WorkerPanic {
                        message: panic_message(payload),
                    })
                },
            )
        })?;

        // ---- ordered merge: the commit point ----
        let mut outcomes: Vec<RequestOutcome> = Vec::new();
        let mut devices = Vec::with_capacity(fleet_len);
        let mut recorders = Vec::with_capacity(fleet_len);
        for run in device_results {
            let DecodeRun {
                outcomes: mut device_outcomes,
                report,
                trace,
                ..
            } = run;
            outcomes.append(&mut device_outcomes);
            devices.push(report);
            recorders.push(trace);
        }
        outcomes.sort_by_key(|o| o.seq);
        Ok(self.assemble_report(outcomes, devices, recorders, RecoveryTallies::default()))
    }

    /// The multi-round chaos driver: round 0 is the normal placement; every
    /// later round re-dispatches the previous round's fault orphans (retry
    /// with backoff on the same device, or failover onto a surviving one,
    /// re-prefilling from the orphan's token position). All re-dispatch
    /// decisions are taken here, sequentially, between rounds — the same
    /// commit-point discipline as placement — so the report stays
    /// byte-identical at every pool width.
    fn run_chaos(
        &self,
        pool: &ThreadPool,
        requests: &[ServeRequest],
        per_device: Vec<Vec<(usize, &ServeRequest)>>,
    ) -> SimResult<ServeReport> {
        let fleet_len = self.fleet.len();
        let mut outcomes: Vec<RequestOutcome> = Vec::new();
        let mut devices: Vec<Option<DeviceReport>> = vec![None; fleet_len];
        let mut masters: Vec<TraceRecorder> = (0..fleet_len)
            .map(|_| TraceRecorder::new(self.trace))
            .collect();
        let mut tallies = RecoveryTallies::default();
        let mut alive: Vec<bool> = vec![true; fleet_len];
        let mut cum_makespan: Vec<f64> = vec![0.0; fleet_len];

        // Owned per-round work units (re-dispatched attempts carry adjusted
        // decode params and an arrival floor).
        let mut work: Vec<Vec<(usize, ServeRequest, DecodeCarry)>> = per_device
            .into_iter()
            .map(|assigned| {
                assigned
                    .into_iter()
                    .map(|(seq, request)| (seq, request.clone(), DecodeCarry::fresh(request)))
                    .collect()
            })
            .collect();
        let mut first_round = true;

        while first_round || work.iter().any(|w| !w.is_empty()) {
            // Round 0 runs every device (so the fleet report covers idle
            // devices exactly like the legacy path); later rounds only the
            // devices with re-dispatched work.
            let included: Vec<usize> = (0..fleet_len)
                .filter(|&d| first_round || !work[d].is_empty())
                .collect();
            let round_work = std::mem::replace(&mut work, vec![Vec::new(); fleet_len]);
            let jobs: Vec<(DecodeJob<'_>, DecodeChaosJob)> = included
                .iter()
                .map(|&index| {
                    let device = &self.fleet[index];
                    let engine = FlashMem::new(device.clone()).with_config(self.config.clone());
                    let assigned: Vec<(usize, &ServeRequest)> = round_work[index]
                        .iter()
                        .map(|(seq, request, _)| (*seq, request))
                        .collect();
                    let warm: HashSet<u64> = assigned
                        .iter()
                        .map(|(_, request)| ArtifactCache::key_for(&engine, &request.model, device))
                        .filter(|&key| self.cache.is_warm(key))
                        .collect();
                    let carry: HashMap<usize, DecodeCarry> = round_work[index]
                        .iter()
                        .map(|(seq, _, carry)| (*seq, carry.clone()))
                        .collect();
                    (
                        DecodeJob {
                            index,
                            device,
                            engine,
                            sim: GpuSimulator::new(device.clone(), SimConfig::default()),
                            assigned,
                            warm,
                        },
                        DecodeChaosJob { carry },
                    )
                })
                .collect();

            let device_results = pool.try_parallel_map(jobs, |(job, chaos)| {
                catch_unwind(AssertUnwindSafe(|| self.run_device(job, Some(&chaos))))
                    .unwrap_or_else(|payload| {
                        Err(SimError::WorkerPanic {
                            message: panic_message(payload),
                        })
                    })
            })?;

            // ---- ordered merge + sequential re-dispatch planning ----
            let mut orphans: Vec<DecodeOrphan> = Vec::new();
            for (&index, run) in included.iter().zip(device_results) {
                let DecodeRun {
                    outcomes: mut device_outcomes,
                    report,
                    trace,
                    orphans: mut device_orphans,
                    lost,
                } = run;
                outcomes.append(&mut device_outcomes);
                cum_makespan[index] = cum_makespan[index].max(report.makespan_ms);
                match &mut devices[index] {
                    Some(existing) => existing.absorb_round(report),
                    slot => *slot = Some(report),
                }
                masters[index].absorb(trace);
                if lost {
                    // A lost device is permanently out of rotation; when
                    // recovery is armed, count it as a quarantine decision
                    // like the serve engine does.
                    if alive[index] && self.recovery.any_enabled() {
                        tallies.quarantines += 1;
                    }
                    alive[index] = false;
                }
                orphans.append(&mut device_orphans);
            }
            orphans.sort_by_key(|o| o.outcome.seq);

            for orphan in orphans {
                let seq = orphan.outcome.seq;
                let from = orphan.outcome.device_index;
                let failed_at = orphan.outcome.completion_ms;
                let can_retry = orphan.kind != FaultKind::DeviceLoss
                    && orphan.retries < self.recovery.retry_budget;
                let healthiest =
                    (0..fleet_len)
                        .filter(|&d| alive[d] && d != from)
                        .min_by(|&a, &b| {
                            cum_makespan[a]
                                .partial_cmp(&cum_makespan[b])
                                .expect("makespans are finite")
                                .then(a.cmp(&b))
                        });
                let (dest, carry) = if can_retry {
                    // Same-device retry (unless the device died under it).
                    let dest = if alive[from] { Some(from) } else { healthiest };
                    (
                        dest,
                        DecodeCarry {
                            original_arrival_ms: orphan.outcome.arrival_ms,
                            resumed_tokens: orphan.emitted,
                            retries: orphan.retries + 1,
                            hops: orphan.hops,
                            failed_over: orphan.outcome.failed_over
                                || dest.is_some_and(|d| d != from),
                        },
                    )
                } else if self.recovery.failover && orphan.hops < fleet_len as u32 {
                    (
                        healthiest,
                        DecodeCarry {
                            original_arrival_ms: orphan.outcome.arrival_ms,
                            resumed_tokens: orphan.emitted,
                            retries: orphan.retries,
                            hops: orphan.hops + 1,
                            failed_over: true,
                        },
                    )
                } else {
                    (None, DecodeCarry::fresh(&requests[seq]))
                };
                let Some(dest) = dest else {
                    // No budget left or no surviving device: the typed-failed
                    // outcome the device already built is final.
                    outcomes.push(orphan.outcome);
                    continue;
                };
                let attempts = carry.retries + carry.hops;
                let ready = (failed_at + self.recovery.backoff_ms * f64::from(attempts))
                    .max(cum_makespan[dest]);
                let mut request = requests[seq].clone();
                let params = request.decode.expect("validated in the prologue");
                request.decode = Some(crate::request::DecodeParams {
                    prompt_tokens: params.prompt_tokens + carry.resumed_tokens,
                    output_tokens: params.output_tokens - carry.resumed_tokens,
                });
                request.arrival_ms = ready;
                if masters[dest].enabled() {
                    let (kind, verb) = if can_retry {
                        (TraceKind::Retry, "retry")
                    } else {
                        (TraceKind::Failover, "failover")
                    };
                    masters[dest].instant(
                        kind,
                        TraceLane::Request(seq),
                        &format!(
                            "{verb} {} attempt {} from device #{from}",
                            request.model.abbr,
                            attempts + 1
                        ),
                        ready,
                    );
                }
                if can_retry {
                    tallies.retries += 1;
                } else {
                    tallies.failovers += 1;
                }
                work[dest].push((seq, request, carry));
            }
            first_round = false;
        }

        outcomes.sort_by_key(|o| o.seq);
        let devices: Vec<DeviceReport> = devices
            .into_iter()
            .enumerate()
            .map(|(index, report)| {
                report.unwrap_or_else(|| DeviceReport::empty(&self.fleet[index].name))
            })
            .collect();
        let report = self.assemble_report(outcomes, devices, masters, tallies);
        report.assert_disposition();
        Ok(report)
    }

    /// Assemble the final [`ServeReport`] from merged outcomes, per-device
    /// reports and trace recorders — shared by the legacy and chaos paths.
    fn assemble_report(
        &self,
        outcomes: Vec<RequestOutcome>,
        devices: Vec<DeviceReport>,
        recorders: Vec<TraceRecorder>,
        recovery: RecoveryTallies,
    ) -> ServeReport {
        let trace = if self.trace.enabled {
            Some(FleetTrace {
                processes: self
                    .fleet
                    .iter()
                    .zip(recorders)
                    .enumerate()
                    .map(|(index, (device, recorder))| {
                        recorder.into_process_trace(&format!("{} #{index}", device.name))
                    })
                    .collect(),
            })
        } else {
            None
        };

        let latencies: Vec<f64> = outcomes
            .iter()
            .filter(|o| o.succeeded())
            .map(|o| o.latency_ms)
            .collect();
        let makespan = devices
            .iter()
            .map(|d| d.makespan_ms)
            .fold(0.0_f64, f64::max);
        let throughput_rps = if makespan > 0.0 {
            latencies.len() as f64 * 1000.0 / makespan
        } else {
            0.0
        };
        let tokens = TokenMetrics::from_outcomes(&outcomes, makespan);
        let latency = LatencySummary::from_latencies(&latencies);
        let per_priority = PriorityLatency::from_outcomes(&outcomes);
        let slo = SloSummary::from_outcomes(&outcomes);
        ServeReport {
            policy: if self.batch.max_batch == 1 {
                "decode-one-shot".to_string()
            } else {
                format!("decode-continuous(b={})", self.batch.max_batch)
            },
            outcomes,
            devices,
            latency,
            per_priority,
            slo,
            preemptions: 0,
            throughput_rps,
            ttft: tokens.ttft,
            itl: tokens.itl,
            decode_tokens: tokens.decode_tokens,
            tokens_per_s: tokens.tokens_per_s,
            cache: self.cache.stats(),
            recovery,
            trace,
        }
    }

    /// Run one device's step loop to completion. Single-threaded per device;
    /// a pure function of the assigned request list (plus the per-round
    /// chaos state), so the result is identical at every pool width.
    #[allow(clippy::too_many_lines)]
    fn run_device(
        &self,
        job: DecodeJob<'_>,
        chaos: Option<&DecodeChaosJob>,
    ) -> SimResult<DecodeRun> {
        let DecodeJob {
            index: device_index,
            device,
            engine,
            sim,
            assigned,
            warm,
        } = job;
        let mut trace = TraceRecorder::new(self.trace);
        let mut tracker = MemoryTracker::for_device(device);
        let mut waiting = assigned;
        waiting.sort_by(|a, b| {
            a.1.arrival_ms
                .total_cmp(&b.1.arrival_ms)
                .then(a.0.cmp(&b.0))
        });
        let total = waiting.len();

        let mut plans: HashMap<String, ModelPlans> = HashMap::new();
        let mut prefill_costs: HashMap<String, StepCost> = HashMap::new();
        let mut step_costs: HashMap<(String, usize), StepCost> = HashMap::new();

        let mut active: Vec<ActiveDecode> = Vec::new();
        let mut outcomes: Vec<RequestOutcome> = Vec::new();
        let mut orphans: Vec<DecodeOrphan> = Vec::new();
        let lost_at = if chaos.is_some() {
            self.fault_plan.device_loss_ms(device_index)
        } else {
            None
        };
        let mut lost = false;
        let mut widx = 0usize;
        let mut now = 0.0_f64;
        let mut transfer_busy = 0.0_f64;
        let mut compute_busy = 0.0_f64;
        let mut high_water = 0usize;

        while widx < waiting.len() || !active.is_empty() {
            // An idle device jumps to the next arrival.
            if active.is_empty() {
                if let Some(&(_, next)) = waiting.get(widx) {
                    now = now.max(next.arrival_ms);
                }
            }

            // ---- injected device loss: drain at this step boundary ----
            // Work whose commands started before the loss instant drains
            // normally (a dispatched kernel cannot be aborted); everything
            // still resident or queued here dies with the device's memory.
            if let Some(lost_at_ms) = lost_at {
                if now + 1e-9 >= lost_at_ms {
                    lost = true;
                    if trace.enabled() {
                        trace.instant(
                            TraceKind::Fault,
                            TraceLane::Host,
                            &format!("fault device-loss {}", device.name),
                            now,
                        );
                    }
                    for mut entry in active.drain(..) {
                        entry.error = Some(SimError::Fault {
                            kind: FaultKind::DeviceLoss,
                            at_ms: now,
                        });
                        let _ = entry.session.release(&mut tracker, now);
                        let peak = tracker.peak_bytes() as f64 / MIB;
                        push_entry(
                            entry,
                            &mut outcomes,
                            &mut orphans,
                            true,
                            device,
                            device_index,
                            now,
                            peak,
                        );
                    }
                    while widx < waiting.len() {
                        let (seq, request) = waiting[widx];
                        widx += 1;
                        let at = now.max(request.arrival_ms);
                        let mut entry = self.admit_entry(seq, request, &warm, &engine, device, at);
                        if let Some(cj) = chaos {
                            cj.apply(seq, &mut entry);
                        }
                        entry.error = Some(SimError::Fault {
                            kind: FaultKind::DeviceLoss,
                            at_ms: at,
                        });
                        let peak = tracker.peak_bytes() as f64 / MIB;
                        push_entry(
                            entry,
                            &mut outcomes,
                            &mut orphans,
                            true,
                            device,
                            device_index,
                            at,
                            peak,
                        );
                    }
                    break;
                }
            }
            let arrived = waiting[widx..]
                .iter()
                .take_while(|(_, r)| r.arrival_ms <= now + 1e-9)
                .count();
            high_water = high_water.max(arrived);

            // ---- join phase: the waiting → served heuristic ----
            let join = arrived > 0
                && (active.is_empty()
                    || arrived as f64 >= self.batch.waiting_served_ratio * active.len() as f64);
            if join {
                while widx < waiting.len() && active.len() < self.batch.max_batch {
                    let (seq, request) = waiting[widx];
                    if request.arrival_ms > now + 1e-9 {
                        break;
                    }
                    let params = request.decode.expect("validated in the prologue");
                    let committed: u64 =
                        active.iter().map(|a| a.session.max_context_tokens()).sum();
                    if committed + params.max_context_tokens() > self.batch.token_budget {
                        if !active.is_empty() {
                            // Head-of-line request waits for leavers to free
                            // budget.
                            break;
                        }
                        // Nothing to wait for: this request alone exceeds
                        // the budget and can never be served.
                        widx += 1;
                        outcomes.push(budget_failure_outcome(
                            seq,
                            request,
                            device,
                            device_index,
                            self.batch.token_budget,
                        ));
                        continue;
                    }
                    widx += 1;
                    let abbr = request.model.abbr.clone();
                    if let Err(error) = self.ensure_plans(&mut plans, &engine, request, device) {
                        let mut entry = self.admit_entry(seq, request, &warm, &engine, device, now);
                        if let Some(cj) = chaos {
                            cj.apply(seq, &mut entry);
                        }
                        entry.error = Some(error);
                        outcomes.push(entry.into_outcome(
                            &device.name,
                            device_index,
                            now,
                            tracker.peak_bytes() as f64 / MIB,
                        ));
                        continue;
                    }
                    let model_plans = plans.get(&abbr).expect("just ensured");
                    // Memoized prefill: the first request of a model replays
                    // the full stream through the tracker (establishing the
                    // transient peak); later ones reuse the cost.
                    let cost = match prefill_costs.get(&abbr) {
                        Some(&cost) => cost,
                        None => {
                            match replay_stream(
                                &model_plans.prefill_stream,
                                &sim,
                                &mut tracker,
                                now,
                            ) {
                                Ok(cost) => {
                                    prefill_costs.insert(abbr.clone(), cost);
                                    cost
                                }
                                Err(error) => {
                                    let mut entry =
                                        self.admit_entry(seq, request, &warm, &engine, device, now);
                                    if let Some(cj) = chaos {
                                        cj.apply(seq, &mut entry);
                                    }
                                    entry.error = Some(error);
                                    outcomes.push(entry.into_outcome(
                                        &device.name,
                                        device_index,
                                        now,
                                        tracker.peak_bytes() as f64 / MIB,
                                    ));
                                    continue;
                                }
                            }
                        }
                    };
                    let start = now;
                    let end = start + cost.makespan_ms;
                    transfer_busy += cost.transfer_busy_ms;
                    compute_busy += cost.compute_busy_ms;
                    let mut entry = self.admit_entry(seq, request, &warm, &engine, device, start);
                    entry.session = DecodeSession::new(
                        params.prompt_tokens,
                        params.output_tokens,
                        model_plans.kv_bytes_per_token,
                    );
                    if let Some(cj) = chaos {
                        cj.apply(seq, &mut entry);
                        // The prefill pass itself may take an injected fault,
                        // keyed by the resume position so a retry redraws.
                        let attempt = entry.retries + entry.hops;
                        if let Some(kind) = self.fault_plan.command_fault(
                            device_index,
                            seq,
                            entry.resumed_tokens as usize,
                            attempt,
                        ) {
                            entry.error = Some(SimError::Fault { kind, at_ms: end });
                            if trace.enabled() {
                                trace.instant(
                                    TraceKind::Fault,
                                    TraceLane::Request(seq),
                                    &format!("fault {kind} {abbr} prefill"),
                                    end,
                                );
                            }
                            now = end;
                            active.push(entry);
                            continue;
                        }
                    }
                    let label = format!("kv seq{seq} {abbr}");
                    if let Err(error) = entry.session.finish_prefill(&mut tracker, &label, end) {
                        entry.error = Some(error);
                        let _ = entry.session.release(&mut tracker, end);
                        outcomes.push(entry.into_outcome(
                            &device.name,
                            device_index,
                            end,
                            tracker.peak_bytes() as f64 / MIB,
                        ));
                        now = end;
                        continue;
                    }
                    entry
                        .transfer_intervals
                        .push((start, start + cost.transfer_busy_ms));
                    entry
                        .compute_intervals
                        .push((end - cost.compute_busy_ms, end));
                    if trace.enabled() {
                        trace.span_bytes(
                            TraceKind::Prefill,
                            TraceLane::Request(seq),
                            &format!("prefill {abbr} ({} tok)", params.prompt_tokens),
                            start,
                            end,
                            u64::from(params.prompt_tokens) * model_plans.kv_bytes_per_token,
                        );
                        trace.instant(
                            TraceKind::BatchJoin,
                            TraceLane::Request(seq),
                            &format!("join {abbr}"),
                            end,
                        );
                    }
                    now = end;
                    active.push(entry);
                }
            }

            // ---- leave phase: retire sessions done at this boundary ----
            // Covers output_tokens == 1 requests, done at prefill.
            retire_finished(
                &mut active,
                &mut outcomes,
                &mut orphans,
                chaos.is_some(),
                &mut tracker,
                &mut trace,
                device,
                device_index,
                now,
            )?;
            if active.is_empty() {
                continue;
            }

            // ---- step phase: one batched decode step ----
            // Per-model sub-batches, in abbreviation order for determinism;
            // sub-batches replay back to back on the device's queues.
            let mut groups: BTreeMap<String, Vec<usize>> = BTreeMap::new();
            for (i, entry) in active.iter().enumerate() {
                groups.entry(entry.abbr.clone()).or_default().push(i);
            }
            for (abbr, members) in groups {
                let batch_size = members.len();
                let key = (abbr.clone(), batch_size);
                let cost = match step_costs.get(&key) {
                    Some(&cost) => cost,
                    None => {
                        let plan = &plans.get(&abbr).expect("active implies compiled").step_plan;
                        match plan.replay(&sim, &mut tracker, batch_size, now) {
                            Ok(cost) => {
                                step_costs.insert(key, cost);
                                cost
                            }
                            Err(error) => {
                                // The whole sub-batch shares the failed step.
                                for &i in &members {
                                    active[i].error = Some(error.clone());
                                }
                                continue;
                            }
                        }
                    }
                };
                let end = now + cost.makespan_ms;
                transfer_busy += cost.transfer_busy_ms;
                compute_busy += cost.compute_busy_ms;
                if trace.enabled() {
                    trace.span_bytes(
                        TraceKind::DecodeStep,
                        TraceLane::ComputeQueue,
                        &format!("step {abbr} ×{batch_size}"),
                        now,
                        end,
                        batch_size as u64
                            * plans
                                .get(&abbr)
                                .expect("active implies compiled")
                                .kv_bytes_per_token,
                    );
                }
                let share = 1.0 / batch_size as f64;
                for &i in &members {
                    let entry = &mut active[i];
                    if chaos.is_some() {
                        // The step's kernel may take an injected fault for
                        // this sequence, keyed by its global token position
                        // so firing is schedule- and batch-independent.
                        let attempt = entry.retries + entry.hops;
                        let position =
                            (entry.resumed_tokens + entry.session.emitted_tokens()) as usize;
                        if let Some(kind) = self.fault_plan.command_fault(
                            device_index,
                            entry.seq,
                            position,
                            attempt,
                        ) {
                            entry.error = Some(SimError::Fault { kind, at_ms: end });
                            if trace.enabled() {
                                trace.instant(
                                    TraceKind::Fault,
                                    TraceLane::Request(entry.seq),
                                    &format!("fault {kind} {}", entry.abbr),
                                    end,
                                );
                            }
                            continue;
                        }
                    }
                    let label = format!("kv seq{} {abbr}", entry.seq);
                    if let Err(error) = entry.session.advance_step(&mut tracker, &label, end) {
                        entry.error = Some(error);
                        continue;
                    }
                    entry.max_batch_seen = entry.max_batch_seen.max(batch_size);
                    entry
                        .transfer_intervals
                        .push((now, now + cost.transfer_busy_ms * share));
                    entry
                        .compute_intervals
                        .push((end - cost.compute_busy_ms * share, end));
                }
                now = end;
            }

            retire_finished(
                &mut active,
                &mut outcomes,
                &mut orphans,
                chaos.is_some(),
                &mut tracker,
                &mut trace,
                device,
                device_index,
                now,
            )?;
        }

        let completed = outcomes.iter().filter(|o| o.succeeded()).count();
        let makespan = now;
        let report = DeviceReport {
            device: device.name.clone(),
            requests: total,
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
            peak_memory_mb: tracker.peak_bytes() as f64 / MIB,
            queue_depth_high_water: high_water,
            memory_trace: tracker.trace().clone(),
        };
        Ok(DecodeRun {
            outcomes,
            report,
            trace,
            orphans,
            lost,
        })
    }

    /// Compile (through the shared cache) and lower the prefill and step
    /// streams of `request`'s model, if this device has not seen it yet.
    fn ensure_plans(
        &self,
        plans: &mut HashMap<String, ModelPlans>,
        engine: &FlashMem,
        request: &ServeRequest,
        device: &DeviceSpec,
    ) -> SimResult<()> {
        let abbr = &request.model.abbr;
        if plans.contains_key(abbr) {
            return Ok(());
        }
        let spec = request.model.decode().expect("validated in the prologue");
        let (full, _) = self.cache.compile(engine, &request.model, device)?;
        let prefill_stream = lower_artifact(&full, &request.model, device, &self.config);
        let (step, _) = self.cache.compile(engine, &spec.step, device)?;
        let step_stream = lower_artifact(&step, &spec.step, device, &self.config);
        plans.insert(
            abbr.clone(),
            ModelPlans {
                prefill_stream,
                step_plan: DecodeStepPlan::new(step_stream)?,
                kv_bytes_per_token: spec.kv_bytes_per_token,
            },
        );
        Ok(())
    }

    /// A fresh [`ActiveDecode`] entry for an admitted request (the session
    /// is replaced by the caller once the model's KV stride is known).
    fn admit_entry(
        &self,
        seq: usize,
        request: &ServeRequest,
        warm: &HashSet<u64>,
        engine: &FlashMem,
        device: &DeviceSpec,
        start_ms: f64,
    ) -> ActiveDecode {
        let params = request.decode.expect("validated in the prologue");
        ActiveDecode {
            seq,
            abbr: request.model.abbr.clone(),
            tenant: request.tenant.clone(),
            priority: request.priority,
            arrival_ms: request.arrival_ms,
            deadline_ms: request.deadline_ms,
            start_ms,
            cache_hit: warm.contains(&ArtifactCache::key_for(engine, &request.model, device)),
            session: DecodeSession::new(params.prompt_tokens, params.output_tokens, 0),
            max_batch_seen: 1,
            transfer_intervals: Vec::new(),
            compute_intervals: Vec::new(),
            error: None,
            resumed_tokens: 0,
            retries: 0,
            hops: 0,
            failed_over: false,
        }
    }
}

/// Remove finished (or failed) sessions from the batch at boundary `now`,
/// releasing their KV residency and emitting their outcome rows. With
/// `chaos` set, fault-killed entries go to `orphans` for the re-dispatch
/// planner instead of committing a final outcome.
#[allow(clippy::too_many_arguments)]
fn retire_finished(
    active: &mut Vec<ActiveDecode>,
    outcomes: &mut Vec<RequestOutcome>,
    orphans: &mut Vec<DecodeOrphan>,
    chaos: bool,
    tracker: &mut MemoryTracker,
    trace: &mut TraceRecorder,
    device: &DeviceSpec,
    device_index: usize,
    now: f64,
) -> SimResult<()> {
    let mut i = 0;
    while i < active.len() {
        if active[i].session.is_done() || active[i].error.is_some() {
            let mut entry = active.remove(i);
            entry.session.release(tracker, now)?;
            if trace.enabled() {
                trace.instant(
                    TraceKind::BatchLeave,
                    TraceLane::Request(entry.seq),
                    &format!(
                        "leave {} ({} tok)",
                        entry.abbr,
                        entry.session.emitted_tokens()
                    ),
                    now,
                );
            }
            let peak = tracker.peak_bytes() as f64 / MIB;
            push_entry(
                entry,
                outcomes,
                orphans,
                chaos,
                device,
                device_index,
                now,
                peak,
            );
        } else {
            i += 1;
        }
    }
    Ok(())
}

/// The outcome row of a request whose maximum context alone exceeds the
/// engine's token budget: it can never join any batch, so it fails at its
/// arrival instant.
fn budget_failure_outcome(
    seq: usize,
    request: &ServeRequest,
    device: &DeviceSpec,
    device_index: usize,
    token_budget: u64,
) -> RequestOutcome {
    let params = request.decode.expect("validated in the prologue");
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
        deadline_ms: request.deadline_ms,
        admission_laxity_ms: None,
        resident_estimate_bytes: 0,
        preemptions: 0,
        suspended_ms: 0.0,
        resume_penalty_ms: 0.0,
        cache_hit: false,
        peak_memory_mb: 0.0,
        phases: PhaseBreakdown::attribute(0.0, 0.0, 0.0, 0.0, &[], &[]),
        rejected: None,
        stolen_from: None,
        failure: Some(FailureCause::Execution),
        retries: 0,
        failed_over: false,
        error: Some(SimError::InvalidParameter {
            message: format!(
                "request needs {} context tokens but the engine's token budget is {}",
                params.max_context_tokens(),
                token_budget
            ),
        }),
        report: None,
        decode: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashmem_graph::ModelZoo;

    fn engine(batch: BatchConfig) -> DecodeEngine {
        DecodeEngine::new(
            vec![DeviceSpec::oneplus_12()],
            FlashMemConfig::memory_priority(),
        )
        .with_batching(batch)
    }

    fn burst(n: usize, prompt: u32, output: u32) -> Vec<ServeRequest> {
        (0..n)
            .map(|i| {
                ServeRequest::new(ModelZoo::gptneo_small(), format!("tenant-{}", i % 2))
                    .with_decode_tokens(prompt, output)
            })
            .collect()
    }

    #[test]
    fn continuous_batching_beats_one_shot_on_the_same_workload() {
        let requests = burst(6, 16, 8);
        let pool = ThreadPool::with_threads(1);
        let one_shot = engine(BatchConfig::one_shot())
            .run_on(&pool, &requests)
            .unwrap();
        let continuous = engine(BatchConfig::default())
            .run_on(&pool, &requests)
            .unwrap();
        assert_eq!(one_shot.completed(), 6);
        assert_eq!(continuous.completed(), 6);
        // Same tokens either way; batching amortizes the per-step weight
        // traffic, so the continuous run finishes sooner and its token
        // throughput is strictly higher.
        assert_eq!(one_shot.decode_tokens, 6 * 8);
        assert_eq!(continuous.decode_tokens, 6 * 8);
        assert!(continuous.makespan_ms() < one_shot.makespan_ms());
        assert!(
            continuous.tokens_per_s > one_shot.tokens_per_s,
            "continuous {} tok/s vs one-shot {} tok/s",
            continuous.tokens_per_s,
            one_shot.tokens_per_s
        );
        // The batch actually formed.
        assert!(continuous
            .outcomes
            .iter()
            .any(|o| o.decode.as_ref().unwrap().max_batch > 1));
        assert!(one_shot
            .outcomes
            .iter()
            .all(|o| o.decode.as_ref().unwrap().max_batch == 1));
    }

    #[test]
    fn token_accounting_is_exact() {
        let requests = burst(4, 12, 5);
        let report = engine(BatchConfig::default()).run(&requests).unwrap();
        assert!(report.ttft.is_some());
        assert!(report.itl.is_some());
        for outcome in &report.outcomes {
            let decode = outcome
                .decode
                .as_ref()
                .expect("all requests are generative");
            assert_eq!(decode.output_tokens, 5);
            assert_eq!(decode.itl_ms.len(), 4);
            assert!(decode.ttft_ms > 0.0);
            assert!(decode.itl_ms.iter().all(|&gap| gap > 0.0));
            // Peak KV = (prompt + output - 1) tokens at the model's stride.
            let spec = ModelZoo::gptneo_small();
            let stride = spec.decode().unwrap().kv_bytes_per_token;
            assert_eq!(decode.kv_peak_bytes, (12 + 5 - 1) * stride);
        }
    }

    #[test]
    fn reports_are_byte_identical_across_pool_widths() {
        let mut requests = burst(8, 16, 6);
        for (i, r) in requests.iter_mut().enumerate() {
            r.arrival_ms = 5.0 * i as f64;
        }
        let serial = engine(BatchConfig::default())
            .run_on(&ThreadPool::with_threads(1), &requests)
            .unwrap();
        let parallel = engine(BatchConfig::default())
            .run_on(&ThreadPool::with_threads(4), &requests)
            .unwrap();
        assert_eq!(format!("{serial:?}"), format!("{parallel:?}"));
    }

    #[test]
    fn one_shot_requests_are_rejected_with_a_clear_error() {
        let requests = vec![ServeRequest::new(ModelZoo::gptneo_small(), "a")];
        let err = engine(BatchConfig::default()).run(&requests).unwrap_err();
        assert!(err.to_string().contains("no decode token counts"), "{err}");
        let requests = vec![ServeRequest::new(ModelZoo::vit(), "a").with_decode_tokens(8, 4)];
        let err = engine(BatchConfig::default()).run(&requests).unwrap_err();
        assert!(err.to_string().contains("no decode spec"), "{err}");
    }

    #[test]
    fn non_finite_arrivals_are_rejected_with_a_typed_error() {
        // The fields are public, so a caller can bypass the builder's clamp.
        // A non-finite arrival must come back as a typed error, not as a
        // panic in the round-robin placement sort.
        let mut requests = burst(3, 8, 4);
        for arrival in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            requests[2].arrival_ms = arrival;
            match engine(BatchConfig::default()).run_on(&ThreadPool::with_threads(1), &requests) {
                Err(SimError::InvalidParameter { message }) => {
                    assert!(message.contains("request 2"), "{message}");
                    assert!(message.contains("finite"), "{message}");
                }
                other => panic!("expected a typed arrival error, got {other:?}"),
            }
        }
    }

    #[test]
    fn oversized_context_fails_fast() {
        let requests =
            vec![ServeRequest::new(ModelZoo::gptneo_small(), "a").with_decode_tokens(4000, 100)];
        let err = engine(BatchConfig::default()).run(&requests).unwrap_err();
        assert!(err.to_string().contains("context tokens"), "{err}");
    }

    #[test]
    fn token_budget_gates_joins_and_oversized_requests_fail() {
        // Budget fits one 16+4-1=19-token request but not two at once.
        let tight = BatchConfig {
            max_batch: 8,
            token_budget: 30,
            waiting_served_ratio: 0.0,
        };
        let report = engine(tight).run(&burst(3, 16, 4)).unwrap();
        assert_eq!(report.completed(), 3);
        // Nobody ever shared a step: the budget serialized them.
        assert!(report
            .outcomes
            .iter()
            .all(|o| o.decode.as_ref().unwrap().max_batch == 1));
        // A request whose own context exceeds the budget fails outright.
        let report = engine(BatchConfig {
            token_budget: 10,
            ..tight
        })
        .run(&burst(1, 16, 4))
        .unwrap();
        assert_eq!(report.completed(), 0);
        assert_eq!(report.failed(), 1);
        assert!(report.outcomes[0]
            .error
            .as_ref()
            .unwrap()
            .to_string()
            .contains("token budget"));
    }

    #[test]
    fn trace_records_the_decode_lifecycle() {
        let report = engine(BatchConfig::default())
            .with_trace(TraceConfig::enabled())
            .run(&burst(3, 8, 4))
            .unwrap();
        let trace = report.trace.as_ref().expect("tracing was enabled");
        let kinds: Vec<TraceKind> = trace.processes[0].events.iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&TraceKind::Prefill));
        assert!(kinds.contains(&TraceKind::DecodeStep));
        assert!(kinds.contains(&TraceKind::BatchJoin));
        assert!(kinds.contains(&TraceKind::BatchLeave));
        // Tracing never perturbs the simulation.
        let untraced = engine(BatchConfig::default()).run(&burst(3, 8, 4)).unwrap();
        assert_eq!(report.decode_tokens, untraced.decode_tokens);
        assert_eq!(report.makespan_ms(), untraced.makespan_ms());
    }
}
