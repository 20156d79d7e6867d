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
//! arrival order). The rest is the fleet runner
//! [`ServeEngine`](crate::ServeEngine) runs on: each device's step loop is
//! a pure function of its assigned request list, stepped single-threaded
//! inside one pool job; outcomes merge sorted by submission `seq` and trace
//! buffers merge in fleet order, so the report is byte-identical at every
//! pool width. A fault-free run is one round. Under a [`FaultPlan`] the
//! runner's sequential planner retries, fails over and quarantines exactly
//! as for one-shot serving; a re-dispatched generative request re-prefills
//! from the tokens it had emitted.
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

use std::collections::{BTreeMap, HashMap};
use std::convert::Infallible;
use std::sync::Arc;

use flashmem_core::cache::ArtifactCache;
use flashmem_core::pool::{self, ThreadPool};
use flashmem_core::telemetry::{TraceConfig, TraceKind, TraceLane, TraceRecorder};
use flashmem_core::{lower_artifact, FlashMem, FlashMemConfig};
use flashmem_gpu_sim::decode::replay_stream;
use flashmem_gpu_sim::engine::CommandStream;
use flashmem_gpu_sim::error::SimResult;
use flashmem_gpu_sim::memory::MemoryTracker;
use flashmem_gpu_sim::{
    DecodeSession, DecodeStepPlan, DeviceSpec, FaultKind, FaultPlan, SimError, StepCost,
};

use crate::fleet::{
    Carry, DeviceJob, DeviceLoop, DeviceRun, Fleet, NextAttempt, Orphan, Redispatch,
};
use crate::metrics::{DecodeOutcome, DeviceReport, RequestOutcome, ServeReport};
use crate::policy::RecoveryControl;
use crate::request::{clamp_non_negative, DecodeParams, ServeRequest};

const MIB: f64 = 1024.0 * 1024.0;

/// Continuous-batching knobs. The defaults are deliberately conservative:
/// a batch of 8 and a 2048-token KV budget fit every autoregressive model in
/// the zoo on every device spec without starving one-shot traffic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchConfig {
    /// Largest number of requests decoding together on one device (at
    /// least 1; 1 means one-shot serving — each request prefills and
    /// decodes alone).
    pub max_batch: usize,
    /// Fleet-wide KV-cache budget per device, in *context tokens*. A
    /// request reserves its maximum context (`prompt + output − 1`) at
    /// join, so the resident KV of a device's batch never exceeds the
    /// budget. At least 1.
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

    /// Reject knobs no batch can run under.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidParameter`] for a zero `max_batch` or
    /// `token_budget` or a NaN `waiting_served_ratio`.
    fn check(&self) -> SimResult<()> {
        let problem = if self.max_batch == 0 {
            "max_batch is 0; a batch needs at least one slot"
        } else if self.token_budget == 0 {
            "token_budget is 0; no request fits in it"
        } else if self.waiting_served_ratio.is_nan() {
            "waiting_served_ratio is NaN; it must be a number"
        } else {
            return Ok(());
        };
        Err(SimError::InvalidParameter {
            message: format!("BatchConfig::{problem}"),
        })
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
    /// The request's outcome row, kept current while it decodes; a step
    /// failure is recorded on it.
    row: RequestOutcome,
    session: DecodeSession,
    /// Largest per-model sub-batch this request shared a step with.
    max_batch_seen: usize,
    /// Transfer-queue busy intervals attributed to this request (absolute
    /// time), for phase attribution.
    transfer_intervals: Vec<(f64, f64)>,
    /// Compute-queue busy intervals attributed to this request.
    compute_intervals: Vec<(f64, f64)>,
    /// Tokens emitted by *earlier* attempts (a re-prefilled request resumes
    /// from this position; 0 on a first attempt).
    resumed_tokens: u32,
    /// Device-loss failover hops this request consumed before this attempt.
    hops: u32,
}

impl ActiveDecode {
    /// Injected-fault attempt ordinal, as in [`Carry::attempt`].
    fn attempt(&self) -> u32 {
        self.row.retries + self.hops
    }

    /// Close the row at `completion_ms` against the device's peak so far,
    /// with the token-level result of a request that did not fail. The
    /// session's KV must already be released.
    fn into_outcome(mut self, completion_ms: f64, tracker: &MemoryTracker) -> RequestOutcome {
        let kv_peak_bytes = self.session.max_context_tokens() * self.session.kv().bytes_per_token();
        if self.row.error.is_none() {
            // A re-prefilled attempt's session holds `original prompt +
            // resumed` context and emits only the remaining tokens; the
            // outcome reports the submission's cumulative view.
            let times = self.session.token_times_ms();
            self.row.decode = Some(DecodeOutcome {
                prompt_tokens: self.session.prompt_tokens() - self.resumed_tokens,
                output_tokens: self.resumed_tokens + self.session.emitted_tokens(),
                ttft_ms: times.first().map_or(0.0, |t| t - self.row.arrival_ms),
                itl_ms: times.windows(2).map(|w| w[1] - w[0]).collect(),
                kv_peak_bytes,
                max_batch: self.max_batch_seen,
            });
        }
        self.row.resident_estimate_bytes = kv_peak_bytes;
        self.row.peak_memory_mb = tracker.peak_bytes() as f64 / MIB;
        self.row.close(
            completion_ms,
            &self.transfer_intervals,
            &self.compute_intervals,
        );
        self.row
    }
}

/// The rows and orphans one device's step loop has retired so far.
#[derive(Default)]
struct Retired {
    outcomes: Vec<RequestOutcome>,
    orphans: Vec<Orphan<u32>>,
}

impl Retired {
    /// Retire `entry` at `completion_ms`: an injected fault makes it an
    /// orphan for the recovery planner, carrying the request's cumulative
    /// emitted tokens; anything else commits its outcome row.
    fn push(&mut self, entry: ActiveDecode, completion_ms: f64, tracker: &MemoryTracker) {
        let faulted = matches!(entry.row.error, Some(SimError::Fault { .. }));
        let emitted = entry.resumed_tokens + entry.session.emitted_tokens();
        let (retries, hops) = (entry.row.retries, entry.hops);
        let outcome = entry.into_outcome(completion_ms, tracker);
        if faulted {
            self.orphans.push(Orphan {
                outcome,
                retries,
                hops,
                resume: emitted,
            });
        } else {
            self.outcomes.push(outcome);
        }
    }

    /// The leave phase: remove finished (or failed) sessions from the batch
    /// at boundary `now`, release their KV residency and retire them.
    fn leave(
        &mut self,
        active: &mut Vec<ActiveDecode>,
        now: f64,
        tracker: &mut MemoryTracker,
        trace: &mut TraceRecorder,
    ) -> SimResult<()> {
        let mut i = 0;
        while i < active.len() {
            if !active[i].session.is_done() && active[i].row.error.is_none() {
                i += 1;
                continue;
            }
            let mut entry = active.remove(i);
            entry.session.release(tracker, now)?;
            if trace.enabled() {
                trace.instant(
                    TraceKind::BatchLeave,
                    TraceLane::Request(entry.row.seq),
                    &format!(
                        "leave {} ({} tok)",
                        entry.row.model,
                        entry.session.emitted_tokens()
                    ),
                    now,
                );
            }
            self.push(entry, now, tracker);
        }
        Ok(())
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
    fleet: Fleet,
    batch: BatchConfig,
}

impl DecodeEngine {
    /// A continuous-batching engine over `fleet` with default
    /// [`BatchConfig`] knobs.
    pub fn new(fleet: Vec<DeviceSpec>, config: FlashMemConfig) -> Self {
        DecodeEngine {
            fleet: Fleet::new(fleet, config),
            batch: BatchConfig::default(),
        }
    }

    /// Arm a deterministic [`FaultPlan`] (builder style). Empty by default;
    /// with an empty plan nothing can fault, so the run is a single round
    /// and the step loops skip every per-command fault draw.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fleet.fault_plan = plan;
        self
    }

    /// Configure failure recovery (builder style): the same retry budgets,
    /// simulated-time backoff, device-loss failover and quarantine circuit
    /// breaker with probes as [`ServeEngine`](crate::ServeEngine), planned
    /// by the same sequential planner. A redispatched request
    /// **re-prefills from its token position** (tokens already streamed to
    /// the client are not re-generated: the retry's prompt absorbs them,
    /// preserving the `prompt + output − 1` context invariant). A retried
    /// request's [`DecodeOutcome`] reports the *final* attempt's token
    /// telemetry.
    pub fn with_recovery_control(mut self, recovery: RecoveryControl) -> Self {
        self.fleet.recovery = recovery;
        self
    }

    /// Replace the batching knobs (builder style). A negative
    /// `waiting_served_ratio` is clamped to 0; a zero `max_batch` or
    /// `token_budget` and a NaN ratio are kept, and the run rejects them.
    pub fn with_batching(mut self, batch: BatchConfig) -> Self {
        self.batch = BatchConfig {
            waiting_served_ratio: clamp_non_negative(batch.waiting_served_ratio),
            ..batch
        };
        self
    }

    /// Share an existing plan cache instead of a private one.
    pub fn with_cache(mut self, cache: Arc<ArtifactCache>) -> Self {
        self.fleet.cache = cache;
        self
    }

    /// Keep each device's memory series (builder style), as
    /// [`ServeEngine::with_memory_series`](crate::ServeEngine::with_memory_series)
    /// does: every [`DeviceReport::memory_trace`] is then `Some`. Off by
    /// default, when a device's memory costs O(1) however many steps it
    /// runs; peaks are exact either way.
    pub fn with_memory_series(mut self) -> Self {
        self.fleet.memory_series = true;
        self
    }

    /// Configure event tracing (builder style). Off by default; when
    /// enabled the report's trace carries [`TraceKind::Prefill`] spans and
    /// [`TraceKind::BatchJoin`]/[`TraceKind::BatchLeave`] instants on each
    /// request's lane, plus [`TraceKind::DecodeStep`] spans on the compute
    /// lane.
    pub fn with_trace(mut self, trace: TraceConfig) -> Self {
        self.fleet.trace = trace;
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
    /// non-finite `arrival_ms`, a NaN or negative `deadline_ms`, a
    /// non-finite or negative [`RecoveryControl`] time, a [`FaultPlan`]
    /// naming a device outside the fleet or holding a non-finite value, a
    /// zero `max_batch` or `token_budget` or a NaN `waiting_served_ratio`
    /// in the [`BatchConfig`], a request
    /// without decode token counts, a model without a decode spec, or a
    /// request whose maximum context exceeds its model's context window.
    /// Worker panics surface as [`SimError::WorkerPanic`]; per-request
    /// failures (out-of-memory) are recorded in the outcomes instead.
    pub fn run_on(&self, pool: &ThreadPool, requests: &[ServeRequest]) -> SimResult<ServeReport> {
        self.fleet.check("DecodeEngine", requests)?;
        self.batch.check()?;

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

        // Round-robin placement over (arrival, seq) order: round-robin keeps
        // per-device batches balanced, which is what batching throughput
        // wants.
        let fleet_len = self.fleet.devices.len();
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
        let warm = self.fleet.warm_keys(requests);
        self.fleet
            .run(self, pool, requests, per_device, vec![(); fleet_len], warm)
    }
}

impl DeviceLoop for DecodeEngine {
    type Prologue = ();
    /// Tokens the killed attempt's request had emitted over all attempts.
    type Resume = u32;
    type Seed = Infallible;

    fn policy_name(&self) -> String {
        if self.batch.max_batch == 1 {
            "decode-one-shot".to_string()
        } else {
            format!("decode-continuous(b={})", self.batch.max_batch)
        }
    }

    fn allowed_devices(&self, _tenant: &str) -> Option<Vec<usize>> {
        None
    }

    /// Run one device's step loop to completion for one round.
    /// Single-threaded per device; a pure function of the assigned request
    /// list and the carried attempt state, so the result is identical at
    /// every pool width.
    #[allow(clippy::too_many_lines)]
    fn run_device(&self, job: DeviceJob<'_, Self>) -> SimResult<DeviceRun<u32>> {
        let DeviceJob {
            index: device_index,
            device,
            engine,
            sim,
            assigned,
            warm,
            carry,
            ..
        } = job;
        // A fresh entry for an admitted request, stamped with its carried
        // attempt state (the session is replaced once the model's KV stride
        // is known).
        let admit = |seq: usize, request: &ServeRequest, start_ms: f64| -> ActiveDecode {
            let params = request.decode.expect("validated in the prologue");
            let carry = carry.get(&seq);
            let mut row = RequestOutcome::unstarted(seq, request, device, device_index, carry);
            row.start_ms = start_ms;
            row.cache_hit = warm.contains(&ArtifactCache::key_for(&engine, &request.model, device));
            ActiveDecode {
                row,
                session: DecodeSession::new(params.prompt_tokens, params.output_tokens, 0),
                max_batch_seen: 1,
                transfer_intervals: Vec::new(),
                compute_intervals: Vec::new(),
                resumed_tokens: carry.map_or(0, |c| c.resumed_tokens),
                hops: carry.map_or(0, |c| c.hops),
            }
        };
        let faults_armed = !self.fleet.fault_plan.is_empty();
        let mut faults = 0_u32;
        let mut trace = TraceRecorder::new(self.fleet.trace);
        let mut tracker = self.fleet.tracker(device);
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
        let mut retired = Retired::default();
        let lost_at = self.fleet.fault_plan.device_loss_ms(device_index);
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
            if lost_at.is_some_and(|lost_at_ms| now + 1e-9 >= lost_at_ms) {
                lost = true;
                if trace.enabled() {
                    trace.instant(
                        TraceKind::Fault,
                        TraceLane::Host,
                        &format!("fault device-loss {}", device.name),
                        now,
                    );
                }
                let loss = |at_ms| SimError::Fault {
                    kind: FaultKind::DeviceLoss,
                    at_ms,
                };
                for mut entry in active.drain(..) {
                    entry.row.fail(loss(now));
                    let _ = entry.session.release(&mut tracker, now);
                    retired.push(entry, now, &tracker);
                }
                for &(seq, request) in &waiting[widx..] {
                    let at = now.max(request.arrival_ms);
                    let mut entry = admit(seq, request, at);
                    entry.row.fail(loss(at));
                    retired.push(entry, at, &tracker);
                }
                break;
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
            while join && widx < waiting.len() && active.len() < self.batch.max_batch {
                let (seq, request) = waiting[widx];
                if request.arrival_ms > now + 1e-9 {
                    break;
                }
                let params = request.decode.expect("validated in the prologue");
                let committed: u64 = active.iter().map(|a| a.session.max_context_tokens()).sum();
                if committed + params.max_context_tokens() > self.batch.token_budget {
                    if !active.is_empty() {
                        // Head-of-line request waits for leavers to free
                        // budget.
                        break;
                    }
                    // Nothing to wait for: this request alone exceeds the
                    // budget and can never be served, so it fails at its
                    // arrival instant.
                    widx += 1;
                    let mut row =
                        RequestOutcome::unstarted(seq, request, device, device_index, None);
                    row.fail(SimError::InvalidParameter {
                        message: format!(
                            "request needs {} context tokens but the engine's token budget is {}",
                            params.max_context_tokens(),
                            self.batch.token_budget
                        ),
                    });
                    retired.outcomes.push(row);
                    continue;
                }
                widx += 1;
                let abbr = request.model.abbr.clone();
                let mut entry = admit(seq, request, now);
                // Memoized prefill: the first request of a model replays the
                // full stream through the tracker (establishing the transient
                // peak); later ones reuse the cost.
                let cost = self
                    .ensure_plans(&mut plans, &engine, request, device)
                    .and_then(|()| match prefill_costs.get(&abbr) {
                        Some(&cost) => Ok(cost),
                        None => {
                            let stream = &plans[&abbr].prefill_stream;
                            let cost = replay_stream(stream, &sim, &mut tracker, now)?;
                            prefill_costs.insert(abbr.clone(), cost);
                            Ok(cost)
                        }
                    });
                let cost = match cost {
                    Ok(cost) => cost,
                    Err(error) => {
                        entry.row.fail(error);
                        retired.push(entry, now, &tracker);
                        continue;
                    }
                };
                let kv_bytes_per_token = plans[&abbr].kv_bytes_per_token;
                let start = now;
                let end = start + cost.makespan_ms;
                transfer_busy += cost.transfer_busy_ms;
                compute_busy += cost.compute_busy_ms;
                entry.session = DecodeSession::new(
                    params.prompt_tokens,
                    params.output_tokens,
                    kv_bytes_per_token,
                );
                // The prefill pass itself may take an injected fault, keyed
                // by the resume position so a retry redraws.
                let fault = faults_armed
                    .then(|| {
                        self.fleet.fault_plan.command_fault(
                            device_index,
                            seq,
                            entry.resumed_tokens as usize,
                            entry.attempt(),
                        )
                    })
                    .flatten();
                if let Some(kind) = fault {
                    faults += 1;
                    entry.row.fail(SimError::Fault { kind, at_ms: end });
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
                let label = format!("kv seq{seq} {abbr}");
                if let Err(error) = entry.session.finish_prefill(&mut tracker, &label, end) {
                    entry.row.fail(error);
                    let _ = entry.session.release(&mut tracker, end);
                    retired.push(entry, end, &tracker);
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
                        u64::from(params.prompt_tokens) * kv_bytes_per_token,
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

            // ---- leave phase: retire sessions done at this boundary ----
            // Covers output_tokens == 1 requests, done at prefill.
            retired.leave(&mut active, now, &mut tracker, &mut trace)?;
            if active.is_empty() {
                continue;
            }

            // ---- step phase: one batched decode step ----
            // Per-model sub-batches, in abbreviation order for determinism;
            // sub-batches replay back to back on the device's queues.
            let mut groups: BTreeMap<String, Vec<usize>> = BTreeMap::new();
            for (i, entry) in active.iter().enumerate() {
                groups.entry(entry.row.model.clone()).or_default().push(i);
            }
            for (abbr, members) in groups {
                let batch_size = members.len();
                // Needed only on a step-cost miss or when tracing; the
                // memo hit is the per-token hot path.
                let model_plans = || plans.get(&abbr).expect("active implies compiled");
                let key = (abbr.clone(), batch_size);
                let cost = match step_costs.get(&key) {
                    Some(&cost) => cost,
                    None => {
                        let plan = &model_plans().step_plan;
                        match plan.replay(&sim, &mut tracker, batch_size, now) {
                            Ok(cost) => {
                                step_costs.insert(key, cost);
                                cost
                            }
                            Err(error) => {
                                // The whole sub-batch shares the failed step.
                                for &i in &members {
                                    active[i].row.fail(error.clone());
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
                        batch_size as u64 * model_plans().kv_bytes_per_token,
                    );
                }
                let share = 1.0 / batch_size as f64;
                for &i in &members {
                    let entry = &mut active[i];
                    // The step's kernel may take an injected fault for this
                    // sequence, keyed by its global token position so firing
                    // is schedule- and batch-independent.
                    let position = (entry.resumed_tokens + entry.session.emitted_tokens()) as usize;
                    let fault = faults_armed
                        .then(|| {
                            self.fleet.fault_plan.command_fault(
                                device_index,
                                entry.row.seq,
                                position,
                                entry.attempt(),
                            )
                        })
                        .flatten();
                    if let Some(kind) = fault {
                        faults += 1;
                        entry.row.fail(SimError::Fault { kind, at_ms: end });
                        if trace.enabled() {
                            trace.instant(
                                TraceKind::Fault,
                                TraceLane::Request(entry.row.seq),
                                &format!("fault {kind} {abbr}"),
                                end,
                            );
                        }
                        continue;
                    }
                    let label = format!("kv seq{} {abbr}", entry.row.seq);
                    if let Err(error) = entry.session.advance_step(&mut tracker, &label, end) {
                        entry.row.fail(error);
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

            retired.leave(&mut active, now, &mut tracker, &mut trace)?;
        }

        let report = DeviceReport {
            requests: total,
            completed: retired.outcomes.iter().filter(|o| o.succeeded()).count(),
            queue_depth_high_water: high_water,
            ..DeviceReport::new(
                device.name.clone(),
                now,
                transfer_busy,
                compute_busy,
                tracker.peak_bytes() as f64 / MIB,
                self.fleet.memory_series.then(|| tracker.into_trace()),
            )
        };
        Ok(DeviceRun {
            outcomes: retired.outcomes,
            report,
            trace,
            orphans: retired.orphans,
            lost,
            faults,
        })
    }

    /// Re-prefill from the emitted-token position: the new attempt's prompt
    /// absorbs the tokens already streamed, and it generates the rest.
    fn redispatch(
        &self,
        request: &ServeRequest,
        plan: &Redispatch,
        emitted: u32,
    ) -> NextAttempt<Infallible> {
        let mut request = Box::new(request.clone());
        let params = request.decode.expect("validated in the prologue");
        request.decode = Some(DecodeParams {
            prompt_tokens: params.prompt_tokens + emitted,
            output_tokens: params.output_tokens - emitted,
        });
        request.arrival_ms = plan.ready_ms;
        NextAttempt::Restart(
            request,
            Carry {
                resumed_tokens: emitted,
                ..plan.carry
            },
        )
    }
}

impl DecodeEngine {
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
        let (full, _) = self
            .fleet
            .cache
            .compile_shared(engine, &request.model, device)?;
        let prefill_stream = lower_artifact(&full, &request.model, device, &self.fleet.config);
        let (step, _) = self
            .fleet
            .cache
            .compile_shared(engine, &spec.step, device)?;
        let step_stream = lower_artifact(&step, &spec.step, device, &self.fleet.config);
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
        // The fields are public, so a caller can bypass the builders' clamps.
        // A non-finite arrival must come back as a typed error, not as a
        // panic in the round-robin placement sort; a NaN or negative
        // deadline must not be counted as a missed SLO.
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
        fn rejects(engine: DecodeEngine, requests: &[ServeRequest], words: [&str; 2]) {
            match engine.run_on(&ThreadPool::with_threads(1), requests) {
                Err(SimError::InvalidParameter { message }) => {
                    assert!(words.iter().all(|w| message.contains(w)), "{message}");
                }
                other => panic!("expected a typed {words:?} error, got {other:?}"),
            }
        }
        let plain = || engine(BatchConfig::default());
        let mut requests = burst(3, 8, 4);
        for (arrival, deadline, word) in cases {
            requests[2].arrival_ms = arrival;
            requests[2].deadline_ms = deadline;
            rejects(plain(), &requests, ["request 2", word]);
        }
        // A NaN passed to a builder meets the same check as one set on the
        // field: the builders clamp negatives but keep NaN.
        requests[2] = burst(3, 8, 4)[2].clone().with_arrival_ms(nan);
        rejects(plain(), &requests, ["request 2", "finite"]);
        requests[2] = burst(3, 8, 4)[2].clone().with_deadline_ms(nan);
        rejects(plain(), &requests, ["request 2", "deadline"]);
        // So do the recovery knobs.
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
            let engine = plain().with_recovery_control(recovery);
            rejects(engine, &burst(3, 8, 4), ["RecoveryControl", word]);
        }
        // So do a fault plan naming a device outside the fleet or holding a
        // NaN, and batching knobs no batch can run under: `with_batching`
        // keeps a zero and a NaN for the check.
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
            rejects(plain().with_fault_plan(plan), &burst(3, 8, 4), words);
        }
        let knobs = BatchConfig::default();
        for (batch, word) in [
            (
                BatchConfig {
                    max_batch: 0,
                    ..knobs
                },
                "max_batch",
            ),
            (
                BatchConfig {
                    token_budget: 0,
                    ..knobs
                },
                "token_budget",
            ),
            (
                BatchConfig {
                    waiting_served_ratio: nan,
                    ..knobs
                },
                "waiting_served_ratio",
            ),
        ] {
            rejects(engine(batch), &burst(3, 8, 4), ["BatchConfig", word]);
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
