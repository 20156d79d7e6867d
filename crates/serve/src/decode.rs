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
//! A device runs the loop on one per-device state, `DecodeDevice`, the twin
//! of the one-shot engine's: its `join`, `step` and `leave` phases are the
//! three above, `lose` drains a lost device and `finish` builds the device
//! report. Each in-flight request keeps its own [`DecodeParams`], KV cache
//! and token instants. Every way a request leaves the device (completion,
//! a modelled error, an injected fault, device loss) goes through one
//! `retire`, which yields the final outcome row or, after an injected
//! fault, an orphan for the recovery planner. Token counts of 0 are
//! rejected at entry.
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
//! peak) and memoizes the [`StepCost`] in the model's one entry, beside its
//! lowered streams and KV stride. Later steps grow each member's KV by one
//! token and time-stamp the token without re-stepping the stream. Prefill
//! costs are memoized per model the same way. A failed replay is not
//! memoized.

use std::collections::{HashMap, HashSet};
use std::convert::Infallible;
use std::sync::Arc;

use flashmem_core::cache::ArtifactCache;
use flashmem_core::pool::{self, ThreadPool};
use flashmem_core::telemetry::{TraceConfig, TraceKind, TraceLane, TraceRecorder};
use flashmem_core::{lower_artifact, FlashMem, FlashMemConfig};
use flashmem_gpu_sim::decode::replay_stream;
use flashmem_gpu_sim::engine::{CommandStream, GpuSimulator};
use flashmem_gpu_sim::error::SimResult;
use flashmem_gpu_sim::memory::MemoryTracker;
use flashmem_gpu_sim::{
    DecodeStepPlan, DeviceSpec, FaultKind, FaultPlan, KvCache, SimError, StepCost,
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
    /// without decode token counts or with a zero count (the builders clamp
    /// both to at least 1, but the fields are public), a model without a
    /// decode spec, or a request whose maximum context exceeds its model's
    /// context window.
    /// Worker panics surface as [`SimError::WorkerPanic`]; per-request
    /// failures (out-of-memory) are recorded in the outcomes instead.
    pub fn run_on(&self, pool: &ThreadPool, requests: &[ServeRequest]) -> SimResult<ServeReport> {
        self.fleet.check("DecodeEngine", requests)?;
        self.batch.check()?;

        // ---- validation + placement: the sequential prologue ----
        for (seq, request) in requests.iter().enumerate() {
            let Some(params) = request.decode else {
                return Err(SimError::InvalidParameter {
                    message: format!(
                        "request for {} has no decode token counts; DecodeEngine only serves \
                         generative requests (use ServeRequest::with_decode_tokens)",
                        request.model.abbr
                    ),
                });
            };
            if params.prompt_tokens == 0 || params.output_tokens == 0 {
                return Err(SimError::InvalidParameter {
                    message: format!(
                        "request {seq} for {} asks for {} prompt and {} output tokens; both \
                         counts must be at least 1",
                        request.model.abbr, params.prompt_tokens, params.output_tokens
                    ),
                });
            }
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
    fn run_device(&self, job: DeviceJob<'_, Self>) -> SimResult<DeviceRun<u32>> {
        let lost_at_ms = self.fleet.fault_plan.device_loss_ms(job.index);
        let mut device = DecodeDevice::new(self, job);
        while device.next < device.waiting.len() || !device.active.is_empty() {
            if device.active.is_empty() {
                // An idle device jumps to the next arrival.
                let (_, next) = device.waiting[device.next];
                device.now = device.now.max(next.arrival_ms);
            }
            if lost_at_ms.is_some_and(|t| device.now + 1e-9 >= t) {
                device.lose();
                break;
            }
            device.join();
            // Retires requests done at prefill (one output token) and
            // prefill faults.
            device.leave()?;
            if !device.active.is_empty() {
                device.step();
                device.leave()?;
            }
        }
        Ok(device.finish())
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

/// Compiled per-model state one device keeps across its whole run.
struct ModelPlans<'a> {
    abbr: &'a str,
    /// Lowered full-graph stream (the prefill pass).
    prefill_stream: CommandStream,
    /// The single-token step plan the batch replays.
    step_plan: DecodeStepPlan,
    /// KV bytes appended per context token.
    kv_bytes_per_token: u64,
    /// Replay costs by batch width, memoized on first use; width 0 is the
    /// prefill pass.
    costs: Vec<Option<StepCost>>,
}

/// One in-flight generative request on a device.
struct ActiveDecode {
    /// The request's outcome row, kept current while it decodes; a failure
    /// is recorded on it.
    row: RequestOutcome,
    /// This attempt's token counts: a re-prefilled attempt's prompt holds
    /// the tokens earlier attempts emitted.
    params: DecodeParams,
    /// Index of the request's model in [`DecodeDevice::models`].
    model: usize,
    kv: KvCache,
    /// Instant (absolute ms) of every token this attempt emitted: the first
    /// is the time-to-first-token instant, the gaps are the inter-token
    /// latencies.
    token_times_ms: Vec<f64>,
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
}

impl ActiveDecode {
    /// Tokens this attempt emitted.
    fn emitted(&self) -> u32 {
        self.token_times_ms.len() as u32
    }

    /// The submission's position in its token sequence: the tokens all its
    /// attempts emitted.
    fn position(&self) -> u32 {
        self.resumed_tokens + self.emitted()
    }

    /// Every output token is emitted; after the last step the KV holds
    /// `prompt + output − 1` tokens (the last token is never fed back).
    fn is_done(&self) -> bool {
        self.emitted() >= self.params.output_tokens
    }

    /// Close the row at `completion_ms` with the reserved KV as its
    /// resident estimate and, for a request that did not fail, its
    /// token-level result. The KV must already be released. Returns the row
    /// and the request's token position.
    fn close(mut self, completion_ms: f64) -> (RequestOutcome, u32) {
        let kv_peak_bytes = self.params.max_context_tokens() * self.kv.bytes_per_token();
        if self.row.error.is_none() {
            // A re-prefilled attempt holds `original prompt + resumed`
            // context and emits only the remaining tokens; the outcome
            // reports the submission's cumulative view.
            let times = &self.token_times_ms;
            self.row.decode = Some(DecodeOutcome {
                prompt_tokens: self.params.prompt_tokens - self.resumed_tokens,
                output_tokens: self.position(),
                ttft_ms: times.first().map_or(0.0, |t| t - self.row.arrival_ms),
                itl_ms: times.windows(2).map(|w| w[1] - w[0]).collect(),
                kv_peak_bytes,
                max_batch: self.max_batch_seen,
            });
        }
        self.row.resident_estimate_bytes = kv_peak_bytes;
        self.row.close(
            completion_ms,
            &self.transfer_intervals,
            &self.compute_intervals,
        );
        let position = self.position();
        (self.row, position)
    }
}

/// One device's state through one round of the step loop: its waiting
/// list, the batch in flight, the clock and memory tracker they share, the
/// compiled plans and memoized costs of every model it has served, and
/// everything the round reports.
struct DecodeDevice<'a> {
    decode: &'a DecodeEngine,
    index: usize,
    device: &'a DeviceSpec,
    engine: FlashMem,
    sim: GpuSimulator,
    warm: &'a HashSet<u64>,
    /// Recovery state of re-dispatched requests, by `seq`.
    carry: HashMap<usize, Carry>,
    /// The fault plan can fire, so tokens draw injected faults.
    faults_armed: bool,
    /// Requests this round placed here, for the device report.
    assigned: usize,
    /// Sorted by (arrival, seq); the ones before `next` have left it.
    waiting: Vec<(usize, &'a ServeRequest)>,
    next: usize,
    models: Vec<ModelPlans<'a>>,
    active: Vec<ActiveDecode>,
    /// The step boundary the device has reached, and its makespan.
    now: f64,
    tracker: MemoryTracker,
    transfer_busy: f64,
    compute_busy: f64,
    queue_high_water: usize,
    outcomes: Vec<RequestOutcome>,
    orphans: Vec<Orphan<u32>>,
    trace: TraceRecorder,
    /// Transient injected faults this round.
    faults: u32,
    /// The fault plan's device loss fired.
    lost: bool,
}

impl<'a> DecodeDevice<'a> {
    /// The device at the start of a round: its requests waiting in arrival
    /// order.
    fn new(decode: &'a DecodeEngine, job: DeviceJob<'a, DecodeEngine>) -> Self {
        let DeviceJob {
            index,
            device,
            engine,
            sim,
            assigned: mut waiting,
            warm,
            carry,
            ..
        } = job;
        waiting.sort_by(|a, b| {
            a.1.arrival_ms
                .total_cmp(&b.1.arrival_ms)
                .then(a.0.cmp(&b.0))
        });
        DecodeDevice {
            decode,
            index,
            device,
            engine,
            sim,
            warm,
            carry,
            faults_armed: !decode.fleet.fault_plan.is_empty(),
            assigned: waiting.len(),
            waiting,
            next: 0,
            models: Vec::new(),
            active: Vec::new(),
            now: 0.0,
            tracker: decode.fleet.tracker(device),
            transfer_busy: 0.0,
            compute_busy: 0.0,
            queue_high_water: 0,
            outcomes: Vec::new(),
            orphans: Vec::new(),
            trace: TraceRecorder::new(decode.fleet.trace),
            faults: 0,
            lost: false,
        }
    }

    /// The unstarted row of `request` here, started at `start_ms`.
    fn row(&self, seq: usize, request: &ServeRequest, start_ms: f64) -> RequestOutcome {
        let carry = self.carry.get(&seq);
        let mut row = RequestOutcome::unstarted(seq, request, self.device, self.index, carry);
        row.start_ms = start_ms;
        let key = ArtifactCache::key_for(&self.engine, &request.model, self.device);
        row.cache_hit = self.warm.contains(&key);
        row
    }

    /// The join phase at a step boundary: arrived requests join the batch
    /// when it is empty or when `arrived ≥ waiting_served_ratio × active`,
    /// while `max_batch` and the token budget allow, each through its
    /// prefill. A request whose own context exceeds the budget fails at its
    /// arrival when nothing is in flight to wait for.
    fn join(&mut self) {
        let batch = self.decode.batch;
        let arrived = self.waiting[self.next..]
            .iter()
            .take_while(|(_, r)| r.arrival_ms <= self.now + 1e-9)
            .count();
        self.queue_high_water = self.queue_high_water.max(arrived);
        let join = arrived > 0
            && (self.active.is_empty()
                || arrived as f64 >= batch.waiting_served_ratio * self.active.len() as f64);
        while join && self.next < self.waiting.len() && self.active.len() < batch.max_batch {
            let (seq, request) = self.waiting[self.next];
            if request.arrival_ms > self.now + 1e-9 {
                break;
            }
            let params = request.decode.expect("validated in the prologue");
            let committed: u64 = self
                .active
                .iter()
                .map(|a| a.params.max_context_tokens())
                .sum();
            if committed + params.max_context_tokens() > batch.token_budget {
                if !self.active.is_empty() {
                    // Head-of-line request waits for leavers to free budget.
                    break;
                }
                self.next += 1;
                let mut row =
                    RequestOutcome::unstarted(seq, request, self.device, self.index, None);
                row.fail(SimError::InvalidParameter {
                    message: format!(
                        "request needs {} context tokens but the engine's token budget is {}",
                        params.max_context_tokens(),
                        batch.token_budget
                    ),
                });
                self.outcomes.push(row);
                continue;
            }
            self.next += 1;
            self.prefill(seq, request, params);
        }
    }

    /// Run `seq`'s prefill from `now` and join it to the batch at the
    /// prefill's end. A compile or prefill-replay failure retires it at
    /// `now` and a KV OOM at the prefill's end; an injected prefill fault
    /// joins it, failed, for the next leave sweep.
    fn prefill(&mut self, seq: usize, request: &'a ServeRequest, params: DecodeParams) {
        let start = self.now;
        let mut row = self.row(seq, request, start);
        let resumed_tokens = self.carry.get(&seq).map_or(0, |c| c.resumed_tokens);
        let compiled = self
            .model(request)
            .and_then(|model| Ok((model, self.cost(model, 0)?)));
        let (model, cost) = match compiled {
            Ok(compiled) => compiled,
            Err(error) => {
                row.fail(error);
                row.close(start, &[], &[]);
                self.retire(row, resumed_tokens);
                return;
            }
        };
        let end = start + cost.makespan_ms;
        self.now = end;
        self.transfer_busy += cost.transfer_busy_ms;
        self.compute_busy += cost.compute_busy_ms;
        let kv_bytes_per_token = self.models[model].kv_bytes_per_token;
        let mut entry = ActiveDecode {
            row,
            params,
            model,
            kv: KvCache::new(kv_bytes_per_token),
            token_times_ms: Vec::new(),
            max_batch_seen: 1,
            transfer_intervals: Vec::new(),
            compute_intervals: Vec::new(),
            resumed_tokens,
        };
        if self.fault(&mut entry, end, " prefill") {
            self.active.push(entry);
            return;
        }
        let prompt = u64::from(params.prompt_tokens);
        if let Err(error) = entry.kv.grow(&mut self.tracker, prompt, "", end) {
            entry.row.fail(error);
            let _ = entry.kv.release(&mut self.tracker, end);
            let (row, position) = entry.close(end);
            self.retire(row, position);
            return;
        }
        entry.token_times_ms.push(end);
        entry
            .transfer_intervals
            .push((start, start + cost.transfer_busy_ms));
        entry
            .compute_intervals
            .push((end - cost.compute_busy_ms, end));
        if self.trace.enabled() {
            let lane = TraceLane::Request(seq);
            let abbr = &request.model.abbr;
            self.trace.span_bytes(
                TraceKind::Prefill,
                lane,
                &format!("prefill {abbr} ({prompt} tok)"),
                start,
                end,
                prompt * kv_bytes_per_token,
            );
            let label = format!("join {abbr}");
            self.trace.instant(TraceKind::BatchJoin, lane, &label, end);
        }
        self.active.push(entry);
    }

    /// The index of `request`'s model in [`models`](Self::models), compiling
    /// (through the shared cache) and lowering its prefill and step streams
    /// the first time this device serves it.
    fn model(&mut self, request: &'a ServeRequest) -> SimResult<usize> {
        let abbr = request.model.abbr.as_str();
        if let Some(model) = self.models.iter().position(|m| m.abbr == abbr) {
            return Ok(model);
        }
        let fleet = &self.decode.fleet;
        let spec = request.model.decode().expect("validated in the prologue");
        let lower = |model| -> SimResult<CommandStream> {
            let (artifact, _) = fleet
                .cache
                .compile_shared(&self.engine, model, self.device)?;
            Ok(lower_artifact(&artifact, model, self.device, &fleet.config))
        };
        let prefill_stream = lower(&request.model)?;
        let step_plan = DecodeStepPlan::new(lower(&spec.step)?)?;
        self.models.push(ModelPlans {
            abbr,
            prefill_stream,
            step_plan,
            kv_bytes_per_token: spec.kv_bytes_per_token,
            costs: Vec::new(),
        });
        Ok(self.models.len() - 1)
    }

    /// The cost of `model`'s prefill (`width` 0) or of its step `width`
    /// sequences wide. The first request replays the stream through the
    /// tracker at `now`, which charges and releases its transients and so
    /// establishes the transient peak; later ones reuse the cost. A failed
    /// replay is not memoized.
    fn cost(&mut self, model: usize, width: usize) -> SimResult<StepCost> {
        let plans = &mut self.models[model];
        if let Some(cost) = plans.costs.get(width).copied().flatten() {
            return Ok(cost);
        }
        let cost = if width == 0 {
            replay_stream(
                &plans.prefill_stream,
                &self.sim,
                &mut self.tracker,
                self.now,
            )
        } else {
            plans
                .step_plan
                .replay(&self.sim, &mut self.tracker, width, self.now)
        }?;
        if plans.costs.len() <= width {
            plans.costs.resize(width + 1, None);
        }
        plans.costs[width] = Some(cost);
        Ok(cost)
    }

    /// Draw the injected fault, if the plan can fire one, of `entry`'s next
    /// token (its prefill when `what` is `" prefill"`), ending at `end_ms`.
    /// The draw is keyed by the request's token position, so firing is
    /// schedule- and batch-independent and a retry redraws. A fault fails
    /// the row.
    fn fault(&mut self, entry: &mut ActiveDecode, end_ms: f64, what: &str) -> bool {
        if !self.faults_armed {
            return false;
        }
        let seq = entry.row.seq;
        let attempt = self.carry.get(&seq).map_or(0, Carry::attempt);
        let position = entry.position() as usize;
        let fault_plan = &self.decode.fleet.fault_plan;
        let Some(kind) = fault_plan.command_fault(self.index, seq, position, attempt) else {
            return false;
        };
        self.faults += 1;
        entry.row.fail(SimError::Fault {
            kind,
            at_ms: end_ms,
        });
        if self.trace.enabled() {
            let label = format!("fault {kind} {}{what}", entry.row.model);
            let lane = TraceLane::Request(seq);
            self.trace.instant(TraceKind::Fault, lane, &label, end_ms);
        }
        true
    }

    /// The step phase: one batched decode step. Each model's sub-batch, in
    /// abbreviation order, replays its step stream, and the sub-batches run
    /// back to back on the device's queues. Every member that takes no
    /// fault grows its KV by one token and emits one token at its
    /// sub-batch's end. A failed replay fails its whole sub-batch and does
    /// not advance the clock.
    fn step(&mut self) {
        let mut active = std::mem::take(&mut self.active);
        let mut groups: Vec<(usize, Vec<usize>)> = Vec::new();
        for (i, entry) in active.iter().enumerate() {
            match groups.iter_mut().find(|(model, _)| *model == entry.model) {
                Some((_, members)) => members.push(i),
                None => groups.push((entry.model, vec![i])),
            }
        }
        groups.sort_by_key(|&(model, _)| self.models[model].abbr);
        for (model, members) in groups {
            let width = members.len();
            let cost = match self.cost(model, width) {
                Ok(cost) => cost,
                Err(error) => {
                    for &i in &members {
                        active[i].row.fail(error.clone());
                    }
                    continue;
                }
            };
            let (start, end) = (self.now, self.now + cost.makespan_ms);
            self.transfer_busy += cost.transfer_busy_ms;
            self.compute_busy += cost.compute_busy_ms;
            if self.trace.enabled() {
                let plans = &self.models[model];
                self.trace.span_bytes(
                    TraceKind::DecodeStep,
                    TraceLane::ComputeQueue,
                    &format!("step {} ×{width}", plans.abbr),
                    start,
                    end,
                    width as u64 * plans.kv_bytes_per_token,
                );
            }
            let share = 1.0 / width as f64;
            for &i in &members {
                let entry = &mut active[i];
                if self.fault(entry, end, "") {
                    continue;
                }
                if let Err(error) = entry.kv.grow(&mut self.tracker, 1, "", end) {
                    entry.row.fail(error);
                    continue;
                }
                entry.token_times_ms.push(end);
                entry.max_batch_seen = entry.max_batch_seen.max(width);
                entry
                    .transfer_intervals
                    .push((start, start + cost.transfer_busy_ms * share));
                entry
                    .compute_intervals
                    .push((end - cost.compute_busy_ms * share, end));
            }
            self.now = end;
        }
        self.active = active;
    }

    /// The leave phase at `now`: every request that emitted its last token
    /// or failed leaves the batch, releases its KV residency and retires.
    fn leave(&mut self) -> SimResult<()> {
        let mut i = 0;
        while i < self.active.len() {
            let entry = &self.active[i];
            if !entry.is_done() && entry.row.error.is_none() {
                i += 1;
                continue;
            }
            let mut entry = self.active.remove(i);
            entry.kv.release(&mut self.tracker, self.now)?;
            if self.trace.enabled() {
                let label = format!("leave {} ({} tok)", entry.row.model, entry.emitted());
                let lane = TraceLane::Request(entry.row.seq);
                self.trace
                    .instant(TraceKind::BatchLeave, lane, &label, self.now);
            }
            let (row, position) = entry.close(self.now);
            self.retire(row, position);
        }
        Ok(())
    }

    /// Retire `row`, closed, against the device's peak so far: the one way
    /// a request leaves this device. An injected fault makes it an orphan
    /// for the recovery planner, which re-prefills it from `position`, the
    /// tokens all its attempts emitted; anything else is final.
    fn retire(&mut self, mut row: RequestOutcome, position: u32) {
        row.peak_memory_mb = self.tracker.peak_bytes() as f64 / MIB;
        if matches!(row.error, Some(SimError::Fault { .. })) {
            let (retries, hops) = self
                .carry
                .get(&row.seq)
                .map_or((0, 0), |c| (c.retries, c.hops));
            self.orphans.push(Orphan {
                outcome: row,
                retries,
                hops,
                resume: position,
            });
        } else {
            self.outcomes.push(row);
        }
    }

    /// The device dies at this step boundary: work whose commands started
    /// before the loss drained normally (a dispatched kernel cannot be
    /// aborted), and everything still in the batch or waiting dies with
    /// the device's memory and goes to the recovery planner. A waiting
    /// request fails at its arrival if that is later, reserving nothing.
    fn lose(&mut self) {
        self.lost = true;
        let now = self.now;
        if self.trace.enabled() {
            let label = format!("fault device-loss {}", self.device.name);
            self.trace
                .instant(TraceKind::Fault, TraceLane::Host, &label, now);
        }
        let loss = |at_ms| SimError::Fault {
            kind: FaultKind::DeviceLoss,
            at_ms,
        };
        for mut entry in std::mem::take(&mut self.active) {
            entry.row.fail(loss(now));
            let _ = entry.kv.release(&mut self.tracker, now);
            let (row, position) = entry.close(now);
            self.retire(row, position);
        }
        for i in self.next..self.waiting.len() {
            let (seq, request) = self.waiting[i];
            let at = now.max(request.arrival_ms);
            let mut row = self.row(seq, request, at);
            row.fail(loss(at));
            row.close(at, &[], &[]);
            let resumed_tokens = self.carry.get(&seq).map_or(0, |c| c.resumed_tokens);
            self.retire(row, resumed_tokens);
        }
    }

    /// What the round hands the merge: its rows, orphans and trace, and the
    /// device report.
    fn finish(self) -> DeviceRun<u32> {
        let series = self.decode.fleet.memory_series;
        let report = DeviceReport {
            requests: self.assigned,
            completed: self.outcomes.iter().filter(|o| o.succeeded()).count(),
            queue_depth_high_water: self.queue_high_water,
            ..DeviceReport::new(
                self.device.name.clone(),
                self.now,
                self.transfer_busy,
                self.compute_busy,
                self.tracker.peak_bytes() as f64 / MIB,
                series.then(|| self.tracker.into_trace()),
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
    fn kv_grows_to_the_full_context_and_is_released() {
        // One request alone on the device: the prefill charges the prompt's
        // KV and each of the four decode steps one more token. The step that
        // emits the last token grows the KV to prompt + output - 1 tokens,
        // and the leave sweep at that instant frees it token by token.
        let report = engine(BatchConfig::default())
            .with_memory_series()
            .run(&burst(1, 16, 5))
            .unwrap();
        let outcome = &report.outcomes[0];
        let decode = outcome.decode.as_ref().unwrap();
        assert_eq!(decode.output_tokens, 5);
        assert_eq!(decode.itl_ms.len(), 4);
        assert!(decode.ttft_ms > 0.0 && decode.itl_ms.iter().all(|&gap| gap > 0.0));
        let stride = ModelZoo::gptneo_small()
            .decode()
            .unwrap()
            .kv_bytes_per_token;
        let series = report.devices[0].memory_trace.as_ref().unwrap();
        let at_leave: Vec<u64> = series
            .samples()
            .iter()
            .filter(|s| s.time_ms == outcome.completion_ms)
            .map(|s| s.bytes)
            .collect();
        let context: u64 = 16 + 5 - 1;
        let expected: Vec<u64> = (0..=context).rev().map(|t| t * stride).collect();
        assert_eq!(at_leave, expected);
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
        // So do zero token counts set on the public fields: the builders
        // clamp both to at least 1.
        for (prompt_tokens, output_tokens) in [(0, 0), (5, 0), (0, 3)] {
            let mut requests = burst(3, 8, 4);
            requests[2].decode = Some(DecodeParams {
                prompt_tokens,
                output_tokens,
            });
            rejects(plain(), &requests, ["request 2", "at least 1"]);
        }
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
