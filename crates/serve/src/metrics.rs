//! Serving metrics: per-request outcomes, per-device utilization, latency
//! percentiles, SLO attainment and preemption accounting.
//!
//! Everything a [`ServeEngine`](crate::ServeEngine) run produces funnels into
//! a [`ServeReport`]:
//!
//! * [`RequestOutcome`] — one row per submitted request: where it ran, how
//!   long it waited, whether it hit the plan cache, how often it was
//!   preempted and how much suspension/re-residency time that cost, and
//!   whether it met its SLO deadline.
//! * [`DeviceReport`] — one row per fleet device: makespan, dual-queue busy
//!   fractions, peak memory and, when the engine keeps it, the stitched
//!   memory series.
//! * [`LatencySummary`] — nearest-rank p50/p95/p99 plus mean and max over
//!   the completed requests.
//! * [`PriorityLatency`] — the same latency summary broken down per priority
//!   level, which is how a preemptive policy's tail-latency shift becomes
//!   visible (high priorities tighten, low priorities pay).
//! * [`SloSummary`] — attainment over the requests that carried a deadline,
//!   with every miss attributed to a [`MissCause`] (queueing, execution,
//!   preemption or outright failure).

use flashmem_core::cache::CacheStats;
use flashmem_core::telemetry::{FleetTrace, PhaseBreakdown};
use flashmem_core::ExecutionReport;
use flashmem_gpu_sim::trace::MemoryTrace;
use flashmem_gpu_sim::{DeviceSpec, SimError};

use crate::fleet::Carry;
use crate::request::{FailureCause, RejectCause, ServeRequest};

/// Token-level result of a generative request served through the decode
/// path (prefill pass + per-token decode steps). `None` on one-shot
/// requests.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodeOutcome {
    /// Prompt tokens processed by the prefill pass.
    pub prompt_tokens: u32,
    /// Tokens emitted (prefill's first token plus one per decode step).
    pub output_tokens: u32,
    /// Time-to-first-token: prefill completion minus arrival, in ms.
    pub ttft_ms: f64,
    /// Inter-token latencies: the gap before each token after the first,
    /// in ms (`output_tokens - 1` entries).
    pub itl_ms: Vec<f64>,
    /// Peak KV-cache residency of this request, in bytes. Grows
    /// monotonically from join to leave, so the peak equals the final
    /// resident size: `(prompt + output - 1) × kv_bytes_per_token`.
    pub kv_peak_bytes: u64,
    /// Largest batch this request shared a decode step with.
    pub max_batch: usize,
}

/// What happened to one request.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestOutcome {
    /// Submission sequence number.
    pub seq: usize,
    /// Model abbreviation.
    pub model: String,
    /// Tenant the request belongs to.
    pub tenant: String,
    /// Request priority.
    pub priority: u8,
    /// Name of the device that served (or rejected) the request.
    pub device: String,
    /// Index of that device in the fleet.
    pub device_index: usize,
    /// Arrival time (global simulated milliseconds).
    pub arrival_ms: f64,
    /// Time the request was admitted and became eligible to issue commands.
    pub start_ms: f64,
    /// Completion (or failure) time.
    pub completion_ms: f64,
    /// Time spent waiting for admission: `start - arrival`.
    pub queue_wait_ms: f64,
    /// End-to-end latency: `completion - arrival`.
    pub latency_ms: f64,
    /// The request's effective SLO deadline as a relative latency budget
    /// (from the request itself or the tenant default), if any.
    pub deadline_ms: Option<f64>,
    /// Laxity at admission time: absolute deadline minus admission time
    /// minus the predicted service time, for deadline-carrying requests.
    /// Positive means the scheduler admitted it with slack to spare;
    /// negative means it was already predicted to miss when it started.
    /// Under policies that do not request service-time estimates
    /// ([`SchedulePolicy::uses_estimates`](crate::SchedulePolicy::uses_estimates))
    /// the predicted service time is zero and this is simply the time to
    /// deadline at admission.
    pub admission_laxity_ms: Option<f64>,
    /// Estimated resident bytes reserved for this request by admission
    /// control — the quantity per-tenant memory caps are charged against
    /// while the request is in flight (zero for requests that failed before
    /// admission).
    pub resident_estimate_bytes: u64,
    /// How many times a preemptive policy suspended this request to make
    /// room for higher-priority work.
    pub preemptions: usize,
    /// Total time the request spent suspended (between eviction and
    /// re-admission), in milliseconds.
    pub suspended_ms: f64,
    /// Total re-residency penalty charged across all resumes (texture
    /// re-packing, unified-memory reload, fixed per-resume overhead), in
    /// milliseconds.
    pub resume_penalty_ms: f64,
    /// True when this request's compiled plan was already in the shared
    /// plan cache when the serve run began. The warmth snapshot is taken in
    /// the run's sequential prologue, so the flag is identical at every pool
    /// width: it reports warmth carried in from earlier runs on the same
    /// cache, never which device happened to win an intra-run compile race.
    /// In-run sharing still shows up in the [`ServeReport::cache`] hit/miss
    /// counters, which the in-flight compile dedup keeps
    /// schedule-independent.
    pub cache_hit: bool,
    /// Peak device memory footprint (MB) observed while the request was
    /// resident. Under concurrent policies this is the *device* footprint
    /// during the request's window, which is the quantity capacity planning
    /// cares about: the largest sample since its admission (or since its
    /// failover landed), kept as a running maximum that the device folds
    /// in at every request boundary, so it needs no memory series. In
    /// exclusive mode it is the peak of the request's own
    /// [`report`](Self::report), and for a generative request the device's
    /// peak when the request left. 0 for a one-shot request that did not
    /// complete.
    pub peak_memory_mb: f64,
    /// Where the end-to-end latency went: queue wait, compile, exposed
    /// transfer, compute, suspension, and a residual stall term. The phases
    /// sum to [`latency_ms`](Self::latency_ms) by construction.
    pub phases: PhaseBreakdown,
    /// Why overload control shed this request, when it was never admitted
    /// at all: a provably unmeetable deadline at admission control or a
    /// full bounded queue at arrival. Rejected requests carry no error —
    /// rejection is the scheduler declining work, not work failing — and
    /// are excluded from SLO accounting (they were never accepted into the
    /// serving pipeline).
    pub rejected: Option<RejectCause>,
    /// The home device index the steal planner re-placed this request
    /// *from*, when a backed-up shard's queued work was moved to an idle
    /// one; [`device_index`](Self::device_index) is where it actually ran.
    /// `None` for requests that ran where the policy first placed them.
    pub stolen_from: Option<usize>,
    /// The failure, if the request did not complete (out-of-memory, tenant
    /// cap smaller than the model's working set, an injected fault, ...).
    pub error: Option<SimError>,
    /// Typed classification of [`error`](Self::error) — present iff the
    /// request failed. See the request-disposition table in
    /// [`crate::request`].
    pub failure: Option<FailureCause>,
    /// Injected-fault recovery attempts this request consumed: same-device
    /// retries plus restarts after a failover. Never exceeds the armed
    /// [`RecoveryControl::retry_budget`](crate::RecoveryControl::retry_budget)
    /// plus the bounded failover allowance; 0 without recovery.
    pub retries: u32,
    /// True when the recovery planner re-placed this request off the device
    /// it was originally running on (after a device loss or quarantine).
    /// [`device_index`](Self::device_index) is where it finally ran.
    pub failed_over: bool,
    /// The full execution report, available under exclusive (single-slot)
    /// policies where a request owns the whole device while it runs.
    pub report: Option<ExecutionReport>,
    /// Token-level decode result for generative requests served through the
    /// continuous-batching path; `None` for one-shot requests.
    pub decode: Option<DecodeOutcome>,
}

impl RequestOutcome {
    /// The row of `request` (submission `seq`) on `device`, before it
    /// starts: arrival, start and completion all at its arrival, nothing
    /// charged, no failure. `carry` stamps a re-dispatched attempt with its
    /// submission's arrival and its recovery counters. The engines build
    /// every row here, fill it in while the request is on a device, and
    /// [`close`](Self::close) it when it leaves.
    pub(crate) fn unstarted(
        seq: usize,
        request: &ServeRequest,
        device: &DeviceSpec,
        device_index: usize,
        carry: Option<&Carry>,
    ) -> Self {
        let arrival_ms = carry.map_or(request.arrival_ms, |c| c.original_arrival_ms);
        RequestOutcome {
            seq,
            model: request.model.abbr.clone(),
            tenant: request.tenant.clone(),
            priority: request.priority,
            device: device.name.clone(),
            device_index,
            arrival_ms,
            start_ms: arrival_ms,
            completion_ms: arrival_ms,
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
            phases: PhaseBreakdown::default(),
            rejected: None,
            stolen_from: None,
            error: None,
            failure: None,
            retries: carry.map_or(0, |c| c.retries),
            failed_over: carry.is_some_and(|c| c.failed_over),
            report: None,
            decode: None,
        }
    }

    /// Close the row at `completion_ms`: queue wait from arrival to start,
    /// latency from arrival to completion, and the phases that latency
    /// splits into. `transfer` and `compute` are the request's own command
    /// intervals. Compile time is 0.0 on the simulated clock (LC-OPG solves
    /// are charged to host wall time, not device time); suspension includes
    /// the re-residency penalties; the residual stall term makes the phases
    /// sum to the latency exactly.
    pub(crate) fn close(
        &mut self,
        completion_ms: f64,
        transfer: &[(f64, f64)],
        compute: &[(f64, f64)],
    ) {
        self.completion_ms = completion_ms;
        self.queue_wait_ms = (self.start_ms - self.arrival_ms).max(0.0);
        self.latency_ms = (completion_ms - self.arrival_ms).max(0.0);
        self.phases = PhaseBreakdown::attribute(
            self.latency_ms,
            self.queue_wait_ms,
            0.0,
            self.suspended_ms + self.resume_penalty_ms,
            transfer,
            compute,
        );
    }

    /// Mark the request failed with `error`, and its typed cause.
    pub(crate) fn fail(&mut self, error: SimError) {
        self.failure = Some(FailureCause::from_error(&error));
        self.error = Some(error);
    }

    /// True when the request completed.
    pub fn succeeded(&self) -> bool {
        self.error.is_none() && self.rejected.is_none()
    }

    /// True when overload control shed this request instead of admitting it.
    pub fn was_rejected(&self) -> bool {
        self.rejected.is_some()
    }

    /// SLO verdict: `None` when the request carries no deadline or was
    /// rejected by overload control (it was never accepted, so it is not
    /// SLO-tracked — the whole point of shedding is protecting the admitted
    /// requests' attainment), otherwise whether it completed within its
    /// latency budget (a failed request with a deadline counts as missed).
    pub fn slo_met(&self) -> Option<bool> {
        if self.was_rejected() {
            return None;
        }
        self.deadline_ms
            .map(|deadline| self.succeeded() && self.latency_ms <= deadline + 1e-9)
    }

    /// Final slack against the deadline: `deadline − latency`, for
    /// deadline-carrying requests. Positive = met with that much room,
    /// negative = missed by that much.
    pub fn slack_ms(&self) -> Option<f64> {
        self.deadline_ms.map(|deadline| deadline - self.latency_ms)
    }

    /// Why this request missed its deadline, or `None` when it carried no
    /// deadline or met it. Causes are tested in order of specificity:
    /// failure first, then time lost to preemption, then admission
    /// queueing, and only when the service time alone blew the budget is
    /// the miss blamed on execution.
    pub fn miss_cause(&self) -> Option<MissCause> {
        if self.slo_met() != Some(false) {
            return None;
        }
        let deadline = self.deadline_ms.expect("a missed SLO implies a deadline");
        let preempted_ms = self.suspended_ms + self.resume_penalty_ms;
        Some(if !self.succeeded() {
            MissCause::Failed
        } else if preempted_ms > 0.0 && self.latency_ms - preempted_ms <= deadline + 1e-9 {
            MissCause::Preemption
        } else if self.latency_ms - self.queue_wait_ms <= deadline + 1e-9 {
            MissCause::QueueWait
        } else {
            MissCause::Execution
        })
    }
}

/// Why a deadline-carrying request missed its SLO — the breakdown that tells
/// an operator whether to buy devices (queueing), pick a different plan
/// (execution), or tune the preemption trigger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MissCause {
    /// The request failed outright (out-of-memory, tenant cap smaller than
    /// the model, unrecoverable resume).
    Failed,
    /// It would have met its deadline without the time it spent suspended
    /// (plus re-residency penalties) — the cost a preemptive policy shifted
    /// onto this request.
    Preemption,
    /// Its service time fit the budget but admission queueing consumed the
    /// slack — the fleet was oversubscribed or the policy ordered it late.
    QueueWait,
    /// Execution alone exceeded the budget: no admission order could have
    /// met this deadline on this device.
    Execution,
}

/// Utilization summary of one device of the fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceReport {
    /// Device name.
    pub device: String,
    /// Requests placed on this device.
    pub requests: usize,
    /// Requests that completed successfully.
    pub completed: usize,
    /// Wall-clock end of the device's timeline in milliseconds.
    pub makespan_ms: f64,
    /// Busy time of the transfer (DMA) queue in milliseconds.
    pub transfer_busy_ms: f64,
    /// Busy time of the compute queue in milliseconds.
    pub compute_busy_ms: f64,
    /// Transfer-queue busy time over the makespan.
    pub transfer_busy_fraction: f64,
    /// Compute-queue busy time over the makespan.
    pub compute_busy_fraction: f64,
    /// Peak memory footprint of the device over the whole run, in MB: the
    /// tracker's running peak, exact with or without a memory series.
    pub peak_memory_mb: f64,
    /// High-water mark of the device's admission queue: the largest number
    /// of arrived-but-unadmitted requests simultaneously waiting on this
    /// device at any point of the run. Under a bounded queue
    /// ([`OverloadControl::with_queue_bound`](crate::OverloadControl::with_queue_bound))
    /// this never exceeds the bound — the invariant the overload test suite
    /// pins.
    pub queue_depth_high_water: usize,
    /// The device's memory trace over the whole serving run (the multi-model
    /// Figure 6 curve generalised to many tenants), series included. `Some`
    /// only when the engine was built `with_memory_series()`
    /// ([`ServeEngine`](crate::ServeEngine::with_memory_series),
    /// [`DecodeEngine`](crate::DecodeEngine::with_memory_series)); without
    /// it the device keeps no samples.
    pub memory_trace: Option<MemoryTrace>,
}

impl DeviceReport {
    /// The report of a device whose timeline ran to `makespan_ms` with these
    /// queue busy times, memory peak and (optional) memory trace: each busy
    /// fraction is its busy time over the makespan (0 for an empty
    /// timeline). The request counts and the queue high-water mark start at
    /// zero for the caller to fill in.
    pub(crate) fn new(
        device: String,
        makespan_ms: f64,
        transfer_busy_ms: f64,
        compute_busy_ms: f64,
        peak_memory_mb: f64,
        memory_trace: Option<MemoryTrace>,
    ) -> Self {
        let fraction = |busy_ms: f64| {
            if makespan_ms > 0.0 {
                busy_ms / makespan_ms
            } else {
                0.0
            }
        };
        DeviceReport {
            device,
            requests: 0,
            completed: 0,
            makespan_ms,
            transfer_busy_ms,
            compute_busy_ms,
            transfer_busy_fraction: fraction(transfer_busy_ms),
            compute_busy_fraction: fraction(compute_busy_ms),
            peak_memory_mb,
            queue_depth_high_water: 0,
            memory_trace,
        }
    }

    /// Fold one recovery round's report into this accumulated one: counts and
    /// busy time sum, high-water marks and peaks take the max, and the
    /// memory series, when kept, stitch (round timelines never overlap — a
    /// re-dispatch ready floor is never below the destination's cumulative
    /// makespan), so the busy fractions and the peak are those of the
    /// merged timeline. A request that ran attempts on several devices
    /// counts toward `requests` on each.
    pub(crate) fn absorb_round(&mut self, round: DeviceReport) {
        let mut memory_trace = self.memory_trace.take();
        if let (Some(trace), Some(round_trace)) = (&mut memory_trace, &round.memory_trace) {
            trace.append_shifted(round_trace, 0.0);
        }
        *self = DeviceReport {
            requests: self.requests + round.requests,
            completed: self.completed + round.completed,
            queue_depth_high_water: self
                .queue_depth_high_water
                .max(round.queue_depth_high_water),
            ..DeviceReport::new(
                std::mem::take(&mut self.device),
                self.makespan_ms.max(round.makespan_ms),
                self.transfer_busy_ms + round.transfer_busy_ms,
                self.compute_busy_ms + round.compute_busy_ms,
                self.peak_memory_mb.max(round.peak_memory_mb),
                memory_trace,
            )
        };
    }
}

/// Nearest-rank percentile of an ascending-sorted slice. `q` in `[0, 1]`.
/// Returns `None` for an empty slice — an empty sample set has no
/// percentiles, and reporting 0.0 made an all-rejected overload run look
/// like infinitely fast service.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let q = q.clamp(0.0, 1.0);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Latency distribution summary over the completed requests.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LatencySummary {
    /// Median end-to-end latency in milliseconds.
    pub p50_ms: f64,
    /// 95th percentile latency.
    pub p95_ms: f64,
    /// 99th percentile latency.
    pub p99_ms: f64,
    /// Mean latency.
    pub mean_ms: f64,
    /// Worst observed latency.
    pub max_ms: f64,
}

impl LatencySummary {
    /// Summarise a set of latencies (order irrelevant). `None` for an empty
    /// set: a run that completed nothing has no latency distribution, and
    /// the old all-zero summary was indistinguishable from infinitely fast
    /// service in bench JSON.
    pub fn from_latencies(latencies: &[f64]) -> Option<Self> {
        if latencies.is_empty() {
            return None;
        }
        let mut sorted = latencies.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
        Some(LatencySummary {
            p50_ms: percentile(&sorted, 0.50).expect("non-empty"),
            p95_ms: percentile(&sorted, 0.95).expect("non-empty"),
            p99_ms: percentile(&sorted, 0.99).expect("non-empty"),
            mean_ms: sorted.iter().sum::<f64>() / sorted.len() as f64,
            max_ms: sorted.last().copied().expect("non-empty"),
        })
    }
}

/// Latency percentiles of one priority level — the lens that shows what a
/// preemptive policy buys: high-priority tails tighten while low-priority
/// tails absorb the suspension and re-residency cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PriorityLatency {
    /// The priority level summarised.
    pub priority: u8,
    /// Completed requests at this priority.
    pub completed: usize,
    /// Latency percentiles over those requests.
    pub latency: LatencySummary,
}

impl PriorityLatency {
    /// Per-priority latency summaries over the completed requests, ascending
    /// by priority. Levels with no completed request are omitted.
    pub fn from_outcomes(outcomes: &[RequestOutcome]) -> Vec<PriorityLatency> {
        let mut levels: Vec<u8> = outcomes
            .iter()
            .filter(|o| o.succeeded())
            .map(|o| o.priority)
            .collect();
        levels.sort_unstable();
        levels.dedup();
        levels
            .into_iter()
            .map(|priority| {
                let latencies: Vec<f64> = outcomes
                    .iter()
                    .filter(|o| o.succeeded() && o.priority == priority)
                    .map(|o| o.latency_ms)
                    .collect();
                PriorityLatency {
                    priority,
                    completed: latencies.len(),
                    latency: LatencySummary::from_latencies(&latencies)
                        .expect("levels are built from completed requests"),
                }
            })
            .collect()
    }
}

/// Token-level aggregates over a run's decode outcomes: TTFT/ITL
/// percentiles and token throughput. Computed once by each engine's report
/// assembly so one-shot and continuous-batching runs summarise identically.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TokenMetrics {
    /// Time-to-first-token percentiles, `None` without completed decode
    /// requests.
    pub ttft: Option<LatencySummary>,
    /// Inter-token-latency percentiles over all decode-step gaps, `None`
    /// without any.
    pub itl: Option<LatencySummary>,
    /// Total tokens emitted by completed decode requests.
    pub decode_tokens: usize,
    /// Emitted tokens per second of `makespan_ms`.
    pub tokens_per_s: f64,
}

impl TokenMetrics {
    /// Aggregate the decode outcomes of completed requests.
    pub fn from_outcomes(outcomes: &[RequestOutcome], makespan_ms: f64) -> Self {
        let decodes: Vec<&DecodeOutcome> = outcomes
            .iter()
            .filter(|o| o.succeeded())
            .filter_map(|o| o.decode.as_ref())
            .collect();
        let ttfts: Vec<f64> = decodes.iter().map(|d| d.ttft_ms).collect();
        let itls: Vec<f64> = decodes
            .iter()
            .flat_map(|d| d.itl_ms.iter().copied())
            .collect();
        let decode_tokens: usize = decodes.iter().map(|d| d.output_tokens as usize).sum();
        let tokens_per_s = if makespan_ms > 0.0 {
            decode_tokens as f64 * 1_000.0 / makespan_ms
        } else {
            0.0
        };
        TokenMetrics {
            ttft: LatencySummary::from_latencies(&ttfts),
            itl: LatencySummary::from_latencies(&itls),
            decode_tokens,
            tokens_per_s,
        }
    }
}

/// SLO attainment over the requests that carried a deadline, with every
/// miss attributed to a [`MissCause`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SloSummary {
    /// Requests with an effective deadline (request-level or tenant
    /// default).
    pub tracked: usize,
    /// Requests that completed within their deadline.
    pub met: usize,
    /// Misses blamed on admission queueing ([`MissCause::QueueWait`]).
    pub missed_queue_wait: usize,
    /// Misses blamed on service time alone ([`MissCause::Execution`]).
    pub missed_execution: usize,
    /// Misses blamed on suspension/re-residency time
    /// ([`MissCause::Preemption`]).
    pub missed_preemption: usize,
    /// Misses from requests that failed outright ([`MissCause::Failed`]).
    pub missed_failed: usize,
}

impl SloSummary {
    /// Tally SLO verdicts across a run's outcomes.
    pub fn from_outcomes(outcomes: &[RequestOutcome]) -> Self {
        let mut summary = SloSummary::default();
        for outcome in outcomes {
            if let Some(met) = outcome.slo_met() {
                summary.tracked += 1;
                if met {
                    summary.met += 1;
                }
            }
            match outcome.miss_cause() {
                Some(MissCause::QueueWait) => summary.missed_queue_wait += 1,
                Some(MissCause::Execution) => summary.missed_execution += 1,
                Some(MissCause::Preemption) => summary.missed_preemption += 1,
                Some(MissCause::Failed) => summary.missed_failed += 1,
                None => {}
            }
        }
        summary
    }

    /// Deadline-carrying requests that missed (late or failed).
    pub fn missed(&self) -> usize {
        self.tracked - self.met
    }

    /// Fraction of deadline-carrying requests that met their deadline, in
    /// `[0, 1]`. Returns 1.0 when nothing carried a deadline (an SLO nobody
    /// asked for is vacuously attained).
    pub fn attainment(&self) -> f64 {
        if self.tracked == 0 {
            1.0
        } else {
            self.met as f64 / self.tracked as f64
        }
    }
}

/// How many requests overload control shed, broken down by
/// [`RejectCause`]. The two counters sum to
/// [`ServeReport::rejected`] exactly — every rejection carries a cause.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShedBreakdown {
    /// Rejections from fleet-wide admission control: the deadline was
    /// provably unmeetable even on the fleet's best device.
    pub deadline_unmeetable: usize,
    /// Rejections from a full bounded per-device queue at arrival.
    pub queue_full: usize,
}

impl ShedBreakdown {
    /// Tally rejections by cause across a run's outcomes.
    pub fn from_outcomes(outcomes: &[RequestOutcome]) -> Self {
        let mut shed = ShedBreakdown::default();
        for outcome in outcomes {
            match outcome.rejected {
                Some(RejectCause::DeadlineUnmeetable) => shed.deadline_unmeetable += 1,
                Some(RejectCause::QueueFull) => shed.queue_full += 1,
                None => {}
            }
        }
        shed
    }

    /// Total requests shed across all causes.
    pub fn total(&self) -> usize {
        self.deadline_unmeetable + self.queue_full
    }
}

/// Recovery activity of one serving run — all zero when
/// [`RecoveryControl`](crate::RecoveryControl) is disabled or no fault
/// fired.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryTallies {
    /// Same-device retry re-enqueues after a transient injected fault.
    pub retries: usize,
    /// Requests the recovery planner re-placed onto a surviving device
    /// after a device loss or quarantine.
    pub failovers: usize,
    /// Quarantine events (a device crossing its fault threshold, or a
    /// failed probe re-quarantining it; device losses count too — a lost
    /// device is permanently quarantined).
    pub quarantines: usize,
    /// Probe placements sent to quarantined devices.
    pub probes: usize,
}

impl RecoveryTallies {
    /// True when any recovery machinery fired.
    pub fn any(&self) -> bool {
        self.retries > 0 || self.failovers > 0 || self.quarantines > 0 || self.probes > 0
    }
}

/// How many failed requests died of each [`FailureCause`]. The counters
/// sum to [`ServeReport::failed`] exactly — every failure carries a cause.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FailureBreakdown {
    /// Requests stranded by a device loss with no surviving failover
    /// target (or failover disabled).
    pub device_lost: usize,
    /// Requests whose final attempt died of an injected transient kernel
    /// fault.
    pub kernel_fault: usize,
    /// Requests whose final attempt died of an injected OOM spike.
    pub oom_spike: usize,
    /// Real capacity failures (pool exhaustion, tenant cap, unrecoverable
    /// resume).
    pub out_of_memory: usize,
    /// Any other execution error.
    pub execution: usize,
}

impl FailureBreakdown {
    /// Tally failures by cause across a run's outcomes.
    pub fn from_outcomes(outcomes: &[RequestOutcome]) -> Self {
        let mut failed = FailureBreakdown::default();
        for outcome in outcomes {
            match outcome.failure {
                Some(FailureCause::DeviceLost) => failed.device_lost += 1,
                Some(FailureCause::KernelFault) => failed.kernel_fault += 1,
                Some(FailureCause::OomSpike) => failed.oom_spike += 1,
                Some(FailureCause::OutOfMemory) => failed.out_of_memory += 1,
                Some(FailureCause::Execution) => failed.execution += 1,
                None => {}
            }
        }
        failed
    }

    /// Total failed requests across all causes.
    pub fn total(&self) -> usize {
        self.device_lost + self.kernel_fault + self.oom_spike + self.out_of_memory + self.execution
    }
}

/// The full result of one serving run.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Name of the scheduling policy that ran.
    pub policy: String,
    /// Per-request outcomes in submission order.
    pub outcomes: Vec<RequestOutcome>,
    /// Per-device utilization, in fleet order.
    pub devices: Vec<DeviceReport>,
    /// Latency percentiles over completed requests; `None` when nothing
    /// completed (an all-shed overload run has no latency distribution).
    pub latency: Option<LatencySummary>,
    /// Latency percentiles broken down per priority level.
    pub per_priority: Vec<PriorityLatency>,
    /// Time-to-first-token percentiles over completed generative requests;
    /// `None` when the run served no decode requests (or completed none).
    pub ttft: Option<LatencySummary>,
    /// Inter-token-latency percentiles over every decode-step gap of every
    /// completed generative request; `None` without decode traffic.
    pub itl: Option<LatencySummary>,
    /// Total tokens emitted by completed generative requests.
    pub decode_tokens: usize,
    /// Emitted tokens per second of simulated makespan (0.0 without decode
    /// traffic).
    pub tokens_per_s: f64,
    /// SLO attainment over the deadline-carrying requests.
    pub slo: SloSummary,
    /// Total preemptions across all requests (0 under non-preemptive
    /// policies).
    pub preemptions: usize,
    /// Completed requests per second of simulated makespan.
    pub throughput_rps: f64,
    /// Plan-cache counters at the end of the run.
    pub cache: CacheStats,
    /// Recovery activity: retries, failovers, quarantines and probes. All
    /// zero when recovery is disabled or nothing faulted.
    pub recovery: RecoveryTallies,
    /// The merged per-device event trace, when the engine ran with tracing
    /// enabled ([`ServeEngine::with_trace`](crate::ServeEngine::with_trace)).
    /// `None` on untraced runs; a traced report with this field stripped is
    /// byte-identical to an untraced one (recording never perturbs the
    /// simulation).
    pub trace: Option<FleetTrace>,
}

impl ServeReport {
    /// Number of requests that completed.
    pub fn completed(&self) -> usize {
        self.outcomes.iter().filter(|o| o.succeeded()).count()
    }

    /// Number of accepted requests that failed during admission or
    /// execution (out-of-memory, unrecoverable resume, worker panic, ...).
    /// Rejections are not failures — see [`ServeReport::rejected`].
    pub fn failed(&self) -> usize {
        self.outcomes.iter().filter(|o| o.error.is_some()).count()
    }

    /// Number of requests shed by overload control (admission reject or
    /// queue-full). `accepted() + rejected()` partitions the submitted
    /// requests exactly: nothing is ever silently lost.
    pub fn rejected(&self) -> usize {
        self.outcomes.iter().filter(|o| o.was_rejected()).count()
    }

    /// Number of requests accepted into the serving pipeline (they either
    /// completed or failed with an error — never vanished).
    pub fn accepted(&self) -> usize {
        self.outcomes.len() - self.rejected()
    }

    /// Number of requests the steal planner re-placed from their backed-up
    /// home shard onto another device.
    pub fn stolen(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.stolen_from.is_some())
            .count()
    }

    /// Rejections broken down by cause; sums to [`ServeReport::rejected`].
    pub fn shed_by_cause(&self) -> ShedBreakdown {
        ShedBreakdown::from_outcomes(&self.outcomes)
    }

    /// Failures broken down by cause; sums to [`ServeReport::failed`].
    pub fn failed_by_cause(&self) -> FailureBreakdown {
        FailureBreakdown::from_outcomes(&self.outcomes)
    }

    /// Total injected-fault recovery attempts consumed across all
    /// outcomes; with `completed` as denominator this is the *retry
    /// amplification* the chaos bench reports.
    pub fn total_retries(&self) -> usize {
        self.outcomes.iter().map(|o| o.retries as usize).sum()
    }

    /// Debug-build check of the request-disposition partition (see
    /// [`crate::request`]): every outcome is exactly one of completed /
    /// rejected / failed, `accepted + rejected == submitted`,
    /// `completed + failed == accepted`, every rejection and failure
    /// carries exactly one typed cause, and a rejected request never
    /// carries an error. Called at every report commit point; a no-op in
    /// release builds.
    pub fn assert_disposition(&self) {
        #[cfg(debug_assertions)]
        {
            for o in &self.outcomes {
                assert!(
                    !(o.rejected.is_some() && o.error.is_some()),
                    "request #{} both rejected and errored",
                    o.seq
                );
                assert_eq!(
                    o.failure.is_some(),
                    o.error.is_some(),
                    "request #{}: failure cause must accompany exactly the errored outcomes",
                    o.seq
                );
            }
            let submitted = self.outcomes.len();
            assert_eq!(
                self.accepted() + self.rejected(),
                submitted,
                "accepted + rejected must partition the submitted requests"
            );
            assert_eq!(
                self.completed() + self.failed(),
                self.accepted(),
                "completed + failed must partition the accepted requests"
            );
            assert_eq!(
                self.shed_by_cause().total(),
                self.rejected(),
                "every rejection carries a cause"
            );
            assert_eq!(
                self.failed_by_cause().total(),
                self.failed(),
                "every failure carries a cause"
            );
        }
    }

    /// Wall-clock end of the whole run (max across devices).
    pub fn makespan_ms(&self) -> f64 {
        self.devices
            .iter()
            .map(|d| d.makespan_ms)
            .fold(0.0_f64, f64::max)
    }

    /// Mean admission-time laxity over the deadline-carrying requests, or
    /// 0.0 when nothing carried a deadline. Positive means the scheduler
    /// typically admitted deadline work with slack in hand.
    pub fn mean_admission_laxity_ms(&self) -> f64 {
        let laxities: Vec<f64> = self
            .outcomes
            .iter()
            .filter_map(|o| o.admission_laxity_ms)
            .collect();
        if laxities.is_empty() {
            0.0
        } else {
            laxities.iter().sum::<f64>() / laxities.len() as f64
        }
    }
}

impl std::fmt::Display for ServeReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{} policy: {}/{} requests completed in {:.0} ms ({:.2} req/s)",
            self.policy,
            self.completed(),
            self.outcomes.len(),
            self.makespan_ms(),
            self.throughput_rps
        )?;
        let shed = self.shed_by_cause();
        if shed.total() > 0 || self.stolen() > 0 {
            writeln!(
                f,
                "overload: {} rejected ({} deadline-unmeetable, {} queue-full), {} stolen",
                shed.total(),
                shed.deadline_unmeetable,
                shed.queue_full,
                self.stolen()
            )?;
        }
        let failed = self.failed_by_cause();
        if self.recovery.any() || failed.total() > 0 {
            writeln!(
                f,
                "recovery: {} retries, {} failovers, {} quarantines, {} probes; \
                 {} failed ({} device-lost, {} kernel-fault, {} oom-spike, {} out-of-memory, {} execution)",
                self.recovery.retries,
                self.recovery.failovers,
                self.recovery.quarantines,
                self.recovery.probes,
                failed.total(),
                failed.device_lost,
                failed.kernel_fault,
                failed.oom_spike,
                failed.out_of_memory,
                failed.execution
            )?;
        }
        match &self.latency {
            Some(latency) => writeln!(
                f,
                "latency p50/p95/p99: {:.0}/{:.0}/{:.0} ms (mean {:.0}, max {:.0})",
                latency.p50_ms, latency.p95_ms, latency.p99_ms, latency.mean_ms, latency.max_ms
            )?,
            None => writeln!(f, "latency: no completed requests")?,
        }
        if let (Some(ttft), Some(itl)) = (&self.ttft, &self.itl) {
            writeln!(
                f,
                "decode: {} tokens ({:.1} tok/s), TTFT p50/p95/p99 {:.0}/{:.0}/{:.0} ms, ITL p50/p95/p99 {:.1}/{:.1}/{:.1} ms",
                self.decode_tokens,
                self.tokens_per_s,
                ttft.p50_ms,
                ttft.p95_ms,
                ttft.p99_ms,
                itl.p50_ms,
                itl.p95_ms,
                itl.p99_ms
            )?;
        }
        for p in &self.per_priority {
            writeln!(
                f,
                "  prio {}: {} done, p50/p95/p99 {:.0}/{:.0}/{:.0} ms",
                p.priority, p.completed, p.latency.p50_ms, p.latency.p95_ms, p.latency.p99_ms
            )?;
        }
        if self.slo.tracked > 0 {
            writeln!(
                f,
                "SLO: {}/{} deadlines met ({:.0}% attainment), {} preemption{}",
                self.slo.met,
                self.slo.tracked,
                100.0 * self.slo.attainment(),
                self.preemptions,
                if self.preemptions == 1 { "" } else { "s" }
            )?;
            if self.slo.missed() > 0 {
                writeln!(
                    f,
                    "  misses by cause: {} queueing, {} execution, {} preemption, {} failed",
                    self.slo.missed_queue_wait,
                    self.slo.missed_execution,
                    self.slo.missed_preemption,
                    self.slo.missed_failed
                )?;
            }
        } else if self.preemptions > 0 {
            writeln!(f, "{} preemptions (no SLO deadlines set)", self.preemptions)?;
        }
        for d in &self.devices {
            writeln!(
                f,
                "  {}: {} reqs, makespan {:.0} ms, load queue {:.0}% busy, compute {:.0}% busy, peak {:.0} MB",
                d.device,
                d.requests,
                d.makespan_ms,
                100.0 * d.transfer_busy_fraction,
                100.0 * d.compute_busy_fraction,
                d.peak_memory_mb
            )?;
        }
        write!(f, "plan cache: {}", self.cache)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), Some(50.0));
        assert_eq!(percentile(&v, 0.95), Some(95.0));
        assert_eq!(percentile(&v, 0.99), Some(99.0));
        assert_eq!(percentile(&v, 1.0), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn summary_orders_quantiles() {
        let lat = [120.0, 10.0, 45.0, 300.0, 60.0];
        let s = LatencySummary::from_latencies(&lat).unwrap();
        assert!(s.p50_ms <= s.p95_ms);
        assert!(s.p95_ms <= s.p99_ms);
        assert_eq!(s.max_ms, 300.0);
        assert!((s.mean_ms - 107.0).abs() < 1e-9);
    }

    #[test]
    fn empty_summary_is_explicitly_absent() {
        // Regression: an empty sample set used to summarise as all-zero
        // percentiles, making a 100%-shed overload run look like
        // infinitely fast service. It must be `None` instead.
        assert_eq!(LatencySummary::from_latencies(&[]), None);
    }

    fn outcome(priority: u8, latency_ms: f64, deadline_ms: Option<f64>) -> RequestOutcome {
        RequestOutcome {
            seq: 0,
            model: "m".into(),
            tenant: "t".into(),
            priority,
            device: "d".into(),
            device_index: 0,
            arrival_ms: 0.0,
            start_ms: 0.0,
            completion_ms: latency_ms,
            queue_wait_ms: 0.0,
            latency_ms,
            deadline_ms,
            admission_laxity_ms: None,
            resident_estimate_bytes: 0,
            preemptions: 0,
            suspended_ms: 0.0,
            resume_penalty_ms: 0.0,
            cache_hit: false,
            peak_memory_mb: 0.0,
            phases: PhaseBreakdown::default(),
            rejected: None,
            stolen_from: None,
            error: None,
            failure: None,
            retries: 0,
            failed_over: false,
            report: None,
            decode: None,
        }
    }

    #[test]
    fn token_metrics_aggregate_completed_decodes_only() {
        let mut gen_ok = outcome(0, 100.0, None);
        gen_ok.decode = Some(DecodeOutcome {
            prompt_tokens: 8,
            output_tokens: 3,
            ttft_ms: 40.0,
            itl_ms: vec![10.0, 20.0],
            kv_peak_bytes: 10 * 4096,
            max_batch: 2,
        });
        let mut gen_failed = outcome(0, 100.0, None);
        gen_failed.decode = Some(DecodeOutcome {
            prompt_tokens: 8,
            output_tokens: 9,
            ttft_ms: 1.0,
            itl_ms: vec![1.0],
            kv_peak_bytes: 0,
            max_batch: 1,
        });
        gen_failed.error = Some(SimError::InvalidParameter {
            message: "x".into(),
        });
        let one_shot = outcome(0, 50.0, None);

        let m = TokenMetrics::from_outcomes(&[gen_ok, gen_failed, one_shot], 1_000.0);
        assert_eq!(m.decode_tokens, 3);
        assert_eq!(m.tokens_per_s, 3.0);
        assert_eq!(m.ttft.unwrap().max_ms, 40.0);
        assert_eq!(m.itl.unwrap().max_ms, 20.0);

        let empty = TokenMetrics::from_outcomes(&[outcome(0, 50.0, None)], 1_000.0);
        assert_eq!(empty.ttft, None);
        assert_eq!(empty.itl, None);
        assert_eq!(empty.decode_tokens, 0);
        assert_eq!(empty.tokens_per_s, 0.0);
    }

    #[test]
    fn slo_verdicts_and_attainment() {
        let ok = outcome(0, 100.0, Some(200.0));
        let late = outcome(0, 300.0, Some(200.0));
        let untracked = outcome(0, 999.0, None);
        let mut failed = outcome(0, 50.0, Some(200.0));
        failed.error = Some(SimError::InvalidParameter {
            message: "x".into(),
        });
        assert_eq!(ok.slo_met(), Some(true));
        assert_eq!(late.slo_met(), Some(false));
        assert_eq!(untracked.slo_met(), None);
        assert_eq!(failed.slo_met(), Some(false));
        assert_eq!(ok.slack_ms(), Some(100.0));
        assert_eq!(late.slack_ms(), Some(-100.0));
        assert_eq!(untracked.slack_ms(), None);

        let slo = SloSummary::from_outcomes(&[ok, late, untracked, failed]);
        assert_eq!(slo.tracked, 3);
        assert_eq!(slo.met, 1);
        assert_eq!(slo.missed(), 2);
        assert!((slo.attainment() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(SloSummary::default().attainment(), 1.0);
    }

    #[test]
    fn miss_causes_classify_in_order_of_specificity() {
        // Met or untracked: no cause.
        assert_eq!(outcome(0, 100.0, Some(200.0)).miss_cause(), None);
        assert_eq!(outcome(0, 999.0, None).miss_cause(), None);
        // Failed beats everything.
        let mut failed = outcome(0, 300.0, Some(200.0));
        failed.error = Some(SimError::InvalidParameter {
            message: "x".into(),
        });
        assert_eq!(failed.miss_cause(), Some(MissCause::Failed));
        // Suspension time that alone explains the overshoot: preemption.
        let mut preempted = outcome(0, 300.0, Some(200.0));
        preempted.suspended_ms = 120.0;
        preempted.resume_penalty_ms = 30.0;
        assert_eq!(preempted.miss_cause(), Some(MissCause::Preemption));
        // Queueing that alone explains the overshoot: queue wait.
        let mut queued = outcome(0, 300.0, Some(200.0));
        queued.queue_wait_ms = 250.0;
        assert_eq!(queued.miss_cause(), Some(MissCause::QueueWait));
        // Neither: the service time itself blew the budget.
        let slow = outcome(0, 300.0, Some(200.0));
        assert_eq!(slow.miss_cause(), Some(MissCause::Execution));
        // Suspension too small to explain the miss falls through to the
        // next cause.
        let mut barely_preempted = outcome(0, 300.0, Some(200.0));
        barely_preempted.suspended_ms = 10.0;
        assert_eq!(barely_preempted.miss_cause(), Some(MissCause::Execution));
    }

    #[test]
    fn slo_summary_attributes_every_miss_to_exactly_one_cause() {
        let ok = outcome(0, 100.0, Some(200.0));
        let slow = outcome(0, 300.0, Some(200.0));
        let mut queued = outcome(0, 300.0, Some(200.0));
        queued.queue_wait_ms = 250.0;
        let mut preempted = outcome(0, 300.0, Some(200.0));
        preempted.suspended_ms = 150.0;
        let mut failed = outcome(0, 50.0, Some(200.0));
        failed.error = Some(SimError::InvalidParameter {
            message: "x".into(),
        });
        let slo = SloSummary::from_outcomes(&[ok, slow, queued, preempted, failed]);
        assert_eq!(slo.tracked, 5);
        assert_eq!(slo.met, 1);
        assert_eq!(slo.missed(), 4);
        assert_eq!(slo.missed_execution, 1);
        assert_eq!(slo.missed_queue_wait, 1);
        assert_eq!(slo.missed_preemption, 1);
        assert_eq!(slo.missed_failed, 1);
        assert_eq!(
            slo.missed_queue_wait
                + slo.missed_execution
                + slo.missed_preemption
                + slo.missed_failed,
            slo.missed()
        );
    }

    #[test]
    fn rejected_requests_are_excluded_from_slo_accounting() {
        let mut shed = outcome(0, 0.0, Some(200.0));
        shed.rejected = Some(RejectCause::DeadlineUnmeetable);
        assert!(!shed.succeeded());
        assert!(shed.was_rejected());
        // A deadline-carrying reject is *not* SLO-tracked: it was never
        // accepted into the pipeline.
        assert_eq!(shed.slo_met(), None);
        assert_eq!(shed.miss_cause(), None);
        let slo = SloSummary::from_outcomes(&[shed, outcome(0, 100.0, Some(200.0))]);
        assert_eq!(slo.tracked, 1);
        assert_eq!(slo.met, 1);
    }

    #[test]
    fn shed_breakdown_sums_to_the_rejected_tally() {
        let ok = outcome(0, 100.0, None);
        let mut unmeetable = outcome(0, 0.0, Some(1.0));
        unmeetable.rejected = Some(RejectCause::DeadlineUnmeetable);
        let mut full_a = outcome(0, 0.0, None);
        full_a.rejected = Some(RejectCause::QueueFull);
        let mut full_b = outcome(0, 0.0, None);
        full_b.rejected = Some(RejectCause::QueueFull);
        let outcomes = vec![ok, unmeetable, full_a, full_b];
        let shed = ShedBreakdown::from_outcomes(&outcomes);
        assert_eq!(shed.deadline_unmeetable, 1);
        assert_eq!(shed.queue_full, 2);
        assert_eq!(shed.total(), 3);
        assert_eq!(RejectCause::QueueFull.label(), "queue-full");
        assert_eq!(
            RejectCause::DeadlineUnmeetable.to_string(),
            "deadline-unmeetable"
        );
    }

    #[test]
    fn per_priority_breakdown_groups_and_sorts() {
        let outcomes = vec![
            outcome(2, 10.0, None),
            outcome(0, 100.0, None),
            outcome(2, 30.0, None),
            outcome(0, 200.0, None),
        ];
        let per = PriorityLatency::from_outcomes(&outcomes);
        assert_eq!(per.len(), 2);
        assert_eq!(per[0].priority, 0);
        assert_eq!(per[0].completed, 2);
        assert_eq!(per[0].latency.max_ms, 200.0);
        assert_eq!(per[1].priority, 2);
        assert_eq!(per[1].latency.max_ms, 30.0);
    }
}
