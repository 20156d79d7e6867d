//! Pluggable scheduling policies.
//!
//! A policy decides four things: which device of the fleet a request is
//! placed on, which of the arrived-but-unadmitted requests is admitted next
//! when a slot frees up, how many inferences may be in flight on one
//! device at once (1 = exclusive, the FIFO baseline; >1 = the event loop
//! interleaves their command streams on the device's dual queues), and
//! whether a waiting request may *preempt* a running one (and at what
//! resume cost).
//!
//! ## Urgency, deadlines and laxity
//!
//! Every scheduling decision receives a [`PolicyContext`] carrying the
//! current simulated time, and every candidate ([`PendingEntry`]) and
//! running inference ([`InFlightEntry`]) carries its absolute deadline and
//! an estimate of its remaining service time. From those three quantities a
//! policy can compute **laxity** — the scheduling slack of a request:
//!
//! ```text
//! laxity = deadline − now − estimated_remaining_service_time
//! ```
//!
//! A request with positive laxity can afford to wait that long and still
//! meet its deadline; zero laxity must start *now*; negative laxity is
//! predicted to miss even with immediate service. [`EdfPolicy`] orders by
//! deadline alone, [`LeastLaxityPolicy`] by laxity, and
//! [`DeadlinePreemptivePolicy`] suspends running work when an arrival's
//! laxity would go negative waiting for it while the victim stays slack.

use flashmem_core::cache::Fnv1a;
use flashmem_gpu_sim::engine::PreemptionCost;

use crate::request::{clamp_non_negative, ServeRequest};

/// The time-varying state a policy decision is made against.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PolicyContext {
    /// Current simulated time on the device timeline, in milliseconds.
    pub now_ms: f64,
}

impl PolicyContext {
    /// A context at simulated time `now_ms`.
    pub fn at(now_ms: f64) -> Self {
        PolicyContext { now_ms }
    }
}

/// The scheduling-relevant view of one pending request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PendingEntry {
    /// Submission sequence number (global, stable tie-breaker).
    pub seq: usize,
    /// Request priority (higher = more urgent).
    pub priority: u8,
    /// Arrival time in milliseconds.
    pub arrival_ms: f64,
    /// Absolute SLO deadline in milliseconds (arrival plus the request's
    /// relative latency budget), when the request carries one.
    pub deadline_ms: Option<f64>,
    /// Predicted remaining service time in milliseconds — the uncontended
    /// makespan of the request's lowered command stream (scaled by the
    /// remaining command fraction for a previously suspended request). Zero
    /// when the active policy does not request estimates
    /// ([`SchedulePolicy::uses_estimates`]).
    pub estimated_remaining_ms: f64,
}

impl PendingEntry {
    /// Laxity at `now_ms`: `deadline − now − estimated_remaining`, or
    /// `None` for a deadline-less request (which never runs out of slack).
    pub fn laxity_ms(&self, now_ms: f64) -> Option<f64> {
        self.deadline_ms
            .map(|d| d - now_ms - self.estimated_remaining_ms)
    }
}

/// The scheduling-relevant view of one in-flight (running) inference — what
/// a preemptive policy ranks when choosing a victim.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InFlightEntry {
    /// Submission sequence number.
    pub seq: usize,
    /// Request priority (higher = more urgent).
    pub priority: u8,
    /// Admission order on the device (larger = admitted more recently).
    pub order: usize,
    /// Absolute SLO deadline in milliseconds, when the request carries one.
    pub deadline_ms: Option<f64>,
    /// Predicted remaining service time in milliseconds (the uncontended
    /// stream makespan scaled by the fraction of commands not yet issued).
    pub estimated_remaining_ms: f64,
}

impl InFlightEntry {
    /// Laxity at `now_ms`: `deadline − now − estimated_remaining`, or
    /// `None` for a deadline-less inference (infinitely slack).
    pub fn laxity_ms(&self, now_ms: f64) -> Option<f64> {
        self.deadline_ms
            .map(|d| d - now_ms - self.estimated_remaining_ms)
    }
}

/// Fleet-wide overload behavior, layered *on top of* whatever
/// [`SchedulePolicy`] is active. Everything here is opt-in and off by
/// default, so an engine without overload control is bit-identical to the
/// pre-overload engine.
///
/// Three independent knobs:
///
/// * **Admission control** early-rejects a request whose deadline is
///   provably unmeetable: even the *uncontended* predicted service time on
///   the fleet's best device exceeds its latency budget, i.e. its laxity is
///   negative on every shard before any queueing. Such work can only waste
///   queue space and device time — shedding it at arrival with a typed
///   [`RejectCause::DeadlineUnmeetable`](crate::RejectCause) is strictly
///   better than serving it late.
/// * **Bounded queues** cap the number of arrived-but-unadmitted requests
///   per device; an arrival past the bound is shed with
///   [`RejectCause::QueueFull`](crate::RejectCause) instead of growing the
///   queue (and every queued request's latency) without limit.
/// * **Stealing** re-places *queued* (never in-flight) requests from
///   backed-up shards onto devices that would start them strictly earlier.
///   Steal decisions are made sequentially in submission order at the
///   run's commit point, so the result is byte-identical at any pool width.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OverloadControl {
    /// Maximum arrived-but-unadmitted requests per device; `None` leaves
    /// queues unbounded (the legacy behavior).
    pub queue_bound: Option<usize>,
    /// When true, reject deadline-carrying requests whose laxity is
    /// provably negative on every device of the fleet.
    pub admission_control: bool,
    /// When true, re-place queued requests from backed-up shards onto
    /// devices that would start them strictly earlier.
    pub steal: bool,
}

impl OverloadControl {
    /// Everything off — the legacy unbounded-queue behavior.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Bound every device's admission queue to `bound` waiting requests
    /// (clamped to at least 1; builder style).
    pub fn with_queue_bound(mut self, bound: usize) -> Self {
        self.queue_bound = Some(bound.max(1));
        self
    }

    /// Enable fleet-wide deadline admission control (builder style).
    pub fn with_admission_control(mut self) -> Self {
        self.admission_control = true;
        self
    }

    /// Enable the queued-request steal phase (builder style).
    pub fn with_steal(mut self) -> Self {
        self.steal = true;
        self
    }

    /// True when any knob is on — the engine skips the whole overload
    /// pipeline otherwise.
    pub fn any_enabled(&self) -> bool {
        self.queue_bound.is_some() || self.admission_control || self.steal
    }

    /// True when the run prologue needs per-(model, device) service-time
    /// predictions: both admission control (the laxity bound) and the
    /// steal planner (completion estimates) consume them.
    pub fn uses_estimates(&self) -> bool {
        self.admission_control || self.steal
    }
}

/// Fleet-wide failure recovery, layered *on top of* whatever
/// [`SchedulePolicy`] is active — the companion of [`OverloadControl`] for
/// *faults* rather than load. Everything here is opt-in and off by default,
/// so an engine without recovery control is byte-identical to the
/// pre-recovery engine even when a fault plan is armed (faults then simply
/// become typed failures).
///
/// Three independent defenses:
///
/// * **Retry with backoff** re-enqueues a request killed by a *transient*
///   injected fault (kernel fault, OOM spike) on the same device, up to
///   [`retry_budget`](Self::retry_budget) times per request, each retry
///   delayed by `backoff_ms × attempts` of *simulated* time.
/// * **Failover** re-places work stranded by a device loss or quarantine
///   onto surviving devices. The recovery planner runs sequentially between
///   fan-out rounds — the fault analogue of the steal planner's commit
///   point — so re-placement is byte-identical at any pool width. Work
///   drained from a *quarantined* (still alive) device migrates as a
///   [`Suspension`](flashmem_gpu_sim::engine::Suspension) and resumes
///   mid-stream on a same-spec sibling when one survives; work on a *lost*
///   device restarts from scratch (its memory died with it), and decode
///   requests re-prefill from their token position.
/// * **Quarantine (circuit breaker)** tracks per-device health: a device
///   whose injected-fault count crosses
///   [`quarantine_threshold`](Self::quarantine_threshold) stops receiving
///   placements; after [`probe_after_ms`](Self::probe_after_ms) of
///   simulated time it may receive exactly one *probe* request — a clean
///   probe reinstates the device, a faulting one re-quarantines it. A lost
///   device is quarantined permanently and never probed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryControl {
    /// Injected-fault retries allowed per request; 0 disables retry.
    pub retry_budget: u32,
    /// Simulated-time backoff before a retry or failover becomes eligible:
    /// the n-th recovery of a request waits `backoff_ms × n`.
    pub backoff_ms: f64,
    /// When true, re-place work stranded by a device loss or quarantine
    /// onto surviving devices instead of failing it.
    pub failover: bool,
    /// Injected faults a device may fire within one fan-out round before it
    /// is quarantined; `None` never quarantines.
    pub quarantine_threshold: Option<u32>,
    /// Simulated quarantine time before a device becomes eligible for a
    /// probe placement.
    pub probe_after_ms: f64,
}

impl Default for RecoveryControl {
    fn default() -> Self {
        RecoveryControl {
            retry_budget: 0,
            backoff_ms: 0.0,
            failover: false,
            quarantine_threshold: None,
            probe_after_ms: 0.0,
        }
    }
}

impl RecoveryControl {
    /// Everything off — faults become typed failures, nothing is retried,
    /// re-placed or quarantined.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Allow up to `budget` same-device retries per request (builder
    /// style).
    pub fn with_retry_budget(mut self, budget: u32) -> Self {
        self.retry_budget = budget;
        self
    }

    /// Set the simulated-time backoff unit between recovery attempts
    /// (builder style, clamped to non-negative; a NaN or infinite value is
    /// kept, and the run rejects it).
    pub fn with_backoff_ms(mut self, backoff_ms: f64) -> Self {
        self.backoff_ms = clamp_non_negative(backoff_ms);
        self
    }

    /// Enable failover re-placement of stranded work (builder style).
    pub fn with_failover(mut self) -> Self {
        self.failover = true;
        self
    }

    /// Quarantine a device after `threshold` injected faults in one round
    /// (clamped to at least 1) and allow a probe after `probe_after_ms` of
    /// simulated time (builder style, clamped to non-negative; a NaN or
    /// infinite value is kept, and the run rejects it).
    pub fn with_quarantine(mut self, threshold: u32, probe_after_ms: f64) -> Self {
        self.quarantine_threshold = Some(threshold.max(1));
        self.probe_after_ms = clamp_non_negative(probe_after_ms);
        self
    }

    /// True when any knob is on. A device loss counts as a quarantine in
    /// [`RecoveryTallies`](crate::RecoveryTallies) only then, so an
    /// unprotected run reports no recovery decisions.
    pub fn any_enabled(&self) -> bool {
        self.retry_budget > 0 || self.failover || self.quarantine_threshold.is_some()
    }
}

/// A scheduling policy for the [`ServeEngine`](crate::ServeEngine).
pub trait SchedulePolicy: Send + Sync {
    /// Display name used in reports.
    fn name(&self) -> &'static str;

    /// Maximum number of in-flight inferences per device. The event loop
    /// clamps this to at least 1.
    fn max_in_flight(&self) -> usize {
        1
    }

    /// True when the policy's decisions consume
    /// [`estimated_remaining_ms`](PendingEntry::estimated_remaining_ms).
    /// The engine only pays for service-time prediction (one uncontended
    /// replay of each distinct model's command stream per device) when a
    /// policy asks for it; otherwise every estimate is reported as zero.
    fn uses_estimates(&self) -> bool {
        false
    }

    /// Device index (into a fleet of `fleet_len` devices) for a request.
    fn place(&self, request: &ServeRequest, seq: usize, fleet_len: usize) -> usize;

    /// Index into `candidates` (non-empty, all arrived) of the request to
    /// admit next, decided at the simulated time in `ctx`.
    fn pick(&self, candidates: &[PendingEntry], ctx: &PolicyContext) -> usize;

    /// When `Some`, the policy is *preemptive*: if every slot is busy and a
    /// waiting request [`outranks`](Self::outranks) the
    /// [`victim`](Self::victim) among the in-flight inferences, the event
    /// loop suspends that inference at its next command boundary (evicting
    /// its resident memory) and charges the returned [`PreemptionCost`] when
    /// it later resumes. `None` (the default) never interrupts running work.
    fn preemption(&self) -> Option<PreemptionCost> {
        None
    }

    /// Index into `in_flight` (non-empty) of the inference a preemptive
    /// policy would suspend first. The default picks the lowest priority,
    /// breaking ties toward the most recently admitted so older work keeps
    /// its progress.
    fn victim(&self, in_flight: &[InFlightEntry], _ctx: &PolicyContext) -> usize {
        let mut best = 0;
        for (i, f) in in_flight.iter().enumerate().skip(1) {
            let b = &in_flight[best];
            if (f.priority, std::cmp::Reverse(f.order)) < (b.priority, std::cmp::Reverse(b.order)) {
                best = i;
            }
        }
        best
    }

    /// True when `candidate` justifies suspending `victim` right now. Only
    /// consulted under a preemptive policy ([`preemption`](Self::preemption)
    /// is `Some`). The default is strict priority order: a preemption fires
    /// only for a strictly higher-priority candidate.
    fn outranks(
        &self,
        candidate: &PendingEntry,
        victim: &InFlightEntry,
        _ctx: &PolicyContext,
    ) -> bool {
        candidate.priority > victim.priority
    }
}

/// Index of the candidate minimising (arrival, seq) — plain FIFO order.
fn pick_fifo(candidates: &[PendingEntry]) -> usize {
    let mut best = 0;
    for (i, c) in candidates.iter().enumerate().skip(1) {
        let b = &candidates[best];
        if (c.arrival_ms, c.seq) < (b.arrival_ms, b.seq) {
            best = i;
        }
    }
    best
}

/// Index of the highest-priority candidate; ties go to the earlier
/// (arrival, seq), so equal-priority admission stays FIFO.
fn pick_priority(candidates: &[PendingEntry]) -> usize {
    let mut best = 0;
    for (i, c) in candidates.iter().enumerate().skip(1) {
        let b = &candidates[best];
        let better = c.priority > b.priority
            || (c.priority == b.priority && (c.arrival_ms, c.seq) < (b.arrival_ms, b.seq));
        if better {
            best = i;
        }
    }
    best
}

/// Index of the deadline-carrying candidate with the earliest absolute
/// deadline (ties to earlier arrival/seq). When no candidate carries a
/// deadline, falls back to priority order — EDF with a priority floor.
fn pick_edf(candidates: &[PendingEntry]) -> usize {
    let mut best: Option<usize> = None;
    for (i, c) in candidates.iter().enumerate() {
        let Some(deadline) = c.deadline_ms else {
            continue;
        };
        match best {
            None => best = Some(i),
            Some(b) => {
                let bc = &candidates[b];
                let best_deadline = bc.deadline_ms.expect("best candidate carries a deadline");
                if (deadline, c.arrival_ms, c.seq) < (best_deadline, bc.arrival_ms, bc.seq) {
                    best = Some(i);
                }
            }
        }
    }
    best.unwrap_or_else(|| pick_priority(candidates))
}

/// Index of the deadline-carrying candidate with the least laxity at
/// `now_ms` (ties to earlier deadline, then arrival/seq). Falls back to
/// priority order when nothing carries a deadline.
fn pick_least_laxity(candidates: &[PendingEntry], now_ms: f64) -> usize {
    let mut best: Option<usize> = None;
    for (i, c) in candidates.iter().enumerate() {
        let Some(laxity) = c.laxity_ms(now_ms) else {
            continue;
        };
        match best {
            None => best = Some(i),
            Some(b) => {
                let bc = &candidates[b];
                let best_laxity = bc.laxity_ms(now_ms).expect("best candidate has laxity");
                let key = (
                    laxity,
                    c.deadline_ms.unwrap_or(f64::INFINITY),
                    c.arrival_ms,
                    c.seq,
                );
                let best_key = (
                    best_laxity,
                    bc.deadline_ms.unwrap_or(f64::INFINITY),
                    bc.arrival_ms,
                    bc.seq,
                );
                if key < best_key {
                    best = Some(i);
                }
            }
        }
    }
    best.unwrap_or_else(|| pick_priority(candidates))
}

/// First-in-first-out, one inference at a time per device, requests placed
/// round-robin across the fleet. On a single device this reproduces the
/// legacy `MultiModelRunner` exactly.
#[derive(Debug, Clone, Copy, Default)]
pub struct FifoPolicy;

impl SchedulePolicy for FifoPolicy {
    fn name(&self) -> &'static str {
        "fifo"
    }

    fn place(&self, _request: &ServeRequest, seq: usize, fleet_len: usize) -> usize {
        seq % fleet_len.max(1)
    }

    fn pick(&self, candidates: &[PendingEntry], _ctx: &PolicyContext) -> usize {
        pick_fifo(candidates)
    }
}

/// Strict priority admission: among arrived requests the highest priority is
/// admitted first; ties fall back to FIFO order, so a high-priority request
/// can never be overtaken by a lower-priority one that was pending at the
/// same time (no priority inversion).
#[derive(Debug, Clone, Copy)]
pub struct PriorityPolicy {
    max_in_flight: usize,
}

impl PriorityPolicy {
    /// Exclusive (one in-flight inference per device) priority scheduling.
    pub fn new() -> Self {
        PriorityPolicy { max_in_flight: 1 }
    }

    /// Priority scheduling with up to `slots` concurrent inferences per
    /// device sharing the dual queues.
    pub fn with_max_in_flight(slots: usize) -> Self {
        PriorityPolicy {
            max_in_flight: slots.max(1),
        }
    }
}

impl Default for PriorityPolicy {
    fn default() -> Self {
        Self::new()
    }
}

impl SchedulePolicy for PriorityPolicy {
    fn name(&self) -> &'static str {
        "priority"
    }

    fn max_in_flight(&self) -> usize {
        self.max_in_flight
    }

    fn place(&self, _request: &ServeRequest, seq: usize, fleet_len: usize) -> usize {
        seq % fleet_len.max(1)
    }

    fn pick(&self, candidates: &[PendingEntry], _ctx: &PolicyContext) -> usize {
        pick_priority(candidates)
    }
}

/// Priority scheduling that may *interrupt* running work: when every slot is
/// busy and an arrived request strictly outranks the lowest-priority
/// in-flight inference, that inference is suspended at its next command
/// boundary (its resident weights evicted) and resumed once a slot frees,
/// paying the configured [`PreemptionCost`] for re-residency. This is what
/// lets a latency-critical request meet its SLO even while a long
/// low-priority inference monopolizes the device.
#[derive(Debug, Clone, Copy)]
pub struct PreemptivePriorityPolicy {
    max_in_flight: usize,
    cost: PreemptionCost,
}

impl PreemptivePriorityPolicy {
    /// Exclusive (one in-flight inference per device) preemptive scheduling
    /// with full re-residency cost charged on resume.
    pub fn new() -> Self {
        PreemptivePriorityPolicy {
            max_in_flight: 1,
            cost: PreemptionCost::reload(),
        }
    }

    /// Preemptive scheduling with up to `slots` concurrent inferences per
    /// device sharing the dual queues.
    pub fn with_max_in_flight(slots: usize) -> Self {
        PreemptivePriorityPolicy {
            max_in_flight: slots.max(1),
            ..Self::new()
        }
    }

    /// Override the cost charged when a preempted inference resumes
    /// (builder style).
    pub fn with_cost(mut self, cost: PreemptionCost) -> Self {
        self.cost = cost;
        self
    }
}

impl Default for PreemptivePriorityPolicy {
    fn default() -> Self {
        Self::new()
    }
}

impl SchedulePolicy for PreemptivePriorityPolicy {
    fn name(&self) -> &'static str {
        "preemptive"
    }

    fn max_in_flight(&self) -> usize {
        self.max_in_flight
    }

    fn place(&self, _request: &ServeRequest, seq: usize, fleet_len: usize) -> usize {
        seq % fleet_len.max(1)
    }

    fn pick(&self, candidates: &[PendingEntry], _ctx: &PolicyContext) -> usize {
        pick_priority(candidates)
    }

    fn preemption(&self) -> Option<PreemptionCost> {
        Some(self.cost)
    }
}

/// Device-affinity sharding: every request of one tenant lands on the same
/// device (stable hash of the tenant name), so a tenant's weights never
/// bounce between devices and its plan-cache entries stay hot on one shard.
/// Within a shard, admission is FIFO with a configurable concurrency.
#[derive(Debug, Clone, Copy)]
pub struct AffinityPolicy {
    max_in_flight: usize,
}

impl AffinityPolicy {
    /// Affinity sharding with two in-flight inferences per device — the
    /// dual-queue sweet spot (one inference's loads overlap another's
    /// kernels).
    pub fn new() -> Self {
        AffinityPolicy { max_in_flight: 2 }
    }

    /// Affinity sharding with up to `slots` concurrent inferences per device.
    pub fn with_max_in_flight(slots: usize) -> Self {
        AffinityPolicy {
            max_in_flight: slots.max(1),
        }
    }
}

impl Default for AffinityPolicy {
    fn default() -> Self {
        Self::new()
    }
}

impl SchedulePolicy for AffinityPolicy {
    fn name(&self) -> &'static str {
        "affinity"
    }

    fn max_in_flight(&self) -> usize {
        self.max_in_flight
    }

    fn place(&self, request: &ServeRequest, _seq: usize, fleet_len: usize) -> usize {
        let hash = Fnv1a::new().write_str(&request.tenant).finish();
        (hash % fleet_len.max(1) as u64) as usize
    }

    fn pick(&self, candidates: &[PendingEntry], _ctx: &PolicyContext) -> usize {
        pick_fifo(candidates)
    }
}

/// Earliest-deadline-first admission: among arrived requests the one whose
/// absolute deadline expires soonest is admitted next, regardless of static
/// priority. Deadline-less requests yield to every deadline-carrying one and
/// fall back to priority/arrival order among themselves. EDF is optimal for
/// meeting deadlines on a single exclusive resource when the workload is
/// feasible — the serving-side analogue of ordering memory traffic by what
/// the hierarchy actually demands instead of by static rank.
#[derive(Debug, Clone, Copy)]
pub struct EdfPolicy {
    max_in_flight: usize,
}

impl EdfPolicy {
    /// Exclusive (one in-flight inference per device) EDF scheduling.
    pub fn new() -> Self {
        EdfPolicy { max_in_flight: 1 }
    }

    /// EDF with up to `slots` concurrent inferences per device sharing the
    /// dual queues.
    pub fn with_max_in_flight(slots: usize) -> Self {
        EdfPolicy {
            max_in_flight: slots.max(1),
        }
    }
}

impl Default for EdfPolicy {
    fn default() -> Self {
        Self::new()
    }
}

impl SchedulePolicy for EdfPolicy {
    fn name(&self) -> &'static str {
        "edf"
    }

    fn max_in_flight(&self) -> usize {
        self.max_in_flight
    }

    fn place(&self, _request: &ServeRequest, seq: usize, fleet_len: usize) -> usize {
        seq % fleet_len.max(1)
    }

    fn pick(&self, candidates: &[PendingEntry], _ctx: &PolicyContext) -> usize {
        pick_edf(candidates)
    }
}

/// Least-laxity-first admission: among arrived requests the one with the
/// smallest `deadline − now − estimated_remaining_service` is admitted next,
/// so a short request about to blow a tight budget overtakes a long request
/// whose loose deadline leaves it slack — even when both deadlines are equal.
/// Requires service-time estimates ([`SchedulePolicy::uses_estimates`]), which
/// the engine derives from each compiled plan's uncontended stream makespan.
/// Deadline-less requests fall back to priority/arrival order.
#[derive(Debug, Clone, Copy)]
pub struct LeastLaxityPolicy {
    max_in_flight: usize,
}

impl LeastLaxityPolicy {
    /// Exclusive (one in-flight inference per device) least-laxity
    /// scheduling.
    pub fn new() -> Self {
        LeastLaxityPolicy { max_in_flight: 1 }
    }

    /// Least-laxity scheduling with up to `slots` concurrent inferences per
    /// device sharing the dual queues.
    pub fn with_max_in_flight(slots: usize) -> Self {
        LeastLaxityPolicy {
            max_in_flight: slots.max(1),
        }
    }
}

impl Default for LeastLaxityPolicy {
    fn default() -> Self {
        Self::new()
    }
}

impl SchedulePolicy for LeastLaxityPolicy {
    fn name(&self) -> &'static str {
        "least_laxity"
    }

    fn max_in_flight(&self) -> usize {
        self.max_in_flight
    }

    fn uses_estimates(&self) -> bool {
        true
    }

    fn place(&self, _request: &ServeRequest, seq: usize, fleet_len: usize) -> usize {
        seq % fleet_len.max(1)
    }

    fn pick(&self, candidates: &[PendingEntry], ctx: &PolicyContext) -> usize {
        pick_least_laxity(candidates, ctx.now_ms)
    }
}

/// Deadline-triggered preemption: least-laxity admission plus the ability to
/// suspend running work, gated on *urgency* instead of static priority. A
/// preemption fires only when both hold:
///
/// 1. the arrival's laxity is **negative-bound** — waiting out the victim's
///    remaining service would drive it negative
///    (`laxity < victim.estimated_remaining`), so the deadline is lost
///    unless the victim yields now; and
/// 2. the victim **stays slack** — after absorbing the arrival's service
///    time *and* the fixed part of the resume cost, its own laxity remains
///    positive (a deadline-less victim is infinitely slack), so the rescue
///    does not knowingly trade one miss for another. The check is an
///    estimate: byte-dependent re-residency penalties (disk reload, texture
///    re-pack) and re-admission queueing are not known at trigger time, so
///    a victim suspended with slim slack can still miss — such misses are
///    attributed to [`MissCause::Preemption`](crate::MissCause::Preemption)
///    in the report.
///
/// The victim is the in-flight inference with the *most* laxity. Because a
/// rescued request is by construction less slack than its victim, the freed
/// inference can never immediately preempt back — the trigger cannot
/// ping-pong between two requests at one instant.
#[derive(Debug, Clone, Copy)]
pub struct DeadlinePreemptivePolicy {
    max_in_flight: usize,
    cost: PreemptionCost,
}

impl DeadlinePreemptivePolicy {
    /// Exclusive (one in-flight inference per device) deadline-triggered
    /// preemptive scheduling with full re-residency cost charged on resume.
    pub fn new() -> Self {
        DeadlinePreemptivePolicy {
            max_in_flight: 1,
            cost: PreemptionCost::reload(),
        }
    }

    /// Deadline-triggered preemption with up to `slots` concurrent
    /// inferences per device sharing the dual queues.
    pub fn with_max_in_flight(slots: usize) -> Self {
        DeadlinePreemptivePolicy {
            max_in_flight: slots.max(1),
            ..Self::new()
        }
    }

    /// Override the cost charged when a preempted inference resumes
    /// (builder style).
    pub fn with_cost(mut self, cost: PreemptionCost) -> Self {
        self.cost = cost;
        self
    }
}

impl Default for DeadlinePreemptivePolicy {
    fn default() -> Self {
        Self::new()
    }
}

impl SchedulePolicy for DeadlinePreemptivePolicy {
    fn name(&self) -> &'static str {
        "deadline_preemptive"
    }

    fn max_in_flight(&self) -> usize {
        self.max_in_flight
    }

    fn uses_estimates(&self) -> bool {
        true
    }

    fn place(&self, _request: &ServeRequest, seq: usize, fleet_len: usize) -> usize {
        seq % fleet_len.max(1)
    }

    fn pick(&self, candidates: &[PendingEntry], ctx: &PolicyContext) -> usize {
        pick_least_laxity(candidates, ctx.now_ms)
    }

    fn preemption(&self) -> Option<PreemptionCost> {
        Some(self.cost)
    }

    fn victim(&self, in_flight: &[InFlightEntry], ctx: &PolicyContext) -> usize {
        // The slackest inference yields first; deadline-less work is
        // infinitely slack. Ties go to the most recently admitted.
        let mut best = 0;
        for (i, f) in in_flight.iter().enumerate().skip(1) {
            let b = &in_flight[best];
            let laxity = f.laxity_ms(ctx.now_ms).unwrap_or(f64::INFINITY);
            let best_laxity = b.laxity_ms(ctx.now_ms).unwrap_or(f64::INFINITY);
            let better = laxity > best_laxity || (laxity == best_laxity && f.order > b.order);
            if better {
                best = i;
            }
        }
        best
    }

    fn outranks(
        &self,
        candidate: &PendingEntry,
        victim: &InFlightEntry,
        ctx: &PolicyContext,
    ) -> bool {
        let Some(laxity) = candidate.laxity_ms(ctx.now_ms) else {
            // A deadline-less arrival can always wait.
            return false;
        };
        let negative_bound = laxity < victim.estimated_remaining_ms;
        let victim_stays_slack = victim
            .laxity_ms(ctx.now_ms)
            .is_none_or(|v| v - candidate.estimated_remaining_ms - self.cost.fixed_ms > 0.0);
        negative_bound && victim_stays_slack
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashmem_graph::ModelZoo;

    fn entry(seq: usize, priority: u8, arrival_ms: f64) -> PendingEntry {
        PendingEntry {
            seq,
            priority,
            arrival_ms,
            deadline_ms: None,
            estimated_remaining_ms: 0.0,
        }
    }

    fn deadline_entry(seq: usize, deadline_ms: f64, estimated_ms: f64) -> PendingEntry {
        PendingEntry {
            seq,
            priority: 0,
            arrival_ms: 0.0,
            deadline_ms: Some(deadline_ms),
            estimated_remaining_ms: estimated_ms,
        }
    }

    fn running(seq: usize, priority: u8, order: usize) -> InFlightEntry {
        InFlightEntry {
            seq,
            priority,
            order,
            deadline_ms: None,
            estimated_remaining_ms: 0.0,
        }
    }

    const CTX: PolicyContext = PolicyContext { now_ms: 0.0 };

    #[test]
    fn overload_control_defaults_off_and_builders_compose() {
        let off = OverloadControl::disabled();
        assert!(!off.any_enabled());
        assert!(!off.uses_estimates());
        assert_eq!(off, OverloadControl::default());

        let bounded = OverloadControl::disabled().with_queue_bound(0);
        assert_eq!(bounded.queue_bound, Some(1)); // clamped
        assert!(bounded.any_enabled());
        assert!(!bounded.uses_estimates()); // a bound alone needs no estimates

        let full = OverloadControl::disabled()
            .with_queue_bound(4)
            .with_admission_control()
            .with_steal();
        assert!(full.any_enabled());
        assert!(full.uses_estimates());
        assert_eq!(full.queue_bound, Some(4));
    }

    #[test]
    fn fifo_picks_earliest_arrival_then_sequence() {
        let c = [entry(2, 9, 5.0), entry(0, 0, 5.0), entry(1, 0, 1.0)];
        assert_eq!(FifoPolicy.pick(&c, &CTX), 2);
        let tie = [entry(3, 0, 0.0), entry(1, 0, 0.0)];
        assert_eq!(FifoPolicy.pick(&tie, &CTX), 1);
    }

    #[test]
    fn priority_beats_arrival_order() {
        let p = PriorityPolicy::new();
        let c = [entry(0, 1, 0.0), entry(1, 5, 10.0), entry(2, 5, 2.0)];
        // Highest priority wins; among equal priorities the earlier arrival.
        assert_eq!(p.pick(&c, &CTX), 2);
        assert_eq!(p.max_in_flight(), 1);
        assert_eq!(PriorityPolicy::with_max_in_flight(0).max_in_flight(), 1);
    }

    #[test]
    fn preemptive_policy_exposes_its_cost_and_picks_like_priority() {
        let p = PreemptivePriorityPolicy::new();
        assert_eq!(p.max_in_flight(), 1);
        assert!(p.preemption().expect("preemptive").reload_evicted);
        let free = PreemptivePriorityPolicy::with_max_in_flight(2)
            .with_cost(PreemptionCost::free().with_fixed_ms(5.0));
        assert_eq!(free.max_in_flight(), 2);
        let cost = free.preemption().expect("preemptive");
        assert!(!cost.reload_evicted);
        assert_eq!(cost.fixed_ms, 5.0);
        // Non-preemptive policies report None.
        assert!(FifoPolicy.preemption().is_none());
        assert!(PriorityPolicy::new().preemption().is_none());
        // Same admission order as the plain priority policy.
        let c = [entry(0, 1, 0.0), entry(1, 5, 10.0), entry(2, 5, 2.0)];
        assert_eq!(p.pick(&c, &CTX), PriorityPolicy::new().pick(&c, &CTX));
    }

    #[test]
    fn default_victim_is_lowest_priority_most_recent() {
        let p = PreemptivePriorityPolicy::new();
        let flights = [running(0, 2, 0), running(1, 0, 1), running(2, 0, 2)];
        // Priority 0 twice: the more recently admitted (order 2) yields.
        assert_eq!(p.victim(&flights, &CTX), 2);
        // Default outranking is strict priority.
        assert!(p.outranks(&entry(9, 1, 0.0), &flights[2], &CTX));
        assert!(!p.outranks(&entry(9, 0, 0.0), &flights[2], &CTX));
    }

    #[test]
    fn affinity_is_stable_per_tenant() {
        let policy = AffinityPolicy::new();
        let a = ServeRequest::new(ModelZoo::vit(), "tenant-a");
        let b = ServeRequest::new(ModelZoo::vit(), "tenant-b");
        let da = policy.place(&a, 0, 4);
        for seq in 1..10 {
            assert_eq!(policy.place(&a, seq, 4), da);
        }
        // Different tenants may differ (and do for these names on 4 shards).
        assert_ne!(policy.place(&a, 0, 4), policy.place(&b, 0, 4));
    }

    #[test]
    fn round_robin_placement_covers_the_fleet() {
        let seen: std::collections::BTreeSet<usize> = (0..8)
            .map(|seq| FifoPolicy.place(&ServeRequest::new(ModelZoo::vit(), "t"), seq, 4))
            .collect();
        assert_eq!(seen.len(), 4);
    }

    #[test]
    fn edf_orders_by_absolute_deadline_not_priority() {
        let p = EdfPolicy::new();
        let mut urgent = entry(0, 0, 10.0);
        urgent.deadline_ms = Some(100.0);
        let mut relaxed = entry(1, 9, 0.0);
        relaxed.deadline_ms = Some(500.0);
        // The low-priority request with the earlier deadline wins.
        assert_eq!(p.pick(&[relaxed, urgent], &CTX), 1);
        // Deadline-carrying requests beat deadline-less ones outright.
        let no_deadline = entry(2, 9, 0.0);
        assert_eq!(p.pick(&[no_deadline, relaxed], &CTX), 1);
        // Without any deadline, EDF degrades to priority order.
        let c = [entry(0, 1, 0.0), entry(1, 5, 10.0), entry(2, 5, 2.0)];
        assert_eq!(p.pick(&c, &CTX), PriorityPolicy::new().pick(&c, &CTX));
        assert!(p.preemption().is_none());
        assert!(!p.uses_estimates());
        assert_eq!(EdfPolicy::with_max_in_flight(3).max_in_flight(), 3);
    }

    #[test]
    fn least_laxity_accounts_for_remaining_service_time() {
        let p = LeastLaxityPolicy::new();
        assert!(p.uses_estimates());
        // Same deadline, different service time: the longer job has less
        // slack and must go first.
        let short = deadline_entry(0, 1_000.0, 100.0);
        let long = deadline_entry(1, 1_000.0, 900.0);
        assert_eq!(p.pick(&[short, long], &CTX), 1);
        // An earlier deadline can still lose to a later, longer one.
        let soon_but_short = deadline_entry(0, 300.0, 10.0); // laxity 290
        let later_but_long = deadline_entry(1, 800.0, 700.0); // laxity 100
        assert_eq!(p.pick(&[soon_but_short, later_but_long], &CTX), 1);
        // Laxity shrinks as time passes.
        let late = PolicyContext::at(250.0);
        assert_eq!(soon_but_short.laxity_ms(late.now_ms), Some(40.0));
        // Deadline-less candidates fall back to priority order.
        let c = [entry(0, 1, 0.0), entry(1, 5, 10.0)];
        assert_eq!(p.pick(&c, &CTX), 1);
    }

    #[test]
    fn deadline_preemption_triggers_on_negative_bound_laxity_only() {
        let p = DeadlinePreemptivePolicy::new();
        assert!(p.preemption().is_some());
        assert!(p.uses_estimates());
        let victim = InFlightEntry {
            seq: 0,
            priority: 9,
            order: 0,
            deadline_ms: None,
            estimated_remaining_ms: 400.0,
        };
        // Waiting 400 ms would blow a 300 ms-slack candidate: preempt.
        let urgent = deadline_entry(1, 500.0, 200.0); // laxity 300 < 400
        assert!(p.outranks(&urgent, &victim, &CTX));
        // A candidate slack enough to wait out the victim does not.
        let patient = deadline_entry(2, 1_000.0, 200.0); // laxity 800 > 400
        assert!(!p.outranks(&patient, &victim, &CTX));
        // Deadline-less arrivals never preempt, whatever their priority.
        assert!(!p.outranks(&entry(3, 9, 0.0), &victim, &CTX));
        // A victim that would itself miss after yielding is not preempted.
        let tight_victim = InFlightEntry {
            deadline_ms: Some(350.0),
            ..victim
        }; // victim laxity -50: not slack
        assert!(!p.outranks(&urgent, &tight_victim, &CTX));
    }

    #[test]
    fn deadline_preemption_victimises_the_slackest_flight() {
        let p = DeadlinePreemptivePolicy::new();
        let tight = InFlightEntry {
            seq: 0,
            priority: 0,
            order: 0,
            deadline_ms: Some(300.0),
            estimated_remaining_ms: 250.0,
        }; // laxity 50
        let slack = InFlightEntry {
            seq: 1,
            priority: 9,
            order: 1,
            deadline_ms: Some(2_000.0),
            estimated_remaining_ms: 100.0,
        }; // laxity 1900
        let endless = InFlightEntry {
            seq: 2,
            priority: 9,
            order: 2,
            deadline_ms: None,
            estimated_remaining_ms: 500.0,
        }; // infinitely slack
        assert_eq!(p.victim(&[tight, slack], &CTX), 1);
        assert_eq!(p.victim(&[tight, slack, endless], &CTX), 2);
        // Picks least-laxity like the non-preemptive variant.
        let a = deadline_entry(0, 1_000.0, 100.0);
        let b = deadline_entry(1, 1_000.0, 900.0);
        assert_eq!(
            p.pick(&[a, b], &CTX),
            LeastLaxityPolicy::new().pick(&[a, b], &CTX)
        );
    }
}
