//! The fleet runner both serving engines run on.
//!
//! [`ServeEngine`](crate::ServeEngine) and [`DecodeEngine`](crate::DecodeEngine)
//! differ in how one device advances: a command-level event loop for
//! one-shot inferences, a step loop of batched decode for generative ones.
//! Everything around that lives here once: the entry checks, the warmth
//! snapshot behind `cache_hit`, the parallel fan-out of device jobs and its
//! ordered merge, the sequential recovery planner and the report.
//!
//! ## Rounds
//!
//! A run is a sequence of rounds. Round 0 steps every device on the work
//! the engine's prologue placed there, borrowing the caller's requests. An
//! injected fault knocks a request out of its round as an [`Orphan`]
//! instead of a final outcome. At the round's ordered merge the planner,
//! on the caller thread and in submission order, decides each orphan's
//! fate:
//!
//! - same-device **retry** while the retry budget lasts;
//! - **failover** onto the least-loaded surviving device, resuming carried
//!   state where the engine can ([`DeviceLoop::redispatch`]);
//! - or the attempt's typed failure becomes final.
//!
//! The planner also drives a circuit breaker: a device crossing the fault
//! threshold is **quarantined** (no placements), and after the probe delay
//! a single **probe** request tests it. A clean probe reinstates the
//! device; a faulting one re-quarantines it. The next round steps only the
//! devices that received work.
//!
//! A fault-free run has no orphans, so it is exactly round 0. Rounds are
//! barriers and every decision is sequential, so the report is
//! byte-identical at any pool width. Termination is structural: retries
//! are bounded per request by the budget, failovers by the fleet size, and
//! probes only move work that already exists.

use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use flashmem_core::cache::ArtifactCache;
use flashmem_core::pool::ThreadPool;
use flashmem_core::telemetry::{FleetTrace, TraceConfig, TraceKind, TraceLane, TraceRecorder};
use flashmem_core::{FlashMem, FlashMemConfig};
use flashmem_gpu_sim::engine::{GpuSimulator, SimConfig};
use flashmem_gpu_sim::error::SimResult;
use flashmem_gpu_sim::memory::MemoryTracker;
use flashmem_gpu_sim::{DeviceSpec, FaultPlan, SimError};

use crate::metrics::{
    DeviceReport, LatencySummary, PriorityLatency, RecoveryTallies, RequestOutcome, ServeReport,
    SloSummary, TokenMetrics,
};
use crate::policy::RecoveryControl;
use crate::request::{check_arrivals, FailureCause, ServeRequest};

/// The settings both engines share: the devices, the planner
/// configuration, the plan cache, tracing, fault injection, recovery and
/// whether device memory series are kept.
pub(crate) struct Fleet {
    pub(crate) devices: Vec<DeviceSpec>,
    pub(crate) config: FlashMemConfig,
    pub(crate) cache: Arc<ArtifactCache>,
    pub(crate) trace: TraceConfig,
    pub(crate) fault_plan: FaultPlan,
    pub(crate) recovery: RecoveryControl,
    /// Keep every device's memory series for its
    /// [`DeviceReport::memory_trace`] (and, in exclusive serving, each
    /// request's). Off, a device's memory costs O(1) however long it runs.
    pub(crate) memory_series: bool,
}

/// What an engine plugs into the runner: its per-device loop and the hook
/// that turns a planned re-dispatch into its own work.
pub(crate) trait DeviceLoop: Sync + Sized {
    /// Per-device inputs the engine's prologue hands round 0. Later rounds
    /// get the default.
    type Prologue: Default + Send;
    /// What an orphan hands the planner besides its outcome.
    type Resume: Send;
    /// A re-dispatch that resumes carried state instead of restarting.
    type Seed: Send;

    /// The report's policy label.
    fn policy_name(&self) -> String;

    /// The devices `tenant` may run on; `None` for any.
    fn allowed_devices(&self, tenant: &str) -> Option<Vec<usize>>;

    /// Run one device's round to completion. Called from pool workers:
    /// the result must be a pure function of the job.
    fn run_device(&self, job: DeviceJob<'_, Self>) -> SimResult<DeviceRun<Self::Resume>>;

    /// Turn a planned re-dispatch of `request` (the caller's original) into
    /// work for the destination device.
    fn redispatch(
        &self,
        request: &ServeRequest,
        plan: &Redispatch,
        resume: Self::Resume,
    ) -> NextAttempt<Self::Seed>;
}

/// One device's unit of parallel work in one round, assembled sequentially
/// so the worker never constructs per-device state.
pub(crate) struct DeviceJob<'a, E: DeviceLoop> {
    /// Index of the device in the fleet (also the report's slot).
    pub(crate) index: usize,
    pub(crate) device: &'a DeviceSpec,
    /// The FlashMem runtime the device's compiles go through.
    pub(crate) engine: FlashMem,
    /// The cost model the device's command streams are stepped against.
    pub(crate) sim: GpuSimulator,
    /// The caller's submission, indexed by `seq`.
    pub(crate) requests: &'a [ServeRequest],
    /// `(seq, request)` pairs placed on this device. Re-dispatched requests
    /// arrive at their backoff floor.
    pub(crate) assigned: Vec<(usize, &'a ServeRequest)>,
    /// Plan-cache keys already compiled when the round began. Round 0
    /// snapshots them before the engine's prologue compiles anything, so
    /// `cache_hit` means "warm when the run began" and is identical at
    /// every pool width. Reporting whether a compile happened to find the
    /// key warm mid-run would record which worker won a compile race.
    pub(crate) warm: &'a HashSet<u64>,
    /// Recovery state of re-dispatched requests, by `seq`. Empty in round
    /// 0: a request without an entry is on its first attempt.
    pub(crate) carry: HashMap<usize, Carry>,
    /// Carried state to resume on this device.
    pub(crate) seeds: Vec<E::Seed>,
    pub(crate) prologue: E::Prologue,
}

/// Everything one device's round hands back to the merge.
pub(crate) struct DeviceRun<R> {
    pub(crate) outcomes: Vec<RequestOutcome>,
    pub(crate) report: DeviceReport,
    /// The device's private event buffer, merged in fleet order.
    pub(crate) trace: TraceRecorder,
    /// Requests an injected fault knocked out of this round.
    pub(crate) orphans: Vec<Orphan<R>>,
    /// The fault plan's device loss fired: the device is gone for every
    /// later round.
    pub(crate) lost: bool,
    /// Transient injected faults (kernel and OOM spike) this round, for the
    /// quarantine circuit breaker.
    pub(crate) faults: u32,
}

/// A request an injected fault knocked out of a round, awaiting the
/// planner's decision.
pub(crate) struct Orphan<R> {
    /// The typed-failure outcome of this attempt: final if the planner
    /// gives up, discarded if the request is re-dispatched.
    pub(crate) outcome: RequestOutcome,
    /// Recovery counters before this round's decision.
    pub(crate) retries: u32,
    pub(crate) hops: u32,
    pub(crate) resume: R,
}

/// The state a re-dispatched request carries into its next round.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Carry {
    /// The submission's true arrival. A re-dispatched copy arrives at its
    /// backoff floor, but latency and SLO accounting measure from here.
    pub(crate) original_arrival_ms: f64,
    /// Same-device retries consumed.
    pub(crate) retries: u32,
    /// Failover hops consumed.
    pub(crate) hops: u32,
    /// Whether an earlier attempt ran on a different device.
    pub(crate) failed_over: bool,
    /// Home device when the steal planner re-placed the request.
    pub(crate) stolen_from: Option<usize>,
    /// Tokens earlier attempts emitted: where a generative request
    /// re-prefills from (0 for one-shot requests).
    pub(crate) resumed_tokens: u32,
}

impl Carry {
    /// Attempt ordinal fed into the fault plan's per-command draw key, so a
    /// retried command is re-drawn instead of deterministically
    /// re-faulting.
    pub(crate) fn attempt(&self) -> u32 {
        self.retries + self.hops
    }
}

/// One orphan's planned re-dispatch.
pub(crate) struct Redispatch {
    pub(crate) from: usize,
    pub(crate) dest: usize,
    /// Device-clock instant the failed attempt ended.
    pub(crate) failed_at_ms: f64,
    /// Earliest start of the next attempt: the backoff floor, never before
    /// the destination's cumulative makespan.
    pub(crate) ready_ms: f64,
    pub(crate) carry: Carry,
}

/// The work a re-dispatch becomes on its destination.
pub(crate) enum NextAttempt<S> {
    /// Run the request again from its `arrival_ms`, the backoff floor.
    Restart(Box<ServeRequest>, Carry),
    /// Resume carried state.
    Resume(S),
}

/// Per-device health as tracked by the recovery planner.
#[derive(Clone, Copy, PartialEq)]
enum Health {
    Healthy,
    /// Device loss fired: permanent.
    Lost,
    /// Circuit breaker open since `since_ms`; `probing` marks the round a
    /// probe placement is in flight.
    Quarantined {
        since_ms: f64,
        probing: bool,
    },
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

impl Fleet {
    /// A fleet with a private plan cache, tracing off, no fault injection,
    /// recovery off and no memory series.
    pub(crate) fn new(devices: Vec<DeviceSpec>, config: FlashMemConfig) -> Self {
        Fleet {
            devices,
            config,
            cache: Arc::new(ArtifactCache::new()),
            trace: TraceConfig::disabled(),
            fault_plan: FaultPlan::default(),
            recovery: RecoveryControl::disabled(),
            memory_series: false,
        }
    }

    /// A device's memory tracker: it keeps its series only under
    /// [`memory_series`](Self::memory_series).
    pub(crate) fn tracker(&self, device: &DeviceSpec) -> MemoryTracker {
        MemoryTracker::for_device(device).with_series(self.memory_series)
    }

    /// The FlashMem runtime `device`'s compiles go through.
    pub(crate) fn runtime(&self, device: &DeviceSpec) -> FlashMem {
        FlashMem::new(device.clone()).with_config(self.config.clone())
    }

    /// The entry checks both engines share.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidParameter`] for an empty fleet (naming `engine`),
    /// a fault plan naming a device outside the fleet or holding a
    /// non-finite value ([`FaultPlan::check`]), a non-finite or negative
    /// recovery backoff or probe delay, a non-finite arrival or a NaN or
    /// negative deadline.
    pub(crate) fn check(&self, engine: &str, requests: &[ServeRequest]) -> SimResult<()> {
        if self.devices.is_empty() {
            return Err(SimError::InvalidParameter {
                message: format!(
                    "cannot serve on an empty fleet: {engine} needs at least one device"
                ),
            });
        }
        self.fault_plan.check(self.devices.len())?;
        let recovery = &self.recovery;
        for (knob, ms) in [
            ("backoff_ms", recovery.backoff_ms),
            ("probe_after_ms", recovery.probe_after_ms),
        ] {
            if !ms.is_finite() || ms < 0.0 {
                return Err(SimError::InvalidParameter {
                    message: format!(
                        "RecoveryControl::{knob} is {ms}; it must be a finite, non-negative \
                         number of milliseconds"
                    ),
                });
            }
        }
        check_arrivals(requests)
    }

    /// The plan-cache keys of `requests`' models that are compiled right
    /// now, on every device: one probe per distinct (model, device).
    pub(crate) fn warm_keys<'r>(
        &self,
        requests: impl IntoIterator<Item = &'r ServeRequest>,
    ) -> HashSet<u64> {
        let mut seen = HashSet::new();
        let models: Vec<_> = requests
            .into_iter()
            .map(|request| &request.model)
            .filter(|model| seen.insert(model.abbr.as_str()))
            .collect();
        let mut warm = HashSet::new();
        for device in &self.devices {
            let runtime = self.runtime(device);
            warm.extend(
                models
                    .iter()
                    .map(|model| ArtifactCache::key_for(&runtime, model, device))
                    .filter(|&key| self.cache.is_warm(key)),
            );
        }
        warm
    }

    /// Run the fleet: round 0 on `placed` (each device's requests) with the
    /// prologue's per-device inputs and the run-start `warm` snapshot, then
    /// recovery rounds until no re-dispatched work is left.
    ///
    /// # Errors
    ///
    /// The first device error in fleet order, and
    /// [`SimError::WorkerPanic`] for a panic inside a device worker.
    pub(crate) fn run<E: DeviceLoop>(
        &self,
        engine: &E,
        pool: &ThreadPool,
        requests: &[ServeRequest],
        mut placed: Vec<Vec<(usize, &ServeRequest)>>,
        mut prologue: Vec<E::Prologue>,
        mut warm: HashSet<u64>,
    ) -> SimResult<ServeReport> {
        let fleet_len = self.devices.len();
        let mut state = Rounds::<E> {
            fleet: self,
            health: vec![Health::Healthy; fleet_len],
            fault_counts: vec![0; fleet_len],
            cum_makespan: vec![0.0; fleet_len],
            tallies: RecoveryTallies::default(),
            outcomes: Vec::new(),
            devices: Vec::with_capacity(fleet_len),
            masters: Vec::with_capacity(fleet_len),
            restarts: empty_queues(fleet_len),
            seeds: empty_queues(fleet_len),
        };
        let mut first_round = true;
        loop {
            let restarts = std::mem::replace(&mut state.restarts, empty_queues(fleet_len));
            let mut seeds = std::mem::replace(&mut state.seeds, empty_queues(fleet_len));
            // Round 0 runs every device, so the fleet report covers idle
            // devices too; later rounds only those with re-dispatched work.
            let included: Vec<usize> = (0..fleet_len)
                .filter(|&d| first_round || !restarts[d].is_empty() || !seeds[d].is_empty())
                .collect();
            if !first_round {
                // Re-dispatched models were compiled in an earlier round and
                // report a hit at every width.
                warm = self.warm_keys(restarts.iter().flatten().map(|(_, request, _)| request));
            }
            let jobs: Vec<DeviceJob<'_, E>> = included
                .iter()
                .map(|&index| {
                    let device = &self.devices[index];
                    let mut assigned: Vec<(usize, &ServeRequest)> =
                        std::mem::take(&mut placed[index]);
                    assigned.extend(
                        restarts[index]
                            .iter()
                            .map(|(seq, request, _)| (*seq, request)),
                    );
                    DeviceJob {
                        index,
                        device,
                        engine: self.runtime(device),
                        sim: GpuSimulator::new(device.clone(), SimConfig::default()),
                        requests,
                        assigned,
                        warm: &warm,
                        carry: restarts[index]
                            .iter()
                            .map(|(seq, _, carry)| (*seq, *carry))
                            .collect(),
                        seeds: std::mem::take(&mut seeds[index]),
                        prologue: std::mem::take(&mut prologue[index]),
                    }
                })
                .collect();

            // ---- parallel device stepping ----
            let runs = pool.try_parallel_map(jobs, |job| {
                catch_unwind(AssertUnwindSafe(|| engine.run_device(job))).unwrap_or_else(
                    |payload| {
                        Err(SimError::WorkerPanic {
                            message: panic_message(payload),
                        })
                    },
                )
            })?;

            // ---- ordered merge, then sequential recovery planning ----
            let (mut orphans, round_faults) = state.merge(&included, runs, first_round);
            state.trip_breakers(&included, &round_faults);
            orphans.sort_by_key(|o| o.outcome.seq);
            for orphan in orphans {
                state.plan(engine, requests, orphan);
            }
            state.dispatch_probes(engine);

            first_round = false;
            if state.restarts.iter().all(Vec::is_empty) && state.seeds.iter().all(Vec::is_empty) {
                break;
            }
        }
        Ok(state.report(engine.policy_name()))
    }
}

fn empty_queues<T>(fleet_len: usize) -> Vec<Vec<T>> {
    (0..fleet_len).map(|_| Vec::new()).collect()
}

/// Everything a run accumulates across its rounds, and the sequential
/// recovery planner that decides what the next round runs.
struct Rounds<'f, E: DeviceLoop> {
    fleet: &'f Fleet,
    health: Vec<Health>,
    /// Transient faults per device since it was last reinstated.
    fault_counts: Vec<u32>,
    /// Each device's makespan over every round so far.
    cum_makespan: Vec<f64>,
    tallies: RecoveryTallies,
    outcomes: Vec<RequestOutcome>,
    /// Per-device reports and trace recorders in fleet order; later rounds
    /// fold into round 0's.
    devices: Vec<DeviceReport>,
    masters: Vec<TraceRecorder>,
    /// Work re-dispatched onto each device for the next round.
    restarts: Vec<Vec<(usize, ServeRequest, Carry)>>,
    seeds: Vec<Vec<E::Seed>>,
}

impl<E: DeviceLoop> Rounds<'_, E> {
    /// The ordered merge: fold each included device's round into the run,
    /// in fleet order. Returns the round's orphans and transient fault
    /// counts per device.
    fn merge(
        &mut self,
        included: &[usize],
        runs: Vec<DeviceRun<E::Resume>>,
        first_round: bool,
    ) -> (Vec<Orphan<E::Resume>>, Vec<u32>) {
        let mut orphans = Vec::new();
        let mut round_faults = vec![0_u32; self.fleet.devices.len()];
        for (&index, mut run) in included.iter().zip(runs) {
            self.outcomes.append(&mut run.outcomes);
            self.cum_makespan[index] = self.cum_makespan[index].max(run.report.makespan_ms);
            if first_round {
                self.devices.push(run.report);
                self.masters.push(run.trace);
            } else {
                self.devices[index].absorb_round(run.report);
                self.masters[index].absorb(run.trace);
            }
            round_faults[index] = run.faults;
            self.fault_counts[index] += run.faults;
            if run.lost && self.health[index] != Health::Lost {
                // A lost device is permanently out, but the tally records
                // recovery *decisions*: an unprotected run (fault plan
                // only, recovery off) reports all zeros.
                self.health[index] = Health::Lost;
                if self.fleet.recovery.any_enabled() {
                    self.tallies.quarantines += 1;
                }
            }
            orphans.append(&mut run.orphans);
        }
        (orphans, round_faults)
    }

    /// Judge this round's probes, then trip the breaker on devices crossing
    /// the fault threshold.
    fn trip_breakers(&mut self, included: &[usize], round_faults: &[u32]) {
        // A clean probe closes the breaker, a faulting one re-opens it.
        for &index in included {
            if let Health::Quarantined { probing: true, .. } = self.health[index] {
                if round_faults[index] == 0 {
                    self.health[index] = Health::Healthy;
                    self.fault_counts[index] = 0;
                } else {
                    self.quarantine(index, "(probe failed)".to_string());
                }
            }
        }
        if let Some(threshold) = self.fleet.recovery.quarantine_threshold {
            for &index in included {
                if self.health[index] == Health::Healthy && self.fault_counts[index] >= threshold {
                    self.quarantine(index, format!("after {} faults", self.fault_counts[index]));
                }
            }
        }
    }

    fn quarantine(&mut self, index: usize, why: String) {
        let since_ms = self.cum_makespan[index];
        self.health[index] = Health::Quarantined {
            since_ms,
            probing: false,
        };
        self.tallies.quarantines += 1;
        if self.masters[index].enabled() {
            self.masters[index].instant(
                TraceKind::Quarantine,
                TraceLane::Host,
                &format!("quarantine {} {why}", self.fleet.devices[index].name),
                since_ms,
            );
        }
    }

    /// Decide one orphan's fate: retry, failover, or its typed failure as
    /// the final outcome.
    fn plan(&mut self, engine: &E, requests: &[ServeRequest], orphan: Orphan<E::Resume>) {
        let fleet_len = self.fleet.devices.len();
        let recovery = &self.fleet.recovery;
        let seq = orphan.outcome.seq;
        let from = orphan.outcome.device_index;
        let failed_at = orphan.outcome.completion_ms;
        let can_retry = orphan.outcome.failure != Some(FailureCause::DeviceLost)
            && orphan.retries < recovery.retry_budget;
        let next_attempts = orphan.retries + orphan.hops + 1;
        let backoff = recovery.backoff_ms * f64::from(next_attempts);
        let allowed = engine
            .allowed_devices(&requests[seq].tenant)
            .unwrap_or_else(|| (0..fleet_len).collect());
        // A destination is usable if it is healthy, inside the tenant's
        // shard set, and will not itself be lost before the re-dispatch
        // could start.
        let available = |d: usize| -> bool {
            self.health[d] == Health::Healthy
                && allowed.contains(&d)
                && self
                    .fleet
                    .fault_plan
                    .device_loss_ms(d)
                    .is_none_or(|t| (failed_at + backoff).max(self.cum_makespan[d]) < t)
        };
        let healthiest = (0..fleet_len)
            .filter(|&d| d != from && available(d))
            .min_by(|&a, &b| {
                self.cum_makespan[a]
                    .partial_cmp(&self.cum_makespan[b])
                    .expect("makespans are finite")
                    .then(a.cmp(&b))
            });
        let (dest, retries, hops) = if can_retry {
            // Same-device retry; a dead or quarantined home falls back to
            // the least-loaded survivor.
            let dest = if available(from) {
                Some(from)
            } else {
                healthiest
            };
            (dest, orphan.retries + 1, orphan.hops)
        } else if recovery.failover && orphan.hops < fleet_len as u32 {
            (healthiest, orphan.retries, orphan.hops + 1)
        } else {
            (None, orphan.retries, orphan.hops)
        };
        let Some(dest) = dest else {
            // Budget exhausted or nowhere left to run: this attempt's typed
            // failure is the final outcome.
            self.outcomes.push(orphan.outcome);
            return;
        };
        let ready_ms = (failed_at + backoff).max(self.cum_makespan[dest]);
        if self.masters[dest].enabled() {
            let (kind, verb) = if can_retry {
                (TraceKind::Retry, "retry")
            } else {
                (TraceKind::Failover, "failover")
            };
            self.masters[dest].instant(
                kind,
                TraceLane::Request(seq),
                &format!(
                    "{verb} {} attempt {} from device #{from}",
                    orphan.outcome.model,
                    retries + hops + 1
                ),
                ready_ms,
            );
        }
        if can_retry {
            self.tallies.retries += 1;
        } else {
            self.tallies.failovers += 1;
        }
        let plan = Redispatch {
            from,
            dest,
            failed_at_ms: failed_at,
            ready_ms,
            carry: Carry {
                original_arrival_ms: orphan.outcome.arrival_ms,
                retries,
                hops,
                failed_over: orphan.outcome.failed_over || dest != from,
                stolen_from: orphan.outcome.stolen_from,
                resumed_tokens: 0,
            },
        };
        match engine.redispatch(&requests[seq], &plan, orphan.resume) {
            NextAttempt::Restart(request, carry) => {
                self.restarts[dest].push((seq, *request, carry));
            }
            NextAttempt::Resume(seed) => self.seeds[dest].push(seed),
        }
    }

    /// A quarantined (not lost) device past its probe delay gets exactly
    /// one queued restart re-routed to it: the lowest `seq` allowed there.
    fn dispatch_probes(&mut self, engine: &E) {
        let fleet_len = self.fleet.devices.len();
        let horizon = self.cum_makespan.iter().copied().fold(0.0_f64, f64::max);
        for probe_dev in 0..fleet_len {
            let Health::Quarantined {
                since_ms,
                probing: false,
            } = self.health[probe_dev]
            else {
                continue;
            };
            if horizon - since_ms < self.fleet.recovery.probe_after_ms {
                continue;
            }
            let candidate = (0..fleet_len)
                .filter(|&d| d != probe_dev)
                .flat_map(|d| {
                    self.restarts[d]
                        .iter()
                        .map(move |(seq, request, _)| (*seq, d, request))
                })
                .filter(|(_, _, request)| {
                    engine
                        .allowed_devices(&request.tenant)
                        .is_none_or(|allowed| allowed.contains(&probe_dev))
                })
                .map(|(seq, d, _)| (seq, d))
                .min();
            let Some((seq, d)) = candidate else { continue };
            let pos = self.restarts[d]
                .iter()
                .position(|(s, ..)| *s == seq)
                .expect("candidate was just found in this queue");
            let (seq, mut request, carry) = self.restarts[d].remove(pos);
            request.arrival_ms = request.arrival_ms.max(self.cum_makespan[probe_dev]);
            self.tallies.probes += 1;
            self.health[probe_dev] = Health::Quarantined {
                since_ms,
                probing: true,
            };
            if self.masters[probe_dev].enabled() {
                self.masters[probe_dev].instant(
                    TraceKind::Probe,
                    TraceLane::Request(seq),
                    &format!(
                        "probe {} with {}",
                        self.fleet.devices[probe_dev].name, request.model.abbr
                    ),
                    request.arrival_ms,
                );
            }
            self.restarts[probe_dev].push((seq, request, carry));
        }
    }

    /// Assemble the final [`ServeReport`].
    fn report(self, policy: String) -> ServeReport {
        let mut outcomes = self.outcomes;
        outcomes.sort_by_key(|o| o.seq);
        // Trace buffers merge in fleet order — the same deterministic
        // commit discipline as the outcome sort.
        let trace = self.fleet.trace.enabled.then(|| FleetTrace {
            processes: self
                .fleet
                .devices
                .iter()
                .zip(self.masters)
                .enumerate()
                .map(|(index, (device, recorder))| {
                    recorder.into_process_trace(&format!("{} #{index}", device.name))
                })
                .collect(),
        });
        let latencies: Vec<f64> = outcomes
            .iter()
            .filter(|o| o.succeeded())
            .map(|o| o.latency_ms)
            .collect();
        let makespan = self
            .devices
            .iter()
            .map(|d| d.makespan_ms)
            .fold(0.0_f64, f64::max);
        let throughput_rps = if makespan > 0.0 {
            latencies.len() as f64 * 1000.0 / makespan
        } else {
            0.0
        };
        let tokens = TokenMetrics::from_outcomes(&outcomes, makespan);
        let report = ServeReport {
            policy,
            latency: LatencySummary::from_latencies(&latencies),
            per_priority: PriorityLatency::from_outcomes(&outcomes),
            slo: SloSummary::from_outcomes(&outcomes),
            preemptions: outcomes.iter().map(|o| o.preemptions).sum(),
            outcomes,
            devices: self.devices,
            throughput_rps,
            ttft: tokens.ttft,
            itl: tokens.itl,
            decode_tokens: tokens.decode_tokens,
            tokens_per_s: tokens.tokens_per_s,
            recovery: self.tallies,
            cache: self.fleet.cache.stats(),
            trace,
        };
        report.assert_disposition();
        report
    }
}
