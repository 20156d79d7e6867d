//! `serve_steady` and `serve_chaos`: one long `ServeEngine::run_on` over
//! warm plans, repeated for the timed phase.
//!
//! * `serve_steady` — OnePlus 12 + Pixel 8, GPTN-S/ViT/ResNet-50 requests
//!   from four tenants with SLOs, EDF with two in flight, Poisson arrivals
//!   at about two-thirds of fleet capacity: the fault-free fast path
//!   (lowering, stepping and the admission loop).
//! * `serve_chaos` — the same models on four devices, two of each phone so
//!   failover can resume a suspension on a sibling; a flash crowd past
//!   capacity under preemptive priority scheduling, with overload control
//!   (queue bound, admission control, steal) and recovery (retry with
//!   backoff, failover, quarantine with probes) armed against a fault plan
//!   that loses one device mid-run, makes one flaky and gives another OOM
//!   spikes: the sequential prologue, recovery rounds and suspend/resume.

use std::collections::HashMap;
use std::sync::Arc;

use flashmem_core::cache::{ArtifactCache, Fnv1a};
use flashmem_core::pool::ThreadPool;
use flashmem_core::CompiledModel;
use flashmem_gpu_sim::error::SimResult;
use flashmem_gpu_sim::{DeviceSpec, FaultPlan, SplitMix64};
use flashmem_graph::{ModelSpec, ModelZoo};
use flashmem_serve::{
    ArrivalPattern, EdfPolicy, OverloadControl, PreemptivePriorityPolicy, RecoveryControl,
    ServeEngine, ServeReport, ServeRequest, TraceConfig, WorkloadSpec,
};

use crate::clock::Reference;
use crate::layers::{self, spanned, PlanTotals, Tracing, POOL_WIDTH};
use crate::report::Measured;
use crate::spans::{SpanLog, SpanSet};
use crate::{phase, stats, Args};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Steady,
    Chaos,
}

/// Set-ups per `setup_s` measurement (each compiles every plan cold).
const SETUP_REPS: usize = 5;
/// Timed repetitions of the whole run, at least.
const MIN_REPS: usize = 3;

const STEADY_REQUESTS: usize = 2000;
/// Mean Poisson gap: about two-thirds of the two-phone fleet's capacity.
const STEADY_MEAN_GAP_MS: f64 = 130.0;
/// Tenant SLOs of `serve_steady`, in ms.
const STEADY_SLO_MS: [f64; 4] = [600.0, 900.0, 1_500.0, 3_000.0];

const CHAOS_REQUESTS: usize = 2400;
/// Mean Poisson gap of the background traffic: about 70% of the
/// four-phone fleet's capacity before the device loss.
const CHAOS_MEAN_GAP_MS: f64 = 60.0;
const CHAOS_CROWD_AT: usize = 1000;
const CHAOS_CROWD: usize = 120;
/// The device lost mid-run (a OnePlus 12 whose sibling is device 2).
const CHAOS_LOST_DEVICE: usize = 0;
const CHAOS_LOSS_MS: f64 = 70_000.0;
const CHAOS_FLAKY_DEVICE: usize = 3;
const CHAOS_FLAKE_RATE: f64 = 0.0003;
const CHAOS_OOM_DEVICE: usize = 1;
const CHAOS_OOM_RATE: f64 = 0.0002;

fn fleet(kind: Kind) -> Vec<DeviceSpec> {
    match kind {
        Kind::Steady => vec![DeviceSpec::oneplus_12(), DeviceSpec::pixel_8()],
        Kind::Chaos => vec![
            DeviceSpec::oneplus_12(),
            DeviceSpec::pixel_8(),
            DeviceSpec::oneplus_12(),
            DeviceSpec::pixel_8(),
        ],
    }
}

const MODELS: [fn() -> ModelSpec; 3] = [ModelZoo::gptneo_small, ModelZoo::vit, ModelZoo::resnet50];

/// The seed draws arrivals, tenants, priorities (and deadlines); models
/// rotate in a fixed order so every seed serves the same mix.
fn requests(kind: Kind, models: &[ModelSpec], seed: u64) -> Vec<ServeRequest> {
    let mut requests = generate(kind, models, seed);
    for (i, request) in requests.iter_mut().enumerate() {
        request.model = models[i % models.len()].clone();
    }
    requests
}

fn generate(kind: Kind, models: &[ModelSpec], seed: u64) -> Vec<ServeRequest> {
    match kind {
        Kind::Steady => WorkloadSpec {
            pattern: ArrivalPattern::Poisson {
                mean_interval_ms: STEADY_MEAN_GAP_MS,
            },
            requests: STEADY_REQUESTS,
            tenants: STEADY_SLO_MS.len(),
            priority_levels: 2,
            seed,
        }
        .generate(models),
        Kind::Chaos => {
            let mut requests = WorkloadSpec {
                pattern: ArrivalPattern::Poisson {
                    mean_interval_ms: CHAOS_MEAN_GAP_MS,
                },
                requests: CHAOS_REQUESTS,
                tenants: 4,
                priority_levels: 2,
                seed,
            }
            .generate(models);
            // The flash crowd: requests CHAOS_CROWD_AT.. land together at
            // the first one's instant; the Poisson gaps resume from there.
            let crowd_end = CHAOS_CROWD_AT + CHAOS_CROWD;
            let at = requests[CHAOS_CROWD_AT].arrival_ms;
            let shift = requests[crowd_end - 1].arrival_ms - at;
            for (i, request) in requests.iter_mut().enumerate().skip(CHAOS_CROWD_AT) {
                request.arrival_ms = if i < crowd_end {
                    at
                } else {
                    request.arrival_ms - shift
                };
            }
            // Every eighth deadline is provably unmeetable (admission
            // control's target); the rest are serveable budgets.
            let mut rng = SplitMix64::seed_from_u64(seed ^ 0xC4A0_5BAD);
            for (i, request) in requests.iter_mut().enumerate() {
                let budget = 2_500.0 + 2_500.0 * rng.gen_f64();
                request.deadline_ms = Some(if i % 8 == 7 { 1.0 } else { budget });
            }
            requests
        }
    }
}

fn engine(kind: Kind, cache: Arc<ArtifactCache>, seed: u64) -> ServeEngine {
    let base = ServeEngine::new(fleet(kind), layers::config()).with_cache(cache);
    match kind {
        Kind::Steady => STEADY_SLO_MS.iter().enumerate().fold(
            base.with_policy(Box::new(EdfPolicy::with_max_in_flight(2))),
            |engine, (tenant, slo)| engine.with_tenant_slo(format!("tenant-{tenant}"), *slo),
        ),
        Kind::Chaos => base
            .with_policy(Box::new(PreemptivePriorityPolicy::with_max_in_flight(2)))
            .with_overload_control(
                OverloadControl::disabled()
                    .with_queue_bound(4)
                    .with_admission_control()
                    .with_steal(),
            )
            .with_recovery_control(
                RecoveryControl::disabled()
                    .with_retry_budget(2)
                    .with_backoff_ms(25.0)
                    .with_failover()
                    // Quarantine trips only between recovery rounds, and a
                    // probe needs queued work at that boundary, so probe at
                    // the first boundary after the trip.
                    .with_quarantine(3, 0.0),
            )
            .with_fault_plan(
                FaultPlan::seeded(seed ^ 0xFA_017)
                    .with_device_loss(CHAOS_LOST_DEVICE, CHAOS_LOSS_MS)
                    .with_flaky_device(CHAOS_FLAKY_DEVICE, CHAOS_FLAKE_RATE)
                    .with_oom_spikes(CHAOS_OOM_DEVICE, CHAOS_OOM_RATE),
            ),
    }
}

/// What a serving workload's set-up leaves for its timed phase.
pub struct Setup {
    pub models: Vec<ModelSpec>,
    pub requests: Vec<ServeRequest>,
    pub cache: Arc<ArtifactCache>,
    pub compiled: Vec<CompiledModel>,
}

/// The serving workloads' set-up: build the graphs, cold-compile every plan
/// (`plans_of` each model) for every distinct phone through a fresh cache,
/// and generate the requests.
pub fn set_up(
    builders: &[fn() -> ModelSpec],
    fleet: &[DeviceSpec],
    plans_of: fn(&ModelSpec) -> Vec<&ModelSpec>,
    generate: impl FnOnce(&[ModelSpec]) -> Vec<ServeRequest>,
    pool: &ThreadPool,
    tracing: Option<Tracing<'_>>,
) -> SimResult<Setup> {
    let models: Vec<ModelSpec> = builders
        .iter()
        .map(|build| spanned(tracing, "graph.build", build))
        .collect();
    let mut phones = fleet.to_vec();
    phones.sort_by(|a, b| a.name.cmp(&b.name));
    phones.dedup_by(|a, b| a.name == b.name);
    let pairs: Vec<(&ModelSpec, &DeviceSpec)> = phones
        .iter()
        .flat_map(|d| models.iter().flat_map(plans_of).map(move |m| (m, d)))
        .collect();
    let cache = Arc::new(ArtifactCache::new());
    let compiled = layers::compile_all(pool, &cache, &pairs, tracing)?;
    let requests = spanned(tracing, "requests", || generate(&models));
    Ok(Setup {
        models,
        requests,
        cache,
        compiled,
    })
}

fn setup(
    kind: Kind,
    seed: u64,
    pool: &ThreadPool,
    tracing: Option<Tracing<'_>>,
) -> SimResult<Setup> {
    set_up(
        &MODELS,
        &fleet(kind),
        |m| vec![m],
        |models| requests(kind, models, seed),
        pool,
        tracing,
    )
}

/// Set up `SETUP_REPS` times for `setup_s` and note how many plans came out
/// `Feasible` only because a solver window hit its wall clock — the
/// set-up's main source of spread.
pub fn measured_setup(
    reference: &Reference,
    measured: &mut Measured,
    mut setup: impl FnMut() -> SimResult<Setup>,
) -> SimResult<Setup> {
    let setup = phase::setup(SETUP_REPS, reference, measured, &mut setup)?;
    let totals = PlanTotals::of(&setup.compiled);
    measured.note(format!(
        "set-up compiles {} plans; {} came out Feasible only because a solver window hit its wall clock",
        totals.plans, totals.deadline_plans
    ));
    Ok(setup)
}

/// The disposition checks every serving run gets: one outcome per
/// submitted request, in submission order, each exactly one of completed,
/// rejected or failed, with a typed cause exactly on the failures. Returns
/// a fingerprint of the simulated outcomes.
pub fn check_outcomes(
    report: &ServeReport,
    requests: &[ServeRequest],
    measured: &mut Measured,
) -> Fnv1a {
    report.assert_disposition();
    let checks = &mut measured.checks;
    checks.item(report.outcomes.len() == requests.len(), || {
        format!(
            "{} outcomes for {} requests",
            report.outcomes.len(),
            requests.len()
        )
    });
    let mut digest = Fnv1a::new();
    for (i, o) in report.outcomes.iter().enumerate() {
        let dispositions = usize::from(o.succeeded())
            + usize::from(o.was_rejected())
            + usize::from(o.error.is_some());
        let ok = o.seq == i
            && dispositions == 1
            && o.failure.is_some() == o.error.is_some()
            && o.latency_ms.is_finite()
            && o.latency_ms >= 0.0
            && requests
                .get(i)
                .is_some_and(|r| r.arrival_ms <= o.arrival_ms + 1e-9);
        checks.item(ok, || {
            format!(
                "request {i}: seq {} with {dispositions} dispositions, error {:?}, failure {:?}, latency {}",
                o.seq, o.error, o.failure, o.latency_ms
            )
        });
        digest = digest
            .write_u64(o.seq as u64)
            .write_u64(o.device_index as u64)
            .write_f64(o.latency_ms)
            .write_f64(o.completion_ms)
            .write_u64(u64::from(o.was_rejected()) | u64::from(o.error.is_some()) << 1);
    }
    digest
}

/// Output checks of one run; returns a fingerprint of its simulated
/// outcomes.
fn check(
    kind: Kind,
    report: &ServeReport,
    requests: &[ServeRequest],
    measured: &mut Measured,
) -> u64 {
    let digest = check_outcomes(report, requests, measured);
    let checks = &mut measured.checks;
    match kind {
        Kind::Steady => {
            let (first, second) = backlog_halves(report);
            checks.item(second <= 1.5 * first + 2.0, || {
                format!("simulated backlog grew over the run: mean {first:.2} in the first half of arrivals, {second:.2} in the second")
            });
        }
        Kind::Chaos => {
            let r = &report.recovery;
            let fired = [
                ("rejects", report.rejected()),
                ("steals", report.stolen()),
                ("preemptions", report.preemptions),
                ("retries", r.retries),
                ("failovers", r.failovers),
                ("quarantines", r.quarantines),
                ("probes", r.probes),
            ];
            let idle: Vec<&str> = fired
                .iter()
                .filter(|(_, n)| *n == 0)
                .map(|(d, _)| *d)
                .collect();
            checks.item(idle.is_empty(), || {
                format!("defences that never fired: {idle:?}")
            });
        }
    }
    digest.finish()
}

/// Mean simulated backlog (requests arrived but not finished) seen at each
/// arrival, over the first and second half of the arrivals.
fn backlog_halves(report: &ServeReport) -> (f64, f64) {
    let mut arrivals: Vec<f64> = report.outcomes.iter().map(|o| o.arrival_ms).collect();
    let mut finished: Vec<f64> = report.outcomes.iter().map(|o| o.completion_ms).collect();
    arrivals.sort_by(f64::total_cmp);
    finished.sort_by(f64::total_cmp);
    let mut done = 0;
    let backlog: Vec<f64> = arrivals
        .iter()
        .enumerate()
        .map(|(k, &t)| {
            while done < finished.len() && finished[done] <= t {
                done += 1;
            }
            (k + 1 - done.min(k + 1)) as f64
        })
        .collect();
    let half = backlog.len() / 2;
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
    (mean(&backlog[..half]), mean(&backlog[half..]))
}

/// Simulated latencies of the completed requests.
pub fn completed_latencies(report: &ServeReport) -> Vec<f64> {
    report
        .outcomes
        .iter()
        .filter(|o| o.succeeded())
        .map(|o| o.latency_ms)
        .collect()
}

/// The end-to-end `dev_*` metrics every serving report has.
pub fn dev_metrics(report: &ServeReport, measured: &mut Measured) {
    let latencies = completed_latencies(report);
    measured.set("dev_p50_ms", stats::median(&latencies).unwrap_or(0.0));
    measured.set(
        "dev_lat_geomean_ms",
        stats::geomean(&latencies).unwrap_or(0.0),
    );
    measured.set(
        "dev_peak_mem_mb",
        report
            .devices
            .iter()
            .map(|d| d.peak_memory_mb)
            .fold(0.0, f64::max),
    );
    let tail = stats::tail(&latencies);
    measured.note(format!(
        "simulated: {} submitted, {} completed, {} rejected, {} failed; latency tail {}; SLO attainment {:.4} (rejects and failures count as misses)",
        report.outcomes.len(),
        report.completed(),
        report.rejected(),
        report.failed(),
        tail.map_or("n/a".into(), |t| format!("p{} = {:.3} ms of {} samples", t.pct, t.value, t.samples)),
        stats::attainment(&report.outcomes).unwrap_or(1.0),
    ));
}

pub fn run(args: &Args, kind: Kind) -> SimResult<Measured> {
    let mut measured = Measured::default();
    let pool = ThreadPool::with_threads(POOL_WIDTH);
    let reference = Reference::new();
    let setup = measured_setup(&reference, &mut measured, || {
        setup(kind, args.seed, &pool, None)
    })?;
    let engine = engine(kind, Arc::clone(&setup.cache), args.seed);
    let requests = &setup.requests;
    phase::timed(
        args.seconds,
        MIN_REPS,
        requests.len() as f64,
        &reference,
        &mut measured,
        || engine.run_on(&pool, requests),
        |report, measured| check(kind, report, requests, measured),
        dev_metrics,
    )?;
    Ok(measured)
}

pub fn run_traced(args: &Args, kind: Kind, log: &SpanLog) -> SimResult<Measured> {
    let mut measured = Measured::default();
    let wide = ThreadPool::with_threads(POOL_WIDTH);
    let setup_span = log.open("setup", None, None);
    let tracing = Tracing {
        log,
        parent: setup_span,
    };
    let setup = setup(kind, args.seed, &wide, Some(tracing))?;
    log.close(setup_span);
    let engine = engine(kind, Arc::clone(&setup.cache), args.seed);
    let recording =
        self::engine(kind, Arc::clone(&setup.cache), args.seed).with_trace(TraceConfig::enabled());
    let requests = &setup.requests;
    let phase::Traced { report, w1, .. } = phase::traced(
        log,
        "serve.run_on",
        "serve.rss_growth_mb",
        &setup.cache,
        &mut measured,
        |pool| engine.run_on(pool, requests),
        |pool| recording.run_on(pool, requests),
        |report, measured| check(kind, report, requests, measured),
    )?;

    // Replay the overload prologue's per-(model, device) service
    // predictions, then every attempt's warm lookup, lowering and stepping.
    let by_abbr: HashMap<&str, &ModelSpec> =
        setup.models.iter().map(|m| (m.abbr.as_str(), m)).collect();
    let fleet = fleet(kind);
    let sims: Vec<_> = fleet.iter().map(layers::simulator).collect();
    let replay = log.open("replay", None, None);
    let tracing = Tracing {
        log,
        parent: replay,
    };
    let (mut replays, mut commands) = (0usize, 0usize);
    let mut attempt = |model: &ModelSpec, d: usize, seq: Option<usize>| -> SimResult<()> {
        commands += layers::replay_attempt(&setup.cache, model, &fleet[d], &sims[d], tracing, seq)?;
        replays += 1;
        Ok(())
    };
    if kind == Kind::Chaos {
        for d in 0..fleet.len() {
            for model in &setup.models {
                attempt(model, d, None)?;
            }
        }
    }
    for o in report.outcomes.iter().filter(|o| !o.was_rejected()) {
        for _ in 0..=o.retries {
            attempt(by_abbr[o.model.as_str()], o.device_index, Some(o.seq))?;
        }
    }
    log.close(replay);

    let set = SpanSet::new(log.spans());
    let ms = |layer: &str| set.total_ms(replay, layer);
    let run_ms = w1.wall_s * 1e3;
    let replayed_ms = ms("cache.lookup") + ms("lower") + ms("step");
    let per_replay = replays.max(1) as f64;
    layers::compile_layers(&set, setup_span, setup_span, &setup.compiled, &mut measured);
    measured.set("cache.hit_us", ms("cache.lookup") * 1e3 / per_replay);
    measured.set("lower.us_per_req", ms("lower") * 1e3 / per_replay);
    measured.set("lower.cmds_per_req", commands as f64 / per_replay);
    measured.set("step.ns_per_cmd", ms("step") * 1e6 / commands.max(1) as f64);
    measured.set("serve.run_ms", run_ms);
    measured.set(
        "serve.self_us_per_req",
        (run_ms - replayed_ms) * 1e3 / requests.len() as f64,
    );
    simulated_layers(&report, &mut measured);
    measured.note(format!(
        "width-1 run ({run_ms:.1} ms) attributed: {:.1}% replayed lookup, lowering and stepping ({replays} replays), {:.1}% serve self time",
        100.0 * replayed_ms / run_ms,
        100.0 * (run_ms - replayed_ms) / run_ms
    ));
    Ok(measured)
}

/// The simulated per-layer metrics of one serve report.
fn simulated_layers(report: &ServeReport, measured: &mut Measured) {
    let waits: Vec<f64> = report
        .outcomes
        .iter()
        .filter(|o| !o.was_rejected())
        .map(|o| o.queue_wait_ms)
        .collect();
    let devices = report.devices.len().max(1) as f64;
    let busy = |f: fn(&flashmem_serve::DeviceReport) -> f64| {
        report.devices.iter().map(f).sum::<f64>() / devices
    };
    let r = &report.recovery;
    measured.set(
        "serve.queue_wait_tail_ms",
        stats::tail(&waits).map_or(0.0, |t| t.value),
    );
    measured.set("serve.transfer_busy", busy(|d| d.transfer_busy_fraction));
    measured.set("serve.compute_busy", busy(|d| d.compute_busy_fraction));
    measured.set("serve.rejected", report.rejected() as f64);
    measured.set("serve.stolen", report.stolen() as f64);
    measured.set("serve.preemptions", report.preemptions as f64);
    measured.set("serve.retries", r.retries as f64);
    measured.set("serve.failovers", r.failovers as f64);
    measured.set("serve.quarantines", r.quarantines as f64);
    measured.set("serve.probes", r.probes as f64);
    measured.set(
        "serve.attempts_per_req",
        (report.accepted() + r.retries + r.failovers) as f64 / report.accepted().max(1) as f64,
    );
    measured.set(
        "dev.tail_ms",
        stats::tail(&completed_latencies(report)).map_or(0.0, |t| t.value),
    );
    measured.set(
        "dev.slo_attainment",
        stats::attainment(&report.outcomes).unwrap_or(1.0),
    );
}
