//! Serving oracle: seven scenarios that between them drive every part of the
//! serve loop must reproduce recorded fingerprints of every request outcome
//! and device report, give identical reports at pool widths 1 and 4, and
//! leave every submitted request in exactly one disposition.
//!
//! The scenarios are EDF with two requests in flight under tenant SLOs;
//! preemptive priority with overload control and recovery against a
//! `FaultPlan`; FIFO in exclusive mode; continuous-batching decode; and
//! two fault scenarios that reach the ways a request leaves a device that
//! the first four never take: FIFO in exclusive mode under transient
//! faults, an app-budget OOM, a tenant cap too small for the model and a
//! device loss without failover, and continuous-batching decode under
//! device loss, flaky steps and a token budget one request exceeds. The
//! seventh batches two models, GPTN-S and Whisper-M, on two phones, so a
//! decode step runs one sub-batch per model.
//!
//! The constants were recorded with the serve loop that lowered a fresh
//! command stream for every admitted request and scanned every pending
//! request at each step. Matching them shows that sharing one lowered
//! stream per plan and admitting from the arrived prefix moved no simulated
//! result. A deliberate change to the simulation updates them:
//! `CHAOS_GOLDEN` was re-recorded when the recovery pipeline's first round
//! began reporting `cache_hit` from the run-start warmth snapshot; with
//! `cache_hit` left out of the hash, the old and new code agree.
//! `CHAOS_GOLDEN` and `FIFO_FAULTS_GOLDEN` were re-recorded when a lost
//! device's makespan began covering the runs it freezes after the loss
//! instant: in each, one lost phone's makespan moved from the loss instant
//! to the end of the command that straddled it (chaos 900 → 960 ms,
//! fifo-faults 1,000 → 1,001.9 ms), and its busy fractions with it. No
//! trace moved.
//!
//! Each scenario also runs with tracing enabled at both widths: the traced
//! reports must equal the untraced ones, the two Chrome trace exports must be
//! byte-identical, and an FNV fingerprint of the export must match a second
//! recorded constant. The trace constants were recorded while the gpu-sim
//! stepper and the plan cache still recorded their own trace events, so
//! matching them shows that moving that recording into the serve loop kept
//! every event, label and order.
//!
//! The two fault scenarios were recorded before the serve loop's ways of
//! retiring a request were merged into one path, so matching them shows the
//! merge moved no simulated result.
//!
//! The fingerprinted runs keep their memory series
//! (`with_memory_series()`), so the fingerprints hash every sample of every
//! device trace and of every exclusive request's trace. Each scenario also
//! runs without the series at both widths: the outcomes and device reports
//! must equal the series run's, with every device trace `None` and every
//! request trace holding the same statistics and no samples. That pins the
//! O(1) case: a device that is not asked for its series keeps none.
//!
//! An eighth test pins that a fault-free run is the same run with or without
//! recovery armed.

use flashmem::core::cache::Fnv1a;
use flashmem::gpu_sim::trace::MemoryTrace;
use flashmem::gpu_sim::SimError;
use flashmem::prelude::*;
use flashmem::serve::metrics::{DeviceReport, RequestOutcome, ServeReport};
use flashmem::serve::{
    BatchConfig, DecodeEngine, DecodeWorkloadSpec, OverloadControl, RecoveryControl, TraceKind,
};

const EDF_GOLDEN: u64 = 0xd307f7b9a590da07;
const CHAOS_GOLDEN: u64 = 0xceb96f2a13dba0d1;
const FIFO_GOLDEN: u64 = 0x892b9730405cfccc;
const DECODE_GOLDEN: u64 = 0xe5ad7a9f90db7e0d;
const FIFO_FAULTS_GOLDEN: u64 = 0x7c7687ded0f178fe;
const DECODE_FAULTS_GOLDEN: u64 = 0xf49a0121ee1a51c1;
const DECODE_MIXED_GOLDEN: u64 = 0x35d2e1bf02c89e20;

const EDF_TRACE_GOLDEN: u64 = 0x8875702842690219;
const CHAOS_TRACE_GOLDEN: u64 = 0x8046c5a46bcb79b7;
const FIFO_TRACE_GOLDEN: u64 = 0x0a97def83da335e8;
const DECODE_TRACE_GOLDEN: u64 = 0xc304345be61177d1;
const FIFO_FAULTS_TRACE_GOLDEN: u64 = 0xac2c52e68e2db6fc;
const DECODE_FAULTS_TRACE_GOLDEN: u64 = 0xf1b72fd4737caf3d;
const DECODE_MIXED_TRACE_GOLDEN: u64 = 0xc2f1a97641122bc0;

/// The serving engines' memory-series opt-in, applied when `keep` is set.
trait KeepSeries: Sized {
    fn keep_series(self, keep: bool) -> Self;
}

impl KeepSeries for ServeEngine {
    fn keep_series(self, keep: bool) -> Self {
        if keep {
            self.with_memory_series()
        } else {
            self
        }
    }
}

impl KeepSeries for DecodeEngine {
    fn keep_series(self, keep: bool) -> Self {
        if keep {
            self.with_memory_series()
        } else {
            self
        }
    }
}

fn hash_option(h: Fnv1a, value: Option<f64>) -> Fnv1a {
    match value {
        Some(v) => h.write_u64(1).write_f64(v),
        None => h.write_u64(0),
    }
}

fn hash_memory_trace(mut h: Fnv1a, trace: &MemoryTrace) -> Fnv1a {
    h = h.write_u64(trace.len() as u64).write_u64(trace.clamped());
    for sample in trace.samples() {
        h = h.write_f64(sample.time_ms).write_u64(sample.bytes);
    }
    h
}

fn hash_outcome(mut h: Fnv1a, o: &RequestOutcome) -> Fnv1a {
    h = h
        .write_u64(o.seq as u64)
        .write_str(&o.model)
        .write_str(&o.tenant)
        .write_u64(u64::from(o.priority))
        .write_str(&o.device)
        .write_u64(o.device_index as u64)
        .write_f64(o.arrival_ms)
        .write_f64(o.start_ms)
        .write_f64(o.completion_ms)
        .write_f64(o.queue_wait_ms)
        .write_f64(o.latency_ms);
    h = hash_option(h, o.deadline_ms);
    h = hash_option(h, o.admission_laxity_ms);
    h = h
        .write_u64(o.resident_estimate_bytes)
        .write_u64(o.preemptions as u64)
        .write_f64(o.suspended_ms)
        .write_f64(o.resume_penalty_ms)
        .write_u64(u64::from(o.cache_hit))
        .write_f64(o.peak_memory_mb);
    let p = &o.phases;
    h = h
        .write_f64(p.queue_ms)
        .write_f64(p.compile_ms)
        .write_f64(p.transfer_ms)
        .write_f64(p.compute_ms)
        .write_f64(p.suspended_ms)
        .write_f64(p.stall_ms);
    h = h
        .write_str(o.rejected.map_or("-", |cause| cause.label()))
        .write_u64(o.stolen_from.map_or(u64::MAX, |d| d as u64))
        .write_str(o.failure.map_or("-", |cause| cause.label()))
        .write_str(&o.error.as_ref().map_or(String::new(), ToString::to_string))
        .write_u64(u64::from(o.retries))
        .write_u64(u64::from(o.failed_over));
    if let Some(r) = &o.report {
        h = h
            .write_str(&r.framework)
            .write_str(&r.model)
            .write_f64(r.init_latency_ms)
            .write_f64(r.exec_latency_ms)
            .write_f64(r.integrated_latency_ms)
            .write_f64(r.load_busy_ms)
            .write_f64(r.transform_busy_ms)
            .write_f64(r.kernel_busy_ms)
            .write_f64(r.peak_memory_mb)
            .write_f64(r.average_memory_mb)
            .write_f64(r.average_power_w)
            .write_f64(r.energy_j)
            .write_f64(r.overlap_fraction)
            .write_f64(r.streamed_weight_fraction);
        h = hash_memory_trace(h, &r.memory_trace);
    }
    if let Some(d) = &o.decode {
        h = h
            .write_u64(u64::from(d.prompt_tokens))
            .write_u64(u64::from(d.output_tokens))
            .write_f64(d.ttft_ms)
            .write_u64(d.itl_ms.len() as u64);
        for itl in &d.itl_ms {
            h = h.write_f64(*itl);
        }
        h = h.write_u64(d.kv_peak_bytes).write_u64(d.max_batch as u64);
    }
    h
}

fn hash_device(h: Fnv1a, d: &DeviceReport) -> Fnv1a {
    let h = h
        .write_str(&d.device)
        .write_u64(d.requests as u64)
        .write_u64(d.completed as u64)
        .write_f64(d.makespan_ms)
        .write_f64(d.transfer_busy_ms)
        .write_f64(d.compute_busy_ms)
        .write_f64(d.transfer_busy_fraction)
        .write_f64(d.compute_busy_fraction)
        .write_f64(d.peak_memory_mb)
        .write_u64(d.queue_depth_high_water as u64);
    let trace = d.memory_trace.as_ref();
    hash_memory_trace(h, trace.expect("fingerprinted runs keep the memory series"))
}

/// FNV-1a over every outcome in submission order, every device report in
/// fleet order, then the run's preemption, recovery and cache counters.
fn fingerprint(report: &ServeReport) -> u64 {
    let mut h = Fnv1a::new().write_u64(report.outcomes.len() as u64);
    for outcome in &report.outcomes {
        h = hash_outcome(h, outcome);
    }
    h = h.write_u64(report.devices.len() as u64);
    for device in &report.devices {
        h = hash_device(h, device);
    }
    let r = &report.recovery;
    h.write_u64(report.preemptions as u64)
        .write_u64(r.retries as u64)
        .write_u64(r.failovers as u64)
        .write_u64(r.quarantines as u64)
        .write_u64(r.probes as u64)
        .write_u64(report.cache.hits)
        .write_u64(report.cache.misses)
        .finish()
}

/// Every submitted request, in submission order, is exactly one of
/// completed, rejected (with a typed cause and no error) or failed (with an
/// error and a typed cause).
fn assert_partition(name: &str, report: &ServeReport, submitted: usize) {
    assert_eq!(
        report.outcomes.len(),
        submitted,
        "{name}: one outcome per request"
    );
    let (mut completed, mut rejected, mut failed) = (0, 0, 0);
    for (seq, o) in report.outcomes.iter().enumerate() {
        assert_eq!(o.seq, seq, "{name}: outcomes in submission order");
        assert_eq!(o.failure.is_some(), o.error.is_some(), "{name} #{seq}");
        match (o.rejected.is_some(), o.error.is_some()) {
            (false, false) => completed += 1,
            (true, false) => rejected += 1,
            (false, true) => failed += 1,
            (true, true) => panic!("{name} #{seq}: both rejected and failed"),
        }
        assert!(
            (o.phases.total_ms() - o.latency_ms).abs() <= 1e-6 * o.latency_ms.max(1.0),
            "{name} #{seq}: phases must sum to the latency"
        );
    }
    assert_eq!(report.completed(), completed, "{name}");
    assert_eq!(report.rejected(), rejected, "{name}");
    assert_eq!(report.failed(), failed, "{name}");
    assert_eq!(report.accepted(), completed + failed, "{name}");
    assert_eq!(report.shed_by_cause().total(), rejected, "{name}");
    assert_eq!(report.failed_by_cause().total(), failed, "{name}");
}

/// `bare`, a run without the memory series, is `series`, the same run with
/// it, minus the samples: every device trace is `None`, every request trace
/// reports the same statistics from no samples, and nothing else moves.
fn assert_same_without_series(name: &str, series: &ServeReport, bare: &ServeReport) {
    let mut devices = series.devices.clone();
    for device in &mut devices {
        assert!(
            device.memory_trace.is_some(),
            "{name}: the series run reports no device trace"
        );
        device.memory_trace = None;
    }
    assert!(
        bare.devices == devices,
        "{name}: device reports without the memory series differ"
    );
    assert_eq!(bare.outcomes.len(), series.outcomes.len(), "{name}");
    for (bare, series) in bare.outcomes.iter().zip(&series.outcomes) {
        let (mut bare, mut series) = (bare.clone(), series.clone());
        if let (Some(b), Some(s)) = (&mut bare.report, &mut series.report) {
            let (b, s) = (&mut b.memory_trace, &mut s.memory_trace);
            let statistics = |t: &MemoryTrace| {
                (
                    t.len(),
                    t.clamped(),
                    t.peak_bytes(),
                    t.average_bytes().to_bits(),
                )
            };
            assert!(s.keeps_series() && !b.keeps_series() && b.samples().is_empty());
            assert_eq!(statistics(b), statistics(s), "{name} #{}", bare.seq);
            *b = MemoryTrace::without_series();
            *s = MemoryTrace::without_series();
        }
        assert!(
            bare == series,
            "{name} #{}: outcome without the memory series differs",
            bare.seq
        );
    }
}

/// Run a scenario with its memory series at pool widths 1 and 4, each on a
/// freshly built engine (so both start from a cold plan cache), check that
/// the two reports are identical and partition their requests, and compare
/// the fingerprint with the recorded one. Then run it without the series at
/// both widths: the reports must match, minus the samples. Then run it
/// traced at both widths: the reports must not move, the two Chrome exports
/// must be byte-identical, and their fingerprint must match `trace_golden`.
/// `run` takes the pool, the trace configuration and whether to keep the
/// memory series. Returns the width-1 report and the width-1 trace.
fn check(
    name: &str,
    submitted: usize,
    golden: u64,
    trace_golden: u64,
    run: impl Fn(&ThreadPool, TraceConfig, bool) -> ServeReport,
) -> (ServeReport, FleetTrace) {
    let serial = run(&ThreadPool::with_threads(1), TraceConfig::disabled(), true);
    let wide = run(&ThreadPool::with_threads(4), TraceConfig::disabled(), true);
    assert_partition(name, &serial, submitted);
    assert!(
        serial.outcomes == wide.outcomes,
        "{name}: outcomes differ between widths 1 and 4"
    );
    assert!(
        serial.devices == wide.devices,
        "{name}: device reports differ between widths 1 and 4"
    );
    let hash = fingerprint(&serial);
    assert_eq!(hash, fingerprint(&wide), "{name}");
    assert_eq!(
        hash, golden,
        "{name}: serving fingerprint {hash:#018x} differs from the recorded {golden:#018x}"
    );
    for threads in [1, 4] {
        let bare = run(
            &ThreadPool::with_threads(threads),
            TraceConfig::disabled(),
            false,
        );
        assert_same_without_series(&format!("{name} at width {threads}"), &serial, &bare);
    }

    let [serial_trace, wide_trace] = [1, 4].map(|threads| {
        let traced = run(
            &ThreadPool::with_threads(threads),
            TraceConfig::enabled(),
            true,
        );
        assert!(
            traced.outcomes == serial.outcomes && traced.devices == serial.devices,
            "{name}: tracing changed the report at width {threads}"
        );
        traced.trace.expect("a traced run carries its trace")
    });
    let export = chrome_trace(&serial_trace);
    assert!(
        export == chrome_trace(&wide_trace),
        "{name}: traces differ between widths 1 and 4"
    );
    let trace_hash = Fnv1a::new().write(export.as_bytes()).finish();
    assert_eq!(
        trace_hash, trace_golden,
        "{name}: trace fingerprint {trace_hash:#018x} differs from the recorded {trace_golden:#018x}"
    );
    (serial, serial_trace)
}

fn one_shot_models() -> Vec<flashmem::graph::ModelSpec> {
    vec![
        ModelZoo::gptneo_small(),
        ModelZoo::vit(),
        ModelZoo::resnet50(),
    ]
}

#[test]
fn edf_with_tenant_slos_matches_its_fingerprint() {
    const SLO_MS: [f64; 4] = [300.0, 600.0, 1_200.0, 3_000.0];
    let requests = WorkloadSpec {
        pattern: ArrivalPattern::Poisson {
            mean_interval_ms: 70.0,
        },
        requests: 48,
        tenants: SLO_MS.len(),
        priority_levels: 2,
        seed: 11,
    }
    .generate(&one_shot_models());
    let (report, _) = check(
        "edf",
        requests.len(),
        EDF_GOLDEN,
        EDF_TRACE_GOLDEN,
        |pool, trace, series| {
            SLO_MS
                .iter()
                .enumerate()
                .fold(
                    ServeEngine::new(
                        vec![DeviceSpec::oneplus_12(), DeviceSpec::pixel_8()],
                        FlashMemConfig::memory_priority(),
                    )
                    .with_policy(Box::new(EdfPolicy::with_max_in_flight(2))),
                    |engine, (tenant, slo)| {
                        engine.with_tenant_slo(format!("tenant-{tenant}"), *slo)
                    },
                )
                .with_trace(trace)
                .keep_series(series)
                .run_on(pool, &requests)
                .expect("edf run")
        },
    );
    // The scenario queues: requests wait, and some miss their SLO.
    assert_eq!(report.completed(), requests.len());
    assert!(report.outcomes.iter().any(|o| o.queue_wait_ms > 0.0));
    assert!(
        report.slo.missed() > 0 && report.slo.met > 0,
        "{:?}",
        report.slo
    );
}

/// The flash crowd of the preemptive scenario on its four-phone fleet.
fn flash_crowd() -> (Vec<DeviceSpec>, Vec<ServeRequest>) {
    let fleet = vec![
        DeviceSpec::oneplus_12(),
        DeviceSpec::pixel_8(),
        DeviceSpec::oneplus_12(),
        DeviceSpec::pixel_8(),
    ];
    let mut requests = WorkloadSpec {
        pattern: ArrivalPattern::FlashCrowd {
            base_interval_ms: 60.0,
            crowd_index: 16,
            crowd_size: 16,
        },
        requests: 48,
        tenants: 4,
        priority_levels: 3,
        seed: 23,
    }
    .generate(&one_shot_models());
    // Every eighth deadline is provably unmeetable; the rest are budgets a
    // device can meet when it is not backed up.
    for (i, request) in requests.iter_mut().enumerate() {
        request.deadline_ms = Some(if i % 8 == 7 {
            1.0
        } else {
            1_500.0 + 150.0 * (i % 10) as f64
        });
    }
    (fleet, requests)
}

/// Preemptive priority with bounded queues, admission control and steal:
/// the overload prologue predicts service times, so it compiles every plan
/// before any device runs.
fn preemptive_overload_engine(fleet: &[DeviceSpec]) -> ServeEngine {
    ServeEngine::new(fleet.to_vec(), FlashMemConfig::memory_priority())
        .with_policy(Box::new(PreemptivePriorityPolicy::with_max_in_flight(2)))
        .with_overload_control(
            OverloadControl::disabled()
                .with_queue_bound(3)
                .with_admission_control()
                .with_steal(),
        )
}

/// Retry, backoff, failover and a quarantine breaker.
fn recovery_kit() -> RecoveryControl {
    RecoveryControl::disabled()
        .with_retry_budget(2)
        .with_backoff_ms(25.0)
        .with_failover()
        .with_quarantine(2, 0.0)
}

#[test]
fn preemptive_overload_recovery_matches_its_fingerprint() {
    let (fleet, requests) = flash_crowd();
    let (report, trace) = check(
        "chaos",
        requests.len(),
        CHAOS_GOLDEN,
        CHAOS_TRACE_GOLDEN,
        |pool, trace, series| {
            preemptive_overload_engine(&fleet)
                .with_recovery_control(recovery_kit())
                .with_trace(trace)
                .keep_series(series)
                .with_fault_plan(
                    FaultPlan::seeded(0x5EED)
                        .with_device_loss(0, 900.0)
                        .with_flaky_device(3, 0.0006)
                        .with_oom_spikes(1, 0.0004),
                )
                .run_on(pool, &requests)
                .expect("chaos run")
        },
    );
    // Every mechanism the scenario names fires at least once.
    assert!(report.preemptions > 0);
    assert!(report.stolen() > 0);
    let shed = report.shed_by_cause();
    assert!(
        shed.deadline_unmeetable > 0 && shed.queue_full > 0,
        "{shed:?}"
    );
    assert!(report.recovery.retries > 0 && report.recovery.failovers > 0);
    assert!(report.recovery.quarantines > 0);
    // The traced run records every event the serve loop draws for stepping,
    // preemption and the plan cache.
    let count = |kind: TraceKind| {
        trace
            .processes
            .iter()
            .flat_map(|p| &p.events)
            .filter(|e| e.kind == kind)
            .count()
    };
    for kind in [
        TraceKind::Preempt,
        TraceKind::Resume,
        TraceKind::Suspended,
        TraceKind::Command,
    ] {
        assert!(count(kind) > 0, "chaos trace holds no {kind:?} event");
    }
    assert!(count(TraceKind::CacheHit) + count(TraceKind::CacheMiss) > 0);
}

#[test]
fn arming_recovery_without_faults_changes_nothing() {
    // With an empty fault plan nothing can fail, so recovery has nothing to
    // decide: a run with the recovery kit armed must equal the same run
    // without it, outcome for outcome, including `cache_hit` (warm when the
    // run began, before the overload prologue compiled anything) and every
    // trace event. Each run starts from a cold plan cache.
    let (fleet, requests) = flash_crowd();
    let run = |pool: &ThreadPool, recovery: RecoveryControl| {
        preemptive_overload_engine(&fleet)
            .with_recovery_control(recovery)
            .with_trace(TraceConfig::enabled())
            .run_on(pool, &requests)
            .expect("fault-free run")
    };
    for threads in [1, 4] {
        let pool = ThreadPool::with_threads(threads);
        let plain = run(&pool, RecoveryControl::disabled());
        let armed = run(&pool, recovery_kit());
        assert!(
            plain.outcomes == armed.outcomes,
            "width {threads}: arming recovery changed the outcomes"
        );
        assert!(
            plain.devices == armed.devices,
            "width {threads}: arming recovery changed the device reports"
        );
        assert!(
            plain.trace == armed.trace,
            "width {threads}: arming recovery changed the trace"
        );
        assert_eq!(plain.recovery, armed.recovery, "width {threads}");
        assert!(plain.outcomes.iter().any(|o| !o.cache_hit));
    }
}

#[test]
fn exclusive_fifo_matches_its_fingerprint() {
    let requests = WorkloadSpec {
        pattern: ArrivalPattern::Bursty {
            burst_size: 4,
            gap_ms: 400.0,
        },
        requests: 16,
        tenants: 2,
        priority_levels: 1,
        seed: 5,
    }
    .generate(&one_shot_models());
    let (report, _) = check(
        "fifo",
        requests.len(),
        FIFO_GOLDEN,
        FIFO_TRACE_GOLDEN,
        |pool, trace, series| {
            ServeEngine::new(
                vec![DeviceSpec::oneplus_12(), DeviceSpec::pixel_8()],
                FlashMemConfig::memory_priority(),
            )
            .with_trace(trace)
            .keep_series(series)
            .run_on(pool, &requests)
            .expect("fifo run")
        },
    );
    // Exclusive mode: every request owns its device and reports a full
    // execution report.
    assert_eq!(report.completed(), requests.len());
    assert!(report.outcomes.iter().all(|o| o.report.is_some()));
}

#[test]
fn continuous_batching_decode_matches_its_fingerprint() {
    let requests = DecodeWorkloadSpec {
        pattern: ArrivalPattern::Poisson {
            mean_interval_ms: 40.0,
        },
        requests: 12,
        tenants: 2,
        prompt_tokens: (8, 24),
        output_tokens: (6, 16),
        seed: 3,
    }
    .generate(&[ModelZoo::gptneo_small()]);
    let (report, _) = check(
        "decode",
        requests.len(),
        DECODE_GOLDEN,
        DECODE_TRACE_GOLDEN,
        |pool, trace, series| {
            DecodeEngine::new(
                vec![DeviceSpec::oneplus_12(), DeviceSpec::pixel_8()],
                FlashMemConfig::memory_priority(),
            )
            .with_batching(BatchConfig {
                max_batch: 4,
                ..BatchConfig::default()
            })
            .with_trace(trace)
            .keep_series(series)
            .run_on(pool, &requests)
            .expect("decode run")
        },
    );
    assert_eq!(report.completed(), requests.len());
    assert!(report
        .outcomes
        .iter()
        .any(|o| o.decode.as_ref().is_some_and(|d| d.max_batch > 1)));
}

#[test]
fn exclusive_fifo_under_faults_matches_its_fingerprint() {
    const MIB: u64 = 1024 * 1024;
    let requests = WorkloadSpec {
        pattern: ArrivalPattern::Poisson {
            mean_interval_ms: 90.0,
        },
        requests: 48,
        tenants: 2,
        priority_levels: 1,
        seed: 31,
    }
    .generate(&one_shot_models());
    // The middle phone's app budget is too small for some plans to run to
    // the end; the third phone is lost mid-run.
    let fleet = vec![
        DeviceSpec::oneplus_12(),
        DeviceSpec::pixel_8().with_app_budget_bytes(200 * MIB),
        DeviceSpec::oneplus_12(),
    ];
    let (report, _) = check(
        "fifo-faults",
        requests.len(),
        FIFO_FAULTS_GOLDEN,
        FIFO_FAULTS_TRACE_GOLDEN,
        |pool, trace, series| {
            ServeEngine::new(fleet.clone(), FlashMemConfig::memory_priority())
                .with_tenant_cap("tenant-1", 150 * MIB)
                .with_recovery_control(
                    RecoveryControl::disabled()
                        .with_retry_budget(1)
                        .with_backoff_ms(25.0),
                )
                .with_fault_plan(
                    FaultPlan::seeded(0xF1F0)
                        .with_device_loss(2, 1_000.0)
                        .with_flaky_device(0, 0.0006)
                        .with_oom_spikes(1, 0.0004),
                )
                .with_trace(trace)
                .keep_series(series)
                .run_on(pool, &requests)
                .expect("fifo-faults run")
        },
    );
    let failed = report.failed_by_cause();
    let ran = |o: &&RequestOutcome| o.completion_ms > o.start_ms;
    let pool_of = |o: &RequestOutcome| match &o.error {
        Some(SimError::OutOfMemory { pool, .. }) => pool.clone(),
        _ => String::new(),
    };
    // Transient faults in exclusive mode: retried, and some fail again.
    assert!(report.recovery.retries > 0, "{:?}", report.recovery);
    assert!(failed.kernel_fault + failed.oom_spike > 0, "{failed:?}");
    // A device loss without failover, one request stranded mid-run.
    assert_eq!(report.recovery.failovers, 0);
    let lost: Vec<_> = report
        .outcomes
        .iter()
        .filter(|o| o.failure == Some(FailureCause::DeviceLost))
        .collect();
    assert!(lost.iter().any(ran), "no request was lost mid-run");
    // A modelled OOM mid-run, and requests the tenant cap can never fit.
    let oom = || {
        report
            .outcomes
            .iter()
            .filter(|o| o.failure == Some(FailureCause::OutOfMemory))
    };
    assert!(
        oom().filter(ran).any(|o| !pool_of(o).contains("tenant")),
        "no mid-run OOM"
    );
    assert!(
        oom().any(|o| pool_of(o) == "tenant `tenant-1` cap"),
        "no tenant-cap failure"
    );
    assert!(report.completed() > 0);
}

#[test]
fn continuous_batching_decode_under_faults_matches_its_fingerprint() {
    let mut requests = DecodeWorkloadSpec {
        pattern: ArrivalPattern::Poisson {
            mean_interval_ms: 40.0,
        },
        requests: 16,
        tenants: 2,
        prompt_tokens: (8, 24),
        output_tokens: (6, 16),
        seed: 7,
    }
    .generate(&[ModelZoo::gptneo_small()]);
    // One prompt alone exceeds the token budget.
    requests
        .push(ServeRequest::new(ModelZoo::gptneo_small(), "tenant-0").with_decode_tokens(300, 8));
    let (report, _) = check(
        "decode-faults",
        requests.len(),
        DECODE_FAULTS_GOLDEN,
        DECODE_FAULTS_TRACE_GOLDEN,
        |pool, trace, series| {
            DecodeEngine::new(
                vec![DeviceSpec::oneplus_12(), DeviceSpec::pixel_8()],
                FlashMemConfig::memory_priority(),
            )
            .with_batching(BatchConfig {
                max_batch: 4,
                token_budget: 256,
                ..BatchConfig::default()
            })
            .with_recovery_control(
                RecoveryControl::disabled()
                    .with_retry_budget(2)
                    .with_backoff_ms(25.0)
                    .with_failover(),
            )
            .with_fault_plan(
                FaultPlan::seeded(0xDEC0)
                    .with_device_loss(0, 700.0)
                    .with_flaky_device(1, 0.02),
            )
            .with_trace(trace)
            .keep_series(series)
            .run_on(pool, &requests)
            .expect("decode-faults run")
        },
    );
    // The device loss fails work over, flaky steps retry, and the
    // oversized request fails on the budget.
    assert!(report.recovery.failovers > 0, "{:?}", report.recovery);
    assert!(report.recovery.retries > 0, "{:?}", report.recovery);
    let budget = report.outcomes.iter().filter(|o| {
        o.error
            .as_ref()
            .is_some_and(|e| e.to_string().contains("token budget"))
    });
    assert_eq!(budget.count(), 1);
    assert_eq!(report.completed(), requests.len() - 1);
}

#[test]
fn continuous_batching_of_two_models_matches_its_fingerprint() {
    let requests = DecodeWorkloadSpec {
        pattern: ArrivalPattern::Poisson {
            mean_interval_ms: 40.0,
        },
        requests: 16,
        tenants: 2,
        prompt_tokens: (8, 24),
        output_tokens: (6, 16),
        seed: 13,
    }
    .generate(&[ModelZoo::gptneo_small(), ModelZoo::whisper_medium()]);
    let (report, trace) = check(
        "decode-mixed",
        requests.len(),
        DECODE_MIXED_GOLDEN,
        DECODE_MIXED_TRACE_GOLDEN,
        |pool, trace, series| {
            DecodeEngine::new(
                vec![DeviceSpec::oneplus_12(), DeviceSpec::pixel_8()],
                FlashMemConfig::memory_priority(),
            )
            .with_batching(BatchConfig {
                max_batch: 4,
                ..BatchConfig::default()
            })
            .with_trace(trace)
            .keep_series(series)
            .run_on(pool, &requests)
            .expect("decode-mixed run")
        },
    );
    assert_eq!(report.completed(), requests.len());
    // Both models batch, and a device steps both of them in one batch: its
    // compute lane holds sub-batch steps of each model.
    for model in ["GPTN-S", "Whisp-M"] {
        assert!(
            report
                .outcomes
                .iter()
                .any(|o| o.model == model && o.decode.as_ref().is_some_and(|d| d.max_batch > 1)),
            "{model} never shared a step"
        );
    }
    assert!(trace.processes.iter().any(|p| {
        let steps = |model: &str| {
            p.events
                .iter()
                .any(|e| e.kind == TraceKind::DecodeStep && e.name.contains(model))
        };
        steps("GPTN-S") && steps("Whisp-M")
    }));
}
