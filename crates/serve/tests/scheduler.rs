//! Scheduler and plan-cache guarantees:
//!
//! 1. the FIFO policy reproduces the legacy `flashmem-core`
//!    `MultiModelRunner::run_fifo` reports **byte for byte** (the legacy
//!    algorithm is re-implemented here, verbatim, as the oracle);
//! 2. the priority policy never exhibits priority inversion;
//! 3. plan-cache hits return artifacts identical to cold compiles;
//!
//! plus affinity-sharding and tenant-cap behaviour, and the exclusive
//! reports and memory series of failed-over work.

use flashmem_core::{ArtifactCache, FlashMem, FlashMemConfig, InferenceEngine};
use flashmem_gpu_sim::memory::MemoryTracker;
use flashmem_gpu_sim::trace::MemoryTrace;
use flashmem_gpu_sim::DeviceSpec;
use flashmem_graph::{ModelSpec, ModelZoo};
use flashmem_serve::{
    AffinityPolicy, ArrivalPattern, FaultPlan, InvocationResult, MultiModelReport,
    MultiModelRunner, PriorityPolicy, RecoveryControl, ServeEngine, ServeRequest, WorkloadSpec,
};

/// The legacy `MultiModelRunner::run_fifo` of flashmem-core PR 1, kept
/// verbatim as the oracle the scheduler's FIFO mode must match exactly.
fn legacy_run_fifo(
    device: &DeviceSpec,
    config: &FlashMemConfig,
    memory_cap_bytes: Option<u64>,
    queue: &[ModelSpec],
    iterations: usize,
) -> MultiModelReport {
    let device = match memory_cap_bytes {
        Some(cap) => device.clone().with_app_budget_bytes(cap),
        None => device.clone(),
    };
    let runtime = FlashMem::new(device.clone()).with_config(config.clone());
    let compiled: Vec<_> = queue
        .iter()
        .map(|m| (m, runtime.compile(m.graph())))
        .collect();

    let mut tracker = MemoryTracker::for_device(&device);
    let mut invocations = Vec::new();
    let mut stitched = MemoryTrace::new();
    let mut clock_ms = 0.0;
    let mut peak_mb: f64 = 0.0;
    let mut weighted_mem = 0.0;

    for round in 0..iterations {
        for (idx, (model, compiled_model)) in compiled.iter().enumerate() {
            tracker.reset_trace();
            let report = runtime
                .run_compiled_with_tracker(model.graph(), compiled_model, &mut tracker)
                .expect("legacy fifo run succeeds");
            let sequence = round * queue.len() + idx;
            invocations.push(InvocationResult {
                model: model.abbr.clone(),
                sequence,
                latency_ms: report.integrated_latency_ms,
                peak_memory_mb: report.peak_memory_mb,
            });
            stitched.append_shifted(&report.memory_trace, clock_ms);
            weighted_mem += report.average_memory_mb * report.integrated_latency_ms;
            clock_ms += report.integrated_latency_ms;
            peak_mb = peak_mb.max(report.peak_memory_mb);
            tracker.evict_all(clock_ms);
            stitched.record(clock_ms, 0);
        }
    }

    MultiModelReport {
        invocations,
        total_latency_ms: clock_ms,
        peak_memory_mb: peak_mb,
        average_memory_mb: if clock_ms > 0.0 {
            weighted_mem / clock_ms
        } else {
            0.0
        },
        memory_trace: stitched,
    }
}

fn queue() -> Vec<ModelSpec> {
    vec![ModelZoo::gptneo_small(), ModelZoo::vit()]
}

#[test]
fn fifo_policy_matches_legacy_multi_model_runner_byte_for_byte() {
    let device = DeviceSpec::oneplus_12();
    let config = FlashMemConfig::memory_priority();
    let legacy = legacy_run_fifo(&device, &config, None, &queue(), 2);
    let scheduled = MultiModelRunner::new(device, config)
        .run_fifo(&queue(), 2)
        .expect("scheduler fifo runs");
    // PartialEq on f64 fields: only exact bit equality passes.
    assert_eq!(legacy, scheduled);
}

#[test]
fn fifo_policy_matches_legacy_under_the_figure_6_cap() {
    let device = DeviceSpec::oneplus_12();
    let config = FlashMemConfig::memory_priority();
    let cap = 1_536u64 * 1024 * 1024;
    let legacy = legacy_run_fifo(&device, &config, Some(cap), &queue(), 2);
    let scheduled = MultiModelRunner::new(device, config)
        .with_memory_cap_bytes(cap)
        .run_fifo(&queue(), 2)
        .expect("scheduler fifo runs under the cap");
    assert_eq!(legacy, scheduled);
    // And the stitched trace is the full Figure 6 curve, not a summary.
    assert_eq!(
        legacy.memory_trace.samples(),
        scheduled.memory_trace.samples()
    );
}

/// No priority inversion: whenever a higher-priority request was already
/// pending when a lower-priority one started on the same device, the
/// higher-priority one must have started no later.
fn assert_no_priority_inversion(report: &flashmem_serve::ServeReport) {
    for a in report.outcomes.iter().filter(|o| o.succeeded()) {
        for b in report.outcomes.iter().filter(|o| o.succeeded()) {
            if a.seq == b.seq || a.device_index != b.device_index {
                continue;
            }
            if a.priority > b.priority && a.arrival_ms <= b.start_ms + 1e-9 {
                assert!(
                    a.start_ms <= b.start_ms + 1e-9,
                    "priority inversion: seq {} (prio {}, arrived {:.0}, started {:.0}) \
                     behind seq {} (prio {}, started {:.0})",
                    a.seq,
                    a.priority,
                    a.arrival_ms,
                    a.start_ms,
                    b.seq,
                    b.priority,
                    b.start_ms
                );
            }
        }
    }
}

#[test]
fn priority_policy_never_inverts_priorities() {
    let models = [
        ModelZoo::gptneo_small(),
        ModelZoo::resnet50(),
        ModelZoo::vit(),
    ];
    // Seeded bursty arrivals: many requests pending simultaneously is the
    // regime where inversion would show.
    for seed in [1u64, 7, 23] {
        let workload = WorkloadSpec {
            pattern: ArrivalPattern::Bursty {
                burst_size: 4,
                gap_ms: 500.0,
            },
            requests: 12,
            tenants: 3,
            priority_levels: 4,
            seed,
        };
        let requests = workload.generate(&models);
        let report = ServeEngine::new(
            vec![DeviceSpec::oneplus_12()],
            FlashMemConfig::memory_priority(),
        )
        .with_policy(Box::new(PriorityPolicy::new()))
        .run(&requests)
        .expect("priority run succeeds");
        assert_eq!(report.completed(), 12, "seed {seed}");
        assert_no_priority_inversion(&report);
    }
}

#[test]
fn plan_cache_hits_return_identical_artifacts_to_cold_compiles() {
    let cache = ArtifactCache::new();
    let device = DeviceSpec::oneplus_12();
    let model = ModelZoo::gptneo_small();
    let engine = FlashMem::new(device.clone()).with_config(FlashMemConfig::memory_priority());

    let (cold, was_hit_cold) = cache.compile(&engine, &model, &device).unwrap();
    let (warm, was_hit_warm) = cache.compile(&engine, &model, &device).unwrap();
    assert!(!was_hit_cold);
    assert!(was_hit_warm);

    // Identical artifacts execute to identical reports (ExecutionReport is
    // PartialEq over every float field, so this is exact).
    let from_cold = engine.execute(&model, &cold, &device).unwrap();
    let from_warm = engine.execute(&model, &warm, &device).unwrap();
    assert_eq!(from_cold, from_warm);

    // A fresh compile outside the cache is also identical: compilation is
    // deterministic, caching only skips work.
    // UFCS: `FlashMem` also has an inherent graph-level `compile`.
    let recompiled = InferenceEngine::compile(&engine, &model, &device).unwrap();
    let from_recompiled = engine.execute(&model, &recompiled, &device).unwrap();
    assert_eq!(from_cold, from_recompiled);
}

#[test]
fn serving_twice_with_a_shared_cache_hits_and_reproduces_latencies() {
    let cache = std::sync::Arc::new(ArtifactCache::new());
    let requests: Vec<ServeRequest> = queue()
        .into_iter()
        .map(|m| ServeRequest::new(m, "app"))
        .collect();
    let run = |cache: &std::sync::Arc<ArtifactCache>| {
        ServeEngine::new(
            vec![DeviceSpec::oneplus_12()],
            FlashMemConfig::memory_priority(),
        )
        .with_cache(std::sync::Arc::clone(cache))
        .run(&requests)
        .expect("serve run succeeds")
    };
    let first = run(&cache);
    let misses_after_first = cache.stats().misses;
    let second = run(&cache);
    // Second run compiles nothing new…
    assert_eq!(cache.stats().misses, misses_after_first);
    assert!(cache.stats().hits >= requests.len() as u64);
    // …and produces bit-identical latencies.
    for (a, b) in first.outcomes.iter().zip(&second.outcomes) {
        assert_eq!(a.latency_ms, b.latency_ms);
        assert_eq!(a.peak_memory_mb, b.peak_memory_mb);
    }
    assert!(second.outcomes.iter().all(|o| o.cache_hit));
}

#[test]
fn affinity_policy_pins_each_tenant_to_one_device() {
    let fleet = vec![
        DeviceSpec::oneplus_12(),
        DeviceSpec::galaxy_tab_s9(),
        DeviceSpec::pixel_8(),
    ];
    let workload = WorkloadSpec {
        pattern: ArrivalPattern::Steady { interval_ms: 100.0 },
        requests: 12,
        tenants: 4,
        priority_levels: 1,
        seed: 5,
    };
    let requests = workload.generate(&[ModelZoo::gptneo_small(), ModelZoo::vit()]);
    let report = ServeEngine::new(fleet, FlashMemConfig::memory_priority())
        .with_policy(Box::new(AffinityPolicy::new()))
        .run(&requests)
        .expect("affinity run succeeds");
    let mut tenant_device: std::collections::HashMap<&str, usize> = Default::default();
    for outcome in &report.outcomes {
        let device = tenant_device
            .entry(outcome.tenant.as_str())
            .or_insert(outcome.device_index);
        assert_eq!(
            *device, outcome.device_index,
            "tenant {} bounced between devices",
            outcome.tenant
        );
    }
}

#[test]
fn tenant_cap_serializes_a_tenants_concurrent_requests() {
    let model = ModelZoo::gptneo_small();
    let requests = vec![
        ServeRequest::new(model.clone(), "capped"),
        ServeRequest::new(model.clone(), "capped"),
        ServeRequest::new(model, "free"),
    ];
    // Cap the tenant at 1.5× one request's estimated working set: enough for
    // one in-flight inference, not two.
    let device = DeviceSpec::oneplus_12();
    let engine = FlashMem::new(device.clone()).with_config(FlashMemConfig::memory_priority());
    let artifact = InferenceEngine::compile(&engine, &requests[0].model, &device).unwrap();
    let estimate = flashmem_serve::server::estimate_resident_bytes(&artifact, &requests[0].model);
    let report = ServeEngine::new(vec![device], FlashMemConfig::memory_priority())
        .with_policy(Box::new(PriorityPolicy::with_max_in_flight(3)))
        .with_tenant_cap("capped", estimate + estimate / 2)
        .run(&requests)
        .expect("capped run succeeds");
    assert_eq!(report.completed(), 3);
    let capped: Vec<_> = report
        .outcomes
        .iter()
        .filter(|o| o.tenant == "capped")
        .collect();
    assert_eq!(capped.len(), 2);
    // The tenant's two requests must not have overlapped in time.
    let (a, b) = (capped[0], capped[1]);
    let serialized = a.completion_ms <= b.start_ms + 1e-6 || b.completion_ms <= a.start_ms + 1e-6;
    assert!(
        serialized,
        "capped tenant overlapped: [{:.0},{:.0}] vs [{:.0},{:.0}]",
        a.start_ms, a.completion_ms, b.start_ms, b.completion_ms
    );
}

#[test]
fn exclusive_failover_resumes_report_only_their_own_run() {
    // Two of three FIFO phones die at once and fail their in-flight work
    // over to the third, so one resumed request there follows another's
    // completion in the same round. Each exclusive report must cover its
    // own run only: a report still holding the earlier run's samples
    // would show that run's peak, above its own model's solo peak.
    let device = DeviceSpec::oneplus_12();
    let config = FlashMemConfig::memory_priority();
    let models = vec![
        ModelZoo::gptneo_small(),
        ModelZoo::vit(),
        ModelZoo::resnet50(),
    ];
    let requests = WorkloadSpec {
        pattern: ArrivalPattern::Poisson {
            mean_interval_ms: 90.0,
        },
        requests: 24,
        tenants: 2,
        priority_levels: 1,
        seed: 31,
    }
    .generate(&models);
    let report = ServeEngine::new(vec![device.clone(); 3], config.clone())
        .with_recovery_control(RecoveryControl::disabled().with_failover())
        .with_fault_plan(
            FaultPlan::seeded(7)
                .with_device_loss(0, 700.0)
                .with_device_loss(1, 700.0),
        )
        .run(&requests)
        .expect("failover run succeeds");
    let runtime = FlashMem::new(device).with_config(config);
    let solo_peak = |abbr: &str| {
        let model = models
            .iter()
            .find(|m| m.abbr == abbr)
            .expect("served model");
        runtime.run(model).expect("solo run").peak_memory_mb
    };
    let resumed = report
        .outcomes
        .iter()
        .filter(|o| o.failed_over && o.succeeded())
        .count();
    assert!(
        resumed >= 2,
        "only {resumed} failed-over requests completed"
    );
    for o in report.outcomes.iter().filter(|o| o.succeeded()) {
        let run = o.report.as_ref().expect("exclusive outcomes carry reports");
        assert!(
            run.peak_memory_mb <= solo_peak(&o.model),
            "#{} ({}) reports a {} MB peak, above its solo run",
            o.seq,
            o.model,
            run.peak_memory_mb
        );
    }
}

#[test]
fn exclusive_failover_records_memory_on_each_runs_own_clock() {
    // In exclusive mode a device records each request's memory in run-local
    // time and stitches the segment onto its series at the run's epoch. Two
    // of three FIFO phones die at 700 ms and fail their in-flight work over
    // to the third. Freezing the stranded residency at device time would
    // stitch it at twice the epoch, hundreds of milliseconds past the loss,
    // and a resumed run's samples would be clamped onto that instant, beyond
    // the end of its own run.
    const LOSS_MS: f64 = 700.0;
    let models = vec![
        ModelZoo::gptneo_small(),
        ModelZoo::vit(),
        ModelZoo::resnet50(),
    ];
    let requests = WorkloadSpec {
        pattern: ArrivalPattern::Steady { interval_ms: 40.0 },
        requests: 18,
        tenants: 2,
        priority_levels: 1,
        seed: 1,
    }
    .generate(&models);
    let report = ServeEngine::new(
        vec![DeviceSpec::oneplus_12(); 3],
        FlashMemConfig::memory_priority(),
    )
    .with_recovery_control(RecoveryControl::disabled().with_failover())
    .with_fault_plan(
        FaultPlan::seeded(7)
            .with_device_loss(0, LOSS_MS)
            .with_device_loss(1, LOSS_MS),
    )
    .with_memory_series()
    .run(&requests)
    .expect("failover run succeeds");
    let last_ms = |trace: &MemoryTrace| trace.samples().last().map_or(0.0, |s| s.time_ms);
    for lost in &report.devices[..2] {
        let series = lost.memory_trace.as_ref().expect("series kept");
        // Only the command in flight at the loss drains past it.
        assert!(
            last_ms(series) < LOSS_MS + 10.0,
            "a lost device's series runs on to {} ms",
            last_ms(series)
        );
    }
    let mut resumed = 0;
    for o in report.outcomes.iter().filter(|o| o.succeeded()) {
        let run = o.report.as_ref().expect("exclusive outcomes carry reports");
        assert!(
            last_ms(&run.memory_trace) <= run.integrated_latency_ms,
            "#{} ({}) records memory at {} ms of a {} ms run",
            o.seq,
            o.model,
            last_ms(&run.memory_trace),
            run.integrated_latency_ms
        );
        resumed += usize::from(o.failed_over);
    }
    assert!(
        resumed >= 2,
        "only {resumed} failed-over requests completed"
    );
}

#[test]
fn a_lost_devices_makespan_covers_its_frozen_runs() {
    // A device lost at 700 ms freezes each in-flight run once the command
    // straddling the loss has finished: the freeze releases the run's
    // memory, and closes its row, at that later instant. The device's
    // makespan must cover both, in exclusive and in concurrent mode, with
    // and without failover.
    const LOSS_MS: f64 = 700.0;
    let models = vec![
        ModelZoo::gptneo_small(),
        ModelZoo::vit(),
        ModelZoo::resnet50(),
    ];
    let requests = WorkloadSpec {
        pattern: ArrivalPattern::Steady { interval_ms: 40.0 },
        requests: 18,
        tenants: 2,
        priority_levels: 1,
        seed: 1,
    }
    .generate(&models);
    let mut past_the_loss = 0;
    for slots in [1, 2] {
        for recovery in [
            RecoveryControl::disabled(),
            RecoveryControl::disabled().with_failover(),
        ] {
            let report = ServeEngine::new(
                vec![DeviceSpec::oneplus_12(); 3],
                FlashMemConfig::memory_priority(),
            )
            .with_policy(Box::new(PriorityPolicy::with_max_in_flight(slots)))
            .with_recovery_control(recovery)
            .with_fault_plan(
                FaultPlan::seeded(7)
                    .with_device_loss(0, LOSS_MS)
                    .with_device_loss(1, LOSS_MS),
            )
            .with_memory_series()
            .run(&requests)
            .expect("the run succeeds");
            for (index, lost) in report.devices[..2].iter().enumerate() {
                let series = lost.memory_trace.as_ref().expect("series kept");
                let last = series.samples().last().map_or(0.0, |s| s.time_ms);
                past_the_loss += usize::from(last > LOSS_MS);
                assert!(
                    lost.makespan_ms >= last,
                    "{slots} slots: device {index}'s makespan {} ms ends before its \
                     last memory sample at {last} ms",
                    lost.makespan_ms
                );
                // Without failover each frozen row is final and stays here.
                for o in report.outcomes.iter().filter(|o| o.device_index == index) {
                    assert!(
                        lost.makespan_ms >= o.completion_ms,
                        "{slots} slots: device {index}'s makespan {} ms ends before \
                         #{} closes at {} ms",
                        lost.makespan_ms,
                        o.seq,
                        o.completion_ms
                    );
                }
            }
        }
    }
    // The scenario does freeze runs past the loss instant.
    assert!(
        past_the_loss >= 4,
        "{past_the_loss} series end past the loss"
    );
}
