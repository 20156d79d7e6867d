//! Preemption invariants:
//!
//! 1. **Suspend/resume determinism oracle** — suspending an inference at any
//!    command boundary and resuming it yields an [`ExecutionReport`] that is
//!    **byte-identical** to the uninterrupted run (every float field,
//!    timeline event and memory-trace sample).
//! 2. **No lost commands** — a stream preempted (with eviction) at *every*
//!    command boundary still executes every command exactly once, with the
//!    same timeline.
//! 3. **No starvation** — a low-priority request preempted by a stream of
//!    high-priority arrivals eventually completes.
//! 4. **SLO mechanics** — preemption is what lets a tight-deadline request
//!    meet its SLO behind a long low-priority inference, and the preempted
//!    request pays the configured re-residency cost.

use flashmem_core::{ExecutionReport, FlashMem, FlashMemConfig, InferenceEngine};
use flashmem_gpu_sim::engine::{GpuSimulator, QueueClocks, SimConfig, StreamStepper};
use flashmem_gpu_sim::memory::MemoryTracker;
use flashmem_gpu_sim::{DeviceSpec, PreemptionCost};
use flashmem_graph::{ModelSpec, ModelZoo};
use flashmem_serve::server::lower_artifact;
use flashmem_serve::{PreemptivePriorityPolicy, PriorityPolicy, ServeEngine, ServeRequest};

/// Compile `model` with FlashMem and lower it to the command stream the
/// serving event loop steps.
fn lowered_stream(
    model: &ModelSpec,
    device: &DeviceSpec,
    config: &FlashMemConfig,
) -> flashmem_gpu_sim::engine::CommandStream {
    let engine = FlashMem::new(device.clone()).with_config(config.clone());
    let artifact = InferenceEngine::compile(&engine, model, device).expect("compiles");
    lower_artifact(&artifact, model, device, config)
}

/// Step a fresh stepper to completion and report it like the serving layer
/// does for exclusive runs.
fn uninterrupted_report(
    stream: &flashmem_gpu_sim::engine::CommandStream,
    device: &DeviceSpec,
) -> ExecutionReport {
    let sim = GpuSimulator::new(device.clone(), SimConfig::default());
    let mut tracker = MemoryTracker::for_device(device);
    let mut stepper = StreamStepper::new(stream.clone()).expect("valid stream");
    let mut clocks = QueueClocks::new();
    while !stepper.is_done() {
        stepper
            .step(&sim, &mut clocks, &mut tracker, 0.0)
            .expect("steps");
    }
    let outcome = stepper.finish(&sim, &mut tracker);
    ExecutionReport::from_outcome("FlashMem", "model", outcome, 0.5)
}

#[test]
fn suspend_resume_report_is_byte_identical_to_uninterrupted_run() {
    let device = DeviceSpec::oneplus_12();
    let config = FlashMemConfig::memory_priority();
    let stream = lowered_stream(&ModelZoo::vit(), &device, &config);
    let expected = uninterrupted_report(&stream, &device);
    assert!(
        stream.len() > 4,
        "stream too trivial to exercise suspension"
    );

    // Suspend once at every boundary (including before the first and after
    // the last command) and prove the resumed run is byte-identical.
    for suspend_at in 0..=stream.len() {
        let sim = GpuSimulator::new(device.clone(), SimConfig::default());
        let mut tracker = MemoryTracker::for_device(&device);
        let mut stepper = StreamStepper::new(stream.clone()).expect("valid stream");
        let mut clocks = QueueClocks::new();
        for _ in 0..suspend_at {
            stepper
                .step(&sim, &mut clocks, &mut tracker, 0.0)
                .expect("steps");
        }
        let suspension = stepper.suspend(&clocks, clocks.horizon_ms());
        let (mut stepper, mut clocks) = suspension.resume();
        while !stepper.is_done() {
            stepper
                .step(&sim, &mut clocks, &mut tracker, 0.0)
                .expect("steps");
        }
        let outcome = stepper.finish(&sim, &mut tracker);
        let resumed = ExecutionReport::from_outcome("FlashMem", "model", outcome, 0.5);
        // ExecutionReport is PartialEq over every float field, the whole
        // timeline and the whole memory trace: only bit equality passes.
        assert_eq!(
            resumed, expected,
            "diverged when suspending at command {suspend_at}"
        );
    }
}

#[test]
fn no_commands_lost_under_repeated_evicting_preemption() {
    let device = DeviceSpec::oneplus_12();
    let config = FlashMemConfig::memory_priority();
    let stream = lowered_stream(&ModelZoo::vit(), &device, &config);
    let expected = uninterrupted_report(&stream, &device);

    let sim = GpuSimulator::new(device.clone(), SimConfig::default());
    let mut tracker = MemoryTracker::for_device(&device);
    let mut stepper = StreamStepper::new(stream.clone()).expect("valid stream");
    let mut clocks = QueueClocks::new();
    let mut executed = 0usize;
    // Preempt with eviction before every single command. Zero resume cost and
    // zero-time suspension points keep the arithmetic comparable to the
    // uninterrupted run; what this test stresses is the handle bookkeeping —
    // every evicted allocation must come back addressable, every Free must
    // find its target, and no command may run twice or never.
    while !stepper.is_done() {
        let suspension = stepper
            .suspend_evicting(&clocks, &mut tracker, 0.0, 0.0)
            .expect("suspends");
        assert!(suspension.can_resume(&tracker));
        let (resumed, penalty) = suspension
            .resume_into(&sim, &mut tracker, 0.0, 0.0, &PreemptionCost::free())
            .expect("resumes");
        assert_eq!(penalty, 0.0);
        stepper = resumed;
        stepper
            .step(&sim, &mut clocks, &mut tracker, 0.0)
            .expect("steps");
        executed += 1;
    }
    assert_eq!(executed, stream.len(), "every command ran exactly once");
    assert_eq!(stepper.remaining(), 0);
    let outcome = stepper.finish(&sim, &mut tracker);
    assert_eq!(outcome.total_time_ms, expected.integrated_latency_ms);
    let resumed_report = ExecutionReport::from_outcome("FlashMem", "model", outcome, 0.5);
    assert_eq!(resumed_report.load_busy_ms, expected.load_busy_ms);
    assert_eq!(resumed_report.kernel_busy_ms, expected.kernel_busy_ms);
    assert_eq!(resumed_report.transform_busy_ms, expected.transform_busy_ms);
}

#[test]
fn preempted_request_is_not_starved() {
    // One long low-priority inference, then a stream of nine high-priority
    // arrivals spaced tighter than their own service time: the low-priority
    // request is preempted and must still complete once the pressure stops.
    let mut requests = vec![ServeRequest::new(ModelZoo::gptneo_small(), "background")];
    for i in 0..9 {
        requests.push(
            ServeRequest::new(ModelZoo::vit(), "camera")
                .with_priority(5)
                .with_arrival_ms(40.0 + 120.0 * f64::from(i)),
        );
    }
    let report = ServeEngine::new(
        vec![DeviceSpec::oneplus_12()],
        FlashMemConfig::memory_priority(),
    )
    .with_policy(Box::new(PreemptivePriorityPolicy::new()))
    .run(&requests)
    .expect("run succeeds");

    assert_eq!(report.completed(), requests.len(), "{report}");
    let background = &report.outcomes[0];
    assert!(background.preemptions >= 1, "{report}");
    assert!(background.suspended_ms > 0.0);
    // It finished, but after the high-priority work it yielded to.
    let last_camera_completion = report
        .outcomes
        .iter()
        .filter(|o| o.tenant == "camera")
        .map(|o| o.completion_ms)
        .fold(0.0_f64, f64::max);
    assert!(background.completion_ms > last_camera_completion);
}

#[test]
fn preemption_rescues_the_high_priority_slo() {
    // A long low-priority inference monopolizes the device; a deadline-tight
    // high-priority request arrives shortly after. Without preemption it
    // waits for the whole blocker and misses; with preemption it meets.
    let device = DeviceSpec::oneplus_12();
    let config = FlashMemConfig::memory_priority();
    let blocker_solo = FlashMem::new(device.clone())
        .with_config(config.clone())
        .run(&ModelZoo::gptneo_small())
        .expect("solo run");
    let urgent_solo = FlashMem::new(device.clone())
        .with_config(config.clone())
        .run(&ModelZoo::vit())
        .expect("solo run");
    // Deadline: enough for the model itself (plus margin) but far less than
    // waiting out the blocker.
    let arrival = 30.0;
    let deadline = urgent_solo.integrated_latency_ms + 0.5 * blocker_solo.integrated_latency_ms;
    assert!(
        deadline < blocker_solo.integrated_latency_ms - arrival + urgent_solo.integrated_latency_ms,
        "deadline must be unreachable without preemption"
    );
    let requests = vec![
        ServeRequest::new(ModelZoo::gptneo_small(), "background"),
        ServeRequest::new(ModelZoo::vit(), "camera")
            .with_priority(5)
            .with_arrival_ms(arrival)
            .with_deadline_ms(deadline),
    ];

    let run = |policy: Box<dyn flashmem_serve::SchedulePolicy>| {
        ServeEngine::new(vec![device.clone()], config.clone())
            .with_policy(policy)
            .run(&requests)
            .expect("run succeeds")
    };
    let non_preemptive = run(Box::new(PriorityPolicy::new()));
    let preemptive = run(Box::new(PreemptivePriorityPolicy::new()));

    assert_eq!(non_preemptive.slo.tracked, 1);
    assert_eq!(non_preemptive.slo.met, 0, "{non_preemptive}");
    assert_eq!(preemptive.slo.tracked, 1);
    assert_eq!(preemptive.slo.met, 1, "{preemptive}");
    assert!(preemptive.preemptions > 0);
    // The preempted blocker pays: it finishes later than it would have
    // uninterrupted, and carries the re-residency penalty.
    let blocker = &preemptive.outcomes[0];
    assert!(blocker.resume_penalty_ms > 0.0);
    assert!(blocker.latency_ms > blocker_solo.integrated_latency_ms);
}

#[test]
fn reload_cost_slows_the_preempted_request_vs_free_resume() {
    let device = DeviceSpec::oneplus_12();
    let config = FlashMemConfig::memory_priority();
    let requests = vec![
        ServeRequest::new(ModelZoo::gptneo_small(), "background"),
        ServeRequest::new(ModelZoo::vit(), "camera")
            .with_priority(5)
            .with_arrival_ms(30.0),
    ];
    let run = |cost: PreemptionCost| {
        ServeEngine::new(vec![device.clone()], config.clone())
            .with_policy(Box::new(PreemptivePriorityPolicy::new().with_cost(cost)))
            .run(&requests)
            .expect("run succeeds")
    };
    let free = run(PreemptionCost::free());
    let reload = run(PreemptionCost::reload());
    assert!(free.preemptions > 0);
    assert!(reload.preemptions > 0);
    let free_blocker = &free.outcomes[0];
    let reload_blocker = &reload.outcomes[0];
    assert_eq!(free_blocker.resume_penalty_ms, 0.0);
    assert!(reload_blocker.resume_penalty_ms > 0.0);
    assert!(
        reload_blocker.latency_ms > free_blocker.latency_ms,
        "reload {} vs free {}",
        reload_blocker.latency_ms,
        free_blocker.latency_ms
    );
    // The high-priority request is unaffected by what the *other* stream
    // pays on resume.
    assert_eq!(free.outcomes[1].latency_ms, reload.outcomes[1].latency_ms);
}
