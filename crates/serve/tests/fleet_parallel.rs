//! Oracles for the parallel fleet fan-out in `ServeEngine::run_on`.
//!
//! The serve event loop fans independent device timelines out on the
//! thread pool; these tests pin the two properties that make that
//! safe to ship:
//!
//! 1. **Byte identity under oversubscription** — a fleet much wider than the
//!    pool (64 devices on 4 workers) produces a `ServeReport` byte-identical
//!    to the serial (`--threads 1`) loop, for exclusive, concurrent,
//!    preemptive and deadline-aware policies alike.
//! 2. **Panic containment** — a policy that panics inside a device worker
//!    surfaces as `SimError::WorkerPanic`, not a hang or a poisoned pool.
//! 3. **Schedule-independent `cache_hit` telemetry** — the flag reports the
//!    prologue's warmth snapshot, never which device won an intra-run
//!    compile race (the flake that motivated the snapshot: identical
//!    devices sharing one model raced, and the winner/loser assignment of
//!    miss/hit flipped between serial and parallel runs).

use flashmem_core::pool::ThreadPool;
use flashmem_core::FlashMemConfig;
use flashmem_gpu_sim::{DeviceSpec, SimError};
use flashmem_serve::{
    ArrivalPattern, EdfPolicy, FifoPolicy, OverloadControl, PendingEntry, PolicyContext,
    PreemptivePriorityPolicy, PriorityPolicy, SchedulePolicy, ServeEngine, ServeRequest,
    WorkloadSpec,
};

/// A fleet of `size` devices cycling the evaluated presets, like the bench's
/// serving fleet.
fn fleet(size: usize) -> Vec<DeviceSpec> {
    let presets = [
        DeviceSpec::oneplus_12(),
        DeviceSpec::galaxy_tab_s9(),
        DeviceSpec::radeon_780m_laptop(),
        DeviceSpec::pixel_8(),
    ];
    (0..size)
        .map(|i| presets[i % presets.len()].clone())
        .collect()
}

fn workload(requests: usize, seed: u64) -> Vec<ServeRequest> {
    WorkloadSpec {
        pattern: ArrivalPattern::Bursty {
            burst_size: 8,
            gap_ms: 900.0,
        },
        requests,
        tenants: 4,
        priority_levels: 3,
        seed,
    }
    .generate(&[
        flashmem_graph::ModelZoo::gptneo_small(),
        flashmem_graph::ModelZoo::vit(),
    ])
}

fn engine(devices: usize, policy: Box<dyn SchedulePolicy>) -> ServeEngine {
    ServeEngine::new(fleet(devices), FlashMemConfig::memory_priority())
        .with_policy(policy)
        .with_tenant_slo("tenant-0", 900.0)
        .with_tenant_slo("tenant-1", 2_500.0)
}

/// 64 devices on a 4-thread pool: every worker serves many timelines, steal
/// order is nondeterministic, and the merged report must not care.
#[test]
fn oversubscribed_fleet_matches_serial_byte_for_byte() {
    let requests = workload(128, 0xF1EE_7001);
    let serial = engine(64, Box::new(FifoPolicy))
        .run_on(&ThreadPool::with_threads(1), &requests)
        .expect("serial fleet run succeeds");
    let parallel = engine(64, Box::new(FifoPolicy))
        .run_on(&ThreadPool::with_threads(4), &requests)
        .expect("parallel fleet run succeeds");
    // Round-robin placement over 64 devices with 128 requests: every device
    // actually served work, so the fan-out was exercised end to end.
    assert_eq!(parallel.devices.len(), 64);
    assert!(parallel.devices.iter().all(|d| d.requests == 2));
    assert_eq!(parallel.completed(), 128);
    // Byte identity of the full report, cache counters included (in-flight
    // compile dedup makes the hit/miss totals schedule-independent).
    assert_eq!(format!("{serial:?}"), format!("{parallel:?}"));
}

/// The same identity across the policy spectrum the quick sweep covers:
/// concurrent slots, preemption and deadline-aware admission all run their
/// whole decision loop inside a worker.
#[test]
fn every_policy_kind_is_byte_identical_across_pool_widths() {
    let requests = workload(24, 0xF1EE_7002);
    type PolicyMaker = fn() -> Box<dyn SchedulePolicy>;
    let policies: Vec<(&str, PolicyMaker)> = vec![
        ("priority", || {
            Box::new(PriorityPolicy::with_max_in_flight(2))
        }),
        ("preemptive", || Box::new(PreemptivePriorityPolicy::new())),
        ("edf", || Box::new(EdfPolicy::with_max_in_flight(2))),
    ];
    for (name, make) in policies {
        let serial = engine(6, make())
            .run_on(&ThreadPool::with_threads(1), &requests)
            .expect("serial fleet run succeeds");
        let parallel = engine(6, make())
            .run_on(&ThreadPool::with_threads(3), &requests)
            .expect("parallel fleet run succeeds");
        assert_eq!(
            format!("{serial:?}"),
            format!("{parallel:?}"),
            "policy `{name}` diverged across pool widths"
        );
    }
}

/// Four identical devices racing to compile the same two models: on a cold
/// cache every outcome must report `cache_hit: false` no matter which device
/// compiled first, and a second run through the same (now warm) engine must
/// report `cache_hit: true` everywhere. This is the determinism regression
/// behind the prologue warmth snapshot — with the racy `compile()` flag, the
/// cold run's hit/miss split depended on worker scheduling.
#[test]
fn cache_hit_reports_warmth_at_run_start_not_a_compile_race() {
    let requests = workload(16, 0xF1EE_7004);
    let engine = ServeEngine::new(
        vec![DeviceSpec::oneplus_12(); 4],
        FlashMemConfig::memory_priority(),
    );
    let pool = ThreadPool::with_threads(4);
    let cold = engine
        .run_on(&pool, &requests)
        .expect("cold fleet run succeeds");
    assert!(
        cold.outcomes.iter().all(|o| !o.cache_hit),
        "a cold cache has no warm plans, whichever device compiles first"
    );
    let warm = engine
        .run_on(&pool, &requests)
        .expect("warm fleet run succeeds");
    assert!(
        warm.outcomes.iter().all(|o| o.cache_hit),
        "every plan was compiled (and so warm) before the second run began"
    );
}

/// A policy that funnels every request onto device 0, leaving the rest of
/// the fleet idle — the pile-up the steal phase exists to drain.
struct HotspotPolicy;

impl SchedulePolicy for HotspotPolicy {
    fn name(&self) -> &'static str {
        "hotspot"
    }

    fn place(&self, _request: &ServeRequest, _seq: usize, _fleet_len: usize) -> usize {
        0
    }

    fn pick(&self, candidates: &[PendingEntry], _ctx: &PolicyContext) -> usize {
        candidates
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| {
                a.arrival_ms
                    .partial_cmp(&b.arrival_ms)
                    .expect("arrivals are finite")
                    .then(a.seq.cmp(&b.seq))
            })
            .map(|(i, _)| i)
            .expect("pick called with candidates")
    }
}

/// The steal phase moves queued work off a backed-up device — and because
/// the plan is committed in the sequential prologue, the resulting report
/// (which requests moved, where, and every downstream timestamp) is
/// byte-identical between the serial loop and a 4-thread pool.
#[test]
fn steal_phase_is_byte_identical_across_pool_widths() {
    let requests = workload(32, 0xF1EE_7005);
    let steal_engine = || {
        ServeEngine::new(fleet(4), FlashMemConfig::memory_priority())
            .with_policy(Box::new(HotspotPolicy))
            .with_overload_control(OverloadControl::disabled().with_steal())
    };
    let serial = steal_engine()
        .run_on(&ThreadPool::with_threads(1), &requests)
        .expect("serial steal run succeeds");
    let parallel = steal_engine()
        .run_on(&ThreadPool::with_threads(4), &requests)
        .expect("parallel steal run succeeds");
    // Every request was placed on device 0, so any work elsewhere was
    // stolen there by the prologue's re-placement plan.
    assert!(
        parallel.stolen() > 0,
        "a single-device pile-up must trigger the steal phase"
    );
    assert!(
        parallel.devices[1..].iter().any(|d| d.requests > 0),
        "stolen work lands on the idle devices"
    );
    assert_eq!(format!("{serial:?}"), format!("{parallel:?}"));
}

/// A policy that places fine but panics the first time a device tries to
/// admit work — i.e. the panic fires *inside* `run_device` on a pool worker.
struct PanickingPolicy;

impl SchedulePolicy for PanickingPolicy {
    fn name(&self) -> &'static str {
        "panicky"
    }

    fn place(&self, _request: &ServeRequest, seq: usize, fleet_len: usize) -> usize {
        seq % fleet_len.max(1)
    }

    fn pick(&self, _candidates: &[PendingEntry], _ctx: &PolicyContext) -> usize {
        panic!("policy exploded while picking");
    }
}

#[test]
fn panicking_policy_surfaces_as_error_not_hang() {
    let requests = workload(8, 0xF1EE_7003);
    let result =
        engine(4, Box::new(PanickingPolicy)).run_on(&ThreadPool::with_threads(4), &requests);
    match result {
        Err(SimError::WorkerPanic { message }) => {
            assert!(message.contains("policy exploded"), "{message}");
        }
        other => panic!("expected WorkerPanic, got {other:?}"),
    }
}

#[test]
fn injected_faults_take_the_outcome_path_while_real_panics_still_propagate() {
    // Regression pin for the fault/panic split: an *injected* device loss
    // must never ride the `WorkerPanic` error path — it becomes per-device
    // outcomes — while a genuine panic inside a chaos-round worker still
    // propagates as `WorkerPanic` by submission index.
    let requests = workload(8, 0xF1EE_7004);
    let injected = engine(4, Box::new(FifoPolicy))
        .with_fault_plan(flashmem_serve::FaultPlan::seeded(1).with_device_loss(0, 100.0))
        .run_on(&ThreadPool::with_threads(4), &requests)
        .expect("injected device loss is a per-request disposition, not an engine error");
    assert_eq!(injected.outcomes.len(), requests.len());
    assert!(
        injected.outcomes.iter().any(|o| o.error.is_some()),
        "loss at 100 ms strands some requests"
    );

    let panicked = engine(4, Box::new(PanickingPolicy))
        .with_fault_plan(flashmem_serve::FaultPlan::seeded(1).with_flaky_device(1, 0.2))
        .run_on(&ThreadPool::with_threads(4), &requests);
    match panicked {
        Err(SimError::WorkerPanic { message }) => {
            assert!(message.contains("policy exploded"), "{message}");
        }
        other => panic!("expected WorkerPanic from the chaos path, got {other:?}"),
    }
}
