//! Property-style tests for the simulator substrate: memory accounting,
//! trace statistics, bandwidth monotonicity and command-stream scheduling
//! invariants must hold for arbitrary (valid) inputs, not just the scenarios
//! exercised by the unit tests.
//!
//! The random instances come from a seeded [`SplitMix64`] sweep instead of
//! proptest (unavailable offline), so every run exercises the same corpus.

use std::collections::BTreeMap;

use flashmem_gpu_sim::bandwidth::{BandwidthModel, MemoryTier};
use flashmem_gpu_sim::engine::{
    Command, CommandKind, CommandStream, GpuSimulator, PreemptionCost, QueueClocks, SimConfig,
    StreamStepper,
};
use flashmem_gpu_sim::kernel::{KernelCategory, KernelCostModel, KernelDesc, LaunchDims};
use flashmem_gpu_sim::memory::MemoryTracker;
use flashmem_gpu_sim::rng::SplitMix64;
use flashmem_gpu_sim::trace::MemoryTrace;
use flashmem_gpu_sim::{DeviceSpec, SimError};

const CASES: usize = 64;

fn category(rng: &mut SplitMix64) -> KernelCategory {
    match rng.gen_range_inclusive(0, 2) {
        0 => KernelCategory::Elemental,
        1 => KernelCategory::Reusable,
        _ => KernelCategory::Hierarchical,
    }
}

#[test]
fn trace_peak_bounds_average() {
    let mut rng = SplitMix64::seed_from_u64(11);
    for _ in 0..CASES {
        let samples: Vec<(f64, u64)> = (0..rng.gen_range_inclusive(1, 39))
            .map(|_| (rng.gen_f64() * 1e6, rng.next_u64() >> 32))
            .collect();
        let mut trace = MemoryTrace::new();
        let mut sorted = samples.clone();
        sorted.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        for (t, bytes) in &sorted {
            trace.record(*t, *bytes);
        }
        let peak = trace.peak_bytes();
        let avg = trace.average_bytes();
        assert!(avg <= peak as f64 + 1e-6);
        assert!(peak <= sorted.iter().map(|(_, b)| *b).max().unwrap());
        // Resampling never exceeds the peak either.
        for s in trace.resample(16) {
            assert!(s.bytes <= peak);
        }
    }
}

#[test]
fn transfer_time_is_monotone_in_bytes() {
    let mut rng = SplitMix64::seed_from_u64(12);
    let model = BandwidthModel::new(DeviceSpec::oneplus_12());
    for _ in 0..CASES {
        let a = rng.next_u64() >> 34; // < 1 GiB
        let b = rng.next_u64() >> 34;
        let (small, large) = if a <= b { (a, b) } else { (b, a) };
        let t_small = model
            .transfer_time_ms(small, MemoryTier::Disk, MemoryTier::UnifiedMemory)
            .unwrap();
        let t_large = model
            .transfer_time_ms(large, MemoryTier::Disk, MemoryTier::UnifiedMemory)
            .unwrap();
        assert!(t_small <= t_large + 1e-9, "{small} vs {large}");
    }
}

#[test]
fn kernel_latency_positive_and_monotone_in_extra_load() {
    let mut rng = SplitMix64::seed_from_u64(13);
    let cost = KernelCostModel::new(DeviceSpec::oneplus_12());
    for _ in 0..CASES {
        let category = category(&mut rng);
        let flops = 1.0e6 + rng.gen_f64() * (1.0e11 - 1.0e6);
        let bytes_in = rng.gen_range_inclusive(1, (1 << 27) - 1);
        let bytes_out = rng.gen_range_inclusive(1, (1 << 26) - 1);
        let extra = rng.gen_range_inclusive(0, (1 << 27) - 1);
        let kernel = KernelDesc::new("k", category, flops, bytes_in, bytes_out)
            .with_launch(LaunchDims::new([4096, 1, 1], [64, 1, 1]));
        let base = cost.latency_ms(&kernel);
        let loaded = cost.latency_with_extra_load_ms(&kernel, extra);
        assert!(base > 0.0);
        assert!(loaded >= base - 1e-9);
        // Capacity bisections respect their own threshold.
        let cap = cost.max_extra_load_bytes(&kernel, 0.2);
        if cap > 0 {
            assert!(cost.overlap_penalty(&kernel, cap) <= 0.21);
        }
    }
}

#[test]
fn memory_tracker_never_goes_negative_and_respects_budget() {
    let mut rng = SplitMix64::seed_from_u64(14);
    for _ in 0..CASES {
        let budget = 1u64 << 28;
        let mut tracker = MemoryTracker::new(budget, budget, budget);
        let mut live: Vec<(flashmem_gpu_sim::memory::AllocationId, bool)> = Vec::new();
        let mut clock = 0.0;
        for _ in 0..rng.gen_range_inclusive(1, 59) {
            let bytes = rng.gen_range_inclusive(0, (1 << 24) - 1);
            let use_texture = rng.gen_range_inclusive(0, 1) == 1;
            clock += 1.0;
            let tier = if use_texture {
                MemoryTier::TextureMemory
            } else {
                MemoryTier::UnifiedMemory
            };
            match tracker.allocate(tier, bytes, clock) {
                Ok(id) => live.push((id, use_texture)),
                Err(_) => {
                    // Over budget: free everything and continue.
                    for (id, tex) in live.drain(..) {
                        let tier = if tex {
                            MemoryTier::TextureMemory
                        } else {
                            MemoryTier::UnifiedMemory
                        };
                        tracker.free(tier, id, clock).unwrap();
                    }
                }
            }
            assert!(tracker.total_in_use() <= budget);
        }
        assert!(tracker.peak_bytes() <= budget);
        assert!(tracker.average_bytes() <= tracker.peak_bytes() as f64 + 1e-6);
    }
}

#[test]
fn command_streams_schedule_without_time_travel() {
    let mut rng = SplitMix64::seed_from_u64(15);
    for _ in 0..CASES {
        let kernel_count = rng.gen_range_inclusive(1, 19) as usize;
        let transfer_bytes = rng.gen_range_inclusive(1, (1 << 26) - 1);
        let mut stream = CommandStream::new();
        let mut prev: Option<usize> = None;
        for i in 0..kernel_count {
            let deps: Vec<usize> = prev.into_iter().collect();
            let load = stream.push(Command::transfer(
                format!("t{i}"),
                transfer_bytes,
                MemoryTier::Disk,
                MemoryTier::UnifiedMemory,
                deps,
            ));
            let kernel = KernelDesc::new(
                &format!("k{i}"),
                KernelCategory::Reusable,
                1.0e8,
                1 << 20,
                1 << 20,
            );
            prev = Some(stream.push(Command::kernel(format!("k{i}"), kernel, 0, [load])));
        }
        let mut sim = GpuSimulator::new(DeviceSpec::oneplus_12(), SimConfig::default());
        let outcome = sim.execute(stream).unwrap();
        // Every event respects causality and the makespan covers all events.
        for event in outcome.timeline.events() {
            assert!(event.end_ms >= event.start_ms);
            assert!(event.end_ms <= outcome.total_time_ms + 1e-9);
        }
        // Kernels are serialized on the compute queue in emission order.
        let kernel_events: Vec<_> = outcome
            .timeline
            .events()
            .iter()
            .filter(|e| matches!(e.kind, flashmem_gpu_sim::trace::EventKind::Kernel))
            .collect();
        for pair in kernel_events.windows(2) {
            assert!(pair[1].start_ms >= pair[0].end_ms - 1e-9);
        }
    }
}

/// A random valid stream: allocations in both tiers, frees of live
/// allocations, transfers, kernels and barriers, each depending on up to
/// three earlier commands.
fn random_stream(rng: &mut SplitMix64) -> CommandStream {
    let mut stream = CommandStream::new();
    let mut live: Vec<usize> = Vec::new();
    for idx in 0..rng.gen_range_inclusive(1, 40) as usize {
        let mut deps: Vec<usize> = (0..rng.gen_range_inclusive(0, 3))
            .filter(|_| idx > 0)
            .map(|_| rng.gen_range_inclusive(0, idx as u64 - 1) as usize)
            .collect();
        let bytes = rng.gen_range_inclusive(0, (1 << 24) - 1);
        let command = match rng.gen_range_inclusive(0, 5) {
            0 | 1 => {
                live.push(idx);
                let tier = if rng.gen_range_inclusive(0, 1) == 0 {
                    MemoryTier::UnifiedMemory
                } else {
                    MemoryTier::TextureMemory
                };
                Command::alloc(tier, bytes, deps)
            }
            2 if !live.is_empty() => {
                let alloc =
                    live.swap_remove(rng.gen_range_inclusive(0, live.len() as u64 - 1) as usize);
                deps.push(alloc);
                Command::free(alloc, deps)
            }
            3 => Command::transfer(
                format!("t{idx}"),
                bytes,
                MemoryTier::Disk,
                MemoryTier::UnifiedMemory,
                deps,
            ),
            4 => {
                let kernel = KernelDesc::new(
                    &format!("k{idx}"),
                    category(rng),
                    1.0e6 + rng.gen_f64() * 1.0e9,
                    bytes.max(1),
                    1 << 16,
                );
                Command::kernel(format!("k{idx}"), kernel, bytes / 4, deps)
            }
            _ => Command::barrier(deps),
        };
        stream.push(command);
    }
    stream
}

/// `(unified, texture)` bytes of a model of one stepper's live allocations,
/// by allocating command.
fn split_of(live: &BTreeMap<usize, (MemoryTier, u64)>) -> (u64, u64) {
    live.values()
        .fold((0, 0), |(unified, texture), &(tier, bytes)| {
            if tier == MemoryTier::TextureMemory {
                (unified, texture + bytes)
            } else {
                (unified + bytes, texture)
            }
        })
}

/// `(unified, texture)` bytes of `stepper`'s live allocations, each looked
/// up in `tracker`: how `resident_split` was computed before it kept
/// running sums.
fn looked_up_split(stepper: &StreamStepper, tracker: &MemoryTracker) -> (u64, u64) {
    let mut unified = 0;
    let mut texture = 0;
    for (_, tier, id) in stepper.live_allocations() {
        match tier {
            MemoryTier::TextureMemory => {
                texture += tracker.texture().get(id).map_or(0, |a| a.bytes);
            }
            _ => {
                unified += tracker.unified().get(id).map_or(0, |a| a.bytes);
            }
        }
    }
    (unified, texture)
}

#[test]
fn resident_split_follows_live_allocations_across_evicting_suspensions() {
    let sim = GpuSimulator::new(DeviceSpec::oneplus_12(), SimConfig::default());
    let mut rng = SplitMix64::seed_from_u64(16);
    let mut suspensions = 0;
    for case in 0..CASES {
        let budget = 1u64 << 40;
        let mut tracker = MemoryTracker::new(budget, budget, budget);
        let mut clocks = QueueClocks::new();
        // Two streams share the queues and the tracker, as in serving.
        let mut steppers =
            [(); 2].map(|_| Some(StreamStepper::new(random_stream(&mut rng)).unwrap()));
        let mut models: [BTreeMap<usize, (MemoryTier, u64)>; 2] = Default::default();
        loop {
            let open: Vec<usize> = (0..2)
                .filter(|&i| steppers[i].as_ref().is_some_and(|s| !s.is_done()))
                .collect();
            if open.is_empty() {
                break;
            }
            let i = open[rng.gen_range_inclusive(0, open.len() as u64 - 1) as usize];
            if rng.gen_range_inclusive(0, 5) == 0 {
                let now = clocks.horizon_ms();
                let stepper = steppers[i].take().unwrap();
                let suspension = stepper
                    .suspend_evicting(&clocks, &mut tracker, now, 0.0)
                    .unwrap();
                assert_eq!(
                    suspension.evicted_split(),
                    split_of(&models[i]),
                    "case {case}"
                );
                let other = steppers[1 - i].as_ref().unwrap().resident_split();
                assert_eq!(
                    (tracker.unified().in_use(), tracker.texture().in_use()),
                    other,
                    "case {case}: the suspended stream holds nothing"
                );
                let (stepper, _) = suspension
                    .resume_into(&sim, &mut tracker, now, 0.0, &PreemptionCost::free())
                    .unwrap();
                steppers[i] = Some(stepper);
                suspensions += 1;
            }
            let stepper = steppers[i].as_mut().unwrap();
            let event = stepper
                .step(&sim, &mut clocks, &mut tracker, 0.0)
                .unwrap()
                .unwrap();
            match stepper.stream().commands()[event.command].kind {
                CommandKind::Alloc { tier, bytes } => {
                    models[i].insert(event.command, (tier, bytes));
                }
                CommandKind::Free { alloc } => {
                    models[i].remove(&alloc).unwrap();
                }
                _ => {}
            }
            let splits = [0, 1].map(|j| steppers[j].as_ref().unwrap().resident_split());
            for j in 0..2 {
                assert_eq!(splits[j], split_of(&models[j]), "case {case}, stream {j}");
                let stepper = steppers[j].as_ref().unwrap();
                assert_eq!(splits[j], looked_up_split(stepper, &tracker), "case {case}");
                let live: Vec<usize> = stepper.live_allocations().map(|(c, ..)| c).collect();
                assert!(live.iter().eq(models[j].keys()), "case {case}: {live:?}");
            }
            assert_eq!(
                (tracker.unified().in_use(), tracker.texture().in_use()),
                (splits[0].0 + splits[1].0, splits[0].1 + splits[1].1),
                "case {case}"
            );
        }
    }
    assert!(suspensions > 100, "{suspensions} suspensions");
}

/// Validation as a full scan of every dependency of every command.
fn scanned_validation(stream: &CommandStream) -> Result<(), SimError> {
    for (command, cmd) in stream.commands().iter().enumerate() {
        for &dependency in &cmd.deps {
            if dependency >= stream.len() {
                return Err(SimError::UnknownDependency {
                    command,
                    dependency,
                });
            }
            if dependency >= command {
                return Err(SimError::DependencyCycle { command });
            }
        }
    }
    Ok(())
}

#[test]
fn validation_returns_the_first_error_a_full_scan_finds() {
    let mut rng = SplitMix64::seed_from_u64(17);
    let mut invalid = 0;
    for _ in 0..2_000 {
        let len = rng.gen_range_inclusive(1, 24);
        let mut stream = CommandStream::new();
        for idx in 0..len {
            // Mostly backward dependencies, with a few on the command
            // itself, on a later command or past the stream's end.
            let count = if idx == 0 {
                u64::from(rng.gen_f64() < 0.05)
            } else {
                rng.gen_range_inclusive(0, 3)
            };
            let deps: Vec<usize> = (0..count)
                .map(|_| {
                    if idx == 0 || rng.gen_f64() < 0.03 {
                        rng.gen_range_inclusive(idx, len + 2) as usize
                    } else {
                        rng.gen_range_inclusive(0, idx - 1) as usize
                    }
                })
                .collect();
            stream.push(Command::barrier(deps));
            // After every push: a dependency past the end becomes a cycle
            // once later pushes make it exist.
            let want = scanned_validation(&stream);
            assert_eq!(stream.validate(), want, "{stream:?}");
            invalid += usize::from(want.is_err());
        }
    }
    assert!(invalid > 1_000, "{invalid} invalid streams");
}
