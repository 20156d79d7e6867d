//! Property-style tests for the simulator substrate: memory accounting,
//! trace statistics, bandwidth monotonicity and command-stream scheduling
//! invariants must hold for arbitrary (valid) inputs, not just the scenarios
//! exercised by the unit tests.
//!
//! The random instances come from a seeded [`SplitMix64`] sweep instead of
//! proptest (unavailable offline), so every run exercises the same corpus.

use flashmem_gpu_sim::bandwidth::{BandwidthModel, MemoryTier};
use flashmem_gpu_sim::engine::{Command, CommandStream, GpuSimulator, SimConfig};
use flashmem_gpu_sim::kernel::{KernelCategory, KernelCostModel, KernelDesc, LaunchDims};
use flashmem_gpu_sim::memory::MemoryTracker;
use flashmem_gpu_sim::rng::SplitMix64;
use flashmem_gpu_sim::trace::MemoryTrace;
use flashmem_gpu_sim::DeviceSpec;

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
