//! A cold compile-and-run does each piece of work once: the timeline's
//! overlap sum skips pairs that cannot overlap, the cost model prices a
//! kernel's roofline once per capacity bisection, and `FlashMem::compile`
//! plans from the capacities adaptive fusion returns instead of profiling
//! the refined plan again. Each test here checks one of them against the
//! straightforward algorithm it replaced, bit for bit.

use flashmem::core::StreamingExecutor;
use flashmem::gpu_sim::cache::AccessPattern;
use flashmem::gpu_sim::kernel::KernelCostModel;
use flashmem::gpu_sim::texture::WeightLayout;
use flashmem::gpu_sim::trace::{EventKind, ExecutionEvent, Timeline};
use flashmem::gpu_sim::{KernelCategory, KernelDesc, LaunchDims, SplitMix64};
use flashmem::graph::ModelSpec;
use flashmem::prelude::*;

/// The pairwise overlap sum: every kernel against every transfer or
/// transform, in event order.
fn pairwise_overlap_fraction(timeline: &Timeline) -> f64 {
    let makespan = timeline.makespan_ms();
    if makespan <= 0.0 {
        return 0.0;
    }
    let events = timeline.events();
    let compute: Vec<(f64, f64)> = events
        .iter()
        .filter(|e| e.kind == EventKind::Kernel)
        .map(|e| (e.start_ms, e.end_ms))
        .collect();
    let transfer: Vec<(f64, f64)> = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Transfer | EventKind::Transform))
        .map(|e| (e.start_ms, e.end_ms))
        .collect();
    let mut overlap = 0.0;
    for &(cs, ce) in &compute {
        for &(ts, te) in &transfer {
            let s = cs.max(ts);
            let e = ce.min(te);
            if e > s {
                overlap += e - s;
            }
        }
    }
    (overlap / makespan).min(1.0)
}

/// Up to 48 events of every kind in random order. Half the timelines draw
/// times from a half-millisecond grid, where coincident, touching and
/// zero-length intervals are common; the rest draw them continuously.
fn random_timeline(rng: &mut SplitMix64) -> Timeline {
    let mut timeline = Timeline::new();
    let grid = rng.gen_f64() < 0.5;
    for command in 0..rng.gen_range_inclusive(0, 48) as usize {
        let kind = match rng.gen_range_inclusive(0, 3) {
            0 => EventKind::Kernel,
            1 => EventKind::Transfer,
            2 => EventKind::Transform,
            _ => EventKind::Overhead,
        };
        let (start_ms, length_ms) = if grid {
            (
                rng.gen_range_inclusive(0, 12) as f64 * 0.5,
                rng.gen_range_inclusive(0, 6) as f64 * 0.5,
            )
        } else {
            (rng.gen_f64() * 100.0, rng.gen_f64() * 20.0)
        };
        timeline.push(ExecutionEvent {
            command,
            kind,
            start_ms,
            end_ms: start_ms + length_ms,
            bytes: 0,
        });
    }
    timeline
}

#[test]
fn overlap_fraction_matches_the_pairwise_sum_bit_for_bit() {
    let mut rng = SplitMix64::seed_from_u64(0x0FE2_1A95);
    for case in 0..12_000 {
        let timeline = random_timeline(&mut rng);
        assert_eq!(
            timeline.overlap_fraction().to_bits(),
            pairwise_overlap_fraction(&timeline).to_bits(),
            "random timeline {case}: {:?}",
            timeline.events()
        );
    }

    // The solo runs of the plan_cold benchmark's ten cells.
    let models = [
        ModelZoo::gptneo_small(),
        ModelZoo::vit(),
        ModelZoo::resnet50(),
        ModelZoo::depth_anything_small(),
        ModelZoo::whisper_medium(),
    ];
    let cells: Vec<(ModelSpec, DeviceSpec)> = models
        .iter()
        .flat_map(|m| [DeviceSpec::oneplus_12(), DeviceSpec::pixel_8()].map(|d| (m.clone(), d)))
        .collect();
    let checked = ThreadPool::new().parallel_map(cells, |(model, device)| {
        let runtime = FlashMem::new(device.clone()).with_config(FlashMemConfig::memory_priority());
        let compiled = runtime.compile(model.graph());
        let outcome = StreamingExecutor::for_kernel_rewriting(device.clone(), true)
            .execute(model.graph(), &compiled.fusion, &compiled.plan)
            .expect("the plan_cold cells run");
        let timeline = outcome.timeline;
        assert_eq!(
            timeline.overlap_fraction().to_bits(),
            pairwise_overlap_fraction(&timeline).to_bits(),
            "{} on {}",
            model.abbr,
            device.name
        );
    });
    assert_eq!(checked.len(), 10);
}

/// The capacity bisection as it read when every probe priced the whole
/// latency model twice through the public calls.
fn bisected_max_extra_load_bytes(cost: &KernelCostModel, k: &KernelDesc, max_penalty: f64) -> u64 {
    let penalty = |extra: u64| {
        let base = cost.latency_ms(k);
        if base <= 0.0 {
            return 0.0;
        }
        cost.latency_with_extra_load_ms(k, extra) / base - 1.0
    };
    if max_penalty <= 0.0 {
        return 0;
    }
    let mut lo = 0u64;
    let mut hi = k.total_bytes().max(1) * 16;
    if penalty(hi) <= max_penalty {
        return hi;
    }
    while hi - lo > 1024 {
        let mid = lo + (hi - lo) / 2;
        if penalty(mid) <= max_penalty {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

fn random_kernel(rng: &mut SplitMix64, index: usize) -> KernelDesc {
    let category = [
        KernelCategory::Elemental,
        KernelCategory::Reusable,
        KernelCategory::Hierarchical,
    ][rng.gen_range_inclusive(0, 2) as usize];
    let flops = if rng.gen_f64() < 0.1 {
        0.0
    } else {
        rng.gen_f64() * 1.0e11
    };
    let layout = [
        WeightLayout::LinearBuffer,
        WeightLayout::Texture2p5d,
        WeightLayout::Texture2p5dOptimized,
    ][rng.gen_range_inclusive(0, 2) as usize];
    let pattern = match rng.gen_range_inclusive(0, 3) {
        0 => AccessPattern::RowStreaming,
        1 => AccessPattern::Tiled2d,
        2 => AccessPattern::Strided {
            stride_texels: rng.gen_range_inclusive(1, 4096),
        },
        _ => AccessPattern::Random,
    };
    let mut dims = || {
        [
            rng.gen_range_inclusive(0, 2048),
            rng.gen_range_inclusive(0, 64),
            rng.gen_range_inclusive(0, 4),
        ]
    };
    let launch = LaunchDims::new(dims(), dims());
    KernelDesc::new(
        &format!("k{index}"),
        category,
        flops,
        rng.gen_range_inclusive(0, 1 << 28),
        rng.gen_range_inclusive(0, 1 << 26),
    )
    .with_launch(launch)
    .with_weight_layout(layout)
    .with_access_pattern(pattern)
    .with_fp16(rng.gen_f64() < 0.7)
    .with_divergence_penalty(rng.gen_f64() * 0.5)
    .pipelined(rng.gen_f64() < 0.5)
}

#[test]
fn max_extra_load_bytes_matches_a_bisection_on_the_latency_model() {
    let mut rng = SplitMix64::seed_from_u64(0xCA9A_C17E);
    for device in DeviceSpec::all_evaluated() {
        let cost = KernelCostModel::new(device.clone());
        for index in 0..300 {
            let kernel = random_kernel(&mut rng, index);
            // The class thresholds of Figure 2, none, and random budgets.
            for max_penalty in [0.0, 0.2, 3.0, rng.gen_f64() * 5.0 - 0.5] {
                assert_eq!(
                    cost.max_extra_load_bytes(&kernel, max_penalty),
                    bisected_max_extra_load_bytes(&cost, &kernel, max_penalty),
                    "{} at {max_penalty}: {kernel:?}",
                    device.name
                );
            }
            let extra = rng.gen_range_inclusive(0, kernel.total_bytes().max(1) * 16);
            let base = cost.latency_ms(&kernel);
            assert!(base > 0.0);
            let reference = cost.latency_with_extra_load_ms(&kernel, extra) / base - 1.0;
            assert_eq!(
                cost.overlap_penalty(&kernel, extra).to_bits(),
                reference.to_bits(),
                "{} with {extra} extra bytes: {kernel:?}",
                device.name
            );
        }
    }
}

#[test]
fn compile_plans_from_the_capacities_a_fresh_profile_gives() {
    let presets = [
        FlashMemConfig::memory_priority(),
        FlashMemConfig::balanced(),
        FlashMemConfig::latency_priority(),
    ];
    let mut cells = Vec::new();
    for model in ModelZoo::all_evaluated() {
        for device in DeviceSpec::all_evaluated() {
            for config in &presets {
                cells.push((model.clone(), device.clone(), config.clone()));
            }
        }
    }
    assert_eq!(cells.len(), 231);

    let mismatches: Vec<String> = ThreadPool::new()
        .parallel_map(cells, |(model, device, config)| {
            let runtime = FlashMem::new(device.clone()).with_config(config);
            let (fusion, report, capacities) = runtime.fuse_and_profile(model.graph());
            assert!(report.is_some());
            let fresh = CapacityProfiler::new(device.clone())
                .with_options(runtime.rewriter().lowering_options())
                .capacities(model.graph(), &fusion);
            let same = capacities.len() == fresh.len()
                && capacities.iter().zip(&fresh).all(|(got, want)| {
                    got.kernel_index == want.kernel_index
                        && got.capacity_bytes == want.capacity_bytes
                        && got.baseline_latency_ms.to_bits() == want.baseline_latency_ms.to_bits()
                });
            (!same).then(|| format!("{} on {}", model.abbr, device.name))
        })
        .into_iter()
        .flatten()
        .collect();
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
