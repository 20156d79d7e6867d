//! A cold compile-and-run does each piece of work once: the timeline's
//! overlap sum skips pairs that cannot overlap, the cost model prices a
//! kernel's roofline once per capacity bisection, and `FlashMem::compile`
//! plans from the capacities adaptive fusion returns instead of profiling
//! the refined plan again. A served request's phase attribution sums its
//! command intervals without re-sorting lists that are already in start
//! order, and a serving device prices each lowered stream once instead of
//! pricing every command as it steps. Each test here checks one of them
//! against the straightforward algorithm it replaced, bit for bit.

use std::sync::Arc;

use flashmem::core::{lower_artifact, StreamingExecutor};
use flashmem::gpu_sim::cache::AccessPattern;
use flashmem::gpu_sim::engine::{CommandStream, QueueClocks, StreamStepper};
use flashmem::gpu_sim::kernel::KernelCostModel;
use flashmem::gpu_sim::texture::WeightLayout;
use flashmem::gpu_sim::trace::{EventKind, ExecutionEvent, Timeline};
use flashmem::gpu_sim::{KernelCategory, KernelDesc, LaunchDims, SplitMix64};
use flashmem::graph::ModelSpec;
use flashmem::prelude::*;
use flashmem::trace::{interval_overlap_ms, interval_union_ms};

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

/// The interval union as it read when every call copied and sorted its
/// list.
fn sorted_union_ms(intervals: &[(f64, f64)]) -> f64 {
    let mut sorted: Vec<(f64, f64)> = intervals.iter().copied().filter(|(s, e)| e > s).collect();
    sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cursor = f64::NEG_INFINITY;
    for (s, e) in sorted {
        let s = s.max(cursor);
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// The overlap as it read when it sorted the concatenation of both lists.
fn sorted_overlap_ms(a: &[(f64, f64)], b: &[(f64, f64)]) -> f64 {
    let mut both: Vec<(f64, f64)> = Vec::with_capacity(a.len() + b.len());
    both.extend_from_slice(a);
    both.extend_from_slice(b);
    sorted_union_ms(a) + sorted_union_ms(b) - sorted_union_ms(&both)
}

/// One queue's intervals in start order, back to back with random gaps
/// (none when `touching`), from `origin`. Times come from a quarter-
/// millisecond grid when `grid` (so ties and touching ends are common) and
/// are continuous otherwise.
fn queue_run(rng: &mut SplitMix64, len: usize, origin: f64, grid: bool) -> Vec<(f64, f64)> {
    let mut draw = |scale: f64| {
        if grid {
            rng.gen_range_inclusive(0, 8) as f64 * 0.25
        } else {
            rng.gen_f64() * scale
        }
    };
    let mut at = origin;
    let mut run = Vec::with_capacity(len);
    for _ in 0..len {
        at += draw(2.0);
        let end = at + draw(5.0);
        run.push((at, end));
        at = end;
    }
    run
}

/// A random interval list of one of the shapes phase attribution meets or
/// could meet: one queue in start order, the same reversed, two sorted runs
/// (a failover restarts the stream clock on another device), overlapping
/// intervals in start order, or any order. Some members are then made
/// zero-length, reversed, negatively zero or NaN, and some starts repeat.
/// Some lists start at +0 then −0, which only the total order puts out of
/// start order.
fn interval_list(rng: &mut SplitMix64) -> Vec<(f64, f64)> {
    let grid = rng.gen_f64() < 0.5;
    let len = rng.gen_range_inclusive(0, 24) as usize;
    let mut list = match rng.gen_range_inclusive(0, 4) {
        0 => queue_run(rng, len, 0.0, grid),
        1 => {
            let mut run = queue_run(rng, len, 0.0, grid);
            run.reverse();
            run
        }
        2 => {
            let first = len / 2;
            let mut runs = queue_run(rng, first, 10.0, grid);
            let restart = rng.gen_f64() * 12.0;
            runs.extend(queue_run(rng, len - first, restart, grid));
            runs
        }
        3 => {
            let mut at = 0.0;
            (0..len)
                .map(|_| {
                    at += rng.gen_range_inclusive(0, 3) as f64 * 0.5;
                    (at, at + rng.gen_range_inclusive(0, 8) as f64 * 0.5)
                })
                .collect()
        }
        _ => (0..len)
            .map(|_| {
                let start = rng.gen_f64() * 40.0;
                (start, start + rng.gen_f64() * 6.0)
            })
            .collect(),
    };
    for i in 0..list.len() {
        match rng.gen_range_inclusive(0, 29) {
            0 => list[i].1 = list[i].0,
            1 => list[i] = (list[i].1, list[i].0),
            2 if i > 0 => list[i].0 = list[i - 1].0,
            3 => list[i].0 = -0.0,
            4 if rng.gen_f64() < 0.2 => list[i].1 = f64::NAN,
            _ => {}
        }
    }
    if rng.gen_f64() < 0.1 {
        let zeros = [(0.0, rng.gen_f64() * 5.0), (-0.0, rng.gen_f64() * 5.0)];
        list.splice(0..0, zeros);
    }
    list
}

#[test]
fn interval_sums_match_the_sorting_algorithm_bit_for_bit() {
    let bits = |(union_a, union_b, overlap): (f64, f64, f64)| {
        (union_a.to_bits(), union_b.to_bits(), overlap.to_bits())
    };
    let mut rng = SplitMix64::seed_from_u64(0x5EED_1A7E);
    let in_start_order = |list: &[(f64, f64)]| {
        let starts: Vec<f64> = list.iter().filter(|(s, e)| e > s).map(|x| x.0).collect();
        starts.windows(2).all(|w| w[0].total_cmp(&w[1]).is_le())
    };
    let (mut tied_across, mut sorted_pairs, mut unsorted_pairs) = (0, 0, 0);
    for case in 0..12_000 {
        let a = interval_list(&mut rng);
        // Half the second lists start where the first list's members do,
        // so ties across the two lists are common.
        let b = if rng.gen_f64() < 0.5 {
            a.iter()
                .map(|&(s, _)| (s, s + rng.gen_range_inclusive(0, 6) as f64 * 0.5))
                .collect()
        } else {
            interval_list(&mut rng)
        };
        tied_across += usize::from(a.iter().any(|x| b.iter().any(|y| x.0 == y.0)));
        match (in_start_order(&a), in_start_order(&b)) {
            (true, true) => sorted_pairs += 1,
            (false, false) => unsorted_pairs += 1,
            _ => {}
        }
        let got = (
            interval_union_ms(&a),
            interval_union_ms(&b),
            interval_overlap_ms(&a, &b),
        );
        let want = (
            sorted_union_ms(&a),
            sorted_union_ms(&b),
            sorted_overlap_ms(&a, &b),
        );
        assert_eq!(bits(got), bits(want), "case {case}: a {a:?}, b {b:?}");
        assert_eq!(
            interval_overlap_ms(&b, &a).to_bits(),
            sorted_overlap_ms(&b, &a).to_bits(),
            "case {case} swapped: a {a:?}, b {b:?}"
        );

        let latency = rng.gen_f64() * 200.0;
        let phases = PhaseBreakdown::attribute(latency, 1.5, 0.25, 3.0, &a, &b);
        let compute_ms = sorted_union_ms(&b);
        let transfer_ms = sorted_union_ms(&a) - sorted_overlap_ms(&a, &b);
        let stall_ms = latency - 1.5 - 0.25 - 3.0 - transfer_ms - compute_ms;
        assert_eq!(
            [phases.compute_ms, phases.transfer_ms, phases.stall_ms].map(f64::to_bits),
            [compute_ms, transfer_ms, stall_ms].map(f64::to_bits),
            "case {case}: a {a:?}, b {b:?}"
        );
    }
    // Every shape is common: ties across the lists, both lists already in
    // start order, and neither.
    assert!(
        tied_across > 5_000,
        "{tied_across} cases with cross-list ties"
    );
    assert!(sorted_pairs > 2_000, "{sorted_pairs} pairs in start order");
    assert!(unsorted_pairs > 2_000, "{unsorted_pairs} unsorted pairs");
}

/// One step event as bits: command, queue, start, end and bytes.
type StepBits = (usize, String, u64, u64, u64);

/// What stepping `stepper` alone on idle queues with a fresh tracker
/// gives, as bits: every step event, the error that stopped it if any, and
/// the makespan and the tracker's peak and average.
fn stepped_alone(
    mut stepper: StreamStepper,
    sim: &GpuSimulator,
    device: &DeviceSpec,
) -> (Vec<StepBits>, Option<String>, [u64; 3]) {
    let mut tracker = MemoryTracker::for_device(device);
    let mut clocks = QueueClocks::new();
    let mut events = Vec::new();
    let mut error = None;
    while !stepper.is_done() {
        match stepper.step(sim, &mut clocks, &mut tracker, 0.0) {
            Ok(Some(e)) => events.push((
                e.command,
                format!("{:?}", e.queue),
                e.start_ms.to_bits(),
                e.end_ms.to_bits(),
                e.bytes,
            )),
            Ok(None) => break,
            Err(e) => {
                error = Some(format!("{e:?}"));
                break;
            }
        }
    }
    let totals = [
        stepper.makespan_ms().to_bits(),
        tracker.peak_bytes(),
        tracker.average_bytes().to_bits(),
    ];
    (events, error, totals)
}

#[test]
fn priced_stepping_matches_per_command_pricing_on_every_golden_stream() {
    let mut cells = Vec::new();
    for model in ModelZoo::all_evaluated() {
        for device in DeviceSpec::all_evaluated() {
            cells.push((model.clone(), device));
        }
    }
    assert_eq!(cells.len(), 77);

    let mismatches: Vec<String> = ThreadPool::new()
        .parallel_map(cells, |(model, device)| {
            let config = FlashMemConfig::memory_priority();
            let compiled = FlashMem::new(device.clone())
                .with_config(config.clone())
                .compile(model.graph());
            let stream: Arc<CommandStream> = Arc::new(lower_artifact(
                &CompiledArtifact::Streaming(compiled),
                &model,
                &device,
                &config,
            ));
            let sim = GpuSimulator::new(device.clone(), SimConfig::default());
            let prices = sim.price(&stream).expect("a lowered stream prices");
            let stepper = || StreamStepper::new(Arc::clone(&stream)).unwrap();
            let unpriced = stepped_alone(stepper(), &sim, &device);
            let priced = stepped_alone(stepper().with_prices(prices).unwrap(), &sim, &device);
            assert!(!unpriced.0.is_empty());
            (priced != unpriced).then(|| format!("{} on {}", model.abbr, device.name))
        })
        .into_iter()
        .flatten()
        .collect();
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
