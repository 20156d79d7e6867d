//! Exhaustive oracle for LC-OPG's closed-form window decision. On a seeded
//! corpus of random OPG weight windows, every streamed assignment is
//! enumerated under C0, C2 and C3 and scored by the window objective written
//! out below, independently of `WindowObjective`. The back-to-front fill must
//! exist exactly when some streamed assignment does and score their minimum,
//! and the closed-form decision must score the window's optimum: the better
//! of preloading and the best streamed assignment, ties going to streaming.
//!
//! The random instances come from a seeded [`SplitMix64`] sweep instead of
//! proptest (unavailable offline), so every run exercises the same corpus.

use flashmem::core::opg::{back_to_front_fill, CandidateSlot, WindowDecision, WindowObjective};
use flashmem::core::FlashMemConfig;
use flashmem_gpu_sim::rng::SplitMix64;

/// One random OPG weight window, shaped like the ones LC-OPG builds: the
/// candidates are the kernels right before the consumer.
#[derive(Debug, Clone)]
struct RandomWindow {
    consumer: usize,
    total_chunks: u64,
    slots: Vec<CandidateSlot>,
    config: FlashMemConfig,
}

/// The corpus cycles through the three presets and λ = 0; half the windows
/// start at kernel 0 (where λ = 0 makes preloading beat the fill), and half
/// draw headrooms below `T(w)` so the back-to-front fill can break C2.
fn random_windows(cases: usize) -> Vec<RandomWindow> {
    let configs = [
        FlashMemConfig::memory_priority(),
        FlashMemConfig::balanced(),
        FlashMemConfig::latency_priority(),
        FlashMemConfig::memory_priority().with_lambda(0.0),
    ];
    let mut rng = SplitMix64::seed_from_u64(0xb00d);
    (0..cases)
        .map(|case| {
            let len = rng.gen_range_inclusive(1, 6) as usize;
            let start = if rng.gen_range_inclusive(0, 1) == 0 {
                0
            } else {
                rng.gen_range_inclusive(1, 20) as usize
            };
            let total_chunks = rng.gen_range_inclusive(1, 16);
            let tight = rng.gen_range_inclusive(0, 1) == 0;
            let slots = (start..start + len)
                .map(|kernel| CandidateSlot {
                    kernel,
                    capacity_chunks: rng.gen_range_inclusive(0, 10),
                    memory_headroom_chunks: if tight {
                        rng.gen_range_inclusive(0, total_chunks)
                    } else {
                        100
                    },
                })
                .collect();
            RandomWindow {
                consumer: start + len,
                total_chunks,
                slots,
                config: configs[case % configs.len()].clone(),
            }
        })
        .collect()
}

/// The windows the OPG properties are checked on: the random corpus plus one
/// window whose first candidate has less headroom (5) than the weight has
/// chunks (12). Only the 2 chunks placed there are in flight at it, so the
/// weight streams; a fill that also charged it with the 10 chunks placed at
/// the later candidate would preload it.
fn windows_under_test() -> Vec<RandomWindow> {
    let mut windows = random_windows(1_000);
    windows.push(RandomWindow {
        consumer: 3,
        total_chunks: 12,
        slots: vec![
            CandidateSlot {
                kernel: 1,
                capacity_chunks: 5,
                memory_headroom_chunks: 5,
            },
            CandidateSlot {
                kernel: 2,
                capacity_chunks: 10,
                memory_headroom_chunks: 100,
            },
        ],
        config: FlashMemConfig::memory_priority(),
    });
    windows
}

/// Every streamed assignment of a window, as chunks per candidate: they
/// cover `T(w)` (C0), stay within each candidate's load capacity (C3), and
/// every prefix in execution order fits the headroom at its last candidate,
/// since a chunk placed at kernel `ℓ` is in flight until the consumer (C2).
fn streamed_assignments(w: &RandomWindow) -> Vec<Vec<u64>> {
    fn extend(
        slots: &[CandidateSlot],
        left: u64,
        in_flight: u64,
        prefix: &mut Vec<u64>,
        out: &mut Vec<Vec<u64>>,
    ) {
        let Some((slot, rest)) = slots.split_first() else {
            if left == 0 {
                out.push(prefix.clone());
            }
            return;
        };
        for chunks in 0..=slot.capacity_chunks.min(left) {
            if in_flight + chunks > slot.memory_headroom_chunks {
                break;
            }
            prefix.push(chunks);
            extend(rest, left - chunks, in_flight + chunks, prefix, out);
            prefix.pop();
        }
    }
    let mut out = Vec::new();
    extend(&w.slots, w.total_chunks, 0, &mut Vec::new(), &mut out);
    out
}

/// The window objective `λ·T(w)·p + (1−λ)·(i_w − z_w) + μ·Σ (i_w − 1 − ℓ)·x_ℓ`
/// in integers: `λ` in thousandths per chunk, `1 − λ` in hundredths per
/// kernel and `μ` in tenths per chunk and kernel, the first two at least 1.
/// `None` preloads (`p = 1`, `z_w = 0`). A streamed assignment has `p = 0`
/// and `z_w` at its earliest kernel holding a chunk, the latest C1 allows.
fn oracle_score(w: &RandomWindow, chunks: Option<&[u64]>) -> i64 {
    let per_chunk = ((w.config.lambda * 1_000.0) as i64).max(1);
    let per_kernel = (((1.0 - w.config.lambda) * 100.0) as i64).max(1);
    let per_waiting_chunk = (w.config.mu * 10.0) as i64;
    let consumer = w.consumer as i64;
    let Some(chunks) = chunks else {
        return per_chunk * w.total_chunks as i64 + per_kernel * consumer;
    };
    let held = || {
        w.slots
            .iter()
            .zip(chunks)
            .filter(|(_, &c)| c > 0)
            .map(|(slot, &c)| (slot.kernel as i64, c as i64))
    };
    let earliest = held().map(|(kernel, _)| kernel).min().unwrap_or(consumer);
    let waiting: i64 = held().map(|(kernel, c)| (consumer - 1 - kernel) * c).sum();
    per_kernel * (consumer - earliest) + per_waiting_chunk * waiting
}

/// A decision's chunks per candidate, in the enumeration's layout.
fn chunks_per_slot(w: &RandomWindow, decision: &WindowDecision) -> Vec<u64> {
    w.slots
        .iter()
        .map(|slot| {
            decision
                .assignments
                .iter()
                .filter(|&&(kernel, _)| kernel == slot.kernel)
                .map(|&(_, c)| c)
                .sum()
        })
        .collect()
}

#[test]
fn back_to_front_fill_streams_exactly_the_windows_that_can_stream() {
    let (mut streams, mut preloads, mut short, mut breaks_c2) = (0, 0, 0, 0);
    for w in windows_under_test() {
        let streamed = streamed_assignments(&w);
        let best = streamed.iter().map(|x| oracle_score(&w, Some(x))).min();
        match back_to_front_fill(w.total_chunks, &w.slots) {
            Some(fill) => {
                let chunks = chunks_per_slot(&w, &fill);
                assert!(streamed.contains(&chunks), "{w:?}");
                assert_eq!(Some(oracle_score(&w, Some(&chunks))), best, "{w:?}");
                // C1: the disk load happens at the earliest kernel holding a
                // chunk.
                let earliest = fill.assignments.iter().map(|&(k, _)| k).min();
                assert_eq!(Some(fill.disk_load_kernel), earliest, "{w:?}");
                streams += 1;
            }
            None => {
                assert!(streamed.is_empty(), "{w:?}");
                let capacity: u64 = w.slots.iter().map(|s| s.capacity_chunks).sum();
                short += usize::from(capacity < w.total_chunks);
                breaks_c2 += usize::from(capacity >= w.total_chunks);
                preloads += 1;
            }
        }
    }
    assert!(streams > 0, "no window streams");
    assert!(preloads > 0, "no window preloads");
    // Both reasons a fill fails occur in the corpus.
    assert!(short > 0, "no window with T(w) above its capacity");
    assert!(breaks_c2 > 0, "no window whose fill breaks C2");
}

/// The closed-form bound, the better of preloading's score and the fill's,
/// is the window's exact optimum, and LC-OPG's decision scores it: the fill
/// when `prefers` takes it, ties included, and preloading otherwise.
#[test]
fn opg_window_bound_is_the_exact_optimum() {
    let (mut fill_fails, mut fill_streams, mut optimum_preloads) = (0, 0, 0);
    for w in windows_under_test() {
        let preload = oracle_score(&w, None);
        let best_streamed = streamed_assignments(&w)
            .iter()
            .map(|x| oracle_score(&w, Some(x)))
            .min();
        let optimum = best_streamed.map_or(preload, |s| s.min(preload));

        let objective = WindowObjective::new(w.consumer, w.total_chunks, &w.config);
        assert_eq!(objective.score(None), preload, "{w:?}");
        let fill = back_to_front_fill(w.total_chunks, &w.slots);
        if let Some(fill) = &fill {
            let chunks = chunks_per_slot(&w, fill);
            assert_eq!(objective.score(Some(fill)), oracle_score(&w, Some(&chunks)));
        }
        let bound = fill
            .as_ref()
            .map_or(preload, |f| objective.score(Some(f)).min(preload));
        assert_eq!(bound, optimum, "{w:?}");

        // LC-OPG's closed form at one capacity scale.
        match fill {
            None => fill_fails += 1,
            Some(fill) if objective.prefers(&fill) => {
                assert_eq!(objective.score(Some(&fill)), optimum, "{w:?}");
                fill_streams += 1;
            }
            Some(_) => {
                assert!(best_streamed.is_some_and(|s| s > preload), "{w:?}");
                assert_eq!(preload, optimum, "{w:?}");
                optimum_preloads += 1;
            }
        }
    }
    // Every path of the closed form occurs in the corpus.
    assert!(fill_fails > 0, "no window's fill fails");
    assert!(fill_streams > 0, "no window streams its fill");
    assert!(optimum_preloads > 0, "no window preloads as its optimum");
}
