//! The Overlap Plan Generation (OPG) weight window and its closed-form
//! optimum.
//!
//! Section 3.1 of the paper formalises OPG with three groups of decision
//! variables — the preload set `W`, the earliest-load indices `z_w` and the
//! per-layer chunk allocations `x_{w,ℓ}` — under constraints C0 (completeness),
//! C1 (loading-distance implication), C2 (peak transformation memory) and, in
//! the LC-OPG extension, C3 (per-layer load capacity). The objective balances
//! preload volume against loading distance with the weights `λ` and `μ`.
//!
//! Following the paper's *incremental scheduling* implementation note, the
//! problem is decided per weight over a rolling window of candidate kernels;
//! the [`crate::lc_opg::LcOpgSolver`] drives the windows in execution order
//! and maintains the shared capacity / memory state between them.
//!
//! A window's optimum has a closed form, so no solver runs. A window has
//! two kinds of assignment:
//!
//! - **Preload** (`p = 1`) has one assignment: every `x_ℓ = 0` and `z_w = 0`.
//! - **Stream** (`p = 0`) places `T(w)` chunks under the per-kernel bounds
//!   `min(capacity, headroom, T(w))`. The [`back_to_front_fill`] packs them as
//!   late as those bounds allow, so among all streamed assignments it has the
//!   smallest prefix sum at every candidate and the latest earliest-loading
//!   kernel.
//!
//! The streamed objective is `(1−λ)·(i_w − z_w)`, smallest at the latest
//! `z_w`, plus `μ·Σ (i_w − 1 − ℓ)·x_ℓ`, a non-negative combination of the
//! prefix sums because the distance falls as `ℓ` grows; the fill minimises
//! both. A fill that breaks a C2 prefix or cannot cover `T(w)` (`None`)
//! proves that no assignment can stream the weight. So the window's optimum
//! is the fill when it scores no worse than preloading
//! ([`WindowObjective::prefers`]), and preloading otherwise.

use serde::{Deserialize, Serialize};

use crate::config::FlashMemConfig;

/// A candidate kernel slot for transforming chunks of one weight.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CandidateSlot {
    /// Kernel index (fusion-group execution order).
    pub kernel: usize,
    /// Remaining load capacity at this kernel, in chunks.
    pub capacity_chunks: u64,
    /// Remaining `M_peak` headroom if chunks become in-flight starting at this
    /// kernel, in chunks (already accounts for other weights' in-flight data).
    pub memory_headroom_chunks: u64,
}

/// Where a streamed weight's chunks go. A preloaded weight has no decision:
/// `None` stands for it wherever an `Option<WindowDecision>` is used.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WindowDecision {
    /// Chunk allocations `(kernel, chunks)`, in candidate order.
    pub assignments: Vec<(usize, u64)>,
    /// The earliest-load kernel `z_w`.
    pub disk_load_kernel: usize,
}

/// Fill the candidates from the closest to the consumer backwards, each up to
/// its load capacity (C3), and stream the weight if that covers its
/// `total_chunks` without breaking C2.
///
/// `candidates` are in execution order, as LC-OPG builds them. A chunk placed
/// at kernel `ℓ` stays in flight until the consumer, so every chunk not
/// placed at a later candidate is in flight at `ℓ` and must fit its headroom.
/// Packing chunks as late as the capacities allow makes that count the
/// smallest any assignment reaches at every candidate, so `None` proves that
/// no assignment can stream the weight.
pub fn back_to_front_fill(
    total_chunks: u64,
    candidates: &[CandidateSlot],
) -> Option<WindowDecision> {
    let mut remaining = total_chunks;
    let mut assignments = Vec::new();
    for slot in candidates.iter().rev() {
        if remaining > slot.memory_headroom_chunks {
            return None;
        }
        let take = slot.capacity_chunks.min(remaining);
        if take > 0 {
            assignments.push((slot.kernel, take));
            remaining -= take;
        }
    }
    if remaining > 0 {
        return None;
    }
    assignments.reverse();
    Some(WindowDecision {
        disk_load_kernel: assignments.first().map_or(0, |&(kernel, _)| kernel),
        assignments,
    })
}

/// The objective of one weight's window,
/// `λ·T(w)·p + (1−λ)·(i_w − z_w) + μ·Σ (i_w − 1 − ℓ)·x_ℓ`, with its
/// coefficients scaled to integers.
///
/// The constant `(1−λ)·i_w` term is irrelevant to the argmin but keeps the
/// values interpretable as loading distances.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowObjective {
    consumer_kernel: usize,
    preload_cost: i64,
    distance_cost: i64,
    chunk_distance_cost: i64,
}

impl WindowObjective {
    /// The objective of a `total_chunks` weight consumed by kernel
    /// `consumer_kernel` (`i_w`) under `config`'s `λ` and `μ`.
    pub fn new(consumer_kernel: usize, total_chunks: u64, config: &FlashMemConfig) -> Self {
        WindowObjective {
            consumer_kernel,
            preload_cost: ((config.lambda * 1_000.0) as i64).max(1) * (total_chunks as i64).max(1),
            distance_cost: (((1.0 - config.lambda) * 100.0) as i64).max(1),
            chunk_distance_cost: ((config.mu * 10.0) as i64).max(0),
        }
    }

    /// `i_w − 1 − ℓ`, the kernels a chunk transformed at `kernel` waits.
    fn chunk_distance(&self, kernel: usize) -> i64 {
        (self.consumer_kernel as i64 - 1 - kernel as i64).max(0)
    }

    /// The objective value of a decision, computed from its chunks alone:
    /// `None` preloads (`p = 1`, `z_w = 0`); a streamed decision has `p = 0`
    /// and `z_w` at its earliest kernel, or at the consumer when it loads
    /// nothing.
    pub fn score(&self, decision: Option<&WindowDecision>) -> i64 {
        let consumer = self.consumer_kernel as i64;
        let Some(decision) = decision else {
            return self.preload_cost + self.distance_cost * consumer;
        };
        let earliest = decision
            .assignments
            .iter()
            .map(|&(kernel, _)| kernel as i64)
            .min()
            .unwrap_or(consumer);
        let waiting: i64 = decision
            .assignments
            .iter()
            .map(|&(kernel, chunks)| self.chunk_distance(kernel) * chunks as i64)
            .sum();
        self.distance_cost * (consumer - earliest) + self.chunk_distance_cost * waiting
    }

    /// True when `fill` scores no worse than preloading, which makes it the
    /// window's optimum; otherwise preloading is.
    pub fn prefers(&self, fill: &WindowDecision) -> bool {
        self.score(Some(fill)) <= self.score(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn candidates(caps: &[(usize, u64, u64)]) -> Vec<CandidateSlot> {
        caps.iter()
            .map(
                |&(kernel, capacity_chunks, memory_headroom_chunks)| CandidateSlot {
                    kernel,
                    capacity_chunks,
                    memory_headroom_chunks,
                },
            )
            .collect()
    }

    #[test]
    fn window_with_ample_capacity_streams_everything_close_to_consumer() {
        let slots = candidates(&[(5, 10, 100), (6, 10, 100), (7, 10, 100)]);
        let fill = back_to_front_fill(12, &slots).expect("streams");
        assert_eq!(fill.assignments, vec![(6, 2), (7, 10)]);
        // C1: the disk load happens at the earliest kernel holding a chunk.
        assert_eq!(fill.disk_load_kernel, 6);
        let objective = WindowObjective::new(8, 12, &FlashMemConfig::memory_priority());
        assert!(objective.prefers(&fill));
    }

    #[test]
    fn insufficient_capacity_forces_preload() {
        let slots = candidates(&[(2, 2, 100), (3, 3, 100)]);
        assert_eq!(
            back_to_front_fill(40, &slots),
            None,
            "only 5 chunks of capacity for 40 chunks"
        );
    }

    #[test]
    fn memory_headroom_limits_prefix_allocations() {
        // Plenty of per-kernel capacity at kernel 1 but room for one chunk in
        // flight there: every chunk not placed later is in flight at it.
        let slots = candidates(&[(1, 50, 1), (2, 5, 100), (3, 5, 100)]);
        let fill = back_to_front_fill(11, &slots).expect("streams");
        assert_eq!(fill.assignments, vec![(1, 1), (2, 5), (3, 5)]);
        assert_eq!(back_to_front_fill(12, &slots), None);
    }

    #[test]
    fn empty_candidate_window_can_only_preload() {
        assert_eq!(back_to_front_fill(5, &[]), None);
    }

    #[test]
    fn lambda_decides_between_preloading_and_an_early_fill() {
        // The only capacity is at kernel 0, so the fill loads at the start of
        // execution and every chunk waits two kernels.
        let slots = candidates(&[(0, 20, 100), (1, 0, 100), (2, 0, 100)]);
        let fill = back_to_front_fill(20, &slots).expect("streams");
        let score = |lambda: f64| {
            let config = FlashMemConfig::memory_priority().with_lambda(lambda);
            WindowObjective::new(3, 20, &config)
        };
        // λ = 0.95 makes preloading dear: 19,000 + 15 against 15 + 400.
        assert!(score(0.95).prefers(&fill));
        // λ = 0 makes it cheap: 20 + 300 against 300 + 400.
        assert_eq!(score(0.0).score(None), 320);
        assert_eq!(score(0.0).score(Some(&fill)), 700);
        assert!(!score(0.0).prefers(&fill));
    }
}
