//! The Overlap Plan Generation (OPG) constraint model.
//!
//! Section 3.1 of the paper formalises OPG with three groups of decision
//! variables — the preload set `W`, the earliest-load indices `z_w` and the
//! per-layer chunk allocations `x_{w,ℓ}` — under constraints C0 (completeness),
//! C1 (loading-distance implication), C2 (peak transformation memory) and, in
//! the LC-OPG extension, C3 (per-layer load capacity). The objective balances
//! preload volume against loading distance with the weights `λ` and `μ`.
//!
//! Following the paper's *incremental scheduling* implementation note, the
//! model is built per weight over a rolling window of candidate kernels; the
//! [`crate::lc_opg::LcOpgSolver`] drives the windows in execution order and
//! maintains the shared capacity / memory state between them.
//!
//! A window's optimum has a closed form. Its [`back_to_front_fill`] is the
//! best streamed assignment, or proves that none exists, so the optimum is
//! the better of the fill and preloading, both scored from the slots by
//! [`WindowObjective`]. LC-OPG builds a [`WeightWindowModel`] only for a
//! window whose feasible fill scores worse than preloading; its node-capped
//! search may then stop on a streamed incumbent.

use flashmem_solver::{CpModel, LinearExpr, Solution, VarId};
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

/// The per-weight OPG window model plus handles to its decision variables.
#[derive(Debug, Clone)]
pub struct WeightWindowModel {
    /// The CP model (constraints C0–C3 restricted to this weight's window).
    pub model: CpModel,
    /// `x_{w,ℓ}` variables, parallel to the candidate list.
    pub x_vars: Vec<(usize, VarId)>,
    /// The earliest-load variable `z_w` (kernel index).
    pub z_var: VarId,
    /// The preload indicator (1 ⇒ the weight joins `W`).
    pub preload_var: VarId,
    /// The window's [`back_to_front_fill`]: `None` when no assignment can
    /// stream the weight.
    pub fill: Option<WindowDecision>,
}

/// Where a streamed weight's chunks go. A preloaded weight has no decision:
/// every function here returns `None` for it.
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

/// Build the CP model for scheduling one weight's chunks over its candidate
/// window.
///
/// `consumer_kernel` is `i_w`; `candidates` lists the kernels `ℓ < i_w` that
/// may transform chunks, with their remaining capacity (C3) and remaining
/// memory headroom (C2) already reduced by previously scheduled weights.
pub fn build_weight_window_model(
    consumer_kernel: usize,
    total_chunks: u64,
    candidates: &[CandidateSlot],
    config: &FlashMemConfig,
) -> WeightWindowModel {
    let mut model = CpModel::new();
    let t = total_chunks as i64;

    // Decision variables.
    let preload_var = model.new_bool_var("preload");
    // z_w ranges from 0 ("available before execution starts", the preload
    // convention) up to the consumer kernel.
    let z_var = model.new_int_var(0, consumer_kernel as i64, "z_w");
    let mut x_vars = Vec::with_capacity(candidates.len());
    for slot in candidates {
        let ub = slot
            .capacity_chunks
            .min(slot.memory_headroom_chunks)
            .min(total_chunks) as i64;
        let v = model.new_int_var(0, ub, &format!("x_l{}", slot.kernel));
        x_vars.push((slot.kernel, v));
    }

    // C0 — completeness: streamed chunks plus the preload escape hatch cover
    // the weight exactly: Σ x_ℓ + T(w)·preload = T(w).
    let mut completeness = LinearExpr::new();
    for (_, v) in &x_vars {
        completeness = completeness.plus(*v, 1);
    }
    completeness = completeness.plus(preload_var, t);
    model.add_eq(completeness, t);

    // C1 — loading-distance implication: x_{w,ℓ} ≥ 1 ⇒ z_w ≤ ℓ.
    for (kernel, v) in &x_vars {
        model.add_if_ge_then_le(*v, 1, z_var, *kernel as i64);
    }
    // A preloaded weight is loaded before kernel 0 by convention.
    model.add_if_ge_then_le(preload_var, 1, z_var, 0);

    // C2 — peak transformation memory: the running prefix of this weight's
    // in-flight chunks must fit the remaining headroom at every candidate.
    for (idx, slot) in candidates.iter().enumerate() {
        let mut prefix = LinearExpr::new();
        for (_, v) in x_vars.iter().take(idx + 1) {
            prefix = prefix.plus(*v, 1);
        }
        model.add_le(prefix, slot.memory_headroom_chunks as i64);
    }

    // (C3 — per-layer capacity — is enforced through the x-variable upper
    // bounds above.)

    let objective = WindowObjective::new(consumer_kernel, total_chunks, config);
    model.minimize(objective.expr(preload_var, z_var, &x_vars));
    let fill = back_to_front_fill(total_chunks, candidates);
    // The optimum is exact only for candidates in execution order before the
    // consumer, which is how LC-OPG builds every window.
    let in_order = candidates.windows(2).all(|p| p[0].kernel < p[1].kernel)
        && candidates.iter().all(|s| s.kernel < consumer_kernel);
    if in_order {
        model.set_objective_bound(Some(objective.optimum(fill.as_ref())));
    }
    WeightWindowModel {
        model,
        x_vars,
        z_var,
        preload_var,
        fill,
    }
}

/// The objective of one weight's window,
/// `λ·T(w)·p + (1−λ)·(i_w − z_w) + μ·Σ (i_w − 1 − ℓ)·x_ℓ`, with its
/// coefficients scaled to integers once for both of its readers: the window
/// model's objective and the closed-form scores of preloading and the fill.
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

    /// The objective over a window model's variables.
    fn expr(&self, preload_var: VarId, z_var: VarId, x_vars: &[(usize, VarId)]) -> LinearExpr {
        let mut expr = LinearExpr::new()
            .plus(preload_var, self.preload_cost)
            .plus(z_var, -self.distance_cost)
            .plus_const(self.distance_cost * self.consumer_kernel as i64);
        if self.chunk_distance_cost > 0 {
            for &(kernel, v) in x_vars {
                expr = expr.plus(v, self.chunk_distance_cost * self.chunk_distance(kernel));
            }
        }
        expr
    }

    /// The objective value of a decision, computed from its chunks alone:
    /// `None` preloads (`p = 1`, `z_w = 0`); a streamed decision has `p = 0`
    /// and `z_w` at its earliest kernel, or at the consumer when it loads
    /// nothing. This is the value the window model's objective takes on
    /// [`greedy_hint`] for the same decision.
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
    /// window's optimum: LC-OPG streams it without building a model.
    pub fn prefers(&self, fill: &WindowDecision) -> bool {
        self.score(Some(fill)) <= self.score(None)
    }

    /// The window's optimal objective value, the better of preloading and
    /// its back-to-front `fill`.
    ///
    /// Preloading has one assignment (`p = 1`, every `x = 0`, `z = 0`). Every
    /// streamed assignment places `T(w)` chunks under the same per-kernel
    /// upper bounds, and the fill packs them as late as those bounds allow, so
    /// among all of them it has the smallest prefix sum at every candidate
    /// and the latest earliest-loading kernel. The objective's streamed part
    /// is `(1−λ)·(i_w − z_w)`, smallest at the latest `z_w`, plus
    /// `μ·Σ (i_w − 1 − ℓ)·x_ℓ`, a non-negative combination of the prefix sums
    /// because the distance falls as `ℓ` grows; the fill minimises both. A
    /// fill that breaks a C2 prefix or cannot cover `T(w)` (`None`) proves
    /// that no assignment can stream the weight, and preloading is the
    /// optimum.
    pub fn optimum(&self, fill: Option<&WindowDecision>) -> i64 {
        let streamed = fill.map_or(i64::MAX, |f| self.score(Some(f)));
        self.score(None).min(streamed)
    }
}

impl WeightWindowModel {
    /// The full assignment of a decision, ordered by variable id: `None` is
    /// the preload assignment (`p = 1`, every `x = 0`, `z = 0`); a streamed
    /// decision puts `z_w` at the earliest kernel that holds a chunk, or at
    /// the consumer when there is nothing to load.
    fn assignment(&self, decision: Option<&WindowDecision>) -> Vec<i64> {
        let mut values = vec![0i64; self.model.num_vars()];
        let Some(decision) = decision else {
            values[self.preload_var.0] = 1;
            return values;
        };
        for &(kernel, chunks) in &decision.assignments {
            let (_, x) = self
                .x_vars
                .iter()
                .find(|(k, _)| *k == kernel)
                .expect("a decision assigns chunks to candidates only");
            values[x.0] = chunks as i64;
        }
        values[self.z_var.0] = decision
            .assignments
            .iter()
            .map(|(k, _)| *k as i64)
            .min()
            .unwrap_or(self.model.domain(self.z_var).hi);
        values
    }
}

/// Extract the scheduling decision from a CP solution of a window model:
/// `None` when the solution preloads the weight.
pub fn extract_decision(window: &WeightWindowModel, solution: &Solution) -> Option<WindowDecision> {
    if solution.value(window.preload_var) >= 1 {
        return None;
    }
    let assignments: Vec<(usize, u64)> = window
        .x_vars
        .iter()
        .filter_map(|(kernel, v)| {
            let chunks = solution.value(*v);
            if chunks > 0 {
                Some((*kernel, chunks as u64))
            } else {
                None
            }
        })
        .collect();
    let disk_load_kernel = assignments
        .iter()
        .map(|(k, _)| *k)
        .min()
        .unwrap_or(solution.value(window.z_var).max(0) as usize);
    Some(WindowDecision {
        assignments,
        disk_load_kernel,
    })
}

/// The warm-start hint of a window model: the assignment of its
/// back-to-front fill, or of preloading when the weight cannot stream. It is
/// always feasible, and optimal whenever it scores the window's objective
/// bound.
pub fn greedy_hint(window: &WeightWindowModel) -> Vec<i64> {
    window.assignment(window.fill.as_ref())
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashmem_solver::{CpSolver, SolveStatus, SolverConfig};

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
        let config = FlashMemConfig::memory_priority();
        let slots = candidates(&[(5, 10, 100), (6, 10, 100), (7, 10, 100)]);
        let window = build_weight_window_model(8, 12, &slots, &config);
        let out = CpSolver::with_config(SolverConfig::with_max_nodes(config.solver_node_limit))
            .solve_with_hint(&window.model, Some(&greedy_hint(&window)));
        assert!(out.status.has_solution(), "{:?}", out.status);
        let decision = extract_decision(&window, &out.solution.unwrap()).expect("streams");
        let total: u64 = decision.assignments.iter().map(|(_, c)| c).sum();
        assert_eq!(total, 12);
        // With μ > 0 the solver prefers the latest kernels.
        assert!(decision.assignments.iter().all(|(k, _)| *k >= 5));
        assert!(decision
            .assignments
            .iter()
            .any(|(k, c)| *k == 7 && *c == 10));
    }

    #[test]
    fn insufficient_capacity_forces_preload() {
        let config = FlashMemConfig::memory_priority();
        let slots = candidates(&[(2, 2, 100), (3, 3, 100)]);
        let window = build_weight_window_model(4, 40, &slots, &config);
        let out = CpSolver::with_config(SolverConfig::with_max_nodes(config.solver_node_limit))
            .solve_with_hint(&window.model, Some(&greedy_hint(&window)));
        assert!(out.status.has_solution());
        let decision = extract_decision(&window, &out.solution.unwrap());
        assert_eq!(decision, None, "only 5 chunks of capacity for 40 chunks");
    }

    #[test]
    fn memory_headroom_limits_prefix_allocations() {
        let config = FlashMemConfig::memory_priority();
        // Plenty of per-kernel capacity but almost no memory headroom early.
        let slots = candidates(&[(1, 50, 1), (2, 50, 1), (3, 50, 30)]);
        let window = build_weight_window_model(4, 20, &slots, &config);
        let out = CpSolver::with_config(SolverConfig::with_max_nodes(config.solver_node_limit))
            .solve_with_hint(&window.model, Some(&greedy_hint(&window)));
        let decision = extract_decision(&window, &out.solution.unwrap()).expect("streams");
        // The prefix ending at kernel 1 may hold at most 1 chunk.
        let at_1: u64 = decision
            .assignments
            .iter()
            .filter(|(k, _)| *k == 1)
            .map(|(_, c)| c)
            .sum();
        assert!(at_1 <= 1);
        let total: u64 = decision.assignments.iter().map(|(_, c)| c).sum();
        assert_eq!(total, 20);
    }

    #[test]
    fn c1_links_disk_load_to_earliest_assignment() {
        let config = FlashMemConfig::memory_priority();
        let slots = candidates(&[(3, 8, 100), (4, 8, 100)]);
        let window = build_weight_window_model(5, 10, &slots, &config);
        let out = CpSolver::with_config(SolverConfig::with_max_nodes(config.solver_node_limit))
            .solve(&window.model);
        assert_eq!(out.status, SolveStatus::Optimal);
        let solution = out.solution.unwrap();
        let decision = extract_decision(&window, &solution).expect("streams");
        let earliest = decision.assignments.iter().map(|(k, _)| *k).min().unwrap();
        assert!(solution.value(window.z_var) <= earliest as i64);
        assert_eq!(decision.disk_load_kernel, earliest);
    }

    #[test]
    fn greedy_hint_is_always_feasible() {
        let config = FlashMemConfig::balanced();
        for (total, caps) in [
            (
                12u64,
                vec![(5usize, 10u64, 100u64), (6, 10, 100), (7, 10, 100)],
            ),
            (40, vec![(2, 2, 100), (3, 3, 100)]),
            (20, vec![(1, 50, 1), (2, 50, 1), (3, 50, 30)]),
        ] {
            let slots = candidates(&caps);
            let window = build_weight_window_model(9, total, &slots, &config);
            let hint = greedy_hint(&window);
            assert!(
                window.model.is_feasible(&hint),
                "greedy hint infeasible for total={total}"
            );
        }
    }

    #[test]
    fn empty_candidate_window_can_only_preload() {
        let config = FlashMemConfig::memory_priority();
        let window = build_weight_window_model(0, 5, &[], &config);
        let out = CpSolver::new().solve(&window.model);
        assert!(out.status.has_solution());
        assert_eq!(extract_decision(&window, &out.solution.unwrap()), None);
    }

    #[test]
    fn lower_lambda_prefers_streaming_less_aggressively() {
        // With λ→0 the preload penalty vanishes, so a tight window may still
        // choose preload when distance costs dominate; with λ→1 the solver
        // avoids preload whenever the window fits the weight.
        let slots = candidates(&[(1, 20, 100), (2, 20, 100)]);
        let high = FlashMemConfig::memory_priority().with_lambda(0.95);
        let window_high = build_weight_window_model(3, 20, &slots, &high);
        let out_high = CpSolver::new().solve(&window_high.model);
        let d_high = extract_decision(&window_high, &out_high.solution.unwrap());
        assert!(d_high.is_some());
    }
}
