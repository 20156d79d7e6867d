//! Branch-and-bound search.
//!
//! [`CpSolver`] combines the bounds propagator with depth-first branch and
//! bound: pick the unfixed variable with the smallest domain, try its lower
//! half first (OPG variables prefer "load as little as possible as late as
//! possible"), and prune by the objective bound. Two things end a search
//! early, both deterministic:
//!
//! * an incumbent that reaches the model's proven objective bound
//!   ([`CpModel::set_objective_bound`]) is optimal, so the solve returns
//!   `Optimal` at once — at the root, before any node, when the warm-start
//!   hint already meets it;
//! * the node cap [`SolverConfig::max_nodes`], checked on every node, stops
//!   the search with `Feasible` (or `Unknown` without a solution), like the
//!   CP-SAT statuses reported in Table 4 of the paper.
//!
//! The result is therefore a pure function of the model, the hint and the
//! cap; the clock only measures [`SolveOutcome::solve_time`].

use std::time::Instant;

use serde::{Deserialize, Serialize};

use crate::model::{CpModel, Domain, LinearExpr, Sense};
use crate::propagate::{propagate, PropagationResult};
use crate::solution::{Solution, SolveOutcome, SolveStatus};

/// Solver configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SolverConfig {
    /// Cap on explored search nodes: the search visits at most this many and
    /// reports `Feasible` rather than `Optimal` if it needed more.
    pub max_nodes: u64,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            max_nodes: 2_000_000,
        }
    }
}

impl SolverConfig {
    /// A configuration capped at `max_nodes` search nodes.
    pub fn with_max_nodes(max_nodes: u64) -> Self {
        SolverConfig { max_nodes }
    }
}

/// The branch-and-bound CP solver.
#[derive(Debug, Clone, Default)]
pub struct CpSolver {
    config: SolverConfig,
}

struct SearchState<'a> {
    model: &'a CpModel,
    objective: Option<&'a (LinearExpr, Sense)>,
    best: Option<(i64, Vec<i64>)>,
    /// Proven bound on the normalised objective: an incumbent at or below it
    /// is optimal.
    bound: i64,
    nodes: u64,
    max_nodes: u64,
    hit_limit: bool,
}

impl SearchState<'_> {
    fn incumbent_meets_bound(&self) -> bool {
        matches!(self.best, Some((obj, _)) if obj <= self.bound)
    }
}

impl CpSolver {
    /// Create a solver with the default configuration.
    pub fn new() -> Self {
        CpSolver::default()
    }

    /// Create a solver with an explicit configuration.
    pub fn with_config(config: SolverConfig) -> Self {
        CpSolver { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &SolverConfig {
        &self.config
    }

    /// Solve `model`, optionally warm-starting from `hint` (a full assignment
    /// that, if feasible, immediately bounds the objective — this is how the
    /// LC-OPG greedy fallback seeds the exact search). A feasible hint that
    /// meets the model's objective bound is returned as `Optimal` without
    /// propagating or searching.
    pub fn solve_with_hint(&self, model: &CpModel, hint: Option<&[i64]>) -> SolveOutcome {
        let started = Instant::now();
        let objective = model.objective();
        let bound = match (objective, model.objective_bound()) {
            (Some((_, sense)), Some(bound)) => normalise(bound, *sense),
            _ => i64::MIN,
        };
        let mut state = SearchState {
            model,
            objective,
            best: None,
            bound,
            nodes: 0,
            max_nodes: self.config.max_nodes,
            hit_limit: false,
        };

        // Seed with the hint if it is feasible.
        if let Some(h) = hint {
            if model.is_feasible(h) {
                let obj = state
                    .objective
                    .map(|(expr, sense)| normalised_objective(expr, *sense, h))
                    .unwrap_or(0);
                state.best = Some((obj, h.to_vec()));
            }
        }

        if !state.incumbent_meets_bound() {
            let mut domains: Vec<Domain> = model.domains().to_vec();
            // Root propagation.
            if propagate(model, &mut domains) == PropagationResult::Conflict {
                return SolveOutcome {
                    status: SolveStatus::Infeasible,
                    solution: None,
                    objective: None,
                    nodes_explored: 0,
                    solve_time: started.elapsed(),
                };
            }
            dfs(&mut state, domains);
        }

        let elapsed = started.elapsed();
        match state.best {
            Some((obj, assignment)) => {
                let status = if state.hit_limit {
                    SolveStatus::Feasible
                } else {
                    SolveStatus::Optimal
                };
                let objective = state.objective.map(|(_, sense)| normalise(obj, *sense));
                // A model without an objective is a pure satisfaction problem:
                // any solution is "optimal".
                SolveOutcome {
                    status,
                    solution: Some(Solution::new(assignment)),
                    objective: objective.or(Some(CpModel::eval_expr(&LinearExpr::new(), &[]))),
                    nodes_explored: state.nodes,
                    solve_time: elapsed,
                }
            }
            None => SolveOutcome {
                status: if state.hit_limit {
                    SolveStatus::Unknown
                } else {
                    SolveStatus::Infeasible
                },
                solution: None,
                objective: None,
                nodes_explored: state.nodes,
                solve_time: elapsed,
            },
        }
    }

    /// Solve `model` without a warm start.
    pub fn solve(&self, model: &CpModel) -> SolveOutcome {
        self.solve_with_hint(model, None)
    }
}

/// Map an objective value to and from its *smaller is better* form (the map
/// is its own inverse).
fn normalise(value: i64, sense: Sense) -> i64 {
    match sense {
        Sense::Minimize => value,
        Sense::Maximize => -value,
    }
}

/// Objective value normalised so that *smaller is better* regardless of sense.
fn normalised_objective(expr: &LinearExpr, sense: Sense, assignment: &[i64]) -> i64 {
    normalise(CpModel::eval_expr(expr, assignment), sense)
}

/// Lower bound of the (normalised) objective under current domains.
fn objective_lower_bound(expr: &LinearExpr, sense: Sense, domains: &[Domain]) -> i64 {
    let mut bound = normalise(expr.constant, sense);
    for (v, c) in &expr.terms {
        let d = domains[v.0];
        let coeff = normalise(*c, sense);
        bound += if coeff >= 0 {
            coeff * d.lo
        } else {
            coeff * d.hi
        };
    }
    bound
}

fn dfs(state: &mut SearchState<'_>, mut domains: Vec<Domain>) {
    if state.nodes >= state.max_nodes {
        state.hit_limit = true;
        return;
    }
    state.nodes += 1;

    if propagate(state.model, &mut domains) == PropagationResult::Conflict {
        return;
    }

    // Objective pruning.
    if let (Some((expr, sense)), Some((best, _))) = (state.objective, &state.best) {
        let lb = objective_lower_bound(expr, *sense, &domains);
        if lb >= *best {
            return;
        }
    }

    // Pick the unfixed variable with the smallest domain (fail-first).
    let mut branch_var: Option<(usize, u64)> = None;
    for (idx, d) in domains.iter().enumerate() {
        if !d.is_fixed() {
            let size = d.size();
            match branch_var {
                Some((_, best_size)) if best_size <= size => {}
                _ => branch_var = Some((idx, size)),
            }
        }
    }

    let Some((var, _)) = branch_var else {
        // All variables fixed: a complete assignment (propagation already
        // verified bounds; re-check the full model for safety).
        let assignment: Vec<i64> = domains.iter().map(|d| d.lo).collect();
        if !state.model.is_feasible(&assignment) {
            return;
        }
        let obj = state
            .objective
            .map(|(expr, sense)| normalised_objective(expr, *sense, &assignment))
            .unwrap_or(0);
        let better = state.best.as_ref().map(|(b, _)| obj < *b).unwrap_or(true);
        if better {
            state.best = Some((obj, assignment));
        }
        return;
    };

    // Branch: split the domain at its midpoint, exploring the lower half first
    // (prefer small loads / early-zero chunk allocations).
    let d = domains[var];
    let mid = d.lo + (d.hi - d.lo) / 2;

    let mut lower = domains.clone();
    lower[var] = Domain::new(d.lo, mid);
    dfs(state, lower);

    if state.hit_limit || state.incumbent_meets_bound() {
        return;
    }

    let mut upper = domains;
    upper[var] = Domain::new(mid + 1, d.hi);
    dfs(state, upper);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::LinearExpr;

    #[test]
    fn simple_minimisation_finds_optimum() {
        // minimise x + y  s.t.  x + 2y >= 7, x,y in [0,10]
        let mut m = CpModel::new();
        let x = m.new_int_var(0, 10, "x");
        let y = m.new_int_var(0, 10, "y");
        m.add_ge(LinearExpr::var(x).plus(y, 2), 7);
        m.minimize(LinearExpr::sum(&[x, y]));
        let out = CpSolver::new().solve(&m);
        assert_eq!(out.status, SolveStatus::Optimal);
        assert_eq!(out.objective, Some(4)); // y=4 wait: x=1,y=3 -> 4; or x=0,y=4 -> 4
        let s = out.solution.unwrap();
        assert!(m.is_feasible(s.values()));
    }

    #[test]
    fn maximisation_supported() {
        // maximise 3x + y  s.t.  x + y <= 6
        let mut m = CpModel::new();
        let x = m.new_int_var(0, 10, "x");
        let y = m.new_int_var(0, 10, "y");
        m.add_le(LinearExpr::sum(&[x, y]), 6);
        m.maximize(LinearExpr::var(x).plus(x, 2).plus(y, 1));
        let out = CpSolver::new().solve(&m);
        assert_eq!(out.status, SolveStatus::Optimal);
        assert_eq!(out.objective, Some(18)); // x=6, y=0
    }

    #[test]
    fn infeasible_model_detected() {
        let mut m = CpModel::new();
        let x = m.new_int_var(0, 3, "x");
        m.add_ge(LinearExpr::var(x), 10);
        let out = CpSolver::new().solve(&m);
        assert_eq!(out.status, SolveStatus::Infeasible);
        assert!(out.solution.is_none());
    }

    #[test]
    fn satisfaction_problem_without_objective() {
        let mut m = CpModel::new();
        let x = m.new_int_var(0, 5, "x");
        let y = m.new_int_var(0, 5, "y");
        m.add_eq(LinearExpr::sum(&[x, y]), 7);
        let out = CpSolver::new().solve(&m);
        assert_eq!(out.status, SolveStatus::Optimal);
        let s = out.solution.unwrap();
        assert_eq!(s.value(x) + s.value(y), 7);
    }

    #[test]
    fn implication_respected_in_solutions() {
        // Chunks assigned to a layer force the earliest-load index down: the
        // shape of constraint C1.
        let mut m = CpModel::new();
        let chunks = m.new_int_var(0, 4, "x_w_l");
        let earliest = m.new_int_var(0, 9, "z_w");
        m.add_ge(LinearExpr::var(chunks), 1);
        m.add_if_ge_then_le(chunks, 1, earliest, 3);
        m.maximize(LinearExpr::var(earliest));
        let out = CpSolver::new().solve(&m);
        assert_eq!(out.status, SolveStatus::Optimal);
        assert_eq!(out.solution.unwrap().value(earliest), 3);
    }

    #[test]
    fn warm_start_hint_is_used_as_bound() {
        let mut m = CpModel::new();
        let x = m.new_int_var(0, 50, "x");
        m.add_ge(LinearExpr::var(x), 5);
        m.minimize(LinearExpr::var(x));
        let out = CpSolver::new().solve_with_hint(&m, Some(&[7]));
        assert_eq!(out.status, SolveStatus::Optimal);
        assert_eq!(out.objective, Some(5));
    }

    #[test]
    fn infeasible_hint_is_ignored() {
        let mut m = CpModel::new();
        let x = m.new_int_var(0, 50, "x");
        m.add_ge(LinearExpr::var(x), 5);
        m.minimize(LinearExpr::var(x));
        let out = CpSolver::new().solve_with_hint(&m, Some(&[2]));
        assert_eq!(out.objective, Some(5));
    }

    /// A knapsack-ish model far too large to prove optimal in a few hundred
    /// nodes, though the first dive finds something feasible.
    fn wide_knapsack() -> CpModel {
        let mut m = CpModel::new();
        let vars: Vec<_> = (0..30)
            .map(|i| m.new_int_var(0, 20, &format!("v{i}")))
            .collect();
        // Σ v_i >= 100
        m.add_ge(LinearExpr::sum(&vars), 100);
        m.minimize(LinearExpr::sum(&vars));
        m
    }

    #[test]
    fn node_limit_yields_feasible_not_optimal() {
        let out = CpSolver::with_config(SolverConfig::with_max_nodes(200)).solve(&wide_knapsack());
        assert_eq!(out.status, SolveStatus::Feasible);
        assert!(out.solution.is_some());
    }

    #[test]
    fn node_cap_is_exact() {
        let m = wide_knapsack();
        for cap in [0, 1, 10, 100, 255, 256, 300, 1_000] {
            let out = CpSolver::with_config(SolverConfig::with_max_nodes(cap)).solve(&m);
            assert_eq!(out.nodes_explored, cap, "cap {cap}");
            // Unknown until the first dive reaches a leaf, Feasible after.
            assert!(
                matches!(out.status, SolveStatus::Feasible | SolveStatus::Unknown),
                "cap {cap}: {:?}",
                out.status
            );
        }
    }

    #[test]
    fn search_needing_exactly_the_cap_still_proves_optimality() {
        let mut m = CpModel::new();
        let x = m.new_int_var(0, 3, "x");
        m.minimize(LinearExpr::var(x));
        let needed = CpSolver::new().solve(&m).nodes_explored;
        let out = CpSolver::with_config(SolverConfig::with_max_nodes(needed)).solve(&m);
        assert_eq!(out.status, SolveStatus::Optimal);
        let out = CpSolver::with_config(SolverConfig::with_max_nodes(needed - 1)).solve(&m);
        assert_eq!(out.status, SolveStatus::Feasible);
    }

    #[test]
    fn hint_meeting_the_bound_is_optimal_at_the_root() {
        let mut m = wide_knapsack();
        m.set_objective_bound(Some(100));
        let hint: Vec<i64> = (0..30).map(|i| if i < 5 { 20 } else { 0 }).collect();
        // Even a zero-node budget proves the hint optimal.
        let out =
            CpSolver::with_config(SolverConfig::with_max_nodes(0)).solve_with_hint(&m, Some(&hint));
        assert_eq!(out.status, SolveStatus::Optimal);
        assert_eq!(out.objective, Some(100));
        assert_eq!(out.nodes_explored, 0);
        assert_eq!(out.solution.unwrap().values(), hint.as_slice());
    }

    #[test]
    fn search_stops_once_the_incumbent_meets_the_bound() {
        // minimise Σ v  s.t.  Σ v >= 30 over six variables in [0, 20].
        let mut m = CpModel::new();
        let vars: Vec<_> = (0..6)
            .map(|i| m.new_int_var(0, 20, &format!("v{i}")))
            .collect();
        m.add_ge(LinearExpr::sum(&vars), 30);
        m.minimize(LinearExpr::sum(&vars));
        let unbounded = CpSolver::new().solve(&m);
        m.set_objective_bound(Some(30));
        let bounded = CpSolver::new().solve(&m);
        assert_eq!(bounded.status, SolveStatus::Optimal);
        assert_eq!(bounded.objective, Some(30));
        assert_eq!(bounded.solution, unbounded.solution);
        // Without the bound the search must exhaust the tree to prove it.
        assert_eq!(unbounded.status, SolveStatus::Optimal);
        assert!(
            unbounded.nodes_explored > bounded.nodes_explored,
            "{} vs {}",
            unbounded.nodes_explored,
            bounded.nodes_explored
        );
    }

    #[test]
    fn maximisation_bound_is_an_upper_bound() {
        // maximise x + y  s.t.  x + y <= 6: a bound of 6 stops the search at
        // the first optimum, a hint scoring 6 before any node.
        let mut m = CpModel::new();
        let x = m.new_int_var(0, 10, "x");
        let y = m.new_int_var(0, 10, "y");
        m.add_le(LinearExpr::sum(&[x, y]), 6);
        m.maximize(LinearExpr::sum(&[x, y]));
        m.set_objective_bound(Some(6));
        let out = CpSolver::new().solve_with_hint(&m, Some(&[2, 4]));
        assert_eq!(out.status, SolveStatus::Optimal);
        assert_eq!(out.objective, Some(6));
        assert_eq!(out.nodes_explored, 0);
        let out = CpSolver::new().solve_with_hint(&m, Some(&[2, 3]));
        assert_eq!(out.status, SolveStatus::Optimal);
        assert_eq!(out.objective, Some(6));
    }

    #[test]
    fn optimal_solutions_are_feasible_under_model_check() {
        let mut m = CpModel::new();
        let a = m.new_int_var(0, 8, "a");
        let b = m.new_int_var(0, 8, "b");
        let c = m.new_int_var(0, 8, "c");
        m.add_le(LinearExpr::sum(&[a, b, c]), 12);
        m.add_ge(LinearExpr::var(a).plus(b, 1), 5);
        m.add_if_ge_then_le(a, 4, c, 2);
        m.minimize(LinearExpr::var(a).plus(b, 3).plus(c, 1));
        let out = CpSolver::new().solve(&m);
        let sol = out.solution.expect("solution");
        assert!(m.is_feasible(sol.values()));
        assert_eq!(out.status, SolveStatus::Optimal);
    }

    #[test]
    fn node_count_reported() {
        let mut m = CpModel::new();
        let x = m.new_int_var(0, 3, "x");
        m.minimize(LinearExpr::var(x));
        let out = CpSolver::new().solve(&m);
        assert!(out.nodes_explored >= 1);
        assert!(out.solve_time <= std::time::Duration::from_secs(5));
    }
}
