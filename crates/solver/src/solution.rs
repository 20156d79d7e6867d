//! Solutions and solve outcomes.

use std::time::Duration;

use serde::{Deserialize, Serialize};

use crate::model::VarId;

/// Termination status of a solve, mirroring CP-SAT's vocabulary (the paper's
/// Table 4 reports OPTIMAL and FEASIBLE statuses under a 150 s limit).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SolveStatus {
    /// An optimal solution was found and proved optimal.
    Optimal,
    /// A solution was found, but the node cap stopped the search before it
    /// proved the solution optimal.
    Feasible,
    /// The model has no solution.
    Infeasible,
    /// The node cap stopped the search before it found any solution.
    Unknown,
}

impl SolveStatus {
    /// True if a usable solution accompanies this status.
    pub fn has_solution(&self) -> bool {
        matches!(self, SolveStatus::Optimal | SolveStatus::Feasible)
    }

    /// Uppercase name as printed in Table 4 (`OPTIMAL`, `FEASIBLE`, ...).
    pub fn name(&self) -> &'static str {
        match self {
            SolveStatus::Optimal => "OPTIMAL",
            SolveStatus::Feasible => "FEASIBLE",
            SolveStatus::Infeasible => "INFEASIBLE",
            SolveStatus::Unknown => "UNKNOWN",
        }
    }
}

impl std::fmt::Display for SolveStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A complete variable assignment.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Solution {
    values: Vec<i64>,
}

impl Solution {
    /// Wrap an assignment vector (indexed by `VarId`).
    pub fn new(values: Vec<i64>) -> Self {
        Solution { values }
    }

    /// Value of variable `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` does not belong to the solved model.
    pub fn value(&self, v: VarId) -> i64 {
        self.values[v.0]
    }

    /// The raw assignment, indexed by variable id.
    pub fn values(&self) -> &[i64] {
        &self.values
    }

    /// Number of assigned variables.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True for the empty assignment.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

/// The result of a solve call.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SolveOutcome {
    /// Termination status.
    pub status: SolveStatus,
    /// The best solution found, if any.
    pub solution: Option<Solution>,
    /// Objective value of that solution (in the model's original sense).
    pub objective: Option<i64>,
    /// Number of branch-and-bound nodes explored.
    pub nodes_explored: u64,
    /// Wall-clock time spent solving (a measurement only: no clock decides
    /// when the search stops).
    pub solve_time: Duration,
}

impl SolveOutcome {
    /// The solution, or an error message suitable for propagation.
    pub fn require_solution(&self) -> Result<&Solution, String> {
        self.solution
            .as_ref()
            .ok_or_else(|| format!("solver terminated with status {}", self.status))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_predicates_and_names() {
        assert!(SolveStatus::Optimal.has_solution());
        assert!(SolveStatus::Feasible.has_solution());
        assert!(!SolveStatus::Infeasible.has_solution());
        assert!(!SolveStatus::Unknown.has_solution());
        assert_eq!(SolveStatus::Optimal.name(), "OPTIMAL");
        assert_eq!(SolveStatus::Feasible.to_string(), "FEASIBLE");
    }

    #[test]
    fn solution_accessors() {
        let s = Solution::new(vec![1, 2, 3]);
        assert_eq!(s.value(VarId(1)), 2);
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
    }

    #[test]
    fn require_solution_reports_status() {
        let out = SolveOutcome {
            status: SolveStatus::Infeasible,
            solution: None,
            objective: None,
            nodes_explored: 0,
            solve_time: Duration::from_millis(1),
        };
        let err = out.require_solution().unwrap_err();
        assert!(err.contains("INFEASIBLE"));
    }
}
