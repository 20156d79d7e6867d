//! # flashmem-solver
//!
//! A small constraint-programming solver with a CP-SAT-flavoured API, built
//! from scratch for the FlashMem reproduction (the paper formulates its
//! Overlap Plan Generation problem on Google OR-Tools CP-SAT, which is not
//! available as an offline Rust dependency).
//!
//! The supported surface is exactly what the OPG formulation needs:
//!
//! * bounded integer variables,
//! * linear `≤` / `≥` / `=` constraints,
//! * implications `(x ≥ k) ⇒ (y ≤ m)` (constraint C1 of the paper),
//! * a linear objective, minimised or maximised, with an optional proven
//!   bound that lets a solve stop as soon as it reaches it,
//! * bounds propagation + depth-first branch & bound under an exact node
//!   cap, reporting `OPTIMAL` / `FEASIBLE` / `INFEASIBLE` / `UNKNOWN`
//!   statuses like Table 4 of the paper,
//! * warm-start hints so a greedy plan can seed the exact search.
//!
//! No clock decides when a search stops, so every outcome apart from its
//! measured `solve_time` is a pure function of the model, the hint and the
//! node cap.
//!
//! ## Example
//!
//! ```rust
//! use flashmem_solver::{CpModel, CpSolver, LinearExpr, SolveStatus};
//!
//! let mut model = CpModel::new();
//! let x = model.new_int_var(0, 10, "x");
//! let y = model.new_int_var(0, 10, "y");
//! model.add_ge(LinearExpr::var(x).plus(y, 2), 7);
//! model.minimize(LinearExpr::sum(&[x, y]));
//!
//! let outcome = CpSolver::new().solve(&model);
//! assert_eq!(outcome.status, SolveStatus::Optimal);
//! assert_eq!(outcome.objective, Some(4));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod model;
pub mod propagate;
pub mod search;
pub mod solution;

pub use model::{Constraint, CpModel, Domain, LinearExpr, Sense, VarId};
pub use propagate::{propagate, PropagationResult};
pub use search::{CpSolver, SolverConfig};
pub use solution::{Solution, SolveOutcome, SolveStatus};
