//! Constraint-model construction.
//!
//! The OPG formulation (Section 3.1 of the paper) needs a modest constraint
//! surface: bounded integer variables, linear equalities/inequalities,
//! implications of the form `(x ≥ k) ⇒ (y ≤ m)`, and a linear objective to
//! minimise. [`CpModel`] exposes exactly that surface with an API shaped after
//! Google OR-Tools' CP-SAT builder, which the paper uses.

use serde::{Deserialize, Serialize};

/// Identifier of an integer decision variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct VarId(pub usize);

/// Inclusive integer domain `[lo, hi]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Domain {
    /// Lower bound (inclusive).
    pub lo: i64,
    /// Upper bound (inclusive).
    pub hi: i64,
}

impl Domain {
    /// Create a domain; panics never — an inverted range is normalised to an
    /// explicitly empty domain (`lo > hi` is the canonical empty marker).
    pub fn new(lo: i64, hi: i64) -> Self {
        Domain { lo, hi }
    }

    /// True if no value remains.
    pub fn is_empty(&self) -> bool {
        self.lo > self.hi
    }

    /// True if exactly one value remains.
    pub fn is_fixed(&self) -> bool {
        self.lo == self.hi
    }

    /// Number of values in the domain (0 if empty).
    pub fn size(&self) -> u64 {
        if self.is_empty() {
            0
        } else {
            (self.hi - self.lo + 1) as u64
        }
    }

    /// Intersect with `[lo, hi]`.
    pub fn clamp_to(&self, lo: i64, hi: i64) -> Domain {
        Domain {
            lo: self.lo.max(lo),
            hi: self.hi.min(hi),
        }
    }
}

/// A linear expression `Σ coeff_i · var_i + constant`.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinearExpr {
    /// Terms as (variable, coefficient) pairs.
    pub terms: Vec<(VarId, i64)>,
    /// Constant offset.
    pub constant: i64,
}

impl LinearExpr {
    /// An empty expression (constant 0).
    pub fn new() -> Self {
        LinearExpr::default()
    }

    /// A single-variable expression with coefficient 1.
    pub fn var(v: VarId) -> Self {
        LinearExpr {
            terms: vec![(v, 1)],
            constant: 0,
        }
    }

    /// Add `coeff · v` to the expression (builder style).
    pub fn plus(mut self, v: VarId, coeff: i64) -> Self {
        self.terms.push((v, coeff));
        self
    }

    /// Add a constant (builder style).
    pub fn plus_const(mut self, c: i64) -> Self {
        self.constant += c;
        self
    }

    /// Build an expression summing the given variables with coefficient 1.
    pub fn sum(vars: &[VarId]) -> Self {
        LinearExpr {
            terms: vars.iter().map(|v| (*v, 1)).collect(),
            constant: 0,
        }
    }

    /// True if the expression has no variable terms.
    pub fn is_constant(&self) -> bool {
        self.terms.is_empty()
    }
}

/// A constraint over integer variables.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Constraint {
    /// `expr ≤ bound`.
    LinearLe {
        /// Left-hand side.
        expr: LinearExpr,
        /// Right-hand side bound.
        bound: i64,
    },
    /// `expr ≥ bound`.
    LinearGe {
        /// Left-hand side.
        expr: LinearExpr,
        /// Right-hand side bound.
        bound: i64,
    },
    /// `expr = bound`.
    LinearEq {
        /// Left-hand side.
        expr: LinearExpr,
        /// Right-hand side value.
        bound: i64,
    },
    /// `(cond ≥ threshold) ⇒ (then ≤ bound)` — the C1 loading-distance
    /// implication of the paper (`x_{w,ℓ} ≥ 1 ⇒ z_w ≤ ℓ`).
    IfGeThenLe {
        /// Condition variable.
        cond: VarId,
        /// Condition threshold.
        threshold: i64,
        /// Consequent variable.
        then: VarId,
        /// Consequent upper bound.
        bound: i64,
    },
}

/// Optimisation direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Sense {
    /// Minimise the objective (the OPG objective is a minimisation).
    Minimize,
    /// Maximise the objective.
    Maximize,
}

/// A constraint-programming model: variables, constraints and an optional
/// linear objective.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct CpModel {
    names: Vec<String>,
    domains: Vec<Domain>,
    constraints: Vec<Constraint>,
    objective: Option<(LinearExpr, Sense)>,
    objective_bound: Option<i64>,
}

impl CpModel {
    /// Create an empty model.
    pub fn new() -> Self {
        CpModel::default()
    }

    /// Add an integer variable with inclusive domain `[lo, hi]`.
    pub fn new_int_var(&mut self, lo: i64, hi: i64, name: &str) -> VarId {
        let id = VarId(self.domains.len());
        self.domains.push(Domain::new(lo, hi));
        self.names.push(name.to_string());
        id
    }

    /// Add a 0/1 variable.
    pub fn new_bool_var(&mut self, name: &str) -> VarId {
        self.new_int_var(0, 1, name)
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.domains.len()
    }

    /// Number of constraints.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// The initial domain of `v`.
    pub fn domain(&self, v: VarId) -> Domain {
        self.domains[v.0]
    }

    /// All initial domains.
    pub fn domains(&self) -> &[Domain] {
        &self.domains
    }

    /// The name of `v`.
    pub fn name(&self, v: VarId) -> &str {
        &self.names[v.0]
    }

    /// The constraints added so far.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// The objective, if one was set.
    pub fn objective(&self) -> Option<&(LinearExpr, Sense)> {
        self.objective.as_ref()
    }

    /// Add `expr ≤ bound`.
    pub fn add_le(&mut self, expr: LinearExpr, bound: i64) {
        self.constraints.push(Constraint::LinearLe { expr, bound });
    }

    /// Add `expr ≥ bound`.
    pub fn add_ge(&mut self, expr: LinearExpr, bound: i64) {
        self.constraints.push(Constraint::LinearGe { expr, bound });
    }

    /// Add `expr = bound`.
    pub fn add_eq(&mut self, expr: LinearExpr, bound: i64) {
        self.constraints.push(Constraint::LinearEq { expr, bound });
    }

    /// Add the implication `(cond ≥ threshold) ⇒ (then ≤ bound)`.
    pub fn add_if_ge_then_le(&mut self, cond: VarId, threshold: i64, then: VarId, bound: i64) {
        self.constraints.push(Constraint::IfGeThenLe {
            cond,
            threshold,
            then,
            bound,
        });
    }

    /// Set a minimisation objective.
    pub fn minimize(&mut self, expr: LinearExpr) {
        self.objective = Some((expr, Sense::Minimize));
    }

    /// Set a maximisation objective.
    pub fn maximize(&mut self, expr: LinearExpr) {
        self.objective = Some((expr, Sense::Maximize));
    }

    /// Record a proven bound on the objective: no feasible assignment scores
    /// better than `bound` (below it when minimising, above it when
    /// maximising). The solver stops with `Optimal` as soon as its incumbent
    /// reaches the bound, so an unsound bound yields a wrong `Optimal`.
    /// `None` removes the bound.
    pub fn set_objective_bound(&mut self, bound: Option<i64>) {
        self.objective_bound = bound;
    }

    /// The proven objective bound, if one was recorded.
    pub fn objective_bound(&self) -> Option<i64> {
        self.objective_bound
    }

    /// Evaluate a linear expression under a full assignment.
    pub fn eval_expr(expr: &LinearExpr, assignment: &[i64]) -> i64 {
        expr.terms
            .iter()
            .map(|(v, c)| c * assignment[v.0])
            .sum::<i64>()
            + expr.constant
    }

    /// Check whether a full assignment satisfies every constraint.
    pub fn is_feasible(&self, assignment: &[i64]) -> bool {
        if assignment.len() != self.domains.len() {
            return false;
        }
        for (idx, d) in self.domains.iter().enumerate() {
            if assignment[idx] < d.lo || assignment[idx] > d.hi {
                return false;
            }
        }
        self.constraints.iter().all(|c| match c {
            Constraint::LinearLe { expr, bound } => Self::eval_expr(expr, assignment) <= *bound,
            Constraint::LinearGe { expr, bound } => Self::eval_expr(expr, assignment) >= *bound,
            Constraint::LinearEq { expr, bound } => Self::eval_expr(expr, assignment) == *bound,
            Constraint::IfGeThenLe {
                cond,
                threshold,
                then,
                bound,
            } => assignment[cond.0] < *threshold || assignment[then.0] <= *bound,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn domain_basics() {
        let d = Domain::new(2, 5);
        assert_eq!(d.size(), 4);
        assert!(!d.is_empty());
        assert!(!d.is_fixed());
        assert!(Domain::new(3, 2).is_empty());
        assert!(Domain::new(7, 7).is_fixed());
        assert_eq!(d.clamp_to(3, 10), Domain::new(3, 5));
    }

    #[test]
    fn expression_builders() {
        let mut m = CpModel::new();
        let x = m.new_int_var(0, 10, "x");
        let y = m.new_int_var(0, 10, "y");
        let e = LinearExpr::var(x).plus(y, 2).plus_const(3);
        assert_eq!(CpModel::eval_expr(&e, &[1, 4]), 1 + 8 + 3);
        let s = LinearExpr::sum(&[x, y]);
        assert_eq!(CpModel::eval_expr(&s, &[5, 7]), 12);
        assert!(!s.is_constant());
        assert!(LinearExpr::new().is_constant());
    }

    #[test]
    fn feasibility_checks_all_constraint_kinds() {
        let mut m = CpModel::new();
        let x = m.new_int_var(0, 10, "x");
        let y = m.new_int_var(0, 10, "y");
        m.add_le(LinearExpr::sum(&[x, y]), 10);
        m.add_ge(LinearExpr::var(x), 1);
        m.add_eq(LinearExpr::var(y).plus_const(1), 5);
        m.add_if_ge_then_le(x, 5, y, 3);

        assert!(m.is_feasible(&[2, 4])); // x=2<5 so implication vacuous
        assert!(!m.is_feasible(&[0, 4])); // violates x >= 1
        assert!(!m.is_feasible(&[2, 5])); // violates y + 1 == 5
        assert!(!m.is_feasible(&[6, 4])); // x>=5 forces y<=3
        assert!(!m.is_feasible(&[2])); // wrong arity
        assert!(!m.is_feasible(&[2, 40])); // out of domain
    }

    #[test]
    fn bool_var_is_binary() {
        let mut m = CpModel::new();
        let b = m.new_bool_var("b");
        assert_eq!(m.domain(b), Domain::new(0, 1));
        assert_eq!(m.name(b), "b");
    }

    #[test]
    fn objective_recorded() {
        let mut m = CpModel::new();
        let x = m.new_int_var(0, 5, "x");
        m.minimize(LinearExpr::var(x));
        assert!(matches!(m.objective(), Some((_, Sense::Minimize))));
    }
}
