//! # flashmem-solver
//!
//! [`SolveStatus`], the termination status an LC-OPG plan reports, in the
//! vocabulary of the CP-SAT solver the paper plans with: Table 4 reports
//! `OPTIMAL` and `FEASIBLE` plans under a 150 s limit.
//!
//! LC-OPG decides every weight window in closed form (see `flashmem-core`'s
//! `opg` module), so no constraint solver runs; this crate holds only the
//! status type.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use serde::{Deserialize, Serialize};

/// How an LC-OPG plan was reached.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SolveStatus {
    /// Every window took its optimum: the fill it streams or the preload.
    Optimal,
    /// Some window went on to the fallback tiers: the soft-threshold retry,
    /// the greedy backup and incremental preloading.
    Feasible,
}

impl SolveStatus {
    /// Uppercase name as printed in Table 4 (`OPTIMAL` or `FEASIBLE`).
    pub fn name(&self) -> &'static str {
        match self {
            SolveStatus::Optimal => "OPTIMAL",
            SolveStatus::Feasible => "FEASIBLE",
        }
    }
}

impl std::fmt::Display for SolveStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_match_table_4() {
        assert_eq!(SolveStatus::Optimal.name(), "OPTIMAL");
        assert_eq!(SolveStatus::Feasible.to_string(), "FEASIBLE");
    }
}
