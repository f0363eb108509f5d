//! # pbds-solver
//!
//! A small, self-contained validity checker for quantifier-free linear
//! arithmetic. It stands in for the SMT solver (Z3) the paper uses to
//! discharge the proof obligations of the sketch-safety check (Sec. 5) and
//! the sketch-reuse check (Sec. 6).
//!
//! The decision procedure — negate, normalize to DNF, refute each disjunct
//! with Fourier–Motzkin elimination — is sound and complete for the formulas
//! the PBDS rules generate (conjunctions/disjunctions/implications of
//! comparisons between linear combinations of attribute variables and
//! constants), and answers `Unknown` instead of guessing when a formula would
//! blow up, which downstream checks treat conservatively.

#![warn(missing_docs)]

pub mod formula;
pub mod solve;

pub use formula::{Atom, CmpOp, Formula, LinExpr};
pub use solve::{implies, is_satisfiable, is_valid, SolverResult};

#[cfg(test)]
mod reference;
