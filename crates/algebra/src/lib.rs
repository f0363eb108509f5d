//! # pbds-algebra
//!
//! Bag relational algebra for the PBDS reproduction: expressions (with query
//! parameters and the sketch-membership predicates PBDS generates), logical
//! query plans for the operators of Fig. 2 in the paper, and parameterized
//! query templates used by the sketch-reuse machinery of Sec. 6.

#![warn(missing_docs)]

pub mod expr;
pub mod plan;
pub mod template;

pub use expr::{col, lit, param, BinOp, Expr};
pub use plan::{infer_type, AggExpr, AggFunc, LogicalPlan, SortKey};
pub use template::{templatize, QueryTemplate};
