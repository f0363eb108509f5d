//! The reference interpreter: expression evaluation over one row, resolving
//! every column by name.
//!
//! No execution path runs it. The pipeline binds each expression once into
//! a [`crate::CompiledExpr`] and filters scans with the chunk kernels; this
//! interpreter is what `tests/compiled_expr_equivalence.rs` proves both
//! against, and what the logical oracle of `tests/physical_equivalence.rs`
//! evaluates with. [`ExecError`] and the binary-operator semantics
//! (`eval_binary`) are shared with the compiled evaluator.

use pbds_algebra::{BinOp, Expr};
use pbds_storage::{Row, Schema, Value};

/// Errors raised during expression evaluation or query execution.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// A referenced column is missing from the input schema.
    UnknownColumn(String),
    /// A referenced table is missing from the database.
    UnknownTable(String),
    /// An unbound query parameter was encountered at runtime.
    UnboundParameter(usize),
    /// Catch-all for malformed plans.
    Plan(String),
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::UnknownColumn(c) => write!(f, "unknown column: {c}"),
            ExecError::UnknownTable(t) => write!(f, "unknown table: {t}"),
            ExecError::UnboundParameter(i) => write!(f, "unbound parameter ${i}"),
            ExecError::Plan(msg) => write!(f, "invalid plan: {msg}"),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<pbds_storage::StorageError> for ExecError {
    fn from(e: pbds_storage::StorageError) -> Self {
        match e {
            pbds_storage::StorageError::UnknownTable(t) => ExecError::UnknownTable(t),
            pbds_storage::StorageError::UnknownColumn { column, .. } => {
                ExecError::UnknownColumn(column)
            }
            e @ pbds_storage::StorageError::ArityMismatch { .. } => ExecError::Plan(e.to_string()),
        }
    }
}

/// Evaluate an expression against one row.
pub fn eval_expr(expr: &Expr, schema: &Schema, row: &Row) -> Result<Value, ExecError> {
    match expr {
        Expr::Column(name) => {
            let idx = schema
                .index_of(name)
                .ok_or_else(|| ExecError::UnknownColumn(name.clone()))?;
            Ok(row[idx].clone())
        }
        Expr::Literal(v) => Ok(v.clone()),
        Expr::Param(i) => Err(ExecError::UnboundParameter(*i)),
        Expr::Binary { op, left, right } => {
            let l = eval_expr(left, schema, row)?;
            let r = eval_expr(right, schema, row)?;
            Ok(eval_binary(*op, &l, &r))
        }
        Expr::And(es) => {
            for e in es {
                match eval_expr(e, schema, row)?.as_bool() {
                    Some(true) => {}
                    _ => return Ok(Value::Bool(false)),
                }
            }
            Ok(Value::Bool(true))
        }
        Expr::Or(es) => {
            for e in es {
                if eval_expr(e, schema, row)?.as_bool() == Some(true) {
                    return Ok(Value::Bool(true));
                }
            }
            Ok(Value::Bool(false))
        }
        Expr::Not(e) => {
            let v = eval_expr(e, schema, row)?;
            Ok(match v.as_bool() {
                Some(b) => Value::Bool(!b),
                None => Value::Bool(false),
            })
        }
        Expr::IsNull(e) => Ok(Value::Bool(eval_expr(e, schema, row)?.is_null())),
        Expr::Case {
            branches,
            otherwise,
        } => {
            for (cond, result) in branches {
                if eval_expr(cond, schema, row)?.as_bool() == Some(true) {
                    return eval_expr(result, schema, row);
                }
            }
            eval_expr(otherwise, schema, row)
        }
        Expr::InRanges { column, ranges } => {
            let idx = schema
                .index_of(column)
                .ok_or_else(|| ExecError::UnknownColumn(column.clone()))?;
            let v = &row[idx];
            if v.is_null() {
                return Ok(Value::Bool(false));
            }
            // Ranges are ordered and non-overlapping: find the first range
            // whose upper bound is >= v and test containment.
            let pos = ranges.partition_point(|r| match &r.hi {
                Some(hi) => hi < v,
                None => false,
            });
            Ok(Value::Bool(ranges.get(pos).is_some_and(|r| r.contains(v))))
        }
        Expr::InList { columns, keys } => {
            let mut key = Vec::with_capacity(columns.len());
            for c in columns {
                let idx = schema
                    .index_of(c)
                    .ok_or_else(|| ExecError::UnknownColumn(c.clone()))?;
                key.push(row[idx].clone());
            }
            // Keys are sorted (see `Expr::InList`), so membership is O(log n).
            Ok(Value::Bool(keys.binary_search(&key).is_ok()))
        }
    }
}

/// Evaluate a predicate; SQL-style three-valued logic collapses NULL/unknown
/// to `false` (a row only qualifies when the predicate is definitely true).
pub fn eval_predicate(expr: &Expr, schema: &Schema, row: &Row) -> Result<bool, ExecError> {
    Ok(eval_expr(expr, schema, row)?.as_bool() == Some(true))
}

pub(crate) fn eval_binary(op: BinOp, l: &Value, r: &Value) -> Value {
    use BinOp::*;
    match op {
        Add => l.add(r),
        Sub => l.sub(r),
        Mul => l.mul(r),
        Div => l.div(r),
        Eq | Ne | Lt | Le | Gt | Ge => {
            if l.is_null() || r.is_null() {
                return Value::Null;
            }
            let c = l.cmp(r);
            let b = match op {
                Eq => c.is_eq(),
                Ne => !c.is_eq(),
                Lt => c.is_lt(),
                Le => c.is_le(),
                Gt => c.is_gt(),
                Ge => c.is_ge(),
                _ => unreachable!(),
            };
            Value::Bool(b)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbds_algebra::{col, lit, param};
    use pbds_storage::{DataType, ValueRange};

    fn schema() -> Schema {
        Schema::from_pairs(&[
            ("popden", DataType::Int),
            ("city", DataType::Str),
            ("state", DataType::Str),
        ])
    }

    fn row() -> Row {
        vec![
            Value::Int(6000),
            Value::from("San Diego"),
            Value::from("CA"),
        ]
    }

    #[test]
    fn column_and_literal_access() {
        let v = eval_expr(&col("state"), &schema(), &row()).unwrap();
        assert_eq!(v, Value::from("CA"));
        assert_eq!(
            eval_expr(&lit(5), &schema(), &row()).unwrap(),
            Value::Int(5)
        );
    }

    #[test]
    fn comparisons_and_boolean_logic() {
        let pred = col("state").eq(lit("CA")).and(col("popden").gt(lit(5000)));
        assert!(eval_predicate(&pred, &schema(), &row()).unwrap());
        let pred2 = col("state").eq(lit("NY")).or(col("popden").lt(lit(100)));
        assert!(!eval_predicate(&pred2, &schema(), &row()).unwrap());
        let pred3 = col("state").eq(lit("NY")).not();
        assert!(eval_predicate(&pred3, &schema(), &row()).unwrap());
    }

    #[test]
    fn null_comparisons_are_unknown_and_filtered() {
        let schema = Schema::from_pairs(&[("a", DataType::Int)]);
        let row = vec![Value::Null];
        assert!(!eval_predicate(&col("a").gt(lit(1)), &schema, &row).unwrap());
        assert!(eval_predicate(&Expr::IsNull(Box::new(col("a"))), &schema, &row).unwrap());
    }

    #[test]
    fn unbound_param_is_error() {
        assert_eq!(
            eval_expr(&param(0), &schema(), &row()).unwrap_err(),
            ExecError::UnboundParameter(0)
        );
    }

    #[test]
    fn unknown_column_is_error() {
        assert!(matches!(
            eval_expr(&col("nope"), &schema(), &row()).unwrap_err(),
            ExecError::UnknownColumn(_)
        ));
    }

    #[test]
    fn case_expression_picks_first_matching_branch() {
        let e = Expr::Case {
            branches: vec![
                (col("popden").gt(lit(10_000)), lit("huge")),
                (col("popden").gt(lit(5_000)), lit("big")),
            ],
            otherwise: Box::new(lit("small")),
        };
        assert_eq!(
            eval_expr(&e, &schema(), &row()).unwrap(),
            Value::from("big")
        );
    }

    #[test]
    fn in_ranges_linear_and_binary_agree() {
        let ranges = vec![
            ValueRange {
                lo: None,
                hi: Some(Value::Int(10)),
            },
            ValueRange {
                lo: Some(Value::Int(20)),
                hi: Some(Value::Int(30)),
            },
            ValueRange {
                lo: Some(Value::Int(50)),
                hi: None,
            },
        ];
        let schema = Schema::from_pairs(&[("a", DataType::Int)]);
        let bs = Expr::InRanges {
            column: "a".into(),
            ranges: ranges.clone(),
        };
        // The binary search answers as a linear scan over the ranges would.
        for v in [-5i64, 5, 10, 15, 20, 21, 30, 31, 49, 50, 51, 1000] {
            let v = Value::Int(v);
            assert_eq!(
                eval_predicate(&bs, &schema, &vec![v.clone()]).unwrap(),
                ranges.iter().any(|r| r.contains(&v)),
                "disagreement at {v}"
            );
        }
    }

    #[test]
    fn in_list_membership() {
        let e = Expr::InList {
            columns: vec!["state".into(), "city".into()],
            keys: vec![vec![Value::from("CA"), Value::from("San Diego")]],
        };
        assert!(eval_predicate(&e, &schema(), &row()).unwrap());
        let e2 = Expr::InList {
            columns: vec!["state".into(), "city".into()],
            keys: vec![vec![Value::from("NY"), Value::from("Buffalo")]],
        };
        assert!(!eval_predicate(&e2, &schema(), &row()).unwrap());
    }

    #[test]
    fn arithmetic_in_expressions() {
        let e = col("popden").mul(lit(2)).add(lit(1));
        assert_eq!(
            eval_expr(&e, &schema(), &row()).unwrap(),
            Value::Int(12_001)
        );
    }
}
