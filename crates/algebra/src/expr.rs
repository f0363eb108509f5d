//! Scalar and boolean expressions used in selections, projections and
//! aggregation arguments.
//!
//! Expressions support query *parameters* (`$n` placeholders) because the
//! paper's reuse technique (Sec. 6) reasons about parameterized queries, and
//! two kinds of set-membership predicates that PBDS generates when applying a
//! sketch (Sec. 8): [`Expr::InRanges`] for range-partition sketches and
//! [`Expr::InList`] for composite (PSMIX) sketches.

use pbds_storage::{Value, ValueRange};
use std::fmt;

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// Equality.
    Eq,
    /// Inequality.
    Ne,
    /// Less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater than or equal.
    Ge,
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
}

impl BinOp {
    /// True for comparison operators (result is boolean).
    pub fn is_comparison(&self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
        )
    }

    /// The comparison with its operands swapped: `a op b` holds exactly when
    /// `b op.flipped() a` does. Any other operator is returned unchanged.
    pub fn flipped(self) -> BinOp {
        match self {
            BinOp::Lt => BinOp::Gt,
            BinOp::Le => BinOp::Ge,
            BinOp::Gt => BinOp::Lt,
            BinOp::Ge => BinOp::Le,
            other => other,
        }
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Eq => "=",
            BinOp::Ne => "<>",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
        };
        write!(f, "{s}")
    }
}

/// A scalar / boolean expression tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Reference to a column of the input.
    Column(String),
    /// A literal constant.
    Literal(Value),
    /// A query parameter `$n` (0-based), bound at instantiation time.
    Param(usize),
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        left: Box<Expr>,
        /// Right operand.
        right: Box<Expr>,
    },
    /// Conjunction of predicates.
    And(Vec<Expr>),
    /// Disjunction of predicates.
    Or(Vec<Expr>),
    /// Negation of a predicate.
    Not(Box<Expr>),
    /// `CASE WHEN c1 THEN e1 ... ELSE e END` (used by the naive sketch
    /// initialization the paper compares against in Fig. 12a).
    Case {
        /// `(condition, result)` branches, evaluated in order.
        branches: Vec<(Expr, Expr)>,
        /// Result when no branch matches.
        otherwise: Box<Expr>,
    },
    /// Membership of a column in a set of value ranges; generated when a
    /// range-partition provenance sketch is applied to a query.
    InRanges {
        /// Tested column.
        column: String,
        /// Ordered, non-overlapping ranges.
        ranges: Vec<ValueRange>,
    },
    /// Membership of a composite key in a list of keys; generated when a
    /// composite (PSMIX) sketch is applied.
    InList {
        /// Tested columns (in key order).
        columns: Vec<String>,
        /// Allowed composite keys, in ascending order (the evaluator uses
        /// binary search).
        keys: Vec<Vec<Value>>,
    },
    /// IS NULL test.
    IsNull(Box<Expr>),
}

impl Expr {
    /// All column names referenced by this expression.
    pub fn columns(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.collect_columns(&mut out);
        out.sort();
        out.dedup();
        out
    }

    fn collect_columns(&self, out: &mut Vec<String>) {
        match self {
            Expr::Column(c) => out.push(c.clone()),
            Expr::Literal(_) | Expr::Param(_) => {}
            Expr::Binary { left, right, .. } => {
                left.collect_columns(out);
                right.collect_columns(out);
            }
            Expr::And(es) | Expr::Or(es) => {
                for e in es {
                    e.collect_columns(out);
                }
            }
            Expr::Not(e) | Expr::IsNull(e) => e.collect_columns(out),
            Expr::Case {
                branches,
                otherwise,
            } => {
                for (c, r) in branches {
                    c.collect_columns(out);
                    r.collect_columns(out);
                }
                otherwise.collect_columns(out);
            }
            Expr::InRanges { column, .. } => out.push(column.clone()),
            Expr::InList { columns, .. } => out.extend(columns.iter().cloned()),
        }
    }

    /// All parameter indices referenced by this expression.
    pub fn params(&self) -> Vec<usize> {
        let mut out = Vec::new();
        self.collect_params(&mut out);
        out.sort_unstable();
        out.dedup();
        out
    }

    fn collect_params(&self, out: &mut Vec<usize>) {
        match self {
            Expr::Param(i) => out.push(*i),
            Expr::Column(_) | Expr::Literal(_) => {}
            Expr::Binary { left, right, .. } => {
                left.collect_params(out);
                right.collect_params(out);
            }
            Expr::And(es) | Expr::Or(es) => {
                for e in es {
                    e.collect_params(out);
                }
            }
            Expr::Not(e) | Expr::IsNull(e) => e.collect_params(out),
            Expr::Case {
                branches,
                otherwise,
            } => {
                for (c, r) in branches {
                    c.collect_params(out);
                    r.collect_params(out);
                }
                otherwise.collect_params(out);
            }
            Expr::InRanges { .. } | Expr::InList { .. } => {}
        }
    }

    /// Substitute parameters with the given binding, producing a closed
    /// expression. Parameters without a binding are left in place.
    pub fn bind_params(&self, binding: &[Value]) -> Expr {
        self.transform(&|e| match e {
            Expr::Param(i) if *i < binding.len() => Some(Expr::Literal(binding[*i].clone())),
            _ => None,
        })
    }

    /// Bottom-up rewrite: `f` returns `Some(replacement)` to replace a node or
    /// `None` to keep it (children are always rewritten first).
    pub fn transform(&self, f: &impl Fn(&Expr) -> Option<Expr>) -> Expr {
        let rebuilt = match self {
            Expr::Column(_)
            | Expr::Literal(_)
            | Expr::Param(_)
            | Expr::InRanges { .. }
            | Expr::InList { .. } => self.clone(),
            Expr::Binary { op, left, right } => Expr::Binary {
                op: *op,
                left: Box::new(left.transform(f)),
                right: Box::new(right.transform(f)),
            },
            Expr::And(es) => Expr::And(es.iter().map(|e| e.transform(f)).collect()),
            Expr::Or(es) => Expr::Or(es.iter().map(|e| e.transform(f)).collect()),
            Expr::Not(e) => Expr::Not(Box::new(e.transform(f))),
            Expr::IsNull(e) => Expr::IsNull(Box::new(e.transform(f))),
            Expr::Case {
                branches,
                otherwise,
            } => Expr::Case {
                branches: branches
                    .iter()
                    .map(|(c, r)| (c.transform(f), r.transform(f)))
                    .collect(),
                otherwise: Box::new(otherwise.transform(f)),
            },
        };
        f(&rebuilt).unwrap_or(rebuilt)
    }

    /// Split a conjunction into its conjuncts (a non-`And` expression is its
    /// own single conjunct).
    pub fn conjuncts(&self) -> Vec<&Expr> {
        match self {
            Expr::And(es) => es.iter().flat_map(|e| e.conjuncts()).collect(),
            other => vec![other],
        }
    }

    // ------------------------------------------------------------------
    // Fluent constructors
    // ------------------------------------------------------------------

    fn binary(self, op: BinOp, other: Expr) -> Expr {
        Expr::Binary {
            op,
            left: Box::new(self),
            right: Box::new(other),
        }
    }

    /// `self = other`
    pub fn eq(self, other: Expr) -> Expr {
        self.binary(BinOp::Eq, other)
    }
    /// `self <> other`
    pub fn ne(self, other: Expr) -> Expr {
        self.binary(BinOp::Ne, other)
    }
    /// `self < other`
    pub fn lt(self, other: Expr) -> Expr {
        self.binary(BinOp::Lt, other)
    }
    /// `self <= other`
    pub fn le(self, other: Expr) -> Expr {
        self.binary(BinOp::Le, other)
    }
    /// `self > other`
    pub fn gt(self, other: Expr) -> Expr {
        self.binary(BinOp::Gt, other)
    }
    /// `self >= other`
    pub fn ge(self, other: Expr) -> Expr {
        self.binary(BinOp::Ge, other)
    }
    /// `self + other`
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, other: Expr) -> Expr {
        self.binary(BinOp::Add, other)
    }
    /// `self - other`
    #[allow(clippy::should_implement_trait)]
    pub fn sub(self, other: Expr) -> Expr {
        self.binary(BinOp::Sub, other)
    }
    /// `self * other`
    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, other: Expr) -> Expr {
        self.binary(BinOp::Mul, other)
    }
    /// `self / other`
    #[allow(clippy::should_implement_trait)]
    pub fn div(self, other: Expr) -> Expr {
        self.binary(BinOp::Div, other)
    }
    /// `self AND other`
    pub fn and(self, other: Expr) -> Expr {
        match self {
            Expr::And(mut es) => {
                es.push(other);
                Expr::And(es)
            }
            s => Expr::And(vec![s, other]),
        }
    }
    /// `self OR other`
    pub fn or(self, other: Expr) -> Expr {
        match self {
            Expr::Or(mut es) => {
                es.push(other);
                Expr::Or(es)
            }
            s => Expr::Or(vec![s, other]),
        }
    }
    /// `NOT self`
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Expr {
        Expr::Not(Box::new(self))
    }
    /// `self BETWEEN lo AND hi` (inclusive).
    pub fn between(self, lo: Expr, hi: Expr) -> Expr {
        self.clone().ge(lo).and(self.le(hi))
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Column(c) => write!(f, "{c}"),
            Expr::Literal(v) => match v {
                Value::Str(s) => write!(f, "'{s}'"),
                other => write!(f, "{other}"),
            },
            Expr::Param(i) => write!(f, "${i}"),
            Expr::Binary { op, left, right } => write!(f, "({left} {op} {right})"),
            Expr::And(es) => {
                let parts: Vec<String> = es.iter().map(|e| e.to_string()).collect();
                write!(f, "({})", parts.join(" AND "))
            }
            Expr::Or(es) => {
                let parts: Vec<String> = es.iter().map(|e| e.to_string()).collect();
                write!(f, "({})", parts.join(" OR "))
            }
            Expr::Not(e) => write!(f, "(NOT {e})"),
            Expr::IsNull(e) => write!(f, "({e} IS NULL)"),
            Expr::Case {
                branches,
                otherwise,
            } => {
                write!(f, "CASE")?;
                for (c, r) in branches {
                    write!(f, " WHEN {c} THEN {r}")?;
                }
                write!(f, " ELSE {otherwise} END")
            }
            Expr::InRanges { column, ranges } => {
                write!(f, "{column} IN_RANGES(")?;
                for (i, r) in ranges.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    match (&r.lo, &r.hi) {
                        (Some(lo), Some(hi)) => write!(f, "({lo},{hi}]")?,
                        (None, Some(hi)) => write!(f, "(-inf,{hi}]")?,
                        (Some(lo), None) => write!(f, "({lo},+inf)")?,
                        (None, None) => write!(f, "(-inf,+inf)")?,
                    }
                }
                write!(f, ")")
            }
            Expr::InList { columns, keys } => {
                write!(f, "({}) IN <{} keys>", columns.join(","), keys.len())
            }
        }
    }
}

/// Column reference helper.
pub fn col(name: impl Into<String>) -> Expr {
    Expr::Column(name.into())
}

/// Literal helper.
pub fn lit(v: impl Into<Value>) -> Expr {
    Expr::Literal(v.into())
}

/// Parameter helper.
pub fn param(i: usize) -> Expr {
    Expr::Param(i)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flipped_swaps_the_operands() {
        let holds = |op: BinOp, a: i64, b: i64| match op {
            BinOp::Eq => a == b,
            BinOp::Ne => a != b,
            BinOp::Lt => a < b,
            BinOp::Le => a <= b,
            BinOp::Gt => a > b,
            BinOp::Ge => a >= b,
            _ => unreachable!("not a comparison"),
        };
        for op in [
            BinOp::Eq,
            BinOp::Ne,
            BinOp::Lt,
            BinOp::Le,
            BinOp::Gt,
            BinOp::Ge,
        ] {
            for (a, b) in [(1, 2), (2, 2), (3, 2)] {
                assert_eq!(holds(op, a, b), holds(op.flipped(), b, a), "{a} {op} {b}");
            }
        }
        for op in [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div] {
            assert_eq!(op.flipped(), op);
        }
    }

    #[test]
    fn fluent_builders_compose() {
        let e = col("state").eq(lit("CA")).and(col("popden").gt(lit(1000)));
        assert_eq!(e.columns(), vec!["popden".to_string(), "state".to_string()]);
        assert_eq!(e.conjuncts().len(), 2);
    }

    #[test]
    fn params_are_collected_and_bound() {
        let e = col("a").gt(param(0)).and(col("b").le(param(1)));
        assert_eq!(e.params(), vec![0, 1]);
        let bound = e.bind_params(&[Value::Int(10), Value::Int(20)]);
        assert!(bound.params().is_empty());
        assert_eq!(bound.conjuncts()[0], &col("a").gt(lit(10)),);
    }

    #[test]
    fn partial_binding_leaves_unbound_params() {
        let e = col("a").gt(param(1));
        let bound = e.bind_params(&[Value::Int(5)]);
        assert_eq!(bound.params(), vec![1]);
    }

    #[test]
    fn between_expands_to_conjunction() {
        let e = col("state").between(lit("AL"), lit("DE"));
        let cs = e.conjuncts();
        assert_eq!(cs.len(), 2);
    }

    #[test]
    fn display_is_sql_like() {
        let e = col("state").eq(lit("CA"));
        assert_eq!(e.to_string(), "(state = 'CA')");
        let c = Expr::Case {
            branches: vec![(col("a").lt(lit(1)), lit(0))],
            otherwise: Box::new(lit(1)),
        };
        assert!(c.to_string().starts_with("CASE WHEN"));
    }

    #[test]
    fn transform_rewrites_bottom_up() {
        let e = col("a").add(lit(1)).gt(lit(5));
        let rewritten = e.transform(&|x| match x {
            Expr::Column(c) if c == "a" => Some(col("b")),
            _ => None,
        });
        assert_eq!(rewritten.columns(), vec!["b".to_string()]);
    }

    #[test]
    fn in_ranges_reports_column() {
        let e = Expr::InRanges {
            column: "state".into(),
            ranges: vec![ValueRange {
                lo: None,
                hi: Some(Value::from("DE")),
            }],
        };
        assert_eq!(e.columns(), vec!["state".to_string()]);
        assert!(e.to_string().contains("IN_RANGES"));
    }
}
