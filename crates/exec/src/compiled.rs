//! Compiled expressions: column names bound to schema indexes once.
//!
//! [`crate::eval::eval_expr`] re-resolves every column name by string
//! (`Schema::index_of`) *per row per expression node* — on the scan hot path
//! that lookup dominates predicate evaluation. A [`CompiledExpr`] is the same
//! expression with every `Expr::Column` resolved to a positional index once
//! per `(expr, schema)` pair; evaluation is then pure index arithmetic.
//!
//! Error behaviour is **identical** to the interpreter: binding never fails
//! eagerly. Unknown columns and unbound parameters compile to lazy error
//! nodes that only raise when (and if) the interpreter would have evaluated
//! them — short-circuiting `AND`/`OR`/`CASE` skip them exactly like
//! `eval_expr` does. `tests/compiled_expr_equivalence.rs` proves
//! `eval_expr == CompiledExpr::eval` (values *and* errors) by property
//! testing.

use crate::eval::{eval_binary, ExecError};
use crate::vector::SelBitmap;
use pbds_algebra::{BinOp, Expr};
use pbds_storage::{Row, Schema, Value, ValueRange};

/// A column reference resolved against a schema — or recorded as unknown, to
/// be raised lazily at evaluation time (matching the interpreter).
#[derive(Debug, Clone, PartialEq)]
pub enum ColRef {
    /// Position of the column in the input row.
    Idx(usize),
    /// The schema has no such column; evaluating this node errors.
    Unknown(String),
}

impl ColRef {
    fn bind(schema: &Schema, name: &str) -> ColRef {
        match schema.index_of(name) {
            Some(i) => ColRef::Idx(i),
            None => ColRef::Unknown(name.to_string()),
        }
    }

    #[inline]
    fn get<'r>(&self, row: &'r Row) -> Result<&'r Value, ExecError> {
        match self {
            ColRef::Idx(i) => Ok(&row[*i]),
            ColRef::Unknown(name) => Err(ExecError::UnknownColumn(name.clone())),
        }
    }

    /// The bound index, if the column resolved.
    pub fn index(&self) -> Option<usize> {
        match self {
            ColRef::Idx(i) => Some(*i),
            ColRef::Unknown(_) => None,
        }
    }
}

/// One range: exclusive lower bound, inclusive upper bound, `None` for open.
type Bounds<B> = (Option<B>, Option<B>);

/// The ranges of a sketch predicate ([`Expr::InRanges`]), compiled once per
/// query. Three ways to test a cell, cheapest first:
///
/// * an `Int` cell, when the ranges are all-`Int`, sorted and disjoint and
///   their finite bounds span at most `IntRangeBits::MAX_SPAN` values: one
///   clamped bit lookup (`IntRangeBits`);
/// * an `Int` cell, when every bound is an `Int`: integer compares along the
///   binary search (the fallback for wide spans, and for unsorted or
///   overlapping ranges, where the search and the union differ);
/// * every other cell, and every cell when some bound is not an `Int`:
///   [`Value`] compares.
///
/// All three answer exactly as the interpreter does.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledRanges {
    values: Vec<Bounds<Value>>,
    ints: Option<Vec<Bounds<i64>>>,
    bits: Option<IntRangeBits>,
}

/// Range membership of every `i64` as a bitmap over the span of the
/// ranges' finite bounds, `low ..= low + width`.
///
/// Every value at or below `low` compares alike against every bound, and so
/// does every value above `low + width`: bit 0 answers the first class, bit
/// `width + 1` the second, and bit `v - low` each value between. A cell's
/// bit is its offset from `low`, clamped to that interval.
#[derive(Debug, Clone, PartialEq)]
struct IntRangeBits {
    low: i64,
    width: u64,
    bits: SelBitmap,
}

impl IntRangeBits {
    /// The widest span of finite bounds a bitmap is built for (32 KiB).
    const MAX_SPAN: u64 = 1 << 18;

    /// The bitmap of `ranges` when they are sorted and disjoint — each
    /// range non-empty (`lo < hi`), each upper bound at most the next lower
    /// one, open ends only at the outside — and their finite bounds span
    /// at most [`Self::MAX_SPAN`] values. Over such ranges the binary-search
    /// lookup agrees with the union this bitmap holds.
    fn new(ranges: &[Bounds<i64>]) -> Option<Self> {
        let non_empty = ranges
            .iter()
            .all(|r| !matches!(r, (Some(lo), Some(hi)) if lo >= hi));
        let ordered = ranges
            .windows(2)
            .all(|w| matches!((w[0].1, w[1].0), (Some(hi), Some(lo)) if hi <= lo));
        if !(non_empty && ordered) {
            return None;
        }
        let finite = ranges.iter().flat_map(|(lo, hi)| [lo, hi]).flatten();
        let low = *finite.clone().min()?;
        let width = finite.max()?.wrapping_sub(low) as u64;
        if width >= Self::MAX_SPAN {
            return None;
        }
        let offset = |b: i64| b.wrapping_sub(low) as u64;
        let mut bits = SelBitmap::zeros(width as usize + 2);
        for &(lo, hi) in ranges {
            // The values above `lo` and not above `hi`, as bit positions.
            let first = lo.map_or(0, |b| offset(b) + 1);
            let last = hi.map_or(width + 1, offset);
            if first <= last {
                bits.set_range(first as usize, last as usize + 1);
            }
        }
        Some(IntRangeBits { low, width, bits })
    }

    #[inline]
    fn contains(&self, i: i64) -> bool {
        let offset = i.max(self.low).wrapping_sub(self.low) as u64;
        self.bits.get(offset.min(self.width + 1) as usize)
    }
}

impl CompiledRanges {
    fn new(ranges: &[ValueRange]) -> Self {
        let values: Vec<Bounds<Value>> = ranges
            .iter()
            .map(|r| (r.lo.clone(), r.hi.clone()))
            .collect();
        let int = |b: &Option<Value>| match b {
            None => Some(None),
            Some(Value::Int(i)) => Some(Some(*i)),
            Some(_) => None,
        };
        let ints: Option<Vec<_>> = values
            .iter()
            .map(|(lo, hi)| Some((int(lo)?, int(hi)?)))
            .collect();
        CompiledRanges {
            bits: ints.as_deref().and_then(IntRangeBits::new),
            values,
            ints,
        }
    }

    /// Membership of a non-NULL cell.
    pub fn contains(&self, v: &Value) -> bool {
        match v {
            Value::Int(i) => self.contains_int(*i),
            _ => self.contains_by(|b| v > b),
        }
    }

    /// Membership of an `Int` cell.
    #[inline]
    pub(crate) fn contains_int(&self, i: i64) -> bool {
        match (&self.bits, &self.ints) {
            (Some(bits), _) => bits.contains(i),
            (None, Some(ints)) => found(ints, |b| i > *b),
            (None, None) => self.contains_by(|b| Value::Int(i) > *b),
        }
    }

    /// Membership of a non-NULL cell given `above(bound)`: whether the cell
    /// is greater than `bound` in `Value`'s order.
    pub(crate) fn contains_by(&self, above: impl Fn(&Value) -> bool) -> bool {
        found(&self.values, above)
    }
}

/// Range membership of a cell given `above(bound)`, exactly as the
/// interpreter decides it: a binary search finds the first range whose upper
/// bound the cell is not above, and that range holds the cell when the cell
/// is above its lower bound and not above its upper one.
fn found<B>(ranges: &[Bounds<B>], above: impl Fn(&B) -> bool) -> bool {
    let pos = ranges.partition_point(|(_, hi)| hi.as_ref().is_some_and(&above));
    ranges
        .get(pos)
        .is_some_and(|(lo, hi)| lo.as_ref().is_none_or(&above) && !hi.as_ref().is_some_and(&above))
}

/// An [`Expr`] with all column references bound to row positions.
#[derive(Debug, Clone, PartialEq)]
pub enum CompiledExpr {
    /// Bound column access.
    Column(ColRef),
    /// Constant.
    Literal(Value),
    /// Unbound parameter: errors when evaluated, like the interpreter.
    Param(usize),
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        left: Box<CompiledExpr>,
        /// Right operand.
        right: Box<CompiledExpr>,
    },
    /// Short-circuit conjunction (NULL collapses to `false`).
    And(Vec<CompiledExpr>),
    /// Short-circuit disjunction.
    Or(Vec<CompiledExpr>),
    /// Negation (`NOT NULL`-ish inputs collapse to `false`).
    Not(Box<CompiledExpr>),
    /// NULL test.
    IsNull(Box<CompiledExpr>),
    /// `CASE WHEN … THEN … ELSE …`.
    Case {
        /// `(condition, result)` branches, tested in order.
        branches: Vec<(CompiledExpr, CompiledExpr)>,
        /// Fallback result.
        otherwise: Box<CompiledExpr>,
    },
    /// Range membership on one column (sketch-injected predicate).
    InRanges {
        /// Bound column.
        column: ColRef,
        /// The compiled ranges.
        ranges: CompiledRanges,
    },
    /// Sorted-list membership on a composite key.
    InList {
        /// Bound key columns.
        columns: Vec<ColRef>,
        /// Sorted member keys.
        keys: Vec<Vec<Value>>,
    },
}

impl CompiledExpr {
    /// Bind `expr`'s column names against `schema`. Never fails: unknown
    /// columns and parameters become lazy error nodes so evaluation reports
    /// exactly what the interpreter would.
    pub fn compile(expr: &Expr, schema: &Schema) -> CompiledExpr {
        match expr {
            Expr::Column(name) => CompiledExpr::Column(ColRef::bind(schema, name)),
            Expr::Literal(v) => CompiledExpr::Literal(v.clone()),
            Expr::Param(i) => CompiledExpr::Param(*i),
            Expr::Binary { op, left, right } => CompiledExpr::Binary {
                op: *op,
                left: Box::new(Self::compile(left, schema)),
                right: Box::new(Self::compile(right, schema)),
            },
            Expr::And(es) => {
                CompiledExpr::And(es.iter().map(|e| Self::compile(e, schema)).collect())
            }
            Expr::Or(es) => CompiledExpr::Or(es.iter().map(|e| Self::compile(e, schema)).collect()),
            Expr::Not(e) => CompiledExpr::Not(Box::new(Self::compile(e, schema))),
            Expr::IsNull(e) => CompiledExpr::IsNull(Box::new(Self::compile(e, schema))),
            Expr::Case {
                branches,
                otherwise,
            } => CompiledExpr::Case {
                branches: branches
                    .iter()
                    .map(|(c, r)| (Self::compile(c, schema), Self::compile(r, schema)))
                    .collect(),
                otherwise: Box::new(Self::compile(otherwise, schema)),
            },
            Expr::InRanges { column, ranges } => CompiledExpr::InRanges {
                column: ColRef::bind(schema, column),
                ranges: CompiledRanges::new(ranges),
            },
            Expr::InList { columns, keys } => CompiledExpr::InList {
                columns: columns.iter().map(|c| ColRef::bind(schema, c)).collect(),
                keys: keys.clone(),
            },
        }
    }

    /// Evaluate against one row. Semantics mirror
    /// [`crate::eval::eval_expr`] node for node.
    pub fn eval(&self, row: &Row) -> Result<Value, ExecError> {
        match self {
            CompiledExpr::Column(c) => Ok(c.get(row)?.clone()),
            CompiledExpr::Literal(v) => Ok(v.clone()),
            CompiledExpr::Param(i) => Err(ExecError::UnboundParameter(*i)),
            CompiledExpr::Binary { op, left, right } => {
                let l = left.eval(row)?;
                let r = right.eval(row)?;
                Ok(eval_binary(*op, &l, &r))
            }
            CompiledExpr::And(es) => {
                for e in es {
                    match e.eval(row)?.as_bool() {
                        Some(true) => {}
                        _ => return Ok(Value::Bool(false)),
                    }
                }
                Ok(Value::Bool(true))
            }
            CompiledExpr::Or(es) => {
                for e in es {
                    if e.eval(row)?.as_bool() == Some(true) {
                        return Ok(Value::Bool(true));
                    }
                }
                Ok(Value::Bool(false))
            }
            CompiledExpr::Not(e) => {
                let v = e.eval(row)?;
                Ok(match v.as_bool() {
                    Some(b) => Value::Bool(!b),
                    None => Value::Bool(false),
                })
            }
            CompiledExpr::IsNull(e) => Ok(Value::Bool(e.eval(row)?.is_null())),
            CompiledExpr::Case {
                branches,
                otherwise,
            } => {
                for (cond, result) in branches {
                    if cond.eval(row)?.as_bool() == Some(true) {
                        return result.eval(row);
                    }
                }
                otherwise.eval(row)
            }
            CompiledExpr::InRanges { column, ranges } => {
                let v = column.get(row)?;
                Ok(Value::Bool(!v.is_null() && ranges.contains(v)))
            }
            CompiledExpr::InList { columns, keys } => {
                let mut key = Vec::with_capacity(columns.len());
                for c in columns {
                    key.push(c.get(row)?.clone());
                }
                Ok(Value::Bool(keys.binary_search(&key).is_ok()))
            }
        }
    }

    /// Evaluate as a predicate: SQL three-valued logic collapses NULL /
    /// unknown to `false` (mirrors [`crate::eval::eval_predicate`]).
    #[inline]
    pub fn matches(&self, row: &Row) -> Result<bool, ExecError> {
        match self {
            // The re-check of every index-probed row: no `Value` is built.
            CompiledExpr::InRanges { column, ranges } => {
                let v = column.get(row)?;
                Ok(!v.is_null() && ranges.contains(v))
            }
            _ => Ok(self.eval(row)?.as_bool() == Some(true)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{eval_expr, eval_predicate};
    use pbds_algebra::{col, lit, param};
    use pbds_storage::DataType;

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
    fn compiled_matches_interpreter_on_basics() {
        let exprs = vec![
            col("state").eq(lit("CA")).and(col("popden").gt(lit(5000))),
            col("state").eq(lit("NY")).or(col("popden").lt(lit(100))),
            col("popden").mul(lit(2)).add(lit(1)),
            Expr::IsNull(Box::new(col("city"))),
            col("popden").gt(lit(10_000)).not(),
        ];
        let s = schema();
        let r = row();
        for e in exprs {
            let compiled = CompiledExpr::compile(&e, &s);
            assert_eq!(compiled.eval(&r), eval_expr(&e, &s, &r), "expr {e}");
        }
    }

    #[test]
    fn unknown_column_errors_lazily_like_the_interpreter() {
        let s = schema();
        let r = row();
        // The unknown column sits behind a short-circuit: neither path errors.
        let guarded = col("state").eq(lit("NY")).and(col("nope").gt(lit(1)));
        let compiled = CompiledExpr::compile(&guarded, &s);
        assert_eq!(compiled.eval(&r), eval_expr(&guarded, &s, &r));
        assert_eq!(compiled.eval(&r), Ok(Value::Bool(false)));
        // Reached directly: both error identically.
        let direct = col("nope").gt(lit(1));
        let compiled = CompiledExpr::compile(&direct, &s);
        assert_eq!(compiled.eval(&r), eval_expr(&direct, &s, &r));
        assert!(compiled.eval(&r).is_err());
    }

    #[test]
    fn unbound_param_parity() {
        let s = schema();
        let r = row();
        let e = col("popden").gt(param(0));
        let compiled = CompiledExpr::compile(&e, &s);
        assert_eq!(compiled.eval(&r), eval_expr(&e, &s, &r));
        assert_eq!(compiled.eval(&r), Err(ExecError::UnboundParameter(0)));
    }

    #[test]
    fn in_ranges_lowers_to_integers_only_when_every_bound_is_an_int() {
        let s = Schema::from_pairs(&[("a", DataType::Int)]);
        let ranges_of = |bounds: Vec<Option<Value>>| {
            let ranges: Vec<ValueRange> = bounds
                .chunks(2)
                .map(|b| ValueRange {
                    lo: b[0].clone(),
                    hi: b[1].clone(),
                })
                .collect();
            let e = Expr::InRanges {
                column: "a".into(),
                ranges,
            };
            match CompiledExpr::compile(&e, &s) {
                CompiledExpr::InRanges { ranges, .. } => ranges,
                other => panic!("compiled to {other:?}"),
            }
        };
        let ints = ranges_of(vec![None, Some(Value::Int(3)), Some(Value::Int(7)), None]);
        assert_eq!(ints.ints, Some(vec![(None, Some(3)), (Some(7), None)]));
        let mixed = ranges_of(vec![
            None,
            Some(Value::Int(3)),
            Some(Value::Float(7.5)),
            None,
        ]);
        assert_eq!(mixed.ints, None);
        // (-inf, 3] or (7, inf), and (-inf, 3] or (7.5, inf).
        for (v, in_ints, in_mixed) in [
            (Value::Int(3), true, true),
            (Value::Int(7), false, false),
            (Value::Float(7.25), true, false),
            (Value::Float(7.75), true, true),
            (Value::Int(i64::MAX), true, true),
        ] {
            assert_eq!(ints.contains(&v), in_ints, "{v:?}");
            assert_eq!(mixed.contains(&v), in_mixed, "{v:?}");
        }
    }

    #[test]
    fn sorted_disjoint_int_ranges_answer_from_a_bitmap() {
        let compiled = |ranges: &[Bounds<i64>]| {
            let values = ranges
                .iter()
                .map(|&(lo, hi)| ValueRange {
                    lo: lo.map(Value::Int),
                    hi: hi.map(Value::Int),
                })
                .collect::<Vec<_>>();
            CompiledRanges::new(&values)
        };
        // (-inf, 3], (3, 5] sharing a bound, and (10, 12].
        let adjacent = compiled(&[(None, Some(3)), (Some(3), Some(5)), (Some(10), Some(12))]);
        assert!(adjacent.bits.is_some());
        for (i, member) in [
            (i64::MIN, true),
            (5, true),
            (6, false),
            (10, false),
            (11, true),
            (12, true),
            (13, false),
            (i64::MAX, false),
        ] {
            assert_eq!(adjacent.contains_int(i), member, "{i}");
        }
        // A lower bound of i64::MAX is an empty range at the top guard bit.
        let top = compiled(&[
            (Some(i64::MAX - 5), Some(i64::MAX - 2)),
            (Some(i64::MAX), None),
        ]);
        assert!(top.bits.is_some());
        for (i, member) in [
            (i64::MAX, false),
            (i64::MAX - 2, true),
            (i64::MAX - 5, false),
        ] {
            assert_eq!(top.contains_int(i), member, "{i}");
        }
        let open_above = compiled(&[(Some(i64::MIN), Some(0)), (Some(7), None)]);
        assert!(open_above.bits.is_none(), "span too wide");
        let narrow_open_above = compiled(&[(Some(-2), Some(0)), (Some(7), None)]);
        assert!(narrow_open_above.bits.is_some());
        assert!(narrow_open_above.contains_int(i64::MAX));
        assert!(!narrow_open_above.contains_int(-2));
        // Unsorted, overlapping or empty ranges keep the binary search.
        for ranges in [
            vec![(Some(5), Some(9)), (Some(0), Some(3))],
            vec![(Some(0), Some(6)), (Some(5), Some(9))],
            vec![(Some(4), Some(4)), (Some(5), Some(9))],
            vec![(Some(0), None), (Some(5), Some(9))],
        ] {
            assert!(compiled(&ranges).bits.is_none(), "{ranges:?}");
        }
    }

    #[test]
    fn matches_collapses_null_like_eval_predicate() {
        let s = Schema::from_pairs(&[("a", DataType::Int)]);
        let r: Row = vec![Value::Null];
        let e = col("a").gt(lit(1));
        let compiled = CompiledExpr::compile(&e, &s);
        assert_eq!(
            compiled.matches(&r).unwrap(),
            eval_predicate(&e, &s, &r).unwrap()
        );
        assert!(!compiled.matches(&r).unwrap());
    }
}
