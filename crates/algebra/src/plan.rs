//! Logical query plans: the bag relational algebra of Fig. 2 in the paper.
//!
//! Supported operators: table access, selection (σ), projection (Π, with
//! computed expressions and renaming), aggregation with group-by (γ),
//! duplicate elimination (δ), join (⋈), cross product (×), bag union (∪) and
//! the top-k operator (τ, i.e. `ORDER BY ... LIMIT k`).

use crate::expr::Expr;
use pbds_storage::{Column, DataType, Database, Schema, StorageError, Value};
use std::fmt;

/// Aggregation functions supported by γ.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// Row count (counts all rows of the group).
    Count,
    /// Sum of the argument.
    Sum,
    /// Average of the argument.
    Avg,
    /// Minimum of the argument.
    Min,
    /// Maximum of the argument.
    Max,
}

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AggFunc::Count => "count",
            AggFunc::Sum => "sum",
            AggFunc::Avg => "avg",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
        };
        write!(f, "{s}")
    }
}

/// One aggregation expression `f(e) AS alias`.
#[derive(Debug, Clone, PartialEq)]
pub struct AggExpr {
    /// Aggregation function.
    pub func: AggFunc,
    /// Argument expression (ignored for `Count`).
    pub input: Expr,
    /// Output column name.
    pub alias: String,
}

impl AggExpr {
    /// Create an aggregation expression.
    pub fn new(func: AggFunc, input: Expr, alias: impl Into<String>) -> Self {
        AggExpr {
            func,
            input,
            alias: alias.into(),
        }
    }
}

/// A sort key for the top-k operator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SortKey {
    /// Column to sort on.
    pub column: String,
    /// Sort direction.
    pub descending: bool,
}

impl SortKey {
    /// Ascending sort key.
    pub fn asc(column: impl Into<String>) -> Self {
        SortKey {
            column: column.into(),
            descending: false,
        }
    }

    /// Descending sort key.
    pub fn desc(column: impl Into<String>) -> Self {
        SortKey {
            column: column.into(),
            descending: true,
        }
    }
}

/// A logical query plan node.
#[derive(Debug, Clone, PartialEq)]
pub enum LogicalPlan {
    /// Access of a base table.
    TableScan {
        /// Table name.
        table: String,
    },
    /// Selection σ_θ.
    Selection {
        /// Filter predicate.
        predicate: Expr,
        /// Input plan.
        input: Box<LogicalPlan>,
    },
    /// Generalized projection Π (computed expressions with output names).
    Projection {
        /// `(expression, output name)` pairs.
        exprs: Vec<(Expr, String)>,
        /// Input plan.
        input: Box<LogicalPlan>,
    },
    /// Aggregation γ with group-by.
    Aggregate {
        /// Group-by columns (empty = single global group).
        group_by: Vec<String>,
        /// Aggregation expressions.
        aggregates: Vec<AggExpr>,
        /// Input plan.
        input: Box<LogicalPlan>,
    },
    /// Equi-join on a single column pair.
    Join {
        /// Left input.
        left: Box<LogicalPlan>,
        /// Right input.
        right: Box<LogicalPlan>,
        /// Join column from the left input.
        left_col: String,
        /// Join column from the right input.
        right_col: String,
    },
    /// Cross product ×.
    CrossProduct {
        /// Left input.
        left: Box<LogicalPlan>,
        /// Right input.
        right: Box<LogicalPlan>,
    },
    /// Duplicate elimination δ.
    Distinct {
        /// Input plan.
        input: Box<LogicalPlan>,
    },
    /// Top-k operator τ (`ORDER BY ... LIMIT k`).
    TopK {
        /// Sort keys.
        order_by: Vec<SortKey>,
        /// Number of rows to keep.
        limit: usize,
        /// Input plan.
        input: Box<LogicalPlan>,
    },
    /// Bag union ∪.
    Union {
        /// Left input.
        left: Box<LogicalPlan>,
        /// Right input.
        right: Box<LogicalPlan>,
    },
}

impl LogicalPlan {
    /// Scan a base table.
    pub fn scan(table: impl Into<String>) -> LogicalPlan {
        LogicalPlan::TableScan {
            table: table.into(),
        }
    }

    /// Wrap this plan in a selection.
    pub fn filter(self, predicate: Expr) -> LogicalPlan {
        LogicalPlan::Selection {
            predicate,
            input: Box::new(self),
        }
    }

    /// Wrap this plan in a projection.
    pub fn project(self, exprs: Vec<(Expr, &str)>) -> LogicalPlan {
        LogicalPlan::Projection {
            exprs: exprs.into_iter().map(|(e, n)| (e, n.to_string())).collect(),
            input: Box::new(self),
        }
    }

    /// Wrap this plan in an aggregation.
    pub fn aggregate(self, group_by: Vec<&str>, aggregates: Vec<AggExpr>) -> LogicalPlan {
        LogicalPlan::Aggregate {
            group_by: group_by.into_iter().map(|s| s.to_string()).collect(),
            aggregates,
            input: Box::new(self),
        }
    }

    /// Wrap this plan in a top-k operator.
    pub fn top_k(self, order_by: Vec<SortKey>, limit: usize) -> LogicalPlan {
        LogicalPlan::TopK {
            order_by,
            limit,
            input: Box::new(self),
        }
    }

    /// Wrap this plan in duplicate elimination.
    pub fn distinct(self) -> LogicalPlan {
        LogicalPlan::Distinct {
            input: Box::new(self),
        }
    }

    /// Equi-join with another plan.
    pub fn join(self, right: LogicalPlan, left_col: &str, right_col: &str) -> LogicalPlan {
        LogicalPlan::Join {
            left: Box::new(self),
            right: Box::new(right),
            left_col: left_col.to_string(),
            right_col: right_col.to_string(),
        }
    }

    /// Cross product with another plan.
    pub fn cross(self, right: LogicalPlan) -> LogicalPlan {
        LogicalPlan::CrossProduct {
            left: Box::new(self),
            right: Box::new(right),
        }
    }

    /// Bag union with another plan.
    pub fn union(self, right: LogicalPlan) -> LogicalPlan {
        LogicalPlan::Union {
            left: Box::new(self),
            right: Box::new(right),
        }
    }

    /// Direct children of this node.
    pub fn children(&self) -> Vec<&LogicalPlan> {
        match self {
            LogicalPlan::TableScan { .. } => vec![],
            LogicalPlan::Selection { input, .. }
            | LogicalPlan::Projection { input, .. }
            | LogicalPlan::Aggregate { input, .. }
            | LogicalPlan::Distinct { input }
            | LogicalPlan::TopK { input, .. } => vec![input],
            LogicalPlan::Join { left, right, .. }
            | LogicalPlan::CrossProduct { left, right }
            | LogicalPlan::Union { left, right } => vec![left, right],
        }
    }

    /// Names of all base tables accessed by this plan (in scan order,
    /// deduplicated).
    pub fn tables(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.collect_tables(&mut out);
        let mut seen = std::collections::HashSet::new();
        out.retain(|t| seen.insert(t.clone()));
        out
    }

    fn collect_tables(&self, out: &mut Vec<String>) {
        if let LogicalPlan::TableScan { table } = self {
            out.push(table.clone());
        }
        for c in self.children() {
            c.collect_tables(out);
        }
    }

    /// True if the plan contains an aggregation operator anywhere.
    pub fn contains_aggregate(&self) -> bool {
        matches!(self, LogicalPlan::Aggregate { .. })
            || self.children().iter().any(|c| c.contains_aggregate())
    }

    /// True if the plan contains a top-k operator anywhere.
    pub fn contains_top_k(&self) -> bool {
        matches!(self, LogicalPlan::TopK { .. })
            || self.children().iter().any(|c| c.contains_top_k())
    }

    /// All parameters used anywhere in the plan.
    pub fn params(&self) -> Vec<usize> {
        let mut out = Vec::new();
        self.visit_exprs(&mut |e| out.extend(e.params()));
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Visit every expression in the plan (selection predicates, projection
    /// expressions, aggregation arguments).
    pub fn visit_exprs(&self, f: &mut impl FnMut(&Expr)) {
        match self {
            LogicalPlan::Selection { predicate, input } => {
                f(predicate);
                input.visit_exprs(f);
            }
            LogicalPlan::Projection { exprs, input } => {
                for (e, _) in exprs {
                    f(e);
                }
                input.visit_exprs(f);
            }
            LogicalPlan::Aggregate {
                aggregates, input, ..
            } => {
                for a in aggregates {
                    f(&a.input);
                }
                input.visit_exprs(f);
            }
            _ => {
                for c in self.children() {
                    c.visit_exprs(f);
                }
            }
        }
    }

    /// Bind query parameters everywhere in the plan, returning a closed plan.
    pub fn bind_params(&self, binding: &[Value]) -> LogicalPlan {
        self.transform_exprs(&|e| e.bind_params(binding))
    }

    /// Rewrite every expression in the plan with `f`.
    pub fn transform_exprs(&self, f: &impl Fn(&Expr) -> Expr) -> LogicalPlan {
        match self {
            LogicalPlan::TableScan { .. } => self.clone(),
            LogicalPlan::Selection { predicate, input } => LogicalPlan::Selection {
                predicate: f(predicate),
                input: Box::new(input.transform_exprs(f)),
            },
            LogicalPlan::Projection { exprs, input } => LogicalPlan::Projection {
                exprs: exprs.iter().map(|(e, n)| (f(e), n.clone())).collect(),
                input: Box::new(input.transform_exprs(f)),
            },
            LogicalPlan::Aggregate {
                group_by,
                aggregates,
                input,
            } => LogicalPlan::Aggregate {
                group_by: group_by.clone(),
                aggregates: aggregates
                    .iter()
                    .map(|a| AggExpr {
                        func: a.func,
                        input: f(&a.input),
                        alias: a.alias.clone(),
                    })
                    .collect(),
                input: Box::new(input.transform_exprs(f)),
            },
            LogicalPlan::Join {
                left,
                right,
                left_col,
                right_col,
            } => LogicalPlan::Join {
                left: Box::new(left.transform_exprs(f)),
                right: Box::new(right.transform_exprs(f)),
                left_col: left_col.clone(),
                right_col: right_col.clone(),
            },
            LogicalPlan::CrossProduct { left, right } => LogicalPlan::CrossProduct {
                left: Box::new(left.transform_exprs(f)),
                right: Box::new(right.transform_exprs(f)),
            },
            LogicalPlan::Distinct { input } => LogicalPlan::Distinct {
                input: Box::new(input.transform_exprs(f)),
            },
            LogicalPlan::TopK {
                order_by,
                limit,
                input,
            } => LogicalPlan::TopK {
                order_by: order_by.clone(),
                limit: *limit,
                input: Box::new(input.transform_exprs(f)),
            },
            LogicalPlan::Union { left, right } => LogicalPlan::Union {
                left: Box::new(left.transform_exprs(f)),
                right: Box::new(right.transform_exprs(f)),
            },
        }
    }

    /// Rewrite table-scan nodes; `f` receives the table name and returns the
    /// replacement subtree (used by the PBDS use-phase to inject sketch
    /// filters above the relevant scans, Sec. 8).
    pub fn rewrite_scans(&self, f: &impl Fn(&str) -> Option<LogicalPlan>) -> LogicalPlan {
        match self {
            LogicalPlan::TableScan { table } => f(table).unwrap_or_else(|| self.clone()),
            LogicalPlan::Selection { predicate, input } => LogicalPlan::Selection {
                predicate: predicate.clone(),
                input: Box::new(input.rewrite_scans(f)),
            },
            LogicalPlan::Projection { exprs, input } => LogicalPlan::Projection {
                exprs: exprs.clone(),
                input: Box::new(input.rewrite_scans(f)),
            },
            LogicalPlan::Aggregate {
                group_by,
                aggregates,
                input,
            } => LogicalPlan::Aggregate {
                group_by: group_by.clone(),
                aggregates: aggregates.clone(),
                input: Box::new(input.rewrite_scans(f)),
            },
            LogicalPlan::Join {
                left,
                right,
                left_col,
                right_col,
            } => LogicalPlan::Join {
                left: Box::new(left.rewrite_scans(f)),
                right: Box::new(right.rewrite_scans(f)),
                left_col: left_col.clone(),
                right_col: right_col.clone(),
            },
            LogicalPlan::CrossProduct { left, right } => LogicalPlan::CrossProduct {
                left: Box::new(left.rewrite_scans(f)),
                right: Box::new(right.rewrite_scans(f)),
            },
            LogicalPlan::Distinct { input } => LogicalPlan::Distinct {
                input: Box::new(input.rewrite_scans(f)),
            },
            LogicalPlan::TopK {
                order_by,
                limit,
                input,
            } => LogicalPlan::TopK {
                order_by: order_by.clone(),
                limit: *limit,
                input: Box::new(input.rewrite_scans(f)),
            },
            LogicalPlan::Union { left, right } => LogicalPlan::Union {
                left: Box::new(left.rewrite_scans(f)),
                right: Box::new(right.rewrite_scans(f)),
            },
        }
    }

    /// Derive the output schema of this plan against a database catalog.
    pub fn schema(&self, db: &Database) -> Result<Schema, StorageError> {
        match self {
            LogicalPlan::TableScan { table } => Ok(db.table(table)?.schema().clone()),
            LogicalPlan::Selection { input, .. }
            | LogicalPlan::Distinct { input }
            | LogicalPlan::TopK { input, .. } => input.schema(db),
            LogicalPlan::Projection { exprs, input } => {
                let in_schema = input.schema(db)?;
                let cols = exprs
                    .iter()
                    .map(|(e, name)| Column::new(name.clone(), infer_type(e, &in_schema)))
                    .collect();
                Ok(Schema::new(cols))
            }
            LogicalPlan::Aggregate {
                group_by,
                aggregates,
                input,
            } => {
                let in_schema = input.schema(db)?;
                let mut cols = Vec::new();
                for g in group_by {
                    let dtype = in_schema
                        .column(g)
                        .map(|c| c.dtype)
                        .unwrap_or(DataType::Str);
                    cols.push(Column::new(g.clone(), dtype));
                }
                for a in aggregates {
                    let dtype = match a.func {
                        AggFunc::Count => DataType::Int,
                        AggFunc::Avg => DataType::Float,
                        AggFunc::Sum | AggFunc::Min | AggFunc::Max => {
                            infer_type(&a.input, &in_schema)
                        }
                    };
                    cols.push(Column::new(a.alias.clone(), dtype));
                }
                Ok(Schema::new(cols))
            }
            LogicalPlan::Join { left, right, .. } | LogicalPlan::CrossProduct { left, right } => {
                Ok(left.schema(db)?.concat(&right.schema(db)?))
            }
            LogicalPlan::Union { left, .. } => left.schema(db),
        }
    }

    /// Human-readable indented plan tree.
    pub fn display_tree(&self) -> String {
        let mut s = String::new();
        self.fmt_tree(&mut s, 0);
        s
    }

    fn fmt_tree(&self, out: &mut String, indent: usize) {
        let pad = "  ".repeat(indent);
        let line = match self {
            LogicalPlan::TableScan { table } => format!("TableScan[{table}]"),
            LogicalPlan::Selection { predicate, .. } => format!("Selection[{predicate}]"),
            LogicalPlan::Projection { exprs, .. } => {
                let cols: Vec<String> = exprs.iter().map(|(e, n)| format!("{e} AS {n}")).collect();
                format!("Projection[{}]", cols.join(", "))
            }
            LogicalPlan::Aggregate {
                group_by,
                aggregates,
                ..
            } => {
                let aggs: Vec<String> = aggregates
                    .iter()
                    .map(|a| format!("{}({}) AS {}", a.func, a.input, a.alias))
                    .collect();
                format!(
                    "Aggregate[group_by=({}), {}]",
                    group_by.join(", "),
                    aggs.join(", ")
                )
            }
            LogicalPlan::Join {
                left_col,
                right_col,
                ..
            } => format!("Join[{left_col} = {right_col}]"),
            LogicalPlan::CrossProduct { .. } => "CrossProduct".to_string(),
            LogicalPlan::Distinct { .. } => "Distinct".to_string(),
            LogicalPlan::TopK {
                order_by, limit, ..
            } => {
                let keys: Vec<String> = order_by
                    .iter()
                    .map(|k| format!("{}{}", k.column, if k.descending { " DESC" } else { "" }))
                    .collect();
                format!("TopK[order_by=({}), limit={limit}]", keys.join(", "))
            }
            LogicalPlan::Union { .. } => "Union".to_string(),
        };
        out.push_str(&pad);
        out.push_str(&line);
        out.push('\n');
        for c in self.children() {
            c.fmt_tree(out, indent + 1);
        }
    }
}

/// Infer the result type of an expression against a schema; defaults to
/// `Float` for arithmetic and `Bool` for comparisons when unknown.
pub fn infer_type(expr: &Expr, schema: &Schema) -> DataType {
    match expr {
        Expr::Column(c) => schema.column(c).map(|c| c.dtype).unwrap_or(DataType::Str),
        Expr::Literal(v) => v.data_type().unwrap_or(DataType::Str),
        Expr::Param(_) => DataType::Float,
        Expr::Binary { op, left, right } => {
            if op.is_comparison() {
                DataType::Bool
            } else if *op == crate::expr::BinOp::Div {
                DataType::Float
            } else {
                let lt = infer_type(left, schema);
                let rt = infer_type(right, schema);
                if lt == DataType::Int && rt == DataType::Int {
                    DataType::Int
                } else {
                    DataType::Float
                }
            }
        }
        Expr::And(_) | Expr::Or(_) | Expr::Not(_) | Expr::IsNull(_) => DataType::Bool,
        Expr::Case {
            branches,
            otherwise,
        } => branches
            .first()
            .map(|(_, r)| infer_type(r, schema))
            .unwrap_or_else(|| infer_type(otherwise, schema)),
        Expr::InRanges { .. } | Expr::InList { .. } => DataType::Bool,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, lit};
    use pbds_storage::{Table, TableBuilder};

    fn cities_db() -> Database {
        let schema = Schema::from_pairs(&[
            ("popden", DataType::Int),
            ("city", DataType::Str),
            ("state", DataType::Str),
        ]);
        let mut b = TableBuilder::new("cities", schema);
        b.push(vec![
            Value::Int(4200),
            Value::from("Anchorage"),
            Value::from("AK"),
        ]);
        let table: Table = b.build();
        let mut db = Database::new();
        db.add_table(table);
        db
    }

    /// Q2 from Fig. 1a: state with the highest average population density.
    fn q2() -> LogicalPlan {
        LogicalPlan::scan("cities")
            .aggregate(
                vec!["state"],
                vec![AggExpr::new(AggFunc::Avg, col("popden"), "avgden")],
            )
            .top_k(vec![SortKey::desc("avgden")], 1)
    }

    #[test]
    fn schema_derivation_for_aggregate_topk() {
        let db = cities_db();
        let schema = q2().schema(&db).unwrap();
        assert_eq!(schema.names(), vec!["state", "avgden"]);
        assert_eq!(schema.column("avgden").unwrap().dtype, DataType::Float);
    }

    #[test]
    fn tables_and_structure_queries() {
        let plan = q2();
        assert_eq!(plan.tables(), vec!["cities".to_string()]);
        assert!(plan.contains_aggregate());
        assert!(plan.contains_top_k());
        assert!(!LogicalPlan::scan("cities").contains_aggregate());
    }

    #[test]
    fn join_schema_concatenates() {
        let schema_a = Schema::from_pairs(&[("id", DataType::Int)]);
        let schema_b = Schema::from_pairs(&[("ref_id", DataType::Int), ("x", DataType::Int)]);
        let mut db = Database::new();
        db.add_table(Table::new("a", schema_a, vec![]));
        db.add_table(Table::new("b", schema_b, vec![]));
        let plan = LogicalPlan::scan("a").join(LogicalPlan::scan("b"), "id", "ref_id");
        assert_eq!(plan.schema(&db).unwrap().names(), vec!["id", "ref_id", "x"]);
    }

    #[test]
    fn params_collected_across_plan() {
        let plan = LogicalPlan::scan("cities")
            .filter(col("popden").gt(crate::expr::param(0)))
            .aggregate(
                vec!["state"],
                vec![AggExpr::new(AggFunc::Count, col("city"), "cnt")],
            )
            .filter(col("cnt").gt(crate::expr::param(1)));
        assert_eq!(plan.params(), vec![0, 1]);
        let bound = plan.bind_params(&[Value::Int(100), Value::Int(10)]);
        assert!(bound.params().is_empty());
    }

    #[test]
    fn rewrite_scans_replaces_only_requested_tables() {
        let plan = q2();
        let rewritten = plan.rewrite_scans(&|t| {
            (t == "cities").then(|| LogicalPlan::scan("cities").filter(col("state").eq(lit("CA"))))
        });
        // The scan is now wrapped in a selection.
        let found_selection_over_scan = matches!(
            &rewritten,
            LogicalPlan::TopK { input, .. }
                if matches!(&**input, LogicalPlan::Aggregate { input, .. }
                    if matches!(&**input, LogicalPlan::Selection { .. }))
        );
        assert!(found_selection_over_scan);
    }

    #[test]
    fn display_tree_contains_operators() {
        let text = q2().display_tree();
        assert!(text.contains("TopK"));
        assert!(text.contains("Aggregate"));
        assert!(text.contains("TableScan[cities]"));
    }

    #[test]
    fn unknown_table_schema_error() {
        let db = Database::new();
        assert!(LogicalPlan::scan("nope").schema(&db).is_err());
    }

    #[test]
    fn projection_type_inference() {
        let db = cities_db();
        let plan = LogicalPlan::scan("cities").project(vec![
            (col("popden").mul(lit(2)), "double_den"),
            (col("popden").div(lit(2)), "half_den"),
            (col("state"), "state"),
        ]);
        let schema = plan.schema(&db).unwrap();
        assert_eq!(schema.column("double_den").unwrap().dtype, DataType::Int);
        assert_eq!(schema.column("half_den").unwrap().dtype, DataType::Float);
        assert_eq!(schema.column("state").unwrap().dtype, DataType::Str);
    }
}
