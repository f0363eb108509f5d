//! Static sketch-safety checking (Sec. 5 of the paper).
//!
//! Given a query `Q` and a set of partition attributes `X`, the checker
//! builds the condition `gc(Q, X)` of Fig. 3 bottom-up over the plan,
//! discharging every proof obligation with the linear-arithmetic solver.
//! When `gc(Q, X)` is proven valid, *every* provenance sketch built on range
//! partitions of `X` is safe for `Q` on *any* database instance (Theorem 2).
//! The check is sound but not complete (Theorem 1 shows completeness is
//! impossible without looking at the data), so a negative answer only means
//! "could not prove safe".

use crate::encode::{attr_var, eq_primed, to_formula, to_linexpr, EncodedPred, StringEncoder};
use pbds_algebra::{AggFunc, LogicalPlan};
use pbds_solver::{is_valid, CmpOp, Formula, LinExpr};
use pbds_storage::{DataType, Database, Schema, Table, Value};
use std::collections::{HashMap, HashSet};

/// A partition attribute: `(table, column)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PartitionAttr {
    /// Base table the attribute belongs to.
    pub table: String,
    /// Column name.
    pub column: String,
}

impl PartitionAttr {
    /// Convenience constructor.
    pub fn new(table: impl Into<String>, column: impl Into<String>) -> Self {
        PartitionAttr {
            table: table.into(),
            column: column.into(),
        }
    }
}

/// One end of a column's value range.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum BoundSide {
    Min,
    Max,
}

/// A bound of a column of a table: `(table, column, side)`.
pub(crate) type BoundKey = (String, String, BoundSide);

/// How far [`ColumnBounds::widened`] moves a numeric bound out, as a multiple
/// of the column's current span: each re-derivation doubles the room, so a
/// column that keeps growing (an ascending id) costs a logarithmic number of
/// them.
const WIDEN_SPANS: i64 = 1;

/// Per-column `[min, max]` of the tables a query reads — all the safety
/// check ever learns about the data. They enter the check only as premises
/// (`min <= a <= max` for every column `a`), so a verdict proven under some
/// bounds holds on every database whose bounds lie inside them.
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct ColumnBounds {
    /// `(table, column)` → `(min, max)`; `None` is "no bound" (a premise
    /// that is absent, so anything lies inside it).
    columns: HashMap<(String, String), (Option<Value>, Option<Value>)>,
}

impl ColumnBounds {
    /// The exact bounds of `tables` in `db`, from the table statistics.
    pub(crate) fn of<'t>(db: &Database, tables: impl IntoIterator<Item = &'t String>) -> Self {
        let mut columns = HashMap::new();
        for table in tables {
            let Ok(t) = db.table(table) else { continue };
            let stats = t.stats();
            for col in t.schema().columns() {
                if let Some(s) = stats.column(&col.name) {
                    let key = (table.clone(), col.name.clone());
                    columns.insert(key, (s.min.clone(), s.max.clone()));
                }
            }
        }
        ColumnBounds { columns }
    }

    fn get(&self, table: &str, column: &str) -> (Option<&Value>, Option<&Value>) {
        let key = (table.to_string(), column.to_string());
        match self.columns.get(&key) {
            Some((min, max)) => (min.as_ref(), max.as_ref()),
            None => (None, None),
        }
    }

    /// The bounds of `db` that lie *outside* these — empty exactly when a
    /// verdict proven under `self` holds on `db`.
    pub(crate) fn escaped_by(&self, db: &Database) -> HashSet<BoundKey> {
        let mut escaped = HashSet::new();
        for ((table, column), (min, max)) in &self.columns {
            let Ok(t) = db.table(table) else { continue };
            let stats = t.stats();
            let Some(now) = stats.column(column) else {
                continue;
            };
            let mut note = |side| {
                escaped.insert((table.clone(), column.clone(), side));
            };
            if matches!((min, &now.min), (Some(proven), Some(now)) if now < proven) {
                note(BoundSide::Min);
            }
            if matches!((max, &now.max), (Some(proven), Some(now)) if now > proven) {
                note(BoundSide::Max);
            }
        }
        escaped
    }

    /// These bounds with every numeric bound named in `sides` moved outward
    /// by [`WIDEN_SPANS`] spans of its column (at least 1). Non-numeric
    /// bounds stay where they are.
    pub(crate) fn widened(&self, sides: &HashSet<BoundKey>) -> Self {
        let mut wide = self.clone();
        for (table, column, side) in sides {
            let key = (table.clone(), column.clone());
            let Some((Some(min), Some(max))) = wide.columns.get(&key).cloned() else {
                continue;
            };
            let moved = match (&min, &max) {
                (Value::Int(lo), Value::Int(hi)) => {
                    let room = hi.saturating_sub(*lo).max(1).saturating_mul(WIDEN_SPANS);
                    match side {
                        BoundSide::Min => Value::Int(lo.saturating_sub(room)),
                        BoundSide::Max => Value::Int(hi.saturating_add(room)),
                    }
                }
                (Value::Float(lo), Value::Float(hi)) => {
                    let room = (hi - lo).max(1.0) * WIDEN_SPANS as f64;
                    match side {
                        BoundSide::Min => Value::Float(lo - room),
                        BoundSide::Max => Value::Float(hi + room),
                    }
                }
                _ => continue,
            };
            let entry = wide.columns.get_mut(&key).expect("just read");
            match side {
                BoundSide::Min => entry.0 = Some(moved),
                BoundSide::Max => entry.1 = Some(moved),
            }
        }
        wide
    }
}

/// Outcome of a safety check.
#[derive(Debug, Clone)]
pub struct SafetyResult {
    /// True when `gc(Q, X)` was proven valid: sketches over `X` are safe.
    pub safe: bool,
    /// True when the query contains a top-k operator, in which case the
    /// static result must be re-validated at runtime by checking that the
    /// operator's input had at least `k` rows (footnote 1 of Sec. 5).
    pub requires_topk_revalidation: bool,
    /// Human-readable trace of the per-operator obligations.
    pub details: Vec<String>,
}

/// Per-node analysis state built bottom-up (mirrors `pred`, `expr`, Ψ and
/// `gc` of Fig. 3).
struct NodeInfo {
    schema: Schema,
    /// `pred(Q)` over unprimed attributes.
    pred_plain: EncodedPred,
    /// `pred(Q)` over primed attributes.
    pred_primed: EncodedPred,
    /// `expr(Q)` over unprimed / primed attributes.
    expr_plain: EncodedPred,
    expr_primed: EncodedPred,
    /// Ψ_{Q,X}
    psi: Formula,
    /// Whether `gc(Q, X)` holds so far.
    gc: bool,
    /// Attributes of `X` contained in relations accessed by this subquery.
    x_here: Vec<String>,
}

impl NodeInfo {
    /// `conds(Q) = pred(Q) ∧ expr(Q)` (unprimed).
    fn conds_plain(&self) -> Formula {
        Formula::and_all(vec![
            self.pred_plain.formula.clone(),
            self.expr_plain.formula.clone(),
        ])
    }
    /// `conds(Q') = pred(Q') ∧ expr(Q')` (primed).
    fn conds_primed(&self) -> Formula {
        Formula::and_all(vec![
            self.pred_primed.formula.clone(),
            self.expr_primed.formula.clone(),
        ])
    }
    /// The standard premise `Ψ ∧ conds(Q') ∧ conds(Q)` used by the rules.
    fn premise(&self) -> Formula {
        Formula::and_all(vec![
            self.psi.clone(),
            self.conds_primed(),
            self.conds_plain(),
        ])
    }
}

/// The safety checker.
#[derive(Debug, Clone)]
pub struct SafetyChecker<'a> {
    db: &'a Database,
    /// Column bounds to assume instead of the database's own statistics.
    bounds: Option<&'a ColumnBounds>,
}

impl<'a> SafetyChecker<'a> {
    /// Create a checker over a database (used only for its statistics — the
    /// check itself never looks at the data, as required by the paper).
    pub fn new(db: &'a Database) -> Self {
        SafetyChecker { db, bounds: None }
    }

    /// A checker that takes its column bounds from `bounds` (schemas still
    /// come from `db`): what it proves holds on every database whose bounds
    /// lie inside them.
    pub(crate) fn assuming(db: &'a Database, bounds: &'a ColumnBounds) -> Self {
        SafetyChecker {
            db,
            bounds: Some(bounds),
        }
    }

    /// The `[min, max]` the check assumes for a column.
    fn bounds_of(&self, table: &Table, column: &str) -> (Option<Value>, Option<Value>) {
        match self.bounds {
            Some(bounds) => {
                let (min, max) = bounds.get(table.name(), column);
                (min.cloned(), max.cloned())
            }
            None => match table.stats().column(column) {
                Some(stats) => (stats.min.clone(), stats.max.clone()),
                None => (None, None),
            },
        }
    }

    /// Check whether the attribute set `attrs` is safe for `plan`.
    pub fn check(&self, plan: &LogicalPlan, attrs: &[PartitionAttr]) -> SafetyResult {
        let mut strings = StringEncoder::from_plans(&[plan]);
        // Register string min/max statistics so bound constraints stay
        // order-consistent with the literals of the query.
        for table in plan.tables() {
            if let Ok(t) = self.db.table(&table) {
                for col in t.schema().columns() {
                    if col.dtype == DataType::Str {
                        let (min, max) = self.bounds_of(t, &col.name);
                        for bound in [min, max] {
                            if let Some(Value::Str(s)) = &bound {
                                strings.register(s);
                            }
                        }
                    }
                }
            }
        }
        let mut details = Vec::new();
        let info = self.analyze(plan, attrs, &strings, &mut details);
        SafetyResult {
            safe: info.gc,
            requires_topk_revalidation: plan.contains_top_k(),
            details,
        }
    }

    /// Candidate partition attributes for a query: the group-by attributes of
    /// its aggregations that are base-table columns (the fallback the paper
    /// uses when the primary key is unsafe, Sec. 9.3), ordered outermost
    /// first.
    pub fn candidate_attributes(&self, plan: &LogicalPlan) -> Vec<PartitionAttr> {
        let mut out = Vec::new();
        let tables = plan.tables();
        collect_group_by(plan, &mut |col: &str| {
            for t in &tables {
                if let Ok(table) = self.db.table(t) {
                    if table.schema().contains(col) {
                        let cand = PartitionAttr::new(t.clone(), col.to_string());
                        if !out.contains(&cand) {
                            out.push(cand);
                        }
                    }
                }
            }
        });
        out
    }

    /// Pick, for each candidate, the first safe attribute set (testing the
    /// caller-preferred attributes first, then the group-by candidates).
    pub fn choose_safe_attributes(
        &self,
        plan: &LogicalPlan,
        preferred: &[PartitionAttr],
    ) -> Option<Vec<PartitionAttr>> {
        for cand in preferred
            .iter()
            .chain(self.candidate_attributes(plan).iter())
        {
            let set = vec![cand.clone()];
            if self.check(plan, &set).safe {
                return Some(set);
            }
        }
        None
    }

    fn analyze(
        &self,
        plan: &LogicalPlan,
        attrs: &[PartitionAttr],
        strings: &StringEncoder,
        details: &mut Vec<String>,
    ) -> NodeInfo {
        match plan {
            LogicalPlan::TableScan { table } => self.analyze_scan(table, attrs, strings),
            LogicalPlan::Selection { predicate, input } => {
                let child = self.analyze(input, attrs, strings, details);
                let theta = to_formula(predicate, false, strings);
                let theta_primed = to_formula(predicate, true, strings);
                // gc: Ψ ∧ conds(Q') ∧ conds(Q) ∧ θ → θ'
                let mut ok = child.gc;
                if ok && !child.x_here.is_empty() {
                    if !theta_primed.complete {
                        ok = false;
                        details.push(format!(
                            "selection [{predicate}]: predicate not encodable, assuming unsafe"
                        ));
                    } else {
                        let obligation = Formula::implies(
                            Formula::and_all(vec![child.premise(), theta.formula.clone()]),
                            theta_primed.formula.clone(),
                        );
                        let valid = is_valid(&obligation);
                        details.push(format!(
                            "selection [{predicate}]: implication {}",
                            if valid { "holds" } else { "FAILS" }
                        ));
                        ok = valid;
                    }
                }
                NodeInfo {
                    schema: child.schema.clone(),
                    pred_plain: child.pred_plain.clone().and(theta),
                    pred_primed: child.pred_primed.clone().and(theta_primed),
                    expr_plain: child.expr_plain.clone(),
                    expr_primed: child.expr_primed.clone(),
                    psi: child.psi.clone(),
                    gc: ok,
                    x_here: child.x_here,
                }
            }
            LogicalPlan::Projection { exprs, input } => {
                let child = self.analyze(input, attrs, strings, details);
                // expr(Q): e_i = b_i for every encodable projection expression.
                let mut plain_parts = vec![child.expr_plain.formula.clone()];
                let mut primed_parts = vec![child.expr_primed.formula.clone()];
                for (e, name) in exprs {
                    if let Some(lin) = to_linexpr(e, false, strings) {
                        plain_parts.push(Formula::cmp(
                            lin,
                            CmpOp::Eq,
                            LinExpr::var(attr_var(name, false)),
                        ));
                    }
                    if let Some(lin) = to_linexpr(e, true, strings) {
                        primed_parts.push(Formula::cmp(
                            lin,
                            CmpOp::Eq,
                            LinExpr::var(attr_var(name, true)),
                        ));
                    }
                }
                NodeInfo {
                    schema: plan
                        .schema(self.db)
                        .unwrap_or_else(|_| child.schema.clone()),
                    pred_plain: child.pred_plain,
                    pred_primed: child.pred_primed,
                    expr_plain: EncodedPred {
                        formula: Formula::and_all(plain_parts),
                        complete: child.expr_plain.complete,
                    },
                    expr_primed: EncodedPred {
                        formula: Formula::and_all(primed_parts),
                        complete: child.expr_primed.complete,
                    },
                    psi: child.psi,
                    gc: child.gc,
                    x_here: child.x_here,
                }
            }
            LogicalPlan::Aggregate {
                group_by,
                aggregates,
                input,
            } => self.analyze_aggregate(plan, group_by, aggregates, input, attrs, strings, details),
            LogicalPlan::Distinct { input } => {
                let child = self.analyze(input, attrs, strings, details);
                let mut ok = child.gc;
                if ok && !child.x_here.is_empty() {
                    for col in child.schema.names() {
                        let obligation = Formula::implies(child.premise(), eq_primed(col));
                        if !is_valid(&obligation) {
                            details.push(format!("distinct: column {col} may differ, unsafe"));
                            ok = false;
                            break;
                        }
                    }
                }
                NodeInfo { gc: ok, ..child }
            }
            LogicalPlan::TopK {
                order_by, input, ..
            } => {
                let child = self.analyze(input, attrs, strings, details);
                let mut ok = child.gc;
                if ok && !child.x_here.is_empty() {
                    for key in order_by {
                        let obligation = Formula::implies(child.premise(), eq_primed(&key.column));
                        let valid = is_valid(&obligation);
                        details.push(format!(
                            "top-k order-by [{}]: equality {}",
                            key.column,
                            if valid { "holds" } else { "FAILS" }
                        ));
                        if !valid {
                            ok = false;
                            break;
                        }
                    }
                }
                NodeInfo { gc: ok, ..child }
            }
            LogicalPlan::Join {
                left,
                right,
                left_col,
                right_col,
            } => {
                let l = self.analyze(left, attrs, strings, details);
                let r = self.analyze(right, attrs, strings, details);
                let mut ok = l.gc && r.gc;
                let x_here: Vec<String> = l.x_here.iter().chain(r.x_here.iter()).cloned().collect();
                if ok && !x_here.is_empty() {
                    let left_ob = Formula::implies(l.premise(), eq_primed(left_col));
                    let right_ob = Formula::implies(r.premise(), eq_primed(right_col));
                    let valid = is_valid(&left_ob) && is_valid(&right_ob);
                    details.push(format!(
                        "join [{left_col} = {right_col}]: key equality {}",
                        if valid { "holds" } else { "FAILS" }
                    ));
                    ok = valid;
                }
                NodeInfo {
                    schema: l.schema.concat(&r.schema),
                    pred_plain: l.pred_plain.and(r.pred_plain).and(EncodedPred {
                        formula: Formula::var_cmp_var(
                            &attr_var(left_col, false),
                            CmpOp::Eq,
                            &attr_var(right_col, false),
                        ),
                        complete: true,
                    }),
                    pred_primed: l.pred_primed.and(r.pred_primed).and(EncodedPred {
                        formula: Formula::var_cmp_var(
                            &attr_var(left_col, true),
                            CmpOp::Eq,
                            &attr_var(right_col, true),
                        ),
                        complete: true,
                    }),
                    expr_plain: l.expr_plain.and(r.expr_plain),
                    expr_primed: l.expr_primed.and(r.expr_primed),
                    psi: Formula::and_all(vec![l.psi, r.psi]),
                    gc: ok,
                    x_here,
                }
            }
            LogicalPlan::CrossProduct { left, right } => {
                let l = self.analyze(left, attrs, strings, details);
                let r = self.analyze(right, attrs, strings, details);
                let x_here: Vec<String> = l.x_here.iter().chain(r.x_here.iter()).cloned().collect();
                NodeInfo {
                    schema: l.schema.concat(&r.schema),
                    pred_plain: l.pred_plain.and(r.pred_plain),
                    pred_primed: l.pred_primed.and(r.pred_primed),
                    expr_plain: l.expr_plain.and(r.expr_plain),
                    expr_primed: l.expr_primed.and(r.expr_primed),
                    psi: Formula::and_all(vec![l.psi, r.psi]),
                    gc: l.gc && r.gc,
                    x_here,
                }
            }
            LogicalPlan::Union { left, right } => {
                let l = self.analyze(left, attrs, strings, details);
                let r = self.analyze(right, attrs, strings, details);
                let x_here: Vec<String> = l.x_here.iter().chain(r.x_here.iter()).cloned().collect();
                // Ψ for union: keep only constraints common to both inputs
                // (conservatively, the weaker of the two when they differ).
                let psi = if l.psi == r.psi {
                    l.psi.clone()
                } else {
                    Formula::True
                };
                NodeInfo {
                    schema: l.schema.clone(),
                    pred_plain: EncodedPred {
                        formula: Formula::or_all(vec![
                            l.pred_plain.formula.clone(),
                            r.pred_plain.formula.clone(),
                        ]),
                        complete: l.pred_plain.complete && r.pred_plain.complete,
                    },
                    pred_primed: EncodedPred {
                        formula: Formula::or_all(vec![
                            l.pred_primed.formula.clone(),
                            r.pred_primed.formula.clone(),
                        ]),
                        complete: l.pred_primed.complete && r.pred_primed.complete,
                    },
                    expr_plain: EncodedPred {
                        formula: Formula::or_all(vec![
                            l.expr_plain.formula.clone(),
                            r.expr_plain.formula.clone(),
                        ]),
                        complete: l.expr_plain.complete && r.expr_plain.complete,
                    },
                    expr_primed: EncodedPred {
                        formula: Formula::or_all(vec![
                            l.expr_primed.formula.clone(),
                            r.expr_primed.formula.clone(),
                        ]),
                        complete: l.expr_primed.complete && r.expr_primed.complete,
                    },
                    psi,
                    gc: l.gc && r.gc,
                    x_here,
                }
            }
        }
    }

    fn analyze_scan(
        &self,
        table: &str,
        attrs: &[PartitionAttr],
        strings: &StringEncoder,
    ) -> NodeInfo {
        let (schema, pred_plain, pred_primed) = match self.db.table(table) {
            Ok(t) => {
                let mut plain = Vec::new();
                let mut primed = Vec::new();
                for col in t.schema().columns() {
                    let (min, max) = self.bounds_of(t, &col.name);
                    for (op, v) in [(CmpOp::Ge, min), (CmpOp::Le, max)] {
                        if let Some(c) = v.and_then(|v| strings.encode_value(&v)) {
                            plain.push(Formula::cmp(
                                LinExpr::var(attr_var(&col.name, false)),
                                op,
                                LinExpr::constant(c),
                            ));
                            primed.push(Formula::cmp(
                                LinExpr::var(attr_var(&col.name, true)),
                                op,
                                LinExpr::constant(c),
                            ));
                        }
                    }
                }
                (
                    t.schema().clone(),
                    EncodedPred {
                        formula: Formula::and_all(plain),
                        complete: true,
                    },
                    EncodedPred {
                        formula: Formula::and_all(primed),
                        complete: true,
                    },
                )
            }
            Err(_) => (
                Schema::default(),
                EncodedPred::truth(),
                EncodedPred::truth(),
            ),
        };
        // Ψ_R: equality on all attributes of R (D_PS ⊆ D).
        let psi = Formula::and_all(schema.names().iter().map(|n| eq_primed(n)).collect());
        let x_here: Vec<String> = attrs
            .iter()
            .filter(|a| a.table == table)
            .map(|a| a.column.clone())
            .collect();
        NodeInfo {
            schema,
            pred_plain,
            pred_primed,
            expr_plain: EncodedPred::truth(),
            expr_primed: EncodedPred::truth(),
            psi,
            gc: true,
            x_here,
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn analyze_aggregate(
        &self,
        plan: &LogicalPlan,
        group_by: &[String],
        aggregates: &[pbds_algebra::AggExpr],
        input: &LogicalPlan,
        attrs: &[PartitionAttr],
        strings: &StringEncoder,
        details: &mut Vec<String>,
    ) -> NodeInfo {
        let child = self.analyze(input, attrs, strings, details);
        let out_schema = plan
            .schema(self.db)
            .unwrap_or_else(|_| child.schema.clone());

        if child.x_here.is_empty() {
            // X = ∅: the subquery sees only un-sketched relations, results are
            // identical and all output attributes (incl. aggregates) equal.
            let psi = Formula::and_all(out_schema.names().iter().map(|n| eq_primed(n)).collect());
            return NodeInfo {
                schema: out_schema,
                psi,
                ..child
            };
        }

        // gc obligation: every group-by attribute must agree between the
        // sketch-instance run and the full run.
        let mut ok = child.gc;
        if ok {
            for g in group_by {
                let obligation = Formula::implies(child.premise(), eq_primed(g));
                let valid = is_valid(&obligation);
                details.push(format!(
                    "aggregate group-by [{g}]: equality {}",
                    if valid { "holds" } else { "FAILS" }
                ));
                if !valid {
                    ok = false;
                    break;
                }
            }
        }

        // Ψ for the aggregate outputs (Fig. 3b).
        // CASE 1: every partition attribute below is (provably equal to) a
        // group-by attribute — whole groups are kept or dropped together, so
        // aggregate values are equal.
        let case1 = child.x_here.iter().all(|x| {
            group_by.iter().any(|g| {
                g == x
                    || is_valid(&Formula::implies(
                        child.conds_plain(),
                        Formula::var_cmp_var(&attr_var(x, false), CmpOp::Eq, &attr_var(g, false)),
                    ))
            })
        });
        let exists_non_group_x = child
            .x_here
            .iter()
            .any(|x| !group_by.iter().any(|g| g == x));

        let mut psi_parts = vec![child.psi.clone()];
        for agg in aggregates {
            let b = &agg.alias;
            let relation = if case1 {
                Some(CmpOp::Eq)
            } else if exists_non_group_x {
                let arg_nonneg = || {
                    to_linexpr(&agg.input, false, strings).map(|lin| {
                        is_valid(&Formula::implies(
                            child.conds_plain(),
                            Formula::cmp(lin, CmpOp::Ge, LinExpr::constant(0.0)),
                        ))
                    }) == Some(true)
                };
                let arg_nonpos = || {
                    to_linexpr(&agg.input, false, strings).map(|lin| {
                        is_valid(&Formula::implies(
                            child.conds_plain(),
                            Formula::cmp(lin, CmpOp::Le, LinExpr::constant(0.0)),
                        ))
                    }) == Some(true)
                };
                match agg.func {
                    AggFunc::Count => Some(CmpOp::Le),
                    AggFunc::Sum | AggFunc::Max if arg_nonneg() => Some(CmpOp::Le),
                    AggFunc::Sum | AggFunc::Min if arg_nonpos() => Some(CmpOp::Ge),
                    _ => None,
                }
            } else {
                None
            };
            if let Some(op) = relation {
                psi_parts.push(Formula::var_cmp_var(
                    &attr_var(b, false),
                    op,
                    &attr_var(b, true),
                ));
                details.push(format!(
                    "aggregate {}({}) AS {b}: Ψ gets {b} {} {b}'",
                    agg.func,
                    agg.input,
                    match op {
                        CmpOp::Eq => "=",
                        CmpOp::Le => "<=",
                        CmpOp::Ge => ">=",
                        _ => "?",
                    }
                ));
            } else {
                details.push(format!(
                    "aggregate {}({}) AS {b}: relationship between {b} and {b}' unknown",
                    agg.func, agg.input
                ));
            }
        }

        NodeInfo {
            schema: out_schema,
            pred_plain: child.pred_plain,
            pred_primed: child.pred_primed,
            expr_plain: child.expr_plain,
            expr_primed: child.expr_primed,
            psi: Formula::and_all(psi_parts),
            gc: ok,
            x_here: child.x_here,
        }
    }
}

fn collect_group_by(plan: &LogicalPlan, f: &mut impl FnMut(&str)) {
    if let LogicalPlan::Aggregate { group_by, .. } = plan {
        for g in group_by {
            f(g);
        }
    }
    for c in plan.children() {
        collect_group_by(c, f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbds_algebra::{col, lit, param, AggExpr, SortKey};
    use pbds_storage::{TableBuilder, Value};

    fn cities_db() -> Database {
        let schema = Schema::from_pairs(&[
            ("popden", DataType::Int),
            ("city", DataType::Str),
            ("state", DataType::Str),
        ]);
        let mut b = TableBuilder::new("cities", schema);
        for (popden, city, state) in [
            (4200, "Anchorage", "AK"),
            (6000, "San Diego", "CA"),
            (5000, "Sacramento", "CA"),
            (7000, "New York", "NY"),
            (2000, "Buffalo", "NY"),
            (3700, "Austin", "TX"),
            (2500, "Houston", "TX"),
        ] {
            b.push(vec![
                Value::Int(popden),
                Value::from(city),
                Value::from(state),
            ]);
        }
        let mut db = Database::new();
        db.add_table(b.build());
        db
    }

    fn q2() -> LogicalPlan {
        LogicalPlan::scan("cities")
            .aggregate(
                vec!["state"],
                vec![AggExpr::new(AggFunc::Avg, col("popden"), "avgden")],
            )
            .top_k(vec![SortKey::desc("avgden")], 1)
    }

    #[test]
    fn q2_state_is_safe_popden_is_not() {
        let db = cities_db();
        let checker = SafetyChecker::new(&db);
        let safe = checker.check(&q2(), &[PartitionAttr::new("cities", "state")]);
        assert!(safe.safe, "{:?}", safe.details);
        assert!(safe.requires_topk_revalidation);
        let unsafe_res = checker.check(&q2(), &[PartitionAttr::new("cities", "popden")]);
        assert!(!unsafe_res.safe, "{:?}", unsafe_res.details);
    }

    #[test]
    fn example6_sum_having_popden_unsafe() {
        // Q_popState = σ_{totden < 7000}(γ_{state; sum(popden)→totden}(cities));
        // partitioning on popden is (correctly) not provably safe.
        let db = cities_db();
        let plan = LogicalPlan::scan("cities")
            .aggregate(
                vec!["state"],
                vec![AggExpr::new(AggFunc::Sum, col("popden"), "totden")],
            )
            .filter(col("totden").lt(lit(7000)));
        let checker = SafetyChecker::new(&db);
        assert!(
            !checker
                .check(&plan, &[PartitionAttr::new("cities", "popden")])
                .safe
        );
        // Partitioning on the group-by attribute is safe.
        assert!(
            checker
                .check(&plan, &[PartitionAttr::new("cities", "state")])
                .safe
        );
    }

    #[test]
    fn having_bounds_direction_matters_for_monotone_aggregates() {
        // σ_{cnt > $1}(γ_{state; count(*)→cnt}): partitioning on popden (a
        // non-group-by attribute) gives cnt <= cnt', which is enough for a
        // *lower*-bound HAVING (cnt <= cnt' ∧ cnt > $1 ⇒ cnt' > $1) but not
        // for an *upper*-bound one — exactly the asymmetry of Ex. 6.
        let db = cities_db();
        let agg = LogicalPlan::scan("cities").aggregate(
            vec!["state"],
            vec![AggExpr::new(AggFunc::Count, col("city"), "cnt")],
        );
        let lower = agg.clone().filter(col("cnt").gt(param(0)));
        let upper = agg.filter(col("cnt").lt(param(0)));
        let checker = SafetyChecker::new(&db);
        assert!(
            checker
                .check(&lower, &[PartitionAttr::new("cities", "state")])
                .safe
        );
        assert!(
            checker
                .check(&lower, &[PartitionAttr::new("cities", "popden")])
                .safe
        );
        assert!(
            checker
                .check(&upper, &[PartitionAttr::new("cities", "state")])
                .safe
        );
        assert!(
            !checker
                .check(&upper, &[PartitionAttr::new("cities", "popden")])
                .safe
        );
    }

    #[test]
    fn plain_selection_query_is_safe_on_any_attribute() {
        let db = cities_db();
        let plan = LogicalPlan::scan("cities").filter(col("state").eq(lit("CA")));
        let checker = SafetyChecker::new(&db);
        for attr in ["state", "popden", "city"] {
            let res = checker.check(&plan, &[PartitionAttr::new("cities", attr)]);
            assert!(res.safe, "attr {attr}: {:?}", res.details);
            assert!(!res.requires_topk_revalidation);
        }
    }

    #[test]
    fn two_level_aggregation_group_by_attr_is_safe() {
        // C-Q2 shape: count the groups whose count exceeds a threshold.
        let db = cities_db();
        let plan = LogicalPlan::scan("cities")
            .aggregate(
                vec!["state"],
                vec![AggExpr::new(AggFunc::Count, col("city"), "cnt")],
            )
            .filter(col("cnt").gt(lit(1)))
            .aggregate(
                vec![],
                vec![AggExpr::new(AggFunc::Count, col("state"), "nstates")],
            );
        let checker = SafetyChecker::new(&db);
        let res = checker.check(&plan, &[PartitionAttr::new("cities", "state")]);
        assert!(res.safe, "{:?}", res.details);
    }

    #[test]
    fn join_on_partition_attribute_is_safe() {
        let mut db = cities_db();
        let schema = Schema::from_pairs(&[("st", DataType::Str), ("region", DataType::Str)]);
        let mut b = TableBuilder::new("regions", schema);
        b.push(vec![Value::from("CA"), Value::from("West")]);
        b.push(vec![Value::from("NY"), Value::from("East")]);
        db.add_table(b.build());
        let plan = LogicalPlan::scan("cities")
            .join(LogicalPlan::scan("regions"), "state", "st")
            .aggregate(
                vec!["state"],
                vec![AggExpr::new(AggFunc::Avg, col("popden"), "avgden")],
            )
            .top_k(vec![SortKey::desc("avgden")], 1);
        let checker = SafetyChecker::new(&db);
        let res = checker.check(&plan, &[PartitionAttr::new("cities", "state")]);
        assert!(res.safe, "{:?}", res.details);
    }

    #[test]
    fn candidate_attributes_come_from_group_by() {
        let db = cities_db();
        let checker = SafetyChecker::new(&db);
        let cands = checker.candidate_attributes(&q2());
        assert_eq!(cands, vec![PartitionAttr::new("cities", "state")]);
    }

    #[test]
    fn choose_safe_attributes_prefers_caller_preference_when_safe() {
        let db = cities_db();
        let checker = SafetyChecker::new(&db);
        // Prefer popden (unsafe) — should fall back to group-by attr state.
        let chosen = checker
            .choose_safe_attributes(&q2(), &[PartitionAttr::new("cities", "popden")])
            .unwrap();
        assert_eq!(chosen, vec![PartitionAttr::new("cities", "state")]);
        // Prefer state (safe) — kept.
        let chosen = checker
            .choose_safe_attributes(&q2(), &[PartitionAttr::new("cities", "state")])
            .unwrap();
        assert_eq!(chosen, vec![PartitionAttr::new("cities", "state")]);
    }

    #[test]
    fn min_aggregate_with_topk_is_unsafe_on_non_group_attr() {
        // top-1 by min(popden): min can only shrink... over a subset min can
        // only grow, so ordering may change → unsafe for popden partitions.
        let db = cities_db();
        let plan = LogicalPlan::scan("cities")
            .aggregate(
                vec!["state"],
                vec![AggExpr::new(AggFunc::Min, col("popden"), "m")],
            )
            .top_k(vec![SortKey::asc("m")], 1);
        let checker = SafetyChecker::new(&db);
        assert!(
            !checker
                .check(&plan, &[PartitionAttr::new("cities", "popden")])
                .safe
        );
        assert!(
            checker
                .check(&plan, &[PartitionAttr::new("cities", "state")])
                .safe
        );
    }
}
