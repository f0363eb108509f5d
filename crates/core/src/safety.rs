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
//!
//! The plan walk is the one in the private `encode` module, with the
//! unprimed copy the query over the sketch instance and the primed copy the
//! query over the full database. This module is Fig. 3's rule set over it:
//! column-bound premises at scans, the selection obligation θ → θ', top-k
//! order-by equalities, and Fig. 3b's aggregate Ψ with its X = ∅ shortcut.

use crate::encode::{
    attr_var, eq_primed, relate_outputs, verdict, EncodedPred, Encoder, Node, Rules, Side, SYMBOLIC,
};
use pbds_algebra::{AggExpr, AggFunc, Expr, LogicalPlan, SortKey};
use pbds_solver::{implies, CmpOp, Formula, LinExpr};
use pbds_storage::{DataType, Database, Table, Value};
use std::cell::OnceCell;
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
        let mut enc = Encoder::new(plan, SYMBOLIC);
        // Register string min/max statistics so bound constraints stay
        // order-consistent with the literals of the query.
        for table in plan.tables() {
            if let Ok(t) = self.db.table(&table) {
                for col in t.schema().columns() {
                    if col.dtype == DataType::Str {
                        let (min, max) = self.bounds_of(t, &col.name);
                        for bound in [min, max] {
                            if let Some(Value::Str(s)) = &bound {
                                enc.register(s);
                            }
                        }
                    }
                }
            }
        }
        let mut details = Vec::new();
        let rules = Fig3 {
            checker: self,
            attrs,
        };
        let node = enc.walk(self.db, plan, &rules, &mut details);
        SafetyResult {
            safe: node.ok,
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
}

/// Fig. 3's rules for one check of `attrs`.
struct Fig3<'c, 'a> {
    checker: &'c SafetyChecker<'a>,
    attrs: &'c [PartitionAttr],
}

impl Rules for Fig3<'_, '_> {
    const JOIN_KEYS_IN_PRED: bool = true;

    /// `min <= a <= max` on both copies for every column `a` of the table.
    fn scan(&self, enc: &Encoder, table: &str, sides: &mut [Side; 2]) -> bool {
        if let Ok(t) = self.checker.db.table(table) {
            for col in t.schema().columns() {
                let (min, max) = self.checker.bounds_of(t, &col.name);
                for (op, v) in [(CmpOp::Ge, min), (CmpOp::Le, max)] {
                    let Some(c) = v.and_then(|v| enc.constant(&v)) else {
                        continue;
                    };
                    for (primed, side) in [false, true].into_iter().zip(sides.iter_mut()) {
                        side.pred
                            .push(Formula::var_cmp_const(&attr_var(&col.name, primed), op, c));
                    }
                }
            }
        }
        self.attrs.iter().any(|a| a.table == table)
    }

    /// Ψ ∧ conds(Q') ∧ conds(Q) ∧ θ → θ'.
    fn selection(
        &self,
        node: &Node,
        predicate: &Expr,
        theta: &[EncodedPred; 2],
        trace: &mut Vec<String>,
    ) -> bool {
        if !theta[1].complete {
            trace.push(format!(
                "selection [{predicate}]: predicate not encodable, assuming unsafe"
            ));
            return false;
        }
        let premise = Formula::and_all(vec![node.premise(), theta[0].formula.clone()]);
        let holds = implies(&premise, &theta[1].formula);
        trace.push(format!(
            "selection [{predicate}]: implication {}",
            verdict(holds)
        ));
        holds
    }

    fn top_k(&self, node: &Node, order_by: &[SortKey], trace: &mut Vec<String>) -> bool {
        let keys = order_by.iter().map(|k| k.column.as_str());
        node.agree("top-k order-by", keys, trace)
    }

    /// Fig. 3b.
    fn aggregate_psi(
        &self,
        enc: &Encoder,
        node: &Node,
        input: &LogicalPlan,
        group_by: &[String],
        aggregates: &[AggExpr],
        trace: &mut Vec<String>,
    ) -> Formula {
        if !node.sketched {
            // X = ∅: the subquery sees only un-sketched relations, results are
            // identical and all output attributes (incl. aggregates) equal.
            return Formula::and_all(node.names.iter().map(|n| eq_primed(n)).collect());
        }
        let tables = input.tables();
        let x_here: Vec<&str> = self
            .attrs
            .iter()
            .filter(|a| tables.contains(&a.table))
            .map(|a| a.column.as_str())
            .collect();
        let conds = OnceCell::new();
        let implied = |f: Formula| implies(conds.get_or_init(|| node.sides[0].conds()), &f);
        // CASE 1: every partition attribute below is (provably equal to) a
        // group-by attribute — whole groups are kept or dropped together, so
        // aggregate values are equal.
        let case1 = x_here.iter().all(|x| {
            group_by
                .iter()
                .any(|g| g == x || implied(Formula::var_cmp_var(x, CmpOp::Eq, g)))
        });
        let exists_non_group_x = x_here.iter().any(|x| !group_by.iter().any(|g| g == x));
        let sign = |agg: &AggExpr, op| {
            let zero = LinExpr::constant(0.0);
            enc.lin(&agg.input, false)
                .is_some_and(|lin| implied(Formula::cmp(lin, op, zero)))
        };
        relate_outputs(node, aggregates, trace, |agg| {
            if case1 {
                Some(CmpOp::Eq)
            } else if exists_non_group_x {
                match agg.func {
                    AggFunc::Count => Some(CmpOp::Le),
                    AggFunc::Sum | AggFunc::Max if sign(agg, CmpOp::Ge) => Some(CmpOp::Le),
                    AggFunc::Sum | AggFunc::Min if sign(agg, CmpOp::Le) => Some(CmpOp::Ge),
                    _ => None,
                }
            } else {
                None
            }
        })
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
    use pbds_storage::{Schema, TableBuilder, Value};

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
