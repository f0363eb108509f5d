//! Lineage capture: the ground-truth provenance model (Sec. 3.2).
//!
//! Lineage annotates every query result tuple with the set of input tuples
//! used to derive it. PBDS never needs full lineage at runtime — that is the
//! whole point of sketches — but this module provides it as a reference
//! implementation: tests use it to verify that captured sketches really are
//! supersets of the provenance and to build *accurate* sketches.
//!
//! Like sketch capture, lineage is just a [`TagPolicy`] over the shared
//! physical operator pipeline: scans seed singleton `(table, row id)` sets,
//! merge points take set unions, and min/max narrowing stays off because
//! Lineage keeps the full witness set of every group.

use pbds_algebra::{AggFunc, LogicalPlan};
use pbds_exec::{execute, lower, EngineProfile, ExecError, ExecStats, Executed, TagPolicy};
use pbds_storage::{Database, Relation, Row, Schema, Value};
use std::collections::BTreeSet;

/// A set of base-table tuples identified by `(table name, row id)`.
pub type TupleSet = BTreeSet<(String, u32)>;

/// Result of a lineage-instrumented execution.
#[derive(Debug, Clone)]
pub struct LineageResult {
    /// The ordinary query result.
    pub relation: Relation,
    /// Lineage of each output row (aligned with `relation.rows()`).
    pub per_row: Vec<TupleSet>,
    /// Union of all per-row lineages: `P(Q, D)` in the paper's notation.
    pub provenance: TupleSet,
}

impl LineageResult {
    /// Provenance restricted to one table, as row ids.
    pub fn rows_of(&self, table: &str) -> Vec<u32> {
        self.provenance
            .iter()
            .filter(|(t, _)| t == table)
            .map(|(_, rid)| *rid)
            .collect()
    }
}

/// The pipeline tag policy computing Lineage: tags are base-tuple sets.
#[derive(Debug, Clone, Copy, Default)]
pub struct LineageTagPolicy;

impl TagPolicy for LineageTagPolicy {
    type Tag = TupleSet;

    fn seed_tag(&self, table: &str, _schema: &Schema, _row: &Row, row_id: u32) -> TupleSet {
        let mut set = TupleSet::new();
        set.insert((table.to_string(), row_id));
        set
    }

    fn empty_tag(&self) -> TupleSet {
        TupleSet::new()
    }

    fn merge_tags(&self, into: &mut TupleSet, from: &TupleSet) {
        into.extend(from.iter().cloned());
    }
}

/// Compute the query result together with Lineage provenance.
pub fn capture_lineage(db: &Database, plan: &LogicalPlan) -> Result<LineageResult, ExecError> {
    let physical = lower(db, plan, EngineProfile::default())?;
    let mut stats = ExecStats::default();
    let Executed {
        relation,
        tags: per_row,
        ..
    } = execute(db, &physical, &LineageTagPolicy, &mut stats)?;
    let mut provenance = TupleSet::new();
    for lin in &per_row {
        provenance.extend(lin.iter().cloned());
    }
    Ok(LineageResult {
        relation,
        per_row,
        provenance,
    })
}

/// Evaluate one aggregation function over the values of a group.
pub fn aggregate_value(func: AggFunc, values: &[Value]) -> Value {
    let non_null: Vec<&Value> = values.iter().filter(|v| !v.is_null()).collect();
    match func {
        AggFunc::Count => Value::Int(values.len() as i64),
        AggFunc::Min => non_null
            .iter()
            .min()
            .map(|v| (*v).clone())
            .unwrap_or(Value::Null),
        AggFunc::Max => non_null
            .iter()
            .max()
            .map(|v| (*v).clone())
            .unwrap_or(Value::Null),
        AggFunc::Sum => {
            if non_null.is_empty() {
                Value::Null
            } else if non_null.iter().all(|v| matches!(v, Value::Int(_))) {
                Value::Int(non_null.iter().filter_map(|v| v.as_i64()).sum())
            } else {
                Value::Float(non_null.iter().filter_map(|v| v.as_f64()).sum())
            }
        }
        AggFunc::Avg => {
            if non_null.is_empty() {
                Value::Null
            } else {
                let sum: f64 = non_null.iter().filter_map(|v| v.as_f64()).sum();
                Value::Float(sum / non_null.len() as f64)
            }
        }
    }
}

/// Also expose a plain (un-annotated) reference check: does the query return
/// the same result over `db` and over a database where `table` is restricted
/// to `row_ids`? Used by tests to validate sufficiency (Def. 1).
pub fn is_sufficient_subset(
    db: &Database,
    plan: &LogicalPlan,
    table: &str,
    row_ids: &[u32],
    engine: &pbds_exec::Engine,
) -> Result<bool, ExecError> {
    let full = engine.execute(db, plan)?.relation;
    let t = db.table(table)?;
    let subset_rows: Vec<Row> = row_ids
        .iter()
        .map(|&rid| t.rows()[rid as usize].clone())
        .collect();
    let replacement = pbds_storage::Table::new(table, t.schema().clone(), subset_rows);
    let restricted_db = db.with_replaced_table(replacement);
    let restricted = engine.execute(&restricted_db, plan)?.relation;
    Ok(full.bag_eq(&restricted))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbds_algebra::{col, lit, AggExpr, SortKey};
    use pbds_exec::Engine;
    use pbds_storage::{DataType, TableBuilder};

    /// The running-example `cities` relation (Fig. 1b).
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
    fn q2_lineage_is_the_two_california_rows() {
        // Ex. 3: the provenance of Q2 is {t2, t3} (row ids 1 and 2).
        let result = capture_lineage(&cities_db(), &q2()).unwrap();
        assert_eq!(result.relation.len(), 1);
        assert_eq!(result.rows_of("cities"), vec![1, 2]);
    }

    #[test]
    fn q1_selection_lineage_matches_matching_rows() {
        let plan = LogicalPlan::scan("cities").filter(col("state").eq(lit("CA")));
        let result = capture_lineage(&cities_db(), &plan).unwrap();
        assert_eq!(result.rows_of("cities"), vec![1, 2]);
        assert_eq!(result.per_row.len(), 2);
    }

    #[test]
    fn lineage_result_matches_plain_execution() {
        let engine = Engine::new(EngineProfile::Indexed);
        let db = cities_db();
        for plan in [
            q2(),
            LogicalPlan::scan("cities")
                .filter(col("popden").gt(lit(3000)))
                .aggregate(
                    vec!["state"],
                    vec![AggExpr::new(AggFunc::Count, col("city"), "cnt")],
                ),
            LogicalPlan::scan("cities")
                .project(vec![(col("state"), "state")])
                .distinct(),
        ] {
            let plain = engine.execute(&db, &plan).unwrap().relation;
            let lin = capture_lineage(&db, &plan).unwrap().relation;
            assert!(plain.bag_eq(&lin), "mismatch for {}", plan.display_tree());
        }
    }

    #[test]
    fn lineage_is_sufficient_for_the_query() {
        // Def. 1: evaluating the query over its provenance gives the same
        // answer as over the full database.
        let db = cities_db();
        let engine = Engine::new(EngineProfile::Indexed);
        let plan = q2();
        let lineage = capture_lineage(&db, &plan).unwrap();
        let rows = lineage.rows_of("cities");
        assert!(is_sufficient_subset(&db, &plan, "cities", &rows, &engine).unwrap());
    }

    #[test]
    fn join_lineage_includes_both_sides() {
        let mut db = cities_db();
        let schema = Schema::from_pairs(&[("st", DataType::Str), ("region", DataType::Str)]);
        let mut b = TableBuilder::new("regions", schema);
        b.push(vec![Value::from("CA"), Value::from("West")]);
        b.push(vec![Value::from("NY"), Value::from("East")]);
        db.add_table(b.build());
        let plan = LogicalPlan::scan("cities")
            .join(LogicalPlan::scan("regions"), "state", "st")
            .filter(col("region").eq(lit("West")));
        let result = capture_lineage(&db, &plan).unwrap();
        assert_eq!(result.rows_of("cities"), vec![1, 2]);
        assert_eq!(result.rows_of("regions"), vec![0]);
    }

    #[test]
    fn distinct_lineage_unions_duplicates() {
        let plan = LogicalPlan::scan("cities")
            .project(vec![(col("state"), "state")])
            .distinct()
            .filter(col("state").eq(lit("TX")));
        let result = capture_lineage(&cities_db(), &plan).unwrap();
        // Both Texas rows contribute to the single distinct output.
        assert_eq!(result.rows_of("cities"), vec![5, 6]);
    }

    #[test]
    fn aggregate_value_helper_matches_expectations() {
        let vals = vec![Value::Int(1), Value::Int(2), Value::Null, Value::Int(3)];
        assert_eq!(aggregate_value(AggFunc::Count, &vals), Value::Int(4));
        assert_eq!(aggregate_value(AggFunc::Sum, &vals), Value::Int(6));
        assert_eq!(aggregate_value(AggFunc::Min, &vals), Value::Int(1));
        assert_eq!(aggregate_value(AggFunc::Max, &vals), Value::Int(3));
        assert_eq!(aggregate_value(AggFunc::Avg, &vals), Value::Float(2.0));
    }
}
