//! Using provenance sketches: instrumenting queries to skip data (Sec. 8).
//!
//! `Q[P]` is obtained from `Q` by adding, above every table access covered by
//! a sketch, a selection that keeps only the rows belonging to the sketch's
//! fragments. For range-partition sketches the selection is a set of value
//! ranges (adjacent fragments merged, Sec. 8.1), which the execution engine
//! answers through ordered indexes or zone maps; for composite (PSMIX)
//! sketches it is a membership test on the composite key.

use pbds_algebra::{col, lit, Expr, LogicalPlan};
use pbds_provenance::ProvenanceSketch;
use pbds_storage::ValueRange;

/// How range-sketch filters are rendered (Fig. 11a vs Fig. 11c).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum UsePredicateStyle {
    /// A single membership predicate answered by binary search over the
    /// ordered ranges (the paper's `BS` method — default).
    #[default]
    BinarySearch,
    /// An explicit disjunction of `BETWEEN` conditions (the paper's `OR`
    /// method, preferable for very selective sketches).
    OrConditions,
}

/// Build the filter predicate for one sketch, or `None` when the sketch
/// covers every fragment (filtering would be pure overhead).
pub fn sketch_predicate(sketch: &ProvenanceSketch, style: UsePredicateStyle) -> Option<Expr> {
    if sketch.num_selected() == sketch.num_fragments() {
        return None;
    }
    if let Some(ranges) = sketch.to_ranges() {
        let attr = sketch.attrs().into_iter().next()?;
        if ranges.is_empty() {
            // An empty sketch selects nothing.
            return Some(lit(1).eq(lit(0)));
        }
        return Some(match style {
            UsePredicateStyle::BinarySearch => Expr::InRanges {
                column: attr,
                ranges,
            },
            UsePredicateStyle::OrConditions => {
                let parts: Vec<Expr> = ranges.iter().map(|r| range_condition(&attr, r)).collect();
                if parts.len() == 1 {
                    parts.into_iter().next().expect("non-empty")
                } else {
                    Expr::Or(parts)
                }
            }
        });
    }
    if let Some(mut keys) = sketch.to_keys() {
        // Sorted keys let the evaluator use binary search and keep the
        // predicate deterministic.
        keys.sort();
        return Some(Expr::InList {
            columns: sketch.attrs(),
            keys,
        });
    }
    None
}

/// Render one value range as an explicit condition on `attr`.
fn range_condition(attr: &str, range: &ValueRange) -> Expr {
    match (&range.lo, &range.hi) {
        (Some(lo), Some(hi)) => col(attr)
            .gt(Expr::Literal(lo.clone()))
            .and(col(attr).le(Expr::Literal(hi.clone()))),
        (None, Some(hi)) => col(attr).le(Expr::Literal(hi.clone())),
        (Some(lo), None) => col(attr).gt(Expr::Literal(lo.clone())),
        (None, None) => lit(1).eq(lit(1)),
    }
}

/// Instrument a query with a set of sketches: `Q[PS]`.
///
/// Every scan of a sketched table gets the sketch filter pushed directly on
/// top of it; scans of other tables are untouched. Applying an unsafe sketch
/// changes query results — callers are expected to have verified safety
/// (Sec. 5) and, for parameterized queries, reusability (Sec. 6) first.
pub fn apply_sketches(
    plan: &LogicalPlan,
    sketches: &[ProvenanceSketch],
    style: UsePredicateStyle,
) -> LogicalPlan {
    plan.rewrite_scans(&|table| {
        let sketch = sketches.iter().find(|s| s.table() == table)?;
        let predicate = sketch_predicate(sketch, style)?;
        Some(LogicalPlan::scan(table).filter(predicate))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbds_algebra::{AggExpr, AggFunc, SortKey};
    use pbds_exec::{Engine, EngineProfile};
    use pbds_provenance::{capture_sketches, CaptureConfig};
    use pbds_storage::{
        CompositePartition, DataType, Database, Partition, RangePartition, Schema, TableBuilder,
        Value,
    };
    use std::sync::Arc;

    fn cities_db() -> Database {
        let schema = Schema::from_pairs(&[
            ("popden", DataType::Int),
            ("city", DataType::Str),
            ("state", DataType::Str),
        ]);
        let mut b = TableBuilder::new("cities", schema);
        b.block_size(2).index("state");
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

    fn state_sketch(db: &Database) -> ProvenanceSketch {
        let part = Arc::new(Partition::Range(RangePartition::from_uppers(
            "cities",
            "state",
            vec![Value::from("DE"), Value::from("MI"), Value::from("OK")],
        )));
        capture_sketches(db, &q2(), &[part], &CaptureConfig::optimized())
            .unwrap()
            .sketches
            .remove(0)
    }

    #[test]
    fn instrumented_q2_matches_paper_rewrite_and_result() {
        // Q2[P_state] returns the same answer as Q2 (Fig. 1a / 1d).
        let db = cities_db();
        let sketch = state_sketch(&db);
        let engine = Engine::new(EngineProfile::Indexed);
        for style in [
            UsePredicateStyle::BinarySearch,
            UsePredicateStyle::OrConditions,
        ] {
            let instrumented = apply_sketches(&q2(), std::slice::from_ref(&sketch), style);
            let plain = engine.execute(&db, &q2()).unwrap();
            let skipped = engine.execute(&db, &instrumented).unwrap();
            assert!(plain.relation.bag_eq(&skipped.relation), "style {style:?}");
            // And it touches fewer rows.
            assert!(skipped.stats.rows_scanned < plain.stats.rows_scanned);
        }
    }

    #[test]
    fn predicate_is_omitted_when_sketch_covers_everything() {
        let part = Arc::new(Partition::Range(RangePartition::from_uppers(
            "cities",
            "state",
            vec![Value::from("DE")],
        )));
        // A sketch with every fragment selected.
        let mut sketch = pbds_provenance::ProvenanceSketch::empty(part);
        sketch.add_fragment(0);
        sketch.add_fragment(1);
        assert!(sketch_predicate(&sketch, UsePredicateStyle::BinarySearch).is_none());
        let instrumented = apply_sketches(&q2(), &[sketch], UsePredicateStyle::BinarySearch);
        assert_eq!(instrumented, q2());
    }

    #[test]
    fn empty_sketch_filters_out_all_rows() {
        let db = cities_db();
        let part = Arc::new(Partition::Range(RangePartition::from_uppers(
            "cities",
            "state",
            vec![Value::from("DE")],
        )));
        let sketch = pbds_provenance::ProvenanceSketch::empty(part);
        let pred = sketch_predicate(&sketch, UsePredicateStyle::OrConditions).unwrap();
        let plan = LogicalPlan::scan("cities").filter(pred);
        let out = Engine::new(EngineProfile::Indexed)
            .execute(&db, &plan)
            .unwrap();
        assert!(out.relation.is_empty());
    }

    #[test]
    fn composite_sketch_uses_in_list_predicate() {
        let db = cities_db();
        let table = db.table("cities").unwrap();
        let comp =
            CompositePartition::build("cities", table.schema(), table.rows(), &["state"]).unwrap();
        let part = Arc::new(Partition::Composite(comp));
        let res = capture_sketches(&db, &q2(), &[part], &CaptureConfig::optimized()).unwrap();
        let sketch = &res.sketches[0];
        let pred = sketch_predicate(sketch, UsePredicateStyle::BinarySearch).unwrap();
        assert!(matches!(pred, Expr::InList { .. }));
        let engine = Engine::new(EngineProfile::Indexed);
        let instrumented = apply_sketches(
            &q2(),
            std::slice::from_ref(sketch),
            UsePredicateStyle::BinarySearch,
        );
        let plain = engine.execute(&db, &q2()).unwrap().relation;
        let skipped = engine.execute(&db, &instrumented).unwrap().relation;
        assert!(plain.bag_eq(&skipped));
    }

    #[test]
    fn only_matching_tables_are_rewritten() {
        let db = cities_db();
        let sketch = state_sketch(&db);
        let plan = LogicalPlan::scan("other").union(LogicalPlan::scan("cities"));
        let rewritten = apply_sketches(&plan, &[sketch], UsePredicateStyle::BinarySearch);
        match rewritten {
            LogicalPlan::Union { left, right } => {
                assert!(matches!(*left, LogicalPlan::TableScan { .. }));
                assert!(matches!(*right, LogicalPlan::Selection { .. }));
            }
            other => panic!("unexpected plan {other:?}"),
        }
    }

    #[test]
    fn or_conditions_render_merged_adjacent_ranges() {
        let db = cities_db();
        // Build a sketch selecting fragments 0 and 1 (adjacent) of a
        // 3-fragment partition: a single BETWEEN should remain.
        let part = Arc::new(Partition::Range(RangePartition::from_uppers(
            "cities",
            "state",
            vec![Value::from("DE"), Value::from("MI")],
        )));
        let mut sketch = pbds_provenance::ProvenanceSketch::empty(part);
        sketch.add_fragment(0);
        sketch.add_fragment(1);
        let pred = sketch_predicate(&sketch, UsePredicateStyle::OrConditions).unwrap();
        // Merged: state <= 'MI' (single condition, no OR).
        assert!(
            !matches!(pred, Expr::Or(_)),
            "expected merged range, got {pred}"
        );
        let plan = LogicalPlan::scan("cities").filter(pred);
        let out = Engine::new(EngineProfile::Indexed)
            .execute(&db, &plan)
            .unwrap();
        assert_eq!(out.relation.len(), 3); // AK + 2×CA
    }
}
