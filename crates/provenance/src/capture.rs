//! Provenance sketch capture by query instrumentation (Sec. 7, rules r0–r7).
//!
//! Capture runs the query once through the **same physical operator
//! pipeline as plain execution** (`pbds-exec`'s [`pbds_exec::physical`]),
//! with a [`TagPolicy`] that makes every row carry one sketch annotation per
//! partitioned input relation:
//!
//! * `r0` — every row of a partitioned base table is annotated with the
//!   singleton fragment it belongs to ([`FragmentAssigner`], the policy's
//!   `seed_tag`);
//! * `r1`/`r2`/`r5` — projection, selection and top-k simply keep the
//!   annotations of their input rows (tags ride along in the batch);
//! * `r3` — aggregation merges (bitwise-ORs) the annotations of each group;
//!   for `min`/`max` only the extremal rows are merged (the pipeline's
//!   min/max narrowing, enabled by the policy);
//! * `r4`/`r6` — cross product / join merge the annotations of the joined
//!   rows, union keeps them;
//! * `r7` — a final BITOR over the annotations of the result rows yields the
//!   provenance sketch ([`capture_sketches`]'s assembly step, the only part
//!   left in this module).
//!
//! There is deliberately **no plan interpreter here** any more: capture is a
//! pipeline *mode*, so execution and capture cannot drift apart.
//!
//! Capture runs one configuration, the one the paper uses for every
//! experiment after Sec. 9.2: fragments are found by binary search over a
//! range partition's bounds, annotations merge with the delay + no-copy
//! method ([`MergeStrategy::DelayNoCopy`]) and min/max aggregates narrow to
//! their witness rows. Fig. 12 times the lookup and merge alternatives
//! directly on `RangePartition` and [`Annotation`], not through capture.

use crate::bitset::{Annotation, FragmentBitset, MergeStrategy};
use crate::sketch::ProvenanceSketch;
use pbds_algebra::LogicalPlan;
use pbds_exec::{execute, lower, EngineProfile, ExecError, ExecStats, Executed, TagPolicy};
use pbds_storage::{Database, Partition, PartitionRef, Relation, Row, Schema};
use pbds_telemetry::clock;

/// Assigns rows of a partitioned table to fragments (by binary search over
/// a range partition's bounds).
///
/// The partitioning attributes are resolved against the table schema **once**
/// on first use and cached; the per-row hot path (`seed_tag` calls this for
/// every scanned row of the partitioned table) is then pure index access —
/// the same bind-once discipline the execution pipeline's compiled
/// predicates follow.
#[derive(Debug, Clone)]
pub struct FragmentAssigner {
    partition: PartitionRef,
    /// Resolved attribute indexes (`None` inside = some attribute missing
    /// from the schema). Seeded lazily because the schema only becomes
    /// available per row batch.
    attr_idx: std::sync::OnceLock<Option<Vec<usize>>>,
}

impl FragmentAssigner {
    /// Create an assigner for a partition.
    pub fn new(partition: PartitionRef) -> Self {
        FragmentAssigner {
            partition,
            attr_idx: std::sync::OnceLock::new(),
        }
    }

    /// The partition.
    pub fn partition(&self) -> &PartitionRef {
        &self.partition
    }

    /// Fragment of a row (None for rows whose partitioning value is NULL).
    pub fn assign(&self, schema: &Schema, row: &Row) -> Option<usize> {
        let cached = self
            .attr_idx
            .get_or_init(|| self.partition.resolve_attrs(schema));
        match cached {
            // The cached binding is only trusted after re-checking it against
            // *this* schema (a fixed-position name comparison per attribute —
            // cheap next to the per-row `index_of` scans it replaces). A
            // caller reusing one assigner across schemas with different
            // column orders falls through to per-call resolution.
            Some(idxs) if self.cache_matches(idxs, schema) => {
                self.partition.fragment_of_row_at(idxs, row)
            }
            _ => self.partition.fragment_of_row(schema, row),
        }
    }

    /// True when the cached attribute indexes still name the partitioning
    /// attributes under `schema`.
    fn cache_matches(&self, idxs: &[usize], schema: &Schema) -> bool {
        match self.partition.as_ref() {
            Partition::Range(p) => {
                idxs.len() == 1
                    && schema
                        .column_at(idxs[0])
                        .is_some_and(|c| c.name == p.attr())
            }
            Partition::Composite(p) => {
                idxs.len() == p.attrs().len()
                    && idxs
                        .iter()
                        .zip(p.attrs())
                        .all(|(&i, a)| schema.column_at(i).is_some_and(|c| c.name == *a))
            }
        }
    }
}

/// The capture configuration [`capture_sketches`] takes. It has no field:
/// capture always runs the paper's optimized configuration (binary search,
/// delay + no-copy merging, min/max narrowing), and this type stays for the
/// callers that name it.
#[derive(Debug, Clone, Copy)]
#[non_exhaustive]
pub struct CaptureConfig {}

impl CaptureConfig {
    /// The configuration the paper uses for all experiments after Sec. 9.2,
    /// and the only one.
    pub fn optimized() -> Self {
        CaptureConfig {}
    }
}

/// Result of capturing sketches for one query execution.
#[derive(Debug, Clone)]
pub struct CaptureResult {
    /// One sketch per requested partition (same order as the request).
    pub sketches: Vec<ProvenanceSketch>,
    /// The ordinary query result (capture computes it as a by-product).
    pub result: Relation,
    /// Execution counters of the instrumented execution; `elapsed` is its
    /// wall-clock time, lowering and the final sketch merge included.
    pub stats: ExecStats,
}

/// The pipeline tag policy that turns execution into sketch capture: tags
/// are one [`Annotation`] per requested partition, merged with the delay +
/// no-copy method, and min/max aggregates narrow to their witness rows.
#[derive(Debug)]
pub struct SketchTagPolicy<'a> {
    assigners: &'a [FragmentAssigner],
}

impl<'a> SketchTagPolicy<'a> {
    /// Create the policy for a set of fragment assigners.
    pub fn new(assigners: &'a [FragmentAssigner]) -> Self {
        SketchTagPolicy { assigners }
    }
}

impl TagPolicy for SketchTagPolicy<'_> {
    type Tag = Vec<Annotation>;

    fn seed_tag(&self, table: &str, schema: &Schema, row: &Row, _row_id: u32) -> Vec<Annotation> {
        // Rule r0: singleton annotations for rows of partitioned tables.
        self.assigners
            .iter()
            .map(|a| {
                if a.partition().table() == table {
                    match a.assign(schema, row) {
                        Some(f) => Annotation::Single(f as u32),
                        None => Annotation::Empty,
                    }
                } else {
                    Annotation::Empty
                }
            })
            .collect()
    }

    fn empty_tag(&self) -> Vec<Annotation> {
        vec![Annotation::Empty; self.assigners.len()]
    }

    fn merge_tags(&self, into: &mut Vec<Annotation>, from: &Vec<Annotation>) {
        for (i, ann) in from.iter().enumerate() {
            let nbits = self.assigners[i].partition().num_fragments();
            into[i].merge(ann, nbits, MergeStrategy::DelayNoCopy);
        }
    }

    fn minmax_narrowing(&self) -> bool {
        true
    }
}

/// Capture provenance sketches for `plan` over `db` according to the given
/// partitions (rule `INSTR` of Fig. 6), using the default indexed engine
/// profile. `_config` selects nothing ([`CaptureConfig`]).
pub fn capture_sketches(
    db: &Database,
    plan: &LogicalPlan,
    partitions: &[PartitionRef],
    _config: &CaptureConfig,
) -> Result<CaptureResult, ExecError> {
    capture_sketches_with_profile(db, plan, partitions, EngineProfile::default())
}

/// Capture provenance sketches using an explicit engine profile: the
/// instrumented run goes through the same lowering and physical operators as
/// plain execution on that profile.
pub fn capture_sketches_with_profile(
    db: &Database,
    plan: &LogicalPlan,
    partitions: &[PartitionRef],
    profile: EngineProfile,
) -> Result<CaptureResult, ExecError> {
    let start = clock::Stopwatch::start();
    let assigners: Vec<FragmentAssigner> = partitions
        .iter()
        .map(|p| FragmentAssigner::new(p.clone()))
        .collect();
    let policy = SketchTagPolicy::new(&assigners);
    let physical = lower(db, plan, profile)?;
    let mut stats = ExecStats::default();
    let Executed { relation, tags, .. } = execute(db, &physical, &policy, &mut stats)?;

    // Rule r7: final BITOR over the annotations of the result rows.
    let mut final_bits: Vec<Annotation> = vec![Annotation::Empty; partitions.len()];
    for anns in &tags {
        for (i, ann) in anns.iter().enumerate() {
            let nbits = partitions[i].num_fragments();
            final_bits[i].merge(ann, nbits, MergeStrategy::DelayNoCopy);
        }
    }
    let sketches = partitions
        .iter()
        .zip(final_bits)
        .map(|(p, ann)| {
            let bits: FragmentBitset = ann.to_bitset(p.num_fragments());
            ProvenanceSketch::new(p.clone(), bits)
        })
        .collect();
    stats.rows_output = relation.len() as u64;
    stats.elapsed = start.elapsed();
    Ok(CaptureResult {
        sketches,
        result: relation,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lineage::capture_lineage;
    use pbds_algebra::{col, lit, AggExpr, AggFunc, SortKey};
    use pbds_storage::{DataType, RangePartition, TableBuilder, Value};
    use std::sync::Arc;

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

    fn state_partition() -> PartitionRef {
        Arc::new(Partition::Range(RangePartition::from_uppers(
            "cities",
            "state",
            vec![Value::from("DE"), Value::from("MI"), Value::from("OK")],
        )))
    }

    fn popden_partition() -> PartitionRef {
        // Fig. 1e bottom: g1 = [1000, 4000], g2 = [4001, 9000].
        Arc::new(Partition::Range(RangePartition::from_uppers(
            "cities",
            "popden",
            vec![Value::Int(4000)],
        )))
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
    fn q2_capture_matches_paper_example_3() {
        // The sketch of Q2 on the state partition is {f1}.
        let db = cities_db();
        let res = capture_sketches(
            &db,
            &q2(),
            &[state_partition()],
            &CaptureConfig::optimized(),
        )
        .unwrap();
        assert_eq!(res.sketches.len(), 1);
        assert_eq!(res.sketches[0].selected_fragments(), vec![0]);
        assert_eq!(res.sketches[0].bitset().to_string(), "1000");
        // Capture also produces the ordinary query answer (Fig. 7b/7d).
        assert_eq!(res.result.value(0, "state"), Some(&Value::from("CA")));
    }

    #[test]
    fn q2_capture_on_popden_partition_selects_g2() {
        // Ex. 5: the popden-partition sketch of Q2 is {g2} (fragment index 1).
        let db = cities_db();
        let res = capture_sketches(
            &db,
            &q2(),
            &[popden_partition()],
            &CaptureConfig::optimized(),
        )
        .unwrap();
        assert_eq!(res.sketches[0].selected_fragments(), vec![1]);
    }

    #[test]
    fn captured_sketch_covers_lineage() {
        // Every fragment containing a provenance row must be in the sketch.
        let db = cities_db();
        let plan = LogicalPlan::scan("cities")
            .aggregate(
                vec!["state"],
                vec![AggExpr::new(AggFunc::Sum, col("popden"), "total")],
            )
            .filter(col("total").gt(lit(8000)));
        let part = state_partition();
        let res = capture_sketches(
            &db,
            &plan,
            std::slice::from_ref(&part),
            &CaptureConfig::optimized(),
        )
        .unwrap();
        let lineage = capture_lineage(&db, &plan).unwrap();
        let table = db.table("cities").unwrap();
        let accurate = ProvenanceSketch::from_rows(
            part,
            table.schema(),
            lineage
                .rows_of("cities")
                .into_iter()
                .map(|rid| table.rows()[rid as usize].clone()),
        );
        assert!(res.sketches[0].is_superset_of(&accurate));
    }

    #[test]
    fn minmax_narrowing_keeps_all_null_groups_in_the_sketch() {
        // A group whose aggregate inputs are all NULL has no extremal
        // witness, but it still produces a `(key, NULL)` output row — its
        // provenance must not vanish from the sketch, or re-executing over
        // the sketch instance would drop the row.
        let schema = Schema::from_pairs(&[("g", DataType::Int), ("v", DataType::Int)]);
        let mut b = TableBuilder::new("t", schema);
        b.push(vec![Value::Int(1), Value::Null]);
        b.push(vec![Value::Int(1), Value::Null]);
        b.push(vec![Value::Int(2), Value::Int(10)]);
        b.push(vec![Value::Int(2), Value::Int(20)]);
        let mut db = Database::new();
        db.add_table(b.build());
        let part: PartitionRef = Arc::new(Partition::Range(RangePartition::from_uppers(
            "t",
            "g",
            vec![Value::Int(1)],
        )));
        let plan = LogicalPlan::scan("t").aggregate(
            vec!["g"],
            vec![AggExpr::new(pbds_algebra::AggFunc::Min, col("v"), "m")],
        );
        let res = capture_sketches(
            &db,
            &plan,
            std::slice::from_ref(&part),
            &CaptureConfig::optimized(),
        )
        .unwrap();
        // Both fragments: group 1 (all NULL) via its fallback member, group
        // 2 via the min witness.
        assert_eq!(res.sketches[0].selected_fragments(), vec![0, 1]);
        // Re-executing over the sketch instance reproduces the full answer,
        // including the (1, NULL) row.
        let restricted = crate::sketch::restrict_database(&db, &res.sketches).unwrap();
        let engine = pbds_exec::Engine::new(EngineProfile::Indexed);
        let replay = engine.execute(&restricted, &plan).unwrap().relation;
        assert!(replay.bag_eq(&res.result));
        assert_eq!(res.result.len(), 2);
    }

    #[test]
    fn minmax_narrowing_keeps_only_the_witness_fragment() {
        let db = cities_db();
        // max(popden) per state, then keep the global max states via HAVING.
        let plan = LogicalPlan::scan("cities")
            .aggregate(vec![], vec![AggExpr::new(AggFunc::Max, col("popden"), "m")]);
        let narrowed = capture_sketches(
            &db,
            &plan,
            &[state_partition()],
            &CaptureConfig::optimized(),
        )
        .unwrap();
        // The max row (New York, 7000) is in fragment f3 (index 2), though
        // f1 = AK/CA and f4 = TX hold rows too.
        assert_eq!(narrowed.sketches[0].selected_fragments(), vec![2]);
    }

    #[test]
    fn capture_for_multiple_partitions_at_once() {
        let db = cities_db();
        let res = capture_sketches(
            &db,
            &q2(),
            &[state_partition(), popden_partition()],
            &CaptureConfig::optimized(),
        )
        .unwrap();
        assert_eq!(res.sketches.len(), 2);
        assert_eq!(res.sketches[0].selected_fragments(), vec![0]);
        assert_eq!(res.sketches[1].selected_fragments(), vec![1]);
    }

    #[test]
    fn capture_over_join_merges_annotations_of_both_sides() {
        let mut db = cities_db();
        let schema = Schema::from_pairs(&[("st", DataType::Str), ("region", DataType::Str)]);
        let mut b = TableBuilder::new("regions", schema);
        b.push(vec![Value::from("CA"), Value::from("West")]);
        b.push(vec![Value::from("NY"), Value::from("East")]);
        db.add_table(b.build());
        let plan = LogicalPlan::scan("cities")
            .join(LogicalPlan::scan("regions"), "state", "st")
            .aggregate(
                vec!["region"],
                vec![AggExpr::new(AggFunc::Avg, col("popden"), "avgden")],
            )
            .top_k(vec![SortKey::desc("avgden")], 1);
        let res = capture_sketches(
            &db,
            &plan,
            &[state_partition()],
            &CaptureConfig::optimized(),
        )
        .unwrap();
        // The winning region is West (CA rows, fragment f1).
        assert_eq!(res.sketches[0].selected_fragments(), vec![0]);
    }

    #[test]
    fn fragment_assigner_survives_schema_reordering() {
        // One assigner used across two schemas that place the partitioning
        // attribute at different positions: the index cache must not leak
        // the first schema's binding into the second.
        let part = state_partition();
        let a = FragmentAssigner::new(part);
        let schema1 = Schema::from_pairs(&[
            ("popden", pbds_storage::DataType::Int),
            ("city", pbds_storage::DataType::Str),
            ("state", pbds_storage::DataType::Str),
        ]);
        let row1 = vec![Value::Int(1), Value::from("San Diego"), Value::from("CA")];
        assert_eq!(a.assign(&schema1, &row1), Some(0)); // CA → f1, seeds the cache
        let schema2 = Schema::from_pairs(&[
            ("state", pbds_storage::DataType::Str),
            ("popden", pbds_storage::DataType::Int),
        ]);
        let row2 = vec![Value::from("NY"), Value::Int(2)];
        assert_eq!(a.assign(&schema2, &row2), Some(2)); // NY → f3, not row2[2] (OOB)
                                                        // And a schema missing the attribute yields None, not a stale index.
        let schema3 = Schema::from_pairs(&[("x", pbds_storage::DataType::Int)]);
        assert_eq!(a.assign(&schema3, &vec![Value::Int(9)]), None);
    }

    #[test]
    fn fragment_assigner_case_and_binary_agree() {
        // The assigner's binary search finds the fragment the linear CASE
        // list of Fig. 12a finds.
        let db = cities_db();
        let table = db.table("cities").unwrap();
        let part = state_partition();
        let Partition::Range(range) = part.as_ref() else {
            unreachable!("a range partition")
        };
        let state = table.schema().index_of("state").unwrap();
        let assigner = FragmentAssigner::new(part.clone());
        for row in table.rows() {
            assert_eq!(
                assigner.assign(table.schema(), row),
                range.fragment_of_linear(&row[state])
            );
        }
    }
}
