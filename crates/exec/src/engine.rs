//! The query execution engine.
//!
//! A thin facade over the physical operator pipeline: every method lowers the
//! logical plan (see [`crate::physical::lower`]) where it has to and runs the
//! resulting operator tree, without tags, through the pipeline's one entry
//! point, [`crate::physical::execute`]. The lowering performs the rewrite
//! PBDS relies on — selections sitting directly above a table scan are pushed
//! into the scan so that range predicates, including the ones PBDS injects
//! from provenance sketches, can be answered through indexes and zone maps.

use crate::eval::ExecError;
use crate::physical::{execute, lower, Executed, NoTag, PhysicalPlan, PlanMetrics};
use crate::profile::EngineProfile;
use crate::stats::ExecStats;
use pbds_algebra::LogicalPlan;
use pbds_storage::{Database, Relation};
use pbds_telemetry::clock;

/// Result of executing a query: the output relation plus statistics.
#[derive(Debug, Clone)]
pub struct QueryOutput {
    /// The query result.
    pub relation: Relation,
    /// Execution counters and timing.
    pub stats: ExecStats,
}

/// The execution engine.
#[derive(Debug, Clone, Copy)]
pub struct Engine {
    profile: EngineProfile,
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new(EngineProfile::default())
    }
}

impl Engine {
    /// Create an engine with the given profile.
    pub fn new(profile: EngineProfile) -> Self {
        Engine { profile }
    }

    /// The engine profile.
    pub fn profile(&self) -> EngineProfile {
        self.profile
    }

    /// Execute a logical plan against a database: lower it to a physical
    /// plan, then run the batched operator pipeline without tags.
    pub fn execute(&self, db: &Database, plan: &LogicalPlan) -> Result<QueryOutput, ExecError> {
        Ok(self.explain_analyze(db, plan)?.output)
    }

    /// Lower a logical plan with this engine's profile (exposed so callers
    /// can inspect the chosen access paths, e.g. for `EXPLAIN`-style output).
    pub fn plan(&self, db: &Database, plan: &LogicalPlan) -> Result<PhysicalPlan, ExecError> {
        lower(db, plan, self.profile)
    }

    /// Execute a logical plan and keep what every execution records besides
    /// its result — `EXPLAIN ANALYZE`: the physical plan that ran and its
    /// per-operator metrics. [`AnalyzedQuery::render`] prints the annotated
    /// tree.
    pub fn explain_analyze(
        &self,
        db: &Database,
        plan: &LogicalPlan,
    ) -> Result<AnalyzedQuery, ExecError> {
        let sw = clock::Stopwatch::start();
        let physical = lower(db, plan, self.profile)?;
        let (output, metrics) = self.run(db, &physical, sw)?;
        Ok(AnalyzedQuery {
            output,
            physical,
            metrics,
        })
    }

    /// Execute an already-lowered physical plan.
    pub fn execute_physical(
        &self,
        db: &Database,
        plan: &PhysicalPlan,
    ) -> Result<QueryOutput, ExecError> {
        Ok(self.run(db, plan, clock::Stopwatch::start())?.0)
    }

    /// Run `plan` without tags; `sw` started when the caller's work did.
    fn run(
        &self,
        db: &Database,
        plan: &PhysicalPlan,
        sw: clock::Stopwatch,
    ) -> Result<(QueryOutput, PlanMetrics), ExecError> {
        let mut stats = ExecStats::default();
        let Executed {
            relation, metrics, ..
        } = execute(db, plan, &NoTag, &mut stats)?;
        stats.rows_output = relation.len() as u64;
        stats.elapsed = sw.elapsed();
        Ok((QueryOutput { relation, stats }, metrics))
    }
}

/// Result of [`Engine::explain_analyze`]: the query output plus the lowered
/// physical plan and its per-operator execution metrics.
#[derive(Debug, Clone)]
pub struct AnalyzedQuery {
    /// The result relation and whole-query statistics.
    pub output: QueryOutput,
    /// The physical plan that ran.
    pub physical: PhysicalPlan,
    /// Per-operator metrics, indexed in the plan's pre-order.
    pub metrics: PlanMetrics,
}

impl AnalyzedQuery {
    /// Render the physical plan tree annotated with per-operator rows,
    /// batches, and elapsed time — the `EXPLAIN ANALYZE` output.
    pub fn render(&self) -> String {
        self.physical.render_analyze(&self.metrics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lifted::lift_scan_filters;
    use pbds_algebra::{col, lit, AggExpr, AggFunc, SortKey};
    use pbds_storage::{DataType, Schema, TableBuilder, Value};

    /// The running-example `cities` relation from Fig. 1b.
    pub fn cities_db() -> Database {
        let schema = Schema::from_pairs(&[
            ("popden", DataType::Int),
            ("city", DataType::Str),
            ("state", DataType::Str),
        ]);
        let mut b = TableBuilder::new("cities", schema);
        b.block_size(2);
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

    fn engine() -> Engine {
        Engine::new(EngineProfile::Indexed)
    }

    #[test]
    fn q1_selection_returns_california_cities() {
        // Q1 from Fig. 1a.
        let plan = LogicalPlan::scan("cities")
            .filter(col("state").eq(lit("CA")))
            .project(vec![(col("city"), "city"), (col("popden"), "popden")]);
        let out = engine().execute(&cities_db(), &plan).unwrap();
        assert_eq!(out.relation.len(), 2);
        assert_eq!(
            out.relation.value(0, "city"),
            Some(&Value::from("San Diego"))
        );
    }

    #[test]
    fn q2_topk_returns_california() {
        // Q2 from Fig. 1a: state with the highest average popden.
        let plan = LogicalPlan::scan("cities")
            .aggregate(
                vec!["state"],
                vec![AggExpr::new(AggFunc::Avg, col("popden"), "avgden")],
            )
            .top_k(vec![SortKey::desc("avgden")], 1);
        let out = engine().execute(&cities_db(), &plan).unwrap();
        assert_eq!(out.relation.len(), 1);
        assert_eq!(out.relation.value(0, "state"), Some(&Value::from("CA")));
        assert_eq!(out.relation.value(0, "avgden"), Some(&Value::Float(5500.0)));
        assert_eq!(out.stats.topk_inputs, vec![(1, 4)]);
    }

    #[test]
    fn aggregate_count_sum_min_max() {
        let plan = LogicalPlan::scan("cities").aggregate(
            vec!["state"],
            vec![
                AggExpr::new(AggFunc::Count, col("city"), "cnt"),
                AggExpr::new(AggFunc::Sum, col("popden"), "total"),
                AggExpr::new(AggFunc::Min, col("popden"), "lo"),
                AggExpr::new(AggFunc::Max, col("popden"), "hi"),
            ],
        );
        let out = engine().execute(&cities_db(), &plan).unwrap().relation;
        let ny = out
            .rows()
            .iter()
            .find(|r| r[0] == Value::from("NY"))
            .unwrap();
        assert_eq!(ny[1], Value::Int(2));
        assert_eq!(ny[2], Value::Int(9000));
        assert_eq!(ny[3], Value::Int(2000));
        assert_eq!(ny[4], Value::Int(7000));
    }

    #[test]
    fn global_aggregate_over_empty_input() {
        let plan = LogicalPlan::scan("cities")
            .filter(col("state").eq(lit("ZZ")))
            .aggregate(
                vec![],
                vec![AggExpr::new(AggFunc::Count, col("city"), "cnt")],
            );
        let out = engine().execute(&cities_db(), &plan).unwrap().relation;
        assert_eq!(out.len(), 1);
        assert_eq!(out.value(0, "cnt"), Some(&Value::Int(0)));
    }

    #[test]
    fn join_matches_on_key() {
        let mut db = cities_db();
        let schema = Schema::from_pairs(&[("st", DataType::Str), ("region", DataType::Str)]);
        let mut b = TableBuilder::new("regions", schema);
        b.push(vec![Value::from("CA"), Value::from("West")]);
        b.push(vec![Value::from("NY"), Value::from("East")]);
        db.add_table(b.build());
        let plan = LogicalPlan::scan("cities").join(LogicalPlan::scan("regions"), "state", "st");
        let out = engine().execute(&db, &plan).unwrap().relation;
        assert_eq!(out.len(), 4); // 2 CA + 2 NY cities
        assert!(out.rows().iter().all(|r| r.len() == 5));
    }

    #[test]
    fn distinct_removes_duplicates() {
        let plan = LogicalPlan::scan("cities")
            .project(vec![(col("state"), "state")])
            .distinct();
        let out = engine().execute(&cities_db(), &plan).unwrap().relation;
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn union_preserves_bag_semantics() {
        let scan = || LogicalPlan::scan("cities").project(vec![(col("state"), "state")]);
        let plan = scan().union(scan());
        let out = engine().execute(&cities_db(), &plan).unwrap().relation;
        assert_eq!(out.len(), 14);
    }

    #[test]
    fn cross_product_multiplies_cardinalities() {
        let small = LogicalPlan::scan("cities").filter(col("state").eq(lit("CA")));
        let plan = small
            .clone()
            .cross(LogicalPlan::scan("cities").filter(col("state").eq(lit("TX"))));
        let out = engine().execute(&cities_db(), &plan).unwrap().relation;
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn nested_aggregation_two_levels() {
        // C-Q2-style query: number of states having total popden > 8000.
        let plan = LogicalPlan::scan("cities")
            .aggregate(
                vec!["state"],
                vec![AggExpr::new(AggFunc::Sum, col("popden"), "total")],
            )
            .filter(col("total").gt(lit(8000)))
            .aggregate(
                vec![],
                vec![AggExpr::new(AggFunc::Count, col("state"), "cnt")],
            );
        let out = engine().execute(&cities_db(), &plan).unwrap().relation;
        // CA=11000, NY=9000 qualify.
        assert_eq!(out.value(0, "cnt"), Some(&Value::Int(2)));
    }

    #[test]
    fn profiles_produce_identical_results() {
        let plan = LogicalPlan::scan("cities")
            .filter(col("popden").gt(lit(3000)))
            .aggregate(
                vec!["state"],
                vec![AggExpr::new(AggFunc::Count, col("city"), "cnt")],
            );
        let a = Engine::new(EngineProfile::Indexed)
            .execute(&cities_db(), &plan)
            .unwrap()
            .relation;
        let b = Engine::new(EngineProfile::ColumnarScan)
            .execute(&cities_db(), &plan)
            .unwrap()
            .relation;
        assert!(a.bag_eq(&b));
    }

    #[test]
    fn selection_chain_is_pushed_into_scan() {
        let plan = LogicalPlan::scan("cities")
            .filter(col("popden").ge(lit(4000)))
            .filter(col("popden").le(lit(6000)));
        let out = engine().execute(&cities_db(), &plan).unwrap();
        assert_eq!(out.relation.len(), 3);
        // The combined predicate should have been answered by the zone map:
        // blocks were considered for skipping.
        assert!(out.stats.blocks_total > 0);
    }

    #[test]
    fn topk_tie_breaking_is_deterministic() {
        let plan = LogicalPlan::scan("cities").top_k(vec![SortKey::asc("state")], 3);
        let out1 = engine().execute(&cities_db(), &plan).unwrap().relation;
        let out2 = engine().execute(&cities_db(), &plan).unwrap().relation;
        assert_eq!(out1, out2);
        assert_eq!(out1.len(), 3);
    }

    #[test]
    fn explain_analyze_matches_plain_execution_and_renders_rows() {
        let plan = LogicalPlan::scan("cities")
            .filter(col("popden").gt(lit(3000)))
            .aggregate(
                vec!["state"],
                vec![AggExpr::new(AggFunc::Count, col("city"), "cnt")],
            )
            .top_k(vec![SortKey::desc("cnt")], 2);
        let e = engine();
        let plain = e.execute(&cities_db(), &plan).unwrap();
        let analyzed = e.explain_analyze(&cities_db(), &plan).unwrap();
        assert!(analyzed.output.relation.bag_eq(&plain.relation));
        assert_eq!(analyzed.metrics.ops.len(), analyzed.physical.node_count());
        // The root operator emitted exactly the result rows.
        let root = &analyzed.metrics.ops[0];
        assert!(root.ran);
        assert_eq!(root.rows_out, plain.relation.len() as u64);
        let rendered = analyzed.render();
        assert!(rendered.contains("rows="), "{rendered}");
        assert!(rendered.contains("elapsed="), "{rendered}");
    }

    /// `t(grp, v)` of `examples/explain.rs`, scaled to `rows` rows.
    fn explain_db(rows: i64) -> Database {
        let schema = Schema::from_pairs(&[("grp", DataType::Int), ("v", DataType::Int)]);
        let mut b = TableBuilder::new("t", schema);
        b.block_size(64).index("grp");
        for i in 0..rows {
            b.push(vec![Value::Int(i % 40), Value::Int((i * 13) % 997)]);
        }
        let mut db = Database::new();
        db.add_table(b.build());
        db
    }

    #[test]
    fn execute_and_explain_analyze_record_the_same_execution() {
        let db = explain_db(2_000);
        let top1 = LogicalPlan::scan("t")
            .aggregate(
                vec!["grp"],
                vec![AggExpr::new(AggFunc::Sum, col("v"), "total")],
            )
            .top_k(vec![SortKey::desc("total")], 1);
        let global = LogicalPlan::scan("t")
            .filter(col("v").lt(lit(500)))
            .aggregate(vec![], vec![AggExpr::new(AggFunc::Sum, col("v"), "total")]);
        // (plan, fused by the scan→aggregate pushdown)
        let plans = [
            (top1, true),
            // The sketch-instrumented shape: a range on the indexed column.
            (
                LogicalPlan::scan("t")
                    .filter(col("grp").between(lit(8), lit(12)))
                    .aggregate(
                        vec!["grp"],
                        vec![AggExpr::new(AggFunc::Sum, col("v"), "total")],
                    )
                    .top_k(vec![SortKey::desc("total")], 1),
                true,
            ),
            (global, true),
            (LogicalPlan::scan("t").filter(col("v").ge(lit(0))), false),
            (LogicalPlan::scan("t").filter(col("v").lt(lit(20))), false),
        ];
        for profile in [EngineProfile::Indexed, EngineProfile::ColumnarScan] {
            let e = Engine::new(profile);
            for (plan, fusable) in &plans {
                let mut plain = e.execute(&db, plan).unwrap();
                let mut analyzed = e.explain_analyze(&db, plan).unwrap();
                assert_eq!(plain.relation, analyzed.output.relation);
                plain.stats.elapsed = Default::default();
                analyzed.output.stats.elapsed = Default::default();
                assert_eq!(plain.stats, analyzed.output.stats);
                let fused = analyzed.metrics.ops.iter().any(|m| m.fused);
                assert_eq!(fused, *fusable, "{profile:?}\n{}", analyzed.physical);
                assert_eq!(fused, plain.stats.agg_pushdown_blocks > 0);
                // The lifted-filter oracle returns the same rows and fuses
                // nothing.
                let lifted = lift_scan_filters(&analyzed.physical);
                let mut stats = ExecStats::default();
                let done = execute(&db, &lifted, &NoTag, &mut stats).unwrap();
                assert_eq!(done.relation, plain.relation, "{profile:?}\n{lifted}");
                assert!(!done.metrics.ops.iter().any(|m| m.fused));
                assert_eq!(stats.agg_pushdown_blocks, 0);
            }
        }
    }

    #[test]
    fn unknown_table_and_column_errors() {
        let e = engine();
        assert!(matches!(
            e.execute(&cities_db(), &LogicalPlan::scan("missing"))
                .unwrap_err(),
            ExecError::UnknownTable(_)
        ));
        let plan = LogicalPlan::scan("cities").filter(col("nope").gt(lit(1)));
        assert!(matches!(
            e.execute(&cities_db(), &plan).unwrap_err(),
            ExecError::UnknownColumn(_)
        ));
    }
}
