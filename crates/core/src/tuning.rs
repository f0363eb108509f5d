//! Self-tuning PBDS (Sec. 9.5): deciding per incoming query whether to
//! capture a sketch, use a previously captured sketch, or execute plainly.
//!
//! Two strategies from the paper are implemented:
//!
//! * **eager** — whenever a query instance is selective enough and no stored
//!   sketch can be reused, capture a new sketch immediately;
//! * **adaptive** — only capture once enough instances have been seen that
//!   *could have used* a sketch (evidence threshold), which avoids paying
//!   capture cost for rarely repeated parameter values.
//!
//! # Strategies and the shared catalog
//!
//! Strategies hold no state: stored sketches, memoized reuse checks, safe
//! attributes, partitions and the adaptive evidence counters all live in the
//! shared [`SketchCatalog`], so every session of a
//! [`crate::server::PbdsServer`] over one catalog cooperates — a sketch
//! captured for one is reusable by all, and [`Strategy::Adaptive`] counts
//! evidence across the whole query stream, as in the paper's middleware.
//!
//! The server is the one place that decides how a query is served (see
//! [`crate::server`]); this module holds the strategies and the helpers that
//! decision uses: [`estimate_selectivity`] (the selectivity gate),
//! `execute_with_reuse` (a catalog hit), `capture_and_store` (a capture) and
//! [`cumulative_elapsed`] (the Fig. 13 series).

use crate::catalog::SketchCatalog;
use crate::instrument::{apply_sketches, UsePredicateStyle};
use pbds_algebra::{BinOp, Expr, LogicalPlan, QueryTemplate};
use pbds_exec::{Engine, EngineProfile, ExecError, ExecStats};
use pbds_provenance::capture_sketches_with_profile;
use pbds_storage::{Database, PartitionRef, Relation, Value};
use std::time::Duration;

/// Self-tuning strategy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Strategy {
    /// Never use PBDS (the paper's `No-PS` baseline).
    NoPbds,
    /// Capture a sketch whenever none of the stored ones is reusable.
    Eager {
        /// Skip PBDS entirely for queries whose estimated selectivity exceeds
        /// this fraction (the paper uses 0.75).
        selectivity_threshold: f64,
    },
    /// Capture only after `evidence_threshold` instances could have used a
    /// sketch that did not exist yet.
    Adaptive {
        /// Selectivity gate, as for `Eager`.
        selectivity_threshold: f64,
        /// Number of missed reuse opportunities before capturing.
        evidence_threshold: usize,
    },
}

impl Strategy {
    pub(crate) fn selectivity_threshold(&self) -> f64 {
        match self {
            Strategy::NoPbds => 0.0,
            Strategy::Eager {
                selectivity_threshold,
            }
            | Strategy::Adaptive {
                selectivity_threshold,
                ..
            } => *selectivity_threshold,
        }
    }

    /// Decide whether a reuse miss should trigger capture, consulting the
    /// catalog's shared evidence counters for the adaptive strategy.
    pub(crate) fn capture_on_miss(
        &self,
        catalog: &SketchCatalog,
        template: &QueryTemplate,
    ) -> bool {
        match self {
            Strategy::Eager { .. } => true,
            Strategy::Adaptive {
                evidence_threshold, ..
            } => catalog.evidence_reached(template, *evidence_threshold),
            Strategy::NoPbds => false,
        }
    }
}

/// Answer `plan` from the catalog if a stored sketch covers it: on a hit the
/// sketch-instrumented query is executed, falling back to plain execution —
/// and denying the `(binding, entry)` pair — when the runtime top-k
/// re-validation fails. Returns `None` on a catalog miss.
pub(crate) fn execute_with_reuse(
    db: &Database,
    engine: &Engine,
    catalog: &SketchCatalog,
    style: UsePredicateStyle,
    template: &QueryTemplate,
    binding: &[Value],
    plan: &LogicalPlan,
) -> Result<Option<(QueryRecord, Relation)>, ExecError> {
    let Some(reusable) = catalog.find_reusable(db, template, binding) else {
        return Ok(None);
    };
    let instrumented = apply_sketches(plan, &reusable.sketches, style);
    let out = engine.execute(db, &instrumented)?;
    if !out.stats.topk_safety_revalidated() {
        // Runtime re-validation failed: fall back to the plain query and
        // stop offering this (binding, sketch) pair, so the double
        // execution happens once, not on every future run.
        catalog.note_revalidation_failure(template, binding, reusable.entry_id);
        let plain = engine.execute(db, plan)?;
        let elapsed = out.stats.elapsed + plain.stats.elapsed;
        let record = QueryRecord::of(
            template,
            Action::RevalidationFallback,
            plain.relation.len(),
            plain.stats,
        );
        return Ok(Some((QueryRecord { elapsed, ..record }, plain.relation)));
    }
    let record = QueryRecord::of(template, Action::UseSketch, out.relation.len(), out.stats);
    Ok(Some((record, out.relation)))
}

/// Capture sketches for `plan` (= `template(binding)`) over the template's
/// safe attributes and store them in the catalog. `None` when there is
/// nothing to partition on; otherwise the query's answer (capture computes
/// it as a by-product), the capture run's counters and what
/// [`SketchCatalog::insert`] returned (`None` = rejected as stale).
pub(crate) fn capture_and_store(
    db: &Database,
    catalog: &SketchCatalog,
    profile: EngineProfile,
    fragments: usize,
    template: &QueryTemplate,
    binding: &[Value],
    plan: &LogicalPlan,
) -> Result<Option<(Relation, ExecStats, Option<u64>)>, ExecError> {
    let Some(attrs) = catalog.safe_attrs(db, template) else {
        return Ok(None);
    };
    let partitions: Vec<PartitionRef> = attrs
        .iter()
        .filter_map(|a| catalog.partition_for(db, a, fragments))
        .collect();
    if partitions.is_empty() {
        return Ok(None);
    }
    let capture = capture_sketches_with_profile(db, plan, &partitions, profile)?;
    let stored = catalog.insert(db, template, binding, capture.sketches);
    Ok(Some((capture.result, capture.stats, stored)))
}

/// What the server decided to do for one query instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action {
    /// Executed without PBDS.
    Plain,
    /// Executed the capture-instrumented query (and stored the new sketch).
    Capture,
    /// Executed the sketch-instrumented query, reusing a stored sketch.
    UseSketch,
    /// A sketch was used but the runtime top-k re-validation failed, so the
    /// query was re-executed plainly (counted in the elapsed time).
    RevalidationFallback,
}

/// Per-query execution record.
#[derive(Debug, Clone)]
pub struct QueryRecord {
    /// Template name.
    pub template: String,
    /// Decision taken.
    pub action: Action,
    /// Wall-clock time spent (including capture or fallback re-execution).
    pub elapsed: Duration,
    /// Execution counters of the (final) execution.
    pub stats: ExecStats,
    /// Number of result rows.
    pub result_rows: usize,
}

impl QueryRecord {
    /// The record of one execution of `template`, taking its elapsed time
    /// from `stats`.
    pub(crate) fn of(
        template: &QueryTemplate,
        action: Action,
        result_rows: usize,
        stats: ExecStats,
    ) -> Self {
        QueryRecord {
            template: template.name().to_string(),
            action,
            elapsed: stats.elapsed,
            stats,
            result_rows,
        }
    }
}

/// Cumulative elapsed times after each query of a workload run (the series
/// plotted in Fig. 13).
pub fn cumulative_elapsed(records: &[QueryRecord]) -> Vec<Duration> {
    let mut total = Duration::ZERO;
    records
        .iter()
        .map(|r| {
            total += r.elapsed;
            total
        })
        .collect()
}

/// Rough selectivity estimate of the base-table selection predicates of a
/// plan, assuming uniform value distributions (min/max statistics only).
/// Returns `None` when nothing can be estimated (e.g. HAVING or top-k
/// queries, whose relevance is data-dependent — the motivation for PBDS).
pub fn estimate_selectivity(db: &Database, plan: &LogicalPlan) -> Option<f64> {
    fn column_fraction(db: &Database, plan: &LogicalPlan, pred: &Expr) -> Option<f64> {
        // Only estimate comparisons between a base-table column and a
        // constant.
        if let Expr::Binary { op, left, right } = pred {
            let (col, cst, op) = match (&**left, &**right) {
                (Expr::Column(c), Expr::Literal(v)) => (c, v, *op),
                (Expr::Literal(v), Expr::Column(c)) => (c, v, op.flipped()),
                _ => return None,
            };
            for t in plan.tables() {
                if let Ok(table) = db.table(&t) {
                    if let Some(stats) = table.stats().column(col) {
                        let (min, max) = match (&stats.min, &stats.max) {
                            (Some(a), Some(b)) => (a.as_f64()?, b.as_f64()?),
                            _ => return None,
                        };
                        let v = cst.as_f64()?;
                        let span = (max - min).max(f64::EPSILON);
                        let frac = match op {
                            BinOp::Eq => 1.0 / table.distinct(col).map_or(1, |d| d.max(1)) as f64,
                            BinOp::Lt | BinOp::Le => ((v - min) / span).clamp(0.0, 1.0),
                            BinOp::Gt | BinOp::Ge => ((max - v) / span).clamp(0.0, 1.0),
                            _ => return None,
                        };
                        return Some(frac);
                    }
                }
            }
        }
        None
    }

    let mut best: Option<f64> = None;
    let mut walk = |p: &LogicalPlan| {
        if let LogicalPlan::Selection { predicate, input } = p {
            let mut sel = 1.0f64;
            let mut found = false;
            for c in predicate.conjuncts() {
                if let Some(f) = column_fraction(db, input, c) {
                    sel *= f;
                    found = true;
                }
            }
            if found {
                best = Some(best.map_or(sel, |b: f64| b.min(sel)));
            }
        }
    };
    fn visit(p: &LogicalPlan, f: &mut impl FnMut(&LogicalPlan)) {
        f(p);
        for c in p.children() {
            visit(c, f);
        }
    }
    visit(plan, &mut walk);
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{PbdsServer, ServerConfig};
    use pbds_algebra::{col, lit, param, AggExpr, AggFunc};
    use pbds_storage::{DataType, Schema, TableBuilder};
    use std::sync::Arc;

    /// A synthetic sales table: 5 000 rows, 50 groups, skewed amounts.
    fn sales_db() -> Database {
        let schema = Schema::from_pairs(&[
            ("grp", DataType::Int),
            ("amount", DataType::Int),
            ("region", DataType::Int),
        ]);
        let mut b = TableBuilder::new("sales", schema);
        b.block_size(100).index("grp");
        for i in 0..5_000i64 {
            b.push(vec![
                Value::Int(i % 50),
                Value::Int((i * 37) % 1000 + 1),
                Value::Int(i % 5),
            ]);
        }
        let mut db = Database::new();
        db.add_table(b.build());
        db
    }

    /// HAVING template: groups whose total amount exceeds $0.
    fn having_template() -> QueryTemplate {
        QueryTemplate::new(
            "sales-having",
            LogicalPlan::scan("sales")
                .aggregate(
                    vec!["grp"],
                    vec![AggExpr::new(AggFunc::Sum, col("amount"), "total")],
                )
                .filter(col("total").gt(param(0))),
        )
    }

    /// An in-memory server over `db` that captures inline, as the paper's
    /// self-tuning loop does.
    fn inline_server(db: &Database, strategy: Strategy) -> PbdsServer {
        PbdsServer::new(
            Arc::new(db.clone()),
            ServerConfig {
                strategy,
                fragments: 16,
                capture_workers: 0,
                ..ServerConfig::default()
            },
        )
    }

    fn run(server: &PbdsServer, t: &QueryTemplate, binding: &[Value]) -> QueryRecord {
        server.session().serve(t, binding).unwrap().record
    }

    const EAGER: Strategy = Strategy::Eager {
        selectivity_threshold: 0.75,
    };

    #[test]
    fn eager_strategy_captures_then_reuses() {
        let db = sales_db();
        let server = inline_server(&db, EAGER);
        let t = having_template();
        let r1 = run(&server, &t, &[Value::Int(52_000)]);
        assert_eq!(r1.action, Action::Capture);
        // The capture query scans the table like the plain query does, and
        // its record says so.
        let plain = Engine::new(EngineProfile::Indexed)
            .execute(&db, &t.instantiate(&[Value::Int(52_000)]))
            .unwrap();
        assert_eq!(plain.stats.rows_scanned, 5_000);
        assert_eq!(r1.stats.rows_scanned, plain.stats.rows_scanned);
        assert_eq!(r1.result_rows, plain.relation.len());
        // A more selective instance reuses the stored sketch.
        let r2 = run(&server, &t, &[Value::Int(53_000)]);
        assert_eq!(r2.action, Action::UseSketch, "{:?}", r2);
        // A less selective instance cannot reuse it and triggers a new capture.
        let r3 = run(&server, &t, &[Value::Int(40_000)]);
        assert_eq!(r3.action, Action::Capture);
        assert_eq!(server.catalog().stored_sketches(), 2);
    }

    #[test]
    fn adaptive_strategy_waits_for_evidence() {
        let db = sales_db();
        let server = inline_server(
            &db,
            Strategy::Adaptive {
                selectivity_threshold: 0.75,
                evidence_threshold: 3,
            },
        );
        let t = having_template();
        let b = vec![Value::Int(52_000)];
        assert_eq!(run(&server, &t, &b).action, Action::Plain);
        assert_eq!(run(&server, &t, &b).action, Action::Plain);
        assert_eq!(run(&server, &t, &b).action, Action::Capture);
        assert_eq!(run(&server, &t, &b).action, Action::UseSketch);
    }

    #[test]
    fn no_pbds_strategy_always_runs_plain() {
        let db = sales_db();
        let server = inline_server(&db, Strategy::NoPbds);
        let t = having_template();
        for _ in 0..3 {
            assert_eq!(
                run(&server, &t, &[Value::Int(52_000)]).action,
                Action::Plain
            );
        }
        assert_eq!(server.catalog().stored_sketches(), 0);
    }

    #[test]
    fn sketch_reuse_returns_correct_results() {
        let db = sales_db();
        let engine = Engine::new(EngineProfile::Indexed);
        let t = having_template();
        let server = inline_server(&db, EAGER);
        // Capture with a loose bound, then reuse for a tighter one and check
        // the result equals the plain execution.
        run(&server, &t, &[Value::Int(50_000)]);
        let tight = vec![Value::Int(53_000)];
        let reused = run(&server, &t, &tight);
        assert_eq!(reused.action, Action::UseSketch);
        let plain = engine
            .execute(&db, &t.instantiate(&tight))
            .unwrap()
            .relation;
        assert_eq!(reused.result_rows, plain.len());
    }

    #[test]
    fn non_selective_queries_bypass_pbds() {
        let db = sales_db();
        let t = QueryTemplate::new(
            "non-selective",
            LogicalPlan::scan("sales").filter(col("amount").gt(param(0))),
        );
        let server = inline_server(&db, EAGER);
        // amount > 1 keeps ~100% of the rows: the selectivity gate skips PBDS.
        let r = run(&server, &t, &[Value::Int(1)]);
        assert_eq!(r.action, Action::Plain);
    }

    #[test]
    fn selectivity_estimator_orders_predicates_sensibly() {
        let db = sales_db();
        let selective = LogicalPlan::scan("sales").filter(col("amount").gt(lit(990)));
        let broad = LogicalPlan::scan("sales").filter(col("amount").gt(lit(10)));
        let est_selective = estimate_selectivity(&db, &selective).unwrap();
        let est_broad = estimate_selectivity(&db, &broad).unwrap();
        assert!(est_selective < est_broad);
        assert!(est_selective < 0.1);
        assert!(est_broad > 0.9);
        // No estimable predicate: no estimate (PBDS gets a chance).
        assert_eq!(estimate_selectivity(&db, &LogicalPlan::scan("sales")), None);
    }

    #[test]
    fn cumulative_elapsed_is_monotone() {
        let db = sales_db();
        let t = having_template();
        let server = inline_server(&db, EAGER);
        let workload: Vec<(QueryTemplate, Vec<Value>)> = (0..5)
            .map(|i| (t.clone(), vec![Value::Int(52_000 + i * 100)]))
            .collect();
        let records: Vec<QueryRecord> = server
            .serve_stream(&workload, 1)
            .unwrap()
            .into_iter()
            .map(|q| q.record)
            .collect();
        let cum = cumulative_elapsed(&records);
        assert_eq!(cum.len(), 5);
        assert!(cum.windows(2).all(|w| w[0] <= w[1]));
    }
}
