//! End-to-end telemetry tests: histogram determinism (property-based) and
//! the server round-trip — `PbdsServer::metrics_snapshot()` is the one read
//! path for every counter, so its numbers must be the ones the workload
//! implies, and the text exposition must carry the whole `pbds_*`
//! namespace.

use pbds_algebra::{col, lit, param, AggExpr, AggFunc, LogicalPlan, QueryTemplate};
use pbds_core::{HealthState, Mutation, PbdsServer, ServerConfig};
use pbds_storage::{DataType, Database, Row, Schema, TableBuilder, Value};
use pbds_sync::tracking_enabled;
use pbds_telemetry::hist::{bucket_bound, bucket_index};
use pbds_telemetry::{spans_enabled, Histogram, HistogramSnapshot};
use proptest::prelude::*;
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Histogram determinism (property-based)
// ---------------------------------------------------------------------------

fn snapshot_of(values: &[u64]) -> HistogramSnapshot {
    let h = Histogram::new(1.0);
    for &v in values {
        h.record(v);
    }
    h.snapshot()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Recording the same multiset of values in any order produces an
    /// identical snapshot: same count, sum, buckets and every quantile.
    #[test]
    fn histogram_is_order_invariant(values in prop::collection::vec(0u64..1_000_000_000, 1..200)) {
        let fwd = snapshot_of(&values);
        let mut rev = values.clone();
        rev.reverse();
        let bwd = snapshot_of(&rev);
        prop_assert_eq!(fwd.count(), bwd.count());
        prop_assert_eq!(fwd.sum(), bwd.sum());
        prop_assert_eq!(fwd.cumulative(), bwd.cumulative());
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            prop_assert_eq!(fwd.quantile(q), bwd.quantile(q));
        }
    }

    /// Merging two histograms equals one histogram fed both value streams,
    /// and count/sum are exact (no sampling in the registry).
    #[test]
    fn histogram_merge_equals_union(a in prop::collection::vec(0u64..1_000_000, 0..100),
                                    b in prop::collection::vec(0u64..1_000_000, 0..100)) {
        let mut merged = snapshot_of(&a);
        merged.merge(&snapshot_of(&b));
        let both: Vec<u64> = a.iter().chain(b.iter()).copied().collect();
        let union = snapshot_of(&both);
        prop_assert_eq!(merged.count(), union.count());
        prop_assert_eq!(merged.sum(), union.sum());
        prop_assert_eq!(merged.cumulative(), union.cumulative());
        prop_assert_eq!(both.len() as u64, union.count());
        prop_assert_eq!(both.iter().sum::<u64>(), union.sum());
    }

    /// The log-linear bucketing keeps relative error under 1/16: every
    /// value maps to a bucket whose bound is ≥ the value and within
    /// `v + v/16 + 1` of it, and quantiles are monotone in q.
    #[test]
    fn bucket_bounds_and_quantiles_are_tight(values in prop::collection::vec(0u64..u64::MAX / 2, 1..100)) {
        for &v in &values {
            let bound = bucket_bound(bucket_index(v));
            prop_assert!(bound >= v, "bound {bound} < value {v}");
            prop_assert!(bound - v <= v / 16 + 1, "bound {bound} too far above {v}");
        }
        let snap = snapshot_of(&values);
        let max = *values.iter().max().unwrap();
        let mut prev = 0u64;
        for q in [0.0, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            let x = snap.quantile(q);
            prop_assert!(x >= prev, "quantile not monotone at q={q}");
            prop_assert!(x <= bucket_bound(bucket_index(max)));
            prev = x;
        }
    }
}

// ---------------------------------------------------------------------------
// Server round-trip
// ---------------------------------------------------------------------------

fn tiny_db() -> Arc<Database> {
    let schema = Schema::from_pairs(&[
        ("k", DataType::Int),
        ("grp", DataType::Int),
        ("v", DataType::Int),
    ]);
    let mut b = TableBuilder::new("r", schema);
    b.block_size(64).index("k");
    for i in 0..600i64 {
        b.push(vec![
            Value::Int(i),
            Value::Int(i % 7),
            Value::Int(1 + (i * 37) % 400),
        ]);
    }
    let mut db = Database::new();
    db.add_table(b.build());
    Arc::new(db)
}

fn templates() -> Vec<QueryTemplate> {
    vec![
        QueryTemplate::new(
            "r-range",
            LogicalPlan::scan("r").filter(col("k").between(param(0), param(1))),
        ),
        QueryTemplate::new(
            "r-having",
            LogicalPlan::scan("r")
                .aggregate(
                    vec!["grp"],
                    vec![AggExpr::new(AggFunc::Sum, col("v"), "total")],
                )
                .filter(col("total").gt(param(0))),
        ),
        QueryTemplate::new(
            "r-point",
            LogicalPlan::scan("r").filter(col("grp").eq(param(0)).and(col("v").gt(lit(50)))),
        ),
    ]
}

fn small_stream(n: usize) -> Vec<(QueryTemplate, Vec<Value>)> {
    let ts = templates();
    (0..n)
        .map(|i| {
            let t = ts[i % ts.len()].clone();
            let binds = match i % ts.len() {
                0 => vec![Value::Int((i as i64 * 13) % 500), Value::Int(550)],
                1 => vec![Value::Int(2_000 + (i as i64 % 5) * 700)],
                _ => vec![Value::Int(i as i64 % 7)],
            };
            (t, binds)
        })
        .collect()
}

/// One served stream plus a write burst, read back through the snapshot
/// alone: every counter holds the value the workload implies, and the
/// rendered exposition carries every `pbds_*` family the README documents.
#[test]
fn metrics_snapshot_reports_a_served_stream_and_write_burst() {
    let server = PbdsServer::new(tiny_db(), ServerConfig::default());
    let stream = small_stream(24);
    // Two passes so the second one gets catalog hits, then a write burst.
    server.serve_stream(&stream, 2).unwrap();
    server.drain();
    server.serve_stream(&stream, 2).unwrap();
    for i in 0..9i64 {
        let rows: Vec<Row> = vec![vec![Value::Int(600 + i), Value::Int(i % 7), Value::Int(10)]];
        server.apply_mutation("r", Mutation::Append(rows)).unwrap();
    }

    let snap = server.metrics_snapshot();
    let c = |name: &str| snap.counter(name).expect(name);
    let g = |name: &str| snap.gauge(name).expect(name);

    assert_eq!(c("pbds_queries_served"), 48);

    assert_eq!(c("pbds_commit_mutations_submitted"), 9);
    assert_eq!(c("pbds_commit_mutations_committed"), 9);
    assert_eq!(c("pbds_wal_fsyncs"), 0, "an in-memory server never fsyncs");
    let batches = c("pbds_commit_batches");
    assert!(
        (1..=9).contains(&batches),
        "{batches} batches for 9 mutations"
    );
    assert!((1..=9).contains(&g("pbds_commit_max_batch")));

    assert!(
        c("pbds_catalog_hits") + c("pbds_catalog_misses") > 0,
        "serving never consulted the catalog"
    );
    assert_eq!(
        g("pbds_catalog_stored"),
        server.catalog().stored_sketches() as i64
    );

    let robustness: Vec<(&String, &u64)> = snap
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("pbds_robustness_"))
        .collect();
    assert_eq!(robustness.len(), 8, "{robustness:?}");
    assert!(robustness.iter().all(|(_, &v)| v == 0), "{robustness:?}");
    assert_eq!(g("pbds_capture_disabled"), 0);

    assert_eq!(server.health(), HealthState::Healthy);
    assert_eq!(g("pbds_health_state"), 0);

    // Latency histograms saw every query / commit.
    let qh = snap.histogram("pbds_query_seconds").unwrap();
    assert_eq!(qh.count(), 48);
    assert!(qh.quantile_scaled(0.99) >= qh.quantile_scaled(0.5));
    let mh = snap.histogram("pbds_mutation_commit_seconds").unwrap();
    assert_eq!(mh.count(), 9);

    // Exposition carries the whole namespace, sorted and parseable.
    let text = snap.render_text();
    for family in [
        "pbds_queries_served",
        "pbds_catalog_hits",
        "pbds_commit_mutations_committed",
        "pbds_health_state",
        "pbds_capture_disabled",
        "pbds_query_seconds_bucket",
        "pbds_query_seconds_count 48",
        "pbds_exec_rows_scanned",
        "pbds_exec_join_key_filters",
    ] {
        assert!(
            text.contains(family),
            "exposition missing {family}:\n{text}"
        );
    }
    // Lock-hold gauges ride along whenever the pbds-sync tracked wrappers
    // are armed (debug builds or --features lock-order); plain release
    // builds have passthrough locks and no hold stats.
    if tracking_enabled() {
        assert!(
            text.contains("pbds_lock_"),
            "exposition missing lock gauges"
        );
    }
}

/// Snapshots are monotone across servings: counters never decrease, and
/// merging two snapshots adds counters.
#[test]
fn snapshots_are_monotone_and_mergeable() {
    let server = PbdsServer::new(tiny_db(), ServerConfig::default());
    let stream = small_stream(8);
    server.serve_stream(&stream, 1).unwrap();
    let a = server.metrics_snapshot();
    server.serve_stream(&stream, 1).unwrap();
    let b = server.metrics_snapshot();
    for (name, &v) in &a.counters {
        assert!(
            b.counters.get(name).copied().unwrap_or(0) >= v,
            "counter {name} went backwards"
        );
    }
    let mut merged = a.clone();
    merged.merge(b.clone());
    assert_eq!(
        merged.counters["pbds_queries_served"],
        a.counters["pbds_queries_served"] + b.counters["pbds_queries_served"]
    );
    assert_eq!(
        merged.histograms["pbds_query_seconds"].count(),
        a.histograms["pbds_query_seconds"].count() + b.histograms["pbds_query_seconds"].count()
    );
}

/// The tracer is armed exactly in debug builds and under `--features
/// telemetry`, so the journal test below takes the branch its build
/// promises.
#[test]
fn spans_follow_the_build_configuration() {
    assert_eq!(
        spans_enabled(),
        cfg!(any(debug_assertions, feature = "telemetry"))
    );
}

/// When the span tracer is armed (debug builds or `--features telemetry`),
/// serving a stream leaves query-lifecycle spans in the journal; in plain
/// release builds the tracer reports disabled and records nothing.
#[test]
fn span_journal_traces_query_lifecycle_when_armed() {
    let server = PbdsServer::new(tiny_db(), ServerConfig::default());
    server.serve_stream(&small_stream(6), 1).unwrap();
    server.drain();
    if spans_enabled() {
        let journal = pbds_telemetry::journal();
        let names: Vec<&str> = journal.iter().map(|e| e.name).collect();
        for phase in ["query.serve", "query.admit", "query.template_match"] {
            assert!(
                names.contains(&phase),
                "armed tracer missing span {phase}; saw {names:?}"
            );
        }
        let rendered = pbds_telemetry::render_journal();
        assert!(rendered.contains("query.serve"));
    } else {
        assert!(
            pbds_telemetry::journal().is_empty(),
            "disabled tracer must record nothing"
        );
        assert_eq!(pbds_telemetry::render_journal(), "");
    }
}
