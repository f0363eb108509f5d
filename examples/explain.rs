//! EXPLAIN-style inspection of physical plans: `Engine::plan` lowers a
//! logical plan to its physical operator tree, and `PhysicalPlan` implements
//! `Display` as an indented tree — showing exactly which access path each
//! scan got, before and after sketch instrumentation. The EXPLAIN ANALYZE
//! section actually *runs* the tree and annotates every operator with
//! observed rows, batches and wall time, including a HAVING decided inside
//! the aggregate, and the last section shows a hash join narrowing its
//! build scan to the keys its probe side produced.
//!
//! Run with: `cargo run --release --example explain`

use pbds_core::algebra::{col, lit, AggExpr, AggFunc, LogicalPlan, SortKey};
use pbds_core::storage::{DataType, Database, Schema, TableBuilder, Value};
use pbds_core::{Engine, EngineProfile, Pbds};

fn build_db() -> Database {
    let schema = Schema::from_pairs(&[("grp", DataType::Int), ("v", DataType::Int)]);
    let mut b = TableBuilder::new("t", schema);
    b.block_size(64).index("grp");
    for i in 0..2_000i64 {
        b.push(vec![Value::Int(i % 40), Value::Int((i * 13) % 997)]);
    }
    // One row per group: its region, so that a selection on the region
    // picks a few groups.
    let schema = Schema::from_pairs(&[("gid", DataType::Int), ("region", DataType::Int)]);
    let mut g = TableBuilder::new("g", schema);
    for gid in 0..40i64 {
        g.push(vec![Value::Int(gid), Value::Int(gid % 8)]);
    }
    let mut db = Database::new();
    db.add_table(b.build());
    db.add_table(g.build());
    db
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let pbds = Pbds::new(build_db());
    let engine = Engine::new(EngineProfile::Indexed);

    // A top-1 query: which group has the largest total?
    let query = LogicalPlan::scan("t")
        .aggregate(
            vec!["grp"],
            vec![AggExpr::new(AggFunc::Sum, col("v"), "total")],
        )
        .top_k(vec![SortKey::desc("total")], 1);

    println!("plain physical plan (full scan — relevance is data-dependent):\n");
    println!("{}", engine.plan(pbds.db(), &query)?);

    // Capture a provenance sketch on the safe `grp` attribute …
    let partition = pbds.range_partition("t", "grp", 8)?;
    let captured = pbds.capture(&query, &[partition])?;
    println!(
        "captured {} ({} of {} fragments relevant)\n",
        captured.sketches[0],
        captured.sketches[0].num_selected(),
        captured.sketches[0].num_fragments()
    );

    // … and show how the instrumented query's scan turns into an
    // index-range scan over just the relevant fragments.
    let instrumented = pbds_core::apply_sketches(
        &query,
        &captured.sketches,
        pbds_core::UsePredicateStyle::BinarySearch,
    );
    println!("sketch-instrumented physical plan (index-range scan):\n");
    println!("{}", engine.plan(pbds.db(), &instrumented)?);

    // The narrowed plan produces identical results while scanning less.
    let plain = pbds.execute(&query)?;
    let fast = pbds.execute_with_sketches(&query, &captured.sketches)?;
    assert!(fast.relation.bag_eq(&plain.relation));
    println!(
        "rows scanned: {} plain vs {} with the sketch",
        plain.stats.rows_scanned, fast.stats.rows_scanned
    );

    // Which scans took the vectorized columnar path? Under the scan-only
    // columnar profile the sketch predicate cannot use the index, so the
    // filter runs vectorized over the table's columnar chunks instead —
    // `ExecStats` records both the scan count and the blocks it evaluated
    // into selection bitmaps.
    let columnar = Engine::new(EngineProfile::ColumnarScan);
    let out = columnar.execute(pbds.db(), &instrumented)?;
    println!(
        "\ncolumnar profile: {} scan(s) took the vectorized path \
         ({} chunk(s) -> selection bitmaps, {} rows scanned)",
        out.stats.vectorized_scans, out.stats.vectorized_blocks, out.stats.rows_scanned
    );

    // What do those columnar chunks actually hold? The build packs each
    // integer chunk-column whose values span 16 bits or fewer
    // frame-of-reference (`grp`'s 40 values do) and keeps plain vectors
    // otherwise. The kernels above evaluated directly on these.
    let table = pbds.db().table("t")?;
    let chunks = table.columnar_chunks();
    println!("\nper-column chunk encodings:");
    for (i, c) in table.schema().columns().iter().enumerate() {
        println!("  {:<8} {:?}", c.name, chunks.column_encoding_counts(i));
    }

    // A global aggregate directly above the scan never materializes rows at
    // all: the scan→aggregate pushdown folds each selection bitmap straight
    // into the accumulators (`agg_pushdown_blocks` counts the blocks).
    let agg = LogicalPlan::scan("t")
        .filter(col("v").lt(lit(500)))
        .aggregate(vec![], vec![AggExpr::new(AggFunc::Sum, col("v"), "total")]);
    let pushed = columnar.execute(pbds.db(), &agg)?;
    println!(
        "\nscan+aggregate pushdown: total = {:?}, {} block(s) aggregated \
         bitmap-driven, 0 rows materialized",
        pushed.relation.value(0, "total").unwrap(),
        pushed.stats.agg_pushdown_blocks
    );

    // A plain (non-aggregate) index probe takes the same chunk path: the
    // probe's rows are cut into per-chunk masks, and the filter runs through
    // the kernels only within the rows each chunk's mask selects.
    let probe = LogicalPlan::scan("t").filter(
        col("grp")
            .between(lit(3), lit(5))
            .and(col("v").lt(lit(500))),
    );
    let probed = engine.execute(pbds.db(), &probe)?;
    println!(
        "plain index probe: {} index scan(s), {} vectorized, {} chunk(s) filtered, \
         {} rows probed -> {} rows out",
        probed.stats.index_scans,
        probed.stats.vectorized_scans,
        probed.stats.vectorized_blocks,
        probed.stats.rows_scanned,
        probed.relation.len()
    );

    // EXPLAIN ANALYZE: execute the plan and keep the per-operator metrics
    // every execution records. Each node reports the rows it produced, how
    // many batches it was drained in and its cumulative wall time; scans add
    // the rows they scanned, and fused subtrees (scan→aggregate pushdown) are
    // marked.
    let analyzed = engine.explain_analyze(pbds.db(), &query)?;
    println!(
        "\nEXPLAIN ANALYZE (plain, {} rows out, {:?} total):\n{}",
        analyzed.output.stats.rows_output,
        analyzed.output.stats.elapsed,
        analyzed.render()
    );
    let analyzed_fast = engine.explain_analyze(pbds.db(), &instrumented)?;
    println!(
        "EXPLAIN ANALYZE (sketch-instrumented — same answer, fewer rows \
         scanned at the leaf):\n{}",
        analyzed_fast.render()
    );
    assert!(analyzed_fast
        .output
        .relation
        .bag_eq(&analyzed.output.relation));

    // A HAVING is decided inside the aggregate: the selection above it
    // lowers into the aggregate's `having=`, each finished group is tested
    // before its row is built, and only the groups that pass leave it.
    let having = LogicalPlan::scan("t")
        .aggregate(
            vec!["grp"],
            vec![AggExpr::new(AggFunc::Sum, col("v"), "total")],
        )
        .filter(col("total").gt(lit(25_000)))
        .top_k(vec![SortKey::desc("total")], 3);
    println!(
        "EXPLAIN ANALYZE (HAVING decided per group inside the aggregate):\n{}",
        engine.explain_analyze(pbds.db(), &having)?.render()
    );

    // A two-table join. The plan builds its hash table on a full scan of
    // `t`, but the join runs its probe side (the groups of one region)
    // first and narrows that scan to the probe's keys: the index on `grp`
    // fetches only the rows that can match. EXPLAIN ANALYZE renders the
    // access path the build scan actually took.
    let join = LogicalPlan::scan("g")
        .filter(col("region").eq(lit(3)))
        .join(LogicalPlan::scan("t"), "gid", "grp")
        .aggregate(
            vec!["gid"],
            vec![AggExpr::new(AggFunc::Sum, col("v"), "total")],
        );
    println!("join physical plan:\n\n{}", engine.plan(pbds.db(), &join)?);
    let joined = engine.explain_analyze(pbds.db(), &join)?;
    let stats = &joined.output.stats;
    println!(
        "EXPLAIN ANALYZE (join, {} build scan(s) narrowed by join keys, {} of {} rows \
         scanned):\n{}",
        stats.join_key_filters,
        stats.rows_scanned,
        pbds.db().table("g")?.len() + pbds.db().table("t")?.len(),
        joined.render()
    );
    // The scan-only profile narrows the same scan through the chunk
    // kernels instead of the index: every row is scanned, only the matching
    // ones reach the hash table, and the answer is the same.
    let scanned = columnar.execute(pbds.db(), &join)?;
    assert_eq!(scanned.relation, joined.output.relation);
    println!(
        "columnar profile: {} build scan(s) narrowed, {} rows scanned",
        scanned.stats.join_key_filters, scanned.stats.rows_scanned
    );
    Ok(())
}
