//! Logical-vs-physical equivalence tests.
//!
//! The physical operator pipeline (`pbds_exec::physical`) is the only
//! production interpreter of query plans. To guard it against semantic
//! drift, this suite re-implements the bag-relational-algebra semantics as a
//! deliberately naive *oracle* interpreter (no access paths, no batches, no
//! pushdown) and checks that lowering + pipeline execution produce identical
//! relations and row counts for every query shape of `engine_semantics.rs`,
//! under both engine profiles.
//!
//! A second group asserts capture equivalence: the sketches produced by the
//! unified pipeline (capture as a tag-policy *mode*) still match the paper's
//! worked examples — the values the seed's standalone capture interpreter
//! produced — on both profiles.
//!
//! A third group checks the scan path against its oracle, the same plan
//! with every scan filter lifted into a `Filter` above its scan
//! (`support/lifted.rs`): rows and tags must be byte-identical.

use pbds_algebra::{col, lit, param, AggExpr, AggFunc, Expr, LogicalPlan, SortKey};
use pbds_exec::{
    eval_expr, eval_predicate, execute, lower, Engine, EngineProfile, ExecError, ExecStats, NoTag,
    PhysOp, PhysicalPlan, TagPolicy,
};
use pbds_provenance::{
    capture_lineage, capture_sketches_with_profile, Annotation, FragmentAssigner, LineageTagPolicy,
    ProvenanceSketch, SketchTagPolicy,
};
use pbds_storage::{
    ColumnData, DataType, Database, Partition, PartitionRef, RangePartition, Relation, Row, Schema,
    TableBuilder, Value, ValueRange,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

#[path = "support/lifted.rs"]
mod lifted;
use lifted::lift_scan_filters;

// ---------------------------------------------------------------------------
// The oracle: a direct, materializing interpreter of the logical algebra.
// ---------------------------------------------------------------------------

fn oracle(db: &Database, plan: &LogicalPlan) -> Result<Relation, ExecError> {
    let rows = oracle_rows(db, plan)?;
    Ok(Relation::new(plan.schema(db)?, rows))
}

fn oracle_rows(db: &Database, plan: &LogicalPlan) -> Result<Vec<Row>, ExecError> {
    match plan {
        LogicalPlan::TableScan { table } => Ok(db.table(table)?.rows().to_vec()),
        LogicalPlan::Selection { predicate, input } => {
            let schema = input.schema(db)?;
            let mut out = Vec::new();
            for row in oracle_rows(db, input)? {
                if eval_predicate(predicate, &schema, &row)? {
                    out.push(row);
                }
            }
            Ok(out)
        }
        LogicalPlan::Projection { exprs, input } => {
            let schema = input.schema(db)?;
            oracle_rows(db, input)?
                .into_iter()
                .map(|row| {
                    exprs
                        .iter()
                        .map(|(e, _)| eval_expr(e, &schema, &row))
                        .collect()
                })
                .collect()
        }
        LogicalPlan::Aggregate {
            group_by,
            aggregates,
            input,
        } => {
            let schema = input.schema(db)?;
            let group_idx: Vec<usize> = group_by
                .iter()
                .map(|g| {
                    schema
                        .index_of(g)
                        .ok_or_else(|| ExecError::UnknownColumn(g.clone()))
                })
                .collect::<Result<_, _>>()?;
            let mut order: Vec<Vec<Value>> = Vec::new();
            let mut members: Vec<Vec<Row>> = Vec::new();
            for row in oracle_rows(db, input)? {
                let key: Vec<Value> = group_idx.iter().map(|&i| row[i].clone()).collect();
                match order.iter().position(|k| *k == key) {
                    Some(i) => members[i].push(row),
                    None => {
                        order.push(key);
                        members.push(vec![row]);
                    }
                }
            }
            if order.is_empty() && group_by.is_empty() {
                let row = aggregates
                    .iter()
                    .map(|a| match a.func {
                        AggFunc::Count => Value::Int(0),
                        _ => Value::Null,
                    })
                    .collect();
                return Ok(vec![row]);
            }
            let mut out = Vec::with_capacity(order.len());
            for (key, rows) in order.into_iter().zip(members) {
                let mut result = key;
                for agg in aggregates {
                    let vals: Vec<Value> = rows
                        .iter()
                        .map(|r| eval_expr(&agg.input, &schema, r))
                        .collect::<Result<_, _>>()?;
                    result.push(pbds_provenance::lineage::aggregate_value(agg.func, &vals));
                }
                out.push(result);
            }
            Ok(out)
        }
        LogicalPlan::Join {
            left,
            right,
            left_col,
            right_col,
        } => {
            let ls = left.schema(db)?;
            let rs = right.schema(db)?;
            let li = ls
                .index_of(left_col)
                .ok_or_else(|| ExecError::UnknownColumn(left_col.clone()))?;
            let ri = rs
                .index_of(right_col)
                .ok_or_else(|| ExecError::UnknownColumn(right_col.clone()))?;
            let lrows = oracle_rows(db, left)?;
            let rrows = oracle_rows(db, right)?;
            let mut out = Vec::new();
            for lrow in &lrows {
                if lrow[li].is_null() {
                    continue;
                }
                for rrow in &rrows {
                    if !rrow[ri].is_null() && lrow[li] == rrow[ri] {
                        let mut row = lrow.clone();
                        row.extend(rrow.iter().cloned());
                        out.push(row);
                    }
                }
            }
            Ok(out)
        }
        LogicalPlan::CrossProduct { left, right } => {
            let lrows = oracle_rows(db, left)?;
            let rrows = oracle_rows(db, right)?;
            let mut out = Vec::new();
            for lrow in &lrows {
                for rrow in &rrows {
                    let mut row = lrow.clone();
                    row.extend(rrow.iter().cloned());
                    out.push(row);
                }
            }
            Ok(out)
        }
        LogicalPlan::Distinct { input } => {
            let mut out: Vec<Row> = Vec::new();
            for row in oracle_rows(db, input)? {
                if !out.contains(&row) {
                    out.push(row);
                }
            }
            Ok(out)
        }
        LogicalPlan::TopK {
            order_by,
            limit,
            input,
        } => {
            let schema = input.schema(db)?;
            let key_idx: Vec<(usize, bool)> = order_by
                .iter()
                .map(|k| {
                    schema
                        .index_of(&k.column)
                        .map(|i| (i, k.descending))
                        .ok_or_else(|| ExecError::UnknownColumn(k.column.clone()))
                })
                .collect::<Result<_, _>>()?;
            let mut rows = oracle_rows(db, input)?;
            rows.sort_by(|a, b| {
                for &(idx, desc) in &key_idx {
                    let ord = a[idx].cmp(&b[idx]);
                    let ord = if desc { ord.reverse() } else { ord };
                    if !ord.is_eq() {
                        return ord;
                    }
                }
                a.cmp(b)
            });
            rows.truncate(*limit);
            Ok(rows)
        }
        LogicalPlan::Union { left, right } => {
            let mut rows = oracle_rows(db, left)?;
            rows.extend(oracle_rows(db, right)?);
            Ok(rows)
        }
    }
}

// ---------------------------------------------------------------------------
// Shared fixtures (mirroring engine_semantics.rs and the paper examples).
// ---------------------------------------------------------------------------

fn random_db(seed: u64, rows: usize) -> Database {
    let mut rng = StdRng::seed_from_u64(seed);
    let schema = Schema::from_pairs(&[
        ("k", DataType::Int),
        ("grp", DataType::Int),
        ("v", DataType::Int),
        ("name", DataType::Str),
        ("f", DataType::Float),
        ("flag", DataType::Bool),
    ]);
    let mut b = TableBuilder::new("r", schema);
    b.block_size(32).index("k");
    // Small-domain columns so the columnar build picks every layout the
    // kernels and the aggregation pushdown branch on: frame-of-reference
    // packing over `k` / `grp` / `v`, plain `i64` wherever a rare outlier
    // widens `v` past 16 bits, a sorted dictionary over `name`, plain floats
    // over `f`, booleans over `flag` and `Mixed` wherever a stray `Int` lands
    // among them. Occasional NULLs exercise the null fix-up passes. `v`'s
    // span changes from block to block, so its packed chunks take every
    // lane width: 2, 4, 100 and 30 000 values need 1, 2, 8 and 16 bits.
    const V_SPANS: [i64; 4] = [2, 4, 100, 30_000];
    let mut grp = rng.gen_range(0..10i64);
    let mut name = rng.gen_range(0..5u32);
    for i in 0..rows {
        if rng.gen_range(0..5) == 0 {
            grp = rng.gen_range(0..10);
        }
        if rng.gen_range(0..2) == 0 {
            name = rng.gen_range(0..5);
        }
        let span = V_SPANS[i / 32 % V_SPANS.len()];
        let v = match rng.gen_range(0..100) {
            0..=2 => Value::Null,
            3 => Value::Int(rng.gen_range(-50..50) * 1_000_003),
            _ => Value::Int(rng.gen_range(-50..50) * span / 100),
        };
        let flag = match rng.gen_range(0..100) {
            0 => Value::Int(1),
            1..=4 => Value::Null,
            _ => Value::Bool(rng.gen_range(0..3) == 0),
        };
        b.push(vec![
            Value::Int(i as i64),
            Value::Int(grp),
            v,
            Value::from(format!("n{name}")),
            Value::Float(rng.gen_range(-8.0..8.0)),
            flag,
        ]);
    }
    let schema_s = Schema::from_pairs(&[("grp_id", DataType::Int), ("weight", DataType::Int)]);
    let mut s = TableBuilder::new("s", schema_s);
    for g in 0..10i64 {
        s.push(vec![Value::Int(g), Value::Int(rng.gen_range(1..5))]);
    }
    let mut db = Database::new();
    db.add_table(b.build());
    db.add_table(s.build());
    db
}

/// The `engine_semantics.rs` query family: one query per operator shape.
fn query_family() -> Vec<LogicalPlan> {
    vec![
        LogicalPlan::scan("r")
            .filter(col("v").gt(lit(0)).and(col("grp").le(lit(5))))
            .project(vec![(col("k"), "k"), (col("v").mul(lit(2)), "v2")]),
        LogicalPlan::scan("r").aggregate(
            vec!["grp"],
            vec![
                AggExpr::new(AggFunc::Count, col("k"), "cnt"),
                AggExpr::new(AggFunc::Sum, col("v"), "sum_v"),
                AggExpr::new(AggFunc::Avg, col("v"), "avg_v"),
                AggExpr::new(AggFunc::Min, col("v"), "min_v"),
                AggExpr::new(AggFunc::Max, col("v"), "max_v"),
            ],
        ),
        LogicalPlan::scan("r")
            .aggregate(
                vec!["grp"],
                vec![AggExpr::new(AggFunc::Sum, col("v"), "total")],
            )
            .filter(col("total").gt(lit(10))),
        LogicalPlan::scan("r")
            .aggregate(
                vec!["grp"],
                vec![AggExpr::new(AggFunc::Count, col("k"), "cnt")],
            )
            .top_k(vec![SortKey::desc("cnt")], 3),
        LogicalPlan::scan("r")
            .join(LogicalPlan::scan("s"), "grp", "grp_id")
            .aggregate(
                vec!["weight"],
                vec![AggExpr::new(AggFunc::Count, col("k"), "cnt")],
            ),
        LogicalPlan::scan("r")
            .project(vec![(col("grp"), "grp"), (col("name"), "name")])
            .distinct(),
        LogicalPlan::scan("r")
            .filter(col("v").gt(lit(25)))
            .project(vec![(col("k"), "k")])
            .union(
                LogicalPlan::scan("r")
                    .filter(col("v").lt(lit(-25)))
                    .project(vec![(col("k"), "k")]),
            ),
        LogicalPlan::scan("r")
            .aggregate(vec![], vec![AggExpr::new(AggFunc::Max, col("v"), "mx")])
            .cross(
                LogicalPlan::scan("r")
                    .aggregate(vec![], vec![AggExpr::new(AggFunc::Min, col("v"), "mn")]),
            ),
        LogicalPlan::scan("r")
            .aggregate(
                vec!["grp"],
                vec![AggExpr::new(AggFunc::Count, col("k"), "cnt")],
            )
            .filter(col("cnt").ge(lit(3)))
            .aggregate(
                vec![],
                vec![AggExpr::new(AggFunc::Count, col("grp"), "groups")],
            ),
        // Range predicates that exercise the index / zone-map access paths.
        LogicalPlan::scan("r")
            .filter(col("k").between(lit(40), lit(160)))
            .aggregate(vec![], vec![AggExpr::new(AggFunc::Count, col("k"), "cnt")]),
        LogicalPlan::scan("r")
            .filter(col("k").ge(lit(10)))
            .filter(col("k").le(lit(120)))
            .top_k(vec![SortKey::asc("v"), SortKey::desc("k")], 7),
        // Plain index probes: a sketch predicate on the indexed `k` selects
        // rows from several chunks, and the conjunct on NULL-bearing `v` is
        // checked within them. The second sketch lies outside `k`'s domain,
        // so its probe selects no piece at all.
        LogicalPlan::scan("r")
            .filter(sketch_on_k(&[(10, 45), (90, 100), (150, 230)]).and(col("v").gt(lit(-10))))
            .project(vec![
                (col("k"), "k"),
                (col("v"), "v"),
                (col("name"), "name"),
            ]),
        LogicalPlan::scan("r")
            .filter(sketch_on_k(&[(-50, -10), (1_000, 2_000)]).and(col("v").lt(lit(0))))
            .project(vec![(col("k"), "k"), (col("v"), "v")]),
        // The float, boolean and type-mixed chunks: a filter on `flag` above
        // a column fold of `f`, and `flag` as a group key, which the
        // pushdown folds row by row.
        LogicalPlan::scan("r")
            .filter(col("flag").eq(lit(true)))
            .aggregate(
                vec!["grp"],
                vec![
                    AggExpr::new(AggFunc::Sum, col("f"), "sum_f"),
                    AggExpr::new(AggFunc::Min, col("f"), "min_f"),
                ],
            ),
        LogicalPlan::scan("r").aggregate(
            vec!["flag"],
            vec![
                AggExpr::new(AggFunc::Max, col("v"), "max_v"),
                AggExpr::new(AggFunc::Avg, col("f"), "avg_f"),
            ],
        ),
    ]
}

/// A sketch predicate on `k`: the ranges `(lo, hi]`, as sketch
/// instrumentation writes them.
fn sketch_on_k(ranges: &[(i64, i64)]) -> Expr {
    sketch_on("k", ranges)
}

/// The lowered plan and its lifted-filter oracle, which walk the same chunk
/// pieces, against the logical oracle, which shares no piece code.
#[test]
fn pipeline_matches_direct_evaluation_on_every_query_and_profile() {
    for seed in 0..4u64 {
        let db = random_db(seed, 300);
        for profile in [EngineProfile::Indexed, EngineProfile::ColumnarScan] {
            for lifted in [false, true] {
                for (i, plan) in query_family().iter().enumerate() {
                    let ctx = format!("seed {seed}, query #{i}, {profile:?}, lifted {lifted}");
                    let expected = oracle(&db, plan).unwrap();
                    let ((actual, _), _) = run_pinned(&db, plan, profile, lifted, &NoTag);
                    assert_eq!(
                        actual.len(),
                        expected.len(),
                        "{ctx}: row counts differ\n{}",
                        plan.display_tree()
                    );
                    assert!(
                        actual.bag_eq(&expected),
                        "{ctx}: relations differ\n{}",
                        plan.display_tree()
                    );
                }
            }
        }
    }
}

/// The chunk layouts the scan kernels and the column fold branch on.
const LAYOUTS: [&str; 6] = ["int", "packed-int", "float", "dict", "bool", "mixed"];

/// The layout names of every chunk-column of `table`, and whether some
/// packed chunk of column `col` has a frame of reference that decides the
/// comparison with `literal` for the whole chunk (the literal lies outside
/// [`PackedInts::frame`](pbds_storage::PackedInts::frame)).
fn layout_census(db: &Database, table: &str, col: &str, literal: i64) -> (Vec<&'static str>, bool) {
    let table = db.table(table).unwrap();
    let c = table.schema().index_of(col).unwrap();
    let chunks = table.columnar_chunks();
    let mut names: Vec<&str> = chunks
        .chunks()
        .iter()
        .flat_map(|chunk| (0..table.schema().arity()).map(|i| chunk.column(i).data()))
        .map(ColumnData::encoding_name)
        .collect();
    names.sort_unstable();
    names.dedup();
    let decides = chunks
        .chunks()
        .iter()
        .any(|chunk| match chunk.column(c).data() {
            ColumnData::PackedInt(p) => {
                let (min, max) = p.frame();
                literal < min || literal > max
            }
            _ => false,
        });
    (names, decides)
}

/// The lane widths a packed chunk-column takes.
const PACKED_WIDTHS: [u32; 5] = [1, 2, 4, 8, 16];

/// The widths of every packed chunk-column of `table`.
fn packed_widths(db: &Database, table: &str) -> Vec<u32> {
    let table = db.table(table).unwrap();
    let chunks = table.columnar_chunks();
    let mut widths: Vec<u32> = chunks
        .chunks()
        .iter()
        .flat_map(|chunk| (0..table.schema().arity()).map(|i| chunk.column(i).data()))
        .filter_map(|data| match data {
            ColumnData::PackedInt(p) => Some(p.width()),
            _ => None,
        })
        .collect();
    widths.sort_unstable();
    widths.dedup();
    widths
}

/// Whether an index probe of `table` for the rows `probed` selects has a
/// piece that starts off a lane boundary of a packed chunk of one of `cols`.
/// A probe piece spans its chunk's first to last probed row, and the scan
/// reads each column it filters or folds over that window: a start off a
/// lane boundary is where the packed reader begins mid-word.
fn probe_starts_off_lane(
    db: &Database,
    table: &str,
    cols: &[String],
    probed: impl Fn(&Row) -> bool,
) -> bool {
    let table = db.table(table).unwrap();
    let rows: Vec<&Row> = table.rows().iter().collect();
    let cols: Vec<usize> = cols
        .iter()
        .map(|c| table.schema().index_of(c).unwrap())
        .collect();
    table.columnar_chunks().chunks().iter().any(|chunk| {
        let Some(first) = (chunk.start..chunk.end).position(|r| probed(rows[r])) else {
            return false;
        };
        cols.iter().any(|&c| match chunk.column(c).data() {
            ColumnData::PackedInt(p) => first % (64 / p.width() as usize) != 0,
            _ => false,
        })
    })
}

/// The random fixture must reach every chunk layout, or the oracle
/// comparisons above prove nothing about the kernels on it: plain and
/// packed integers (one packed `k` chunk whose frame decides the query
/// family's `k >= 10` without a lane compare), floats, a dictionary,
/// booleans and mixed types. Packed chunks come in every lane width, and
/// the query family's sketch probe on `k` has a piece that starts off a
/// lane boundary of a packed `v` chunk, which its `v > -10` conjunct reads.
#[test]
fn random_db_produces_encoded_chunks() {
    let db = random_db(0, 300);
    let (names, decides) = layout_census(&db, "r", "k", 10);
    for layout in LAYOUTS {
        assert!(names.contains(&layout), "no {layout} chunk among {names:?}");
    }
    assert!(decides, "no packed `k` chunk whose frame decides `k >= 10`");
    assert_eq!(packed_widths(&db, "r"), PACKED_WIDTHS);
    let sketch = sketch_on_k(&[(10, 45), (90, 100), (150, 230)]);
    let schema = db.table("r").unwrap().schema().clone();
    let probed = |row: &Row| eval_predicate(&sketch, &schema, row).unwrap();
    assert!(
        probe_starts_off_lane(&db, "r", &["v".into()], probed),
        "no probe piece starts off a lane boundary of a packed `v` chunk"
    );
}

#[test]
fn pipeline_reports_errors_like_the_oracle() {
    let db = random_db(1, 50);
    let bad_plans = vec![
        LogicalPlan::scan("missing"),
        LogicalPlan::scan("r").filter(col("nope").gt(lit(1))),
        LogicalPlan::scan("r").aggregate(
            vec!["nope"],
            vec![AggExpr::new(AggFunc::Count, col("k"), "cnt")],
        ),
        LogicalPlan::scan("r").top_k(vec![SortKey::asc("nope")], 2),
    ];
    let engine = Engine::new(EngineProfile::Indexed);
    for plan in bad_plans {
        let oracle_err = oracle(&db, &plan);
        let engine_err = engine.execute(&db, &plan);
        assert!(oracle_err.is_err() && engine_err.is_err(), "both must fail");
    }

    // A HAVING that cannot be evaluated fails on the first group it is
    // evaluated on, with the error of the naive interpreter and of the
    // lifted plan, which filters the aggregate's rows in a `Filter` — and
    // not at all over a grouped aggregate without input rows, which has no
    // group. A global aggregate always has its one row.
    let failing = [
        ExecError::UnknownColumn("nope".into()),
        ExecError::UnboundParameter(0),
    ];
    let having = |error: &ExecError, out: &str| match error {
        ExecError::UnknownColumn(_) => col("nope").gt(col(out)),
        _ => Expr::IsNull(Box::new(col(out))).or(col(out).lt(param(0))),
    };
    // Fed by a fused scan (column and row folds), a fused index probe, and
    // the generic aggregate over a projection.
    let sources = [
        LogicalPlan::scan("r"),
        LogicalPlan::scan("r").filter(col("k").between(lit(10), lit(40))),
        LogicalPlan::scan("r").project(vec![
            (col("k"), "k"),
            (col("name"), "grp"),
            (col("v"), "v"),
        ]),
    ];
    let aggregates = [
        AggExpr::new(AggFunc::Count, col("k"), "cnt"),
        AggExpr::new(AggFunc::Sum, col("v"), "total"),
    ];
    let cases = [
        (vec!["grp"], false),
        (vec![], false),
        (vec!["grp"], true),
        (vec![], true),
    ];
    for error in failing {
        for (source, agg) in sources
            .iter()
            .flat_map(|s| aggregates.iter().map(move |a| (s, a)))
        {
            for (group_by, empty) in &cases {
                let input = if *empty {
                    source.clone().filter(col("k").lt(lit(-1)))
                } else {
                    source.clone()
                };
                let plan = input
                    .aggregate(group_by.clone(), vec![agg.clone()])
                    .filter(having(&error, &agg.alias));
                let rows = |r: Result<Relation, ExecError>| r.map(|r| r.len());
                let expected = rows(oracle(&db, &plan));
                let ctx = plan.display_tree();
                match (empty, group_by.is_empty()) {
                    (true, false) => assert_eq!(expected, Ok(0), "{ctx}"),
                    (false, _) => assert_eq!(expected, Err(error.clone()), "{ctx}"),
                    (true, true) => {}
                }
                for profile in [EngineProfile::Indexed, EngineProfile::ColumnarScan] {
                    let lowered = Engine::new(profile).plan(&db, &plan).unwrap();
                    for physical in [lift_scan_filters(&lowered), lowered] {
                        let mut stats = ExecStats::default();
                        let plain = execute(&db, &physical, &NoTag, &mut stats);
                        let lineage = execute(&db, &physical, &LineageTagPolicy, &mut stats);
                        let ctx = format!("{profile:?}\n{physical}");
                        assert_eq!(rows(plain.map(|d| d.relation)), expected, "{ctx}");
                        assert_eq!(rows(lineage.map(|d| d.relation)), expected, "{ctx}");
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Capture equivalence: the unified pipeline reproduces the seed capture
// results on the paper's worked examples.
// ---------------------------------------------------------------------------

fn cities_db() -> Database {
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

fn state_partition() -> PartitionRef {
    Arc::new(Partition::Range(RangePartition::from_uppers(
        "cities",
        "state",
        vec![Value::from("DE"), Value::from("MI"), Value::from("OK")],
    )))
}

fn popden_partition() -> PartitionRef {
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
fn unified_pipeline_reproduces_seed_capture_on_paper_examples() {
    let db = cities_db();
    for profile in [EngineProfile::Indexed, EngineProfile::ColumnarScan] {
        // Ex. 3: the sketch of Q2 on the state partition is {f1}.
        let res = capture_sketches_with_profile(&db, &q2(), &[state_partition()], profile).unwrap();
        assert_eq!(res.sketches[0].selected_fragments(), vec![0], "{profile:?}");
        assert_eq!(res.sketches[0].bitset().to_string(), "1000");
        assert_eq!(res.result.value(0, "state"), Some(&Value::from("CA")));

        // Ex. 5: the popden-partition sketch of Q2 is {g2}.
        let res =
            capture_sketches_with_profile(&db, &q2(), &[popden_partition()], profile).unwrap();
        assert_eq!(res.sketches[0].selected_fragments(), vec![1], "{profile:?}");
    }
}

#[test]
fn captured_sketches_cover_lineage_on_both_profiles() {
    let db = cities_db();
    let queries = vec![
        q2(),
        LogicalPlan::scan("cities")
            .filter(col("popden").gt(lit(2400)))
            .aggregate(
                vec!["state"],
                vec![AggExpr::new(AggFunc::Count, col("city"), "cnt")],
            )
            .filter(col("cnt").gt(lit(1))),
        // No min/max-narrowed aggregate here: narrowing deliberately keeps
        // only the witness fragment, which under-approximates full Lineage
        // while remaining safe (covered by the dedicated test below).
    ];
    let table_schema = db.table("cities").unwrap().schema().clone();
    for plan in queries {
        let lineage = capture_lineage(&db, &plan).unwrap();
        let accurate = ProvenanceSketch::from_rows(
            state_partition(),
            &table_schema,
            lineage
                .rows_of("cities")
                .into_iter()
                .map(|rid| db.table("cities").unwrap().rows()[rid as usize].clone()),
        );
        for profile in [EngineProfile::Indexed, EngineProfile::ColumnarScan] {
            let res =
                capture_sketches_with_profile(&db, &plan, &[state_partition()], profile).unwrap();
            assert!(
                res.sketches[0].is_superset_of(&accurate),
                "sketch must cover lineage ({profile:?})\n{}",
                plan.display_tree()
            );
        }
    }
}

#[test]
fn minmax_narrowing_still_selects_only_the_witness_fragment() {
    let db = cities_db();
    let plan = LogicalPlan::scan("cities")
        .aggregate(vec![], vec![AggExpr::new(AggFunc::Max, col("popden"), "m")]);
    // Lineage keeps every row of the group: the three fragments that hold
    // rows (f1 = AK/CA, f3 = NY, f4 = TX).
    let lineage = capture_lineage(&db, &plan).unwrap();
    let table = db.table("cities").unwrap();
    let accurate = ProvenanceSketch::from_rows(
        state_partition(),
        table.schema(),
        lineage
            .rows_of("cities")
            .into_iter()
            .map(|rid| table.rows()[rid as usize].clone()),
    );
    assert_eq!(accurate.num_selected(), 3);
    for profile in [EngineProfile::Indexed, EngineProfile::ColumnarScan] {
        let narrowed =
            capture_sketches_with_profile(&db, &plan, &[state_partition()], profile).unwrap();
        // The max row (New York, 7000) is in fragment f3 (index 2).
        assert_eq!(narrowed.sketches[0].selected_fragments(), vec![2]);
    }
}

// ---------------------------------------------------------------------------
// The lowered plan vs its lifted-filter oracle: byte-identical rows *and*
// tags.
// ---------------------------------------------------------------------------

/// Execute `plan` as lowered, or as its lifted-filter oracle (`lifted`),
/// returning the relation, the per-row tags and the stats.
fn run_pinned<P>(
    db: &Database,
    plan: &LogicalPlan,
    profile: EngineProfile,
    lifted: bool,
    policy: &P,
) -> ((Relation, Vec<P::Tag>), ExecStats)
where
    P: pbds_exec::TagPolicy,
{
    let physical = lower(db, plan, profile).unwrap();
    let physical = if lifted {
        lift_scan_filters(&physical)
    } else {
        physical
    };
    let mut stats = ExecStats::default();
    let done = execute(db, &physical, policy, &mut stats).unwrap();
    ((done.relation, done.tags), stats)
}

/// Run one plan as lowered and as its lifted-filter oracle and assert the
/// result relations are identical row for row (not just bag-equal) with
/// equal tag vectors. A join-free plan must also scan the same rows by the
/// same access paths; a hash join may narrow its build scan only as
/// lowered.
fn assert_paths_identical<P>(
    db: &Database,
    plan: &LogicalPlan,
    profile: EngineProfile,
    policy: &P,
    context: &str,
) where
    P: pbds_exec::TagPolicy,
    P::Tag: PartialEq + std::fmt::Debug,
{
    let run = |lifted: bool| run_pinned(db, plan, profile, lifted, policy);
    let ((lifted_rel, lifted_tags), lifted_stats) = run(true);
    let ((rel, tags), stats) = run(false);
    assert_eq!(
        lifted_rel,
        rel,
        "{context}: relations differ from the lifted plan's\n{}",
        plan.display_tree()
    );
    assert_eq!(
        lifted_tags,
        tags,
        "{context}: tags differ from the lifted plan's\n{}",
        plan.display_tree()
    );
    // The lifted plan filters no chunk through the kernels.
    assert_eq!(lifted_stats.vectorized_blocks, 0, "{context}");
    // The machine-independent scan accounting must agree too.
    if !has_hash_join(&lower(db, plan, profile).unwrap()) {
        assert_eq!(lifted_stats.rows_scanned, stats.rows_scanned, "{context}");
        assert_eq!(lifted_stats.full_scans, stats.full_scans, "{context}");
        assert_eq!(lifted_stats.index_scans, stats.index_scans, "{context}");
        assert_eq!(
            lifted_stats.blocks_skipped, stats.blocks_skipped,
            "{context}"
        );
    }
}

#[test]
fn vectorized_path_is_byte_identical_for_plain_execution() {
    for seed in 0..3u64 {
        let db = random_db(seed, 300);
        for profile in [EngineProfile::Indexed, EngineProfile::ColumnarScan] {
            for (i, plan) in query_family().iter().enumerate() {
                assert_paths_identical(
                    &db,
                    plan,
                    profile,
                    &pbds_exec::NoTag,
                    &format!("seed {seed}, query #{i}, {profile:?}"),
                );
            }
        }
    }
}

#[test]
fn vectorized_path_is_byte_identical_for_sketch_capture_tags() {
    let db = random_db(11, 300);
    let part: PartitionRef = Arc::new(Partition::Range(RangePartition::from_uppers(
        "r",
        "grp",
        vec![Value::Int(2), Value::Int(5), Value::Int(7)],
    )));
    let assigners = vec![FragmentAssigner::new(part)];
    let policy = SketchTagPolicy::new(&assigners);
    for profile in [EngineProfile::Indexed, EngineProfile::ColumnarScan] {
        for (i, plan) in query_family().iter().enumerate() {
            assert_paths_identical(
                &db,
                plan,
                profile,
                &policy,
                &format!("capture query #{i}, {profile:?}"),
            );
        }
    }
}

/// `r(k, z, grp, v)` with 16 384 rows: `k` is indexed,
/// `z` carries the same clustered values without an index (so range
/// predicates on it lower to zone-map scans that really skip), `grp` is runny
/// and `v` has occasional NULLs. Blocks are 64 rows, so every scan spans
/// many chunk pieces.
fn big_db() -> Database {
    let mut rng = StdRng::seed_from_u64(23);
    let schema = Schema::from_pairs(&[
        ("k", DataType::Int),
        ("z", DataType::Int),
        ("grp", DataType::Int),
        ("v", DataType::Int),
    ]);
    let mut b = TableBuilder::new("r", schema);
    b.block_size(64).index("k");
    let mut grp = 0i64;
    for i in 0..16_384i64 {
        if rng.gen_range(0..5) == 0 {
            grp = rng.gen_range(0..10);
        }
        let v = if rng.gen_range(0..30) == 0 {
            Value::Null
        } else {
            Value::Int(rng.gen_range(-50..50))
        };
        b.push(vec![Value::Int(i), Value::Int(i), Value::Int(grp), v]);
    }
    let mut db = Database::new();
    db.add_table(b.build());
    db
}

/// Scan shapes over [`big_db`]: seq / zone-map / index access paths, with and
/// without a pushed-down filter, plus blocking operators above the scan.
fn big_scan_family() -> Vec<LogicalPlan> {
    let sum_v = || vec![AggExpr::new(AggFunc::Sum, col("v"), "total")];
    vec![
        LogicalPlan::scan("r"),
        LogicalPlan::scan("r").filter(col("grp").le(lit(4)).and(col("v").gt(lit(0)))),
        // 128 candidate blocks = 8 192 rows.
        LogicalPlan::scan("r").filter(col("z").between(lit(1_024), lit(9_215))),
        // 193 candidate blocks.
        LogicalPlan::scan("r").filter(col("z").between(lit(1_000), lit(13_287))),
        LogicalPlan::scan("r").filter(
            col("k")
                .between(lit(100), lit(12_387))
                .and(col("v").gt(lit(0))),
        ),
        // The access path narrows the scan to a few blocks.
        LogicalPlan::scan("r").filter(col("k").between(lit(10), lit(500))),
        LogicalPlan::scan("r")
            .filter(col("z").between(lit(1_024), lit(9_215)))
            .aggregate(vec!["grp"], sum_v()),
        LogicalPlan::scan("r").aggregate(vec![], sum_v()),
        LogicalPlan::scan("r")
            .filter(col("k").ge(lit(20)))
            .top_k(vec![SortKey::desc("v"), SortKey::asc("k")], 9),
    ]
}

/// Every scan of [`big_scan_family`] — many chunk pieces, zone maps that
/// really skip — must give the same rows, tags and scan accounting on the
/// chunk kernels as its lifted-filter oracle, plain and under capture tags.
#[test]
fn many_piece_scans_are_byte_identical_across_scan_paths() {
    let db = big_db();
    let part: PartitionRef = Arc::new(Partition::Range(RangePartition::from_uppers(
        "r",
        "grp",
        vec![Value::Int(2), Value::Int(5), Value::Int(7)],
    )));
    let assigners = vec![FragmentAssigner::new(part)];
    let policy = SketchTagPolicy::new(&assigners);
    for profile in [EngineProfile::Indexed, EngineProfile::ColumnarScan] {
        for (i, plan) in big_scan_family().iter().enumerate() {
            let ctx = format!("query #{i}, {profile:?}");
            assert_paths_identical(&db, plan, profile, &NoTag, &format!("plain {ctx}"));
            assert_paths_identical(&db, plan, profile, &policy, &format!("capture {ctx}"));
        }
    }
}

#[test]
fn capture_result_relation_matches_plain_execution() {
    let db = random_db(7, 250);
    let part: PartitionRef = Arc::new(Partition::Range(RangePartition::from_uppers(
        "r",
        "grp",
        vec![Value::Int(2), Value::Int(5), Value::Int(7)],
    )));
    for profile in [EngineProfile::Indexed, EngineProfile::ColumnarScan] {
        let engine = Engine::new(profile);
        for (i, plan) in query_family().iter().enumerate() {
            let plain = engine.execute(&db, plan).unwrap().relation;
            let captured =
                capture_sketches_with_profile(&db, plan, std::slice::from_ref(&part), profile)
                    .unwrap();
            assert!(
                plain.bag_eq(&captured.result),
                "query #{i}, {profile:?}: capture by-product differs from execution"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Grouping: generated group-by / aggregate shapes under every tag policy and
// from every source the grouping step is fed by.
// ---------------------------------------------------------------------------

/// `p(k, g, h, vi, vf, vm, vr, vn, ki, kr, kw, s, b)` with `k` indexed. `g`
/// is a numeric key mixing `Int` and `Float`, so `3` and `3.0` must share a
/// group; `h` mixes strings with `1` / `1.0`. `ki`, `kr` and `kw` are integer
/// keys: `ki` spans 7 values (bit-packed chunks, and direct-mapped grouping
/// once the table has a few rows), `kr` comes in runs (bit-packed chunks)
/// and `kw` spans billions (plain chunks, hashed grouping). `s` (strings, a
/// dictionary per chunk) and `b` (booleans) are keys the fused aggregate
/// folds row by row. The aggregate inputs are `vi` (Int), `vf` (Float), `vm`
/// (mixed Int / Float), `vr` (Int in runs, some of them wide) and `vn` (all
/// NULL); every column
/// but `k` and `vn` carries NULLs at a per-table rate. Some rows are then
/// deleted, which leaves short chunks behind.
fn grouping_db(rng: &mut StdRng) -> Database {
    let schema = Schema::from_pairs(&[
        ("k", DataType::Int),
        ("g", DataType::Float),
        ("h", DataType::Str),
        ("vi", DataType::Int),
        ("vf", DataType::Float),
        ("vm", DataType::Float),
        ("vr", DataType::Int),
        ("vn", DataType::Int),
        ("ki", DataType::Int),
        ("kr", DataType::Int),
        ("kw", DataType::Int),
        ("s", DataType::Str),
        ("b", DataType::Bool),
    ]);
    let n = rng.gen_range(1..500i64);
    let (mut run, mut key_run) = (0, 0);
    let null_one_in = rng.gen_range(2..12);
    let mut b = TableBuilder::new("p", schema);
    b.block_size([16, 64, 100][rng.gen_range(0..3)]).index("k");
    for k in 0..n {
        let key = rng.gen_range(0..4i64);
        let x = rng.gen_range(-40..40i64);
        if rng.gen_range(0..8) == 0 {
            // Every other stretch of 100 keys draws its runs 500 times
            // wider, so `vr` packs 16 bits wide there.
            run = if k / 100 % 2 == 1 { x * 500 } else { x };
        }
        if rng.gen_range(0..6) == 0 {
            key_run = rng.gen_range(0..50i64);
        }
        let mut row = vec![
            Value::Int(k),
            match rng.gen_range(0..3) {
                0 => Value::Int(key),
                1 => Value::Float(key as f64),
                _ => Value::Float(key as f64 + 0.5),
            },
            match rng.gen_range(0..4) {
                0 => Value::from("x"),
                1 => Value::from("y"),
                2 => Value::Int(1),
                _ => Value::Float(1.0),
            },
            Value::Int(x),
            Value::Float(x as f64 / 4.0),
            if x % 2 == 0 {
                Value::Int(x)
            } else {
                Value::Float(x as f64 / 8.0)
            },
            Value::Int(run),
            Value::Null,
            Value::Int(rng.gen_range(-3..4)),
            Value::Int(key_run),
            Value::Int(rng.gen_range(-3..3i64) * 1_000_000_007),
            Value::from(["x", "y", "z"][rng.gen_range(0..3)]),
            Value::Bool(rng.gen_range(0..2) == 0),
        ];
        for (c, cell) in row.iter_mut().enumerate() {
            if !matches!(c, 0 | 7) && rng.gen_range(0..null_one_in) == 0 {
                *cell = Value::Null;
            }
        }
        b.push(row);
    }
    let mut table = b.build();
    // A run of rows and every m-th row: the chunks holding them shrink.
    let (from, len) = (rng.gen_range(0..n), rng.gen_range(0..40));
    let m = rng.gen_range(3..20);
    table.delete_where(|row| {
        let Value::Int(k) = row[0] else { return false };
        (from..from + len).contains(&k) || k % m == 1
    });
    let mut db = Database::new();
    db.add_table(table);
    db
}

/// A random aggregation over `p`: zero, one or two group keys, one to three
/// aggregates of any function over any input column, fed by a fused chunk
/// scan (no filter or a `k` filter under the columnar profile), a fused index
/// probe (a `k` filter or sketch ranges under the indexed profile), a fused
/// zone-map scan (a `kr` filter under the indexed profile) or a
/// `HashAggregateOp` over a `Filter` (a projection keeps the filter out of
/// the scan). About half the aggregations carry a HAVING ([`having`]). One
/// plan in six is duplicate elimination over two key columns instead.
fn grouping_plan(rng: &mut StdRng) -> LogicalPlan {
    let group_by: Vec<&str> = [
        vec![],
        vec!["g"],
        vec!["h"],
        vec!["g", "h"],
        vec!["ki"],
        vec!["kr"],
        vec!["kw"],
        vec!["ki", "kw"],
        vec!["kr", "g"],
        vec!["s"],
        vec!["b", "ki"],
    ][rng.gen_range(0..11)]
    .clone();
    let funcs = [
        AggFunc::Count,
        AggFunc::Sum,
        AggFunc::Avg,
        AggFunc::Min,
        AggFunc::Max,
    ];
    // Half the plans read only the numeric inputs, which the fused
    // aggregate can fold column-at-a-time.
    let inputs = ["vi", "vf", "vr", "vm", "vn"];
    let inputs = &inputs[..[3, 5][rng.gen_range(0..2)]];
    let aggregates: Vec<AggExpr> = (0..rng.gen_range(1..4))
        .map(|i| {
            let input = inputs[rng.gen_range(0..inputs.len())];
            AggExpr::new(funcs[rng.gen_range(0..5)], col(input), format!("a{i}"))
        })
        .collect();
    let lo = rng.gen_range(-5..300i64);
    let hi = lo + rng.gen_range(0..300);
    let k_range = col("k").between(lit(lo), lit(hi));
    let scan = LogicalPlan::scan("p");
    let input = match rng.gen_range(0..6) {
        0 => scan,
        1 => scan.filter(k_range),
        2 => scan.filter(k_range.and(col("vi").gt(lit(rng.gen_range(-40..40i64))))),
        3 => {
            // The sketch shape: exclusive-lower / inclusive-upper ranges.
            let mut bounds: Vec<i64> = (0..rng.gen_range(1..8))
                .map(|_| rng.gen_range(-5..500))
                .collect();
            bounds.sort_unstable();
            bounds.dedup();
            let ranges = bounds
                .chunks(2)
                .map(|c| ValueRange {
                    lo: Some(Value::Int(c[0])),
                    hi: c.get(1).map(|&h| Value::Int(h)),
                })
                .collect();
            scan.filter(Expr::InRanges {
                column: "k".into(),
                ranges,
            })
        }
        4 => {
            let lo = rng.gen_range(-2..50i64);
            scan.filter(col("kr").between(lit(lo), lit(lo + rng.gen_range(0..30))))
        }
        _ => {
            let all = [
                "k", "g", "h", "vi", "vf", "vm", "vr", "vn", "ki", "kr", "kw", "s", "b",
            ];
            scan.project(all.iter().map(|&c| (col(c), c)).collect())
                .filter(k_range)
        }
    };
    if rng.gen_range(0..6) == 0 {
        // Duplicate elimination groups on every column.
        let cols = [["g", "h"], ["g", "vm"], ["ki", "kw"]][rng.gen_range(0..3)];
        return input
            .project(cols.iter().map(|&c| (col(c), c)).collect())
            .distinct();
    }
    let having = (rng.gen_range(0..2) == 0).then(|| having(rng, &group_by, &aggregates));
    let aggregate = input.aggregate(group_by, aggregates);
    match having {
        Some(predicate) => aggregate.filter(predicate),
        None => aggregate,
    }
}

/// A HAVING over an aggregation's output: one or two terms joined by AND or
/// OR, each comparing a group key or an aggregate result with an `Int` or a
/// `Float` literal (integral or not, so `3` meets `3.0`), or testing it for
/// NULL — a `SUM`, `MIN` or `AVG` over an all-NULL group is NULL, and so is
/// every comparison with it.
fn having(rng: &mut StdRng, group_by: &[&str], aggregates: &[AggExpr]) -> Expr {
    let outputs: Vec<&str> = group_by
        .iter()
        .copied()
        .chain(aggregates.iter().map(|a| a.alias.as_str()))
        .collect();
    let term = |rng: &mut StdRng| {
        let output = col(outputs[rng.gen_range(0..outputs.len())]);
        let x = rng.gen_range(-20..20i64);
        let literal = if rng.gen_range(0..2) == 0 {
            lit(x)
        } else {
            lit(x as f64 / 2.0)
        };
        match rng.gen_range(0..6) {
            0 => output.gt(literal),
            1 => output.lt(literal),
            2 => output.ge(literal),
            3 => output.le(literal),
            4 => output.eq(literal),
            _ => Expr::IsNull(Box::new(output)),
        }
    };
    let first = term(rng);
    match rng.gen_range(0..3) {
        0 => first,
        1 => first.and(term(rng)),
        _ => first.or(term(rng)),
    }
}

/// The aggregation of a grouping plan, below its HAVING if it has one.
fn below_having(plan: &LogicalPlan) -> &LogicalPlan {
    match plan {
        LogicalPlan::Selection { input, .. } => input,
        other => other,
    }
}

/// `plan` under `policy`: the lifted-filter run is the oracle, and the
/// lowered run (fused scans, index probes, bitmap kernels) must reproduce
/// its rows, their order and their tags exactly — `Debug` renderings are
/// compared, so `Int(3)` and `Float(3.0)` count as different.
fn assert_grouping_identical<P>(db: &Database, plan: &LogicalPlan, policy: &P, what: &str)
where
    P: TagPolicy,
    P::Tag: std::fmt::Debug,
{
    for profile in [EngineProfile::Indexed, EngineProfile::ColumnarScan] {
        let render = |lifted: bool| {
            let ((rel, tags), _) = run_pinned(db, plan, profile, lifted, policy);
            format!("{:?}\n{tags:?}", rel.rows())
        };
        assert_eq!(
            render(true),
            render(false),
            "{what}, {profile:?}\n{}",
            plan.display_tree()
        );
    }
}

/// Whether the fused aggregate folds `plan` column-at-a-time under trivial
/// tags: every group key, and every input a non-`COUNT` aggregate reads, is
/// stored as integers or floats in every chunk of `p`.
fn folds_columns(db: &Database, plan: &LogicalPlan) -> bool {
    let LogicalPlan::Aggregate {
        group_by,
        aggregates,
        ..
    } = below_having(plan)
    else {
        return false;
    };
    let table = db.table("p").unwrap();
    let chunks = table.columnar_chunks();
    let numeric = |name: &str| {
        let c = table.schema().index_of(name).unwrap();
        chunks.chunks().iter().all(|chunk| {
            matches!(
                chunk.column(c).data(),
                ColumnData::Int(_) | ColumnData::PackedInt(_) | ColumnData::Float(_)
            )
        })
    };
    group_by.iter().all(|k| numeric(k))
        && aggregates.iter().all(|a| match (&a.func, &a.input) {
            (AggFunc::Count, _) => true,
            (_, Expr::Column(c)) => numeric(c),
            _ => false,
        })
}

/// Whether the column fold direct-maps the single integer key `key` of a
/// scan whose source selects `candidates` rows: the table statistics bound
/// the key to a span of fewer than twice that many values.
fn direct_maps(db: &Database, key: &str, candidates: u64) -> bool {
    let stats = db.table("p").unwrap().stats();
    match stats.column(key).map(|c| (&c.min, &c.max)) {
        Some((Some(Value::Int(low)), Some(Value::Int(high)))) => {
            ((high - low) as u64) < 2 * candidates
        }
        _ => false,
    }
}

/// Guard against the property below going vacuous: the generators reach
/// fused index probes, zone-map scans and chunk scans, column-at-a-time
/// folds on one integer key (direct-mapped when its span is narrow, some
/// over a key column holding NULLs) and on hashed keys, the generic
/// aggregate over a filter, duplicate elimination, a HAVING over each of
/// those folds, tables with short chunks, and every chunk layout — with
/// packed `k` chunks whose frame decides a `k` bound for the whole chunk,
/// packed chunks of every lane width, and fused index probes with a piece
/// that starts off a lane boundary of a packed chunk the scan reads.
#[test]
fn grouping_generators_reach_every_source() {
    let (mut probes, mut zones, mut chunk_scans, mut generic) = (0, 0, 0, 0);
    let (mut int_key_folds, mut hashed_folds, mut distinct, mut short) = (0, 0, 0, 0);
    let (mut nullable_direct_folds, mut row_folds) = (0, 0);
    // HAVINGs over direct-mapped, hashed-key and row-at-a-time folds and
    // over the generic aggregate.
    let mut havings = [0; 4];
    let (mut layouts, mut frame_decides) = (Vec::new(), 0);
    let (mut widths, mut off_lane_probes) = (Vec::new(), 0);
    for seed in 0..128 {
        let mut rng = StdRng::seed_from_u64(seed);
        let db = grouping_db(&mut rng);
        let plan = grouping_plan(&mut rng);
        // `k` bounds are drawn from -5 up.
        let (names, decides) = layout_census(&db, "p", "k", -5);
        layouts.extend(names);
        frame_decides += usize::from(decides);
        widths.extend(packed_widths(&db, "p"));
        let table = db.table("p").unwrap();
        let chunks = table.columnar_chunks();
        let inner = &chunks.chunks()[..chunks.chunks().len().saturating_sub(1)];
        short += inner
            .iter()
            .filter(|c| c.len() < table.block_size())
            .count();
        let (_, indexed) = run_pinned(&db, &plan, EngineProfile::Indexed, false, &NoTag);
        let (_, columnar) = run_pinned(&db, &plan, EngineProfile::ColumnarScan, false, &NoTag);
        let has_having = matches!(plan, LogicalPlan::Selection { .. });
        match below_having(&plan) {
            LogicalPlan::Distinct { .. } => distinct += 1,
            _ if indexed.agg_pushdown_blocks == 0 => {
                generic += 1;
                havings[3] += usize::from(has_having);
            }
            LogicalPlan::Aggregate {
                group_by,
                aggregates,
                input,
            } => {
                probes += usize::from(indexed.index_scans > 0);
                if let (true, LogicalPlan::Selection { predicate, .. }) =
                    (indexed.index_scans > 0, &**input)
                {
                    // The `k` conjuncts drive the probe; the scan reads the
                    // filter's, the keys' and the inputs' columns.
                    let schema = table.schema();
                    let on_k: Vec<&Expr> = predicate
                        .conjuncts()
                        .into_iter()
                        .filter(|c| c.columns() == ["k"])
                        .collect();
                    let probed =
                        |row: &Row| on_k.iter().all(|c| eval_predicate(c, schema, row).unwrap());
                    let mut read = predicate.columns();
                    read.extend(group_by.iter().cloned());
                    read.extend(aggregates.iter().flat_map(|a| a.input.columns()));
                    off_lane_probes += usize::from(probe_starts_off_lane(&db, "p", &read, probed));
                }
                zones += usize::from(indexed.blocks_total > 0);
                chunk_scans += usize::from(columnar.agg_pushdown_blocks > 0);
                if !folds_columns(&db, &plan) {
                    row_folds += 1;
                    havings[2] += usize::from(has_having);
                    continue;
                }
                match &group_by[..] {
                    [k] if k != "kw" && k != "g" => {
                        int_key_folds += 1;
                        if direct_maps(&db, k, indexed.rows_scanned) {
                            havings[0] += usize::from(has_having);
                            let c = table.schema().index_of(k).unwrap();
                            let nullable =
                                chunks.chunks().iter().any(|ch| ch.column(c).has_nulls());
                            nullable_direct_folds += usize::from(nullable);
                        }
                    }
                    [] => {}
                    _ => {
                        hashed_folds += 1;
                        havings[1] += usize::from(has_having);
                    }
                }
            }
            _ => unreachable!("grouping plans aggregate or eliminate duplicates"),
        }
    }
    for (what, n) in [
        ("fused index probes", probes),
        ("fused zone-map scans", zones),
        ("fused chunk scans", chunk_scans),
        ("column folds on one integer key", int_key_folds),
        (
            "direct-mapped folds over a nullable key",
            nullable_direct_folds,
        ),
        ("column folds on hashed keys", hashed_folds),
        ("row-at-a-time folds", row_folds),
        ("generic aggregates", generic),
        ("HAVINGs over direct-mapped folds", havings[0]),
        ("HAVINGs over hashed-key folds", havings[1]),
        ("HAVINGs over row-at-a-time folds", havings[2]),
        ("HAVINGs over generic aggregates", havings[3]),
        ("distincts", distinct),
        ("short chunks", short),
        ("packed chunks whose frame decides a bound", frame_decides),
        ("index probes starting off a lane boundary", off_lane_probes),
    ] {
        assert!(n >= 3, "only {n} {what} in 128 generated cases");
    }
    for layout in LAYOUTS {
        assert!(layouts.contains(&layout), "no {layout} chunk in 128 tables");
    }
    for width in PACKED_WIDTHS {
        assert!(
            widths.contains(&width),
            "no {width}-bit packed chunk in 128 tables"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Grouping is byte-identical to the lifted-filter oracle for every tag
    /// policy, and its rows equal the naive interpreter's, in first-seen
    /// group order.
    #[test]
    fn grouping_matches_the_oracle_on_generated_aggregations(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let db = grouping_db(&mut rng);
        let plan = grouping_plan(&mut rng);

        let expected = oracle(&db, &plan).unwrap();
        for profile in [EngineProfile::Indexed, EngineProfile::ColumnarScan] {
            let actual = Engine::new(profile).execute(&db, &plan).unwrap().relation;
            prop_assert_eq!(
                actual.rows(), expected.rows(),
                "{:?}\n{}", profile, plan.display_tree()
            );
        }

        assert_grouping_identical(&db, &plan, &NoTag, "plain");
        assert_grouping_identical(&db, &plan, &LineageTagPolicy, "lineage");
        let part: PartitionRef = Arc::new(Partition::Range(RangePartition::from_uppers(
            "p",
            "k",
            vec![Value::Int(60), Value::Int(150), Value::Int(320)],
        )));
        let assigners = vec![FragmentAssigner::new(part)];
        let policy = SketchTagPolicy::new(&assigners);
        assert_grouping_identical(&db, &plan, &policy, "sketch");
    }
}

/// `merge_tags(empty_tag(), t)` returns `t` for plain execution, lineage and
/// sketch capture.
#[test]
fn empty_tag_is_a_left_identity_of_merge() {
    fn merged<P: TagPolicy>(policy: &P, t: &P::Tag) -> P::Tag {
        let mut into = policy.empty_tag();
        policy.merge_tags(&mut into, t);
        into
    }
    merged(&NoTag, &());

    let lineage_tags = [
        LineageTagPolicy.empty_tag(),
        [("p".to_string(), 3u32), ("q".to_string(), 0)]
            .into_iter()
            .collect(),
    ];
    for t in &lineage_tags {
        assert_eq!(&merged(&LineageTagPolicy, t), t);
    }

    let part: PartitionRef = Arc::new(Partition::Range(RangePartition::from_uppers(
        "p",
        "k",
        vec![Value::Int(10), Value::Int(20)],
    )));
    let assigners = vec![FragmentAssigner::new(part)];
    let policy = SketchTagPolicy::new(&assigners);
    let row = vec![Value::Int(15)];
    let schema = Schema::from_pairs(&[("k", DataType::Int)]);
    let single = policy.seed_tag("p", &schema, &row, 0);
    assert_eq!(single, vec![Annotation::Single(1)]);
    let mut bits = single.clone();
    policy.merge_tags(
        &mut bits,
        &policy.seed_tag("p", &schema, &vec![Value::Int(25)], 1),
    );
    for t in [policy.empty_tag(), single, bits] {
        assert_eq!(merged(&policy, &t), t);
    }
}

// ---------------------------------------------------------------------------
// Hash joins: a generated family against the oracle, and pinned digests of
// the TPC-H analogues (rows in output order, capture sketches, lineage).
// ---------------------------------------------------------------------------

/// A join key from a small domain, so that both sides repeat keys, with
/// NULLs and the `i64` extremes mixed in.
fn join_int_key(rng: &mut StdRng) -> Value {
    match rng.gen_range(0..20) {
        0 => Value::Null,
        1 => Value::Int(i64::MIN),
        2 => Value::Int(i64::MAX),
        _ => Value::Int(rng.gen_range(0..40)),
    }
}

/// The float twin of a join key: mostly integer-valued floats that must meet
/// their `Int` twins, some fractional ones that meet nothing, `-2^63` (equal
/// to `i64::MIN`) and `2^63` (above `i64::MAX`).
fn join_float_key(rng: &mut StdRng) -> Value {
    match rng.gen_range(0..20) {
        0 => Value::Null,
        1 => Value::Float(i64::MIN as f64),
        2 => Value::Float(i64::MAX as f64),
        3 | 4 => Value::Float(rng.gen_range(0..40) as f64 + 0.5),
        _ => Value::Float(rng.gen_range(0..40) as f64),
    }
}

fn join_str_key(rng: &mut StdRng) -> Value {
    if rng.gen_range(0..15) == 0 {
        Value::Null
    } else {
        Value::from(format!("s{}", rng.gen_range(0..15)))
    }
}

/// `jp` (the probe tables of the family), `jb` (indexed on `bk` and `bs`,
/// 16-row blocks), `jc` (indexed on `ck`) and the three-row `jt`.
fn join_db(seed: u64) -> Database {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut db = Database::new();
    let mut table = |name: &str, cols: [&str; 4], rows: usize, index: &[&str]| {
        let schema = Schema::from_pairs(&[
            (cols[0], DataType::Int),
            (cols[1], DataType::Float),
            (cols[2], DataType::Str),
            (cols[3], DataType::Int),
        ]);
        let mut b = TableBuilder::new(name, schema);
        b.block_size(16);
        for c in index {
            b.index(c);
        }
        for _ in 0..rows {
            b.push(vec![
                join_int_key(&mut rng),
                join_float_key(&mut rng),
                join_str_key(&mut rng),
                Value::Int(rng.gen_range(0..100)),
            ]);
        }
        db.add_table(b.build());
    };
    table("jp", ["pk", "pf", "ps", "pv"], 240, &[]);
    table("jb", ["bk", "bf", "bs", "bv"], 180, &["bk", "bs"]);
    table("jc", ["ck", "cf", "cs", "cv"], 60, &["ck"]);
    let mut t = TableBuilder::new("jt", Schema::from_pairs(&[("tk", DataType::Int)]));
    for k in [3, 7, 7] {
        t.push(vec![Value::Int(k)]);
    }
    db.add_table(t.build());
    db
}

/// A sketch predicate on `column`: the ranges `(lo, hi]`, as sketch
/// instrumentation writes them.
fn sketch_on(column: &str, ranges: &[(i64, i64)]) -> Expr {
    Expr::InRanges {
        column: column.into(),
        ranges: ranges
            .iter()
            .map(|&(lo, hi)| ValueRange {
                lo: Some(Value::Int(lo)),
                hi: Some(Value::Int(hi)),
            })
            .collect(),
    }
}

/// One hash join per shape the executor must keep byte-identical: key types
/// (`Int`, `Float` meeting `Int`, `Str`, NULL), empty and all-NULL probe
/// sides, build scans that carry a sketch or a filter of their own, build
/// sides that are not scans, chained joins, and a probe side larger than the
/// build table.
fn join_family() -> Vec<(&'static str, LogicalPlan)> {
    let probe = |pred: Expr| LogicalPlan::scan("jp").filter(pred);
    let few = || probe(col("pv").lt(lit(15)));
    let jb = || LogicalPlan::scan("jb");
    vec![
        ("int keys, indexed build", few().join(jb(), "pk", "bk")),
        (
            "unfiltered probe",
            LogicalPlan::scan("jp").join(jb(), "pk", "bk"),
        ),
        ("float probe meets int build", few().join(jb(), "pf", "bk")),
        ("int probe meets float build", few().join(jb(), "pk", "bf")),
        ("float keys on both sides", few().join(jb(), "pf", "bf")),
        ("string keys", few().join(jb(), "ps", "bs")),
        ("int probe meets string build", few().join(jb(), "pk", "bs")),
        (
            "empty probe",
            probe(col("pv").gt(lit(1_000))).join(jb(), "pk", "bk"),
        ),
        (
            "all-NULL probe keys",
            probe(Expr::IsNull(Box::new(col("pk")))).join(jb(), "pk", "bk"),
        ),
        (
            "build scan carries a sketch on another column",
            few().join(
                jb().filter(sketch_on("bv", &[(5, 20), (40, 70)])),
                "pk",
                "bk",
            ),
        ),
        (
            "build scan carries a sketch on its key",
            few().join(
                jb().filter(sketch_on("bk", &[(0, 12), (30, 39)])),
                "pk",
                "bk",
            ),
        ),
        (
            "build scan carries a filter on another column",
            few().join(jb().filter(col("bv").gt(lit(50))), "pk", "bk"),
        ),
        (
            "build scan carries a range on its key",
            few().join(jb().filter(col("bk").between(lit(5), lit(30))), "pk", "bk"),
        ),
        (
            "aggregate build side",
            few().join(
                jb().aggregate(
                    vec!["bk"],
                    vec![AggExpr::new(AggFunc::Count, col("bv"), "n")],
                ),
                "pk",
                "bk",
            ),
        ),
        (
            "join build side",
            few().join(jb().join(LogicalPlan::scan("jc"), "bk", "ck"), "pk", "bk"),
        ),
        (
            "chained joins",
            few()
                .join(jb(), "pk", "bk")
                .join(LogicalPlan::scan("jc"), "bf", "cf"),
        ),
        (
            "probe larger than the build table",
            LogicalPlan::scan("jp").join(LogicalPlan::scan("jt"), "pk", "tk"),
        ),
        (
            "join under aggregate and top-k",
            few()
                .join(jb(), "pk", "bk")
                .aggregate(
                    vec!["ps"],
                    vec![AggExpr::new(AggFunc::Sum, col("bv"), "total")],
                )
                .top_k(vec![SortKey::desc("total")], 3),
        ),
    ]
}

/// Every join of the family equals the oracle row for row, in output order,
/// on both profiles, as lowered and as its lifted-filter oracle, and its tags
/// agree with the lifted plan's for lineage and sketch capture.
#[test]
fn hash_joins_match_the_oracle_on_the_join_family() {
    let part: PartitionRef = Arc::new(Partition::Range(RangePartition::from_uppers(
        "jb",
        "bv",
        vec![Value::Int(25), Value::Int(50), Value::Int(75)],
    )));
    let assigners = vec![FragmentAssigner::new(part)];
    let sketch = SketchTagPolicy::new(&assigners);
    // Joins whose build scan was narrowed, and joins that ran as planned.
    let (mut narrowed, mut planned) = (0, 0);
    for seed in 0..4u64 {
        let db = join_db(seed);
        for (what, plan) in join_family() {
            let expected = oracle(&db, &plan).unwrap();
            for profile in [EngineProfile::Indexed, EngineProfile::ColumnarScan] {
                for lifted in [false, true] {
                    let ((actual, _), stats) = run_pinned(&db, &plan, profile, lifted, &NoTag);
                    narrowed += stats.join_key_filters;
                    planned += u64::from(stats.join_key_filters == 0);
                    assert_eq!(
                        actual.rows(),
                        expected.rows(),
                        "seed {seed}, {what}, {profile:?}, lifted {lifted}\n{}",
                        plan.display_tree()
                    );
                }
                let ctx = format!("seed {seed}, {what}, {profile:?}");
                assert_paths_identical(&db, &plan, profile, &LineageTagPolicy, &ctx);
                assert_paths_identical(&db, &plan, profile, &sketch, &ctx);
            }
        }
    }
    assert!(
        narrowed > 0 && planned > 0,
        "{narrowed} narrowed, {planned} planned"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The join family over generated data and a generated probe filter.
    #[test]
    fn hash_joins_match_the_oracle_on_generated_probe_sides(
        seed in 0u64..u64::MAX,
        cut in 0i64..110,
    ) {
        let db = join_db(seed);
        let probe = LogicalPlan::scan("jp").filter(col("pv").lt(lit(cut)));
        for (left, right) in [("pk", "bk"), ("pf", "bk"), ("pk", "bf"), ("ps", "bs")] {
            let plan = probe.clone().join(LogicalPlan::scan("jb"), left, right);
            let expected = oracle(&db, &plan).unwrap();
            for profile in [EngineProfile::Indexed, EngineProfile::ColumnarScan] {
                for lifted in [false, true] {
                    let ((actual, _), _) = run_pinned(&db, &plan, profile, lifted, &NoTag);
                    prop_assert_eq!(
                        actual.rows(), expected.rows(),
                        "{} = {}, {:?}, lifted {}", left, right, profile, lifted
                    );
                }
            }
        }
    }
}

/// True when `plan` holds a hash join, whose build scan the lowered plan may
/// narrow to its probe side's keys.
fn has_hash_join(plan: &PhysicalPlan) -> bool {
    matches!(plan.op, PhysOp::HashJoin { .. }) || plan.children().into_iter().any(has_hash_join)
}

/// The lifted-filter oracle stays an oracle: on every query shape and join,
/// on both profiles, it fuses no aggregate and narrows no build scan, and a
/// join-free plan scans exactly the rows its lowered plan scans.
#[test]
fn lifted_plans_fuse_no_aggregate_and_narrow_no_build_scan() {
    let mut families = vec![
        (random_db(3, 300), query_family()),
        (
            join_db(3),
            join_family().into_iter().map(|(_, p)| p).collect(),
        ),
    ];
    families.extend((0..24).map(|seed| {
        let mut rng = StdRng::seed_from_u64(seed);
        (grouping_db(&mut rng), vec![grouping_plan(&mut rng)])
    }));
    let mut havings = 0;
    for (db, plans) in &families {
        for profile in [EngineProfile::Indexed, EngineProfile::ColumnarScan] {
            let engine = Engine::new(profile);
            for (i, plan) in plans.iter().enumerate() {
                let lowered = engine.plan(db, plan).unwrap();
                let lifted = lift_scan_filters(&lowered);
                let ctx = format!("plan #{i}, {profile:?}\n{lifted}");
                havings += usize::from(keeps_having(&lowered));
                assert!(!keeps_having(&lifted), "{ctx}");
                let stats = engine.execute_physical(db, &lifted).unwrap().stats;
                assert_eq!(stats.agg_pushdown_blocks, 0, "{ctx}");
                assert_eq!(stats.join_key_filters, 0, "{ctx}");
                assert_eq!(stats.vectorized_blocks, 0, "{ctx}");
                if !has_hash_join(&lowered) {
                    let planned = engine.execute_physical(db, &lowered).unwrap().stats;
                    assert_eq!(stats.rows_scanned, planned.rows_scanned, "{ctx}");
                }
            }
        }
    }
    assert!(havings >= 3, "only {havings} lowered plans decide a HAVING");
}

/// Whether some aggregate of `plan` decides a HAVING.
fn keeps_having(plan: &PhysicalPlan) -> bool {
    matches!(
        plan.op,
        PhysOp::HashAggregate {
            having: Some(_),
            ..
        }
    ) || plan.children().into_iter().any(keeps_having)
}

/// FNV-1a over a value's `Debug` rendering: a digest that is the same on
/// every run and every machine.
fn digest(value: &impl std::fmt::Debug) -> u64 {
    format!("{value:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
        })
}

/// Digests of the TPC-H analogues at the benchmark's tiny scale (seed 1):
/// `(query, rows of plain execution in output order, rows of the
/// sketch-instrumented plan, capture result rows and sketch, lineage)`.
/// Rows, their order and their tags do not depend on the access paths the
/// executor picks, so every one of them stays as pinned.
const TPCH_DIGESTS: [(&str, [u64; 4]); 5] = [
    (
        "Q3",
        [
            9424248188457405113,
            9424248188457405113,
            851179217694019002,
            16024248695049805247,
        ],
    ),
    (
        "Q5",
        [
            8895459649667859398,
            8895459649667859398,
            7762318858508384386,
            15028709791829630774,
        ],
    ),
    (
        "Q10",
        [
            4585394585402441232,
            4585394585402441232,
            13326675136798334555,
            4853201587837828123,
        ],
    ),
    (
        "Q18",
        [
            12426140247786688397,
            12426140247786688397,
            4163348455453504982,
            10922582771316837925,
        ],
    ),
    (
        "Q19",
        [
            6997312811939037896,
            6997312811939037896,
            13594826457521587232,
            90050388518720207,
        ],
    ),
];

#[test]
fn tpch_join_digests_are_pinned() {
    let db = pbds_workloads::tpch::generate(&pbds_workloads::tpch::TpchConfig {
        scale: 0.002,
        seed: 1,
        block_size: 256,
    });
    let queries = pbds_workloads::tpch::queries();
    let mut actual = Vec::new();
    for (name, _) in TPCH_DIGESTS {
        let q = queries.iter().find(|q| q.name == name).unwrap();
        let plan = q.default_plan();
        let pbds_workloads::SketchSpec::Range { table, attr } = &q.sketch else {
            panic!("{name} has no range sketch");
        };
        let values = db.table(table).unwrap().column_iter(attr).unwrap();
        let part: PartitionRef = Arc::new(Partition::Range(
            RangePartition::equi_depth_from_iter(table.clone(), attr.clone(), values, 16).unwrap(),
        ));
        let mut seen: [Vec<u64>; 4] = Default::default();
        for profile in [EngineProfile::Indexed, EngineProfile::ColumnarScan] {
            let capture =
                capture_sketches_with_profile(&db, &plan, std::slice::from_ref(&part), profile)
                    .unwrap();
            let instrumented = pbds_core::apply_sketches(
                &plan,
                &capture.sketches,
                pbds_core::UsePredicateStyle::BinarySearch,
            );
            for lifted in [false, true] {
                let rows = |p: &LogicalPlan| {
                    let ((rel, _), _) = run_pinned(&db, p, profile, lifted, &NoTag);
                    rel
                };
                seen[0].push(digest(&rows(&plan).rows()));
                seen[1].push(digest(&rows(&instrumented).rows()));
            }
            seen[2].push(digest(&(
                capture.result.rows(),
                capture.sketches[0].bitset().to_string(),
            )));
        }
        let lineage = capture_lineage(&db, &plan).unwrap();
        seen[3].push(digest(&(lineage.relation.rows(), &lineage.per_row)));
        let mut row = [0u64; 4];
        for (i, digests) in seen.iter().enumerate() {
            assert!(
                digests.iter().all(|d| *d == digests[0]),
                "{name}: digest {i} differs across profiles or lifted plans: {digests:?}"
            );
            row[i] = digests[0];
        }
        actual.push((name, row));
    }
    assert_eq!(actual, TPCH_DIGESTS.to_vec());
}
