//! Mutation correctness: the stale-cache bug class, checked end to end.
//!
//! Storage keeps derived artifacts (zone maps, indexes, columnar chunks,
//! statistics) behind epoch-checked caches; the catalog maintains stored
//! provenance sketches across `append_rows` / `delete_where`. This suite
//! proves the invariants the design promises:
//!
//! 1. **Scan-path equivalence under mutation** — after any generated
//!    sequence of appends and deletes, each plan and its lifted-filter
//!    oracle (`support/lifted.rs`) return *byte-identical* results (rows
//!    **and** capture tags) on both engine profiles. A stale zone
//!    map, rid list or chunk projection would break this immediately.
//! 2. **Sketch maintenance stays a safe superset** — a sketch captured
//!    before the mutations and maintained through them (fragment-bitset
//!    extension on append, kept on delete) still covers the accurate
//!    provenance sketch of the mutated database, and the catalog keeps
//!    serving correct results through it.
//! 3. **Concurrent serving under a background mutator** — a `PbdsServer`
//!    serving from several session threads while a mutator thread applies
//!    appends and deletes produces, for every query, exactly the answer of
//!    plain execution against one of the database states that existed
//!    during serving (admission-order linearizability), with no stale rows
//!    from pre-mutation caches.

use pbds_algebra::{col, lit, param, AggExpr, AggFunc, LogicalPlan, QueryTemplate, SortKey};
use pbds_core::{Mutation, PbdsServer, ServerConfig};
use pbds_exec::{execute, lower, Engine, EngineProfile, ExecStats, PhysicalPlan};
use pbds_provenance::{
    capture_lineage, capture_sketches, CaptureConfig, FragmentAssigner, ProvenanceSketch,
    SketchTagPolicy,
};
use pbds_storage::{
    DataType, Database, Partition, PartitionRef, RangePartition, Row, Schema, TableBuilder, Value,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::{Arc, Mutex};

#[path = "support/lifted.rs"]
mod lifted;
use lifted::lift_scan_filters;

// ---------------------------------------------------------------------------
// Fixtures
// ---------------------------------------------------------------------------

/// `r(k INT, grp INT, v INT)` with an index on `k`, small blocks (many
/// chunks / zone-map blocks) and strictly positive `v` (so the HAVING
/// queries fall under the safety rules' monotonicity assumptions).
fn base_db(seed: u64, rows: usize) -> Database {
    let mut rng = StdRng::seed_from_u64(seed);
    let schema = Schema::from_pairs(&[
        ("k", DataType::Int),
        ("grp", DataType::Int),
        ("v", DataType::Int),
    ]);
    let mut b = TableBuilder::new("r", schema);
    b.block_size(64).index("k");
    for i in 0..rows {
        b.push(random_row(&mut rng, i as i64));
    }
    let mut db = Database::new();
    db.add_table(b.build());
    db
}

fn random_row(rng: &mut StdRng, k: i64) -> Row {
    vec![
        Value::Int(k),
        Value::Int(rng.gen_range(0..12i64)),
        Value::Int(rng.gen_range(1..500i64)),
    ]
}

/// Query shapes covering every scan access path (seq / zone-map / index,
/// with and without pushed-down filters) plus blocking operators above them.
fn query_family() -> Vec<LogicalPlan> {
    vec![
        LogicalPlan::scan("r"),
        LogicalPlan::scan("r").filter(col("k").between(lit(50), lit(400))),
        LogicalPlan::scan("r").filter(col("grp").eq(lit(3)).and(col("v").gt(lit(100)))),
        LogicalPlan::scan("r")
            .aggregate(
                vec!["grp"],
                vec![AggExpr::new(AggFunc::Sum, col("v"), "total")],
            )
            .filter(col("total").gt(lit(4_000))),
        LogicalPlan::scan("r")
            .filter(col("k").ge(lit(20)))
            .top_k(vec![SortKey::desc("v"), SortKey::asc("k")], 9),
        LogicalPlan::scan("r")
            .project(vec![(col("grp"), "grp")])
            .distinct(),
    ]
}

/// A mutation step generated by the property tests.
#[derive(Debug, Clone)]
enum Op {
    /// Append `count` rows with keys continuing past the current maximum.
    Append { count: usize, seed: u64 },
    /// Delete all rows whose `v` falls in `[lo, lo + width]`.
    Delete { lo: i64, width: i64 },
}

fn apply_op(db: &mut Database, op: &Op, next_k: &mut i64) {
    match op {
        Op::Append { count, seed } => {
            let mut rng = StdRng::seed_from_u64(*seed);
            let rows: Vec<Row> = (0..*count)
                .map(|i| random_row(&mut rng, *next_k + i as i64))
                .collect();
            *next_k += *count as i64;
            db.append_rows("r", rows).unwrap();
        }
        Op::Delete { lo, width } => {
            let (lo, hi) = (*lo, *lo + *width);
            db.delete_where(
                "r",
                |row| matches!(&row[2], Value::Int(v) if *v >= lo && *v <= hi),
            )
            .unwrap();
        }
    }
}

fn op_strategy() -> impl Strategy<Value = (u8, u64, i64)> {
    (0u8..2, 0u64..1_000_000, 1i64..500)
}

fn decode_op((kind, seed, x): (u8, u64, i64)) -> Op {
    if kind == 0 {
        Op::Append {
            count: (seed % 150) as usize + 1,
            seed,
        }
    } else {
        Op::Delete { lo: x, width: 40 }
    }
}

// ---------------------------------------------------------------------------
// 1. Lowered vs lifted-filter equivalence (rows and capture tags) under
//    mutation
// ---------------------------------------------------------------------------

/// Execute `plan` over `db` as lowered and as its lifted-filter oracle and
/// assert byte-identical rows and tags, and the same rows scanned by the
/// same access paths (the family is join-free).
fn assert_paths_identical<P>(db: &Database, plan: &LogicalPlan, policy: &P, ctx: &str)
where
    P: pbds_exec::TagPolicy,
    P::Tag: PartialEq + std::fmt::Debug,
{
    for profile in [EngineProfile::Indexed, EngineProfile::ColumnarScan] {
        let lowered = lower(db, plan, profile).unwrap();
        let run = |physical: &PhysicalPlan| {
            let mut stats = ExecStats::default();
            let done = execute(db, physical, policy, &mut stats).unwrap();
            ((done.relation, done.tags), stats)
        };
        let ((lifted_rel, lifted_tags), lifted_stats) = run(&lift_scan_filters(&lowered));
        let ((rel, tags), stats) = run(&lowered);
        assert_eq!(
            lifted_rel,
            rel,
            "{ctx}, {profile:?}: rows differ from the lifted plan's\n{}",
            plan.display_tree()
        );
        assert_eq!(
            lifted_tags,
            tags,
            "{ctx}, {profile:?}: tags differ from the lifted plan's\n{}",
            plan.display_tree()
        );
        assert_eq!(lifted_stats.rows_scanned, stats.rows_scanned, "{ctx}");
        assert_eq!(lifted_stats.full_scans, stats.full_scans, "{ctx}");
        assert_eq!(lifted_stats.index_scans, stats.index_scans, "{ctx}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// After every mutation in a generated interleaving, the lowered plan
    /// (over epoch-maintained chunks / zone maps / indexes) stays
    /// byte-identical to its lifted-filter oracle — for plain execution
    /// *and* for sketch-capture tags.
    #[test]
    fn scan_paths_agree_after_any_mutation_sequence(
        seed in 0u64..1_000_000,
        raw_ops in prop::collection::vec(op_strategy(), 1..5),
    ) {
        let mut db = base_db(seed, 900);
        let mut next_k = 900i64;
        let part: PartitionRef = Arc::new(Partition::Range(RangePartition::from_uppers(
            "r",
            "grp",
            vec![Value::Int(3), Value::Int(7), Value::Int(9)],
        )));
        let assigners = vec![FragmentAssigner::new(part)];
        let policy = SketchTagPolicy::new(&assigners);

        for (step, raw) in raw_ops.into_iter().enumerate() {
            let op = decode_op(raw);
            apply_op(&mut db, &op, &mut next_k);
            for (qi, plan) in query_family().iter().enumerate() {
                let ctx = format!("seed {seed}, step {step} ({op:?}), query #{qi}");
                assert_paths_identical(&db, plan, &pbds_exec::NoTag, &ctx);
                assert_paths_identical(&db, plan, &policy, &ctx);
            }
        }
    }

    /// A sketch captured before the mutations and maintained through them —
    /// extended with new-row fragments on appends, kept on deletes — always
    /// remains a superset of the freshly computed *accurate* sketch of the
    /// mutated database, and evaluating the query over the maintained
    /// sketch instance reproduces plain execution exactly.
    #[test]
    fn maintained_sketch_stays_a_superset_of_the_accurate_sketch(
        seed in 0u64..1_000_000,
        bound in 3_000i64..6_000,
        raw_ops in prop::collection::vec(op_strategy(), 1..5),
    ) {
        let mut db = base_db(seed, 900);
        let mut next_k = 900i64;
        // Partition on the group-by attribute (the safe attribute of this
        // HAVING shape), one fragment per distinct value.
        let part: PartitionRef = Arc::new(Partition::Range(
            RangePartition::per_distinct_value_from_iter(
                "r",
                "grp",
                db.table("r").unwrap().column_iter("grp").unwrap(),
            )
            .unwrap(),
        ));
        let plan = LogicalPlan::scan("r")
            .aggregate(
                vec!["grp"],
                vec![AggExpr::new(AggFunc::Sum, col("v"), "total")],
            )
            .filter(col("total").gt(lit(bound)));
        let captured = capture_sketches(
            &db,
            &plan,
            std::slice::from_ref(&part),
            &CaptureConfig::optimized(),
        )
        .unwrap();
        let mut maintained = captured.sketches[0].clone();

        for raw in raw_ops {
            let op = decode_op(raw);
            let old_len = db.table("r").unwrap().len();
            apply_op(&mut db, &op, &mut next_k);
            if matches!(op, Op::Append { .. }) {
                let table = db.table("r").unwrap();
                let new_rows: Vec<Row> = table.rows().range(old_len..).to_vec();
                prop_assert!(
                    maintained.extend_for_append(table.schema(), &new_rows),
                    "range partitions cover the domain; extension must succeed"
                );
            }
            // Deletes keep the sketch untouched: still-safe superset.

            // (a) Superset of the accurate sketch of the *current* data.
            let lineage = capture_lineage(&db, &plan).unwrap();
            let table = db.table("r").unwrap();
            let accurate = ProvenanceSketch::from_rows(
                maintained.partition().clone(),
                table.schema(),
                lineage
                    .rows_of("r")
                    .into_iter()
                    .map(|rid| table.rows()[rid as usize].clone()),
            );
            prop_assert!(
                maintained.is_superset_of(&accurate),
                "maintained sketch {maintained} lost accurate fragments {:?} after {op:?}",
                accurate.selected_fragments()
            );

            // (b) Evaluating over the maintained sketch instance reproduces
            // the plain answer (the safety property reuse relies on).
            let restricted =
                pbds_provenance::restrict_database(&db, std::slice::from_ref(&maintained)).unwrap();
            let engine = Engine::new(EngineProfile::Indexed);
            let over_sketch = engine.execute(&restricted, &plan).unwrap().relation;
            let plain = engine.execute(&db, &plan).unwrap().relation;
            prop_assert!(
                over_sketch.bag_eq(&plain),
                "sketch-instance evaluation diverged after {op:?}"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// 2. Catalog-served reuse stays correct across mutations
// ---------------------------------------------------------------------------

#[test]
fn catalog_reuse_matches_plain_execution_across_mutations() {
    let db = Arc::new(base_db(42, 2_000));
    let server = PbdsServer::new(Arc::clone(&db), ServerConfig::default());
    let session = server.session();
    let template = QueryTemplate::new(
        "r-having",
        LogicalPlan::scan("r")
            .aggregate(
                vec!["grp"],
                vec![AggExpr::new(AggFunc::Sum, col("v"), "total")],
            )
            .filter(col("total").gt(param(0))),
    );
    // Warm the catalog, then alternate mutations and queries.
    session.serve(&template, &[Value::Int(30_000)]).unwrap();
    server.drain();

    let mut rng = StdRng::seed_from_u64(7);
    let mut next_k = 2_000i64;
    for step in 0..8 {
        if step % 2 == 0 {
            let rows: Vec<Row> = (0..120).map(|i| random_row(&mut rng, next_k + i)).collect();
            next_k += 120;
            server.apply_mutation("r", Mutation::Append(rows)).unwrap();
        } else {
            let lo = rng.gen_range(1..450i64);
            server
                .apply_mutation(
                    "r",
                    Mutation::DeleteWhere(col("v").between(lit(lo), lit(lo + 25))),
                )
                .unwrap();
        }
        for bound in [31_000i64, 33_000, 35_000] {
            let served = session.serve(&template, &[Value::Int(bound)]).unwrap();
            let plain = Engine::new(EngineProfile::Indexed)
                .execute(&server.db(), &template.instantiate(&[Value::Int(bound)]))
                .unwrap();
            assert!(
                served.relation.bag_eq(&plain.relation),
                "step {step}, bound {bound}: served result diverged from plain \
                 execution (action {:?})",
                served.record.action
            );
        }
        server.drain(); // let post-mutation captures land for the next round
    }
}

// ---------------------------------------------------------------------------
// 3. Smoke test: concurrent serving with a background mutator thread
// ---------------------------------------------------------------------------

/// Serve a query stream from several session threads while a mutator thread
/// applies appends and deletes. Every served result must equal plain
/// execution against the exact snapshot the session read
/// (`ServedQuery::snapshot`) — a stale cache (old chunks, old rid lists, or
/// an unmaintained sketch) would break the equality — and that snapshot
/// must be no older than the last mutation acknowledged before the query
/// was admitted.
#[test]
fn server_with_background_mutator_never_serves_stale_results() {
    let db = Arc::new(base_db(99, 2_000));
    let server = Arc::new(PbdsServer::new(
        Arc::clone(&db),
        ServerConfig {
            capture_workers: 2,
            ..ServerConfig::default()
        },
    ));
    let template = QueryTemplate::new(
        "r-having",
        LogicalPlan::scan("r")
            .aggregate(
                vec!["grp"],
                vec![AggExpr::new(AggFunc::Sum, col("v"), "total")],
            )
            .filter(col("total").gt(param(0))),
    );
    // Every database state that ever existed, in order.
    let states: Arc<Mutex<Vec<Arc<Database>>>> = Arc::new(Mutex::new(vec![db]));

    std::thread::scope(|s| {
        let mutator = {
            let server = Arc::clone(&server);
            let states = Arc::clone(&states);
            s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(5);
                let mut next_k = 2_000i64;
                for step in 0..10 {
                    let mutation = if step % 2 == 0 {
                        let rows: Vec<Row> =
                            (0..90).map(|i| random_row(&mut rng, next_k + i)).collect();
                        next_k += 90;
                        Mutation::Append(rows)
                    } else {
                        let lo = rng.gen_range(1..450i64);
                        Mutation::DeleteWhere(col("v").between(lit(lo), lit(lo + 20)))
                    };
                    server.apply_mutation("r", mutation).unwrap();
                    states.lock().unwrap().push(server.db());
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
            })
        };

        let servers: Vec<_> = (0..3u64)
            .map(|w| {
                let server = Arc::clone(&server);
                let states = Arc::clone(&states);
                let template = template.clone();
                s.spawn(move || {
                    let session = server.session();
                    let engine = Engine::new(EngineProfile::Indexed);
                    for i in 0..40u64 {
                        let bound = 28_000 + ((w * 40 + i) % 12) as i64 * 700;
                        // The snapshot the session reads must be at least as
                        // new as the last state acknowledged before the query
                        // was admitted, and the result must equal plain
                        // execution on exactly that snapshot — no stale
                        // cache, no half-applied mutation.
                        let floor_epoch = {
                            let states = states.lock().unwrap();
                            states.last().unwrap().table("r").unwrap().data_epoch()
                        };
                        let served = session.serve(&template, &[Value::Int(bound)]).unwrap();
                        let plan = template.instantiate(&[Value::Int(bound)]);
                        let plain = engine.execute(&served.snapshot, &plan).unwrap();
                        assert!(
                            plain.relation.bag_eq(&served.relation),
                            "worker {w}, query {i} (bound {bound}, action {:?}): result \
                             differs from plain execution on the served snapshot",
                            served.record.action,
                        );
                        let snap_epoch = served.snapshot.table("r").unwrap().data_epoch();
                        assert!(
                            snap_epoch >= floor_epoch,
                            "worker {w}, query {i}: served snapshot (data_epoch \
                             {snap_epoch}) is older than a state acknowledged before \
                             admission (data_epoch {floor_epoch})",
                        );
                    }
                })
            })
            .collect();

        mutator.join().expect("mutator panicked");
        for h in servers {
            h.join().expect("session thread panicked");
        }
    });
    server.drain();

    // After the dust settles, serving matches plain execution on the final
    // state, and the catalog is still consistent.
    let session = server.session();
    let served = session.serve(&template, &[Value::Int(30_000)]).unwrap();
    let plain = Engine::new(EngineProfile::Indexed)
        .execute(&server.db(), &template.instantiate(&[Value::Int(30_000)]))
        .unwrap();
    assert!(served.relation.bag_eq(&plain.relation));
    let stored = server.metrics_snapshot().gauge("pbds_catalog_stored");
    assert_eq!(
        stored.expect("pbds_catalog_stored"),
        server.catalog().stored_sketches() as i64
    );
}

// ---------------------------------------------------------------------------
// 4. Group commit: concurrent submitters linearize as acknowledged batches
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Several submitter threads push mutations through the group-commit
    /// queue while reader threads serve queries. Every served result must
    /// equal plain execution against the exact snapshot the session read
    /// (`ServedQuery::snapshot` — a half-applied batch, a stale cache or a
    /// cross-batch reordering would break the equality), and that snapshot
    /// must be at least as new as the last state acknowledged before the
    /// query was admitted (`data_epoch` is monotone across batch swaps, so
    /// serving an old state would show as a lower epoch).
    #[test]
    fn concurrent_submitters_and_readers_observe_linearized_batches(
        seed in 0u64..1_000_000,
    ) {
        let db = Arc::new(base_db(seed, 1_200));
        let server = Arc::new(PbdsServer::new(Arc::clone(&db), ServerConfig::default()));
        let template = QueryTemplate::new(
            "r-having",
            LogicalPlan::scan("r")
                .aggregate(
                    vec!["grp"],
                    vec![AggExpr::new(AggFunc::Sum, col("v"), "total")],
                )
                .filter(col("total").gt(param(0))),
        );
        let states: Arc<Mutex<Vec<Arc<Database>>>> = Arc::new(Mutex::new(vec![db]));
        let next_k = Arc::new(Mutex::new(1_200i64));

        std::thread::scope(|s| {
            let submitters: Vec<_> = (0..4u64)
                .map(|w| {
                    let server = Arc::clone(&server);
                    let states = Arc::clone(&states);
                    let next_k = Arc::clone(&next_k);
                    s.spawn(move || {
                        let mut rng = StdRng::seed_from_u64(seed ^ (w + 1));
                        for step in 0..8 {
                            let mutation = if step % 2 == 0 {
                                let base = {
                                    let mut k = next_k.lock().unwrap();
                                    let base = *k;
                                    *k += 25;
                                    base
                                };
                                let rows: Vec<Row> = (0..25)
                                    .map(|i| random_row(&mut rng, base + i))
                                    .collect();
                                Mutation::Append(rows)
                            } else {
                                let lo = rng.gen_range(1..450i64);
                                Mutation::DeleteWhere(col("v").between(lit(lo), lit(lo + 15)))
                            };
                            server.apply_mutation("r", mutation).unwrap();
                            // Acked: the batch carrying this mutation (and
                            // possibly others) is fully visible.
                            states.lock().unwrap().push(server.db());
                        }
                    })
                })
                .collect();

            let readers: Vec<_> = (0..3u64)
                .map(|w| {
                    let server = Arc::clone(&server);
                    let states = Arc::clone(&states);
                    let template = template.clone();
                    s.spawn(move || {
                        let session = server.session();
                        let engine = Engine::new(EngineProfile::Indexed);
                        for i in 0..15u64 {
                            let bound = 28_000 + ((w * 15 + i) % 10) as i64 * 900;
                            let floor_epoch = {
                                let states = states.lock().unwrap();
                                states.last().unwrap().table("r").unwrap().data_epoch()
                            };
                            let served = session.serve(&template, &[Value::Int(bound)]).unwrap();
                            let plan = template.instantiate(&[Value::Int(bound)]);
                            let plain = engine.execute(&served.snapshot, &plan).unwrap();
                            assert!(
                                plain.relation.bag_eq(&served.relation),
                                "reader {w}, query {i} (bound {bound}, action {:?}): \
                                 result differs from plain execution on the served snapshot",
                                served.record.action,
                            );
                            let snap_epoch =
                                served.snapshot.table("r").unwrap().data_epoch();
                            assert!(
                                snap_epoch >= floor_epoch,
                                "reader {w}, query {i}: served snapshot (data_epoch \
                                 {snap_epoch}) is older than a state acknowledged before \
                                 admission (data_epoch {floor_epoch})",
                            );
                        }
                    })
                })
                .collect();

            for h in submitters {
                h.join().expect("submitter panicked");
            }
            for h in readers {
                h.join().expect("reader panicked");
            }
        });
        server.drain();

        // All 32 mutations were acknowledged; the final logged state is the
        // served state.
        let submitted = server.metrics_snapshot().counter("pbds_commit_mutations_submitted");
        prop_assert_eq!(submitted.expect("pbds_commit_mutations_submitted"), 32);
        let final_state = states.lock().unwrap().last().unwrap().clone();
        prop_assert_eq!(
            final_state.table("r").unwrap().rows(),
            server.db().table("r").unwrap().rows()
        );
    }
}

// ---------------------------------------------------------------------------
// 5. Batched catalog maintenance keeps stored sketches safe supersets
// ---------------------------------------------------------------------------

/// After a pipelined burst of appends lands through coalesced batch deltas
/// (one sketch extension per batch, not per mutation), every stored sketch
/// is still a superset of the freshly computed accurate sketch, and serving
/// through it still reproduces plain execution.
#[test]
fn batched_maintenance_keeps_sketches_safe_supersets() {
    let db = Arc::new(base_db(77, 1_500));
    let server = PbdsServer::new(Arc::clone(&db), ServerConfig::default());
    let session = server.session();
    let template = QueryTemplate::new(
        "r-having",
        LogicalPlan::scan("r")
            .aggregate(
                vec!["grp"],
                vec![AggExpr::new(AggFunc::Sum, col("v"), "total")],
            )
            .filter(col("total").gt(param(0))),
    );
    let bound = 30_000i64;
    session.serve(&template, &[Value::Int(bound)]).unwrap();
    server.drain();
    assert_eq!(server.catalog().stored_sketches(), 1);

    // Pipeline a burst of appends; the commit thread coalesces each batch's
    // appends into one delta and extends the stored sketch once per delta.
    let mut rng = StdRng::seed_from_u64(8);
    let mut next_k = 1_500i64;
    let tickets: Vec<_> = (0..24)
        .map(|_| {
            let rows: Vec<Row> = (0..15).map(|i| random_row(&mut rng, next_k + i)).collect();
            next_k += 15;
            server.submit_mutation("r", Mutation::Append(rows))
        })
        .collect();
    for t in tickets {
        t.wait().unwrap();
    }

    // Append-only burst on one table: exactly one coalesced delta per batch.
    let snap = server.metrics_snapshot();
    let c = |name: &str| snap.counter(name).expect(name);
    assert_eq!(
        c("pbds_catalog_maintenance_deltas"),
        c("pbds_commit_batches"),
        "append-only batches must coalesce to one delta each: {snap:?}"
    );
    assert!(
        c("pbds_catalog_extended") >= 1,
        "the stored sketch must be extended, not dropped: {snap:?}"
    );
    assert_eq!(server.catalog().stored_sketches(), 1, "{snap:?}");

    // Direct superset check: the maintained sketch still covers the accurate
    // provenance of the mutated database for the captured binding.
    let final_db = server.db();
    let entry = server
        .catalog()
        .export()
        .entries
        .pop()
        .expect("one stored entry");
    let maintained = entry.sketches[0].clone();
    let plan = template.instantiate(&[Value::Int(bound)]);
    let lineage = capture_lineage(&final_db, &plan).unwrap();
    let table = final_db.table("r").unwrap();
    let accurate = ProvenanceSketch::from_rows(
        maintained.partition().clone(),
        table.schema(),
        lineage
            .rows_of("r")
            .into_iter()
            .map(|rid| table.rows()[rid as usize].clone()),
    );
    assert!(
        maintained.is_superset_of(&accurate),
        "maintained sketch {maintained} lost accurate fragments {:?} after batched appends",
        accurate.selected_fragments()
    );

    // And serving through the maintained sketch reproduces plain execution.
    let engine = Engine::new(EngineProfile::Indexed);
    for b in [bound, bound + 2_000, bound + 4_000] {
        let served = session.serve(&template, &[Value::Int(b)]).unwrap();
        let plain = engine
            .execute(&final_db, &template.instantiate(&[Value::Int(b)]))
            .unwrap();
        assert!(
            served.relation.bag_eq(&plain.relation),
            "bound {b}: served diverged after batched maintenance (action {:?})",
            served.record.action
        );
    }
}
