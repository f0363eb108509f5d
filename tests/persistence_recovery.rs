//! Crash-recovery correctness for the durability layer.
//!
//! Three guarantees are proven here, end to end through `PbdsServer`:
//!
//! 1. **Torn-tail recovery lands on the longest whole-record prefix.** A
//!    generated mutation/query interleaving is logged to the WAL; the log is
//!    then truncated at *every byte prefix* (simulating a crash mid-append)
//!    and reopened. The recovered database must be byte-identical to the
//!    state after exactly the mutations whose records survived whole — no
//!    more, no fewer — and the lifted-filter oracle must agree
//!    on the recovered state (stale derived artifacts would break it).
//! 2. **The catalog is warm across restarts, and only with epoch-valid
//!    entries.** A server that served a Zipf stream, checkpointed and was
//!    reopened serves the same stream with catalog hits from the first
//!    repeated template and never pays capture again; every imported entry's
//!    capture epochs match the recovered tables exactly.
//! 3. **A stale persisted catalog cannot poison recovery.** If the catalog
//!    file lags the snapshot (the crash window between the two renames), its
//!    entries are dropped on import, never offered.

use pbds_algebra::{col, lit, param, AggExpr, AggFunc, LogicalPlan, QueryTemplate};
use pbds_core::{Mutation, PbdsServer, ServerConfig};
use pbds_exec::{Engine, EngineProfile};
use pbds_persist::{read_records, write_snapshot, SNAPSHOT_FILE, WAL_FILE};
use pbds_storage::{DataType, Database, Row, Schema, TableBuilder, Value};
use pbds_workloads::stream::{zipf_stream, StreamSpec, TemplatePool};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

#[path = "support/lifted.rs"]
mod lifted;
use lifted::lift_scan_filters;

// ---------------------------------------------------------------------------
// Fixtures
// ---------------------------------------------------------------------------

/// Fresh scratch directory under `target/tmp` (never outside the repo).
fn test_dir(name: &str) -> PathBuf {
    static UNIQUE: AtomicU64 = AtomicU64::new(0);
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("persistence_recovery")
        .join(format!("{name}-{}", UNIQUE.fetch_add(1, Ordering::Relaxed)));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create test dir");
    dir
}

/// `r(k INT, grp INT, v INT)`, indexed on `k`, small blocks, positive `v`.
fn base_db(seed: u64, rows: usize) -> Database {
    let mut rng = StdRng::seed_from_u64(seed);
    let schema = Schema::from_pairs(&[
        ("k", DataType::Int),
        ("grp", DataType::Int),
        ("v", DataType::Int),
    ]);
    let mut b = TableBuilder::new("r", schema);
    b.block_size(32).index("k");
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
        Value::Int(rng.gen_range(0..10i64)),
        Value::Int(rng.gen_range(1..400i64)),
    ]
}

fn having_template() -> QueryTemplate {
    QueryTemplate::new(
        "r-having",
        LogicalPlan::scan("r")
            .aggregate(
                vec!["grp"],
                vec![AggExpr::new(AggFunc::Sum, col("v"), "total")],
            )
            .filter(col("total").gt(param(0))),
    )
}

/// Queries exercising every scan access path on the recovered state.
fn query_family() -> Vec<LogicalPlan> {
    vec![
        LogicalPlan::scan("r"),
        LogicalPlan::scan("r").filter(col("k").between(lit(20), lit(120))),
        LogicalPlan::scan("r").filter(col("grp").eq(lit(3)).and(col("v").gt(lit(100)))),
        LogicalPlan::scan("r")
            .aggregate(
                vec!["grp"],
                vec![AggExpr::new(AggFunc::Sum, col("v"), "total")],
            )
            .filter(col("total").gt(lit(1_500))),
    ]
}

/// Lifted-filter oracle on one database: the lowered plan and the same plan
/// with its scan filters lifted above the scans must return byte-identical
/// rows (a stale zone map / chunk projection / rid list in a restored table
/// would diverge immediately), and both must match `expect`.
fn assert_oracle_agrees(db: &Database, expect: &Database, ctx: &str) {
    let engine = Engine::new(EngineProfile::Indexed);
    for (qi, plan) in query_family().iter().enumerate() {
        let lowered = engine.plan(db, plan).unwrap();
        let out = engine.execute_physical(db, &lowered).unwrap().relation;
        let lifted = lift_scan_filters(&lowered);
        let lifted_out = engine.execute_physical(db, &lifted).unwrap().relation;
        assert_eq!(
            out, lifted_out,
            "{ctx}: query #{qi} diverged from its lifted plan on the recovered db"
        );
        let expected = engine.execute(expect, plan).unwrap().relation;
        assert_eq!(out, expected, "{ctx}: query #{qi} wrong result");
    }
}

/// Assert every stored catalog entry's capture epochs match `db` exactly.
fn assert_catalog_epoch_valid(server: &PbdsServer, ctx: &str) {
    let db = server.db();
    for entry in server.catalog().export().entries {
        for (table, epoch) in &entry.capture_epochs {
            assert_eq!(
                db.table(table).unwrap().data_epoch(),
                *epoch,
                "{ctx}: catalog entry for template {} is epoch-stale on {table}",
                entry.template_key
            );
        }
    }
}

/// Background captures the server completed (`pbds_captures_done`).
fn captures_done(server: &PbdsServer) -> u64 {
    let name = "pbds_captures_done";
    server.metrics_snapshot().counter(name).expect(name)
}

/// A mutation step generated by the property test.
#[derive(Debug, Clone)]
enum Op {
    Append { count: usize, seed: u64 },
    Delete { lo: i64, width: i64 },
}

fn decode_op((kind, seed, x): (u8, u64, i64)) -> Op {
    if kind == 0 {
        Op::Append {
            count: (seed % 24) as usize + 1,
            seed,
        }
    } else {
        Op::Delete { lo: x, width: 30 }
    }
}

fn to_mutation(op: &Op, next_k: &mut i64) -> Mutation {
    match op {
        Op::Append { count, seed } => {
            let mut rng = StdRng::seed_from_u64(*seed);
            let rows: Vec<Row> = (0..*count)
                .map(|i| random_row(&mut rng, *next_k + i as i64))
                .collect();
            *next_k += *count as i64;
            Mutation::Append(rows)
        }
        Op::Delete { lo, width } => {
            Mutation::DeleteWhere(col("v").between(lit(*lo), lit(*lo + *width)))
        }
    }
}

// ---------------------------------------------------------------------------
// 1. Torn-tail WAL recovery at every byte prefix
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Write a checkpoint, log a random mutation/query interleaving to the
    /// WAL, then truncate the log at **every byte prefix** and reopen: the
    /// recovered state must equal the state after exactly the whole records
    /// in the prefix (rows byte-identical, scan paths agreeing), and every
    /// imported catalog entry must be epoch-valid.
    #[test]
    fn torn_wal_recovers_longest_whole_record_prefix(
        seed in 0u64..1_000_000,
        raw_ops in prop::collection::vec((0u8..2, 0u64..1_000_000, 1i64..350), 1..4),
    ) {
        let dir = test_dir("torn-wal");
        let config = ServerConfig {
            checkpoint_every: None, // everything after the checkpoint stays in the WAL
            ..ServerConfig::default()
        };
        let template = having_template();
        let mut next_k = 150i64;
        // `states[i]`: the database after `i` logged mutations; `bounds[i]`:
        // the WAL length at that point (measured, not parsed — the recovery
        // assertion must not trust the parser it is testing).
        let mut states: Vec<Arc<Database>> = Vec::new();
        let mut bounds: Vec<u64> = Vec::new();
        {
            let server = PbdsServer::create(
                &dir,
                Arc::new(base_db(seed, 150)),
                config,
            ).unwrap();
            let session = server.session();
            // Warm the catalog so recovery has entries to validate.
            session.serve(&template, &[Value::Int(4_000)]).unwrap();
            server.drain();
            server.checkpoint().unwrap();
            states.push(server.db());
            bounds.push(fs::metadata(dir.join(WAL_FILE)).unwrap().len());
            for (i, raw) in raw_ops.iter().copied().enumerate() {
                let op = decode_op(raw);
                server.apply_mutation("r", to_mutation(&op, &mut next_k)).unwrap();
                // Interleave queries so catalog maintenance runs mid-log.
                if i % 2 == 0 {
                    session.serve(&template, &[Value::Int(4_500)]).unwrap();
                }
                states.push(server.db());
                bounds.push(fs::metadata(dir.join(WAL_FILE)).unwrap().len());
            }
            server.drain();
            drop(server); // crash: no shutdown, no checkpoint
        }

        let wal_bytes = fs::read(dir.join(WAL_FILE)).unwrap();
        prop_assert_eq!(*bounds.last().unwrap() as usize, wal_bytes.len());
        // One recovery directory reused across prefixes; snapshot + catalog
        // are fixed, only the WAL prefix varies.
        let rec = test_dir("torn-wal-recovery");
        for f in ["snapshot.pbds", "catalog.pbds"] {
            fs::copy(dir.join(f), rec.join(f)).unwrap();
        }
        for cut in 0..=wal_bytes.len() {
            fs::write(rec.join(WAL_FILE), &wal_bytes[..cut]).unwrap();
            let whole = bounds.iter().filter(|&&b| b <= cut as u64).count().saturating_sub(1);
            let server = PbdsServer::open(&rec, config).unwrap();
            let report = server.recovery_report().unwrap();
            let ctx = format!("seed {seed}, cut {cut} ({whole} whole records)");
            prop_assert_eq!(report.wal_replayed, whole, "{}", &ctx);
            prop_assert_eq!(report.catalog_dropped, 0, "{}", &ctx);
            prop_assert!(report.catalog_imported >= 1, "{}", &ctx);
            let expected = &states[whole];
            prop_assert_eq!(
                server.db().table("r").unwrap().rows(),
                expected.table("r").unwrap().rows(),
                "{}: recovered rows differ from the longest-whole-prefix state",
                &ctx
            );
            assert_catalog_epoch_valid(&server, &ctx);
            // The full oracle is expensive; run it where the prefix ends on
            // a record boundary (every distinct recovered state is covered)
            // and on the final torn prefix.
            if bounds.contains(&(cut as u64)) || cut == wal_bytes.len() {
                assert_oracle_agrees(&server.db(), expected, &ctx);
                // Serving the recovered state matches plain execution.
                let served = server
                    .session()
                    .serve(&template, &[Value::Int(4_500)])
                    .unwrap();
                let plain = Engine::new(EngineProfile::Indexed)
                    .execute(&server.db(), &template.instantiate(&[Value::Int(4_500)]))
                    .unwrap();
                prop_assert!(
                    served.relation.bag_eq(&plain.relation),
                    "{}: served result diverged after recovery",
                    &ctx
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// 2. Warm catalog across restart on a Zipf stream
// ---------------------------------------------------------------------------

#[test]
fn reopened_server_serves_zipf_stream_with_warm_catalog() {
    let dir = test_dir("zipf-warm");
    let config = ServerConfig::default();
    let template = having_template();
    let pool = TemplatePool::new(
        template.clone(),
        (0..12).map(|i| vec![Value::Int(3_800 + i * 120)]).collect(),
    );
    let stream = zipf_stream(
        std::slice::from_ref(&pool),
        &StreamSpec {
            queries: 50,
            skew: 1.1,
            seed: 11,
        },
    );

    // Cold run: serve the stream, draining after each query so captures
    // land deterministically.
    let cold_actions: Vec<_>;
    {
        let server = PbdsServer::create(&dir, Arc::new(base_db(7, 1_500)), config).unwrap();
        let session = server.session();
        cold_actions = stream
            .iter()
            .map(|(t, b)| {
                let served = session.serve(t, b).unwrap();
                if served.capture_enqueued {
                    server.drain();
                }
                served.record.action
            })
            .collect();
        assert!(
            captures_done(&server) > 0,
            "cold run must pay capture at least once"
        );
        server.shutdown().unwrap();
    }

    // Warm run: same stream on the reopened server.
    let server = PbdsServer::open(&dir, config).unwrap();
    let report = server.recovery_report().unwrap();
    assert!(report.catalog_imported > 0, "{report:?}");
    assert_eq!(report.catalog_dropped, 0, "{report:?}");
    assert_catalog_epoch_valid(&server, "warm reopen");
    let session = server.session();
    let engine = Engine::new(EngineProfile::Indexed);
    let mut warm_actions = Vec::new();
    for (t, b) in &stream {
        let served = session.serve(t, b).unwrap();
        assert!(
            !served.capture_enqueued,
            "warm start recaptured binding {b:?}"
        );
        let plain = engine.execute(&server.db(), &t.instantiate(b)).unwrap();
        assert!(served.relation.bag_eq(&plain.relation));
        warm_actions.push(served.record.action);
    }
    assert_eq!(captures_done(&server), 0, "warm start must not pay capture");

    use pbds_core::tuning::Action;
    let first_hit = |actions: &[Action]| actions.iter().position(|a| *a == Action::UseSketch);
    let cold_first = first_hit(&cold_actions);
    let warm_first = first_hit(&warm_actions).expect("warm run never hit the catalog");
    // The cold run cannot hit before its first capture lands; the warm run
    // hits from the first repeated template (query one of this stream).
    assert!(
        cold_first.is_none_or(|c| warm_first < c) || warm_first == 0,
        "warm first hit at {warm_first}, cold at {cold_first:?}"
    );
    assert_eq!(warm_first, 0, "warm catalog must hit from the first query");
}

// ---------------------------------------------------------------------------
// 3. A catalog file lagging the snapshot is dropped, never served
// ---------------------------------------------------------------------------

#[test]
fn catalog_lagging_the_snapshot_is_dropped_on_import() {
    let dir = test_dir("stale-catalog");
    let template = having_template();
    let config = ServerConfig::default();
    {
        let server = PbdsServer::create(&dir, Arc::new(base_db(3, 800)), config).unwrap();
        server
            .session()
            .serve(&template, &[Value::Int(10_000)])
            .unwrap();
        server.drain();
        assert_eq!(server.catalog().stored_sketches(), 1);
        let final_db = server.db();
        server.shutdown().unwrap();

        // Simulate the crash window where a *newer* snapshot replaced the
        // old one but the catalog file was not rewritten: mutate the
        // database and write the snapshot directly, leaving catalog.pbds
        // (and its now-stale capture epochs) behind.
        let mut db = (*final_db).clone();
        db.append_rows(
            "r",
            vec![vec![Value::Int(800), Value::Int(1), Value::Int(5)]],
        )
        .unwrap();
        write_snapshot(&dir.join(SNAPSHOT_FILE), &db, 0).unwrap();
    }

    let server = PbdsServer::open(&dir, config).unwrap();
    let report = server.recovery_report().unwrap();
    assert_eq!(report.catalog_imported, 0, "{report:?}");
    assert_eq!(report.catalog_dropped, 1, "{report:?}");
    assert_eq!(server.catalog().stored_sketches(), 0);
    // Serving is cold but correct; the first miss re-captures.
    let served = server
        .session()
        .serve(&template, &[Value::Int(10_000)])
        .unwrap();
    let plain = Engine::new(EngineProfile::Indexed)
        .execute(&server.db(), &template.instantiate(&[Value::Int(10_000)]))
        .unwrap();
    assert!(served.relation.bag_eq(&plain.relation));
}

// ---------------------------------------------------------------------------
// 4. WAL sequence numbers make replay idempotent against the snapshot
// ---------------------------------------------------------------------------

#[test]
fn snapshot_written_after_wal_records_skips_them_on_replay() {
    let dir = test_dir("seq-idempotent");
    let config = ServerConfig {
        checkpoint_every: None,
        ..ServerConfig::default()
    };
    let expected;
    {
        let server = PbdsServer::create(&dir, Arc::new(base_db(5, 400)), config).unwrap();
        for i in 0..3i64 {
            server
                .apply_mutation(
                    "r",
                    Mutation::Append(vec![vec![
                        Value::Int(400 + i),
                        Value::Int(1),
                        Value::Int(9),
                    ]]),
                )
                .unwrap();
        }
        expected = server.db().table("r").unwrap().rows().to_vec();
        // Crash window: the checkpoint wrote the snapshot (covering all 3
        // records) but died before truncating the WAL.
        write_snapshot(&dir.join(SNAPSHOT_FILE), &server.db(), 3).unwrap();
        drop(server);
    }
    let (records, _) = read_records(&dir.join(WAL_FILE)).unwrap();
    assert_eq!(records.len(), 3, "all three records still in the WAL");

    let server = PbdsServer::open(&dir, config).unwrap();
    assert_eq!(
        server.recovery_report().unwrap().wal_replayed,
        0,
        "records covered by the snapshot must not be double-applied"
    );
    assert_eq!(server.db().table("r").unwrap().rows(), &expected[..]);
    assert_eq!(server.db().table("r").unwrap().len(), 403);
}

// ---------------------------------------------------------------------------
// 5. Group commit: batched WAL appends keep every recovery guarantee
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Pipeline a whole mutation sequence through `submit_mutation` (so the
    /// commit thread writes multi-record batches under single fsyncs), crash,
    /// then truncate the WAL at **every byte prefix**: recovery must land on
    /// a whole-*record* prefix — never a half-batch state and never a state
    /// no ticket could have observed — and the full log must replay to the
    /// exact database the live server acknowledged.
    #[test]
    fn torn_wal_from_batched_commits_recovers_whole_record_prefixes(
        seed in 0u64..1_000_000,
        raw_ops in prop::collection::vec((0u8..2, 0u64..1_000_000, 1i64..350), 6..16),
    ) {
        let dir = test_dir("torn-batched");
        let config = ServerConfig {
            checkpoint_every: None,
            ..ServerConfig::default()
        };
        // Build the mutation list once; the live server and the shadow
        // replayer both consume clones of the same deterministic sequence.
        let mut next_k = 150i64;
        let mutations: Vec<Mutation> = raw_ops
            .iter()
            .copied()
            .map(|raw| to_mutation(&decode_op(raw), &mut next_k))
            .collect();
        let outcomes: Vec<_>;
        let live_rows;
        {
            let server =
                PbdsServer::create(&dir, Arc::new(base_db(seed, 150)), config).unwrap();
            // Submit everything before waiting on anything: while the commit
            // thread fsyncs one batch, the rest of the queue accumulates
            // into the next one.
            let tickets: Vec<_> = mutations
                .iter()
                .map(|m| server.submit_mutation("r", m.clone()))
                .collect();
            outcomes = tickets.into_iter().map(|t| t.wait().unwrap()).collect();
            live_rows = server.db().table("r").unwrap().rows().to_vec();
            drop(server); // crash: no shutdown, no checkpoint
        }
        // Effective mutations got dense WAL sequences in submission order;
        // no-ops (deletes matching nothing) were never logged.
        let logged: Vec<&Mutation> = outcomes
            .iter()
            .zip(&mutations)
            .filter(|(o, _)| o.wal_seq.is_some())
            .map(|(_, m)| m)
            .collect();
        let seqs: Vec<u64> = outcomes.iter().filter_map(|o| o.wal_seq).collect();
        prop_assert_eq!(&seqs, &(1..=logged.len() as u64).collect::<Vec<_>>());

        // Shadow states: `states[i]` is the database after the first `i`
        // logged records, computed one record at a time — exactly what
        // recovery replays, independent of how the live server batched.
        let shadow = PbdsServer::new(Arc::new(base_db(seed, 150)), config);
        let mut states: Vec<Arc<Database>> = vec![shadow.db()];
        for m in &logged {
            shadow.apply_mutation("r", (*m).clone()).unwrap();
            states.push(shadow.db());
        }
        // Batch application must equal record-at-a-time application.
        prop_assert_eq!(
            &live_rows,
            states.last().unwrap().table("r").unwrap().rows(),
            "live batched state diverged from sequential replay"
        );

        let wal_bytes = fs::read(dir.join(WAL_FILE)).unwrap();
        let rec = test_dir("torn-batched-recovery");
        for f in ["snapshot.pbds", "catalog.pbds"] {
            fs::copy(dir.join(f), rec.join(f)).unwrap();
        }
        let mut prev = 0usize;
        for cut in 0..=wal_bytes.len() {
            fs::write(rec.join(WAL_FILE), &wal_bytes[..cut]).unwrap();
            let server = PbdsServer::open(&rec, config).unwrap();
            let replayed = server.recovery_report().unwrap().wal_replayed;
            let ctx = format!("seed {seed}, cut {cut} ({replayed} whole records)");
            prop_assert!(replayed >= prev, "{}: replay count went backwards", &ctx);
            prop_assert!(replayed <= logged.len(), "{}", &ctx);
            prop_assert_eq!(
                server.db().table("r").unwrap().rows(),
                states[replayed].table("r").unwrap().rows(),
                "{}: recovered state is not the whole-record prefix state",
                &ctx
            );
            prev = replayed;
        }
        prop_assert_eq!(prev, logged.len(), "the full WAL must replay every acked record");
    }
}

/// Every acknowledged mutation of a group-committed burst survives a crash
/// that happens *after* the acks but *before* any checkpoint: the on-disk
/// snapshot still predates the burst, so the recovered state comes entirely
/// from the batched WAL records.
#[test]
fn acknowledged_batches_survive_a_crash_before_any_checkpoint() {
    let dir = test_dir("ack-before-checkpoint");
    let config = ServerConfig {
        checkpoint_every: None,
        ..ServerConfig::default()
    };
    let expected;
    {
        let server = PbdsServer::create(&dir, Arc::new(base_db(11, 200)), config).unwrap();
        let tickets: Vec<_> = (0..64i64)
            .map(|i| {
                server.submit_mutation(
                    "r",
                    Mutation::Append(vec![vec![
                        Value::Int(200 + i),
                        Value::Int(i % 10),
                        Value::Int(5 + i),
                    ]]),
                )
            })
            .collect();
        for t in tickets {
            t.wait().unwrap(); // acknowledged: durable by contract
        }
        let snap = server.metrics_snapshot();
        let committed = snap.counter("pbds_commit_mutations_committed");
        assert_eq!(committed.expect("pbds_commit_mutations_committed"), 64);
        let max_batch = snap
            .gauge("pbds_commit_max_batch")
            .expect("pbds_commit_max_batch");
        assert!(
            max_batch > 1,
            "a pipelined burst of 64 must group-commit: max batch {max_batch}"
        );
        let fsyncs = snap.counter("pbds_wal_fsyncs").expect("pbds_wal_fsyncs");
        assert!(fsyncs < 64, "group commit must amortize fsyncs: {fsyncs}");
        expected = server.db().table("r").unwrap().rows().to_vec();
        drop(server); // crash between ack and checkpoint
    }
    // The snapshot on disk is still the create-time one: nothing of the
    // burst was checkpointed.
    let (snap_db, _) = pbds_persist::read_snapshot(&dir.join(SNAPSHOT_FILE)).unwrap();
    assert_eq!(snap_db.table("r").unwrap().len(), 200);

    let server = PbdsServer::open(&dir, config).unwrap();
    assert_eq!(server.recovery_report().unwrap().wal_replayed, 64);
    assert_eq!(server.db().table("r").unwrap().rows(), &expected[..]);
    assert_oracle_agrees(&server.db(), &server.db().clone(), "acked-batch recovery");
}

// ---------------------------------------------------------------------------
// 6. Replay maintains the catalog as the live server did
// ---------------------------------------------------------------------------

/// What a live server acknowledged before it crashed, and the server reopened
/// over its durability directory.
struct Crashed {
    live_rows: Vec<Row>,
    live_sketches: Vec<(String, Vec<usize>)>,
    reopened: PbdsServer,
}

/// The table and selected fragments of every stored sketch.
fn stored_sketches(server: &PbdsServer) -> Vec<(String, Vec<usize>)> {
    server
        .catalog()
        .export()
        .entries
        .iter()
        .flat_map(|e| &e.sketches)
        .map(|s| (s.table().to_string(), s.selected_fragments()))
        .collect()
}

/// A durable server that never checkpoints on its own captures a sketch on
/// `r`, checkpoints, then acknowledges append, append, delete, append on `r`
/// — all past the checkpoint, so only the WAL holds them. It is dropped
/// without `shutdown` (a crash) and reopened.
fn crash_after_append_append_delete_append(name: &str, binding: &[Value]) -> Crashed {
    let dir = test_dir(name);
    let config = ServerConfig {
        checkpoint_every: None,
        ..ServerConfig::default()
    };
    let (live_rows, live_sketches);
    {
        let server = PbdsServer::create(&dir, Arc::new(base_db(21, 600)), config).unwrap();
        let served = server.session().serve(&having_template(), binding).unwrap();
        assert!(served.capture_enqueued);
        server.drain();
        assert_eq!(server.catalog().stored_sketches(), 1);
        server.checkpoint().unwrap();
        // Every appended row lands in group 3, so maintenance extends the
        // sketch by that group's fragment alone.
        let mut rng = StdRng::seed_from_u64(22);
        let mut append = |k: i64| {
            let rows = (k..k + 20).map(|k| {
                let mut row = random_row(&mut rng, k);
                row[1] = Value::Int(3);
                row
            });
            Mutation::Append(rows.collect())
        };
        for mutation in [
            append(600),
            append(620),
            Mutation::DeleteWhere(col("v").gt(lit(380))),
            append(640),
        ] {
            let outcome = server.apply_mutation("r", mutation).unwrap();
            assert!(outcome.rows_affected > 0, "{outcome:?}");
        }
        live_rows = server.db().table("r").unwrap().rows().to_vec();
        live_sketches = stored_sketches(&server);
        drop(server); // crash: no shutdown, no checkpoint
    }
    let reopened = PbdsServer::open(&dir, config).unwrap();
    assert_eq!(reopened.recovery_report().unwrap().wal_replayed, 4);
    Crashed {
        live_rows,
        live_sketches,
        reopened,
    }
}

/// Replay brings back the rows and the maintained sketches the live server
/// acknowledged, and the recovered sketch serves the next query with no
/// recapture.
#[test]
fn replay_restores_rows_and_maintained_sketches() {
    let binding = [Value::Int(12_500)];
    let crashed = crash_after_append_append_delete_append("replay-catalog", &binding);
    let server = &crashed.reopened;
    assert_eq!(
        server.db().table("r").unwrap().rows(),
        &crashed.live_rows[..]
    );
    assert_eq!(crashed.live_sketches.len(), 1);
    assert_eq!(stored_sketches(server), crashed.live_sketches);
    assert_catalog_epoch_valid(server, "replayed catalog");

    let served = server
        .session()
        .serve(&having_template(), &binding)
        .unwrap();
    use pbds_core::tuning::Action;
    assert_eq!(served.record.action, Action::UseSketch);
    assert!(!served.capture_enqueued);
    assert_eq!(captures_done(server), 0);
    let plain = Engine::new(EngineProfile::Indexed)
        .execute(&server.db(), &having_template().instantiate(&binding))
        .unwrap();
    assert!(served.relation.bag_eq(&plain.relation));
}

/// Replay applies the WAL as one batch through the commit thread's path:
/// the two leading appends merge into one run, the delete lands alone and
/// the last append forms a second run, so the catalog is owed three deltas,
/// not one per record.
#[test]
fn replay_merges_consecutive_appends_into_runs() {
    let crashed = crash_after_append_append_delete_append("replay-runs", &[Value::Int(12_500)]);
    let name = "pbds_catalog_maintenance_deltas";
    let deltas = crashed
        .reopened
        .catalog()
        .metrics_snapshot()
        .counter(name)
        .expect(name);
    assert_eq!(deltas, 3, "two append runs and a delete");
}

// ---------------------------------------------------------------------------
// 7. An explicit checkpoint writes a whole-batch state
// ---------------------------------------------------------------------------

/// A writer pipelines appends while another thread checkpoints several
/// times. Every snapshot a checkpoint leaves on disk is the state after
/// exactly the mutations logged up to its applied sequence number `s` — no
/// half-applied batch — and holds every mutation acknowledged before the
/// checkpoint was called.
#[test]
fn checkpoints_racing_pipelined_appends_write_whole_batches() {
    const APPENDS: i64 = 400;
    const IN_FLIGHT: usize = 8;
    const BASE_ROWS: usize = 100;
    let dir = test_dir("checkpoint-races-appends");
    let config = ServerConfig {
        checkpoint_every: None,
        ..ServerConfig::default()
    };
    let server = PbdsServer::create(&dir, Arc::new(base_db(21, BASE_ROWS)), config).unwrap();
    // `acked` counts the writer's acknowledged prefix (it waits in order).
    let acked = AtomicU64::new(0);
    // (acknowledged before the call, applied seq, appended keys on disk)
    let mut checkpoints: Vec<(u64, u64, Vec<i64>)> = Vec::new();
    let seqs: Vec<u64> = std::thread::scope(|s| {
        let writer = s.spawn(|| {
            let mut seqs = Vec::new();
            let mut tickets = std::collections::VecDeque::new();
            for i in 0..APPENDS {
                let row = vec![Value::Int(1_000 + i), Value::Int(i % 10), Value::Int(1 + i)];
                tickets.push_back(server.submit_mutation("r", Mutation::Append(vec![row])));
                if tickets.len() == IN_FLIGHT || i == APPENDS - 1 {
                    while let Some(t) = tickets.pop_front() {
                        seqs.push(t.wait().unwrap().wal_seq.expect("durable append"));
                        acked.fetch_add(1, Ordering::SeqCst);
                    }
                }
            }
            seqs
        });
        for round in 0..6u64 {
            // Spread the checkpoints over the whole burst.
            while acked.load(Ordering::SeqCst) < round * 60 && !writer.is_finished() {
                std::thread::yield_now();
            }
            let before = acked.load(Ordering::SeqCst);
            server.checkpoint().unwrap();
            let (db, applied) = pbds_persist::read_snapshot(&dir.join(SNAPSHOT_FILE)).unwrap();
            let keys = (db.table("r").unwrap().rows().iter().skip(BASE_ROWS))
                .map(|row| match row[0] {
                    Value::Int(k) => k,
                    ref other => panic!("non-integer key {other:?}"),
                })
                .collect();
            checkpoints.push((before, applied, keys));
        }
        writer.join().unwrap()
    });
    assert_eq!(seqs.len(), APPENDS as usize);
    for (before, applied, keys) in &checkpoints {
        let expected: Vec<i64> = (0..APPENDS)
            .zip(&seqs)
            .filter(|(_, &seq)| seq <= *applied)
            .map(|(i, _)| 1_000 + i)
            .collect();
        assert_eq!(
            keys, &expected,
            "snapshot at seq {applied} is not the state after records 1..={applied}"
        );
        assert!(
            keys.len() as u64 >= *before,
            "snapshot at seq {applied} misses mutations acknowledged before the call \
             ({} on disk, {before} acknowledged)",
            keys.len()
        );
    }
    server.shutdown().unwrap();
}
