//! Fail-safe degradation scenarios, end to end through `PbdsServer`.
//!
//! Where `fault_torture` sweeps a seeded grid and checks state invariants,
//! these tests pin down the *behavioral* contract of each degradation path:
//! which health state the server enters, which typed error callers see,
//! whether reads keep serving, and how the server gets back to healthy —
//! a repair campaign on the commit thread, explicit checkpoint, or not at
//! all (fail-stop).

use pbds_algebra::{col, param, AggExpr, AggFunc, LogicalPlan, QueryTemplate};
use pbds_core::{HealthState, Mutation, PbdsError, PbdsServer, ServerConfig};
use pbds_persist::{
    read_snapshot, FaultInjector, FaultIo, FaultKind, FaultSpec, FileClass, CATALOG_FILE,
    SNAPSHOT_FILE,
};
use pbds_storage::{DataType, Database, Schema, TableBuilder, Value};
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn test_dir(name: &str) -> PathBuf {
    static UNIQUE: AtomicU64 = AtomicU64::new(0);
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("fault_injection")
        .join(format!("{name}-{}", UNIQUE.fetch_add(1, Ordering::Relaxed)));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create test dir");
    dir
}

fn base_db() -> Database {
    let schema = Schema::from_pairs(&[
        ("k", DataType::Int),
        ("grp", DataType::Int),
        ("v", DataType::Int),
    ]);
    let mut b = TableBuilder::new("r", schema);
    b.block_size(16).index("k");
    for k in 0..64i64 {
        b.push(vec![
            Value::Int(k),
            Value::Int(k % 6),
            Value::Int((k * 7) % 100),
        ]);
    }
    let mut db = Database::new();
    db.add_table(b.build());
    db
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

fn append(k: i64) -> Mutation {
    Mutation::Append(vec![vec![
        Value::Int(k),
        Value::Int(k % 6),
        Value::Int(k % 100),
    ]])
}

/// A `pbds_*` counter of the server's snapshot (panics on a missing name).
fn counter(server: &PbdsServer, name: &str) -> u64 {
    server.metrics_snapshot().counter(name).expect(name)
}

fn await_health(server: &PbdsServer, want: HealthState) -> bool {
    let deadline = Instant::now() + Duration::from_secs(5);
    while Instant::now() < deadline {
        if server.health() == want {
            return true;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    server.health() == want
}

/// A failed WAL fsync refuses the write (never a silent ack), flips the
/// server read-only, and the commit thread repairs it back to healthy — after
/// which writes resume and a crash + reopen shows exactly the acked rows.
#[test]
fn wal_fsync_failure_refuses_the_write_then_the_janitor_heals() {
    let dir = test_dir("fsync-heal");
    let config = ServerConfig {
        capture_workers: 1,
        checkpoint_every: None,
        ..ServerConfig::default()
    };
    let injector = FaultInjector::new(7);
    {
        let server = PbdsServer::create_with_io(
            &dir,
            Arc::new(base_db()),
            config,
            Arc::new(FaultIo::new(Arc::clone(&injector))),
        )
        .unwrap();
        injector.inject(FaultSpec {
            kind: FaultKind::FsyncFail,
            class: FileClass::Wal,
            skip: 0,
        });
        let err = server.apply_mutation("r", append(1_000)).unwrap_err();
        assert!(
            matches!(err, PbdsError::Persist(_)),
            "refused write must carry the I/O cause, got {err}"
        );
        assert_eq!(counter(&server, "pbds_robustness_wal_append_failures"), 1);
        assert!(!server.recent_events().is_empty());

        assert!(
            await_health(&server, HealthState::Healthy),
            "never repaired: health {:?}, events {:?}",
            server.health(),
            server.recent_events()
        );
        assert!(counter(&server, "pbds_robustness_repairs_succeeded") >= 1);

        // Writes resume after repair, on a verified fresh descriptor.
        server.apply_mutation("r", append(2_000)).unwrap();
        drop(server); // crash
    }
    let server = PbdsServer::open(&dir, config).unwrap();
    let db = server.db();
    let ks: Vec<&Value> = db
        .table("r")
        .unwrap()
        .rows()
        .iter()
        .map(|r| &r[0])
        .collect();
    assert!(
        !ks.contains(&&Value::Int(1_000)),
        "the refused write resurfaced after repair truncated it"
    );
    assert!(ks.contains(&&Value::Int(2_000)), "an acked write was lost");
}

/// With background repair disabled, a WAL failure leaves the server in a
/// *stable* read-only state: reads serve, writes fail fast with the typed
/// `ReadOnly` error, and an explicit checkpoint is the way back to healthy.
#[test]
fn read_only_is_stable_without_a_janitor_and_an_explicit_checkpoint_heals() {
    let dir = test_dir("stable-readonly");
    let config = ServerConfig {
        capture_workers: 1,
        checkpoint_every: None,
        repair_attempts: 0, // no repair campaigns
        ..ServerConfig::default()
    };
    let injector = FaultInjector::new(11);
    let server = PbdsServer::create_with_io(
        &dir,
        Arc::new(base_db()),
        config,
        Arc::new(FaultIo::new(Arc::clone(&injector))),
    )
    .unwrap();
    injector.inject(FaultSpec {
        kind: FaultKind::FsyncFail,
        class: FileClass::Wal,
        skip: 0,
    });
    let template = having_template();
    let session = server.session();

    server.apply_mutation("r", append(1_000)).unwrap_err();
    assert_eq!(server.health(), HealthState::ReadOnly);
    // Repair runs only on the commit thread, so this barrier comes after
    // any attempt the failed batch could have started.
    server.drain();
    assert_eq!(
        server.health(),
        HealthState::ReadOnly,
        "read-only must be stable with repair_attempts = 0"
    );

    // Reads keep serving the last committed state.
    let served = session.serve(&template, &[Value::Int(0)]).unwrap();
    assert_eq!(served.relation.len(), 6, "one group per grp value");

    // Writes fail fast with the typed error, before touching the queue.
    let err = server.apply_mutation("r", append(1_001)).unwrap_err();
    assert_eq!(err, PbdsError::ReadOnly);

    // The operator's explicit checkpoint repairs and settles the server.
    server.checkpoint().unwrap();
    assert_eq!(server.health(), HealthState::Healthy);
    server.apply_mutation("r", append(2_000)).unwrap();
    assert_eq!(server.db().table("r").unwrap().len(), 65);
}

/// When every repair attempt fails too, read-only escalates to fail-stop:
/// the server refuses reads as well as writes, permanently, rather than
/// serving answers it can no longer reconcile with durable state.
#[test]
fn repair_exhaustion_escalates_read_only_to_fail_stop() {
    let dir = test_dir("fail-stop");
    let config = ServerConfig {
        capture_workers: 1,
        checkpoint_every: None,
        repair_attempts: 2,
        ..ServerConfig::default()
    };
    let injector = FaultInjector::new(13);
    let server = PbdsServer::create_with_io(
        &dir,
        Arc::new(base_db()),
        config,
        Arc::new(FaultIo::new(Arc::clone(&injector))),
    )
    .unwrap();
    injector.inject(FaultSpec {
        kind: FaultKind::FsyncFail,
        class: FileClass::Wal,
        skip: 0,
    });
    // Make every repair checkpoint fail as well: each attempt eats one spec.
    for _ in 0..4 {
        injector.inject(FaultSpec {
            kind: FaultKind::Enospc,
            class: FileClass::Snapshot,
            skip: 0,
        });
    }
    let session = server.session();

    server.apply_mutation("r", append(1_000)).unwrap_err();
    assert!(
        await_health(&server, HealthState::FailStop),
        "exhausted repair never escalated: health {:?}, events {:?}",
        server.health(),
        server.recent_events()
    );
    assert!(counter(&server, "pbds_robustness_repair_attempts") >= 2);
    assert_eq!(counter(&server, "pbds_robustness_repairs_succeeded"), 0);

    let err = session
        .serve(&having_template(), &[Value::Int(0)])
        .unwrap_err();
    assert_eq!(err, PbdsError::FailStop, "fail-stop must refuse reads");
    let err = server.apply_mutation("r", append(1_001)).unwrap_err();
    assert_eq!(err, PbdsError::FailStop, "fail-stop must refuse writes");

    // The latency histograms cover completed operations only: the two
    // refused writes and the refused read add no samples.
    let snap = server.metrics_snapshot();
    for histogram in ["pbds_mutation_commit_seconds", "pbds_query_seconds"] {
        let count = snap.histogram(histogram).expect(histogram).count();
        assert_eq!(count, 0, "{histogram}");
    }
}

/// A snapshot that hits ENOSPC during an automatic checkpoint degrades the
/// server without failing the acked batch: atomic replacement never leaves
/// a damaged snapshot (the file is the previous one or a complete repaired
/// one), writes keep flowing, and the repair campaign's checkpoint
/// eventually covers the new mutations.
#[test]
fn snapshot_enospc_during_auto_checkpoint_degrades_but_keeps_serving() {
    let dir = test_dir("enospc-degrade");
    let config = ServerConfig {
        capture_workers: 1,
        checkpoint_every: Some(2),
        ..ServerConfig::default()
    };
    let injector = FaultInjector::new(17);
    let server = PbdsServer::create_with_io(
        &dir,
        Arc::new(base_db()),
        config,
        Arc::new(FaultIo::new(Arc::clone(&injector))),
    )
    .unwrap();
    injector.inject(FaultSpec {
        kind: FaultKind::Enospc,
        class: FileClass::Snapshot,
        skip: 0,
    });

    // Both mutations ack: a checkpoint failure is repair's problem, never
    // the batch's.
    server.apply_mutation("r", append(1_000)).unwrap();
    server.apply_mutation("r", append(1_001)).unwrap();

    // The failure was observed and the snapshot file is still whole. By now
    // a repair attempt may already have replaced it with a repaired one, so
    // the file reads back either as the old snapshot or as a complete
    // repaired one covering both mutations — never as a damaged one.
    let deadline = Instant::now() + Duration::from_secs(5);
    let failures = || counter(&server, "pbds_robustness_checkpoint_failures");
    while failures() == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(failures() >= 1, "{:?}", server.recent_events());
    let (snap, seq) = read_snapshot(&dir.join(SNAPSHOT_FILE)).unwrap();
    let rows = snap.table("r").unwrap().len();
    assert!(
        (rows == 64 && seq == 0) || (rows >= 66 && seq >= 2),
        "snapshot damaged: {rows} rows at seq {seq}"
    );

    // Writes keep flowing while degraded, and the repair campaign lands a
    // snapshot that finally covers the mutations.
    server.apply_mutation("r", append(1_002)).unwrap();
    assert!(
        await_health(&server, HealthState::Healthy),
        "repair never recovered the checkpoint: {:?}",
        server.recent_events()
    );
    let (new_snap, new_seq) = read_snapshot(&dir.join(SNAPSHOT_FILE)).unwrap();
    assert!(new_seq >= 2, "repaired snapshot covers the acked mutations");
    assert!(new_snap.table("r").unwrap().len() >= 66);
}

/// A catalog file corrupted *on disk* is quarantined at open: the server
/// comes up cold (answers intact, sketches gone), preserves the damaged
/// file for inspection, and the next restart treats the missing catalog as
/// a plain cold start.
#[test]
fn corrupted_catalog_on_disk_is_quarantined_and_the_server_comes_up_cold() {
    let dir = test_dir("catalog-quarantine");
    let config = ServerConfig {
        capture_workers: 1,
        ..ServerConfig::default()
    };
    let template = having_template();
    {
        let server = PbdsServer::create(&dir, Arc::new(base_db()), config).unwrap();
        server.session().serve(&template, &[Value::Int(0)]).unwrap();
        server.drain();
        assert_eq!(server.catalog().stored_sketches(), 1);
        server.shutdown().unwrap();
    }
    // Bit rot in the middle of the catalog file.
    let path = dir.join(CATALOG_FILE);
    let mut bytes = fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x20;
    fs::write(&path, &bytes).unwrap();

    let server = PbdsServer::open(&dir, config).unwrap();
    let report = server.recovery_report().unwrap();
    assert!(report.catalog_quarantined, "{report:?}");
    assert_eq!(report.catalog_imported, 0, "{report:?}");
    assert_eq!(server.catalog().stored_sketches(), 0);
    assert_eq!(counter(&server, "pbds_robustness_catalogs_quarantined"), 1);
    assert!(!server.recent_events().is_empty());
    assert!(!path.exists(), "the damaged catalog must be renamed aside");
    let quarantined = dir.join("catalog.pbds.quarantined");
    assert_eq!(fs::read(&quarantined).unwrap(), bytes, "preserved verbatim");

    // Cold but correct: serving recaptures instead of failing.
    let served = server.session().serve(&template, &[Value::Int(0)]).unwrap();
    assert_eq!(served.relation.len(), 6, "one group per grp value");
    server.drain();
    assert_eq!(server.catalog().stored_sketches(), 1);
    drop(server);

    // The next restart sees no catalog file: cold start, not damage.
    let server = PbdsServer::open(&dir, config).unwrap();
    let report = server.recovery_report().unwrap();
    assert!(!report.catalog_quarantined, "{report:?}");
    assert_eq!(server.health(), HealthState::Healthy);
}

/// A restart must not forfeit the catalog, and neither must a fault cycle on
/// top of it: on a Zipf SOF stream the reopened server hits from query one,
/// pays no capture and scans fewer rows over the early stream than the cold
/// start did; after an fsyncgate WAL failure plus an ENOSPC'd repair
/// checkpoint the healed server still hits from query one, and so does the
/// clean reopen after its crash.
#[test]
fn a_restart_and_a_fault_cycle_both_keep_the_catalog_warm() {
    use pbds_core::Action;
    use pbds_workloads::{sof, sof_pools, zipf_stream, StreamSpec};

    /// Queries over which the early-stream scan volume is compared.
    const EARLY_WINDOW: usize = 30;

    /// Serve the stream in order, draining after every enqueued capture so
    /// hit/miss behaviour is deterministic: `(first hit, rows scanned over
    /// the early window, captures paid)`.
    fn serve_phase(
        server: &PbdsServer,
        stream: &[(QueryTemplate, Vec<Value>)],
    ) -> (Option<usize>, u64, u64) {
        let session = server.session();
        let mut first_hit = None;
        let mut early_rows = 0;
        for (i, (template, binding)) in stream.iter().enumerate() {
            let served = session.serve(template, binding).unwrap();
            if served.capture_enqueued {
                server.drain();
            }
            if i < EARLY_WINDOW {
                early_rows += served.record.stats.rows_scanned;
            }
            if first_hit.is_none() && served.record.action == Action::UseSketch {
                first_hit = Some(i);
            }
        }
        (first_hit, early_rows, counter(server, "pbds_captures_done"))
    }

    // `(postid, owneruserid, favorites, score)`.
    let post = |postid: i64| {
        Mutation::Append(vec![vec![
            Value::Int(postid),
            Value::Int(1),
            Value::Int(0),
            Value::Int(0),
        ]])
    };

    let dir = test_dir("warm-through-faults");
    let config = ServerConfig {
        capture_workers: 2,
        ..ServerConfig::default()
    };
    let db = Arc::new(sof::generate(&sof::SofConfig {
        users: 1_500,
        posts: 9_000,
        comments: 12_000,
        badges: 4_500,
        ..Default::default()
    }));
    let stream = zipf_stream(
        &sof_pools(16, 29),
        &StreamSpec {
            queries: 60,
            skew: 1.1,
            seed: 13,
        },
    );

    // Cold: empty catalog, every new binding pays a capture.
    let server = PbdsServer::create(&dir, db, config).unwrap();
    let (_, cold_rows, cold_captures) = serve_phase(&server, &stream);
    assert!(cold_captures > 0, "the cold run must pay capture");
    server.shutdown().unwrap();

    // Warm, behind a fault injector with nothing armed yet.
    let injector = FaultInjector::new(0xD811);
    let server =
        PbdsServer::open_with_io(&dir, config, Arc::new(FaultIo::new(Arc::clone(&injector))))
            .unwrap();
    let report = server.recovery_report().unwrap();
    assert_eq!(report.catalog_dropped, 0, "{report:?}");
    let (warm_first, warm_rows, warm_captures) = serve_phase(&server, &stream);
    assert_eq!(warm_first, Some(0), "warm start must hit from query one");
    assert_eq!(warm_captures, 0, "warm start must not pay capture again");
    assert!(
        warm_rows < cold_rows,
        "warm start scanned {warm_rows} rows over the first {EARLY_WINDOW} \
         queries, cold start {cold_rows}"
    );

    // The fault cycle: the first write's WAL fsync fails and it is refused;
    // the first repair checkpoint then eats an ENOSPC before a retry lands.
    injector.inject(FaultSpec {
        kind: FaultKind::FsyncFail,
        class: FileClass::Wal,
        skip: 0,
    });
    injector.inject(FaultSpec {
        kind: FaultKind::Enospc,
        class: FileClass::Snapshot,
        skip: 0,
    });
    server
        .apply_mutation("posts", post(9_000_000))
        .expect_err("a write whose WAL fsync failed must be refused");
    assert!(
        await_health(&server, HealthState::Healthy),
        "never repaired: {:?}",
        server.recent_events()
    );
    assert_eq!(counter(&server, "pbds_robustness_wal_append_failures"), 1);
    assert!(counter(&server, "pbds_robustness_repairs_succeeded") >= 1);
    assert_eq!(injector.armed_remaining(), 0, "both faults must have fired");
    server.apply_mutation("posts", post(9_000_001)).unwrap();
    let (healed_first, _, _) = serve_phase(&server, &stream);
    assert_eq!(healed_first, Some(0), "the healed server must still hit");
    drop(server); // crash: the repair checkpoint and the WAL carry the state

    let server = PbdsServer::open(&dir, config).unwrap();
    let report = server.recovery_report().unwrap();
    assert_eq!(report.catalog_dropped, 0, "{report:?}");
    let (reopened_first, _, reopened_captures) = serve_phase(&server, &stream);
    assert_eq!(reopened_first, Some(0), "a fault cycle cost the warm start");
    assert_eq!(reopened_captures, 0, "the reopen paid capture again");
}
