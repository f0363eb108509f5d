//! Fault-injection torture for the durability stack.
//!
//! A deterministic grid of **288 seeded fault schedules** (write faults:
//! 3 kinds × 3 file classes × 4 skip offsets × 6 seeds = 216; read
//! corruption: 3 file classes × 24 seeds = 72 — the floor asserted by
//! [`the_schedule_grid_meets_the_coverage_floor`] is 200) drives a durable
//! `PbdsServer` through a serve / mutate / checkpoint / crash / reopen cycle
//! with exactly one fault armed, and proves three invariants:
//!
//! 1. **Acked ⇒ durable.** Every mutation whose ticket resolved `Ok` is
//!    present after crash + reopen — a failed fsync never yields a silently
//!    acked-but-lost write.
//! 2. **Unacked ⇒ atomic.** A mutation whose ticket errored is either fully
//!    present or fully absent: the recovered state equals the shadow state
//!    for *some* subset of the errored mutations applied in submission
//!    order — never a torn half-mutation, never a reordering.
//! 3. **Replay is idempotent.** Reopening the same directory twice recovers
//!    byte-identical rows and the same replay count.
//!
//! Read corruption additionally proves fail-safe opening: a flipped bit in
//! the snapshot fails the open; in the WAL it either fails the open (a
//! complete frame with a bad checksum) or lands on a whole-record prefix (a
//! torn-shaped flip, indistinguishable from a crash) — never a garbled
//! state; in the catalog it is quarantined (renamed aside) and the server
//! comes up cold with full answers. And since a corrupt *read* never damages
//! the disk, a clean reopen recovers everything the damaged open detected.

use pbds_algebra::{col, lit, param, AggExpr, AggFunc, LogicalPlan, QueryTemplate};
use pbds_core::{HealthState, Mutation, PbdsServer, ServerConfig};
use pbds_persist::{
    FaultInjector, FaultIo, FaultKind, FaultSpec, FileClass, CATALOG_FILE, SNAPSHOT_FILE, WAL_FILE,
};
use pbds_storage::{DataType, Database, Row, Schema, TableBuilder, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// The schedule grid
// ---------------------------------------------------------------------------

const WRITE_KINDS: [FaultKind; 3] = [
    FaultKind::FsyncFail,
    FaultKind::ShortWrite,
    FaultKind::Enospc,
];
const CLASSES: [FileClass; 3] = [FileClass::Wal, FileClass::Snapshot, FileClass::Catalog];
const SKIPS: [u64; 4] = [0, 1, 2, 3];
const WRITE_SEEDS: u64 = 6;
const READ_SEEDS: u64 = 24;
const MUTATIONS_PER_SCHEDULE: usize = 8;

#[test]
fn the_schedule_grid_meets_the_coverage_floor() {
    let write = WRITE_KINDS.len() * CLASSES.len() * SKIPS.len() * WRITE_SEEDS as usize;
    let read = CLASSES.len() * READ_SEEDS as usize;
    assert!(
        write + read >= 200,
        "torture grid shrank below the 200-schedule floor: {} write + {} read",
        write,
        read
    );
}

// ---------------------------------------------------------------------------
// Fixtures
// ---------------------------------------------------------------------------

/// Fresh scratch directory under `target/tmp` (never outside the repo).
fn test_dir(name: &str) -> PathBuf {
    static UNIQUE: AtomicU64 = AtomicU64::new(0);
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("fault_torture")
        .join(format!("{name}-{}", UNIQUE.fetch_add(1, Ordering::Relaxed)));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create test dir");
    dir
}

/// `r(k INT, grp INT, v INT)`, indexed on `k`, small blocks.
fn base_db() -> Database {
    let mut rng = StdRng::seed_from_u64(0xBA5E);
    let schema = Schema::from_pairs(&[
        ("k", DataType::Int),
        ("grp", DataType::Int),
        ("v", DataType::Int),
    ]);
    let mut b = TableBuilder::new("r", schema);
    b.block_size(16).index("k");
    for k in 0..48i64 {
        b.push(vec![
            Value::Int(k),
            Value::Int(k % 6),
            Value::Int(rng.gen_range(1..200i64)),
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

fn torture_config() -> ServerConfig {
    ServerConfig {
        capture_workers: 1,
        checkpoint_every: Some(3),
        ..ServerConfig::default()
    }
}

/// Deterministic mutation sequence for one schedule: mostly small appends,
/// some deletes (which may match nothing — a no-op that writes no WAL
/// record). Rows are baked in, so the live server and every shadow replayer
/// apply byte-identical mutations.
fn mutation_plan(seed: u64) -> Vec<Mutation> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x00AD_5EED);
    let mut next_k = 48i64;
    (0..MUTATIONS_PER_SCHEDULE)
        .map(|_| {
            if rng.gen_range(0..4u32) == 0 {
                let lo = rng.gen_range(1..180i64);
                Mutation::DeleteWhere(col("v").between(lit(lo), lit(lo + 25)))
            } else {
                let n = rng.gen_range(1..4usize);
                let rows: Vec<Row> = (0..n)
                    .map(|_| {
                        let k = next_k;
                        next_k += 1;
                        vec![
                            Value::Int(k),
                            Value::Int(rng.gen_range(0..6i64)),
                            Value::Int(rng.gen_range(1..200i64)),
                        ]
                    })
                    .collect();
                Mutation::Append(rows)
            }
        })
        .collect()
}

fn table_rows(server: &PbdsServer) -> Vec<Row> {
    server.db().table("r").unwrap().rows().to_vec()
}

/// The state after applying `mutations[i]` for every `include[i]`, in
/// submission order, to the base database — computed by an independent
/// in-memory server, so batch application on the live path is checked
/// against record-at-a-time application here.
fn shadow_rows(mutations: &[Mutation], include: &[bool]) -> Vec<Row> {
    let config = ServerConfig {
        capture_workers: 1,
        ..ServerConfig::default()
    };
    let shadow = PbdsServer::new(Arc::new(base_db()), config);
    for (m, inc) in mutations.iter().zip(include) {
        if *inc {
            shadow.apply_mutation("r", m.clone()).unwrap();
        }
    }
    table_rows(&shadow)
}

/// Wait (bounded) for the commit thread to repair a degraded server, so most
/// schedules continue writing after the fault; schedules whose fault fires
/// late still crash mid-repair, covering that window too.
fn await_settled(server: &PbdsServer) {
    let deadline = Instant::now() + Duration::from_secs(2);
    while server.health() > HealthState::Healthy && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
}

// ---------------------------------------------------------------------------
// Write-fault schedules
// ---------------------------------------------------------------------------

fn run_write_schedule(kind: FaultKind, class: FileClass, skip: u64, seed: u64) {
    let dir = test_dir("write");
    let config = torture_config();
    let injector = FaultInjector::new(seed);
    let io = Arc::new(FaultIo::new(Arc::clone(&injector)));
    let mutations = mutation_plan(seed);
    let ctx = format!("{kind:?} on {class:?}, skip {skip}, seed {seed}");

    let acked: Vec<bool> = {
        let server = PbdsServer::create_with_io(&dir, Arc::new(base_db()), config, io).unwrap();
        let session = server.session();
        session
            .serve(&having_template(), &[Value::Int(600)])
            .unwrap();
        server.drain();
        // Arm only now: the schedule targets the serving phase, not create.
        injector.inject(FaultSpec { kind, class, skip });
        let mut acked = Vec::new();
        for (i, m) in mutations.iter().enumerate() {
            let r = server.apply_mutation("r", m.clone());
            if r.is_err() {
                await_settled(&server);
            }
            acked.push(r.is_ok());
            if i == 3 {
                // May fail (the fault may target it); callers are told.
                let _ = server.checkpoint();
            }
        }
        acked
        // crash: drop without shutdown, no final checkpoint
    };

    // Invariants 1 + 2: the recovered state must contain every acked
    // mutation and an all-or-nothing subset of the errored ones, in order.
    let reopened = PbdsServer::open(&dir, config)
        .unwrap_or_else(|e| panic!("{ctx}: reopen after crash failed: {e}"));
    let rows = table_rows(&reopened);
    let replayed = reopened.recovery_report().unwrap().wal_replayed;
    drop(reopened);

    let errored: Vec<usize> = acked
        .iter()
        .enumerate()
        .filter(|(_, ok)| !**ok)
        .map(|(i, _)| i)
        .collect();
    assert!(
        errored.len() <= 6,
        "{ctx}: implausibly many errored mutations: {errored:?}"
    );
    let matched = (0u32..1 << errored.len()).any(|mask| {
        let mut include = acked.clone();
        for (bit, &ix) in errored.iter().enumerate() {
            if mask & (1 << bit) != 0 {
                include[ix] = true;
            }
        }
        shadow_rows(&mutations, &include) == rows
    });
    assert!(
        matched,
        "{ctx}: recovered state matches no acked-plus-subset-of-errored shadow \
         (acked {acked:?}, fired {:?})",
        injector.fired()
    );

    // Invariant 3: replay is idempotent.
    let again = PbdsServer::open(&dir, config)
        .unwrap_or_else(|e| panic!("{ctx}: second reopen failed: {e}"));
    assert_eq!(table_rows(&again), rows, "{ctx}: second replay diverged");
    assert_eq!(
        again.recovery_report().unwrap().wal_replayed,
        replayed,
        "{ctx}: replay count changed between reopens"
    );
}

fn drive_write_kind(kind_ix: usize) {
    let kind = WRITE_KINDS[kind_ix];
    for (class_ix, class) in CLASSES.iter().enumerate() {
        for &skip in &SKIPS {
            for s in 0..WRITE_SEEDS {
                let raw = ((kind_ix as u64) << 24) | ((class_ix as u64) << 16) | (skip << 8) | s;
                run_write_schedule(kind, *class, skip, raw.wrapping_mul(0x9E37) + 17);
            }
        }
    }
}

#[test]
fn torture_failed_fsyncs_never_lose_acked_mutations() {
    drive_write_kind(0);
}

#[test]
fn torture_short_writes_never_tear_a_mutation() {
    drive_write_kind(1);
}

#[test]
fn torture_enospc_fails_cleanly_and_recovers() {
    drive_write_kind(2);
}

// ---------------------------------------------------------------------------
// Read-corruption schedules
// ---------------------------------------------------------------------------

struct ReadFixture {
    dir: PathBuf,
    /// `prefix_rows[i]`: rows after the first `i` mutations.
    prefix_rows: Vec<Vec<Row>>,
    config: ServerConfig,
}

/// One durable directory crashed with a snapshot covering the first four
/// mutations, a non-empty persisted catalog, and the last four mutations
/// only in the WAL — so each file class has real content to corrupt.
fn build_read_fixture() -> ReadFixture {
    let dir = test_dir("read-fixture");
    let config = ServerConfig {
        capture_workers: 1,
        checkpoint_every: None,
        ..ServerConfig::default()
    };
    let mutations = mutation_plan(0xF1C5);
    let server = PbdsServer::create(&dir, Arc::new(base_db()), config).unwrap();
    let mut prefix_rows = vec![table_rows(&server)];
    for (i, m) in mutations.iter().enumerate() {
        server.apply_mutation("r", m.clone()).unwrap();
        prefix_rows.push(table_rows(&server));
        if i == 3 {
            let session = server.session();
            session
                .serve(&having_template(), &[Value::Int(600)])
                .unwrap();
            server.drain();
            server.checkpoint().unwrap();
        }
    }
    drop(server); // crash: the tail mutations live only in the WAL
    ReadFixture {
        dir,
        prefix_rows,
        config,
    }
}

fn run_read_schedule(class: FileClass, seed: u64, fixture: &ReadFixture) {
    let dir = test_dir("read");
    for f in [SNAPSHOT_FILE, CATALOG_FILE, WAL_FILE] {
        fs::copy(fixture.dir.join(f), dir.join(f)).unwrap();
    }
    let config = fixture.config;
    let full = fixture.prefix_rows.last().unwrap();
    let ctx = format!("ReadCorrupt on {class:?}, seed {seed}");

    let injector = FaultInjector::new(seed);
    injector.inject(FaultSpec {
        kind: FaultKind::ReadCorrupt,
        class,
        skip: 0,
    });
    let io = Arc::new(FaultIo::new(Arc::clone(&injector)));
    let result = PbdsServer::open_with_io(&dir, config, io);
    assert_eq!(
        injector.armed_remaining(),
        0,
        "{ctx}: the open never read the target file"
    );

    // What the damaged open was allowed to do, per file class.
    let mut damaged_rows: Option<Vec<Row>> = None;
    match class {
        FileClass::Snapshot => {
            assert!(
                result.is_err(),
                "{ctx}: a corrupt snapshot read must fail the open, not serve wrong answers"
            );
        }
        FileClass::Catalog => {
            let server = result.unwrap_or_else(|e| {
                panic!("{ctx}: catalog corruption must quarantine, not abort the open: {e}")
            });
            let report = server.recovery_report().unwrap();
            assert!(report.catalog_quarantined, "{ctx}: {report:?}");
            assert_eq!(report.catalog_imported, 0, "{ctx}: {report:?}");
            assert_eq!(server.catalog().stored_sketches(), 0, "{ctx}");
            assert_eq!(
                &table_rows(&server),
                full,
                "{ctx}: quarantine changed answers"
            );
            drop(server);
            assert!(
                dir.join("catalog.pbds.quarantined").exists(),
                "{ctx}: quarantined catalog not preserved for inspection"
            );
            assert!(!dir.join(CATALOG_FILE).exists(), "{ctx}");
        }
        FileClass::Wal => match result {
            // A complete frame with a failing checksum: detected, fail-safe.
            Err(_) => {}
            // A torn-shaped flip (a length prefix running past EOF) is
            // indistinguishable from a crash; recovery may truncate, but
            // only ever onto a whole-record prefix state.
            Ok(server) => {
                let rows = table_rows(&server);
                assert!(
                    fixture.prefix_rows.contains(&rows),
                    "{ctx}: recovered a state no whole-record prefix produces"
                );
                damaged_rows = Some(rows);
            }
        },
        FileClass::Other => unreachable!(),
    }

    // A corrupt read never damages the disk: the clean reopen must succeed
    // and lose nothing the damaged open did not *legitimately* truncate.
    let clean = PbdsServer::open(&dir, config)
        .unwrap_or_else(|e| panic!("{ctx}: clean reopen failed: {e}"));
    let clean_rows = table_rows(&clean);
    match class {
        FileClass::Wal => match &damaged_rows {
            // The damaged open truncated a torn-shaped tail on disk; that
            // truncation must at least be stable (idempotent replay).
            Some(rows) => assert_eq!(&clean_rows, rows, "{ctx}: post-truncation replay diverged"),
            // Detected corruption must have left the file untouched.
            None => assert_eq!(
                &clean_rows, full,
                "{ctx}: a detected corrupt read still modified the WAL"
            ),
        },
        FileClass::Catalog => {
            assert_eq!(&clean_rows, full, "{ctx}: clean reopen lost acked state");
            let report = clean.recovery_report().unwrap();
            assert!(
                !report.catalog_quarantined,
                "{ctx}: a missing (already-quarantined) catalog is a cold start, not damage"
            );
            assert_eq!(report.catalog_imported, 0, "{ctx}: {report:?}");
        }
        _ => assert_eq!(&clean_rows, full, "{ctx}: clean reopen lost acked state"),
    }
}

#[test]
fn torture_read_corruption_fails_safe_and_never_damages_the_disk() {
    let fixture = build_read_fixture();
    for (class_ix, class) in CLASSES.iter().enumerate() {
        for s in 0..READ_SEEDS {
            let seed = ((class_ix as u64) << 32) | 0x00C0_0000 | (s.wrapping_mul(7) + 1);
            run_read_schedule(*class, seed, &fixture);
        }
    }
}
