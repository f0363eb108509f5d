//! Fault-injection demo: the durability stack behind a seeded fault
//! injector. A failed WAL fsync (fsyncgate semantics: retrying the same
//! descriptor lies) refuses the write and flips the server read-only; the
//! commit thread repairs on a fresh descriptor and writes resume. A corrupted
//! on-disk catalog is quarantined at the next open and the server comes up
//! cold — degraded, never wrong.
//!
//! Run with: `cargo run --release --example fault_drill`

use pbds_core::persist::{FaultInjector, FaultIo, FaultKind, FaultSpec, FileClass, CATALOG_FILE};
use pbds_core::storage::{Database, Value};
use pbds_core::{Action, HealthState, Mutation, PbdsServer, ServerConfig};
use pbds_workloads::{sof, sof_pools, zipf_stream, StreamSpec};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn post(postid: i64) -> Mutation {
    Mutation::Append(vec![vec![
        Value::Int(postid),
        Value::Int(7),
        Value::Int(3),
        Value::Int(50),
    ]])
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("target/fault_drill_demo");
    let _ = std::fs::remove_dir_all(&dir);

    let db: Arc<Database> = Arc::new(sof::generate(&sof::SofConfig {
        users: 1_000,
        posts: 6_000,
        comments: 8_000,
        badges: 3_000,
        ..Default::default()
    }));
    let stream = zipf_stream(
        &sof_pools(8, 5),
        &StreamSpec {
            queries: 30,
            skew: 1.1,
            seed: 3,
        },
    );
    let config = ServerConfig {
        capture_workers: 2,
        ..ServerConfig::default()
    };

    // --- Phase 1: a write hits a failed fsync; the commit thread heals ----
    let injector = FaultInjector::new(42);
    let server = PbdsServer::create_with_io(
        &dir,
        Arc::clone(&db),
        config,
        Arc::new(FaultIo::new(Arc::clone(&injector))),
    )?;
    server.serve_stream(&stream, 2)?;
    server.drain();
    println!(
        "serve: {} sketches captured, health {:?}",
        server.catalog().stored_sketches(),
        server.health()
    );

    injector.inject(FaultSpec {
        kind: FaultKind::FsyncFail,
        class: FileClass::Wal,
        skip: 0,
    });
    let refused = server.apply_mutation("posts", post(900_000));
    println!(
        "fault: WAL fsync failed -> write refused ({}), health {:?}",
        refused.expect_err("an un-durable write must not be acked"),
        server.health()
    );

    let start = Instant::now();
    while server.health() != HealthState::Healthy && start.elapsed() < Duration::from_secs(5) {
        std::thread::sleep(Duration::from_millis(1));
    }
    let snap = server.metrics_snapshot();
    let counter = |name: &str| snap.counter(name).expect(name);
    assert_eq!(
        server.health(),
        HealthState::Healthy,
        "the commit thread did not heal"
    );
    println!(
        "heal : commit thread repaired in {:?} ({} attempt(s), {} succeeded) -> health {:?}",
        start.elapsed(),
        counter("pbds_robustness_repair_attempts"),
        counter("pbds_robustness_repairs_succeeded"),
        server.health()
    );
    server.apply_mutation("posts", post(900_001))?;
    println!("write: post-repair append acked and durable");
    server.shutdown()?;

    // --- Phase 2: a corrupted catalog is quarantined, not trusted ---------
    let path = dir.join(CATALOG_FILE);
    let mut bytes = std::fs::read(&path)?;
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&path, bytes)?;

    let server = PbdsServer::open(&dir, config)?;
    let recovery = server.recovery_report().expect("opened from disk");
    assert!(recovery.catalog_quarantined);
    println!(
        "open : corrupt catalog quarantined ({} entries imported), server is up cold",
        recovery.catalog_imported
    );

    // Cold but correct: the stream still serves, and capture re-warms it.
    let served = server.serve_stream(&stream, 2)?;
    server.drain();
    let hits = served
        .iter()
        .filter(|s| s.record.action == Action::UseSketch)
        .count();
    println!(
        "serve: {} queries, {} catalog hits, {} sketches re-captured — degraded, never wrong",
        served.len(),
        hits,
        server.catalog().stored_sketches()
    );
    Ok(())
}
