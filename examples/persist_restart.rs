//! Durability demo: serve a Zipf stream, shut the server down gracefully
//! (drain captures, checkpoint catalog + snapshot, truncate the WAL), then
//! reopen the same directory — the sketch catalog is warm from query one,
//! so the restarted server never re-pays capture cost for its workload.
//!
//! Run with: `cargo run --release --example persist_restart`

use pbds_core::storage::{Database, Value};
use pbds_core::{Action, Mutation, PbdsServer, ServerConfig};
use pbds_workloads::{sof, sof_pools, zipf_stream, StreamSpec};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// `(completed background captures, their summed wall-clock)`, read from the
/// `pbds_captures_done` counter and the `pbds_capture_seconds` histogram.
fn capture_cost(server: &PbdsServer) -> (u64, Duration) {
    let snap = server.metrics_snapshot();
    let done = snap
        .counter("pbds_captures_done")
        .expect("pbds_captures_done");
    let seconds = snap
        .histogram("pbds_capture_seconds")
        .expect("pbds_capture_seconds");
    (done, Duration::from_nanos(seconds.sum()))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("target/persist_restart_demo");
    let _ = std::fs::remove_dir_all(&dir);

    let db: Arc<Database> = Arc::new(sof::generate(&sof::SofConfig {
        users: 2_000,
        posts: 12_000,
        comments: 16_000,
        badges: 6_000,
        ..Default::default()
    }));
    let stream = zipf_stream(
        &sof_pools(10, 7),
        &StreamSpec {
            queries: 60,
            skew: 1.1,
            seed: 21,
        },
    );
    let config = ServerConfig {
        capture_workers: 2,
        ..ServerConfig::default()
    };

    // --- Phase 1: cold start over a fresh durability directory -------------
    let server = PbdsServer::create(&dir, Arc::clone(&db), config)?;
    let start = Instant::now();
    let served = server.serve_stream(&stream, 2)?;
    server.drain();
    let cold_hits = served
        .iter()
        .filter(|s| s.record.action == Action::UseSketch)
        .count();
    let (cold_captures, capture_time) = capture_cost(&server);
    println!(
        "cold : {} queries in {:>7.1?} | catalog hits {:>2}/{} | captures {} ({:.1?})",
        served.len(),
        start.elapsed(),
        cold_hits,
        served.len(),
        cold_captures,
        capture_time,
    );

    // A couple of mutations land in the WAL before shutdown, to show the
    // whole durable state (snapshot + catalog + log) survives the bounce.
    server.apply_mutation(
        "posts",
        Mutation::Append(vec![vec![
            Value::Int(999_999),
            Value::Int(7),
            Value::Int(3),
            Value::Int(50),
        ]]),
    )?;
    println!("     : applied 1 append; graceful shutdown (drain, checkpoint, truncate WAL)");
    server.shutdown()?;

    // --- Phase 2: reopen from disk — warm from query one -------------------
    let start = Instant::now();
    let server = PbdsServer::open(&dir, config)?;
    let recovery = server.recovery_report().expect("opened from disk");
    println!(
        "open : recovered in {:>7.1?} | {} catalog entries imported ({} dropped), {} WAL records replayed",
        start.elapsed(),
        recovery.catalog_imported,
        recovery.catalog_dropped,
        recovery.wal_replayed,
    );

    let start = Instant::now();
    let served = server.serve_stream(&stream, 2)?;
    server.drain();
    let warm_hits = served
        .iter()
        .filter(|s| s.record.action == Action::UseSketch)
        .count();
    let first = &served[0];
    let (warm_captures, _) = capture_cost(&server);
    println!(
        "warm : {} queries in {:>7.1?} | catalog hits {:>2}/{} | captures {} | first query: {:?}",
        served.len(),
        start.elapsed(),
        warm_hits,
        served.len(),
        warm_captures,
        first.record.action,
    );
    assert!(
        warm_hits >= cold_hits,
        "the persisted catalog should hit at least as often as the cold run"
    );
    assert_eq!(warm_captures, 0, "warm start must not re-pay capture");
    println!(
        "     : restart kept the tuning — {} hits vs {} cold, zero recapture",
        warm_hits, cold_hits
    );
    Ok(())
}
