//! Group-commit demo: fire a burst of concurrent mutations at a durable
//! server and watch the write path batch them — one WAL append + fsync, one
//! copy-on-write fork and one snapshot swap per *batch* instead of per
//! mutation — then crash (no shutdown) and reopen to show the batched WAL
//! replays every acknowledged write.
//!
//! Run with: `cargo run --release --example write_burst`

use pbds_core::storage::{DataType, Database, Row, Schema, TableBuilder, Value};
use pbds_core::{Mutation, MutationTicket, PbdsServer, ServerConfig};
use std::sync::Arc;
use std::time::Instant;

const WRITERS: usize = 8;
const MUTATIONS_PER_WRITER: usize = 100;

fn events_db() -> Database {
    let schema = Schema::from_pairs(&[("grp", DataType::Int), ("v", DataType::Int)]);
    let mut b = TableBuilder::new("events", schema);
    for g in 0..20i64 {
        b.push(vec![Value::Int(g), Value::Int(1)]);
    }
    let mut db = Database::new();
    db.add_table(b.build());
    db
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("target/write_burst_demo");
    let _ = std::fs::remove_dir_all(&dir);
    let config = ServerConfig {
        checkpoint_every: None, // keep the whole burst in the WAL for replay
        ..ServerConfig::default()
    };
    let server = Arc::new(PbdsServer::create(&dir, Arc::new(events_db()), config)?);

    // --- Concurrent writers: every apply_mutation rides a commit batch -----
    let start = Instant::now();
    std::thread::scope(|s| {
        for w in 0..WRITERS as i64 {
            let server = Arc::clone(&server);
            s.spawn(move || {
                for i in 0..MUTATIONS_PER_WRITER as i64 {
                    let rows: Vec<Row> = (0..4)
                        .map(|_| vec![Value::Int((w * 31 + i) % 20), Value::Int(1)])
                        .collect();
                    server
                        .apply_mutation("events", Mutation::Append(rows))
                        .expect("append");
                }
            });
        }
    });
    let concurrent = start.elapsed();
    let snap = server.metrics_snapshot();
    let counter = |name: &str| snap.counter(name).expect(name);
    let total = (WRITERS * MUTATIONS_PER_WRITER) as u64;
    println!(
        "burst: {total} mutations from {WRITERS} writers in {concurrent:>7.1?} \
         ({:.0} mutations/s)",
        total as f64 / concurrent.as_secs_f64()
    );
    println!(
        "     : {} commit batches, {} fsyncs (vs {total} unbatched), max batch {}",
        counter("pbds_commit_batches"),
        counter("pbds_wal_fsyncs"),
        snap.gauge("pbds_commit_max_batch")
            .expect("pbds_commit_max_batch")
    );
    println!(
        "     : catalog maintenance ran {} coalesced deltas for those {total} mutations",
        counter("pbds_catalog_maintenance_deltas")
    );

    // --- Pipelined submission: submit first, wait later --------------------
    let start = Instant::now();
    let tickets: Vec<MutationTicket> = (0..200i64)
        .map(|i| {
            server.submit_mutation(
                "events",
                Mutation::Append(vec![vec![Value::Int(i % 20), Value::Int(1)]]),
            )
        })
        .collect();
    let outcomes: Vec<_> = tickets
        .into_iter()
        .map(|t| t.wait().expect("commit"))
        .collect();
    let pipelined = start.elapsed();
    let widest = outcomes.iter().map(|o| o.batch_len).max().unwrap_or(0);
    println!(
        "queue: 200 pipelined submissions acknowledged in {pipelined:>7.1?}; \
         widest batch carried {widest} mutations, last wal_seq {:?}",
        outcomes.last().and_then(|o| o.wal_seq)
    );

    // --- Crash and replay ---------------------------------------------------
    let acked = server.db().table("events")?.len();
    drop(server); // no shutdown, no checkpoint: recovery must use the WAL
    let start = Instant::now();
    let reopened = PbdsServer::open(&dir, config)?;
    let report = reopened.recovery_report().expect("opened from disk");
    let recovered = reopened.db().table("events")?.len();
    println!(
        "crash: reopened in {:>7.1?}; replayed {} batched WAL records -> {recovered} rows",
        start.elapsed(),
        report.wal_replayed,
    );
    assert_eq!(recovered, acked, "every acknowledged mutation must survive");
    println!("     : recovered state matches every acknowledged write");
    Ok(())
}
