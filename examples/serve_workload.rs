//! Serving a Zipf query stream through the concurrent sketch-serving
//! middleware: a `PbdsServer` shares one `SketchCatalog` across session
//! threads, captures sketches off the critical path on misses, and reuses
//! them for the popular parameter values that dominate the stream.
//!
//! Run with: `cargo run --release --example serve_workload`

use pbds_core::storage::Database;
use pbds_core::telemetry::clock;
use pbds_core::{Action, MetricsSnapshot, PbdsServer, ServerConfig, Strategy};
use pbds_workloads::{sof, sof_pools, zipf_stream, StreamSpec};
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A small Stack-Overflow-like database and a skewed stream of HAVING
    // query instances (popular parameter values repeat Zipf-style).
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
            queries: 80,
            skew: 1.1,
            seed: 21,
        },
    );

    let mut exposition: Option<MetricsSnapshot> = None;
    for (label, strategy) in [
        ("No-PS ", Strategy::NoPbds),
        (
            "eager ",
            Strategy::Eager {
                selectivity_threshold: 0.75,
            },
        ),
    ] {
        let server = PbdsServer::new(
            Arc::clone(&db),
            ServerConfig {
                strategy,
                fragments: 400,
                ..ServerConfig::default()
            },
        );
        let start = clock::Stopwatch::start();
        let served = server.serve_stream(&stream, 4)?;
        let elapsed = start.elapsed();
        server.drain(); // let background captures finish before reading stats

        let hits = served
            .iter()
            .filter(|s| s.record.action == Action::UseSketch)
            .count();
        let rows: u64 = served.iter().map(|s| s.record.stats.rows_scanned).sum();
        let snap = server.metrics_snapshot();
        let counter = |name: &str| snap.counter(name).expect(name);
        let capture_time = std::time::Duration::from_nanos(
            snap.histogram("pbds_capture_seconds")
                .expect("pbds_capture_seconds")
                .sum(),
        );
        println!(
            "{label} {:>4} queries in {elapsed:>8.1?} ({:>5.0} q/s) | \
             rows scanned {rows:>8} | hits {hits:>3} | \
             background captures {} ({capture_time:.1?}) | catalog hits {} misses {} evictions {}",
            served.len(),
            served.len() as f64 / elapsed.as_secs_f64(),
            counter("pbds_captures_done"),
            counter("pbds_catalog_hits"),
            counter("pbds_catalog_misses"),
            counter("pbds_catalog_evictions"),
        );
        exposition = Some(snap);
    }

    // The numbers above come from the metrics snapshot; the same snapshot
    // (plus latency histograms and health) renders as Prometheus-style text
    // exposition for scraping.
    if let Some(snap) = exposition {
        let q = &snap.histograms["pbds_query_seconds"];
        println!(
            "\nquery latency (eager): p50 {:>9.1?} p95 {:>9.1?} p99 {:>9.1?}",
            std::time::Duration::from_secs_f64(q.quantile_scaled(0.50)),
            std::time::Duration::from_secs_f64(q.quantile_scaled(0.95)),
            std::time::Duration::from_secs_f64(q.quantile_scaled(0.99)),
        );
        println!(
            "\nmetrics exposition (eager server):\n{}",
            snap.render_text()
        );
    }
    Ok(())
}
