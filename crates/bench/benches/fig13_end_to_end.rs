//! Fig. 13 — end-to-end self-tuning workloads: total time to run a sequence
//! of parameterized query instances under No-PS, eager and adaptive.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pbds_algebra::QueryTemplate;
use pbds_bench::datasets;
use pbds_core::{PbdsServer, ServerConfig, Strategy};
use pbds_storage::Value;
use pbds_workloads::{normal, sof};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Duration;

fn workload(n: usize) -> Vec<(QueryTemplate, Vec<Value>)> {
    let templates = sof::end_to_end_templates();
    let mut rng = StdRng::seed_from_u64(31);
    (0..n)
        .map(|_| {
            let t = templates[rng.gen_range(0..templates.len())].clone();
            (
                t,
                vec![Value::Int(normal(&mut rng, 30.0, 4.0).max(1.0) as i64)],
            )
        })
        .collect()
}

fn bench_end_to_end(c: &mut Criterion) {
    let db = Arc::new(datasets::sof_small_db());
    let wl = workload(25);
    let mut group = c.benchmark_group("fig13_end_to_end_sof");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(500));
    for (label, strategy) in [
        ("no_ps", Strategy::NoPbds),
        (
            "eager",
            Strategy::Eager {
                selectivity_threshold: 0.75,
            },
        ),
        (
            "adaptive",
            Strategy::Adaptive {
                selectivity_threshold: 0.75,
                evidence_threshold: 2,
            },
        ),
    ] {
        group.bench_with_input(BenchmarkId::new(label, wl.len()), &wl, |b, wl| {
            b.iter(|| {
                // A cold catalog per iteration; no capture workers, so the
                // first instance pays for its capture.
                let server = PbdsServer::new(
                    Arc::clone(&db),
                    ServerConfig {
                        strategy,
                        fragments: 500,
                        capture_workers: 0,
                        ..ServerConfig::default()
                    },
                );
                server.serve_stream(wl, 1).unwrap().len()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_end_to_end);
criterion_main!(benches);
