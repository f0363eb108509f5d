//! Self-tuning PBDS over a parameterized workload (the scenario of Fig. 13):
//! hundreds of instances of a few `HAVING` templates are executed while the
//! framework decides when to capture and when to reuse provenance sketches.
//!
//! Run with: `cargo run -p pbds-core --release --example self_tuning_workload`

use pbds_algebra::QueryTemplate;
use pbds_core::{cumulative_elapsed, Action, Pbds, QueryRecord, ServerConfig, Strategy};
use pbds_storage::Value;
use pbds_workloads::{normal, sof};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let db = sof::generate(&sof::SofConfig {
        users: 5_000,
        posts: 30_000,
        comments: 40_000,
        badges: 15_000,
        ..Default::default()
    });
    let templates = sof::end_to_end_templates();

    // Generate 150 query instances: template chosen uniformly, HAVING
    // threshold drawn from a normal distribution (as in Sec. 9.5).
    let mut rng = StdRng::seed_from_u64(2024);
    let workload: Vec<(QueryTemplate, Vec<Value>)> = (0..150)
        .map(|_| {
            let t = templates[rng.gen_range(0..templates.len())].clone();
            let threshold = normal(&mut rng, 40.0, 6.0).max(1.0) as i64;
            (t, vec![Value::Int(threshold)])
        })
        .collect();

    for (label, strategy) in [
        ("No-PS   ", Strategy::NoPbds),
        (
            "eager   ",
            Strategy::Eager {
                selectivity_threshold: 0.75,
            },
        ),
        (
            "adaptive",
            Strategy::Adaptive {
                selectivity_threshold: 0.75,
                evidence_threshold: 3,
            },
        ),
    ] {
        // A fresh handle (and so a cold catalog) per strategy. With no
        // capture workers the server captures inline: the first instance
        // of a binding pays for its capture, as in Fig. 13.
        let server = Pbds::new(db.clone()).serve(ServerConfig {
            strategy,
            fragments: 500,
            capture_workers: 0,
            ..ServerConfig::default()
        });
        let records: Vec<QueryRecord> = server
            .serve_stream(&workload, 1)
            .expect("workload")
            .into_iter()
            .map(|q| q.record)
            .collect();
        let cumulative = cumulative_elapsed(&records);
        let captures = records
            .iter()
            .filter(|r| r.action == Action::Capture)
            .count();
        let reuses = records
            .iter()
            .filter(|r| r.action == Action::UseSketch)
            .count();
        println!(
            "{label}  total {:>9.2} ms   (captured {captures:>3} sketches, reused {reuses:>4} times)",
            cumulative.last().unwrap().as_secs_f64() * 1e3,
        );
        // Show the cumulative-runtime curve at a few checkpoints, as in
        // Fig. 13 of the paper.
        let n = cumulative.len();
        let points: Vec<String> = [n / 4, n / 2, 3 * n / 4, n]
            .iter()
            .map(|&c| format!("@{c}: {:.1} ms", cumulative[c - 1].as_secs_f64() * 1e3))
            .collect();
        println!("          {}", points.join("   "));
    }
}
