//! End-to-end tests of the self-tuning framework (Sec. 9.5): correctness of
//! every strategy on mixed-template workloads, sketch reuse accumulation, and
//! the work-saving effect of PBDS measured through engine counters. Every
//! stream is served by an in-memory server that captures inline, as the
//! paper's self-tuning loop does.

use pbds_algebra::QueryTemplate;
use pbds_core::{
    Action, Engine, EngineProfile, PbdsServer, QueryRecord, ServedQuery, ServerConfig, Strategy,
};
use pbds_storage::{Database, Value};
use pbds_workloads::{crimes, normal, sof};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

fn sof_db() -> Database {
    sof::generate(&sof::SofConfig {
        users: 1_500,
        posts: 10_000,
        comments: 12_000,
        badges: 5_000,
        ..Default::default()
    })
}

fn sof_workload(n: usize, mean: f64, sdv: f64, seed: u64) -> Vec<(QueryTemplate, Vec<Value>)> {
    let templates = sof::end_to_end_templates();
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let t = templates[rng.gen_range(0..templates.len())].clone();
            (
                t,
                vec![Value::Int(normal(&mut rng, mean, sdv).max(1.0) as i64)],
            )
        })
        .collect()
}

fn crimes_db() -> Database {
    crimes::generate(&crimes::CrimesConfig {
        rows: 12_000,
        ..Default::default()
    })
}

/// Thirty instances of the Crimes end-to-end templates: a clustered first
/// parameter and a small second one.
fn crimes_workload() -> Vec<(QueryTemplate, Vec<Value>)> {
    let templates = crimes::end_to_end_templates();
    let mut rng = StdRng::seed_from_u64(3);
    (0..30)
        .map(|_| {
            let t = templates[rng.gen_range(0..templates.len())].clone();
            let binding: Vec<Value> = (0..t.num_params())
                .map(|i| {
                    if i == 0 {
                        Value::Int(normal(&mut rng, 150.0, 40.0).max(1.0) as i64)
                    } else {
                        Value::Int(rng.gen_range(0..20))
                    }
                })
                .collect();
            (t, binding)
        })
        .collect()
}

/// An in-memory server over `db` with no capture workers: a miss the
/// strategy approves is captured on the session's thread.
fn inline_server(
    db: &Database,
    profile: EngineProfile,
    strategy: Strategy,
    fragments: usize,
) -> PbdsServer {
    PbdsServer::new(
        Arc::new(db.clone()),
        ServerConfig {
            profile,
            strategy,
            fragments,
            capture_workers: 0,
            ..ServerConfig::default()
        },
    )
}

/// Serve `workload` in order on one session and return each query's record.
fn serve_records(
    db: &Database,
    profile: EngineProfile,
    strategy: Strategy,
    fragments: usize,
    workload: &[(QueryTemplate, Vec<Value>)],
) -> Vec<QueryRecord> {
    inline_server(db, profile, strategy, fragments)
        .serve_stream(workload, 1)
        .unwrap()
        .into_iter()
        .map(|q| q.record)
        .collect()
}

const EAGER: Strategy = Strategy::Eager {
    selectivity_threshold: 0.75,
};

/// The three strategies of Fig. 13, as the golden table names them.
const STRATEGIES: [(&str, Strategy); 3] = [
    ("no-ps", Strategy::NoPbds),
    ("eager", EAGER),
    (
        "adaptive",
        Strategy::Adaptive {
            selectivity_threshold: 0.75,
            evidence_threshold: 2,
        },
    ),
];

/// The per-query decisions, as pinned by [`DECISIONS`]: `stream profile
/// strategy`, one action letter per query (`P`lain, `C`apture, `U`se
/// sketch, revalidation `F`allback), the result rows per query, the rows
/// scanned over the whole stream and the sketches stored at its end.
const DECISIONS: &str = "\
sof indexed no-ps PPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPP rows=38,18,42,41,44,18,42,38,39,36,18,44,41,45,38,36,20,40,20,38,38,41,42,18,38,15,14,20,52,38,18,38,42,39,14,38,19,38,45,38,19,38,40,33,38,18,44,18,36,20,15,33,38,36,38,39,36,33,21,41 scanned=550000 stored=0
sof indexed eager CCCUCUUUUUUUUCUUCCUUUUUUUUUCCUUUUUUUUUUUUUUUUUUUUUUUUUUUUUCU rows=38,18,42,41,44,18,42,38,39,36,18,44,41,45,38,36,20,40,20,38,38,41,42,18,38,15,14,20,52,38,18,38,42,39,14,38,19,38,45,38,19,38,40,33,38,18,44,18,36,20,15,33,38,36,38,39,36,33,21,41 scanned=360115 stored=10
sof indexed adaptive PPPCPCCUUCPPUCUUCPUUUUUUCUUPPPUUUCUUUUUUUUPUUUUUUCUUUUUUUUPU rows=38,18,42,41,44,18,42,38,39,36,18,44,41,45,38,36,20,40,20,38,38,41,42,18,38,15,14,20,52,38,18,38,42,39,14,38,19,38,45,38,19,38,40,33,38,18,44,18,36,20,15,33,38,36,38,39,36,33,21,41 scanned=400841 stored=9
sof columnar no-ps PPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPP rows=38,18,42,41,44,18,42,38,39,36,18,44,41,45,38,36,20,40,20,38,38,41,42,18,38,15,14,20,52,38,18,38,42,39,14,38,19,38,45,38,19,38,40,33,38,18,44,18,36,20,15,33,38,36,38,39,36,33,21,41 scanned=550000 stored=0
sof columnar eager CCCUCUUUUUUUUCUUCCUUUUUUUUUCCUUUUUUUUUUUUUUUUUUUUUUUUUUUUUCU rows=38,18,42,41,44,18,42,38,39,36,18,44,41,45,38,36,20,40,20,38,38,41,42,18,38,15,14,20,52,38,18,38,42,39,14,38,19,38,45,38,19,38,40,33,38,18,44,18,36,20,15,33,38,36,38,39,36,33,21,41 scanned=550000 stored=10
sof columnar adaptive PPPCPCCUUCPPUCUUCPUUUUUUCUUPPPUUUCUUUUUUUUPUUUUUUCUUUUUUUUPU rows=38,18,42,41,44,18,42,38,39,36,18,44,41,45,38,36,20,40,20,38,38,41,42,18,38,15,14,20,52,38,18,38,42,39,14,38,19,38,45,38,19,38,40,33,38,18,44,18,36,20,15,33,38,36,38,39,36,33,21,41 scanned=550000 stored=9
crimes indexed no-ps PPPPPPPPPPPPPPPPPPPPPPPPPPPPPP rows=0,0,6,0,14,0,6,0,0,0,0,0,0,0,16,0,1,8,7,0,0,0,0,0,0,0,9,15,0,5 scanned=360000 stored=0
crimes indexed eager CCPUCCPUUUCUUUCUCPPUUCUUUUPUUP rows=0,0,6,0,14,0,6,0,0,0,0,0,0,0,16,0,1,8,7,0,0,0,0,0,0,0,9,15,0,5 scanned=357106 stored=8
crimes indexed adaptive PPPCPPPCUCPCUUCUPPPCPCUUPUPUUP rows=0,0,6,0,14,0,6,0,0,0,0,0,0,0,16,0,1,8,7,0,0,0,0,0,0,0,9,15,0,5 scanned=357106 stored=7
crimes columnar no-ps PPPPPPPPPPPPPPPPPPPPPPPPPPPPPP rows=0,0,6,0,14,0,6,0,0,0,0,0,0,0,16,0,1,8,7,0,0,0,0,0,0,0,9,15,0,5 scanned=360000 stored=0
crimes columnar eager CCPUCCPUUUCUUUCUCPPUUCUUUUPUUP rows=0,0,6,0,14,0,6,0,0,0,0,0,0,0,16,0,1,8,7,0,0,0,0,0,0,0,9,15,0,5 scanned=360000 stored=8
crimes columnar adaptive PPPCPPPCUCPCUUCUPPPCPCUUPUPUUP rows=0,0,6,0,14,0,6,0,0,0,0,0,0,0,16,0,1,8,7,0,0,0,0,0,0,0,9,15,0,5 scanned=360000 stored=7
";

fn action_letter(action: &Action) -> char {
    match action {
        Action::Plain => 'P',
        Action::Capture => 'C',
        Action::UseSketch => 'U',
        Action::RevalidationFallback => 'F',
    }
}

/// Run `workload` under one strategy and render its row of the decision
/// table.
fn decision_row(
    label: &str,
    db: &Database,
    workload: &[(QueryTemplate, Vec<Value>)],
    profile: EngineProfile,
    strategy: Strategy,
    fragments: usize,
) -> String {
    let server = inline_server(db, profile, strategy, fragments);
    let served: Vec<ServedQuery> = server.serve_stream(workload, 1).unwrap();
    let engine = Engine::new(profile);
    for (q, (template, binding)) in served.iter().zip(workload) {
        let plain = engine
            .execute(&q.snapshot, &template.instantiate(binding))
            .unwrap();
        assert!(
            q.relation.bag_eq(&plain.relation),
            "{label}: {} {binding:?} ({:?}) differs from plain execution",
            template.name(),
            q.record.action
        );
        assert_eq!(q.record.result_rows, q.relation.len());
    }
    let actions: String = served
        .iter()
        .map(|q| action_letter(&q.record.action))
        .collect();
    let rows: Vec<String> = served
        .iter()
        .map(|q| q.record.result_rows.to_string())
        .collect();
    let scanned: u64 = served.iter().map(|q| q.record.stats.rows_scanned).sum();
    let stored = server.catalog().stored_sketches();
    format!(
        "{label} {actions} rows={} scanned={scanned} stored={stored}\n",
        rows.join(",")
    )
}

#[test]
fn decisions_match_the_golden_table() {
    let streams = [
        ("sof", sof_db(), sof_workload(60, 35.0, 3.0, 5), 200),
        ("crimes", crimes_db(), crimes_workload(), 64),
    ];
    let mut table = String::new();
    for (stream, db, workload, fragments) in &streams {
        for (profile_name, profile) in [
            ("indexed", EngineProfile::Indexed),
            ("columnar", EngineProfile::ColumnarScan),
        ] {
            for (name, strategy) in STRATEGIES {
                let label = format!("{stream} {profile_name} {name}");
                table += &decision_row(&label, db, workload, profile, strategy, *fragments);
            }
        }
    }
    assert_eq!(table, DECISIONS, "the decision table drifted:\n{table}");
}

#[test]
fn all_strategies_return_identical_results_for_every_query() {
    let db = sof_db();
    let workload = sof_workload(40, 30.0, 4.0, 11);
    let mut results: Vec<Vec<usize>> = Vec::new();
    for (_, strategy) in STRATEGIES {
        let records = serve_records(&db, EngineProfile::Indexed, strategy, 200, &workload);
        results.push(records.iter().map(|r| r.result_rows).collect());
    }
    assert_eq!(results[0], results[1], "eager changed some query result");
    assert_eq!(results[0], results[2], "adaptive changed some query result");
}

#[test]
fn eager_strategy_accumulates_reuse_and_saves_scanned_rows() {
    let db = sof_db();
    // Clustered parameters: most instances can share a handful of sketches.
    let workload = sof_workload(60, 35.0, 3.0, 5);

    let baseline = serve_records(
        &db,
        EngineProfile::Indexed,
        Strategy::NoPbds,
        200,
        &workload,
    );
    let records = serve_records(&db, EngineProfile::Indexed, EAGER, 200, &workload);
    let reused = records
        .iter()
        .filter(|r| r.action == Action::UseSketch)
        .count();
    let captured = records
        .iter()
        .filter(|r| r.action == Action::Capture)
        .count();
    assert!(captured >= 1, "eager never captured a sketch");
    assert!(
        reused > workload.len() / 2,
        "expected most instances to reuse a sketch, got {reused}/{}",
        workload.len()
    );
    // Reused executions scan fewer rows than the plain baseline overall
    // (capture runs do not skip, so compare only the sketch-using tail).
    let eager_rows: u64 = records
        .iter()
        .filter(|r| r.action == Action::UseSketch)
        .map(|r| r.stats.rows_scanned)
        .sum();
    let baseline_tail: u64 = baseline
        .iter()
        .zip(&records)
        .filter(|(_, e)| e.action == Action::UseSketch)
        .map(|(b, _)| b.stats.rows_scanned)
        .sum();
    assert!(
        eager_rows < baseline_tail,
        "sketch-using executions did not reduce scanned rows ({eager_rows} vs {baseline_tail})"
    );
}

#[test]
fn adaptive_strategy_captures_fewer_sketches_than_eager_on_spread_parameters() {
    let db = sof_db();
    // Widely spread parameters: eager captures many sketches, adaptive waits
    // for evidence and captures fewer.
    let workload = sof_workload(50, 30.0, 20.0, 17);
    let run = |strategy| {
        serve_records(&db, EngineProfile::Indexed, strategy, 200, &workload)
            .iter()
            .filter(|r| r.action == Action::Capture)
            .count()
    };
    let eager_caps = run(EAGER);
    let adaptive_caps = run(Strategy::Adaptive {
        selectivity_threshold: 0.75,
        evidence_threshold: 4,
    });
    assert!(
        adaptive_caps <= eager_caps,
        "adaptive captured more sketches ({adaptive_caps}) than eager ({eager_caps})"
    );
}

#[test]
fn crimes_mixed_template_workload_is_correct_under_eager() {
    let db = crimes_db();
    let workload = crimes_workload();

    let baseline = serve_records(&db, EngineProfile::Indexed, Strategy::NoPbds, 64, &workload);
    let records = serve_records(&db, EngineProfile::Indexed, EAGER, 64, &workload);
    for (b, e) in baseline.iter().zip(&records) {
        assert_eq!(
            b.result_rows, e.result_rows,
            "template {} diverged",
            b.template
        );
    }
}

#[test]
fn columnar_profile_self_tuning_is_also_correct() {
    let db = sof_db();
    let workload = sof_workload(20, 30.0, 4.0, 29);
    let baseline = serve_records(
        &db,
        EngineProfile::ColumnarScan,
        Strategy::NoPbds,
        200,
        &workload,
    );
    let records = serve_records(&db, EngineProfile::ColumnarScan, EAGER, 200, &workload);
    for (b, e) in baseline.iter().zip(&records) {
        assert_eq!(b.result_rows, e.result_rows);
    }
}
