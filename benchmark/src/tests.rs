//! Tests that run whole workloads at the tiny test scale, and the check that
//! `BENCHMARK.json` declares what this program emits.

use crate::json::{parse, Json};
use crate::run::{run_untraced, Outcome, RunArgs};
use crate::spec::{END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use crate::traced::run_traced;
use crate::workload::{Kind, Scale};
use std::path::PathBuf;

fn tiny(kind: Kind, seed: u64, seconds: f64) -> RunArgs {
    RunArgs {
        kind,
        seed,
        seconds,
        trace: false,
        out: None,
        scale: Scale::Tiny,
        tmp_root: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../.bench_tmp/tests"),
    }
}

fn names(outcome: &Outcome) -> Vec<(&'static str, &'static str)> {
    outcome.metrics.iter().map(|m| (m.name, m.unit)).collect()
}

fn value(outcome: &Outcome, name: &str) -> f64 {
    outcome
        .metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("{name} was not emitted"))
        .value
}

#[test]
fn every_workload_runs_and_emits_exactly_the_declared_metrics() {
    let end_to_end: Vec<_> = END_TO_END.iter().map(|m| (m.name, m.unit)).collect();
    let per_layer: Vec<_> = PER_LAYER.iter().map(|m| (m.name, m.unit)).collect();
    for kind in Kind::ALL {
        let untraced = run_untraced(&tiny(kind, 5, 0.5));
        assert_eq!(names(&untraced), end_to_end, "{}", kind.name());
        assert_eq!(untraced.failed, 0, "{}: {:?}", kind.name(), untraced.notes);
        assert!(untraced.attempted > 0);
        for metric in &untraced.metrics {
            assert!(
                metric.value.is_finite() && metric.value > 0.0,
                "{} {} = {}",
                kind.name(),
                metric.name,
                metric.value
            );
        }

        let traced = run_traced(&tiny(kind, 5, 0.5));
        assert_eq!(names(&traced), per_layer, "{}", kind.name());
        assert_eq!(traced.failed, 0, "{}: {:?}", kind.name(), traced.notes);
        assert!(traced.metrics.iter().all(|m| m.value.is_finite()));
        assert!(!traced.spans.is_empty());
        let mutations = value(&traced, "server.mutations_per_s");
        assert_eq!(mutations > 0.0, kind.writes(), "{}", kind.name());
    }
}

#[test]
fn single_client_counts_repeat_exactly_for_one_seed() {
    let counts = [
        "exec.rows_scanned_per_query",
        "exec.rows_output_per_query",
        "catalog.hit_ratio",
        "persist.fsyncs_per_mutation",
    ];
    let mut scanned = Vec::new();
    for kind in [Kind::WarmReuse, Kind::NoSketchScan, Kind::JoinTopk] {
        let a = run_traced(&tiny(kind, 9, 0.1));
        let b = run_traced(&tiny(kind, 9, 0.3));
        for name in counts {
            let (a, b) = (value(&a, name), value(&b, name));
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{} {name}: {a} vs {b}",
                kind.name()
            );
        }
        scanned.push(value(&a, "exec.rows_scanned_per_query"));
    }
    // The paper's claim, on the same data and stream: a warm catalog scans
    // fewer rows than no sketches at all.
    assert!(
        scanned[0] < scanned[1],
        "warm {} vs plain {}",
        scanned[0],
        scanned[1]
    );
}

#[test]
fn benchmark_json_declares_what_the_program_emits() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let declared = parse(&text).expect("BENCHMARK.json is JSON");
    let keys: Vec<&str> = declared.members().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let field = |item: &Json, key: &str| {
        item.get(key)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("missing {key}"))
            .to_string()
    };
    let list = |key: &str| {
        declared
            .get(key)
            .and_then(Json::as_arr)
            .expect(key)
            .to_vec()
    };

    assert_eq!(
        declared.get("run_seconds").and_then(Json::as_f64),
        Some(RUN_SECONDS as f64)
    );
    let paths: Vec<String> = list("paths")
        .iter()
        .map(|p| p.as_str().expect("a path").to_string())
        .collect();
    assert_eq!(paths, ["benchmark"]);

    let workloads: Vec<(String, String)> = list("workloads")
        .iter()
        .map(|w| (field(w, "name"), field(w, "why")))
        .collect();
    let expected: Vec<(String, String)> = WORKLOADS
        .iter()
        .map(|w| (w.name.to_string(), w.why.to_string()))
        .collect();
    assert_eq!(workloads, expected);
    assert!(WORKLOADS
        .iter()
        .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));

    let end_to_end: Vec<(String, String, String, f64)> = list("end_to_end")
        .iter()
        .map(|m| {
            let bound = m.get("bound").and_then(Json::as_f64).expect("bound");
            (
                field(m, "name"),
                field(m, "unit"),
                field(m, "better"),
                bound,
            )
        })
        .collect();
    let expected: Vec<(String, String, String, f64)> = END_TO_END
        .iter()
        .map(|m| {
            (
                m.name.to_string(),
                m.unit.to_string(),
                m.better.as_str().to_string(),
                m.bound,
            )
        })
        .collect();
    assert_eq!(end_to_end, expected);
    assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));

    let per_layer: Vec<(String, String, String)> = list("per_layer")
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
        .collect();
    let expected: Vec<(String, String, String)> = PER_LAYER
        .iter()
        .map(|m| {
            (
                m.name.to_string(),
                m.unit.to_string(),
                m.better.as_str().to_string(),
            )
        })
        .collect();
    assert_eq!(per_layer, expected);
}
