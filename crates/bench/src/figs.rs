//! Reproduction of every table and figure of the paper's evaluation
//! (Sec. 9). Each function returns a formatted report that the
//! `paper_figures` binary prints.

use crate::datasets;
use crate::harness::{
    capture_sketch_for, fmt_ms, fmt_pct, measure_query, median_time, TablePrinter,
};
use pbds_core::{
    cumulative_elapsed, Action, EngineProfile, Pbds, ReuseChecker, SafetyChecker, ServerConfig,
    Strategy, UsePredicateStyle,
};
use pbds_provenance::{capture_sketches, Annotation, CaptureConfig, MergeStrategy};
use pbds_storage::{Partition, PartitionRef, RangePartition, Value};
use pbds_workloads::{crimes, movies, normal, sof, tpch, BenchQuery};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Duration;

/// Fragment counts swept by the TPC-H experiments (the paper uses
/// 32…100 000; we stop at 4 000 which is already ≫ the number of zone-map
/// blocks at our scale).
pub const TPCH_FRAGMENTS: &[usize] = &[32, 64, 400, 4000];

// ---------------------------------------------------------------------------
// Fig. 12 — capture optimizations
// ---------------------------------------------------------------------------

/// Fig. 12a: creating singleton sketch annotations with a linear CASE list vs
/// binary search, varying the number of fragments.
pub fn fig12a(runs: usize) -> String {
    let db = datasets::crimes_db();
    let table = db.table("crimes").expect("crimes table");
    let values = table.column_values("id").expect("id column");
    let mut out = TablePrinter::new(&["#fragments", "case (ms)", "binary search (ms)", "speedup"]);
    for &n in &[32usize, 64, 128, 256, 400, 1_000, 4_000, 10_000] {
        let partition = RangePartition::equi_depth("crimes", "id", &values, n).expect("partition");
        let case = median_time(runs, || {
            values
                .iter()
                .map(|v| partition.fragment_of_linear(v))
                .fold(0usize, |acc, f| acc + f.unwrap_or(0))
        });
        let bs = median_time(runs, || {
            values
                .iter()
                .map(|v| partition.fragment_of(v))
                .fold(0usize, |acc, f| acc + f.unwrap_or(0))
        });
        out.row(vec![
            n.to_string(),
            fmt_ms(case),
            fmt_ms(bs),
            format!("{:.1}x", case.as_secs_f64() / bs.as_secs_f64().max(1e-9)),
        ]);
    }
    format!(
        "Fig. 12a — creating singleton sketches (crimes, {} rows)\n{}",
        values.len(),
        out.render()
    )
}

/// Fig. 12b: merging singleton sketches with the byte-wise BITOR baseline vs
/// the `delay` and `delay + no-copy` optimizations.
pub fn fig12b(runs: usize) -> String {
    let db = datasets::movies_db();
    let table = db.table("ratings").expect("ratings table");
    let values = table.column_values("movieid").expect("movieid column");
    let mut out = TablePrinter::new(&[
        "#fragments",
        "bitor (ms)",
        "delay (ms)",
        "delay+no-copy (ms)",
    ]);
    for &n in &[32usize, 64, 128, 256, 400, 1_000, 4_000, 10_000] {
        let partition =
            RangePartition::equi_depth("ratings", "movieid", &values, n).expect("partition");
        let fragments: Vec<u32> = values
            .iter()
            .filter_map(|v| partition.fragment_of(v))
            .map(|f| f as u32)
            .collect();
        let nbits = partition.num_fragments();
        let merge_all = |strategy: MergeStrategy| {
            let mut acc = Annotation::Empty;
            for &f in &fragments {
                acc.merge(&Annotation::Single(f), nbits, strategy);
            }
            acc.to_bitset(nbits).count()
        };
        let bitor = median_time(runs, || merge_all(MergeStrategy::BytewiseBitor));
        let delay = median_time(runs, || merge_all(MergeStrategy::Delay));
        let nocopy = median_time(runs, || merge_all(MergeStrategy::DelayNoCopy));
        out.row(vec![
            n.to_string(),
            fmt_ms(bitor),
            fmt_ms(delay),
            fmt_ms(nocopy),
        ]);
    }
    format!(
        "Fig. 12b — merging sketches ({} rating rows)\n{}",
        values.len(),
        out.render()
    )
}

// ---------------------------------------------------------------------------
// Fig. 9 — sketch selectivity for TPC-H
// ---------------------------------------------------------------------------

/// Fig. 9: the fraction of the sketched relation covered by the provenance
/// sketch of each TPC-H query, varying the number of fragments.
pub fn fig9() -> String {
    let db = datasets::tpch(datasets::TpchScale::Small);
    let pbds = Pbds::new(db);
    let mut out = TablePrinter::new(&["query", "relation", "PS32", "PS64", "PS400", "PS4000"]);
    for query in tpch::queries() {
        let mut cells = vec![query.name.clone(), query.sketch.table().to_string()];
        for &fragments in TPCH_FRAGMENTS {
            match capture_sketch_for(&pbds, &query, fragments) {
                Ok((sketch, _)) => {
                    let sel = sketch.selectivity(pbds.db()).unwrap_or(1.0);
                    cells.push(fmt_pct(sel));
                }
                Err(e) => cells.push(format!("err:{e}")),
            }
        }
        out.row(cells);
    }
    format!(
        "Fig. 9 — provenance sketch selectivity (TPC-H-like, {} lineitem rows)\n{}",
        pbds.db().table("lineitem").map(|t| t.len()).unwrap_or(0),
        out.render()
    )
}

// ---------------------------------------------------------------------------
// Fig. 11 — TPC-H capture & use
// ---------------------------------------------------------------------------

/// Fig. 11 (a/b for the small scale, d/e for the large scale): per-query
/// runtime without PBDS, runtime using a sketch, capture overhead; for the
/// indexed (Postgres-like) engine profile and the binary-search predicate.
pub fn fig11_tpch(scale: datasets::TpchScale, profile: EngineProfile, runs: usize) -> String {
    let db = datasets::tpch(scale);
    let pbds = Pbds::with_profile(db, profile);
    let mut out = TablePrinter::new(&[
        "query",
        "#frag",
        "No-PS (ms)",
        "PS use (ms)",
        "speedup",
        "capture (ms)",
        "capture ovh",
        "sketch sel",
        "rows No-PS",
        "rows PS",
    ]);
    for query in tpch::queries() {
        for &fragments in &[64usize, 400] {
            match measure_query(
                &pbds,
                &query,
                fragments,
                UsePredicateStyle::BinarySearch,
                runs,
            ) {
                Ok(m) => out.row(vec![
                    m.query.clone(),
                    m.fragments.to_string(),
                    fmt_ms(m.plain),
                    fmt_ms(m.with_sketch),
                    format!("{:.2}x", m.speedup()),
                    fmt_ms(m.capture),
                    fmt_pct(m.capture_overhead()),
                    fmt_pct(m.selectivity),
                    m.rows_scanned_plain.to_string(),
                    m.rows_scanned_sketch.to_string(),
                ]),
                Err(e) => out.row(vec![
                    query.name.clone(),
                    fragments.to_string(),
                    format!("err:{e}"),
                    String::new(),
                    String::new(),
                    String::new(),
                    String::new(),
                    String::new(),
                    String::new(),
                    String::new(),
                ]),
            }
        }
    }
    format!(
        "Fig. 11 — TPC-H capture & use [{}, {}]\n{}",
        scale.label(),
        profile.label(),
        out.render()
    )
}

/// Fig. 11c: binary-search membership vs an explicit OR of range conditions
/// for selective sketches.
pub fn fig11c(runs: usize) -> String {
    let db = datasets::tpch(datasets::TpchScale::Small);
    let pbds = Pbds::new(db);
    let mut out = TablePrinter::new(&["query", "#frag", "BS (ms)", "OR (ms)"]);
    for query in tpch::queries() {
        let fragments = 400;
        let bs = measure_query(
            &pbds,
            &query,
            fragments,
            UsePredicateStyle::BinarySearch,
            runs,
        );
        let or = measure_query(
            &pbds,
            &query,
            fragments,
            UsePredicateStyle::OrConditions,
            runs,
        );
        if let (Ok(bs), Ok(or)) = (bs, or) {
            out.row(vec![
                query.name.clone(),
                fragments.to_string(),
                fmt_ms(bs.with_sketch),
                fmt_ms(or.with_sketch),
            ]);
        }
    }
    format!(
        "Fig. 11c — BS vs OR sketch predicates (SF-small)\n{}",
        out.render()
    )
}

// ---------------------------------------------------------------------------
// Fig. 10 — real-world datasets
// ---------------------------------------------------------------------------

/// Fig. 10: use-time and capture overhead for the Crimes, Movies and Stack
/// Overflow query sets.
pub fn fig10(runs: usize) -> String {
    let mut report = String::new();
    let sections: Vec<(&str, Pbds, Vec<BenchQuery>, Vec<usize>)> = vec![
        (
            "Crimes (PSMIX over group-by attributes)",
            Pbds::new(datasets::crimes_db()),
            crimes::queries(),
            vec![0],
        ),
        (
            "Movies",
            Pbds::new(datasets::movies_db()),
            movies::queries(),
            vec![400, 4000],
        ),
        (
            "Stack Overflow",
            Pbds::new(datasets::sof_db()),
            sof::queries(),
            vec![1000, 4000],
        ),
    ];
    for (label, pbds, queries, fragment_options) in sections {
        let mut out = TablePrinter::new(&[
            "query",
            "#frag",
            "No-PS (ms)",
            "PS use (ms)",
            "improvement",
            "capture ovh",
            "sketch sel",
        ]);
        for query in &queries {
            for &fragments in &fragment_options {
                match measure_query(
                    &pbds,
                    query,
                    fragments.max(1),
                    UsePredicateStyle::BinarySearch,
                    runs,
                ) {
                    Ok(m) => out.row(vec![
                        m.query.clone(),
                        m.fragments.to_string(),
                        fmt_ms(m.plain),
                        fmt_ms(m.with_sketch),
                        fmt_pct(
                            1.0 - m.with_sketch.as_secs_f64() / m.plain.as_secs_f64().max(1e-9),
                        ),
                        fmt_pct(m.capture_overhead()),
                        fmt_pct(m.selectivity),
                    ]),
                    Err(e) => out.row(vec![
                        query.name.clone(),
                        fragments.to_string(),
                        format!("err:{e}"),
                        String::new(),
                        String::new(),
                        String::new(),
                        String::new(),
                    ]),
                }
            }
        }
        report.push_str(&format!("Fig. 10 — {label}\n{}\n", out.render()));
    }
    report
}

// ---------------------------------------------------------------------------
// Fig. 14 — amortizing capture cost
// ---------------------------------------------------------------------------

/// Fig. 14: for each TPC-H query, the interval of query repetitions for which
/// each option (No-PS or a fragment count) minimizes total cost
/// `C_cap + n · C_use` vs `n · C_NoPS`.
pub fn fig14(runs: usize) -> String {
    let db = datasets::tpch(datasets::TpchScale::Small);
    let pbds = Pbds::new(db);
    let mut out = TablePrinter::new(&["query", "option", "optimal for #repetitions"]);
    for query in tpch::queries() {
        // Candidate options: No-PS plus a few fragment counts.
        let mut options: Vec<(String, f64, f64)> = vec![];
        let plain = match measure_query(&pbds, &query, 64, UsePredicateStyle::BinarySearch, runs) {
            Ok(m) => m,
            Err(_) => continue,
        };
        options.push(("No-PS".to_string(), 0.0, plain.plain.as_secs_f64()));
        for &fragments in &[64usize, 400, 4000] {
            if let Ok(m) = measure_query(
                &pbds,
                &query,
                fragments,
                UsePredicateStyle::BinarySearch,
                runs,
            ) {
                options.push((
                    format!("PS{}", m.fragments),
                    m.capture.as_secs_f64(),
                    m.with_sketch.as_secs_f64(),
                ));
            }
        }
        // For n = 1..=10_000 find the cheapest option and report intervals.
        let cost = |opt: &(String, f64, f64), n: f64| opt.1 + opt.2 * n;
        let mut current: Option<(String, u64)> = None;
        let mut intervals: Vec<(String, u64, Option<u64>)> = Vec::new();
        for n in 1..=10_000u64 {
            let best = options
                .iter()
                .min_by(|a, b| cost(a, n as f64).total_cmp(&cost(b, n as f64)))
                .expect("at least one option")
                .0
                .clone();
            match &mut current {
                Some((name, _)) if *name == best => {}
                Some((name, start)) => {
                    intervals.push((name.clone(), *start, Some(n)));
                    current = Some((best, n));
                }
                None => current = Some((best, n)),
            }
        }
        if let Some((name, start)) = current {
            intervals.push((name, start, None));
        }
        for (name, start, end) in intervals {
            let range = match end {
                Some(e) => format!("[{start}, {e})"),
                None => format!("[{start}, inf)"),
            };
            out.row(vec![query.name.clone(), name, range]);
        }
    }
    format!(
        "Fig. 14 — optimal #fragments as a function of query repetitions (SF-small)\n{}",
        out.render()
    )
}

// ---------------------------------------------------------------------------
// Fig. 13 — end-to-end self-tuning workloads
// ---------------------------------------------------------------------------

/// Parameters of one end-to-end run.
#[derive(Debug, Clone, Copy)]
pub struct EndToEndConfig {
    /// Number of query instances.
    pub queries: usize,
    /// Mean of the normal distribution used for HAVING thresholds.
    pub mean: f64,
    /// Standard deviation of the parameter distribution.
    pub sdv: f64,
    /// RNG seed.
    pub seed: u64,
}

/// Result of one end-to-end run: cumulative wall-clock per strategy.
#[derive(Debug, Clone)]
pub struct EndToEndResult {
    /// Strategy label → cumulative runtime after each query.
    pub series: Vec<(String, Vec<Duration>)>,
    /// Number of sketches captured per strategy.
    pub captured: Vec<(String, usize)>,
}

fn run_end_to_end(
    db: &pbds_storage::Database,
    templates: &[pbds_algebra::QueryTemplate],
    config: &EndToEndConfig,
    strategies: &[(&str, Strategy)],
    fragments: usize,
) -> EndToEndResult {
    // Generate the instance sequence once so every strategy sees the same
    // workload (template chosen uniformly, parameters normally distributed).
    let mut rng = StdRng::seed_from_u64(config.seed);
    let workload: Vec<(pbds_algebra::QueryTemplate, Vec<Value>)> = (0..config.queries)
        .map(|_| {
            let t = templates[rng.gen_range(0..templates.len())].clone();
            let binding: Vec<Value> = (0..t.num_params())
                .map(|i| {
                    if i == 0 {
                        Value::Int(normal(&mut rng, config.mean, config.sdv).max(1.0) as i64)
                    } else {
                        // Interval parameters: start point and width.
                        Value::Int(rng.gen_range(0..15))
                    }
                })
                .collect();
            (t, binding)
        })
        .collect();

    let mut series = Vec::new();
    let mut captured = Vec::new();
    for (label, strategy) in strategies {
        // A fresh handle per strategy, so each starts from a cold catalog;
        // no capture workers, so the first instance pays for its capture.
        let server = Pbds::new(db.clone()).serve(ServerConfig {
            strategy: *strategy,
            fragments,
            capture_workers: 0,
            ..ServerConfig::default()
        });
        let records: Vec<_> = server
            .serve_stream(&workload, 1)
            .expect("workload run")
            .into_iter()
            .map(|q| q.record)
            .collect();
        series.push((label.to_string(), cumulative_elapsed(&records)));
        captured.push((
            label.to_string(),
            records
                .iter()
                .filter(|r| r.action == Action::Capture)
                .count(),
        ));
    }
    EndToEndResult { series, captured }
}

fn render_end_to_end(title: &str, result: &EndToEndResult) -> String {
    let n = result.series.first().map(|(_, s)| s.len()).unwrap_or(0);
    let checkpoints: Vec<usize> = [n / 10, n / 4, n / 2, 3 * n / 4, n]
        .iter()
        .filter(|&&c| c > 0)
        .copied()
        .collect();
    let mut header = vec!["strategy".to_string(), "#captured".to_string()];
    header.extend(checkpoints.iter().map(|c| format!("cum @{c} (ms)")));
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut out = TablePrinter::new(&header_refs);
    for ((label, series), (_, ncap)) in result.series.iter().zip(result.captured.iter()) {
        let mut row = vec![label.clone(), ncap.to_string()];
        for &c in &checkpoints {
            row.push(fmt_ms(series[c - 1]));
        }
        out.row(row);
    }
    format!("{title}\n{}", out.render())
}

/// Fig. 13a: Crimes end-to-end workload mixing four templates (eager
/// strategy vs no PBDS).
pub fn fig13_crimes(queries: usize) -> String {
    let db = datasets::crimes_small_db();
    let templates = crimes::end_to_end_templates();
    let result = run_end_to_end(
        &db,
        &templates,
        &EndToEndConfig {
            queries,
            mean: 700.0,
            sdv: 150.0,
            seed: 99,
        },
        &[
            ("No-PS", Strategy::NoPbds),
            (
                "eager",
                Strategy::Eager {
                    selectivity_threshold: 0.75,
                },
            ),
        ],
        64,
    );
    render_end_to_end(
        &format!("Fig. 13a — Crimes end-to-end, {queries} queries, mixed templates"),
        &result,
    )
}

/// Fig. 13c–13h: Stack Overflow end-to-end workload with the eager and
/// adaptive strategies, sweeping parameter spread (SDV) and selectivity.
pub fn fig13_sof(queries: usize) -> String {
    let db = datasets::sof_small_db();
    let templates = sof::end_to_end_templates();
    let mut report = String::new();
    for (label, mean, sdv) in [
        ("SDV small (clustered parameters)", 30.0, 3.0),
        ("SDV large (spread parameters)", 30.0, 15.0),
        ("high threshold (more selective)", 60.0, 5.0),
        ("low threshold (less selective)", 12.0, 5.0),
    ] {
        let result = run_end_to_end(
            &db,
            &templates,
            &EndToEndConfig {
                queries,
                mean,
                sdv,
                seed: 7,
            },
            &[
                ("No-PS", Strategy::NoPbds),
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
            ],
            1000,
        );
        report.push_str(&render_end_to_end(
            &format!("Fig. 13c-h — Stack Overflow end-to-end, {queries} queries, {label}"),
            &result,
        ));
        report.push('\n');
    }
    report
}

// ---------------------------------------------------------------------------
// Sec. 9.5 — safety / reuse check overhead
// ---------------------------------------------------------------------------

/// The overhead of the safety and reuse checks themselves (the paper reports
/// ~20 ms per check with Z3; our special-purpose solver is much faster): both
/// checks for the Stack Overflow end-to-end templates, and the safety check
/// for the TPC-H joins Q3 and Q18.
pub fn check_overhead(runs: usize) -> String {
    let db = datasets::sof_small_db();
    let templates = sof::end_to_end_templates();
    let mut out = TablePrinter::new(&["template", "safety check (ms)", "reuse check (ms)"]);
    for template in &templates {
        let checker = SafetyChecker::new(&db);
        let attrs = checker.candidate_attributes(template.plan());
        let safety = median_time(runs, || checker.check(template.plan(), &attrs).safe);
        let reuse = ReuseChecker::new(&db);
        let reuse_time = median_time(runs, || {
            reuse
                .can_reuse(template, &[Value::Int(30)], &[Value::Int(40)])
                .reusable
        });
        out.row(vec![
            template.name().to_string(),
            fmt_ms(safety),
            fmt_ms(reuse_time),
        ]);
    }
    let tpch_db = datasets::tpch(datasets::TpchScale::Small);
    let checker = SafetyChecker::new(&tpch_db);
    for query in tpch::queries()
        .into_iter()
        .filter(|q| ["Q3", "Q18"].contains(&q.name.as_str()))
    {
        let plan = query.template.plan();
        let attrs = checker.candidate_attributes(plan);
        let safety = median_time(runs, || checker.check(plan, &attrs).safe);
        out.row(vec![
            format!("TPC-H {}", query.name),
            fmt_ms(safety),
            "-".to_string(),
        ]);
    }
    format!(
        "Sec. 9.5 — safety and reuse check overhead (paper: ~20 ms per check)\n{}",
        out.render()
    )
}

// ---------------------------------------------------------------------------
// Running example (Fig. 1)
// ---------------------------------------------------------------------------

/// The paper's running example (Fig. 1): capture the sketch of Q2 on the
/// state partition and verify it is `{f1}` and safe, while the popden
/// partition is unsafe.
pub fn running_example() -> String {
    use pbds_algebra::{col, AggExpr, AggFunc, LogicalPlan, SortKey};
    use pbds_storage::{DataType, Schema, TableBuilder};

    let schema = Schema::from_pairs(&[
        ("popden", DataType::Int),
        ("city", DataType::Str),
        ("state", DataType::Str),
    ]);
    let mut b = TableBuilder::new("cities", schema);
    for (popden, city, state) in [
        (4200, "Anchorage", "AK"),
        (6000, "San Diego", "CA"),
        (5000, "Sacramento", "CA"),
        (7000, "New York", "NY"),
        (2000, "Buffalo", "NY"),
        (3700, "Austin", "TX"),
        (2500, "Houston", "TX"),
    ] {
        b.push(vec![
            Value::Int(popden),
            Value::from(city),
            Value::from(state),
        ]);
    }
    let mut db = pbds_storage::Database::new();
    db.add_table(b.build());

    let q2 = LogicalPlan::scan("cities")
        .aggregate(
            vec!["state"],
            vec![AggExpr::new(AggFunc::Avg, col("popden"), "avgden")],
        )
        .top_k(vec![SortKey::desc("avgden")], 1);

    let state_part: PartitionRef = Arc::new(Partition::Range(RangePartition::from_uppers(
        "cities",
        "state",
        vec![Value::from("DE"), Value::from("MI"), Value::from("OK")],
    )));
    let captured =
        capture_sketches(&db, &q2, &[state_part], &CaptureConfig::optimized()).expect("capture");
    let sketch = &captured.sketches[0];

    let checker = SafetyChecker::new(&db);
    let state_safe = checker
        .check(&q2, &[pbds_core::PartitionAttr::new("cities", "state")])
        .safe;
    let popden_safe = checker
        .check(&q2, &[pbds_core::PartitionAttr::new("cities", "popden")])
        .safe;

    format!(
        "Running example (Fig. 1):\n  sketch of Q2 on F_state = {} (bitset {})\n  \
         safety(state) = {}   safety(popden) = {} (expected: true / false)\n",
        sketch
            .selected_fragments()
            .iter()
            .map(|f| format!("f{}", f + 1))
            .collect::<Vec<_>>()
            .join(","),
        sketch.bitset(),
        state_safe,
        popden_safe
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_example_reports_expected_sketch_and_safety() {
        let report = running_example();
        assert!(report.contains("= f1 "), "{report}");
        assert!(report.contains("1000"), "{report}");
        assert!(report.contains("true   safety(popden) = false"), "{report}");
    }

    #[test]
    fn fig12a_and_12b_produce_tables() {
        let a = fig12a(1);
        assert!(a.contains("#fragments"));
        assert!(a.lines().count() > 8);
        let b = fig12b(1);
        assert!(b.contains("delay"));
    }

    #[test]
    fn check_overhead_times_the_tpch_safety_checks() {
        let report = check_overhead(1);
        assert!(report.contains("TPC-H Q3"), "{report}");
        assert!(report.contains("TPC-H Q18"), "{report}");
    }

    #[test]
    fn end_to_end_run_produces_monotone_series() {
        let db = datasets::crimes_small_db();
        let templates = crimes::end_to_end_templates();
        let result = run_end_to_end(
            &db,
            &templates,
            &EndToEndConfig {
                queries: 10,
                mean: 700.0,
                sdv: 100.0,
                seed: 1,
            },
            &[
                ("No-PS", Strategy::NoPbds),
                (
                    "eager",
                    Strategy::Eager {
                        selectivity_threshold: 0.75,
                    },
                ),
            ],
            64,
        );
        assert_eq!(result.series.len(), 2);
        for (_, s) in &result.series {
            assert_eq!(s.len(), 10);
            assert!(s.windows(2).all(|w| w[0] <= w[1]));
        }
    }
}
