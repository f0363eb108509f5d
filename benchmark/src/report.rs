//! `benchmark all`: every workload, untraced and traced, each in a child
//! process of its own, repeated and summarised into one report — and
//! `benchmark compare`: two such reports judged by the declared bounds.

use crate::json::{parse, Json};
use crate::run::{clients, ORACLE_EVERY, SETUP_REPS_MAX, SETUP_REPS_MIN, WINDOWS};
use crate::spec::{Better, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{median, quartile_spread};
use crate::traced::COUNT_WINDOW;
use crate::workload::{COLD_CAPTURE_BYTE_BUDGET, STREAM_LEN};
use crate::write::{DELETE_EVERY, ROWS_PER_APPEND, WINDOW};
use pbds_core::telemetry::clock::Stopwatch;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

pub struct AllArgs {
    pub seed: u64,
    pub seconds: u64,
    pub reps: usize,
    pub out: Option<std::path::PathBuf>,
}

/// `(workload, metric) -> one value per repetition`.
type Values = BTreeMap<(String, String), Vec<f64>>;

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn environment(args: &AllArgs) -> Json {
    let num = |n: usize| Json::Num(n as f64);
    Json::obj(vec![
        (
            "nproc",
            num(std::thread::available_parallelism().map_or(1, |n| n.get())),
        ),
        (
            "commit",
            Json::str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", Json::str(command_line("rustc", &["--version"]))),
        ("profile", Json::str("release, lto = thin, debug = false")),
        ("features", Json::str("none")),
        ("seed", Json::Num(args.seed as f64)),
        ("clients", num(clients())),
        ("run_seconds", Json::Num(args.seconds as f64)),
        ("repetitions", num(args.reps)),
        (
            "constants",
            Json::obj(vec![
                ("stream_len", num(STREAM_LEN)),
                ("setup_repetitions_min", num(SETUP_REPS_MIN)),
                ("setup_repetitions_max", num(SETUP_REPS_MAX)),
                ("windows", num(WINDOWS)),
                ("oracle_every", num(ORACLE_EVERY)),
                ("count_window", num(COUNT_WINDOW)),
                ("cold_capture_byte_budget", num(COLD_CAPTURE_BYTE_BUDGET)),
                ("writer_window", num(WINDOW)),
                ("rows_per_append", num(ROWS_PER_APPEND)),
                ("delete_every", Json::Num(DELETE_EVERY as f64)),
            ]),
        ),
    ])
}

/// Run this executable once for one workload and parse its result line.
fn child_run(workload: &str, seed: u64, seconds: u64, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {workload} run: {e}"))?;
    if !output.status.success() {
        return Err(format!("the {workload} run exited with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout
        .lines()
        .next_back()
        .ok_or_else(|| format!("the {workload} run printed nothing"))?;
    parse(last).map_err(|e| format!("the {workload} run's result line is not JSON: {e}"))
}

fn min_max(values: &[f64]) -> (f64, f64) {
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    (min, max)
}

fn summary(values: &[f64], unit: &str) -> Json {
    let (min, max) = min_max(values);
    Json::obj(vec![
        ("unit", Json::str(unit)),
        ("median", Json::Num(median(values))),
        ("min", Json::Num(min)),
        ("max", Json::Num(max)),
        ("count", Json::Num(values.len() as f64)),
        (
            "values",
            Json::Arr(values.iter().map(|v| Json::Num(*v)).collect()),
        ),
    ])
}

struct Check {
    name: String,
    ok: bool,
    /// A failed gating check makes `benchmark all` exit non-zero.
    gates: bool,
}

/// What each workload was chosen for, read off the medians.
fn purpose_checks(values: &Values, failed_ops: u64, incorrect_runs: usize) -> Vec<Check> {
    let med = |workload: &str, metric: &str| {
        values
            .get(&(workload.to_string(), metric.to_string()))
            .map_or(f64::NAN, |v| median(v))
    };
    let mut checks = Vec::new();
    let mut check = |gates: bool, ok: bool, name: String| checks.push(Check { name, ok, gates });
    check(
        true,
        failed_ops == 0 && incorrect_runs == 0,
        format!("no failed operation ({failed_ops} failed, {incorrect_runs} runs incorrect)"),
    );
    let warm_rows = med("warm-reuse", "exec.rows_scanned_per_query");
    let plain_rows = med("no-sketch-scan", "exec.rows_scanned_per_query");
    check(
        true,
        warm_rows < plain_rows,
        format!(
            "exec.rows_scanned_per_query: warm-reuse {warm_rows} < no-sketch-scan {plain_rows}"
        ),
    );
    let maintained = med("mixed-read-write", "catalog.invalidated")
        + med("mixed-read-write", "catalog.extended");
    check(
        false,
        maintained > 0.0,
        format!("mixed-read-write: catalog.invalidated + catalog.extended = {maintained} > 0"),
    );
    let mut expect = |workload: &str, metric: &str, ok: &dyn Fn(f64) -> bool, what: &str| {
        let value = med(workload, metric);
        check(
            false,
            ok(value),
            format!("{workload}: {metric} = {value} {what}"),
        );
    };
    expect("warm-reuse", "catalog.hit_ratio", &|v| v >= 0.9, ">= 0.9");
    expect("warm-reuse", "server.captures_done", &|v| v == 0.0, "= 0");
    expect("no-sketch-scan", "catalog.hit_ratio", &|v| v == 0.0, "= 0");
    expect("cold-capture", "catalog.evictions", &|v| v > 0.0, "> 0");
    expect("cold-capture", "tuning.plain_share", &|v| v > 0.1, "> 0.1");
    expect("join-topk", "exec.scan_time_share", &|v| v < 0.5, "< 0.5");
    expect(
        "mixed-read-write",
        "server.commit_batch_mean",
        &|v| v > 1.0,
        "> 1",
    );
    for workload in ["warm-reuse", "no-sketch-scan"] {
        expect(
            workload,
            "trace.unattributed_share",
            &|v| v <= 0.15,
            "<= 0.15",
        );
        expect(workload, "trace.overhead_ratio", &|v| v <= 1.25, "<= 1.25");
    }
    checks
}

/// Run everything `reps` times, print one row per (workload, metric), write
/// the report. Returns the process exit code.
pub fn run_all(args: &AllArgs) -> i32 {
    let clock = Stopwatch::start();
    let mut values: Values = BTreeMap::new();
    let mut failed_ops = 0u64;
    let mut incorrect_runs = 0usize;
    for rep in 0..args.reps {
        for workload in WORKLOADS {
            for trace in [false, true] {
                eprintln!(
                    "[{}/{}] {} {}",
                    rep + 1,
                    args.reps,
                    workload.name,
                    if trace { "traced" } else { "untraced" }
                );
                let result = match child_run(workload.name, args.seed, args.seconds, trace) {
                    Ok(result) => result,
                    Err(e) => {
                        eprintln!("error: {e}");
                        return 1;
                    }
                };
                failed_ops += result.get("failed").and_then(Json::as_f64).unwrap_or(1.0) as u64;
                if result.get("correct").and_then(Json::as_bool) != Some(true) {
                    incorrect_runs += 1;
                }
                let metrics = result.get("metrics").map_or(&[][..], Json::members);
                for (name, metric) in metrics {
                    let value = metric
                        .get("value")
                        .and_then(Json::as_f64)
                        .unwrap_or(f64::NAN);
                    values
                        .entry((workload.name.to_string(), name.clone()))
                        .or_default()
                        .push(value);
                }
            }
        }
    }

    let section = |workload: &str, names: &[(&str, &str)]| {
        Json::obj(
            names
                .iter()
                .filter_map(|(name, unit)| {
                    let v = values.get(&(workload.to_string(), name.to_string()))?;
                    let (min, max) = min_max(v);
                    println!(
                        "{workload:<18} {name:<38} {:>16.6} {unit:<6} min {min:<14.6} max {max:<14.6} n={}",
                        median(v),
                        v.len()
                    );
                    Some((*name, summary(v, unit)))
                })
                .collect(),
        )
    };
    let e2e_names: Vec<(&str, &str)> = END_TO_END.iter().map(|m| (m.name, m.unit)).collect();
    let layer_names: Vec<(&str, &str)> = PER_LAYER.iter().map(|m| (m.name, m.unit)).collect();
    let workloads = Json::obj(
        WORKLOADS
            .iter()
            .map(|w| {
                (
                    w.name,
                    Json::obj(vec![
                        ("end_to_end", section(w.name, &e2e_names)),
                        ("per_layer", section(w.name, &layer_names)),
                    ]),
                )
            })
            .collect(),
    );

    let checks = purpose_checks(&values, failed_ops, incorrect_runs);
    let mut exit = 0;
    for check in &checks {
        println!(
            "{} {}",
            if check.ok { "ok    " } else { "FAILED" },
            check.name
        );
        if check.gates && !check.ok {
            exit = 1;
        }
    }
    let wall_s = clock.elapsed().as_secs_f64();
    println!(
        "one full invocation ({} repetition(s)) took {wall_s:.1} s",
        args.reps
    );

    let mut environment = environment(args);
    if let Json::Obj(members) = &mut environment {
        members.push(("wall_s".to_string(), Json::Num(wall_s)));
    }
    let report = Json::obj(vec![
        ("environment", environment),
        (
            "bounds",
            Json::obj(
                END_TO_END
                    .iter()
                    .map(|m| {
                        (
                            m.name,
                            Json::obj(vec![
                                ("better", Json::str(m.better.as_str())),
                                ("bound", Json::Num(m.bound)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
        ("workloads", workloads),
        (
            "checks",
            Json::Arr(
                checks
                    .iter()
                    .map(|c| {
                        Json::obj(vec![
                            ("check", Json::str(c.name.clone())),
                            ("ok", Json::Bool(c.ok)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    if let Some(out) = &args.out {
        if let Err(e) = std::fs::write(out, report.pretty()) {
            eprintln!("error: cannot write {}: {e}", out.display());
            return 1;
        }
    }
    exit
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The base's own run-to-run spread is wider than the bound.
    Unresolved,
}

/// Judge one metric: `base` and `change` are the values of the repetitions.
pub fn judge(base: &[f64], change: &[f64], better: Better, bound: f64) -> (f64, Verdict) {
    let ratio = median(change) / median(base);
    let worse_by = match better {
        Better::Lower => ratio - 1.0,
        Better::Higher => 1.0 - ratio,
    };
    let verdict = if worse_by > bound {
        Verdict::Regressed
    } else if quartile_spread(base).is_some_and(|spread| spread > bound) {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    };
    (ratio, verdict)
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    parse(&text).map_err(|e| format!("{} is not JSON: {e}", path.display()))
}

/// Compare report `b` against base `a`. Returns the process exit code:
/// 1 on any regression, 2 when the reports cannot be compared.
pub fn compare(a_path: &Path, b_path: &Path) -> i32 {
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    for key in ["clients", "seed", "run_seconds", "constants"] {
        let of = |report: &Json| report.get("environment").and_then(|e| e.get(key)).cloned();
        if of(&a) != of(&b) {
            eprintln!(
                "error: the reports differ in `{key}` ({:?} against {:?}); runs with different {key} do not compare",
                of(&a).map(|j| j.compact()),
                of(&b).map(|j| j.compact())
            );
            return 2;
        }
    }
    let values = |report: &Json, workload: &str, metric: &str| -> Option<Vec<f64>> {
        let values = report
            .get("workloads")?
            .get(workload)?
            .get("end_to_end")?
            .get(metric)?
            .get("values")?
            .as_arr()?;
        values.iter().map(Json::as_f64).collect()
    };
    println!(
        "{:<18} {:<16} {:>14} {:>14} {:>12}  verdict",
        "workload", "metric", "A (base)", "B", "B / A"
    );
    let mut regressed = 0;
    for workload in WORKLOADS {
        for metric in END_TO_END {
            let (Some(base), Some(change)) = (
                values(&a, workload.name, metric.name),
                values(&b, workload.name, metric.name),
            ) else {
                eprintln!(
                    "error: {} / {} is missing from a report",
                    workload.name, metric.name
                );
                return 2;
            };
            let (ratio, verdict) = judge(&base, &change, metric.better, metric.bound);
            regressed += usize::from(verdict == Verdict::Regressed);
            println!(
                "{:<18} {:<16} {:>14.4} {:>14.4} {:>12.4}  {} (bound {}, {} is better)",
                workload.name,
                metric.name,
                median(&base),
                median(&change),
                ratio,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                },
                metric.bound,
                metric.better.as_str()
            );
        }
    }
    i32::from(regressed > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_applies_direction_and_bound() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        // Throughput 12% lower: regressed at a 10% bound, fine at 15%.
        let slower = [88.0, 88.5, 87.5, 88.2, 87.8];
        assert_eq!(
            judge(&base, &slower, Better::Higher, 0.10).1,
            Verdict::Regressed
        );
        assert_eq!(judge(&base, &slower, Better::Higher, 0.15).1, Verdict::Ok);
        // The same numbers as a latency are an improvement.
        assert_eq!(judge(&base, &slower, Better::Lower, 0.10).1, Verdict::Ok);
        let (ratio, _) = judge(&base, &slower, Better::Lower, 0.10);
        assert!((ratio - 0.88).abs() < 1e-9);
    }

    #[test]
    fn a_noisy_base_leaves_the_metric_unresolved() {
        let noisy = [100.0, 140.0, 70.0, 125.0, 85.0];
        let same = [100.0, 100.0, 100.0, 100.0, 100.0];
        assert_eq!(
            judge(&noisy, &same, Better::Lower, 0.10).1,
            Verdict::Unresolved
        );
        // A regression beyond the bound is still called one.
        let worse = [150.0, 150.0, 150.0, 150.0, 150.0];
        assert_eq!(
            judge(&noisy, &worse, Better::Lower, 0.10).1,
            Verdict::Regressed
        );
    }
}
