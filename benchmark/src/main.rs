//! The PBDS serving benchmark.
//!
//! ```text
//! benchmark --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]
//! benchmark all [--seed N] [--seconds S] [--reps R] [--out FILE]
//! benchmark compare A.json B.json
//! ```
//!
//! The first form is one run of one workload and ends by printing one JSON
//! object on the last line of standard output; `BENCHMARK.json` at the
//! repository root declares it. See the README beside `Cargo.toml`.

mod json;
mod report;
mod run;
mod spec;
mod stats;
#[cfg(test)]
mod tests;
mod trace;
mod traced;
mod workload;
mod write;

use json::Json;
use run::{run_untraced, Outcome, RunArgs};
use std::path::PathBuf;
use workload::{Kind, Scale};

const USAGE: &str = "usage:
  benchmark --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]
  benchmark all [--seed N] [--seconds S] [--reps R] [--out FILE]
  benchmark compare A.json B.json";

/// `--flag value` pairs of a command line.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut pairs = Vec::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let name = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
            let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
            pairs.push((name.to_string(), value.clone()));
        }
        Ok(Flags(pairs))
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn number<T: std::str::FromStr>(&self, name: &str, default: Option<T>) -> Result<T, String> {
        match self.get(name) {
            Some(text) => text
                .parse()
                .map_err(|_| format!("--{name} {text:?} is not a valid number")),
            None => default.ok_or_else(|| format!("--{name} is required")),
        }
    }

    fn only(&self, allowed: &[&str]) -> Result<(), String> {
        match self.0.iter().find(|(n, _)| !allowed.contains(&n.as_str())) {
            Some((name, _)) => Err(format!("unknown flag --{name}")),
            None => Ok(()),
        }
    }
}

pub fn result_json(outcome: &Outcome) -> Json {
    Json::obj(vec![
        ("correct", Json::Bool(outcome.correct)),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        (
            "metrics",
            Json::obj(
                outcome
                    .metrics
                    .iter()
                    .map(|m| {
                        (
                            m.name,
                            Json::obj(vec![
                                ("value", Json::Num(m.value)),
                                ("unit", Json::str(m.unit)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
}

fn one_run(flags: &Flags) -> Result<i32, String> {
    flags.only(&["workload", "seed", "seconds", "trace", "out"])?;
    let name = flags.get("workload").ok_or("--workload is required")?;
    let kind = Kind::from_name(name).ok_or_else(|| {
        let known: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
        format!(
            "unknown workload {name:?}; the workloads are {}",
            known.join(", ")
        )
    })?;
    let seconds: f64 = flags.number("seconds", Some(spec::RUN_SECONDS as f64))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} is outside (0, 600]"));
    }
    let trace = match flags.get("trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace {other:?} is neither 0 nor 1")),
    };
    let cwd = std::env::current_dir().map_err(|e| format!("no working directory: {e}"))?;
    let args = RunArgs {
        kind,
        seed: flags.number("seed", Some(1))?,
        seconds,
        trace,
        out: flags.get("out").map(PathBuf::from),
        scale: Scale::Full,
        tmp_root: cwd.join(".bench_tmp"),
    };
    let outcome = if args.trace {
        traced::run_traced(&args)
    } else {
        run_untraced(&args)
    };
    for note in &outcome.notes {
        eprintln!("{}: {note}", kind.name());
    }
    let result = result_json(&outcome);
    if let Some(out) = &args.out {
        let mut members = vec![
            ("workload", Json::str(kind.name())),
            ("seed", Json::Num(args.seed as f64)),
            ("seconds", Json::Num(args.seconds)),
            ("result", result.clone()),
        ];
        if args.trace {
            members.push(("spans", trace::spans_to_json(&outcome.spans)));
        }
        std::fs::write(out, Json::obj(members).pretty())
            .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    }
    println!("{}", result.compact());
    Ok(0)
}

fn dispatch(args: &[String]) -> Result<i32, String> {
    match args.first().map(String::as_str) {
        Some("all") => {
            let flags = Flags::parse(&args[1..])?;
            flags.only(&["seed", "seconds", "reps", "out"])?;
            Ok(report::run_all(&report::AllArgs {
                seed: flags.number("seed", Some(1))?,
                seconds: flags.number("seconds", Some(spec::RUN_SECONDS))?,
                reps: flags.number("reps", Some(1))?,
                out: flags.get("out").map(PathBuf::from),
            }))
        }
        Some("compare") => match &args[1..] {
            [a, b] => Ok(report::compare(a.as_ref(), b.as_ref())),
            _ => Err("compare takes exactly two report files".to_string()),
        },
        Some(_) => one_run(&Flags::parse(args)?),
        None => Err("no arguments".to_string()),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => std::process::exit(code),
        Err(message) => {
            eprintln!("error: {message}\n{USAGE}");
            std::process::exit(2);
        }
    }
}
