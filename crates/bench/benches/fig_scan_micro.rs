//! Filter-scan microbenchmark: rows/sec of the row-at-a-time expression
//! interpreter vs the vectorized columnar scan path, at selectivities
//! 0.1% / 1% / 10% / 100% on the `crimes` fact table, in two shapes:
//!
//! - **scan**: `filter(id < bound)` materializing the selected rows. This is
//!   the original regression gate: the vectorized path must sustain at least
//!   **2×** the row interpreter's single-thread throughput at ≤ 10%
//!   selectivity.
//! - **scan+agg**: the same filter feeding a global `SUM(year), COUNT(id)`.
//!   Here the bitmap-driven aggregation pushdown never materializes rows, so
//!   the vectorized path must hold **≥ 2× even at 100% selectivity** — the
//!   regime where plain row materialization erased most of the win.
//!
//! Both gates run in `--quick` smoke mode too (CI fails loudly on
//! regression). Full runs also record per-column chunk encodings and write
//! `BENCH_scan.json` at the workspace root so the repository tracks a
//! baseline.
//!
//! Run with: `cargo bench --bench fig_scan_micro [-- --quick]`

use pbds_algebra::{col, lit, AggExpr, AggFunc, LogicalPlan};
use pbds_bench::harness::{median_time, TablePrinter};
use pbds_exec::{execute, lower, EngineProfile, ExecOptions, ExecStats, NoTag};
use pbds_storage::Database;
use pbds_workloads::crimes;
use std::io::Write;

const SELECTIVITIES: [f64; 4] = [0.001, 0.01, 0.1, 1.0];
/// Acceptance bar for the plain scan shape: vectorized ≥ 2× row interpreter
/// at ≤ 10% selectivity.
const REQUIRED_SPEEDUP: f64 = 2.0;
const GATED_SELECTIVITY: f64 = 0.1 + 1e-12;
/// Acceptance bar for the scan+agg shape: the aggregation pushdown must keep
/// a ≥ 2× win even when the filter selects every row.
const REQUIRED_SPEEDUP_AT_FULL_SELECTIVITY: f64 = 2.0;

#[derive(Clone, Copy, PartialEq)]
enum Shape {
    Scan,
    ScanAgg,
}

impl Shape {
    fn name(self) -> &'static str {
        match self {
            Shape::Scan => "scan",
            Shape::ScanAgg => "scan+agg",
        }
    }
}

struct Measurement {
    shape: Shape,
    selectivity: f64,
    rows_out: u64,
    row_rps: f64,
    vec_rps: f64,
}

impl Measurement {
    fn speedup(&self) -> f64 {
        self.vec_rps / self.row_rps.max(1e-9)
    }
}

fn measure(db: &Database, rows: usize, shape: Shape, selectivity: f64, runs: usize) -> Measurement {
    // `id` is sequential 0..rows, so a half-open upper bound gives an exact
    // selectivity; the ColumnarScan profile forbids skipping, so both paths
    // visit every row and the comparison isolates evaluation strategy.
    let bound = ((rows as f64) * selectivity).round() as i64;
    let filtered = LogicalPlan::scan("crimes").filter(col("id").lt(lit(bound)));
    let plan = match shape {
        Shape::Scan => filtered,
        Shape::ScanAgg => filtered.aggregate(
            vec![],
            vec![
                AggExpr::new(AggFunc::Sum, col("year"), "sum_year"),
                AggExpr::new(AggFunc::Count, col("id"), "n"),
            ],
        ),
    };
    let physical = lower(db, &plan, EngineProfile::ColumnarScan).expect("lower");

    let run = |vectorized: bool| {
        // Pin the path: adaptive lowering would (correctly) pick the row loop
        // at 100% selectivity, but the bench wants a clean A/B comparison.
        let opts = ExecOptions {
            vectorized,
            adaptive: false,
            ..ExecOptions::default()
        };
        let mut out = None;
        let elapsed = median_time(runs, || {
            let mut stats = ExecStats::default();
            let done = execute(db, &physical, &NoTag, &opts, &mut stats).unwrap();
            out = Some(done.relation);
        });
        let rps = rows as f64 / elapsed.as_secs_f64().max(1e-9);
        (rps, out.expect("at least one run"))
    };

    let (row_rps, row_rel) = run(false);
    let (vec_rps, vec_rel) = run(true);
    assert_eq!(
        row_rel,
        vec_rel,
        "paths disagree at shape {} selectivity {selectivity}",
        shape.name()
    );
    let rows_out = match shape {
        Shape::Scan => row_rel.len() as u64,
        // For the aggregate shape, report input rows selected, not the
        // single output row.
        Shape::ScanAgg => bound.max(0) as u64,
    };
    Measurement {
        shape,
        selectivity,
        rows_out,
        row_rps,
        vec_rps,
    }
}

fn encodings_json(db: &Database) -> String {
    let table = db.table("crimes").unwrap();
    let chunks = table.columnar_chunks();
    let entries: Vec<String> = table
        .schema()
        .columns()
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let counts: Vec<String> = chunks
                .column_encoding_counts(i)
                .iter()
                .map(|(enc, n)| format!("\"{enc}\": {n}"))
                .collect();
            format!("    \"{}\": {{{}}}", c.name, counts.join(", "))
        })
        .collect();
    format!("{{\n{}\n  }}", entries.join(",\n"))
}

fn write_json(path: &str, db: &Database, rows: usize, quick: bool, measurements: &[Measurement]) {
    let entries: Vec<String> = measurements
        .iter()
        .map(|m| {
            format!(
                "    {{\"shape\": \"{}\", \"selectivity\": {}, \"rows_out\": {}, \"row_interpreter_rows_per_sec\": {:.0}, \"vectorized_rows_per_sec\": {:.0}, \"speedup\": {:.2}}}",
                m.shape.name(),
                m.selectivity,
                m.rows_out,
                m.row_rps,
                m.vec_rps,
                m.speedup()
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"fig_scan_micro\",\n  \"table\": \"crimes\",\n  \"rows\": {rows},\n  \"quick\": {quick},\n  \"required_speedup_at_low_selectivity\": {REQUIRED_SPEEDUP},\n  \"required_speedup_at_full_selectivity\": {REQUIRED_SPEEDUP_AT_FULL_SELECTIVITY},\n  \"column_encodings\": {},\n  \"measurements\": [\n{}\n  ]\n}}\n",
        encodings_json(db),
        entries.join(",\n")
    );
    match std::fs::File::create(path).and_then(|mut f| f.write_all(json.as_bytes())) {
        Ok(()) => eprintln!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (rows, runs) = if quick { (60_000, 7) } else { (200_000, 15) };
    let db = crimes::generate(&crimes::CrimesConfig {
        rows,
        ..Default::default()
    });
    // Warm the columnar projection outside the timed region (it is built
    // lazily once per table and cached).
    let _ = db.table("crimes").unwrap().columnar_chunks();

    eprintln!(
        "== fig_scan_micro ({} rows, {} runs/point{})",
        rows,
        runs,
        if quick { ", --quick" } else { "" }
    );
    let mut table = TablePrinter::new(&[
        "shape",
        "selectivity",
        "rows selected",
        "row interp (Mrows/s)",
        "vectorized (Mrows/s)",
        "speedup",
    ]);
    let mut measurements = Vec::new();
    for shape in [Shape::Scan, Shape::ScanAgg] {
        for sel in SELECTIVITIES {
            let m = measure(&db, rows, shape, sel, runs);
            table.row(vec![
                shape.name().to_string(),
                format!("{:.1}%", sel * 100.0),
                m.rows_out.to_string(),
                format!("{:.1}", m.row_rps / 1e6),
                format!("{:.1}", m.vec_rps / 1e6),
                format!("{:.2}x", m.speedup()),
            ]);
            measurements.push(m);
        }
    }
    eprintln!("\n{}", table.render());
    // Full runs record the baseline at the workspace root (cargo runs
    // benches with the package dir as cwd) next to README/CHANGES; quick
    // smoke runs (CI) must not clobber it with reduced-scale numbers.
    if quick {
        eprintln!("--quick: skipping BENCH_scan.json baseline update");
    } else {
        let out = format!("{}/../../BENCH_scan.json", env!("CARGO_MANIFEST_DIR"));
        write_json(&out, &db, rows, quick, &measurements);
    }

    for m in &measurements {
        match m.shape {
            Shape::Scan if m.selectivity <= GATED_SELECTIVITY => {
                assert!(
                    m.speedup() >= REQUIRED_SPEEDUP,
                    "vectorized filter-scan regressed: {:.2}x < {REQUIRED_SPEEDUP}x \
                     at selectivity {:.1}%",
                    m.speedup(),
                    m.selectivity * 100.0
                );
            }
            Shape::ScanAgg if m.selectivity >= 1.0 => {
                assert!(
                    m.speedup() >= REQUIRED_SPEEDUP_AT_FULL_SELECTIVITY,
                    "aggregation pushdown regressed: {:.2}x < \
                     {REQUIRED_SPEEDUP_AT_FULL_SELECTIVITY}x at 100% selectivity",
                    m.speedup()
                );
            }
            _ => {}
        }
    }
    eprintln!(
        "scan-path gates passed: scan >= {REQUIRED_SPEEDUP}x at <= 10% selectivity, \
         scan+agg >= {REQUIRED_SPEEDUP_AT_FULL_SELECTIVITY}x at 100% selectivity"
    );
}
