//! Measurement helpers of the `paper_figures` binary.

use pbds_algebra::LogicalPlan;
use pbds_core::{Pbds, PbdsError, UsePredicateStyle};
use pbds_provenance::ProvenanceSketch;
use pbds_storage::PartitionRef;
use pbds_telemetry::clock;
use pbds_workloads::{BenchQuery, SketchSpec};
use std::time::Duration;

/// Median wall-clock time of `runs` executions of `f` (at least one run).
pub fn median_time<T>(runs: usize, mut f: impl FnMut() -> T) -> Duration {
    let runs = runs.max(1);
    let mut times = Vec::with_capacity(runs);
    for _ in 0..runs {
        let start = clock::Stopwatch::start();
        std::hint::black_box(f());
        times.push(start.elapsed());
    }
    times.sort();
    times[times.len() / 2]
}

/// One measured data point for a query under a given sketch configuration.
#[derive(Debug, Clone)]
pub struct QueryMeasurement {
    /// Query name (e.g. `Q3`).
    pub query: String,
    /// Number of fragments of the partition (0 = no PBDS).
    pub fragments: usize,
    /// Plain execution time (no PBDS).
    pub plain: Duration,
    /// Execution time using the sketch.
    pub with_sketch: Duration,
    /// Capture time (instrumented execution).
    pub capture: Duration,
    /// Sketch selectivity: fraction of the sketched table covered.
    pub selectivity: f64,
    /// Rows scanned without / with the sketch.
    pub rows_scanned_plain: u64,
    /// Rows scanned when using the sketch.
    pub rows_scanned_sketch: u64,
}

impl QueryMeasurement {
    /// Speed-up factor of using the sketch (>1 means faster).
    pub fn speedup(&self) -> f64 {
        self.plain.as_secs_f64() / self.with_sketch.as_secs_f64().max(1e-9)
    }

    /// Capture overhead relative to the plain execution (1.0 = +100 %).
    pub fn capture_overhead(&self) -> f64 {
        self.capture.as_secs_f64() / self.plain.as_secs_f64().max(1e-9) - 1.0
    }
}

/// Build the partition requested by a [`BenchQuery`]'s sketch spec.
pub fn build_partition(
    pbds: &Pbds,
    spec: &SketchSpec,
    fragments: usize,
) -> Result<PartitionRef, PbdsError> {
    match spec {
        SketchSpec::Range { table, attr } => pbds.range_partition(table, attr, fragments),
        SketchSpec::Composite { table, attrs } => {
            let attrs: Vec<&str> = attrs.iter().map(|s| s.as_str()).collect();
            pbds.composite_partition(table, &attrs)
        }
    }
}

/// Capture a sketch for a benchmark query and measure plain / capture /
/// sketch-use execution times.
pub fn measure_query(
    pbds: &Pbds,
    query: &BenchQuery,
    fragments: usize,
    style: UsePredicateStyle,
    runs: usize,
) -> Result<QueryMeasurement, PbdsError> {
    let plan: LogicalPlan = query.default_plan();
    let partition = build_partition(pbds, &query.sketch, fragments)?;

    // Plain execution.
    let plain_out = pbds.execute(&plan)?;
    let plain = median_time(runs, || pbds.execute(&plan).expect("plain execution"));

    // Capture (also measures the instrumented execution time).
    let capture_start = clock::Stopwatch::start();
    let captured = pbds.capture(&plan, &[partition])?;
    let capture = capture_start.elapsed();
    let sketch = &captured.sketches[0];
    let selectivity = sketch.selectivity(pbds.db())?;

    // Use.
    let sketch_out = pbds.execute_with_sketches_styled(&plan, &captured.sketches, style)?;
    debug_assert!(sketch_out.relation.bag_eq(&plain_out.relation));
    let with_sketch = median_time(runs, || {
        pbds.execute_with_sketches_styled(&plan, &captured.sketches, style)
            .expect("sketch execution")
    });

    Ok(QueryMeasurement {
        query: query.name.clone(),
        fragments: sketch.num_fragments(),
        plain,
        with_sketch,
        capture,
        selectivity,
        rows_scanned_plain: plain_out.stats.rows_scanned,
        rows_scanned_sketch: sketch_out.stats.rows_scanned,
    })
}

/// Capture only (used by the capture-overhead figures).
pub fn capture_sketch_for(
    pbds: &Pbds,
    query: &BenchQuery,
    fragments: usize,
) -> Result<(ProvenanceSketch, Duration), PbdsError> {
    let plan = query.default_plan();
    let partition = build_partition(pbds, &query.sketch, fragments)?;
    let start = clock::Stopwatch::start();
    let captured = pbds.capture(&plan, &[partition])?;
    Ok((
        captured.sketches.into_iter().next().expect("one sketch"),
        start.elapsed(),
    ))
}

/// Format a duration in milliseconds with three significant digits.
pub fn fmt_ms(d: Duration) -> String {
    format!("{:>9.3}", d.as_secs_f64() * 1e3)
}

/// Format a fraction as a percentage.
pub fn fmt_pct(f: f64) -> String {
    format!("{:>6.1}%", f * 100.0)
}

/// Simple fixed-width table printer.
pub struct TablePrinter {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TablePrinter {
    /// Start a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        TablePrinter {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Add a row (must match the header arity).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len());
        self.rows.push(cells);
    }

    /// Render the table as a string.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_printer_aligns_columns() {
        let mut t = TablePrinter::new(&["query", "time"]);
        t.row(vec!["Q3".into(), "1.5".into()]);
        t.row(vec!["Q18-long-name".into(), "12.25".into()]);
        let s = t.render();
        assert!(s.contains("Q18-long-name"));
        assert!(s.lines().count() >= 4);
    }

    #[test]
    fn median_time_is_positive() {
        let d = median_time(3, || (0..1000).sum::<u64>());
        assert!(d > Duration::ZERO);
    }
}
