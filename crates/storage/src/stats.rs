//! Table statistics: per-column min/max bounds and equi-depth histograms.
//!
//! The paper uses the DBMS's one-dimensional equi-depth histograms to choose
//! the ranges of a partition (Sec. 9.3) and uses min/max statistics to bound
//! attribute values in the safety check's `pred(Q)` construction (Sec. 5.2).
//!
//! Everything in [`ColumnStats`] merges: a table's statistics are the fold of
//! its chunks' summaries. The number of distinct values does not, so it is
//! not here — ask [`Table::distinct`](crate::table::Table::distinct), which
//! counts only when somebody asks.

use crate::relation::Row;
use crate::schema::Schema;
use crate::value::Value;
use crate::zonemap::{summarize, ColumnZone};
use std::collections::{HashMap, HashSet};

/// Statistics for a single column.
#[derive(Debug, Clone)]
pub struct ColumnStats {
    /// Smallest non-null value observed.
    pub min: Option<Value>,
    /// Largest non-null value observed.
    pub max: Option<Value>,
    /// Number of NULLs.
    pub null_count: usize,
    /// Total number of rows.
    pub row_count: usize,
}

impl ColumnStats {
    /// True when every non-null value is `>= 0` (used by the safety rules'
    /// monotone-aggregation cases).
    pub fn non_negative(&self) -> bool {
        matches!(&self.min, Some(v) if *v >= Value::Int(0))
    }

    /// True when every non-null value is `> 0`.
    pub fn strictly_positive(&self) -> bool {
        matches!(&self.min, Some(v) if *v > Value::Int(0))
    }
}

/// An equi-depth (equi-height) histogram over one column.
///
/// The histogram stores `n+1` boundary values delimiting `n` buckets that
/// each contain approximately the same number of rows. PBDS uses these
/// boundaries directly as the ranges of a range partition so every fragment
/// covers roughly the same number of tuples (Sec. 9.3).
#[derive(Debug, Clone, PartialEq)]
pub struct EquiDepthHistogram {
    boundaries: Vec<Value>,
}

impl EquiDepthHistogram {
    /// Build an equi-depth histogram with (at most) `buckets` buckets from the
    /// non-null values of a column. Returns `None` when there are no non-null
    /// values or `buckets == 0`.
    pub fn build(values: &[Value], buckets: usize) -> Option<Self> {
        Self::build_from_iter(values.iter(), buckets)
    }

    /// Like [`EquiDepthHistogram::build`], but over borrowed values — lets
    /// callers feed a column straight from the row store (e.g.
    /// `Table::column_iter`) without materializing a cloned `Vec<Value>`.
    pub fn build_from_iter<'a>(
        values: impl IntoIterator<Item = &'a Value>,
        buckets: usize,
    ) -> Option<Self> {
        if buckets == 0 {
            return None;
        }
        let mut sorted: Vec<&Value> = values.into_iter().filter(|v| !v.is_null()).collect();
        if sorted.is_empty() {
            return None;
        }
        sorted.sort();
        let n = sorted.len();
        let buckets = buckets.min(n).max(1);
        let mut boundaries = Vec::with_capacity(buckets + 1);
        boundaries.push(sorted[0].clone());
        for b in 1..buckets {
            let idx = (b * n) / buckets;
            let v = sorted[idx.min(n - 1)].clone();
            if &v > boundaries.last().unwrap() {
                boundaries.push(v);
            }
        }
        let last = sorted[n - 1].clone();
        if &last > boundaries.last().unwrap() {
            boundaries.push(last);
        }
        if boundaries.len() < 2 {
            // All values equal: single degenerate bucket.
            boundaries.push(boundaries[0].clone());
        }
        Some(EquiDepthHistogram { boundaries })
    }

    /// Bucket boundary values (length = number of buckets + 1).
    pub fn boundaries(&self) -> &[Value] {
        &self.boundaries
    }

    /// Number of buckets.
    pub fn num_buckets(&self) -> usize {
        self.boundaries.len() - 1
    }
}

/// Number of distinct non-null values among `values`.
pub(crate) fn count_distinct<'a>(values: impl IntoIterator<Item = &'a Value>) -> usize {
    let distinct: HashSet<&Value> = values.into_iter().filter(|v| !v.is_null()).collect();
    distinct.len()
}

/// Statistics for a whole table, keyed by column name.
#[derive(Debug, Clone, Default)]
pub struct TableStats {
    columns: HashMap<String, ColumnStats>,
    row_count: usize,
}

impl TableStats {
    /// Compute statistics for all columns of a table.
    pub fn compute(schema: &Schema, rows: &[Row]) -> Self {
        let (zones, nulls) = summarize(rows, schema.arity());
        Self::merge(schema, rows.len(), [(&zones[..], &nulls[..])])
    }

    /// The statistics of `row_count` rows from the per-column zones and NULL
    /// counts of the runs of rows that make them up.
    pub(crate) fn merge<'a>(
        schema: &Schema,
        row_count: usize,
        parts: impl IntoIterator<Item = (&'a [ColumnZone], &'a [usize])>,
    ) -> Self {
        let mut bounds = vec![ColumnZone::empty(); schema.arity()];
        let mut null_counts = vec![0; schema.arity()];
        for (zones, nulls) in parts {
            for (c, zone) in zones.iter().enumerate() {
                for bound in [&zone.min, &zone.max].into_iter().flatten() {
                    bounds[c].observe(bound);
                }
                null_counts[c] += nulls[c];
            }
        }
        let columns = schema
            .columns()
            .iter()
            .zip(bounds.into_iter().zip(null_counts))
            .map(|(col, (zone, null_count))| {
                let stats = ColumnStats {
                    min: zone.min,
                    max: zone.max,
                    null_count,
                    row_count,
                };
                (col.name.clone(), stats)
            })
            .collect();
        TableStats { columns, row_count }
    }

    /// Statistics for a column, if known.
    pub fn column(&self, name: &str) -> Option<&ColumnStats> {
        self.columns.get(name)
    }

    /// Total row count.
    pub fn row_count(&self) -> usize {
        self.row_count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::DataType;

    #[test]
    fn column_stats_min_max_distinct_nulls() {
        let schema = Schema::from_pairs(&[("a", DataType::Int)]);
        let rows: Vec<Row> = vec![
            vec![Value::Int(5)],
            vec![Value::Int(1)],
            vec![Value::Null],
            vec![Value::Int(5)],
        ];
        let stats = TableStats::compute(&schema, &rows);
        let a = stats.column("a").unwrap();
        assert_eq!(a.min, Some(Value::Int(1)));
        assert_eq!(a.max, Some(Value::Int(5)));
        assert_eq!(count_distinct(rows.iter().map(|r| &r[0])), 2);
        assert_eq!(a.null_count, 1);
        assert_eq!(stats.row_count(), 4);
    }

    #[test]
    fn non_negative_and_positive_flags() {
        let schema = Schema::from_pairs(&[("a", DataType::Int)]);
        let pos: Vec<Row> = vec![vec![Value::Int(2)], vec![Value::Int(3)]];
        let zero: Vec<Row> = vec![vec![Value::Int(0)], vec![Value::Int(3)]];
        let neg: Vec<Row> = vec![vec![Value::Int(-1)], vec![Value::Int(3)]];
        assert!(TableStats::compute(&schema, &pos)
            .column("a")
            .unwrap()
            .strictly_positive());
        let z = TableStats::compute(&schema, &zero);
        assert!(z.column("a").unwrap().non_negative());
        assert!(!z.column("a").unwrap().strictly_positive());
        assert!(!TableStats::compute(&schema, &neg)
            .column("a")
            .unwrap()
            .non_negative());
    }

    #[test]
    fn equi_depth_histogram_has_balanced_buckets() {
        let values: Vec<Value> = (0..1000).map(Value::Int).collect();
        let h = EquiDepthHistogram::build(&values, 10).unwrap();
        assert_eq!(h.num_buckets(), 10);
        assert_eq!(h.boundaries().first(), Some(&Value::Int(0)));
        assert_eq!(h.boundaries().last(), Some(&Value::Int(999)));
    }

    #[test]
    fn histogram_with_fewer_distinct_values_than_buckets() {
        let values: Vec<Value> = (0..100).map(|i| Value::Int(i % 3)).collect();
        let h = EquiDepthHistogram::build(&values, 50).unwrap();
        assert!(h.num_buckets() <= 3);
    }

    #[test]
    fn histogram_of_constant_column_is_degenerate() {
        let values: Vec<Value> = (0..10).map(|_| Value::Int(7)).collect();
        let h = EquiDepthHistogram::build(&values, 4).unwrap();
        assert_eq!(h.num_buckets(), 1);
    }

    #[test]
    fn histogram_skewed_data_still_covers_domain() {
        let mut values: Vec<Value> = (0..990).map(|_| Value::Int(1)).collect();
        values.extend((0..10).map(|i| Value::Int(1000 + i)));
        let h = EquiDepthHistogram::build(&values, 8).unwrap();
        assert_eq!(h.boundaries().first(), Some(&Value::Int(1)));
        assert_eq!(h.boundaries().last(), Some(&Value::Int(1009)));
    }

    #[test]
    fn histogram_empty_or_zero_buckets_is_none() {
        assert!(EquiDepthHistogram::build(&[], 4).is_none());
        assert!(EquiDepthHistogram::build(&[Value::Int(1)], 0).is_none());
        assert!(EquiDepthHistogram::build(&[Value::Null], 4).is_none());
    }
}
