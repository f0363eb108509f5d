//! Table scans with access-path selection.
//!
//! This is where PBDS's benefit materializes: when the predicate above a scan
//! constrains a column to a set of value ranges (either because the original
//! query had such a condition, or because PBDS injected the range condition
//! derived from a provenance sketch, Sec. 8), the scan can answer it through
//! an ordered index or skip zone-map blocks instead of reading every row.

use pbds_algebra::{BinOp, Expr};
use pbds_storage::Value;

/// Inclusive value range used for probing indexes and zone maps.
pub type InclusiveRange = (Option<Value>, Option<Value>);

/// Ranges on a single column extracted from a predicate.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnRanges {
    /// The constrained column.
    pub column: String,
    /// Union of inclusive ranges the column must fall into.
    pub ranges: Vec<InclusiveRange>,
    /// True when the ranges came from a PBDS sketch predicate
    /// ([`Expr::InRanges`]); such ranges are preferred for access-path
    /// selection because they are typically the most selective.
    pub from_sketch: bool,
}

fn cmp_to_range(op: BinOp, v: &Value) -> Option<InclusiveRange> {
    match op {
        BinOp::Eq => Some((Some(v.clone()), Some(v.clone()))),
        BinOp::Lt | BinOp::Le => Some((None, Some(v.clone()))),
        BinOp::Gt | BinOp::Ge => Some((Some(v.clone()), None)),
        _ => None,
    }
}

/// Intersect two inclusive ranges.
fn intersect(a: &InclusiveRange, b: &InclusiveRange) -> InclusiveRange {
    let lo = match (&a.0, &b.0) {
        (Some(x), Some(y)) => Some(x.clone().max(y.clone())),
        (Some(x), None) | (None, Some(x)) => Some(x.clone()),
        (None, None) => None,
    };
    let hi = match (&a.1, &b.1) {
        (Some(x), Some(y)) => Some(x.clone().min(y.clone())),
        (Some(x), None) | (None, Some(x)) => Some(x.clone()),
        (None, None) => None,
    };
    (lo, hi)
}

/// Ranges implied by a *single conjunct* for a single column, if any.
fn conjunct_ranges(e: &Expr) -> Option<ColumnRanges> {
    match e {
        Expr::InRanges { column, ranges, .. } => Some(ColumnRanges {
            column: column.clone(),
            ranges: ranges.iter().map(|r| r.inclusive_bounds()).collect(),
            from_sketch: true,
        }),
        // A single-column membership list (composite/PSMIX sketch over one
        // attribute) is a union of point ranges.
        Expr::InList { columns, keys } if columns.len() == 1 => Some(ColumnRanges {
            column: columns[0].clone(),
            ranges: keys
                .iter()
                .map(|k| (Some(k[0].clone()), Some(k[0].clone())))
                .collect(),
            from_sketch: true,
        }),
        Expr::Binary { op, left, right } if op.is_comparison() => match (&**left, &**right) {
            (Expr::Column(c), Expr::Literal(v)) => cmp_to_range(*op, v).map(|r| ColumnRanges {
                column: c.clone(),
                ranges: vec![r],
                from_sketch: false,
            }),
            (Expr::Literal(v), Expr::Column(c)) => {
                cmp_to_range(op.flipped(), v).map(|r| ColumnRanges {
                    column: c.clone(),
                    ranges: vec![r],
                    from_sketch: false,
                })
            }
            _ => None,
        },
        Expr::And(es) => {
            // A conjunction constraining one column (e.g. BETWEEN) intersects
            // into a single range.
            let mut acc: Option<ColumnRanges> = None;
            for part in es {
                let cr = conjunct_ranges(part)?;
                if cr.ranges.len() != 1 {
                    return None;
                }
                match &mut acc {
                    None => acc = Some(cr),
                    Some(prev) => {
                        if prev.column != cr.column {
                            return None;
                        }
                        prev.ranges[0] = intersect(&prev.ranges[0], &cr.ranges[0]);
                        prev.from_sketch |= cr.from_sketch;
                    }
                }
            }
            acc
        }
        Expr::Or(es) => {
            // A disjunction of range conditions on the same column unions the
            // ranges (this is the "OR of BETWEENs" form of a sketch filter).
            let mut column: Option<String> = None;
            let mut ranges = Vec::new();
            let mut from_sketch = false;
            for part in es {
                let cr = conjunct_ranges(part)?;
                match &column {
                    None => column = Some(cr.column.clone()),
                    Some(c) if *c != cr.column => return None,
                    _ => {}
                }
                ranges.extend(cr.ranges);
                from_sketch |= cr.from_sketch;
            }
            column.map(|column| ColumnRanges {
                column,
                ranges,
                from_sketch,
            })
        }
        _ => None,
    }
}

/// Extract, from a (possibly conjunctive) predicate, the column-range
/// constraint the scan should use for skipping. When several columns are
/// constrained, sketch-derived constraints win, then constraints with both
/// bounds, then anything else.
pub fn extract_skip_ranges(pred: &Expr) -> Option<ColumnRanges> {
    let mut per_column: Vec<ColumnRanges> = Vec::new();
    for conjunct in pred.conjuncts() {
        if let Some(cr) = conjunct_ranges(conjunct) {
            if let Some(existing) = per_column.iter_mut().find(|c| c.column == cr.column) {
                // Multiple conjuncts on the same column: if both are single
                // ranges, intersect; otherwise keep the more specific (sketch)
                // one.
                if existing.ranges.len() == 1 && cr.ranges.len() == 1 {
                    existing.ranges[0] = intersect(&existing.ranges[0], &cr.ranges[0]);
                    existing.from_sketch |= cr.from_sketch;
                } else if cr.from_sketch && !existing.from_sketch {
                    *existing = cr;
                }
            } else {
                per_column.push(cr);
            }
        }
    }
    per_column.sort_by_key(|cr| {
        let bounded = cr
            .ranges
            .iter()
            .all(|(lo, hi)| lo.is_some() && hi.is_some());
        // Lower key = preferred.
        (
            if cr.from_sketch { 0 } else { 1 },
            if bounded { 0 } else { 1 },
        )
    });
    per_column.into_iter().next()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::physical::{execute, lower_scan, NoTag};
    use crate::profile::EngineProfile;
    use crate::stats::ExecStats;
    use pbds_algebra::{col, lit};
    use pbds_storage::{DataType, Database, Row, Schema, Table, TableBuilder, ValueRange};

    /// Scan a base table with an optional pushed-down predicate through the
    /// access path the profile allows, as a one-operator physical plan.
    fn scan_table(
        table: &Table,
        predicate: Option<&Expr>,
        profile: EngineProfile,
        stats: &mut ExecStats,
    ) -> Vec<Row> {
        let plan = lower_scan(table, predicate.cloned(), profile);
        let mut db = Database::new();
        db.add_table(table.clone());
        let done = execute(&db, &plan, &NoTag, stats).unwrap();
        done.relation.into_rows()
    }

    fn table(indexed: bool) -> Table {
        let schema = Schema::from_pairs(&[("id", DataType::Int), ("grp", DataType::Int)]);
        let mut b = TableBuilder::new("t", schema);
        b.block_size(100);
        if indexed {
            b.index("id");
        }
        for i in 0..10_000i64 {
            b.push(vec![Value::Int(i), Value::Int(i % 13)]);
        }
        b.build()
    }

    #[test]
    fn extract_single_comparison() {
        let cr = extract_skip_ranges(&col("id").gt(lit(50))).unwrap();
        assert_eq!(cr.column, "id");
        assert_eq!(cr.ranges, vec![(Some(Value::Int(50)), None)]);
    }

    #[test]
    fn extract_between_intersects_bounds() {
        let cr = extract_skip_ranges(&col("id").between(lit(10), lit(20))).unwrap();
        assert_eq!(
            cr.ranges,
            vec![(Some(Value::Int(10)), Some(Value::Int(20)))]
        );
    }

    #[test]
    fn extract_prefers_sketch_ranges() {
        let sketch = Expr::InRanges {
            column: "grp".into(),
            ranges: vec![ValueRange {
                lo: None,
                hi: Some(Value::Int(3)),
            }],
        };
        let pred = col("id").gt(lit(0)).and(sketch);
        let cr = extract_skip_ranges(&pred).unwrap();
        assert_eq!(cr.column, "grp");
        assert!(cr.from_sketch);
    }

    #[test]
    fn extract_or_of_ranges_on_same_column() {
        let pred = col("id")
            .between(lit(1), lit(5))
            .or(col("id").between(lit(100), lit(200)));
        let cr = extract_skip_ranges(&pred).unwrap();
        assert_eq!(cr.ranges.len(), 2);
    }

    #[test]
    fn extract_rejects_or_over_different_columns() {
        let pred = col("id").gt(lit(1)).or(col("grp").lt(lit(5)));
        assert!(extract_skip_ranges(&pred).is_none());
    }

    #[test]
    fn index_scan_reads_fewer_rows() {
        let t = table(true);
        let pred = col("id").between(lit(100), lit(199));
        let mut stats = ExecStats::default();
        let rows = scan_table(&t, Some(&pred), EngineProfile::Indexed, &mut stats);
        assert_eq!(rows.len(), 100);
        assert_eq!(stats.index_scans, 1);
        assert_eq!(stats.rows_scanned, 100);
    }

    #[test]
    fn zone_map_scan_skips_blocks() {
        let t = table(false);
        let pred = col("id").between(lit(100), lit(199));
        let mut stats = ExecStats::default();
        let rows = scan_table(&t, Some(&pred), EngineProfile::Indexed, &mut stats);
        assert_eq!(rows.len(), 100);
        assert!(
            stats.blocks_skipped >= 98,
            "skipped {} blocks",
            stats.blocks_skipped
        );
        assert!(stats.rows_scanned < 10_000);
    }

    #[test]
    fn columnar_profile_always_full_scans() {
        let t = table(true);
        let pred = col("id").between(lit(100), lit(199));
        let mut stats = ExecStats::default();
        let rows = scan_table(&t, Some(&pred), EngineProfile::ColumnarScan, &mut stats);
        assert_eq!(rows.len(), 100);
        assert_eq!(stats.full_scans, 1);
        assert_eq!(stats.rows_scanned, 10_000);
    }

    #[test]
    fn scan_without_predicate_returns_everything() {
        let t = table(true);
        let mut stats = ExecStats::default();
        let rows = scan_table(&t, None, EngineProfile::Indexed, &mut stats);
        assert_eq!(rows.len(), 10_000);
    }

    #[test]
    fn access_paths_agree_on_results() {
        let t_idx = table(true);
        let t_zm = table(false);
        let pred = col("id")
            .between(lit(500), lit(777))
            .and(col("grp").eq(lit(3)));
        let mut s1 = ExecStats::default();
        let mut s2 = ExecStats::default();
        let mut s3 = ExecStats::default();
        let r1 = scan_table(&t_idx, Some(&pred), EngineProfile::Indexed, &mut s1);
        let r2 = scan_table(&t_zm, Some(&pred), EngineProfile::Indexed, &mut s2);
        let r3 = scan_table(&t_idx, Some(&pred), EngineProfile::ColumnarScan, &mut s3);
        assert_eq!(r1, r2);
        assert_eq!(r1, r3);
    }
}
