//! Block-level zone maps (small materialized aggregates / BRIN-style min-max
//! summaries).
//!
//! The paper's "use" phase (Sec. 8) relies on the host DBMS exploiting zone
//! maps or indexes to skip data that does not satisfy the range conditions
//! derived from a provenance sketch. This module provides that physical
//! design artifact for our engine: tables are divided into blocks of at most
//! `block_size` rows — the chunks of the row store — and for each block we
//! keep per-column min/max values. A scan with a range predicate can then
//! skip whole blocks whose zone does not intersect the predicate's ranges.
//! Blocks carry their own `start..end`: a delete shortens the block it hits
//! and leaves every other block as it was, so blocks need not all be full.

use crate::relation::Row;
use crate::schema::Schema;
use crate::value::Value;
use std::sync::Arc;

/// Default number of rows per zone-map block.
pub const DEFAULT_BLOCK_SIZE: usize = 1024;

/// Min/max summary of one column within one block.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnZone {
    /// Minimum non-null value in the block (None when all values are NULL).
    pub min: Option<Value>,
    /// Maximum non-null value in the block.
    pub max: Option<Value>,
}

impl ColumnZone {
    pub(crate) fn empty() -> Self {
        ColumnZone {
            min: None,
            max: None,
        }
    }

    pub(crate) fn observe(&mut self, v: &Value) {
        if v.is_null() {
            return;
        }
        match &self.min {
            Some(m) if v >= m => {}
            _ => self.min = Some(v.clone()),
        }
        match &self.max {
            Some(m) if v <= m => {}
            _ => self.max = Some(v.clone()),
        }
    }

    /// Could a value inside `[lo, hi]` (inclusive; `None` = unbounded) exist
    /// in this block? Conservative: returns true when unknown.
    pub fn may_intersect(&self, lo: Option<&Value>, hi: Option<&Value>) -> bool {
        let (bmin, bmax) = match (&self.min, &self.max) {
            (Some(a), Some(b)) => (a, b),
            // All-NULL or empty block: no non-null value can match a range.
            _ => return false,
        };
        if let Some(lo) = lo {
            if bmax < lo {
                return false;
            }
        }
        if let Some(hi) = hi {
            if bmin > hi {
                return false;
            }
        }
        true
    }
}

/// Per-column zones and NULL counts of a run of rows of the given arity.
pub(crate) fn summarize(rows: &[Row], arity: usize) -> (Vec<ColumnZone>, Vec<usize>) {
    let mut zones = vec![ColumnZone::empty(); arity];
    let mut nulls = vec![0; arity];
    for row in rows {
        for (c, v) in row.iter().enumerate() {
            if v.is_null() {
                nulls[c] += 1;
            } else {
                zones[c].observe(v);
            }
        }
    }
    (zones, nulls)
}

/// Zone map for a contiguous block of rows.
#[derive(Debug, Clone)]
pub struct BlockZone {
    /// Index of the first row of the block.
    pub start: usize,
    /// One-past-the-last row of the block.
    pub end: usize,
    /// One zone per column (aligned with the table schema). Shared with the
    /// row-store chunk the block summarises.
    pub columns: Arc<[ColumnZone]>,
}

/// Zone maps for an entire table.
#[derive(Debug, Clone, Default)]
pub struct ZoneMap {
    block_size: usize,
    blocks: Vec<BlockZone>,
}

impl ZoneMap {
    /// Build zone maps over `rows` with the given block size.
    pub fn build(schema: &Schema, rows: &[Row], block_size: usize) -> Self {
        assert!(block_size > 0, "block size must be positive");
        let arity = schema.arity();
        let blocks = rows
            .chunks(block_size)
            .enumerate()
            .map(|(i, part)| BlockZone {
                start: i * block_size,
                end: i * block_size + part.len(),
                columns: summarize(part, arity).0.into(),
            })
            .collect();
        ZoneMap { block_size, blocks }
    }

    /// The zone map made of already summarised blocks, which must tile the
    /// table in order; none is longer than `block_size`.
    pub(crate) fn from_blocks(block_size: usize, blocks: Vec<BlockZone>) -> Self {
        ZoneMap { block_size, blocks }
    }

    /// The most rows a block holds (see [`BlockZone::start`] /
    /// [`BlockZone::end`] for what each one does hold).
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// All blocks.
    pub fn blocks(&self) -> &[BlockZone] {
        &self.blocks
    }

    /// Number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Given a column index and a set of inclusive ranges, return the blocks
    /// that may contain matching rows (the rest can be skipped).
    ///
    /// `ranges` uses `None` bounds for ±infinity.
    pub fn candidate_blocks(
        &self,
        column: usize,
        ranges: &[(Option<Value>, Option<Value>)],
    ) -> Vec<&BlockZone> {
        self.blocks
            .iter()
            .filter(|b| {
                let zone = &b.columns[column];
                ranges
                    .iter()
                    .any(|(lo, hi)| zone.may_intersect(lo.as_ref(), hi.as_ref()))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::DataType;

    fn rows(n: usize) -> Vec<Row> {
        (0..n).map(|i| vec![Value::Int(i as i64)]).collect()
    }

    fn schema() -> Schema {
        Schema::from_pairs(&[("a", DataType::Int)])
    }

    #[test]
    fn builds_expected_block_count() {
        let zm = ZoneMap::build(&schema(), &rows(2500), 1000);
        assert_eq!(zm.num_blocks(), 3);
        assert_eq!(zm.blocks()[0].start, 0);
        assert_eq!(zm.blocks()[0].end, 1000);
        assert_eq!(zm.blocks()[2].end, 2500);
    }

    #[test]
    fn zones_track_min_max() {
        let zm = ZoneMap::build(&schema(), &rows(2000), 1000);
        let b0 = &zm.blocks()[0].columns[0];
        assert_eq!(b0.min, Some(Value::Int(0)));
        assert_eq!(b0.max, Some(Value::Int(999)));
        let b1 = &zm.blocks()[1].columns[0];
        assert_eq!(b1.min, Some(Value::Int(1000)));
        assert_eq!(b1.max, Some(Value::Int(1999)));
    }

    #[test]
    fn candidate_blocks_skip_non_matching() {
        let zm = ZoneMap::build(&schema(), &rows(10_000), 1000);
        let ranges = vec![(Some(Value::Int(2500)), Some(Value::Int(2600)))];
        let cands = zm.candidate_blocks(0, &ranges);
        assert_eq!(cands.len(), 1);
        assert_eq!(cands[0].start, 2000);
    }

    #[test]
    fn multiple_ranges_union_blocks() {
        let zm = ZoneMap::build(&schema(), &rows(10_000), 1000);
        let ranges = vec![
            (Some(Value::Int(0)), Some(Value::Int(10))),
            (Some(Value::Int(9500)), None),
        ];
        let cands = zm.candidate_blocks(0, &ranges);
        assert_eq!(cands.len(), 2);
    }

    #[test]
    fn unbounded_range_keeps_all_blocks() {
        let zm = ZoneMap::build(&schema(), &rows(5000), 1000);
        let cands = zm.candidate_blocks(0, &[(None, None)]);
        assert_eq!(cands.len(), 5);
    }

    #[test]
    fn extend_matches_from_scratch_build() {
        // A table's zone map after an append — assembled from the row
        // store's chunks, the last of which the append refilled — must equal
        // a fresh build over all rows.
        for initial in [0usize, 999, 1000, 1500, 2000] {
            let all = rows(2750);
            let mut b = crate::table::TableBuilder::new("t", schema());
            b.block_size(1000).extend(all[..initial].iter().cloned());
            let mut t = b.build();
            let before = t.zone_map().unwrap();
            t.append_rows(all[initial..].to_vec()).unwrap();
            let zm = t.zone_map().unwrap();
            let fresh = ZoneMap::build(&schema(), &all, 1000);
            assert_eq!(zm.num_blocks(), fresh.num_blocks(), "initial={initial}");
            for (a, b) in zm.blocks().iter().zip(fresh.blocks()) {
                assert_eq!((a.start, a.end), (b.start, b.end), "initial={initial}");
                assert_eq!(a.columns, b.columns, "initial={initial}");
            }
            // The map handed out before the append still describes the rows
            // it was built over.
            assert_eq!(before.blocks().last().map_or(0, |b| b.end), initial);
        }
    }

    #[test]
    fn null_only_block_never_matches() {
        let rows: Vec<Row> = (0..10).map(|_| vec![Value::Null]).collect();
        let zm = ZoneMap::build(&schema(), &rows, 4);
        let cands = zm.candidate_blocks(0, &[(None, None)]);
        assert!(cands.is_empty());
    }
}
