//! Ordered secondary indexes over single columns.
//!
//! The "Postgres-like" engine profile uses these indexes to answer the range
//! predicates that PBDS derives from provenance sketches (Sec. 8), which is
//! what makes a selective sketch pay off.
//!
//! An index is an immutable, `Arc`-shared **base** — the sorted keys with
//! their row ids laid out back to back — plus what has happened since the
//! base was written: a small **delta** holding the rows appended, and the
//! short list of base rows the table has **dropped**. Two versions of an
//! index share their base and differ in these two small parts, which is all
//! an append or a delete touches and all a fork copies. A delete shifts every
//! row id behind the removed row down; rather than rewriting the base, reads
//! translate a base id through the dropped list (a row is where it was, less
//! the dropped rows in front of it). Both parts are folded into a new base —
//! one linear pass, no sorting — once the delta holds more than a fixed
//! fraction of the base's rows or the dropped list passes a fixed length,
//! which bounds what a read pays for them and amortises the pass.

use crate::relation::Row;
use crate::schema::Schema;
use crate::value::Value;
use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::Arc;

/// The delta is merged into the base once it holds more than one
/// `MERGE_DIVISOR`-th of the base's rows.
const MERGE_DIVISOR: usize = 8;

/// The base is rewritten once the table has dropped more than this many of
/// its rows: a read searches the dropped list once per base row id it
/// returns.
const DROPPED_MAX: usize = 256;

/// Sorted keys with their row ids back to back: the ids of `keys[k]` are
/// `rids[offsets[k]..offsets[k + 1]]`, ascending.
#[derive(Debug)]
struct Postings {
    keys: Vec<Value>,
    offsets: Vec<u32>,
    rids: Vec<u32>,
}

impl Default for Postings {
    fn default() -> Self {
        Postings::with_capacity(0, 0)
    }
}

impl Postings {
    fn with_capacity(keys: usize, rids: usize) -> Self {
        let mut offsets = Vec::with_capacity(keys + 1);
        offsets.push(0);
        Postings {
            keys: Vec::with_capacity(keys),
            offsets,
            rids: Vec::with_capacity(rids),
        }
    }

    /// Add the next key in key order; a key without ids is not stored.
    fn push(&mut self, key: &Value, rids: impl IntoIterator<Item = u32>) {
        self.rids.extend(rids);
        if self.rids.len() > self.offsets[self.keys.len()] as usize {
            self.keys.push(key.clone());
            self.offsets.push(self.rids.len() as u32);
        }
    }

    fn rids_of(&self, k: usize) -> &[u32] {
        &self.rids[self.offsets[k] as usize..self.offsets[k + 1] as usize]
    }

    /// Positions `[from, to)` of the keys inside the inclusive range.
    fn key_span(&self, lo: Option<&Value>, hi: Option<&Value>) -> (usize, usize) {
        let from = lo.map_or(0, |lo| self.keys.partition_point(|k| k < lo));
        let to = hi.map_or(self.keys.len(), |hi| self.keys.partition_point(|k| k <= hi));
        (from, to.max(from))
    }
}

/// An ordered index mapping column values to the row ids holding them.
#[derive(Debug, Clone, Default)]
pub struct OrderedIndex {
    column: String,
    /// Position of `column` in the schema the index was built under.
    position: usize,
    /// Postings of the first `base_rows` rows the table had when the base
    /// was written, under the row ids they had then.
    base: Arc<Postings>,
    base_rows: usize,
    /// The ids (as in `base`, ascending) of base rows the table has dropped
    /// since.
    dropped: Vec<u32>,
    /// Rows appended since `base` was written, under their current ids; these
    /// exceed every current id of a base row, so a key's ids are its base
    /// ids followed by its delta ids.
    delta: BTreeMap<Value, Vec<u32>>,
    delta_rows: usize,
    indexed_rows: usize,
}

impl OrderedIndex {
    /// Build an index on `column` over the given rows. NULLs are not indexed
    /// (consistent with typical B-tree range-scan semantics for our purposes).
    pub fn build<'a>(
        schema: &Schema,
        rows: impl IntoIterator<Item = &'a Row>,
        column: &str,
    ) -> Option<Self> {
        let position = schema.index_of(column)?;
        let mut indexed_rows = 0;
        let mut entries: Vec<(&Value, u32)> = Vec::new();
        for row in rows {
            if !row[position].is_null() {
                entries.push((&row[position], indexed_rows as u32));
            }
            indexed_rows += 1;
        }
        let mut base = Postings::with_capacity(0, entries.len());
        // Integer keys — ids, the usual case — are copied out and sorted as
        // integers: sorting through the references costs a cache miss per
        // comparison, several times the price.
        let ints = entries.iter().map(|&(v, rid)| match v {
            Value::Int(i) => Some((*i, rid)),
            _ => None,
        });
        if let Some(mut ints) = ints.collect::<Option<Vec<(i64, u32)>>>() {
            ints.sort_unstable();
            for key in ints.chunk_by(|a, b| a.0 == b.0) {
                base.push(&Value::Int(key[0].0), key.iter().map(|&(_, rid)| rid));
            }
        } else {
            entries.sort_unstable_by(|a, b| a.0.cmp(b.0).then(a.1.cmp(&b.1)));
            for key in entries.chunk_by(|a, b| a.0 == b.0) {
                base.push(key[0].0, key.iter().map(|&(_, rid)| rid));
            }
        }
        Some(OrderedIndex {
            column: column.to_string(),
            position,
            base: Arc::new(base),
            base_rows: indexed_rows,
            indexed_rows,
            ..OrderedIndex::default()
        })
    }

    /// Index rows appended at the tail of the table: they take the row ids
    /// from [`OrderedIndex::indexed_rows`] on. The result equals a
    /// from-scratch build over all rows.
    pub(crate) fn append<'a>(&mut self, rows: impl IntoIterator<Item = &'a Row>) {
        for row in rows {
            let v = &row[self.position];
            if !v.is_null() {
                let rid = self.indexed_rows as u32;
                match self.delta.get_mut(v) {
                    Some(rids) => rids.push(rid),
                    None => {
                        self.delta.insert(v.clone(), vec![rid]);
                    }
                }
                self.delta_rows += 1;
            }
            self.indexed_rows += 1;
        }
        if self.delta_rows * MERGE_DIVISOR > self.base.rids.len() {
            self.rewrite_base();
        }
    }

    /// Drop the given rows (ascending row ids) and shift the ids of the rows
    /// behind them down, as the table did. The result equals a from-scratch
    /// build over the remaining rows.
    pub(crate) fn remove(&mut self, removed: &[u32]) {
        // Current ids below this belong to base rows, the rest to the delta.
        let base_now = (self.base_rows - self.dropped.len()) as u32;
        let in_base = &removed[..removed.partition_point(|&r| r < base_now)];
        // A base row's id in `base` is its current id plus the dropped rows
        // in front of it. `in_base` ascends, so one walk finds them all.
        let mut passed = 0;
        let newly_dropped: Vec<u32> = in_base
            .iter()
            .map(|&r| {
                let mut id = r + passed as u32;
                while self.dropped.get(passed).is_some_and(|&d| d <= id) {
                    passed += 1;
                    id += 1;
                }
                id
            })
            .collect();
        self.dropped.extend(newly_dropped);
        self.dropped.sort_unstable();
        // Delta ids are current ids: patch them here and now.
        if !self.delta.is_empty() {
            self.delta.retain(|_, rids| {
                rids.retain_mut(|rid| {
                    let before = removed.partition_point(|&r| r < *rid);
                    let kept = removed.get(before) != Some(rid);
                    *rid -= before as u32;
                    kept
                });
                !rids.is_empty()
            });
            self.delta_rows = self.delta.values().map(Vec::len).sum();
        }
        self.indexed_rows -= removed.len();
        if self.dropped.len() > DROPPED_MAX {
            self.rewrite_base();
        }
    }

    /// Where the row with id `id` in `base` is now, if the table still has
    /// it.
    fn current(&self, id: u32) -> Option<u32> {
        if self.dropped.first().is_none_or(|&d| id < d) {
            return Some(id); // nothing in front of it was dropped
        }
        let before = self.dropped.partition_point(|&d| d < id);
        (self.dropped.get(before) != Some(&id)).then(|| id - before as u32)
    }

    /// Fold the delta and the dropped list into a new base.
    fn rewrite_base(&mut self) {
        let mut merged = Postings::with_capacity(
            self.base.keys.len() + self.delta.len(),
            self.base.rids.len() + self.delta_rows,
        );
        self.for_each_key(None, None, |key, base, delta| {
            let base = base.iter().filter_map(|&id| self.current(id));
            merged.push(key, base.chain(delta.iter().copied()));
        });
        self.base = Arc::new(merged);
        self.base_rows = self.indexed_rows;
        self.dropped.clear();
        self.delta.clear();
        self.delta_rows = 0;
    }

    /// Visit the keys inside the inclusive range in key order, each with its
    /// ids in the base (as written there: see [`OrderedIndex::current`]) and
    /// in the delta. Either list may be empty, not both.
    fn for_each_key(
        &self,
        lo: Option<&Value>,
        hi: Option<&Value>,
        mut visit: impl FnMut(&Value, &[u32], &[u32]),
    ) {
        let (mut k, to) = self.base.key_span(lo, hi);
        let bounds = (
            lo.map_or(Bound::Unbounded, Bound::Included),
            hi.map_or(Bound::Unbounded, Bound::Included),
        );
        // An inverted range selects nothing; `BTreeMap::range` would panic.
        let inverted = matches!((lo, hi), (Some(lo), Some(hi)) if lo > hi);
        let delta = (!inverted).then(|| self.delta.range::<Value, _>(bounds));
        for (key, rids) in delta.into_iter().flatten() {
            while k < to && self.base.keys[k] < *key {
                visit(&self.base.keys[k], self.base.rids_of(k), &[]);
                k += 1;
            }
            if k < to && self.base.keys[k] == *key {
                visit(key, self.base.rids_of(k), rids);
                k += 1;
            } else {
                visit(key, &[], rids);
            }
        }
        for k in k..to {
            visit(&self.base.keys[k], self.base.rids_of(k), &[]);
        }
    }

    /// The indexed column name.
    pub fn column(&self) -> &str {
        &self.column
    }

    /// Number of distinct keys.
    pub fn num_keys(&self) -> usize {
        let mut keys = 0;
        self.for_each_key(None, None, |_, base, delta| {
            let live = !delta.is_empty() || base.iter().any(|&id| self.current(id).is_some());
            keys += usize::from(live);
        });
        keys
    }

    /// Number of rows in the table the index describes.
    pub fn indexed_rows(&self) -> usize {
        self.indexed_rows
    }

    /// Visit the current ids of the rows whose value lies in the inclusive
    /// range `[lo, hi]`, in key order.
    fn for_each_rid(&self, lo: Option<&Value>, hi: Option<&Value>, mut visit: impl FnMut(u32)) {
        self.for_each_key(lo, hi, |_, base, delta| {
            if self.dropped.is_empty() {
                base.iter().copied().for_each(&mut visit);
            } else {
                base.iter()
                    .filter_map(|&id| self.current(id))
                    .for_each(&mut visit);
            }
            delta.iter().copied().for_each(&mut visit);
        });
    }

    /// Row ids whose value lies in the inclusive range `[lo, hi]` (`None`
    /// bounds are unbounded). Results are returned in key order.
    pub fn range(&self, lo: Option<&Value>, hi: Option<&Value>) -> Vec<u32> {
        let mut out = Vec::new();
        self.for_each_rid(lo, hi, |rid| out.push(rid));
        out
    }

    /// The rows matching any of the given inclusive ranges, as a bitmap over
    /// the table's row ids: bit `r % 64` of word `r / 64` is set for each
    /// matching row `r`. Its set bits, read in order, are the deduplicated,
    /// sorted row ids, so the caller scans rows in storage order at no sort.
    pub fn multi_range(&self, ranges: &[(Option<Value>, Option<Value>)]) -> Vec<u64> {
        let mut words = vec![0u64; self.indexed_rows.div_ceil(64)];
        for (lo, hi) in ranges {
            self.for_each_rid(lo.as_ref(), hi.as_ref(), |rid| {
                words[rid as usize / 64] |= 1 << (rid % 64);
            });
        }
        words
    }

    /// Row ids with exactly the given key value.
    pub fn lookup(&self, key: &Value) -> Vec<u32> {
        self.range(Some(key), Some(key))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::DataType;

    fn setup() -> (Schema, Vec<Row>) {
        let schema = Schema::from_pairs(&[("k", DataType::Int), ("s", DataType::Str)]);
        let rows = (0..100)
            .map(|i| vec![Value::Int(i % 10), Value::from(format!("r{i}"))])
            .collect();
        (schema, rows)
    }

    #[test]
    fn point_lookup_returns_all_matches() {
        let (schema, rows) = setup();
        let idx = OrderedIndex::build(&schema, &rows, "k").unwrap();
        assert_eq!(idx.lookup(&Value::Int(3)).len(), 10);
        assert!(idx.lookup(&Value::Int(99)).is_empty());
    }

    #[test]
    fn range_scan_is_inclusive() {
        let (schema, rows) = setup();
        let idx = OrderedIndex::build(&schema, &rows, "k").unwrap();
        let rids = idx.range(Some(&Value::Int(2)), Some(&Value::Int(4)));
        assert_eq!(rids.len(), 30);
        assert!(idx
            .range(Some(&Value::Int(4)), Some(&Value::Int(2)))
            .is_empty());
    }

    #[test]
    fn unbounded_range_returns_everything_non_null() {
        let (schema, rows) = setup();
        let idx = OrderedIndex::build(&schema, &rows, "k").unwrap();
        assert_eq!(idx.range(None, None).len(), 100);
    }

    /// The row ids a [`OrderedIndex::multi_range`] bitmap holds, in order.
    fn set_rows(words: &[u64]) -> Vec<u32> {
        (0..words.len() * 64)
            .filter(|&r| words[r / 64] >> (r % 64) & 1 == 1)
            .map(|r| r as u32)
            .collect()
    }

    #[test]
    fn multi_range_dedups_and_sorts() {
        let (schema, rows) = setup();
        let idx = OrderedIndex::build(&schema, &rows, "k").unwrap();
        let rids = set_rows(&idx.multi_range(&[
            (Some(Value::Int(0)), Some(Value::Int(1))),
            (Some(Value::Int(1)), Some(Value::Int(2))),
        ]));
        assert_eq!(rids.len(), 30);
        assert!(rids.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn multi_range_is_the_sorted_union_of_its_ranges() {
        let (schema, rows) = setup();
        let mut idx = OrderedIndex::build(&schema, &rows[..95], "k").unwrap();
        idx.append(&rows[95..]);
        idx.remove(&[3, 13, 40, 41, 97]);
        assert!(!idx.delta.is_empty() && !idx.dropped.is_empty());
        let v = |i| Some(Value::Int(i));
        for ranges in [
            vec![],
            vec![(v(2), v(5)), (v(4), v(7))],
            vec![(None, v(3)), (v(2), None)],
            vec![(None, None), (v(1), v(1))],
            vec![(v(6), v(4))],
            vec![(v(8), v(9)), (v(0), v(0)), (v(3), v(3))],
            vec![(v(-5), v(-1)), (v(10), None)],
        ] {
            let mut union: Vec<u32> = ranges
                .iter()
                .flat_map(|(lo, hi)| idx.range(lo.as_ref(), hi.as_ref()))
                .collect();
            union.sort_unstable();
            union.dedup();
            assert_eq!(set_rows(&idx.multi_range(&ranges)), union, "{ranges:?}");
        }
    }

    #[test]
    fn nulls_are_not_indexed() {
        let schema = Schema::from_pairs(&[("k", DataType::Int)]);
        let rows = vec![vec![Value::Null], vec![Value::Int(1)]];
        let idx = OrderedIndex::build(&schema, &rows, "k").unwrap();
        assert_eq!(idx.range(None, None), vec![1]);
    }

    /// Everything a caller can ask of two indexes agrees.
    fn assert_same_answers(idx: &OrderedIndex, fresh: &OrderedIndex) {
        assert_eq!(idx.indexed_rows(), fresh.indexed_rows());
        assert_eq!(idx.num_keys(), fresh.num_keys());
        assert_eq!(idx.range(None, None), fresh.range(None, None));
        for k in -1..11 {
            let key = Value::Int(k);
            assert_eq!(idx.lookup(&key), fresh.lookup(&key));
            assert_eq!(idx.range(Some(&key), None), fresh.range(Some(&key), None));
            assert_eq!(idx.range(None, Some(&key)), fresh.range(None, Some(&key)));
        }
    }

    #[test]
    fn extend_equals_from_scratch_build() {
        let (schema, rows) = setup();
        // Small appends stay in the delta, large ones are merged into a new
        // base; both must read like a fresh build.
        for first in [0usize, 60, 97] {
            let mut idx = OrderedIndex::build(&schema, &rows[..first], "k").unwrap();
            let base = Arc::clone(&idx.base);
            idx.append(&rows[first..]);
            assert_eq!(Arc::ptr_eq(&base, &idx.base), first == 97, "first={first}");
            assert_same_answers(&idx, &OrderedIndex::build(&schema, &rows, "k").unwrap());
        }
    }

    #[test]
    fn remove_patches_row_ids_like_a_rebuild() {
        let (schema, rows) = setup();
        for removed in [
            vec![0u32],
            vec![99],
            vec![3, 13, 14, 50],
            (0..100).collect(),
        ] {
            let mut idx = OrderedIndex::build(&schema, &rows[..95], "k").unwrap();
            idx.append(&rows[95..]); // leave something in the delta
            idx.remove(&removed);
            let left: Vec<Row> = rows
                .iter()
                .enumerate()
                .filter(|(i, _)| !removed.contains(&(*i as u32)))
                .map(|(_, r)| r.clone())
                .collect();
            assert_same_answers(&idx, &OrderedIndex::build(&schema, &left, "k").unwrap());
        }
        // Removing every row of a key removes the key.
        let mut idx = OrderedIndex::build(&schema, &rows, "k").unwrap();
        idx.remove(&(0..100).filter(|i| i % 10 == 3).collect::<Vec<u32>>());
        assert_eq!(idx.num_keys(), 9);
    }

    #[test]
    fn removes_and_appends_interleave_like_a_rebuild() {
        let schema = Schema::from_pairs(&[("k", DataType::Int)]);
        let row = |i: usize| vec![Value::Int((i * 7 % 10) as i64)];
        let mut model: Vec<Row> = (0..2_000).map(row).collect();
        let mut idx = OrderedIndex::build(&schema, &model, "k").unwrap();
        let base = Arc::clone(&idx.base);
        // Single-row deletes all over the table, a few rows appended between
        // them: the base is shared until the dropped list is folded in.
        for step in 0..DROPPED_MAX + 40 {
            let doomed = [step * 13 % model.len(), model.len() - 1 - step % 3];
            let mut doomed: Vec<u32> = doomed.iter().map(|&d| d as u32).collect();
            doomed.sort_unstable();
            doomed.dedup();
            for &d in doomed.iter().rev() {
                model.remove(d as usize);
            }
            idx.remove(&doomed);
            if step % 4 == 0 {
                let more: Vec<Row> = (0..3).map(|i| row(step + i)).collect();
                idx.append(&more);
                model.extend(more);
            }
            if step % 16 == 0 {
                assert_same_answers(&idx, &OrderedIndex::build(&schema, &model, "k").unwrap());
            }
            if step == 16 {
                assert!(Arc::ptr_eq(&base, &idx.base) && !idx.dropped.is_empty());
            }
        }
        assert_same_answers(&idx, &OrderedIndex::build(&schema, &model, "k").unwrap());
        assert!(!Arc::ptr_eq(&base, &idx.base));
    }

    #[test]
    fn missing_column_yields_none() {
        let (schema, rows) = setup();
        assert!(OrderedIndex::build(&schema, &rows, "missing").is_none());
    }
}
