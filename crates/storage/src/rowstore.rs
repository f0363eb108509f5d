//! The row store: a table's rows as immutable, `Arc`-shared chunks.
//!
//! A `RowStore` keeps the rows of a table, in table order, cut into chunks
//! of at most `block_size` rows. A chunk is never edited once it is shared:
//! cloning the store copies one pointer per chunk, an append rewrites only
//! the last chunk while it is short (and then starts new ones), and a delete
//! rewrites only the chunks that lose a row — every other chunk, before *and*
//! after, stays the very same allocation in every fork of the table. A chunk
//! a delete left short stays short (only the last chunk is ever refilled), so
//! row ids are resolved through the prefix sums of the chunk lengths rather
//! than by dividing by the block size.
//!
//! Because a chunk cannot change, everything derived from its rows — its
//! min / max / null-count summary and its encoded columnar projection — is
//! built at most once, lazily, and lives on the chunk, shared by every fork
//! that shares the chunk. The table assembles its zone map, columnar
//! projection and statistics from these per-chunk parts.

use crate::columnar::ColumnarChunk;
use crate::relation::Row;
use crate::zonemap::{summarize, ColumnZone};
use std::fmt;
use std::ops::{Bound, Index, RangeBounds};
use std::sync::{Arc, OnceLock};

/// Per-column summary of one chunk: the zone-map entry of its block and its
/// share of the table statistics.
#[derive(Debug)]
pub(crate) struct ChunkSummary {
    /// Min / max of the non-null values, per column.
    pub(crate) zones: Arc<[ColumnZone]>,
    /// Number of NULLs, per column.
    pub(crate) null_counts: Vec<usize>,
}

/// An immutable run of rows together with what has been derived from it.
#[derive(Debug)]
pub(crate) struct RowChunk {
    rows: Vec<Row>,
    summary: OnceLock<ChunkSummary>,
    /// The encoded projection, positioned where the first fork to ask for it
    /// had this chunk.
    columnar: OnceLock<Arc<ColumnarChunk>>,
}

impl RowChunk {
    fn new(rows: Vec<Row>) -> Self {
        debug_assert!(!rows.is_empty(), "the store keeps no empty chunk");
        RowChunk {
            rows,
            summary: OnceLock::new(),
            columnar: OnceLock::new(),
        }
    }

    pub(crate) fn rows(&self) -> &[Row] {
        &self.rows
    }

    pub(crate) fn summary(&self) -> &ChunkSummary {
        self.summary.get_or_init(|| {
            let (zones, null_counts) = summarize(&self.rows, self.rows[0].len());
            ChunkSummary {
                zones: zones.into(),
                null_counts,
            }
        })
    }

    /// The chunk's columnar projection for a table that has it at `start`.
    /// Encoded once; a fork that has the chunk elsewhere (a delete in front
    /// of it moved it) gets a re-positioned handle on the same columns.
    pub(crate) fn columnar(&self, start: usize) -> Arc<ColumnarChunk> {
        let built = self
            .columnar
            .get_or_init(|| Arc::new(ColumnarChunk::encode(&self.rows, start, true)));
        if built.start == start {
            Arc::clone(built)
        } else {
            Arc::new(built.at(start))
        }
    }
}

/// The rows of a table as shared immutable chunks (see the [module
/// docs](self)).
#[derive(Debug, Clone)]
pub(crate) struct RowStore {
    chunks: Vec<Arc<RowChunk>>,
    /// `starts[i]` is the table position of the first row of `chunks[i]`;
    /// one more entry at the end holds the row count.
    starts: Vec<usize>,
    block_size: usize,
}

impl RowStore {
    pub(crate) fn new(mut rows: Vec<Row>, block_size: usize) -> Self {
        assert!(block_size > 0, "block size must be positive");
        // Cut chunks off the back: `split_off` moves a chunk's rows in one
        // copy, where appending them one by one is what makes loading a
        // table measurably slower than keeping its vector whole.
        let mut chunks = Vec::with_capacity(rows.len().div_ceil(block_size));
        while rows.len() > block_size {
            let at = (rows.len() - 1) / block_size * block_size;
            chunks.push(Arc::new(RowChunk::new(rows.split_off(at))));
        }
        if !rows.is_empty() {
            // Not `rows` itself: its buffer is sized for the whole table.
            let mut first = Vec::with_capacity(rows.len());
            first.append(&mut rows);
            chunks.push(Arc::new(RowChunk::new(first)));
        }
        chunks.reverse();
        RowStore::of_chunks(chunks, block_size)
    }

    fn of_chunks(chunks: Vec<Arc<RowChunk>>, block_size: usize) -> Self {
        let mut starts = Vec::with_capacity(chunks.len() + 1);
        starts.push(0);
        for chunk in &chunks {
            starts.push(starts[starts.len() - 1] + chunk.rows.len());
        }
        RowStore {
            chunks,
            starts,
            block_size,
        }
    }

    pub(crate) fn len(&self) -> usize {
        *self.starts.last().expect("starts is never empty")
    }

    pub(crate) fn block_size(&self) -> usize {
        self.block_size
    }

    pub(crate) fn rows(&self) -> Rows<'_> {
        Rows {
            store: self,
            lo: 0,
            hi: self.len(),
        }
    }

    /// The chunks in table order, each with the position of its first row.
    pub(crate) fn chunks(&self) -> impl Iterator<Item = (usize, &RowChunk)> {
        self.starts
            .iter()
            .copied()
            .zip(self.chunks.iter().map(Arc::as_ref))
    }

    fn push_chunk(&mut self, rows: Vec<Row>) {
        self.starts.push(self.len() + rows.len());
        self.chunks.push(Arc::new(RowChunk::new(rows)));
    }

    /// Append rows at the end: the last chunk is refilled while it is short
    /// (copied first if another fork shares it), then new chunks follow.
    pub(crate) fn append(&mut self, rows: impl IntoIterator<Item = Row>) {
        let mut rows = rows.into_iter().peekable();
        if rows.peek().is_none() {
            return;
        }
        // Room for what is known to come, so a small append does not
        // allocate a whole block.
        let block_size = self.block_size;
        let room =
            move |held: usize, coming: usize| Vec::with_capacity((held + coming).min(block_size));
        let mut open = match self.chunks.last() {
            Some(last) if last.rows.len() < self.block_size => {
                let last = self.chunks.pop().expect("just seen");
                self.starts.pop();
                match Arc::try_unwrap(last) {
                    Ok(own) => own.rows,
                    Err(shared) => {
                        let mut copy = room(shared.rows.len(), rows.size_hint().0);
                        copy.extend_from_slice(&shared.rows);
                        copy
                    }
                }
            }
            _ => room(0, rows.size_hint().0),
        };
        while let Some(row) = rows.next() {
            if open.len() == self.block_size {
                let full = std::mem::replace(&mut open, room(0, 1 + rows.size_hint().0));
                self.push_chunk(full);
            }
            open.push(row);
        }
        self.push_chunk(open);
    }

    /// Remove every row `doomed` returns true for (called once per row, in
    /// table order). Only chunks that lose a row are rewritten; one that
    /// loses all of them is dropped. Returns the removed row ids, ascending.
    pub(crate) fn delete_where(&mut self, mut doomed: impl FnMut(&Row) -> bool) -> Vec<u32> {
        let mut removed = Vec::new();
        let mut kept = Vec::with_capacity(self.chunks.len());
        let mut hits: Vec<usize> = Vec::new();
        for (start, chunk) in self.starts.iter().zip(std::mem::take(&mut self.chunks)) {
            hits.clear();
            let rows = chunk.rows.iter().enumerate();
            hits.extend(rows.filter(|(_, row)| doomed(row)).map(|(i, _)| i));
            removed.extend(hits.iter().map(|&i| (start + i) as u32));
            if hits.is_empty() {
                kept.push(chunk);
            } else if hits.len() < chunk.rows.len() {
                let mut hits = hits.iter().peekable();
                let rows = chunk.rows.iter().enumerate();
                let survivors = rows.filter(|(i, _)| hits.next_if_eq(&i).is_none());
                let rows = survivors.map(|(_, row)| row.clone()).collect();
                kept.push(Arc::new(RowChunk::new(rows)));
            }
        }
        *self = RowStore::of_chunks(kept, self.block_size);
        removed
    }

    /// Cut the same rows into chunks of `block_size` (copies the table).
    pub(crate) fn rechunk(&mut self, block_size: usize) {
        *self = RowStore::new(self.rows().to_vec(), block_size);
    }
}

/// A borrowed view of a table's rows, or of a range of them, in table order.
///
/// Rows live in chunks, so this is not a slice: indexing resolves the chunk
/// first. [`Rows::iter`] and [`Rows::slices`] walk chunk by chunk and cost
/// what a slice walk costs; [`Rows::slice_at`] hands out the contiguous run
/// around one row for loops that stay near it.
#[derive(Clone, Copy)]
pub struct Rows<'a> {
    store: &'a RowStore,
    /// Table positions `[lo, hi)` the view covers.
    lo: usize,
    hi: usize,
}

impl<'a> Rows<'a> {
    /// Number of rows in the view.
    pub fn len(&self) -> usize {
        self.hi - self.lo
    }

    /// True when the view holds no rows.
    pub fn is_empty(&self) -> bool {
        self.lo == self.hi
    }

    /// The rows `range` of the view (positions relative to the view).
    /// Panics when the range reaches outside the view, like slicing does.
    pub fn range(&self, range: impl RangeBounds<usize>) -> Rows<'a> {
        let from = match range.start_bound() {
            Bound::Included(&s) => s,
            Bound::Excluded(&s) => s + 1,
            Bound::Unbounded => 0,
        };
        let to = match range.end_bound() {
            Bound::Included(&e) => e + 1,
            Bound::Excluded(&e) => e,
            Bound::Unbounded => self.len(),
        };
        assert!(
            from <= to && to <= self.len(),
            "row range {from}..{to} out of range for {} rows",
            self.len()
        );
        Rows {
            store: self.store,
            lo: self.lo + from,
            hi: self.lo + to,
        }
    }

    /// The longest contiguous run of rows around position `i`: the position
    /// of the run's first row and the run itself (the part of `i`'s chunk
    /// inside the view). Panics when `i` is out of range.
    pub fn slice_at(&self, i: usize) -> (usize, &'a [Row]) {
        assert!(
            i < self.len(),
            "row index {i} out of range for {} rows",
            self.len()
        );
        let at = self.lo + i;
        let c = self.store.starts.partition_point(|&s| s <= at) - 1;
        let start = self.store.starts[c];
        let from = start.max(self.lo);
        let to = self.store.starts[c + 1].min(self.hi);
        (
            from - self.lo,
            &self.store.chunks[c].rows[from - start..to - start],
        )
    }

    /// The view as its contiguous runs, one per chunk it overlaps, in order.
    pub fn slices(&self) -> RowSlices<'a> {
        RowSlices {
            rest: *self,
            chunk: self.store.starts.partition_point(|&s| s <= self.lo) - 1,
        }
    }

    /// Iterate the rows in order.
    pub fn iter(&self) -> RowsIter<'a> {
        RowsIter {
            runs: self.slices(),
            run: Default::default(),
        }
    }

    /// Copy the rows into a vector.
    pub fn to_vec(&self) -> Vec<Row> {
        let mut out = Vec::with_capacity(self.len());
        for run in self.slices() {
            out.extend_from_slice(run);
        }
        out
    }
}

impl Index<usize> for Rows<'_> {
    type Output = Row;

    fn index(&self, i: usize) -> &Row {
        let (first, run) = self.slice_at(i);
        &run[i - first]
    }
}

/// Iterator over the contiguous runs of a [`Rows`] view.
#[derive(Clone)]
pub struct RowSlices<'a> {
    /// The rows not yet handed out; they start in chunk `chunk`.
    rest: Rows<'a>,
    chunk: usize,
}

impl<'a> Iterator for RowSlices<'a> {
    type Item = &'a [Row];

    fn next(&mut self) -> Option<&'a [Row]> {
        if self.rest.is_empty() {
            return None;
        }
        let store = self.rest.store;
        let start = store.starts[self.chunk];
        let end = store.starts[self.chunk + 1].min(self.rest.hi);
        let run = &store.chunks[self.chunk].rows[self.rest.lo - start..end - start];
        self.rest.lo = end;
        self.chunk += 1;
        Some(run)
    }
}

/// Iterator over the rows of a [`Rows`] view.
#[derive(Clone)]
pub struct RowsIter<'a> {
    runs: RowSlices<'a>,
    run: std::slice::Iter<'a, Row>,
}

impl<'a> Iterator for RowsIter<'a> {
    type Item = &'a Row;

    fn next(&mut self) -> Option<&'a Row> {
        loop {
            if let Some(row) = self.run.next() {
                return Some(row);
            }
            self.run = self.runs.next()?.iter();
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.run.len() + self.runs.rest.len();
        (n, Some(n))
    }
}

impl ExactSizeIterator for RowsIter<'_> {}

impl<'a> IntoIterator for Rows<'a> {
    type Item = &'a Row;
    type IntoIter = RowsIter<'a>;

    fn into_iter(self) -> RowsIter<'a> {
        self.iter()
    }
}

impl PartialEq for Rows<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl PartialEq<[Row]> for Rows<'_> {
    fn eq(&self, other: &[Row]) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl PartialEq<&[Row]> for Rows<'_> {
    fn eq(&self, other: &&[Row]) -> bool {
        *self == **other
    }
}

impl PartialEq<Rows<'_>> for &Vec<Row> {
    fn eq(&self, other: &Rows<'_>) -> bool {
        *other == ***self
    }
}

impl fmt::Debug for Rows<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn rows(range: std::ops::Range<i64>) -> Vec<Row> {
        range.map(|i| vec![Value::Int(i)]).collect()
    }

    fn lens(store: &RowStore) -> Vec<usize> {
        store.chunks().map(|(_, c)| c.rows().len()).collect()
    }

    #[test]
    fn append_refills_the_last_chunk_then_starts_new_ones() {
        let mut store = RowStore::new(rows(0..10), 4);
        assert_eq!(lens(&store), [4, 4, 2]);
        store.append(rows(10..17));
        assert_eq!(lens(&store), [4, 4, 4, 4, 1]);
        assert_eq!(store.rows(), &rows(0..17)[..]);
        store.append(Vec::new());
        assert_eq!(store.len(), 17);
    }

    #[test]
    fn a_fork_shares_every_chunk_an_append_does_not_refill() {
        let base = RowStore::new(rows(0..10), 4);
        let mut fork = base.clone();
        fork.append(rows(10..12));
        assert!(Arc::ptr_eq(&base.chunks[0], &fork.chunks[0]));
        assert!(Arc::ptr_eq(&base.chunks[1], &fork.chunks[1]));
        assert!(!Arc::ptr_eq(&base.chunks[2], &fork.chunks[2]));
        assert_eq!(base.rows(), &rows(0..10)[..]);
        assert_eq!(fork.rows(), &rows(0..12)[..]);
    }

    #[test]
    fn delete_rewrites_only_the_chunks_that_lose_a_row() {
        let base = RowStore::new(rows(0..16), 4);
        let mut fork = base.clone();
        let removed = fork.delete_where(|r| matches!(r[0], Value::Int(5 | 8..=11)));
        assert_eq!(removed, [5, 8, 9, 10, 11]);
        // Chunk 1 is rewritten short, chunk 2 is gone, 0 and 3 are shared.
        assert_eq!(lens(&fork), [4, 3, 4]);
        assert!(Arc::ptr_eq(&base.chunks[0], &fork.chunks[0]));
        assert!(Arc::ptr_eq(&base.chunks[3], &fork.chunks[2]));
        let expected: Vec<Row> = rows(0..16)
            .into_iter()
            .filter(|r| !matches!(r[0], Value::Int(5 | 8..=11)))
            .collect();
        assert_eq!(fork.rows(), &expected[..]);
        assert_eq!(fork.rows()[4], vec![Value::Int(4)]);
        assert_eq!(fork.rows()[7], vec![Value::Int(12)]);
        // Only the last chunk is refilled; the short one in the middle stays.
        fork.append(rows(16..18));
        assert_eq!(lens(&fork), [4, 3, 4, 2]);
        assert_eq!(base.rows(), &rows(0..16)[..]);
    }

    #[test]
    fn views_index_iterate_and_slice_across_chunks() {
        let store = RowStore::new(rows(0..10), 4);
        let all = store.rows();
        assert_eq!(all.len(), 10);
        assert_eq!(all.iter().len(), 10);
        assert_eq!(all.to_vec(), rows(0..10));
        assert_eq!(
            all.slices().map(<[Row]>::len).collect::<Vec<_>>(),
            [4, 4, 2]
        );
        let mid = all.range(3..9);
        assert_eq!(mid, &rows(3..9)[..]);
        assert_eq!(mid[0], vec![Value::Int(3)]);
        assert_eq!(mid[5], vec![Value::Int(8)]);
        assert_eq!(mid.slice_at(2), (1, &rows(4..8)[..]));
        assert_eq!(mid.range(2..), &rows(5..9)[..]);
        assert!(mid.range(6..).is_empty());
        assert_eq!(format!("{:?}", all.range(..2)), "[[Int(0)], [Int(1)]]");
        assert!(RowStore::new(Vec::new(), 4).rows().is_empty());
    }

    #[test]
    fn rechunk_keeps_the_rows() {
        let mut store = RowStore::new(rows(0..10), 4);
        store.delete_where(|r| r[0] == Value::Int(1));
        store.rechunk(3);
        assert_eq!(lens(&store), [3, 3, 3]);
        assert_eq!(store.block_size(), 3);
    }
}
