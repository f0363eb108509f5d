//! Base tables: rows plus their physical design artifacts (zone maps,
//! ordered indexes, columnar chunks, statistics) and a mutation API.
//!
//! # Versions, forks and derived artifacts
//!
//! A table's rows live in a [row store](crate::rowstore) of immutable,
//! `Arc`-shared chunks, one per zone-map block. Cloning a table — which is
//! what `Database::table_mut` does when a commit batch forks the database —
//! copies pointers, not rows; the fork and the original then share every
//! chunk until one of them rewrites it. An append rewrites only the last
//! chunk (while it is short), a delete only the chunks that lose a row, so a
//! version somebody still holds pins only what later versions replaced.
//!
//! Everything else — the zone map, the columnar projection, the statistics
//! and the ordered indexes — is *derived*, and each derived piece hangs off
//! the thing it describes. A chunk owns its min / max / null-count summary
//! and its encoded columns: built at most once, lazily, and shared by every
//! fork that shares the chunk, so no version can ever see a stale one —
//! there is nothing to invalidate. [`Table::zone_map`],
//! [`Table::columnar_chunks`] and [`Table::stats`] assemble their result from
//! the chunks' parts in O(chunks) and keep it for this version of the table.
//! An ordered index is a shared immutable base plus a small delta: an append
//! adds to the delta, a delete patches the row ids
//! (see [`OrderedIndex`]).
//!
//! Rows change in exactly one place, `Versioned::mutate`, whose fields no
//! other code can reach: it applies the change, and if the change did
//! anything it advances the table's **epoch** and drops what was assembled
//! for the previous version. Epochs are drawn from one process-wide monotone
//! counter, so two tables (or two forks of one table) that diverged can never
//! reuse each other's epoch values — equal epochs always mean identical
//! content. The execution layer re-validates the epoch before trusting row
//! ids it resolved earlier.
//!
//! Next to the all-encompassing `epoch` the table keeps a **data epoch**
//! ([`Table::data_epoch`]) that only advances when row *content* changes
//! (append / delete), not on physical-design changes: provenance sketches
//! describe data, so the catalog layer stamps and validates them against the
//! data epoch — building an index must not strand every stored sketch.
//!
//! A row id is a row's position in table order. Chunks need not be full — a
//! delete leaves the chunk it hit short rather than shifting rows between
//! chunks — so positions are resolved through the chunks' own `start..end`,
//! never by dividing by the block size.

use crate::columnar::ColumnarChunks;
use crate::database::StorageError;
use crate::index::OrderedIndex;
use crate::relation::{Relation, Row};
use crate::rowstore::{RowStore, Rows};
use crate::schema::Schema;
use crate::stats::{count_distinct, TableStats};
use crate::value::Value;
use crate::zonemap::{BlockZone, ZoneMap, DEFAULT_BLOCK_SIZE};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Process-wide epoch source: every mutation (and every fresh table) draws
/// the next value, so epochs are unique across tables and copy-on-write
/// forks — equal epochs imply identical content.
static EPOCH_SOURCE: AtomicU64 = AtomicU64::new(1);

fn next_epoch() -> u64 {
    EPOCH_SOURCE.fetch_add(1, Ordering::Relaxed)
}

/// What a mutation did to the table; decides whether the *data* epoch
/// (which provenance sketches are validated against) advances with the
/// epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MutationKind {
    /// Rows were appended at the tail.
    Append,
    /// Rows were removed: the row ids behind them shifted.
    Delete,
    /// The physical design changed (block size, new index request): row
    /// content — and therefore the data epoch — is untouched.
    Design,
}

/// An owned, self-contained image of a table's durable state: everything a
/// snapshot must persist to reconstruct the table ([`Table::restore`]), and
/// nothing more — derived artifacts (zone maps, indexes, columnar chunks,
/// statistics) are *not* part of the image; they are re-declared here
/// (`with_zone_map`, `index_columns`, `block_size`) and built lazily after a
/// restore, as in a live table.
#[derive(Debug, Clone)]
pub struct TableImage {
    /// Table name.
    pub name: String,
    /// Table schema.
    pub schema: Schema,
    /// All rows, in storage order.
    pub rows: Vec<Row>,
    /// The table's epoch at image time (see [`Table::epoch`]).
    pub epoch: u64,
    /// The table's data epoch at image time (see [`Table::data_epoch`]).
    pub data_epoch: u64,
    /// Zone-map / columnar block size.
    pub block_size: usize,
    /// Whether a zone map is maintained.
    pub with_zone_map: bool,
    /// Columns with a maintained ordered index.
    pub index_columns: Vec<String>,
}

/// A maintained ordered index: built on first use, then kept in step with
/// the rows by every mutation.
#[derive(Debug, Clone)]
struct IndexSlot {
    column: String,
    index: OnceLock<Arc<OrderedIndex>>,
}

impl IndexSlot {
    fn new(column: &str) -> Self {
        IndexSlot {
            column: column.to_string(),
            index: OnceLock::new(),
        }
    }
}

/// What has been assembled from the chunks' parts for one version of a
/// table.
#[derive(Debug, Clone)]
struct Assembled {
    stats: OnceLock<Arc<TableStats>>,
    zone_map: OnceLock<Arc<ZoneMap>>,
    columnar: OnceLock<Arc<ColumnarChunks>>,
    /// Per column, the number of distinct non-null values — counted only
    /// when asked for ([`Table::distinct`]); it cannot be merged from parts.
    distinct: Vec<OnceLock<usize>>,
}

impl Assembled {
    fn nothing(arity: usize) -> Self {
        Assembled {
            stats: OnceLock::new(),
            zone_map: OnceLock::new(),
            columnar: OnceLock::new(),
            distinct: vec![OnceLock::new(); arity],
        }
    }
}

mod versioned {
    use super::{next_epoch, Assembled, IndexSlot, MutationKind, RowStore};

    /// A table's rows together with the epochs that name their state and
    /// everything built from them. The fields are private to this module, so
    /// the only way to change the rows is [`Versioned::mutate`] — a mutator
    /// that forgets to advance the epochs cannot be written.
    #[derive(Debug, Clone)]
    pub(super) struct Versioned {
        store: RowStore,
        epoch: u64,
        data_epoch: u64,
        indexes: Vec<IndexSlot>,
        assembled: Assembled,
    }

    impl Versioned {
        pub(super) fn new(
            store: RowStore,
            (epoch, data_epoch): (u64, u64),
            indexes: Vec<IndexSlot>,
            arity: usize,
        ) -> Self {
            Versioned {
                store,
                epoch,
                data_epoch,
                indexes,
                assembled: Assembled::nothing(arity),
            }
        }

        pub(super) fn store(&self) -> &RowStore {
            &self.store
        }

        pub(super) fn epoch(&self) -> u64 {
            self.epoch
        }

        pub(super) fn data_epoch(&self) -> u64 {
            self.data_epoch
        }

        pub(super) fn indexes(&self) -> &[IndexSlot] {
            &self.indexes
        }

        pub(super) fn assembled(&self) -> &Assembled {
            &self.assembled
        }

        /// Apply `change` to the rows and the maintained indexes (which it
        /// must keep in step). It returns whether it changed anything; if it
        /// did, the epoch advances — and the data epoch with it unless the
        /// change is [`MutationKind::Design`] — and what was assembled for
        /// the previous version is dropped. Returns what `change` returned.
        pub(super) fn mutate(
            &mut self,
            kind: MutationKind,
            change: impl FnOnce(&mut RowStore, &mut Vec<IndexSlot>) -> bool,
        ) -> bool {
            let changed = change(&mut self.store, &mut self.indexes);
            if changed {
                self.epoch = next_epoch();
                if kind != MutationKind::Design {
                    self.data_epoch = self.epoch;
                }
                self.assembled = Assembled::nothing(self.assembled.distinct.len());
            }
            changed
        }
    }
}
use versioned::Versioned;

/// A named base table. Cloning one copies no row (see the [module
/// docs](self)).
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    schema: Schema,
    /// Whether a zone map is requested/maintained for this table.
    with_zone_map: bool,
    /// Rows, epochs, maintained indexes and assembled artifacts.
    state: Versioned,
}

impl Table {
    /// Create a table from a schema and rows. Statistics, zone maps and
    /// indexes are built on demand; request the latter via
    /// [`Table::build_zone_map`] and [`Table::create_index`].
    pub fn new(name: impl Into<String>, schema: Schema, rows: Vec<Row>) -> Self {
        let epoch = next_epoch();
        Table::from_parts(
            name.into(),
            schema,
            rows,
            (epoch, epoch),
            DEFAULT_BLOCK_SIZE,
            false,
            &[],
        )
    }

    fn from_parts(
        name: String,
        schema: Schema,
        rows: Vec<Row>,
        epochs: (u64, u64),
        block_size: usize,
        with_zone_map: bool,
        index_columns: &[String],
    ) -> Self {
        assert!(
            rows.iter().all(|r| r.len() == schema.arity()),
            "table {name}: row arity does not match schema arity {}",
            schema.arity()
        );
        let mut indexes: Vec<IndexSlot> = Vec::new();
        for column in index_columns {
            let known = schema.index_of(column).is_some();
            if known && !indexes.iter().any(|s| s.column == *column) {
                indexes.push(IndexSlot::new(column));
            }
        }
        let state = Versioned::new(
            RowStore::new(rows, block_size),
            epochs,
            indexes,
            schema.arity(),
        );
        Table {
            name,
            schema,
            with_zone_map,
            state,
        }
    }

    /// Reconstruct a table from a persisted [`TableImage`], keeping the
    /// epochs it was persisted with.
    ///
    /// Restored epochs must stay authoritative: a provenance-sketch catalog
    /// imported alongside the snapshot validates its entries against these
    /// exact values. To keep the global invariant that equal epochs imply
    /// identical content, the process-wide epoch source is advanced past
    /// every restored epoch, so no *future* mutation (in this process) can
    /// ever mint an epoch a restored table already carries.
    pub fn restore(image: TableImage) -> Self {
        // `epoch >= data_epoch` holds for every live table; tolerate images
        // that violate it (hand-crafted or corrupt) by flooring on both.
        EPOCH_SOURCE.fetch_max(
            image.epoch.max(image.data_epoch).saturating_add(1),
            Ordering::Relaxed,
        );
        Table::from_parts(
            image.name,
            image.schema,
            image.rows,
            (image.epoch, image.data_epoch),
            image.block_size,
            image.with_zone_map,
            &image.index_columns,
        )
    }

    /// An owned image of the table's durable state (clones the rows). The
    /// inverse of [`Table::restore`].
    pub fn image(&self) -> TableImage {
        TableImage {
            name: self.name.clone(),
            schema: self.schema.clone(),
            rows: self.rows().to_vec(),
            epoch: self.epoch(),
            data_epoch: self.data_epoch(),
            block_size: self.block_size(),
            with_zone_map: self.with_zone_map,
            index_columns: self
                .indexed_columns()
                .into_iter()
                .map(String::from)
                .collect(),
        }
    }

    /// Whether this table maintains a zone map (without forcing it to be
    /// built, unlike [`Table::zone_map`]).
    pub fn has_zone_map(&self) -> bool {
        self.with_zone_map
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Table schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// All rows, in table order (a row's position is its row id).
    pub fn rows(&self) -> Rows<'_> {
        self.state.store().rows()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.state.store().len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The table's current epoch (data *and* physical design). Advances on
    /// every mutation or design change.
    pub fn epoch(&self) -> u64 {
        self.state.epoch()
    }

    /// The table's current *data* epoch: advances on append/delete only,
    /// never on physical-design changes. Provenance sketches describe data,
    /// so the catalog stamps and validates stored sketches against this —
    /// building an index does not invalidate them.
    pub fn data_epoch(&self) -> u64 {
        self.state.data_epoch()
    }

    /// Append rows at the tail of the table. Every row's arity is validated
    /// up front (in release builds too); on any mismatch nothing is appended
    /// and a [`StorageError::ArityMismatch`] is returned. Returns the new
    /// epoch. Appending an empty batch is a no-op that keeps the epoch.
    pub fn append_rows(&mut self, rows: Vec<Row>) -> Result<u64, StorageError> {
        self.append_row_batches(vec![rows])
    }

    /// Append several row batches at once through a **single** epoch
    /// advance — the path group commit relies on. Semantically identical to
    /// calling [`Table::append_rows`] once per batch (same validation:
    /// *every* row of *every* batch is arity-checked before anything is
    /// appended, so the whole call is atomic), but sketch maintenance sees
    /// one combined append delta. Returns the new epoch; an all-empty set of
    /// batches keeps the epoch.
    pub fn append_row_batches(&mut self, batches: Vec<Vec<Row>>) -> Result<u64, StorageError> {
        let expected = self.schema.arity();
        if let Some(row) = batches.iter().flatten().find(|r| r.len() != expected) {
            return Err(StorageError::ArityMismatch {
                context: format!("append to table {}", self.name),
                expected,
                got: row.len(),
            });
        }
        self.state.mutate(MutationKind::Append, |store, indexes| {
            let from = store.len();
            store.append(batches.into_iter().flatten());
            for index in indexes.iter_mut().filter_map(|s| s.index.get_mut()) {
                Arc::make_mut(index).append(store.rows().range(from..));
            }
            store.len() > from
        });
        Ok(self.epoch())
    }

    /// Delete every row for which `pred` returns true. `pred` is called once
    /// per row in storage order. Returns the number of rows deleted; when any
    /// row is deleted the epoch advances and the row ids behind the deleted
    /// rows shift down. Only the chunks that held a deleted row are
    /// rewritten.
    pub fn delete_where(&mut self, pred: impl FnMut(&Row) -> bool) -> usize {
        let mut deleted = 0;
        self.state.mutate(MutationKind::Delete, |store, indexes| {
            let removed = store.delete_where(pred);
            for index in indexes.iter_mut().filter_map(|s| s.index.get_mut()) {
                Arc::make_mut(index).remove(&removed);
            }
            deleted = removed.len();
            deleted > 0
        });
        deleted
    }

    /// Table statistics — per-column bounds and NULL counts, merged from the
    /// chunks' summaries.
    pub fn stats(&self) -> Arc<TableStats> {
        let stats = self.state.assembled().stats.get_or_init(|| {
            let parts = self.state.store().chunks().map(|(_, chunk)| {
                let summary = chunk.summary();
                (&summary.zones[..], &summary.null_counts[..])
            });
            Arc::new(TableStats::merge(&self.schema, self.len(), parts))
        });
        Arc::clone(stats)
    }

    /// Number of distinct non-null values in `column` (`None` for an unknown
    /// column). Exact. Unlike the bounds in [`Table::stats`] it cannot be
    /// merged from per-chunk parts, so it is counted when first asked for —
    /// from the column's ordered index where one is maintained, else in one
    /// pass over the column — and kept for this version of the table.
    pub fn distinct(&self, column: &str) -> Option<usize> {
        let position = self.schema.index_of(column)?;
        let count =
            self.state.assembled().distinct[position].get_or_init(|| match self.index_on(column) {
                Some(index) => index.num_keys(),
                None => count_distinct(self.rows().iter().map(|r| &r[position])),
            });
        Some(*count)
    }

    /// The zone map, if this table maintains one: one block per chunk of
    /// the row store, each summarised at most once however many versions of
    /// the table share it.
    pub fn zone_map(&self) -> Option<Arc<ZoneMap>> {
        if !self.with_zone_map {
            return None;
        }
        let zone_map = self.state.assembled().zone_map.get_or_init(|| {
            let blocks = self.state.store().chunks().map(|(start, chunk)| BlockZone {
                start,
                end: start + chunk.rows().len(),
                columns: Arc::clone(&chunk.summary().zones),
            });
            Arc::new(ZoneMap::from_blocks(self.block_size(), blocks.collect()))
        });
        Some(Arc::clone(zone_map))
    }

    /// The block size used for zone maps and columnar chunks: the most rows
    /// a block holds.
    pub fn block_size(&self) -> usize {
        self.state.store().block_size()
    }

    /// Request (or re-request with a different block size) a zone map. A
    /// different block size re-chunks the table, which copies it.
    pub fn build_zone_map(&mut self, block_size: usize) {
        assert!(block_size > 0, "block size must be positive");
        self.with_zone_map = true;
        self.state.mutate(MutationKind::Design, |store, _| {
            if store.block_size() != block_size {
                store.rechunk(block_size);
            }
            true
        });
    }

    /// The columnar chunk projection of the table: one chunk per chunk of
    /// the row store (one per zone-map block), each encoded at most once
    /// however many versions of the table share it.
    pub fn columnar_chunks(&self) -> Arc<ColumnarChunks> {
        let columnar = self.state.assembled().columnar.get_or_init(|| {
            let chunks = self.state.store().chunks();
            let chunks = chunks.map(|(start, chunk)| chunk.columnar(start)).collect();
            Arc::new(ColumnarChunks::from_chunks(self.block_size(), chunks))
        });
        Arc::clone(columnar)
    }

    /// Request an ordered index on `column`. Returns false if the column does
    /// not exist. The index is built lazily on first use and from then on
    /// kept in step with the rows by every mutation.
    pub fn create_index(&mut self, column: &str) -> bool {
        if self.schema.index_of(column).is_none() {
            return false;
        }
        if self.state.indexes().iter().any(|s| s.column == column) {
            return true; // already maintained: a true no-op
        }
        self.state.mutate(MutationKind::Design, |_, indexes| {
            indexes.push(IndexSlot::new(column));
            true
        })
    }

    /// The index on `column`, if one is maintained (built on first use).
    pub fn index_on(&self, column: &str) -> Option<Arc<OrderedIndex>> {
        let slot = self.state.indexes().iter().find(|s| s.column == column)?;
        let index = slot.index.get_or_init(|| {
            let built = OrderedIndex::build(&self.schema, self.rows(), column);
            Arc::new(built.expect("an indexed column is in the schema"))
        });
        Some(Arc::clone(index))
    }

    /// Names of indexed columns.
    pub fn indexed_columns(&self) -> Vec<&str> {
        let slots = self.state.indexes().iter();
        slots.map(|s| s.column.as_str()).collect()
    }

    /// Values of one column (used to build partitions and histograms).
    ///
    /// Clones every value; prefer [`Table::column_iter`] when a borrowed
    /// walk suffices.
    pub fn column_values(&self, column: &str) -> Option<Vec<Value>> {
        Some(self.column_iter(column)?.cloned().collect())
    }

    /// Borrowing iterator over one column's values (no clones).
    pub fn column_iter(&self, column: &str) -> Option<impl Iterator<Item = &Value> + Clone + '_> {
        let idx = self.schema.index_of(column)?;
        Some(self.rows().iter().map(move |r| &r[idx]))
    }

    /// View the table as a plain relation (clones the rows).
    pub fn to_relation(&self) -> Relation {
        Relation::new(self.schema.clone(), self.rows().to_vec())
    }
}

/// Builder for tables that finalizes physical design in one go.
#[derive(Debug)]
pub struct TableBuilder {
    name: String,
    schema: Schema,
    rows: Vec<Row>,
    block_size: usize,
    index_columns: Vec<String>,
    with_zone_map: bool,
}

impl TableBuilder {
    /// Start building a table.
    pub fn new(name: impl Into<String>, schema: Schema) -> Self {
        TableBuilder {
            name: name.into(),
            schema,
            rows: Vec::new(),
            block_size: DEFAULT_BLOCK_SIZE,
            index_columns: Vec::new(),
            with_zone_map: true,
        }
    }

    /// Append a row. Panics on an arity mismatch (in release builds too —
    /// a wrong-arity row must never corrupt the columnar build downstream);
    /// use [`TableBuilder::try_push`] to handle the mismatch as an error.
    pub fn push(&mut self, row: Row) -> &mut Self {
        self.try_push(row)
            .expect("TableBuilder::push: row arity does not match the schema")
    }

    /// Append a row, returning [`StorageError::ArityMismatch`] when the row
    /// does not match the schema's arity.
    pub fn try_push(&mut self, row: Row) -> Result<&mut Self, StorageError> {
        if row.len() != self.schema.arity() {
            return Err(StorageError::ArityMismatch {
                context: format!("build of table {}", self.name),
                expected: self.schema.arity(),
                got: row.len(),
            });
        }
        self.rows.push(row);
        Ok(self)
    }

    /// Append many rows (each validated like [`TableBuilder::push`]).
    pub fn extend(&mut self, rows: impl IntoIterator<Item = Row>) -> &mut Self {
        for row in rows {
            self.push(row);
        }
        self
    }

    /// Set the zone-map block size.
    pub fn block_size(&mut self, size: usize) -> &mut Self {
        self.block_size = size;
        self
    }

    /// Request an ordered index on a column.
    pub fn index(&mut self, column: &str) -> &mut Self {
        self.index_columns.push(column.to_string());
        self
    }

    /// Disable zone-map construction (used by the columnar engine profile).
    pub fn without_zone_map(&mut self) -> &mut Self {
        self.with_zone_map = false;
        self
    }

    /// Finish building: registers the requested physical design (statistics,
    /// zone maps and indexes materialize lazily on first use).
    pub fn build(&mut self) -> Table {
        let epoch = next_epoch();
        Table::from_parts(
            std::mem::take(&mut self.name),
            self.schema.clone(),
            std::mem::take(&mut self.rows),
            (epoch, epoch),
            self.block_size,
            self.with_zone_map,
            &self.index_columns,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::DataType;

    fn build_table(n: usize) -> Table {
        let schema = Schema::from_pairs(&[("id", DataType::Int), ("grp", DataType::Int)]);
        let mut b = TableBuilder::new("t", schema);
        b.block_size(100).index("id");
        for i in 0..n {
            b.push(vec![Value::Int(i as i64), Value::Int((i % 7) as i64)]);
        }
        b.build()
    }

    #[test]
    fn builder_creates_stats_zonemaps_and_indexes() {
        let t = build_table(1000);
        assert_eq!(t.len(), 1000);
        assert_eq!(t.stats().column("id").unwrap().max, Some(Value::Int(999)));
        assert_eq!(t.zone_map().unwrap().num_blocks(), 10);
        assert!(t.index_on("id").is_some());
        assert!(t.index_on("grp").is_none());
    }

    #[test]
    fn without_zone_map_profile() {
        let schema = Schema::from_pairs(&[("a", DataType::Int)]);
        let mut b = TableBuilder::new("t", schema);
        b.without_zone_map().push(vec![Value::Int(1)]);
        let t = b.build();
        assert!(t.zone_map().is_none());
    }

    #[test]
    fn column_values_extraction() {
        let t = build_table(10);
        let vals = t.column_values("grp").unwrap();
        assert_eq!(vals.len(), 10);
        assert!(t.column_values("nope").is_none());
    }

    #[test]
    fn to_relation_round_trip() {
        let t = build_table(5);
        let r = t.to_relation();
        assert_eq!(r.len(), 5);
        assert_eq!(r.schema(), t.schema());
    }

    #[test]
    fn append_bumps_epoch_and_extends_artifacts() {
        let mut t = build_table(250);
        // Materialize every artifact at the current epoch.
        let zm0 = t.zone_map().unwrap();
        let idx0 = t.index_on("id").unwrap();
        let ch0 = t.columnar_chunks();
        let st0 = t.stats();
        let e0 = t.epoch();
        assert_eq!(zm0.num_blocks(), 3);

        let rows: Vec<Row> = (250..420)
            .map(|i| vec![Value::Int(i), Value::Int(i % 7)])
            .collect();
        let e1 = t.append_rows(rows).unwrap();
        assert!(e1 > e0);

        // Refreshed artifacts cover the appended tail and agree with a
        // from-scratch build.
        let zm1 = t.zone_map().unwrap();
        assert_eq!(zm1.num_blocks(), 5);
        let fresh = ZoneMap::build(t.schema(), &t.rows().to_vec(), t.block_size());
        for (a, b) in zm1.blocks().iter().zip(fresh.blocks()) {
            assert_eq!((a.start, a.end), (b.start, b.end));
            assert_eq!(a.columns, b.columns);
        }
        let idx1 = t.index_on("id").unwrap();
        assert_eq!(idx1.indexed_rows(), 420);
        assert_eq!(idx1.range(None, None).len(), 420);
        let ch1 = t.columnar_chunks();
        assert_eq!(ch1.chunks().len(), 5);
        assert_eq!(ch1.chunks().last().unwrap().end, 420);
        let st1 = t.stats();
        assert_eq!(st1.column("id").unwrap().max, Some(Value::Int(419)));

        // The pre-append snapshots are untouched (scans holding them keep a
        // consistent view).
        assert_eq!(zm0.num_blocks(), 3);
        assert_eq!(idx0.indexed_rows(), 250);
        assert_eq!(ch0.chunks().len(), 3);
        assert_eq!(st0.column("id").unwrap().max, Some(Value::Int(249)));
        // Only the refilled last block was summarised and encoded again.
        for full in 0..2 {
            assert!(Arc::ptr_eq(&ch0.chunks()[full], &ch1.chunks()[full]));
            let (before, after) = (&zm0.blocks()[full], &zm1.blocks()[full]);
            assert!(Arc::ptr_eq(&before.columns, &after.columns));
        }
        assert!(!Arc::ptr_eq(&ch0.chunks()[2], &ch1.chunks()[2]));
    }

    #[test]
    fn delete_forces_full_rebuild() {
        let mut t = build_table(300);
        let _ = (t.zone_map(), t.index_on("id"), t.columnar_chunks());
        let e0 = t.epoch();
        let deleted = t.delete_where(|r| matches!(r[1], Value::Int(3)));
        assert!(deleted > 0);
        assert!(t.epoch() > e0);
        assert_eq!(t.len(), 300 - deleted);
        // Row ids shifted: the patched index must reflect the new layout.
        let idx = t.index_on("id").unwrap();
        assert_eq!(idx.indexed_rows(), t.len());
        let fresh = OrderedIndex::build(t.schema(), t.rows(), "id").unwrap();
        assert_eq!(idx.range(None, None), fresh.range(None, None));
        let ch = t.columnar_chunks();
        assert_eq!(ch.chunks().last().unwrap().end, t.len());
        let zm = t.zone_map().unwrap();
        assert_eq!(zm.blocks().last().unwrap().end, t.len());
        // Deleting nothing keeps the epoch.
        let e1 = t.epoch();
        assert_eq!(t.delete_where(|_| false), 0);
        assert_eq!(t.epoch(), e1);
    }

    #[test]
    fn append_arity_mismatch_is_rejected_atomically() {
        let mut t = build_table(10);
        let e0 = t.epoch();
        let err = t
            .append_rows(vec![
                vec![Value::Int(10), Value::Int(3)],
                vec![Value::Int(11)], // wrong arity
            ])
            .unwrap_err();
        assert!(matches!(err, StorageError::ArityMismatch { .. }));
        assert_eq!(t.len(), 10, "nothing may be appended on error");
        assert_eq!(t.epoch(), e0);
    }

    #[test]
    fn empty_append_keeps_epoch() {
        let mut t = build_table(10);
        let e0 = t.epoch();
        assert_eq!(t.append_rows(Vec::new()).unwrap(), e0);
        assert_eq!(t.epoch(), e0);
    }

    #[test]
    fn batched_append_bumps_one_epoch_and_matches_sequential_rows() {
        let mut a = build_table(100);
        let mut b = build_table(100);
        let batches: Vec<Vec<Row>> = (0..4)
            .map(|k| {
                (0..25)
                    .map(|i| vec![Value::Int(100 + k * 25 + i), Value::Int(i % 7)])
                    .collect()
            })
            .collect();
        let mut seq_epochs = Vec::new();
        for batch in batches.clone() {
            seq_epochs.push(a.append_rows(batch).unwrap());
        }
        let e0 = b.epoch();
        let e1 = b.append_row_batches(batches).unwrap();
        // Same final rows, but one epoch advance instead of four.
        assert_eq!(a.rows(), b.rows());
        assert!(e1 > e0);
        assert_eq!(b.epoch(), b.data_epoch());
        assert_eq!(seq_epochs.len(), 4);
        // Derived artifacts assembled at the single new epoch cover the tail.
        assert_eq!(b.columnar_chunks().chunks().last().unwrap().end, 200);
    }

    #[test]
    fn batched_append_validates_every_batch_before_appending() {
        let mut t = build_table(10);
        let e0 = t.epoch();
        let err = t
            .append_row_batches(vec![
                vec![vec![Value::Int(10), Value::Int(3)]], // valid
                vec![vec![Value::Int(11)]],                // wrong arity
            ])
            .unwrap_err();
        assert!(matches!(err, StorageError::ArityMismatch { .. }));
        assert_eq!(t.len(), 10, "nothing may be appended on error");
        assert_eq!(t.epoch(), e0);
        // All-empty batches are a no-op that keeps the epoch.
        assert_eq!(
            t.append_row_batches(vec![Vec::new(), Vec::new()]).unwrap(),
            e0
        );
        assert_eq!(t.epoch(), e0);
    }

    #[test]
    fn clone_shares_built_artifacts() {
        let mut t = build_table(100);
        let _ = t.columnar_chunks();
        let c = t.clone();
        assert_eq!(c.epoch(), t.epoch());
        assert!(Arc::ptr_eq(&c.columnar_chunks(), &t.columnar_chunks()));
        assert!(std::ptr::eq(
            c.rows().slice_at(0).1.as_ptr(),
            t.rows().slice_at(0).1.as_ptr()
        ));
        // Mutating the clone does not disturb the original.
        t.append_rows(vec![vec![Value::Int(100), Value::Int(2)]])
            .unwrap();
        assert_eq!(c.len(), 100);
        assert_eq!(t.len(), 101);
        assert_ne!(c.epoch(), t.epoch());
    }

    #[test]
    fn image_restore_round_trip_keeps_epochs_and_design() {
        let mut t = build_table(300);
        let _ = (t.zone_map(), t.index_on("id"));
        t.append_rows(vec![vec![Value::Int(300), Value::Int(2)]])
            .unwrap();
        let image = t.image();
        let restored = Table::restore(image);
        assert_eq!(restored.name(), t.name());
        assert_eq!(restored.schema(), t.schema());
        assert_eq!(restored.rows(), t.rows());
        assert_eq!(restored.epoch(), t.epoch());
        assert_eq!(restored.data_epoch(), t.data_epoch());
        assert_eq!(restored.block_size(), t.block_size());
        assert_eq!(restored.has_zone_map(), t.has_zone_map());
        assert_eq!(restored.indexed_columns(), t.indexed_columns());
        // Derived artifacts rebuild lazily and agree with the original's.
        assert_eq!(
            restored.zone_map().unwrap().num_blocks(),
            t.zone_map().unwrap().num_blocks()
        );
        assert_eq!(
            restored.index_on("id").unwrap().indexed_rows(),
            t.index_on("id").unwrap().indexed_rows()
        );
    }

    #[test]
    fn restore_advances_the_epoch_source_past_restored_epochs() {
        let t = build_table(10);
        let image = t.image();
        let frozen_epoch = image.epoch;
        let mut restored = Table::restore(image);
        // A mutation after restore must draw an epoch strictly beyond every
        // restored one — equal epochs must keep implying identical content.
        let e = restored
            .append_rows(vec![vec![Value::Int(10), Value::Int(0)]])
            .unwrap();
        assert!(e > frozen_epoch);
        // Even a brand-new table can no longer collide with restored epochs.
        assert!(build_table(1).epoch() > frozen_epoch);
    }

    #[test]
    fn try_push_reports_arity_mismatch() {
        let schema = Schema::from_pairs(&[("a", DataType::Int)]);
        let mut b = TableBuilder::new("t", schema);
        assert!(b.try_push(vec![Value::Int(1)]).is_ok());
        assert!(matches!(
            b.try_push(vec![Value::Int(1), Value::Int(2)]),
            Err(StorageError::ArityMismatch { .. })
        ));
        assert_eq!(b.build().len(), 1);
    }

    #[test]
    fn distinct_is_exact_with_and_without_an_index() {
        let mut t = build_table(300);
        assert_eq!(t.distinct("id"), Some(300)); // from the index on `id`
        assert_eq!(t.distinct("grp"), Some(7)); // counted over the column
        assert_eq!(t.distinct("nope"), None);
        t.delete_where(|r| matches!(r[1], Value::Int(3)));
        t.append_rows(vec![vec![Value::Int(-1), Value::Null]])
            .unwrap();
        assert_eq!(t.distinct("grp"), Some(6));
        assert_eq!(t.distinct("id"), Some(t.len()));
    }

    #[test]
    fn a_delete_leaves_every_other_chunk_as_it_was() {
        let mut t = build_table(500);
        let before = t.clone();
        let (ch0, zm0) = (before.columnar_chunks(), before.zone_map().unwrap());
        assert_eq!(t.delete_where(|r| r[0] == Value::Int(250)), 1);
        let (ch1, zm1) = (t.columnar_chunks(), t.zone_map().unwrap());
        let ends = |c: &ColumnarChunks| c.chunks().iter().map(|c| c.end).collect::<Vec<_>>();
        assert_eq!(ends(&ch1), [100, 200, 299, 399, 499]);
        for block in 0..5 {
            let same_rows = std::ptr::eq(
                before.rows().slice_at(block * 100).1.as_ptr(),
                t.rows().slice_at(block * 100).1.as_ptr(),
            );
            // The encoded columns and the zones are the chunk's, wherever a
            // version of the table has the chunk.
            let same_columns =
                std::ptr::eq(ch0.chunks()[block].column(0), ch1.chunks()[block].column(0));
            let same_zones =
                Arc::ptr_eq(&zm0.blocks()[block].columns, &zm1.blocks()[block].columns);
            assert_eq!((same_rows, same_columns, same_zones), {
                let kept = block != 2;
                (kept, kept, kept)
            });
            // In front of the delete nothing moved, so the handles are the
            // same too.
            assert_eq!(
                Arc::ptr_eq(&ch0.chunks()[block], &ch1.chunks()[block]),
                block < 2
            );
        }
        assert_eq!(ch1.chunk_for(299).unwrap().start, 299);
        assert_eq!(t.rows()[299], vec![Value::Int(300), Value::Int(300 % 7)]);
    }
}
