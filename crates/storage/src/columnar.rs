//! Columnar chunk projections of base tables.
//!
//! The row store (chunks of dynamically typed [`Value`] rows) stays the
//! source of truth; a [`ColumnarChunks`] is a derived projection the
//! execution engine uses to evaluate predicates column-at-a-time. Each chunk
//! covers one chunk of the row store — one zone-map block — and is encoded
//! once, when first asked for, however many forks of the table share it. It
//! holds one typed vector per column:
//! `i64` / `f64` / dictionary-encoded strings / booleans, each with a `u64`
//! null-bitmap, falling back to a plain `Value` vector for columns whose
//! non-null values mix types (the dynamically typed row store allows that).
//!
//! String dictionaries are per chunk and **sorted**, so dictionary codes are
//! order-preserving within the chunk: a range or comparison predicate against
//! a string literal translates to a comparison on `u32` codes.
//!
//! ## Frame-of-reference packing
//!
//! An integer chunk-column whose values span 16 bits or fewer is stored as
//! [`ColumnData::PackedInt`]: each value an unsigned delta from the chunk
//! minimum in 1/2/4/8/16 bits. Any other integer chunk-column keeps the plain
//! `i64` vector. The choice is a deterministic function of the chunk's rows,
//! so a chunk encodes the same wherever and whenever it is encoded, and
//! `Mixed` semantics are untouched.
//!
//! Readers take a packed column two ways. [`PackedInts::get`] reads one
//! lane with a shift and a mask, for the occasional cell.
//! [`PackedInts::unpack_into`] decodes a window of rows into a plain `i64`
//! buffer, whole words at a time with shifts fixed per width: the scan
//! kernels and the column fold decode each window once and then read a
//! slice, as they do a plain `Int` column. A NULL cell decodes as the frame
//! base, the placeholder the null bitmap masks.

use crate::relation::Row;
use crate::schema::Schema;
use crate::value::Value;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Chunks shorter than this are never worth encoding; the plain vectors win.
const MIN_ENCODE_ROWS: usize = 16;

/// Frame-of-reference bit-packed integers: each value is stored as an
/// unsigned delta from `base` in `width` bits (1, 2, 4, 8 or 16 — widths
/// that divide 64, so no value straddles a word boundary).
#[derive(Debug, Clone, PartialEq)]
pub struct PackedInts {
    base: i64,
    width: u32,
    len: usize,
    words: Vec<u64>,
}

impl PackedInts {
    /// Pack `vals` relative to `base`; every `v - base` must fit `width` bits.
    pub fn pack(vals: impl ExactSizeIterator<Item = i64>, base: i64, width: u32) -> Self {
        debug_assert!(matches!(width, 1 | 2 | 4 | 8 | 16));
        let len = vals.len();
        let mut words = vec![0u64; (len * width as usize).div_ceil(64)];
        for (i, v) in vals.enumerate() {
            let delta = (v - base) as u64;
            debug_assert!(delta < (1u64 << width));
            let bit = i * width as usize;
            words[bit / 64] |= delta << (bit % 64);
        }
        PackedInts {
            base,
            width,
            len,
            words,
        }
    }

    /// The frame-of-reference base (the chunk minimum).
    pub fn base(&self) -> i64 {
        self.base
    }

    /// Bits per value.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Number of packed values.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no values are packed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The packed words (little-endian lane order within each word).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// The inclusive range of values the lanes can hold:
    /// `[base, base + 2^width - 1]`, the top clamped to `i64::MAX`.
    pub fn frame(&self) -> (i64, i64) {
        (self.base, self.base.saturating_add((1 << self.width) - 1))
    }

    /// The value at row `i` (chunk-relative). A lane starts at bit
    /// `i * width` and never crosses a word, so the word is that bit over 64
    /// and the shift that bit mod 64: a shift and a mask, no division.
    #[inline]
    pub fn get(&self, i: usize) -> i64 {
        let bit = i * self.width as usize;
        let mask = (1u64 << self.width) - 1;
        self.base + ((self.words[bit >> 6] >> (bit & 63)) & mask) as i64
    }

    /// Decode the `n` values from row `lo` on into `out`, replacing its
    /// contents. The loop is compiled once per width, so every shift is a
    /// constant: whole words decode `64 / width` lanes at a time, and only a
    /// window that starts or ends mid-word reads its partial words lane by
    /// lane.
    pub fn unpack_into(&self, lo: usize, n: usize, out: &mut Vec<i64>) {
        assert!(lo + n <= self.len, "window past the packed values");
        out.clear();
        out.resize(n, 0);
        // One copy per width, named by its lanes per word.
        match self.width {
            1 => self.unpack::<64>(lo, out),
            2 => self.unpack::<32>(lo, out),
            4 => self.unpack::<16>(lo, out),
            8 => self.unpack::<8>(lo, out),
            16 => self.unpack::<4>(lo, out),
            w => unreachable!("packed width {w}"),
        }
    }

    /// [`PackedInts::unpack_into`] at `LANES` lanes of `64 / LANES` bits a
    /// word.
    #[inline(always)]
    fn unpack<const LANES: usize>(&self, lo: usize, out: &mut [i64]) {
        let width = 64 / LANES;
        let mask = (1u64 << width) - 1;
        let lane =
            |i: usize| self.base + ((self.words[i / LANES] >> (i % LANES * width)) & mask) as i64;
        // Lane by lane up to the first word boundary, then whole words, then
        // lane by lane after the last whole word.
        let head = (lo.next_multiple_of(LANES) - lo).min(out.len());
        let (head_out, rest) = out.split_at_mut(head);
        for (o, i) in head_out.iter_mut().zip(lo..) {
            *o = lane(i);
        }
        let (body, tail) = rest.as_chunks_mut::<LANES>();
        for (o, &word) in body.iter_mut().zip(&self.words[(lo + head) / LANES..]) {
            for (k, x) in o.iter_mut().enumerate() {
                *x = self.base + ((word >> (k * width)) & mask) as i64;
            }
        }
        let tail_lo = lo + head + body.len() * LANES;
        for (o, i) in tail.iter_mut().zip(tail_lo..) {
            *o = lane(i);
        }
    }

    /// Approximate heap footprint in bytes.
    pub fn approx_bytes(&self) -> usize {
        self.words.len() * 8
    }
}

/// Typed storage of one column within one chunk.
#[derive(Debug, Clone)]
pub enum ColumnData {
    /// All non-null values are `Value::Int`.
    Int(Vec<i64>),
    /// All non-null values are `Value::Float`.
    Float(Vec<f64>),
    /// All non-null values are `Value::Str`, dictionary-encoded. `dict` is
    /// sorted and deduplicated, so codes preserve the string order.
    Dict {
        /// Sorted distinct strings of the chunk.
        dict: Vec<String>,
        /// Per-row index into `dict` (0 for NULL rows; check the null bitmap).
        codes: Vec<u32>,
    },
    /// All non-null values are `Value::Bool`.
    Bool(Vec<bool>),
    /// Mixed-type column (e.g. `Int` and `Float` rows in one column): kept as
    /// plain values so the engine falls back to `Value` comparison semantics.
    Mixed(Vec<Value>),
    /// Frame-of-reference bit-packed integer column (NULL rows pack as the
    /// base; check the null bitmap).
    PackedInt(PackedInts),
}

impl ColumnData {
    /// A short stable name of the physical layout, for plans and benchmarks.
    pub fn encoding_name(&self) -> &'static str {
        match self {
            ColumnData::Int(_) => "int",
            ColumnData::Float(_) => "float",
            ColumnData::Dict { .. } => "dict",
            ColumnData::Bool(_) => "bool",
            ColumnData::Mixed(_) => "mixed",
            ColumnData::PackedInt(_) => "packed-int",
        }
    }

    /// True for the compressed layout (bit-packed).
    pub fn is_encoded(&self) -> bool {
        matches!(self, ColumnData::PackedInt(_))
    }

    /// Approximate heap footprint in bytes (dictionary strings included).
    pub fn approx_bytes(&self) -> usize {
        match self {
            ColumnData::Int(v) => v.len() * 8,
            ColumnData::Float(v) => v.len() * 8,
            ColumnData::Bool(v) => v.len(),
            ColumnData::Dict { dict, codes } => {
                dict.iter().map(|s| s.len() + 24).sum::<usize>() + codes.len() * 4
            }
            ColumnData::Mixed(v) => {
                v.len() * std::mem::size_of::<Value>()
                    + v.iter()
                        .map(|val| match val {
                            Value::Str(s) => s.len(),
                            _ => 0,
                        })
                        .sum::<usize>()
            }
            ColumnData::PackedInt(p) => p.approx_bytes(),
        }
    }
}

/// One column of one chunk: typed data plus a null bitmap.
#[derive(Debug, Clone)]
pub struct ColumnVector {
    /// One bit per row of the chunk; set = NULL. `None` when the chunk has no
    /// NULLs in this column.
    nulls: Option<Vec<u64>>,
    data: ColumnData,
}

impl ColumnVector {
    /// The typed data vector.
    pub fn data(&self) -> &ColumnData {
        &self.data
    }

    /// True when row `i` (chunk-relative) is NULL.
    #[inline]
    pub fn is_null(&self, i: usize) -> bool {
        match &self.nulls {
            Some(words) => words[i / 64] & (1u64 << (i % 64)) != 0,
            None => false,
        }
    }

    /// True when the column holds at least one NULL in this chunk.
    pub fn has_nulls(&self) -> bool {
        self.nulls.is_some()
    }

    /// The null bitmap as `u64` words (little-endian bit order), if any row
    /// is NULL.
    pub fn null_words(&self) -> Option<&[u64]> {
        self.nulls.as_deref()
    }

    /// Decode row `i` (chunk-relative) back to a [`Value`] — NULL-aware, so
    /// encoding placeholders are never observable.
    pub fn value(&self, i: usize) -> Value {
        if self.is_null(i) {
            return Value::Null;
        }
        match &self.data {
            ColumnData::Int(v) => Value::Int(v[i]),
            ColumnData::Float(v) => Value::Float(v[i]),
            ColumnData::Bool(v) => Value::Bool(v[i]),
            ColumnData::Dict { dict, codes } => Value::Str(dict[codes[i] as usize].clone()),
            ColumnData::Mixed(v) => v[i].clone(),
            ColumnData::PackedInt(p) => Value::Int(p.get(i)),
        }
    }

    /// Approximate heap footprint in bytes (null bitmap included).
    pub fn approx_bytes(&self) -> usize {
        self.data.approx_bytes() + self.nulls.as_ref().map_or(0, |w| w.len() * 8)
    }
}

/// A contiguous run of rows (`[start, end)`) stored column-wise.
#[derive(Debug, Clone)]
pub struct ColumnarChunk {
    /// Table-level index of the first row of the chunk.
    pub start: usize,
    /// One past the last row of the chunk.
    pub end: usize,
    /// Shared, so the same encoded columns can sit at different positions
    /// in different forks of a table.
    columns: Arc<[ColumnVector]>,
}

impl ColumnarChunk {
    /// Encode `rows` as the chunk a table has at `start`.
    pub(crate) fn encode(rows: &[Row], start: usize, encode: bool) -> Self {
        let arity = rows.first().map_or(0, Vec::len);
        ColumnarChunk {
            start,
            end: start + rows.len(),
            columns: (0..arity).map(|c| build_column(rows, c, encode)).collect(),
        }
    }

    /// The same columns as the chunk of a table that has these rows at
    /// `start`.
    pub(crate) fn at(&self, start: usize) -> Self {
        ColumnarChunk {
            start,
            end: start + self.len(),
            columns: Arc::clone(&self.columns),
        }
    }

    /// Number of rows in the chunk.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True when the chunk holds no rows.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// The column vector at schema position `idx`.
    pub fn column(&self, idx: usize) -> &ColumnVector {
        &self.columns[idx]
    }

    /// Number of columns stored with a compressed layout in this chunk.
    pub fn encoded_columns(&self) -> usize {
        self.columns
            .iter()
            .filter(|c| c.data().is_encoded())
            .count()
    }

    /// Approximate heap footprint of the chunk in bytes.
    pub fn approx_bytes(&self) -> usize {
        self.columns.iter().map(|c| c.approx_bytes()).sum()
    }
}

/// The columnar projection of a whole table: one chunk per zone-map block.
///
/// Chunks are stored behind `Arc`: a table hands out the chunks its row
/// store already encoded, so forks of a table share them.
#[derive(Debug, Clone)]
pub struct ColumnarChunks {
    block_size: usize,
    chunks: Vec<Arc<ColumnarChunk>>,
}

impl ColumnarChunks {
    /// Build the projection over `rows` with `block_size` rows per chunk
    /// (aligned with the table's zone-map blocks), bit-packing each integer
    /// chunk-column whose values span 16 bits or fewer.
    pub fn build(schema: &Schema, rows: &[Row], block_size: usize) -> Self {
        Self::build_inner(schema, rows, block_size, true)
    }

    /// Build the projection with packing disabled: every column keeps the
    /// plain typed vectors. Used as the decode oracle in equivalence tests.
    pub fn build_plain(schema: &Schema, rows: &[Row], block_size: usize) -> Self {
        Self::build_inner(schema, rows, block_size, false)
    }

    fn build_inner(schema: &Schema, rows: &[Row], block_size: usize, encode: bool) -> Self {
        assert!(block_size > 0, "chunk size must be positive");
        debug_assert!(rows.iter().all(|r| r.len() == schema.arity()));
        let chunks = rows
            .chunks(block_size)
            .enumerate()
            .map(|(i, part)| Arc::new(ColumnarChunk::encode(part, i * block_size, encode)))
            .collect();
        ColumnarChunks { block_size, chunks }
    }

    /// The projection made of already encoded chunks, which must tile the
    /// table in order; none is longer than `block_size`.
    pub(crate) fn from_chunks(block_size: usize, chunks: Vec<Arc<ColumnarChunk>>) -> Self {
        ColumnarChunks { block_size, chunks }
    }

    /// The most rows a chunk holds (the table's zone-map block size). A
    /// chunk can hold fewer — the last one, and any that lost rows to a
    /// delete — so locate rows with [`ColumnarChunks::chunk_for`], not by
    /// dividing.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// All chunks in table order.
    pub fn chunks(&self) -> &[Arc<ColumnarChunk>] {
        &self.chunks
    }

    /// The chunk containing table row `rid`, if in range.
    pub fn chunk_for(&self, rid: usize) -> Option<&ColumnarChunk> {
        let i = self.chunks.partition_point(|c| c.end <= rid);
        self.chunks.get(i).map(Arc::as_ref)
    }

    /// Approximate heap footprint of the whole projection in bytes.
    pub fn approx_bytes(&self) -> usize {
        self.chunks.iter().map(|c| c.approx_bytes()).sum()
    }

    /// Per-encoding chunk counts for schema column `col` — e.g.
    /// `{"int": 3, "packed-int": 9}`. Used by `examples/explain.rs` to report
    /// the layouts actually chosen.
    pub fn column_encoding_counts(&self, col: usize) -> BTreeMap<&'static str, usize> {
        let mut counts = BTreeMap::new();
        for chunk in &self.chunks {
            *counts
                .entry(chunk.column(col).data().encoding_name())
                .or_insert(0) += 1;
        }
        counts
    }
}

/// Classify and pack one column of a row slice. With `encode` set, integer
/// columns are bit-packed where their range allows; the choice is a pure
/// function of `rows`.
fn build_column(rows: &[Row], col: usize, encode: bool) -> ColumnVector {
    #[derive(PartialEq, Clone, Copy)]
    enum Kind {
        Unknown,
        Int,
        Float,
        Str,
        Bool,
        Mixed,
    }
    let mut kind = Kind::Unknown;
    let mut any_null = false;
    for row in rows {
        let k = match &row[col] {
            Value::Null => {
                any_null = true;
                continue;
            }
            Value::Int(_) => Kind::Int,
            Value::Float(_) => Kind::Float,
            Value::Str(_) => Kind::Str,
            Value::Bool(_) => Kind::Bool,
        };
        if kind == Kind::Unknown {
            kind = k;
        } else if kind != k && kind != Kind::Mixed {
            // Keep scanning: the null bitmap below needs every row seen.
            kind = Kind::Mixed;
        }
    }

    let nulls = if any_null {
        let mut words = vec![0u64; rows.len().div_ceil(64)];
        for (i, row) in rows.iter().enumerate() {
            if row[col].is_null() {
                words[i / 64] |= 1u64 << (i % 64);
            }
        }
        Some(words)
    } else {
        None
    };

    let data = match kind {
        Kind::Int => encode_int_column(rows, col, encode),
        Kind::Float => ColumnData::Float(
            rows.iter()
                .map(|r| match &r[col] {
                    Value::Float(f) => *f,
                    _ => 0.0,
                })
                .collect(),
        ),
        Kind::Bool => ColumnData::Bool(
            rows.iter()
                .map(|r| match &r[col] {
                    Value::Bool(b) => *b,
                    _ => false,
                })
                .collect(),
        ),
        Kind::Str => {
            let mut dict: Vec<String> = rows
                .iter()
                .filter_map(|r| match &r[col] {
                    Value::Str(s) => Some(s.clone()),
                    _ => None,
                })
                .collect();
            dict.sort_unstable();
            dict.dedup();
            let codes: Vec<u32> = rows
                .iter()
                .map(|r| match &r[col] {
                    Value::Str(s) => dict
                        .binary_search_by(|d| d.as_str().cmp(s))
                        .expect("in dict") as u32,
                    _ => 0,
                })
                .collect();
            ColumnData::Dict { dict, codes }
        }
        // All-NULL columns pack as Mixed so every accessor stays trivial.
        Kind::Unknown | Kind::Mixed => {
            ColumnData::Mixed(rows.iter().map(|r| r[col].clone()).collect())
        }
    };

    ColumnVector { nulls, data }
}

/// An all-Int (modulo NULLs) column: frame-of-reference packing when the
/// value range fits 16 bits or fewer, else the plain `i64` vector.
fn encode_int_column(rows: &[Row], col: usize, encode: bool) -> ColumnData {
    if encode && rows.len() >= MIN_ENCODE_ROWS {
        let (min, max) = rows
            .iter()
            .fold((i64::MAX, i64::MIN), |(lo, hi), r| match &r[col] {
                Value::Int(i) => (lo.min(*i), hi.max(*i)),
                _ => (lo, hi),
            });
        let range = max as i128 - min as i128;
        for width in [1u32, 2, 4, 8, 16] {
            if range < (1i128 << width) {
                let vals = rows.iter().map(|r| match &r[col] {
                    Value::Int(i) => *i,
                    _ => min, // NULL placeholder; masked by the bitmap
                });
                return ColumnData::PackedInt(PackedInts::pack(vals, min, width));
            }
        }
    }
    ColumnData::Int(
        rows.iter()
            .map(|r| match &r[col] {
                Value::Int(i) => *i,
                _ => 0, // NULL placeholder; masked by the bitmap
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::DataType;

    fn schema() -> Schema {
        Schema::from_pairs(&[
            ("i", DataType::Int),
            ("f", DataType::Float),
            ("s", DataType::Str),
            ("m", DataType::Float),
        ])
    }

    fn rows(n: usize) -> Vec<Row> {
        (0..n)
            .map(|i| {
                vec![
                    if i % 5 == 0 {
                        Value::Null
                    } else {
                        Value::Int(i as i64)
                    },
                    Value::Float(i as f64 / 2.0),
                    Value::Str(format!("s{}", i % 7)),
                    // Mixed-type column: alternating Int and Float.
                    if i % 2 == 0 {
                        Value::Int(i as i64)
                    } else {
                        Value::Float(i as f64)
                    },
                ]
            })
            .collect()
    }

    #[test]
    fn chunking_follows_block_size() {
        let rows = rows(250);
        let c = ColumnarChunks::build(&schema(), &rows, 100);
        assert_eq!(c.chunks().len(), 3);
        assert_eq!(c.chunks()[0].start, 0);
        assert_eq!(c.chunks()[0].end, 100);
        assert_eq!(c.chunks()[2].len(), 50);
        assert_eq!(c.chunk_for(150).unwrap().start, 100);
        assert!(c.chunk_for(999).is_none());
    }

    #[test]
    fn columns_classify_by_value_types() {
        let rows = rows(64);
        let c = ColumnarChunks::build(&schema(), &rows, 64);
        let chunk = &c.chunks()[0];
        // Ascending ints with a small range pack frame-of-reference.
        assert!(matches!(chunk.column(0).data(), ColumnData::PackedInt(_)));
        assert!(matches!(chunk.column(1).data(), ColumnData::Float(_)));
        assert!(matches!(chunk.column(2).data(), ColumnData::Dict { .. }));
        assert!(matches!(chunk.column(3).data(), ColumnData::Mixed(_)));
        assert!(chunk.column(0).has_nulls());
        assert!(chunk.column(0).is_null(0));
        assert!(!chunk.column(0).is_null(1));
        assert!(!chunk.column(1).has_nulls());
    }

    #[test]
    fn build_plain_keeps_plain_vectors() {
        let rows = rows(64);
        let c = ColumnarChunks::build_plain(&schema(), &rows, 64);
        let chunk = &c.chunks()[0];
        assert!(matches!(chunk.column(0).data(), ColumnData::Int(_)));
        assert_eq!(chunk.encoded_columns(), 0);
    }

    #[test]
    fn dictionary_codes_preserve_string_order() {
        let rows = rows(50);
        let c = ColumnarChunks::build(&schema(), &rows, 50);
        let ColumnData::Dict { dict, codes } = c.chunks()[0].column(2).data() else {
            panic!("expected dict column");
        };
        assert!(dict.windows(2).all(|w| w[0] < w[1]));
        for (i, row) in rows.iter().enumerate() {
            let Value::Str(s) = &row[2] else {
                unreachable!()
            };
            assert_eq!(&dict[codes[i] as usize], s);
        }
    }

    #[test]
    fn extend_shares_full_chunks_and_matches_fresh_build() {
        // Extending is the table's business now: an append refills the last
        // chunk of the row store, and the projection is assembled from the
        // chunks the store has already encoded.
        let all = rows(250);
        let mut b = crate::table::TableBuilder::new("t", schema());
        b.block_size(100).extend(all[..130].iter().cloned());
        let mut t = b.build();
        let first_chunk = Arc::clone(&t.columnar_chunks().chunks()[0]);
        t.append_rows(all[130..].to_vec()).unwrap();
        let c = t.columnar_chunks();
        let fresh = ColumnarChunks::build(&schema(), &all, 100);
        assert_eq!(c.chunks().len(), fresh.chunks().len());
        // The untouched full chunk is shared, not re-encoded.
        assert!(Arc::ptr_eq(&c.chunks()[0], &first_chunk));
        // Every chunk decodes to the same values as a fresh build — and the
        // compressed-layout choices agree, since they are pure functions of
        // the chunk rows.
        for (a, b) in c.chunks().iter().zip(fresh.chunks()) {
            assert_eq!((a.start, a.end), (b.start, b.end));
            for col in 0..4 {
                for i in 0..a.len() {
                    assert_eq!(a.column(col).is_null(i), b.column(col).is_null(i));
                }
                match (a.column(col).data(), b.column(col).data()) {
                    (ColumnData::Int(x), ColumnData::Int(y)) => assert_eq!(x, y),
                    (ColumnData::Float(x), ColumnData::Float(y)) => assert_eq!(x, y),
                    (ColumnData::Bool(x), ColumnData::Bool(y)) => assert_eq!(x, y),
                    (ColumnData::Mixed(x), ColumnData::Mixed(y)) => assert_eq!(x, y),
                    (ColumnData::PackedInt(x), ColumnData::PackedInt(y)) => assert_eq!(x, y),
                    (
                        ColumnData::Dict {
                            dict: d1,
                            codes: c1,
                        },
                        ColumnData::Dict {
                            dict: d2,
                            codes: c2,
                        },
                    ) => {
                        assert_eq!(d1, d2);
                        assert_eq!(c1, c2);
                    }
                    (x, y) => panic!("chunk column kind diverged: {x:?} vs {y:?}"),
                }
            }
        }
    }

    #[test]
    fn all_null_column_is_mixed_with_full_bitmap() {
        let schema = Schema::from_pairs(&[("a", DataType::Int)]);
        let rows: Vec<Row> = (0..10).map(|_| vec![Value::Null]).collect();
        let c = ColumnarChunks::build(&schema, &rows, 4);
        for chunk in c.chunks() {
            let col = chunk.column(0);
            assert!(matches!(col.data(), ColumnData::Mixed(_)));
            for i in 0..chunk.len() {
                assert!(col.is_null(i));
            }
        }
    }

    #[test]
    fn small_range_ints_pick_frame_of_reference_packing() {
        let schema = Schema::from_pairs(&[("a", DataType::Int)]);
        let rows: Vec<Row> = (0..64)
            .map(|i| vec![Value::Int(1000 + (i as i64 * 7) % 13)])
            .collect();
        let c = ColumnarChunks::build(&schema, &rows, 64);
        let col = c.chunks()[0].column(0);
        let ColumnData::PackedInt(p) = col.data() else {
            panic!("expected packed, got {}", col.data().encoding_name());
        };
        assert_eq!(p.base(), 1000);
        assert_eq!(p.width(), 4);
        assert_eq!(p.len(), 64);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(col.value(i), row[0]);
            assert_eq!(Value::Int(p.get(i)), row[0]);
        }
        // 4 bits per value: 64 values fit 4 words instead of 64.
        assert_eq!(p.words().len(), 4);
        assert!(col.approx_bytes() < 64 * 8);
    }

    #[test]
    fn packed_ints_round_trip_every_width() {
        let mut out = vec![42];
        for width in [1u32, 2, 4, 8, 16] {
            let lanes = 64 / width as usize;
            let top = (1i64 << width) - 1;
            // Two full words, then a partial last word.
            for len in [1, lanes - 1, lanes, 2 * lanes, 2 * lanes + 3] {
                // Frames at either end of `i64` too: no lane may overflow.
                for base in [-7, i64::MIN, i64::MAX - top] {
                    let mut vals: Vec<i64> = (0..len as i64)
                        .map(|i| base + (i * 5 + 3) % (top + 1))
                        .collect();
                    // Every word's last lane holds the widest delta.
                    for w in (lanes - 1..len).step_by(lanes) {
                        vals[w] = base + top;
                    }
                    vals[len - 1] = base + top;
                    let p = PackedInts::pack(vals.iter().copied(), base, width);
                    let what = format!("width {width}, len {len}, base {base}");
                    assert_eq!(p.words().len(), len.div_ceil(lanes), "{what}");
                    assert_eq!(p.frame(), (base, base + top), "{what}");
                    let back: Vec<i64> = (0..len).map(|i| p.get(i)).collect();
                    assert_eq!(back, vals, "{what}");
                    // Every window from each start in the first two words:
                    // empty ones, ones within a word, ones that start or end
                    // mid-word and ones that run to the last value.
                    for lo in 0..(2 * lanes).min(len + 1) {
                        for hi in lo..=len {
                            p.unpack_into(lo, hi - lo, &mut out);
                            assert_eq!(out, vals[lo..hi], "{what}, window {lo}..{hi}");
                        }
                    }
                }
            }
        }
        // A frame whose top passes `i64::MAX` is clamped to it.
        let p = PackedInts::pack([i64::MAX - 1].into_iter(), i64::MAX - 1, 4);
        assert_eq!(p.frame(), (i64::MAX - 1, i64::MAX));
    }

    #[test]
    fn short_and_wide_columns_stay_plain() {
        let schema = Schema::from_pairs(&[("a", DataType::Int)]);
        // Below MIN_ENCODE_ROWS: plain even though constant.
        let short: Vec<Row> = (0..8).map(|_| vec![Value::Int(1)]).collect();
        let c = ColumnarChunks::build(&schema, &short, 8);
        assert!(matches!(c.chunks()[0].column(0).data(), ColumnData::Int(_)));
        // Wide range: plain.
        let wide: Vec<Row> = (0..64)
            .map(|i| vec![Value::Int(i as i64 * 1_000_000)])
            .collect();
        let c = ColumnarChunks::build(&schema, &wide, 64);
        assert!(matches!(c.chunks()[0].column(0).data(), ColumnData::Int(_)));
    }

    #[test]
    fn encoding_counts_and_footprint() {
        let schema = Schema::from_pairs(&[("a", DataType::Int)]);
        let rows: Vec<Row> = (0..200).map(|i| vec![Value::Int(i as i64 % 10)]).collect();
        let enc = ColumnarChunks::build(&schema, &rows, 50);
        let plain = ColumnarChunks::build_plain(&schema, &rows, 50);
        let counts = enc.column_encoding_counts(0);
        assert_eq!(counts.values().sum::<usize>(), 4);
        assert!(counts.contains_key("packed-int"), "counts: {counts:?}");
        assert!(enc.approx_bytes() < plain.approx_bytes());
        assert_eq!(plain.column_encoding_counts(0)["int"], 4);
    }
}
