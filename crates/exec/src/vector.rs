//! Vectorized predicate evaluation over columnar chunks.
//!
//! [`eval_filter_block`] evaluates a compiled predicate column-at-a-time over
//! one [`ColumnarChunk`] and returns a `u64`-word selection bitmap of the
//! qualifying rows. Sub-expressions with a typed kernel (comparisons against
//! literals, `AND`/`OR`/`NOT`, `IS NULL`, sketch range predicates) run as
//! tight loops over the typed column vectors; anything else (arithmetic,
//! `CASE`, `IN`-lists, unbound parameters, unknown columns) falls back to
//! row-at-a-time [`CompiledExpr::eval`] — applied only to rows that survived
//! the earlier conjuncts, which reproduces the interpreter's short-circuit
//! `AND` exactly (including *which* rows can raise errors).
//!
//! Truth is tracked as **two** bitmaps, `known-true` and `known-false`, with
//! NULL/unknown being neither — this is what lets `NOT` distinguish a
//! comparison that evaluated to `false` (negates to `true`) from one that
//! evaluated to `NULL` (negates to `false`), exactly like the interpreter.
//!
//! ## Kernels on packed data
//!
//! The integer kernels read a window of plain `i64`s whatever the layout: a
//! plain column's own cells, or a frame-of-reference packed column's
//! ([`ColumnData::PackedInt`]) lanes, decoded once per kernel call a whole
//! word at a time ([`PackedInts::unpack_into`]). Before decoding, a
//! comparison with an `Int` literal checks the packed frame
//! ([`PackedInts::frame`]): when it lies wholly on one side of the literal,
//! one ordering decides every row, the window is filled at once and its NULL
//! rows cleared with one masked pass over the null bitmap.
//!
//! [`PackedInts::unpack_into`]: pbds_storage::PackedInts::unpack_into
//! [`PackedInts::frame`]: pbds_storage::PackedInts::frame
//!
//! [`eval_filter_block_counted`] is the same evaluation with `ExecStats`
//! attribution: it counts blocks that carried at least one packed column and
//! conjuncts that had to fall back to row-at-a-time evaluation over such a
//! block.

use crate::compiled::{ColRef, CompiledExpr, CompiledRanges};
use crate::eval::ExecError;
use crate::stats::ExecStats;
use pbds_algebra::BinOp;
use pbds_storage::{ColumnData, ColumnVector, ColumnarChunk, Row, Value};
use std::cmp::Ordering;

/// A fixed-length selection bitmap over `u64` words.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SelBitmap {
    len: usize,
    words: Vec<u64>,
}

impl SelBitmap {
    /// All-zero bitmap of `len` bits.
    pub fn zeros(len: usize) -> Self {
        SelBitmap {
            len,
            words: vec![0; len.div_ceil(64)],
        }
    }

    /// All-one bitmap of `len` bits.
    pub fn ones(len: usize) -> Self {
        let mut b = SelBitmap {
            len,
            words: vec![!0u64; len.div_ceil(64)],
        };
        b.mask_tail();
        b
    }

    /// The `n` bits of `words` from bit `base` on (bit `j` is bit `base + j`
    /// of the words, little-endian; bits past the words read as zero).
    /// Stitches adjacent words when `base % 64 != 0`.
    pub(crate) fn window(words: &[u64], base: usize, n: usize) -> Self {
        let mut out = SelBitmap::zeros(n);
        let shift = base % 64;
        let w0 = base / 64;
        for (wi, o) in out.words.iter_mut().enumerate() {
            let lo_part = words.get(w0 + wi).copied().unwrap_or(0) >> shift;
            let hi_part = if shift == 0 {
                0
            } else {
                words.get(w0 + wi + 1).copied().unwrap_or(0) << (64 - shift)
            };
            *o = lo_part | hi_part;
        }
        out.mask_tail();
        out
    }

    /// Positions of the first and the last set bit, if any is set.
    pub(crate) fn bounds(&self) -> Option<(usize, usize)> {
        let first = self.words.iter().position(|&w| w != 0)?;
        let last = self.words.iter().rposition(|&w| w != 0)?;
        Some((
            first * 64 + self.words[first].trailing_zeros() as usize,
            last * 64 + 63 - self.words[last].leading_zeros() as usize,
        ))
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no bit can be set (`len == 0`).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Set bit `i`.
    #[inline]
    pub fn set(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Clear bit `i`.
    #[inline]
    pub fn clear(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / 64] &= !(1u64 << (i % 64));
    }

    /// Test bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Set every bit in `[lo, hi)` word-wise.
    pub fn set_range(&mut self, lo: usize, hi: usize) {
        debug_assert!(lo <= hi && hi <= self.len);
        if lo >= hi {
            return;
        }
        let (wl, wh) = (lo / 64, (hi - 1) / 64);
        let lmask = !0u64 << (lo % 64);
        let hmask = !0u64 >> (63 - (hi - 1) % 64);
        if wl == wh {
            self.words[wl] |= lmask & hmask;
        } else {
            self.words[wl] |= lmask;
            for w in &mut self.words[wl + 1..wh] {
                *w = !0;
            }
            self.words[wh] |= hmask;
        }
    }

    /// Word-wise intersection.
    pub fn and_assign(&mut self, other: &SelBitmap) {
        debug_assert_eq!(self.len, other.len);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= *b;
        }
    }

    /// Word-wise union.
    pub fn or_assign(&mut self, other: &SelBitmap) {
        debug_assert_eq!(self.len, other.len);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= *b;
        }
    }

    /// Word-wise complement (tail bits beyond `len` stay zero).
    pub fn negated(&self) -> SelBitmap {
        let mut out = SelBitmap {
            len: self.len,
            words: self.words.iter().map(|w| !w).collect(),
        };
        out.mask_tail();
        out
    }

    /// Number of set bits (popcount).
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterate the set bit positions in ascending order.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.ones_from(0)
    }

    /// Iterate the set bit positions from `start` on, in ascending order.
    pub(crate) fn ones_from(&self, start: usize) -> impl Iterator<Item = usize> + '_ {
        let first = start / 64;
        let words = self.words.get(first..).unwrap_or_default();
        words.iter().enumerate().flat_map(move |(i, w)| {
            let wi = first + i;
            let mut word = if i == 0 {
                *w & (!0 << (start % 64))
            } else {
                *w
            };
            std::iter::from_fn(move || {
                if word == 0 {
                    return None;
                }
                let bit = word.trailing_zeros() as usize;
                word &= word - 1;
                Some(wi * 64 + bit)
            })
        })
    }

    fn mask_tail(&mut self) {
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
        if self.len == 0 {
            self.words.clear();
        }
    }
}

/// Evaluate `pred` over the rows `[lo, hi)` of the table (which must lie
/// inside `chunk`), returning the selection bitmap of qualifying rows (bit
/// `j` ↔ table row `lo + j`). `rows` are those rows themselves (`rows[j]` is
/// table row `lo + j`), used by the row-at-a-time fallback for
/// non-vectorizable conjuncts.
pub fn eval_filter_block(
    pred: &CompiledExpr,
    chunk: &ColumnarChunk,
    rows: &[Row],
    lo: usize,
    hi: usize,
) -> Result<SelBitmap, ExecError> {
    let mut stats = ExecStats::default();
    let all = SelBitmap::ones(hi - lo);
    eval_filter_block_counted(pred, chunk, rows, lo, hi, all, &mut stats)
}

/// [`eval_filter_block`] over the rows `within` selects (an index probe's
/// rows, or all of them), with `ExecStats` attribution: bumps
/// `encoded_blocks` when the chunk carries at least one compressed column
/// and `encoded_kernel_fallbacks` for every conjunct that takes the
/// row-at-a-time fallback over such a chunk. A row outside `within` is never
/// selected, and no fallback conjunct is evaluated on it.
pub fn eval_filter_block_counted(
    pred: &CompiledExpr,
    chunk: &ColumnarChunk,
    rows: &[Row],
    lo: usize,
    hi: usize,
    within: SelBitmap,
    stats: &mut ExecStats,
) -> Result<SelBitmap, ExecError> {
    debug_assert!(chunk.start <= lo && hi <= chunk.end && rows.len() == hi - lo);
    debug_assert_eq!(within.len(), hi - lo);
    let encoded = chunk.encoded_columns() > 0;
    if encoded {
        stats.encoded_blocks += 1;
    }
    let n = hi - lo;
    let mut sel = within;
    let conjuncts: &[CompiledExpr] = match pred {
        CompiledExpr::And(es) => es,
        other => std::slice::from_ref(other),
    };
    for conjunct in conjuncts {
        match vec_truth(conjunct, chunk, lo, hi) {
            Some((truth, _)) => sel.and_assign(&truth),
            None => {
                if encoded {
                    stats.encoded_kernel_fallbacks += 1;
                }
                // Fallback: evaluate row-at-a-time, but only on rows that
                // passed the previous conjuncts — the same (row, conjunct)
                // pairs the interpreter's short-circuit AND evaluates.
                let mut keep = SelBitmap::zeros(n);
                for j in sel.iter_ones() {
                    if conjunct.matches(&rows[j])? {
                        keep.set(j);
                    }
                }
                sel = keep;
            }
        }
    }
    Ok(sel)
}

/// Try to evaluate `expr` with typed kernels over `[lo, hi)`; returns the
/// `(known-true, known-false)` bitmap pair, or `None` when the node has no
/// kernel (caller falls back to row-at-a-time evaluation).
fn vec_truth(
    expr: &CompiledExpr,
    chunk: &ColumnarChunk,
    lo: usize,
    hi: usize,
) -> Option<(SelBitmap, SelBitmap)> {
    let n = hi - lo;
    match expr {
        CompiledExpr::Literal(v) => Some(match v.as_bool() {
            Some(true) => (SelBitmap::ones(n), SelBitmap::zeros(n)),
            Some(false) => (SelBitmap::zeros(n), SelBitmap::ones(n)),
            None => (SelBitmap::zeros(n), SelBitmap::zeros(n)),
        }),
        CompiledExpr::Binary { op, left, right } if op.is_comparison() => {
            match (&**left, &**right) {
                (CompiledExpr::Column(ColRef::Idx(c)), CompiledExpr::Literal(v)) => {
                    Some(cmp_kernel(chunk, *c, lo, hi, *op, v))
                }
                (CompiledExpr::Literal(v), CompiledExpr::Column(ColRef::Idx(c))) => {
                    Some(cmp_kernel(chunk, *c, lo, hi, flip_cmp(*op), v))
                }
                _ => None,
            }
        }
        CompiledExpr::And(es) => {
            let mut truth = SelBitmap::ones(n);
            for e in es {
                let (t, _) = vec_truth(e, chunk, lo, hi)?;
                truth.and_assign(&t);
            }
            // AND always yields a definite boolean (NULL collapses to false).
            let falsity = truth.negated();
            Some((truth, falsity))
        }
        CompiledExpr::Or(es) => {
            let mut truth = SelBitmap::zeros(n);
            for e in es {
                let (t, _) = vec_truth(e, chunk, lo, hi)?;
                truth.or_assign(&t);
            }
            let falsity = truth.negated();
            Some((truth, falsity))
        }
        CompiledExpr::Not(e) => {
            // NOT x is true exactly when x is known-false; NULL/unknown
            // negates to false (the interpreter's `as_bool` collapse).
            let (_, f) = vec_truth(e, chunk, lo, hi)?;
            let falsity = f.negated();
            Some((f, falsity))
        }
        CompiledExpr::IsNull(e) => match &**e {
            CompiledExpr::Column(ColRef::Idx(c)) => {
                let col = chunk.column(*c);
                let truth =
                    null_window(col, lo - chunk.start, n).unwrap_or_else(|| SelBitmap::zeros(n));
                let falsity = truth.negated();
                Some((truth, falsity))
            }
            _ => None,
        },
        CompiledExpr::InRanges {
            column: ColRef::Idx(c),
            ranges,
        } => Some(ranges_kernel(chunk, *c, lo, hi, ranges)),
        _ => None,
    }
}

fn flip_cmp(op: BinOp) -> BinOp {
    match op {
        BinOp::Lt => BinOp::Gt,
        BinOp::Le => BinOp::Ge,
        BinOp::Gt => BinOp::Lt,
        BinOp::Ge => BinOp::Le,
        other => other,
    }
}

#[inline]
fn cmp_holds(op: BinOp, ord: Ordering) -> bool {
    match op {
        BinOp::Eq => ord.is_eq(),
        BinOp::Ne => !ord.is_eq(),
        BinOp::Lt => ord.is_lt(),
        BinOp::Le => ord.is_le(),
        BinOp::Gt => ord.is_gt(),
        BinOp::Ge => ord.is_ge(),
        _ => unreachable!("comparison operator"),
    }
}

/// `Value::cmp` semantics for a string cell against any literal without
/// materializing a `Value::Str`: same-type is lexicographic, cross-type
/// follows the fixed type ranks (strings rank above every other type).
#[inline]
fn cmp_str_value(s: &str, v: &Value) -> Ordering {
    match v {
        Value::Str(t) => s.cmp(t.as_str()),
        _ => Ordering::Greater,
    }
}

/// Compare the cell at chunk-relative index `i` against `v`, with exactly
/// [`Value::cmp`]'s total-order semantics. A NULL cell compares its layout's
/// placeholder; callers mask it with the null bitmap.
#[inline]
fn cmp_cell(col: &ColumnVector, i: usize, v: &Value) -> Ordering {
    match col.data() {
        ColumnData::Int(xs) => Value::Int(xs[i]).cmp(v),
        ColumnData::Float(xs) => Value::Float(xs[i]).cmp(v),
        ColumnData::Bool(xs) => Value::Bool(xs[i]).cmp(v),
        ColumnData::Dict { dict, codes } => cmp_str_value(&dict[codes[i] as usize], v),
        ColumnData::Mixed(xs) => xs[i].cmp(v),
        ColumnData::PackedInt(p) => Value::Int(p.get(i)).cmp(v),
    }
}

/// The null bits of `col` over the chunk-relative window `[base, base + n)`
/// as a bitmap (bit `j` ↔ row `base + j` is NULL), or `None` when the column
/// has no NULLs in the chunk.
fn null_window(col: &ColumnVector, base: usize, n: usize) -> Option<SelBitmap> {
    Some(SelBitmap::window(col.null_words()?, base, n))
}

/// Clear the bits of `bits`, a window from chunk row `base` on, whose row
/// holds NULL in `col`: one word-wise pass over the null bitmap.
fn clear_nulls(col: &ColumnVector, base: usize, bits: &mut SelBitmap) {
    if let Some(nw) = null_window(col, base, bits.len()) {
        for (b, w) in bits.words.iter_mut().zip(&nw.words) {
            *b &= !w;
        }
    }
}

/// The bitmap of the `n` cells of a window for which `holds(j)` is true,
/// built a word at a time: 64 cells ORed in without a branch.
fn bits_where(n: usize, holds: impl Fn(usize) -> bool) -> SelBitmap {
    let mut bits = SelBitmap::zeros(n);
    for (w, word) in bits.words.iter_mut().enumerate() {
        let lo = 64 * w;
        let hi = (lo + 64).min(n);
        *word = (lo..hi).fold(0u64, |acc, j| acc | u64::from(holds(j)) << (j - lo));
    }
    bits
}

/// The cells of integer column `col` over the chunk-relative window
/// `[base, base + n)` as a plain slice: a plain column's own cells, a packed
/// column's lanes decoded into `scratch` at once. `None` for any other
/// layout. A NULL cell reads as its layout's placeholder (0, or a packed
/// frame's base); the null bitmap decides.
pub(crate) fn int_window<'a>(
    col: &'a ColumnVector,
    base: usize,
    n: usize,
    scratch: &'a mut Vec<i64>,
) -> Option<&'a [i64]> {
    match col.data() {
        ColumnData::Int(xs) => Some(&xs[base..base + n]),
        ColumnData::PackedInt(p) => {
            p.unpack_into(base, n, scratch);
            Some(scratch)
        }
        _ => None,
    }
}

/// `column <op> literal` over `[lo, hi)`. NULL cells (and a NULL literal) are
/// neither true nor false, matching the interpreter's three-valued compare:
/// every cell is compared, its placeholder too when NULL, and the NULL rows
/// are cleared from both bitmaps afterwards.
fn cmp_kernel(
    chunk: &ColumnarChunk,
    c: usize,
    lo: usize,
    hi: usize,
    op: BinOp,
    lit: &Value,
) -> (SelBitmap, SelBitmap) {
    let n = hi - lo;
    if lit.is_null() {
        return (SelBitmap::zeros(n), SelBitmap::zeros(n));
    }
    let col = chunk.column(c);
    let base = lo - chunk.start;
    let mut truth = match (col.data(), lit) {
        // Integers against an `Int` literal. A packed column's frame of
        // reference bounds every stored value, so a literal outside the
        // frame decides the whole window with one ordering — the common case
        // for selective point/range predicates over clustered columns.
        // Otherwise the window's cells are compared as plain `i64`s, no
        // `Value` in the loop.
        (ColumnData::Int(_) | ColumnData::PackedInt(_), Value::Int(l)) => {
            let decided = match col.data() {
                ColumnData::PackedInt(p) if p.frame().1 < *l => Some(Ordering::Less),
                ColumnData::PackedInt(p) if p.frame().0 > *l => Some(Ordering::Greater),
                _ => None,
            };
            match decided {
                Some(ord) if cmp_holds(op, ord) => SelBitmap::ones(n),
                Some(_) => SelBitmap::zeros(n),
                None => {
                    let mut ints = Vec::new();
                    let xs = int_window(col, base, n, &mut ints).expect("an integer layout");
                    bits_where(n, |j| cmp_holds(op, xs[j].cmp(l)))
                }
            }
        }
        // Dictionary columns against a string literal: one binary search in
        // the sorted dict, then pure `u32` code comparisons.
        (ColumnData::Dict { dict, codes }, Value::Str(s)) => {
            let lb = dict.partition_point(|d| d.as_str() < s.as_str()) as u32;
            let exact = dict.get(lb as usize).is_some_and(|d| d == s);
            bits_where(n, |j| {
                let code = codes[base + j];
                match op {
                    BinOp::Eq => exact && code == lb,
                    BinOp::Ne => !(exact && code == lb),
                    BinOp::Lt => code < lb,
                    BinOp::Le => code < lb + exact as u32,
                    BinOp::Gt => code >= lb + exact as u32,
                    BinOp::Ge => code >= lb,
                    _ => unreachable!("comparison operator"),
                }
            })
        }
        _ => bits_where(n, |j| cmp_holds(op, cmp_cell(col, base + j, lit))),
    };
    let mut falsity = truth.negated();
    clear_nulls(col, base, &mut truth);
    clear_nulls(col, base, &mut falsity);
    (truth, falsity)
}

/// Sketch range membership over `[lo, hi)`; NULL cells are known-false, like
/// the interpreter's `InRanges`. Integer layouts test their cells with
/// [`CompiledRanges::contains_int`]. A NULL cell's placeholder is tested too
/// — 0 in a plain column, the frame base in a packed one — and its bit
/// cleared afterwards.
fn ranges_kernel(
    chunk: &ColumnarChunk,
    c: usize,
    lo: usize,
    hi: usize,
    ranges: &CompiledRanges,
) -> (SelBitmap, SelBitmap) {
    let n = hi - lo;
    let col = chunk.column(c);
    let base = lo - chunk.start;
    let mut ints = Vec::new();
    let mut truth = match int_window(col, base, n, &mut ints) {
        Some(xs) => bits_where(n, |j| ranges.contains_int(xs[j])),
        None => bits_where(n, |j| {
            ranges.contains_by(|b| cmp_cell(col, base + j, b).is_gt())
        }),
    };
    clear_nulls(col, base, &mut truth);
    let falsity = truth.negated();
    (truth, falsity)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::eval_predicate;
    use pbds_algebra::{col, lit, Expr};
    use pbds_storage::{ColumnarChunks, DataType, Schema, ValueRange};

    fn fixture() -> (Schema, Vec<Row>, ColumnarChunks) {
        let schema = Schema::from_pairs(&[
            ("a", DataType::Int),
            ("s", DataType::Str),
            ("f", DataType::Float),
        ]);
        let rows: Vec<Row> = (0..200)
            .map(|i| {
                vec![
                    if i % 11 == 0 {
                        Value::Null
                    } else {
                        Value::Int(i)
                    },
                    Value::Str(format!("v{:02}", i % 17)),
                    Value::Float(i as f64 / 3.0),
                ]
            })
            .collect();
        let chunks = ColumnarChunks::build(&schema, &rows, 64);
        (schema, rows, chunks)
    }

    /// Runny data with NULLs sprinkled inside the runs: `g` and `a` pack
    /// frame-of-reference, `s` is a two-string dictionary. 192 rows = three
    /// full 64-row chunks, so every chunk clears the encoder's minimum-length
    /// bar.
    fn runny_fixture() -> (Schema, Vec<Row>, ColumnarChunks) {
        let schema = Schema::from_pairs(&[
            ("g", DataType::Int),
            ("s", DataType::Str),
            ("a", DataType::Int),
        ]);
        let rows: Vec<Row> = (0..192)
            .map(|i| {
                vec![
                    if i % 23 == 5 {
                        Value::Null
                    } else {
                        Value::Int(i / 25)
                    },
                    if i % 31 == 7 {
                        Value::Null
                    } else {
                        Value::Str(if (i / 40) % 2 == 0 { "AAA" } else { "BBB" }.into())
                    },
                    Value::Int(i % 50),
                ]
            })
            .collect();
        let chunks = ColumnarChunks::build(&schema, &rows, 64);
        (schema, rows, chunks)
    }

    fn assert_block_matches_rows_on(
        schema: &Schema,
        rows: &[Row],
        chunks: &ColumnarChunks,
        pred: &Expr,
    ) {
        let compiled = CompiledExpr::compile(pred, schema);
        for chunk in chunks.chunks() {
            let sel = eval_filter_block(
                &compiled,
                chunk,
                &rows[chunk.start..chunk.end],
                chunk.start,
                chunk.end,
            )
            .unwrap();
            for (j, rid) in (chunk.start..chunk.end).enumerate() {
                assert_eq!(
                    sel.get(j),
                    eval_predicate(pred, schema, &rows[rid]).unwrap(),
                    "row {rid} of {pred}"
                );
            }
        }
    }

    fn assert_block_matches_rows(pred: &Expr) {
        let (schema, rows, chunks) = fixture();
        assert_block_matches_rows_on(&schema, &rows, &chunks, pred);
    }

    #[test]
    fn comparison_kernels_match_interpreter() {
        for pred in [
            col("a").lt(lit(50)),
            col("a").ge(lit(120)),
            col("a").eq(lit(33)),
            col("s").eq(lit("v03")),
            col("s").gt(lit("v10")),
            col("f").le(lit(20.0)),
            lit(7).lt(col("a")),
        ] {
            assert_block_matches_rows(&pred);
        }
    }

    #[test]
    fn encoded_kernels_match_interpreter() {
        let (schema, rows, chunks) = runny_fixture();
        for pred in [
            col("g").lt(lit(4)),
            col("g").eq(lit(2)),
            col("g").ne(lit(0)),
            col("g").ge(lit(7)),
            // Cross-type literals: constant type-rank orderings.
            col("g").lt(lit("zz")),
            col("g").gt(Expr::Literal(Value::Bool(true))),
            col("s").eq(lit("BBB")),
            col("s").le(lit("AAA")),
            col("s").gt(lit(3)),
            col("a").lt(lit(25)),
            col("a").ge(lit(49)),
            col("a").lt(lit("zz")),
            Expr::IsNull(Box::new(col("g"))),
            Expr::IsNull(Box::new(col("s"))).not(),
            col("g").eq(lit(1)).and(col("a").lt(lit(30))),
            col("g").lt(lit(2)).or(col("s").eq(lit("BBB"))),
            col("g").lt(lit(5)).not(),
        ] {
            assert_block_matches_rows_on(&schema, &rows, &chunks, &pred);
        }
    }

    #[test]
    fn encoded_in_ranges_matches_interpreter() {
        let (schema, rows, chunks) = runny_fixture();
        for column in ["g", "s", "a"] {
            let ranges = if column == "s" {
                vec![ValueRange {
                    lo: Some(Value::Str("AA".into())),
                    hi: Some(Value::Str("AZ".into())),
                }]
            } else {
                vec![
                    ValueRange {
                        lo: None,
                        hi: Some(Value::Int(2)),
                    },
                    ValueRange {
                        lo: Some(Value::Int(4)),
                        hi: Some(Value::Int(6)),
                    },
                ]
            };
            let pred = Expr::InRanges {
                column: column.into(),
                ranges,
            };
            assert_block_matches_rows_on(&schema, &rows, &chunks, &pred);
        }
    }

    #[test]
    fn encoded_chunks_select_identically_to_plain_chunks() {
        let (schema, rows, encoded) = runny_fixture();
        let plain = ColumnarChunks::build_plain(&schema, &rows, 64);
        assert!(plain.chunks().iter().all(|c| c.encoded_columns() == 0));
        for pred in [
            col("g").le(lit(3)).and(col("a").ge(lit(10))),
            col("s").ne(lit("AAA")),
        ] {
            let compiled = CompiledExpr::compile(&pred, &schema);
            for (ec, pc) in encoded.chunks().iter().zip(plain.chunks()) {
                let a = eval_filter_block(&compiled, ec, &rows[ec.start..ec.end], ec.start, ec.end)
                    .unwrap();
                let b = eval_filter_block(&compiled, pc, &rows[pc.start..pc.end], pc.start, pc.end)
                    .unwrap();
                assert_eq!(a, b, "{pred}");
            }
        }
    }

    #[test]
    fn counted_eval_attributes_encoded_blocks_and_fallbacks() {
        let (schema, rows, chunks) = runny_fixture();
        let mut stats = ExecStats::default();
        // Kernel-only predicate: blocks counted, no fallbacks.
        let kernel = CompiledExpr::compile(&col("g").lt(lit(3)), &schema);
        for chunk in chunks.chunks() {
            eval_filter_block_counted(
                &kernel,
                chunk,
                &rows[chunk.start..chunk.end],
                chunk.start,
                chunk.end,
                SelBitmap::ones(chunk.len()),
                &mut stats,
            )
            .unwrap();
        }
        assert_eq!(stats.encoded_blocks as usize, chunks.chunks().len());
        assert_eq!(stats.encoded_kernel_fallbacks, 0);
        // Arithmetic conjunct has no kernel: one fallback per encoded block.
        let fallback = CompiledExpr::compile(&col("a").mul(lit(2)).lt(lit(40)), &schema);
        for chunk in chunks.chunks() {
            eval_filter_block_counted(
                &fallback,
                chunk,
                &rows[chunk.start..chunk.end],
                chunk.start,
                chunk.end,
                SelBitmap::ones(chunk.len()),
                &mut stats,
            )
            .unwrap();
        }
        assert_eq!(
            stats.encoded_kernel_fallbacks as usize,
            chunks.chunks().len()
        );
    }

    #[test]
    fn boolean_combinators_match_interpreter() {
        for pred in [
            col("a").ge(lit(10)).and(col("a").lt(lit(90))),
            col("s").eq(lit("v01")).or(col("a").gt(lit(180))),
            col("a").lt(lit(100)).not(),
            Expr::IsNull(Box::new(col("a"))),
            Expr::IsNull(Box::new(col("a"))).not(),
        ] {
            assert_block_matches_rows(&pred);
        }
    }

    #[test]
    fn null_cells_are_neither_true_nor_false_under_not() {
        // NOT (a < 50): NULL a must stay excluded (the interpreter returns
        // false for NOT NULL-comparison), while a >= 50 rows pass.
        assert_block_matches_rows(&col("a").lt(lit(50)).not());
    }

    #[test]
    fn fallback_conjuncts_only_see_surviving_rows() {
        // `a * 2 < 100` has no kernel; combined with a kernel conjunct the
        // result must still match the interpreter row for row.
        assert_block_matches_rows(&col("a").ge(lit(3)).and(col("a").mul(lit(2)).lt(lit(100))));
    }

    #[test]
    fn in_ranges_kernel_matches_interpreter() {
        let pred = Expr::InRanges {
            column: "a".into(),
            ranges: vec![
                ValueRange {
                    lo: None,
                    hi: Some(Value::Int(20)),
                },
                ValueRange {
                    lo: Some(Value::Int(50)),
                    hi: Some(Value::Int(60)),
                },
                ValueRange {
                    lo: Some(Value::Int(150)),
                    hi: None,
                },
            ],
        };
        assert_block_matches_rows(&pred);
    }

    #[test]
    fn bitmap_primitives() {
        let mut b = SelBitmap::zeros(130);
        b.set(0);
        b.set(64);
        b.set(129);
        assert_eq!(b.count(), 3);
        assert_eq!(b.iter_ones().collect::<Vec<_>>(), vec![0, 64, 129]);
        // Resuming mid-word, on a set bit, and past the last word.
        assert_eq!(b.ones_from(1).collect::<Vec<_>>(), vec![64, 129]);
        assert_eq!(b.ones_from(64).collect::<Vec<_>>(), vec![64, 129]);
        assert_eq!(b.ones_from(65).collect::<Vec<_>>(), vec![129]);
        assert_eq!(b.ones_from(200).count(), 0);
        assert!(b.get(64));
        b.clear(64);
        assert!(!b.get(64));
        let ones = SelBitmap::ones(130);
        assert_eq!(ones.count(), 130);
        assert_eq!(ones.negated().count(), 0);
    }

    #[test]
    fn bitmap_range_primitives() {
        let mut b = SelBitmap::zeros(200);
        b.set_range(3, 3); // empty
        assert_eq!(b.count(), 0);
        b.set_range(5, 9); // within one word
        b.set_range(60, 135); // spans three words
        assert_eq!(b.count(), 4 + 75);
        for i in 0..200 {
            assert_eq!(b.get(i), (5..9).contains(&i) || (60..135).contains(&i));
        }
    }

    #[test]
    fn null_window_handles_unaligned_bases() {
        let schema = Schema::from_pairs(&[("a", DataType::Int)]);
        let rows: Vec<Row> = (0..200)
            .map(|i| {
                vec![if i % 7 == 0 {
                    Value::Null
                } else {
                    Value::Int(i as i64)
                }]
            })
            .collect();
        let chunks = ColumnarChunks::build(&schema, &rows, 200);
        let col = chunks.chunks()[0].column(0);
        for (base, n) in [(0, 200), (1, 63), (63, 70), (64, 64), (100, 37)] {
            let w = null_window(col, base, n).expect("column has nulls");
            assert_eq!(w.len(), n);
            for j in 0..n {
                assert_eq!(w.get(j), (base + j) % 7 == 0, "base {base} bit {j}");
            }
        }
    }
}
