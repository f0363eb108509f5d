//! Binary encoders and decoders for the engine's durable types.
//!
//! Everything here targets the frame payloads of [`crate::frame`]: a
//! [`ByteWriter`] assembles a payload, a [`ByteReader`] walks one, and the
//! free `encode_*` / `decode_*` pairs define the layout of each type. The
//! container is offline (no serde), so layouts are spelled out by hand:
//! little-endian fixed-width integers, `u32`-length-prefixed strings and
//! sequences, and one tag byte per enum variant. [`pbds_storage::Value`]
//! supplies its own canonical encoding (`Value::encode_into`), which keeps
//! float identity — NaN payloads, `-0.0` — bit-exact across a round trip.
//!
//! Decoders never panic on malformed input: every structural violation
//! (truncation, unknown tag, arity mismatch, out-of-range fragment ids)
//! surfaces as [`PersistError::Corrupt`].

use crate::PersistError;
use pbds_algebra::{BinOp, Expr};
use pbds_provenance::{FragmentBitset, ProvenanceSketch};
use pbds_storage::{
    CompositePartition, DataType, Partition, PartitionRef, RangePartition, Row, Schema, Table,
    TableImage, Value, ValueRange,
};
use std::sync::Arc;

/// Builds a frame payload.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Start an empty payload.
    pub fn new() -> Self {
        ByteWriter::default()
    }

    /// Finish, returning the payload bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Append a raw byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `bool` as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// Append a `u32`-length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Append a [`Value`] in its canonical encoding.
    pub fn value(&mut self, v: &Value) {
        v.encode_into(&mut self.buf);
    }

    /// Append a `u32`-count-prefixed sequence of values.
    pub fn values(&mut self, vs: &[Value]) {
        self.u32(vs.len() as u32);
        for v in vs {
            self.value(v);
        }
    }
}

/// Walks a frame payload.
#[derive(Debug)]
pub struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Read from the start of a payload.
    pub fn new(bytes: &'a [u8]) -> Self {
        ByteReader { bytes, pos: 0 }
    }

    /// True when every byte has been consumed.
    pub fn is_done(&self) -> bool {
        self.pos == self.bytes.len()
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Validate a decoded element count against the remaining payload:
    /// every countable element of this format consumes at least one byte,
    /// so a count exceeding the remaining bytes is corrupt. This bounds
    /// both loop iterations and `Vec` pre-allocation by the actual payload
    /// size — a tiny corrupt-but-checksummed frame cannot claim 2^32
    /// elements and hang or OOM the reader.
    pub fn count(&self, n: usize, what: &str) -> Result<usize, PersistError> {
        if n > self.remaining() {
            return Err(PersistError::corrupt(format!(
                "{what} count {n} exceeds the {} remaining payload bytes",
                self.remaining()
            )));
        }
        Ok(n)
    }

    /// Error out unless the payload was consumed exactly.
    pub fn finish(self, context: &str) -> Result<(), PersistError> {
        if self.is_done() {
            Ok(())
        } else {
            Err(PersistError::corrupt(format!(
                "{context}: {} trailing bytes",
                self.bytes.len() - self.pos
            )))
        }
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], PersistError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| PersistError::corrupt(format!("truncated {what}")))?;
        let out = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, PersistError> {
        Ok(self.take(1, "u8")?[0])
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, PersistError> {
        Ok(u32::from_le_bytes(
            self.take(4, "u32")?.try_into().expect("4 bytes"),
        ))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, PersistError> {
        Ok(u64::from_le_bytes(
            self.take(8, "u64")?.try_into().expect("8 bytes"),
        ))
    }

    /// Read a `bool` (strictly 0 or 1).
    pub fn bool(&mut self) -> Result<bool, PersistError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(PersistError::corrupt(format!("bad bool byte {other}"))),
        }
    }

    /// Read a `u32`-length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, PersistError> {
        let len = self.u32()? as usize;
        let raw = self.take(len, "string")?;
        String::from_utf8(raw.to_vec())
            .map_err(|_| PersistError::corrupt("string is not valid UTF-8"))
    }

    /// Read a [`Value`] in its canonical encoding.
    pub fn value(&mut self) -> Result<Value, PersistError> {
        let (v, used) = Value::decode_from(&self.bytes[self.pos..])
            .ok_or_else(|| PersistError::corrupt("malformed value"))?;
        self.pos += used;
        Ok(v)
    }

    /// Read a `u32`-count-prefixed sequence of values.
    pub fn values(&mut self) -> Result<Vec<Value>, PersistError> {
        let n = self.u32()? as usize;
        let n = self.count(n, "value")?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.value()?);
        }
        Ok(out)
    }
}

// ---------------------------------------------------------------------------
// Schemas and tables
// ---------------------------------------------------------------------------

fn dtype_tag(t: DataType) -> u8 {
    match t {
        DataType::Int => 0,
        DataType::Float => 1,
        DataType::Str => 2,
        DataType::Bool => 3,
    }
}

fn dtype_from_tag(tag: u8) -> Result<DataType, PersistError> {
    match tag {
        0 => Ok(DataType::Int),
        1 => Ok(DataType::Float),
        2 => Ok(DataType::Str),
        3 => Ok(DataType::Bool),
        other => Err(PersistError::corrupt(format!("unknown data type {other}"))),
    }
}

/// Encode a schema (column names and declared types, in order).
pub fn encode_schema(w: &mut ByteWriter, schema: &Schema) {
    w.u32(schema.arity() as u32);
    for col in schema.columns() {
        w.str(&col.name);
        w.u8(dtype_tag(col.dtype));
    }
}

/// Decode a schema.
pub fn decode_schema(r: &mut ByteReader<'_>) -> Result<Schema, PersistError> {
    let n = r.u32()? as usize;
    let n = r.count(n, "schema column")?;
    let mut columns = Vec::with_capacity(n);
    for _ in 0..n {
        let name = r.str()?;
        let dtype = dtype_from_tag(r.u8()?)?;
        columns.push(pbds_storage::Column::new(name, dtype));
    }
    Ok(Schema::new(columns))
}

/// Encode a table's durable state — name, schema, epochs, physical design
/// and rows, what [`decode_table_image`] reads back — straight from the
/// borrowed table: no row is copied on the way to the bytes.
pub fn encode_table(w: &mut ByteWriter, table: &Table) {
    w.str(table.name());
    encode_schema(w, table.schema());
    w.u64(table.epoch());
    w.u64(table.data_epoch());
    w.u64(table.block_size() as u64);
    w.bool(table.has_zone_map());
    let index_columns = table.indexed_columns();
    w.u32(index_columns.len() as u32);
    for c in index_columns {
        w.str(c);
    }
    w.u64(table.len() as u64);
    for row in table.rows() {
        // Row arity equals the schema arity by `Table` invariant, so rows
        // are written back-to-back without per-row counts.
        for v in row {
            w.value(v);
        }
    }
}

/// Decode a table image (validating block size and row arity).
pub fn decode_table_image(r: &mut ByteReader<'_>) -> Result<TableImage, PersistError> {
    let name = r.str()?;
    let schema = decode_schema(r)?;
    let epoch = r.u64()?;
    let data_epoch = r.u64()?;
    let block_size = r.u64()? as usize;
    if block_size == 0 {
        return Err(PersistError::corrupt(format!(
            "table {name}: zero block size"
        )));
    }
    let with_zone_map = r.bool()?;
    let n_idx = r.u32()? as usize;
    let n_idx = r.count(n_idx, "index column")?;
    let mut index_columns = Vec::with_capacity(n_idx);
    for _ in 0..n_idx {
        index_columns.push(r.str()?);
    }
    let n_rows = r.u64()? as usize;
    let arity = schema.arity();
    if arity == 0 && n_rows > 0 {
        // A zero-column row consumes zero payload bytes, so an unbounded
        // row count could never be caught by truncation errors below.
        return Err(PersistError::corrupt(format!(
            "table {name}: {n_rows} rows under a zero-column schema"
        )));
    }
    let n_rows = r.count(n_rows, "row")?;
    let mut rows: Vec<Row> = Vec::new();
    rows.try_reserve(n_rows)
        .map_err(|_| PersistError::corrupt("row count overflows memory"))?;
    for _ in 0..n_rows {
        let mut row = Vec::with_capacity(arity);
        for _ in 0..arity {
            row.push(r.value()?);
        }
        rows.push(row);
    }
    Ok(TableImage {
        name,
        schema,
        rows,
        epoch,
        data_epoch,
        block_size,
        with_zone_map,
        index_columns,
    })
}

// ---------------------------------------------------------------------------
// Partitions, bitsets, sketches
// ---------------------------------------------------------------------------

/// Encode a partition (range or composite).
pub fn encode_partition(w: &mut ByteWriter, p: &Partition) {
    match p {
        Partition::Range(rp) => {
            w.u8(0);
            w.str(rp.table());
            w.str(rp.attr());
            w.values(rp.uppers());
        }
        Partition::Composite(cp) => {
            w.u8(1);
            w.str(cp.table());
            w.u32(cp.attrs().len() as u32);
            for a in cp.attrs() {
                w.str(a);
            }
            w.u32(cp.keys().len() as u32);
            for key in cp.keys() {
                // Key arity equals the attribute count; no per-key prefix.
                for v in key {
                    w.value(v);
                }
            }
        }
    }
}

/// Decode a partition.
pub fn decode_partition(r: &mut ByteReader<'_>) -> Result<Partition, PersistError> {
    match r.u8()? {
        0 => {
            let table = r.str()?;
            let attr = r.str()?;
            let uppers = r.values()?;
            if !uppers.windows(2).all(|w| w[0] < w[1]) {
                return Err(PersistError::corrupt(
                    "range partition uppers are not strictly increasing",
                ));
            }
            Ok(Partition::Range(RangePartition::from_uppers(
                table, attr, uppers,
            )))
        }
        1 => {
            let table = r.str()?;
            let n_attrs = r.u32()? as usize;
            let n_attrs = r.count(n_attrs, "partition attribute")?;
            if n_attrs == 0 {
                // A zero-attribute key consumes zero bytes per key, which
                // would unbound the loop below (and the partition would be
                // degenerate anyway).
                return Err(PersistError::corrupt(
                    "composite partition with no attributes",
                ));
            }
            let mut attrs = Vec::with_capacity(n_attrs);
            for _ in 0..n_attrs {
                attrs.push(r.str()?);
            }
            let n_keys = r.u32()? as usize;
            let n_keys = r.count(n_keys, "partition key")?;
            let mut keys = Vec::with_capacity(n_keys);
            for _ in 0..n_keys {
                let mut key = Vec::with_capacity(n_attrs);
                for _ in 0..n_attrs {
                    key.push(r.value()?);
                }
                keys.push(key);
            }
            CompositePartition::from_keys(table, attrs, keys)
                .map(Partition::Composite)
                .ok_or_else(|| PersistError::corrupt("invalid composite partition image"))
        }
        other => Err(PersistError::corrupt(format!(
            "unknown partition kind {other}"
        ))),
    }
}

/// Encode a fragment bitset (bit length plus raw words).
pub fn encode_bitset(w: &mut ByteWriter, bits: &FragmentBitset) {
    w.u64(bits.len() as u64);
    w.u32(bits.words().len() as u32);
    for &word in bits.words() {
        w.u64(word);
    }
}

/// Decode a fragment bitset.
pub fn decode_bitset(r: &mut ByteReader<'_>) -> Result<FragmentBitset, PersistError> {
    let nbits = r.u64()? as usize;
    let n_words = r.u32()? as usize;
    let n_words = r.count(n_words, "bitset word")?;
    let mut words = Vec::with_capacity(n_words);
    for _ in 0..n_words {
        words.push(r.u64()?);
    }
    FragmentBitset::from_words(nbits, words)
        .ok_or_else(|| PersistError::corrupt("invalid fragment bitset image"))
}

/// Encode a provenance sketch (its partition plus the fragment bitset).
pub fn encode_sketch(w: &mut ByteWriter, sketch: &ProvenanceSketch) {
    encode_partition(w, sketch.partition());
    encode_bitset(w, sketch.bitset());
}

/// Decode a provenance sketch.
pub fn decode_sketch(r: &mut ByteReader<'_>) -> Result<ProvenanceSketch, PersistError> {
    let partition = decode_partition(r)?;
    let bits = decode_bitset(r)?;
    if partition.num_fragments() != bits.len() {
        return Err(PersistError::corrupt(
            "sketch bitset width disagrees with its partition",
        ));
    }
    let partition: PartitionRef = Arc::new(partition);
    Ok(ProvenanceSketch::new(partition, bits))
}

// ---------------------------------------------------------------------------
// Expressions (for WAL delete predicates)
// ---------------------------------------------------------------------------

fn binop_tag(op: BinOp) -> u8 {
    match op {
        BinOp::Eq => 0,
        BinOp::Ne => 1,
        BinOp::Lt => 2,
        BinOp::Le => 3,
        BinOp::Gt => 4,
        BinOp::Ge => 5,
        BinOp::Add => 6,
        BinOp::Sub => 7,
        BinOp::Mul => 8,
        BinOp::Div => 9,
    }
}

fn binop_from_tag(tag: u8) -> Result<BinOp, PersistError> {
    Ok(match tag {
        0 => BinOp::Eq,
        1 => BinOp::Ne,
        2 => BinOp::Lt,
        3 => BinOp::Le,
        4 => BinOp::Gt,
        5 => BinOp::Ge,
        6 => BinOp::Add,
        7 => BinOp::Sub,
        8 => BinOp::Mul,
        9 => BinOp::Div,
        other => {
            return Err(PersistError::corrupt(format!(
                "unknown binary operator {other}"
            )))
        }
    })
}

fn encode_value_range(w: &mut ByteWriter, range: &ValueRange) {
    for bound in [&range.lo, &range.hi] {
        match bound {
            Some(v) => {
                w.u8(1);
                w.value(v);
            }
            None => w.u8(0),
        }
    }
}

fn decode_value_range(r: &mut ByteReader<'_>) -> Result<ValueRange, PersistError> {
    let mut bounds = [None, None];
    for b in &mut bounds {
        *b = match r.u8()? {
            0 => None,
            1 => Some(r.value()?),
            other => {
                return Err(PersistError::corrupt(format!(
                    "bad range bound marker {other}"
                )))
            }
        };
    }
    let [lo, hi] = bounds;
    Ok(ValueRange { lo, hi })
}

/// Encode a scalar / boolean expression tree.
pub fn encode_expr(w: &mut ByteWriter, e: &Expr) {
    match e {
        Expr::Column(c) => {
            w.u8(0);
            w.str(c);
        }
        Expr::Literal(v) => {
            w.u8(1);
            w.value(v);
        }
        Expr::Param(i) => {
            w.u8(2);
            w.u64(*i as u64);
        }
        Expr::Binary { op, left, right } => {
            w.u8(3);
            w.u8(binop_tag(*op));
            encode_expr(w, left);
            encode_expr(w, right);
        }
        Expr::And(es) => {
            w.u8(4);
            w.u32(es.len() as u32);
            for x in es {
                encode_expr(w, x);
            }
        }
        Expr::Or(es) => {
            w.u8(5);
            w.u32(es.len() as u32);
            for x in es {
                encode_expr(w, x);
            }
        }
        Expr::Not(x) => {
            w.u8(6);
            encode_expr(w, x);
        }
        Expr::Case {
            branches,
            otherwise,
        } => {
            w.u8(7);
            w.u32(branches.len() as u32);
            for (c, res) in branches {
                encode_expr(w, c);
                encode_expr(w, res);
            }
            encode_expr(w, otherwise);
        }
        Expr::InRanges { column, ranges } => {
            w.u8(8);
            w.str(column);
            w.u32(ranges.len() as u32);
            for range in ranges {
                encode_value_range(w, range);
            }
            // The lookup byte: binary search, the only strategy.
            w.u8(1);
        }
        Expr::InList { columns, keys } => {
            w.u8(9);
            w.u32(columns.len() as u32);
            for c in columns {
                w.str(c);
            }
            w.u32(keys.len() as u32);
            for key in keys {
                for v in key {
                    w.value(v);
                }
            }
        }
        Expr::IsNull(x) => {
            w.u8(10);
            encode_expr(w, x);
        }
    }
}

/// Maximum expression nesting depth accepted by [`decode_expr`]; guards
/// against stack exhaustion on adversarial input.
const MAX_EXPR_DEPTH: usize = 512;

/// Decode an expression tree.
pub fn decode_expr(r: &mut ByteReader<'_>) -> Result<Expr, PersistError> {
    decode_expr_at(r, 0)
}

fn decode_expr_at(r: &mut ByteReader<'_>, depth: usize) -> Result<Expr, PersistError> {
    if depth > MAX_EXPR_DEPTH {
        return Err(PersistError::corrupt("expression nests too deeply"));
    }
    Ok(match r.u8()? {
        0 => Expr::Column(r.str()?),
        1 => Expr::Literal(r.value()?),
        2 => Expr::Param(r.u64()? as usize),
        3 => {
            let op = binop_from_tag(r.u8()?)?;
            let left = Box::new(decode_expr_at(r, depth + 1)?);
            let right = Box::new(decode_expr_at(r, depth + 1)?);
            Expr::Binary { op, left, right }
        }
        4 => {
            let n = r.u32()? as usize;
            let n = r.count(n, "conjunct")?;
            let mut es = Vec::with_capacity(n);
            for _ in 0..n {
                es.push(decode_expr_at(r, depth + 1)?);
            }
            Expr::And(es)
        }
        5 => {
            let n = r.u32()? as usize;
            let n = r.count(n, "disjunct")?;
            let mut es = Vec::with_capacity(n);
            for _ in 0..n {
                es.push(decode_expr_at(r, depth + 1)?);
            }
            Expr::Or(es)
        }
        6 => Expr::Not(Box::new(decode_expr_at(r, depth + 1)?)),
        7 => {
            let n = r.u32()? as usize;
            let n = r.count(n, "case branch")?;
            let mut branches = Vec::with_capacity(n);
            for _ in 0..n {
                let c = decode_expr_at(r, depth + 1)?;
                let res = decode_expr_at(r, depth + 1)?;
                branches.push((c, res));
            }
            let otherwise = Box::new(decode_expr_at(r, depth + 1)?);
            Expr::Case {
                branches,
                otherwise,
            }
        }
        8 => {
            let column = r.str()?;
            let n = r.u32()? as usize;
            let n = r.count(n, "range")?;
            let mut ranges = Vec::with_capacity(n);
            for _ in 0..n {
                ranges.push(decode_value_range(r)?);
            }
            match r.u8()? {
                1 => Expr::InRanges { column, ranges },
                other => {
                    return Err(PersistError::corrupt(format!(
                        "unknown range lookup {other}"
                    )))
                }
            }
        }
        9 => {
            let n_cols = r.u32()? as usize;
            let n_cols = r.count(n_cols, "in-list column")?;
            if n_cols == 0 {
                // Zero-width keys would unbound the key loop below.
                return Err(PersistError::corrupt("in-list with no columns"));
            }
            let mut columns = Vec::with_capacity(n_cols);
            for _ in 0..n_cols {
                columns.push(r.str()?);
            }
            let n_keys = r.u32()? as usize;
            let n_keys = r.count(n_keys, "in-list key")?;
            let mut keys = Vec::with_capacity(n_keys);
            for _ in 0..n_keys {
                let mut key = Vec::with_capacity(n_cols);
                for _ in 0..n_cols {
                    key.push(r.value()?);
                }
                keys.push(key);
            }
            Expr::InList { columns, keys }
        }
        10 => Expr::IsNull(Box::new(decode_expr_at(r, depth + 1)?)),
        other => {
            return Err(PersistError::corrupt(format!(
                "unknown expression tag {other}"
            )))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbds_algebra::{col, lit, param};
    use pbds_storage::{Table, TableBuilder};

    fn round_trip_expr(e: &Expr) -> Expr {
        let mut w = ByteWriter::new();
        encode_expr(&mut w, e);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let out = decode_expr(&mut r).expect("decodable");
        r.finish("expr").unwrap();
        out
    }

    #[test]
    fn expr_round_trips_every_variant() {
        let exprs = vec![
            col("a").gt(lit(5)),
            col("a")
                .between(lit(1), lit(10))
                .and(col("s").eq(lit("CA"))),
            col("a").add(col("b")).mul(lit(2.5)).le(param(0)),
            Expr::Or(vec![
                Expr::IsNull(Box::new(col("x"))),
                Expr::Not(Box::new(col("y").eq(lit(false)))),
            ]),
            Expr::Case {
                branches: vec![(col("a").gt(lit(0)), lit(1))],
                otherwise: Box::new(lit(0)),
            },
            Expr::InRanges {
                column: "k".into(),
                ranges: vec![
                    ValueRange {
                        lo: None,
                        hi: Some(Value::Int(5)),
                    },
                    ValueRange {
                        lo: Some(Value::Int(9)),
                        hi: None,
                    },
                ],
            },
            Expr::InList {
                columns: vec!["a".into(), "b".into()],
                keys: vec![
                    vec![Value::Int(1), Value::from("x")],
                    vec![Value::Int(2), Value::Null],
                ],
            },
        ];
        for e in exprs {
            assert_eq!(round_trip_expr(&e), e);
        }
    }

    #[test]
    fn in_ranges_lookup_byte_other_than_binary_search_is_corrupt() {
        let e = Expr::InRanges {
            column: "k".into(),
            ranges: vec![ValueRange {
                lo: None,
                hi: Some(Value::Int(5)),
            }],
        };
        let mut w = ByteWriter::new();
        encode_expr(&mut w, &e);
        let mut bytes = w.into_bytes();
        assert_eq!(bytes.last(), Some(&1), "the lookup byte closes the image");
        for byte in [0, 2] {
            *bytes.last_mut().unwrap() = byte;
            let decoded = decode_expr(&mut ByteReader::new(&bytes));
            assert!(
                matches!(decoded, Err(PersistError::Corrupt(_))),
                "byte {byte}"
            );
        }
    }

    #[test]
    fn table_image_round_trips_with_exotic_floats() {
        let schema = Schema::from_pairs(&[("f", DataType::Float), ("s", DataType::Str)]);
        let mut b = TableBuilder::new("t", schema);
        b.block_size(2).index("f");
        for f in [0.0, -0.0, f64::NAN, f64::INFINITY, 1.5] {
            b.push(vec![Value::Float(f), Value::from("x")]);
        }
        b.push(vec![Value::Null, Value::Null]);
        let table = b.build();
        let mut w = ByteWriter::new();
        encode_table(&mut w, &table);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let decoded = decode_table_image(&mut r).unwrap();
        r.finish("table").unwrap();
        let restored = Table::restore(decoded);
        assert_eq!(restored.rows().len(), table.rows().len());
        for (a, b) in restored.rows().iter().zip(table.rows()) {
            for (x, y) in a.iter().zip(b) {
                // Bit-exact: NaN and -0.0 keep their identity.
                match (x, y) {
                    (Value::Float(x), Value::Float(y)) => assert_eq!(x.to_bits(), y.to_bits()),
                    _ => assert_eq!(x, y),
                }
            }
        }
        assert_eq!(restored.epoch(), table.epoch());
        assert_eq!(restored.data_epoch(), table.data_epoch());
        assert_eq!(restored.indexed_columns(), table.indexed_columns());
    }

    #[test]
    fn sketches_round_trip_over_both_partition_kinds() {
        let range: PartitionRef = Arc::new(Partition::Range(RangePartition::from_uppers(
            "t",
            "a",
            vec![Value::Int(10), Value::Int(20)],
        )));
        let mut sketch = ProvenanceSketch::empty(range);
        sketch.add_fragment(0);
        sketch.add_fragment(2);

        let schema = Schema::from_pairs(&[("a", DataType::Int), ("b", DataType::Str)]);
        let rows = vec![
            vec![Value::Int(1), Value::from("x")],
            vec![Value::Int(2), Value::from("y")],
        ];
        let comp: PartitionRef = Arc::new(Partition::Composite(
            CompositePartition::build("t", &schema, &rows, &["a", "b"]).unwrap(),
        ));
        let mut comp_sketch = ProvenanceSketch::empty(comp);
        comp_sketch.add_fragment(1);

        for s in [&sketch, &comp_sketch] {
            let mut w = ByteWriter::new();
            encode_sketch(&mut w, s);
            let bytes = w.into_bytes();
            let mut r = ByteReader::new(&bytes);
            let d = decode_sketch(&mut r).unwrap();
            r.finish("sketch").unwrap();
            assert_eq!(d.table(), s.table());
            assert_eq!(d.attrs(), s.attrs());
            assert_eq!(d.num_fragments(), s.num_fragments());
            assert_eq!(d.selected_fragments(), s.selected_fragments());
        }
    }

    #[test]
    fn truncated_payloads_error_instead_of_panicking() {
        let mut w = ByteWriter::new();
        encode_expr(&mut w, &col("a").between(lit(1), lit(10)));
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = ByteReader::new(&bytes[..cut]);
            assert!(
                decode_expr(&mut r).is_err() || !r.is_done(),
                "prefix {cut} decoded cleanly"
            );
        }
    }

    #[test]
    fn absurd_element_counts_are_rejected_not_allocated() {
        // A tiny corrupt-but-checksummed payload claiming a huge element
        // count must fail fast, not loop for 2^32+ iterations or allocate
        // gigabytes. Zero-width elements (0-column rows, 0-attribute keys,
        // 0-column in-list keys) are the dangerous case: they consume no
        // payload, so only an explicit guard can bound them.
        // 1. Table image: zero-column schema + huge row count.
        let mut w = ByteWriter::new();
        w.str("t"); // name
        w.u32(0); // zero columns
        w.u64(1); // epoch
        w.u64(1); // data epoch
        w.u64(8); // block size
        w.bool(false);
        w.u32(0); // no index columns
        w.u64(u64::MAX); // absurd row count, zero bytes each
        let bytes = w.into_bytes();
        assert!(decode_table_image(&mut ByteReader::new(&bytes)).is_err());
        // 2. Composite partition with zero attributes.
        let mut w = ByteWriter::new();
        w.u8(1);
        w.str("t");
        w.u32(0); // zero attrs -> zero-width keys
        w.u32(u32::MAX);
        let bytes = w.into_bytes();
        assert!(decode_partition(&mut ByteReader::new(&bytes)).is_err());
        // 3. In-list expression with zero columns.
        let mut w = ByteWriter::new();
        w.u8(9);
        w.u32(0); // zero columns
        w.u32(u32::MAX);
        let bytes = w.into_bytes();
        assert!(decode_expr(&mut ByteReader::new(&bytes)).is_err());
        // 4. Nonzero-width elements with a count far past the payload end.
        let mut w = ByteWriter::new();
        w.u32(u32::MAX); // value count in a 4-byte payload
        let bytes = w.into_bytes();
        assert!(ByteReader::new(&bytes).values().is_err());
    }

    #[test]
    fn corrupt_structures_are_rejected() {
        // A bitset with a stray bit beyond nbits.
        let mut w = ByteWriter::new();
        w.u64(3);
        w.u32(1);
        w.u64(0b1000);
        let bytes = w.into_bytes();
        assert!(decode_bitset(&mut ByteReader::new(&bytes)).is_err());
        // A composite partition with duplicate keys.
        let mut w = ByteWriter::new();
        w.u8(1);
        w.str("t");
        w.u32(1);
        w.str("a");
        w.u32(2);
        w.value(&Value::Int(1));
        w.value(&Value::Int(1));
        let bytes = w.into_bytes();
        assert!(decode_partition(&mut ByteReader::new(&bytes)).is_err());
        // Unsorted range uppers.
        let mut w = ByteWriter::new();
        w.u8(0);
        w.str("t");
        w.str("a");
        w.values(&[Value::Int(5), Value::Int(1)]);
        let bytes = w.into_bytes();
        assert!(decode_partition(&mut ByteReader::new(&bytes)).is_err());
    }
}
