//! Property tests: the compiled expression evaluator and the vectorized
//! block filter are drop-in equivalents of the row interpreter.
//!
//! * `eval_expr == CompiledExpr::eval` for random expressions over random
//!   schemas and rows — same values **and** same errors (NULLs, mixed-type
//!   columns, unknown columns, unbound parameters);
//! * `eval_filter_block` produces exactly the selection the per-row
//!   interpreter would, chunk by chunk, and errors whenever it would.

use pbds_algebra::{BinOp, Expr};
use pbds_exec::vector::eval_filter_block;
use pbds_exec::{eval_expr, eval_predicate, CompiledExpr};
use pbds_storage::{
    ColumnData, ColumnarChunks, DataType, Row, Schema, TableBuilder, Value, ValueRange,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const COLUMNS: [(&str, DataType); 4] = [
    ("a", DataType::Int),
    ("b", DataType::Float),
    ("s", DataType::Str),
    ("t", DataType::Str),
];

fn schema() -> Schema {
    Schema::from_pairs(&COLUMNS)
}

const STRINGS: [&str; 5] = ["AK", "CA", "NY", "TX", "zz"];

fn random_value(rng: &mut StdRng) -> Value {
    match rng.gen_range(0..10) {
        0 => Value::Null,
        1..=4 => Value::Int(rng.gen_range(-30..30)),
        5..=6 => Value::Float(rng.gen_range(-30.0..30.0)),
        7 => Value::Bool(rng.gen_range(0..2) == 1),
        _ => Value::from(STRINGS[rng.gen_range(0..STRINGS.len())]),
    }
}

/// A row with deliberate type-mix: each column usually carries its declared
/// type, but sometimes any value at all (the dynamically typed row store
/// allows that, and the engine must agree with the interpreter on it).
fn random_row(rng: &mut StdRng) -> Row {
    COLUMNS
        .iter()
        .map(|(_, dtype)| {
            if rng.gen_range(0..10) == 0 {
                return random_value(rng); // type-mix / NULL
            }
            match dtype {
                DataType::Int => Value::Int(rng.gen_range(-30..30)),
                DataType::Float => Value::Float(rng.gen_range(-30.0..30.0)),
                DataType::Str => Value::from(STRINGS[rng.gen_range(0..STRINGS.len())]),
                DataType::Bool => Value::Bool(rng.gen_range(0..2) == 1),
            }
        })
        .collect()
}

fn random_column(rng: &mut StdRng) -> String {
    // Mostly valid names, sometimes an unknown one (must error identically).
    if rng.gen_range(0..12) == 0 {
        "nope".to_string()
    } else {
        COLUMNS[rng.gen_range(0..COLUMNS.len())].0.to_string()
    }
}

fn random_ranges(rng: &mut StdRng) -> Vec<ValueRange> {
    // Ordered, non-overlapping ranges as `Expr::InRanges` requires.
    let mut bounds: Vec<i64> = (0..rng.gen_range(2..6))
        .map(|_| rng.gen_range(-30..30))
        .collect();
    bounds.sort_unstable();
    bounds.dedup();
    bounds
        .chunks(2)
        .map(|c| ValueRange {
            lo: Some(Value::Int(c[0])),
            hi: c.get(1).map(|&h| Value::Int(h)),
        })
        .collect()
}

fn random_expr(rng: &mut StdRng, depth: usize) -> Expr {
    let leaf = depth == 0 || rng.gen_range(0..3) == 0;
    if leaf {
        return match rng.gen_range(0..8) {
            0..=3 => Expr::Column(random_column(rng)),
            4..=5 => Expr::Literal(random_value(rng)),
            6 => Expr::Param(rng.gen_range(0..2)),
            _ => Expr::InRanges {
                column: random_column(rng),
                ranges: random_ranges(rng),
            },
        };
    }
    let sub = |rng: &mut StdRng| Box::new(random_expr(rng, depth - 1));
    match rng.gen_range(0..7) {
        0 => {
            let ops = [
                BinOp::Add,
                BinOp::Sub,
                BinOp::Mul,
                BinOp::Div,
                BinOp::Eq,
                BinOp::Ne,
                BinOp::Lt,
                BinOp::Le,
                BinOp::Gt,
                BinOp::Ge,
            ];
            Expr::Binary {
                op: ops[rng.gen_range(0..ops.len())],
                left: sub(rng),
                right: sub(rng),
            }
        }
        1 => Expr::And(
            (0..rng.gen_range(2..4))
                .map(|_| random_expr(rng, depth - 1))
                .collect(),
        ),
        2 => Expr::Or(
            (0..rng.gen_range(2..4))
                .map(|_| random_expr(rng, depth - 1))
                .collect(),
        ),
        3 => Expr::Not(sub(rng)),
        4 => Expr::IsNull(sub(rng)),
        5 => Expr::Case {
            branches: (0..rng.gen_range(1..3))
                .map(|_| (random_expr(rng, depth - 1), random_expr(rng, depth - 1)))
                .collect(),
            otherwise: sub(rng),
        },
        _ => {
            let columns: Vec<String> = (0..rng.gen_range(1..3))
                .map(|_| random_column(rng))
                .collect();
            let mut keys: Vec<Vec<Value>> = (0..rng.gen_range(0..5))
                .map(|_| (0..columns.len()).map(|_| random_value(rng)).collect())
                .collect();
            keys.sort();
            keys.dedup();
            Expr::InList { columns, keys }
        }
    }
}

/// Rows shaped so every chunk layout occurs: `a` holds small ints in short
/// runs (frame-of-reference packed), with stretches scaled past 16 bits that
/// leave their chunks plain; `b` plain floats; `s` low-cardinality strings
/// (a sorted dictionary); `t` strings — or, for one call in three, booleans —
/// where a rare type-mixed cell forces the plain `Mixed` fallback for its
/// chunk. Occasional NULLs throughout.
fn runny_rows(rng: &mut StdRng, n: usize) -> Vec<Row> {
    let mut a = rng.gen_range(0..8i64);
    let mut wide = false;
    let mut s = STRINGS[rng.gen_range(0..3)];
    let mut t = STRINGS[rng.gen_range(0..STRINGS.len())];
    let bools = rng.gen_range(0..3) == 0;
    (0..n)
        .map(|_| {
            if rng.gen_range(0..3) == 0 {
                a = rng.gen_range(0..8);
            }
            if rng.gen_range(0..50) == 0 {
                wide = !wide;
            }
            if rng.gen_range(0..8) == 0 {
                s = STRINGS[rng.gen_range(0..3)];
            }
            if rng.gen_range(0..4) == 0 {
                t = STRINGS[rng.gen_range(0..STRINGS.len())];
            }
            vec![
                if rng.gen_range(0..40) == 0 {
                    Value::Null
                } else if wide {
                    Value::Int(a * 1_000_003)
                } else {
                    Value::Int(a)
                },
                Value::Float(a as f64 * 0.5),
                if rng.gen_range(0..50) == 0 {
                    Value::Null
                } else {
                    Value::from(s)
                },
                if rng.gen_range(0..60) == 0 {
                    random_value(rng) // type-mix: plain fallback territory
                } else if bools {
                    Value::Bool(t < "NY")
                } else {
                    Value::from(t)
                },
            ]
        })
        .collect()
}

/// Guard against the property tests below going vacuous: over a few calls,
/// the runny generator produces every chunk layout the kernels branch on —
/// plain and packed integers, floats, a dictionary, booleans and mixed
/// types — and packed chunks whose frame of reference decides, for the
/// whole chunk, a comparison with a literal the expression generator draws.
#[test]
fn runny_rows_actually_encode() {
    let mut layouts = Vec::new();
    let mut frame_decides = false;
    for seed in 0..8 {
        let mut rng = StdRng::seed_from_u64(seed);
        let rows = runny_rows(&mut rng, 192);
        let enc = ColumnarChunks::build(&schema(), &rows, 64);
        for chunk in enc.chunks() {
            for c in 0..COLUMNS.len() {
                let data = chunk.column(c).data();
                layouts.push(data.encoding_name());
                if let ColumnData::PackedInt(p) = data {
                    // Literals are drawn from -30..30: one below the frame.
                    frame_decides |= -30 < p.base();
                }
            }
        }
    }
    for layout in ["int", "packed-int", "float", "dict", "bool", "mixed"] {
        assert!(
            layouts.contains(&layout),
            "no {layout} chunk from the generator"
        );
    }
    assert!(
        frame_decides,
        "no packed chunk whose frame decides a literal"
    );
}

/// How [`sketch_ranges`] lays its sorted bounds out into ranges.
#[derive(Clone, Copy, Debug)]
enum RangeShape {
    /// `(b0, b1], (b2, b3], …`: sorted and disjoint, the sketch shape.
    Disjoint,
    /// `(b0, b1], (b1, b2], …`: sorted, each range sharing a bound with the
    /// next.
    Adjacent,
    /// Disjoint ranges in reverse order, or with a range added over two of
    /// them: the binary search and the union of the ranges answer
    /// differently, and the compiled ranges must follow the search the
    /// interpreter does.
    Unordered,
}

/// Sketch ranges (exclusive lower / inclusive upper, maybe open at either
/// end) around `origin`: bounds within 30 of it, sometimes an `i64` extreme.
/// All bounds are `Int`s or — with `mixed` — at least one is a `Float`.
fn sketch_ranges(rng: &mut StdRng, origin: i64, shape: RangeShape, mixed: bool) -> Vec<ValueRange> {
    let mut bounds: Vec<Value> = (0..rng.gen_range(1..8))
        .map(|_| match rng.gen_range(0..10) {
            0 => Value::Int(i64::MIN),
            1 => Value::Int(i64::MAX),
            _ => Value::Int(origin.saturating_add(rng.gen_range(-30..30))),
        })
        .collect();
    if mixed {
        bounds.push(Value::Float(
            origin as f64 + rng.gen_range(-30..30) as f64 + 0.5,
        ));
    }
    bounds.sort();
    bounds.dedup();
    let range = |c: &[Value]| ValueRange {
        lo: Some(c[0].clone()),
        hi: c.get(1).cloned(),
    };
    let mut ranges: Vec<ValueRange> = match shape {
        RangeShape::Adjacent => bounds.windows(2).map(range).collect(),
        RangeShape::Disjoint | RangeShape::Unordered => bounds.chunks(2).map(range).collect(),
    };
    if ranges.is_empty() {
        ranges.push(range(&bounds));
    }
    if rng.gen_range(0..3) == 0 {
        ranges[0].lo = None;
    }
    if let RangeShape::Unordered = shape {
        if ranges.len() > 2 && rng.gen_range(0..2) == 0 {
            let over = ValueRange {
                lo: ranges[0].lo.clone(),
                hi: ranges[1].hi.clone(),
            };
            ranges.insert(1, over);
        } else {
            ranges.reverse();
        }
    }
    ranges
}

/// One cell of a sketch-ranged column: mostly an `Int` within 30 of
/// `origin`, sometimes at the `i64` extremes, else a `Float` (integral or
/// not), NULL, a string or a bool.
fn ranged_cell(rng: &mut StdRng, origin: i64) -> Value {
    let near = |rng: &mut StdRng| origin.saturating_add(rng.gen_range(-30..30));
    match rng.gen_range(0..12) {
        0 => Value::Null,
        1 => Value::Float(near(rng) as f64),
        2 => Value::Float(near(rng) as f64 + rng.gen_range(-1.0..1.0)),
        3 => Value::from(STRINGS[rng.gen_range(0..STRINGS.len())]),
        4 => Value::Bool(rng.gen_range(0..2) == 1),
        5 => Value::Int([i64::MIN, i64::MAX][rng.gen_range(0..2)]),
        _ => Value::Int(near(rng)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// Sketch range membership with all-`Int` and with mixed `Int` / `Float`
    /// bounds, over cells of every type: the compiled predicate equals the
    /// interpreter row by row, and the block filter selects what the
    /// interpreter selects — over mixed-type chunks and over runny integer
    /// chunks (bit-packed and plain layouts). Ranges are sorted and
    /// disjoint, share bounds, or come unsorted and overlapping, around 0 and
    /// next to either `i64` extreme: the bitmap of narrow integer ranges and
    /// the binary search over integer and over `Value` bounds are all
    /// reached.
    #[test]
    fn in_ranges_matches_interpreter_for_int_and_mixed_bounds(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let schema = Schema::from_pairs(&[("a", DataType::Int)]);
        let origin = [0, i64::MIN, i64::MAX][rng.gen_range(0..3)];
        let mixed_rows: Vec<Row> = (0..96).map(|_| vec![ranged_cell(&mut rng, origin)]).collect();
        let mut run = rng.gen_range(-30..30i64);
        let runny_rows: Vec<Row> = (0..192)
            .map(|_| {
                if rng.gen_range(0..5) == 0 {
                    run = rng.gen_range(-30..30);
                }
                let cell = Value::Int(origin.saturating_add(run));
                vec![if rng.gen_range(0..25) == 0 { Value::Null } else { cell }]
            })
            .collect();
        let shape = [RangeShape::Disjoint, RangeShape::Adjacent, RangeShape::Unordered]
            [rng.gen_range(0..3)];
        for mixed in [false, true] {
            let ranges = sketch_ranges(&mut rng, origin, shape, mixed);
            let pred = Expr::InRanges { column: "a".into(), ranges };
            let compiled = CompiledExpr::compile(&pred, &schema);
            for rows in [&mixed_rows, &runny_rows] {
                for row in rows.iter() {
                    prop_assert_eq!(
                        compiled.eval(row), eval_expr(&pred, &schema, row),
                        "{:?}: {} over {:?}", shape, pred, row
                    );
                }
                for chunks in [
                    ColumnarChunks::build(&schema, rows, 64),
                    ColumnarChunks::build_plain(&schema, rows, 64),
                ] {
                    for chunk in chunks.chunks() {
                        let piece = &rows[chunk.start..chunk.end];
                        let sel = eval_filter_block(
                            &compiled, chunk, piece, chunk.start, chunk.end,
                        ).unwrap();
                        for (j, row) in piece.iter().enumerate() {
                            prop_assert_eq!(
                                sel.get(j),
                                eval_predicate(&pred, &schema, row).unwrap(),
                                "{:?}: row {} of {}", shape, chunk.start + j, pred
                            );
                        }
                    }
                }
            }
        }
    }

    /// Encoded chunks are lossless: every cell decodes back to the source
    /// row value, and a table that grew by an append — which refills its
    /// last chunk and encodes only what is new — lands on the same encodings
    /// (and bytes) as a fresh build over the same rows.
    #[test]
    fn encoded_chunks_roundtrip_and_extend_deterministically(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let schema = schema();
        let n = rng.gen_range(40..220usize);
        let rows = runny_rows(&mut rng, n);
        let block = [32usize, 64, 100][rng.gen_range(0..3)];
        let fresh = ColumnarChunks::build(&schema, &rows, block);
        for chunk in fresh.chunks() {
            for (i, row) in rows.iter().enumerate().take(chunk.end).skip(chunk.start) {
                for (c, cell) in row.iter().enumerate() {
                    prop_assert_eq!(
                        chunk.column(c).value(i - chunk.start),
                        cell.clone(),
                        "column {} row {}", c, i
                    );
                }
            }
        }
        // Incremental path: a table over a prefix, encoded, then appended to.
        let split = rng.gen_range(0..=n);
        let mut b = TableBuilder::new("t", schema.clone());
        b.block_size(block).extend(rows[..split].iter().cloned());
        let mut table = b.build();
        let _ = table.columnar_chunks();
        table.append_rows(rows[split..].to_vec()).unwrap();
        let inc = table.columnar_chunks();
        prop_assert_eq!(inc.chunks().len(), fresh.chunks().len());
        for c in 0..COLUMNS.len() {
            prop_assert_eq!(
                inc.column_encoding_counts(c),
                fresh.column_encoding_counts(c),
                "column {} split {}", c, split
            );
        }
        prop_assert_eq!(inc.approx_bytes(), fresh.approx_bytes());
        for (ic, fc) in inc.chunks().iter().zip(fresh.chunks()) {
            for c in 0..COLUMNS.len() {
                for j in 0..(ic.end - ic.start) {
                    prop_assert_eq!(ic.column(c).value(j), fc.column(c).value(j));
                }
            }
        }
    }

    /// The encoded kernels select exactly what the plain (decoded) chunks
    /// select, for arbitrary predicates — and error in exactly the same
    /// cases.
    #[test]
    fn block_filter_agrees_on_encoded_and_plain_chunks(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let schema = schema();
        let pred = random_expr(&mut rng, 3);
        let rows = runny_rows(&mut rng, 192);
        let enc = ColumnarChunks::build(&schema, &rows, 64);
        let plain = ColumnarChunks::build_plain(&schema, &rows, 64);
        let compiled = CompiledExpr::compile(&pred, &schema);
        for (ec, pc) in enc.chunks().iter().zip(plain.chunks()) {
            let a = eval_filter_block(&compiled, ec, &rows[ec.start..ec.end], ec.start, ec.end);
            let b = eval_filter_block(&compiled, pc, &rows[pc.start..pc.end], pc.start, pc.end);
            match (a, b) {
                (Ok(x), Ok(y)) => prop_assert_eq!(x, y, "pred {}", pred),
                (Err(_), Err(_)) => {}
                (a, b) => prop_assert!(
                    false,
                    "divergent outcomes (encoded ok: {}, plain ok: {}) for {}",
                    a.is_ok(), b.is_ok(), pred
                ),
            }
        }
    }

    /// Value- and error-parity of `CompiledExpr::eval` against `eval_expr`.
    #[test]
    fn compiled_eval_matches_interpreter(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let schema = schema();
        let expr = random_expr(&mut rng, 3);
        let compiled = CompiledExpr::compile(&expr, &schema);
        for _ in 0..16 {
            let row = random_row(&mut rng);
            let expected = eval_expr(&expr, &schema, &row);
            let actual = compiled.eval(&row);
            prop_assert_eq!(
                &actual, &expected,
                "expr {} over {:?}", expr, row
            );
        }
    }

    /// The vectorized block filter selects exactly the rows the per-row
    /// interpreter selects — and errors whenever the interpreter would.
    #[test]
    fn block_filter_matches_row_interpreter(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let schema = schema();
        let pred = random_expr(&mut rng, 3);
        let rows: Vec<Row> = (0..96).map(|_| random_row(&mut rng)).collect();
        let chunks = ColumnarChunks::build(&schema, &rows, 40);
        let compiled = CompiledExpr::compile(&pred, &schema);
        for chunk in chunks.chunks() {
            let expected: Result<Vec<bool>, _> = rows[chunk.start..chunk.end]
                .iter()
                .map(|r| eval_predicate(&pred, &schema, r))
                .collect();
            let actual = eval_filter_block(&compiled, chunk, &rows[chunk.start..chunk.end], chunk.start, chunk.end);
            match expected {
                Ok(bits) => {
                    let sel = actual.expect("interpreter succeeded, block eval must too");
                    for (j, want) in bits.iter().enumerate() {
                        prop_assert_eq!(
                            sel.get(j), *want,
                            "row {} of {}", chunk.start + j, pred
                        );
                    }
                }
                Err(_) => {
                    prop_assert!(
                        actual.is_err(),
                        "interpreter errored but block eval succeeded for {}", pred
                    );
                }
            }
        }
    }
}
