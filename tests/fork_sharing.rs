//! Copy-on-write forks of a table: every fork answers like a table built
//! from scratch over its rows, and a fork nobody touched does not change.
//!
//! The serving tier forks the database once per commit batch
//! (`Database::clone` + `table_mut`) and keeps handing older forks to the
//! queries that were admitted against them, so many versions of one table
//! are alive at once and they share whatever storage they can. This suite
//! grows a random *tree* of forks — at each step one live fork is cloned and
//! one of `append_rows` / `append_row_batches` / `delete_where` /
//! `build_zone_map` / `create_index` is applied to the clone — and after
//! every step checks, for every live fork:
//!
//! 1. **From-scratch equivalence** — rows, zone map, columnar chunks (decoded
//!    values *and* the encoding picked per column per chunk), index probes,
//!    statistics and the durable image equal those of a table built from
//!    scratch over the same rows. Chunk boundaries must tile the table with
//!    blocks no longer than the block size; they must sit at multiples of the
//!    block size as long as no delete has shortened a block since the table
//!    was last chunked.
//! 2. **Snapshot isolation** — a fork not touched in this step is bit for
//!    bit what it was when it was last touched, epochs included.

use pbds_storage::{
    ColumnarChunks, DataType, Row, Schema, Table, TableBuilder, TableImage, Value, ZoneMap,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const COLUMNS: [&str; 4] = ["k", "grp", "s", "f"];

fn schema() -> Schema {
    Schema::from_pairs(&[
        ("k", DataType::Int),
        ("grp", DataType::Int),
        ("s", DataType::Str),
        ("f", DataType::Float),
    ])
}

/// `k` is unique and ascending, `grp` repeats in short runs, `s` is a small
/// dictionary with NULLs, `f` mixes floats and integers in some rows — so
/// chunks pick different encodings and every statistic has something to say.
fn random_row(rng: &mut StdRng, k: i64) -> Row {
    vec![
        Value::Int(k),
        Value::Int((k / 5) % 7),
        match rng.gen_range(0..6u8) {
            0 => Value::Null,
            n => Value::from(format!("s{n}")),
        },
        if rng.gen_range(0..20u8) == 0 {
            Value::Int(rng.gen_range(0..50i64))
        } else {
            Value::Float(rng.gen_range(0..1000i64) as f64 / 4.0)
        },
    ]
}

/// Everything a reader can observe of one table version.
#[derive(Debug, Clone, PartialEq)]
struct Observed {
    rows: Vec<Row>,
    epoch: u64,
    data_epoch: u64,
    /// Per zone-map block: `(start, end, per-column (min, max))`.
    zones: Option<Vec<BlockBounds>>,
    /// Per columnar chunk: `(start, end, per-column (encoding, values))`.
    chunks: Vec<ChunkContents>,
    chunk_block_size: usize,
    /// Per indexed column: the answers to a fixed set of probes.
    probes: Vec<IndexProbes>,
    stats: Vec<ColumnSummary>,
    stat_rows: usize,
    image: (String, Schema, Vec<Row>, usize, bool, Vec<String>),
}

type BlockBounds = (usize, usize, Vec<(Option<Value>, Option<Value>)>);
type ChunkContents = (usize, usize, Vec<(&'static str, Vec<Value>)>);
/// `(column, probe answers, num_keys, indexed_rows)`.
type IndexProbes = (String, Vec<Vec<u32>>, usize, usize);
/// `(min, max, distinct, null_count, row_count)`.
type ColumnSummary = (Option<Value>, Option<Value>, usize, usize, usize);

fn zone_bounds(zm: &ZoneMap) -> Vec<BlockBounds> {
    zm.blocks()
        .iter()
        .map(|b| {
            let cols = b
                .columns
                .iter()
                .map(|z| (z.min.clone(), z.max.clone()))
                .collect();
            (b.start, b.end, cols)
        })
        .collect()
}

fn chunk_contents(chunks: &ColumnarChunks) -> Vec<ChunkContents> {
    chunks
        .chunks()
        .iter()
        .map(|c| {
            let cols = (0..COLUMNS.len())
                .map(|ci| {
                    let col = c.column(ci);
                    (
                        col.data().encoding_name(),
                        (0..c.len()).map(|i| col.value(i)).collect(),
                    )
                })
                .collect();
            (c.start, c.end, cols)
        })
        .collect()
}

fn observe(t: &Table) -> Observed {
    let image: TableImage = t.image();
    assert_eq!(image.epoch, t.epoch());
    assert_eq!(image.data_epoch, t.data_epoch());
    let probes = t
        .indexed_columns()
        .into_iter()
        .map(|c| {
            let idx = t.index_on(c).expect("indexed column has an index");
            let (lo, hi) = match c {
                "s" => (Value::from("s2"), Value::from("s4")),
                "k" => (Value::Int(40), Value::Int(140)),
                _ => (Value::Int(2), Value::Int(4)),
            };
            let probe = idx.multi_range(&[
                (None, Some(lo.clone())),
                (Some(lo.clone()), Some(hi.clone())),
            ]);
            let answers = vec![
                idx.range(None, None),
                idx.range(Some(&lo), Some(&hi)),
                idx.range(Some(&hi), None),
                (0..probe.len() * 64)
                    .filter(|&r| probe[r / 64] >> (r % 64) & 1 == 1)
                    .map(|r| r as u32)
                    .collect(),
                idx.lookup(&lo).to_vec(),
                idx.lookup(&Value::Int(-1)).to_vec(),
            ];
            (c.to_string(), answers, idx.num_keys(), idx.indexed_rows())
        })
        .collect();
    let stats = t.stats();
    let chunks = t.columnar_chunks();
    Observed {
        rows: t.rows().to_vec(),
        epoch: t.epoch(),
        data_epoch: t.data_epoch(),
        zones: t.zone_map().map(|zm| zone_bounds(&zm)),
        chunks: chunk_contents(&chunks),
        chunk_block_size: chunks.block_size(),
        probes,
        stats: COLUMNS
            .iter()
            .map(|c| {
                let s = stats.column(c).unwrap();
                (
                    s.min.clone(),
                    s.max.clone(),
                    t.distinct(c).unwrap(),
                    s.null_count,
                    s.row_count,
                )
            })
            .collect(),
        stat_rows: stats.row_count(),
        image: (
            image.name,
            image.schema,
            image.rows,
            image.block_size,
            image.with_zone_map,
            image.index_columns,
        ),
    }
}

/// One live version of the table, with what the test knows about it.
struct Fork {
    table: Table,
    /// What [`observe`] returned right after this fork was last touched.
    seen: Observed,
    /// False once a delete may have left a block shorter than the block
    /// size in the middle of the table; true again after a re-chunk.
    aligned: bool,
}

/// Check `fork` against a table built from scratch over the same rows.
fn assert_matches_from_scratch(seen: &Observed, table: &Table, aligned: bool) {
    let block_size = table.block_size();
    let mut b = TableBuilder::new(table.name().to_string(), schema());
    b.block_size(block_size);
    if !table.has_zone_map() {
        b.without_zone_map();
    }
    for c in table.indexed_columns() {
        b.index(c);
    }
    b.extend(seen.rows.iter().cloned());
    let fresh = observe(&b.build());

    assert_eq!(seen.rows, fresh.rows);
    assert_eq!(seen.probes, fresh.probes);
    assert_eq!(seen.stats, fresh.stats);
    assert_eq!(seen.stat_rows, fresh.stat_rows);
    assert_eq!(seen.image, fresh.image);
    assert_eq!(seen.chunk_block_size, block_size);
    assert_eq!(seen.zones.is_some(), fresh.zones.is_some());

    // Blocks tile the table; each is summarised and encoded exactly as a
    // from-scratch build over its own rows would.
    let mut next = 0;
    for (start, end, cols) in &seen.chunks {
        assert_eq!(*start, next, "chunks must tile the table");
        assert!(end > start && end - start <= block_size);
        next = *end;
        let alone = ColumnarChunks::build(&schema(), &seen.rows[*start..*end], end - start);
        assert_eq!(cols, &chunk_contents(&alone)[0].2);
    }
    assert_eq!(next, seen.rows.len());
    if let Some(zones) = &seen.zones {
        let spans: Vec<_> = seen.chunks.iter().map(|(s, e, _)| (*s, *e)).collect();
        assert_eq!(
            zones.iter().map(|(s, e, _)| (*s, *e)).collect::<Vec<_>>(),
            spans,
            "zone-map blocks and columnar chunks cover the same row ranges"
        );
        for (start, end, cols) in zones {
            let alone = ZoneMap::build(&schema(), &seen.rows[*start..*end], end - start);
            assert_eq!(cols, &zone_bounds(&alone)[0].2);
        }
    }
    if aligned {
        assert_eq!(seen.chunks, fresh.chunks);
        assert_eq!(seen.zones, fresh.zones);
    }
}

fn base_table(rng: &mut StdRng, next_k: &mut i64) -> Table {
    let mut b = TableBuilder::new("t", schema());
    b.block_size(32).index("k");
    for _ in 0..170 {
        b.push(random_row(rng, *next_k));
        *next_k += 1;
    }
    b.build()
}

/// Apply one random mutation or design change to `fork`.
fn mutate(fork: &mut Fork, rng: &mut StdRng, next_k: &mut i64) {
    let t = &mut fork.table;
    let mut fresh_rows = |rng: &mut StdRng, n: usize| -> Vec<Row> {
        (0..n)
            .map(|_| {
                *next_k += 1;
                random_row(rng, *next_k)
            })
            .collect()
    };
    match rng.gen_range(0..10u8) {
        0..=2 => {
            let n = rng.gen_range(0..70usize);
            let before = t.epoch();
            let after = t.append_rows(fresh_rows(rng, n)).unwrap();
            assert_eq!(after != before, n > 0, "an empty append keeps the epoch");
        }
        3 => {
            let batches: Vec<Vec<Row>> = (0..rng.gen_range(1..4usize))
                .map(|_| {
                    let n = rng.gen_range(0..25usize);
                    fresh_rows(rng, n)
                })
                .collect();
            t.append_row_batches(batches).unwrap();
        }
        4..=6 => {
            let len = t.len();
            let doomed: Vec<usize> = match rng.gen_range(0..7u8) {
                0 => vec![0],
                1 => vec![len / 2],
                2 => vec![len.saturating_sub(1)],
                3 => Vec::new(),
                4 if rng.gen_range(0..4u8) == 0 => (0..len).collect(),
                4 | 5 => {
                    let every = rng.gen_range(2..9usize);
                    (0..len).filter(|i| i % every == 1).collect()
                }
                _ => {
                    let from = rng.gen_range(0..len.max(1));
                    (from..(from + 40).min(len)).collect()
                }
            };
            let before = (t.epoch(), t.data_epoch());
            let mut i = 0;
            let deleted = t.delete_where(|_| {
                i += 1;
                doomed.binary_search(&(i - 1)).is_ok()
            });
            assert_eq!(i, len, "the predicate sees every row once, in order");
            assert_eq!(deleted, doomed.iter().filter(|&&d| d < len).count());
            if deleted == 0 {
                assert_eq!((t.epoch(), t.data_epoch()), before);
            } else {
                fork.aligned = t.is_empty();
            }
        }
        7 | 8 => {
            let sizes = [16usize, 32, 48];
            let other: Vec<usize> = sizes.into_iter().filter(|&s| s != t.block_size()).collect();
            let data_epoch = t.data_epoch();
            t.build_zone_map(other[rng.gen_range(0..other.len())]);
            assert_eq!(t.data_epoch(), data_epoch, "a design change moves no data");
            fork.aligned = true;
        }
        _ => {
            let column = ["k", "grp", "s"][rng.gen_range(0..3usize)];
            assert!(t.create_index(column));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_fork_of_a_random_tree_matches_a_from_scratch_table(
        seed in 0u64..1_000_000,
        steps in 6usize..16,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut next_k = 0i64;
        let table = base_table(&mut rng, &mut next_k);
        prop_assert!(table.zone_map().unwrap().num_blocks() >= 5);
        let seen = observe(&table);
        let mut forks = vec![Fork { table, seen, aligned: true }];

        for _ in 0..steps {
            let parent = rng.gen_range(0..forks.len());
            let mut child = Fork {
                table: forks[parent].table.clone(),
                seen: forks[parent].seen.clone(),
                aligned: forks[parent].aligned,
            };
            prop_assert_eq!(&observe(&child.table), &child.seen);
            // Touch the clone or the original, so both directions of
            // sharing are exercised.
            if rng.gen_range(0..2u8) == 0 {
                std::mem::swap(&mut child, &mut forks[parent]);
            }
            mutate(&mut child, &mut rng, &mut next_k);
            child.seen = observe(&child.table);
            forks.push(child);

            for fork in &forks {
                let now = observe(&fork.table);
                prop_assert_eq!(&now, &fork.seen);
                assert_matches_from_scratch(&now, &fork.table, fork.aligned);
            }
        }
    }
}

/// What only shared chunks can pass: a fork keeps the very allocations —
/// rows and encoded columns — of every chunk it did not rewrite. An append
/// rewrites the open last chunk only; a one-row delete rewrites the chunk it
/// hits only, and the chunks behind it move without being copied.
#[test]
fn a_fork_shares_every_chunk_it_does_not_rewrite() {
    let mut rng = StdRng::seed_from_u64(7);
    let mut b = TableBuilder::new("t", schema());
    b.block_size(32).index("k");
    b.extend((0..300).map(|k| random_row(&mut rng, k)));
    let parent = b.build();
    let chunks = parent.columnar_chunks();
    assert_eq!(chunks.chunks().len(), 10);
    let rows_of =
        |t: &Table, block: usize| t.rows().slice_at(chunks.chunks()[block].start).1.as_ptr();

    let mut fork = parent.clone();
    fork.append_rows((300..308).map(|k| random_row(&mut rng, k)).collect())
        .unwrap();
    let after_append = fork.columnar_chunks();
    for sealed in 0..9 {
        assert!(std::ptr::eq(
            rows_of(&parent, sealed),
            rows_of(&fork, sealed)
        ));
        let (was, is) = (&chunks.chunks()[sealed], &after_append.chunks()[sealed]);
        assert!(
            std::sync::Arc::ptr_eq(was, is),
            "chunk {sealed} was re-encoded"
        );
    }
    assert!(!std::ptr::eq(rows_of(&parent, 9), rows_of(&fork, 9)));
    assert_eq!(after_append.chunks()[9].end, 308);

    let hit = 6;
    let doomed = Value::Int(hit as i64 * 32 + 5);
    let mut fork = parent.clone();
    assert_eq!(fork.delete_where(|row| row[0] == doomed), 1);
    let after_delete = fork.columnar_chunks();
    assert_eq!(after_delete.chunks().len(), 10);
    for block in 0..10 {
        let (was, is) = (&chunks.chunks()[block], &after_delete.chunks()[block]);
        let same_rows = std::ptr::eq(
            parent.rows().slice_at(was.start).1.as_ptr(),
            fork.rows().slice_at(is.start).1.as_ptr(),
        );
        let same_columns = std::ptr::eq(was.column(0), is.column(0));
        assert_eq!(same_rows, block != hit, "rows of chunk {block}");
        assert_eq!(same_columns, block != hit, "columns of chunk {block}");
        // In front of the delete nothing moved: the very same chunk handle.
        assert_eq!(std::sync::Arc::ptr_eq(was, is), block < hit);
        assert_eq!(is.start, was.start - usize::from(block > hit));
    }
    // The parent never noticed.
    assert_eq!(parent.len(), 300);
    assert!(std::sync::Arc::ptr_eq(&chunks, &parent.columnar_chunks()));
}
