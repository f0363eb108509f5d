//! Provenance sketches (Sec. 4 of the paper).
//!
//! A provenance sketch for a query `Q`, database `D` and partition `F` of a
//! relation `R` is a set of fragments of `F` that covers `Q`'s provenance
//! within `R`. It is *accurate* when it contains only fragments that actually
//! hold provenance, and *safe* when evaluating `Q` over the data described by
//! the sketch returns `Q(D)`.

use crate::bitset::FragmentBitset;
use pbds_storage::{
    Database, Partition, PartitionRef, Row, Schema, StorageError, Table, Value, ValueRange,
};
use std::fmt;
use std::sync::Arc;

/// A provenance sketch: a partition plus the set of selected fragments.
#[derive(Debug, Clone)]
pub struct ProvenanceSketch {
    partition: PartitionRef,
    fragments: FragmentBitset,
}

impl ProvenanceSketch {
    /// Create a sketch from a partition and fragment bitset.
    pub fn new(partition: PartitionRef, fragments: FragmentBitset) -> Self {
        assert_eq!(partition.num_fragments(), fragments.len());
        ProvenanceSketch {
            partition,
            fragments,
        }
    }

    /// An empty sketch (no fragments selected) over a partition.
    pub fn empty(partition: PartitionRef) -> Self {
        let n = partition.num_fragments();
        ProvenanceSketch {
            partition,
            fragments: FragmentBitset::new(n),
        }
    }

    /// Build the *accurate* sketch for an explicit set of provenance rows of
    /// the partitioned table (used by tests and by ground-truth comparisons).
    pub fn from_rows(
        partition: PartitionRef,
        schema: &Schema,
        rows: impl IntoIterator<Item = Row>,
    ) -> Self {
        let mut bits = FragmentBitset::new(partition.num_fragments());
        // Resolve the partitioning attributes once, not per row.
        if let Some(idxs) = partition.resolve_attrs(schema) {
            for row in rows {
                if let Some(f) = partition.fragment_of_row_at(&idxs, &row) {
                    bits.set(f);
                }
            }
        }
        ProvenanceSketch::new(partition, bits)
    }

    /// The partition this sketch is defined over.
    pub fn partition(&self) -> &PartitionRef {
        &self.partition
    }

    /// The partitioned table.
    pub fn table(&self) -> &str {
        self.partition.table()
    }

    /// The partitioning attributes.
    pub fn attrs(&self) -> Vec<String> {
        self.partition.attrs()
    }

    /// Total number of fragments of the partition.
    pub fn num_fragments(&self) -> usize {
        self.partition.num_fragments()
    }

    /// Number of fragments selected by the sketch.
    pub fn num_selected(&self) -> usize {
        self.fragments.count()
    }

    /// The selected fragment ids.
    pub fn selected_fragments(&self) -> Vec<usize> {
        self.fragments.ones()
    }

    /// The underlying bitset.
    pub fn bitset(&self) -> &FragmentBitset {
        &self.fragments
    }

    /// Add a fragment to the sketch (sketches remain sketches when fragments
    /// are added — Lemma 5).
    pub fn add_fragment(&mut self, fragment: usize) {
        self.fragments.set(fragment);
    }

    /// Maintain the sketch across an append to the partitioned table: add
    /// the fragment of every appended row, so the sketch stays a superset of
    /// the accurate sketch over the grown data (fragments that received no
    /// new rows keep their membership; fragments that did are now fully
    /// included, covering any group whose aggregate the append changed).
    ///
    /// Returns `false` when some new row has **no** fragment under this
    /// partition (a novel composite key, or a NULL partitioning value): the
    /// partition's shape cannot describe the new data, so the sketch cannot
    /// be maintained and the caller must force a recapture. Fragments set
    /// before the failing row stay set — the sketch only ever grows, which
    /// is harmless for a sketch about to be discarded.
    pub fn extend_for_append<'a>(
        &mut self,
        schema: &Schema,
        new_rows: impl IntoIterator<Item = &'a Row>,
    ) -> bool {
        let Some(idxs) = self.partition.resolve_attrs(schema) else {
            return false;
        };
        for row in new_rows {
            match self.partition.fragment_of_row_at(&idxs, row) {
                Some(f) => self.fragments.set(f),
                None => return false,
            }
        }
        true
    }

    /// Union with another sketch over the same partition.
    pub fn union(&self, other: &ProvenanceSketch) -> ProvenanceSketch {
        assert!(Arc::ptr_eq(&self.partition, &other.partition) || self.compatible_with(other));
        ProvenanceSketch {
            partition: self.partition.clone(),
            fragments: self.fragments.or(&other.fragments),
        }
    }

    /// True if both sketches are over the same table, attributes and number
    /// of fragments (so unioning / containment checks are meaningful).
    pub fn compatible_with(&self, other: &ProvenanceSketch) -> bool {
        self.table() == other.table()
            && self.attrs() == other.attrs()
            && self.num_fragments() == other.num_fragments()
    }

    /// True when this sketch covers every fragment of `other`.
    pub fn is_superset_of(&self, other: &ProvenanceSketch) -> bool {
        self.compatible_with(other) && other.fragments.is_subset_of(&self.fragments)
    }

    /// Does a row of the partitioned table fall into the sketch?
    pub fn covers_row(&self, schema: &Schema, row: &Row) -> bool {
        self.partition
            .fragment_of_row(schema, row)
            .map(|f| self.fragments.get(f))
            .unwrap_or(false)
    }

    /// Row ids of the sketch instance `R_P` (all rows of the table that
    /// belong to a selected fragment).
    pub fn instance_row_ids(&self, table: &Table) -> Vec<u32> {
        let Some(idxs) = self.partition.resolve_attrs(table.schema()) else {
            return Vec::new();
        };
        table
            .rows()
            .iter()
            .enumerate()
            .filter(|(_, r)| {
                self.partition
                    .fragment_of_row_at(&idxs, r)
                    .map(|f| self.fragments.get(f))
                    .unwrap_or(false)
            })
            .map(|(i, _)| i as u32)
            .collect()
    }

    /// Fraction of the table's rows covered by the sketch — the *selectivity*
    /// reported in Fig. 9 of the paper (lower is better).
    pub fn selectivity(&self, db: &Database) -> Result<f64, StorageError> {
        let table = db.table(self.table())?;
        if table.is_empty() {
            return Ok(0.0);
        }
        let covered = self.instance_row_ids(table).len();
        Ok(covered as f64 / table.len() as f64)
    }

    /// For range-partition sketches: the (adjacent-merged) value ranges
    /// covering the selected fragments, used to build the filter predicate of
    /// `Q[P]` (Sec. 8).
    pub fn to_ranges(&self) -> Option<Vec<ValueRange>> {
        match self.partition.as_ref() {
            Partition::Range(p) => Some(p.merged_ranges(&self.fragments.ones())),
            Partition::Composite(_) => None,
        }
    }

    /// For composite sketches: the composite keys covering the selected
    /// fragments.
    pub fn to_keys(&self) -> Option<Vec<Vec<Value>>> {
        match self.partition.as_ref() {
            Partition::Range(_) => None,
            Partition::Composite(p) => Some(p.keys_of(&self.fragments.ones())),
        }
    }

    /// Approximate size of the sketch in bytes (the paper emphasises sketches
    /// are 10s–100s of bytes, Sec. 2).
    pub fn size_bytes(&self) -> usize {
        self.num_fragments().div_ceil(8)
    }
}

impl fmt::Display for ProvenanceSketch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "sketch[{}.{:?}: {}/{} fragments]",
            self.table(),
            self.attrs(),
            self.num_selected(),
            self.num_fragments()
        )
    }
}

/// A set of sketches, at most one per relation (the paper's `PS`).
pub type SketchSet = Vec<ProvenanceSketch>;

/// Build the database `D_PS`: every sketched relation restricted to its
/// sketch instance, all other relations unchanged (Sec. 4.2).
pub fn restrict_database(
    db: &Database,
    sketches: &[ProvenanceSketch],
) -> Result<Database, StorageError> {
    let mut out = db.clone();
    for sketch in sketches {
        let table = db.table(sketch.table())?;
        let rows: Vec<Row> = sketch
            .instance_row_ids(table)
            .into_iter()
            .map(|rid| table.rows()[rid as usize].clone())
            .collect();
        let mut replacement = Table::new(sketch.table(), table.schema().clone(), rows);
        // Preserve the physical design of the original table.
        if table.zone_map().is_some() {
            replacement.build_zone_map(table.block_size());
        }
        for col in table.indexed_columns() {
            replacement.create_index(col);
        }
        out.add_table(replacement);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbds_storage::{DataType, RangePartition, TableBuilder};

    fn cities_table() -> Table {
        let schema = Schema::from_pairs(&[
            ("popden", DataType::Int),
            ("city", DataType::Str),
            ("state", DataType::Str),
        ]);
        let mut b = TableBuilder::new("cities", schema);
        for (popden, city, state) in [
            (4200, "Anchorage", "AK"),
            (6000, "San Diego", "CA"),
            (5000, "Sacramento", "CA"),
            (7000, "New York", "NY"),
            (2000, "Buffalo", "NY"),
            (3700, "Austin", "TX"),
            (2500, "Houston", "TX"),
        ] {
            b.push(vec![
                Value::Int(popden),
                Value::from(city),
                Value::from(state),
            ]);
        }
        b.build()
    }

    fn state_partition() -> PartitionRef {
        Arc::new(Partition::Range(RangePartition::from_uppers(
            "cities",
            "state",
            vec![Value::from("DE"), Value::from("MI"), Value::from("OK")],
        )))
    }

    #[test]
    fn accurate_sketch_for_q2_is_fragment_f1() {
        // Ex. 3: P(Q2) = {t2, t3}, both in fragment f1 (index 0).
        let table = cities_table();
        let prov_rows: Vec<Row> = vec![table.rows()[1].clone(), table.rows()[2].clone()];
        let sketch = ProvenanceSketch::from_rows(state_partition(), table.schema(), prov_rows);
        assert_eq!(sketch.selected_fragments(), vec![0]);
        assert_eq!(sketch.num_fragments(), 4);
        assert_eq!(sketch.size_bytes(), 1);
    }

    #[test]
    fn sketch_instance_and_selectivity() {
        let table = cities_table();
        let mut db = Database::new();
        db.add_table(table.clone());
        let sketch = ProvenanceSketch::from_rows(
            state_partition(),
            table.schema(),
            vec![table.rows()[1].clone()],
        );
        // Fragment f1 = [AL, DE] contains AK + 2×CA rows.
        assert_eq!(sketch.instance_row_ids(&table), vec![0, 1, 2]);
        let sel = sketch.selectivity(&db).unwrap();
        assert!((sel - 3.0 / 7.0).abs() < 1e-9);
    }

    #[test]
    fn restrict_database_builds_sketch_instance() {
        let table = cities_table();
        let mut db = Database::new();
        db.add_table(table.clone());
        let sketch = ProvenanceSketch::from_rows(
            state_partition(),
            table.schema(),
            vec![table.rows()[1].clone()],
        );
        let restricted = restrict_database(&db, &[sketch]).unwrap();
        assert_eq!(restricted.table("cities").unwrap().len(), 3);
        // Original is untouched.
        assert_eq!(db.table("cities").unwrap().len(), 7);
    }

    #[test]
    fn superset_and_union() {
        let table = cities_table();
        let part = state_partition();
        let small = ProvenanceSketch::from_rows(
            part.clone(),
            table.schema(),
            vec![table.rows()[1].clone()],
        );
        let big = ProvenanceSketch::from_rows(
            part.clone(),
            table.schema(),
            vec![table.rows()[1].clone(), table.rows()[3].clone()],
        );
        assert!(big.is_superset_of(&small));
        assert!(!small.is_superset_of(&big));
        let union = small.union(&big);
        assert_eq!(union.selected_fragments(), big.selected_fragments());
    }

    #[test]
    fn ranges_of_selected_fragments() {
        let table = cities_table();
        let sketch = ProvenanceSketch::from_rows(
            state_partition(),
            table.schema(),
            vec![table.rows()[1].clone(), table.rows()[3].clone()],
        );
        // Fragments 0 ([..DE]) and 2 ((MI..OK]) — not adjacent, two ranges.
        let ranges = sketch.to_ranges().unwrap();
        assert_eq!(ranges.len(), 2);
        assert_eq!(ranges[0].hi, Some(Value::from("DE")));
        assert_eq!(ranges[1].lo, Some(Value::from("MI")));
        assert!(sketch.to_keys().is_none());
    }

    #[test]
    fn extend_for_append_adds_new_row_fragments() {
        let table = cities_table();
        let mut sketch = ProvenanceSketch::from_rows(
            state_partition(),
            table.schema(),
            vec![table.rows()[1].clone()], // CA -> fragment 0
        );
        assert_eq!(sketch.selected_fragments(), vec![0]);
        // Appending an NY row (fragment 2) extends the sketch.
        let new_rows = vec![vec![
            Value::Int(1234),
            Value::from("Albany"),
            Value::from("NY"),
        ]];
        assert!(sketch.extend_for_append(table.schema(), &new_rows));
        assert_eq!(sketch.selected_fragments(), vec![0, 2]);
        // A NULL partitioning value has no fragment: maintenance fails.
        let null_row = vec![vec![Value::Int(1), Value::from("x"), Value::Null]];
        assert!(!sketch.extend_for_append(table.schema(), &null_row));
    }

    #[test]
    fn covers_row_respects_selected_fragments() {
        let table = cities_table();
        let sketch = ProvenanceSketch::from_rows(
            state_partition(),
            table.schema(),
            vec![table.rows()[1].clone()],
        );
        assert!(sketch.covers_row(table.schema(), &table.rows()[0])); // AK in f1
        assert!(!sketch.covers_row(table.schema(), &table.rows()[3])); // NY in f3
    }

    #[test]
    fn empty_sketch_has_zero_selectivity() {
        let table = cities_table();
        let mut db = Database::new();
        db.add_table(table);
        let sketch = ProvenanceSketch::empty(state_partition());
        assert_eq!(sketch.num_selected(), 0);
        assert_eq!(sketch.selectivity(&db).unwrap(), 0.0);
    }
}
