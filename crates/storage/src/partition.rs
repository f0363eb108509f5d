//! Horizontal partitions of relations (Sec. 4.1 of the paper).
//!
//! PBDS builds provenance sketches over a horizontal partition of an input
//! relation. The paper focuses on *range partitioning* because it lets
//! sketches be translated into range predicates that exploit indexes and zone
//! maps; for the real-world workloads it also uses partitions over the
//! combination of the group-by attributes (called `PSMIX` in Sec. 9.4), which
//! we model as a [`CompositePartition`] (list partition over composite keys).

use crate::relation::Row;
use crate::schema::Schema;
use crate::stats::EquiDepthHistogram;
use crate::table::Table;
use crate::value::Value;
use std::collections::HashMap;
use std::sync::Arc;

/// One interval of a range partition.
///
/// Fragments are half-open on the left and closed on the right,
/// `(lo, hi]`, except for the first fragment (no lower bound) and the last
/// (no upper bound), so the fragments always cover the whole domain.
#[derive(Debug, Clone, PartialEq)]
pub struct ValueRange {
    /// Exclusive lower bound (`None` = unbounded below).
    pub lo: Option<Value>,
    /// Inclusive upper bound (`None` = unbounded above).
    pub hi: Option<Value>,
}

impl ValueRange {
    /// Does this range contain the value?
    pub fn contains(&self, v: &Value) -> bool {
        if v.is_null() {
            return false;
        }
        if let Some(lo) = &self.lo {
            if v <= lo {
                return false;
            }
        }
        if let Some(hi) = &self.hi {
            if v > hi {
                return false;
            }
        }
        true
    }

    /// Conservative inclusive bounds for zone-map / index probing.
    pub fn inclusive_bounds(&self) -> (Option<Value>, Option<Value>) {
        (self.lo.clone(), self.hi.clone())
    }
}

/// A range partition of a relation on a single attribute (Def. 2).
#[derive(Debug, Clone, PartialEq)]
pub struct RangePartition {
    table: String,
    attr: String,
    /// Inclusive upper bounds of fragments `0..n-1`; the last fragment is
    /// unbounded above. `uppers.len() + 1 == num_fragments()`.
    uppers: Vec<Value>,
}

impl RangePartition {
    /// Create a partition from explicit fragment upper bounds (must be
    /// strictly increasing).
    pub fn from_uppers(
        table: impl Into<String>,
        attr: impl Into<String>,
        uppers: Vec<Value>,
    ) -> Self {
        debug_assert!(
            uppers.windows(2).all(|w| w[0] < w[1]),
            "upper bounds must be strictly increasing"
        );
        RangePartition {
            table: table.into(),
            attr: attr.into(),
            uppers,
        }
    }

    /// Build an equi-depth partition with (at most) `fragments` fragments from
    /// the values of the partitioning attribute, mirroring the paper's use of
    /// the DBMS's equi-depth histograms (Sec. 9.3).
    pub fn equi_depth(
        table: impl Into<String>,
        attr: impl Into<String>,
        values: &[Value],
        fragments: usize,
    ) -> Option<Self> {
        Self::equi_depth_from_iter(table, attr, values.iter(), fragments)
    }

    /// Like [`RangePartition::equi_depth`], but over borrowed values (e.g.
    /// straight from `Table::column_iter`) so callers need not clone the
    /// column into an owned `Vec<Value>` first.
    pub fn equi_depth_from_iter<'a>(
        table: impl Into<String>,
        attr: impl Into<String>,
        values: impl IntoIterator<Item = &'a Value>,
        fragments: usize,
    ) -> Option<Self> {
        let hist = EquiDepthHistogram::build_from_iter(values, fragments)?;
        let bounds = hist.boundaries();
        // boundaries = [min, u1, u2, ..., max]; drop the minimum, use interior
        // boundaries as inclusive uppers; the final fragment is unbounded.
        let uppers: Vec<Value> = bounds[1..bounds.len().max(2) - 1].to_vec();
        Some(RangePartition {
            table: table.into(),
            attr: attr.into(),
            uppers,
        })
    }

    /// Build a partition with one fragment per distinct value of the
    /// attribute (used when partitioning on group-by attributes with few
    /// distinct values).
    pub fn per_distinct_value(
        table: impl Into<String>,
        attr: impl Into<String>,
        values: &[Value],
    ) -> Option<Self> {
        Self::per_distinct_value_from_iter(table, attr, values.iter())
    }

    /// Like [`RangePartition::per_distinct_value`], but over borrowed values;
    /// only the distinct values are cloned.
    pub fn per_distinct_value_from_iter<'a>(
        table: impl Into<String>,
        attr: impl Into<String>,
        values: impl IntoIterator<Item = &'a Value>,
    ) -> Option<Self> {
        let mut distinct: Vec<Value> = values
            .into_iter()
            .filter(|v| !v.is_null())
            .cloned()
            .collect();
        distinct.sort();
        distinct.dedup();
        if distinct.is_empty() {
            return None;
        }
        // One fragment per distinct value: uppers are all but the largest.
        distinct.pop();
        Some(RangePartition {
            table: table.into(),
            attr: attr.into(),
            uppers: distinct,
        })
    }

    /// The range partition of `table.attr` with (up to) `fragments`
    /// fragments: one per distinct value when the column has no more
    /// distinct values than that, equi-depth otherwise. `None` when the
    /// column is missing or holds only NULLs.
    pub fn of_column(table: &Table, attr: &str, fragments: usize) -> Option<Self> {
        let values = table.column_iter(attr)?;
        if table.distinct(attr)? <= fragments {
            Self::per_distinct_value_from_iter(table.name(), attr, values)
        } else {
            Self::equi_depth_from_iter(table.name(), attr, values, fragments)
        }
    }

    /// The partitioned table name.
    pub fn table(&self) -> &str {
        &self.table
    }

    /// The partitioning attribute.
    pub fn attr(&self) -> &str {
        &self.attr
    }

    /// The inclusive upper bounds of fragments `0..n-1` (the last fragment is
    /// unbounded above). Together with the table and attribute this is the
    /// partition's complete durable state — see
    /// [`RangePartition::from_uppers`].
    pub fn uppers(&self) -> &[Value] {
        &self.uppers
    }

    /// Number of fragments.
    pub fn num_fragments(&self) -> usize {
        self.uppers.len() + 1
    }

    /// Fragment index of a value using binary search (the optimized lookup of
    /// Sec. 7.3, `O(log n)`).
    pub fn fragment_of(&self, v: &Value) -> Option<usize> {
        if v.is_null() {
            return None;
        }
        Some(self.uppers.partition_point(|u| u < v))
    }

    /// Fragment index using a linear scan; models the naive `CASE` expression
    /// list the paper compares against in Fig. 12a (`O(n)`).
    pub fn fragment_of_linear(&self, v: &Value) -> Option<usize> {
        if v.is_null() {
            return None;
        }
        for (i, u) in self.uppers.iter().enumerate() {
            if v <= u {
                return Some(i);
            }
        }
        Some(self.uppers.len())
    }

    /// The value range covered by a fragment.
    pub fn range_of(&self, fragment: usize) -> ValueRange {
        let lo = if fragment == 0 {
            None
        } else {
            Some(self.uppers[fragment - 1].clone())
        };
        let hi = self.uppers.get(fragment).cloned();
        ValueRange { lo, hi }
    }

    /// Ranges for a sorted list of fragment ids, merging *adjacent* fragments
    /// into a single range (the condition-merging optimization of Sec. 8.1).
    pub fn merged_ranges(&self, fragments: &[usize]) -> Vec<ValueRange> {
        let mut out: Vec<ValueRange> = Vec::new();
        let mut i = 0;
        while i < fragments.len() {
            let start = fragments[i];
            let mut end = start;
            while i + 1 < fragments.len() && fragments[i + 1] == end + 1 {
                i += 1;
                end = fragments[i];
            }
            let lo = self.range_of(start).lo;
            let hi = self.range_of(end).hi;
            out.push(ValueRange { lo, hi });
            i += 1;
        }
        out
    }
}

/// A list partition on a composite key (one fragment per distinct combination
/// of the partitioning attributes). Used to model the paper's `PSMIX`
/// sketches over all group-by attributes of a query (Sec. 9.4).
#[derive(Debug, Clone)]
pub struct CompositePartition {
    table: String,
    attrs: Vec<String>,
    key_to_fragment: HashMap<Vec<Value>, usize>,
    fragment_keys: Vec<Vec<Value>>,
}

impl CompositePartition {
    /// Build a composite partition from the rows of a table, one fragment per
    /// distinct combination of `attrs`.
    pub fn build<'a>(
        table: impl Into<String>,
        schema: &Schema,
        rows: impl IntoIterator<Item = &'a Row>,
        attrs: &[&str],
    ) -> Option<Self> {
        let idxs: Option<Vec<usize>> = attrs.iter().map(|a| schema.index_of(a)).collect();
        let idxs = idxs?;
        let mut key_to_fragment = HashMap::new();
        let mut fragment_keys = Vec::new();
        for row in rows {
            let key: Vec<Value> = idxs.iter().map(|&i| row[i].clone()).collect();
            if !key_to_fragment.contains_key(&key) {
                key_to_fragment.insert(key.clone(), fragment_keys.len());
                fragment_keys.push(key);
            }
        }
        if fragment_keys.is_empty() {
            return None;
        }
        Some(CompositePartition {
            table: table.into(),
            attrs: attrs.iter().map(|s| s.to_string()).collect(),
            key_to_fragment,
            fragment_keys,
        })
    }

    /// Reconstruct a composite partition from its durable state: the ordered
    /// list of fragment keys (fragment `i` holds the rows matching
    /// `keys[i]`). Returns `None` when `keys` is empty, a key's arity does
    /// not match `attrs`, or two keys are equal (a corrupt image — fragment
    /// identity would be ambiguous).
    pub fn from_keys(
        table: impl Into<String>,
        attrs: Vec<String>,
        keys: Vec<Vec<Value>>,
    ) -> Option<Self> {
        if keys.is_empty() || keys.iter().any(|k| k.len() != attrs.len()) {
            return None;
        }
        let mut key_to_fragment = HashMap::with_capacity(keys.len());
        for (i, key) in keys.iter().enumerate() {
            if key_to_fragment.insert(key.clone(), i).is_some() {
                return None;
            }
        }
        Some(CompositePartition {
            table: table.into(),
            attrs,
            key_to_fragment,
            fragment_keys: keys,
        })
    }

    /// The partitioned table.
    pub fn table(&self) -> &str {
        &self.table
    }

    /// The partitioning attributes.
    pub fn attrs(&self) -> &[String] {
        &self.attrs
    }

    /// All fragment keys in fragment order (the inverse of
    /// [`CompositePartition::from_keys`]).
    pub fn keys(&self) -> &[Vec<Value>] {
        &self.fragment_keys
    }

    /// Number of fragments.
    pub fn num_fragments(&self) -> usize {
        self.fragment_keys.len()
    }

    /// Fragment of a composite key (as extracted from a row).
    pub fn fragment_of_key(&self, key: &[Value]) -> Option<usize> {
        self.key_to_fragment.get(key).copied()
    }

    /// The composite keys belonging to a set of fragments (used to build the
    /// `IN`-list predicate when applying a composite sketch).
    pub fn keys_of(&self, fragments: &[usize]) -> Vec<Vec<Value>> {
        fragments
            .iter()
            .filter_map(|&f| self.fragment_keys.get(f).cloned())
            .collect()
    }
}

/// Any supported partition kind.
#[derive(Debug, Clone)]
pub enum Partition {
    /// Range partition on a single attribute.
    Range(RangePartition),
    /// List partition on a composite key.
    Composite(CompositePartition),
}

impl Partition {
    /// The partitioned table.
    pub fn table(&self) -> &str {
        match self {
            Partition::Range(p) => p.table(),
            Partition::Composite(p) => p.table(),
        }
    }

    /// The partitioning attributes.
    pub fn attrs(&self) -> Vec<String> {
        match self {
            Partition::Range(p) => vec![p.attr().to_string()],
            Partition::Composite(p) => p.attrs().to_vec(),
        }
    }

    /// Number of fragments.
    pub fn num_fragments(&self) -> usize {
        match self {
            Partition::Range(p) => p.num_fragments(),
            Partition::Composite(p) => p.num_fragments(),
        }
    }

    /// Fragment a row of the partitioned table belongs to.
    pub fn fragment_of_row(&self, schema: &Schema, row: &Row) -> Option<usize> {
        let idxs = self.resolve_attrs(schema)?;
        self.fragment_of_row_at(&idxs, row)
    }

    /// Resolve the partitioning attributes against a schema once; the result
    /// can be reused for every row via [`Partition::fragment_of_row_at`],
    /// avoiding the per-row string lookups of [`Partition::fragment_of_row`].
    pub fn resolve_attrs(&self, schema: &Schema) -> Option<Vec<usize>> {
        match self {
            Partition::Range(p) => Some(vec![schema.index_of(p.attr())?]),
            Partition::Composite(p) => p.attrs().iter().map(|a| schema.index_of(a)).collect(),
        }
    }

    /// Fragment of a row given pre-resolved attribute indexes (see
    /// [`Partition::resolve_attrs`]).
    pub fn fragment_of_row_at(&self, idxs: &[usize], row: &Row) -> Option<usize> {
        match self {
            Partition::Range(p) => p.fragment_of(&row[*idxs.first()?]),
            Partition::Composite(p) => {
                let key: Vec<Value> = idxs.iter().map(|&i| row[i].clone()).collect();
                p.fragment_of_key(&key)
            }
        }
    }
}

/// Shared handle to a partition; partitions are immutable once built and are
/// shared between sketches, the capture instrumentation and the use
/// instrumentation.
pub type PartitionRef = Arc<Partition>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::DataType;

    fn states_partition() -> RangePartition {
        // Mirrors Fig. 1e: f1=[AL,DE], f2=[FL,MI], f3=[MN,OK], f4=[OR,WY].
        RangePartition::from_uppers(
            "cities",
            "state",
            vec![Value::from("DE"), Value::from("MI"), Value::from("OK")],
        )
    }

    #[test]
    fn fragment_lookup_matches_paper_example() {
        let p = states_partition();
        assert_eq!(p.num_fragments(), 4);
        assert_eq!(p.fragment_of(&Value::from("CA")), Some(0));
        assert_eq!(p.fragment_of(&Value::from("AK")), Some(0));
        assert_eq!(p.fragment_of(&Value::from("NY")), Some(2));
        assert_eq!(p.fragment_of(&Value::from("TX")), Some(3));
    }

    #[test]
    fn binary_and_linear_lookup_agree() {
        let p = RangePartition::from_uppers("t", "a", (1..100).map(Value::Int).collect());
        for v in -5..110 {
            assert_eq!(
                p.fragment_of(&Value::Int(v)),
                p.fragment_of_linear(&Value::Int(v)),
                "mismatch at {v}"
            );
        }
    }

    #[test]
    fn null_has_no_fragment() {
        let p = states_partition();
        assert_eq!(p.fragment_of(&Value::Null), None);
        assert_eq!(p.fragment_of_linear(&Value::Null), None);
    }

    #[test]
    fn range_of_fragment_bounds() {
        let p = states_partition();
        assert_eq!(p.range_of(0).lo, None);
        assert_eq!(p.range_of(0).hi, Some(Value::from("DE")));
        assert_eq!(p.range_of(3).lo, Some(Value::from("OK")));
        assert_eq!(p.range_of(3).hi, None);
        assert!(p.range_of(0).contains(&Value::from("CA")));
        assert!(!p.range_of(0).contains(&Value::from("NY")));
    }

    #[test]
    fn merged_ranges_collapse_adjacent_fragments() {
        let p = RangePartition::from_uppers(
            "t",
            "a",
            vec![Value::Int(10), Value::Int(20), Value::Int(30)],
        );
        let merged = p.merged_ranges(&[0, 1, 3]);
        assert_eq!(merged.len(), 2);
        assert_eq!(merged[0].lo, None);
        assert_eq!(merged[0].hi, Some(Value::Int(20)));
        assert_eq!(merged[1].lo, Some(Value::Int(30)));
        assert_eq!(merged[1].hi, None);
    }

    #[test]
    fn equi_depth_partition_has_requested_fragments() {
        let values: Vec<Value> = (0..10_000).map(Value::Int).collect();
        let p = RangePartition::equi_depth("t", "a", &values, 32).unwrap();
        assert_eq!(p.num_fragments(), 32);
        // Every value must land in some fragment.
        for v in [0, 5000, 9999] {
            assert!(p.fragment_of(&Value::Int(v)).unwrap() < 32);
        }
    }

    #[test]
    fn per_distinct_value_partition_isolates_values() {
        let values: Vec<Value> = ["CA", "NY", "TX", "CA"]
            .iter()
            .map(|s| Value::from(*s))
            .collect();
        let p = RangePartition::per_distinct_value("t", "state", &values).unwrap();
        assert_eq!(p.num_fragments(), 3);
        let fca = p.fragment_of(&Value::from("CA")).unwrap();
        let fny = p.fragment_of(&Value::from("NY")).unwrap();
        let ftx = p.fragment_of(&Value::from("TX")).unwrap();
        assert_ne!(fca, fny);
        assert_ne!(fny, ftx);
    }

    #[test]
    fn composite_partition_groups_by_key() {
        let schema = Schema::from_pairs(&[("area", DataType::Int), ("kind", DataType::Str)]);
        let rows: Vec<Row> = vec![
            vec![Value::Int(1), Value::from("theft")],
            vec![Value::Int(1), Value::from("theft")],
            vec![Value::Int(2), Value::from("theft")],
            vec![Value::Int(1), Value::from("assault")],
        ];
        let p = CompositePartition::build("crimes", &schema, &rows, &["area", "kind"]).unwrap();
        assert_eq!(p.num_fragments(), 3);
        let part = Partition::Composite(p);
        assert_eq!(
            part.fragment_of_row(&schema, &rows[0]),
            part.fragment_of_row(&schema, &rows[1])
        );
        assert_ne!(
            part.fragment_of_row(&schema, &rows[0]),
            part.fragment_of_row(&schema, &rows[2])
        );
    }

    #[test]
    fn partition_enum_delegates() {
        let p = Partition::Range(states_partition());
        assert_eq!(p.table(), "cities");
        assert_eq!(p.attrs(), vec!["state".to_string()]);
        assert_eq!(p.num_fragments(), 4);
        let schema = Schema::from_pairs(&[
            ("popden", DataType::Int),
            ("city", DataType::Str),
            ("state", DataType::Str),
        ]);
        let row = vec![
            Value::Int(6000),
            Value::from("San Diego"),
            Value::from("CA"),
        ];
        assert_eq!(p.fragment_of_row(&schema, &row), Some(0));
    }

    #[test]
    fn of_column_picks_per_distinct_or_equi_depth_by_the_distinct_count() {
        let schema = Schema::from_pairs(&[("g", DataType::Int), ("n", DataType::Int)]);
        let rows = (0..100i64)
            .map(|i| vec![Value::Int(i % 5), Value::Null])
            .collect();
        let table = Table::new("t", schema, rows);
        // Five distinct values fit five or more fragments: one each.
        for fragments in [5, 8] {
            let p = RangePartition::of_column(&table, "g", fragments).unwrap();
            assert_eq!(p.uppers(), &[0, 1, 2, 3].map(Value::Int));
        }
        // Fewer fragments than distinct values: equi-depth.
        let values: Vec<Value> = table.column_iter("g").unwrap().cloned().collect();
        assert_eq!(
            RangePartition::of_column(&table, "g", 2),
            RangePartition::equi_depth("t", "g", &values, 2)
        );
        assert_eq!(RangePartition::of_column(&table, "n", 4), None);
        assert_eq!(RangePartition::of_column(&table, "missing", 4), None);
    }
}
