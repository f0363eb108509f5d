//! Property-based tests (proptest) for the core PBDS invariants:
//! partitions cover the domain, sketches over-approximate provenance, sketch
//! instrumentation never changes results of safe queries, bitset algebra laws
//! hold, and the solver's validity answers are consistent with evaluation.

use pbds_algebra::{col, lit, AggExpr, AggFunc, LogicalPlan, SortKey};
use pbds_core::{PartitionAttr, Pbds};
use pbds_provenance::{Annotation, FragmentBitset, MergeStrategy};
use pbds_solver::{implies, CmpOp, Formula, LinExpr};
use pbds_storage::{DataType, Database, Partition, RangePartition, Schema, TableBuilder, Value};
use proptest::prelude::*;
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Range partitions
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every non-null value maps to exactly one fragment, the fragment's range
    /// contains it, and binary search agrees with the linear lookup.
    #[test]
    fn partition_covers_domain(values in prop::collection::vec(-10_000i64..10_000, 2..300),
                               fragments in 1usize..40) {
        let vals: Vec<Value> = values.iter().map(|&v| Value::Int(v)).collect();
        if let Some(p) = RangePartition::equi_depth("t", "a", &vals, fragments) {
            prop_assert!(p.num_fragments() >= 1);
            for v in &vals {
                let f = p.fragment_of(v).unwrap();
                prop_assert!(f < p.num_fragments());
                prop_assert_eq!(Some(f), p.fragment_of_linear(v));
                prop_assert!(p.range_of(f).contains(v));
            }
            // Probe values outside the observed domain too.
            for probe in [-1_000_000i64, 1_000_000] {
                let v = Value::Int(probe);
                let f = p.fragment_of(&v).unwrap();
                prop_assert!(p.range_of(f).contains(&v));
            }
        }
    }

    /// Merged adjacent ranges cover exactly the rows of the selected
    /// fragments.
    #[test]
    fn merged_ranges_equal_fragment_union(values in prop::collection::vec(0i64..5_000, 10..200),
                                          fragments in 2usize..20,
                                          selected_bits in prop::collection::vec(any::<bool>(), 20)) {
        let vals: Vec<Value> = values.iter().map(|&v| Value::Int(v)).collect();
        if let Some(p) = RangePartition::equi_depth("t", "a", &vals, fragments) {
            let selected: Vec<usize> = (0..p.num_fragments())
                .filter(|&i| selected_bits.get(i).copied().unwrap_or(false))
                .collect();
            let merged = p.merged_ranges(&selected);
            for v in &vals {
                let in_fragments = selected.contains(&p.fragment_of(v).unwrap());
                let in_ranges = merged.iter().any(|r| r.contains(v));
                prop_assert_eq!(in_fragments, in_ranges);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Fragment bitsets
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// All merge strategies compute the same set union, and the union is a
    /// superset of both operands.
    #[test]
    fn bitset_union_laws(nbits in 1usize..300,
                         a in prop::collection::vec(any::<u16>(), 0..40),
                         b in prop::collection::vec(any::<u16>(), 0..40)) {
        let mut x = FragmentBitset::new(nbits);
        let mut y = FragmentBitset::new(nbits);
        for v in &a { x.set(*v as usize % nbits); }
        for v in &b { y.set(*v as usize % nbits); }
        let or1 = x.or(&y);
        let or2 = y.or(&x);
        prop_assert_eq!(&or1, &or2);
        let mut inplace = x.clone();
        inplace.or_assign(&y);
        prop_assert_eq!(&or1, &inplace);
        prop_assert!(x.is_subset_of(&or1));
        prop_assert!(y.is_subset_of(&or1));
        prop_assert_eq!(or1.count(), or1.ones().len());
    }

    /// Folding annotations with any strategy yields the same set of fragments.
    #[test]
    fn annotation_merge_strategies_agree(nbits in 1usize..200,
                                         frags in prop::collection::vec(any::<u16>(), 1..60)) {
        let frags: Vec<u32> = frags.iter().map(|&f| (f as usize % nbits) as u32).collect();
        let mut reference: Vec<usize> = frags.iter().map(|&f| f as usize).collect();
        reference.sort_unstable();
        reference.dedup();
        for strategy in [
            MergeStrategy::BytewiseBitor,
            MergeStrategy::Delay,
            MergeStrategy::DelayNoCopy,
        ] {
            let mut acc = Annotation::Empty;
            for &f in &frags {
                acc.merge(&Annotation::Single(f), nbits, strategy);
            }
            prop_assert_eq!(acc.to_bitset(nbits).ones(), reference.clone());
        }
    }
}

// ---------------------------------------------------------------------------
// Sketches end-to-end
// ---------------------------------------------------------------------------

fn db_from_rows(rows: &[(i64, i64)]) -> Database {
    let schema = Schema::from_pairs(&[("grp", DataType::Int), ("v", DataType::Int)]);
    let mut b = TableBuilder::new("t", schema);
    b.block_size(16).index("grp");
    for (g, v) in rows {
        b.push(vec![Value::Int(*g), Value::Int(*v)]);
    }
    let mut db = Database::new();
    db.add_table(b.build());
    db
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// For randomly generated tables: the captured sketch of a top-1 /
    /// HAVING query on a safe attribute always (a) covers the accurate
    /// sketch and (b) yields the original result when used for skipping.
    #[test]
    fn sketches_are_supersets_and_safe(rows in prop::collection::vec((0i64..30, 1i64..100), 5..200),
                                       fragments in 1usize..12,
                                       threshold in 50i64..400) {
        let db = db_from_rows(&rows);
        let pbds = Pbds::new(db);
        let queries = vec![
            LogicalPlan::scan("t")
                .aggregate(vec!["grp"], vec![AggExpr::new(AggFunc::Sum, col("v"), "total")])
                .top_k(vec![SortKey::desc("total")], 1),
            LogicalPlan::scan("t")
                .aggregate(vec!["grp"], vec![AggExpr::new(AggFunc::Count, col("v"), "cnt")])
                .filter(col("cnt").gt(lit(3))),
            LogicalPlan::scan("t")
                .aggregate(vec!["grp"], vec![AggExpr::new(AggFunc::Sum, col("v"), "total")])
                .filter(col("total").gt(lit(threshold))),
        ];
        for plan in queries {
            prop_assert!(pbds.check_safety(&plan, &[PartitionAttr::new("t", "grp")]).safe);
            let partition = pbds.range_partition("t", "grp", fragments).unwrap();
            let captured = pbds.capture(&plan, std::slice::from_ref(&partition)).unwrap();
            let accurate = pbds.accurate_sketch(&plan, &partition).unwrap();
            prop_assert!(captured.sketches[0].is_superset_of(&accurate));
            let plain = pbds.execute(&plan).unwrap().relation;
            let fast = pbds.execute_with_sketches(&plan, &captured.sketches).unwrap().relation;
            prop_assert!(plain.bag_eq(&fast));
        }
    }

    /// The sketch of a selection-only query covers exactly the fragments of
    /// the qualifying rows, and restricting the database to any superset of
    /// those fragments preserves the result.
    #[test]
    fn selection_sketch_round_trip(rows in prop::collection::vec((0i64..50, 1i64..100), 5..150),
                                   bound in 1i64..100) {
        let db = db_from_rows(&rows);
        let pbds = Pbds::new(db);
        let plan = LogicalPlan::scan("t").filter(col("v").ge(lit(bound)));
        let partition = pbds.range_partition("t", "grp", 6).unwrap();
        let captured = pbds.capture(&plan, std::slice::from_ref(&partition)).unwrap();
        // Every qualifying row's fragment is in the sketch.
        let table = pbds.db().table("t").unwrap();
        for row in table.rows() {
            if row[1] >= Value::Int(bound) {
                let frag = partition.fragment_of_row(table.schema(), row).unwrap();
                prop_assert!(captured.sketches[0].selected_fragments().contains(&frag));
            }
        }
        let plain = pbds.execute(&plan).unwrap().relation;
        let fast = pbds.execute_with_sketches(&plan, &captured.sketches).unwrap().relation;
        prop_assert!(plain.bag_eq(&fast));
    }
}

// ---------------------------------------------------------------------------
// Solver consistency
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// If the solver claims `a <= c1 -> a <= c2` is valid, then c1 <= c2 must
    /// hold (and vice versa) — validity agrees with arithmetic.
    #[test]
    fn solver_interval_implication_matches_arithmetic(c1 in -500i64..500, c2 in -500i64..500) {
        let premise = Formula::cmp(LinExpr::var("a"), CmpOp::Le, LinExpr::constant(c1 as f64));
        let conclusion = Formula::cmp(LinExpr::var("a"), CmpOp::Le, LinExpr::constant(c2 as f64));
        prop_assert_eq!(implies(&premise, &conclusion), c1 <= c2);
    }

    /// Chained bounds: (a <= b ∧ b <= c1) -> a <= c2 is valid iff c1 <= c2.
    #[test]
    fn solver_transitive_bound(c1 in -200i64..200, c2 in -200i64..200) {
        let premise = Formula::and_all(vec![
            Formula::var_cmp_var("a", CmpOp::Le, "b"),
            Formula::cmp(LinExpr::var("b"), CmpOp::Le, LinExpr::constant(c1 as f64)),
        ]);
        let conclusion = Formula::cmp(LinExpr::var("a"), CmpOp::Le, LinExpr::constant(c2 as f64));
        prop_assert_eq!(implies(&premise, &conclusion), c1 <= c2);
    }
}

// ---------------------------------------------------------------------------
// Composite (PSMIX) partitions
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Composite partitions assign rows with equal keys to the same fragment
    /// and rows with different keys to different fragments.
    #[test]
    fn composite_partition_is_a_bijection_on_keys(rows in prop::collection::vec((0i64..8, 0i64..8), 2..100)) {
        let db = db_from_rows(&rows);
        let table = db.table("t").unwrap();
        let comp = pbds_storage::CompositePartition::build("t", table.schema(), table.rows(), &["grp", "v"]).unwrap();
        let part = Arc::new(Partition::Composite(comp));
        for a in table.rows() {
            for b in table.rows() {
                let fa = part.fragment_of_row(table.schema(), a).unwrap();
                let fb = part.fragment_of_row(table.schema(), b).unwrap();
                prop_assert_eq!(a == b || (a[0] == b[0] && a[1] == b[1]), fa == fb);
            }
        }
    }
}
