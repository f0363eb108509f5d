//! A scaled-down TPC-H-like workload (Sec. 9.3 of the paper).
//!
//! The generator produces the six relations the paper's TPC-H experiments
//! touch (`customer`, `orders`, `lineitem`, `part`, `supplier`, `partsupp`)
//! with the standard cardinality ratios, scaled by a configurable factor.
//! The query set contains structural analogues of the TPC-H templates used
//! in Fig. 9 / Fig. 11 / Fig. 14 — top-k and `HAVING` aggregates over joins —
//! rather than the verbatim SQL (deep nested subqueries are out of scope of
//! our algebra; DESIGN.md documents the substitution).

use crate::spec::{BenchQuery, SketchSpec};
use pbds_algebra::{col, lit, param, AggExpr, AggFunc, LogicalPlan, QueryTemplate, SortKey};
use pbds_storage::{DataType, Database, Schema, TableBuilder, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Generator configuration.
#[derive(Debug, Clone, Copy)]
pub struct TpchConfig {
    /// Scale factor relative to TPC-H (SF 1 ≈ 6M lineitem rows). The default
    /// of 0.01 keeps the workload laptop-sized while preserving the
    /// cardinality ratios between relations.
    pub scale: f64,
    /// RNG seed (all generators are deterministic given the seed).
    pub seed: u64,
    /// Zone-map block size for all generated tables.
    pub block_size: usize,
}

impl Default for TpchConfig {
    fn default() -> Self {
        TpchConfig {
            scale: 0.01,
            seed: 42,
            block_size: 512,
        }
    }
}

impl TpchConfig {
    fn customers(&self) -> usize {
        ((150_000.0 * self.scale) as usize).max(100)
    }
    fn orders(&self) -> usize {
        self.customers() * 10
    }
    fn lineitems_per_order(&self) -> usize {
        4
    }
    fn parts(&self) -> usize {
        ((200_000.0 * self.scale) as usize).max(200)
    }
    fn suppliers(&self) -> usize {
        ((10_000.0 * self.scale) as usize).max(20)
    }
}

const NATIONS: i64 = 25;
/// Order dates span 1992-01-01 .. 1998-12-31, encoded as day offsets.
const DATE_MIN: i64 = 0;
const DATE_MAX: i64 = 2555;

/// Generate the TPC-H-like database.
pub fn generate(config: &TpchConfig) -> Database {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut db = Database::new();

    // supplier(s_suppkey, s_nationkey, s_acctbal)
    let supplier_schema = Schema::from_pairs(&[
        ("s_suppkey", DataType::Int),
        ("s_nationkey", DataType::Int),
        ("s_acctbal", DataType::Int),
    ]);
    let mut supplier = TableBuilder::new("supplier", supplier_schema);
    supplier.block_size(config.block_size).index("s_suppkey");
    let n_suppliers = config.suppliers();
    for sk in 0..n_suppliers as i64 {
        supplier.push(vec![
            Value::Int(sk),
            Value::Int(rng.gen_range(0..NATIONS)),
            Value::Int(rng.gen_range(-999..10_000)),
        ]);
    }
    db.add_table(supplier.build());

    // part(p_partkey, p_brand, p_size, p_retailprice)
    let part_schema = Schema::from_pairs(&[
        ("p_partkey", DataType::Int),
        ("p_brand", DataType::Int),
        ("p_size", DataType::Int),
        ("p_retailprice", DataType::Int),
    ]);
    let mut part = TableBuilder::new("part", part_schema);
    part.block_size(config.block_size).index("p_partkey");
    let n_parts = config.parts();
    for pk in 0..n_parts as i64 {
        part.push(vec![
            Value::Int(pk),
            Value::Int(rng.gen_range(0..25)),
            Value::Int(rng.gen_range(1..51)),
            Value::Int(900 + rng.gen_range(0..1100)),
        ]);
    }
    db.add_table(part.build());

    // partsupp(ps_partkey, ps_suppkey, ps_supplycost, ps_availqty)
    let partsupp_schema = Schema::from_pairs(&[
        ("ps_partkey", DataType::Int),
        ("ps_suppkey", DataType::Int),
        ("ps_supplycost", DataType::Int),
        ("ps_availqty", DataType::Int),
    ]);
    let mut partsupp = TableBuilder::new("partsupp", partsupp_schema);
    partsupp.block_size(config.block_size).index("ps_partkey");
    for pk in 0..n_parts as i64 {
        for s in 0..4 {
            partsupp.push(vec![
                Value::Int(pk),
                Value::Int((pk * 7 + s) % n_suppliers as i64),
                Value::Int(rng.gen_range(1..1000)),
                Value::Int(rng.gen_range(1..10_000)),
            ]);
        }
    }
    db.add_table(partsupp.build());

    // customer(c_custkey, c_nationkey, c_acctbal, c_mktsegment)
    let customer_schema = Schema::from_pairs(&[
        ("c_custkey", DataType::Int),
        ("c_nationkey", DataType::Int),
        ("c_acctbal", DataType::Int),
        ("c_mktsegment", DataType::Int),
    ]);
    let mut customer = TableBuilder::new("customer", customer_schema);
    customer.block_size(config.block_size).index("c_custkey");
    let n_customers = config.customers();
    for ck in 0..n_customers as i64 {
        customer.push(vec![
            Value::Int(ck),
            Value::Int(rng.gen_range(0..NATIONS)),
            Value::Int(rng.gen_range(-999..10_000)),
            Value::Int(rng.gen_range(0..5)),
        ]);
    }
    db.add_table(customer.build());

    // orders(o_orderkey, o_custkey, o_orderdate, o_totalprice)
    let orders_schema = Schema::from_pairs(&[
        ("o_orderkey", DataType::Int),
        ("o_custkey", DataType::Int),
        ("o_orderdate", DataType::Int),
        ("o_totalprice", DataType::Int),
    ]);
    let mut orders = TableBuilder::new("orders", orders_schema);
    orders
        .block_size(config.block_size)
        .index("o_orderkey")
        .index("o_custkey");
    let n_orders = config.orders();
    let mut order_dates = Vec::with_capacity(n_orders);
    for ok in 0..n_orders as i64 {
        let date = rng.gen_range(DATE_MIN..=DATE_MAX);
        order_dates.push(date);
        orders.push(vec![
            Value::Int(ok),
            Value::Int(rng.gen_range(0..n_customers as i64)),
            Value::Int(date),
            Value::Int(rng.gen_range(1_000..500_000)),
        ]);
    }
    db.add_table(orders.build());

    // lineitem(l_orderkey, l_partkey, l_suppkey, l_quantity, l_extendedprice,
    //          l_discount, l_shipdate, l_receiptdelay)
    let lineitem_schema = Schema::from_pairs(&[
        ("l_orderkey", DataType::Int),
        ("l_partkey", DataType::Int),
        ("l_suppkey", DataType::Int),
        ("l_quantity", DataType::Int),
        ("l_extendedprice", DataType::Int),
        ("l_discount", DataType::Int),
        ("l_shipdate", DataType::Int),
        ("l_receiptdelay", DataType::Int),
    ]);
    let mut lineitem = TableBuilder::new("lineitem", lineitem_schema);
    lineitem
        .block_size(config.block_size)
        .index("l_orderkey")
        .index("l_suppkey")
        .index("l_partkey");
    for ok in 0..n_orders as i64 {
        let lines = 1 + rng.gen_range(0..config.lineitems_per_order() as i64 * 2 - 1);
        for _ in 0..lines {
            let qty = rng.gen_range(1..51);
            let price = qty * rng.gen_range(900..2000);
            lineitem.push(vec![
                Value::Int(ok),
                Value::Int(rng.gen_range(0..n_parts as i64)),
                Value::Int(rng.gen_range(0..n_suppliers as i64)),
                Value::Int(qty),
                Value::Int(price),
                Value::Int(rng.gen_range(0..11)),
                Value::Int(order_dates[ok as usize] + rng.gen_range(1..122)),
                Value::Int(rng.gen_range(-30..60)),
            ]);
        }
    }
    db.add_table(lineitem.build());

    db
}

/// The TPC-H-like query set used by the figures.
///
/// Each entry is a structural analogue of the corresponding TPC-H template:
/// the same join shape and the same top-k / HAVING pattern over the same
/// fact-table grouping attribute, with selection constants turned into
/// parameters.
#[allow(clippy::vec_init_then_push)]
pub fn queries() -> Vec<BenchQuery> {
    let revenue = || {
        col("l_extendedprice")
            .mul(lit(100).sub(col("l_discount")))
            .div(lit(100))
    };
    let mut out = Vec::new();

    // Q1 analogue: per-quantity-bucket aggregate over (almost) all of
    // lineitem — provenance covers ~95% of the input, PBDS not beneficial.
    out.push(BenchQuery::new(
        "Q1",
        QueryTemplate::new(
            "tpch-q1",
            LogicalPlan::scan("lineitem")
                .filter(col("l_shipdate").le(param(0)))
                .aggregate(
                    vec!["l_discount"],
                    vec![
                        AggExpr::new(AggFunc::Sum, col("l_quantity"), "sum_qty"),
                        AggExpr::new(AggFunc::Sum, col("l_extendedprice"), "sum_price"),
                        AggExpr::new(AggFunc::Count, col("l_orderkey"), "count_order"),
                    ],
                ),
        ),
        vec![Value::Int(DATE_MAX - 90)],
        SketchSpec::Range {
            table: "lineitem".into(),
            attr: "l_discount".into(),
        },
    ));

    // Q3 analogue: top-10 orders by revenue for one market segment.
    out.push(BenchQuery::new(
        "Q3",
        QueryTemplate::new(
            "tpch-q3",
            LogicalPlan::scan("customer")
                .filter(col("c_mktsegment").eq(param(0)))
                .join(LogicalPlan::scan("orders"), "c_custkey", "o_custkey")
                .join(LogicalPlan::scan("lineitem"), "o_orderkey", "l_orderkey")
                .aggregate(
                    vec!["o_orderkey"],
                    vec![AggExpr::new(AggFunc::Sum, revenue(), "revenue")],
                )
                .top_k(vec![SortKey::desc("revenue")], 10),
        ),
        vec![Value::Int(1)],
        SketchSpec::Range {
            table: "lineitem".into(),
            attr: "l_orderkey".into(),
        },
    ));

    // Q5 analogue: revenue per supplier nation in a date window, top-5.
    out.push(BenchQuery::new(
        "Q5",
        QueryTemplate::new(
            "tpch-q5",
            LogicalPlan::scan("orders")
                .filter(
                    col("o_orderdate")
                        .ge(param(0))
                        .and(col("o_orderdate").lt(param(1))),
                )
                .join(LogicalPlan::scan("lineitem"), "o_orderkey", "l_orderkey")
                .join(LogicalPlan::scan("supplier"), "l_suppkey", "s_suppkey")
                .aggregate(
                    vec!["s_nationkey"],
                    vec![AggExpr::new(AggFunc::Sum, revenue(), "revenue")],
                )
                .top_k(vec![SortKey::desc("revenue")], 5),
        ),
        vec![Value::Int(0), Value::Int(365)],
        // The fact-table attribute is not *provably* safe for a top-k over
        // per-nation sums, so the sketch is built over the group-by attribute
        // (the paper's fallback policy, Sec. 9.3).
        SketchSpec::Range {
            table: "supplier".into(),
            attr: "s_nationkey".into(),
        },
    ));

    // Q10 analogue: top-20 customers by revenue within a date window.
    out.push(BenchQuery::new(
        "Q10",
        QueryTemplate::new(
            "tpch-q10",
            LogicalPlan::scan("orders")
                .filter(
                    col("o_orderdate")
                        .ge(param(0))
                        .and(col("o_orderdate").lt(param(1))),
                )
                .join(LogicalPlan::scan("lineitem"), "o_orderkey", "l_orderkey")
                .aggregate(
                    vec!["o_custkey"],
                    vec![AggExpr::new(AggFunc::Sum, revenue(), "revenue")],
                )
                .top_k(vec![SortKey::desc("revenue")], 20),
        ),
        vec![Value::Int(200), Value::Int(290)],
        // Sketch over the group-by attribute o_custkey (safe by Case 1 of the
        // aggregation rule); orders carries an ordered index on it.
        SketchSpec::Range {
            table: "orders".into(),
            attr: "o_custkey".into(),
        },
    ));

    // Q15 analogue: the supplier with the highest revenue.
    out.push(BenchQuery::new(
        "Q15",
        QueryTemplate::new(
            "tpch-q15",
            LogicalPlan::scan("lineitem")
                .filter(
                    col("l_shipdate")
                        .ge(param(0))
                        .and(col("l_shipdate").lt(param(1))),
                )
                .aggregate(
                    vec!["l_suppkey"],
                    vec![AggExpr::new(AggFunc::Sum, revenue(), "total_revenue")],
                )
                .top_k(vec![SortKey::desc("total_revenue")], 1),
        ),
        vec![Value::Int(100), Value::Int(190)],
        SketchSpec::Range {
            table: "lineitem".into(),
            attr: "l_suppkey".into(),
        },
    ));

    // Q17 analogue: parts whose total ordered quantity stays below a bound.
    out.push(BenchQuery::new(
        "Q17",
        QueryTemplate::new(
            "tpch-q17",
            LogicalPlan::scan("lineitem")
                .aggregate(
                    vec!["l_partkey"],
                    vec![AggExpr::new(AggFunc::Sum, col("l_quantity"), "total_qty")],
                )
                .filter(col("total_qty").lt(param(0)))
                .aggregate(
                    vec![],
                    vec![AggExpr::new(
                        AggFunc::Count,
                        col("l_partkey"),
                        "small_parts",
                    )],
                ),
        ),
        vec![Value::Int(40)],
        SketchSpec::Range {
            table: "lineitem".into(),
            attr: "l_partkey".into(),
        },
    ));

    // Q18 analogue: top-100 large orders by total quantity with a HAVING.
    out.push(BenchQuery::new(
        "Q18",
        QueryTemplate::new(
            "tpch-q18",
            LogicalPlan::scan("lineitem")
                .aggregate(
                    vec!["l_orderkey"],
                    vec![AggExpr::new(AggFunc::Sum, col("l_quantity"), "total_qty")],
                )
                .filter(col("total_qty").gt(param(0)))
                .top_k(vec![SortKey::desc("total_qty")], 100),
        ),
        vec![Value::Int(220)],
        SketchSpec::Range {
            table: "lineitem".into(),
            attr: "l_orderkey".into(),
        },
    ));

    // Q19 analogue: revenue of a narrow quantity/size band across a join.
    out.push(BenchQuery::new(
        "Q19",
        QueryTemplate::new(
            "tpch-q19",
            LogicalPlan::scan("lineitem")
                .filter(
                    col("l_quantity")
                        .ge(param(0))
                        .and(col("l_quantity").le(param(1))),
                )
                .join(LogicalPlan::scan("part"), "l_partkey", "p_partkey")
                .filter(col("p_size").le(param(2)))
                .aggregate(
                    vec![],
                    vec![AggExpr::new(AggFunc::Sum, revenue(), "revenue")],
                ),
        ),
        vec![Value::Int(48), Value::Int(50), Value::Int(5)],
        SketchSpec::Range {
            table: "lineitem".into(),
            attr: "l_partkey".into(),
        },
    ));

    // Q21 analogue: top-100 suppliers by number of late shipments.
    out.push(BenchQuery::new(
        "Q21",
        QueryTemplate::new(
            "tpch-q21",
            LogicalPlan::scan("lineitem")
                .filter(col("l_receiptdelay").gt(param(0)))
                .aggregate(
                    vec!["l_suppkey"],
                    vec![AggExpr::new(AggFunc::Count, col("l_orderkey"), "numwait")],
                )
                .top_k(vec![SortKey::desc("numwait")], 100),
        ),
        vec![Value::Int(45)],
        SketchSpec::Range {
            table: "lineitem".into(),
            attr: "l_suppkey".into(),
        },
    ));

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbds_exec::{Engine, EngineProfile};

    fn tiny() -> Database {
        generate(&TpchConfig {
            scale: 0.002,
            seed: 1,
            block_size: 128,
        })
    }

    #[test]
    fn generator_respects_cardinality_ratios() {
        let db = tiny();
        let customers = db.table("customer").unwrap().len();
        let orders = db.table("orders").unwrap().len();
        let lineitems = db.table("lineitem").unwrap().len();
        assert_eq!(orders, customers * 10);
        assert!(lineitems > orders * 2 && lineitems < orders * 8);
        for t in ["supplier", "part", "partsupp"] {
            assert!(!db.table(t).unwrap().is_empty());
        }
    }

    #[test]
    fn generation_is_deterministic_for_a_seed() {
        let a = tiny();
        let b = tiny();
        assert_eq!(
            a.table("lineitem").unwrap().rows().range(..50),
            b.table("lineitem").unwrap().rows().range(..50)
        );
    }

    #[test]
    fn all_queries_execute_and_produce_rows() {
        let db = tiny();
        let engine = Engine::new(EngineProfile::Indexed);
        for q in queries() {
            let out = engine.execute(&db, &q.default_plan()).unwrap();
            assert!(
                !out.relation.is_empty() || q.name == "Q19",
                "query {} returned no rows",
                q.name
            );
        }
    }

    #[test]
    fn topk_queries_are_selective_in_provenance() {
        // Q18's provenance is the set of lineitems of qualifying orders — a
        // small fraction of the table.
        let db = tiny();
        let q18 = queries().into_iter().find(|q| q.name == "Q18").unwrap();
        let lineage = pbds_provenance::capture_lineage(&db, &q18.default_plan()).unwrap();
        let frac =
            lineage.rows_of("lineitem").len() as f64 / db.table("lineitem").unwrap().len() as f64;
        assert!(frac < 0.3, "provenance fraction {frac}");
    }
}
