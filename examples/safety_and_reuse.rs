//! Walks through the paper's safety and reuse machinery on its running
//! example (Fig. 1 and Fig. 5): which partition attributes are safe for Q2,
//! and when can a sketch captured for one instance of a parameterized query
//! answer another instance.
//!
//! Run with: `cargo run -p pbds-core --release --example safety_and_reuse`

use pbds_algebra::{col, param, AggExpr, AggFunc, LogicalPlan, QueryTemplate, SortKey};
use pbds_core::{PartitionAttr, Pbds};
use pbds_storage::{DataType, Database, Schema, TableBuilder, Value};

fn cities_db() -> Database {
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
    let mut db = Database::new();
    db.add_table(b.build());
    db
}

fn main() {
    let pbds = Pbds::new(cities_db());

    // Q2 from Fig. 1a: the state with the highest average population density.
    let q2 = LogicalPlan::scan("cities")
        .aggregate(
            vec!["state"],
            vec![AggExpr::new(AggFunc::Avg, col("popden"), "avgden")],
        )
        .top_k(vec![SortKey::desc("avgden")], 1);

    println!("== Sketch safety (Sec. 5) for Q2 ==");
    for attr in ["state", "popden", "city"] {
        let result = pbds.check_safety(&q2, &[PartitionAttr::new("cities", attr)]);
        println!(
            "  partition on cities.{attr:<7}  safe = {}{}",
            result.safe,
            if result.requires_topk_revalidation {
                "  (top-k: re-validate at runtime)"
            } else {
                ""
            }
        );
        for d in &result.details {
            println!("      {d}");
        }
    }
    // Capture the sketch on the safe attribute and show the Ex. 3 result.
    let partition = pbds.range_partition("cities", "state", 4).unwrap();
    let captured = pbds.capture(&q2, &[partition]).unwrap();
    println!(
        "  captured sketch on state: fragments {:?} (Ex. 3 expects {{f1}})\n",
        captured.sketches[0].selected_fragments()
    );

    // The parameterized query of Fig. 5: states with more than $1 cities of
    // at least $0 inhabitants per square mile.
    println!("== Sketch reuse (Sec. 6) for the Fig. 5 template ==");
    let template = QueryTemplate::new(
        "fig5",
        LogicalPlan::scan("cities")
            .filter(col("popden").gt(param(0)))
            .aggregate(
                vec!["state"],
                vec![AggExpr::new(AggFunc::Count, col("city"), "cntcity")],
            )
            .filter(col("cntcity").gt(param(1))),
    );
    let captured_binding = vec![Value::Int(100), Value::Int(10)];
    for (label, new_binding) in [
        (
            "same popden, higher count threshold (Ex. 7)",
            vec![Value::Int(100), Value::Int(15)],
        ),
        (
            "lower count threshold",
            vec![Value::Int(100), Value::Int(5)],
        ),
        ("weaker popden filter", vec![Value::Int(50), Value::Int(10)]),
        (
            "stronger popden filter",
            vec![Value::Int(500), Value::Int(10)],
        ),
    ] {
        let result = pbds.check_reuse(&template, &captured_binding, &new_binding);
        println!(
            "  captured ($1=100, $2=10), new ({}): reusable = {}",
            label, result.reusable
        );
        for d in &result.details {
            println!("      {d}");
        }
    }
}
