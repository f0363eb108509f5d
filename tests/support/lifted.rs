//! The scan-path oracle as a plan shape.
//!
//! [`lift_scan_filters`] rewrites a lowered plan so that every base-table
//! scan keeps its access path but loses its pushed-down filter, which moves
//! into a `Filter` operator directly above it (`Filter(TRUE)` for a scan
//! without one), and every aggregate loses its HAVING, which moves into a
//! `Filter` directly above the aggregate. The lifted plan filters one row at
//! a time through `CompiledExpr`, never fuses an aggregate into its scan
//! (the aggregate's input is no longer a scan), never decides a HAVING
//! inside the grouped fold and never narrows a hash join's build scan (the
//! build input is no longer a scan), so it checks the chunk kernels, the
//! fused aggregate, the fused HAVING and the narrowed build against a path
//! that shares none of them. Its rows and tags must equal the lowered
//! plan's byte for byte; a join-free plan also scans the same rows.
//!
//! Shared by the workspace's integration tests and by `pbds-exec`'s unit
//! tests, which include this file by path.

use pbds_algebra::lit;
use pbds_exec::{PhysOp, PhysicalPlan};

/// `plan` with every scan's pushed-down filter lifted into a `Filter` above
/// the same scan, and every aggregate's HAVING into a `Filter` above the
/// aggregate.
pub fn lift_scan_filters(plan: &PhysicalPlan) -> PhysicalPlan {
    let mut plan = plan.clone();
    lift(&mut plan);
    plan
}

fn lift(plan: &mut PhysicalPlan) {
    match &mut plan.op {
        PhysOp::SeqScan { filter, .. }
        | PhysOp::IndexRangeScan { filter, .. }
        | PhysOp::ZoneMapScan { filter, .. } => {
            let predicate = filter.take().unwrap_or_else(|| lit(true));
            let scan = plan.clone();
            plan.op = PhysOp::Filter {
                predicate,
                input: Box::new(scan),
            };
        }
        PhysOp::HashAggregate { having, input, .. } => {
            lift(input);
            if let Some(predicate) = having.take() {
                let aggregate = plan.clone();
                plan.op = PhysOp::Filter {
                    predicate,
                    input: Box::new(aggregate),
                };
            }
        }
        PhysOp::Filter { input, .. }
        | PhysOp::Project { input, .. }
        | PhysOp::Sort { input, .. }
        | PhysOp::Limit { input, .. }
        | PhysOp::Distinct { input } => lift(input),
        PhysOp::HashJoin { left, right, .. }
        | PhysOp::NestedLoopCross { left, right }
        | PhysOp::Append { left, right } => {
            lift(left);
            lift(right);
        }
    }
}
