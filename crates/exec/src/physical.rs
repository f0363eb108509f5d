//! Physical plans and the batched operator pipeline.
//!
//! This is the single execution layer shared by plain query execution,
//! provenance-sketch capture and lineage capture. A [`LogicalPlan`] is
//! *lowered* into a [`PhysicalPlan`] — an explicit operator tree where access
//! paths have been chosen (the selection-pushdown-into-scan rewrite that used
//! to live inside `Engine::exec` is now a visible lowering step producing
//! [`PhysOp::IndexRangeScan`] / [`PhysOp::ZoneMapScan`] nodes) — and then
//! executed by pull-based operators that process rows in fixed-size
//! [`Batch`]es.
//!
//! Every batch carries a parallel *tag* vector. What a tag is, how scans seed
//! it and how operators combine tags when rows merge is decided by a
//! [`TagPolicy`]:
//!
//! * [`NoTag`] — plain execution; tags are `()` and compile away;
//! * `pbds-provenance`'s sketch policy — tags are fragment-annotation
//!   vectors, turning the same pipeline into the paper's instrumented
//!   capture run (Sec. 7, rules r0–r7);
//! * `pbds-provenance`'s lineage policy — tags are base-tuple sets, giving
//!   the ground-truth Lineage semantics.
//!
//! The merge points are exactly the paper's capture rules: scans seed
//! (r0), selection/projection/top-k keep (r1/r2/r5), aggregation merges group
//! members with optional min/max narrowing (r3), join and cross product merge
//! both sides (r4), union keeps (r6). The final fold over the result tags
//! (r7) is done by the caller.

use crate::compiled::CompiledExpr;
use crate::eval::ExecError;
use crate::profile::EngineProfile;
use crate::scan::{extract_skip_ranges, InclusiveRange};
use crate::stats::ExecStats;
use crate::vector::{eval_filter_block_counted, int_window, SelBitmap};
use pbds_algebra::{infer_type, AggExpr, AggFunc, Expr, LogicalPlan, SortKey};
use pbds_storage::{
    Column, ColumnData, ColumnVector, ColumnarChunk, ColumnarChunks, DataType, Database, Relation,
    Row, Schema, Table, Value,
};
use pbds_telemetry::clock;
use std::borrow::Borrow;
use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};
use std::sync::Arc;
use std::time::Duration;

/// Number of rows per pipeline batch.
pub const BATCH_SIZE: usize = 1024;

/// A batch of rows with a parallel per-row tag vector.
#[derive(Debug, Clone)]
pub struct Batch<T> {
    /// The rows.
    pub rows: Vec<Row>,
    /// One tag per row, aligned with `rows`.
    pub tags: Vec<T>,
}

impl<T> Batch<T> {
    /// An empty batch with room for `n` rows.
    pub fn with_capacity(n: usize) -> Self {
        Batch {
            rows: Vec::with_capacity(n),
            tags: Vec::with_capacity(n),
        }
    }

    /// Number of rows in the batch.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the batch holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Append one row with its tag.
    pub fn push(&mut self, row: Row, tag: T) {
        self.rows.push(row);
        self.tags.push(tag);
    }
}

/// How per-row tags are created and combined while the pipeline runs.
///
/// Plain execution uses [`NoTag`]; provenance capture supplies policies whose
/// tags are sketch annotations or lineage tuple sets. One execution runs on
/// its calling thread, so neither the policy nor its tags cross threads.
pub trait TagPolicy {
    /// The per-row tag type.
    type Tag: Clone;

    /// Tag for a base-table row entering the pipeline (capture rule r0).
    fn seed_tag(&self, table: &str, schema: &Schema, row: &Row, row_id: u32) -> Self::Tag;

    /// The neutral tag (rows created out of thin air, e.g. the empty-input
    /// global aggregate).
    fn empty_tag(&self) -> Self::Tag;

    /// Merge `from` into `into` when two rows combine (rules r3/r4).
    fn merge_tags(&self, into: &mut Self::Tag, from: &Self::Tag);

    /// Apply the min/max narrowing of rule r3: when a group computes a single
    /// `min`/`max`, only the extremal row's tag represents the group.
    fn minmax_narrowing(&self) -> bool {
        false
    }

    /// True when tags carry no information (seed/merge are no-ops and every
    /// tag equals [`TagPolicy::empty_tag`]). Lets the scan→aggregate pushdown
    /// skip visiting individual rows: a path that never observes a row can
    /// still produce the correct tags, because they are all the empty tag.
    fn tags_are_trivial(&self) -> bool {
        false
    }
}

/// The trivial policy for plain execution: tags are `()` and every hook is a
/// no-op the optimizer removes.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoTag;

impl TagPolicy for NoTag {
    type Tag = ();
    fn seed_tag(&self, _table: &str, _schema: &Schema, _row: &Row, _row_id: u32) {}
    fn empty_tag(&self) {}
    fn merge_tags(&self, _into: &mut (), _from: &()) {}
    fn tags_are_trivial(&self) -> bool {
        true
    }
}

/// A physical plan: an operator tree with its output schema.
#[derive(Debug, Clone, PartialEq)]
pub struct PhysicalPlan {
    /// Output schema of the root operator.
    pub schema: Schema,
    /// The root operator.
    pub op: PhysOp,
}

/// Physical operators produced by [`lower`].
#[derive(Debug, Clone, PartialEq)]
pub enum PhysOp {
    /// Full scan of a base table, with an optional residual filter.
    SeqScan {
        /// Table name.
        table: String,
        /// Residual predicate re-checked per row.
        filter: Option<Expr>,
    },
    /// Ordered-index range scan: only row ids matching `ranges` are fetched.
    IndexRangeScan {
        /// Table name.
        table: String,
        /// Indexed column driving the scan.
        column: String,
        /// Union of inclusive ranges probed in the index.
        ranges: Vec<InclusiveRange>,
        /// Full predicate re-checked per fetched row.
        filter: Option<Expr>,
    },
    /// Zone-map skip scan: blocks whose min/max cannot match are skipped.
    ZoneMapScan {
        /// Table name.
        table: String,
        /// Column whose per-block min/max drives the skipping.
        column: String,
        /// Union of inclusive ranges tested against block zones.
        ranges: Vec<InclusiveRange>,
        /// Full predicate re-checked per fetched row.
        filter: Option<Expr>,
    },
    /// Filter (σ) above a non-scan input.
    Filter {
        /// Predicate.
        predicate: Expr,
        /// Input operator.
        input: Box<PhysicalPlan>,
    },
    /// Generalized projection (Π).
    Project {
        /// `(expression, output name)` pairs.
        exprs: Vec<(Expr, String)>,
        /// Input operator.
        input: Box<PhysicalPlan>,
    },
    /// Hash aggregation (γ) with group-by.
    HashAggregate {
        /// Group-by columns.
        group_by: Vec<String>,
        /// Aggregation expressions.
        aggregates: Vec<AggExpr>,
        /// HAVING: the selection lowered from directly above the aggregate,
        /// over its output schema. A group it rejects is never emitted.
        having: Option<Expr>,
        /// Input operator.
        input: Box<PhysicalPlan>,
    },
    /// Hash equi-join (⋈); the right input is the build side. When the
    /// build side is a base-table scan, the join runs its probe side first
    /// and narrows the scan to the probe's keys.
    HashJoin {
        /// Probe side.
        left: Box<PhysicalPlan>,
        /// Build side.
        right: Box<PhysicalPlan>,
        /// Join column from the left input.
        left_col: String,
        /// Join column from the right input.
        right_col: String,
        /// The profile the plan was lowered with, which a build scan
        /// narrowed at run time is lowered with again.
        profile: EngineProfile,
    },
    /// Nested-loop cross product (×); the right input is materialized.
    NestedLoopCross {
        /// Streamed side.
        left: Box<PhysicalPlan>,
        /// Materialized side.
        right: Box<PhysicalPlan>,
    },
    /// Full sort. `topk_limit` marks sorts lowered from a top-k operator so
    /// the executor can record the paper's runtime safety counter.
    Sort {
        /// Sort keys.
        keys: Vec<SortKey>,
        /// `Some(k)` when this sort feeds a `Limit` lowered from top-k.
        topk_limit: Option<usize>,
        /// Input operator.
        input: Box<PhysicalPlan>,
    },
    /// Keep the first `limit` rows.
    Limit {
        /// Row budget.
        limit: usize,
        /// Input operator.
        input: Box<PhysicalPlan>,
    },
    /// Duplicate elimination (δ); duplicate rows merge their tags.
    Distinct {
        /// Input operator.
        input: Box<PhysicalPlan>,
    },
    /// Bag union (∪): left rows then right rows.
    Append {
        /// First input.
        left: Box<PhysicalPlan>,
        /// Second input.
        right: Box<PhysicalPlan>,
    },
}

impl PhysOp {
    /// The table and pushed-down filter of a base-table scan; `None` for
    /// any other operator.
    fn scan(&self) -> Option<(&str, Option<&Expr>)> {
        match self {
            PhysOp::SeqScan { table, filter }
            | PhysOp::IndexRangeScan { table, filter, .. }
            | PhysOp::ZoneMapScan { table, filter, .. } => Some((table, filter.as_ref())),
            _ => None,
        }
    }
}

impl PhysicalPlan {
    /// Direct children of the root operator.
    pub fn children(&self) -> Vec<&PhysicalPlan> {
        match &self.op {
            PhysOp::SeqScan { .. } | PhysOp::IndexRangeScan { .. } | PhysOp::ZoneMapScan { .. } => {
                vec![]
            }
            PhysOp::Filter { input, .. }
            | PhysOp::Project { input, .. }
            | PhysOp::HashAggregate { input, .. }
            | PhysOp::Sort { input, .. }
            | PhysOp::Limit { input, .. }
            | PhysOp::Distinct { input } => vec![input],
            PhysOp::HashJoin { left, right, .. }
            | PhysOp::NestedLoopCross { left, right }
            | PhysOp::Append { left, right } => vec![left, right],
        }
    }

    /// Human-readable indented operator tree (an `EXPLAIN` of sorts).
    ///
    /// Equivalent to the [`std::fmt::Display`] implementation; kept as a
    /// named method for discoverability.
    pub fn display_tree(&self) -> String {
        self.to_string()
    }

    /// One-line label of the root operator (shared by the `EXPLAIN` tree and
    /// the `EXPLAIN ANALYZE` rendering).
    fn op_label(&self) -> String {
        match &self.op {
            PhysOp::SeqScan { table, filter } => match filter {
                Some(f) => format!("SeqScan[{table}, filter={f}]"),
                None => format!("SeqScan[{table}]"),
            },
            PhysOp::IndexRangeScan {
                table,
                column,
                ranges,
                ..
            } => format!(
                "IndexRangeScan[{table}.{column}, {} range(s)]",
                ranges.len()
            ),
            PhysOp::ZoneMapScan {
                table,
                column,
                ranges,
                ..
            } => format!("ZoneMapScan[{table}.{column}, {} range(s)]", ranges.len()),
            PhysOp::Filter { predicate, .. } => format!("Filter[{predicate}]"),
            PhysOp::Project { exprs, .. } => {
                let cols: Vec<String> = exprs.iter().map(|(e, n)| format!("{e} AS {n}")).collect();
                format!("Project[{}]", cols.join(", "))
            }
            PhysOp::HashAggregate {
                group_by,
                aggregates,
                having,
                ..
            } => {
                let aggs: Vec<String> = aggregates
                    .iter()
                    .map(|a| format!("{}({}) AS {}", a.func, a.input, a.alias))
                    .collect();
                let having = having
                    .as_ref()
                    .map_or(String::new(), |h| format!(", having={h}"));
                format!(
                    "HashAggregate[group_by=({}), {}{having}]",
                    group_by.join(", "),
                    aggs.join(", ")
                )
            }
            PhysOp::HashJoin {
                left_col,
                right_col,
                ..
            } => format!("HashJoin[{left_col} = {right_col}]"),
            PhysOp::NestedLoopCross { .. } => "NestedLoopCross".to_string(),
            PhysOp::Sort {
                keys, topk_limit, ..
            } => {
                let ks: Vec<String> = keys
                    .iter()
                    .map(|k| format!("{}{}", k.column, if k.descending { " DESC" } else { "" }))
                    .collect();
                match topk_limit {
                    Some(k) => format!("Sort[({}), top-k={k}]", ks.join(", ")),
                    None => format!("Sort[({})]", ks.join(", ")),
                }
            }
            PhysOp::Limit { limit, .. } => format!("Limit[{limit}]"),
            PhysOp::Distinct { .. } => "Distinct".to_string(),
            PhysOp::Append { .. } => "Append".to_string(),
        }
    }

    fn fmt_tree(&self, out: &mut String, indent: usize) {
        out.push_str(&"  ".repeat(indent));
        out.push_str(&self.op_label());
        out.push('\n');
        for c in self.children() {
            c.fmt_tree(out, indent + 1);
        }
    }

    /// Number of operators in this plan (the length of the pre-order id
    /// space used by [`PlanMetrics`]).
    pub fn node_count(&self) -> usize {
        1 + self
            .children()
            .iter()
            .map(|c| c.node_count())
            .sum::<usize>()
    }

    /// Render the `EXPLAIN ANALYZE` tree: the operator labels of the plain
    /// `EXPLAIN` annotated per operator with the runtime metrics [`execute`]
    /// returns. `metrics` must come from executing *this* plan (ids are
    /// pre-order positions).
    pub fn render_analyze(&self, metrics: &PlanMetrics) -> String {
        let mut out = String::new();
        let mut id = 0usize;
        self.fmt_analyze(&mut out, 0, metrics, &mut id);
        out
    }

    fn fmt_analyze(&self, out: &mut String, indent: usize, metrics: &PlanMetrics, id: &mut usize) {
        let m = metrics.ops.get(*id).cloned().unwrap_or_default();
        *id += 1;
        out.push_str(&"  ".repeat(indent));
        out.push_str(&m.resolved.clone().unwrap_or_else(|| self.op_label()));
        if m.fused {
            out.push_str("  (fused into parent by scan→aggregate pushdown)");
        } else if !m.ran {
            out.push_str("  (never executed)");
        } else {
            out.push_str(&format!(
                "  (rows={}, batches={}, elapsed={:.3}ms",
                m.rows_out,
                m.batches,
                m.elapsed.as_secs_f64() * 1e3,
            ));
            if m.rows_scanned > 0 {
                out.push_str(&format!(", scanned={}", m.rows_scanned));
            }
            if m.encoded_blocks > 0 {
                out.push_str(&format!(", encoded_blocks={}", m.encoded_blocks));
            }
            out.push(')');
        }
        out.push('\n');
        for c in self.children() {
            c.fmt_analyze(out, indent + 1, metrics, id);
        }
    }
}

/// Runtime metrics of one operator, recorded by every [`execute`] and
/// rendered by `EXPLAIN ANALYZE`. `elapsed`, `rows_scanned` and
/// `encoded_blocks` are **inclusive** of the operator's subtree — the pipeline
/// is pull-based, so time spent producing a child batch is part of the
/// parent's `next_batch` call. Self time is the parent's value minus its
/// children's.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OpMetrics {
    /// Rows this operator emitted to its parent.
    pub rows_out: u64,
    /// Batches this operator emitted.
    pub batches: u64,
    /// Wall-clock time inside this operator's subtree.
    pub elapsed: Duration,
    /// Base-table rows scanned within this subtree.
    pub rows_scanned: u64,
    /// Encoded (compressed) columnar blocks evaluated within this subtree.
    pub encoded_blocks: u64,
    /// This operator was fused into an ancestor by the scan→aggregate
    /// pushdown; its work is attributed to that ancestor.
    pub fused: bool,
    /// At least one `next_batch` call reached this operator.
    pub ran: bool,
    /// The `EXPLAIN` label of the access path a scan resolved at run time
    /// took, when it is not the plan's: a hash join's build scan narrowed to
    /// the probe side's keys.
    pub resolved: Option<String>,
}

/// Per-operator metrics for a whole plan, indexed by pre-order position
/// (root = 0, then each child subtree in [`PhysicalPlan::children`] order).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PlanMetrics {
    /// One entry per operator in pre-order.
    pub ops: Vec<OpMetrics>,
}

/// Shared mutable cell the analyze wrappers record into. Plain `RefCell` is
/// sound here because an execution runs on its calling thread and an operator
/// tree is single-threaded by construction (`BoxOp` is not `Send`).
type AnalyzeShared = RefCell<Vec<OpMetrics>>;

/// Instrumentation wrapper around one operator: times every `next_batch`
/// call, counts emitted rows/batches, and attributes `ExecStats` deltas
/// (rows scanned, encoded blocks) to its pre-order id.
struct AnalyzeOp<'a, P: TagPolicy> {
    inner: BoxOp<'a, P>,
    metrics: &'a AnalyzeShared,
    id: usize,
}

impl<P: TagPolicy> BatchOp<P> for AnalyzeOp<'_, P> {
    fn next_batch(&mut self, stats: &mut ExecStats) -> Result<Option<Batch<P::Tag>>, ExecError> {
        let scanned_before = stats.rows_scanned;
        let encoded_before = stats.encoded_blocks;
        let sw = clock::Stopwatch::start();
        let out = self.inner.next_batch(stats);
        let elapsed = sw.elapsed();
        let mut all = self.metrics.borrow_mut();
        let m = &mut all[self.id];
        m.ran = true;
        m.elapsed += elapsed;
        m.rows_scanned += stats.rows_scanned.saturating_sub(scanned_before);
        m.encoded_blocks += stats.encoded_blocks.saturating_sub(encoded_before);
        if let Ok(Some(batch)) = &out {
            m.batches += 1;
            m.rows_out += batch.rows.len() as u64;
        }
        out
    }
}

/// `EXPLAIN`-style rendering: one operator per line, children indented two
/// spaces below their parent, ending with a trailing newline.
///
/// ```text
/// Limit[3]
///   Sort[(total DESC), top-k=3]
///     HashAggregate[group_by=(grp), Sum(amount) AS total]
///       IndexRangeScan[t.grp, 1 range(s)]
/// ```
impl std::fmt::Display for PhysicalPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut s = String::new();
        self.fmt_tree(&mut s, 0);
        f.write_str(&s)
    }
}

// ---------------------------------------------------------------------------
// Lowering
// ---------------------------------------------------------------------------

/// Lower a logical plan to a physical plan, choosing access paths.
///
/// Chains of selections are collapsed into one conjunction; when the chain
/// bottoms out at a table scan the predicate is pushed into the scan and the
/// best access path the `profile` allows is chosen: ordered index, then zone
/// map, then sequential scan. The full predicate is always re-checked per
/// row, so access-path choice affects performance and statistics only. A
/// chain that bottoms out at an aggregate becomes its HAVING, decided per
/// group before an output row is built.
pub fn lower(
    db: &Database,
    plan: &LogicalPlan,
    profile: EngineProfile,
) -> Result<PhysicalPlan, ExecError> {
    match plan {
        LogicalPlan::TableScan { table } => Ok(lower_scan(db.table(table)?, None, profile)),
        LogicalPlan::Selection { .. } => {
            // Collect the conjunction of predicates down a chain of
            // selections (the rewrite `Engine::exec` used to do implicitly).
            let mut predicates: Vec<Expr> = Vec::new();
            let mut node = plan;
            while let LogicalPlan::Selection { predicate, input } = node {
                predicates.push(predicate.clone());
                node = input;
            }
            let combined = if predicates.len() == 1 {
                predicates.pop().expect("one predicate")
            } else {
                Expr::And(predicates)
            };
            if let LogicalPlan::TableScan { table } = node {
                return Ok(lower_scan(db.table(table)?, Some(combined), profile));
            }
            let mut input = lower(db, node, profile)?;
            if let PhysOp::HashAggregate { having, .. } = &mut input.op {
                *having = Some(combined);
                return Ok(input);
            }
            Ok(PhysicalPlan {
                schema: input.schema.clone(),
                op: PhysOp::Filter {
                    predicate: combined,
                    input: Box::new(input),
                },
            })
        }
        LogicalPlan::Projection { exprs, input } => {
            let input = lower(db, input, profile)?;
            let schema = Schema::new(
                exprs
                    .iter()
                    .map(|(e, name)| Column::new(name.clone(), infer_type(e, &input.schema)))
                    .collect(),
            );
            Ok(PhysicalPlan {
                schema,
                op: PhysOp::Project {
                    exprs: exprs.clone(),
                    input: Box::new(input),
                },
            })
        }
        LogicalPlan::Aggregate {
            group_by,
            aggregates,
            input,
        } => {
            let input = lower(db, input, profile)?;
            let mut cols = Vec::new();
            for g in group_by {
                // Unlike LogicalPlan::schema (which tolerates unknowns for
                // display purposes), lowering validates the plan: a physical
                // plan returned by Engine::plan must also be executable.
                let column = input
                    .schema
                    .column(g)
                    .ok_or_else(|| ExecError::UnknownColumn(g.clone()))?;
                cols.push(Column::new(g.clone(), column.dtype));
            }
            for a in aggregates {
                let dtype = match a.func {
                    AggFunc::Count => DataType::Int,
                    AggFunc::Avg => DataType::Float,
                    AggFunc::Sum | AggFunc::Min | AggFunc::Max => {
                        infer_type(&a.input, &input.schema)
                    }
                };
                cols.push(Column::new(a.alias.clone(), dtype));
            }
            Ok(PhysicalPlan {
                schema: Schema::new(cols),
                op: PhysOp::HashAggregate {
                    group_by: group_by.clone(),
                    aggregates: aggregates.clone(),
                    having: None,
                    input: Box::new(input),
                },
            })
        }
        LogicalPlan::Join {
            left,
            right,
            left_col,
            right_col,
        } => {
            let left = lower(db, left, profile)?;
            let right = lower(db, right, profile)?;
            for (schema, column) in [(&left.schema, left_col), (&right.schema, right_col)] {
                if schema.index_of(column).is_none() {
                    return Err(ExecError::UnknownColumn(column.clone()));
                }
            }
            Ok(PhysicalPlan {
                schema: left.schema.concat(&right.schema),
                op: PhysOp::HashJoin {
                    left: Box::new(left),
                    right: Box::new(right),
                    left_col: left_col.clone(),
                    right_col: right_col.clone(),
                    profile,
                },
            })
        }
        LogicalPlan::CrossProduct { left, right } => {
            let left = lower(db, left, profile)?;
            let right = lower(db, right, profile)?;
            Ok(PhysicalPlan {
                schema: left.schema.concat(&right.schema),
                op: PhysOp::NestedLoopCross {
                    left: Box::new(left),
                    right: Box::new(right),
                },
            })
        }
        LogicalPlan::Distinct { input } => {
            let input = lower(db, input, profile)?;
            Ok(PhysicalPlan {
                schema: input.schema.clone(),
                op: PhysOp::Distinct {
                    input: Box::new(input),
                },
            })
        }
        LogicalPlan::TopK {
            order_by,
            limit,
            input,
        } => {
            let input = lower(db, input, profile)?;
            for key in order_by {
                if input.schema.index_of(&key.column).is_none() {
                    return Err(ExecError::UnknownColumn(key.column.clone()));
                }
            }
            let schema = input.schema.clone();
            let sort = PhysicalPlan {
                schema: schema.clone(),
                op: PhysOp::Sort {
                    keys: order_by.clone(),
                    topk_limit: Some(*limit),
                    input: Box::new(input),
                },
            };
            Ok(PhysicalPlan {
                schema,
                op: PhysOp::Limit {
                    limit: *limit,
                    input: Box::new(sort),
                },
            })
        }
        LogicalPlan::Union { left, right } => {
            let left = lower(db, left, profile)?;
            let right = lower(db, right, profile)?;
            Ok(PhysicalPlan {
                schema: left.schema.clone(),
                op: PhysOp::Append {
                    left: Box::new(left),
                    right: Box::new(right),
                },
            })
        }
    }
}

/// Lower one base-table access with an optional pushed-down predicate.
///
/// Lowering calls it for every scan, and a hash join calls it once more at
/// run time for a build scan it narrows to its probe side's keys
/// ([`HashJoinOp`]): the key list is one more conjunct, a single-column
/// [`Expr::InList`], which [`extract_skip_ranges`] reads as point ranges, so
/// it takes the index-probe / zone-map / kernel path a sketch predicate
/// takes.
pub(crate) fn lower_scan(
    table: &Table,
    predicate: Option<Expr>,
    profile: EngineProfile,
) -> PhysicalPlan {
    let schema = table.schema().clone();
    let name = table.name().to_string();
    let op = match predicate {
        None => PhysOp::SeqScan {
            table: name,
            filter: None,
        },
        Some(pred) => {
            let ranges = if profile.allows_skipping() {
                extract_skip_ranges(&pred)
            } else {
                None
            };
            match ranges {
                Some(cr) if table.index_on(&cr.column).is_some() => PhysOp::IndexRangeScan {
                    table: name,
                    column: cr.column,
                    ranges: cr.ranges,
                    filter: Some(pred),
                },
                Some(cr) if table.zone_map().is_some() && schema.index_of(&cr.column).is_some() => {
                    PhysOp::ZoneMapScan {
                        table: name,
                        column: cr.column,
                        ranges: cr.ranges,
                        filter: Some(pred),
                    }
                }
                _ => PhysOp::SeqScan {
                    table: name,
                    filter: Some(pred),
                },
            }
        }
    };
    PhysicalPlan { schema, op }
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

/// What [`execute`] returns.
#[derive(Debug, Clone)]
pub struct Executed<T> {
    /// The result relation.
    pub relation: Relation,
    /// The per-row tags produced by the policy, aligned with the relation's
    /// rows.
    pub tags: Vec<T>,
    /// Per-operator runtime metrics, indexed in the plan's pre-order (render
    /// them with [`PhysicalPlan::render_analyze`]).
    pub metrics: PlanMetrics,
}

/// Execute a physical plan: the one way into the operator pipeline, shared by
/// plain execution, `EXPLAIN ANALYZE`, sketch capture and lineage capture.
///
/// Every operator is wrapped so each `next_batch` call is timed (through the
/// [`pbds_telemetry::clock`] seam) and its emitted rows/batches plus
/// `ExecStats` deltas are attributed to the operator's pre-order id — two
/// clock reads per batch of up to [`BATCH_SIZE`] rows, cheap enough to be
/// always on.
///
/// The whole execution runs on the calling thread: concurrency lives in the
/// server's sessions, one query each, not inside one query.
pub fn execute<P: TagPolicy>(
    db: &Database,
    plan: &PhysicalPlan,
    policy: &P,
    stats: &mut ExecStats,
) -> Result<Executed<P::Tag>, ExecError> {
    let cells: AnalyzeShared = RefCell::new(vec![OpMetrics::default(); plan.node_count()]);
    let mut relation = Relation::empty(plan.schema.clone());
    let mut tags = Vec::new();
    {
        let builder = OpBuilder {
            db,
            policy,
            metrics: &cells,
        };
        let mut root = builder.op(plan, 0, stats)?;
        while let Some(batch) = root.next_batch(stats)? {
            stats.batches += 1;
            for (row, tag) in batch.rows.into_iter().zip(batch.tags) {
                relation.push(row);
                tags.push(tag);
            }
        }
    }
    Ok(Executed {
        relation,
        tags,
        metrics: PlanMetrics {
            ops: cells.into_inner(),
        },
    })
}

pub(crate) trait BatchOp<P: TagPolicy> {
    fn next_batch(&mut self, stats: &mut ExecStats) -> Result<Option<Batch<P::Tag>>, ExecError>;
}

type BoxOp<'a, P> = Box<dyn BatchOp<P> + 'a>;

/// What every operator of one execution is built from, besides its plan node.
struct OpBuilder<'a, P: TagPolicy> {
    db: &'a Database,
    policy: &'a P,
    metrics: &'a AnalyzeShared,
}

impl<P: TagPolicy> Clone for OpBuilder<'_, P> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<P: TagPolicy> Copy for OpBuilder<'_, P> {}

impl<'a, P: TagPolicy> OpBuilder<'a, P> {
    /// Build the operator for `plan`, whose pre-order id is `id`, inside its
    /// [`AnalyzeOp`]. Scans account for their rows when they are resolved,
    /// which is when they are built except for a hash join's build scan
    /// ([`BuildScan::resolve`]), so the rows counted while building this
    /// subtree are attributed here.
    fn op(
        &self,
        plan: &'a PhysicalPlan,
        id: usize,
        stats: &mut ExecStats,
    ) -> Result<BoxOp<'a, P>, ExecError> {
        let scanned_before = stats.rows_scanned;
        let inner = self.bare_op(plan, id, stats)?;
        self.metrics.borrow_mut()[id].rows_scanned += stats.rows_scanned - scanned_before;
        Ok(Box::new(AnalyzeOp {
            inner,
            metrics: self.metrics,
            id,
        }))
    }

    /// Pre-order child ids: a unary child is `id + 1`; a binary node's right
    /// child starts after the whole left subtree.
    fn bare_op(
        &self,
        plan: &'a PhysicalPlan,
        id: usize,
        stats: &mut ExecStats,
    ) -> Result<BoxOp<'a, P>, ExecError> {
        let policy = self.policy;
        let right_id = |left: &PhysicalPlan| id + 1 + left.node_count();
        match &plan.op {
            PhysOp::SeqScan { table, .. }
            | PhysOp::IndexRangeScan { table, .. }
            | PhysOp::ZoneMapScan { table, .. } => {
                let table = self.db.table(table)?;
                let (scan, pieces) = resolve_scan(table, &plan.op, stats)?;
                Ok(self.scan_op(scan, pieces))
            }
            PhysOp::Filter { predicate, input } => Ok(Box::new(FilterOp {
                predicate: CompiledExpr::compile(predicate, &input.schema),
                input: self.op(input, id + 1, stats)?,
            })),
            PhysOp::Project { exprs, input } => Ok(Box::new(ProjectOp {
                exprs: exprs
                    .iter()
                    .map(|(e, _)| CompiledExpr::compile(e, &input.schema))
                    .collect(),
                input: self.op(input, id + 1, stats)?,
            })),
            PhysOp::HashAggregate {
                group_by,
                aggregates,
                having,
                input,
            } => {
                let having = having
                    .as_ref()
                    .map(|h| CompiledExpr::compile(h, &plan.schema));
                let group_idx: Vec<usize> = group_by
                    .iter()
                    .map(|g| {
                        input
                            .schema
                            .index_of(g)
                            .ok_or_else(|| ExecError::UnknownColumn(g.clone()))
                    })
                    .collect::<Result<_, _>>()?;
                // An aggregate directly above a chunk-aligned scan can
                // aggregate over the selection bitmaps without materializing
                // row batches.
                let fused =
                    try_agg_pushdown(self.db, input, &group_idx, aggregates, policy, stats)?;
                if let Some(mut op) = fused {
                    op.having = having;
                    // The input subtree was fused into this aggregate: its
                    // operators never run on their own, so mark their
                    // pre-order slots — the ANALYZE rendering shows them as
                    // fused and attributes all work to this node.
                    let mut all = self.metrics.borrow_mut();
                    for slot in &mut all[id + 1..id + 1 + input.node_count()] {
                        slot.fused = true;
                    }
                    return Ok(Box::new(op));
                }
                Ok(Box::new(HashAggregateOp {
                    group_idx,
                    aggregates,
                    having,
                    agg_inputs: aggregates
                        .iter()
                        .map(|a| CompiledExpr::compile(&a.input, &input.schema))
                        .collect(),
                    policy,
                    input: Some(self.op(input, id + 1, stats)?),
                    out: Emitter::new(),
                }))
            }
            PhysOp::HashJoin {
                left,
                right,
                left_col,
                right_col,
                profile,
            } => {
                let li = left
                    .schema
                    .index_of(left_col)
                    .ok_or_else(|| ExecError::UnknownColumn(left_col.clone()))?;
                let ri = right
                    .schema
                    .index_of(right_col)
                    .ok_or_else(|| ExecError::UnknownColumn(right_col.clone()))?;
                let right = if right.op.scan().is_some() {
                    BuildInput::Scan(BuildScan {
                        builder: *self,
                        plan: right,
                        id: right_id(left),
                        column: right_col,
                        profile: *profile,
                    })
                } else {
                    BuildInput::Op(self.op(right, right_id(left), stats)?)
                };
                Ok(Box::new(HashJoinOp {
                    left: Some(self.op(left, id + 1, stats)?),
                    right: Some(right),
                    probed: Vec::new().into_iter(),
                    li,
                    ri,
                    policy,
                    hasher: KeyHasher::seeded(),
                    build: HashMap::default(),
                    build_rows: Vec::new(),
                }))
            }
            PhysOp::NestedLoopCross { left, right } => Ok(Box::new(NestedLoopCrossOp {
                left: self.op(left, id + 1, stats)?,
                right: Some(self.op(right, right_id(left), stats)?),
                policy,
                right_rows: Vec::new(),
                pending: std::collections::VecDeque::new(),
                current: None,
                right_pos: 0,
                left_count: 0,
                done: false,
            })),
            PhysOp::Sort {
                keys,
                topk_limit,
                input,
            } => {
                let key_idx: Vec<(usize, bool)> = keys
                    .iter()
                    .map(|k| {
                        input
                            .schema
                            .index_of(&k.column)
                            .map(|i| (i, k.descending))
                            .ok_or_else(|| ExecError::UnknownColumn(k.column.clone()))
                    })
                    .collect::<Result<_, _>>()?;
                Ok(Box::new(SortOp {
                    key_idx,
                    topk_limit: *topk_limit,
                    input: Some(self.op(input, id + 1, stats)?),
                    out: Emitter::new(),
                }))
            }
            PhysOp::Limit { limit, input } => Ok(Box::new(LimitOp {
                remaining: *limit,
                input: self.op(input, id + 1, stats)?,
            })),
            PhysOp::Distinct { input } => Ok(Box::new(DistinctOp {
                policy,
                columns: (0..input.schema.arity()).collect(),
                input: Some(self.op(input, id + 1, stats)?),
                out: Emitter::new(),
            })),
            PhysOp::Append { left, right } => Ok(Box::new(AppendOp {
                left: Some(self.op(left, id + 1, stats)?),
                right: Some(self.op(right, right_id(left), stats)?),
            })),
        }
    }

    /// The plain scan over a resolved scan's pieces.
    fn scan_op(&self, scan: PieceScan<'a>, pieces: Vec<Piece>) -> BoxOp<'a, P> {
        Box::new(ScanOp {
            scan,
            policy: self.policy,
            pieces: pieces.into_iter(),
            current: None,
        })
    }
}

// -- scans ------------------------------------------------------------------

/// Resolved row-id set of a scan, before [`masked_pieces`] cuts it at chunk
/// boundaries.
enum ScanSource {
    /// Contiguous `[start, end)` row-id segments (seq / zone-map scans).
    Segments(Vec<(usize, usize)>),
    /// The rows an index probe matched: bit `r % 64` of word `r / 64` is row
    /// `r`.
    Probe(Vec<u64>),
}

/// Rows `lo .. lo + within.len()` of one columnar chunk, and which of them
/// the scan's source selects before the filter (bit `j` is row `lo + j`).
struct Piece {
    lo: usize,
    within: SelBitmap,
}

impl Piece {
    fn hi(&self) -> usize {
        self.lo + self.within.len()
    }
}

/// A resolved scan source as chunk-aligned pieces in table order: every row
/// of a segment, cut at the chunks' own ends (chunks need not be full), and
/// for an index probe the probed rows of each chunk that holds one, the
/// piece spanning the first to the last of them.
fn masked_pieces(source: ScanSource, chunks: &ColumnarChunks) -> Vec<Piece> {
    match source {
        ScanSource::Segments(segs) => {
            let mut pieces = Vec::new();
            for (start, end) in segs {
                let mut lo = start;
                while lo < end {
                    // Past the last chunk the piece is reported when it is
                    // filtered.
                    let hi = chunks.chunk_for(lo).map_or(end, |c| c.end.min(end));
                    let within = SelBitmap::ones(hi - lo);
                    pieces.push(Piece { lo, within });
                    lo = hi;
                }
            }
            pieces
        }
        ScanSource::Probe(words) => chunks
            .chunks()
            .iter()
            .filter_map(|chunk| {
                let (first, last) = SelBitmap::window(&words, chunk.start, chunk.len()).bounds()?;
                let lo = chunk.start + first;
                let within = SelBitmap::window(&words, lo, last + 1 - first);
                Some(Piece { lo, within })
            })
            .collect(),
    }
}

/// A base-table scan resolved against the current table: everything its
/// operator needs besides the pieces it reads. The plain scan ([`ScanOp`])
/// and the fused aggregate ([`AggScanOp`]) both filter their pieces through
/// [`PieceScan::select`].
struct PieceScan<'a> {
    table: &'a Table,
    /// Chunk projection snapshot fetched at resolve.
    chunks: Arc<ColumnarChunks>,
    /// The pushed-down filter, bound to the table schema once (it can hold
    /// large sketch range / key sets).
    filter: Option<CompiledExpr>,
    /// Table epoch the source was resolved at; every operator re-validates
    /// it before it reads.
    epoch: u64,
}

impl PieceScan<'_> {
    /// Filter one piece, within the rows its source selects, into its
    /// selection bitmap: the one filter step of every base-table scan.
    fn select(
        &self,
        piece: Piece,
        stats: &mut ExecStats,
    ) -> Result<(&ColumnarChunk, SelBitmap), ExecError> {
        let (lo, hi) = (piece.lo, piece.hi());
        let chunk = self
            .chunks
            .chunk_for(lo)
            .ok_or_else(|| ExecError::Plan("row id beyond chunk range".into()))?;
        let sel = match &self.filter {
            None => piece.within,
            Some(pred) => {
                let rows = piece_rows(self.table, lo, hi);
                let sel =
                    eval_filter_block_counted(pred, chunk, rows, lo, hi, piece.within, stats)?;
                stats.vectorized_blocks += 1;
                sel
            }
        };
        Ok((chunk, sel))
    }
}

/// The rows `[lo, hi)` of a chunk-aligned piece.
fn piece_rows(table: &Table, lo: usize, hi: usize) -> &[Row] {
    let (first, run) = table.rows().slice_at(lo);
    &run[lo - first..hi - first]
}

/// Resolve a scan operator against the current table into its
/// [`PieceScan`] and pieces, recording the access-path statistics up front:
/// exactly one of `full_scans` / `index_scans` / `zone_map_scans`, the
/// zone-map block counters, `vectorized_scans` (a filtered scan or an
/// index probe), and `rows_scanned` — every row the source selects counts as
/// scanned when the scan is resolved, whichever operator then visits it (the
/// plain scan or the fused aggregate), so the two agree by construction.
///
/// Lowering only emits index / zone-map scans when the physical-design
/// artifact exists, but the database may have been mutated between `lower`
/// and execution (e.g. a table replaced without its index) — a stale plan
/// reports [`ExecError::Plan`] instead of panicking.
fn resolve_scan<'a>(
    table: &'a Table,
    op: &PhysOp,
    stats: &mut ExecStats,
) -> Result<(PieceScan<'a>, Vec<Piece>), ExecError> {
    let stale = |what: &str, column: &str| {
        ExecError::Plan(format!(
            "{what} on {}.{column}, but the table no longer has it \
             (physical plan is stale; re-lower against the current database)",
            table.name()
        ))
    };
    let (filter, source) = match op {
        PhysOp::SeqScan { filter, .. } => {
            stats.full_scans += 1;
            (filter, ScanSource::Segments(vec![(0, table.len())]))
        }
        PhysOp::IndexRangeScan {
            column,
            ranges,
            filter,
            ..
        } => {
            let index = table
                .index_on(column)
                .ok_or_else(|| stale("IndexRangeScan", column))?;
            stats.index_scans += 1;
            (filter, ScanSource::Probe(index.multi_range(ranges)))
        }
        PhysOp::ZoneMapScan {
            column,
            ranges,
            filter,
            ..
        } => {
            let zm = table
                .zone_map()
                .ok_or_else(|| stale("ZoneMapScan", column))?;
            let col_idx = table
                .schema()
                .index_of(column)
                .ok_or_else(|| ExecError::UnknownColumn(column.clone()))?;
            let blocks = zm.candidate_blocks(col_idx, ranges);
            stats.zone_map_scans += 1;
            stats.blocks_total += zm.num_blocks() as u64;
            stats.blocks_skipped += (zm.num_blocks() - blocks.len()) as u64;
            let segs = blocks.into_iter().map(|b| (b.start, b.end)).collect();
            (filter, ScanSource::Segments(segs))
        }
        other => {
            return Err(ExecError::Plan(format!(
                "resolve_scan on non-scan operator {other:?}"
            )))
        }
    };
    if filter.is_some() || matches!(source, ScanSource::Probe(_)) {
        stats.vectorized_scans += 1;
    }
    let chunks = table.columnar_chunks();
    let pieces = masked_pieces(source, &chunks);
    stats.rows_scanned += selected_rows(&pieces) as u64;
    let scan = PieceScan {
        table,
        chunks,
        filter: filter
            .as_ref()
            .map(|pred| CompiledExpr::compile(pred, table.schema())),
        epoch: table.epoch(),
    };
    Ok((scan, pieces))
}

/// The rows `pieces` select before the filter.
fn selected_rows(pieces: &[Piece]) -> usize {
    pieces.iter().map(|p| p.within.count()).sum()
}

/// Validate that the table still is at the epoch a scan's pieces (and chunk
/// projection) were resolved at. Rust's borrow rules make an in-scan
/// mutation impossible for `&Table` scans, but the check turns any future
/// interior-mutability bug — or a plan executed across a mutation — into a
/// reported error instead of silently wrong rows.
fn check_scan_epoch(table: &Table, resolved_at: u64) -> Result<(), ExecError> {
    if table.epoch() != resolved_at {
        return Err(ExecError::Plan(format!(
            "table {} mutated during scan (epoch {} -> {}); re-plan against \
             the current database",
            table.name(),
            resolved_at,
            table.epoch()
        )));
    }
    Ok(())
}

/// The leaf scan of every base table — sequential, zone-map or index probe.
/// Each piece of its source ([`masked_pieces`]) is filtered by
/// [`PieceScan::select`], and only the rows it selects are materialised
/// from the row store into batches, in table order.
struct ScanOp<'a, P: TagPolicy> {
    scan: PieceScan<'a>,
    policy: &'a P,
    pieces: std::vec::IntoIter<Piece>,
    /// The piece being emitted: its first row id, its rows, its selection
    /// and the position to resume from.
    current: Option<(usize, &'a [Row], SelBitmap, usize)>,
}

impl<P: TagPolicy> BatchOp<P> for ScanOp<'_, P> {
    fn next_batch(&mut self, stats: &mut ExecStats) -> Result<Option<Batch<P::Tag>>, ExecError> {
        let table = self.scan.table;
        check_scan_epoch(table, self.scan.epoch)?;
        let (name, schema) = (table.name(), table.schema());
        let mut batch = Batch::with_capacity(BATCH_SIZE);
        while batch.len() < BATCH_SIZE {
            let Some((lo, rows, sel, from)) = &mut self.current else {
                let Some(piece) = self.pieces.next() else {
                    break;
                };
                let (lo, hi) = (piece.lo, piece.hi());
                let (_, sel) = self.scan.select(piece, stats)?;
                self.current = Some((lo, piece_rows(table, lo, hi), sel, 0));
                continue;
            };
            let mut rest = None;
            for j in sel.ones_from(*from) {
                if batch.len() == BATCH_SIZE {
                    rest = Some(j);
                    break;
                }
                let row = &rows[j];
                let tag = self.policy.seed_tag(name, schema, row, (*lo + j) as u32);
                batch.push(row.clone(), tag);
            }
            match rest {
                Some(j) => *from = j,
                None => self.current = None,
            }
        }
        Ok((!batch.is_empty()).then_some(batch))
    }
}

// -- streaming operators ----------------------------------------------------

struct FilterOp<'a, P: TagPolicy> {
    /// Predicate with column names bound once against the input schema.
    predicate: CompiledExpr,
    input: BoxOp<'a, P>,
}

impl<P: TagPolicy> BatchOp<P> for FilterOp<'_, P> {
    fn next_batch(&mut self, stats: &mut ExecStats) -> Result<Option<Batch<P::Tag>>, ExecError> {
        while let Some(batch) = self.input.next_batch(stats)? {
            let mut out = Batch::with_capacity(batch.len());
            for (row, tag) in batch.rows.into_iter().zip(batch.tags) {
                if self.predicate.matches(&row)? {
                    out.push(row, tag);
                }
            }
            if !out.is_empty() {
                return Ok(Some(out));
            }
        }
        Ok(None)
    }
}

struct ProjectOp<'a, P: TagPolicy> {
    /// Output expressions with column names bound once.
    exprs: Vec<CompiledExpr>,
    input: BoxOp<'a, P>,
}

impl<P: TagPolicy> BatchOp<P> for ProjectOp<'_, P> {
    fn next_batch(&mut self, stats: &mut ExecStats) -> Result<Option<Batch<P::Tag>>, ExecError> {
        let Some(batch) = self.input.next_batch(stats)? else {
            return Ok(None);
        };
        let mut out = Batch::with_capacity(batch.len());
        for (row, tag) in batch.rows.into_iter().zip(batch.tags) {
            let mut new_row = Vec::with_capacity(self.exprs.len());
            for e in &self.exprs {
                new_row.push(e.eval(&row)?);
            }
            out.push(new_row, tag);
        }
        Ok(Some(out))
    }
}

struct LimitOp<'a, P: TagPolicy> {
    remaining: usize,
    input: BoxOp<'a, P>,
}

impl<P: TagPolicy> BatchOp<P> for LimitOp<'_, P> {
    fn next_batch(&mut self, stats: &mut ExecStats) -> Result<Option<Batch<P::Tag>>, ExecError> {
        if self.remaining == 0 {
            return Ok(None);
        }
        let Some(mut batch) = self.input.next_batch(stats)? else {
            return Ok(None);
        };
        if batch.len() > self.remaining {
            batch.rows.truncate(self.remaining);
            batch.tags.truncate(self.remaining);
        }
        self.remaining -= batch.len();
        Ok(Some(batch))
    }
}

struct AppendOp<'a, P: TagPolicy> {
    left: Option<BoxOp<'a, P>>,
    right: Option<BoxOp<'a, P>>,
}

impl<P: TagPolicy> BatchOp<P> for AppendOp<'_, P> {
    fn next_batch(&mut self, stats: &mut ExecStats) -> Result<Option<Batch<P::Tag>>, ExecError> {
        if let Some(left) = &mut self.left {
            if let Some(batch) = left.next_batch(stats)? {
                return Ok(Some(batch));
            }
            self.left = None;
        }
        if let Some(right) = &mut self.right {
            if let Some(batch) = right.next_batch(stats)? {
                return Ok(Some(batch));
            }
            self.right = None;
        }
        Ok(None)
    }
}

// -- blocking operators -----------------------------------------------------

/// Buffered output of a blocking operator, drained in `BATCH_SIZE` chunks.
struct Emitter<T> {
    rows: std::vec::IntoIter<(Row, T)>,
    filled: bool,
}

impl<T> Emitter<T> {
    fn new() -> Self {
        Emitter {
            rows: Vec::new().into_iter(),
            filled: false,
        }
    }

    fn fill(&mut self, rows: Vec<(Row, T)>) {
        self.rows = rows.into_iter();
        self.filled = true;
    }

    fn emit(&mut self) -> Option<Batch<T>> {
        let mut batch = Batch::with_capacity(BATCH_SIZE);
        for (row, tag) in self.rows.by_ref().take(BATCH_SIZE) {
            batch.push(row, tag);
        }
        (!batch.is_empty()).then_some(batch)
    }
}

// -- grouping ---------------------------------------------------------------

/// The multiplier of the multiply-rotate step (FxHash's).
const HASH_MUL: u64 = 0x517c_c1b7_2722_0a95;

/// Multiply-rotate hashing of borrowed key values, started from a seed drawn
/// from [`RandomState`] once per operator. `Value`'s `Hash` feeds it the
/// value's type tag and payload, so `Int(3)` and `Float(3.0)` hash alike.
///
/// A multiplicative step alone mixes poorly: its low bits depend only on the
/// input's low bits, and its high bits repeat for small keys that differ by
/// a multiple of 22 (the multiplier is close to 7/22 of 2^64), so runs of
/// integer keys would fill runs of slots. `finish` ends with murmur3's
/// `fmix64` avalanche, which makes every output bit depend on every state
/// bit: [`GroupTable`] can take its slots from the high bits and the hash
/// join's map from the low bits.
#[derive(Clone, Copy)]
struct KeyHasher(u64);

impl KeyHasher {
    fn seeded() -> Self {
        KeyHasher(RandomState::new().build_hasher().finish())
    }

    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(HASH_MUL);
    }

    /// The hash of a key given as borrowed values.
    #[inline]
    fn hash_key<'v>(mut self, values: impl IntoIterator<Item = &'v Value>) -> u64 {
        for v in values {
            v.hash(&mut self);
        }
        self.finish()
    }
}

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        self.add(bytes.len() as u64);
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().expect("eight bytes")));
        }
        let mut tail = [0u8; 8];
        tail[..words.remainder().len()].copy_from_slice(words.remainder());
        self.add(u64::from_le_bytes(tail));
    }

    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    fn write_i64(&mut self, i: i64) {
        self.add(i as u64);
    }

    fn finish(&self) -> u64 {
        let mut h = self.0;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^ (h >> 33)
    }
}

/// Hashes a `u64` to itself: the hasher of maps keyed by [`KeyHasher`]
/// hashes, which are mixed already.
#[derive(Default)]
struct PassThrough(u64);

impl Hasher for PassThrough {
    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("pass-through maps are keyed by u64 hashes")
    }

    fn write_u64(&mut self, h: u64) {
        self.0 = h;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Group keys mapped to dense group ids in first-seen order — the one
/// grouping table of aggregation and duplicate elimination.
///
/// The keys are stored back to back, `width` values per group. A slot holds
/// the top half of the key's [`KeyHasher`] hash above `group id + 1` (0 is
/// empty); slots are probed linearly from the hash's top bits, and a slot
/// matches when its hash half and then every key value are equal (`Value`'s
/// exact `Eq`: distinct 64-bit integers never conflate, and NULL equals
/// NULL). A group [`GroupTable::append`]s takes no slot. The table stays at
/// most half full.
struct GroupTable {
    hasher: KeyHasher,
    width: usize,
    keys: Vec<Value>,
    groups: usize,
    /// The groups that hold a slot.
    hashed: usize,
    slots: Vec<u64>,
    /// `64 - log2(slots.len())`: a hash's first slot is `hash >> shift`.
    shift: u32,
    /// Hash every key to 0, so all keys share one probe chain.
    #[cfg(test)]
    collide: bool,
}

/// The hash half of a [`GroupTable`] slot.
const HASH_HALF: u64 = !0 << 32;

impl GroupTable {
    fn new(width: usize) -> Self {
        GroupTable {
            hasher: KeyHasher::seeded(),
            width,
            keys: Vec::new(),
            groups: 0,
            hashed: 0,
            slots: vec![0; 16],
            shift: 60,
            #[cfg(test)]
            collide: false,
        }
    }

    fn len(&self) -> usize {
        self.groups
    }

    fn key(&self, g: usize) -> &[Value] {
        &self.keys[g * self.width..(g + 1) * self.width]
    }

    /// The group of the key `key_idx` selects from `row`, and whether this
    /// call created it (cloning the key in).
    #[inline]
    fn find_or_insert(&mut self, row: &[Value], key_idx: &[usize]) -> (usize, bool) {
        let h = self.hasher.hash_key(key_idx.iter().map(|&i| &row[i]));
        #[cfg(test)]
        let h = if self.collide { 0 } else { h };
        let mask = self.slots.len() - 1;
        let mut s = (h >> self.shift) as usize;
        while self.slots[s] != 0 {
            let slot = self.slots[s];
            let g = (slot & !HASH_HALF) as usize - 1;
            if slot & HASH_HALF == h & HASH_HALF
                && self.key(g).iter().zip(key_idx).all(|(k, &i)| row[i] == *k)
            {
                return (g, false);
            }
            s = (s + 1) & mask;
        }
        let g = self.groups;
        let id = u32::try_from(g + 1).expect("fewer than 2^32 groups");
        self.slots[s] = h & HASH_HALF | u64::from(id);
        self.groups += 1;
        self.hashed += 1;
        self.keys.extend(key_idx.iter().map(|&i| row[i].clone()));
        if 2 * self.hashed > self.slots.len() {
            self.grow();
        }
        (g, true)
    }

    /// A new group for the one-value `key`, appended without a slot, so no
    /// lookup ever finds it: the caller finds it by other means and never
    /// looks up a key equal to it.
    fn append(&mut self, key: Value) -> usize {
        debug_assert_eq!(self.width, 1);
        self.keys.push(key);
        self.groups += 1;
        self.groups - 1
    }

    /// Double the slots and re-place every group by its hash half, which
    /// holds every bit a first slot is taken from.
    fn grow(&mut self) {
        assert!(
            self.shift > 32,
            "a group table holds fewer than 2^31 groups"
        );
        let doubled = vec![0; 2 * self.slots.len()];
        let old = std::mem::replace(&mut self.slots, doubled);
        self.shift -= 1;
        let mask = self.slots.len() - 1;
        for slot in old.into_iter().filter(|&slot| slot != 0) {
            let mut s = (slot >> self.shift) as usize;
            while self.slots[s] != 0 {
                s = (s + 1) & mask;
            }
            self.slots[s] = slot;
        }
    }

    /// The group keys, in group order, as rows.
    fn into_rows(self) -> impl Iterator<Item = Row> {
        let (groups, width) = (self.groups, self.width);
        let mut keys = self.keys.into_iter();
        (0..groups).map(move |_| keys.by_ref().take(width).collect())
    }
}

/// One aggregate's running state, one entry per group: only what its
/// function's result is computed from.
enum AggAcc {
    /// `COUNT` is the group's row count ([`GroupFold::counts`]).
    Count,
    Sum(Vec<SumAcc>),
    Avg(Vec<AvgAcc>),
    Min(Vec<Option<Value>>),
    Max(Vec<Option<Value>>),
}

/// A `SUM`: an `Int` while every non-NULL input is one, else a `Float`.
#[derive(Clone, Copy, Default)]
struct SumAcc {
    non_null: i64,
    ints: i64,
    /// Every numeric input as `f64`, added in row order.
    floats: f64,
    saw_non_int: bool,
}

/// An `AVG`: the `f64` sum of the numeric inputs over the non-NULL count.
#[derive(Clone, Copy, Default)]
struct AvgAcc {
    non_null: i64,
    sum: f64,
}

/// `slot` becomes `v` when empty or when `v` compares `wins` against it.
#[inline]
fn replace_if(slot: &mut Option<Value>, v: &Value, wins: Ordering) -> bool {
    let replace = slot.as_ref().is_none_or(|m| v.cmp(m) == wins);
    if replace {
        *slot = Some(v.clone());
    }
    replace
}

impl AggAcc {
    fn new(func: AggFunc) -> Self {
        match func {
            AggFunc::Count => AggAcc::Count,
            AggFunc::Sum => AggAcc::Sum(Vec::new()),
            AggFunc::Avg => AggAcc::Avg(Vec::new()),
            AggFunc::Min => AggAcc::Min(Vec::new()),
            AggFunc::Max => AggAcc::Max(Vec::new()),
        }
    }

    fn push_group(&mut self) {
        match self {
            AggAcc::Count => {}
            AggAcc::Sum(s) => s.push(SumAcc::default()),
            AggAcc::Avg(a) => a.push(AvgAcc::default()),
            AggAcc::Min(m) | AggAcc::Max(m) => m.push(None),
        }
    }

    /// Fold the non-NULL input `v` into group `g`; true when `v` became the
    /// group's `MIN` / `MAX`.
    #[inline]
    fn update(&mut self, g: usize, v: &Value) -> bool {
        match self {
            AggAcc::Count => false,
            AggAcc::Sum(s) => {
                let s = &mut s[g];
                s.non_null += 1;
                if let Some(f) = v.as_f64() {
                    s.floats += f;
                }
                match (v, s.saw_non_int) {
                    (Value::Int(i), false) => s.ints += i,
                    _ => s.saw_non_int = true,
                }
                false
            }
            AggAcc::Avg(a) => {
                let a = &mut a[g];
                a.non_null += 1;
                if let Some(f) = v.as_f64() {
                    a.sum += f;
                }
                false
            }
            AggAcc::Min(m) => replace_if(&mut m[g], v, Ordering::Less),
            AggAcc::Max(m) => replace_if(&mut m[g], v, Ordering::Greater),
        }
    }

    /// Group `g`'s result (taking a `MIN` / `MAX` out).
    fn finish(&mut self, g: usize, count: i64) -> Value {
        match self {
            AggAcc::Count => Value::Int(count),
            AggAcc::Sum(s) => match s[g] {
                SumAcc { non_null: 0, .. } => Value::Null,
                SumAcc {
                    saw_non_int: false,
                    ints,
                    ..
                } => Value::Int(ints),
                SumAcc { floats, .. } => Value::Float(floats),
            },
            AggAcc::Avg(a) => match a[g] {
                AvgAcc { non_null: 0, .. } => Value::Null,
                AvgAcc { non_null, sum } => Value::Float(sum / non_null as f64),
            },
            AggAcc::Min(m) | AggAcc::Max(m) => m[g].take().unwrap_or(Value::Null),
        }
    }
}

/// The min/max narrowing of rule r3 applies when the aggregation computes a
/// single min or max.
fn narrows_to_witness<P: TagPolicy>(policy: &P, aggregates: &[AggExpr]) -> bool {
    policy.minmax_narrowing()
        && aggregates.len() == 1
        && matches!(aggregates[0].func, AggFunc::Min | AggFunc::Max)
}

/// The grouping step of [`HashAggregateOp`] and of both arms of
/// [`AggScanOp`]: a [`GroupTable`] plus struct-of-arrays accumulators
/// indexed by group id. The global aggregate (no group keys) is group 0.
///
/// Per group it keeps the row count, one [`AggAcc`] entry per aggregate and
/// the group's tag: the merge of every member's tag into the empty tag or,
/// under min/max narrowing ([`narrows_to_witness`]), the tag of the first
/// row holding the extremal value — the first member's while every input is
/// NULL, since any single member reproduces a `(key, NULL)` output.
/// [`GroupFold::finish`] decides the aggregate's HAVING on each finished
/// group, so a rejected group is never allocated as a row and its tag is
/// dropped with it.
struct GroupFold<'a, P: TagPolicy> {
    policy: &'a P,
    narrow: bool,
    table: GroupTable,
    counts: Vec<i64>,
    aggs: Vec<AggAcc>,
    tags: Vec<P::Tag>,
}

impl<'a, P: TagPolicy> GroupFold<'a, P> {
    fn new(policy: &'a P, aggregates: &[AggExpr], key_width: usize) -> Self {
        GroupFold {
            policy,
            narrow: narrows_to_witness(policy, aggregates),
            table: GroupTable::new(key_width),
            counts: Vec::new(),
            aggs: aggregates.iter().map(|a| AggAcc::new(a.func)).collect(),
            tags: Vec::new(),
        }
    }

    fn push_group(&mut self, tag: P::Tag) {
        self.counts.push(0);
        for acc in &mut self.aggs {
            acc.push_group();
        }
        self.tags.push(tag);
    }

    /// Fold one input row with its tag into its group. `group_idx` locates
    /// the group key in `row`; `agg_input(ai)` reads the input value of
    /// aggregate `ai` — evaluated from an expression or borrowed from a
    /// column, the one thing the callers differ in. Every input is read, so
    /// an input that errors does so whichever function consumes it.
    #[inline]
    fn fold<V: Borrow<Value>>(
        &mut self,
        row: &Row,
        tag: &P::Tag,
        group_idx: &[usize],
        mut agg_input: impl FnMut(usize) -> Result<V, ExecError>,
    ) -> Result<(), ExecError> {
        let (g, new) = self.table.find_or_insert(row, group_idx);
        if new {
            let seed = if self.narrow {
                tag.clone()
            } else {
                self.policy.empty_tag()
            };
            self.push_group(seed);
        }
        self.counts[g] += 1;
        for (ai, acc) in self.aggs.iter_mut().enumerate() {
            let v = agg_input(ai)?;
            let v = v.borrow();
            if !v.is_null() && acc.update(g, v) && self.narrow {
                self.tags[g] = tag.clone();
            }
        }
        if !self.narrow {
            self.policy.merge_tags(&mut self.tags[g], tag);
        }
        Ok(())
    }

    /// The group of the key `key_idx` selects from `row`, created with the
    /// empty tag on first sight: the grouping step of the column-at-a-time
    /// fold, which only runs where tags are trivial.
    fn group(&mut self, row: &[Value], key_idx: &[usize]) -> usize {
        let (g, new) = self.table.find_or_insert(row, key_idx);
        if new {
            self.push_group(self.policy.empty_tag());
        }
        g
    }

    /// A new group, with the empty tag, for a direct-mapped key's in-span
    /// value `key` ([`GroupTable::append`]).
    fn append_group(&mut self, key: i64) -> usize {
        let g = self.table.append(Value::Int(key));
        self.push_group(self.policy.empty_tag());
        g
    }

    /// The output rows — key values then aggregate results — of the groups
    /// `having` keeps, in group order. A global aggregation over no rows
    /// still produces one row (`COUNT` 0, every other aggregate NULL), as in
    /// SQL. Each group is built into one reused row and tested there, so
    /// only the groups that pass are allocated; a `having` that fails to
    /// evaluate fails on the first group, as a filter above would.
    fn finish(mut self, having: Option<&CompiledExpr>) -> Result<Vec<(Row, P::Tag)>, ExecError> {
        if self.table.len() == 0 && self.table.width == 0 {
            self.group(&[], &[]);
        }
        let (width, groups) = (self.table.width + self.aggs.len(), self.table.len());
        let mut out = Vec::with_capacity(if having.is_some() { 0 } else { groups });
        let mut keys = self.table.keys.into_iter();
        let mut row = Vec::with_capacity(width);
        for (g, tag) in self.tags.into_iter().enumerate() {
            row.clear();
            row.extend(keys.by_ref().take(self.table.width));
            row.extend(
                self.aggs
                    .iter_mut()
                    .map(|acc| acc.finish(g, self.counts[g])),
            );
            if having.map_or(Ok(true), |h| h.matches(&row))? {
                out.push((std::mem::replace(&mut row, Vec::with_capacity(width)), tag));
            }
        }
        Ok(out)
    }
}

struct HashAggregateOp<'a, P: TagPolicy> {
    group_idx: Vec<usize>,
    aggregates: &'a [AggExpr],
    having: Option<CompiledExpr>,
    /// Aggregate input expressions, bound once against the input schema.
    agg_inputs: Vec<CompiledExpr>,
    policy: &'a P,
    input: Option<BoxOp<'a, P>>,
    out: Emitter<P::Tag>,
}

impl<P: TagPolicy> HashAggregateOp<'_, P> {
    fn drain_input(&mut self, stats: &mut ExecStats) -> Result<(), ExecError> {
        let mut input = self.input.take().expect("aggregate drained once");
        let mut fold = GroupFold::new(self.policy, self.aggregates, self.group_idx.len());
        while let Some(batch) = input.next_batch(stats)? {
            stats.intermediate_rows += batch.len() as u64;
            for (row, tag) in batch.rows.iter().zip(&batch.tags) {
                fold.fold(row, tag, &self.group_idx, |ai| {
                    self.agg_inputs[ai].eval(row)
                })?;
            }
        }
        self.out.fill(fold.finish(self.having.as_ref())?);
        Ok(())
    }
}

impl<P: TagPolicy> BatchOp<P> for HashAggregateOp<'_, P> {
    fn next_batch(&mut self, stats: &mut ExecStats) -> Result<Option<Batch<P::Tag>>, ExecError> {
        if !self.out.filled {
            self.drain_input(stats)?;
        }
        Ok(self.out.emit())
    }
}

// -- scan→aggregate pushdown ------------------------------------------------

/// Try to collapse a `HashAggregate` sitting directly above a base-table
/// scan into the fused [`AggScanOp`], which aggregates straight off the
/// table's columnar chunks and never materializes `Batch` rows. Every scan
/// source reaches it the same way, as chunk-aligned pieces each with the
/// rows it selects before the filter: all rows of a sequential or zone-map
/// segment, the probed rows of an index probe ([`masked_pieces`]).
///
/// Returns `Ok(None)` — keeping the generic scan + aggregate operator pair —
/// whenever any semantic detail could make the pushdown observable beyond
/// speed: an aggregate input that is not a plain base-table column
/// (expression inputs keep the generic operator's evaluation and error
/// behavior). All declining checks run *before*
/// [`resolve_scan`] so a declined attempt records no stats.
///
/// Counters: `agg_pushdown_blocks` counts pieces and `vectorized_blocks`
/// the pieces a filter was evaluated over, for every source; an index probe
/// counts in both `index_scans` and `vectorized_scans`. `rows_scanned` is
/// what [`resolve_scan`] counts, and `intermediate_rows` the selected rows —
/// what the generic aggregate would have counted batch-wise.
fn try_agg_pushdown<'a, P: TagPolicy>(
    db: &'a Database,
    input: &'a PhysicalPlan,
    group_idx: &[usize],
    aggregates: &'a [AggExpr],
    policy: &'a P,
    stats: &mut ExecStats,
) -> Result<Option<AggScanOp<'a, P>>, ExecError> {
    let Some((table_name, _)) = input.op.scan() else {
        return Ok(None);
    };
    let table = db.table(table_name)?;
    let mut agg_cols = Vec::with_capacity(aggregates.len());
    for a in aggregates {
        match &a.input {
            Expr::Column(name) => match table.schema().index_of(name) {
                Some(i) => agg_cols.push(i),
                None => return Ok(None),
            },
            _ => return Ok(None),
        }
    }
    // Committed: resolve the scan, with the accounting every scan gets.
    let (scan, pieces) = resolve_scan(table, &input.op, stats)?;
    Ok(Some(AggScanOp {
        scan,
        policy,
        aggregates,
        having: None,
        group_idx: group_idx.to_vec(),
        agg_cols,
        pieces,
        out: Emitter::new(),
    }))
}

/// Fused scan + aggregate ([`try_agg_pushdown`]). Each piece's pushed-down
/// filter is evaluated by the chunk kernels into a selection bitmap, ANDed
/// with the rows the source selects, and the selected rows are aggregated
/// without ever building `Batch` rows. Everything lands in the
/// [`GroupFold`] that [`HashAggregateOp`] uses, which also decides the
/// HAVING, so the output — rows, group order and capture tags — is
/// byte-identical to scanning, hash-aggregating, then filtering. The
/// selected rows are folded one of two ways:
///
/// * **column-at-a-time** ([`ColumnFold`]) when tags are trivial and every
///   group key and every aggregate input read has a numeric layout in every
///   chunk: each piece's key and input columns are decoded once, each
///   selected row gets a group id, and the inputs fold in row order;
/// * **row-at-a-time** on *borrowed* rows otherwise — string or mixed-type
///   columns, and capture, whose tags are seeded per row.
struct AggScanOp<'a, P: TagPolicy> {
    scan: PieceScan<'a>,
    policy: &'a P,
    aggregates: &'a [AggExpr],
    having: Option<CompiledExpr>,
    /// Table-schema indexes of the group-by keys.
    group_idx: Vec<usize>,
    /// Table-schema index of each aggregate's input column.
    agg_cols: Vec<usize>,
    /// The candidate rows ([`masked_pieces`]).
    pieces: Vec<Piece>,
    out: Emitter<P::Tag>,
}

/// Layout class of a column over every chunk of the table.
#[derive(Clone, Copy, PartialEq)]
enum NumShape {
    /// Every chunk stores the column as integers (plain or bit-packed).
    Ints,
    /// Every chunk stores the column as integers or plain floats, at least
    /// one as floats.
    Numbers,
}

/// The column's [`NumShape`], or `None` when some chunk holds it in a
/// non-numeric layout (strings, booleans, mixed types, all NULL) — those
/// columns take the row-at-a-time fold.
fn numeric_column_shape(chunks: &ColumnarChunks, c: usize) -> Option<NumShape> {
    let mut shape = NumShape::Ints;
    for chunk in chunks.chunks() {
        match chunk.column(c).data() {
            ColumnData::Int(_) | ColumnData::PackedInt(_) => {}
            ColumnData::Float(_) => shape = NumShape::Numbers,
            _ => return None,
        }
    }
    Some(shape)
}

impl<P: TagPolicy> AggScanOp<'_, P> {
    fn drain(&mut self, stats: &mut ExecStats) -> Result<(), ExecError> {
        let table = self.scan.table;
        check_scan_epoch(table, self.scan.epoch)?;
        let mut fold = GroupFold::new(self.policy, self.aggregates, self.group_idx.len());
        let mut columns = self.column_fold();
        let (name, schema) = (table.name(), table.schema());
        for piece in std::mem::take(&mut self.pieces) {
            let (lo, hi) = (piece.lo, piece.hi());
            let (chunk, sel) = self.scan.select(piece, stats)?;
            stats.agg_pushdown_blocks += 1;
            stats.intermediate_rows += sel.count() as u64;
            match &mut columns {
                Some(columns) => columns.fold_piece(&mut fold, chunk, &sel, lo - chunk.start),
                None => {
                    let rows = piece_rows(table, lo, hi);
                    for j in sel.iter_ones() {
                        let row = &rows[j];
                        let tag = self.policy.seed_tag(name, schema, row, (lo + j) as u32);
                        fold.fold(row, &tag, &self.group_idx, |ai| Ok(&row[self.agg_cols[ai]]))?;
                    }
                }
            }
        }
        self.out.fill(fold.finish(self.having.as_ref())?);
        Ok(())
    }

    /// The column-at-a-time fold of this scan, when it applies: trivial
    /// tags, and a numeric layout in every chunk for every group key and
    /// every aggregate input that is read (`COUNT` reads none).
    fn column_fold(&self) -> Option<ColumnFold> {
        if !self.policy.tags_are_trivial() {
            return None;
        }
        let shape = |c: usize| numeric_column_shape(&self.scan.chunks, c);
        let mut inputs = Vec::with_capacity(self.aggregates.len());
        for (a, &c) in self.aggregates.iter().zip(&self.agg_cols) {
            inputs.push(match a.func {
                AggFunc::Count => Input::Count,
                _ => {
                    shape(c)?;
                    Input::Cells(c)
                }
            });
        }
        let keys = match self.group_idx[..] {
            [] => GroupKeys::Global,
            [c] if shape(c)? == NumShape::Ints => self
                .direct_keys(c)
                .unwrap_or(GroupKeys::Hashed { cols: vec![c] }),
            ref cols => {
                for &c in cols {
                    shape(c)?;
                }
                GroupKeys::Hashed {
                    cols: cols.to_vec(),
                }
            }
        };
        Some(ColumnFold {
            keys,
            inputs,
            gids: Vec::new(),
            cells: Vec::new(),
            ints: Vec::new(),
        })
    }

    /// Direct-mapped grouping on integer column `c`, when the table's
    /// statistics bound its values to a span of at most [`DIRECT_MAP_ROWS`]
    /// times the rows the scan's source selects: the slots are allocated
    /// and zeroed per scan, which a selective probe of a wide key would not
    /// repay.
    fn direct_keys(&self, c: usize) -> Option<GroupKeys> {
        let table = self.scan.table;
        let stats = table.stats();
        let column = stats.column(&table.schema().columns()[c].name)?;
        let (Some(Value::Int(low)), Some(Value::Int(high))) = (&column.min, &column.max) else {
            return None;
        };
        let width = high.wrapping_sub(*low) as u64;
        let candidates = selected_rows(&self.pieces);
        if width >= (DIRECT_MAP_ROWS * candidates) as u64 {
            return None;
        }
        Some(GroupKeys::Direct {
            col: c,
            low: *low,
            slots: vec![0; width as usize + 1],
        })
    }
}

/// A single integer group key is direct-mapped when its values span at most
/// this many times the scan's candidate rows (a `u32` slot per value).
const DIRECT_MAP_ROWS: usize = 2;

/// How an aggregate of a [`ColumnFold`] reads its input column.
enum Input {
    /// `COUNT` is the group's row count: nothing to read.
    Count,
    /// Every selected cell, in row order, into its row's group.
    Cells(usize),
}

/// How a [`ColumnFold`] finds each selected row's group.
enum GroupKeys {
    /// No group keys: every row belongs to the global group.
    Global,
    /// One integer key whose values the table statistics bound to
    /// `low ..= low + slots.len() - 1`: slot `v - low` holds the group id
    /// plus one (0 until the value is first seen). A value's first row
    /// appends its group to the group table without hashing it; the NULL
    /// key, and a value outside the span should the statistics ever miss
    /// one, are looked up in the table on every row, and neither can equal
    /// an in-span value. The keys are read from the chunk's decoded `i64`
    /// window, and the null bitmap only where the chunk column has one.
    Direct {
        col: usize,
        low: i64,
        slots: Vec<u32>,
    },
    /// Any other numeric keys: each row's key values are decoded and looked
    /// up in the group table.
    Hashed { cols: Vec<usize> },
}

/// The column-at-a-time fold of an [`AggScanOp`]. Group ids come from the
/// [`GroupFold`]'s own table in first-seen order (a direct-mapped key only
/// caches them), and every input folds in row order through
/// [`AggAcc::update`], so rows, group order and results equal the
/// row-at-a-time fold's.
struct ColumnFold {
    keys: GroupKeys,
    /// One per aggregate.
    inputs: Vec<Input>,
    /// The group id of each selected row of the current piece.
    gids: Vec<u32>,
    /// The current piece's decoded key cells, one column after another.
    cells: Vec<Value>,
    /// The integer window [`for_each_cell`] decodes a packed column into.
    ints: Vec<i64>,
}

impl ColumnFold {
    /// Fold the rows `sel` selects from the window of `chunk` that starts
    /// at chunk row `base`.
    fn fold_piece<P: TagPolicy>(
        &mut self,
        fold: &mut GroupFold<'_, P>,
        chunk: &ColumnarChunk,
        sel: &SelBitmap,
        base: usize,
    ) {
        let selected = sel.count();
        if selected == 0 {
            return;
        }
        let (gids, ints) = (&mut self.gids, &mut self.ints);
        gids.clear();
        // Only inputs read cell by cell need each row's group.
        let per_row = self.inputs.iter().any(|i| matches!(i, Input::Cells(_)));
        match &mut self.keys {
            GroupKeys::Global => {
                let g = fold.group(&[], &[]);
                fold.counts[g] += selected as i64;
                gids.resize(selected, g as u32);
            }
            GroupKeys::Direct { col, low, slots } => {
                let col = chunk.column(*col);
                let xs = int_window(col, base, sel.len(), ints)
                    .expect("a direct-mapped key is stored as integers");
                let nullable = col.has_nulls();
                for j in sel.iter_ones() {
                    let g = if nullable && col.is_null(base + j) {
                        fold.group(&[Value::Null], &[0])
                    } else {
                        let x = xs[j];
                        match slots.get_mut(x.wrapping_sub(*low) as usize) {
                            Some(&mut id) if id != 0 => id as usize - 1,
                            Some(id) => {
                                let g = fold.append_group(x);
                                *id = u32::try_from(g + 1).expect("fewer than 2^32 groups");
                                g
                            }
                            None => fold.group(&[Value::Int(x)], &[0]),
                        }
                    };
                    fold.counts[g] += 1;
                    if per_row {
                        gids.push(g as u32);
                    }
                }
            }
            GroupKeys::Hashed { cols } => {
                let cells = &mut self.cells;
                cells.clear();
                for &c in cols.iter() {
                    for_each_cell(chunk.column(c), sel, base, ints, |v| cells.push(v));
                }
                // Row k's key is cell k of each column.
                let mut key: Vec<usize> = (0..cols.len()).map(|w| w * selected).collect();
                for _ in 0..selected {
                    let g = fold.group(cells, &key);
                    fold.counts[g] += 1;
                    if per_row {
                        gids.push(g as u32);
                    }
                    key.iter_mut().for_each(|i| *i += 1);
                }
            }
        }
        for (acc, input) in fold.aggs.iter_mut().zip(&self.inputs) {
            match *input {
                Input::Count => {}
                Input::Cells(c) => {
                    let mut groups = gids.iter();
                    for_each_cell(chunk.column(c), sel, base, ints, |v| {
                        let g = *groups.next().expect("one group per selected row") as usize;
                        if !v.is_null() {
                            acc.update(g, &v);
                        }
                    });
                }
            }
        }
    }
}

/// Visit the cells `sel` selects from numeric chunk column `col`, over the
/// window starting at chunk row `base`, in row order — NULL cells as
/// [`Value::Null`]. An integer window is read as plain `i64`s, a packed one
/// decoded into `ints` once ([`int_window`]); a NULL cell's placeholder (0,
/// or a packed frame's base) is decoded with the rest but never visited.
#[inline]
fn for_each_cell(
    col: &ColumnVector,
    sel: &SelBitmap,
    base: usize,
    ints: &mut Vec<i64>,
    mut f: impl FnMut(Value),
) {
    #[inline(always)]
    fn visit(
        col: &ColumnVector,
        sel: &SelBitmap,
        base: usize,
        mut cell: impl FnMut(usize) -> Value,
        f: &mut impl FnMut(Value),
    ) {
        for j in sel.iter_ones() {
            f(if col.is_null(base + j) {
                Value::Null
            } else {
                cell(j)
            });
        }
    }
    match (col.data(), int_window(col, base, sel.len(), ints)) {
        (_, Some(xs)) => visit(col, sel, base, |j| Value::Int(xs[j]), &mut f),
        (ColumnData::Float(xs), None) => {
            visit(col, sel, base, |j| Value::Float(xs[base + j]), &mut f)
        }
        _ => unreachable!("the column-at-a-time fold reads numeric columns only"),
    }
}

impl<P: TagPolicy> BatchOp<P> for AggScanOp<'_, P> {
    fn next_batch(&mut self, stats: &mut ExecStats) -> Result<Option<Batch<P::Tag>>, ExecError> {
        if !self.out.filled {
            self.drain(stats)?;
        }
        Ok(self.out.emit())
    }
}

/// Hash equi-join: a table over the build (right) rows, probed by the left
/// rows in their order; every output row is a probe row followed by one
/// matching build row, in build order, and its tag merges both.
///
/// When the build input is a base-table scan, the join runs its probe side
/// first and narrows the scan to what can match — semi-join reduction at run
/// time, through the access paths sketches use. It buffers the probe
/// batches and collects their distinct non-NULL keys, then resolves the
/// build scan with one more conjunct, `right_col IN (keys)`, re-lowered by
/// [`lower_scan`] with the plan's profile. Two rules decide, each on what
/// the join observes:
///
/// * a probe side without a non-NULL key resolves no build scan at all;
/// * keys are pushed only while the probe side has fewer rows than the build
///   scan's source selects. Past that point the join stops buffering and
///   builds from the scan as planned, so the buffered rows stay fewer than
///   the build side's own.
///
/// The key list is exact membership under `Value`'s total order, which is
/// the join's equality, and every key is still compared when probing. Build
/// rows keep their table order and probe batches theirs, so the output rows,
/// their order and their tags are the same either way: a build row the list
/// removes matches no probe row.
///
/// Any other build input is built before the probe side runs.
struct HashJoinOp<'a, P: TagPolicy> {
    /// The probe input, until it runs dry.
    left: Option<BoxOp<'a, P>>,
    /// The build input, until the table is built.
    right: Option<BuildInput<'a, P>>,
    /// Probe batches drained before the build scan was resolved, probed
    /// before the rest of the probe input.
    probed: std::vec::IntoIter<Batch<P::Tag>>,
    li: usize,
    ri: usize,
    policy: &'a P,
    hasher: KeyHasher,
    /// Build-side index keyed by the 64-bit key hash; the key itself lives
    /// only inside `build_rows` (no per-row key clone), so both build and
    /// probe compare candidates against the stored row's key column.
    build: HashMap<u64, Vec<usize>, BuildHasherDefault<PassThrough>>,
    build_rows: Vec<(Row, P::Tag)>,
}

/// The build input of a [`HashJoinOp`].
enum BuildInput<'a, P: TagPolicy> {
    /// A base-table scan, resolved once the probe side has run.
    Scan(BuildScan<'a, P>),
    /// Any other operator.
    Op(BoxOp<'a, P>),
}

/// A hash join's build scan before it is resolved.
struct BuildScan<'a, P: TagPolicy> {
    builder: OpBuilder<'a, P>,
    plan: &'a PhysicalPlan,
    /// The scan's pre-order id: its rows, time and rows scanned are
    /// recorded in its own slot.
    id: usize,
    /// The build side's join column.
    column: &'a str,
    profile: EngineProfile,
}

impl<'a, P: TagPolicy> BuildScan<'a, P> {
    /// Drain `probe` into `probed` while it has fewer rows than the scan's
    /// source selects, then resolve the scan: narrowed to the probe side's
    /// keys (its column `key`) when the probe side ran dry first (`probe`
    /// is then `None`), as planned otherwise. `None` when no probe key can
    /// match.
    fn resolve(
        self,
        probe: &mut Option<BoxOp<'a, P>>,
        key: usize,
        probed: &mut Vec<Batch<P::Tag>>,
        stats: &mut ExecStats,
    ) -> Result<Option<BoxOp<'a, P>>, ExecError> {
        let (table, filter) = self.plan.op.scan().expect("a build scan is a scan");
        let table = self.builder.db.table(table)?;
        let sw = clock::Stopwatch::start();
        let mut planned_stats = ExecStats::default();
        let (scan, pieces) = resolve_scan(table, &self.plan.op, &mut planned_stats)?;
        let elapsed = sw.elapsed();
        // A filter naming an unknown column or an unbound parameter fails
        // on the rows it is evaluated on: it runs as planned, so the join
        // fails as it did before it narrowed anything.
        let binds = filter.is_none_or(|f| {
            f.params().is_empty()
                && f.columns()
                    .iter()
                    .all(|c| table.schema().index_of(c).is_some())
        });
        let source_rows = if binds { selected_rows(&pieces) } else { 0 };
        let (mut rows, mut keys) = (0, Vec::new());
        while rows < source_rows {
            let input = probe.as_mut().expect("the probe side has not run dry");
            let Some(batch) = input.next_batch(stats)? else {
                *probe = None;
                return self.narrowed(table, keys, elapsed, stats);
            };
            rows += batch.len();
            let batch_keys = batch.rows.iter().map(|row| &row[key]);
            keys.extend(batch_keys.filter(|k| !k.is_null()).cloned());
            probed.push(batch);
        }
        stats.merge(&planned_stats);
        let op = self.builder.scan_op(scan, pieces);
        Ok(Some(self.record(
            op,
            planned_stats.rows_scanned,
            elapsed,
            None,
        )))
    }

    /// The build scan narrowed to the distinct `keys`, or `None` when there
    /// is no key. `elapsed` is the time already spent resolving it.
    fn narrowed(
        &self,
        table: &'a Table,
        mut keys: Vec<Value>,
        elapsed: Duration,
        stats: &mut ExecStats,
    ) -> Result<Option<BoxOp<'a, P>>, ExecError> {
        keys.sort_unstable();
        keys.dedup();
        if keys.is_empty() {
            return Ok(None);
        }
        let sw = clock::Stopwatch::start();
        let count = keys.len();
        // The key list comes first: on a tie with a sketch range it is the
        // one that drives the access path.
        let in_list = Expr::InList {
            columns: vec![self.column.to_string()],
            keys: keys.into_iter().map(|k| vec![k]).collect(),
        };
        let predicate = match self.plan.op.scan() {
            Some((_, Some(filter))) => {
                let rest = filter.conjuncts().into_iter().cloned();
                Expr::And(std::iter::once(in_list).chain(rest).collect())
            }
            _ => in_list,
        };
        let narrowed = lower_scan(table, Some(predicate), self.profile);
        let scanned_before = stats.rows_scanned;
        let (scan, pieces) = resolve_scan(table, &narrowed.op, stats)?;
        stats.join_key_filters += 1;
        let op = self.builder.scan_op(scan, pieces);
        // Every scan label ends in `]`; the key count goes inside it.
        let label = narrowed.op_label();
        let head = label.strip_suffix(']').unwrap_or(&label);
        let label = format!("{head}, {count} join key(s)]");
        Ok(Some(self.record(
            op,
            stats.rows_scanned - scanned_before,
            elapsed + sw.elapsed(),
            Some(label),
        )))
    }

    /// Wrap the resolved scan in the [`AnalyzeOp`] of its own slot, charging
    /// that slot with the resolve's time and rows scanned.
    fn record(
        &self,
        inner: BoxOp<'a, P>,
        rows_scanned: u64,
        elapsed: Duration,
        resolved: Option<String>,
    ) -> BoxOp<'a, P> {
        let metrics = self.builder.metrics;
        let m = &mut metrics.borrow_mut()[self.id];
        m.rows_scanned += rows_scanned;
        m.elapsed += elapsed;
        m.resolved = resolved;
        Box::new(AnalyzeOp {
            inner,
            metrics,
            id: self.id,
        })
    }
}

impl<'a, P: TagPolicy> HashJoinOp<'a, P> {
    /// The next probe batch: the buffered ones first, then the probe input's.
    fn next_probe(&mut self, stats: &mut ExecStats) -> Result<Option<Batch<P::Tag>>, ExecError> {
        if let Some(batch) = self.probed.next() {
            return Ok(Some(batch));
        }
        let Some(left) = &mut self.left else {
            return Ok(None);
        };
        let batch = left.next_batch(stats)?;
        if batch.is_none() {
            self.left = None;
        }
        Ok(batch)
    }
}

impl<P: TagPolicy> BatchOp<P> for HashJoinOp<'_, P> {
    fn next_batch(&mut self, stats: &mut ExecStats) -> Result<Option<Batch<P::Tag>>, ExecError> {
        if let Some(input) = self.right.take() {
            let right = match input {
                BuildInput::Op(op) => Some(op),
                BuildInput::Scan(scan) => {
                    let mut probed = Vec::new();
                    let op = scan.resolve(&mut self.left, self.li, &mut probed, stats)?;
                    self.probed = probed.into_iter();
                    op
                }
            };
            if let Some(mut right) = right {
                while let Some(batch) = right.next_batch(stats)? {
                    stats.intermediate_rows += batch.len() as u64;
                    for (row, tag) in batch.rows.into_iter().zip(batch.tags) {
                        let k = &row[self.ri];
                        if k.is_null() {
                            continue;
                        }
                        let h = self.hasher.hash_key([k]);
                        self.build.entry(h).or_default().push(self.build_rows.len());
                        self.build_rows.push((row, tag));
                    }
                }
            }
        }
        while let Some(batch) = self.next_probe(stats)? {
            stats.intermediate_rows += batch.len() as u64;
            let mut out = Batch::with_capacity(batch.len());
            for (lrow, ltag) in batch.rows.into_iter().zip(batch.tags) {
                let k = &lrow[self.li];
                if k.is_null() {
                    continue;
                }
                let h = self.hasher.hash_key([k]);
                if let Some(candidates) = self.build.get(&h) {
                    for &bi in candidates {
                        let (rrow, rtag) = &self.build_rows[bi];
                        if rrow[self.ri] != *k {
                            continue; // hash collision between distinct keys
                        }
                        let mut row = lrow.clone();
                        row.extend(rrow.iter().cloned());
                        let mut tag = ltag.clone();
                        self.policy.merge_tags(&mut tag, rtag);
                        out.push(row, tag);
                    }
                }
            }
            if !out.is_empty() {
                return Ok(Some(out));
            }
        }
        Ok(None)
    }
}

struct NestedLoopCrossOp<'a, P: TagPolicy> {
    left: BoxOp<'a, P>,
    right: Option<BoxOp<'a, P>>,
    policy: &'a P,
    right_rows: Vec<(Row, P::Tag)>,
    pending: std::collections::VecDeque<(Row, P::Tag)>,
    current: Option<(Row, P::Tag)>,
    right_pos: usize,
    left_count: u64,
    done: bool,
}

impl<'a, P: TagPolicy> NestedLoopCrossOp<'a, P> {
    /// Pull the next left row, tracking the cardinality for the stats.
    fn advance_left(&mut self, stats: &mut ExecStats) -> Result<bool, ExecError> {
        // Left rows are pulled one batch at a time but consumed row-by-row:
        // buffer the current batch in `pending`.
        loop {
            if let Some((row, tag)) = self.pending.pop_front() {
                self.current = Some((row, tag));
                self.right_pos = 0;
                self.left_count += 1;
                return Ok(true);
            }
            match self.left.next_batch(stats)? {
                Some(batch) => {
                    self.pending.extend(batch.rows.into_iter().zip(batch.tags));
                }
                None => return Ok(false),
            }
        }
    }
}

impl<P: TagPolicy> BatchOp<P> for NestedLoopCrossOp<'_, P> {
    fn next_batch(&mut self, stats: &mut ExecStats) -> Result<Option<Batch<P::Tag>>, ExecError> {
        if self.done {
            return Ok(None);
        }
        if let Some(mut right) = self.right.take() {
            while let Some(batch) = right.next_batch(stats)? {
                self.right_rows
                    .extend(batch.rows.into_iter().zip(batch.tags));
            }
        }
        let mut out = Batch::with_capacity(BATCH_SIZE);
        loop {
            if self.current.is_none() && !self.advance_left(stats)? {
                // Count the quadratic blow-up with saturating arithmetic
                // so pathological inputs cannot overflow the counter.
                stats.intermediate_rows = stats
                    .intermediate_rows
                    .saturating_add(self.left_count.saturating_mul(self.right_rows.len() as u64));
                self.done = true;
                break;
            }
            let (lrow, ltag) = self.current.as_ref().expect("set by advance_left");
            while self.right_pos < self.right_rows.len() && out.len() < BATCH_SIZE {
                let (rrow, rtag) = &self.right_rows[self.right_pos];
                let mut row = lrow.clone();
                row.extend(rrow.iter().cloned());
                let mut tag = ltag.clone();
                self.policy.merge_tags(&mut tag, rtag);
                out.push(row, tag);
                self.right_pos += 1;
            }
            if self.right_pos >= self.right_rows.len() {
                self.current = None;
            }
            if out.len() >= BATCH_SIZE {
                break;
            }
        }
        Ok((!out.is_empty()).then_some(out))
    }
}

struct SortOp<'a, P: TagPolicy> {
    key_idx: Vec<(usize, bool)>,
    topk_limit: Option<usize>,
    input: Option<BoxOp<'a, P>>,
    out: Emitter<P::Tag>,
}

impl<P: TagPolicy> BatchOp<P> for SortOp<'_, P> {
    fn next_batch(&mut self, stats: &mut ExecStats) -> Result<Option<Batch<P::Tag>>, ExecError> {
        if let Some(mut input) = self.input.take() {
            let mut rows: Vec<(Row, P::Tag)> = Vec::new();
            while let Some(batch) = input.next_batch(stats)? {
                rows.extend(batch.rows.into_iter().zip(batch.tags));
            }
            if let Some(limit) = self.topk_limit {
                // `(limit, input_rows)` re-validates top-k sketch safety at
                // runtime (footnote 1, Sec. 5 of the paper).
                stats.topk_inputs.push((limit, rows.len() as u64));
            }
            let key_idx = &self.key_idx;
            rows.sort_by(|(a, _), (b, _)| {
                for &(idx, desc) in key_idx {
                    let ord = a[idx].cmp(&b[idx]);
                    let ord = if desc { ord.reverse() } else { ord };
                    if !ord.is_eq() {
                        return ord;
                    }
                }
                // Break ties deterministically using the remaining columns
                // (the paper's top-k operator assumes a total order).
                a.cmp(b)
            });
            self.out.fill(rows);
        }
        Ok(self.out.emit())
    }
}

struct DistinctOp<'a, P: TagPolicy> {
    policy: &'a P,
    /// The input's columns, all of them the key.
    columns: Vec<usize>,
    input: Option<BoxOp<'a, P>>,
    out: Emitter<P::Tag>,
}

impl<P: TagPolicy> BatchOp<P> for DistinctOp<'_, P> {
    fn next_batch(&mut self, stats: &mut ExecStats) -> Result<Option<Batch<P::Tag>>, ExecError> {
        if let Some(mut input) = self.input.take() {
            // The first occurrence of a row keeps its tag and later
            // duplicates merge theirs in.
            let mut table = GroupTable::new(self.columns.len());
            let mut tags: Vec<P::Tag> = Vec::new();
            while let Some(batch) = input.next_batch(stats)? {
                for (row, tag) in batch.rows.iter().zip(batch.tags) {
                    match table.find_or_insert(row, &self.columns) {
                        (_, true) => tags.push(tag),
                        (g, false) => self.policy.merge_tags(&mut tags[g], &tag),
                    }
                }
            }
            self.out.fill(table.into_rows().zip(tags).collect());
        }
        Ok(self.out.emit())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::eval_predicate;
    use crate::lifted::lift_scan_filters;
    use pbds_algebra::{col, lit, SortKey};
    use pbds_storage::TableBuilder;

    fn indexed_db() -> Database {
        let schema = Schema::from_pairs(&[("id", DataType::Int), ("grp", DataType::Int)]);
        let mut b = TableBuilder::new("t", schema);
        b.block_size(100).index("id");
        for i in 0..5_000i64 {
            b.push(vec![Value::Int(i), Value::Int(i % 7)]);
        }
        let mut db = Database::new();
        db.add_table(b.build());
        db
    }

    fn zone_db() -> Database {
        let schema = Schema::from_pairs(&[("id", DataType::Int), ("grp", DataType::Int)]);
        let mut b = TableBuilder::new("t", schema);
        b.block_size(100);
        for i in 0..5_000i64 {
            b.push(vec![Value::Int(i), Value::Int(i % 7)]);
        }
        let mut db = Database::new();
        db.add_table(b.build());
        db
    }

    /// Execute a physical plan, returning relation + stats.
    fn run_physical(db: &Database, physical: &PhysicalPlan) -> (Relation, ExecStats) {
        let mut stats = ExecStats::default();
        let done = execute(db, physical, &NoTag, &mut stats).unwrap();
        (done.relation, stats)
    }

    /// Lower and execute, returning relation + stats.
    fn run(db: &Database, plan: &LogicalPlan, profile: EngineProfile) -> (Relation, ExecStats) {
        run_physical(db, &lower(db, plan, profile).unwrap())
    }

    /// Lower, lift every scan filter into a `Filter` above its scan, and
    /// execute: the oracle the chunk kernels and the fused aggregate are
    /// checked against.
    fn run_lifted(
        db: &Database,
        plan: &LogicalPlan,
        profile: EngineProfile,
    ) -> (Relation, ExecStats) {
        run_physical(db, &lift_scan_filters(&lower(db, plan, profile).unwrap()))
    }

    #[test]
    fn lowering_pushes_selection_into_index_scan() {
        let db = indexed_db();
        let plan = LogicalPlan::scan("t").filter(col("id").between(lit(10), lit(20)));
        let physical = lower(&db, &plan, EngineProfile::Indexed).unwrap();
        assert!(
            matches!(physical.op, PhysOp::IndexRangeScan { .. }),
            "got:\n{}",
            physical.display_tree()
        );
    }

    #[test]
    fn lowering_falls_back_to_zone_map_then_seq() {
        let db = zone_db();
        let plan = LogicalPlan::scan("t").filter(col("id").between(lit(10), lit(20)));
        let physical = lower(&db, &plan, EngineProfile::Indexed).unwrap();
        assert!(matches!(physical.op, PhysOp::ZoneMapScan { .. }));
        // The columnar profile never skips.
        let physical = lower(&db, &plan, EngineProfile::ColumnarScan).unwrap();
        assert!(matches!(
            physical.op,
            PhysOp::SeqScan {
                filter: Some(_),
                ..
            }
        ));
    }

    #[test]
    fn lowering_splits_topk_into_sort_and_limit() {
        let db = indexed_db();
        let plan = LogicalPlan::scan("t").top_k(vec![SortKey::desc("id")], 3);
        let physical = lower(&db, &plan, EngineProfile::Indexed).unwrap();
        let PhysOp::Limit { limit, input } = &physical.op else {
            panic!("expected Limit, got:\n{}", physical.display_tree());
        };
        assert_eq!(*limit, 3);
        assert!(matches!(
            input.op,
            PhysOp::Sort {
                topk_limit: Some(3),
                ..
            }
        ));
    }

    #[test]
    fn selections_above_an_aggregate_become_its_having() {
        let db = indexed_db();
        let count = vec![AggExpr::new(AggFunc::Count, col("id"), "cnt")];
        let plan = LogicalPlan::scan("t")
            .filter(col("id").lt(lit(4_000)))
            .aggregate(vec!["grp"], count)
            .filter(col("cnt").gt(lit(571)))
            .filter(col("grp").ne(lit(2)));
        let physical = lower(&db, &plan, EngineProfile::Indexed).unwrap();
        assert_eq!(
            physical.display_tree(),
            "HashAggregate[group_by=(grp), count(id) AS cnt, \
             having=((grp <> 2) AND (cnt > 571))]\n  \
             IndexRangeScan[t.id, 1 range(s)]\n"
        );
        // Groups 0 to 2 hold 572 of the 4 000 rows, 3 to 6 hold 571.
        let expected: Vec<Row> = [0, 1].map(|g| vec![Value::Int(g), Value::Int(572)]).into();
        for profile in [EngineProfile::Indexed, EngineProfile::ColumnarScan] {
            let (fused, stats) = run(&db, &plan, profile);
            let (lifted, lifted_stats) = run_lifted(&db, &plan, profile);
            assert_eq!(fused.rows(), expected.as_slice(), "{profile:?}");
            assert_eq!(lifted.rows(), fused.rows(), "{profile:?}");
            assert!(stats.agg_pushdown_blocks > 0, "{profile:?}");
            assert_eq!(lifted_stats.rows_scanned, stats.rows_scanned);
        }
    }

    #[test]
    fn selection_chain_collapses_into_one_scan() {
        let db = indexed_db();
        let plan = LogicalPlan::scan("t")
            .filter(col("id").ge(lit(100)))
            .filter(col("id").le(lit(110)));
        let physical = lower(&db, &plan, EngineProfile::Indexed).unwrap();
        assert!(matches!(physical.op, PhysOp::IndexRangeScan { .. }));
        let (rel, stats) = run(&db, &plan, EngineProfile::Indexed);
        assert_eq!(rel.len(), 11);
        assert_eq!(stats.index_scans, 1);
        assert_eq!(stats.rows_scanned, 11);
    }

    #[test]
    fn batches_flow_through_the_pipeline() {
        let db = zone_db();
        let plan = LogicalPlan::scan("t").filter(col("grp").eq(lit(3)));
        let (rel, stats) = run(&db, &plan, EngineProfile::ColumnarScan);
        assert_eq!(rel.len(), 714); // i % 7 == 3 for i in 0..5000
                                    // 5000 input rows = 5 scan batches, filtered in place.
        assert!(stats.batches >= 1);
        assert_eq!(stats.full_scans, 1);
    }

    #[test]
    fn profiles_agree_on_results() {
        let db = indexed_db();
        let db2 = zone_db();
        let plan = LogicalPlan::scan("t")
            .filter(col("id").between(lit(500), lit(1500)))
            .aggregate(
                vec!["grp"],
                vec![AggExpr::new(AggFunc::Count, col("id"), "cnt")],
            )
            .top_k(vec![SortKey::desc("cnt")], 3);
        let (a, _) = run(&db, &plan, EngineProfile::Indexed);
        let (b, _) = run(&db, &plan, EngineProfile::ColumnarScan);
        let (c, _) = run(&db2, &plan, EngineProfile::Indexed);
        assert!(a.bag_eq(&b));
        assert!(a.bag_eq(&c));
    }

    #[test]
    fn limit_stops_pulling() {
        let db = zone_db();
        let plan = LogicalPlan::scan("t").top_k(vec![SortKey::asc("id")], 5);
        let (rel, stats) = run(&db, &plan, EngineProfile::Indexed);
        assert_eq!(rel.len(), 5);
        assert_eq!(stats.topk_inputs, vec![(5, 5_000)]);
    }

    /// `SUM(v)` and `MAX(v)` grouped by column 0 of `rows` (`v` is column
    /// 1): the output rows and the table's slots.
    fn fold_rows(rows: &[Row], collide: bool) -> (Vec<Row>, Vec<u64>) {
        let aggs = [
            AggExpr::new(AggFunc::Sum, col("v"), "s"),
            AggExpr::new(AggFunc::Max, col("v"), "m"),
        ];
        let mut fold = GroupFold::new(&NoTag, &aggs, 1);
        fold.table.collide = collide;
        for row in rows {
            fold.fold(row, &(), &[0], |_| Ok(&row[1])).unwrap();
        }
        let slots = fold.table.slots.clone();
        let out = fold
            .finish(None)
            .unwrap()
            .into_iter()
            .map(|(row, ())| row)
            .collect();
        (out, slots)
    }

    #[test]
    fn group_table_finds_keys_along_one_probe_chain() {
        let rows: Vec<Row> = (0..400i64)
            .map(|i| {
                let key = match i % 4 {
                    0 => Value::Int(i % 37),
                    1 => Value::Float((i % 37) as f64),
                    2 => Value::from(format!("s{}", i % 11)),
                    _ => Value::Null,
                };
                vec![key, Value::Int(i)]
            })
            .collect();
        let (spread, spread_slots) = fold_rows(&rows, false);
        let (chained, chained_slots) = fold_rows(&rows, true);
        // `Debug` renderings, so `Int(3)` and `Float(3.0)` count as different.
        assert_eq!(format!("{spread:?}"), format!("{chained:?}"));
        // 37 numbers (3 and 3.0 share a group), 11 strings, one NULL.
        assert_eq!(chained.len(), 37 + 11 + 1);
        // One chain: every group sits in the first slots, in group order.
        let ids: Vec<u64> = chained_slots.iter().map(|s| s & !HASH_HALF).collect();
        assert_eq!(
            ids[..chained.len()],
            (1..=chained.len() as u64).collect::<Vec<_>>()
        );
        assert!(spread_slots.iter().any(|&s| s & HASH_HALF != 0));
        // Keys in first-seen order, sums and maxima over every member.
        // Key 0: rows 0, 37, 148, 185, 296 and 333; 37, 185 and 333 hold
        // `Float(0.0)`.
        assert_eq!(
            chained[0],
            vec![Value::Int(0), Value::Int(999), Value::Int(333)]
        );
    }

    #[test]
    fn group_table_grows_past_its_first_slots() {
        const KEYS: i64 = 100_000;
        let rows: Vec<Row> = (0..2 * KEYS)
            .map(|i| vec![Value::Int(i % KEYS), Value::Int(i)])
            .collect();
        let (out, slots) = fold_rows(&rows, false);
        assert_eq!(slots.len(), (2 * KEYS as usize).next_power_of_two());
        assert_eq!(out.len(), KEYS as usize);
        for (row, k) in out.iter().zip(0..) {
            assert_eq!(
                row,
                &vec![
                    Value::Int(k),
                    Value::Int(2 * k + KEYS),
                    Value::Int(k + KEYS)
                ]
            );
        }
    }

    /// Probes per lookup of a key already in `table`, averaged over its
    /// groups: one plus each group's distance from its first slot.
    fn mean_probe_len(table: &GroupTable) -> f64 {
        let mask = table.slots.len() - 1;
        let probes: usize = (0..table.slots.len())
            .filter(|&s| table.slots[s] != 0)
            .map(|s| 1 + (s.wrapping_sub((table.slots[s] >> table.shift) as usize) & mask))
            .sum();
        probes as f64 / table.len() as f64
    }

    #[test]
    fn group_table_probes_stay_short_on_consecutive_int_keys() {
        // Consecutive keys, and keys 22 apart — where a bare FxHash multiply
        // (its constant is close to 7/22 of 2^64) puts the first slots of
        // keys next to one another.
        for step in [1, 22] {
            let mut table = GroupTable::new(1);
            for k in 0..6_000i64 {
                table.find_or_insert(&[Value::Int(k * step)], &[0]);
            }
            assert_eq!(table.len(), 6_000);
            // Linear probing at this load (6 000 of 16 384 slots) expects
            // about 1.3 probes per successful lookup.
            let mean = mean_probe_len(&table);
            assert!(mean < 2.0, "step {step}: {mean:.2} probes per lookup");
        }
    }

    #[test]
    fn direct_mapped_keys_share_the_group_table_with_hashed_ones() {
        // Slots for keys 5 to 8 only: 3, 9 and 11 fall outside, as does
        // NULL (0 here). Chunks of six rows: the first and the last hold no
        // NULL, and the first NULL comes between the in-span 5 and 7.
        let keys = [
            [6, 3, 5, 9, 6, 7],
            [5, 0, 7, 3, 0, 8],
            [9, 6, 0, 5, 11, 7],
            [7, 6, 5, 3, 9, 8],
        ];
        let rows: Vec<Row> = keys
            .iter()
            .flatten()
            .enumerate()
            .map(|(i, &k)| {
                let key = if k == 0 { Value::Null } else { Value::Int(k) };
                vec![key, Value::Int(i as i64)]
            })
            .collect();
        let schema = Schema::from_pairs(&[("k", DataType::Int), ("v", DataType::Int)]);
        let chunks = ColumnarChunks::build(&schema, &rows, 6);
        let nullable: Vec<bool> = chunks
            .chunks()
            .iter()
            .map(|c| c.column(0).has_nulls())
            .collect();
        assert_eq!(nullable, [false, true, true, false]);
        let aggs = [
            AggExpr::new(AggFunc::Sum, col("v"), "s"),
            AggExpr::new(AggFunc::Max, col("v"), "m"),
        ];
        let mut by_rows = GroupFold::new(&NoTag, &aggs, 1);
        for row in &rows {
            by_rows.fold(row, &(), &[0], |_| Ok(&row[1])).unwrap();
        }
        let mut by_columns = GroupFold::new(&NoTag, &aggs, 1);
        let mut columns = ColumnFold {
            keys: GroupKeys::Direct {
                col: 0,
                low: 5,
                slots: vec![0; 4],
            },
            inputs: vec![Input::Cells(1), Input::Cells(1)],
            gids: Vec::new(),
            cells: Vec::new(),
            ints: Vec::new(),
        };
        // Two pieces per chunk, so groups are found again in the second.
        for chunk in chunks.chunks() {
            for (base, len) in [(0, 4), (4, 2)] {
                columns.fold_piece(&mut by_columns, chunk, &SelBitmap::ones(len), base);
            }
        }
        // Group ids in first-seen order; only NULL and the out-of-span
        // keys hold a slot.
        let first_seen = [6, 3, 5, 9, 7, 0, 8, 11];
        let seen: Vec<Value> = (0..by_columns.table.len())
            .map(|g| by_columns.table.key(g)[0].clone())
            .collect();
        let expected_keys: Vec<Value> = first_seen
            .iter()
            .map(|&k| if k == 0 { Value::Null } else { Value::Int(k) })
            .collect();
        assert_eq!(seen, expected_keys);
        assert_eq!(by_columns.table.hashed, 4);
        let expected = by_rows.finish(None).unwrap();
        assert_eq!(by_columns.finish(None).unwrap(), expected);
    }

    #[test]
    fn null_keys_form_one_group() {
        let mut table = GroupTable::new(2);
        let rows = [
            vec![Value::Null, Value::Null],
            vec![Value::Null, Value::Int(1)],
            vec![Value::Null, Value::Null],
            vec![Value::Null, Value::Float(1.0)],
        ];
        let groups: Vec<(usize, bool)> = rows
            .iter()
            .map(|r| table.find_or_insert(r, &[0, 1]))
            .collect();
        assert_eq!(groups, [(0, true), (1, true), (0, false), (1, false)]);
    }

    #[test]
    fn distinct_merges_on_value_keys() {
        let schema = Schema::from_pairs(&[("v", DataType::Float)]);
        let mut b = TableBuilder::new("m", schema);
        b.push(vec![Value::Int(1)]);
        b.push(vec![Value::Float(1.0)]);
        b.push(vec![Value::Int(2)]);
        let mut db = Database::new();
        db.add_table(b.build());
        let plan = LogicalPlan::scan("m").distinct();
        let (rel, _) = run(&db, &plan, EngineProfile::Indexed);
        // Int(1) and Float(1.0) are equal values, so they deduplicate.
        assert_eq!(rel.len(), 2);
    }

    #[test]
    fn hash_operators_distinguish_ints_beyond_f64_precision() {
        // 2^53 and 2^53 + 1 share an f64 image; group-by, distinct and join
        // must still treat them as different keys.
        const BIG: i64 = 1 << 53;
        let schema = Schema::from_pairs(&[("k", DataType::Int), ("v", DataType::Int)]);
        let mut b = TableBuilder::new("big", schema);
        b.push(vec![Value::Int(BIG), Value::Int(1)]);
        b.push(vec![Value::Int(BIG + 1), Value::Int(2)]);
        b.push(vec![Value::Int(BIG), Value::Int(3)]);
        let mut db = Database::new();
        db.add_table(b.build());

        let distinct = LogicalPlan::scan("big")
            .project(vec![(col("k"), "k")])
            .distinct();
        let (rel, _) = run(&db, &distinct, EngineProfile::Indexed);
        assert_eq!(rel.len(), 2);

        let grouped = LogicalPlan::scan("big").aggregate(
            vec!["k"],
            vec![AggExpr::new(AggFunc::Count, col("v"), "cnt")],
        );
        let (rel, _) = run(&db, &grouped, EngineProfile::Indexed);
        assert_eq!(rel.len(), 2);

        let join = LogicalPlan::scan("big").join(LogicalPlan::scan("big"), "k", "k");
        let (rel, _) = run(&db, &join, EngineProfile::Indexed);
        // BIG matches its two occurrences (2x2) and BIG+1 matches itself.
        assert_eq!(rel.len(), 5);
    }

    #[test]
    fn distinct_is_order_independent_for_mixed_int_float_keys() {
        // Float(2^53) == Int(2^53) but != Int(2^53 + 1): the result must not
        // depend on which row seeds the hash table.
        const BIG: i64 = 1 << 53;
        let variants = [
            [
                Value::Float(BIG as f64),
                Value::Int(BIG),
                Value::Int(BIG + 1),
            ],
            [
                Value::Int(BIG),
                Value::Int(BIG + 1),
                Value::Float(BIG as f64),
            ],
            [
                Value::Int(BIG + 1),
                Value::Float(BIG as f64),
                Value::Int(BIG),
            ],
        ];
        for rows in variants {
            let schema = Schema::from_pairs(&[("k", DataType::Float)]);
            let mut b = TableBuilder::new("m", schema);
            for v in rows.clone() {
                b.push(vec![v]);
            }
            let mut db = Database::new();
            db.add_table(b.build());
            let plan = LogicalPlan::scan("m").distinct();
            let (rel, _) = run(&db, &plan, EngineProfile::Indexed);
            assert_eq!(rel.len(), 2, "order variant {rows:?}");
        }
    }

    #[test]
    fn stale_physical_plan_errors_instead_of_panicking() {
        let db = indexed_db();
        let plan = LogicalPlan::scan("t").filter(col("id").between(lit(10), lit(20)));
        let physical = lower(&db, &plan, EngineProfile::Indexed).unwrap();
        assert!(matches!(physical.op, PhysOp::IndexRangeScan { .. }));
        // Replace the table with one that lost its index: the lowered plan
        // is now stale and must surface an error, not panic.
        let mut stale_db = Database::new();
        let t = db.table("t").unwrap();
        stale_db.add_table(Table::new("t", t.schema().clone(), t.rows().to_vec()));
        let mut stats = ExecStats::default();
        let err = execute(&stale_db, &physical, &NoTag, &mut stats).unwrap_err();
        assert!(matches!(err, ExecError::Plan(_)), "got {err:?}");
    }

    #[test]
    fn cross_product_counter_saturates_instead_of_overflowing() {
        let mut stats = ExecStats {
            intermediate_rows: u64::MAX - 10,
            ..Default::default()
        };
        let db = zone_db();
        let plan = LogicalPlan::scan("t")
            .filter(col("id").lt(lit(3)))
            .cross(LogicalPlan::scan("t").filter(col("id").lt(lit(4))));
        let physical = lower(&db, &plan, EngineProfile::Indexed).unwrap();
        let done = execute(&db, &physical, &NoTag, &mut stats).unwrap();
        assert_eq!(done.relation.len(), 12);
        assert_eq!(stats.intermediate_rows, u64::MAX);
    }

    #[test]
    fn masked_pieces_keep_order_and_stay_within_chunks() {
        let schema = Schema::from_pairs(&[("v", DataType::Int)]);
        let rows: Vec<Row> = (0..320i64).map(|i| vec![Value::Int(i)]).collect();
        // Chunks of 50 rows, the last one 20.
        let chunks = ColumnarChunks::build(&schema, &rows, 50);
        let rows_of = |pieces: &[Piece]| -> Vec<usize> {
            let at = |p: &Piece| p.within.iter_ones().map(|j| p.lo + j).collect::<Vec<_>>();
            pieces.iter().flat_map(at).collect()
        };
        let segments = ScanSource::Segments(vec![(0, 10), (20, 25), (30, 147), (300, 320)]);
        // Rows 3, 5 to 68, 130 and 192 to 319.
        let probe = ScanSource::Probe(vec![!0 << 5 | 1 << 3, 31, 1 << 2, !0, !0]);
        for (source, total) in [(segments, 152), (probe, 194)] {
            let pieces = masked_pieces(source, &chunks);
            let all = rows_of(&pieces);
            assert_eq!(all.len(), total);
            assert_eq!(selected_rows(&pieces), total);
            assert!(all.windows(2).all(|w| w[0] < w[1]));
            for p in &pieces {
                assert!(
                    p.hi() <= chunks.chunk_for(p.lo).unwrap().end,
                    "piece crosses a chunk"
                );
            }
        }
    }

    #[test]
    fn display_tree_shows_access_paths() {
        let db = indexed_db();
        let plan = LogicalPlan::scan("t")
            .filter(col("id").gt(lit(10)))
            .aggregate(
                vec!["grp"],
                vec![AggExpr::new(AggFunc::Count, col("id"), "cnt")],
            );
        let physical = lower(&db, &plan, EngineProfile::Indexed).unwrap();
        let text = physical.display_tree();
        assert!(text.contains("HashAggregate"));
        assert!(text.contains("IndexRangeScan"));
    }

    #[test]
    fn agg_pushdown_matches_row_path_on_global_aggregates() {
        let db = zone_db();
        // Pure-int columns + no groups + NoTag: the column-at-a-time path
        // with run shortcuts.
        let plan = LogicalPlan::scan("t")
            .filter(col("id").between(lit(500), lit(4_200)))
            .aggregate(
                vec![],
                vec![
                    AggExpr::new(AggFunc::Count, col("id"), "n"),
                    AggExpr::new(AggFunc::Sum, col("grp"), "total"),
                    AggExpr::new(AggFunc::Min, col("id"), "lo"),
                    AggExpr::new(AggFunc::Max, col("grp"), "hi"),
                ],
            );
        for profile in [EngineProfile::Indexed, EngineProfile::ColumnarScan] {
            let (fast, fast_stats) = run(&db, &plan, profile);
            let (oracle, oracle_stats) = run_lifted(&db, &plan, profile);
            assert_eq!(fast, oracle, "profile {profile:?}");
            assert_eq!(fast_stats.rows_scanned, oracle_stats.rows_scanned);
            assert!(fast_stats.agg_pushdown_blocks > 0);
            assert_eq!(oracle_stats.agg_pushdown_blocks, 0);
            assert_eq!(fast.value(0, "n"), Some(&Value::Int(3_701)));
            assert_eq!(fast.value(0, "lo"), Some(&Value::Int(500)));
            assert_eq!(fast.value(0, "hi"), Some(&Value::Int(6)));
        }
    }

    #[test]
    fn agg_pushdown_handles_index_rid_probes() {
        let db = indexed_db();
        // Under the Indexed profile the filter lowers to an IndexRangeScan:
        // the pushdown cuts the probe into per-chunk masks and ANDs each
        // with the chunk-evaluated predicate.
        let global = LogicalPlan::scan("t")
            .filter(col("id").between(lit(500), lit(4_200)))
            .aggregate(
                vec![],
                vec![
                    AggExpr::new(AggFunc::Count, col("id"), "n"),
                    AggExpr::new(AggFunc::Sum, col("grp"), "total"),
                ],
            );
        let (fast, fast_stats) = run(&db, &global, EngineProfile::Indexed);
        let (oracle, oracle_stats) = run_lifted(&db, &global, EngineProfile::Indexed);
        assert_eq!(fast, oracle);
        assert_eq!(fast.value(0, "n"), Some(&Value::Int(3_701)));
        assert_eq!(fast_stats.index_scans, 1);
        assert_eq!(fast_stats.rows_scanned, oracle_stats.rows_scanned);
        // Rows 500..=4200 of 100-row chunks: chunks 5 to 42 each fold as
        // one piece, through the filter kernels.
        assert_eq!(fast_stats.agg_pushdown_blocks, 38);
        assert_eq!(fast_stats.vectorized_scans, 1);
        assert_eq!(fast_stats.vectorized_blocks, 38);
        assert_eq!(fast_stats.intermediate_rows, oracle_stats.intermediate_rows);

        // Grouping over a rid probe exercises the shared fold-row path.
        let grouped = LogicalPlan::scan("t")
            .filter(col("id").lt(lit(3_000)))
            .aggregate(
                vec!["grp"],
                vec![AggExpr::new(AggFunc::Avg, col("id"), "avg")],
            );
        let (fast, fast_stats) = run(&db, &grouped, EngineProfile::Indexed);
        let (oracle, _) = run_lifted(&db, &grouped, EngineProfile::Indexed);
        assert_eq!(fast, oracle);
        assert_eq!(fast_stats.intermediate_rows, 3_000);
    }

    #[test]
    fn agg_pushdown_matches_row_path_on_grouped_and_avg_aggregates() {
        let db = zone_db();
        // Group keys and AVG force the row-at-a-time pushdown variant; the
        // output (including group order) must still match the generic pair.
        let plan = LogicalPlan::scan("t")
            .filter(col("id").lt(lit(3_000)))
            .aggregate(
                vec!["grp"],
                vec![
                    AggExpr::new(AggFunc::Sum, col("id"), "total"),
                    AggExpr::new(AggFunc::Avg, col("id"), "avg"),
                ],
            );
        let (fast, fast_stats) = run(&db, &plan, EngineProfile::ColumnarScan);
        let (oracle, _) = run_lifted(&db, &plan, EngineProfile::ColumnarScan);
        assert_eq!(fast, oracle);
        assert!(fast_stats.agg_pushdown_blocks > 0);
        // A scan of [0, 3000) over 100-row blocks under a zone map... the
        // ColumnarScan profile always sequential-scans, so every block of the
        // table flows through the pushdown.
        assert_eq!(fast_stats.agg_pushdown_blocks, 50);
        assert_eq!(fast_stats.intermediate_rows, 3_000);
    }

    #[test]
    fn agg_pushdown_handles_unfiltered_scans_and_empty_selections() {
        let db = zone_db();
        let whole = LogicalPlan::scan("t")
            .aggregate(vec![], vec![AggExpr::new(AggFunc::Sum, col("id"), "total")]);
        let (fast, fast_stats) = run(&db, &whole, EngineProfile::ColumnarScan);
        let (oracle, _) = run_lifted(&db, &whole, EngineProfile::ColumnarScan);
        assert_eq!(fast, oracle);
        assert_eq!(fast.value(0, "total"), Some(&Value::Int(4_999 * 5_000 / 2)));
        assert!(fast_stats.agg_pushdown_blocks > 0);
        // No pushed-down filter: no bitmap evaluation to count.
        assert_eq!(fast_stats.vectorized_blocks, 0);

        let empty = LogicalPlan::scan("t")
            .filter(col("id").lt(lit(0)))
            .aggregate(vec![], vec![AggExpr::new(AggFunc::Sum, col("id"), "total")]);
        let (fast, _) = run(&db, &empty, EngineProfile::ColumnarScan);
        let (oracle, _) = run_lifted(&db, &empty, EngineProfile::ColumnarScan);
        assert_eq!(fast, oracle);
        assert_eq!(fast.value(0, "total"), Some(&Value::Null));
        assert_eq!(fast.len(), 1);
    }

    #[test]
    fn agg_pushdown_declines_expression_inputs() {
        let db = zone_db();
        // `id * 2` is not a plain column: the generic operator pair keeps the
        // aggregate, and the result still matches the oracle.
        let plan = LogicalPlan::scan("t")
            .filter(col("id").lt(lit(100)))
            .aggregate(
                vec![],
                vec![AggExpr::new(AggFunc::Sum, col("id").mul(lit(2)), "total")],
            );
        let (fast, fast_stats) = run(&db, &plan, EngineProfile::ColumnarScan);
        let (oracle, _) = run_lifted(&db, &plan, EngineProfile::ColumnarScan);
        assert_eq!(fast, oracle);
        assert_eq!(fast_stats.agg_pushdown_blocks, 0);
        assert_eq!(fast.value(0, "total"), Some(&Value::Int(9_900)));
    }

    #[test]
    fn plain_index_probe_filters_probed_rows_through_the_chunk_kernels() {
        let db = indexed_db();
        // Rows 150..=420 (chunks 1 to 4 of 100 rows) and 2 050..=2 060
        // (chunk 20), less every seventh.
        let pred = col("id")
            .between(lit(150), lit(420))
            .or(col("id").between(lit(2_050), lit(2_060)))
            .and(col("grp").ne(lit(3)));
        let plan = LogicalPlan::scan("t").filter(pred.clone());
        let physical = lower(&db, &plan, EngineProfile::Indexed).unwrap();
        assert!(matches!(physical.op, PhysOp::IndexRangeScan { .. }));
        let table = db.table("t").unwrap();
        let oracle: Vec<Row> = table
            .rows()
            .iter()
            .filter(|row| eval_predicate(&pred, table.schema(), row).unwrap())
            .cloned()
            .collect();
        assert_eq!(oracle.len(), 271 - 39 + 11 - 1);

        let (rel, stats) = run(&db, &plan, EngineProfile::Indexed);
        assert_eq!(rel.rows(), &oracle[..]);
        assert_eq!(stats.index_scans, 1);
        assert_eq!(stats.rows_scanned, 271 + 11);
        assert_eq!(stats.vectorized_scans, 1);
        assert_eq!(stats.vectorized_blocks, 5);

        // The lifted oracle probes the same rows and filters them one at a
        // time above the scan: no chunk is filtered by the kernels.
        let (rel, stats) = run_lifted(&db, &plan, EngineProfile::Indexed);
        assert_eq!(rel.rows(), &oracle[..]);
        assert_eq!(stats.rows_scanned, 271 + 11);
        assert_eq!(stats.vectorized_blocks, 0);
    }

    /// `t(id, grp)` indexed on `id` and `z(zid, zgrp)` with a zone map
    /// only, 5 000 rows each in blocks of 100.
    fn two_table_db() -> Database {
        let mut db = indexed_db();
        let schema = Schema::from_pairs(&[("zid", DataType::Int), ("zgrp", DataType::Int)]);
        let mut b = TableBuilder::new("z", schema);
        b.block_size(100);
        for i in 0..5_000i64 {
            b.push(vec![Value::Int(i), Value::Int(i % 7)]);
        }
        db.add_table(b.build());
        db
    }

    /// Lower and execute `plan`, returning its physical plan, what the
    /// execution returned and the stats.
    fn analyze(
        db: &Database,
        plan: &LogicalPlan,
        profile: EngineProfile,
    ) -> (PhysicalPlan, Executed<()>, ExecStats) {
        let physical = lower(db, plan, profile).unwrap();
        let mut stats = ExecStats::default();
        let done = execute(db, &physical, &NoTag, &mut stats).unwrap();
        (physical, done, stats)
    }

    #[test]
    fn every_resolved_scan_counts_in_exactly_one_access_path() {
        let db = two_table_db();
        let t = || LogicalPlan::scan("t");
        let z = || LogicalPlan::scan("z");
        let count = || vec![AggExpr::new(AggFunc::Count, col("grp"), "n")];
        let cases = [
            (t(), 1),
            (t().filter(col("id").between(lit(10), lit(20))), 1),
            (z().filter(col("zid").between(lit(10), lit(20))), 1),
            (
                t().filter(col("grp").eq(lit(3))).aggregate(vec![], count()),
                1,
            ),
            (
                z().filter(col("zid").lt(lit(300)))
                    .aggregate(vec!["zgrp"], vec![]),
                1,
            ),
            // Narrowed build scan, the build as planned, and no build scan.
            (z().filter(col("zid").lt(lit(5))).join(t(), "zid", "id"), 2),
            (t().join(z().filter(col("zid").lt(lit(10))), "id", "zid"), 2),
            (z().filter(col("zid").lt(lit(0))).join(t(), "zid", "id"), 1),
            (t().filter(col("id").lt(lit(3))).cross(z()), 2),
        ];
        for (plan, scans) in cases {
            for profile in [EngineProfile::Indexed, EngineProfile::ColumnarScan] {
                let (_, _, stats) = analyze(&db, &plan, profile);
                assert_eq!(
                    stats.full_scans + stats.index_scans + stats.zone_map_scans,
                    scans,
                    "{profile:?}\n{}",
                    plan.display_tree()
                );
            }
        }
    }

    #[test]
    fn hash_join_narrows_its_build_scan_to_the_probe_keys() {
        let db = two_table_db();
        let plan = LogicalPlan::scan("z").filter(col("zid").lt(lit(5))).join(
            LogicalPlan::scan("t"),
            "zid",
            "id",
        );
        let (physical, done, stats) = analyze(&db, &plan, EngineProfile::Indexed);
        assert!(matches!(physical.children()[1].op, PhysOp::SeqScan { .. }));
        assert_eq!(done.relation.len(), 5);
        assert_eq!(stats.join_key_filters, 1);
        assert_eq!((stats.zone_map_scans, stats.index_scans), (1, 1));
        // One block of `z`, and the five probed rows of `t`.
        assert_eq!(stats.rows_scanned, 100 + 5);
        let build = &done.metrics.ops[2];
        assert_eq!((build.rows_out, build.rows_scanned), (5, 5));
        let rendered = physical.render_analyze(&done.metrics);
        assert!(
            rendered.contains("IndexRangeScan[t.id, 5 range(s), 5 join key(s)]  (rows=5,"),
            "{rendered}"
        );

        // The scan-only profile narrows through the kernels: every row is
        // scanned, only the matching ones are built.
        let (_, done, stats) = analyze(&db, &plan, EngineProfile::ColumnarScan);
        assert_eq!(done.relation.len(), 5);
        assert_eq!(stats.join_key_filters, 1);
        assert_eq!(stats.rows_scanned, 10_000);
        assert_eq!(done.metrics.ops[2].rows_out, 5);
    }

    #[test]
    fn hash_join_builds_as_planned_once_the_probe_side_outgrows_the_source() {
        let db = two_table_db();
        // The build source selects 10 rows; the probe side has 5 000.
        let plan = LogicalPlan::scan("t").join(
            LogicalPlan::scan("z").filter(col("zid").lt(lit(10))),
            "id",
            "zid",
        );
        let (physical, done, stats) = analyze(&db, &plan, EngineProfile::Indexed);
        assert_eq!(done.relation.len(), 10);
        assert_eq!(stats.join_key_filters, 0);
        assert_eq!(stats.rows_scanned, 5_000 + 100);
        let rendered = physical.render_analyze(&done.metrics);
        assert!(
            rendered.contains("ZoneMapScan[z.zid, 1 range(s)]  (rows=10,"),
            "{rendered}"
        );
    }

    #[test]
    fn hash_join_with_no_probe_key_resolves_no_build_scan() {
        let db = two_table_db();
        for probe in [col("zid").lt(lit(0)), Expr::IsNull(Box::new(col("zid")))] {
            let plan =
                LogicalPlan::scan("z")
                    .filter(probe)
                    .join(LogicalPlan::scan("t"), "zid", "id");
            let (physical, done, stats) = analyze(&db, &plan, EngineProfile::Indexed);
            assert!(done.relation.is_empty());
            // Only the probe side was scanned.
            let scans = stats.full_scans + stats.index_scans + stats.zone_map_scans;
            assert_eq!((scans, stats.join_key_filters), (1, 0));
            assert!(!done.metrics.ops[2].ran);
            let rendered = physical.render_analyze(&done.metrics);
            assert!(
                rendered.contains("SeqScan[t]  (never executed)"),
                "{rendered}"
            );
        }
    }

    #[test]
    fn hash_join_keeps_a_build_filter_that_does_not_bind() {
        let db = two_table_db();
        // No probe key matches, but the build filter names an unknown
        // column: the scan runs as planned and reports it.
        let plan = LogicalPlan::scan("z").filter(col("zid").lt(lit(0))).join(
            LogicalPlan::scan("t").filter(col("nope").gt(lit(1))),
            "zid",
            "id",
        );
        let physical = lower(&db, &plan, EngineProfile::Indexed).unwrap();
        let mut stats = ExecStats::default();
        let err = execute(&db, &physical, &NoTag, &mut stats);
        assert!(matches!(err, Err(ExecError::UnknownColumn(_))), "{err:?}");
    }
}
