//! # pbds-exec
//!
//! The execution engine for the PBDS reproduction, built around a single
//! physical operator pipeline ([`physical`]): logical plans are lowered to
//! physical operators with explicit access paths (ordered-index range scans,
//! zone-map block skipping or sequential scans), then executed in fixed-size
//! row batches. The pipeline has one entry point, [`execute`]: plain
//! execution and `EXPLAIN ANALYZE` reach it through [`Engine`] (tags
//! disabled via [`NoTag`]), provenance capture through [`lower`] + [`execute`]
//! (`pbds-provenance` plugs in [`TagPolicy`] implementations whose per-row
//! tags are sketch annotations or lineage tuple sets). Every base-table
//! scan — sequential, zone-map or index probe — is one operator over
//! chunk-aligned pieces of its table, filtered by the vectorized chunk
//! kernels; the pipeline has no other configuration. [`eval_expr`] and
//! [`eval_predicate`] are the row-at-a-time reference interpreter that the
//! compiled expressions and the kernels are proven against; no execution
//! path runs them. An execution runs on its calling thread.
//!
//! Two [`EngineProfile`]s substitute for the paper's two evaluation hosts:
//! `Indexed` mirrors a disk-based system with B-tree indexes and BRIN zone
//! maps (Postgres), `ColumnarScan` mirrors a scan-only main-memory column
//! store (MonetDB).

#![warn(missing_docs)]

pub mod compiled;
pub mod engine;
pub mod eval;
pub mod physical;
pub mod profile;
pub mod scan;
pub mod stats;
pub mod vector;

pub use compiled::{ColRef, CompiledExpr};
pub use engine::{AnalyzedQuery, Engine, QueryOutput};
pub use eval::{eval_expr, eval_predicate, ExecError};
pub use physical::{
    execute, lower, Batch, Executed, NoTag, OpMetrics, PhysOp, PhysicalPlan, PlanMetrics,
    TagPolicy, BATCH_SIZE,
};
pub use profile::EngineProfile;
pub use scan::{extract_skip_ranges, ColumnRanges};
pub use stats::ExecStats;
pub use vector::{eval_filter_block, eval_filter_block_counted, SelBitmap};

// The lifted-filter oracle is test code shared with the workspace's
// integration tests; it names this crate by its package name.
#[cfg(test)]
extern crate self as pbds_exec;
#[cfg(test)]
#[path = "../../../tests/support/lifted.rs"]
mod lifted;
