//! # pbds-core
//!
//! Provenance-Based Data Skipping (PBDS) — a from-scratch Rust reproduction
//! of the VLDB 2021 paper *"Provenance-based Data Skipping"* (Niu et al.).
//!
//! PBDS analyzes queries **at runtime** to determine which data is relevant
//! for answering them: it captures a *provenance sketch* — the set of
//! fragments of a horizontal partition that contain the query's provenance —
//! and uses that sketch to instrument later executions of the same (or a
//! compatible parameterized) query with range predicates the engine can
//! answer through indexes and zone maps. This pays off precisely for query
//! classes where static analysis cannot determine relevance: top-k queries,
//! aggregation with `HAVING`, and similar.
//!
//! The crate provides:
//!
//! * [`safety`] — the static safety check of Sec. 5 (`gc(Q, X)` inference);
//! * [`reuse`] — the parameterized-query reuse check of Sec. 6. Both are rule
//!   sets over one private plan walk, which encodes `pred`, `expr` and Ψ of
//!   every operator over an unprimed and a primed copy of each attribute;
//! * [`instrument`] — query instrumentation with sketch filters (Sec. 8);
//! * [`tuning`] — the self-tuning eager/adaptive strategies of Sec. 9.5;
//! * [`catalog`] — the shared, thread-safe sketch catalog (template-keyed,
//!   memoized reuse checks, byte-budget LRU eviction);
//! * [`server`] — the serving middleware and the one place that decides how
//!   a query is served: sessions consult the catalog and, on a miss, capture
//!   inline or enqueue the capture to a background worker pool;
//! * [`Pbds`] — a facade tying everything together (see its example).
//!
//! Sketch *capture* (Sec. 7) lives in the `pbds-provenance` crate and is
//! re-exported here.
//!
//! # Layering
//!
//! The system is a stack of crates with one execution path:
//!
//! ```text
//!   pbds-core        safety · reuse · instrumentation · self-tuning
//!        │
//!   pbds-provenance  sketches; capture & lineage as pipeline tag policies
//!        │
//!   pbds-exec        lower(LogicalPlan) → physical operators
//!                    (SeqScan/IndexRangeScan/ZoneMapScan, Filter, Project,
//!                     HashAggregate, HashJoin, Sort, Limit, Distinct, …)
//!                    executed in fixed-size batches with per-row tags
//!        │
//!   pbds-storage     tables · ordered indexes · zone maps · partitions
//! ```
//!
//! Plain execution runs the pipeline with tags disabled (`NoTag`);
//! provenance capture runs the *same* operators with annotation tags and
//! folds the result tags into a sketch. Lowering chooses the access path per
//! scan: an ordered index if the pushed-down predicate constrains an indexed
//! column to ranges, else a zone-map skip scan, else a sequential scan — the
//! mechanism by which a captured sketch, re-injected as a range predicate,
//! makes later executions skip irrelevant data.

#![warn(missing_docs)]

pub mod catalog;
mod encode;
pub mod instrument;
pub mod pbds;
pub mod reuse;
pub mod safety;
pub mod server;
pub mod tuning;

pub use catalog::{CatalogDelta, CatalogImport, ReusableSketches, SketchCatalog};
pub use instrument::{apply_sketches, sketch_predicate, UsePredicateStyle};
pub use pbds::{Pbds, PbdsError};
pub use reuse::{ReuseChecker, ReuseResult};
pub use safety::{PartitionAttr, SafetyChecker, SafetyResult};
pub use server::{
    HealthState, Mutation, MutationOutcome, MutationTicket, PanicSite, PbdsServer, PbdsSession,
    RecoveryReport, ServedQuery, ServerConfig,
};
pub use tuning::{cumulative_elapsed, estimate_selectivity, Action, QueryRecord, Strategy};

// Re-export the most commonly used items from the substrate crates so that
// downstream users (examples, benches) can depend on `pbds-core` alone.
pub use pbds_algebra as algebra;
pub use pbds_exec as exec;
pub use pbds_persist as persist;
pub use pbds_provenance as provenance;
pub use pbds_solver as solver;
pub use pbds_storage as storage;
pub use pbds_sync as sync;

// The unified telemetry layer: `PbdsServer::metrics_snapshot` /
// `SketchCatalog::metrics_snapshot` return `MetricsSnapshot`s — the one read
// path for every counter, including the `pbds_lock_*` hold gauges — and span
// guards from `pbds_telemetry::span` cover the query and write paths.
pub use pbds_telemetry as telemetry;
pub use pbds_telemetry::{HistogramSnapshot, MetricsSnapshot};

pub use pbds_exec::{AnalyzedQuery, Engine, EngineProfile, ExecStats, QueryOutput};
pub use pbds_provenance::{
    capture_lineage, capture_sketches, CaptureConfig, CaptureResult, FragmentBitset, LookupMethod,
    MergeStrategy, ProvenanceSketch,
};
