//! The PBDS facade: a convenient entry point tying together partitioning,
//! safety checking, sketch capture, sketch use and serving.

use crate::catalog::SketchCatalog;
use crate::instrument::{apply_sketches, UsePredicateStyle};
use crate::reuse::{ReuseChecker, ReuseResult};
use crate::safety::{PartitionAttr, SafetyChecker, SafetyResult};
use crate::server::{PbdsServer, ServerConfig};
use pbds_algebra::{LogicalPlan, QueryTemplate};
use pbds_exec::{Engine, EngineProfile, ExecError, QueryOutput};
use pbds_provenance::{
    capture_lineage, capture_sketches_with_profile, CaptureResult, ProvenanceSketch,
};
use pbds_storage::{
    CompositePartition, Database, Partition, PartitionRef, RangePartition, StorageError, Value,
};
use std::sync::Arc;

/// Errors surfaced by the facade.
#[derive(Debug, Clone, PartialEq)]
pub enum PbdsError {
    /// Storage-level error (unknown table / column).
    Storage(StorageError),
    /// Execution-level error.
    Exec(ExecError),
    /// A partition could not be built (e.g. the column holds only NULLs).
    Partitioning(String),
    /// A durability-layer error (snapshot / WAL / persisted catalog).
    Persist(pbds_persist::PersistError),
    /// A durability operation (checkpoint, shutdown-with-persist) was asked
    /// of a server that has no durability directory attached.
    NotDurable,
    /// The server has degraded to read-only: a durability failure (e.g. a
    /// failed WAL fsync) means new writes could be acknowledged but lost, so
    /// they are refused fast while reads keep serving. The commit thread
    /// retries repair between requests; a successful repair (or an explicit
    /// [`crate::server::PbdsServer::checkpoint`]) restores write service.
    ReadOnly,
    /// The server is fail-stopped: repeated repair attempts could not
    /// re-establish durability. Reads and writes are both refused — serving
    /// answers that could silently diverge from the durable state is worse
    /// than refusing. Terminal for this server instance; restart via
    /// [`crate::server::PbdsServer::open`].
    FailStop,
    /// A session thread panicked while serving part of a query stream
    /// ([`crate::server::PbdsServer::serve_stream`]); the stream's results
    /// are incomplete. Other sessions and the server itself are unaffected.
    SessionPanicked,
}

impl std::fmt::Display for PbdsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PbdsError::Storage(e) => write!(f, "storage error: {e}"),
            PbdsError::Exec(e) => write!(f, "execution error: {e}"),
            PbdsError::Partitioning(msg) => write!(f, "partitioning error: {msg}"),
            PbdsError::Persist(e) => write!(f, "persistence error: {e}"),
            PbdsError::NotDurable => {
                write!(f, "server was not opened over a durability directory")
            }
            PbdsError::ReadOnly => write!(
                f,
                "server is read-only: durability is degraded, writes are \
                 refused until repair succeeds"
            ),
            PbdsError::FailStop => write!(
                f,
                "server is fail-stopped: durability could not be repaired"
            ),
            PbdsError::SessionPanicked => {
                write!(f, "a session thread panicked while serving the stream")
            }
        }
    }
}

impl std::error::Error for PbdsError {}

impl From<StorageError> for PbdsError {
    fn from(e: StorageError) -> Self {
        PbdsError::Storage(e)
    }
}
impl From<ExecError> for PbdsError {
    fn from(e: ExecError) -> Self {
        PbdsError::Exec(e)
    }
}
impl From<pbds_persist::PersistError> for PbdsError {
    fn from(e: pbds_persist::PersistError) -> Self {
        PbdsError::Persist(e)
    }
}

/// The main PBDS handle.
///
/// ```
/// use pbds_core::Pbds;
/// use pbds_algebra::{col, AggExpr, AggFunc, LogicalPlan, SortKey};
/// use pbds_storage::{Database, DataType, Schema, TableBuilder, Value};
///
/// // Build a tiny database with an ordered index on the group column.
/// let schema = Schema::from_pairs(&[("grp", DataType::Int), ("v", DataType::Int)]);
/// let mut b = TableBuilder::new("t", schema);
/// b.index("grp");
/// for i in 0..1000i64 {
///     b.push(vec![Value::Int(i % 10), Value::Int(i)]);
/// }
/// let mut db = Database::new();
/// db.add_table(b.build());
///
/// // A top-1 query whose relevant data cannot be determined statically.
/// let q = LogicalPlan::scan("t")
///     .aggregate(vec!["grp"], vec![AggExpr::new(AggFunc::Sum, col("v"), "total")])
///     .top_k(vec![SortKey::desc("total")], 1);
///
/// let pbds = Pbds::new(db);
/// // Capture a sketch on a safe attribute, then re-run the query with it.
/// let partition = pbds.range_partition("t", "grp", 5).unwrap();
/// let captured = pbds.capture(&q, &[partition]).unwrap();
/// let fast = pbds.execute_with_sketches(&q, &captured.sketches).unwrap();
/// let plain = pbds.execute(&q).unwrap();
/// assert!(fast.relation.bag_eq(&plain.relation));
/// assert!(fast.stats.rows_scanned < plain.stats.rows_scanned);
/// ```
#[derive(Debug, Clone)]
pub struct Pbds {
    db: Arc<Database>,
    engine: Engine,
    catalog: Arc<SketchCatalog>,
}

impl Pbds {
    /// Create a PBDS handle with the default (indexed) engine profile.
    pub fn new(db: Database) -> Self {
        Pbds::with_profile(db, EngineProfile::Indexed)
    }

    /// Create a PBDS handle with an explicit engine profile.
    pub fn with_profile(db: Database, profile: EngineProfile) -> Self {
        Pbds {
            db: Arc::new(db),
            engine: Engine::new(profile),
            catalog: Arc::new(SketchCatalog::default()),
        }
    }

    /// The underlying database.
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// The shared sketch catalog backing this handle's servers.
    pub fn catalog(&self) -> &Arc<SketchCatalog> {
        &self.catalog
    }

    /// The execution engine.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Execute a query without PBDS.
    pub fn execute(&self, plan: &LogicalPlan) -> Result<QueryOutput, PbdsError> {
        Ok(self.engine.execute(&self.db, plan)?)
    }

    /// Build a range partition of `table.attr` with (up to) `fragments`
    /// fragments by [`RangePartition::of_column`]'s rule: one fragment per
    /// distinct value when there are no more distinct values than that,
    /// equi-depth otherwise.
    pub fn range_partition(
        &self,
        table: &str,
        attr: &str,
        fragments: usize,
    ) -> Result<PartitionRef, PbdsError> {
        let t = self.db.table(table)?;
        if t.schema().index_of(attr).is_none() {
            return Err(PbdsError::Storage(StorageError::UnknownColumn {
                table: table.to_string(),
                column: attr.to_string(),
            }));
        }
        let partition = RangePartition::of_column(t, attr, fragments).ok_or_else(|| {
            PbdsError::Partitioning(format!(
                "cannot partition {table}.{attr} (no non-null values)"
            ))
        })?;
        Ok(Arc::new(Partition::Range(partition)))
    }

    /// Build a composite (PSMIX) partition over a combination of attributes:
    /// one fragment per distinct combination (Sec. 9.4).
    pub fn composite_partition(
        &self,
        table: &str,
        attrs: &[&str],
    ) -> Result<PartitionRef, PbdsError> {
        let t = self.db.table(table)?;
        let partition =
            CompositePartition::build(table, t.schema(), t.rows(), attrs).ok_or_else(|| {
                PbdsError::Partitioning(format!("cannot partition {table} on {attrs:?}"))
            })?;
        Ok(Arc::new(Partition::Composite(partition)))
    }

    /// Statically check whether partitions over `attrs` are safe for `plan`
    /// (Sec. 5).
    pub fn check_safety(&self, plan: &LogicalPlan, attrs: &[PartitionAttr]) -> SafetyResult {
        SafetyChecker::new(&self.db).check(plan, attrs)
    }

    /// Choose safe partition attributes for a query, preferring the caller's
    /// candidates (e.g. primary keys) and falling back to group-by columns.
    pub fn choose_safe_attributes(
        &self,
        plan: &LogicalPlan,
        preferred: &[PartitionAttr],
    ) -> Option<Vec<PartitionAttr>> {
        SafetyChecker::new(&self.db).choose_safe_attributes(plan, preferred)
    }

    /// Check whether a sketch captured for `template(captured)` can answer
    /// `template(new_binding)` (Sec. 6).
    pub fn check_reuse(
        &self,
        template: &QueryTemplate,
        captured: &[Value],
        new_binding: &[Value],
    ) -> ReuseResult {
        ReuseChecker::new(&self.db).can_reuse(template, captured, new_binding)
    }

    /// Capture provenance sketches for a query over the given partitions
    /// (Sec. 7). The instrumented run uses this handle's engine profile, so
    /// capture and execution share one pipeline.
    pub fn capture(
        &self,
        plan: &LogicalPlan,
        partitions: &[PartitionRef],
    ) -> Result<CaptureResult, PbdsError> {
        Ok(capture_sketches_with_profile(
            &self.db,
            plan,
            partitions,
            self.engine.profile(),
        )?)
    }

    /// Compute the *accurate* sketch of a query for one partition by running
    /// full Lineage capture (slow; used as ground truth).
    pub fn accurate_sketch(
        &self,
        plan: &LogicalPlan,
        partition: &PartitionRef,
    ) -> Result<ProvenanceSketch, PbdsError> {
        let lineage = capture_lineage(&self.db, plan)?;
        let table = self.db.table(partition.table())?;
        let rows = lineage
            .rows_of(partition.table())
            .into_iter()
            .map(|rid| table.rows()[rid as usize].clone());
        Ok(ProvenanceSketch::from_rows(
            partition.clone(),
            table.schema(),
            rows,
        ))
    }

    /// Execute `plan` restricted by the given sketches (`Q[PS]`, Sec. 8),
    /// using the binary-search membership predicate.
    pub fn execute_with_sketches(
        &self,
        plan: &LogicalPlan,
        sketches: &[ProvenanceSketch],
    ) -> Result<QueryOutput, PbdsError> {
        self.execute_with_sketches_styled(plan, sketches, UsePredicateStyle::BinarySearch)
    }

    /// Execute `plan` restricted by the given sketches with an explicit
    /// predicate style (Fig. 11a vs 11c).
    pub fn execute_with_sketches_styled(
        &self,
        plan: &LogicalPlan,
        sketches: &[ProvenanceSketch],
        style: UsePredicateStyle,
    ) -> Result<QueryOutput, PbdsError> {
        let instrumented = apply_sketches(plan, sketches, style);
        Ok(self.engine.execute(&self.db, &instrumented)?)
    }

    /// Start a serving middleware over this database, sharing this handle's
    /// database and sketch catalog (see [`crate::server`]). This is the
    /// self-tuning entry point (Sec. 9.5): every server started from one
    /// handle shares its catalog, so sketches captured for one are reused by
    /// the others. With [`ServerConfig::capture_workers`] = 0 the server
    /// captures inline, as the paper's self-tuning loop does.
    ///
    /// The server always runs with **this handle's engine profile** — the
    /// `profile` field of `config` is ignored, because sketches captured
    /// through the shared catalog must be produced and consumed by the same
    /// execution profile. Construct a [`PbdsServer`] directly to pick an
    /// independent profile.
    pub fn serve(&self, config: ServerConfig) -> PbdsServer {
        PbdsServer::with_catalog(
            Arc::clone(&self.db),
            Arc::clone(&self.catalog),
            ServerConfig {
                profile: self.engine.profile(),
                ..config
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbds_algebra::{col, AggExpr, AggFunc, SortKey};
    use pbds_storage::{DataType, Schema, TableBuilder};

    fn db() -> Database {
        let schema = Schema::from_pairs(&[("grp", DataType::Int), ("v", DataType::Int)]);
        let mut b = TableBuilder::new("t", schema);
        b.block_size(64).index("grp");
        for i in 0..2_000i64 {
            b.push(vec![Value::Int(i % 40), Value::Int((i * 13) % 997)]);
        }
        let mut db = Database::new();
        db.add_table(b.build());
        db
    }

    fn top1() -> LogicalPlan {
        LogicalPlan::scan("t")
            .aggregate(
                vec!["grp"],
                vec![AggExpr::new(AggFunc::Sum, col("v"), "total")],
            )
            .top_k(vec![SortKey::desc("total")], 1)
    }

    #[test]
    fn end_to_end_capture_and_use() {
        let pbds = Pbds::new(db());
        let attrs = vec![PartitionAttr::new("t", "grp")];
        assert!(pbds.check_safety(&top1(), &attrs).safe);
        let part = pbds.range_partition("t", "grp", 8).unwrap();
        let captured = pbds.capture(&top1(), std::slice::from_ref(&part)).unwrap();
        assert!(captured.sketches[0].num_selected() < captured.sketches[0].num_fragments());
        let fast = pbds
            .execute_with_sketches(&top1(), &captured.sketches)
            .unwrap();
        let plain = pbds.execute(&top1()).unwrap();
        assert!(fast.relation.bag_eq(&plain.relation));
        assert!(fast.stats.rows_scanned < plain.stats.rows_scanned);
    }

    #[test]
    fn accurate_sketch_is_subset_of_captured_sketch() {
        let pbds = Pbds::new(db());
        let part = pbds.range_partition("t", "grp", 8).unwrap();
        let captured = pbds.capture(&top1(), std::slice::from_ref(&part)).unwrap();
        let accurate = pbds.accurate_sketch(&top1(), &part).unwrap();
        assert!(captured.sketches[0].is_superset_of(&accurate));
    }

    #[test]
    fn partition_errors_are_reported() {
        let pbds = Pbds::new(db());
        assert!(matches!(
            pbds.range_partition("missing", "grp", 4),
            Err(PbdsError::Storage(_))
        ));
        assert!(matches!(
            pbds.range_partition("t", "missing", 4),
            Err(PbdsError::Storage(_))
        ));
    }

    #[test]
    fn composite_partition_roundtrip() {
        let pbds = Pbds::new(db());
        let part = pbds.composite_partition("t", &["grp"]).unwrap();
        assert_eq!(part.num_fragments(), 40);
        let captured = pbds.capture(&top1(), &[part]).unwrap();
        let fast = pbds
            .execute_with_sketches(&top1(), &captured.sketches)
            .unwrap();
        assert!(fast
            .relation
            .bag_eq(&pbds.execute(&top1()).unwrap().relation));
    }
}
