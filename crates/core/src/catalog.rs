//! The shared, thread-safe sketch catalog.
//!
//! The paper's deployment model (Sec. 6 / 9.5) is a *middleware* sitting in
//! front of the database: sketches captured for one instance of a
//! parameterized query are reused by later — possibly concurrent — instances.
//! That makes the sketch store a shared, contended data structure, not a
//! per-executor appendage. [`SketchCatalog`] is that store. It keeps one
//! record per template and one per table:
//!
//! * a `TemplateState` holds everything known about one template: stored
//!   entries, the reuse-check memo and the denials (by binding), the version
//!   guarding memo writes, the safety verdict with the bounds it was proven
//!   under, the adaptive evidence counter, the tables it reads and the
//!   bindings whose capture is in flight. It is keyed by name + structural
//!   fingerprint (same-named templates of different shape never share
//!   state) and hashed over [`TrackedRwLock`] shards (`"catalog.shard"`): a
//!   served query takes only its own template's shard lock, shared on the
//!   hot reuse path;
//! * a `TableState`, behind the one `"catalog.tables"` lock, holds the data
//!   epoch of the last mutation the catalog processed (inserts captured
//!   against an older epoch are rejected as stale) and the table's cached
//!   range partitions.
//!
//! No catalog lock is taken while another is held. The reuse check runs
//! under the shard's read lock; the safety derivation runs outside it.
//!
//! * **memoized reuse checks** — the solver-backed reuse check
//!   ([`crate::reuse::ReuseChecker`]) is the per-query CPU cost of PBDS
//!   middleware. Its outcome depends only on `(template, captured binding,
//!   new binding)` and the table statistics, so each template memoizes it
//!   per new binding until its entry set changes or a table it reads mutates;
//! * **epoch-checked under mutation** — every stored entry records, per
//!   sketched table, the table epoch its sketches reflect.
//!   [`SketchCatalog::apply_deltas`] extends stored sketches with the
//!   fragments that received new rows (safe supersets, Lemma 5) and keeps
//!   them across deletes as still-safe supersets while invalidating what was
//!   derived from the old statistics (a memoized safety verdict instead
//!   carries the column bounds it was proven under, and is kept while the
//!   data stays inside them); a lookup, memoized or not, only offers entries
//!   whose recorded epochs match the serving database;
//! * **observable** — hit / miss / eviction / memo-hit counters
//!   ([`SketchCatalog::metrics_snapshot`]) are atomics, so monitoring never
//!   takes a lock;
//! * **bounded** — an optional byte budget triggers least-recently-used
//!   eviction across shards.
//!
//! Every [`crate::server::PbdsServer`] session, and every server sharing one
//! catalog, shares one self-tuning state.

use crate::reuse::ReuseChecker;
use crate::safety::{BoundKey, ColumnBounds, PartitionAttr, SafetyChecker};
use pbds_algebra::QueryTemplate;
use pbds_persist::{PersistedCatalog, PersistedCatalogEntry};
use pbds_provenance::ProvenanceSketch;
use pbds_storage::{Database, Partition, PartitionRef, RangePartition, Row, Schema, Value};
use pbds_telemetry::{Counter, Gauge, MetricsSnapshot, Registry};
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use pbds_sync::TrackedRwLock;

/// Number of lock shards (templates are hashed across them).
const SHARDS: usize = 8;

/// Upper bound on a template's memoized reuse-check outcomes (when reached,
/// the memo is cleared: it is a cache, and clearing only costs
/// re-derivation) and on the bindings it keeps denials for.
const MEMO_CAPACITY: usize = 4096;

/// One coalesced table-level mutation delta of a batch, for
/// [`SketchCatalog::apply_deltas`]. Applying a batch — a commit batch, or the
/// WAL records a restart replays — merges its per-mutation effects into at
/// most a few of these per table (consecutive appends collapse into one
/// `Append` carrying the combined rows) so the catalog walks its shards once
/// per batch instead of once per mutation.
#[derive(Debug, Clone)]
pub enum CatalogDelta {
    /// Rows appended to `table`.
    ///
    /// Per the paper's superset semantics, a stored sketch stays safe across
    /// an append when every fragment that received new rows joins the
    /// sketch: untouched groups keep their membership, and any group whose
    /// aggregate the new rows changed lives entirely inside a now-included
    /// fragment (the partition attributes are the group-defining safe
    /// attributes). Entries maintained to `prev_epoch` are therefore
    /// *extended* in place and advance to `new_epoch` — unless a new row has
    /// no fragment under an entry's partition (novel composite key / NULL
    /// partitioning value) or the entry missed an earlier mutation (epoch
    /// gap), in which case the entry is dropped and must be recaptured.
    /// Reuse memos of the templates reading this table are invalidated (the
    /// reuse check depends on its statistics, which changed) — templates
    /// over unrelated tables keep their caches. A memoized safe-attribute
    /// choice survives for as long as the table's bounds stay inside the
    /// ones it was proven under (see [`SketchCatalog::safe_attrs`]; a new
    /// negative value, say, moves a minimum out and forces a new
    /// derivation).
    Append {
        /// The mutated table.
        table: String,
        /// The table's *data* epoch before the append(s).
        prev_epoch: u64,
        /// The table's data epoch after the append(s).
        new_epoch: u64,
        /// The appended rows, in append order.
        rows: Vec<Row>,
    },
    /// Rows deleted from `table`.
    ///
    /// Entries maintained to `prev_epoch` are kept and advance to
    /// `new_epoch`: a sketch instance still contains *all* remaining rows of
    /// every included fragment, so aggregates over included groups are
    /// computed correctly, and under the safety rules' monotonicity
    /// assumptions a group that was excluded cannot enter the result by
    /// losing rows — the sketch remains a safe superset. What a delete does
    /// invalidate is what was derived from the old statistics and cannot
    /// tell whether it still applies: reuse memos, adaptive evidence
    /// counters, and cached range partitions of the table (their equi-depth
    /// boundaries came from the old histogram). A memoized safe-attribute
    /// choice can tell — a delete only moves bounds inward — and stays.
    /// Entries that missed an earlier mutation (epoch gap) are dropped.
    Delete {
        /// The mutated table.
        table: String,
        /// The table's data epoch before the delete.
        prev_epoch: u64,
        /// The table's data epoch after the delete.
        new_epoch: u64,
    },
}

impl CatalogDelta {
    fn table(&self) -> &str {
        match self {
            CatalogDelta::Append { table, .. } | CatalogDelta::Delete { table, .. } => table,
        }
    }

    fn new_epoch(&self) -> u64 {
        match self {
            CatalogDelta::Append { new_epoch, .. } | CatalogDelta::Delete { new_epoch, .. } => {
                *new_epoch
            }
        }
    }
}

/// One stored sketch set: the binding it was captured for plus the captured
/// sketches (one per partitioned relation).
struct CatalogEntry {
    /// Stable id (survives vector reshuffling on eviction).
    id: u64,
    binding: Vec<Value>,
    sketches: Vec<ProvenanceSketch>,
    /// Per sketched table, the table epoch the sketches reflect: the epoch
    /// of the database they were captured against, advanced by
    /// [`SketchCatalog::apply_deltas`] as the sketches are maintained across
    /// mutations. A reuse lookup only offers an entry whose recorded epochs
    /// match the serving database exactly, so a mutation that bypassed
    /// maintenance silently disables — never mis-serves — the stored
    /// sketches.
    capture_epochs: HashMap<String, u64>,
    bytes: usize,
    /// Logical LRU timestamp (global clock tick of the last hit).
    last_used: AtomicU64,
}

impl CatalogEntry {
    /// True when every sketched table still sits at the data epoch this
    /// entry's sketches were maintained to. Data epochs are globally unique
    /// (see `pbds_storage::Table::data_epoch`), so equality implies the
    /// table content is exactly the state the sketches describe — even
    /// across copy-on-write forks of a database; and design-only changes
    /// (new index, new block size) do not disturb freshness.
    fn fresh(&self, db: &Database) -> bool {
        self.capture_epochs.iter().all(|(table, &epoch)| {
            db.table(table)
                .map(|t| t.data_epoch() == epoch)
                .unwrap_or(false)
        })
    }
}

/// Record, per sketched table, the data epoch of the database the sketches
/// were captured against.
fn capture_epochs_of(db: &Database, sketches: &[ProvenanceSketch]) -> HashMap<String, u64> {
    let mut epochs = HashMap::new();
    for s in sketches {
        if let Ok(t) = db.table(s.table()) {
            epochs.insert(s.table().to_string(), t.data_epoch());
        }
    }
    epochs
}

/// Catalog key of a template: its name combined with its structural
/// fingerprint, so two templates sharing a name but differing in query shape
/// can never see each other's sketches, memos or metadata (important for
/// `serve_plan`-style callers that pick names ad hoc). Persisted catalogs
/// store entries under this string.
fn template_key(template: &QueryTemplate) -> String {
    format!("{}#{:016x}", template.name(), template.fingerprint())
}

/// Outcome of [`SketchCatalog::import`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CatalogImport {
    /// Entries accepted (every capture epoch matched the recovered
    /// database).
    pub imported: usize,
    /// Entries dropped as epoch-stale (or structurally unusable).
    pub dropped: usize,
}

/// A catalog hit: the stored sketches plus the entry's stable id, which the
/// caller reports back through
/// [`SketchCatalog::note_revalidation_failure`] when the runtime top-k
/// re-validation disproves the reuse.
#[derive(Debug, Clone)]
pub struct ReusableSketches {
    /// Stable id of the stored entry that answered the lookup.
    pub entry_id: u64,
    /// The stored sketches (one per partitioned relation).
    pub sketches: Vec<ProvenanceSketch>,
}

/// A memoized safety verdict together with what it was proven under.
struct SafeAttrs {
    /// Chosen safe partition attributes (`None` = query is not sketch-safe).
    attrs: Option<Vec<PartitionAttr>>,
    /// The column bounds assumed by the proof: the verdict holds on every
    /// database whose bounds lie inside these.
    proven_under: ColumnBounds,
}

/// Everything the catalog knows about one template.
#[derive(Default)]
struct TemplateState {
    /// Stored entries, in insertion order.
    entries: Vec<CatalogEntry>,
    /// Reuse-check memo by binding: `Some(id)` = entry `id` answers it,
    /// `None` = nothing stored answers it.
    memo: HashMap<Vec<Value>, Option<u64>>,
    /// Per binding, the entries runtime top-k re-validation disproved for
    /// it: the solver said reusable, execution said otherwise. Unlike
    /// negative memos, inserts do not clear these — a binding's denials are
    /// only forgotten when [`MEMO_CAPACITY`] bindings hold some.
    denied: HashMap<Vec<Value>, Vec<u64>>,
    /// Bumped whenever the entries, the denials or a table the template
    /// reads change; guards against a stale memo write racing with them.
    version: u64,
    /// The memoized safety verdict, if one has been derived.
    safe_attrs: Option<SafeAttrs>,
    /// Bounds that have escaped a memoized verdict's premises so far: the
    /// next derivation is tried with these widened, so a column that keeps
    /// moving one way (an ascending id) does not cost a derivation per batch.
    moved: HashSet<BoundKey>,
    /// Adaptive-strategy evidence counter (missed reuse opportunities).
    evidence: usize,
    /// Base tables the template reads (`None` for a record only
    /// [`SketchCatalog::import`] has seen). Lets mutation maintenance
    /// invalidate only the templates that actually touch the mutated table.
    tables: Option<HashSet<String>>,
    /// Bindings whose capture is currently in flight (server sessions use
    /// this to avoid enqueueing duplicate capture work).
    pending: HashSet<Vec<Value>>,
}

impl TemplateState {
    /// The one lookup behind [`SketchCatalog::find_reusable`] and
    /// [`SketchCatalog::is_covered`]: the entry that answers `binding` on
    /// `db`, and whether the memo gave the answer. A memoized entry answers
    /// only while it is fresh against `db` (a mutation that bypassed
    /// maintenance falls through to the scan); otherwise the first entry
    /// that is fresh, not denied for `binding` and approved by the reuse
    /// check answers. Pure: no counters, LRU stamps or memo writes.
    fn lookup(
        &self,
        db: &Database,
        template: &QueryTemplate,
        binding: &[Value],
    ) -> (Option<&CatalogEntry>, bool) {
        match self.memo.get(binding) {
            Some(None) => return (None, true),
            Some(&Some(id)) => {
                let memoized = self.entries.iter().find(|e| e.id == id);
                if let Some(e) = memoized.filter(|e| e.fresh(db)) {
                    return (Some(e), true);
                }
            }
            None => {}
        }
        let denied = self.denied.get(binding).map_or(&[][..], Vec::as_slice);
        let checker = ReuseChecker::new(db);
        let found = self.entries.iter().find(|e| {
            !denied.contains(&e.id)
                && e.fresh(db)
                && checker.can_reuse(template, &e.binding, binding).reusable
        });
        (found, false)
    }

    /// True when the template may read one of `tables` (a record that does
    /// not know its tables may read any).
    fn reads_any(&self, tables: &HashSet<&str>) -> bool {
        self.tables
            .as_ref()
            .is_none_or(|ts| tables.iter().any(|t| ts.contains(*t)))
    }
}

/// One lock shard: template key → that template's record.
type Shard = HashMap<String, TemplateState>;

/// The record of `template` under `key`, created on first use; learns the
/// template's tables when the record does not know them yet.
fn state_of<'a>(
    shard: &'a mut Shard,
    key: String,
    template: &QueryTemplate,
) -> &'a mut TemplateState {
    let state = shard.entry(key).or_default();
    state
        .tables
        .get_or_insert_with(|| template.plan().tables().into_iter().collect());
    state
}

/// Everything the catalog knows about one table.
#[derive(Default)]
struct TableState {
    /// Data epoch of the last mutation the catalog processed; inserts of
    /// sketch sets captured against an older epoch are rejected as stale.
    epoch: u64,
    /// Cached range partitions, by column.
    partitions: HashMap<String, PartitionRef>,
}

/// A thread-safe, shared store of provenance sketches keyed by query
/// template. See the [module docs](self) for the design.
pub struct SketchCatalog {
    /// Soft upper bound on the total bytes of stored sketches; `None` means
    /// unbounded. When an insertion pushes the total above the budget, the
    /// least-recently-used entries (other than the one just inserted) are
    /// evicted until the total fits again.
    byte_budget: Option<usize>,
    shards: Vec<TrackedRwLock<Shard>>,
    tables: TrackedRwLock<HashMap<String, TableState>>,
    clock: AtomicU64,
    next_id: AtomicU64,
    /// The catalog's metrics registry: every counter below is a cached
    /// handle into it, read through [`SketchCatalog::metrics_snapshot`].
    registry: Registry,
    bytes: Gauge,
    hits: Counter,
    misses: Counter,
    evictions: Counter,
    memo_hits: Counter,
    extended: Counter,
    invalidated: Counter,
    maintenance_deltas: Counter,
}

impl std::fmt::Debug for SketchCatalog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SketchCatalog")
            .field("byte_budget", &self.byte_budget)
            .field("metrics", &self.metrics_snapshot())
            .finish()
    }
}

impl Default for SketchCatalog {
    fn default() -> Self {
        SketchCatalog::build(None)
    }
}

impl SketchCatalog {
    /// An empty catalog holding at most `byte_budget` bytes of sketches.
    fn build(byte_budget: Option<usize>) -> Self {
        let shards = (0..SHARDS)
            .map(|_| TrackedRwLock::new("catalog.shard", Shard::default()))
            .collect();
        let registry = Registry::new();
        SketchCatalog {
            byte_budget,
            shards,
            tables: TrackedRwLock::new("catalog.tables", HashMap::new()),
            clock: AtomicU64::new(0),
            next_id: AtomicU64::new(0),
            bytes: registry.gauge("pbds_catalog_bytes"),
            hits: registry.counter("pbds_catalog_hits"),
            misses: registry.counter("pbds_catalog_misses"),
            evictions: registry.counter("pbds_catalog_evictions"),
            memo_hits: registry.counter("pbds_catalog_memo_hits"),
            extended: registry.counter("pbds_catalog_extended"),
            invalidated: registry.counter("pbds_catalog_invalidated"),
            maintenance_deltas: registry.counter("pbds_catalog_maintenance_deltas"),
            registry,
        }
    }

    /// Create a catalog with a byte budget; [`SketchCatalog::default`] is
    /// unbounded.
    pub fn with_byte_budget(budget: usize) -> Self {
        SketchCatalog::build(Some(budget))
    }

    fn shard_for(&self, template: &str) -> &TrackedRwLock<Shard> {
        let mut h = DefaultHasher::new();
        template.hash(&mut h);
        &self.shards[(h.finish() as usize) % self.shards.len()]
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    /// A new entry with a fresh id and LRU stamp.
    fn new_entry(
        &self,
        binding: Vec<Value>,
        sketches: Vec<ProvenanceSketch>,
        capture_epochs: HashMap<String, u64>,
    ) -> CatalogEntry {
        let bytes = sketches.iter().map(|s| s.size_bytes()).sum::<usize>()
            + std::mem::size_of_val(&binding[..]);
        CatalogEntry {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            binding,
            sketches,
            capture_epochs,
            bytes,
            last_used: AtomicU64::new(self.tick()),
        }
    }

    /// Find a stored sketch set that can answer `template(binding)`,
    /// consulting the reuse-check memo first. Counts a hit or a miss and
    /// refreshes the winning entry's LRU stamp.
    pub fn find_reusable(
        &self,
        db: &Database,
        template: &QueryTemplate,
        binding: &[Value],
    ) -> Option<ReusableSketches> {
        let key = template_key(template);
        let shard = self.shard_for(&key);
        let (outcome, version) = {
            let guard = shard.read();
            let state = guard.get(&key);
            let (found, memoized) =
                state.map_or((None, false), |s| s.lookup(db, template, binding));
            if memoized {
                self.memo_hits.inc();
            }
            let outcome = match found {
                Some(e) => {
                    e.last_used.store(self.tick(), Ordering::Relaxed);
                    self.hits.inc();
                    Some(ReusableSketches {
                        entry_id: e.id,
                        sketches: e.sketches.clone(),
                    })
                }
                None => {
                    self.misses.inc();
                    None
                }
            };
            if memoized {
                return outcome;
            }
            (outcome, state.map_or(0, |s| s.version))
        };

        // Record the outcome in the memo — but only if no insert/eviction/
        // denial/mutation changed the template in between (a stale memo
        // entry would otherwise suppress reuse of a sketch inserted
        // concurrently, or resurrect a just-denied pair), and only if every
        // entry of the template is fresh against `db`. An outcome computed
        // while any entry disagrees with the snapshot's data epoch — e.g. a
        // session holding a pre-mutation snapshot after the entry was
        // maintained forward — is snapshot-dependent: caching its miss would
        // suppress reuse for every later current-snapshot lookup of this
        // binding.
        let mut guard = shard.write();
        let state = state_of(&mut guard, key, template);
        if state.version == version && state.entries.iter().all(|e| e.fresh(db)) {
            if state.memo.len() >= MEMO_CAPACITY {
                state.memo.clear();
            }
            let id = outcome.as_ref().map(|r| r.entry_id);
            state.memo.insert(binding.to_vec(), id);
        }
        outcome
    }

    /// Quiet coverage probe for background capture workers: true when a
    /// stored sketch already answers `template(binding)`. It runs the same
    /// lookup as [`SketchCatalog::find_reusable`] but touches no hit/miss
    /// counters, no use counts, no LRU stamps and no memo — monitoring keeps
    /// reflecting serving traffic only, and a background re-check cannot
    /// keep a cold entry alive under eviction.
    pub fn is_covered(&self, db: &Database, template: &QueryTemplate, binding: &[Value]) -> bool {
        let key = template_key(template);
        let guard = self.shard_for(&key).read();
        guard
            .get(&key)
            .is_some_and(|s| s.lookup(db, template, binding).0.is_some())
    }

    /// Record that the runtime top-k re-validation disproved a reuse the
    /// solver had approved: the `(binding, entry)` pair is not offered again
    /// (until capacity-bound eviction forgets it), so the caller's plain
    /// fallback happens once instead of on every future lookup of this
    /// binding (an Eager client will capture a properly covering sketch on
    /// its next miss).
    pub fn note_revalidation_failure(
        &self,
        template: &QueryTemplate,
        binding: &[Value],
        entry_id: u64,
    ) {
        let key = template_key(template);
        let mut guard = self.shard_for(&key).write();
        let state = state_of(&mut guard, key, template);
        state.version += 1; // invalidate concurrent memo writes for this pair
        state.memo.remove(binding);
        // Bound the denials by forgetting one other binding's, never
        // wholesale: a resurrected pair costs a double execution, so
        // forgetting should be as rare and as local as possible.
        if state.denied.len() >= MEMO_CAPACITY && !state.denied.contains_key(binding) {
            if let Some(victim) = state.denied.keys().next().cloned() {
                state.denied.remove(&victim);
            }
        }
        state
            .denied
            .entry(binding.to_vec())
            .or_default()
            .push(entry_id);
    }

    /// Store a freshly captured sketch set for `template(binding)`,
    /// recording — per sketched table — the epoch of `db` (the database the
    /// capture ran against) so later mutations can maintain or invalidate
    /// the entry. A sketch set captured against a table epoch older than the
    /// last mutation this catalog processed is **rejected** (it would serve
    /// pre-mutation data) and `None` is returned; otherwise invalidates the
    /// template's negative memo entries, evicts LRU entries if the byte
    /// budget is exceeded, and returns the new entry's id.
    pub fn insert(
        &self,
        db: &Database,
        template: &QueryTemplate,
        binding: &[Value],
        sketches: Vec<ProvenanceSketch>,
    ) -> Option<u64> {
        let capture_epochs = capture_epochs_of(db, &sketches);
        {
            let mut tables = self.tables.write();
            let stale = capture_epochs
                .iter()
                .any(|(table, &epoch)| tables.get(table).is_some_and(|t| t.epoch > epoch));
            if stale {
                // Captured against a pre-mutation snapshot.
                self.invalidated.inc();
                return None;
            }
            for (table, &epoch) in &capture_epochs {
                tables.entry(table.clone()).or_default().epoch = epoch;
            }
        }
        let entry = self.new_entry(binding.to_vec(), sketches, capture_epochs);
        let (id, bytes) = (entry.id, entry.bytes);
        {
            let key = template_key(template);
            let mut guard = self.shard_for(&key).write();
            let state = state_of(&mut guard, key, template);
            state.version += 1;
            // The new sketch may answer bindings that previously missed:
            // the template's negative memo entries are now stale.
            state.memo.retain(|_, outcome| outcome.is_some());
            state.entries.push(entry);
        }
        self.bytes.add(bytes as i64);
        if let Some(budget) = self.byte_budget {
            self.evict_to_budget(budget, id);
        }
        Some(id)
    }

    /// Maintain the catalog across a whole **commit batch** of coalesced
    /// mutation deltas in one pass: the table records, then every template
    /// record — its memo, evidence counter and stored entries — are each
    /// visited **once** for the batch instead of once per mutation, and
    /// every entry is extended/advanced through the deltas *in order* — so a
    /// sketch captured at the pre-batch epoch ends the pass stamped with the
    /// post-batch epoch exactly as if each delta had been applied on its
    /// own (see [`CatalogDelta`] for what each kind maintains). A template
    /// that reads none of the mutated tables keeps its memo and evidence.
    /// `db` is the **post-batch** database, which supplies each mutated
    /// table's schema. Deltas for tables `db` does not contain are skipped.
    pub fn apply_deltas(&self, db: &Database, deltas: &[CatalogDelta]) {
        // Each delta with its table's schema.
        let deltas: Vec<(&CatalogDelta, &Schema)> = deltas
            .iter()
            .filter_map(|d| Some((d, db.table(d.table()).ok()?.schema())))
            .collect();
        if deltas.is_empty() {
            return;
        }
        self.maintenance_deltas.add(deltas.len() as u64);
        let affected: HashSet<&str> = deltas.iter().map(|(d, _)| d.table()).collect();
        let deleted: HashSet<&str> = deltas
            .iter()
            .filter(|(d, _)| matches!(d, CatalogDelta::Delete { .. }))
            .map(|(d, _)| d.table())
            .collect();
        {
            let mut tables = self.tables.write();
            for (d, _) in &deltas {
                let table = tables.entry(d.table().to_string()).or_default();
                table.epoch = d.new_epoch();
                if matches!(d, CatalogDelta::Delete { .. }) {
                    table.partitions.clear();
                }
            }
        }
        for shard in &self.shards {
            let mut guard = shard.write();
            let mut freed = 0usize;
            let mut dropped = 0u64;
            let mut extended = 0u64;
            for state in guard.values_mut() {
                if state.reads_any(&affected) {
                    state.version += 1;
                    state.memo.clear();
                }
                if !deleted.is_empty() && state.reads_any(&deleted) {
                    state.evidence = 0;
                }
                state.entries.retain_mut(|e| {
                    for &(d, schema) in &deltas {
                        let table = d.table();
                        if !e.capture_epochs.contains_key(table) {
                            continue; // entry does not sketch this table
                        }
                        let keep = match d {
                            CatalogDelta::Append {
                                prev_epoch,
                                new_epoch,
                                rows,
                                ..
                            } => {
                                let maintainable = e.capture_epochs.get(table) == Some(prev_epoch)
                                    && e.sketches
                                        .iter_mut()
                                        .filter(|s| s.table() == table)
                                        .all(|s| s.extend_for_append(schema, rows));
                                if maintainable {
                                    e.capture_epochs.insert(table.to_string(), *new_epoch);
                                    extended += 1;
                                }
                                maintainable
                            }
                            CatalogDelta::Delete {
                                prev_epoch,
                                new_epoch,
                                ..
                            } => {
                                let current = e.capture_epochs.get(table) == Some(prev_epoch);
                                if current {
                                    e.capture_epochs.insert(table.to_string(), *new_epoch);
                                }
                                current
                            }
                        };
                        if !keep {
                            freed += e.bytes;
                            dropped += 1;
                            return false;
                        }
                    }
                    true
                });
            }
            self.bytes.add(-(freed as i64));
            self.invalidated.add(dropped);
            self.extended.add(extended);
        }
    }

    /// Evict least-recently-used entries (never `keep_id`) until the total
    /// byte count fits the budget or nothing else can be evicted.
    fn evict_to_budget(&self, budget: usize, keep_id: u64) {
        // Outer loop only repeats when concurrent inserts re-exceed the
        // budget while we evict; each iteration plans a whole *batch* of
        // victims from one global scan, so steady-state churn costs one scan
        // per over-budget insert, not one scan per evicted entry. Locks are
        // taken one shard at a time, never pairwise, so this cannot deadlock
        // against concurrent lookups or inserts.
        loop {
            let excess = (self.bytes.get().max(0) as usize).saturating_sub(budget);
            if excess == 0 {
                return;
            }
            // One global scan collecting (last_used, shard, id, bytes).
            let mut candidates: Vec<(u64, usize, u64, usize)> = Vec::new();
            for (si, shard) in self.shards.iter().enumerate() {
                let guard = shard.read();
                for e in guard.values().flat_map(|s| &s.entries) {
                    if e.id != keep_id {
                        candidates.push((e.last_used.load(Ordering::Relaxed), si, e.id, e.bytes));
                    }
                }
            }
            if candidates.is_empty() {
                return; // nothing evictable (the new entry alone exceeds the budget)
            }
            // Plan the LRU-ordered batch covering the excess.
            candidates.sort_unstable_by_key(|&(last_used, ..)| last_used);
            let mut victims_by_shard: HashMap<usize, Vec<u64>> = HashMap::new();
            let mut planned = 0usize;
            for (_, si, id, bytes) in candidates {
                victims_by_shard.entry(si).or_default().push(id);
                planned += bytes;
                if planned >= excess {
                    break;
                }
            }
            let mut evicted_any = false;
            for (si, ids) in victims_by_shard {
                let mut guard = self.shards[si].write();
                for vid in ids {
                    // A victim may have vanished concurrently; skip it.
                    for state in guard.values_mut() {
                        let Some(pos) = state.entries.iter().position(|e| e.id == vid) else {
                            continue;
                        };
                        let freed = state.entries.remove(pos).bytes;
                        state.version += 1;
                        // Positive memo entries pointing at the evicted
                        // sketch are now dangling.
                        state.memo.retain(|_, outcome| *outcome != Some(vid));
                        self.bytes.add(-(freed as i64));
                        self.evictions.inc();
                        evicted_any = true;
                        break;
                    }
                }
            }
            if !evicted_any {
                return; // every planned victim vanished; avoid spinning
            }
        }
    }

    /// Export every stored entry into the durable
    /// [`PersistedCatalog`] format: template key, binding,
    /// sketches and the per-table capture epochs each entry was maintained
    /// to. Volatile state — reuse memos, denial sets, LRU stamps, counters,
    /// safe-attribute choices, cached partitions — is deliberately *not*
    /// exported; it is cheap to re-derive and much of it depends on table
    /// statistics that a later process may not reproduce. Entries are
    /// emitted in a deterministic order (template key, then binding).
    pub fn export(&self) -> PersistedCatalog {
        let mut entries: Vec<PersistedCatalogEntry> = Vec::new();
        for shard in &self.shards {
            let guard = shard.read();
            for (key, state) in guard.iter() {
                for e in &state.entries {
                    let mut capture_epochs: Vec<(String, u64)> = e
                        .capture_epochs
                        .iter()
                        .map(|(t, &epoch)| (t.clone(), epoch))
                        .collect();
                    capture_epochs.sort();
                    entries.push(PersistedCatalogEntry {
                        template_key: key.clone(),
                        binding: e.binding.clone(),
                        sketches: e.sketches.clone(),
                        capture_epochs,
                    });
                }
            }
        }
        entries.sort_by(|a, b| (&a.template_key, &a.binding).cmp(&(&b.template_key, &b.binding)));
        PersistedCatalog { entries }
    }

    /// Import entries from a persisted catalog, validating each against the
    /// recovered database: an entry is accepted only when **every** sketch's
    /// table exists in `db` and sits at exactly the data epoch the entry
    /// recorded — anything else (a table that was mutated after the catalog
    /// was written, a table the snapshot no longer has, an entry missing an
    /// epoch for one of its sketched tables) is dropped and counted. Stale
    /// sketches are therefore structurally unreachable across restarts
    /// exactly as they are within a process. Also seeds the catalog's
    /// per-table mutation epochs from `db`, so a capture racing a later
    /// mutation is rejected just as in a fresh catalog.
    ///
    /// Intended for a freshly created catalog during recovery; imported
    /// entries start with cold LRU stamps and zero use counts.
    pub fn import(&self, db: &Database, persisted: PersistedCatalog) -> CatalogImport {
        {
            let mut tables = self.tables.write();
            for name in db.table_names() {
                let epoch = db.table(name).expect("listed table exists").data_epoch();
                tables.entry(name.to_string()).or_default().epoch = epoch;
            }
        }
        let mut report = CatalogImport::default();
        for entry in persisted.entries {
            let stored = self.new_entry(
                entry.binding,
                entry.sketches,
                entry.capture_epochs.into_iter().collect(),
            );
            let valid = !stored.sketches.is_empty()
                && (stored.sketches.iter()).all(|s| stored.capture_epochs.contains_key(s.table()))
                && stored.fresh(db);
            if !valid {
                report.dropped += 1;
                continue;
            }
            let bytes = stored.bytes;
            {
                let mut guard = self.shard_for(&entry.template_key).write();
                let state = guard.entry(entry.template_key).or_default();
                state.version += 1;
                state.entries.push(stored);
            }
            self.bytes.add(bytes as i64);
            report.imported += 1;
        }
        self.invalidated.add(report.dropped as u64);
        if let Some(budget) = self.byte_budget {
            self.evict_to_budget(budget, u64::MAX);
        }
        report
    }

    /// Number of stored sketch entries across all templates.
    pub fn stored_sketches(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().values().map(|t| t.entries.len()).sum::<usize>())
            .sum()
    }

    /// Freeze this catalog's `pbds_catalog_*` metrics into a
    /// [`MetricsSnapshot`]: the `hits`, `misses`, `memo_hits` (a subset of
    /// hits + misses), `evictions`, `extended`, `invalidated` and
    /// `maintenance_deltas` counters (coalesced deltas, so `mutations ≫
    /// maintenance_deltas` is group commit at work), the `bytes` gauge, and
    /// the `stored` gauge (derived from the shard walk, so it is injected at
    /// snapshot time rather than maintained as a live atomic).
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.registry.snapshot();
        snap.gauges.insert(
            "pbds_catalog_stored".to_string(),
            self.stored_sketches() as i64,
        );
        snap
    }

    /// Safe partition attributes for a template (`None` = the query admits no
    /// safe sketch), derived once and shared for as long as the proof
    /// applies. The table statistics enter the safety check only as premises
    /// (`min <= a <= max` per column), so a verdict proven under some bounds
    /// holds on every database whose bounds lie inside them: the memoized
    /// verdict is returned when `db`'s bounds do, and re-derived when one has
    /// moved out. A re-derivation is tried under bounds widened on every side
    /// that has moved out before; the widened bounds are recorded only if
    /// the verdict under them equals the verdict under `db`'s exact bounds.
    pub fn safe_attrs(
        &self,
        db: &Database,
        template: &QueryTemplate,
    ) -> Option<Vec<PartitionAttr>> {
        let key = template_key(template);
        let shard = self.shard_for(&key);
        // Fast path, under the shared lock: a verdict whose premises hold.
        if let Some(known) = shard.read().get(&key).and_then(|s| s.safe_attrs.as_ref()) {
            if known.proven_under.escaped_by(db).is_empty() {
                return known.attrs.clone();
            }
        }
        let moved = {
            let mut guard = shard.write();
            let state = state_of(&mut guard, key.clone(), template);
            if let Some(known) = &state.safe_attrs {
                state.moved.extend(known.proven_under.escaped_by(db));
            }
            state.moved.clone()
        };
        // Run the (solver-backed) safety analysis *outside* the lock so the
        // first query of one template cannot stall concurrent sessions
        // serving other templates of its shard. A racing duplicate
        // derivation just stores its own verdict with its own bounds.
        let tables: HashSet<String> = template.plan().tables().into_iter().collect();
        let exact = ColumnBounds::of(db, &tables);
        let attrs = SafetyChecker::new(db).choose_safe_attributes(template.plan(), &[]);
        let wide = exact.widened(&moved);
        let holds_wide = wide != exact
            && SafetyChecker::assuming(db, &wide).choose_safe_attributes(template.plan(), &[])
                == attrs;
        let mut guard = shard.write();
        state_of(&mut guard, key, template).safe_attrs = Some(SafeAttrs {
            attrs: attrs.clone(),
            proven_under: if holds_wide { wide } else { exact },
        });
        attrs
    }

    /// Bump the adaptive-strategy evidence counter for a template; returns
    /// `true` (and resets the counter) once `threshold` missed reuse
    /// opportunities have accumulated.
    pub fn evidence_reached(&self, template: &QueryTemplate, threshold: usize) -> bool {
        let key = template_key(template);
        let mut guard = self.shard_for(&key).write();
        let state = state_of(&mut guard, key, template);
        state.evidence += 1;
        if state.evidence >= threshold {
            state.evidence = 0;
            true
        } else {
            false
        }
    }

    /// Build (or fetch the cached) range partition for a safe attribute.
    pub fn partition_for(
        &self,
        db: &Database,
        attr: &PartitionAttr,
        fragments: usize,
    ) -> Option<PartitionRef> {
        if let Some(t) = self.tables.read().get(&attr.table) {
            if let Some(p) = t.partitions.get(&attr.column) {
                return Some(p.clone());
            }
        }
        let table = db.table(&attr.table).ok()?;
        let partition = RangePartition::of_column(table, &attr.column, fragments)?;
        let part: PartitionRef = Arc::new(Partition::Range(partition));
        // Under a race, hand every caller the cached winner so all captures
        // share one `Arc<Partition>` per (table, column).
        let mut tables = self.tables.write();
        let t = tables.entry(attr.table.clone()).or_default();
        Some(
            t.partitions
                .entry(attr.column.clone())
                .or_insert(part)
                .clone(),
        )
    }

    /// Mark a `(template, binding)` capture as in flight. Returns `false`
    /// when it already was (the caller should not enqueue duplicate work).
    pub fn begin_capture(&self, template: &QueryTemplate, binding: &[Value]) -> bool {
        let key = template_key(template);
        let mut guard = self.shard_for(&key).write();
        state_of(&mut guard, key, template)
            .pending
            .insert(binding.to_vec())
    }

    /// Clear the in-flight mark set by [`SketchCatalog::begin_capture`].
    pub fn finish_capture(&self, template: &QueryTemplate, binding: &[Value]) {
        let key = template_key(template);
        if let Some(state) = self.shard_for(&key).write().get_mut(&key) {
            state.pending.remove(binding);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbds_algebra::{col, param, AggExpr, AggFunc, LogicalPlan};
    use pbds_storage::{DataType, Schema, TableBuilder};

    fn sales_db() -> Database {
        let schema = Schema::from_pairs(&[("grp", DataType::Int), ("amount", DataType::Int)]);
        let mut b = TableBuilder::new("sales", schema);
        b.block_size(100).index("grp");
        for i in 0..5_000i64 {
            b.push(vec![Value::Int(i % 50), Value::Int((i * 37) % 1000 + 1)]);
        }
        let mut db = Database::new();
        db.add_table(b.build());
        db
    }

    fn having_template() -> QueryTemplate {
        QueryTemplate::new(
            "sales-having",
            LogicalPlan::scan("sales")
                .aggregate(
                    vec!["grp"],
                    vec![AggExpr::new(AggFunc::Sum, col("amount"), "total")],
                )
                .filter(col("total").gt(param(0))),
        )
    }

    /// A `pbds_catalog_*` counter (panics on a missing name, so a typo fails
    /// loudly instead of reading zero).
    fn counter(catalog: &SketchCatalog, name: &str) -> u64 {
        catalog.metrics_snapshot().counter(name).expect(name)
    }

    fn gauge(catalog: &SketchCatalog, name: &str) -> i64 {
        catalog.metrics_snapshot().gauge(name).expect(name)
    }

    /// Capture a real sketch for one binding (via the safety checker and the
    /// capture pipeline) so catalog tests exercise genuine reuse semantics.
    fn capture_for(db: &Database, catalog: &SketchCatalog, bound: i64) -> Vec<ProvenanceSketch> {
        let t = having_template();
        let attrs = catalog.safe_attrs(db, &t).expect("sketch-safe");
        let parts: Vec<PartitionRef> = attrs
            .iter()
            .filter_map(|a| catalog.partition_for(db, a, 16))
            .collect();
        let captured = pbds_provenance::capture_sketches(
            db,
            &t.instantiate(&[Value::Int(bound)]),
            &parts,
            &pbds_provenance::CaptureConfig::optimized(),
        )
        .expect("capture");
        captured.sketches
    }

    #[test]
    fn miss_then_insert_then_hit_with_counters() {
        let db = sales_db();
        let catalog = SketchCatalog::default();
        let t = having_template();
        let loose = vec![Value::Int(50_000)];
        let tight = vec![Value::Int(53_000)];
        assert!(catalog.find_reusable(&db, &t, &loose).is_none());
        let sketches = capture_for(&db, &catalog, 50_000);
        catalog.insert(&db, &t, &loose, sketches);
        // A tighter bound reuses the stored sketch.
        assert!(catalog.find_reusable(&db, &t, &tight).is_some());
        assert_eq!(counter(&catalog, "pbds_catalog_hits"), 1);
        assert_eq!(counter(&catalog, "pbds_catalog_misses"), 1);
        assert_eq!(gauge(&catalog, "pbds_catalog_stored"), 1);
        assert!(gauge(&catalog, "pbds_catalog_bytes") > 0);
    }

    #[test]
    fn memo_answers_repeated_lookups_and_is_invalidated_by_insert() {
        let db = sales_db();
        let catalog = SketchCatalog::default();
        let t = having_template();
        let binding = vec![Value::Int(53_000)];
        // Two identical misses: the second one comes from the memo.
        assert!(catalog.find_reusable(&db, &t, &binding).is_none());
        assert!(catalog.find_reusable(&db, &t, &binding).is_none());
        assert_eq!(counter(&catalog, "pbds_catalog_memo_hits"), 1);
        // Inserting a reusable sketch must invalidate the negative memo:
        // the same binding now hits.
        let sketches = capture_for(&db, &catalog, 50_000);
        catalog.insert(&db, &t, &[Value::Int(50_000)], sketches);
        assert!(
            catalog.find_reusable(&db, &t, &binding).is_some(),
            "negative memo survived an insert"
        );
        // And the positive outcome is memoized in turn.
        assert!(catalog.find_reusable(&db, &t, &binding).is_some());
        assert_eq!(counter(&catalog, "pbds_catalog_memo_hits"), 2);
    }

    #[test]
    fn eviction_follows_lru_order_and_invalidates_memo() {
        let db = sales_db();
        let t = having_template();
        // Budget that fits two sketches but not three.
        let probe = capture_for(&db, &SketchCatalog::default(), 50_000);
        let one = probe.iter().map(|s| s.size_bytes()).sum::<usize>()
            + std::mem::size_of_val(&[Value::Int(0)][..]);
        let catalog = SketchCatalog::with_byte_budget(2 * one + one / 2);

        let b1 = vec![Value::Int(50_000)];
        let b2 = vec![Value::Int(40_000)];
        let b3 = vec![Value::Int(30_000)];
        catalog.insert(&db, &t, &b1, capture_for(&db, &catalog, 50_000));
        catalog.insert(&db, &t, &b2, capture_for(&db, &catalog, 40_000));
        // Touch entry 1 so entry 2 becomes the least recently used.
        assert!(catalog
            .find_reusable(&db, &t, &[Value::Int(53_000)])
            .is_some());
        catalog.insert(&db, &t, &b3, capture_for(&db, &catalog, 30_000));

        assert_eq!(counter(&catalog, "pbds_catalog_evictions"), 1);
        assert_eq!(gauge(&catalog, "pbds_catalog_stored"), 2);
        assert!(gauge(&catalog, "pbds_catalog_bytes") <= (2 * one + one / 2) as i64);
        // Entry 1 (recently touched) survived; a binding only entry 1
        // answers still hits.
        assert!(catalog
            .find_reusable(&db, &t, &[Value::Int(55_000)])
            .is_some());
    }

    #[test]
    fn revalidation_failure_denies_the_pair_but_not_the_entry() {
        let db = sales_db();
        let catalog = SketchCatalog::default();
        let t = having_template();
        let captured = vec![Value::Int(50_000)];
        catalog.insert(&db, &t, &captured, capture_for(&db, &catalog, 50_000));

        let bad = vec![Value::Int(53_000)];
        let good = vec![Value::Int(54_000)];
        let hit = catalog.find_reusable(&db, &t, &bad).expect("reusable");
        catalog.note_revalidation_failure(&t, &bad, hit.entry_id);
        // The disproved (binding, entry) pair is never offered again …
        assert!(catalog.find_reusable(&db, &t, &bad).is_none());
        assert!(!catalog.is_covered(&db, &t, &bad));
        // … and inserts (which clear negative memos) do not resurrect it …
        catalog.insert(
            &db,
            &t,
            &[Value::Int(49_000)],
            capture_for(&db, &catalog, 49_000),
        );
        let after = catalog.find_reusable(&db, &t, &bad).expect("new entry");
        assert_ne!(after.entry_id, hit.entry_id, "denied entry resurfaced");
        // … while other bindings still reuse the original entry.
        assert!(catalog.find_reusable(&db, &t, &good).is_some());
    }

    #[test]
    fn is_covered_probe_touches_no_counters() {
        let db = sales_db();
        let catalog = SketchCatalog::default();
        let t = having_template();
        catalog.insert(
            &db,
            &t,
            &[Value::Int(50_000)],
            capture_for(&db, &catalog, 50_000),
        );
        let before = catalog.metrics_snapshot();
        assert!(catalog.is_covered(&db, &t, &[Value::Int(53_000)]));
        assert!(!catalog.is_covered(&db, &t, &[Value::Int(10_000)]));
        let after = catalog.metrics_snapshot();
        assert_eq!(before, after, "quiet probe moved the counters");
        assert_eq!(counter(&catalog, "pbds_catalog_hits"), 0);
    }

    #[test]
    fn pending_capture_marks_deduplicate() {
        let catalog = SketchCatalog::default();
        let t = having_template();
        let b = vec![Value::Int(7)];
        assert!(catalog.begin_capture(&t, &b));
        assert!(!catalog.begin_capture(&t, &b));
        catalog.finish_capture(&t, &b);
        assert!(catalog.begin_capture(&t, &b));
    }

    #[test]
    fn evidence_counter_is_shared_and_resets() {
        let catalog = SketchCatalog::default();
        let t = having_template();
        assert!(!catalog.evidence_reached(&t, 3));
        assert!(!catalog.evidence_reached(&t, 3));
        assert!(catalog.evidence_reached(&t, 3));
        assert!(!catalog.evidence_reached(&t, 3));
    }

    #[test]
    fn same_name_different_shape_templates_never_share_sketches() {
        // serve_plan-style callers pick names ad hoc: a sketch captured for
        // one query shape must be invisible to a different shape that
        // happens to reuse the name.
        let db = sales_db();
        let catalog = SketchCatalog::default();
        let t = having_template();
        catalog.insert(
            &db,
            &t,
            &[Value::Int(50_000)],
            capture_for(&db, &catalog, 50_000),
        );
        let other_shape = QueryTemplate::new(
            t.name(), // same name, different plan
            LogicalPlan::scan("sales")
                .aggregate(
                    vec!["grp"],
                    vec![AggExpr::new(AggFunc::Count, col("amount"), "total")],
                )
                .filter(col("total").gt(param(0))),
        );
        assert!(
            catalog
                .find_reusable(&db, &other_shape, &[Value::Int(53_000)])
                .is_none(),
            "sketch leaked across query shapes"
        );
        assert!(!catalog.is_covered(&db, &other_shape, &[Value::Int(53_000)]));
        // The original shape still hits.
        assert!(catalog
            .find_reusable(&db, &t, &[Value::Int(53_000)])
            .is_some());
    }

    /// Append rows to `sales` (copy-on-write) and run the catalog's append
    /// maintenance as a one-delta batch, returning the mutated database.
    fn append_sales(db: &Database, catalog: &SketchCatalog, rows: Vec<Vec<Value>>) -> Database {
        let mut db2 = db.clone();
        let prev_epoch = db2.table("sales").unwrap().data_epoch();
        let new_epoch = db2.append_rows("sales", rows.clone()).unwrap();
        let delta = CatalogDelta::Append {
            table: "sales".into(),
            prev_epoch,
            new_epoch,
            rows,
        };
        catalog.apply_deltas(&db2, &[delta]);
        db2
    }

    /// Delete the `sales` rows matching `pred` (copy-on-write) and run the
    /// catalog's delete maintenance as a one-delta batch.
    fn delete_sales(
        db: &Database,
        catalog: &SketchCatalog,
        pred: impl FnMut(&Row) -> bool,
    ) -> Database {
        let mut db2 = db.clone();
        let prev_epoch = db2.table("sales").unwrap().data_epoch();
        db2.delete_where("sales", pred).unwrap();
        let delta = CatalogDelta::Delete {
            table: "sales".into(),
            prev_epoch,
            new_epoch: db2.table("sales").unwrap().data_epoch(),
        };
        catalog.apply_deltas(&db2, &[delta]);
        db2
    }

    #[test]
    fn append_extends_stored_sketches_and_keeps_them_reusable() {
        let db = sales_db();
        let catalog = SketchCatalog::default();
        let t = having_template();
        catalog.insert(
            &db,
            &t,
            &[Value::Int(50_000)],
            capture_for(&db, &catalog, 50_000),
        );
        let tight = vec![Value::Int(53_000)];
        assert!(catalog.find_reusable(&db, &t, &tight).is_some());

        let db2 = append_sales(
            &db,
            &catalog,
            (0..40)
                .map(|i| vec![Value::Int(i), Value::Int(500)])
                .collect(),
        );
        // The maintained entry serves the post-mutation database…
        assert!(
            catalog.find_reusable(&db2, &t, &tight).is_some(),
            "maintained sketch must stay reusable after an append"
        );
        assert!(counter(&catalog, "pbds_catalog_extended") >= 1);
        assert_eq!(counter(&catalog, "pbds_catalog_invalidated"), 0);
        // …and is never offered against the pre-mutation snapshot (its
        // epochs no longer match), so a stale-snapshot reader cannot observe
        // fragments that only exist in the future.
        assert!(catalog.find_reusable(&db, &t, &tight).is_none());
        // The stale-snapshot miss must not poison the memo: the next
        // current-snapshot lookup of the same binding still hits.
        assert!(
            catalog.find_reusable(&db2, &t, &tight).is_some(),
            "a stale-snapshot lookup memoized its miss for fresh snapshots"
        );
    }

    #[test]
    fn batched_deltas_match_sequential_maintenance() {
        // Applying a coalesced batch of deltas in one pass must leave the
        // catalog exactly as one call per mutation does — including an
        // append *followed by* a delete of the same table, where the append
        // rows must be carried by value because the delete shifted the tail.
        let db = sales_db();
        let t = having_template();
        let tight = vec![Value::Int(53_000)];

        // Sequential reference: append then delete, one call each.
        let seq = SketchCatalog::default();
        seq.insert(
            &db,
            &t,
            &[Value::Int(50_000)],
            capture_for(&db, &seq, 50_000),
        );
        let new_rows: Vec<Vec<Value>> = (0..10)
            .map(|i| vec![Value::Int(i), Value::Int(500)])
            .collect();
        let db_seq = append_sales(&db, &seq, new_rows.clone());
        let db_seq2 = delete_sales(&db_seq, &seq, |r| r[1] == Value::Int(500));
        assert!(seq.find_reusable(&db_seq2, &t, &tight).is_some());

        // Batched: same mutations through one apply_deltas call.
        let batched = SketchCatalog::default();
        batched.insert(
            &db,
            &t,
            &[Value::Int(50_000)],
            capture_for(&db, &batched, 50_000),
        );
        let mut db2 = db.clone();
        let prev_append = db2.table("sales").unwrap().data_epoch();
        let mid_epoch = db2.append_rows("sales", new_rows.clone()).unwrap();
        db2.delete_where("sales", |r| r[1] == Value::Int(500))
            .unwrap();
        let final_epoch = db2.table("sales").unwrap().data_epoch();
        batched.apply_deltas(
            &db2,
            &[
                CatalogDelta::Append {
                    table: "sales".into(),
                    prev_epoch: prev_append,
                    new_epoch: mid_epoch,
                    rows: new_rows.clone(),
                },
                CatalogDelta::Delete {
                    table: "sales".into(),
                    prev_epoch: mid_epoch,
                    new_epoch: final_epoch,
                },
            ],
        );
        assert!(
            batched.find_reusable(&db2, &t, &tight).is_some(),
            "entry must ride an append+delete batch and stay reusable"
        );
        // Same maintenance either way: the same counters (the batch counted
        // as two coalesced deltas, the sequential run as one per call — the
        // *batching* win shows when many mutations coalesce into few deltas,
        // which the server tests exercise) and the same fragments.
        for name in [
            "pbds_catalog_extended",
            "pbds_catalog_invalidated",
            "pbds_catalog_maintenance_deltas",
        ] {
            assert_eq!(counter(&batched, name), counter(&seq, name), "{name}");
        }
        assert_eq!(counter(&batched, "pbds_catalog_invalidated"), 0);
        assert_eq!(counter(&batched, "pbds_catalog_extended"), 1);
        assert_eq!(counter(&batched, "pbds_catalog_maintenance_deltas"), 2);
        let fragments = |c: &SketchCatalog| -> Vec<Vec<usize>> {
            c.export().entries[0]
                .sketches
                .iter()
                .map(|s| s.selected_fragments())
                .collect()
        };
        assert_eq!(fragments(&batched), fragments(&seq));
        // An entry that missed an epoch (gap) is dropped by a batch, too.
        let gap = SketchCatalog::default();
        gap.insert(
            &db,
            &t,
            &[Value::Int(50_000)],
            capture_for(&db, &gap, 50_000),
        );
        gap.apply_deltas(
            &db2,
            &[CatalogDelta::Delete {
                table: "sales".into(),
                prev_epoch: mid_epoch, // entry holds prev_append → gap
                new_epoch: final_epoch,
            }],
        );
        assert_eq!(counter(&gap, "pbds_catalog_invalidated"), 1);
        assert!(gap.find_reusable(&db2, &t, &tight).is_none());
    }

    #[test]
    fn design_changes_do_not_invalidate_stored_sketches() {
        let db = sales_db();
        let catalog = SketchCatalog::default();
        let t = having_template();
        catalog.insert(
            &db,
            &t,
            &[Value::Int(50_000)],
            capture_for(&db, &catalog, 50_000),
        );
        // Building a new index bumps the table's design epoch but not its
        // data epoch: sketches describe data, so reuse must survive.
        let mut db2 = db.clone();
        assert!(db2.table_mut("sales").unwrap().create_index("amount"));
        assert_ne!(
            db.table("sales").unwrap().epoch(),
            db2.table("sales").unwrap().epoch()
        );
        assert_eq!(
            db.table("sales").unwrap().data_epoch(),
            db2.table("sales").unwrap().data_epoch()
        );
        assert!(
            catalog
                .find_reusable(&db2, &t, &[Value::Int(53_000)])
                .is_some(),
            "an index build stranded every stored sketch"
        );
    }

    #[test]
    fn mutations_spare_caches_of_unrelated_templates() {
        let db = sales_db();
        let catalog = SketchCatalog::default();
        let t = having_template();
        // An unrelated template over a different table with memoized state.
        let mut db_both = db.clone();
        let other_schema = Schema::from_pairs(&[("x", DataType::Int)]);
        db_both.add_table(pbds_storage::Table::new(
            "other",
            other_schema,
            (0..100i64).map(|i| vec![Value::Int(i)]).collect(),
        ));
        let other_t = QueryTemplate::new(
            "other-having",
            LogicalPlan::scan("other")
                .aggregate(vec!["x"], vec![AggExpr::new(AggFunc::Count, col("x"), "c")])
                .filter(col("c").gt(param(0))),
        );
        // Learn both templates' table sets and memoize a miss for `other`.
        catalog.safe_attrs(&db_both, &t);
        catalog.safe_attrs(&db_both, &other_t);
        assert!(catalog
            .find_reusable(&db_both, &other_t, &[Value::Int(5)])
            .is_none());
        let memo_before = counter(&catalog, "pbds_catalog_memo_hits");

        // Mutating `sales` must not clear the memo of the `other` template.
        let db2 = append_sales(&db_both, &catalog, vec![vec![Value::Int(1), Value::Int(7)]]);

        assert!(catalog
            .find_reusable(&db2, &other_t, &[Value::Int(5)])
            .is_none());
        assert!(
            counter(&catalog, "pbds_catalog_memo_hits") > memo_before,
            "unrelated template's memo was wiped by the mutation"
        );
    }

    /// The rule that lets a safety verdict outlive a commit batch, on the
    /// benchmark's own templates: a verdict proven under widened bounds is
    /// the verdict a from-scratch derivation reaches on any database inside
    /// them, so appends that stay inside (and deletes, which only move
    /// bounds inward) keep the memo, and a bound that moves out replaces it.
    #[test]
    fn safety_verdicts_hold_inside_the_bounds_they_were_proven_under() {
        use pbds_workloads::{crimes, sof, tpch};

        /// Append to every table a copy of its last row with each numeric
        /// column one past its maximum.
        fn grow(db: &Database) -> Database {
            let mut grown = db.clone();
            for name in db.table_names() {
                let t = db.table(name).unwrap();
                let stats = t.stats();
                let mut row = t.rows()[t.len() - 1].clone();
                for (v, col) in row.iter_mut().zip(t.schema().columns()) {
                    match stats.column(&col.name).and_then(|s| s.max.clone()) {
                        Some(Value::Int(max)) => *v = Value::Int(max + 1),
                        Some(Value::Float(max)) => *v = Value::Float(max + 1.0),
                        _ => {}
                    }
                }
                grown.append_rows(name, vec![row]).unwrap();
            }
            grown
        }

        let sof_db = sof::generate(&sof::SofConfig {
            users: 300,
            posts: 1_500,
            comments: 2_000,
            badges: 600,
            ..sof::SofConfig::default()
        });
        let crimes_db = crimes::generate(&crimes::CrimesConfig {
            rows: 3_000,
            ..crimes::CrimesConfig::default()
        });
        let tpch_db = tpch::generate(&tpch::TpchConfig {
            scale: 0.001,
            ..tpch::TpchConfig::default()
        });
        let tpch_templates = tpch::queries().into_iter().map(|q| q.template).collect();
        let workloads: [(&str, Database, Vec<QueryTemplate>); 3] = [
            ("sof", sof_db, sof::end_to_end_templates()),
            ("crimes", crimes_db, crimes::end_to_end_templates()),
            ("tpch", tpch_db, tpch_templates),
        ];
        for (workload, db, templates) in workloads {
            let mut kept_under_widened_bounds = 0;
            for t in &templates {
                let catalog = SketchCatalog::default();
                let from_scratch =
                    |db: &Database| SafetyChecker::new(db).choose_safe_attributes(t.plan(), &[]);
                let proven_under = || {
                    let key = template_key(t);
                    let shard = catalog.shard_for(&key).read();
                    let known = shard[&key].safe_attrs.as_ref().unwrap();
                    known.proven_under.clone()
                };
                let tables: HashSet<String> = t.plan().tables().into_iter().collect();

                // First derivation: nothing has moved yet, so exact bounds.
                assert_eq!(
                    catalog.safe_attrs(&db, t),
                    from_scratch(&db),
                    "{}",
                    t.name()
                );
                assert_eq!(proven_under(), ColumnBounds::of(&db, &tables));

                // Every numeric maximum moves out: the memo no longer applies
                // and the new derivation tries those sides widened.
                let grown = grow(&db);
                assert!(!proven_under().escaped_by(&grown).is_empty());
                assert_eq!(catalog.safe_attrs(&grown, t), from_scratch(&grown));
                let after_growth = proven_under();
                assert!(after_growth.escaped_by(&grown).is_empty());
                assert!(after_growth.escaped_by(&db).is_empty(), "bounds only widen");

                // More appends the same way. Where the widened bounds were
                // recorded they still hold and the memo is what a derivation
                // from scratch finds; where they were not (the verdict
                // depended on the side that moved) the memo is replaced.
                let grown_more = grow(&grown);
                let kept = after_growth.escaped_by(&grown_more).is_empty();
                assert_eq!(kept, after_growth != ColumnBounds::of(&grown, &tables));
                assert_eq!(
                    catalog.safe_attrs(&grown_more, t),
                    from_scratch(&grown_more)
                );
                assert_eq!(proven_under() == after_growth, kept);
                kept_under_widened_bounds += usize::from(kept);

                // A delete moves bounds inward, never outward: the memo holds.
                let mut shrunk = grown_more.clone();
                for name in &tables {
                    let len = grown_more.table(name).unwrap().len();
                    let mut i = 0;
                    let deleted = shrunk.delete_where(name, |_| {
                        i += 1;
                        i == 1 || i == len
                    });
                    assert_eq!(deleted.unwrap(), 2);
                }
                let before_delete = proven_under();
                assert!(before_delete.escaped_by(&shrunk).is_empty());
                assert_eq!(catalog.safe_attrs(&shrunk, t), from_scratch(&shrunk));
                assert_eq!(proven_under(), before_delete);
            }
            // None of these templates' verdicts depends on how far a maximum
            // reaches, so every one is kept.
            assert_eq!(kept_under_widened_bounds, templates.len(), "{workload}");
        }
    }

    #[test]
    fn delete_keeps_entries_as_supersets_and_invalidates_partitions() {
        let db = sales_db();
        let catalog = SketchCatalog::default();
        let t = having_template();
        let attr = catalog.safe_attrs(&db, &t).unwrap().remove(0);
        let part_before = catalog.partition_for(&db, &attr, 16).unwrap();
        catalog.insert(
            &db,
            &t,
            &[Value::Int(50_000)],
            capture_for(&db, &catalog, 50_000),
        );

        let db2 = delete_sales(&db, &catalog, |r| r[1] == Value::Int(38));

        // Entries survive as still-safe supersets and serve the new state.
        assert_eq!(catalog.stored_sketches(), 1);
        assert!(catalog
            .find_reusable(&db2, &t, &[Value::Int(53_000)])
            .is_some());
        // The cached partition was rebuilt from the new statistics.
        let part_after = catalog.partition_for(&db2, &attr, 16).unwrap();
        assert!(
            !Arc::ptr_eq(&part_before, &part_after),
            "partition cache survived a delete"
        );
    }

    #[test]
    fn stale_capture_insert_is_rejected() {
        let db = sales_db();
        let catalog = SketchCatalog::default();
        let t = having_template();
        // Capture against the pre-mutation snapshot…
        let sketches = capture_for(&db, &catalog, 50_000);
        // …then a mutation is processed before the capture lands.
        let db2 = append_sales(&db, &catalog, vec![vec![Value::Int(1), Value::Int(7)]]);
        assert!(
            catalog
                .insert(&db, &t, &[Value::Int(50_000)], sketches)
                .is_none(),
            "stale sketch set must be rejected"
        );
        assert_eq!(catalog.stored_sketches(), 0);
        assert!(counter(&catalog, "pbds_catalog_invalidated") >= 1);
        // A capture against the current snapshot is accepted.
        let fresh = capture_for(&db2, &catalog, 50_000);
        assert!(catalog
            .insert(&db2, &t, &[Value::Int(50_000)], fresh)
            .is_some());
    }

    #[test]
    fn unfragmentable_append_forces_recapture() {
        use pbds_storage::CompositePartition;
        let db = sales_db();
        let catalog = SketchCatalog::default();
        let t = having_template();
        // A composite (PSMIX-style) sketch has one fragment per *seen* key:
        // an appended row with a novel group has no fragment, so the stored
        // sketch cannot be maintained and must be dropped.
        let table = db.table("sales").unwrap();
        let part: PartitionRef = Arc::new(Partition::Composite(
            CompositePartition::build("sales", table.schema(), table.rows(), &["grp"]).unwrap(),
        ));
        let mut sketch = ProvenanceSketch::empty(part);
        sketch.add_fragment(0);
        catalog.insert(&db, &t, &[Value::Int(50_000)], vec![sketch]);
        assert_eq!(catalog.stored_sketches(), 1);

        // grp = 999 never occurred: partition shape changed.
        let _db2 = append_sales(&db, &catalog, vec![vec![Value::Int(999), Value::Int(1)]]);
        assert_eq!(
            catalog.stored_sketches(),
            0,
            "sketch over an outgrown partition must be invalidated"
        );
        assert!(counter(&catalog, "pbds_catalog_invalidated") >= 1);
    }

    #[test]
    fn export_import_round_trip_restores_reuse() {
        let db = sales_db();
        let catalog = SketchCatalog::default();
        let t = having_template();
        catalog.insert(
            &db,
            &t,
            &[Value::Int(50_000)],
            capture_for(&db, &catalog, 50_000),
        );
        let exported = catalog.export();
        assert_eq!(exported.entries.len(), 1);
        assert_eq!(
            exported.entries[0].capture_epochs,
            vec![("sales".to_string(), db.table("sales").unwrap().data_epoch())]
        );

        // Import into a fresh catalog against the same database state: the
        // entry survives and answers reuse lookups immediately.
        let recovered = SketchCatalog::default();
        let report = recovered.import(&db, exported.clone());
        assert_eq!((report.imported, report.dropped), (1, 0));
        assert!(recovered
            .find_reusable(&db, &t, &[Value::Int(53_000)])
            .is_some());
        assert_eq!(
            gauge(&recovered, "pbds_catalog_bytes"),
            gauge(&catalog, "pbds_catalog_bytes")
        );

        // Against a database whose table was mutated after the export, the
        // entry is epoch-stale and must be dropped — never offered.
        let mut mutated = db.clone();
        mutated
            .append_rows("sales", vec![vec![Value::Int(1), Value::Int(7)]])
            .unwrap();
        let cold = SketchCatalog::default();
        let report = cold.import(&mutated, exported);
        assert_eq!((report.imported, report.dropped), (0, 1));
        assert_eq!(cold.stored_sketches(), 0);
        assert!(cold
            .find_reusable(&mutated, &t, &[Value::Int(53_000)])
            .is_none());
        assert!(counter(&cold, "pbds_catalog_invalidated") >= 1);
    }

    #[test]
    fn import_seeds_table_epochs_so_stale_captures_stay_rejected() {
        let db = sales_db();
        let recovered = SketchCatalog::default();
        recovered.import(&db, PersistedCatalog::default());
        let t = having_template();
        // A capture taken against a pre-import (older) snapshot of `sales`
        // must be rejected exactly as in a long-running catalog.
        let sketches = capture_for(&db, &recovered, 50_000);
        let mut mutated = db.clone();
        mutated
            .append_rows("sales", vec![vec![Value::Int(1), Value::Int(7)]])
            .unwrap();
        recovered.import(&mutated, PersistedCatalog::default());
        assert!(
            recovered
                .insert(&db, &t, &[Value::Int(50_000)], sketches)
                .is_none(),
            "stale capture accepted after import seeded newer epochs"
        );
    }

    #[test]
    fn concurrent_lookups_and_inserts_are_consistent() {
        let db = Arc::new(sales_db());
        let catalog = Arc::new(SketchCatalog::default());
        let t = having_template();
        let sketches = capture_for(&db, &catalog, 50_000);
        catalog.insert(&db, &t, &[Value::Int(50_000)], sketches);
        std::thread::scope(|s| {
            for w in 0..8 {
                let db = Arc::clone(&db);
                let catalog = Arc::clone(&catalog);
                let t = t.clone();
                s.spawn(move || {
                    for i in 0..50 {
                        // Tighter bounds hit, looser bounds miss.
                        let bound = 50_500 + ((w * 50 + i) % 40) * 100;
                        let got = catalog.find_reusable(&db, &t, &[Value::Int(bound)]);
                        assert!(got.is_some(), "bound {bound} should reuse");
                    }
                });
            }
        });
        assert_eq!(counter(&catalog, "pbds_catalog_hits"), 8 * 50);
        assert!(counter(&catalog, "pbds_catalog_memo_hits") > 0);
    }

    #[test]
    fn export_writes_the_template_key_as_name_hash_fingerprint() {
        // Persisted catalogs, and tools that read them, file entries under
        // this exact string.
        let db = sales_db();
        let catalog = SketchCatalog::default();
        let t = having_template();
        catalog.insert(
            &db,
            &t,
            &[Value::Int(50_000)],
            capture_for(&db, &catalog, 50_000),
        );
        assert_eq!(
            catalog.export().entries[0].template_key,
            format!("{}#{:016x}", t.name(), t.fingerprint())
        );
    }

    #[test]
    fn is_covered_rechecks_a_memoized_entry_against_the_database() {
        let db = sales_db();
        let catalog = SketchCatalog::default();
        let t = having_template();
        catalog.insert(
            &db,
            &t,
            &[Value::Int(50_000)],
            capture_for(&db, &catalog, 50_000),
        );
        let tight = vec![Value::Int(53_000)];
        // Memoizes the entry as the answer for `tight`.
        assert!(catalog.find_reusable(&db, &t, &tight).is_some());
        // A row appended without maintenance: the entry no longer describes
        // the table, so neither lookup may offer it.
        let mut db2 = db.clone();
        db2.append_rows("sales", vec![vec![Value::Int(1), Value::Int(7)]])
            .unwrap();
        assert!(catalog.find_reusable(&db2, &t, &tight).is_none());
        assert!(
            !catalog.is_covered(&db2, &t, &tight),
            "a memoized entry answered for a database it does not describe"
        );
    }
}
