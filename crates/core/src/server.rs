//! Concurrent sketch-serving middleware (the paper's deployment model,
//! Sec. 6 / 9.5).
//!
//! A [`PbdsServer`] owns an `Arc<Database>` plus a shared
//! [`SketchCatalog`] and serves a stream of
//! parameterized query instances from any number of concurrent
//! [`PbdsSession`]s. Each session:
//!
//! 1. **templatizes** the incoming instance (or accepts an already-split
//!    `(template, binding)` pair),
//! 2. **consults the catalog** — a memoized reuse check against the sketches
//!    captured so far,
//! 3. on a hit, **instruments** the query with the stored sketch and
//!    executes the narrowed plan,
//! 4. on a miss, when the self-tuning [`Strategy`] says so, **captures**:
//!    with background workers ([`ServerConfig::capture_workers`] ≥ 1) it
//!    *enqueues* the capture and answers plainly, so capture cost never sits
//!    on the query's critical path (the paper's middleware amortizes capture
//!    across the stream); with none it *captures inline* on the session's
//!    thread and answers with the capture run, so the first instance pays
//!    for its capture, as in the paper's self-tuning loop (Fig. 13).
//!
//! Results always contain exactly the rows plain execution would produce
//! (bag equality; row *order* of unsorted results may differ with the chosen
//! access path): sketches only narrow *where* the engine looks, never *what*
//! the query means, and the top-k runtime re-validation falls back to plain
//! execution when a stored sketch turns out not to cover the new instance.
//!
//! ## Failure model
//!
//! Long-lived middleware must degrade, not crash. The server runs a
//! fail-safe state machine ([`HealthState`]: `Healthy → Degraded → ReadOnly
//! → FailStop`) whose transitions are driven by the durability layer:
//! a failed WAL append/fsync refuses further writes (read-only) because an
//! acknowledgement it cannot back with durability would be a silent-loss
//! bug; a failed checkpoint merely degrades (the WAL still holds every
//! acknowledged record); repeated capture panics blow a fuse that disables
//! capture (an optimization, never an answer). A janitor thread
//! repairs in the background — fresh WAL descriptor, re-verify, checkpoint
//! — with capped exponential backoff; success settles health, exhaustion
//! from read-only fail-stops the server. Every event is counted in the
//! `pbds_robustness_*` series of [`PbdsServer::metrics_snapshot`] and
//! logged in [`PbdsServer::recent_events`]. Fault drills use
//! [`PbdsServer::create_with_io`] / [`PbdsServer::open_with_io`]
//! (deterministic injected I/O faults) and
//! [`PbdsServer::inject_panic`] (one-shot thread panics).

use crate::catalog::SketchCatalog;
use crate::instrument::UsePredicateStyle;
use crate::pbds::PbdsError;
use crate::tuning::{
    capture_and_store, estimate_selectivity, execute_with_reuse, Action, QueryRecord, Strategy,
};
use pbds_algebra::{templatize, Expr, LogicalPlan, QueryTemplate};
use pbds_exec::{Engine, EngineProfile, ExecStats};
use pbds_persist::{
    read_catalog_with, read_snapshot_with, write_catalog_with, write_snapshot_with, Io,
    MutationWal, PersistError, PersistedCatalog, RealIo, WalOp, CATALOG_FILE, SNAPSHOT_FILE,
    WAL_FILE,
};
use pbds_storage::{Database, Relation, Row, Value};
use pbds_telemetry::{clock, span, Counter, Gauge, Histogram, MetricsSnapshot, Registry};
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender, SyncSender};
use std::sync::Arc;

use pbds_sync::{TrackedCondvar, TrackedMutex, TrackedRwLock};
use std::thread::JoinHandle;

// The commit pipeline and the health lattice with its janitor live in
// `commit.rs` and `health.rs`, as children of this module so they keep
// reading the server's private shared state.
#[path = "commit.rs"]
mod commit;
#[path = "health.rs"]
mod health;
use commit::{commit_loop, mutate_database};
pub use health::HealthState;
use health::{janitor_loop, Health, RepairState};

/// Configuration of a [`PbdsServer`].
///
/// A query executes on one thread, its session's or a capture worker's:
/// the server's concurrency comes from serving many sessions at once.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Engine profile used by sessions and capture workers.
    pub profile: EngineProfile,
    /// Self-tuning strategy deciding when a miss triggers capture.
    pub strategy: Strategy,
    /// Predicate style used when instrumenting with a sketch.
    pub style: UsePredicateStyle,
    /// Number of fragments for captured range partitions.
    pub fragments: usize,
    /// Background capture worker threads. `0` means none: a session then
    /// captures on its own thread and answers the query with the capture
    /// run (the self-tuning loop of Fig. 13, where the first instance pays
    /// for its capture).
    pub capture_workers: usize,
    /// Automatic checkpoint policy for durable servers: after this many
    /// WAL-logged mutations the server checkpoints (snapshot + catalog
    /// export + WAL truncation) on the commit thread, bounding both WAL
    /// growth and replay time. `None` disables the policy (checkpoints then
    /// happen only via [`PbdsServer::checkpoint`] /
    /// [`PbdsServer::shutdown`]). Ignored for in-memory servers.
    pub checkpoint_every: Option<usize>,
    /// How many times the background janitor thread retries repairing a
    /// degraded durability layer (reopen-and-verify the WAL + checkpoint)
    /// before giving up, with capped exponential backoff between attempts.
    /// Exhausting the attempts while the server is read-only escalates it to
    /// [`HealthState::FailStop`]. `0` disables background repair entirely:
    /// the server then stays [`HealthState::ReadOnly`] (stable — never
    /// fail-stopped by the janitor) until an explicit
    /// [`PbdsServer::checkpoint`] succeeds. Ignored for in-memory servers.
    pub repair_attempts: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            profile: EngineProfile::Indexed,
            strategy: Strategy::Eager {
                selectivity_threshold: 0.75,
            },
            style: UsePredicateStyle::BinarySearch,
            fragments: 256,
            capture_workers: 1,
            checkpoint_every: Some(256),
            repair_attempts: 8,
        }
    }
}

/// Where [`PbdsServer::inject_panic`] plants a one-shot panic (for fault
/// drills and the robustness test suite).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PanicSite {
    /// The next commit batch panics mid-commit.
    Commit = 0,
    /// The next capture (background or inline) panics.
    Capture = 1,
    /// The next served query panics its session thread.
    Session = 2,
}

/// Capture is disabled after this many capture panics.
const MAX_CAPTURE_PANICS: u64 = 3;

/// Most recent robustness event messages retained.
const EVENT_LOG_CAP: usize = 32;

/// Capacity of the bounded mutation ingest queue
/// ([`PbdsServer::submit_mutation`]). When the queue is full, submitters
/// block: backpressure instead of unbounded memory growth.
const INGEST_QUEUE_DEPTH: usize = 1024;

/// One served query: the result relation plus the execution record.
#[derive(Debug, Clone)]
pub struct ServedQuery {
    /// The query result.
    pub relation: Relation,
    /// What the session did and what it cost.
    pub record: QueryRecord,
    /// True when this miss enqueued background capture work (an inline
    /// capture instead shows as [`Action::Capture`]).
    pub capture_enqueued: bool,
    /// The database snapshot this query was served against. A session takes
    /// exactly one snapshot per query, so `relation` must equal plain
    /// execution against this state — the linearizability suites assert
    /// exactly that, instead of guessing which published state a racing
    /// reader might have seen.
    pub snapshot: Arc<Database>,
}

struct CaptureTask {
    template: QueryTemplate,
    binding: Vec<Value>,
}

/// State shared between sessions, capture workers, submitters and the
/// commit thread.
struct ServerShared {
    /// The served database, swapped atomically once per commit batch.
    /// Sessions and capture workers take an `Arc` snapshot per unit of work,
    /// so every query executes against one consistent database state.
    db: TrackedRwLock<Arc<Database>>,
    /// Serializes the commit thread's batch application against explicit
    /// [`PbdsServer::checkpoint`] calls: the whole read-snapshot →
    /// copy-on-write → swap cycle runs under this lock, so the snapshot a
    /// checkpoint writes can never interleave with a half-applied batch.
    mutation_lock: TrackedMutex<()>,
    catalog: Arc<SketchCatalog>,
    engine: Engine,
    config: ServerConfig,
    /// Durability state; `None` for a purely in-memory server. Lives in the
    /// shared state so the commit thread can append and checkpoint.
    persist: Option<TrackedMutex<Persistence>>,
    /// Capture tasks enqueued but not yet finished, with a condvar for
    /// [`PbdsServer::drain`].
    in_flight: TrackedMutex<usize>,
    drained: TrackedCondvar,
    /// Mutations submitted to the ingest queue but not yet completed, with a
    /// condvar so [`PbdsServer::drain`] can also flush the write path.
    backlog: TrackedMutex<usize>,
    backlog_drained: TrackedCondvar,
    /// Registry-backed counters, gauges and latency histograms. Every
    /// write-path and robustness counter lives here and is read through
    /// [`PbdsServer::metrics_snapshot`].
    metrics: ServerMetrics,
    /// Current [`HealthState`]; it moves only through
    /// [`ServerShared::degrade`] and [`ServerShared::settle_health`].
    health: Health,
    /// Set once capture panicked [`MAX_CAPTURE_PANICS`] times; further
    /// capture work is refused before it starts.
    capture_disabled: AtomicBool,
    /// Bounded ring of recent event messages
    /// ([`PbdsServer::recent_events`]).
    event_log: TrackedMutex<VecDeque<String>>,
    /// The span-tracer journal rendered at the moment the server hit
    /// [`HealthState::FailStop`] — `RecoveryReport`-style forensics showing
    /// the last phases every thread went through before the health lattice
    /// hit bottom. `None` until fail-stop; empty string when the tracer is
    /// disarmed (release build without `--features telemetry`).
    failstop_forensics: TrackedMutex<Option<String>>,
    /// Janitor wake-up state + condvar ([`ServerShared::request_repair`]).
    repair: TrackedMutex<RepairState>,
    repair_cv: TrackedCondvar,
    /// One-shot injected panics, indexed by [`PanicSite`] discriminant.
    injected_panics: [AtomicBool; 3],
}

/// Cached handles into the server's metrics [`Registry`]. Handles are
/// registered once at construction, so hot-path recording is a single
/// uncontended atomic op; [`PbdsServer::metrics_snapshot`] freezes the
/// registry (merged with the catalog's) into the `pbds_*` exposition.
struct ServerMetrics {
    registry: Registry,
    /// Completed background captures (`pbds_captures_done`) and their
    /// wall-clock latency distribution (`pbds_capture_seconds`).
    captures_done: Counter,
    capture_seconds: Histogram,
    /// Group commit (`pbds_commit_*`, `pbds_wal_fsyncs`): short-circuited
    /// no-op mutations are never submitted, and `committed ≫ batches` is
    /// batching working.
    mutations_submitted: Counter,
    mutations_committed: Counter,
    batched_commits: Counter,
    fsyncs: Counter,
    max_batch: Gauge,
    /// Latency of one WAL `append_batch` + fsync (`pbds_wal_fsync_seconds`).
    wal_fsync_seconds: Histogram,
    /// End-to-end served-query latency (`pbds_query_seconds`) and
    /// submit-to-durable mutation latency (`pbds_mutation_commit_seconds`).
    query_seconds: Histogram,
    mutation_commit_seconds: Histogram,
    queries_served: Counter,
    /// Deterministic execution totals accumulated over every served query.
    exec_rows_scanned: Counter,
    exec_blocks_skipped: Counter,
    exec_join_key_filters: Counter,
    /// Robustness counters (`pbds_robustness_*`): contained panics, durability
    /// failures, janitor repairs and quarantined catalogs.
    commit_panics: Counter,
    capture_panics: Counter,
    session_panics: Counter,
    wal_append_failures: Counter,
    checkpoint_failures: Counter,
    repair_attempts_made: Counter,
    repairs_succeeded: Counter,
    catalogs_quarantined: Counter,
}

impl ServerMetrics {
    fn new() -> ServerMetrics {
        let registry = Registry::new();
        ServerMetrics {
            captures_done: registry.counter("pbds_captures_done"),
            capture_seconds: registry.time_histogram("pbds_capture_seconds"),
            mutations_submitted: registry.counter("pbds_commit_mutations_submitted"),
            mutations_committed: registry.counter("pbds_commit_mutations_committed"),
            batched_commits: registry.counter("pbds_commit_batches"),
            fsyncs: registry.counter("pbds_wal_fsyncs"),
            max_batch: registry.gauge("pbds_commit_max_batch"),
            wal_fsync_seconds: registry.time_histogram("pbds_wal_fsync_seconds"),
            query_seconds: registry.time_histogram("pbds_query_seconds"),
            mutation_commit_seconds: registry.time_histogram("pbds_mutation_commit_seconds"),
            queries_served: registry.counter("pbds_queries_served"),
            exec_rows_scanned: registry.counter("pbds_exec_rows_scanned"),
            exec_blocks_skipped: registry.counter("pbds_exec_blocks_skipped"),
            exec_join_key_filters: registry.counter("pbds_exec_join_key_filters"),
            commit_panics: registry.counter("pbds_robustness_commit_panics"),
            capture_panics: registry.counter("pbds_robustness_capture_panics"),
            session_panics: registry.counter("pbds_robustness_session_panics"),
            wal_append_failures: registry.counter("pbds_robustness_wal_append_failures"),
            checkpoint_failures: registry.counter("pbds_robustness_checkpoint_failures"),
            repair_attempts_made: registry.counter("pbds_robustness_repair_attempts"),
            repairs_succeeded: registry.counter("pbds_robustness_repairs_succeeded"),
            catalogs_quarantined: registry.counter("pbds_robustness_catalogs_quarantined"),
            registry,
        }
    }
}

impl ServerShared {
    /// The current database snapshot.
    fn snapshot(&self) -> Arc<Database> {
        Arc::clone(&self.db.read())
    }

    fn capture_finished(&self) {
        let mut n = self.in_flight.lock();
        *n -= 1;
        if *n == 0 {
            self.drained.notify_all();
        }
    }

    fn writes_finished(&self, count: usize) {
        let mut n = self.backlog.lock();
        *n -= count;
        if *n == 0 {
            self.backlog_drained.notify_all();
        }
    }

    /// Checkpoint body for callers holding both the mutation lock and the
    /// persistence state (the commit thread, the janitor and
    /// [`PbdsServer::checkpoint`]).
    fn checkpoint_with(&self, p: &mut Persistence) -> Result<(), PbdsError> {
        let db = self.snapshot();
        write_snapshot_with(
            p.io.as_ref(),
            &p.dir.join(SNAPSHOT_FILE),
            &db,
            p.next_seq - 1,
        )?;
        // Captures may land concurrently; the export is simply the set of
        // entries present now. A capture finishing after the export is lost
        // from *this* checkpoint — an optimization, never an answer.
        write_catalog_with(
            p.io.as_ref(),
            &p.dir.join(CATALOG_FILE),
            &self.catalog.export(),
        )?;
        p.wal.truncate()?;
        p.since_checkpoint = 0;
        Ok(())
    }

    /// Acquire the mutation-serialization lock, recovering from poisoning.
    /// The lock guards no data (`Mutex<()>`): it only orders commit batches,
    /// explicit checkpoints and repair campaigns against each other. A panic
    /// while holding it is already contained (the commit loop catches it and
    /// requests checkpoint repair), so honoring the poison flag would turn
    /// one contained panic into a permanently wedged write path.
    fn serialize_mutations(&self) -> pbds_sync::MutexGuard<'_, ()> {
        self.mutation_lock.lock()
    }

    /// Record an event message (bounded ring, oldest dropped).
    fn note(&self, msg: String) {
        let mut log = self.event_log.lock();
        if log.len() == EVENT_LOG_CAP {
            log.pop_front();
        }
        log.push_back(msg);
    }

    /// Consume a one-shot injected panic for `site`, panicking if armed.
    fn take_injected_panic(&self, site: PanicSite) {
        if self.injected_panics[site as usize].swap(false, Ordering::SeqCst) {
            panic!("injected {site:?} panic");
        }
    }
}

/// A data mutation applied through the serving middleware.
#[derive(Debug, Clone)]
pub enum Mutation {
    /// Append rows at the tail of the table.
    Append(Vec<Row>),
    /// Delete every row matching the predicate (evaluated against the
    /// table's schema; NULL counts as not matching).
    DeleteWhere(Expr),
}

/// What [`PbdsServer::apply_mutation`] did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MutationOutcome {
    /// The mutated table.
    pub table: String,
    /// The table's new data epoch (unchanged for an empty append or a
    /// delete matching nothing).
    pub epoch: u64,
    /// Rows appended or deleted.
    pub rows_affected: usize,
    /// WAL sequence number the mutation was logged under. `None` on
    /// in-memory servers and for no-op mutations (empty append, delete
    /// matching nothing), which write no WAL record.
    pub wal_seq: Option<u64>,
    /// Number of mutations the commit batch that acknowledged this one
    /// carried (all durable under the same fsync). `0` for mutations
    /// short-circuited before the ingest queue.
    pub batch_len: usize,
}

/// Shared completion slot of one submitted mutation.
struct TicketState {
    done: TrackedMutex<Option<Result<MutationOutcome, PbdsError>>>,
    cv: TrackedCondvar,
}

impl TicketState {
    fn new() -> Arc<TicketState> {
        Arc::new(TicketState {
            done: TrackedMutex::new("server.ticket", None),
            cv: TrackedCondvar::new(),
        })
    }

    /// Complete the ticket; later completions (e.g. the panic backstop after
    /// a normal completion) are ignored.
    fn complete(&self, result: Result<MutationOutcome, PbdsError>) {
        let mut slot = self.done.lock();
        if slot.is_none() {
            *slot = Some(result);
            self.cv.notify_all();
        }
    }

    fn wait(&self) -> Result<MutationOutcome, PbdsError> {
        let mut slot = self.done.lock();
        loop {
            if let Some(result) = slot.take() {
                return result;
            }
            slot = self.cv.wait(slot);
        }
    }
}

/// Handle for a mutation submitted to the ingest queue
/// ([`PbdsServer::submit_mutation`]). The mutation is acknowledged —
/// durable on a durable server, visible to new snapshots — exactly when
/// [`MutationTicket::wait`] returns `Ok`. Dropping the ticket without
/// waiting is allowed; the mutation still commits.
#[must_use = "a ticket resolves to the mutation's outcome; drop it only if you don't need acknowledgement"]
pub struct MutationTicket {
    state: Arc<TicketState>,
}

impl MutationTicket {
    /// Block until the commit thread completes the mutation and return its
    /// outcome. On `Ok`, the mutation is durable (durable servers) and
    /// visible to every subsequently taken snapshot.
    pub fn wait(self) -> Result<MutationOutcome, PbdsError> {
        self.state.wait()
    }

    /// True once the mutation has been completed (successfully or not);
    /// [`MutationTicket::wait`] will then return without blocking.
    pub fn is_complete(&self) -> bool {
        self.state.done.lock().is_some()
    }
}

impl std::fmt::Debug for MutationTicket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MutationTicket")
            .field("complete", &self.is_complete())
            .finish()
    }
}

/// One queue entry: a mutation plus the ticket to complete.
struct WriteRequest {
    table: String,
    mutation: Mutation,
    ticket: Arc<TicketState>,
}

/// Durable state of a server opened over a durability directory.
struct Persistence {
    dir: PathBuf,
    /// The I/O layer every durable write goes through — [`RealIo`] in
    /// production, a fault-injecting one in the robustness suite
    /// ([`PbdsServer::create_with_io`] / [`PbdsServer::open_with_io`]).
    io: Arc<dyn Io>,
    wal: MutationWal,
    /// Sequence number the next WAL record will carry.
    next_seq: u64,
    /// Mutations logged since the last checkpoint (drives the automatic
    /// checkpoint policy).
    since_checkpoint: usize,
}

/// What [`PbdsServer::open`] recovered from disk.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Catalog entries imported (all of them epoch-valid against the
    /// recovered database).
    pub catalog_imported: usize,
    /// Catalog entries dropped as epoch-stale.
    pub catalog_dropped: usize,
    /// WAL mutations replayed on top of the snapshot (records the snapshot
    /// already covered are skipped by sequence number).
    pub wal_replayed: usize,
    /// True when the persisted catalog was corrupt and was quarantined
    /// (renamed aside) instead of aborting recovery: the catalog is an
    /// optimization, so the server comes up cold rather than not at all.
    /// Data files (snapshot, WAL) are never quarantined — their corruption
    /// still fails [`PbdsServer::open`].
    pub catalog_quarantined: bool,
}

/// The concurrent sketch-serving middleware. See the [module docs](self).
pub struct PbdsServer {
    shared: Arc<ServerShared>,
    /// `None` once shut down; dropping the sender stops the workers.
    capture_tx: Option<Sender<CaptureTask>>,
    workers: Vec<JoinHandle<()>>,
    /// Bounded ingest queue feeding the commit thread; dropping the sender
    /// lets the commit thread drain what is queued and exit.
    ingest_tx: Option<SyncSender<WriteRequest>>,
    commit_thread: Option<JoinHandle<()>>,
    /// Background repair thread (durable servers with `repair_attempts > 0`).
    janitor: Option<JoinHandle<()>>,
    /// Set by [`PbdsServer::open`].
    recovery: Option<RecoveryReport>,
}

impl std::fmt::Debug for PbdsServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PbdsServer")
            .field("config", &self.shared.config)
            .field("catalog", &self.shared.catalog)
            .finish()
    }
}

impl PbdsServer {
    /// Start a server with a fresh catalog.
    pub fn new(db: Arc<Database>, config: ServerConfig) -> Self {
        PbdsServer::with_catalog(db, Arc::new(SketchCatalog::default()), config)
    }

    /// Start a server over an existing (possibly shared) catalog.
    pub fn with_catalog(
        db: Arc<Database>,
        catalog: Arc<SketchCatalog>,
        config: ServerConfig,
    ) -> Self {
        PbdsServer::build(db, catalog, config, None, None)
    }

    /// Assemble the shared state and spawn the capture workers and the
    /// commit thread. All constructors funnel through here so the commit
    /// thread always owns the (optional) durability state.
    fn build(
        db: Arc<Database>,
        catalog: Arc<SketchCatalog>,
        config: ServerConfig,
        persist: Option<Persistence>,
        recovery: Option<RecoveryReport>,
    ) -> Self {
        let shared = Arc::new(ServerShared {
            db: TrackedRwLock::new("server.db", db),
            mutation_lock: TrackedMutex::new("server.mutation", ()),
            catalog,
            engine: Engine::new(config.profile),
            config,
            persist: persist.map(|p| TrackedMutex::new("server.persist", p)),
            in_flight: TrackedMutex::new("server.in_flight", 0),
            drained: TrackedCondvar::new(),
            backlog: TrackedMutex::new("server.backlog", 0),
            backlog_drained: TrackedCondvar::new(),
            metrics: ServerMetrics::new(),
            health: Health::new(),
            capture_disabled: AtomicBool::new(false),
            event_log: TrackedMutex::new("server.event_log", VecDeque::new()),
            failstop_forensics: TrackedMutex::new("server.failstop_forensics", None),
            repair: TrackedMutex::new("server.repair", RepairState::default()),
            repair_cv: TrackedCondvar::new(),
            injected_panics: [
                AtomicBool::new(false),
                AtomicBool::new(false),
                AtomicBool::new(false),
            ],
        });
        if recovery.is_some_and(|r| r.catalog_quarantined) {
            shared.metrics.catalogs_quarantined.inc();
            shared.note(
                "persisted catalog was corrupt; quarantined it and started \
                 with a cold catalog"
                    .into(),
            );
        }
        let (tx, rx) = channel::<CaptureTask>();
        let rx = Arc::new(TrackedMutex::new("server.capture_rx", rx));
        let workers = (0..config.capture_workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                let rx = Arc::clone(&rx);
                std::thread::spawn(move || capture_worker(&shared, &rx))
            })
            .collect();
        let (ingest_tx, ingest_rx) = sync_channel::<WriteRequest>(INGEST_QUEUE_DEPTH);
        let commit_thread = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || commit_loop(&shared, &ingest_rx))
        };
        let janitor = (shared.persist.is_some() && config.repair_attempts > 0).then(|| {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || janitor_loop(&shared))
        });
        PbdsServer {
            shared,
            capture_tx: Some(tx),
            workers,
            ingest_tx: Some(ingest_tx),
            commit_thread: Some(commit_thread),
            janitor,
            recovery,
        }
    }

    /// Initialize a durability directory with `db` as its first snapshot and
    /// start a durable server over it. Any stale WAL or catalog file left in
    /// the directory (e.g. from a previous experiment) is reset — `create`
    /// means "this database is the new initial state"; use
    /// [`PbdsServer::open`] to resume an existing directory instead.
    pub fn create(
        dir: &Path,
        db: Arc<Database>,
        config: ServerConfig,
    ) -> Result<PbdsServer, PbdsError> {
        PbdsServer::create_with_io(dir, db, config, Arc::new(RealIo))
    }

    /// [`PbdsServer::create`] with an explicit [`Io`] layer. Every durable
    /// write of this server (WAL appends, snapshots, catalog exports) goes
    /// through `io`, which is how the fault-injection suite drives a live
    /// server into failures deterministically.
    pub fn create_with_io(
        dir: &Path,
        db: Arc<Database>,
        config: ServerConfig,
        io: Arc<dyn Io>,
    ) -> Result<PbdsServer, PbdsError> {
        io.create_dir_all(dir).map_err(PersistError::from)?;
        // Reset the WAL and catalog *before* renaming the new snapshot in:
        // a crash anywhere in this sequence leaves either the previous
        // incarnation intact (old snapshot + emptied WAL/catalog — a
        // consistent, merely cold state) or the new initial state. Writing
        // the snapshot first instead would open a window where open() could
        // replay the previous incarnation's WAL onto the new database.
        let (mut wal, stale) = MutationWal::open_with(Arc::clone(&io), &dir.join(WAL_FILE))?;
        if !stale.is_empty() {
            wal.truncate()?;
        }
        write_catalog_with(io.as_ref(), &dir.join(CATALOG_FILE), &Default::default())?;
        write_snapshot_with(io.as_ref(), &dir.join(SNAPSHOT_FILE), &db, 0)?;
        Ok(PbdsServer::build(
            db,
            Arc::new(SketchCatalog::default()),
            config,
            Some(Persistence {
                dir: dir.to_path_buf(),
                io,
                wal,
                next_seq: 1,
                since_checkpoint: 0,
            }),
            None,
        ))
    }

    /// Open a durable server from a durability directory written by
    /// [`PbdsServer::create`] / [`PbdsServer::checkpoint`]:
    ///
    /// 1. the **snapshot** is read back (tables with their persisted
    ///    `epoch` / `data_epoch`; derived artifacts rebuild lazily);
    /// 2. the persisted **catalog** is imported — every entry is validated
    ///    against the recovered tables' data epochs and dropped if stale, so
    ///    no restart can resurrect a sketch describing other data;
    /// 3. the **WAL** is replayed through the same mutation path a live
    ///    server uses (records the snapshot already covers are skipped by
    ///    sequence number; a torn tail is truncated to the longest
    ///    whole-record prefix), maintaining the imported catalog entries
    ///    across each replayed mutation exactly as live serving would.
    ///
    /// The result serves with a warm catalog: the first instance of a
    /// template captured before the restart reuses its sketch with no
    /// recapture. See [`PbdsServer::recovery_report`].
    pub fn open(dir: &Path, config: ServerConfig) -> Result<PbdsServer, PbdsError> {
        PbdsServer::open_with_io(dir, config, Arc::new(RealIo))
    }

    /// [`PbdsServer::open`] with an explicit [`Io`] layer (see
    /// [`PbdsServer::create_with_io`]).
    pub fn open_with_io(
        dir: &Path,
        config: ServerConfig,
        io: Arc<dyn Io>,
    ) -> Result<PbdsServer, PbdsError> {
        let (mut db, applied_seq) = read_snapshot_with(io.as_ref(), &dir.join(SNAPSHOT_FILE))?;
        let catalog = Arc::new(SketchCatalog::default());
        // The snapshot and WAL hold *answers*: their corruption fails the
        // open (serving without acknowledged data would be silent loss).
        // The catalog holds an *optimization*: a corrupt one is quarantined
        // (renamed aside, preserved for inspection) and the server comes up
        // cold instead of not at all.
        let catalog_path = dir.join(CATALOG_FILE);
        let (persisted, catalog_quarantined) = if !io.exists(&catalog_path) {
            // A missing catalog — the state an earlier quarantine leaves
            // behind — is a cold start, not an error.
            (PersistedCatalog::default(), false)
        } else {
            match read_catalog_with(io.as_ref(), &catalog_path) {
                Ok(persisted) => (persisted, false),
                Err(e @ PersistError::Io(_)) => return Err(e.into()),
                Err(_) => {
                    let mut quarantine = catalog_path.clone().into_os_string();
                    quarantine.push(".quarantined");
                    io.rename(&catalog_path, Path::new(&quarantine))
                        .map_err(PersistError::from)?;
                    (PersistedCatalog::default(), true)
                }
            }
        };
        let import = catalog.import(&db, persisted);
        let (wal, records) = MutationWal::open_with(Arc::clone(&io), &dir.join(WAL_FILE))?;
        let mut next_seq = applied_seq + 1;
        let mut replayed = 0usize;
        for record in records {
            if record.seq <= applied_seq {
                continue; // the snapshot already includes this mutation
            }
            let (table, mutation) = match record.op {
                WalOp::Append { table, rows } => (table, Mutation::Append(rows)),
                WalOp::DeleteWhere { table, predicate } => {
                    (table, Mutation::DeleteWhere(predicate))
                }
            };
            // A record was logged only after the mutation succeeded in
            // memory, and replay starts from the same state, so replay
            // errors indicate corruption rather than a bad mutation.
            let (_, delta) = mutate_database(&mut db, &table, mutation).map_err(|e| {
                pbds_persist::PersistError::corrupt(format!(
                    "WAL record {} does not replay: {e}",
                    record.seq
                ))
            })?;
            if let Some(delta) = delta {
                catalog.apply_deltas(&db, &[delta]);
            }
            next_seq = record.seq + 1;
            replayed += 1;
        }
        Ok(PbdsServer::build(
            Arc::new(db),
            catalog,
            config,
            Some(Persistence {
                dir: dir.to_path_buf(),
                io,
                wal,
                next_seq,
                since_checkpoint: replayed,
            }),
            Some(RecoveryReport {
                catalog_imported: import.imported,
                catalog_dropped: import.dropped,
                wal_replayed: replayed,
                catalog_quarantined,
            }),
        ))
    }

    /// What [`PbdsServer::open`] recovered (`None` for servers not opened
    /// from a durability directory).
    pub fn recovery_report(&self) -> Option<RecoveryReport> {
        self.recovery
    }

    /// True when this server persists its state to a durability directory.
    pub fn is_durable(&self) -> bool {
        self.shared.persist.is_some()
    }

    /// Checkpoint the durable state: write a snapshot of the current
    /// database (recording the WAL sequence it includes), export the sketch
    /// catalog, then truncate the WAL. Both files are written atomically
    /// (temp + rename), and the ordering tolerates a crash at any point: a
    /// snapshot without the matching WAL truncation skips the already
    /// included records by sequence number, and a catalog file older than
    /// the snapshot merely loses entries to the epoch check on import.
    ///
    /// Errors with [`PbdsError::NotDurable`] on an in-memory server.
    pub fn checkpoint(&self) -> Result<(), PbdsError> {
        let _serialized = self.shared.serialize_mutations();
        self.checkpoint_locked()
    }

    /// Checkpoint body; the caller must hold the mutation lock so the
    /// database cannot move between "snapshot written" and "WAL truncated".
    fn checkpoint_locked(&self) -> Result<(), PbdsError> {
        let Some(persist) = &self.shared.persist else {
            return Err(PbdsError::NotDurable);
        };
        let mut p = persist.lock();
        // A successful checkpoint re-establishes full durability (fresh
        // snapshot, fresh WAL on a fresh descriptor), so it doubles as the
        // explicit repair path: settle a degraded/read-only server back to
        // health. FailStop stays terminal.
        self.shared.checkpoint_with(&mut p)?;
        self.shared.settle_health();
        Ok(())
    }

    /// The server's current fail-safe degradation state.
    pub fn health(&self) -> HealthState {
        self.shared.health()
    }

    /// The most recent robustness event messages, oldest first (a bounded
    /// ring): library crates do not print, so this is where diagnostics go.
    /// The events are counted in the `pbds_robustness_*` series of
    /// [`PbdsServer::metrics_snapshot`].
    pub fn recent_events(&self) -> Vec<String> {
        self.shared.event_log.lock().iter().cloned().collect()
    }

    /// Freeze every metric this server maintains into one deterministic
    /// [`MetricsSnapshot`] under the unified `pbds_*` namespace: the
    /// server's own registry (commit, WAL, capture, query-latency and
    /// robustness series), the catalog's `pbds_catalog_*` registry, the
    /// current health state as the `pbds_health_state` gauge (the lattice
    /// discriminant: 0 healthy … 3 fail-stop), the capture fuse as the
    /// `pbds_capture_disabled` gauge (1 once repeated panics disabled
    /// background capture), and per-lock-class hold gauges from the
    /// `pbds-sync` tracked wrappers. Render it with
    /// [`MetricsSnapshot::render_text`] for Prometheus-style exposition.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.shared.metrics.registry.snapshot();
        snap.merge(self.shared.catalog.metrics_snapshot());
        snap.gauges
            .insert("pbds_health_state".to_string(), self.shared.health() as i64);
        snap.gauges.insert(
            "pbds_capture_disabled".to_string(),
            i64::from(self.shared.capture_disabled.load(Ordering::Relaxed)),
        );
        // Lock-hold statistics are process-wide and already aggregated per
        // lock class; inject them as gauges at snapshot time (empty in
        // release builds without the `lock-order` feature).
        for hold in pbds_sync::hold_stats() {
            let class = hold.name.replace('.', "_");
            snap.gauges.insert(
                format!("pbds_lock_{class}_acquisitions"),
                hold.acquisitions.min(i64::MAX as u64) as i64,
            );
            snap.gauges.insert(
                format!("pbds_lock_{class}_held_nanos"),
                hold.total_held.as_nanos().min(i64::MAX as u128) as i64,
            );
            snap.gauges.insert(
                format!("pbds_lock_{class}_max_held_nanos"),
                hold.max_held.as_nanos().min(i64::MAX as u128) as i64,
            );
        }
        snap
    }

    /// The span-tracer journal captured at the moment this server
    /// fail-stopped: `None` while the server has not hit
    /// [`HealthState::FailStop`]; an empty string when it has but the
    /// tracer is disarmed (release build without `--features telemetry`).
    pub fn failstop_forensics(&self) -> Option<String> {
        self.shared.failstop_forensics.lock().clone()
    }

    /// Arm a one-shot panic at `site` (fault drills / robustness tests):
    /// the next commit batch, background capture, or served query panics.
    /// The server's containment turns each into a counted, recoverable
    /// event rather than a crash.
    pub fn inject_panic(&self, site: PanicSite) {
        self.shared.injected_panics[site as usize].store(true, Ordering::SeqCst);
    }

    /// Graceful shutdown: flush the ingest queue (every acknowledged — and
    /// even every merely submitted — mutation commits and, on durable
    /// servers, reaches the WAL), drain in-flight captures so their sketches
    /// make it into the persisted catalog, checkpoint (durable servers), and
    /// stop the worker pool. In-memory servers just drain and stop. No
    /// acknowledged-but-unflushed mutation can exist after this returns.
    pub fn shutdown(self) -> Result<(), PbdsError> {
        self.drain();
        if self.shared.persist.is_some() {
            self.checkpoint()?;
        }
        Ok(()) // dropping `self` joins the commit thread and capture workers
    }

    /// The catalog this server reads and (through capture workers) writes.
    pub fn catalog(&self) -> &Arc<SketchCatalog> {
        &self.shared.catalog
    }

    /// A snapshot of the served database (the state as of the last applied
    /// mutation).
    pub fn db(&self) -> Arc<Database> {
        self.shared.snapshot()
    }

    /// Apply a data mutation to a served table, maintaining every derived
    /// layer: the storage epoch advances (invalidating zone maps, indexes,
    /// columnar chunks and statistics), and the shared [`SketchCatalog`] is
    /// told to extend or invalidate its stored sketches, reuse memos,
    /// partitions and safe-attribute choices.
    ///
    /// This is [`PbdsServer::submit_mutation`] + [`MutationTicket::wait`]:
    /// the mutation rides a group-commit batch with every concurrently
    /// submitted mutation, and this call returns once that batch is durable
    /// and visible. Serving stays linearizable: batches apply in submission
    /// order, the new database is swapped in atomically once per batch, so
    /// every query — including ones running while the batch lands —
    /// executes against exactly one consistent state, and every query
    /// admitted after `apply_mutation` returns observes the mutation.
    ///
    /// On a durable server the mutation is appended to the WAL and covered
    /// by the batch's fsync **before** it becomes visible (or is reported to
    /// the caller), so an acknowledged mutation survives a crash; when the
    /// automatic checkpoint policy ([`ServerConfig::checkpoint_every`])
    /// comes due, the commit thread checkpoints before acknowledging the
    /// next batch.
    pub fn apply_mutation(
        &self,
        table: &str,
        mutation: Mutation,
    ) -> Result<MutationOutcome, PbdsError> {
        let sw = clock::Stopwatch::start();
        let result = self.submit_mutation(table, mutation).wait();
        // Submit-to-durable latency of acknowledged mutations, including the
        // ingest-queue wait and the group-commit fsync the mutation rode.
        if result.is_ok() {
            self.shared
                .metrics
                .mutation_commit_seconds
                .record_duration(sw.elapsed());
        }
        result
    }

    /// Submit a mutation to the bounded ingest queue and return immediately
    /// with a [`MutationTicket`]. The dedicated commit thread drains the
    /// queue into batches (up to 128 mutations per batch), applies each batch through one copy-on-write fork, appends
    /// all of its WAL records under **one** fsync, advances the catalog with
    /// the batch's coalesced deltas, swaps the new database in atomically,
    /// and only then completes the tickets — so durability cost is
    /// amortized across every concurrently submitted mutation. Pipelining
    /// submissions (submit many, then wait) from a single thread batches
    /// exactly like concurrent submitters do.
    ///
    /// No-op mutations (an empty append; and, decided at apply time, a
    /// delete matching no rows) write no WAL record and bump no epoch.
    /// Empty appends short-circuit here without entering the queue.
    ///
    /// Blocks only when the ingest queue, which holds 1024 mutations, is
    /// full: backpressure instead of unbounded memory growth.
    pub fn submit_mutation(&self, table: &str, mutation: Mutation) -> MutationTicket {
        let state = TicketState::new();
        let ticket = MutationTicket {
            state: Arc::clone(&state),
        };
        // Fail-safe gate: a degraded-to-read-only server must refuse writes
        // *fast* (never acknowledge what it cannot make durable), and a
        // fail-stopped one refuses everything. Raced submissions that slip
        // past this check are caught again by the commit thread under the
        // mutation lock.
        match self.shared.health() {
            HealthState::ReadOnly => {
                state.complete(Err(PbdsError::ReadOnly));
                return ticket;
            }
            HealthState::FailStop => {
                state.complete(Err(PbdsError::FailStop));
                return ticket;
            }
            HealthState::Healthy | HealthState::Degraded => {}
        }
        // Fix: an empty append cannot change any state — complete it here
        // with no WAL record, no epoch bump and no queue round-trip. (The
        // equivalent delete short-circuit needs the predicate evaluated
        // against the batch-time state, so the commit thread decides it.)
        if matches!(&mutation, Mutation::Append(rows) if rows.is_empty()) {
            let result = self
                .shared
                .snapshot()
                .table(table)
                .map(|t| MutationOutcome {
                    table: table.to_string(),
                    epoch: t.data_epoch(),
                    rows_affected: 0,
                    wal_seq: None,
                    batch_len: 0,
                })
                .map_err(PbdsError::from);
            state.complete(result);
            return ticket;
        }
        self.shared.metrics.mutations_submitted.inc();
        *self.shared.backlog.lock() += 1;
        let request = WriteRequest {
            table: table.to_string(),
            mutation,
            ticket: state,
        };
        let sent = match &self.ingest_tx {
            Some(tx) => tx.send(request).map_err(|e| e.0),
            None => Err(request),
        };
        if let Err(request) = sent {
            // Only reachable mid-teardown: the commit thread is gone.
            request
                .ticket
                .complete(Err(PbdsError::Persist(PersistError::Io(
                    "commit thread unavailable (server shutting down)".into(),
                ))));
            self.shared.writes_finished(1);
        }
        ticket
    }

    /// Open a session. Sessions are lightweight and `Send`; open one per
    /// serving thread.
    pub fn session(&self) -> PbdsSession<'_> {
        PbdsSession { server: self }
    }

    /// Serve a whole stream of `(template, binding)` instances across
    /// `threads` session threads, preserving stream order in the returned
    /// vector. Queries are striped over the threads (query `i` runs on
    /// thread `i % threads`), so runs with different thread counts serve the
    /// same stream.
    pub fn serve_stream(
        &self,
        stream: &[(QueryTemplate, Vec<Value>)],
        threads: usize,
    ) -> Result<Vec<ServedQuery>, PbdsError> {
        let threads = threads.clamp(1, stream.len().max(1));
        let mut per_thread: Vec<Vec<(usize, ServedQuery)>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let session = self.session();
                    s.spawn(move || {
                        let mut out = Vec::new();
                        for (i, (template, binding)) in stream.iter().enumerate() {
                            if i % threads != t {
                                continue;
                            }
                            match session.serve(template, binding) {
                                Ok(served) => out.push((i, served)),
                                Err(e) => return Err(e),
                            }
                        }
                        Ok(out)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(result) => result,
                    Err(_) => {
                        // A panicking session must not take the whole server
                        // (or the caller) down with it: count it, surface a
                        // typed error for this stream, keep serving others.
                        self.shared.metrics.session_panics.inc();
                        self.shared.note(
                            "a session thread panicked while serving a stream; \
                             the stream's results were discarded"
                                .into(),
                        );
                        Err(PbdsError::SessionPanicked)
                    }
                })
                .collect::<Result<Vec<_>, PbdsError>>()
        })?;
        let mut merged: Vec<(usize, ServedQuery)> = per_thread.drain(..).flatten().collect();
        merged.sort_by_key(|(i, _)| *i);
        Ok(merged.into_iter().map(|(_, q)| q).collect())
    }

    /// Block until every submitted mutation has committed and every enqueued
    /// capture task has finished.
    pub fn drain(&self) {
        {
            let guard = self.shared.backlog.lock();
            let _unused = self.shared.backlog_drained.wait_while(guard, |n| *n > 0);
        }
        let guard = self.shared.in_flight.lock();
        let _unused = self.shared.drained.wait_while(guard, |n| *n > 0);
    }
}

impl Drop for PbdsServer {
    fn drop(&mut self) {
        // Closing the ingest channel ends the commit loop once it has
        // drained (and committed) every queued mutation; then closing the
        // capture channel ends the worker loops once that queue is empty.
        self.ingest_tx.take();
        if let Some(commit) = self.commit_thread.take() {
            let _unused = commit.join();
        }
        if let Some(janitor) = self.janitor.take() {
            self.shared.stop_janitor();
            let _unused = janitor.join();
        }
        self.capture_tx.take();
        for w in self.workers.drain(..) {
            let _unused = w.join();
        }
    }
}

/// A lightweight per-thread handle for serving queries.
pub struct PbdsSession<'s> {
    server: &'s PbdsServer,
}

impl PbdsSession<'_> {
    /// Serve one instance of a template.
    pub fn serve(
        &self,
        template: &QueryTemplate,
        binding: &[Value],
    ) -> Result<ServedQuery, PbdsError> {
        let _query_span = span("query.serve");
        let sw = clock::Stopwatch::start();
        let result = self.serve_inner(template, binding);
        if let Ok(served) = &result {
            let m = &self.server.shared.metrics;
            m.query_seconds.record_duration(sw.elapsed());
            m.queries_served.inc();
            m.exec_rows_scanned.add(served.record.stats.rows_scanned);
            m.exec_blocks_skipped
                .add(served.record.stats.blocks_skipped);
            m.exec_join_key_filters
                .add(served.record.stats.join_key_filters);
        }
        result
    }

    /// The serve body; the public wrapper records end-to-end latency
    /// (`pbds_query_seconds`) and the per-query execution totals around it.
    fn serve_inner(
        &self,
        template: &QueryTemplate,
        binding: &[Value],
    ) -> Result<ServedQuery, PbdsError> {
        let shared = &self.server.shared;
        // Admission: fail-safe gate plus the per-query snapshot.
        let db = {
            let _s = span("query.admit");
            shared.take_injected_panic(PanicSite::Session);
            // Fail-stop refuses reads too: an answer that cannot be
            // reconciled with the durable state is worse than no answer.
            // Read-only and degraded servers keep serving reads at full
            // fidelity.
            if shared.health() == HealthState::FailStop {
                return Err(PbdsError::FailStop);
            }
            // One snapshot per query: the whole serve — safety analysis,
            // reuse lookup, execution — sees a single consistent database
            // state even while mutations land concurrently. The catalog's
            // per-entry epoch check guarantees no sketch maintained past
            // this snapshot's epoch (nor one lagging behind it) is ever
            // offered against it.
            shared.snapshot()
        };
        let plan = {
            let _s = span("query.template_match");
            template.instantiate(binding)
        };
        if shared.config.strategy == Strategy::NoPbds {
            return self.plain(&db, template, &plan, false);
        }

        let Some(_attrs) = shared.catalog.safe_attrs(&db, template) else {
            return self.plain(&db, template, &plan, false);
        };

        if let Some(est) = estimate_selectivity(&db, &plan) {
            if est > shared.config.strategy.selectivity_threshold() {
                return self.plain(&db, template, &plan, false);
            }
        }

        // Catalog hit, including the revalidation fallback.
        let reused = {
            let _s = span("query.reuse_check");
            execute_with_reuse(
                &db,
                &shared.engine,
                &shared.catalog,
                shared.config.style,
                template,
                binding,
                &plan,
            )?
        };
        if let Some((record, relation)) = reused {
            return Ok(ServedQuery {
                relation,
                record,
                capture_enqueued: false,
                snapshot: db,
            });
        }

        // Miss: capture when the strategy says so. Without capture workers
        // the session captures on its own thread and answers with the
        // capture run; otherwise it enqueues the capture and answers
        // plainly, never waiting for it.
        let capture = {
            let _s = span("query.capture_enqueue");
            shared
                .config
                .strategy
                .capture_on_miss(&shared.catalog, template)
                // The capture fuse is blown after repeated panics.
                && !shared.capture_disabled.load(Ordering::Relaxed)
                // The pending mark: no identical capture is in flight.
                && shared.catalog.begin_capture(template, binding)
        };
        if !capture {
            return self.plain(&db, template, &plan, false);
        }
        if shared.config.capture_workers > 0 {
            let enqueued = self.enqueue_capture(template, binding);
            return self.plain(&db, template, &plan, enqueued);
        }
        let captured = shared.contain_capture(template, binding, || {
            let _capture_span = span("capture.run");
            shared.take_injected_panic(PanicSite::Capture);
            shared.capture(&db, template, binding, &plan, clock::Stopwatch::start())
        });
        // Already covered, nothing to partition on, or the capture failed
        // or panicked.
        let Some(Some((relation, stats))) = captured else {
            return self.plain(&db, template, &plan, false);
        };
        Ok(ServedQuery {
            record: QueryRecord::of(template, Action::Capture, relation.len(), stats),
            relation,
            capture_enqueued: false,
            snapshot: db,
        })
    }

    /// Templatize a raw query instance (extracting its literal parameters)
    /// and serve it. This is the entry point for callers that do not manage
    /// templates themselves; instances of the same query shape share
    /// sketches through the extracted template's name *and* structural
    /// fingerprint, so reusing a name for a different query shape is safe.
    pub fn serve_plan(&self, name: &str, plan: &LogicalPlan) -> Result<ServedQuery, PbdsError> {
        let (template, binding) = templatize(name, plan);
        self.serve(&template, &binding)
    }

    /// Hand a capture whose pending mark is taken to the workers; `false`
    /// (mark cleared) when they are gone.
    fn enqueue_capture(&self, template: &QueryTemplate, binding: &[Value]) -> bool {
        let shared = &self.server.shared;
        *shared.in_flight.lock() += 1;
        let task = CaptureTask {
            template: template.clone(),
            binding: binding.to_vec(),
        };
        let sent = (self.server.capture_tx.as_ref()).is_some_and(|tx| tx.send(task).is_ok());
        if !sent {
            shared.catalog.finish_capture(template, binding);
            shared.capture_finished();
        }
        sent
    }

    fn plain(
        &self,
        db: &Arc<Database>,
        template: &QueryTemplate,
        plan: &LogicalPlan,
        capture_enqueued: bool,
    ) -> Result<ServedQuery, PbdsError> {
        let shared = &self.server.shared;
        let out = {
            let _s = span("query.execute");
            shared.engine.execute(db, plan)?
        };
        Ok(ServedQuery {
            record: QueryRecord::of(template, Action::Plain, out.relation.len(), out.stats),
            relation: out.relation,
            capture_enqueued,
            snapshot: Arc::clone(db),
        })
    }
}

/// Background capture loop: pull tasks until the channel closes.
fn capture_worker(shared: &ServerShared, rx: &TrackedMutex<Receiver<CaptureTask>>) {
    loop {
        // Hold the lock only while receiving, so workers pull tasks
        // round-robin instead of serializing on one another's captures.
        let task = {
            let rx = rx.lock();
            rx.recv()
        };
        let Ok(task) = task else {
            return; // channel closed: server is shutting down
        };
        shared.contain_capture(&task.template, &task.binding, || run_capture(shared, &task));
        // A leaked `in_flight` count would deadlock every future `drain()`.
        shared.capture_finished();
    }
}

fn run_capture(shared: &ServerShared, task: &CaptureTask) {
    let _capture_span = span("capture.run");
    shared.take_injected_panic(PanicSite::Capture);
    let started = clock::Stopwatch::start();
    // The capture runs against one database snapshot; if a mutation lands
    // mid-capture, the catalog's epoch-checked insert rejects the (now
    // stale) sketch set rather than storing pre-mutation provenance.
    let db = shared.snapshot();
    let plan = task.template.instantiate(&task.binding);
    // A failed capture only loses the optimization, never a result.
    let _unused = shared.capture(&db, &task.template, &task.binding, &plan, started);
}

impl ServerShared {
    /// Run a capture whose pending mark the session took, then clear the
    /// mark. A panic is contained — a failed capture only loses an
    /// optimization, but a leaked mark would block the binding's capture
    /// forever — counted, and `None`; enough panics blow the capture fuse.
    fn contain_capture<R>(
        &self,
        template: &QueryTemplate,
        binding: &[Value],
        capture: impl FnOnce() -> R,
    ) -> Option<R> {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(capture));
        self.catalog.finish_capture(template, binding);
        if result.is_err() {
            let total = self.metrics.capture_panics.inc_and_get();
            self.note(format!(
                "capture for template {:?} panicked ({total} so far); the \
                 query stream is unaffected",
                template.name()
            ));
            // Repeated panics mean a systematic bug, not bad luck: blow the
            // capture fuse so the serving path stops feeding it. Queries
            // keep being answered plainly — capture is an optimization.
            if total >= MAX_CAPTURE_PANICS && !self.capture_disabled.swap(true, Ordering::SeqCst) {
                self.degrade(
                    HealthState::Degraded,
                    format!("capture disabled after {total} panics"),
                );
            }
        }
        result.ok()
    }

    /// [`capture_and_store`] against `db`: the query's answer and the
    /// capture run's counters. `None` when a stored sketch already covers
    /// the binding, there is nothing to partition on, or the capture failed.
    /// A stored capture counts in `pbds_captures_done` and
    /// `pbds_capture_seconds` (timed from `started`); sketches rejected as
    /// stale do not, but the answer stands.
    fn capture(
        &self,
        db: &Database,
        template: &QueryTemplate,
        binding: &[Value],
        plan: &LogicalPlan,
        started: clock::Stopwatch,
    ) -> Option<(Relation, ExecStats)> {
        // A concurrent capture may have stored a covering sketch since the
        // caller's miss; the pending mark it held is cleared only after its
        // insert, so this re-check sees it. The quiet probe keeps hit/miss
        // counters and LRU stamps reflecting serving traffic.
        if self.catalog.is_covered(db, template, binding) {
            return None;
        }
        let (relation, stats, stored) = capture_and_store(
            db,
            &self.catalog,
            self.config.profile,
            self.config.fragments,
            template,
            binding,
            plan,
        )
        .ok()??;
        if stored.is_some() {
            self.metrics.captures_done.inc();
            self.metrics
                .capture_seconds
                .record_duration(started.elapsed());
        }
        Some((relation, stats))
    }
}

// Concurrency audit: the server and its catalog are shared across session
// threads and capture workers.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SketchCatalog>();
    assert_send_sync::<PbdsServer>();
    assert_send_sync::<ServerShared>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use pbds_algebra::{col, lit, param, AggExpr, AggFunc};
    use pbds_storage::{DataType, Schema, StorageError, TableBuilder};

    fn sales_db() -> Arc<Database> {
        let schema = Schema::from_pairs(&[("grp", DataType::Int), ("amount", DataType::Int)]);
        let mut b = TableBuilder::new("sales", schema);
        b.block_size(100).index("grp");
        for i in 0..5_000i64 {
            b.push(vec![Value::Int(i % 50), Value::Int((i * 37) % 1000 + 1)]);
        }
        let mut db = Database::new();
        db.add_table(b.build());
        Arc::new(db)
    }

    /// A `pbds_*` counter of the server's snapshot (panics on a missing name,
    /// so a typo fails loudly instead of reading zero).
    fn counter(server: &PbdsServer, name: &str) -> u64 {
        server.metrics_snapshot().counter(name).expect(name)
    }

    fn gauge(server: &PbdsServer, name: &str) -> i64 {
        server.metrics_snapshot().gauge(name).expect(name)
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

    #[test]
    fn miss_enqueues_capture_then_hits_after_drain() {
        let db = sales_db();
        let server = PbdsServer::new(Arc::clone(&db), ServerConfig::default());
        let session = server.session();
        let t = having_template();

        let first = session.serve(&t, &[Value::Int(50_000)]).unwrap();
        assert_eq!(first.record.action, Action::Plain);
        assert!(first.capture_enqueued, "miss should enqueue capture");
        server.drain();
        assert_eq!(server.catalog().stored_sketches(), 1);
        assert_eq!(counter(&server, "pbds_captures_done"), 1);

        // A tighter instance now reuses the captured sketch.
        let second = session.serve(&t, &[Value::Int(53_000)]).unwrap();
        assert_eq!(
            second.record.action,
            Action::UseSketch,
            "{:?}",
            second.record
        );
        // And scans less than the plain execution did.
        assert!(second.record.stats.rows_scanned < first.record.stats.rows_scanned);
    }

    #[test]
    fn inline_capture_answers_with_the_capture_run_and_contains_panics() {
        let db = sales_db();
        let config = ServerConfig {
            capture_workers: 0,
            ..ServerConfig::default()
        };
        let server = PbdsServer::new(Arc::clone(&db), config);
        let session = server.session();
        let t = having_template();
        let binding = [Value::Int(50_000)];
        let plain = Engine::new(EngineProfile::Indexed)
            .execute(&db, &t.instantiate(&binding))
            .unwrap();

        // A panicked capture is counted and the query answered plainly; the
        // pending mark is cleared, so the next miss captures again.
        server.inject_panic(PanicSite::Capture);
        let panicked = session.serve(&t, &binding).unwrap();
        assert_eq!(panicked.record.action, Action::Plain);
        assert!(panicked.relation.bag_eq(&plain.relation));
        assert_eq!(counter(&server, "pbds_robustness_capture_panics"), 1);
        assert_eq!(server.catalog().stored_sketches(), 0);

        // The capture runs on the session's thread and answers the query.
        let captured = session.serve(&t, &binding).unwrap();
        assert_eq!(captured.record.action, Action::Capture);
        assert!(!captured.capture_enqueued);
        assert!(captured.relation.bag_eq(&plain.relation));
        assert_eq!(captured.record.result_rows, plain.relation.len());
        assert_eq!(server.catalog().stored_sketches(), 1);
        assert_eq!(counter(&server, "pbds_captures_done"), 1);
        let reused = session.serve(&t, &[Value::Int(53_000)]).unwrap();
        assert_eq!(reused.record.action, Action::UseSketch);
    }

    #[test]
    fn results_match_plain_execution_regardless_of_action() {
        let db = sales_db();
        let server = PbdsServer::new(Arc::clone(&db), ServerConfig::default());
        let session = server.session();
        let engine = Engine::new(EngineProfile::Indexed);
        let t = having_template();
        for bound in [50_000, 53_000, 40_000, 52_000, 55_000] {
            let served = session.serve(&t, &[Value::Int(bound)]).unwrap();
            let plain = engine
                .execute(&db, &t.instantiate(&[Value::Int(bound)]))
                .unwrap();
            assert!(
                served.relation.bag_eq(&plain.relation),
                "bound {bound}: {:?}",
                served.record.action
            );
            server.drain(); // let captures land so later bounds exercise hits
        }
    }

    #[test]
    fn duplicate_misses_enqueue_only_one_capture() {
        let db = sales_db();
        let server = PbdsServer::new(Arc::clone(&db), ServerConfig::default());
        let t = having_template();
        let stream: Vec<(QueryTemplate, Vec<Value>)> = (0..8)
            .map(|_| (t.clone(), vec![Value::Int(50_000)]))
            .collect();
        let served = server.serve_stream(&stream, 4).unwrap();
        server.drain();
        let enqueued = served.iter().filter(|s| s.capture_enqueued).count();
        assert!(enqueued >= 1);
        // The pending-capture dedup keeps the store from collecting
        // duplicates of one binding.
        assert_eq!(server.catalog().stored_sketches(), 1);
    }

    #[test]
    fn serve_plan_templatizes_instances() {
        let db = sales_db();
        let server = PbdsServer::new(Arc::clone(&db), ServerConfig::default());
        let session = server.session();
        let make_plan = |bound: i64| {
            LogicalPlan::scan("sales")
                .aggregate(
                    vec!["grp"],
                    vec![AggExpr::new(AggFunc::Sum, col("amount"), "total")],
                )
                .filter(col("total").gt(lit(bound)))
        };
        let first = session.serve_plan("adhoc", &make_plan(50_000)).unwrap();
        assert!(first.capture_enqueued);
        server.drain();
        let second = session.serve_plan("adhoc", &make_plan(53_000)).unwrap();
        assert_eq!(second.record.action, Action::UseSketch);
    }

    #[test]
    fn append_mutation_keeps_serving_fresh_and_correct() {
        let db = sales_db();
        let server = PbdsServer::new(Arc::clone(&db), ServerConfig::default());
        let session = server.session();
        let t = having_template();
        let tight = vec![Value::Int(53_000)];
        session.serve(&t, &[Value::Int(50_000)]).unwrap();
        server.drain();
        assert_eq!(
            session.serve(&t, &tight).unwrap().record.action,
            Action::UseSketch
        );

        // Push two groups' totals around; every new row lands in an
        // existing fragment, so the stored sketch is extended, not dropped.
        let outcome = server
            .apply_mutation(
                "sales",
                Mutation::Append(
                    (0..60)
                        .map(|i| vec![Value::Int(i % 3), Value::Int(900)])
                        .collect(),
                ),
            )
            .unwrap();
        assert_eq!(outcome.rows_affected, 60);
        assert_eq!(server.db().table("sales").unwrap().len(), 5_060);

        let served = session.serve(&t, &tight).unwrap();
        let plain = Engine::new(EngineProfile::Indexed)
            .execute(&server.db(), &t.instantiate(&tight))
            .unwrap();
        assert!(
            served.relation.bag_eq(&plain.relation),
            "served result diverged from plain execution after append \
             (action {:?})",
            served.record.action
        );
        assert!(counter(&server, "pbds_catalog_extended") >= 1);
        // The maintained sketch keeps answering without recapture.
        assert_eq!(served.record.action, Action::UseSketch);
    }

    #[test]
    fn delete_mutation_keeps_serving_fresh_and_correct() {
        let db = sales_db();
        let server = PbdsServer::new(Arc::clone(&db), ServerConfig::default());
        let session = server.session();
        let t = having_template();
        let tight = vec![Value::Int(53_000)];
        session.serve(&t, &[Value::Int(50_000)]).unwrap();
        server.drain();

        let outcome = server
            .apply_mutation("sales", Mutation::DeleteWhere(col("amount").gt(lit(900))))
            .unwrap();
        assert!(outcome.rows_affected > 0);
        let expected_len = 5_000 - outcome.rows_affected;
        assert_eq!(server.db().table("sales").unwrap().len(), expected_len);

        let served = session.serve(&t, &tight).unwrap();
        let plain = Engine::new(EngineProfile::Indexed)
            .execute(&server.db(), &t.instantiate(&tight))
            .unwrap();
        assert!(
            served.relation.bag_eq(&plain.relation),
            "served result diverged from plain execution after delete \
             (action {:?})",
            served.record.action
        );
    }

    #[test]
    fn bad_mutations_are_rejected_without_side_effects() {
        let db = sales_db();
        let server = PbdsServer::new(Arc::clone(&db), ServerConfig::default());
        // Wrong arity: nothing is appended, the snapshot is unchanged.
        let err = server
            .apply_mutation("sales", Mutation::Append(vec![vec![Value::Int(1)]]))
            .unwrap_err();
        assert!(matches!(
            err,
            PbdsError::Storage(pbds_storage::StorageError::ArityMismatch { .. })
        ));
        assert_eq!(server.db().table("sales").unwrap().len(), 5_000);
        // Unknown table.
        assert!(server
            .apply_mutation("nope", Mutation::Append(vec![]))
            .is_err());
        // A delete predicate referencing a missing column errors before
        // deleting anything.
        let err = server
            .apply_mutation("sales", Mutation::DeleteWhere(col("missing").gt(lit(0))))
            .unwrap_err();
        assert!(matches!(err, PbdsError::Exec(_)));
        assert_eq!(server.db().table("sales").unwrap().len(), 5_000);
    }

    /// A fresh scratch directory under the workspace `target/` dir (tests
    /// must not write outside the repository).
    fn test_dir(name: &str) -> PathBuf {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/core-unit-tests")
            .join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create test dir");
        dir
    }

    #[test]
    fn durable_server_reopens_with_a_warm_catalog() {
        let dir = test_dir("durable_warm");
        let db = sales_db();
        let t = having_template();
        let rows_before;
        {
            let server =
                PbdsServer::create(&dir, Arc::clone(&db), ServerConfig::default()).unwrap();
            let session = server.session();
            let first = session.serve(&t, &[Value::Int(50_000)]).unwrap();
            assert!(first.capture_enqueued);
            server.drain();
            assert_eq!(server.catalog().stored_sketches(), 1);
            rows_before = server.db().table("sales").unwrap().rows().to_vec();
            server.shutdown().unwrap();
        }

        let server = PbdsServer::open(&dir, ServerConfig::default()).unwrap();
        let report = server.recovery_report().unwrap();
        assert_eq!(report.catalog_imported, 1, "{report:?}");
        assert_eq!(report.catalog_dropped, 0);
        assert_eq!(report.wal_replayed, 0);
        assert_eq!(
            server.db().table("sales").unwrap().rows(),
            &rows_before[..],
            "recovered rows must be byte-identical"
        );
        // The very first query of the recovered server reuses the persisted
        // sketch — no recapture.
        let session = server.session();
        let served = session.serve(&t, &[Value::Int(53_000)]).unwrap();
        assert_eq!(
            served.record.action,
            Action::UseSketch,
            "{:?}",
            served.record
        );
        assert!(!served.capture_enqueued);
        assert_eq!(
            counter(&server, "pbds_captures_done"),
            0,
            "warm start must not pay capture again"
        );
    }

    #[test]
    fn uncheckpointed_mutations_replay_from_the_wal() {
        let dir = test_dir("durable_wal_replay");
        let db = sales_db();
        let t = having_template();
        let config = ServerConfig {
            checkpoint_every: None, // keep everything in the WAL
            ..ServerConfig::default()
        };
        let expected_rows;
        {
            let server = PbdsServer::create(&dir, Arc::clone(&db), config).unwrap();
            let session = server.session();
            session.serve(&t, &[Value::Int(50_000)]).unwrap();
            server.drain();
            server
                .apply_mutation(
                    "sales",
                    Mutation::Append(
                        (0..30)
                            .map(|i| vec![Value::Int(i % 3), Value::Int(800)])
                            .collect(),
                    ),
                )
                .unwrap();
            server
                .apply_mutation("sales", Mutation::DeleteWhere(col("amount").gt(lit(950))))
                .unwrap();
            expected_rows = server.db().table("sales").unwrap().rows().to_vec();
            // No shutdown, no checkpoint: simulate a crash.
            drop(server);
        }

        let server = PbdsServer::open(&dir, config).unwrap();
        let report = server.recovery_report().unwrap();
        assert_eq!(report.wal_replayed, 2, "{report:?}");
        assert_eq!(
            server.db().table("sales").unwrap().rows(),
            &expected_rows[..]
        );
        // Every surviving catalog entry is epoch-valid against the
        // recovered database (maintained through the replayed mutations or
        // dropped — never stale).
        let db_now = server.db();
        for entry in server.catalog().export().entries {
            for (table, epoch) in entry.capture_epochs {
                assert_eq!(
                    db_now.table(&table).unwrap().data_epoch(),
                    epoch,
                    "entry for {table} recovered epoch-stale"
                );
            }
        }
        // Serving still matches plain execution.
        let session = server.session();
        let served = session.serve(&t, &[Value::Int(53_000)]).unwrap();
        let plain = Engine::new(EngineProfile::Indexed)
            .execute(&server.db(), &t.instantiate(&[Value::Int(53_000)]))
            .unwrap();
        assert!(served.relation.bag_eq(&plain.relation));
    }

    #[test]
    fn automatic_checkpoint_policy_truncates_the_wal() {
        let dir = test_dir("durable_auto_checkpoint");
        let db = sales_db();
        let config = ServerConfig {
            checkpoint_every: Some(2),
            ..ServerConfig::default()
        };
        let server = PbdsServer::create(&dir, db, config).unwrap();
        let append = |i: i64| Mutation::Append(vec![vec![Value::Int(i % 50), Value::Int(10)]]);
        server.apply_mutation("sales", append(0)).unwrap();
        let (records, _) = pbds_persist::read_records(&dir.join(WAL_FILE)).unwrap();
        assert_eq!(records.len(), 1, "first mutation stays in the WAL");
        server.apply_mutation("sales", append(1)).unwrap();
        let (records, _) = pbds_persist::read_records(&dir.join(WAL_FILE)).unwrap();
        assert!(
            records.is_empty(),
            "second mutation must trigger the checkpoint and truncate"
        );
        // The checkpointed snapshot carries the post-mutation state.
        let (snap_db, _) = pbds_persist::read_snapshot(&dir.join(SNAPSHOT_FILE)).unwrap();
        assert_eq!(snap_db.table("sales").unwrap().len(), 5_002);
        // A third mutation restarts the WAL with a fresh sequence.
        server.apply_mutation("sales", append(2)).unwrap();
        let (records, _) = pbds_persist::read_records(&dir.join(WAL_FILE)).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].seq, 3);
        drop(server);
        let reopened = PbdsServer::open(&dir, config).unwrap();
        assert_eq!(reopened.recovery_report().unwrap().wal_replayed, 1);
        assert_eq!(reopened.db().table("sales").unwrap().len(), 5_003);
    }

    #[test]
    fn create_over_a_stale_directory_discards_the_old_incarnation() {
        let dir = test_dir("durable_recreate");
        let config = ServerConfig {
            checkpoint_every: None,
            ..ServerConfig::default()
        };
        {
            let server = PbdsServer::create(&dir, sales_db(), config).unwrap();
            let session = server.session();
            session
                .serve(&having_template(), &[Value::Int(50_000)])
                .unwrap();
            server.drain();
            server
                .apply_mutation(
                    "sales",
                    Mutation::Append(vec![vec![Value::Int(1), Value::Int(5)]]),
                )
                .unwrap();
            server.checkpoint().unwrap(); // persist a catalog entry
            server
                .apply_mutation(
                    "sales",
                    Mutation::Append(vec![vec![Value::Int(2), Value::Int(6)]]),
                )
                .unwrap();
            drop(server); // leaves an uncheckpointed WAL record + catalog
        }
        // Re-create over the same directory with a different initial state:
        // the old incarnation's WAL and catalog must not leak into it.
        let schema = Schema::from_pairs(&[("x", DataType::Int)]);
        let mut fresh = Database::new();
        fresh.add_table(pbds_storage::Table::new(
            "other",
            schema,
            vec![vec![Value::Int(1)]],
        ));
        let server = PbdsServer::create(&dir, Arc::new(fresh), config).unwrap();
        drop(server);
        let reopened = PbdsServer::open(&dir, config).unwrap();
        let report = reopened.recovery_report().unwrap();
        assert_eq!(report.wal_replayed, 0, "{report:?}");
        assert_eq!(report.catalog_imported, 0, "{report:?}");
        assert_eq!(reopened.db().table_names(), vec!["other"]);
    }

    #[test]
    fn durability_calls_on_memory_servers_error() {
        let server = PbdsServer::new(sales_db(), ServerConfig::default());
        assert!(!server.is_durable());
        assert!(server.recovery_report().is_none());
        assert_eq!(server.checkpoint().unwrap_err(), PbdsError::NotDurable);
        // Shutdown of an in-memory server is still a clean no-op.
        server.shutdown().unwrap();
    }

    #[test]
    fn failed_mutations_are_not_logged_to_the_wal() {
        let dir = test_dir("durable_failed_mutation");
        let server = PbdsServer::create(&dir, sales_db(), ServerConfig::default()).unwrap();
        let err = server
            .apply_mutation("sales", Mutation::Append(vec![vec![Value::Int(1)]]))
            .unwrap_err();
        assert!(matches!(err, PbdsError::Storage(_)));
        let err = server
            .apply_mutation("sales", Mutation::DeleteWhere(col("missing").gt(lit(0))))
            .unwrap_err();
        assert!(matches!(err, PbdsError::Exec(_)));
        drop(server);
        let (records, _) = pbds_persist::read_records(&dir.join(WAL_FILE)).unwrap();
        assert!(
            records.is_empty(),
            "failed mutations must not be replayable"
        );
        let reopened = PbdsServer::open(&dir, ServerConfig::default()).unwrap();
        assert_eq!(reopened.db().table("sales").unwrap().len(), 5_000);
    }

    #[test]
    fn no_pbds_server_never_captures() {
        let db = sales_db();
        let server = PbdsServer::new(
            Arc::clone(&db),
            ServerConfig {
                strategy: Strategy::NoPbds,
                ..ServerConfig::default()
            },
        );
        let t = having_template();
        let stream: Vec<(QueryTemplate, Vec<Value>)> = (0..6)
            .map(|i| (t.clone(), vec![Value::Int(50_000 + i * 500)]))
            .collect();
        let served = server.serve_stream(&stream, 3).unwrap();
        server.drain();
        assert!(served.iter().all(|s| s.record.action == Action::Plain));
        assert_eq!(server.catalog().stored_sketches(), 0);
    }

    #[test]
    fn pipelined_submissions_ride_one_batch() {
        let dir = test_dir("durable_group_commit");
        let server = PbdsServer::create(&dir, sales_db(), ServerConfig::default()).unwrap();
        // Submit-then-wait: while the first batch holds the commit thread,
        // the rest queue up and must land under a shared fsync.
        let tickets: Vec<MutationTicket> = (0..32)
            .map(|i| {
                server.submit_mutation(
                    "sales",
                    Mutation::Append(vec![vec![Value::Int(i), Value::Int(1)]]),
                )
            })
            .collect();
        let outcomes: Vec<MutationOutcome> =
            tickets.into_iter().map(|t| t.wait().unwrap()).collect();
        assert_eq!(server.db().table("sales").unwrap().len(), 5_032);
        // WAL sequences are dense and in submission order.
        let seqs: Vec<u64> = outcomes.iter().map(|o| o.wal_seq.unwrap()).collect();
        assert_eq!(seqs, (1..=32).collect::<Vec<u64>>());
        let snap = server.metrics_snapshot();
        let c = |name: &str| snap.counter(name).expect(name);
        assert_eq!(c("pbds_commit_mutations_submitted"), 32);
        assert_eq!(c("pbds_commit_mutations_committed"), 32);
        let batches = c("pbds_commit_batches");
        assert!(
            batches < 32,
            "32 pipelined mutations must not take 32 batches: {batches}"
        );
        assert_eq!(c("pbds_wal_fsyncs"), batches);
        let max_batch = snap
            .gauge("pbds_commit_max_batch")
            .expect("pbds_commit_max_batch");
        assert!(max_batch > 1, "max batch {max_batch}");
        assert!(outcomes.iter().any(|o| o.batch_len > 1), "{outcomes:?}");
        // Every record replays: the batched WAL is byte-compatible with the
        // sequential framing.
        drop(server);
        let reopened = PbdsServer::open(&dir, ServerConfig::default()).unwrap();
        assert_eq!(reopened.recovery_report().unwrap().wal_replayed, 32);
        assert_eq!(reopened.db().table("sales").unwrap().len(), 5_032);
    }

    #[test]
    fn batched_appends_to_one_table_advance_the_epoch_once() {
        let server = PbdsServer::new(sales_db(), ServerConfig::default());
        let before = server.db().table("sales").unwrap().data_epoch();
        let tickets: Vec<MutationTicket> = (0..8)
            .map(|i| {
                server.submit_mutation(
                    "sales",
                    Mutation::Append(vec![vec![Value::Int(i), Value::Int(1)]]),
                )
            })
            .collect();
        let outcomes: Vec<MutationOutcome> =
            tickets.into_iter().map(|t| t.wait().unwrap()).collect();
        let after = server.db().table("sales").unwrap().data_epoch();
        let batches = counter(&server, "pbds_commit_batches");
        assert!(
            after - before < 8,
            "appends merged into {batches} batch(es) must advance the epoch \
             fewer than 8 times (epoch {before} -> {after})"
        );
        // Members of a merged run all report the run's final epoch.
        assert!(outcomes.iter().all(|o| o.epoch <= after));
        assert_eq!(server.db().table("sales").unwrap().len(), 5_008);
    }

    #[test]
    fn noop_mutations_write_no_wal_record_and_keep_the_epoch() {
        let dir = test_dir("durable_noop");
        let server = PbdsServer::create(&dir, sales_db(), ServerConfig::default()).unwrap();
        let epoch = server.db().table("sales").unwrap().data_epoch();

        // Empty append: short-circuits before the queue.
        let out = server
            .apply_mutation("sales", Mutation::Append(vec![]))
            .unwrap();
        assert_eq!(out.rows_affected, 0);
        assert_eq!(out.wal_seq, None);
        assert_eq!(out.batch_len, 0);

        // Delete matching nothing: decided at apply time, same guarantees.
        let out = server
            .apply_mutation(
                "sales",
                Mutation::DeleteWhere(col("amount").gt(lit(1_000_000))),
            )
            .unwrap();
        assert_eq!(out.rows_affected, 0);
        assert_eq!(out.wal_seq, None);

        assert_eq!(
            server.db().table("sales").unwrap().data_epoch(),
            epoch,
            "no-op mutations must not bump the epoch"
        );
        let (records, _) = pbds_persist::read_records(&dir.join(WAL_FILE)).unwrap();
        assert!(records.is_empty(), "no-op mutations must not be logged");
        assert_eq!(counter(&server, "pbds_commit_mutations_committed"), 0);

        // And an effective mutation afterwards still gets sequence 1.
        let out = server
            .apply_mutation(
                "sales",
                Mutation::Append(vec![vec![Value::Int(1), Value::Int(1)]]),
            )
            .unwrap();
        assert_eq!(out.wal_seq, Some(1));
    }

    #[test]
    fn rejected_requests_fail_alone_within_a_batch() {
        let server = PbdsServer::new(sales_db(), ServerConfig::default());
        let bad_table = server.submit_mutation(
            "nope",
            Mutation::Append(vec![vec![Value::Int(1), Value::Int(1)]]),
        );
        let bad_arity =
            server.submit_mutation("sales", Mutation::Append(vec![vec![Value::Int(1)]]));
        let good = server.submit_mutation(
            "sales",
            Mutation::Append(vec![vec![Value::Int(1), Value::Int(1)]]),
        );
        assert!(matches!(
            bad_table.wait(),
            Err(PbdsError::Storage(StorageError::UnknownTable(_)))
        ));
        assert!(matches!(
            bad_arity.wait(),
            Err(PbdsError::Storage(StorageError::ArityMismatch { .. }))
        ));
        assert_eq!(good.wait().unwrap().rows_affected, 1);
        assert_eq!(server.db().table("sales").unwrap().len(), 5_001);
    }

    #[test]
    fn shutdown_flushes_the_ingest_queue() {
        let dir = test_dir("durable_shutdown_flush");
        let server = PbdsServer::create(&dir, sales_db(), ServerConfig::default()).unwrap();
        // Submit without waiting, then shut down: every submitted mutation
        // must still commit and survive the restart.
        let tickets: Vec<MutationTicket> = (0..16)
            .map(|i| {
                server.submit_mutation(
                    "sales",
                    Mutation::Append(vec![vec![Value::Int(i), Value::Int(2)]]),
                )
            })
            .collect();
        server.shutdown().unwrap();
        assert!(tickets.iter().all(|t| t.is_complete()));
        let reopened = PbdsServer::open(&dir, ServerConfig::default()).unwrap();
        assert_eq!(reopened.db().table("sales").unwrap().len(), 5_016);
    }

    #[test]
    fn concurrent_submitters_batch_and_stay_linearizable() {
        let server = Arc::new(PbdsServer::new(sales_db(), ServerConfig::default()));
        std::thread::scope(|s| {
            for w in 0..8i64 {
                let server = Arc::clone(&server);
                s.spawn(move || {
                    for i in 0..20 {
                        server
                            .apply_mutation(
                                "sales",
                                Mutation::Append(vec![vec![Value::Int(w), Value::Int(i)]]),
                            )
                            .unwrap();
                    }
                });
            }
        });
        assert_eq!(server.db().table("sales").unwrap().len(), 5_160);
        assert_eq!(counter(&server, "pbds_commit_mutations_committed"), 160);
    }

    #[test]
    fn delete_in_a_batch_observes_earlier_appends() {
        let server = PbdsServer::new(sales_db(), ServerConfig::default());
        // Queue appends and a delete that matches only the appended rows
        // (amount 7777): the delete must see them despite run merging.
        let a1 = server.submit_mutation(
            "sales",
            Mutation::Append(vec![vec![Value::Int(1), Value::Int(7_777)]]),
        );
        let a2 = server.submit_mutation(
            "sales",
            Mutation::Append(vec![vec![Value::Int(2), Value::Int(7_777)]]),
        );
        let d =
            server.submit_mutation("sales", Mutation::DeleteWhere(col("amount").gt(lit(7_000))));
        let a3 = server.submit_mutation(
            "sales",
            Mutation::Append(vec![vec![Value::Int(3), Value::Int(7_777)]]),
        );
        assert_eq!(a1.wait().unwrap().rows_affected, 1);
        assert_eq!(a2.wait().unwrap().rows_affected, 1);
        // Whether or not the requests shared a batch, the delete runs after
        // both appends in submission order and removes exactly those rows.
        assert_eq!(d.wait().unwrap().rows_affected, 2);
        assert_eq!(a3.wait().unwrap().rows_affected, 1);
        let t = server.db();
        let t = t.table("sales").unwrap();
        assert_eq!(t.len(), 5_001);
        let sevens = t
            .rows()
            .iter()
            .filter(|r| r[1] == Value::Int(7_777))
            .count();
        assert_eq!(sevens, 1, "only the post-delete append survives");
    }

    #[test]
    fn servers_start_healthy_with_clean_robustness_counters() {
        let server = PbdsServer::new(sales_db(), ServerConfig::default());
        assert_eq!(server.health(), HealthState::Healthy);
        let snap = server.metrics_snapshot();
        let robustness: Vec<(&String, &u64)> = snap
            .counters
            .iter()
            .filter(|(name, _)| name.starts_with("pbds_robustness_"))
            .collect();
        assert_eq!(robustness.len(), 8, "{robustness:?}");
        assert!(robustness.iter().all(|(_, &v)| v == 0), "{robustness:?}");
        assert_eq!(gauge(&server, "pbds_capture_disabled"), 0);
        assert!(server.recent_events().is_empty());
    }

    #[test]
    fn injected_session_panic_surfaces_as_a_typed_error() {
        let server = PbdsServer::new(sales_db(), ServerConfig::default());
        let t = having_template();
        let stream: Vec<(QueryTemplate, Vec<Value>)> = (0..4)
            .map(|i| (t.clone(), vec![Value::Int(50_000 + i)]))
            .collect();
        server.inject_panic(PanicSite::Session);
        let err = server.serve_stream(&stream, 2).unwrap_err();
        assert_eq!(err, PbdsError::SessionPanicked);
        assert_eq!(counter(&server, "pbds_robustness_session_panics"), 1);
        // The panic was contained: the server keeps serving new streams.
        assert_eq!(server.health(), HealthState::Healthy);
        let served = server.serve_stream(&stream, 2).unwrap();
        assert_eq!(served.len(), stream.len());
    }

    #[test]
    fn injected_commit_panic_fails_its_batch_and_nothing_else() {
        let server = PbdsServer::new(sales_db(), ServerConfig::default());
        server.inject_panic(PanicSite::Commit);
        let err = server
            .apply_mutation(
                "sales",
                Mutation::Append(vec![vec![Value::Int(1), Value::Int(1)]]),
            )
            .unwrap_err();
        assert!(
            matches!(err, PbdsError::Persist(PersistError::Io(_))),
            "{err}"
        );
        assert_eq!(counter(&server, "pbds_robustness_commit_panics"), 1);
        assert!(!server.recent_events().is_empty());
        // Nothing became visible, and the commit thread survived: the next
        // mutation commits normally.
        assert_eq!(server.db().table("sales").unwrap().len(), 5_000);
        server
            .apply_mutation(
                "sales",
                Mutation::Append(vec![vec![Value::Int(1), Value::Int(1)]]),
            )
            .unwrap();
        assert_eq!(server.db().table("sales").unwrap().len(), 5_001);
    }

    #[test]
    fn repeated_capture_panics_blow_the_capture_fuse() {
        let server = PbdsServer::new(sales_db(), ServerConfig::default());
        let session = server.session();
        let t = having_template();
        for i in 0..MAX_CAPTURE_PANICS {
            server.inject_panic(PanicSite::Capture);
            // A panicked capture stores nothing, so each distinct binding is
            // a fresh miss that re-enqueues capture work.
            let served = session.serve(&t, &[Value::Int(50_000 + i as i64)]).unwrap();
            assert!(
                served.capture_enqueued,
                "panic {i} stopped enqueueing early"
            );
            server.drain();
        }
        assert_eq!(
            counter(&server, "pbds_robustness_capture_panics"),
            MAX_CAPTURE_PANICS
        );
        assert_eq!(gauge(&server, "pbds_capture_disabled"), 1);
        assert_eq!(server.health(), HealthState::Degraded);
        // The fuse holds: further misses serve plainly without enqueueing,
        // and reads/writes keep working.
        let served = session.serve(&t, &[Value::Int(60_000)]).unwrap();
        assert!(!served.capture_enqueued);
        assert_eq!(served.record.action, Action::Plain);
        server
            .apply_mutation(
                "sales",
                Mutation::Append(vec![vec![Value::Int(1), Value::Int(1)]]),
            )
            .unwrap();
        assert_eq!(server.catalog().stored_sketches(), 0);
    }
}
