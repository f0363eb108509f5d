//! The commit pipeline and the durability state it alone owns: the commit
//! thread's loop, which serves the ingest queue in order — mutations in
//! group-commit batches (one copy-on-write database fork, one WAL append +
//! fsync, one catalog delta pass, one atomic swap), checkpoint requests and
//! flush barriers — and runs repair campaigns between them; and
//! [`apply_batch`] — the one way a mutation reaches a [`Database`], taken by
//! the commit thread on its fork and by WAL replay on the recovered
//! snapshot.

use super::{
    HealthState, Mutation, MutationOutcome, PanicSite, Request, ServerShared, TicketState,
    WriteRequest,
};
use crate::catalog::{CatalogDelta, SketchCatalog};
use crate::pbds::PbdsError;
use pbds_algebra::Expr;
use pbds_exec::CompiledExpr;
use pbds_persist::{
    encode_op, write_catalog_with, write_snapshot_with, Io, MutationWal, PersistError,
    CATALOG_FILE, SNAPSHOT_FILE,
};
use pbds_storage::{Database, Row, StorageError};
use pbds_telemetry::{clock, span};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::Arc;
use std::time::Duration;

/// The outcome of a mutation of `table`, with the WAL fields unfilled — the
/// commit thread stamps them once the batch's sequence numbers are durable.
fn outcome(table: &str, epoch: u64, rows_affected: usize) -> MutationOutcome {
    MutationOutcome {
        table: table.to_string(),
        epoch,
        rows_affected,
        wal_seq: None,
        batch_len: 0,
    }
}

/// An open run of consecutive appends to one table inside a batch, merged
/// into a single epoch advance (appends to the same table commute with each
/// other, so `k` appends cost one epoch advance and produce one
/// [`CatalogDelta::Append`] instead of `k`).
struct AppendRun {
    /// Table length before the first append of the run.
    old_len: usize,
    /// Table data epoch before the first append of the run.
    prev_epoch: u64,
    /// `(batch index, rows in that append)` for every merged mutation, in
    /// batch order — used to stamp per-mutation outcomes when the run lands.
    members: Vec<(usize, usize)>,
    /// The queued row batches, in batch order.
    batches: Vec<Vec<Row>>,
}

type Applied = Result<MutationOutcome, PbdsError>;

/// Apply `mutations` to `db` in order, in place — no catalog, no WAL. This is
/// the only way a mutation reaches a [`Database`]: the commit thread applies
/// each batch through it on its fork, and `PbdsServer::open` replays every
/// WAL record past the snapshot through it in one call, so a replayed
/// mutation takes exactly the path the live one took.
///
/// Consecutive appends to a table merge into one run: one epoch advance and
/// one [`CatalogDelta::Append`] carrying the run's rows, read back once when
/// the run lands. A delete first lands its table's open run (it must see the
/// run's rows), then deletes and yields one [`CatalogDelta::Delete`]. A
/// mutation that fails validation (unknown table, arity mismatch, predicate
/// type error) fails alone and changes nothing; the rest still apply.
///
/// Returns one outcome per mutation, in order, and the deltas the sketch
/// catalog is owed. A mutation changed its table exactly when its outcome is
/// `Ok` with `rows_affected > 0`; an empty append or a delete matching
/// nothing changes nothing and yields no delta.
pub(super) fn apply_batch(
    db: &mut Database,
    mutations: impl IntoIterator<Item = (String, Mutation)>,
) -> (Vec<Applied>, Vec<CatalogDelta>) {
    let mut results: Vec<Option<Applied>> = Vec::new();
    let mut deltas: Vec<CatalogDelta> = Vec::new();
    let mut runs: HashMap<String, AppendRun> = HashMap::new();
    for (table, mutation) in mutations {
        let idx = results.len();
        results.push(None);
        match mutation {
            Mutation::Append(rows) => {
                // Validate now so a bad mutation fails alone; the append
                // itself is deferred into the table's open run.
                let (len, arity, prev_epoch) = match db.table(&table) {
                    Ok(t) => (t.len(), t.schema().arity(), t.data_epoch()),
                    Err(e) => {
                        results[idx] = Some(Err(e.into()));
                        continue;
                    }
                };
                if let Some(bad) = rows.iter().find(|r| r.len() != arity) {
                    results[idx] = Some(Err(PbdsError::Storage(StorageError::ArityMismatch {
                        context: table.clone(),
                        expected: arity,
                        got: bad.len(),
                    })));
                    continue;
                }
                if rows.is_empty() {
                    // No-op: no epoch advance, not part of any run.
                    results[idx] = Some(Ok(outcome(&table, prev_epoch, 0)));
                    continue;
                }
                let run = runs.entry(table).or_insert(AppendRun {
                    old_len: len,
                    prev_epoch,
                    members: Vec::new(),
                    batches: Vec::new(),
                });
                run.members.push((idx, rows.len()));
                run.batches.push(rows);
            }
            Mutation::DeleteWhere(predicate) => {
                if let Some(run) = runs.remove(&table) {
                    land_run(db, &table, run, &mut results, &mut deltas);
                }
                results[idx] = Some(delete_where(db, &table, &predicate, &mut deltas));
            }
        }
    }
    for (table, run) in std::mem::take(&mut runs) {
        land_run(db, &table, run, &mut results, &mut deltas);
    }
    let results = results
        .into_iter()
        .map(|r| r.expect("every mutation of the batch resolved"))
        .collect();
    (results, deltas)
}

/// Append an open run's rows through one epoch advance, stamp its members'
/// outcomes and push its delta.
fn land_run(
    db: &mut Database,
    table: &str,
    run: AppendRun,
    results: &mut [Option<Applied>],
    deltas: &mut Vec<CatalogDelta>,
) {
    let landed = db
        .append_row_batches(table, run.batches)
        .map_err(PbdsError::Storage);
    if let Ok(epoch) = landed {
        let t = db.table(table).expect("appended table exists");
        deltas.push(CatalogDelta::Append {
            table: table.to_string(),
            prev_epoch: run.prev_epoch,
            new_epoch: epoch,
            rows: t.rows().range(run.old_len..t.len()).to_vec(),
        });
    }
    // Every row was arity-checked before joining the run and the table
    // existed; only an unforeseen storage failure fails the members.
    for (idx, appended) in run.members {
        results[idx] = Some(landed.clone().map(|epoch| outcome(table, epoch, appended)));
    }
}

/// Delete the rows of `table` matching `predicate`, pushing a delta when any
/// row went.
fn delete_where(
    db: &mut Database,
    table: &str,
    predicate: &Expr,
    deltas: &mut Vec<CatalogDelta>,
) -> Applied {
    let prev_epoch = db.table(table)?.data_epoch();
    // Evaluate the predicate first (propagating evaluation errors before
    // anything is deleted), then delete by mask.
    let doomed: Vec<bool> = {
        let t = db.table(table)?;
        let compiled = CompiledExpr::compile(predicate, t.schema());
        t.rows()
            .iter()
            .map(|row| compiled.matches(row))
            .collect::<Result<_, _>>()?
    };
    let mut doomed = doomed.into_iter();
    let deleted = db.delete_where(table, |_| doomed.next().unwrap_or(false))?;
    let epoch = db.table(table)?.data_epoch();
    if deleted > 0 {
        deltas.push(CatalogDelta::Delete {
            table: table.to_string(),
            prev_epoch,
            new_epoch: epoch,
        });
    }
    Ok(outcome(table, epoch, deleted))
}

/// Durable state of a server opened over a durability directory. The
/// commit thread owns it: nothing else appends, checkpoints or repairs.
pub(super) struct Persistence {
    pub(super) dir: PathBuf,
    /// The I/O layer every durable write goes through: `RealIo`, or a
    /// fault-injecting one (`PbdsServer::create_with_io` / `open_with_io`).
    pub(super) io: Arc<dyn Io>,
    pub(super) wal: MutationWal,
    /// Sequence number the next WAL record will carry.
    pub(super) next_seq: u64,
    /// Mutations logged since the last checkpoint (drives the automatic
    /// checkpoint policy).
    pub(super) since_checkpoint: usize,
}

impl Persistence {
    /// Write a snapshot of `db` (recording the WAL sequence it includes),
    /// export `catalog`, then truncate the WAL. Called between batches, so
    /// `db` is the state the records up to `next_seq - 1` produced.
    fn checkpoint(&mut self, db: &Database, catalog: &SketchCatalog) -> Result<(), PbdsError> {
        let io = self.io.as_ref();
        write_snapshot_with(io, &self.dir.join(SNAPSHOT_FILE), db, self.next_seq - 1)?;
        // Captures may land concurrently; the export is simply the set of
        // entries present now. A capture finishing after the export is lost
        // from *this* checkpoint — an optimization, never an answer.
        write_catalog_with(io, &self.dir.join(CATALOG_FILE), &catalog.export())?;
        self.wal.truncate()?;
        self.since_checkpoint = 0;
        Ok(())
    }
}

/// A running repair campaign: the attempt to make next, and the telemetry
/// clock its backoff runs on from when it was scheduled, so requests served
/// meanwhile never postpone it.
struct Repair {
    attempt: usize,
    since: clock::Stopwatch,
}

impl Repair {
    fn attempt(attempt: usize) -> Repair {
        let since = clock::Stopwatch::start();
        Repair { attempt, since }
    }

    /// Time left before the attempt is due: none for the first, else a
    /// backoff of `1ms << (attempt - 2)`, capped at 64 ms.
    fn remaining(&self) -> Duration {
        let backoff_ms = match self.attempt {
            0 | 1 => 0,
            n => 1u64 << (n - 2).min(6),
        };
        Duration::from_millis(backoff_ms).saturating_sub(self.since.elapsed())
    }
}

/// A submitted mutation travelling through a commit batch.
struct PendingWrite {
    ticket: Arc<TicketState>,
    result: Applied,
    /// Encoded WAL record body, present on durable servers for every
    /// mutation that changed state.
    wal_bytes: Option<Vec<u8>>,
}

/// Maximum mutations the commit thread folds into one group commit (one WAL
/// fsync, one copy-on-write fork, one snapshot swap).
const COMMIT_BATCH_LIMIT: usize = 128;

/// The commit thread, the only code that touches the durability state:
/// batches, checkpoints and repair attempts are ordered by construction, so
/// catalog deltas land in WAL order and a batch sees the health it must obey.
pub(super) struct CommitThread<'s> {
    shared: &'s ServerShared,
    /// `None` on an in-memory server.
    persist: Option<Persistence>,
    repair: Option<Repair>,
}

impl CommitThread<'_> {
    /// Serve the ingest queue until it closes. A mutation opens a batch of the
    /// mutations queued behind it (up to [`COMMIT_BATCH_LIMIT`]): classic
    /// group commit. A control request ends the batch and is served once it
    /// has committed. A due repair attempt runs before the next request.
    pub(super) fn run(shared: &ServerShared, persist: Option<Persistence>, rx: &Receiver<Request>) {
        let mut this = CommitThread {
            shared,
            persist,
            repair: None,
        };
        let mut next: Option<Request> = None;
        loop {
            let wait = (this.repair.as_ref()).map_or(Duration::MAX, Repair::remaining);
            if wait.is_zero() {
                this.repair_attempt();
                continue;
            }
            let request = match next.take() {
                Some(request) => Ok(request),
                None => {
                    // The ingest wait: how long the thread sat idle. With no
                    // campaign running it never times out (`recv_timeout`
                    // waits indefinitely when the deadline overflows).
                    let _s = span("write.ingest_wait");
                    rx.recv_timeout(wait)
                }
            };
            match request {
                Ok(Request::Write(first)) => {
                    let mut batch = vec![first];
                    while batch.len() < COMMIT_BATCH_LIMIT {
                        match rx.try_recv() {
                            Ok(Request::Write(write)) => batch.push(write),
                            control => {
                                next = control.ok();
                                break;
                            }
                        }
                    }
                    this.commit(batch);
                }
                Ok(Request::Checkpoint(reply)) => {
                    let _unused = reply.send(this.checkpoint());
                }
                Ok(Request::Flush(reply)) => {
                    let _unused = reply.send(());
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => return,
            }
        }
    }

    /// [`CommitThread::commit_batch`], with a panic contained: it fails the
    /// batch's tickets instead of stranding their submitters.
    fn commit(&mut self, batch: Vec<WriteRequest>) {
        let (shared, n) = (self.shared, batch.len());
        let tickets: Vec<Arc<TicketState>> = batch.iter().map(|r| Arc::clone(&r.ticket)).collect();
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.commit_batch(batch)));
        if outcome.is_err() {
            shared.metrics.commit_panics.inc();
            shared.note(format!("commit batch panicked; failed its {n} mutation(s)"));
            if self.persist.is_some() {
                // The panic may have struck between "WAL appended" and
                // "database swapped": the log could hold records memory
                // never applied. A checkpoint from the consistent in-memory
                // state resolves the ambiguity (the failed tickets were
                // reported indeterminate, never acknowledged).
                self.degrade_and_repair(
                    HealthState::Degraded,
                    "commit panic left the WAL possibly ahead of memory; \
                     checkpoint repair started"
                        .into(),
                );
            }
            for t in &tickets {
                t.complete(Err(PbdsError::Persist(PersistError::Io(
                    "commit batch panicked".into(),
                ))));
            }
        }
    }

    /// Commit one batch of writes: one copy-on-write database fork, one WAL
    /// append + fsync covering every record, one catalog delta pass, one
    /// atomic swap, then ticket completion. Per-request validation failures
    /// (unknown table, arity mismatch, predicate type error) fail only that
    /// ticket; the rest of the batch commits. A WAL failure fails the whole
    /// batch and nothing becomes visible.
    fn commit_batch(&mut self, batch: Vec<WriteRequest>) {
        let _batch_span = span("write.commit_batch");
        let shared = self.shared;
        shared.take_injected_panic(PanicSite::Commit);
        // Submissions that raced the degradation (already queued when the
        // server went read-only) must not commit until a repair on this
        // thread has settled health again.
        if let Some(refused) = shared.health().write_refusal() {
            for request in batch {
                request.ticket.complete(Err(refused.clone()));
            }
            return;
        }
        let mut db = (*shared.snapshot()).clone();
        let durable = self.persist.is_some();
        // Encode the WAL record bodies from the borrowed mutations before they
        // are consumed — no clone of a bulk append's rows, and nothing is
        // encoded at all on in-memory servers.
        let encoded: Vec<Option<Vec<u8>>> = (batch.iter())
            .map(|r| durable.then(|| encode_op(r.mutation.wal_op(&r.table))))
            .collect();
        let (tickets, mutations): (Vec<_>, Vec<_>) = (batch.into_iter())
            .map(|r| (r.ticket, (r.table, r.mutation)))
            .unzip();
        let (results, deltas) = apply_batch(&mut db, mutations);
        // Only a mutation that changed its table is logged.
        let mut pending: Vec<PendingWrite> = tickets
            .into_iter()
            .zip(results)
            .zip(encoded)
            .map(|((ticket, result), bytes)| {
                let changed = matches!(&result, Ok(o) if o.rows_affected > 0);
                PendingWrite {
                    ticket,
                    result,
                    wal_bytes: bytes.filter(|_| changed),
                }
            })
            .collect();

        // Write-ahead: every surviving record must be durable before
        // anything becomes visible or is acknowledged. One append, one fsync.
        let logged = pending.iter().filter(|p| p.wal_bytes.is_some()).count();
        let mut checkpoint_due = false;
        if let Some(p) = self.persist.as_mut().filter(|_| logged > 0) {
            let base = p.next_seq;
            let bodies = pending.iter().filter_map(|w| w.wal_bytes.as_deref());
            let records: Vec<(u64, &[u8])> = (base..).zip(bodies).collect();
            let appended = {
                let _s = span("write.wal_append_fsync");
                let sw = clock::Stopwatch::start();
                let result = p.wal.append_batch(&records).map_err(PbdsError::from);
                shared
                    .metrics
                    .wal_fsync_seconds
                    .record_duration(sw.elapsed());
                result
            };
            match appended {
                Ok(()) => {
                    shared.metrics.fsyncs.inc();
                    p.next_seq = base + logged as u64;
                    p.since_checkpoint += logged;
                    checkpoint_due = shared
                        .config
                        .checkpoint_every
                        .is_some_and(|n| p.since_checkpoint >= n);
                    // Stamp each logged mutation's durable sequence number.
                    let logged_writes = pending.iter_mut().filter(|w| w.wal_bytes.is_some());
                    for (seq, w) in (base..).zip(logged_writes) {
                        if let Ok(outcome) = &mut w.result {
                            outcome.wal_seq = Some(seq);
                        }
                    }
                }
                Err(e) => {
                    // The batch could not be made durable. fsyncgate
                    // semantics forbid the tempting fix (retry the fsync, or
                    // checkpoint over the same descriptor, and acknowledge):
                    // after a failed fsync the durable state of this WAL
                    // handle is UNKNOWN, and a retry that "succeeds" may be
                    // lying. The only safe moves, in order: (1) fail the
                    // whole batch — nothing was swapped in, the catalog is
                    // untouched, no caller sees an ack; (2) stop accepting
                    // writes (read-only) so no later batch can be
                    // acknowledged against an unverified log; (3) repair —
                    // fresh descriptor, re-verify, checkpoint — in a
                    // campaign this thread starts before its next request.
                    shared.metrics.wal_append_failures.inc();
                    self.degrade_and_repair(
                        HealthState::ReadOnly,
                        format!("WAL append failed ({e}); refusing writes until repaired"),
                    );
                    for w in pending {
                        let result = if w.wal_bytes.is_some() {
                            Err(e.clone())
                        } else {
                            w.result
                        };
                        w.ticket.complete(result);
                    }
                    return;
                }
            }
        }

        // Maintain the shared catalog with the batch's coalesced deltas, then
        // publish the new database in one atomic swap.
        let committed = pending
            .iter()
            .filter(|w| matches!(&w.result, Ok(o) if o.rows_affected > 0))
            .count();
        if !deltas.is_empty() {
            {
                let _s = span("write.catalog_delta");
                shared.catalog.apply_deltas(&db, &deltas);
            }
            let _s = span("write.snapshot_swap");
            *shared.db.write() = Arc::new(db);
        }
        if committed > 0 {
            shared.metrics.mutations_committed.add(committed as u64);
            shared.metrics.batched_commits.inc();
            shared
                .metrics
                .max_batch
                .set_max(committed.min(i64::MAX as usize) as i64);
        }
        if checkpoint_due {
            // The snapshot written here is exactly the state the just-logged
            // batch produced. The batch is already durable at this point, so
            // a checkpoint failure must not be reported as a mutation
            // failure (a retrying caller would double-apply); the WAL keeps
            // the records and the next batch retries the checkpoint. Runs
            // before ticket completion so a returned `apply_mutation`
            // implies the due checkpoint happened.
            if let Err(e) = self.checkpoint() {
                // Transient: the WAL keeps every record, so nothing
                // acknowledged is at risk — the failure costs recovery time
                // (replay length), not data. Degrade and retry in a repair
                // campaign with backoff.
                shared.metrics.checkpoint_failures.inc();
                self.degrade_and_repair(
                    HealthState::Degraded,
                    format!(
                        "automatic checkpoint failed ({e}); mutations remain \
                         recoverable from the WAL, repair started"
                    ),
                );
            }
        }

        for mut w in pending {
            if let Ok(outcome) = &mut w.result {
                outcome.batch_len = committed;
            }
            w.ticket.complete(w.result);
        }
    }

    /// Checkpoint the current state (explicitly, automatically or to
    /// repair). Success re-establishes full durability (fresh snapshot,
    /// fresh WAL on a fresh descriptor), so it settles a degraded or
    /// read-only server back to health (`FailStop` stays terminal) and ends
    /// any running repair campaign.
    fn checkpoint(&mut self) -> Result<(), PbdsError> {
        let p = self.persist.as_mut().ok_or(PbdsError::NotDurable)?;
        p.checkpoint(&self.shared.snapshot(), &self.shared.catalog)?;
        self.shared.settle_health();
        self.repair = None;
        Ok(())
    }

    /// Escalate health to at least `to`, and start a repair campaign whose
    /// first attempt runs before the next request is taken, unless one is
    /// running already (none with `repair_attempts: 0`).
    fn degrade_and_repair(&mut self, to: HealthState, why: String) {
        self.shared.degrade(to, why);
        if self.shared.config.repair_attempts > 0 && self.repair.is_none() {
            self.repair = Some(Repair::attempt(1));
        }
    }

    /// Make the running campaign's due attempt — fresh WAL descriptor,
    /// re-verify, checkpoint — then end the campaign on success, schedule
    /// the next attempt with capped exponential backoff, or, when
    /// [`ServerConfig::repair_attempts`](super::ServerConfig) are used up,
    /// end it: exhaustion from read-only escalates to fail-stop.
    fn repair_attempt(&mut self) {
        let (shared, Some(repair)) = (self.shared, self.repair.take()) else {
            return;
        };
        let (attempt, max_attempts) = (repair.attempt, shared.config.repair_attempts);
        shared.metrics.repair_attempts_made.inc();
        if let Some(p) = self.persist.as_mut().filter(|p| !p.wal.is_healthy()) {
            // fsyncgate: never reuse a descriptor whose fsync failed —
            // re-open fresh and truncate to the verified prefix. Even a
            // verify *failure* is survivable here, because the checkpoint
            // below re-establishes durability from the consistent in-memory
            // state and rebuilds the log.
            let _unused = p.wal.reopen_and_verify();
        }
        match self.checkpoint() {
            Ok(()) => {
                shared.metrics.repairs_succeeded.inc();
                shared.note(format!(
                    "repair succeeded on attempt {attempt}/{max_attempts}"
                ));
            }
            Err(e) => {
                shared.note(format!(
                    "repair attempt {attempt}/{max_attempts} failed: {e}"
                ));
                if attempt < max_attempts {
                    self.repair = Some(Repair::attempt(attempt + 1));
                    return;
                }
                // A read-only server that cannot be repaired will never
                // accept another write — fail-stop is the honest terminal
                // state. A merely degraded server keeps full service: its
                // WAL still holds every acknowledged mutation, the failure
                // only costs recovery time.
                if shared.health() == HealthState::ReadOnly {
                    shared.degrade(
                        HealthState::FailStop,
                        format!("repair exhausted after {max_attempts} attempts from read-only"),
                    );
                } else {
                    shared.note(format!(
                        "repair exhausted after {max_attempts} attempts; server stays \
                         degraded (WAL intact, acknowledged mutations recoverable)"
                    ));
                }
            }
        }
    }
}
