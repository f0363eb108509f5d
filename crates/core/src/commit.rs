//! The commit pipeline: the commit thread's loop, group commit of one batch
//! (one copy-on-write database fork, one WAL append + fsync, one catalog
//! delta pass, one atomic swap) and the mutation core it shares with WAL
//! replay.

use super::{
    HealthState, Mutation, MutationOutcome, PanicSite, ServerShared, TicketState, WriteRequest,
};
use crate::catalog::CatalogDelta;
use crate::pbds::PbdsError;
use pbds_exec::CompiledExpr;
use pbds_persist::{encode_op, PersistError, WalOpRef};
use pbds_storage::{Database, Row, StorageError};
use pbds_telemetry::{clock, span};
use std::collections::HashMap;
use std::sync::mpsc::Receiver;
use std::sync::Arc;

/// Apply a mutation to a database in place (no catalog, no WAL): the shared
/// core of the commit thread's batch application and WAL replay, so a
/// replayed record takes exactly the code path the live mutation took.
/// Returns the outcome (with the WAL fields unfilled — the commit thread
/// stamps them once the batch's sequence numbers are durable) and the
/// [`CatalogDelta`] the sketch catalog is owed, or `None` when nothing
/// changed (empty append / delete matching nothing).
pub(super) fn mutate_database(
    db: &mut Database,
    table: &str,
    mutation: Mutation,
) -> Result<(MutationOutcome, Option<CatalogDelta>), PbdsError> {
    let prev_epoch = db.table(table)?.data_epoch();
    match mutation {
        Mutation::Append(rows) => {
            let appended = rows.len();
            let old_len = db.table(table)?.len();
            let epoch = db.append_rows(table, rows)?;
            let delta = (appended > 0).then(|| CatalogDelta::Append {
                table: table.to_string(),
                prev_epoch,
                new_epoch: epoch,
                rows: None,
                range: old_len..old_len + appended,
            });
            Ok((
                MutationOutcome {
                    table: table.to_string(),
                    epoch,
                    rows_affected: appended,
                    wal_seq: None,
                    batch_len: 0,
                },
                delta,
            ))
        }
        Mutation::DeleteWhere(predicate) => {
            // Evaluate the predicate first (propagating evaluation errors
            // before anything is deleted), then delete by mask.
            let doomed: Vec<bool> = {
                let t = db.table(table)?;
                let compiled = CompiledExpr::compile(&predicate, t.schema());
                t.rows()
                    .iter()
                    .map(|row| compiled.matches(row))
                    .collect::<Result<_, _>>()?
            };
            let mut i = 0;
            let deleted = db.delete_where(table, |_| {
                let d = doomed[i];
                i += 1;
                d
            })?;
            let epoch = db.table(table)?.data_epoch();
            let delta = (deleted > 0).then(|| CatalogDelta::Delete {
                table: table.to_string(),
                prev_epoch,
                new_epoch: epoch,
            });
            Ok((
                MutationOutcome {
                    table: table.to_string(),
                    epoch,
                    rows_affected: deleted,
                    wal_seq: None,
                    batch_len: 0,
                },
                delta,
            ))
        }
    }
}

/// An open run of consecutive appends to one table inside a commit batch,
/// merged into a single epoch advance (appends to the same table commute
/// with each other, so `k` queued appends cost one epoch advance and
/// produce one [`CatalogDelta::Append`] instead of `k`).
struct AppendRun {
    /// Table length before the first append of the run.
    old_len: usize,
    /// Table data epoch before the first append of the run.
    prev_epoch: u64,
    /// `(pending index, rows in that append)` for every merged request, in
    /// submission order — used to stamp per-request outcomes after the run
    /// lands.
    members: Vec<(usize, usize)>,
    /// The queued row batches, in submission order.
    batches: Vec<Vec<Row>>,
}

/// A submitted mutation travelling through a commit batch.
struct PendingWrite {
    ticket: Arc<TicketState>,
    /// Set once the mutation has applied (or short-circuited); `Err` means
    /// the request was rejected without touching any state.
    result: Option<Result<MutationOutcome, PbdsError>>,
    /// Encoded WAL record body, present on durable servers for every
    /// mutation that actually changed state.
    wal_bytes: Option<Vec<u8>>,
}

/// Maximum mutations the commit thread folds into one group commit (one WAL
/// fsync, one copy-on-write fork, one snapshot swap).
const COMMIT_BATCH_LIMIT: usize = 128;

/// Commit-thread main loop: block for the next write, then greedily drain
/// the queue (up to [`COMMIT_BATCH_LIMIT`]) so every mutation that arrived
/// while the previous batch was fsyncing rides the next batch — classic
/// group commit. Exits when the ingest channel closes, after committing
/// everything still queued.
pub(super) fn commit_loop(shared: &ServerShared, rx: &Receiver<WriteRequest>) {
    loop {
        // The blocking recv is the ingest wait: how long the commit thread
        // sat idle before the next write arrived.
        let first = {
            let _s = span!("write.ingest_wait");
            rx.recv()
        };
        let Ok(first) = first else {
            return;
        };
        let mut batch = vec![first];
        while batch.len() < COMMIT_BATCH_LIMIT {
            match rx.try_recv() {
                Ok(req) => batch.push(req),
                Err(_) => break,
            }
        }
        let n = batch.len();
        let tickets: Vec<Arc<TicketState>> = batch.iter().map(|r| Arc::clone(&r.ticket)).collect();
        // Contain panics: a commit panic must not strand submitters on
        // never-completed tickets or leave `backlog` counted forever.
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| commit_batch(shared, batch)));
        if outcome.is_err() {
            shared.metrics.commit_panics.inc();
            shared.note(format!("commit batch panicked; failed its {n} mutation(s)"));
            if shared.persist.is_some() {
                // The panic may have struck between "WAL appended" and
                // "database swapped": the log could hold records memory
                // never applied. A checkpoint from the consistent in-memory
                // state resolves the ambiguity (the failed tickets were
                // reported indeterminate, never acknowledged).
                shared.degrade(
                    HealthState::Degraded,
                    "commit panic left the WAL possibly ahead of memory; \
                     checkpoint repair requested"
                        .into(),
                );
                shared.request_repair();
            }
            for t in &tickets {
                t.complete(Err(PbdsError::Persist(PersistError::Io(
                    "commit batch panicked".into(),
                ))));
            }
        }
        shared.writes_finished(n);
    }
}

/// Commit one batch of writes: one copy-on-write database fork, one WAL
/// append + fsync covering every record, one catalog delta pass, one atomic
/// swap, then ticket completion. Per-request validation failures (unknown
/// table, arity mismatch, predicate type error) fail only that ticket; the
/// rest of the batch commits. A WAL failure fails the whole batch and
/// nothing becomes visible.
fn commit_batch(shared: &ServerShared, batch: Vec<WriteRequest>) {
    let _batch_span = span!("write.commit_batch");
    let _serialized = shared.serialize_mutations();
    shared.take_injected_panic(PanicSite::Commit);
    // Re-check health under the mutation lock: submissions that raced the
    // degradation (already queued when the server went read-only) must not
    // commit while the janitor repairs the durability layer.
    let health = shared.health();
    if health >= HealthState::ReadOnly {
        let err = if health == HealthState::FailStop {
            PbdsError::FailStop
        } else {
            PbdsError::ReadOnly
        };
        for request in batch {
            request.ticket.complete(Err(err.clone()));
        }
        return;
    }
    let current = shared.snapshot();
    let mut db = (*current).clone();
    let durable = shared.persist.is_some();

    let mut pending: Vec<PendingWrite> = Vec::with_capacity(batch.len());
    let mut deltas: Vec<CatalogDelta> = Vec::new();
    // Open append runs per table: consecutive appends to a table merge into
    // one epoch advance. A delete on the table closes its run first (the
    // delete shifts row indices, so the run's delta must materialize its
    // rows before they move).
    let mut runs: HashMap<String, AppendRun> = HashMap::new();

    fn flush_run(
        db: &mut Database,
        runs: &mut HashMap<String, AppendRun>,
        pending: &mut [PendingWrite],
        deltas: &mut Vec<CatalogDelta>,
        table: &str,
        materialize_rows: bool,
    ) {
        let Some(run) = runs.remove(table) else {
            return;
        };
        let total: usize = run.members.iter().map(|(_, n)| n).sum();
        match db.append_row_batches(table, run.batches) {
            Ok(epoch) => {
                let new_len = run.old_len + total;
                let rows = materialize_rows.then(|| {
                    let table = db.table(table).expect("appended table exists");
                    table.rows().range(run.old_len..new_len).to_vec()
                });
                deltas.push(CatalogDelta::Append {
                    table: table.to_string(),
                    prev_epoch: run.prev_epoch,
                    new_epoch: epoch,
                    rows,
                    range: run.old_len..new_len,
                });
                for (idx, appended) in run.members {
                    pending[idx].result = Some(Ok(MutationOutcome {
                        table: table.to_string(),
                        epoch,
                        rows_affected: appended,
                        wal_seq: None,
                        batch_len: 0,
                    }));
                }
            }
            Err(e) => {
                // Every row was arity-checked before joining the run, and
                // the table existed; only an unforeseen storage failure
                // lands here. Fail the run's members, drop their WAL bytes.
                for (idx, _) in run.members {
                    pending[idx].result = Some(Err(PbdsError::Storage(e.clone())));
                    pending[idx].wal_bytes = None;
                }
            }
        }
    }

    for request in batch {
        let WriteRequest {
            table,
            mutation,
            ticket,
        } = request;
        let idx = pending.len();
        pending.push(PendingWrite {
            ticket,
            result: None,
            wal_bytes: None,
        });
        // Encode the WAL record body from the borrowed mutation before it
        // is consumed — no clone of a bulk append's rows, and nothing is
        // encoded at all on in-memory servers.
        let wal_bytes = durable.then(|| {
            encode_op(match &mutation {
                Mutation::Append(rows) => WalOpRef::Append {
                    table: &table,
                    rows,
                },
                Mutation::DeleteWhere(predicate) => WalOpRef::DeleteWhere {
                    table: &table,
                    predicate,
                },
            })
        });
        match mutation {
            Mutation::Append(rows) => {
                // Validate now so a bad request fails alone; the actual
                // append is deferred into the table's open run.
                let (len, arity, prev_epoch) = match db.table(&table) {
                    Ok(t) => (t.len(), t.schema().arity(), t.data_epoch()),
                    Err(e) => {
                        pending[idx].result = Some(Err(PbdsError::Storage(e)));
                        continue;
                    }
                };
                if let Some(bad) = rows.iter().find(|r| r.len() != arity) {
                    pending[idx].result =
                        Some(Err(PbdsError::Storage(StorageError::ArityMismatch {
                            context: table.clone(),
                            expected: arity,
                            got: bad.len(),
                        })));
                    continue;
                }
                if rows.is_empty() {
                    // No-op: no WAL record, no epoch bump, not part of any run.
                    pending[idx].result = Some(Ok(MutationOutcome {
                        table: table.clone(),
                        epoch: prev_epoch,
                        rows_affected: 0,
                        wal_seq: None,
                        batch_len: 0,
                    }));
                    continue;
                }
                pending[idx].wal_bytes = wal_bytes;
                let run = runs.entry(table).or_insert(AppendRun {
                    old_len: len,
                    prev_epoch,
                    members: Vec::new(),
                    batches: Vec::new(),
                });
                run.members.push((idx, rows.len()));
                run.batches.push(rows);
            }
            Mutation::DeleteWhere(_) => {
                // The delete must observe the run's rows and will shift
                // indices, so the table's open run lands first — with its
                // delta rows materialized, since `range` would dangle.
                flush_run(&mut db, &mut runs, &mut pending, &mut deltas, &table, true);
                match mutate_database(&mut db, &table, mutation) {
                    Ok((outcome, delta)) => {
                        if delta.is_some() {
                            // Only a delete that removed rows is logged.
                            pending[idx].wal_bytes = wal_bytes;
                            deltas.extend(delta);
                        }
                        pending[idx].result = Some(Ok(outcome));
                    }
                    Err(e) => pending[idx].result = Some(Err(e)),
                }
            }
        }
    }
    let tables: Vec<String> = runs.keys().cloned().collect();
    for table in tables {
        flush_run(&mut db, &mut runs, &mut pending, &mut deltas, &table, false);
    }

    // Write-ahead: every surviving record must be durable before anything
    // becomes visible or is acknowledged. One append, one fsync.
    let logged = pending.iter().filter(|p| p.wal_bytes.is_some()).count();
    let mut checkpoint_due = false;
    if logged > 0 {
        let persist = shared.persist.as_ref().expect("wal_bytes implies durable");
        let mut p = persist.lock();
        let base = p.next_seq;
        let records: Vec<(u64, &[u8])> = pending
            .iter()
            .filter_map(|w| w.wal_bytes.as_deref())
            .enumerate()
            .map(|(i, bytes)| (base + i as u64, bytes))
            .collect();
        let appended = {
            let _s = span!("write.wal_append_fsync");
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
                let mut seq = base;
                for w in &mut pending {
                    if w.wal_bytes.is_some() {
                        if let Some(Ok(outcome)) = &mut w.result {
                            outcome.wal_seq = Some(seq);
                        }
                        seq += 1;
                    }
                }
            }
            Err(e) => {
                // The batch could not be made durable. fsyncgate semantics
                // forbid the tempting fix (retry the fsync, or checkpoint
                // over the same descriptor, and acknowledge): after a failed
                // fsync the durable state of this WAL handle is UNKNOWN, and
                // a retry that "succeeds" may be lying. The only safe moves,
                // in order: (1) fail the whole batch — nothing was swapped
                // in, the catalog is untouched, no caller sees an ack;
                // (2) stop accepting writes (read-only) so no later batch
                // can be acknowledged against an unverified log; (3) hand
                // repair — fresh descriptor, re-verify, checkpoint — to the
                // janitor thread, off the commit path.
                shared.metrics.wal_append_failures.inc();
                shared.degrade(
                    HealthState::ReadOnly,
                    format!("WAL append failed ({e}); refusing writes until repaired"),
                );
                shared.request_repair();
                for w in &mut pending {
                    if w.wal_bytes.is_some() {
                        w.result = Some(Err(e.clone()));
                    }
                }
                for w in pending {
                    let result = w.result.unwrap_or_else(|| {
                        Err(PbdsError::Persist(PersistError::Io(
                            "commit batch aborted".into(),
                        )))
                    });
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
        .filter(|w| matches!(&w.result, Some(Ok(o)) if o.rows_affected > 0 || o.wal_seq.is_some()))
        .count();
    if !deltas.is_empty() {
        {
            let _s = span!("write.catalog_delta");
            shared.catalog.apply_deltas(&db, &deltas);
        }
        let _s = span!("write.snapshot_swap");
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
        // Still under the mutation lock: the snapshot written here is
        // exactly the state the just-logged batch produced. The batch is
        // already durable at this point, so a checkpoint failure must not
        // be reported as a mutation failure (a retrying caller would
        // double-apply); the WAL keeps the records and the next batch
        // retries the checkpoint. Runs before ticket completion so a
        // returned `apply_mutation` implies the due checkpoint happened.
        let persist = shared
            .persist
            .as_ref()
            .expect("checkpoint_due implies durable");
        let mut p = persist.lock();
        if let Err(e) = shared.checkpoint_with(&mut p) {
            // Transient: the WAL keeps every record, so nothing acknowledged
            // is at risk — the failure costs recovery time (replay length),
            // not data. Degrade and let the janitor retry with backoff, off
            // the commit path.
            shared.metrics.checkpoint_failures.inc();
            shared.degrade(
                HealthState::Degraded,
                format!(
                    "automatic checkpoint failed ({e}); mutations remain \
                     recoverable from the WAL, repair requested"
                ),
            );
            shared.request_repair();
        }
    }

    for w in pending {
        let mut result = w.result.unwrap_or_else(|| {
            Err(PbdsError::Persist(PersistError::Io(
                "commit batch dropped a request".into(),
            )))
        });
        if let Ok(outcome) = &mut result {
            outcome.batch_len = committed;
        }
        w.ticket.complete(result);
    }
}
