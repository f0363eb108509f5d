//! The commit pipeline: the commit thread's loop, group commit of one batch
//! (one copy-on-write database fork, one WAL append + fsync, one catalog
//! delta pass, one atomic swap), and [`apply_batch`] — the one way a
//! mutation reaches a [`Database`], taken by the commit thread on its fork
//! and by WAL replay on the recovered snapshot.

use super::{
    HealthState, Mutation, MutationOutcome, PanicSite, ServerShared, TicketState, WriteRequest,
};
use crate::catalog::CatalogDelta;
use crate::pbds::PbdsError;
use pbds_algebra::Expr;
use pbds_exec::CompiledExpr;
use pbds_persist::{encode_op, PersistError};
use pbds_storage::{Database, Row, StorageError};
use pbds_telemetry::{clock, span};
use std::collections::HashMap;
use std::sync::mpsc::Receiver;
use std::sync::Arc;

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
            let _s = span("write.ingest_wait");
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
    let _batch_span = span("write.commit_batch");
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

    let mut tickets = Vec::with_capacity(batch.len());
    let mut encoded = Vec::with_capacity(batch.len());
    let mut mutations = Vec::with_capacity(batch.len());
    for request in batch {
        // Encode the WAL record body from the borrowed mutation before it is
        // consumed — no clone of a bulk append's rows, and nothing is encoded
        // at all on in-memory servers.
        encoded.push(durable.then(|| encode_op(request.mutation.wal_op(&request.table))));
        tickets.push(request.ticket);
        mutations.push((request.table, request.mutation));
    }
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
                let mut seq = base;
                for w in &mut pending {
                    if w.wal_bytes.is_some() {
                        if let Ok(outcome) = &mut w.result {
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

    for mut w in pending {
        if let Ok(outcome) = &mut w.result {
            outcome.batch_len = committed;
        }
        w.ticket.complete(w.result);
    }
}
