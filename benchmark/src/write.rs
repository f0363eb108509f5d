//! The write side of `mixed-read-write`: a closed-loop writer that keeps a
//! fixed window of mutations in flight, the model of what it was told is
//! durable, and the check of that model against a reopened server.

use crate::stats::Timed;
use pbds_core::algebra::{col, lit};
use pbds_core::storage::{Database, Row, Value};
use pbds_core::telemetry::clock::Stopwatch;
use pbds_core::{Mutation, MutationTicket, PbdsServer};
use pbds_workloads::Zipf;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeSet, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};

/// Mutations the writer keeps in flight.
pub const WINDOW: usize = 8;
/// Rows per `Append`.
pub const ROWS_PER_APPEND: usize = 8;
/// Every `DELETE_EVERY`-th mutation is a one-row `DeleteWhere`.
pub const DELETE_EVERY: u64 = 20;
/// The mutated table and its columns `(commentid, userid, score)`.
pub const TABLE: &str = "comments";
/// Encoded size of one appended row: three 8-byte integers.
pub const USER_BYTES_PER_ROW: usize = 24;

#[derive(Debug, Clone, PartialEq)]
enum Op {
    /// Appended `ROWS_PER_APPEND` rows with ids `first_id..`.
    Append { first_id: i64 },
    /// Deleted the row with this id.
    Delete { id: i64 },
}

/// What the writer submitted and what was acknowledged.
pub struct WriteModel {
    rng: StdRng,
    users: Zipf,
    /// First id the writer hands out; ids below it are the generated data.
    base_id: i64,
    next_id: i64,
    submitted: u64,
    acked: Vec<Op>,
    /// Ids of acknowledged appended rows no delete has targeted yet, oldest
    /// first.
    deletable: VecDeque<i64>,
    /// Submitted but never waited for: the server may or may not have
    /// committed them when it was dropped.
    unacked: Vec<Op>,
    /// Submit-to-acknowledge time of every acknowledged mutation.
    pub acks: Vec<Timed>,
    pub errors: u64,
}

impl WriteModel {
    pub fn new(db: &Database, seed: u64) -> WriteModel {
        let comments = db.table(TABLE).expect("SOF data has a comments table");
        let users = db.table("users").expect("SOF data has a users table").len();
        let base_id = comments.len() as i64;
        WriteModel {
            rng: StdRng::seed_from_u64(seed ^ 0x77_17e5),
            users: Zipf::new(users, 1.05),
            base_id,
            next_id: base_id,
            submitted: 0,
            acked: Vec::new(),
            deletable: VecDeque::new(),
            unacked: Vec::new(),
            acks: Vec::new(),
            errors: 0,
        }
    }

    pub fn submitted(&self) -> u64 {
        self.submitted
    }

    pub fn acked(&self) -> u64 {
        self.acked.len() as u64
    }

    fn append_rows(&mut self, first_id: i64) -> Vec<Row> {
        let user = self.users.sample(&mut self.rng) as i64 - 1;
        (0..ROWS_PER_APPEND as i64)
            .map(|i| {
                vec![
                    Value::Int(first_id + i),
                    Value::Int(user),
                    Value::Int((first_id + i) % 20),
                ]
            })
            .collect()
    }

    /// The next mutation of the stream: an append, or every
    /// [`DELETE_EVERY`]-th time the deletion of the oldest acknowledged row
    /// this writer appended and has not deleted yet.
    fn next(&mut self) -> (Op, Mutation) {
        self.submitted += 1;
        if self.submitted.is_multiple_of(DELETE_EVERY) {
            if let Some(id) = self.deletable.pop_front() {
                let predicate = col("commentid").eq(lit(id));
                return (Op::Delete { id }, Mutation::DeleteWhere(predicate));
            }
        }
        let first_id = self.next_id;
        self.next_id += ROWS_PER_APPEND as i64;
        (
            Op::Append { first_id },
            Mutation::Append(self.append_rows(first_id)),
        )
    }

    fn acknowledge(&mut self, op: Op) {
        let at = self.unacked.iter().position(|o| *o == op);
        self.unacked.remove(at.expect("op was in flight"));
        if let Op::Append { first_id } = op {
            self.deletable.push_back(first_id);
        }
        self.acked.push(op);
    }

    /// Payloads shaped like this run's appends, for timing the WAL alone.
    /// Their ids are negative, so they collide with no row of the table.
    pub fn sample_payloads(&mut self, count: usize) -> Vec<Vec<Row>> {
        (1..=count)
            .map(|i| self.append_rows(-((i * ROWS_PER_APPEND) as i64)))
            .collect()
    }
}

/// Submit mutations, keeping [`WINDOW`] of them in flight and waiting for the
/// oldest before submitting the next, until `stop` is set or `limit`
/// mutations were submitted. With `leave_in_flight` the last window is
/// abandoned unacknowledged (the crash check wants such mutations);
/// otherwise every ticket is waited for. Acknowledgements are stamped with
/// the time on `clock`.
pub fn run_writer(
    server: &PbdsServer,
    model: &mut WriteModel,
    clock: Stopwatch,
    stop: &AtomicBool,
    limit: Option<u64>,
    leave_in_flight: bool,
) {
    let mut window: VecDeque<(MutationTicket, Op, Stopwatch)> = VecDeque::new();
    let mut sent = 0u64;
    let wait_oldest = |window: &mut VecDeque<(MutationTicket, Op, Stopwatch)>,
                       model: &mut WriteModel| {
        let (ticket, op, sw) = window.pop_front().expect("window is not empty");
        match ticket.wait() {
            Ok(_) => {
                model.acks.push(Timed {
                    end_s: clock.elapsed().as_secs_f64(),
                    ms: sw.elapsed().as_secs_f64() * 1e3,
                    kernel_us: None,
                });
                model.acknowledge(op);
            }
            Err(_) => model.errors += 1,
        }
    };
    while !stop.load(Ordering::Relaxed) && limit.is_none_or(|n| sent < n) {
        if window.len() == WINDOW {
            wait_oldest(&mut window, model);
        }
        let (op, mutation) = model.next();
        model.unacked.push(op.clone());
        let sw = Stopwatch::start();
        window.push_back((server.submit_mutation(TABLE, mutation), op, sw));
        sent += 1;
    }
    if !leave_in_flight {
        while !window.is_empty() {
            wait_oldest(&mut window, model);
        }
    }
}

/// Check a (reopened) database against the model. Every acknowledged append
/// must be present in full except rows an acknowledged delete removed, every
/// acknowledged delete must have taken effect, and a mutation that was never
/// acknowledged must be wholly present or wholly absent. Returns the number
/// of mutations that violate this.
pub fn durability_failures(db: &Database, model: &WriteModel) -> u64 {
    let table = db.table(TABLE).expect("comments table survives a reopen");
    let present: BTreeSet<i64> = table
        .rows()
        .iter()
        .filter_map(|row| match row[0] {
            Value::Int(id) if id >= model.base_id => Some(id),
            _ => None,
        })
        .collect();
    let maybe_deleted: BTreeSet<i64> = model
        .unacked
        .iter()
        .filter_map(|op| match op {
            Op::Delete { id } => Some(*id),
            Op::Append { .. } => None,
        })
        .collect();
    let deleted: BTreeSet<i64> = model
        .acked
        .iter()
        .filter_map(|op| match op {
            Op::Delete { id } => Some(*id),
            Op::Append { .. } => None,
        })
        .collect();
    let ids = |first_id: i64| first_id..first_id + ROWS_PER_APPEND as i64;
    let mut failures = 0;
    for op in &model.acked {
        let ok = match op {
            Op::Append { first_id } => ids(*first_id).all(|id| {
                deleted.contains(&id) != present.contains(&id) || maybe_deleted.contains(&id)
            }),
            Op::Delete { id } => !present.contains(id),
        };
        failures += u64::from(!ok);
    }
    for op in &model.unacked {
        if let Op::Append { first_id } = op {
            let found = ids(*first_id).filter(|id| present.contains(id)).count();
            failures += u64::from(found != 0 && found != ROWS_PER_APPEND);
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbds_core::storage::{DataType, Schema, TableBuilder};

    fn db_with_comments(ids: &[i64]) -> Database {
        let mut db = Database::new();
        let mut users =
            TableBuilder::new("users", Schema::from_pairs(&[("userid", DataType::Int)]));
        users.push(vec![Value::Int(0)]);
        db.add_table(users.build());
        let schema = Schema::from_pairs(&[
            ("commentid", DataType::Int),
            ("userid", DataType::Int),
            ("score", DataType::Int),
        ]);
        let mut comments = TableBuilder::new(TABLE, schema);
        for id in ids {
            comments.push(vec![Value::Int(*id), Value::Int(0), Value::Int(0)]);
        }
        db.add_table(comments.build());
        db
    }

    #[test]
    fn durability_check_accepts_exactly_the_allowed_states() {
        let base: Vec<i64> = (0..4).collect();
        let mut model = WriteModel::new(&db_with_comments(&base), 1);
        assert_eq!(model.base_id, 4);
        model.acked = vec![Op::Append { first_id: 4 }, Op::Delete { id: 5 }];
        model.unacked = vec![Op::Append { first_id: 12 }];

        let with = |extra: &[i64]| {
            let mut ids = base.clone();
            ids.extend_from_slice(extra);
            db_with_comments(&ids)
        };
        let acked: Vec<i64> = (4..12).filter(|id| *id != 5).collect();
        // The acknowledged state, without and with the in-flight append.
        assert_eq!(durability_failures(&with(&acked), &model), 0);
        let mut all = acked.clone();
        all.extend(12..20);
        assert_eq!(durability_failures(&with(&all), &model), 0);
        // A lost acknowledged row, an undone delete, a torn in-flight append.
        assert_eq!(durability_failures(&with(&acked[1..]), &model), 1);
        let mut undeleted = acked.clone();
        undeleted.push(5);
        assert_eq!(durability_failures(&with(&undeleted), &model), 2);
        let mut torn = acked.clone();
        torn.extend(12..15);
        assert_eq!(durability_failures(&with(&torn), &model), 1);
    }

    #[test]
    fn the_stream_deletes_an_acknowledged_row_every_twentieth_mutation() {
        let mut model = WriteModel::new(&db_with_comments(&[0, 1]), 9);
        let mut deletes = 0;
        for _ in 0..60 {
            let (op, mutation) = model.next();
            match (&op, &mutation) {
                (Op::Delete { id }, Mutation::DeleteWhere(_)) => {
                    deletes += 1;
                    assert!(*id >= model.base_id);
                }
                (Op::Append { .. }, Mutation::Append(rows)) => {
                    assert_eq!(rows.len(), ROWS_PER_APPEND)
                }
                other => panic!("mismatched op and mutation: {other:?}"),
            }
            model.unacked.push(op.clone());
            model.acknowledge(op);
        }
        assert_eq!(deletes, 3);
        assert_eq!(model.acked(), 60);
    }
}
