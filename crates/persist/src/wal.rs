//! The mutation write-ahead log.
//!
//! Every data mutation the serving middleware applies between checkpoints is
//! appended here as one checksummed frame and fsynced before the mutation is
//! acknowledged, so a crash loses at most the in-flight record — and a
//! record it *did* acknowledge is always replayable. The log is
//! **torn-tail tolerant**: a crash mid-append leaves a trailing partial
//! frame, which [`MutationWal::open`] detects via the frame CRC, truncates
//! away, and resumes appending after. Recovery therefore always lands on
//! the state of the *longest whole-record prefix* of the log.
//!
//! Records carry a monotone sequence number. The snapshot stores the highest
//! sequence it includes ([`crate::snapshot::write_snapshot`]), so replay
//! after a restart skips records the snapshot already covers — a crash
//! between "snapshot renamed" and "WAL truncated" can never double-apply an
//! append.
//!
//! Torn-tail tolerance is deliberately narrow: only damage with the *shape a
//! crash produces* (the file ends inside a frame, with nothing after) is
//! truncated away. A complete frame with a failing checksum, or a torn frame
//! *followed by* valid frames, means bytes the log once held were altered —
//! truncating there would silently drop acknowledged records, so recovery
//! fails with [`PersistError::Corrupt`] instead ([`read_records`]).
//!
//! Failed fsyncs follow the *fsyncgate* model: after `sync_data` fails, the
//! durable state of everything written since the last successful sync is
//! unknown, and a retried fsync on the same descriptor may report success
//! without the data. [`MutationWal::append_batch`] therefore poisons the
//! handle on sync failure; the owner must [`MutationWal::reopen_and_verify`]
//! — fresh descriptor, re-scan, truncate to the verified prefix — before any
//! further append.

use crate::codec::{decode_expr, encode_expr, ByteReader, ByteWriter};
use crate::frame::{check_header, file_header, frame_bytes, read_frame, FileKind, FrameRead};
use crate::io::{DurableFile, Io, RealIo};
use crate::PersistError;
use pbds_algebra::Expr;
use pbds_storage::Row;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Default WAL file name inside a durability directory.
pub const WAL_FILE: &str = "wal.pbds";

/// A data mutation of one table: what the serving middleware applies and
/// what the WAL logs, so a replayed record is the mutation that was
/// submitted, not a conversion of it.
#[derive(Debug, Clone, PartialEq)]
pub enum Mutation {
    /// Append rows at the tail of the table.
    Append(Vec<Row>),
    /// Delete every row matching the predicate (evaluated against the
    /// table's schema; NULL counts as not matching). Re-evaluated
    /// deterministically on replay against the same pre-mutation state.
    DeleteWhere(Expr),
}

impl Mutation {
    /// The borrowed WAL view of this mutation of `table`, for [`encode_op`].
    pub fn wal_op<'a>(&'a self, table: &'a str) -> WalOpRef<'a> {
        match self {
            Mutation::Append(rows) => WalOpRef::Append { table, rows },
            Mutation::DeleteWhere(predicate) => WalOpRef::DeleteWhere { table, predicate },
        }
    }
}

/// One WAL record: a sequence number plus the mutation of one table.
#[derive(Debug, Clone, PartialEq)]
pub struct WalRecord {
    /// Monotone sequence number (1-based; snapshots record the highest
    /// sequence they include).
    pub seq: u64,
    /// The mutated table.
    pub table: String,
    /// The logged mutation.
    pub mutation: Mutation,
}

/// A borrowed view of a WAL operation, so callers can encode a record
/// without cloning its payload (a bulk append's rows can be encoded straight
/// from the caller's buffer — or the table's tail — before ownership moves).
#[derive(Debug, Clone, Copy)]
pub enum WalOpRef<'a> {
    /// Rows appended at the tail of `table`.
    Append {
        /// The mutated table.
        table: &'a str,
        /// The appended rows.
        rows: &'a [Row],
    },
    /// Rows deleted from `table` by predicate.
    DeleteWhere {
        /// The mutated table.
        table: &'a str,
        /// The delete predicate.
        predicate: &'a Expr,
    },
}

/// Encode a WAL operation body (everything but the sequence number), for use
/// with [`MutationWal::append_batch`].
pub fn encode_op(op: WalOpRef<'_>) -> Vec<u8> {
    let mut w = ByteWriter::new();
    match op {
        WalOpRef::Append { table, rows } => {
            w.u8(0);
            w.str(table);
            w.u32(rows.len() as u32);
            for row in rows {
                w.values(row);
            }
        }
        WalOpRef::DeleteWhere { table, predicate } => {
            w.u8(1);
            w.str(table);
            encode_expr(&mut w, predicate);
        }
    }
    w.into_bytes()
}

fn decode_record(payload: &[u8]) -> Result<WalRecord, PersistError> {
    let mut r = ByteReader::new(payload);
    let seq = r.u64()?;
    let kind = r.u8()?;
    let table = r.str()?;
    let mutation = match kind {
        0 => {
            let n = r.u32()? as usize;
            let n = r.count(n, "appended row")?;
            let mut rows = Vec::with_capacity(n);
            for _ in 0..n {
                rows.push(r.values()?);
            }
            Mutation::Append(rows)
        }
        1 => Mutation::DeleteWhere(decode_expr(&mut r)?),
        other => return Err(PersistError::corrupt(format!("unknown WAL op {other}"))),
    };
    r.finish("WAL record")?;
    Ok(WalRecord {
        seq,
        table,
        mutation,
    })
}

/// Scan a WAL file, returning every whole valid record and the byte length
/// of the valid prefix (header included). A missing file reads as empty.
/// A genuinely torn tail (the file ends inside the last frame and nothing
/// valid follows) ends the scan; a checksum-complete-but-wrong frame, or a
/// torn frame with whole frames after it, is corruption and errors — see
/// the module docs for why the distinction matters.
pub fn read_records(path: &Path) -> Result<(Vec<WalRecord>, u64), PersistError> {
    read_records_with(&RealIo, path)
}

/// [`read_records`] through an injectable [`Io`].
pub fn read_records_with(io: &dyn Io, path: &Path) -> Result<(Vec<WalRecord>, u64), PersistError> {
    let bytes = match io.read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok((Vec::new(), 0)),
        Err(e) => return Err(e.into()),
    };
    let mut pos = 0;
    // Header: a torn header (crash during the very first creation) makes the
    // whole file an empty log — unless record frames follow it, in which
    // case the header was damaged *after* being written, i.e. corruption.
    match read_frame(&bytes, pos) {
        FrameRead::Frame { payload, next } => {
            check_header(payload, FileKind::Wal)?;
            pos = next;
        }
        FrameRead::End => return Ok((Vec::new(), 0)),
        FrameRead::Torn => {
            if frames_follow(&bytes, pos) {
                return Err(PersistError::corrupt(
                    "WAL header is torn but whole record frames follow it",
                ));
            }
            return Ok((Vec::new(), 0));
        }
        FrameRead::Corrupt => {
            return Err(PersistError::corrupt(
                "WAL header frame is complete but fails its checksum",
            ))
        }
    }
    let mut records = Vec::new();
    loop {
        match read_frame(&bytes, pos) {
            FrameRead::Frame { payload, next } => {
                // A frame whose checksum passes always decodes (the writer
                // checksummed exactly what it encoded); one that does not is
                // altered or foreign bytes, never a crash artifact.
                let record = decode_record(payload).map_err(|e| {
                    PersistError::corrupt(format!(
                        "checksum-valid WAL frame at byte {pos} does not decode: {e}"
                    ))
                })?;
                records.push(record);
                pos = next;
            }
            FrameRead::End => break,
            FrameRead::Torn => {
                // Only a *tail* may be torn. Valid frames after the torn
                // point mean the log was damaged in the middle; truncating
                // here would drop the acknowledged records that follow.
                if frames_follow(&bytes, pos + 1) {
                    return Err(PersistError::corrupt(format!(
                        "WAL frame at byte {pos} is torn but whole frames follow it"
                    )));
                }
                break;
            }
            FrameRead::Corrupt => {
                return Err(PersistError::corrupt(format!(
                    "WAL frame at byte {pos} is complete but fails its checksum"
                )))
            }
        }
    }
    Ok((records, pos as u64))
}

/// Resync scan: does a whole, checksum-valid, **record-decoding** frame
/// start at any byte offset >= `from`? Used to tell a torn tail (nothing
/// after) from mid-log damage (acknowledged records after). The decode
/// requirement matters: eight consecutive zero bytes — common inside
/// sequence numbers and row counts — parse as a checksum-valid *empty*
/// frame (`crc32("") == 0`), so structural validity alone would see
/// phantom frames inside any torn record. O(bytes²) worst case, but only
/// runs on the already-rare damaged-log path.
fn frames_follow(bytes: &[u8], from: usize) -> bool {
    (from..bytes.len()).any(|q| match read_frame(bytes, q) {
        FrameRead::Frame { payload, .. } => decode_record(payload).is_ok(),
        _ => false,
    })
}

/// An open, appendable mutation WAL.
#[derive(Debug)]
pub struct MutationWal {
    io: Arc<dyn Io>,
    path: PathBuf,
    file: Box<dyn DurableFile>,
    /// Length of the valid prefix (header + whole records). A failed append
    /// rolls the file back to this point, so later appends can never land
    /// after a torn frame in the middle of the log.
    len: u64,
    /// Cleared when the durable state of this handle became unknown — a
    /// failed fsync (fsyncgate: a retry on the same descriptor can lie), or
    /// a failed write that could not be rolled back. Further appends are
    /// refused until [`MutationWal::reopen_and_verify`] re-establishes a
    /// verified prefix on a fresh descriptor.
    healthy: bool,
}

impl MutationWal {
    /// Open (creating if needed) the WAL at `path`. Existing whole records
    /// are returned; a torn tail is truncated away so subsequent appends
    /// extend the valid prefix.
    pub fn open(path: &Path) -> Result<(MutationWal, Vec<WalRecord>), PersistError> {
        Self::open_with(Arc::new(RealIo), path)
    }

    /// [`MutationWal::open`] through an injectable [`Io`].
    pub fn open_with(
        io: Arc<dyn Io>,
        path: &Path,
    ) -> Result<(MutationWal, Vec<WalRecord>), PersistError> {
        let (records, valid_len) = read_records_with(io.as_ref(), path)?;
        let mut file = io.open_rw(path)?;
        let len = if valid_len == 0 {
            // Fresh (or unusable) log: start over with a clean header.
            file.set_len(0)?;
            write_header(file.as_mut())?
        } else {
            file.set_len(valid_len)?;
            file.sync_all()?;
            valid_len
        };
        file.seek_to(len)?;
        Ok((
            MutationWal {
                io,
                path: path.to_path_buf(),
                file,
                len,
                healthy: true,
            },
            records,
        ))
    }

    /// The file this WAL appends to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Whether this handle will accept appends. `false` after a failed fsync
    /// or an un-rollbackable write; see [`MutationWal::reopen_and_verify`].
    pub fn is_healthy(&self) -> bool {
        self.healthy
    }

    /// Recover a poisoned handle: open a **fresh** descriptor, re-scan the
    /// file, truncate to the longest verified whole-record prefix and resume
    /// appending there. This is the only correct response to a failed fsync
    /// — retrying on the old descriptor can report success for data the
    /// kernel already dropped (fsyncgate). Returns the records the verified
    /// prefix holds so the caller can reconcile durable state against its
    /// own; errors if the file is corrupt (not merely torn).
    pub fn reopen_and_verify(&mut self) -> Result<Vec<WalRecord>, PersistError> {
        let (wal, records) = MutationWal::open_with(Arc::clone(&self.io), &self.path)?;
        *self = wal;
        Ok(records)
    }

    /// Group commit: append every record in `records` (sequence number +
    /// pre-encoded operation body, see [`encode_op`]) as consecutive
    /// per-record CRC frames, then issue **one** `sync_data` for the whole
    /// batch. The on-disk format is byte-identical to appending each record
    /// in a batch of its own — torn-tail recovery and seq-skipping replay see
    /// individual records, never batch boundaries — but the durability cost
    /// is amortized: one fsync covers them all.
    ///
    /// On success every record is durable. On error the file is rolled back
    /// to the last previously-acknowledged whole record, so nothing of the
    /// failed batch (not even its leading records) can survive a later
    /// replay — all-or-nothing, matching the "tickets complete only after
    /// the batch is durable" contract. An empty batch is a no-op (no write,
    /// no fsync).
    pub fn append_batch<B: AsRef<[u8]>>(
        &mut self,
        records: &[(u64, B)],
    ) -> Result<(), PersistError> {
        if !self.healthy {
            return Err(PersistError::Io(
                "WAL handle is poisoned (failed fsync or un-rollbackable write); \
                 reopen_and_verify() before appending"
                    .into(),
            ));
        }
        if records.is_empty() {
            return Ok(());
        }
        // Frame the whole batch into one buffer so the kernel sees a single
        // contiguous write followed by a single flush.
        let total: usize = records
            .iter()
            .map(|(_, b)| 8 + 8 + b.as_ref().len() + 4)
            .sum();
        let mut buf = Vec::with_capacity(total);
        for (seq, op_bytes) in records {
            let op_bytes = op_bytes.as_ref();
            let payload_len = 8 + op_bytes.len();
            let len = u32::try_from(payload_len).map_err(|_| {
                PersistError::corrupt(format!(
                    "WAL record payload of {payload_len} bytes exceeds the u32 length prefix"
                ))
            })?;
            let seq_bytes = seq.to_le_bytes();
            let crc = crate::frame::crc32_finish(crate::frame::crc32_extend(
                crate::frame::crc32_extend(crate::frame::crc32_start(), &seq_bytes),
                op_bytes,
            ));
            buf.extend_from_slice(&len.to_le_bytes());
            buf.extend_from_slice(&seq_bytes);
            buf.extend_from_slice(op_bytes);
            buf.extend_from_slice(&crc.to_le_bytes());
        }
        if let Err(e) = self.file.write_all(&buf) {
            // A failed *write* (short write, ENOSPC) left the descriptor's
            // sync state trustworthy — only the file tail is suspect. A
            // partial write would otherwise sit *between* the valid prefix
            // and any future (successful, acknowledged) append, and recovery
            // would refuse the log as mid-damaged. Roll back to the
            // whole-record prefix; if even that fails, poison the handle.
            let rolled = self
                .file
                .set_len(self.len)
                .and_then(|()| self.file.seek_to(self.len))
                .and_then(|()| self.file.sync_data());
            if rolled.is_err() {
                self.healthy = false;
            }
            return Err(e.into());
        }
        if let Err(e) = self.file.sync_data() {
            // fsyncgate: the durable state of everything written since the
            // last successful sync is now UNKNOWN — the kernel may have
            // dropped the dirty pages, and a retried fsync on this same
            // descriptor can report success without them. No rollback is
            // attempted (set_len + sync on this descriptor proves nothing);
            // the handle is poisoned until reopen_and_verify().
            self.healthy = false;
            return Err(e.into());
        }
        self.len += buf.len() as u64;
        Ok(())
    }

    /// Drop every record (after a checkpoint made them redundant), keeping
    /// the file header. A fully successful truncation also restores a
    /// poisoned log to health — but never on the poisoned descriptor
    /// itself: a handle whose fsync lied once may lie again, so the
    /// truncation happens on a freshly opened one. A truncation that fails
    /// partway — e.g. a half-written header — poisons the log instead, so
    /// no later append can land bytes that recovery would misparse or
    /// discard.
    pub fn truncate(&mut self) -> Result<(), PersistError> {
        if !self.healthy {
            // Discard the poisoned descriptor first (fsyncgate: its syncs
            // can no longer be trusted to report loss).
            self.file = self.io.open_rw(&self.path)?;
        }
        let result = (|| {
            self.file.set_len(0)?;
            self.file.seek_to(0)?;
            write_header(self.file.as_mut())
        })();
        match result {
            Ok(header_len) => {
                self.len = header_len;
                self.healthy = true;
                Ok(())
            }
            Err(e) => {
                self.healthy = false;
                Err(e)
            }
        }
    }
}

/// Write the WAL header frame; returns the header length in bytes.
fn write_header(file: &mut dyn DurableFile) -> Result<u64, PersistError> {
    let header = frame_bytes(&file_header(FileKind::Wal))?;
    file.write_all(&header)?;
    file.sync_all()?;
    Ok(header.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::{FaultInjector, FaultIo, FaultKind, FaultSpec, FileClass};
    use crate::test_dir;
    use pbds_algebra::{col, lit};
    use pbds_storage::Value;
    use std::fs;

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord {
                seq: 1,
                table: "t".into(),
                mutation: Mutation::Append(vec![
                    vec![Value::Int(1), Value::from("a")],
                    vec![Value::Float(-0.0), Value::Null],
                ]),
            },
            WalRecord {
                seq: 2,
                table: "t".into(),
                mutation: Mutation::DeleteWhere(col("v").between(lit(3), lit(9))),
            },
            WalRecord {
                seq: 3,
                table: "u".into(),
                mutation: Mutation::Append(vec![]),
            },
        ]
    }

    /// A record as [`MutationWal::append_batch`] takes it.
    fn encoded(r: &WalRecord) -> (u64, Vec<u8>) {
        (r.seq, encode_op(r.mutation.wal_op(&r.table)))
    }

    #[test]
    fn append_reopen_round_trip() {
        let dir = test_dir("wal_round_trip");
        let path = dir.join(WAL_FILE);
        let (mut wal, existing) = MutationWal::open(&path).unwrap();
        assert!(existing.is_empty());
        for r in sample_records() {
            wal.append_batch(&[encoded(&r)]).unwrap();
        }
        drop(wal);
        let (_, records) = MutationWal::open(&path).unwrap();
        assert_eq!(records, sample_records());
    }

    #[test]
    fn every_byte_truncation_recovers_the_longest_whole_prefix() {
        let dir = test_dir("wal_torn_tail");
        let path = dir.join(WAL_FILE);
        let (mut wal, _) = MutationWal::open(&path).unwrap();
        let all = sample_records();
        // Record the valid length after each whole record.
        let mut boundaries = vec![fs::metadata(&path).unwrap().len()];
        for r in &all {
            wal.append_batch(&[encoded(r)]).unwrap();
            boundaries.push(fs::metadata(&path).unwrap().len());
        }
        drop(wal);
        let bytes = fs::read(&path).unwrap();
        let torn = dir.join("torn.pbds");
        for cut in 0..=bytes.len() {
            fs::write(&torn, &bytes[..cut]).unwrap();
            // A cut inside the header leaves no whole record (and no header).
            let whole = boundaries
                .iter()
                .filter(|&&b| b <= cut as u64)
                .count()
                .saturating_sub(1);
            let (records, valid_len) = read_records(&torn).unwrap();
            assert_eq!(records.len(), whole, "cut at {cut}");
            assert_eq!(&records[..], &all[..whole], "cut at {cut}");
            if whole > 0 {
                assert_eq!(valid_len, boundaries[whole], "cut at {cut}");
            }
        }
    }

    #[test]
    fn appends_after_torn_tail_truncation_are_readable() {
        let dir = test_dir("wal_torn_then_append");
        let path = dir.join(WAL_FILE);
        let (mut wal, _) = MutationWal::open(&path).unwrap();
        let all = sample_records();
        wal.append_batch(&[encoded(&all[0])]).unwrap();
        wal.append_batch(&[encoded(&all[1])]).unwrap();
        drop(wal);
        // Tear the last record.
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let (mut wal, records) = MutationWal::open(&path).unwrap();
        assert_eq!(&records[..], &all[..1]);
        wal.append_batch(&[encoded(&all[2])]).unwrap();
        drop(wal);
        let (records, _) = read_records(&path).unwrap();
        assert_eq!(records, vec![all[0].clone(), all[2].clone()]);
    }

    #[test]
    fn truncate_empties_the_log_but_keeps_it_appendable() {
        let dir = test_dir("wal_truncate");
        let path = dir.join(WAL_FILE);
        let (mut wal, _) = MutationWal::open(&path).unwrap();
        for r in sample_records() {
            wal.append_batch(&[encoded(&r)]).unwrap();
        }
        wal.truncate().unwrap();
        let extra = WalRecord {
            seq: 9,
            table: "t".into(),
            mutation: Mutation::Append(vec![vec![Value::Int(5)]]),
        };
        wal.append_batch(&[encoded(&extra)]).unwrap();
        drop(wal);
        let (records, _) = read_records(&path).unwrap();
        assert_eq!(records, vec![extra]);
    }

    #[test]
    fn batched_append_is_byte_identical_to_sequential_appends() {
        let dir = test_dir("wal_batch_identical");
        let all = sample_records();
        let encoded: Vec<(u64, Vec<u8>)> = all.iter().map(encoded).collect();

        let one_per_batch = dir.join("one_per_batch.pbds");
        let (mut wal, _) = MutationWal::open(&one_per_batch).unwrap();
        for record in &encoded {
            wal.append_batch(std::slice::from_ref(record)).unwrap();
        }
        drop(wal);

        let one_batch = dir.join("one_batch.pbds");
        let (mut wal, _) = MutationWal::open(&one_batch).unwrap();
        wal.append_batch(&encoded).unwrap();
        drop(wal);

        assert_eq!(
            fs::read(&one_per_batch).unwrap(),
            fs::read(&one_batch).unwrap()
        );
        let (records, _) = read_records(&one_batch).unwrap();
        assert_eq!(records, all);
    }

    #[test]
    fn torn_tail_inside_a_batch_recovers_the_whole_record_prefix() {
        // A crash mid-batch must land recovery on a *record* boundary within
        // the batch, never a partial record — batches are a durability
        // optimization, not a recovery unit.
        let dir = test_dir("wal_batch_torn");
        let path = dir.join(WAL_FILE);
        let all = sample_records();
        let (mut wal, _) = MutationWal::open(&path).unwrap();
        let encoded: Vec<(u64, Vec<u8>)> = all.iter().map(encoded).collect();
        wal.append_batch(&encoded).unwrap();
        drop(wal);
        let bytes = fs::read(&path).unwrap();
        let torn = dir.join("torn.pbds");
        let mut seen_partial_prefixes = 0;
        for cut in 0..=bytes.len() {
            fs::write(&torn, &bytes[..cut]).unwrap();
            let (records, _) = read_records(&torn).unwrap();
            assert_eq!(&records[..], &all[..records.len()], "cut at {cut}");
            if !records.is_empty() && records.len() < all.len() {
                seen_partial_prefixes += 1;
            }
        }
        // Some cut points really do land between records of the batch.
        assert!(seen_partial_prefixes > 0);
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let dir = test_dir("wal_batch_empty");
        let path = dir.join(WAL_FILE);
        let (mut wal, _) = MutationWal::open(&path).unwrap();
        let before = fs::metadata(&path).unwrap().len();
        wal.append_batch::<&[u8]>(&[]).unwrap();
        assert_eq!(fs::metadata(&path).unwrap().len(), before);
        let (records, _) = read_records(&path).unwrap();
        assert!(records.is_empty());
    }

    #[test]
    fn missing_file_reads_as_empty() {
        let dir = test_dir("wal_missing");
        let (records, len) = read_records(&dir.join("nope.pbds")).unwrap();
        assert!(records.is_empty());
        assert_eq!(len, 0);
    }

    #[test]
    fn mid_log_bit_flip_is_corruption_not_silent_truncation() {
        let dir = test_dir("wal_mid_log_corruption");
        let path = dir.join(WAL_FILE);
        let (mut wal, _) = MutationWal::open(&path).unwrap();
        let all = sample_records();
        let mut boundaries = vec![fs::metadata(&path).unwrap().len() as usize];
        for r in &all {
            wal.append_batch(&[encoded(r)]).unwrap();
            boundaries.push(fs::metadata(&path).unwrap().len() as usize);
        }
        drop(wal);
        let bytes = fs::read(&path).unwrap();
        // Flip one bit inside the FIRST record (an acknowledged mutation
        // with more acknowledged mutations after it). Torn-tail truncation
        // here would silently drop records 1..; recovery must refuse.
        for offset in [
            boundaries[0] + 6, // first record's payload
            boundaries[1] + 6, // second record's payload
            bytes.len() - 6,   // last record's payload (complete frame)
            boundaries[0] + 1, // first record's length prefix (shrinks)
        ] {
            let mut bad = bytes.clone();
            bad[offset] ^= 0x01;
            fs::write(&path, &bad).unwrap();
            let err = read_records(&path);
            assert!(
                err.is_err(),
                "bit flip at byte {offset} was silently tolerated: {err:?}"
            );
            assert!(
                MutationWal::open(&path).is_err(),
                "open accepted flip at {offset}"
            );
        }
    }

    #[test]
    fn failed_fsync_poisons_the_handle_until_reopen_and_verify() {
        let dir = test_dir("wal_fsyncgate");
        let path = dir.join(WAL_FILE);
        let inj = FaultInjector::new(1234);
        let io: Arc<dyn Io> = Arc::new(FaultIo::new(Arc::clone(&inj)));
        let (mut wal, _) = MutationWal::open_with(Arc::clone(&io), &path).unwrap();
        let all = sample_records();
        wal.append_batch(&[encoded(&all[0])]).unwrap();
        inj.inject(FaultSpec {
            kind: FaultKind::FsyncFail,
            class: FileClass::Wal,
            skip: 0,
        });
        // The batch fails, and the handle refuses everything after.
        assert!(wal.append_batch(&[encoded(&all[1])]).is_err());
        assert!(!wal.is_healthy());
        let refused = wal.append_batch(&[encoded(&all[2])]).unwrap_err();
        assert!(refused.to_string().contains("poisoned"), "{refused}");
        // reopen_and_verify lands on a verified whole-record prefix: record
        // 0 for sure (synced before the fault), record 1 only if the seeded
        // page loss happened to keep all its bytes.
        let records = wal.reopen_and_verify().unwrap();
        assert!(!records.is_empty() && records[0] == all[0]);
        assert!(records.len() <= 2);
        assert!(wal.is_healthy());
        // Appends resume and the log stays fully readable.
        wal.append_batch(&[encoded(&all[2])]).unwrap();
        drop(wal);
        let (recovered, _) = read_records(&path).unwrap();
        assert_eq!(recovered.len(), records.len() + 1);
        assert_eq!(recovered.last().unwrap(), &all[2]);
    }

    #[test]
    fn truncate_reopens_a_poisoned_descriptor_before_reuse() {
        let dir = test_dir("wal_truncate_heals");
        let path = dir.join(WAL_FILE);
        let inj = FaultInjector::new(99);
        let io: Arc<dyn Io> = Arc::new(FaultIo::new(Arc::clone(&inj)));
        let (mut wal, _) = MutationWal::open_with(Arc::clone(&io), &path).unwrap();
        let all = sample_records();
        wal.append_batch(&[encoded(&all[0])]).unwrap();
        inj.inject(FaultSpec {
            kind: FaultKind::FsyncFail,
            class: FileClass::Wal,
            skip: 0,
        });
        assert!(wal.append_batch(&[encoded(&all[1])]).is_err());
        assert!(!wal.is_healthy());
        // A checkpoint-driven truncate restores health on a fresh fd.
        wal.truncate().unwrap();
        assert!(wal.is_healthy());
        wal.append_batch(&[encoded(&all[2])]).unwrap();
        drop(wal);
        let (records, _) = read_records(&path).unwrap();
        assert_eq!(records, vec![all[2].clone()]);
    }

    #[test]
    fn short_write_rolls_back_to_the_acknowledged_prefix() {
        let dir = test_dir("wal_short_write_rollback");
        let path = dir.join(WAL_FILE);
        let inj = FaultInjector::new(7);
        let io: Arc<dyn Io> = Arc::new(FaultIo::new(Arc::clone(&inj)));
        let (mut wal, _) = MutationWal::open_with(Arc::clone(&io), &path).unwrap();
        let all = sample_records();
        wal.append_batch(&[encoded(&all[0])]).unwrap();
        let acked_len = fs::metadata(&path).unwrap().len();
        inj.inject(FaultSpec {
            kind: FaultKind::ShortWrite,
            class: FileClass::Wal,
            skip: 0,
        });
        assert!(wal.append_batch(&[encoded(&all[1])]).is_err());
        // A failed write is rolled back in place: no torn bytes on disk,
        // the handle stays healthy, the next append succeeds.
        assert_eq!(fs::metadata(&path).unwrap().len(), acked_len);
        assert!(wal.is_healthy());
        wal.append_batch(&[encoded(&all[2])]).unwrap();
        drop(wal);
        let (records, _) = read_records(&path).unwrap();
        assert_eq!(records, vec![all[0].clone(), all[2].clone()]);
    }
}
