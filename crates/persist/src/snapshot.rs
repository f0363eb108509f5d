//! Whole-database snapshots.
//!
//! A snapshot persists exactly the durable state of a [`Database`]: for each
//! table its name, schema, rows, **epochs** (`epoch` / `data_epoch` — the
//! validity tokens the sketch catalog's entries are checked against) and the
//! *declaration* of its physical design (block size, zone-map flag, indexed
//! columns). Derived artifacts — zone maps, ordered indexes, columnar
//! chunks, statistics — are **not** serialized, and neither is how the live
//! table happened to cut its rows into chunks: a restore chunks the rows
//! afresh and builds the artifacts lazily, as a live process does, so a
//! snapshot can never hand the engine a stale artifact. Tables are encoded
//! from the borrowed database; writing a snapshot copies no row.
//!
//! Layout: a [`FileKind::Snapshot`] header frame, a meta frame (the WAL
//! sequence number the snapshot includes and the table count), then one
//! frame per table. Snapshots are written to a temporary file, fsynced and
//! renamed into place, so readers only ever observe a whole snapshot; any
//! torn frame is therefore reported as corruption, never tolerated.

use crate::codec::{decode_table_image, encode_table, ByteReader, ByteWriter};
use crate::frame::{file_header, write_frame, FileKind, FramedFile};
use crate::io::{Io, RealIo};
use crate::PersistError;
use pbds_storage::{Database, Table};
use std::path::Path;

/// Default snapshot file name inside a durability directory.
pub const SNAPSHOT_FILE: &str = "snapshot.pbds";

/// Write `f`'s output to `path` atomically: temp file, fsync, rename, and
/// fsync of the containing directory. If writing the temp file fails
/// (ENOSPC, short write, failed fsync) the previous file at `path` is
/// untouched and still readable — the failure only costs the new version —
/// and the temp file is removed so a later retry starts clean.
pub(crate) fn write_atomically(
    io: &dyn Io,
    path: &Path,
    f: impl FnOnce(&mut Vec<u8>) -> Result<(), PersistError>,
) -> Result<(), PersistError> {
    let mut bytes = Vec::new();
    f(&mut bytes)?;
    let tmp = path.with_extension("tmp");
    let written = (|| -> Result<(), PersistError> {
        let mut file = io.create(&tmp)?;
        file.write_all(&bytes)?;
        file.sync_all()?;
        Ok(())
    })();
    if let Err(e) = written {
        let _ = io.remove_file(&tmp);
        return Err(e);
    }
    io.rename(&tmp, path)?;
    if let Some(dir) = path.parent() {
        // Make the rename itself durable. Directories cannot be fsynced on
        // every platform; failure to open one is not a correctness problem
        // for the rename already performed.
        let _ = io.sync_dir(dir);
    }
    Ok(())
}

/// Write a snapshot of `db` to `path` (atomically). `applied_seq` is the
/// highest WAL sequence number whose effects the snapshot includes; replay
/// after a restore skips records at or below it.
pub fn write_snapshot(path: &Path, db: &Database, applied_seq: u64) -> Result<(), PersistError> {
    write_snapshot_with(&RealIo, path, db, applied_seq)
}

/// [`write_snapshot`] through an injectable [`Io`].
pub fn write_snapshot_with(
    io: &dyn Io,
    path: &Path,
    db: &Database,
    applied_seq: u64,
) -> Result<(), PersistError> {
    write_atomically(io, path, |out| {
        write_frame(out, &file_header(FileKind::Snapshot))?;
        let mut meta = ByteWriter::new();
        meta.u64(applied_seq);
        meta.u32(db.table_names().len() as u32);
        write_frame(out, &meta.into_bytes())?;
        for name in db.table_names() {
            let table = db.table(name).expect("listed table exists");
            let mut w = ByteWriter::new();
            encode_table(&mut w, table);
            write_frame(out, &w.into_bytes())?;
        }
        Ok(())
    })
}

/// Read a snapshot, returning the reconstructed database and the
/// `applied_seq` recorded at write time.
pub fn read_snapshot(path: &Path) -> Result<(Database, u64), PersistError> {
    read_snapshot_with(&RealIo, path)
}

/// [`read_snapshot`] through an injectable [`Io`].
pub fn read_snapshot_with(io: &dyn Io, path: &Path) -> Result<(Database, u64), PersistError> {
    let bytes = io.read(path)?;
    let mut file = FramedFile::open(&bytes, FileKind::Snapshot, path)?;
    let mut meta = ByteReader::new(file.next("meta")?);
    let applied_seq = meta.u64()?;
    let table_count = meta.u32()? as usize;
    meta.finish("snapshot meta")?;
    let mut db = Database::new();
    for _ in 0..table_count {
        let mut r = ByteReader::new(file.next("table")?);
        let image = decode_table_image(&mut r)?;
        r.finish("table frame")?;
        db.add_table(Table::restore(image));
    }
    file.finish()?;
    Ok((db, applied_seq))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::{FaultInjector, FaultIo, FaultKind, FaultSpec, FileClass};
    use crate::test_dir;
    use pbds_storage::{DataType, Schema, TableBuilder, Value};
    use std::fs;

    fn sample_db() -> Database {
        let mut db = Database::new();
        let schema = Schema::from_pairs(&[("id", DataType::Int), ("f", DataType::Float)]);
        let mut b = TableBuilder::new("t", schema);
        b.block_size(16).index("id");
        for i in 0..100i64 {
            b.push(vec![
                Value::Int(i),
                if i % 10 == 0 {
                    Value::Float(f64::NAN)
                } else {
                    Value::Float(-0.0)
                },
            ]);
        }
        db.add_table(b.build());
        let schema2 = Schema::from_pairs(&[("s", DataType::Str)]);
        db.add_table(pbds_storage::Table::new(
            "u",
            schema2,
            vec![vec![Value::from("a")], vec![Value::Null]],
        ));
        db
    }

    #[test]
    fn snapshot_round_trip_preserves_rows_epochs_and_design() {
        let dir = test_dir("snapshot_round_trip");
        let path = dir.join(SNAPSHOT_FILE);
        let db = sample_db();
        write_snapshot(&path, &db, 42).unwrap();
        let (restored, seq) = read_snapshot(&path).unwrap();
        assert_eq!(seq, 42);
        assert_eq!(restored.table_names(), db.table_names());
        for name in db.table_names() {
            let a = db.table(name).unwrap();
            let b = restored.table(name).unwrap();
            assert_eq!(a.rows(), b.rows(), "{name}");
            assert_eq!(a.epoch(), b.epoch(), "{name}");
            assert_eq!(a.data_epoch(), b.data_epoch(), "{name}");
            assert_eq!(a.block_size(), b.block_size(), "{name}");
            assert_eq!(a.has_zone_map(), b.has_zone_map(), "{name}");
            assert_eq!(a.indexed_columns(), b.indexed_columns(), "{name}");
        }
    }

    /// The file is a function of the tables' durable state alone: a table
    /// encoded as it lives — forked, appended to, with chunks a delete left
    /// short — writes the bytes its own image, restored into a freshly
    /// chunked table, writes.
    #[test]
    fn a_live_table_and_its_restored_image_write_the_same_bytes() {
        let dir = test_dir("snapshot_borrowed_vs_image");
        let mut db = sample_db();
        let before = db.clone();
        db.delete_where("t", |r| matches!(r[0], Value::Int(3 | 40..=60)))
            .unwrap();
        db.append_rows("t", vec![vec![Value::Int(100), Value::Float(1.5)]])
            .unwrap();
        let live = db.table("t").unwrap();
        let blocks = live.zone_map().unwrap();
        assert!(
            blocks
                .blocks()
                .iter()
                .any(|b| b.end - b.start < 16 && b.end < live.len()),
            "the delete should have left a short chunk in the middle"
        );
        let mut from_images = Database::new();
        for name in db.table_names() {
            from_images.add_table(Table::restore(db.table(name).unwrap().image()));
        }
        let (a, b) = (dir.join("live.pbds"), dir.join("images.pbds"));
        write_snapshot(&a, &db, 7).unwrap();
        write_snapshot(&b, &from_images, 7).unwrap();
        assert_eq!(fs::read(&a).unwrap(), fs::read(&b).unwrap());
        // The fork it was made from is untouched and writes something else.
        write_snapshot(&b, &before, 7).unwrap();
        assert_ne!(fs::read(&a).unwrap(), fs::read(&b).unwrap());
    }

    #[test]
    fn truncated_snapshot_is_corruption() {
        let dir = test_dir("snapshot_truncated");
        let path = dir.join(SNAPSHOT_FILE);
        write_snapshot(&path, &sample_db(), 0).unwrap();
        let bytes = fs::read(&path).unwrap();
        for cut in [bytes.len() - 1, bytes.len() / 2, 10, 0] {
            fs::write(&path, &bytes[..cut]).unwrap();
            assert!(
                read_snapshot(&path).is_err(),
                "truncation to {cut} bytes went unnoticed"
            );
        }
    }

    #[test]
    fn failed_replacement_leaves_the_previous_snapshot_readable() {
        // Atomic replacement under injected ENOSPC, short write, and failed
        // fsync: the write errors, but the previously committed snapshot is
        // untouched and recovery from it is unchanged. The temp file is
        // cleaned up so a retry starts fresh.
        let dir = test_dir("snapshot_failed_replacement");
        let path = dir.join(SNAPSHOT_FILE);
        let v1 = sample_db();
        write_snapshot(&path, &v1, 7).unwrap();
        let v1_bytes = fs::read(&path).unwrap();

        let mut v2 = sample_db();
        v2.table_mut("t")
            .unwrap()
            .append_rows(vec![vec![Value::Int(999), Value::Float(1.5)]])
            .unwrap();

        for (i, kind) in [
            FaultKind::Enospc,
            FaultKind::ShortWrite,
            FaultKind::FsyncFail,
        ]
        .iter()
        .enumerate()
        {
            let inj = FaultInjector::new(1000 + i as u64);
            inj.inject(FaultSpec {
                kind: *kind,
                class: FileClass::Snapshot,
                skip: 0,
            });
            let io = FaultIo::new(inj);
            assert!(
                write_snapshot_with(&io, &path, &v2, 8).is_err(),
                "{kind:?} did not surface"
            );
            assert_eq!(fs::read(&path).unwrap(), v1_bytes, "{kind:?} touched v1");
            assert!(
                !path.with_extension("tmp").exists(),
                "{kind:?} left a temp file behind"
            );
            let (recovered, seq) = read_snapshot(&path).unwrap();
            assert_eq!(seq, 7, "{kind:?}");
            assert_eq!(
                recovered.table("t").unwrap().rows(),
                v1.table("t").unwrap().rows(),
                "{kind:?}"
            );
        }
        // And the retry (no fault armed) replaces it cleanly.
        write_snapshot(&path, &v2, 8).unwrap();
        let (recovered, seq) = read_snapshot(&path).unwrap();
        assert_eq!(seq, 8);
        assert_eq!(
            recovered.table("t").unwrap().rows(),
            v2.table("t").unwrap().rows()
        );
    }

    #[test]
    fn corrupted_read_is_detected() {
        let dir = test_dir("snapshot_read_corrupt");
        let path = dir.join(SNAPSHOT_FILE);
        write_snapshot(&path, &sample_db(), 3).unwrap();
        let inj = FaultInjector::new(77);
        inj.inject(FaultSpec {
            kind: FaultKind::ReadCorrupt,
            class: FileClass::Snapshot,
            skip: 0,
        });
        let io = FaultIo::new(inj);
        assert!(read_snapshot_with(&io, &path).is_err());
        // The file itself is fine; a clean read still succeeds.
        assert!(read_snapshot(&path).is_ok());
    }

    #[test]
    fn wrong_kind_file_is_rejected() {
        let dir = test_dir("snapshot_wrong_kind");
        let path = dir.join("file.pbds");
        let mut out = Vec::new();
        write_frame(&mut out, &file_header(FileKind::Wal)).unwrap();
        fs::write(&path, &out).unwrap();
        assert!(read_snapshot(&path).is_err());
    }
}
