//! The persisted sketch-catalog format.
//!
//! Each catalog entry costs a full capture execution to recreate, so the
//! catalog is the state most worth carrying across restarts. An entry is
//! persisted as its template key (name + structural fingerprint), the
//! binding it was captured for, the sketches themselves and — crucially —
//! the per-table **capture epochs** the sketches were maintained to. On
//! import (`pbds-core`'s `SketchCatalog::import`) an entry is only accepted
//! when every recorded epoch still matches the recovered database, which
//! makes a stale sketch structurally unreachable across restarts exactly as
//! it is within a process.
//!
//! Layout: a [`FileKind::Catalog`] header frame, a meta frame (entry
//! count), then one frame per entry. Written atomically like snapshots.

use crate::codec::{decode_sketch, encode_sketch, ByteReader, ByteWriter};
use crate::frame::{file_header, write_frame, FileKind, FramedFile};
use crate::io::{Io, RealIo};
use crate::snapshot::write_atomically;
use crate::PersistError;
use pbds_provenance::ProvenanceSketch;
use pbds_storage::Value;
use std::path::Path;

/// Default catalog file name inside a durability directory.
pub const CATALOG_FILE: &str = "catalog.pbds";

/// One persisted catalog entry.
#[derive(Debug, Clone)]
pub struct PersistedCatalogEntry {
    /// The catalog's template key (template name + structural fingerprint).
    pub template_key: String,
    /// The binding the sketches were captured for.
    pub binding: Vec<Value>,
    /// The stored sketches (one per partitioned relation).
    pub sketches: Vec<ProvenanceSketch>,
    /// Per sketched table, the data epoch the sketches were maintained to.
    pub capture_epochs: Vec<(String, u64)>,
}

/// A persisted sketch catalog: the restart-surviving part of the store.
#[derive(Debug, Clone, Default)]
pub struct PersistedCatalog {
    /// The persisted entries.
    pub entries: Vec<PersistedCatalogEntry>,
}

fn encode_entry(entry: &PersistedCatalogEntry) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.str(&entry.template_key);
    w.values(&entry.binding);
    w.u32(entry.sketches.len() as u32);
    for s in &entry.sketches {
        encode_sketch(&mut w, s);
    }
    w.u32(entry.capture_epochs.len() as u32);
    for (table, epoch) in &entry.capture_epochs {
        w.str(table);
        w.u64(*epoch);
    }
    w.into_bytes()
}

fn decode_entry(payload: &[u8]) -> Result<PersistedCatalogEntry, PersistError> {
    let mut r = ByteReader::new(payload);
    let template_key = r.str()?;
    let binding = r.values()?;
    let n_sketches = r.u32()? as usize;
    let n_sketches = r.count(n_sketches, "sketch")?;
    let mut sketches = Vec::with_capacity(n_sketches);
    for _ in 0..n_sketches {
        sketches.push(decode_sketch(&mut r)?);
    }
    let n_epochs = r.u32()? as usize;
    let n_epochs = r.count(n_epochs, "capture epoch")?;
    let mut capture_epochs = Vec::with_capacity(n_epochs);
    for _ in 0..n_epochs {
        let table = r.str()?;
        let epoch = r.u64()?;
        capture_epochs.push((table, epoch));
    }
    r.finish("catalog entry")?;
    Ok(PersistedCatalogEntry {
        template_key,
        binding,
        sketches,
        capture_epochs,
    })
}

/// Write a persisted catalog to `path` atomically.
pub fn write_catalog(path: &Path, catalog: &PersistedCatalog) -> Result<(), PersistError> {
    write_catalog_with(&RealIo, path, catalog)
}

/// [`write_catalog`] through an injectable [`Io`].
pub fn write_catalog_with(
    io: &dyn Io,
    path: &Path,
    catalog: &PersistedCatalog,
) -> Result<(), PersistError> {
    write_atomically(io, path, |out| {
        write_frame(out, &file_header(FileKind::Catalog))?;
        let mut meta = ByteWriter::new();
        meta.u32(catalog.entries.len() as u32);
        write_frame(out, &meta.into_bytes())?;
        for entry in &catalog.entries {
            write_frame(out, &encode_entry(entry))?;
        }
        Ok(())
    })
}

/// Read a persisted catalog. A missing file reads as an empty catalog (a
/// server that never checkpointed a catalog simply starts cold).
pub fn read_catalog(path: &Path) -> Result<PersistedCatalog, PersistError> {
    read_catalog_with(&RealIo, path)
}

/// [`read_catalog`] through an injectable [`Io`].
pub fn read_catalog_with(io: &dyn Io, path: &Path) -> Result<PersistedCatalog, PersistError> {
    let bytes = match io.read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Ok(PersistedCatalog::default())
        }
        Err(e) => return Err(e.into()),
    };
    let mut file = FramedFile::open(&bytes, FileKind::Catalog, path)?;
    let mut meta = ByteReader::new(file.next("meta")?);
    let count = meta.u32()? as usize;
    meta.finish("catalog meta")?;
    let mut entries = Vec::with_capacity(count.min(1 << 16));
    for _ in 0..count {
        entries.push(decode_entry(file.next("entry")?)?);
    }
    file.finish()?;
    Ok(PersistedCatalog { entries })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_dir;
    use pbds_storage::{Partition, PartitionRef, RangePartition};
    use std::fs;
    use std::sync::Arc;

    fn sample_catalog() -> PersistedCatalog {
        let part: PartitionRef = Arc::new(Partition::Range(RangePartition::from_uppers(
            "sales",
            "grp",
            vec![Value::Int(10), Value::Int(20), Value::Int(30)],
        )));
        let mut sketch = ProvenanceSketch::empty(part);
        sketch.add_fragment(1);
        sketch.add_fragment(3);
        PersistedCatalog {
            entries: vec![
                PersistedCatalogEntry {
                    template_key: "sales-having#00deadbeef000000".into(),
                    binding: vec![Value::Int(50_000)],
                    sketches: vec![sketch.clone()],
                    capture_epochs: vec![("sales".into(), 17)],
                },
                PersistedCatalogEntry {
                    template_key: "other#0000000000000001".into(),
                    binding: vec![Value::from("CA"), Value::Null],
                    sketches: vec![sketch],
                    capture_epochs: vec![("sales".into(), 17), ("cities".into(), 4)],
                },
            ],
        }
    }

    #[test]
    fn catalog_round_trip() {
        let dir = test_dir("catalog_round_trip");
        let path = dir.join(CATALOG_FILE);
        let catalog = sample_catalog();
        write_catalog(&path, &catalog).unwrap();
        let read = read_catalog(&path).unwrap();
        assert_eq!(read.entries.len(), catalog.entries.len());
        for (a, b) in read.entries.iter().zip(&catalog.entries) {
            assert_eq!(a.template_key, b.template_key);
            assert_eq!(a.binding, b.binding);
            assert_eq!(a.capture_epochs, b.capture_epochs);
            assert_eq!(a.sketches.len(), b.sketches.len());
            for (x, y) in a.sketches.iter().zip(&b.sketches) {
                assert_eq!(x.selected_fragments(), y.selected_fragments());
                assert_eq!(x.num_fragments(), y.num_fragments());
                assert_eq!(x.table(), y.table());
            }
        }
    }

    #[test]
    fn missing_catalog_reads_empty_and_truncation_errors() {
        let dir = test_dir("catalog_missing");
        assert!(read_catalog(&dir.join("nope.pbds"))
            .unwrap()
            .entries
            .is_empty());
        let path = dir.join(CATALOG_FILE);
        write_catalog(&path, &sample_catalog()).unwrap();
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 2]).unwrap();
        assert!(read_catalog(&path).is_err());
    }
}
