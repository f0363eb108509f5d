//! # pbds-persist
//!
//! The durability layer of the PBDS reproduction: everything needed to
//! bounce the serving middleware without a cold start.
//!
//! The paper deploys PBDS as long-lived self-tuning middleware; its most
//! expensive state — the sketch catalog, each entry bought with a full
//! capture execution — would otherwise evaporate on every restart. This
//! crate persists that state with a hand-rolled, checksummed binary format
//! (the build container is offline, so no serde):
//!
//! * [`frame`] — the shared file format: length-prefixed, CRC-32-checksummed
//!   frames with a magic/version/kind header;
//! * [`codec`] — encoders and decoders for the engine's durable types
//!   (values with bit-exact floats, schemas, table images, range/composite
//!   partitions, fragment bitsets, provenance sketches, expressions);
//! * [`snapshot`] — whole-database snapshots. Derived artifacts (zone maps,
//!   indexes, columnar chunks, statistics) are *not* serialized; they are
//!   re-declared and built lazily after a restore, as in a live table.
//!   Per-table `epoch` / `data_epoch` **are** persisted — they
//!   are the validity tokens the sketch catalog checks entries against;
//! * [`wal`] — the one [`Mutation`] type and the mutation write-ahead log
//!   that records it: fsynced appends, torn-tail
//!   tolerant recovery to the longest whole-record prefix, sequence numbers
//!   that make replay idempotent against the snapshot;
//! * [`catalog`] — the persisted sketch-catalog format, entries carrying
//!   their per-table capture epochs so a stale sketch is structurally
//!   unreachable across restarts exactly as it is within a process;
//! * [`io`] — the injectable I/O seam ([`io::Io`] / [`io::DurableFile`])
//!   every durable write goes through, with a seeded [`io::FaultInjector`]
//!   that deterministically injects fsync failure (fsyncgate semantics),
//!   short writes, ENOSPC and read corruption for the fault-torture suite.
//!
//! The serving integration — `PbdsServer::{create, open, checkpoint,
//! shutdown}` and WAL-appending mutations — lives in `pbds-core`, which
//! builds on this crate.

#![warn(missing_docs)]

pub mod catalog;
pub mod codec;
pub mod frame;
pub mod io;
pub mod snapshot;
pub mod wal;

pub use catalog::{
    read_catalog, read_catalog_with, write_catalog, write_catalog_with, PersistedCatalog,
    PersistedCatalogEntry, CATALOG_FILE,
};
pub use frame::{crc32, FileKind, FrameRead, FORMAT_VERSION, MAGIC};
pub use io::{DurableFile, FaultInjector, FaultIo, FaultKind, FaultSpec, FileClass, Io, RealIo};
pub use snapshot::{
    read_snapshot, read_snapshot_with, write_snapshot, write_snapshot_with, SNAPSHOT_FILE,
};
pub use wal::{
    encode_op, read_records, read_records_with, Mutation, MutationWal, WalOpRef, WalRecord,
    WAL_FILE,
};

/// Errors raised by the durability layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PersistError {
    /// An I/O error (stringified so the error stays `Clone`able).
    Io(String),
    /// Structural corruption: a failed checksum outside a log tail, a
    /// malformed payload, or an impossible decoded structure.
    Corrupt(String),
    /// The file was written by an incompatible format version.
    BadVersion {
        /// Version found in the file header.
        found: u32,
        /// Version this build reads and writes.
        supported: u32,
    },
}

impl PersistError {
    /// A corruption error with context.
    pub fn corrupt(context: impl Into<String>) -> Self {
        PersistError::Corrupt(context.into())
    }
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "i/o error: {e}"),
            PersistError::Corrupt(c) => write!(f, "corrupt persistence file: {c}"),
            PersistError::BadVersion { found, supported } => write!(
                f,
                "unsupported format version {found} (this build supports {supported})"
            ),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e.to_string())
    }
}

/// A fresh, empty scratch directory for this crate's unit tests, kept inside
/// the workspace `target/` directory so tests never write outside the
/// repository.
#[cfg(test)]
pub(crate) fn test_dir(name: &str) -> std::path::PathBuf {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../target/persist-unit-tests")
        .join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create test dir");
    dir
}
