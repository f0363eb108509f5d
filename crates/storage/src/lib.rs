//! # pbds-storage
//!
//! Storage substrate for the Provenance-Based Data Skipping (PBDS)
//! reproduction: scalar values, schemas, in-memory relations and tables,
//! block-level zone maps, ordered secondary indexes, table statistics
//! (min/max + equi-depth histograms) and horizontal partitions.
//!
//! The crate corresponds to the physical-design layer the paper assumes its
//! host DBMS provides (Sec. 1 and Sec. 8): PBDS translates a provenance
//! sketch into range predicates, and the artifacts in this crate (zone maps,
//! ordered indexes) are what make evaluating those predicates cheap.

#![warn(missing_docs)]

pub mod columnar;
pub mod database;
pub mod index;
pub mod partition;
pub mod relation;
pub mod rowstore;
pub mod schema;
pub mod stats;
pub mod table;
pub mod value;
pub mod zonemap;

pub use columnar::{ColumnData, ColumnVector, ColumnarChunk, ColumnarChunks, PackedInts};
pub use database::{Database, StorageError};
pub use index::OrderedIndex;
pub use partition::{CompositePartition, Partition, PartitionRef, RangePartition, ValueRange};
pub use relation::{Relation, Row};
pub use rowstore::{RowSlices, Rows, RowsIter};
pub use schema::{Column, Schema};
pub use stats::{ColumnStats, EquiDepthHistogram, TableStats};
pub use table::{MutationKind, Table, TableBuilder, TableImage};
pub use value::{DataType, Value};
pub use zonemap::{BlockZone, ColumnZone, ZoneMap, DEFAULT_BLOCK_SIZE};

// Concurrency audit: the serving middleware shares the database, tables and
// partitions across session and capture-worker threads behind `Arc`s. Row
// chunks and partitions are immutable once shared (mutation goes through
// copy-on-write `Database::table_mut`); derived artifacts are built at most
// once behind `OnceLock`s and handed out as `Arc` snapshots, so these bounds
// must hold — a compile error here means a change introduced thread-unsafe
// state into the storage layer.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Database>();
    assert_send_sync::<Table>();
    assert_send_sync::<Partition>();
    assert_send_sync::<PartitionRef>();
    assert_send_sync::<Relation>();
    assert_send_sync::<Value>();
    assert_send_sync::<ZoneMap>();
    assert_send_sync::<OrderedIndex>();
    assert_send_sync::<ColumnarChunks>();
};
