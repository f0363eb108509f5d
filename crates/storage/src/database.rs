//! A database is a named collection of tables (the catalog).

use crate::table::Table;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Errors raised by the storage layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// Referenced table does not exist.
    UnknownTable(String),
    /// Referenced column does not exist in the named table.
    UnknownColumn {
        /// Table that was searched.
        table: String,
        /// Missing column name.
        column: String,
    },
    /// A row's arity does not match the schema it is being stored under.
    ArityMismatch {
        /// What was being built or mutated (table name or "relation").
        context: String,
        /// The schema's arity.
        expected: usize,
        /// The offending row's arity.
        got: usize,
    },
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::UnknownTable(t) => write!(f, "unknown table: {t}"),
            StorageError::UnknownColumn { table, column } => {
                write!(f, "unknown column {column} in table {table}")
            }
            StorageError::ArityMismatch {
                context,
                expected,
                got,
            } => {
                write!(
                    f,
                    "row arity mismatch in {context}: schema has {expected} columns, row has {got}"
                )
            }
        }
    }
}

impl std::error::Error for StorageError {}

/// An in-memory database: a catalog of immutable tables.
///
/// Tables are stored behind `Arc` so that query execution, provenance capture
/// and the self-tuning framework can share them cheaply.
#[derive(Debug, Clone, Default)]
pub struct Database {
    tables: BTreeMap<String, Arc<Table>>,
}

impl Database {
    /// Create an empty database.
    pub fn new() -> Self {
        Database::default()
    }

    /// Register a table (replacing any previous table of the same name).
    pub fn add_table(&mut self, table: Table) {
        self.tables
            .insert(table.name().to_string(), Arc::new(table));
    }

    /// Look up a table by name.
    pub fn table(&self, name: &str) -> Result<&Arc<Table>, StorageError> {
        self.tables
            .get(name)
            .ok_or_else(|| StorageError::UnknownTable(name.to_string()))
    }

    /// True if the table exists.
    pub fn contains(&self, name: &str) -> bool {
        self.tables.contains_key(name)
    }

    /// Names of all tables, sorted.
    pub fn table_names(&self) -> Vec<&str> {
        self.tables.keys().map(|s| s.as_str()).collect()
    }

    /// Total number of rows across all tables.
    pub fn total_rows(&self) -> usize {
        self.tables.values().map(|t| t.len()).sum()
    }

    /// Replace a table's contents with a filtered subset (used by tests that
    /// evaluate queries over sketch instances `D_P`).
    pub fn with_replaced_table(&self, table: Table) -> Database {
        let mut db = self.clone();
        db.add_table(table);
        db
    }

    /// Mutable access to a table for in-place mutation. A shared table is
    /// cloned copy-on-write — which copies no row: the clone shares the
    /// original's row chunks and everything derived from them until the
    /// mutation replaces a chunk — so readers holding the old `Arc<Table>`
    /// keep a consistent snapshot.
    pub fn table_mut(&mut self, name: &str) -> Result<&mut Table, StorageError> {
        self.tables
            .get_mut(name)
            .map(Arc::make_mut)
            .ok_or_else(|| StorageError::UnknownTable(name.to_string()))
    }

    /// Append rows to a table (copy-on-write when shared); returns the
    /// table's new epoch. See [`Table::append_rows`].
    pub fn append_rows(
        &mut self,
        table: &str,
        rows: Vec<crate::relation::Row>,
    ) -> Result<u64, StorageError> {
        self.table_mut(table)?.append_rows(rows)
    }

    /// Append several row batches to a table through a single epoch advance
    /// (copy-on-write when shared); returns the table's new epoch. See
    /// [`Table::append_row_batches`].
    pub fn append_row_batches(
        &mut self,
        table: &str,
        batches: Vec<Vec<crate::relation::Row>>,
    ) -> Result<u64, StorageError> {
        self.table_mut(table)?.append_row_batches(batches)
    }

    /// Delete rows matching `pred` from a table (copy-on-write when shared);
    /// returns the number of rows deleted. See [`Table::delete_where`].
    pub fn delete_where(
        &mut self,
        table: &str,
        pred: impl FnMut(&crate::relation::Row) -> bool,
    ) -> Result<usize, StorageError> {
        Ok(self.table_mut(table)?.delete_where(pred))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::value::{DataType, Value};

    fn tiny_table(name: &str, n: i64) -> Table {
        let schema = Schema::from_pairs(&[("a", DataType::Int)]);
        Table::new(name, schema, (0..n).map(|i| vec![Value::Int(i)]).collect())
    }

    #[test]
    fn add_and_lookup() {
        let mut db = Database::new();
        db.add_table(tiny_table("t1", 3));
        db.add_table(tiny_table("t2", 5));
        assert!(db.contains("t1"));
        assert_eq!(db.table("t2").unwrap().len(), 5);
        assert_eq!(db.table_names(), vec!["t1", "t2"]);
        assert_eq!(db.total_rows(), 8);
    }

    #[test]
    fn missing_table_is_an_error() {
        let db = Database::new();
        assert_eq!(
            db.table("nope").unwrap_err(),
            StorageError::UnknownTable("nope".into())
        );
    }

    #[test]
    fn with_replaced_table_swaps_contents() {
        let mut db = Database::new();
        db.add_table(tiny_table("t", 10));
        let db2 = db.with_replaced_table(tiny_table("t", 2));
        assert_eq!(db.table("t").unwrap().len(), 10);
        assert_eq!(db2.table("t").unwrap().len(), 2);
    }
}
