//! In-memory relational storage.
//!
//! A [`Database`] is a catalog of heap [`table::Table`]s. Each table keeps its
//! rows in slots, a primary-key B-tree, optional secondary indices, and maps
//! slots to pages so the lock manager can lock at page granularity (the
//! default granularity in the paper's Open Ingres substrate).
//!
//! Every mutating operation returns an [`undo::UndoRecord`] so the transaction
//! layer can roll back an incomplete step and the WAL can log before/after
//! images.

pub(crate) mod btree;
pub mod pager;
pub mod predicate;
pub mod row;
pub mod schema;
pub mod table;
pub mod undo;
pub mod version;

pub use btree::LeafHint;
pub use pager::{latch_debug_assert_none_held, PagerCounters};
pub use predicate::{CmpOp, Predicate};
pub use row::{Key, Row};
pub use schema::{Catalog, ColumnDef, ColumnType, TableSchema};
pub use table::{Table, VersionedUpdate};
pub use undo::UndoRecord;
pub use version::{ChainEntry, CommitResolver, NoCommits, Visibility};

use acc_common::{Error, Result, TableId};

/// A catalog plus one heap table per schema entry.
#[derive(Debug, Clone, Default)]
pub struct Database {
    tables: Vec<Table>,
}

impl Database {
    /// Build an empty database containing one empty table per catalog entry.
    pub fn new(catalog: &Catalog) -> Self {
        Database {
            tables: catalog.tables().map(|s| Table::new(s.clone())).collect(),
        }
    }

    /// The table with the given id.
    pub fn table(&self, id: TableId) -> Result<&Table> {
        self.tables
            .get(id.raw() as usize)
            .ok_or_else(|| Error::NotFound(format!("table {id}")))
    }

    /// Mutable access to the table with the given id.
    pub fn table_mut(&mut self, id: TableId) -> Result<&mut Table> {
        self.tables
            .get_mut(id.raw() as usize)
            .ok_or_else(|| Error::NotFound(format!("table {id}")))
    }

    /// All tables, in id order.
    pub fn tables(&self) -> impl Iterator<Item = &Table> {
        self.tables.iter()
    }

    /// Undo a previously returned [`UndoRecord`].
    pub fn apply_undo(&mut self, undo: &UndoRecord) -> Result<()> {
        self.table_mut(undo.table())?.apply_undo(undo)
    }

    /// Total row count across all tables (test/diagnostic helper).
    pub fn total_rows(&self) -> usize {
        self.tables.iter().map(Table::len).sum()
    }

    /// Aggregate pager counters across all tables (page latch traffic,
    /// splits/merges, restarts) — the physical-latching analogue of the
    /// lock manager's `lockstat`.
    pub fn pager_counters(&self) -> PagerCounters {
        self.tables
            .iter()
            .map(Table::pager_counters)
            .fold(PagerCounters::default(), |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acc_common::Value;

    fn demo_catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add_table(
            TableSchema::builder("accounts")
                .column("id", ColumnType::Int)
                .column("balance", ColumnType::Decimal)
                .key(&["id"])
                .build(),
        );
        c
    }

    #[test]
    fn database_from_catalog() {
        let cat = demo_catalog();
        let db = Database::new(&cat);
        assert_eq!(db.tables().count(), 1);
        assert_eq!(db.total_rows(), 0);
        assert!(db.table(TableId(0)).is_ok());
        assert!(db.table(TableId(9)).is_err());
    }

    #[test]
    fn undo_round_trip_through_database() {
        let cat = demo_catalog();
        let mut db = Database::new(&cat);
        let t = TableId(0);
        let row = Row::from(vec![
            Value::Int(1),
            Value::from(acc_common::Decimal::from_int(10)),
        ]);
        let (_, undo) = db.table_mut(t).unwrap().insert(row).unwrap();
        assert_eq!(db.total_rows(), 1);
        db.apply_undo(&undo).unwrap();
        assert_eq!(db.total_rows(), 0);
    }
}
