//! `StepCtx`: the data-access API a step executes against.
//!
//! Each operation resolves its table once and makes one trip through the
//! locking code (the paper's implemented variant: assertional locks are
//! taken with the conventional ones, §3.3). Three private helpers hold the
//! rules every operation shares:
//!
//! * the keyed-access loop (`keyed`) resolves a key to its slot and leaf
//!   with one descent, takes the active [`ConcurrencyControl`]'s table
//!   locks and then its page locks, runs the operation under them on that
//!   leaf (one latch if no writer touched it meanwhile), and re-resolves
//!   the key if it moved while the thread waited;
//! * the version-read helper (`version_read`) serves a read from committed
//!   row versions, with no lock traffic, when both halves of the gate agree;
//! * the logged-write helper (`log_write`) adds the written key, with the
//!   leaf hint its write left, to the transaction's write set, appends the
//!   write's before/after images to the WAL and pushes its undo record onto
//!   the transaction's current-step undo stack.
//!
//! Every write names its row by primary key, and keys never move.

use crate::cc::ConcurrencyControl;
use crate::shared::{SharedDb, WaitMode};
use crate::transaction::Transaction;
use acc_common::events::Event;
use acc_common::{Error, ResourceId, Result, Slot, TableId, TxnId};
use acc_lockmgr::{LockKind, RequestCtx, SharedOracle};
use acc_storage::{
    CommitResolver, Key, LeafHint, Predicate, Row, Table, UndoRecord, VersionedUpdate, Visibility,
};

/// The slot reported for rows produced by a coordination-free version read:
/// no physical slot is pinned (the image may be historical), so callers must
/// not dereference it. Read-only steps — the only ones eligible for the fast
/// path — consume rows, never slots.
pub const VERSION_READ_SLOT: Slot = Slot::MAX;

/// Tag version-read rows with [`VERSION_READ_SLOT`].
fn unslotted(rows: Vec<Row>) -> Vec<(Slot, Row)> {
    rows.into_iter().map(|r| (VERSION_READ_SLOT, r)).collect()
}

/// The execution context handed to [`crate::program::TxnProgram::step`].
pub struct StepCtx<'a> {
    shared: &'a SharedDb,
    cc: &'a dyn ConcurrencyControl,
    txn: &'a mut Transaction,
    mode: WaitMode,
    /// The interference tables every lock request in this step consults:
    /// the transaction's pinned epoch snapshot, resolved once here — the
    /// per-request path never touches the registry.
    oracle: SharedOracle,
}

impl<'a> StepCtx<'a> {
    /// Build a context for one step execution.
    pub fn new(
        shared: &'a SharedDb,
        cc: &'a dyn ConcurrencyControl,
        txn: &'a mut Transaction,
        mode: WaitMode,
    ) -> Self {
        let oracle = shared.oracle_for(txn.epoch_pin.as_ref());
        StepCtx {
            shared,
            cc,
            txn,
            mode,
            oracle,
        }
    }

    /// The executing transaction's id.
    pub fn txn_id(&self) -> TxnId {
        self.txn.id
    }

    /// Zero-based index of the step being executed.
    pub fn step_index(&self) -> u32 {
        self.txn.step_index
    }

    fn request_ctx(&self) -> RequestCtx {
        let meta = self.txn.meta();
        RequestCtx {
            step_type: self.cc.step_type(&meta),
            comp_step: if self.cc.decomposed() {
                self.cc.comp_step_type(meta.txn_type)
            } else {
                None
            },
            compensating: meta.compensating,
        }
    }

    /// Acquire each of `kinds` on `resource`, in order.
    fn acquire(&self, resource: ResourceId, kinds: Vec<LockKind>) -> Result<()> {
        let ctx = self.request_ctx();
        for kind in kinds {
            self.shared
                .acquire(self.txn.id, resource, kind, ctx, self.mode, &*self.oracle)?;
        }
        Ok(())
    }

    /// The table half of a single-row access: the policy's intention lock,
    /// plus whatever table-granularity presence it adds (a decomposed
    /// policy's guard pin on writes).
    fn lock_table(&self, table: TableId, write: bool) -> Result<()> {
        let kinds = self.cc.table_locks(&self.txn.meta(), table, write);
        self.acquire(ResourceId::Table(table), kinds)
    }

    /// The page half: the policy's item locks on the page covering `slot`.
    fn lock_page(&self, t: &Table, slot: Slot, write: bool) -> Result<()> {
        let kinds = self.cc.item_locks(&self.txn.meta(), t.schema().id, write);
        self.acquire(t.page_resource(slot), kinds)
    }

    /// Table-granularity locks for a scan.
    fn lock_scan(&self, table: TableId) -> Result<()> {
        let kinds = self.cc.scan_locks(&self.txn.meta(), table);
        self.acquire(ResourceId::Table(table), kinds)
    }

    /// The keyed-access loop: resolve `key` to its slot and leaf, take the
    /// table locks and then the page locks, and run `op` on the slot under
    /// them, handing it the leaf hint so it revisits that leaf rather than
    /// descending again. `op` answers `None` when the key moved while this
    /// thread waited for a lock; the loop then re-resolves it. An absent
    /// key takes no lock — a write to it pins no guard on the table — and
    /// yields `None`.
    fn keyed<R>(
        &self,
        t: &Table,
        key: &Key,
        write: bool,
        mut op: impl FnMut(Slot, LeafHint) -> Result<Option<R>>,
    ) -> Result<Option<R>> {
        loop {
            let Some((slot, hint)) = t.locate(key) else {
                return Ok(None);
            };
            self.lock_table(t.schema().id, write)?;
            self.lock_page(t, slot, write)?;
            if let Some(answer) = op(slot, hint)? {
                return Ok(Some(answer));
            }
        }
    }

    /// The version-read helper. Both halves of the gate must agree before a
    /// read bypasses the lock manager: the policy half classifies the step
    /// read-only (`ConcurrencyControl::version_read_safe`); the oracle half
    /// — judged by the transaction's *pinned epoch* tables, like every
    /// other interference decision it causes — requires the step analyzed
    /// with an all-clear write row (`InterferenceOracle::version_read_safe`).
    ///
    /// `at` reads as of the transaction's read view (the durable WAL
    /// frontier at its begin, cached after the first versioned read) and
    /// answers `None` when the version chains cannot soundly reconstruct
    /// the image. The helper emits one `VersionRead` or one
    /// `VersionFallback`; a `None` sends the caller down its locked path.
    fn version_read<R>(
        &mut self,
        table: TableId,
        at: impl FnOnce(u64, TxnId, &dyn CommitResolver) -> Option<R>,
    ) -> Option<R> {
        let meta = self.txn.meta();
        if !(self.cc.version_read_safe(&meta)
            && self.oracle.version_read_safe(self.cc.step_type(&meta)))
        {
            return None;
        }
        if self.txn.read_view.is_none() {
            self.txn.read_view = self.shared.read_view_of(self.txn.id);
        }
        let view = self.txn.read_view?;
        let txn = self.txn.id;
        let answer = at(view, txn, &self.shared.published_commits());
        let sink = self.shared.event_sink();
        if sink.is_enabled() {
            sink.emit(if answer.is_some() {
                Event::VersionRead { txn, table }
            } else {
                Event::VersionFallback { txn, table }
            });
        }
        answer
    }

    /// The logged-write helper, called once the write to `key` is applied
    /// under its locks: record `key` and the `hint` the write left in the
    /// write set (the version collector revisits exactly the recorded keys,
    /// through their latest hints), log the before/after images, give the
    /// batch-flush hint, and push `undo` onto the step's undo stack.
    fn log_write(&mut self, key: Key, hint: LeafHint, undo: UndoRecord, after: Option<Row>) {
        let table = undo.table();
        self.txn
            .write_set
            .entry(table)
            .or_default()
            .insert(key, hint);
        let before = match &undo {
            UndoRecord::Insert { .. } => None,
            UndoRecord::Update { before, .. } | UndoRecord::Delete { before, .. } => {
                Some(before.clone())
            }
        };
        // The WAL append happens outside the page latches, but the slot's
        // page X lock (held until step end) serializes all same-slot
        // records, so recovery sees them in mutation order.
        self.shared
            .log_update(self.txn.id, table, undo.slot(), before, after);
        // Batching hint: lets a full batch retire mid-step, so fsync
        // boundaries can fall inside a step (what a real disk does).
        self.shared.flush_wal_batch();
        self.txn.step_undo.push(undo);
    }

    /// A locked point read of `key` under the policy's read or write locks.
    /// The slot check and the row come from one visit to the leaf `keyed`
    /// found.
    fn read_locked(&self, t: &Table, key: &Key, write: bool) -> Result<Option<Row>> {
        let row = self.keyed(t, key, write, |slot, hint| {
            // The row may have moved/vanished while we waited for the lock:
            // `None` = retry, the inner `Option` is the final answer.
            Ok(match t.get_at(key, hint) {
                Some((s, row)) if s == slot => Some(Some(row)),
                Some(_) => None,
                None => Some(None),
            })
        })?;
        Ok(row.flatten())
    }

    /// Read the row with the given primary key. `None` if absent.
    ///
    /// When both halves of the version-read gate agree, the read is served
    /// from the row's committed version chain as of this transaction's read
    /// view (the durable WAL frontier at its begin) — zero lock-manager
    /// traffic. A chain that cannot soundly reconstruct the image falls
    /// back to the conventional locked read.
    pub fn read(&mut self, table: TableId, key: &Key) -> Result<Option<Row>> {
        let t = self.shared.table(table)?;
        let versioned = self.version_read(table, |view, reader, commits| {
            match t.read_at(key, view, reader, commits) {
                Visibility::Visible(row) => Some(row),
                Visibility::Tainted => None,
            }
        });
        match versioned {
            Some(row) => Ok(row),
            None => self.read_locked(t, key, false),
        }
    }

    /// Read the row with the given key under *write* locks (`SELECT … FOR
    /// UPDATE`). Use this instead of [`StepCtx::read`] when the row will be
    /// updated later in the step: going straight to an exclusive lock avoids
    /// the classic S→X upgrade deadlock between two read-modify-write steps.
    pub fn read_for_update(&mut self, table: TableId, key: &Key) -> Result<Option<Row>> {
        let t = self.shared.table(table)?;
        self.read_locked(t, key, true)
    }

    /// Insert a row; returns its slot.
    pub fn insert(&mut self, table: TableId, row: Row) -> Result<Slot> {
        let t = self.shared.table(table)?;
        self.lock_table(table, true)?;
        loop {
            let slot = t.peek_next_slot();
            self.lock_page(t, slot, true)?;
            // `insert_versioned` re-checks the predicted slot, plants the
            // row, and records the pending version (before the insert, the
            // row was absent) atomically under one leaf latch; `None` means
            // another insert raced us while we waited for the lock.
            if let Some((slot, key, undo, hint)) =
                t.insert_versioned(row.clone(), self.txn.id, slot)?
            {
                self.log_write(key, hint, undo, Some(row));
                return Ok(slot);
            }
        }
    }

    /// Update the row with the given key in place. Returns `false` if the
    /// key is absent.
    pub fn update_key(&mut self, table: TableId, key: &Key, f: impl Fn(&mut Row)) -> Result<bool> {
        let t = self.shared.table(table)?;
        let txn = self.txn.id;
        // Mutation + pending-version push run atomically under the leaf's
        // write latch; `Retry` means the key moved or died while we waited
        // for the lock.
        let applied = self.keyed(t, key, true, |slot, hint| {
            Ok(match t.update_versioned(key, slot, hint, txn, &f)? {
                VersionedUpdate::Applied { undo, after, hint } => Some((undo, after, hint)),
                VersionedUpdate::Retry => None,
            })
        })?;
        let Some((undo, after, hint)) = applied else {
            return Ok(false);
        };
        self.log_write(key.clone(), hint, undo, Some(after));
        Ok(true)
    }

    /// Delete the row with the given key. Returns `false` if absent.
    pub fn delete_key(&mut self, table: TableId, key: &Key) -> Result<bool> {
        let t = self.shared.table(table)?;
        let txn = self.txn.id;
        // Row removal + the pending delete version run atomically under the
        // leaf latch; the entry survives as a tombstone so the slot can be
        // reused by an unrelated key while version readers still find the
        // deleted row's history under its primary key.
        let deleted = self.keyed(t, key, true, |slot, hint| {
            Ok(t.delete_versioned(key, slot, hint, txn)?
                .map(|(undo, _, hint)| (undo, hint)))
        })?;
        let Some((undo, hint)) = deleted else {
            return Ok(false);
        };
        self.log_write(key.clone(), hint, undo, None);
        Ok(true)
    }

    /// All rows whose primary key starts with `prefix`, in key order.
    ///
    /// On the version-read fast path the rows are committed images as of
    /// the read view and carry [`VERSION_READ_SLOT`] instead of a physical
    /// slot (see there).
    pub fn scan_prefix(&mut self, table: TableId, prefix: &Key) -> Result<Vec<(Slot, Row)>> {
        let t = self.shared.table(table)?;
        if let Some(rows) = self.version_read(table, |view, reader, commits| {
            t.scan_prefix_at(prefix, view, reader, commits)
                .map(unslotted)
        }) {
            return Ok(rows);
        }
        self.lock_scan(table)?;
        Ok(t.scan_prefix(prefix).collect())
    }

    /// The first row (in key order) whose primary key starts with `prefix`
    /// — an early-terminating tree descent under the same scan locks as
    /// [`StepCtx::scan_prefix`], for oldest-first pick-one lookups.
    pub fn first_by_prefix(&mut self, table: TableId, prefix: &Key) -> Result<Option<(Slot, Row)>> {
        let t = self.shared.table(table)?;
        self.lock_scan(table)?;
        Ok(t.first_in_prefix(prefix))
    }

    /// All rows with primary key in `[lo, hi)`, in key order — one range
    /// descent instead of per-prefix rescans, under the same scan locks as
    /// [`StepCtx::scan_prefix`].
    ///
    /// Fast-path rows carry [`VERSION_READ_SLOT`]; see
    /// [`StepCtx::scan_prefix`].
    pub fn scan_range(&mut self, table: TableId, lo: &Key, hi: &Key) -> Result<Vec<(Slot, Row)>> {
        let t = self.shared.table(table)?;
        if let Some(rows) = self.version_read(table, |view, reader, commits| {
            t.scan_range_at(lo, hi, view, reader, commits)
                .map(unslotted)
        }) {
            return Ok(rows);
        }
        self.lock_scan(table)?;
        Ok(t.scan_range(lo, hi))
    }

    /// All rows satisfying `pred`, in key order.
    pub fn scan(&mut self, table: TableId, pred: &Predicate) -> Result<Vec<(Slot, Row)>> {
        let t = self.shared.table(table)?;
        self.lock_scan(table)?;
        Ok(t.scan(pred).collect())
    }

    /// Rows matched through secondary index `idx` by key prefix.
    ///
    /// Fast-path rows carry [`VERSION_READ_SLOT`]; see
    /// [`StepCtx::scan_prefix`].
    pub fn lookup_secondary(
        &mut self,
        table: TableId,
        idx: usize,
        prefix: &Key,
    ) -> Result<Vec<(Slot, Row)>> {
        let t = self.shared.table(table)?;
        if let Some(rows) = self.version_read(table, |view, reader, commits| {
            t.lookup_secondary_at(idx, prefix, view, reader, commits)
                .map(unslotted)
        }) {
            return Ok(rows);
        }
        self.lock_scan(table)?;
        Ok(t.lookup_secondary(idx, prefix)
            .into_iter()
            .filter_map(|s| t.row(s).map(|r| (s, r)))
            .collect())
    }

    /// Read a row that must exist (internal-error otherwise) — convenience
    /// for foreign-key-guaranteed lookups.
    pub fn read_existing(&mut self, table: TableId, key: &Key) -> Result<Row> {
        self.read(table, key)?
            .ok_or_else(|| Error::NotFound(format!("table#{} key {key}", table.raw())))
    }
}
