//! `StepCtx`: the data-access API a step executes against.
//!
//! Every operation acquires the locks the active [`ConcurrencyControl`]
//! prescribes (conventional intention + item locks, plus whatever assertional
//! locks the policy attaches), logs before/after images to the WAL, and
//! pushes undo records onto the transaction's current-step undo stack.

use crate::cc::ConcurrencyControl;
use crate::shared::{SharedDb, WaitMode};
use crate::transaction::Transaction;
use acc_common::events::Event;
use acc_common::{Error, Result, Slot, TableId, TxnId};
use acc_lockmgr::{LockKind, LockMode, RequestCtx, SharedOracle};
use acc_storage::{Key, Predicate, Row, UndoRecord, VersionedUpdate, Visibility};
use acc_wal::LogRecord;

/// The slot reported for rows produced by a coordination-free version read:
/// no physical slot is pinned (the image may be historical), so callers must
/// not dereference it. Read-only steps — the only ones eligible for the fast
/// path — consume rows, never slots.
pub const VERSION_READ_SLOT: Slot = Slot::MAX;

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

    /// The transaction state (for runner bookkeeping).
    pub fn txn(&mut self) -> &mut Transaction {
        self.txn
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

    /// The version-read gate: both halves must agree before a read bypasses
    /// the lock manager. The policy half classifies the step read-only
    /// (`ConcurrencyControl::version_read_safe`); the oracle half — judged
    /// by the transaction's *pinned epoch* tables, like every other
    /// interference decision it causes — requires the step analyzed with an
    /// all-clear write row (`InterferenceOracle::version_read_safe`).
    fn version_reads_enabled(&self) -> bool {
        let meta = self.txn.meta();
        self.cc.version_read_safe(&meta) && self.oracle.version_read_safe(self.cc.step_type(&meta))
    }

    /// The transaction's read view (the durable WAL frontier at its begin),
    /// cached after the first versioned read.
    fn read_view(&mut self) -> Option<u64> {
        if self.txn.read_view.is_none() {
            self.txn.read_view = self.shared.read_view_of(self.txn.id);
        }
        self.txn.read_view
    }

    /// Count a version-read fast-path hit or a fallback to the lock path.
    fn emit_version_event(&self, table: TableId, hit: bool) {
        let sink = self.shared.event_sink();
        if sink.is_enabled() {
            let txn = self.txn.id;
            sink.emit(if hit {
                Event::VersionRead { txn, table }
            } else {
                Event::VersionFallback { txn, table }
            });
        }
    }

    /// Remember that this transaction pushed version entries into `table`
    /// (commit/rollback finalizes exactly the recorded tables).
    fn note_version_table(&mut self, table: TableId) {
        if !self.txn.version_tables.contains(&table) {
            self.txn.version_tables.push(table);
        }
    }

    fn acquire(&self, resource: acc_common::ResourceId, kind: LockKind) -> Result<()> {
        self.shared.acquire_with(
            self.txn.id,
            resource,
            kind,
            self.request_ctx(),
            self.mode,
            &*self.oracle,
        )
    }

    /// Take the table intention lock plus the policy's item locks on the
    /// page covering `slot`.
    fn lock_item(&self, table: TableId, slot: Slot, write: bool) -> Result<()> {
        let meta = self.txn.meta();
        for kind in self.cc.table_locks(&meta, table, write) {
            self.acquire(acc_common::ResourceId::Table(table), kind)?;
        }
        let page = self.shared.with_table(table, |t| t.page_resource(slot))?;
        for kind in self.cc.item_locks(&meta, table, write) {
            self.acquire(page, kind)?;
        }
        Ok(())
    }

    /// Read the row with the given primary key. `None` if absent.
    ///
    /// When both halves of the version-read gate agree
    /// ([`StepCtx::version_reads_enabled`]), the read is served from the
    /// row's committed version chain as of this transaction's read view
    /// (the durable WAL frontier at its begin) — zero lock-manager traffic. A chain that cannot soundly reconstruct
    /// the image falls back to the conventional locked read below.
    pub fn read(&mut self, table: TableId, key: &Key) -> Result<Option<Row>> {
        if self.version_reads_enabled() {
            if let Some(view) = self.read_view() {
                let reader = self.txn.id;
                let vis = self.shared.with_table(table, |t| {
                    t.read_at(key, view, reader, &self.shared.published_commits())
                })?;
                match vis {
                    Visibility::Visible(row) => {
                        self.emit_version_event(table, true);
                        return Ok(row);
                    }
                    Visibility::Tainted => self.emit_version_event(table, false),
                }
            }
        }
        loop {
            let slot = self.shared.with_table(table, |t| t.slot_of(key))?;
            let Some(slot) = slot else {
                return Ok(None);
            };
            self.lock_item(table, slot, false)?;
            // The row may have moved/vanished while we waited for the lock:
            // outer None = retry, inner Option is the final answer.
            let row: Option<Option<Row>> =
                self.shared.with_table(table, |t| match t.slot_of(key) {
                    Some(s) if s == slot => Some(t.row(slot)),
                    Some(_) => None,    // moved: retry with fresh slot
                    None => Some(None), // deleted while we waited
                })?;
            match row {
                Some(answer) => return Ok(answer),
                None => continue,
            }
        }
    }

    /// Read the row with the given key under *write* locks (`SELECT … FOR
    /// UPDATE`). Use this instead of [`StepCtx::read`] when the row will be
    /// updated later in the step: going straight to an exclusive lock avoids
    /// the classic S→X upgrade deadlock between two read-modify-write steps.
    pub fn read_for_update(&mut self, table: TableId, key: &Key) -> Result<Option<Row>> {
        loop {
            let slot = self.shared.with_table(table, |t| t.slot_of(key))?;
            let Some(slot) = slot else {
                return Ok(None);
            };
            self.lock_item(table, slot, true)?;
            let row: Option<Option<Row>> =
                self.shared.with_table(table, |t| match t.slot_of(key) {
                    Some(s) if s == slot => Some(t.row(slot)),
                    Some(_) => None,
                    None => Some(None),
                })?;
            match row {
                Some(answer) => return Ok(answer),
                None => continue,
            }
        }
    }

    /// Insert a row; returns its slot.
    pub fn insert(&mut self, table: TableId, row: Row) -> Result<Slot> {
        self.acquire(
            acc_common::ResourceId::Table(table),
            LockKind::Conventional(LockMode::IX),
        )?;
        let txn_id = self.txn.id;
        loop {
            let slot = self.shared.with_table(table, |t| t.peek_next_slot())?;
            self.lock_item(table, slot, true)?;
            // `insert_versioned` re-checks the predicted slot, plants the
            // row, and records the pending version (before the insert, the
            // row was absent) atomically under one leaf latch; `None` means
            // another insert raced us while we waited for the lock.
            let done = self
                .shared
                .with_table(table, |t| t.insert_versioned(row.clone(), txn_id, slot))??;
            if let Some((s, _key, undo)) = done {
                self.note_version_table(table);
                // The WAL append happens outside the page latches, but the
                // slot's page X lock (held until step end) serializes all
                // same-slot records, so recovery sees them in mutation order.
                self.shared.with_wal(|w| {
                    w.append(LogRecord::Update {
                        txn: self.txn.id,
                        table,
                        slot: s,
                        before: None,
                        after: Some(row.clone()),
                    })
                });
                // Batching hint: lets a full batch retire mid-step, so fsync
                // boundaries can fall inside a step (what a real disk does).
                self.shared.flush_wal_batch();
                self.txn.step_undo.push(undo);
                return Ok(s);
            }
        }
    }

    /// Update the row with the given key in place. Returns `false` if the
    /// key is absent.
    pub fn update_key(&mut self, table: TableId, key: &Key, f: impl Fn(&mut Row)) -> Result<bool> {
        let txn_id = self.txn.id;
        loop {
            let slot = self.shared.with_table(table, |t| t.slot_of(key))?;
            let Some(slot) = slot else {
                return Ok(false);
            };
            self.lock_item(table, slot, true)?;
            // Mutation + pending-version push run atomically under the
            // leaf's write latch; `Retry` means the key moved or died while
            // we waited for the lock.
            let outcome = self
                .shared
                .with_table(table, |t| t.update_versioned(key, slot, txn_id, &f))??;
            match outcome {
                VersionedUpdate::Applied { undo, after } => {
                    let before = match &undo {
                        UndoRecord::Update { before, .. } => Some(before.clone()),
                        _ => None,
                    };
                    self.note_version_table(table);
                    self.shared.with_wal(|w| {
                        w.append(LogRecord::Update {
                            txn: self.txn.id,
                            table,
                            slot,
                            before,
                            after: Some(after),
                        })
                    });
                    self.shared.flush_wal_batch();
                    self.txn.step_undo.push(undo);
                    return Ok(true);
                }
                VersionedUpdate::Retry => continue, // moved or deleted: re-resolve
            }
        }
    }

    /// Update the row at a known slot (must exist).
    pub fn update_slot(&mut self, table: TableId, slot: Slot, f: impl Fn(&mut Row)) -> Result<()> {
        self.lock_item(table, slot, true)?;
        let txn_id = self.txn.id;
        let (undo, before, after) = self.shared.with_table(table, |t| -> Result<_> {
            let key = t
                .key_of_slot(slot)
                .ok_or_else(|| Error::NotFound(format!("table#{} slot {slot}", table.raw())))?;
            match t.update_versioned(&key, slot, txn_id, &f)? {
                VersionedUpdate::Applied { undo, after } => {
                    let before = match &undo {
                        UndoRecord::Update { before, .. } => Some(before.clone()),
                        _ => None,
                    };
                    Ok((undo, before, Some(after)))
                }
                // The page X lock pins the slot; a concurrent move is a
                // protocol violation, surfaced as the caller's "must exist".
                VersionedUpdate::Retry => Err(Error::NotFound(format!(
                    "table#{} slot {slot}",
                    table.raw()
                ))),
            }
        })??;
        self.note_version_table(table);
        self.shared.with_wal(|w| {
            w.append(LogRecord::Update {
                txn: self.txn.id,
                table,
                slot,
                before,
                after,
            })
        });
        self.shared.flush_wal_batch();
        self.txn.step_undo.push(undo);
        Ok(())
    }

    /// Delete the row with the given key. Returns `false` if absent.
    pub fn delete_key(&mut self, table: TableId, key: &Key) -> Result<bool> {
        let txn_id = self.txn.id;
        loop {
            let slot = self.shared.with_table(table, |t| t.slot_of(key))?;
            let Some(slot) = slot else {
                return Ok(false);
            };
            self.lock_item(table, slot, true)?;
            // Row removal + the pending delete version run atomically under
            // the leaf latch; the entry survives as a tombstone so the slot
            // can be reused by an unrelated key while version readers still
            // find the deleted row's history under its primary key.
            let outcome = self
                .shared
                .with_table(table, |t| t.delete_versioned(key, slot, txn_id))??;
            match outcome {
                Some((undo, before)) => {
                    let before = Some(before);
                    self.note_version_table(table);
                    self.shared.with_wal(|w| {
                        w.append(LogRecord::Update {
                            txn: self.txn.id,
                            table,
                            slot,
                            before,
                            after: None,
                        })
                    });
                    self.shared.flush_wal_batch();
                    self.txn.step_undo.push(undo);
                    return Ok(true);
                }
                None => continue,
            }
        }
    }

    /// Table-granularity locks for a scan.
    fn lock_scan(&self, table: TableId) -> Result<()> {
        let meta = self.txn.meta();
        for kind in self.cc.scan_locks(&meta, table) {
            self.acquire(acc_common::ResourceId::Table(table), kind)?;
        }
        Ok(())
    }

    /// All rows whose primary key starts with `prefix`, in key order.
    ///
    /// On the version-read fast path the rows are committed images as of
    /// the read view and carry [`VERSION_READ_SLOT`] instead of a physical
    /// slot (see there).
    pub fn scan_prefix(&mut self, table: TableId, prefix: &Key) -> Result<Vec<(Slot, Row)>> {
        if self.version_reads_enabled() {
            if let Some(view) = self.read_view() {
                let reader = self.txn.id;
                let rows = self.shared.with_table(table, |t| {
                    t.scan_prefix_at(prefix, view, reader, &self.shared.published_commits())
                })?;
                if let Some(rows) = rows {
                    self.emit_version_event(table, true);
                    return Ok(rows.into_iter().map(|r| (VERSION_READ_SLOT, r)).collect());
                }
                self.emit_version_event(table, false);
            }
        }
        self.lock_scan(table)?;
        self.shared
            .with_table(table, |t| t.scan_prefix(prefix).collect())
    }

    /// The first row (in key order) whose primary key starts with `prefix`
    /// — an early-terminating tree descent under the same scan locks as
    /// [`StepCtx::scan_prefix`], for oldest-first pick-one lookups.
    pub fn first_by_prefix(&mut self, table: TableId, prefix: &Key) -> Result<Option<(Slot, Row)>> {
        self.lock_scan(table)?;
        self.shared.with_table(table, |t| t.first_in_prefix(prefix))
    }

    /// All rows with primary key in `[lo, hi)`, in key order — one range
    /// descent instead of per-prefix rescans, under the same scan locks as
    /// [`StepCtx::scan_prefix`].
    ///
    /// Fast-path rows carry [`VERSION_READ_SLOT`]; see
    /// [`StepCtx::scan_prefix`].
    pub fn scan_range(&mut self, table: TableId, lo: &Key, hi: &Key) -> Result<Vec<(Slot, Row)>> {
        if self.version_reads_enabled() {
            if let Some(view) = self.read_view() {
                let reader = self.txn.id;
                let rows = self.shared.with_table(table, |t| {
                    t.scan_range_at(lo, hi, view, reader, &self.shared.published_commits())
                })?;
                if let Some(rows) = rows {
                    self.emit_version_event(table, true);
                    return Ok(rows.into_iter().map(|r| (VERSION_READ_SLOT, r)).collect());
                }
                self.emit_version_event(table, false);
            }
        }
        self.lock_scan(table)?;
        self.shared.with_table(table, |t| t.scan_range(lo, hi))
    }

    /// All rows satisfying `pred`, in key order.
    pub fn scan(&mut self, table: TableId, pred: &Predicate) -> Result<Vec<(Slot, Row)>> {
        self.lock_scan(table)?;
        self.shared.with_table(table, |t| t.scan(pred).collect())
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
        if self.version_reads_enabled() {
            if let Some(view) = self.read_view() {
                let reader = self.txn.id;
                let rows = self.shared.with_table(table, |t| {
                    t.lookup_secondary_at(
                        idx,
                        prefix,
                        view,
                        reader,
                        &self.shared.published_commits(),
                    )
                })?;
                if let Some(rows) = rows {
                    self.emit_version_event(table, true);
                    return Ok(rows.into_iter().map(|r| (VERSION_READ_SLOT, r)).collect());
                }
                self.emit_version_event(table, false);
            }
        }
        self.lock_scan(table)?;
        self.shared.with_table(table, |t| {
            t.lookup_secondary(idx, prefix)
                .into_iter()
                .filter_map(|s| t.row(s).map(|r| (s, r)))
                .collect()
        })
    }

    /// Read a row that must exist (internal-error otherwise) — convenience
    /// for foreign-key-guaranteed lookups.
    pub fn read_existing(&mut self, table: TableId, key: &Key) -> Result<Row> {
        self.read(table, key)?
            .ok_or_else(|| Error::NotFound(format!("table#{} key {key}", table.raw())))
    }
}
