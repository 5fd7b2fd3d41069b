//! Heap tables over the paged B-tree (the private `btree` module):
//! page-granularity physical latching, slot-stable heap addressing, optional
//! secondary indices, and per-key MVCC-lite version chains.
//!
//! Rows live in *slots*; a freed slot is reused by the next insert, so slot
//! numbers (and therefore page assignments and lock resources) stay dense and
//! stable. `slot / rows_per_page` is the *logical* page number the lock
//! manager locks — unchanged across the paged-storage refactor, so WAL bytes
//! and lock schedules are byte-identical with the old flat layout. Physical
//! pages (the tree's leaves, latched by the pager) are a separate notion:
//! page latches protect individual node reads/writes and are never held
//! across a logical lock wait, a WAL append, or a step boundary.
//!
//! Every method takes `&self`: concurrency control lives in the per-page
//! latches, a slot-allocator mutex, per-index locks, and (for tables with
//! secondary indices) a writer/reader gate that keeps the version-read
//! secondary fast path sound. The whole-table stripe lock is gone.

use crate::btree::{BTree, LeafEntry};
use crate::pager::PagerCounters;
use crate::predicate::Predicate;
use crate::row::{Key, Row};
use crate::schema::TableSchema;
use crate::undo::UndoRecord;
use crate::version::{prune_chain, reconstruct, ChainEntry, CommitResolver, Visibility};
use acc_common::{Error, PageNo, ResourceId, Result, Slot, TxnId};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::{Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard};

/// Slot allocator: LIFO free list plus the slot → primary-key map. The LIFO
/// discipline and the gap-filling rules are load-bearing — `peek / lock /
/// re-peek` insert protocols and WAL `Update` records both encode slot
/// numbers, so allocation order must stay byte-identical across refactors.
#[derive(Debug, Clone, Default)]
struct SlotAlloc {
    slot_key: Vec<Option<Key>>,
    free: Vec<Slot>,
}

impl SlotAlloc {
    fn peek(&self) -> Slot {
        self.free
            .last()
            .copied()
            .unwrap_or(self.slot_key.len() as Slot)
    }

    fn take(&mut self, key: &Key) -> Slot {
        match self.free.pop() {
            Some(s) => {
                self.slot_key[s as usize] = Some(key.clone());
                s
            }
            None => {
                self.slot_key.push(Some(key.clone()));
                (self.slot_key.len() - 1) as Slot
            }
        }
    }

    fn release(&mut self, slot: Slot) {
        self.slot_key[slot as usize] = None;
        self.free.push(slot);
    }

    fn key_of(&self, slot: Slot) -> Option<Key> {
        self.slot_key.get(slot as usize).cloned().flatten()
    }
}

/// Outcome of a combined versioned update ([`Table::update_versioned`]).
pub enum VersionedUpdate {
    /// Row mutated and pending version pushed atomically under one leaf
    /// latch.
    Applied {
        /// Undo record for the step's undo stack.
        undo: UndoRecord,
        /// The row image after the update (for the WAL record).
        after: Row,
    },
    /// The slot no longer holds that key (the row moved while the caller
    /// waited for its lock) — re-resolve and retry.
    Retry,
}

fn mlock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One heap table.
pub struct Table {
    schema: TableSchema,
    /// The paged primary tree: rows, tombstones, and version chains, all
    /// keyed by primary key.
    tree: BTree,
    alloc: Mutex<SlotAlloc>,
    secondary: Vec<RwLock<BTreeMap<Key, BTreeSet<Slot>>>>,
    /// Writer/reader gate for the secondary version fast path, used only
    /// when the table has secondary indices. Mutators hold the *read* side
    /// (they stay concurrent with each other — row-disjointness comes from
    /// the logical lock protocol); [`Table::lookup_secondary_at`] takes the
    /// *write* side, freezing mutators for the duration of the fast-path
    /// read so the index range + chain precheck see one consistent state.
    sec_gate: RwLock<()>,
    /// Keys with (possibly) live version chains: the worklist for prune
    /// and the precheck set for the secondary fast path. Mutated only
    /// *after* the corresponding tree write (never while a leaf latch is
    /// held); prune holds this mutex across its per-key tree ops so
    /// emptiness checks and set removal stay atomic.
    chained: Mutex<BTreeSet<Key>>,
    /// Per-transaction chained keys: the finalize worklist, so commit and
    /// abort walk only the finishing transaction's own write set rather
    /// than every in-flight chain in the table. Drained by
    /// [`Table::finalize_versions`]; a transaction whose commit dies on a
    /// sticky device failure leaves its entry behind, alongside its
    /// forever-pending chain entries (bounded by the failure being
    /// terminal).
    txn_chained: Mutex<BTreeMap<TxnId, BTreeSet<Key>>>,
    live: AtomicUsize,
}

impl Table {
    /// An empty table with the given schema.
    pub fn new(schema: TableSchema) -> Self {
        let secondary = schema
            .secondary
            .iter()
            .map(|_| RwLock::new(BTreeMap::new()))
            .collect();
        let tree = BTree::new(schema.rows_per_page);
        Table {
            schema,
            tree,
            alloc: Mutex::new(SlotAlloc::default()),
            secondary,
            sec_gate: RwLock::new(()),
            chained: Mutex::new(BTreeSet::new()),
            txn_chained: Mutex::new(BTreeMap::new()),
            live: AtomicUsize::new(0),
        }
    }

    /// The table's schema.
    pub fn schema(&self) -> &TableSchema {
        &self.schema
    }

    /// Live row count.
    pub fn len(&self) -> usize {
        self.live.load(Relaxed)
    }

    /// True if the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The *logical* page a slot lives on (lock-manager granularity; not a
    /// pager page).
    pub fn page_of(&self, slot: Slot) -> PageNo {
        (slot / self.schema.rows_per_page as Slot) as PageNo
    }

    /// The page-granularity lock resource covering `slot`.
    pub fn page_resource(&self, slot: Slot) -> ResourceId {
        ResourceId::Page(self.schema.id, self.page_of(slot))
    }

    /// This table's pager counters (page latch traffic, splits, merges,
    /// restarts).
    pub fn pager_counters(&self) -> PagerCounters {
        self.tree.counters()
    }

    /// The slot the next [`Table::insert`] will use (assuming no intervening
    /// mutation). Callers that must lock the target page *before* inserting
    /// peek, lock, then re-peek to confirm.
    pub fn peek_next_slot(&self) -> Slot {
        mlock(&self.alloc).peek()
    }

    /// The primary key stored in `slot`, if live.
    pub fn key_of_slot(&self, slot: Slot) -> Option<Key> {
        mlock(&self.alloc).key_of(slot)
    }

    /// Mutators on a table with secondary indices hold the shared side of
    /// the gate (see the field docs).
    fn writer_gate(&self) -> Option<RwLockReadGuard<'_, ()>> {
        if self.secondary.is_empty() {
            None
        } else {
            Some(self.sec_gate.read().unwrap_or_else(PoisonError::into_inner))
        }
    }

    fn dup_err(&self, key: &Key) -> Error {
        Error::DuplicateKey(format!("{}{key}", self.schema.name))
    }

    /// True if `key` currently has a live row.
    fn key_live(&self, key: &Key) -> bool {
        self.tree
            .read_entry(key, |e| e.is_some_and(|e| e.row.is_some()))
    }

    /// Insert a row. Returns the slot it went into and the undo record.
    pub fn insert(&self, row: Row) -> Result<(Slot, UndoRecord)> {
        self.schema.check(&row)?;
        let key = self.schema.key_of(&row);
        let _gate = self.writer_gate();
        // Duplicate check before allocating, so a rejected insert leaves the
        // free list untouched (allocation order is durability-visible).
        // Single-writer-per-key comes from the logical lock protocol; the
        // upsert below re-checks under the leaf latch as the authority.
        if self.key_live(&key) {
            return Err(self.dup_err(&key));
        }
        let slot = mlock(&self.alloc).take(&key);
        self.insert_entry(slot, key, row)?;
        Ok((
            slot,
            UndoRecord::Insert {
                table: self.schema.id,
                slot,
            },
        ))
    }

    /// Plant `row` at `slot` in the tree (reviving a tombstone's chain if
    /// the key died before), then maintain the secondary indices and the
    /// live count. The allocator must already map `slot` to the row's key.
    fn insert_entry(&self, slot: Slot, key: Key, row: Row) -> Result<()> {
        let projs = self.projections(&row);
        let planted = self.tree.upsert(&key, |entries, idx, exists| {
            if exists {
                let e = &mut entries[idx];
                if e.row.is_some() {
                    return false;
                }
                // Tombstone revival: the key's pre-delete history stays on
                // the entry; the new incarnation adopts the new slot.
                e.slot = slot;
                e.row = Some(row);
            } else {
                entries.insert(
                    idx,
                    LeafEntry {
                        key: key.clone(),
                        slot,
                        row: Some(row),
                        chain: Vec::new(),
                    },
                );
            }
            true
        });
        if !planted {
            // Lost a (protocol-violating) race to another inserter: undo the
            // allocation and report the duplicate.
            mlock(&self.alloc).release(slot);
            return Err(self.dup_err(&key));
        }
        self.secondary_insert(slot, &projs);
        self.live.fetch_add(1, Relaxed);
        Ok(())
    }

    /// The slot holding `key`, if present.
    pub fn slot_of(&self, key: &Key) -> Option<Slot> {
        self.tree
            .read_entry(key, |e| e.filter(|e| e.row.is_some()).map(|e| e.slot))
    }

    /// The row in `slot`, if live.
    pub fn row(&self, slot: Slot) -> Option<Row> {
        let key = self.key_of_slot(slot)?;
        self.tree
            .read_entry(&key, |e| e.and_then(|e| e.row.clone()))
    }

    /// The row with the given primary key.
    pub fn get(&self, key: &Key) -> Option<(Slot, Row)> {
        self.tree
            .read_entry(key, |e| e.and_then(|e| Some((e.slot, e.row.clone()?))))
    }

    /// Replace the row in `slot` wholesale. The new row may change the
    /// primary key (rejected if the new key already exists elsewhere).
    pub fn update(&self, slot: Slot, new: Row) -> Result<UndoRecord> {
        self.schema.check(&new)?;
        let old_key = self
            .key_of_slot(slot)
            .ok_or_else(|| Error::NotFound(format!("{} slot {slot}", self.schema.name)))?;
        let new_key = self.schema.key_of(&new);
        let _gate = self.writer_gate();
        let before = if new_key == old_key {
            let new_img = new.clone();
            self.tree.with_entry(&old_key, move |e| match e {
                Some(e) if e.slot == slot && e.row.is_some() => {
                    Ok(e.row.replace(new_img).expect("checked live"))
                }
                _ => Err(Error::NotFound(format!("{} slot {slot}", self.schema.name))),
            })?
        } else {
            if self.key_live(&new_key) {
                return Err(self.dup_err(&new_key));
            }
            // Key-changing update (tests only; TPC-C never moves a key):
            // the old key's entry disappears entirely — its chain follows
            // the *slot* to the new key, spliced behind the new key's
            // revived tombstone history, exactly like the old flat layout.
            // Readers of either key will see a key-mismatched chain and
            // taint, which is the intended fallback signal.
            let (before, moved_chain) = self.tree.remove_if(&old_key, |e| match e {
                Some(e) if e.slot == slot && e.row.is_some() => {
                    let b = e.row.take().expect("checked live");
                    let c = std::mem::take(&mut e.chain);
                    (Ok((b, c)), true)
                }
                _ => (
                    Err(Error::NotFound(format!("{} slot {slot}", self.schema.name))),
                    false,
                ),
            })?;
            let new_img = new.clone();
            let nk = new_key.clone();
            let has_chain = self.tree.upsert(&new_key, move |entries, idx, exists| {
                if exists {
                    let e = &mut entries[idx];
                    e.slot = slot;
                    e.row = Some(new_img);
                    e.chain.extend(moved_chain);
                    !e.chain.is_empty()
                } else {
                    let has = !moved_chain.is_empty();
                    entries.insert(
                        idx,
                        LeafEntry {
                            key: nk,
                            slot,
                            row: Some(new_img),
                            chain: moved_chain,
                        },
                    );
                    has
                }
            });
            mlock(&self.alloc).slot_key[slot as usize] = Some(new_key.clone());
            let mut chained = mlock(&self.chained);
            chained.remove(&old_key);
            if has_chain {
                chained.insert(new_key);
            }
            before
        };
        self.secondary_remove(slot, &self.projections(&before));
        self.secondary_insert(slot, &self.projections(&new));
        Ok(UndoRecord::Update {
            table: self.schema.id,
            slot,
            before,
        })
    }

    /// Update the row in `slot` in place via a closure.
    pub fn update_with(&self, slot: Slot, f: impl FnOnce(&mut Row)) -> Result<UndoRecord> {
        let mut new = self
            .row(slot)
            .ok_or_else(|| Error::NotFound(format!("{} slot {slot}", self.schema.name)))?;
        f(&mut new);
        self.update(slot, new)
    }

    /// Delete the row in `slot`. The entry stays behind as a tombstone if
    /// it still carries version history; otherwise it is removed (with a
    /// rebalancing descent).
    pub fn delete(&self, slot: Slot) -> Result<UndoRecord> {
        let key = self
            .key_of_slot(slot)
            .ok_or_else(|| Error::NotFound(format!("{} slot {slot}", self.schema.name)))?;
        let _gate = self.writer_gate();
        let before = self.tree.remove_if(&key, |e| match e {
            Some(e) if e.slot == slot && e.row.is_some() => {
                let b = e.row.take().expect("checked live");
                let gone = e.chain.is_empty();
                (Ok(b), gone)
            }
            _ => (
                Err(Error::NotFound(format!("{} slot {slot}", self.schema.name))),
                false,
            ),
        })?;
        mlock(&self.alloc).release(slot);
        self.secondary_remove(slot, &self.projections(&before));
        self.live.fetch_sub(1, Relaxed);
        Ok(UndoRecord::Delete {
            table: self.schema.id,
            slot,
            before,
        })
    }

    /// Delete by primary key.
    pub fn delete_by_key(&self, key: &Key) -> Result<(Slot, UndoRecord)> {
        let slot = self
            .slot_of(key)
            .ok_or_else(|| Error::NotFound(format!("{}{key}", self.schema.name)))?;
        Ok((slot, self.delete(slot)?))
    }

    /// All live rows in primary-key order. Collected under short leaf read
    /// latches, then handed back as an owned iterator.
    pub fn iter(&self) -> impl Iterator<Item = (Slot, Row)> {
        self.tree
            .scan_collect(
                &Key(Vec::new()),
                |_| true,
                |e| Some((e.slot, e.row.clone()?)),
                usize::MAX,
            )
            .into_iter()
    }

    /// Live rows satisfying `pred`, in primary-key order.
    pub fn scan(&self, pred: &Predicate) -> impl Iterator<Item = (Slot, Row)> {
        self.tree
            .scan_collect(
                &Key(Vec::new()),
                |_| true,
                |e| {
                    let r = e.row.as_ref()?;
                    if pred.eval(r) {
                        Some((e.slot, r.clone()))
                    } else {
                        None
                    }
                },
                usize::MAX,
            )
            .into_iter()
    }

    /// Rows whose primary key begins with `prefix`, in key order.
    ///
    /// Lexicographic key ordering makes the matching keys a contiguous tree
    /// range starting at `prefix` itself.
    pub fn scan_prefix(&self, prefix: &Key) -> impl Iterator<Item = (Slot, Row)> {
        self.tree
            .scan_collect(
                prefix,
                |k| k.starts_with(prefix),
                |e| Some((e.slot, e.row.clone()?)),
                usize::MAX,
            )
            .into_iter()
    }

    /// The first live row whose primary key begins with `prefix` — an
    /// early-terminating descent (the tree analogue of
    /// `scan_prefix(..).next()`, without walking the rest of the range).
    pub fn first_in_prefix(&self, prefix: &Key) -> Option<(Slot, Row)> {
        self.tree
            .scan_collect(
                prefix,
                |k| k.starts_with(prefix),
                |e| Some((e.slot, e.row.clone()?)),
                1,
            )
            .pop()
    }

    /// Live rows with primary key in `[lo, hi)`, in key order — one range
    /// descent instead of per-prefix rescans.
    pub fn scan_range(&self, lo: &Key, hi: &Key) -> Vec<(Slot, Row)> {
        self.tree.scan_collect(
            lo,
            |k| k < hi,
            |e| Some((e.slot, e.row.clone()?)),
            usize::MAX,
        )
    }

    /// Slots whose secondary index `idx` key begins with `prefix`, in key
    /// order.
    pub fn lookup_secondary(&self, idx: usize, prefix: &Key) -> Vec<Slot> {
        self.secondary[idx]
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .range(prefix.clone()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .flat_map(|(_, slots)| slots.iter().copied())
            .collect()
    }

    /// Apply an undo record produced by this table.
    pub fn apply_undo(&self, undo: &UndoRecord) -> Result<()> {
        debug_assert_eq!(undo.table(), self.schema.id);
        match undo {
            UndoRecord::Insert { slot, .. } => {
                // `delete` leaves the entry behind as a tombstone when it
                // carries a chain, which is exactly where the key's
                // pre-revival history (plus the now-moot insert entry) must
                // live for version readers.
                self.delete(*slot)?;
            }
            UndoRecord::Update { slot, before, .. } => {
                self.update(*slot, before.clone())?;
            }
            UndoRecord::Delete { slot, before, .. } => {
                // `insert_at` revives the key onto the same slot; the
                // tombstone's chain stays on the entry, which is the
                // inverse of the move in `push_delete_version`.
                self.insert_at(*slot, before.clone())?;
            }
        }
        Ok(())
    }

    // ----- MVCC-lite version chains (see `crate::version`) ----------------

    /// Record `key` as (possibly) carrying a live chain, and as part of
    /// `txn`'s write set for finalize. Called after the tree write
    /// completes — never while a leaf latch is held.
    fn note_chained(&self, txn: TxnId, key: Key) {
        mlock(&self.txn_chained)
            .entry(txn)
            .or_default()
            .insert(key.clone());
        mlock(&self.chained).insert(key);
    }

    /// Record a pending version for a mutation of `slot`: `before` is the
    /// full row image prior to the write (`None` for an insert). Called by
    /// the transaction layer next to the mutation. (The combined
    /// `*_versioned` ops below do mutation + push under one leaf latch;
    /// this split variant remains for single-threaded callers and tests.)
    pub fn push_version(&self, slot: Slot, txn: TxnId, before: Option<Row>) {
        let key = self
            .key_of_slot(slot)
            .expect("push_version targets a live slot");
        self.tree.with_entry(&key, |e| {
            e.expect("live slot has an entry")
                .chain
                .push(ChainEntry::Pending { txn, before });
        });
        self.note_chained(txn, key);
    }

    /// Record a pending version for a *delete* of `key` at `slot`, after
    /// the physical delete already ran. The entry (recreated if the
    /// physical delete removed it) becomes a tombstone carrying the delete
    /// entry on top of the key's surviving history.
    pub fn push_delete_version(&self, key: Key, slot: Slot, txn: TxnId, before: Row) {
        self.tree.upsert(&key, |entries, idx, exists| {
            let entry = ChainEntry::Pending {
                txn,
                before: Some(before),
            };
            if exists {
                let e = &mut entries[idx];
                debug_assert!(e.row.is_none(), "delete version on a live row");
                e.chain.push(entry);
            } else {
                entries.insert(
                    idx,
                    LeafEntry {
                        key: key.clone(),
                        slot,
                        row: None,
                        chain: vec![entry],
                    },
                );
            }
        });
        self.note_chained(txn, key);
    }

    // ----- Combined versioned mutators (one leaf latch) -------------------
    //
    // The transaction layer needs "mutate row + push pending version" to be
    // atomic with respect to coordination-free version readers — the old
    // whole-table stripe lock provided that for free; here the pair runs
    // under a single leaf write latch.

    /// Versioned insert: verify the allocator still predicts
    /// `expected_slot` (the peek/lock/re-peek protocol), allocate it, plant
    /// the row, and push the pending insert version — the plant and the
    /// push under one leaf latch. `Ok(None)` means the predicted slot moved
    /// while the caller waited for its lock: re-peek and retry.
    pub fn insert_versioned(
        &self,
        row: Row,
        txn: TxnId,
        expected_slot: Slot,
    ) -> Result<Option<(Slot, Key, UndoRecord)>> {
        self.schema.check(&row)?;
        let key = self.schema.key_of(&row);
        let _gate = self.writer_gate();
        if self.key_live(&key) {
            return Err(self.dup_err(&key));
        }
        let slot = {
            let mut a = mlock(&self.alloc);
            if a.peek() != expected_slot {
                return Ok(None);
            }
            a.take(&key)
        };
        let projs = self.projections(&row);
        let planted = self.tree.upsert(&key, |entries, idx, exists| {
            if exists {
                let e = &mut entries[idx];
                if e.row.is_some() {
                    return false;
                }
                e.slot = slot;
                e.row = Some(row);
                e.chain.push(ChainEntry::Pending { txn, before: None });
            } else {
                entries.insert(
                    idx,
                    LeafEntry {
                        key: key.clone(),
                        slot,
                        row: Some(row),
                        chain: vec![ChainEntry::Pending { txn, before: None }],
                    },
                );
            }
            true
        });
        if !planted {
            mlock(&self.alloc).release(slot);
            return Err(self.dup_err(&key));
        }
        self.secondary_insert(slot, &projs);
        self.live.fetch_add(1, Relaxed);
        self.note_chained(txn, key.clone());
        Ok(Some((
            slot,
            key,
            UndoRecord::Insert {
                table: self.schema.id,
                slot,
            },
        )))
    }

    /// Versioned in-place update of `key` (which the caller resolved to
    /// `expected_slot` before locking): apply `f` to the row and push the
    /// pending version under one leaf latch. Returns
    /// [`VersionedUpdate::Retry`] if the slot no longer holds that key.
    ///
    /// A key-changing `f` falls back to the split physical-update +
    /// push-version path (non-atomic, like the old layout); the resulting
    /// key-mismatched chain taints version readers, which is the intended
    /// signal.
    pub fn update_versioned(
        &self,
        key: &Key,
        expected_slot: Slot,
        txn: TxnId,
        f: impl FnOnce(&mut Row),
    ) -> Result<VersionedUpdate> {
        let _gate = self.writer_gate();
        enum Inner {
            Applied { before: Row, after: Row },
            KeyChanged { before: Row, after: Row },
            Retry,
        }
        let out: Result<Inner> = self.tree.with_entry(key, |e| match e {
            Some(e) if e.slot == expected_slot && e.row.is_some() => {
                let before = e.row.clone().expect("checked live");
                let mut after = before.clone();
                f(&mut after);
                self.schema.check(&after)?;
                if self.schema.key_of(&after) != *key {
                    return Ok(Inner::KeyChanged { before, after });
                }
                e.row = Some(after.clone());
                e.chain.push(ChainEntry::Pending {
                    txn,
                    before: Some(before.clone()),
                });
                Ok(Inner::Applied { before, after })
            }
            _ => Ok(Inner::Retry),
        });
        match out? {
            Inner::Retry => Ok(VersionedUpdate::Retry),
            Inner::Applied { before, after } => {
                self.secondary_remove(expected_slot, &self.projections(&before));
                self.secondary_insert(expected_slot, &self.projections(&after));
                self.note_chained(txn, key.clone());
                Ok(VersionedUpdate::Applied {
                    undo: UndoRecord::Update {
                        table: self.schema.id,
                        slot: expected_slot,
                        before,
                    },
                    after,
                })
            }
            Inner::KeyChanged { before, after } => {
                drop(_gate);
                let undo = self.update(expected_slot, after.clone())?;
                self.push_version(expected_slot, txn, Some(before));
                Ok(VersionedUpdate::Applied { undo, after })
            }
        }
    }

    /// Versioned delete of `key` at `expected_slot`: take the row and push
    /// the pending delete version under one leaf latch (the entry stays as
    /// a tombstone). `Ok(None)` means the slot no longer holds that key —
    /// re-resolve and retry.
    pub fn delete_versioned(
        &self,
        key: &Key,
        expected_slot: Slot,
        txn: TxnId,
    ) -> Result<Option<(UndoRecord, Row)>> {
        let _gate = self.writer_gate();
        let taken = self.tree.with_entry(key, |e| match e {
            Some(e) if e.slot == expected_slot && e.row.is_some() => {
                let before = e.row.take().expect("checked live");
                e.chain.push(ChainEntry::Pending {
                    txn,
                    before: Some(before.clone()),
                });
                Some(before)
            }
            _ => None,
        });
        let Some(before) = taken else {
            return Ok(None);
        };
        mlock(&self.alloc).release(expected_slot);
        self.secondary_remove(expected_slot, &self.projections(&before));
        self.live.fetch_sub(1, Relaxed);
        self.note_chained(txn, key.clone());
        Ok(Some((
            UndoRecord::Delete {
                table: self.schema.id,
                slot: expected_slot,
                before: before.clone(),
            },
            before,
        )))
    }

    /// Finalize every pending entry of `txn` in this table at `commit_lsn`
    /// (the `Commit` record's LSN, or the `Abort` record's on rollback).
    /// Walks (and drains) the transaction's own chained-key write set — a
    /// writer's keys are always in it by the time its commit runs, and
    /// only its own keys can hold its `Pending` entries, so commit cost
    /// scales with the write set rather than with every in-flight chain in
    /// the table. Returns the number of entries finalized.
    pub fn finalize_versions(&self, txn: TxnId, commit_lsn: u64) -> usize {
        let keys = mlock(&self.txn_chained).remove(&txn).unwrap_or_default();
        let mut n = 0;
        for key in keys {
            n += self.tree.with_entry(&key, |e| {
                let Some(e) = e else { return 0 };
                let mut k = 0;
                for entry in e.chain.iter_mut() {
                    if matches!(entry, ChainEntry::Pending { txn: t, .. } if *t == txn) {
                        let before = entry.before().cloned();
                        *entry = ChainEntry::Committed { commit_lsn, before };
                        k += 1;
                    }
                }
                k
            });
        }
        n
    }

    /// Prune chains against the low-watermark (see [`crate::version`]):
    /// drop all-visible prefixes, empty chains, and tombstone entries whose
    /// whole history fell below the watermark. Holds the chained-set mutex
    /// across each per-key tree op so emptiness and set membership stay in
    /// step with concurrent pushes.
    pub fn prune_versions(&self, watermark: u64) {
        let _gate = self.writer_gate();
        let mut chained = mlock(&self.chained);
        chained.retain(|key| {
            self.tree.remove_if(key, |e| match e {
                None => (false, false),
                Some(e) => {
                    let emptied = prune_chain(&mut e.chain, watermark);
                    if emptied && e.row.is_none() {
                        // Settled tombstone: nothing left to reconstruct.
                        (false, true)
                    } else {
                        (!e.chain.is_empty(), false)
                    }
                }
            })
        });
    }

    /// Number of live version chains; test/diagnostic helper.
    pub fn n_version_chains(&self) -> usize {
        mlock(&self.chained)
            .iter()
            .filter(|k| {
                self.tree
                    .read_entry(k, |e| e.is_some_and(|e| !e.chain.is_empty()))
            })
            .count()
    }

    /// True if any image in `chain` (or `current`) carries a primary key
    /// other than `key` — a key-changing update went through this slot, so
    /// the chain no longer describes one row's history and version reads
    /// must fall back.
    fn chain_key_mismatch(&self, key: &Key, current: Option<&Row>, chain: &[ChainEntry]) -> bool {
        current
            .into_iter()
            .chain(chain.iter().filter_map(|e| e.before()))
            .any(|r| self.schema.key_of(r) != *key)
    }

    /// The row image with primary key `key` as visible at `view`
    /// (coordination-free point read: one optimistic descent, entry state
    /// cloned under the leaf's read latch). `commits` resolves Pending
    /// entries of transactions whose commit record is already appended (see
    /// [`CommitResolver`]).
    pub fn read_at(
        &self,
        key: &Key,
        view: u64,
        reader: TxnId,
        commits: &dyn CommitResolver,
    ) -> Visibility {
        let found = self
            .tree
            .read_entry(key, |e| e.map(|e| (e.row.clone(), e.chain.clone())));
        match found {
            None => Visibility::Visible(None),
            Some((current, chain)) => {
                if self.chain_key_mismatch(key, current.as_ref(), &chain) {
                    return Visibility::Tainted;
                }
                reconstruct(current.as_ref(), &chain, view, reader, commits)
            }
        }
    }

    /// All row images whose primary key begins with `prefix`, as visible at
    /// `view`, in key order. `None` means some row could not be soundly
    /// reconstructed — fall back to a locked scan. Tombstone entries sit
    /// inline in the tree, so one range scan covers live and deleted keys.
    pub fn scan_prefix_at(
        &self,
        prefix: &Key,
        view: u64,
        reader: TxnId,
        commits: &dyn CommitResolver,
    ) -> Option<Vec<Row>> {
        self.reconstruct_collected(
            self.tree.scan_collect(
                prefix,
                |k| k.starts_with(prefix),
                |e| Some((e.key.clone(), e.row.clone(), e.chain.clone())),
                usize::MAX,
            ),
            view,
            reader,
            commits,
        )
    }

    /// All row images with primary key in `[lo, hi)`, as visible at `view`,
    /// in key order. `None` means fall back to a locked scan.
    pub fn scan_range_at(
        &self,
        lo: &Key,
        hi: &Key,
        view: u64,
        reader: TxnId,
        commits: &dyn CommitResolver,
    ) -> Option<Vec<Row>> {
        self.reconstruct_collected(
            self.tree.scan_collect(
                lo,
                |k| k < hi,
                |e| Some((e.key.clone(), e.row.clone(), e.chain.clone())),
                usize::MAX,
            ),
            view,
            reader,
            commits,
        )
    }

    fn reconstruct_collected(
        &self,
        entries: Vec<(Key, Option<Row>, Vec<ChainEntry>)>,
        view: u64,
        reader: TxnId,
        commits: &dyn CommitResolver,
    ) -> Option<Vec<Row>> {
        let mut out = Vec::new();
        for (k, current, chain) in &entries {
            if self.chain_key_mismatch(k, current.as_ref(), chain) {
                return None;
            }
            match reconstruct(current.as_ref(), chain, view, reader, commits) {
                Visibility::Tainted => return None,
                Visibility::Visible(Some(r)) => out.push(r),
                Visibility::Visible(None) => {}
            }
        }
        Some(out)
    }

    /// All row images whose secondary index `idx` key begins with `prefix`,
    /// as visible at `view`, ordered by (secondary key, primary key).
    /// `None` means fall back to a locked lookup.
    ///
    /// The secondary index describes *current* rows only, so this is sound
    /// only while no live chain changes a row's secondary projection — we
    /// verify that over the (small, pruned) chained-key set and fall back
    /// if any projection moved. The exclusive side of the writer gate
    /// freezes mutators and prune for the duration, so the precheck, the
    /// index range, and the chain walks see one consistent state.
    pub fn lookup_secondary_at(
        &self,
        idx: usize,
        prefix: &Key,
        view: u64,
        reader: TxnId,
        commits: &dyn CommitResolver,
    ) -> Option<Vec<Row>> {
        let cols = &self.schema.secondary[idx];
        let _gate = self
            .sec_gate
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        let chained: Vec<Key> = mlock(&self.chained).iter().cloned().collect();
        // If any live chained row's projection differs between images, the
        // index range below could miss a historically-matching row.
        // (Tombstones are exempt: the pass at the bottom scans them all, so
        // nothing can be missed.)
        for k in &chained {
            let stable = self.tree.read_entry(k, |e| {
                let Some(e) = e else { return true };
                let Some(current) = &e.row else { return true };
                let p = current.project(cols);
                e.chain
                    .iter()
                    .filter_map(|c| c.before())
                    .all(|r| r.project(cols) == p)
            });
            if !stable {
                return None;
            }
        }
        let mut out: BTreeMap<(Key, Key), Row> = BTreeMap::new();
        let hits: Vec<Slot> = self.secondary[idx]
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .range(prefix.clone()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .flat_map(|(_, slots)| slots.iter().copied())
            .collect();
        for slot in hits {
            let key = self
                .key_of_slot(slot)
                .expect("indexed slot holds a live row under the gate");
            let (current, chain) = self
                .tree
                .read_entry(&key, |e| e.map(|e| (e.row.clone(), e.chain.clone())))
                .expect("indexed key has an entry under the gate");
            match reconstruct(current.as_ref(), &chain, view, reader, commits) {
                Visibility::Tainted => return None,
                Visibility::Visible(Some(r)) => {
                    let sk = r.project(cols);
                    if sk.starts_with(prefix) {
                        let pk = self.schema.key_of(&r);
                        out.insert((sk, pk), r);
                    }
                }
                Visibility::Visible(None) => {}
            }
        }
        // Deleted keys may still be visible at an older view; their
        // tombstone entries are all in the chained set.
        for k in &chained {
            let Some((None, chain)) = self
                .tree
                .read_entry(k, |e| e.map(|e| (e.row.clone(), e.chain.clone())))
            else {
                continue;
            };
            match reconstruct(None, &chain, view, reader, commits) {
                Visibility::Tainted => return None,
                Visibility::Visible(Some(r)) => {
                    let sk = r.project(cols);
                    if sk.starts_with(prefix) {
                        let pk = self.schema.key_of(&r);
                        out.insert((sk, pk), r);
                    }
                }
                Visibility::Visible(None) => {}
            }
        }
        Some(out.into_values().collect())
    }

    /// Re-insert a row at a specific slot (undo of delete, and WAL redo).
    pub fn insert_at(&self, slot: Slot, row: Row) -> Result<()> {
        self.schema.check(&row)?;
        let key = self.schema.key_of(&row);
        let _gate = self.writer_gate();
        if self.key_live(&key) {
            return Err(self.dup_err(&key));
        }
        {
            let mut a = mlock(&self.alloc);
            let idx = slot as usize;
            if idx >= a.slot_key.len() {
                // Newly materialized empty slots (the gap below `slot`)
                // become reusable.
                for s in a.slot_key.len()..idx {
                    a.free.push(s as Slot);
                }
                a.slot_key.resize(idx + 1, None);
            }
            if a.slot_key[idx].is_some() {
                return Err(Error::Internal(format!(
                    "{} slot {slot} already occupied",
                    self.schema.name
                )));
            }
            a.free.retain(|&s| s != slot);
            a.slot_key[idx] = Some(key.clone());
        }
        self.insert_entry(slot, key, row)
    }

    fn projections(&self, row: &Row) -> Vec<Key> {
        self.schema
            .secondary
            .iter()
            .map(|cols| row.project(cols))
            .collect()
    }

    fn secondary_insert(&self, slot: Slot, projs: &[Key]) {
        for (i, k) in projs.iter().enumerate() {
            self.secondary[i]
                .write()
                .unwrap_or_else(PoisonError::into_inner)
                .entry(k.clone())
                .or_default()
                .insert(slot);
        }
    }

    fn secondary_remove(&self, slot: Slot, projs: &[Key]) {
        for (i, k) in projs.iter().enumerate() {
            let mut idx = self.secondary[i]
                .write()
                .unwrap_or_else(PoisonError::into_inner);
            if let Some(set) = idx.get_mut(k) {
                set.remove(&slot);
                if set.is_empty() {
                    idx.remove(k);
                }
            }
        }
    }
}

impl Clone for Table {
    /// Deep clone — walks the tree and rebuilds. Like the old stripe-held
    /// clone, this is only consistent at quiescent points (snapshots assert
    /// quiescence at the `SharedDb` layer).
    fn clone(&self) -> Table {
        let t = Table::new(self.schema.clone());
        *mlock(&t.alloc) = mlock(&self.alloc).clone();
        *mlock(&t.chained) = mlock(&self.chained).clone();
        let entries: Vec<LeafEntry> =
            self.tree
                .scan_collect(&Key(Vec::new()), |_| true, |e| Some(e.clone()), usize::MAX);
        let mut live = 0;
        for e in entries {
            if let Some(row) = &e.row {
                live += 1;
                t.secondary_insert(e.slot, &t.projections(row));
            }
            t.tree.upsert(&e.key.clone(), move |entries, idx, exists| {
                debug_assert!(!exists, "clone walks distinct keys");
                entries.insert(idx, e);
            });
        }
        t.live.store(live, Relaxed);
        t
    }
}

impl std::fmt::Debug for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Table")
            .field("name", &self.schema.name)
            .field("rows", &self.len())
            .field("chains", &self.n_version_chains())
            .field("pager", &self.pager_counters())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnType, TableSchema};
    use acc_common::{TableId, Value};

    fn table() -> Table {
        let mut schema = TableSchema::builder("orderlines")
            .column("order_id", ColumnType::Int)
            .column("item_id", ColumnType::Int)
            .column("qty", ColumnType::Int)
            .key(&["order_id", "item_id"])
            .index(&["item_id"])
            .rows_per_page(4)
            .build();
        schema.id = TableId(0);
        Table::new(schema)
    }

    fn row(o: i64, i: i64, q: i64) -> Row {
        Row::from(vec![Value::Int(o), Value::Int(i), Value::Int(q)])
    }

    #[test]
    fn insert_get_delete() {
        let t = table();
        let (slot, _) = t.insert(row(1, 10, 5)).unwrap();
        assert_eq!(t.len(), 1);
        let (s2, r) = t.get(&Key::ints(&[1, 10])).unwrap();
        assert_eq!(s2, slot);
        assert_eq!(r.int(2), 5);
        t.delete(slot).unwrap();
        assert!(t.get(&Key::ints(&[1, 10])).is_none());
        assert!(t.is_empty());
    }

    #[test]
    fn duplicate_key_rejected() {
        let t = table();
        t.insert(row(1, 10, 5)).unwrap();
        let err = t.insert(row(1, 10, 9)).unwrap_err();
        assert!(matches!(err, Error::DuplicateKey(_)));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn peek_next_slot_predicts_insert() {
        let t = table();
        assert_eq!(t.peek_next_slot(), 0);
        let (s0, _) = t.insert(row(1, 1, 1)).unwrap();
        assert_eq!(s0, 0);
        assert_eq!(t.peek_next_slot(), 1);
        t.delete(s0).unwrap();
        assert_eq!(t.peek_next_slot(), s0);
        let (s1, _) = t.insert(row(1, 2, 1)).unwrap();
        assert_eq!(s1, s0);
    }

    #[test]
    fn slots_are_reused() {
        let t = table();
        let (s0, _) = t.insert(row(1, 1, 1)).unwrap();
        t.insert(row(1, 2, 1)).unwrap();
        t.delete(s0).unwrap();
        let (s2, _) = t.insert(row(1, 3, 1)).unwrap();
        assert_eq!(s2, s0, "freed slot should be reused");
    }

    #[test]
    fn update_in_place() {
        let t = table();
        let (slot, _) = t.insert(row(1, 10, 5)).unwrap();
        let undo = t
            .update_with(slot, |r| {
                r.set(2, Value::Int(7));
            })
            .unwrap();
        assert_eq!(t.row(slot).unwrap().int(2), 7);
        t.apply_undo(&undo).unwrap();
        assert_eq!(t.row(slot).unwrap().int(2), 5);
    }

    #[test]
    fn update_changing_key_moves_index_entry() {
        let t = table();
        let (slot, _) = t.insert(row(1, 10, 5)).unwrap();
        t.update(slot, row(2, 20, 5)).unwrap();
        assert!(t.get(&Key::ints(&[1, 10])).is_none());
        assert_eq!(t.get(&Key::ints(&[2, 20])).unwrap().0, slot);
    }

    #[test]
    fn update_to_existing_key_rejected() {
        let t = table();
        let (s0, _) = t.insert(row(1, 10, 5)).unwrap();
        t.insert(row(2, 20, 5)).unwrap();
        assert!(matches!(
            t.update(s0, row(2, 20, 9)),
            Err(Error::DuplicateKey(_))
        ));
        // Original row untouched.
        assert_eq!(t.get(&Key::ints(&[1, 10])).unwrap().0, s0);
    }

    #[test]
    fn update_missing_slot_errors() {
        let t = table();
        assert!(matches!(t.update(5, row(1, 1, 1)), Err(Error::NotFound(_))));
        assert!(matches!(t.delete(5), Err(Error::NotFound(_))));
    }

    #[test]
    fn prefix_scan_is_ordered_and_bounded() {
        let t = table();
        for (o, i) in [(1, 3), (1, 1), (2, 1), (1, 2), (3, 1)] {
            t.insert(row(o, i, 0)).unwrap();
        }
        let items: Vec<i64> = t
            .scan_prefix(&Key::ints(&[1]))
            .map(|(_, r)| r.int(1))
            .collect();
        assert_eq!(items, vec![1, 2, 3]);
        assert_eq!(t.scan_prefix(&Key::ints(&[9])).count(), 0);
        assert_eq!(t.scan_prefix(&Key::ints(&[1, 2])).count(), 1);
    }

    #[test]
    fn predicate_scan() {
        let t = table();
        for i in 0..10 {
            t.insert(row(1, i, i % 3)).unwrap();
        }
        let p = Predicate::eq(2, 0i64);
        assert_eq!(t.scan(&p).count(), 4); // qty 0 for i = 0,3,6,9
    }

    #[test]
    fn first_in_prefix_early_terminates() {
        let t = table();
        for (o, i) in [(2, 9), (1, 7), (1, 3), (3, 1), (1, 5)] {
            t.insert(row(o, i, 0)).unwrap();
        }
        let (_, r) = t.first_in_prefix(&Key::ints(&[1])).unwrap();
        assert_eq!(r.int(1), 3, "lowest key in the prefix");
        assert!(t.first_in_prefix(&Key::ints(&[9])).is_none());
    }

    #[test]
    fn scan_range_is_half_open() {
        let t = table();
        for o in 0..10 {
            t.insert(row(o, 0, 0)).unwrap();
        }
        let got: Vec<i64> = t
            .scan_range(&Key::ints(&[3]), &Key::ints(&[7]))
            .into_iter()
            .map(|(_, r)| r.int(0))
            .collect();
        assert_eq!(got, vec![3, 4, 5, 6]);
    }

    #[test]
    fn secondary_index_lookup() {
        let t = table();
        t.insert(row(1, 10, 5)).unwrap();
        t.insert(row(2, 10, 6)).unwrap();
        t.insert(row(3, 11, 7)).unwrap();
        assert_eq!(t.lookup_secondary(0, &Key::ints(&[10])).len(), 2);
        assert_eq!(t.lookup_secondary(0, &Key::ints(&[11])).len(), 1);
        assert!(t.lookup_secondary(0, &Key::ints(&[12])).is_empty());
        // Deleting maintains the secondary index.
        let (slot, _) = t.get(&Key::ints(&[1, 10])).unwrap();
        t.delete(slot).unwrap();
        assert_eq!(t.lookup_secondary(0, &Key::ints(&[10])).len(), 1);
    }

    #[test]
    fn secondary_index_follows_updates() {
        let t = table();
        let (slot, _) = t.insert(row(1, 10, 5)).unwrap();
        // Changing item_id moves both the primary and the secondary entry.
        let undo = t
            .update_with(slot, |r| {
                r.set(1, Value::Int(99));
            })
            .unwrap();
        assert!(t.lookup_secondary(0, &Key::ints(&[10])).is_empty());
        assert_eq!(t.lookup_secondary(0, &Key::ints(&[99])), vec![slot]);
        t.apply_undo(&undo).unwrap();
        assert_eq!(t.lookup_secondary(0, &Key::ints(&[10])), vec![slot]);
        assert!(t.lookup_secondary(0, &Key::ints(&[99])).is_empty());
    }

    #[test]
    fn page_mapping() {
        let t = table(); // rows_per_page = 4
        assert_eq!(t.page_of(0), 0);
        assert_eq!(t.page_of(3), 0);
        assert_eq!(t.page_of(4), 1);
        assert_eq!(t.page_resource(5), ResourceId::Page(TableId(0), 1));
    }

    #[test]
    fn undo_delete_restores_same_slot() {
        let t = table();
        let (slot, _) = t.insert(row(1, 10, 5)).unwrap();
        t.insert(row(1, 11, 6)).unwrap();
        let undo = t.delete(slot).unwrap();
        t.apply_undo(&undo).unwrap();
        let (s2, r) = t.get(&Key::ints(&[1, 10])).unwrap();
        assert_eq!(s2, slot);
        assert_eq!(r.int(2), 5);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn undo_stack_reverses_step() {
        // Simulate a step that does insert + update + delete, then roll it
        // back in reverse order.
        let t = table();
        t.insert(row(1, 1, 1)).unwrap();
        let mut undos = Vec::new();
        let (s, u) = t.insert(row(2, 2, 2)).unwrap();
        undos.push(u);
        undos.push(
            t.update_with(s, |r| {
                r.set(2, Value::Int(9));
            })
            .unwrap(),
        );
        let (s1, _) = t.get(&Key::ints(&[1, 1])).unwrap();
        undos.push(t.delete(s1).unwrap());
        for u in undos.iter().rev() {
            t.apply_undo(u).unwrap();
        }
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(&Key::ints(&[1, 1])).unwrap().1.int(2), 1);
        assert!(t.get(&Key::ints(&[2, 2])).is_none());
    }

    #[test]
    fn insert_at_beyond_end_frees_gap_slots() {
        let t = table();
        t.insert_at(5, row(1, 1, 1)).unwrap();
        // Slots 0..5 became free; subsequent inserts reuse them.
        for i in 2..7 {
            let (s, _) = t.insert(row(1, i, 0)).unwrap();
            assert!(s < 5, "expected gap slot, got {s}");
        }
        // Gap exhausted: next insert extends the heap.
        let (s, _) = t.insert(row(1, 99, 0)).unwrap();
        assert_eq!(s, 6);
        // Occupied-slot collision is an error.
        assert!(t.insert_at(5, row(9, 9, 9)).is_err());
    }

    #[test]
    fn schema_violation_rejected() {
        let t = table();
        assert!(t.insert(Row::from(vec![Value::Int(1)])).is_err());
        assert!(t
            .insert(Row::from(vec![Value::Null, Value::Int(1), Value::Int(1)]))
            .is_err());
    }

    #[test]
    fn many_rows_split_pages_and_stay_ordered() {
        let t = table(); // rows_per_page = 4: leaves split early
        for o in (0..200).rev() {
            t.insert(row(o, 0, o)).unwrap();
        }
        assert!(t.pager_counters().splits > 0, "200 rows must split");
        let keys: Vec<i64> = t.iter().map(|(_, r)| r.int(0)).collect();
        assert_eq!(keys, (0..200).collect::<Vec<_>>());
        for o in 0..200 {
            assert_eq!(t.get(&Key::ints(&[o, 0])).unwrap().1.int(2), o);
        }
        // Deep clone preserves everything.
        let c = t.clone();
        assert_eq!(c.len(), 200);
        assert_eq!(
            c.iter().map(|(_, r)| r.int(0)).collect::<Vec<_>>(),
            (0..200).collect::<Vec<_>>()
        );
        assert_eq!(c.peek_next_slot(), t.peek_next_slot());
    }

    #[test]
    fn insert_versioned_checks_predicted_slot() {
        use acc_common::TxnId;
        let t = table();
        // Wrong prediction: no mutation, caller must retry.
        assert!(t
            .insert_versioned(row(1, 1, 1), TxnId(7), 3)
            .unwrap()
            .is_none());
        assert_eq!(t.len(), 0);
        let (slot, key, _) = t
            .insert_versioned(row(1, 1, 1), TxnId(7), 0)
            .unwrap()
            .expect("correct prediction");
        assert_eq!(slot, 0);
        assert_eq!(key, Key::ints(&[1, 1]));
        assert_eq!(t.n_version_chains(), 1);
        t.finalize_versions(TxnId(7), 5);
        t.prune_versions(10);
        assert_eq!(t.n_version_chains(), 0);
    }

    #[test]
    fn concurrent_writers_same_table_hit_different_pages() {
        // Two writers inserting disjoint keys into ONE table through `&Table`:
        // they contend only on individual leaf latches.
        let t = std::sync::Arc::new(table());
        let handles: Vec<_> = (0..2i64)
            .map(|w| {
                let t = std::sync::Arc::clone(&t);
                std::thread::spawn(move || {
                    for k in 0..200 {
                        t.insert(row(w * 1000 + k, 0, 0)).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(t.len(), 400);
        assert_eq!(t.clone().len(), 400);
        assert!(t.pager_counters().page_writes > 0);
    }

    #[test]
    fn panicking_closure_leaves_table_usable() {
        // `update_versioned` runs its closure under the writer gate and a
        // leaf latch. Latches recover poison internally, so a closure that
        // panics there leaves the table fully usable afterwards.
        use acc_common::TxnId;
        let t = table();
        let (slot, _) = t.insert(row(1, 10, 5)).unwrap();
        let key = Key::ints(&[1, 10]);
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            t.update_versioned(&key, slot, TxnId(1), |_| panic!("boom"))
        }));
        assert!(panicked.is_err());
        t.insert(row(2, 20, 6)).unwrap();
        assert!(matches!(
            t.update_versioned(&key, slot, TxnId(1), |r| {
                r.set(2, Value::Int(7));
            })
            .unwrap(),
            VersionedUpdate::Applied { .. }
        ));
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(&key).unwrap().1.int(2), 7);
        assert_eq!(t.clone().len(), 2);
    }
}
