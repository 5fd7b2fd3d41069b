//! Model-based randomized tests for the MVCC-lite visibility rule
//! (`crate::version`): under random interleavings of versioned transactions,
//! a coordination-free read at view `L` must equal the committed state after
//! replaying exactly the commits with LSN <= L — and pruning at a low
//! watermark must never change any read at or after it.
//!
//! The harness mirrors what the transaction layer does (`step.rs` /
//! `runner.rs`): write through the versioned mutators `StepCtx` runs
//! (`insert_versioned`, `update_versioned`, `delete_versioned`), each of
//! which pushes its pending version under the write's leaf latch, then
//! rewrite the keys the transaction wrote at the commit (or abort) LSN with
//! the collector's visit (`Table::collect_versions`), through the hints the
//! writes left. Aborts apply physical undo first, exactly like the live
//! rollback path. A key-level lock map stands in for the lock manager so two
//! live transactions never write the same row.
//!
//! Commits randomly defer their rewrite behind a published commit LSN (the
//! state a commit is in from its `Commit` append until the collector visits
//! it): reads through the publication resolver must be indistinguishable
//! from reads over rewritten chains. The rewrites use watermark 0, which
//! trims nothing (every LSN here is positive), so every view stays
//! readable; trimming is exercised by revisiting every collected write at a
//! random watermark at the end of each case.

use acc_common::{SeededRng, Slot, TableId, TxnId, Value};
use acc_storage::{
    ColumnType, CommitResolver, Key, LeafHint, NoCommits, Row, Table, TableSchema, UndoRecord,
    VersionedUpdate, Visibility,
};
use std::collections::HashMap;

fn schema() -> TableSchema {
    let mut s = TableSchema::builder("t")
        .column("k", ColumnType::Int)
        .column("a", ColumnType::Int)
        .column("b", ColumnType::Int)
        .key(&["k"])
        .index(&["a"])
        .rows_per_page(3)
        .build();
    s.id = TableId(0);
    s
}

fn row(k: i64, a: i64, b: i64) -> Row {
    Row(vec![Value::Int(k), Value::Int(a), Value::Int(b)])
}

/// `StepCtx::insert`'s single-threaded case: the predicted slot is current.
fn insert(t: &Table, row: Row, txn: TxnId) -> (Slot, UndoRecord, LeafHint) {
    let (slot, _, undo, hint) = t
        .insert_versioned(row, txn, t.peek_next_slot())
        .expect("insert of absent key")
        .expect("single-threaded prediction holds");
    (slot, undo, hint)
}

/// A transaction's write set: each key it wrote, with the hint of its
/// latest write there.
type Written = Vec<(Key, LeafHint)>;

/// The collector's visit to `txn`'s writes at `end_lsn`, trimming against
/// `watermark`; returns the number of entries rewritten.
fn collect(t: &Table, txn: TxnId, end_lsn: u64, watermark: u64, written: &Written) -> usize {
    t.collect_versions(txn, end_lsn, watermark, written.iter().map(|(k, h)| (k, h)))
}

const KEYS: i64 = 10;
/// A fresh reader id no writer ever uses.
const READER: TxnId = TxnId(999_999);

/// Committed state: key -> (a, b).
type Model = HashMap<i64, (i64, i64)>;

/// The model state visible at `view`: the last snapshot with LSN <= view.
fn model_at(snapshots: &[(u64, Model)], view: u64) -> &Model {
    &snapshots
        .iter()
        .rev()
        .find(|(lsn, _)| *lsn <= view)
        .expect("snapshot 0 always present")
        .1
}

/// One live transaction and everything needed to finish it.
struct Active {
    id: TxnId,
    will_abort: bool,
    /// Own writes: key -> Some(new value) or None (deleted).
    overlay: HashMap<i64, Option<(i64, i64)>>,
    /// The hint each own write left, latest per key.
    hints: HashMap<i64, LeafHint>,
    undos: Vec<UndoRecord>,
    /// A commit leaves its rewrite to `Deferred::retire`.
    defer: bool,
}

/// Finished transactions: commits whose chains are still Pending behind a
/// published LSN (the state before the collector visits them), with the
/// keys each one wrote, and every transaction the collector has visited.
#[derive(Default)]
struct Deferred {
    published: HashMap<TxnId, u64>,
    written: HashMap<TxnId, Written>,
    collected: Vec<(TxnId, u64, Written)>,
}

impl Deferred {
    /// Rewrite `txn`'s chains at `lsn`, trimming nothing, and log it.
    fn collect(&mut self, t: &Table, txn: TxnId, lsn: u64, written: Written) {
        collect(t, txn, lsn, 0, &written);
        self.collected.push((txn, lsn, written));
    }

    /// Rewrite `id`'s chains at its published LSN and retire it.
    fn retire(&mut self, t: &Table, id: TxnId) {
        let lsn = self.published.remove(&id).expect("published commit");
        let written = self.written.remove(&id).expect("write set");
        self.collect(t, id, lsn, written);
    }

    /// Revisit every collected write with watermark `w`: the trim the
    /// collector makes once the watermark has passed them all.
    fn trim(&self, t: &Table, w: u64) {
        for (txn, lsn, written) in &self.collected {
            assert_eq!(collect(t, *txn, *lsn, w, written), 0, "already rewritten");
        }
    }
}

impl Active {
    /// The transaction's write set: every key it wrote, with its hint.
    fn written(&self) -> Written {
        self.hints
            .iter()
            .map(|(&k, &h)| (Key::ints(&[k]), h))
            .collect()
    }

    /// Apply one random op through the versioned mutators. Keys locked by
    /// another live transaction are skipped.
    fn apply_random_op(
        &mut self,
        t: &Table,
        committed: &Model,
        locks: &mut HashMap<i64, TxnId>,
        rng: &mut SeededRng,
    ) {
        let k = rng.int_range(0, KEYS - 1);
        if locks.get(&k).is_some_and(|&owner| owner != self.id) {
            return;
        }
        let key = Key::ints(&[k]);
        let current = match self.overlay.get(&k) {
            Some(v) => *v,
            None => committed.get(&k).copied(),
        };
        match rng.index(3) {
            0 => {
                // Insert (possibly reviving a deleted key).
                if current.is_some() {
                    return;
                }
                let (a, b) = (rng.int_range(0, 2), rng.int_range(0, 99));
                let (_, undo, hint) = insert(t, row(k, a, b), self.id);
                self.hints.insert(k, hint);
                self.undos.push(undo);
                self.overlay.insert(k, Some((a, b)));
                locks.insert(k, self.id);
            }
            1 => {
                // Update b in place.
                let Some((a, _)) = current else { return };
                let (slot, hint) = t.locate(&key).expect("model row is live");
                let b = rng.int_range(0, 99);
                let updated = t.update_versioned(&key, slot, hint, self.id, |r| {
                    r.set(2, Value::Int(b));
                });
                let Ok(VersionedUpdate::Applied { undo, hint, .. }) = updated else {
                    panic!("update of a live slot");
                };
                self.hints.insert(k, hint);
                self.undos.push(undo);
                self.overlay.insert(k, Some((a, b)));
                locks.insert(k, self.id);
            }
            _ => {
                // Delete. Restricted to committing transactions: an aborted
                // delete's freed slot could be reused by a concurrent insert
                // before the undo re-inserts it, which the real engine's
                // lock protocol prevents but this key-level harness cannot.
                if current.is_none() || self.will_abort {
                    return;
                }
                let (slot, hint) = t.locate(&key).expect("model row is live");
                let (undo, _, hint) = t
                    .delete_versioned(&key, slot, hint, self.id)
                    .expect("delete of live key")
                    .expect("slot is current");
                self.hints.insert(k, hint);
                self.undos.push(undo);
                self.overlay.insert(k, None);
                locks.insert(k, self.id);
            }
        }
    }

    /// Commit or abort at the next LSN, exactly as `runner.rs` does:
    /// physical undo (abort only) leaves the chain alone, then every written
    /// key's pending entries are rewritten at the end record's LSN. A
    /// committing transaction with `defer` set leaves the rewrite instead,
    /// its entries Pending behind a commit LSN published in `deferred` —
    /// the runner's state until the collector visits it.
    fn finish(
        self,
        t: &Table,
        committed: &mut Model,
        snapshots: &mut Vec<(u64, Model)>,
        locks: &mut HashMap<i64, TxnId>,
        next_lsn: &mut u64,
        deferred: &mut Deferred,
    ) {
        let lsn = *next_lsn;
        *next_lsn += 1;
        if self.will_abort {
            for undo in self.undos.iter().rev() {
                t.apply_undo(undo).expect("undo applies");
            }
        } else {
            for (k, v) in &self.overlay {
                match v {
                    Some(ab) => committed.insert(*k, *ab),
                    None => committed.remove(k),
                };
            }
        }
        if self.defer && !self.will_abort {
            deferred.published.insert(self.id, lsn);
            deferred.written.insert(self.id, self.written());
        } else {
            deferred.collect(t, self.id, lsn, self.written());
        }
        snapshots.push((lsn, committed.clone()));
        locks.retain(|_, owner| *owner != self.id);
    }
}

/// Every view from `lo` to the newest snapshot reads exactly its replay
/// prefix, through all three coordination-free read paths.
fn assert_all_views(
    t: &Table,
    snapshots: &[(u64, Model)],
    lo: u64,
    commits: &dyn CommitResolver,
) -> usize {
    let max_lsn = snapshots.last().expect("snapshots nonempty").0;
    let mut secondary_hits = 0;
    for view in lo..=max_lsn {
        let model = model_at(snapshots, view);
        // Point reads, including keys currently absent.
        for k in 0..KEYS {
            let got = match t.read_at(&Key::ints(&[k]), view, READER, commits) {
                Visibility::Visible(img) => img.map(|r| (r.int(1), r.int(2))),
                Visibility::Tainted => panic!("foreign reader tainted on k={k} view={view}"),
            };
            assert_eq!(got, model.get(&k).copied(), "read_at k={k} view={view}");
        }
        // Full prefix scan: complete, in key order, nothing extra.
        let scanned: Vec<(i64, i64, i64)> = t
            .scan_prefix_at(&Key(Vec::new()), view, READER, commits)
            .expect("foreign scan never taints here")
            .iter()
            .map(|r| (r.int(0), r.int(1), r.int(2)))
            .collect();
        let mut want: Vec<(i64, i64, i64)> = model.iter().map(|(&k, &(a, b))| (k, a, b)).collect();
        want.sort_unstable();
        assert_eq!(scanned, want, "scan_prefix_at view={view}");
        // Secondary lookups may fall back (None) when a revived key changed
        // its indexed column; when they answer, they must answer exactly.
        for a in 0..3i64 {
            if let Some(rows) = t.lookup_secondary_at(0, &Key::ints(&[a]), view, READER, commits) {
                secondary_hits += 1;
                let mut got: Vec<(i64, i64)> = rows.iter().map(|r| (r.int(0), r.int(2))).collect();
                got.sort_unstable();
                let mut want: Vec<(i64, i64)> = model
                    .iter()
                    .filter(|(_, (ma, _))| *ma == a)
                    .map(|(&k, &(_, b))| (k, b))
                    .collect();
                want.sort_unstable();
                assert_eq!(got, want, "lookup_secondary_at a={a} view={view}");
            }
        }
    }
    secondary_hits
}

#[test]
fn read_at_lsn_equals_replayed_prefix() {
    let mut rng = SeededRng::new(0x5ee_a11);
    let mut total_secondary_hits = 0;
    for _case in 0..48 {
        let t = Table::new(schema());
        let mut committed: Model = HashMap::new();
        let mut snapshots: Vec<(u64, Model)> = vec![(0, committed.clone())];
        let mut locks: HashMap<i64, TxnId> = HashMap::new();
        let mut active: Vec<Active> = Vec::new();
        let mut deferred = Deferred::default();
        let mut next_txn = 1u64;
        let mut next_lsn = 1u64;

        for _event in 0..60 {
            let roll = rng.index(10);
            if active.is_empty() || (roll < 3 && active.len() < 3) {
                active.push(Active {
                    id: TxnId(next_txn),
                    will_abort: rng.chance(0.25),
                    overlay: HashMap::new(),
                    hints: HashMap::new(),
                    undos: Vec::new(),
                    defer: false,
                });
                next_txn += 1;
            } else if roll < 8 {
                let i = rng.index(active.len());
                active[i].apply_random_op(&t, &committed, &mut locks, &mut rng);
            } else {
                let i = rng.index(active.len());
                let mut a = active.swap_remove(i);
                a.defer = rng.chance(0.5);
                a.finish(
                    &t,
                    &mut committed,
                    &mut snapshots,
                    &mut locks,
                    &mut next_lsn,
                    &mut deferred,
                );
                // Reads stay exact even while other transactions are still
                // pending: unpublished entries unwind to before-images, and
                // published-but-unfinalized ones resolve at their LSN.
                let published = &deferred.published;
                total_secondary_hits += assert_all_views(&t, &snapshots, 0, published);
                // A transaction always reads its own writes through the
                // lock path, never through versions: own pending taints.
                for live in &active {
                    for &k in live.overlay.keys() {
                        assert_eq!(
                            t.read_at(&Key::ints(&[k]), next_lsn, live.id, published),
                            Visibility::Tainted,
                            "own pending write must taint k={k}"
                        );
                    }
                }
                // Randomly retire some deferred finalizations — an invisible
                // physical rewrite: all views answer identically after it.
                if !published.is_empty() && rng.chance(0.5) {
                    let ids: Vec<TxnId> = published.keys().copied().collect();
                    deferred.retire(&t, ids[rng.index(ids.len())]);
                    total_secondary_hits +=
                        assert_all_views(&t, &snapshots, 0, &deferred.published);
                }
            }
        }
        for a in active.drain(..) {
            a.finish(
                &t,
                &mut committed,
                &mut snapshots,
                &mut locks,
                &mut next_lsn,
                &mut deferred,
            );
        }
        total_secondary_hits += assert_all_views(&t, &snapshots, 0, &deferred.published);
        // Draining the publication map must change nothing either.
        let ids: Vec<TxnId> = deferred.published.keys().copied().collect();
        for id in ids {
            deferred.retire(&t, id);
        }
        total_secondary_hits += assert_all_views(&t, &snapshots, 0, &NoCommits);

        // Trimming at a random watermark is invisible to every view >= it...
        let max_lsn = next_lsn - 1;
        let w = rng.int_range(0, max_lsn as i64) as u64;
        let before_chains = t.n_version_chains();
        deferred.trim(&t, w);
        assert!(t.n_version_chains() <= before_chains);
        assert_all_views(&t, &snapshots, w, &NoCommits);
        // ...and a full trim still answers the newest view exactly.
        deferred.trim(&t, max_lsn);
        assert_all_views(&t, &snapshots, max_lsn, &NoCommits);
    }
    assert!(
        total_secondary_hits > 0,
        "secondary fast path never answered — precheck is vacuously conservative"
    );
}

/// Re-inserting a deleted key must revive its tombstone chain: a reader at
/// a view older than the delete sees the pre-delete image, one between the
/// delete and the re-insert sees nothing, and a current reader sees the new
/// row — all through the key's chain.
#[test]
fn reinsert_revives_tombstone_history() {
    let t = Table::new(schema());
    let key = Key::ints(&[7]);

    // Each write is rewritten at its commit with watermark 0, which trims
    // nothing.
    let (slot, _, hint) = insert(&t, row(7, 1, 10), TxnId(1));
    t.collect_versions(TxnId(1), 5, 0, [(&key, &hint)]);

    let (_, hint) = t.locate(&key).expect("live");
    let (_, _, deleted) = t
        .delete_versioned(&key, slot, hint, TxnId(2))
        .expect("delete")
        .expect("slot is current");
    t.collect_versions(TxnId(2), 10, 0, [(&key, &deleted)]);

    let (_, _, hint) = insert(&t, row(7, 2, 20), TxnId(3));
    t.collect_versions(TxnId(3), 15, 0, [(&key, &hint)]);

    fn img(t: &Table, key: &Key, view: u64) -> Option<(i64, i64)> {
        match t.read_at(key, view, READER, &NoCommits) {
            Visibility::Visible(img) => img.map(|r| (r.int(1), r.int(2))),
            Visibility::Tainted => panic!("tainted at view {view}"),
        }
    }
    assert_eq!(img(&t, &key, 4), None, "before the first insert");
    assert_eq!(
        img(&t, &key, 5),
        Some((1, 10)),
        "pre-delete image survives revival"
    );
    assert_eq!(img(&t, &key, 12), None, "between delete and re-insert");
    assert_eq!(img(&t, &key, 15), Some((2, 20)), "current image");

    // The revived chain changed the indexed column, so the secondary fast
    // path must refuse rather than answer from the current index alone.
    assert_eq!(
        t.lookup_secondary_at(0, &Key::ints(&[1]), 5, READER, &NoCommits),
        None
    );

    // Trimming below the delete keeps history; trimming past it drops it.
    // (The collector revisits the key for the commits it has passed.)
    t.collect_versions(TxnId(2), 10, 9, [(&key, &hint)]);
    assert_eq!(img(&t, &key, 9), Some((1, 10)));
    t.collect_versions(TxnId(3), 15, 15, [(&key, &hint)]);
    assert_eq!(img(&t, &key, 15), Some((2, 20)));
    assert_eq!(t.n_version_chains(), 0, "fully pruned");
}
