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
//! finalize the keys the transaction wrote at the commit (or abort) LSN.
//! Aborts apply physical undo first, exactly like the live rollback path. A
//! key-level lock map stands in for the lock manager so two live
//! transactions never write the same row.
//!
//! Commits randomly defer their physical finalization behind a published
//! commit LSN (the runner's commit-publication window between the `Commit`
//! append and `finalize_versions`): reads through the publication resolver
//! must be indistinguishable from reads over finalized chains.

use acc_common::{SeededRng, Slot, TableId, TxnId, Value};
use acc_storage::{
    ColumnType, CommitResolver, Key, NoCommits, Row, Table, TableSchema, UndoRecord,
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
fn insert(t: &Table, row: Row, txn: TxnId) -> (Slot, UndoRecord) {
    let (slot, _, undo) = t
        .insert_versioned(row, txn, t.peek_next_slot())
        .expect("insert of absent key")
        .expect("single-threaded prediction holds");
    (slot, undo)
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
    undos: Vec<UndoRecord>,
}

/// Commits whose chains are still Pending behind a published LSN (the
/// runner's window between the `Commit` append and `finalize_versions`),
/// with the keys each one wrote.
#[derive(Default)]
struct Deferred {
    published: HashMap<TxnId, u64>,
    written: HashMap<TxnId, Vec<Key>>,
}

impl Deferred {
    /// Finalize `id`'s chains at its published LSN and retire it.
    fn retire(&mut self, t: &Table, id: TxnId) {
        let lsn = self.published.remove(&id).expect("published commit");
        t.finalize_versions(id, lsn, None, &self.written.remove(&id).expect("write set"));
    }
}

impl Active {
    /// The transaction's write set: every key it wrote.
    fn written(&self) -> Vec<Key> {
        self.overlay.keys().map(|&k| Key::ints(&[k])).collect()
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
                let (_, undo) = insert(t, row(k, a, b), self.id);
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
                let Ok(VersionedUpdate::Applied { undo, .. }) = updated else {
                    panic!("update of a live slot");
                };
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
                let (undo, _) = t
                    .delete_versioned(&key, slot, hint, self.id)
                    .expect("delete of live key")
                    .expect("slot is current");
                self.undos.push(undo);
                self.overlay.insert(k, None);
                locks.insert(k, self.id);
            }
        }
    }

    /// Commit or abort at the next LSN, exactly as `runner.rs` does:
    /// physical undo (abort only) leaves the chain alone, then every written
    /// key's pending entries finalize at the end record's LSN. When
    /// `defer_into` is `Some`, a committing transaction instead *defers* the
    /// physical finalization, leaving its entries Pending behind a commit LSN
    /// published there — the runner's state between the `Commit` append and
    /// `finalize_versions`.
    fn finish(
        self,
        t: &Table,
        committed: &mut Model,
        snapshots: &mut Vec<(u64, Model)>,
        locks: &mut HashMap<i64, TxnId>,
        next_lsn: &mut u64,
        defer_into: Option<&mut Deferred>,
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
        match defer_into {
            Some(deferred) if !self.will_abort => {
                deferred.published.insert(self.id, lsn);
                deferred.written.insert(self.id, self.written());
            }
            _ => {
                t.finalize_versions(self.id, lsn, None, &self.written());
            }
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
                    undos: Vec::new(),
                });
                next_txn += 1;
            } else if roll < 8 {
                let i = rng.index(active.len());
                active[i].apply_random_op(&t, &committed, &mut locks, &mut rng);
            } else {
                let i = rng.index(active.len());
                let a = active.swap_remove(i);
                let defer = rng.chance(0.5);
                a.finish(
                    &t,
                    &mut committed,
                    &mut snapshots,
                    &mut locks,
                    &mut next_lsn,
                    defer.then_some(&mut deferred),
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
                None,
            );
        }
        total_secondary_hits += assert_all_views(&t, &snapshots, 0, &deferred.published);
        // Draining the publication map must change nothing either.
        let ids: Vec<TxnId> = deferred.published.keys().copied().collect();
        for id in ids {
            deferred.retire(&t, id);
        }
        total_secondary_hits += assert_all_views(&t, &snapshots, 0, &NoCommits);

        // Pruning at a random watermark is invisible to every view >= it...
        let max_lsn = next_lsn - 1;
        let w = rng.int_range(0, max_lsn as i64) as u64;
        let before_chains = t.n_version_chains();
        t.prune_versions(w);
        assert!(t.n_version_chains() <= before_chains);
        assert_all_views(&t, &snapshots, w, &NoCommits);
        // ...and a full prune still answers the newest view exactly.
        t.prune_versions(max_lsn);
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

    let (slot, _) = insert(&t, row(7, 1, 10), TxnId(1));
    t.finalize_versions(TxnId(1), 5, None, [&key]);

    let (_, hint) = t.locate(&key).expect("live");
    t.delete_versioned(&key, slot, hint, TxnId(2))
        .expect("delete")
        .expect("slot is current");
    t.finalize_versions(TxnId(2), 10, None, [&key]);

    insert(&t, row(7, 2, 20), TxnId(3));
    t.finalize_versions(TxnId(3), 15, None, [&key]);

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

    // Pruning below the delete keeps history; pruning past it drops it.
    t.prune_versions(9);
    assert_eq!(img(&t, &key, 9), Some((1, 10)));
    t.prune_versions(15);
    assert_eq!(img(&t, &key, 15), Some((2, 20)));
    assert_eq!(t.n_version_chains(), 0, "fully pruned");
}
