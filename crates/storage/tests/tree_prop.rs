//! Model-based property tests for the paged B-tree storage (seeded,
//! dependency-free): a `Table` driven through random operation sequences
//! must agree with a `BTreeMap` oracle — including phases sized to force
//! page splits and merges — and version chains must survive the page
//! relocations those structure changes cause.

use acc_common::{SeededRng, TableId, TxnId, Value};
use acc_storage::{
    ColumnType, Key, LeafHint, NoCommits, Row, Table, TableSchema, VersionedUpdate, Visibility,
};
use std::collections::{BTreeMap, HashMap};

fn schema() -> TableSchema {
    let mut s = TableSchema::builder("t")
        .column("k", ColumnType::Int)
        .column("a", ColumnType::Int)
        .column("b", ColumnType::Int)
        .key(&["k"])
        .rows_per_page(2) // leaf capacity 2: splits and merges constantly
        .build();
    s.id = TableId(0);
    s
}

fn row(k: i64, a: i64, b: i64) -> Row {
    Row(vec![Value::Int(k), Value::Int(a), Value::Int(b)])
}

fn assert_matches_oracle(t: &Table, oracle: &BTreeMap<i64, (i64, i64)>, rng: &mut SeededRng) {
    assert_eq!(t.len(), oracle.len());
    // Full iteration agrees, in key order.
    let got: Vec<(i64, i64, i64)> = t
        .iter()
        .map(|(_, r)| (r.int(0), r.int(1), r.int(2)))
        .collect();
    let want: Vec<(i64, i64, i64)> = oracle.iter().map(|(&k, &(a, b))| (k, a, b)).collect();
    assert_eq!(got, want, "iter() diverged from oracle");
    // Random point reads.
    for _ in 0..4 {
        let k = rng.int_range(0, 59);
        assert_eq!(
            t.get(&Key::ints(&[k])).map(|(_, r)| (r.int(1), r.int(2))),
            oracle.get(&k).copied(),
            "get({k}) diverged"
        );
    }
    // Random range scan vs the oracle's range.
    let lo = rng.int_range(0, 59);
    let hi = lo + rng.int_range(0, 19);
    let got: Vec<i64> = t
        .scan_range(&Key::ints(&[lo]), &Key::ints(&[hi]))
        .into_iter()
        .map(|(_, r)| r.int(0))
        .collect();
    let want: Vec<i64> = oracle.range(lo..hi).map(|(&k, _)| k).collect();
    assert_eq!(got, want, "scan_range({lo}..{hi}) diverged");
    // first_in_prefix is the tree's early-terminating "min in range".
    assert_eq!(
        t.first_in_prefix(&Key(Vec::new())).map(|(_, r)| r.int(0)),
        oracle.keys().next().copied(),
        "first_in_prefix diverged"
    );
}

#[test]
fn paged_table_matches_btreemap_oracle() {
    let mut rng = SeededRng::new(0x9a9ed);
    for case in 0..48 {
        let t = Table::new(schema());
        let mut oracle: BTreeMap<i64, (i64, i64)> = BTreeMap::new();
        // Alternating grow-heavy and shrink-heavy phases so the tree both
        // deepens (splits) and collapses back (borrows/merges/frees).
        for phase in 0..4 {
            let p_insert = if phase % 2 == 0 { 0.8 } else { 0.15 };
            for _ in 0..60 {
                let k = rng.int_range(0, 59);
                if rng.chance(p_insert) {
                    let (a, b) = (rng.int_range(0, 9), rng.int_range(0, 99));
                    let res = t.insert(row(k, a, b));
                    if let std::collections::btree_map::Entry::Vacant(e) = oracle.entry(k) {
                        res.expect("fresh insert");
                        e.insert((a, b));
                    } else {
                        assert!(res.is_err(), "duplicate insert of {k} succeeded");
                    }
                } else if rng.chance(0.5) {
                    let res = t.delete_by_key(&Key::ints(&[k]));
                    assert_eq!(res.is_ok(), oracle.remove(&k).is_some());
                } else if let Some(slot) = t.slot_of(&Key::ints(&[k])) {
                    let b = rng.int_range(0, 99);
                    t.update_with(slot, |r| {
                        r.set(2, Value::Int(b));
                    })
                    .expect("update live slot");
                    oracle.get_mut(&k).expect("oracle row").1 = b;
                }
            }
            assert_matches_oracle(&t, &oracle, &mut rng);
        }
        let c = t.pager_counters();
        assert!(c.splits > 0, "case {case}: no splits forced");
        if case == 0 {
            // At least the first (deterministic) case must also exercise
            // the shrink paths end to end.
            assert!(c.merges > 0, "no merges forced");
            assert!(c.page_frees > 0, "no pages freed");
        }
    }
}

/// Drive versioned mutations (the transaction layer's combined ops) while
/// churning *other* keys hard enough to split and merge the leaves the
/// chains live on. Chains are keyed by primary key, so every relocation
/// must carry them along: `read_at` at historical views must keep
/// reproducing the exact committed history recorded by the oracle. Each
/// commit stays `Pending` behind its published LSN, as in the transaction
/// layer, until the collector's visits at the end of the case.
#[test]
fn version_chains_survive_page_relocation() {
    let mut rng = SeededRng::new(0xc4a1);
    for _case in 0..24 {
        let t = Table::new(schema());
        // Committed history per key: (commit_lsn, state after the commit).
        type History = BTreeMap<i64, Vec<(u64, Option<(i64, i64)>)>>;
        let mut history: History = BTreeMap::new();
        let mut published: HashMap<TxnId, u64> = HashMap::new();
        // Each commit's write, with the hint it left, in commit order.
        let mut written: Vec<(TxnId, u64, Key, LeafHint)> = Vec::new();
        let mut lsn = 0u64;
        for next_txn in 1u64..=240 {
            // Physical churn in a disjoint key range (no chains): these
            // entries come and go for real, so the leaves holding the
            // chained keys keep splitting and merging underneath them.
            for _ in 0..2 {
                let c = rng.int_range(100, 159);
                if t.slot_of(&Key::ints(&[c])).is_some() {
                    t.delete_by_key(&Key::ints(&[c])).expect("churn delete");
                } else {
                    t.insert(row(c, 0, 0)).expect("churn insert");
                }
            }
            let k = rng.int_range(0, 23);
            let txn = TxnId(next_txn);
            lsn += 1;
            let found = t.locate(&Key::ints(&[k]));
            let (state, hint) = match found {
                None => {
                    let (a, b) = (rng.int_range(0, 9), rng.int_range(0, 99));
                    let (_, _, _, hint) = t
                        .insert_versioned(row(k, a, b), txn, t.peek_next_slot())
                        .expect("insert")
                        .expect("predicted slot is current");
                    (Some((a, b)), hint)
                }
                Some((slot, hint)) if rng.chance(0.4) => {
                    let (_, before, hint) = t
                        .delete_versioned(&Key::ints(&[k]), slot, hint, txn)
                        .expect("delete")
                        .expect("slot is current");
                    assert_eq!(before.int(0), k);
                    (None, hint)
                }
                Some((slot, hint)) => {
                    let b = rng.int_range(0, 99);
                    match t
                        .update_versioned(&Key::ints(&[k]), slot, hint, txn, |r| {
                            r.set(2, Value::Int(b));
                        })
                        .expect("update")
                    {
                        VersionedUpdate::Applied { after, hint, .. } => {
                            (Some((after.int(1), after.int(2))), hint)
                        }
                        VersionedUpdate::Retry => panic!("single-threaded retry"),
                    }
                }
            };
            published.insert(txn, lsn);
            written.push((txn, lsn, Key::ints(&[k]), hint));
            history.entry(k).or_default().push((lsn, state));
        }
        assert!(
            t.pager_counters().splits > 0 && t.pager_counters().merges > 0,
            "chains never relocated: splits={} merges={}",
            t.pager_counters().splits,
            t.pager_counters().merges
        );
        // Every key's committed history must reconstruct at every view —
        // before its first commit, at each commit, and between them.
        let reader = TxnId(u64::MAX);
        for (&k, commits) in &history {
            let key = Key::ints(&[k]);
            for view in 0..=lsn {
                let expect = commits
                    .iter()
                    .rev()
                    .find(|(c, _)| *c <= view)
                    .and_then(|(_, s)| *s)
                    .map(|(a, b)| row(k, a, b));
                assert_eq!(
                    t.read_at(&key, view, reader, &published),
                    Visibility::Visible(expect),
                    "key {k} view {view} diverged from history"
                );
            }
        }
        // Collecting every commit at the frontier rewrites each one's
        // entry, then retires every chain and settled tombstone, and the
        // current state still reads back.
        for (txn, end, key, hint) in &written {
            assert_eq!(t.collect_versions(*txn, *end, lsn, [(key, hint)]), 1);
        }
        assert_eq!(t.n_version_chains(), 0);
        for (&k, commits) in &history {
            let expect = commits
                .last()
                .and_then(|(_, s)| *s)
                .map(|(a, b)| row(k, a, b));
            assert_eq!(
                t.read_at(&Key::ints(&[k]), lsn, reader, &NoCommits),
                Visibility::Visible(expect),
                "key {k} diverged after prune"
            );
        }
    }
}
