//! Version GC stays bounded and invisible. Commit and rollback queue their
//! write sets, and the version collector, run by finishing transactions,
//! rewrites and trims each written key's chain in one leaf visit once the
//! watermark has passed the writer's end LSN. Commits that a lagging view
//! holds back wait in the queue for a later collector run, so a collector
//! that never ran, or ran only on its own finisher's writes, would let
//! chains pile up.

use acc_common::{Result, SeededRng, TableId, TxnTypeId, Value};
use acc_lockmgr::NoInterference;
use acc_storage::{Catalog, ColumnType, Database, Key, Row, TableSchema, Visibility};
use acc_txn::runner::{commit, run};
use acc_txn::{SharedDb, StepCtx, StepOutcome, Transaction, TwoPhase, TxnProgram, WaitMode};
use acc_wal::Lsn;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const T: TableId = TableId(0);
/// Rows in the table, four to a page.
const ROWS: i64 = 4096;
/// Most transactions open at once.
const IN_FLIGHT: usize = 4;
/// Keys each transaction updates.
const WRITES: usize = 2;
const COMMITS: usize = 10_000;

fn seeded() -> Arc<SharedDb> {
    let mut c = Catalog::new();
    c.add_table(
        TableSchema::builder("counters")
            .column("id", ColumnType::Int)
            .column("n", ColumnType::Int)
            .key(&["id"])
            .rows_per_page(4)
            .build(),
    );
    let mut db = Database::new(&c);
    for id in 0..ROWS {
        db.table_mut(T)
            .unwrap()
            .insert(Row(vec![Value::Int(id), Value::Int(0)]))
            .unwrap();
    }
    Arc::new(SharedDb::new(db, Arc::new(NoInterference)))
}

/// Begin the `j`-th transaction and update its keys `4j` and `4j + 1`
/// (mod `ROWS`): a page of its own, so open transactions never wait on
/// each other's 2PL page locks.
fn begin_and_write(s: &SharedDb, j: usize) -> Transaction {
    let id = s.begin_txn(TxnTypeId(0));
    let mut txn = Transaction::new(id, TxnTypeId(0));
    let mut ctx = StepCtx::new(s, &TwoPhase, &mut txn, WaitMode::Block);
    for w in 0..WRITES as i64 {
        let k = (4 * j as i64 + w) % ROWS;
        let updated = ctx
            .update_key(T, &Key::ints(&[k]), |r| {
                let n = r.int(1);
                r.set(1, Value::Int(n + 1));
            })
            .unwrap();
        assert!(updated, "key {k} exists");
    }
    txn
}

#[test]
fn version_chains_stay_bounded_by_in_flight_writes() {
    let s = seeded();
    let t = s.table(T).unwrap();
    // Commits are FIFO, so the transactions that committed after the
    // oldest open one began were open when it began. The collector takes a
    // commit as soon as no view older than its commit LSN is left, so after
    // each commit only the keys of open transactions and of those committed
    // since the oldest open one began carry chains: at most
    // `2 × IN_FLIGHT × WRITES`, which the peak must meet. Every commit must
    // stay within the looser `bound`, which also admits a collector that
    // falls a few commits behind.
    let tight = 2 * IN_FLIGHT * WRITES;
    let bound = 2 * (2 * IN_FLIGHT * WRITES) + IN_FLIGHT * WRITES;
    let mut rng = SeededRng::new(0x6c);
    let mut open: VecDeque<Transaction> = VecDeque::new();
    let (mut begun, mut peak) = (0, 0);
    for _ in 0..COMMITS {
        // Between one and IN_FLIGHT transactions stay open, so read views
        // lag the durable frontier by a varying number of commits.
        let target = 1 + rng.index(IN_FLIGHT);
        while open.len() < target {
            open.push_back(begin_and_write(&s, begun));
            begun += 1;
        }
        let mut oldest = open.pop_front().expect("one is open");
        commit(&s, &mut oldest).unwrap();
        let chains = t.n_version_chains();
        assert!(
            chains <= bound,
            "{chains} version chains after {begun} transactions (bound {bound})"
        );
        peak = peak.max(chains);
    }
    for mut txn in open {
        commit(&s, &mut txn).unwrap();
    }
    assert!(
        peak > 0,
        "views lagged, so some chains outlived their commit"
    );
    assert!(
        peak <= tight,
        "peak {peak} over the collector's bound {tight}"
    );
    assert_eq!(s.active_txns(), 0);
    assert_eq!(s.drain_versions(), 0, "the watermark passed every commit");
    assert_eq!(
        t.n_version_chains(),
        0,
        "quiescent collection drops every chain"
    );
}

/// Pairs of accounts, each pair holding `PAIR_SUM` between its two keys.
const PAIRS: i64 = 4;
const PAIR_SUM: i64 = 200;
/// Transfers each writer thread runs.
const TRANSFERS: usize = 1500;

fn accounts() -> Arc<SharedDb> {
    let mut c = Catalog::new();
    c.add_table(
        TableSchema::builder("accounts")
            .column("id", ColumnType::Int)
            .column("balance", ColumnType::Int)
            .key(&["id"])
            .rows_per_page(2)
            .build(),
    );
    let mut db = Database::new(&c);
    for id in 0..2 * PAIRS {
        db.table_mut(T)
            .unwrap()
            .insert(Row(vec![Value::Int(id), Value::Int(PAIR_SUM / 2)]))
            .unwrap();
    }
    Arc::new(SharedDb::new(db, Arc::new(NoInterference)))
}

/// Move `amount` from `from` to `to` (the two keys of one pair), then
/// commit, or abort if `abort`.
struct Transfer {
    from: i64,
    to: i64,
    amount: i64,
    abort: bool,
}

impl TxnProgram for Transfer {
    fn txn_type(&self) -> TxnTypeId {
        TxnTypeId(0)
    }
    fn step(&mut self, _: u32, ctx: &mut StepCtx<'_>) -> Result<StepOutcome> {
        for (id, delta) in [(self.from, -self.amount), (self.to, self.amount)] {
            ctx.update_key(T, &Key::ints(&[id]), |r| {
                let b = r.int(1);
                r.set(1, Value::Int(b + delta));
            })?;
        }
        Ok(if self.abort {
            StepOutcome::Abort
        } else {
            StepOutcome::Done
        })
    }
}

/// Writers commit and roll back transfers inside pairs of accounts while a
/// reader checks every pair's sum through version reads at registered
/// views, and the finishing threads run the collector. A collector that
/// trimmed past a live view, or retired a publication before rewriting
/// its entries, would let the reader see one key of a transfer without
/// the other (or a chain it cannot reconstruct).
#[test]
fn collectors_on_finishing_threads_stay_invisible_to_version_readers() {
    let s = accounts();
    let done = AtomicBool::new(false);
    let reads = std::thread::scope(|scope| {
        let writers: Vec<_> = (0..2u64)
            .map(|w| {
                let s = &s;
                scope.spawn(move || {
                    let mut rng = SeededRng::new(0x7c0 + w);
                    for _ in 0..TRANSFERS {
                        let pair = rng.int_range(0, PAIRS - 1);
                        let (from, to) = if rng.chance(0.5) {
                            (2 * pair, 2 * pair + 1)
                        } else {
                            (2 * pair + 1, 2 * pair)
                        };
                        let mut transfer = Transfer {
                            from,
                            to,
                            amount: rng.int_range(1, 9),
                            abort: rng.chance(0.2),
                        };
                        run(s, &TwoPhase, &mut transfer, WaitMode::Block).expect("transfer");
                    }
                })
            })
            .collect();
        let reader = scope.spawn(|| {
            let t = s.table(T).unwrap();
            let mut reads = 0;
            while !done.load(Ordering::SeqCst) {
                let r = s.begin_txn(TxnTypeId(0));
                let view = s.read_view_of(r).expect("reader registered");
                for pair in 0..PAIRS {
                    let balance = |id: i64| match t.read_at(
                        &Key::ints(&[id]),
                        view,
                        r,
                        &s.published_commits(),
                    ) {
                        Visibility::Visible(row) => row.expect("accounts are never deleted").int(1),
                        Visibility::Tainted => panic!("account {id} tainted at view {view}"),
                    };
                    let sum = balance(2 * pair) + balance(2 * pair + 1);
                    assert_eq!(sum, PAIR_SUM, "pair {pair} at view {view}");
                    reads += 1;
                }
                s.deregister_active(r);
            }
            reads
        });
        for w in writers {
            w.join().expect("writer thread");
        }
        done.store(true, Ordering::SeqCst);
        reader.join().expect("reader thread")
    });
    assert!(reads > 0, "the reader never read");
    // Aborts are not synced: make every end record durable, so the
    // watermark can pass them all.
    s.sync_wal(Lsn(s.wal_len() as u64 - 1)).unwrap();
    assert_eq!(
        s.drain_versions(),
        0,
        "the watermark passed every end record"
    );
    assert_eq!(s.table(T).unwrap().n_version_chains(), 0);
    assert_eq!(s.published_count(), 0);
    let balances: Vec<i64> = s.table(T).unwrap().iter().map(|(_, r)| r.int(1)).collect();
    for pair in balances.chunks(2) {
        assert_eq!(pair.iter().sum::<i64>(), PAIR_SUM);
    }
}
