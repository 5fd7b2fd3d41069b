//! Version GC on the commit path stays bounded. Commit and rollback trim
//! the chains of the keys they wrote, in the same leaf visit that finalizes
//! them, and sweep a table's whole chained set only once it has doubled
//! since the last sweep. Chains that a lagging view keeps alive at their own
//! finalize are left to that sweep, so without it they would pile up.

use acc_common::{SeededRng, TableId, TxnTypeId, Value};
use acc_lockmgr::NoInterference;
use acc_storage::{Catalog, ColumnType, Database, Key, Row, TableSchema};
use acc_txn::runner::commit;
use acc_txn::{SharedDb, StepCtx, Transaction, TwoPhase, WaitMode};
use std::collections::VecDeque;
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
    // oldest open one began were open when it began: at a sweep, the
    // chains no view can yet drop belong to fewer than 2 × IN_FLIGHT
    // transactions. The sweep fires once the chained set doubles what it
    // left, and at most IN_FLIGHT transactions begin between two commits.
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
        "views lagged, so some chains outlived their finalize"
    );
    assert_eq!(s.active_txns(), 0);
    t.prune_versions(s.version_watermark().expect("quiescent watermark"));
    assert_eq!(t.n_version_chains(), 0, "quiescent sweep drops every chain");
}
