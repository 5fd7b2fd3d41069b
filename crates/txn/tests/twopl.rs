//! End-to-end tests of the strict-2PL baseline on a bank-transfer workload.

use acc_common::{Decimal, Error, Result, TableId, TxnTypeId, Value};
use acc_lockmgr::NoInterference;
use acc_storage::{Catalog, ColumnType, Database, Key, Row, TableSchema};
use acc_txn::{run, RunOutcome, SharedDb, StepCtx, StepOutcome, TwoPhase, TxnProgram, WaitMode};
use acc_wal::recover;
use std::sync::{Arc, Barrier};
use std::time::Duration;

const ACCOUNTS: TableId = TableId(0);

fn catalog() -> Catalog {
    let mut c = Catalog::new();
    c.add_table(
        TableSchema::builder("accounts")
            .column("id", ColumnType::Int)
            .column("balance", ColumnType::Decimal)
            .key(&["id"])
            .rows_per_page(1) // row-level locking: cleanest contention tests
            .build(),
    );
    c
}

fn setup(n_accounts: i64, initial: i64) -> Arc<SharedDb> {
    let cat = catalog();
    let mut db = Database::new(&cat);
    for i in 0..n_accounts {
        db.table_mut(ACCOUNTS)
            .unwrap()
            .insert(Row::from(vec![
                Value::Int(i),
                Value::from(Decimal::from_int(initial)),
            ]))
            .unwrap();
    }
    Arc::new(SharedDb::new(db, Arc::new(NoInterference)).with_wait_cap(Duration::from_secs(5)))
}

fn total_balance(shared: &SharedDb) -> Decimal {
    let t = shared.table(ACCOUNTS).unwrap();
    t.iter().map(|(_, r)| r.decimal(1)).sum()
}

struct Transfer {
    from: i64,
    to: i64,
    amount: Decimal,
    /// Optional rendezvous between the debit and the credit, to force
    /// specific interleavings.
    pause: Option<Arc<Barrier>>,
    abort_after_debit: bool,
}

impl Transfer {
    fn new(from: i64, to: i64, amount: i64) -> Self {
        Transfer {
            from,
            to,
            amount: Decimal::from_int(amount),
            pause: None,
            abort_after_debit: false,
        }
    }
}

impl TxnProgram for Transfer {
    fn txn_type(&self) -> TxnTypeId {
        TxnTypeId(0)
    }

    fn step(&mut self, _i: u32, ctx: &mut StepCtx<'_>) -> Result<StepOutcome> {
        let amount = self.amount;
        ctx.update_key(ACCOUNTS, &Key::ints(&[self.from]), |r| {
            let b = r.decimal(1);
            r.set(1, Value::from(b - amount));
        })?;
        if let Some(b) = &self.pause {
            b.wait();
        }
        if self.abort_after_debit {
            return Ok(StepOutcome::Abort);
        }
        ctx.update_key(ACCOUNTS, &Key::ints(&[self.to]), |r| {
            let b = r.decimal(1);
            r.set(1, Value::from(b + amount));
        })?;
        Ok(StepOutcome::Done)
    }
}

#[test]
fn serial_transfers_preserve_total() {
    let shared = setup(4, 100);
    for i in 0..4 {
        let mut p = Transfer::new(i, (i + 1) % 4, 10);
        let out = run(&shared, &TwoPhase, &mut p, WaitMode::Block).unwrap();
        assert_eq!(out, RunOutcome::Committed { steps: 1 });
    }
    assert_eq!(total_balance(&shared), Decimal::from_int(400));
    // All locks released.
    assert_eq!(shared.total_grants(), 0);
}

#[test]
fn user_abort_rolls_back_physically() {
    let shared = setup(2, 100);
    let mut p = Transfer::new(0, 1, 30);
    p.abort_after_debit = true;
    let out = run(&shared, &TwoPhase, &mut p, WaitMode::Block).unwrap();
    assert_eq!(out, RunOutcome::RolledBack(acc_txn::AbortReason::UserAbort));
    let b0 = shared.table(ACCOUNTS).unwrap().get(&Key::ints(&[0]));
    let b0 = b0.unwrap().1.decimal(1);
    assert_eq!(b0, Decimal::from_int(100));
    assert_eq!(total_balance(&shared), Decimal::from_int(200));
}

#[test]
fn concurrent_transfers_conserve_money() {
    let shared = setup(8, 100);
    let mut handles = Vec::new();
    for t in 0..8u64 {
        let shared = Arc::clone(&shared);
        handles.push(std::thread::spawn(move || {
            let mut committed = 0;
            for k in 0..25u64 {
                let from = ((t + k) % 8) as i64;
                let to = ((t + k * 3 + 1) % 8) as i64;
                if from == to {
                    continue;
                }
                let mut p = Transfer::new(from, to, 1);
                match run(&shared, &TwoPhase, &mut p, WaitMode::Block).unwrap() {
                    RunOutcome::Committed { .. } => committed += 1,
                    RunOutcome::RolledBack(_) => {}
                }
            }
            committed
        }));
    }
    let committed: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(committed > 0);
    assert_eq!(total_balance(&shared), Decimal::from_int(800));
    assert_eq!(shared.total_grants(), 0);
}

#[test]
fn forced_deadlock_aborts_one_and_conserves() {
    let shared = setup(2, 100);
    let barrier = Arc::new(Barrier::new(2));
    let mut outs = Vec::new();
    let mut handles = Vec::new();
    for (from, to) in [(0i64, 1i64), (1, 0)] {
        let shared = Arc::clone(&shared);
        let b = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            let mut p = Transfer::new(from, to, 5);
            p.pause = Some(b);
            run(&shared, &TwoPhase, &mut p, WaitMode::Block).unwrap()
        }));
    }
    for h in handles {
        outs.push(h.join().unwrap());
    }
    // Under strict 2PL the cross transfer deadlocks: exactly one is the
    // victim. (The barrier fires once, inside both first executions; the
    // victim is rolled back and NOT retried by run(), so outcomes are one
    // commit + one deadlock rollback.)
    let commits = outs
        .iter()
        .filter(|o| matches!(o, RunOutcome::Committed { .. }))
        .count();
    let deadlocks = outs
        .iter()
        .filter(|o| matches!(o, RunOutcome::RolledBack(acc_txn::AbortReason::Deadlock)))
        .count();
    assert_eq!((commits, deadlocks), (1, 1), "outcomes: {outs:?}");
    assert_eq!(total_balance(&shared), Decimal::from_int(200));
}

#[test]
fn wal_replay_reproduces_state() {
    let shared = setup(4, 100);
    for i in 0..4 {
        let mut p = Transfer::new(i, (i + 2) % 4, 7);
        run(&shared, &TwoPhase, &mut p, WaitMode::Block).unwrap();
    }
    let mut aborted = Transfer::new(0, 1, 50);
    aborted.abort_after_debit = true;
    run(&shared, &TwoPhase, &mut aborted, WaitMode::Block).unwrap();

    // Replay the log against a fresh base image with the same population.
    let cat = catalog();
    let mut base = Database::new(&cat);
    for i in 0..4 {
        base.table_mut(ACCOUNTS)
            .unwrap()
            .insert(Row::from(vec![
                Value::Int(i),
                Value::from(Decimal::from_int(100)),
            ]))
            .unwrap();
    }
    let report = shared.with_wal(|w| recover(&mut base, w)).unwrap();
    assert_eq!(report.committed.len(), 4);
    assert_eq!(report.aborted.len(), 1);
    let db = shared.snapshot_db();
    for (slot, row) in db.table(ACCOUNTS).unwrap().iter() {
        let replayed = base.table(ACCOUNTS).unwrap().row(slot).unwrap();
        assert_eq!(replayed, row);
    }
}

#[test]
fn fail_mode_surfaces_would_block_and_leaves_no_trace() {
    let shared = setup(2, 100);
    // Txn 1 grabs account 0 and stays open (we drive it manually).
    let t1 = shared.begin_txn(TxnTypeId(0));
    let mut txn1 = acc_txn::Transaction::new(t1, TxnTypeId(0));
    {
        let two = TwoPhase;
        let mut ctx = StepCtx::new(&shared, &two, &mut txn1, WaitMode::Block);
        ctx.update_key(ACCOUNTS, &Key::ints(&[0]), |r| {
            r.set(1, Value::from(Decimal::from_int(1)));
        })
        .unwrap();
    }
    // A competing transfer in Fail mode bounces off the lock.
    let mut p = Transfer::new(0, 1, 5);
    let err = run(&shared, &TwoPhase, &mut p, WaitMode::Fail).unwrap_err();
    assert!(matches!(err, Error::WouldBlock { .. }));
    // Its partial effects were undone (it had none before the block).
    let b1 = shared.table(ACCOUNTS).unwrap().get(&Key::ints(&[1]));
    let b1 = b1.unwrap().1.decimal(1);
    assert_eq!(b1, Decimal::from_int(100));
    // Finish txn 1 so the table drains.
    acc_txn::runner::commit(&shared, &mut txn1).unwrap();
    assert_eq!(shared.total_grants(), 0);
}
