//! Smoke test for the threaded closed-loop engine.

use acc_common::rng::SeededRng;
use acc_common::{Decimal, Result, TableId, TxnTypeId, Value};
use acc_engine::{run_closed_loop, ClosedLoopConfig, RetryPolicy, Workload};
use acc_lockmgr::NoInterference;
use acc_storage::{Catalog, ColumnType, Database, Key, Row, TableSchema};
use acc_txn::{ConcurrencyControl, SharedDb, StepCtx, StepOutcome, TwoPhase, TxnProgram};
use std::sync::Arc;
use std::time::Duration;

const ACCOUNTS: TableId = TableId(0);

struct Transfer {
    from: i64,
    to: i64,
}

impl TxnProgram for Transfer {
    fn txn_type(&self) -> TxnTypeId {
        TxnTypeId(0)
    }
    fn step(&mut self, _i: u32, ctx: &mut StepCtx<'_>) -> Result<StepOutcome> {
        let amount = Decimal::from_int(1);
        ctx.update_key(ACCOUNTS, &Key::ints(&[self.from]), |r| {
            let b = r.decimal(1);
            r.set(1, Value::from(b - amount));
        })?;
        ctx.update_key(ACCOUNTS, &Key::ints(&[self.to]), |r| {
            let b = r.decimal(1);
            r.set(1, Value::from(b + amount));
        })?;
        Ok(StepOutcome::Done)
    }
}

struct TransferWorkload {
    accounts: i64,
}

impl Workload for TransferWorkload {
    fn next_program(&self, rng: &mut SeededRng) -> Box<dyn TxnProgram + Send> {
        let from = rng.int_range(0, self.accounts - 1);
        let mut to = rng.int_range(0, self.accounts - 1);
        if to == from {
            to = (to + 1) % self.accounts;
        }
        Box::new(Transfer { from, to })
    }
}

#[test]
fn closed_loop_runs_and_conserves() {
    let mut c = Catalog::new();
    c.add_table(
        TableSchema::builder("accounts")
            .column("id", ColumnType::Int)
            .column("balance", ColumnType::Decimal)
            .key(&["id"])
            .rows_per_page(1)
            .build(),
    );
    let mut db = Database::new(&c);
    for i in 0..16 {
        db.table_mut(ACCOUNTS)
            .unwrap()
            .insert(Row::from(vec![
                Value::Int(i),
                Value::from(Decimal::from_int(1000)),
            ]))
            .unwrap();
    }
    let shared = Arc::new(SharedDb::new(db, Arc::new(NoInterference)));
    let cc: Arc<dyn ConcurrencyControl> = Arc::new(TwoPhase);
    let workload: Arc<dyn Workload> = Arc::new(TransferWorkload { accounts: 16 });

    let report = run_closed_loop(
        &shared,
        &cc,
        &workload,
        &ClosedLoopConfig {
            terminals: 4,
            duration: Duration::from_millis(300),
            think_time: Duration::from_millis(1),
            seed: 7,
            retry: RetryPolicy::disabled(),
        },
    );

    assert!(report.committed > 0, "{report:?}");
    assert_eq!(report.retries, 0, "retry disabled but engine resubmitted");
    assert!(report.throughput_tps > 0.0);
    assert!(report.latency.mean_ms >= 0.0);
    let t = shared.table(ACCOUNTS).unwrap();
    let total: Decimal = t.iter().map(|(_, r)| r.decimal(1)).sum();
    assert_eq!(total, Decimal::from_int(16_000));
    assert_eq!(shared.total_grants(), 0);
}
