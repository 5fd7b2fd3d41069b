//! Wedged compensation: a compensating step that never stops failing
//! transiently must hit the retry cap and surface a clean `Error::Internal`
//! — no infinite loop, no leaked locks, no lingering doom flag.

use acc_common::{Error, Result, StepTypeId, TableId, TxnId, TxnTypeId, Value};
use acc_lockmgr::{LockKind, LockMode, NoInterference};
use acc_storage::{Catalog, ColumnType, Database, Row, TableSchema};
use acc_txn::{
    run, ConcurrencyControl, SharedDb, StepCtx, StepOutcome, TxnMeta, TxnProgram, WaitMode,
};
use std::sync::Arc;
use std::time::Duration;

const ORDERS: TableId = TableId(0);

fn catalog() -> Catalog {
    let mut c = Catalog::new();
    c.add_table(
        TableSchema::builder("orders")
            .column("order_id", ColumnType::Int)
            .key(&["order_id"])
            .build(),
    );
    c
}

/// Minimal decomposed policy (same shape as the `decomposed.rs` tests).
struct StepRelease;

impl ConcurrencyControl for StepRelease {
    fn name(&self) -> &'static str {
        "step-release"
    }
    fn decomposed(&self) -> bool {
        true
    }
    fn step_type(&self, meta: &TxnMeta) -> StepTypeId {
        if meta.compensating {
            StepTypeId(100)
        } else {
            StepTypeId(meta.step_index.min(1))
        }
    }
    fn comp_step_type(&self, _t: TxnTypeId) -> Option<StepTypeId> {
        Some(StepTypeId(100))
    }
    fn item_locks(&self, _m: &TxnMeta, _t: TableId, write: bool) -> Vec<LockKind> {
        vec![LockKind::Conventional(if write {
            LockMode::X
        } else {
            LockMode::S
        })]
    }
    fn scan_locks(&self, _m: &TxnMeta, _t: TableId) -> Vec<LockKind> {
        vec![LockKind::Conventional(LockMode::S)]
    }
    fn release_at_step_end(&self, _m: &TxnMeta, _k: LockKind) -> bool {
        true
    }
}

/// Inserts a row in step 0, aborts in step 1, and then fails every
/// compensation attempt with a transient error.
struct WedgedOrder {
    comp_calls: u32,
}

impl TxnProgram for WedgedOrder {
    fn txn_type(&self) -> TxnTypeId {
        TxnTypeId(1)
    }

    fn step(&mut self, i: u32, ctx: &mut StepCtx<'_>) -> Result<StepOutcome> {
        if i == 0 {
            ctx.insert(ORDERS, Row::from(vec![Value::Int(1)]))?;
            Ok(StepOutcome::Continue)
        } else {
            Ok(StepOutcome::Abort)
        }
    }

    fn compensate(&mut self, _steps_completed: u32, _ctx: &mut StepCtx<'_>) -> Result<()> {
        self.comp_calls += 1;
        // Always transient — a perpetually recurring deadlock.
        Err(Error::Deadlock { victim: TxnId(0) })
    }
}

fn run_wedged(shared: &Arc<SharedDb>) -> (Error, u32) {
    let mut p = WedgedOrder { comp_calls: 0 };
    let err = run(shared, &StepRelease, &mut p, WaitMode::Block)
        .expect_err("perpetually failing compensation must surface an error");
    (err, p.comp_calls)
}

#[test]
fn wedged_compensation_hits_default_cap_with_clean_error() {
    let shared = Arc::new(
        SharedDb::new(Database::new(&catalog()), Arc::new(NoInterference))
            .with_wait_cap(Duration::from_secs(5)),
    );
    let (err, calls) = run_wedged(&shared);
    // Default cap 8: the initial attempt plus 8 retries.
    assert_eq!(calls, 9, "expected initial attempt + 8 retries");
    let msg = err.to_string();
    assert!(msg.contains("wedged"), "unexpected error: {msg}");
    assert!(msg.contains("cap 8"), "unexpected error: {msg}");
    // The failed transaction must not leak locks or doom flags: a fresh
    // transaction on the same table runs fine.
    assert_eq!(shared.total_grants(), 0);
}
