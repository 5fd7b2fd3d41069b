//! Wall-clock closed-loop TPC-C under both concurrency controls: a short
//! multi-threaded soak with the consistency audit at quiescence.

use acc_common::faults::{FaultInjector, FaultPlan};
use acc_engine::{run_closed_loop, ClosedLoopConfig, RetryPolicy, Workload};
use acc_storage::Database;
use acc_tpcc::decompose::TpccSystem;
use acc_tpcc::input::{InputGen, TpccConfig};
use acc_tpcc::schema::{tpcc_catalog, Scale};
use acc_tpcc::{consistency, populate};
use acc_txn::{ConcurrencyControl, SharedDb, TwoPhase};
use std::sync::Arc;
use std::time::Duration;

fn soak(use_acc: bool) {
    let sys = TpccSystem::build();
    let scale = Scale::test();
    let mut db = Database::new(&tpcc_catalog());
    populate(&mut db, &scale, 31);
    let shared = Arc::new(
        SharedDb::new(db, Arc::clone(&sys.tables) as _).with_wait_cap(Duration::from_secs(20)),
    );
    let cc: Arc<dyn ConcurrencyControl> = if use_acc {
        Arc::clone(&sys.acc) as _
    } else {
        Arc::new(TwoPhase)
    };
    let workload: Arc<dyn Workload> = Arc::new(InputGen::new(TpccConfig::standard(scale), 5));
    let report = run_closed_loop(
        &shared,
        &cc,
        &workload,
        &ClosedLoopConfig {
            terminals: 6,
            duration: Duration::from_millis(700),
            think_time: Duration::from_millis(2),
            seed: 77,
            retry: RetryPolicy::standard(),
        },
    );
    assert!(report.committed > 20, "{report:?}");
    let v = consistency::check(&shared.snapshot_db(), !use_acc);
    assert!(v.is_empty(), "{v:#?}");
    assert_eq!(shared.total_grants(), 0);
}

#[test]
fn closed_loop_two_phase_soak() {
    soak(false);
}

#[test]
fn closed_loop_acc_soak() {
    soak(true);
}

/// Spurious-wakeup storm: every second lock wait is woken early by the fault
/// injector. Blocked waiters must re-check and re-sleep without ever being
/// granted a lock they don't hold — throughput may dip, consistency may not.
#[test]
fn closed_loop_acc_survives_spurious_wakeups() {
    let sys = TpccSystem::build();
    let scale = Scale::test();
    let mut db = Database::new(&tpcc_catalog());
    populate(&mut db, &scale, 31);
    let faults = FaultInjector::with_plan(FaultPlan::spurious_wakes(2));
    let shared = Arc::new(
        SharedDb::new(db, Arc::clone(&sys.tables) as _)
            .with_wait_cap(Duration::from_secs(20))
            .with_fault_injector(Arc::clone(&faults)),
    );
    let cc: Arc<dyn ConcurrencyControl> = Arc::clone(&sys.acc) as _;
    let workload: Arc<dyn Workload> = Arc::new(InputGen::new(TpccConfig::standard(scale), 5));
    let report = run_closed_loop(
        &shared,
        &cc,
        &workload,
        &ClosedLoopConfig {
            terminals: 6,
            duration: Duration::from_millis(700),
            think_time: Duration::from_millis(2),
            seed: 77,
            retry: RetryPolicy::standard(),
        },
    );
    assert!(report.committed > 20, "{report:?}");
    let counters = faults.counters();
    assert!(
        counters.spurious_wakes > 0,
        "storm never fired (lock_waits = {})",
        counters.lock_waits
    );
    let v = consistency::check(&shared.snapshot_db(), false);
    assert!(v.is_empty(), "{v:#?}");
    assert_eq!(shared.total_grants(), 0);
}
