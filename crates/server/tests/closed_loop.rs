//! Closed-loop terminals against the front-end: every workload family under
//! its policy, each run audited at quiescence through the front-end it drove.

use acc_common::faults::{FaultInjector, FaultPlan};
use acc_engine::{RetryPolicy, Workload};
use acc_server::{
    run_closed_loop, ClosedLoopConfig, Frontend, LoadgenReport, Mix, ServerConfig, WorkloadHost,
};
use acc_tpcc::{consistency, Scale, TpccKit};
use acc_txn::{ConcurrencyControl, SharedDb, TwoPhase};
use acc_wal::{LogRecord, Wal};
use acc_workloads::{saga, smallbank};
use std::sync::Arc;
use std::time::Duration;

/// A pool with one worker per terminal, so no terminal waits in the queue.
fn config(terminals: usize, engine_retry: RetryPolicy) -> ServerConfig {
    ServerConfig {
        workers: terminals,
        engine_retry,
        ..ServerConfig::default()
    }
}

/// Drive `frontend` closed-loop, shut it down and audit what it left: every
/// request settled exactly once, none with an `Error` answer, no grant or
/// transaction left behind, and one `Commit` record on the durable log per
/// committed answer. Returns the report and the quiesced engine.
fn drive(frontend: Frontend, run: &ClosedLoopConfig) -> (LoadgenReport, Arc<SharedDb>) {
    let report = run_closed_loop(&frontend, run);
    assert_eq!(report.settled(), report.offered, "{report:?}");
    assert_eq!(report.errors, 0, "{report:?}");
    frontend.shutdown();
    let shared = Arc::clone(frontend.shared());
    assert_eq!(shared.total_grants(), 0, "lock grants leaked");
    assert_eq!(shared.active_txns(), 0, "transactions left active");
    let commits = Wal::from_bytes(&shared.wal_durable_stream())
        .records()
        .iter()
        .filter(|r| matches!(r, LogRecord::Commit { .. }))
        .count();
    assert_eq!(
        commits as u64, report.committed,
        "commits on the durable log"
    );
    (report, shared)
}

/// TPC-C at test scale under its ACC or strict 2PL, with the standard
/// engine retry.
fn tpcc_frontend(use_acc: bool, faults: Option<Arc<FaultInjector>>) -> Frontend {
    let kit = TpccKit::new(Scale::test(), 31, 5);
    let cc: Arc<dyn ConcurrencyControl> = if use_acc {
        kit.acc()
    } else {
        Arc::new(TwoPhase)
    };
    let mut shared =
        SharedDb::new(kit.base(), kit.tables() as _).with_wait_cap(Duration::from_secs(20));
    if let Some(faults) = faults {
        shared = shared.with_fault_injector(faults);
    }
    let host = WorkloadHost::new(Mix::Tpcc, Box::new(kit), cc);
    Frontend::start(shared, Box::new(host), &config(6, RetryPolicy::standard()))
}

const TPCC_RUN: ClosedLoopConfig = ClosedLoopConfig {
    terminals: 6,
    duration: Duration::from_millis(700),
    think_time: Duration::from_millis(2),
    seed: 77,
};

fn tpcc_soak(use_acc: bool) {
    let (report, shared) = drive(tpcc_frontend(use_acc, None), &TPCC_RUN);
    assert!(report.committed > 20, "{report:?}");
    let v = consistency::check(&shared.snapshot_db(), !use_acc);
    assert!(v.is_empty(), "{v:#?}");
}

#[test]
fn tpcc_two_phase_soak() {
    tpcc_soak(false);
}

#[test]
fn tpcc_acc_soak() {
    tpcc_soak(true);
}

/// Spurious-wakeup storm: every second lock wait is woken early by the fault
/// injector. Blocked waiters must re-check and re-sleep without ever being
/// granted a lock they don't hold — throughput may dip, consistency may not.
#[test]
fn tpcc_acc_survives_spurious_wakeups() {
    let faults = FaultInjector::with_plan(FaultPlan::spurious_wakes(2));
    let frontend = tpcc_frontend(true, Some(Arc::clone(&faults)));
    let (report, shared) = drive(frontend, &TPCC_RUN);
    assert!(report.committed > 20, "{report:?}");
    let counters = faults.counters();
    assert!(
        counters.spurious_wakes > 0,
        "storm never fired (lock_waits = {})",
        counters.lock_waits
    );
    let v = consistency::check(&shared.snapshot_db(), false);
    assert!(v.is_empty(), "{v:#?}");
}

/// A short 8-terminal burn of a family under its inferred tables.
const BURN: ClosedLoopConfig = ClosedLoopConfig {
    terminals: 8,
    duration: Duration::from_millis(200),
    think_time: Duration::ZERO,
    seed: 0,
};

#[test]
fn smallbank_eight_terminal_burn() {
    let frontend = Frontend::smallbank(12, &config(8, RetryPolicy::standard()));
    let (report, shared) = drive(
        frontend,
        &ClosedLoopConfig {
            seed: 0xCAFE,
            ..BURN
        },
    );
    assert!(report.committed > 0, "nothing committed");
    let violations = smallbank::audit(&shared.snapshot_db());
    assert!(violations.is_empty(), "{violations:?}");
}

#[test]
fn saga_eight_terminal_burn() {
    let frontend = Frontend::saga(8, 6, &config(8, RetryPolicy::standard()));
    let (report, shared) = drive(
        frontend,
        &ClosedLoopConfig {
            seed: 0xFEED,
            ..BURN
        },
    );
    assert!(report.committed > 0, "nothing committed");
    let violations = saga::audit(&shared.snapshot_db());
    assert!(violations.is_empty(), "{violations:?}");
}

/// The same family under strict 2PL, passed in as a plain policy value:
/// with engine retry disabled every rollback is final, so the server
/// reports no engine retries.
#[test]
fn smallbank_under_two_phase_without_engine_retry() {
    let kit = smallbank::SmallbankKit::build(16);
    let shared = SharedDb::new(smallbank::populate(16), Arc::clone(&kit.tables) as _);
    let host = WorkloadHost::new(Mix::Smallbank, Box::new(kit), Arc::new(TwoPhase));
    let frontend = Frontend::start(shared, Box::new(host), &config(4, RetryPolicy::disabled()));
    let run = ClosedLoopConfig {
        terminals: 4,
        duration: Duration::from_millis(300),
        think_time: Duration::from_millis(1),
        seed: 7,
    };
    let (report, shared) = drive(frontend, &run);
    assert!(report.committed > 0, "{report:?}");
    assert_eq!(
        report.engine_retries, 0,
        "retry disabled but the engine resubmitted"
    );
    let violations = smallbank::audit(&shared.snapshot_db());
    assert!(violations.is_empty(), "{violations:?}");
}
