//! Cross-crate integration tests: the full stack from workload to WAL.

use assertional_acc::prelude::*;
use assertional_acc::tpcc::{
    self,
    input::{CustomerSelector, NewOrderInput, OrderLineInput, PaymentInput},
};
use assertional_acc::txn::runner::resume_compensation;
use std::sync::Arc;

fn fresh_base(scale: &tpcc::Scale, seed: u64) -> Database {
    let mut db = Database::new(&tpcc::tpcc_catalog());
    tpcc::populate(&mut db, scale, seed);
    db
}

/// Build a short ACC history with committed, aborted and in-flight work,
/// and return its durable WAL image.
fn scripted_history(scale: &tpcc::Scale, sys: &tpcc::TpccSystem) -> Vec<u8> {
    let shared = Arc::new(SharedDb::new(
        fresh_base(scale, 5),
        Arc::clone(&sys.tables) as _,
    ));

    // Committed payment.
    let mut pay = tpcc::txns::Payment::new(PaymentInput {
        w_id: 1,
        d_id: 1,
        c_d_id: 1,
        customer: CustomerSelector::ById(1),
        amount: Decimal::from_int(20),
    });
    run(&shared, &*sys.acc, &mut pay, WaitMode::Block).expect("payment");

    // Committed new-order.
    let mut no = tpcc::txns::NewOrder::new(NewOrderInput {
        w_id: 1,
        d_id: 1,
        c_id: 2,
        lines: vec![
            OrderLineInput {
                i_id: 1,
                supply_w_id: 1,
                qty: 3,
            },
            OrderLineInput {
                i_id: 2,
                supply_w_id: 1,
                qty: 4,
            },
        ],
        rollback: false,
    });
    run(&shared, &*sys.acc, &mut no, WaitMode::Block).expect("new-order");

    // Aborted (compensated) new-order.
    let mut aborted = tpcc::txns::NewOrder::new(NewOrderInput {
        w_id: 1,
        d_id: 2,
        c_id: 3,
        lines: vec![
            OrderLineInput {
                i_id: 3,
                supply_w_id: 1,
                qty: 1,
            },
            OrderLineInput {
                i_id: 4,
                supply_w_id: 1,
                qty: 1,
            },
        ],
        rollback: true,
    });
    run(&shared, &*sys.acc, &mut aborted, WaitMode::Block).expect("aborted new-order");

    // In-flight new-order: header + two line steps durable, third line step
    // half done (one update, no end-of-step).
    let mut inflight = tpcc::txns::NewOrder::new(NewOrderInput {
        w_id: 1,
        d_id: 3,
        c_id: 4,
        lines: (0..5)
            .map(|k| OrderLineInput {
                i_id: 10 + k,
                supply_w_id: 1,
                qty: 2,
            })
            .collect(),
        rollback: false,
    });
    let mut txn = Transaction::new(
        shared.begin_txn(tpcc::decompose::ty::NEW_ORDER),
        tpcc::decompose::ty::NEW_ORDER,
    );
    for _ in 0..3 {
        let mut ctx = StepCtx::new(&shared, &*sys.acc, &mut txn, WaitMode::Block);
        let i = ctx.step_index();
        inflight.step(i, &mut ctx).expect("forward step");
        acc_txn::runner::end_step(&shared, &*sys.acc, &mut txn, inflight.work_area());
    }
    // One more step executed but never ended: its updates are on the log
    // without an end-of-step record — the "incomplete current step" that
    // recovery must discard.
    {
        let mut ctx = StepCtx::new(&shared, &*sys.acc, &mut txn, WaitMode::Block);
        let i = ctx.step_index();
        inflight.step(i, &mut ctx).expect("half-done step");
    }

    shared.wal_bytes()
}

#[test]
fn recovery_is_sound_at_every_crash_point() {
    let scale = tpcc::Scale::test();
    let sys = tpcc::TpccSystem::build();
    let image = scripted_history(&scale, &sys);

    // Sample every 7th byte plus the exact end; each prefix is a possible
    // crash. Recovery + resumed compensation must always restore semantic
    // consistency.
    let cuts: Vec<usize> = (0..=image.len()).step_by(7).chain([image.len()]).collect();
    for cut in cuts {
        let salvaged = Wal::from_bytes(&image[..cut]);
        let mut db = fresh_base(&scale, 5);
        let report = recover(&mut db, &salvaged)
            .unwrap_or_else(|e| panic!("recovery failed at cut {cut}: {e}"));

        let shared = SharedDb::new(db, Arc::clone(&sys.tables) as _);
        let n = resume_compensation(
            &shared,
            &*sys.acc,
            &report.needs_compensation,
            tpcc::txns::program_for_inflight,
        )
        .unwrap_or_else(|e| panic!("compensation failed at cut {cut}: {e}"));
        assert_eq!(n, report.needs_compensation.len());

        let violations = tpcc::consistency::check(&shared.snapshot_db(), false);
        assert!(
            violations.is_empty(),
            "cut {cut}: {} records salvaged, violations {violations:#?}",
            salvaged.len()
        );
    }
}

#[test]
fn full_image_recovery_matches_live_state_for_committed_work() {
    let scale = tpcc::Scale::test();
    let sys = tpcc::TpccSystem::build();
    let image = scripted_history(&scale, &sys);
    let salvaged = Wal::from_bytes(&image);
    let mut db = fresh_base(&scale, 5);
    let report = recover(&mut db, &salvaged).expect("recovery");
    assert_eq!(report.committed.len(), 2, "payment + new-order");
    assert_eq!(report.aborted.len(), 1, "compensated new-order");
    assert_eq!(report.needs_compensation.len(), 1, "in-flight new-order");
    assert!(report.skipped_updates > 0, "half-done step discarded");

    // District 1 committed new-order is present with both lines.
    let t = db.table(tpcc::schema::TABLES.order_line).expect("lines");
    assert_eq!(t.scan_prefix(&Key::ints(&[1, 1, 5])).count(), 2);
}

#[test]
fn mixed_legacy_and_acc_traffic_stays_consistent() {
    use acc_common::rng::SeededRng;
    let scale = tpcc::Scale::test();
    let sys = tpcc::TpccSystem::build();
    let shared = Arc::new(SharedDb::new(
        fresh_base(&scale, 9),
        Arc::clone(&sys.tables) as _,
    ));
    let gen = Arc::new(tpcc::InputGen::new(tpcc::TpccConfig::standard(scale), 3));

    let mut handles = Vec::new();
    // Two ACC workers and one legacy (2PL) worker share the system.
    for worker in 0..3u64 {
        let shared = Arc::clone(&shared);
        let gen = Arc::clone(&gen);
        let acc: Arc<dyn ConcurrencyControl> = Arc::clone(&sys.acc) as _;
        handles.push(std::thread::spawn(move || {
            let legacy = worker == 2;
            let cc: Arc<dyn ConcurrencyControl> = if legacy { Arc::new(TwoPhase) } else { acc };
            let mut rng = SeededRng::new(worker + 70);
            for _ in 0..15 {
                let mut program = tpcc::txns::program_for(gen.next_input(&mut rng), 3);
                for _ in 0..30 {
                    match run(&shared, &*cc, program.as_mut(), WaitMode::Block)
                        .expect("no hard errors")
                    {
                        RunOutcome::RolledBack(AbortReason::Deadlock)
                        | RunOutcome::RolledBack(AbortReason::Doomed) => continue,
                        _ => break,
                    }
                }
            }
        }));
    }
    for h in handles {
        h.join().expect("worker");
    }
    let violations = tpcc::consistency::check(&shared.snapshot_db(), false);
    assert!(violations.is_empty(), "{violations:#?}");
    assert_eq!(shared.total_grants(), 0);
}

#[test]
fn facade_prelude_compiles_and_runs() {
    // Minimal end-to-end through the re-exports only.
    let mut catalog = Catalog::new();
    let t = catalog.add_table(
        TableSchema::builder("kv")
            .column("k", ColumnType::Int)
            .column("v", ColumnType::Str)
            .key(&["k"])
            .build(),
    );
    let db = Database::new(&catalog);
    let shared = SharedDb::new(db, Arc::new(NoInterference));

    struct Put;
    impl TxnProgram for Put {
        fn txn_type(&self) -> TxnTypeId {
            TxnTypeId(0)
        }
        fn step(&mut self, _i: u32, ctx: &mut StepCtx<'_>) -> Result<StepOutcome> {
            ctx.insert(TableId(0), Row(vec![Value::Int(1), Value::str("hello")]))?;
            Ok(StepOutcome::Done)
        }
    }
    let out = run(&shared, &TwoPhase, &mut Put, WaitMode::Block).expect("put");
    assert!(matches!(out, RunOutcome::Committed { .. }));
    assert_eq!(shared.table(t).expect("kv").len(), 1);
}
