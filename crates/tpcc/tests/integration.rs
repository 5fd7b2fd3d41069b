//! End-to-end TPC-C runs under strict 2PL and under the ACC, with the
//! consistency conditions checked at quiescence.

use acc_common::rng::SeededRng;
use acc_common::{Decimal, FaultInjector, FaultPlan};
use acc_engine::{Stepper, StepperConfig};
use acc_lockmgr::InstallOutcome;
use acc_storage::{Database, Key};
use acc_tpcc::consistency;
use acc_tpcc::decompose::{TableEdit, TpccSystem};
use acc_tpcc::input::{
    CustomerSelector, DeliveryInput, InputGen, NewOrderInput, OrderLineInput, PaymentInput,
    StockLevelInput, TpccConfig, TxnInput,
};
use acc_tpcc::populate;
use acc_tpcc::schema::{col, tpcc_catalog, Scale, TABLES};
use acc_tpcc::txns::{self, program_for};
use acc_txn::{
    run, AbortReason, ConcurrencyControl, RunOutcome, SharedDb, TwoPhase, TxnProgram, WaitMode,
};
use std::sync::{Arc, Mutex};
use std::time::Duration;

fn system(scale: Scale, seed: u64) -> (Arc<SharedDb>, TpccSystem) {
    let sys = TpccSystem::build();
    let cat = tpcc_catalog();
    let mut db = Database::new(&cat);
    populate(&mut db, &scale, seed);
    let shared = Arc::new(
        SharedDb::new(db, Arc::clone(&sys.tables) as _).with_wait_cap(Duration::from_secs(20)),
    );
    (shared, sys)
}

fn assert_consistent(shared: &SharedDb, strict: bool) {
    let v = consistency::check(&shared.snapshot_db(), strict);
    assert!(v.is_empty(), "consistency violations: {v:#?}");
    assert_eq!(shared.total_grants(), 0, "lock table drained");
}

fn run_with_resubmit(
    shared: &SharedDb,
    cc: &dyn ConcurrencyControl,
    mut program: Box<dyn TxnProgram + Send>,
) -> RunOutcome {
    for _ in 0..30 {
        match run(shared, cc, program.as_mut(), WaitMode::Block).expect("no hard errors") {
            RunOutcome::RolledBack(AbortReason::Deadlock)
            | RunOutcome::RolledBack(AbortReason::Doomed) => continue,
            outcome => return outcome,
        }
    }
    panic!("transaction could not complete after 30 resubmissions");
}

#[test]
fn each_transaction_type_runs_under_2pl() {
    let (shared, _sys) = system(Scale::test(), 1);

    let mut no = txns::NewOrder::new(NewOrderInput {
        w_id: 1,
        d_id: 1,
        c_id: 3,
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
    let out = run(&shared, &TwoPhase, &mut no, WaitMode::Block).unwrap();
    assert!(matches!(out, RunOutcome::Committed { .. }));
    assert_eq!(no.o_id, Some(5)); // 4 initial orders
    assert!(no.total.is_some());

    let mut pay = txns::Payment::new(PaymentInput {
        w_id: 1,
        d_id: 1,
        c_d_id: 1,
        customer: CustomerSelector::ById(3),
        amount: Decimal::from_int(100),
    });
    let out = run(&shared, &TwoPhase, &mut pay, WaitMode::Block).unwrap();
    assert!(matches!(out, RunOutcome::Committed { .. }));

    let mut pay_by_name = txns::Payment::new(PaymentInput {
        w_id: 1,
        d_id: 1,
        c_d_id: 1,
        customer: CustomerSelector::ByLastName(acc_tpcc::populate::last_name(2)),
        amount: Decimal::from_int(50),
    });
    let out = run(&shared, &TwoPhase, &mut pay_by_name, WaitMode::Block).unwrap();
    assert!(matches!(out, RunOutcome::Committed { .. }));
    assert_eq!(pay_by_name.c_id, Some(3)); // name #2 belongs to customer 3

    let mut ost = txns::OrderStatus::new(acc_tpcc::input::OrderStatusInput {
        w_id: 1,
        d_id: 1,
        customer: CustomerSelector::ById(3),
    });
    let out = run(&shared, &TwoPhase, &mut ost, WaitMode::Block).unwrap();
    assert!(matches!(out, RunOutcome::Committed { .. }));
    assert!(ost.balance.is_some());

    let mut dlv = txns::Delivery::new(
        DeliveryInput {
            w_id: 1,
            carrier_id: 7,
        },
        3,
    );
    let out = run(&shared, &TwoPhase, &mut dlv, WaitMode::Block).unwrap();
    assert!(matches!(out, RunOutcome::Committed { .. }));
    assert_eq!(dlv.delivered.len(), 3, "one order per district");

    let mut stk = txns::StockLevel::new(StockLevelInput {
        w_id: 1,
        d_id: 1,
        threshold: 50,
    });
    let out = run(&shared, &TwoPhase, &mut stk, WaitMode::Block).unwrap();
    assert!(matches!(out, RunOutcome::Committed { .. }));
    assert!(stk.low_stock.is_some());

    assert_consistent(&shared, true);
}

#[test]
fn new_order_rollback_compensates_under_acc() {
    let (shared, sys) = system(Scale::test(), 2);
    let stock = shared.table(TABLES.stock).unwrap();
    let stock_before: i64 = stock.iter().map(|(_, r)| r.int(col::s::QUANTITY)).sum();

    let mut no = txns::NewOrder::new(NewOrderInput {
        w_id: 1,
        d_id: 2,
        c_id: 1,
        lines: vec![
            OrderLineInput {
                i_id: 5,
                supply_w_id: 1,
                qty: 2,
            },
            OrderLineInput {
                i_id: 6,
                supply_w_id: 1,
                qty: 2,
            },
            OrderLineInput {
                i_id: 7,
                supply_w_id: 1,
                qty: 2,
            },
        ],
        rollback: true,
    });
    let out = run(&shared, &*sys.acc, &mut no, WaitMode::Block).unwrap();
    assert_eq!(out, RunOutcome::RolledBack(AbortReason::UserAbort));

    let db = shared.snapshot_db();
    // Order gone, lines gone, stock restored.
    assert!(db
        .table(TABLES.order)
        .unwrap()
        .get(&Key::ints(&[1, 2, 5]))
        .is_none());
    let stock_after: i64 = db
        .table(TABLES.stock)
        .unwrap()
        .iter()
        .map(|(_, r)| r.int(col::s::QUANTITY))
        .sum();
    assert_eq!(stock_after, stock_before);
    // The order id was consumed (gap allowed under semantic correctness).
    let d = db
        .table(TABLES.district)
        .unwrap()
        .get(&Key::ints(&[1, 2]))
        .unwrap()
        .1
        .clone();
    assert_eq!(d.int(col::d::NEXT_O_ID), 6);
    assert_consistent(&shared, false);
}

fn threaded_mix(cc_name: &str, strict: bool) {
    let scale = Scale::test();
    let (shared, sys) = system(scale, 3);
    let cc: Arc<dyn ConcurrencyControl> = if cc_name == "acc" {
        Arc::clone(&sys.acc) as _
    } else {
        Arc::new(TwoPhase)
    };
    let gen = Arc::new(InputGen::new(TpccConfig::standard(scale), 9));

    let mut handles = Vec::new();
    for t in 0..4u64 {
        let shared = Arc::clone(&shared);
        let cc = Arc::clone(&cc);
        let gen = Arc::clone(&gen);
        handles.push(std::thread::spawn(move || {
            let mut rng = SeededRng::new(100 + t);
            let mut committed = 0;
            for _ in 0..20 {
                let input = gen.next_input(&mut rng);
                let program = program_for(input, 3);
                if matches!(
                    run_with_resubmit(&shared, &*cc, program),
                    RunOutcome::Committed { .. }
                ) {
                    committed += 1;
                }
            }
            committed
        }));
    }
    let committed: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(committed > 40, "only {committed} commits");
    assert_consistent(&shared, strict);
}

#[test]
fn threaded_mix_under_2pl_is_strictly_consistent() {
    threaded_mix("2pl", true);
}

#[test]
fn threaded_mix_under_acc_is_semantically_consistent() {
    threaded_mix("acc", false);
}

#[test]
fn stepper_explores_acc_interleavings_consistently() {
    for seed in [1u64, 7, 23, 99] {
        let scale = Scale::test();
        let (shared, sys) = system(scale, 4);
        let gen = InputGen::new(TpccConfig::standard(scale), seed);
        let mut rng = SeededRng::new(seed * 31);
        let mut programs: Vec<Box<dyn TxnProgram>> = (0..10)
            .map(|_| {
                let input = gen.next_input(&mut rng);
                let b: Box<dyn TxnProgram> = match input {
                    TxnInput::NewOrder(i) => Box::new(txns::NewOrder::new(i)),
                    TxnInput::Payment(i) => Box::new(txns::Payment::new(i)),
                    TxnInput::OrderStatus(i) => Box::new(txns::OrderStatus::new(i)),
                    TxnInput::Delivery(i) => Box::new(txns::Delivery::new(i, 3)),
                    TxnInput::StockLevel(i) => Box::new(txns::StockLevel::new(i)),
                };
                b
            })
            .collect();
        let mut stepper = Stepper::new(&shared, &*sys.acc);
        let report = stepper
            .run_all(
                &mut programs,
                &StepperConfig {
                    seed,
                    max_resubmits: 40,
                },
            )
            .unwrap();
        // All transactions reached a final state.
        assert_eq!(report.outcomes.len(), 10);
        assert_consistent(&shared, false);
    }
}

#[test]
fn deliveries_drain_new_orders() {
    let (shared, sys) = system(Scale::test(), 5);
    // 4 initial orders per district, 3 districts: 2 deliveries drain at most
    // 2 per district; run 5 to fully drain.
    for _ in 0..5 {
        let program = Box::new(txns::Delivery::new(
            DeliveryInput {
                w_id: 1,
                carrier_id: 1,
            },
            3,
        ));
        run_with_resubmit(&shared, &*sys.acc, program);
    }
    let db = shared.snapshot_db();
    assert_eq!(db.table(TABLES.new_order).unwrap().len(), 0);
    // Every order is delivered and every line stamped.
    for (_, o) in db.table(TABLES.order).unwrap().iter() {
        assert!(!o.is_null(col::o::CARRIER_ID));
    }
    for (_, l) in db.table(TABLES.order_line).unwrap().iter() {
        assert!(!l.is_null(col::ol::DELIVERY_D));
    }
    assert_consistent(&shared, true);
}

#[test]
fn legacy_reporting_txn_sees_consistent_totals_during_acc_mix() {
    // A 2PL (legacy) transaction summing a district's YTD against its
    // history must always see a consistent snapshot, even while decomposed
    // payments run — the DIRTY pins isolate it (§3.3).
    use acc_common::{Result, TxnTypeId};
    use acc_txn::{StepCtx, StepOutcome};

    struct Audit {
        d_id: i64,
        consistent: bool,
    }
    impl TxnProgram for Audit {
        fn txn_type(&self) -> TxnTypeId {
            TxnTypeId(90)
        }
        fn step(&mut self, _i: u32, ctx: &mut StepCtx<'_>) -> Result<StepOutcome> {
            let d = ctx.read_existing(TABLES.district, &Key::ints(&[1, self.d_id]))?;
            let ytd = d.decimal(col::d::YTD);
            let hist = ctx.scan(
                TABLES.history,
                &acc_storage::Predicate::eq(col::h::C_D_ID, self.d_id),
            )?;
            let sum: Decimal = hist.iter().map(|(_, h)| h.decimal(col::h::AMOUNT)).sum();
            self.consistent = ytd == sum;
            Ok(StepOutcome::Done)
        }
    }

    let scale = Scale::test();
    let (shared, sys) = system(scale, 6);
    let gen = Arc::new(InputGen::new(TpccConfig::standard(scale), 17));

    let mut handles = Vec::new();
    for t in 0..2u64 {
        let shared = Arc::clone(&shared);
        let acc = Arc::clone(&sys.acc);
        let gen = Arc::clone(&gen);
        handles.push(std::thread::spawn(move || {
            let mut rng = SeededRng::new(t + 40);
            for _ in 0..15 {
                let p = Box::new(txns::Payment::new(gen.payment(&mut rng)));
                run_with_resubmit(&shared, &*acc, p);
            }
        }));
    }
    // Interleave audits with the payment storm.
    for _ in 0..10 {
        let mut audit2 = Audit {
            d_id: 1,
            consistent: false,
        };
        loop {
            match run(&shared, &TwoPhase, &mut audit2, WaitMode::Block).unwrap() {
                RunOutcome::Committed { .. } => break,
                RunOutcome::RolledBack(_) => continue,
            }
        }
        assert!(audit2.consistent, "audit saw torn payment state");
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_consistent(&shared, true);
}

#[test]
fn stepper_drains_an_epoch_switchover_mid_run() {
    // Re-analyzed tables land at a step boundary while the deterministic
    // scheduler has transactions in flight. They hold epoch pins, so the
    // install drains behind them, and `Fail`-mode admissions wait it out:
    // exactly one switch completes, and no step ever runs under a stale
    // epoch.
    let scale = Scale::test();
    let sys = TpccSystem::build();
    let mut db = Database::new(&tpcc_catalog());
    populate(&mut db, &scale, 4);
    // The step observer rides an enabled injector with an empty plan.
    let faults = FaultInjector::with_plan(FaultPlan::default());
    let shared = Arc::new(
        SharedDb::new(db, Arc::clone(&sys.tables) as _).with_fault_injector(Arc::clone(&faults)),
    );
    let audit = TpccSystem::reanalyze(TableEdit::AddAudit).tables;
    let installed = Arc::new(Mutex::new(None));
    let (sh, out) = (Arc::clone(&shared), Arc::clone(&installed));
    faults.set_step_observer(Some(Box::new(move |count| {
        if count == 5 {
            *out.lock().unwrap() = Some(sh.install_oracle(Arc::clone(&audit) as _));
        }
    })));
    let gen = InputGen::new(TpccConfig::standard(scale), 7);
    let mut rng = SeededRng::new(7 * 31);
    let mut programs: Vec<Box<dyn TxnProgram>> = (0..10)
        .map(|_| program_for(gen.next_input(&mut rng), scale.districts) as _)
        .collect();
    let report = Stepper::new(&shared, &*sys.acc)
        .run_all(
            &mut programs,
            &StepperConfig {
                seed: 7,
                max_resubmits: 40,
            },
        )
        .unwrap();
    // Dropping the observer breaks its `Arc<SharedDb>` cycle.
    faults.set_step_observer(None);

    assert!(
        matches!(
            *installed.lock().unwrap(),
            Some(InstallOutcome::Draining { .. })
        ),
        "the install must drain behind the in-flight pins: {:?}",
        installed.lock().unwrap()
    );
    let reg = shared.registry();
    assert_eq!(reg.switches(), 1);
    assert_eq!(reg.mixed_epoch_lookups(), 0);
    assert_eq!(reg.pins(), 0);
    assert_eq!(report.outcomes.len(), 10);
    assert_consistent(&shared, false);
}
