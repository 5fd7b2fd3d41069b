//! Behavioural properties checked against the observability event stream
//! (DESIGN.md §5, paper §3.4 and §5.1) rather than inferred from end state.

use assertional_acc::common::events::{Event, EventLog, EventSink};
use assertional_acc::prelude::*;
use assertional_acc::tpcc::{
    self,
    decompose::step,
    input::{CustomerSelector, NewOrderInput, OrderLineInput, OrderStatusInput, PaymentInput},
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn fresh_shared(sys: &tpcc::TpccSystem, seed: u64) -> Arc<SharedDb> {
    let scale = tpcc::Scale::test();
    let mut db = Database::new(&tpcc::tpcc_catalog());
    tpcc::populate(&mut db, &scale, seed);
    Arc::new(SharedDb::new(db, Arc::clone(&sys.tables) as _))
}

/// Paper §3.4 as a property over random contended histories: compensating
/// steps never wait on assertional locks, are never chosen as deadlock
/// victims, and no write is ever granted against an interfering pinned
/// assertion — all checked from the captured event stream.
#[test]
fn compensation_properties_hold_under_contention() {
    let sys = tpcc::TpccSystem::build();
    for seed in [11u64, 23, 37] {
        let shared = fresh_shared(&sys, seed);
        let sink = EventSink::enabled(1 << 16);
        shared.set_event_sink(Arc::clone(&sink));
        let gen = Arc::new(tpcc::InputGen::new(
            tpcc::TpccConfig::standard(tpcc::Scale::test()),
            seed,
        ));

        let mut handles = Vec::new();
        for worker in 0..4u64 {
            let shared = Arc::clone(&shared);
            let gen = Arc::clone(&gen);
            let acc: Arc<dyn ConcurrencyControl> = Arc::clone(&sys.acc) as _;
            handles.push(std::thread::spawn(move || {
                let mut rng = acc_common::rng::SeededRng::new(seed ^ ((worker + 1) * 0x9e37));
                for j in 0..24 {
                    // Every third transaction is a new-order that aborts
                    // after its last line, forcing a full compensation pass
                    // under live contention.
                    let mut program: Box<dyn TxnProgram + Send> = if j % 3 == 0 {
                        let mut input = gen.new_order(&mut rng);
                        input.rollback = true;
                        Box::new(tpcc::txns::NewOrder::new(input))
                    } else {
                        tpcc::txns::program_for(gen.next_input(&mut rng), 3)
                    };
                    for _ in 0..30 {
                        match run(&shared, &*acc, program.as_mut(), WaitMode::Block)
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

        let c = sink.counters();
        assert!(
            c.compensations > 0,
            "seed {seed}: the workload never compensated — property not exercised"
        );
        let log = EventLog::capture(&sink);
        log.assert_compensation_never_waits_on_assertions();
        log.assert_compensation_never_victimized();
        log.assert_writes_respect_assertions(|s, t| sys.tables.write_interferes(s, t));

        let violations = tpcc::consistency::check(&shared.snapshot_db(), false);
        assert!(violations.is_empty(), "seed {seed}: {violations:#?}");
    }
}

/// Paper §5.1: the new-order/payment district-row conflict. Under the ACC the
/// two interleave — payment's district write is granted *through* new-order's
/// pinned uncommitted-data guard because the interference table declares ytd
/// additions safe. A committed reader (order-status) now proceeds too: its
/// reads are served coordination-free from the row version chains at its
/// begin-LSN view, so it sees exactly the committed pre-new-order state
/// without ever touching the lock manager. Withdrawing the `version_safe`
/// declaration restores §5.1's original counter-example: the same reader
/// takes a real interference hit on the DIRTY pin and blocks until commit.
#[test]
fn district_conflict_interleaves_under_acc() {
    let sys = tpcc::TpccSystem::build();
    let shared = fresh_shared(&sys, 5);
    let sink = EventSink::enabled(4096);
    shared.set_event_sink(Arc::clone(&sink));

    // The committed answer before any of this starts: the customer's last
    // order as populated.
    let mut baseline = tpcc::txns::OrderStatus::new(OrderStatusInput {
        w_id: 1,
        d_id: 1,
        customer: CustomerSelector::ById(2),
    });
    run(&shared, &*sys.acc, &mut baseline, WaitMode::Block).expect("baseline order-status");
    let committed_last = baseline.last_order;

    // Start a new-order and stop it after its header step: the district row
    // (d_next_o_id) and the new order header are written and DIRTY-pinned,
    // conventional locks released at the step boundary.
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
                qty: 1,
            },
        ],
        rollback: false,
    });
    let mut txn = Transaction::new(
        shared.begin_txn(tpcc::decompose::ty::NEW_ORDER),
        tpcc::decompose::ty::NEW_ORDER,
    );
    {
        let mut ctx = StepCtx::new(&shared, &*sys.acc, &mut txn, WaitMode::Block);
        no.step(0, &mut ctx).expect("new-order header step");
    }
    acc_txn::runner::end_step(&shared, &*sys.acc, &mut txn, no.work_area());

    // Payment on the *same district row*, in fail-fast mode: committing
    // without ever waiting proves the interleave.
    let mut pay = tpcc::txns::Payment::new(PaymentInput {
        w_id: 1,
        d_id: 1,
        c_d_id: 1,
        customer: CustomerSelector::ById(1),
        amount: Decimal::from_int(7),
    });
    let out = run(&shared, &*sys.acc, &mut pay, WaitMode::Fail)
        .expect("payment must not block on the pinned district row");
    assert!(matches!(out, RunOutcome::Committed { .. }));
    let mid = sink.counters();
    assert!(mid.assertion_pins > 0, "new-order pinned no assertions");
    assert_eq!(
        mid.interference_hits, 0,
        "payment vs new-order is declared safe — no hit expected"
    );

    // A committed reader of the same order data no longer needs the lock
    // manager at all: its reads come from the version chains at its begin
    // view. Fail-fast mode proves it never waited, and it must see the
    // committed pre-new-order state, not the pinned uncommitted header.
    let fast_before = sink.counters();
    let mut fast_ost = tpcc::txns::OrderStatus::new(OrderStatusInput {
        w_id: 1,
        d_id: 1,
        customer: CustomerSelector::ById(2),
    });
    let out = run(&shared, &*sys.acc, &mut fast_ost, WaitMode::Fail)
        .expect("version-read order-status must not block on the pinned district");
    assert!(matches!(out, RunOutcome::Committed { .. }));
    let fast_after = sink.counters();
    assert!(
        fast_after.version_reads > fast_before.version_reads,
        "order-status never took the version-read fast path"
    );
    assert_eq!(
        fast_after.version_fallbacks, fast_before.version_fallbacks,
        "a read fell back to the lock manager"
    );
    assert_eq!(
        fast_after.lock_waits, fast_before.lock_waits,
        "the fast path must not wait"
    );
    assert_eq!(
        fast_after.lock_requests, fast_before.lock_requests,
        "the fast path performed lock-manager acquisitions"
    );
    assert_eq!(
        fast_ost.last_order, committed_last,
        "order-status saw uncommitted new-order data"
    );

    // The same program under the same policy minus the `version_safe`
    // declarations is §5.1's original counter-example: the committed reader
    // takes a real interference-table hit on the DIRTY pin and must wait for
    // new-order to finish.
    let no_mvcc: Arc<dyn ConcurrencyControl> = Arc::new(sys.acc.without_version_reads());
    let ost_done = Arc::new(AtomicBool::new(false));
    let ost_handle = {
        let shared = Arc::clone(&shared);
        let acc = Arc::clone(&no_mvcc);
        let done = Arc::clone(&ost_done);
        std::thread::spawn(move || {
            let mut ost = tpcc::txns::OrderStatus::new(OrderStatusInput {
                w_id: 1,
                d_id: 1,
                customer: CustomerSelector::ById(2),
            });
            let out = run(&shared, &*acc, &mut ost, WaitMode::Block).expect("order-status");
            done.store(true, Ordering::SeqCst);
            (out, ost.last_order)
        })
    };
    std::thread::sleep(Duration::from_millis(60));
    assert!(
        !ost_done.load(Ordering::SeqCst),
        "order-status read uncommitted new-order data"
    );

    // Finish the new-order; commit releases the pins and unblocks the reader.
    loop {
        let outcome = {
            let mut ctx = StepCtx::new(&shared, &*sys.acc, &mut txn, WaitMode::Block);
            let i = ctx.step_index();
            no.step(i, &mut ctx).expect("new-order line step")
        };
        match outcome {
            StepOutcome::Continue => {
                acc_txn::runner::end_step(&shared, &*sys.acc, &mut txn, no.work_area());
            }
            StepOutcome::Done => {
                acc_txn::runner::commit(&shared, &mut txn).unwrap();
                break;
            }
            StepOutcome::Abort => panic!("unexpected abort"),
        }
    }
    let (out, slow_last) = ost_handle.join().expect("order-status thread");
    assert!(ost_done.load(Ordering::SeqCst));
    assert!(matches!(out, RunOutcome::Committed { .. }));
    // The blocked reader resumed after commit, so it sees the new order.
    assert_ne!(
        slow_last, committed_last,
        "the post-commit read should include the freshly committed order"
    );

    let log = EventLog::capture(&sink);
    assert!(
        log.any(|e| matches!(
            e,
            Event::VersionRead { table, .. } if *table == tpcc::schema::TABLES.order
        )),
        "no version-read event recorded for the fast reader"
    );
    assert!(
        log.any(|e| matches!(
            e,
            Event::InterferenceHit { step_type, template, .. }
                if *step_type == step::OST && *template == DIRTY
        )),
        "no interference-table hit recorded for the committed reader"
    );
    assert!(
        log.any(|e| matches!(
            e,
            Event::LockWait {
                compensating: false,
                blocked_by_assertion: true,
                ..
            }
        )),
        "order-status never waited on the assertional pin"
    );
    log.assert_writes_respect_assertions(|s, t| sys.tables.write_interferes(s, t));
}

/// The same district conflict under strict 2PL: new-order's held X on the
/// district page serializes payment behind the whole transaction.
#[test]
fn district_conflict_serializes_under_2pl() {
    let sys = tpcc::TpccSystem::build();
    let shared = fresh_shared(&sys, 5);
    let sink = EventSink::enabled(4096);
    shared.set_event_sink(Arc::clone(&sink));

    // In-flight undecomposed new-order: after its first program step it
    // holds conventional locks (district X among them) until commit.
    let mut no = tpcc::txns::NewOrder::new(NewOrderInput {
        w_id: 1,
        d_id: 1,
        c_id: 2,
        lines: vec![OrderLineInput {
            i_id: 1,
            supply_w_id: 1,
            qty: 3,
        }],
        rollback: false,
    });
    let mut txn = Transaction::new(
        shared.begin_txn(tpcc::decompose::ty::NEW_ORDER),
        tpcc::decompose::ty::NEW_ORDER,
    );
    {
        let mut ctx = StepCtx::new(&shared, &TwoPhase, &mut txn, WaitMode::Block);
        no.step(0, &mut ctx).expect("new-order first step");
    }

    // Payment on the same district must block (here: fail fast).
    let mut pay = tpcc::txns::Payment::new(PaymentInput {
        w_id: 1,
        d_id: 1,
        c_d_id: 1,
        customer: CustomerSelector::ById(1),
        amount: Decimal::from_int(7),
    });
    let err = run(&shared, &TwoPhase, &mut pay, WaitMode::Fail)
        .expect_err("payment must block behind 2PL's district lock");
    assert!(matches!(err, Error::WouldBlock { .. }));

    // A read-only order-status is no better off: 2PL has no version-read
    // path, so its order lookup needs S against new-order's held X and
    // blocks for the whole transaction.
    let mut ost = tpcc::txns::OrderStatus::new(OrderStatusInput {
        w_id: 1,
        d_id: 1,
        customer: CustomerSelector::ById(2),
    });
    let err = run(&shared, &TwoPhase, &mut ost, WaitMode::Fail)
        .expect_err("order-status must block behind 2PL's order locks");
    assert!(matches!(err, Error::WouldBlock { .. }));

    let c = sink.counters();
    assert!(c.lock_waits >= 1, "the conflict never produced a wait");
    assert_eq!(c.assertion_pins, 0, "2PL pins no assertions");
    assert_eq!(c.interference_hits, 0);
    assert!(
        EventLog::capture(&sink).any(|e| matches!(
            e,
            Event::LockWait { kind, blocked_by_assertion: false, .. } if kind.is_write_mode()
        )),
        "expected a conventional write-write wait"
    );
    // Roll the new-order back; the same payment now goes through untouched.
    acc_txn::runner::rollback(&shared, &TwoPhase, &mut no, &mut txn).expect("rollback");
    let mut pay2 = tpcc::txns::Payment::new(PaymentInput {
        w_id: 1,
        d_id: 1,
        c_d_id: 1,
        customer: CustomerSelector::ById(1),
        amount: Decimal::from_int(7),
    });
    let out = run(&shared, &TwoPhase, &mut pay2, WaitMode::Fail).expect("payment after release");
    assert!(matches!(out, RunOutcome::Committed { .. }));
}
