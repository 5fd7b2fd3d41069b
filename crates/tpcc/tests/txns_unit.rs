//! Direct behavioural tests of the five TPC-C transaction programs.

use acc_common::{Decimal, Value};
use acc_storage::{Database, Key};
use acc_tpcc::decompose::TpccSystem;
use acc_tpcc::input::{
    CustomerSelector, DeliveryInput, NewOrderInput, OrderLineInput, OrderStatusInput, PaymentInput,
    StockLevelInput,
};
use acc_tpcc::populate::{self, last_name};
use acc_tpcc::schema::{col, tpcc_catalog, Scale, TABLES};
use acc_tpcc::txns;
use acc_txn::{run, RunOutcome, SharedDb, TwoPhase, WaitMode};
use std::sync::Arc;

fn shared(seed: u64) -> Arc<SharedDb> {
    let sys = TpccSystem::build();
    let mut db = Database::new(&tpcc_catalog());
    populate::populate(&mut db, &Scale::test(), seed);
    Arc::new(SharedDb::new(db, Arc::clone(&sys.tables) as _))
}

#[test]
fn new_order_math_matches_spec() {
    let s = shared(1);
    // Pin the tax/discount/price environment so the total is checkable.
    let t = s.table(TABLES.warehouse).unwrap();
    t.update_with(0, |r| {
        r.set(col::w::TAX, Value::Decimal(Decimal::from_units(1000))); // 10%
    })
    .unwrap();
    let t = s.table(TABLES.district).unwrap();
    let d_slot = t.slot_of(&Key::ints(&[1, 1])).unwrap();
    t.update_with(d_slot, |r| {
        r.set(col::d::TAX, Value::Decimal(Decimal::from_units(500))); // 5%
    })
    .unwrap();
    let t = s.table(TABLES.customer).unwrap();
    let c_slot = t.slot_of(&Key::ints(&[1, 1, 2])).unwrap();
    t.update_with(c_slot, |r| {
        r.set(col::c::DISCOUNT, Value::Decimal(Decimal::from_units(2000)));
        // 20%
    })
    .unwrap();
    let t = s.table(TABLES.item).unwrap();
    for item in [1i64, 2] {
        let i_slot = t.slot_of(&Key::ints(&[item])).unwrap();
        t.update_with(i_slot, |r| {
            r.set(col::i::PRICE, Value::Decimal(Decimal::from_int(10)));
        })
        .unwrap();
    }

    let mut no = txns::NewOrder::new(NewOrderInput {
        w_id: 1,
        d_id: 1,
        c_id: 2,
        lines: vec![
            OrderLineInput {
                i_id: 1,
                supply_w_id: 1,
                qty: 2,
            }, // 20.00
            OrderLineInput {
                i_id: 2,
                supply_w_id: 1,
                qty: 3,
            }, // 30.00
        ],
        rollback: false,
    });
    let out = run(&s, &TwoPhase, &mut no, WaitMode::Block).unwrap();
    assert!(matches!(out, RunOutcome::Committed { .. }));
    // total = 50 * (1 + 0.10 + 0.05) * (1 - 0.20) = 50 * 1.15 * 0.8 = 46.
    assert_eq!(no.total, Some(Decimal::from_int(46)));
    assert_eq!(
        no.amounts,
        vec![Decimal::from_int(20), Decimal::from_int(30)]
    );
}

#[test]
fn new_order_stock_91_rule() {
    let s = shared(2);
    // Force a known stock level below the reorder threshold.
    let t = s.table(TABLES.stock).unwrap();
    let slot = t.slot_of(&Key::ints(&[1, 5])).unwrap();
    t.update_with(slot, |r| {
        r.set(col::s::QUANTITY, Value::Int(12));
    })
    .unwrap();
    let mut no = txns::NewOrder::new(NewOrderInput {
        w_id: 1,
        d_id: 1,
        c_id: 1,
        lines: vec![OrderLineInput {
            i_id: 5,
            supply_w_id: 1,
            qty: 4,
        }],
        rollback: false,
    });
    run(&s, &TwoPhase, &mut no, WaitMode::Block).unwrap();
    let stock = s
        .table(TABLES.stock)
        .unwrap()
        .get(&Key::ints(&[1, 5]))
        .unwrap()
        .1;
    // 12 - 4 = 8 < 10 → +91 ⇒ 99 (spec §2.4.2.2).
    assert_eq!(stock.int(col::s::QUANTITY), 99);
    assert_eq!(stock.int(col::s::YTD), 4);
    assert_eq!(stock.int(col::s::ORDER_CNT), 1);
}

#[test]
fn payment_by_last_name_picks_middle_match() {
    let s = shared(3);
    // Scale::test gives each district customers named last_name(0..11) for
    // c_id 1..12 — every name is unique, so "middle match" is that customer.
    let mut pay = txns::Payment::new(PaymentInput {
        w_id: 1,
        d_id: 2,
        c_d_id: 2,
        customer: CustomerSelector::ByLastName(last_name(7)),
        amount: Decimal::from_int(10),
    });
    run(&s, &TwoPhase, &mut pay, WaitMode::Block).unwrap();
    assert_eq!(pay.c_id, Some(8));
    let cust = s
        .table(TABLES.customer)
        .unwrap()
        .get(&Key::ints(&[1, 2, 8]))
        .unwrap()
        .1;
    assert_eq!(cust.decimal(col::c::BALANCE), Decimal::from_int(-10));
    assert_eq!(cust.decimal(col::c::YTD_PAYMENT), Decimal::from_int(10));
    assert_eq!(cust.int(col::c::PAYMENT_CNT), 1);
    assert_eq!(s.table(TABLES.history).unwrap().len(), 1);
}

#[test]
fn payment_missing_name_rolls_back_cleanly() {
    let s = shared(4);
    let ytd_before = s
        .table(TABLES.warehouse)
        .unwrap()
        .get(&Key::ints(&[1]))
        .unwrap()
        .1
        .decimal(col::w::YTD);
    let mut pay = txns::Payment::new(PaymentInput {
        w_id: 1,
        d_id: 1,
        c_d_id: 1,
        customer: CustomerSelector::ByLastName("NOSUCHNAME".into()),
        amount: Decimal::from_int(10),
    });
    let err = run(&s, &TwoPhase, &mut pay, WaitMode::Block).unwrap_err();
    assert!(matches!(err, acc_common::Error::NotFound(_)));
    // Step-0 effects (w_ytd/d_ytd) were rolled back physically.
    let ytd = s
        .table(TABLES.warehouse)
        .unwrap()
        .get(&Key::ints(&[1]))
        .unwrap()
        .1
        .decimal(col::w::YTD);
    assert_eq!(ytd, ytd_before);
    assert_eq!(s.total_grants(), 0);
}

#[test]
fn order_status_reports_last_order() {
    let s = shared(5);
    // Give customer 1 of district 1 two orders; the initial population may
    // have given them some too — new ones get higher ids.
    for _ in 0..2 {
        let mut no = txns::NewOrder::new(NewOrderInput {
            w_id: 1,
            d_id: 1,
            c_id: 1,
            lines: vec![
                OrderLineInput {
                    i_id: 1,
                    supply_w_id: 1,
                    qty: 1,
                },
                OrderLineInput {
                    i_id: 2,
                    supply_w_id: 1,
                    qty: 1,
                },
                OrderLineInput {
                    i_id: 3,
                    supply_w_id: 1,
                    qty: 1,
                },
            ],
            rollback: false,
        });
        run(&s, &TwoPhase, &mut no, WaitMode::Block).unwrap();
    }
    let mut ost = txns::OrderStatus::new(OrderStatusInput {
        w_id: 1,
        d_id: 1,
        customer: CustomerSelector::ById(1),
    });
    run(&s, &TwoPhase, &mut ost, WaitMode::Block).unwrap();
    let (o_id, n_lines) = ost.last_order.expect("customer has orders");
    assert_eq!(o_id, 6, "4 initial orders + 2 new; last is 6");
    assert_eq!(n_lines, 3);
    assert!(ost.balance.is_some());
}

#[test]
fn delivery_processes_oldest_first_and_credits_customer() {
    let s = shared(6);
    let db = s.snapshot_db();
    let (oldest, c_id, amount) = {
        let oldest = db
            .table(TABLES.new_order)
            .unwrap()
            .scan_prefix(&Key::ints(&[1, 1]))
            .next()
            .map(|(_, r)| r.int(col::no::O_ID))
            .unwrap();
        let order = db
            .table(TABLES.order)
            .unwrap()
            .get(&Key::ints(&[1, 1, oldest]))
            .unwrap()
            .1
            .clone();
        let amount: Decimal = db
            .table(TABLES.order_line)
            .unwrap()
            .scan_prefix(&Key::ints(&[1, 1, oldest]))
            .map(|(_, l)| l.decimal(col::ol::AMOUNT))
            .sum();
        (oldest, order.int(col::o::C_ID), amount)
    };

    let mut dlv = txns::Delivery::new(
        DeliveryInput {
            w_id: 1,
            carrier_id: 3,
        },
        3,
    );
    run(&s, &TwoPhase, &mut dlv, WaitMode::Block).unwrap();
    assert!(dlv.delivered.contains(&(1, oldest)));
    let db = s.snapshot_db();
    let order = db
        .table(TABLES.order)
        .unwrap()
        .get(&Key::ints(&[1, 1, oldest]))
        .unwrap()
        .1
        .clone();
    assert_eq!(order.int(col::o::CARRIER_ID), 3);
    let cust = db
        .table(TABLES.customer)
        .unwrap()
        .get(&Key::ints(&[1, 1, c_id]))
        .unwrap()
        .1
        .clone();
    assert_eq!(cust.decimal(col::c::BALANCE), amount);
    assert_eq!(cust.int(col::c::DELIVERY_CNT), 1);
    // The NEW-ORDER row is gone.
    assert!(db
        .table(TABLES.new_order)
        .unwrap()
        .get(&Key::ints(&[1, 1, oldest]))
        .is_none());
}

#[test]
fn delivery_skips_empty_districts() {
    let s = shared(7);
    // Drain district 2 completely first.
    for _ in 0..4 {
        let mut d = txns::Delivery::new(
            DeliveryInput {
                w_id: 1,
                carrier_id: 1,
            },
            3,
        );
        run(&s, &TwoPhase, &mut d, WaitMode::Block).unwrap();
    }
    // Now a delivery on the empty warehouse: commits, delivers nothing.
    let mut d = txns::Delivery::new(
        DeliveryInput {
            w_id: 1,
            carrier_id: 1,
        },
        3,
    );
    let out = run(&s, &TwoPhase, &mut d, WaitMode::Block).unwrap();
    assert!(matches!(out, RunOutcome::Committed { .. }));
    assert!(d.delivered.is_empty());
}

#[test]
fn stock_level_counts_below_threshold() {
    let s = shared(8);
    // Set every stock row's quantity to 50, then drop a couple of recently
    // ordered items below threshold.
    let t = s.table(TABLES.stock).unwrap();
    let slots: Vec<_> = t.iter().map(|(s, _)| s).collect();
    for slot in slots {
        t.update_with(slot, |r| {
            r.set(col::s::QUANTITY, Value::Int(50));
        })
        .unwrap();
    }
    let mut no = txns::NewOrder::new(NewOrderInput {
        w_id: 1,
        d_id: 1,
        c_id: 1,
        lines: vec![
            OrderLineInput {
                i_id: 7,
                supply_w_id: 1,
                qty: 1,
            },
            OrderLineInput {
                i_id: 8,
                supply_w_id: 1,
                qty: 1,
            },
        ],
        rollback: false,
    });
    run(&s, &TwoPhase, &mut no, WaitMode::Block).unwrap();
    let t = s.table(TABLES.stock).unwrap();
    for item in [7i64, 8] {
        let slot = t.slot_of(&Key::ints(&[1, item])).unwrap();
        t.update_with(slot, |r| {
            r.set(col::s::QUANTITY, Value::Int(3));
        })
        .unwrap();
    }
    let mut stk = txns::StockLevel::new(StockLevelInput {
        w_id: 1,
        d_id: 1,
        threshold: 10,
    });
    run(&s, &TwoPhase, &mut stk, WaitMode::Block).unwrap();
    // Items 7 and 8 are among the last 20 orders' lines and below threshold;
    // everything else sits at 50 (or 49 after the order) — above threshold.
    assert_eq!(stk.low_stock, Some(2));
}
