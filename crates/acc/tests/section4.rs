//! End-to-end reproduction of the paper's §4 order-processing example under
//! the real one-level ACC.
//!
//! Schema (§4, with TPC-C-style numbered order lines so `bill` can use point
//! reads): orders, stock, prices, orderlines, plus the
//! `current_order_number` counter.
//!
//! What the tests demonstrate, mapped to the paper:
//!
//! * instances of `new_order` interleave arbitrarily (§4: "the steps of
//!   instances of new_order can be allowed to interleave arbitrarily");
//! * `bill` cannot be interleaved within a `new_order` on the same order but
//!   runs freely against other orders (§4: "bill need be delayed only when
//!   the corresponding new_order is executing") — enforced here by
//!   compensation protection at item granularity;
//! * unanalyzed (legacy 2PL) transactions never observe uncommitted state
//!   (§3.3);
//! * compensation returns stock and removes the order (§4), and the
//!   consistency constraint holds at quiescence.

use acc_common::{Decimal, Error, Result, StepTypeId, TableId, TxnTypeId, Value};
use acc_core::{
    Acc, AssertionInstance, AssertionRegistry, Inference, StepFootprint, StepSpec, TableFootprint,
    TxnSpec, DIRTY,
};
use acc_storage::{Catalog, ColumnType, Database, Key, Row, TableSchema};
use acc_txn::{
    run, AbortReason, RunOutcome, SharedDb, StepCtx, StepOutcome, TwoPhase, TxnProgram, WaitMode,
};
use std::sync::{Arc, Barrier};
use std::time::Duration;

const COUNTERS: TableId = TableId(0);
const ORDERS: TableId = TableId(1);
const STOCK: TableId = TableId(2);
const PRICES: TableId = TableId(3);
const LINES: TableId = TableId(4);

const NO_S1: StepTypeId = StepTypeId(1);
const NO_S2: StepTypeId = StepTypeId(2);
const BILL_S: StepTypeId = StepTypeId(3);
const NO_CS: StepTypeId = StepTypeId(4);

const TY_NEW_ORDER: TxnTypeId = TxnTypeId(1);
const TY_BILL: TxnTypeId = TxnTypeId(2);

fn catalog() -> Catalog {
    let mut c = Catalog::new();
    c.add_table(
        TableSchema::builder("counters")
            .column("id", ColumnType::Int)
            .column("value", ColumnType::Int)
            .key(&["id"])
            .rows_per_page(1)
            .build(),
    );
    c.add_table(
        TableSchema::builder("orders")
            .column("order_id", ColumnType::Int)
            .column("customer_id", ColumnType::Int)
            .column("num_items", ColumnType::Int)
            .column("price", ColumnType::Decimal)
            .key(&["order_id"])
            .rows_per_page(1)
            .build(),
    );
    c.add_table(
        TableSchema::builder("stock")
            .column("item_id", ColumnType::Int)
            .column("s_level", ColumnType::Int)
            .key(&["item_id"])
            .rows_per_page(1)
            .build(),
    );
    c.add_table(
        TableSchema::builder("prices")
            .column("item_id", ColumnType::Int)
            .column("price", ColumnType::Decimal)
            .key(&["item_id"])
            .build(),
    );
    c.add_table(
        TableSchema::builder("orderlines")
            .column("order_id", ColumnType::Int)
            .column("line_no", ColumnType::Int)
            .column("item_id", ColumnType::Int)
            .column("ordered", ColumnType::Int)
            .column("filled", ColumnType::Int)
            .key(&["order_id", "line_no"])
            .rows_per_page(1)
            .build(),
    );
    c
}

struct System {
    shared: Arc<SharedDb>,
    acc: Arc<Acc>,
    registry: Arc<AssertionRegistry>,
    i1: acc_common::AssertionTemplateId,
}

/// Build registry, analysis, policy and a populated database.
fn system(n_items: i64, stock_each: i64) -> System {
    let mut reg = AssertionRegistry::new();
    // I1(o): orders[o].num_items equals the number of orderlines of o.
    let i1 = reg.define(
        "I1-order-line-count",
        vec![
            TableFootprint::columns(ORDERS, [2]),
            TableFootprint::rows(LINES, []),
        ],
        Some(Arc::new(|db: &Database, params: &[Value]| {
            let o = params[0].as_int().expect("order id param");
            let Some((_, order)) = db.table(ORDERS).unwrap().get(&Key::ints(&[o])) else {
                return false;
            };
            let n = db
                .table(LINES)
                .unwrap()
                .scan_prefix(&Key::ints(&[o]))
                .count() as i64;
            order.int(2) == n
        })),
    );
    // New-order's loop invariant over its own order (not evaluated here;
    // exercised via the TPC-C harness later).
    let no_loop = reg.define(
        "new-order-loop",
        vec![
            TableFootprint::columns(ORDERS, [2]),
            TableFootprint::rows(LINES, []),
        ],
        None,
    );

    let (tables, _decisions) = Inference::new(&reg)
        .step(StepFootprint::new(
            NO_S1,
            "new-order: counter + header",
            vec![
                TableFootprint::columns(COUNTERS, [1]),
                TableFootprint::rows(ORDERS, [0, 1, 2, 3]),
            ],
        ))
        .step(StepFootprint::new(
            NO_S2,
            "new-order: one orderline",
            vec![
                TableFootprint::rows(LINES, [0, 1, 2, 3, 4]),
                TableFootprint::columns(STOCK, [1]),
            ],
        ))
        .step(StepFootprint::new(
            BILL_S,
            "bill",
            vec![TableFootprint::columns(ORDERS, [3])],
        ))
        .step(StepFootprint::new(
            NO_CS,
            "new-order compensation",
            vec![
                TableFootprint::rows(ORDERS, []),
                TableFootprint::rows(LINES, []),
                TableFootprint::columns(STOCK, [1]),
            ],
        ))
        // §4's semantic declarations: new-order instances interleave freely.
        .declare_safe(
            NO_S1,
            no_loop,
            "order ids are unique; a new header does not affect another order's lines",
        )
        .declare_safe(
            NO_S2,
            no_loop,
            "each instance inserts lines for its own order; stock decrements commute",
        )
        .declare_safe(
            NO_CS,
            no_loop,
            "compensation removes only its own order's rows; restock commutes",
        )
        .declare_safe(
            NO_S1,
            DIRTY,
            "counter increments commute and are never compensated",
        )
        .declare_safe(
            NO_S2,
            DIRTY,
            "stock decrements commute; line inserts create fresh keys",
        )
        .declare_safe(
            NO_CS,
            DIRTY,
            "restock increments commute; deletes touch own keys only",
        )
        .build();

    let registry = Arc::new(reg);
    let acc = Arc::new(Acc::new(
        Arc::clone(&registry),
        vec![
            TxnSpec {
                txn_type: TY_NEW_ORDER,
                name: "new-order".into(),
                steps: vec![
                    StepSpec {
                        step_type: NO_S1,
                        active: vec![no_loop],
                    },
                    StepSpec {
                        step_type: NO_S2,
                        active: vec![no_loop],
                    },
                ],
                overflow: Some(1),
                comp_step: Some(NO_CS),
                guard: DIRTY,
                version_safe: false,
            },
            TxnSpec {
                txn_type: TY_BILL,
                name: "bill".into(),
                steps: vec![StepSpec {
                    step_type: BILL_S,
                    active: vec![i1],
                }],
                overflow: None,
                comp_step: None,
                guard: DIRTY,
                version_safe: false,
            },
        ],
    ));

    let cat = catalog();
    let mut db = Database::new(&cat);
    db.table_mut(COUNTERS)
        .unwrap()
        .insert(Row::from(vec![Value::Int(0), Value::Int(1)]))
        .unwrap();
    for i in 0..n_items {
        db.table_mut(STOCK)
            .unwrap()
            .insert(Row::from(vec![Value::Int(i), Value::Int(stock_each)]))
            .unwrap();
        db.table_mut(PRICES)
            .unwrap()
            .insert(Row::from(vec![
                Value::Int(i),
                Value::from(Decimal::from_int(i + 1)),
            ]))
            .unwrap();
    }
    let shared =
        Arc::new(SharedDb::new(db, Arc::new(tables)).with_wait_cap(Duration::from_secs(10)));
    System {
        shared,
        acc,
        registry,
        i1,
    }
}

struct NewOrder {
    cust: i64,
    items: Vec<(i64, i64)>, // (item_id, qty)
    o_num: Option<i64>,
    filled: Vec<i64>,
    abort_at_last: bool,
    pause: Option<Arc<Barrier>>, // fires twice between step 0 and step 1
}

impl NewOrder {
    fn new(cust: i64, items: Vec<(i64, i64)>) -> Self {
        let n = items.len();
        NewOrder {
            cust,
            items,
            o_num: None,
            filled: vec![0; n],
            abort_at_last: false,
            pause: None,
        }
    }
}

impl TxnProgram for NewOrder {
    fn txn_type(&self) -> TxnTypeId {
        TY_NEW_ORDER
    }

    fn step(&mut self, i: u32, ctx: &mut StepCtx<'_>) -> Result<StepOutcome> {
        if i == 0 {
            // Read the counter value and bump it in one locked update.
            let counter = ctx
                .read_for_update(COUNTERS, &Key::ints(&[0]))?
                .ok_or_else(|| Error::NotFound("counter".into()))?;
            let o_num = counter.int(1);
            ctx.update_key(COUNTERS, &Key::ints(&[0]), |r| {
                r.set(1, Value::Int(o_num + 1));
            })?;
            self.o_num = Some(o_num);
            ctx.insert(
                ORDERS,
                Row::from(vec![
                    Value::Int(o_num),
                    Value::Int(self.cust),
                    Value::Int(self.items.len() as i64),
                    Value::Null,
                ]),
            )?;
            return Ok(StepOutcome::Continue);
        }

        let idx = (i - 1) as usize;
        if let Some(b) = &self.pause {
            if idx == 0 {
                b.wait();
                b.wait();
            }
        }
        let last = idx + 1 == self.items.len();
        if last && self.abort_at_last {
            return Ok(StepOutcome::Abort);
        }
        let (item, qty) = self.items[idx];
        let o_num = self.o_num.expect("step 0 ran");
        let stock_row = ctx
            .read_for_update(STOCK, &Key::ints(&[item]))?
            .ok_or_else(|| Error::NotFound(format!("stock item {item}")))?;
        let fill = qty.min(stock_row.int(1));
        ctx.update_key(STOCK, &Key::ints(&[item]), |r| {
            let level = r.int(1);
            r.set(1, Value::Int(level - fill));
        })?;
        self.filled[idx] = fill;
        ctx.insert(
            LINES,
            Row::from(vec![
                Value::Int(o_num),
                Value::Int(i as i64), // line_no = step index
                Value::Int(item),
                Value::Int(qty),
                Value::Int(fill),
            ]),
        )?;
        Ok(if last {
            StepOutcome::Done
        } else {
            StepOutcome::Continue
        })
    }

    fn compensate(&mut self, steps_completed: u32, ctx: &mut StepCtx<'_>) -> Result<()> {
        let o_num = self.o_num.expect("at least step 0 completed");
        // Lines inserted by completed steps 1..steps_completed carry line
        // numbers 1..steps_completed.
        for line_no in (1..steps_completed as i64).rev() {
            if let Some(line) = ctx.read_for_update(LINES, &Key::ints(&[o_num, line_no]))? {
                let item = line.int(2);
                let fill = line.int(4);
                ctx.update_key(STOCK, &Key::ints(&[item]), |r| {
                    let level = r.int(1);
                    r.set(1, Value::Int(level + fill));
                })?;
                ctx.delete_key(LINES, &Key::ints(&[o_num, line_no]))?;
            }
        }
        ctx.delete_key(ORDERS, &Key::ints(&[o_num]))?;
        Ok(())
    }

    fn work_area(&self) -> Vec<u8> {
        self.o_num.unwrap_or(-1).to_le_bytes().to_vec()
    }
}

struct Bill {
    o_num: i64,
    total: Option<Decimal>,
}

impl TxnProgram for Bill {
    fn txn_type(&self) -> TxnTypeId {
        TY_BILL
    }

    fn step(&mut self, _i: u32, ctx: &mut StepCtx<'_>) -> Result<StepOutcome> {
        let order = ctx
            .read_for_update(ORDERS, &Key::ints(&[self.o_num]))?
            .ok_or_else(|| Error::NotFound(format!("order {}", self.o_num)))?;
        let n = order.int(2);
        let mut total = Decimal::ZERO;
        for line_no in 1..=n {
            let line = ctx.read_existing(LINES, &Key::ints(&[self.o_num, line_no]))?;
            let price = ctx
                .read_existing(PRICES, &Key::ints(&[line.int(2)]))?
                .decimal(1);
            total += price.mul_int(line.int(4));
        }
        ctx.update_key(ORDERS, &Key::ints(&[self.o_num]), |r| {
            r.set(3, Value::from(total));
        })?;
        self.total = Some(total);
        Ok(StepOutcome::Done)
    }
}

/// Quiescence check: every order satisfies I1 and total stock+fills balance.
fn check_consistency(sys: &System, n_items: i64, stock_each: i64) {
    let db = sys.shared.snapshot_db();
    let orders: Vec<i64> = db
        .table(ORDERS)
        .unwrap()
        .iter()
        .map(|(_, r)| r.int(0))
        .collect();
    for o in orders {
        let inst = AssertionInstance {
            template: sys.i1,
            params: vec![Value::Int(o)],
        };
        assert!(sys.registry.check(&db, &inst), "I1 violated for order {o}");
    }
    // Stock conservation: initial = remaining + sum(filled).
    let filled: i64 = db.table(LINES).unwrap().iter().map(|(_, r)| r.int(4)).sum();
    let remaining: i64 = db.table(STOCK).unwrap().iter().map(|(_, r)| r.int(1)).sum();
    assert_eq!(remaining + filled, n_items * stock_each);
    assert_eq!(sys.shared.total_grants(), 0, "all locks drained");
}

#[test]
fn concurrent_new_orders_satisfy_invariants() {
    let sys = system(6, 100);
    let mut handles = Vec::new();
    for t in 0..6i64 {
        let shared = Arc::clone(&sys.shared);
        let acc = Arc::clone(&sys.acc);
        handles.push(std::thread::spawn(move || {
            let items: Vec<(i64, i64)> = (0..4).map(|k| ((t + k) % 6, 5)).collect();
            let mut p = NewOrder::new(t, items);
            run(&shared, &*acc, &mut p, WaitMode::Block).unwrap()
        }));
    }
    for h in handles {
        assert!(matches!(h.join().unwrap(), RunOutcome::Committed { .. }));
    }
    check_consistency(&sys, 6, 100);
    let db = sys.shared.snapshot_db();
    assert_eq!(db.table(ORDERS).unwrap().len(), 6);
    assert_eq!(db.table(LINES).unwrap().len(), 24);
}

#[test]
fn aborting_new_order_compensates() {
    let sys = system(3, 50);
    let mut p = NewOrder::new(9, vec![(0, 10), (1, 10), (2, 10)]);
    p.abort_at_last = true;
    let out = run(&sys.shared, &*sys.acc, &mut p, WaitMode::Block).unwrap();
    assert_eq!(out, RunOutcome::RolledBack(AbortReason::UserAbort));
    check_consistency(&sys, 3, 50);
    let db = sys.shared.snapshot_db();
    assert_eq!(db.table(ORDERS).unwrap().len(), 0);
    assert_eq!(db.table(LINES).unwrap().len(), 0);
    for (_, r) in db.table(STOCK).unwrap().iter() {
        assert_eq!(r.int(1), 50, "stock fully restored");
    }
    // The order number was consumed (compensation does not undo the
    // counter — its increments commute).
    let counter = db
        .table(COUNTERS)
        .unwrap()
        .get(&Key::ints(&[0]))
        .unwrap()
        .1
        .int(1);
    assert_eq!(counter, 2);
}

#[test]
fn bill_waits_for_inflight_order_but_not_others() {
    let sys = system(4, 100);

    // Order 1: completed.
    let mut done = NewOrder::new(1, vec![(0, 2), (1, 3)]);
    run(&sys.shared, &*sys.acc, &mut done, WaitMode::Block).unwrap();

    // Order 2: in flight, paused between its header step and its first line.
    let barrier = Arc::new(Barrier::new(2));
    let shared = Arc::clone(&sys.shared);
    let acc = Arc::clone(&sys.acc);
    let b = Arc::clone(&barrier);
    let h = std::thread::spawn(move || {
        let mut p = NewOrder::new(2, vec![(2, 1), (3, 1)]);
        p.pause = Some(b);
        run(&shared, &*acc, &mut p, WaitMode::Block).unwrap()
    });
    barrier.wait(); // order 2's header is in, uncommitted

    // bill(in-flight order 2) must be delayed: its assertional lock on the
    // order's row is refused while a compensatable writer pins it.
    let mut bill_inflight = Bill {
        o_num: 2,
        total: None,
    };
    let err = run(&sys.shared, &*sys.acc, &mut bill_inflight, WaitMode::Fail).unwrap_err();
    assert!(
        matches!(err, Error::WouldBlock { .. }),
        "expected a block, got {err:?}"
    );

    // bill(completed order 1) runs freely in the gap.
    let mut bill_done = Bill {
        o_num: 1,
        total: None,
    };
    let out = run(&sys.shared, &*sys.acc, &mut bill_done, WaitMode::Fail).unwrap();
    assert!(matches!(out, RunOutcome::Committed { .. }));
    // price(0)=1, price(1)=2 → 2*1 + 3*2 = 8.
    assert_eq!(bill_done.total, Some(Decimal::from_int(8)));

    barrier.wait(); // let order 2 finish
    assert!(matches!(h.join().unwrap(), RunOutcome::Committed { .. }));

    // Now billing order 2 succeeds.
    let mut bill2 = Bill {
        o_num: 2,
        total: None,
    };
    let out = run(&sys.shared, &*sys.acc, &mut bill2, WaitMode::Block).unwrap();
    assert!(matches!(out, RunOutcome::Committed { .. }));
    check_consistency(&sys, 4, 100);
}

#[test]
fn legacy_transaction_is_isolated_from_inflight_steps() {
    let sys = system(2, 10);

    let barrier = Arc::new(Barrier::new(2));
    let shared = Arc::clone(&sys.shared);
    let acc = Arc::clone(&sys.acc);
    let b = Arc::clone(&barrier);
    let h = std::thread::spawn(move || {
        let mut p = NewOrder::new(5, vec![(0, 4), (1, 4)]);
        p.pause = Some(b);
        run(&shared, &*acc, &mut p, WaitMode::Block).unwrap()
    });
    barrier.wait(); // header inserted, uncommitted

    // An unanalyzed 2PL reader of the orders table must not see the
    // uncommitted header: its read blocks on the DIRTY pin.
    struct LegacyScan {
        seen: usize,
    }
    impl TxnProgram for LegacyScan {
        fn txn_type(&self) -> TxnTypeId {
            TxnTypeId(99)
        }
        fn step(&mut self, _i: u32, ctx: &mut StepCtx<'_>) -> Result<StepOutcome> {
            // Point read of the in-flight order's row.
            self.seen = usize::from(ctx.read(ORDERS, &Key::ints(&[1]))?.is_some());
            Ok(StepOutcome::Done)
        }
    }
    let mut legacy = LegacyScan { seen: 0 };
    let err = run(&sys.shared, &TwoPhase, &mut legacy, WaitMode::Fail).unwrap_err();
    assert!(matches!(err, Error::WouldBlock { .. }));

    barrier.wait();
    assert!(matches!(h.join().unwrap(), RunOutcome::Committed { .. }));

    // After commit the legacy reader sees the order.
    let mut legacy = LegacyScan { seen: 0 };
    let out = run(&sys.shared, &TwoPhase, &mut legacy, WaitMode::Block).unwrap();
    assert!(matches!(out, RunOutcome::Committed { .. }));
    assert_eq!(legacy.seen, 1);
}

#[test]
fn partial_fills_interleave_non_serializably_but_correctly() {
    // §3.1's stock-trading flavour: two orders compete for limited stock;
    // interleaved fills can produce allocations no serial schedule would,
    // yet every postcondition ("filled = min(requested, available) at
    // purchase time") and the global constraint hold.
    let sys = system(2, 10);
    let mut handles = Vec::new();
    for t in 0..2i64 {
        let shared = Arc::clone(&sys.shared);
        let acc = Arc::clone(&sys.acc);
        handles.push(std::thread::spawn(move || {
            let mut p = NewOrder::new(t, vec![(0, 7), (1, 7)]);
            run(&shared, &*acc, &mut p, WaitMode::Block).unwrap()
        }));
    }
    for h in handles {
        assert!(matches!(h.join().unwrap(), RunOutcome::Committed { .. }));
    }
    check_consistency(&sys, 2, 10);
    let db = sys.shared.snapshot_db();
    // Total filled per item never exceeds available stock.
    for item in 0..2i64 {
        let filled: i64 = db
            .table(LINES)
            .unwrap()
            .iter()
            .filter(|(_, r)| r.int(2) == item)
            .map(|(_, r)| r.int(4))
            .sum();
        assert!(filled <= 10);
    }
}
