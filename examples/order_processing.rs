//! The paper's §4 order-processing example, narrated.
//!
//! ```text
//! cargo run --example order_processing
//! ```
//!
//! Demonstrates, in order:
//! 1. concurrent `new_order`s interleaving arbitrarily (non-serializable but
//!    semantically correct partial fills);
//! 2. `bill` being delayed exactly while "the corresponding new_order is
//!    executing" — and running freely against other orders;
//! 3. a legacy (unanalyzed, strict-2PL) transaction kept away from
//!    uncommitted state;
//! 4. compensation returning stock after a new_order aborts.

use assertional_acc::prelude::*;
use std::sync::{Arc, Barrier};

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

struct NewOrder {
    cust: i64,
    items: Vec<(i64, i64)>,
    o_num: Option<i64>,
    abort_at_last: bool,
    pause: Option<Arc<Barrier>>,
}

impl NewOrder {
    fn new(cust: i64, items: Vec<(i64, i64)>) -> Self {
        NewOrder {
            cust,
            items,
            o_num: None,
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
            let counter = ctx
                .read_for_update(COUNTERS, &Key::ints(&[0]))?
                .expect("counter row");
            let o_num = counter.int(1);
            ctx.update_key(COUNTERS, &Key::ints(&[0]), |r| {
                r.set(1, Value::Int(o_num + 1));
            })?;
            self.o_num = Some(o_num);
            ctx.insert(
                ORDERS,
                Row(vec![
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
        let stock = ctx
            .read_for_update(STOCK, &Key::ints(&[item]))?
            .expect("stock row");
        let fill = qty.min(stock.int(1));
        ctx.update_key(STOCK, &Key::ints(&[item]), |r| {
            let level = r.int(1);
            r.set(1, Value::Int(level - fill));
        })?;
        ctx.insert(
            LINES,
            Row(vec![
                Value::Int(o_num),
                Value::Int(i as i64),
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
        let o_num = self.o_num.expect("compensating after step 0");
        for line_no in (1..steps_completed as i64).rev() {
            if let Some(line) = ctx.read_for_update(LINES, &Key::ints(&[o_num, line_no]))? {
                let (item, fill) = (line.int(2), line.int(4));
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
        let mut total = Decimal::ZERO;
        for line_no in 1..=order.int(2) {
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

fn build_system() -> (Arc<SharedDb>, Arc<Acc>) {
    let mut reg = AssertionRegistry::new();
    let i1 = reg.define(
        "I1: order's line count matches num_items",
        vec![
            TableFootprint::columns(ORDERS, [2]),
            TableFootprint::rows(LINES, []),
        ],
        None,
    );
    let no_loop = reg.define(
        "new-order loop invariant",
        vec![
            TableFootprint::columns(ORDERS, [2]),
            TableFootprint::rows(LINES, []),
        ],
        None,
    );
    let (tables, _) = Inference::new(&reg)
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
            "new-order: one line",
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
        .declare_safe(NO_S1, no_loop, "order ids are unique")
        .declare_safe(
            NO_S2,
            no_loop,
            "lines belong to own order; stock decrements commute",
        )
        .declare_safe(NO_CS, no_loop, "compensation removes own rows")
        .declare_safe(
            NO_S1,
            DIRTY,
            "counter increments commute, never compensated",
        )
        .declare_safe(NO_S2, DIRTY, "stock decrements commute; fresh line keys")
        .declare_safe(NO_CS, DIRTY, "restock commutes")
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
        .expect("counters")
        .insert(Row(vec![Value::Int(0), Value::Int(1)]))
        .expect("fresh counter");
    for i in 0..4i64 {
        db.table_mut(STOCK)
            .expect("stock")
            .insert(Row(vec![Value::Int(i), Value::Int(10)]))
            .expect("fresh stock");
        db.table_mut(PRICES)
            .expect("prices")
            .insert(Row(vec![
                Value::Int(i),
                Value::from(Decimal::from_int(i + 1)),
            ]))
            .expect("fresh price");
    }
    (Arc::new(SharedDb::new(db, Arc::new(tables))), acc)
}

fn main() -> Result<()> {
    let (shared, acc) = build_system();

    println!("— 1. concurrent new_orders interleave (stock example of §3.1) —");
    let mut handles = Vec::new();
    for cust in 0..2i64 {
        let shared = Arc::clone(&shared);
        let acc = Arc::clone(&acc);
        handles.push(std::thread::spawn(move || {
            let mut p = NewOrder::new(cust, vec![(0, 7), (1, 7)]);
            run(&shared, &*acc, &mut p, WaitMode::Block).expect("no hard errors")
        }));
    }
    for h in handles {
        println!("  {:?}", h.join().expect("no panic"));
    }
    shared
        .with_table(LINES, |t| {
            for (_, line) in t.iter() {
                println!(
                    "  order {} line {}: item {} ordered {} filled {}",
                    line.int(0),
                    line.int(1),
                    line.int(2),
                    line.int(3),
                    line.int(4)
                );
            }
        })
        .expect("lines");
    println!(
        "  (interleaved fills: depending on timing this can produce allocations\n   no serial schedule could — e.g. both orders getting part of the cheap stock)"
    );

    println!("— 2. bill waits for the in-flight order only —");
    let barrier = Arc::new(Barrier::new(2));
    let (s2, a2, b2) = (Arc::clone(&shared), Arc::clone(&acc), Arc::clone(&barrier));
    let h = std::thread::spawn(move || {
        let mut p = NewOrder::new(9, vec![(2, 1), (3, 1)]);
        p.pause = Some(b2);
        run(&s2, &*a2, &mut p, WaitMode::Block).expect("no hard errors")
    });
    barrier.wait(); // order 3's header is in, uncommitted
    let err = run(
        &shared,
        &*acc,
        &mut Bill {
            o_num: 3,
            total: None,
        },
        WaitMode::Fail,
    )
    .expect_err("billing the in-flight order must block");
    println!("  bill(order 3, in flight): {err}");
    let mut bill1 = Bill {
        o_num: 1,
        total: None,
    };
    run(&shared, &*acc, &mut bill1, WaitMode::Fail)?;
    println!(
        "  bill(order 1, committed): total {}",
        bill1.total.expect("billed")
    );
    barrier.wait();
    h.join().expect("no panic");
    let mut bill3 = Bill {
        o_num: 3,
        total: None,
    };
    run(&shared, &*acc, &mut bill3, WaitMode::Block)?;
    println!(
        "  bill(order 3, after commit): total {}",
        bill3.total.expect("billed")
    );

    println!("— 3. legacy 2PL transactions never see uncommitted state —");
    let barrier = Arc::new(Barrier::new(2));
    let (s3, a3, b3) = (Arc::clone(&shared), Arc::clone(&acc), Arc::clone(&barrier));
    let h = std::thread::spawn(move || {
        let mut p = NewOrder::new(5, vec![(0, 1), (1, 1)]);
        p.pause = Some(b3);
        run(&s3, &*a3, &mut p, WaitMode::Block).expect("no hard errors")
    });
    barrier.wait();
    struct LegacyRead;
    impl TxnProgram for LegacyRead {
        fn txn_type(&self) -> TxnTypeId {
            TxnTypeId(99)
        }
        fn step(&mut self, _i: u32, ctx: &mut StepCtx<'_>) -> Result<StepOutcome> {
            ctx.read(ORDERS, &Key::ints(&[4]))?;
            Ok(StepOutcome::Done)
        }
    }
    let err = run(&shared, &TwoPhase, &mut LegacyRead, WaitMode::Fail)
        .expect_err("legacy read of dirty row must block");
    println!("  legacy read of uncommitted order: {err}");
    barrier.wait();
    h.join().expect("no panic");

    println!("— 4. compensation returns stock after an abort —");
    let stock_before: i64 = shared
        .with_table(STOCK, |t| t.iter().map(|(_, r)| r.int(1)).sum())
        .expect("stock");
    let mut aborting = NewOrder::new(7, vec![(0, 1), (1, 1), (2, 1)]);
    aborting.abort_at_last = true;
    let out = run(&shared, &*acc, &mut aborting, WaitMode::Block)?;
    let stock_after: i64 = shared
        .with_table(STOCK, |t| t.iter().map(|(_, r)| r.int(1)).sum())
        .expect("stock");
    println!("  {out:?}; stock {stock_before} → {stock_after} (restored)");
    assert_eq!(stock_before, stock_after);

    println!("order_processing OK");
    Ok(())
}
