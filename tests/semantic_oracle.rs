//! The semantic-correctness oracle (paper §3.1–§3.3).
//!
//! The ACC's guarantee is: *the precondition of a step is true when the step
//! is initiated*. Under the paper's implemented variant — assertional locks
//! acquired dynamically with conventional locks — "initiated" means the
//! moment the step first touches the items the assertion references: an
//! attempt whose precondition does not hold blocks right there (on the
//! writer's guard pin) and is retried; it never gets to *observe* a false
//! precondition. The faithful oracle therefore evaluates `bill`'s
//! precondition `I1(o)` from inside the step, through the step's own reads:
//! every bill that completes must have seen its precondition satisfied, over
//! many seeded interleavings, plus the consistency constraint at quiescence.
//!
//! To show the oracle has teeth, the scheduler hook also records that `I1`
//! *was* violated for in-flight orders at other moments during the run
//! (new-order breaks it between steps by design); the ACC's job is keeping
//! those moments away from the transactions whose preconditions need `I1`.

use assertional_acc::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

const COUNTERS: TableId = TableId(0);
const ORDERS: TableId = TableId(1);
const STOCK: TableId = TableId(2);
const LINES: TableId = TableId(3);

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
            .column("num_items", ColumnType::Int)
            .column("billed", ColumnType::Bool)
            .key(&["order_id"])
            .rows_per_page(1)
            .build(),
    );
    c.add_table(
        TableSchema::builder("stock")
            .column("item_id", ColumnType::Int)
            .column("level", ColumnType::Int)
            .key(&["item_id"])
            .rows_per_page(1)
            .build(),
    );
    c.add_table(
        TableSchema::builder("orderlines")
            .column("order_id", ColumnType::Int)
            .column("line_no", ColumnType::Int)
            .column("item_id", ColumnType::Int)
            .column("filled", ColumnType::Int)
            .key(&["order_id", "line_no"])
            .rows_per_page(1)
            .build(),
    );
    c
}

/// `I1(o)`: order `o` exists and its declared item count equals its actual
/// line count.
fn i1_holds(db: &Database, o: i64) -> bool {
    let Some((_, order)) = db.table(ORDERS).unwrap().get(&Key::ints(&[o])) else {
        return false;
    };
    let lines = db
        .table(LINES)
        .unwrap()
        .scan_prefix(&Key::ints(&[o]))
        .count() as i64;
    order.int(1) == lines
}

struct NewOrder {
    items: Vec<i64>,
    o_num: Option<i64>,
}

impl TxnProgram for NewOrder {
    fn txn_type(&self) -> TxnTypeId {
        TY_NEW_ORDER
    }
    fn step(&mut self, i: u32, ctx: &mut StepCtx<'_>) -> Result<StepOutcome> {
        if i == 0 {
            let counter = ctx
                .read_for_update(COUNTERS, &Key::ints(&[0]))?
                .expect("counter");
            let o = counter.int(1);
            ctx.update_key(COUNTERS, &Key::ints(&[0]), |r| {
                r.set(1, Value::Int(o + 1));
            })?;
            self.o_num = Some(o);
            ctx.insert(
                ORDERS,
                Row(vec![
                    Value::Int(o),
                    Value::Int(self.items.len() as i64),
                    Value::Bool(false),
                ]),
            )?;
            return Ok(StepOutcome::Continue);
        }
        let idx = (i - 1) as usize;
        let item = self.items[idx];
        let o = self.o_num.expect("step 0 ran");
        let stock = ctx
            .read_for_update(STOCK, &Key::ints(&[item]))?
            .expect("stock row");
        let fill = stock.int(1).min(2);
        ctx.update_key(STOCK, &Key::ints(&[item]), |r| {
            let level = r.int(1);
            r.set(1, Value::Int(level - fill));
        })?;
        ctx.insert(
            LINES,
            Row(vec![
                Value::Int(o),
                Value::Int(i as i64),
                Value::Int(item),
                Value::Int(fill),
            ]),
        )?;
        Ok(if idx + 1 == self.items.len() {
            StepOutcome::Done
        } else {
            StepOutcome::Continue
        })
    }
    fn compensate(&mut self, steps_completed: u32, ctx: &mut StepCtx<'_>) -> Result<()> {
        let o = self.o_num.expect("compensating after step 0");
        for line_no in (1..steps_completed as i64).rev() {
            if let Some(line) = ctx.read_for_update(LINES, &Key::ints(&[o, line_no]))? {
                let (item, fill) = (line.int(2), line.int(3));
                ctx.update_key(STOCK, &Key::ints(&[item]), |r| {
                    let level = r.int(1);
                    r.set(1, Value::Int(level + fill));
                })?;
                ctx.delete_key(LINES, &Key::ints(&[o, line_no]))?;
            }
        }
        ctx.delete_key(ORDERS, &Key::ints(&[o]))?;
        Ok(())
    }
}

struct Bill {
    o_num: i64,
    /// Shared sink: every *completed* observation `(order, precondition_ok)`
    /// this bill made through its own (assertionally locked) reads.
    observations: Rc<RefCell<Vec<(i64, bool)>>>,
}

impl TxnProgram for Bill {
    fn txn_type(&self) -> TxnTypeId {
        TY_BILL
    }
    fn step(&mut self, _i: u32, ctx: &mut StepCtx<'_>) -> Result<StepOutcome> {
        // Precondition: I1(o), observed through the step's own reads. The
        // first read pins A(I1) on the order row — if an in-flight new-order
        // still owns it, this read blocks and the attempt is retried, so a
        // completing bill can only ever observe a true precondition.
        let Some(order) = ctx.read(ORDERS, &Key::ints(&[self.o_num]))? else {
            return Ok(StepOutcome::Done); // order never entered this run
        };
        let declared = order.int(1);
        let lines = ctx.scan_prefix(LINES, &Key::ints(&[self.o_num]))?.len() as i64;
        self.observations
            .borrow_mut()
            .push((self.o_num, declared == lines));
        ctx.update_key(ORDERS, &Key::ints(&[self.o_num]), |r| {
            r.set(2, Value::Bool(true));
        })?;
        Ok(StepOutcome::Done)
    }
}

fn build_system() -> (Arc<SharedDb>, Arc<Acc>) {
    let mut reg = AssertionRegistry::new();
    let i1 = reg.define(
        "I1",
        vec![
            TableFootprint::columns(ORDERS, [1]),
            TableFootprint::rows(LINES, []),
        ],
        None,
    );
    let no_loop = reg.define(
        "no-loop",
        vec![
            TableFootprint::columns(ORDERS, [1]),
            TableFootprint::rows(LINES, []),
        ],
        None,
    );
    let (tables, _) = Inference::new(&reg)
        .step(StepFootprint::new(
            NO_S1,
            "no-s1",
            vec![
                TableFootprint::columns(COUNTERS, [1]),
                TableFootprint::rows(ORDERS, [0, 1, 2]),
            ],
        ))
        .step(StepFootprint::new(
            NO_S2,
            "no-s2",
            vec![
                TableFootprint::rows(LINES, [0, 1, 2, 3]),
                TableFootprint::columns(STOCK, [1]),
            ],
        ))
        .step(StepFootprint::new(
            BILL_S,
            "bill",
            vec![TableFootprint::columns(ORDERS, [2])],
        ))
        .step(StepFootprint::new(
            NO_CS,
            "no-cs",
            vec![
                TableFootprint::rows(ORDERS, []),
                TableFootprint::rows(LINES, []),
                TableFootprint::columns(STOCK, [1]),
            ],
        ))
        .declare_safe(NO_S1, no_loop, "unique order ids")
        .declare_safe(NO_S2, no_loop, "own order's lines; stock deltas commute")
        .declare_safe(NO_CS, no_loop, "own rows only")
        .declare_safe(NO_S1, DIRTY, "counter increments commute")
        .declare_safe(NO_S2, DIRTY, "stock decrements commute; fresh keys")
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

    let mut db = Database::new(&catalog());
    db.table_mut(COUNTERS)
        .unwrap()
        .insert(Row(vec![Value::Int(0), Value::Int(1)]))
        .unwrap();
    for item in 0..6i64 {
        db.table_mut(STOCK)
            .unwrap()
            .insert(Row(vec![Value::Int(item), Value::Int(100)]))
            .unwrap();
    }
    (Arc::new(SharedDb::new(db, Arc::new(tables))), acc)
}

#[test]
fn bill_precondition_holds_at_every_step_start_across_seeds() {
    let mut total_bill_starts = 0usize;
    let mut saw_broken_i1_midflight = false;

    for seed in 0..60u64 {
        let (shared, acc) = build_system();
        // 4 new-orders (ids 1..=4) and 4 bills racing them.
        let mut programs: Vec<Box<dyn TxnProgram>> = Vec::new();
        let mut kinds: Vec<Option<i64>> = Vec::new(); // Some(o) = bill of o
        for k in 0..4i64 {
            programs.push(Box::new(NewOrder {
                items: vec![k % 6, (k + 1) % 6, (k + 2) % 6],
                o_num: None,
            }));
            kinds.push(None);
        }
        let observations: Rc<RefCell<Vec<(i64, bool)>>> = Rc::new(RefCell::new(Vec::new()));
        for o in 1..=4i64 {
            programs.push(Box::new(Bill {
                o_num: o,
                observations: Rc::clone(&observations),
            }));
            kinds.push(Some(o));
        }

        let bill_starts = RefCell::new(0usize);
        let broken_midflight = RefCell::new(false);
        {
            let mut stepper = Stepper::new(&shared, &*acc);
            let kinds_ref = &kinds;
            stepper.on_step_start = Some(Box::new(|db, program_idx, _step| {
                if kinds_ref[program_idx].is_some() {
                    *bill_starts.borrow_mut() += 1;
                }
                // Teeth check: I1 *is* broken for some in-flight order at
                // some moment (new-order's header precedes its lines).
                for o in 1..=4i64 {
                    if db.table(ORDERS).unwrap().get(&Key::ints(&[o])).is_some() && !i1_holds(db, o)
                    {
                        *broken_midflight.borrow_mut() = true;
                    }
                }
            }));
            stepper
                .run_all(
                    &mut programs,
                    &StepperConfig {
                        seed,
                        max_resubmits: 30,
                    },
                )
                .unwrap();
        }
        // The oracle proper: every bill observation — including ones from
        // step attempts that were later undone and retried — saw I1 hold.
        for (o, ok) in observations.borrow().iter() {
            assert!(
                ok,
                "seed {seed}: bill({o}) observed a violated precondition"
            );
        }
        total_bill_starts += *bill_starts.borrow();
        saw_broken_i1_midflight |= *broken_midflight.borrow();

        // Quiescence: the consistency constraint holds for every order.
        let db = shared.snapshot_db();
        for (_, order) in db.table(ORDERS).unwrap().iter() {
            assert!(i1_holds(&db, order.int(0)), "seed {seed}");
        }
        assert_eq!(shared.total_grants(), 0);
    }

    assert!(total_bill_starts >= 60 * 4, "bills actually ran");
    assert!(
        saw_broken_i1_midflight,
        "the oracle never observed a mid-flight I1 violation — the check is vacuous"
    );
}
