//! The paper's §3.1 motivating example: a stock-trading database where two
//! concurrent `buy` transactions can *both* purchase part of their shares at
//! $30 and part at $31 — a final state no serializable schedule can produce
//! (one of them would have gotten everything at $30) — while each still
//! satisfies its postcondition: *"when each share was bought, no cheaper
//! unbought shares existed in the database."*
//!
//! ```text
//! cargo run --example stock_trading
//! ```

use assertional_acc::prelude::*;
use std::sync::{Arc, Condvar, Mutex};

const OFFERS: TableId = TableId(0); // sell orders: (price, offer_id) -> shares
const LEDGER: TableId = TableId(1); // purchases: (buyer, seq) -> price, shares

const TY_BUY: TxnTypeId = TxnTypeId(1);
const S_BUY: StepTypeId = StepTypeId(1);
const CS_BUY: StepTypeId = StepTypeId(2);

/// Buy `want` shares, cheapest offers first, one lot per step.
struct Buy {
    buyer: i64,
    want: i64,
    bought: Vec<(Decimal, i64)>, // (price, shares) per completed step
    /// Turn-taking shared with the other buyer, so the demo forces the
    /// interleaving.
    turns: Arc<Turns>,
}

/// Forces the step interleaving T1, T2, T1, T2: buyer `b` runs its step `i`
/// on turn `2 * i + b - 1`. No two steps run at once, so no lock cycle can
/// form and the outcome does not depend on how the threads are scheduled.
#[derive(Default)]
struct Turns {
    next: Mutex<u32>,
    passed: Condvar,
}

impl Turns {
    fn wait_for(&self, turn: u32) {
        let mut next = self.next.lock().expect("turns not poisoned");
        while *next < turn {
            next = self.passed.wait(next).expect("turns not poisoned");
        }
    }

    fn pass(&self, turn: u32) {
        let mut next = self.next.lock().expect("turns not poisoned");
        *next = (*next).max(turn + 1);
        self.passed.notify_all();
    }
}

impl Buy {
    fn new(buyer: i64, want: i64, turns: Arc<Turns>) -> Self {
        Buy {
            buyer,
            want,
            bought: Vec::new(),
            turns,
        }
    }

    fn still_needed(&self) -> i64 {
        self.want - self.bought.iter().map(|(_, n)| n).sum::<i64>()
    }

    /// Step `i`: take the cheapest lot still on offer.
    fn take_lot(&mut self, i: u32, ctx: &mut StepCtx<'_>) -> Result<StepOutcome> {
        self.bought.truncate(i as usize); // idempotent re-execution

        // Find the cheapest offer with shares left. Offers are keyed
        // (price, offer_id), so the first live row is the cheapest.
        let offers = ctx.scan_prefix(OFFERS, &Key(vec![]))?;
        let Some((_, offer)) = offers.first() else {
            return Ok(StepOutcome::Abort); // market ran dry: undo everything
        };
        let (price_units, offer_id, available) = (offer.int(0), offer.int(1), offer.int(2));
        let take = available.min(self.still_needed());

        if take == available {
            ctx.delete_key(OFFERS, &Key::ints(&[price_units, offer_id]))?;
        } else {
            ctx.update_key(OFFERS, &Key::ints(&[price_units, offer_id]), |r| {
                r.set(2, Value::Int(available - take));
            })?;
        }
        ctx.insert(
            LEDGER,
            Row(vec![
                Value::Int(self.buyer),
                Value::Int(i as i64),
                Value::Int(price_units),
                Value::Int(take),
            ]),
        )?;
        self.bought.push((Decimal::from_int(price_units), take));

        Ok(if self.still_needed() == 0 {
            StepOutcome::Done
        } else {
            StepOutcome::Continue
        })
    }
}

impl TxnProgram for Buy {
    fn txn_type(&self) -> TxnTypeId {
        TY_BUY
    }

    fn step(&mut self, i: u32, ctx: &mut StepCtx<'_>) -> Result<StepOutcome> {
        let turn = 2 * i + self.buyer as u32 - 1;
        self.turns.wait_for(turn);
        let outcome = self.take_lot(i, ctx);
        self.turns.pass(turn);
        outcome
    }

    fn compensate(&mut self, steps_completed: u32, ctx: &mut StepCtx<'_>) -> Result<()> {
        // Put the shares back on the market and clear the ledger entries.
        for seq in (0..steps_completed as i64).rev() {
            let Some(entry) = ctx.read_for_update(LEDGER, &Key::ints(&[self.buyer, seq]))? else {
                continue;
            };
            let (price, shares) = (entry.int(2), entry.int(3));
            // Re-list under a fresh offer id derived from the ledger entry.
            ctx.insert(
                OFFERS,
                Row(vec![
                    Value::Int(price),
                    Value::Int(1000 + self.buyer * 100 + seq),
                    Value::Int(shares),
                ]),
            )?;
            ctx.delete_key(LEDGER, &Key::ints(&[self.buyer, seq]))?;
        }
        Ok(())
    }
}

fn main() -> Result<()> {
    let mut catalog = Catalog::new();
    catalog.add_table(
        TableSchema::builder("offers")
            .column("price", ColumnType::Int)
            .column("offer_id", ColumnType::Int)
            .column("shares", ColumnType::Int)
            .key(&["price", "offer_id"])
            .rows_per_page(1)
            .build(),
    );
    catalog.add_table(
        TableSchema::builder("ledger")
            .column("buyer", ColumnType::Int)
            .column("seq", ColumnType::Int)
            .column("price", ColumnType::Int)
            .column("shares", ColumnType::Int)
            .key(&["buyer", "seq"])
            .rows_per_page(1)
            .build(),
    );

    // Design time: each buy step's interstep assertion is its postcondition-
    // in-progress — "every lot I bought was cheapest at purchase time".
    // Another buy taking shares cannot falsify that (prices only rise as the
    // book drains), so buys interleave arbitrarily.
    let mut reg = AssertionRegistry::new();
    let cheapest = reg.define(
        "bought-lots-were-cheapest-at-purchase-time",
        vec![TableFootprint::rows(LEDGER, [])],
        None,
    );
    let (tables, _) = Inference::new(&reg)
        .step(StepFootprint::new(
            S_BUY,
            "buy one lot",
            vec![
                TableFootprint::rows(OFFERS, [0, 1, 2]),
                TableFootprint::rows(LEDGER, [0, 1, 2, 3]),
            ],
        ))
        .step(StepFootprint::new(
            CS_BUY,
            "buy compensation (re-list shares)",
            vec![
                TableFootprint::rows(OFFERS, [0, 1, 2]),
                TableFootprint::rows(LEDGER, []),
            ],
        ))
        .declare_safe(S_BUY, cheapest, "taking offers can only raise the cheapest price; past purchases stay cheapest-at-their-time")
        .declare_safe(CS_BUY, cheapest, "re-listing shares cannot un-cheapen a past purchase")
        .declare_safe(S_BUY, DIRTY, "each lot consumes distinct offer rows; ledger keys are per-buyer")
        .declare_safe(CS_BUY, DIRTY, "re-lists under fresh offer ids; deletes own ledger rows")
        .build();

    let registry = Arc::new(reg);
    let acc = Arc::new(Acc::new(
        Arc::clone(&registry),
        vec![TxnSpec {
            txn_type: TY_BUY,
            name: "buy".into(),
            steps: vec![StepSpec {
                step_type: S_BUY,
                active: vec![cheapest],
            }],
            overflow: Some(0),
            comp_step: Some(CS_BUY),
            guard: DIRTY,
            version_safe: false,
        }],
    ));

    let mut db = Database::new(&catalog);
    // The book: n = 8 shares at $30, plenty at $31.
    db.table_mut(OFFERS)?
        .insert(Row(vec![Value::Int(30), Value::Int(1), Value::Int(4)]))
        .expect("offer");
    db.table_mut(OFFERS)?
        .insert(Row(vec![Value::Int(30), Value::Int(2), Value::Int(4)]))
        .expect("offer");
    db.table_mut(OFFERS)?
        .insert(Row(vec![Value::Int(31), Value::Int(3), Value::Int(100)]))
        .expect("offer");
    let shared = Arc::new(SharedDb::new(db, Arc::new(tables)));

    println!("order book: 8 shares @ $30 (two lots of 4), 100 @ $31");
    println!("T1 and T2 each buy 8 shares, steps interleaved T1,T2,T1,T2…\n");

    // Force the §3.1 interleaving: each buyer takes one $30 lot in its first
    // step and waits for the other's, then continues — so both finish at $31.
    let turns = Arc::new(Turns::default());
    let mut handles = Vec::new();
    for buyer in [1i64, 2] {
        let shared = Arc::clone(&shared);
        let acc = Arc::clone(&acc);
        let turns = Arc::clone(&turns);
        handles.push(std::thread::spawn(move || {
            let mut buy = Buy::new(buyer, 8, turns);
            let out = run(&shared, &*acc, &mut buy, WaitMode::Block).expect("buy");
            (buyer, out, buy.bought)
        }));
    }
    for h in handles {
        let (buyer, out, bought) = h.join().expect("buyer thread");
        println!("T{buyer}: {out:?}");
        for (price, shares) in bought {
            println!("    bought {shares} @ ${price}");
        }
    }

    let db = shared.snapshot_db();
    {
        let by_price: Vec<(i64, i64, i64)> = db
            .table(LEDGER)
            .expect("ledger")
            .iter()
            .map(|(_, r)| (r.int(0), r.int(2), r.int(3)))
            .collect();
        let t1_30: i64 = by_price
            .iter()
            .filter(|(b, p, _)| *b == 1 && *p == 30)
            .map(|(_, _, n)| n)
            .sum();
        let t2_30: i64 = by_price
            .iter()
            .filter(|(b, p, _)| *b == 2 && *p == 30)
            .map(|(_, _, n)| n)
            .sum();
        println!("\nledger: T1 got {t1_30} shares @ $30, T2 got {t2_30} @ $30");
        if t1_30 > 0 && t2_30 > 0 {
            println!(
                "→ BOTH buyers got some $30 shares: impossible under any serial\n  schedule (one buyer would have taken all 8), yet each transaction's\n  postcondition holds — the §3.1 semantically-correct outcome."
            );
        } else {
            println!("→ this run happened to serialize; rerun for the interleaved outcome");
        }
        // Conservation: 8 + 8 bought, book shrank accordingly.
        let remaining: i64 = db
            .table(OFFERS)
            .expect("offers")
            .iter()
            .map(|(_, r)| r.int(2))
            .sum();
        assert_eq!(remaining, 108 - 16);
    }
    println!("stock_trading OK");
    Ok(())
}
