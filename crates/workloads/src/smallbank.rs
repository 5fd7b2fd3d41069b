//! A smallbank-style account workload, analyzed entirely by inference.
//!
//! Four tables (ACCOUNT, SAVINGS, CHECKING and a one-row LEDGER), seven
//! transaction types: balance inquiry (read-only), three one-step balance
//! mutators, two-step send-payment and amalgamate (both compensatable), and
//! open-account (fresh-key inserts). Every balance mutation is a commutative
//! integer delta whose compensation is the inverse delta, and the only
//! assignments in the system land on freshly allocated keys — so the
//! inference proves every step guard-safe and the whole mix runs without a
//! single hand declaration.
//!
//! The one deliberate conservative cell: `conserve-mid` (the mid-transfer
//! conservation template) reads the SAVINGS/CHECKING balance columns *over
//! all rows* — a cardinality-dependent sum — so `open-account`'s fresh
//! inserts interfere with it. The insert actually preserves conservation
//! (it bumps the ledger total in the same step), but that atomicity argument
//! has no footprint form; the matrix takes the paper's conservative default.
//!
//! The global invariant audited at quiescence: `LEDGER.total` equals the sum
//! of every savings and checking balance, no balance is negative, and the
//! three per-account tables hold exactly the same id sets.

use acc_common::{AssertionTemplateId, Error, Result, SeededRng, TableId, TxnTypeId, Value};
use acc_core::{
    Acc, AssertionRegistry, Decision, Inference, InterferenceTables, KeySpace, StepFootprint,
    StepSpec, TableFootprint, TxnSpec, DIRTY,
};
use acc_engine::Workload;
use acc_storage::{Catalog, ColumnType, Database, Key, Row, TableSchema};
use acc_txn::{decode_work_area, encode_work_area, StepCtx, StepOutcome, TxnProgram};
use acc_wal::InFlight;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Table ids in catalog order.
pub mod table {
    use acc_common::TableId;
    pub const ACCOUNT: TableId = TableId(0);
    pub const SAVINGS: TableId = TableId(1);
    pub const CHECKING: TableId = TableId(2);
    pub const LEDGER: TableId = TableId(3);
}

/// Column positions.
pub mod col {
    /// ACCOUNT columns.
    pub mod a {
        pub const ID: usize = 0;
        pub const NAME: usize = 1;
    }
    /// SAVINGS / CHECKING columns (same shape).
    pub mod b {
        pub const ID: usize = 0;
        pub const BAL: usize = 1;
    }
    /// LEDGER columns (single row, id 0).
    pub mod l {
        pub const ID: usize = 0;
        pub const TOTAL: usize = 1;
        pub const NEXT_ID: usize = 2;
    }
}

/// Key space of freshly opened account ids (allocated from `LEDGER.next_id`).
pub const ACCT: KeySpace = KeySpace(0);

/// Step type ids.
pub mod step {
    use acc_common::StepTypeId;
    pub const BAL: StepTypeId = StepTypeId(1);
    pub const DEP: StepTypeId = StepTypeId(2);
    pub const TRS: StepTypeId = StepTypeId(3);
    pub const WRC: StepTypeId = StepTypeId(4);
    pub const SP_S1: StepTypeId = StepTypeId(5);
    pub const SP_S2: StepTypeId = StepTypeId(6);
    pub const AMG_S1: StepTypeId = StepTypeId(7);
    pub const AMG_S2: StepTypeId = StepTypeId(8);
    pub const OPEN: StepTypeId = StepTypeId(9);
    pub const SP_CS: StepTypeId = StepTypeId(20);
    pub const AMG_CS: StepTypeId = StepTypeId(21);
}

/// Transaction type ids.
pub mod ty {
    use acc_common::TxnTypeId;
    pub const BALANCE: TxnTypeId = TxnTypeId(1);
    pub const DEPOSIT: TxnTypeId = TxnTypeId(2);
    pub const TRANSACT_SAVINGS: TxnTypeId = TxnTypeId(3);
    pub const WRITE_CHECK: TxnTypeId = TxnTypeId(4);
    pub const SEND_PAYMENT: TxnTypeId = TxnTypeId(5);
    pub const AMALGAMATE: TxnTypeId = TxnTypeId(6);
    pub const OPEN_ACCOUNT: TxnTypeId = TxnTypeId(7);
}

fn catalog() -> Catalog {
    let mut c = Catalog::new();
    c.add_table(
        TableSchema::builder("account")
            .column("id", ColumnType::Int)
            .column("name", ColumnType::Int)
            .key(&["id"])
            .build(),
    );
    c.add_table(
        TableSchema::builder("savings")
            .column("id", ColumnType::Int)
            .column("bal", ColumnType::Int)
            .key(&["id"])
            .build(),
    );
    c.add_table(
        TableSchema::builder("checking")
            .column("id", ColumnType::Int)
            .column("bal", ColumnType::Int)
            .key(&["id"])
            .build(),
    );
    c.add_table(
        TableSchema::builder("ledger")
            .column("id", ColumnType::Int)
            .column("total", ColumnType::Int)
            .column("next_id", ColumnType::Int)
            .key(&["id"])
            .rows_per_page(1)
            .build(),
    );
    c
}

const INIT_SAVINGS: i64 = 1000;
const INIT_CHECKING: i64 = 500;

/// Build and populate the base database: accounts `1..=n`.
pub fn populate(n: i64) -> Database {
    let mut db = Database::new(&catalog());
    for i in 1..=n {
        db.table_mut(table::ACCOUNT)
            .expect("account table")
            .insert(Row(vec![Value::Int(i), Value::Int(i)]))
            .expect("populate account");
        db.table_mut(table::SAVINGS)
            .expect("savings table")
            .insert(Row(vec![Value::Int(i), Value::Int(INIT_SAVINGS)]))
            .expect("populate savings");
        db.table_mut(table::CHECKING)
            .expect("checking table")
            .insert(Row(vec![Value::Int(i), Value::Int(INIT_CHECKING)]))
            .expect("populate checking");
    }
    db.table_mut(table::LEDGER)
        .expect("ledger table")
        .insert(Row(vec![
            Value::Int(0),
            Value::Int(n * (INIT_SAVINGS + INIT_CHECKING)),
            Value::Int(n + 1),
        ]))
        .expect("populate ledger");
    db
}

/// The complete design-time product, machine-derived: templates, inferred
/// interference tables, ACC policy, the seeded mix generator, the recovery
/// hook, and the consistency auditor — the family's one [`Workload`].
pub struct SmallbankKit {
    /// The template registry (DIRTY + `conserve-mid`).
    pub registry: Arc<AssertionRegistry>,
    /// The machine-inferred interference matrix.
    pub tables: Arc<InterferenceTables>,
    /// The ACC policy driving the decomposed types.
    pub acc: Arc<Acc>,
    /// Every recorded inference decision (proof or blocking obligation).
    pub decisions: Vec<Decision>,
    /// The mid-transfer conservation template.
    pub conserve: AssertionTemplateId,
    /// Accounts in the base population.
    pub accounts: i64,
}

impl SmallbankKit {
    /// Run the inference and build the policy for a population of `accounts`.
    pub fn build(accounts: i64) -> SmallbankKit {
        use col::{b, l};
        use step::*;
        use table::*;

        let mut reg = AssertionRegistry::new();
        // "The money I moved out of the source is still in flight, and the
        // global total accounts for it": a sum over every balance, invariant
        // under other transactions' commutative deltas, but dependent on the
        // row population.
        let conserve = reg.define(
            "conserve-mid: global total accounts for my in-flight transfer",
            vec![
                TableFootprint::rows(SAVINGS, [b::BAL]).tolerates_deltas(),
                TableFootprint::rows(CHECKING, [b::BAL]).tolerates_deltas(),
                TableFootprint::columns(LEDGER, [l::TOTAL]).tolerates_deltas(),
            ],
            None,
        );

        let (tables, decisions) = Inference::new(&reg)
            .step(StepFootprint::new(BAL, "balance (read-only)", vec![]))
            .step(StepFootprint::new(
                DEP,
                "deposit-checking",
                vec![
                    TableFootprint::columns(CHECKING, [b::BAL]).delta(),
                    TableFootprint::columns(LEDGER, [l::TOTAL]).delta(),
                ],
            ))
            .step(StepFootprint::new(
                TRS,
                "transact-savings",
                vec![
                    TableFootprint::columns(SAVINGS, [b::BAL]).delta(),
                    TableFootprint::columns(LEDGER, [l::TOTAL]).delta(),
                ],
            ))
            .step(StepFootprint::new(
                WRC,
                "write-check",
                vec![
                    TableFootprint::columns(CHECKING, [b::BAL]).delta(),
                    TableFootprint::columns(LEDGER, [l::TOTAL]).delta(),
                ],
            ))
            .step(StepFootprint::new(
                SP_S1,
                "send-payment: debit source",
                vec![TableFootprint::columns(CHECKING, [b::BAL]).delta()],
            ))
            .step(StepFootprint::new(
                SP_S2,
                "send-payment: credit destination",
                vec![TableFootprint::columns(CHECKING, [b::BAL]).delta()],
            ))
            .step(StepFootprint::new(
                AMG_S1,
                "amalgamate: drain source",
                // The drained amounts are fixed when the step executes (it
                // reads the balances it zeroes), so the write is a delta and
                // its compensation the inverse delta.
                vec![
                    TableFootprint::columns(SAVINGS, [b::BAL]).delta(),
                    TableFootprint::columns(CHECKING, [b::BAL]).delta(),
                ],
            ))
            .step(StepFootprint::new(
                AMG_S2,
                "amalgamate: credit destination",
                vec![TableFootprint::columns(CHECKING, [b::BAL]).delta()],
            ))
            .step(StepFootprint::new(
                OPEN,
                "open-account",
                vec![
                    TableFootprint::columns(LEDGER, [l::TOTAL, l::NEXT_ID]).delta(),
                    TableFootprint::rows(ACCOUNT, [0, 1]).fresh(ACCT),
                    TableFootprint::rows(SAVINGS, [0, 1]).fresh(ACCT),
                    TableFootprint::rows(CHECKING, [0, 1]).fresh(ACCT),
                ],
            ))
            .step(StepFootprint::new(
                SP_CS,
                "send-payment compensation",
                vec![TableFootprint::columns(CHECKING, [b::BAL]).delta()],
            ))
            .step(StepFootprint::new(
                AMG_CS,
                "amalgamate compensation",
                vec![
                    TableFootprint::columns(SAVINGS, [b::BAL]).delta(),
                    TableFootprint::columns(CHECKING, [b::BAL]).delta(),
                ],
            ))
            .require_committed_reads(BAL)
            .build();

        let one_step = |ty, name: &str, st| TxnSpec {
            txn_type: ty,
            name: name.to_owned(),
            steps: vec![StepSpec {
                step_type: st,
                active: vec![],
            }],
            overflow: None,
            comp_step: None,
            guard: DIRTY,
            version_safe: false,
        };
        let specs = vec![
            TxnSpec {
                version_safe: true,
                ..one_step(ty::BALANCE, "balance", BAL)
            },
            one_step(ty::DEPOSIT, "deposit-checking", DEP),
            one_step(ty::TRANSACT_SAVINGS, "transact-savings", TRS),
            one_step(ty::WRITE_CHECK, "write-check", WRC),
            TxnSpec {
                txn_type: ty::SEND_PAYMENT,
                name: "send-payment".to_owned(),
                steps: vec![
                    StepSpec {
                        step_type: SP_S1,
                        active: vec![conserve],
                    },
                    StepSpec {
                        step_type: SP_S2,
                        active: vec![conserve],
                    },
                ],
                overflow: None,
                comp_step: Some(SP_CS),
                guard: DIRTY,
                version_safe: false,
            },
            TxnSpec {
                txn_type: ty::AMALGAMATE,
                name: "amalgamate".to_owned(),
                steps: vec![
                    StepSpec {
                        step_type: AMG_S1,
                        active: vec![conserve],
                    },
                    StepSpec {
                        step_type: AMG_S2,
                        active: vec![conserve],
                    },
                ],
                overflow: None,
                comp_step: Some(AMG_CS),
                guard: DIRTY,
                version_safe: false,
            },
            one_step(ty::OPEN_ACCOUNT, "open-account", OPEN),
        ];

        let registry = Arc::new(reg);
        let acc = Arc::new(Acc::new(Arc::clone(&registry), specs));
        SmallbankKit {
            registry,
            tables: Arc::new(tables),
            acc,
            decisions,
            conserve,
            accounts,
        }
    }

    /// One seeded transaction from the standard mix.
    pub fn next_program(&self, rng: &mut SeededRng) -> Box<dyn TxnProgram + Send> {
        let id = rng.int_range(1, self.accounts);
        match rng.index(100) {
            0..=14 => Box::new(Balance { id }),
            15..=34 => Box::new(Deposit {
                id,
                amount: rng.int_range(1, 100),
            }),
            35..=49 => Box::new(TransactSavings {
                id,
                amount: rng.int_range(-40, 60),
            }),
            50..=64 => Box::new(WriteCheck {
                id,
                amount: rng.int_range(1, 120),
            }),
            65..=84 => {
                let mut dst = rng.int_range(1, self.accounts);
                if dst == id {
                    dst = dst % self.accounts + 1;
                }
                Box::new(SendPayment {
                    src: id,
                    dst,
                    amount: rng.int_range(1, 80),
                })
            }
            85..=94 => {
                let mut dst = rng.int_range(1, self.accounts);
                if dst == id {
                    dst = dst % self.accounts + 1;
                }
                Box::new(Amalgamate::new(id, dst))
            }
            _ => Box::new(OpenAccount {
                initial: rng.int_range(0, 200),
                opened: None,
            }),
        }
    }
}

impl Workload for SmallbankKit {
    fn name(&self) -> &'static str {
        "smallbank"
    }
    fn base(&self) -> Database {
        populate(self.accounts)
    }
    fn tables(&self) -> Arc<InterferenceTables> {
        Arc::clone(&self.tables)
    }
    fn acc(&self) -> Arc<Acc> {
        Arc::clone(&self.acc)
    }
    fn next_program(&self, rng: &mut SeededRng) -> Box<dyn TxnProgram + Send> {
        SmallbankKit::next_program(self, rng)
    }
    fn program_for_inflight(&self, inf: &InFlight) -> Result<Box<dyn TxnProgram + Send>> {
        fn boxed(
            p: Option<impl TxnProgram + Send + 'static>,
        ) -> Option<Box<dyn TxnProgram + Send>> {
            p.map(|p| Box::new(p) as _)
        }
        let wa = &inf.work_area;
        let (what, program) = match inf.txn_type {
            t if t == ty::SEND_PAYMENT => ("send-payment", boxed(SendPayment::recovered(wa))),
            t if t == ty::AMALGAMATE => ("amalgamate", boxed(Amalgamate::recovered(wa))),
            other => {
                return Err(Error::Recovery(format!(
                    "in-flight transaction {} has non-compensable smallbank type {other}",
                    inf.txn
                )))
            }
        };
        program
            .ok_or_else(|| Error::Recovery(format!("unparseable {what} work area for {}", inf.txn)))
    }
    fn audit(&self, db: &Database) -> Vec<String> {
        audit(db)
    }
}

/// The quiescence audit: conservation of money, non-negative balances,
/// aligned id sets, and a sane id allocator. Returns one line per violation.
pub fn audit(db: &Database) -> Vec<String> {
    use col::{a, b, l};
    let mut out = Vec::new();
    let accounts = db.table(table::ACCOUNT).expect("account table");
    let savings = db.table(table::SAVINGS).expect("savings table");
    let checking = db.table(table::CHECKING).expect("checking table");
    let ledger = db.table(table::LEDGER).expect("ledger table");

    let acct_ids: BTreeSet<i64> = accounts.iter().map(|(_, r)| r.int(a::ID)).collect();
    let sav_ids: BTreeSet<i64> = savings.iter().map(|(_, r)| r.int(b::ID)).collect();
    let chk_ids: BTreeSet<i64> = checking.iter().map(|(_, r)| r.int(b::ID)).collect();
    if sav_ids != acct_ids || chk_ids != acct_ids {
        out.push(format!(
            "account tables misaligned: {} accounts, {} savings, {} checking",
            acct_ids.len(),
            sav_ids.len(),
            chk_ids.len()
        ));
    }

    let mut sum = 0i64;
    for (tbl, name) in [(savings, "savings"), (checking, "checking")] {
        for (_, r) in tbl.iter() {
            let bal = r.int(b::BAL);
            if bal < 0 {
                out.push(format!(
                    "{name} balance of account {} is {bal}",
                    r.int(b::ID)
                ));
            }
            sum += bal;
        }
    }

    let (_, lrow) = ledger
        .get(&Key::ints(&[0]))
        .expect("ledger row 0 must exist");
    if lrow.int(l::TOTAL) != sum {
        out.push(format!(
            "ledger total {} != sum of balances {sum}",
            lrow.int(l::TOTAL)
        ));
    }
    let max_id = acct_ids.iter().max().copied().unwrap_or(0);
    if lrow.int(l::NEXT_ID) <= max_id {
        out.push(format!(
            "ledger next_id {} <= max account id {max_id}",
            lrow.int(l::NEXT_ID)
        ));
    }
    out
}

fn add_int(ctx: &mut StepCtx<'_>, tbl: TableId, key: &Key, c: usize, d: i64) -> Result<()> {
    let updated = ctx.update_key(tbl, key, |r| {
        let v = r.int(c);
        r.set(c, Value::Int(v + d));
    })?;
    if !updated {
        return Err(Error::NotFound(format!("{tbl:?} row {key:?}")));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Programs
// ---------------------------------------------------------------------------

/// Read-only balance inquiry (version-read eligible).
pub struct Balance {
    /// Account inspected.
    pub id: i64,
}

impl TxnProgram for Balance {
    fn txn_type(&self) -> TxnTypeId {
        ty::BALANCE
    }
    fn step(&mut self, _i: u32, ctx: &mut StepCtx<'_>) -> Result<StepOutcome> {
        let key = Key::ints(&[self.id]);
        let s = ctx.read(table::SAVINGS, &key)?;
        let c = ctx.read(table::CHECKING, &key)?;
        let _ = (s, c);
        Ok(StepOutcome::Done)
    }
}

/// One-step checking deposit.
pub struct Deposit {
    /// Target account.
    pub id: i64,
    /// Amount (positive).
    pub amount: i64,
}

impl TxnProgram for Deposit {
    fn txn_type(&self) -> TxnTypeId {
        ty::DEPOSIT
    }
    fn step(&mut self, _i: u32, ctx: &mut StepCtx<'_>) -> Result<StepOutcome> {
        add_int(
            ctx,
            table::CHECKING,
            &Key::ints(&[self.id]),
            col::b::BAL,
            self.amount,
        )?;
        add_int(
            ctx,
            table::LEDGER,
            &Key::ints(&[0]),
            col::l::TOTAL,
            self.amount,
        )?;
        Ok(StepOutcome::Done)
    }
}

/// One-step savings credit/debit; aborts rather than overdraw.
pub struct TransactSavings {
    /// Target account.
    pub id: i64,
    /// Signed amount.
    pub amount: i64,
}

impl TxnProgram for TransactSavings {
    fn txn_type(&self) -> TxnTypeId {
        ty::TRANSACT_SAVINGS
    }
    fn step(&mut self, _i: u32, ctx: &mut StepCtx<'_>) -> Result<StepOutcome> {
        let key = Key::ints(&[self.id]);
        let row = ctx
            .read_for_update(table::SAVINGS, &key)?
            .ok_or_else(|| Error::NotFound(format!("savings {}", self.id)))?;
        if row.int(col::b::BAL) + self.amount < 0 {
            return Ok(StepOutcome::Abort);
        }
        add_int(ctx, table::SAVINGS, &key, col::b::BAL, self.amount)?;
        add_int(
            ctx,
            table::LEDGER,
            &Key::ints(&[0]),
            col::l::TOTAL,
            self.amount,
        )?;
        Ok(StepOutcome::Done)
    }
}

/// One-step check: debits checking; aborts on insufficient funds.
pub struct WriteCheck {
    /// Target account.
    pub id: i64,
    /// Amount (positive).
    pub amount: i64,
}

impl TxnProgram for WriteCheck {
    fn txn_type(&self) -> TxnTypeId {
        ty::WRITE_CHECK
    }
    fn step(&mut self, _i: u32, ctx: &mut StepCtx<'_>) -> Result<StepOutcome> {
        let key = Key::ints(&[self.id]);
        let row = ctx
            .read_for_update(table::CHECKING, &key)?
            .ok_or_else(|| Error::NotFound(format!("checking {}", self.id)))?;
        if row.int(col::b::BAL) < self.amount {
            return Ok(StepOutcome::Abort);
        }
        add_int(ctx, table::CHECKING, &key, col::b::BAL, -self.amount)?;
        add_int(
            ctx,
            table::LEDGER,
            &Key::ints(&[0]),
            col::l::TOTAL,
            -self.amount,
        )?;
        Ok(StepOutcome::Done)
    }
}

/// Two-step checking-to-checking transfer; compensation credits the source
/// back.
pub struct SendPayment {
    /// Source account.
    pub src: i64,
    /// Destination account.
    pub dst: i64,
    /// Amount (positive).
    pub amount: i64,
}

impl SendPayment {
    /// Rebuild from a recovered work area `[src, dst, amount]`.
    pub fn recovered(wa: &[u8]) -> Option<SendPayment> {
        match *decode_work_area(wa)?.as_slice() {
            [src, dst, amount] if amount >= 0 => Some(SendPayment { src, dst, amount }),
            _ => None,
        }
    }
}

impl TxnProgram for SendPayment {
    fn txn_type(&self) -> TxnTypeId {
        ty::SEND_PAYMENT
    }
    fn step(&mut self, i: u32, ctx: &mut StepCtx<'_>) -> Result<StepOutcome> {
        if i == 0 {
            let key = Key::ints(&[self.src]);
            let row = ctx
                .read_for_update(table::CHECKING, &key)?
                .ok_or_else(|| Error::NotFound(format!("checking {}", self.src)))?;
            if row.int(col::b::BAL) < self.amount {
                return Ok(StepOutcome::Abort);
            }
            add_int(ctx, table::CHECKING, &key, col::b::BAL, -self.amount)?;
            Ok(StepOutcome::Continue)
        } else {
            add_int(
                ctx,
                table::CHECKING,
                &Key::ints(&[self.dst]),
                col::b::BAL,
                self.amount,
            )?;
            Ok(StepOutcome::Done)
        }
    }
    fn compensate(&mut self, steps_completed: u32, ctx: &mut StepCtx<'_>) -> Result<()> {
        if steps_completed >= 1 {
            add_int(
                ctx,
                table::CHECKING,
                &Key::ints(&[self.src]),
                col::b::BAL,
                self.amount,
            )?;
        }
        Ok(())
    }
    fn work_area(&self) -> Vec<u8> {
        encode_work_area(&[self.src, self.dst, self.amount])
    }
}

/// Two-step amalgamate: drain the source's savings and checking into the
/// destination's checking. The drained amounts are fixed at step-1 execution
/// and travel in the work area so compensation can restore them after a
/// crash.
pub struct Amalgamate {
    /// Source account.
    pub src: i64,
    /// Destination account.
    pub dst: i64,
    /// Savings amount drained in step 0 (idempotently overwritten).
    pub moved_savings: i64,
    /// Checking amount drained in step 0.
    pub moved_checking: i64,
}

impl Amalgamate {
    /// A fresh amalgamate.
    pub fn new(src: i64, dst: i64) -> Amalgamate {
        Amalgamate {
            src,
            dst,
            moved_savings: 0,
            moved_checking: 0,
        }
    }

    /// Rebuild from a recovered work area
    /// `[src, dst, moved_savings, moved_checking]`.
    pub fn recovered(wa: &[u8]) -> Option<Amalgamate> {
        let &[src, dst, moved_savings, moved_checking] = decode_work_area(wa)?.as_slice() else {
            return None;
        };
        Some(Amalgamate {
            src,
            dst,
            moved_savings,
            moved_checking,
        })
    }
}

impl TxnProgram for Amalgamate {
    fn txn_type(&self) -> TxnTypeId {
        ty::AMALGAMATE
    }
    fn step(&mut self, i: u32, ctx: &mut StepCtx<'_>) -> Result<StepOutcome> {
        let src_key = Key::ints(&[self.src]);
        if i == 0 {
            let s = ctx.read_existing(table::SAVINGS, &src_key)?;
            let c = ctx.read_existing(table::CHECKING, &src_key)?;
            self.moved_savings = s.int(col::b::BAL);
            self.moved_checking = c.int(col::b::BAL);
            add_int(
                ctx,
                table::SAVINGS,
                &src_key,
                col::b::BAL,
                -self.moved_savings,
            )?;
            add_int(
                ctx,
                table::CHECKING,
                &src_key,
                col::b::BAL,
                -self.moved_checking,
            )?;
            Ok(StepOutcome::Continue)
        } else {
            add_int(
                ctx,
                table::CHECKING,
                &Key::ints(&[self.dst]),
                col::b::BAL,
                self.moved_savings + self.moved_checking,
            )?;
            Ok(StepOutcome::Done)
        }
    }
    fn compensate(&mut self, steps_completed: u32, ctx: &mut StepCtx<'_>) -> Result<()> {
        if steps_completed >= 1 {
            let src_key = Key::ints(&[self.src]);
            add_int(
                ctx,
                table::SAVINGS,
                &src_key,
                col::b::BAL,
                self.moved_savings,
            )?;
            add_int(
                ctx,
                table::CHECKING,
                &src_key,
                col::b::BAL,
                self.moved_checking,
            )?;
        }
        Ok(())
    }
    fn work_area(&self) -> Vec<u8> {
        encode_work_area(&[self.src, self.dst, self.moved_savings, self.moved_checking])
    }
}

/// One-step open-account: allocate an id from the ledger, insert the three
/// per-account rows, and fold the opening balance into the total.
pub struct OpenAccount {
    /// Opening checking balance.
    pub initial: i64,
    /// The id allocated at execution (idempotently overwritten).
    pub opened: Option<i64>,
}

impl TxnProgram for OpenAccount {
    fn txn_type(&self) -> TxnTypeId {
        ty::OPEN_ACCOUNT
    }
    fn step(&mut self, _i: u32, ctx: &mut StepCtx<'_>) -> Result<StepOutcome> {
        let lkey = Key::ints(&[0]);
        let lrow = ctx
            .read_for_update(table::LEDGER, &lkey)?
            .ok_or_else(|| Error::NotFound("ledger row".to_owned()))?;
        let id = lrow.int(col::l::NEXT_ID);
        self.opened = Some(id);
        ctx.update_key(table::LEDGER, &lkey, |r| {
            let total = r.int(col::l::TOTAL);
            r.set(col::l::TOTAL, Value::Int(total + self.initial));
            r.set(col::l::NEXT_ID, Value::Int(id + 1));
        })?;
        ctx.insert(table::ACCOUNT, Row(vec![Value::Int(id), Value::Int(id)]))?;
        ctx.insert(table::SAVINGS, Row(vec![Value::Int(id), Value::Int(0)]))?;
        ctx.insert(
            table::CHECKING,
            Row(vec![Value::Int(id), Value::Int(self.initial)]),
        )?;
        Ok(StepOutcome::Done)
    }
}
