//! Quickstart: decompose a transaction into steps, analyze interference,
//! and watch the ACC let steps interleave where 2PL would serialize.
//!
//! ```text
//! cargo run --example quickstart
//! ```
//!
//! The scenario is a tiny funds-ledger: `transfer` moves money in two steps
//! (debit, then credit) with the interstep assertion "the debited amount is
//! in flight"; `audit` sums all balances and requires the ledger invariant.

use assertional_acc::prelude::*;
use std::sync::Arc;

const ACCOUNTS: TableId = TableId(0);
const TY_TRANSFER: TxnTypeId = TxnTypeId(1);
const TY_AUDIT: TxnTypeId = TxnTypeId(2);
const S_DEBIT: StepTypeId = StepTypeId(1);
const S_CREDIT: StepTypeId = StepTypeId(2);
const S_AUDIT: StepTypeId = StepTypeId(3);
const CS_TRANSFER: StepTypeId = StepTypeId(9);

struct Transfer {
    from: i64,
    to: i64,
    amount: Decimal,
}

impl TxnProgram for Transfer {
    fn txn_type(&self) -> TxnTypeId {
        TY_TRANSFER
    }

    fn step(&mut self, i: u32, ctx: &mut StepCtx<'_>) -> Result<StepOutcome> {
        let amount = self.amount;
        if i == 0 {
            ctx.update_key(ACCOUNTS, &Key::ints(&[self.from]), |r| {
                let b = r.decimal(1);
                r.set(1, Value::from(b - amount));
            })?;
            Ok(StepOutcome::Continue) // ← locks on `from` drop HERE under the ACC
        } else {
            ctx.update_key(ACCOUNTS, &Key::ints(&[self.to]), |r| {
                let b = r.decimal(1);
                r.set(1, Value::from(b + amount));
            })?;
            Ok(StepOutcome::Done)
        }
    }

    fn compensate(&mut self, steps_completed: u32, ctx: &mut StepCtx<'_>) -> Result<()> {
        let amount = self.amount;
        if steps_completed >= 1 {
            ctx.update_key(ACCOUNTS, &Key::ints(&[self.from]), |r| {
                let b = r.decimal(1);
                r.set(1, Value::from(b + amount));
            })?;
        }
        Ok(())
    }
}

struct Audit {
    total: Option<Decimal>,
}

impl TxnProgram for Audit {
    fn txn_type(&self) -> TxnTypeId {
        TY_AUDIT
    }
    fn step(&mut self, _i: u32, ctx: &mut StepCtx<'_>) -> Result<StepOutcome> {
        let rows = ctx.scan(ACCOUNTS, &Predicate::True)?;
        self.total = Some(rows.iter().map(|(_, r)| r.decimal(1)).sum());
        Ok(StepOutcome::Done)
    }
}

fn main() -> Result<()> {
    // ---- design time: templates, footprints, analysis -------------------
    let mut registry = AssertionRegistry::new();
    // transfer's interstep assertion: "my debited amount is in flight"; it
    // references balances, so the audit (which requires the full invariant)
    // is the transaction that must be kept away.
    let in_flight = registry.define(
        "transfer-in-flight",
        vec![TableFootprint::columns(ACCOUNTS, [1])],
        None,
    );

    let (tables, decisions) = Inference::new(&registry)
        .step(StepFootprint::new(
            S_DEBIT,
            "transfer: debit",
            vec![TableFootprint::columns(ACCOUNTS, [1])],
        ))
        .step(StepFootprint::new(
            S_CREDIT,
            "transfer: credit",
            vec![TableFootprint::columns(ACCOUNTS, [1])],
        ))
        .step(StepFootprint::new(S_AUDIT, "audit (read-only)", vec![]))
        .step(StepFootprint::new(
            CS_TRANSFER,
            "transfer compensation",
            vec![TableFootprint::columns(ACCOUNTS, [1])],
        ))
        // Concurrent transfers don't invalidate each other's in-flight
        // assertion: balance changes commute with "my debit happened".
        .declare_safe(S_DEBIT, in_flight, "balance deltas commute")
        .declare_safe(S_CREDIT, in_flight, "balance deltas commute")
        .declare_safe(
            CS_TRANSFER,
            in_flight,
            "compensation restores its own debit",
        )
        .declare_safe(
            S_DEBIT,
            DIRTY,
            "deltas commute; compensation restores by addition",
        )
        .declare_safe(S_CREDIT, DIRTY, "deltas commute")
        .declare_safe(CS_TRANSFER, DIRTY, "restores its own debit only")
        // The audit reports totals: it must only see committed money.
        .require_committed_reads(S_AUDIT)
        .build();

    println!(
        "design-time analysis made {} decisions, e.g.:",
        decisions.len()
    );
    for d in decisions.iter().take(3) {
        println!(
            "  step {:>2} vs template {}: {} ({})",
            d.step.raw(),
            d.template.raw(),
            if d.interferes { "INTERFERES" } else { "safe" },
            d.why
        );
    }

    let registry = Arc::new(registry);
    let acc = Acc::new(
        Arc::clone(&registry),
        vec![
            TxnSpec {
                txn_type: TY_TRANSFER,
                name: "transfer".into(),
                steps: vec![
                    StepSpec {
                        step_type: S_DEBIT,
                        active: vec![in_flight],
                    },
                    StepSpec {
                        step_type: S_CREDIT,
                        active: vec![in_flight],
                    },
                ],
                overflow: None,
                comp_step: Some(CS_TRANSFER),
                guard: DIRTY,
                version_safe: false,
            },
            TxnSpec {
                txn_type: TY_AUDIT,
                name: "audit".into(),
                steps: vec![StepSpec {
                    step_type: S_AUDIT,
                    active: vec![],
                }],
                overflow: None,
                comp_step: None,
                guard: DIRTY,
                // Read-only: eligible for coordination-free version reads.
                version_safe: true,
            },
        ],
    );

    // ---- run time --------------------------------------------------------
    let mut catalog = Catalog::new();
    catalog.add_table(
        TableSchema::builder("accounts")
            .column("id", ColumnType::Int)
            .column("balance", ColumnType::Decimal)
            .key(&["id"])
            .rows_per_page(1)
            .build(),
    );
    let mut db = Database::new(&catalog);
    for i in 0..4 {
        db.table_mut(ACCOUNTS)?
            .insert(Row(vec![
                Value::Int(i),
                Value::from(Decimal::from_int(100)),
            ]))
            .expect("fresh row");
    }
    let shared = SharedDb::new(db, Arc::new(tables));

    // Run a couple of transfers and an audit under the ACC.
    for (from, to) in [(0, 1), (2, 3), (1, 2)] {
        let mut t = Transfer {
            from,
            to,
            amount: Decimal::from_int(10),
        };
        let out = run(&shared, &acc, &mut t, WaitMode::Block)?;
        println!("transfer {from}→{to}: {out:?}");
    }
    let mut audit = Audit { total: None };
    run(&shared, &acc, &mut audit, WaitMode::Block)?;
    println!(
        "audit total: {} (started with 400.0000)",
        audit.total.expect("audit ran")
    );
    assert_eq!(audit.total, Some(Decimal::from_int(400)));

    // The same programs run unchanged under plain 2PL.
    let mut t = Transfer {
        from: 3,
        to: 0,
        amount: Decimal::from_int(5),
    };
    let out = run(&shared, &TwoPhase, &mut t, WaitMode::Block)?;
    println!("same program under strict 2PL: {out:?}");

    println!("quickstart OK");
    Ok(())
}
