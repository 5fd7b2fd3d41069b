//! Crash recovery with compensating steps.
//!
//! ```text
//! cargo run --example crash_recovery
//! ```
//!
//! 1. Run TPC-C transactions under the ACC, capturing the WAL's durable
//!    image as it would sit on disk.
//! 2. "Crash": truncate the image at an arbitrary byte (here: right after a
//!    new-order's second end-of-step record, so the transaction is in
//!    flight with durable steps).
//! 3. Recover into a fresh database: committed work replayed, the
//!    incomplete step discarded, the in-flight transaction reported.
//! 4. Resume compensation from the recovered work area and verify the
//!    consistency conditions.

use assertional_acc::prelude::*;
use assertional_acc::tpcc;
use assertional_acc::tpcc::input::{NewOrderInput, OrderLineInput, PaymentInput};
use assertional_acc::txn::runner::resume_compensation;
use std::sync::Arc;

fn fresh_base(scale: &tpcc::Scale, seed: u64) -> Database {
    let mut db = Database::new(&tpcc::tpcc_catalog());
    tpcc::populate(&mut db, scale, seed);
    db
}

fn main() -> Result<()> {
    let scale = tpcc::Scale::test();
    let sys = tpcc::TpccSystem::build();
    let shared = Arc::new(SharedDb::new(
        fresh_base(&scale, 11),
        Arc::clone(&sys.tables) as _,
    ));

    // --- 1. live traffic --------------------------------------------------
    let mut pay = tpcc::txns::Payment::new(PaymentInput {
        w_id: 1,
        d_id: 1,
        c_d_id: 1,
        customer: tpcc::input::CustomerSelector::ById(2),
        amount: Decimal::from_int(75),
    });
    run(&shared, &*sys.acc, &mut pay, WaitMode::Block)?;
    println!("payment committed");

    let mut no = tpcc::txns::NewOrder::new(NewOrderInput {
        w_id: 1,
        d_id: 2,
        c_id: 3,
        lines: (0..5)
            .map(|k| OrderLineInput {
                i_id: k + 1,
                supply_w_id: 1,
                qty: 2,
            })
            .collect(),
        rollback: false,
    });

    // Drive the new-order manually so we can crash it mid-flight: run its
    // header step and two line steps, each followed by an end-of-step
    // record, then stop.
    let mut txn = Transaction::new(
        shared.begin_txn(tpcc::decompose::ty::NEW_ORDER),
        tpcc::decompose::ty::NEW_ORDER,
    );
    for _ in 0..3 {
        let mut ctx = StepCtx::new(&shared, &*sys.acc, &mut txn, WaitMode::Block);
        let step_index = ctx.step_index();
        let out = no.step(step_index, &mut ctx)?;
        assert!(matches!(out, StepOutcome::Continue));
        acc_txn::runner::end_step(&shared, &*sys.acc, &mut txn, no.work_area());
    }
    println!(
        "new-order {} in flight: 3 steps durable (header + 2 of 5 lines)",
        txn.id
    );

    // --- 2. crash ----------------------------------------------------------
    let disk_image = shared.wal_bytes();
    // Lose the tail of the log too, for good measure: cut 10 bytes into the
    // last record.
    let cut = disk_image.len() - 10;
    let salvaged = Wal::from_bytes(&disk_image[..cut]);
    println!(
        "crash: salvaged {} of {} log records from a {}-byte image cut at {cut}",
        salvaged.len(),
        shared.wal_len(),
        disk_image.len()
    );

    // --- 3. recovery ---------------------------------------------------------
    let mut recovered_db = fresh_base(&scale, 11);
    let report = recover(&mut recovered_db, &salvaged)?;
    println!(
        "recovery: {} committed, {} redone updates, {} skipped (incomplete steps)",
        report.committed.len(),
        report.redone_updates,
        report.skipped_updates
    );
    for inf in &report.needs_compensation {
        println!(
            "  in flight: {} ({}), {} durable steps — compensation required",
            inf.txn,
            if inf.txn_type == tpcc::decompose::ty::NEW_ORDER {
                "new-order"
            } else {
                "other"
            },
            inf.steps_completed
        );
    }

    // --- 4. resume compensation -------------------------------------------
    let recovered = Arc::new(SharedDb::new(recovered_db, Arc::clone(&sys.tables) as _));
    let n = resume_compensation(
        &recovered,
        &*sys.acc,
        &report.needs_compensation,
        tpcc::recovery::program_for_inflight,
    )?;
    println!("compensated {n} in-flight transaction(s)");

    let db = recovered.snapshot_db();
    let violations = tpcc::consistency::check(&db, false);
    assert!(violations.is_empty(), "{violations:#?}");
    // The in-flight order is gone; the committed payment survived.
    assert!(db
        .table(tpcc::schema::TABLES.order)
        .expect("order table")
        .get(&Key::ints(&[1, 2, 5]))
        .is_none());
    let w = db
        .table(tpcc::schema::TABLES.warehouse)
        .expect("warehouse table")
        .get(&Key::ints(&[1]))
        .expect("warehouse 1")
        .1
        .decimal(tpcc::schema::col::w::YTD);
    assert_eq!(w, Decimal::from_int(75));
    println!("post-recovery consistency: OK");
    println!("crash_recovery OK");
    Ok(())
}
