//! Deterministic-scheduler tests: seeded interleaving exploration with
//! invariant checking at quiescence.

use acc_common::SeededRng;
use acc_common::{Decimal, Result, StepTypeId, TableId, TxnTypeId, Value};
use acc_engine::{Stepper, StepperConfig};
use acc_lockmgr::{LockKind, LockMode, NoInterference};
use acc_storage::{Catalog, ColumnType, Database, Key, Row, TableSchema};
use acc_txn::{
    ConcurrencyControl, RunOutcome, SharedDb, StepCtx, StepOutcome, TwoPhase, TxnMeta, TxnProgram,
};
use std::sync::Arc;

const ACCOUNTS: TableId = TableId(0);

fn shared(n_accounts: i64) -> Arc<SharedDb> {
    let mut c = Catalog::new();
    c.add_table(
        TableSchema::builder("accounts")
            .column("id", ColumnType::Int)
            .column("balance", ColumnType::Decimal)
            .key(&["id"])
            .rows_per_page(1)
            .build(),
    );
    let mut db = Database::new(&c);
    for i in 0..n_accounts {
        db.table_mut(ACCOUNTS)
            .unwrap()
            .insert(Row::from(vec![
                Value::Int(i),
                Value::from(Decimal::from_int(100)),
            ]))
            .unwrap();
    }
    Arc::new(SharedDb::new(db, Arc::new(NoInterference)))
}

fn total(shared: &SharedDb) -> Decimal {
    let t = shared.table(ACCOUNTS).unwrap();
    t.iter().map(|(_, r)| r.decimal(1)).sum()
}

/// Two-op transfer; under 2PL it is a single atomic unit, under the
/// decomposed policy each op is its own step with compensation.
struct Transfer {
    from: i64,
    to: i64,
    decomposed: bool,
}

impl TxnProgram for Transfer {
    fn txn_type(&self) -> TxnTypeId {
        TxnTypeId(0)
    }

    fn step(&mut self, i: u32, ctx: &mut StepCtx<'_>) -> Result<StepOutcome> {
        let amount = Decimal::from_int(1);
        if i == 0 {
            ctx.update_key(ACCOUNTS, &Key::ints(&[self.from]), |r| {
                let b = r.decimal(1);
                r.set(1, Value::from(b - amount));
            })?;
            Ok(if self.decomposed {
                StepOutcome::Continue
            } else {
                // 2PL variant does both ops in one step.
                ctx.update_key(ACCOUNTS, &Key::ints(&[self.to]), |r| {
                    let b = r.decimal(1);
                    r.set(1, Value::from(b + amount));
                })?;
                StepOutcome::Done
            })
        } else {
            ctx.update_key(ACCOUNTS, &Key::ints(&[self.to]), |r| {
                let b = r.decimal(1);
                r.set(1, Value::from(b + amount));
            })?;
            Ok(StepOutcome::Done)
        }
    }

    fn compensate(&mut self, steps_completed: u32, ctx: &mut StepCtx<'_>) -> Result<()> {
        let amount = Decimal::from_int(1);
        if steps_completed >= 1 {
            ctx.update_key(ACCOUNTS, &Key::ints(&[self.from]), |r| {
                let b = r.decimal(1);
                r.set(1, Value::from(b + amount));
            })?;
        }
        Ok(())
    }
}

struct StepRelease;

impl ConcurrencyControl for StepRelease {
    fn name(&self) -> &'static str {
        "step-release"
    }
    fn decomposed(&self) -> bool {
        true
    }
    fn step_type(&self, meta: &TxnMeta) -> StepTypeId {
        if meta.compensating {
            StepTypeId(9)
        } else {
            StepTypeId(meta.step_index.min(1))
        }
    }
    fn comp_step_type(&self, _t: TxnTypeId) -> Option<StepTypeId> {
        Some(StepTypeId(9))
    }
    fn item_locks(&self, _m: &TxnMeta, _t: TableId, write: bool) -> Vec<LockKind> {
        vec![LockKind::Conventional(if write {
            LockMode::X
        } else {
            LockMode::S
        })]
    }
    fn scan_locks(&self, _m: &TxnMeta, _t: TableId) -> Vec<LockKind> {
        vec![LockKind::Conventional(LockMode::S)]
    }
    fn release_at_step_end(&self, _m: &TxnMeta, _k: LockKind) -> bool {
        true
    }
}

fn transfers(n: usize, decomposed: bool) -> Vec<Box<dyn TxnProgram>> {
    (0..n)
        .map(|k| {
            Box::new(Transfer {
                from: (k % 4) as i64,
                to: ((k * 3 + 1) % 4) as i64,
                decomposed,
            }) as Box<dyn TxnProgram>
        })
        .collect()
}

#[test]
fn cross_blocking_two_phase_stall_is_resolved() {
    let shared = shared(2);
    // T0: 0 → 1, T1: 1 → 0; under some schedules this cross-blocks.
    let mut programs: Vec<Box<dyn TxnProgram>> = vec![
        Box::new(Transfer {
            from: 0,
            to: 1,
            decomposed: false,
        }),
        Box::new(Transfer {
            from: 1,
            to: 0,
            decomposed: false,
        }),
    ];
    for seed in 0..50 {
        let mut stepper = Stepper::new(&shared, &TwoPhase);
        let report = stepper
            .run_all(
                &mut programs,
                &StepperConfig {
                    seed,
                    max_resubmits: 10,
                },
            )
            .unwrap();
        for o in &report.outcomes {
            assert!(
                matches!(o, RunOutcome::Committed { .. }),
                "seed {seed}: {report:?}"
            );
        }
        assert_eq!(total(&shared), Decimal::from_int(200), "seed {seed}");
        assert_eq!(shared.total_grants(), 0);
    }
}

#[test]
fn schedules_vary_with_seed() {
    let shared = shared(4);
    let mut seen = std::collections::HashSet::new();
    for seed in 0..12 {
        let mut programs = transfers(5, true);
        let mut stepper = Stepper::new(&shared, &StepRelease);
        let report = stepper
            .run_all(
                &mut programs,
                &StepperConfig {
                    seed,
                    max_resubmits: 10,
                },
            )
            .unwrap();
        seen.insert(report.schedule.clone());
    }
    assert!(
        seen.len() > 1,
        "seeds should explore distinct interleavings"
    );
}

#[test]
fn step_start_hook_observes_every_attempt() {
    let shared = shared(4);
    let mut programs = transfers(3, true);
    let count = std::cell::Cell::new(0usize);
    let mut stepper = Stepper::new(&shared, &StepRelease);
    stepper.on_step_start = Some(Box::new(|db, _idx, _step| {
        assert!(db.table(ACCOUNTS).unwrap().len() == 4);
        count.set(count.get() + 1);
    }));
    let report = stepper
        .run_all(&mut programs, &StepperConfig::default())
        .unwrap();
    drop(stepper);
    assert!(count.get() >= report.schedule.len());
}

#[test]
fn decomposed_transfers_conserve_money() {
    let mut rng = SeededRng::new(0xdec0);
    for _case in 0..48 {
        let seed = rng.int_range(0, 9_999) as u64;
        let shared = shared(4);
        let mut programs = transfers(8, true);
        let mut stepper = Stepper::new(&shared, &StepRelease);
        let report = stepper
            .run_all(
                &mut programs,
                &StepperConfig {
                    seed,
                    max_resubmits: 20,
                },
            )
            .unwrap();
        // Commits move money, rollbacks compensate: either way the total is
        // conserved at quiescence.
        assert_eq!(total(&shared), Decimal::from_int(400), "seed {seed}");
        assert_eq!(shared.total_grants(), 0, "seed {seed}");
        assert!(report.attempts >= report.schedule.len(), "seed {seed}");
    }
}

#[test]
fn two_phase_transfers_conserve_money() {
    let mut rng = SeededRng::new(0x2b1);
    for _case in 0..48 {
        let seed = rng.int_range(0, 9_999) as u64;
        let shared = shared(4);
        let mut programs = transfers(8, false);
        let mut stepper = Stepper::new(&shared, &TwoPhase);
        stepper
            .run_all(
                &mut programs,
                &StepperConfig {
                    seed,
                    max_resubmits: 20,
                },
            )
            .unwrap();
        assert_eq!(total(&shared), Decimal::from_int(400), "seed {seed}");
    }
}
