//! The deterministic step scheduler.
//!
//! Runs a batch of transaction programs on one thread, choosing (seeded-
//! randomly) which transaction advances by one step next. Lock waits use
//! [`WaitMode::Fail`]: a blocked step is undone and retried later, so the
//! scheduler never parks. Because steps are atomic, the schedules explored
//! here are exactly the step-serializations a threaded execution could
//! produce (§3.1) — which makes this the workhorse for property-testing
//! semantic correctness over many seeds.
//!
//! Each pick advances its transaction through [`acc_txn::runner::advance`],
//! the same step state machine the threaded front-end runs, so the oracle
//! checks the deadlock retry, epoch admission and commit/rollback decisions
//! that serve real traffic.
//!
//! Stall handling: when every unfinished transaction is blocked (a deadlock
//! the lock manager cannot see, because `Fail`-mode requests are withdrawn),
//! the scheduler rolls back the youngest blocked transaction, mirroring a
//! timeout-based deadlock resolution.

use acc_common::rng::SeededRng;
use acc_common::{Error, Result};
use acc_storage::Database;
use acc_txn::runner::{advance, rollback};
use acc_txn::{
    AbortReason, ConcurrencyControl, RunOutcome, SharedDb, Transaction, TxnProgram, WaitMode,
};

/// Scheduler knobs.
#[derive(Debug, Clone)]
pub struct StepperConfig {
    /// RNG seed for schedule choice.
    pub seed: u64,
    /// Rolled-back transactions are resubmitted up to this many times
    /// (deadlock victims etc.). Doomed/user aborts are never resubmitted.
    pub max_resubmits: u32,
}

impl Default for StepperConfig {
    fn default() -> Self {
        StepperConfig {
            seed: 0,
            max_resubmits: 25,
        }
    }
}

/// What happened to each program, in submission order, plus the schedule.
#[derive(Debug)]
pub struct StepperReport {
    /// Final outcome per program.
    pub outcomes: Vec<RunOutcome>,
    /// The executed schedule: program index per step that took effect — a
    /// step that continued or committed its transaction (diagnostic).
    pub schedule: Vec<usize>,
    /// Total step executions, including retried/blocked attempts.
    pub attempts: usize,
}

enum Slot {
    Ready(Transaction),
    Blocked(Transaction),
    Finished(RunOutcome),
}

/// Hook invoked before each step attempt: `(db image, program index, step
/// index)`.
pub type StepStartHook<'a> = Box<dyn Fn(&Database, usize, u32) + 'a>;

/// The deterministic scheduler.
pub struct Stepper<'a> {
    shared: &'a SharedDb,
    cc: &'a dyn ConcurrencyControl,
    /// Called before each step attempt with the database image, the program
    /// index and the step index — the hook where tests assert that the
    /// step's precondition holds (semantic correctness, §3.1).
    pub on_step_start: Option<StepStartHook<'a>>,
}

impl<'a> Stepper<'a> {
    /// A scheduler over the given system and policy.
    pub fn new(shared: &'a SharedDb, cc: &'a dyn ConcurrencyControl) -> Self {
        Stepper {
            shared,
            cc,
            on_step_start: None,
        }
    }

    /// Run all programs to completion under a seeded schedule.
    pub fn run_all(
        &mut self,
        programs: &mut [Box<dyn TxnProgram>],
        config: &StepperConfig,
    ) -> Result<StepperReport> {
        let mut rng = SeededRng::new(config.seed);
        let mut slots: Vec<Slot> = programs
            .iter()
            .map(|p| {
                Slot::Ready(Transaction::new(
                    self.shared.begin_txn(p.txn_type()),
                    p.txn_type(),
                ))
            })
            .collect();
        let mut resubmits = vec![0u32; programs.len()];
        let mut schedule = Vec::new();
        let mut attempts = 0usize;

        loop {
            let ready: Vec<usize> = slots
                .iter()
                .enumerate()
                .filter(|(_, s)| matches!(s, Slot::Ready(_)))
                .map(|(i, _)| i)
                .collect();

            if ready.is_empty() {
                let blocked: Vec<usize> = slots
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| matches!(s, Slot::Blocked(_)))
                    .map(|(i, _)| i)
                    .collect();
                if blocked.is_empty() {
                    break; // all finished
                }
                // Stall: every live transaction is blocked. Roll back the
                // youngest (highest txn id) as the deadlock victim.
                let victim = *blocked
                    .iter()
                    .max_by_key(|&&i| match &slots[i] {
                        Slot::Blocked(t) => t.id,
                        _ => unreachable!(),
                    })
                    .expect("non-empty");
                let Slot::Blocked(mut t) = std::mem::replace(
                    &mut slots[victim],
                    Slot::Finished(RunOutcome::RolledBack(AbortReason::Deadlock)),
                ) else {
                    unreachable!()
                };
                rollback(self.shared, self.cc, programs[victim].as_mut(), &mut t)?;
                let ty = programs[victim].txn_type();
                self.requeue(victim, ty, &mut slots, &mut resubmits, config);
                self.wake_blocked(&mut slots);
                continue;
            }
            let pick = ready[rng.index(ready.len())];

            attempts += 1;
            let Slot::Ready(mut txn) = std::mem::replace(
                &mut slots[pick],
                Slot::Finished(RunOutcome::Committed { steps: 0 }),
            ) else {
                unreachable!()
            };

            if let Some(hook) = &self.on_step_start {
                // Transactions are in flight here, but the stepper is
                // single-threaded: no concurrent writer can tear the
                // per-stripe snapshot, so the quiescence check does not
                // apply.
                let db = self.shared.snapshot_db_unchecked();
                hook(&db, pick, txn.step_index);
            }

            let program = programs[pick].as_mut();
            match advance(self.shared, self.cc, program, &mut txn, WaitMode::Fail) {
                Ok(None) => {
                    schedule.push(pick);
                    slots[pick] = Slot::Ready(txn);
                }
                Ok(Some(outcome)) => {
                    if matches!(outcome, RunOutcome::Committed { .. }) {
                        schedule.push(pick);
                    }
                    slots[pick] = Slot::Finished(outcome);
                    self.requeue(pick, program.txn_type(), &mut slots, &mut resubmits, config);
                }
                Err(Error::WouldBlock { .. }) => {
                    // Undone and withdrawn; retried once another transaction
                    // makes progress.
                    slots[pick] = Slot::Blocked(txn);
                    continue;
                }
                Err(e) => return Err(e),
            }
            self.wake_blocked(&mut slots);
        }

        let outcomes = slots
            .into_iter()
            .map(|s| match s {
                Slot::Finished(o) => o,
                _ => unreachable!("loop exits only when all slots finished"),
            })
            .collect();
        Ok(StepperReport {
            outcomes,
            schedule,
            attempts,
        })
    }

    /// After a rollback, resubmit the program as a fresh transaction if its
    /// retry budget allows (deadlock and doom victims only).
    fn requeue(
        &self,
        idx: usize,
        ty: acc_common::TxnTypeId,
        slots: &mut [Slot],
        resubmits: &mut [u32],
        config: &StepperConfig,
    ) {
        let retryable = matches!(
            &slots[idx],
            Slot::Finished(RunOutcome::RolledBack(AbortReason::Deadlock))
                | Slot::Finished(RunOutcome::RolledBack(AbortReason::Doomed))
        );
        if retryable && resubmits[idx] < config.max_resubmits {
            resubmits[idx] += 1;
            // Restart from step 0 with a fresh transaction id; program-local
            // state is step-idempotent by contract.
            slots[idx] = Slot::Ready(Transaction::new(self.shared.begin_txn(ty), ty));
        }
    }

    fn wake_blocked(&self, slots: &mut [Slot]) {
        for s in slots.iter_mut() {
            if matches!(s, Slot::Blocked(_)) {
                let Slot::Blocked(t) =
                    std::mem::replace(s, Slot::Finished(RunOutcome::Committed { steps: 0 }))
                else {
                    unreachable!()
                };
                *s = Slot::Ready(t);
            }
        }
    }
}
