//! Driving a [`TxnProgram`] through its lifecycle: steps, commit, deadlock
//! retry, and compensation-based rollback.
//!
//! Commit and rollback publish their end record's LSN for version readers
//! atomically with its append, release everything, and only then hand the
//! transaction's write set to the version collector
//! ([`SharedDb::queue_versions`]), which rewrites, trims and settles its
//! chains once the low watermark has passed that LSN. No lock is held
//! while chains are collected.

use crate::cc::ConcurrencyControl;
use crate::program::{StepOutcome, TxnProgram};
use crate::shared::{SharedDb, WaitMode};
use crate::step::StepCtx;
use crate::transaction::{Transaction, TxnState};
use acc_common::events::Event;
use acc_common::faults::BoundaryEdge;
use acc_common::{Error, Result};
use acc_wal::{InFlight, LogRecord};
use std::time::{Duration, Instant};

/// How many transient failures a compensating step retries before the
/// rollback is reported wedged (see [`rollback`]).
const COMP_RETRY_CAP: u32 = 8;

/// Why a transaction rolled back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AbortReason {
    /// Chosen as a deadlock victim (retryable by resubmission).
    Deadlock,
    /// The program executed its own abort (e.g. TPC-C's 1 % new-order
    /// aborts).
    UserAbort,
    /// Doomed by a compensating step it was delaying (§3.4).
    Doomed,
    /// Its submitter's deadline passed; rolled back at a step boundary
    /// through the ordinary compensation path. Not retryable — the client
    /// already stopped waiting.
    Deadline,
}

/// The overall result of running a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunOutcome {
    /// Committed after this many completed steps.
    Committed {
        /// Steps executed (1 for an undecomposed run).
        steps: u32,
    },
    /// Rolled back; the database reflects no net effect of the transaction
    /// beyond what its compensating steps define as acceptable.
    RolledBack(AbortReason),
}

/// Run `program` to completion under `cc`.
///
/// With [`WaitMode::Block`] this is the full lifecycle (threads park on lock
/// waits). With [`WaitMode::Fail`] a contested lock rolls the transaction
/// back and surfaces [`Error::WouldBlock`]; a caller that wants to resume the
/// blocked step later drives [`advance`] itself, as the deterministic
/// scheduler in `acc-engine` does.
pub fn run(
    shared: &SharedDb,
    cc: &dyn ConcurrencyControl,
    program: &mut dyn TxnProgram,
    mode: WaitMode,
) -> Result<RunOutcome> {
    run_with_deadline(shared, cc, program, mode, None).map(|(_, outcome)| outcome)
}

/// Like [`run`], but with an optional absolute deadline checked at every step
/// boundary, and the minted [`acc_common::TxnId`] surfaced so callers (the
/// network front-end) can correlate a client request with the transaction's
/// fate on the log. A transaction past its deadline rolls back through the
/// ordinary compensation path — every lock released, every version chain
/// handed to the collector — and reports [`AbortReason::Deadline`].
pub fn run_with_deadline(
    shared: &SharedDb,
    cc: &dyn ConcurrencyControl,
    program: &mut dyn TxnProgram,
    mode: WaitMode,
    deadline: Option<Instant>,
) -> Result<(acc_common::TxnId, RunOutcome)> {
    let id = shared.begin_txn(program.txn_type());
    let mut txn = Transaction::new(id, program.txn_type()).with_deadline(deadline);
    loop {
        let result = advance(shared, cc, program, &mut txn, mode);
        if matches!(result, Err(Error::WouldBlock { .. })) {
            // The transaction object dies with this call, so nobody can resume
            // it: roll it back completely instead of leaking its locks.
            rollback(shared, cc, program, &mut txn)?;
        }
        if let Some(outcome) = result? {
            return Ok((id, outcome));
        }
    }
}

/// Run the next step of `txn` and decide its fate — the one place both
/// [`run_with_deadline`] and the deterministic scheduler in `acc-engine` do
/// so. In order: the deadline gate, epoch admission and audit, the step with
/// its one deadlock retry, the `StepEnd` event; then the step is ended, or
/// the transaction commits or rolls back.
///
/// Returns `Ok(None)` when the step completed and the transaction goes on,
/// and `Ok(Some(outcome))` once it committed or rolled back. In
/// [`WaitMode::Fail`], a contested lock or admission returns
/// [`Error::WouldBlock`] with the partial step undone and its conventional
/// locks released; the transaction stays in flight, and calling `advance`
/// again retries the same step. A step that fails with any other error rolls
/// the transaction back before the error is returned.
pub fn advance(
    shared: &SharedDb,
    cc: &dyn ConcurrencyControl,
    program: &mut dyn TxnProgram,
    txn: &mut Transaction,
    mode: WaitMode,
) -> Result<Option<RunOutcome>> {
    // Deadline gate, checked only at step boundaries: never mid-step, so
    // rollback always starts from a clean step edge (partial-step undo +
    // compensation of completed steps) and cannot leak a lock or leave a
    // version chain pending. An expired transaction that already did work
    // pays for its own compensation — that is the §3.4 contract.
    if txn.past_deadline() {
        rollback(shared, cc, program, txn)?;
        return Ok(Some(RunOutcome::RolledBack(AbortReason::Deadline)));
    }
    // Step admission: a decomposed transaction pins the current
    // interference-table epoch before its first step and is audited against
    // it at every later one — one atomic load per step, never per lookup
    // (see `InterferenceRegistry::check_pin`).
    if cc.decomposed() {
        match &txn.epoch_pin {
            Some(pin) => {
                shared.registry().check_pin(pin);
            }
            None => txn.epoch_pin = Some(shared.pin_epoch(txn.id, mode)?),
        }
    }
    let mut retried = false;
    let step_started = Instant::now();
    let step_result = loop {
        let mut ctx = StepCtx::new(shared, cc, txn, mode);
        let outcome = program.step(ctx.step_index(), &mut ctx);
        // Crabbing discipline: every page latch a step takes must be
        // released before the step hands control back (debug builds only; a
        // latch held here would deadlock some later descent).
        acc_storage::latch_debug_assert_none_held("step boundary");
        match outcome {
            Err(Error::Deadlock { .. }) if cc.decomposed() && !retried => {
                // Paper §3.4: abort the step that completed the cycle and
                // restart it once; a recurring deadlock rolls the whole
                // transaction back by compensation.
                release_step(shared, cc, txn)?;
                retried = true;
            }
            outcome => break outcome,
        }
    };

    let sink = shared.event_sink();
    if sink.is_enabled() && step_result.is_ok() {
        sink.emit(Event::StepEnd {
            txn: txn.id,
            step_index: txn.step_index,
            micros: step_started.elapsed().as_micros() as u64,
        });
    }

    let reason = match step_result {
        Ok(StepOutcome::Continue) => {
            if cc.decomposed() {
                end_step(shared, cc, txn, program.work_area());
            } else {
                txn.step_index += 1;
            }
            return Ok(None);
        }
        Ok(StepOutcome::Done) if shared.is_doomed(txn.id) => AbortReason::Doomed,
        // The commit point is a step boundary too: a transaction past its
        // deadline must never commit, or the submitter's deadline-exceeded
        // reply would be a lie and a client resubmit would duplicate its
        // effects. The final step is still physically undoable here (no
        // end-of-step record yet), so rollback undoes it and compensates the
        // earlier steps.
        Ok(StepOutcome::Done) if txn.past_deadline() => AbortReason::Deadline,
        Ok(StepOutcome::Done) => {
            let steps = txn.step_index + 1;
            commit(shared, txn)?;
            return Ok(Some(RunOutcome::Committed { steps }));
        }
        Ok(StepOutcome::Abort) => AbortReason::UserAbort,
        Err(e @ Error::WouldBlock { .. }) => {
            // Deterministic mode: withdraw cleanly so other transactions see
            // an untouched step; the scheduler retries this step later. The
            // epoch pin stays: the transaction is still in flight and resumes
            // under its own tables.
            release_step(shared, cc, txn)?;
            return Err(e);
        }
        Err(Error::Deadlock { .. }) => AbortReason::Deadlock,
        Err(Error::TxnAborted(_)) => AbortReason::Doomed,
        Err(e) => {
            // Hard error (schema violation, missing row, …): roll back, then
            // surface the error to the caller.
            rollback(shared, cc, program, txn)?;
            return Err(e);
        }
    };
    rollback(shared, cc, program, txn)?;
    Ok(Some(RunOutcome::RolledBack(reason)))
}

/// Take back an unfinished step: undo its effects and, for a decomposed
/// transaction, drop the step's conventional locks (a 2PL transaction keeps
/// its locks to the end).
fn release_step(
    shared: &SharedDb,
    cc: &dyn ConcurrencyControl,
    txn: &mut Transaction,
) -> Result<()> {
    undo_current_step(shared, txn)?;
    if cc.decomposed() {
        let oracle = shared.oracle_for(txn.epoch_pin.as_ref());
        shared.release_where(txn.id, |k, _| k.is_conventional(), &*oracle);
    }
    Ok(())
}

/// Physically undo the current step (or, for an undecomposed transaction,
/// everything), logging each reversal as a compensation-log update so
/// recovery can replay the net effect.
fn undo_current_step(shared: &SharedDb, txn: &mut Transaction) -> Result<()> {
    for undo in std::mem::take(&mut txn.step_undo).iter().rev() {
        let (table, slot) = (undo.table(), undo.slot());
        let t = shared.table(table)?;
        let before = t.row(slot);
        t.apply_undo(undo)?;
        // Same-slot WAL ordering is protected by this transaction's still-held
        // page X lock (see `StepCtx::insert`).
        shared.log_update(txn.id, table, slot, before, t.row(slot));
    }
    Ok(())
}

/// Complete the current step: log the end-of-step record with the program's
/// work area, release locks per policy, advance the position.
pub fn end_step(
    shared: &SharedDb,
    cc: &dyn ConcurrencyControl,
    txn: &mut Transaction,
    work_area: Vec<u8>,
) {
    shared.with_wal(|w| {
        // The two boundary edges are the crash points that decide recovery's
        // treatment of this step: before the record it is non-durable and
        // discarded, after it it is durable and compensated.
        w.fault_boundary(BoundaryEdge::Before);
        w.append(LogRecord::StepEnd {
            txn: txn.id,
            step_index: txn.step_index,
            work_area,
        });
        w.fault_boundary(BoundaryEdge::After);
    });
    txn.steps_completed = txn.step_index + 1;
    txn.step_index += 1;
    txn.step_undo.clear();
    // A step boundary is a natural batching point: if enough records are
    // staged, retire them in one background fsync so commit-time flushes
    // stay small. Never an ack — errors are sticky and surface at commit.
    shared.flush_wal_batch();
    let meta = txn.meta();
    let oracle = shared.oracle_for(txn.epoch_pin.as_ref());
    shared.release_where(
        txn.id,
        |kind, _| cc.release_at_step_end(&meta, kind),
        &*oracle,
    );
}

/// Append `txn`'s end record (`Commit` or `Abort`) and, if it wrote
/// anything, publish the record's LSN for version readers inside the same
/// WAL append mutex (see [`SharedDb::publish_commit`]). From then on its
/// `Pending` entries read as committed at that LSN, whenever the collector
/// gets to them.
fn append_end(shared: &SharedDb, txn: &Transaction, end: LogRecord) -> acc_wal::Lsn {
    shared.with_wal(|w| {
        let lsn = w.append(end);
        if !txn.write_set.is_empty() {
            shared.publish_commit(txn.id, lsn.0);
        }
        lsn
    })
}

/// The tail every transaction exit shares, after the caller's own prefix:
/// leave the active map, release everything under the pinned tables, clear
/// the doom flag, then unpin the epoch — only after every lock is gone, so
/// a switchover the unpin completes never sees a live old-epoch grant — and
/// settle the final state.
fn finish(shared: &SharedDb, txn: &mut Transaction, state: TxnState) {
    shared.deregister_active(txn.id);
    let oracle = shared.oracle_for(txn.epoch_pin.as_ref());
    shared.release_all(txn.id, &*oracle);
    shared.clear_doom(txn.id);
    shared.unpin_epoch(txn.epoch_pin.take());
    txn.state = state;
}

/// [`finish`] a transaction whose end record, at `end_lsn`, is published,
/// then queue its write set for the version collector, which rewrites its
/// entries once the watermark has passed `end_lsn`.
fn finish_and_collect(shared: &SharedDb, txn: &mut Transaction, state: TxnState, end_lsn: u64) {
    finish(shared, txn, state);
    if !txn.write_set.is_empty() {
        shared.queue_versions(txn.id, end_lsn, std::mem::take(&mut txn.write_set));
    }
}

/// Commit: log the commit record, park until it is durable (group-commit
/// fsync boundary), then release everything and mark committed. The
/// durability wait comes *before* lock release: a transaction whose commit
/// was never fsynced must not expose its writes. A device failure aborts the
/// commit with [`Error::Internal`] — nothing in that batch is acked.
///
/// The commit LSN is published for version readers *inside* the WAL append
/// mutex, atomically with the `Commit` append. Read views are the durable
/// frontier at begin, and the frontier can only reach this LSN via a flush
/// that collects it under that same mutex — after the publication. So at
/// every instant, a version reader with view `v` sees this transaction's
/// writes iff `commit_lsn <= v` iff the commit was durable when the reader
/// began: the fsync wait, the collector's later rewrite, and this
/// function's interleaving with readers are all invisible to them.
pub fn commit(shared: &SharedDb, txn: &mut Transaction) -> Result<()> {
    let lsn = append_end(shared, txn, LogRecord::Commit { txn: txn.id });
    match shared.sync_wal(lsn) {
        Ok(()) => {
            finish_and_collect(shared, txn, TxnState::Committed, lsn.0);
            Ok(())
        }
        Err(e) => {
            // The commit record never became durable and the device failure
            // is sticky, so the frontier is frozen short of it: no view will
            // ever cover this commit LSN. Retract the publication and leave
            // the chains Pending — readers conservatively unwind past them,
            // exactly matching the wedged-rollback give-up path, and never
            // see images whose commit a crash would erase. Still release
            // everything — leaking locks would hang peers that deserve to
            // see the same error at their own commit point. Recovery from
            // the durable prefix decides this transaction's real fate.
            shared.retire_commit(txn.id);
            finish(shared, txn, TxnState::Aborted);
            Err(e)
        }
    }
}

/// Roll back: physically undo the current step, then semantically undo any
/// completed steps with the program's compensating step, then release
/// everything.
pub fn rollback(
    shared: &SharedDb,
    cc: &dyn ConcurrencyControl,
    program: &mut dyn TxnProgram,
    txn: &mut Transaction,
) -> Result<()> {
    undo_current_step(shared, txn)?;

    if cc.decomposed() && txn.steps_completed > 0 {
        shared.with_wal(|w| {
            w.append(LogRecord::CompensationBegin {
                txn: txn.id,
                from_step: txn.steps_completed,
            })
        });
        let sink = shared.event_sink();
        if sink.is_enabled() {
            sink.emit(Event::CompensationStart {
                txn: txn.id,
                from_step: txn.steps_completed,
            });
        }
        txn.state = TxnState::Compensating;
        // A compensating step is never a deadlock victim (the lock manager
        // dooms whoever delays it), but transient races can still surface;
        // retry up to `COMP_RETRY_CAP` times before declaring the system
        // wedged.
        let steps_completed = txn.steps_completed;
        let mut attempts = 0;
        loop {
            let mut ctx = StepCtx::new(shared, cc, txn, WaitMode::Block);
            match program.compensate(steps_completed, &mut ctx) {
                Ok(()) => break,
                Err(e) if e.is_transient() && attempts < COMP_RETRY_CAP => {
                    attempts += 1;
                    // Undo the failed attempt and drop its conventional
                    // locks so a cross-blocked compensating peer can make
                    // progress before we retry (otherwise two compensations
                    // deadlock in lockstep through every retry).
                    release_step(shared, cc, txn)?;
                    // Releasing alone is not enough: the transient failure
                    // may be a comp-vs-comp cycle among *other* waiters that
                    // our request keeps running into, and parked waiters only
                    // break such a tie on their 50 ms re-detection slice
                    // (`SharedDb::wait_on`). Retrying faster than that slice
                    // burns the whole cap against one still-unresolved cycle
                    // and declares a spurious wedge; pace the retries so the
                    // cumulative pause comfortably spans several slices, with
                    // txn-id jitter so lockstep peers desynchronize.
                    std::thread::sleep(Duration::from_micros(
                        ((1u64 << attempts.min(7)) * 1000).min(80_000) + (txn.id.0 % 8) * 137,
                    ));
                }
                Err(e) => {
                    // Give up cleanly: whatever physical undo we did stays
                    // (it is idempotent against recovery), but the locks and
                    // doom flag must not outlive us — leaking them stalls
                    // every waiter behind this transaction. Version chains
                    // stay pending (readers unwind past them — conservative)
                    // but the active-map entry must not pin the watermark.
                    finish(shared, txn, TxnState::Aborted);
                    return Err(Error::Internal(if e.is_transient() {
                        format!(
                            "compensation of {} wedged: still transient after \
                             {attempts} retries (cap {COMP_RETRY_CAP}): {e}",
                            txn.id
                        )
                    } else {
                        format!("compensation of {} failed: {e}", txn.id)
                    }));
                }
            }
        }
    }

    // The chains record everything this transaction wrote — forward writes
    // (their physical undo restored the images without touching the chain)
    // and compensations alike. Publishing the abort LSN makes every entry
    // read as committed there, lining its before-image up with the settled
    // table state: readers at older views unwind to the same values either
    // way.
    let abort_lsn = append_end(shared, txn, LogRecord::Abort { txn: txn.id });
    // Batching hint only; an abort needs no durability ack (recovery treats
    // a missing abort record as in-flight and compensates it the same way).
    // The collector waits for the abort to become durable like any other.
    shared.flush_wal_batch();
    finish_and_collect(shared, txn, TxnState::Aborted, abort_lsn.0);
    Ok(())
}

/// Resume compensation after a crash (§3.4): rebuild each recovered
/// in-flight transaction's program from its durable work area with the
/// caller's `program_for_inflight`, then run its compensating step through
/// [`rollback`]. Returns how many transactions were compensated.
pub fn resume_compensation(
    shared: &SharedDb,
    cc: &dyn ConcurrencyControl,
    inflight: &[InFlight],
    program_for_inflight: impl Fn(&InFlight) -> Result<Box<dyn TxnProgram + Send>>,
) -> Result<usize> {
    for inf in inflight {
        let mut program = program_for_inflight(inf)?;
        let mut txn = Transaction::new(inf.txn, inf.txn_type);
        txn.steps_completed = inf.steps_completed;
        txn.step_index = inf.steps_completed;
        txn.state = TxnState::Active;
        rollback(shared, cc, program.as_mut(), &mut txn)?;
    }
    Ok(inflight.len())
}
