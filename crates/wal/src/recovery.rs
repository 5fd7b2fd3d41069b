//! Step-aware crash recovery.
//!
//! Model: the caller hands recovery the *base* database image (the state
//! before any logged record — e.g. the populated benchmark database) plus
//! whatever log prefix survived the crash. Recovery replays durable work and
//! reports what is left for the transaction runtime to do:
//!
//! * **committed** transactions: fully replayed;
//! * **aborted** transactions: fully replayed — the runtime logged their
//!   rollback (single-step undo or compensating steps) as ordinary updates
//!   before the abort record, so replay reproduces the net effect;
//! * **in-flight** transactions: updates of *completed* steps (those at or
//!   before the transaction's last end-of-step record) are replayed — a step
//!   is atomic and durable; updates of the *incomplete* current step are not
//!   replayed at all (equivalent to redo-then-undo, and safe because the
//!   step still held conventional locks on everything it touched, so no
//!   later logged update can depend on the skipped ones). In-flight
//!   transactions with at least one completed step are reported in
//!   [`RecoveryReport::needs_compensation`] together with their last saved
//!   work area; the runtime then runs their compensating steps (§3.4).

use crate::log::Wal;
use crate::record::LogRecord;
use acc_common::{Error, Result, TxnId, TxnTypeId};
use acc_storage::Database;
use std::collections::{HashMap, HashSet};

/// An in-flight transaction that survived the crash with durable steps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InFlight {
    /// The transaction.
    pub txn: TxnId,
    /// Its analyzed type.
    pub txn_type: TxnTypeId,
    /// Number of forward steps that completed (their effects are in the
    /// recovered database).
    pub steps_completed: u32,
    /// The work area saved with the last end-of-step record.
    pub work_area: Vec<u8>,
    /// True if the transaction had already begun compensating when the
    /// system crashed; compensation must be resumed, not started.
    pub compensating: bool,
}

/// What recovery did and what remains to be done.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Transactions whose commit record survived.
    pub committed: Vec<TxnId>,
    /// Transactions whose abort record survived (rollback fully replayed).
    pub aborted: Vec<TxnId>,
    /// In-flight multi-step transactions whose durable steps must now be
    /// semantically undone by compensating steps.
    pub needs_compensation: Vec<InFlight>,
    /// In-flight transactions with no completed step: nothing of theirs is
    /// in the database; they simply vanish.
    pub discarded: Vec<TxnId>,
    /// Updates replayed.
    pub redone_updates: usize,
    /// Incomplete-step updates skipped.
    pub skipped_updates: usize,
}

/// Replay `wal` against the base image `db`. See the module docs for the
/// contract.
pub fn recover(db: &mut Database, wal: &Wal) -> Result<RecoveryReport> {
    let records = wal.records();

    // ---- analysis ----------------------------------------------------------
    let mut types: HashMap<TxnId, TxnTypeId> = HashMap::new();
    let mut committed: HashSet<TxnId> = HashSet::new();
    let mut aborted: HashSet<TxnId> = HashSet::new();
    let mut comp_begun: HashMap<TxnId, u32> = HashMap::new();
    // Per txn: (log index of last StepEnd, step_index, work area).
    let mut last_step_end: HashMap<TxnId, (usize, u32, Vec<u8>)> = HashMap::new();

    for (i, rec) in records.iter().enumerate() {
        match rec {
            LogRecord::Begin { txn, txn_type } => {
                types.insert(*txn, *txn_type);
            }
            LogRecord::StepEnd {
                txn,
                step_index,
                work_area,
            } => {
                last_step_end.insert(*txn, (i, *step_index, work_area.clone()));
            }
            LogRecord::CompensationBegin { txn, from_step } => {
                comp_begun.insert(*txn, *from_step);
            }
            LogRecord::Commit { txn } => {
                committed.insert(*txn);
            }
            LogRecord::Abort { txn } => {
                aborted.insert(*txn);
            }
            LogRecord::Update { .. } => {}
        }
    }

    let finished = |t: &TxnId| committed.contains(t) || aborted.contains(t);

    // ---- redo --------------------------------------------------------------
    let mut redone = 0usize;
    let mut skipped = 0usize;
    for (i, rec) in records.iter().enumerate() {
        let LogRecord::Update {
            txn,
            table,
            slot,
            before,
            after,
        } = rec
        else {
            continue;
        };
        let durable = finished(txn)
            || last_step_end
                .get(txn)
                .is_some_and(|(step_end_idx, _, _)| i <= *step_end_idx);
        if !durable {
            skipped += 1;
            continue;
        }
        let t = db.table_mut(*table)?;
        match (before, after) {
            (None, Some(row)) => t.insert_at(*slot, row.clone())?,
            (Some(_), Some(row)) => {
                // Primary keys never move, so neither may a replayed image.
                t.update(*slot, row.clone()).map_err(|e| match e {
                    Error::SchemaMismatch(w) => {
                        Error::Recovery(format!("update record {i} is refused: {w}"))
                    }
                    e => e,
                })?;
            }
            (Some(_), None) => {
                t.delete(*slot)?;
            }
            (None, None) => {
                return Err(Error::Recovery(format!(
                    "update record {i} has neither before nor after image"
                )));
            }
        }
        redone += 1;
    }

    // ---- report ------------------------------------------------------------
    let mut report = RecoveryReport {
        redone_updates: redone,
        skipped_updates: skipped,
        ..Default::default()
    };
    let mut committed_v: Vec<TxnId> = committed.iter().copied().collect();
    committed_v.sort_unstable();
    report.committed = committed_v;
    let mut aborted_v: Vec<TxnId> = aborted.iter().copied().collect();
    aborted_v.sort_unstable();
    report.aborted = aborted_v;

    let mut active: Vec<TxnId> = types.keys().filter(|t| !finished(t)).copied().collect();
    active.sort_unstable();
    for txn in active {
        match last_step_end.get(&txn) {
            Some((_, step_index, work_area)) => report.needs_compensation.push(InFlight {
                txn,
                txn_type: types[&txn],
                steps_completed: step_index + 1,
                work_area: work_area.clone(),
                compensating: comp_begun.contains_key(&txn),
            }),
            None => report.discarded.push(txn),
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use acc_common::{TableId, Value};
    use acc_storage::{Catalog, ColumnType, Row, TableSchema};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add_table(
            TableSchema::builder("t")
                .column("id", ColumnType::Int)
                .column("v", ColumnType::Int)
                .key(&["id"])
                .build(),
        );
        c
    }

    fn row(id: i64, v: i64) -> Row {
        Row::from(vec![Value::Int(id), Value::Int(v)])
    }

    const T: TableId = TableId(0);

    fn insert(txn: u64, slot: u64, id: i64, v: i64) -> LogRecord {
        LogRecord::Update {
            txn: TxnId(txn),
            table: T,
            slot,
            before: None,
            after: Some(row(id, v)),
        }
    }

    fn update(txn: u64, slot: u64, id: i64, old: i64, new: i64) -> LogRecord {
        LogRecord::Update {
            txn: TxnId(txn),
            table: T,
            slot,
            before: Some(row(id, old)),
            after: Some(row(id, new)),
        }
    }

    fn begin(txn: u64) -> LogRecord {
        LogRecord::Begin {
            txn: TxnId(txn),
            txn_type: TxnTypeId(1),
        }
    }

    fn step_end(txn: u64, idx: u32) -> LogRecord {
        LogRecord::StepEnd {
            txn: TxnId(txn),
            step_index: idx,
            work_area: vec![idx as u8],
        }
    }

    #[test]
    fn committed_transaction_is_replayed() {
        let cat = catalog();
        let mut db = Database::new(&cat);
        let mut wal = Wal::new();
        wal.append(begin(1));
        wal.append(insert(1, 0, 10, 100));
        wal.append(LogRecord::Commit { txn: TxnId(1) });

        let report = recover(&mut db, &wal).unwrap();
        assert_eq!(report.committed, vec![TxnId(1)]);
        assert_eq!(report.redone_updates, 1);
        assert_eq!(db.table(T).unwrap().len(), 1);
    }

    #[test]
    fn incomplete_step_is_skipped_and_txn_discarded() {
        let cat = catalog();
        let mut db = Database::new(&cat);
        let mut wal = Wal::new();
        wal.append(begin(1));
        wal.append(insert(1, 0, 10, 100)); // step never ended
        let report = recover(&mut db, &wal).unwrap();
        assert_eq!(report.skipped_updates, 1);
        assert_eq!(report.discarded, vec![TxnId(1)]);
        assert!(report.needs_compensation.is_empty());
        assert!(db.table(T).unwrap().is_empty());
    }

    #[test]
    fn completed_steps_are_durable_and_reported_for_compensation() {
        let cat = catalog();
        let mut db = Database::new(&cat);
        let mut wal = Wal::new();
        wal.append(begin(1));
        wal.append(insert(1, 0, 10, 100));
        wal.append(step_end(1, 0));
        wal.append(insert(1, 1, 11, 111)); // second step, incomplete
        let report = recover(&mut db, &wal).unwrap();
        assert_eq!(report.redone_updates, 1);
        assert_eq!(report.skipped_updates, 1);
        assert_eq!(
            report.needs_compensation,
            vec![InFlight {
                txn: TxnId(1),
                txn_type: TxnTypeId(1),
                steps_completed: 1,
                work_area: vec![0],
                compensating: false,
            }]
        );
        let t = db.table(T).unwrap();
        assert_eq!(t.len(), 1);
        assert!(t.get(&acc_storage::Key::ints(&[10])).is_some());
        assert!(t.get(&acc_storage::Key::ints(&[11])).is_none());
    }

    #[test]
    fn aborted_transaction_net_effect_is_replayed() {
        // The runtime undid the step by logging a compensating update (CLR
        // style) before the abort record; recovery replays both, net zero.
        let cat = catalog();
        let mut db = Database::new(&cat);
        db.table_mut(T).unwrap().insert(row(10, 100)).unwrap();
        let mut wal = Wal::new();
        wal.append(begin(1));
        wal.append(update(1, 0, 10, 100, 999));
        wal.append(update(1, 0, 10, 999, 100)); // undo logged as update
        wal.append(LogRecord::Abort { txn: TxnId(1) });
        let report = recover(&mut db, &wal).unwrap();
        assert_eq!(report.aborted, vec![TxnId(1)]);
        assert_eq!(report.redone_updates, 2);
        assert_eq!(
            db.table(T)
                .unwrap()
                .get(&acc_storage::Key::ints(&[10]))
                .unwrap()
                .1
                .int(1),
            100
        );
    }

    #[test]
    fn in_flight_compensation_is_flagged_for_resume() {
        let cat = catalog();
        let mut db = Database::new(&cat);
        let mut wal = Wal::new();
        wal.append(begin(1));
        wal.append(insert(1, 0, 10, 100));
        wal.append(step_end(1, 0));
        wal.append(LogRecord::CompensationBegin {
            txn: TxnId(1),
            from_step: 1,
        });
        let report = recover(&mut db, &wal).unwrap();
        assert_eq!(report.needs_compensation.len(), 1);
        assert!(report.needs_compensation[0].compensating);
    }

    #[test]
    fn interleaved_transactions_recover_independently() {
        let cat = catalog();
        let mut db = Database::new(&cat);
        let mut wal = Wal::new();
        wal.append(begin(1));
        wal.append(begin(2));
        wal.append(insert(1, 0, 10, 100));
        wal.append(insert(2, 1, 20, 200));
        wal.append(step_end(1, 0));
        wal.append(LogRecord::Commit { txn: TxnId(2) });
        // Txn 1's second step starts but does not finish.
        wal.append(insert(1, 2, 11, 110));

        let report = recover(&mut db, &wal).unwrap();
        assert_eq!(report.committed, vec![TxnId(2)]);
        assert_eq!(report.needs_compensation.len(), 1);
        assert_eq!(report.needs_compensation[0].txn, TxnId(1));
        let t = db.table(T).unwrap();
        assert_eq!(t.len(), 2); // 10 (durable step) and 20 (committed)
    }

    #[test]
    fn crash_at_every_log_prefix_is_recoverable() {
        // Build a full history, then recover from every prefix of it;
        // recovery must never error and committed-at-prefix data must be
        // present.
        let cat = catalog();
        let mut wal = Wal::new();
        wal.append(begin(1));
        wal.append(insert(1, 0, 10, 100));
        wal.append(step_end(1, 0));
        wal.append(update(1, 0, 10, 100, 101));
        wal.append(step_end(1, 1));
        wal.append(LogRecord::Commit { txn: TxnId(1) });
        wal.append(begin(2));
        wal.append(update(2, 0, 10, 101, 102));
        wal.append(LogRecord::Commit { txn: TxnId(2) });

        let full = wal.to_bytes();
        for cut in 0..=full.len() {
            let partial = Wal::from_bytes(&full[..cut]);
            let mut db = Database::new(&cat);
            let report = recover(&mut db, &partial).unwrap();
            // If txn 1 committed in this prefix its final value (101 or 102)
            // must be visible.
            if report.committed.contains(&TxnId(1)) {
                let v = db
                    .table(T)
                    .unwrap()
                    .get(&acc_storage::Key::ints(&[10]))
                    .unwrap()
                    .1
                    .int(1);
                assert!(v == 101 || v == 102, "v = {v} at cut {cut}");
            }
        }
    }

    #[test]
    fn key_moving_update_is_refused() {
        let cat = catalog();
        let mut db = Database::new(&cat);
        let mut wal = Wal::new();
        wal.append(begin(1));
        wal.append(insert(1, 0, 10, 100));
        wal.append(LogRecord::Update {
            txn: TxnId(1),
            table: T,
            slot: 0,
            before: Some(row(10, 100)),
            after: Some(row(11, 100)),
        });
        wal.append(LogRecord::Commit { txn: TxnId(1) });
        match recover(&mut db, &wal) {
            Err(Error::Recovery(w)) => assert!(w.contains("record 2"), "{w}"),
            other => panic!("a key-moving update replayed: {other:?}"),
        }
        let t = db.table(T).unwrap();
        assert_eq!(
            t.get(&acc_storage::Key::ints(&[10])),
            Some((0, row(10, 100)))
        );
        assert!(t.get(&acc_storage::Key::ints(&[11])).is_none());
    }

    #[test]
    fn malformed_update_is_an_error() {
        let cat = catalog();
        let mut db = Database::new(&cat);
        let mut wal = Wal::new();
        wal.append(begin(1));
        wal.append(LogRecord::Update {
            txn: TxnId(1),
            table: T,
            slot: 0,
            before: None,
            after: None,
        });
        wal.append(LogRecord::Commit { txn: TxnId(1) });
        assert!(matches!(recover(&mut db, &wal), Err(Error::Recovery(_))));
    }
}
