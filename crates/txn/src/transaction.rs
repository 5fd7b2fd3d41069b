//! Per-transaction runtime state.

use crate::cc::TxnMeta;
use acc_common::{TableId, TxnId, TxnTypeId};
use acc_lockmgr::EpochPin;
use acc_storage::{Key, LeafHint, UndoRecord};
use std::collections::BTreeMap;

/// Every key a transaction wrote, by table, each with the hint its latest
/// write there left (the leaf and the version that write's latch release
/// left it at). Each write pushed a pending entry onto that key's version
/// chain; the version collector revisits exactly these keys, one latch
/// each while no other writer has touched the leaf since.
pub type WriteSet = BTreeMap<TableId, BTreeMap<Key, LeafHint>>;

/// Lifecycle states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnState {
    /// Executing forward steps.
    Active,
    /// Executing compensating steps (rolling back).
    Compensating,
    /// Done, effects durable.
    Committed,
    /// Done, effects rolled back (physically or by compensation).
    Aborted,
}

/// A live transaction.
#[derive(Debug)]
pub struct Transaction {
    /// The transaction id.
    pub id: TxnId,
    /// Its analyzed type.
    pub txn_type: TxnTypeId,
    /// Zero-based index of the step currently executing.
    pub step_index: u32,
    /// Forward steps that have completed (their end-of-step records are on
    /// the log).
    pub steps_completed: u32,
    /// Lifecycle state.
    pub state: TxnState,
    /// Undo stack for the *current* step, cleared at each step boundary when
    /// running decomposed (completed steps are only compensable, never
    /// physically undoable). Under 2PL it accumulates for the whole
    /// transaction.
    pub step_undo: Vec<UndoRecord>,
    /// The interference-table epoch this transaction admitted under
    /// (decomposed transactions only; taken at first-step admission,
    /// released after `release_all` at commit/rollback). Every interference
    /// lookup the transaction causes — forward or compensating — uses this
    /// pinned snapshot, never a newer epoch's tables.
    pub epoch_pin: Option<EpochPin>,
    /// The read view for coordination-free version reads (the durable WAL
    /// frontier at begin), resolved lazily at the first versioned read
    /// (`StepCtx` caches the `SharedDb` active-map lookup here).
    pub read_view: Option<u64>,
    /// The write set: every key this transaction wrote, with its latest
    /// hint. Commit and rollback hand it to the version collector.
    pub write_set: WriteSet,
    /// Absolute deadline, if the submitter set one. Checked at every step
    /// boundary by the runner: a transaction past its deadline rolls back
    /// through the ordinary compensation path (never mid-step, so no lock or
    /// version-chain state can leak) and reports
    /// [`crate::runner::AbortReason::Deadline`].
    pub deadline: Option<std::time::Instant>,
}

impl Transaction {
    /// A fresh transaction.
    pub fn new(id: TxnId, txn_type: TxnTypeId) -> Self {
        Transaction {
            id,
            txn_type,
            step_index: 0,
            steps_completed: 0,
            state: TxnState::Active,
            step_undo: Vec::new(),
            epoch_pin: None,
            read_view: None,
            write_set: BTreeMap::new(),
            deadline: None,
        }
    }

    /// Set an absolute deadline (builder style).
    pub fn with_deadline(mut self, deadline: Option<std::time::Instant>) -> Self {
        self.deadline = deadline;
        self
    }

    /// True once the deadline (if any) has passed.
    pub fn past_deadline(&self) -> bool {
        self.deadline
            .is_some_and(|d| std::time::Instant::now() >= d)
    }

    /// The position snapshot handed to the concurrency control.
    pub fn meta(&self) -> TxnMeta {
        TxnMeta {
            id: self.id,
            txn_type: self.txn_type,
            step_index: self.step_index,
            compensating: self.state == TxnState::Compensating,
        }
    }

    /// True once the transaction can no longer issue operations.
    pub fn finished(&self) -> bool {
        matches!(self.state, TxnState::Committed | TxnState::Aborted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle_flags() {
        let mut t = Transaction::new(TxnId(1), TxnTypeId(2));
        assert_eq!(t.state, TxnState::Active);
        assert!(!t.finished());
        assert!(!t.meta().compensating);
        t.state = TxnState::Compensating;
        assert!(t.meta().compensating);
        assert!(!t.finished());
        t.state = TxnState::Committed;
        assert!(t.finished());
    }

    #[test]
    fn meta_mirrors_position() {
        let mut t = Transaction::new(TxnId(3), TxnTypeId(4));
        t.step_index = 7;
        let m = t.meta();
        assert_eq!(m.id, TxnId(3));
        assert_eq!(m.txn_type, TxnTypeId(4));
        assert_eq!(m.step_index, 7);
    }
}
