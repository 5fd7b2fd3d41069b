//! The concurrency-control policy interface and the strict-2PL baseline.

use acc_common::{StepTypeId, TableId, TxnId, TxnTypeId};
use acc_lockmgr::{LockKind, LockMode};

/// Re-export of the unanalyzed-transaction step type (§3.3); see
/// [`acc_common::ids::LEGACY_STEP`].
pub use acc_common::ids::LEGACY_STEP;

/// A transaction's position, as visible to the concurrency control.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxnMeta {
    /// The transaction.
    pub id: TxnId,
    /// Its analyzed type.
    pub txn_type: TxnTypeId,
    /// Zero-based index of the step being executed.
    pub step_index: u32,
    /// True while executing a compensating step.
    pub compensating: bool,
}

/// A concurrency-control policy: decides which locks accompany each data
/// access and what happens at step boundaries.
///
/// The *interference oracle* is deliberately **not** part of this trait: it
/// belongs to the [`crate::shared::SharedDb`]'s epoch-versioned
/// `InterferenceRegistry`, so that a 2PL legacy transaction and an ACC
/// transaction running in the same system consult the same tables
/// (otherwise legacy isolation would be unsound). A decomposed transaction
/// pins the table epoch it admitted under for its whole lifetime
/// (`Transaction::epoch_pin`); an online re-analysis switches epochs only
/// once every pinned transaction has released its locks, so a policy's
/// lock choices are always judged by the tables they were analyzed against.
pub trait ConcurrencyControl: Send + Sync {
    /// Human-readable name for reports.
    fn name(&self) -> &'static str;

    /// True if programs run decomposed: conventional locks are released and
    /// an end-of-step record is logged at every step boundary, and rollback
    /// uses compensating steps. False = the whole program is one atomic unit
    /// under strict 2PL.
    fn decomposed(&self) -> bool;

    /// The design-time step type for this position.
    fn step_type(&self, meta: &TxnMeta) -> StepTypeId;

    /// The compensating step type registered for this transaction type.
    fn comp_step_type(&self, txn_type: TxnTypeId) -> Option<StepTypeId>;

    /// Lock kinds to acquire on the *item* (page or row resource) for a
    /// single-row access. The table-level locks that go with it come from
    /// [`ConcurrencyControl::table_locks`].
    fn item_locks(&self, meta: &TxnMeta, table: TableId, write: bool) -> Vec<LockKind>;

    /// Lock kinds to acquire on the *table* resource for a single-row access
    /// (alongside [`ConcurrencyControl::item_locks`] on the item itself).
    /// Defaults to the plain intention mode; policies that release
    /// conventional locks early must add a table-granularity presence for
    /// their uncommitted writes here, or scans — which take only a
    /// table-level `S` — would walk past the item-level pins unchecked.
    fn table_locks(&self, meta: &TxnMeta, table: TableId, write: bool) -> Vec<LockKind> {
        let _ = (meta, table);
        vec![LockKind::Conventional(if write {
            LockMode::IX
        } else {
            LockMode::IS
        })]
    }

    /// Lock kinds to acquire on the *table* resource for a scan.
    fn scan_locks(&self, meta: &TxnMeta, table: TableId) -> Vec<LockKind>;

    /// Should a held lock of this kind be released when the current step
    /// completes? (Only consulted when [`ConcurrencyControl::decomposed`].)
    fn release_at_step_end(&self, meta: &TxnMeta, kind: LockKind) -> bool;

    /// May the step at this position satisfy its reads from committed row
    /// versions, without acquiring any locks?
    ///
    /// This is the *policy half* of the version-read gate: only steps the
    /// policy classifies as read-only (their results feed no writes) may
    /// answer `true` — the interference oracle's own
    /// `version_read_safe(step_type)` is consulted separately, and an
    /// all-clear write row alone is not sufficient (a writer whose writes
    /// are declared interference-free still must not read stale versions it
    /// is about to overwrite). Defaults to `false`, so the 2PL baseline and
    /// any legacy policy never take the fast path.
    fn version_read_safe(&self, _meta: &TxnMeta) -> bool {
        false
    }
}

/// Strict two-phase locking: the paper's baseline (unmodified Open Ingres,
/// serializable isolation). Ignores step boundaries entirely.
#[derive(Debug, Clone, Copy, Default)]
pub struct TwoPhase;

impl ConcurrencyControl for TwoPhase {
    fn name(&self) -> &'static str {
        "strict-2pl"
    }

    fn decomposed(&self) -> bool {
        false
    }

    fn step_type(&self, _meta: &TxnMeta) -> StepTypeId {
        LEGACY_STEP
    }

    fn comp_step_type(&self, _txn_type: TxnTypeId) -> Option<StepTypeId> {
        None
    }

    fn item_locks(&self, _meta: &TxnMeta, _table: TableId, write: bool) -> Vec<LockKind> {
        vec![LockKind::Conventional(if write {
            LockMode::X
        } else {
            LockMode::S
        })]
    }

    fn scan_locks(&self, _meta: &TxnMeta, _table: TableId) -> Vec<LockKind> {
        vec![LockKind::Conventional(LockMode::S)]
    }

    fn release_at_step_end(&self, _meta: &TxnMeta, _kind: LockKind) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_phase_policy() {
        let cc = TwoPhase;
        let meta = TxnMeta {
            id: TxnId(1),
            txn_type: TxnTypeId(0),
            step_index: 0,
            compensating: false,
        };
        assert!(!cc.decomposed());
        assert_eq!(cc.step_type(&meta), LEGACY_STEP);
        assert_eq!(cc.comp_step_type(TxnTypeId(0)), None);
        assert_eq!(
            cc.item_locks(&meta, TableId(0), false),
            vec![LockKind::Conventional(LockMode::S)]
        );
        assert_eq!(
            cc.item_locks(&meta, TableId(0), true),
            vec![LockKind::Conventional(LockMode::X)]
        );
        assert_eq!(
            cc.scan_locks(&meta, TableId(0)),
            vec![LockKind::Conventional(LockMode::S)]
        );
        assert!(!cc.release_at_step_end(&meta, LockKind::X));
    }
}
