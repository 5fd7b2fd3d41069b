//! The one-level ACC as a [`ConcurrencyControl`] policy (§3.2–3.3,
//! implemented variant).
//!
//! Differences from the simplified §3.3 algorithm, matching the paper's
//! implemented system: assertional locks are acquired *dynamically*, at the
//! moment conventional locks are acquired — each data access attaches the
//! transaction's currently active assertion templates to the item it locks.
//! This avoids extra excursions through the locking code and shortens
//! assertional lock hold times.

use crate::assertion::AssertionRegistry;
use acc_common::{AssertionTemplateId, StepTypeId, TableId, TxnTypeId};
use acc_lockmgr::{LockKind, LockMode};
use acc_txn::{ConcurrencyControl, TxnMeta};
use std::collections::HashMap;
use std::sync::Arc;

/// One position in a decomposed transaction type.
#[derive(Debug, Clone)]
pub struct StepSpec {
    /// The design-time step type executed at this position.
    pub step_type: StepTypeId,
    /// Assertion templates active while this step runs — its own
    /// precondition plus the next step's (granted before the step initiates,
    /// §3.3). Accesses to items in a template's footprint tables attach an
    /// assertional lock for it.
    pub active: Vec<AssertionTemplateId>,
}

/// The decomposition of one transaction type.
#[derive(Debug, Clone)]
pub struct TxnSpec {
    /// The transaction type.
    pub txn_type: TxnTypeId,
    /// Name for reports.
    pub name: String,
    /// Per-position specs. Programs with input-dependent step counts set
    /// `overflow`: positions beyond the end cycle through
    /// `steps[overflow..]` (e.g. new-order's per-orderline loop reuses its
    /// line step; delivery cycles its find/apply pair across districts).
    pub steps: Vec<StepSpec>,
    /// Start of the cycled tail for positions ≥ `steps.len()`.
    pub overflow: Option<usize>,
    /// The compensating step type, if the type is compensatable. Mandatory
    /// when `steps.len() > 1` or `overflow` is set (multi-step transactions
    /// must be compensatable, §3.4).
    pub comp_step: Option<StepTypeId>,
    /// The uncommitted-data guard this type pins on everything it writes
    /// (held to commit). [`crate::assertion::DIRTY`] by default; types whose uncommitted pages
    /// may be safely written by their peers (per declared analysis) use a
    /// type-specific guard defined with
    /// [`AssertionRegistry::define_guard`].
    pub guard: AssertionTemplateId,
    /// Declare the whole type read-only: its steps' results feed no writes,
    /// so their reads may be served from committed row versions without
    /// locking ([`ConcurrencyControl::version_read_safe`]). The declaration
    /// is only half the gate — the interference oracle must also clear the
    /// step's write row — but it is the load-bearing half: an all-clear
    /// write row alone also admits *writers* whose writes are declared
    /// interference-free (e.g. TPC-C's payment steps), and those must never
    /// read stale versions of rows they are about to overwrite.
    pub version_safe: bool,
}

impl TxnSpec {
    /// The spec governing a position.
    pub fn at(&self, step_index: u32) -> &StepSpec {
        let i = step_index as usize;
        if i < self.steps.len() {
            &self.steps[i]
        } else {
            let o = self.overflow.unwrap_or_else(|| {
                panic!("{}: position {i} beyond spec with no overflow", self.name)
            });
            let cycle = self.steps.len() - o;
            &self.steps[o + (i - o) % cycle]
        }
    }
}

/// The ACC policy: drives a [`acc_txn::SharedDb`] whose oracle is the
/// [`crate::tables::InterferenceTables`] produced by the same analysis that
/// produced these specs.
pub struct Acc {
    registry: Arc<AssertionRegistry>,
    specs: HashMap<TxnTypeId, TxnSpec>,
}

impl Acc {
    /// Build from the template registry and per-type decompositions.
    pub fn new(registry: Arc<AssertionRegistry>, specs: Vec<TxnSpec>) -> Self {
        for s in &specs {
            if s.steps.len() > 1 || s.overflow.is_some() {
                assert!(
                    s.comp_step.is_some(),
                    "multi-step transaction type `{}` must declare compensation",
                    s.name
                );
            }
        }
        Acc {
            registry,
            specs: specs.into_iter().map(|s| (s.txn_type, s)).collect(),
        }
    }

    /// The registry backing this policy.
    pub fn registry(&self) -> &AssertionRegistry {
        &self.registry
    }

    /// The same policy with every type's `version_safe` declaration
    /// withdrawn: all reads take the conventional lock-manager path. Used by
    /// comparison experiments (and tests) that need the pre-MVCC behavior of
    /// an otherwise identical system.
    pub fn without_version_reads(&self) -> Acc {
        Acc {
            registry: Arc::clone(&self.registry),
            specs: self
                .specs
                .iter()
                .map(|(&ty, s)| {
                    (
                        ty,
                        TxnSpec {
                            version_safe: false,
                            ..s.clone()
                        },
                    )
                })
                .collect(),
        }
    }

    /// The declared decomposition of `ty`. Panics for an unregistered type.
    pub fn spec(&self, ty: TxnTypeId) -> &TxnSpec {
        self.specs
            .get(&ty)
            .unwrap_or_else(|| panic!("no decomposition registered for {ty}"))
    }

    /// Templates active at a position whose footprints include `table`.
    fn attached(
        &self,
        meta: &TxnMeta,
        table: TableId,
    ) -> impl Iterator<Item = AssertionTemplateId> + '_ {
        let spec = self.spec(meta.txn_type);
        let active: &[AssertionTemplateId] = if meta.compensating {
            // A compensating step runs under no interstep assertions of its
            // own; it relies on compensation-protection locks taken by the
            // forward steps.
            &[]
        } else {
            &spec.at(meta.step_index).active
        };
        let registry = &self.registry;
        active
            .iter()
            .copied()
            .filter(move |&t| registry.get(t).reads.iter().any(|fp| fp.table == table))
    }
}

impl ConcurrencyControl for Acc {
    fn name(&self) -> &'static str {
        "acc"
    }

    fn decomposed(&self) -> bool {
        true
    }

    fn step_type(&self, meta: &TxnMeta) -> StepTypeId {
        let spec = self.spec(meta.txn_type);
        if meta.compensating {
            spec.comp_step
                .unwrap_or_else(|| panic!("{}: compensating without comp_step", spec.name))
        } else {
            spec.at(meta.step_index).step_type
        }
    }

    fn comp_step_type(&self, txn_type: TxnTypeId) -> Option<StepTypeId> {
        self.spec(txn_type).comp_step
    }

    fn item_locks(&self, meta: &TxnMeta, table: TableId, write: bool) -> Vec<LockKind> {
        let mut kinds = vec![LockKind::Conventional(if write {
            LockMode::X
        } else {
            LockMode::S
        })];
        if write {
            // Pin uncommitted data until commit: legacy isolation +
            // compensation protection (§3.3–3.4).
            kinds.push(LockKind::Assertional(self.spec(meta.txn_type).guard));
        }
        kinds.extend(self.attached(meta, table).map(LockKind::Assertional));
        kinds
    }

    fn table_locks(&self, meta: &TxnMeta, _table: TableId, write: bool) -> Vec<LockKind> {
        let mut kinds = vec![LockKind::Conventional(if write {
            LockMode::IX
        } else {
            LockMode::IS
        })];
        if write {
            // The conventional intention lock is dropped at the step
            // boundary, so the guard must *also* pin the table: scans take
            // only a table-granularity `S`, and without this pin they would
            // read uncommitted pages without ever consulting the
            // interference table (intention modes pass assertional grants,
            // so key accesses by other transactions are unaffected).
            kinds.push(LockKind::Assertional(self.spec(meta.txn_type).guard));
        }
        kinds
    }

    fn scan_locks(&self, meta: &TxnMeta, table: TableId) -> Vec<LockKind> {
        let mut kinds = vec![LockKind::Conventional(LockMode::S)];
        kinds.extend(self.attached(meta, table).map(LockKind::Assertional));
        kinds
    }

    fn version_read_safe(&self, meta: &TxnMeta) -> bool {
        // Compensating steps write by definition; a read-only type never
        // compensates, but stay defensive.
        !meta.compensating && self.spec(meta.txn_type).version_safe
    }

    fn release_at_step_end(&self, meta: &TxnMeta, kind: LockKind) -> bool {
        match kind {
            // Step atomicity: conventional locks are strictly two-phase
            // *within* the step and dropped at its end.
            LockKind::Conventional(_) => true,
            // Uncommitted-data pins (DIRTY or a type guard) survive until
            // commit.
            LockKind::Assertional(t) if self.registry.get(t).read_guard => false,
            // An assertional lock survives while its template stays active
            // at the new position.
            LockKind::Assertional(t) => {
                let spec = self.spec(meta.txn_type);
                !spec.at(meta.step_index).active.contains(&t)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assertion::DIRTY;
    use crate::footprint::TableFootprint;
    use acc_common::TxnId;

    const ORDERS: TableId = TableId(0);
    const LINES: TableId = TableId(1);
    const STOCK: TableId = TableId(2);

    fn policy() -> (Acc, AssertionTemplateId) {
        let (acc, no_loop, _) = policy_with_extra();
        (acc, no_loop)
    }

    fn policy_with_extra() -> (Acc, AssertionTemplateId, AssertionTemplateId) {
        let mut reg = AssertionRegistry::new();
        let no_loop = reg.define(
            "new-order-loop",
            vec![
                TableFootprint::columns(ORDERS, [2]),
                TableFootprint::rows(LINES, []),
            ],
            None,
        );
        let extra = reg.define("unrelated", vec![], None);
        let acc = Acc::new(
            Arc::new(reg),
            vec![TxnSpec {
                txn_type: TxnTypeId(1),
                name: "new-order".into(),
                steps: vec![
                    StepSpec {
                        step_type: StepTypeId(1),
                        active: vec![no_loop],
                    },
                    StepSpec {
                        step_type: StepTypeId(2),
                        active: vec![no_loop],
                    },
                ],
                overflow: Some(1),
                comp_step: Some(StepTypeId(4)),
                guard: DIRTY,
                version_safe: false,
            }],
        );
        (acc, no_loop, extra)
    }

    fn meta(step: u32, compensating: bool) -> TxnMeta {
        TxnMeta {
            id: TxnId(1),
            txn_type: TxnTypeId(1),
            step_index: step,
            compensating,
        }
    }

    #[test]
    fn step_types_follow_spec_with_overflow() {
        let (acc, _) = policy();
        assert_eq!(acc.step_type(&meta(0, false)), StepTypeId(1));
        assert_eq!(acc.step_type(&meta(1, false)), StepTypeId(2));
        assert_eq!(
            acc.step_type(&meta(7, false)),
            StepTypeId(2),
            "overflow loops"
        );
        assert_eq!(acc.step_type(&meta(7, true)), StepTypeId(4), "compensating");
        assert_eq!(acc.comp_step_type(TxnTypeId(1)), Some(StepTypeId(4)));
    }

    #[test]
    fn write_locks_include_dirty_and_active_templates() {
        let (acc, no_loop) = policy();
        let kinds = acc.item_locks(&meta(1, false), LINES, true);
        assert!(kinds.contains(&LockKind::Conventional(LockMode::X)));
        assert!(kinds.contains(&LockKind::Assertional(DIRTY)));
        assert!(kinds.contains(&LockKind::Assertional(no_loop)));
        // Stock is not in the template's footprint: no template lock there.
        let kinds = acc.item_locks(&meta(1, false), STOCK, true);
        assert!(kinds.contains(&LockKind::Assertional(DIRTY)));
        assert!(!kinds.contains(&LockKind::Assertional(no_loop)));
    }

    #[test]
    fn read_locks_attach_templates_but_not_dirty() {
        let (acc, no_loop) = policy();
        let kinds = acc.item_locks(&meta(0, false), ORDERS, false);
        assert_eq!(kinds[0], LockKind::Conventional(LockMode::S));
        assert!(!kinds.contains(&LockKind::Assertional(DIRTY)));
        assert!(kinds.contains(&LockKind::Assertional(no_loop)));
        let scan = acc.scan_locks(&meta(0, false), LINES);
        assert!(scan.contains(&LockKind::Conventional(LockMode::S)));
        assert!(scan.contains(&LockKind::Assertional(no_loop)));
    }

    #[test]
    fn compensating_steps_attach_no_templates() {
        let (acc, no_loop) = policy();
        let kinds = acc.item_locks(&meta(3, true), LINES, true);
        assert!(kinds.contains(&LockKind::Assertional(DIRTY)));
        assert!(!kinds.contains(&LockKind::Assertional(no_loop)));
    }

    #[test]
    fn step_end_release_policy() {
        let (acc, no_loop, extra) = policy_with_extra();
        let m = meta(1, false); // position after the boundary
        assert!(acc.release_at_step_end(&m, LockKind::X));
        assert!(acc.release_at_step_end(&m, LockKind::S));
        assert!(!acc.release_at_step_end(&m, LockKind::Assertional(DIRTY)));
        // no_loop stays active at position 1: keep it.
        assert!(!acc.release_at_step_end(&m, LockKind::Assertional(no_loop)));
        // A template not active at the new position is dropped.
        assert!(acc.release_at_step_end(&m, LockKind::Assertional(extra)));
    }

    #[test]
    #[should_panic(expected = "must declare compensation")]
    fn multi_step_without_compensation_panics() {
        let reg = Arc::new(AssertionRegistry::new());
        let _ = Acc::new(
            reg,
            vec![TxnSpec {
                txn_type: TxnTypeId(1),
                name: "bad".into(),
                steps: vec![
                    StepSpec {
                        step_type: StepTypeId(1),
                        active: vec![],
                    },
                    StepSpec {
                        step_type: StepTypeId(2),
                        active: vec![],
                    },
                ],
                overflow: None,
                comp_step: None,
                guard: DIRTY,
                version_safe: false,
            }],
        );
    }

    #[test]
    fn version_safety_is_declared_per_type_and_never_compensating() {
        let mut reg = AssertionRegistry::new();
        let t = reg.define("t", vec![], None);
        let acc = Acc::new(
            Arc::new(reg),
            vec![
                TxnSpec {
                    txn_type: TxnTypeId(1),
                    name: "reader".into(),
                    steps: vec![StepSpec {
                        step_type: StepTypeId(1),
                        active: vec![t],
                    }],
                    overflow: None,
                    comp_step: None,
                    guard: DIRTY,
                    version_safe: true,
                },
                TxnSpec {
                    txn_type: TxnTypeId(2),
                    name: "writer".into(),
                    steps: vec![StepSpec {
                        step_type: StepTypeId(2),
                        active: vec![],
                    }],
                    overflow: None,
                    comp_step: Some(StepTypeId(3)),
                    guard: DIRTY,
                    version_safe: false,
                },
            ],
        );
        let reader = TxnMeta {
            id: TxnId(1),
            txn_type: TxnTypeId(1),
            step_index: 0,
            compensating: false,
        };
        assert!(acc.version_read_safe(&reader));
        assert!(!acc.version_read_safe(&TxnMeta {
            compensating: true,
            ..reader
        }));
        assert!(!acc.version_read_safe(&TxnMeta {
            txn_type: TxnTypeId(2),
            ..reader
        }));
    }
}
