//! The design-time decomposition and interference analysis of the TPC-C
//! transactions (paper §5.1).
//!
//! # Step types
//!
//! Eleven step types are defined (the paper reports eleven forward step
//! types; our decomposition arrives at eight forward plus three compensating
//! — the mapping is documented in DESIGN.md):
//!
//! | type | transaction | does |
//! |---|---|---|
//! | `NO_S1` | new-order | read warehouse/customer, bump `d_next_o_id`, insert ORDER + NEW-ORDER |
//! | `NO_S2` | new-order | one order line: read ITEM, update STOCK, insert ORDER-LINE (× ol_cnt) |
//! | `PAY_S1` | payment | update `w_ytd`, `d_ytd` |
//! | `PAY_S2` | payment | select customer (id or last name), update balance, insert HISTORY |
//! | `OST` | order-status | read customer + last order + its lines (committed reads required) |
//! | `DLV_S1` | delivery | find & delete the district's oldest NEW-ORDER row |
//! | `DLV_S2` | delivery | set carrier, stamp lines delivered, credit the customer |
//! | `STK` | stock-level | read `d_next_o_id`, scan recent lines, count low stock (read-committed) |
//! | `NO_CS`/`PAY_CS`/`DLV_CS` | compensating steps |
//!
//! # One footprint list, every table
//!
//! Each step type's write footprint is written down once, refined with its
//! effect (commutative deltas) and key region (fresh order ids, the orders
//! a delivery claimed, a payment's own history row). [`acc_core::Inference`]
//! derives every interference table from that list: the one-level tables
//! (plus six declared cells, all about Delivery's atomic claim, which the
//! footprint vocabulary cannot express) and the §3.2 two-level tables (the
//! same list with every refinement reset, plus eight global-argument
//! declarations).
//!
//! # The §5.1 conflict, resolved by column analysis
//!
//! New-order's `NO_S1` writes `d_next_o_id`; payment's `PAY_S1` writes
//! `d_ytd` — the *same district row*. Under 2PL these serialize. Here the
//! footprints are column-disjoint, so neither step interferes with the
//! other's interstep assertions, and the two transaction types interleave on
//! the same district.

use crate::schema::{col, TABLES};

use acc_core::{
    Acc, AssertionRegistry, Decision, Effect, Inference, InterferenceTables, Region, StepFootprint,
    StepSpec, TableFootprint, TxnSpec, DIRTY,
};
use std::sync::Arc;

/// Transaction type ids.
pub mod ty {
    use acc_common::TxnTypeId;
    pub const NEW_ORDER: TxnTypeId = TxnTypeId(1);
    pub const PAYMENT: TxnTypeId = TxnTypeId(2);
    pub const ORDER_STATUS: TxnTypeId = TxnTypeId(3);
    pub const DELIVERY: TxnTypeId = TxnTypeId(4);
    pub const STOCK_LEVEL: TxnTypeId = TxnTypeId(5);
}

/// Step type ids.
pub mod step {
    use acc_common::StepTypeId;
    pub const NO_S1: StepTypeId = StepTypeId(1);
    pub const NO_S2: StepTypeId = StepTypeId(2);
    pub const PAY_S1: StepTypeId = StepTypeId(3);
    pub const PAY_S2: StepTypeId = StepTypeId(4);
    pub const OST: StepTypeId = StepTypeId(5);
    pub const DLV_S1: StepTypeId = StepTypeId(6);
    pub const DLV_S2: StepTypeId = StepTypeId(7);
    pub const STK: StepTypeId = StepTypeId(8);
    pub const NO_CS: StepTypeId = StepTypeId(20);
    pub const PAY_CS: StepTypeId = StepTypeId(21);
    pub const DLV_CS: StepTypeId = StepTypeId(22);
}

/// Key spaces of the refined step footprints.
pub mod ks {
    use acc_core::KeySpace;
    /// Order ids allocated from `d_next_o_id`: each new-order instance holds
    /// a freshly allocated id, and its ORDER / NEW-ORDER / ORDER-LINE rows
    /// are keyed by it.
    pub const ORDER: KeySpace = KeySpace(0);
    /// Claimed order ids: each delivery instance atomically claims a
    /// distinct oldest order per district (the claim deletes the NEW-ORDER
    /// row), and from then on owns that order's rows.
    pub const CLAIM: KeySpace = KeySpace(1);
    /// Per-payment history keys: each payment inserts exactly one HISTORY
    /// row under its own fresh key.
    pub const TXN: KeySpace = KeySpace(2);
}

/// An online edit to the assertion-template set. [`TpccSystem::reanalyze`]
/// re-derives the full interference matrix from the edited set; the epoch
/// registry (`acc_txn::SharedDb::install_oracle`) then switches the live
/// system over once every in-flight transaction has drained.
///
/// Every edit preserves the base template ids (the base registry is rebuilt
/// in the identical define order, extras go last), so a policy built against
/// the base system keeps meaning the same templates under the new tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TableEdit {
    /// Define an extra "backlog audit" template that reads the ORDER and
    /// NEW-ORDER row sets of every order. Nothing discharges or declares
    /// those overlaps, so every writer whose footprint overlaps (new-order's
    /// header step, delivery's claim step, both their compensations) becomes
    /// interfering — the "add an assertion template" direction.
    AddAudit,
    /// Rebuild without the audit template — the "remove a template"
    /// direction. Lookups against the departed id fall off the matrix and
    /// answer conservatively (see `InterferenceTables`).
    RemoveAudit,
    /// Widen `no_loop`'s read footprint with ORDER-LINE's `DELIVERY_D`
    /// column: delivery's apply and compensating steps now overlap it and
    /// flip from safe to interfering — the "widen a footprint" direction
    /// (strictly more conservative, so always sound to install).
    WidenNoLoop,
}

/// Assertion template handles produced by [`TpccSystem::build`].
#[derive(Debug, Clone, Copy)]
pub struct Templates {
    /// New-order's loop invariant: its order's line count matches progress.
    pub no_loop: acc_common::AssertionTemplateId,
    /// Payment's interstep assertion: the warehouse/district YTD columns
    /// include this payment's amount.
    pub pay_mid: acc_common::AssertionTemplateId,
    /// Delivery's loop invariant over processed districts.
    pub dlv_loop: acc_common::AssertionTemplateId,
    /// Delivery's type-specific uncommitted-data guard: deliveries may
    /// safely write pages pinned by *other deliveries* (they claim distinct
    /// orders atomically), while everything in-flight from new-order stays
    /// barred behind the shared [`DIRTY`] guard.
    pub dlv_dirty: acc_common::AssertionTemplateId,
    /// The backlog-audit template, present only in a
    /// [`TableEdit::AddAudit`] re-analysis (always the last id, so the base
    /// ids are stable across edits).
    pub audit: Option<acc_common::AssertionTemplateId>,
}

/// The complete design-time product: templates, interference tables, policy.
pub struct TpccSystem {
    /// Template registry.
    pub registry: Arc<AssertionRegistry>,
    /// The run-time lookup tables (the system-wide interference oracle).
    pub tables: Arc<InterferenceTables>,
    /// The tables a *two-level* ACC (§3.2) would have to use: the same
    /// footprints with every key-region and delta refinement reset, since an
    /// analysis that cannot see item identity at run time cannot rely on "its
    /// own order's lines" or "distinct claimed orders". Only global
    /// (commutativity, monotonicity) arguments are declared. Used only by the
    /// §3.2 comparison experiment.
    pub two_level_tables: Arc<InterferenceTables>,
    /// The ACC policy with all five decompositions.
    pub acc: Arc<Acc>,
    /// Template handles.
    pub templates: Templates,
    /// Every recorded decision behind `tables`: its proof, declaration or
    /// blocking obligation.
    pub decisions: Vec<Decision>,
    /// Every recorded decision behind `two_level_tables`.
    pub two_level_decisions: Vec<Decision>,
}

/// The same footprint as seen by a two-level analysis: every write an
/// assignment to any row.
fn unrefined(mut fp: StepFootprint) -> StepFootprint {
    for w in &mut fp.writes {
        w.effect = Effect::Assign;
        w.region = Region::All;
    }
    fp
}

impl TpccSystem {
    /// Run the design-time analysis and build the policy.
    pub fn build() -> TpccSystem {
        Self::build_edited(None)
    }

    /// Re-derive the whole design-time product from an edited template set —
    /// the online re-analysis entry point. The returned system's `tables`
    /// are what a caller hands to `SharedDb::install_oracle`; its `acc`
    /// policy is interchangeable with the base one because the base template
    /// ids are preserved.
    pub fn reanalyze(edit: TableEdit) -> TpccSystem {
        Self::build_edited(Some(edit))
    }

    /// The step write footprints, refined with per-footprint facts that hold
    /// of our implementation: stock/YTD/balance updates are commutative
    /// deltas compensated by the inverse delta; ORDER/NEW-ORDER/ORDER-LINE
    /// inserts use the freshly allocated order id ([`ks::ORDER`]); delivery's
    /// apply and compensation touch only the orders its claim step atomically
    /// took ([`ks::CLAIM`]); each payment owns its HISTORY key ([`ks::TXN`]).
    fn footprints() -> Vec<StepFootprint> {
        use step::*;
        vec![
            StepFootprint::new(
                NO_S1,
                "new-order: header",
                vec![
                    TableFootprint::columns(TABLES.district, [col::d::NEXT_O_ID]).delta(),
                    TableFootprint::rows(
                        TABLES.order,
                        [
                            col::o::W_ID,
                            col::o::D_ID,
                            col::o::ID,
                            col::o::C_ID,
                            col::o::ENTRY_D,
                            col::o::CARRIER_ID,
                            col::o::OL_CNT,
                            col::o::ALL_LOCAL,
                        ],
                    )
                    .fresh(ks::ORDER),
                    TableFootprint::rows(TABLES.new_order, [0, 1, 2]).fresh(ks::ORDER),
                ],
            ),
            StepFootprint::new(
                NO_S2,
                "new-order: one line",
                vec![
                    TableFootprint::columns(
                        TABLES.stock,
                        [col::s::QUANTITY, col::s::YTD, col::s::ORDER_CNT],
                    )
                    .delta(),
                    TableFootprint::rows(TABLES.order_line, (0..10).collect::<Vec<_>>())
                        .fresh(ks::ORDER),
                ],
            ),
            StepFootprint::new(
                PAY_S1,
                "payment: warehouse/district ytd",
                vec![
                    TableFootprint::columns(TABLES.warehouse, [col::w::YTD]).delta(),
                    TableFootprint::columns(TABLES.district, [col::d::YTD]).delta(),
                ],
            ),
            StepFootprint::new(
                PAY_S2,
                "payment: customer + history",
                // `c_data` is absent: the TPC-C spec rewrites it for bad
                // credit, but our implementation only ever adds deltas fixed
                // at execution to the numeric columns.
                vec![
                    TableFootprint::columns(
                        TABLES.customer,
                        [col::c::BALANCE, col::c::YTD_PAYMENT, col::c::PAYMENT_CNT],
                    )
                    .delta(),
                    TableFootprint::rows(TABLES.history, (0..6).collect::<Vec<_>>()).fresh(ks::TXN),
                ],
            ),
            StepFootprint::new(OST, "order-status (read-only)", vec![]),
            StepFootprint::new(
                DLV_S1,
                "delivery: claim oldest new-order",
                // The claim deletes *some district's oldest* NEW-ORDER row —
                // which one depends on the live backlog, so no key region
                // confines it ("claims are atomic, hence distinct" is a
                // temporal argument, declared below).
                vec![TableFootprint::rows(TABLES.new_order, [])],
            ),
            StepFootprint::new(
                DLV_S2,
                "delivery: apply to order/lines/customer",
                vec![
                    TableFootprint::columns(TABLES.order, [col::o::CARRIER_ID]).own(ks::CLAIM),
                    TableFootprint::columns(TABLES.order_line, [col::ol::DELIVERY_D])
                        .own(ks::CLAIM),
                    TableFootprint::columns(
                        TABLES.customer,
                        [col::c::BALANCE, col::c::DELIVERY_CNT],
                    )
                    .delta(),
                ],
            ),
            StepFootprint::new(STK, "stock-level (read-only)", vec![]),
            // ----- compensating step footprints -------------------------------
            StepFootprint::new(
                NO_CS,
                "new-order compensation",
                vec![
                    TableFootprint::rows(TABLES.order, []).own(ks::ORDER),
                    TableFootprint::rows(TABLES.new_order, []).own(ks::ORDER),
                    TableFootprint::rows(TABLES.order_line, []).own(ks::ORDER),
                    TableFootprint::columns(
                        TABLES.stock,
                        [col::s::QUANTITY, col::s::YTD, col::s::ORDER_CNT],
                    )
                    .delta(),
                ],
            ),
            StepFootprint::new(
                PAY_CS,
                "payment compensation",
                vec![
                    TableFootprint::columns(TABLES.warehouse, [col::w::YTD]).delta(),
                    TableFootprint::columns(TABLES.district, [col::d::YTD]).delta(),
                    TableFootprint::columns(
                        TABLES.customer,
                        [col::c::BALANCE, col::c::YTD_PAYMENT, col::c::PAYMENT_CNT],
                    )
                    .delta(),
                    TableFootprint::rows(TABLES.history, []).own(ks::TXN),
                ],
            ),
            StepFootprint::new(
                DLV_CS,
                "delivery compensation",
                vec![
                    TableFootprint::rows(TABLES.new_order, []).own(ks::CLAIM),
                    TableFootprint::columns(TABLES.order, [col::o::CARRIER_ID]).own(ks::CLAIM),
                    TableFootprint::columns(TABLES.order_line, [col::ol::DELIVERY_D])
                        .own(ks::CLAIM),
                    TableFootprint::columns(
                        TABLES.customer,
                        [col::c::BALANCE, col::c::DELIVERY_CNT],
                    )
                    .delta(),
                ],
            ),
        ]
    }

    fn build_edited(edit: Option<TableEdit>) -> TpccSystem {
        use step::*;

        let mut reg = AssertionRegistry::new();
        let mut no_loop_reads = vec![
            // "This order" is the instance's own freshly allocated id.
            TableFootprint::columns(TABLES.order, [col::o::OL_CNT]).own(ks::ORDER),
            TableFootprint::rows(TABLES.order_line, []).own(ks::ORDER),
        ];
        if edit == Some(TableEdit::WidenNoLoop) {
            // The widened invariant also cares about delivery stamps on this
            // order's lines.
            no_loop_reads.push(
                TableFootprint::columns(TABLES.order_line, [col::ol::DELIVERY_D]).own(ks::ORDER),
            );
        }
        let no_loop = reg.define(
            "no-loop: entered lines match loop progress for this order",
            no_loop_reads,
            None,
        );
        let pay_mid = reg.define(
            "pay-mid: w_ytd and d_ytd include this payment's amount",
            vec![
                // "Includes my contribution" is invariant under other
                // payments' commutative additions.
                TableFootprint::columns(TABLES.warehouse, [col::w::YTD]).tolerates_deltas(),
                TableFootprint::columns(TABLES.district, [col::d::YTD]).tolerates_deltas(),
            ],
            None,
        );
        let dlv_loop = reg.define(
            "dlv-loop: districts processed so far are fully delivered",
            vec![
                TableFootprint::columns(TABLES.order, [col::o::CARRIER_ID]),
                TableFootprint::columns(TABLES.order_line, [col::ol::DELIVERY_D]),
                TableFootprint::rows(TABLES.new_order, []),
                TableFootprint::columns(TABLES.customer, [col::c::BALANCE]).tolerates_deltas(),
            ],
            None,
        );
        let dlv_dirty = reg.define_guard("dlv-dirty: uncommitted delivery writes");
        // Extra templates always define *after* the base four, so the ids a
        // running policy pinned keep meaning the same thing across epochs.
        let audit = if edit == Some(TableEdit::AddAudit) {
            Some(reg.define(
                "audit: open new-order backlog matches order headers",
                vec![
                    TableFootprint::rows(TABLES.new_order, []),
                    TableFootprint::rows(TABLES.order, []),
                ],
                None,
            ))
        } else {
            None
        };

        let footprints = Self::footprints();
        let (tables, decisions) = footprints
            .iter()
            .cloned()
            .fold(Inference::new(&reg), Inference::step)
            // ----- semantic declarations: Delivery's atomic claim, which no
            // ----- footprint refinement expresses (§5.1-style proof sketches)
            .declare_safe(
                NO_S1,
                dlv_loop,
                "a brand-new NEW-ORDER row belongs to an unprocessed order",
            )
            .declare_safe(
                NO_CS,
                dlv_loop,
                "compensated orders were never claimable (their NEW-ORDER row was DIRTY-pinned)",
            )
            .declare_safe(
                DLV_S1,
                dlv_loop,
                "concurrent deliveries claim distinct orders (claim is atomic)",
            )
            .declare_safe(DLV_S2, dlv_loop, "applies to own claimed orders only")
            .declare_safe(
                DLV_CS,
                dlv_loop,
                "compensation restores only its own claimed orders",
            )
            // Delivery's own guard: pages pinned by another delivery's
            // uncommitted claim are safe for the next claim, which
            // atomically takes a distinct order.
            .declare_safe(
                DLV_S1,
                dlv_dirty,
                "each claim atomically takes a distinct oldest order",
            )
            // DLV_S1 deliberately NOT declared safe against DIRTY: delivery
            // must not claim a half-entered order.
            //
            // Order-status reports committed state to the customer (§3.3's
            // committed-reads requirement); stock-level is allowed dirty
            // reads (the spec permits read-committed for it).
            .require_committed_reads(OST)
            .build();

        // ---- the two-level analysis (§3.2 comparison) ---------------------
        // The same footprints without refinements, and only the declarations
        // whose justification does not mention item identity: commutativity
        // and monotonicity arguments survive; "own keys / own order /
        // distinct claims" arguments do not.
        let (two_level_tables, two_level_decisions) = footprints
            .into_iter()
            .map(unrefined)
            .fold(Inference::new(&reg), Inference::step)
            .declare_safe(
                PAY_S1,
                pay_mid,
                "ytd additions are monotone (global argument)",
            )
            .declare_safe(
                PAY_CS,
                pay_mid,
                "subtraction of own contribution commutes (global argument)",
            )
            .declare_safe(NO_S1, DIRTY, "counter increments commute (global argument)")
            .declare_safe(NO_S2, DIRTY, "stock decrements commute (global argument)")
            .declare_safe(PAY_S1, DIRTY, "ytd additions commute (global argument)")
            .declare_safe(PAY_S2, DIRTY, "balance additions commute (global argument)")
            .declare_safe(NO_CS, DIRTY, "restock increments commute (global argument)")
            .declare_safe(PAY_CS, DIRTY, "subtractions commute (global argument)")
            .require_committed_reads(OST)
            .build();

        let registry = Arc::new(reg);
        let acc = Arc::new(Acc::new(
            Arc::clone(&registry),
            vec![
                TxnSpec {
                    txn_type: ty::NEW_ORDER,
                    name: "new-order".into(),
                    steps: vec![
                        StepSpec {
                            step_type: NO_S1,
                            active: vec![no_loop],
                        },
                        StepSpec {
                            step_type: NO_S2,
                            active: vec![no_loop],
                        },
                    ],
                    overflow: Some(1),
                    comp_step: Some(NO_CS),
                    guard: DIRTY,
                    version_safe: false,
                },
                TxnSpec {
                    txn_type: ty::PAYMENT,
                    name: "payment".into(),
                    steps: vec![
                        StepSpec {
                            step_type: PAY_S1,
                            active: vec![pay_mid],
                        },
                        StepSpec {
                            step_type: PAY_S2,
                            active: vec![pay_mid],
                        },
                    ],
                    overflow: None,
                    comp_step: Some(PAY_CS),
                    guard: DIRTY,
                    version_safe: false,
                },
                TxnSpec {
                    txn_type: ty::ORDER_STATUS,
                    name: "order-status".into(),
                    steps: vec![StepSpec {
                        step_type: OST,
                        active: vec![],
                    }],
                    overflow: None,
                    comp_step: None,
                    guard: DIRTY,
                    // Read-only: OST writes nothing, so its reads may be
                    // served from committed row versions. Its §3.3
                    // committed-reads requirement is met by the visibility
                    // rule (chains serve only committed images).
                    version_safe: true,
                },
                TxnSpec {
                    txn_type: ty::DELIVERY,
                    name: "delivery".into(),
                    steps: vec![
                        StepSpec {
                            step_type: DLV_S1,
                            active: vec![dlv_loop],
                        },
                        StepSpec {
                            step_type: DLV_S2,
                            active: vec![dlv_loop],
                        },
                    ],
                    overflow: Some(0),
                    comp_step: Some(DLV_CS),
                    guard: dlv_dirty,
                    version_safe: false,
                },
                TxnSpec {
                    txn_type: ty::STOCK_LEVEL,
                    name: "stock-level".into(),
                    steps: vec![StepSpec {
                        step_type: STK,
                        active: vec![],
                    }],
                    overflow: None,
                    comp_step: None,
                    guard: DIRTY,
                    // Read-only, like order-status.
                    version_safe: true,
                },
            ],
        ));

        TpccSystem {
            registry,
            tables: Arc::new(tables),
            two_level_tables: Arc::new(two_level_tables),
            acc,
            templates: Templates {
                no_loop,
                pay_mid,
                dlv_loop,
                dlv_dirty,
                audit,
            },
            decisions,
            two_level_decisions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acc_lockmgr::InterferenceOracle;

    #[test]
    fn section_5_1_district_conflict_is_resolved() {
        let sys = TpccSystem::build();
        // New-order's counter bump does not invalidate payment's ytd
        // assertion, and vice versa — the same-district-row interleaving the
        // paper highlights.
        assert!(!sys
            .tables
            .write_interferes(step::NO_S1, sys.templates.pay_mid));
        assert!(!sys
            .tables
            .write_interferes(step::PAY_S1, sys.templates.no_loop));
    }

    #[test]
    fn delivery_cannot_claim_inflight_orders() {
        let sys = TpccSystem::build();
        assert!(sys.tables.write_interferes(step::DLV_S1, DIRTY));
        // …but applying to its own claimed (committed) orders is safe.
        assert!(!sys.tables.write_interferes(step::DLV_S2, DIRTY));
    }

    #[test]
    fn order_status_requires_committed_reads() {
        let sys = TpccSystem::build();
        assert!(sys.tables.read_interferes(step::OST, DIRTY));
        assert!(!sys.tables.read_interferes(step::STK, DIRTY));
        assert!(!sys.tables.read_interferes(step::NO_S2, DIRTY));
    }

    #[test]
    fn new_orders_interleave_freely() {
        let sys = TpccSystem::build();
        for s in [step::NO_S1, step::NO_S2] {
            assert!(!sys.tables.write_interferes(s, sys.templates.no_loop));
            assert!(!sys.tables.write_interferes(s, DIRTY));
        }
    }

    #[test]
    fn footprint_overlaps_still_conservative_where_undeclared() {
        let sys = TpccSystem::build();
        // A legacy step invalidates everything.
        assert!(sys
            .tables
            .write_interferes(acc_common::ids::LEGACY_STEP, sys.templates.no_loop));
        // NO_S2's fresh order lines cannot be the fixed rows delivery's
        // line-column assertion reads.
        assert!(!sys
            .tables
            .write_interferes(step::NO_S2, sys.templates.dlv_loop));
        // DLV_CS writes order_line columns; no_loop reads order_line
        // cardinality: disjoint footprints.
        assert!(!sys
            .tables
            .write_interferes(step::DLV_CS, sys.templates.no_loop));
    }

    #[test]
    fn delivery_spec_cycles_steps() {
        let sys = TpccSystem::build();
        use acc_common::TxnId;
        use acc_txn::{ConcurrencyControl, TxnMeta};
        let meta = |i| TxnMeta {
            id: TxnId(1),
            txn_type: ty::DELIVERY,
            step_index: i,
            compensating: false,
        };
        assert_eq!(sys.acc.step_type(&meta(0)), step::DLV_S1);
        assert_eq!(sys.acc.step_type(&meta(1)), step::DLV_S2);
        assert_eq!(sys.acc.step_type(&meta(2)), step::DLV_S1);
        assert_eq!(sys.acc.step_type(&meta(3)), step::DLV_S2);
        assert_eq!(sys.acc.step_type(&meta(18)), step::DLV_S1);
        assert_eq!(sys.acc.step_type(&meta(19)), step::DLV_S2);
    }

    #[test]
    fn decisions_are_recorded_for_every_pair() {
        let sys = TpccSystem::build();
        // 11 step types × 5 templates (DIRTY, three interstep assertions,
        // the delivery guard).
        assert_eq!(sys.decisions.len(), 11 * 5);
        assert!(sys
            .decisions
            .iter()
            .any(|d| d.why.contains("declared safe")));
        let dump = sys.tables.dump();
        assert!(dump.lines().count() >= 11, "{dump}");
    }

    #[test]
    fn widen_no_loop_flips_delivery_pairs() {
        let base = TpccSystem::build();
        let wide = TpccSystem::reanalyze(TableEdit::WidenNoLoop);
        // Base ids survive the edit unchanged.
        assert_eq!(wide.templates.no_loop, base.templates.no_loop);
        assert_eq!(wide.templates.dlv_dirty, base.templates.dlv_dirty);
        assert_eq!(wide.templates.audit, None);
        // Delivery's apply step and its compensation now write a column the
        // widened no_loop reads — and neither pair was ever declared safe.
        for (sys, expect) in [(&base, false), (&wide, true)] {
            assert_eq!(
                sys.tables
                    .write_interferes(step::DLV_S2, sys.templates.no_loop),
                expect
            );
            assert_eq!(
                sys.tables
                    .write_interferes(step::DLV_CS, sys.templates.no_loop),
                expect
            );
        }
        // Proofs survive the widened overlap: new-order's fresh line inserts
        // stay safe against its own assertion.
        assert!(!wide
            .tables
            .write_interferes(step::NO_S2, wide.templates.no_loop));
        // And the §5.1 resolution is untouched by the edit.
        assert!(!wide
            .tables
            .write_interferes(step::PAY_S1, wide.templates.no_loop));
    }

    #[test]
    fn add_audit_makes_backlog_writers_interfere() {
        let base = TpccSystem::build();
        let sys = TpccSystem::reanalyze(TableEdit::AddAudit);
        let audit = sys.templates.audit.expect("audit template defined");
        // Defined last: the base ids are stable.
        assert_eq!(sys.templates.no_loop, base.templates.no_loop);
        assert_eq!(sys.templates.dlv_dirty, base.templates.dlv_dirty);
        assert_eq!(sys.decisions.len(), 11 * 6);
        // Writers into ORDER/NEW-ORDER row sets overlap the new template's
        // unconfined reads, and nothing discharges or declares that.
        for s in [step::NO_S1, step::DLV_S1, step::NO_CS, step::DLV_CS] {
            assert!(sys.tables.write_interferes(s, audit), "step {s:?}");
        }
        // Disjoint writers stay safe against it.
        for s in [step::PAY_S1, step::PAY_S2, step::NO_S2, step::DLV_S2] {
            assert!(!sys.tables.write_interferes(s, audit), "step {s:?}");
        }
        // Pre-existing pairs are unchanged by the addition.
        assert!(!sys
            .tables
            .write_interferes(step::NO_S1, sys.templates.pay_mid));
        assert!(sys.tables.write_interferes(step::DLV_S1, DIRTY));
    }

    #[test]
    fn remove_audit_rebuilds_base_and_stays_conservative_for_departed_id() {
        let with = TpccSystem::reanalyze(TableEdit::AddAudit);
        let without = TpccSystem::reanalyze(TableEdit::RemoveAudit);
        let base = TpccSystem::build();
        // Removal really is the base matrix again.
        assert_eq!(without.tables.dump(), base.tables.dump());
        // A straggler still holding the departed audit id gets conservative
        // *write* answers, never a panic (the id is off the end of the
        // matrix row). Reads only ever conflict with guard templates, so the
        // departed non-guard id stays read-safe — reads cannot falsify it.
        let departed = with.templates.audit.unwrap();
        assert!(without.tables.write_interferes(step::PAY_S1, departed));
        assert!(without.tables.write_interferes(step::NO_S2, departed));
        assert!(!without.tables.read_interferes(step::STK, departed));
    }
}
