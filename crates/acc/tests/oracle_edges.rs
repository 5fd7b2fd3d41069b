//! Edge cases of the table-backed interference oracle — pinned so nobody
//! "optimises" the conservative defaults away.
//!
//! Three situations the §4 analysis never exercises on the happy path:
//!
//! * a **step type the analysis never saw** (and the explicit `LEGACY_STEP`
//!   sentinel) — both must stay maximally conservative on writes, while
//!   reads only block against guard templates (reads cannot falsify a
//!   non-guard predicate, §3.3),
//! * an **empty template set** — a registry holding only the built-in
//!   `DIRTY` guard, including lookups for template ids past the end of the
//!   row (a template defined in a later epoch, or simply garbage),
//! * a **template whose footprint references no table** — it overlaps
//!   nothing, so every analyzed writer is safe against it by footprint;
//!   that only goes through if it is not declared a guard.

use acc_common::ids::LEGACY_STEP;
use acc_common::{AssertionTemplateId, StepTypeId, TableId};
use acc_core::{AssertionRegistry, Inference, StepFootprint, TableFootprint, DIRTY};
use acc_lockmgr::{InterferenceOracle, NoInterference, TotalInterference};

const T_ORDERS: TableId = TableId(0);
const T_STOCK: TableId = TableId(1);

/// One analyzed writer over `orders(0,1)`, one template reading `orders(1)`.
fn small_system() -> (AssertionRegistry, StepTypeId, AssertionTemplateId) {
    let mut reg = AssertionRegistry::new();
    let tmpl = reg.define(
        "orders column 1 is consistent",
        vec![TableFootprint::columns(T_ORDERS, [1])],
        None,
    );
    let writer = StepTypeId(7);
    (reg, writer, tmpl)
}

#[test]
fn unknown_step_type_is_conservative_on_writes_and_guards_on_reads() {
    let (reg, writer, tmpl) = small_system();
    let (tables, _) = Inference::new(&reg)
        .step(StepFootprint::new(
            writer,
            "writer",
            vec![TableFootprint::columns(T_ORDERS, [0, 1])],
        ))
        .declare_safe(writer, DIRTY, "test: single-row blind write")
        .build();

    // A step type the analysis never registered: every write lookup is
    // interference, no matter the template — even ones the analyzed writer
    // was declared safe against.
    let unknown = StepTypeId(99);
    assert!(!tables.is_analyzed(unknown));
    assert!(tables.write_interferes(unknown, DIRTY));
    assert!(tables.write_interferes(unknown, tmpl));
    // The explicit legacy sentinel behaves identically.
    assert!(tables.write_interferes(LEGACY_STEP, DIRTY));
    assert!(tables.write_interferes(LEGACY_STEP, tmpl));

    // Reads: unanalyzed steps block on guards (they might expose uncommitted
    // data to themselves), but a non-guard template can never be falsified
    // by a read — not even a legacy transaction's.
    assert!(tables.read_interferes(unknown, DIRTY));
    assert!(tables.read_interferes(LEGACY_STEP, DIRTY));
    assert!(!tables.read_interferes(unknown, tmpl));
    assert!(!tables.read_interferes(LEGACY_STEP, tmpl));

    // Sanity: the analyzed writer is exactly as declared.
    assert!(tables.is_analyzed(writer));
    assert!(!tables.write_interferes(writer, DIRTY));
    assert!(tables.write_interferes(writer, tmpl));
    assert!(!tables.read_interferes(writer, DIRTY));
}

#[test]
fn empty_template_set_still_guards_dirty_and_rejects_out_of_range_ids() {
    // Registry with nothing but the built-in DIRTY guard.
    let reg = AssertionRegistry::new();
    assert_eq!(reg.len(), 1);
    let step = StepTypeId(3);
    let (tables, decisions) = Inference::new(&reg)
        .step(StepFootprint::new(
            step,
            "lonely writer",
            vec![TableFootprint::rows(T_STOCK, [0])],
        ))
        .build();

    // Exactly one decision: the writer against DIRTY, conservatively true —
    // footprints cannot prove an overwrite of uncommitted data safe.
    assert_eq!(decisions.len(), 1);
    assert!(decisions[0].interferes);
    assert_eq!(tables.n_templates(), 1);
    assert!(tables.write_interferes(step, DIRTY));
    assert!(!tables.read_interferes(step, DIRTY)); // analyzed, not a committed-reader

    // Template ids beyond the analyzed row (defined after this epoch's
    // analysis ran, or corrupt): write lookups fall back to interference,
    // read lookups stay false because the id is in no guard set.
    let departed = AssertionTemplateId(7);
    assert!(tables.write_interferes(step, departed));
    assert!(!tables.read_interferes(step, departed));
    // Same for an unanalyzed step against the out-of-range id.
    assert!(tables.write_interferes(StepTypeId(50), departed));
    assert!(!tables.read_interferes(StepTypeId(50), departed));
}

#[test]
fn declared_safe_against_dirty_survives_an_empty_template_set() {
    let reg = AssertionRegistry::new();
    let step = StepTypeId(4);
    let (tables, decisions) = Inference::new(&reg)
        .step(StepFootprint::new(
            step,
            "blind insert",
            vec![TableFootprint::rows(T_STOCK, [])],
        ))
        .declare_safe(step, DIRTY, "test: inserts never touch claimed rows")
        .build();
    assert_eq!(decisions.len(), 1);
    assert!(!decisions[0].interferes);
    assert!(decisions[0].why.contains("declared safe"));
    assert!(!tables.write_interferes(step, DIRTY));
}

#[test]
fn template_with_no_footprint_conflicts_with_nothing_analyzed() {
    let mut reg = AssertionRegistry::new();
    // A template that reads no table at all: a tautology, or an assertion
    // over state outside the database. No write footprint can overlap it.
    let vacuous = reg.define("vacuous: no table referenced", vec![], None);
    let writer = StepTypeId(11);
    let (tables, decisions) = Inference::new(&reg)
        .step(StepFootprint::new(
            writer,
            "writer",
            vec![
                TableFootprint::rows(T_ORDERS, [0, 1, 2]),
                TableFootprint::rows(T_STOCK, [0]),
            ],
        ))
        .build();

    // 2 templates (DIRTY + vacuous) × 1 step.
    assert_eq!(decisions.len(), 2);
    // Every analyzed write is safe against the footprint-less template...
    assert!(!tables.write_interferes(writer, vacuous));
    let d = decisions
        .iter()
        .find(|d| d.template == vacuous)
        .expect("decision for the vacuous template");
    assert!(!d.interferes);
    assert!(d.why.contains("disjoint"));
    // ...while DIRTY stays conservatively blocked.
    assert!(tables.write_interferes(writer, DIRTY));
    // Reads never conflict with a non-guard template, and unanalyzed writes
    // stay conservative even against the vacuous template.
    assert!(!tables.read_interferes(writer, vacuous));
    assert!(!tables.read_interferes(LEGACY_STEP, vacuous));
    assert!(tables.write_interferes(LEGACY_STEP, vacuous));
}

#[test]
fn committed_reader_blocks_on_guards_but_not_plain_templates() {
    let (reg, writer, tmpl) = small_system();
    let reader = StepTypeId(8);
    let (tables, _) = Inference::new(&reg)
        .step(StepFootprint::new(
            writer,
            "writer",
            vec![TableFootprint::columns(T_ORDERS, [0])],
        ))
        .step(StepFootprint::new(reader, "reader", vec![]))
        .require_committed_reads(reader)
        .build();
    // The committed-reader blocks on the guard like an unanalyzed step...
    assert!(tables.read_interferes(reader, DIRTY));
    // ...but still never on a non-guard template.
    assert!(!tables.read_interferes(reader, tmpl));
    // Its peer without the requirement reads freely.
    assert!(!tables.read_interferes(writer, DIRTY));
}

#[test]
fn canned_oracles_are_total_on_arbitrary_ids() {
    // The canned endpoints of the oracle lattice must hold for ids far
    // outside any real analysis — they are used as harness stand-ins.
    for step in [StepTypeId(0), StepTypeId(12345), LEGACY_STEP] {
        for tmpl in [
            DIRTY,
            AssertionTemplateId(9999),
            AssertionTemplateId(u32::MAX),
        ] {
            assert!(!NoInterference.write_interferes(step, tmpl));
            assert!(!NoInterference.read_interferes(step, tmpl));
            assert!(TotalInterference.write_interferes(step, tmpl));
            assert!(TotalInterference.read_interferes(step, tmpl));
        }
    }
}
