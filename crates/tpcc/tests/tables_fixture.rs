//! The TPC-C interference tables, pinned cell for cell.
//!
//! Every table `TpccSystem` derives — the one-level tables of the base
//! system and of each re-analysis edit, and the §3.2 two-level tables — is
//! compared, as `matrix_json`, with a fixture frozen from the hand analysis
//! these derivations replaced. The JSON carries the write matrix, the guard
//! flags that (with the committed-reader flag) fix the read matrix, and each
//! step's version-read eligibility; out-of-range template ids answer
//! conservatively by construction. So a footprint or declaration change that
//! moves any run-time decision fails here.
//!
//! The declared cells are pinned too: inference refuses a declaration the
//! footprints already prove, so the declared set is exactly the inference
//! gap, and dropping any declaration flips a fixture cell.

use acc_common::{AssertionTemplateId, StepTypeId};
use acc_core::{matrix_json, Decision, DIRTY};
use acc_tpcc::decompose::{step, TableEdit, TpccSystem};

const BASE: &str = include_str!("fixtures/base.json");

fn one_level(sys: &TpccSystem) -> String {
    matrix_json(&sys.tables, &sys.registry, &sys.decisions)
}

fn declared(decisions: &[Decision]) -> Vec<(StepTypeId, AssertionTemplateId)> {
    let mut cells: Vec<_> = decisions
        .iter()
        .filter(|d| d.why.starts_with("declared safe: "))
        .map(|d| (d.step, d.template))
        .collect();
    cells.sort();
    cells
}

#[test]
fn one_level_tables_match_their_fixtures() {
    assert_eq!(one_level(&TpccSystem::build()), BASE);
    assert_eq!(
        one_level(&TpccSystem::reanalyze(TableEdit::AddAudit)),
        include_str!("fixtures/add_audit.json")
    );
    assert_eq!(
        one_level(&TpccSystem::reanalyze(TableEdit::WidenNoLoop)),
        include_str!("fixtures/widen_no_loop.json")
    );
    // Removing the audit is the base matrix again.
    assert_eq!(
        one_level(&TpccSystem::reanalyze(TableEdit::RemoveAudit)),
        BASE
    );
}

#[test]
fn two_level_tables_match_their_fixture() {
    let sys = TpccSystem::build();
    assert_eq!(
        matrix_json(
            &sys.two_level_tables,
            &sys.registry,
            &sys.two_level_decisions
        ),
        include_str!("fixtures/two_level.json")
    );
}

#[test]
fn one_level_declarations_are_delivery_claim_arguments() {
    use step::*;
    let sys = TpccSystem::build();
    let t = sys.templates;
    let mut want = vec![
        // "Claims are atomic, hence distinct" and "applies only to orders it
        // claimed" are temporal arguments about the claim step.
        (DLV_S1, t.dlv_loop),
        (DLV_S1, t.dlv_dirty),
        (DLV_S2, t.dlv_loop),
        (DLV_CS, t.dlv_loop),
        // "A brand-new NEW-ORDER row belongs to an unprocessed order" /
        // "compensated orders were never claimable": dlv_loop's backlog read
        // depends on row existence, which fresh/own inserts still change.
        (NO_S1, t.dlv_loop),
        (NO_CS, t.dlv_loop),
    ];
    want.sort();
    for sys in [
        sys,
        TpccSystem::reanalyze(TableEdit::AddAudit),
        TpccSystem::reanalyze(TableEdit::WidenNoLoop),
    ] {
        assert_eq!(declared(&sys.decisions), want);
    }
}

#[test]
fn two_level_declarations_are_global_arguments() {
    use step::*;
    let sys = TpccSystem::build();
    let pay_mid = sys.templates.pay_mid;
    let mut want = vec![
        (PAY_S1, pay_mid),
        (PAY_CS, pay_mid),
        (NO_S1, DIRTY),
        (NO_S2, DIRTY),
        (PAY_S1, DIRTY),
        (PAY_S2, DIRTY),
        (NO_CS, DIRTY),
        (PAY_CS, DIRTY),
    ];
    want.sort();
    assert_eq!(declared(&sys.two_level_decisions), want);
}

#[test]
fn section_5_1_resolution_is_proved_not_declared() {
    // The paper's headline example needs no declarations: the district
    // counter bump is a delta, payment's YTD assertion tolerates deltas, and
    // the footprints are column-disjoint. The whole payment/new-order mix is
    // admitted against DIRTY mechanically too.
    let sys = TpccSystem::build();
    let t = sys.templates;
    let mut cells = vec![(step::NO_S1, t.pay_mid), (step::PAY_S1, t.no_loop)];
    for s in [step::NO_S1, step::NO_S2, step::PAY_S1, step::PAY_S2] {
        cells.push((s, DIRTY));
    }
    for (s, tpl) in cells {
        let d = sys
            .decisions
            .iter()
            .find(|d| d.step == s && d.template == tpl)
            .expect("every cell has a decision");
        assert!(!d.interferes, "{d:?}");
        assert!(!d.why.starts_with("declared"), "{d:?}");
    }
}
