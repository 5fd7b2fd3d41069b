//! The two bring-your-own-workload families' matrix shape as the inference
//! derives it. (Their crash sweeps run in `acc-bench`'s torture tests, their
//! closed-loop burns in `acc-server`'s `closed_loop` tests.)
//!
//! Nothing here consults a hand-written interference table — the matrices
//! under test are exactly what [`acc_core::Inference`] produced from the
//! declared footprints, installed through the live registry.

use acc_core::{InterferenceTables, DIRTY};
use acc_lockmgr::InterferenceOracle;
use acc_workloads::{saga, smallbank};

// ---------------------------------------------------------------------------
// Matrix shape: the inference must prove exactly the cells the footprint
// arguments support, and nothing more.
// ---------------------------------------------------------------------------

#[test]
fn smallbank_inferred_matrix_shape() {
    use smallbank::step::*;
    let kit = smallbank::SmallbankKit::build(10);
    let t: &InterferenceTables = &kit.tables;
    let all = [
        BAL, DEP, TRS, WRC, SP_S1, SP_S2, AMG_S1, AMG_S2, OPEN, SP_CS, AMG_CS,
    ];

    // Balance-conservation template: every delta-writing step is proved
    // tolerable; the fresh-row OPEN step is the one conservative cell — its
    // inserts land in tables the template reads with row cardinality, and
    // "fresh keys" says nothing about a COUNT-style predicate.
    for s in all {
        let expect = s == OPEN;
        assert_eq!(
            t.write_interferes(s, kit.conserve),
            expect,
            "conserve cell for step {s:?}"
        );
    }

    // DIRTY: every step is analyzed (writes either commute or are confined
    // to fresh/own regions), so none needs the legacy read fence.
    for s in all {
        assert!(!t.write_interferes(s, DIRTY), "dirty cell for step {s:?}");
        assert!(t.is_analyzed(s), "step {s:?} analyzed");
    }

    // The read-only balance inquiry runs on committed data.
    assert!(t.is_committed_reader(BAL));
    assert!(t.read_interferes(BAL, DIRTY));
    // Version-read eligibility at the oracle level means "write row
    // all-clear" (the per-transaction `version_safe` flag is the second
    // half of the gate); only OPEN carries an interfering write here.
    for s in all {
        assert_eq!(
            t.version_read_safe(s),
            s != OPEN,
            "version reads for step {s:?}"
        );
    }
}

#[test]
fn saga_inferred_matrix_shape() {
    use saga::step::*;
    let kit = saga::SagaKit::build(6, 4);
    let t: &InterferenceTables = &kit.tables;
    let all = [FUL_S1, FUL_RES, FUL_PAY, FUL_SHIP, RESTOCK, STATUS, FUL_CS];

    // res-mid reads LEDGER.capacity *without* delta tolerance, so the two
    // capacity-writing steps are conservatively blocked; everything else is
    // proved out (tolerated deltas, own-region rows, fresh inserts into
    // row-sets the template scopes to the instance's own key space).
    for s in all {
        let expect = s == FUL_SHIP || s == RESTOCK;
        assert_eq!(
            t.write_interferes(s, kit.res_mid),
            expect,
            "res-mid cell for step {s:?}"
        );
    }
    for s in all {
        assert!(!t.write_interferes(s, DIRTY), "dirty cell for step {s:?}");
        assert!(t.is_analyzed(s), "step {s:?} analyzed");
    }
    assert!(t.is_committed_reader(STATUS));
    // Oracle-level version-read eligibility tracks the all-clear write row:
    // the two conservative capacity writers are the only exclusions.
    for s in all {
        assert_eq!(
            t.version_read_safe(s),
            s != FUL_SHIP && s != RESTOCK,
            "version reads for step {s:?}"
        );
    }
}

#[test]
fn inference_decisions_cover_every_declared_step() {
    let sb = smallbank::SmallbankKit::build(6);
    assert!(!sb.decisions.is_empty());
    let sg = saga::SagaKit::build(4, 3);
    assert!(!sg.decisions.is_empty());
}
