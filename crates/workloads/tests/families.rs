//! The two bring-your-own-workload families' matrix shape as the inference
//! derives it, and the work areas their recovery rebuilds programs from.
//! (Their crash sweeps run in `acc-bench`'s torture tests, their
//! closed-loop burns in `acc-server`'s `closed_loop` tests.)
//!
//! Nothing here consults a hand-written interference table — the matrices
//! under test are exactly what [`acc_core::Inference`] produced from the
//! declared footprints, installed through the live registry.

use acc_common::{Error, TxnId, TxnTypeId};
use acc_core::{InterferenceTables, DIRTY};
use acc_engine::Workload;
use acc_lockmgr::InterferenceOracle;
use acc_txn::encode_work_area;
use acc_wal::InFlight;
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

// ---------------------------------------------------------------------------
// Work areas: a logged work area rebuilds the program that wrote it, and
// anything else is refused with `Error::Recovery`, never a panic.
// ---------------------------------------------------------------------------

fn inflight(txn_type: TxnTypeId, work_area: Vec<u8>) -> InFlight {
    InFlight {
        txn: TxnId(9),
        txn_type,
        steps_completed: 1,
        work_area,
        compensating: false,
    }
}

/// The rebuilt program has the logged type and writes back the same bytes.
fn assert_round_trip(family: &dyn Workload, txn_type: TxnTypeId, work_area: Vec<u8>) {
    let p = family
        .program_for_inflight(&inflight(txn_type, work_area.clone()))
        .unwrap_or_else(|e| panic!("{} refused {work_area:?}: {e}", family.name()));
    assert_eq!(p.txn_type(), txn_type);
    assert_eq!(p.work_area(), work_area);
}

fn assert_refused(family: &dyn Workload, txn_type: TxnTypeId, work_area: Vec<u8>) {
    let rebuilt = family.program_for_inflight(&inflight(txn_type, work_area.clone()));
    assert!(
        matches!(rebuilt, Err(Error::Recovery(_))),
        "{} accepted type {txn_type} work area {work_area:?}",
        family.name()
    );
}

/// Every truncated prefix of a valid work area, a trailing partial field,
/// and trailing whole fields are all refused.
fn assert_malformed_refused(family: &dyn Workload, txn_type: TxnTypeId, valid: &[u8]) {
    for len in 0..valid.len() {
        assert_refused(family, txn_type, valid[..len].to_vec());
    }
    for extra in [
        vec![0; 1],
        vec![0xff; 7],
        encode_work_area(&[0]),
        encode_work_area(&[1, 1]),
    ] {
        assert_refused(family, txn_type, [valid, &extra].concat());
    }
}

const SEND_PAYMENT_WA: [i64; 3] = [3, 5, 40];
const AMALGAMATE_WA: [i64; 4] = [2, 7, 100, 35];
const FULFILS: [TxnTypeId; 4] = [
    saga::ty::FULFIL_1,
    saga::ty::FULFIL_2,
    saga::ty::FULFIL_3,
    saga::ty::FULFIL_4,
];

/// A fulfilment work area: order 11 for customer 3, `n_legs` legs.
fn fulfil(n_legs: i64) -> Vec<u8> {
    let mut fields = vec![11, 3, n_legs];
    fields.extend((1..=n_legs).flat_map(|leg| [leg, 2 * leg]));
    encode_work_area(&fields)
}

#[test]
fn smallbank_work_areas_round_trip() {
    let kit = smallbank::SmallbankKit::build(10);
    let sp = smallbank::ty::SEND_PAYMENT;
    assert_round_trip(&kit, sp, encode_work_area(&SEND_PAYMENT_WA));
    assert_round_trip(&kit, sp, encode_work_area(&[1, 2, 0]));
    assert_round_trip(
        &kit,
        smallbank::ty::AMALGAMATE,
        encode_work_area(&AMALGAMATE_WA),
    );
}

#[test]
fn saga_work_areas_round_trip() {
    let kit = saga::SagaKit::build(6, 4);
    for (n_legs, t) in (1..=4).zip(FULFILS) {
        assert_round_trip(&kit, t, fulfil(n_legs));
    }
}

#[test]
fn malformed_smallbank_work_areas_are_refused() {
    use smallbank::ty::*;
    let kit = smallbank::SmallbankKit::build(10);
    assert_malformed_refused(&kit, SEND_PAYMENT, &encode_work_area(&SEND_PAYMENT_WA));
    assert_malformed_refused(&kit, AMALGAMATE, &encode_work_area(&AMALGAMATE_WA));
    assert_refused(&kit, SEND_PAYMENT, encode_work_area(&[3, 5, -40]));
    for t in [
        BALANCE,
        DEPOSIT,
        TRANSACT_SAVINGS,
        WRITE_CHECK,
        OPEN_ACCOUNT,
    ] {
        assert_refused(&kit, t, encode_work_area(&SEND_PAYMENT_WA));
    }
}

#[test]
fn malformed_saga_work_areas_are_refused() {
    let kit = saga::SagaKit::build(6, 4);
    for (n_legs, t) in (1..=4).zip(FULFILS) {
        assert_malformed_refused(&kit, t, &fulfil(n_legs));
    }
    // A negative quantity on any leg, and an unallocated order id.
    assert_refused(&kit, FULFILS[1], encode_work_area(&[11, 3, 2, 1, 2, 2, -4]));
    assert_refused(&kit, FULFILS[0], encode_work_area(&[0, 3, 1, 1, 2]));
    // Leg counts outside 1..=4, each with that many legs.
    for n_legs in [-1, 0, 5] {
        let mut fields = vec![11, 3, n_legs];
        fields.extend((1..=n_legs).flat_map(|leg| [leg, 2]));
        for t in FULFILS {
            assert_refused(&kit, t, encode_work_area(&fields));
        }
    }
    // A leg count the logged type disagrees with.
    assert_refused(&kit, FULFILS[2], fulfil(2));
    for t in [saga::ty::RESTOCK, saga::ty::STATUS] {
        assert_refused(&kit, t, fulfil(1));
    }
}
