//! Rebuilding TPC-C programs after a crash.
//!
//! Crash recovery (`acc-wal`) replays durable steps and reports the
//! transactions that were in flight with at least one completed step. The
//! paper's system "saves some of its work area in a database table for
//! compensation" (§5); ours travels with the end-of-step log record. This
//! module turns a recovered work area back into the right program;
//! `acc_txn::runner::resume_compensation` runs its compensating step.

use crate::decompose::ty;
use crate::txns::{Delivery, NewOrder, Payment};
use acc_common::{Decimal, Error, Result};
use acc_txn::TxnProgram;
use acc_wal::InFlight;

fn read_i64(bytes: &[u8], at: usize) -> Option<i64> {
    bytes
        .get(at..at + 8)
        .map(|c| i64::from_le_bytes(c.try_into().expect("8-byte slice")))
}

/// Rebuild the compensable program for a recovered in-flight transaction.
pub fn program_for_inflight(inflight: &InFlight) -> Result<Box<dyn TxnProgram + Send>> {
    let wa = &inflight.work_area;
    match inflight.txn_type {
        t if t == ty::NEW_ORDER => {
            let (w, d, o) = (read_i64(wa, 0), read_i64(wa, 8), read_i64(wa, 16));
            match (w, d, o) {
                (Some(w), Some(d), Some(o)) if o >= 0 => Ok(Box::new(NewOrder::recovered(w, d, o))),
                _ => Err(Error::Recovery(format!(
                    "unparseable new-order work area for {}",
                    inflight.txn
                ))),
            }
        }
        t if t == ty::PAYMENT => match (read_i64(wa, 0), read_i64(wa, 8), read_i64(wa, 16)) {
            (Some(w), Some(d), Some(amount)) => Ok(Box::new(Payment::recovered(
                w,
                d,
                Decimal::from_units(amount),
            ))),
            _ => Err(Error::Recovery(format!(
                "unparseable payment work area for {}",
                inflight.txn
            ))),
        },
        t if t == ty::DELIVERY => Delivery::recovered(wa)
            .map(|p| Box::new(p) as Box<dyn TxnProgram + Send>)
            .ok_or_else(|| {
                Error::Recovery(format!(
                    "unparseable delivery work area for {}",
                    inflight.txn
                ))
            }),
        other => Err(Error::Recovery(format!(
            "in-flight transaction {} has non-compensable type {other}",
            inflight.txn
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acc_common::TxnId;
    use acc_wal::InFlight;

    #[test]
    fn new_order_work_area_round_trip() {
        let p = NewOrder::recovered(1, 4, 77);
        let wa = p.work_area();
        let inf = InFlight {
            txn: TxnId(9),
            txn_type: ty::NEW_ORDER,
            steps_completed: 3,
            work_area: wa,
            compensating: false,
        };
        assert!(program_for_inflight(&inf).is_ok());
    }

    #[test]
    fn payment_work_area_round_trip() {
        let p = Payment::recovered(1, 2, Decimal::from_cents(555));
        let inf = InFlight {
            txn: TxnId(9),
            txn_type: ty::PAYMENT,
            steps_completed: 1,
            work_area: p.work_area(),
            compensating: false,
        };
        assert!(program_for_inflight(&inf).is_ok());
    }

    #[test]
    fn delivery_work_area_round_trip() {
        let p = Delivery::new(
            crate::input::DeliveryInput {
                w_id: 1,
                carrier_id: 3,
            },
            10,
        );
        let inf = InFlight {
            txn: TxnId(9),
            txn_type: ty::DELIVERY,
            steps_completed: 2,
            work_area: p.work_area(),
            compensating: false,
        };
        assert!(program_for_inflight(&inf).is_ok());
    }

    fn expect_recovery_err(txn_type: acc_common::TxnTypeId, work_area: Vec<u8>) {
        let inf = InFlight {
            txn: TxnId(9),
            txn_type,
            steps_completed: 1,
            work_area,
            compensating: false,
        };
        assert!(
            matches!(program_for_inflight(&inf), Err(Error::Recovery(_))),
            "work area {:?} must be rejected",
            inf.work_area
        );
    }

    fn i64s(vals: &[i64]) -> Vec<u8> {
        vals.iter().flat_map(|v| v.to_le_bytes()).collect()
    }

    #[test]
    fn short_work_areas_are_errors_not_panics() {
        // Every prefix length shorter than the fixed header of each program.
        for len in [0usize, 1, 7, 8, 15, 16, 23] {
            expect_recovery_err(ty::NEW_ORDER, vec![0xab; len]);
            expect_recovery_err(ty::PAYMENT, vec![0xab; len]);
        }
        for len in [0usize, 1, 7, 8, 15] {
            expect_recovery_err(ty::DELIVERY, vec![0xab; len]);
        }
    }

    #[test]
    fn new_order_negative_order_id_is_rejected() {
        expect_recovery_err(ty::NEW_ORDER, i64s(&[1, 1, -5]));
    }

    #[test]
    fn delivery_malformed_work_areas_are_errors_not_panics() {
        // Negative district count: previously sized a `vec![None; n as usize]`
        // allocation from attacker-controlled bytes.
        expect_recovery_err(ty::DELIVERY, i64s(&[1, -1]));
        // Absurd district count: ditto, as a near-usize::MAX allocation.
        expect_recovery_err(ty::DELIVERY, i64s(&[1, i64::MAX]));
        // Claim index outside the district range: previously an
        // out-of-bounds slice write.
        expect_recovery_err(ty::DELIVERY, i64s(&[1, 3, 99, 5, 5, 5, 5, 1]));
        expect_recovery_err(ty::DELIVERY, i64s(&[1, 3, -2, 5, 5, 5, 5, 1]));
        // Claim tuple cut mid-field (length not a multiple of 8).
        let mut torn = i64s(&[1, 3, 0, 5, 5, 5, 5, 1]);
        torn.truncate(torn.len() - 3);
        expect_recovery_err(ty::DELIVERY, torn);
        // Claim tuple missing trailing fields.
        expect_recovery_err(ty::DELIVERY, i64s(&[1, 3, 0, 5, 5]));
        // Garbage `applied` flag.
        expect_recovery_err(ty::DELIVERY, i64s(&[1, 3, 0, 5, 5, 5, 5, 7]));
        // Non-positive warehouse id.
        expect_recovery_err(ty::DELIVERY, i64s(&[0, 3]));
    }

    #[test]
    fn garbage_work_area_is_an_error() {
        let inf = InFlight {
            txn: TxnId(9),
            txn_type: ty::NEW_ORDER,
            steps_completed: 1,
            work_area: vec![1, 2, 3],
            compensating: false,
        };
        assert!(matches!(
            program_for_inflight(&inf),
            Err(Error::Recovery(_))
        ));
        let inf = InFlight {
            txn: TxnId(9),
            txn_type: ty::ORDER_STATUS,
            steps_completed: 1,
            work_area: vec![],
            compensating: false,
        };
        assert!(matches!(
            program_for_inflight(&inf),
            Err(Error::Recovery(_))
        ));
    }
}
