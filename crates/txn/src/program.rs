//! Transaction programs: step-decomposed application code, and the one
//! codec their work areas travel in.

use crate::step::StepCtx;
use acc_common::{Result, TxnTypeId};

/// What a forward step reports when it returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// The step finished; more steps follow.
    Continue,
    /// The step finished and it was the last one: commit.
    Done,
    /// The program aborts itself (e.g. TPC-C's mandated 1 % new-order
    /// aborts): the runtime undoes the current step physically and then
    /// compensates any completed steps.
    Abort,
}

/// A transaction decomposed into steps at design time.
///
/// # Re-execution
///
/// A step may be executed more than once: if it is chosen as a deadlock
/// victim its database effects are undone and the step is retried. Programs
/// must therefore keep their in-memory bookkeeping idempotent per step —
/// either reset it at the top of the step or write results keyed by step
/// index.
pub trait TxnProgram {
    /// The analyzed transaction type (indexes the decomposition tables).
    fn txn_type(&self) -> TxnTypeId;

    /// Execute step `step_index` (0-based). Steps run strictly in order; the
    /// number of steps may be input-dependent (the runtime just keeps calling
    /// until [`StepOutcome::Done`] or [`StepOutcome::Abort`]).
    fn step(&mut self, step_index: u32, ctx: &mut StepCtx<'_>) -> Result<StepOutcome>;

    /// Semantically undo forward steps `0..steps_completed` in one
    /// compensating step (§3.4: for each prefix, `{I} S_1;…;S_j; CS_j {I ∧ Q}`
    /// must hold). Only called when the program ran decomposed and at least
    /// one step had completed.
    ///
    /// The default panics: programs whose transaction type is decomposed into
    /// more than one step *must* implement compensation.
    fn compensate(&mut self, steps_completed: u32, _ctx: &mut StepCtx<'_>) -> Result<()> {
        panic!(
            "transaction type {:?} has {steps_completed} completed steps but no compensating step",
            self.txn_type()
        );
    }

    /// The work area saved with every end-of-step record; recovery hands it
    /// back so compensation can resume after a crash. Compensable programs
    /// encode it with [`encode_work_area`].
    fn work_area(&self) -> Vec<u8> {
        Vec::new()
    }
}

/// Encode a work area: `fields` as consecutive little-endian `i64`s.
pub fn encode_work_area(fields: &[i64]) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(8 * fields.len());
    for f in fields {
        bytes.extend_from_slice(&f.to_le_bytes());
    }
    bytes
}

/// Decode a work area written by [`encode_work_area`]. `None` when its
/// length is not a whole number of fields; the caller checks the count.
pub fn decode_work_area(bytes: &[u8]) -> Option<Vec<i64>> {
    if !bytes.len().is_multiple_of(8) {
        return None;
    }
    Some(
        bytes
            .chunks_exact(8)
            .map(|c| i64::from_le_bytes(c.try_into().expect("8-byte chunk")))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    struct OneShot;

    impl TxnProgram for OneShot {
        fn txn_type(&self) -> TxnTypeId {
            TxnTypeId(0)
        }
        fn step(&mut self, _i: u32, _ctx: &mut StepCtx<'_>) -> Result<StepOutcome> {
            Ok(StepOutcome::Done)
        }
    }

    #[test]
    fn defaults() {
        let p = OneShot;
        assert!(p.work_area().is_empty());
        assert_eq!(p.txn_type(), TxnTypeId(0));
    }

    #[test]
    fn work_area_codec_round_trips_and_refuses_partial_fields() {
        let fields = [0, -1, i64::MIN, i64::MAX, 42];
        let bytes = encode_work_area(&fields);
        assert_eq!(bytes.len(), 40);
        assert_eq!(bytes[8..16], [0xff; 8]);
        assert_eq!(decode_work_area(&bytes), Some(fields.to_vec()));
        assert_eq!(decode_work_area(&[]), Some(Vec::new()));
        for len in [1, 7, 9, 39] {
            assert_eq!(decode_work_area(&bytes[..len]), None, "length {len}");
        }
    }
}
