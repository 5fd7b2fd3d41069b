//! Binary encoding of log records.
//!
//! Framing: `[payload_len: u32 LE][checksum: u64 LE][payload]`, where the
//! checksum is FNV-1a over the payload. Decoding stops cleanly at the first
//! truncated or corrupt frame — exactly what a crash mid-`write(2)` leaves
//! behind.

use crate::buf::{PutExt, Reader};
use crate::record::LogRecord;
use acc_common::frame::{fnv1a, CHAIN_SEED};
use acc_common::{Slot, TableId, TxnId, TxnTypeId, Value};
use acc_storage::Row;

const TAG_BEGIN: u8 = 1;
const TAG_UPDATE: u8 = 2;
const TAG_STEP_END: u8 = 3;
const TAG_COMP_BEGIN: u8 = 4;
const TAG_COMMIT: u8 = 5;
const TAG_ABORT: u8 = 6;

const VAL_NULL: u8 = 0;
const VAL_INT: u8 = 1;
const VAL_STR: u8 = 2;
const VAL_DEC: u8 = 3;
const VAL_BOOL: u8 = 4;

/// Bytes of a frame header: `[payload_len: u32 LE][checksum: u64 LE]`.
const FRAME_HEADER: usize = 12;

/// Byte offsets just past each whole frame at the start of `bytes`: the
/// `k`-th item is the length of the prefix holding the first `k + 1` frames.
/// Only headers are walked (payload checksums are [`decode_all`]'s
/// business); the walk stops at the first torn header or payload, and a
/// length field pointing past the input ends it without overflow.
pub fn frame_ends(bytes: &[u8]) -> impl Iterator<Item = usize> + '_ {
    let mut off = 0usize;
    std::iter::from_fn(move || {
        let header = bytes.get(off..off.checked_add(FRAME_HEADER)?)?;
        let len = u32::from_le_bytes(header[..4].try_into().expect("4 bytes")) as usize;
        let end = (off + FRAME_HEADER).checked_add(len)?;
        if end > bytes.len() {
            return None;
        }
        off = end;
        Some(end)
    })
}

/// Append one framed record to `out`.
pub fn encode_record(rec: &LogRecord, out: &mut Vec<u8>) {
    let mut payload = Vec::new();
    encode_payload(rec, &mut payload);
    out.put_u32_le(payload.len() as u32);
    out.put_u64_le(fnv1a(CHAIN_SEED, &payload));
    out.extend_from_slice(&payload);
}

fn encode_payload(rec: &LogRecord, p: &mut Vec<u8>) {
    match rec {
        LogRecord::Begin { txn, txn_type } => {
            p.put_u8(TAG_BEGIN);
            p.put_u64_le(txn.raw());
            p.put_u32_le(txn_type.raw());
        }
        LogRecord::Update {
            txn,
            table,
            slot,
            before,
            after,
        } => {
            p.put_u8(TAG_UPDATE);
            p.put_u64_le(txn.raw());
            p.put_u32_le(table.raw());
            p.put_u64_le(*slot);
            encode_opt_row(before.as_ref(), p);
            encode_opt_row(after.as_ref(), p);
        }
        LogRecord::StepEnd {
            txn,
            step_index,
            work_area,
        } => {
            p.put_u8(TAG_STEP_END);
            p.put_u64_le(txn.raw());
            p.put_u32_le(*step_index);
            p.put_u32_le(work_area.len() as u32);
            p.extend_from_slice(work_area);
        }
        LogRecord::CompensationBegin { txn, from_step } => {
            p.put_u8(TAG_COMP_BEGIN);
            p.put_u64_le(txn.raw());
            p.put_u32_le(*from_step);
        }
        LogRecord::Commit { txn } => {
            p.put_u8(TAG_COMMIT);
            p.put_u64_le(txn.raw());
        }
        LogRecord::Abort { txn } => {
            p.put_u8(TAG_ABORT);
            p.put_u64_le(txn.raw());
        }
    }
}

fn encode_opt_row(row: Option<&Row>, p: &mut Vec<u8>) {
    match row {
        None => p.put_u8(0),
        Some(r) => {
            p.put_u8(1);
            p.put_u32_le(r.0.len() as u32);
            for v in &r.0 {
                encode_value(v, p);
            }
        }
    }
}

fn encode_value(v: &Value, p: &mut Vec<u8>) {
    match v {
        Value::Null => p.put_u8(VAL_NULL),
        Value::Int(n) => {
            p.put_u8(VAL_INT);
            p.put_i64_le(*n);
        }
        Value::Str(s) => {
            p.put_u8(VAL_STR);
            p.put_u32_le(s.len() as u32);
            p.extend_from_slice(s.as_bytes());
        }
        Value::Decimal(d) => {
            p.put_u8(VAL_DEC);
            p.put_i64_le(d.units());
        }
        Value::Bool(b) => {
            p.put_u8(VAL_BOOL);
            p.put_u8(*b as u8);
        }
    }
}

/// Decode every intact record from `data`, stopping silently at the first
/// truncated or corrupt frame.
pub fn decode_all(data: &[u8]) -> Vec<LogRecord> {
    let mut buf = Reader::new(data);
    let mut out = Vec::new();
    loop {
        if buf.remaining() < FRAME_HEADER {
            return out;
        }
        let len = buf.get_u32_le().expect("12-byte header") as usize;
        let checksum = buf.get_u64_le().expect("12-byte header");
        let Some(payload) = buf.take(len) else {
            return out;
        };
        if fnv1a(CHAIN_SEED, payload) != checksum {
            return out;
        }
        match decode_payload(&mut Reader::new(payload)) {
            Some(rec) => out.push(rec),
            None => return out,
        }
    }
}

fn decode_payload(p: &mut Reader<'_>) -> Option<LogRecord> {
    let tag = p.get_u8()?;
    match tag {
        TAG_BEGIN => {
            let txn = TxnId(get_u64(p)?);
            let txn_type = TxnTypeId(get_u32(p)?);
            Some(LogRecord::Begin { txn, txn_type })
        }
        TAG_UPDATE => {
            let txn = TxnId(get_u64(p)?);
            let table = TableId(get_u32(p)?);
            let slot: Slot = get_u64(p)?;
            let before = decode_opt_row(p)?;
            let after = decode_opt_row(p)?;
            Some(LogRecord::Update {
                txn,
                table,
                slot,
                before,
                after,
            })
        }
        TAG_STEP_END => {
            let txn = TxnId(get_u64(p)?);
            let step_index = get_u32(p)?;
            let n = get_u32(p)? as usize;
            let work_area = p.take(n)?.to_vec();
            Some(LogRecord::StepEnd {
                txn,
                step_index,
                work_area,
            })
        }
        TAG_COMP_BEGIN => {
            let txn = TxnId(get_u64(p)?);
            let from_step = get_u32(p)?;
            Some(LogRecord::CompensationBegin { txn, from_step })
        }
        TAG_COMMIT => Some(LogRecord::Commit {
            txn: TxnId(get_u64(p)?),
        }),
        TAG_ABORT => Some(LogRecord::Abort {
            txn: TxnId(get_u64(p)?),
        }),
        _ => None,
    }
}

fn decode_opt_row(p: &mut Reader<'_>) -> Option<Option<Row>> {
    match p.get_u8()? {
        0 => Some(None),
        1 => {
            let n = get_u32(p)? as usize;
            // The count is attacker-controlled when decoding a corrupt image;
            // every value takes at least one byte, so cap the pre-allocation
            // by what the buffer could possibly hold.
            let mut vals = Vec::with_capacity(n.min(p.remaining()));
            for _ in 0..n {
                vals.push(decode_value(p)?);
            }
            Some(Some(Row(vals)))
        }
        _ => None,
    }
}

fn decode_value(p: &mut Reader<'_>) -> Option<Value> {
    match p.get_u8()? {
        VAL_NULL => Some(Value::Null),
        VAL_INT => Some(Value::Int(get_u64(p)? as i64)),
        VAL_STR => {
            let n = get_u32(p)? as usize;
            let bytes = p.take(n)?;
            String::from_utf8(bytes.to_vec()).ok().map(Value::Str)
        }
        VAL_DEC => Some(Value::Decimal(acc_common::Decimal::from_units(
            get_u64(p)? as i64
        ))),
        VAL_BOOL => Some(Value::Bool(p.get_u8()? != 0)),
        _ => None,
    }
}

fn get_u32(p: &mut Reader<'_>) -> Option<u32> {
    p.get_u32_le()
}

fn get_u64(p: &mut Reader<'_>) -> Option<u64> {
    p.get_u64_le()
}

#[cfg(test)]
mod tests {
    use super::*;
    use acc_common::Decimal;

    fn sample_records() -> Vec<LogRecord> {
        vec![
            LogRecord::Begin {
                txn: TxnId(1),
                txn_type: TxnTypeId(2),
            },
            LogRecord::Update {
                txn: TxnId(1),
                table: TableId(3),
                slot: 17,
                before: None,
                after: Some(Row(vec![
                    Value::Int(-5),
                    Value::str("hello"),
                    Value::Decimal(Decimal::from_cents(1234)),
                    Value::Bool(true),
                    Value::Null,
                ])),
            },
            LogRecord::StepEnd {
                txn: TxnId(1),
                step_index: 0,
                work_area: vec![9, 8, 7],
            },
            LogRecord::Update {
                txn: TxnId(1),
                table: TableId(3),
                slot: 17,
                before: Some(Row(vec![Value::Int(1)])),
                after: None,
            },
            LogRecord::CompensationBegin {
                txn: TxnId(1),
                from_step: 1,
            },
            LogRecord::Abort { txn: TxnId(1) },
            LogRecord::Commit { txn: TxnId(2) },
        ]
    }

    #[test]
    fn round_trip() {
        let recs = sample_records();
        let mut buf = Vec::new();
        for r in &recs {
            encode_record(r, &mut buf);
        }
        let decoded = decode_all(&buf);
        assert_eq!(decoded, recs);
    }

    #[test]
    fn truncation_at_every_byte_is_clean() {
        let recs = sample_records();
        let mut buf = Vec::new();
        for r in &recs {
            encode_record(r, &mut buf);
        }
        let full = buf.clone();
        for cut in 0..full.len() {
            let decoded = decode_all(&full[..cut]);
            // Decoded records are always an exact prefix of the originals.
            assert!(decoded.len() <= recs.len());
            assert_eq!(decoded[..], recs[..decoded.len()]);
        }
    }

    #[test]
    fn corruption_detected_by_checksum() {
        let recs = sample_records();
        let mut buf = Vec::new();
        for r in &recs {
            encode_record(r, &mut buf);
        }
        let mut bytes = buf;
        // Flip a byte inside the second record's payload.
        let first_len = frame_ends(&bytes).next().expect("one whole frame");
        bytes[first_len + 20] ^= 0xff;
        let decoded = decode_all(&bytes);
        assert_eq!(decoded.len(), 1, "decoding stops at the corrupt frame");
        assert_eq!(decoded[0], recs[0]);
    }

    #[test]
    fn empty_input() {
        assert!(decode_all(&[]).is_empty());
        assert!(decode_all(&[1, 2, 3]).is_empty());
    }

    #[test]
    fn frame_walker_stops_at_the_first_partial_frame() {
        let recs = sample_records();
        let mut buf = Vec::new();
        let mut want = Vec::new();
        for r in &recs {
            encode_record(r, &mut buf);
            want.push(buf.len());
        }
        let ends = |b: &[u8]| frame_ends(b).collect::<Vec<_>>();
        // Empty input, and input ending exactly on the last frame.
        assert!(ends(&[]).is_empty());
        assert_eq!(ends(&buf), want);
        // A torn header and a torn payload both stop before the frame.
        let (first, second) = (want[0], want[1]);
        assert_eq!(ends(&buf[..first + FRAME_HEADER - 1]), [first]);
        assert_eq!(ends(&buf[..second - 1]), [first]);
        // A length field claiming more bytes than exist (up to u32::MAX)
        // ends the walk instead of overflowing or reading past the input.
        let mut lying = buf[..first].to_vec();
        lying.extend_from_slice(&u32::MAX.to_le_bytes());
        lying.extend_from_slice(&[0; 8 + 16]);
        assert_eq!(ends(&lying), [first]);
    }
}
