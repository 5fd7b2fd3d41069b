//! Randomized property tests for the WAL codec (seeded, dependency-free):
//! arbitrary record sequences round-trip exactly, any truncation decodes to
//! an exact prefix, and a log reopened from a damaged image extends exactly
//! the prefix it salvaged.

use acc_common::{Decimal, SeededRng, TableId, TxnId, TxnTypeId, Value};
use acc_storage::Row;
use acc_wal::{codec, LogRecord, Lsn, Wal};

fn random_value(rng: &mut SeededRng) -> Value {
    match rng.index(5) {
        0 => Value::Null,
        1 => Value::Int(rng.int_range(i64::MIN, i64::MAX)),
        2 => Value::Str(rng.alnum_string(0, 24)),
        3 => Value::Decimal(Decimal::from_units(rng.int_range(i64::MIN, i64::MAX))),
        _ => Value::Bool(rng.chance(0.5)),
    }
}

fn random_row(rng: &mut SeededRng) -> Row {
    let n = rng.index(6);
    Row((0..n).map(|_| random_value(rng)).collect())
}

fn random_opt_row(rng: &mut SeededRng) -> Option<Row> {
    rng.chance(0.5).then(|| random_row(rng))
}

fn random_record(rng: &mut SeededRng) -> LogRecord {
    let txn = TxnId(rng.int_range(0, 999) as u64);
    match rng.index(6) {
        0 => LogRecord::Begin {
            txn,
            txn_type: TxnTypeId(rng.int_range(0, 9) as u32),
        },
        1 => LogRecord::Update {
            txn,
            table: TableId(rng.int_range(0, 8) as u32),
            slot: rng.int_range(0, 99) as u64,
            before: random_opt_row(rng),
            after: random_opt_row(rng),
        },
        2 => LogRecord::StepEnd {
            txn,
            step_index: rng.int_range(0, 29) as u32,
            work_area: (0..rng.index(40))
                .map(|_| rng.int_range(0, 255) as u8)
                .collect(),
        },
        3 => LogRecord::CompensationBegin {
            txn,
            from_step: rng.int_range(0, 29) as u32,
        },
        4 => LogRecord::Commit { txn },
        _ => LogRecord::Abort { txn },
    }
}

fn random_records(rng: &mut SeededRng, lo: usize, hi: usize) -> Vec<LogRecord> {
    let n = lo + rng.index(hi - lo + 1);
    (0..n).map(|_| random_record(rng)).collect()
}

#[test]
fn codec_round_trips() {
    let mut rng = SeededRng::new(0x0a1_5eed);
    for _case in 0..256 {
        let records = random_records(&mut rng, 0, 29);
        let mut wal = Wal::new();
        for r in &records {
            wal.append(r.clone());
        }
        let restored = Wal::from_bytes(&wal.to_bytes());
        assert_eq!(restored.records(), &records[..]);
    }
}

#[test]
fn any_truncation_yields_exact_prefix() {
    let mut rng = SeededRng::new(0x7a11);
    for _case in 0..256 {
        let records = random_records(&mut rng, 1, 11);
        let mut wal = Wal::new();
        for r in &records {
            wal.append(r.clone());
        }
        let bytes = wal.to_bytes();
        let cut = rng.index(bytes.len() + 1);
        let restored = Wal::from_bytes(&bytes[..cut]);
        assert!(restored.len() <= records.len());
        assert_eq!(restored.records(), &records[..restored.len()]);
    }
}

#[test]
fn truncation_plus_corruption_never_panics_and_keeps_prefix_order() {
    // The crash-torture model: a torn tail AND scribbled bytes on what
    // survives. Whatever `from_bytes` salvages must still be a prefix-ordered
    // subsequence of the originals — never garbage, never a panic.
    let mut rng = SeededRng::new(0x70c7);
    for _case in 0..256 {
        let records = random_records(&mut rng, 1, 11);
        let mut wal = Wal::new();
        for r in &records {
            wal.append(r.clone());
        }
        let mut bytes = wal.to_bytes();
        let cut = rng.index(bytes.len() + 1);
        bytes.truncate(cut);
        for _ in 0..rng.index(4) {
            if bytes.is_empty() {
                break;
            }
            let at = rng.index(bytes.len());
            bytes[at] ^= 1 << rng.index(8);
        }
        let restored = Wal::from_bytes(&bytes);
        assert!(restored.len() <= records.len());
        for (got, want) in restored.records().iter().zip(records.iter()) {
            assert_eq!(got, want);
        }
    }
}

#[test]
fn exhaustive_single_bit_flips_on_sample_image() {
    // Every bit of one representative image, flipped one at a time: decoding
    // must never panic and must always stop at or before the damaged frame.
    let mut rng = SeededRng::new(0xb17);
    let records = random_records(&mut rng, 6, 6);
    let mut wal = Wal::new();
    for r in &records {
        wal.append(r.clone());
    }
    let bytes = wal.to_bytes();
    for byte in 0..bytes.len() {
        for bit in 0..8 {
            let mut image = bytes.clone();
            image[byte] ^= 1u8 << bit;
            let restored = Wal::from_bytes(&image);
            assert!(restored.len() <= records.len(), "byte {byte} bit {bit}");
            for (got, want) in restored.records().iter().zip(records.iter()) {
                assert_eq!(got, want, "byte {byte} bit {bit}");
            }
        }
    }
}

#[test]
fn single_corrupt_byte_never_yields_garbage_records() {
    let mut rng = SeededRng::new(0xc0de);
    for _case in 0..256 {
        let records = random_records(&mut rng, 1, 7);
        let mut wal = Wal::new();
        for r in &records {
            wal.append(r.clone());
        }
        let mut bytes = wal.to_bytes();
        if bytes.is_empty() {
            continue;
        }
        let at = rng.index(bytes.len());
        bytes[at] ^= 0x5a;
        let restored = Wal::from_bytes(&bytes);
        // Decoding stops at (or before) the corrupted frame: every decoded
        // record must be one of the originals, in prefix order — with the
        // single exception of a flip inside a length header that happens to
        // frame a checksum-valid window, which FNV makes vanishingly
        // unlikely; we assert the prefix property outright.
        assert!(restored.len() <= records.len());
        for (got, want) in restored.records().iter().zip(records.iter()) {
            assert_eq!(got, want);
        }
    }
}

/// Bytes of a frame header: `[payload_len: u32 LE][checksum: u64 LE]`.
const FRAME_HEADER: usize = 12;

#[test]
fn append_after_reopen_extends_exactly_the_accepted_prefix() {
    // `from_bytes` keeps only the frames a reader accepts, so an append after
    // a reopen lands directly behind them — never behind a torn or corrupt
    // tail that would hide the new record from the next reader. Every cut
    // of each image is reopened as is and with one payload bit flipped.
    let mut rng = SeededRng::new(0x4e0b);
    for _case in 0..16 {
        let records = random_records(&mut rng, 1, 8);
        let mut wal = Wal::new();
        for r in &records {
            wal.append(r.clone());
        }
        let img = wal.to_bytes();
        let ends: Vec<usize> = codec::frame_ends(&img).collect();
        assert_eq!(ends.len(), records.len());
        let next = random_record(&mut rng);
        let mut alone = Wal::new();
        alone.append(next.clone());
        let frame = alone.to_bytes();

        // Reopen `image`, whose first `kept` frames are intact, and append.
        let check = |image: &[u8], kept: usize, what: &str| {
            let mut reopened = Wal::from_bytes(image);
            assert_eq!(reopened.append(next.clone()), Lsn(kept as u64), "{what}");
            let prefix = if kept == 0 { 0 } else { ends[kept - 1] };
            assert_eq!(
                reopened.to_bytes(),
                [&img[..prefix], &frame[..]].concat(),
                "{what}"
            );
            let mut want = records[..kept].to_vec();
            want.push(next.clone());
            assert_eq!(reopened.records(), want, "{what}");
            assert_eq!(reopened.len(), want.len(), "{what}");
        };

        for cut in 0..=img.len() {
            let whole = ends.iter().take_while(|&&end| end <= cut).count();
            check(&img[..cut], whole, &format!("cut {cut}"));
            // Flip one bit in the payload of a frame the cut kept some of:
            // the checksum refuses that frame and everything after it.
            let starts = std::iter::once(0).chain(ends.iter().copied());
            let payloads: Vec<(usize, usize)> = starts
                .zip(ends.iter().copied())
                .map(|(start, end)| (start + FRAME_HEADER, end.min(cut)))
                .take_while(|&(payload, end)| payload < end)
                .collect();
            if payloads.is_empty() {
                continue;
            }
            let k = rng.index(payloads.len());
            let (payload, end) = payloads[k];
            let at = payload + rng.index(end - payload);
            let mut image = img[..cut].to_vec();
            image[at] ^= 1 << rng.index(8);
            check(&image, whole.min(k), &format!("cut {cut}, flip at {at}"));
        }
    }
}
