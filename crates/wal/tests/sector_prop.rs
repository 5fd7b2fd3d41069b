//! Property tests for the sector-aligned frame format: arbitrary record
//! sequences survive encode → seal → tear-at-any-sector → open → decode with
//! zero silent loss — every record is either fully recovered or provably past
//! the salvage point, never invented and never reordered.
//!
//! Also holds the regression test for the ROADMAP torn-page bug: a frame
//! split across a sector boundary whose tear leaves bytes the *record codec
//! alone* happily accepts (a stale, internally-consistent frame at the right
//! offset). Only the chained sector checksums reject it.

use acc_common::{Decimal, SeededRng, TableId, TxnId, TxnTypeId, Value};
use acc_storage::Row;
use acc_wal::{codec, sector, LogRecord};

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

fn encode(records: &[LogRecord]) -> Vec<u8> {
    let mut stream = Vec::new();
    for r in records {
        codec::encode_record(r, &mut stream);
    }
    stream
}

#[test]
fn records_survive_any_single_sector_tear_with_zero_silent_loss() {
    let mut rng = SeededRng::new(0x05ec_70a1);
    for _case in 0..48 {
        let n = 2 + rng.index(28);
        let records: Vec<LogRecord> = (0..n).map(|_| random_record(&mut rng)).collect();
        let stream = encode(&records);
        let image = sector::seal(&stream);
        let n_sectors = image.len() / sector::SECTOR_SIZE;
        let ends: Vec<usize> = codec::frame_ends(&stream).collect();

        // Tear EVERY sector in turn, not a sample: the property must hold at
        // any offset.
        for k in 0..n_sectors {
            let mut torn = image.clone();
            for b in &mut torn[k * sector::SECTOR_SIZE..(k + 1) * sector::SECTOR_SIZE] {
                *b ^= 0x5a;
            }
            let opened = sector::open(&torn);
            assert!(opened.torn, "tear at sector {k} silently absorbed");
            // The salvaged stream is the exact byte prefix preceding the
            // torn sector — chained checksums admit nothing past it.
            let want = (k * sector::CAPACITY).min(stream.len());
            assert_eq!(opened.stream.len(), want, "sector {k}");
            assert_eq!(opened.stream, stream[..want], "sector {k}");
            // Zero silent loss at the record level: decoding the salvage
            // yields an exact prefix of the original records; every record
            // not recovered provably extends past the salvage point.
            let decoded = codec::decode_all(&opened.stream);
            assert!(decoded.len() <= records.len());
            assert_eq!(decoded[..], records[..decoded.len()], "sector {k}");
            let frames_within = ends.iter().filter(|&&e| e <= want).count();
            assert_eq!(
                decoded.len(),
                frames_within,
                "sector {k}: lost a record that was fully inside the salvage"
            );
        }
    }
}

#[test]
fn multi_sector_tears_still_salvage_an_exact_prefix() {
    let mut rng = SeededRng::new(0x05ec_70a2);
    for _case in 0..32 {
        let n = 4 + rng.index(26);
        let records: Vec<LogRecord> = (0..n).map(|_| random_record(&mut rng)).collect();
        let stream = encode(&records);
        let image = sector::seal(&stream);
        let n_sectors = image.len() / sector::SECTOR_SIZE;
        // Tear a random set of sectors (1..=3 of them). Overwrite rather
        // than XOR so picking the same sector twice stays torn.
        let mut torn = image.clone();
        let mut first = usize::MAX;
        for _ in 0..1 + rng.index(3) {
            let k = rng.index(n_sectors);
            first = first.min(k);
            for b in &mut torn[k * sector::SECTOR_SIZE..(k + 1) * sector::SECTOR_SIZE] {
                *b = 0xA5;
            }
        }
        let opened = sector::open(&torn);
        let want = (first * sector::CAPACITY).min(stream.len());
        assert_eq!(opened.stream, stream[..want]);
        let decoded = codec::decode_all(&opened.stream);
        assert_eq!(decoded[..], records[..decoded.len()]);
    }
}

/// The ROADMAP torn-page bug, reproduced and closed.
///
/// The log's tail sector is rewritten in place on every append (the normal
/// pattern for a partial sector). Model a torn multi-sector write: the disk
/// persisted the *old* version of the rewritten tail sector but the *new*
/// sector after it. A length-header-only reader sees `new[..a] ++ old[a..b]
/// ++ new[c..]`, and because the stale region ends exactly where a frame of
/// the old log ended — while a frame of the new log happens to start at the
/// next sector's payload boundary — it resynchronises and returns a record
/// sequence that was never contiguous on any durable log. The frame spanning
/// the stale/new boundary is silently skipped, not detected.
#[test]
fn torn_page_splitting_a_frame_is_caught_by_page_checksums_not_length_headers() {
    // Records whose encoded size we control exactly: a StepEnd frame is
    // 12-byte frame header + 17-byte fixed payload + work_area.
    let pad_to = |target: usize, txn: u64| -> LogRecord {
        let body = 12 + 1 + 8 + 4 + 4;
        assert!(target > body);
        LogRecord::StepEnd {
            txn: TxnId(txn),
            step_index: 0,
            work_area: vec![0xEE; target - body],
        }
    };
    let cap = sector::CAPACITY;
    // Old log: frame 1 fills most of sector 0; frame 2 spans the 0/1
    // boundary and ends 80 bytes into sector 1 (the partial tail).
    let old_records = vec![pad_to(cap - 40, 1), pad_to(120, 2)];
    let old_stream = encode(&old_records);
    assert_eq!(old_stream.len(), cap + 80);

    // New log: two more records. Frame 3 pads the stream to exactly 2*cap,
    // so frame 4 begins precisely at sector 2's payload boundary — the
    // alignment that lets a naive reader resynchronise past the tear.
    let mut new_records = old_records.clone();
    new_records.push(pad_to(2 * cap - old_stream.len(), 3));
    new_records.push(pad_to(100, 4));
    let new_stream = encode(&new_records);
    assert_eq!(new_stream.len(), 2 * cap + 100);

    let old_image = sector::seal(&old_stream);
    let new_image = sector::seal(&new_stream);
    assert_eq!(new_image.len(), 3 * sector::SECTOR_SIZE);

    // The torn write: sector 1 reverted to its stale (old-tail) version,
    // sector 2 persisted the new version.
    let mut torn = new_image.clone();
    torn[sector::SECTOR_SIZE..2 * sector::SECTOR_SIZE]
        .copy_from_slice(&old_image[sector::SECTOR_SIZE..2 * sector::SECTOR_SIZE]);

    // First, pin the bug a length-header-only reader has: strip the sector
    // headers trusting only the `len` fields (no chain verification) and
    // hand the bytes to the record codec.
    let naive_stream: Vec<u8> = torn
        .chunks(sector::SECTOR_SIZE)
        .flat_map(|s| {
            let len = u16::from_le_bytes(s[12..14].try_into().unwrap()) as usize;
            s[sector::HEADER..sector::HEADER + len.min(cap)].to_vec()
        })
        .collect();
    let naive = codec::decode_all(&naive_stream);
    // The splice decodes "cleanly": frames 1 and 2 (its tail from the stale
    // sector), then frame 4 — with frame 3 silently skipped. Every frame
    // checksum passes, yet this sequence never existed on any durable log.
    assert_eq!(
        naive.len(),
        3,
        "the naive scan resynchronised past the tear"
    );
    assert_eq!(naive[..2], new_records[..2]);
    assert_eq!(naive[2], new_records[3], "phantom: frame 4 without frame 3");
    assert_ne!(naive[..], new_records[..]);

    // The fix: chained page checksums. The stale sector 1 is a *valid old
    // tail* (its own chain verifies), so salvage keeps it — but it is a
    // partial sector, so everything after it is refused as torn trailing
    // bytes. The result is exactly the old durable log: a state that really
    // existed, with the tear reported instead of absorbed.
    let opened = sector::open(&torn);
    assert!(opened.torn, "the tear must be reported, not absorbed");
    assert_eq!(opened.sectors, 2);
    assert_eq!(opened.stream, old_stream);
    let decoded = codec::decode_all(&opened.stream);
    assert_eq!(decoded[..], new_records[..2]);
    assert_eq!(decoded[..], old_records[..]);
}

#[test]
fn reordered_flush_never_exposes_a_suffix_without_its_prefix() {
    // A controller that persists sector k+1 but loses sector k (write
    // reordering on power loss). The chain must refuse everything from k on.
    let mut rng = SeededRng::new(0x05ec_70a3);
    let records: Vec<LogRecord> = (0..60).map(|_| random_record(&mut rng)).collect();
    let stream = encode(&records);
    let image = sector::seal(&stream);
    let n_sectors = image.len() / sector::SECTOR_SIZE;
    assert!(n_sectors >= 3, "need at least 3 sectors for this scenario");
    let k = n_sectors / 2;
    let mut torn = image;
    // Sector k reverts to all zeroes (never written); k+1 onward intact.
    for b in &mut torn[k * sector::SECTOR_SIZE..(k + 1) * sector::SECTOR_SIZE] {
        *b = 0;
    }
    let opened = sector::open(&torn);
    assert_eq!(opened.stream, stream[..k * sector::CAPACITY]);
    assert!(opened.torn);
}
