//! Sector-aligned framing with chained page checksums.
//!
//! The record codec ([`crate::codec`]) frames each record with a length and a
//! payload checksum, which is enough to survive a *torn tail* — a crash
//! mid-`write(2)` at the end of the image. It is **not** enough for a torn
//! *page*: when a frame spans a sector boundary and the disk persists only
//! some of the sectors (or leaves a stale earlier version of one), the
//! surviving bytes can still parse as a valid frame sequence — the length
//! header happily frames whatever follows, and if the stale region happens to
//! contain an old, internally-consistent frame at the right offset, the
//! decoder silently absorbs a record that was never written there (see the
//! regression test in `tests/sector_prop.rs`).
//!
//! This module closes that hole the way real log managers do: the byte
//! stream of encoded records is chunked into fixed 512-byte *sectors*, each
//! carrying a header with
//!
//! * a magic number and its own sequence number (stale sectors from a
//!   different position can never be accepted in place),
//! * the payload length used (only the *final* sector may be partial), and
//! * a checksum **chained** from the previous sector's checksum, so a sector
//!   is only accepted if every sector before it is byte-identical to what
//!   was live when it was written.
//!
//! The chain is what detects the torn page: a tear that splits a frame
//! across sectors k and k+1 necessarily leaves one of the two inconsistent
//! with the other (lost write, stale version, or reordered write), and the
//! chained checksum of the later sector can then never verify. Only the
//! final sector is ever rewritten (to extend its payload), and it has no
//! successors, so the chain stays valid under the append-only write pattern
//! of [`crate::device::FileDevice`].

use acc_common::frame::{fnv1a, CHAIN_SEED};

/// Bytes per sector — the unit the device writes and a crash tears at.
pub const SECTOR_SIZE: usize = 512;

/// Header: magic (4) + seq (8) + len (2) + chain checksum (8).
pub const HEADER: usize = 22;

/// Record-stream payload bytes per sector.
pub const CAPACITY: usize = SECTOR_SIZE - HEADER;

const MAGIC: u32 = 0x4c57_acc1;

/// The chained checksum of one sector: FNV-1a over the previous sector's
/// checksum, this sector's sequence number and payload length, and the
/// payload bytes in use (padding is excluded — it never reaches the disk
/// contract). Sector 0 chains from [`CHAIN_SEED`].
pub fn chain_of(prev_chain: u64, seq: u64, payload: &[u8]) -> u64 {
    [
        &prev_chain.to_le_bytes()[..],
        &seq.to_le_bytes(),
        &(payload.len() as u16).to_le_bytes(),
        payload,
    ]
    .into_iter()
    .fold(CHAIN_SEED, fnv1a)
}

fn encode_sector(seq: u64, payload: &[u8], chain: u64, out: &mut Vec<u8>) {
    debug_assert!(payload.len() <= CAPACITY);
    out.extend_from_slice(&MAGIC.to_le_bytes());
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u16).to_le_bytes());
    out.extend_from_slice(&chain.to_le_bytes());
    out.extend_from_slice(payload);
    out.resize(out.len() + (CAPACITY - payload.len()), 0);
}

/// Incremental sector sealer: feeds of record-stream bytes come out as
/// sector-aligned writes. Only the final (partial) sector is ever rewritten;
/// full sectors are immutable once emitted, which is what keeps the
/// checksum chain valid.
#[derive(Debug, Default)]
pub struct SectorWriter {
    /// Sequence number of the current tail sector (the next full sector to
    /// be sealed).
    seq: u64,
    /// Chain value of the last *full* sector (seed value before any).
    prev_chain: u64,
    /// Payload bytes already in the tail sector (rewritten on next push).
    tail: Vec<u8>,
}

impl SectorWriter {
    /// A writer positioned at the start of an empty log.
    pub fn new() -> SectorWriter {
        SectorWriter {
            seq: 0,
            prev_chain: CHAIN_SEED,
            tail: Vec::new(),
        }
    }

    /// A writer resuming after `stream` bytes have already been sealed (the
    /// reopen path; the tail sector will be rewritten with its existing
    /// payload plus whatever comes next).
    pub fn resume(stream: &[u8]) -> SectorWriter {
        let mut w = SectorWriter::new();
        let full = stream.len() / CAPACITY;
        for i in 0..full {
            let payload = &stream[i * CAPACITY..(i + 1) * CAPACITY];
            w.prev_chain = chain_of(w.prev_chain, w.seq, payload);
            w.seq += 1;
        }
        w.tail = stream[full * CAPACITY..].to_vec();
        w
    }

    /// Append `bytes` of record stream. Returns the byte offset the device
    /// must write at (the start of the current tail sector — rewritten if it
    /// was partial) and the sector-aligned bytes to write there. Empty input
    /// with an empty tail produces an empty write.
    pub fn push(&mut self, bytes: &[u8]) -> (u64, Vec<u8>) {
        let offset = self.seq * SECTOR_SIZE as u64;
        self.tail.extend_from_slice(bytes);
        let mut out = Vec::new();
        while self.tail.len() >= CAPACITY {
            let payload: Vec<u8> = self.tail.drain(..CAPACITY).collect();
            let chain = chain_of(self.prev_chain, self.seq, &payload);
            encode_sector(self.seq, &payload, chain, &mut out);
            self.prev_chain = chain;
            self.seq += 1;
        }
        if !self.tail.is_empty() {
            let chain = chain_of(self.prev_chain, self.seq, &self.tail);
            encode_sector(self.seq, &self.tail, chain, &mut out);
            // seq / prev_chain do not advance: this sector is still open.
        }
        (offset, out)
    }

    /// Total record-stream bytes pushed so far.
    pub fn stream_len(&self) -> u64 {
        self.seq * CAPACITY as u64 + self.tail.len() as u64
    }
}

/// Seal a whole record stream into a sector image (offline / test helper;
/// byte-identical to any sequence of [`SectorWriter::push`] calls covering
/// the same stream).
pub fn seal(stream: &[u8]) -> Vec<u8> {
    let mut w = SectorWriter::new();
    let (_, image) = w.push(stream);
    image
}

/// The verified prefix [`open`] salvaged from a sector image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Opened {
    /// The record-stream bytes whose sectors all verified, in order.
    pub stream: Vec<u8>,
    /// Sectors accepted.
    pub sectors: usize,
    /// True if bytes beyond the accepted prefix were rejected (torn, stale,
    /// or trailing garbage) — never silently absorbed.
    pub torn: bool,
}

/// Walk `image` sector by sector, verifying magic, sequence number and the
/// chained checksum, and concatenating the payloads of the verified prefix.
/// Stops at the first sector that fails any check, at a trailing fragment
/// shorter than one sector, or after a partial sector (only the logical tail
/// may be partial; anything behind it is stale by construction).
pub fn open(image: &[u8]) -> Opened {
    let mut stream = Vec::new();
    let mut prev_chain = CHAIN_SEED;
    let mut sectors = 0usize;
    let mut pos = 0usize;
    loop {
        if image.len() - pos < SECTOR_SIZE {
            return Opened {
                stream,
                sectors,
                torn: pos < image.len(),
            };
        }
        let s = &image[pos..pos + SECTOR_SIZE];
        let magic = u32::from_le_bytes(s[0..4].try_into().expect("4 bytes"));
        let seq = u64::from_le_bytes(s[4..12].try_into().expect("8 bytes"));
        let len = u16::from_le_bytes(s[12..14].try_into().expect("2 bytes")) as usize;
        let chain = u64::from_le_bytes(s[14..22].try_into().expect("8 bytes"));
        let ok = magic == MAGIC
            && seq == sectors as u64
            && len <= CAPACITY
            && chain == chain_of(prev_chain, seq, &s[HEADER..HEADER + len.min(CAPACITY)]);
        if !ok {
            return Opened {
                stream,
                sectors,
                torn: true,
            };
        }
        stream.extend_from_slice(&s[HEADER..HEADER + len]);
        prev_chain = chain;
        sectors += 1;
        pos += SECTOR_SIZE;
        if len < CAPACITY {
            // The logical tail: anything after a partial sector is stale.
            return Opened {
                stream,
                sectors,
                torn: pos < image.len(),
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 7 + 3) as u8).collect()
    }

    #[test]
    fn seal_open_round_trip() {
        for n in [
            0,
            1,
            CAPACITY - 1,
            CAPACITY,
            CAPACITY + 1,
            3 * CAPACITY + 17,
        ] {
            let s = stream(n);
            let image = seal(&s);
            assert_eq!(image.len() % SECTOR_SIZE, 0);
            let opened = open(&image);
            assert_eq!(opened.stream, s, "n = {n}");
            assert!(!opened.torn);
            assert_eq!(opened.sectors, n.div_ceil(CAPACITY));
        }
    }

    #[test]
    fn incremental_pushes_match_offline_seal() {
        let s = stream(4 * CAPACITY + 100);
        let mut w = SectorWriter::new();
        let mut disk = Vec::new();
        // Uneven feeds, including ones that straddle sector boundaries.
        for chunk in s.chunks(137) {
            let (off, bytes) = w.push(chunk);
            let off = off as usize;
            if disk.len() < off + bytes.len() {
                disk.resize(off + bytes.len(), 0);
            }
            disk[off..off + bytes.len()].copy_from_slice(&bytes);
        }
        assert_eq!(disk, seal(&s));
        assert_eq!(w.stream_len(), s.len() as u64);
    }

    #[test]
    fn resume_continues_the_chain() {
        let s = stream(2 * CAPACITY + 50);
        let mut w = SectorWriter::resume(&s);
        let more = stream(300);
        let (off, bytes) = w.push(&more);
        // The rewrite starts at the partial tail sector.
        assert_eq!(off as usize, 2 * SECTOR_SIZE);
        let mut disk = seal(&s);
        disk.truncate(off as usize);
        disk.extend_from_slice(&bytes);
        let mut full = s.clone();
        full.extend_from_slice(&more);
        assert_eq!(disk, seal(&full));
    }

    #[test]
    fn any_single_sector_tear_is_detected() {
        let s = stream(5 * CAPACITY + 20);
        let image = seal(&s);
        let n_sectors = image.len() / SECTOR_SIZE;
        for k in 0..n_sectors {
            let mut torn = image.clone();
            for b in &mut torn[k * SECTOR_SIZE..(k + 1) * SECTOR_SIZE] {
                *b ^= 0x5a;
            }
            let opened = open(&torn);
            assert!(opened.torn, "tear at sector {k} not flagged");
            assert_eq!(opened.sectors, k, "tear at sector {k}");
            assert_eq!(opened.stream, s[..k * CAPACITY], "tear at sector {k}");
        }
    }

    #[test]
    fn stale_last_sector_version_is_the_accepted_tail() {
        // A torn final write can leave the *previous* version of the tail
        // sector: shorter payload, valid chain. That prefix is exactly what
        // was durable before the torn write — accepted, nothing invented.
        let old = stream(CAPACITY + 40);
        let mut new = old.clone();
        new.extend_from_slice(&stream(100));
        let old_image = seal(&old);
        let new_image = seal(&new);
        // Lost rewrite of the tail sector: sector 1 still holds the old
        // version.
        let mut torn = new_image;
        torn[SECTOR_SIZE..2 * SECTOR_SIZE].copy_from_slice(&old_image[SECTOR_SIZE..]);
        let opened = open(&torn);
        assert_eq!(opened.stream, old);
    }

    #[test]
    fn sector_from_another_position_is_rejected() {
        // A valid sector transplanted to a different offset fails on seq and
        // chain even though its own checksum bytes are internally consistent.
        let s = stream(4 * CAPACITY);
        let image = seal(&s);
        let mut spliced = image.clone();
        let (a, b) = (SECTOR_SIZE, 3 * SECTOR_SIZE);
        let donor: Vec<u8> = image[b..b + SECTOR_SIZE].to_vec();
        spliced[a..a + SECTOR_SIZE].copy_from_slice(&donor);
        let opened = open(&spliced);
        assert!(opened.torn);
        assert_eq!(opened.sectors, 1);
        assert_eq!(opened.stream, s[..CAPACITY]);
    }

    #[test]
    fn trailing_fragment_is_flagged_not_absorbed() {
        let s = stream(CAPACITY / 2);
        let mut image = seal(&s);
        image.extend_from_slice(&[0xab; 100]);
        let opened = open(&image);
        assert_eq!(opened.stream, s);
        assert!(opened.torn);
    }
}
