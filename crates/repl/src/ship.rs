//! Ship batches and the leader-side shipper.
//!
//! The unit of replication is a [`ShipBatch`]: a frame-aligned slice of the
//! leader's *durable* record stream, tagged with its byte offset and with the
//! cumulative chained checksum of the whole stream prefix it extends the
//! follower to. The chain is the same FNV-1a sector chain the file device
//! writes to disk ([`acc_wal::sector::chain_of`]), folded over the record
//! stream in sector-capacity chunks — a pure function of the byte prefix, so
//! leader and follower can compare chains at any offset regardless of how
//! differently their streams were batched or persisted.
//!
//! The shipper never reads past the durable frontier. `durable_lsn` is the
//! only safe ship frontier: bytes past it exist only in the leader's staging
//! buffer, and a leader crash rewinds them — a follower that had already
//! verified such bytes would hold history the recovered leader never wrote,
//! which is exactly the divergence [`acc_common::Error::Divergence`] exists
//! to refuse.

use crate::follower::ResumePoint;
use acc_common::{Error, Result};
use acc_wal::codec::frame_ends;
use acc_wal::sector::{chain_of, CAPACITY};

/// One frame-aligned slice of the leader's durable record stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShipBatch {
    /// Monotonic ship sequence number (observability; verification keys off
    /// `start` and `chain`).
    pub seq: u64,
    /// Byte offset of `payload` in the leader's record stream.
    pub start: u64,
    /// The shipped bytes: one or more whole record frames.
    pub payload: Vec<u8>,
    /// Cumulative stream chain over `[0, start + payload.len())` as the
    /// leader computed it — what the follower's own stream must hash to
    /// after appending `payload`.
    pub chain: u64,
}

impl ShipBatch {
    /// Byte offset just past this batch.
    pub fn end(&self) -> u64 {
        self.start + self.payload.len() as u64
    }
}

/// The cumulative chained checksum of a record-stream prefix: the sector
/// chain ([`chain_of`]) folded over `CAPACITY`-sized chunks plus the partial
/// tail. A pure function of the bytes — identical streams chain identically
/// no matter how they were shipped or persisted.
pub fn stream_chain(stream: &[u8]) -> u64 {
    // Seed matches `SectorWriter::new` (the FNV-1a offset basis).
    let mut chain = 0xcbf2_9ce4_8422_2325;
    let mut seq = 0u64;
    let mut chunks = stream.chunks_exact(CAPACITY);
    for chunk in &mut chunks {
        chain = chain_of(chain, seq, chunk);
        seq += 1;
    }
    let tail = chunks.remainder();
    if !tail.is_empty() {
        chain = chain_of(chain, seq, tail);
    }
    chain
}

/// The longest prefix of `bytes` that is a whole number of record frames,
/// with the frame count. Only frame *lengths* are walked
/// ([`frame_ends`]) — payload checksums are the codec's business at replay
/// time.
pub fn frame_prefix(bytes: &[u8]) -> (usize, u64) {
    frame_ends(bytes).fold((0, 0), |(_, frames), end| (end, frames + 1))
}

/// Number of whole record frames in `payload`, or `None` if it does not end
/// exactly on a frame boundary (a torn or misaligned batch).
pub fn count_frames(payload: &[u8]) -> Option<u64> {
    let (len, frames) = frame_prefix(payload);
    (len == payload.len()).then_some(frames)
}

/// Leader-side shipper: tracks the acknowledged frontier and cuts the next
/// frame-aligned batch from whatever durable stream it is handed. It holds
/// no reference to the leader — callers pass the durable stream in, which is
/// what structurally prevents shipping past `durable_lsn`.
#[derive(Debug)]
pub struct Shipper {
    /// Byte offset acknowledged by the follower.
    acked: u64,
    /// Leader records acknowledged (the shipped frontier, in records).
    acked_records: u64,
    /// Next ship sequence number (monotonic across resumes).
    seq: u64,
    /// Batch size target in bytes; a single frame larger than this still
    /// ships whole (frames are never split).
    max_batch: usize,
}

impl Shipper {
    /// A shipper at offset zero with the given batch-size target.
    pub fn new(max_batch: usize) -> Shipper {
        Shipper {
            acked: 0,
            acked_records: 0,
            seq: 0,
            max_batch: max_batch.max(1),
        }
    }

    /// Byte offset the follower has acknowledged.
    pub fn acked(&self) -> u64 {
        self.acked
    }

    /// Leader records the follower has acknowledged.
    pub fn acked_records(&self) -> u64 {
        self.acked_records
    }

    /// Cut the next batch from `durable`, the leader's durable record stream
    /// (never the staged tail). `None` when the follower is caught up.
    pub fn next_batch(&mut self, durable: &[u8]) -> Option<ShipBatch> {
        let start = self.acked as usize;
        if start >= durable.len() {
            return None;
        }
        let window = &durable[start..(start + self.max_batch).min(durable.len())];
        let (mut aligned, frames) = frame_prefix(window);
        if frames == 0 {
            // One frame exceeds the batch target: ship exactly that frame,
            // whole (frames are never split). None: the durable tail is
            // mid-frame; wait for more.
            aligned = frame_ends(&durable[start..]).next()?;
        }
        let payload = durable[start..start + aligned].to_vec();
        let chain = stream_chain(&durable[..start + aligned]);
        let seq = self.seq;
        self.seq += 1;
        Some(ShipBatch {
            seq,
            start: start as u64,
            payload,
            chain,
        })
    }

    /// Advance the acknowledged frontier to the follower's verified state.
    pub fn ack_to(&mut self, offset: u64, records: u64) {
        debug_assert!(offset >= self.acked, "follower frontier went backwards");
        self.acked = offset;
        self.acked_records = records;
    }

    /// Rewind to the follower's verified frontier after a refusal or a lost
    /// batch (re-ship is idempotent: the follower ignores bytes it already
    /// verified).
    pub fn rewind(&mut self, offset: u64, records: u64) {
        self.acked = offset;
        self.acked_records = records;
    }

    /// Resume handshake after a follower restart: verify the follower's
    /// claimed `(offset, chain)` against the leader's own history before
    /// shipping anything on top of it. A mismatch is a typed
    /// [`Error::Divergence`] — the histories are incompatible and no amount
    /// of re-shipping reconciles them.
    pub fn resume_from(&mut self, leader_durable: &[u8], point: ResumePoint) -> Result<()> {
        let off = point.offset as usize;
        if off > leader_durable.len() {
            // The follower claims history past everything the leader ever
            // made durable — a divergent (or future-leaked) tail.
            return Err(Error::Divergence {
                at: point.offset,
                expected: stream_chain(leader_durable),
                found: point.chain,
            });
        }
        let expected = stream_chain(&leader_durable[..off]);
        if expected != point.chain {
            return Err(Error::Divergence {
                at: point.offset,
                expected,
                found: point.chain,
            });
        }
        self.acked = point.offset;
        self.acked_records = point.records;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fake frame: 12-byte header + `len` payload bytes.
    fn frame(len: usize, fill: u8) -> Vec<u8> {
        let mut f = vec![0u8; 12 + len];
        f[..4].copy_from_slice(&(len as u32).to_le_bytes());
        f[12..].fill(fill);
        f
    }

    #[test]
    fn stream_chain_is_a_pure_prefix_function() {
        let a: Vec<u8> = (0..2000u32).map(|i| i as u8).collect();
        let c1 = stream_chain(&a);
        let c2 = stream_chain(&a.clone());
        assert_eq!(c1, c2);
        // Different prefixes chain differently (with overwhelming
        // probability for these adjacent cases).
        assert_ne!(stream_chain(&a[..1999]), c1);
        assert_ne!(stream_chain(&a[..CAPACITY]), c1);
        assert_eq!(stream_chain(&[]), stream_chain(&[]));
    }

    #[test]
    fn frame_prefix_walks_whole_frames_only() {
        let mut bytes = frame(5, 1);
        bytes.extend(frame(0, 2));
        bytes.extend(frame(100, 3));
        let full = bytes.len();
        assert_eq!(frame_prefix(&bytes), (full, 3));
        assert_eq!(count_frames(&bytes), Some(3));
        // Truncation anywhere inside the last frame stops before it.
        for cut in full - 111..full {
            let (len, frames) = frame_prefix(&bytes[..cut]);
            assert_eq!(len, full - 112, "cut at {cut}");
            assert_eq!(frames, 2);
            assert_eq!(count_frames(&bytes[..cut]), None);
        }
    }

    #[test]
    fn shipper_cuts_frame_aligned_batches() {
        let mut stream = Vec::new();
        for i in 0..10u8 {
            stream.extend(frame(20, i));
        }
        let mut s = Shipper::new(70); // 2 frames of 32 bytes each, plus change
        let b = s.next_batch(&stream).expect("first batch");
        assert_eq!(b.start, 0);
        assert_eq!(b.payload.len() % 32, 0, "batch not frame-aligned");
        assert_eq!(b.chain, stream_chain(&stream[..b.payload.len()]));
        // Nothing acked yet: the next cut re-ships the same bytes.
        let b2 = s.next_batch(&stream).expect("re-cut");
        assert_eq!(b2.start, 0);
        assert_eq!(b2.payload, b.payload);
        assert_eq!(b2.seq, b.seq + 1, "seq still advances per send");
        // Acked: the next batch starts where the last one ended.
        s.ack_to(b.end(), 2);
        let b3 = s.next_batch(&stream).expect("next batch");
        assert_eq!(b3.start, b.end());
    }

    #[test]
    fn oversized_frame_ships_whole() {
        let stream = frame(500, 9);
        let mut s = Shipper::new(64);
        let b = s.next_batch(&stream).expect("oversized frame");
        assert_eq!(b.payload.len(), stream.len());
        s.ack_to(b.end(), 1);
        assert!(s.next_batch(&stream).is_none(), "caught up");
    }

    #[test]
    fn resume_verifies_the_follower_chain() {
        let mut stream = Vec::new();
        for i in 0..4u8 {
            stream.extend(frame(30, i));
        }
        let mid = 2 * 42;
        let good = ResumePoint {
            offset: mid as u64,
            records: 2,
            chain: stream_chain(&stream[..mid]),
        };
        let mut s = Shipper::new(1024);
        s.resume_from(&stream, good).expect("clean resume");
        assert_eq!(s.acked(), mid as u64);

        // A corrupted follower tail shows up as a typed divergence.
        let bad = ResumePoint {
            offset: mid as u64,
            records: 2,
            chain: stream_chain(&stream[..mid]) ^ 1,
        };
        let err = s.resume_from(&stream, bad).expect_err("diverged");
        assert!(matches!(err, Error::Divergence { at, .. } if at == mid as u64));

        // A follower claiming history past the leader's durable end is
        // divergent too, not an index panic.
        let ahead = ResumePoint {
            offset: stream.len() as u64 + 12,
            records: 9,
            chain: 7,
        };
        let err = s.resume_from(&stream, ahead).expect_err("ahead");
        assert!(matches!(err, Error::Divergence { .. }));
    }
}
