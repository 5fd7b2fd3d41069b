//! Length-prefixed wire framing with chained checksums — the one place the
//! workspace's byte-pipe idioms live.
//!
//! Two consumers speak this format today: the replication transport
//! (`acc-repl`'s loopback TCP ship pipe) and the network front-end
//! (`acc-server`'s request/response protocol). Both need the same three
//! things from a raw byte stream:
//!
//! 1. **Framing** — `[seq u64][start u64][chain u64][len u32][payload]`,
//!    all little-endian. `seq` is a monotonic per-stream ordinal, `start`
//!    the payload's byte offset in the logical stream, `chain` a cumulative
//!    checksum over the stream up to and including this payload.
//! 2. **Incremental decoding** — TCP delivers arbitrary fragments; a
//!    [`FrameBuf`] accumulates them and yields a [`Frame`] only once the
//!    whole thing (header + payload) has arrived, so partial reads and
//!    slow-loris senders are handled in one place.
//! 3. **Chain verification** — [`chain_update`] folds payload bytes into a
//!    running FNV-1a chain (seeded with [`CHAIN_SEED`], mixed with the frame
//!    ordinal the way the WAL's sector chain mixes sector sequence numbers),
//!    so a receiver detects reordering, splicing, and corruption without
//!    trusting the sender's framing. [`fnv1a`] is the one byte fold every
//!    checksum in the workspace uses (WAL records, WAL sectors, frames).
//!
//! The frame layer is deliberately dumb: it neither interprets payloads nor
//! enforces chains — receivers decide what a mismatch means (the follower
//! refuses the batch; the server drops the connection). What it guarantees
//! is that a [`Frame`] handed up was received whole, exactly as long as its
//! header claimed.

/// FNV-1a 64-bit offset basis — the seed of every chain in the workspace
/// (the WAL sector chain uses the same constant).
pub const CHAIN_SEED: u64 = 0xcbf2_9ce4_8422_2325;

const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Fold `bytes` into the running FNV-1a 64-bit hash `h`. Starting from
/// [`CHAIN_SEED`] gives the plain FNV-1a digest of `bytes`; folding pieces
/// one after another equals folding their concatenation.
pub fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ b as u64).wrapping_mul(FNV_PRIME))
}

/// Wire header size: `seq` + `start` + `chain` + `len`.
pub const FRAME_HEADER: usize = 8 + 8 + 8 + 4;

/// Hard ceiling on a frame payload. Anything larger is a protocol violation
/// (or a hostile length field) and must be rejected before the receiver
/// tries to buffer it.
pub const MAX_FRAME_PAYLOAD: usize = 16 << 20;

/// Fold `bytes` into a running FNV-1a chain, mixing in `seq` first so
/// identical payloads at different stream positions chain differently.
pub fn chain_update(chain: u64, seq: u64, bytes: &[u8]) -> u64 {
    fnv1a(fnv1a(chain, &seq.to_le_bytes()), bytes)
}

/// One decoded wire frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Monotonic per-stream frame ordinal.
    pub seq: u64,
    /// Byte offset of `payload` in the logical stream.
    pub start: u64,
    /// Cumulative stream checksum as the sender computed it.
    pub chain: u64,
    /// The framed bytes.
    pub payload: Vec<u8>,
}

impl Frame {
    /// Serialize header + payload into one wire buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut wire = Vec::with_capacity(FRAME_HEADER + self.payload.len());
        wire.extend_from_slice(&self.seq.to_le_bytes());
        wire.extend_from_slice(&self.start.to_le_bytes());
        wire.extend_from_slice(&self.chain.to_le_bytes());
        wire.extend_from_slice(&(self.payload.len() as u32).to_le_bytes());
        wire.extend_from_slice(&self.payload);
        wire
    }
}

/// Incremental frame decoder over an untrusted byte stream.
///
/// Feed fragments with [`FrameBuf::extend`]; pull whole frames with
/// [`FrameBuf::next_frame`]. A length field beyond [`MAX_FRAME_PAYLOAD`]
/// poisons the buffer — every later call reports the violation, because a
/// stream that lied about one length has no recoverable frame boundary.
#[derive(Debug, Default)]
pub struct FrameBuf {
    buf: Vec<u8>,
    poisoned: bool,
}

/// Outcome of one [`FrameBuf::next_frame`] poll.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Decoded {
    /// A whole frame arrived.
    Frame(Frame),
    /// Not enough bytes buffered yet.
    Incomplete,
    /// The stream declared an impossible payload length; the connection is
    /// unrecoverable.
    Violation,
}

impl FrameBuf {
    /// Empty decoder.
    pub fn new() -> FrameBuf {
        FrameBuf::default()
    }

    /// Buffer one received fragment.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet decoded.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Try to decode the next whole frame.
    pub fn next_frame(&mut self) -> Decoded {
        if self.poisoned {
            return Decoded::Violation;
        }
        if self.buf.len() < FRAME_HEADER {
            return Decoded::Incomplete;
        }
        let u64_at =
            |b: &[u8], i: usize| u64::from_le_bytes(b[i..i + 8].try_into().expect("8 bytes"));
        let len = u32::from_le_bytes(self.buf[24..28].try_into().expect("4 bytes")) as usize;
        if len > MAX_FRAME_PAYLOAD {
            self.poisoned = true;
            return Decoded::Violation;
        }
        if self.buf.len() < FRAME_HEADER + len {
            return Decoded::Incomplete;
        }
        let frame = Frame {
            seq: u64_at(&self.buf, 0),
            start: u64_at(&self.buf, 8),
            chain: u64_at(&self.buf, 16),
            payload: self.buf[FRAME_HEADER..FRAME_HEADER + len].to_vec(),
        };
        self.buf.drain(..FRAME_HEADER + len);
        Decoded::Frame(frame)
    }
}

/// Sender-side bookkeeping for one framed stream: assigns ordinals and
/// offsets, maintains the cumulative chain. The receiving side mirrors it
/// with [`StreamChain::verify`].
#[derive(Debug, Clone)]
pub struct StreamChain {
    seq: u64,
    start: u64,
    chain: u64,
}

impl Default for StreamChain {
    fn default() -> Self {
        StreamChain::new()
    }
}

impl StreamChain {
    /// A fresh stream at offset 0 with the canonical seed.
    pub fn new() -> StreamChain {
        StreamChain {
            seq: 0,
            start: 0,
            chain: CHAIN_SEED,
        }
    }

    /// Frame `payload` as the next element of this stream, advancing the
    /// chain state.
    pub fn frame(&mut self, payload: Vec<u8>) -> Frame {
        self.seq += 1;
        self.chain = chain_update(self.chain, self.seq, &payload);
        let frame = Frame {
            seq: self.seq,
            start: self.start,
            chain: self.chain,
            payload,
        };
        self.start += frame.payload.len() as u64;
        frame
    }

    /// Receiver side: check that `frame` is exactly the next element of this
    /// stream (ordinal, offset, and chain all line up), and advance. Returns
    /// false — with the state untouched — on any mismatch.
    pub fn verify(&mut self, frame: &Frame) -> bool {
        if frame.seq != self.seq + 1 || frame.start != self.start {
            return false;
        }
        let chain = chain_update(self.chain, frame.seq, &frame.payload);
        if chain != frame.chain {
            return false;
        }
        self.seq = frame.seq;
        self.start += frame.payload.len() as u64;
        self.chain = chain;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trips_through_fragmented_delivery() {
        let f = Frame {
            seq: 3,
            start: 100,
            chain: 0xdead,
            payload: vec![1, 2, 3, 4, 5],
        };
        let wire = f.encode();
        let mut buf = FrameBuf::new();
        // Deliver one byte at a time — a slow-loris sender.
        for b in &wire {
            assert!(matches!(
                buf.next_frame(),
                Decoded::Incomplete | Decoded::Frame(_)
            ));
            buf.extend(std::slice::from_ref(b));
        }
        assert_eq!(buf.next_frame(), Decoded::Frame(f));
        assert_eq!(buf.next_frame(), Decoded::Incomplete);
        assert_eq!(buf.buffered(), 0);
    }

    #[test]
    fn back_to_back_frames_decode_in_order() {
        let mut buf = FrameBuf::new();
        let mut wire = Vec::new();
        let mut chain = StreamChain::new();
        for i in 0..4u8 {
            wire.extend_from_slice(&chain.frame(vec![i; i as usize]).encode());
        }
        buf.extend(&wire);
        let mut verify = StreamChain::new();
        for i in 0..4u8 {
            match buf.next_frame() {
                Decoded::Frame(f) => {
                    assert_eq!(f.payload, vec![i; i as usize]);
                    assert!(verify.verify(&f));
                }
                other => panic!("expected frame {i}, got {other:?}"),
            }
        }
    }

    #[test]
    fn hostile_length_poisons_the_buffer() {
        let mut buf = FrameBuf::new();
        let mut wire = Frame {
            seq: 1,
            start: 0,
            chain: 0,
            payload: vec![],
        }
        .encode();
        wire[24..28].copy_from_slice(&u32::MAX.to_le_bytes());
        buf.extend(&wire);
        assert_eq!(buf.next_frame(), Decoded::Violation);
        assert_eq!(buf.next_frame(), Decoded::Violation, "violations stick");
    }

    #[test]
    fn stream_chain_rejects_tampering() {
        let mut tx = StreamChain::new();
        let a = tx.frame(vec![1, 2, 3]);
        let b = tx.frame(vec![4, 5]);

        // Clean delivery verifies.
        let mut rx = StreamChain::new();
        assert!(rx.verify(&a));
        assert!(rx.verify(&b));

        // Reordered, re-delivered, or mangled frames do not.
        let mut rx = StreamChain::new();
        assert!(!rx.verify(&b), "skipping a frame breaks seq/start/chain");
        assert!(rx.verify(&a));
        assert!(!rx.verify(&a), "duplicate delivery is rejected");
        let mut torn = b.clone();
        torn.payload[0] ^= 0x40;
        assert!(!rx.verify(&torn), "payload corruption breaks the chain");
        assert!(rx.verify(&b), "a refused frame leaves the state untouched");
    }

    #[test]
    fn chain_update_mixes_ordinal_and_bytes() {
        let c1 = chain_update(CHAIN_SEED, 1, b"abc");
        let c2 = chain_update(CHAIN_SEED, 2, b"abc");
        assert_ne!(c1, c2, "same bytes at different ordinals chain apart");
        assert_ne!(c1, chain_update(CHAIN_SEED, 1, b"abd"));
    }
}
