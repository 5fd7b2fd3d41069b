//! Framed, chain-verified message endpoints.
//!
//! An [`Endpoint`] is one side of a front-end connection: it reassembles
//! inbound bytes into [`acc_common::frame::Frame`]s (tolerating partial
//! writes and byte-at-a-time slow-loris delivery), verifies each against the
//! connection's cumulative FNV-1a chain, and seals outbound payloads into
//! frames on its own chain. The server and the client each hold one; the two
//! directions carry independent chains.
//!
//! Violations are sticky. A hostile length field, a chain mismatch, or an
//! out-of-order sequence number poisons the endpoint: every later `feed`
//! fails and the owner must drop the connection. There is no resynchronizing
//! with a peer that has already sent garbage — by design, the same stance the
//! replication follower takes toward a torn ship batch.

use acc_common::frame::{Decoded, FrameBuf, StreamChain};
use acc_common::{Error, Result};

/// The receiving half: reassembly buffer plus the inbound verification
/// chain.
#[derive(Debug)]
pub struct Inbound {
    inbuf: FrameBuf,
    chain: StreamChain,
    poisoned: bool,
}

impl Default for Inbound {
    fn default() -> Self {
        Self::new()
    }
}

impl Inbound {
    /// A fresh receiving half.
    pub fn new() -> Inbound {
        Inbound {
            inbuf: FrameBuf::new(),
            chain: StreamChain::new(),
            poisoned: false,
        }
    }

    /// True once a violation has poisoned this half.
    pub fn poisoned(&self) -> bool {
        self.poisoned
    }

    /// Bytes buffered awaiting a complete frame.
    pub fn buffered(&self) -> usize {
        self.inbuf.buffered()
    }

    /// Absorb transport bytes; see [`Endpoint::feed`].
    pub fn feed(&mut self, bytes: &[u8]) -> Result<Vec<Vec<u8>>> {
        if self.poisoned {
            return Err(Error::Recovery("endpoint poisoned".into()));
        }
        self.inbuf.extend(bytes);
        let mut payloads = Vec::new();
        loop {
            match self.inbuf.next_frame() {
                Decoded::Frame(frame) => {
                    if !self.chain.verify(&frame) {
                        self.poisoned = true;
                        return Err(Error::Recovery("frame chain verification failed".into()));
                    }
                    payloads.push(frame.payload);
                }
                Decoded::Incomplete => return Ok(payloads),
                Decoded::Violation => {
                    self.poisoned = true;
                    return Err(Error::Recovery("malformed frame header".into()));
                }
            }
        }
    }
}

/// The sending half: the outbound chain.
#[derive(Debug)]
pub struct Outbound {
    chain: StreamChain,
}

impl Default for Outbound {
    fn default() -> Self {
        Self::new()
    }
}

impl Outbound {
    /// A fresh sending half.
    pub fn new() -> Outbound {
        Outbound {
            chain: StreamChain::new(),
        }
    }

    /// Seal a payload into the next outbound frame, returning its bytes.
    pub fn seal(&mut self, payload: &[u8]) -> Vec<u8> {
        self.chain.frame(payload.to_vec()).encode()
    }
}

/// One direction-pair of a framed connection.
#[derive(Debug, Default)]
pub struct Endpoint {
    /// Receiving half.
    pub rx: Inbound,
    /// Sending half.
    pub tx: Outbound,
}

impl Endpoint {
    /// A fresh endpoint (chains at their seeds, empty reassembly buffer).
    pub fn new() -> Endpoint {
        Endpoint::default()
    }

    /// True once a violation has poisoned the receiving half.
    pub fn poisoned(&self) -> bool {
        self.rx.poisoned()
    }

    /// Bytes buffered awaiting a complete frame (a slow-loris peer shows up
    /// here as a buffer that grows without ever yielding a frame).
    pub fn buffered(&self) -> usize {
        self.rx.buffered()
    }

    /// Absorb raw bytes from the transport; returns the payloads of every
    /// frame completed and chain-verified by these bytes (possibly none —
    /// a partial frame stays buffered).
    pub fn feed(&mut self, bytes: &[u8]) -> Result<Vec<Vec<u8>>> {
        self.rx.feed(bytes)
    }

    /// Seal a payload into the next outbound frame, returning its bytes.
    pub fn seal(&mut self, payload: &[u8]) -> Vec<u8> {
        self.tx.seal(payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paired_endpoints_roundtrip_across_fragmentation() {
        let mut client = Endpoint::new();
        let mut server = Endpoint::new();
        let bytes = client.seal(b"hello");
        // Deliver one byte at a time (slow loris): no frame until the last.
        for (i, b) in bytes.iter().enumerate() {
            let got = server.feed(&[*b]).unwrap();
            if i + 1 < bytes.len() {
                assert!(got.is_empty());
            } else {
                assert_eq!(got, vec![b"hello".to_vec()]);
            }
        }
        // Two frames in one write, replies on the independent chain.
        let mut two = server.seal(b"a");
        two.extend(server.seal(b"bb"));
        let got = client.feed(&two).unwrap();
        assert_eq!(got, vec![b"a".to_vec(), b"bb".to_vec()]);
    }

    #[test]
    fn tampered_frame_poisons_endpoint() {
        let mut client = Endpoint::new();
        let mut server = Endpoint::new();
        let mut bytes = client.seal(b"payload");
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        assert!(server.feed(&bytes).is_err());
        assert!(server.poisoned());
        // Even a clean retransmit is refused: the connection is dead.
        let clean = client.seal(b"again");
        assert!(server.feed(&clean).is_err());
    }
}
