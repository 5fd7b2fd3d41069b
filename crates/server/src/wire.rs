//! Request/response payloads of the front-end wire protocol.
//!
//! Every message travels inside one [`acc_common::frame::Frame`] — the same
//! `[seq][start][chain][len][payload]` format the replication shipper uses —
//! so transport integrity (reassembly of partial writes, chained-checksum
//! tamper detection, hostile-length rejection) is handled once, in
//! [`crate::session::Endpoint`]. This module only encodes and decodes the
//! payload bytes. All integers are little-endian.
//!
//! Request payload:
//!
//! | field            | type | meaning                                        |
//! |------------------|------|------------------------------------------------|
//! | tag              | u8   | `0x01` = submit-txn                            |
//! | client_seq       | u64  | client-chosen correlation id                   |
//! | deadline_micros  | u64  | budget from server receipt; `0` = no deadline  |
//! | mix              | u8   | family (`0` TPC-C, `1` smallbank, `2` saga)    |
//! | seed             | u64  | derives the transaction deterministically      |
//!
//! Response payload (first two fields always `tag: u8, client_seq: u64`):
//!
//! | tag | name               | extra fields                                             |
//! |-----|--------------------|----------------------------------------------------------|
//! | 1   | committed          | txn_id u64, steps u32, engine_retries u32, latency µs u64 |
//! | 2   | rolled-back        | reason u8 (0 deadlock, 1 user abort, 2 doomed)           |
//! | 3   | overloaded         | queue_depth u32 (typed shed — resubmit with backoff)     |
//! | 4   | deadline-exceeded  | —                                                        |
//! | 5   | error              | msg_len u16, utf-8 message                               |

use acc_common::{Error, Result};

/// Request tag: submit a transaction.
pub const TAG_SUBMIT: u8 = 0x01;

/// Workload family a request addresses. The server hosts exactly one family
/// (they have different schemas); a mismatched request gets a typed error
/// response, never a silent misroute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// The decomposed TPC-C system (`acc-tpcc`).
    Tpcc,
    /// The decomposed smallbank system (`acc-workloads`).
    Smallbank,
    /// The order-fulfilment saga (`acc-workloads`).
    Saga,
}

impl Mix {
    /// Wire byte.
    pub fn code(self) -> u8 {
        match self {
            Mix::Tpcc => 0,
            Mix::Smallbank => 1,
            Mix::Saga => 2,
        }
    }

    /// Decode a wire byte.
    pub fn from_code(b: u8) -> Option<Mix> {
        match b {
            0 => Some(Mix::Tpcc),
            1 => Some(Mix::Smallbank),
            2 => Some(Mix::Saga),
            _ => None,
        }
    }

    /// Name used by CLI flags and reports.
    pub fn name(self) -> &'static str {
        match self {
            Mix::Tpcc => "tpcc",
            Mix::Smallbank => "smallbank",
            Mix::Saga => "saga",
        }
    }
}

/// One submit-txn request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Client-chosen correlation id, echoed on the response.
    pub client_seq: u64,
    /// Deadline budget in microseconds from server receipt (`0` = none).
    pub deadline_micros: u64,
    /// Workload family.
    pub mix: Mix,
    /// Seed the server expands into a concrete transaction. Keeping inputs
    /// server-side keeps the protocol workload-agnostic and every schedule
    /// replayable from `(mix, seed)` alone.
    pub seed: u64,
}

impl Request {
    /// Encode to a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(1 + 8 + 8 + 1 + 8);
        out.push(TAG_SUBMIT);
        out.extend_from_slice(&self.client_seq.to_le_bytes());
        out.extend_from_slice(&self.deadline_micros.to_le_bytes());
        out.push(self.mix.code());
        out.extend_from_slice(&self.seed.to_le_bytes());
        out
    }

    /// Decode a frame payload.
    pub fn decode(payload: &[u8]) -> Result<Request> {
        let mut c = Cursor::new(payload);
        let tag = c.u8()?;
        if tag != TAG_SUBMIT {
            return Err(Error::Recovery(format!("unknown request tag {tag}")));
        }
        let client_seq = c.u64()?;
        let deadline_micros = c.u64()?;
        let mix = Mix::from_code(c.u8()?)
            .ok_or_else(|| Error::Recovery("unknown workload mix".into()))?;
        let seed = c.u64()?;
        c.done()?;
        Ok(Request {
            client_seq,
            deadline_micros,
            mix,
            seed,
        })
    }
}

/// Why a transaction rolled back, as reported to the client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireAbort {
    /// Deadlock victim — transient, the client may resubmit.
    Deadlock,
    /// The transaction's own logic aborted — final.
    UserAbort,
    /// Doomed by a compensating step (§3.4) — transient.
    Doomed,
}

impl WireAbort {
    fn code(self) -> u8 {
        match self {
            WireAbort::Deadlock => 0,
            WireAbort::UserAbort => 1,
            WireAbort::Doomed => 2,
        }
    }

    fn from_code(b: u8) -> Option<WireAbort> {
        match b {
            0 => Some(WireAbort::Deadlock),
            1 => Some(WireAbort::UserAbort),
            2 => Some(WireAbort::Doomed),
            _ => None,
        }
    }

    /// Transient rollbacks are worth a client resubmission; final ones not.
    pub fn transient(self) -> bool {
        matches!(self, WireAbort::Deadlock | WireAbort::Doomed)
    }
}

/// One response, correlated to its request by `client_seq`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// The transaction committed and is durable.
    Committed {
        /// Echoed correlation id.
        client_seq: u64,
        /// The engine transaction id (its identity on the WAL).
        txn_id: u64,
        /// Forward steps executed.
        steps: u32,
        /// Transient rollbacks the *server* absorbed by resubmitting inside
        /// the deadline — distinct from client-side resubmissions, so the
        /// load generator can attribute retry work to the right layer.
        engine_retries: u32,
        /// Server-side latency, receipt to commit, microseconds.
        latency_micros: u64,
    },
    /// Rolled back with no net effect.
    RolledBack {
        /// Echoed correlation id.
        client_seq: u64,
        /// Why.
        reason: WireAbort,
    },
    /// Shed by admission control before consuming any engine resources.
    Overloaded {
        /// Echoed correlation id.
        client_seq: u64,
        /// Queue depth observed at the shed decision.
        queue_depth: u32,
    },
    /// The deadline passed — in the queue, or mid-run (rolled back through
    /// compensation). Either way the transaction has no net effect.
    DeadlineExceeded {
        /// Echoed correlation id.
        client_seq: u64,
    },
    /// Malformed or misrouted request.
    Error {
        /// Echoed correlation id.
        client_seq: u64,
        /// Human-readable reason.
        message: String,
    },
}

impl Response {
    /// The echoed correlation id.
    pub fn client_seq(&self) -> u64 {
        match self {
            Response::Committed { client_seq, .. }
            | Response::RolledBack { client_seq, .. }
            | Response::Overloaded { client_seq, .. }
            | Response::DeadlineExceeded { client_seq }
            | Response::Error { client_seq, .. } => *client_seq,
        }
    }

    /// Encode to a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32);
        match self {
            Response::Committed {
                client_seq,
                txn_id,
                steps,
                engine_retries,
                latency_micros,
            } => {
                out.push(1);
                out.extend_from_slice(&client_seq.to_le_bytes());
                out.extend_from_slice(&txn_id.to_le_bytes());
                out.extend_from_slice(&steps.to_le_bytes());
                out.extend_from_slice(&engine_retries.to_le_bytes());
                out.extend_from_slice(&latency_micros.to_le_bytes());
            }
            Response::RolledBack { client_seq, reason } => {
                out.push(2);
                out.extend_from_slice(&client_seq.to_le_bytes());
                out.push(reason.code());
            }
            Response::Overloaded {
                client_seq,
                queue_depth,
            } => {
                out.push(3);
                out.extend_from_slice(&client_seq.to_le_bytes());
                out.extend_from_slice(&queue_depth.to_le_bytes());
            }
            Response::DeadlineExceeded { client_seq } => {
                out.push(4);
                out.extend_from_slice(&client_seq.to_le_bytes());
            }
            Response::Error {
                client_seq,
                message,
            } => {
                out.push(5);
                out.extend_from_slice(&client_seq.to_le_bytes());
                let msg = message.as_bytes();
                let len = msg.len().min(u16::MAX as usize);
                out.extend_from_slice(&(len as u16).to_le_bytes());
                out.extend_from_slice(&msg[..len]);
            }
        }
        out
    }

    /// Decode a frame payload.
    pub fn decode(payload: &[u8]) -> Result<Response> {
        let mut c = Cursor::new(payload);
        let tag = c.u8()?;
        let client_seq = c.u64()?;
        let resp = match tag {
            1 => Response::Committed {
                client_seq,
                txn_id: c.u64()?,
                steps: c.u32()?,
                engine_retries: c.u32()?,
                latency_micros: c.u64()?,
            },
            2 => Response::RolledBack {
                client_seq,
                reason: WireAbort::from_code(c.u8()?)
                    .ok_or_else(|| Error::Recovery("unknown abort reason".into()))?,
            },
            3 => Response::Overloaded {
                client_seq,
                queue_depth: c.u32()?,
            },
            4 => Response::DeadlineExceeded { client_seq },
            5 => {
                let len = c.u16()? as usize;
                let bytes = c.bytes(len)?;
                Response::Error {
                    client_seq,
                    message: String::from_utf8_lossy(bytes).into_owned(),
                }
            }
            t => return Err(Error::Recovery(format!("unknown response tag {t}"))),
        };
        c.done()?;
        Ok(resp)
    }
}

/// Byte-exact little-endian reader; every decoder consumes the whole payload
/// or fails typed (trailing garbage is a protocol violation, not padding).
struct Cursor<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, at: 0 }
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.at + n > self.buf.len() {
            return Err(Error::Recovery("truncated wire payload".into()));
        }
        let s = &self.buf[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.bytes(1)?[0])
    }

    fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.bytes(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }

    fn done(&self) -> Result<()> {
        if self.at != self.buf.len() {
            return Err(Error::Recovery("trailing bytes in wire payload".into()));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrips() {
        let req = Request {
            client_seq: 7,
            deadline_micros: 250_000,
            mix: Mix::Smallbank,
            seed: 0xDEAD_BEEF,
        };
        assert_eq!(Request::decode(&req.encode()).unwrap(), req);
    }

    #[test]
    fn responses_roundtrip() {
        let cases = vec![
            Response::Committed {
                client_seq: 1,
                txn_id: 42,
                steps: 5,
                engine_retries: 2,
                latency_micros: 1234,
            },
            Response::RolledBack {
                client_seq: 2,
                reason: WireAbort::UserAbort,
            },
            Response::Overloaded {
                client_seq: 3,
                queue_depth: 64,
            },
            Response::DeadlineExceeded { client_seq: 4 },
            Response::Error {
                client_seq: 5,
                message: "mix mismatch".into(),
            },
        ];
        for r in cases {
            assert_eq!(Response::decode(&r.encode()).unwrap(), r);
        }
    }

    #[test]
    fn truncated_and_trailing_bytes_are_typed_errors() {
        let req = Request {
            client_seq: 7,
            deadline_micros: 0,
            mix: Mix::Tpcc,
            seed: 9,
        };
        let mut bytes = req.encode();
        bytes.pop();
        assert!(Request::decode(&bytes).is_err());
        let mut bytes = req.encode();
        bytes.push(0);
        assert!(Request::decode(&bytes).is_err());
        assert!(Request::decode(&[0x7F]).is_err());
    }
}
