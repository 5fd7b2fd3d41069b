//! Pluggable ship transports.
//!
//! The default is [`MemTransport`]: a deterministic in-process channel whose
//! misbehavior — drop, duplicate, delay (reorder), tear — is scripted by an
//! [`acc_common::faults::ShipPlan`], so the same plan over the same stream
//! misdelivers identically. A loopback-TCP transport ([`tcp::TcpTransport`])
//! proves the protocol survives a real byte pipe; its wire framing is the
//! workspace-shared [`acc_common::frame`] module (the same frames the
//! `acc-server` front-end speaks), so framing and chained-checksum idioms
//! live in one place.

use crate::ship::ShipBatch;
use acc_common::faults::{ShipAction, ShipPlan};
use acc_common::{Error, Result};
use std::collections::VecDeque;

/// A one-way batch pipe from shipper to follower.
pub trait ShipTransport {
    /// Queue one batch for delivery. `Err` is a *transient* send failure —
    /// the caller retries with backoff; the batch was not delivered.
    fn send(&mut self, batch: ShipBatch) -> Result<()>;

    /// The next delivered batch, if one is available.
    fn recv(&mut self) -> Option<ShipBatch>;
}

/// Deterministic in-memory transport with scripted misbehavior.
#[derive(Debug, Default)]
pub struct MemTransport {
    plan: ShipPlan,
    /// Every `k`th send (1-based) fails transiently before the plan is even
    /// consulted — the retry-with-backoff path.
    fail_every: Option<u64>,
    /// 1-based send ordinal (failed sends count: a retry is a new send).
    sent: u64,
    queue: VecDeque<ShipBatch>,
    /// Held-back batches: `(sends remaining until release, batch)`.
    delayed: Vec<(u32, ShipBatch)>,
}

impl MemTransport {
    /// A perfectly behaved transport.
    pub fn new() -> MemTransport {
        MemTransport::default()
    }

    /// A transport misbehaving per `plan`.
    pub fn with_plan(plan: ShipPlan) -> MemTransport {
        MemTransport {
            plan,
            ..MemTransport::default()
        }
    }

    /// Fail every `k`th send transiently (retry-path injection).
    pub fn failing_every(mut self, k: u64) -> MemTransport {
        self.fail_every = Some(k);
        self
    }

    /// Sends observed (including failed ones).
    pub fn sends(&self) -> u64 {
        self.sent
    }
}

impl ShipTransport for MemTransport {
    fn send(&mut self, batch: ShipBatch) -> Result<()> {
        self.sent += 1;
        let ordinal = self.sent;
        if matches!(self.fail_every, Some(k) if k > 0 && ordinal.is_multiple_of(k)) {
            return Err(Error::Internal("transient ship failure (injected)".into()));
        }
        // Release previously delayed batches whose countdown expires with
        // this send — *before* the current batch is enqueued, so a released
        // batch genuinely arrives out of order.
        let mut due = Vec::new();
        self.delayed.retain_mut(|(left, b)| {
            *left -= 1;
            if *left == 0 {
                due.push(b.clone());
                false
            } else {
                true
            }
        });
        self.queue.extend(due);

        let mut batch = batch;
        self.plan.corruption(ordinal).apply(&mut batch.payload);
        match self.plan.action(ordinal) {
            ShipAction::Deliver => self.queue.push_back(batch),
            ShipAction::Drop => {}
            ShipAction::Duplicate => {
                self.queue.push_back(batch.clone());
                self.queue.push_back(batch);
            }
            ShipAction::Delay(n) => self.delayed.push((n.max(1), batch)),
        }
        Ok(())
    }

    fn recv(&mut self) -> Option<ShipBatch> {
        self.queue.pop_front()
    }
}

/// Loopback-TCP transport: the same protocol over a real socket pair, framed
/// by the workspace-shared [`acc_common::frame`] module. A ship batch maps
/// 1:1 onto a wire [`acc_common::frame::Frame`]: `seq`/`start`/`chain` ride
/// the header and the batch payload is the frame payload.
pub mod tcp {
    use super::*;
    use acc_common::frame::{Decoded, Frame, FrameBuf};
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::time::Duration;

    /// A connected loopback socket pair speaking ship batches.
    pub struct TcpTransport {
        tx: TcpStream,
        rx: TcpStream,
        /// Incremental frame decoder over the receive side.
        buf: FrameBuf,
    }

    impl TcpTransport {
        /// Bind an ephemeral loopback listener and connect to it.
        pub fn loopback() -> Result<TcpTransport> {
            let io = |e: std::io::Error| Error::Internal(format!("loopback setup: {e}"));
            let listener = TcpListener::bind("127.0.0.1:0").map_err(io)?;
            let addr = listener.local_addr().map_err(io)?;
            let tx = TcpStream::connect(addr).map_err(io)?;
            let (rx, _) = listener.accept().map_err(io)?;
            rx.set_read_timeout(Some(Duration::from_millis(10)))
                .map_err(io)?;
            tx.set_nodelay(true).map_err(io)?;
            Ok(TcpTransport {
                tx,
                rx,
                buf: FrameBuf::new(),
            })
        }

        /// Pull whatever the socket has ready into the frame decoder; false
        /// once the socket would block (or closed/errored).
        fn fill(&mut self) -> bool {
            let mut chunk = [0u8; 4096];
            loop {
                match self.rx.read(&mut chunk) {
                    Ok(0) => return false,
                    Ok(n) => {
                        self.buf.extend(&chunk[..n]);
                        if n < chunk.len() {
                            return true;
                        }
                    }
                    Err(e)
                        if e.kind() == std::io::ErrorKind::WouldBlock
                            || e.kind() == std::io::ErrorKind::TimedOut =>
                    {
                        return false;
                    }
                    Err(_) => return false,
                }
            }
        }
    }

    impl ShipTransport for TcpTransport {
        fn send(&mut self, batch: ShipBatch) -> Result<()> {
            let wire = Frame {
                seq: batch.seq,
                start: batch.start,
                chain: batch.chain,
                payload: batch.payload,
            }
            .encode();
            self.tx
                .write_all(&wire)
                .map_err(|e| Error::Internal(format!("ship send: {e}")))
        }

        fn recv(&mut self) -> Option<ShipBatch> {
            loop {
                match self.buf.next_frame() {
                    Decoded::Frame(f) => {
                        return Some(ShipBatch {
                            seq: f.seq,
                            start: f.start,
                            payload: f.payload,
                            chain: f.chain,
                        });
                    }
                    // A violating peer gets no further reads — the follower
                    // treats silence as a dead leader and re-handshakes.
                    Decoded::Violation => return None,
                    Decoded::Incomplete => {
                        if !self.fill() {
                            // Nothing new arrived; try once more in case the
                            // last fill completed a frame, then give up.
                            if let Decoded::Frame(f) = self.buf.next_frame() {
                                return Some(ShipBatch {
                                    seq: f.seq,
                                    start: f.start,
                                    payload: f.payload,
                                    chain: f.chain,
                                });
                            }
                            return None;
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch(seq: u64, start: u64, payload: Vec<u8>) -> ShipBatch {
        ShipBatch {
            seq,
            start,
            chain: seq ^ 0xabcd,
            payload,
        }
    }

    #[test]
    fn clean_transport_delivers_in_order() {
        let mut t = MemTransport::new();
        for i in 0..5 {
            t.send(batch(i, i * 10, vec![i as u8])).unwrap();
        }
        let seqs: Vec<u64> = std::iter::from_fn(|| t.recv()).map(|b| b.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn plan_drops_duplicates_and_delays() {
        let plan = ShipPlan {
            drop_every: Some(5),
            duplicate_every: Some(3),
            delay_every: Some((4, 2)),
            tear_at: None,
        };
        let mut t = MemTransport::with_plan(plan);
        for i in 1..=8u64 {
            t.send(batch(i, 0, vec![])).unwrap();
        }
        let seqs: Vec<u64> = std::iter::from_fn(|| t.recv()).map(|b| b.seq).collect();
        // 1,2 deliver; 3 duplicates; 4 delayed 2 sends (released before 6);
        // 5 dropped; 6 duplicates (after 4's release); 7 delivers; 8 delayed
        // (2 sends) and never released.
        assert_eq!(seqs, vec![1, 2, 3, 3, 4, 6, 6, 7]);
    }

    #[test]
    fn injected_failures_are_transient_errors() {
        let mut t = MemTransport::new().failing_every(2);
        assert!(t.send(batch(1, 0, vec![])).is_ok());
        assert!(t.send(batch(2, 0, vec![])).is_err());
        assert!(t.send(batch(2, 0, vec![])).is_ok(), "retry is a new send");
        assert_eq!(t.sends(), 3);
    }

    #[test]
    fn tcp_loopback_round_trips_batches() {
        let mut t = tcp::TcpTransport::loopback().expect("loopback pair");
        let batches = vec![
            batch(0, 0, vec![1, 2, 3]),
            batch(1, 3, Vec::new()),
            batch(2, 3, vec![0u8; 5000]),
        ];
        for b in &batches {
            t.send(b.clone()).unwrap();
        }
        let mut got = Vec::new();
        for _ in 0..100 {
            if let Some(b) = t.recv() {
                got.push(b);
            }
            if got.len() == batches.len() {
                break;
            }
        }
        assert_eq!(got, batches);
    }
}
