//! The closed-loop generator: one thread keeps a fixed number of requests
//! outstanding against an in-process [`Frontend`], framing every request
//! and response through real [`Endpoint`]s (as `MemConn` does, but
//! pipelined) with no sockets.

use acc_server::{Endpoint, Frontend, Mix, Request, Response, WireAbort};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::time::{Duration, Instant};

/// How long the generator waits for any response before declaring the
/// front-end stuck.
const STALL: Duration = Duration::from_secs(60);

/// How one request ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fate {
    /// Committed.
    Committed {
        /// Engine-side resubmissions absorbed by the server.
        retries: u32,
        /// Server-side latency, receipt to commit.
        server_micros: u64,
    },
    /// The program's own abort (TPC-C's 1% new-order rollbacks, smallbank
    /// overdrafts): an outcome, not a failure.
    UserAbort,
    /// Shed, past deadline, rolled back transiently after engine retries,
    /// or refused with an error.
    Failed(String),
}

/// Client-side timestamps of one request, nanoseconds since the generator's
/// epoch.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stamps {
    /// Before encoding and sealing the request frame.
    pub seal: u64,
    /// Request frame fed and decoded server-side; `Frontend::submit` called.
    pub submit: u64,
    /// `Frontend::submit` returned.
    pub submitted: u64,
    /// Response taken off the reply channel.
    pub recv: u64,
    /// Response frame sealed, fed and decoded client-side.
    pub done: u64,
}

impl Stamps {
    /// Client-observed latency.
    pub fn latency_ns(&self) -> u64 {
        self.done - self.seal
    }
}

/// One connection's worth of framing state plus the reply channel.
pub struct Generator<'a> {
    frontend: &'a Frontend,
    mix: Mix,
    client: Endpoint,
    server: Endpoint,
    tx: Sender<Response>,
    rx: Receiver<Response>,
    epoch: Instant,
    /// Fate of every request issued, indexed by `client_seq - 1`.
    fates: Vec<Option<Fate>>,
    /// Client stamps, same indexing.
    stamps: Vec<Stamps>,
}

impl<'a> Generator<'a> {
    /// A generator for `frontend`; timestamps count from `epoch`.
    pub fn new(frontend: &'a Frontend, epoch: Instant) -> Generator<'a> {
        let (tx, rx) = channel();
        Generator {
            frontend,
            mix: frontend.mix(),
            client: Endpoint::new(),
            server: Endpoint::new(),
            tx,
            rx,
            epoch,
            fates: Vec::new(),
            stamps: Vec::new(),
        }
    }

    /// The fates and client stamps of every request issued.
    pub fn finish(self) -> (Vec<Option<Fate>>, Vec<Stamps>) {
        (self.fates, self.stamps)
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Frame and submit request `seq` (1-based) with `seed`.
    fn issue(&mut self, seq: u64, seed: u64) -> Result<(), String> {
        let idx = (seq - 1) as usize;
        if self.stamps.len() <= idx {
            self.stamps.resize(idx + 1, Stamps::default());
            self.fates.resize(idx + 1, None);
        }
        let seal = self.now();
        let req = Request {
            client_seq: seq,
            deadline_micros: 0,
            mix: self.mix,
            seed,
        };
        let bytes = self.client.seal(&req.encode());
        let payloads = self.server.feed(&bytes).map_err(|e| e.to_string())?;
        if payloads.len() != 1 {
            return Err(format!("request {seq}: {} frames decoded", payloads.len()));
        }
        let req = Request::decode(&payloads[0]).map_err(|e| e.to_string())?;
        let submit = self.now();
        self.frontend.submit(req, self.tx.clone());
        let submitted = self.now();
        self.stamps[idx] = Stamps {
            seal,
            submit,
            submitted,
            ..Stamps::default()
        };
        Ok(())
    }

    /// Wait for the next response, frame it back, and settle its request.
    /// Fails if it answers an unknown or already-settled request.
    fn settle_next(&mut self) -> Result<(), String> {
        let resp = match self.rx.recv_timeout(STALL) {
            Ok(r) => r,
            Err(RecvTimeoutError::Timeout) => return Err("no response for 60 s".into()),
            Err(RecvTimeoutError::Disconnected) => return Err("reply channel closed".into()),
        };
        let recv = self.now();
        let bytes = self.server.seal(&resp.encode());
        let payloads = self.client.feed(&bytes).map_err(|e| e.to_string())?;
        if payloads.len() != 1 {
            return Err(format!("{} response frames decoded", payloads.len()));
        }
        let resp = Response::decode(&payloads[0]).map_err(|e| e.to_string())?;
        let done = self.now();
        let seq = resp.client_seq();
        let idx = (seq as usize).wrapping_sub(1);
        match self.fates.get(idx) {
            Some(None) => {}
            Some(Some(_)) => return Err(format!("request {seq} settled twice")),
            None => return Err(format!("response for unknown request {seq}")),
        }
        let fate = match resp {
            Response::Committed {
                engine_retries,
                latency_micros,
                ..
            } => Fate::Committed {
                retries: engine_retries,
                server_micros: latency_micros,
            },
            Response::RolledBack {
                reason: WireAbort::UserAbort,
                ..
            } => Fate::UserAbort,
            other => Fate::Failed(format!("{other:?}")),
        };
        self.fates[idx] = Some(fate);
        self.stamps[idx].recv = recv;
        self.stamps[idx].done = done;
        Ok(())
    }

    /// Run requests `first..first + seeds.len()` (1-based sequence numbers)
    /// closed-loop with `outstanding` in flight, returning once every one
    /// has settled.
    pub fn closed_loop(
        &mut self,
        first: u64,
        seeds: &[u64],
        outstanding: usize,
    ) -> Result<(), String> {
        let mut next = 0usize;
        let mut in_flight = 0usize;
        while next < seeds.len() && in_flight < outstanding {
            self.issue(first + next as u64, seeds[next])?;
            next += 1;
            in_flight += 1;
        }
        while in_flight > 0 {
            self.settle_next()?;
            in_flight -= 1;
            if next < seeds.len() {
                self.issue(first + next as u64, seeds[next])?;
                next += 1;
                in_flight += 1;
            }
        }
        Ok(())
    }
}
