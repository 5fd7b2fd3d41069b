//! The front-end proper: workload hosts, the worker pool, and TCP serving.
//!
//! A [`Frontend`] owns one engine ([`SharedDb`]) and one [`Host`] (a
//! workload family under a concurrency-control policy) and runs a fixed pool
//! of worker threads fed by the bounded [`AdmissionQueue`]. Transports — the
//! TCP listener here, the deterministic in-memory connection in
//! [`crate::memnet`], and the open- and closed-loop generators in
//! [`crate::loadgen`] — all converge on [`Frontend::submit`], so admission
//! control, deadline bookkeeping, and the engine-side retry loop (the only
//! one in the system) behave identically however a request arrives.
//!
//! Deadlines exist at three points, all answered with the same typed
//! response: expired while queued (cheapest — the engine never sees it),
//! expired mid-run (the runner rolls the transaction back through
//! compensation at the next step boundary), and expired between engine-side
//! retry attempts. A deadline response therefore always means "no net
//! effect", which is what makes client-side resubmission safe.

use crate::admission::{AdmissionQueue, Job, Offer};
use crate::session::{Inbound, Outbound};
use crate::wire::{Mix, Request, Response, WireAbort};
use acc_common::events::{AdmissionVerdict, Event};
use acc_common::{Result, SeededRng};
use acc_engine::{RetryPolicy, Workload};
use acc_tpcc::{Scale, TpccKit};
use acc_txn::runner::run_with_deadline;
use acc_txn::{AbortReason, ConcurrencyControl, RunOutcome, SharedDb, TxnProgram, WaitMode};
use acc_workloads::{saga::SagaKit, smallbank::SmallbankKit};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Salt mixed into a job's seed for the engine-side retry backoff stream.
const RETRY_SALT: u64 = 0x7265_7472_795f_6265;

/// A workload family the server can host: expands a request seed into a
/// concrete transaction program and supplies the policy to run it under.
pub trait Host: Send + Sync {
    /// The family this host serves.
    fn mix(&self) -> Mix;
    /// Deterministically derive the transaction for `seed`.
    fn program(&self, seed: u64) -> Box<dyn TxnProgram + Send>;
    /// The concurrency control policy.
    fn cc(&self) -> &dyn ConcurrencyControl;
}

/// The host for every family: the family's seeded program stream under a
/// concurrency-control policy. The policy is a plain value, so serving a
/// family under strict 2PL instead of its ACC means passing
/// [`acc_txn::TwoPhase`] here.
pub struct WorkloadHost {
    mix: Mix,
    workload: Box<dyn Workload>,
    cc: Arc<dyn ConcurrencyControl>,
}

impl WorkloadHost {
    /// Serve `workload`'s programs as family `mix` under `cc`.
    pub fn new(
        mix: Mix,
        workload: Box<dyn Workload>,
        cc: Arc<dyn ConcurrencyControl>,
    ) -> WorkloadHost {
        WorkloadHost { mix, workload, cc }
    }
}

impl Host for WorkloadHost {
    fn mix(&self) -> Mix {
        self.mix
    }

    fn program(&self, seed: u64) -> Box<dyn TxnProgram + Send> {
        self.workload.next_program(&mut SeededRng::new(seed))
    }

    fn cc(&self) -> &dyn ConcurrencyControl {
        &*self.cc
    }
}

/// Front-end sizing and policy.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads draining the admission queue.
    pub workers: usize,
    /// Admission queue bound; arrivals beyond it are shed `Overloaded`.
    pub queue_cap: usize,
    /// Engine-side resubmission of transient rollbacks (deadlock victims,
    /// §3.4 dooms) while the request's deadline allows.
    pub engine_retry: RetryPolicy,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            queue_cap: 64,
            engine_retry: RetryPolicy::standard(),
        }
    }
}

struct Core {
    shared: Arc<SharedDb>,
    host: Box<dyn Host>,
    queue: AdmissionQueue,
    retry: RetryPolicy,
    stopping: AtomicBool,
}

/// The running front-end: engine, hosts, admission queue, worker pool.
pub struct Frontend {
    core: Arc<Core>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Frontend {
    /// A front-end hosting TPC-C at `scale`, populated with `seed`.
    pub fn tpcc(scale: Scale, seed: u64, config: &ServerConfig) -> Frontend {
        Frontend::hosting(Mix::Tpcc, TpccKit::new(scale, seed, seed), config)
    }

    /// A front-end hosting smallbank over `accounts` accounts.
    pub fn smallbank(accounts: i64, config: &ServerConfig) -> Frontend {
        Frontend::hosting(Mix::Smallbank, SmallbankKit::build(accounts), config)
    }

    /// A front-end hosting the fulfilment saga over `skus` SKUs and
    /// `customers` customer accounts.
    pub fn saga(skus: i64, customers: i64, config: &ServerConfig) -> Frontend {
        Frontend::hosting(Mix::Saga, SagaKit::build(skus, customers), config)
    }

    /// A front-end serving `family` as `mix` under its own ACC, over its
    /// freshly populated base database.
    fn hosting(mix: Mix, family: impl Workload + 'static, config: &ServerConfig) -> Frontend {
        let shared = SharedDb::new(family.base(), family.tables() as _);
        let acc = family.acc();
        let host = WorkloadHost::new(mix, Box::new(family), acc);
        Frontend::start(shared, Box::new(host), config)
    }

    /// Wire an already-built engine and host into a running front-end.
    pub fn start(shared: SharedDb, host: Box<dyn Host>, config: &ServerConfig) -> Frontend {
        let core = Arc::new(Core {
            shared: Arc::new(shared),
            host,
            queue: AdmissionQueue::new(config.queue_cap),
            retry: config.engine_retry.clone(),
            stopping: AtomicBool::new(false),
        });
        let workers = (0..config.workers.max(1))
            .map(|_| {
                let core = Arc::clone(&core);
                std::thread::spawn(move || worker_loop(&core))
            })
            .collect();
        Frontend {
            core,
            workers: Mutex::new(workers),
        }
    }

    /// The engine (tests and benches audit locks, WAL, and counters here).
    pub fn shared(&self) -> &Arc<SharedDb> {
        &self.core.shared
    }

    /// The workload family served.
    pub fn mix(&self) -> Mix {
        self.core.host.mix()
    }

    /// Jobs currently waiting for a worker.
    pub fn queue_depth(&self) -> usize {
        self.core.queue.depth()
    }

    /// Admit or shed one request. Never blocks; every path produces exactly
    /// one response on `reply` (now, or when a worker finishes the job).
    pub fn submit(&self, req: Request, reply: Sender<Response>) {
        let received = Instant::now();
        let sink = self.core.shared.event_sink();
        if req.mix != self.core.host.mix() {
            let _ = reply.send(Response::Error {
                client_seq: req.client_seq,
                message: format!(
                    "server hosts {}, request addressed {}",
                    self.core.host.mix().name(),
                    req.mix.name()
                ),
            });
            return;
        }
        let deadline = (req.deadline_micros > 0)
            .then(|| received + Duration::from_micros(req.deadline_micros));
        let job = Job {
            client_seq: req.client_seq,
            mix: req.mix,
            seed: req.seed,
            deadline,
            received,
            reply,
        };
        match self.core.queue.offer(job) {
            (Offer::Queued(depth), None) => {
                if sink.is_enabled() {
                    sink.emit(Event::Admission {
                        verdict: AdmissionVerdict::Accepted,
                        queue_depth: depth,
                    });
                }
            }
            (Offer::Shed(depth), Some(job)) => {
                if sink.is_enabled() {
                    sink.emit(Event::Admission {
                        verdict: AdmissionVerdict::Shed,
                        queue_depth: depth,
                    });
                }
                let _ = job.reply.send(Response::Overloaded {
                    client_seq: job.client_seq,
                    queue_depth: depth,
                });
            }
            (Offer::Closed, Some(job)) => {
                let _ = job.reply.send(Response::Error {
                    client_seq: job.client_seq,
                    message: "server shutting down".into(),
                });
            }
            _ => unreachable!("offer returns the job exactly when it refuses it"),
        }
    }

    /// Stop accepting, drain the queue, and join the workers.
    pub fn shutdown(&self) {
        self.core.stopping.store(true, Ordering::SeqCst);
        self.core.queue.close();
        let mut workers = self.workers.lock().unwrap();
        for h in workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for Frontend {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(core: &Core) {
    while let Some(job) = core.queue.take() {
        let sink = core.shared.event_sink();
        // Expired while queued: answer without touching the engine.
        if job.deadline.is_some_and(|d| Instant::now() >= d) {
            if sink.is_enabled() {
                sink.emit(Event::Admission {
                    verdict: AdmissionVerdict::TimedOut,
                    queue_depth: core.queue.depth() as u32,
                });
            }
            let _ = job.reply.send(Response::DeadlineExceeded {
                client_seq: job.client_seq,
            });
            continue;
        }
        let mut engine_retries = 0u32;
        let mut backoff_rng = SeededRng::new(job.seed ^ RETRY_SALT);
        let response = loop {
            let mut program = core.host.program(job.seed);
            let ran = run_with_deadline(
                &core.shared,
                core.host.cc(),
                program.as_mut(),
                WaitMode::Block,
                job.deadline,
            );
            match ran {
                Ok((txn_id, RunOutcome::Committed { steps })) => {
                    break Response::Committed {
                        client_seq: job.client_seq,
                        txn_id: txn_id.0,
                        steps,
                        engine_retries,
                        latency_micros: job.received.elapsed().as_micros() as u64,
                    };
                }
                Ok((_, RunOutcome::RolledBack(AbortReason::Deadline))) => {
                    if sink.is_enabled() {
                        sink.emit(Event::Admission {
                            verdict: AdmissionVerdict::TimedOut,
                            queue_depth: core.queue.depth() as u32,
                        });
                    }
                    break Response::DeadlineExceeded {
                        client_seq: job.client_seq,
                    };
                }
                Ok((_, RunOutcome::RolledBack(reason))) => {
                    let wire = match reason {
                        AbortReason::Deadlock => WireAbort::Deadlock,
                        AbortReason::UserAbort => WireAbort::UserAbort,
                        AbortReason::Doomed => WireAbort::Doomed,
                        AbortReason::Deadline => unreachable!("handled above"),
                    };
                    let budget_left = job.deadline.is_none_or(|d| Instant::now() < d);
                    if wire.transient() && engine_retries < core.retry.max_retries && budget_left {
                        engine_retries += 1;
                        std::thread::sleep(core.retry.backoff(engine_retries, &mut backoff_rng));
                        continue;
                    }
                    break Response::RolledBack {
                        client_seq: job.client_seq,
                        reason: wire,
                    };
                }
                Err(e) => {
                    break Response::Error {
                        client_seq: job.client_seq,
                        message: e.to_string(),
                    };
                }
            }
        };
        let _ = job.reply.send(response);
    }
}

/// Serve `frontend` on `listener` until [`Frontend::shutdown`]. Returns the
/// accept-loop handle; each connection gets a reader thread and a writer
/// thread, so a slow or stalled client never blocks another connection.
pub fn serve(frontend: Arc<Frontend>, listener: TcpListener) -> std::thread::JoinHandle<()> {
    listener
        .set_nonblocking(true)
        .expect("listener nonblocking");
    std::thread::spawn(move || loop {
        if frontend.core.stopping.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((stream, _addr)) => {
                let frontend = Arc::clone(&frontend);
                std::thread::spawn(move || serve_conn(&frontend, stream));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => return,
        }
    })
}

fn serve_conn(frontend: &Frontend, stream: TcpStream) {
    let sink = frontend.core.shared.event_sink();
    if sink.is_enabled() {
        sink.emit(Event::ConnChurn { opened: true });
    }
    stream.set_nodelay(true).ok();
    let writer_stream = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let (tx, rx) = channel::<Response>();
    let writer = std::thread::spawn(move || {
        let mut out = Outbound::new();
        let mut stream = writer_stream;
        while let Ok(resp) = rx.recv() {
            if stream.write_all(&out.seal(&resp.encode())).is_err() {
                return;
            }
        }
    });
    let mut inbound = Inbound::new();
    let mut stream = stream;
    let mut chunk = [0u8; 4096];
    'conn: loop {
        let n = match stream.read(&mut chunk) {
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        let payloads = match inbound.feed(&chunk[..n]) {
            Ok(p) => p,
            // Poisoned framing: nothing later on this connection can be
            // trusted; drop it (the client sees EOF and reconnects).
            Err(_) => break,
        };
        for payload in payloads {
            match Request::decode(&payload) {
                Ok(req) => frontend.submit(req, tx.clone()),
                Err(e) => {
                    let _ = tx.send(Response::Error {
                        client_seq: 0,
                        message: format!("bad request: {e}"),
                    });
                    break 'conn;
                }
            }
        }
    }
    // Dropping `tx` lets the writer drain in-flight responses, then exit.
    drop(tx);
    let _ = writer.join();
    if sink.is_enabled() {
        sink.emit(Event::ConnChurn { opened: false });
    }
}

/// A minimal blocking client for the TCP front-end: one outstanding request
/// at a time, full-jitter resubmission of typed `Overloaded` sheds and
/// transient rollbacks under a [`RetryPolicy`].
pub struct Client {
    stream: TcpStream,
    inbound: Inbound,
    outbound: Outbound,
    pending: std::collections::VecDeque<Vec<u8>>,
    next_seq: u64,
}

impl Client {
    /// Connect.
    pub fn connect(addr: std::net::SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(Client {
            stream,
            inbound: Inbound::new(),
            outbound: Outbound::new(),
            pending: std::collections::VecDeque::new(),
            next_seq: 0,
        })
    }

    /// Submit one transaction and wait for its response.
    pub fn call(&mut self, mix: Mix, seed: u64, deadline: Option<Duration>) -> Result<Response> {
        self.next_seq += 1;
        let req = Request {
            client_seq: self.next_seq,
            deadline_micros: deadline.map_or(0, |d| d.as_micros().max(1) as u64),
            mix,
            seed,
        };
        let bytes = self.outbound.seal(&req.encode());
        self.stream
            .write_all(&bytes)
            .map_err(|e| acc_common::Error::Recovery(format!("send: {e}")))?;
        let mut chunk = [0u8; 4096];
        loop {
            if let Some(payload) = self.pending.pop_front() {
                return Response::decode(&payload);
            }
            let n = self
                .stream
                .read(&mut chunk)
                .map_err(|e| acc_common::Error::Recovery(format!("recv: {e}")))?;
            if n == 0 {
                return Err(acc_common::Error::Recovery(
                    "connection closed mid-call".into(),
                ));
            }
            self.pending.extend(self.inbound.feed(&chunk[..n])?);
        }
    }

    /// Submit with client-side resubmission: typed `Overloaded` sheds and
    /// transient rollbacks retry with full-jitter backoff until the policy's
    /// attempt budget is exhausted. Returns the final response and the
    /// number of resubmissions performed.
    pub fn call_with_retry(
        &mut self,
        mix: Mix,
        seed: u64,
        deadline: Option<Duration>,
        policy: &RetryPolicy,
        rng: &mut SeededRng,
    ) -> Result<(Response, u32)> {
        let mut resubmits = 0u32;
        loop {
            let resp = self.call(mix, seed, deadline)?;
            let transient = match &resp {
                Response::Overloaded { .. } => true,
                Response::RolledBack { reason, .. } => reason.transient(),
                _ => false,
            };
            if transient && resubmits < policy.max_retries {
                resubmits += 1;
                std::thread::sleep(policy.backoff(resubmits, rng));
                continue;
            }
            return Ok((resp, resubmits));
        }
    }
}
