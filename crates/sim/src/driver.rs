//! The discrete-event simulation driver.

use crate::metrics::{Completion, MetricsCollector};
use crate::trace::{Op, TraceSource, TxnTrace};
use acc_common::clock::SimTime;
use acc_common::events::{Event as ObsEvent, EventSink};
use acc_common::ids::LEGACY_STEP;
use acc_common::rng::SeededRng;
use acc_common::TxnId;
use acc_lockmgr::{
    InterferenceOracle, LockKind, LockManager, Request, RequestCtx, RequestOutcome, Ticket,
};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::sync::Arc;

/// Which concurrency control the simulated system runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CcMode {
    /// The baseline: strict 2PL, locks held to commit, step boundaries
    /// ignored (unmodified Open Ingres).
    TwoPhase,
    /// The one-level assertional concurrency control: conventional locks
    /// released at step boundaries, assertional locks *attached to items*
    /// per the interference oracle, plus the ACC's own CPU overheads.
    Acc,
    /// The paper's earlier two-level design (§3.2): assertional locks are
    /// taken on the *assertions themselves* — one global resource per
    /// template — because the dispatcher above the lock manager cannot see
    /// item identity. Interfering steps then conflict with a pinned template
    /// anywhere in the database: the "false conflicts" the one-level
    /// integration exists to eliminate.
    AccTwoLevel,
}

impl CcMode {
    /// Both ACC variants decompose transactions.
    pub fn is_acc(self) -> bool {
        matches!(self, CcMode::Acc | CcMode::AccTwoLevel)
    }
}

/// Resource-id base for two-level template locks (one global resource per
/// assertion template).
const TEMPLATE_RESOURCE_BASE: u32 = u32::MAX - 4096;

/// CPU cost parameters (calibration documented in `EXPERIMENTS.md`).
#[derive(Debug, Clone)]
pub struct CostModel {
    /// CPU per lock/unlock pair, charged per conventional lock an op takes.
    pub lock_op: SimTime,
    /// Extra CPU per *assertional* lock op (ACC only).
    pub assert_op: SimTime,
    /// CPU per end-of-step record + work-area save (ACC only), folded into
    /// the last statement of each step.
    pub step_end: SimTime,
    /// Back-off before a deadlock victim retries.
    pub deadlock_backoff: SimTime,
    /// CPU per write op during rollback/compensation.
    pub undo_op: SimTime,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            lock_op: SimTime::from_micros(120),
            assert_op: SimTime::from_micros(160),
            step_end: SimTime::from_micros(1200),
            deadlock_backoff: SimTime::from_millis(4),
            undo_op: SimTime::from_micros(600),
        }
    }
}

/// Simulation parameters.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Concurrency control under test.
    pub mode: CcMode,
    /// Number of database server CPUs (paper: 1–3).
    pub servers: usize,
    /// Number of closed-loop terminals (paper: 0–60).
    pub terminals: usize,
    /// Mean think time between transactions.
    pub think_time: SimTime,
    /// Simulated run length.
    pub duration: SimTime,
    /// Completions before this time are discarded.
    pub warmup: SimTime,
    /// Seed; a (config, seed) pair is fully deterministic.
    pub seed: u64,
    /// CPU cost model.
    pub costs: CostModel,
    /// Ablation switch: when false in [`CcMode::Acc`], conventional locks
    /// are *not* released at step boundaries (everything else — assertional
    /// locks, overhead costs, compensation — stays). Isolates how much of
    /// the ACC's win comes from the step-boundary release. Default true.
    pub release_at_step_end: bool,
    /// [`CcMode::AccTwoLevel`] only: the system's assertion templates. Every
    /// write additionally declares intent (IX) on each template's global
    /// resource; the interference oracle decides whether that intent
    /// conflicts with a pinned assertion — without item identity, so every
    /// pin of a template blocks interfering writers database-wide.
    pub two_level_templates: Vec<acc_common::AssertionTemplateId>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum EvKind {
    Submit,
    Resume,
    ComputeDone,
    ServiceDone,
    Granted,
}

type Event = (Reverse<(u64, u64)>, EvKind, usize, u64); // (time,seq), kind, terminal, epoch

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Idle,
    Locking,
    InService,
    Waiting,
}

struct Term {
    rng: SeededRng,
    trace: Option<TxnTrace>,
    txn: TxnId,
    epoch: u64,
    step: usize,
    op: usize,
    rolling_back: bool,
    comp_ops: Vec<Op>,
    pending: VecDeque<(acc_common::ResourceId, LockKind)>,
    waiting_ticket: Option<Ticket>,
    compute_done: bool,
    submit: SimTime,
    phase: Phase,
    /// Consecutive deadlock victimizations of the current step (§3.4: retry
    /// once, then roll the transaction back by compensation).
    deadlock_retries: u32,
    /// Sim time at which the terminal entered its current lock wait.
    wait_since: Option<SimTime>,
}

/// The simulator. Construct with [`Simulator::new`], call
/// [`Simulator::run`].
pub struct Simulator<'a> {
    config: SimConfig,
    oracle: &'a dyn InterferenceOracle,
    source: &'a mut dyn TraceSource,
    lm: LockManager,
    now: SimTime,
    seq: u64,
    events: BinaryHeap<Event>,
    terms: Vec<Term>,
    ticket_owner: HashMap<Ticket, usize>,
    txn_owner: HashMap<TxnId, usize>,
    next_txn: u64,
    cpu_free: usize,
    cpu_queue: VecDeque<(usize, SimTime, u64)>, // (terminal, demand, epoch)
    metrics: MetricsCollector,
}

impl<'a> Simulator<'a> {
    /// Build a simulator over a trace source and interference oracle.
    pub fn new(
        config: SimConfig,
        oracle: &'a dyn InterferenceOracle,
        source: &'a mut dyn TraceSource,
    ) -> Self {
        let warmup = config.warmup;
        let servers = config.servers;
        let mut rng = SeededRng::new(config.seed);
        let terms = (0..config.terminals)
            .map(|_| Term {
                rng: rng.fork(),
                trace: None,
                txn: TxnId(0),
                epoch: 0,
                step: 0,
                op: 0,
                rolling_back: false,
                comp_ops: Vec::new(),
                pending: VecDeque::new(),
                waiting_ticket: None,
                compute_done: false,
                submit: SimTime::ZERO,
                phase: Phase::Idle,
                deadlock_retries: 0,
                wait_since: None,
            })
            .collect();
        // Simulations always record: the sink's counters become part of the
        // report and the ring feeds `lockstat` dumps.
        let mut lm = LockManager::new();
        lm.set_sink(EventSink::enabled(4096));
        Simulator {
            config,
            oracle,
            source,
            lm,
            now: SimTime::ZERO,
            seq: 0,
            events: BinaryHeap::new(),
            terms,
            ticket_owner: HashMap::new(),
            txn_owner: HashMap::new(),
            next_txn: 1,
            cpu_free: servers,
            cpu_queue: VecDeque::new(),
            metrics: MetricsCollector::new(warmup),
        }
    }

    /// The simulator's event sink (clone before [`Simulator::run`] to read
    /// counters or dump `lockstat` afterwards).
    pub fn event_sink(&self) -> Arc<EventSink> {
        Arc::clone(self.lm.sink())
    }

    fn push(&mut self, at: SimTime, kind: EvKind, term: usize, epoch: u64) {
        self.seq += 1;
        self.events
            .push((Reverse((at.as_micros(), self.seq)), kind, term, epoch));
    }

    /// Run to completion and report.
    pub fn run(mut self) -> crate::metrics::SimReport {
        // Initial thinks, staggered by the think distribution.
        for t in 0..self.terms.len() {
            let think = self.think(t);
            self.push(think, EvKind::Submit, t, 0);
        }
        while let Some((Reverse((at, _)), kind, t, epoch)) = self.events.pop() {
            if at > self.config.duration.as_micros() {
                break;
            }
            self.now = SimTime::from_micros(at);
            match kind {
                EvKind::Submit => self.on_submit(t),
                EvKind::Resume => {
                    if self.terms[t].epoch == epoch {
                        self.start_op(t);
                    }
                }
                EvKind::ComputeDone => {
                    if self.terms[t].epoch == epoch {
                        self.start_op(t);
                    }
                }
                EvKind::ServiceDone => self.on_service_done(t, epoch),
                EvKind::Granted => {
                    if self.terms[t].epoch == epoch && self.terms[t].phase == Phase::Waiting {
                        if let Some(since) = self.terms[t].wait_since.take() {
                            let sink = self.lm.sink();
                            if sink.is_enabled() {
                                if let Some(&(resource, _)) = self.terms[t].pending.front() {
                                    sink.emit(ObsEvent::WaitEnd {
                                        txn: self.terms[t].txn,
                                        resource,
                                        micros: self.now.since(since).as_micros(),
                                    });
                                }
                            }
                        }
                        self.terms[t].phase = Phase::Locking;
                        self.terms[t].waiting_ticket = None;
                        self.terms[t].pending.pop_front();
                        self.acquire_next(t);
                    }
                }
            }
        }
        let servers = self.config.servers;
        let end = self.config.duration;
        self.metrics.report(end, servers, self.lm.sink().counters())
    }

    fn think(&mut self, t: usize) -> SimTime {
        let mean = self.config.think_time.as_micros() as f64;
        let d = if mean > 0.0 {
            self.terms[t].rng.exponential(mean) as u64
        } else {
            0
        };
        SimTime::from_micros(self.now.as_micros() + d)
    }

    fn on_submit(&mut self, t: usize) {
        let trace = self.source.next_trace(&mut self.terms[t].rng);
        let txn = TxnId(self.next_txn);
        self.next_txn += 1;
        let term = &mut self.terms[t];
        term.trace = Some(trace);
        term.txn = txn;
        term.step = 0;
        term.op = 0;
        term.rolling_back = false;
        term.comp_ops.clear();
        term.pending.clear();
        term.waiting_ticket = None;
        term.wait_since = None;
        term.compute_done = false;
        term.submit = self.now;
        term.epoch += 1;
        term.deadlock_retries = 0;
        self.txn_owner.insert(txn, t);
        self.start_op(t);
    }

    /// The op the terminal is currently executing.
    fn current_op(&self, t: usize) -> Option<Op> {
        let term = &self.terms[t];
        if term.rolling_back {
            return term.comp_ops.get(term.op).cloned();
        }
        let trace = term.trace.as_ref()?;
        trace.steps.get(term.step)?.ops.get(term.op).cloned()
    }

    fn request_ctx(&self, t: usize) -> RequestCtx {
        let term = &self.terms[t];
        match self.config.mode {
            CcMode::TwoPhase => RequestCtx::plain(LEGACY_STEP),
            CcMode::Acc | CcMode::AccTwoLevel => {
                let trace = term.trace.as_ref().expect("active trace");
                let step_type = if term.rolling_back {
                    trace.comp_step.unwrap_or(LEGACY_STEP)
                } else {
                    trace.steps[term.step].step_type
                };
                RequestCtx {
                    step_type,
                    comp_step: trace.comp_step,
                    compensating: term.rolling_back,
                }
            }
        }
    }

    fn start_op(&mut self, t: usize) {
        let Some(op) = self.current_op(t) else {
            // No ops left at this position (e.g. empty compensation): let the
            // advance logic settle it.
            self.advance(t);
            return;
        };
        let epoch = self.terms[t].epoch;
        if !self.terms[t].compute_done && op.compute_before > SimTime::ZERO {
            self.terms[t].compute_done = true;
            self.push(self.now + op.compute_before, EvKind::ComputeDone, t, epoch);
            return;
        }
        // Coordination-free version read (MVCC-lite): a declared read-only
        // transaction whose step's write row is all-clear in the pinned
        // interference tables reads committed row versions and never touches
        // the lock manager.
        if self.version_fast_path(t, &op) {
            let sink = self.lm.sink();
            if sink.is_enabled() {
                let txn = self.terms[t].txn;
                if let Some(table) = op.locks.first().and_then(|(r, _)| r.table()) {
                    sink.emit(ObsEvent::VersionRead { txn, table });
                }
            }
            self.terms[t].pending.clear();
            self.enter_service(t);
            return;
        }
        // Build the lock list for this op: the statement's conventional
        // locks, plus (under the ACC) a DIRTY pin on every written resource
        // and the active assertion templates on every locked resource.
        let mut kinds = VecDeque::new();
        for &(r, mode) in &op.locks {
            kinds.push_back((r, LockKind::Conventional(mode)));
        }
        if self.config.mode.is_acc() {
            let two_level = self.config.mode == CcMode::AccTwoLevel;
            let global = |tpl: acc_common::AssertionTemplateId| {
                acc_common::ResourceId::Named(TEMPLATE_RESOURCE_BASE + tpl.raw())
            };
            for &(r, mode) in &op.locks {
                // Guard pins mark *items actually written* (X locks), never
                // table-level intention locks — a table-level pin would
                // freeze the whole table until commit. Guards stay
                // item-attached in both designs (they model exposure of the
                // written item itself, which both levels can locate).
                if mode == acc_lockmgr::LockMode::X {
                    let guard = self.terms[t].trace.as_ref().expect("active trace").guard;
                    kinds.push_back((r, LockKind::Assertional(guard)));
                }
                for &tpl in &op.templates {
                    // One-level: pin the assertion on the item itself.
                    // Two-level: pin the assertion's own global resource —
                    // the design-time dispatcher has no item identity.
                    let target = if two_level { global(tpl) } else { r };
                    kinds.push_back((target, LockKind::Assertional(tpl)));
                }
                // Two-level: every access declares intent against every
                // template in the system (IX for writes, IS for reads); the
                // oracle's table lookup decides which intents actually
                // conflict with pinned assertions. This is where the false
                // conflicts live: an intent meets pins from *any* item.
                if two_level {
                    let intent = if mode.is_write() {
                        acc_lockmgr::LockMode::IX
                    } else {
                        acc_lockmgr::LockMode::IS
                    };
                    for &tpl in &self.config.two_level_templates {
                        kinds.push_back((global(tpl), LockKind::Conventional(intent)));
                    }
                }
            }
        }
        self.terms[t].pending = kinds;
        self.terms[t].phase = Phase::Locking;
        self.acquire_next(t);
    }

    fn acquire_next(&mut self, t: usize) {
        loop {
            let Some(&(resource, kind)) = self.terms[t].pending.front() else {
                self.enter_service(t);
                return;
            };
            let ctx = self.request_ctx(t);
            let req = Request::new(self.terms[t].txn, resource, kind, ctx);
            match self.lm.request(req, self.oracle) {
                RequestOutcome::Granted => {
                    self.terms[t].pending.pop_front();
                }
                RequestOutcome::Waiting(ticket) => {
                    self.terms[t].phase = Phase::Waiting;
                    self.terms[t].waiting_ticket = Some(ticket);
                    self.terms[t].wait_since = Some(self.now);
                    self.ticket_owner.insert(ticket, t);
                    return;
                }
                RequestOutcome::Deadlock { victims, ticket } => {
                    if victims.contains(&self.terms[t].txn) {
                        self.metrics.deadlocks += 1;
                        self.deadlock_retry(t);
                        return;
                    }
                    // Compensating requester: doom the steps delaying us.
                    // Register our queued ticket BEFORE aborting the victims:
                    // their lock releases may grant it immediately, and an
                    // unregistered ticket's notice would be lost.
                    let ticket = ticket.expect("compensating request stays queued");
                    self.terms[t].phase = Phase::Waiting;
                    self.terms[t].waiting_ticket = Some(ticket);
                    self.terms[t].wait_since = Some(self.now);
                    self.ticket_owner.insert(ticket, t);
                    for v in victims {
                        if let Some(&vt) = self.txn_owner.get(&v) {
                            self.metrics.deadlocks += 1;
                            self.force_restart(vt);
                        }
                    }
                    return;
                }
            }
        }
    }

    /// The version-read gate, both halves (mirrors the live engine's
    /// `StepCtx::version_reads_enabled`): the trace declares the whole
    /// transaction read-only, and the interference oracle clears the step's
    /// write row. Write ops and compensation never qualify.
    fn version_fast_path(&self, t: usize, op: &Op) -> bool {
        let term = &self.terms[t];
        if !self.config.mode.is_acc() || term.rolling_back || op.is_write() {
            return false;
        }
        let Some(trace) = term.trace.as_ref() else {
            return false;
        };
        trace.version_safe
            && self
                .oracle
                .version_read_safe(trace.steps[term.step].step_type)
    }

    /// Total CPU demand for the current op: statement cost + lock-op costs
    /// (+ end-of-step cost folded into the last op of each ACC step).
    fn service_demand(&self, t: usize, op: &Op) -> SimTime {
        let costs = &self.config.costs;
        let term = &self.terms[t];
        if self.version_fast_path(t, op) {
            // No lock-manager work at all: the statement plus the
            // end-of-step record.
            let trace = term.trace.as_ref().expect("active trace");
            let is_last_in_step = term.op + 1 == trace.steps[term.step].ops.len();
            return if is_last_in_step {
                op.cpu + costs.step_end
            } else {
                op.cpu
            };
        }
        let n_locks = op.locks.len().max(1) as u64;
        let mut d = op.cpu + SimTime::from_micros(costs.lock_op.as_micros() * n_locks);
        if self.config.mode.is_acc() {
            let n_writes = op.locks.iter().filter(|(_, m)| m.is_write()).count();
            let n_assert = op.locks.len() * op.templates.len() + n_writes;
            d = d + SimTime::from_micros(costs.assert_op.as_micros() * n_assert as u64);
            if !term.rolling_back {
                let trace = term.trace.as_ref().expect("active trace");
                let is_last_in_step = term.op + 1 == trace.steps[term.step].ops.len();
                if is_last_in_step {
                    d = d + costs.step_end;
                }
            } else {
                d = d + costs.undo_op;
            }
        } else if term.rolling_back {
            d = d + costs.undo_op;
        }
        d
    }

    fn enter_service(&mut self, t: usize) {
        let op = self.current_op(t).expect("op to serve");
        let demand = self.service_demand(t, &op);
        self.terms[t].phase = Phase::InService;
        if self.cpu_free > 0 {
            self.cpu_free -= 1;
            self.metrics.busy_time += demand.as_micros();
            let epoch = self.terms[t].epoch;
            self.push(self.now + demand, EvKind::ServiceDone, t, epoch);
        } else {
            let epoch = self.terms[t].epoch;
            self.cpu_queue.push_back((t, demand, epoch));
        }
    }

    fn on_service_done(&mut self, t: usize, epoch: u64) {
        // Free the server regardless of whether the terminal still wants the
        // result (it may have been force-restarted mid-service).
        self.cpu_free += 1;
        while self.cpu_free > 0 {
            let Some((qt, demand, qe)) = self.cpu_queue.pop_front() else {
                break;
            };
            // Skip stale queue entries from restarted terminals.
            if self.terms[qt].epoch != qe || self.terms[qt].phase != Phase::InService {
                continue;
            }
            self.cpu_free -= 1;
            self.metrics.busy_time += demand.as_micros();
            let qepoch = self.terms[qt].epoch;
            self.push(self.now + demand, EvKind::ServiceDone, qt, qepoch);
        }
        if self.terms[t].epoch == epoch && self.terms[t].phase == Phase::InService {
            self.advance(t);
        }
    }

    /// The current op finished service: move to the next op / step / commit.
    fn advance(&mut self, t: usize) {
        self.terms[t].op += 1;
        self.terms[t].compute_done = false;

        if self.terms[t].rolling_back {
            if self.terms[t].op >= self.terms[t].comp_ops.len() {
                self.finish(t, false);
            } else {
                self.start_op(t);
            }
            return;
        }

        let (n_ops_in_step, n_steps, abort_after) = {
            let trace = self.terms[t].trace.as_ref().expect("active trace");
            (
                trace.steps[self.terms[t].step].ops.len(),
                trace.steps.len(),
                trace.abort_after_step,
            )
        };

        if self.terms[t].op < n_ops_in_step {
            self.start_op(t);
            return;
        }

        // Step boundary.
        self.terms[t].deadlock_retries = 0;
        if self.config.mode.is_acc() && self.config.release_at_step_end {
            let txn = self.terms[t].txn;
            let notices = self
                .lm
                .release_where(txn, self.oracle, |k, _| k.is_conventional());
            self.post_notices(notices);
        }
        self.terms[t].step += 1;
        self.terms[t].op = 0;

        if abort_after == Some(self.terms[t].step) {
            self.begin_rollback(t);
            return;
        }
        if self.terms[t].step >= n_steps {
            self.finish(t, true);
            return;
        }
        self.start_op(t);
    }

    /// The workload-mandated abort: compensate (ACC) or physically undo
    /// (2PL) the completed work.
    fn begin_rollback(&mut self, t: usize) {
        let steps_done = self.terms[t].step;
        let comp = {
            let trace = self.terms[t].trace.as_ref().expect("active trace");
            trace.compensation_ops(steps_done)
        };
        self.terms[t].rolling_back = true;
        self.terms[t].comp_ops = comp;
        self.terms[t].op = 0;
        self.terms[t].compute_done = false;
        let sink = self.lm.sink();
        if sink.is_enabled() {
            sink.emit(ObsEvent::CompensationStart {
                txn: self.terms[t].txn,
                from_step: steps_done as u32,
            });
        }
        if self.terms[t].comp_ops.is_empty() {
            self.finish(t, false);
        } else {
            self.start_op(t);
        }
    }

    fn finish(&mut self, t: usize, committed: bool) {
        let txn = self.terms[t].txn;
        let notices = self.lm.release_all(txn, self.oracle);
        self.post_notices(notices);
        self.txn_owner.remove(&txn);
        self.metrics.record(Completion {
            submit: self.terms[t].submit,
            finish: self.now,
            committed,
        });
        self.terms[t].trace = None;
        self.terms[t].phase = Phase::Idle;
        self.terms[t].epoch += 1;
        let think = self.think(t);
        self.push(think, EvKind::Submit, t, 0);
    }

    /// Deadlock victim: release and retry — the whole transaction under 2PL
    /// (restart), the current step under the ACC. A recurring ACC deadlock
    /// escalates to transaction rollback by compensation (paper §3.4: "If
    /// the deadlock recurs when S_{i,j} restarts, the system will rollback
    /// T_i by executing CS_{i,j-1}").
    fn deadlock_retry(&mut self, t: usize) {
        let txn = self.terms[t].txn;
        let notices = match self.config.mode {
            CcMode::TwoPhase => {
                let n = self.lm.release_all(txn, self.oracle);
                self.terms[t].step = 0;
                n
            }
            CcMode::Acc | CcMode::AccTwoLevel => {
                let mut n = self.lm.cancel_waiting(txn, self.oracle);
                n.extend(
                    self.lm
                        .release_where(txn, self.oracle, |k, _| k.is_conventional()),
                );
                n
            }
        };
        self.post_notices(notices);
        self.terms[t].deadlock_retries += 1;
        if self.config.mode.is_acc()
            && !self.terms[t].rolling_back
            && self.terms[t].deadlock_retries > 1
        {
            // Recurring deadlock: roll the transaction back. Compensation
            // ops run with `compensating = true`, so they doom whatever
            // still delays them — this is what breaks symmetric pin-vs-pin
            // convoys the step retry alone cannot resolve.
            self.terms[t].pending.clear();
            self.terms[t].waiting_ticket = None;
            self.terms[t].wait_since = None;
            self.terms[t].compute_done = false;
            self.terms[t].phase = Phase::Idle;
            self.terms[t].epoch += 1;
            self.begin_rollback(t);
            return;
        }
        self.metrics.retries += 1;
        self.terms[t].op = 0;
        self.terms[t].pending.clear();
        self.terms[t].waiting_ticket = None;
        self.terms[t].wait_since = None;
        self.terms[t].compute_done = false;
        self.terms[t].phase = Phase::Idle;
        self.terms[t].epoch += 1;
        let epoch = self.terms[t].epoch;
        self.push(
            self.now + self.config.costs.deadlock_backoff,
            EvKind::Resume,
            t,
            epoch,
        );
    }

    /// Doomed by a compensating step: abort and resubmit the transaction.
    fn force_restart(&mut self, t: usize) {
        if self.terms[t].trace.is_none() {
            return;
        }
        self.metrics.restarts += 1;
        let txn = self.terms[t].txn;
        let notices = self.lm.release_all(txn, self.oracle);
        self.post_notices(notices);
        self.terms[t].step = 0;
        self.terms[t].op = 0;
        self.terms[t].pending.clear();
        self.terms[t].waiting_ticket = None;
        self.terms[t].wait_since = None;
        self.terms[t].compute_done = false;
        self.terms[t].rolling_back = false;
        self.terms[t].phase = Phase::Idle;
        self.terms[t].epoch += 1;
        let epoch = self.terms[t].epoch;
        self.push(
            self.now + self.config.costs.deadlock_backoff,
            EvKind::Resume,
            t,
            epoch,
        );
    }

    fn post_notices(&mut self, notices: Vec<acc_lockmgr::GrantNotice>) {
        for n in notices {
            if let Some(t) = self.ticket_owner.remove(&n.ticket) {
                let epoch = self.terms[t].epoch;
                self.push(self.now, EvKind::Granted, t, epoch);
            }
        }
    }
}
