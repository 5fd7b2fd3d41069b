//! The lock manager state machine.

use crate::mode::{conv_compatible, LockMode};
use crate::oracle::InterferenceOracle;
use crate::request::{LockKind, Request, RequestCtx};
use crate::waitfor::{break_cycle, CycleResolution, WaitForGraph};
use acc_common::events::{Event, EventSink, KindRepr};
use acc_common::{ResourceId, TxnId};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

/// Identifies a waiting request; returned on enqueue, echoed on grant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ticket(pub u64);

/// The result of [`LockManager::request`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestOutcome {
    /// The lock is held; proceed.
    Granted,
    /// The request is queued; the caller parks until the ticket appears in a
    /// [`GrantNotice`].
    Waiting(Ticket),
    /// Enqueuing this request closed a wait-for cycle.
    Deadlock {
        /// Transactions whose current steps must be aborted to break the
        /// cycle. If the requester was executing a compensating step these
        /// are the *other* cycle members (paper §3.4); otherwise it is the
        /// requester itself.
        victims: Vec<TxnId>,
        /// `Some` if the request stayed queued (compensating requester) and
        /// will be granted once the victims release.
        ticket: Option<Ticket>,
    },
}

/// What [`LockManager::grant_or_enqueue`] did with a request: granted it or
/// queued it. Deadlock detection is the caller's next move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EnqueueOutcome {
    /// The lock is held; proceed.
    Granted,
    /// The request is queued under this ticket.
    Waiting(Ticket),
}

/// A formerly waiting request that has now been granted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GrantNotice {
    /// The ticket returned when the request was enqueued.
    pub ticket: Ticket,
    /// The transaction whose request was granted.
    pub txn: TxnId,
    /// The resource it now holds.
    pub resource: ResourceId,
}

#[derive(Debug, Clone)]
struct Grant {
    txn: TxnId,
    kind: LockKind,
    ctx: RequestCtx,
    count: u32,
}

#[derive(Debug, Clone)]
struct Waiter {
    ticket: Ticket,
    req: Request,
}

#[derive(Debug, Default)]
struct LockHead {
    granted: Vec<Grant>,
    waiting: VecDeque<Waiter>,
}

/// The lock manager. Pure state machine: see the crate docs for how the
/// threaded engine, the deterministic stepper and the simulator drive it.
#[derive(Debug, Default)]
pub struct LockManager {
    heads: HashMap<ResourceId, LockHead>,
    held: HashMap<TxnId, HashSet<ResourceId>>,
    next_ticket: u64,
    /// Observability sink; disabled by default, so the hot path pays one
    /// relaxed atomic load per instrumented site.
    sink: Arc<EventSink>,
}

impl LockManager {
    /// An empty lock table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Route this manager's events into `sink` (shared with whoever reads
    /// counters/dumps from it).
    pub fn set_sink(&mut self, sink: Arc<EventSink>) {
        self.sink = sink;
    }

    /// The manager's event sink.
    pub fn sink(&self) -> &Arc<EventSink> {
        &self.sink
    }

    /// The observability image of a lock kind.
    pub fn kind_repr(kind: LockKind) -> KindRepr {
        match kind {
            LockKind::Conventional(LockMode::IS) => KindRepr::IS,
            LockKind::Conventional(LockMode::IX) => KindRepr::IX,
            LockKind::Conventional(LockMode::S) => KindRepr::S,
            LockKind::Conventional(LockMode::SIX) => KindRepr::SIX,
            LockKind::Conventional(LockMode::X) => KindRepr::X,
            LockKind::Assertional(t) => KindRepr::assertional(t),
        }
    }

    /// Start ticket numbering at `base`. The sharded front end gives each
    /// shard a disjoint namespace (shard index in the high bits) so a ticket
    /// alone identifies its shard and tickets never collide across shards.
    pub fn set_ticket_base(&mut self, base: u64) {
        debug_assert_eq!(self.next_ticket, 0, "set the base before any request");
        self.next_ticket = base;
    }

    /// Request a lock. See [`RequestOutcome`].
    pub fn request(&mut self, req: Request, oracle: &dyn InterferenceOracle) -> RequestOutcome {
        match self.grant_or_enqueue(req, oracle) {
            EnqueueOutcome::Granted => RequestOutcome::Granted,
            EnqueueOutcome::Waiting(ticket) => self.detect_enqueued(req, ticket, oracle),
        }
    }

    /// The grant-or-enqueue half of [`LockManager::request`]: grants
    /// immediately when compatible, otherwise queues the request — but runs
    /// *no* deadlock detection. The sharded front end uses this directly and
    /// then detects across all shards; [`LockManager::request`] composes it
    /// with local detection.
    pub(crate) fn grant_or_enqueue(
        &mut self,
        req: Request,
        oracle: &dyn InterferenceOracle,
    ) -> EnqueueOutcome {
        if self.sink.is_enabled() {
            self.sink.emit(Event::LockRequest {
                txn: req.txn,
                resource: req.resource,
                kind: Self::kind_repr(req.kind),
                step_type: req.ctx.step_type,
                compensating: req.ctx.compensating,
            });
        }
        let head = self.heads.entry(req.resource).or_default();

        // Re-entrant and covered requests.
        if let Some(g) = head
            .granted
            .iter_mut()
            .find(|g| g.txn == req.txn && Self::same_class(g.kind, req.kind))
        {
            match (g.kind, req.kind) {
                (LockKind::Conventional(held), LockKind::Conventional(want))
                    if held.covers(want) =>
                {
                    g.count += 1;
                    self.sink.emit(Event::LockGranted {
                        txn: req.txn,
                        resource: req.resource,
                        kind: Self::kind_repr(req.kind),
                        step_type: req.ctx.step_type,
                        compensating: req.ctx.compensating,
                    });
                    return EnqueueOutcome::Granted;
                }
                (LockKind::Assertional(a), LockKind::Assertional(b)) if a == b => {
                    g.count += 1;
                    self.sink.emit(Event::LockGranted {
                        txn: req.txn,
                        resource: req.resource,
                        kind: Self::kind_repr(req.kind),
                        step_type: req.ctx.step_type,
                        compensating: req.ctx.compensating,
                    });
                    return EnqueueOutcome::Granted;
                }
                _ => {} // conventional upgrade, handled below
            }
        }

        let upgrade = Self::upgrade_target(head, &req);
        let effective_kind = upgrade.map(LockKind::Conventional).unwrap_or(req.kind);

        let blocked_by_grant = head
            .granted
            .iter()
            .any(|g| g.txn != req.txn && Self::conflicts(effective_kind, &req.ctx, g, oracle));
        // Strict FIFO: a brand-new request waits behind any queued waiter —
        // UNLESS the requester already holds a grant on this resource
        // (conventional upgrade, or an assertional pin added next to an
        // existing conventional lock). Such requests must jump the queue:
        // the queued waiters are blocked by the requester's own grant and
        // could never be granted first, so queueing behind them would be a
        // guaranteed deadlock.
        let own_grant = head.granted.iter().any(|g| g.txn == req.txn);
        let priority = upgrade.is_some() || own_grant;
        let blocked_by_queue = !priority && !head.waiting.is_empty();

        if !blocked_by_grant && !blocked_by_queue {
            Self::install_grant(head, &req, effective_kind);
            self.held.entry(req.txn).or_default().insert(req.resource);
            if self.sink.is_enabled() {
                Self::emit_grant(&self.sink, req.txn, req.resource, effective_kind, &req.ctx);
            }
            return EnqueueOutcome::Granted;
        }

        // Queue-cause analysis for the event log (off the disabled-sink hot
        // path): was the wait forced by a real interference-table hit, or
        // purely by FIFO position behind an earlier waiter?
        if self.sink.is_enabled() {
            let mut blocked_by_assertion = false;
            for g in head.granted.iter() {
                if g.txn == req.txn || !Self::conflicts(effective_kind, &req.ctx, g, oracle) {
                    continue;
                }
                if let LockKind::Assertional(template) = g.kind {
                    blocked_by_assertion = true;
                    self.sink.emit(Event::InterferenceHit {
                        txn: req.txn,
                        step_type: req.ctx.step_type,
                        template,
                        resource: req.resource,
                    });
                }
            }
            self.sink.emit(Event::LockWait {
                txn: req.txn,
                resource: req.resource,
                kind: Self::kind_repr(effective_kind),
                compensating: req.ctx.compensating,
                blocked_by_assertion,
                conservative: !blocked_by_grant && blocked_by_queue,
            });
        }

        // Enqueue.
        let ticket = Ticket(self.next_ticket);
        self.next_ticket += 1;
        let mut queued_req = req;
        queued_req.kind = effective_kind;
        let waiter = Waiter {
            ticket,
            req: queued_req,
        };
        if priority {
            head.waiting.push_front(waiter);
        } else {
            head.waiting.push_back(waiter);
        }
        EnqueueOutcome::Waiting(ticket)
    }

    /// The enqueue-time deadlock check of [`LockManager::request`], run after
    /// [`LockManager::grant_or_enqueue`] returned a ticket.
    fn detect_enqueued(
        &mut self,
        req: Request,
        ticket: Ticket,
        oracle: &dyn InterferenceOracle,
    ) -> RequestOutcome {
        let Some(cycle) = self.wait_graph(oracle).cycle_through(req.txn) else {
            return RequestOutcome::Waiting(ticket);
        };
        let resolution = break_cycle(&self.sink, &cycle, req.txn, req.ctx.compensating, |t| {
            self.has_compensating_waiter(t)
        });
        match resolution {
            CycleResolution::Retry => {
                // Withdrawn in the critical section that queued it, so the
                // drain grants nothing.
                let mut unblocked = Vec::new();
                self.withdraw_ticket(req.resource, ticket, oracle, &mut unblocked);
                debug_assert!(unblocked.is_empty(), "{unblocked:?}");
                RequestOutcome::Deadlock {
                    victims: vec![req.txn],
                    ticket: None,
                }
            }
            CycleResolution::Doom(victims) => RequestOutcome::Deadlock {
                victims,
                ticket: Some(ticket),
            },
        }
    }

    /// Release every grant of `txn` for which `pred` returns true. Returns
    /// the waiters that became grantable.
    pub fn release_where(
        &mut self,
        txn: TxnId,
        oracle: &dyn InterferenceOracle,
        pred: impl Fn(LockKind, &RequestCtx) -> bool,
    ) -> Vec<GrantNotice> {
        let mut resources: Vec<ResourceId> = self
            .held
            .get(&txn)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default();
        // Same ordering requirement as `cancel_waiting`: release (and hence
        // wake) in resource order, not hash order.
        resources.sort_unstable();
        let mut notices = Vec::new();
        for r in resources {
            let head = self.heads.get_mut(&r).expect("held resource has a head");
            let before = head.granted.len();
            if self.sink.is_enabled() {
                for g in head.granted.iter() {
                    if g.txn == txn && pred(g.kind, &g.ctx) {
                        self.sink.emit(Event::LockReleased {
                            txn,
                            resource: r,
                            kind: Self::kind_repr(g.kind),
                        });
                    }
                }
            }
            head.granted
                .retain(|g| !(g.txn == txn && pred(g.kind, &g.ctx)));
            let changed = head.granted.len() != before;
            if !head.granted.iter().any(|g| g.txn == txn) {
                if let Some(set) = self.held.get_mut(&txn) {
                    set.remove(&r);
                }
            }
            if changed {
                self.process_queue(r, oracle, &mut notices);
            }
        }
        if self.held.get(&txn).is_some_and(|s| s.is_empty()) {
            self.held.remove(&txn);
        }
        notices
    }

    /// Release everything `txn` holds and cancel anything it is waiting for.
    pub fn release_all(&mut self, txn: TxnId, oracle: &dyn InterferenceOracle) -> Vec<GrantNotice> {
        let mut notices = self.cancel_waiting(txn, oracle);
        notices.extend(self.release_where(txn, oracle, |_, _| true));
        notices
    }

    /// Remove `txn`'s queued (not yet granted) requests. Returns waiters that
    /// became grantable because a queue blocker disappeared.
    pub fn cancel_waiting(
        &mut self,
        txn: TxnId,
        oracle: &dyn InterferenceOracle,
    ) -> Vec<GrantNotice> {
        let mut resources: Vec<ResourceId> = self
            .heads
            .iter()
            .filter(|(_, h)| h.waiting.iter().any(|w| w.req.txn == txn))
            .map(|(r, _)| *r)
            .collect();
        // Hash-map iteration order varies between processes; grant notices
        // must not (the simulator replays them deterministically).
        resources.sort_unstable();
        let mut notices = Vec::new();
        for r in resources {
            let head = self.heads.get_mut(&r).expect("resource has a head");
            head.waiting.retain(|w| w.req.txn != txn);
            self.process_queue(r, oracle, &mut notices);
        }
        notices
    }

    /// True if `txn` holds a grant of `kind` on `resource`.
    pub fn holds(&self, txn: TxnId, resource: ResourceId, kind: LockKind) -> bool {
        self.heads.get(&resource).is_some_and(|h| {
            h.granted.iter().any(|g| {
                g.txn == txn
                    && match (g.kind, kind) {
                        (LockKind::Conventional(a), LockKind::Conventional(b)) => a.covers(b),
                        (a, b) => a == b,
                    }
            })
        })
    }

    /// Resources `txn` currently holds grants on.
    pub fn held_resources(&self, txn: TxnId) -> Vec<ResourceId> {
        let mut v: Vec<ResourceId> = self
            .held
            .get(&txn)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default();
        v.sort_unstable();
        v
    }

    /// True if `txn` has a queued request anywhere.
    pub fn is_waiting(&self, txn: TxnId) -> bool {
        self.heads
            .values()
            .any(|h| h.waiting.iter().any(|w| w.req.txn == txn))
    }

    /// Number of queued requests on `resource`.
    pub fn queue_len(&self, resource: ResourceId) -> usize {
        self.heads.get(&resource).map_or(0, |h| h.waiting.len())
    }

    /// Total grants across all resources (diagnostics).
    pub fn total_grants(&self) -> usize {
        self.heads.values().map(|h| h.granted.len()).sum()
    }

    /// True if no transaction holds or waits for anything here. Exact:
    /// lock heads and per-transaction hold sets are removed as they drain,
    /// so two empty maps mean an empty manager.
    pub(crate) fn is_empty(&self) -> bool {
        self.heads.is_empty() && self.held.is_empty()
    }

    /// Withdraw one queued request by ticket and grant the waiters its
    /// departure unblocked, appending their notices to `notices`. Returns
    /// true if the ticket was still queued.
    ///
    /// The queues keep one invariant: in a non-empty queue, the front waiter
    /// conflicts with some grant. A front waiter that conflicts with none has
    /// no wait-for edge, so no release wakes it and no deadlock detection
    /// sees a cycle through it. Removing a ticket can expose such a waiter:
    /// one queued behind it by FIFO order alone (an S request behind a
    /// queued X while every holder holds S). Inside the critical section
    /// that queued the ticket nothing can have joined behind it, but the
    /// sharded manager withdraws after re-locking the shard, so the queue is
    /// drained again here.
    pub(crate) fn withdraw_ticket(
        &mut self,
        resource: ResourceId,
        ticket: Ticket,
        oracle: &dyn InterferenceOracle,
        notices: &mut Vec<GrantNotice>,
    ) -> bool {
        let Some(head) = self.heads.get_mut(&resource) else {
            return false;
        };
        let before = head.waiting.len();
        head.waiting.retain(|w| w.ticket != ticket);
        let withdrawn = head.waiting.len() != before;
        if withdrawn {
            self.process_queue(resource, oracle, notices);
        }
        withdrawn
    }

    /// True if the ticket is still queued on `resource` (it has neither been
    /// granted nor withdrawn).
    pub(crate) fn is_ticket_waiting(&self, resource: ResourceId, ticket: Ticket) -> bool {
        self.heads
            .get(&resource)
            .is_some_and(|h| h.waiting.iter().any(|w| w.ticket == ticket))
    }

    /// True if `txn` has a queued request issued by a compensating step.
    pub fn has_compensating_waiter(&self, txn: TxnId) -> bool {
        self.heads.values().any(|h| {
            h.waiting
                .iter()
                .any(|w| w.req.txn == txn && w.req.ctx.compensating)
        })
    }

    // ----- internals -------------------------------------------------------

    /// Emit the grant (and, for assertional kinds, pin) events for a newly
    /// installed grant. Callers gate on `sink.is_enabled()` themselves.
    fn emit_grant(
        sink: &EventSink,
        txn: TxnId,
        resource: ResourceId,
        kind: LockKind,
        ctx: &RequestCtx,
    ) {
        sink.emit(Event::LockGranted {
            txn,
            resource,
            kind: Self::kind_repr(kind),
            step_type: ctx.step_type,
            compensating: ctx.compensating,
        });
        if let LockKind::Assertional(template) = kind {
            sink.emit(Event::AssertionPinned {
                txn,
                resource,
                template,
            });
        }
    }

    /// True if the two kinds belong to the same "slot" for re-entrancy
    /// purposes: one conventional grant per txn per resource, one assertional
    /// grant per template per txn per resource.
    fn same_class(a: LockKind, b: LockKind) -> bool {
        match (a, b) {
            (LockKind::Conventional(_), LockKind::Conventional(_)) => true,
            (LockKind::Assertional(x), LockKind::Assertional(y)) => x == y,
            _ => false,
        }
    }

    /// If the request is a conventional upgrade (txn already holds a weaker
    /// conventional mode), the mode it must be upgraded to.
    fn upgrade_target(head: &LockHead, req: &Request) -> Option<LockMode> {
        let want = req.kind.mode()?;
        let held = head
            .granted
            .iter()
            .find(|g| g.txn == req.txn && g.kind.is_conventional())?
            .kind
            .mode()
            .expect("conventional grant has a mode");
        Some(held.supremum(want))
    }

    /// Install a grant (fresh or upgrade-merge) for `req`.
    fn install_grant(head: &mut LockHead, req: &Request, kind: LockKind) {
        if let Some(g) = head
            .granted
            .iter_mut()
            .find(|g| g.txn == req.txn && Self::same_class(g.kind, kind))
        {
            g.kind = kind;
            g.ctx = req.ctx;
            g.count += 1;
        } else {
            head.granted.push(Grant {
                txn: req.txn,
                kind,
                ctx: req.ctx,
                count: 1,
            });
        }
    }

    /// Does a request of `kind`/`ctx` conflict with an existing grant of
    /// another transaction?
    fn conflicts(
        kind: LockKind,
        ctx: &RequestCtx,
        grant: &Grant,
        oracle: &dyn InterferenceOracle,
    ) -> bool {
        match (kind, grant.kind) {
            (LockKind::Conventional(a), LockKind::Conventional(b)) => !conv_compatible(a, b),
            // Intention modes declare "I will lock finer items below this
            // resource" — the finer request is where the interference check
            // happens, so they pass assertional grants freely (otherwise a
            // table-granularity guard pin would block every key access to
            // the table instead of only accesses to the pinned pages).
            (LockKind::Conventional(LockMode::IS | LockMode::IX), LockKind::Assertional(_)) => {
                false
            }
            // A writer meets a pinned assertion: consult the interference
            // table for the writer's step type; a reader conflicts only with
            // read-interfering pseudo-assertions (legacy isolation). At
            // table granularity this is what makes a *scan* (S, no finer
            // locks) honour the guard pins of in-flight writers.
            (LockKind::Conventional(m), LockKind::Assertional(t)) => {
                if m.is_write() {
                    oracle.write_interferes(ctx.step_type, t)
                } else {
                    oracle.read_interferes(ctx.step_type, t)
                }
            }
            // Symmetrically, pinning next to an intention grant is free: the
            // holder's real writes carry their own finer-granularity locks.
            (LockKind::Assertional(_), LockKind::Conventional(LockMode::IS | LockMode::IX)) => {
                false
            }
            // Pinning an assertion on an item some other step is writing:
            // refuse if that in-flight write invalidates the assertion.
            (LockKind::Assertional(t), LockKind::Conventional(m)) => {
                m.is_write() && oracle.write_interferes(grant.ctx.step_type, t)
            }
            // Assertional vs assertional: predicates coexist freely, except
            // for compensation protection — if either side's registered
            // compensating step would invalidate the other side's assertion,
            // block now so the compensating step never has to wait (§3.4).
            (LockKind::Assertional(t), LockKind::Assertional(u)) => {
                grant
                    .ctx
                    .comp_step
                    .is_some_and(|cs| oracle.write_interferes(cs, t))
                    || ctx
                        .comp_step
                        .is_some_and(|cs| oracle.write_interferes(cs, u))
            }
        }
    }

    /// Grant queued requests in FIFO order until the first one that still
    /// conflicts.
    fn process_queue(
        &mut self,
        resource: ResourceId,
        oracle: &dyn InterferenceOracle,
        notices: &mut Vec<GrantNotice>,
    ) {
        let head = match self.heads.get_mut(&resource) {
            Some(h) => h,
            None => return,
        };
        while let Some(w) = head.waiting.front() {
            let blocked = head
                .granted
                .iter()
                .any(|g| g.txn != w.req.txn && Self::conflicts(w.req.kind, &w.req.ctx, g, oracle));
            if blocked {
                break;
            }
            let w = head.waiting.pop_front().expect("front exists");
            Self::install_grant(head, &w.req, w.req.kind);
            self.held
                .entry(w.req.txn)
                .or_default()
                .insert(w.req.resource);
            if self.sink.is_enabled() {
                Self::emit_grant(
                    &self.sink,
                    w.req.txn,
                    w.req.resource,
                    w.req.kind,
                    &w.req.ctx,
                );
            }
            notices.push(GrantNotice {
                ticket: w.ticket,
                txn: w.req.txn,
                resource: w.req.resource,
            });
        }
        if head.granted.is_empty() && head.waiting.is_empty() {
            self.heads.remove(&resource);
        }
    }

    /// The wait-for edges of this manager's queues: a waiter waits on
    /// conflicting holders and on every earlier waiter in the same queue
    /// (strict FIFO). The sharded front end concatenates per-shard edge
    /// lists into one cross-shard graph.
    pub(crate) fn wait_edges(&self, oracle: &dyn InterferenceOracle) -> Vec<(TxnId, TxnId)> {
        let mut edges = Vec::new();
        for head in self.heads.values() {
            for (i, w) in head.waiting.iter().enumerate() {
                for g in &head.granted {
                    if g.txn != w.req.txn && Self::conflicts(w.req.kind, &w.req.ctx, g, oracle) {
                        edges.push((w.req.txn, g.txn));
                    }
                }
                for e in head.waiting.iter().take(i) {
                    if e.req.txn != w.req.txn {
                        edges.push((w.req.txn, e.req.txn));
                    }
                }
            }
        }
        edges
    }

    /// Build the wait-for graph from the current queues.
    fn wait_graph(&self, oracle: &dyn InterferenceOracle) -> WaitForGraph {
        WaitForGraph::from_edges(self.wait_edges(oracle))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{FnOracle, NoInterference, TotalInterference};
    use acc_common::{AssertionTemplateId, StepTypeId};

    const R: ResourceId = ResourceId::Named(1);
    const R2: ResourceId = ResourceId::Named(2);

    fn t(n: u64) -> TxnId {
        TxnId(n)
    }

    fn req(txn: u64, r: ResourceId, kind: LockKind) -> Request {
        Request::new(t(txn), r, kind, RequestCtx::plain(StepTypeId(0)))
    }

    fn a(template: u32) -> LockKind {
        LockKind::Assertional(AssertionTemplateId(template))
    }

    #[test]
    fn shared_locks_coexist() {
        let mut lm = LockManager::new();
        assert_eq!(
            lm.request(req(1, R, LockKind::S), &NoInterference),
            RequestOutcome::Granted
        );
        assert_eq!(
            lm.request(req(2, R, LockKind::S), &NoInterference),
            RequestOutcome::Granted
        );
        assert!(lm.holds(t(1), R, LockKind::S));
        assert!(lm.holds(t(2), R, LockKind::S));
    }

    #[test]
    fn exclusive_blocks_and_fifo_grants() {
        let mut lm = LockManager::new();
        lm.request(req(1, R, LockKind::X), &NoInterference);
        let w2 = lm.request(req(2, R, LockKind::X), &NoInterference);
        let w3 = lm.request(req(3, R, LockKind::X), &NoInterference);
        let (t2, t3) = match (w2, w3) {
            (RequestOutcome::Waiting(a), RequestOutcome::Waiting(b)) => (a, b),
            other => panic!("expected waits, got {other:?}"),
        };
        let notices = lm.release_where(t(1), &NoInterference, |_, _| true);
        assert_eq!(notices.len(), 1);
        assert_eq!(notices[0].ticket, t2);
        assert!(lm.holds(t(2), R, LockKind::X));
        assert!(!lm.holds(t(3), R, LockKind::X));
        let notices = lm.release_where(t(2), &NoInterference, |_, _| true);
        assert_eq!(notices[0].ticket, t3);
    }

    #[test]
    fn release_grants_multiple_compatible_waiters() {
        let mut lm = LockManager::new();
        lm.request(req(1, R, LockKind::X), &NoInterference);
        lm.request(req(2, R, LockKind::S), &NoInterference);
        lm.request(req(3, R, LockKind::S), &NoInterference);
        let notices = lm.release_where(t(1), &NoInterference, |_, _| true);
        assert_eq!(notices.len(), 2, "both shared waiters wake");
        assert!(lm.holds(t(2), R, LockKind::S));
        assert!(lm.holds(t(3), R, LockKind::S));
    }

    #[test]
    fn reentrant_requests_count() {
        let mut lm = LockManager::new();
        assert_eq!(
            lm.request(req(1, R, LockKind::S), &NoInterference),
            RequestOutcome::Granted
        );
        assert_eq!(
            lm.request(req(1, R, LockKind::S), &NoInterference),
            RequestOutcome::Granted
        );
        // X covers S: re-request of S after upgrade is also a no-op grant.
        assert_eq!(
            lm.request(req(1, R, LockKind::X), &NoInterference),
            RequestOutcome::Granted
        );
        assert_eq!(
            lm.request(req(1, R, LockKind::S), &NoInterference),
            RequestOutcome::Granted
        );
        assert!(lm.holds(t(1), R, LockKind::X));
    }

    #[test]
    fn upgrade_waits_for_other_readers_then_merges() {
        let mut lm = LockManager::new();
        lm.request(req(1, R, LockKind::S), &NoInterference);
        lm.request(req(2, R, LockKind::S), &NoInterference);
        let out = lm.request(req(1, R, LockKind::X), &NoInterference);
        assert!(matches!(out, RequestOutcome::Waiting(_)));
        let notices = lm.release_where(t(2), &NoInterference, |_, _| true);
        assert_eq!(notices.len(), 1);
        assert!(lm.holds(t(1), R, LockKind::X));
    }

    #[test]
    fn upgrade_jumps_queue() {
        let mut lm = LockManager::new();
        lm.request(req(1, R, LockKind::S), &NoInterference);
        lm.request(req(2, R, LockKind::S), &NoInterference);
        // Txn 3 queues for X behind the two readers.
        assert!(matches!(
            lm.request(req(3, R, LockKind::X), &NoInterference),
            RequestOutcome::Waiting(_)
        ));
        // Txn 1 upgrades: goes to the queue front.
        assert!(matches!(
            lm.request(req(1, R, LockKind::X), &NoInterference),
            RequestOutcome::Waiting(_)
        ));
        let notices = lm.release_where(t(2), &NoInterference, |_, _| true);
        assert_eq!(notices.len(), 1);
        assert!(
            lm.holds(t(1), R, LockKind::X),
            "upgrader granted before txn 3"
        );
        assert!(!lm.holds(t(3), R, LockKind::X));
    }

    #[test]
    fn new_request_queues_behind_waiters_even_if_compatible() {
        let mut lm = LockManager::new();
        lm.request(req(1, R, LockKind::S), &NoInterference);
        lm.request(req(2, R, LockKind::X), &NoInterference); // waits
                                                             // S would be compatible with the S holder, but FIFO fairness queues it.
        assert!(matches!(
            lm.request(req(3, R, LockKind::S), &NoInterference),
            RequestOutcome::Waiting(_)
        ));
        assert_eq!(lm.queue_len(R), 2);
        let notices = lm.release_where(t(1), &NoInterference, |_, _| true);
        // X granted first (FIFO), S still waiting behind it.
        assert_eq!(notices.len(), 1);
        assert!(lm.holds(t(2), R, LockKind::X));
    }

    #[test]
    fn assertional_coexists_with_readers_and_assertions() {
        let mut lm = LockManager::new();
        assert_eq!(
            lm.request(req(1, R, a(1)), &TotalInterference),
            RequestOutcome::Granted
        );
        assert_eq!(
            lm.request(req(2, R, a(2)), &NoInterference),
            RequestOutcome::Granted
        );
        assert_eq!(
            lm.request(req(3, R, LockKind::S), &NoInterference),
            RequestOutcome::Granted
        );
    }

    #[test]
    fn writer_blocked_by_interfering_assertion_only() {
        // Step 7 interferes with template 1; step 8 does not.
        let oracle = FnOracle {
            write: |s, t| s == StepTypeId(7) && t == AssertionTemplateId(1),
            read: |_, _| false,
        };
        let mut lm = LockManager::new();
        lm.request(req(1, R, a(1)), &oracle);

        let mut interfering = req(2, R, LockKind::X);
        interfering.ctx = RequestCtx::plain(StepTypeId(7));
        assert!(matches!(
            lm.request(interfering, &oracle),
            RequestOutcome::Waiting(_)
        ));

        let mut benign = req(3, R2, LockKind::X);
        benign.ctx = RequestCtx::plain(StepTypeId(8));
        assert_eq!(lm.request(benign, &oracle), RequestOutcome::Granted);

        // Same benign step type on the assertionally locked resource: the
        // interference table says no conflict, but FIFO queues it behind the
        // interfering writer.
        let mut benign_same = req(4, R, LockKind::X);
        benign_same.ctx = RequestCtx::plain(StepTypeId(8));
        assert!(matches!(
            lm.request(benign_same, &oracle),
            RequestOutcome::Waiting(_)
        ));

        // Releasing the assertion lets the first writer through; the second
        // stays queued behind its X.
        let notices = lm.release_where(t(1), &oracle, |_, _| true);
        assert_eq!(notices.len(), 1);
        assert!(lm.holds(t(2), R, LockKind::X));
        assert!(!lm.holds(t(4), R, LockKind::X));
    }

    #[test]
    fn reader_passes_assertion_unless_read_interfering() {
        // Template 0 acts like DIRTY: legacy step 9 read-interferes.
        let oracle = FnOracle {
            write: |_, _| false,
            read: |s, t| s == StepTypeId(9) && t == AssertionTemplateId(0),
        };
        let mut lm = LockManager::new();
        lm.request(req(1, R, a(0)), &oracle);

        let mut analyzed = req(2, R, LockKind::S);
        analyzed.ctx = RequestCtx::plain(StepTypeId(3));
        assert_eq!(lm.request(analyzed, &oracle), RequestOutcome::Granted);

        let mut legacy = req(3, R, LockKind::S);
        legacy.ctx = RequestCtx::plain(StepTypeId(9));
        assert!(matches!(
            lm.request(legacy, &oracle),
            RequestOutcome::Waiting(_)
        ));
    }

    #[test]
    fn assertion_refused_while_interfering_write_in_flight() {
        let oracle = FnOracle {
            write: |s, t| s == StepTypeId(7) && t == AssertionTemplateId(1),
            read: |_, _| false,
        };
        let mut lm = LockManager::new();
        let mut w = req(1, R, LockKind::X);
        w.ctx = RequestCtx::plain(StepTypeId(7));
        lm.request(w, &oracle);
        // Pinning template 1 on the item mid-write must wait.
        assert!(matches!(
            lm.request(req(2, R, a(1)), &oracle),
            RequestOutcome::Waiting(_)
        ));
        // Template 2 is not invalidated by step 7: granted... but FIFO places
        // it behind the queued template-1 request, so it waits too.
        assert!(matches!(
            lm.request(req(3, R, a(2)), &oracle),
            RequestOutcome::Waiting(_)
        ));
        // On a fresh resource template 2 coexists with the same writer.
        let mut w2 = req(1, R2, LockKind::X);
        w2.ctx = RequestCtx::plain(StepTypeId(7));
        lm.request(w2, &oracle);
        assert_eq!(
            lm.request(req(3, R2, a(2)), &oracle),
            RequestOutcome::Granted
        );
    }

    #[test]
    fn compensation_protection_blocks_vulnerable_assertions() {
        // Compensating step 50 invalidates template 4.
        let oracle = FnOracle {
            write: |s, t| s == StepTypeId(50) && t == AssertionTemplateId(4),
            read: |_, _| false,
        };
        let mut lm = LockManager::new();
        // Txn 1 wrote the item; its DIRTY-style grant carries comp_step 50.
        let mut dirty = req(1, R, a(0));
        dirty.ctx = RequestCtx {
            step_type: StepTypeId(10),
            comp_step: Some(StepTypeId(50)),
            compensating: false,
        };
        assert_eq!(lm.request(dirty, &oracle), RequestOutcome::Granted);

        // Txn 2 may not pin template 4 on the item: if txn 1 rolls back, its
        // compensating step would invalidate it and would have to wait.
        assert!(matches!(
            lm.request(req(2, R, a(4)), &oracle),
            RequestOutcome::Waiting(_)
        ));
        // Template 5 is safe.
        assert_eq!(
            lm.request(req(3, R2, a(5)), &oracle),
            RequestOutcome::Granted
        );

        // Symmetric direction: txn 4 holds template 4 on R2; txn 5's
        // compensatable DIRTY request must wait there.
        lm.request(req(4, R2, a(4)), &oracle);
        let mut dirty2 = req(5, R2, a(0));
        dirty2.ctx = RequestCtx {
            step_type: StepTypeId(10),
            comp_step: Some(StepTypeId(50)),
            compensating: false,
        };
        assert!(matches!(
            lm.request(dirty2, &oracle),
            RequestOutcome::Waiting(_)
        ));
    }

    #[test]
    fn classic_deadlock_victimizes_requester() {
        let mut lm = LockManager::new();
        lm.request(req(1, R, LockKind::X), &NoInterference);
        lm.request(req(2, R2, LockKind::X), &NoInterference);
        assert!(matches!(
            lm.request(req(1, R2, LockKind::X), &NoInterference),
            RequestOutcome::Waiting(_)
        ));
        let out = lm.request(req(2, R, LockKind::X), &NoInterference);
        assert_eq!(
            out,
            RequestOutcome::Deadlock {
                victims: vec![t(2)],
                ticket: None
            }
        );
        // The victim's request was withdrawn; txn 2 releasing its locks
        // unblocks txn 1.
        let notices = lm.release_all(t(2), &NoInterference);
        assert_eq!(notices.len(), 1);
        assert!(lm.holds(t(1), R2, LockKind::X));
    }

    #[test]
    fn compensating_requester_victimizes_others_and_stays_queued() {
        let mut lm = LockManager::new();
        lm.request(req(1, R, LockKind::X), &NoInterference);
        lm.request(req(2, R2, LockKind::X), &NoInterference);
        assert!(matches!(
            lm.request(req(1, R2, LockKind::X), &NoInterference),
            RequestOutcome::Waiting(_)
        ));
        let mut comp = req(2, R, LockKind::X);
        comp.ctx.compensating = true;
        let out = lm.request(comp, &NoInterference);
        let ticket = match out {
            RequestOutcome::Deadlock {
                victims,
                ticket: Some(tk),
            } => {
                assert_eq!(victims, vec![t(1)]);
                tk
            }
            other => panic!("expected compensating deadlock, got {other:?}"),
        };
        // Aborting the victim grants the compensating step's request.
        let notices = lm.release_all(t(1), &NoInterference);
        assert!(notices.iter().any(|n| n.ticket == ticket && n.txn == t(2)));
        assert!(lm.holds(t(2), R, LockKind::X));
    }

    #[test]
    fn compensating_never_victimizes_another_compensating_step() {
        let mut lm = LockManager::new();
        lm.request(req(1, R, LockKind::X), &NoInterference);
        lm.request(req(2, R2, LockKind::X), &NoInterference);
        // Txn 1's compensating step waits on R2.
        let mut c1 = req(1, R2, LockKind::X);
        c1.ctx.compensating = true;
        assert!(matches!(
            lm.request(c1, &NoInterference),
            RequestOutcome::Waiting(_)
        ));
        // Txn 2's compensating step closes the cycle on R: neither side is
        // abortable, so the requester itself retries (withdrawn request).
        let mut c2 = req(2, R, LockKind::X);
        c2.ctx.compensating = true;
        let out = lm.request(c2, &NoInterference);
        assert_eq!(
            out,
            RequestOutcome::Deadlock {
                victims: vec![t(2)],
                ticket: None
            }
        );
        assert!(lm.has_compensating_waiter(t(1)));
        assert!(!lm.has_compensating_waiter(t(2)));
    }

    #[test]
    fn release_where_filters_by_kind() {
        let mut lm = LockManager::new();
        lm.request(req(1, R, LockKind::X), &NoInterference);
        lm.request(req(1, R, a(1)), &NoInterference);
        // Step end: release conventional locks only.
        lm.release_where(t(1), &NoInterference, |k, _| k.is_conventional());
        assert!(!lm.holds(t(1), R, LockKind::X));
        assert!(lm.holds(t(1), R, a(1)));
        assert_eq!(lm.held_resources(t(1)), vec![R]);
        // Commit: release the rest.
        lm.release_where(t(1), &NoInterference, |_, _| true);
        assert!(lm.held_resources(t(1)).is_empty());
        assert_eq!(lm.total_grants(), 0);
    }

    #[test]
    fn cancel_waiting_unblocks_queue() {
        let mut lm = LockManager::new();
        lm.request(req(1, R, LockKind::S), &NoInterference);
        lm.request(req(2, R, LockKind::X), &NoInterference); // waits
        lm.request(req(3, R, LockKind::S), &NoInterference); // waits behind X
        let notices = lm.cancel_waiting(t(2), &NoInterference);
        assert_eq!(notices.len(), 1);
        assert_eq!(notices[0].txn, t(3));
        assert!(lm.holds(t(3), R, LockKind::S));
        assert!(!lm.is_waiting(t(2)));
    }

    #[test]
    fn three_party_deadlock() {
        let mut lm = LockManager::new();
        let r3 = ResourceId::Named(3);
        lm.request(req(1, R, LockKind::X), &NoInterference);
        lm.request(req(2, R2, LockKind::X), &NoInterference);
        lm.request(req(3, r3, LockKind::X), &NoInterference);
        assert!(matches!(
            lm.request(req(1, R2, LockKind::X), &NoInterference),
            RequestOutcome::Waiting(_)
        ));
        assert!(matches!(
            lm.request(req(2, r3, LockKind::X), &NoInterference),
            RequestOutcome::Waiting(_)
        ));
        let out = lm.request(req(3, R, LockKind::X), &NoInterference);
        assert_eq!(
            out,
            RequestOutcome::Deadlock {
                victims: vec![t(3)],
                ticket: None
            }
        );
    }

    #[test]
    fn deadlock_through_assertional_lock() {
        // Txn 1 pins template 1 on R (interstep). Txn 2's writer step waits
        // on it. Txn 1 then waits on txn 2's X elsewhere: cycle.
        let oracle = FnOracle {
            write: |s, t| s == StepTypeId(7) && t == AssertionTemplateId(1),
            read: |_, _| false,
        };
        let mut lm = LockManager::new();
        lm.request(req(1, R, a(1)), &oracle);
        let mut held = req(2, R2, LockKind::X);
        held.ctx = RequestCtx::plain(StepTypeId(8));
        lm.request(held, &oracle);
        let mut blocked_writer = req(2, R, LockKind::X);
        blocked_writer.ctx = RequestCtx::plain(StepTypeId(7));
        assert!(matches!(
            lm.request(blocked_writer, &oracle),
            RequestOutcome::Waiting(_)
        ));
        let out = lm.request(req(1, R2, LockKind::X), &oracle);
        assert_eq!(
            out,
            RequestOutcome::Deadlock {
                victims: vec![t(1)],
                ticket: None
            }
        );
    }

    #[test]
    fn pin_next_to_own_grant_jumps_queue() {
        // Txn 1 holds X and then adds an assertional pin while txn 2 is
        // queued for X. The pin must NOT queue behind txn 2 (txn 2 is blocked
        // by txn 1's own X — queueing would deadlock txn 1 against itself).
        let mut lm = LockManager::new();
        lm.request(req(1, R, LockKind::X), &NoInterference);
        assert!(matches!(
            lm.request(req(2, R, LockKind::X), &NoInterference),
            RequestOutcome::Waiting(_)
        ));
        assert_eq!(
            lm.request(req(1, R, a(0)), &NoInterference),
            RequestOutcome::Granted,
            "guard pin next to own X must bypass the FIFO queue"
        );
        // Releasing everything still hands the X to txn 2.
        let notices = lm.release_all(t(1), &NoInterference);
        assert_eq!(notices.len(), 1);
        assert!(lm.holds(t(2), R, LockKind::X));
    }

    #[test]
    fn pin_next_to_own_grant_still_respects_real_conflicts() {
        // The queue jump does not override grant conflicts: a pin that
        // conflicts with another holder's grant must still wait.
        let oracle = FnOracle {
            write: |s, t| s == StepTypeId(7) && t == AssertionTemplateId(1),
            read: |_, _| false,
        };
        let mut lm = LockManager::new();
        // Txn 1 holds S; txn 2 queues an interfering write (step 7).
        lm.request(req(1, R, LockKind::S), &oracle);
        let mut w = req(2, R, LockKind::X);
        w.ctx = RequestCtx::plain(StepTypeId(7));
        assert!(matches!(lm.request(w, &oracle), RequestOutcome::Waiting(_)));
        // Txn 1 pins template 1 next to its S: no grant conflicts (only the
        // *queued* step-7 X would interfere), so it is granted ahead of the
        // queue…
        assert_eq!(
            lm.request(req(1, R, a(1)), &oracle),
            RequestOutcome::Granted
        );
        // …and the queued interfering writer now waits on the pin as well.
        let notices = lm.release_where(t(1), &oracle, |k, _| k.is_conventional());
        assert!(notices.is_empty(), "writer still blocked by the pin");
        let notices = lm.release_all(t(1), &oracle);
        assert_eq!(notices.len(), 1);
        assert!(lm.holds(t(2), R, LockKind::X));
    }

    #[test]
    fn sink_records_lock_lifecycle_and_wait_causes() {
        use acc_common::events::{Event, EventSink};

        let oracle = FnOracle {
            write: |s, tpl| s == StepTypeId(7) && tpl == AssertionTemplateId(1),
            read: |_, _| false,
        };
        let sink = EventSink::enabled(128);
        let mut lm = LockManager::new();
        lm.set_sink(Arc::clone(&sink));

        // Pin an assertion, then block an interfering writer on it.
        lm.request(req(1, R, a(1)), &oracle);
        let mut w = req(2, R, LockKind::X);
        w.ctx = RequestCtx::plain(StepTypeId(7));
        assert!(matches!(lm.request(w, &oracle), RequestOutcome::Waiting(_)));
        // A compatible reader queues behind it: conservative FIFO denial.
        let mut rdr = req(3, R, LockKind::S);
        rdr.ctx = RequestCtx::plain(StepTypeId(8));
        assert!(matches!(
            lm.request(rdr, &oracle),
            RequestOutcome::Waiting(_)
        ));
        lm.release_all(t(1), &oracle);

        let c = sink.counters();
        assert_eq!(c.assertion_pins, 1);
        assert_eq!(c.interference_hits, 1);
        assert_eq!(c.conservative_denials, 1, "reader blocked by FIFO only");
        assert_eq!(c.lock_waits, 2);
        assert!(c.lock_releases >= 1);
        // Queue drain after the release granted the writer (the reader stays
        // queued behind the new X): pin grant + writer grant.
        assert_eq!(c.lock_grants, 2);

        let events = sink.events();
        assert!(events.iter().any(|e| matches!(
            e,
            Event::InterferenceHit {
                txn: TxnId(2),
                template: AssertionTemplateId(1),
                ..
            }
        )));
        assert!(events.iter().any(|e| matches!(
            e,
            Event::LockWait {
                txn: TxnId(3),
                conservative: true,
                blocked_by_assertion: false,
                ..
            }
        )));

        // Deadlock events carry the cycle and victim.
        lm.request(req(4, R, LockKind::X), &oracle);
        lm.request(req(5, R2, LockKind::X), &oracle);
        assert!(matches!(
            lm.request(req(4, R2, LockKind::X), &oracle),
            RequestOutcome::Waiting(_)
        ));
        assert!(matches!(
            lm.request(req(5, R, LockKind::X), &oracle),
            RequestOutcome::Deadlock { .. }
        ));
        let c = sink.counters();
        assert_eq!(c.deadlocks, 1);
        assert_eq!(c.deadlock_victims, 1);
        assert!(sink.events().iter().any(|e| matches!(
            e,
            Event::DeadlockVictim {
                txn: TxnId(5),
                compensating: false,
            }
        )));
    }

    #[test]
    fn head_garbage_collected_when_empty() {
        let mut lm = LockManager::new();
        lm.request(req(1, R, LockKind::X), &NoInterference);
        lm.release_all(t(1), &NoInterference);
        assert_eq!(lm.total_grants(), 0);
        assert!(lm.heads.is_empty());
    }
}
