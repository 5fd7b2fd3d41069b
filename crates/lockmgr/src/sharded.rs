//! Hash-sharded lock tables: N independently-locked [`LockManager`] state
//! machines behind one front end.
//!
//! # Why
//!
//! A single `Mutex<LockManager>` serializes every lock request in the system,
//! even between transactions touching disjoint data — exactly the
//! coordination the paper's assertional locks exist to avoid. Sharding the
//! lock table by resource hash lets disjoint requests proceed on different
//! shard mutexes; only requests for the *same* shard contend.
//!
//! # Lock ordering and the stale-but-safe snapshot
//!
//! Each shard is a pure [`LockManager`]. The front end never holds two shard
//! mutexes at once: every operation either works inside one shard, or visits
//! shards strictly one at a time in index order. Cross-shard deadlock
//! detection therefore reads a *snapshot* assembled from per-shard wait-for
//! edges taken at slightly different times. That snapshot can be stale in two
//! ways, both safe:
//!
//! * it can **miss** a cycle assembled while we walked the shards — the
//!   waiter's timeout re-detection ([`ShardedLockManager::detect_from`])
//!   sweeps it up on the next 50 ms slice, exactly like cycles that form
//!   after enqueue did under the unsharded manager;
//! * it can report a **spurious** cycle whose edges never coexisted — the
//!   resolution (abort one step and retry, §3.4 rules unchanged) is always
//!   safe, merely conservative. Before acting on a cycle the front end
//!   re-checks under the home shard's mutex that the requester is still
//!   queued, so a race with a grant resolves in favour of the grant.
//!
//! # Grant-notice delivery
//!
//! Waking a waiter must not race with that waiter withdrawing its request,
//! or a wakeup is lost forever. All notice-producing operations take a
//! `notify` callback and invoke it **while still holding the shard mutex**
//! that produced the grant. A waiter that cancels its request (under the same
//! shard mutex) is therefore guaranteed: after `cancel_waiting` returns, no
//! unposted grant for its ticket can exist anywhere. Within one shard,
//! notices are still emitted in sorted resource order, preserving the
//! determinism contract the simulator relies on.

use crate::manager::{EnqueueOutcome, GrantNotice, LockManager, RequestOutcome, Ticket};
use crate::oracle::InterferenceOracle;
use crate::request::{LockKind, Request};
use crate::waitfor::{break_cycle, CycleResolution, WaitForGraph};
use acc_common::events::EventSink;
use acc_common::{ResourceId, TxnId};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Tickets carry their shard index in the high 16 bits, so per-shard ticket
/// counters never collide and a ticket alone is globally unique.
const TICKET_SHARD_SHIFT: u32 = 48;

/// One shard: a locked [`LockManager`] plus a transaction-interest filter.
struct Shard {
    lm: Mutex<LockManager>,
    /// Bloom-style mask of transactions that *may* have state (grants or
    /// queued requests) in this shard: bit `txn.0 % 64`. Set under the shard
    /// mutex whenever a request is admitted; reset to zero — also under the
    /// mutex — whenever the shard drains empty. Release and cancel paths
    /// skip shards whose bit for the transaction is clear, so a transaction
    /// that touched one shard releases in O(1) shards instead of O(N).
    ///
    /// Safety of the skip: state for transaction T is only ever *created* by
    /// T's own thread (waiting→granted transitions stay in place), and the
    /// `fetch_or` happens inside the same critical section as the insert, so
    /// T's later relaxed load observes its own bit unless the shard truly
    /// drained in between — in which case skipping is correct. A set bit
    /// with no state (hash sharing, saturation under load) merely costs the
    /// mutex visit the unfiltered code always paid.
    interest: AtomicU64,
}

impl Shard {
    fn lock(&self) -> MutexGuard<'_, LockManager> {
        self.lm.lock().expect("shard not poisoned")
    }

    /// Lock for an operation on behalf of `txn` that may create state.
    fn lock_noting(&self, txn: TxnId) -> MutexGuard<'_, LockManager> {
        let lm = self.lock();
        self.interest.fetch_or(txn_bit(txn), Ordering::Relaxed);
        lm
    }

    /// True if `txn` certainly has no state here (skip without locking).
    fn excludes(&self, txn: TxnId) -> bool {
        self.interest.load(Ordering::Relaxed) & txn_bit(txn) == 0
    }

    /// After removing state under `lm`: reset the filter if the shard
    /// drained. Exact emptiness is checked under the mutex, so no
    /// concurrent `lock_noting` bit can be wiped.
    fn reset_if_empty(&self, lm: &LockManager) {
        if lm.is_empty() {
            self.interest.store(0, Ordering::Relaxed);
        }
    }
}

fn txn_bit(txn: TxnId) -> u64 {
    1u64 << (txn.0 % 64)
}

/// N hash-sharded lock tables behind one thread-safe front end.
pub struct ShardedLockManager {
    shards: Vec<Shard>,
    /// Front-end copy of the event sink for cross-shard deadlock events
    /// (each shard holds its own copy for its hot path).
    sink: Mutex<Arc<EventSink>>,
}

impl ShardedLockManager {
    /// The default shard count: enough to keep 8–16 threads of disjoint
    /// traffic off each other's mutexes without bloating the footprint.
    pub const DEFAULT_SHARDS: usize = 16;

    /// Build with `n_shards` shards (must be a power of two ≤ 65536).
    pub fn new(n_shards: usize) -> Self {
        assert!(
            n_shards.is_power_of_two() && n_shards <= 1 << 16,
            "shard count must be a power of two ≤ 65536, got {n_shards}"
        );
        let shards = (0..n_shards)
            .map(|i| {
                let mut lm = LockManager::new();
                lm.set_ticket_base((i as u64) << TICKET_SHARD_SHIFT);
                Shard {
                    lm: Mutex::new(lm),
                    interest: AtomicU64::new(0),
                }
            })
            .collect();
        ShardedLockManager {
            shards,
            sink: Mutex::new(Arc::new(EventSink::default())),
        }
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard a resource hashes to.
    pub fn shard_of(&self, resource: ResourceId) -> usize {
        (Self::hash64(resource) >> 32) as usize & (self.shards.len() - 1)
    }

    /// A fixed (process-independent) 64-bit mix of a resource id, so shard
    /// placement is deterministic across runs.
    fn hash64(resource: ResourceId) -> u64 {
        const K: u64 = 0x9e37_79b9_7f4a_7c15;
        let (tag, a, b): (u64, u64, u64) = match resource {
            ResourceId::Table(t) => (1, t.0 as u64, 0),
            ResourceId::Page(t, p) => (2, t.0 as u64, p as u64),
            ResourceId::Row(t, s) => (3, t.0 as u64, s),
            ResourceId::Named(n) => (4, n as u64, 0),
        };
        let mut h = tag.wrapping_mul(K);
        h ^= a.wrapping_add(K).wrapping_mul(K).rotate_left(31);
        h ^= b.wrapping_add(K).wrapping_mul(K).rotate_left(17);
        h.wrapping_mul(K)
    }

    fn shard(&self, resource: ResourceId) -> MutexGuard<'_, LockManager> {
        self.shards[self.shard_of(resource)].lock()
    }

    /// Route every shard's events (and the front end's deadlock events) into
    /// `sink`.
    pub fn set_sink(&self, sink: Arc<EventSink>) {
        *self.sink.lock().expect("sink not poisoned") = Arc::clone(&sink);
        for s in &self.shards {
            s.lock().set_sink(Arc::clone(&sink));
        }
    }

    /// The current event sink.
    pub fn sink(&self) -> Arc<EventSink> {
        Arc::clone(&self.sink.lock().expect("sink not poisoned"))
    }

    /// Request a lock; grants and enqueues happen inside the resource's
    /// shard, deadlock detection across all shards. Semantics (victim
    /// choice, §3.4 compensating rule, outcome shape) match
    /// [`LockManager::request`].
    ///
    /// When the request is withdrawn as a deadlock victim, waiters queued
    /// behind it in the meantime may have become grantable; their notices
    /// are delivered through `notify` under the home shard's mutex, and
    /// dropping them strands the newly granted waiters.
    pub fn request(
        &self,
        req: Request,
        oracle: &dyn InterferenceOracle,
        notify: &mut dyn FnMut(GrantNotice),
    ) -> RequestOutcome {
        let outcome = self.shards[self.shard_of(req.resource)]
            .lock_noting(req.txn)
            .grant_or_enqueue(req, oracle);
        match outcome {
            EnqueueOutcome::Granted => RequestOutcome::Granted,
            EnqueueOutcome::Waiting(ticket) => self.detect_enqueued(req, ticket, oracle, notify),
        }
    }

    /// Snapshot the cross-shard wait-for graph, one shard at a time. Shards
    /// whose interest filter is zero are empty and contribute no edges —
    /// skipping them unlocked is covered by the stale-but-safe snapshot
    /// argument above (a racing insert is caught by timeout re-detection).
    fn snapshot_graph(&self, oracle: &dyn InterferenceOracle) -> WaitForGraph {
        let mut edges = Vec::new();
        for s in &self.shards {
            if s.interest.load(Ordering::Relaxed) == 0 {
                continue;
            }
            edges.extend(s.lock().wait_edges(oracle));
        }
        WaitForGraph::from_edges(edges)
    }

    /// Enqueue-time deadlock detection over the cross-shard snapshot.
    fn detect_enqueued(
        &self,
        req: Request,
        ticket: Ticket,
        oracle: &dyn InterferenceOracle,
        notify: &mut dyn FnMut(GrantNotice),
    ) -> RequestOutcome {
        let Some(cycle) = self.snapshot_graph(oracle).cycle_through(req.txn) else {
            return RequestOutcome::Waiting(ticket);
        };
        #[cfg(test)]
        tests::detect_gap();
        // Re-verify under the home shard: if a racing release already
        // granted our ticket, the snapshot's cycle is stale — take the grant
        // instead of a spurious abort. A non-compensating requester is its
        // own victim, so its ticket is withdrawn in the same critical section.
        let still_queued = if req.ctx.compensating {
            self.shard(req.resource)
                .is_ticket_waiting(req.resource, ticket)
        } else {
            self.withdraw(req.resource, ticket, oracle, notify)
        };
        if !still_queued {
            return RequestOutcome::Waiting(ticket);
        }
        let resolution = break_cycle(&self.sink(), &cycle, req.txn, req.ctx.compensating, |t| {
            self.has_compensating_waiter(t)
        });
        match resolution {
            CycleResolution::Retry => {
                if req.ctx.compensating {
                    self.withdraw(req.resource, ticket, oracle, notify);
                }
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

    /// Withdraw `ticket` from its home shard, delivering the notices of the
    /// waiters queued behind it that its departure unblocked before the
    /// shard's mutex drops. The shard was unlocked since the ticket was
    /// queued, so such waiters can exist (see
    /// `LockManager::withdraw_ticket`). Returns true if the ticket was still
    /// queued.
    fn withdraw(
        &self,
        resource: ResourceId,
        ticket: Ticket,
        oracle: &dyn InterferenceOracle,
        notify: &mut dyn FnMut(GrantNotice),
    ) -> bool {
        let mut unblocked = Vec::new();
        let mut home = self.shard(resource);
        let withdrawn = home.withdraw_ticket(resource, ticket, oracle, &mut unblocked);
        for n in unblocked {
            notify(n);
        }
        withdrawn
    }

    /// Timeout-slice re-detection from a currently waiting transaction:
    /// enqueue-time detection sees the graph at the moment a waiter joins,
    /// so a cycle assembled later by a grant or queue mutation elsewhere
    /// (possibly on another shard) slips past it. Blocked frontends call
    /// this from their wait loops, and the cycle is broken exactly as
    /// [`ShardedLockManager::request`] would have broken it. `None` means
    /// no cycle runs through `txn`.
    ///
    /// On [`CycleResolution::Retry`] the caller's queued requests have been
    /// withdrawn. Waiters queued behind them may have become grantable; their
    /// notices are delivered through `notify` under the owning shard's mutex,
    /// and dropping them strands the newly granted waiters.
    pub fn detect_from(
        &self,
        txn: TxnId,
        oracle: &dyn InterferenceOracle,
        notify: &mut dyn FnMut(GrantNotice),
    ) -> Option<CycleResolution> {
        if !self.is_waiting(txn) {
            return None;
        }
        let cycle = self.snapshot_graph(oracle).cycle_through(txn)?;
        let compensating = self.has_compensating_waiter(txn);
        let resolution = break_cycle(&self.sink(), &cycle, txn, compensating, |t| {
            self.has_compensating_waiter(t)
        });
        if resolution == CycleResolution::Retry {
            self.cancel_waiting(txn, oracle, notify);
        }
        Some(resolution)
    }

    /// Remove `txn`'s queued requests everywhere. Notices for waiters
    /// unblocked by the withdrawals are delivered through `notify` under the
    /// owning shard's mutex; after this returns, no grant for any of `txn`'s
    /// withdrawn tickets can be produced.
    pub fn cancel_waiting(
        &self,
        txn: TxnId,
        oracle: &dyn InterferenceOracle,
        notify: &mut dyn FnMut(GrantNotice),
    ) {
        for s in &self.shards {
            if s.excludes(txn) {
                continue;
            }
            let mut shard = s.lock();
            for n in shard.cancel_waiting(txn, oracle) {
                notify(n);
            }
            s.reset_if_empty(&shard);
        }
    }

    /// Release the grants of `txn` selected by `pred`, shard by shard in
    /// index order (resource-sorted within each shard).
    pub fn release_where(
        &self,
        txn: TxnId,
        oracle: &dyn InterferenceOracle,
        pred: impl Fn(LockKind, &crate::request::RequestCtx) -> bool,
        notify: &mut dyn FnMut(GrantNotice),
    ) {
        for s in &self.shards {
            if s.excludes(txn) {
                continue;
            }
            let mut shard = s.lock();
            for n in shard.release_where(txn, oracle, &pred) {
                notify(n);
            }
            s.reset_if_empty(&shard);
        }
    }

    /// Release everything `txn` holds and cancel everything it waits for.
    pub fn release_all(
        &self,
        txn: TxnId,
        oracle: &dyn InterferenceOracle,
        notify: &mut dyn FnMut(GrantNotice),
    ) {
        for s in &self.shards {
            if s.excludes(txn) {
                continue;
            }
            let mut shard = s.lock();
            for n in shard.release_all(txn, oracle) {
                notify(n);
            }
            s.reset_if_empty(&shard);
        }
    }

    // ----- diagnostics (aggregate across shards) ---------------------------

    /// True if `txn` holds a grant of `kind` on `resource`.
    pub fn holds(&self, txn: TxnId, resource: ResourceId, kind: LockKind) -> bool {
        self.shard(resource).holds(txn, resource, kind)
    }

    /// True if `txn` has a queued request anywhere.
    pub fn is_waiting(&self, txn: TxnId) -> bool {
        self.shards.iter().any(|s| s.lock().is_waiting(txn))
    }

    /// True if `txn` has a queued compensating request anywhere.
    pub fn has_compensating_waiter(&self, txn: TxnId) -> bool {
        self.shards
            .iter()
            .any(|s| s.lock().has_compensating_waiter(txn))
    }

    /// Number of queued requests on `resource`.
    pub fn queue_len(&self, resource: ResourceId) -> usize {
        self.shard(resource).queue_len(resource)
    }

    /// Total grants across all shards (diagnostics; the lock-leak check).
    pub fn total_grants(&self) -> usize {
        self.shards.iter().map(|s| s.lock().total_grants()).sum()
    }
}

impl std::fmt::Debug for ShardedLockManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedLockManager")
            .field("shards", &self.shards.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::NoInterference;
    use crate::request::RequestCtx;
    use acc_common::StepTypeId;
    use std::cell::RefCell;

    type Hook = Box<dyn FnOnce()>;

    thread_local! {
        /// Runs on the requester's thread in enqueue-time detection, between
        /// the cross-shard snapshot that found a cycle and the re-lock of the
        /// home shard. Another thread's requests can land in that gap; tests
        /// put one there.
        static DETECT_GAP: RefCell<Option<Hook>> = const { RefCell::new(None) };
    }

    pub(super) fn detect_gap() {
        // Out of its slot while it runs, so a request inside it that finds a
        // cycle of its own does not re-enter it.
        if let Some(hook) = DETECT_GAP.take() {
            hook();
        }
    }

    fn t(n: u64) -> TxnId {
        TxnId(n)
    }

    fn req(txn: u64, r: ResourceId, kind: LockKind) -> Request {
        Request::new(t(txn), r, kind, RequestCtx::plain(StepTypeId(0)))
    }

    const R: ResourceId = ResourceId::Named(1);
    const R2: ResourceId = ResourceId::Named(2);

    #[test]
    fn shard_placement_is_deterministic_and_spread() {
        let lm = ShardedLockManager::new(16);
        let mut seen = std::collections::HashSet::new();
        for i in 0..64 {
            let r = ResourceId::Named(i);
            assert_eq!(lm.shard_of(r), lm.shard_of(r));
            seen.insert(lm.shard_of(r));
        }
        assert!(
            seen.len() > 4,
            "64 resources landed on {} shards",
            seen.len()
        );
    }

    #[test]
    fn tickets_are_globally_unique_across_shards() {
        let lm = ShardedLockManager::new(4);
        let mut tickets = std::collections::HashSet::new();
        // Force waits on many resources so several shards hand out tickets.
        for i in 0..32u32 {
            let r = ResourceId::Named(i);
            assert_eq!(
                lm.request(req(1, r, LockKind::X), &NoInterference, &mut |_| ()),
                RequestOutcome::Granted
            );
            match lm.request(
                req(2 + u64::from(i), r, LockKind::X),
                &NoInterference,
                &mut |_| (),
            ) {
                RequestOutcome::Waiting(ticket) => assert!(tickets.insert(ticket)),
                other => panic!("expected wait, got {other:?}"),
            }
        }
    }

    #[test]
    fn grant_and_release_cross_shard() {
        let lm = ShardedLockManager::new(8);
        let r = ResourceId::Named(7);
        assert_eq!(
            lm.request(req(1, r, LockKind::X), &NoInterference, &mut |_| ()),
            RequestOutcome::Granted
        );
        let ticket = match lm.request(req(2, r, LockKind::X), &NoInterference, &mut |_| ()) {
            RequestOutcome::Waiting(ticket) => ticket,
            other => panic!("expected wait, got {other:?}"),
        };
        let mut granted = Vec::new();
        lm.release_all(t(1), &NoInterference, &mut |n| granted.push(n));
        assert_eq!(granted.len(), 1);
        assert_eq!(granted[0].ticket, ticket);
        assert!(lm.holds(t(2), r, LockKind::X));
        assert_eq!(lm.total_grants(), 1);
        lm.release_all(t(2), &NoInterference, &mut |_| ());
        assert_eq!(lm.total_grants(), 0);
    }

    #[test]
    fn deadlock_across_shards_victimizes_requester() {
        let lm = ShardedLockManager::new(8);
        // Pick two resources on different shards.
        let mut rs = (0..64u32).map(ResourceId::Named);
        let r1 = rs.next().unwrap();
        let r2 = rs
            .find(|r| lm.shard_of(*r) != lm.shard_of(r1))
            .expect("two shards");
        lm.request(req(1, r1, LockKind::X), &NoInterference, &mut |_| ());
        lm.request(req(2, r2, LockKind::X), &NoInterference, &mut |_| ());
        assert!(matches!(
            lm.request(req(1, r2, LockKind::X), &NoInterference, &mut |_| ()),
            RequestOutcome::Waiting(_)
        ));
        // Txn 2 requesting r1 closes a cycle spanning both shards.
        match lm.request(req(2, r1, LockKind::X), &NoInterference, &mut |_| ()) {
            RequestOutcome::Deadlock { victims, ticket } => {
                assert_eq!(victims, vec![t(2)]);
                assert!(ticket.is_none());
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
        // The victim's request was withdrawn; txn 1 still waits on r2.
        assert!(!lm.is_waiting(t(2)));
        assert!(lm.is_waiting(t(1)));
    }

    #[test]
    fn detect_from_victim_withdrawal_wakes_queued_waiters() {
        // Regression: timeout re-detection used to withdraw the victim's
        // queued requests without draining the queues, stranding waiters
        // that were blocked only by the victim's FIFO position.
        //
        // tC holds S on R. tV (holding X on R2) queues X on R; tW queues S
        // on R behind it — compatible with tC's S, blocked purely by FIFO.
        // tC then issues a compensating X request on R2: cycle tC→tV→tC,
        // with tV doomed but still queued. Re-detection from tV must
        // victimize tV AND deliver a grant notice for tW.
        let lm = ShardedLockManager::new(8);
        let (tc, tv, tw) = (t(1), t(2), t(3));
        lm.request(req(1, R, LockKind::S), &NoInterference, &mut |_| ());
        lm.request(req(2, R2, LockKind::X), &NoInterference, &mut |_| ());
        assert!(matches!(
            lm.request(req(2, R, LockKind::X), &NoInterference, &mut |_| ()),
            RequestOutcome::Waiting(_)
        ));
        let tw_ticket = match lm.request(req(3, R, LockKind::S), &NoInterference, &mut |_| ()) {
            RequestOutcome::Waiting(tk) => tk,
            other => panic!("expected wait, got {other:?}"),
        };
        let mut comp = req(1, R2, LockKind::X);
        comp.ctx.compensating = true;
        assert!(matches!(
            lm.request(comp, &NoInterference, &mut |_| ()),
            RequestOutcome::Deadlock {
                ticket: Some(_),
                ..
            }
        ));
        // The cycle persists (tV stays queued); re-detection from tV fires.
        let mut notices = Vec::new();
        let resolution = lm.detect_from(tv, &NoInterference, &mut |n| notices.push(n));
        assert_eq!(resolution, Some(CycleResolution::Retry));
        assert!(
            notices.iter().any(|n| n.ticket == tw_ticket && n.txn == tw),
            "waiter behind the withdrawn victim must be granted: {notices:?}"
        );
        assert!(lm.holds(tw, R, LockKind::S));
        assert!(lm.holds(tc, R, LockKind::S));
        assert!(!lm.is_waiting(tv));
    }

    #[test]
    fn detect_from_compensating_caller_keeps_waiting() {
        // Same shape, but re-detection is run from the *compensating* waiter:
        // the other party is the victim and the caller's request stays put.
        let lm = ShardedLockManager::new(8);
        lm.request(req(1, R, LockKind::X), &NoInterference, &mut |_| ());
        lm.request(req(2, R2, LockKind::X), &NoInterference, &mut |_| ());
        assert!(matches!(
            lm.request(req(2, R, LockKind::X), &NoInterference, &mut |_| ()),
            RequestOutcome::Waiting(_)
        ));
        let mut comp = req(1, R2, LockKind::X);
        comp.ctx.compensating = true;
        assert!(matches!(
            lm.request(comp, &NoInterference, &mut |_| ()),
            RequestOutcome::Deadlock {
                ticket: Some(_),
                ..
            }
        ));
        let mut notices = Vec::new();
        let resolution = lm.detect_from(t(1), &NoInterference, &mut |n| notices.push(n));
        assert_eq!(resolution, Some(CycleResolution::Doom(vec![t(2)])));
        assert!(notices.is_empty());
        assert!(lm.is_waiting(t(1)), "compensating request stays queued");
    }

    #[test]
    fn enqueue_victim_withdrawal_wakes_waiters_queued_in_the_gap() {
        // Regression: enqueue-time detection drops the home shard's mutex
        // while it snapshots the wait-for graph, then re-locks it to
        // withdraw the victim's ticket. A request that queued behind the
        // ticket in that window, blocked by FIFO order alone, became the
        // front waiter, compatible with every grant and with no wait-for
        // edge: nothing ever granted it.
        //
        // A holds S on R; T holds X on R2; A queues X on R2. T's X on R
        // closes the cycle T→A→T, and in the gap U queues S on R behind T's
        // X. Withdrawing T must grant U's S, compatible with A's.
        let lm = Arc::new(ShardedLockManager::new(8));
        let (ta, tt, tu) = (t(1), t(2), t(3));
        lm.request(req(1, R, LockKind::S), &NoInterference, &mut |_| ());
        lm.request(req(2, R2, LockKind::X), &NoInterference, &mut |_| ());
        assert!(matches!(
            lm.request(req(1, R2, LockKind::X), &NoInterference, &mut |_| ()),
            RequestOutcome::Waiting(_)
        ));
        let u_ticket = Arc::new(Mutex::new(None));
        {
            let (lm, u_ticket) = (Arc::clone(&lm), Arc::clone(&u_ticket));
            DETECT_GAP.set(Some(Box::new(move || {
                let out = lm.request(req(3, R, LockKind::S), &NoInterference, &mut |_| ());
                *u_ticket.lock().unwrap() = Some(out);
            })));
        }
        let mut notices = Vec::new();
        let out = lm.request(req(2, R, LockKind::X), &NoInterference, &mut |n| {
            notices.push(n)
        });
        assert!(DETECT_GAP.take().is_none(), "the gap hook never ran");
        assert_eq!(
            out,
            RequestOutcome::Deadlock {
                victims: vec![tt],
                ticket: None
            }
        );
        let Some(RequestOutcome::Waiting(u_ticket)) = *u_ticket.lock().unwrap() else {
            panic!("U's S must queue behind T's X");
        };
        assert!(
            lm.holds(tu, R, LockKind::S),
            "U still waiting (notices {notices:?})"
        );
        assert_eq!(
            notices,
            vec![GrantNotice {
                ticket: u_ticket,
                txn: tu,
                resource: R
            }]
        );
        assert!(lm.holds(ta, R, LockKind::S));
        assert!(!lm.is_waiting(tt));
    }
}
