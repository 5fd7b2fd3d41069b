//! The shared system state, decomposed: a page-latched database image,
//! sharded lock tables, and an independent WAL append path.
//!
//! Until PR 3 everything lived behind one `Mutex<Core>` with a broadcast
//! condvar. Now each concern has its own synchronization:
//!
//! * the database image is a plain [`Database`] — every [`Table`] method
//!   takes `&self` and latches individual B-tree pages, so there is no
//!   whole-table lock at all;
//! * the lock table is a [`ShardedLockManager`] — N hash-sharded mutexes;
//! * the WAL has a dedicated append mutex that assigns LSNs independently of
//!   lock traffic (group commit can batch fsyncs behind it later);
//! * lock waits park on per-ticket slots (the private `parking` module) — a
//!   grant wakes exactly its owner instead of `notify_all`-ing every waiter.
//!
//! Lock ordering: page latches, lock shards, the WAL mutex, the doom set
//! and the parking table are all *leaves* relative to each other — no thread
//! ever holds one while blocking on another, except the sharded manager's
//! own discipline (one shard at a time, notices posted under the shard
//! mutex, parking/doom taken inside — see `acc_lockmgr::sharded`). See
//! DESIGN.md §Concurrency model for the full diagram.

use crate::parking::Parking;
use crate::transaction::WriteSet;
use acc_common::events::{Event, EventSink};
use acc_common::faults::FaultInjector;
use acc_common::{Error, ResourceId, Result, Slot, TableId, TxnId, TxnTypeId};
use acc_lockmgr::{
    CycleResolution, EpochPin, InstallOutcome, InterferenceOracle, InterferenceRegistry, LockKind,
    PinAttempt, Request, RequestCtx, RequestOutcome, ShardedLockManager, SharedOracle, SwitchStats,
    Ticket,
};
use acc_storage::{CommitResolver, Database, Row, Table};
use acc_wal::{DurableWal, FlushStats, GroupCommitPolicy, LogDevice, LogRecord, Lsn, Wal};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError, TryLockError};
use std::time::Duration;

/// How a lock request behaves when it cannot be granted immediately.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitMode {
    /// Park the calling thread until granted (threaded engine).
    Block,
    /// Withdraw the request and return [`Error::WouldBlock`] (deterministic
    /// single-threaded scheduling).
    Fail,
}

/// A finished transaction's writes, queued for the version collector.
struct Finished {
    txn: TxnId,
    /// The LSN of its `Commit` or `Abort` record, published for version
    /// readers until the collector has rewritten its entries.
    end_lsn: u64,
    write_set: WriteSet,
}

/// The shared system: one per simulated database server group.
pub struct SharedDb {
    /// The database image (tables latch per page).
    db: Database,
    /// The sharded lock table.
    lm: ShardedLockManager,
    /// The WAL behind its own append mutex, plus its durable device and
    /// group-commit batcher: LSN assignment never contends with lock traffic
    /// or table access, and commits park on fsync boundaries
    /// (`DurableWal::sync_to`).
    wal: DurableWal,
    /// Per-ticket parking slots for blocked lock waits.
    parking: Parking,
    /// Transactions ordered to roll back by a compensating step (§3.4).
    doomed: Mutex<HashSet<TxnId>>,
    /// How many transactions `doomed` holds, changed only inside its
    /// critical sections. Dooms happen only when a compensating step closes
    /// a deadlock cycle, so [`SharedDb::is_doomed`] — asked on every lock
    /// request — skips the mutex while this reads 0.
    n_doomed: AtomicUsize,
    /// Read views of in-flight transactions. A transaction's view is the
    /// *durable* WAL frontier observed at [`SharedDb::begin_txn`] (the last
    /// fsync-covered LSN), so a version read can never see a commit that was
    /// not durable when the reader began. The map also feeds the
    /// version-chain pruning watermark (no chain entry a live view might
    /// still unwind through is ever dropped): the view is minted and
    /// registered inside one `active` critical section, and
    /// [`SharedDb::version_watermark`] reads the frontier inside the same
    /// critical section, so frontier monotonicity guarantees the watermark
    /// never passes a view about to be registered. Removed at commit and
    /// rollback before the transaction's writes go to the collector, so its
    /// own view does not hold back the watermark that collects them.
    active: Mutex<HashMap<TxnId, u64>>,
    /// End LSNs of transactions whose `Commit` or `Abort` record is
    /// appended but whose version chains the collector has not yet
    /// rewritten. Published *inside* the WAL append mutex (atomically with
    /// the end record's append, see `runner::commit` and `runner::rollback`),
    /// so by the time any flush can make the LSN durable — and hence any new
    /// view can cover it — the publication is already visible to
    /// `reconstruct`. Version readers resolve `Pending` chain entries
    /// through this map ([`PublishedCommits`]); the collector's rewrite,
    /// which retires the publication only afterwards, is then an invisible
    /// physical change rather than a visibility event.
    committing: Mutex<HashMap<TxnId, u64>>,
    /// Finished transactions whose writes wait for the version collector,
    /// in finishing order (see [`SharedDb::queue_versions`]).
    finished: Mutex<Vec<Finished>>,
    /// Pushes onto `finished` so far, bumped inside its critical section. A
    /// collector that sees it move while it ran runs again, so a finisher
    /// that found the collector busy can leave its work to it.
    pushes: AtomicU64,
    /// Held by the one running collector.
    collector: Mutex<()>,
    next_txn: AtomicU64,
    /// Replication shipped frontier: leader log records verified and
    /// acknowledged by a follower, updated by the shipper at each batch ack.
    /// `u64::MAX` is the unconfigured sentinel (no replication → the
    /// watermark ignores it); once set it only moves forward.
    shipped: AtomicU64,
    /// The epoch-versioned interference tables. Decomposed transactions pin
    /// an epoch at first-step admission and use the pinned snapshot for
    /// every lookup; unpinned callers (2PL legacy, tests) resolve the
    /// current tables per call.
    registry: Arc<InterferenceRegistry>,
    /// Safety net: a blocked lock wait longer than this is reported as an
    /// internal error instead of hanging the process.
    wait_cap: Duration,
    /// Fault-injection hook for lock waits (disabled by default).
    faults: Arc<FaultInjector>,
}

impl SharedDb {
    /// Build around an initial database image. The oracle is system-wide so
    /// that legacy 2PL transactions and decomposed transactions make
    /// consistent interference decisions.
    pub fn new(db: Database, oracle: SharedOracle) -> Self {
        let lm = ShardedLockManager::new(ShardedLockManager::DEFAULT_SHARDS);
        let parking = Parking::new(lm.n_shards());
        SharedDb {
            db,
            lm,
            wal: DurableWal::default(),
            parking,
            doomed: Mutex::new(HashSet::new()),
            n_doomed: AtomicUsize::new(0),
            active: Mutex::new(HashMap::new()),
            committing: Mutex::new(HashMap::new()),
            finished: Mutex::new(Vec::new()),
            pushes: AtomicU64::new(0),
            collector: Mutex::new(()),
            next_txn: AtomicU64::new(1),
            shipped: AtomicU64::new(u64::MAX),
            registry: Arc::new(InterferenceRegistry::new(oracle)),
            wait_cap: Duration::from_secs(30),
            faults: FaultInjector::disabled(),
        }
    }

    /// Override the blocked-wait safety cap (tests use a short one).
    pub fn with_wait_cap(mut self, cap: Duration) -> Self {
        self.wait_cap = cap;
        self
    }

    /// Swap the WAL's durable backend and group-commit policy (defaults to
    /// an in-memory device flushing on every commit). The fault injector in
    /// force moves onto the new log, so this and
    /// [`SharedDb::with_fault_injector`] compose in either order.
    pub fn with_wal_backend(mut self, dev: Box<dyn LogDevice>, policy: GroupCommitPolicy) -> Self {
        self.wal = DurableWal::new(dev, policy);
        self.wal.set_fault_injector(Arc::clone(&self.faults));
        self
    }

    /// Install a fault injector: the WAL reports appends, step boundaries
    /// (and so the injector's step observer) and fsync boundaries to it, and
    /// lock waits consult it for planned spurious wakeups.
    pub fn with_fault_injector(mut self, faults: Arc<FaultInjector>) -> Self {
        self.wal.set_fault_injector(Arc::clone(&faults));
        self.faults = faults;
        self
    }

    /// The current interference tables (unpinned snapshot).
    pub fn oracle(&self) -> SharedOracle {
        self.registry.current()
    }

    /// The epoch-versioned table registry (epoch number, drain state,
    /// mixed-epoch audit counter).
    pub fn registry(&self) -> &InterferenceRegistry {
        &self.registry
    }

    /// The tables a request must consult: the transaction's pinned epoch
    /// snapshot, or the current tables for unpinned (legacy/2PL) callers.
    pub fn oracle_for(&self, pin: Option<&EpochPin>) -> SharedOracle {
        match pin {
            Some(p) => Arc::clone(&p.oracle),
            None => self.registry.current(),
        }
    }

    /// Pin the current table epoch for a decomposed transaction's lifetime
    /// (first-step admission). While a switchover is draining, `Block` mode
    /// parks until the new epoch is current and `Fail` mode reports
    /// [`Error::WouldBlock`] on the admission sentinel so the deterministic
    /// scheduler retries the step later.
    pub fn pin_epoch(&self, txn: TxnId, mode: WaitMode) -> Result<EpochPin> {
        match self.registry.pin(mode == WaitMode::Block, self.wait_cap) {
            PinAttempt::Pinned(pin) => Ok(pin),
            PinAttempt::WouldBlock => Err(Error::WouldBlock {
                txn,
                resource: SharedDb::ADMISSION_SENTINEL,
            }),
            PinAttempt::TimedOut => Err(Error::Internal(format!(
                "{txn} waited longer than {:?} for an epoch switchover — \
                 drain never completed (bug)",
                self.wait_cap
            ))),
        }
    }

    /// Release a transaction's epoch pin (after `release_all`, so the
    /// switchover a completed drain triggers can never see a live old-epoch
    /// lock). Emits [`Event::EpochSwitch`] when this unpin completed one.
    pub fn unpin_epoch(&self, pin: Option<EpochPin>) {
        if let Some(pin) = pin {
            if let Some(stats) = self.registry.unpin(pin) {
                self.emit_switch(stats);
            }
        }
    }

    /// Publish re-analyzed interference tables: immediate switch when no
    /// epoch pins are outstanding, otherwise a drain that completes at the
    /// last unpin. Emits [`Event::EpochSwitch`] for an immediate switch.
    pub fn install_oracle(&self, oracle: SharedOracle) -> InstallOutcome {
        let (outcome, stats) = self.registry.install(oracle);
        if let Some(stats) = stats {
            self.emit_switch(stats);
        }
        outcome
    }

    fn emit_switch(&self, stats: SwitchStats) {
        let sink = self.lm.sink();
        if sink.is_enabled() {
            sink.emit(Event::EpochSwitch {
                epoch: stats.epoch,
                drained: stats.drained as u32,
                parked: stats.parked as u32,
            });
        }
    }

    /// The pseudo-resource reported by a `Fail`-mode admission that ran into
    /// a draining switchover.
    pub const ADMISSION_SENTINEL: ResourceId = ResourceId::Named(u32::MAX);

    /// Route the lock manager's observability events into `sink`.
    pub fn set_event_sink(&self, sink: Arc<EventSink>) {
        self.lm.set_sink(sink);
    }

    /// The lock manager's current event sink (disabled by default).
    pub fn event_sink(&self) -> Arc<EventSink> {
        self.lm.sink()
    }

    /// The sharded lock table (diagnostics: `holds`, `queue_len`,
    /// `is_waiting`, …).
    pub fn lm(&self) -> &ShardedLockManager {
        &self.lm
    }

    /// Total lock grants across all shards — the lock-leak check.
    pub fn total_grants(&self) -> usize {
        self.lm.total_grants()
    }

    /// The table with the given id, for reading or writing: every `Table`
    /// method takes `&self` and latches individual pages.
    pub fn table(&self, id: TableId) -> Result<&Table> {
        self.db.table(id)
    }

    /// Aggregate pager counters across all tables — the physical-latch
    /// analogue of the lock manager's grant statistics.
    pub fn pager_counters(&self) -> acc_storage::PagerCounters {
        self.db.pager_counters()
    }

    /// Clone the current database image (tests, consistency checks). Only
    /// transactionally consistent at quiescent points: tables are cloned one
    /// at a time by tree walks under short leaf latches, so concurrent
    /// writers would be interleaved — a torn image. Debug builds assert
    /// quiescence (no in-flight transactions); callers that want a torn
    /// diagnostic image of a live system must use
    /// [`SharedDb::snapshot_db_unchecked`].
    pub fn snapshot_db(&self) -> Database {
        debug_assert_eq!(
            self.active_txns(),
            0,
            "snapshot_db at a non-quiescent point: {} transaction(s) in \
             flight — the per-table snapshot would tear their writes",
            self.active_txns()
        );
        self.db.clone()
    }

    /// [`SharedDb::snapshot_db`] without the quiescence check: a possibly
    /// torn diagnostic read of a live system.
    pub fn snapshot_db_unchecked(&self) -> Database {
        self.db.clone()
    }

    /// Run `f` with the WAL locked (appends, boundary fault hooks).
    pub fn with_wal<R>(&self, f: impl FnOnce(&mut Wal) -> R) -> R {
        self.wal.with_log(f)
    }

    /// Append one row write's before/after images: the one `Update` append
    /// that every data write and its physical undo go through.
    pub(crate) fn log_update(
        &self,
        txn: TxnId,
        table: TableId,
        slot: Slot,
        before: Option<Row>,
        after: Option<Row>,
    ) {
        self.with_wal(|w| {
            w.append(LogRecord::Update {
                txn,
                table,
                slot,
                before,
                after,
            })
        });
    }

    /// The WAL's full byte image — every appended record, durable or not
    /// (the PR-2 crash model: crash points at append indices).
    pub fn wal_bytes(&self) -> Vec<u8> {
        self.with_wal(|w| w.to_bytes())
    }

    /// Number of WAL records.
    pub fn wal_len(&self) -> usize {
        self.with_wal(|w| w.len())
    }

    /// Park until `lsn` is durable, leading a group-commit flush if nobody
    /// else is (the commit ack point). Emits [`Event::WalFsync`] when this
    /// caller led the flush.
    pub fn sync_wal(&self, lsn: Lsn) -> Result<()> {
        let stats = self.wal.sync_to(lsn)?;
        self.emit_fsync(stats);
        Ok(())
    }

    /// Background flush hint (non-commit append sites): flush if the staged
    /// batch reached the policy threshold. Device errors are deliberately
    /// swallowed here — they are sticky and surface at the next commit's
    /// [`SharedDb::sync_wal`], the only point that acks durability.
    pub fn flush_wal_batch(&self) {
        self.emit_fsync(self.wal.flush_if_batchful());
    }

    /// Emit [`Event::WalFsync`] for a flush this caller led.
    fn emit_fsync(&self, stats: Option<FlushStats>) {
        let Some(stats) = stats else {
            return;
        };
        let sink = self.lm.sink();
        if sink.is_enabled() {
            sink.emit(Event::WalFsync {
                records: stats.records as u32,
                bytes: stats.bytes as u32,
            });
        }
    }

    /// Records covered by completed fsyncs (`durable_lsn` frontier).
    pub fn durable_wal_records(&self) -> u64 {
        self.wal.durable_records()
    }

    /// Completed WAL fsync boundaries.
    pub fn wal_fsyncs(&self) -> u64 {
        self.wal.fsyncs()
    }

    /// The durable record stream — what a crash right now would leave.
    pub fn wal_durable_stream(&self) -> Vec<u8> {
        self.wal.durable_stream()
    }

    /// The raw durable device image (sector-framed for a file device).
    pub fn wal_raw_image(&self) -> Vec<u8> {
        self.wal.raw_image()
    }

    /// Allocate a transaction id, log its begin record, and mint the
    /// transaction's version-read view: the *durable* WAL frontier (last
    /// fsync-covered LSN) at begin. Views anchored at the frontier — not at
    /// the begin record's own LSN — mean a version read can only ever cover
    /// a commit that was already durable when the reader began, closing the
    /// window where a reader straddles another transaction's group-commit
    /// fsync.
    ///
    /// The view is minted and registered under one `active` critical
    /// section (not inside the WAL append mutex — `DurableWal` acquires its
    /// state mutex before the log mutex, so reading the frontier under the
    /// log mutex would invert that order). `version_watermark` reads the
    /// frontier inside the same critical section; the frontier only moves
    /// forward, so any watermark computed before this registration used a
    /// frontier no newer than ours and is therefore `<=` our view.
    pub fn begin_txn(&self, txn_type: TxnTypeId) -> TxnId {
        let id = TxnId(self.next_txn.fetch_add(1, Ordering::Relaxed));
        self.with_wal(|w| w.append(LogRecord::Begin { txn: id, txn_type }));
        let mut active = self.active.lock().expect("active map not poisoned");
        let view = self.durable_wal_records().saturating_sub(1);
        active.insert(id, view);
        id
    }

    /// The read view of an in-flight transaction (the durable WAL frontier
    /// at its begin).
    pub fn read_view_of(&self, txn: TxnId) -> Option<u64> {
        self.active
            .lock()
            .expect("active map not poisoned")
            .get(&txn)
            .copied()
    }

    /// Remove a finished transaction from the active map (before its
    /// writes go to the collector — see `runner::commit` /
    /// `runner::rollback`).
    pub fn deregister_active(&self, txn: TxnId) {
        self.active
            .lock()
            .expect("active map not poisoned")
            .remove(&txn);
    }

    /// Publish the LSN of `txn`'s `Commit` record, or of its `Abort` record
    /// on rollback, for version readers. (A rolled-back transaction's
    /// forward and compensating writes compose to the pre-transaction
    /// image, so its entries may read as committed at the abort.) MUST be
    /// called while holding the WAL append mutex, immediately after
    /// appending that record: the durable frontier can only cover that LSN
    /// via a flush that collects staged records under the same mutex, so
    /// every view that can ever equal-or-pass it is minted after this
    /// publication is visible. From that point `Pending` chain entries of
    /// `txn` read exactly like `Committed { commit_lsn }`.
    pub fn publish_commit(&self, txn: TxnId, commit_lsn: u64) {
        self.committing
            .lock()
            .expect("committing map not poisoned")
            .insert(txn, commit_lsn);
    }

    /// Drop `txn`'s publication — after the collector has rewritten its
    /// chains (the publication is then redundant), or on a failed commit
    /// fsync (the LSN never became durable, so no view ever covers it and
    /// the chains stay `Pending`).
    pub fn retire_commit(&self, txn: TxnId) {
        self.committing
            .lock()
            .expect("committing map not poisoned")
            .remove(&txn);
    }

    /// The commit-publication resolver version reads consult (see
    /// [`SharedDb::publish_commit`]).
    pub fn published_commits(&self) -> PublishedCommits<'_> {
        PublishedCommits {
            map: &self.committing,
        }
    }

    /// Transactions whose end record is published and not yet collected
    /// (test/diagnostic helper).
    pub fn published_count(&self) -> usize {
        self.committing
            .lock()
            .expect("committing map not poisoned")
            .len()
    }

    /// In-flight transactions (test/diagnostic helper).
    pub fn active_txns(&self) -> usize {
        self.active.lock().expect("active map not poisoned").len()
    }

    /// Hand a finished transaction's writes to the version collector, then
    /// run the collector unless another thread is running it. `end_lsn` is
    /// the LSN of `txn`'s `Commit` or `Abort` record, published (see
    /// [`SharedDb::publish_commit`]) until the collector has rewritten its
    /// entries. Called once `txn` released its locks and left the active
    /// map, so no lock is held while the collector runs and `txn`'s own view
    /// does not hold back the watermark.
    pub fn queue_versions(&self, txn: TxnId, end_lsn: u64, write_set: WriteSet) {
        {
            let mut finished = self.finished.lock().expect("finished queue not poisoned");
            finished.push(Finished {
                txn,
                end_lsn,
                write_set,
            });
            self.pushes.fetch_add(1, Ordering::SeqCst);
        }
        // A running collector runs again if anything was queued while it
        // ran, so work left to it is not stranded.
        loop {
            // The mutex guards no data, so a poisoned one is still usable.
            let running = match self.collector.try_lock() {
                Ok(g) => g,
                Err(TryLockError::Poisoned(p)) => p.into_inner(),
                Err(TryLockError::WouldBlock) => return,
            };
            let seen = self.pushes.load(Ordering::SeqCst);
            self.collect();
            drop(running);
            if self.pushes.load(Ordering::SeqCst) == seen {
                return;
            }
        }
    }

    /// Wait for a running collector, run the collector once, and return how
    /// many finished transactions still wait for the watermark to pass their
    /// end LSN (quiescent checks: zero once every end record is durable and
    /// no view is left).
    pub fn drain_versions(&self) -> usize {
        let _running = self
            .collector
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        self.collect();
        self.finished
            .lock()
            .expect("finished queue not poisoned")
            .len()
    }

    /// One collector pass; the caller holds `collector`. The watermark is
    /// read inside that critical section, so passes see it in order, and it
    /// never falls. Every queued transaction whose end LSN it has passed is
    /// collected: one leaf visit per written key rewrites its `Pending`
    /// entries, trims the chain and removes a settled tombstone
    /// (`Table::collect_versions`); only then is its publication retired,
    /// so a reader that meets one of its entries still `Pending` under that
    /// leaf's latch can resolve it.
    fn collect(&self) {
        let Some(watermark) = self.version_watermark() else {
            return;
        };
        let ready: Vec<Finished> = self
            .finished
            .lock()
            .expect("finished queue not poisoned")
            .extract_if(.., |f| f.end_lsn <= watermark)
            .collect();
        for f in ready {
            for (&table, keys) in &f.write_set {
                if let Ok(t) = self.table(table) {
                    t.collect_versions(f.txn, f.end_lsn, watermark, keys);
                }
            }
            self.retire_commit(f.txn);
        }
    }

    /// The version-chain pruning low-watermark: a chain entry committed at
    /// `lsn <= watermark` can be visible to every live and future view, so
    /// an all-visible chain *prefix* below it is droppable.
    ///
    /// Three clamps, all load-bearing:
    ///
    /// * the minimum *read view* of any in-flight transaction — a live view
    ///   older than an entry's commit LSN must still be able to unwind
    ///   through it;
    /// * the *durable* WAL frontier, not the allocated append frontier —
    ///   commit LSNs are allocated at append time, but group commit can
    ///   leave them non-durable past an fsync boundary; pruning history for
    ///   a commit whose record a crash could still erase would leave the
    ///   surviving (durable) prefix without the images it implies;
    /// * the replication *shipped* frontier, when one is configured
    ///   ([`SharedDb::set_shipped_frontier`]) — a follower that restarts
    ///   resumes from its last verified record and serves version reads at
    ///   its replay frontier; pruning history the follower has not verified
    ///   yet would let a promotion land on an image whose chains the leader
    ///   already dropped.
    ///
    /// The frontier is read inside the `active` critical section, mirroring
    /// the view minting in [`SharedDb::begin_txn`]: either a minting begin
    /// registered first (the min below sees its view), or this watermark's
    /// frontier read happened first and monotonicity bounds it by the view
    /// the minter is about to register. Either way the watermark never
    /// passes a live view.
    ///
    /// `None` means nothing is durable yet, so nothing may be pruned.
    pub fn version_watermark(&self) -> Option<u64> {
        let active = self.active.lock().expect("active map not poisoned");
        let mut cap = self.durable_wal_records().checked_sub(1)?;
        if let Some(shipped) = self.shipped_frontier() {
            // Nothing verified at the follower yet → nothing prunable.
            cap = cap.min(shipped.checked_sub(1)?);
        }
        let min_view = active.values().copied().min();
        Some(min_view.map_or(cap, |m| m.min(cap)))
    }

    /// Record the replication shipped frontier: `records` leader log records
    /// are now verified at a follower. Monotonic — a late or duplicate ack
    /// can never pull the frontier (and with it the prune watermark) back.
    pub fn set_shipped_frontier(&self, records: u64) {
        let _ = self
            .shipped
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |cur| {
                (cur == u64::MAX || records > cur).then_some(records)
            });
    }

    /// The shipped frontier, or `None` when no replication is configured.
    pub fn shipped_frontier(&self) -> Option<u64> {
        let v = self.shipped.load(Ordering::Relaxed);
        (v != u64::MAX).then_some(v)
    }

    /// True if some other transaction doomed this one (it is delaying a
    /// compensating step and must roll back, §3.4). Reads the doom set only
    /// while some transaction is doomed: [`SharedDb::doom`] counts the doom
    /// before it nudges the victim, so a victim woken by the nudge sees the
    /// count.
    pub fn is_doomed(&self, txn: TxnId) -> bool {
        self.n_doomed.load(Ordering::SeqCst) > 0
            && self
                .doomed
                .lock()
                .expect("doom set not poisoned")
                .contains(&txn)
    }

    /// Forget a transaction's doom flag (called once it has rolled back).
    pub fn clear_doom(&self, txn: TxnId) {
        if self.n_doomed.load(Ordering::SeqCst) == 0 {
            return;
        }
        let mut doomed = self.doomed.lock().expect("doom set not poisoned");
        if doomed.remove(&txn) {
            self.n_doomed.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// Doom `txn` (it is delaying a compensating step) and wake any of its
    /// parked lock waits so it notices promptly.
    pub fn doom(&self, txn: TxnId) {
        {
            let mut doomed = self.doomed.lock().expect("doom set not poisoned");
            if doomed.insert(txn) {
                self.n_doomed.fetch_add(1, Ordering::SeqCst);
            }
        }
        self.parking.nudge_txn(txn);
    }

    /// Acquire one lock, honouring the wait mode, with interference judged
    /// by `oracle`: a pinned transaction's epoch snapshot (the step context
    /// resolves it once per step, see [`SharedDb::oracle_for`]) or, for an
    /// unpinned caller, the current tables ([`SharedDb::oracle`]). Returns:
    ///
    /// * `Ok(())` — granted (possibly after blocking);
    /// * `Err(WouldBlock)` — `Fail` mode and the lock is contested;
    /// * `Err(Deadlock)` — this transaction's step must be undone and
    ///   retried;
    /// * `Err(TxnAborted)` — this transaction was doomed by a compensating
    ///   step and must roll back entirely.
    pub fn acquire(
        &self,
        txn: TxnId,
        resource: ResourceId,
        kind: LockKind,
        ctx: RequestCtx,
        mode: WaitMode,
        oracle: &(dyn InterferenceOracle + Send + Sync),
    ) -> Result<()> {
        // A doom flag orders the transaction to roll back; once it *is*
        // rolling back (compensating), the order is vacuous and must not
        // abort the compensating step (§3.4).
        if !ctx.compensating && self.is_doomed(txn) {
            return Err(Error::TxnAborted(txn));
        }
        let req = Request::new(txn, resource, kind, ctx);
        match self
            .lm
            .request(req, oracle, &mut |n| self.parking.grant(n.ticket))
        {
            RequestOutcome::Granted => Ok(()),
            RequestOutcome::Waiting(ticket) => {
                self.wait_on(txn, resource, ticket, mode, ctx.compensating, oracle)
            }
            RequestOutcome::Deadlock { victims, ticket } => {
                if victims.contains(&txn) {
                    // Our step is the victim; the request was withdrawn.
                    Err(Error::Deadlock { victim: txn })
                } else {
                    // We are compensating: doom the steps delaying us and
                    // keep waiting for our (still queued) request.
                    for v in victims {
                        self.doom(v);
                    }
                    let ticket = ticket.expect("compensating deadlock keeps the request queued");
                    self.wait_on(txn, resource, ticket, mode, ctx.compensating, oracle)
                }
            }
        }
    }

    /// Withdraw `txn`'s queued requests and drop any parking state for
    /// `ticket`. Safe against in-flight grants: notices are posted under the
    /// shard mutexes `cancel_waiting` itself takes, so once it returns no
    /// grant for the ticket can still be produced.
    fn cancel_and_unpark(
        &self,
        txn: TxnId,
        ticket: Ticket,
        oracle: &(dyn InterferenceOracle + Send + Sync),
    ) {
        self.lm
            .cancel_waiting(txn, oracle, &mut |n| self.parking.grant(n.ticket));
        self.parking.deregister(ticket);
    }

    fn emit_wait_end(&self, txn: TxnId, resource: ResourceId, started: std::time::Instant) {
        let sink = self.lm.sink();
        if sink.is_enabled() {
            sink.emit(Event::WaitEnd {
                txn,
                resource,
                micros: started.elapsed().as_micros() as u64,
            });
        }
    }

    fn wait_on(
        &self,
        txn: TxnId,
        resource: ResourceId,
        ticket: Ticket,
        mode: WaitMode,
        compensating: bool,
        oracle: &(dyn InterferenceOracle + Send + Sync),
    ) -> Result<()> {
        match mode {
            WaitMode::Fail => {
                // Withdraw immediately; the deterministic scheduler will
                // retry the whole step later.
                self.cancel_and_unpark(txn, ticket, oracle);
                Err(Error::WouldBlock { txn, resource })
            }
            WaitMode::Block => {
                let started = std::time::Instant::now();
                let Some(slot) = self.parking.register(ticket, txn) else {
                    // The grant raced ahead of our registration.
                    self.emit_wait_end(txn, resource, started);
                    return Ok(());
                };
                // Wait in slices; on each slice that expires without a
                // grant, re-run deadlock detection from this waiter — cycles
                // assembled after our enqueue (by grants/queue mutations
                // elsewhere, possibly on other shards) are invisible to
                // enqueue-time detection and must be swept up here.
                let slice = Duration::from_millis(50).min(self.wait_cap);
                let mut waited = Duration::ZERO;
                loop {
                    if slot.is_granted() {
                        self.emit_wait_end(txn, resource, started);
                        return Ok(());
                    }
                    if !compensating && self.is_doomed(txn) {
                        self.cancel_and_unpark(txn, ticket, oracle);
                        return Err(Error::TxnAborted(txn));
                    }
                    // A planned spurious wakeup truncates this slice to near
                    // zero: the waiter comes back with no grant and must
                    // re-check doom flags and re-run detection — the path a
                    // stray nudge or early timeout exercises.
                    let spurious = self.faults.on_lock_wait();
                    let this_slice = if spurious {
                        Duration::from_micros(100)
                    } else {
                        slice
                    };
                    if slot.wait_granted(this_slice) {
                        self.emit_wait_end(txn, resource, started);
                        return Ok(());
                    }
                    // Accumulate the time actually slept so the safety cap
                    // stays sound even under a storm of injected spurious
                    // wakeups.
                    waited += this_slice;
                    let resolution = self
                        .lm
                        .detect_from(txn, oracle, &mut |n| self.parking.grant(n.ticket));
                    match resolution {
                        Some(CycleResolution::Retry) => {
                            // Our queued requests were withdrawn inside
                            // detect_from (notices already delivered).
                            self.parking.deregister(ticket);
                            return Err(Error::Deadlock { victim: txn });
                        }
                        Some(CycleResolution::Doom(victims)) => {
                            for v in victims {
                                self.doom(v);
                            }
                        }
                        None => {}
                    }
                    if waited >= self.wait_cap {
                        self.cancel_and_unpark(txn, ticket, oracle);
                        return Err(Error::Internal(format!(
                            "{txn} waited longer than {:?} on {resource} — \
                             undetected stall (bug)",
                            self.wait_cap
                        )));
                    }
                }
            }
        }
    }

    /// Release the caller-selected grants of `txn` and wake anyone whose
    /// request became grantable. Waiters are re-evaluated under `oracle`,
    /// so a pinned transaction releases under its own epoch.
    pub fn release_where(
        &self,
        txn: TxnId,
        pred: impl Fn(LockKind, &RequestCtx) -> bool,
        oracle: &(dyn InterferenceOracle + Send + Sync),
    ) {
        self.lm
            .release_where(txn, oracle, pred, &mut |n| self.parking.grant(n.ticket));
    }

    /// Release everything `txn` holds or waits for, re-evaluating waiters
    /// under `oracle` (see [`SharedDb::release_where`]).
    pub fn release_all(&self, txn: TxnId, oracle: &(dyn InterferenceOracle + Send + Sync)) {
        self.lm
            .release_all(txn, oracle, &mut |n| self.parking.grant(n.ticket));
    }
}

/// [`CommitResolver`] over the shared committing-transaction map: version
/// reads resolve `Pending` chain entries of a transaction whose `Commit` or
/// `Abort` record is appended but whose chains the collector has not yet
/// rewritten (see [`SharedDb::publish_commit`]). The map mutex is a leaf —
/// resolving takes no other lock, so readers may resolve under a leaf
/// latch.
pub struct PublishedCommits<'a> {
    map: &'a Mutex<HashMap<TxnId, u64>>,
}

impl CommitResolver for PublishedCommits<'_> {
    fn commit_lsn(&self, txn: TxnId) -> Option<u64> {
        self.map
            .lock()
            .expect("committing map not poisoned")
            .get(&txn)
            .copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acc_lockmgr::NoInterference;
    use acc_storage::Catalog;
    use std::sync::Arc;

    fn shared() -> Arc<SharedDb> {
        Arc::new(
            SharedDb::new(Database::new(&Catalog::new()), Arc::new(NoInterference))
                .with_wait_cap(Duration::from_millis(200)),
        )
    }

    const R: ResourceId = ResourceId::Named(1);

    /// An unpinned request, judged by the tables `shared()` was built with.
    fn lock(s: &SharedDb, txn: TxnId, r: ResourceId, kind: LockKind, mode: WaitMode) -> Result<()> {
        let ctx = RequestCtx::plain(acc_common::StepTypeId(0));
        s.acquire(txn, r, kind, ctx, mode, &NoInterference)
    }

    #[test]
    fn begin_assigns_ids_and_logs() {
        let s = shared();
        let a = s.begin_txn(TxnTypeId(0));
        let b = s.begin_txn(TxnTypeId(0));
        assert_ne!(a, b);
        assert_eq!(s.wal_len(), 2);
    }

    #[test]
    fn fail_mode_returns_would_block() {
        let s = shared();
        let t1 = s.begin_txn(TxnTypeId(0));
        let t2 = s.begin_txn(TxnTypeId(0));
        lock(&s, t1, R, LockKind::X, WaitMode::Fail).unwrap();
        let err = lock(&s, t2, R, LockKind::X, WaitMode::Fail).unwrap_err();
        assert!(matches!(err, Error::WouldBlock { .. }));
        // The request was withdrawn: releasing t1 leaves the queue empty.
        s.release_all(t1, &NoInterference);
        assert_eq!(s.lm().queue_len(R), 0);
    }

    #[test]
    fn block_mode_wakes_on_release() {
        let s = shared();
        let t1 = s.begin_txn(TxnTypeId(0));
        let t2 = s.begin_txn(TxnTypeId(0));
        lock(&s, t1, R, LockKind::X, WaitMode::Block).unwrap();
        let s2 = Arc::clone(&s);
        let h = std::thread::spawn(move || lock(&s2, t2, R, LockKind::X, WaitMode::Block));
        std::thread::sleep(Duration::from_millis(30));
        s.release_all(t1, &NoInterference);
        h.join().unwrap().unwrap();
        assert!(s.lm().holds(t2, R, LockKind::X));
    }

    #[test]
    fn doomed_waiter_is_woken_with_abort() {
        let s = shared();
        let t1 = s.begin_txn(TxnTypeId(0));
        let t2 = s.begin_txn(TxnTypeId(0));
        lock(&s, t1, R, LockKind::X, WaitMode::Block).unwrap();
        let s2 = Arc::clone(&s);
        let h = std::thread::spawn(move || lock(&s2, t2, R, LockKind::X, WaitMode::Block));
        std::thread::sleep(Duration::from_millis(30));
        s.doom(t2);
        let err = h.join().unwrap().unwrap_err();
        assert_eq!(err, Error::TxnAborted(t2));
        assert!(s.is_doomed(t2));
        s.clear_doom(t2);
        assert!(!s.is_doomed(t2));
    }

    #[test]
    fn doomed_txn_cannot_acquire() {
        let s = shared();
        let t1 = s.begin_txn(TxnTypeId(0));
        s.doom(t1);
        let err = lock(&s, t1, R, LockKind::S, WaitMode::Block).unwrap_err();
        assert_eq!(err, Error::TxnAborted(t1));
    }

    #[test]
    fn wait_cap_fires_instead_of_hanging() {
        let s = shared();
        let t1 = s.begin_txn(TxnTypeId(0));
        let t2 = s.begin_txn(TxnTypeId(0));
        lock(&s, t1, R, LockKind::X, WaitMode::Block).unwrap();
        let err = lock(&s, t2, R, LockKind::X, WaitMode::Block).unwrap_err();
        assert!(matches!(err, Error::Internal(_)));
    }

    #[test]
    fn grants_on_distinct_resources_do_not_cross_wake() {
        // Two waiters on two resources; releasing one lock must wake only
        // its own waiter (per-ticket parking, no thundering herd).
        let s = shared();
        let r2 = ResourceId::Named(2);
        let t1 = s.begin_txn(TxnTypeId(0));
        let t2 = s.begin_txn(TxnTypeId(0));
        let t3 = s.begin_txn(TxnTypeId(0));
        let t4 = s.begin_txn(TxnTypeId(0));
        lock(&s, t1, R, LockKind::X, WaitMode::Block).unwrap();
        lock(&s, t2, r2, LockKind::X, WaitMode::Block).unwrap();
        let s3 = Arc::clone(&s);
        let h3 = std::thread::spawn(move || lock(&s3, t3, R, LockKind::X, WaitMode::Block));
        let s4 = Arc::clone(&s);
        let h4 = std::thread::spawn(move || lock(&s4, t4, r2, LockKind::X, WaitMode::Block));
        std::thread::sleep(Duration::from_millis(30));
        s.release_all(t1, &NoInterference);
        h3.join().unwrap().unwrap();
        assert!(s.lm().holds(t3, R, LockKind::X));
        // t4 is still parked; its lock is still held by t2.
        assert!(s.lm().is_waiting(t4));
        s.release_all(t2, &NoInterference);
        h4.join().unwrap().unwrap();
        assert!(s.lm().holds(t4, r2, LockKind::X));
    }
}
