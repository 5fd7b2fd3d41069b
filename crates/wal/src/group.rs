//! Group commit: batching appenders onto shared fsync boundaries.
//!
//! The WAL sits behind a dedicated append mutex that assigns LSNs
//! independently of lock traffic; this module is the batching layer behind
//! it. Appenders append under the log mutex (cheap — one encode onto the
//! log's image, no I/O) and *commit* by parking on their record's LSN in
//! [`DurableWal::sync_to`]. The first parked committer becomes the batch
//! leader: it waits out the group-commit window so followers can pile on,
//! drains every frame appended since the last flush, and retires the whole
//! batch with one device write + fsync. `durable_lsn` advances only at these
//! fsync boundaries — a crash loses precisely the suffix past the last
//! completed fsync, never a prefix of it.
//!
//! Failure is sticky: if a sync fails mid-batch, no transaction in that
//! batch (or any later one) is ever acknowledged — the error surfaces to
//! every parked committer and to all future ones. Acking a commit whose
//! fsync did not complete is the one unforgivable durability bug.

use crate::device::{LogDevice, MemDevice};
use crate::log::{Lsn, Wal};
use acc_common::faults::FaultInjector;
use acc_common::{Error, Result};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// How long a batch leader waits for followers before flushing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitWindow {
    /// Wait exactly this long. Zero — the default — flushes immediately
    /// (every committer that finds no flush in progress leads its own
    /// batch); non-zero trades commit latency for fewer, fatter fsyncs.
    Fixed(Duration),
    /// Track the observed arrival rate: the leader waits roughly four EWMA
    /// inter-append gaps (time enough for a few more records to arrive at
    /// the current pace), clamped to `floor..=ceil` — but only while
    /// flushes are actually coalescing commits. The second signal is an
    /// EWMA of committers retired per flush: while it sits near 1 (a lone
    /// committer, or a device so fast that batching buys nothing) the wait
    /// is zero, so a solo thread never pays a window for followers that
    /// cannot exist. On a slow device under concurrency the in-flight fsync
    /// itself coalesces the first followers, occupancy rises above the
    /// engage threshold, and the window switches on. Gaps so long that four
    /// of them exceed `ceil` mean "idle": zero wait again.
    Adaptive {
        /// Smallest engaged wait (granted even when the gap estimate says
        /// less — an fsync costs the same either way).
        floor: Duration,
        /// Largest wait; estimated waits beyond it mean "idle, don't wait".
        ceil: Duration,
    },
}

impl Default for CommitWindow {
    fn default() -> CommitWindow {
        CommitWindow::Fixed(Duration::ZERO)
    }
}

/// Commits-per-flush below which an adaptive window stays off: flushes are
/// not coalescing, so waiting would tax the only committer there is.
const ENGAGE_COMMITS_PER_FLUSH: f64 = 1.5;

/// The leader wait a [`CommitWindow::Adaptive`] window prescribes given the
/// EWMA of inter-append gaps (`0` = no estimate yet) and the EWMA of
/// committers retired per flush. Pure, so the clamp/engage policy is
/// unit-testable without a clock.
pub fn adaptive_wait(
    ewma_gap_ns: u64,
    ewma_commits_per_flush: f64,
    floor: Duration,
    ceil: Duration,
) -> Duration {
    if ewma_commits_per_flush < ENGAGE_COMMITS_PER_FLUSH {
        // Flushes retire ~one commit each: either a lone committer (no
        // follower will ever arrive during the wait) or a device fast
        // enough that followers retire behind the in-flight fsync anyway.
        // Waiting buys nothing; don't.
        return Duration::ZERO;
    }
    if ewma_gap_ns == 0 {
        // Coalescing but no rate estimate yet: the cheapest engaged wait.
        return floor;
    }
    let want = Duration::from_nanos(ewma_gap_ns.saturating_mul(4));
    if want > ceil {
        // Records arrive slower than the ceiling covers: idle, don't wait.
        return Duration::ZERO;
    }
    want.max(floor)
}

/// Tuning for the group-commit batcher.
#[derive(Debug, Clone, Copy)]
pub struct GroupCommitPolicy {
    /// The leader's follower-accumulation wait.
    pub window: CommitWindow,
    /// Background-flush threshold: once this many records are appended but
    /// not yet durable, a non-committing append may trigger a flush so the
    /// staged tail cannot grow without bound between commits.
    pub max_batch: usize,
}

impl GroupCommitPolicy {
    /// A fixed-window policy.
    pub fn fixed(window: Duration, max_batch: usize) -> GroupCommitPolicy {
        GroupCommitPolicy {
            window: CommitWindow::Fixed(window),
            max_batch,
        }
    }

    /// A rate-adaptive policy (see [`CommitWindow::Adaptive`]).
    pub fn adaptive(floor: Duration, ceil: Duration, max_batch: usize) -> GroupCommitPolicy {
        GroupCommitPolicy {
            window: CommitWindow::Adaptive { floor, ceil },
            max_batch,
        }
    }
}

impl Default for GroupCommitPolicy {
    fn default() -> GroupCommitPolicy {
        GroupCommitPolicy {
            window: CommitWindow::default(),
            max_batch: 256,
        }
    }
}

/// What one leader flush retired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlushStats {
    /// Records newly made durable by this flush.
    pub records: u64,
    /// Encoded bytes newly made durable by this flush.
    pub bytes: u64,
}

#[derive(Debug, Default)]
struct GcState {
    /// Records covered by completed fsyncs (the durable LSN frontier:
    /// record `lsn` is durable iff `lsn < durable`).
    durable: u64,
    /// True while a leader is flushing (followers park instead of syncing).
    flushing: bool,
    /// Completed fsync boundaries.
    fsyncs: u64,
    /// Sticky device failure: set once, fails every later sync.
    failed: Option<String>,
    /// When the last flush completed (adaptive-window rate tracking).
    last_flush: Option<Instant>,
    /// EWMA (α = 1/4) of inter-append gaps, nanoseconds; 0 = no estimate.
    /// Sampled batchwise: elapsed-since-last-flush / records-this-flush.
    ewma_gap_ns: u64,
    /// EWMA (α = 1/4) of committers retired per flush — the adaptive
    /// window's engage signal (see [`adaptive_wait`]).
    ewma_commits_per_flush: f64,
    /// `sync_to` calls since the last completed flush.
    committers_since_flush: u64,
}

impl GcState {
    /// Fold one completed flush covering `records` new records into the
    /// rate estimates. Called at each completed flush, under the state
    /// mutex.
    fn note_flush(&mut self, records: u64) {
        let now = Instant::now();
        if let Some(prev) = self.last_flush {
            let elapsed = now.duration_since(prev).as_nanos().min(u64::MAX as u128) as u64;
            // Mean inter-append gap over the interval. Dividing by the batch
            // size is also what keeps the feedback loop stable: a longer
            // window collects proportionally more records, so the per-record
            // gap — and with it the next window — converges instead of
            // compounding.
            let gap = elapsed / records.max(1);
            self.ewma_gap_ns = if self.ewma_gap_ns == 0 {
                gap
            } else {
                self.ewma_gap_ns - self.ewma_gap_ns / 4 + gap / 4
            };
        }
        self.last_flush = Some(now);
        self.ewma_commits_per_flush =
            self.ewma_commits_per_flush * 0.75 + self.committers_since_flush as f64 * 0.25;
        self.committers_since_flush = 0;
    }
}

/// The WAL plus its durable backend and the group-commit state machine.
///
/// The in-memory [`Wal`] holds the whole encoded log, durable or not: the
/// image `to_bytes` copies and the append-index crash captures read. The
/// device holds its durable prefix, which a flush extends by the frames
/// appended since the last one. The three locks are ordered `state` → `log`
/// → `dev` (each taken briefly, never nested the other way), so appenders
/// touch only `log` while a leader is inside the device fsync.
pub struct DurableWal {
    log: Mutex<Wal>,
    dev: Mutex<Box<dyn LogDevice>>,
    state: Mutex<GcState>,
    cv: Condvar,
    policy: GroupCommitPolicy,
    faults: Option<Arc<FaultInjector>>,
}

impl std::fmt::Debug for DurableWal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.state.lock().unwrap();
        f.debug_struct("DurableWal")
            .field("durable", &state.durable)
            .field("fsyncs", &state.fsyncs)
            .field("failed", &state.failed)
            .field("policy", &self.policy)
            .finish()
    }
}

impl Default for DurableWal {
    fn default() -> DurableWal {
        DurableWal::new(Box::new(MemDevice::new()), GroupCommitPolicy::default())
    }
}

impl DurableWal {
    /// A log on `dev` under `policy`.
    pub fn new(dev: Box<dyn LogDevice>, policy: GroupCommitPolicy) -> DurableWal {
        DurableWal {
            log: Mutex::new(Wal::new()),
            dev: Mutex::new(dev),
            state: Mutex::new(GcState::default()),
            cv: Condvar::new(),
            policy,
            faults: None,
        }
    }

    /// Install a fault injector: the inner log observes appends and step
    /// boundaries (as before), and the batcher reports each completed fsync
    /// so a planned crash can land exactly on a fsync boundary.
    pub fn set_fault_injector(&mut self, faults: Arc<FaultInjector>) {
        self.log
            .lock()
            .unwrap()
            .set_fault_injector(Arc::clone(&faults));
        self.faults = Some(faults);
    }

    /// Run `f` under the append mutex.
    pub fn with_log<R>(&self, f: impl FnOnce(&mut Wal) -> R) -> R {
        f(&mut self.log.lock().unwrap())
    }

    /// The group-commit policy in force.
    pub fn policy(&self) -> GroupCommitPolicy {
        self.policy
    }

    /// Records covered by completed fsyncs.
    pub fn durable_records(&self) -> u64 {
        self.state.lock().unwrap().durable
    }

    /// Completed fsync boundaries.
    pub fn fsyncs(&self) -> u64 {
        self.state.lock().unwrap().fsyncs
    }

    /// The device's durable record stream (what a crash right now leaves).
    pub fn durable_stream(&self) -> Vec<u8> {
        self.dev.lock().unwrap().durable_stream()
    }

    /// The device's raw durable image (sector-framed for a file device).
    pub fn raw_image(&self) -> Vec<u8> {
        self.dev.lock().unwrap().raw_image()
    }

    /// Park until record `lsn` is durable, leading a batch flush if nobody
    /// else is. Returns `Some(stats)` if this call led the flush that
    /// retired `lsn` (the caller observes the fsync boundary), `None` if a
    /// concurrent leader covered it. Errors are sticky: once a sync fails,
    /// every current and future committer gets the error.
    pub fn sync_to(&self, lsn: Lsn) -> Result<Option<FlushStats>> {
        let mut state = self.state.lock().unwrap();
        state.committers_since_flush += 1;
        loop {
            if let Some(msg) = &state.failed {
                return Err(Error::Internal(format!("wal device failed: {msg}")));
            }
            if state.durable > lsn.0 {
                return Ok(None);
            }
            if state.flushing {
                state = self.cv.wait(state).unwrap();
                continue;
            }
            // Lead: let followers accumulate for one window, then flush
            // everything appended — including appends that arrived during
            // the wait — in one write + fsync.
            let wait = match self.policy.window {
                CommitWindow::Fixed(w) => w,
                CommitWindow::Adaptive { floor, ceil } => {
                    adaptive_wait(state.ewma_gap_ns, state.ewma_commits_per_flush, floor, ceil)
                }
            };
            let stats = self.lead_flush(state, wait)?;
            // This leader's own record is covered by construction: it was
            // appended before sync_to was called.
            debug_assert!(self.durable_records() > lsn.0);
            return Ok(Some(stats));
        }
    }

    /// Background flush hint: if at least `max_batch` records are appended
    /// but not durable and no flush is running, lead one now (no window
    /// wait — the batch is already full). Returns the flush stats if this
    /// call flushed. Device errors are sticky but deliberately not returned
    /// here: a failed background flush surfaces at the next commit's
    /// `sync_to`, which is the ack point that must see it.
    pub fn flush_if_batchful(&self) -> Option<FlushStats> {
        {
            let state = self.state.lock().unwrap();
            if state.flushing || state.failed.is_some() {
                return None;
            }
            let appended = self.log.lock().unwrap().len() as u64;
            if appended.saturating_sub(state.durable) < self.policy.max_batch as u64 {
                return None;
            }
        }
        self.force_flush().ok().flatten()
    }

    /// Lead a flush now regardless of batch size (used by tests and
    /// shutdown). Same sticky-failure semantics as [`DurableWal::sync_to`].
    pub fn force_flush(&self) -> Result<Option<FlushStats>> {
        let mut state = self.state.lock().unwrap();
        loop {
            if let Some(msg) = &state.failed {
                return Err(Error::Internal(format!("wal device failed: {msg}")));
            }
            if state.flushing {
                state = self.cv.wait(state).unwrap();
                continue;
            }
            let appended = self.log.lock().unwrap().len() as u64;
            if state.durable >= appended {
                return Ok(None);
            }
            return self.lead_flush(state, Duration::ZERO).map(Some);
        }
    }

    /// The leader's flush, entered holding the state lock with no flush
    /// running: mark the flush in progress, release the lock for `wait` plus
    /// the drain and fsync, then re-lock and either account the completed
    /// flush or record the sticky failure. Either way every parked committer
    /// is woken to re-check.
    fn lead_flush(&self, mut state: MutexGuard<'_, GcState>, wait: Duration) -> Result<FlushStats> {
        state.flushing = true;
        drop(state);
        if !wait.is_zero() {
            std::thread::sleep(wait);
        }
        let flushed = self.flush_once();
        let mut state = self.state.lock().unwrap();
        state.flushing = false;
        let outcome = match flushed {
            Ok((covered, bytes)) => {
                let stats = FlushStats {
                    records: covered - state.durable,
                    bytes,
                };
                state.durable = covered;
                state.fsyncs += 1;
                state.note_flush(stats.records);
                Ok(stats)
            }
            Err(e) => {
                state.failed = Some(e.to_string());
                Err(Error::Internal(format!("wal device failed: {e}")))
            }
        };
        self.cv.notify_all();
        outcome
    }

    /// Drain the frames appended since the last flush and fsync them.
    /// Returns the record count covered by this flush (the log length at
    /// drain time) and the byte count written. Called only by a leader
    /// (state.flushing == true), so there is exactly one drainer at a time.
    fn flush_once(&self) -> Result<(u64, u64)> {
        let (bytes, covered) = {
            let mut log = self.log.lock().unwrap();
            let bytes = log.take_staged();
            (bytes, log.len() as u64)
        };
        let n = bytes.len() as u64;
        let mut dev = self.dev.lock().unwrap();
        dev.stage(&bytes);
        dev.sync()?;
        if let Some(f) = &self.faults {
            if f.is_enabled() {
                f.on_wal_fsync(|| dev.durable_stream());
            }
        }
        Ok((covered, n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec;
    use crate::record::LogRecord;
    use acc_common::TxnId;

    fn commit_rec(n: u64) -> LogRecord {
        LogRecord::Commit { txn: TxnId(n) }
    }

    /// A device whose sync always fails — the mid-batch crash model.
    struct BrokenDevice;

    impl LogDevice for BrokenDevice {
        fn stage(&mut self, _bytes: &[u8]) {}
        fn sync(&mut self) -> Result<()> {
            Err(Error::Internal("injected sync failure".into()))
        }
        fn staged_len(&self) -> usize {
            0
        }
        fn durable_len(&self) -> u64 {
            0
        }
        fn durable_stream(&self) -> Vec<u8> {
            Vec::new()
        }
        fn raw_image(&self) -> Vec<u8> {
            Vec::new()
        }
        fn kind(&self) -> &'static str {
            "broken"
        }
    }

    #[test]
    fn sync_to_advances_durable_only_at_fsync() {
        let wal = DurableWal::default();
        let a = wal.with_log(|w| w.append(commit_rec(1)));
        let b = wal.with_log(|w| w.append(commit_rec(2)));
        assert_eq!(wal.durable_records(), 0);
        assert!(wal.durable_stream().is_empty());
        let stats = wal.sync_to(b).unwrap().expect("led the flush");
        assert_eq!(stats.records, 2);
        assert_eq!(wal.durable_records(), 2);
        assert_eq!(wal.fsyncs(), 1);
        // Both records are on the durable stream.
        let recs = codec::decode_all(&wal.durable_stream());
        assert_eq!(recs, vec![commit_rec(1), commit_rec(2)]);
        // Re-syncing an already durable LSN is a no-op.
        assert_eq!(wal.sync_to(a).unwrap(), None);
        assert_eq!(wal.fsyncs(), 1);
    }

    #[test]
    fn lone_appender_flushes_within_the_window() {
        // Liveness: one committer, nonzero window, nobody else to batch
        // with — it must lead its own flush and return, not park forever.
        let wal = DurableWal::new(
            Box::new(MemDevice::new()),
            GroupCommitPolicy::fixed(Duration::from_millis(5), 256),
        );
        let lsn = wal.with_log(|w| w.append(commit_rec(1)));
        let start = std::time::Instant::now();
        wal.sync_to(lsn).unwrap().expect("led");
        assert!(start.elapsed() < Duration::from_secs(1));
        assert_eq!(wal.durable_records(), 1);
    }

    #[test]
    fn failed_sync_is_sticky_and_acks_nothing() {
        let mut wal = DurableWal::new(Box::new(BrokenDevice), GroupCommitPolicy::default());
        wal.set_fault_injector(FaultInjector::disabled());
        let lsn = wal.with_log(|w| w.append(commit_rec(1)));
        assert!(wal.sync_to(lsn).is_err());
        assert_eq!(wal.durable_records(), 0, "no ack on failed fsync");
        // Sticky: later commits fail too, without touching the device.
        let lsn2 = wal.with_log(|w| w.append(commit_rec(2)));
        assert!(wal.sync_to(lsn2).is_err());
        assert!(wal.force_flush().is_err());
    }

    #[test]
    fn concurrent_committers_coalesce_into_few_fsyncs() {
        let wal = Arc::new(DurableWal::new(
            Box::new(MemDevice::new()),
            GroupCommitPolicy::fixed(Duration::from_millis(2), 256),
        ));
        let threads: Vec<_> = (0..8u64)
            .map(|i| {
                let wal = Arc::clone(&wal);
                std::thread::spawn(move || {
                    let lsn = wal.with_log(|w| w.append(commit_rec(i)));
                    wal.sync_to(lsn).unwrap();
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(wal.durable_records(), 8);
        assert!(
            wal.fsyncs() <= 8,
            "never more fsyncs than committers: {}",
            wal.fsyncs()
        );
        assert_eq!(codec::decode_all(&wal.durable_stream()).len(), 8);
    }

    #[test]
    fn flush_if_batchful_flushes_at_threshold() {
        let wal = DurableWal::new(
            Box::new(MemDevice::new()),
            GroupCommitPolicy::fixed(Duration::ZERO, 4),
        );
        for i in 0..3 {
            wal.with_log(|w| w.append(commit_rec(i)));
            assert_eq!(wal.flush_if_batchful(), None, "below threshold");
        }
        wal.with_log(|w| w.append(commit_rec(3)));
        let stats = wal.flush_if_batchful().expect("at threshold");
        assert_eq!(stats.records, 4);
        assert_eq!(wal.durable_records(), 4);
    }

    #[test]
    fn adaptive_wait_clamps_to_the_observed_rate() {
        let floor = Duration::from_micros(50);
        let ceil = Duration::from_millis(2);
        // Not coalescing (~1 commit per flush): never wait, whatever the
        // rate estimate says — a lone committer has no followers to collect.
        assert_eq!(adaptive_wait(0, 0.0, floor, ceil), Duration::ZERO);
        assert_eq!(adaptive_wait(1_000, 1.0, floor, ceil), Duration::ZERO);
        assert_eq!(adaptive_wait(100_000, 1.4, floor, ceil), Duration::ZERO);
        // Engaged but no rate estimate yet: the cheapest engaged wait.
        assert_eq!(adaptive_wait(0, 4.0, floor, ceil), floor);
        // Gaps so small that 4× still undercuts the floor: floor wins.
        assert_eq!(adaptive_wait(1_000, 4.0, floor, ceil), floor);
        // In range: wait ≈ four gaps.
        assert_eq!(
            adaptive_wait(100_000, 4.0, floor, ceil),
            Duration::from_micros(400)
        );
        // The exact ceiling is still a wait...
        assert_eq!(adaptive_wait(500_000, 4.0, floor, ceil), ceil);
        // ...but beyond it the system is idle: no wait at all.
        assert_eq!(adaptive_wait(500_001, 4.0, floor, ceil), Duration::ZERO);
        assert_eq!(adaptive_wait(u64::MAX, 8.0, floor, ceil), Duration::ZERO);
    }

    #[test]
    fn adaptive_window_stays_live_and_durable() {
        // Functional check (the latency/batching numbers live in
        // `figures -- wal`): an adaptive policy must ack every commit and
        // advance durability exactly like a fixed one.
        let wal = Arc::new(DurableWal::new(
            Box::new(MemDevice::new()),
            GroupCommitPolicy::adaptive(Duration::from_micros(50), Duration::from_millis(2), 256),
        ));
        let threads: Vec<_> = (0..4u64)
            .map(|i| {
                let wal = Arc::clone(&wal);
                std::thread::spawn(move || {
                    for j in 0..8u64 {
                        let lsn = wal.with_log(|w| w.append(commit_rec(i * 8 + j)));
                        wal.sync_to(lsn).unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(wal.durable_records(), 32);
        assert_eq!(codec::decode_all(&wal.durable_stream()).len(), 32);
        assert!(wal.fsyncs() <= 32);
    }
}
