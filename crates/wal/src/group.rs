//! Group commit: batching appenders onto shared fsync boundaries.
//!
//! The WAL sits behind a dedicated append mutex that assigns LSNs
//! independently of lock traffic; this module is the batching layer behind
//! it. Appenders append under the log mutex (cheap — one encode onto the
//! log's image, no I/O) and *commit* by parking on their record's LSN in
//! [`DurableWal::sync_to`]. A committer that finds no flush running leads
//! one at once: it drains every frame appended since the last flush and
//! retires the whole batch with one device write + fsync. Committers that
//! arrive during that fsync park, and retire together in the next flush: a
//! batch is whoever queued behind the fsync in flight. `durable_lsn`
//! advances only at these fsync boundaries — a crash loses precisely the
//! suffix past the last completed fsync, never a prefix of it.
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

/// Tuning for the group-commit batcher. Commit batches form on their own
/// (see the module docs); the one setting bounds the staged tail.
#[derive(Debug, Clone, Copy)]
pub struct GroupCommitPolicy {
    /// Background-flush threshold: once this many records are appended but
    /// not yet durable, a non-committing append may trigger a flush so the
    /// staged tail cannot grow without bound between commits.
    pub max_batch: usize,
}

impl Default for GroupCommitPolicy {
    fn default() -> GroupCommitPolicy {
        GroupCommitPolicy { max_batch: 256 }
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
            // Lead at once: flush everything appended so far — this record
            // and whatever followers appended while the last flush ran — in
            // one write + fsync.
            let stats = self.lead_flush(state)?;
            // This leader's own record is covered by construction: it was
            // appended before sync_to was called.
            debug_assert!(self.durable_records() > lsn.0);
            return Ok(Some(stats));
        }
    }

    /// Background flush hint: if at least `max_batch` records are appended
    /// but not durable and no flush is running, lead one now. Returns the
    /// flush stats if this call flushed. Device errors are sticky but
    /// deliberately not returned here: a failed background flush surfaces at
    /// the next commit's `sync_to`, which is the ack point that must see it.
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
            return self.lead_flush(state).map(Some);
        }
    }

    /// The leader's flush, entered holding the state lock with no flush
    /// running: mark the flush in progress, release the lock for the drain
    /// and fsync, then re-lock and either account the completed flush or
    /// record the sticky failure. Either way every parked committer is woken
    /// to re-check.
    fn lead_flush(&self, mut state: MutexGuard<'_, GcState>) -> Result<FlushStats> {
        state.flushing = true;
        drop(state);
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
    use std::sync::mpsc;
    use std::time::Duration;

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

    /// A memory device whose `sync` reports that it was entered, then blocks
    /// until the test opens the gate: an fsync held in flight on demand.
    struct GatedDevice {
        inner: MemDevice,
        entered: mpsc::Sender<()>,
        gate: Arc<(Mutex<bool>, Condvar)>,
    }

    impl LogDevice for GatedDevice {
        fn stage(&mut self, bytes: &[u8]) {
            self.inner.stage(bytes);
        }
        fn sync(&mut self) -> Result<()> {
            let _ = self.entered.send(());
            let (open, cv) = &*self.gate;
            let mut open = open.lock().unwrap();
            while !*open {
                open = cv.wait(open).unwrap();
            }
            self.inner.sync()
        }
        fn staged_len(&self) -> usize {
            self.inner.staged_len()
        }
        fn durable_len(&self) -> u64 {
            self.inner.durable_len()
        }
        fn durable_stream(&self) -> Vec<u8> {
            self.inner.durable_stream()
        }
        fn raw_image(&self) -> Vec<u8> {
            self.inner.raw_image()
        }
        fn kind(&self) -> &'static str {
            "gated"
        }
    }

    #[test]
    fn followers_parked_behind_an_inflight_fsync_retire_in_one_flush() {
        const K: u64 = 6;
        let (entered_tx, entered) = mpsc::channel();
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let dev = GatedDevice {
            inner: MemDevice::new(),
            entered: entered_tx,
            gate: Arc::clone(&gate),
        };
        let wal = Arc::new(DurableWal::new(Box::new(dev), GroupCommitPolicy::default()));
        let commit = |wal: &Arc<DurableWal>, n: u64| {
            let wal = Arc::clone(wal);
            std::thread::spawn(move || {
                let lsn = wal.with_log(|w| w.append(commit_rec(n)));
                wal.sync_to(lsn)
            })
        };
        // The leader drains its one record and blocks inside the fsync.
        let leader = commit(&wal, 0);
        entered
            .recv_timeout(Duration::from_secs(10))
            .expect("leader entered sync");
        // Followers append behind the in-flight fsync and park.
        let followers: Vec<_> = (1..=K).map(|n| commit(&wal, n)).collect();
        while wal.with_log(|w| w.len() as u64) < K + 1 {
            std::thread::yield_now();
        }
        {
            let (open, cv) = &*gate;
            *open.lock().unwrap() = true;
            cv.notify_all();
        }
        let led = leader.join().unwrap().expect("leader acked");
        assert_eq!(led.expect("leader led the first flush").records, 1);
        let second: Vec<FlushStats> = followers
            .into_iter()
            .filter_map(|f| f.join().unwrap().expect("follower acked"))
            .collect();
        // One follower led the second flush; it covered every follower.
        assert_eq!(second.len(), 1, "followers led {second:?}");
        assert_eq!(second[0].records, K);
        assert_eq!(wal.fsyncs(), 2);
        assert_eq!(wal.durable_records(), K + 1);
        assert_eq!(codec::decode_all(&wal.durable_stream()).len() as u64, K + 1);
    }

    #[test]
    fn flush_if_batchful_flushes_at_threshold() {
        let wal = DurableWal::new(
            Box::new(MemDevice::new()),
            GroupCommitPolicy { max_batch: 4 },
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
}
