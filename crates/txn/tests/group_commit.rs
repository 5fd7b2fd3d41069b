//! Runner-level group-commit behavior: commit acknowledgements must track
//! the durable LSN frontier, not the in-memory log.
//!
//! * Coalescing: concurrent committers share fsyncs, and every ack is
//!   durable.
//! * Safety: a device failure mid-batch means NO transaction in or after
//!   that batch is ever acknowledged, and the failed commit releases its
//!   locks so peers are not wedged behind a corpse.
//! * The file backend round-trips: a log written through `FileDevice` can be
//!   reopened, salvages the full durable stream, and keeps appending.
//! * Swapping the backend keeps an installed fault injector.

use acc_common::faults::{FaultInjector, FaultPlan};
use acc_common::{Result, TableId, TxnTypeId, Value};
use acc_lockmgr::NoInterference;
use acc_storage::{Catalog, ColumnType, Database, Key, Row, TableSchema};
use acc_txn::runner::commit;
use acc_txn::{SharedDb, StepCtx, Transaction, TwoPhase, WaitMode};
use acc_wal::device::temp_log_path;
use acc_wal::{recover, FileDevice, GroupCommitPolicy, LogDevice, Wal};
use std::sync::Arc;

const T: TableId = TableId(0);

fn catalog() -> Catalog {
    let mut c = Catalog::new();
    c.add_table(
        TableSchema::builder("counters")
            .column("id", ColumnType::Int)
            .column("n", ColumnType::Int)
            .key(&["id"])
            .rows_per_page(2)
            .build(),
    );
    c
}

fn seeded_db() -> Database {
    let c = catalog();
    let mut db = Database::new(&c);
    for id in 0..8 {
        db.table_mut(T)
            .unwrap()
            .insert(Row(vec![Value::Int(id), Value::Int(0)]))
            .unwrap();
    }
    db
}

fn shared_with(dev: Box<dyn LogDevice>, policy: GroupCommitPolicy) -> Arc<SharedDb> {
    Arc::new(SharedDb::new(seeded_db(), Arc::new(NoInterference)).with_wal_backend(dev, policy))
}

/// One read-modify-write transaction bumping row `id`, then commit.
fn bump(s: &SharedDb, id: i64) -> Result<()> {
    let tid = s.begin_txn(TxnTypeId(0));
    let mut txn = Transaction::new(tid, TxnTypeId(0));
    {
        let two = TwoPhase;
        let mut ctx = StepCtx::new(s, &two, &mut txn, WaitMode::Block);
        ctx.update_key(T, &Key::ints(&[id]), |r| {
            let n = r.int(1);
            r.set(1, Value::Int(n + 1));
        })
        .unwrap();
    }
    commit(s, &mut txn)
}

#[test]
fn commits_coalesce_into_shared_fsyncs() {
    let s = shared_with(
        Box::new(acc_wal::MemDevice::new()),
        GroupCommitPolicy::default(),
    );
    let threads: Vec<_> = (0..8)
        .map(|i| {
            let s = Arc::clone(&s);
            std::thread::spawn(move || bump(&s, i).expect("commit failed"))
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    // All records durable, and (at most) one fsync per commit — fewer where
    // commits parked behind an in-flight flush, but that is timing-dependent
    // so only the upper bound and the durability frontier are asserted.
    assert_eq!(s.durable_wal_records(), s.wal_len() as u64);
    let fsyncs = s.wal_fsyncs();
    assert!((1..=8).contains(&fsyncs), "fsyncs={fsyncs}");
    assert_eq!(s.total_grants(), 0, "locks leaked after commit");
}

/// A device that accepts staged bytes forever but fails every sync — the
/// "disk died mid-batch" case.
struct DeadDisk {
    staged: usize,
}

impl LogDevice for DeadDisk {
    fn stage(&mut self, bytes: &[u8]) {
        self.staged += bytes.len();
    }
    fn sync(&mut self) -> Result<()> {
        Err(acc_common::Error::Internal("I/O error (simulated)".into()))
    }
    fn staged_len(&self) -> usize {
        self.staged
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
        "dead"
    }
}

#[test]
fn failed_batch_never_acks_and_releases_locks() {
    let s = shared_with(
        Box::new(DeadDisk { staged: 0 }),
        GroupCommitPolicy::default(),
    );
    // The first commit hits the dead disk: no acknowledgement.
    let err = bump(&s, 1).expect_err("commit acked a batch the device lost");
    assert!(format!("{err}").contains("I/O error"), "{err}");
    // The failure is sticky: a later transaction (a would-be follower of a
    // retried batch) must not be acknowledged either, even though its own
    // sync call never reached the device.
    let err2 = bump(&s, 2).expect_err("commit acked after a sticky device failure");
    assert!(format!("{err2}").contains("I/O error"), "{err2}");
    // Nothing was ever durable...
    assert_eq!(s.durable_wal_records(), 0);
    // ...and neither failed commit left locks behind to wedge its peers.
    assert_eq!(s.total_grants(), 0, "failed commit leaked locks");
}

#[test]
fn file_backend_reopens_with_the_full_durable_stream_and_extends() {
    let path = temp_log_path("group-commit-reopen");
    let _ = std::fs::remove_file(&path);

    let (stream_before, records_before) = {
        let dev = FileDevice::create(&path).expect("create log file");
        let s = shared_with(Box::new(dev), GroupCommitPolicy::default());
        for id in 0..4 {
            bump(&s, id).expect("commit failed");
        }
        assert_eq!(s.durable_wal_records(), s.wal_len() as u64);
        // Everything is durable, so the in-memory image is the device's.
        assert_eq!(s.wal_bytes(), s.wal_durable_stream());
        (s.wal_durable_stream(), s.wal_len())
    };
    assert!(!stream_before.is_empty());

    // Reopen: the salvage must reproduce the entire durable stream, and the
    // log must decode to the same records the writer saw.
    let dev = FileDevice::open_existing(&path).expect("reopen log file");
    assert_eq!(dev.durable_stream(), stream_before);
    let reopened = Wal::from_bytes(&dev.durable_stream());
    assert_eq!(reopened.records().len(), records_before);

    // Recovery over the reopened log replays every committed transaction.
    let mut db = seeded_db();
    let report = recover(&mut db, &reopened).expect("recovery failed");
    assert_eq!(report.committed.len(), 4);
    for id in 0..4 {
        let (_, row) = db.table(T).unwrap().get(&Key::ints(&[id])).unwrap();
        assert_eq!(row.int(1), 1, "row {id} lost its committed update");
    }

    // And the reopened device keeps appending: a fresh system over it
    // commits more work on top of the salvaged prefix.
    {
        let s = Arc::new(
            SharedDb::new(db, Arc::new(NoInterference))
                .with_wal_backend(Box::new(dev), GroupCommitPolicy::default()),
        );
        bump(&s, 5).expect("commit after reopen failed");
        let stream_after = s.wal_durable_stream();
        assert!(stream_after.len() > stream_before.len());
        assert_eq!(stream_after[..stream_before.len()], stream_before[..]);
    }
    let _ = std::fs::remove_file(&path);
}

/// Installing the fault injector before swapping the WAL backend still
/// arms it on the new log: the append-index crash point fires.
#[test]
fn backend_swap_keeps_an_installed_fault_injector() {
    let faults = FaultInjector::with_plan(FaultPlan::crash_after_appends(2));
    let s = SharedDb::new(seeded_db(), Arc::new(NoInterference))
        .with_fault_injector(Arc::clone(&faults))
        .with_wal_backend(
            Box::new(acc_wal::MemDevice::new()),
            GroupCommitPolicy::default(),
        );
    for _ in 0..4 {
        s.begin_txn(TxnTypeId(0));
    }
    let image = faults.captured_image().expect("crash point fired");
    assert_eq!(Wal::from_bytes(&image).len(), 2);
}

/// The prune watermark must key off the *durable* LSN frontier, never an
/// allocated-but-unsynced one: a crash would rewind the log past such an
/// LSN, leaving the surviving prefix without the images pruning assumed it
/// had. Pins the clamp in `SharedDb::version_watermark`.
#[test]
fn prune_watermark_clamps_to_the_durable_frontier() {
    let policy = GroupCommitPolicy { max_batch: 1 << 20 };
    let s = shared_with(Box::new(acc_wal::MemDevice::new()), policy);
    // Nothing durable yet: nothing may be pruned, even with no active txns.
    assert_eq!(s.durable_wal_records(), 0);
    assert_eq!(s.version_watermark(), None);

    // One committed update drags the durable frontier up to the log.
    bump(&s, 1).expect("commit failed");
    let durable = s.durable_wal_records();
    assert_eq!(durable, s.wal_len() as u64);
    assert_eq!(s.version_watermark(), Some(durable - 1));

    // A new transaction's Begin record is allocated but not yet synced: the
    // log runs ahead of the frontier. Its read view is minted at the
    // *durable* frontier, never the unsynced tail, so the watermark stays
    // clamped at durable-1 and the view can never cover a commit whose
    // record a crash could still erase.
    let tid = s.begin_txn(TxnTypeId(0));
    let view = s.read_view_of(tid).expect("view registered in active map");
    assert!(s.wal_len() as u64 > s.durable_wal_records());
    assert_eq!(view, durable - 1, "view strayed off the durable frontier");
    assert_eq!(s.version_watermark(), Some(durable - 1));

    // Collection at the clamped watermark keeps the committed bump readable
    // at the durable view.
    let w = s.version_watermark().unwrap();
    let t = s.table(T).unwrap();
    assert_eq!(s.drain_versions(), 0);
    let visible = match t.read_at(&Key::ints(&[1]), w, tid, &acc_storage::NoCommits) {
        acc_storage::Visibility::Visible(img) => img.map(|r| r.int(1)),
        acc_storage::Visibility::Tainted => panic!("tainted durable-view read"),
    };
    assert_eq!(visible, Some(1), "committed bump lost below the clamp");
    s.deregister_active(tid);
}

/// With replication configured, the watermark must also clamp to the
/// *shipped* frontier (`min(active views, durable, shipped)`): a follower
/// that restarts resumes from its last verified record, and pruning history
/// it has not verified yet would hand a promotion an image whose version
/// chains the leader already dropped. Pins the clamp and its sentinel
/// behavior in `SharedDb::version_watermark`.
#[test]
fn prune_watermark_clamps_to_the_shipped_frontier() {
    let policy = GroupCommitPolicy { max_batch: 1 << 20 };
    let s = shared_with(Box::new(acc_wal::MemDevice::new()), policy);
    for id in 0..3 {
        bump(&s, id).expect("commit failed");
    }
    let durable = s.durable_wal_records();
    // No replication configured: the sentinel leaves the watermark on the
    // durable frontier alone.
    assert_eq!(s.shipped_frontier(), None);
    assert_eq!(s.version_watermark(), Some(durable - 1));

    // A follower has verified only 2 records: the watermark drops to the
    // shipped frontier, below durable.
    s.set_shipped_frontier(2);
    assert_eq!(s.shipped_frontier(), Some(2));
    assert_eq!(s.version_watermark(), Some(1));

    // The frontier is monotonic: a duplicate/late ack cannot pull the
    // watermark back...
    s.set_shipped_frontier(durable);
    s.set_shipped_frontier(2);
    assert_eq!(s.shipped_frontier(), Some(durable));
    assert_eq!(s.version_watermark(), Some(durable - 1));
    // ...and the durable clamp still rules when shipping runs ahead of the
    // local fsync frontier (a follower can never verify more than the
    // leader made durable, but the clamp must not trust that).
    s.set_shipped_frontier(durable + 10);
    assert_eq!(s.version_watermark(), Some(durable - 1));

    // A configured-but-empty frontier means nothing is prunable at all.
    let s2 = shared_with(
        Box::new(acc_wal::MemDevice::new()),
        GroupCommitPolicy { max_batch: 1 << 20 },
    );
    bump(&s2, 1).expect("commit failed");
    s2.set_shipped_frontier(0);
    assert_eq!(s2.version_watermark(), None);
}
