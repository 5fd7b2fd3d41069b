//! The commit-visibility atomicity contract for version reads (REVIEW
//! finding: a reader beginning during another transaction's group-commit
//! fsync window must never see a fractured snapshot).
//!
//! Timeline under test, with writer W updating a row:
//!
//! ```text
//!   W: ...writes... | append Commit@c + publish | fsync wait | finish, queue | collect
//!   B: begin (view < c)      — pre-commit image, before AND after W finished
//!   C:                begin (view >= c) — post-commit image, before AND after
//! ```
//!
//! The window between the fsync and the collector's rewrite of W's chains
//! is exactly where the old begin-LSN views fractured: a reader minted
//! there covered `c` but `reconstruct` still unwound W's Pending entries.
//! With durable-frontier views plus the commit publication, every read
//! below is a pure function of `commit_lsn <= view` — collection must be
//! invisible. B's view holds the watermark below `c`, so the collector
//! takes W's writes only once B has gone.

use acc_common::{Result, TableId, TxnId, TxnTypeId, Value};
use acc_lockmgr::NoInterference;
use acc_storage::{Catalog, ColumnType, Database, Key, Row, TableSchema, Visibility};
use acc_txn::{SharedDb, StepCtx, Transaction, TwoPhase, WaitMode};
use acc_wal::{GroupCommitPolicy, LogDevice, LogRecord, MemDevice};
use std::sync::Arc;

const T: TableId = TableId(0);

fn seeded_shared(dev: Box<dyn LogDevice>) -> Arc<SharedDb> {
    let mut c = Catalog::new();
    c.add_table(
        TableSchema::builder("counters")
            .column("id", ColumnType::Int)
            .column("n", ColumnType::Int)
            .key(&["id"])
            .rows_per_page(4)
            .build(),
    );
    let mut db = Database::new(&c);
    db.table_mut(T)
        .unwrap()
        .insert(Row(vec![Value::Int(1), Value::Int(0)]))
        .unwrap();
    Arc::new(
        SharedDb::new(db, Arc::new(NoInterference))
            .with_wal_backend(dev, GroupCommitPolicy::default()),
    )
}

/// A locked update of row 1 to `n`, leaving the transaction's version
/// chains Pending (no commit yet).
fn update_row(s: &SharedDb, txn: &mut Transaction, n: i64) {
    let two = TwoPhase;
    let mut ctx = StepCtx::new(s, &two, txn, WaitMode::Block);
    ctx.update_key(T, &Key::ints(&[1]), |r| {
        r.set(1, Value::Int(n));
    })
    .unwrap();
}

/// The row-1 image a version read serves at `reader`'s registered view.
fn read_n(s: &SharedDb, reader: TxnId) -> Option<i64> {
    let view = s.read_view_of(reader).expect("reader registered");
    let t = s.table(T).unwrap();
    match t.read_at(&Key::ints(&[1]), view, reader, &s.published_commits()) {
        Visibility::Visible(img) => img.map(|r| r.int(1)),
        Visibility::Tainted => panic!("foreign version read tainted"),
    }
}

#[test]
fn readers_straddling_the_finalize_window_see_one_snapshot() {
    let s = seeded_shared(Box::new(MemDevice::new()));

    // A baseline commit so the durable frontier is non-trivial.
    {
        let wid = s.begin_txn(TxnTypeId(0));
        let mut w = Transaction::new(wid, TxnTypeId(0));
        update_row(&s, &mut w, 10);
        acc_txn::runner::commit(&s, &mut w).expect("baseline commit");
    }

    // Writer W updates the row but has not committed yet.
    let wid = s.begin_txn(TxnTypeId(0));
    let mut w = Transaction::new(wid, TxnTypeId(0));
    update_row(&s, &mut w, 20);

    // Reader B begins while W is still in flight: its view predates c.
    let b = s.begin_txn(TxnTypeId(0));
    assert_eq!(read_n(&s, b), Some(10), "B before W's commit");

    // Replay commit() by hand, pausing in the fsync->finalize window:
    // append Commit@c and publish atomically, then make it durable.
    let c_lsn = s.with_wal(|wal| {
        let lsn = wal.append(LogRecord::Commit { txn: wid });
        s.publish_commit(wid, lsn.0);
        lsn
    });
    s.sync_wal(c_lsn).expect("mem device fsync");

    // The window is open: c is durable, W's chains are still Pending.
    // Reader C minted here covers c and must already see W's write — the
    // publication resolves the Pending entries.
    let c = s.begin_txn(TxnTypeId(0));
    assert!(s.read_view_of(c).unwrap() >= c_lsn.0, "C's view covers c");
    assert_eq!(read_n(&s, c), Some(20), "C inside the window");
    // B's view predates c, so B still reads the old image — no fracture.
    assert_eq!(read_n(&s, b), Some(10), "B inside the window");

    // W finishes as `runner::commit` does: it leaves the active map,
    // releases its locks and queues its writes for the collector, which
    // leaves them queued while B's view is below c. Neither reader sees a
    // change.
    s.deregister_active(wid);
    s.release_all(wid, &NoInterference);
    s.queue_versions(wid, c_lsn.0, std::mem::take(&mut w.write_set));
    assert_eq!(s.drain_versions(), 1, "B holds the watermark below c");
    assert_eq!(read_n(&s, c), Some(20), "C after W finished");
    assert_eq!(read_n(&s, b), Some(10), "B after W finished");

    // With B gone the collector rewrites W's chains and retires the
    // publication, invisibly to C.
    s.deregister_active(b);
    assert_eq!(s.drain_versions(), 0);
    assert_eq!(s.published_count(), 0);
    assert_eq!(read_n(&s, c), Some(20), "C after finalize");

    s.deregister_active(c);
}

/// A device that stages everything but fails every sync.
struct DeadDisk;

impl LogDevice for DeadDisk {
    fn stage(&mut self, _bytes: &[u8]) {}
    fn sync(&mut self) -> Result<()> {
        Err(acc_common::Error::Internal("I/O error (simulated)".into()))
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
        "dead"
    }
}

/// A failed commit fsync leaves the writer's chains Pending and retracts
/// its publication: no view can ever cover the unacked commit LSN, so
/// version readers keep serving the pre-commit image forever.
#[test]
fn failed_commit_never_becomes_visible_to_version_reads() {
    let s = seeded_shared(Box::new(DeadDisk));

    let wid = s.begin_txn(TxnTypeId(0));
    let mut w = Transaction::new(wid, TxnTypeId(0));
    update_row(&s, &mut w, 20);
    let err = acc_txn::runner::commit(&s, &mut w).expect_err("dead disk acked");
    assert!(format!("{err}").contains("I/O error"), "{err}");

    // The failed committer is fully retired: no locks, no active view.
    assert_eq!(s.total_grants(), 0, "failed commit leaked locks");
    assert_eq!(s.active_txns(), 0);
    assert_eq!(s.read_view_of(wid), None);

    // A later reader (view frozen at the durable frontier, which the dead
    // disk pins at zero) unwinds W's still-Pending entries: the write that
    // was never acked is never served.
    let r = s.begin_txn(TxnTypeId(0));
    assert_eq!(read_n(&s, r), Some(0), "unacked commit leaked into a read");
    s.deregister_active(r);
}
