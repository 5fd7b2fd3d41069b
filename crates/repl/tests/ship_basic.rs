//! End-to-end replication over a real leader: transactions commit through
//! the group-commit WAL, the pump ships the durable prefix, and the follower
//! replays it into an image that answers version-safe reads.

use acc_common::events::EventSink;
use acc_common::faults::ShipPlan;
use acc_common::{Error, Result, TableId, TxnTypeId, Value};
use acc_lockmgr::NoInterference;
use acc_repl::{Applied, Follower, MemTransport, Replicator};
use acc_storage::{Catalog, ColumnType, Database, Key, Row, TableSchema};
use acc_txn::runner::commit;
use acc_txn::{SharedDb, StepCtx, Transaction, TwoPhase, WaitMode};
use acc_wal::{GroupCommitPolicy, MemDevice};
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

/// A leader whose every commit syncs immediately.
fn leader() -> Arc<SharedDb> {
    let policy = GroupCommitPolicy { max_batch: 1 << 20 };
    Arc::new(
        SharedDb::new(seeded_db(), Arc::new(NoInterference))
            .with_wal_backend(Box::new(MemDevice::new()), policy),
    )
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
        })?;
    }
    commit(s, &mut txn)
}

fn fresh_follower() -> Follower {
    Follower::new(seeded_db(), Box::new(MemDevice::new()))
}

#[test]
fn follower_replays_the_shipped_prefix_and_serves_reads() {
    let s = leader();
    for id in 0..5 {
        bump(&s, id).expect("leader commit");
        bump(&s, id).expect("leader commit");
    }
    let durable = s.wal_durable_stream();
    let records = s.durable_wal_records();
    assert!(records > 0, "workload produced no durable records");

    let sink = EventSink::enabled(64);
    let mut rep = Replicator::new(MemTransport::new(), 256, 7).with_events(Arc::clone(&sink));
    let mut f = fresh_follower();
    let stats = rep.pump(&mut f, &durable, records).expect("clean pump");

    assert_eq!(f.stream(), &durable[..], "follower image != durable prefix");
    assert_eq!(f.replay_lsn(), records);
    assert_eq!(stats.records, records);
    assert_eq!(stats.refusals, 0);
    assert_eq!(stats.resumes, 0);
    assert!(stats.batches >= 2, "batch target never split the stream");

    // The replayed image answers reads at the replay frontier.
    for id in 0..5i64 {
        let row = f
            .read_at(T, &Key::ints(&[id]))
            .expect("replayed read")
            .expect("row exists");
        assert_eq!(row.int(1), 2, "row {id}");
    }

    // Ship counters flowed to the sink, and the shipped frontier feeds the
    // leader's prune watermark.
    let c = sink.counters();
    assert_eq!(c.ship_batches, stats.batches);
    assert_eq!(c.ship_records, records);
    assert_eq!(c.ship_refusals, 0);
    assert_eq!(rep.shipped_records(), records);
    s.set_shipped_frontier(rep.shipped_records());
    assert_eq!(s.shipped_frontier(), Some(records));
}

#[test]
fn hostile_transport_converges_to_the_same_bytes() {
    let s = leader();
    for id in 0..8 {
        bump(&s, id).expect("leader commit");
    }
    let durable = s.wal_durable_stream();
    let records = s.durable_wal_records();

    let plan = ShipPlan {
        drop_every: Some(3),
        duplicate_every: Some(2),
        delay_every: Some((5, 2)),
        tear_at: Some((4, acc_common::Corruption::ShipTear(7))),
    };
    let sink = EventSink::enabled(256);
    let mut rep =
        Replicator::new(MemTransport::with_plan(plan), 128, 11).with_events(Arc::clone(&sink));
    let mut f = fresh_follower();
    let stats = rep.pump(&mut f, &durable, records).expect("pump converges");

    assert_eq!(
        f.stream(),
        &durable[..],
        "hostile transport corrupted state"
    );
    assert_eq!(f.replay_lsn(), records);
    assert!(stats.resumes > 0, "plan never forced a resume");
    let c = sink.counters();
    assert!(c.ship_resumes > 0);
    assert!(c.ship_refusals > 0, "the torn batch was never refused");
}

#[test]
fn transient_send_failures_retry_with_backoff() {
    let s = leader();
    for id in 0..4 {
        bump(&s, id).expect("leader commit");
    }
    let durable = s.wal_durable_stream();
    let records = s.durable_wal_records();

    let sink = EventSink::enabled(64);
    let mut rep = Replicator::new(MemTransport::new().failing_every(2), 128, 3)
        .with_events(Arc::clone(&sink));
    let mut f = fresh_follower();
    let stats = rep.pump(&mut f, &durable, records).expect("retries absorb");

    assert_eq!(f.stream(), &durable[..]);
    assert!(stats.retries > 0, "fail_every(2) never tripped");
    assert_eq!(sink.counters().ship_retries, stats.retries);
}

#[test]
fn follower_crash_resume_handshake_and_reship() {
    let s = leader();
    for id in 0..6 {
        bump(&s, id).expect("leader commit");
    }
    let durable = s.wal_durable_stream();
    let records = s.durable_wal_records();

    // Ship roughly half the stream, then crash the follower.
    let half = &durable[..durable.len() / 2];
    let (half_len, half_records) = acc_repl::frame_prefix(half);
    let half_stream = &durable[..half_len];
    let mut rep = Replicator::new(MemTransport::new(), 128, 5);
    let mut f = fresh_follower();
    rep.pump(&mut f, half_stream, half_records)
        .expect("first leg");
    assert_eq!(f.replay_lsn(), half_records);

    // Crash: memory dies, the device survives — including a torn local
    // tail from a write in flight at crash time.
    let mut dev = f.into_device();
    dev.stage(&[0xde, 0xad, 0xbe]);
    let _ = dev.sync();
    let mut f = Follower::resume(seeded_db(), dev);
    assert_eq!(
        f.replay_lsn(),
        half_records,
        "torn tail must not count as replayed history"
    );

    // Handshake: the leader verifies the follower's chain, rewinds, and
    // re-ships the remainder.
    let point = f.resume_point();
    assert_eq!(point.offset, half_len as u64);
    let mut rep = Replicator::new(MemTransport::new(), 128, 6);
    rep.resume(&durable, point).expect("chains match");
    rep.pump(&mut f, &durable, records).expect("second leg");
    assert_eq!(f.stream(), &durable[..]);
    assert_eq!(f.replay_lsn(), records);
}

#[test]
fn diverged_follower_is_refused_with_a_typed_error() {
    let s = leader();
    for id in 0..4 {
        bump(&s, id).expect("leader commit");
    }
    let durable = s.wal_durable_stream();

    // Ship everything, then hand-corrupt the follower's durable tail and
    // restart it: its salvaged history no longer matches the leader's.
    let mut rep = Replicator::new(MemTransport::new(), 128, 9);
    let mut f = fresh_follower();
    rep.pump(&mut f, &durable, s.durable_wal_records())
        .expect("clean pump");
    let mut dev = f.into_device();
    // A whole fake frame, so resume-salvage keeps it: 1 payload byte.
    let mut forged = vec![0u8; 13];
    forged[..4].copy_from_slice(&1u32.to_le_bytes());
    dev.stage(&forged);
    dev.sync().expect("mem device sync");
    let f = Follower::resume(seeded_db(), dev);

    let err = rep
        .resume(&durable, f.resume_point())
        .expect_err("diverged history accepted");
    assert!(
        matches!(err, Error::Divergence { at, .. } if at == durable.len() as u64 + 13),
        "wrong error: {err:?}"
    );
}

#[test]
fn promotion_recovers_the_verified_prefix() {
    let s = leader();
    for id in 0..6 {
        bump(&s, id).expect("leader commit");
    }
    let durable = s.wal_durable_stream();
    let records = s.durable_wal_records();

    let mut rep = Replicator::new(MemTransport::new(), 256, 13);
    let mut f = fresh_follower();
    rep.pump(&mut f, &durable, records).expect("clean pump");

    let promoted = f.promote().expect("promotion");
    assert!(
        promoted.report.needs_compensation.is_empty(),
        "clean commits need no compensation"
    );
    // The promoted image equals the leader's own recovered state.
    let mut leader_img = seeded_db();
    acc_wal::recover(&mut leader_img, &acc_wal::Wal::from_bytes(&durable))
        .expect("leader recovery");
    for id in 0..6i64 {
        let key = Key::ints(&[id]);
        let l = leader_img
            .table(T)
            .unwrap()
            .get(&key)
            .map(|(_, r)| r.clone());
        let p = promoted
            .db
            .table(T)
            .unwrap()
            .get(&key)
            .map(|(_, r)| r.clone());
        assert_eq!(l, p, "row {id} differs after failover");
    }
}

#[test]
fn duplicates_and_stale_batches_are_idempotent() {
    let s = leader();
    for id in 0..3 {
        bump(&s, id).expect("leader commit");
    }
    let durable = s.wal_durable_stream();
    let records = s.durable_wal_records();

    let mut rep = Replicator::new(MemTransport::new(), 1 << 20, 1);
    let mut f = fresh_follower();
    rep.pump(&mut f, &durable, records).expect("clean pump");

    // Re-deliver the whole stream as one stale batch: pure duplicate.
    let stale = acc_repl::ShipBatch {
        seq: 999,
        start: 0,
        payload: durable.clone(),
        chain: acc_repl::stream_chain(&durable),
    };
    assert_eq!(f.apply(&stale), Applied::Duplicate);
    assert_eq!(f.replay_lsn(), records, "duplicate moved the frontier");
}
