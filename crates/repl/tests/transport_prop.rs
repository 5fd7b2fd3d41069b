//! Model-based randomized replication test: under random transport
//! misbehavior plans — drop, duplicate, delay/reorder, tear — and random
//! batch sizes, the pump must always converge the follower to a byte image
//! identical to the leader's durable prefix, and a follower crashed and
//! resumed at a random point must converge to the same image after the
//! chain handshake.
//!
//! The "model" here is the leader's durable stream itself: replication adds
//! no semantics, so the only correct follower state is byte equality, and
//! the replayed image is checked row-for-row against the leader's own
//! recovery of the same prefix.

use acc_common::faults::ShipPlan;
use acc_common::{Result, SeededRng, TableId, TxnTypeId, Value};
use acc_lockmgr::NoInterference;
use acc_repl::{frame_prefix, Follower, MemTransport, Replicator};
use acc_storage::{Catalog, ColumnType, Database, Key, Row, TableSchema};
use acc_txn::runner::commit;
use acc_txn::{SharedDb, StepCtx, Transaction, TwoPhase, WaitMode};
use acc_wal::{GroupCommitPolicy, MemDevice};
use std::sync::Arc;

const T: TableId = TableId(0);
const KEYS: i64 = 12;
/// A fixed offset so these seeds don't collide with other suites.
const SEED_BASE: u64 = 0x5e1f_0000;

fn catalog() -> Catalog {
    let mut c = Catalog::new();
    c.add_table(
        TableSchema::builder("accounts")
            .column("id", ColumnType::Int)
            .column("n", ColumnType::Int)
            .key(&["id"])
            .rows_per_page(3)
            .build(),
    );
    c
}

fn seeded_db() -> Database {
    let c = catalog();
    let mut db = Database::new(&c);
    for id in 0..KEYS {
        db.table_mut(T)
            .unwrap()
            .insert(Row(vec![Value::Int(id), Value::Int(0)]))
            .unwrap();
    }
    db
}

/// One read-modify-write transaction adding `delta` to row `id`.
fn add(s: &SharedDb, id: i64, delta: i64) -> Result<()> {
    let tid = s.begin_txn(TxnTypeId(0));
    let mut txn = Transaction::new(tid, TxnTypeId(0));
    {
        let two = TwoPhase;
        let mut ctx = StepCtx::new(s, &two, &mut txn, WaitMode::Block);
        ctx.update_key(T, &Key::ints(&[id]), |r| {
            let n = r.int(1);
            r.set(1, Value::Int(n + delta));
        })?;
    }
    commit(s, &mut txn)
}

/// Run a seeded leader workload and return its durable stream + records.
fn leader_history(rng: &mut SeededRng, txns: usize) -> (Vec<u8>, u64) {
    let policy = GroupCommitPolicy { max_batch: 1 << 20 };
    let s = SharedDb::new(seeded_db(), Arc::new(NoInterference))
        .with_wal_backend(Box::new(MemDevice::new()), policy);
    for _ in 0..txns {
        let id = rng.int_range(0, KEYS - 1);
        let delta = rng.int_range(1, 9);
        add(&s, id, delta).expect("leader commit");
    }
    (s.wal_durable_stream(), s.durable_wal_records())
}

/// The leader's own recovery of its durable prefix — the reference image.
fn reference_image(durable: &[u8]) -> Database {
    let mut db = seeded_db();
    acc_wal::recover(&mut db, &acc_wal::Wal::from_bytes(durable)).expect("reference recovery");
    db
}

fn assert_images_match(reference: &Database, follower: &mut Follower, seed: u64) {
    for id in 0..KEYS {
        let key = Key::ints(&[id]);
        let want = reference
            .table(T)
            .unwrap()
            .get(&key)
            .map(|(_, r)| r.clone());
        let got = follower.read_at(T, &key).expect("replayed read");
        assert_eq!(want, got, "seed {seed}: row {id} differs after replication");
    }
}

#[test]
fn random_misbehavior_plans_always_converge_to_the_leader_prefix() {
    for seed in 0..24u64 {
        let mut rng = SeededRng::new(SEED_BASE + seed);
        let txns = rng.int_range(4, 20) as usize;
        let (durable, records) = leader_history(&mut rng, txns);
        let plan = ShipPlan::seeded(&mut rng);
        let max_batch = rng.int_range(40, 600) as usize;

        let mut rep = Replicator::new(MemTransport::with_plan(plan), max_batch, seed);
        let mut f = Follower::new(seeded_db(), Box::new(MemDevice::new()));
        rep.pump(&mut f, &durable, records)
            .unwrap_or_else(|e| panic!("seed {seed}: pump failed under {plan:?}: {e}"));

        assert_eq!(
            f.stream(),
            &durable[..],
            "seed {seed}: follower bytes diverged under {plan:?}"
        );
        assert_eq!(f.replay_lsn(), records, "seed {seed}");
        assert_images_match(&reference_image(&durable), &mut f, seed);
    }
}

#[test]
fn crash_and_resume_at_random_points_still_converges() {
    for seed in 100..112u64 {
        let mut rng = SeededRng::new(SEED_BASE + seed);
        let txns = rng.int_range(6, 16) as usize;
        let (durable, records) = leader_history(&mut rng, txns);

        // First leg: replicate a random frame-aligned prefix cleanly.
        let cut = rng.int_range(1, durable.len() as i64 - 1) as usize;
        let (half_len, half_records) = frame_prefix(&durable[..cut]);
        let mut rep = Replicator::new(MemTransport::new(), 200, seed);
        let mut f = Follower::new(seeded_db(), Box::new(MemDevice::new()));
        rep.pump(&mut f, &durable[..half_len], half_records)
            .expect("first leg");

        // Crash the follower; maybe a torn local write is in flight.
        let mut dev = f.into_device();
        if rng.chance(0.5) {
            let torn = rng.int_range(1, 11) as usize;
            dev.stage(&vec![0xEEu8; torn]);
            let _ = dev.sync();
        }
        let mut f = Follower::resume(seeded_db(), dev);
        assert_eq!(f.replay_lsn(), half_records, "seed {seed}: salvage drift");

        // Second leg under a hostile plan, after the chain handshake.
        let plan = ShipPlan::seeded(&mut rng);
        let mut rep = Replicator::new(MemTransport::with_plan(plan), 200, seed ^ 1);
        rep.resume(&durable, f.resume_point())
            .unwrap_or_else(|e| panic!("seed {seed}: clean resume refused: {e}"));
        rep.pump(&mut f, &durable, records)
            .unwrap_or_else(|e| panic!("seed {seed}: second leg failed under {plan:?}: {e}"));

        assert_eq!(f.stream(), &durable[..], "seed {seed}");
        assert_images_match(&reference_image(&durable), &mut f, seed);
    }
}
