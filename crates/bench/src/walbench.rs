//! Group-commit latency/throughput sweep (`figures -- wal`).
//!
//! Wall-clock, real threads, so — like `mtbench` — none of this belongs in
//! `figures -- all`. Each cell runs `threads` committers in a closed loop of
//! single-update transactions against a [`SharedDb`] whose WAL sits on a
//! [`MemDevice`] or a [`FileDevice`]. Rows are disjoint per thread, so the
//! cell isolates the commit path: WAL append, parking on the durable LSN,
//! the leader's write+fsync.
//!
//! The interesting column is `recs/fsync`: the batch size achieved by
//! committers that parked behind an in-flight fsync and retired together in
//! the next flush (3 records per commit: update + step-end + commit).

use crate::mtbench::parallelism_banner;
use acc_common::{Result, TableId, TxnTypeId, Value};
use acc_lockmgr::NoInterference;
use acc_storage::{Catalog, ColumnType, Database, Key, Row, TableSchema};
use acc_txn::runner::commit;
use acc_txn::{SharedDb, StepCtx, Transaction, TwoPhase, WaitMode};
use acc_wal::device::temp_log_path;
use acc_wal::{FileDevice, GroupCommitPolicy, LogDevice, MemDevice};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

const T: TableId = TableId(0);

fn counters_db(rows: i64) -> Database {
    let mut c = Catalog::new();
    c.add_table(
        TableSchema::builder("counters")
            .column("id", ColumnType::Int)
            .column("n", ColumnType::Int)
            .key(&["id"])
            .rows_per_page(1)
            .build(),
    );
    let mut db = Database::new(&c);
    for id in 0..rows {
        db.table_mut(T)
            .expect("counters table")
            .insert(Row(vec![Value::Int(id), Value::Int(0)]))
            .expect("populate");
    }
    db
}

/// One committed read-modify-write of row `id`.
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

struct WalCell {
    commits: u64,
    tps: f64,
    mean_latency_us: f64,
    fsyncs: u64,
    recs_per_fsync: f64,
}

fn wal_cell(dev: Box<dyn LogDevice>, threads: usize, duration: Duration) -> WalCell {
    let policy = GroupCommitPolicy { max_batch: 256 };
    let shared = Arc::new(
        SharedDb::new(counters_db(threads as i64), Arc::new(NoInterference))
            .with_wal_backend(dev, policy),
    );
    let stop = Arc::new(AtomicBool::new(false));
    let barrier = Arc::new(Barrier::new(threads + 1));
    let mut handles = Vec::new();
    for t in 0..threads {
        let shared = Arc::clone(&shared);
        let stop = Arc::clone(&stop);
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            let mut commits = 0u64;
            let mut latency = Duration::ZERO;
            barrier.wait();
            while !stop.load(Ordering::Relaxed) {
                let start = Instant::now();
                bump(&shared, t as i64).expect("walbench commit failed");
                latency += start.elapsed();
                commits += 1;
            }
            (commits, latency)
        }));
    }
    barrier.wait();
    let start = Instant::now();
    std::thread::sleep(duration);
    stop.store(true, Ordering::Relaxed);
    let (mut commits, mut latency) = (0u64, Duration::ZERO);
    for h in handles {
        let (c, l) = h.join().expect("walbench worker panicked");
        commits += c;
        latency += l;
    }
    let elapsed = start.elapsed().as_secs_f64();

    // Every acknowledged commit is durable, and no commit left locks behind.
    assert_eq!(shared.durable_wal_records(), shared.wal_len() as u64);
    assert_eq!(shared.total_grants(), 0, "walbench leaked locks");
    let fsyncs = shared.wal_fsyncs();
    WalCell {
        commits,
        tps: commits as f64 / elapsed,
        mean_latency_us: latency.as_micros() as f64 / commits.max(1) as f64,
        fsyncs,
        recs_per_fsync: shared.durable_wal_records() as f64 / fsyncs.max(1) as f64,
    }
}

/// The `figures -- wal` sweep: device × committer threads. Wall-clock; the
/// durability and lock-drain invariants are asserted per cell, the
/// throughput numbers are host-dependent.
pub fn walbench(quick: bool) {
    parallelism_banner();
    let duration = Duration::from_millis(if quick { 150 } else { 400 });
    let threads: &[usize] = if quick { &[1, 4] } else { &[1, 4, 8] };
    println!(
        "\n=== group commit: single-update commits, {} ms/cell, max_batch 256 ===",
        duration.as_millis()
    );
    println!(
        "{:>6} {:>8} {:>12} {:>12} {:>14} {:>10} {:>11}",
        "device", "threads", "commits", "commits/s", "mean lat us", "fsyncs", "recs/fsync"
    );
    for kind in ["mem", "file"] {
        for &t in threads {
            let path = temp_log_path(&format!("walbench-{t}"));
            let dev: Box<dyn LogDevice> = match kind {
                "mem" => Box::new(MemDevice::new()),
                _ => {
                    let _ = std::fs::remove_file(&path);
                    Box::new(FileDevice::create(&path).expect("create bench log"))
                }
            };
            let cell = wal_cell(dev, t, duration);
            if kind == "file" {
                let _ = std::fs::remove_file(&path);
            }
            println!(
                "{kind:>6} {t:>8} {:>12} {:>12.0} {:>14.1} {:>10} {:>11.1}",
                cell.commits, cell.tps, cell.mean_latency_us, cell.fsyncs, cell.recs_per_fsync
            );
        }
    }
}
