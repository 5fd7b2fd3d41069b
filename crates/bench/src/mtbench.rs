//! Contended multi-thread benchmarks over the sharded runtime.
//!
//! Everything here measures wall-clock time on real threads, so none of it
//! belongs in `figures -- all` (whose output must stay byte-identical across
//! runs). Three entry points:
//!
//! - [`mtbench`] — lock-manager shard scaling plus the disjoint-warehouse /
//!   hot-district TPC-C microbench at 1/2/4/8 threads;
//! - [`retry_sweep`] — closed-loop calibration of [`RetryPolicy`]
//!   (max-retries × base-backoff) under a deliberately hot mix;
//! - [`stress`] — the release-mode 8-thread smoke `scripts/check.sh` runs:
//!   a short closed-loop soak that must end consistent with no leaked locks.
//!
//! Throughput numbers depend on the host (core count, scheduler); the
//! invariant checks (consistency audit, drained lock tables) do not.

use acc_common::events::EventSink;
use acc_common::rng::SeededRng;
use acc_common::{ResourceId, StepTypeId, TxnId};
use acc_engine::{run_closed_loop, ClosedLoopConfig, RetryPolicy, Workload};
use acc_lockmgr::ShardedLockManager;
use acc_lockmgr::{LockKind, NoInterference, Request, RequestCtx, RequestOutcome};
use acc_storage::{Database, Key};
use acc_tpcc::decompose::TpccSystem;
use acc_tpcc::input::{
    CustomerSelector, InputGen, NewOrderInput, OrderLineInput, OrderStatusInput, StockLevelInput,
    TpccConfig,
};
use acc_tpcc::schema::{tpcc_catalog, Scale};
use acc_tpcc::{consistency, populate, txns};
use acc_txn::runner::run;
use acc_txn::{ConcurrencyControl, RunOutcome, SharedDb, TxnProgram, WaitMode};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Thread counts every table sweeps.
const THREADS: [usize; 4] = [1, 2, 4, 8];

pub(crate) fn parallelism_banner() {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("host parallelism: {cores} core(s) available");
    if cores < 4 {
        println!(
            "NOTE: fewer cores than benchmark threads — thread counts beyond \
             {cores} time-slice one core, so wall-clock scaling cannot appear \
             on this host; the tables below measure contention overhead only."
        );
    }
}

// ---------------------------------------------------------------------------
// Lock-manager shard scaling
// ---------------------------------------------------------------------------

/// One measurement: `threads` workers each do `iters` acquire/release pairs
/// against a shared [`ShardedLockManager`]. `disjoint` gives every worker a
/// private resource range (different shards, no lock conflicts — pure shard-
/// mutex scaling); otherwise all workers take S locks on the same 8 resources
/// (compatible grants, maximal shard-mutex contention).
fn lockmgr_ops_per_sec(threads: usize, iters: u64, disjoint: bool) -> f64 {
    let lm = Arc::new(ShardedLockManager::new(ShardedLockManager::DEFAULT_SHARDS));
    let barrier = Arc::new(Barrier::new(threads + 1));
    let mut handles = Vec::new();
    for t in 0..threads {
        let lm = Arc::clone(&lm);
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            barrier.wait();
            for i in 0..iters {
                let txn = TxnId(((t as u64) << 32) | i);
                let (r, kind) = if disjoint {
                    (
                        ResourceId::Named((t as u32) * 64 + (i % 64) as u32),
                        LockKind::X,
                    )
                } else {
                    (ResourceId::Named((i % 8) as u32), LockKind::S)
                };
                let out = lm.request(
                    Request::new(txn, r, kind, RequestCtx::plain(StepTypeId(1))),
                    &NoInterference,
                );
                assert_eq!(out, RequestOutcome::Granted);
                lm.release_all(txn, &NoInterference, &mut |_| {});
            }
        }));
    }
    barrier.wait();
    let start = Instant::now();
    for h in handles {
        h.join().expect("lockmgr bench worker panicked");
    }
    let elapsed = start.elapsed().as_secs_f64();
    assert_eq!(lm.total_grants(), 0, "lock table not drained");
    (threads as u64 * iters) as f64 / elapsed
}

// ---------------------------------------------------------------------------
// Contended TPC-C microbench
// ---------------------------------------------------------------------------

/// Per-cell outcome of the TPC-C microbench.
struct MtCell {
    committed: u64,
    aborted: u64,
    tps: f64,
}

/// Seeded new-order input pinned to `w_id`; `hot` forces district 1 (every
/// thread funnels into one district row), otherwise districts spread.
fn pinned_new_order(rng: &mut SeededRng, scale: &Scale, w_id: i64, hot: bool) -> NewOrderInput {
    let n = rng.int_range(5, 15);
    let lines = (0..n)
        .map(|_| OrderLineInput {
            i_id: rng.int_range(1, scale.items),
            supply_w_id: w_id,
            qty: rng.int_range(1, 10),
        })
        .collect();
    NewOrderInput {
        w_id,
        d_id: if hot {
            1
        } else {
            rng.int_range(1, scale.districts)
        },
        c_id: rng.int_range(1, scale.customers_per_district),
        lines,
        rollback: false,
    }
}

/// Run new-orders from `threads` worker threads for `duration`. In the
/// disjoint shape every thread owns its own warehouse (no data conflicts —
/// the run measures how well the decomposed runtime stays out of its own
/// way); in the hot shape all threads hammer warehouse 1 / district 1.
fn tpcc_cell(threads: usize, hot: bool, duration: Duration, seed: u64) -> MtCell {
    let scale = Scale {
        warehouses: if hot { 1 } else { threads as i64 },
        districts: 3,
        customers_per_district: 30,
        items: 100,
        initial_orders_per_district: 4,
    };
    let sys = TpccSystem::build();
    let mut db = Database::new(&tpcc_catalog());
    populate(&mut db, &scale, seed);
    let shared = Arc::new(SharedDb::new(db, Arc::clone(&sys.tables) as _));
    let stop = Arc::new(AtomicBool::new(false));
    let barrier = Arc::new(Barrier::new(threads + 1));

    let mut handles = Vec::new();
    for t in 0..threads {
        let shared = Arc::clone(&shared);
        let acc = Arc::clone(&sys.acc);
        let stop = Arc::clone(&stop);
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            let w_id = if hot { 1 } else { t as i64 + 1 };
            let mut rng = SeededRng::new(seed ^ ((t as u64 + 1) << 8));
            let (mut committed, mut aborted) = (0u64, 0u64);
            barrier.wait();
            while !stop.load(Ordering::Relaxed) {
                let input = pinned_new_order(&mut rng, &scale, w_id, hot);
                let mut program: Box<dyn TxnProgram + Send> = Box::new(txns::NewOrder::new(input));
                match run(&shared, &*acc, program.as_mut(), WaitMode::Block) {
                    Ok(RunOutcome::Committed { .. }) => committed += 1,
                    Ok(RunOutcome::RolledBack(_)) => aborted += 1,
                    Err(e) => panic!("mtbench worker hit a hard error: {e}"),
                }
            }
            (committed, aborted)
        }));
    }
    barrier.wait();
    let start = Instant::now();
    std::thread::sleep(duration);
    stop.store(true, Ordering::Relaxed);
    let (mut committed, mut aborted) = (0u64, 0u64);
    for h in handles {
        let (c, a) = h.join().expect("mtbench worker panicked");
        committed += c;
        aborted += a;
    }
    let elapsed = start.elapsed().as_secs_f64();

    let violations = consistency::check(&shared.snapshot_db(), false);
    assert!(violations.is_empty(), "{violations:#?}");
    assert_eq!(shared.total_grants(), 0, "lock grants leaked");
    MtCell {
        committed,
        aborted,
        tps: committed as f64 / elapsed,
    }
}

/// Per-cell outcome of the read-mostly microbench.
struct ReadMostlyCell {
    reads: u64,
    writes: u64,
    read_tps: f64,
    version_reads: u64,
    version_fallbacks: u64,
    /// Pager counter delta over the measured window: physical page-latch
    /// traffic (these replaced the old table-stripe counters when storage
    /// went paged).
    pages: acc_storage::PagerCounters,
}

/// The hot-district read-mostly shape: one new-order writer hammering
/// warehouse 1 / district 1 while `readers` threads run order-status and
/// stock-level against the same district. With `mvcc` the read-only types
/// take the coordination-free version-read path; without it (the same policy
/// through [`Acc::without_version_reads`]) every read goes through the lock
/// manager and queues behind the writer's DIRTY pins.
fn readmostly_cell(readers: usize, mvcc: bool, duration: Duration, seed: u64) -> ReadMostlyCell {
    let scale = Scale {
        warehouses: 1,
        districts: 3,
        customers_per_district: 30,
        items: 100,
        initial_orders_per_district: 4,
    };
    let sys = TpccSystem::build();
    let acc: Arc<dyn ConcurrencyControl + Send + Sync> = if mvcc {
        Arc::clone(&sys.acc) as _
    } else {
        Arc::new(sys.acc.without_version_reads()) as _
    };
    let mut db = Database::new(&tpcc_catalog());
    populate(&mut db, &scale, seed);
    let shared = Arc::new(SharedDb::new(db, Arc::clone(&sys.tables) as _));
    let sink = EventSink::enabled(1 << 12);
    shared.set_event_sink(Arc::clone(&sink));
    let pages_base = shared.pager_counters();
    let stop = Arc::new(AtomicBool::new(false));
    let barrier = Arc::new(Barrier::new(readers + 2));

    // The writer: hot new-orders, same shape as the hot tpcc cell.
    let writer = {
        let shared = Arc::clone(&shared);
        let acc = Arc::clone(&acc);
        let stop = Arc::clone(&stop);
        let barrier = Arc::clone(&barrier);
        std::thread::spawn(move || {
            let mut rng = SeededRng::new(seed ^ 0x57ea3);
            let mut committed = 0u64;
            barrier.wait();
            while !stop.load(Ordering::Relaxed) {
                let input = pinned_new_order(&mut rng, &scale, 1, true);
                let mut program: Box<dyn TxnProgram + Send> = Box::new(txns::NewOrder::new(input));
                match run(&shared, &*acc, program.as_mut(), WaitMode::Block) {
                    Ok(RunOutcome::Committed { .. }) => committed += 1,
                    Ok(RunOutcome::RolledBack(_)) => {}
                    Err(e) => panic!("read-mostly writer hit a hard error: {e}"),
                }
            }
            committed
        })
    };
    let mut handles = Vec::new();
    for t in 0..readers {
        let shared = Arc::clone(&shared);
        let acc = Arc::clone(&acc);
        let stop = Arc::clone(&stop);
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            let mut rng = SeededRng::new(seed ^ ((t as u64 + 2) << 16));
            let mut committed = 0u64;
            barrier.wait();
            while !stop.load(Ordering::Relaxed) {
                let mut program: Box<dyn TxnProgram + Send> = if rng.chance(0.5) {
                    Box::new(txns::OrderStatus::new(OrderStatusInput {
                        w_id: 1,
                        d_id: 1,
                        customer: CustomerSelector::ById(
                            rng.int_range(1, scale.customers_per_district),
                        ),
                    }))
                } else {
                    Box::new(txns::StockLevel::new(StockLevelInput {
                        w_id: 1,
                        d_id: 1,
                        threshold: rng.int_range(10, 20),
                    }))
                };
                match run(&shared, &*acc, program.as_mut(), WaitMode::Block) {
                    Ok(RunOutcome::Committed { .. }) => committed += 1,
                    Ok(RunOutcome::RolledBack(_)) => {}
                    Err(e) => panic!("read-mostly reader hit a hard error: {e}"),
                }
            }
            committed
        }));
    }
    barrier.wait();
    let start = Instant::now();
    std::thread::sleep(duration);
    stop.store(true, Ordering::Relaxed);
    let writes = writer.join().expect("read-mostly writer panicked");
    let mut reads = 0u64;
    for h in handles {
        reads += h.join().expect("read-mostly reader panicked");
    }
    let elapsed = start.elapsed().as_secs_f64();

    let violations = consistency::check(&shared.snapshot_db(), false);
    assert!(violations.is_empty(), "{violations:#?}");
    assert_eq!(shared.total_grants(), 0, "lock grants leaked");
    let c = sink.counters();
    if mvcc {
        assert!(
            c.version_reads > 0,
            "read-only types never took the version-read fast path"
        );
    } else {
        assert_eq!(c.version_reads, 0, "version reads under a no-MVCC policy");
    }
    ReadMostlyCell {
        reads,
        writes,
        read_tps: reads as f64 / elapsed,
        version_reads: c.version_reads,
        version_fallbacks: c.version_fallbacks,
        pages: shared.pager_counters() - pages_base,
    }
}

/// The contended multi-thread microbench: shard scaling of the raw lock
/// manager, then disjoint-warehouse vs hot-district TPC-C new-orders at
/// 1/2/4/8 threads. Prints two tables (speedups relative to one thread),
/// then one machine-readable JSON line per thread count — stable keys, one
/// object per line, so scripts can `grep '^{'` the output and parse without
/// scraping the human tables.
pub fn mtbench(quick: bool) {
    parallelism_banner();
    let iters: u64 = if quick { 20_000 } else { 100_000 };
    println!("\n=== sharded lock manager: acquire/release ops/s ({iters} iters/thread) ===");
    println!(
        "{:>7} {:>16} {:>9} {:>16} {:>9}",
        "threads", "disjoint ops/s", "speedup", "hot-shard ops/s", "speedup"
    );
    let mut lock_rows = Vec::new();
    let (mut base_d, mut base_h) = (0.0f64, 0.0f64);
    for &t in &THREADS {
        let d = lockmgr_ops_per_sec(t, iters, true);
        let h = lockmgr_ops_per_sec(t, iters, false);
        if t == 1 {
            base_d = d;
            base_h = h;
        }
        println!(
            "{t:>7} {d:>16.0} {:>8.2}x {h:>16.0} {:>8.2}x",
            d / base_d,
            h / base_h
        );
        lock_rows.push((d, h));
    }

    let duration = Duration::from_millis(if quick { 250 } else { 1000 });
    println!(
        "\n=== contended TPC-C new-orders, {} ms/cell (threaded engine, ACC) ===",
        duration.as_millis()
    );
    println!(
        "{:>7} {:>14} {:>9} {:>8} {:>14} {:>9} {:>8}",
        "threads", "disjoint tps", "speedup", "aborts", "hot tps", "speedup", "aborts"
    );
    let mut tpcc_rows = Vec::new();
    let (mut base_dt, mut base_ht) = (0.0f64, 0.0f64);
    for &t in &THREADS {
        let d = tpcc_cell(t, false, duration, 42);
        let h = tpcc_cell(t, true, duration, 42);
        if t == 1 {
            base_dt = d.tps;
            base_ht = h.tps;
        }
        println!(
            "{t:>7} {:>14.0} {:>8.2}x {:>8} {:>14.0} {:>8.2}x {:>8}",
            d.tps,
            d.tps / base_dt,
            d.aborted,
            h.tps,
            h.tps / base_ht,
            h.aborted
        );
        tpcc_rows.push((d, h));
    }

    println!(
        "\n=== hot-district read-mostly: 1 new-order writer + N readers, {} ms/cell ===",
        duration.as_millis()
    );
    println!(
        "{:>8} {:>15} {:>13} {:>8} {:>13} {:>10} {:>11} {:>9}",
        "readers",
        "lock-path r/s",
        "version r/s",
        "speedup",
        "version reads",
        "fallbacks",
        "latch waits",
        "restarts"
    );
    let mut rm_rows = Vec::new();
    for &t in &THREADS {
        let lock = readmostly_cell(t, false, duration, 42);
        let vers = readmostly_cell(t, true, duration, 42);
        println!(
            "{t:>8} {:>15.0} {:>13.0} {:>7.2}x {:>13} {:>10} {:>11} {:>9}",
            lock.read_tps,
            vers.read_tps,
            vers.read_tps / lock.read_tps.max(1e-9),
            vers.version_reads,
            vers.version_fallbacks,
            vers.pages.latch_waits,
            vers.pages.read_restarts
        );
        rm_rows.push((lock, vers));
    }

    println!();
    for (i, &t) in THREADS.iter().enumerate() {
        let (ld, lh) = lock_rows[i];
        let (d, h) = &tpcc_rows[i];
        println!(
            "{{\"bench\":\"mtbench\",\"threads\":{t},\
             \"lockmgr_disjoint_ops_per_s\":{ld:.0},\
             \"lockmgr_hot_ops_per_s\":{lh:.0},\
             \"tpcc_disjoint_tps\":{:.1},\"tpcc_disjoint_committed\":{},\
             \"tpcc_disjoint_aborted\":{},\
             \"tpcc_hot_tps\":{:.1},\"tpcc_hot_committed\":{},\
             \"tpcc_hot_aborted\":{}}}",
            d.tps, d.committed, d.aborted, h.tps, h.committed, h.aborted
        );
    }
    for (i, &t) in THREADS.iter().enumerate() {
        let (lock, vers) = &rm_rows[i];
        println!(
            "{{\"bench\":\"mtbench-readmostly\",\"readers\":{t},\
             \"lockpath_read_tps\":{:.1},\"lockpath_reads\":{},\"lockpath_writes\":{},\
             \"version_read_tps\":{:.1},\"version_reads_committed\":{},\"version_writes\":{},\
             \"version_reads\":{},\"version_fallbacks\":{},\
             \"lockpath_latch_waits\":{},\"lockpath_read_restarts\":{},\
             \"version_latch_waits\":{},\"version_read_restarts\":{}}}",
            lock.read_tps,
            lock.reads,
            lock.writes,
            vers.read_tps,
            vers.reads,
            vers.writes,
            vers.version_reads,
            vers.version_fallbacks,
            lock.pages.latch_waits,
            lock.pages.read_restarts,
            vers.pages.latch_waits,
            vers.pages.read_restarts
        );
    }
}

// ---------------------------------------------------------------------------
// Retry-policy calibration
// ---------------------------------------------------------------------------

/// One closed-loop run of the standard mix at test scale under `retry`.
fn retry_cell(retry: RetryPolicy, terminals: usize, duration: Duration, seed: u64) -> MtCell {
    let sys = TpccSystem::build();
    let scale = Scale::test();
    let mut db = Database::new(&tpcc_catalog());
    populate(&mut db, &scale, seed);
    let shared = Arc::new(SharedDb::new(db, Arc::clone(&sys.tables) as _));
    let cc = Arc::clone(&sys.acc) as _;
    let workload: Arc<dyn Workload> = Arc::new(InputGen::new(TpccConfig::standard(scale), seed));
    let report = run_closed_loop(
        &shared,
        &cc,
        &workload,
        &ClosedLoopConfig {
            terminals,
            duration,
            think_time: Duration::ZERO,
            seed,
            retry,
        },
    );
    let violations = consistency::check(&shared.snapshot_db(), false);
    assert!(violations.is_empty(), "{violations:#?}");
    assert_eq!(shared.total_grants(), 0, "lock grants leaked");
    MtCell {
        committed: report.committed,
        aborted: report.aborted,
        tps: report.throughput_tps,
    }
}

// --- deadlock-prone transfer workload for the retry calibration ------------
//
// TPC-C acquires its locks in a consistent order, so deadlocks (the only
// thing a [`RetryPolicy`] retries besides dooms) are too rare to calibrate
// against. Transfers that update `from` then `to` in request order produce
// classic AB/BA cycles on demand: a handful of accounts and zero think time
// make the deadlock rate high enough that the retry knobs visibly move both
// goodput and wasted work.

const ACCOUNTS: acc_common::TableId = acc_common::TableId(0);

struct Transfer {
    from: i64,
    to: i64,
}

impl TxnProgram for Transfer {
    fn txn_type(&self) -> acc_common::TxnTypeId {
        acc_common::TxnTypeId(0)
    }
    fn step(
        &mut self,
        _i: u32,
        ctx: &mut acc_txn::StepCtx<'_>,
    ) -> acc_common::Result<acc_txn::StepOutcome> {
        let amount = acc_common::Decimal::from_int(1);
        ctx.update_key(ACCOUNTS, &Key::ints(&[self.from]), |r| {
            let b = r.decimal(1);
            r.set(1, acc_common::Value::from(b - amount));
        })?;
        ctx.update_key(ACCOUNTS, &Key::ints(&[self.to]), |r| {
            let b = r.decimal(1);
            r.set(1, acc_common::Value::from(b + amount));
        })?;
        Ok(acc_txn::StepOutcome::Done)
    }
}

struct TransferWorkload {
    accounts: i64,
}

impl Workload for TransferWorkload {
    fn next_program(&self, rng: &mut SeededRng) -> Box<dyn TxnProgram + Send> {
        let from = rng.int_range(0, self.accounts - 1);
        let mut to = rng.int_range(0, self.accounts - 1);
        if to == from {
            to = (to + 1) % self.accounts;
        }
        Box::new(Transfer { from, to })
    }
}

struct RetryCell {
    committed: u64,
    aborted: u64,
    retries: u64,
    tps: f64,
}

/// One closed-loop run of the transfer workload under `retry`. Audits
/// balance conservation (committed transfers are zero-sum) and a drained
/// lock table.
fn transfer_cell(retry: RetryPolicy, terminals: usize, duration: Duration, seed: u64) -> RetryCell {
    const N_ACCOUNTS: i64 = 8;
    let mut catalog = acc_storage::Catalog::new();
    catalog.add_table(
        acc_storage::TableSchema::builder("accounts")
            .column("id", acc_storage::ColumnType::Int)
            .column("balance", acc_storage::ColumnType::Decimal)
            .key(&["id"])
            .rows_per_page(1)
            .build(),
    );
    let mut db = Database::new(&catalog);
    for i in 0..N_ACCOUNTS {
        db.table_mut(ACCOUNTS)
            .expect("accounts table")
            .insert(acc_storage::Row::from(vec![
                acc_common::Value::Int(i),
                acc_common::Value::from(acc_common::Decimal::from_int(1000)),
            ]))
            .expect("populate");
    }
    let shared = Arc::new(SharedDb::new(db, Arc::new(NoInterference)));
    let cc: Arc<dyn acc_txn::ConcurrencyControl> = Arc::new(acc_txn::TwoPhase);
    let workload: Arc<dyn Workload> = Arc::new(TransferWorkload {
        accounts: N_ACCOUNTS,
    });
    let report = run_closed_loop(
        &shared,
        &cc,
        &workload,
        &ClosedLoopConfig {
            terminals,
            duration,
            think_time: Duration::ZERO,
            seed,
            retry,
        },
    );
    let t = shared.table(ACCOUNTS).expect("accounts table");
    let total: acc_common::Decimal = t.iter().map(|(_, r)| r.decimal(1)).sum();
    assert_eq!(
        total,
        acc_common::Decimal::from_int(N_ACCOUNTS * 1000),
        "committed transfers must conserve balance"
    );
    assert_eq!(shared.total_grants(), 0, "lock grants leaked");
    RetryCell {
        committed: report.committed,
        aborted: report.aborted,
        retries: report.retries,
        tps: report.throughput_tps,
    }
}

/// Calibrate [`RetryPolicy`]: sweep max-retries × base-backoff under a
/// deadlock-prone 8-terminal transfer loop and print goodput, abort and
/// retry counts per cell. The *thrash point* is the corner where retries
/// balloon without raising goodput (deep retry budgets with no backoff) —
/// recorded in EXPERIMENTS.md from this table's output.
pub fn retry_sweep(quick: bool) {
    parallelism_banner();
    let duration = Duration::from_millis(if quick { 250 } else { 600 });
    let terminals = 8;
    println!(
        "\n=== retry-policy calibration: {terminals} terminals, 8-account transfers, {} ms/cell ===",
        duration.as_millis()
    );
    println!(
        "{:>11} {:>12} {:>12} {:>10} {:>9} {:>14}",
        "max_retries", "backoff", "committed/s", "aborts", "retries", "retries/commit"
    );
    for &max_retries in &[0u32, 1, 3, 6, 10] {
        let backoffs: &[u64] = if max_retries == 0 {
            &[0] // no retries → backoff is never consulted
        } else {
            &[0, 500, 2000, 8000]
        };
        for &base_us in backoffs {
            let retry = RetryPolicy {
                max_retries,
                base_backoff: Duration::from_micros(base_us),
                max_backoff: Duration::from_millis(16),
            };
            let cell = transfer_cell(retry, terminals, duration, 42);
            println!(
                "{max_retries:>11} {:>9} us {:>12.0} {:>10} {:>9} {:>14.2}",
                base_us,
                cell.tps,
                cell.aborted,
                cell.retries,
                cell.retries as f64 / cell.committed.max(1) as f64
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Release-mode stress smoke
// ---------------------------------------------------------------------------

/// One closed-loop soak of the fulfilment-saga mix under its *inferred*
/// interference tables (no hand analysis exists for this family), audited at
/// quiescence.
fn saga_cell(terminals: usize, duration: Duration, seed: u64) -> MtCell {
    use acc_workloads::{saga, WorkloadKit};
    let kit = Arc::new(saga::SagaKit::build(12, 8));
    let shared = Arc::new(SharedDb::new(kit.base(), kit.tables() as _));
    let cc = kit.acc() as _;
    let workload: Arc<dyn Workload> = Arc::clone(&kit) as _;
    let report = run_closed_loop(
        &shared,
        &cc,
        &workload,
        &ClosedLoopConfig {
            terminals,
            duration,
            think_time: Duration::ZERO,
            seed,
            retry: RetryPolicy::standard(),
        },
    );
    let violations = kit.audit(&shared.snapshot_db());
    assert!(violations.is_empty(), "{violations:#?}");
    assert_eq!(shared.total_grants(), 0, "lock grants leaked");
    MtCell {
        committed: report.committed,
        aborted: report.aborted,
        tps: report.throughput_tps,
    }
}

/// The PR-gate stress smoke: 8-thread closed-loop soaks of the standard
/// TPC-C mix and of the fulfilment-saga mix (deep compensation chains,
/// inferred tables), each of which must end with its consistency audit
/// clean, the lock table drained, and a sane commit count. Exits non-zero on
/// failure so `scripts/check.sh` can gate on it.
pub fn stress(quick: bool) {
    parallelism_banner();
    let duration = Duration::from_millis(if quick { 500 } else { 1500 });
    println!(
        "\n=== stress smoke: 8 terminals, standard retry, {} ms ===",
        duration.as_millis()
    );
    let cell = retry_cell(RetryPolicy::standard(), 8, duration, 1337);
    acc_storage::latch_debug_assert_none_held("stress smoke end");
    println!(
        "committed={} aborted={} throughput={:.0} tps — consistency clean, locks drained",
        cell.committed, cell.aborted, cell.tps
    );
    if cell.committed == 0 {
        eprintln!("stress smoke committed nothing — runtime wedged");
        std::process::exit(1);
    }

    println!(
        "\n=== stress smoke: fulfilment saga, 8 terminals, standard retry, {} ms ===",
        duration.as_millis()
    );
    let cell = saga_cell(8, duration, 4242);
    acc_storage::latch_debug_assert_none_held("saga stress smoke end");
    println!(
        "committed={} aborted={} throughput={:.0} tps — saga audit clean, locks drained",
        cell.committed, cell.aborted, cell.tps
    );
    if cell.committed == 0 {
        eprintln!("saga stress smoke committed nothing — runtime wedged");
        std::process::exit(1);
    }
}
