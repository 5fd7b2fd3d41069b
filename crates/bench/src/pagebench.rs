//! Paged-storage microbench: raw B-tree page operations under the pager's
//! latch protocol (optimistic descents, crabbing for structure changes).
//!
//! Wall-clock (real threads), so it stays out of `figures -- all`. Four
//! phases over one table with small leaves:
//!
//! 1. sequential load — inserts/s and the split count for a bulk build;
//! 2. single-thread point reads — the uncontended descent rate;
//! 3. concurrent read-only scaling at 1/2/4/8 threads — optimistic read
//!    descents never block each other (latch waits stay ~0);
//! 4. readers + one writer — the writer's in-place updates write-latch only
//!    their leaf (root write latches stay 0), and read descents validate
//!    against it instead of queuing behind a whole-table latch.
//!
//! Each phase prints a human line; machine-readable JSON lines (one object
//! per line, stable keys) follow for scripts.

use crate::mtbench::parallelism_banner;
use acc_common::{SeededRng, TableId, Value};
use acc_storage::{ColumnType, Key, PagerCounters, Row, Table, TableSchema};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;

/// Thread counts the concurrent phases sweep.
const THREADS: [usize; 4] = [1, 2, 4, 8];

fn schema() -> TableSchema {
    let mut s = TableSchema::builder("pagebench")
        .column("k", ColumnType::Int)
        .column("a", ColumnType::Int)
        .column("b", ColumnType::Int)
        .key(&["k"])
        .rows_per_page(4) // small leaves: deep tree, frequent splits
        .build();
    s.id = TableId(0);
    s
}

fn row(k: i64) -> Row {
    Row(vec![Value::Int(k), Value::Int(k % 7), Value::Int(0)])
}

/// `readers` threads doing random point reads for a fixed per-thread count,
/// with an optional single writer updating random rows the whole time.
/// Returns (total reads, elapsed seconds, counter delta).
fn read_phase(
    table: &Arc<Table>,
    n_rows: i64,
    readers: usize,
    reads_per_thread: u64,
    with_writer: bool,
    seed: u64,
) -> (u64, f64, PagerCounters) {
    let before = table.pager_counters();
    let stop = Arc::new(AtomicBool::new(false));
    let barrier = Arc::new(Barrier::new(readers + 1 + usize::from(with_writer)));
    let writer = with_writer.then(|| {
        let t = Arc::clone(table);
        let stop = Arc::clone(&stop);
        let barrier = Arc::clone(&barrier);
        std::thread::spawn(move || {
            let mut rng = SeededRng::new(seed ^ 0xcafe);
            barrier.wait();
            let mut writes = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let k = rng.int_range(0, n_rows - 1);
                if let Some(slot) = t.slot_of(&Key::ints(&[k])) {
                    let _ = t.update_with(slot, |r| {
                        r.set(2, Value::Int(writes as i64));
                    });
                    writes += 1;
                }
            }
            writes
        })
    });
    let mut handles = Vec::new();
    for r in 0..readers {
        let t = Arc::clone(table);
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            let mut rng = SeededRng::new(seed ^ ((r as u64 + 1) << 16));
            let mut found = 0u64;
            barrier.wait();
            for _ in 0..reads_per_thread {
                let k = rng.int_range(0, n_rows - 1);
                if t.get(&Key::ints(&[k])).is_some() {
                    found += 1;
                }
            }
            found
        }));
    }
    barrier.wait();
    let start = Instant::now();
    let mut total = 0u64;
    for h in handles {
        total += h.join().expect("pagebench reader panicked");
    }
    let elapsed = start.elapsed().as_secs_f64();
    stop.store(true, Ordering::Relaxed);
    if let Some(w) = writer {
        w.join().expect("pagebench writer panicked");
    }
    assert_eq!(
        total,
        readers as u64 * reads_per_thread,
        "every random key in range must be present"
    );
    (total, elapsed, table.pager_counters() - before)
}

/// The paged-storage microbench (see the module docs).
pub fn pagebench(quick: bool) {
    parallelism_banner();
    let n_rows: i64 = if quick { 20_000 } else { 100_000 };
    let reads_per_thread: u64 = if quick { 50_000 } else { 200_000 };
    let seed = 42u64;

    // Phase 1: sequential load.
    let table = Arc::new(Table::new(schema()));
    let start = Instant::now();
    for k in 0..n_rows {
        table.insert(row(k)).expect("load");
    }
    let load_s = start.elapsed().as_secs_f64();
    let load = table.pager_counters();
    println!(
        "\n=== pagebench: {n_rows} rows, leaf capacity 4 (pages: {}) ===",
        load.pages
    );
    println!(
        "load: {:>10.0} inserts/s  splits {}  page writes {}  root write latches {}",
        n_rows as f64 / load_s,
        load.splits,
        load.page_writes,
        load.root_write_latches
    );

    // Phases 2–3: read-only scaling.
    println!(
        "{:>8} {:>15} {:>9} {:>12} {:>10} {:>10} {:>11}",
        "readers",
        "point reads/s",
        "speedup",
        "page reads",
        "latch waits",
        "restarts",
        "root writes"
    );
    let mut rows = Vec::new();
    let mut base = 0.0f64;
    for &t in &THREADS {
        let (reads, elapsed, d) = read_phase(&table, n_rows, t, reads_per_thread, false, seed);
        let rps = reads as f64 / elapsed;
        if t == 1 {
            base = rps;
        }
        println!(
            "{t:>8} {rps:>15.0} {:>8.2}x {:>12} {:>10} {:>10} {:>11}",
            rps / base,
            d.page_reads,
            d.latch_waits,
            d.read_restarts,
            d.root_write_latches
        );
        rows.push((t, rps, d, false));
    }

    // Phase 4: readers vs one writer.
    println!(
        "--- plus 1 writer (in-place updates latch their leaf; reads validate, not queue) ---"
    );
    for &t in &THREADS {
        let (reads, elapsed, d) = read_phase(&table, n_rows, t, reads_per_thread, true, seed);
        let rps = reads as f64 / elapsed;
        println!(
            "{t:>8} {rps:>15.0} {:>8.2}x {:>12} {:>10} {:>10} {:>11}",
            rps / base,
            d.page_reads,
            d.latch_waits,
            d.read_restarts,
            d.root_write_latches
        );
        rows.push((t, rps, d, true));
    }

    println!();
    println!(
        "{{\"bench\":\"pagebench-load\",\"rows\":{n_rows},\
         \"inserts_per_s\":{:.0},\"splits\":{},\"merges\":{},\
         \"page_writes\":{},\"root_write_latches\":{},\"pages\":{}}}",
        n_rows as f64 / load_s,
        load.splits,
        load.merges,
        load.page_writes,
        load.root_write_latches,
        load.pages
    );
    for (t, rps, d, with_writer) in rows {
        println!(
            "{{\"bench\":\"pagebench\",\"readers\":{t},\"writer\":{},\
             \"point_reads_per_s\":{rps:.0},\"page_reads\":{},\
             \"page_writes\":{},\"root_write_latches\":{},\
             \"latch_waits\":{},\"read_restarts\":{},\"splits\":{}}}",
            if with_writer { 1 } else { 0 },
            d.page_reads,
            d.page_writes,
            d.root_write_latches,
            d.latch_waits,
            d.read_restarts,
            d.splits
        );
    }
}
