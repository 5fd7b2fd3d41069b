//! TPC-C on real threads: the same transaction mix under strict 2PL and
//! under the ACC, with wall-clock response times and a consistency audit.
//!
//! ```text
//! cargo run --release --example tpcc_demo [terminals] [seconds]
//! ```
//!
//! This is the live-engine counterpart of the deterministic figure harness
//! (`cargo run -p acc-bench --release --bin figures`). Expect the same
//! qualitative picture, with wall-clock noise.

use acc_engine::{run_closed_loop, ClosedLoopConfig, RetryPolicy, Workload};
use assertional_acc::prelude::*;
use assertional_acc::tpcc;
use std::sync::Arc;
use std::time::Duration;

fn build_shared(seed: u64) -> (Arc<SharedDb>, tpcc::TpccSystem, tpcc::Scale) {
    let sys = tpcc::TpccSystem::build();
    let scale = tpcc::Scale::benchmark();
    let mut db = Database::new(&tpcc::tpcc_catalog());
    tpcc::populate(&mut db, &scale, seed);
    let shared = Arc::new(
        SharedDb::new(db, Arc::clone(&sys.tables) as _).with_wait_cap(Duration::from_secs(30)),
    );
    (shared, sys, scale)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let terminals: usize = args.first().and_then(|a| a.parse().ok()).unwrap_or(16);
    let seconds: u64 = args.get(1).and_then(|a| a.parse().ok()).unwrap_or(3);

    println!(
        "TPC-C demo: {terminals} terminals, {seconds}s per system, 1 warehouse × 10 districts"
    );
    println!(
        "{:<10} {:>9} {:>9} {:>9} {:>10} {:>10} {:>9}",
        "system", "commits", "aborts", "retries", "mean (ms)", "p95 (ms)", "tps"
    );

    let mut means = Vec::new();
    for (name, use_acc) in [("strict-2pl", false), ("acc", true)] {
        let (shared, sys, scale) = build_shared(42);
        let cc: Arc<dyn ConcurrencyControl> = if use_acc {
            Arc::clone(&sys.acc) as _
        } else {
            Arc::new(TwoPhase)
        };
        let workload: Arc<dyn Workload> =
            Arc::new(tpcc::InputGen::new(tpcc::TpccConfig::standard(scale), 7));
        let report = run_closed_loop(
            &shared,
            &cc,
            &workload,
            &ClosedLoopConfig {
                terminals,
                duration: Duration::from_secs(seconds),
                think_time: Duration::from_millis(10),
                seed: 99,
                retry: RetryPolicy::standard(),
            },
        );
        println!(
            "{:<10} {:>9} {:>9} {:>9} {:>10.2} {:>10.2} {:>9.0}",
            name,
            report.committed,
            report.aborted,
            report.retries,
            report.latency.mean_ms,
            report.latency.p95_ms,
            report.throughput_tps
        );
        means.push(report.latency.mean_ms);

        // Audit at quiescence: strict conditions for 2PL, the semantic
        // (gap-tolerant) conditions for the ACC.
        let violations = tpcc::consistency::check(&shared.snapshot_db(), !use_acc);
        if violations.is_empty() {
            println!("           consistency: OK");
        } else {
            println!("           consistency VIOLATIONS: {violations:#?}");
            std::process::exit(1);
        }
    }
    if means[1] > 0.0 {
        println!(
            "\nnon-ACC / ACC mean response ratio: {:.2}",
            means[0] / means[1]
        );
    }
}
