//! TPC-C on real threads: the same transaction mix under strict 2PL and
//! under the ACC, submitted by closed-loop terminals to the network
//! front-end's worker pool, with wall-clock response times and an audit of
//! the quiesced engine.
//!
//! ```text
//! cargo run --release --example tpcc_demo [terminals] [seconds]
//! ```
//!
//! This is the live-engine counterpart of the deterministic figure harness
//! (`cargo run -p acc-bench --release --bin figures`). Expect the same
//! qualitative picture, with wall-clock noise.

use acc_engine::{RetryPolicy, Workload};
use acc_server::{run_closed_loop, ClosedLoopConfig, Frontend, Mix, ServerConfig, WorkloadHost};
use assertional_acc::prelude::*;
use assertional_acc::tpcc;
use std::sync::Arc;
use std::time::Duration;

/// TPC-C at benchmark scale under the ACC or strict 2PL, one worker
/// per terminal.
fn frontend(use_acc: bool, terminals: usize) -> Frontend {
    let kit = tpcc::TpccKit::new(tpcc::Scale::benchmark(), 42, 7);
    let cc: Arc<dyn ConcurrencyControl> = if use_acc {
        kit.acc()
    } else {
        Arc::new(TwoPhase)
    };
    let shared = SharedDb::new(kit.base(), kit.tables() as _);
    let host = WorkloadHost::new(Mix::Tpcc, Box::new(kit), cc);
    let config = ServerConfig {
        workers: terminals,
        engine_retry: RetryPolicy::standard(),
        ..ServerConfig::default()
    };
    Frontend::start(shared, Box::new(host), &config)
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
        "system", "commits", "rollbacks", "retries", "mean (ms)", "p95 (ms)", "tps"
    );

    let mut means = Vec::new();
    for (name, use_acc) in [("strict-2pl", false), ("acc", true)] {
        let frontend = frontend(use_acc, terminals);
        let report = run_closed_loop(
            &frontend,
            &ClosedLoopConfig {
                terminals,
                duration: Duration::from_secs(seconds),
                think_time: Duration::from_millis(10),
                seed: 99,
            },
        );
        frontend.shutdown();
        println!(
            "{:<10} {:>9} {:>9} {:>9} {:>10.2} {:>10.2} {:>9.0}",
            name,
            report.committed,
            report.rolled_back,
            report.engine_retries,
            report.latency.mean_ms,
            report.latency.p95_ms,
            report.committed_tps
        );
        means.push(report.latency.mean_ms);

        // Audit at quiescence: no error answers and nothing left locked or
        // active, then strict conditions for 2PL and the semantic
        // (gap-tolerant) conditions for the ACC.
        let shared = frontend.shared();
        if report.errors > 0 || shared.total_grants() > 0 || shared.active_txns() > 0 {
            println!(
                "           front-end audit FAILED: {} error answers, {} grants, {} active",
                report.errors,
                shared.total_grants(),
                shared.active_txns()
            );
            std::process::exit(1);
        }
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
