//! `acc-server`: serve the assertional concurrency control engine over TCP.
//!
//! ```text
//! acc-server [--addr 127.0.0.1:7878] [--mix smallbank|tpcc|saga] [--workers N]
//!            [--queue N] [--accounts N] [--seed N] [--lockstat]
//! ```

use acc_server::{serve, Frontend, Mix, ServerConfig};
use acc_tpcc::Scale;
use std::net::TcpListener;
use std::sync::Arc;

/// SKUs in the saga population (`--accounts` sizes its customers).
const SAGA_SKUS: i64 = 64;

fn flag_value(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!(
            "acc-server: TCP front-end for the ACC engine\n\n\
             options:\n\
             \x20 --addr HOST:PORT   listen address (default 127.0.0.1:7878)\n\
             \x20 --mix FAMILY       smallbank (default), tpcc or saga\n\
             \x20 --workers N        worker threads (default 4)\n\
             \x20 --queue N          admission queue bound (default 64)\n\
             \x20 --accounts N       smallbank accounts or saga customers (default 200)\n\
             \x20 --seed N           population/input seed (default 42)\n\
             \x20 --lockstat         enable the event sink and dump counters on exit"
        );
        return;
    }
    let addr = flag_value(&args, "--addr").unwrap_or_else(|| "127.0.0.1:7878".into());
    let mix = match flag_value(&args, "--mix").as_deref() {
        None | Some("smallbank") => Mix::Smallbank,
        Some("tpcc") => Mix::Tpcc,
        Some("saga") => Mix::Saga,
        Some(other) => {
            eprintln!("unknown --mix {other} (expected smallbank, tpcc or saga)");
            std::process::exit(2);
        }
    };
    let config = ServerConfig {
        workers: flag_value(&args, "--workers")
            .and_then(|v| v.parse().ok())
            .unwrap_or(4),
        queue_cap: flag_value(&args, "--queue")
            .and_then(|v| v.parse().ok())
            .unwrap_or(64),
        ..ServerConfig::default()
    };
    let accounts: i64 = flag_value(&args, "--accounts")
        .and_then(|v| v.parse().ok())
        .unwrap_or(200);
    let seed: u64 = flag_value(&args, "--seed")
        .and_then(|v| v.parse().ok())
        .unwrap_or(42);

    let frontend = Arc::new(match mix {
        Mix::Smallbank => Frontend::smallbank(accounts, &config),
        Mix::Tpcc => Frontend::tpcc(Scale::benchmark(), seed, &config),
        Mix::Saga => Frontend::saga(SAGA_SKUS, accounts, &config),
    });
    if args.iter().any(|a| a == "--lockstat") {
        let sink = acc_common::events::EventSink::enabled(256);
        frontend.shared().set_event_sink(sink);
    }

    let listener = match TcpListener::bind(&addr) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("bind {addr}: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "acc-server: {} on {addr} ({} workers, queue {})",
        mix.name(),
        config.workers,
        config.queue_cap
    );
    let accept = serve(Arc::clone(&frontend), listener);
    let _ = accept.join();
}
