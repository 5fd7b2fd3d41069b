//! Regenerate the paper's figures and tables.
//!
//! ```text
//! cargo run -p acc-bench --release --bin figures -- all
//! cargo run -p acc-bench --release --bin figures -- fig2 [--quick]
//! ```
//!
//! Subcommands: `fig2`, `fig3`, `fig4`, `servers`, `olcount`, `ablation`,
//! `twolevel`, `lockstat`, `tables`, `torture` (every workload kit
//! through every crash-point source — WAL append, fsync, re-analysis, ship —
//! plus the network front-end sweep), `wal`, `mtbench`, `pagebench`,
//! `retry`, `stress`, `saturate`, `all`. `--quick` runs a shorter sweep for
//! smoke-testing. The
//! deterministic simulator subcommands (everything in `all`) are
//! byte-identical across runs; `wal`/`mtbench`/`pagebench`/`retry`/`stress`/
//! `saturate` are wall-clock and intentionally kept out of `all`.

use acc_bench::figures::{
    ablation_table, dump_tables, fig2, fig3, fig4, lockstat, olcount_table, servers_table,
    twolevel_table, FigureParams,
};
use acc_bench::{mtbench, netbench, pagebench, torture, walbench};

/// Every subcommand, one line each, for `--help`. `scripts/check.sh` greps
/// this output against the subcommands the README mentions, so the list must
/// stay complete.
const HELP: &str = "\
regenerate the paper's figures and tables

usage: figures -- <subcommand> [--quick] [--schedule]

subcommands:
  fig2       paper figure 2: throughput vs multiprogramming level
  fig3       paper figure 3: response time vs multiprogramming level
  fig4       paper figure 4: throughput vs think time
  servers    server-count sweep table
  olcount    order-line count sweep table
  ablation   assertion-template ablation table
  twolevel   two-level (global argument) analysis table
  lockstat   lock/step observability counter dump
  tables     dump the design-time interference tables (TPC-C,
             smallbank, saga) as deterministic JSON plus every
             decision's proof, declaration or blocking obligation
  torture    crash torture: every workload kit (tpcc, smallbank,
             saga) through every cut-point source (WAL append,
             fsync boundary, re-analysis install, ship boundary),
             one totals line each, then the network front-end
             tortured with connection faults and a crash sweep;
             exits 1 on any violation
  wal        group-commit latency/throughput sweep (wall-clock)
  mtbench    multi-thread lock-manager benchmark (wall-clock)
  pagebench  paged B-tree storage benchmark: page ops, splits,
             latch waits, read restarts (wall-clock)
  retry      deadlock-retry sweep (wall-clock)
  stress     multi-thread consistency stress (wall-clock)
  saturate   open-loop latency sweep past saturation through the
             network front-end (wall-clock; --schedule prints only
             the seeded arrival schedule, byte-identical per seed)
  all        every deterministic simulator figure above

flags:
  --quick       shorter smoke-scale sweeps
  --help, -h    this text
";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{HELP}");
        return;
    }
    // Reject retired flags (e.g. the old `torture --fsync`) instead of
    // silently running something else.
    if let Some(bad) = args
        .iter()
        .find(|a| a.starts_with("--") && *a != "--quick" && *a != "--schedule")
    {
        eprintln!("unknown flag `{bad}`; see --help");
        std::process::exit(2);
    }
    let quick = args.iter().any(|a| a == "--quick");
    let schedule = args.iter().any(|a| a == "--schedule");
    let which = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .map(String::as_str)
        .unwrap_or("all");

    let params = if quick {
        FigureParams::quick()
    } else {
        FigureParams::baseline()
    };

    println!(
        "assertional-acc figure harness — {} sweep, {} servers, seed {}",
        if quick { "quick" } else { "full" },
        params.servers,
        params.seed
    );

    match which {
        "fig2" => {
            fig2(&params);
        }
        "fig3" => {
            fig3(&params);
        }
        "fig4" => {
            fig4(&params);
        }
        "servers" => {
            servers_table(&params);
        }
        "olcount" => {
            olcount_table(&params);
        }
        "ablation" => {
            ablation_table(&params);
        }
        "tables" => {
            dump_tables();
        }
        "twolevel" => {
            twolevel_table(&params);
        }
        "lockstat" => {
            lockstat(&params);
        }
        "torture" => {
            torture::figure(quick);
            netbench::net_torture(quick);
        }
        "wal" => {
            walbench::walbench(quick);
        }
        "mtbench" => {
            mtbench::mtbench(quick);
        }
        "pagebench" => {
            pagebench::pagebench(quick);
        }
        "retry" => {
            mtbench::retry_sweep(quick);
        }
        "stress" => {
            mtbench::stress(quick);
        }
        "saturate" => {
            if schedule {
                netbench::saturate_schedule_dump(quick);
            } else {
                netbench::saturate(quick);
            }
        }
        "all" => {
            fig2(&params);
            fig3(&params);
            fig4(&params);
            servers_table(&params);
            olcount_table(&params);
            ablation_table(&params);
            twolevel_table(&params);
        }
        other => {
            eprintln!("unknown experiment `{other}`; use fig2|fig3|fig4|servers|olcount|ablation|twolevel|lockstat|tables|torture|wal|mtbench|pagebench|retry|stress|saturate|all");
            std::process::exit(2);
        }
    }
}
