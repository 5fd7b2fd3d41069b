//! One round of the front-end benchmark (see `README.md` beside this
//! package). `run.py` builds this binary, runs rounds, and aggregates them.
//!
//! ```text
//! perfbench --workload <tpcc|smallbank|smallbank-reads> --seed <n> --mode <plain|traced>
//!           [--spans <file>]
//! ```
//!
//! Prints a human-readable report, then one JSON line with the round's
//! metrics and gate verdict. Exits 1 if the correctness gate fails, 2 on a
//! usage error or a round that could not complete.

mod generator;
mod hostctx;
mod round;
mod trace;
mod workload;

#[cfg(test)]
mod tests;

use round::{Plan, Round};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use workload::{Spec, Workload};

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <tpcc|smallbank|smallbank-reads> --seed <n> \
         --mode <plain|traced> [--spans <file>]"
    );
    std::process::exit(2);
}

fn json_map(m: &BTreeMap<&str, f64>) -> String {
    let mut out = String::from("{");
    for (i, (k, v)) in m.iter().enumerate() {
        let v = if v.is_finite() {
            format!("{v}")
        } else {
            "null".into()
        };
        let _ = write!(out, "{}\"{k}\": {v}", if i == 0 { "" } else { ", " });
    }
    out.push('}');
    out
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn print_round(spec: &Spec, mode: &str, round: &Round) {
    let w = spec.workload.name();
    print!("{}", round.report);
    for (k, v) in round.e2e.iter().chain(&round.layers) {
        println!("[{w} {mode}] {k} = {v:.6}");
    }
    let c = &round.context;
    println!(
        "[{w} {mode}] p99_ms = {:.4} over {} committed requests (reading only); \
         steal {:.3} of CPU time; parallelism {}; measured {:.2} s; wal {:.1} MiB",
        c["p99_ms"],
        c["latency_samples"],
        c["steal_frac"],
        c["parallelism"],
        c["measured_s"],
        c.get("wal_mib").copied().unwrap_or(0.0),
    );
    for v in &round.violations {
        println!("[{w} {mode}] GATE FAILED: {v}");
    }
    println!(
        "{{\"workload\": {}, \"mode\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \
         \"e2e\": {}, \"layers\": {}, \"context\": {}, \"violations\": [{}]}}",
        json_str(w),
        json_str(mode),
        round.violations.is_empty(),
        round.attempted,
        round.failed,
        json_map(&round.e2e),
        json_map(&round.layers),
        json_map(&round.context),
        round
            .violations
            .iter()
            .map(|v| json_str(v))
            .collect::<Vec<_>>()
            .join(", "),
    );
}

fn main() {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut mode, mut spans) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value)
                        .unwrap_or_else(|| usage(&format!("unknown workload {value}"))),
                )
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .unwrap_or_else(|_| usage(&format!("--seed: not a number: {value}"))),
                )
            }
            "--mode" => mode = Some(value),
            "--spans" => spans = Some(value),
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    let seed = seed.unwrap_or_else(|| usage("--seed is required"));
    let mode = mode.unwrap_or_else(|| usage("--mode is required"));
    let traced = match mode.as_str() {
        "plain" => false,
        "traced" => true,
        _ => usage(&format!("unknown mode {mode}")),
    };
    let spec = Spec::standard(workload, seed);
    let plan = Plan::standard(&spec);

    let round = match round::run(&spec, &plan, traced) {
        Ok(round) => round,
        Err(e) => {
            eprintln!("perfbench: {} round did not complete: {e}", workload.name());
            std::process::exit(2);
        }
    };
    if let Some(path) = spans.filter(|_| traced) {
        if let Err(e) = std::fs::write(&path, &round.spans) {
            eprintln!("perfbench: cannot write spans to {path}: {e}");
            std::process::exit(2);
        }
    }
    print_round(&spec, &mode, &round);
    if !round.violations.is_empty() {
        std::process::exit(1);
    }
}
