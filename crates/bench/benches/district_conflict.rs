//! The §5.1 district-row conflict as a micro-benchmark.
//!
//! New-order and payment together are ~86 % of the TPC-C mix and share the
//! district row (order counter vs. year-to-date total). This bench runs a
//! short, high-contention simulation of exactly that pair under 2PL and
//! under the ACC and reports simulated mean response time as the benchmark
//! measurement context (wall time here measures the simulator itself, which
//! is also worth tracking).

use acc_bench::microbench::Criterion;
use acc_bench::{criterion_group, criterion_main};
use acc_common::clock::SimTime;
use acc_sim::{CcMode, CostModel, SimConfig, Simulator};
use acc_tpcc::decompose::TpccSystem;
use acc_tpcc::input::TpccConfig;
use acc_tpcc::schema::Scale;
use acc_tpcc::trace::TraceCosts;
use acc_tpcc::TpccTraceSource;
use std::hint::black_box;

fn run(mode: CcMode) -> f64 {
    let sys = TpccSystem::build();
    let mut source = TpccTraceSource::new(
        TpccConfig::skewed(Scale::benchmark()),
        7,
        &sys,
        TraceCosts::default(),
    );
    let config = SimConfig {
        mode,
        servers: 3,
        terminals: 40,
        think_time: SimTime::from_millis(2_000),
        duration: SimTime::from_micros(30_000_000),
        warmup: SimTime::from_micros(5_000_000),
        seed: 7,
        costs: CostModel::default(),
        release_at_step_end: true,
        two_level_templates: Vec::new(),
    };
    Simulator::new(config, &*sys.tables, &mut source)
        .run()
        .mean_response_ms
}

fn bench_district_conflict(c: &mut Criterion) {
    let mut group = c.benchmark_group("district_conflict");
    group.sample_size(10);
    group.bench_function("two_phase_sim_30s", |b| {
        b.iter(|| black_box(run(CcMode::TwoPhase)));
    });
    group.bench_function("acc_sim_30s", |b| {
        b.iter(|| black_box(run(CcMode::Acc)));
    });
    group.finish();

    // Report the headline numbers once for the bench log.
    let two = run(CcMode::TwoPhase);
    let acc = run(CcMode::Acc);
    println!(
        "district-conflict (skewed, 40 terminals): 2PL {two:.1} ms, ACC {acc:.1} ms, ratio {:.2}",
        two / acc
    );
}

criterion_group!(benches, bench_district_conflict);
criterion_main!(benches);
