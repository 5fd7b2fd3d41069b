//! Sweep machinery for the paper's experiments.
//!
//! All experiments share one setup (§5.3): 1 warehouse, 10 districts, three
//! database servers (except the server-scaling table), terminals swept along
//! the x-axis, and the ordinate `ratio = mean_response(non-ACC) /
//! mean_response(ACC)` — a value above 1.0 means the ACC is faster.

use acc_common::clock::SimTime;
use acc_sim::{CcMode, CostModel, SimConfig, SimReport, Simulator};
use acc_tpcc::decompose::TpccSystem;
use acc_tpcc::input::TpccConfig;
use acc_tpcc::schema::Scale;
use acc_tpcc::trace::TraceCosts;
use acc_tpcc::TpccTraceSource;

/// Everything one experiment needs.
#[derive(Debug, Clone)]
pub struct FigureParams {
    /// Database server processes (paper: 3, except the scaling table).
    pub servers: usize,
    /// Terminal counts to sweep.
    pub terminals: Vec<usize>,
    /// TPC-C configuration (standard or skewed districts).
    pub tpcc: TpccConfig,
    /// Per-statement CPU and injected compute time.
    pub costs: TraceCosts,
    /// Simulated seconds measured (after warm-up).
    pub measure_s: u64,
    /// Warm-up seconds discarded.
    pub warmup_s: u64,
    /// Base seed.
    pub seed: u64,
}

impl FigureParams {
    /// The shared defaults: 3 servers, the paper's terminal sweep, standard
    /// TPC-C at benchmark scale, no injected compute time.
    pub fn baseline() -> FigureParams {
        FigureParams {
            servers: 3,
            terminals: vec![1, 10, 20, 30, 40, 50, 60],
            tpcc: TpccConfig::standard(Scale::benchmark()),
            costs: TraceCosts::default(),
            measure_s: 600,
            warmup_s: 100,
            seed: 42,
        }
    }

    /// A faster sweep for smoke tests.
    pub fn quick() -> FigureParams {
        FigureParams {
            terminals: vec![1, 20, 40, 60],
            measure_s: 200,
            warmup_s: 40,
            ..Self::baseline()
        }
    }
}

/// One x-axis point: both systems measured under identical load.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Number of terminals.
    pub terminals: usize,
    /// The unmodified (strict 2PL) system.
    pub two_phase: SimReport,
    /// The ACC.
    pub acc: SimReport,
}

impl SweepPoint {
    /// The paper's ordinate: non-ACC mean response / ACC mean response.
    pub fn response_ratio(&self) -> f64 {
        self.two_phase.mean_response_ms / self.acc.mean_response_ms
    }

    /// Fig. 4's second series: non-ACC completions / ACC completions
    /// (drops below 1.0 when the ACC completes more work).
    pub fn throughput_ratio(&self) -> f64 {
        self.two_phase.throughput_tps / self.acc.throughput_tps
    }
}

fn run_one(params: &FigureParams, mode: CcMode, terminals: usize) -> SimReport {
    run_custom(params, mode, terminals, CostModel::default(), true)
}

fn run_custom(
    params: &FigureParams,
    mode: CcMode,
    terminals: usize,
    costs: CostModel,
    release_at_step_end: bool,
) -> SimReport {
    let sys = TpccSystem::build();
    let mut source = TpccTraceSource::new(
        params.tpcc.clone(),
        params.seed ^ (terminals as u64) << 8,
        sys.templates,
        params.costs.clone(),
    );
    let two_level_templates = if mode == CcMode::AccTwoLevel {
        vec![
            sys.templates.no_loop,
            sys.templates.pay_mid,
            sys.templates.dlv_loop,
        ]
    } else {
        Vec::new()
    };
    let config = SimConfig {
        mode,
        servers: params.servers,
        terminals,
        // TPC-C terminals key and think for tens of seconds between
        // transactions; 6 s mean reproduces the paper's load regime (a
        // handful of concurrently active transactions at 60 terminals).
        think_time: SimTime::from_millis(6_000),
        duration: SimTime::from_micros((params.warmup_s + params.measure_s) * 1_000_000),
        warmup: SimTime::from_micros(params.warmup_s * 1_000_000),
        seed: params.seed ^ (terminals as u64),
        costs,
        release_at_step_end,
        two_level_templates,
    };
    // The two-level design must also use the two-level analysis: item-
    // identity arguments are unavailable to it, so several declared-safe
    // pairs stay conservatively interfering.
    let oracle = if mode == CcMode::AccTwoLevel {
        &*sys.two_level_tables
    } else {
        &*sys.tables
    };
    Simulator::new(config, oracle, &mut source).run()
}

/// **§3.2 comparison** — the one-level ACC against the earlier two-level
/// design, whose assertional locks lack item identity and hit false
/// conflicts ("if it cannot be determined at design time that the two
/// transactions will access different accounts").
pub fn twolevel_table(params: &FigureParams) -> Vec<(usize, SimReport, SimReport)> {
    let rows: Vec<(usize, SimReport, SimReport)> = params
        .terminals
        .iter()
        .map(|&terminals| {
            (
                terminals,
                run_custom(params, CcMode::Acc, terminals, CostModel::default(), true),
                run_custom(
                    params,
                    CcMode::AccTwoLevel,
                    terminals,
                    CostModel::default(),
                    true,
                ),
            )
        })
        .collect();
    println!("\n=== §3.2: one-level vs two-level ACC ===");
    println!(
        "{:>9} | {:>15} {:>15} | {:>16}",
        "terminals", "1-level rt (ms)", "2-level rt (ms)", "2-level/1-level"
    );
    println!("{}", "-".repeat(64));
    for (terminals, one, two) in &rows {
        println!(
            "{:>9} | {:>15.1} {:>15.1} | {:>16.3}",
            terminals,
            one.mean_response_ms,
            two.mean_response_ms,
            two.mean_response_ms / one.mean_response_ms
        );
    }
    rows
}

/// Sweep terminals, running both systems at every point.
pub fn sweep(params: &FigureParams) -> Vec<SweepPoint> {
    params
        .terminals
        .iter()
        .map(|&terminals| SweepPoint {
            terminals,
            two_phase: run_one(params, CcMode::TwoPhase, terminals),
            acc: run_one(params, CcMode::Acc, terminals),
        })
        .collect()
}

/// One machine-readable JSON line for a single (mode, load) measurement,
/// carrying the response-time headline plus the sink's lock/contention
/// counters. Hand-built (the workspace is dependency-free); keys are stable.
fn report_json(
    experiment: &str,
    series: &str,
    terminals: usize,
    mode: &str,
    r: &SimReport,
) -> String {
    let c = &r.counters;
    format!(
        concat!(
            "{{\"experiment\":\"{}\",\"series\":\"{}\",\"terminals\":{},",
            "\"mode\":\"{}\",\"mean_response_ms\":{:.3},\"p95_response_ms\":{:.3},",
            "\"throughput_tps\":{:.3},\"deadlocks\":{},\"lock_requests\":{},",
            "\"lock_waits\":{},\"mean_lock_wait_ms\":{:.3},\"assertion_pins\":{},",
            "\"interference_hits\":{},\"conservative_denials\":{},",
            "\"deadlock_cycles\":{},\"deadlock_victims\":{},\"compensations\":{},",
            "\"version_reads\":{},\"version_fallbacks\":{}}}"
        ),
        experiment,
        series,
        terminals,
        mode,
        r.mean_response_ms,
        r.p95_response_ms,
        r.throughput_tps,
        r.deadlocks,
        c.lock_requests,
        c.lock_waits,
        c.mean_wait_ms(),
        c.assertion_pins,
        c.interference_hits,
        c.conservative_denials,
        c.deadlocks,
        c.deadlock_victims,
        c.compensations,
        c.version_reads,
        c.version_fallbacks,
    )
}

/// Emit the sweep as JSON lines (one per mode per point) for downstream
/// scripting; printed after each human-readable table.
fn print_json(experiment: &str, series: &str, points: &[SweepPoint]) {
    for p in points {
        println!(
            "{}",
            report_json(experiment, series, p.terminals, "2pl", &p.two_phase)
        );
        println!(
            "{}",
            report_json(experiment, series, p.terminals, "acc", &p.acc)
        );
    }
}

fn print_header(title: &str) {
    println!("\n=== {title} ===");
    println!(
        "{:>9} | {:>12} {:>12} | {:>9} | {:>9} | {:>7} {:>7} | {:>5} {:>5}",
        "terminals",
        "2PL rt (ms)",
        "ACC rt (ms)",
        "rt ratio",
        "tp ratio",
        "2PL tps",
        "ACC tps",
        "2PLdl",
        "ACCdl"
    );
    println!("{}", "-".repeat(100));
}

fn print_points(points: &[SweepPoint]) {
    for p in points {
        println!(
            "{:>9} | {:>12.1} {:>12.1} | {:>9.3} | {:>9.3} | {:>7.1} {:>7.1} | {:>5} {:>5}",
            p.terminals,
            p.two_phase.mean_response_ms,
            p.acc.mean_response_ms,
            p.response_ratio(),
            p.throughput_ratio(),
            p.two_phase.throughput_tps,
            p.acc.throughput_tps,
            p.two_phase.deadlocks,
            p.acc.deadlocks,
        );
    }
}

/// **Figure 2** — the effect of hotspots: the ratio curve with the standard
/// (uniform) district distribution and with a skewed one.
pub fn fig2(params: &FigureParams) -> (Vec<SweepPoint>, Vec<SweepPoint>) {
    let standard = sweep(params);
    let mut skewed_params = params.clone();
    skewed_params.tpcc = TpccConfig::skewed(params.tpcc.scale);
    let skewed = sweep(&skewed_params);

    print_header("Figure 2: The Effect of Hotspots — Standard district distribution");
    print_points(&standard);
    print_header("Figure 2: The Effect of Hotspots — Skewed district distribution");
    print_points(&skewed);
    print_json("fig2", "standard", &standard);
    print_json("fig2", "skewed", &skewed);
    (standard, skewed)
}

/// **Figure 3** — the effect of transaction duration: with and without
/// several milliseconds of compute time between successive SQL statements.
pub fn fig3(params: &FigureParams) -> (Vec<SweepPoint>, Vec<SweepPoint>) {
    let without = sweep(params);
    let mut with_params = params.clone();
    with_params.costs = TraceCosts {
        compute_time: SimTime::from_millis(3),
        ..params.costs.clone()
    };
    let with = sweep(&with_params);

    print_header("Figure 3: The Effect of Transaction Duration — w/o compute time");
    print_points(&without);
    print_header("Figure 3: The Effect of Transaction Duration — with compute time");
    print_points(&with);
    print_json("fig3", "no_compute", &without);
    print_json("fig3", "with_compute", &with);
    (without, with)
}

/// **Figure 4** — response time *and* throughput ratios on the standard
/// configuration.
pub fn fig4(params: &FigureParams) -> Vec<SweepPoint> {
    let points = sweep(params);
    print_header("Figure 4: Response Time and Throughput");
    print_points(&points);
    print_json("fig4", "standard", &points);
    points
}

/// **§5.3, fourth experiment** (described, not plotted): server scaling.
/// With one server the server is the bottleneck and the ACC's overhead makes
/// it slightly slower; with several, lock contention dominates and the ACC
/// wins.
pub fn servers_table(params: &FigureParams) -> Vec<(usize, SweepPoint)> {
    let terminals = *params.terminals.last().expect("non-empty sweep");
    let mut rows = Vec::new();
    for servers in 1..=3 {
        let mut p = params.clone();
        p.servers = servers;
        let point = SweepPoint {
            terminals,
            two_phase: run_one(&p, CcMode::TwoPhase, terminals),
            acc: run_one(&p, CcMode::Acc, terminals),
        };
        rows.push((servers, point));
    }
    println!("\n=== Experiment 4: Database server scaling ({terminals} terminals) ===");
    println!(
        "{:>7} | {:>12} {:>12} | {:>9} | {:>11} {:>11}",
        "servers", "2PL rt (ms)", "ACC rt (ms)", "rt ratio", "2PL util", "ACC util"
    );
    println!("{}", "-".repeat(74));
    for (servers, p) in &rows {
        println!(
            "{:>7} | {:>12.1} {:>12.1} | {:>9.3} | {:>11.2} {:>11.2}",
            servers,
            p.two_phase.mean_response_ms,
            p.acc.mean_response_ms,
            p.response_ratio(),
            p.two_phase.server_utilisation,
            p.acc.server_utilisation,
        );
    }
    rows
}

/// **§5.2, lock-duration knob #2** — "increasing the number of items in an
/// order" lengthens new-order and delivery. Compares the standard 5–15
/// order-line range against a 10–20 range.
pub fn olcount_table(params: &FigureParams) -> (Vec<SweepPoint>, Vec<SweepPoint>) {
    let standard = sweep(params);
    let mut long = params.clone();
    long.tpcc.min_ol = 10;
    long.tpcc.max_ol = 20;
    let longer = sweep(&long);
    print_header("§5.2 knob: order-line count 5–15 (standard)");
    print_points(&standard);
    print_header("§5.2 knob: order-line count 10–20 (longer transactions)");
    print_points(&longer);
    print_json("olcount", "ol_5_15", &standard);
    print_json("olcount", "ol_10_20", &longer);
    (standard, longer)
}

/// Ablations of the ACC's two ingredients at the most contended point of
/// the sweep: the step-boundary lock release (the mechanism) and the
/// per-step CPU overhead (the cost).
pub fn ablation_table(params: &FigureParams) -> Vec<(String, SimReport)> {
    let terminals = *params.terminals.last().expect("non-empty sweep");
    let free = CostModel {
        assert_op: SimTime::ZERO,
        step_end: SimTime::ZERO,
        ..CostModel::default()
    };
    let double = CostModel {
        assert_op: SimTime::from_micros(320),
        step_end: SimTime::from_micros(2_400),
        ..CostModel::default()
    };
    let rows = vec![
        (
            "strict 2PL (baseline)".to_owned(),
            run_custom(
                params,
                CcMode::TwoPhase,
                terminals,
                CostModel::default(),
                true,
            ),
        ),
        (
            "ACC (full)".to_owned(),
            run_custom(params, CcMode::Acc, terminals, CostModel::default(), true),
        ),
        (
            "ACC w/o step release".to_owned(),
            run_custom(params, CcMode::Acc, terminals, CostModel::default(), false),
        ),
        (
            "ACC w/ zero overhead".to_owned(),
            run_custom(params, CcMode::Acc, terminals, free, true),
        ),
        (
            "ACC w/ 2x overhead".to_owned(),
            run_custom(params, CcMode::Acc, terminals, double, true),
        ),
    ];
    println!(
        "\n=== Ablations ({terminals} terminals, {} servers) ===",
        params.servers
    );
    println!(
        "{:<24} {:>12} {:>9} {:>7}",
        "variant", "mean rt (ms)", "tps", "dl"
    );
    println!("{}", "-".repeat(56));
    for (name, r) in &rows {
        println!(
            "{:<24} {:>12.1} {:>9.1} {:>7}",
            name, r.mean_response_ms, r.throughput_tps, r.deadlocks
        );
    }
    rows
}

/// Run one short, highly contended simulation (skewed districts, maximum
/// terminals of the sweep, ACC) and print the event sink's `lockstat` dump:
/// counter summary, top contended resources, wait-time histogram, and
/// deadlock cycle traces, followed by the same counters as a JSON line.
pub fn lockstat(params: &FigureParams) -> SimReport {
    let terminals = *params.terminals.last().expect("non-empty sweep");
    let sys = TpccSystem::build();
    let mut source = TpccTraceSource::new(
        TpccConfig::skewed(params.tpcc.scale),
        params.seed,
        sys.templates,
        params.costs.clone(),
    );
    let config = SimConfig {
        mode: CcMode::Acc,
        servers: params.servers,
        terminals,
        // Short think time = high contention: the point here is to exercise
        // the lock table, not to reproduce the paper's load regime.
        think_time: SimTime::from_millis(2_000),
        duration: SimTime::from_micros(60_000_000),
        warmup: SimTime::from_micros(10_000_000),
        seed: params.seed,
        costs: CostModel::default(),
        release_at_step_end: true,
        two_level_templates: Vec::new(),
    };
    let sim = Simulator::new(config, &*sys.tables, &mut source);
    let sink = sim.event_sink();
    let report = sim.run();
    println!(
        "\n=== lockstat: skewed TPC-C, {terminals} terminals, {} servers, ACC ===",
        params.servers
    );
    print!("{}", sink.lockstat_dump());
    pagestat(params.seed);
    println!(
        "{}",
        report_json("lockstat", "skewed", terminals, "acc", &report)
    );
    report
}

/// The physical-storage counterpart of the lockstat dump: populate the TPC-C
/// database at test scale and print the pager counters the load produced.
/// The trace-driven simulator above never touches real storage, so its page
/// counters would read zero; this section is the deterministic (single-
/// threaded, seeded) view of page-latch traffic — the per-page counters that
/// replaced the old whole-table stripe counters.
fn pagestat(seed: u64) {
    use acc_tpcc::schema::tpcc_catalog;
    let mut db = acc_storage::Database::new(&tpcc_catalog());
    acc_tpcc::populate(&mut db, &Scale::test(), seed);
    let c = db
        .tables()
        .map(acc_storage::Table::pager_counters)
        .fold(acc_storage::PagerCounters::default(), |a, b| a + b);
    println!("== pagestat: paged storage after test-scale populate ==");
    println!(
        "pages {}  page reads {}  page writes {}  splits {}  merges {}  \
         latch waits {}  read restarts {}",
        c.pages, c.page_reads, c.page_writes, c.splits, c.merges, c.latch_waits, c.read_restarts
    );
    println!(
        "{{\"bench\":\"pagestat\",\"pages\":{},\"page_reads\":{},\
         \"page_writes\":{},\"splits\":{},\"merges\":{},\
         \"latch_waits\":{},\"read_restarts\":{}}}",
        c.pages, c.page_reads, c.page_writes, c.splits, c.merges, c.latch_waits, c.read_restarts
    );
}

/// Dump every machine-*inferred* interference matrix as deterministic JSON
/// (stable key order, steps id-sorted, no floating point — `scripts/check.sh`
/// runs this twice and byte-compares), plus the TPC-C diff against the hand
/// tables. TPC-C is the differential anchor; smallbank and the fulfilment
/// saga have no hand tables at all — what prints here is what their torture
/// and stress gates actually run under.
pub fn dump_inferred() {
    use acc_core::infer::{diff, matrix_json, DiffKind};
    use acc_workloads::{saga, smallbank};

    let hand = TpccSystem::build();
    let inferred = TpccSystem::infer();
    let steps: Vec<_> = TpccSystem::step_names().iter().map(|(s, _)| *s).collect();
    let d = diff(
        &inferred.tables,
        hand.tables.as_ref(),
        &steps,
        hand.registry.len(),
    );

    println!("== tpcc (inferred) ==");
    print!(
        "{}",
        matrix_json(
            &inferred.tables,
            &inferred.registry,
            &TpccSystem::step_names()
        )
    );
    println!("== tpcc inferred vs hand ==");
    println!("more_permissive: {}", d.more_permissive.len());
    for (s, t, k) in &d.more_permissive {
        println!(
            "  UNSOUND step {} x template {} ({})",
            s.raw(),
            t.raw(),
            if *k == DiffKind::Write {
                "write"
            } else {
                "read"
            }
        );
    }
    println!("less_permissive: {}", d.less_permissive.len());
    for (s, t, k) in &d.less_permissive {
        println!(
            "  conservative: step {} x template {} ({})",
            s.raw(),
            t.raw(),
            if *k == DiffKind::Write {
                "write"
            } else {
                "read"
            }
        );
    }

    let sb = smallbank::SmallbankKit::build(10);
    println!("== smallbank (inferred) ==");
    print!(
        "{}",
        matrix_json(&sb.tables, &sb.registry, &smallbank::step_names())
    );

    let sg = saga::SagaKit::build(6, 4);
    println!("== saga (inferred) ==");
    print!(
        "{}",
        matrix_json(&sg.tables, &sg.registry, &saga::step_names())
    );
}

/// Dump the TPC-C design-time analysis: the step×template interference
/// matrix and every recorded decision with its justification — the paper's
/// "interference tables … constructed at design time" (§5.1), as an
/// inspectable artifact.
pub fn dump_tables() {
    let sys = TpccSystem::build();
    println!("TPC-C interference matrix (rows: step types; cols: template ids; X = interferes):\n");
    print!("{}", sys.tables.dump());
    println!("\ntemplates:");
    for t in sys.registry.iter() {
        println!(
            "  [{}] {}{}",
            t.id.raw(),
            t.name,
            if t.read_guard { "  (guard)" } else { "" }
        );
    }
    println!("\ndecisions ({}):", sys.decisions.len());
    for d in &sys.decisions {
        println!(
            "  step {:>2} × template {}: {:<10} — {}",
            d.step.raw(),
            d.template.raw(),
            if d.interferes { "INTERFERES" } else { "safe" },
            d.why
        );
    }
}
