//! Network front-end experiments: the network section of `torture` and the
//! `saturate` open-loop latency sweep.
//!
//! **`net_torture`** drives seeded smallbank traffic *through the wire
//! protocol* — framed requests into a real [`acc_server::Frontend`] over the
//! deterministic in-memory transport — and tortures every protocol boundary:
//!
//! 1. a clean baseline (every request answered, engine quiescent and
//!    auditable afterwards, WAL captured);
//! 2. seeded [`ConnPlan`] connection-fault sweeps (churn storms, requests
//!    dropped mid-frame, torn response writes, slow-loris delivery, torn
//!    request frames) with a **no-silent-loss audit**: every request ends in
//!    exactly one bucket, and the commits on the durable log equal exactly
//!    the commit responses the server produced — acknowledged or torn in
//!    transit, never silent;
//! 3. a crash sweep over the baseline's WAL: the image goes through the
//!    shared harness's append sweep ([`torture::run_over`]) — cut at record
//!    boundaries, salvaged, recovered, compensation resumed and audited
//!    exactly like every engine-level sweep, here over a log written
//!    entirely by network-submitted transactions;
//! 4. a determinism check: the baseline re-run produces a byte-identical
//!    WAL and outcome log.
//!
//! **`saturate`** measures what admission control buys past saturation: an
//! open-loop Poisson arrival schedule sweeps multiples of the measured
//! saturation rate; the table reports accepted-request latency percentiles
//! and the typed-shed rate. The graceful-degradation criterion — p99 at 2×
//! overdrive within 5× of p99 at saturation, excess shed typed, zero lock
//! leakage — is checked in-process and reported as PASS/FAIL.

use crate::torture::{self, CutSource, TortureConfig};
use acc_common::events::EventSink;
use acc_common::faults::ConnPlan;
use acc_common::{Error, Result, SeededRng};
use acc_engine::threaded::RetryPolicy;
use acc_server::{
    run_open_loop, ArrivalSchedule, CallOutcome, Frontend, LoadgenConfig, MemConn, Mix, Response,
    ServerConfig,
};
use acc_wal::{recover, Wal};
use acc_workloads::smallbank::SmallbankKit;
use acc_workloads::WorkloadKit;
use std::fmt::Write as _;
use std::time::Duration;

const ACCOUNTS: i64 = 120;
const MASTER_SEED: u64 = 0x6e65_745f_7472_7431;

fn frontend(queue_cap: usize) -> Frontend {
    Frontend::smallbank(
        ACCOUNTS,
        &ServerConfig {
            workers: 1,
            queue_cap,
            engine_retry: RetryPolicy::standard(),
        },
    )
}

/// Outcome tally of one scripted run; the fields are the no-silent-loss
/// vocabulary.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
struct Tally {
    offered: u64,
    committed_acked: u64,
    committed_unacked: u64,
    rolled_back: u64,
    lost_before_admission: u64,
    torn_down: u64,
    reconnects: u64,
}

impl Tally {
    fn line(&self) -> String {
        format!(
            "offered {} = committed {} (+{} unacked) + rolled-back {} + lost {} + torn {}; \
             {} reconnects",
            self.offered,
            self.committed_acked,
            self.committed_unacked,
            self.rolled_back,
            self.lost_before_admission,
            self.torn_down,
            self.reconnects
        )
    }
}

/// Drive `requests` seeded transactions through one scripted connection
/// (reconnecting whenever a fault kills it), tallying every fate.
fn drive(frontend: &Frontend, plan: ConnPlan, requests: u64, seed_base: u64) -> Result<Tally> {
    let mut tally = Tally::default();
    let mut conn = MemConn::open(frontend, plan);
    for i in 0..requests {
        if conn.dead() {
            conn = MemConn::open(frontend, plan);
            tally.reconnects += 1;
        }
        tally.offered += 1;
        match conn.call(frontend, seed_base + i, 0)? {
            CallOutcome::Delivered(Response::Committed { .. }) => tally.committed_acked += 1,
            CallOutcome::Delivered(Response::RolledBack { .. }) => tally.rolled_back += 1,
            CallOutcome::Delivered(other) => {
                return Err(Error::Internal(format!("unexpected response {other:?}")))
            }
            CallOutcome::ResponseTorn(Response::Committed { .. }) => tally.committed_unacked += 1,
            CallOutcome::ResponseTorn(_) => tally.rolled_back += 1,
            CallOutcome::LostBeforeAdmission(_) => tally.lost_before_admission += 1,
            CallOutcome::TornDown(_) => tally.torn_down += 1,
        }
    }
    Ok(tally)
}

/// The audit every scripted run must pass: each request in exactly one
/// bucket, commits on the log exactly the commit responses produced, the
/// recovered and live images consistent, and the engine quiescent.
fn audit_run(kit: &SmallbankKit, frontend: &Frontend, tally: &Tally) -> Result<()> {
    let accounted = tally.committed_acked
        + tally.committed_unacked
        + tally.rolled_back
        + tally.lost_before_admission
        + tally.torn_down;
    if accounted != tally.offered {
        return Err(Error::Internal(format!(
            "silent loss: {} offered, {accounted} accounted",
            tally.offered
        )));
    }
    // Commits on the durable log == commit responses (acked + torn-in-
    // transit). A lost *request* must have no commit; a torn *response*
    // must still be a commit the audit can see.
    let image = frontend.shared().wal_bytes();
    let mut db = kit.base();
    let report = recover(&mut db, &Wal::from_bytes(&image))?;
    if !report.needs_compensation.is_empty() {
        return Err(Error::Internal(format!(
            "{} in-flight transactions on a quiesced server's log",
            report.needs_compensation.len()
        )));
    }
    let commits_on_log = report.committed.len() as u64;
    let commit_responses = tally.committed_acked + tally.committed_unacked;
    if commits_on_log != commit_responses {
        return Err(Error::Internal(format!(
            "commit accounting hole: {commits_on_log} on log, {commit_responses} responded"
        )));
    }
    if let Some(violation) = kit.audit(&db).first() {
        return Err(Error::Internal(format!(
            "recovered image fails audit: {violation}"
        )));
    }
    if let Some(violation) = kit.audit(&frontend.shared().snapshot_db()).first() {
        return Err(Error::Internal(format!(
            "live image fails audit: {violation}"
        )));
    }
    if frontend.shared().total_grants() != 0 {
        return Err(Error::Internal("lock grants leaked".into()));
    }
    if frontend.shared().active_txns() != 0 {
        return Err(Error::Internal("active transactions leaked".into()));
    }
    if frontend.shared().registry().mixed_epoch_lookups() != 0 {
        return Err(Error::Internal("mixed-epoch lookups observed".into()));
    }
    Ok(())
}

/// The network front-end section of `figures -- torture`. Panics
/// (figure-harness convention) if any audit fails.
pub fn net_torture(quick: bool) {
    let (requests, fault_plans, max_points) = if quick { (50, 4, 6) } else { (160, 10, 24) };
    let report = run_net_torture(requests, fault_plans, max_points).expect("net torture");
    print!("{report}");
}

fn run_net_torture(requests: u64, fault_plans: usize, max_points: usize) -> Result<String> {
    let mut log = String::new();
    let kit = SmallbankKit::build(ACCOUNTS);

    // Phase 1: clean baseline through the wire.
    let fe = frontend(8);
    let sink = EventSink::enabled(128);
    fe.shared().set_event_sink(sink);
    let clean = drive(&fe, ConnPlan::default(), requests, MASTER_SEED)?;
    audit_run(&kit, &fe, &clean)?;
    if clean.lost_before_admission + clean.torn_down != 0 || clean.reconnects != 0 {
        return Err(Error::Internal("clean plan lost requests".into()));
    }
    let baseline_image = fe.shared().wal_bytes();
    let _ = writeln!(
        log,
        "[net] baseline: {}; wal {} bytes",
        clean.line(),
        baseline_image.len()
    );
    fe.shutdown();

    // Phase 2: seeded connection-fault sweeps.
    let mut rng = SeededRng::new(MASTER_SEED ^ 0x636f_6e6e);
    for p in 0..fault_plans {
        let plan = ConnPlan::seeded(&mut rng);
        let fe = frontend(8);
        let sink = EventSink::enabled(128);
        fe.shared().set_event_sink(sink.clone());
        let tally = drive(
            &fe,
            plan,
            requests,
            MASTER_SEED + 1_000_000 * (p as u64 + 1),
        )?;
        audit_run(&kit, &fe, &tally)?;
        let churn = sink.counters().conn_churn;
        let _ = writeln!(
            log,
            "[net] plan {p}: {}; churn events {churn}",
            tally.line()
        );
        fe.shutdown();
    }

    // Phase 3: the shared append sweep over the network-written baseline log.
    let sweep = torture::run_over(
        &kit,
        &TortureConfig {
            seed: MASTER_SEED,
            txns: 0,
            source: CutSource::Append {
                max_points,
                torn: 0,
                flips: 0,
                injector: 0,
            },
        },
        &baseline_image,
    )?;
    if sweep.violations != 0 || sweep.mixed_epoch_lookups != 0 {
        return Err(Error::Internal(format!(
            "crash sweep over the network-written log failed its audit:\n{}",
            sweep.log
        )));
    }
    let _ = writeln!(
        log,
        "[net] crash sweep: {} points, {} replayed, {} compensated, {} discarded, 0 violations",
        sweep.points, sweep.replayed, sweep.compensated, sweep.discarded
    );

    // Phase 4: determinism — same seeds, byte-identical WAL, identical tally.
    let fe = frontend(8);
    let rerun = drive(&fe, ConnPlan::default(), requests, MASTER_SEED)?;
    if fe.shared().wal_bytes() != baseline_image {
        return Err(Error::Internal(
            "re-run WAL differs from baseline: the served mix is not deterministic".into(),
        ));
    }
    if rerun != clean {
        return Err(Error::Internal("re-run tally differs from baseline".into()));
    }
    fe.shutdown();
    let _ = writeln!(log, "[net] determinism: re-run wal byte-identical");
    Ok(log)
}

/// Print the seeded arrival schedule and exit — a pure function of its
/// parameters, double-run byte-compared by `scripts/check.sh`.
pub fn saturate_schedule_dump(quick: bool) {
    let requests = if quick { 200 } else { 2000 };
    let schedule = ArrivalSchedule::generate(Mix::Smallbank, MASTER_SEED, 10_000.0, requests);
    print!("{}", schedule.dump());
}

/// The `figures -- saturate` sweep (wall-clock; the schedule is seeded but
/// service times are real).
pub fn saturate(quick: bool) {
    let requests = if quick { 400 } else { 3000 };
    let workers = 2usize;
    let queue_cap = 32usize;

    // Measure the saturation rate: overdrive an unbounded-queue front-end so
    // nothing sheds, and take the committed throughput as capacity.
    let fe = Frontend::smallbank(
        ACCOUNTS,
        &ServerConfig {
            workers,
            queue_cap: requests,
            engine_retry: RetryPolicy::standard(),
        },
    );
    let probe = ArrivalSchedule::generate(Mix::Smallbank, MASTER_SEED, 1e9, requests);
    let cal = run_open_loop(
        &fe,
        &probe,
        &LoadgenConfig {
            deadline: None,
            retry: RetryPolicy::disabled(),
        },
    );
    fe.shutdown();
    let saturation_tps = cal.committed_tps.max(1.0);
    println!(
        "saturation probe: {} committed in {:.1} ms -> {:.0} tps ({} workers, 1-core caveat: \
         workers and loadgen share the host)",
        cal.committed,
        cal.elapsed.as_secs_f64() * 1e3,
        saturation_tps,
        workers
    );
    println!(
        "{:>5} {:>10} {:>9} {:>6} {:>9} {:>9} {:>9} {:>9} {:>8} {:>8}",
        "x",
        "rate",
        "committed",
        "shed",
        "deadline",
        "p50ms",
        "p95ms",
        "p99ms",
        "eng-rty",
        "cli-rty"
    );

    let mut p99_at_1x = None;
    let mut p99_at_2x = None;
    let mut shed_at_2x = 0u64;
    for mult in [0.25, 0.5, 1.0, 1.5, 2.0] {
        let rate = saturation_tps * mult;
        let fe = Frontend::smallbank(
            ACCOUNTS,
            &ServerConfig {
                workers,
                queue_cap,
                engine_retry: RetryPolicy::standard(),
            },
        );
        let schedule = ArrivalSchedule::generate(Mix::Smallbank, MASTER_SEED + 7, rate, requests);
        let report = run_open_loop(
            &fe,
            &schedule,
            &LoadgenConfig {
                deadline: Some(Duration::from_millis(250)),
                retry: RetryPolicy::disabled(),
            },
        );
        let settled = report.committed
            + report.shed
            + report.deadline_exceeded
            + report.rolled_back
            + report.errors;
        assert_eq!(
            settled, report.offered,
            "every request settles exactly once"
        );
        assert_eq!(report.errors, 0, "no protocol errors");
        assert_eq!(fe.shared().total_grants(), 0, "no lock leakage");
        assert_eq!(fe.shared().active_txns(), 0, "no active-txn leakage");
        if mult == 1.0 {
            p99_at_1x = Some(report.latency.p99_ms);
        }
        if mult == 2.0 {
            p99_at_2x = Some(report.latency.p99_ms);
            shed_at_2x = report.shed;
        }
        println!(
            "{:>5.2} {:>10.0} {:>9} {:>6} {:>9} {:>9.3} {:>9.3} {:>9.3} {:>8} {:>8}",
            mult,
            rate,
            report.committed,
            report.shed,
            report.deadline_exceeded,
            report.latency.p50_ms,
            report.latency.p95_ms,
            report.latency.p99_ms,
            report.engine_retries,
            report.client_resubmits
        );
        fe.shutdown();
    }
    let (p1, p2) = (p99_at_1x.expect("1x ran"), p99_at_2x.expect("2x ran"));
    // Graceful degradation: overdrive must shed typed, and what *is*
    // accepted must still complete promptly (bounded queue in front of a
    // saturated pool; the deadline caps the worst case).
    let bounded = p2 <= (5.0 * p1).max(1.0);
    println!(
        "graceful degradation: p99@2x {:.3} ms vs p99@1x {:.3} ms (bound 5x), {} shed at 2x -> {}",
        p2,
        p1,
        shed_at_2x,
        if bounded && shed_at_2x > 0 {
            "PASS"
        } else {
            "FAIL"
        }
    );
    assert!(
        bounded,
        "p99 at 2x overdrive exceeded 5x the saturation p99"
    );
    assert!(shed_at_2x > 0, "2x overdrive must shed typed Overloaded");
}
