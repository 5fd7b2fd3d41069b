//! One round: set up, warm up, measure, gate, recover.

use crate::generator::{Fate, Generator};
use crate::hostctx;
use crate::trace::{self, median, quantile, Tracer};
use crate::workload::{Schedule, Spec, OUTSTANDING};
use acc_common::events::CounterSnapshot;
use acc_server::Frontend;
use acc_storage::PagerCounters;
use acc_txn::SharedDb;
use acc_wal::{recover, Lsn, Wal};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Request counts of one round.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Warm-up requests (a prefix of the schedule, not measured).
    pub warmup: usize,
    /// Measured requests.
    pub measured: usize,
    /// Requests outstanding in the closed loop.
    pub outstanding: usize,
}

impl Plan {
    /// The benchmark's plan for `spec`'s workload.
    pub fn standard(spec: &Spec) -> Plan {
        let (warmup, measured) = spec.workload.requests();
        Plan {
            warmup,
            measured,
            outstanding: OUTSTANDING,
        }
    }
}

/// What a round measured.
#[derive(Debug, Default)]
pub struct Round {
    /// End-to-end metrics by name.
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer metrics by name (traced rounds only).
    pub layers: BTreeMap<&'static str, f64>,
    /// Host context and reading-only figures (p99, sample counts, steal).
    pub context: BTreeMap<&'static str, f64>,
    /// Measured requests offered.
    pub attempted: u64,
    /// Measured requests that failed.
    pub failed: u64,
    /// Human-readable lines.
    pub report: String,
    /// Span TSV of the measured requests (traced rounds only).
    pub spans: String,
    /// The durable WAL image the round left (behaviour-preservation tests).
    pub wal: Vec<u8>,
    /// Correctness-gate violations; empty means the round passed.
    pub violations: Vec<String>,
}

/// Engine counters sampled at the edges of the measured phase.
struct Edge {
    sink: CounterSnapshot,
    pager: PagerCounters,
    wal_len: usize,
}

impl Edge {
    fn of(shared: &SharedDb) -> Edge {
        Edge {
            sink: shared.event_sink().counters(),
            pager: shared.pager_counters(),
            wal_len: shared.wal_len(),
        }
    }
}

/// Run one round of `spec`. `Err` means the round could not complete (a
/// stuck or misbehaving front-end); gate violations are reported in
/// [`Round::violations`].
pub fn run(spec: &Spec, plan: &Plan, traced: bool) -> Result<Round, String> {
    let total = plan.warmup + plan.measured;
    let schedule = Schedule::derive(spec, total);
    let epoch = Instant::now();
    let tracer = traced.then(|| Tracer::new(epoch, &schedule.seeds));
    let frontend = spec.start(tracer.as_ref());
    let mut load = Generator::new(&frontend, epoch);

    load.closed_loop(1, &schedule.seeds[..plan.warmup], plan.outstanding)?;
    let before = Edge::of(frontend.shared());
    let (cpu0, steal0, t0) = (
        hostctx::cpu_seconds(),
        hostctx::steal_jiffies(),
        Instant::now(),
    );
    load.closed_loop(
        plan.warmup as u64 + 1,
        &schedule.seeds[plan.warmup..],
        plan.outstanding,
    )?;
    let wall = t0.elapsed().as_secs_f64();
    let (cpu1, steal1) = (hostctx::cpu_seconds(), hostctx::steal_jiffies());
    let peak_rss = hostctx::peak_rss_mib();
    let after = Edge::of(frontend.shared());
    let (fates, stamps) = load.finish();

    let mut round = Round::default();
    let setup_s = stamps.first().map_or(0.0, |s| s.submitted as f64 / 1e9);
    let measured = plan.warmup..total;
    let (mut lat, mut write_lat) = (Vec::new(), Vec::new());
    let (mut committed, mut user_aborts, mut retries) = (0u64, 0u64, 0u64);
    for i in measured.clone() {
        match &fates[i] {
            Some(Fate::Committed { retries: r, .. }) => {
                committed += 1;
                retries += *r as u64;
                let ms = stamps[i].latency_ns() as f64 / 1e6;
                lat.push(ms);
                if schedule.writes[i] {
                    write_lat.push(ms);
                }
            }
            Some(Fate::UserAbort) => user_aborts += 1,
            Some(Fate::Failed(why)) => {
                if round.failed == 0 {
                    let _ = writeln!(round.report, "first failed request: {why}");
                }
                round.failed += 1;
            }
            None => {}
        }
    }
    round.attempted = plan.measured as u64;
    let per_txn = |x: f64| x / committed.max(1) as f64;
    let e2e = &mut round.e2e;
    e2e.insert("tps", committed as f64 / wall);
    e2e.insert("p50_ms", median(&mut lat.clone()));
    e2e.insert("write_p50_ms", median(&mut write_lat));
    e2e.insert("cpu_us_per_txn", per_txn((cpu1 - cpu0) * 1e6));
    e2e.insert(
        "ok_frac",
        (committed + user_aborts) as f64 / plan.measured as f64,
    );
    e2e.insert("peak_rss_mb", peak_rss);
    e2e.insert("setup_s", setup_s);
    let ctx = &mut round.context;
    ctx.insert("p99_ms", quantile(&mut lat, 0.99));
    ctx.insert("latency_samples", lat.len() as f64);
    ctx.insert("measured_s", wall);
    ctx.insert("steal_frac", hostctx::steal_share(steal0, steal1));
    ctx.insert("parallelism", hostctx::parallelism() as f64);

    if let Some(tracer) = &tracer {
        let attempts = tracer.by_request();
        let tl = trace::analyze(measured, &fates, &stamps, &attempts);
        layer_metrics(&mut round, &tl, &before, &after, committed, retries);
        round.spans = tl.tsv;
    }

    gate(spec, plan, &fates, frontend, &mut round);
    Ok(round)
}

/// The per-layer metrics of a traced round.
fn layer_metrics(
    round: &mut Round,
    tl: &trace::Timeline,
    before: &Edge,
    after: &Edge,
    committed: u64,
    retries: u64,
) {
    let c = committed.max(1) as f64;
    let (s0, s1) = (&before.sink, &after.sink);
    let (p0, p1) = (&before.pager, &after.pager);
    let d = |a: u64, b: u64| b.saturating_sub(a) as f64;
    let ratio = |n: f64, m: f64| if m == 0.0 { 0.0 } else { n / m };
    let wal_records = (after.wal_len - before.wal_len) as f64;
    let lock_wait_us = d(s0.wait_micros, s1.wait_micros);
    let version_reads = d(s0.version_reads, s1.version_reads);
    let fallbacks = d(s0.version_fallbacks, s1.version_fallbacks);
    let n = &tl.counts;
    let l = &mut round.layers;
    for (name, xs) in &tl.samples {
        l.insert(name, median(&mut xs.clone()));
    }
    l.insert("server.engine_retries_per_txn", retries as f64 / c);
    l.insert("server.failed", round.failed as f64);
    l.insert("txn.steps_per_txn", tl.step_calls as f64 / c);
    l.insert("txn.compensations_per_txn", tl.comp_calls as f64 / c);
    l.insert(
        "lockmgr.requests_per_txn",
        d(s0.lock_requests, s1.lock_requests) / c,
    );
    l.insert("lockmgr.waits_per_txn", d(s0.lock_waits, s1.lock_waits) / c);
    l.insert(
        "lockmgr.wait_us",
        ratio(lock_wait_us, d(s0.wait_count, s1.wait_count)),
    );
    l.insert(
        "lockmgr.deadlock_victims",
        d(s0.deadlock_victims, s1.deadlock_victims),
    );
    l.insert(
        "lockmgr.conservative_denials",
        d(s0.conservative_denials, s1.conservative_denials),
    );
    l.insert("acc.lookups_per_txn", n.lookups as f64 / c);
    l.insert("acc.hit_frac", ratio(n.hits as f64, n.lookups as f64));
    l.insert(
        "acc.pins_per_txn",
        d(s0.assertion_pins, s1.assertion_pins) / c,
    );
    l.insert(
        "acc.blocked_per_txn",
        d(s0.interference_hits, s1.interference_hits) / c,
    );
    l.insert(
        "storage.page_reads_per_txn",
        d(p0.page_reads, p1.page_reads) / c,
    );
    l.insert(
        "storage.page_writes_per_txn",
        d(p0.page_writes, p1.page_writes) / c,
    );
    l.insert("storage.splits_per_txn", d(p0.splits, p1.splits) / c);
    l.insert("storage.latch_waits", d(p0.latch_waits, p1.latch_waits));
    l.insert(
        "storage.read_restarts",
        d(p0.read_restarts, p1.read_restarts),
    );
    l.insert("storage.version_reads_per_txn", version_reads / c);
    l.insert(
        "storage.version_fallback_frac",
        ratio(fallbacks, version_reads + fallbacks),
    );
    l.insert("wal.bytes_per_txn", n.staged_bytes as f64 / c);
    l.insert("wal.records_per_txn", wal_records / c);
    l.insert("wal.syncs_per_txn", n.syncs as f64 / c);
    l.insert("wal.records_per_sync", ratio(wal_records, n.syncs as f64));
    l.insert("trace.covered_frac", tl.covered_frac);

    let r = &mut round.report;
    let _ = writeln!(r, "latency accounting (share of client latency):");
    r.push_str(&tl.report);
    let mean = |k: &str| tl.mean_us.get(k).copied().unwrap_or(0.0);
    let wait = lock_wait_us / c;
    let _ = writeln!(
        r,
        "self time, mean us per committed request: step {:.1} = lock wait {:.1} + self {:.1}; \
         begin {:.1}; end-of-step {:.1}; commit {:.1}; server {:.1}",
        mean("step"),
        wait,
        mean("step") - wait,
        mean("begin"),
        mean("end_step"),
        mean("commit"),
        ["framing", "submit", "queue", "retry", "program", "reply"]
            .iter()
            .map(|k| mean(k))
            .sum::<f64>(),
    );
    let _ = writeln!(
        r,
        "engine step time (sink StepEnd) {:.1} us/txn; version gates {:.1}/txn; device stages {:.1}/txn",
        d(s0.step_micros, s1.step_micros) / c,
        n.version_gates as f64 / c,
        n.stages as f64 / c,
    );
    if tl.covered_frac < 0.95 {
        round.violations.push(format!(
            "spans cover {:.3} of client latency (< 0.95)",
            tl.covered_frac
        ));
    }
}

/// The correctness gate: every request settled once; no leaked locks,
/// transactions or mixed-epoch lookups; the live image audits clean; the
/// final durable log recovers with nothing in flight, with one commit per
/// commit response, into an image that audits clean. Also times recovery.
fn gate(spec: &Spec, plan: &Plan, fates: &[Option<Fate>], frontend: Frontend, round: &mut Round) {
    let v = &mut round.violations;
    let total = plan.warmup + plan.measured;
    let settled = fates.iter().filter(|f| f.is_some()).count();
    if fates.len() != total || settled != total {
        v.push(format!("{settled} of {total} requests settled"));
    }
    let commit_responses = fates
        .iter()
        .filter(|f| matches!(f, Some(Fate::Committed { .. })))
        .count();
    frontend.shutdown();
    let shared = std::sync::Arc::clone(frontend.shared());
    drop(frontend);
    if shared.total_grants() != 0 {
        v.push(format!("{} lock grants leaked", shared.total_grants()));
    }
    if shared.active_txns() != 0 {
        v.push(format!("{} transactions left active", shared.active_txns()));
    }
    let mixed = shared.registry().mixed_epoch_lookups();
    if mixed != 0 {
        v.push(format!("{mixed} mixed-epoch lookups"));
    }
    // A clean shutdown makes the tail (rollbacks need no durability ack)
    // durable before the log is read back.
    if let Err(e) = shared.sync_wal(Lsn(shared.wal_len().saturating_sub(1) as u64)) {
        v.push(format!("final log flush failed: {e}"));
    }
    let durable = shared.wal_durable_stream();
    if durable != shared.wal_bytes() {
        v.push("durable log differs from the appended log after the final flush".into());
    }
    for line in spec.audit(&shared.snapshot_db()).into_iter().take(3) {
        v.push(format!("live image: {line}"));
    }
    drop(shared);

    // Restart: replay the durable log into a freshly populated base image
    // (population is not timed).
    let mut db = spec.base();
    let t = Instant::now();
    let recovered = recover(&mut db, &Wal::from_bytes(&durable));
    round.e2e.insert("recovery_s", t.elapsed().as_secs_f64());
    match recovered {
        Err(e) => v.push(format!("recovery failed: {e}")),
        Ok(report) => {
            let in_flight = report.needs_compensation.len() + report.discarded.len();
            if in_flight != 0 {
                v.push(format!("{in_flight} transactions in flight after recovery"));
            }
            if report.committed.len() != commit_responses {
                v.push(format!(
                    "{} commits on the log, {commit_responses} commit responses",
                    report.committed.len()
                ));
            }
            for line in spec.audit(&db).into_iter().take(3) {
                v.push(format!("recovered image: {line}"));
            }
        }
    }
    round
        .context
        .insert("wal_mib", durable.len() as f64 / 1048576.0);
    round.wal = durable;
}
