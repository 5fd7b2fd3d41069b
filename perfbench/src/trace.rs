//! Outside-in tracing: wrappers around the program's public entry points
//! (the `Host`, each `TxnProgram`, the interference tables and the log
//! device), the per-request span timeline they yield, and the per-layer
//! metrics derived from it.
//!
//! Timing comes only from the wrappers and the generator; the engine's own
//! counters (event sink, pager) supply the counts. Counting wrappers keep
//! per-thread tallies that each program wrapper harvests when it is
//! dropped, so the worker threads never share a counter cache line.

use crate::generator::{Fate, Stamps};
use acc_common::{AssertionTemplateId, Result, StepTypeId, TxnTypeId};
use acc_lockmgr::InterferenceOracle;
use acc_server::{Host, Mix};
use acc_txn::{ConcurrencyControl, StepCtx, StepOutcome, TxnProgram};
use acc_wal::LogDevice;
use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Calls counted by the wrappers on one thread.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// `write_interferes` + `read_interferes` calls.
    pub lookups: u64,
    /// Lookups that answered "interferes".
    pub hits: u64,
    /// `version_read_safe` calls.
    pub version_gates: u64,
    /// `LogDevice::stage` calls.
    pub stages: u64,
    /// Bytes staged on the log device.
    pub staged_bytes: u64,
    /// `LogDevice::sync` calls.
    pub syncs: u64,
}

impl Counts {
    const ZERO: Counts = Counts {
        lookups: 0,
        hits: 0,
        version_gates: 0,
        stages: 0,
        staged_bytes: 0,
        syncs: 0,
    };

    fn add(&mut self, o: &Counts) {
        self.lookups += o.lookups;
        self.hits += o.hits;
        self.version_gates += o.version_gates;
        self.stages += o.stages;
        self.staged_bytes += o.staged_bytes;
        self.syncs += o.syncs;
    }
}

thread_local! {
    static COUNTS: Cell<Counts> = const { Cell::new(Counts::ZERO) };
}

fn bump(f: impl FnOnce(&mut Counts)) {
    COUNTS.with(|c| {
        let mut v = c.get();
        f(&mut v);
        c.set(v);
    });
}

fn harvest() -> Counts {
    COUNTS.with(|c| c.replace(Counts::ZERO))
}

/// Interference tables that count every lookup and forward it.
pub struct CountingOracle<O> {
    inner: Arc<O>,
}

impl<O> CountingOracle<O> {
    /// Wrap `inner`.
    pub fn new(inner: Arc<O>) -> CountingOracle<O> {
        CountingOracle { inner }
    }
}

impl<O: InterferenceOracle> InterferenceOracle for CountingOracle<O> {
    fn write_interferes(&self, step: StepTypeId, assertion: AssertionTemplateId) -> bool {
        let hit = self.inner.write_interferes(step, assertion);
        bump(|c| {
            c.lookups += 1;
            c.hits += hit as u64;
        });
        hit
    }

    fn read_interferes(&self, step: StepTypeId, assertion: AssertionTemplateId) -> bool {
        let hit = self.inner.read_interferes(step, assertion);
        bump(|c| {
            c.lookups += 1;
            c.hits += hit as u64;
        });
        hit
    }

    fn version_read_safe(&self, step: StepTypeId) -> bool {
        bump(|c| c.version_gates += 1);
        self.inner.version_read_safe(step)
    }
}

/// A log device that counts stages, staged bytes and syncs and forwards
/// them.
pub struct CountingDevice<D> {
    inner: D,
}

impl<D> CountingDevice<D> {
    /// Wrap `inner`.
    pub fn new(inner: D) -> CountingDevice<D> {
        CountingDevice { inner }
    }
}

impl<D: LogDevice> LogDevice for CountingDevice<D> {
    fn stage(&mut self, bytes: &[u8]) {
        bump(|c| {
            c.stages += 1;
            c.staged_bytes += bytes.len() as u64;
        });
        self.inner.stage(bytes);
    }

    fn sync(&mut self) -> acc_common::Result<()> {
        bump(|c| c.syncs += 1);
        self.inner.sync()
    }

    fn staged_len(&self) -> usize {
        self.inner.staged_len()
    }

    fn durable_len(&self) -> u64 {
        self.inner.durable_len()
    }

    fn durable_stream(&self) -> Vec<u8> {
        self.inner.durable_stream()
    }

    fn raw_image(&self) -> Vec<u8> {
        self.inner.raw_image()
    }

    fn kind(&self) -> &'static str {
        self.inner.kind()
    }
}

/// One run of one program: what the wrappers saw between `Host::program`
/// and the program's drop. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, Default)]
pub struct Attempt {
    /// Index of the request in the schedule (`u32::MAX` if unknown).
    pub req: u32,
    /// `Host::program` entry and exit.
    pub program: (u64, u64),
    /// Every `step` call, entry and exit, in call order.
    pub steps: Vec<(u64, u64)>,
    /// Every `compensate` call, entry and exit.
    pub comps: Vec<(u64, u64)>,
    /// Counted calls on the worker thread during this attempt.
    pub counts: Counts,
}

/// Collects attempts from the traced host.
pub struct Tracer {
    epoch: Instant,
    index: Arc<HashMap<u64, u32>>,
    attempts: Arc<Mutex<Vec<Attempt>>>,
}

impl Tracer {
    /// A tracer for a schedule: `seeds[i]` identifies request `i`.
    pub fn new(epoch: Instant, seeds: &[u64]) -> Tracer {
        let index = seeds
            .iter()
            .enumerate()
            .map(|(i, &s)| (s, i as u32))
            .collect();
        Tracer {
            epoch,
            index: Arc::new(index),
            attempts: Arc::new(Mutex::new(Vec::with_capacity(seeds.len()))),
        }
    }

    /// Wrap a host so that every program it makes is traced.
    pub fn wrap(&self, inner: Box<dyn Host>) -> TracedHost {
        TracedHost {
            inner,
            epoch: self.epoch,
            index: Arc::clone(&self.index),
            attempts: Arc::clone(&self.attempts),
        }
    }

    /// Every attempt recorded so far, grouped by request, in start order.
    pub fn by_request(&self) -> HashMap<u32, Vec<Attempt>> {
        let mut all = std::mem::take(&mut *self.attempts.lock().expect("attempt log poisoned"));
        all.sort_by_key(|a| a.program.0);
        let mut out: HashMap<u32, Vec<Attempt>> = HashMap::new();
        for a in all {
            out.entry(a.req).or_default().push(a);
        }
        out
    }
}

/// A host that times `program()` and wraps each program it returns.
pub struct TracedHost {
    inner: Box<dyn Host>,
    epoch: Instant,
    index: Arc<HashMap<u64, u32>>,
    attempts: Arc<Mutex<Vec<Attempt>>>,
}

impl Host for TracedHost {
    fn mix(&self) -> Mix {
        self.inner.mix()
    }

    fn program(&self, seed: u64) -> Box<dyn TxnProgram + Send> {
        let entry = self.epoch.elapsed().as_nanos() as u64;
        let inner = self.inner.program(seed);
        let exit = self.epoch.elapsed().as_nanos() as u64;
        Box::new(TracedProgram {
            inner,
            epoch: self.epoch,
            attempt: Attempt {
                req: self.index.get(&seed).copied().unwrap_or(u32::MAX),
                program: (entry, exit),
                ..Attempt::default()
            },
            attempts: Arc::clone(&self.attempts),
        })
    }

    fn cc(&self) -> &dyn ConcurrencyControl {
        self.inner.cc()
    }
}

/// A program that timestamps each call and forwards it.
struct TracedProgram {
    inner: Box<dyn TxnProgram + Send>,
    epoch: Instant,
    attempt: Attempt,
    attempts: Arc<Mutex<Vec<Attempt>>>,
}

impl TracedProgram {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

impl TxnProgram for TracedProgram {
    fn txn_type(&self) -> TxnTypeId {
        self.inner.txn_type()
    }

    fn step(&mut self, step_index: u32, ctx: &mut StepCtx<'_>) -> Result<StepOutcome> {
        let t = self.now();
        let out = self.inner.step(step_index, ctx);
        self.attempt.steps.push((t, self.now()));
        out
    }

    fn compensate(&mut self, steps_completed: u32, ctx: &mut StepCtx<'_>) -> Result<()> {
        let t = self.now();
        let out = self.inner.compensate(steps_completed, ctx);
        self.attempt.comps.push((t, self.now()));
        out
    }

    fn work_area(&self) -> Vec<u8> {
        self.inner.work_area()
    }
}

impl Drop for TracedProgram {
    fn drop(&mut self) {
        let mut attempt = std::mem::take(&mut self.attempt);
        attempt.counts = harvest();
        // Never panic in drop: a poisoned log only loses this record, which
        // the coverage check then reports.
        if let Ok(mut log) = self.attempts.lock() {
            log.push(attempt);
        }
    }
}

/// The span kinds of a committed request's timeline, in timeline order.
pub const SPANS: [&str; 10] = [
    "framing", "submit", "queue", "retry", "program", "begin", "step", "end_step", "commit",
    "reply",
];

/// The layer each span kind belongs to.
pub fn layer_of(span: &str) -> &'static str {
    match span {
        "begin" | "step" | "end_step" | "commit" => "txn",
        _ => "server",
    }
}

/// One span of one request.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Kind (one of [`SPANS`]).
    pub kind: &'static str,
    /// Start, ns since epoch.
    pub start: u64,
    /// End, ns since epoch.
    pub end: u64,
}

/// The contiguous timeline of one committed request: framing, submit,
/// queue, (retried attempts), program, begin, steps with their end-of-step
/// gaps, commit (closed by the response's server-side latency), reply.
pub fn timeline(st: &Stamps, server_micros: u64, attempts: &[Attempt]) -> Option<Vec<Span>> {
    let last = attempts.last()?;
    let first = attempts.first()?;
    let (first_step, last_step) = (last.steps.first()?, last.steps.last()?);
    let mut spans = Vec::with_capacity(8 + 2 * last.steps.len());
    let mut push = |kind, start: u64, end: u64| {
        if end > start {
            spans.push(Span { kind, start, end });
        }
    };
    push("framing", st.seal, st.submit);
    push("submit", st.submit, st.submitted);
    push("queue", st.submitted, first.program.0);
    push("retry", first.program.0, last.program.0);
    push("program", last.program.0, last.program.1);
    push("begin", last.program.1, first_step.0);
    for (i, s) in last.steps.iter().enumerate() {
        push("step", s.0, s.1);
        if let Some(next) = last.steps.get(i + 1) {
            push("end_step", s.1, next.0);
        }
    }
    let server_end = (st.submit + server_micros * 1_000).max(last_step.1);
    push("commit", last_step.1, server_end);
    push("reply", server_end, st.recv);
    push("framing", st.recv, st.done);
    Some(spans)
}

/// Length of the union of `spans` clipped to `[lo, hi]`.
pub fn covered(spans: &[Span], lo: u64, hi: u64) -> u64 {
    let mut iv: Vec<(u64, u64)> = spans
        .iter()
        .map(|s| (s.start.max(lo), s.end.min(hi)))
        .filter(|(a, b)| b > a)
        .collect();
    iv.sort_unstable();
    let (mut total, mut cur) = (0u64, None::<(u64, u64)>);
    for (a, b) in iv {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    if let Some((ca, cb)) = cur {
        total += cb - ca;
    }
    total
}

/// The median of `xs` (0 when empty).
pub fn median(xs: &mut [f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The `q`-quantile of `xs` by nearest rank (0 when empty).
pub fn quantile(xs: &mut [f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_unstable_by(f64::total_cmp);
    let rank = ((q * xs.len() as f64).ceil() as usize).clamp(1, xs.len());
    xs[rank - 1]
}

/// The per-call timing metrics, in microseconds.
pub const TIMED: [&str; 9] = [
    "server.framing_us",
    "server.submit_us",
    "server.queue_wait_us",
    "server.program_us",
    "server.reply_us",
    "txn.begin_us",
    "txn.step_us",
    "txn.end_step_us",
    "txn.commit_us",
];

/// Per-layer timing extracted from the measured requests of a traced round.
pub struct Timeline {
    /// Per-call (or per-request) durations in microseconds, by metric name.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    /// Union of spans over client latency, summed over committed requests.
    pub covered_frac: f64,
    /// Mean microseconds per committed request, by span kind.
    pub mean_us: BTreeMap<&'static str, f64>,
    /// Printable latency-accounting table (median and p99 requests).
    pub report: String,
    /// Counted calls over every attempt of the measured requests.
    pub counts: Counts,
    /// `step` calls over those attempts.
    pub step_calls: u64,
    /// `compensate` calls.
    pub comp_calls: u64,
    /// Spans as TSV (`client_seq`, span, start ns, end ns, parent).
    pub tsv: String,
}

/// Build the timeline of requests `range` (0-based schedule indices).
pub fn analyze(
    range: std::ops::Range<usize>,
    fates: &[Option<Fate>],
    stamps: &[Stamps],
    attempts: &HashMap<u32, Vec<Attempt>>,
) -> Timeline {
    let mut samples: BTreeMap<&'static str, Vec<f64>> =
        TIMED.iter().map(|&m| (m, Vec::new())).collect();
    let mut totals: BTreeMap<&'static str, f64> = BTreeMap::new();
    let (mut lat_sum, mut cov_sum) = (0u64, 0u64);
    let mut counts = Counts::default();
    let (mut step_calls, mut comp_calls) = (0u64, 0u64);
    let mut per_request: Vec<Accounted> = Vec::new();
    let mut tsv = String::from("client_seq\tspan\tstart_ns\tend_ns\tparent\n");
    let mut committed = 0u64;
    let us = |ns: u64| ns as f64 / 1e3;
    for i in range {
        let empty = Vec::new();
        let atts = attempts.get(&(i as u32)).unwrap_or(&empty);
        for a in atts {
            counts.add(&a.counts);
            step_calls += a.steps.len() as u64;
            comp_calls += a.comps.len() as u64;
            samples
                .entry("server.program_us")
                .or_default()
                .push(us(a.program.1 - a.program.0));
            for s in &a.steps {
                samples
                    .entry("txn.step_us")
                    .or_default()
                    .push(us(s.1 - s.0));
            }
        }
        let st = &stamps[i];
        let Some(Fate::Committed { server_micros, .. }) = fates[i] else {
            continue;
        };
        committed += 1;
        let seq = i + 1;
        let _ = writeln!(tsv, "{seq}\trequest\t{}\t{}\t-", st.seal, st.done);
        let spans = timeline(st, server_micros, atts).unwrap_or_default();
        let lat = st.latency_ns();
        let cov = covered(&spans, st.seal, st.done);
        lat_sum += lat;
        cov_sum += cov;
        let mut by_kind: BTreeMap<&'static str, u64> = BTreeMap::new();
        for s in &spans {
            let d = s.end - s.start;
            *by_kind.entry(s.kind).or_default() += d;
            let _ = writeln!(tsv, "{seq}\t{}\t{}\t{}\trequest", s.kind, s.start, s.end);
            if s.kind == "end_step" {
                samples.entry("txn.end_step_us").or_default().push(us(d));
            }
        }
        for a in atts {
            for c in &a.comps {
                let _ = writeln!(tsv, "{seq}\tcompensate\t{}\t{}\tretry", c.0, c.1);
            }
        }
        for (kind, metric) in [
            ("framing", "server.framing_us"),
            ("submit", "server.submit_us"),
            ("queue", "server.queue_wait_us"),
            ("reply", "server.reply_us"),
            ("begin", "txn.begin_us"),
            ("commit", "txn.commit_us"),
        ] {
            let d = by_kind.get(kind).copied().unwrap_or(0);
            samples.entry(metric).or_default().push(us(d));
        }
        for (k, d) in &by_kind {
            *totals.entry(k).or_default() += us(*d);
        }
        per_request.push(Accounted { lat, cov, by_kind });
    }
    let mean_us = totals
        .into_iter()
        .map(|(k, v)| (k, v / committed.max(1) as f64))
        .collect();
    Timeline {
        samples,
        covered_frac: if lat_sum == 0 {
            0.0
        } else {
            cov_sum as f64 / lat_sum as f64
        },
        mean_us,
        report: shares(&mut per_request),
        counts,
        step_calls,
        comp_calls,
        tsv,
    }
}

/// One committed request's latency, its span coverage, and time by span
/// kind (ns).
struct Accounted {
    lat: u64,
    cov: u64,
    by_kind: BTreeMap<&'static str, u64>,
}

/// Each span kind's and layer's share of client latency, averaged over the
/// requests ranked within half a percent of the median and of p99.
fn shares(per_request: &mut [Accounted]) -> String {
    let mut out = String::new();
    if per_request.is_empty() {
        return out;
    }
    per_request.sort_by_key(|r| r.lat);
    let n = per_request.len();
    let half_band = (n / 200).max(1);
    let _ = write!(out, "{:<14}", "share of");
    for kind in SPANS.iter().chain(&["uncovered", "server", "txn"]) {
        let _ = write!(out, " {kind:>9}");
    }
    out.push('\n');
    for (label, q) in [("p50", 0.50), ("p99", 0.99)] {
        let centre = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
        let band = &per_request[centre.saturating_sub(half_band)..(centre + half_band).min(n)];
        let w = 1.0 / band.len() as f64;
        let mut share: BTreeMap<&str, f64> = BTreeMap::new();
        let mut lat_ms = 0.0;
        for r in band {
            let lat = r.lat.max(1) as f64;
            lat_ms += r.lat as f64 / 1e6 * w;
            for (k, d) in &r.by_kind {
                let f = *d as f64 / lat * w;
                *share.entry(k).or_default() += f;
                *share.entry(layer_of(k)).or_default() += f;
            }
            *share.entry("uncovered").or_default() += (1.0 - r.cov as f64 / lat) * w;
        }
        let _ = write!(out, "{:<14}", format!("{label} {lat_ms:.3} ms"));
        for kind in SPANS.iter().chain(&["uncovered", "server", "txn"]) {
            let _ = write!(out, " {:>9.3}", share.get(kind).copied().unwrap_or(0.0));
        }
        let _ = writeln!(out, "   ({} requests)", band.len());
    }
    out
}
