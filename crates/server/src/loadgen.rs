//! Load generation against a [`Frontend`]: open-loop and closed-loop.
//!
//! A closed-loop generator ([`run_closed_loop`]) cannot take a system past
//! saturation: its terminals wait for each response, so offered load
//! self-limits at capacity. The open-loop generator ([`run_open_loop`]) does
//! what real front-ends face — arrivals keep coming on a seeded Poisson
//! schedule whether or not the server keeps up. Past saturation the only
//! stable behaviors are an unbounded queue (latency grows without bound) or
//! admission control (excess arrivals shed, accepted-request latency stays
//! bounded); the `figures -- saturate` experiment measures which one the
//! front-end delivers.
//!
//! The [`ArrivalSchedule`] is a pure function of `(mix, seed, rate,
//! requests)`: the figure harness dumps it to bytes and byte-compares a
//! repeated run, so the *offered* workload in every experiment is provably
//! identical even though service times are wall-clock.
//!
//! Both generators count final answers into the same [`LoadgenReport`].

use crate::server::Frontend;
use crate::wire::{Mix, Request, Response};
use acc_common::SeededRng;
use acc_engine::{LatencyStats, RetryPolicy};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::channel;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One scheduled arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Correlation id (1-based position in the schedule).
    pub client_seq: u64,
    /// Offset from the run's start, microseconds.
    pub at_micros: u64,
    /// Transaction seed the server will expand.
    pub seed: u64,
}

/// A seeded open-loop arrival schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrivalSchedule {
    /// Workload family every request addresses.
    pub mix: Mix,
    /// The seed the schedule was derived from.
    pub seed: u64,
    /// Target arrival rate, requests/second.
    pub rate_tps: f64,
    /// The arrivals, in time order.
    pub entries: Vec<Arrival>,
}

impl ArrivalSchedule {
    /// Derive the schedule: exponential inter-arrival times at `rate_tps`,
    /// per-request transaction seeds, all from one seed.
    pub fn generate(mix: Mix, seed: u64, rate_tps: f64, requests: usize) -> ArrivalSchedule {
        let mut rng = SeededRng::new(seed ^ 0x6f70_656e_6c6f_6f70);
        let mean_gap_micros = 1_000_000.0 / rate_tps.max(1e-9);
        let mut at = 0.0f64;
        let entries = (1..=requests as u64)
            .map(|client_seq| {
                at += rng.exponential(mean_gap_micros);
                Arrival {
                    client_seq,
                    at_micros: at as u64,
                    seed: seed
                        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                        .wrapping_add(client_seq),
                }
            })
            .collect();
        ArrivalSchedule {
            mix,
            seed,
            rate_tps,
            entries,
        }
    }

    /// Deterministic text dump — one line per arrival — used by `check.sh`
    /// to byte-compare two derivations of the same seeded schedule.
    pub fn dump(&self) -> String {
        let mut out = String::with_capacity(self.entries.len() * 40 + 64);
        out.push_str(&format!(
            "schedule mix={} seed={} rate={:.3} requests={}\n",
            self.mix.name(),
            self.seed,
            self.rate_tps,
            self.entries.len()
        ));
        for a in &self.entries {
            out.push_str(&format!(
                "{} at={}us seed={:#018x}\n",
                a.client_seq, a.at_micros, a.seed
            ));
        }
        out
    }
}

/// Load-generator policy knobs.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Per-request deadline budget (None = no deadline).
    pub deadline: Option<Duration>,
    /// Client-side resubmission of transient failures (typed `Overloaded`
    /// sheds and transient rollbacks). Distinct from the server's
    /// engine-side retries, which ride inside one admission.
    pub retry: RetryPolicy,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            deadline: Some(Duration::from_millis(250)),
            retry: RetryPolicy::disabled(),
        }
    }
}

/// What a load-generator run observed, separated by layer: `engine_retries`
/// happened inside the server (one admission, several engine attempts);
/// `client_resubmits` are whole new requests this generator sent after a
/// typed transient failure.
#[derive(Debug, Clone, Default)]
pub struct LoadgenReport {
    /// Requests offered, excluding resubmissions: the schedule's arrivals,
    /// or a closed loop's submissions.
    pub offered: u64,
    /// Requests that ended committed.
    pub committed: u64,
    /// Requests whose final answer was a typed `Overloaded` shed.
    pub shed: u64,
    /// Requests whose final answer was `DeadlineExceeded`.
    pub deadline_exceeded: u64,
    /// Requests whose final answer was a rollback.
    pub rolled_back: u64,
    /// Requests whose final answer was a protocol error.
    pub errors: u64,
    /// Client-side resubmissions performed.
    pub client_resubmits: u64,
    /// Engine-side retries summed over committed responses.
    pub engine_retries: u64,
    /// End-to-end latency of committed requests (first submission to final
    /// response, client-observed).
    pub latency: LatencyStats,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// Committed requests per second of wall clock.
    pub committed_tps: f64,
}

impl LoadgenReport {
    /// Requests with a final answer, whatever it was. A run that settles
    /// every request exactly once has `settled() == offered`.
    pub fn settled(&self) -> u64 {
        self.committed + self.shed + self.deadline_exceeded + self.rolled_back + self.errors
    }
}

/// Final answers counted by outcome, plus the client-observed latencies of
/// the committed ones: what both generators fold into a [`LoadgenReport`].
#[derive(Default)]
struct Tally {
    report: LoadgenReport,
    latencies: Vec<u64>,
}

impl Tally {
    /// Count one request's final answer.
    fn settle(&mut self, resp: Response, latency: Duration) {
        let r = &mut self.report;
        match resp {
            Response::Committed { engine_retries, .. } => {
                r.committed += 1;
                r.engine_retries += engine_retries as u64;
                self.latencies.push(latency.as_micros() as u64);
            }
            Response::Overloaded { .. } => r.shed += 1,
            Response::DeadlineExceeded { .. } => r.deadline_exceeded += 1,
            Response::RolledBack { .. } => r.rolled_back += 1,
            Response::Error { .. } => r.errors += 1,
        }
    }

    /// The report of a run that took `elapsed`.
    fn finish(self, elapsed: Duration) -> LoadgenReport {
        LoadgenReport {
            latency: LatencyStats::from_micros(self.latencies),
            elapsed,
            committed_tps: self.report.committed as f64 / elapsed.as_secs_f64().max(1e-9),
            ..self.report
        }
    }
}

/// Drive `schedule` against `frontend`, open-loop: each arrival is submitted
/// at its scheduled offset (late submission happens immediately — the
/// schedule never waits for the server). Blocks until every request has a
/// final answer.
pub fn run_open_loop(
    frontend: &Frontend,
    schedule: &ArrivalSchedule,
    config: &LoadgenConfig,
) -> LoadgenReport {
    let started = Instant::now();
    let (tx, rx) = channel::<Response>();
    // client_seq -> (first submission instant, resubmits so far, txn seed)
    let mut inflight: HashMap<u64, (Instant, u32, u64)> = HashMap::new();
    let mut tally = Tally::default();
    tally.report.offered = schedule.entries.len() as u64;
    tally.latencies.reserve(schedule.entries.len());
    let mut backoff_rng = SeededRng::new(schedule.seed ^ 0x0062_6163_6b6f_6666);
    let mut outstanding = 0u64;

    let submit = |seq: u64, seed: u64| {
        frontend.submit(
            Request {
                client_seq: seq,
                deadline_micros: config.deadline.map_or(0, |d| d.as_micros().max(1) as u64),
                mix: schedule.mix,
                seed,
            },
            tx.clone(),
        );
    };

    // One pass over the schedule, draining whatever responses have arrived
    // between submissions (the channel is unbounded, so draining eagerly is
    // about keeping `inflight` and resubmissions timely, not correctness).
    for arrival in &schedule.entries {
        let due = started + Duration::from_micros(arrival.at_micros);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        inflight.insert(arrival.client_seq, (Instant::now(), 0, arrival.seed));
        outstanding += 1;
        submit(arrival.client_seq, arrival.seed);
        for resp in rx.try_iter() {
            settle(
                resp,
                &mut inflight,
                &mut tally,
                &mut outstanding,
                &mut backoff_rng,
                config,
                &submit,
            );
        }
    }
    // Drain to completion.
    while outstanding > 0 {
        let resp = rx.recv().expect("frontend keeps reply senders alive");
        settle(
            resp,
            &mut inflight,
            &mut tally,
            &mut outstanding,
            &mut backoff_rng,
            config,
            &submit,
        );
    }
    tally.finish(started.elapsed())
}

/// Resubmit a transient failure while the client's retry budget lasts,
/// otherwise count the final answer.
fn settle(
    resp: Response,
    inflight: &mut HashMap<u64, (Instant, u32, u64)>,
    tally: &mut Tally,
    outstanding: &mut u64,
    backoff_rng: &mut SeededRng,
    config: &LoadgenConfig,
    submit: &impl Fn(u64, u64),
) {
    let seq = resp.client_seq();
    let Some(&(first_submit, resubmits, seed)) = inflight.get(&seq) else {
        // A response for a request we already settled would be a protocol
        // bug; surface it loudly.
        panic!("response for unknown client_seq {seq}");
    };
    let transient = match &resp {
        Response::Overloaded { .. } => true,
        Response::RolledBack { reason, .. } => reason.transient(),
        _ => false,
    };
    if transient && resubmits < config.retry.max_retries {
        inflight.insert(seq, (first_submit, resubmits + 1, seed));
        tally.report.client_resubmits += 1;
        std::thread::sleep(config.retry.backoff(resubmits + 1, backoff_rng));
        submit(seq, seed);
        return;
    }
    inflight.remove(&seq);
    *outstanding -= 1;
    tally.settle(resp, first_submit.elapsed());
}

/// Closed-loop run parameters.
#[derive(Debug, Clone)]
pub struct ClosedLoopConfig {
    /// Number of terminal threads. Each has at most one request
    /// outstanding, so a front-end with this many workers runs them all at
    /// once, and an admission queue at least this deep never sheds.
    pub terminals: usize,
    /// Wall-clock measurement duration.
    pub duration: Duration,
    /// Mean think time between requests (exponentially distributed).
    pub think_time: Duration,
    /// Seed of the terminals' think times and transaction seeds.
    pub seed: u64,
}

/// Drive `frontend` from `config.terminals` terminal threads for
/// `config.duration`: each thinks, submits one request (no deadline) through
/// [`Frontend::submit`] and waits for its answer. Terminals never resubmit;
/// deadlock victims and doomed transactions are retried inside the server
/// under its `engine_retry` policy. A terminal waiting when the time is up
/// finishes its request, so every submitted request settles exactly once,
/// and `offered` counts the submissions.
pub fn run_closed_loop(frontend: &Frontend, config: &ClosedLoopConfig) -> LoadgenReport {
    let started = Instant::now();
    let stop = AtomicBool::new(false);
    let total = Mutex::new(Tally::default());
    let mut root_rng = SeededRng::new(config.seed);
    let think_us = config.think_time.as_micros() as f64;
    let mix = frontend.mix();
    std::thread::scope(|s| {
        for _ in 0..config.terminals {
            let mut rng = root_rng.fork();
            let (stop, total) = (&stop, &total);
            s.spawn(move || {
                let (tx, rx) = channel::<Response>();
                let mut client_seq = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    if think_us > 0.0 {
                        let t = rng.exponential(think_us);
                        std::thread::sleep(Duration::from_micros(t as u64));
                    }
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    client_seq += 1;
                    let request = Request {
                        client_seq,
                        deadline_micros: 0,
                        mix,
                        // The generator's raw 64-bit output.
                        seed: rng.int_range(i64::MIN, i64::MAX) as u64,
                    };
                    let submitted = Instant::now();
                    frontend.submit(request, tx.clone());
                    let resp = rx.recv().expect("frontend answers every request");
                    assert_eq!(resp.client_seq(), client_seq, "answer to another request");
                    let latency = submitted.elapsed();
                    total
                        .lock()
                        .expect("tally not poisoned")
                        .settle(resp, latency);
                }
                assert!(rx.try_recv().is_err(), "a request was answered twice");
                total.lock().expect("tally not poisoned").report.offered += client_seq;
            });
        }
        std::thread::sleep(config.duration);
        stop.store(true, Ordering::Relaxed);
    });
    let total = total.into_inner().expect("tally not poisoned");
    total.finish(started.elapsed())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_deterministic_and_ordered() {
        let a = ArrivalSchedule::generate(Mix::Smallbank, 7, 500.0, 200);
        let b = ArrivalSchedule::generate(Mix::Smallbank, 7, 500.0, 200);
        assert_eq!(a, b);
        assert_eq!(a.dump(), b.dump());
        assert!(a
            .entries
            .windows(2)
            .all(|w| w[0].at_micros <= w[1].at_micros));
        let c = ArrivalSchedule::generate(Mix::Smallbank, 8, 500.0, 200);
        assert_ne!(a.dump(), c.dump());
    }

    #[test]
    fn schedule_rate_is_roughly_honored() {
        let s = ArrivalSchedule::generate(Mix::Tpcc, 1, 1000.0, 2000);
        let span = s.entries.last().unwrap().at_micros as f64 / 1e6;
        let rate = 2000.0 / span;
        assert!((500.0..2000.0).contains(&rate), "rate {rate}");
    }
}
