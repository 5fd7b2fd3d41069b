//! The crash-torture harness: every workload kit, cut at every point of
//! every crash-point source, recovered and audited the same way.
//!
//! The paper's robustness argument (§3.4) is that multi-step transactions
//! survive failure through two things: redo from end-of-step records, and
//! compensating steps resumed from the saved work area. This module proves
//! it mechanically. A [`Workload`] runs its seeded mix single-threaded
//! under its own tables, and a [`CutSource`] turns that run into crash
//! points:
//!
//! * [`CutSource::Append`] — every WAL append index (strided to a cap), plus
//!   seeded torn tails, single-bit flips, live fault-injector replays that
//!   must capture exactly the offline prefix, and the two edges of one step
//!   boundary (which differ by exactly the end-of-step record);
//! * [`CutSource::Fsync`] — every fsync boundary on both the memory and the
//!   file device under a small group-commit batch (the devices must agree),
//!   plus sector tears of the file image, one of them splitting a frame;
//! * [`CutSource::Reanalysis`] — a re-derived table installed at every step
//!   boundary of the live mix (each install drains the one pinned
//!   transaction, switches once, never mixes epochs and leaves the WAL
//!   byte-identical), the live switchover from the fully-conservative
//!   default tables to the kit's own, a quiescent install that completes
//!   immediately, and then crash points recovered under the re-derived
//!   tables — including fsync boundaries inside the drain window;
//! * [`CutSource::Ship`] — every ship boundary of WAL-shipping replication,
//!   crashed on the leader (promote the follower's verified prefix) and on
//!   the follower (salvage, chain handshake, re-ship), plus hostile
//!   transports, a forged divergent tail and seeded drop/duplicate plans.
//!
//! [`run_over`] feeds an externally written log (the network front-end's,
//! see `netbench`) through the append sweep instead of the kit's own run.
//!
//! Every recovery point passes one audit (`Sweep::point`): the salvaged
//! log decodes to exactly the expected clean prefix; every transaction on it
//! is replayed, compensated or discarded (no silent loss); the kit's own
//! consistency audit holds; no lock grant and no mixed-epoch lookup remain;
//! and exactly one [`Event::RecoveryOutcome`] is emitted. Everything derives
//! from the config's seed: two runs with an equal config produce
//! byte-identical outcome logs.

use acc_common::events::{CounterSnapshot, Event, EventSink};
use acc_common::faults::{BoundaryEdge, Corruption, FaultInjector, FaultPlan, ShipPlan};
use acc_common::{Error, Result, SeededRng};
use acc_core::{Acc, InterferenceTables};
use acc_engine::Workload;
use acc_lockmgr::{InstallOutcome, SharedOracle};
use acc_repl::{
    stream_chain, Applied, Follower, MemTransport, Refusal, Replicator, ShipBatch, Shipper,
};
use acc_storage::Database;
use acc_tpcc::TpccKit;
use acc_txn::runner::{self, resume_compensation};
use acc_txn::{SharedDb, WaitMode};
use acc_wal::codec::frame_ends;
use acc_wal::device::temp_log_path;
use acc_wal::{
    recover, sector, FileDevice, FsyncSnapshot, GroupCommitPolicy, LogDevice, LogRecord, Lsn,
    MemDevice, Snooper, Wal,
};
use acc_workloads::{saga, smallbank};
use std::collections::HashSet;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Where crash points come from. Each variant carries its own sample
/// counts; `max_*` caps stride the sweep (always keeping the last point).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CutSource {
    /// Every WAL append index, seeded torn-tail cuts and bit flips, live
    /// injector replays, and one step boundary's two edges (run whenever
    /// `injector > 0`).
    Append {
        /// Cap on swept append indices.
        max_points: usize,
        /// Seeded torn-tail cuts (byte truncations, usually mid-record).
        torn: usize,
        /// Seeded single-bit flips over the full image.
        flips: usize,
        /// Live `crash_after_appends` replays.
        injector: usize,
    },
    /// Every fsync boundary on both devices, plus sector tears.
    Fsync {
        /// Group-commit batch threshold; small values put fsync boundaries
        /// inside steps, so the sweep compensates and discards too.
        max_batch: usize,
        /// Seeded sector tears of the file device's raw image.
        tears: usize,
        /// Live `crash_after_fsyncs` replays.
        injector: usize,
    },
    /// A re-derived table installed at every step boundary, then crash
    /// points recovered under the re-derived tables.
    Reanalysis {
        /// Cap on swept step boundaries.
        max_boundaries: usize,
        /// Cap on append indices recovered under re-derived tables.
        max_points: usize,
        /// Group-commit batch threshold for the fsync-during-drain pass.
        max_batch: usize,
    },
    /// Every ship boundary crashed on both sides, plus hostile transports.
    Ship {
        /// Group-commit batch threshold (fsync, so ship, boundaries fall
        /// mid-transaction).
        max_batch: usize,
        /// Ship batch size target in bytes.
        ship_batch: usize,
        /// Seeded drop/duplicate/delay transport plans.
        plans: usize,
        /// Live `crash_after_ships` pumps.
        injector: usize,
    },
}

impl CutSource {
    /// Short name for report lines.
    pub fn name(&self) -> &'static str {
        match self {
            CutSource::Append { .. } => "append",
            CutSource::Fsync { .. } => "fsync",
            CutSource::Reanalysis { .. } => "reanalysis",
            CutSource::Ship { .. } => "ship",
        }
    }
}

/// One torture run: the seeded mix and where to cut it.
#[derive(Debug, Clone, Copy)]
pub struct TortureConfig {
    /// Master seed for the mix and every sampled cut.
    pub seed: u64,
    /// Transactions in the mix (unused by [`run_over`]).
    pub txns: usize,
    /// The crash-point source.
    pub source: CutSource,
}

/// Aggregate outcome of one kit × source run.
#[derive(Debug, Default)]
pub struct TortureReport {
    /// Kit name.
    pub kit: &'static str,
    /// Source name.
    pub source: &'static str,
    /// Bytes in the baseline WAL image.
    pub wal_bytes: usize,
    /// Boundaries the source enumerated: fsync boundaries per device, step
    /// boundaries, or ship boundaries (0 for append).
    pub boundaries: usize,
    /// Points audited (recoveries plus the ship source's transport points).
    pub points: usize,
    /// Transactions replayed (committed + aborted), summed over recoveries.
    pub replayed: u64,
    /// In-flight transactions compensated, summed over recoveries.
    pub compensated: u64,
    /// In-flight transactions discarded (no durable step), summed.
    pub discarded: u64,
    /// Torn/corrupt records rejected past the clean prefix, summed.
    pub rejected_records: u64,
    /// Audit violations over every point and run. Must be 0.
    pub violations: usize,
    /// Mixed-epoch lookups over every point and run. Must be 0.
    pub mixed_epoch_lookups: u64,
    /// Deepest compensation chain resumed, in completed steps.
    pub max_comp_depth: u32,
    /// Drained switchovers at step boundaries.
    pub switches: usize,
    /// Pins drained across those switchovers.
    pub drained: u64,
    /// Quiescent installs that switched immediately.
    pub immediate_installs: u64,
    /// Batches the follower refused.
    pub refusals: u64,
    /// Shipper rewinds to the follower's verified frontier.
    pub resumes: u64,
    /// One line per point; byte-identical across same-config runs.
    pub log: String,
    /// The harness's event sink (`recoveries` counts recovery points).
    pub counters: CounterSnapshot,
}

impl TortureReport {
    /// The one-line totals of this run: `figures -- torture` prints one per
    /// kit × source, and the outcome log ends with it.
    pub fn totals(&self) -> String {
        format!(
            "[{}] {}: wal={}B boundaries={} points={} replayed={} compensated={} \
             discarded={} rejected={} violations={} mixed_epoch={} depth={} switches={} \
             drained={} immediate={} refused={} resumed={}",
            self.kit,
            self.source,
            self.wal_bytes,
            self.boundaries,
            self.points,
            self.replayed,
            self.compensated,
            self.discarded,
            self.rejected_records,
            self.violations,
            self.mixed_epoch_lookups,
            self.max_comp_depth,
            self.switches,
            self.drained,
            self.immediate_installs,
            self.refusals,
            self.resumes
        )
    }
}

/// Run one kit through one source, cutting the kit's own seeded mix.
/// Errors are harness-level failures (a recovery that itself failed, a
/// broken determinism or framing guarantee); audit violations and
/// mixed-epoch lookups are counted in the report.
pub fn run(kit: &dyn Workload, cfg: &TortureConfig) -> Result<TortureReport> {
    let mut sweep = Sweep::new(kit, cfg);
    match cfg.source {
        CutSource::Append {
            max_points,
            torn,
            flips,
            injector,
        } => {
            let image = sweep.mix(MixSetup::default())?.image;
            sweep.append(&image, max_points, torn, flips, injector)?;
        }
        CutSource::Fsync {
            max_batch,
            tears,
            injector,
        } => sweep.fsync(max_batch, tears, injector)?,
        CutSource::Reanalysis {
            max_boundaries,
            max_points,
            max_batch,
        } => sweep.reanalysis(max_boundaries, max_points, max_batch)?,
        CutSource::Ship {
            max_batch,
            ship_batch,
            plans,
            injector,
        } => sweep.ship(max_batch, ship_batch, plans, injector)?,
    }
    Ok(sweep.finish())
}

/// Run the append sweep over an externally written `image` (recovered into
/// the kit's base and audited by the kit). Only [`CutSource::Append`]
/// without injector samples applies: nothing can re-run a foreign log.
pub fn run_over(kit: &dyn Workload, cfg: &TortureConfig, image: &[u8]) -> Result<TortureReport> {
    let CutSource::Append {
        max_points,
        torn,
        flips,
        injector: 0,
    } = cfg.source
    else {
        return Err(Error::Internal(format!(
            "a given image takes only the append source without injector samples, not {:?}",
            cfg.source
        )));
    };
    let mut sweep = Sweep::new(kit, cfg);
    sweep.append(image, max_points, torn, flips, 0)?;
    Ok(sweep.finish())
}

/// The rows `figures -- torture` runs: every kit through every source,
/// plus (full sweep only) benchmark-scale TPC-C as one more append row.
/// TPC-C keeps the sizes its pinned tallies were measured at; smallbank and
/// the saga keep their seeded mixes, so their baseline WALs too.
pub fn matrix(quick: bool) -> Vec<(Arc<dyn Workload>, TortureConfig)> {
    let tpcc: Arc<dyn Workload> = Arc::new(TpccKit::test(42));
    let smallbank: Arc<dyn Workload> = Arc::new(smallbank::SmallbankKit::build(8));
    let saga: Arc<dyn Workload> = Arc::new(saga::SagaKit::build(6, 4));
    let pick = |full: usize, fast: usize| if quick { fast } else { full };
    let mut rows = Vec::new();
    // TPC-C: the quick append mix is 10 transactions, every other quick mix 8.
    let tpcc_txns = |append: bool| pick(16, if append { 10 } else { 8 });
    // The saga's log is ~3x TPC-C's: bigger ship batches keep the
    // follower-crash re-ships (each re-chains the whole prefix) affordable.
    for (kit, seed, txns, ship_batch) in [
        (&tpcc, 42, None, pick(300, 500)),
        (&smallbank, 0xB4A2, Some(120), pick(300, 500)),
        (&saga, 0x5A6A, Some(110), pick(2000, 3000)),
    ] {
        let sources = [
            CutSource::Append {
                max_points: pick(usize::MAX, 72),
                torn: pick(24, 16),
                flips: pick(16, 8),
                injector: pick(4, 2),
            },
            CutSource::Fsync {
                max_batch: pick(4, 6),
                tears: pick(16, 6),
                injector: pick(3, 2),
            },
            CutSource::Reanalysis {
                max_boundaries: pick(usize::MAX, 16),
                max_points: pick(72, 24),
                max_batch: pick(4, 6),
            },
            CutSource::Ship {
                max_batch: pick(4, 6),
                ship_batch,
                plans: pick(4, 2),
                injector: pick(3, 2),
            },
        ];
        for source in sources {
            let append = matches!(source, CutSource::Append { .. });
            let txns = txns.unwrap_or_else(|| tpcc_txns(append));
            rows.push((Arc::clone(kit), TortureConfig { seed, txns, source }));
        }
    }
    if !quick {
        rows.push((
            Arc::new(TpccKit::benchmark(42)) as _,
            TortureConfig {
                seed: 42,
                txns: 24,
                source: CutSource::Append {
                    max_points: 96,
                    torn: 24,
                    flips: 16,
                    injector: 4,
                },
            },
        ));
    }
    rows
}

/// The `figures -- torture` command: every [`matrix`] row, one totals line
/// each. Exits non-zero on any harness failure, violation or mixed-epoch
/// lookup.
pub fn figure(quick: bool) {
    println!("\n=== crash torture: every kit x every cut-point source ===");
    let mut failed = false;
    for (kit, cfg) in matrix(quick) {
        match run(&*kit, &cfg) {
            Ok(report) => {
                println!("{}", report.totals());
                failed |= report.violations > 0 || report.mixed_epoch_lookups > 0;
            }
            Err(e) => {
                eprintln!(
                    "{} {}: torture harness failed: {e}",
                    kit.name(),
                    cfg.source.name()
                );
                failed = true;
            }
        }
    }
    if failed {
        eprintln!("CONSISTENCY VIOLATIONS under crash torture");
        std::process::exit(1);
    }
}

/// How one run of the seeded mix is set up; the default is the kit's own
/// tables on the in-memory WAL.
#[derive(Default)]
struct MixSetup {
    /// Tables the run boots with instead of the kit's own.
    boot: Option<SharedOracle>,
    /// Install these tables at a 1-based step boundary through the fault
    /// injector's step observer (on an otherwise empty plan).
    at_boundary: Option<(u64, SharedOracle)>,
    /// Install these tables between transactions, before transaction `i`.
    before_txn: Option<(usize, SharedOracle)>,
    /// A snooped `"mem"` or `"file"` WAL device and its group-commit batch.
    device: Option<(&'static str, usize)>,
    /// A live fault plan.
    plan: Option<FaultPlan>,
}

/// What one mix run leaves behind.
struct MixRun {
    /// Every appended record.
    image: Vec<u8>,
    /// Fsync-boundary snapshots (snooped devices only).
    snapshots: Vec<FsyncSnapshot>,
    /// The final raw device image.
    raw: Vec<u8>,
    /// The durable record stream and its record count.
    durable: (Vec<u8>, u64),
    /// What the fault plan captured.
    captured: Option<Vec<u8>>,
    outcome: Option<InstallOutcome>,
    epoch: u64,
    switches: u64,
    mixed: u64,
    violations: usize,
    grants: usize,
    counters: CounterSnapshot,
}

/// Uniquifier for temp log files (tests run concurrently in one process).
static FILE_RUN: AtomicU64 = AtomicU64::new(0);

/// The steps `lo, lo + stride, …` up to `hi`, always including `hi`.
fn strided(lo: usize, hi: usize, stride: usize) -> Vec<usize> {
    let mut out: Vec<usize> = (lo..=hi).step_by(stride).collect();
    if out.last() != Some(&hi) {
        out.push(hi);
    }
    out
}

/// The step boundaries a run crossed: its end-of-step records.
fn step_ends(image: &[u8]) -> usize {
    Wal::from_bytes(image)
        .records()
        .iter()
        .filter(|r| matches!(r, LogRecord::StepEnd { .. }))
        .count()
}

/// `true` when `cut` ends exactly on a frame boundary of `offsets`.
fn on_frame(offsets: &[usize], cut: usize) -> bool {
    cut == 0 || offsets.binary_search(&cut).is_ok()
}

/// Fail the run with a harness-level error unless `cond` holds.
macro_rules! ensure {
    ($cond:expr, $($msg:tt)+) => {
        if !$cond {
            return Err(Error::Internal(format!($($msg)+)));
        }
    };
}

/// One torture run in progress: the kit, its config, and running tallies.
struct Sweep<'a> {
    kit: &'a dyn Workload,
    cfg: &'a TortureConfig,
    acc: Arc<Acc>,
    base: Database,
    sink: Arc<EventSink>,
    report: TortureReport,
}

impl<'a> Sweep<'a> {
    fn new(kit: &'a dyn Workload, cfg: &'a TortureConfig) -> Sweep<'a> {
        Sweep {
            kit,
            cfg,
            acc: kit.acc(),
            base: kit.base(),
            sink: EventSink::enabled(64),
            report: TortureReport {
                kit: kit.name(),
                source: cfg.source.name(),
                ..TortureReport::default()
            },
        }
    }

    fn finish(mut self) -> TortureReport {
        let totals = self.report.totals();
        self.log(format_args!("total: {totals}"));
        self.report.counters = self.sink.counters();
        self.report
    }

    fn log(&mut self, line: std::fmt::Arguments<'_>) {
        let _ = writeln!(self.report.log, "{line}");
    }

    /// A non-recovery point (the ship source's transport checks): counted,
    /// logged, and a violation unless `ok`.
    fn check(&mut self, ok: bool, line: std::fmt::Arguments<'_>) {
        self.report.points += 1;
        self.report.violations += usize::from(!ok);
        self.log(line);
    }

    /// Run the kit's seeded mix single-threaded.
    fn mix(&self, setup: MixSetup) -> Result<MixRun> {
        let kit = self.kit;
        let boot = setup.boot.unwrap_or_else(|| kit.tables() as _);
        let mut shared = SharedDb::new(kit.base(), boot);
        let mut snooped = None;
        let mut path = None;
        if let Some((kind, max_batch)) = setup.device {
            let (dev, snaps): (Box<dyn LogDevice>, _) = if kind == "file" {
                let run = FILE_RUN.fetch_add(1, Ordering::Relaxed);
                let p = temp_log_path(&format!("torture-{}-{}-{run}", kit.name(), self.cfg.seed));
                let (dev, snaps) = Snooper::new(FileDevice::create(&p)?);
                path = Some(p);
                (Box::new(dev), snaps)
            } else {
                let (dev, snaps) = Snooper::new(MemDevice::new());
                (Box::new(dev), snaps)
            };
            shared = shared.with_wal_backend(dev, GroupCommitPolicy { max_batch });
            snooped = Some(snaps);
        }
        // The step observer fires only on an enabled injector, so a
        // boundary install runs under an empty plan.
        let plan = setup
            .plan
            .or(setup.at_boundary.as_ref().map(|_| FaultPlan::default()));
        let injector = plan.map(FaultInjector::with_plan);
        if let Some(f) = &injector {
            shared = shared.with_fault_injector(Arc::clone(f));
        }
        let shared = Arc::new(shared);
        let sink = EventSink::enabled(64);
        shared.set_event_sink(Arc::clone(&sink));
        let outcome = Arc::new(Mutex::new(None));
        if let (Some((at, tables)), Some(f)) = (setup.at_boundary, &injector) {
            let sh = Arc::clone(&shared);
            let out = Arc::clone(&outcome);
            f.set_step_observer(Some(Box::new(move |count| {
                if count == at {
                    let o = sh.install_oracle(Arc::clone(&tables));
                    *out.lock().expect("outcome not poisoned") = Some(o);
                }
            })));
        }
        let mut rng = SeededRng::new(self.cfg.seed ^ kit.mix_salt());
        for i in 0..self.cfg.txns {
            if let Some((at, tables)) = &setup.before_txn {
                if i == *at {
                    let o = shared.install_oracle(Arc::clone(tables));
                    *outcome.lock().expect("outcome not poisoned") = Some(o);
                }
            }
            let mut program = kit.next_program(&mut rng);
            // Single-threaded: deadlocks are impossible and user aborts are
            // part of the mix; hard errors are harness bugs.
            runner::run(&shared, &*self.acc, program.as_mut(), WaitMode::Block)?;
        }
        if let Some(f) = &injector {
            // Dropping the observer breaks its `Arc<SharedDb>` cycle.
            f.set_step_observer(None);
        }
        let len = shared.wal_len();
        if snooped.is_some() && len > 0 {
            // Force-sync the tail (an abort record can trail the last
            // commit) so the final snapshot covers the whole stream.
            shared.sync_wal(Lsn(len as u64 - 1))?;
        }
        let reg = shared.registry();
        let run = MixRun {
            image: shared.wal_bytes(),
            snapshots: snooped
                .map(|s| s.lock().expect("snapshots not poisoned").clone())
                .unwrap_or_default(),
            raw: shared.wal_raw_image(),
            durable: (shared.wal_durable_stream(), shared.durable_wal_records()),
            captured: injector.and_then(|f| f.captured_image()),
            outcome: *outcome.lock().expect("outcome not poisoned"),
            epoch: reg.epoch(),
            switches: reg.switches(),
            mixed: reg.mixed_epoch_lookups(),
            violations: kit.audit(&shared.snapshot_db()).len(),
            grants: shared.total_grants(),
            counters: sink.counters(),
        };
        drop(shared);
        if let Some(p) = path {
            let _ = std::fs::remove_file(p);
        }
        Ok(run)
    }

    /// Run the mix under `plan` and return what the injector captured.
    fn captured(&self, plan: FaultPlan, device: Option<(&'static str, usize)>) -> Result<Vec<u8>> {
        let what = format!("{plan:?}");
        self.mix(MixSetup {
            plan: Some(plan),
            device,
            ..MixSetup::default()
        })?
        .captured
        .ok_or_else(|| Error::Internal(format!("injector never fired for {what}")))
    }

    /// The one audit: salvage `bytes`, check it decodes to exactly `expect`
    /// records, recover into a clone of the base under `tables`, resume
    /// compensation, then check no silent loss, the kit audit, lock and
    /// epoch cleanliness, and emit one [`Event::RecoveryOutcome`].
    fn point(
        &mut self,
        label: std::fmt::Arguments<'_>,
        bytes: &[u8],
        tables: &Arc<InterferenceTables>,
        expect: usize,
        rejected: usize,
    ) -> Result<()> {
        let salvaged = Wal::from_bytes(bytes);
        let decoded = salvaged.len();
        ensure!(
            decoded == expect,
            "{label}: decoded {decoded} records, expected {expect}"
        );
        let on_log: HashSet<_> = salvaged.records().iter().map(|r| r.txn()).collect();
        let mut db = self.base.clone();
        let rec = recover(&mut db, &salvaged)?;
        let shared = SharedDb::new(db, Arc::clone(tables) as _);
        let compensated =
            resume_compensation(&shared, &*self.acc, &rec.needs_compensation, |inf| {
                self.kit.program_for_inflight(inf)
            })?;
        let replayed = rec.committed.len() + rec.aborted.len();
        let discarded = rec.discarded.len();
        // No silent loss: every transaction that reached the salvaged log is
        // in exactly one bucket.
        let accounted = replayed + compensated + discarded;
        ensure!(
            accounted == on_log.len(),
            "{label}: {} txns on log, {accounted} replayed, compensated or discarded",
            on_log.len()
        );
        // Compensation must leave no lock behind; a leak here stalls the
        // next workload a real restart would admit.
        let grants = shared.total_grants();
        ensure!(
            grants == 0,
            "{label}: compensation leaked {grants} lock grants"
        );
        let mixed = shared.registry().mixed_epoch_lookups();
        let violations = self.kit.audit(&shared.snapshot_db()).len();
        let depth = rec
            .needs_compensation
            .iter()
            .map(|inf| inf.steps_completed)
            .max()
            .unwrap_or(0);
        self.sink.emit(Event::RecoveryOutcome {
            replayed: replayed as u32,
            compensated: compensated as u32,
            discarded: discarded as u32,
            rejected_records: rejected as u32,
        });
        let r = &mut self.report;
        r.points += 1;
        r.replayed += replayed as u64;
        r.compensated += compensated as u64;
        r.discarded += discarded as u64;
        r.rejected_records += rejected as u64;
        r.violations += violations;
        r.mixed_epoch_lookups += mixed;
        r.max_comp_depth = r.max_comp_depth.max(depth);
        let _ = writeln!(
            r.log,
            "{label}: decoded={expect} replayed={replayed} compensated={compensated} \
             discarded={discarded} rejected={rejected} violations={violations} depth={depth}"
        );
        Ok(())
    }

    /// Crash at every append index of `image`, plus the sampled cuts.
    fn append(
        &mut self,
        image: &[u8],
        max_points: usize,
        torn: usize,
        flips: usize,
        injector: usize,
    ) -> Result<()> {
        let t = self.kit.tables();
        let offsets: Vec<usize> = frame_ends(image).collect();
        let n = offsets.len();
        self.report.wal_bytes = image.len();
        self.log(format_args!(
            "baseline: seed={} txns={} records={n} image={}B",
            self.cfg.seed,
            self.cfg.txns,
            image.len()
        ));

        let stride = n.div_ceil(max_points).max(1);
        if stride > 1 {
            self.log(format_args!(
                "append sweep: striding by {stride} ({} of {} indices)",
                n / stride + 1,
                n + 1
            ));
        }
        for k in strided(0, n, stride) {
            let cut = if k == 0 { 0 } else { offsets[k - 1] };
            self.point(format_args!("append k={k}"), &image[..cut], &t, k, 0)?;
        }

        let mut rng = SeededRng::new(self.cfg.seed ^ 0x746f_726e); // "torn"
        for _ in 0..torn {
            let cut = 1 + rng.index(image.len() - 1);
            let intact = offsets.partition_point(|&o| o <= cut);
            // A cut strictly inside a frame leaves one torn record behind it.
            let torn_record = usize::from(!on_frame(&offsets, cut));
            self.point(
                format_args!("torn cut={cut}"),
                &image[..cut],
                &t,
                intact,
                torn_record,
            )?;
        }

        let mut rng = SeededRng::new(self.cfg.seed ^ 0x666c_6970); // "flip"
        for _ in 0..flips {
            let byte = rng.index(image.len());
            let bit = rng.index(8) as u8;
            let mut corrupt = image.to_vec();
            corrupt[byte] ^= 1 << bit;
            // Decoding must stop exactly at the frame containing the flip;
            // every record from there on is rejected.
            let intact = offsets.partition_point(|&o| o <= byte);
            let label = format_args!("flip byte={byte} bit={bit}");
            self.point(label, &corrupt, &t, intact, n - intact)?;
        }

        // The live fault injector must capture exactly the prefix the
        // offline sweep cut at the same point.
        let mut rng = SeededRng::new(self.cfg.seed ^ 0x696e_6a65); // "inje"
        for s in 0..injector {
            let k = 1 + rng.index(n);
            // Odd samples also mangle the capture with a torn tail.
            let torn = if s % 2 == 1 { 1 + rng.index(11) } else { 0 };
            let corruption = if torn > 0 {
                Corruption::TornTail(torn as u32)
            } else {
                Corruption::None
            };
            let plan = FaultPlan::crash_after_appends(k as u64).with_corruption(corruption);
            let captured = self.captured(plan, None)?;
            // A mismatch means the workload is not deterministic.
            ensure!(
                captured == image[..offsets[k - 1] - torn],
                "injector capture at append k={k} torn={torn} diverged from the offline prefix"
            );
            let intact = offsets.partition_point(|&o| o <= captured.len());
            let label = format_args!("inject append k={k} torn={torn}");
            self.point(label, &captured, &t, intact, usize::from(torn > 0))?;
        }
        if injector > 0 {
            self.step_edges(image)?;
        }
        Ok(())
    }

    /// The two edges of the middle step boundary differ by exactly the
    /// end-of-step record — the distinction that decides replay-then-
    /// compensate versus discard for the in-flight step.
    fn step_edges(&mut self, image: &[u8]) -> Result<()> {
        let n_boundaries = step_ends(image);
        if n_boundaries == 0 {
            return Ok(());
        }
        let b = (n_boundaries / 2) as u64;
        let before = self.captured(
            FaultPlan::crash_at_step_boundary(b, BoundaryEdge::Before),
            None,
        )?;
        let after = self.captured(
            FaultPlan::crash_at_step_boundary(b, BoundaryEdge::After),
            None,
        )?;
        let (before_recs, after_recs) = (Wal::from_bytes(&before), Wal::from_bytes(&after));
        let last = after_recs.records().last().cloned();
        let Some(LogRecord::StepEnd {
            txn, step_index, ..
        }) = last
        else {
            return Err(Error::Internal(format!(
                "after-edge capture ends in {last:?}"
            )));
        };
        ensure!(
            after_recs.len() == before_recs.len() + 1,
            "boundary edges differ by more than the end-of-step record"
        );
        // After the record the step is durable (steps_completed =
        // step_index + 1, then compensated); before it, it never happened.
        let t = self.kit.tables();
        for (img, recs, label, want) in [
            (&before, &before_recs, "before", step_index),
            (&after, &after_recs, "after", step_index + 1),
        ] {
            let mut db = self.base.clone();
            let durable = recover(&mut db, recs)?
                .needs_compensation
                .iter()
                .find(|inf| inf.txn == txn)
                .map_or(0, |inf| inf.steps_completed);
            ensure!(
                durable == want,
                "boundary {b} {label}-edge: {txn} has {durable} durable steps, expected {want}"
            );
            let label = format_args!("inject boundary b={b} edge={label}");
            self.point(label, img, &t, recs.len(), 0)?;
        }
        Ok(())
    }

    /// Crash at every fsync boundary of both devices, plus sector tears.
    fn fsync(&mut self, max_batch: usize, tears: usize, injector: usize) -> Result<()> {
        let on = |kind| MixSetup {
            device: Some((kind, max_batch)),
            ..MixSetup::default()
        };
        let mem = self.mix(on("mem"))?;
        let file = self.mix(on("file"))?;
        let stream = &mem.image;
        let offsets: Vec<usize> = frame_ends(stream).collect();
        let n_boundaries = mem.snapshots.len();
        self.report.wal_bytes = stream.len();
        self.report.boundaries = n_boundaries;
        self.log(format_args!(
            "baseline: seed={} txns={} max_batch={max_batch} records={} stream={}B boundaries={}",
            self.cfg.seed,
            self.cfg.txns,
            offsets.len(),
            stream.len(),
            n_boundaries
        ));

        // The device changes the format, never the contract: both agree on
        // the final stream and on every boundary's durable stream.
        let durable = |run: &MixRun| run.snapshots.iter().map(|s| s.stream.clone()).collect();
        let mem_durable: Vec<Vec<u8>> = durable(&mem);
        ensure!(
            file.image == *stream && durable(&file) == mem_durable,
            "mem and file devices disagree on the durable streams"
        );
        self.log(format_args!(
            "parity: mem == file at all {n_boundaries} boundaries"
        ));

        // Everything past the durable frontier vanishes: each snapshot must
        // be a whole-frame prefix of the final stream.
        let t = self.kit.tables();
        for (kind, run) in [("mem", &mem), ("file", &file)] {
            for (j, snap) in run.snapshots.iter().enumerate() {
                let cut = snap.stream.len();
                ensure!(
                    stream[..cut] == snap.stream[..] && on_frame(&offsets, cut),
                    "{kind} boundary {j}: durable stream is not a whole-frame prefix"
                );
                let intact = offsets.partition_point(|&o| o <= cut);
                self.point(
                    format_args!("{kind} fsync j={}", j + 1),
                    &snap.stream,
                    &t,
                    intact,
                    0,
                )?;
            }
        }

        // A live `crash_after_fsyncs(j)` run must capture exactly snapshot j.
        let mut rng = SeededRng::new(self.cfg.seed ^ 0x6673_796e); // "fsyn"
        for _ in 0..injector.min(n_boundaries) {
            let j = 1 + rng.index(n_boundaries);
            let captured = self.captured(
                FaultPlan::crash_after_fsyncs(j as u64),
                Some(("mem", max_batch)),
            )?;
            ensure!(
                captured == mem_durable[j - 1],
                "injector capture at fsync j={j} diverged from the snapshot"
            );
            let intact = offsets.partition_point(|&o| o <= captured.len());
            self.point(format_args!("inject fsync j={j}"), &captured, &t, intact, 0)?;
        }

        // A frame that spans a sector boundary, with its second sector torn,
        // must be rejected by the page checksums — the length header alone
        // cannot see it.
        let spanning = std::iter::once(0)
            .chain(offsets.iter().copied())
            .zip(offsets.iter().copied())
            .find(|&(start, end)| start / sector::CAPACITY != (end - 1) / sector::CAPACITY);
        let mut sectors = Vec::new();
        if let Some((start, _)) = spanning {
            sectors.push((start / sector::CAPACITY + 1, Some(start)));
        } else {
            self.log(format_args!(
                "tear spanning-frame: no frame spans a sector (skipped)"
            ));
        }
        let n_sectors = file.raw.len() / sector::SECTOR_SIZE;
        let mut rng = SeededRng::new(self.cfg.seed ^ 0x7465_6172); // "tear"
        sectors.extend((0..tears).map(|_| (rng.index(n_sectors.max(1)), None)));
        for (k, spanning_start) in sectors {
            let mut torn = file.raw.clone();
            Corruption::SectorTear {
                index: k as u64,
                sector_size: sector::SECTOR_SIZE as u32,
            }
            .apply(&mut torn);
            let opened = sector::open(&torn);
            let salvaged = opened.stream.len();
            // Chained checksums: salvage stops at (or before) the torn
            // sector, always an exact byte prefix of the reference.
            let ok = match spanning_start {
                Some(start) => opened.torn && salvaged <= start.max(k * sector::CAPACITY),
                None => {
                    salvaged == (k * sector::CAPACITY).min(stream.len())
                        && stream[..salvaged] == opened.stream
                }
            };
            ensure!(
                ok,
                "tear sector={k}: salvaged {salvaged}B, not the prefix before it"
            );
            let intact = offsets.partition_point(|&o| o <= salvaged);
            let what = ["", "spanning-frame "][usize::from(spanning_start.is_some())];
            let label = format_args!("tear {what}sector={k}");
            self.point(label, &opened.stream, &t, intact, offsets.len() - intact)?;
        }
        Ok(())
    }

    /// A re-derived table at every step boundary, the kit's own switchover
    /// checks, then crash points recovered under re-derived tables.
    fn reanalysis(
        &mut self,
        max_boundaries: usize,
        max_points: usize,
        max_batch: usize,
    ) -> Result<()> {
        let name = self.kit.name();
        let alts = self.kit.alt_tables();
        let alt = |i: usize| Arc::clone(&alts[i % alts.len()]);
        let baseline = self.mix(MixSetup::default())?;
        ensure!(
            baseline.switches == 0 && baseline.epoch == 0 && baseline.grants == 0,
            "{name} baseline switched tables or leaked lock grants"
        );
        self.report.violations += baseline.violations;
        self.report.mixed_epoch_lookups += baseline.mixed;
        let image = baseline.image;
        let offsets: Vec<usize> = frame_ends(&image).collect();
        let n_boundaries = step_ends(&image);
        self.report.wal_bytes = image.len();
        self.report.boundaries = n_boundaries;
        self.log(format_args!(
            "baseline: seed={} txns={} records={} image={}B boundaries={n_boundaries}",
            self.cfg.seed,
            self.cfg.txns,
            offsets.len(),
            image.len()
        ));

        // Each install fires inside a live (pinned) transaction: it must
        // drain exactly that one pin, switch exactly once, never mix epochs,
        // leave no lock, and — being pure metadata — leave the durable
        // history byte-identical.
        let switch = |this: &mut Self, label: &str, setup: MixSetup| -> Result<MixRun> {
            let run = this.mix(setup)?;
            let clean = run.image == image
                && run.outcome == Some(InstallOutcome::Draining { pins: 1 })
                && run.switches == 1
                && run.epoch == 1
                && run.counters.epoch_switches == 1
                && run.counters.epoch_drained_pins == 1
                && run.counters.epoch_parked_admissions == 0
                && run.grants == 0;
            ensure!(
                clean,
                "{name} {label}: outcome {:?}, {} switches, {} grants, wal identical: {}",
                run.outcome,
                run.switches,
                run.grants,
                run.image == image
            );
            this.report.violations += run.violations;
            this.report.mixed_epoch_lookups += run.mixed;
            Ok(run)
        };

        let at = (n_boundaries / 2).max(1) as u64;
        let own: SharedOracle = self.kit.tables();
        let to_own = switch(
            self,
            "default -> own switchover",
            MixSetup {
                boot: Some(Arc::new(InterferenceTables::default())),
                at_boundary: Some((at, own)),
                ..MixSetup::default()
            },
        )?;
        self.log(format_args!(
            "switchover default -> own at b={at}: {:?}, wal identical, mixed={}",
            to_own.outcome.expect("checked"),
            to_own.mixed
        ));

        let stride = n_boundaries.div_ceil(max_boundaries).max(1);
        if stride > 1 {
            self.log(format_args!(
                "switch sweep: striding by {stride} ({} of {n_boundaries} boundaries)",
                n_boundaries / stride + 1
            ));
        }
        for b in strided(1, n_boundaries, stride) {
            let run = switch(
                self,
                &format!("switch at boundary {b}"),
                MixSetup {
                    at_boundary: Some((b as u64, alt(b))),
                    ..MixSetup::default()
                },
            )?;
            self.report.switches += 1;
            self.report.drained += run.counters.epoch_drained_pins;
            self.log(format_args!(
                "switch b={b} alt={}: drained=1 epoch={} mixed={} violations={}",
                b % alts.len(),
                run.epoch,
                run.mixed,
                run.violations
            ));
        }

        // Between transactions the same install switches immediately.
        let half = self.cfg.txns / 2;
        let quiet = self.mix(MixSetup {
            before_txn: Some((half, alt(0))),
            ..MixSetup::default()
        })?;
        ensure!(
            quiet.outcome == Some(InstallOutcome::Immediate { epoch: 1 }) && quiet.image == image,
            "{name} quiescent install after txn {half}: outcome {:?}",
            quiet.outcome
        );
        self.report.immediate_installs += 1;
        self.report.violations += quiet.violations;
        self.report.mixed_epoch_lookups += quiet.mixed;
        self.log(format_args!(
            "quiescent install after txn {half}: immediate epoch=1 mixed={}",
            quiet.mixed
        ));

        // Every salvaged prefix recovers and compensates under re-derived
        // tables (base template ids are stable across edits, so the policy's
        // lock choices stay meaningful).
        let n = offsets.len();
        let stride = n.div_ceil(max_points).max(1);
        if stride > 1 {
            self.log(format_args!(
                "crash sweep: striding by {stride} ({} of {} indices)",
                n / stride + 1,
                n + 1
            ));
        }
        for k in strided(0, n, stride) {
            let cut = if k == 0 { 0 } else { offsets[k - 1] };
            let label = format_args!("crash k={k} alt={}", k % alts.len());
            self.point(label, &image[..cut], &alt(k), k, 0)?;
        }

        // Fsync boundaries inside the drain window recover under the
        // installed tables too.
        let b_mid = (n_boundaries / 2).max(1) as u64;
        let drain = self.mix(MixSetup {
            at_boundary: Some((b_mid, alt(0))),
            device: Some(("mem", max_batch)),
            ..MixSetup::default()
        })?;
        ensure!(
            drain.image == image && drain.switches == 1,
            "{name} fsync-during-drain: {} switches, stream identical: {}",
            drain.switches,
            drain.image == image
        );
        self.report.violations += drain.violations;
        self.report.mixed_epoch_lookups += drain.mixed;
        self.log(format_args!(
            "fsync-during-drain: install at b={b_mid} max_batch={max_batch} boundaries={}",
            drain.snapshots.len()
        ));
        for (j, snap) in drain.snapshots.iter().enumerate() {
            let cut = snap.stream.len();
            ensure!(
                on_frame(&offsets, cut),
                "fsync j={}: cut mid-frame at {cut}",
                j + 1
            );
            let intact = offsets.partition_point(|&o| o <= cut);
            self.point(
                format_args!("fsync j={}", j + 1),
                &snap.stream,
                &alt(0),
                intact,
                0,
            )?;
        }
        Ok(())
    }

    /// A follower standing at exactly `prefix` of the leader's stream, built
    /// by verifying it as one giant batch (chain-checked like any ship).
    fn follower_at(&self, durable: &[u8], prefix: usize, records: u64) -> Result<Follower> {
        let mut f = Follower::new(self.base.clone(), Box::new(MemDevice::new()));
        if prefix > 0 {
            let batch = ShipBatch {
                seq: 0,
                start: 0,
                payload: durable[..prefix].to_vec(),
                chain: stream_chain(&durable[..prefix]),
            };
            match f.apply(&batch) {
                Applied::Accepted { records: got } if got == records => {}
                other => {
                    return Err(Error::Internal(format!(
                        "bootstrap ship of {prefix}B refused: {other:?}"
                    )))
                }
            }
        }
        Ok(f)
    }

    /// Crash every ship boundary on both sides, plus hostile transports.
    fn ship(
        &mut self,
        max_batch: usize,
        ship_batch: usize,
        plans: usize,
        injector: usize,
    ) -> Result<()> {
        let seed = self.cfg.seed;
        let leader = self.mix(MixSetup {
            device: Some(("mem", max_batch)),
            ..MixSetup::default()
        })?;
        let (durable, records) = leader.durable;
        ensure!(
            on_frame(&frame_ends(&durable).collect::<Vec<_>>(), durable.len()),
            "durable stream does not end on a frame boundary"
        );
        self.report.wal_bytes = durable.len();

        // Replicate batch-by-batch over a clean transport so every boundary
        // is observable: boundaries[k] = (offset, records) after k+1 ships.
        let mut shipper = Shipper::new(ship_batch);
        let mut follower = Follower::new(self.base.clone(), Box::new(MemDevice::new()));
        let mut boundaries: Vec<(usize, u64)> = Vec::new();
        while let Some(batch) = shipper.next_batch(&durable) {
            match follower.apply(&batch) {
                Applied::Accepted { .. } => {
                    let p = follower.resume_point();
                    shipper.ack_to(p.offset, p.records);
                    boundaries.push((p.offset as usize, p.records));
                }
                other => {
                    return Err(Error::Internal(format!(
                        "clean baseline ship refused at seq {}: {other:?}",
                        batch.seq
                    )))
                }
            }
        }
        let n = boundaries.len();
        ensure!(
            follower.stream() == durable && follower.replay_lsn() == records,
            "baseline follower diverged at replay frontier {}",
            follower.replay_lsn()
        );
        let follower_violations = self.kit.audit(&follower.snapshot()?).len();
        self.report.violations += follower_violations;
        self.report.boundaries = n;
        self.log(format_args!(
            "baseline: seed={seed} txns={} records={records} stream={}B ship_batch={ship_batch} \
             boundaries={n} follower_violations={follower_violations}",
            self.cfg.txns,
            durable.len()
        ));
        // The shipped frontier clamps the leader's prune watermark
        // (replication lag must never let the leader prune versions a
        // follower read needs).
        {
            let shared = SharedDb::new(self.base.clone(), self.kit.tables() as _);
            let frontier = boundaries[n / 2].1;
            shared.set_shipped_frontier(frontier);
            let w = shared.version_watermark();
            ensure!(
                w <= frontier.checked_sub(1),
                "prune watermark {w:?} ignores shipped frontier {frontier}"
            );
        }

        // Leader crash after every partial ship: promote the follower's
        // verified prefix.
        let t = self.kit.tables();
        for (k, &(off, recs)) in boundaries.iter().enumerate() {
            let label = format_args!("promote k={}", k + 1);
            self.point(label, &durable[..off], &t, recs as usize, 0)?;
        }

        // A live pump with `crash_after_ships(j)` captures exactly the
        // follower stream at boundary j.
        let mut rng = SeededRng::new(seed ^ 0x7368_6970); // "ship"
        for _ in 0..injector {
            let j = rng.int_range(1, n as i64) as u64;
            let faults = FaultInjector::with_plan(FaultPlan::crash_after_ships(j));
            let mut rep = Replicator::new(MemTransport::new(), ship_batch, seed)
                .with_faults(Arc::clone(&faults));
            let mut f = Follower::new(self.base.clone(), Box::new(MemDevice::new()));
            rep.pump(&mut f, &durable, records)?;
            let captured = faults
                .captured_image()
                .ok_or_else(|| Error::Internal(format!("crash_after_ships({j}) never fired")))?;
            ensure!(
                captured == durable[..boundaries[j as usize - 1].0],
                "injector at ship {j}: capture differs from the boundary sweep's cut"
            );
            self.check(
                true,
                format_args!("injector j={j}: captured={}B", captured.len()),
            );
        }

        // Hostile transport at every boundary: stand a follower at the
        // previous boundary; a torn re-ship, a gapped batch and a forged
        // chain are each refused with the frontier held, then the genuine
        // batch lands.
        for (k, &(off, recs)) in boundaries.iter().enumerate() {
            let (prev_off, prev_recs) = if k == 0 { (0, 0) } else { boundaries[k - 1] };
            let mut f = self.follower_at(&durable, prev_off, prev_recs)?;
            let genuine = ShipBatch {
                seq: 0,
                start: prev_off as u64,
                payload: durable[prev_off..off].to_vec(),
                chain: stream_chain(&durable[..off]),
            };
            let mut torn = genuine.clone();
            torn.payload.truncate(torn.payload.len() - 1);
            let torn_refused = matches!(f.apply(&torn), Applied::Refused(Refusal::TornFrame));
            let skip = frame_ends(&genuine.payload).next().expect("a whole frame");
            let gapped = ShipBatch {
                seq: 1,
                start: (prev_off + skip) as u64,
                payload: genuine.payload[skip..].to_vec(),
                chain: genuine.chain,
            };
            let gap_refused = matches!(f.apply(&gapped), Applied::Refused(Refusal::Gap { .. }));
            let mut forged = genuine.clone();
            forged.chain ^= 1;
            let chain_refused = matches!(f.apply(&forged), Applied::Refused(Refusal::Chain { .. }));
            let frontier_held = f.resume_point().offset == prev_off as u64;
            let accepted = matches!(
                f.apply(&genuine),
                Applied::Accepted { records: r } if r == recs - prev_recs
            );
            self.report.refusals += 3;
            self.check(
                torn_refused && gap_refused && chain_refused && frontier_held && accepted,
                format_args!(
                    "hostile k={}: torn={torn_refused} gap={gap_refused} chain={chain_refused} \
                     frontier_held={frontier_held} reship_ok={accepted}",
                    k + 1
                ),
            );
        }

        // Follower crash at every boundary (a torn local write in flight):
        // resume from its own device, chain-handshake, re-ship the rest.
        for (k, &(off, recs)) in boundaries.iter().enumerate() {
            let mut dev = self.follower_at(&durable, off, recs)?.into_device();
            let torn = (seed as usize + k) % 11 + 1;
            dev.stage(&vec![0xEE; torn]);
            let _ = dev.sync();
            let mut f = Follower::resume(self.base.clone(), dev);
            let salvage_ok = f.replay_lsn() == recs;
            let mut rep = Replicator::new(MemTransport::new(), ship_batch, seed ^ k as u64)
                .with_events(Arc::clone(&self.sink));
            rep.resume(&durable, f.resume_point())?;
            let stats = rep.pump(&mut f, &durable, records)?;
            self.report.resumes += 1 + stats.resumes; // the handshake plus any pump rewinds
            let caught_up = f.stream() == durable && f.replay_lsn() == records;
            self.check(
                salvage_ok && caught_up,
                format_args!(
                    "follower-crash k={}: torn_tail={torn}B salvage_ok={salvage_ok} reshipped={} \
                     caught_up={caught_up}",
                    k + 1,
                    stats.records
                ),
            );
        }

        // A follower whose salvaged tail was forged (a whole frame the
        // leader never wrote) is refused at handshake with a typed
        // divergence, never silently re-shipped over.
        {
            let (off, recs) = boundaries[n / 2];
            let mut dev = self.follower_at(&durable, off, recs)?.into_device();
            let mut fake = vec![0u8; 13];
            fake[..4].copy_from_slice(&1u32.to_le_bytes());
            dev.stage(&fake);
            dev.sync()
                .map_err(|e| Error::Internal(format!("divergence staging: {e}")))?;
            let f = Follower::resume(self.base.clone(), dev);
            let mut rep = Replicator::new(MemTransport::new(), ship_batch, seed);
            let diverged = matches!(
                rep.resume(&durable, f.resume_point()),
                Err(Error::Divergence { .. })
            );
            self.check(
                diverged,
                format_args!("divergence: forged_tail=13B typed_refusal={diverged}"),
            );
        }

        // Seeded drop/duplicate/delay/tear plans over the full stream still
        // converge to byte equality.
        for i in 0..plans {
            let plan = ShipPlan::seeded(&mut rng);
            let batch = rng.int_range(120, 700) as usize;
            let mut rep = Replicator::new(MemTransport::with_plan(plan), batch, seed ^ i as u64)
                .with_events(Arc::clone(&self.sink));
            let mut f = Follower::new(self.base.clone(), Box::new(MemDevice::new()));
            let stats = rep.pump(&mut f, &durable, records)?;
            let converged = f.stream() == durable && f.replay_lsn() == records;
            self.report.refusals += stats.refusals;
            self.report.resumes += stats.resumes;
            self.check(
                converged,
                format_args!(
                    "plan i={i}: {plan:?} batch={batch} refused={} resumed={} \
                     converged={converged}",
                    stats.refusals, stats.resumes
                ),
            );
        }
        Ok(())
    }
}
