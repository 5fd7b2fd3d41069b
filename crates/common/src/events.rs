//! Cheap, allocation-light observability for the lock/step machinery.
//!
//! An [`EventSink`] combines a fixed-capacity ring buffer of structured
//! [`Event`]s with a set of relaxed atomic counters. Components that want to
//! be observable hold an `Arc<EventSink>` (the lock manager, the transaction
//! runner, the simulator) and call [`EventSink::emit`]; when the sink is
//! disabled — the default — `emit` is a single relaxed load and a branch, so
//! the instrumented hot paths cost essentially nothing.
//!
//! Three consumers sit on top:
//!
//! * counter snapshots ([`EventSink::counters`]) embedded in simulation and
//!   engine reports,
//! * the human-readable [`EventSink::lockstat_dump`] (top contended
//!   resources, wait-time histogram, deadlock cycle traces),
//! * the [`EventLog`] assertion API used by tests to check the paper's
//!   behavioural properties (DESIGN.md §5: a write never meets an
//!   interfering pinned assertion; compensating steps never wait on
//!   assertional locks and are never deadlock victims).

use crate::ids::{AssertionTemplateId, ResourceId, StepTypeId, TableId, TxnId};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Compact, copyable image of a lock kind (the real `LockKind` lives in the
/// lock-manager crate, which depends on this one). Conventional modes are the
/// low values; assertional kinds set the high bit and carry the template id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KindRepr(pub u32);

const ASSERTIONAL_BIT: u32 = 0x8000_0000;

impl KindRepr {
    /// Intention-shared.
    pub const IS: KindRepr = KindRepr(0);
    /// Intention-exclusive.
    pub const IX: KindRepr = KindRepr(1);
    /// Shared.
    pub const S: KindRepr = KindRepr(2);
    /// Shared + intention-exclusive.
    pub const SIX: KindRepr = KindRepr(3);
    /// Exclusive.
    pub const X: KindRepr = KindRepr(4);

    /// The repr of an assertional lock on `template`.
    pub fn assertional(template: AssertionTemplateId) -> KindRepr {
        KindRepr(ASSERTIONAL_BIT | template.raw())
    }

    /// True for assertional kinds.
    pub fn is_assertional(self) -> bool {
        self.0 & ASSERTIONAL_BIT != 0
    }

    /// The template of an assertional kind.
    pub fn template(self) -> Option<AssertionTemplateId> {
        self.is_assertional()
            .then_some(AssertionTemplateId(self.0 & !ASSERTIONAL_BIT))
    }

    /// True for conventional write modes (IX/SIX/X).
    pub fn is_write_mode(self) -> bool {
        matches!(self, KindRepr::IX | KindRepr::SIX | KindRepr::X)
    }
}

impl fmt::Display for KindRepr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            KindRepr::IS => write!(f, "IS"),
            KindRepr::IX => write!(f, "IX"),
            KindRepr::S => write!(f, "S"),
            KindRepr::SIX => write!(f, "SIX"),
            KindRepr::X => write!(f, "X"),
            k => match k.template() {
                Some(t) => write!(f, "A({})", t.raw()),
                None => write!(f, "?({})", k.0),
            },
        }
    }
}

/// A fixed-capacity, copyable list of transaction ids (deadlock cycles are
/// short; anything longer is truncated rather than allocated).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxnList {
    ids: [TxnId; TxnList::CAP],
    len: u8,
}

impl TxnList {
    /// Maximum members kept per list.
    pub const CAP: usize = 8;

    /// Build from a slice, keeping at most [`TxnList::CAP`] entries.
    pub fn from_slice(ids: &[TxnId]) -> TxnList {
        let mut out = TxnList {
            ids: [TxnId(0); TxnList::CAP],
            len: ids.len().min(TxnList::CAP) as u8,
        };
        out.ids[..out.len as usize].copy_from_slice(&ids[..out.len as usize]);
        out
    }

    /// The kept members.
    pub fn as_slice(&self) -> &[TxnId] {
        &self.ids[..self.len as usize]
    }

    /// Membership test.
    pub fn contains(&self, txn: TxnId) -> bool {
        self.as_slice().contains(&txn)
    }
}

impl fmt::Display for TxnList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, t) in self.as_slice().iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{}", t.0)?;
        }
        write!(f, "]")
    }
}

/// What the admission controller decided for one submitted request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionVerdict {
    /// Queued for a worker (within the bounded admission queue).
    Accepted,
    /// Bounced with a typed `Overloaded` before touching the engine.
    Shed,
    /// Expired its deadline — either while queued (rejected without touching
    /// the engine) or mid-run (aborted through the compensation path).
    TimedOut,
}

impl fmt::Display for AdmissionVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmissionVerdict::Accepted => write!(f, "accepted"),
            AdmissionVerdict::Shed => write!(f, "shed"),
            AdmissionVerdict::TimedOut => write!(f, "timed_out"),
        }
    }
}

/// One structured observability event. All variants are `Copy` — recording
/// never allocates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event {
    /// A lock was requested.
    LockRequest {
        /// Requesting transaction.
        txn: TxnId,
        /// Requested resource.
        resource: ResourceId,
        /// Requested kind.
        kind: KindRepr,
        /// The requesting step's design-time type.
        step_type: StepTypeId,
        /// True if issued by a compensating step.
        compensating: bool,
    },
    /// A request was granted (immediately or after a wait).
    LockGranted {
        /// Holding transaction.
        txn: TxnId,
        /// Granted resource.
        resource: ResourceId,
        /// Granted kind (post-upgrade for conventional upgrades).
        kind: KindRepr,
        /// The step type that requested it.
        step_type: StepTypeId,
        /// True if the holder is compensating.
        compensating: bool,
    },
    /// A request could not be granted and was queued.
    LockWait {
        /// Waiting transaction.
        txn: TxnId,
        /// Contested resource.
        resource: ResourceId,
        /// Requested kind.
        kind: KindRepr,
        /// True if issued by a compensating step.
        compensating: bool,
        /// True if some blocking grant is an assertional lock the oracle
        /// says this request interferes with.
        blocked_by_assertion: bool,
        /// True if blocked *only* by FIFO queue position (no grant
        /// conflicts): the conservative denial the interference table is
        /// meant to minimise.
        conservative: bool,
    },
    /// A grant was released.
    LockReleased {
        /// Former holder.
        txn: TxnId,
        /// Released resource.
        resource: ResourceId,
        /// Released kind.
        kind: KindRepr,
    },
    /// An assertional lock (template pin) was granted.
    AssertionPinned {
        /// Pinning transaction.
        txn: TxnId,
        /// Pinned resource.
        resource: ResourceId,
        /// Pinned template.
        template: AssertionTemplateId,
    },
    /// The interference table reported a real step-vs-assertion conflict.
    InterferenceHit {
        /// The blocked requester.
        txn: TxnId,
        /// The requesting step's type.
        step_type: StepTypeId,
        /// The pinned template it interferes with.
        template: AssertionTemplateId,
        /// Where.
        resource: ResourceId,
    },
    /// A wait-for cycle was detected.
    Deadlock {
        /// The cycle members (truncated at [`TxnList::CAP`]).
        cycle: TxnList,
        /// The chosen victims.
        victims: TxnList,
        /// True if the requester that closed the cycle was compensating
        /// (then the victims are the *other* members, paper §3.4).
        compensating_requester: bool,
    },
    /// One transaction was chosen as a deadlock victim.
    DeadlockVictim {
        /// The victim.
        txn: TxnId,
        /// True if the victim had a compensating-step request queued (must
        /// never happen outside the degenerate comp-vs-comp retry).
        compensating: bool,
    },
    /// A rollback began compensating completed steps.
    CompensationStart {
        /// The rolling-back transaction.
        txn: TxnId,
        /// Steps completed and now being semantically undone.
        from_step: u32,
    },
    /// One forward step finished, with its observed latency.
    StepEnd {
        /// The transaction.
        txn: TxnId,
        /// The finished step's position.
        step_index: u32,
        /// Wall/sim time the step took, microseconds.
        micros: u64,
    },
    /// A lock wait ended in a grant, with the observed wait time.
    WaitEnd {
        /// The formerly waiting transaction.
        txn: TxnId,
        /// The resource it waited for.
        resource: ResourceId,
        /// How long it waited, microseconds.
        micros: u64,
    },
    /// One crash-recovery pass finished (torture harness, crash drills):
    /// how every transaction on the salvaged log was accounted for.
    RecoveryOutcome {
        /// Transactions fully replayed (committed or cleanly aborted).
        replayed: u32,
        /// In-flight transactions finished by compensating steps.
        compensated: u32,
        /// In-flight transactions with no durable step, discarded outright.
        discarded: u32,
        /// Log records rejected as torn or corrupt (beyond the clean
        /// prefix).
        rejected_records: u32,
    },
    /// One WAL group-commit flush (write + fsync) completed, making every
    /// record appended before it durable.
    WalFsync {
        /// Records newly made durable by this flush.
        records: u32,
        /// Encoded bytes newly made durable by this flush.
        bytes: u32,
    },
    /// An interference-table switchover completed: re-analyzed tables became
    /// current after every transaction pinned to the old epoch released its
    /// locks (immediate when nothing was pinned).
    EpochSwitch {
        /// The epoch that just became current.
        epoch: u64,
        /// Old-epoch pins the switch drained (0 = immediate).
        drained: u32,
        /// Admissions that parked while the drain was in progress.
        parked: u32,
    },
    /// A read was satisfied from the version chains without touching the
    /// lock manager (the coordination-free fast path).
    VersionRead {
        /// Reading transaction.
        txn: TxnId,
        /// Table read.
        table: TableId,
    },
    /// A version read could not be soundly reconstructed (tainted chain) and
    /// fell back to a conventional locked read.
    VersionFallback {
        /// Reading transaction.
        txn: TxnId,
        /// Table read.
        table: TableId,
    },
    /// One WAL ship batch was verified and acknowledged by the follower.
    ShipBatch {
        /// Log records carried by this batch.
        records: u32,
        /// Payload bytes carried by this batch.
        bytes: u32,
        /// Leader records the follower still lacked *after* applying this
        /// batch — the replication-lag backpressure signal.
        lag: u32,
    },
    /// A ship send failed transiently and is being retried with backoff.
    ShipRetry {
        /// 1-based retry attempt.
        attempt: u32,
    },
    /// The follower refused a batch (torn payload, sequence gap, or broken
    /// chain); the shipper must resume from the last verified frame.
    ShipRefused {
        /// The refused batch's ship sequence number.
        seq: u64,
    },
    /// The shipper rewound to the follower's verified frontier after a
    /// refusal or a follower restart.
    ShipResume {
        /// Stream byte offset resumed from.
        offset: u64,
    },
    /// The admission controller ruled on one submitted request.
    Admission {
        /// The ruling.
        verdict: AdmissionVerdict,
        /// Admission-queue depth observed at the decision (after an accept,
        /// before a shed) — feeds the queue-depth high-water counter.
        queue_depth: u32,
    },
    /// A client connection opened or closed (churn tracking).
    ConnChurn {
        /// True on open, false on close.
        opened: bool,
    },
}

/// Number of wait-histogram buckets (power-of-two microsecond buckets:
/// bucket *i* counts waits in `[2^i, 2^(i+1))` µs, bucket 0 includes 0–1 µs).
pub const WAIT_BUCKETS: usize = 24;

#[derive(Default)]
struct Counters {
    lock_requests: AtomicU64,
    lock_grants: AtomicU64,
    lock_waits: AtomicU64,
    lock_releases: AtomicU64,
    assertion_pins: AtomicU64,
    interference_hits: AtomicU64,
    conservative_denials: AtomicU64,
    deadlocks: AtomicU64,
    deadlock_victims: AtomicU64,
    compensations: AtomicU64,
    steps: AtomicU64,
    step_micros: AtomicU64,
    wait_count: AtomicU64,
    wait_micros: AtomicU64,
    recoveries: AtomicU64,
    recovered_replayed: AtomicU64,
    recovered_compensated: AtomicU64,
    recovered_discarded: AtomicU64,
    rejected_records: AtomicU64,
    wal_fsyncs: AtomicU64,
    wal_fsynced_records: AtomicU64,
    wal_fsynced_bytes: AtomicU64,
    epoch_switches: AtomicU64,
    epoch_drained_pins: AtomicU64,
    epoch_parked_admissions: AtomicU64,
    version_reads: AtomicU64,
    version_fallbacks: AtomicU64,
    ship_batches: AtomicU64,
    ship_records: AtomicU64,
    ship_bytes: AtomicU64,
    ship_retries: AtomicU64,
    ship_refusals: AtomicU64,
    ship_resumes: AtomicU64,
    ship_lag_max: AtomicU64,
    admitted: AtomicU64,
    admission_sheds: AtomicU64,
    deadline_aborts: AtomicU64,
    admission_depth_max: AtomicU64,
    conn_churn: AtomicU64,
}

/// A point-in-time copy of the sink's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Lock requests observed.
    pub lock_requests: u64,
    /// Grants (immediate + after wait).
    pub lock_grants: u64,
    /// Requests that had to queue.
    pub lock_waits: u64,
    /// Grants released.
    pub lock_releases: u64,
    /// Assertional locks granted.
    pub assertion_pins: u64,
    /// Real interference-table conflicts (blocked by an interfering pin).
    pub interference_hits: u64,
    /// Waits caused only by FIFO queue position.
    pub conservative_denials: u64,
    /// Wait-for cycles detected.
    pub deadlocks: u64,
    /// Victims chosen across all cycles.
    pub deadlock_victims: u64,
    /// Compensation rollbacks started.
    pub compensations: u64,
    /// Forward steps completed.
    pub steps: u64,
    /// Total forward-step latency, µs.
    pub step_micros: u64,
    /// Completed lock waits with a recorded duration.
    pub wait_count: u64,
    /// Total recorded lock-wait time, µs.
    pub wait_micros: u64,
    /// Crash-recovery passes observed.
    pub recoveries: u64,
    /// Transactions fully replayed across all recovery passes.
    pub recovered_replayed: u64,
    /// In-flight transactions compensated across all recovery passes.
    pub recovered_compensated: u64,
    /// In-flight transactions discarded across all recovery passes.
    pub recovered_discarded: u64,
    /// Torn/corrupt log records rejected across all recovery passes.
    pub rejected_records: u64,
    /// WAL group-commit flushes (write + fsync) completed.
    pub wal_fsyncs: u64,
    /// Records made durable across all flushes.
    pub wal_fsynced_records: u64,
    /// Encoded bytes made durable across all flushes.
    pub wal_fsynced_bytes: u64,
    /// Interference-table switchovers completed (immediate + drained).
    pub epoch_switches: u64,
    /// Old-epoch pins drained across all switchovers.
    pub epoch_drained_pins: u64,
    /// Admissions parked waiting for a switchover across all drains.
    pub epoch_parked_admissions: u64,
    /// Reads satisfied from version chains, bypassing the lock manager.
    pub version_reads: u64,
    /// Version reads that tainted and fell back to a locked read.
    pub version_fallbacks: u64,
    /// Ship batches verified and acknowledged by the follower.
    pub ship_batches: u64,
    /// Log records shipped across all acknowledged batches.
    pub ship_records: u64,
    /// Payload bytes shipped across all acknowledged batches.
    pub ship_bytes: u64,
    /// Transient ship-send retries.
    pub ship_retries: u64,
    /// Batches the follower refused (torn, gapped, or chain-broken).
    pub ship_refusals: u64,
    /// Shipper rewinds to the follower's verified frontier.
    pub ship_resumes: u64,
    /// Worst follower lag (leader records minus replayed) observed at any
    /// batch acknowledgement — a high-water gauge, not a running total.
    pub ship_lag_max: u64,
    /// Requests the admission controller accepted into the bounded queue.
    pub admitted: u64,
    /// Requests shed with a typed `Overloaded` before touching the engine.
    pub admission_sheds: u64,
    /// Requests that expired their deadline — queued-and-expired rejections
    /// plus mid-run deadline aborts through the compensation path.
    pub deadline_aborts: u64,
    /// Deepest admission queue observed at any decision — a high-water
    /// gauge, not a running total.
    pub admission_depth_max: u64,
    /// Connection open/close events observed (churn).
    pub conn_churn: u64,
}

impl std::ops::Sub for CounterSnapshot {
    type Output = CounterSnapshot;

    /// Per-field saturating difference — turns two cumulative snapshots into
    /// the counts for the interval between them.
    fn sub(self, rhs: CounterSnapshot) -> CounterSnapshot {
        CounterSnapshot {
            lock_requests: self.lock_requests.saturating_sub(rhs.lock_requests),
            lock_grants: self.lock_grants.saturating_sub(rhs.lock_grants),
            lock_waits: self.lock_waits.saturating_sub(rhs.lock_waits),
            lock_releases: self.lock_releases.saturating_sub(rhs.lock_releases),
            assertion_pins: self.assertion_pins.saturating_sub(rhs.assertion_pins),
            interference_hits: self.interference_hits.saturating_sub(rhs.interference_hits),
            conservative_denials: self
                .conservative_denials
                .saturating_sub(rhs.conservative_denials),
            deadlocks: self.deadlocks.saturating_sub(rhs.deadlocks),
            deadlock_victims: self.deadlock_victims.saturating_sub(rhs.deadlock_victims),
            compensations: self.compensations.saturating_sub(rhs.compensations),
            steps: self.steps.saturating_sub(rhs.steps),
            step_micros: self.step_micros.saturating_sub(rhs.step_micros),
            wait_count: self.wait_count.saturating_sub(rhs.wait_count),
            wait_micros: self.wait_micros.saturating_sub(rhs.wait_micros),
            recoveries: self.recoveries.saturating_sub(rhs.recoveries),
            recovered_replayed: self
                .recovered_replayed
                .saturating_sub(rhs.recovered_replayed),
            recovered_compensated: self
                .recovered_compensated
                .saturating_sub(rhs.recovered_compensated),
            recovered_discarded: self
                .recovered_discarded
                .saturating_sub(rhs.recovered_discarded),
            rejected_records: self.rejected_records.saturating_sub(rhs.rejected_records),
            wal_fsyncs: self.wal_fsyncs.saturating_sub(rhs.wal_fsyncs),
            wal_fsynced_records: self
                .wal_fsynced_records
                .saturating_sub(rhs.wal_fsynced_records),
            wal_fsynced_bytes: self.wal_fsynced_bytes.saturating_sub(rhs.wal_fsynced_bytes),
            epoch_switches: self.epoch_switches.saturating_sub(rhs.epoch_switches),
            epoch_drained_pins: self
                .epoch_drained_pins
                .saturating_sub(rhs.epoch_drained_pins),
            epoch_parked_admissions: self
                .epoch_parked_admissions
                .saturating_sub(rhs.epoch_parked_admissions),
            version_reads: self.version_reads.saturating_sub(rhs.version_reads),
            version_fallbacks: self.version_fallbacks.saturating_sub(rhs.version_fallbacks),
            ship_batches: self.ship_batches.saturating_sub(rhs.ship_batches),
            ship_records: self.ship_records.saturating_sub(rhs.ship_records),
            ship_bytes: self.ship_bytes.saturating_sub(rhs.ship_bytes),
            ship_retries: self.ship_retries.saturating_sub(rhs.ship_retries),
            ship_refusals: self.ship_refusals.saturating_sub(rhs.ship_refusals),
            ship_resumes: self.ship_resumes.saturating_sub(rhs.ship_resumes),
            // A high-water mark has no meaningful interval delta; keep the
            // later snapshot's value.
            ship_lag_max: self.ship_lag_max,
            admitted: self.admitted.saturating_sub(rhs.admitted),
            admission_sheds: self.admission_sheds.saturating_sub(rhs.admission_sheds),
            deadline_aborts: self.deadline_aborts.saturating_sub(rhs.deadline_aborts),
            admission_depth_max: self.admission_depth_max,
            conn_churn: self.conn_churn.saturating_sub(rhs.conn_churn),
        }
    }
}

impl CounterSnapshot {
    /// Mean recorded lock-wait time in milliseconds.
    pub fn mean_wait_ms(&self) -> f64 {
        if self.wait_count == 0 {
            0.0
        } else {
            self.wait_micros as f64 / self.wait_count as f64 / 1000.0
        }
    }

    /// Mean forward-step latency in milliseconds.
    pub fn mean_step_ms(&self) -> f64 {
        if self.steps == 0 {
            0.0
        } else {
            self.step_micros as f64 / self.steps as f64 / 1000.0
        }
    }
}

struct Ring {
    buf: Vec<Event>,
    /// Next write position.
    head: usize,
    /// True once the buffer has wrapped.
    wrapped: bool,
}

/// The sink: enable flag + counters + ring buffer. Cheap to share
/// (`Arc<EventSink>`), cheap to ignore (disabled sinks cost one relaxed
/// atomic load per instrumented operation).
pub struct EventSink {
    enabled: AtomicBool,
    capacity: usize,
    counters: Counters,
    wait_hist: [AtomicU64; WAIT_BUCKETS],
    ring: Mutex<Ring>,
}

impl fmt::Debug for EventSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EventSink")
            .field("enabled", &self.is_enabled())
            .field("capacity", &self.capacity)
            .finish()
    }
}

impl Default for EventSink {
    fn default() -> Self {
        EventSink {
            enabled: AtomicBool::new(false),
            capacity: 0,
            counters: Counters::default(),
            wait_hist: std::array::from_fn(|_| AtomicU64::new(0)),
            ring: Mutex::new(Ring {
                buf: Vec::new(),
                head: 0,
                wrapped: false,
            }),
        }
    }
}

impl EventSink {
    /// An enabled sink keeping the last `capacity` events.
    pub fn enabled(capacity: usize) -> Arc<EventSink> {
        let sink = EventSink {
            enabled: AtomicBool::new(true),
            capacity,
            ring: Mutex::new(Ring {
                buf: Vec::with_capacity(capacity),
                head: 0,
                wrapped: false,
            }),
            ..EventSink::default()
        };
        Arc::new(sink)
    }

    /// A disabled, zero-capacity sink — the default everywhere.
    pub fn disabled() -> Arc<EventSink> {
        Arc::new(EventSink::default())
    }

    /// The hot-path guard: one relaxed load.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Record one event: bump its counters and append it to the ring.
    /// No-op when disabled.
    pub fn emit(&self, ev: Event) {
        if !self.is_enabled() {
            return;
        }
        self.count(&ev);
        if self.capacity > 0 {
            let mut ring = self.ring.lock().unwrap();
            let head = ring.head;
            if ring.buf.len() < self.capacity {
                ring.buf.push(ev);
            } else {
                ring.buf[head] = ev;
                ring.wrapped = true;
            }
            ring.head = (head + 1) % self.capacity;
        }
    }

    fn count(&self, ev: &Event) {
        let c = &self.counters;
        let bump = |a: &AtomicU64| {
            a.fetch_add(1, Ordering::Relaxed);
        };
        match *ev {
            Event::LockRequest { .. } => bump(&c.lock_requests),
            Event::LockGranted { .. } => bump(&c.lock_grants),
            Event::LockWait {
                blocked_by_assertion,
                conservative,
                ..
            } => {
                bump(&c.lock_waits);
                // Interference hits are counted by their own event; here we
                // only classify the benign FIFO case.
                let _ = blocked_by_assertion;
                if conservative {
                    bump(&c.conservative_denials);
                }
            }
            Event::LockReleased { .. } => bump(&c.lock_releases),
            Event::AssertionPinned { .. } => bump(&c.assertion_pins),
            Event::InterferenceHit { .. } => bump(&c.interference_hits),
            Event::Deadlock { victims, .. } => {
                bump(&c.deadlocks);
                c.deadlock_victims
                    .fetch_add(victims.as_slice().len() as u64, Ordering::Relaxed);
            }
            Event::DeadlockVictim { .. } => {}
            Event::CompensationStart { .. } => bump(&c.compensations),
            Event::StepEnd { micros, .. } => {
                bump(&c.steps);
                c.step_micros.fetch_add(micros, Ordering::Relaxed);
            }
            Event::WaitEnd { micros, .. } => {
                bump(&c.wait_count);
                c.wait_micros.fetch_add(micros, Ordering::Relaxed);
                let bucket =
                    (64 - micros.max(1).leading_zeros() as usize - 1).min(WAIT_BUCKETS - 1);
                self.wait_hist[bucket].fetch_add(1, Ordering::Relaxed);
            }
            Event::RecoveryOutcome {
                replayed,
                compensated,
                discarded,
                rejected_records,
            } => {
                bump(&c.recoveries);
                let add = |a: &AtomicU64, n: u32| {
                    a.fetch_add(n as u64, Ordering::Relaxed);
                };
                add(&c.recovered_replayed, replayed);
                add(&c.recovered_compensated, compensated);
                add(&c.recovered_discarded, discarded);
                add(&c.rejected_records, rejected_records);
            }
            Event::WalFsync { records, bytes } => {
                bump(&c.wal_fsyncs);
                c.wal_fsynced_records
                    .fetch_add(records as u64, Ordering::Relaxed);
                c.wal_fsynced_bytes
                    .fetch_add(bytes as u64, Ordering::Relaxed);
            }
            Event::EpochSwitch {
                drained, parked, ..
            } => {
                bump(&c.epoch_switches);
                c.epoch_drained_pins
                    .fetch_add(drained as u64, Ordering::Relaxed);
                c.epoch_parked_admissions
                    .fetch_add(parked as u64, Ordering::Relaxed);
            }
            Event::VersionRead { .. } => bump(&c.version_reads),
            Event::VersionFallback { .. } => bump(&c.version_fallbacks),
            Event::ShipBatch {
                records,
                bytes,
                lag,
            } => {
                bump(&c.ship_batches);
                c.ship_records.fetch_add(records as u64, Ordering::Relaxed);
                c.ship_bytes.fetch_add(bytes as u64, Ordering::Relaxed);
                c.ship_lag_max.fetch_max(lag as u64, Ordering::Relaxed);
            }
            Event::ShipRetry { .. } => bump(&c.ship_retries),
            Event::ShipRefused { .. } => bump(&c.ship_refusals),
            Event::ShipResume { .. } => bump(&c.ship_resumes),
            Event::Admission {
                verdict,
                queue_depth,
            } => {
                match verdict {
                    AdmissionVerdict::Accepted => bump(&c.admitted),
                    AdmissionVerdict::Shed => bump(&c.admission_sheds),
                    AdmissionVerdict::TimedOut => bump(&c.deadline_aborts),
                }
                c.admission_depth_max
                    .fetch_max(queue_depth as u64, Ordering::Relaxed);
            }
            Event::ConnChurn { .. } => bump(&c.conn_churn),
        }
    }

    /// Copy out the counters.
    pub fn counters(&self) -> CounterSnapshot {
        let c = &self.counters;
        let get = |a: &AtomicU64| a.load(Ordering::Relaxed);
        CounterSnapshot {
            lock_requests: get(&c.lock_requests),
            lock_grants: get(&c.lock_grants),
            lock_waits: get(&c.lock_waits),
            lock_releases: get(&c.lock_releases),
            assertion_pins: get(&c.assertion_pins),
            interference_hits: get(&c.interference_hits),
            conservative_denials: get(&c.conservative_denials),
            deadlocks: get(&c.deadlocks),
            deadlock_victims: get(&c.deadlock_victims),
            compensations: get(&c.compensations),
            steps: get(&c.steps),
            step_micros: get(&c.step_micros),
            wait_count: get(&c.wait_count),
            wait_micros: get(&c.wait_micros),
            recoveries: get(&c.recoveries),
            recovered_replayed: get(&c.recovered_replayed),
            recovered_compensated: get(&c.recovered_compensated),
            recovered_discarded: get(&c.recovered_discarded),
            rejected_records: get(&c.rejected_records),
            wal_fsyncs: get(&c.wal_fsyncs),
            wal_fsynced_records: get(&c.wal_fsynced_records),
            wal_fsynced_bytes: get(&c.wal_fsynced_bytes),
            epoch_switches: get(&c.epoch_switches),
            epoch_drained_pins: get(&c.epoch_drained_pins),
            epoch_parked_admissions: get(&c.epoch_parked_admissions),
            version_reads: get(&c.version_reads),
            version_fallbacks: get(&c.version_fallbacks),
            ship_batches: get(&c.ship_batches),
            ship_records: get(&c.ship_records),
            ship_bytes: get(&c.ship_bytes),
            ship_retries: get(&c.ship_retries),
            ship_refusals: get(&c.ship_refusals),
            ship_resumes: get(&c.ship_resumes),
            ship_lag_max: get(&c.ship_lag_max),
            admitted: get(&c.admitted),
            admission_sheds: get(&c.admission_sheds),
            deadline_aborts: get(&c.deadline_aborts),
            admission_depth_max: get(&c.admission_depth_max),
            conn_churn: get(&c.conn_churn),
        }
    }

    /// The wait-time histogram (power-of-two µs buckets).
    pub fn wait_histogram(&self) -> [u64; WAIT_BUCKETS] {
        std::array::from_fn(|i| self.wait_hist[i].load(Ordering::Relaxed))
    }

    /// The retained events, oldest first (ring order).
    pub fn events(&self) -> Vec<Event> {
        let ring = self.ring.lock().unwrap();
        if !ring.wrapped {
            ring.buf.clone()
        } else {
            let mut out = Vec::with_capacity(ring.buf.len());
            out.extend_from_slice(&ring.buf[ring.head..]);
            out.extend_from_slice(&ring.buf[..ring.head]);
            out
        }
    }

    /// Human-readable contention report: counter summary, top contended
    /// resources, wait-time histogram, deadlock cycle traces. Built from the
    /// retained ring events plus the counters; suitable for printing on test
    /// failure or from the figures binary.
    pub fn lockstat_dump(&self) -> String {
        use std::fmt::Write as _;
        let c = self.counters();
        let events = self.events();
        let mut out = String::new();
        let _ = writeln!(out, "== lockstat ==");
        let _ = writeln!(
            out,
            "requests {}  grants {}  waits {}  releases {}  pins {}",
            c.lock_requests, c.lock_grants, c.lock_waits, c.lock_releases, c.assertion_pins
        );
        let _ = writeln!(
            out,
            "interference hits {}  conservative denials {}  deadlocks {} ({} victims)  compensations {}",
            c.interference_hits, c.conservative_denials, c.deadlocks, c.deadlock_victims,
            c.compensations
        );
        let _ = writeln!(
            out,
            "steps {} (mean {:.3} ms)  recorded waits {} (mean {:.3} ms)",
            c.steps,
            c.mean_step_ms(),
            c.wait_count,
            c.mean_wait_ms()
        );
        if c.wal_fsyncs > 0 {
            let _ = writeln!(
                out,
                "wal fsyncs {}: {} records, {} bytes ({:.1} records/fsync)",
                c.wal_fsyncs,
                c.wal_fsynced_records,
                c.wal_fsynced_bytes,
                c.wal_fsynced_records as f64 / c.wal_fsyncs as f64
            );
        }
        if c.version_reads > 0 || c.version_fallbacks > 0 {
            let _ = writeln!(
                out,
                "version reads {} (coordination-free)  fallbacks {}",
                c.version_reads, c.version_fallbacks
            );
        }
        if c.ship_batches > 0 || c.ship_refusals > 0 {
            let _ = writeln!(
                out,
                "ship batches {}: {} records, {} bytes; {} retries, {} refused, \
                 {} resumes, max lag {} records",
                c.ship_batches,
                c.ship_records,
                c.ship_bytes,
                c.ship_retries,
                c.ship_refusals,
                c.ship_resumes,
                c.ship_lag_max
            );
        }
        if c.admitted > 0 || c.admission_sheds > 0 || c.deadline_aborts > 0 || c.conn_churn > 0 {
            let _ = writeln!(
                out,
                "admission: {} accepted, {} shed, {} deadline aborts, \
                 queue depth high-water {}; conn churn {}",
                c.admitted,
                c.admission_sheds,
                c.deadline_aborts,
                c.admission_depth_max,
                c.conn_churn
            );
        }
        if c.epoch_switches > 0 {
            let _ = writeln!(
                out,
                "epoch switches {}: {} pins drained, {} admissions parked",
                c.epoch_switches, c.epoch_drained_pins, c.epoch_parked_admissions
            );
        }
        if c.recoveries > 0 {
            let _ = writeln!(
                out,
                "recoveries {}: {} replayed, {} compensated, {} discarded, {} records rejected",
                c.recoveries,
                c.recovered_replayed,
                c.recovered_compensated,
                c.recovered_discarded,
                c.rejected_records
            );
        }

        // Top contended resources by wait events in the ring.
        let mut per_resource: HashMap<ResourceId, (u64, u64)> = HashMap::new(); // (waits, hits)
        for ev in &events {
            match *ev {
                Event::LockWait { resource, .. } => {
                    per_resource.entry(resource).or_default().0 += 1;
                }
                Event::InterferenceHit { resource, .. } => {
                    per_resource.entry(resource).or_default().1 += 1;
                }
                _ => {}
            }
        }
        let mut ranked: Vec<(ResourceId, (u64, u64))> = per_resource.into_iter().collect();
        ranked.sort_by_key(|&(r, (w, h))| (std::cmp::Reverse(w + h), r));
        if !ranked.is_empty() {
            let _ = writeln!(out, "top contended resources (ring window):");
            for (r, (waits, hits)) in ranked.iter().take(10) {
                let _ = writeln!(out, "  {r}: {waits} waits, {hits} interference hits");
            }
        }

        // Wait-time histogram.
        let hist = self.wait_histogram();
        if hist.iter().any(|&n| n > 0) {
            let _ = writeln!(out, "wait-time histogram (µs, power-of-two buckets):");
            let last = hist.iter().rposition(|&n| n > 0).unwrap_or(0);
            for (i, &n) in hist.iter().enumerate().take(last + 1) {
                if n > 0 {
                    let lo = if i == 0 { 0 } else { 1u64 << i };
                    let _ = writeln!(out, "  [{lo:>9} ..): {n}");
                }
            }
        }

        // Deadlock traces.
        let cycles: Vec<&Event> = events
            .iter()
            .filter(|e| matches!(e, Event::Deadlock { .. }))
            .collect();
        if !cycles.is_empty() {
            let _ = writeln!(out, "deadlock cycles (ring window):");
            for ev in cycles.iter().take(20) {
                if let Event::Deadlock {
                    cycle,
                    victims,
                    compensating_requester,
                } = ev
                {
                    let _ = writeln!(
                        out,
                        "  cycle {cycle} -> victims {victims}{}",
                        if *compensating_requester {
                            "  (compensating requester)"
                        } else {
                            ""
                        }
                    );
                }
            }
        }
        out
    }
}

/// Test-facing assertion API over a captured event stream.
#[derive(Debug, Clone)]
pub struct EventLog(pub Vec<Event>);

impl EventLog {
    /// Snapshot a sink's retained events.
    pub fn capture(sink: &EventSink) -> EventLog {
        EventLog(sink.events())
    }

    /// The raw events.
    pub fn events(&self) -> &[Event] {
        &self.0
    }

    /// Count events matching a predicate.
    pub fn count(&self, pred: impl Fn(&Event) -> bool) -> usize {
        self.0.iter().filter(|e| pred(e)).count()
    }

    /// True if any event matches.
    pub fn any(&self, pred: impl Fn(&Event) -> bool) -> bool {
        self.0.iter().any(pred)
    }

    /// Paper §3.4 / DESIGN.md §5 property 6 (first half): a compensating
    /// step never waits on an assertional lock — compensation-protection
    /// locks were taken up front precisely so this cannot happen.
    /// Panics with the offending events otherwise.
    pub fn assert_compensation_never_waits_on_assertions(&self) {
        let bad: Vec<&Event> = self
            .0
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    Event::LockWait {
                        compensating: true,
                        blocked_by_assertion: true,
                        ..
                    }
                )
            })
            .collect();
        assert!(
            bad.is_empty(),
            "compensating steps waited on assertional locks: {bad:?}"
        );
    }

    /// Paper §3.4 / DESIGN.md §5 property 6 (second half): a compensating
    /// step is never chosen as a deadlock victim. The degenerate
    /// compensating-vs-compensating retry is the one tolerated exception and
    /// is reported separately by [`Event::Deadlock`]'s
    /// `compensating_requester` flag; here every explicit victim must be
    /// non-compensating.
    pub fn assert_compensation_never_victimized(&self) {
        let bad: Vec<&Event> = self
            .0
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    Event::DeadlockVictim {
                        compensating: true,
                        ..
                    }
                )
            })
            .collect();
        assert!(
            bad.is_empty(),
            "compensating steps chosen as victims: {bad:?}"
        );
    }

    /// DESIGN.md §5 property 3, checked from the event stream: replay
    /// grants/releases and verify no conventional *write* grant ever lands
    /// on a resource carrying another transaction's assertional pin whose
    /// template the writing step interferes with (per `interferes`).
    pub fn assert_writes_respect_assertions(
        &self,
        interferes: impl Fn(StepTypeId, AssertionTemplateId) -> bool,
    ) {
        // Live pins: resource -> [(txn, template)].
        let mut pins: HashMap<ResourceId, Vec<(TxnId, AssertionTemplateId)>> = HashMap::new();
        for ev in &self.0 {
            match *ev {
                Event::AssertionPinned {
                    txn,
                    resource,
                    template,
                } => pins.entry(resource).or_default().push((txn, template)),
                Event::LockReleased {
                    txn,
                    resource,
                    kind,
                } => {
                    if let Some(t) = kind.template() {
                        if let Some(v) = pins.get_mut(&resource) {
                            if let Some(i) = v.iter().position(|&(tx, tp)| tx == txn && tp == t) {
                                v.swap_remove(i);
                            }
                        }
                    }
                }
                Event::LockGranted {
                    txn,
                    resource,
                    kind,
                    step_type,
                    ..
                } if kind.is_write_mode() => {
                    if let Some(v) = pins.get(&resource) {
                        for &(holder, template) in v {
                            assert!(
                                holder == txn || !interferes(step_type, template),
                                "step {step_type:?} of {txn:?} granted a write on \
                                 {resource} carrying interfering pin {template:?} \
                                 held by {holder:?}"
                            );
                        }
                    }
                }
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const R: ResourceId = ResourceId::Named(7);

    fn t(n: u64) -> TxnId {
        TxnId(n)
    }

    #[test]
    fn disabled_sink_records_nothing() {
        let sink = EventSink::disabled();
        sink.emit(Event::LockRequest {
            txn: t(1),
            resource: R,
            kind: KindRepr::X,
            step_type: StepTypeId(0),
            compensating: false,
        });
        assert_eq!(sink.counters(), CounterSnapshot::default());
        assert!(sink.events().is_empty());
    }

    #[test]
    fn ring_keeps_newest_and_counters_accumulate() {
        let sink = EventSink::enabled(4);
        for i in 0..10u64 {
            sink.emit(Event::LockGranted {
                txn: t(i),
                resource: R,
                kind: KindRepr::S,
                step_type: StepTypeId(0),
                compensating: false,
            });
        }
        let events = sink.events();
        assert_eq!(events.len(), 4);
        // Oldest-first ring order: the last four grants.
        let ids: Vec<u64> = events
            .iter()
            .map(|e| match e {
                Event::LockGranted { txn, .. } => txn.0,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(ids, vec![6, 7, 8, 9]);
        assert_eq!(sink.counters().lock_grants, 10);
    }

    #[test]
    fn wait_histogram_buckets_by_log2() {
        let sink = EventSink::enabled(8);
        for &us in &[0u64, 1, 2, 3, 1000, 1500, 1 << 20] {
            sink.emit(Event::WaitEnd {
                txn: t(1),
                resource: R,
                micros: us,
            });
        }
        let h = sink.wait_histogram();
        assert_eq!(h[0], 2, "0 and 1 µs");
        assert_eq!(h[1], 2, "2 and 3 µs");
        assert_eq!(h[9], 1, "512–1023 µs bucket holds 1000");
        assert_eq!(h[10], 1, "1024–2047 µs bucket holds 1500");
        assert_eq!(h[20], 1);
        let c = sink.counters();
        assert_eq!(c.wait_count, 7);
    }

    #[test]
    fn kind_repr_round_trips_templates() {
        let k = KindRepr::assertional(AssertionTemplateId(42));
        assert!(k.is_assertional());
        assert_eq!(k.template(), Some(AssertionTemplateId(42)));
        assert!(!KindRepr::X.is_assertional());
        assert!(KindRepr::X.is_write_mode());
        assert!(!KindRepr::S.is_write_mode());
        assert_eq!(format!("{k}"), "A(42)");
        assert_eq!(format!("{}", KindRepr::SIX), "SIX");
    }

    #[test]
    fn event_log_property_checks() {
        let sink = EventSink::enabled(16);
        sink.emit(Event::AssertionPinned {
            txn: t(1),
            resource: R,
            template: AssertionTemplateId(3),
        });
        // Txn 1's own write on its pinned resource is fine.
        sink.emit(Event::LockGranted {
            txn: t(1),
            resource: R,
            kind: KindRepr::X,
            step_type: StepTypeId(9),
            compensating: false,
        });
        // A non-interfering foreign write is fine too.
        sink.emit(Event::LockGranted {
            txn: t(2),
            resource: R,
            kind: KindRepr::X,
            step_type: StepTypeId(5),
            compensating: false,
        });
        let log = EventLog::capture(&sink);
        log.assert_writes_respect_assertions(|s, _| s == StepTypeId(9));
        log.assert_compensation_never_waits_on_assertions();
        log.assert_compensation_never_victimized();
    }

    #[test]
    #[should_panic(expected = "interfering pin")]
    fn event_log_catches_violating_write() {
        let sink = EventSink::enabled(16);
        sink.emit(Event::AssertionPinned {
            txn: t(1),
            resource: R,
            template: AssertionTemplateId(3),
        });
        sink.emit(Event::LockGranted {
            txn: t(2),
            resource: R,
            kind: KindRepr::X,
            step_type: StepTypeId(9),
            compensating: false,
        });
        EventLog::capture(&sink).assert_writes_respect_assertions(|_, _| true);
    }

    #[test]
    fn lockstat_dump_mentions_contention() {
        let sink = EventSink::enabled(16);
        sink.emit(Event::LockWait {
            txn: t(2),
            resource: R,
            kind: KindRepr::X,
            compensating: false,
            blocked_by_assertion: true,
            conservative: false,
        });
        sink.emit(Event::InterferenceHit {
            txn: t(2),
            step_type: StepTypeId(1),
            template: AssertionTemplateId(0),
            resource: R,
        });
        sink.emit(Event::Deadlock {
            cycle: TxnList::from_slice(&[t(1), t(2)]),
            victims: TxnList::from_slice(&[t(2)]),
            compensating_requester: false,
        });
        sink.emit(Event::WaitEnd {
            txn: t(2),
            resource: R,
            micros: 777,
        });
        let dump = sink.lockstat_dump();
        assert!(dump.contains("top contended resources"));
        assert!(dump.contains("deadlock cycles"));
        assert!(dump.contains("interference hits 1"));
        assert!(dump.contains("wait-time histogram"));
    }
}
