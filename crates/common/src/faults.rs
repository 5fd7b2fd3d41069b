//! Seeded, deterministic fault injection for crash-torture testing.
//!
//! A [`FaultInjector`] is the fault-site analogue of [`crate::events::EventSink`]:
//! components hold an `Arc<FaultInjector>` (or an `Option` of one) and call the
//! site hooks; a disabled injector — the default — costs one branch (and at
//! most one relaxed load) per instrumented operation, so production paths pay
//! essentially nothing.
//!
//! Faults are *planned*, never random at the site: a [`FaultPlan`] names the
//! injection point up front (crash after the Nth WAL append, crash on a given
//! edge of the Nth step boundary, wake every Kth blocked lock wait spuriously)
//! and the injector fires it deterministically. Randomisation, if any, happens
//! in the harness that builds the plan from a [`crate::rng::SeededRng`] — so
//! the same seed always tortures the same points.
//!
//! A "crash" here does not kill the process. The injector captures the durable
//! WAL image exactly as `write(2)` would have left it at the fault point
//! (optionally mangled by a [`Corruption`]) and lets the run continue; the
//! harness later recovers from the captured image as if the process had died
//! there. This is faithful because the WAL image fully determines durable
//! state, and it lets one live run serve as the oracle for its own crash.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Which side of an end-of-step boundary a crash lands on. The two edges are
/// the cases that decide recovery's fate for the in-flight step: a crash
/// *before* the end-of-step record makes the step's updates non-durable
/// (discarded and redone by compensation of earlier steps only), a crash
/// *after* it makes them durable (replayed, then compensated as a completed
/// step).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundaryEdge {
    /// Just before the end-of-step record is appended.
    Before,
    /// Just after the end-of-step record is appended.
    After,
}

impl fmt::Display for BoundaryEdge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BoundaryEdge::Before => write!(f, "before"),
            BoundaryEdge::After => write!(f, "after"),
        }
    }
}

/// Deterministic mangling applied to a captured disk image — what a torn
/// write or a decaying sector leaves behind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Corruption {
    /// Capture the image verbatim.
    #[default]
    None,
    /// Drop the last `n` bytes (a torn final `write(2)`).
    TornTail(u32),
    /// Flip one bit: byte `(n / 8) % len`, bit `n % 8`.
    BitFlip(u64),
    /// Mangle one whole `sector_size`-sized unit (XOR 0x5a over sector
    /// `n % sector_count`) — a torn *page*: the disk persisted garbage (or a
    /// stale version) for exactly one write unit, splitting any frame that
    /// crossed its boundary.
    SectorTear {
        /// Which sector to tear (wrapped by the image's sector count).
        index: u64,
        /// The write-unit size in bytes.
        sector_size: u32,
    },
    /// Drop the last `n` bytes of a *shipped* WAL batch in transit — the
    /// replication analogue of [`Corruption::TornTail`]: the network (or a
    /// dying sender) delivered a prefix of the batch. Distinct from
    /// `TornTail` so plans can say *where* the tear happened; on a byte
    /// image the effect is the same truncation.
    ShipTear(u32),
}

impl Corruption {
    /// Apply the corruption to `image` in place.
    pub fn apply(self, image: &mut Vec<u8>) {
        match self {
            Corruption::None => {}
            Corruption::TornTail(n) | Corruption::ShipTear(n) => {
                let keep = image.len().saturating_sub(n as usize);
                image.truncate(keep);
            }
            Corruption::BitFlip(n) => {
                if !image.is_empty() {
                    let byte = (n / 8) as usize % image.len();
                    image[byte] ^= 1 << (n % 8);
                }
            }
            Corruption::SectorTear { index, sector_size } => {
                let size = sector_size.max(1) as usize;
                let sectors = image.len().div_ceil(size);
                if sectors > 0 {
                    let k = (index as usize) % sectors;
                    let end = ((k + 1) * size).min(image.len());
                    for b in &mut image[k * size..end] {
                        *b ^= 0x5a;
                    }
                }
            }
        }
    }
}

/// What to inject, and where. All sites are optional and independent; an
/// empty plan makes the injector a pure counter.
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultPlan {
    /// Capture the durable image when the `n`th WAL append (1-based)
    /// completes — the crash point includes that record.
    pub crash_after_appends: Option<u64>,
    /// Capture at the `n`th end-of-step boundary (0-based), on the given
    /// edge.
    pub crash_at_step_boundary: Option<(u64, BoundaryEdge)>,
    /// Capture the durable image when the `n`th WAL fsync (1-based)
    /// completes — the crash loses everything past that fsync boundary
    /// (`durable_lsn`), exactly what a real disk can lose.
    pub crash_after_fsyncs: Option<u64>,
    /// Capture when the `n`th ship batch (1-based) is acknowledged — the
    /// leader dies after a partial ship, and whatever the follower verified
    /// so far is all that survives the failover.
    pub crash_after_ships: Option<u64>,
    /// Corruption applied to whichever capture fires first.
    pub corruption: Corruption,
    /// Wake every `k`th blocked lock-wait slice spuriously (before its
    /// timeout), exercising the timeout/re-detection path.
    pub spurious_wake_every: Option<u64>,
}

impl FaultPlan {
    /// Crash when the `n`th WAL append (1-based) completes.
    pub fn crash_after_appends(n: u64) -> FaultPlan {
        FaultPlan {
            crash_after_appends: Some(n),
            ..FaultPlan::default()
        }
    }

    /// Crash on `edge` of the `n`th end-of-step boundary (0-based).
    pub fn crash_at_step_boundary(n: u64, edge: BoundaryEdge) -> FaultPlan {
        FaultPlan {
            crash_at_step_boundary: Some((n, edge)),
            ..FaultPlan::default()
        }
    }

    /// Crash when the `n`th WAL fsync (1-based) completes.
    pub fn crash_after_fsyncs(n: u64) -> FaultPlan {
        FaultPlan {
            crash_after_fsyncs: Some(n),
            ..FaultPlan::default()
        }
    }

    /// Crash when the `n`th ship batch (1-based) is acknowledged.
    pub fn crash_after_ships(n: u64) -> FaultPlan {
        FaultPlan {
            crash_after_ships: Some(n),
            ..FaultPlan::default()
        }
    }

    /// Wake every `k`th blocked lock-wait slice spuriously.
    pub fn spurious_wakes(k: u64) -> FaultPlan {
        FaultPlan {
            spurious_wake_every: Some(k),
            ..FaultPlan::default()
        }
    }

    /// Mangle the captured image with `c`.
    pub fn with_corruption(mut self, c: Corruption) -> FaultPlan {
        self.corruption = c;
        self
    }
}

/// What a misbehaving transport does with one send. Produced by
/// [`ShipPlan::action`]; interpreted by the transport, not the injector —
/// the plan only decides, deterministically, which sends misbehave.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShipAction {
    /// Deliver the batch normally.
    Deliver,
    /// Lose the batch entirely (the sender sees a transient failure).
    Drop,
    /// Deliver the batch twice back to back.
    Duplicate,
    /// Hold the batch back and deliver it after the next `n` sends — a
    /// reordering delay, not a wall-clock one, so plans stay deterministic.
    Delay(u32),
}

/// Deterministic transport-misbehavior plan, the ship-path analogue of
/// [`FaultPlan`]: every decision is a pure function of the 1-based send
/// ordinal, so the same plan over the same stream misbehaves identically.
/// When several sites match one ordinal, the most destructive wins
/// (drop > delay > duplicate): a dropped batch cannot also arrive twice.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShipPlan {
    /// Drop every `k`th send.
    pub drop_every: Option<u64>,
    /// Duplicate every `k`th send.
    pub duplicate_every: Option<u64>,
    /// Delay every `k`th send by `n` later sends.
    pub delay_every: Option<(u64, u32)>,
    /// Mangle the payload of the `n`th send (1-based) with a [`Corruption`]
    /// — typically [`Corruption::ShipTear`] — before it is delivered.
    pub tear_at: Option<(u64, Corruption)>,
}

impl ShipPlan {
    /// Build a plan from a seeded RNG: small periods so the three
    /// misbehaviors interleave rather than always coinciding. Each site is
    /// present with probability 0.7 — some seeded plans are partly clean,
    /// which is itself a case worth covering.
    pub fn seeded(rng: &mut crate::rng::SeededRng) -> ShipPlan {
        let period = |rng: &mut crate::rng::SeededRng| rng.int_range(2, 7) as u64;
        ShipPlan {
            drop_every: rng.chance(0.7).then(|| period(rng)),
            duplicate_every: rng.chance(0.7).then(|| period(rng)),
            delay_every: {
                let fires = rng.chance(0.7);
                fires.then(|| (period(rng), rng.int_range(1, 3) as u32))
            },
            tear_at: None,
        }
    }

    /// The action for the `ordinal`th send (1-based).
    pub fn action(&self, ordinal: u64) -> ShipAction {
        let hits = |k: Option<u64>| matches!(k, Some(k) if k > 0 && ordinal.is_multiple_of(k));
        if hits(self.drop_every) {
            ShipAction::Drop
        } else if let Some((k, n)) = self.delay_every {
            if k > 0 && ordinal.is_multiple_of(k) {
                ShipAction::Delay(n)
            } else if hits(self.duplicate_every) {
                ShipAction::Duplicate
            } else {
                ShipAction::Deliver
            }
        } else if hits(self.duplicate_every) {
            ShipAction::Duplicate
        } else {
            ShipAction::Deliver
        }
    }

    /// The payload corruption for the `ordinal`th send (1-based);
    /// [`Corruption::None`] for all but the planned tear point.
    pub fn corruption(&self, ordinal: u64) -> Corruption {
        match self.tear_at {
            Some((n, c)) if n == ordinal => c,
            _ => Corruption::None,
        }
    }

    /// True if the plan never misbehaves — transports can skip bookkeeping.
    pub fn is_clean(&self) -> bool {
        *self == ShipPlan::default()
    }
}

/// What a misbehaving *client connection* does with one request/response
/// round trip. Produced by [`ConnPlan::action`]; interpreted by the server's
/// deterministic in-memory transport (and by torture harnesses), the same
/// way [`ShipAction`] is interpreted by the ship transport.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnAction {
    /// Behave: send the whole request, read the whole response.
    Deliver,
    /// The client dies mid-send: only the first `n` bytes of the request
    /// frame reach the server, then the connection closes. The request must
    /// never be admitted (a partial frame is not a request).
    DropMidRequest(u32),
    /// The response write tears after `n` bytes — the transaction's fate is
    /// decided server-side, but the client never learns it. The audit must
    /// account for such commits explicitly (committed-but-unacked), never
    /// silently.
    PartialWrite(u32),
    /// Slow-loris: the request arrives one byte per poll over `k` polls.
    /// The server must hold no engine resource while the frame dribbles in.
    SlowLoris(u32),
    /// Connection churn: open and immediately close without sending a
    /// request at all.
    Churn,
}

/// Deterministic connection-misbehavior plan — the front-end analogue of
/// [`ShipPlan`]: every decision is a pure function of the 1-based request
/// ordinal, so the same plan over the same request stream misbehaves
/// identically. When several sites match one ordinal the most destructive
/// wins (churn > drop > partial write > slow-loris): a connection that never
/// sent its request cannot also tear its response.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConnPlan {
    /// Churn (open/close, no request) every `k`th ordinal.
    pub churn_every: Option<u64>,
    /// Drop the connection after `n` request bytes every `k`th ordinal.
    pub drop_mid_request_every: Option<(u64, u32)>,
    /// Tear the response after `n` bytes every `k`th ordinal.
    pub partial_write_every: Option<(u64, u32)>,
    /// Trickle the request one byte per poll every `k`th ordinal.
    pub slow_loris_every: Option<u64>,
    /// Mangle the `n`th request's frame bytes (1-based) with a
    /// [`Corruption`] before delivery — a hostile or bit-rotted client.
    pub tear_at: Option<(u64, Corruption)>,
}

impl ConnPlan {
    /// Build a plan from a seeded RNG: small periods so the misbehaviors
    /// interleave rather than always coinciding. Each site is present with
    /// probability 0.6 — some seeded plans are partly (or wholly) clean,
    /// which is itself a case worth covering.
    pub fn seeded(rng: &mut crate::rng::SeededRng) -> ConnPlan {
        let period = |rng: &mut crate::rng::SeededRng| rng.int_range(3, 9) as u64;
        ConnPlan {
            churn_every: rng.chance(0.6).then(|| period(rng)),
            drop_mid_request_every: {
                let fires = rng.chance(0.6);
                fires.then(|| (period(rng), rng.int_range(1, 20) as u32))
            },
            partial_write_every: {
                let fires = rng.chance(0.6);
                fires.then(|| (period(rng), rng.int_range(1, 20) as u32))
            },
            slow_loris_every: rng.chance(0.6).then(|| period(rng)),
            tear_at: None,
        }
    }

    /// The action for the `ordinal`th request (1-based).
    pub fn action(&self, ordinal: u64) -> ConnAction {
        let hits = |k: Option<u64>| matches!(k, Some(k) if k > 0 && ordinal.is_multiple_of(k));
        let hits2 =
            |k: Option<(u64, u32)>| matches!(k, Some((k, _)) if k > 0 && ordinal.is_multiple_of(k));
        if hits(self.churn_every) {
            ConnAction::Churn
        } else if hits2(self.drop_mid_request_every) {
            let (_, n) = self.drop_mid_request_every.expect("hit");
            ConnAction::DropMidRequest(n)
        } else if hits2(self.partial_write_every) {
            let (_, n) = self.partial_write_every.expect("hit");
            ConnAction::PartialWrite(n)
        } else if hits(self.slow_loris_every) {
            ConnAction::SlowLoris(1)
        } else {
            ConnAction::Deliver
        }
    }

    /// The request-frame corruption for the `ordinal`th request (1-based);
    /// [`Corruption::None`] for all but the planned tear point.
    pub fn corruption(&self, ordinal: u64) -> Corruption {
        match self.tear_at {
            Some((n, c)) if n == ordinal => c,
            _ => Corruption::None,
        }
    }

    /// True if the plan never misbehaves.
    pub fn is_clean(&self) -> bool {
        *self == ConnPlan::default()
    }
}

/// A point-in-time copy of the injector's site counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// WAL appends observed.
    pub wal_appends: u64,
    /// End-of-step boundaries observed (counted once, on the `Before` edge).
    pub step_boundaries: u64,
    /// WAL fsync boundaries observed.
    pub wal_fsyncs: u64,
    /// Acknowledged ship batches observed.
    pub ships: u64,
    /// Blocked lock-wait slices observed.
    pub lock_waits: u64,
    /// Spurious wakeups injected.
    pub spurious_wakes: u64,
}

/// A step-boundary observer (see [`FaultInjector::set_step_observer`]).
pub type StepObserver = Box<dyn Fn(u64) + Send + Sync>;

/// The injector: an enable flag, a plan, per-site counters, at most one
/// captured crash image, and an optional step-boundary observer. Cheap to
/// share (`Arc<FaultInjector>`), inert when disabled.
pub struct FaultInjector {
    enabled: AtomicBool,
    plan: FaultPlan,
    wal_appends: AtomicU64,
    step_boundaries: AtomicU64,
    wal_fsyncs: AtomicU64,
    ships: AtomicU64,
    lock_waits: AtomicU64,
    spurious_wakes: AtomicU64,
    image: Mutex<Option<Vec<u8>>>,
    step_observer: Mutex<Option<StepObserver>>,
}

impl fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FaultInjector")
            .field("enabled", &self.is_enabled())
            .field("plan", &self.plan)
            .field("crashed", &self.crashed())
            .finish()
    }
}

impl Default for FaultInjector {
    fn default() -> Self {
        FaultInjector {
            enabled: AtomicBool::new(false),
            plan: FaultPlan::default(),
            wal_appends: AtomicU64::new(0),
            step_boundaries: AtomicU64::new(0),
            wal_fsyncs: AtomicU64::new(0),
            ships: AtomicU64::new(0),
            lock_waits: AtomicU64::new(0),
            spurious_wakes: AtomicU64::new(0),
            image: Mutex::new(None),
            step_observer: Mutex::new(None),
        }
    }
}

impl FaultInjector {
    /// A disabled injector with an empty plan — the default everywhere.
    pub fn disabled() -> Arc<FaultInjector> {
        Arc::new(FaultInjector::default())
    }

    /// An enabled injector executing `plan`.
    pub fn with_plan(plan: FaultPlan) -> Arc<FaultInjector> {
        Arc::new(FaultInjector {
            enabled: AtomicBool::new(true),
            plan,
            ..FaultInjector::default()
        })
    }

    /// The hot-path guard: one relaxed load.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// The plan this injector executes.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Site hook: one WAL append just completed. `serialize` produces the
    /// durable image *including* the appended record; it is only invoked if
    /// this append is the planned crash point.
    pub fn on_wal_append(&self, serialize: impl FnOnce() -> Vec<u8>) {
        if !self.is_enabled() {
            return;
        }
        let n = self.wal_appends.fetch_add(1, Ordering::Relaxed) + 1;
        if self.plan.crash_after_appends == Some(n) {
            self.capture(serialize());
        }
    }

    /// Site hook: the current end-of-step boundary, on `edge`. Boundaries are
    /// numbered from 0 in the order their `Before` edges occur. The `After`
    /// edge then calls the step observer, if one is set.
    pub fn on_step_boundary(&self, edge: BoundaryEdge, serialize: impl FnOnce() -> Vec<u8>) {
        if !self.is_enabled() {
            return;
        }
        let ord = match edge {
            BoundaryEdge::Before => self.step_boundaries.fetch_add(1, Ordering::Relaxed),
            BoundaryEdge::After => self
                .step_boundaries
                .load(Ordering::Relaxed)
                .saturating_sub(1),
        };
        if self.plan.crash_at_step_boundary == Some((ord, edge)) {
            self.capture(serialize());
        }
        if edge == BoundaryEdge::After {
            if let Some(observe) = self.step_observer.lock().unwrap().as_ref() {
                observe(ord + 1);
            }
        }
    }

    /// Set (or clear) the step-boundary observer: while the injector is
    /// enabled, it receives the 1-based count of each end-of-step boundary
    /// once that step's record is appended (torture harnesses install
    /// re-analyses at exact boundaries through it). It runs under the WAL
    /// append mutex, so it must not touch the log. An observer that holds
    /// the system the injector is installed in must be cleared to break
    /// that cycle.
    pub fn set_step_observer(&self, observer: Option<StepObserver>) {
        *self.step_observer.lock().unwrap() = observer;
    }

    /// Site hook: one WAL group-commit fsync just completed. `serialize`
    /// produces the durable record stream as of this fsync boundary; it is
    /// only invoked if this fsync is the planned crash point.
    pub fn on_wal_fsync(&self, serialize: impl FnOnce() -> Vec<u8>) {
        if !self.is_enabled() {
            return;
        }
        let n = self.wal_fsyncs.fetch_add(1, Ordering::Relaxed) + 1;
        if self.plan.crash_after_fsyncs == Some(n) {
            self.capture(serialize());
        }
    }

    /// Site hook: one ship batch was just verified and acknowledged by the
    /// follower. `serialize` produces the follower's verified stream as of
    /// this acknowledgement — the only bytes that survive a leader death
    /// here; it is only invoked if this ship is the planned crash point.
    pub fn on_ship(&self, serialize: impl FnOnce() -> Vec<u8>) {
        if !self.is_enabled() {
            return;
        }
        let n = self.ships.fetch_add(1, Ordering::Relaxed) + 1;
        if self.plan.crash_after_ships == Some(n) {
            self.capture(serialize());
        }
    }

    /// Site hook: a lock wait is about to park for one timeout slice.
    /// Returns true if this slice should wake spuriously instead of sleeping
    /// its full length.
    pub fn on_lock_wait(&self) -> bool {
        if !self.is_enabled() {
            return false;
        }
        let n = self.lock_waits.fetch_add(1, Ordering::Relaxed) + 1;
        match self.plan.spurious_wake_every {
            Some(k) if k > 0 && n.is_multiple_of(k) => {
                self.spurious_wakes.fetch_add(1, Ordering::Relaxed);
                true
            }
            _ => false,
        }
    }

    fn capture(&self, mut image: Vec<u8>) {
        let mut slot = self.image.lock().unwrap();
        // First capture wins: the crash happened, later faults are moot.
        if slot.is_none() {
            self.plan.corruption.apply(&mut image);
            *slot = Some(image);
        }
    }

    /// True once a planned crash point has fired.
    pub fn crashed(&self) -> bool {
        self.image.lock().unwrap().is_some()
    }

    /// The captured (post-corruption) disk image, if a crash point fired.
    pub fn captured_image(&self) -> Option<Vec<u8>> {
        self.image.lock().unwrap().clone()
    }

    /// Copy out the site counters.
    pub fn counters(&self) -> FaultCounters {
        let get = |a: &AtomicU64| a.load(Ordering::Relaxed);
        FaultCounters {
            wal_appends: get(&self.wal_appends),
            step_boundaries: get(&self.step_boundaries),
            wal_fsyncs: get(&self.wal_fsyncs),
            ships: get(&self.ships),
            lock_waits: get(&self.lock_waits),
            spurious_wakes: get(&self.spurious_wakes),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_injector_is_inert() {
        let f = FaultInjector::disabled();
        f.on_wal_append(|| panic!("must not serialize when disabled"));
        f.on_step_boundary(BoundaryEdge::Before, || panic!("inert"));
        assert!(!f.on_lock_wait());
        assert!(!f.crashed());
        assert_eq!(f.counters(), FaultCounters::default());
    }

    #[test]
    fn crash_after_appends_fires_once_on_the_nth() {
        let f = FaultInjector::with_plan(FaultPlan::crash_after_appends(3));
        for i in 1..=5u8 {
            f.on_wal_append(|| vec![i]);
        }
        assert_eq!(f.captured_image(), Some(vec![3]));
        assert_eq!(f.counters().wal_appends, 5);
    }

    #[test]
    fn first_capture_wins() {
        let f = FaultInjector::with_plan(FaultPlan {
            crash_after_appends: Some(1),
            crash_at_step_boundary: Some((0, BoundaryEdge::Before)),
            ..FaultPlan::default()
        });
        f.on_wal_append(|| vec![1]);
        f.on_step_boundary(BoundaryEdge::Before, || vec![2]);
        assert_eq!(f.captured_image(), Some(vec![1]));
    }

    #[test]
    fn boundary_edges_share_an_ordinal() {
        let before =
            FaultInjector::with_plan(FaultPlan::crash_at_step_boundary(1, BoundaryEdge::Before));
        let after =
            FaultInjector::with_plan(FaultPlan::crash_at_step_boundary(1, BoundaryEdge::After));
        for f in [&before, &after] {
            f.on_step_boundary(BoundaryEdge::Before, || vec![10]); // boundary 0
            f.on_step_boundary(BoundaryEdge::After, || vec![11]);
            f.on_step_boundary(BoundaryEdge::Before, || vec![20]); // boundary 1
            f.on_step_boundary(BoundaryEdge::After, || vec![21]);
        }
        assert_eq!(before.captured_image(), Some(vec![20]));
        assert_eq!(after.captured_image(), Some(vec![21]));
    }

    #[test]
    fn step_observer_sees_after_edges_only_while_enabled() {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let observer = |seen: &Arc<Mutex<Vec<u64>>>| -> StepObserver {
            let seen = Arc::clone(seen);
            Box::new(move |n| seen.lock().unwrap().push(n))
        };
        let f = FaultInjector::with_plan(FaultPlan::default());
        f.set_step_observer(Some(observer(&seen)));
        for _ in 0..3 {
            f.on_step_boundary(BoundaryEdge::Before, || panic!("no capture planned"));
            f.on_step_boundary(BoundaryEdge::After, || panic!("no capture planned"));
        }
        f.set_step_observer(None);
        f.on_step_boundary(BoundaryEdge::Before, || panic!("no capture planned"));
        f.on_step_boundary(BoundaryEdge::After, || panic!("no capture planned"));
        assert_eq!(*seen.lock().unwrap(), [1, 2, 3]);

        let disabled = FaultInjector::disabled();
        disabled.set_step_observer(Some(observer(&seen)));
        disabled.on_step_boundary(BoundaryEdge::After, || panic!("inert"));
        assert_eq!(seen.lock().unwrap().len(), 3);
    }

    #[test]
    fn corruption_applies_at_capture() {
        let f = FaultInjector::with_plan(
            FaultPlan::crash_after_appends(1).with_corruption(Corruption::TornTail(2)),
        );
        f.on_wal_append(|| vec![1, 2, 3, 4, 5]);
        assert_eq!(f.captured_image(), Some(vec![1, 2, 3]));

        let mut img = vec![0u8; 4];
        Corruption::BitFlip(8 * 2 + 5).apply(&mut img);
        assert_eq!(img, vec![0, 0, 1 << 5, 0]);
        // Torn tail longer than the image leaves it empty, not panicking.
        let mut img = vec![1u8, 2];
        Corruption::TornTail(10).apply(&mut img);
        assert!(img.is_empty());
        // Bit flip on an empty image is a no-op.
        let mut img = Vec::new();
        Corruption::BitFlip(3).apply(&mut img);
        assert!(img.is_empty());
    }

    #[test]
    fn crash_after_fsyncs_fires_on_the_nth_boundary() {
        let f = FaultInjector::with_plan(FaultPlan::crash_after_fsyncs(2));
        for i in 1..=4u8 {
            f.on_wal_fsync(|| vec![i; i as usize]);
        }
        assert_eq!(f.captured_image(), Some(vec![2, 2]));
        assert_eq!(f.counters().wal_fsyncs, 4);
    }

    #[test]
    fn sector_tear_mangles_exactly_one_unit() {
        let mut img: Vec<u8> = (0..10u8).collect();
        Corruption::SectorTear {
            index: 1,
            sector_size: 4,
        }
        .apply(&mut img);
        let expect: Vec<u8> = (0..10u8)
            .map(|b| if (4..8).contains(&b) { b ^ 0x5a } else { b })
            .collect();
        assert_eq!(img, expect);
        // Index wraps; a short final sector is torn to the image end.
        let mut img: Vec<u8> = (0..10u8).collect();
        Corruption::SectorTear {
            index: 5, // 3 sectors of size 4 -> sector 2 (bytes 8..10)
            sector_size: 4,
        }
        .apply(&mut img);
        assert_eq!(img[..8], (0..8u8).collect::<Vec<u8>>()[..]);
        assert_eq!(&img[8..], &[8 ^ 0x5a, 9 ^ 0x5a]);
        // Empty image is a no-op.
        let mut img = Vec::new();
        Corruption::SectorTear {
            index: 0,
            sector_size: 512,
        }
        .apply(&mut img);
        assert!(img.is_empty());
    }

    #[test]
    fn crash_after_ships_fires_on_the_nth_ack() {
        let f = FaultInjector::with_plan(FaultPlan::crash_after_ships(2));
        for i in 1..=3u8 {
            f.on_ship(|| vec![i; i as usize]);
        }
        assert_eq!(f.captured_image(), Some(vec![2, 2]));
        assert_eq!(f.counters().ships, 3);
    }

    #[test]
    fn ship_tear_truncates_like_a_torn_tail() {
        let mut img = vec![1u8, 2, 3, 4, 5];
        Corruption::ShipTear(2).apply(&mut img);
        assert_eq!(img, vec![1, 2, 3]);
    }

    #[test]
    fn ship_plan_actions_are_deterministic_and_prioritised() {
        let plan = ShipPlan {
            drop_every: Some(6),
            duplicate_every: Some(2),
            delay_every: Some((3, 1)),
            tear_at: Some((5, Corruption::ShipTear(7))),
        };
        // Ordinal 6 hits all three periods: drop wins. Ordinal 3 hits
        // delay+duplicate: delay wins. Ordinal 2 duplicates, 1 delivers.
        assert_eq!(plan.action(6), ShipAction::Drop);
        assert_eq!(plan.action(3), ShipAction::Delay(1));
        assert_eq!(plan.action(2), ShipAction::Duplicate);
        assert_eq!(plan.action(1), ShipAction::Deliver);
        assert_eq!(plan.corruption(5), Corruption::ShipTear(7));
        assert_eq!(plan.corruption(4), Corruption::None);
        assert!(!plan.is_clean());
        assert!(ShipPlan::default().is_clean());
        // Same ordinal, same answer, forever.
        for i in 1..50 {
            assert_eq!(plan.action(i), plan.action(i));
        }
    }

    #[test]
    fn seeded_ship_plans_are_reproducible() {
        let a = ShipPlan::seeded(&mut crate::rng::SeededRng::new(99));
        let b = ShipPlan::seeded(&mut crate::rng::SeededRng::new(99));
        assert_eq!(a, b);
    }

    #[test]
    fn conn_plan_actions_are_deterministic_and_prioritised() {
        let plan = ConnPlan {
            churn_every: Some(12),
            drop_mid_request_every: Some((4, 7)),
            partial_write_every: Some((3, 5)),
            slow_loris_every: Some(2),
            tear_at: Some((5, Corruption::TornTail(3))),
        };
        // Ordinal 12 hits everything: churn wins. 4 hits drop+loris: drop
        // wins. 3 hits partial+?: partial wins over loris at 6? (6 hits
        // partial(3) and loris(2): partial wins). 2 is loris, 1 delivers.
        assert_eq!(plan.action(12), ConnAction::Churn);
        assert_eq!(plan.action(4), ConnAction::DropMidRequest(7));
        assert_eq!(plan.action(6), ConnAction::PartialWrite(5));
        assert_eq!(plan.action(2), ConnAction::SlowLoris(1));
        assert_eq!(plan.action(1), ConnAction::Deliver);
        assert_eq!(plan.corruption(5), Corruption::TornTail(3));
        assert_eq!(plan.corruption(6), Corruption::None);
        assert!(!plan.is_clean());
        assert!(ConnPlan::default().is_clean());
        for i in 1..50 {
            assert_eq!(plan.action(i), plan.action(i));
        }
    }

    #[test]
    fn seeded_conn_plans_are_reproducible() {
        let a = ConnPlan::seeded(&mut crate::rng::SeededRng::new(7));
        let b = ConnPlan::seeded(&mut crate::rng::SeededRng::new(7));
        assert_eq!(a, b);
    }

    #[test]
    fn spurious_wakes_every_kth_slice() {
        let f = FaultInjector::with_plan(FaultPlan::spurious_wakes(3));
        let fired: Vec<bool> = (0..6).map(|_| f.on_lock_wait()).collect();
        assert_eq!(fired, vec![false, false, true, false, false, true]);
        assert_eq!(f.counters().spurious_wakes, 2);
        assert_eq!(f.counters().lock_waits, 6);
    }
}
