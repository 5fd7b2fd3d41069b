//! The deterministic scheduler, and the vocabulary shared by everything
//! that drives the transaction runtime.
//!
//! * [`stepper`] — a deterministic, single-threaded scheduler that explores
//!   step-level interleavings reproducibly (seeded). Because ACC steps are
//!   atomic and isolated, *every* concurrent schedule is equivalent to some
//!   serial schedule of steps (§3.1), so exploring serial step schedules
//!   covers the full behaviour space. This is the semantic-correctness test
//!   oracle.
//! * [`stats`] — latency percentiles.
//! * [`Workload`] — a whole workload family: its base database, tables,
//!   policy, seeded programs, crash recovery and audit. Each family
//!   implements it once, in its own crate (`acc_tpcc::TpccKit`, and
//!   `acc-workloads`' smallbank and saga kits); the network front-end
//!   (`acc-server`) and the crash-torture harness (`acc-bench`) consume it.
//! * [`RetryPolicy`] — how a rollback is resubmitted.
//!
//! Wall-clock runs of whole workloads go through the network front-end
//! (`acc-server`): closed-loop terminals submit to its worker pool.

pub mod stats;
pub mod stepper;

pub use stats::LatencyStats;
pub use stepper::{Stepper, StepperConfig, StepperReport};

use acc_common::rng::SeededRng;
use acc_common::Result;
use acc_core::{Acc, InterferenceTables};
use acc_storage::Database;
use acc_txn::TxnProgram;
use acc_wal::InFlight;
use std::sync::Arc;
use std::time::Duration;

/// Salt XORed into the torture seed for a family's program stream unless
/// it overrides [`Workload::mix_salt`] (`"wkld"`).
const WKLD_SALT: u64 = 0x776b_6c64;

// These two stay here because `acc-server` and `acc-repl` already depend on
// this crate for them; moving them would change the dependency edges.

/// A workload family, defined once: a deterministic base database, its
/// interference tables and ACC policy, its seeded program stream, the
/// rebuild of in-flight programs from recovered work areas, and its
/// quiescent audit. The front-end serves any family through this trait,
/// and the crash-torture harness runs every crash sweep and table
/// switchover it knows over any family.
pub trait Workload: Send + Sync {
    /// Family name for report lines.
    fn name(&self) -> &'static str;
    /// A freshly populated base database (deterministic).
    fn base(&self) -> Database;
    /// The family's interference tables.
    fn tables(&self) -> Arc<InterferenceTables>;
    /// The family's ACC policy.
    fn acc(&self) -> Arc<Acc>;
    /// Generate the next transaction.
    fn next_program(&self, rng: &mut SeededRng) -> Box<dyn TxnProgram + Send>;
    /// Rebuild the compensable program for a recovered in-flight
    /// transaction from its durable work area.
    fn program_for_inflight(&self, inf: &InFlight) -> Result<Box<dyn TxnProgram + Send>>;
    /// The family's quiescent consistency audit: one line per violation.
    fn audit(&self, db: &Database) -> Vec<String>;
    /// Salt XORed into the torture seed to seed the program stream.
    fn mix_salt(&self) -> u64 {
        WKLD_SALT
    }
    /// Re-derived tables the re-analysis sweep installs at step boundaries
    /// (cycling through them). The policy must stay interchangeable: base
    /// template ids are preserved.
    fn alt_tables(&self) -> Vec<Arc<InterferenceTables>> {
        vec![Arc::new(InterferenceTables::default())]
    }
}

/// Bounded resubmission of transient failures with seeded full-jitter
/// exponential backoff, at whichever layer resubmits:
///
/// * the front-end's engine side (`ServerConfig::engine_retry` in
///   `acc-server`) reruns deadlock victims and doomed transactions inside
///   one admission;
/// * clients (`Client::call_with_retry`, the open-loop `LoadgenConfig`)
///   resubmit typed `Overloaded` sheds and transient rollbacks as new
///   requests;
/// * the replication pump (`acc-repl`) resends a batch after a transient
///   transport failure.
///
/// User aborts are the transaction's own decision and are never retried.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum resubmissions per transaction (0 disables retry).
    pub max_retries: u32,
    /// Backoff scale for the first retry; doubles each further retry.
    pub base_backoff: Duration,
    /// Ceiling on any single backoff.
    pub max_backoff: Duration,
}

impl RetryPolicy {
    /// Never resubmit — every rollback is final (the abort rate is the
    /// measurement, as in the figure experiments).
    pub fn disabled() -> RetryPolicy {
        RetryPolicy {
            max_retries: 0,
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
        }
    }

    /// Up to 3 resubmissions, 0.5 ms–8 ms full-jitter backoff.
    pub fn standard() -> RetryPolicy {
        RetryPolicy {
            max_retries: 3,
            base_backoff: Duration::from_micros(500),
            max_backoff: Duration::from_millis(8),
        }
    }

    /// The pause before the `attempt`th retry (1-based): full jitter over an
    /// exponentially growing, capped window. Seeded — the same rng stream
    /// gives the same backoff schedule.
    pub fn backoff(&self, attempt: u32, rng: &mut SeededRng) -> Duration {
        if self.base_backoff.is_zero() {
            return Duration::ZERO;
        }
        let window = self
            .base_backoff
            .saturating_mul(1u32 << attempt.saturating_sub(1).min(20))
            .min(self.max_backoff);
        window.mul_f64(rng.f64())
    }
}
