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
//! * [`Workload`] and [`RetryPolicy`] — what a front-end host draws its
//!   programs from, and how a rollback is resubmitted.
//!
//! Wall-clock runs of whole workloads go through the network front-end
//! (`acc-server`): closed-loop terminals submit to its worker pool.

pub mod stats;
pub mod stepper;

pub use stats::LatencyStats;
pub use stepper::{Stepper, StepperConfig, StepperReport};

use acc_common::rng::SeededRng;
use acc_txn::TxnProgram;
use std::time::Duration;

// These two stay here because `acc-server` and `acc-repl` already depend on
// this crate for them; moving them would change the dependency edges.

/// Produces a workload family's stream of transaction programs: the same
/// seeded draw feeds the front-end's hosts and the crash-torture harness.
pub trait Workload: Send + Sync {
    /// Generate the next transaction.
    fn next_program(&self, rng: &mut SeededRng) -> Box<dyn TxnProgram + Send>;
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
