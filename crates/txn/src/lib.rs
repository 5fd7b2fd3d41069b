//! The transaction runtime.
//!
//! Workload code writes a [`program::TxnProgram`]: a transaction decomposed
//! into steps (plus one compensating step per prefix, §3.4 of the paper).
//! [`runner::run`] executes a program against a [`shared::SharedDb`] under a
//! pluggable [`cc::ConcurrencyControl`]:
//!
//! * [`cc::TwoPhase`] — the baseline: the whole program is one atomic unit,
//!   strict two-phase locking, physical rollback. This is what the paper's
//!   unmodified Open Ingres does.
//! * `Acc` (in the `acc-core` crate) — step-decomposed execution with
//!   assertional locks: conventional locks released at every step boundary,
//!   rollback by compensating steps.
//!
//! The same program runs unchanged under either control, which is what makes
//! the paper's experiments an apples-to-apples comparison.
//!
//! # Threading
//!
//! [`shared::SharedDb`] decomposes the system's synchronization: page
//! latches inside each table, a sharded lock table, a dedicated WAL
//! append mutex, and per-ticket parking slots for lock waits. Transactions
//! run on arbitrary threads in [`shared::WaitMode::Block`], or single-threaded
//! with [`shared::WaitMode::Fail`] (the deterministic scheduler in
//! `acc-engine` uses this to explore interleavings reproducibly).

pub mod cc;
mod parking;
pub mod program;
pub mod runner;
pub mod shared;
pub mod step;
pub mod transaction;

pub use cc::{ConcurrencyControl, TwoPhase, TxnMeta, LEGACY_STEP};
pub use program::{StepOutcome, TxnProgram};
pub use runner::{run, AbortReason, RunOutcome};
pub use shared::{PublishedCommits, SharedDb, WaitMode};
pub use step::StepCtx;
pub use transaction::{Transaction, TxnState};
