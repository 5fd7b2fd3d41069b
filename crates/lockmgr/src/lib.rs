//! The lock manager: conventional two-phase locks plus the paper's
//! *assertional* lock mode, in one integrated ("one-level") table.
//!
//! # Design
//!
//! The manager is a pure state machine — no threads, no blocking, no clocks.
//! [`LockManager::request`] either grants, enqueues (FIFO), or reports a
//! deadlock; [`LockManager::release_where`] hands back the wait tickets that
//! became grantable. Two frontends drive it:
//!
//! * the discrete-event simulator drives one `LockManager` directly and
//!   turns grant notices into events;
//! * the transaction runtime drives N of them as the shards of a
//!   [`ShardedLockManager`]: the threaded engine parks a waiter on a slot per
//!   ticket, and the deterministic stepper withdraws a contested request and
//!   retries its step later.
//!
//! # Lock kinds
//!
//! [`LockKind::Conventional`] carries a classic `IS/IX/S/SIX/X` mode and
//! follows the textbook compatibility matrix. [`LockKind::Assertional`]
//! carries an [`acc_common::AssertionTemplateId`]; compatibility against writers is *not*
//! fixed but decided by an [`InterferenceOracle`] — the run-time image of the
//! paper's design-time interference tables. The oracle makes exactly three
//! kinds of decisions:
//!
//! * does step type `s` *invalidate* (write-interfere with) assertion
//!   template `t`? — consulted when a writer meets an assertional lock,
//! * does step type `s` *read-interfere* with `t`? — used only by pseudo
//!   assertions such as the `DIRTY` template that isolates legacy
//!   transactions from uncommitted data,
//! * compensation protection: a grant acquired by a write of a compensatable
//!   transaction carries the compensating step type; an assertional request
//!   whose template that compensating step would invalidate is refused, so a
//!   compensating step never waits on an assertional lock (paper §3.4).
//!
//! # Deadlock
//!
//! A wait-for graph is derived from the queues on demand. When a new waiter
//! closes a cycle, the *requester's current step* is the victim — unless the
//! requester is executing a compensating step, in which case the cycle's
//! other members are the victims and the compensating request stays queued
//! (paper §3.4: a compensating step is never aborted). One crate-private
//! function applies this rule to every cycle: enqueue-time detection in both
//! managers and [`ShardedLockManager::detect_from`]'s timeout re-detection.

pub mod manager;
pub mod mode;
pub mod oracle;
pub mod registry;
pub mod request;
pub mod sharded;
mod waitfor;

pub use manager::{GrantNotice, LockManager, RequestOutcome, Ticket};
pub use mode::LockMode;
pub use oracle::{InterferenceOracle, NoInterference, TotalInterference};
pub use registry::{
    EpochPin, InstallOutcome, InterferenceRegistry, PinAttempt, SharedOracle, SwitchStats,
};
pub use request::{LockKind, Request, RequestCtx};
pub use sharded::ShardedLockManager;
pub use waitfor::CycleResolution;
