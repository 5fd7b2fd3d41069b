//! Network front-end for the assertional concurrency control engine.
//!
//! The paper's system (§2) is a transaction *server*: clients submit work
//! over a wire, not through a function call. This crate supplies that
//! missing layer and the robustness properties a front-end owes the engine
//! behind it:
//!
//! - **A framed wire protocol** ([`wire`]) riding the workspace-shared
//!   [`acc_common::frame`] format: length-prefixed, chained-checksum
//!   verified, hostile-length hardened. Rejections are *typed* —
//!   `Overloaded` and `DeadlineExceeded` are distinct responses a client can
//!   act on, never a closed socket it must guess about.
//! - **Admission control** ([`admission`]): a bounded queue between the
//!   transports and a fixed worker pool. Excess open-loop arrivals are shed
//!   before they cost the engine a lock, a WAL byte, or a version-chain
//!   entry; accepted-request latency stays bounded past saturation.
//! - **Per-request deadlines** ([`server`]): a request's budget travels into
//!   the runner, which cancels an expired transaction only at step
//!   boundaries and rolls it back through §3.4 compensation — every lock
//!   released, every version chain finalized, so a deadline response always
//!   means "no net effect".
//! - **Deterministic torture transports** ([`memnet`]): scripted
//!   connection-level faults (drop mid-request, torn response writes,
//!   slow-loris delivery, churn storms) driven by
//!   [`acc_common::faults::ConnPlan`], pure functions of the request
//!   ordinal.
//! - **Load generation** ([`loadgen`]): seeded Poisson arrival schedules
//!   that keep coming past saturation, with client-side resubmission
//!   accounted separately from the server's engine-side retries; and
//!   closed-loop terminals that think, submit one request and wait for its
//!   answer.

pub mod admission;
pub mod loadgen;
pub mod memnet;
pub mod server;
pub mod session;
pub mod wire;

pub use admission::{AdmissionQueue, Job, Offer};
pub use loadgen::{
    run_closed_loop, run_open_loop, Arrival, ArrivalSchedule, ClosedLoopConfig, LoadgenConfig,
    LoadgenReport,
};
pub use memnet::{CallOutcome, MemConn};
pub use server::{serve, Client, Frontend, Host, ServerConfig, WorkloadHost};
pub use session::{Endpoint, Inbound, Outbound};
pub use wire::{Mix, Request, Response, WireAbort};
