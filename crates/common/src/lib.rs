//! Shared kernel types for the assertional concurrency control (ACC) workspace.
//!
//! This crate has no knowledge of transactions or locking; it provides the
//! vocabulary every other crate speaks:
//!
//! * [`value`] — dynamically typed column values with a fixed-point
//!   [`value::Decimal`] suitable for money and tax rates,
//! * [`ids`] — strongly typed identifiers for transactions, steps, tables and
//!   lockable resources,
//! * [`error`] — the workspace-wide [`error::Error`] type,
//! * [`rng`] — seeded random generation, Zipf skew and the TPC-C `NURand`
//!   non-uniform distribution,
//! * [`clock`] — [`clock::SimTime`], the discrete-event simulator's time
//!   unit (integer microseconds),
//! * [`events`] — the zero-cost-when-disabled observability sink (structured
//!   lock/step events, atomic counters, `lockstat` dumps),
//! * [`faults`] — seeded, deterministic fault injection (planned crash
//!   points, image corruption, spurious wakeups), disabled by default,
//! * [`frame`] — length-prefixed wire framing with chained checksums, shared
//!   by the replication transport and the network front-end.

pub mod clock;
pub mod error;
pub mod events;
pub mod faults;
pub mod frame;
pub mod ids;
pub mod rng;
pub mod value;

pub use error::{Error, Result};
pub use events::{
    AdmissionVerdict, CounterSnapshot, Event, EventLog, EventSink, KindRepr, TxnList,
};
pub use faults::{
    BoundaryEdge, ConnAction, ConnPlan, Corruption, FaultCounters, FaultInjector, FaultPlan,
    StepObserver,
};
pub use frame::{Decoded, Frame, FrameBuf, StreamChain};
pub use ids::{
    AssertionTemplateId, PageNo, ResourceId, Slot, StepTypeId, TableId, TxnId, TxnTypeId,
};
pub use rng::SeededRng;
pub use value::{Decimal, Value};
