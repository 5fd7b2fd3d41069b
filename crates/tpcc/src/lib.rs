//! The TPC-C workload, decomposed for the ACC exactly as the paper's
//! evaluation decomposed it (§5).
//!
//! * [`schema`] — the nine TPC-C tables, with page geometry chosen to mirror
//!   Open Ingres's page-level locking (the district table is row-per-page:
//!   it is *the* hot spot);
//! * [`populate`](mod@populate) — deterministic population at a configurable [`Scale`]
//!   (the full spec sizes are impractical for unit tests; benchmarks use a
//!   larger preset);
//! * [`input`] — TPC-C input generation: NURand customer/item selection, the
//!   standard transaction mix, plus the paper's experiment knobs (district
//!   skew for Fig. 2, order-line count and inter-statement compute time for
//!   Fig. 3);
//! * [`txns`] — the five transactions as step-decomposed
//!   [`acc_txn::TxnProgram`]s, runnable under both 2PL and the ACC, and
//!   their rebuild from recovered work areas;
//! * [`decompose`] — step types, assertion templates, semantic declarations
//!   and the interference analysis (the design-time artifact of §5.1);
//! * [`consistency`] — the TPC-C consistency conditions, with the strict
//!   variants that only serializable execution guarantees separated from the
//!   semantic-correctness variants the ACC guarantees;
//! * [`kit`] — [`TpccKit`], the whole family as one `acc_engine::Workload`
//!   (population, tables, policy, seeded mix, in-flight recovery, audit),
//!   which the network front-end serves and the crash-torture harness in
//!   `acc-bench` sweeps;
//! * [`trace`] — the same workload as simulator traces for the figure
//!   harness.

pub mod consistency;
pub mod decompose;
pub mod input;
pub mod kit;
pub mod populate;
pub mod schema;
pub mod trace;
pub mod txns;

pub use decompose::TpccSystem;
pub use input::{InputGen, TpccConfig, TxnKind};
pub use kit::TpccKit;
pub use populate::populate;
pub use schema::{tpcc_catalog, Scale, TableIds};
pub use trace::TpccTraceSource;
