//! # assertional-acc
//!
//! A from-scratch reproduction of *"Design and Performance of an Assertional
//! Concurrency Control System"* (Bernstein, Gerstl, Leung, Lewis — ICDE
//! 1998): a transaction system in which long transactions are decomposed
//! into atomic steps scheduled by an **assertional concurrency control**
//! that guarantees *semantic correctness* — every transaction satisfies its
//! specification — instead of serializability.
//!
//! This crate is the façade over the workspace:
//!
//! * [`common`] — values, ids, seeded RNG, simulated time, fault injection;
//! * [`storage`] — the in-memory relational engine (tables, indices, pages);
//! * [`lockmgr`] — conventional + assertional lock modes, deadlock
//!   detection;
//! * [`wal`] — write-ahead logging with end-of-step records and recovery;
//! * [`txn`] — step-decomposed transaction programs, the strict-2PL
//!   baseline, compensation, and the work-area codec compensable programs
//!   save their recovery state in;
//! * [`acc`] — the paper's contribution: assertion templates, the
//!   design-time interference analysis, and the one-level ACC policy;
//! * [`engine`] — a deterministic interleaving explorer, plus the
//!   `Workload` trait (one whole workload family, implemented once per
//!   family: `tpcc::TpccKit` here, smallbank and the saga in
//!   `acc-workloads`), which the network front-end (`acc-server`) serves and
//!   the crash-torture harness sweeps, and the `RetryPolicy` it retries with;
//! * [`sim`] — the discrete-event simulator behind the figure
//!   reproductions;
//! * [`tpcc`] — the TPC-C workload, decomposed as in the paper's
//!   evaluation, and its `Workload` (`tpcc::TpccKit`).
//!
//! ## Quick start
//!
//! See `examples/quickstart.rs`, or:
//!
//! ```
//! use assertional_acc::prelude::*;
//! use std::sync::Arc;
//!
//! // A one-table database…
//! let mut catalog = Catalog::new();
//! let t = catalog.add_table(
//!     TableSchema::builder("counters")
//!         .column("id", ColumnType::Int)
//!         .column("value", ColumnType::Int)
//!         .key(&["id"])
//!         .build(),
//! );
//! let mut db = Database::new(&catalog);
//! db.table_mut(t).unwrap()
//!     .insert(Row(vec![Value::Int(0), Value::Int(41)])).unwrap();
//!
//! // …a system around it, and a one-step transaction.
//! let shared = SharedDb::new(db, Arc::new(NoInterference));
//! struct Bump;
//! impl TxnProgram for Bump {
//!     fn txn_type(&self) -> TxnTypeId { TxnTypeId(0) }
//!     fn step(&mut self, _i: u32, ctx: &mut StepCtx<'_>) -> Result<StepOutcome> {
//!         ctx.update_key(TableId(0), &Key::ints(&[0]), |r| {
//!             let v = r.int(1);
//!             r.set(1, Value::Int(v + 1));
//!         })?;
//!         Ok(StepOutcome::Done)
//!     }
//! }
//! let out = run(&shared, &TwoPhase, &mut Bump, WaitMode::Block).unwrap();
//! assert!(matches!(out, RunOutcome::Committed { .. }));
//! ```

pub use acc_common as common;
pub use acc_core as acc;
pub use acc_engine as engine;
pub use acc_lockmgr as lockmgr;
pub use acc_sim as sim;
pub use acc_storage as storage;
pub use acc_tpcc as tpcc;
pub use acc_txn as txn;
pub use acc_wal as wal;

/// The most common imports in one place.
pub mod prelude {
    pub use acc_common::{
        AssertionTemplateId, Decimal, Error, ResourceId, Result, StepTypeId, TableId, TxnId,
        TxnTypeId, Value,
    };
    pub use acc_core::{
        Acc, AssertionInstance, AssertionRegistry, Inference, InterferenceTables, StepFootprint,
        StepSpec, TableFootprint, TxnSpec, DIRTY,
    };
    pub use acc_engine::{Stepper, StepperConfig};
    pub use acc_lockmgr::{InterferenceOracle, LockKind, LockMode, NoInterference};
    pub use acc_storage::{Catalog, ColumnType, Database, Key, Predicate, Row, TableSchema};
    pub use acc_txn::{
        run, AbortReason, ConcurrencyControl, RunOutcome, SharedDb, StepCtx, StepOutcome,
        Transaction, TwoPhase, TxnProgram, WaitMode,
    };
    pub use acc_wal::{recover, LogRecord, RecoveryReport, Wal};
}
