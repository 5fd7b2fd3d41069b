//! What the crash-torture harness (`acc-bench`'s `torture` module) needs to
//! know about a workload family.
//!
//! A [`WorkloadKit`] populates a deterministic base database, generates the
//! family's seeded programs (it is an [`acc_engine::Workload`], so the same
//! stream also drives closed-loop runs), rebuilds in-flight programs from
//! recovered work areas, and audits its own invariants. Any family that can
//! do those four things gets every crash sweep and every table-switchover
//! check the harness knows.

use acc_common::Result;
use acc_core::{Acc, InterferenceTables};
use acc_storage::Database;
use acc_txn::TxnProgram;
use acc_wal::InFlight;
use std::sync::Arc;

use crate::{saga, smallbank};

/// Salt XORed into the torture seed for the smallbank and saga mixes
/// (`"wkld"`).
const WKLD_SALT: u64 = 0x776b_6c64;

/// Everything the torture harness needs to know about a workload family.
pub trait WorkloadKit: acc_engine::Workload {
    /// Family name for report lines.
    fn name(&self) -> &'static str;
    /// A freshly populated base database (deterministic).
    fn base(&self) -> Database;
    /// The family's interference tables.
    fn tables(&self) -> Arc<InterferenceTables>;
    /// The family's ACC policy.
    fn acc(&self) -> Arc<Acc>;
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

impl acc_engine::Workload for smallbank::SmallbankKit {
    fn next_program(&self, rng: &mut acc_common::SeededRng) -> Box<dyn TxnProgram + Send> {
        smallbank::SmallbankKit::next_program(self, rng)
    }
}

impl WorkloadKit for smallbank::SmallbankKit {
    fn name(&self) -> &'static str {
        "smallbank"
    }
    fn base(&self) -> Database {
        smallbank::populate(self.accounts)
    }
    fn tables(&self) -> Arc<InterferenceTables> {
        Arc::clone(&self.tables)
    }
    fn acc(&self) -> Arc<Acc> {
        Arc::clone(&self.acc)
    }
    fn program_for_inflight(&self, inf: &InFlight) -> Result<Box<dyn TxnProgram + Send>> {
        smallbank::SmallbankKit::program_for_inflight(self, inf)
    }
    fn audit(&self, db: &Database) -> Vec<String> {
        smallbank::audit(db)
    }
}

impl acc_engine::Workload for saga::SagaKit {
    fn next_program(&self, rng: &mut acc_common::SeededRng) -> Box<dyn TxnProgram + Send> {
        saga::SagaKit::next_program(self, rng)
    }
}

impl WorkloadKit for saga::SagaKit {
    fn name(&self) -> &'static str {
        "saga"
    }
    fn base(&self) -> Database {
        saga::populate(self.skus, self.customers)
    }
    fn tables(&self) -> Arc<InterferenceTables> {
        Arc::clone(&self.tables)
    }
    fn acc(&self) -> Arc<Acc> {
        Arc::clone(&self.acc)
    }
    fn program_for_inflight(&self, inf: &InFlight) -> Result<Box<dyn TxnProgram + Send>> {
        saga::SagaKit::program_for_inflight(self, inf)
    }
    fn audit(&self, db: &Database) -> Vec<String> {
        saga::audit(db)
    }
}
