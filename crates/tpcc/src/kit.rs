//! TPC-C as one [`Workload`]: the value the network front-end serves and
//! the crash-torture harness sweeps.

use crate::decompose::{TableEdit, TpccSystem};
use crate::input::{InputGen, TpccConfig};
use crate::schema::{tpcc_catalog, Scale};
use crate::{consistency, populate, txns};
use acc_common::{Result, SeededRng};
use acc_core::{Acc, InterferenceTables};
use acc_engine::Workload;
use acc_storage::Database;
use acc_txn::TxnProgram;
use acc_wal::InFlight;
use std::sync::Arc;

/// Salt XORed into the torture seed for the TPC-C mix (`"tort"`).
const TORT_SALT: u64 = 0x746f_7274;

/// TPC-C as a [`Workload`]: the hand-analyzed system over a seeded
/// population, the standard mix, and the three [`TableEdit`] re-analyses
/// as alternative tables.
pub struct TpccKit {
    name: &'static str,
    scale: Scale,
    population: u64,
    sys: TpccSystem,
    gen: InputGen,
}

impl TpccKit {
    /// TPC-C at `scale`: `population` seeds the base database, `input` the
    /// NURand constants of the standard mix.
    pub fn new(scale: Scale, population: u64, input: u64) -> TpccKit {
        TpccKit::named("tpcc", scale, population, input)
    }

    /// TPC-C at [`Scale::test`]; `seed` seeds the population and the NURand
    /// constants, and must equal the torture config's seed.
    pub fn test(seed: u64) -> TpccKit {
        TpccKit::new(Scale::test(), seed, seed)
    }

    /// TPC-C at [`Scale::benchmark`], whose WAL is long enough that the
    /// append sweep strides.
    pub fn benchmark(seed: u64) -> TpccKit {
        TpccKit::named("tpcc-bench", Scale::benchmark(), seed, seed)
    }

    fn named(name: &'static str, scale: Scale, population: u64, input: u64) -> TpccKit {
        TpccKit {
            name,
            scale,
            population,
            sys: TpccSystem::build(),
            gen: InputGen::new(TpccConfig::standard(scale), input),
        }
    }
}

impl Workload for TpccKit {
    fn name(&self) -> &'static str {
        self.name
    }
    fn base(&self) -> Database {
        let mut db = Database::new(&tpcc_catalog());
        populate(&mut db, &self.scale, self.population);
        db
    }
    fn tables(&self) -> Arc<InterferenceTables> {
        Arc::clone(&self.sys.tables)
    }
    fn acc(&self) -> Arc<Acc> {
        Arc::clone(&self.sys.acc)
    }
    fn next_program(&self, rng: &mut SeededRng) -> Box<dyn TxnProgram + Send> {
        txns::program_for(self.gen.next_input(rng), self.scale.districts)
    }
    fn program_for_inflight(&self, inf: &InFlight) -> Result<Box<dyn TxnProgram + Send>> {
        txns::program_for_inflight(inf)
    }
    fn audit(&self, db: &Database) -> Vec<String> {
        consistency::check(db, false)
            .into_iter()
            .map(|v| format!("condition {}: {}", v.condition, v.detail))
            .collect()
    }
    fn mix_salt(&self) -> u64 {
        TORT_SALT
    }
    fn alt_tables(&self) -> Vec<Arc<InterferenceTables>> {
        [
            TableEdit::AddAudit,
            TableEdit::WidenNoLoop,
            TableEdit::RemoveAudit,
        ]
        .map(|e| TpccSystem::reanalyze(e).tables)
        .to_vec()
    }
}
