//! The three workloads: sizes, benchmark-side hosts, the seeded request
//! schedule, and engine construction (stock or traced).

use crate::trace::{CountingDevice, CountingOracle, Tracer};
use acc_common::{SeededRng, TxnTypeId};
use acc_core::InterferenceTables;
use acc_server::{Frontend, Host, Mix, ServerConfig};
use acc_storage::Database;
use acc_tpcc::decompose::ty as tpcc_ty;
use acc_tpcc::{populate as tpcc_populate, tpcc_catalog, InputGen, Scale, TpccConfig, TpccSystem};
use acc_txn::{ConcurrencyControl, SharedDb, TxnProgram};
use acc_wal::{GroupCommitPolicy, MemDevice};
use acc_workloads::smallbank::{self, SmallbankKit};
use std::collections::HashSet;
use std::sync::Arc;

/// Front-end worker threads on every workload.
pub const WORKERS: usize = 2;
/// Requests outstanding in the closed loop (two per worker, zero think
/// time: the paper's terminals).
pub const OUTSTANDING: usize = 4;

/// Salt of the request-seed stream.
const SCHEDULE_SALT: u64 = 0x7363_6865_6475_6c65;

/// TPC-C population and NURand seed. The database is the same in every
/// round; the round seed varies only the request stream.
const POPULATION_SEED: u64 = 42;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's workload: the standard TPC-C mix on `Frontend::tpcc`.
    Tpcc,
    /// The standard smallbank mix on `Frontend::smallbank`.
    Smallbank,
    /// 90% balance inquiries plus 10% of the standard smallbank mix.
    SmallbankReads,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::Tpcc,
        Workload::Smallbank,
        Workload::SmallbankReads,
    ];

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Command-line and report name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Tpcc => "tpcc",
            Workload::Smallbank => "smallbank",
            Workload::SmallbankReads => "smallbank-reads",
        }
    }

    /// Requests per round: `(warm-up, measured)`. Per-request cost grows
    /// with history (the log is never truncated), so rounds are bounded by
    /// request count, never by wall time.
    pub fn requests(self) -> (usize, usize) {
        match self {
            Workload::Tpcc => (300, 3_000),
            Workload::Smallbank => (3_000, 30_000),
            Workload::SmallbankReads => (5_000, 75_000),
        }
    }

    /// Does a transaction of type `t` write?
    pub fn writes(self, t: TxnTypeId) -> bool {
        match self {
            Workload::Tpcc => t != tpcc_ty::ORDER_STATUS && t != tpcc_ty::STOCK_LEVEL,
            Workload::Smallbank | Workload::SmallbankReads => t != smallbank::ty::BALANCE,
        }
    }
}

/// Everything one round is built from.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Which workload.
    pub workload: Workload,
    /// Round seed: the request seeds derive from it.
    pub seed: u64,
    /// TPC-C scale.
    pub scale: Scale,
    /// Smallbank accounts.
    pub accounts: i64,
    /// Front-end workers.
    pub workers: usize,
}

impl Spec {
    /// The benchmark's sizes: 1 warehouse x 10 districts with the spec's
    /// 3 000 customers per district and 100 000 items, and 100 000 smallbank
    /// accounts.
    pub fn standard(workload: Workload, seed: u64) -> Spec {
        Spec {
            workload,
            seed,
            scale: Scale {
                warehouses: 1,
                districts: 10,
                customers_per_district: 3_000,
                items: 100_000,
                initial_orders_per_district: 30,
            },
            accounts: 100_000,
            workers: WORKERS,
        }
    }

    /// Front-end configuration: default queue and engine retry.
    pub fn config(&self) -> ServerConfig {
        ServerConfig {
            workers: self.workers,
            ..ServerConfig::default()
        }
    }

    /// A freshly populated base image (recovery replays onto it).
    pub fn base(&self) -> Database {
        match self.workload {
            Workload::Tpcc => {
                let mut db = Database::new(&tpcc_catalog());
                tpcc_populate(&mut db, &self.scale, POPULATION_SEED);
                db
            }
            Workload::Smallbank | Workload::SmallbankReads => smallbank::populate(self.accounts),
        }
    }

    /// The workload's quiescent consistency audit: one line per violation.
    pub fn audit(&self, db: &Database) -> Vec<String> {
        match self.workload {
            Workload::Tpcc => acc_tpcc::consistency::check(db, false)
                .into_iter()
                .map(|v| format!("condition {}: {}", v.condition, v.detail))
                .collect(),
            Workload::Smallbank | Workload::SmallbankReads => smallbank::audit(db),
        }
    }

    /// The benchmark-side host with its interference tables.
    pub fn host(&self) -> (Box<dyn Host>, Arc<InterferenceTables>) {
        match self.workload {
            Workload::Tpcc => {
                let sys = TpccSystem::build();
                let tables = Arc::clone(&sys.tables);
                let gen = InputGen::new(TpccConfig::standard(self.scale), POPULATION_SEED);
                let host = TpccBench {
                    sys,
                    gen,
                    districts: self.scale.districts,
                };
                (Box::new(host), tables)
            }
            Workload::Smallbank | Workload::SmallbankReads => {
                let kit = SmallbankKit::build(self.accounts);
                let tables = Arc::clone(&kit.tables);
                let host = SmallbankBench {
                    kit,
                    read_mostly: self.workload == Workload::SmallbankReads,
                };
                (Box::new(host), tables)
            }
        }
    }

    /// Build, populate and start the front-end. Untraced runs use the stock
    /// constructors where one exists; a traced run wraps the host, the
    /// interference tables and the log device.
    pub fn start(&self, tracer: Option<&Tracer>) -> Frontend {
        let config = self.config();
        match (tracer, self.workload) {
            (None, Workload::Tpcc) => Frontend::tpcc(self.scale, POPULATION_SEED, &config),
            (None, Workload::Smallbank) => Frontend::smallbank(self.accounts, &config),
            (None, Workload::SmallbankReads) => {
                let (host, tables) = self.host();
                let shared = SharedDb::new(self.base(), tables as _);
                Frontend::start(shared, host, &config)
            }
            (Some(tracer), _) => {
                let (host, tables) = self.host();
                let shared = SharedDb::new(self.base(), Arc::new(CountingOracle::new(tables)))
                    .with_wal_backend(
                        Box::new(CountingDevice::new(MemDevice::new())),
                        GroupCommitPolicy::default(),
                    );
                shared.set_event_sink(acc_common::events::EventSink::enabled(0));
                Frontend::start(shared, Box::new(tracer.wrap(host)), &config)
            }
        }
    }
}

/// Benchmark-side equivalent of `acc_server::TpccHost`.
struct TpccBench {
    sys: TpccSystem,
    gen: InputGen,
    districts: i64,
}

impl Host for TpccBench {
    fn mix(&self) -> Mix {
        Mix::Tpcc
    }

    fn program(&self, seed: u64) -> Box<dyn TxnProgram + Send> {
        let mut rng = SeededRng::new(seed);
        acc_tpcc::txns::program_for(self.gen.next_input(&mut rng), self.districts)
    }

    fn cc(&self) -> &dyn ConcurrencyControl {
        &*self.sys.acc
    }
}

/// Benchmark-side equivalent of `acc_server::SmallbankHost`, or the
/// read-mostly mix.
struct SmallbankBench {
    kit: SmallbankKit,
    read_mostly: bool,
}

impl Host for SmallbankBench {
    fn mix(&self) -> Mix {
        Mix::Smallbank
    }

    fn program(&self, seed: u64) -> Box<dyn TxnProgram + Send> {
        let mut rng = SeededRng::new(seed);
        if self.read_mostly && rng.index(100) < 90 {
            return Box::new(smallbank::Balance {
                id: rng.int_range(1, self.kit.accounts),
            });
        }
        self.kit.next_program(&mut rng)
    }

    fn cc(&self) -> &dyn ConcurrencyControl {
        &*self.kit.acc
    }
}

/// The request schedule of one round: distinct per-request seeds and
/// whether each request's transaction writes, both derived from the round
/// seed before anything is timed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    /// Per-request seeds, in issue order.
    pub seeds: Vec<u64>,
    /// Whether request `i`'s transaction writes.
    pub writes: Vec<bool>,
}

impl Schedule {
    /// Derive `n` requests for `spec`.
    pub fn derive(spec: &Spec, n: usize) -> Schedule {
        let (host, _) = spec.host();
        let mut rng = SeededRng::new(spec.seed ^ SCHEDULE_SALT);
        let mut seen = HashSet::with_capacity(n);
        let mut seeds = Vec::with_capacity(n);
        while seeds.len() < n {
            // The full-range draw is the generator's raw 64-bit output.
            let s = rng.int_range(i64::MIN, i64::MAX) as u64;
            if seen.insert(s) {
                seeds.push(s);
            }
        }
        let writes = seeds
            .iter()
            .map(|&s| spec.workload.writes(host.program(s).txn_type()))
            .collect();
        Schedule { seeds, writes }
    }
}
