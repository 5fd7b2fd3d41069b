//! Workload families beyond TPC-C, built entirely on the *inferred*
//! interference tables.
//!
//! TPC-C's decomposition (`acc-tpcc`) was analyzed by hand, with the
//! automatic inference (`acc_core::infer`) differential-tested against it.
//! The two families here invert that relationship: neither has a hand table
//! at all. Each declares honest step footprints and assertion-template read
//! footprints, runs [`acc_core::Inference`], and installs whatever matrix
//! comes out — the bring-your-own-workload path a user of the system would
//! take.
//!
//! * [`smallbank`] — a smallbank-style account/transfer mix: seven
//!   transaction types over four tables, conservation-of-money invariant,
//!   two multi-step types with compensation.
//! * [`saga`] — an order-fulfilment saga with up to four reservation legs
//!   before payment and shipping; crashing late in a long saga exercises
//!   compensation chains up to six completed steps deep.
//! * [`kit`] — the [`WorkloadKit`] trait both families implement: what the
//!   crash-torture harness (`acc-bench`) needs to populate, drive, recover
//!   and audit a family.

pub mod kit;
pub mod saga;
pub mod smallbank;

pub use kit::WorkloadKit;
