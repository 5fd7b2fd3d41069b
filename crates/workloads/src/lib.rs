//! Workload families beyond TPC-C, built entirely on the *inferred*
//! interference tables.
//!
//! TPC-C's tables (`acc-tpcc`) are inferred too, but close their inference
//! gap with six hand declarations about Delivery's claim protocol. The two
//! families here need none at all. Each declares honest step footprints and
//! assertion-template read footprints, runs [`acc_core::Inference`], and
//! installs whatever matrix comes out — the bring-your-own-workload path a
//! user of the system would take.
//!
//! * [`smallbank`] — a smallbank-style account/transfer mix: seven
//!   transaction types over four tables, conservation-of-money invariant,
//!   two multi-step types with compensation.
//! * [`saga`] — an order-fulfilment saga with up to four reservation legs
//!   before payment and shipping; crashing late in a long saga exercises
//!   compensation chains up to six completed steps deep.
//!
//! Each family's kit ([`smallbank::SmallbankKit`], [`saga::SagaKit`]) is its
//! one [`acc_engine::Workload`]: what the network front-end (`acc-server`)
//! serves and the crash-torture harness (`acc-bench`) populates, drives,
//! recovers and audits.

pub mod saga;
pub mod smallbank;
