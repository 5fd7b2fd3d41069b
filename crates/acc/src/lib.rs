//! The assertional concurrency control (ACC) — the paper's contribution.
//!
//! # How the pieces map to the paper
//!
//! | Paper concept (§) | Here |
//! |---|---|
//! | Interstep assertion templates (§3.1) | [`assertion::AssertionTemplate`] — a named, parameterized predicate with a declared read footprint and an optional evaluable form used by test oracles |
//! | Step semantics (§3.1) | [`footprint::StepFootprint`] — the tables/columns a step type may write, including row insertion/deletion |
//! | Design-time interference analysis (§3.1–3.2) | [`infer::Inference`] — computes, once, whether each step type can invalidate each template: footprint overlap minus the pairs the refined footprints prove safe, minus the designer's *declared-safe* pairs (each with a recorded justification, and only where the footprints cannot prove it) |
//! | Interference tables (§3.2) | [`tables::InterferenceTables`] — the run-time lookup structure; implements the lock manager's `InterferenceOracle`, so the hot-path decision is exactly the table lookup the paper promises |
//! | One-level ACC (§3.2–3.3) | [`policy::Acc`] — a `ConcurrencyControl` that attaches assertional locks to the items each step touches (the *implemented*, dynamically-acquiring variant), releases conventional locks at step boundaries, and keeps `DIRTY` pins until commit |
//! | Legacy isolation (§3.3) | the built-in [`assertion::DIRTY`] template: decomposed transactions pin it on everything they write; unanalyzed step types read- and write-interfere with it, so legacy transactions never observe uncommitted decomposed state |
//! | Compensation safety (§3.4) | `DIRTY` grants carry the compensating step type; the lock manager refuses assertional locks the compensating step would invalidate, and inverts deadlock victims for compensating steps |

pub mod assertion;
pub mod footprint;
pub mod infer;
pub mod policy;
pub mod tables;

pub use assertion::{AssertionInstance, AssertionRegistry, AssertionTemplate, DIRTY};
pub use footprint::{Effect, KeySpace, Region, StepFootprint, TableFootprint};
pub use infer::{matrix_json, Decision, Inference};
pub use policy::{Acc, StepSpec, TxnSpec};
pub use tables::InterferenceTables;
