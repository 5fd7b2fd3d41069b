//! Write-ahead logging and step-aware crash recovery.
//!
//! The paper's implemented ACC "stores an end-of-step record, used in crash
//! recovery, in the log, and saves some of its work area in a database table
//! for compensation" (§5). This crate provides that machinery:
//!
//! * [`record::LogRecord`] — begin / update (before+after images) /
//!   end-of-step (with the transaction's serialized work area) / commit /
//!   abort / compensation-begin,
//! * [`codec`] — a length- and checksum-framed binary encoding (`bytes`),
//!   tolerant of truncation at any byte (a crash mid-write),
//! * [`log::Wal`] — the append-only log, kept as one encoded image (each
//!   record framed once, at append; decoded only when read back),
//! * [`group::DurableWal`] — the log behind its durable [`device`] and the
//!   group-commit batcher that makes it durable one fsync at a time,
//! * [`recovery`] — redo everything durable, undo the incomplete current
//!   step of each in-flight transaction, and report which multi-step
//!   transactions need *compensating steps* run (a step is atomic and
//!   durable once its end-of-step record is on the log; completed steps are
//!   never physically undone — they are semantically undone by compensation,
//!   §3.4).

pub mod buf;
pub mod codec;
pub mod device;
pub mod group;
pub mod log;
pub mod record;
pub mod recovery;
pub mod sector;

pub use device::{FileDevice, FsyncSnapshot, LogDevice, MemDevice, Snooper};
pub use group::{DurableWal, FlushStats, GroupCommitPolicy};
pub use log::{Lsn, Wal};
pub use record::LogRecord;
pub use recovery::{recover, InFlight, RecoveryReport};
