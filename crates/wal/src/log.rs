//! The append-only log.

use crate::codec;
use crate::record::LogRecord;
use acc_common::faults::{BoundaryEdge, FaultInjector};
use std::fmt;
use std::sync::Arc;

/// Log sequence number: the index of a record on the log.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Lsn(pub u64);

impl fmt::Display for Lsn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lsn:{}", self.0)
    }
}

/// An in-memory write-ahead log with a durable binary image.
///
/// `to_bytes` produces the "disk" image; [`Wal::from_bytes`] replays whatever
/// prefix of it survived a crash (see [`crate::codec`] for the framing).
#[derive(Debug, Default)]
pub struct Wal {
    records: Vec<LogRecord>,
    /// Encoded frames not yet handed to a durable device (see
    /// [`Wal::take_staged`]). Records are encoded once, at append time, so
    /// the group-commit batcher drains bytes without re-walking the log.
    staged: Vec<u8>,
    /// Fault-injection hook (crash-torture harness); absent in production.
    faults: Option<Arc<FaultInjector>>,
}

impl Wal {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Install a fault injector observing this log's appends and step
    /// boundaries. The injector captures the durable image at its planned
    /// crash point; an absent or disabled injector costs one branch per
    /// append.
    pub fn set_fault_injector(&mut self, faults: Arc<FaultInjector>) {
        self.faults = Some(faults);
    }

    /// Append a record, returning its LSN.
    pub fn append(&mut self, rec: LogRecord) -> Lsn {
        codec::encode_record(&rec, &mut self.staged);
        self.records.push(rec);
        if let Some(f) = &self.faults {
            if f.is_enabled() {
                f.on_wal_append(|| self.to_bytes());
            }
        }
        Lsn(self.records.len() as u64 - 1)
    }

    /// Drain the encoded frames appended since the last drain. The
    /// group-commit batcher stages these on the durable device; callers that
    /// never drain just accumulate bytes they never look at.
    pub fn take_staged(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.staged)
    }

    /// Report an end-of-step boundary edge to the fault injector, letting a
    /// planned crash land just before or just after the end-of-step record.
    /// No-op without an enabled injector.
    pub fn fault_boundary(&self, edge: BoundaryEdge) {
        if let Some(f) = &self.faults {
            if f.is_enabled() {
                f.on_step_boundary(edge, || self.to_bytes());
            }
        }
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if nothing has been logged.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// All records in LSN order.
    pub fn records(&self) -> &[LogRecord] {
        &self.records
    }

    /// Serialize to the durable image.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        for r in &self.records {
            codec::encode_record(r, &mut buf);
        }
        buf
    }

    /// Rebuild from a (possibly truncated or tail-corrupted) durable image.
    pub fn from_bytes(data: &[u8]) -> Self {
        let records = codec::decode_all(data);
        let mut staged = Vec::new();
        for r in &records {
            codec::encode_record(r, &mut staged);
        }
        Wal {
            records,
            staged,
            faults: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acc_common::{TxnId, TxnTypeId};

    #[test]
    fn append_and_lsn() {
        let mut wal = Wal::new();
        assert!(wal.is_empty());
        let a = wal.append(LogRecord::Begin {
            txn: TxnId(1),
            txn_type: TxnTypeId(0),
        });
        let b = wal.append(LogRecord::Commit { txn: TxnId(1) });
        assert_eq!(a, Lsn(0));
        assert_eq!(b, Lsn(1));
        assert_eq!(wal.len(), 2);
    }

    #[test]
    fn durable_round_trip() {
        let mut wal = Wal::new();
        wal.append(LogRecord::Begin {
            txn: TxnId(1),
            txn_type: TxnTypeId(0),
        });
        wal.append(LogRecord::Commit { txn: TxnId(1) });
        let img = wal.to_bytes();
        let restored = Wal::from_bytes(&img);
        assert_eq!(restored.records(), wal.records());
    }
}
