//! The append-only log, kept as its encoded bytes.

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

/// An in-memory write-ahead log kept as its binary image.
///
/// The encoded frames (see [`crate::codec`]) are the log's only
/// representation: [`Wal::append`] encodes each record exactly once onto the
/// image, [`Wal::to_bytes`] copies it out, [`Wal::from_bytes`] keeps whatever
/// prefix of it survived a crash, and [`Wal::records`] decodes on demand.
#[derive(Debug, Default)]
pub struct Wal {
    /// Every appended record, framed, in LSN order.
    image: Vec<u8>,
    /// Records on `image`; the next append's LSN.
    records: u64,
    /// How much of `image` [`Wal::take_staged`] has already handed to the
    /// durable device.
    staged_from: usize,
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
        codec::encode_record(&rec, &mut self.image);
        self.records += 1;
        if let Some(f) = &self.faults {
            if f.is_enabled() {
                f.on_wal_append(|| self.to_bytes());
            }
        }
        Lsn(self.records - 1)
    }

    /// Copy out the frames appended since the last call and move the mark
    /// past them. The group-commit batcher stages these on the durable
    /// device.
    pub fn take_staged(&mut self) -> Vec<u8> {
        let staged = self.image[self.staged_from..].to_vec();
        self.staged_from = self.image.len();
        staged
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
        self.records as usize
    }

    /// True if nothing has been logged.
    pub fn is_empty(&self) -> bool {
        self.records == 0
    }

    /// All records in LSN order, decoded from the image.
    pub fn records(&self) -> Vec<LogRecord> {
        codec::decode_all(&self.image)
    }

    /// A copy of the image: every appended frame, durable or not.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.image.clone()
    }

    /// Rebuild from a (possibly truncated or tail-corrupted) durable image,
    /// keeping exactly the frames [`codec::decode_all`] accepts. Nothing of
    /// the salvaged prefix has been staged on a device yet.
    pub fn from_bytes(data: &[u8]) -> Self {
        let records = codec::decode_all(data).len();
        let end = codec::frame_ends(data).take(records).last().unwrap_or(0);
        Wal {
            image: data[..end].to_vec(),
            records: records as u64,
            staged_from: 0,
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
