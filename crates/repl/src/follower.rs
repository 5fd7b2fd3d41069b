//! The follower: verifies shipped batches, persists them to its own WAL
//! device, and replays the verified prefix through the *existing* recovery
//! path into its own [`Database`] image.
//!
//! Verification keys off the stream, not the transport: a batch is accepted
//! only if it starts exactly at the verified frontier, is a whole number of
//! record frames, and hashes — appended to the follower's own bytes — to the
//! cumulative chain the leader claimed. Torn payloads, sequence gaps and
//! reordered deliveries all fail one of those checks and are refused with
//! the frontier unchanged; re-shipping the same bytes is idempotent
//! (duplicates land entirely inside the verified prefix and are ignored).
//!
//! The follower's replay frontier (`replay_lsn`) is the number of verified
//! records. Reads are served at that frontier through the versioned-read
//! machinery ([`acc_storage::Table::read_at`]) over the replayed image —
//! stale by whatever the ship lag is, but always a transactionally
//! consistent prefix of the leader's history.

use crate::ship::{count_frames, frame_prefix, stream_chain, ShipBatch};
use acc_common::{Result, TableId, TxnId};
use acc_storage::{Database, Key, NoCommits, Row, Visibility};
use acc_wal::{recover, LogDevice, RecoveryReport, Wal};

/// Why a batch was refused. The shipper's answer to any refusal is the same
/// — rewind to the follower's verified frontier and re-ship — so the variants
/// exist for observability and tests, not control flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Refusal {
    /// The batch starts past the verified frontier: something before it was
    /// lost or reordered.
    Gap {
        /// The frontier the follower expected the batch to start at.
        expected: u64,
        /// Where the batch actually started.
        got: u64,
    },
    /// The batch straddles the frontier (starts inside the verified prefix
    /// but extends past it) — a misaligned re-ship.
    Overlap,
    /// The payload is not a whole number of record frames — torn in transit.
    TornFrame,
    /// The appended stream does not hash to the leader's claimed chain —
    /// corrupted in transit (or a batch from a different history).
    Chain {
        /// The chain the leader claimed.
        claimed: u64,
        /// What the follower's stream actually hashes to with the payload
        /// appended.
        computed: u64,
    },
    /// The follower's own device failed to sync the verified bytes — this
    /// replica can no longer promise durability and must not ack.
    LocalSync,
}

/// The outcome of [`Follower::apply`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Applied {
    /// Verified, appended to the local stream, and synced to the local
    /// device.
    Accepted {
        /// Record frames this batch carried.
        records: u64,
    },
    /// Entirely within the already-verified prefix — an idempotent re-ship
    /// or a transport duplicate; ignored.
    Duplicate,
    /// Refused; the verified frontier is unchanged and the shipper must
    /// resume from it.
    Refused(Refusal),
}

/// The follower's verified frontier, offered to the leader at resume time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResumePoint {
    /// Verified stream length in bytes.
    pub offset: u64,
    /// Verified record count (the replay frontier).
    pub records: u64,
    /// The follower's cumulative stream chain at `offset` — what the leader
    /// checks against its own history before shipping on top.
    pub chain: u64,
}

/// The result of promoting a follower to primary.
pub struct Promoted {
    /// The recovered database image (committed work replayed, incomplete
    /// current steps undone).
    pub db: Database,
    /// The recovery report: in-flight transactions in `needs_compensation`
    /// still need their §3.4 compensating steps run by the domain layer.
    pub report: RecoveryReport,
}

/// A replica fed by [`ShipBatch`]es. Owns its verified byte stream, a local
/// [`LogDevice`] holding the durable copy of that stream, and a lazily
/// replayed [`Database`] image at the replay frontier.
pub struct Follower {
    /// The pristine pre-workload image recovery replays into.
    base: Database,
    /// Verified record-stream bytes (always frame-aligned).
    stream: Vec<u8>,
    /// Verified record count.
    records: u64,
    /// Local durable copy of `stream` (synced at every accepted batch).
    dev: Box<dyn LogDevice>,
    /// Replayed image at `replayed.0` records; rebuilt when stale.
    replayed: Option<(u64, Database)>,
}

impl Follower {
    /// A fresh follower: empty stream, empty device.
    pub fn new(base: Database, dev: Box<dyn LogDevice>) -> Follower {
        Follower {
            base,
            stream: Vec::new(),
            records: 0,
            dev,
            replayed: None,
        }
    }

    /// Rebuild a follower from its local device after a crash: salvage the
    /// device's durable stream, truncate to the last whole record frame (a
    /// crash mid-replay can leave a frame-torn tail on a sector boundary),
    /// and stand ready to resume from there.
    pub fn resume(base: Database, dev: Box<dyn LogDevice>) -> Follower {
        let salvaged = dev.durable_stream();
        let (len, records) = frame_prefix(&salvaged);
        Follower {
            base,
            stream: salvaged[..len].to_vec(),
            records,
            dev,
            replayed: None,
        }
    }

    /// Verify one batch against the stream and, on success, append + sync it
    /// locally. See the module docs for the refusal rules.
    pub fn apply(&mut self, batch: &ShipBatch) -> Applied {
        let frontier = self.stream.len() as u64;
        if batch.end() <= frontier {
            return Applied::Duplicate;
        }
        if batch.start > frontier {
            return Applied::Refused(Refusal::Gap {
                expected: frontier,
                got: batch.start,
            });
        }
        if batch.start < frontier {
            return Applied::Refused(Refusal::Overlap);
        }
        let Some(records) = count_frames(&batch.payload) else {
            return Applied::Refused(Refusal::TornFrame);
        };
        // The chain covers the *whole* prefix: computing it over our own
        // bytes plus the payload proves byte-identical history, not just a
        // well-formed batch.
        let mut candidate = Vec::with_capacity(self.stream.len() + batch.payload.len());
        candidate.extend_from_slice(&self.stream);
        candidate.extend_from_slice(&batch.payload);
        let computed = stream_chain(&candidate);
        if computed != batch.chain {
            return Applied::Refused(Refusal::Chain {
                claimed: batch.chain,
                computed,
            });
        }
        // Verified: persist first (stage + sync), then advance the frontier.
        self.dev.stage(&batch.payload);
        if self.dev.sync().is_err() {
            return Applied::Refused(Refusal::LocalSync);
        }
        self.stream = candidate;
        self.records += records;
        self.replayed = None;
        Applied::Accepted { records }
    }

    /// The verified byte stream.
    pub fn stream(&self) -> &[u8] {
        &self.stream
    }

    /// The replay frontier: verified leader records (LSNs `0..replay_lsn`).
    pub fn replay_lsn(&self) -> u64 {
        self.records
    }

    /// Tear down the follower process and hand back its durable device —
    /// what a crash leaves behind. Everything in memory (the verified
    /// stream, the replayed image) is discarded; [`Follower::resume`] must
    /// re-salvage from the device alone.
    pub fn into_device(self) -> Box<dyn LogDevice> {
        self.dev
    }

    /// The frontier handshake offered to the leader on resume.
    pub fn resume_point(&self) -> ResumePoint {
        ResumePoint {
            offset: self.stream.len() as u64,
            records: self.records,
            chain: stream_chain(&self.stream),
        }
    }

    /// Replay the verified prefix through the existing recovery path into
    /// this follower's image (cached until the next accepted batch).
    fn replay(&mut self) -> Result<&Database> {
        if self
            .replayed
            .as_ref()
            .is_none_or(|(at, _)| *at != self.records)
        {
            let mut db = self.base.clone();
            let wal = Wal::from_bytes(&self.stream);
            recover(&mut db, &wal)?;
            self.replayed = Some((self.records, db));
        }
        Ok(&self.replayed.as_ref().expect("just replayed").1)
    }

    /// A version-safe point read at the replay frontier: the row image with
    /// primary key `key` as of `replay_lsn`, through the versioned-read
    /// machinery. `Tainted` cannot happen on a replayed image (recovery
    /// leaves no pending chains), so taint is reported as a recovery error.
    pub fn read_at(&mut self, table: TableId, key: &Key) -> Result<Option<Row>> {
        let view = self.records.saturating_sub(1);
        let lsn = self.records;
        match self
            .replay()?
            .table(table)?
            .read_at(key, view, TxnId(u64::MAX), &NoCommits)
        {
            Visibility::Visible(img) => Ok(img),
            Visibility::Tainted => Err(acc_common::Error::Recovery(format!(
                "tainted read on a replayed image at replay_lsn {lsn}"
            ))),
        }
    }

    /// A consistent snapshot of the replayed image (audits, tests).
    pub fn snapshot(&mut self) -> Result<Database> {
        Ok(self.replay()?.clone())
    }

    /// Promote this follower to primary at its current replay frontier:
    /// recover the verified prefix (the same path a restarted leader runs)
    /// and hand back the recovered image and the report. In-flight
    /// transactions surface in `report.needs_compensation`; the caller runs
    /// their §3.4 compensating steps before serving writes — promotion is
    /// recovery, just on another machine.
    pub fn promote(self) -> Result<Promoted> {
        let mut db = self.base;
        let report = recover(&mut db, &Wal::from_bytes(&self.stream))?;
        Ok(Promoted { db, report })
    }
}

impl std::fmt::Debug for Follower {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Follower")
            .field("bytes", &self.stream.len())
            .field("replay_lsn", &self.records)
            .field("device", &self.dev.kind())
            .finish()
    }
}
