//! MVCC-lite version chains: per-key undo chains, settled at end-record
//! LSNs.
//!
//! A chain lives in its row's leaf entry, keyed by primary key; a delete
//! leaves the entry in place as a tombstone that keeps the chain. Each
//! chain entry records the full row image *before* one mutation, in
//! append (time) order. The current row image plus the chain therefore
//! reconstructs every physical image the row ever had: unwinding the newest
//! entry yields the image before that mutation, and so on down the chain.
//!
//! # Visibility rule
//!
//! A reader holds a *read view* `B` — the durable WAL frontier at the moment
//! its transaction began, so `c <= B` holds exactly for the commits that
//! were durable when the view was minted. Walking newest-to-oldest, an
//! entry is *visible* iff its **effective** commit LSN is `<= B`, where the
//! effective LSN is the physical one for `Committed` entries and the
//! *published* one (see [`CommitResolver`]) for `Pending` entries whose
//! writer has appended its commit record but not yet rewritten its chains.
//! Unresolved `Pending` entries and commits newer than `B` are unwound to
//! their before-image. The walk stops at the first visible entry and
//! returns the image reconstructed so far — but only if **every deeper
//! entry is also visible**. Images are physical composites: the image after
//! mutation *i* includes the effects of all mutations below it, so stopping
//! above an uncommitted (or too-new) deeper write would expose data the
//! reader must not see. That case is [`Visibility::Tainted`]: the caller
//! falls back to a conventional locked read.
//!
//! A reader also taints on its own `Pending` entries — a transaction reads
//! its own writes through the lock path, never through versions.
//!
//! # Commit publication
//!
//! The transaction layer publishes a finishing transaction's end LSN — its
//! `Commit` record's, or its `Abort` record's on rollback — atomically with
//! the record's append (see `runner::commit` and `runner::rollback`), and
//! only later rewrites its `Pending` entries to `Committed`: the version
//! collector does so once the low watermark has passed that LSN, and
//! retires the publication after the rewrite. Resolving `Pending` entries
//! through the publication makes that rewrite invisible: at every instant
//! the entry's visibility is the pure predicate `effective_lsn <= B`, so a
//! reader can never observe the writer's effects at one moment and not the
//! next within a single view — the fractured-snapshot window between the
//! end record and the rewrite is closed by construction. Readers resolve
//! under the leaf's read latch (see `Table::read_at`), so an entry they
//! find `Pending` is still published when they ask.
//!
//! # Pruning
//!
//! Chains are pruned by a low-watermark `W = min(active read views,
//! durable frontier)`: the longest *prefix* (oldest entries) consisting
//! entirely of `Committed { lsn <= W }` entries may be dropped. Every
//! current or future reader has `B >= W`, so its walk either stops above the
//! prefix or stops at the prefix's top entry with all deeper entries visible
//! — and an exhausted chain returns the same image the dropped stop-entry
//! would have. Pruning therefore never changes a read result, only memory.
//! `Pending` entries are never pruned — deliberately including published
//! ones, which the collector rewrites before it trims past them.
//!
//! Pruning has one caller, the collector (`Table::collect_versions`). It
//! visits each key a finished transaction wrote once the watermark `W` has
//! passed that transaction's end LSN, rewrites the transaction's entries,
//! and trims the chain against `W` in the same leaf visit. The collector
//! visits every writer that appended its end record, and `W` never falls,
//! so the last visit among a chain's writers finds every entry at or below
//! `W` and empties the chain: no sweep over idle chains is needed. Only the
//! entries of a writer whose commit fsync failed, or whose compensation
//! wedged, stay `Pending` for good, and readers unwind past them.

use crate::row::Row;
use acc_common::TxnId;
use std::collections::HashMap;

/// Resolves `Pending` chain entries of finished transactions that the
/// collector has not yet rewritten to their published end LSN (see the
/// module docs on commit publication). `None` means the writer is still in
/// flight (or failed its commit fsync, or wedged in compensation): unwind
/// past its entries.
pub trait CommitResolver {
    /// The published end LSN of `txn`, if its `Commit` or `Abort` record
    /// has been appended and its chains may not be rewritten yet.
    fn commit_lsn(&self, txn: TxnId) -> Option<u64>;
}

/// A resolver for contexts with no commit publication (recovery replay,
/// population, unit tests over physically finalized chains): every
/// `Pending` entry is simply pending.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoCommits;

impl CommitResolver for NoCommits {
    fn commit_lsn(&self, _txn: TxnId) -> Option<u64> {
        None
    }
}

/// A plain map is a resolver (model-based tests mirror the transaction
/// layer's publication with one).
impl CommitResolver for HashMap<TxnId, u64> {
    fn commit_lsn(&self, txn: TxnId) -> Option<u64> {
        self.get(&txn).copied()
    }
}

/// One link of a version chain: the row image before one mutation.
#[derive(Debug, Clone, PartialEq)]
pub enum ChainEntry {
    /// The mutating transaction has not finished; visible to nobody else.
    Pending {
        /// The writer.
        txn: TxnId,
        /// Image before the write (`None` = the row did not exist).
        before: Option<Row>,
    },
    /// The mutation is finalized: visible to views at or after `commit_lsn`.
    /// Rolled-back transactions finalize with their `Abort` record's LSN —
    /// their compensating writes stack above the forward writes, so the
    /// composite is the pre-transaction image either way.
    Committed {
        /// LSN of the finalizing `Commit`/`Abort` record.
        commit_lsn: u64,
        /// Image before the write (`None` = the row did not exist).
        before: Option<Row>,
    },
}

impl ChainEntry {
    /// The before-image, if the row existed before this mutation.
    pub fn before(&self) -> Option<&Row> {
        match self {
            ChainEntry::Pending { before, .. } | ChainEntry::Committed { before, .. } => {
                before.as_ref()
            }
        }
    }

    /// True if this entry is committed at or before `view`.
    pub fn visible_at(&self, view: u64) -> bool {
        matches!(self, ChainEntry::Committed { commit_lsn, .. } if *commit_lsn <= view)
    }
}

/// The outcome of a version-chain walk.
#[derive(Debug, Clone, PartialEq)]
pub enum Visibility {
    /// The row image at the read view (`None` = row absent at that view).
    Visible(Option<Row>),
    /// No physical image equals the logical snapshot (an uncommitted or
    /// too-new write is buried under a visible one, or the reader wrote the
    /// row itself). Fall back to a locked read.
    Tainted,
}

/// Reconstruct the image visible at `view` from the current slot value and
/// its chain (oldest first), resolving `Pending` entries of published
/// committers through `commits`. See the module docs for the rule.
pub fn reconstruct(
    current: Option<&Row>,
    chain: &[ChainEntry],
    view: u64,
    reader: TxnId,
    commits: &dyn CommitResolver,
) -> Visibility {
    // The effective commit LSN: physical for finalized entries, published
    // for `Pending` entries of a committed-but-unfinalized writer. Both
    // evaluate identically, which is what makes the lazy physical rewrite
    // invisible to every view.
    let lsn_of = |e: &ChainEntry| match e {
        ChainEntry::Committed { commit_lsn, .. } => Some(*commit_lsn),
        ChainEntry::Pending { txn, .. } => commits.commit_lsn(*txn),
    };
    let mut cur = current.cloned();
    for i in (0..chain.len()).rev() {
        let e = &chain[i];
        if matches!(e, ChainEntry::Pending { txn, .. } if *txn == reader) {
            // Own writes go through the lock path, never through versions.
            return Visibility::Tainted;
        }
        match lsn_of(e) {
            Some(c) if c <= view => {
                return if chain[..i]
                    .iter()
                    .all(|d| lsn_of(d).is_some_and(|c| c <= view))
                {
                    Visibility::Visible(cur)
                } else {
                    Visibility::Tainted
                };
            }
            _ => cur = e.before().cloned(),
        }
    }
    Visibility::Visible(cur)
}

/// Drop the longest all-visible-at-`watermark` prefix of `chain`; returns
/// true if the chain is now empty. See the module docs for why this is
/// invisible to every reader with a view at or after the watermark.
pub fn prune_chain(chain: &mut Vec<ChainEntry>, watermark: u64) -> bool {
    let keep_from = chain
        .iter()
        .position(|e| !e.visible_at(watermark))
        .unwrap_or(chain.len());
    chain.drain(..keep_from);
    chain.is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use acc_common::Value;

    fn row(n: i64) -> Row {
        Row::from(vec![Value::Int(n)])
    }

    const R: TxnId = TxnId(99);

    #[test]
    fn empty_chain_returns_current() {
        assert_eq!(
            reconstruct(Some(&row(7)), &[], 0, R, &NoCommits),
            Visibility::Visible(Some(row(7)))
        );
        assert_eq!(
            reconstruct(None, &[], 0, R, &NoCommits),
            Visibility::Visible(None)
        );
    }

    #[test]
    fn pending_unwinds_to_before_image() {
        let chain = vec![ChainEntry::Pending {
            txn: TxnId(1),
            before: Some(row(1)),
        }];
        assert_eq!(
            reconstruct(Some(&row(2)), &chain, 10, R, &NoCommits),
            Visibility::Visible(Some(row(1)))
        );
    }

    #[test]
    fn own_pending_write_taints() {
        let chain = vec![ChainEntry::Pending {
            txn: R,
            before: Some(row(1)),
        }];
        assert_eq!(
            reconstruct(Some(&row(2)), &chain, 10, R, &NoCommits),
            Visibility::Tainted
        );
    }

    #[test]
    fn stops_at_first_visible_commit() {
        let chain = vec![
            ChainEntry::Committed {
                commit_lsn: 3,
                before: Some(row(1)),
            },
            ChainEntry::Committed {
                commit_lsn: 8,
                before: Some(row(2)),
            },
        ];
        // View 5: the lsn-8 commit is too new, the lsn-3 one is visible.
        assert_eq!(
            reconstruct(Some(&row(3)), &chain, 5, R, &NoCommits),
            Visibility::Visible(Some(row(2)))
        );
        // View 10: everything visible — current row.
        assert_eq!(
            reconstruct(Some(&row(3)), &chain, 10, R, &NoCommits),
            Visibility::Visible(Some(row(3)))
        );
        // View 1: nothing visible — unwind to the oldest before-image.
        assert_eq!(
            reconstruct(Some(&row(3)), &chain, 1, R, &NoCommits),
            Visibility::Visible(Some(row(1)))
        );
    }

    #[test]
    fn buried_pending_taints() {
        // T1 wrote (still pending), T2 overwrote and committed: the image
        // after T2's write physically contains T1's uncommitted data.
        let chain = vec![
            ChainEntry::Pending {
                txn: TxnId(1),
                before: Some(row(1)),
            },
            ChainEntry::Committed {
                commit_lsn: 5,
                before: Some(row(2)),
            },
        ];
        assert_eq!(
            reconstruct(Some(&row(3)), &chain, 9, R, &NoCommits),
            Visibility::Tainted
        );
        // A view older than the commit unwinds both and is fine.
        assert_eq!(
            reconstruct(Some(&row(3)), &chain, 4, R, &NoCommits),
            Visibility::Visible(Some(row(1)))
        );
    }

    #[test]
    fn buried_too_new_commit_taints() {
        // Non-monotone commit order: the deeper write committed *later*.
        let chain = vec![
            ChainEntry::Committed {
                commit_lsn: 20,
                before: Some(row(1)),
            },
            ChainEntry::Committed {
                commit_lsn: 10,
                before: Some(row(2)),
            },
        ];
        // View 15 sees the lsn-10 commit but not the buried lsn-20 one.
        assert_eq!(
            reconstruct(Some(&row(3)), &chain, 15, R, &NoCommits),
            Visibility::Tainted
        );
        // View 25 sees both; view 5 sees neither.
        assert_eq!(
            reconstruct(Some(&row(3)), &chain, 25, R, &NoCommits),
            Visibility::Visible(Some(row(3)))
        );
        assert_eq!(
            reconstruct(Some(&row(3)), &chain, 5, R, &NoCommits),
            Visibility::Visible(Some(row(1)))
        );
    }

    #[test]
    fn insert_unwinds_to_absent() {
        let chain = vec![ChainEntry::Committed {
            commit_lsn: 7,
            before: None,
        }];
        assert_eq!(
            reconstruct(Some(&row(1)), &chain, 3, R, &NoCommits),
            Visibility::Visible(None)
        );
        assert_eq!(
            reconstruct(Some(&row(1)), &chain, 7, R, &NoCommits),
            Visibility::Visible(Some(row(1)))
        );
    }

    #[test]
    fn prune_drops_only_visible_prefix() {
        let mut chain = vec![
            ChainEntry::Committed {
                commit_lsn: 2,
                before: Some(row(1)),
            },
            ChainEntry::Committed {
                commit_lsn: 4,
                before: Some(row(2)),
            },
            ChainEntry::Committed {
                commit_lsn: 9,
                before: Some(row(3)),
            },
        ];
        assert!(!prune_chain(&mut chain, 5));
        assert_eq!(chain.len(), 1);
        assert!(chain[0].visible_at(9));
        assert!(prune_chain(&mut chain, 9));
    }

    #[test]
    fn prune_never_drops_pending_or_suffix() {
        let mut chain = vec![
            ChainEntry::Pending {
                txn: TxnId(1),
                before: Some(row(1)),
            },
            ChainEntry::Committed {
                commit_lsn: 1,
                before: Some(row(2)),
            },
        ];
        // The pending head blocks the whole prefix.
        assert!(!prune_chain(&mut chain, 100));
        assert_eq!(chain.len(), 2);
    }

    #[test]
    fn published_pending_resolves_as_committed() {
        // A writer whose commit LSN is published but whose chain is not yet
        // physically finalized must read exactly like the finalized form:
        // visible at views >= the published LSN, unwound below it.
        let pending = vec![ChainEntry::Pending {
            txn: TxnId(1),
            before: Some(row(1)),
        }];
        let finalized = vec![ChainEntry::Committed {
            commit_lsn: 7,
            before: Some(row(1)),
        }];
        let mut published = HashMap::new();
        published.insert(TxnId(1), 7u64);
        for view in [0, 6, 7, 8, 100] {
            assert_eq!(
                reconstruct(Some(&row(2)), &pending, view, R, &published),
                reconstruct(Some(&row(2)), &finalized, view, R, &NoCommits),
                "published-pending diverged from finalized at view {view}"
            );
        }
        // An unpublished writer still unwinds at every view.
        assert_eq!(
            reconstruct(Some(&row(2)), &pending, 100, R, &NoCommits),
            Visibility::Visible(Some(row(1)))
        );
    }

    #[test]
    fn published_pending_counts_in_deeper_visibility_check() {
        // Buried published-pending write under a visible commit: once the
        // publication makes the deeper entry visible at the view, the walk
        // may stop above it; without the publication it must taint.
        let chain = vec![
            ChainEntry::Pending {
                txn: TxnId(1),
                before: Some(row(1)),
            },
            ChainEntry::Committed {
                commit_lsn: 9,
                before: Some(row(2)),
            },
        ];
        assert_eq!(
            reconstruct(Some(&row(3)), &chain, 10, R, &NoCommits),
            Visibility::Tainted
        );
        let mut published = HashMap::new();
        published.insert(TxnId(1), 5u64);
        assert_eq!(
            reconstruct(Some(&row(3)), &chain, 10, R, &published),
            Visibility::Visible(Some(row(3)))
        );
        // A view between the two commits stops at the published entry.
        assert_eq!(
            reconstruct(Some(&row(3)), &chain, 6, R, &published),
            Visibility::Visible(Some(row(2)))
        );
    }

    #[test]
    fn own_published_write_still_taints() {
        // Publication never overrides the own-write rule: a transaction
        // reads its own writes through the lock path.
        let chain = vec![ChainEntry::Pending {
            txn: R,
            before: Some(row(1)),
        }];
        let mut published = HashMap::new();
        published.insert(R, 3u64);
        assert_eq!(
            reconstruct(Some(&row(2)), &chain, 10, R, &published),
            Visibility::Tainted
        );
    }
}
