//! The paged primary B-tree: leaf/internal nodes over [`crate::pager`]
//! pages, read with optimistic version-validated descents and written
//! through the same descent wherever the write stays inside one leaf.
//!
//! Leaves hold [`LeafEntry`]s keyed by primary key; each entry carries the
//! row image *and* the key's MVCC-lite version chain, so chains relocate
//! with their entry across splits and merges for free — version history is
//! keyed by primary key, never by page. An entry whose `row` is `None` is a
//! tombstone kept alive only by its chain (deleted key with reconstructable
//! history); the tree removes entries only when a caller explicitly asks
//! ([`BTree::remove_if`]) and the chain is gone.
//!
//! Internal nodes hold up to 64 children, so a table of 100 000 rows is
//! four or five levels deep. Each separator carries its key's 8-byte
//! order-preserving prefix ([`Key::prefix`]), so routing decides with one
//! integer compare and compares whole keys only where prefixes tie. Leaf
//! capacity follows the schema's `rows_per_page`. A full leaf splits at its
//! midpoint, except that an insert sorting after every entry of the leaf
//! splits it at the end: the leaf stays full and the key starts its right
//! sibling, so keys inserted in ascending order fill their leaves.
//!
//! ## Optimistic descent (reads, and writes that stay in one leaf)
//!
//! A descent holds at most one latch at a time: read-latch a node, capture
//! its version, pick the child, release, latch the child, then check that
//! the parent's version did not change in between. A mismatch means the
//! pointer it followed may have been split, merged, or freed underneath it
//! — the descent restarts from the root (counted in
//! [`crate::pager::PagerCounters::read_restarts`]). Range scans hop the
//! leaf `next` chain with the same validation. Readers never block writers
//! and never deadlock with them (one latch at a time ⇒ no cycles).
//!
//! A writer that changes no structure — [`BTree::with_entry`], and
//! [`BTree::upsert`] into a leaf with room — takes the same descent. At the
//! leaf it captures the version, drops the read latch and takes the write
//! latch, and goes on only if the version is exactly the captured one plus
//! its own latch's bump: any other writer in between (a split, a merge, a
//! free, another write) moved it further, and the writer restarts. So these
//! writers write-latch their leaf and nothing above it, and still hold one
//! latch at a time.
//!
//! ## Hinted revisits (one descent per keyed access)
//!
//! A descent returns a [`LeafHint`]: the leaf it ended at and the even
//! version it read there under the read latch. A caller that must wait
//! between finding a key and using it (a transaction takes its logical
//! locks in between) hands the hint back, and the revisit
//! ([`BTree::read_entry_at`], [`BTree::with_entry_at`],
//! [`BTree::upsert_at`]) latches that one leaf and nothing else: a reader
//! goes on if the version under its read latch is still the hint's, a
//! writer if the version under its write latch is the hint's plus its own
//! bump — the check `relatch_for_write` makes. A leaf's key range changes
//! only under its write latch and a freed or reused frame's version has
//! moved, so an unchanged version means the same leaf, still covering the
//! key. Any other version falls back to a full descent (counted in
//! [`crate::pager::PagerCounters::hint_misses`]). Frames never move (see
//! [`crate::pager`]), so latching a stale hint's frame is safe; a revisit
//! holds one latch, like every optimistic descent.
//!
//! A hinted write returns the hint it leaves behind: its leaf and the
//! version its latch's release sets there. The version collector revisits a
//! written key through that hint ([`BTree::settle_at`]), with one latch if
//! no other writer has touched the leaf since, and removes a settled
//! tombstone in the same visit unless that would take the leaf below its
//! minimum.
//!
//! ## Structure changes — latch crabbing
//!
//! An insert into a full leaf, and every [`BTree::remove_if`], descends
//! from the root with hand-over-hand write latches: latch the child,
//! *then* release the parent. Structure changes are preemptive: an insert
//! descent splits any full child while the parent is still held, a remove
//! descent tops up any minimal child (borrow from a sibling, else merge)
//! while the parent is still held. A node we descend into is therefore
//! always safe for the operation, so splits/merges never propagate upward
//! and at most three latches (parent + child + sibling) are ever held.
//! The root's page id never changes: a root split rewrites page 0 in place
//! as an internal node over two fresh pages, and a root collapse copies the
//! last child back into page 0.
//!
//! Validation is sound against in-progress structure changes because page
//! versions use the OLC locked encoding (odd while write-latched — see
//! [`crate::pager`]): every structure change mutates the child *and* the
//! parent while holding the parent's write latch, so even where a modified
//! or freed child becomes latch-free before the parent is released (the
//! split hand-off in `upsert_rec`, merges, borrows, root collapse), a descent that
//! routed through the pre-change parent sees an odd or advanced parent
//! version at validation time and restarts — it never trusts the stale
//! child. A leaf's key range changes only while that leaf is write-latched
//! (split, borrow, merge, free), so an optimistic writer whose leaf version
//! is unchanged still holds the right leaf.

use crate::pager::{Page, PageId, Pager, PagerCounters, ReadLatch, WriteLatch};
use crate::row::{Key, Row};
use crate::version::ChainEntry;
use acc_common::Slot;

/// The root lives at page 0 forever.
const ROOT: PageId = 0;

/// Max children per internal node. Wide nodes keep tables shallow, so a
/// descent crosses few pages.
const MAX_CHILDREN: usize = 64;

/// One key's worth of state: the live row image (`None` = tombstone) plus
/// its version chain. The slot is the stable heap address the WAL and the
/// lock manager key off; it travels with the entry across page moves.
#[derive(Debug, Clone)]
pub(crate) struct LeafEntry {
    pub key: Key,
    pub slot: Slot,
    pub row: Option<Row>,
    pub chain: Vec<ChainEntry>,
}

/// An internal node's separator: a routing key and its [`Key::prefix`].
#[derive(Debug, Clone)]
pub(crate) struct Sep {
    prefix: u64,
    key: Key,
}

impl Sep {
    fn new(key: Key) -> Sep {
        Sep {
            prefix: key.prefix(),
            key,
        }
    }
}

/// A tree node — the payload of one page.
#[derive(Debug, Clone)]
pub(crate) enum Node {
    /// `children[i]` covers keys `< keys[i]`; `children[i+1]` covers
    /// `>= keys[i]`. Separators are copies (routing only) and need not
    /// exist as live leaf keys.
    Internal {
        keys: Vec<Sep>,
        children: Vec<PageId>,
    },
    /// Sorted entries plus the right-sibling link for range scans.
    Leaf {
        entries: Vec<LeafEntry>,
        next: Option<PageId>,
    },
}

/// Where a descent ended: a leaf page and the version it had under the
/// descent's read latch. Hand it back to a revisit (`Table::get_at`,
/// `Table::update_versioned`, …) to reach the same leaf with one latch if
/// no writer has latched it since.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeafHint {
    page: PageId,
    version: u64,
}

impl LeafHint {
    fn of<N>(leaf: &Page<N>) -> LeafHint {
        LeafHint {
            page: leaf.id(),
            version: leaf.version(),
        }
    }

    /// The hint a write leaves: its leaf and the version the release of
    /// `wg`, still held, will leave there.
    fn after_write<N>(wg: &WriteLatch<'_, N>) -> LeafHint {
        LeafHint {
            page: wg.page().id(),
            version: wg.page().version() + 1,
        }
    }
}

/// The paged B-tree. Leaf capacity tracks the schema's `rows_per_page`
/// (clamped), so the hot TPC-C district/warehouse tables get one row per
/// leaf — page latches there are per-row latches.
pub(crate) struct BTree {
    pager: Pager<Node>,
    /// Max entries per leaf.
    leaf_cap: usize,
    /// Rebalance a leaf we descend into (for remove) at `<= min_leaf`.
    min_leaf: usize,
    /// Max children per internal node.
    max_children: usize,
    /// Rebalance an internal node we descend into at `<= min_children`.
    min_children: usize,
}

impl BTree {
    pub(crate) fn new(rows_per_page: u32) -> BTree {
        let leaf_cap = (rows_per_page as usize).clamp(2, 256);
        BTree {
            pager: Pager::new(Node::Leaf {
                entries: Vec::new(),
                next: None,
            }),
            leaf_cap,
            min_leaf: leaf_cap / 2,
            max_children: MAX_CHILDREN,
            min_children: MAX_CHILDREN / 2,
        }
    }

    /// A tree with narrow internal nodes, for tests that need internal
    /// splits, borrows and merges from few keys.
    #[cfg(test)]
    fn with_fanout(rows_per_page: u32, max_children: usize) -> BTree {
        BTree {
            max_children,
            min_children: max_children / 2,
            ..BTree::new(rows_per_page)
        }
    }

    pub(crate) fn counters(&self) -> PagerCounters {
        self.pager.counters()
    }

    /// Route: index of the child covering `key`, whose prefix is `kp`. A
    /// separator whose prefix differs from `kp` compares like its prefix.
    fn route(keys: &[Sep], key: &Key, kp: u64) -> usize {
        keys.partition_point(|s| s.prefix < kp || (s.prefix == kp && s.key <= *key))
    }

    /// Position of `key` in a leaf's sorted entries: where it lives, or
    /// where it belongs.
    fn position(entries: &[LeafEntry], key: &Key) -> usize {
        entries.partition_point(|e| e.key < *key)
    }

    /// The entry for `key` in the leaf `node`, if any.
    fn find<'n>(node: &'n Node, key: &Key) -> Option<&'n LeafEntry> {
        let Node::Leaf { entries, .. } = node else {
            unreachable!("descent ends at a leaf")
        };
        entries
            .get(Self::position(entries, key))
            .filter(|e| e.key == *key)
    }

    /// The entry for `key` in the leaf `node`, if any, for writing.
    fn find_mut<'n>(node: &'n mut Node, key: &Key) -> Option<&'n mut LeafEntry> {
        let Node::Leaf { entries, .. } = node else {
            unreachable!("descent ends at a leaf")
        };
        let idx = Self::position(entries, key);
        entries.get_mut(idx).filter(|e| e.key == *key)
    }

    fn is_full(&self, node: &Node) -> bool {
        match node {
            Node::Leaf { entries, .. } => entries.len() >= self.leaf_cap,
            Node::Internal { children, .. } => children.len() >= self.max_children,
        }
    }

    fn at_min(&self, node: &Node) -> bool {
        match node {
            Node::Leaf { entries, .. } => entries.len() <= self.min_leaf,
            Node::Internal { children, .. } => children.len() <= self.min_children,
        }
    }

    // ------------------------------------------------------------------
    // Optimistic descent (point reads and in-leaf writes)
    // ------------------------------------------------------------------

    /// Descend to the leaf covering `key`, one read latch at a time, and
    /// run `at_leaf` on the leaf's page under its read latch. `at_leaf`
    /// returns `None` to restart the descent from the root (counted as a
    /// restart), so it may run more than once.
    fn descend<'p, R>(
        &'p self,
        key: &Key,
        mut at_leaf: impl FnMut(&'p Page<Node>, ReadLatch<'p, Node>) -> Option<R>,
    ) -> R {
        let kp = key.prefix();
        'restart: loop {
            let mut cur = self.pager.page(ROOT);
            let mut parent: Option<(&Page<Node>, u64)> = None;
            loop {
                let g = self.pager.read_latch(cur);
                if let Some((p, v)) = parent {
                    if p.version() != v {
                        drop(g);
                        self.pager.count_restart();
                        continue 'restart;
                    }
                }
                let ver = cur.version();
                let child = match &*g {
                    Node::Internal { keys, children } => Some(children[Self::route(keys, key, kp)]),
                    Node::Leaf { .. } => None,
                };
                let Some(cid) = child else {
                    match at_leaf(cur, g) {
                        Some(r) => return r,
                        None => {
                            self.pager.count_restart();
                            continue 'restart;
                        }
                    }
                };
                drop(g);
                parent = Some((cur, ver));
                cur = self.pager.page(cid);
            }
        }
    }

    /// Trade the leaf's read latch `g` for its write latch. `None` (the
    /// write latch already dropped) if any other writer latched the leaf
    /// in between: its version is then not the one captured under `g`
    /// plus this latch's own bump, and the caller restarts.
    fn relatch_for_write<'a>(
        &self,
        leaf: &'a Page<Node>,
        g: ReadLatch<'_, Node>,
    ) -> Option<WriteLatch<'a, Node>> {
        let v = leaf.version();
        drop(g);
        #[cfg(test)]
        tests::relatch_gap();
        let wg = self.pager.write_latch(leaf);
        (leaf.version() == v + 1).then_some(wg)
    }

    /// Run `f` on the entry for `key` (or `None`) under the leaf's read
    /// latch. `f` may run more than once if the descent restarts — it must
    /// be effect-free apart from its return value.
    pub(crate) fn read_entry<R>(&self, key: &Key, f: impl Fn(Option<&LeafEntry>) -> R) -> R {
        self.read_entry_hinted(key, f).0
    }

    /// [`BTree::read_entry`], plus a hint to the leaf it read.
    pub(crate) fn read_entry_hinted<R>(
        &self,
        key: &Key,
        f: impl Fn(Option<&LeafEntry>) -> R,
    ) -> (R, LeafHint) {
        self.descend(key, |leaf, g| {
            Some((f(Self::find(&g, key)), LeafHint::of(leaf)))
        })
    }

    /// The hinted leaf's page, if its version is still the hint's. A stale
    /// hint is counted as a miss here; the caller falls back to a descent.
    /// The unlatched version load only spares a latch on a leaf already
    /// known to have changed: callers re-check under the latch they take.
    fn hinted(&self, hint: LeafHint) -> Option<&Page<Node>> {
        #[cfg(test)]
        tests::hint_gap();
        let leaf = self.pager.page(hint.page);
        if leaf.version() == hint.version {
            Some(leaf)
        } else {
            self.pager.count_hint_miss();
            None
        }
    }

    /// [`BTree::read_entry`] through a hint: one read latch on the hinted
    /// leaf if no writer has latched it since, else a descent.
    pub(crate) fn read_entry_at<R>(
        &self,
        hint: LeafHint,
        key: &Key,
        f: impl Fn(Option<&LeafEntry>) -> R,
    ) -> R {
        if let Some(leaf) = self.hinted(hint) {
            let g = self.pager.read_latch(leaf);
            if leaf.version() == hint.version {
                return f(Self::find(&g, key));
            }
            drop(g);
            self.pager.count_hint_miss();
        }
        self.read_entry(key, f)
    }

    /// Range scan from `lo`: visit entries with key `>= lo` in order while
    /// `take(key)` holds, collecting up to `limit` values `emit` produces.
    /// Hops the leaf `next` chain with version validation; on a validation
    /// failure the whole scan restarts (partial output is discarded), so
    /// `emit` must be effect-free apart from its return value.
    pub(crate) fn scan_collect<T>(
        &self,
        lo: &Key,
        take: impl Fn(&Key) -> bool,
        mut emit: impl FnMut(&LeafEntry) -> Option<T>,
        limit: usize,
    ) -> Vec<T> {
        let lo_prefix = lo.prefix();
        'restart: loop {
            let mut out: Vec<T> = Vec::new();
            let mut cur = self.pager.page(ROOT);
            let mut parent: Option<(&Page<Node>, u64)> = None;
            let mut first_leaf = true;
            loop {
                let g = self.pager.read_latch(cur);
                if let Some((p, v)) = parent {
                    if p.version() != v {
                        drop(g);
                        self.pager.count_restart();
                        continue 'restart;
                    }
                }
                let ver = cur.version();
                let next_page = match &*g {
                    Node::Internal { keys, children } => children[Self::route(keys, lo, lo_prefix)],
                    Node::Leaf { entries, next } => {
                        let from = if first_leaf {
                            entries.partition_point(|e| e.key < *lo)
                        } else {
                            0
                        };
                        for e in &entries[from..] {
                            if !take(&e.key) {
                                return out;
                            }
                            if let Some(t) = emit(e) {
                                out.push(t);
                                if out.len() >= limit {
                                    return out;
                                }
                            }
                        }
                        match next {
                            None => return out,
                            Some(n) => {
                                first_leaf = false;
                                *n
                            }
                        }
                    }
                };
                drop(g);
                parent = Some((cur, ver));
                cur = self.pager.page(next_page);
            }
        }
    }

    // ------------------------------------------------------------------
    // Write paths
    // ------------------------------------------------------------------

    /// Mutate the entry for `key` in place (no entry is added or removed):
    /// `f` runs once, under the leaf's write latch, with `None` if the key
    /// has no entry. The descent is optimistic, so nothing above the leaf
    /// is write-latched.
    pub(crate) fn with_entry<R>(
        &self,
        key: &Key,
        f: impl FnOnce(Option<&mut LeafEntry>) -> R,
    ) -> R {
        self.write_leaf(key, |wg| f(Self::find_mut(wg, key)))
    }

    /// Run `f` once on the leaf covering `key` under its write latch,
    /// reached by an optimistic descent.
    fn write_leaf<R>(&self, key: &Key, f: impl FnOnce(&mut WriteLatch<'_, Node>) -> R) -> R {
        let mut f = Some(f);
        self.descend(key, |leaf, g| {
            let mut wg = self.relatch_for_write(leaf, g)?;
            Some(f.take().expect("f runs once")(&mut wg))
        })
    }

    /// The hinted leaf under its write latch, if no other writer has
    /// latched it since the hint: its version is then the hint's plus this
    /// latch's own bump. On `None` the caller falls back to a descent.
    fn hinted_for_write(&self, hint: LeafHint) -> Option<WriteLatch<'_, Node>> {
        let leaf = self.hinted(hint)?;
        let wg = self.pager.write_latch(leaf);
        if leaf.version() == hint.version + 1 {
            Some(wg)
        } else {
            drop(wg);
            self.pager.count_hint_miss();
            None
        }
    }

    /// [`BTree::write_leaf`] through a hint: the hinted leaf if no writer
    /// has latched it since, else a descent.
    fn write_leaf_at<R>(
        &self,
        hint: LeafHint,
        key: &Key,
        f: impl FnOnce(&mut WriteLatch<'_, Node>) -> R,
    ) -> R {
        match self.hinted_for_write(hint) {
            Some(mut wg) => f(&mut wg),
            None => self.write_leaf(key, f),
        }
    }

    /// [`BTree::with_entry`] through a hint: one write latch on the hinted
    /// leaf if no writer has latched it since, else a descent. Also returns
    /// the hint this write leaves behind.
    pub(crate) fn with_entry_at<R>(
        &self,
        hint: LeafHint,
        key: &Key,
        f: impl FnOnce(Option<&mut LeafEntry>) -> R,
    ) -> (R, LeafHint) {
        self.write_leaf_at(hint, key, |wg| {
            (f(Self::find_mut(wg, key)), LeafHint::after_write(wg))
        })
    }

    /// Settle the entry for `key` through a hint, under one write latch on
    /// its leaf: `f` runs once on the entry (`None` if the key has none)
    /// and answers whether the entry should go. The leaf drops it in the
    /// same visit if it keeps more than its minimum without it; otherwise
    /// the second value is true and the caller removes it with
    /// [`BTree::remove_if`], whose descent rebalances.
    pub(crate) fn settle_at<R>(
        &self,
        hint: LeafHint,
        key: &Key,
        f: impl FnOnce(Option<&mut LeafEntry>) -> (R, bool),
    ) -> (R, bool) {
        self.write_leaf_at(hint, key, |wg| {
            let Node::Leaf { entries, .. } = &mut **wg else {
                unreachable!("a write visit ends at a leaf")
            };
            let idx = Self::position(entries, key);
            let exists = entries.get(idx).is_some_and(|e| e.key == *key);
            let (r, remove) = f(exists.then(|| &mut entries[idx]));
            if !(remove && exists) {
                return (r, false);
            }
            if entries.len() > self.min_leaf {
                entries.remove(idx);
                return (r, false);
            }
            (r, true)
        })
    }

    /// Insert-or-mutate: run `f(entries, idx, exists)` under the write
    /// latch of the leaf covering `key` — `idx` is where `key` lives
    /// (`exists`) or belongs, and `f` may `entries.insert(idx, ..)` exactly
    /// one entry. A leaf with room is reached by the optimistic descent and
    /// is the only page written; a full leaf falls back to the crabbing
    /// descent from the root, whose preemptive splits make room. Also
    /// returns the hint the write leaves behind.
    pub(crate) fn upsert<R>(
        &self,
        key: &Key,
        f: impl FnOnce(&mut Vec<LeafEntry>, usize, bool) -> R,
    ) -> (R, LeafHint) {
        let mut f = Some(f);
        // `Some(None)`: the leaf is full, take the crabbing path.
        let in_leaf = self.descend(key, |leaf, g| {
            if self.is_full(&g) {
                return Some(None);
            }
            let mut wg = self.relatch_for_write(leaf, g)?;
            Some(Some(Self::upsert_leaf(
                &mut wg,
                key,
                f.take().expect("f runs once"),
            )))
        });
        match in_leaf {
            Some(r) => r,
            None => self.upsert_from_root(key, f.take().expect("a full leaf left f unused")),
        }
    }

    /// [`BTree::upsert`] through a hint: one write latch on the hinted leaf
    /// if no writer has latched it since and it has room, the crabbing
    /// descent if it is full, else the optimistic descent.
    pub(crate) fn upsert_at<R>(
        &self,
        hint: LeafHint,
        key: &Key,
        f: impl FnOnce(&mut Vec<LeafEntry>, usize, bool) -> R,
    ) -> (R, LeafHint) {
        let Some(mut wg) = self.hinted_for_write(hint) else {
            return self.upsert(key, f);
        };
        if self.is_full(&wg) {
            drop(wg);
            return self.upsert_from_root(key, f);
        }
        Self::upsert_leaf(&mut wg, key, f)
    }

    /// The crabbing half of an upsert: write-latch down from the root,
    /// splitting every full node on the way.
    fn upsert_from_root<R>(
        &self,
        key: &Key,
        f: impl FnOnce(&mut Vec<LeafEntry>, usize, bool) -> R,
    ) -> (R, LeafHint) {
        let root = self.pager.page(ROOT);
        let mut g = self.pager.write_latch(root);
        if self.is_full(&g) {
            self.split_root(&mut g, key);
        }
        self.upsert_rec(g, key, f)
    }

    /// Run an upsert's `f` on the latched leaf, which has room for `key`.
    fn upsert_leaf<R>(
        wg: &mut WriteLatch<'_, Node>,
        key: &Key,
        f: impl FnOnce(&mut Vec<LeafEntry>, usize, bool) -> R,
    ) -> (R, LeafHint) {
        let Node::Leaf { entries, .. } = &mut **wg else {
            unreachable!("upsert ends at a leaf")
        };
        let idx = Self::position(entries, key);
        let exists = entries.get(idx).is_some_and(|e| e.key == *key);
        (f(entries, idx, exists), LeafHint::after_write(wg))
    }

    fn upsert_rec<R>(
        &self,
        mut g: WriteLatch<'_, Node>,
        key: &Key,
        f: impl FnOnce(&mut Vec<LeafEntry>, usize, bool) -> R,
    ) -> (R, LeafHint) {
        let (cid, child_idx) = match &*g {
            Node::Leaf { .. } => return Self::upsert_leaf(&mut g, key, f),
            Node::Internal { keys, children } => {
                let i = Self::route(keys, key, key.prefix());
                (children[i], i)
            }
        };
        let child = self.pager.page(cid);
        let mut cg = self.pager.write_latch(child);
        if self.is_full(&cg) {
            let (sep, right_id) = self.split_child(&mut g, child_idx, &mut cg, key);
            if *key >= sep {
                // The key now belongs in the fresh right sibling. No one
                // can route to it until we release the parent (at worst a
                // stale reader holds its recycled frame briefly before
                // restarting), so its latch is (nearly) free. Dropping cg
                // while g is held is safe: the parent's version is odd
                // until g drops, so readers routed to the truncated child
                // fail validation.
                drop(cg);
                let rg = self.pager.write_latch(self.pager.page(right_id));
                drop(g);
                return self.upsert_rec(rg, key, f);
            }
        }
        drop(g);
        self.upsert_rec(cg, key, f)
    }

    /// Remove-or-mutate: descend with preemptive rebalancing (borrow or
    /// merge any minimal child while its parent is held), then run `f` on
    /// the entry under the leaf's write latch; if `f` returns `remove =
    /// true` (and the entry exists) the entry is removed from the leaf.
    pub(crate) fn remove_if<R>(
        &self,
        key: &Key,
        f: impl FnOnce(Option<&mut LeafEntry>) -> (R, bool),
    ) -> R {
        loop {
            let root = self.pager.page(ROOT);
            let mut g = self.pager.write_latch(root);
            // Collapse a trivial root (internal, one child) before
            // descending: copy the child up into page 0 so the root's page
            // id never changes.
            if let Node::Internal { children, .. } = &*g {
                if children.len() == 1 {
                    let cid = children[0];
                    let mut cg = self.pager.write_latch(self.pager.page(cid));
                    *g = std::mem::replace(
                        &mut *cg,
                        Node::Leaf {
                            entries: Vec::new(),
                            next: None,
                        },
                    );
                    drop(cg);
                    self.pager.free_page(cid);
                    drop(g);
                    continue;
                }
            }
            return self.remove_rec(g, key, f);
        }
    }

    fn remove_rec<R>(
        &self,
        mut g: WriteLatch<'_, Node>,
        key: &Key,
        f: impl FnOnce(Option<&mut LeafEntry>) -> (R, bool),
    ) -> R {
        let (cid, ci, n_children) = match &mut *g {
            Node::Leaf { entries, .. } => {
                let idx = Self::position(entries, key);
                let exists = entries.get(idx).is_some_and(|e| e.key == *key);
                let (r, remove) = if exists {
                    f(Some(&mut entries[idx]))
                } else {
                    f(None)
                };
                if remove && exists {
                    entries.remove(idx);
                }
                return r;
            }
            Node::Internal { keys, children } => {
                let i = Self::route(keys, key, key.prefix());
                (children[i], i, children.len())
            }
        };
        let mut cg = self.pager.write_latch(self.pager.page(cid));
        if self.at_min(&cg) {
            if ci + 1 < n_children {
                // Prefer the right sibling: borrow its first, else merge it
                // into the child. Sibling latching happens strictly under
                // the parent's write latch, so no two writers ever contend
                // for the same sibling pair in opposite orders.
                let sid = match &*g {
                    Node::Internal { children, .. } => children[ci + 1],
                    _ => unreachable!("parent is internal"),
                };
                let mut sg = self.pager.write_latch(self.pager.page(sid));
                if !self.at_min(&sg) {
                    Self::borrow_from_right(&mut g, ci, &mut cg, &mut sg);
                } else {
                    Self::merge_right_into_left(&mut g, ci, &mut cg, &mut sg);
                    self.pager.count_merge();
                    drop(sg);
                    self.pager.free_page(sid);
                }
            } else {
                // Child is the last: use the left sibling.
                let sid = match &*g {
                    Node::Internal { children, .. } => children[ci - 1],
                    _ => unreachable!("parent is internal"),
                };
                let mut sg = self.pager.write_latch(self.pager.page(sid));
                if !self.at_min(&sg) {
                    Self::borrow_from_left(&mut g, ci, &mut sg, &mut cg);
                } else {
                    Self::merge_right_into_left(&mut g, ci - 1, &mut sg, &mut cg);
                    self.pager.count_merge();
                    drop(cg);
                    self.pager.free_page(cid);
                    drop(g);
                    // Descend into the left sibling, which now covers the
                    // merged range.
                    return self.remove_rec(sg, key, f);
                }
            }
        }
        drop(g);
        self.remove_rec(cg, key, f)
    }

    // ------------------------------------------------------------------
    // Structure changes (always under the parent's write latch)
    // ------------------------------------------------------------------

    /// Split a full leaf's entries for an insert of `key`: at the end if
    /// `key` sorts after every entry (the right half starts empty, and
    /// `key` is its separator), else at the midpoint. Returns the
    /// separator and the right half.
    fn split_leaf(entries: &mut Vec<LeafEntry>, key: &Key) -> (Key, Vec<LeafEntry>) {
        if entries.last().is_some_and(|e| e.key < *key) {
            return (key.clone(), Vec::new());
        }
        let right = entries.split_off(entries.len() / 2);
        (right[0].key.clone(), right)
    }

    /// Split a full internal node at its midpoint: the middle separator
    /// moves up. Returns it and the right half.
    fn split_internal(keys: &mut Vec<Sep>, children: &mut Vec<PageId>) -> (Sep, Node) {
        let mid = keys.len() / 2;
        let right_keys = keys.split_off(mid + 1);
        let sep = keys.pop().expect("internal node has keys");
        let right_children = children.split_off(mid + 1);
        (
            sep,
            Node::Internal {
                keys: right_keys,
                children: right_children,
            },
        )
    }

    /// Split page 0 in place for an insert of `key`: its halves move to two
    /// fresh pages and the root becomes an internal node over them.
    fn split_root(&self, g: &mut WriteLatch<'_, Node>, key: &Key) {
        self.pager.count_split();
        let (sep, left_id, right_id) = match &mut **g {
            Node::Leaf { entries, next } => {
                let (sep, right_entries) = Self::split_leaf(entries, key);
                let right_id = self.pager.alloc(Node::Leaf {
                    entries: right_entries,
                    next: *next,
                });
                let left_id = self.pager.alloc(Node::Leaf {
                    entries: std::mem::take(entries),
                    next: Some(right_id),
                });
                (Sep::new(sep), left_id, right_id)
            }
            Node::Internal { keys, children } => {
                let (sep, right) = Self::split_internal(keys, children);
                let right_id = self.pager.alloc(right);
                let left_id = self.pager.alloc(Node::Internal {
                    keys: std::mem::take(keys),
                    children: std::mem::take(children),
                });
                (sep, left_id, right_id)
            }
        };
        **g = Node::Internal {
            keys: vec![sep],
            children: vec![left_id, right_id],
        };
    }

    /// Split the full child at `child_idx` (held in `cg`) under its parent
    /// (`g`) for an insert of `key`: the upper half moves to a fresh right
    /// sibling, the separator goes into the parent. Returns `(separator,
    /// right_page)`.
    fn split_child(
        &self,
        g: &mut WriteLatch<'_, Node>,
        child_idx: usize,
        cg: &mut WriteLatch<'_, Node>,
        key: &Key,
    ) -> (Key, PageId) {
        self.pager.count_split();
        let (sep, right_id) = match &mut **cg {
            Node::Leaf { entries, next } => {
                let (sep, right_entries) = Self::split_leaf(entries, key);
                let right_id = self.pager.alloc(Node::Leaf {
                    entries: right_entries,
                    next: *next,
                });
                *next = Some(right_id);
                (Sep::new(sep), right_id)
            }
            Node::Internal { keys, children } => {
                let (sep, right) = Self::split_internal(keys, children);
                (sep, self.pager.alloc(right))
            }
        };
        let sep_key = sep.key.clone();
        match &mut **g {
            Node::Internal { keys, children } => {
                keys.insert(child_idx, sep);
                children.insert(child_idx + 1, right_id);
            }
            _ => unreachable!("split parent is internal"),
        }
        (sep_key, right_id)
    }

    /// Rotate the right sibling's first entry/child into the child.
    fn borrow_from_right(
        g: &mut WriteLatch<'_, Node>,
        ci: usize,
        cg: &mut WriteLatch<'_, Node>,
        sg: &mut WriteLatch<'_, Node>,
    ) {
        let new_sep = match (&mut **cg, &mut **sg) {
            (Node::Leaf { entries: ce, .. }, Node::Leaf { entries: se, .. }) => {
                ce.push(se.remove(0));
                Sep::new(se[0].key.clone())
            }
            (
                Node::Internal {
                    keys: ck,
                    children: cc,
                },
                Node::Internal {
                    keys: sk,
                    children: sc,
                },
            ) => {
                let Node::Internal { keys, .. } = &**g else {
                    unreachable!("parent is internal")
                };
                ck.push(keys[ci].clone());
                cc.push(sc.remove(0));
                sk.remove(0)
            }
            _ => unreachable!("siblings are the same kind"),
        };
        match &mut **g {
            Node::Internal { keys, .. } => keys[ci] = new_sep,
            _ => unreachable!("parent is internal"),
        }
    }

    /// Rotate the left sibling's last entry/child into the child.
    fn borrow_from_left(
        g: &mut WriteLatch<'_, Node>,
        ci: usize,
        sg: &mut WriteLatch<'_, Node>,
        cg: &mut WriteLatch<'_, Node>,
    ) {
        let new_sep = match (&mut **sg, &mut **cg) {
            (Node::Leaf { entries: se, .. }, Node::Leaf { entries: ce, .. }) => {
                let moved = se.pop().expect("left sibling has spare");
                let sep = Sep::new(moved.key.clone());
                ce.insert(0, moved);
                sep
            }
            (
                Node::Internal {
                    keys: sk,
                    children: sc,
                },
                Node::Internal {
                    keys: ck,
                    children: cc,
                },
            ) => {
                let Node::Internal { keys, .. } = &**g else {
                    unreachable!("parent is internal")
                };
                ck.insert(0, keys[ci - 1].clone());
                cc.insert(0, sc.pop().expect("left sibling has spare"));
                sk.pop().expect("left sibling has keys")
            }
            _ => unreachable!("siblings are the same kind"),
        };
        match &mut **g {
            Node::Internal { keys, .. } => keys[ci - 1] = new_sep,
            _ => unreachable!("parent is internal"),
        }
    }

    /// Merge `children[left_idx + 1]` (in `rg`) into `children[left_idx]`
    /// (in `lg`) and drop the separator. The caller frees the right page.
    fn merge_right_into_left(
        g: &mut WriteLatch<'_, Node>,
        left_idx: usize,
        lg: &mut WriteLatch<'_, Node>,
        rg: &mut WriteLatch<'_, Node>,
    ) {
        match (&mut **lg, &mut **rg) {
            (
                Node::Leaf {
                    entries: le,
                    next: ln,
                },
                Node::Leaf {
                    entries: re,
                    next: rn,
                },
            ) => {
                le.append(re);
                *ln = *rn;
            }
            (
                Node::Internal {
                    keys: lk,
                    children: lc,
                },
                Node::Internal {
                    keys: rk,
                    children: rc,
                },
            ) => {
                let Node::Internal { keys, .. } = &**g else {
                    unreachable!("parent is internal")
                };
                lk.push(keys[left_idx].clone());
                lk.append(rk);
                lc.append(rc);
            }
            _ => unreachable!("siblings are the same kind"),
        }
        match &mut **g {
            Node::Internal { keys, children } => {
                keys.remove(left_idx);
                children.remove(left_idx + 1);
            }
            _ => unreachable!("parent is internal"),
        }
    }

    // ------------------------------------------------------------------
    // Introspection (tests, cloning)
    // ------------------------------------------------------------------

    /// Tree depth (root = 1) along the leftmost path. Takes read latches
    /// one level at a time and validates each parent like a descent, so a
    /// concurrent merge cannot hand it a freed node.
    #[cfg(test)]
    pub(crate) fn depth(&self) -> usize {
        'restart: loop {
            let mut d = 1;
            let mut cur = self.pager.page(ROOT);
            let mut parent: Option<(&Page<Node>, u64)> = None;
            loop {
                let g = self.pager.read_latch(cur);
                if let Some((p, v)) = parent {
                    if p.version() != v {
                        continue 'restart;
                    }
                }
                let Node::Internal { children, .. } = &*g else {
                    return d;
                };
                let cid = children[0];
                parent = Some((cur, cur.version()));
                drop(g);
                cur = self.pager.page(cid);
                d += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pager::latch_debug_assert_none_held;
    use std::cell::RefCell;

    type Hook = Box<dyn FnMut()>;

    thread_local! {
        /// Runs on a writer's thread between dropping its leaf's read latch
        /// and taking the write latch. That gap is a few instructions wide;
        /// tests put a structure change into it, or a pause in which
        /// another thread can make one.
        static RELATCH_GAP: RefCell<Option<Hook>> = const { RefCell::new(None) };
        /// Runs on a thread at the start of each hinted revisit, between
        /// the descent that produced the hint and the revisit's latch —
        /// where a transaction waits for its logical locks.
        static HINT_GAP: RefCell<Option<Hook>> = const { RefCell::new(None) };
    }

    /// Run the hook in `slot`, if any. It is out of its slot while it
    /// runs, so a tree operation inside it does not re-enter it.
    fn run_hook(slot: &'static std::thread::LocalKey<RefCell<Option<Hook>>>) {
        if let Some(mut hook) = slot.take() {
            hook();
            slot.set(Some(hook));
        }
    }

    pub(super) fn relatch_gap() {
        run_hook(&RELATCH_GAP);
    }

    pub(super) fn hint_gap() {
        run_hook(&HINT_GAP);
    }

    /// Run `hook` once, in the next gap of `slot` on this thread.
    fn once_in(
        slot: &'static std::thread::LocalKey<RefCell<Option<Hook>>>,
        hook: impl FnOnce() + 'static,
    ) {
        let mut hook = Some(hook);
        slot.set(Some(Box::new(move || {
            if let Some(h) = hook.take() {
                h();
            }
        })));
    }

    /// Run `hook` once, in the next relatch gap on this thread.
    fn in_next_gap(hook: impl FnOnce() + 'static) {
        once_in(&RELATCH_GAP, hook);
    }

    /// Run `hook` once, in the next hint gap on this thread.
    fn in_next_hint_gap(hook: impl FnOnce() + 'static) {
        once_in(&HINT_GAP, hook);
    }

    fn entry(k: i64) -> LeafEntry {
        LeafEntry {
            key: Key::ints(&[k]),
            slot: k as Slot,
            row: Some(Row(vec![acc_common::Value::Int(k)])),
            chain: Vec::new(),
        }
    }

    fn insert(t: &BTree, k: i64) {
        t.upsert(&Key::ints(&[k]), |entries, idx, exists| {
            assert!(!exists, "fresh key");
            entries.insert(idx, entry(k));
        });
    }

    fn remove(t: &BTree, k: i64) -> bool {
        t.remove_if(&Key::ints(&[k]), |e| (e.is_some(), true))
    }

    fn keys_in_order(t: &BTree) -> Vec<i64> {
        t.scan_collect(
            &Key(Vec::new()),
            |_| true,
            |e| {
                Some(match e.key.0[0] {
                    acc_common::Value::Int(i) => i,
                    _ => panic!("int key"),
                })
            },
            usize::MAX,
        )
    }

    #[test]
    fn splits_keep_order_and_point_reads() {
        let t = BTree::with_fanout(2, 8); // tiny nodes: split constantly
        let mut expect: Vec<i64> = Vec::new();
        for k in [5, 1, 9, 3, 7, 2, 8, 4, 6, 0, 15, 12, 11, 14, 13, 10] {
            insert(&t, k);
            expect.push(k);
            expect.sort_unstable();
            assert_eq!(keys_in_order(&t), expect, "after inserting {k}");
        }
        assert!(t.depth() > 2, "tiny leaves must have split more than once");
        for k in 0..16 {
            let found = t.read_entry(&Key::ints(&[k]), |e| e.map(|e| e.slot));
            assert_eq!(found, Some(k as Slot));
        }
        assert!(
            !t.read_entry(&Key::ints(&[99]), |e| e.is_some()),
            "absent key"
        );
        assert!(t.counters().splits > 2);
        latch_debug_assert_none_held("btree unit test");
    }

    #[test]
    fn merges_shrink_the_tree_back() {
        let t = BTree::with_fanout(2, 8);
        for k in 0..64 {
            insert(&t, k);
        }
        let deep = t.depth();
        assert!(deep >= 3);
        for k in 0..63 {
            assert!(remove(&t, k), "key {k} was present");
            let mut expect: Vec<i64> = (k + 1..64).collect();
            expect.sort_unstable();
            assert_eq!(keys_in_order(&t), expect, "after removing {k}");
        }
        assert_eq!(keys_in_order(&t), vec![63]);
        assert!(t.counters().merges > 0, "shrinking must have merged");
        // Root collapse happens lazily on the next remove-descent.
        assert!(remove(&t, 63));
        assert!(!remove(&t, 63), "second remove finds nothing");
        assert_eq!(t.depth(), 1, "tree collapsed back to a root leaf");
        assert!(
            t.counters().page_frees > 0,
            "merged pages went back to the free list"
        );
        latch_debug_assert_none_held("btree unit test");
    }

    #[test]
    fn scan_collect_ranges_and_limits() {
        let t = BTree::new(3);
        for k in 0..30 {
            insert(&t, k);
        }
        let lo = Key::ints(&[10]);
        let hi = Key::ints(&[20]);
        let mid: Vec<i64> = t.scan_collect(
            &lo,
            |k| *k < hi,
            |e| match e.key.0[0] {
                acc_common::Value::Int(i) => Some(i),
                _ => None,
            },
            usize::MAX,
        );
        assert_eq!(mid, (10..20).collect::<Vec<_>>());
        let first: Vec<i64> = t.scan_collect(
            &lo,
            |k| *k < hi,
            |e| match e.key.0[0] {
                acc_common::Value::Int(i) => Some(i),
                _ => None,
            },
            1,
        );
        assert_eq!(first, vec![10], "limit=1 early-terminates");
    }

    /// Regression for the structure-change/optimistic-reader race: splits,
    /// merges, borrows, and root collapses release a modified (or freed)
    /// child's latch while the parent is still write-latched, and only the
    /// odd-while-held locked-version encoding makes a stale reader restart
    /// in that window. Anchor keys are inserted up front and never removed;
    /// churn threads force constant structure changes around them while
    /// reader threads assert no anchor ever reads as absent and no scan
    /// ever drops one.
    #[test]
    fn concurrent_readers_never_miss_committed_keys() {
        use std::sync::atomic::{AtomicBool, Ordering};
        // Tiny nodes: constant splits and merges, internal ones included.
        let t = BTree::with_fanout(2, 8);
        let anchors: Vec<i64> = (0..100).map(|k| k * 2).collect();
        for &k in &anchors {
            insert(&t, k);
        }
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            let churners: Vec<_> = (0..2)
                .map(|w| {
                    let t = &t;
                    s.spawn(move || {
                        // Disjoint odd key ranges per churner, interleaved
                        // between the anchors to move them around.
                        let odds: Vec<i64> = (0..50).map(|i| 1 + 4 * i + 2 * w).collect();
                        for _ in 0..200 {
                            for &k in &odds {
                                insert(t, k);
                            }
                            for &k in &odds {
                                assert!(remove(t, k));
                            }
                            latch_debug_assert_none_held("churner round");
                        }
                    })
                })
                .collect();
            for _ in 0..2 {
                let (t, anchors, stop) = (&t, &anchors, &stop);
                s.spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        for &k in anchors {
                            let found = t.read_entry(&Key::ints(&[k]), |e| e.map(|e| e.slot));
                            assert_eq!(found, Some(k as Slot), "anchor {k} vanished");
                        }
                        let seen: Vec<i64> = keys_in_order(t);
                        for &k in anchors {
                            assert!(seen.binary_search(&k).is_ok(), "scan dropped anchor {k}");
                        }
                        latch_debug_assert_none_held("reader round");
                    }
                });
            }
            // Stop the readers before surfacing a churner's panic, or the
            // scope would wait on them forever.
            let joined: Vec<_> = churners.into_iter().map(|c| c.join()).collect();
            stop.store(true, Ordering::Relaxed);
            for j in joined {
                j.expect("churner panicked");
            }
        });
        assert_eq!(keys_in_order(&t), anchors, "only the anchors remain");
        assert!(t.counters().splits > 0 && t.counters().merges > 0);
    }

    #[test]
    fn in_leaf_writes_take_no_root_write_latch() {
        let t = BTree::new(2);
        // Keys …, 6, 3, 0 in descending order: each insert sorts before the
        // entries of its full leaf, which splits at its midpoint, so every
        // leaf but the first ([0, 3]) keeps one entry and a key 3k + 1,
        // k >= 2, lands in a leaf with room.
        for k in (0..400).rev() {
            insert(&t, 3 * k);
        }
        assert!(t.depth() >= 3, "depth {}", t.depth());
        let before = t.counters();
        for i in 0..1000 {
            t.with_entry(&Key::ints(&[3 * (i % 400)]), |e| {
                e.expect("present").slot += 1;
            });
        }
        for k in 2..202 {
            insert(&t, 3 * k + 1);
        }
        let d = t.counters() - before;
        assert_eq!(d.root_write_latches, 0, "an in-leaf write latched the root");
        assert_eq!(d.page_writes, 1200, "one write latch per write: its leaf");
        assert_eq!(d.splits, 0);
        // Key 8 belongs in the now-full leaf [6, 7]: the insert splits it,
        // crabbing down from the root.
        insert(&t, 8);
        let d = t.counters() - before;
        assert!(d.root_write_latches >= 1, "a split descends from the root");
        assert!(d.splits >= 1);
        assert_eq!(
            keys_in_order(&t).len(),
            601,
            "every key is still in the tree"
        );
        latch_debug_assert_none_held("btree unit test");
    }

    /// The interleavings the in-leaf writers must survive, forced on one
    /// thread: between a writer's read latch on its leaf and its write
    /// latch, inserts change that leaf's key range. The writer must see the
    /// leaf's version move, restart, and write where the key now belongs.
    #[test]
    fn in_leaf_writers_restart_when_their_leaf_splits_in_the_gap() {
        let t = std::rc::Rc::new(BTree::new(2));
        // Leaves [0, 10], [20, 30]: the insert of 20 split the full [0, 10]
        // at its end.
        for k in [0, 10, 20, 30] {
            insert(&t, k);
        }
        // A rewrite of 30: the gap's insert of 25 splits [20, 30] at its
        // midpoint and moves 30 to a fresh leaf.
        let t2 = std::rc::Rc::clone(&t);
        in_next_gap(move || insert(&t2, 25));
        let before = t.counters();
        t.with_entry(&Key::ints(&[30]), |e| {
            e.expect("the rewrite finds its key").slot = 99;
        });
        assert_eq!((t.counters() - before).read_restarts, 1);
        let slot = t.read_entry(&Key::ints(&[30]), |e| e.map(|e| e.slot));
        assert_eq!(slot, Some(99));
        // An insert of 33 into [30], which has room: the gap's inserts of
        // 31 and 32 fill it and split it at its end, and 33 now belongs in
        // [32].
        let t2 = std::rc::Rc::clone(&t);
        in_next_gap(move || {
            insert(&t2, 31);
            insert(&t2, 32);
        });
        let before = t.counters();
        insert(&t, 33);
        assert_eq!((t.counters() - before).read_restarts, 1);
        assert!(
            t.read_entry(&Key::ints(&[33]), |e| e.is_some()),
            "33 is reachable"
        );
        assert_eq!(keys_in_order(&t), vec![0, 10, 20, 25, 30, 31, 32, 33]);
        RELATCH_GAP.take();
        latch_debug_assert_none_held("btree unit test");
    }

    fn slot_of(t: &BTree, k: i64) -> Option<Slot> {
        t.read_entry(&Key::ints(&[k]), |e| e.map(|e| e.slot))
    }

    fn hint_for(t: &BTree, k: i64) -> LeafHint {
        t.read_entry_hinted(&Key::ints(&[k]), |_| ()).1
    }

    #[test]
    fn hinted_revisits_of_an_unchanged_leaf_take_one_latch() {
        // Descending inserts leave one entry in every leaf but the first.
        let t = BTree::with_fanout(2, 4);
        for k in (0..64).rev() {
            insert(&t, 2 * k);
        }
        assert!(t.depth() >= 3, "depth {}", t.depth());
        let key = Key::ints(&[74]);
        let h = hint_for(&t, 74);
        let before = t.counters();
        assert_eq!(t.read_entry_at(h, &key, |e| e.map(|e| e.slot)), Some(74));
        let d = t.counters() - before;
        assert_eq!((d.page_reads, d.page_writes, d.hint_misses), (1, 0, 0));
        let ((), after) = t.with_entry_at(h, &key, |e| e.expect("present").slot = 99);
        let d = t.counters() - before;
        assert_eq!((d.page_reads, d.page_writes, d.hint_misses), (1, 1, 0));
        assert_eq!(d.root_write_latches, 0);
        // That write moved the leaf's version: the same hint now misses,
        // and the fallback descent still finds the key.
        assert_eq!(t.read_entry_at(h, &key, |e| e.map(|e| e.slot)), Some(99));
        assert_eq!((t.counters() - before).hint_misses, 1);
        // The hint the write left revisits the leaf with one latch.
        let before = t.counters();
        assert_eq!(
            t.read_entry_at(after, &key, |e| e.map(|e| e.slot)),
            Some(99)
        );
        let d = t.counters() - before;
        assert_eq!((d.page_reads, d.hint_misses), (1, 0));
        // An insert revisits the leaf its duplicate check read: 75 goes
        // into [74], which has room.
        let fresh = Key::ints(&[75]);
        let (absent, h) = t.read_entry_hinted(&fresh, |e| e.is_none());
        assert!(absent);
        let before = t.counters();
        t.upsert_at(h, &fresh, |entries, idx, exists| {
            assert!(!exists);
            entries.insert(idx, entry(75));
        });
        let d = t.counters() - before;
        assert_eq!((d.page_reads, d.page_writes, d.hint_misses), (0, 1, 0));
        assert_eq!(slot_of(&t, 75), Some(75));
        latch_debug_assert_none_held("btree unit test");
    }

    /// A settling visit drops an entry in place from a leaf that keeps
    /// more than its minimum, and leaves the removal to `remove_if` where
    /// the leaf is at its minimum.
    #[test]
    fn settling_visits_remove_in_place_above_the_leaf_minimum() {
        let t = BTree::with_fanout(4, 4);
        for k in 0..40 {
            insert(&t, k);
        }
        assert!(t.depth() >= 3, "depth {}", t.depth());
        // Ascending inserts fill their leaves: [36, 37, 38, 39] has room
        // to lose one.
        let h = hint_for(&t, 38);
        let before = t.counters();
        let (slot, removal_left) = t.settle_at(h, &Key::ints(&[38]), |e| (e.map(|e| e.slot), true));
        assert_eq!((slot, removal_left), (Some(38), false));
        let d = t.counters() - before;
        assert_eq!((d.page_reads, d.page_writes, d.hint_misses), (0, 1, 0));
        assert_eq!(slot_of(&t, 38), None);
        // [36, 37, 39] now keeps two after one more removal, its minimum.
        let h = hint_for(&t, 37);
        assert_eq!(
            t.settle_at(h, &Key::ints(&[37]), |_| ((), true)),
            ((), false)
        );
        let h = hint_for(&t, 36);
        assert_eq!(
            t.settle_at(h, &Key::ints(&[36]), |_| ((), true)),
            ((), true)
        );
        assert_eq!(slot_of(&t, 36), Some(36), "left for remove_if");
        assert!(remove(&t, 36));
        // An absent key is never removed, whatever the visit answers.
        let h = hint_for(&t, 38);
        assert_eq!(
            t.settle_at(h, &Key::ints(&[38]), |e| (e.is_none(), true)),
            (true, false)
        );
        let mut want: Vec<i64> = (0..36).collect();
        want.push(39);
        assert_eq!(keys_in_order(&t), want);
        latch_debug_assert_none_held("btree unit test");
    }

    /// Leaves [0, 10], [20, 30].
    fn two_full_leaves() -> BTree {
        let t = BTree::new(2);
        for k in [0, 10, 20, 30] {
            insert(&t, k);
        }
        t
    }

    /// Leaves [0, 1], [2, 3], [4], [7] under one root.
    fn two_minimal_leaves() -> BTree {
        let t = BTree::with_fanout(2, 8);
        for k in 0..8 {
            insert(&t, k);
        }
        assert!(remove(&t, 6) && remove(&t, 5));
        t
    }

    /// One root leaf [0, 10] with room.
    fn leaf_with_room() -> BTree {
        let t = BTree::new(4);
        for k in [0, 10] {
            insert(&t, k);
        }
        t
    }

    /// Take a hint for `key` on a fresh `build()`, run `gap` in the hint
    /// gap, then `revisit`: the revisit must miss exactly once.
    fn revisit_after_gap<R>(
        build: fn() -> BTree,
        key: i64,
        gap: fn(&BTree),
        revisit: impl FnOnce(&BTree, LeafHint, &Key) -> R,
    ) -> (std::rc::Rc<BTree>, LeafHint, R) {
        let t = std::rc::Rc::new(build());
        let k = Key::ints(&[key]);
        let h = hint_for(&t, key);
        let t2 = std::rc::Rc::clone(&t);
        in_next_hint_gap(move || gap(&t2));
        let before = t.counters();
        let r = revisit(&t, h, &k);
        assert_eq!((t.counters() - before).hint_misses, 1, "key {key}");
        HINT_GAP.take();
        latch_debug_assert_none_held("btree unit test");
        (t, h, r)
    }

    /// The interleavings a hinted revisit must survive, forced on one
    /// thread: between the descent that produced the hint and the revisit,
    /// the hinted leaf splits, merges into its sibling, is freed and
    /// reused, or takes a write to another key. Each revisit, read or
    /// write, must fall back to a descent and touch the key where it lives
    /// now. `check` states what the gap did to the hinted leaf.
    #[test]
    fn hinted_revisits_fall_back_when_their_leaf_changed_in_the_gap() {
        struct Case {
            what: &'static str,
            build: fn() -> BTree,
            key: i64,
            gap: fn(&BTree),
            check: fn(&BTree, LeafHint),
        }
        let cases = [
            Case {
                what: "split moves the key out",
                build: two_full_leaves,
                key: 30,
                gap: |t| insert(t, 25),
                check: |t, h| assert_ne!(hint_for(t, 30).page, h.page),
            },
            Case {
                what: "merged into its left sibling",
                build: two_minimal_leaves,
                key: 7,
                gap: |t| assert!(remove(t, 4)),
                check: |t, h| {
                    assert_eq!(t.counters().merges, 1);
                    assert_eq!(t.pager.n_free(), 1, "the hinted leaf was freed");
                    assert_ne!(hint_for(t, 7).page, h.page);
                },
            },
            Case {
                what: "freed and reused",
                build: two_minimal_leaves,
                key: 7,
                gap: |t| {
                    assert!(remove(t, 4));
                    insert(t, 8);
                    insert(t, 9);
                },
                check: |t, h| {
                    assert_eq!(t.pager.n_free(), 0);
                    assert_eq!(hint_for(t, 9).page, h.page, "the frame took key 9");
                },
            },
            Case {
                what: "another key written into it",
                build: leaf_with_room,
                key: 10,
                gap: |t| insert(t, 5),
                check: |t, h| assert_eq!(hint_for(t, 10).page, h.page),
            },
        ];
        for Case {
            what,
            build,
            key,
            gap,
            check,
        } in cases
        {
            let (t, h, found) = revisit_after_gap(build, key, gap, |t, h, k| {
                t.read_entry_at(h, k, |e| e.map(|e| e.slot))
            });
            assert_eq!(found, Some(key as Slot), "{what}: read");
            check(&t, h);
            let (t, h, ()) = revisit_after_gap(build, key, gap, |t, h, k| {
                t.with_entry_at(h, k, |e| e.expect("the write finds its key").slot = 99)
                    .0
            });
            assert_eq!(slot_of(&t, key), Some(99), "{what}: write");
            check(&t, h);
        }
        // An insert whose leaf fills and splits at its end in the gap goes
        // into the fresh right leaf.
        let (t, h, ()) = revisit_after_gap(
            || {
                let t = two_full_leaves();
                insert(&t, 40);
                t
            },
            35,
            |t| {
                insert(t, 36);
                insert(t, 37);
            },
            |t, h, k| {
                t.upsert_at(h, k, |entries, idx, exists| {
                    assert!(!exists);
                    entries.insert(idx, entry(35));
                })
                .0
            },
        );
        assert_ne!(hint_for(&t, 35).page, h.page);
        assert_eq!(keys_in_order(&t), vec![0, 10, 20, 30, 35, 36, 37, 40]);
    }

    /// Optimistic writers against optimistic readers. Two writers rewrite
    /// their own keys in place through the in-leaf path, bumping a counter
    /// in the row, while each inserts fresh keys around the other's keys
    /// and removes them again. So leaves and 4-way internal nodes split,
    /// borrow and merge under the in-leaf writers, moving the rewritten
    /// keys between leaves. Readers assert that every owned key stays
    /// readable and that no counter goes backwards; writers assert that a
    /// rewrite finds its key and a remove finds its fresh key. A writer
    /// whose leaf changed between its read latch and its write latch would
    /// miss its key there, or insert where no descent finds the key.
    #[test]
    fn optimistic_writers_keep_every_key_readable() {
        use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
        use std::sync::Barrier;
        const OWNED: i64 = 4; // keys per writer
        const ROUNDS: i64 = 300;
        // Writer w's i-th key, and the fresh keys the other writer churns
        // around it.
        let owned = |w: i64, i: i64| i * 100 + w * 50;
        let fresh = |w: i64, i: i64| {
            let other = owned(1 - w, i);
            [other - 2, other - 1, other + 1, other + 2]
        };
        let counter = |t: &BTree, k: i64| {
            t.read_entry(&Key::ints(&[k]), |e| {
                e.map(|e| match e.row.as_ref().expect("live row").0[0] {
                    acc_common::Value::Int(c) => c,
                    _ => panic!("int counter"),
                })
            })
        };
        let t = BTree::with_fanout(2, 4);
        for w in 0..2 {
            for i in 0..OWNED {
                let k = owned(w, i);
                t.upsert(&Key::ints(&[k]), |entries, idx, _| {
                    let mut e = entry(k);
                    e.row = Some(Row(vec![acc_common::Value::Int(0)]));
                    entries.insert(idx, e);
                });
            }
        }
        let max_depth = AtomicUsize::new(0);
        let stop = AtomicBool::new(false);
        let start = Barrier::new(4);
        std::thread::scope(|s| {
            let writers: Vec<_> = (0..2)
                .map(|w| {
                    let (t, max_depth, start) = (&t, &max_depth, &start);
                    s.spawn(move || {
                        // Pause in each gap, so the other writer's
                        // structure changes land in some.
                        RELATCH_GAP.set(Some(Box::new(|| {
                            for _ in 0..1 << 10 {
                                std::hint::spin_loop();
                            }
                        })));
                        start.wait();
                        for r in 1..=ROUNDS {
                            for i in 0..OWNED {
                                t.with_entry(&Key::ints(&[owned(w, i)]), |e| {
                                    let e = e.expect("own key is in the latched leaf");
                                    e.row = Some(Row(vec![acc_common::Value::Int(r)]));
                                });
                                for k in fresh(w, i) {
                                    insert(t, k);
                                }
                                max_depth.fetch_max(t.depth(), Ordering::Relaxed);
                                for k in fresh(w, i) {
                                    assert!(remove(t, k), "fresh key {k} is where it belongs");
                                }
                            }
                            latch_debug_assert_none_held("writer round");
                        }
                    })
                })
                .collect();
            for _ in 0..2 {
                let (t, stop, start) = (&t, &stop, &start);
                s.spawn(move || {
                    start.wait();
                    let mut seen = vec![0i64; 2 * OWNED as usize];
                    while !stop.load(Ordering::Relaxed) {
                        for w in 0..2 {
                            for i in 0..OWNED {
                                let k = owned(w, i);
                                let c = counter(t, k).unwrap_or_else(|| panic!("key {k} vanished"));
                                let last = &mut seen[(2 * i + w) as usize];
                                assert!(c >= *last, "key {k}: counter went {last} -> {c}");
                                *last = c;
                            }
                        }
                        latch_debug_assert_none_held("reader round");
                    }
                });
            }
            // Stop the readers before surfacing a writer's panic, or the
            // scope would wait on them forever.
            let joined: Vec<_> = writers.into_iter().map(|wr| wr.join()).collect();
            stop.store(true, Ordering::Relaxed);
            for j in joined {
                j.expect("writer panicked");
            }
        });
        assert_eq!(
            keys_in_order(&t).len() as i64,
            2 * OWNED,
            "fresh keys all gone"
        );
        for w in 0..2 {
            for i in 0..OWNED {
                assert_eq!(counter(&t, owned(w, i)), Some(ROUNDS));
            }
        }
        let c = t.counters();
        assert!(c.splits > 0 && c.merges > 0);
        assert!(
            max_depth.load(Ordering::Relaxed) >= 3,
            "internal nodes split too"
        );
    }

    #[test]
    fn chains_survive_relocation() {
        use acc_common::TxnId;
        let t = BTree::new(2);
        insert(&t, 1);
        t.with_entry(&Key::ints(&[1]), |e| {
            e.expect("present").chain.push(ChainEntry::Committed {
                commit_lsn: 7,
                before: None,
            });
        });
        // Force the entry to relocate through many splits.
        for k in 2..40 {
            insert(&t, k);
        }
        let chain = t.read_entry(&Key::ints(&[1]), |e| e.map(|e| e.chain.clone()));
        assert_eq!(
            chain.expect("entry survived").len(),
            1,
            "chain rode along through splits"
        );
        // And back through merges.
        for k in 2..40 {
            remove(&t, k);
        }
        let chain = t.read_entry(&Key::ints(&[1]), |e| e.map(|e| e.chain.clone()));
        assert_eq!(chain.expect("entry survived").len(), 1);
        let _ = TxnId(0);
    }
}
