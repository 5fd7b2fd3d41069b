//! A page directory with per-page latches — the physical layer under the
//! paged B-tree (the private `btree` module).
//!
//! The pager owns a directory of fixed-capacity pages (capacity is enforced
//! by the tree's split/merge thresholds; the pager just hands out page
//! frames). Each page carries its node payload behind an `RwLock` — the
//! *page latch* — plus a version counter with the classic OLC *locked*
//! encoding: the counter is bumped to **odd** when a write latch is
//! acquired and back to **even** when it is released (free bumps it odd
//! again until reuse). Optimistic readers descend without holding two
//! latches at once and use the version counter to detect that a pointer
//! they followed went stale, restarting from the root instead of blocking
//! writers. The odd-while-held half is load-bearing: a structure-changing
//! writer (split, merge, borrow, root collapse) may release a modified
//! child's latch while still holding the parent, and a reader that routed
//! through the pre-change parent must fail its parent validation *during*
//! that window, not only after the parent's latch is released.
//!
//! Page latches are *physical* and short: they are held only across a single
//! node visit (plus the parent during crabbing) and never across a logical
//! lock wait, a WAL append, or a step boundary. Logical ACC locks order
//! transactions; page latches only keep individual node reads/writes atomic.
//! See DESIGN.md §10 for the full no-deadlock argument.
//!
//! In debug builds every latch acquisition is tracked in a thread-local
//! registry that asserts the crabbing discipline: no re-latching a page the
//! thread already holds (self-deadlock), never more than three latches at
//! once (parent + child + sibling is the crabbing maximum), and — via
//! [`latch_debug_assert_none_held`], called at step boundaries by the
//! transaction layer and by the stress gate — no latch leaks across a step.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard, TryLockError};

/// Index into the pager's page directory. Stable for the life of the page;
/// reuse after [`Pager::free_page`] is detected by readers via the version
/// counter.
pub(crate) type PageId = u32;

/// One page frame: the node payload behind its latch, plus the optimistic
/// readers' version counter.
pub(crate) struct Page<N> {
    /// OLC locked-version counter: even at rest, odd while a write latch
    /// is held (and from free until reuse). Readers capture it while
    /// holding the read latch — so a captured version of a live page is
    /// always even — and re-check it after latching the next node down; a
    /// mismatch (the writer is still in there, or came and went) means the
    /// pointer they followed may no longer be valid and the descent
    /// restarts.
    version: AtomicU64,
    node: RwLock<N>,
}

impl<N> Page<N> {
    /// Current version (valid to sample any time; only stable while this
    /// thread holds the page's latch).
    pub(crate) fn version(&self) -> u64 {
        self.version.load(Relaxed)
    }
}

/// Read latch on one page. Dropping releases the latch (and pops the debug
/// registry entry).
pub(crate) struct ReadLatch<'a, N> {
    guard: RwLockReadGuard<'a, N>,
    #[cfg(debug_assertions)]
    _held: debug::Held,
}

impl<N> std::ops::Deref for ReadLatch<'_, N> {
    type Target = N;
    fn deref(&self) -> &N {
        &self.guard
    }
}

/// Write latch on one page. Acquiring bumps the page version to odd
/// (writer in progress) and dropping bumps it back to even, so a reader
/// validating against a version captured before this latch was taken
/// restarts whether it validates mid-hold or after release.
pub(crate) struct WriteLatch<'a, N> {
    guard: Option<RwLockWriteGuard<'a, N>>,
    version: &'a AtomicU64,
    #[cfg(debug_assertions)]
    _held: Option<debug::Held>,
}

impl<N> std::ops::Deref for WriteLatch<'_, N> {
    type Target = N;
    fn deref(&self) -> &N {
        self.guard.as_ref().expect("write latch live")
    }
}

impl<N> std::ops::DerefMut for WriteLatch<'_, N> {
    fn deref_mut(&mut self) -> &mut N {
        self.guard.as_mut().expect("write latch live")
    }
}

impl<N> Drop for WriteLatch<'_, N> {
    fn drop(&mut self) {
        // Back to even while still holding the latch: the RwLock release
        // that follows publishes the new version to the next latcher.
        self.version.fetch_add(1, Relaxed);
        drop(self.guard.take());
        #[cfg(debug_assertions)]
        drop(self._held.take());
    }
}

/// Live counters, all relaxed atomics — cheap enough to leave on in release
/// builds. Snapshot with [`Pager::counters`].
#[derive(Default)]
pub(crate) struct PagerStats {
    reads: AtomicU64,
    writes: AtomicU64,
    latch_waits: AtomicU64,
    restarts: AtomicU64,
    splits: AtomicU64,
    merges: AtomicU64,
    allocs: AtomicU64,
    frees: AtomicU64,
}

/// A point-in-time snapshot of one pager's counters (or a sum over many —
/// see [`std::ops::Add`] below). Surfaced by `figures -- lockstat`,
/// `figures -- pagebench`, and the mtbench read-mostly cells.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PagerCounters {
    /// Read-latch acquisitions (one per node visited on a read descent).
    pub page_reads: u64,
    /// Write-latch acquisitions (one per node visited on a write descent).
    pub page_writes: u64,
    /// Latch acquisitions that found the page latched and had to block.
    pub latch_waits: u64,
    /// Optimistic read descents that failed version validation and
    /// restarted from the root.
    pub read_restarts: u64,
    /// Leaf/internal node splits.
    pub splits: u64,
    /// Leaf/internal node merges (borrows are not counted).
    pub merges: u64,
    /// Pages allocated (fresh or reused from the free list).
    pub page_allocs: u64,
    /// Pages returned to the free list.
    pub page_frees: u64,
    /// Pages currently in the directory (allocated + free-listed).
    pub pages: u64,
}

impl std::ops::Add for PagerCounters {
    type Output = PagerCounters;
    fn add(self, o: PagerCounters) -> PagerCounters {
        PagerCounters {
            page_reads: self.page_reads + o.page_reads,
            page_writes: self.page_writes + o.page_writes,
            latch_waits: self.latch_waits + o.latch_waits,
            read_restarts: self.read_restarts + o.read_restarts,
            splits: self.splits + o.splits,
            merges: self.merges + o.merges,
            page_allocs: self.page_allocs + o.page_allocs,
            page_frees: self.page_frees + o.page_frees,
            pages: self.pages + o.pages,
        }
    }
}

/// Delta between two snapshots of the same pager (benchmark phases).
/// Saturating: `pages` is a level, not a monotone count, so a shrinking
/// directory must not wrap.
impl std::ops::Sub for PagerCounters {
    type Output = PagerCounters;
    fn sub(self, o: PagerCounters) -> PagerCounters {
        PagerCounters {
            page_reads: self.page_reads.saturating_sub(o.page_reads),
            page_writes: self.page_writes.saturating_sub(o.page_writes),
            latch_waits: self.latch_waits.saturating_sub(o.latch_waits),
            read_restarts: self.read_restarts.saturating_sub(o.read_restarts),
            splits: self.splits.saturating_sub(o.splits),
            merges: self.merges.saturating_sub(o.merges),
            page_allocs: self.page_allocs.saturating_sub(o.page_allocs),
            page_frees: self.page_frees.saturating_sub(o.page_frees),
            pages: self.pages.saturating_sub(o.pages),
        }
    }
}

/// The page directory: `Arc`ed page frames plus a LIFO free list. Growing
/// the directory takes the directory write lock; every other access is a
/// shared read of the `Arc` slot.
pub(crate) struct Pager<N> {
    pages: RwLock<Vec<Arc<Page<N>>>>,
    free: Mutex<Vec<PageId>>,
    stats: PagerStats,
}

fn lock_read<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(PoisonError::into_inner)
}

fn lock_write<T>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(PoisonError::into_inner)
}

impl<N> Pager<N> {
    /// A pager whose page 0 (the tree root — its id never changes) holds
    /// `root`.
    pub(crate) fn new(root: N) -> Pager<N> {
        Pager {
            pages: RwLock::new(vec![Arc::new(Page {
                version: AtomicU64::new(0),
                node: RwLock::new(root),
            })]),
            free: Mutex::new(Vec::new()),
            stats: PagerStats::default(),
        }
    }

    /// The `Arc` handle for a page. Callers keep the handle alive across the
    /// latch they take on it.
    pub(crate) fn page(&self, id: PageId) -> Arc<Page<N>> {
        Arc::clone(&lock_read(&self.pages)[id as usize])
    }

    /// Acquire the read latch on `page`, counting a latch wait if it blocks.
    pub(crate) fn read_latch<'a>(&self, page: &'a Arc<Page<N>>) -> ReadLatch<'a, N> {
        self.stats.reads.fetch_add(1, Relaxed);
        #[cfg(debug_assertions)]
        let _held = debug::acquire(Arc::as_ptr(page) as usize, false);
        let guard = match page.node.try_read() {
            Ok(g) => g,
            Err(TryLockError::Poisoned(p)) => p.into_inner(),
            Err(TryLockError::WouldBlock) => {
                self.stats.latch_waits.fetch_add(1, Relaxed);
                page.node.read().unwrap_or_else(PoisonError::into_inner)
            }
        };
        ReadLatch {
            guard,
            #[cfg(debug_assertions)]
            _held,
        }
    }

    /// Acquire the write latch on `page`, counting a latch wait if it
    /// blocks. The returned latch bumps the page version to odd now (after
    /// the lock is held, so no concurrent reader can capture the odd value
    /// under its read latch) and back to even when dropped.
    pub(crate) fn write_latch<'a>(&self, page: &'a Arc<Page<N>>) -> WriteLatch<'a, N> {
        self.stats.writes.fetch_add(1, Relaxed);
        #[cfg(debug_assertions)]
        let _held = debug::acquire(Arc::as_ptr(page) as usize, true);
        let guard = match page.node.try_write() {
            Ok(g) => g,
            Err(TryLockError::Poisoned(p)) => p.into_inner(),
            Err(TryLockError::WouldBlock) => {
                self.stats.latch_waits.fetch_add(1, Relaxed);
                page.node.write().unwrap_or_else(PoisonError::into_inner)
            }
        };
        page.version.fetch_add(1, Relaxed);
        WriteLatch {
            guard: Some(guard),
            version: &page.version,
            #[cfg(debug_assertions)]
            _held: Some(_held),
        }
    }

    /// Allocate a page holding `node`: reuse the most recently freed frame
    /// or grow the directory. Reuse bumps the frame's version so readers
    /// holding a stale pointer to the old tenant restart.
    pub(crate) fn alloc(&self, node: N) -> PageId {
        self.stats.allocs.fetch_add(1, Relaxed);
        let reused = self
            .free
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pop();
        if let Some(id) = reused {
            let page = self.page(id);
            // A straggling reader may still hold the old tenant's latch;
            // waiting here is fine (it validates and restarts on release).
            let mut guard = page.node.write().unwrap_or_else(PoisonError::into_inner);
            *guard = node;
            // Back to even (free left it odd) *before* the lock release
            // publishes the new tenant.
            page.version.fetch_add(1, Relaxed);
            drop(guard);
            return id;
        }
        let mut pages = lock_write(&self.pages);
        let id = pages.len() as PageId;
        pages.push(Arc::new(Page {
            version: AtomicU64::new(0),
            node: RwLock::new(node),
        }));
        id
    }

    /// Return a page to the free list. The caller must have unlinked it from
    /// the tree (under the parent's write latch) and dropped its own latch
    /// on it first. The version bump leaves the page *odd* — "in progress"
    /// until `alloc` reuses it and restores even.
    pub(crate) fn free_page(&self, id: PageId) {
        self.stats.frees.fetch_add(1, Relaxed);
        self.page(id).version.fetch_add(1, Relaxed);
        self.free
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(id);
    }

    /// Count an optimistic-read restart (bumped by the tree layer).
    pub(crate) fn count_restart(&self) {
        self.stats.restarts.fetch_add(1, Relaxed);
    }

    /// Count a split (bumped by the tree layer).
    pub(crate) fn count_split(&self) {
        self.stats.splits.fetch_add(1, Relaxed);
    }

    /// Count a merge (bumped by the tree layer).
    pub(crate) fn count_merge(&self) {
        self.stats.merges.fetch_add(1, Relaxed);
    }

    /// Snapshot the counters.
    pub(crate) fn counters(&self) -> PagerCounters {
        PagerCounters {
            page_reads: self.stats.reads.load(Relaxed),
            page_writes: self.stats.writes.load(Relaxed),
            latch_waits: self.stats.latch_waits.load(Relaxed),
            read_restarts: self.stats.restarts.load(Relaxed),
            splits: self.stats.splits.load(Relaxed),
            merges: self.stats.merges.load(Relaxed),
            page_allocs: self.stats.allocs.load(Relaxed),
            page_frees: self.stats.frees.load(Relaxed),
            pages: lock_read(&self.pages).len() as u64,
        }
    }

    /// Pages currently on the free list (tests).
    #[cfg(test)]
    pub(crate) fn n_free(&self) -> usize {
        self.free
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }
}

/// Debug-build latch-discipline checker: a thread-local registry of held
/// page latches. See the module docs for the asserted invariants.
#[cfg(debug_assertions)]
mod debug {
    use std::cell::RefCell;

    /// Crabbing holds at most parent + child + one sibling.
    const MAX_HELD: usize = 3;

    thread_local! {
        static HELD: RefCell<Vec<(usize, bool)>> = const { RefCell::new(Vec::new()) };
    }

    /// RAII registry entry; dropping it releases the registration.
    pub(super) struct Held {
        page: usize,
    }

    pub(super) fn acquire(page: usize, write: bool) -> Held {
        HELD.with_borrow_mut(|h| {
            assert!(
                !h.iter().any(|&(p, _)| p == page),
                "page latch re-acquired by the holding thread \
                 (crabbing violation; would self-deadlock)"
            );
            h.push((page, write));
            assert!(
                h.len() <= MAX_HELD,
                "{} page latches held at once — latch crabbing holds at most \
                 parent + child + sibling ({MAX_HELD})",
                h.len()
            );
        });
        Held { page }
    }

    impl Drop for Held {
        fn drop(&mut self) {
            HELD.with_borrow_mut(|h| {
                let at = h
                    .iter()
                    .rposition(|&(p, _)| p == self.page)
                    .expect("released latch was registered");
                h.remove(at);
            });
        }
    }

    pub(super) fn assert_none_held(ctx: &str) {
        HELD.with_borrow(|h| {
            assert!(
                h.is_empty(),
                "{ctx}: {} page latch(es) leaked across a latch-free boundary \
                 (write={:?})",
                h.len(),
                h.iter().map(|&(_, w)| w).collect::<Vec<_>>()
            );
        });
    }
}

/// Assert (debug builds only) that the calling thread holds no page latch.
/// The transaction runner calls this at every step boundary and the stress
/// gate calls it per terminal iteration; a failure means a latch leaked out
/// of a tree operation.
pub fn latch_debug_assert_none_held(ctx: &str) {
    #[cfg(debug_assertions)]
    debug::assert_none_held(ctx);
    #[cfg(not(debug_assertions))]
    let _ = ctx;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_reuses_freed_pages_lifo() {
        let p: Pager<i32> = Pager::new(0);
        let a = p.alloc(1);
        let b = p.alloc(2);
        assert_eq!((a, b), (1, 2));
        p.free_page(a);
        p.free_page(b);
        assert_eq!(p.n_free(), 2);
        assert_eq!(p.alloc(3), b, "LIFO reuse");
        assert_eq!(p.alloc(4), a);
        assert_eq!(p.alloc(5), 3, "then grow");
        let c = p.counters();
        assert_eq!(c.page_allocs, 5);
        assert_eq!(c.page_frees, 2);
        assert_eq!(c.pages, 4);
    }

    #[test]
    fn write_latch_version_is_odd_while_held() {
        let p: Pager<i32> = Pager::new(7);
        let page = p.page(0);
        let v0 = page.version();
        assert_eq!(v0 % 2, 0, "a page at rest is even");
        {
            let mut w = p.write_latch(&page);
            *w = 8;
            assert_eq!(
                page.version(),
                v0 + 1,
                "odd while write-latched: a reader validating a version \
                 captured before this latch must fail mid-hold"
            );
        }
        assert_eq!(page.version(), v0 + 2, "back to even at release");
        assert_eq!(*p.read_latch(&page), 8);
        p.free_page(0);
        assert_eq!(page.version(), v0 + 3, "free leaves the page odd");
    }

    #[test]
    fn alloc_reuse_restores_even_version() {
        let p: Pager<i32> = Pager::new(0);
        let a = p.alloc(1);
        let page = p.page(a);
        let v0 = page.version();
        p.free_page(a);
        assert_eq!(page.version() % 2, 1, "freed page reads as in-progress");
        assert_eq!(p.alloc(2), a, "LIFO reuse of the freed frame");
        assert_eq!(page.version(), v0 + 2, "reuse restores an even version");
        assert_eq!(*p.read_latch(&page), 2);
    }

    #[test]
    fn latch_checker_is_clean_after_guard_drop() {
        let p: Pager<i32> = Pager::new(0);
        let page = p.page(0);
        {
            let _r = p.read_latch(&page);
        }
        latch_debug_assert_none_held("pager unit test");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "re-acquired")]
    fn latch_checker_catches_self_relatch() {
        let p: Pager<i32> = Pager::new(0);
        let page = p.page(0);
        let _a = p.read_latch(&page);
        let _b = p.read_latch(&page); // would self-deadlock on a write latch
    }

    #[test]
    fn latch_wait_is_counted() {
        let p: std::sync::Arc<Pager<i32>> = std::sync::Arc::new(Pager::new(0));
        let page = p.page(0);
        let w = p.write_latch(&page);
        let p2 = std::sync::Arc::clone(&p);
        let t = std::thread::spawn(move || {
            let page = p2.page(0);
            let _r = p2.read_latch(&page); // blocks until the writer drops
        });
        while p.counters().latch_waits == 0 {
            std::thread::yield_now();
        }
        drop(w);
        t.join().unwrap();
        assert!(p.counters().latch_waits >= 1);
    }
}
