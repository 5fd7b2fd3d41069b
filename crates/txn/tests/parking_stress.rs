//! Per-ticket parking under contention: no lost wakeups.
//!
//! Every blocked `acquire` parks on its own slot, and the runtime's safety
//! cap turns a lost wakeup into a hard `Error::Internal` after `wait_cap`.
//! Hammering a handful of hot resources from many threads with a short cap
//! therefore *is* the lost-wakeup detector: if any grant ever failed to wake
//! its owner, some thread would time out and the test would fail.

use acc_common::rng::SeededRng;
use acc_common::{ResourceId, StepTypeId, TxnTypeId};
use acc_lockmgr::{LockKind, NoInterference, RequestCtx};
use acc_storage::{Catalog, Database};
use acc_txn::{SharedDb, WaitMode};
use std::sync::Arc;
use std::time::Duration;

fn plain() -> RequestCtx {
    RequestCtx::plain(StepTypeId(0))
}

#[test]
fn hot_resources_never_lose_a_wakeup() {
    const THREADS: u64 = 8;
    const ITERS: usize = 150;
    const HOT: u32 = 4;

    let shared = Arc::new(
        SharedDb::new(Database::new(&Catalog::new()), Arc::new(NoInterference))
            // Short enough to fail fast on a lost wakeup, long enough that
            // honest queueing behind 7 peers never trips it.
            .with_wait_cap(Duration::from_secs(10)),
    );

    let mut handles = Vec::new();
    for thread in 0..THREADS {
        let s = Arc::clone(&shared);
        handles.push(std::thread::spawn(move || {
            let mut rng = SeededRng::new(0x9a7c_0000 ^ thread);
            for i in 0..ITERS {
                let txn = s.begin_txn(TxnTypeId(0));
                // Two locks from disjoint tiers, always acquired low tier
                // first (deadlock-free), so every iteration exercises the
                // enqueue, park, and grant paths.
                let a = rng.index(HOT as usize) as u32;
                let b = HOT + rng.index(HOT as usize) as u32;
                for r in [ResourceId::Named(a), ResourceId::Named(b)] {
                    let ctx = plain();
                    s.acquire(txn, r, LockKind::X, ctx, WaitMode::Block, &NoInterference)
                        .unwrap_or_else(|e| {
                            panic!("thread {thread} iter {i}: lost wakeup or stall: {e}")
                        });
                }
                s.release_all(txn, &NoInterference);
            }
        }));
    }
    for h in handles {
        h.join().expect("worker panicked");
    }
    assert_eq!(shared.total_grants(), 0, "locks drained");
}
