//! Lock-manager micro-benchmarks: the cost of the ACC's run-time mechanism.
//!
//! The paper claims the overhead of an assertional lock is "comparable to
//! that for conventional locks" (§3.2); these benchmarks measure both.

use acc_bench::microbench::Criterion;
use acc_bench::{criterion_group, criterion_main};
use acc_common::{AssertionTemplateId, ResourceId, StepTypeId, TxnId};
use acc_lockmgr::{
    InterferenceOracle, LockKind, LockManager, Request, RequestCtx, RequestOutcome,
    ShardedLockManager,
};
use std::hint::black_box;

struct TableOracle;

impl InterferenceOracle for TableOracle {
    fn write_interferes(&self, step: StepTypeId, assertion: AssertionTemplateId) -> bool {
        (step.raw() + assertion.raw()).is_multiple_of(5)
    }
    fn read_interferes(&self, _: StepTypeId, _: AssertionTemplateId) -> bool {
        false
    }
}

fn bench_conventional(c: &mut Criterion) {
    c.bench_function("lockmgr/conventional_acquire_release", |b| {
        let oracle = TableOracle;
        let mut lm = LockManager::new();
        let mut i = 0u64;
        b.iter(|| {
            let txn = TxnId(i);
            let r = ResourceId::Named((i % 64) as u32);
            i += 1;
            let out = lm.request(
                Request::new(txn, r, LockKind::X, RequestCtx::plain(StepTypeId(1))),
                &oracle,
            );
            assert_eq!(out, RequestOutcome::Granted);
            black_box(lm.release_all(txn, &oracle));
        });
    });
}

fn bench_assertional(c: &mut Criterion) {
    c.bench_function("lockmgr/assertional_acquire_release", |b| {
        let oracle = TableOracle;
        let mut lm = LockManager::new();
        let mut i = 0u64;
        b.iter(|| {
            let txn = TxnId(i);
            let r = ResourceId::Named((i % 64) as u32);
            i += 1;
            let ctx = RequestCtx::plain(StepTypeId(1));
            lm.request(Request::new(txn, r, LockKind::X, ctx), &oracle);
            lm.request(
                Request::new(txn, r, LockKind::Assertional(AssertionTemplateId(1)), ctx),
                &oracle,
            );
            black_box(lm.release_all(txn, &oracle));
        });
    });
}

fn bench_contended_queue(c: &mut Criterion) {
    c.bench_function("lockmgr/contended_fifo_handoff", |b| {
        let oracle = TableOracle;
        b.iter(|| {
            let mut lm = LockManager::new();
            let r = ResourceId::Named(0);
            // One holder, 16 waiters, then a release cascade.
            for t in 0..17u64 {
                lm.request(
                    Request::new(TxnId(t), r, LockKind::X, RequestCtx::plain(StepTypeId(1))),
                    &oracle,
                );
            }
            for t in 0..17u64 {
                black_box(lm.release_all(TxnId(t), &oracle));
            }
        });
    });
}

fn bench_sharded_single_thread(c: &mut Criterion) {
    // The single-threaded cost of going through the sharded front door
    // (shard hash + per-shard mutex) instead of the plain manager. Must stay
    // within noise of `lockmgr/conventional_acquire_release` — uncontended
    // acquire/release is the hot path the decomposition must not tax.
    c.bench_function("lockmgr/sharded_acquire_release", |b| {
        let oracle = TableOracle;
        let lm = ShardedLockManager::new(ShardedLockManager::DEFAULT_SHARDS);
        let mut i = 0u64;
        b.iter(|| {
            let txn = TxnId(i);
            let r = ResourceId::Named((i % 64) as u32);
            i += 1;
            let out = lm.request(
                Request::new(txn, r, LockKind::X, RequestCtx::plain(StepTypeId(1))),
                &oracle,
                &mut |_| (),
            );
            assert_eq!(out, RequestOutcome::Granted);
            lm.release_all(txn, &oracle, &mut |n| {
                black_box(n);
            });
        });
    });
}

criterion_group!(
    benches,
    bench_conventional,
    bench_assertional,
    bench_contended_queue,
    bench_sharded_single_thread
);
criterion_main!(benches);
