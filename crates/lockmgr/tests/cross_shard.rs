//! Cross-shard deadlock detection must agree with the unsharded manager:
//! same victim choice, same §3.4 compensating rule, same grant-notice
//! stream — the sharding is a pure performance decomposition.

use acc_common::{AssertionTemplateId, ResourceId, StepTypeId, TxnId};
use acc_lockmgr::{
    LockKind, LockManager, Request, RequestCtx, RequestOutcome, ShardedLockManager,
    TotalInterference,
};

fn t(n: u64) -> TxnId {
    TxnId(n)
}

fn plain(txn: u64, r: ResourceId, kind: LockKind) -> Request {
    Request::new(t(txn), r, kind, RequestCtx::plain(StepTypeId(0)))
}

fn compensating(txn: u64, r: ResourceId, kind: LockKind) -> Request {
    let ctx = RequestCtx {
        step_type: StepTypeId(0),
        comp_step: None,
        compensating: true,
    };
    Request::new(t(txn), r, kind, ctx)
}

/// Three `Named` resources that land on three distinct shards of `lm`.
fn three_shards(lm: &ShardedLockManager) -> [ResourceId; 3] {
    let mut picked: Vec<ResourceId> = Vec::new();
    let mut shards = std::collections::HashSet::new();
    for i in 0..256u32 {
        let r = ResourceId::Named(i);
        if shards.insert(lm.shard_of(r)) {
            picked.push(r);
            if picked.len() == 3 {
                return [picked[0], picked[1], picked[2]];
            }
        }
    }
    panic!("could not find three distinct shards");
}

const TEMPLATE: LockKind = LockKind::Assertional(AssertionTemplateId(1));

/// Build the same 3-party cycle in both managers: T1 pins an assertional
/// lock on r1, T2 and T3 hold X on r2/r3, then T2→r1 (assertional edge,
/// writer vs template), T3→r2, and finally T1→r3 closes the cycle. Returns
/// the outcome of the closing request.
fn drive_cycle(
    request: &mut dyn FnMut(Request) -> RequestOutcome,
    rs: [ResourceId; 3],
    closing: Request,
) -> RequestOutcome {
    let [r1, r2, r3] = rs;
    assert_eq!(request(plain(1, r1, TEMPLATE)), RequestOutcome::Granted);
    assert_eq!(request(plain(2, r2, LockKind::X)), RequestOutcome::Granted);
    assert_eq!(request(plain(3, r3, LockKind::X)), RequestOutcome::Granted);
    // T2's write meets T1's assertional lock; TotalInterference makes every
    // writer invalidate every template, so this edge is assertional.
    assert!(matches!(
        request(plain(2, r1, LockKind::X)),
        RequestOutcome::Waiting(_)
    ));
    assert!(matches!(
        request(plain(3, r2, LockKind::X)),
        RequestOutcome::Waiting(_)
    ));
    request(closing)
}

#[test]
fn three_shard_cycle_matches_unsharded_victims_and_notices() {
    let oracle = TotalInterference;
    let sharded = ShardedLockManager::new(8);
    let rs = three_shards(&sharded);
    let mut unsharded = LockManager::new();

    let closing = plain(1, rs[2], LockKind::X);
    let sharded_out = drive_cycle(
        &mut |r| sharded.request(r, &oracle, &mut |_| ()),
        rs,
        closing,
    );
    let unsharded_out = drive_cycle(&mut |r| unsharded.request(r, &oracle), rs, closing);

    // Same victim set (the non-compensating requester) in both managers.
    match (&sharded_out, &unsharded_out) {
        (
            RequestOutcome::Deadlock {
                victims: sv,
                ticket: st,
            },
            RequestOutcome::Deadlock {
                victims: uv,
                ticket: ut,
            },
        ) => {
            assert_eq!(sv, uv, "victim sets differ");
            assert_eq!(sv, &vec![t(1)]);
            assert!(st.is_none() && ut.is_none(), "victim stays queued");
        }
        other => panic!("expected deadlock from both managers, got {other:?}"),
    }
    assert!(!sharded.is_waiting(t(1)));
    assert!(!unsharded.is_waiting(t(1)));

    // Unwind: releasing T1 unblocks T2 (assertional edge), releasing T2
    // unblocks T3. The (txn, resource) notice streams must be identical;
    // tickets differ by design (shard bits).
    let mut sharded_notices = Vec::new();
    sharded.release_all(t(1), &oracle, &mut |n| {
        sharded_notices.push((n.txn, n.resource));
    });
    sharded.release_all(t(2), &oracle, &mut |n| {
        sharded_notices.push((n.txn, n.resource));
    });
    let mut unsharded_notices = Vec::new();
    for txn in [t(1), t(2)] {
        for n in unsharded.release_all(txn, &oracle) {
            unsharded_notices.push((n.txn, n.resource));
        }
    }
    assert_eq!(sharded_notices, unsharded_notices);
    assert_eq!(sharded_notices, vec![(t(2), rs[0]), (t(3), rs[1])]);

    sharded.release_all(t(3), &oracle, &mut |_| ());
    unsharded.release_all(t(3), &oracle);
    assert_eq!(sharded.total_grants(), 0);
    assert_eq!(unsharded.total_grants(), 0);
}

#[test]
fn compensating_closer_dooms_cycle_members_across_shards() {
    // §3.4: when the request that closes the cross-shard cycle belongs to a
    // compensating step, the *other* members are the victims and the
    // compensating request stays queued — same as unsharded.
    let oracle = TotalInterference;
    let sharded = ShardedLockManager::new(8);
    let rs = three_shards(&sharded);
    let mut unsharded = LockManager::new();

    let closing = compensating(1, rs[2], LockKind::X);
    let sharded_out = drive_cycle(
        &mut |r| sharded.request(r, &oracle, &mut |_| ()),
        rs,
        closing,
    );
    let unsharded_out = drive_cycle(&mut |r| unsharded.request(r, &oracle), rs, closing);

    match (&sharded_out, &unsharded_out) {
        (
            RequestOutcome::Deadlock {
                victims: sv,
                ticket: st,
            },
            RequestOutcome::Deadlock {
                victims: uv,
                ticket: ut,
            },
        ) => {
            assert_eq!(sv, uv, "victim sets differ");
            assert!(!sv.contains(&t(1)), "compensating step victimized");
            assert!(
                st.is_some() && ut.is_some(),
                "compensating request must stay queued"
            );
        }
        other => panic!("expected deadlock from both managers, got {other:?}"),
    }
    assert!(sharded.is_waiting(t(1)), "compensating T1 still queued");
    assert!(unsharded.is_waiting(t(1)));
}
