//! Direct tests of the `StepCtx` data-access API.

use acc_common::events::{Event, EventSink, KindRepr};
use acc_common::{
    AssertionTemplateId, Error, ResourceId, Slot, StepTypeId, TableId, TxnTypeId, Value,
};
use acc_lockmgr::{InterferenceOracle, LockKind, LockMode, NoInterference, SharedOracle};
use acc_storage::{Catalog, ColumnType, Database, Key, Predicate, Row, TableSchema};
use acc_txn::runner::commit;
use acc_txn::{ConcurrencyControl, SharedDb, StepCtx, Transaction, TwoPhase, TxnMeta, WaitMode};
use std::sync::Arc;

const T: TableId = TableId(0);

fn shared() -> Arc<SharedDb> {
    people(Arc::new(NoInterference))
}

/// Five people on pages of two rows, judged by `oracle`.
fn people(oracle: SharedOracle) -> Arc<SharedDb> {
    let mut c = Catalog::new();
    c.add_table(
        TableSchema::builder("people")
            .column("id", ColumnType::Int)
            .column("team", ColumnType::Int)
            .column("name", ColumnType::Str)
            .key(&["id"])
            .index(&["team"])
            .rows_per_page(2)
            .build(),
    );
    let mut db = Database::new(&c);
    for (id, team, name) in [
        (1, 10, "ada"),
        (2, 10, "grace"),
        (3, 20, "edsger"),
        (4, 20, "tony"),
        (5, 30, "barbara"),
    ] {
        db.table_mut(T)
            .unwrap()
            .insert(Row(vec![
                Value::Int(id),
                Value::Int(team),
                Value::str(name),
            ]))
            .unwrap();
    }
    Arc::new(SharedDb::new(db, oracle))
}

/// Run `f` as the one step of a transaction under `cc`, then commit.
fn with_ctx<R>(
    shared: &SharedDb,
    cc: &dyn ConcurrencyControl,
    f: impl FnOnce(&mut StepCtx<'_>) -> R,
) -> R {
    let id = shared.begin_txn(TxnTypeId(0));
    let mut txn = Transaction::new(id, TxnTypeId(0));
    let r = f(&mut StepCtx::new(shared, cc, &mut txn, WaitMode::Block));
    commit(shared, &mut txn).unwrap();
    r
}

#[test]
fn read_and_read_existing() {
    let s = shared();
    with_ctx(&s, &TwoPhase, |ctx| {
        let row = ctx.read(T, &Key::ints(&[3])).unwrap().unwrap();
        assert_eq!(row.str(2), "edsger");
        assert!(ctx.read(T, &Key::ints(&[99])).unwrap().is_none());
        assert_eq!(
            ctx.read_existing(T, &Key::ints(&[1])).unwrap().str(2),
            "ada"
        );
        assert!(matches!(
            ctx.read_existing(T, &Key::ints(&[99])),
            Err(Error::NotFound(_))
        ));
    });
}

#[test]
fn read_for_update_takes_write_locks_immediately() {
    let s = shared();
    let id = s.begin_txn(TxnTypeId(0));
    let mut txn = Transaction::new(id, TxnTypeId(0));
    {
        let two = TwoPhase;
        let mut ctx = StepCtx::new(&s, &two, &mut txn, WaitMode::Block);
        let row = ctx.read_for_update(T, &Key::ints(&[1])).unwrap().unwrap();
        assert_eq!(row.str(2), "ada");
        assert!(ctx.read_for_update(T, &Key::ints(&[99])).unwrap().is_none());
    }
    // Another transaction's plain read of the same page must block.
    let id2 = s.begin_txn(TxnTypeId(0));
    let mut txn2 = Transaction::new(id2, TxnTypeId(0));
    {
        let two = TwoPhase;
        let mut ctx2 = StepCtx::new(&s, &two, &mut txn2, WaitMode::Fail);
        let err = ctx2.read(T, &Key::ints(&[1])).unwrap_err();
        assert!(matches!(err, Error::WouldBlock { .. }));
    }
    commit(&s, &mut txn).unwrap();
    commit(&s, &mut txn2).unwrap();
}

#[test]
fn scan_and_predicate() {
    let s = shared();
    with_ctx(&s, &TwoPhase, |ctx| {
        let all = ctx.scan(T, &Predicate::True).unwrap();
        assert_eq!(all.len(), 5);
        let team10 = ctx.scan(T, &Predicate::eq(1, 10i64)).unwrap();
        assert_eq!(team10.len(), 2);
        // Scans come back in key order.
        let ids: Vec<i64> = all.iter().map(|(_, r)| r.int(0)).collect();
        assert_eq!(ids, vec![1, 2, 3, 4, 5]);
    });
}

#[test]
fn scan_prefix_on_compound_key() {
    let mut c = Catalog::new();
    c.add_table(
        TableSchema::builder("pairs")
            .column("a", ColumnType::Int)
            .column("b", ColumnType::Int)
            .key(&["a", "b"])
            .build(),
    );
    let mut db = Database::new(&c);
    for (a, b) in [(1, 1), (1, 2), (2, 1), (2, 2), (2, 3)] {
        db.table_mut(T)
            .unwrap()
            .insert(Row(vec![Value::Int(a), Value::Int(b)]))
            .unwrap();
    }
    let s = Arc::new(SharedDb::new(db, Arc::new(NoInterference)));
    with_ctx(&s, &TwoPhase, |ctx| {
        assert_eq!(ctx.scan_prefix(T, &Key::ints(&[1])).unwrap().len(), 2);
        assert_eq!(ctx.scan_prefix(T, &Key::ints(&[2])).unwrap().len(), 3);
        assert_eq!(ctx.scan_prefix(T, &Key::ints(&[3])).unwrap().len(), 0);
    });
}

#[test]
fn lookup_secondary_finds_rows() {
    let s = shared();
    with_ctx(&s, &TwoPhase, |ctx| {
        let team20 = ctx.lookup_secondary(T, 0, &Key::ints(&[20])).unwrap();
        let names: Vec<&str> = team20.iter().map(|(_, r)| r.str(2)).collect();
        assert_eq!(names.len(), 2);
        assert!(names.contains(&"edsger") && names.contains(&"tony"));
        assert!(ctx
            .lookup_secondary(T, 0, &Key::ints(&[99]))
            .unwrap()
            .is_empty());
    });
}

#[test]
fn insert_update_delete_round_trip() {
    let s = shared();
    with_ctx(&s, &TwoPhase, |ctx| {
        let slot = ctx
            .insert(
                T,
                Row(vec![Value::Int(9), Value::Int(30), Value::str("alan")]),
            )
            .unwrap();
        ctx.update_slot(T, slot, |r| {
            r.set(2, Value::str("alonzo"));
        })
        .unwrap();
        assert!(ctx
            .update_key(T, &Key::ints(&[9]), |r| {
                r.set(1, Value::Int(40));
            })
            .unwrap());
        assert!(!ctx.update_key(T, &Key::ints(&[99]), |_| {}).unwrap());
        let row = ctx.read_existing(T, &Key::ints(&[9])).unwrap();
        assert_eq!((row.int(1), row.str(2)), (40, "alonzo"));
        assert!(ctx.delete_key(T, &Key::ints(&[9])).unwrap());
        assert!(!ctx.delete_key(T, &Key::ints(&[9])).unwrap());
    });
    // Committed: the row is really gone and the WAL has the full story.
    let db = s.snapshot_db();
    assert!(db.table(T).unwrap().get(&Key::ints(&[9])).is_none());
    assert_eq!(db.table(T).unwrap().len(), 5);
    let updates = s.with_wal(|w| {
        w.records()
            .iter()
            .filter(|r| matches!(r, acc_wal::LogRecord::Update { .. }))
            .count()
    });
    assert_eq!(updates, 4, "insert + 2 updates + delete");
}

#[test]
fn duplicate_insert_is_an_error() {
    let s = shared();
    let id = s.begin_txn(TxnTypeId(0));
    let mut txn = Transaction::new(id, TxnTypeId(0));
    {
        let two = TwoPhase;
        let mut ctx = StepCtx::new(&s, &two, &mut txn, WaitMode::Block);
        let err = ctx
            .insert(
                T,
                Row(vec![Value::Int(1), Value::Int(0), Value::str("dup")]),
            )
            .unwrap_err();
        assert!(matches!(err, Error::DuplicateKey(_)));
    }
    commit(&s, &mut txn).unwrap();
}

/// The guard pin [`Guarded`] takes on every table it writes.
const GUARD: AssertionTemplateId = AssertionTemplateId(7);

/// A decomposed policy whose table locks add a guard pin to writes, as the
/// ACC policy's do, and whose half of the version-read gate is open.
struct Guarded;

impl ConcurrencyControl for Guarded {
    fn name(&self) -> &'static str {
        "guarded"
    }
    fn decomposed(&self) -> bool {
        true
    }
    fn step_type(&self, _m: &TxnMeta) -> StepTypeId {
        StepTypeId(1)
    }
    fn comp_step_type(&self, _t: TxnTypeId) -> Option<StepTypeId> {
        Some(StepTypeId(2))
    }
    fn item_locks(&self, _m: &TxnMeta, _t: TableId, write: bool) -> Vec<LockKind> {
        vec![if write { LockKind::X } else { LockKind::S }]
    }
    fn table_locks(&self, _m: &TxnMeta, _t: TableId, write: bool) -> Vec<LockKind> {
        if write {
            vec![
                LockKind::Conventional(LockMode::IX),
                LockKind::Assertional(GUARD),
            ]
        } else {
            vec![LockKind::Conventional(LockMode::IS)]
        }
    }
    fn scan_locks(&self, _m: &TxnMeta, _t: TableId) -> Vec<LockKind> {
        vec![LockKind::S]
    }
    fn release_at_step_end(&self, _m: &TxnMeta, _k: LockKind) -> bool {
        true
    }
    fn version_read_safe(&self, _m: &TxnMeta) -> bool {
        true
    }
}

/// An oracle with no interference whose half of the version-read gate is
/// open for every step.
struct VersionSafe;

impl InterferenceOracle for VersionSafe {
    fn write_interferes(&self, _: StepTypeId, _: AssertionTemplateId) -> bool {
        false
    }
    fn read_interferes(&self, _: StepTypeId, _: AssertionTemplateId) -> bool {
        false
    }
    fn version_read_safe(&self, _: StepTypeId) -> bool {
        true
    }
}

#[test]
fn insert_requests_each_table_lock_once() {
    let cases: [(&dyn ConcurrencyControl, &[KindRepr]); 2] = [
        (&TwoPhase, &[KindRepr::IX]),
        (&Guarded, &[KindRepr::IX, KindRepr::assertional(GUARD)]),
    ];
    for (cc, table_kinds) in cases {
        let s = shared();
        let sink = EventSink::enabled(64);
        s.set_event_sink(Arc::clone(&sink));
        let alan = Row(vec![Value::Int(9), Value::Int(30), Value::str("alan")]);
        let slot = with_ctx(&s, cc, |ctx| ctx.insert(T, alan).unwrap());
        let requests: Vec<(ResourceId, KindRepr)> = sink
            .events()
            .iter()
            .filter_map(|e| match e {
                Event::LockRequest { resource, kind, .. } => Some((*resource, *kind)),
                _ => None,
            })
            .collect();
        let mut expected: Vec<_> = table_kinds
            .iter()
            .map(|&k| (ResourceId::Table(T), k))
            .collect();
        expected.push((s.table(T).unwrap().page_resource(slot), KindRepr::X));
        assert_eq!(requests, expected, "{}", cc.name());
    }
}

/// A reader the version-read gate serves, returning the rows it read.
type Reader = fn(&mut StepCtx<'_>) -> Vec<Row>;

fn rows(read: acc_common::Result<Vec<(Slot, Row)>>) -> Vec<Row> {
    read.unwrap().into_iter().map(|(_, r)| r).collect()
}

/// Every reader covers person 1 (team 10).
const READERS: [(&str, Reader); 4] = [
    ("read", |ctx| {
        ctx.read(T, &Key::ints(&[1])).unwrap().into_iter().collect()
    }),
    ("scan_prefix", |ctx| {
        rows(ctx.scan_prefix(T, &Key::ints(&[1])))
    }),
    ("scan_range", |ctx| {
        rows(ctx.scan_range(T, &Key::ints(&[1]), &Key::ints(&[4])))
    }),
    ("lookup_secondary", |ctx| {
        rows(ctx.lookup_secondary(T, 0, &Key::ints(&[10])))
    }),
];

/// What one `reader` call returned, and the `VersionRead`s,
/// `VersionFallback`s and `LockRequest`s it emitted.
fn observe(sink: &EventSink, ctx: &mut StepCtx<'_>, reader: Reader) -> (Vec<Row>, [usize; 3]) {
    let mark = sink.events().len();
    let rows = reader(ctx);
    let events = sink.events().split_off(mark);
    let count = |p: fn(&Event) -> bool| events.iter().filter(|e| p(e)).count();
    let counts = [
        count(|e| matches!(e, Event::VersionRead { .. })),
        count(|e| matches!(e, Event::VersionFallback { .. })),
        count(|e| matches!(e, Event::LockRequest { .. })),
    ];
    (rows, counts)
}

/// In one step under `cc`: `reader` on committed rows, then again after the
/// step renamed person 1.
fn read_around_own_write(
    cc: &dyn ConcurrencyControl,
    reader: Reader,
) -> [(Vec<Row>, [usize; 3]); 2] {
    let s = people(Arc::new(VersionSafe));
    let sink = EventSink::enabled(4096);
    s.set_event_sink(Arc::clone(&sink));
    with_ctx(&s, cc, |ctx| {
        let committed = observe(&sink, ctx, reader);
        let renamed = ctx.update_key(T, &Key::ints(&[1]), |r| {
            r.set(2, Value::str("lovelace"));
        });
        assert!(renamed.unwrap());
        [committed, observe(&sink, ctx, reader)]
    })
}

#[test]
fn version_read_gate_emits_one_event_per_reader() {
    for (name, reader) in READERS {
        // The policy half shut (2PL): the locked path, and neither event.
        let [(locked, shut), (locked_after, shut_after)] = read_around_own_write(&TwoPhase, reader);
        assert!(shut[2] > 0 && shut_after[2] > 0, "{name}: 2PL reads lock");
        assert_eq!(shut[..2], [0, 0], "{name}: 2PL, committed rows");
        assert_eq!(shut_after[..2], [0, 0], "{name}: 2PL, after the write");
        assert!(
            locked_after.iter().any(|r| r.str(2) == "lovelace"),
            "{name}"
        );

        // Both halves open: committed rows come from versions, lock-free.
        let [(versioned, hit), (fallback, miss)] = read_around_own_write(&Guarded, reader);
        assert_eq!(versioned, locked, "{name}: committed rows");
        assert_eq!(hit, [1, 0, 0], "{name}: one VersionRead, no lock request");
        // After the step's own write the helper falls back exactly once,
        // and the locked path returns that write.
        assert_eq!(miss[..2], [0, 1], "{name}: one VersionFallback");
        assert_eq!(fallback, locked_after, "{name}: the locked path's rows");
    }
}
