//! Direct tests of the `StepCtx` data-access API.

use acc_common::events::{Event, EventSink, KindRepr};
use acc_common::frame::{fnv1a, CHAIN_SEED};
use acc_common::{
    AssertionTemplateId, Error, ResourceId, Slot, StepTypeId, TableId, TxnTypeId, Value,
};
use acc_lockmgr::{InterferenceOracle, LockKind, LockMode, NoInterference, SharedOracle};
use acc_storage::{Catalog, ColumnType, Database, Key, Predicate, Row, TableSchema};
use acc_txn::runner::{advance, commit, rollback, run, AbortReason, RunOutcome};
use acc_txn::{
    ConcurrencyControl, SharedDb, StepCtx, StepOutcome, Transaction, TwoPhase, TxnMeta, TxnProgram,
    WaitMode,
};
use acc_wal::{LogRecord, Lsn};
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
        ctx.insert(
            T,
            Row(vec![Value::Int(9), Value::Int(30), Value::str("alan")]),
        )
        .unwrap();
        assert!(ctx
            .update_key(T, &Key::ints(&[9]), |r| {
                r.set(2, Value::str("alonzo"));
            })
            .unwrap());
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

/// One step that inserts person 9, renames person 1 and deletes person 2 —
/// one write of each kind, each on its own key — and then ends with its
/// outcome.
struct WriteEachKind(StepOutcome);

impl TxnProgram for WriteEachKind {
    fn txn_type(&self) -> TxnTypeId {
        TxnTypeId(0)
    }
    fn step(&mut self, _: u32, ctx: &mut StepCtx<'_>) -> acc_common::Result<StepOutcome> {
        let alan = Row(vec![Value::Int(9), Value::Int(30), Value::str("alan")]);
        ctx.insert(T, alan)?;
        ctx.update_key(T, &Key::ints(&[1]), |r| {
            r.set(2, Value::str("lovelace"));
        })?;
        ctx.delete_key(T, &Key::ints(&[2]))?;
        Ok(self.0)
    }
}

/// Run [`WriteEachKind`] ending in `outcome` under 2PL on a fresh table.
fn write_each_kind(outcome: StepOutcome) -> (Arc<SharedDb>, RunOutcome) {
    let s = shared();
    let ran = run(&s, &TwoPhase, &mut WriteEachKind(outcome), WaitMode::Block).unwrap();
    (s, ran)
}

/// Every key a transaction writes — inserted, updated or deleted — is in
/// its write set, so the collector rewrites every chain entry it pushed,
/// at commit and at rollback, and trims each chain at the watermark: no
/// chain is left behind.
#[test]
fn every_written_key_is_finalized_on_commit_and_rollback() {
    let (s, ran) = write_each_kind(StepOutcome::Done);
    assert_eq!(ran, RunOutcome::Committed { steps: 1 });
    let t = s.table(T).unwrap();
    assert_eq!(s.drain_versions(), 0);
    assert_eq!(t.n_version_chains(), 0, "after commit");

    let (s, ran) = write_each_kind(StepOutcome::Abort);
    assert_eq!(ran, RunOutcome::RolledBack(AbortReason::UserAbort));
    // The `Abort` record is not synced by rollback; make it durable so the
    // watermark covers it.
    s.sync_wal(Lsn(s.wal_len() as u64 - 1)).unwrap();
    let t = s.table(T).unwrap();
    assert_eq!(s.drain_versions(), 0);
    assert_eq!(t.n_version_chains(), 0, "after rollback");
    assert_eq!(s.published_count(), 0);
}

/// Physical undo restores the base image and logs each reversal as an
/// `Update` whose images are the forward write's, swapped. The WAL bytes
/// are pinned: nothing else pins what undo logs.
#[test]
fn physical_undo_logs_reversed_images() {
    let (s, ran) = write_each_kind(StepOutcome::Abort);
    assert_eq!(ran, RunOutcome::RolledBack(AbortReason::UserAbort));
    let rows = |s: &SharedDb| -> Vec<_> { s.table(T).unwrap().iter().collect() };
    assert_eq!(rows(&s), rows(&shared()));

    let records = s.with_wal(|w| w.records());
    let [LogRecord::Begin { .. }, writes @ .., LogRecord::Abort { .. }] = &records[..] else {
        panic!("Begin, the writes and their reversals, Abort: {records:?}");
    };
    assert_eq!(writes.len(), 6, "three writes, then three reversals");
    let images = |r: &LogRecord| match r {
        LogRecord::Update {
            slot,
            before,
            after,
            ..
        } => (*slot, before.clone(), after.clone()),
        other => panic!("writes and reversals are Update records: {other:?}"),
    };
    let (forward, undo) = writes.split_at(3);
    for (f, u) in forward.iter().zip(undo.iter().rev()) {
        let (slot, before, after) = images(f);
        assert_eq!(images(u), (slot, after, before));
    }

    let bytes = s.wal_bytes();
    assert_eq!(
        (bytes.len(), fnv1a(CHAIN_SEED, &bytes)),
        (512, 0x78ac_c783_1cd7_0559)
    );
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

/// Step 0 moves person 1 to the next team; its compensating step moves
/// them back.
struct NextTeam;

impl NextTeam {
    fn shift(ctx: &mut StepCtx<'_>, by: i64) -> acc_common::Result<()> {
        let moved = ctx.update_key(T, &Key::ints(&[1]), |r| {
            let team = r.int(1);
            r.set(1, Value::Int(team + by));
        })?;
        assert!(moved, "person 1 exists");
        Ok(())
    }
}

impl TxnProgram for NextTeam {
    fn txn_type(&self) -> TxnTypeId {
        TxnTypeId(0)
    }
    fn step(&mut self, _: u32, ctx: &mut StepCtx<'_>) -> acc_common::Result<StepOutcome> {
        NextTeam::shift(ctx, 1)?;
        Ok(StepOutcome::Continue)
    }
    fn compensate(&mut self, _: u32, ctx: &mut StepCtx<'_>) -> acc_common::Result<()> {
        NextTeam::shift(ctx, -1)
    }
}

/// One step that renames person 1.
struct Rename;

impl TxnProgram for Rename {
    fn txn_type(&self) -> TxnTypeId {
        TxnTypeId(0)
    }
    fn step(&mut self, _: u32, ctx: &mut StepCtx<'_>) -> acc_common::Result<StepOutcome> {
        ctx.update_key(T, &Key::ints(&[1]), |r| {
            r.set(2, Value::str("lovelace"));
        })?;
        Ok(StepOutcome::Done)
    }
}

/// Under a decomposed policy, T moves person 1 to team 11 and ends its
/// step, U renames them and commits on top, and T rolls back by
/// compensation. Person 1's chain then holds T's forward write under U's
/// commit under T's compensation. T's `Abort` LSN is published like a
/// commit LSN, so a reader whose view covers the abort reads the settled
/// row from versions with no fallback, before and after the collector
/// rewrites the chain. A reader older than U's commit reads the original
/// row; one between U's commit and T's abort meets T's unsettled forward
/// write under U's and falls back.
#[test]
fn rolled_back_decomposed_writer_reads_as_settled_once_its_abort_is_durable() {
    let s = people(Arc::new(VersionSafe));
    let sink = EventSink::enabled(4096);
    s.set_event_sink(Arc::clone(&sink));
    let reader = |s: &SharedDb| {
        let id = s.begin_txn(TxnTypeId(0));
        Transaction::new(id, TxnTypeId(0))
    };
    let read: Reader = |ctx| ctx.read(T, &Key::ints(&[1])).unwrap().into_iter().collect();
    let person =
        |team: i64, name: &str| vec![Row(vec![Value::Int(1), Value::Int(team), Value::str(name)])];

    let mut before_u = reader(&s);
    let id = s.begin_txn(TxnTypeId(0));
    let mut t = Transaction::new(id, TxnTypeId(0));
    assert_eq!(
        advance(&s, &Guarded, &mut NextTeam, &mut t, WaitMode::Block),
        Ok(None)
    );
    assert_eq!(t.steps_completed, 1);
    let ran = run(&s, &Guarded, &mut Rename, WaitMode::Block).unwrap();
    assert_eq!(ran, RunOutcome::Committed { steps: 1 });
    let mut before_abort = reader(&s);
    rollback(&s, &Guarded, &mut NextTeam, &mut t).unwrap();
    let records = s.with_wal(|w| w.records());
    assert!(matches!(records.last(), Some(LogRecord::Abort { .. })));
    let abort = records.len() as u64 - 1;
    s.sync_wal(Lsn(abort)).unwrap();
    let mut after_abort = reader(&s);
    assert!(s.read_view_of(after_abort.id).unwrap() >= abort);

    let settled = person(10, "lovelace");
    let observe_as = |txn: &mut Transaction| {
        let mut ctx = StepCtx::new(&s, &Guarded, txn, WaitMode::Block);
        observe(&sink, &mut ctx, read)
    };
    assert_eq!(
        observe_as(&mut after_abort),
        (settled.clone(), [1, 0, 0]),
        "covers the abort"
    );
    assert_eq!(
        observe_as(&mut before_u),
        (person(10, "ada"), [1, 0, 0]),
        "older than U"
    );
    let (rows, [reads, fallbacks, _]) = observe_as(&mut before_abort);
    assert_eq!(
        (rows, reads, fallbacks),
        (settled.clone(), 0, 1),
        "between U and the abort"
    );

    commit(&s, &mut before_u).unwrap();
    commit(&s, &mut before_abort).unwrap();
    assert_eq!(s.drain_versions(), 0, "no view below the abort is left");
    assert_eq!(s.table(T).unwrap().n_version_chains(), 0);
    assert_eq!(s.published_count(), 0);
    assert_eq!(
        observe_as(&mut after_abort),
        (settled, [1, 0, 0]),
        "after collection"
    );
    commit(&s, &mut after_abort).unwrap();
}

/// `n` people with ids 10, 20, …, 10·n, loaded in id order onto pages of
/// two rows (and leaves of two entries).
fn numbered(n: i64) -> Arc<SharedDb> {
    let mut c = Catalog::new();
    c.add_table(
        TableSchema::builder("numbered")
            .column("id", ColumnType::Int)
            .column("team", ColumnType::Int)
            .column("name", ColumnType::Str)
            .key(&["id"])
            .rows_per_page(2)
            .build(),
    );
    let mut db = Database::new(&c);
    for i in 1..=n {
        db.table_mut(T)
            .unwrap()
            .insert(Row(vec![
                Value::Int(10 * i),
                Value::Int(i % 3),
                Value::str(format!("p{i}")),
            ]))
            .unwrap();
    }
    Arc::new(SharedDb::new(db, Arc::new(NoInterference)))
}

/// With no concurrent writer, a keyed access descends once: the locks are
/// taken between the descent and one latch on the leaf it found.
#[test]
fn keyed_accesses_descend_once() {
    let s = numbered(2000);
    let key = Key::ints(&[7770]);
    let before = s.pager_counters();
    assert!(s.table(T).unwrap().get(&key).is_some());
    let depth = (s.pager_counters() - before).page_reads;
    assert!(depth >= 3, "a tree of depth {depth}");
    with_ctx(&s, &TwoPhase, |ctx| {
        let before = s.pager_counters();
        assert_eq!(ctx.read(T, &key).unwrap().unwrap().str(2), "p777");
        let d = s.pager_counters() - before;
        assert_eq!((d.page_reads, d.page_writes), (depth + 1, 0), "read");
        let before = s.pager_counters();
        assert!(ctx
            .update_key(T, &key, |r| {
                r.set(2, Value::str("renamed"));
            })
            .unwrap());
        let d = s.pager_counters() - before;
        assert_eq!((d.page_reads, d.page_writes), (depth, 1), "update");
        assert_eq!(d.root_write_latches + d.hint_misses, 0);
    });
}

/// A `read_for_update` finds its key's leaf, then parks on the page lock
/// the holder took with its update. While it waits, the holder's inserts
/// split that leaf. Once the holder commits, the reader's revisit finds the
/// leaf changed, falls back to a descent, and returns the committed image.
#[test]
fn parked_reader_returns_the_committed_image_after_its_leaf_split() {
    let s = numbered(100);
    let key = Key::ints(&[500]);
    let two = TwoPhase;
    // An idle transaction whose view holds the watermark below the
    // holder's commit, so the collector visits none of the holder's keys
    // (through hints the inserts left stale) inside the measured window.
    let idle = s.begin_txn(TxnTypeId(0));
    let holder = s.begin_txn(TxnTypeId(0));
    let mut t1 = Transaction::new(holder, TxnTypeId(0));
    assert!(StepCtx::new(&s, &two, &mut t1, WaitMode::Block)
        .update_key(T, &key, |r| {
            r.set(2, Value::str("updated"));
        })
        .unwrap());
    let before = s.pager_counters();
    let reader = s.begin_txn(TxnTypeId(0));
    let mut t2 = Transaction::new(reader, TxnTypeId(0));
    let handle = std::thread::spawn({
        let (s, key) = (Arc::clone(&s), key.clone());
        move || {
            let row = StepCtx::new(&s, &TwoPhase, &mut t2, WaitMode::Block)
                .read_for_update(T, &key)
                .unwrap();
            commit(&s, &mut t2).unwrap();
            row
        }
    });
    let start = std::time::Instant::now();
    while !s.lm().is_waiting(reader) {
        assert!(start.elapsed().as_secs() < 30, "the reader never parked");
        std::thread::yield_now();
    }
    // 500 shares the leaf [490, 500]; each insert below lands in it or in
    // a half it split into.
    {
        let mut ctx = StepCtx::new(&s, &two, &mut t1, WaitMode::Block);
        for id in 491..500 {
            ctx.insert(
                T,
                Row(vec![Value::Int(id), Value::Int(0), Value::str("new")]),
            )
            .unwrap();
        }
    }
    assert!((s.pager_counters() - before).splits >= 1);
    commit(&s, &mut t1).unwrap();
    let row = handle.join().expect("reader thread").expect("500 is live");
    assert_eq!(row.str(2), "updated", "the holder's committed image");
    assert_eq!((s.pager_counters() - before).hint_misses, 1);
    s.deregister_active(idle);
    assert_eq!(s.drain_versions(), 0);
    assert_eq!(s.table(T).unwrap().n_version_chains(), 0);
}
