//! An order-fulfilment saga with deep compensation chains, analyzed by
//! inference.
//!
//! A fulfilment transaction allocates an order id, reserves stock for one to
//! four legs (one step per leg), places a payment hold, and ships — up to
//! seven steps. Any leg can abort (insufficient stock) and any crash point
//! leaves up to six completed steps to compensate: release every reserved
//! leg, drop the payment hold, delete the saga's own rows. This is the
//! §3.4 compensation story stretched far past TPC-C's two-to-three-step
//! chains.
//!
//! Everything the saga writes is either a commutative delta (stock,
//! holds, revenue), a fresh-keyed insert (the saga header and its items,
//! keyed by the freshly allocated order id — [`ORDERS`]), or an assignment
//! confined to the instance's own rows (the final state flip) — so the
//! inference proves every step guard-safe with no hand declarations.
//!
//! Two deliberately conservative cells showcase the default: `res-mid`
//! reads `LEDGER.capacity` *without* delta tolerance (the predicate is a
//! bound, not a sum the instance contributes to), so `restock` and the
//! shipping step — both capacity deltas — interfere with it. The mechanical
//! analysis cannot know a capacity bound survives commutative additions; the
//! paper's answer is to block, and the matrix says so.
//!
//! Quiescent invariants audited: stock accounting (`capacity = on_hand +
//! reserved` summed over SKUs), zero outstanding reservations and holds,
//! revenue equal to the value of completed sagas, per-customer balances
//! consistent with their completed orders, and saga/item row alignment.

use acc_common::{AssertionTemplateId, Error, Result, SeededRng, TableId, TxnTypeId, Value};
use acc_core::{
    Acc, AssertionRegistry, Decision, Inference, InterferenceTables, KeySpace, StepFootprint,
    StepSpec, TableFootprint, TxnSpec, DIRTY,
};
use acc_engine::Workload;
use acc_storage::{Catalog, ColumnType, Database, Key, Row, TableSchema};
use acc_txn::{decode_work_area, encode_work_area, StepCtx, StepOutcome, TxnProgram};
use acc_wal::InFlight;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Table ids in catalog order.
pub mod table {
    use acc_common::TableId;
    pub const SKU: TableId = TableId(0);
    pub const ACCOUNT: TableId = TableId(1);
    pub const SAGA: TableId = TableId(2);
    pub const SAGA_ITEM: TableId = TableId(3);
    pub const LEDGER: TableId = TableId(4);
}

/// Column positions.
pub mod col {
    /// SKU columns.
    pub mod s {
        pub const ID: usize = 0;
        pub const ON_HAND: usize = 1;
        pub const RESERVED: usize = 2;
    }
    /// ACCOUNT (customer) columns.
    pub mod a {
        pub const ID: usize = 0;
        pub const BALANCE: usize = 1;
        pub const HELD: usize = 2;
    }
    /// SAGA header columns.
    pub mod g {
        pub const ID: usize = 0;
        pub const CUST: usize = 1;
        pub const N_LEGS: usize = 2;
        /// 0 = in flight, 1 = shipped.
        pub const STATE: usize = 3;
    }
    /// SAGA-ITEM columns (key: order id, leg).
    pub mod i {
        pub const ORDER_ID: usize = 0;
        pub const LEG: usize = 1;
        pub const SKU: usize = 2;
        pub const QTY: usize = 3;
    }
    /// LEDGER columns (single row, id 0).
    pub mod l {
        pub const ID: usize = 0;
        pub const CAPACITY: usize = 1;
        pub const REVENUE: usize = 2;
        pub const NEXT_ORDER: usize = 3;
    }
}

/// Key space of freshly allocated order ids (from `LEDGER.next_order`); the
/// saga header and every saga item are keyed by it.
pub const ORDERS: KeySpace = KeySpace(0);

/// Step type ids. The four fulfilment shapes (1–4 legs) share step types:
/// the *step* semantics are identical, only the step count differs.
pub mod step {
    use acc_common::StepTypeId;
    pub const FUL_S1: StepTypeId = StepTypeId(1);
    pub const FUL_RES: StepTypeId = StepTypeId(2);
    pub const FUL_PAY: StepTypeId = StepTypeId(3);
    pub const FUL_SHIP: StepTypeId = StepTypeId(4);
    pub const RESTOCK: StepTypeId = StepTypeId(5);
    pub const STATUS: StepTypeId = StepTypeId(6);
    pub const FUL_CS: StepTypeId = StepTypeId(20);
}

/// Transaction type ids. `FULFIL_1..=FULFIL_4` are the four leg counts; a
/// `TxnSpec` declares a *fixed* step sequence, so each saga length is its
/// own type (the overflow mechanism only cycles a tail, it cannot express
/// "N legs, then two closing steps").
pub mod ty {
    use acc_common::TxnTypeId;
    pub const FULFIL_1: TxnTypeId = TxnTypeId(1);
    pub const FULFIL_2: TxnTypeId = TxnTypeId(2);
    pub const FULFIL_3: TxnTypeId = TxnTypeId(3);
    pub const FULFIL_4: TxnTypeId = TxnTypeId(4);
    pub const RESTOCK: TxnTypeId = TxnTypeId(5);
    pub const STATUS: TxnTypeId = TxnTypeId(6);
}

/// Unit price of a SKU — derivable everywhere, so audits can recompute order
/// values from the durable saga items alone.
pub fn price(sku: i64) -> i64 {
    10 + sku
}

fn catalog() -> Catalog {
    let mut c = Catalog::new();
    c.add_table(
        TableSchema::builder("sku")
            .column("id", ColumnType::Int)
            .column("on_hand", ColumnType::Int)
            .column("reserved", ColumnType::Int)
            .key(&["id"])
            .build(),
    );
    c.add_table(
        TableSchema::builder("account")
            .column("id", ColumnType::Int)
            .column("balance", ColumnType::Int)
            .column("held", ColumnType::Int)
            .key(&["id"])
            .build(),
    );
    c.add_table(
        TableSchema::builder("saga")
            .column("id", ColumnType::Int)
            .column("cust", ColumnType::Int)
            .column("n_legs", ColumnType::Int)
            .column("state", ColumnType::Int)
            .key(&["id"])
            .build(),
    );
    c.add_table(
        TableSchema::builder("saga_item")
            .column("order_id", ColumnType::Int)
            .column("leg", ColumnType::Int)
            .column("sku", ColumnType::Int)
            .column("qty", ColumnType::Int)
            .key(&["order_id", "leg"])
            .build(),
    );
    c.add_table(
        TableSchema::builder("ledger")
            .column("id", ColumnType::Int)
            .column("capacity", ColumnType::Int)
            .column("revenue", ColumnType::Int)
            .column("next_order", ColumnType::Int)
            .key(&["id"])
            .rows_per_page(1)
            .build(),
    );
    c
}

const INIT_ON_HAND: i64 = 60;
const INIT_BALANCE: i64 = 10_000;

/// Build and populate the base database: SKUs `1..=skus`, customer accounts
/// `1..=customers`.
pub fn populate(skus: i64, customers: i64) -> Database {
    let mut db = Database::new(&catalog());
    for s in 1..=skus {
        db.table_mut(table::SKU)
            .expect("sku table")
            .insert(Row(vec![
                Value::Int(s),
                Value::Int(INIT_ON_HAND),
                Value::Int(0),
            ]))
            .expect("populate sku");
    }
    for a in 1..=customers {
        db.table_mut(table::ACCOUNT)
            .expect("account table")
            .insert(Row(vec![
                Value::Int(a),
                Value::Int(INIT_BALANCE),
                Value::Int(0),
            ]))
            .expect("populate account");
    }
    db.table_mut(table::LEDGER)
        .expect("ledger table")
        .insert(Row(vec![
            Value::Int(0),
            Value::Int(skus * INIT_ON_HAND),
            Value::Int(0),
            Value::Int(1),
        ]))
        .expect("populate ledger");
    db
}

/// The complete design-time product for the saga family — its one
/// [`Workload`].
pub struct SagaKit {
    /// The template registry (DIRTY + `res-mid`).
    pub registry: Arc<AssertionRegistry>,
    /// The machine-inferred interference matrix.
    pub tables: Arc<InterferenceTables>,
    /// The ACC policy driving the decomposed types.
    pub acc: Arc<Acc>,
    /// Every recorded inference decision.
    pub decisions: Vec<Decision>,
    /// The mid-saga reservation template.
    pub res_mid: AssertionTemplateId,
    /// SKUs in the base population.
    pub skus: i64,
    /// Customer accounts in the base population.
    pub customers: i64,
}

impl SagaKit {
    /// Run the inference and build the policy.
    pub fn build(skus: i64, customers: i64) -> SagaKit {
        use col::{a, g, l, s};
        use step::*;
        use table::*;

        let mut reg = AssertionRegistry::new();
        // "My reservations are intact": the instance's own saga rows are
        // untouched, stock counters moved only by commutative deltas — but
        // the capacity column is read as a *bound*, which mechanical
        // analysis cannot prove invariant under other steps' deltas.
        let res_mid = reg.define(
            "res-mid: reserved legs intact, stock accounting consistent",
            vec![
                TableFootprint::columns(SKU, [s::ON_HAND, s::RESERVED]).tolerates_deltas(),
                TableFootprint::rows(SAGA_ITEM, []).own(ORDERS),
                TableFootprint::columns(table::SAGA, [g::STATE]).own(ORDERS),
                TableFootprint::columns(LEDGER, [l::CAPACITY]),
            ],
            None,
        );

        let (tables, decisions) = Inference::new(&reg)
            .step(StepFootprint::new(
                FUL_S1,
                "fulfil: open saga",
                vec![
                    TableFootprint::columns(LEDGER, [l::NEXT_ORDER]).delta(),
                    TableFootprint::rows(table::SAGA, [0, 1, 2, 3]).fresh(ORDERS),
                ],
            ))
            .step(StepFootprint::new(
                FUL_RES,
                "fulfil: reserve one leg",
                vec![
                    TableFootprint::columns(SKU, [s::ON_HAND, s::RESERVED]).delta(),
                    TableFootprint::rows(SAGA_ITEM, [0, 1, 2, 3]).fresh(ORDERS),
                ],
            ))
            .step(StepFootprint::new(
                FUL_PAY,
                "fulfil: hold payment",
                vec![TableFootprint::columns(ACCOUNT, [a::HELD]).delta()],
            ))
            .step(StepFootprint::new(
                FUL_SHIP,
                "fulfil: ship and settle",
                vec![
                    TableFootprint::columns(SKU, [s::RESERVED]).delta(),
                    TableFootprint::columns(ACCOUNT, [a::BALANCE, a::HELD]).delta(),
                    TableFootprint::columns(LEDGER, [l::REVENUE, l::CAPACITY]).delta(),
                    TableFootprint::columns(table::SAGA, [g::STATE]).own(ORDERS),
                ],
            ))
            .step(StepFootprint::new(
                RESTOCK,
                "restock",
                vec![
                    TableFootprint::columns(SKU, [s::ON_HAND]).delta(),
                    TableFootprint::columns(LEDGER, [l::CAPACITY]).delta(),
                ],
            ))
            .step(StepFootprint::new(
                STATUS,
                "order-status (read-only)",
                vec![],
            ))
            .step(StepFootprint::new(
                FUL_CS,
                "fulfil compensation",
                vec![
                    TableFootprint::columns(SKU, [s::ON_HAND, s::RESERVED]).delta(),
                    TableFootprint::columns(ACCOUNT, [a::HELD]).delta(),
                    TableFootprint::rows(SAGA_ITEM, []).own(ORDERS),
                    TableFootprint::rows(table::SAGA, []).own(ORDERS),
                ],
            ))
            .require_committed_reads(STATUS)
            .build();

        let fulfil_spec = |ty: TxnTypeId, legs: usize| {
            let mut steps = vec![StepSpec {
                step_type: FUL_S1,
                active: vec![res_mid],
            }];
            for _ in 0..legs {
                steps.push(StepSpec {
                    step_type: FUL_RES,
                    active: vec![res_mid],
                });
            }
            steps.push(StepSpec {
                step_type: FUL_PAY,
                active: vec![res_mid],
            });
            steps.push(StepSpec {
                step_type: FUL_SHIP,
                active: vec![res_mid],
            });
            TxnSpec {
                txn_type: ty,
                name: format!("fulfil-{legs}"),
                steps,
                overflow: None,
                comp_step: Some(FUL_CS),
                guard: DIRTY,
                version_safe: false,
            }
        };
        let specs = vec![
            fulfil_spec(ty::FULFIL_1, 1),
            fulfil_spec(ty::FULFIL_2, 2),
            fulfil_spec(ty::FULFIL_3, 3),
            fulfil_spec(ty::FULFIL_4, 4),
            TxnSpec {
                txn_type: ty::RESTOCK,
                name: "restock".to_owned(),
                steps: vec![StepSpec {
                    step_type: RESTOCK,
                    active: vec![],
                }],
                overflow: None,
                comp_step: None,
                guard: DIRTY,
                version_safe: false,
            },
            TxnSpec {
                txn_type: ty::STATUS,
                name: "order-status".to_owned(),
                steps: vec![StepSpec {
                    step_type: STATUS,
                    active: vec![],
                }],
                overflow: None,
                comp_step: None,
                guard: DIRTY,
                version_safe: true,
            },
        ];

        let registry = Arc::new(reg);
        let acc = Arc::new(Acc::new(Arc::clone(&registry), specs));
        SagaKit {
            registry,
            tables: Arc::new(tables),
            acc,
            decisions,
            res_mid,
            skus,
            customers,
        }
    }
}

impl Workload for SagaKit {
    fn name(&self) -> &'static str {
        "saga"
    }
    fn base(&self) -> Database {
        populate(self.skus, self.customers)
    }
    fn tables(&self) -> Arc<InterferenceTables> {
        Arc::clone(&self.tables)
    }
    fn acc(&self) -> Arc<Acc> {
        Arc::clone(&self.acc)
    }
    /// One seeded transaction from the standard mix: 60 % fulfilments
    /// (uniform 1–4 legs), 20 % restocks, 20 % status inquiries.
    fn next_program(&self, rng: &mut SeededRng) -> Box<dyn TxnProgram + Send> {
        match rng.index(10) {
            0..=5 => {
                let n_legs = rng.int_range(1, 4);
                let legs = (0..n_legs)
                    .map(|_| (rng.int_range(1, self.skus), rng.int_range(1, 5)))
                    .collect();
                Box::new(Fulfil::new(rng.int_range(1, self.customers), legs))
            }
            6 | 7 => Box::new(Restock {
                sku: rng.int_range(1, self.skus),
                qty: rng.int_range(5, 40),
            }),
            _ => Box::new(Status {
                order_id: rng.int_range(1, 40),
                sku: rng.int_range(1, self.skus),
            }),
        }
    }
    fn program_for_inflight(&self, inf: &InFlight) -> Result<Box<dyn TxnProgram + Send>> {
        match inf.txn_type {
            t if (ty::FULFIL_1.raw()..=ty::FULFIL_4.raw()).contains(&t.raw()) => {
                Fulfil::recovered(&inf.work_area)
                    .filter(|p| p.txn_type() == t)
                    .map(|p| Box::new(p) as Box<dyn TxnProgram + Send>)
                    .ok_or_else(|| {
                        Error::Recovery(format!("unparseable fulfil work area for {}", inf.txn))
                    })
            }
            other => Err(Error::Recovery(format!(
                "in-flight transaction {} has non-compensable saga type {other}",
                inf.txn
            ))),
        }
    }
    fn audit(&self, db: &Database) -> Vec<String> {
        audit(db)
    }
}

/// The quiescence audit. Returns one line per violation.
pub fn audit(db: &Database) -> Vec<String> {
    use col::{a, g, i, l};
    let mut out = Vec::new();
    let skus = db.table(table::SKU).expect("sku table");
    let accounts = db.table(table::ACCOUNT).expect("account table");
    let sagas = db.table(table::SAGA).expect("saga table");
    let items = db.table(table::SAGA_ITEM).expect("saga_item table");
    let ledger = db.table(table::LEDGER).expect("ledger table");
    let (_, lrow) = ledger
        .get(&Key::ints(&[0]))
        .expect("ledger row 0 must exist");

    // Stock accounting: capacity = sum(on_hand) + sum(reserved); at
    // quiescence no reservation is outstanding.
    let (mut on_hand, mut reserved) = (0i64, 0i64);
    for (_, r) in skus.iter() {
        on_hand += r.int(col::s::ON_HAND);
        reserved += r.int(col::s::RESERVED);
        if r.int(col::s::ON_HAND) < 0 || r.int(col::s::RESERVED) < 0 {
            out.push(format!("sku {} has negative stock", r.int(col::s::ID)));
        }
    }
    if reserved != 0 {
        out.push(format!("{reserved} units still reserved at quiescence"));
    }
    if lrow.int(l::CAPACITY) != on_hand + reserved {
        out.push(format!(
            "capacity {} != on_hand {on_hand} + reserved {reserved}",
            lrow.int(l::CAPACITY)
        ));
    }

    // Saga/item alignment and per-order value.
    let mut order_value: BTreeMap<i64, i64> = BTreeMap::new();
    let mut legs_seen: BTreeMap<i64, i64> = BTreeMap::new();
    for (_, r) in items.iter() {
        let oid = r.int(i::ORDER_ID);
        *order_value.entry(oid).or_insert(0) += r.int(i::QTY) * price(r.int(i::SKU));
        *legs_seen.entry(oid).or_insert(0) += 1;
    }
    let mut revenue = 0i64;
    let mut spent: BTreeMap<i64, i64> = BTreeMap::new();
    let mut max_order = 0i64;
    let mut n_sagas = 0usize;
    for (_, r) in sagas.iter() {
        n_sagas += 1;
        let oid = r.int(g::ID);
        max_order = max_order.max(oid);
        if r.int(g::STATE) != 1 {
            out.push(format!("saga {oid} left in state {}", r.int(g::STATE)));
        }
        if legs_seen.get(&oid).copied().unwrap_or(0) != r.int(g::N_LEGS) {
            out.push(format!(
                "saga {oid}: {} items for {} declared legs",
                legs_seen.get(&oid).copied().unwrap_or(0),
                r.int(g::N_LEGS)
            ));
        }
        let value = order_value.get(&oid).copied().unwrap_or(0);
        revenue += value;
        *spent.entry(r.int(g::CUST)).or_insert(0) += value;
    }
    if legs_seen.len() != n_sagas {
        out.push(format!(
            "{} orders own saga items but only {n_sagas} saga headers exist",
            legs_seen.len()
        ));
    }
    if lrow.int(l::REVENUE) != revenue {
        out.push(format!(
            "ledger revenue {} != value of completed sagas {revenue}",
            lrow.int(l::REVENUE)
        ));
    }
    if lrow.int(l::NEXT_ORDER) <= max_order {
        out.push(format!(
            "ledger next_order {} <= max saga id {max_order}",
            lrow.int(l::NEXT_ORDER)
        ));
    }

    // Accounts: no outstanding holds; balance reflects completed orders.
    for (_, r) in accounts.iter() {
        let id = r.int(a::ID);
        if r.int(a::HELD) != 0 {
            out.push(format!(
                "account {id} holds {} at quiescence",
                r.int(a::HELD)
            ));
        }
        let want = INIT_BALANCE - spent.get(&id).copied().unwrap_or(0);
        if r.int(a::BALANCE) != want {
            out.push(format!(
                "account {id} balance {} != expected {want}",
                r.int(a::BALANCE)
            ));
        }
    }
    out
}

fn add_int(ctx: &mut StepCtx<'_>, tbl: TableId, key: &Key, c: usize, d: i64) -> Result<()> {
    let updated = ctx.update_key(tbl, key, |r| {
        let v = r.int(c);
        r.set(c, Value::Int(v + d));
    })?;
    if !updated {
        return Err(Error::NotFound(format!("{tbl:?} row {key:?}")));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Programs
// ---------------------------------------------------------------------------

/// The fulfilment saga: open, reserve each leg, hold payment, ship.
pub struct Fulfil {
    /// Customer placing the order.
    pub cust: i64,
    /// `(sku, qty)` per leg (1–4 legs).
    pub legs: Vec<(i64, i64)>,
    /// The order id allocated in step 0 (idempotently overwritten there,
    /// restored from the work area by recovery).
    pub order_id: Option<i64>,
}

impl Fulfil {
    /// A fresh saga.
    pub fn new(cust: i64, legs: Vec<(i64, i64)>) -> Fulfil {
        assert!(
            (1..=4).contains(&legs.len()),
            "fulfilment sagas have 1..=4 legs"
        );
        Fulfil {
            cust,
            legs,
            order_id: None,
        }
    }

    /// Rebuild from a recovered work area
    /// `[order_id, cust, n_legs, (sku, qty) * n_legs]`.
    pub fn recovered(wa: &[u8]) -> Option<Fulfil> {
        let fields = decode_work_area(wa)?;
        let &[order_id, cust, n_legs, ref legs @ ..] = fields.as_slice() else {
            return None;
        };
        if order_id < 1 || !(1..=4).contains(&n_legs) || legs.len() != 2 * n_legs as usize {
            return None;
        }
        let legs: Vec<(i64, i64)> = legs.chunks_exact(2).map(|l| (l[0], l[1])).collect();
        if legs.iter().any(|&(_, qty)| qty < 0) {
            return None;
        }
        Some(Fulfil {
            cust,
            legs,
            order_id: Some(order_id),
        })
    }

    fn total(&self) -> i64 {
        self.legs.iter().map(|&(sku, qty)| qty * price(sku)).sum()
    }

    fn oid(&self) -> i64 {
        self.order_id.expect("order id allocated in step 0")
    }
}

impl TxnProgram for Fulfil {
    fn txn_type(&self) -> TxnTypeId {
        TxnTypeId(self.legs.len() as u32)
    }

    fn step(&mut self, i: u32, ctx: &mut StepCtx<'_>) -> Result<StepOutcome> {
        let n_legs = self.legs.len() as u32;
        let lkey = Key::ints(&[0]);
        if i == 0 {
            // Open: allocate the order id, insert the saga header.
            let lrow = ctx
                .read_for_update(table::LEDGER, &lkey)?
                .ok_or_else(|| Error::NotFound("ledger row".to_owned()))?;
            let oid = lrow.int(col::l::NEXT_ORDER);
            self.order_id = Some(oid);
            ctx.update_key(table::LEDGER, &lkey, |r| {
                r.set(col::l::NEXT_ORDER, Value::Int(oid + 1));
            })?;
            ctx.insert(
                table::SAGA,
                Row(vec![
                    Value::Int(oid),
                    Value::Int(self.cust),
                    Value::Int(n_legs as i64),
                    Value::Int(0),
                ]),
            )?;
            Ok(StepOutcome::Continue)
        } else if i <= n_legs {
            // Reserve one leg; abort the whole saga on insufficient stock
            // (compensation then unwinds every leg reserved so far).
            let leg = (i - 1) as usize;
            let (sku, qty) = self.legs[leg];
            let skey = Key::ints(&[sku]);
            let srow = ctx
                .read_for_update(table::SKU, &skey)?
                .ok_or_else(|| Error::NotFound(format!("sku {sku}")))?;
            if srow.int(col::s::ON_HAND) < qty {
                return Ok(StepOutcome::Abort);
            }
            ctx.update_key(table::SKU, &skey, |r| {
                let oh = r.int(col::s::ON_HAND);
                let rs = r.int(col::s::RESERVED);
                r.set(col::s::ON_HAND, Value::Int(oh - qty));
                r.set(col::s::RESERVED, Value::Int(rs + qty));
            })?;
            ctx.insert(
                table::SAGA_ITEM,
                Row(vec![
                    Value::Int(self.oid()),
                    Value::Int(leg as i64),
                    Value::Int(sku),
                    Value::Int(qty),
                ]),
            )?;
            Ok(StepOutcome::Continue)
        } else if i == n_legs + 1 {
            // Hold payment; abort if the customer cannot cover it.
            let total = self.total();
            let akey = Key::ints(&[self.cust]);
            let arow = ctx
                .read_for_update(table::ACCOUNT, &akey)?
                .ok_or_else(|| Error::NotFound(format!("account {}", self.cust)))?;
            if arow.int(col::a::BALANCE) - arow.int(col::a::HELD) < total {
                return Ok(StepOutcome::Abort);
            }
            add_int(ctx, table::ACCOUNT, &akey, col::a::HELD, total)?;
            Ok(StepOutcome::Continue)
        } else {
            // Ship and settle: release reservations outward, capture the
            // hold, book revenue, flip the saga's own state row.
            let total = self.total();
            let mut shipped_units = 0;
            for &(sku, qty) in &self.legs {
                add_int(ctx, table::SKU, &Key::ints(&[sku]), col::s::RESERVED, -qty)?;
                shipped_units += qty;
            }
            let akey = Key::ints(&[self.cust]);
            add_int(ctx, table::ACCOUNT, &akey, col::a::BALANCE, -total)?;
            add_int(ctx, table::ACCOUNT, &akey, col::a::HELD, -total)?;
            ctx.update_key(table::LEDGER, &lkey, |r| {
                let rev = r.int(col::l::REVENUE);
                let cap = r.int(col::l::CAPACITY);
                r.set(col::l::REVENUE, Value::Int(rev + total));
                r.set(col::l::CAPACITY, Value::Int(cap - shipped_units));
            })?;
            let flipped = ctx.update_key(table::SAGA, &Key::ints(&[self.oid()]), |r| {
                r.set(col::g::STATE, Value::Int(1));
            })?;
            if !flipped {
                return Err(Error::Internal(format!(
                    "saga {} lost its own header before shipping",
                    self.oid()
                )));
            }
            Ok(StepOutcome::Done)
        }
    }

    fn compensate(&mut self, steps_completed: u32, ctx: &mut StepCtx<'_>) -> Result<()> {
        let n_legs = self.legs.len() as u32;
        let oid = self.oid();
        // Legs reserved by completed steps 2..=steps_completed.
        let legs_done = steps_completed.saturating_sub(1).min(n_legs) as usize;
        for leg in 0..legs_done {
            let (sku, qty) = self.legs[leg];
            ctx.update_key(table::SKU, &Key::ints(&[sku]), |r| {
                let oh = r.int(col::s::ON_HAND);
                let rs = r.int(col::s::RESERVED);
                r.set(col::s::ON_HAND, Value::Int(oh + qty));
                r.set(col::s::RESERVED, Value::Int(rs - qty));
            })?;
            ctx.delete_key(table::SAGA_ITEM, &Key::ints(&[oid, leg as i64]))?;
        }
        if steps_completed >= n_legs + 2 {
            add_int(
                ctx,
                table::ACCOUNT,
                &Key::ints(&[self.cust]),
                col::a::HELD,
                -self.total(),
            )?;
        }
        ctx.delete_key(table::SAGA, &Key::ints(&[oid]))?;
        Ok(())
    }

    fn work_area(&self) -> Vec<u8> {
        let mut fields = vec![
            self.order_id.unwrap_or(0),
            self.cust,
            self.legs.len() as i64,
        ];
        fields.extend(self.legs.iter().flat_map(|&(sku, qty)| [sku, qty]));
        encode_work_area(&fields)
    }
}

/// One-step restock: add stock to a SKU and capacity to the ledger.
pub struct Restock {
    /// SKU restocked.
    pub sku: i64,
    /// Units added.
    pub qty: i64,
}

impl TxnProgram for Restock {
    fn txn_type(&self) -> TxnTypeId {
        ty::RESTOCK
    }
    fn step(&mut self, _i: u32, ctx: &mut StepCtx<'_>) -> Result<StepOutcome> {
        add_int(
            ctx,
            table::SKU,
            &Key::ints(&[self.sku]),
            col::s::ON_HAND,
            self.qty,
        )?;
        add_int(
            ctx,
            table::LEDGER,
            &Key::ints(&[0]),
            col::l::CAPACITY,
            self.qty,
        )?;
        Ok(StepOutcome::Done)
    }
}

/// Read-only order status (version-read eligible): the saga header, its
/// items, and current stock for one SKU.
pub struct Status {
    /// Order inquired about (may not exist).
    pub order_id: i64,
    /// A SKU whose stock the caller also checks.
    pub sku: i64,
}

impl TxnProgram for Status {
    fn txn_type(&self) -> TxnTypeId {
        ty::STATUS
    }
    fn step(&mut self, _i: u32, ctx: &mut StepCtx<'_>) -> Result<StepOutcome> {
        let header = ctx.read(table::SAGA, &Key::ints(&[self.order_id]))?;
        if header.is_some() {
            let _ = ctx.scan_prefix(table::SAGA_ITEM, &Key::ints(&[self.order_id]))?;
        }
        let _ = ctx.read(table::SKU, &Key::ints(&[self.sku]))?;
        Ok(StepOutcome::Done)
    }
}
