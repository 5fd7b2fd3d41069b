//! The five TPC-C transactions as step-decomposed [`TxnProgram`]s.
//!
//! Each program runs unchanged under strict 2PL (step boundaries ignored,
//! physical rollback) and under the ACC (locks released per step,
//! compensating steps). Program-local state is written idempotently per step
//! because a deadlock-victim step is re-executed after its effects are
//! undone.
//!
//! [`program_for`] builds a program from a generated input;
//! [`program_for_inflight`] rebuilds a compensable one after a crash. The
//! paper's system "saves some of its work area in a database table for
//! compensation" (§5); ours travels with the end-of-step log record, and
//! each compensable program's decoder (`recovered`) sits beside its
//! `work_area` encoder.

use crate::input::{
    CustomerSelector, DeliveryInput, NewOrderInput, OrderStatusInput, PaymentInput, StockLevelInput,
};
use crate::schema::{col, TABLES};
use acc_common::{Decimal, Error, Result, TxnTypeId, Value};
use acc_storage::{Key, Row};
use acc_txn::{decode_work_area, encode_work_area, StepCtx, StepOutcome, TxnProgram};
use acc_wal::InFlight;
use std::collections::HashSet;

use crate::decompose::ty;

/// Resolve a customer selector to a concrete c_id (spec §2.5.2.2: by last
/// name, take the row at position ⌈n/2⌉ ordered by first name).
fn resolve_customer(
    ctx: &mut StepCtx<'_>,
    w_id: i64,
    d_id: i64,
    sel: &CustomerSelector,
) -> Result<i64> {
    match sel {
        CustomerSelector::ById(c) => Ok(*c),
        CustomerSelector::ByLastName(last) => {
            let mut rows = ctx.lookup_secondary(
                TABLES.customer,
                0,
                &Key(vec![
                    Value::Int(w_id),
                    Value::Int(d_id),
                    Value::str(last.clone()),
                ]),
            )?;
            if rows.is_empty() {
                return Err(Error::NotFound(format!(
                    "customer with last name {last} in district {d_id}"
                )));
            }
            rows.sort_by(|a, b| a.1.str(col::c::FIRST).cmp(b.1.str(col::c::FIRST)));
            Ok(rows[rows.len() / 2].1.int(col::c::ID))
        }
    }
}

// ---------------------------------------------------------------------------
// New-order
// ---------------------------------------------------------------------------

/// The new-order transaction (spec §2.4), decomposed as header + one step
/// per order line (paper §4/§5.1).
pub struct NewOrder {
    /// Input parameters.
    pub input: NewOrderInput,
    /// The order id assigned in step 0.
    pub o_id: Option<i64>,
    /// Per-line amounts (idempotently overwritten).
    pub amounts: Vec<Decimal>,
    /// Total after tax and discount, set on the final step.
    pub total: Option<Decimal>,
    w_tax: Decimal,
    d_tax: Decimal,
    c_discount: Decimal,
}

impl NewOrder {
    /// Rebuild a program skeleton from a recovered work area
    /// `[w_id, d_id, o_id]`, sufficient to run the compensating step (which
    /// reads everything else it needs from the durable order lines
    /// themselves). `None` for a malformed area.
    pub fn recovered(work_area: &[u8]) -> Option<Self> {
        let &[w_id, d_id, o_id] = decode_work_area(work_area)?.as_slice() else {
            return None;
        };
        if o_id < 0 {
            return None;
        }
        let mut p = NewOrder::new(NewOrderInput {
            w_id,
            d_id,
            c_id: 1,
            lines: Vec::new(),
            rollback: false,
        });
        p.o_id = Some(o_id);
        Some(p)
    }

    /// Wrap an input.
    pub fn new(input: NewOrderInput) -> Self {
        let n = input.lines.len();
        NewOrder {
            input,
            o_id: None,
            amounts: vec![Decimal::ZERO; n],
            total: None,
            w_tax: Decimal::ZERO,
            d_tax: Decimal::ZERO,
            c_discount: Decimal::ZERO,
        }
    }
}

impl TxnProgram for NewOrder {
    fn txn_type(&self) -> TxnTypeId {
        ty::NEW_ORDER
    }

    fn step(&mut self, i: u32, ctx: &mut StepCtx<'_>) -> Result<StepOutcome> {
        let (w, d) = (self.input.w_id, self.input.d_id);
        if i == 0 {
            let wrow = ctx.read_existing(TABLES.warehouse, &Key::ints(&[w]))?;
            self.w_tax = wrow.decimal(col::w::TAX);
            let crow = ctx.read_existing(TABLES.customer, &Key::ints(&[w, d, self.input.c_id]))?;
            self.c_discount = crow.decimal(col::c::DISCOUNT);

            let drow = ctx
                .read_for_update(TABLES.district, &Key::ints(&[w, d]))?
                .ok_or_else(|| Error::NotFound(format!("district ({w},{d})")))?;
            self.d_tax = drow.decimal(col::d::TAX);
            let o_id = drow.int(col::d::NEXT_O_ID);
            ctx.update_key(TABLES.district, &Key::ints(&[w, d]), |r| {
                r.set(col::d::NEXT_O_ID, Value::Int(o_id + 1));
            })?;
            self.o_id = Some(o_id);

            ctx.insert(
                TABLES.order,
                Row(vec![
                    Value::Int(w),
                    Value::Int(d),
                    Value::Int(o_id),
                    Value::Int(self.input.c_id),
                    Value::Int(0),
                    Value::Null,
                    Value::Int(self.input.lines.len() as i64),
                    Value::Bool(true),
                ]),
            )?;
            ctx.insert(
                TABLES.new_order,
                Row(vec![Value::Int(w), Value::Int(d), Value::Int(o_id)]),
            )?;
            return Ok(StepOutcome::Continue);
        }

        let idx = (i - 1) as usize;
        let last = idx + 1 == self.input.lines.len();
        if last && self.input.rollback {
            // Spec §2.4.1.4: 1 % of new-orders hit an unused item number on
            // their final line and must roll back.
            return Ok(StepOutcome::Abort);
        }
        let line = self.input.lines[idx];
        let o_id = self.o_id.expect("step 0 assigned the order id");

        let item = match ctx.read(TABLES.item, &Key::ints(&[line.i_id]))? {
            Some(r) => r,
            None => return Ok(StepOutcome::Abort),
        };
        let price = item.decimal(col::i::PRICE);

        let stock = ctx
            .read_for_update(TABLES.stock, &Key::ints(&[line.supply_w_id, line.i_id]))?
            .ok_or_else(|| Error::NotFound(format!("stock item {}", line.i_id)))?;
        let qty = stock.int(col::s::QUANTITY);
        let new_qty = if qty - line.qty >= 10 {
            qty - line.qty
        } else {
            qty - line.qty + 91
        };
        ctx.update_key(
            TABLES.stock,
            &Key::ints(&[line.supply_w_id, line.i_id]),
            |r| {
                r.set(col::s::QUANTITY, Value::Int(new_qty));
                let ytd = r.int(col::s::YTD);
                r.set(col::s::YTD, Value::Int(ytd + line.qty));
                let cnt = r.int(col::s::ORDER_CNT);
                r.set(col::s::ORDER_CNT, Value::Int(cnt + 1));
            },
        )?;

        let amount = price.mul_int(line.qty);
        self.amounts[idx] = amount;
        ctx.insert(
            TABLES.order_line,
            Row(vec![
                Value::Int(w),
                Value::Int(d),
                Value::Int(o_id),
                Value::Int(i as i64),
                Value::Int(line.i_id),
                Value::Int(line.supply_w_id),
                Value::Null,
                Value::Int(line.qty),
                Value::Decimal(amount),
                Value::str("dist-info"),
            ]),
        )?;

        if last {
            let sum: Decimal = self.amounts.iter().copied().sum();
            let taxed = sum * (Decimal::from_int(1) + self.w_tax + self.d_tax);
            self.total = Some(taxed * (Decimal::from_int(1) - self.c_discount));
            Ok(StepOutcome::Done)
        } else {
            Ok(StepOutcome::Continue)
        }
    }

    fn compensate(&mut self, steps_completed: u32, ctx: &mut StepCtx<'_>) -> Result<()> {
        let (w, d) = (self.input.w_id, self.input.d_id);
        let o_id = self.o_id.expect("compensating implies step 0 completed");
        // Lines entered by completed steps 1..steps_completed carry numbers
        // 1..steps_completed. Return goods to the stock each line drew on,
        // then remove the order.
        for line_no in (1..steps_completed as i64).rev() {
            let Some(line) =
                ctx.read_for_update(TABLES.order_line, &Key::ints(&[w, d, o_id, line_no]))?
            else {
                continue;
            };
            let i_id = line.int(col::ol::I_ID);
            let supply_w = line.int(col::ol::SUPPLY_W_ID);
            let qty = line.int(col::ol::QUANTITY);
            ctx.update_key(TABLES.stock, &Key::ints(&[supply_w, i_id]), |r| {
                let q = r.int(col::s::QUANTITY);
                r.set(col::s::QUANTITY, Value::Int(q + qty));
                let ytd = r.int(col::s::YTD);
                r.set(col::s::YTD, Value::Int(ytd - qty));
                let cnt = r.int(col::s::ORDER_CNT);
                r.set(col::s::ORDER_CNT, Value::Int(cnt - 1));
            })?;
            ctx.delete_key(TABLES.order_line, &Key::ints(&[w, d, o_id, line_no]))?;
        }
        ctx.delete_key(TABLES.new_order, &Key::ints(&[w, d, o_id]))?;
        ctx.delete_key(TABLES.order, &Key::ints(&[w, d, o_id]))?;
        // The d_next_o_id increment is NOT undone: order numbers are
        // consumed; the §4 result predicate allows the unsuccessful branch.
        Ok(())
    }

    fn work_area(&self) -> Vec<u8> {
        encode_work_area(&[self.input.w_id, self.input.d_id, self.o_id.unwrap_or(-1)])
    }
}

// ---------------------------------------------------------------------------
// Payment
// ---------------------------------------------------------------------------

/// The payment transaction (spec §2.5): warehouse/district YTD, then
/// customer + history.
pub struct Payment {
    /// Input parameters.
    pub input: PaymentInput,
    /// The resolved customer id (after step 1).
    pub c_id: Option<i64>,
}

impl Payment {
    /// Wrap an input.
    pub fn new(input: PaymentInput) -> Self {
        Payment { input, c_id: None }
    }

    /// Rebuild from a recovered work area `[w_id, d_id, amount]` (enough for
    /// compensation). `None` for a malformed area.
    pub fn recovered(work_area: &[u8]) -> Option<Self> {
        let &[w_id, d_id, amount] = decode_work_area(work_area)?.as_slice() else {
            return None;
        };
        Some(Payment::new(PaymentInput {
            w_id,
            d_id,
            c_d_id: d_id,
            customer: CustomerSelector::ById(1),
            amount: Decimal::from_units(amount),
        }))
    }
}

impl TxnProgram for Payment {
    fn txn_type(&self) -> TxnTypeId {
        ty::PAYMENT
    }

    fn step(&mut self, i: u32, ctx: &mut StepCtx<'_>) -> Result<StepOutcome> {
        let (w, d) = (self.input.w_id, self.input.d_id);
        let amount = self.input.amount;
        if i == 0 {
            ctx.update_key(TABLES.warehouse, &Key::ints(&[w]), |r| {
                let ytd = r.decimal(col::w::YTD);
                r.set(col::w::YTD, Value::Decimal(ytd + amount));
            })?;
            ctx.update_key(TABLES.district, &Key::ints(&[w, d]), |r| {
                let ytd = r.decimal(col::d::YTD);
                r.set(col::d::YTD, Value::Decimal(ytd + amount));
            })?;
            return Ok(StepOutcome::Continue);
        }

        let c_id = resolve_customer(ctx, w, self.input.c_d_id, &self.input.customer)?;
        self.c_id = Some(c_id);
        ctx.update_key(
            TABLES.customer,
            &Key::ints(&[w, self.input.c_d_id, c_id]),
            |r| {
                let bal = r.decimal(col::c::BALANCE);
                r.set(col::c::BALANCE, Value::Decimal(bal - amount));
                let ytd = r.decimal(col::c::YTD_PAYMENT);
                r.set(col::c::YTD_PAYMENT, Value::Decimal(ytd + amount));
                let cnt = r.int(col::c::PAYMENT_CNT);
                r.set(col::c::PAYMENT_CNT, Value::Int(cnt + 1));
            },
        )?;
        // History primary key: the transaction id is unique per attempt.
        ctx.insert(
            TABLES.history,
            Row(vec![
                Value::Int(ctx.txn_id().raw() as i64),
                Value::Int(w),
                Value::Int(self.input.c_d_id),
                Value::Int(c_id),
                Value::Int(0),
                Value::Decimal(amount),
            ]),
        )?;
        Ok(StepOutcome::Done)
    }

    fn work_area(&self) -> Vec<u8> {
        encode_work_area(&[self.input.w_id, self.input.d_id, self.input.amount.units()])
    }

    fn compensate(&mut self, steps_completed: u32, ctx: &mut StepCtx<'_>) -> Result<()> {
        let (w, d) = (self.input.w_id, self.input.d_id);
        let amount = self.input.amount;
        if steps_completed >= 1 {
            ctx.update_key(TABLES.warehouse, &Key::ints(&[w]), |r| {
                let ytd = r.decimal(col::w::YTD);
                r.set(col::w::YTD, Value::Decimal(ytd - amount));
            })?;
            ctx.update_key(TABLES.district, &Key::ints(&[w, d]), |r| {
                let ytd = r.decimal(col::d::YTD);
                r.set(col::d::YTD, Value::Decimal(ytd - amount));
            })?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Order-status
// ---------------------------------------------------------------------------

/// The order-status transaction (spec §2.6): read-only, single step,
/// committed reads required.
pub struct OrderStatus {
    /// Input parameters.
    pub input: OrderStatusInput,
    /// The customer's balance at read time.
    pub balance: Option<Decimal>,
    /// The last order's id and line count, if the customer has any orders.
    pub last_order: Option<(i64, usize)>,
}

impl OrderStatus {
    /// Wrap an input.
    pub fn new(input: OrderStatusInput) -> Self {
        OrderStatus {
            input,
            balance: None,
            last_order: None,
        }
    }
}

impl TxnProgram for OrderStatus {
    fn txn_type(&self) -> TxnTypeId {
        ty::ORDER_STATUS
    }

    fn step(&mut self, _i: u32, ctx: &mut StepCtx<'_>) -> Result<StepOutcome> {
        let (w, d) = (self.input.w_id, self.input.d_id);
        let c_id = resolve_customer(ctx, w, d, &self.input.customer)?;
        let crow = ctx.read_existing(TABLES.customer, &Key::ints(&[w, d, c_id]))?;
        self.balance = Some(crow.decimal(col::c::BALANCE));

        let orders = ctx.lookup_secondary(TABLES.order, 0, &Key::ints(&[w, d, c_id]))?;
        let last = orders.iter().map(|(_, r)| r.int(col::o::ID)).max();
        if let Some(o_id) = last {
            let lines = ctx.scan_prefix(TABLES.order_line, &Key::ints(&[w, d, o_id]))?;
            self.last_order = Some((o_id, lines.len()));
        }
        Ok(StepOutcome::Done)
    }
}

// ---------------------------------------------------------------------------
// Delivery
// ---------------------------------------------------------------------------

/// Per-district bookkeeping for delivery.
#[derive(Debug, Clone, Default)]
struct Claim {
    o_id: i64,
    c_id: i64,
    ol_cnt: i64,
    amount: Decimal,
    applied: bool,
}

/// The delivery transaction (spec §2.7): the long-running transaction. Two
/// steps per district: claim the oldest undelivered order, then apply.
pub struct Delivery {
    /// Input parameters.
    pub input: DeliveryInput,
    /// Number of districts to process.
    pub districts: i64,
    /// Orders delivered (district, order) — for reporting.
    pub delivered: Vec<(i64, i64)>,
    claims: Vec<Option<Claim>>,
}

impl Delivery {
    /// Wrap an input for a warehouse with `districts` districts.
    pub fn new(input: DeliveryInput, districts: i64) -> Self {
        Delivery {
            input,
            districts,
            delivered: Vec::new(),
            claims: vec![None; districts as usize],
        }
    }

    /// Rebuild from a recovered work area `[w_id, districts, (idx, o_id,
    /// c_id, ol_cnt, amount, applied) * claims]`. Returns `None` for a
    /// malformed area: every field a corrupt log could hand us is validated
    /// before it sizes an allocation or indexes a slice.
    pub fn recovered(work_area: &[u8]) -> Option<Self> {
        let fields = decode_work_area(work_area)?;
        let &[w_id, districts, ref claims @ ..] = fields.as_slice() else {
            return None;
        };
        if w_id < 1 || !(1..=100).contains(&districts) || !claims.len().is_multiple_of(6) {
            return None;
        }
        let mut p = Delivery::new(
            DeliveryInput {
                w_id,
                carrier_id: 1,
            },
            districts,
        );
        for claim in claims.chunks_exact(6) {
            let &[idx, o_id, c_id, ol_cnt, amount, applied] = claim else {
                unreachable!("chunks_exact yields 6 fields");
            };
            if !(0..districts).contains(&idx) || !(0..=1).contains(&applied) {
                return None;
            }
            p.claims[idx as usize] = Some(Claim {
                o_id,
                c_id,
                ol_cnt,
                amount: Decimal::from_units(amount),
                applied: applied != 0,
            });
        }
        Some(p)
    }
}

impl TxnProgram for Delivery {
    fn txn_type(&self) -> TxnTypeId {
        ty::DELIVERY
    }

    fn step(&mut self, i: u32, ctx: &mut StepCtx<'_>) -> Result<StepOutcome> {
        let w = self.input.w_id;
        let d = (i as i64) / 2 + 1;
        let idx = (d - 1) as usize;
        let is_claim = i.is_multiple_of(2);
        let last = d == self.districts && !is_claim;

        if is_claim {
            // DLV_S1: find and delete the oldest NEW-ORDER row. Keys are
            // (w, d, o_id), so the oldest undelivered order is the first
            // entry in the district's prefix — an early-terminating tree
            // descent, not a full-prefix materialization.
            self.claims[idx] = None;
            let oldest = ctx
                .first_by_prefix(TABLES.new_order, &Key::ints(&[w, d]))?
                .map(|(_, r)| r.int(col::no::O_ID));
            if let Some(o_id) = oldest {
                ctx.delete_key(TABLES.new_order, &Key::ints(&[w, d, o_id]))?;
                self.claims[idx] = Some(Claim {
                    o_id,
                    ..Claim::default()
                });
            }
            return Ok(StepOutcome::Continue);
        }

        // DLV_S2: apply to the claimed order.
        if let Some(claim) = self.claims[idx].clone() {
            let o_id = claim.o_id;
            let order = ctx
                .read_for_update(TABLES.order, &Key::ints(&[w, d, o_id]))?
                .ok_or_else(|| Error::NotFound(format!("claimed order ({w},{d},{o_id})")))?;
            let c_id = order.int(col::o::C_ID);
            let ol_cnt = order.int(col::o::OL_CNT);
            ctx.update_key(TABLES.order, &Key::ints(&[w, d, o_id]), |r| {
                r.set(col::o::CARRIER_ID, Value::Int(self.input.carrier_id));
            })?;
            let mut amount = Decimal::ZERO;
            for l in 1..=ol_cnt {
                let line = ctx
                    .read_for_update(TABLES.order_line, &Key::ints(&[w, d, o_id, l]))?
                    .ok_or_else(|| Error::NotFound(format!("line {l} of order {o_id}")))?;
                amount += line.decimal(col::ol::AMOUNT);
                ctx.update_key(TABLES.order_line, &Key::ints(&[w, d, o_id, l]), |r| {
                    r.set(col::ol::DELIVERY_D, Value::Int(1));
                })?;
            }
            ctx.update_key(TABLES.customer, &Key::ints(&[w, d, c_id]), |r| {
                let bal = r.decimal(col::c::BALANCE);
                r.set(col::c::BALANCE, Value::Decimal(bal + amount));
                let cnt = r.int(col::c::DELIVERY_CNT);
                r.set(col::c::DELIVERY_CNT, Value::Int(cnt + 1));
            })?;
            self.claims[idx] = Some(Claim {
                o_id,
                c_id,
                ol_cnt,
                amount,
                applied: true,
            });
            self.delivered.push((d, o_id));
        }
        Ok(if last {
            StepOutcome::Done
        } else {
            StepOutcome::Continue
        })
    }

    fn work_area(&self) -> Vec<u8> {
        let mut fields = vec![self.input.w_id, self.districts];
        for (idx, claim) in self.claims.iter().enumerate() {
            let Some(c) = claim else { continue };
            fields.extend([
                idx as i64,
                c.o_id,
                c.c_id,
                c.ol_cnt,
                c.amount.units(),
                i64::from(c.applied),
            ]);
        }
        encode_work_area(&fields)
    }

    fn compensate(&mut self, steps_completed: u32, ctx: &mut StepCtx<'_>) -> Result<()> {
        let w = self.input.w_id;
        // Completed steps 0..steps_completed cover districts in pairs; walk
        // the claims and reverse whatever was durably done.
        let full_pairs = (steps_completed / 2) as usize;
        let half_claim = steps_completed % 2 == 1;
        for idx in (0..self.claims.len()).rev() {
            let Some(claim) = self.claims[idx].clone() else {
                continue;
            };
            let d = idx as i64 + 1;
            let claim_done = idx < full_pairs || (half_claim && idx == full_pairs);
            let apply_done = claim.applied && idx < full_pairs;
            if apply_done {
                ctx.update_key(TABLES.customer, &Key::ints(&[w, d, claim.c_id]), |r| {
                    let bal = r.decimal(col::c::BALANCE);
                    r.set(col::c::BALANCE, Value::Decimal(bal - claim.amount));
                    let cnt = r.int(col::c::DELIVERY_CNT);
                    r.set(col::c::DELIVERY_CNT, Value::Int(cnt - 1));
                })?;
                for l in 1..=claim.ol_cnt {
                    ctx.update_key(TABLES.order_line, &Key::ints(&[w, d, claim.o_id, l]), |r| {
                        r.set(col::ol::DELIVERY_D, Value::Null);
                    })?;
                }
                ctx.update_key(TABLES.order, &Key::ints(&[w, d, claim.o_id]), |r| {
                    r.set(col::o::CARRIER_ID, Value::Null);
                })?;
            }
            if claim_done {
                // Put the claim back so another delivery can take it.
                ctx.insert(
                    TABLES.new_order,
                    Row(vec![Value::Int(w), Value::Int(d), Value::Int(claim.o_id)]),
                )?;
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Stock-level
// ---------------------------------------------------------------------------

/// The stock-level transaction (spec §2.8): read-only, single step,
/// read-committed allowed.
pub struct StockLevel {
    /// Input parameters.
    pub input: StockLevelInput,
    /// Number of recently ordered items below the threshold.
    pub low_stock: Option<usize>,
}

impl StockLevel {
    /// Wrap an input.
    pub fn new(input: StockLevelInput) -> Self {
        StockLevel {
            input,
            low_stock: None,
        }
    }
}

impl TxnProgram for StockLevel {
    fn txn_type(&self) -> TxnTypeId {
        ty::STOCK_LEVEL
    }

    fn step(&mut self, _i: u32, ctx: &mut StepCtx<'_>) -> Result<StepOutcome> {
        let (w, d) = (self.input.w_id, self.input.d_id);
        let drow = ctx.read_existing(TABLES.district, &Key::ints(&[w, d]))?;
        let next_o = drow.int(col::d::NEXT_O_ID);

        // Order-line keys are (w, d, o_id, number): the last 20 orders'
        // lines form one contiguous key range, so a single range descent
        // replaces the per-order prefix rescans.
        let lo = Key::ints(&[w, d, (next_o - 20).max(1)]);
        let hi = Key::ints(&[w, d, next_o]);
        let mut items: HashSet<i64> = HashSet::new();
        for (_, line) in ctx.scan_range(TABLES.order_line, &lo, &hi)? {
            items.insert(line.int(col::ol::I_ID));
        }
        let mut low = 0usize;
        for i_id in items {
            if let Some(stock) = ctx.read(TABLES.stock, &Key::ints(&[w, i_id]))? {
                if stock.int(col::s::QUANTITY) < self.input.threshold {
                    low += 1;
                }
            }
        }
        self.low_stock = Some(low);
        Ok(StepOutcome::Done)
    }
}

/// Construct the program for a generated input.
pub fn program_for(input: crate::input::TxnInput, districts: i64) -> Box<dyn TxnProgram + Send> {
    match input {
        crate::input::TxnInput::NewOrder(i) => Box::new(NewOrder::new(i)),
        crate::input::TxnInput::Payment(i) => Box::new(Payment::new(i)),
        crate::input::TxnInput::OrderStatus(i) => Box::new(OrderStatus::new(i)),
        crate::input::TxnInput::Delivery(i) => Box::new(Delivery::new(i, districts)),
        crate::input::TxnInput::StockLevel(i) => Box::new(StockLevel::new(i)),
    }
}

/// Rebuild the compensable program for a recovered in-flight transaction
/// from its durable work area: the crash-recovery counterpart of
/// [`program_for`]. `acc_txn::runner::resume_compensation` then runs its
/// compensating step.
pub fn program_for_inflight(inflight: &InFlight) -> Result<Box<dyn TxnProgram + Send>> {
    fn boxed(p: Option<impl TxnProgram + Send + 'static>) -> Option<Box<dyn TxnProgram + Send>> {
        p.map(|p| Box::new(p) as _)
    }
    let wa = &inflight.work_area;
    let (what, program) = match inflight.txn_type {
        t if t == ty::NEW_ORDER => ("new-order", boxed(NewOrder::recovered(wa))),
        t if t == ty::PAYMENT => ("payment", boxed(Payment::recovered(wa))),
        t if t == ty::DELIVERY => ("delivery", boxed(Delivery::recovered(wa))),
        other => {
            return Err(Error::Recovery(format!(
                "in-flight transaction {} has non-compensable type {other}",
                inflight.txn
            )))
        }
    };
    program.ok_or_else(|| {
        Error::Recovery(format!("unparseable {what} work area for {}", inflight.txn))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use acc_common::TxnId;

    fn inflight(txn_type: TxnTypeId, work_area: Vec<u8>) -> InFlight {
        InFlight {
            txn: TxnId(9),
            txn_type,
            steps_completed: 1,
            work_area,
            compensating: false,
        }
    }

    /// The rebuilt program is of the recovered type and writes back exactly
    /// the work area it was rebuilt from.
    fn round_trip(txn_type: TxnTypeId, work_area: Vec<u8>) {
        let p = program_for_inflight(&inflight(txn_type, work_area.clone()));
        assert!(p.is_ok(), "work area {work_area:?} must be accepted");
        let p = p.unwrap();
        assert_eq!(p.txn_type(), txn_type);
        assert_eq!(p.work_area(), work_area);
    }

    #[test]
    fn new_order_work_area_round_trip() {
        round_trip(ty::NEW_ORDER, encode_work_area(&[1, 4, 77]));
    }

    #[test]
    fn payment_work_area_round_trip() {
        let amount = Decimal::from_cents(555).units();
        round_trip(ty::PAYMENT, encode_work_area(&[1, 2, amount]));
    }

    #[test]
    fn delivery_work_area_round_trip() {
        let p = Delivery::new(
            DeliveryInput {
                w_id: 1,
                carrier_id: 3,
            },
            10,
        );
        round_trip(ty::DELIVERY, p.work_area());
        round_trip(
            ty::DELIVERY,
            encode_work_area(&[1, 3, 0, 5, 6, 7, 800, 1, 2, 9, 9, 9, 0, 0]),
        );
    }

    fn expect_recovery_err(txn_type: TxnTypeId, work_area: Vec<u8>) {
        let inf = inflight(txn_type, work_area);
        assert!(
            matches!(program_for_inflight(&inf), Err(Error::Recovery(_))),
            "work area {:?} must be rejected",
            inf.work_area
        );
    }

    #[test]
    fn short_work_areas_are_errors_not_panics() {
        // Every prefix length shorter than the fixed header of each program.
        for len in [0usize, 1, 7, 8, 15, 16, 23] {
            expect_recovery_err(ty::NEW_ORDER, vec![0xab; len]);
            expect_recovery_err(ty::PAYMENT, vec![0xab; len]);
        }
        for len in [0usize, 1, 7, 8, 15] {
            expect_recovery_err(ty::DELIVERY, vec![0xab; len]);
        }
    }

    #[test]
    fn trailing_bytes_are_errors() {
        for t in [ty::NEW_ORDER, ty::PAYMENT] {
            // A trailing partial field, then a trailing whole one.
            let mut wa = encode_work_area(&[1, 1, 5]);
            wa.push(0);
            expect_recovery_err(t, wa);
            expect_recovery_err(t, encode_work_area(&[1, 1, 5, 0]));
        }
    }

    #[test]
    fn new_order_negative_order_id_is_rejected() {
        expect_recovery_err(ty::NEW_ORDER, encode_work_area(&[1, 1, -5]));
    }

    #[test]
    fn delivery_malformed_work_areas_are_errors_not_panics() {
        let i64s = encode_work_area;
        // Negative district count: previously sized a `vec![None; n as usize]`
        // allocation from attacker-controlled bytes.
        expect_recovery_err(ty::DELIVERY, i64s(&[1, -1]));
        // Absurd district count: ditto, as a near-usize::MAX allocation.
        expect_recovery_err(ty::DELIVERY, i64s(&[1, i64::MAX]));
        // Claim index outside the district range: previously an
        // out-of-bounds slice write.
        expect_recovery_err(ty::DELIVERY, i64s(&[1, 3, 99, 5, 5, 5, 5, 1]));
        expect_recovery_err(ty::DELIVERY, i64s(&[1, 3, -2, 5, 5, 5, 5, 1]));
        // Claim tuple cut mid-field (length not a multiple of 8).
        let mut torn = i64s(&[1, 3, 0, 5, 5, 5, 5, 1]);
        torn.truncate(torn.len() - 3);
        expect_recovery_err(ty::DELIVERY, torn);
        // Claim tuple missing trailing fields.
        expect_recovery_err(ty::DELIVERY, i64s(&[1, 3, 0, 5, 5]));
        // Garbage `applied` flag.
        expect_recovery_err(ty::DELIVERY, i64s(&[1, 3, 0, 5, 5, 5, 5, 7]));
        // Non-positive warehouse id.
        expect_recovery_err(ty::DELIVERY, i64s(&[0, 3]));
    }

    #[test]
    fn garbage_work_area_is_an_error() {
        expect_recovery_err(ty::NEW_ORDER, vec![1, 2, 3]);
        expect_recovery_err(ty::ORDER_STATUS, vec![]);
    }
}
