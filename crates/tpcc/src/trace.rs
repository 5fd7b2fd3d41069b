//! TPC-C as simulator traces.
//!
//! The trace generator mirrors the statement-by-statement lock footprint of
//! the programs in [`crate::txns`] — same step types, same decomposition,
//! same hot district row — against the page geometry of
//! [`crate::schema::tpcc_catalog`]. Each trace's compensating step, guard
//! and version-read declaration come from its type's `TxnSpec` in
//! [`TpccSystem`]. A small amount of logical state (order counters,
//! undelivered-order queues) keeps resource ids realistic.

use crate::decompose::{step, ty, TpccSystem};
use crate::input::{InputGen, TpccConfig, TxnKind};
use crate::schema::{tpcc_catalog, TABLES};
use acc_common::clock::SimTime;
use acc_common::rng::SeededRng;
use acc_common::{AssertionTemplateId, ResourceId, TableId, TxnTypeId};
use acc_core::Acc;
use acc_lockmgr::LockMode;
use acc_sim::{Op, StepTrace, TraceSource, TxnTrace};
use std::collections::VecDeque;
use std::sync::Arc;

/// Cost knobs for trace generation.
#[derive(Debug, Clone)]
pub struct TraceCosts {
    /// CPU demand per SQL statement.
    pub cpu_per_stmt: SimTime,
    /// Compute time injected before each statement of new-order's line steps
    /// and delivery's steps (Fig. 3's knob; zero for the baseline curves).
    pub compute_time: SimTime,
}

impl Default for TraceCosts {
    fn default() -> Self {
        TraceCosts {
            cpu_per_stmt: SimTime::from_millis(5),
            compute_time: SimTime::ZERO,
        }
    }
}

/// Per-district page-space stride so order-derived pages never collide
/// across districts.
const DISTRICT_STRIDE: i64 = 1 << 20;

/// The TPC-C trace source.
pub struct TpccTraceSource {
    gen: InputGen,
    costs: TraceCosts,
    acc: Arc<Acc>,
    templates: crate::decompose::Templates,
    /// Rows per page of each table, by table id, from the schema.
    rows_per_page: Vec<i64>,
    next_o: Vec<i64>,
    undelivered: Vec<VecDeque<(i64, i64)>>, // (o_id, ol_cnt) per district
    history_rows: i64,
}

impl TpccTraceSource {
    /// Build from a workload config and the system's declarations.
    pub fn new(config: TpccConfig, seed: u64, sys: &TpccSystem, costs: TraceCosts) -> Self {
        let scale = config.scale;
        let next_o = vec![scale.initial_orders_per_district + 1; scale.districts as usize + 1];
        let undelivered = (0..=scale.districts)
            .map(|_| {
                (1..=scale.initial_orders_per_district)
                    .map(|o| (o, 10))
                    .collect()
            })
            .collect();
        TpccTraceSource {
            gen: InputGen::new(config, seed),
            costs,
            acc: Arc::clone(&sys.acc),
            templates: sys.templates,
            rows_per_page: tpcc_catalog()
                .tables()
                .map(|t| i64::from(t.rows_per_page))
                .collect(),
            next_o,
            undelivered,
            history_rows: 0,
        }
    }

    fn cpu(&self) -> SimTime {
        self.costs.cpu_per_stmt
    }

    /// A `txn_type` trace declared as its `TxnSpec` declares the type.
    fn trace(
        &self,
        txn_type: TxnTypeId,
        steps: Vec<StepTrace>,
        abort_after_step: Option<usize>,
    ) -> TxnTrace {
        let spec = self.acc.spec(txn_type);
        TxnTrace {
            txn_type,
            steps,
            comp_step: spec.comp_step,
            guard: spec.guard,
            abort_after_step,
            version_safe: spec.version_safe,
        }
    }

    // ----- resource mapping -------------------------------------------------

    fn page(table: TableId, page: i64) -> ResourceId {
        ResourceId::Page(table, page as u32)
    }

    fn rpp(&self, table: TableId) -> i64 {
        self.rows_per_page[table.raw() as usize]
    }

    fn warehouse_row() -> ResourceId {
        Self::page(TABLES.warehouse, 0)
    }

    fn district_row(d: i64) -> ResourceId {
        Self::page(TABLES.district, d - 1)
    }

    fn customer_page(&self, d: i64, c: i64) -> ResourceId {
        let cpd = self.gen.config().scale.customers_per_district;
        Self::page(
            TABLES.customer,
            ((d - 1) * cpd + (c - 1)) / self.rpp(TABLES.customer),
        )
    }

    fn item_page(&self, i: i64) -> ResourceId {
        Self::page(TABLES.item, (i - 1) / self.rpp(TABLES.item))
    }

    fn stock_page(&self, i: i64) -> ResourceId {
        Self::page(TABLES.stock, (i - 1) / self.rpp(TABLES.stock))
    }

    fn order_page(&self, d: i64, o: i64) -> ResourceId {
        Self::page(
            TABLES.order,
            (d - 1) * DISTRICT_STRIDE + o / self.rpp(TABLES.order),
        )
    }

    fn order_line_page(d: i64, o: i64) -> ResourceId {
        // An order's 5–15 lines cluster: model one page per order.
        Self::page(TABLES.order_line, (d - 1) * DISTRICT_STRIDE + o)
    }

    fn new_order_page(&self, d: i64, o: i64) -> ResourceId {
        Self::page(
            TABLES.new_order,
            (d - 1) * DISTRICT_STRIDE + o / self.rpp(TABLES.new_order),
        )
    }

    fn history_page(&self) -> ResourceId {
        Self::page(TABLES.history, self.history_rows / self.rpp(TABLES.history))
    }

    // ----- per-transaction traces -------------------------------------------

    fn new_order_trace(&mut self, rng: &mut SeededRng) -> TxnTrace {
        let input = self.gen.new_order(rng);
        let d = input.d_id;
        let o_id = self.next_o[d as usize];
        self.next_o[d as usize] += 1;
        let cpu = self.cpu();
        let tpl: Vec<AssertionTemplateId> = vec![self.templates.no_loop];

        // Step NO_S1: warehouse read, customer read, district counter bump,
        // ORDER + NEW-ORDER inserts.
        let s1 = StepTrace {
            step_type: step::NO_S1,
            ops: vec![
                Op::read(Self::warehouse_row(), cpu),
                Op::read(self.customer_page(d, input.c_id), cpu),
                Op::write(Self::district_row(d), cpu),
                Op::write(self.order_page(d, o_id), cpu)
                    .with_lock(ResourceId::Table(TABLES.order), LockMode::IX)
                    .with_templates(tpl.clone()),
                Op::write(self.new_order_page(d, o_id), cpu)
                    .with_lock(ResourceId::Table(TABLES.new_order), LockMode::IX),
            ],
        };
        let mut steps = vec![s1];
        for line in &input.lines {
            steps.push(StepTrace {
                step_type: step::NO_S2,
                ops: vec![
                    Op::read(self.item_page(line.i_id), cpu).with_compute(self.costs.compute_time),
                    Op::write(self.stock_page(line.i_id), cpu),
                    Op::write(Self::order_line_page(d, o_id), cpu)
                        .with_lock(ResourceId::Table(TABLES.order_line), LockMode::IX)
                        .with_templates(tpl.clone()),
                ],
            });
        }
        let n = steps.len();
        if !input.rollback {
            self.undelivered[d as usize].push_back((o_id, input.lines.len() as i64));
        }
        self.trace(ty::NEW_ORDER, steps, input.rollback.then_some(n - 1))
    }

    fn payment_trace(&mut self, rng: &mut SeededRng) -> TxnTrace {
        let input = self.gen.payment(rng);
        let d = input.d_id;
        let cpu = self.cpu();
        let tpl = vec![self.templates.pay_mid];
        let c_id = self.gen.customer(rng);
        self.history_rows += 1;
        let by_name = matches!(
            input.customer,
            crate::input::CustomerSelector::ByLastName(_)
        );

        let s1 = StepTrace {
            step_type: step::PAY_S1,
            ops: vec![
                Op::write(Self::warehouse_row(), cpu).with_templates(tpl.clone()),
                Op::write(Self::district_row(d), cpu).with_templates(tpl.clone()),
            ],
        };
        let mut ops2 = Vec::new();
        if by_name {
            // Index probe touches an extra customer page.
            ops2.push(Op::read(self.customer_page(d, (c_id % 60) + 1), cpu));
        }
        ops2.push(Op::write(self.customer_page(d, c_id), cpu));
        ops2.push(
            Op::write(self.history_page(), cpu)
                .with_lock(ResourceId::Table(TABLES.history), LockMode::IX),
        );
        let s2 = StepTrace {
            step_type: step::PAY_S2,
            ops: ops2,
        };
        self.trace(ty::PAYMENT, vec![s1, s2], None)
    }

    fn order_status_trace(&mut self, rng: &mut SeededRng) -> TxnTrace {
        let d = self.gen.district(rng);
        let c_id = self.gen.customer(rng);
        let cpu = self.cpu();
        let recent = (self.next_o[d as usize] - 1).max(1);
        let ost = StepTrace {
            step_type: step::OST,
            ops: vec![
                Op::read(self.customer_page(d, c_id), cpu),
                Op::read(self.order_page(d, recent), cpu),
                Op::read(Self::order_line_page(d, recent), cpu),
            ],
        };
        self.trace(ty::ORDER_STATUS, vec![ost], None)
    }

    fn delivery_trace(&mut self, _rng: &mut SeededRng) -> TxnTrace {
        let cpu = self.cpu();
        let tpl = vec![self.templates.dlv_loop];
        let districts = self.gen.config().scale.districts;
        let mut steps = Vec::with_capacity(districts as usize * 2);
        for d in 1..=districts {
            let claimed = self.undelivered[d as usize].pop_front();
            // DLV_S1: probe the district's oldest NEW-ORDER index page and
            // delete the row. (Open Ingres reaches the oldest entry through
            // the index with page locks — no table-level scan lock.)
            let probe = claimed.map(|(o, _)| o).unwrap_or(self.next_o[d as usize]);
            let mut claim_ops =
                vec![Op::read(self.new_order_page(d, probe), cpu)
                    .with_compute(self.costs.compute_time)];
            if let Some((o_id, _)) = claimed {
                claim_ops.push(
                    Op::write(self.new_order_page(d, o_id), cpu)
                        .with_lock(ResourceId::Table(TABLES.new_order), LockMode::IX),
                );
            }
            steps.push(StepTrace {
                step_type: step::DLV_S1,
                ops: claim_ops,
            });
            // DLV_S2: order, its lines, the customer.
            let apply_ops = match claimed {
                Some((o_id, _)) => {
                    let c_id = (o_id % self.gen.config().scale.customers_per_district) + 1;
                    vec![
                        Op::write(self.order_page(d, o_id), cpu)
                            .with_compute(self.costs.compute_time)
                            .with_templates(tpl.clone()),
                        Op::write(Self::order_line_page(d, o_id), cpu).with_templates(tpl.clone()),
                        Op::write(self.customer_page(d, c_id), cpu),
                    ]
                }
                None => Vec::new(),
            };
            steps.push(StepTrace {
                step_type: step::DLV_S2,
                ops: apply_ops,
            });
        }
        self.trace(ty::DELIVERY, steps, None)
    }

    fn stock_level_trace(&mut self, rng: &mut SeededRng) -> TxnTrace {
        let d = self.gen.district(rng);
        let cpu = self.cpu();
        let next_o = self.next_o[d as usize];
        let mut ops = vec![Op::read(Self::district_row(d), cpu)];
        for o in (next_o - 20).max(1)..next_o {
            ops.push(Op::read(Self::order_line_page(d, o), cpu));
        }
        // Probe a sample of stock pages.
        for _ in 0..8 {
            ops.push(Op::read(self.stock_page(self.gen.item(rng)), cpu));
        }
        let stk = StepTrace {
            step_type: step::STK,
            ops,
        };
        self.trace(ty::STOCK_LEVEL, vec![stk], None)
    }
}

impl TraceSource for TpccTraceSource {
    fn next_trace(&mut self, rng: &mut SeededRng) -> TxnTrace {
        match self.gen.kind(rng) {
            TxnKind::NewOrder => self.new_order_trace(rng),
            TxnKind::Payment => self.payment_trace(rng),
            TxnKind::OrderStatus => self.order_status_trace(rng),
            TxnKind::Delivery => self.delivery_trace(rng),
            TxnKind::StockLevel => self.stock_level_trace(rng),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decompose::TpccSystem;
    use crate::schema::Scale;

    fn source() -> TpccTraceSource {
        let sys = TpccSystem::build();
        TpccTraceSource::new(
            TpccConfig::standard(Scale::benchmark()),
            1,
            &sys,
            TraceCosts::default(),
        )
    }

    #[test]
    fn traces_have_expected_shape() {
        let mut s = source();
        let mut rng = SeededRng::new(2);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..300 {
            let t = s.next_trace(&mut rng);
            seen.insert(t.txn_type);
            match t.txn_type {
                x if x == ty::NEW_ORDER => {
                    assert!(t.steps.len() >= 6, "header + ≥5 lines");
                    assert_eq!(t.steps[0].step_type, step::NO_S1);
                    assert_eq!(t.steps[1].step_type, step::NO_S2);
                    assert!(t.comp_step.is_some());
                    // District row is the third statement of step 0.
                    assert!(t.steps[0].ops[2].locks.iter().any(|(r, m)| m.is_write()
                        && matches!(r, ResourceId::Page(tid, _) if *tid == TABLES.district)));
                }
                x if x == ty::PAYMENT => {
                    assert_eq!(t.steps.len(), 2);
                    // Also writes the district row — the §5.1 conflict.
                    assert!(t.steps[0].ops[1].locks.iter().any(|(r, m)| m.is_write()
                        && matches!(r, ResourceId::Page(tid, _) if *tid == TABLES.district)));
                }
                x if x == ty::DELIVERY => {
                    assert_eq!(t.steps.len(), 20, "two steps per district");
                }
                x if x == ty::ORDER_STATUS || x == ty::STOCK_LEVEL => {
                    assert_eq!(t.steps.len(), 1);
                    assert!(t.steps[0].ops.iter().all(|o| !o.is_write()));
                }
                other => panic!("unexpected type {other}"),
            }
        }
        assert_eq!(seen.len(), 5, "all five kinds generated");
    }

    #[test]
    fn order_ids_advance_and_deliveries_consume() {
        let mut s = source();
        let mut rng = SeededRng::new(3);
        let before: i64 = s.next_o.iter().sum();
        for _ in 0..200 {
            s.next_trace(&mut rng);
        }
        assert!(s.next_o.iter().sum::<i64>() > before);
    }

    #[test]
    fn trace_generation_is_deterministic() {
        let sys = TpccSystem::build();
        let mk = || {
            TpccTraceSource::new(
                TpccConfig::standard(Scale::benchmark()),
                9,
                &sys,
                TraceCosts::default(),
            )
        };
        let (mut a, mut b) = (mk(), mk());
        let mut ra = SeededRng::new(5);
        let mut rb = SeededRng::new(5);
        for _ in 0..200 {
            let ta = a.next_trace(&mut ra);
            let tb = b.next_trace(&mut rb);
            assert_eq!(ta.txn_type, tb.txn_type);
            assert_eq!(ta.steps.len(), tb.steps.len());
            assert_eq!(ta.abort_after_step, tb.abort_after_step);
            for (sa, sb) in ta.steps.iter().zip(tb.steps.iter()) {
                assert_eq!(sa.step_type, sb.step_type);
                let la: Vec<_> = sa.ops.iter().map(|o| o.locks.clone()).collect();
                let lb: Vec<_> = sb.ops.iter().map(|o| o.locks.clone()).collect();
                assert_eq!(la, lb);
            }
        }
    }

    #[test]
    fn compute_time_knob_reaches_line_steps() {
        let sys = TpccSystem::build();
        let mut s = TpccTraceSource::new(
            TpccConfig::standard(Scale::benchmark()),
            1,
            &sys,
            TraceCosts {
                cpu_per_stmt: SimTime::from_millis(5),
                compute_time: SimTime::from_millis(7),
            },
        );
        let mut rng = SeededRng::new(4);
        for _ in 0..100 {
            let t = s.next_trace(&mut rng);
            if t.txn_type == ty::NEW_ORDER {
                assert_eq!(t.steps[1].ops[0].compute_before, SimTime::from_millis(7));
                return;
            }
        }
        panic!("no new-order generated in 100 draws");
    }
}
