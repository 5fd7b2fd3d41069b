//! The design-time interference analysis (§3.1–3.2), mechanized.
//!
//! Given step footprints and assertion templates enriched with the semantic
//! refinements of [`crate::footprint`] ([`Effect`], [`Region`], delta
//! tolerance), [`Inference`] derives the step×template interference matrix
//! for an arbitrary workload. Whatever the footprints cannot prove, the
//! designer may still declare safe with a recorded justification — the
//! paper's hand proofs from the maximally reduced proof — but only there:
//! declaring a cell the footprints already prove is a design-time error, so
//! each workload's declarations are exactly its inference gap.
//!
//! # Proof obligations
//!
//! For a non-guard template, a write footprint `w` and read footprint `r` of
//! the same table raise an obligation whenever they overlap flatly (shared
//! columns, or both cardinality-changing/-dependent). The obligation is
//! discharged only by one of:
//!
//! 1. **Region disjointness** — the two footprints are confined to provably
//!    disjoint row sets: same-space `Own`×`Own` (distinct instances hold
//!    distinct tokens), `Fresh`×`Own` (fresh keys are unknown to every live
//!    instance), `Fresh`×`Fresh`, or non-intersecting key `Range`s.
//! 2. **Freshness vs. fixed rows** — a `Fresh`-region write against a
//!    non-cardinality read: a column-only predicate depends on fixed,
//!    already-referenced rows, which freshly allocated keys can never be.
//! 3. **Delta tolerance** — a `Delta`-effect write against a read declared
//!    delta-tolerant on the shared columns: commutative deltas preserve the
//!    predicate by declaration (and their compensation is the inverse delta,
//!    so the tolerance survives aborts).
//!
//! Any undischarged obligation makes the pair interfere — the conservative
//! default the paper prescribes when the analysis cannot prove safety —
//! unless the designer declared it safe.
//!
//! # Guard templates, uniformly
//!
//! Guard templates ([`DIRTY`](crate::assertion::DIRTY) and type-specific
//! guards) have no read footprint; their meaning is "this item carries
//! uncommitted data". A step is safe against *every* guard template exactly
//! when each of its write footprints individually cannot conflict with
//! another transaction's uncommitted state:
//!
//! * `Delta` effect — commutes with the uncommitted write and with its
//!   compensation, **provided** the uncommitted data cannot stem from an
//!   assignment: an assigner's compensation restores the saved pre-image,
//!   which would wipe a delta that landed in between. This is a
//!   whole-system side condition ([`delta_poison`]): every registered step
//!   assigning an overlapping column must be fresh-region or provably
//!   region-disjoint from the delta;
//! * `Fresh` region — the rows did not exist, so no other transaction's
//!   uncommitted data can live there;
//! * `Own` region — rows this instance exclusively owns; no other
//!   transaction writes them at all.
//!
//! A step with an *empty* write footprint is trivially guard-safe: this is
//! the uniform derivation of the guard default that the live path already
//! scopes to writing steps (the PR 6 asymmetry) — read-only steps get an
//! all-clear row, which also makes them eligible for coordination-free
//! version reads.
//!
//! Inference is deliberately *incomplete*: arguments resting on temporal or
//! item-identity facts the refinement vocabulary cannot express (TPC-C's
//! "applies only to orders it atomically claimed, which are committed") come
//! out conservatively interfering until declared.

use crate::assertion::AssertionRegistry;
use crate::footprint::{Effect, Region, StepFootprint, TableFootprint};
use crate::tables::InterferenceTables;
use acc_common::{AssertionTemplateId, StepTypeId};
use acc_lockmgr::InterferenceOracle;
use std::collections::{HashMap, HashSet};

/// One recorded analysis decision.
#[derive(Debug, Clone)]
pub struct Decision {
    /// Step type.
    pub step: StepTypeId,
    /// The step type's name, as registered with its footprint.
    pub step_name: String,
    /// Assertion template.
    pub template: AssertionTemplateId,
    /// Final verdict.
    pub interferes: bool,
    /// How the verdict was reached: the discharging proof, the designer's
    /// declaration, or the blocking obligation.
    pub why: String,
}

/// Row-disjointness proof between two confined footprints, if one exists.
fn region_disjoint(w: &Region, r: &Region) -> Option<String> {
    match (w, r) {
        (Region::Own(a), Region::Own(b)) if a == b => Some(format!(
            "distinct instances hold distinct tokens in key space {}",
            a.0
        )),
        (Region::Fresh(a), Region::Own(b)) | (Region::Own(b), Region::Fresh(a)) if a == b => {
            Some(format!(
                "fresh keys in space {} are unknown to any live instance",
                a.0
            ))
        }
        (Region::Fresh(a), Region::Fresh(b)) if a == b => Some(format!(
            "fresh keys in space {} are allocated once, to one instance",
            a.0
        )),
        (Region::Range(a, b), Region::Range(c, d)) if b <= c || d <= a => Some(format!(
            "key ranges [{a},{b}) and [{c},{d}) do not intersect"
        )),
        _ => None,
    }
}

/// The whole-system side condition on a delta's guard-safety: a commutative
/// delta may land on *uncommitted* data. If that data was left by another
/// step's **assignment**, the assigner's compensation restores the saved
/// pre-image — wiping the delta and breaking serializability. So a delta is
/// only guard-safe when every registered step that *assigns* an overlapping
/// column either writes freshly allocated rows (a delta targets fixed rows
/// it references, which fresh rows cannot be) or is provably region-disjoint
/// from the delta. Deltas over deltas are always fine: inverse-delta
/// compensation commutes.
fn delta_poison(w: &TableFootprint, all: &[StepFootprint]) -> Option<String> {
    for s in all {
        for w2 in &s.writes {
            if w2.effect == Effect::Assign
                && w2.table == w.table
                && w2.columns.intersection(&w.columns).next().is_some()
                && !matches!(w2.region, Region::Fresh(_))
                && region_disjoint(&w.region, &w2.region).is_none()
            {
                return Some(format!(
                    "table {}: delta may land on columns step {:?} leaves assigned-uncommitted, \
                     and an assignment's compensation would wipe the delta",
                    w.table.raw(),
                    s.step_type
                ));
            }
        }
    }
    None
}

/// One write/read footprint obligation: proved (`Ok`) with the discharging
/// argument, or unproved (`Err`) with what blocked it.
fn obligation(w: &TableFootprint, r: &TableFootprint) -> Result<Option<String>, String> {
    if !w.overlaps(r) {
        return Ok(None);
    }
    let card_overlap = w.cardinality && r.cardinality;
    if let Some(proof) = region_disjoint(&w.region, &r.region) {
        return Ok(Some(proof));
    }
    if matches!(w.region, Region::Fresh(_)) && !r.cardinality {
        return Ok(Some(format!(
            "table {}: fresh keys cannot be the fixed rows the predicate reads",
            w.table.raw()
        )));
    }
    // Delta writes never change cardinality (validated in `step`), so a
    // delta against a tolerant read leaves only the column channel — which
    // tolerance discharges.
    if w.effect == Effect::Delta && r.delta_tolerant && !card_overlap {
        return Ok(Some(format!(
            "table {}: delta-tolerant predicate is preserved by commutative deltas",
            w.table.raw()
        )));
    }
    Err(format!(
        "table {}: {} overlap not provably disjoint",
        w.table.raw(),
        if card_overlap {
            "cardinality"
        } else {
            "column"
        }
    ))
}

/// Derives the interference tables: everything neither proved from the
/// footprints nor declared safe is conservative.
pub struct Inference<'a> {
    registry: &'a AssertionRegistry,
    steps: Vec<StepFootprint>,
    safe: HashMap<(StepTypeId, AssertionTemplateId), String>,
    committed_readers: Vec<StepTypeId>,
}

impl<'a> Inference<'a> {
    /// Start an inference over the given templates.
    pub fn new(registry: &'a AssertionRegistry) -> Self {
        Inference {
            registry,
            steps: Vec::new(),
            safe: HashMap::new(),
            committed_readers: Vec::new(),
        }
    }

    /// Register a step type's write footprint. Panics on a duplicate step
    /// type or on a self-contradictory refinement (a cardinality-changing
    /// `Delta`): these are design-time declaration bugs.
    pub fn step(mut self, fp: StepFootprint) -> Self {
        assert!(
            self.steps.iter().all(|s| s.step_type != fp.step_type),
            "duplicate footprint for {:?}",
            fp.step_type
        );
        for w in &fp.writes {
            assert!(
                !(w.effect == Effect::Delta && w.cardinality),
                "step {:?}, table {:?}: a commutative delta cannot insert or delete rows",
                fp.step_type,
                w.table
            );
        }
        self.steps.push(fp);
        self
    }

    /// Record the designer's proof that `step` cannot invalidate `template`
    /// although the footprints cannot show it (in the paper: an argument
    /// read off the maximally reduced proof). Panics if `step` is not yet
    /// registered or `template` is not in the registry; [`build`](Self::build)
    /// panics if the footprints already prove the cell, so a workload's
    /// declarations are exactly what inference cannot derive.
    pub fn declare_safe(
        mut self,
        step: StepTypeId,
        template: AssertionTemplateId,
        why: impl Into<String>,
    ) -> Self {
        assert!(
            self.steps.iter().any(|s| s.step_type == step),
            "declaration for unregistered step {step:?}"
        );
        assert!(
            (template.raw() as usize) < self.registry.len(),
            "declaration for template {template:?} outside the registry"
        );
        self.safe.insert((step, template), why.into());
        self
    }

    /// Declare that an (analyzed) step type must only read committed data —
    /// a requirement of the step's *specification* (§3.3), not something
    /// footprints could ever derive.
    pub fn require_committed_reads(mut self, step: StepTypeId) -> Self {
        self.committed_readers.push(step);
        self
    }

    /// Run the inference. Panics if a template's read footprint claims a
    /// `Fresh` region (freshness is a write-side notion), or if a declared
    /// cell is one the footprints prove anyway.
    pub fn build(self) -> (InterferenceTables, Vec<Decision>) {
        let n = self.registry.len();
        for t in self.registry.iter() {
            for r in &t.reads {
                assert!(
                    !matches!(r.region, Region::Fresh(_)),
                    "template {:?}: Fresh is a write-side region",
                    t.id
                );
            }
        }
        let mut write: HashMap<StepTypeId, Vec<bool>> = HashMap::new();
        let mut decisions = Vec::new();
        for step in &self.steps {
            for template in self.registry.iter() {
                let (mut interferes, mut why) = if template.read_guard {
                    Self::guard_verdict(step, &self.steps)
                } else {
                    Self::template_verdict(step, &template.reads)
                };
                if let Some(declared) = self.safe.get(&(step.step_type, template.id)) {
                    assert!(
                        interferes,
                        "step {:?} x template {:?} is declared safe, but the footprints \
                         already prove it ({why})",
                        step.step_type, template.id
                    );
                    interferes = false;
                    why = format!("declared safe: {declared}");
                }
                decisions.push(Decision {
                    step: step.step_type,
                    step_name: step.name.clone(),
                    template: template.id,
                    interferes,
                    why,
                });
            }
        }
        for d in &decisions {
            write.entry(d.step).or_insert_with(|| vec![false; n])[d.template.raw() as usize] =
                d.interferes;
        }
        let read_guards: HashSet<AssertionTemplateId> = self
            .registry
            .iter()
            .filter(|t| t.read_guard)
            .map(|t| t.id)
            .collect();
        let mut tables = InterferenceTables::from_parts(write, read_guards, n);
        for s in &self.committed_readers {
            tables.set_committed_reader(*s);
        }
        (tables, decisions)
    }

    fn guard_verdict(step: &StepFootprint, all: &[StepFootprint]) -> (bool, String) {
        if step.writes.is_empty() {
            return (false, "writes nothing: trivially guard-safe".to_owned());
        }
        let mut proofs = Vec::new();
        for w in &step.writes {
            let proof = match (w.effect, w.region) {
                (Effect::Delta, _) => match delta_poison(w, all) {
                    Some(poison) => {
                        return (
                            true,
                            format!(
                                "conservative default: may overwrite uncommitted data ({poison})"
                            ),
                        )
                    }
                    None => format!(
                        "table {}: commutative delta over delta-only columns \
                         (compensation is the inverse delta)",
                        w.table.raw()
                    ),
                },
                (Effect::Assign, Region::Fresh(ks)) => format!(
                    "table {}: fresh keys in space {} hold no other transaction's uncommitted data",
                    w.table.raw(),
                    ks.0
                ),
                (Effect::Assign, Region::Own(ks)) => format!(
                    "table {}: instance-owned rows in space {} are written by no other transaction",
                    w.table.raw(),
                    ks.0
                ),
                (Effect::Assign, _) => {
                    return (
                        true,
                        format!(
                            "conservative default: may overwrite uncommitted data \
                             (table {}: assignment to unconfined rows)",
                            w.table.raw()
                        ),
                    )
                }
            };
            proofs.push(proof);
        }
        (false, format!("proved guard-safe: {}", proofs.join("; ")))
    }

    fn template_verdict(step: &StepFootprint, reads: &[TableFootprint]) -> (bool, String) {
        let mut proofs = Vec::new();
        for w in &step.writes {
            for r in reads {
                match obligation(w, r) {
                    Ok(None) => {}
                    Ok(Some(p)) => proofs.push(p),
                    Err(blocked) => {
                        return (true, format!("conservative default: {blocked}"));
                    }
                }
            }
        }
        if proofs.is_empty() {
            (false, "disjoint footprints".to_owned())
        } else {
            proofs.dedup();
            (false, format!("proved: {}", proofs.join("; ")))
        }
    }
}

/// Render a table as deterministic JSON: steps sorted by id (named as in the
/// `decisions` that built it), templates in id order, stable key order, no
/// floating point. Byte-identical across runs of the same analysis —
/// `figures -- tables` is double-run-compared on this.
pub fn matrix_json(
    tables: &InterferenceTables,
    registry: &AssertionRegistry,
    decisions: &[Decision],
) -> String {
    fn esc(s: &str) -> String {
        s.replace('\\', "\\\\").replace('"', "\\\"")
    }
    let mut steps: Vec<(StepTypeId, &str)> = decisions
        .iter()
        .map(|d| (d.step, d.step_name.as_str()))
        .collect();
    steps.sort_by_key(|(s, _)| *s);
    steps.dedup_by_key(|(s, _)| *s);
    let mut out = String::from("{\n  \"templates\": [\n");
    let n = registry.len();
    for (i, t) in registry.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"id\": {}, \"name\": \"{}\", \"guard\": {}}}{}\n",
            t.id.raw(),
            esc(&t.name),
            t.read_guard,
            if i + 1 < n { "," } else { "" }
        ));
    }
    out.push_str("  ],\n  \"steps\": [\n");
    let m = steps.len();
    for (i, (s, name)) in steps.iter().enumerate() {
        let row: Vec<String> = (0..n)
            .map(|t| {
                tables
                    .write_interferes(*s, AssertionTemplateId(t as u32))
                    .to_string()
            })
            .collect();
        out.push_str(&format!(
            "    {{\"id\": {}, \"name\": \"{}\", \"write\": [{}], \
             \"committed_reader\": {}, \"version_read_safe\": {}}}{}\n",
            s.raw(),
            esc(name),
            row.join(", "),
            tables.is_committed_reader(*s),
            tables.version_read_safe(*s),
            if i + 1 < m { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assertion::DIRTY;
    use crate::footprint::KeySpace;
    use acc_common::TableId;

    const T: TableId = TableId(0);
    const U: TableId = TableId(1);
    const KS: KeySpace = KeySpace(0);

    #[test]
    fn delta_discharges_tolerant_reads_but_not_assignments() {
        let mut reg = AssertionRegistry::new();
        let tol = reg.define(
            "tolerant-sum",
            vec![TableFootprint::columns(T, [1]).tolerates_deltas()],
            None,
        );
        let strict = reg.define("strict-eq", vec![TableFootprint::columns(T, [1])], None);
        let add = StepTypeId(1);
        let set = StepTypeId(2);
        let add_u = StepTypeId(3);
        let (tables, decisions) = Inference::new(&reg)
            .step(StepFootprint::new(
                add,
                "add",
                vec![TableFootprint::columns(T, [1]).delta()],
            ))
            .step(StepFootprint::new(
                set,
                "set",
                vec![TableFootprint::columns(T, [1])],
            ))
            .step(StepFootprint::new(
                add_u,
                "add-other-table",
                vec![TableFootprint::columns(U, [1]).delta()],
            ))
            .build();
        assert!(!tables.write_interferes(add, tol));
        assert!(tables.write_interferes(add, strict));
        assert!(tables.write_interferes(set, tol));
        assert!(tables.write_interferes(set, strict));
        // Assignments are never guard-safe on unconfined rows…
        assert!(tables.write_interferes(set, DIRTY));
        // …and the mere *existence* of `set` poisons `add`'s guard-safety:
        // add could land on set's uncommitted value, and set's compensation
        // (restore the pre-image) would wipe the delta.
        assert!(tables.write_interferes(add, DIRTY));
        // A delta on a column no step assigns is guard-safe.
        assert!(!tables.write_interferes(add_u, DIRTY));
        assert_eq!(decisions.len(), 3 * reg.len());
        assert!(decisions
            .iter()
            .any(|d| d.why.contains("delta-tolerant predicate")));
        assert!(decisions.iter().any(|d| d.why.contains("wipe the delta")));
    }

    #[test]
    fn region_disjoint_assignments_do_not_poison_deltas() {
        let mut reg = AssertionRegistry::new();
        let _ = reg.define("unused", vec![], None);
        let add = StepTypeId(1);
        let set_own = StepTypeId(2);
        let ins_fresh = StepTypeId(3);
        let (tables, _) = Inference::new(&reg)
            // The delta is itself confined to the instance's own rows…
            .step(StepFootprint::new(
                add,
                "add-own",
                vec![TableFootprint::columns(T, [1]).delta().own(KS)],
            ))
            // …so a same-space own-row assignment is provably disjoint, and
            // fresh-row inserts can never hold the fixed rows a delta targets.
            .step(StepFootprint::new(
                set_own,
                "set-own",
                vec![TableFootprint::columns(T, [1]).own(KS)],
            ))
            .step(StepFootprint::new(
                ins_fresh,
                "insert-fresh",
                vec![TableFootprint::rows(T, [1]).fresh(KS)],
            ))
            .build();
        assert!(!tables.write_interferes(add, DIRTY));
        assert!(!tables.write_interferes(set_own, DIRTY));
        assert!(!tables.write_interferes(ins_fresh, DIRTY));
    }

    #[test]
    fn region_proofs() {
        let mut reg = AssertionRegistry::new();
        let own_pred = reg.define("own-row", vec![TableFootprint::rows(T, [1]).own(KS)], None);
        let count_all = reg.define("count-all", vec![TableFootprint::rows(T, [])], None);
        let low = reg.define(
            "low-range",
            vec![TableFootprint::columns(T, [1]).within(0, 10)],
            None,
        );
        let s_own = StepTypeId(1);
        let s_fresh = StepTypeId(2);
        let s_high = StepTypeId(3);
        let (tables, _) = Inference::new(&reg)
            .step(StepFootprint::new(
                s_own,
                "own-writer",
                vec![TableFootprint::rows(T, [1]).own(KS)],
            ))
            .step(StepFootprint::new(
                s_fresh,
                "fresh-inserter",
                vec![TableFootprint::rows(T, [1]).fresh(KS)],
            ))
            .step(StepFootprint::new(
                s_high,
                "high-range-writer",
                vec![TableFootprint::columns(T, [1]).within(10, 20)],
            ))
            .build();
        // Own×Own and Fresh×Own are provably row-disjoint.
        assert!(!tables.write_interferes(s_own, own_pred));
        assert!(!tables.write_interferes(s_fresh, own_pred));
        // Fresh inserts still disturb an unconfined count.
        assert!(tables.write_interferes(s_fresh, count_all));
        // …and Own deletes do too (the count ranges over everything).
        assert!(tables.write_interferes(s_own, count_all));
        // Disjoint ranges are disjoint rows.
        assert!(!tables.write_interferes(s_high, low));
        // Region confinement also makes the writers guard-safe.
        assert!(!tables.write_interferes(s_own, DIRTY));
        assert!(!tables.write_interferes(s_fresh, DIRTY));
        assert!(tables.write_interferes(s_high, DIRTY));
    }

    #[test]
    fn fresh_writes_cannot_touch_fixed_rows() {
        let mut reg = AssertionRegistry::new();
        let fixed = reg.define("fixed-row-col", vec![TableFootprint::columns(T, [2])], None);
        let s = StepTypeId(1);
        let (tables, _) = Inference::new(&reg)
            .step(StepFootprint::new(
                s,
                "fresh",
                vec![TableFootprint::rows(T, [0, 1, 2]).fresh(KS)],
            ))
            .build();
        assert!(!tables.write_interferes(s, fixed));
    }

    #[test]
    fn read_only_step_is_uniformly_guard_safe_and_version_readable() {
        // The PR 6 asymmetry, derived uniformly: a guarded read-only step
        // needs no declaration to get an all-clear row.
        let mut reg = AssertionRegistry::new();
        let extra_guard = reg.define_guard("type-guard");
        let pred = reg.define("pred", vec![TableFootprint::columns(U, [1])], None);
        let ro = StepTypeId(7);
        let (tables, _) = Inference::new(&reg)
            .step(StepFootprint::new(ro, "read-only", vec![]))
            .require_committed_reads(ro)
            .build();
        assert!(!tables.write_interferes(ro, DIRTY));
        assert!(!tables.write_interferes(ro, extra_guard));
        assert!(!tables.write_interferes(ro, pred));
        assert!(tables.version_read_safe(ro));
        // The committed-reads requirement is orthogonal and preserved.
        assert!(tables.read_interferes(ro, DIRTY));
    }

    #[test]
    fn unprovable_overlap_defaults_conservative() {
        let mut reg = AssertionRegistry::new();
        let pred = reg.define("pred", vec![TableFootprint::rows(T, [1])], None);
        let s = StepTypeId(1);
        let (tables, decisions) = Inference::new(&reg)
            .step(StepFootprint::new(
                s,
                "unconfined",
                vec![TableFootprint::rows(T, [1])],
            ))
            .build();
        assert!(tables.write_interferes(s, pred));
        assert!(decisions
            .iter()
            .any(|d| d.interferes && d.why.contains("conservative default")));
    }

    #[test]
    #[should_panic(expected = "commutative delta cannot insert or delete")]
    fn cardinality_delta_is_rejected() {
        let reg = AssertionRegistry::new();
        let _ = Inference::new(&reg).step(StepFootprint::new(
            StepTypeId(1),
            "bad",
            vec![TableFootprint::rows(T, [1]).delta()],
        ));
    }

    #[test]
    fn matrix_json_is_deterministic_and_ordered() {
        let mut reg = AssertionRegistry::new();
        let _ = reg.define("a \"quoted\" name", vec![], None);
        let (tables, decisions) = Inference::new(&reg)
            .step(StepFootprint::new(StepTypeId(2), "later", vec![]))
            .step(StepFootprint::new(
                StepTypeId(1),
                "earlier",
                vec![TableFootprint::columns(T, [0])],
            ))
            .build();
        let a = matrix_json(&tables, &reg, &decisions);
        let reversed: Vec<_> = decisions.iter().rev().cloned().collect();
        assert_eq!(a, matrix_json(&tables, &reg, &reversed));
        // Steps come out id-sorted regardless of declaration order, once
        // each, named as registered.
        let i1 = a.find("\"earlier\"").unwrap();
        let i2 = a.find("\"later\"").unwrap();
        assert!(i1 < i2, "{a}");
        assert_eq!(a.matches("\"earlier\"").count(), 1, "{a}");
        assert!(a.contains("\\\"quoted\\\""));
        assert!(a.contains("\"version_read_safe\": true"));
    }

    #[test]
    #[should_panic(expected = "duplicate footprint")]
    fn duplicate_step_panics() {
        let reg = AssertionRegistry::new();
        let fp = || StepFootprint::new(StepTypeId(1), "s", vec![]);
        let _ = Inference::new(&reg).step(fp()).step(fp());
    }

    #[test]
    fn declared_cell_flips_to_safe_with_its_justification() {
        let mut reg = AssertionRegistry::new();
        let pred = reg.define("pred", vec![TableFootprint::rows(T, [1])], None);
        let s = StepTypeId(1);
        let (tables, decisions) = Inference::new(&reg)
            .step(StepFootprint::new(
                s,
                "unconfined",
                vec![TableFootprint::rows(T, [1])],
            ))
            .declare_safe(s, pred, "rows are claimed atomically")
            .build();
        assert!(!tables.write_interferes(s, pred));
        // Only the declared cell moves; DIRTY keeps its conservative default.
        assert!(tables.write_interferes(s, DIRTY));
        let d = decisions.iter().find(|d| d.template == pred).unwrap();
        assert!(!d.interferes);
        assert_eq!(d.why, "declared safe: rows are claimed atomically");
        assert_eq!(d.step_name, "unconfined");
    }

    #[test]
    #[should_panic(expected = "already prove it")]
    fn declaring_a_provable_cell_panics() {
        let mut reg = AssertionRegistry::new();
        let pred = reg.define("pred", vec![TableFootprint::columns(T, [1])], None);
        let s = StepTypeId(1);
        let _ = Inference::new(&reg)
            .step(StepFootprint::new(
                s,
                "other-column",
                vec![TableFootprint::columns(T, [2])],
            ))
            .declare_safe(s, pred, "redundant")
            .build();
    }

    #[test]
    #[should_panic(expected = "unregistered step")]
    fn declaring_for_an_unregistered_step_panics() {
        let reg = AssertionRegistry::new();
        let _ = Inference::new(&reg).declare_safe(StepTypeId(1), DIRTY, "no such step");
    }

    #[test]
    #[should_panic(expected = "outside the registry")]
    fn declaring_an_out_of_range_template_panics() {
        let reg = AssertionRegistry::new();
        let s = StepTypeId(1);
        let _ = Inference::new(&reg)
            .step(StepFootprint::new(s, "s", vec![]))
            .declare_safe(s, AssertionTemplateId(1), "no such template");
    }
}
