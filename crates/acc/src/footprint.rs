//! Step write footprints: what a step type may change, declared at design
//! time.
//!
//! Beyond the table/column/cardinality shape that decides flat overlap,
//! footprints carry three machine-checkable *semantic refinements* that the
//! inference ([`crate::infer`]) uses to discharge overlap obligations:
//! the write [`Effect`] (assignment vs. commutative delta), the key
//! [`Region`] the footprint is confined to, and — on assertion read
//! footprints — delta tolerance. Each refinement is a designer declaration,
//! exactly like the footprint itself: the inference trusts it and mechanizes
//! the §3.2 case analysis on top.

use acc_common::TableId;
use std::collections::BTreeSet;

/// A named key space: a family of key values with the *uniqueness contract*
/// that distinct live transaction instances hold distinct tokens in it (an
/// order id allocated from a counter, a per-transaction history key, …).
/// Two footprints confined to the same key space by different instances are
/// provably row-disjoint; nothing relates tokens of *different* key spaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct KeySpace(pub u32);

/// How a write changes the columns it touches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Effect {
    /// Arbitrary assignment: the new value may depend on the old state and
    /// overwrites whatever is there. No commutativity can be assumed.
    #[default]
    Assign,
    /// A commutative delta (increment/decrement by an amount fixed at
    /// execution time), whose compensation — if any — is the inverse delta.
    /// Deltas commute with each other and preserve delta-tolerant
    /// predicates. Declaring `Delta` is a contract over *both* the forward
    /// write and its compensation.
    Delta,
}

/// Which rows of the table a footprint is confined to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Region {
    /// Any row — no confinement claim.
    #[default]
    All,
    /// Only rows keyed by this instance's own token in the key space: rows
    /// the transaction instance exclusively owns for its lifetime (its own
    /// order's lines, its own history row). Distinct instances own distinct
    /// tokens, so same-space `Own` footprints of different transactions are
    /// row-disjoint.
    Own(KeySpace),
    /// Writes only: rows whose key in the space is *freshly allocated* by
    /// this instance — no live transaction or assertion instance can already
    /// reference them. Fresh keys are disjoint from every `Own` region of
    /// the same space and can never be the fixed rows a column-only
    /// predicate depends on.
    Fresh(KeySpace),
    /// Rows whose leading integer key component lies in `[lo, hi)` — a
    /// static key-range resource. Two ranges that do not intersect are
    /// row-disjoint.
    Range(i64, i64),
}

/// What one step type (or one assertion template) touches in one table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableFootprint {
    /// The table.
    pub table: TableId,
    /// Column positions written (step) or referenced (assertion).
    pub columns: BTreeSet<usize>,
    /// For steps: rows may be inserted or deleted. For assertions: the
    /// predicate depends on *which rows exist* (counts, existence,
    /// aggregates) — not just on column values of fixed rows.
    pub cardinality: bool,
    /// Write-side refinement: how the touched columns change. Never changes
    /// flat overlap; [`crate::infer`] uses it to discharge obligations.
    pub effect: Effect,
    /// Which rows the footprint is confined to. Never changes flat overlap;
    /// [`crate::infer`] uses it to discharge obligations.
    pub region: Region,
    /// Read-side refinement: the predicate is invariant under other
    /// transactions' commutative deltas to these columns ("includes my
    /// contribution"-style assertions). Meaningless on write footprints.
    pub delta_tolerant: bool,
}

impl TableFootprint {
    /// Footprint over named columns only.
    pub fn columns(table: TableId, columns: impl IntoIterator<Item = usize>) -> Self {
        TableFootprint {
            table,
            columns: columns.into_iter().collect(),
            cardinality: false,
            effect: Effect::Assign,
            region: Region::All,
            delta_tolerant: false,
        }
    }

    /// Footprint that inserts/deletes rows (or, for an assertion, depends on
    /// row existence), additionally touching the given columns.
    pub fn rows(table: TableId, columns: impl IntoIterator<Item = usize>) -> Self {
        TableFootprint {
            table,
            columns: columns.into_iter().collect(),
            cardinality: true,
            effect: Effect::Assign,
            region: Region::All,
            delta_tolerant: false,
        }
    }

    /// Declare the write a commutative delta (compensated, if ever, by the
    /// inverse delta). Deltas touch fixed rows; a footprint cannot be both
    /// `Delta` and cardinality-changing (the inference rejects that).
    pub fn delta(mut self) -> Self {
        self.effect = Effect::Delta;
        self
    }

    /// Confine the footprint to rows keyed by the instance's own token in
    /// `space`.
    pub fn own(mut self, space: KeySpace) -> Self {
        self.region = Region::Own(space);
        self
    }

    /// Confine the (write) footprint to freshly allocated keys in `space`.
    pub fn fresh(mut self, space: KeySpace) -> Self {
        self.region = Region::Fresh(space);
        self
    }

    /// Confine the footprint to rows whose leading integer key lies in
    /// `[lo, hi)`.
    pub fn within(mut self, lo: i64, hi: i64) -> Self {
        self.region = Region::Range(lo, hi);
        self
    }

    /// Declare the (read) footprint's predicate invariant under other
    /// transactions' commutative deltas to these columns.
    pub fn tolerates_deltas(mut self) -> Self {
        self.delta_tolerant = true;
        self
    }

    /// Does a write with footprint `self` overlap a read with footprint
    /// `other` (same-table check included)?
    pub fn overlaps(&self, other: &TableFootprint) -> bool {
        self.table == other.table
            && ((self.cardinality && other.cardinality)
                || self.columns.intersection(&other.columns).next().is_some())
    }
}

/// The declared write behaviour of one step type.
#[derive(Debug, Clone)]
pub struct StepFootprint {
    /// The step type this footprint describes.
    pub step_type: acc_common::StepTypeId,
    /// Human-readable name for the analysis report.
    pub name: String,
    /// Per-table write sets.
    pub writes: Vec<TableFootprint>,
}

impl StepFootprint {
    /// A step footprint.
    pub fn new(
        step_type: acc_common::StepTypeId,
        name: impl Into<String>,
        writes: Vec<TableFootprint>,
    ) -> Self {
        StepFootprint {
            step_type,
            name: name.into(),
            writes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: TableId = TableId(0);
    const U: TableId = TableId(1);

    #[test]
    fn column_overlap() {
        let w = TableFootprint::columns(T, [1, 2]);
        assert!(w.overlaps(&TableFootprint::columns(T, [2, 3])));
        assert!(!w.overlaps(&TableFootprint::columns(T, [3, 4])));
        assert!(!w.overlaps(&TableFootprint::columns(U, [1, 2])));
    }

    #[test]
    fn cardinality_overlap() {
        // Inserting rows disturbs a count predicate even with disjoint
        // columns.
        let w = TableFootprint::rows(T, [0]);
        let count_pred = TableFootprint::rows(T, []);
        assert!(w.overlaps(&count_pred));
        // …but not a fixed-row column predicate on other columns.
        assert!(!w.overlaps(&TableFootprint::columns(T, [5])));
        // A pure column write never disturbs a pure count predicate.
        let w2 = TableFootprint::columns(T, [5]);
        assert!(!w2.overlaps(&count_pred));
    }

    #[test]
    fn refinement_builders_do_not_change_flat_overlap() {
        // Flat overlap is the same whether or not a footprint carries
        // refinements; only the inference's obligations read them.
        let plain = TableFootprint::columns(T, [1]);
        let refined = TableFootprint::columns(T, [1]).delta().own(KeySpace(0));
        let read = TableFootprint::columns(T, [1]).tolerates_deltas();
        assert!(plain.overlaps(&read));
        assert!(refined.overlaps(&read));
        assert_eq!(plain.effect, Effect::Assign);
        assert_eq!(refined.effect, Effect::Delta);
        assert_eq!(refined.region, Region::Own(KeySpace(0)));
        assert_eq!(
            TableFootprint::rows(T, []).fresh(KeySpace(3)).region,
            Region::Fresh(KeySpace(3))
        );
        assert_eq!(
            TableFootprint::columns(T, [0]).within(5, 9).region,
            Region::Range(5, 9)
        );
    }
}
