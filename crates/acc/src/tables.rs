//! Interference tables: the run-time product of the design-time analysis.
//!
//! These tables implement the lock manager's `InterferenceOracle`, so the
//! conflict decision for an assertional lock is a dense-array lookup — the
//! paper's key contrast with predicate locks (§3.2).

use acc_common::ids::LEGACY_STEP;
use acc_common::{AssertionTemplateId, StepTypeId};
use acc_lockmgr::InterferenceOracle;
use std::collections::{HashMap, HashSet};

/// The step-type × assertion-template interference matrix plus the metadata
/// needed for legacy isolation.
#[derive(Debug, Clone, Default)]
pub struct InterferenceTables {
    /// `write[step] [template.raw] == true` ⇒ the step may invalidate the
    /// template by writing.
    write: HashMap<StepTypeId, Vec<bool>>,
    /// Templates that also guard against unanalyzed readers (`DIRTY`).
    read_guards: HashSet<AssertionTemplateId>,
    /// Step types the design-time analysis covered. Anything else (legacy /
    /// ad-hoc) is treated maximally conservatively.
    analyzed: HashSet<StepTypeId>,
    /// Analyzed step types that are nonetheless declared to require
    /// committed reads (§3.3's "some transactions might require that they
    /// read only committed data"): they read-interfere with guard templates
    /// just like legacy transactions.
    committed_readers: HashSet<StepTypeId>,
    /// Number of templates (row width).
    n_templates: usize,
}

impl InterferenceTables {
    /// Build from raw parts (use [`crate::infer::Inference`] normally).
    pub fn from_parts(
        write: HashMap<StepTypeId, Vec<bool>>,
        read_guards: HashSet<AssertionTemplateId>,
        n_templates: usize,
    ) -> Self {
        let analyzed = write.keys().copied().collect();
        InterferenceTables {
            write,
            read_guards,
            analyzed,
            committed_readers: HashSet::new(),
            n_templates,
        }
    }

    /// Mark an analyzed step type as requiring committed reads.
    pub fn set_committed_reader(&mut self, step: StepTypeId) {
        self.committed_readers.insert(step);
    }

    /// True if `step` was covered by the analysis.
    pub fn is_analyzed(&self, step: StepTypeId) -> bool {
        self.analyzed.contains(&step)
    }

    /// True if `step` was declared to require committed reads.
    pub fn is_committed_reader(&self, step: StepTypeId) -> bool {
        self.committed_readers.contains(&step)
    }

    /// The analyzed step types, sorted by id.
    pub fn steps(&self) -> Vec<StepTypeId> {
        let mut steps: Vec<_> = self.write.keys().copied().collect();
        steps.sort_unstable();
        steps
    }

    /// Number of templates in the matrix.
    pub fn n_templates(&self) -> usize {
        self.n_templates
    }

    /// Render the matrix for documentation/debugging.
    pub fn dump(&self) -> String {
        let mut steps: Vec<_> = self.write.keys().copied().collect();
        steps.sort_unstable();
        let mut out = String::new();
        for s in steps {
            let row = &self.write[&s];
            out.push_str(&format!(
                "step {:>3}: {}\n",
                s.raw(),
                row.iter()
                    .map(|&b| if b { 'X' } else { '.' })
                    .collect::<String>()
            ));
        }
        out
    }
}

impl InterferenceOracle for InterferenceTables {
    fn write_interferes(&self, step: StepTypeId, assertion: AssertionTemplateId) -> bool {
        if step == LEGACY_STEP || !self.analyzed.contains(&step) {
            // Unanalyzed writers conservatively invalidate everything.
            return true;
        }
        self.write[&step]
            .get(assertion.raw() as usize)
            .copied()
            // Templates defined after the analysis ran: conservative.
            .unwrap_or(true)
    }

    fn read_interferes(&self, step: StepTypeId, assertion: AssertionTemplateId) -> bool {
        // Reads can never falsify a predicate; the only read conflicts are
        // guard templates (DIRTY) versus unanalyzed readers and analyzed
        // steps declared to require committed data.
        self.read_guards.contains(&assertion)
            && (step == LEGACY_STEP
                || !self.analyzed.contains(&step)
                || self.committed_readers.contains(&step))
    }

    fn version_read_safe(&self, step: StepTypeId) -> bool {
        // A dense-row lookup, like everything else here: the step must be
        // analyzed and its write row all-clear. (Committed-reader steps
        // qualify too — the version chains serve only committed images, so
        // the §3.3 requirement is met without blocking on DIRTY pins.)
        step != LEGACY_STEP
            && self
                .write
                .get(&step)
                .is_some_and(|row| row.iter().all(|&b| !b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assertion::DIRTY;

    fn tables() -> InterferenceTables {
        let mut write = HashMap::new();
        // step 1: interferes with template 1 only (plus DIRTY by policy).
        write.insert(StepTypeId(1), vec![true, true, false]);
        // step 2: interferes with nothing, not even DIRTY.
        write.insert(StepTypeId(2), vec![false, false, false]);
        InterferenceTables::from_parts(write, [DIRTY].into(), 3)
    }

    #[test]
    fn lookups() {
        let t = tables();
        assert!(t.write_interferes(StepTypeId(1), AssertionTemplateId(1)));
        assert!(!t.write_interferes(StepTypeId(1), AssertionTemplateId(2)));
        assert!(!t.write_interferes(StepTypeId(2), DIRTY));
    }

    #[test]
    fn legacy_is_conservative() {
        let t = tables();
        for a in 0..3 {
            assert!(t.write_interferes(LEGACY_STEP, AssertionTemplateId(a)));
        }
        assert!(t.read_interferes(LEGACY_STEP, DIRTY));
        assert!(!t.read_interferes(LEGACY_STEP, AssertionTemplateId(1)));
        // Unknown (unanalyzed) steps behave like legacy.
        assert!(t.write_interferes(StepTypeId(99), AssertionTemplateId(2)));
        assert!(t.read_interferes(StepTypeId(99), DIRTY));
    }

    #[test]
    fn analyzed_readers_pass_guards() {
        let t = tables();
        assert!(!t.read_interferes(StepTypeId(1), DIRTY));
        assert!(!t.read_interferes(StepTypeId(2), AssertionTemplateId(1)));
    }

    #[test]
    fn out_of_range_template_is_conservative() {
        let t = tables();
        assert!(t.write_interferes(StepTypeId(2), AssertionTemplateId(50)));
    }

    #[test]
    fn version_read_safety_requires_clear_write_row() {
        let t = tables();
        // Step 2 writes nothing: version reads are interference-safe.
        assert!(t.version_read_safe(StepTypeId(2)));
        // Step 1 writes; legacy/unknown steps are conservative.
        assert!(!t.version_read_safe(StepTypeId(1)));
        assert!(!t.version_read_safe(LEGACY_STEP));
        assert!(!t.version_read_safe(StepTypeId(99)));
    }

    #[test]
    fn dump_is_readable() {
        let d = tables().dump();
        assert!(d.contains("step   1: XX."));
        assert!(d.contains("step   2: ..."));
    }
}
