//! Crash torture: recovery + compensation must hold at every crash point of
//! every cut-point source, for every workload kit.
//!
//! These tests drive `acc_bench::torture` (see that module for the sweep
//! design). TPC-C's seed-42 tallies are pinned exactly; smallbank and the
//! saga must pass every source with zero violations, and every sweep must
//! exercise what it claims to (compensation, rejected records, refusals,
//! switchovers), or it proves nothing.

use acc_bench::torture::{matrix, run, CutSource, TortureConfig, TortureReport};
use acc_engine::Workload;
use acc_tpcc::TpccKit;
use std::sync::Arc;

/// The `figures -- torture` row for `kit` × `source`, so the tallies pinned
/// here are the ones the figure prints.
fn row(quick: bool, kit: &str, source: &str) -> (Arc<dyn Workload>, TortureConfig) {
    matrix(quick)
        .into_iter()
        .find(|(k, cfg)| k.name() == kit && cfg.source.name() == source)
        .unwrap_or_else(|| panic!("no {kit} {source} row"))
}

/// Run one sweep and apply the checks every sweep must pass: zero
/// violations, zero mixed-epoch lookups, something replayed and something
/// compensated, and one `RecoveryOutcome` per recovery point.
fn sweep(kit: &dyn Workload, cfg: TortureConfig) -> TortureReport {
    let source = cfg.source;
    let r = run(kit, &cfg).unwrap_or_else(|e| panic!("{} {source:?}: {e}", kit.name()));
    assert_eq!(r.violations, 0, "consistency violated:\n{}", r.log);
    assert_eq!(
        r.mixed_epoch_lookups, 0,
        "a lookup crossed epochs:\n{}",
        r.log
    );
    assert!(r.replayed > 0, "no transaction ever replayed:\n{}", r.log);
    assert!(
        r.compensated > 0,
        "no crash point exercised compensation:\n{}",
        r.log
    );
    // The ship source's transport points are not recoveries: there, one
    // outcome per promotion point (one per ship boundary).
    let recoveries = if matches!(source, CutSource::Ship { .. }) {
        r.boundaries
    } else {
        r.points
    };
    assert_eq!(r.counters.recoveries, recoveries as u64, "{}", r.log);
    assert_eq!(r.counters.recovered_compensated, r.compensated);
    assert_eq!(r.counters.recovered_discarded, r.discarded);
    assert_eq!(r.counters.rejected_records, r.rejected_records);
    // The saga exists for its long chains: crash points late in a four-leg
    // saga leave compensation chains far past TPC-C's two-to-three steps.
    if kit.name() == "saga" {
        assert!(
            r.max_comp_depth >= 5,
            "deepest resumed chain was {} completed steps — want >= 5",
            r.max_comp_depth
        );
    }
    r
}

/// `(points, replayed, compensated, discarded, rejected)`.
fn tally(r: &TortureReport) -> (usize, u64, u64, u64, u64) {
    (
        r.points,
        r.replayed,
        r.compensated,
        r.discarded,
        r.rejected_records,
    )
}

// ---------------------------------------------------------------------------
// TPC-C at seed 42: every tally pinned.
// ---------------------------------------------------------------------------

#[test]
fn tpcc_append_sweep_holds_at_every_crash_point() {
    let (kit, cfg) = row(false, "tpcc", "append");
    let r = sweep(&*kit, cfg);
    assert!(r.points >= 200, "swept only {} crash points", r.points);
    assert!(
        r.discarded > 0,
        "no crash point caught a step-less in-flight transaction"
    );
    assert!(
        r.rejected_records > 0,
        "no corruption point rejected records"
    );
    assert_eq!(r.wal_bytes, 40_826, "baseline WAL moved");
    assert_eq!(tally(&r), (350, 2_489, 278, 54, 3_264), "{}", r.log);
}

#[test]
fn tpcc_fsync_sweep_holds_at_every_boundary() {
    let (kit, cfg) = row(false, "tpcc", "fsync");
    let r = sweep(&*kit, cfg);
    assert!(
        r.boundaries >= 10,
        "only {} fsync boundaries — the group-commit batcher never split the workload",
        r.boundaries
    );
    // Both devices swept every boundary, plus tears and injector replays.
    assert!(r.points > 2 * r.boundaries, "{}", r.log);
    assert!(r.discarded > 0, "no boundary caught a step-less txn");
    assert!(r.rejected_records > 0, "no sector tear rejected records");
    assert_eq!(r.boundaries, 81);
    assert_eq!(tally(&r), (182, 1_360, 140, 10, 2_510), "{}", r.log);
}

#[test]
fn tpcc_reanalysis_sweep_switches_at_every_boundary() {
    let (kit, cfg) = row(false, "tpcc", "reanalysis");
    let r = sweep(&*kit, cfg);
    // The harness errors out on any WAL divergence, outcome mismatch or
    // counter disagreement, so reaching here means each switch behaved.
    assert_eq!(r.switches, r.boundaries, "not every boundary was swept");
    assert!(r.boundaries >= 30, "{} boundaries", r.boundaries);
    assert_eq!(r.drained, r.switches as u64);
    assert_eq!(r.immediate_installs, 1);
    assert!(r.discarded > 0, "no crash point caught a step-less txn");
    // The live switchover from the default tables to the hand tables.
    assert!(
        r.log
            .contains("default -> own at b=34: Draining { pins: 1 }, wal identical"),
        "{}",
        r.log
    );
    assert_eq!(r.boundaries, 69);
    assert_eq!(tally(&r), (143, 1_060, 108, 15, 0), "{}", r.log);
}

#[test]
fn tpcc_ship_sweep_crashes_every_boundary_on_both_sides() {
    let (kit, cfg) = row(false, "tpcc", "ship");
    let r = sweep(&*kit, cfg);
    assert!(r.boundaries >= 4, "the batch target never split the stream");
    // Both sides crashed at every boundary, plus hostile/divergence/plan
    // points: wider than three passes over the boundaries.
    assert!(r.points > 3 * r.boundaries, "{}", r.log);
    assert!(r.discarded > 0, "no promotion caught a step-less txn");
    assert!(r.refusals > 0, "nothing was ever refused:\n{}", r.log);
    assert!(r.resumes > 0, "nothing ever resumed:\n{}", r.log);
    assert!(r.counters.ship_batches > 0);
    assert!(r.counters.ship_resumes > 0);
    assert_eq!(r.boundaries, 187);
    assert_eq!(tally(&r), (569, 1_303, 171, 15, 0), "{}", r.log);
    assert_eq!((r.refusals, r.resumes), (561, 749));
}

#[test]
fn tpcc_same_seed_yields_byte_identical_logs() {
    let kit = TpccKit::test(7);
    for source in ["append", "fsync", "reanalysis", "ship"] {
        let cfg = TortureConfig {
            seed: 7,
            ..row(true, "tpcc", source).1
        };
        let (a, b) = (sweep(&kit, cfg), sweep(&kit, cfg));
        assert_eq!(a.log, b.log, "{source}: same-seed runs diverged");
    }
}

#[test]
fn tpcc_different_seeds_torture_different_points() {
    let cfg = row(true, "tpcc", "append").1;
    let a = sweep(&TpccKit::test(1), TortureConfig { seed: 1, ..cfg });
    let b = sweep(&TpccKit::test(2), TortureConfig { seed: 2, ..cfg });
    assert_ne!(a.log, b.log, "seed does not steer the sweep");
}

// ---------------------------------------------------------------------------
// Smallbank and the saga: the same sources under their inferred tables.
// ---------------------------------------------------------------------------

/// A figure row for a bring-your-own family, shortened to `txns`
/// transactions (the full mixes take too long unoptimized).
fn family_row(
    quick: bool,
    kit: &str,
    source: &str,
    txns: usize,
) -> (Arc<dyn Workload>, TortureConfig) {
    let (kit, cfg) = row(quick, kit, source);
    (kit, TortureConfig { txns, ..cfg })
}

#[test]
fn smallbank_append_sweep_is_deterministic() {
    let (kit, cfg) = row(true, "smallbank", "append");
    let r = sweep(&*kit, cfg);
    assert_eq!(r.wal_bytes, 25_680, "baseline WAL moved");
    assert!(r.points >= 40, "only {} crash points swept", r.points);
    assert!(
        r.rejected_records > 0,
        "no corruption point rejected records"
    );
    // The outcome log is a pure function of the config.
    let again = sweep(&*kit, cfg);
    assert_eq!(r.log, again.log, "torture log not deterministic");
}

#[test]
fn saga_append_sweep_is_deterministic() {
    let (kit, cfg) = row(true, "saga", "append");
    let r = sweep(&*kit, cfg);
    assert_eq!(r.wal_bytes, 123_928, "baseline WAL moved");
    assert!(r.points >= 40, "only {} crash points swept", r.points);
    let again = sweep(&*kit, cfg);
    assert_eq!(r.log, again.log, "torture log not deterministic");
}

#[test]
fn families_survive_fsync_boundaries_and_sector_tears() {
    for (kit, txns) in [("smallbank", 120), ("saga", 50)] {
        let (kit, cfg) = family_row(true, kit, "fsync", txns);
        let r = sweep(&*kit, cfg);
        assert!(
            r.boundaries >= 10,
            "{}: {} boundaries",
            kit.name(),
            r.boundaries
        );
        assert!(
            r.rejected_records > 0,
            "{}: no sector tear rejected records",
            kit.name()
        );
    }
}

#[test]
fn families_survive_reanalysis_at_every_step_boundary() {
    for (kit, txns) in [("smallbank", 120), ("saga", 24)] {
        let (kit, cfg) = family_row(false, kit, "reanalysis", txns);
        let r = sweep(&*kit, cfg);
        assert!(
            r.boundaries >= 10,
            "{}: {} boundaries",
            kit.name(),
            r.boundaries
        );
        assert_eq!(
            r.switches,
            r.boundaries,
            "{}: boundaries skipped",
            kit.name()
        );
        assert_eq!(r.drained, r.switches as u64);
        assert_eq!(r.immediate_installs, 1);
    }
}

#[test]
fn families_survive_ship_boundaries_on_both_sides() {
    for kit in ["smallbank", "saga"] {
        let (kit, cfg) = row(true, kit, "ship");
        let r = sweep(&*kit, cfg);
        assert!(
            r.boundaries >= 4,
            "{}: {} boundaries",
            kit.name(),
            r.boundaries
        );
        assert!(r.refusals > 0, "{}: nothing refused", kit.name());
        assert!(r.resumes > 0, "{}: nothing resumed", kit.name());
    }
}
