//! Behaviour-preservation checks for the benchmark's own machinery.

use crate::round::{self, Plan};
use crate::workload::{Schedule, Spec, Workload};
use acc_tpcc::Scale;

/// Small sizes: the checks are about forwarding and determinism, not speed.
fn small(workload: Workload, seed: u64) -> Spec {
    Spec {
        scale: Scale::benchmark(),
        accounts: 500,
        workers: 1,
        ..Spec::standard(workload, seed)
    }
}

#[test]
fn schedule_is_a_pure_function_of_the_seed() {
    for w in Workload::ALL {
        let a = Schedule::derive(&small(w, 11), 400);
        let b = Schedule::derive(&small(w, 11), 400);
        assert_eq!(a, b, "{}: schedule differs between derivations", w.name());
        let c = Schedule::derive(&small(w, 12), 400);
        assert_ne!(
            a.seeds,
            c.seeds,
            "{}: seed does not reach the schedule",
            w.name()
        );
        let writes = a.writes.iter().filter(|&&x| x).count();
        assert!(
            writes > 0 && writes < a.writes.len(),
            "{}: {writes} writers of {}",
            w.name(),
            a.writes.len()
        );
    }
}

#[test]
fn tracing_leaves_the_wal_byte_identical() {
    let plan = Plan {
        warmup: 20,
        measured: 150,
        outstanding: 1,
    };
    for w in Workload::ALL {
        let spec = small(w, 7);
        let plain = round::run(&spec, &plan, false).expect("plain round completes");
        let traced = round::run(&spec, &plan, true).expect("traced round completes");
        assert!(plain.violations.is_empty(), "{:?}", plain.violations);
        assert!(traced.violations.is_empty(), "{:?}", traced.violations);
        assert!(!plain.wal.is_empty());
        assert!(
            plain.wal == traced.wal,
            "{}: traced run changed the log ({} vs {} bytes)",
            w.name(),
            plain.wal.len(),
            traced.wal.len()
        );
        assert!(traced.layers["trace.covered_frac"] >= 0.95);
    }
}
