//! The figure-regeneration harness.
//!
//! Each public function reproduces one figure or table of the paper's
//! evaluation (§5.3) on the deterministic simulator, printing the same
//! series the paper plots: the ratio of the unmodified (strict-2PL) system's
//! mean response time to the ACC's, as a function of the number of
//! terminals. See `EXPERIMENTS.md` for calibration and paper-vs-measured
//! numbers.

pub mod figures;
pub mod microbench;
pub mod mtbench;
pub mod netbench;
pub mod pagebench;
pub mod torture;
pub mod walbench;

pub use figures::{
    ablation_table, dump_tables, fig2, fig3, fig4, olcount_table, servers_table, sweep,
    twolevel_table, FigureParams, SweepPoint,
};
