//! Shared harness for the paper-reproduction experiments.
//!
//! Each `bin/exp_*.rs` binary regenerates one figure or quantified claim of
//! the paper (see `DESIGN.md` §4 for the index and `EXPERIMENTS.md` for the
//! recorded results). This library holds what they share: plain-text table
//! rendering, group builders over the simulator, and randomized fault
//! schedules.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifacts;
pub mod faults;
pub mod observe;
pub mod report;
pub mod scenarios;

pub use artifacts::{
    artifact_path, artifacts_dir, record_requested, save_run_artifacts, sim_config,
};
pub use observe::{init_observability, observe_run};
pub use report::{
    assert_monitor_clean, metrics_json, print_metrics, print_metrics_snapshot, write_bench_json,
    Table,
};
