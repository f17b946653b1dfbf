//! Benchmark harness regenerating every figure of the paper's evaluation
//! (§8, Figures 10–14).
//!
//! One binary per experiment (`exp1` … `exp5`), each printing the exact
//! series the corresponding figure plots and writing machine-readable JSON
//! under `experiments/`. Default scales are reduced from the paper's (100K+
//! tuples) so the whole suite runs in minutes; pass `--full` for
//! paper-scale runs. Criterion micro-benches (in `benches/`) cover the
//! component-level ablations (blocking, entropy maintenance, phase
//! throughput, similarity kernels).
//!
//! End-to-end performance and repair quality are measured by the
//! separate `perfbench` workspace (see `perfbench/README.md`), not here.

pub mod args;
pub mod figure;
pub mod runner;

pub use args::Args;
pub use figure::{Figure, Series};
pub use runner::{
    dataset_workload, deterministic_share, experiment_config, matching_f1_sortn, matching_f1_uni,
    repair_f1, repair_pr, repair_pr_with, run_uni, run_uni_observed, scaled_params, session,
    DatasetKind,
};
