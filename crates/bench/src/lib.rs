//! # vpir-bench — the experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation
//! (Tables 2–6, Figures 3–10) from simulator runs over the seven
//! benchmark stand-ins. The [`matrix`] module runs the full
//! configuration × benchmark matrix once; the [`report`] module derives
//! each table/figure from it.
//!
//! The `experiments` binary is the command-line front end:
//!
//! ```text
//! experiments all            # everything, experiment scale
//! experiments table3         # one table
//! experiments fig6 --quick   # one figure at test scale
//! experiments ablations      # beyond-the-paper design sweeps
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod golden;
pub mod matrix;
pub mod perf;
pub mod report;
pub mod state;

pub use matrix::{
    config_for_label, config_labels, parse_vp_label, BenchRuns, FaultMode, InjectFault,
    JobFailure, Matrix, MatrixConfig, MatrixOutcome, RunOptions, VpKey,
};
pub use perf::{run_matrix_timed_opts, MatrixPerf};
