//! Experiment harness for the SLICC reproduction.
//!
//! Each [`Experiment`] regenerates one table or figure of the paper's
//! evaluation (§5) and returns it as a markdown section. Experiments
//! describe their simulation points as [`slicc_sim::RunRequest`]s and run
//! them on a shared [`slicc_sim::Runner`], which fans independent points
//! across host cores and memoizes repeated ones (every figure's
//! baselines). The `figures` binary drives them from the command line:
//!
//! ```text
//! cargo run --release -p slicc-bench --bin figures -- all
//! cargo run --release -p slicc-bench --bin figures -- fig10 fig11 --scale small
//! cargo run --release -p slicc-bench --bin figures -- fig11 --jobs 4
//! ```
//!
//! `--jobs N` sets the worker-thread count (default: all host cores);
//! results are identical for every N. Simulator speed is measured by
//! the separate `perfbench` package (see `perfbench/README.md`).
//!
//! See `DESIGN.md` for the experiment index and `EXPERIMENTS.md` for the
//! recorded paper-vs-measured comparison.

#![forbid(unsafe_code)]

pub mod experiments;
pub mod format;

pub use experiments::{Experiment, ExperimentScale};
pub use format::Table;
