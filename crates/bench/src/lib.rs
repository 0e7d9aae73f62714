//! Benchmark harness for the reproduction: shared workload builders plus
//! one experiment module per figure / in-text claim of the paper.
//!
//! The `experiments` binary (`cargo run -p accelviz-bench --release --bin
//! experiments -- all`) prints the paper-vs-measured rows recorded in
//! `EXPERIMENTS.md`; the `pipeline` binary (`src/bin/pipeline/`) is the only
//! source of a performance number.

#![forbid(unsafe_code)]

pub mod experiments;
pub mod workloads;
