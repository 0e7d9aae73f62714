//! Benchmark harness for the reproduction: shared workload builders plus
//! one experiment module per figure / in-text claim of the paper.
//!
//! The `experiments` binary (`cargo run -p accelviz-bench --release --bin
//! experiments -- all`) prints the paper-vs-measured rows recorded in
//! `EXPERIMENTS.md`; the Criterion benches in `benches/` time the same
//! workloads.

#![forbid(unsafe_code)]

pub mod experiments;
pub mod workloads;
