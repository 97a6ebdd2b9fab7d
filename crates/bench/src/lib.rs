//! # rescq-bench
//!
//! Shared helpers for the benchmark harness that regenerates every table and
//! figure of the RESCQ paper. The actual experiments live in `benches/` (see
//! `DESIGN.md` §3 for the experiment index); this library provides the common
//! formatting and sizing utilities they share.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod harness;

pub use harness::{bench_scale, print_header, print_row, BenchScale};
