//! The repository benchmark: three workloads over the discovery stack,
//! each printing its end-to-end metrics, or with `--trace 1` a per-layer
//! ledger timed from outside the program. See `README.md` in this
//! directory for the workloads, the metrics and reference figures.

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
#![warn(clippy::all)]

pub mod checks;
pub mod inputs;
pub mod ledger;
pub mod served;
pub mod stats;
pub mod trace;
pub mod workloads;
