//! `tilt-ladder` — the repository's benchmark.
//!
//! Six workloads drive the public APIs of the TiLT crates from the one-shot
//! compiled query up through the keyed service to the TCP front door, so the
//! cost of each rung is a number. See `benchmark/README.md`.

#![warn(missing_docs)]

pub mod harness;
pub mod latency;
pub mod pace;
pub mod probes;
pub mod report;
pub mod service;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod wire;
pub mod workloads;
pub mod ysb_input;
