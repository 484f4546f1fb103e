//! `ppbench`: the repository's benchmark.
//!
//! Four named workloads composed from outside through the public APIs of
//! `workloads`, `netsim`, `transport`, `prioplus`, `simcore` and
//! `experiments`; five end-to-end metrics per workload, measured with one
//! fresh process per rep and reported as medians; a traced run that
//! attributes each rep to layer spans, exact counts and layer kernels.
//! README.md in this directory is the manual.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calibrate;
pub mod compare;
pub mod json;
pub mod kernels;
pub mod metrics;
pub mod procstat;
pub mod rep;
pub mod runner;
pub mod scenarios;
pub mod span;
pub mod stats;
