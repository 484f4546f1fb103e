//! Workload generators for the PrioPlus evaluation scenarios.
//!
//! - [`websearch`]: the DCTCP WebSearch flow-size distribution with Poisson
//!   open-loop arrivals at a target load (flow-scheduling scenario, §6.2);
//! - [`coflow`]: a synthetic coflow generator statistically matched to the
//!   published characterization of the Facebook Hadoop trace, plus the
//!   20-into-1 file-request incast pattern (coflow scenario, §6.2);
//! - [`allreduce`]: ring all-reduce training-job schedules for the ML
//!   cluster scenario (ResNet/VGG data-parallel jobs, §6.2);
//! - [`openloop`]: lazy O(1)-state open-loop arrival streams (Poisson +
//!   periodic incast) for the hyperscale scenarios, consumed chunk-by-chunk
//!   through `netsim`'s `ArrivalSource` instead of materialized up front;
//! - [`priomap`]: size-class → priority assignment helpers (smaller flows
//!   get higher priorities, approximating pFabric-style scheduling).
//!
//! Everything is deterministic given a seed; generators emit plain structs
//! the experiment harness turns into `netsim` flows.

#![forbid(unsafe_code)]
// R11 (DESIGN.md § Static analysis): a new variant of any enum must force
// every match on it to name the variant. The first lint skips a wildcard
// that stands for a single variant; the second catches it. A guarded
// `_ if ..` arm is fine.
#![deny(clippy::wildcard_enum_match_arm)]
#![deny(clippy::match_wildcard_for_single_variants)]

#![warn(missing_docs)]

pub mod allreduce;
pub mod coflow;
pub mod openloop;
pub mod priomap;
pub mod websearch;

pub use allreduce::RingJob;
pub use coflow::{Coflow, CoflowGen};
pub use openloop::{IncastMix, OpenLoopGen};
pub use priomap::SizeClassifier;
pub use websearch::{FlowArrival, PoissonArrivals, SizeDist, WEBSEARCH_CDF};
