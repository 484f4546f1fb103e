//! Foundation types for deterministic discrete-event network simulation.
//!
//! This crate provides the substrate that every other crate in the PrioPlus
//! reproduction builds on:
//!
//! - [`time`]: picosecond-resolution simulated [`time::Time`] and durations;
//! - [`rate`]: link rates ([`rate::Rate`]) and serialization-delay arithmetic;
//! - [`event`]: a deterministic event queue with stable tie-breaking — FIFO
//!   lanes for the constant link delays over a binary heap for the rest;
//! - [`sched`]: the heap's element and its traffic counters;
//! - [`rng`]: a small, seedable, splittable deterministic RNG;
//! - [`stats`]: summary statistics (mean, percentiles, CDFs, time series).
//!
//! Everything here is deliberately free of I/O and free of global state so
//! that a simulation run is a pure function of its configuration and seed.

#![forbid(unsafe_code)]
// R11 (DESIGN.md § Static analysis): a new variant of any enum must force
// every match on it to name the variant. The first lint skips a wildcard
// that stands for a single variant; the second catches it. A guarded
// `_ if ..` arm is fine.
#![deny(clippy::wildcard_enum_match_arm)]
#![deny(clippy::match_wildcard_for_single_variants)]

#![warn(missing_docs)]

pub mod event;
pub mod rate;
pub mod ringlog;
pub mod rng;
pub mod sched;
pub mod stats;
pub mod time;

pub use event::{EventQueue, ScheduledId};
pub use sched::{Entry, SchedWork};
#[doc(hidden)]
pub use sched::SchedKind;
pub use rate::Rate;
pub use ringlog::RingLog;
pub use rng::SimRng;
pub use stats::QuantileSketch;
pub use time::{Time, TimeDelta};
