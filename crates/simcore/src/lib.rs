//! Foundation types for deterministic discrete-event network simulation.
//!
//! This crate provides the substrate that every other crate in the PrioPlus
//! reproduction builds on:
//!
//! - [`time`]: picosecond-resolution simulated [`time::Time`] and durations;
//! - [`rate`]: link rates ([`rate::Rate`]) and serialization-delay arithmetic;
//! - [`event`]: a deterministic event queue with stable tie-breaking;
//! - [`sched`]: pluggable scheduler backends for the event queue (binary
//!   heap, calendar queue) with identical pop order;
//! - [`rng`]: a small, seedable, splittable deterministic RNG;
//! - [`stats`]: summary statistics (mean, percentiles, CDFs, time series).
//!
//! Everything here is deliberately free of I/O and free of global state so
//! that a simulation run is a pure function of its configuration and seed.

#![forbid(unsafe_code)]

#![warn(missing_docs)]

pub mod event;
pub mod rate;
pub mod ringlog;
pub mod rng;
pub mod sched;
pub mod stats;
pub mod time;

pub use event::{EventQueue, ScheduledId};
pub use sched::{Entry, SchedKind, SchedWork, Scheduler};
pub use rate::Rate;
pub use ringlog::RingLog;
pub use rng::SimRng;
pub use stats::QuantileSketch;
pub use time::{Time, TimeDelta};
