//! # PrioPlus — virtual priority for data center congestion control
//!
//! This crate implements the core contribution of *"Enabling Virtual
//! Priority in Data Center Congestion Control"* (EuroSys '25): **PrioPlus**,
//! a congestion-control *enhancement* that emulates an arbitrary number of
//! strict priorities inside a single physical switch queue.
//!
//! ## How it works
//!
//! Every virtual priority `i` is assigned a *delay channel*
//! `[D_target^i, D_limit^i]`, with larger thresholds for higher priorities
//! (see [`channel::ChannelConfig`]). A flow of priority `i`:
//!
//! - steers the path delay toward `D_target^i` using its underlying
//!   delay-based congestion controller (any implementation of
//!   [`cc::DelayCc`], e.g. Swift or LEDBAT);
//! - **suspends transmission** when the measured delay exceeds `D_limit^i`
//!   in two consecutive samples — higher-priority flows are present — and
//!   switches to *probing with collision avoidance* (§4.2.1);
//! - **linear-starts** when the delay equals the base RTT, accelerating by
//!   `W_LS` per RTT, the provably backlog-minimal ramp ([`linear_start`],
//!   Theorem 4.1);
//! - raises the delay into its channel with the **dual-RTT adaptive
//!   increase** when only lower-priority traffic is present (§4.2.3);
//! - bounds delay fluctuation under many flows with **delay-based flow
//!   cardinality estimation** (§4.3.1).
//!
//! The algorithm itself ([`algorithm::PrioPlus`]) is a pure, deterministic
//! state machine: delays in, actions out. It is independent of any
//! simulator or network stack — the `transport` crate binds it to the
//! `netsim` simulator exactly the way the paper's 79-line DPDK patch binds
//! it to a Swift implementation.
//!
//! ## Quick example
//!
//! ```
//! use prioplus::channel::ChannelConfig;
//! use simcore::Time;
//!
//! // Channels per the paper (§4.3.2): A = 3.2us CC fluctuation allowance,
//! // B = 0.8us tolerable delay noise, base RTT 12us.
//! let chan = ChannelConfig::new(Time::from_us(12), Time::from_us_f64(3.2),
//!                               Time::from_us_f64(0.8));
//! // Priority 7 (8 priorities, highest): D_target = 12 + 8*4 = 44us.
//! assert_eq!(chan.d_target(7), Time::from_us(44));
//! assert_eq!(chan.d_limit(7), Time::from_us_f64(46.4));
//! ```

#![forbid(unsafe_code)]
// R11 (DESIGN.md § Static analysis): a new variant of any enum must force
// every match on it to name the variant. The first lint skips a wildcard
// that stands for a single variant; the second catches it. A guarded
// `_ if ..` arm is fine.
#![deny(clippy::wildcard_enum_match_arm)]
#![deny(clippy::match_wildcard_for_single_variants)]
#![warn(missing_docs)]

pub mod algorithm;
pub mod cc;
pub mod channel;
pub mod linear_start;
pub mod weighted;

pub use algorithm::{Action, PrioPlus, PrioPlusConfig};
pub use cc::DelayCc;
pub use channel::ChannelConfig;
pub use weighted::WeightedCc;
