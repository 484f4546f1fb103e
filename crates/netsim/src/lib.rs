//! A deterministic discrete-event data center network simulator.
//!
//! `netsim` plays the role ns-3 plays in the PrioPlus paper: it models hosts,
//! store-and-forward output-queued switches with shared buffers, priority
//! queues with strict-priority scheduling, ECN marking, PFC (priority flow
//! control) with headroom accounting, ECMP routing over standard data center
//! topologies, and per-packet delay measurement with configurable noise.
//!
//! The simulator is transport-agnostic: congestion control algorithms
//! implement the [`transport_api::Transport`] trait (window/rate management,
//! probing, retransmission policy) and are instantiated per flow by a
//! factory. The `transport` crate provides Swift, LEDBAT, DCTCP/D2TCP, HPCC
//! and the PrioPlus-enhanced variants.
//!
//! # Model summary
//!
//! - **Time**: picoseconds ([`simcore::Time`]); fully deterministic event
//!   ordering (seeded RNG + stable event tie-breaking).
//! - **Links**: full-duplex, fixed rate + propagation delay; serialization is
//!   exact (store-and-forward at every hop).
//! - **Switches**: shared-buffer output-queued; per-port priority queues;
//!   strict priority dequeue; RED-style ECN marking; Dynamic-Threshold
//!   admission (Choudhury–Hahne); PFC pause/resume per (ingress port,
//!   priority) with per-priority headroom reservation; optional lossy mode
//!   with drops.
//! - **Hosts**: pull-model NIC honoring PFC and strict priority across its
//!   flows; per-packet ACKs (64 B) on a dedicated highest control priority by
//!   default (configurable to share the data priority, "PrioPlus*" mode);
//!   probe echo; additive delay-measurement noise.

#![forbid(unsafe_code)]
// R11 (DESIGN.md § Static analysis): a new variant of any enum must force
// every match on it to name the variant. The first lint skips a wildcard
// that stands for a single variant; the second catches it. A guarded
// `_ if ..` arm is fine.
#![deny(clippy::wildcard_enum_match_arm)]
#![deny(clippy::match_wildcard_for_single_variants)]

#![warn(missing_docs)]

pub mod audit;
pub mod config;
pub mod counters;
pub mod event;
mod fabric;
pub mod faults;
mod host;
pub mod monitor;
pub mod node;
pub mod noise;
mod observe;
pub mod packet;
pub mod record;
pub mod routing;
pub mod sim;
mod state;
pub mod topology;
pub mod transport_api;

pub use audit::{AuditConfig, AuditReport, Violation, ViolationKind};
pub use config::{AckPriority, Buggify, SimConfig, SwitchConfig};
pub use event::Event;
pub use faults::{FaultEvent, FaultKind, FaultSchedule};
pub use noise::NoiseModel;
pub use packet::{ArenaStats, FlowId, NodeId, Packet, PacketArena, PacketId, PktHeader, PktTag};
pub use record::{FlowRecord, SimCounters, SimResult, StreamingStats};
#[doc(hidden)]
pub use simcore::SchedKind;
pub use sim::{ArrivalSource, FlowSpec, Sim};
pub use state::StateTamper;
pub use topology::{ThreeTierWanSpec, Topology};
pub use transport_api::{AckEvent, AckKind, FlowParams, Transport, TransportCtx, TrySend};
