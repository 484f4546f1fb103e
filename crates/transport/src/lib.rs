//! Congestion-control transports for the PrioPlus reproduction.
//!
//! There are two [`netsim::Transport`] implementations, both on the shared
//! sender base ([`sender::SenderBase`]: sequencing, windows, pacing,
//! selective retransmission, and the RTO timer's lifecycle):
//!
//! * [`CcTransport`]`<P>`, the shell every baseline runs in. It adds only a
//!   [`plain::WindowPolicy`] — what to do with an ACK, the current window,
//!   whether a timeout collapses it — so baselines differ in the algorithm
//!   and nothing else. Every [`prioplus::DelayCc`] is a `WindowPolicy`.
//! * [`PrioPlusTransport`]`<C>`, which wraps a [`prioplus::DelayCc`] with
//!   the PrioPlus state machine (probes, suspension, probe-RTO) — the Rust
//!   analogue of the paper's 79-line DPDK integration.
//!
//! A new CC plugs into either shell by implementing that one trait: neither
//! asks it to be `Clone`, `Send` or `Sync`, because the simulator owns each
//! flow's transport and never copies it, and neither traces anything: the
//! simulator records each ACK's delay and the window after it.
//!
//! Provided algorithms (built per flow by [`CcSpec::make`]):
//!
//! | Policy | On RTO | Paper role |
//! |---|---|---|
//! | [`SwiftCc`] | keeps window | state-of-the-art delay CC, main baseline |
//! | [`SwiftCc`] in [`PrioPlusTransport`] | keeps window | **PrioPlus+Swift**, the paper's system |
//! | [`LedbatCc`] | keeps window | second delay CC PrioPlus integrates with (§6.2) |
//! | [`dctcp::DctcpCc`] (with deadline: D2TCP) | collapses to floor | ECN motivation baseline (§3.1) |
//! | [`hpcc::HpccCc`] | collapses to floor | INT-based CC comparison (Fig 16, 18) |
//! | [`nocc::NoCc`] | keeps (constant) window | "Physical* w/o CC" blind line-rate sender |

#![forbid(unsafe_code)]
// R11 (DESIGN.md § Static analysis): a new variant of any enum must force
// every match on it to name the variant. The first lint skips a wildcard
// that stands for a single variant; the second catches it. A guarded
// `_ if ..` arm is fine.
#![deny(clippy::wildcard_enum_match_arm)]
#![deny(clippy::match_wildcard_for_single_variants)]
#![warn(missing_docs)]

pub mod dctcp;
pub mod factory;
pub mod hpcc;
pub mod ledbat;
pub mod nocc;
pub mod plain;
pub mod pp_transport;
pub mod sender;
pub mod swift;

pub use dctcp::D2tcpConfig;
pub use factory::{CcSpec, PrioPlusPolicy};
pub use hpcc::HpccConfig;
pub use ledbat::{LedbatCc, LedbatConfig};
pub use plain::CcTransport;
pub use pp_transport::PrioPlusTransport;
pub use swift::{SwiftCc, SwiftConfig};

/// The one flow and ACK fixture of this crate's unit tests.
#[cfg(test)]
pub(crate) mod fixtures {
    use netsim::{AckEvent, AckKind, FlowParams};
    use simcore::{Rate, Time};

    /// A `size`-byte flow on a 100 Gbps, 12 µs path with a 1000 B MTU.
    pub fn params(size: u64) -> FlowParams {
        FlowParams {
            flow: 0,
            size,
            line_rate: Rate::from_gbps(100),
            base_rtt: Time::from_us(12),
            base_rtt_probe: Time::from_us(11),
            mtu: 1000,
            virt_prio: 0,
            seed: 1,
        }
    }

    /// A plain data ACK of `bytes` at `seq`; tests override fields with
    /// struct-update syntax.
    pub fn ack(seq: u64, bytes: u32, delay_us: u64) -> AckEvent {
        AckEvent {
            kind: AckKind::Data,
            delay: Time::from_us(delay_us),
            cum_bytes: seq + bytes as u64,
            acked_seq: seq,
            acked_bytes: bytes,
            ecn_echo: false,
            nack: None,
            int: None,
        }
    }
}
