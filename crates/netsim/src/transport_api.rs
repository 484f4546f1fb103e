//! The interface between the simulator and congestion-control transports.
//!
//! A transport owns the sender-side state of one flow: congestion window or
//! rate, sequence tracking, probing, and retransmission bookkeeping. The host
//! NIC *pulls* packets from transports (highest priority first), so a
//! transport never needs to know whether the wire is busy; it only answers
//! "may I send now, and what?".

use simcore::event::ScheduledId;
use simcore::{EventQueue, Time};

use crate::event::Event;
use crate::packet::{FlowId, IntPath};

/// Static per-flow parameters handed to the transport at creation.
#[derive(Clone, Debug)]
pub struct FlowParams {
    /// Flow identifier.
    pub flow: FlowId,
    /// Total bytes to transfer.
    pub size: u64,
    /// Line rate of the sender's NIC (= bottleneck rate in the paper's
    /// single-tier contention scenarios).
    pub line_rate: simcore::Rate,
    /// Base RTT for a full data packet + its ACK on an idle path.
    pub base_rtt: Time,
    /// Base RTT for a probe + its echo on an idle path (probes are 64 B so
    /// their no-queue RTT is smaller; the host normalizes probe measurements
    /// to the data base RTT using the difference).
    pub base_rtt_probe: Time,
    /// Maximum payload bytes per packet.
    pub mtu: u32,
    /// Virtual priority of the flow (0 = lowest).
    pub virt_prio: u8,
    /// Deterministic seed for any randomness the transport needs.
    pub seed: u64,
}

impl FlowParams {
    /// Bandwidth-delay product at base RTT, in bytes.
    pub fn base_bdp(&self) -> f64 {
        self.line_rate.bdp_bytes(self.base_rtt) as f64
    }
}

/// Kind of acknowledgment delivered to [`Transport::on_ack`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AckKind {
    /// ACK of a data segment.
    Data,
    /// Echo of a probe packet.
    Probe,
}

/// An acknowledgment event, pre-digested by the host.
#[derive(Debug)]
pub struct AckEvent {
    /// Data or probe echo.
    pub kind: AckKind,
    /// Measured delay, normalized to the data-packet base RTT and with
    /// measurement noise already applied: `base_rtt + queuing + noise`.
    pub delay: Time,
    /// Cumulative bytes received in order at the receiver.
    pub cum_bytes: u64,
    /// Sequence of the acknowledged packet (first payload byte).
    pub acked_seq: u64,
    /// Payload bytes newly acknowledged by this packet.
    pub acked_bytes: u32,
    /// ECN congestion-experienced echo.
    pub ecn_echo: bool,
    /// Missing byte range reported by the receiver (lossy mode).
    pub nack: Option<(u64, u64)>,
    /// INT telemetry echoed by the receiver (HPCC).
    ///
    /// Transports see a borrowed view only (`on_ack` takes `&AckEvent`):
    /// after the callback returns, the host hands the box back to the
    /// packet arena's recycle pool, so steady-state INT traffic reuses a
    /// bounded set of boxes instead of allocating per ACK. Don't stash the
    /// box or assume its contents outlive the callback.
    pub int: Option<Box<IntPath>>,
}

/// What a transport wants to put on the wire right now.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TrySend {
    /// Send a data segment starting at `seq` with `bytes` payload.
    Data {
        /// First payload byte offset.
        seq: u64,
        /// Payload size.
        bytes: u32,
    },
    /// Send a 64-byte probe.
    Probe,
    /// Nothing now; retry at the given time (pacing / probe schedule).
    NotBefore(Time),
    /// Nothing until an ACK or timer arrives (window-limited or suspended).
    Blocked,
    /// All bytes acknowledged; flow can be retired.
    Finished,
}

/// Context passed into every transport callback: the clock and the flow's
/// timers, without exposing the whole simulator.
pub struct TransportCtx<'a> {
    /// Current simulated time.
    pub now: Time,
    /// The flow this callback concerns.
    pub flow: FlowId,
    pub(crate) queue: &'a mut EventQueue<Event>,
}

impl<'a> TransportCtx<'a> {
    pub(crate) fn new(queue: &'a mut EventQueue<Event>, now: Time, flow: FlowId) -> Self {
        TransportCtx { now, flow, queue }
    }

    /// Construct a bare context for driving a transport outside the
    /// simulator. Intended for transport unit tests.
    #[doc(hidden)]
    pub fn for_test(queue: &'a mut EventQueue<Event>, now: Time, flow: FlowId) -> Self {
        Self::new(queue, now, flow)
    }

    /// Schedule a timer that will fire [`Transport::on_timer`] with `token`
    /// at absolute time `at`.
    pub fn schedule_timer(&mut self, at: Time, token: u64) -> ScheduledId {
        let flow = self.flow;
        self.queue
            .schedule_cancellable(at, Event::FlowTimer { flow, token })
    }

    /// Cancel a previously scheduled timer.
    pub fn cancel_timer(&mut self, id: ScheduledId) {
        self.queue.cancel(id);
    }
}

/// Sender-side congestion control for one flow.
///
/// Implementations must be deterministic: any randomness must come from the
/// seed in [`FlowParams`]. Nothing else is asked of the type: the simulator
/// owns each flow's transport as a `Box<dyn Transport>` and never copies it
/// or moves it to another thread.
pub trait Transport {
    /// Called once when the flow starts (before the first `try_send`).
    fn on_start(&mut self, ctx: &mut TransportCtx<'_>);

    /// An ACK or probe echo arrived.
    fn on_ack(&mut self, ack: &AckEvent, ctx: &mut TransportCtx<'_>);

    /// A timer scheduled through [`TransportCtx::schedule_timer`] fired.
    fn on_timer(&mut self, token: u64, ctx: &mut TransportCtx<'_>);

    /// The host NIC asks for the next packet. Must not mutate pacing state in
    /// a way that assumes the packet is actually sent; the host confirms with
    /// [`Transport::on_sent`].
    fn try_send(&mut self, now: Time) -> TrySend;

    /// The packet returned by the last `try_send` was put on the wire.
    fn on_sent(&mut self, sent: TrySend, ctx: &mut TransportCtx<'_>);

    /// True when every payload byte has been acknowledged.
    fn is_finished(&self) -> bool;

    /// Current congestion window in bytes (diagnostics; the simulator's
    /// state digest folds it for every live flow).
    fn cwnd_bytes(&self) -> f64;

    /// Number of data packets this transport retransmitted (lossy mode).
    fn retransmits(&self) -> u64 {
        0
    }

    /// Audit hook: verify the transport's internal invariants (congestion
    /// window clamps, sequence-state sanity). Called by the simulator's
    /// invariant-audit layer after every event that touched this flow.
    /// Returns a description of the first violated invariant.
    fn check_invariants(&self) -> Result<(), String> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flow_params_bdp() {
        let p = FlowParams {
            flow: 0,
            size: 1_000_000,
            line_rate: simcore::Rate::from_gbps(100),
            base_rtt: Time::from_us(12),
            base_rtt_probe: Time::from_us(11),
            mtu: 1000,
            virt_prio: 0,
            seed: 0,
        };
        assert_eq!(p.base_bdp(), 150_000.0);
    }
}
