//! The simulation event vocabulary, split from the event loop
//! ([`crate::sim`]) so that modules which only *name* events — transports
//! via [`crate::transport_api`], a future PDES partition layer — depend on
//! this leaf module instead of the whole simulator. The `layering` lint
//! (simlint R9) keeps it that way: `event` must never grow an import back
//! into `sim`.

use crate::packet::{FlowId, NodeId, PacketId};

/// Simulation events.
///
/// `Copy` is deliberate: every variant is a few machine words of plain ids
/// (see the `event_stays_slim` size pin in `crate::sim`'s tests), which is
/// what lets [`crate::sim::Sim::snapshot`] clone the whole scheduler queue
/// without touching packet or flow state.
#[derive(Clone, Copy, Debug)]
pub enum Event {
    /// A packet arrives at `node` through ingress `in_port` (propagation
    /// finished).
    Arrive {
        /// Receiving node.
        node: NodeId,
        /// Ingress port index at the receiving node.
        in_port: u16,
        /// Handle of the packet in the simulator's
        /// [`crate::packet::PacketArena`]. Carrying the 4-byte id (instead
        /// of the packet) keeps `Event` at a few machine words, so
        /// scheduler sift/percolate stays cheap — see the
        /// `event_stays_slim` size pin in `crate::sim`'s tests.
        pkt: PacketId,
    },
    /// `node`'s egress `port` finished serializing its current packet.
    PortFree {
        /// Node owning the port.
        node: NodeId,
        /// Port index.
        port: u16,
    },
    /// A flow begins.
    FlowStart {
        /// The flow.
        flow: FlowId,
    },
    /// A transport timer fires.
    FlowTimer {
        /// The flow whose transport scheduled the timer.
        flow: FlowId,
        /// Opaque token chosen by the transport.
        token: u64,
    },
    /// Wake a host NIC to re-poll its transports (pacing).
    HostPoke {
        /// The host.
        node: NodeId,
    },
    /// Periodic monitor sample.
    Sample {
        /// Monitor index.
        monitor: u32,
    },
    /// Apply fault-schedule transition `idx`
    /// ([`crate::faults::FaultSchedule`]). Scheduled up-front at run start
    /// — through the same queue as every other event — so fault runs
    /// stay bit-identical across repeats. Never scheduled when
    /// [`crate::config::SimConfig::faults`] is `None`.
    Fault {
        /// Index into the installed schedule's event list.
        idx: u32,
    },
    /// Call the installed [`crate::sim::ArrivalSource`] to register the
    /// next chunk of open-loop flows. At most one is pending at a time;
    /// never scheduled when no source is installed.
    Inject,
    /// End of simulation.
    End,
}

impl Event {
    /// The event's kind as a short name plus its primary id (node, flow,
    /// monitor or fault index; 0 where there is none) — what the audit's
    /// ring log records per dispatched event.
    pub fn name_and_id(&self) -> (&'static str, u32) {
        match *self {
            Event::Arrive { node, .. } => ("arrive", node),
            Event::PortFree { node, .. } => ("port_free", node),
            Event::FlowStart { flow } => ("flow_start", flow),
            Event::FlowTimer { flow, .. } => ("flow_timer", flow),
            Event::HostPoke { node } => ("host_poke", node),
            Event::Sample { monitor } => ("sample", monitor),
            Event::Fault { idx } => ("fault", idx),
            Event::Inject => ("inject", 0),
            Event::End => ("end", 0),
        }
    }

    /// Fold this event into a state digest as a fixed sequence of `u64`
    /// words: a variant discriminant followed by every payload field. Used
    /// by [`crate::sim::Sim::state_digest`] to fingerprint pending queue
    /// entries; the match is exhaustive on purpose (simlint R8) so a new
    /// variant cannot silently escape the snapshot-completeness fleet.
    pub fn fold_digest(&self, mut fold: impl FnMut(u64)) {
        match *self {
            Event::Arrive { node, in_port, pkt } => {
                fold(1);
                fold(node as u64);
                fold(in_port as u64);
                fold(pkt.index() as u64);
            }
            Event::PortFree { node, port } => {
                fold(2);
                fold(node as u64);
                fold(port as u64);
            }
            Event::FlowStart { flow } => {
                fold(3);
                fold(flow as u64);
            }
            Event::FlowTimer { flow, token } => {
                fold(4);
                fold(flow as u64);
                fold(token);
            }
            Event::HostPoke { node } => {
                fold(5);
                fold(node as u64);
            }
            Event::Sample { monitor } => {
                fold(6);
                fold(monitor as u64);
            }
            Event::Fault { idx } => {
                fold(8);
                fold(idx as u64);
            }
            Event::Inject => fold(9),
            Event::End => fold(10),
        }
    }
}
