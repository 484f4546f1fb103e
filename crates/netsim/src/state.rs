//! The simulator's data, in one copy: [`Env`] is what a run is given and
//! never writes again; [`State`] is everything an event can change. A
//! [`crate::Sim`] is an `Env` plus a `State`, and the observers that watch
//! it ([`crate::observe`]) sit beside them.
//!
//! [`State::fold_digest`] folds the whole state into the fingerprint
//! behind [`crate::Sim::state_digest`] (which then folds the observers'
//! share: the flow traces, the completions awaiting an `App` and the FCT
//! sketches). The digest's completeness fleet ([`StateTamper`],
//! [`crate::Sim::snap_mutate`]) sits with it. The flow types sit here too,
//! each with its own digest next to its fields. The event loop and the
//! handlers are `impl State` blocks above: `sim.rs`, `fabric.rs`, `host.rs`.

// R5 (DESIGN.md § Static analysis): a per-event path must not abort a run;
// test code is exempt (`clippy.toml`).
#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::collections::BTreeMap;

use simcore::{EventQueue, SimRng, Time};

use crate::config::{SimConfig, SwitchConfig};
use crate::event::Event;
use crate::monitor::Monitor;
use crate::node::{EgressPort, Node};
use crate::packet::{NodeId, PacketArena};
use crate::record::{FlowRecord, SimCounters};
use crate::routing::RoutingTable;
use crate::transport_api::Transport;

/// Description of one flow to simulate.
#[derive(Clone, Debug)]
pub struct FlowSpec {
    /// Source host.
    pub src: NodeId,
    /// Destination host.
    pub dst: NodeId,
    /// Payload bytes to transfer.
    pub size: u64,
    /// Start time.
    pub start: Time,
    /// Physical priority queue (0-based; must be `< SimConfig::num_prios`).
    pub phys_prio: u8,
    /// Virtual priority (PrioPlus channel index; informational for
    /// non-PrioPlus transports).
    pub virt_prio: u8,
    /// Arbitrary user tag carried into the flow record.
    pub tag: u64,
}

impl FlowSpec {
    /// Convenience constructor with priority 0 and tag 0.
    pub fn new(src: NodeId, dst: NodeId, size: u64, start: Time) -> Self {
        FlowSpec {
            src,
            dst,
            size,
            start,
            phys_prio: 0,
            virt_prio: 0,
            tag: 0,
        }
    }
}

#[derive(Debug, Default)]
pub(crate) struct RecvState {
    pub(crate) cum: u64,
    pub(crate) ooo: BTreeMap<u64, u64>,
    pub(crate) delivered: u64,
    pub(crate) done: bool,
    pub(crate) nack_for_cum: u64,
}

impl RecvState {
    /// Take in the segment `[seq, seq + len)`. Returns the bytes it newly
    /// delivered and whether the receiver NACKs (lossy mode, once per
    /// in-order point). A NACK always names `[cum, seq)` with `cum` as
    /// this call leaves it — it fires only on an arrival past a gap, which
    /// never moves `cum` — so the ACK carries it as one bit.
    pub(crate) fn on_data(&mut self, seq: u64, len: u64, lossy: bool) -> (u64, bool) {
        let mut new_bytes = 0;
        let dup = seq < self.cum
            || self
                .ooo
                .range(..=seq)
                .next_back()
                .is_some_and(|(_, &e)| e > seq);
        if !dup {
            new_bytes = len;
        }
        if seq == self.cum {
            self.cum += len;
            while let Some((&s, &e)) = self.ooo.iter().next() {
                if s <= self.cum {
                    self.cum = self.cum.max(e);
                    self.ooo.remove(&s);
                } else {
                    break;
                }
            }
        } else if seq > self.cum && !dup {
            let entry = self.ooo.entry(seq).or_insert(seq + len);
            *entry = (*entry).max(seq + len);
        }
        self.delivered += new_bytes;
        let nack = lossy && seq > self.cum && self.nack_for_cum != self.cum;
        if nack {
            self.nack_for_cum = self.cum;
        }
        (new_bytes, nack)
    }

    fn fold_digest(&self, fold: &mut impl FnMut(u64)) {
        fold(self.cum);
        fold(self.delivered);
        fold(self.nack_for_cum << 1 | self.done as u64);
        fold(self.ooo.len() as u64);
        for (&s, &e) in &self.ooo {
            fold(s);
            fold(e);
        }
    }
}

/// The permanent per-flow core: its record, which carries the spec too.
/// Intentionally O(total flows) — results need every record. The
/// heavyweight state (transport + reassembly) lives in the [`FlowSlab`]
/// behind `live` and is reclaimed at completion.
pub(crate) struct Flow {
    pub(crate) record: FlowRecord,
    /// What a probe echo's delay is shifted by to read like a data ACK's:
    /// `base_rtt − base_rtt_probe` ([`crate::FlowParams`]), at least 0.
    pub(crate) probe_gap: Time,
    pub(crate) active: bool,
    /// Slab slot of the flow's live state; `u32::MAX` once reclaimed.
    pub(crate) live: u32,
}

impl Flow {
    /// What events change of a flow's core. `probe_gap` and the rest of
    /// `record` are fixed at registration from the caller's spec and
    /// [`Env`]; `flows.len()` (folded by [`State::fold_digest`]) covers the
    /// registration itself.
    fn fold_digest(&self, fold: &mut impl FnMut(u64)) {
        let Flow {
            record,
            probe_gap: _,
            active,
            live,
        } = self;
        fold(record.delivered);
        fold(record.finish.map_or(0, |t| t.as_ps() + 1));
        fold(record.retransmits);
        fold(*active as u64 | (*live as u64) << 1);
    }
}

/// Per-flow state that exists only while the flow is in flight: the
/// sender-side transport and the receiver reassembly state.
pub(crate) struct FlowLive {
    pub(crate) transport: Box<dyn Transport>,
    pub(crate) recv: RecvState,
}

impl FlowLive {
    /// The transport is a trait object, so it contributes its observable
    /// sender state (cwnd, retransmits, finished); the rest of it is
    /// opaque to the digest.
    fn fold_digest(&self, fold: &mut impl FnMut(u64)) {
        self.recv.fold_digest(fold);
        fold(self.transport.cwnd_bytes().to_bits());
        fold(self.transport.retransmits());
        fold(self.transport.is_finished() as u64);
    }
}

/// Slab of live flow state with LIFO slot reuse — the same determinism
/// argument as the packet arena: the slot sequence is a pure function of
/// event order, so it is bit-identical across runs. Slots are
/// released explicitly at flow completion, which is what makes resident
/// memory scale with *concurrent* flows rather than total flows.
#[derive(Default)]
pub(crate) struct FlowSlab {
    pub(crate) slots: Vec<Option<FlowLive>>,
    pub(crate) free: Vec<u32>,
    pub(crate) occupancy: u64,
    pub(crate) peak: u64,
    pub(crate) reclaimed: u64,
    pub(crate) bytes: u64,
    pub(crate) peak_bytes: u64,
}

impl FlowSlab {
    pub(crate) fn alloc(&mut self, fl: FlowLive) -> u32 {
        self.bytes += Self::entry_bytes(&fl);
        self.occupancy += 1;
        self.peak = self.peak.max(self.occupancy);
        self.peak_bytes = self.peak_bytes.max(self.bytes);
        match self.free.pop() {
            Some(slot) => {
                debug_assert!(self.slots[slot as usize].is_none());
                self.slots[slot as usize] = Some(fl);
                slot
            }
            None => {
                let slot = self.slots.len() as u32;
                self.slots.push(Some(fl));
                slot
            }
        }
    }

    #[inline]
    #[expect(clippy::expect_used, reason = "callers check `live != u32::MAX` before indexing")]
    pub(crate) fn get(&self, slot: u32) -> &FlowLive {
        self.slots[slot as usize].as_ref().expect("live flow slot")
    }

    #[inline]
    #[expect(clippy::expect_used, reason = "callers check `live != u32::MAX` before indexing")]
    pub(crate) fn get_mut(&mut self, slot: u32) -> &mut FlowLive {
        self.slots[slot as usize].as_mut().expect("live flow slot")
    }

    pub(crate) fn release(&mut self, slot: u32) -> FlowLive {
        #[expect(clippy::expect_used, reason = "release is only reached through a valid live slot")]
        let fl = self.slots[slot as usize].take().expect("double release");
        self.bytes -= Self::entry_bytes(&fl);
        self.occupancy -= 1;
        self.reclaimed += 1;
        self.free.push(slot);
        fl
    }

    /// Approximate resident bytes of one entry: the slab slot itself plus
    /// the boxed transport's state. The reassembly map's heap nodes are not
    /// counted — the map is empty by the time a flow completes.
    fn entry_bytes(fl: &FlowLive) -> u64 {
        (std::mem::size_of::<Option<FlowLive>>() + std::mem::size_of_val(&*fl.transport)) as u64
    }

    /// Slot table (which slots are occupied, and by what), free list in
    /// reuse order, and the tallies [`crate::Sim::run`] reports.
    fn fold_digest(&self, fold: &mut impl FnMut(u64)) {
        let FlowSlab {
            slots,
            free,
            occupancy,
            peak,
            reclaimed,
            bytes,
            peak_bytes,
        } = self;
        for w in [*occupancy, *peak, *reclaimed, *bytes, *peak_bytes] {
            fold(w);
        }
        fold(free.len() as u64);
        for &s in free {
            fold(s as u64);
        }
        fold(slots.len() as u64);
        for slot in slots {
            fold(slot.is_some() as u64);
            if let Some(fl) = slot {
                fl.fold_digest(fold);
            }
        }
    }
}

/// What a run is given and never writes after [`crate::Sim::new`].
pub(crate) struct Env {
    pub(crate) cfg: SimConfig,
    pub(crate) switch_cfg: SwitchConfig,
    pub(crate) routes: RoutingTable,
}

/// Everything an event can change. [`State::fold_digest`] names every
/// field, so one that is not digested does not compile.
pub(crate) struct State {
    /// Hosts and switches. Each owns its egress ports, and a port owns
    /// everything about its direction of its link — static attributes,
    /// dynamic state, fault state — indexed as the routing table indexes it.
    pub(crate) nodes: Vec<Node>,
    /// Per-flow cores, indexed by [`FlowId`]. Intentionally O(total flows)
    /// (results need every record); the heavyweight live state is in `live`.
    pub(crate) flows: Vec<Flow>,
    /// Slab of live (transport + reassembly) flow state, reclaimed at flow
    /// completion so memory tracks concurrent — not total — flows.
    pub(crate) live: FlowSlab,
    /// Slab holding every in-flight packet; events and port queues refer to
    /// packets by [`crate::packet::PacketId`]. LIFO slot reuse keeps the id
    /// sequence a pure function of the event order (deterministic across
    /// runs).
    pub(crate) arena: PacketArena,
    pub(crate) queue: EventQueue<Event>,
    pub(crate) counters: SimCounters,
    pub(crate) monitors: Vec<Monitor>,
    pub(crate) noise_rng: SimRng,
    pub(crate) ecn_rng: SimRng,
    pub(crate) nc_rng: SimRng,
    /// Whether the run-level bootstrap events have been scheduled.
    pub(crate) started: bool,
}

impl State {
    /// Egress port `port` of `node` — a switch port or a host's NIC (port 0).
    #[inline]
    pub(crate) fn port(&self, node: NodeId, port: u16) -> &EgressPort {
        &self.nodes[node as usize].ports()[port as usize]
    }

    /// Mutable [`Self::port`].
    #[inline]
    pub(crate) fn port_mut(&mut self, node: NodeId, port: u16) -> &mut EgressPort {
        &mut self.nodes[node as usize].ports_mut()[port as usize]
    }

    /// Fold the complete deterministic state, one component after the
    /// other, each through the `fold_digest` that sits beside its fields.
    /// The destructuring names every field of `State` (no `..`): a new
    /// field does not compile until it is either folded here or listed as
    /// deliberately left out, with the reason.
    pub(crate) fn fold_digest(&self, fold: &mut impl FnMut(u64)) {
        let State {
            nodes,
            flows,
            live,
            arena,
            queue,
            counters,
            monitors,
            noise_rng,
            ecn_rng,
            nc_rng,
            started,
        } = self;

        queue.fold_digest(fold, |ev, fold| ev.fold_digest(fold));
        fold(*started as u64);
        counters.fold_digest(fold);
        for rng in [noise_rng, ecn_rng, nc_rng] {
            for w in rng.state() {
                fold(w);
            }
        }
        arena.fold_digest(fold);
        for node in nodes {
            node.fold_digest(fold);
        }
        fold(flows.len() as u64);
        for f in flows {
            f.fold_digest(fold);
        }
        live.fold_digest(fold);
        fold(monitors.len() as u64);
        for m in monitors {
            m.fold_digest(fold);
        }
    }
}

/// Which class of simulator state a digest-completeness tamper mutates.
/// One variant per digest-covered field class; the `e2e_digest` fleet
/// applies each in turn through [`crate::Sim::snap_mutate`] and asserts
/// [`crate::Sim::state_digest`] diverges.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StateTamper {
    /// Bump one [`crate::SimCounters`] field.
    Counter,
    /// Advance one RNG stream by a draw.
    Rng,
    /// Fold a sample into the streaming quantile sketch (requires
    /// [`crate::SimConfig::streaming_stats`]).
    Sketch,
    /// Flip the priority-0 PFC pause bit on node 0's first egress port.
    PortState,
    /// Bump the first monitor's `last_tx`, the reading its next throughput
    /// sample is a delta from (requires a registered monitor).
    Monitor,
    /// Schedule one extra event, a host poke far in the future.
    Queue,
    /// Advance the reassembly point of one live flow (requires a flow in
    /// flight).
    FlowRecv,
}

impl State {
    /// Mutate one class of deterministic state in place, for
    /// [`crate::Sim::snap_mutate`]. Returns `false` when the run does not
    /// carry that state class (e.g. [`StateTamper::Monitor`] without a
    /// monitor). [`StateTamper::Sketch`] is never `State`'s: the sketches
    /// are an observer's, and `snap_mutate` hands that tamper to them.
    pub(crate) fn tamper(&mut self, tamper: StateTamper) -> bool {
        match tamper {
            StateTamper::Counter => self.counters.data_delivered += 1,
            StateTamper::Rng => _ = self.noise_rng.next(),
            StateTamper::Sketch => return false,
            StateTamper::PortState => self.nodes[0].ports_mut()[0].paused ^= 1,
            StateTamper::Monitor => match self.monitors.first_mut() {
                Some(m) => m.last_tx += 1,
                None => return false,
            },
            StateTamper::Queue => self.queue.schedule(Time::MAX, Event::HostPoke { node: 0 }),
            StateTamper::FlowRecv => match self.live.slots.iter_mut().flatten().next() {
                Some(fl) => fl.recv.cum += 1,
                None => return false,
            },
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Segment size of the property below; segment `k` is `[k·MSS, (k+1)·MSS)`.
    const MSS: u64 = 1000;
    /// Segments per flow in the property below.
    const SEGS: usize = 24;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256 })]

        /// The NACK is one bit. Over random arrival sequences — gaps,
        /// duplicates, reordering — in both loss modes, `on_data` agrees
        /// with a model that only remembers which segments arrived: on the
        /// bytes each arrival delivers, on `cum`, and on every NACK, which
        /// must be `(cum after the call, seq)`, raised only when lossy and
        /// once per in-order point. (The receiver starts as if it had
        /// NACKed in-order point 0, so a lost first segment is left to the
        /// sender's RTO.) It also pins why the range need not travel: a
        /// NACK never comes with a move of `cum`.
        #[test]
        fn nack_is_cum_after_the_call_to_seq(
            arrivals in proptest::collection::vec(0usize..SEGS, 1..64),
            lossy in any::<bool>(),
        ) {
            let mut r = RecvState::default();
            let mut got = [false; SEGS];
            let (mut delivered, mut nacked) = (0, 0);
            for k in arrivals {
                let seq = k as u64 * MSS;
                let cum_before = r.cum;
                let (new_bytes, nack) = r.on_data(seq, MSS, lossy);
                let fresh = !std::mem::replace(&mut got[k], true);
                let cum = got.iter().position(|g| !g).unwrap_or(SEGS) as u64 * MSS;
                delivered += if fresh { MSS } else { 0 };
                prop_assert_eq!(new_bytes, if fresh { MSS } else { 0 }, "segment {}", k);
                prop_assert_eq!((r.cum, r.delivered), (cum, delivered));
                let expected = (lossy && seq > cum && cum != nacked).then_some((cum, seq));
                prop_assert_eq!(nack.then_some((r.cum, seq)), expected, "segment {}", k);
                if nack {
                    nacked = cum;
                    prop_assert_eq!(r.cum, cum_before, "a NACK moved cum");
                }
            }
        }
    }
}
