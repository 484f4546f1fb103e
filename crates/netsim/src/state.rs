//! The simulator's data, in one copy: [`Env`] is what a run is given and
//! never writes again; [`State`] is everything an event can change. A
//! [`crate::Sim`] is an `Env` plus a `State`, and the observers that watch
//! it ([`crate::observe`]) sit beside them.
//!
//! [`State::fold_digest`] folds the whole state into the fingerprint
//! behind [`crate::Sim::state_digest`] (which then folds the observers'
//! share: the completions awaiting an `App` and the FCT sketches). The
//! digest's completeness fleet ([`StateTamper`],
//! [`crate::Sim::snap_mutate`]) sits with it. The flow types sit here too,
//! each with its own digest next to its fields: one [`Flow`] per registered
//! flow, whose live state (transport + reassembly, [`FlowLive`]) is boxed on
//! it and dropped when the flow completes. The event loop and the handlers
//! are `impl State` blocks above: `sim.rs`, `fabric.rs`, `host.rs`.

// R5 (DESIGN.md § Static analysis): a per-event path must not abort a run;
// test code is exempt (`clippy.toml`).
#![deny(clippy::unwrap_used, clippy::expect_used)]

use simcore::{EventQueue, SimRng, Time};

use crate::config::{SimConfig, SwitchConfig};
use crate::event::Event;
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
    /// Ranges `(start, end)` received past `cum`, sorted by start (they may
    /// overlap), in a `Vec` that keeps its buffer when it empties.
    pub(crate) ooo: Vec<(u64, u64)>,
    pub(crate) delivered: u64,
    pub(crate) done: bool,
    pub(crate) nack_for_cum: u64,
}

impl RecvState {
    /// Take in the segment `[seq, seq + len)` (never empty), adding the
    /// bytes it newly delivers to `delivered`. Returns whether the receiver
    /// NACKs (lossy mode, once per in-order point). A NACK always names
    /// `[cum, seq)` with `cum` as this call leaves it — it fires only on an
    /// arrival past a gap, which never moves `cum` — so the ACK carries it
    /// as one bit.
    pub(crate) fn on_data(&mut self, seq: u64, len: u64, lossy: bool) -> bool {
        // `ooo[..at]` are the stored ranges that start at or before `seq`.
        let at = self.ooo.partition_point(|&(s, _)| s <= seq);
        let dup = seq < self.cum || self.ooo[..at].last().is_some_and(|&(_, e)| e > seq);
        let new_bytes = if dup { 0 } else { len };
        if seq == self.cum {
            self.cum += len;
            let mut merged = 0;
            for &(s, e) in &self.ooo {
                if s > self.cum {
                    break;
                }
                self.cum = self.cum.max(e);
                merged += 1;
            }
            self.ooo.drain(..merged);
        } else if seq > self.cum && !dup {
            // A plain insert: a stored range that starts at `seq` is not
            // empty, so it would have made this arrival a duplicate.
            self.ooo.insert(at, (seq, seq + len));
        }
        self.delivered += new_bytes;
        let nack = lossy && seq > self.cum && self.nack_for_cum != self.cum;
        if nack {
            self.nack_for_cum = self.cum;
        }
        nack
    }

    fn fold_digest(&self, fold: &mut impl FnMut(u64)) {
        fold(self.cum);
        fold(self.delivered);
        fold(self.nack_for_cum << 1 | self.done as u64);
        fold(self.ooo.len() as u64);
        for &(s, e) in &self.ooo {
            fold(s);
            fold(e);
        }
    }
}

/// One flow: its record, which carries the spec too, and while it is in
/// flight its live state. The table is O(total flows) — results need every
/// record — but the heavyweight part (transport + reassembly) is taken at
/// completion, so that memory tracks concurrent flows.
pub(crate) struct Flow {
    pub(crate) record: FlowRecord,
    /// What a probe echo's delay is shifted by to read like a data ACK's:
    /// `base_rtt − base_rtt_probe` ([`crate::FlowParams`]), at least 0.
    pub(crate) probe_gap: Time,
    pub(crate) active: bool,
    /// Sender and receiver state; `None` once the flow finished and was
    /// reclaimed.
    pub(crate) live: Option<Box<FlowLive>>,
}

impl Flow {
    /// The live state of a flow that is still active.
    ///
    /// # Panics
    /// Panics if the flow holds none: only a finished flow's state is
    /// taken, and a finished flow is no longer active.
    pub(crate) fn live_mut(&mut self) -> &mut FlowLive {
        match &mut self.live {
            Some(fl) => fl,
            None => panic!("active flow {} holds no live state", self.record.flow),
        }
    }

    /// What events change of a flow. `probe_gap` and the rest of `record`
    /// are fixed at registration from the caller's spec and [`Env`];
    /// `flows.len()` (folded by [`State::fold_digest`]) covers the
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
        fold(*active as u64 | (live.is_some() as u64) << 1);
        if let Some(fl) = live {
            fl.fold_digest(fold);
        }
    }
}

/// Per-flow state that exists only while the flow is in flight: the
/// sender-side transport and the receiver reassembly state.
pub(crate) struct FlowLive {
    pub(crate) transport: Box<dyn Transport>,
    pub(crate) recv: RecvState,
}

impl FlowLive {
    /// Approximate resident bytes of one flow's live state: its box plus
    /// the transport's, inline sizes only. Heap buffers they own (the
    /// reassembly ranges, the sender's queues and sets) are not counted.
    pub(crate) fn entry_bytes(&self) -> u64 {
        (std::mem::size_of::<FlowLive>() + std::mem::size_of_val(&*self.transport)) as u64
    }

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
    /// Every flow registered, indexed by [`FlowId`]; a flow's live state
    /// hangs off its entry until it completes.
    pub(crate) flows: Vec<Flow>,
    /// [`FlowLive::entry_bytes`] summed over the flows that hold live
    /// state; its peak is `SimCounters::flow_live_bytes_peak`.
    pub(crate) live_bytes: u64,
    /// Slab holding every in-flight packet; events and port queues refer to
    /// packets by [`crate::packet::PacketId`]. LIFO slot reuse keeps the id
    /// sequence a pure function of the event order (deterministic across
    /// runs).
    pub(crate) arena: PacketArena,
    pub(crate) queue: EventQueue<Event>,
    pub(crate) counters: SimCounters,
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

    /// Flows whose live state is still resident: those registered less
    /// those reclaimed.
    pub(crate) fn live_flows(&self) -> u64 {
        self.flows.len() as u64 - self.counters.flows_reclaimed
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
            live_bytes,
            arena,
            queue,
            counters,
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
        fold(*live_bytes);
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
    /// Schedule one extra event, a host poke far in the future.
    Queue,
    /// Advance the reassembly point of one live flow (requires a flow in
    /// flight).
    FlowRecv,
}

impl State {
    /// Mutate one class of deterministic state in place, for
    /// [`crate::Sim::snap_mutate`]. Returns `false` when the run does not
    /// carry that state class (e.g. [`StateTamper::FlowRecv`] without a
    /// flow in flight). [`StateTamper::Sketch`] is never `State`'s: the
    /// sketches are an observer's, and `snap_mutate` hands that tamper to
    /// them.
    pub(crate) fn tamper(&mut self, tamper: StateTamper) -> bool {
        match tamper {
            StateTamper::Counter => self.counters.data_delivered += 1,
            StateTamper::Rng => _ = self.noise_rng.next(),
            StateTamper::Sketch => return false,
            StateTamper::PortState => self.nodes[0].ports_mut()[0].paused ^= 1,
            StateTamper::Queue => self.queue.schedule(Time::MAX, Event::HostPoke { node: 0 }),
            StateTamper::FlowRecv => match self.flows.iter_mut().find_map(|f| f.live.as_mut()) {
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
    use std::collections::BTreeMap;

    /// `RecvState` as it was while `ooo` was a `BTreeMap`, kept as the
    /// model of the sorted `Vec` that replaced it.
    #[derive(Default)]
    struct TreeRecv {
        cum: u64,
        ooo: BTreeMap<u64, u64>,
        delivered: u64,
        nack_for_cum: u64,
    }

    impl TreeRecv {
        fn on_data(&mut self, seq: u64, len: u64, lossy: bool) -> bool {
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
            nack
        }
    }

    /// `FlowLive::entry_bytes` counts `size_of::<FlowLive>()`, so
    /// this size reaches every state digest and `fig_hyperscale`'s `peak
    /// MB`. A reassembly container larger than the 24 bytes of `ooo` (a
    /// `VecDeque` is 32) would change them all; this fails first.
    #[test]
    fn recv_state_size_is_pinned() {
        assert_eq!(std::mem::size_of::<RecvState>(), 56);
    }

    /// Every registered flow keeps its `Flow` for the whole run, so this
    /// size times `flows_total` is the flow table (DESIGN.md § Hyperscale
    /// scaling). `FlowLive` is as large as the `Option<FlowLive>` slot the
    /// live state once sat in (the transport box is never null), so
    /// `entry_bytes` and `peak MB` read as they did then.
    #[test]
    fn flow_sizes_are_pinned() {
        assert_eq!(std::mem::size_of::<Flow>(), 112);
        assert_eq!(std::mem::size_of::<FlowLive>(), 72);
        assert_eq!(
            std::mem::size_of::<FlowLive>(),
            std::mem::size_of::<Option<FlowLive>>()
        );
    }

    /// An active flow whose live state is gone would never finish; the
    /// handlers refuse it instead of skipping it.
    #[test]
    #[should_panic(expected = "active flow 7 holds no live state")]
    fn an_active_flow_without_live_state_panics() {
        let record = FlowRecord {
            flow: 7,
            src: 0,
            dst: 1,
            size: 1000,
            phys_prio: 0,
            virt_prio: 0,
            tag: 0,
            start: Time::ZERO,
            finish: None,
            delivered: 0,
            retransmits: 0,
            base_rtt: Time::from_us(10),
            line_rate: simcore::Rate::from_gbps(100),
        };
        let mut f = Flow {
            record,
            probe_gap: Time::ZERO,
            active: true,
            live: None,
        };
        f.live_mut();
    }

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
                let nack = r.on_data(seq, MSS, lossy);
                let fresh = !std::mem::replace(&mut got[k], true);
                let cum = got.iter().position(|g| !g).unwrap_or(SEGS) as u64 * MSS;
                delivered += if fresh { MSS } else { 0 };
                prop_assert_eq!((r.cum, r.delivered), (cum, delivered), "segment {}", k);
                let expected = (lossy && seq > cum && cum != nacked).then_some((cum, seq));
                prop_assert_eq!(nack.then_some((r.cum, seq)), expected, "segment {}", k);
                if nack {
                    nacked = cum;
                    prop_assert_eq!(r.cum, cum_before, "a NACK moved cum");
                }
            }
        }

        /// The sorted `Vec` behaves as the `BTreeMap` it replaced, on
        /// arrivals that need not be whole segments: unaligned starts,
        /// overlaps, runts and duplicates, in both loss modes. After every
        /// call the two agree on the return value, `cum`, `delivered`, the
        /// NACK point and the stored ranges in order.
        #[test]
        fn reassembly_matches_the_btree_model(
            arrivals in proptest::collection::vec(0u64..96 * 24, 1..96),
            lossy in any::<bool>(),
        ) {
            let (mut r, mut model) = (RecvState::default(), TreeRecv::default());
            for a in arrivals {
                // Starts in [0, 96), lengths in [1, 24].
                let (seq, len) = (a % 96, 1 + a / 96);
                prop_assert_eq!(
                    r.on_data(seq, len, lossy),
                    model.on_data(seq, len, lossy),
                    "[{}, {})", seq, seq + len
                );
                prop_assert_eq!(
                    (r.cum, r.delivered, r.nack_for_cum),
                    (model.cum, model.delivered, model.nack_for_cum)
                );
                let stored: Vec<(u64, u64)> = model.ooo.iter().map(|(&s, &e)| (s, e)).collect();
                prop_assert_eq!(&r.ooo, &stored);
            }
        }
    }
}
