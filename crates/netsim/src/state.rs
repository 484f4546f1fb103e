//! The simulator's data, in one copy: [`Env`] is what a run is given and
//! never writes again; [`State`] is everything an event can change. A
//! [`crate::Sim`] is an `Arc<Env>` plus a `State`, a snapshot is the same
//! pair, and a fork is one `State::clone` — there is no second list of
//! fields to keep in step.
//!
//! Two whole-state readers live beside the data: [`State::fold_digest`]
//! (the fingerprint behind [`crate::Sim::state_digest`]) and
//! [`State::deep_scan`] (the audit's O(state) sweep). The flow types sit
//! here too, each with its own digest next to its fields.

use std::collections::BTreeMap;

use simcore::{EventQueue, SimRng, Time};

use crate::audit::{detect_pause_cycle, Audit, ViolationKind};
use crate::config::{SimConfig, SwitchConfig};
use crate::event::Event;
use crate::monitor::Monitor;
use crate::node::{EgressPort, Node, Switch};
use crate::packet::{FlowId, NodeId, PacketArena};
use crate::record::{FlowRecord, FlowTrace, SimCounters, StreamingStats};
use crate::routing::RoutingTable;
use crate::transport_api::{FlowParams, Transport};

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

#[derive(Clone, Debug, Default)]
pub(crate) struct RecvState {
    pub(crate) cum: u64,
    pub(crate) ooo: BTreeMap<u64, u64>,
    pub(crate) delivered: u64,
    pub(crate) done: bool,
    pub(crate) nack_for_cum: u64,
}

impl RecvState {
    /// Returns (newly_delivered_bytes, nack_range).
    pub(crate) fn on_data(&mut self, seq: u64, len: u64, lossy: bool) -> (u64, Option<(u64, u64)>) {
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
        let mut nack = None;
        if lossy && seq > self.cum && self.nack_for_cum != self.cum {
            nack = Some((self.cum, seq));
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

/// The permanent per-flow core: spec, derived parameters, and the outcome
/// record. Intentionally O(total flows) — results need every record. The
/// heavyweight state (transport + reassembly) lives in the [`FlowSlab`]
/// behind `live` and is reclaimed at completion.
#[derive(Clone)]
pub(crate) struct Flow {
    pub(crate) spec: FlowSpec,
    pub(crate) params: FlowParams,
    pub(crate) record: FlowRecord,
    pub(crate) active: bool,
    /// Slab slot of the flow's live state; `u32::MAX` once reclaimed.
    pub(crate) live: u32,
}

impl Flow {
    /// What events change of a flow's core. `spec`, `params` and the rest
    /// of `record` are fixed at registration from the caller's spec and
    /// [`Env`]; `flows.len()` (folded by [`State::fold_digest`]) covers the
    /// registration itself.
    fn fold_digest(&self, fold: &mut impl FnMut(u64)) {
        let Flow {
            spec: _,
            params: _,
            record,
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

impl Clone for FlowLive {
    fn clone(&self) -> Self {
        FlowLive {
            // simlint::allow(hot-path-alloc, cloning happens only at snapshot/restore, not per event)
            transport: self.transport.clone_box(),
            recv: self.recv.clone(), // simlint::allow(hot-path-alloc, snapshot/restore only, not per event)
        }
    }
}

impl FlowLive {
    /// The transport is a trait object, so it contributes its observable
    /// sender state (cwnd, retransmits, finished); the full transport state
    /// is exercised by the resume-bit-identity tests rather than the digest.
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
#[derive(Clone, Default)]
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
                // simlint::allow(hot-path-alloc, slab growth only at a new peak of concurrent flows)
                self.slots.push(Some(fl));
                slot
            }
        }
    }

    #[inline]
    pub(crate) fn get(&self, slot: u32) -> &FlowLive {
        // simlint::allow(hot-path-unwrap, callers check `live != u32::MAX` before indexing)
        self.slots[slot as usize].as_ref().expect("live flow slot")
    }

    #[inline]
    pub(crate) fn get_mut(&mut self, slot: u32) -> &mut FlowLive {
        // simlint::allow(hot-path-unwrap, callers check `live != u32::MAX` before indexing)
        self.slots[slot as usize].as_mut().expect("live flow slot")
    }

    pub(crate) fn release(&mut self, slot: u32) -> FlowLive {
        // simlint::allow(hot-path-unwrap, release is only reached through a valid live slot)
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

/// What a run is given and never writes after [`crate::Sim::new`]. Shared,
/// not copied, by a simulator, its snapshots and every fork of them.
pub(crate) struct Env {
    pub(crate) cfg: SimConfig,
    pub(crate) switch_cfg: SwitchConfig,
    pub(crate) routes: RoutingTable,
    /// PFC is off: switches tail-drop and receivers NACK.
    pub(crate) lossy: bool,
}

/// Everything an event can change. `Clone` is the snapshot: a field that
/// cannot be cloned does not compile, and [`State::fold_digest`] names
/// every field, so one that is not digested does not compile either.
#[derive(Clone)]
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
    /// Opt-in ([`SimConfig::trace_flows`]) per-flow time series — O(total
    /// flows) when enabled, so hyperscale runs leave it off.
    pub(crate) traces: BTreeMap<FlowId, FlowTrace>,
    pub(crate) noise_rng: SimRng,
    pub(crate) ecn_rng: SimRng,
    pub(crate) nc_rng: SimRng,
    /// Streaming-statistics accumulator ([`SimConfig::streaming_stats`]):
    /// completed flows fold into quantile sketches at completion time.
    pub(crate) streaming: Option<Box<StreamingStats>>,
    /// Flows completed by the event being dispatched, awaiting delivery to
    /// the [`crate::sim::App`].
    pub(crate) completed_buf: Vec<FlowId>,
    /// Whether the run-level bootstrap events have been scheduled. A
    /// snapshot of a running simulation carries `true`.
    pub(crate) started: bool,
    /// Invariant-audit state; `None` keeps the hot path to one branch per
    /// hook. Boxed so the disabled case costs a single word. It rides in
    /// the snapshot: a fresh audit on the resumed half would recount
    /// conservation tallies from zero and flag every pre-snapshot byte.
    pub(crate) audit: Option<Box<Audit>>,
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
            traces,
            noise_rng,
            ecn_rng,
            nc_rng,
            streaming,
            completed_buf,
            started,
            // An observer of the state, not part of it: an audited and an
            // unaudited run dispatch identically, and must digest equally.
            audit: _,
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
        fold(completed_buf.len() as u64);
        for &f in completed_buf {
            fold(f as u64);
        }
        fold(monitors.len() as u64);
        for m in monitors {
            m.fold_digest(fold);
        }
        fold(traces.len() as u64);
        for (&flow, t) in traces {
            fold(flow as u64);
            t.fold_digest(fold);
        }
        fold(streaming.is_some() as u64);
        if let Some(s) = streaming.as_deref() {
            fold(s.fingerprint());
        }
    }

    /// The audit's O(state) scan: recount every switch, then check
    /// conservation, counters, PFC deadlock, the event queue, flow-slab
    /// reclamation and arena references, in that order. It reads the whole
    /// state, so it lives here rather than in [`crate::audit`], which sits
    /// below this module and is handed the parts it checks.
    pub(crate) fn deep_scan(&self, env: &Env, a: &mut Audit, now: Time) {
        let switches: Vec<(NodeId, &Switch)> = self
            .nodes
            .iter()
            .enumerate()
            .filter_map(|(id, n)| Some((id as NodeId, n.as_switch()?)))
            .collect();
        let mut buffered_data = 0u64;
        for &(id, s) in &switches {
            buffered_data += a.check_switch(now, id, s, &self.arena);
        }
        a.check_conservation(now, buffered_data);
        a.check_counters(now, &self.counters);
        if env.cfg.faults.as_ref().is_some_and(|s| !s.is_empty()) {
            // PFC deadlock monitor: a cycle in the wait-for graph over
            // paused egress attachments is a circular buffer dependency
            // (see DESIGN.md § Fault model). Only armed alongside a fault
            // schedule — transient legitimate pause cycles in cyclic
            // topologies are not deadlocks.
            let cycle = detect_pause_cycle(&switches, &self.arena);
            a.check_deadlock(now, cycle.as_deref());
        }
        if let Err(msg) = self.queue.check_invariants() {
            a.queue_violation(now, msg);
        }
        // Flow-state reclamation sweep: a completed flow must have released
        // its slab slot — `Buggify::FlowReclaimLeak` proves this sweep
        // notices when it doesn't. O(flows) by design: deep scans are
        // periodic; the per-event audit state stays O(ports).
        let mut resident = 0u64;
        for f in self.flows.iter().filter(|f| f.live != u32::MAX) {
            resident += 1;
            if let (false, Some(finish)) = (f.active, f.record.finish) {
                let (flow, slot) = (f.record.flow, f.live);
                a.flow_violation(
                    ViolationKind::FlowStateLeak,
                    now,
                    flow,
                    format!(
                        "flow {flow} finished at {} but still holds slab slot {slot}",
                        finish.as_ps()
                    ),
                );
            }
        }
        if resident != self.live.occupancy {
            let occ = self.live.occupancy;
            a.flow_violation(
                ViolationKind::FlowStateLeak,
                now,
                0,
                format!("flow slab occupancy {occ} != {resident} resident live slots"),
            );
        }
        // Arena accounting: every live slot must be referenced exactly once
        // — by one port queue or one pending Arrive event — and free slots
        // never. Count references across the whole topology plus the event
        // queue, then check the tally.
        // simlint::allow(hot-path-alloc, audit-only scan, rate-limited by `AuditConfig::deep_every`)
        let mut refs = vec![0u32; self.arena.capacity()];
        let ports = self.nodes.iter().flat_map(|n| n.ports());
        let queued = ports.flat_map(|p| &p.queues);
        for id in queued.flatten() {
            refs[id.index()] += 1;
        }
        self.queue.for_each_live(&mut |ev| {
            if let Event::Arrive { pkt, .. } = ev {
                refs[pkt.index()] += 1;
            }
        });
        a.check_arena(now, &self.arena, &refs);
    }
}
