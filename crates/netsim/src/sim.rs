//! The simulator: event loop, flow management, switch/host event handlers.

use std::collections::BTreeMap;

use simcore::stats::ThroughputMeter;
use simcore::{EventQueue, ScheduledId, SimRng, Time};

use crate::audit::{Audit, AuditConfig, DeepScan, FlowHold, SwitchArrive, ViolationKind};
use crate::config::{AckPriority, Buggify, SimConfig, SwitchConfig};
use crate::faults::FaultKind;
use crate::fluid::FluidState;
use crate::monitor::{Monitor, MonitorKind};
use crate::node::{queue_index, Admission, EgressPort, Host, Node, Switch};
use crate::packet::{
    AckInfo, FlowId, IntHop, NodeId, Packet, PacketArena, PacketId, PktTag, CONTROL_BYTES,
    HEADER_BYTES,
};
use crate::record::{FlowRecord, FlowTrace, SimCounters, SimResult, StreamingStats};
use crate::routing::RoutingTable;
use crate::topology::{NodeKind, Topology};
use crate::transport_api::{AckEvent, AckKind, FlowParams, Transport, TransportCtx, TrySend};

/// A closed-loop application driver: gets called whenever a flow completes
/// (receiver got every byte) and may register new flows, enabling iterative
/// workloads such as ring all-reduce training (§6.2's ML cluster scenario).
pub trait App {
    /// `flow` just completed at `sim.now()`.
    fn on_flow_complete(&mut self, flow: FlowId, sim: &mut Sim);
}

/// An open-loop arrival source, driven by [`Event::Inject`] during the run.
/// Instead of registering an entire trace of flows up front (O(total flows)
/// resident before the first event fires), the source is called back to
/// register the next chunk, so hyperscale runs sustain millions of flow
/// lifetimes with memory proportional to the look-ahead window.
pub trait ArrivalSource {
    /// Register flows starting at or after `now` (chunk size is the
    /// source's choice; every registered spec must start `>= now`). Return
    /// the time of the next injection — strictly after `now` — or `None`
    /// when the trace is exhausted (the source is then dropped).
    fn inject(&mut self, sim: &mut Sim, now: Time) -> Option<Time>;
}

pub use crate::event::Event;

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
    fn on_data(&mut self, seq: u64, len: u64, lossy: bool) -> (u64, Option<(u64, u64)>) {
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

/// Slab of live flow state with LIFO slot reuse — the same determinism
/// argument as the packet arena: the slot sequence is a pure function of
/// event order, so it is bit-identical across scheduler backends. Slots are
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
    fn alloc(&mut self, fl: FlowLive) -> u32 {
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

    fn get(&self, slot: u32) -> &FlowLive {
        // simlint::allow(hot-path-unwrap, callers check `live != u32::MAX` before indexing)
        self.slots[slot as usize].as_ref().expect("live flow slot")
    }

    fn get_mut(&mut self, slot: u32) -> &mut FlowLive {
        // simlint::allow(hot-path-unwrap, callers check `live != u32::MAX` before indexing)
        self.slots[slot as usize].as_mut().expect("live flow slot")
    }

    fn release(&mut self, slot: u32) -> FlowLive {
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
}

/// The simulator.
///
/// Fields are `pub(crate)` so [`crate::snapshot`] can capture and rebuild
/// the full deterministic state by exhaustive struct literal (the
/// forget-a-field compile guard).
pub struct Sim {
    pub(crate) cfg: SimConfig,
    pub(crate) switch_cfg: SwitchConfig,
    /// Hosts and switches. Each owns its egress ports, and a port owns
    /// everything about its direction of its link — static attributes,
    /// dynamic state, fault state — indexed as the routing table indexes it.
    pub(crate) nodes: Vec<Node>,
    pub(crate) routes: RoutingTable,
    /// Per-flow cores, indexed by [`FlowId`]. Intentionally O(total flows)
    /// (results need every record); the heavyweight live state is in `live`.
    pub(crate) flows: Vec<Flow>,
    /// Slab of live (transport + reassembly) flow state, reclaimed at flow
    /// completion so memory tracks concurrent — not total — flows.
    pub(crate) live: FlowSlab,
    /// Slab holding every in-flight packet; events and port queues refer to
    /// packets by [`PacketId`]. LIFO slot reuse keeps the id sequence a pure
    /// function of the event order (deterministic across backends).
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
    pub(crate) lossy: bool,
    pub(crate) app: Option<Box<dyn App>>,
    /// Open-loop arrival source ([`Event::Inject`]); `None` between the
    /// final injection and the end of the run, and for closed workloads.
    pub(crate) arrivals: Option<Box<dyn ArrivalSource>>,
    /// Streaming-statistics accumulator ([`SimConfig::streaming_stats`]):
    /// completed flows fold into quantile sketches at completion time.
    pub(crate) streaming: Option<Box<StreamingStats>>,
    pub(crate) completed_buf: Vec<FlowId>,
    /// Fluid background-traffic solver (hybrid model); `None` — the pure
    /// packet simulator — keeps every coupling hook to one branch.
    pub(crate) fluid: Option<Box<FluidState>>,
    /// The single pending [`Event::FluidEpoch`], if any. Cancellable so a
    /// coupling hook can pull the epoch earlier without stale events.
    pub(crate) fluid_epoch: Option<ScheduledId>,
    /// Whether the run-level bootstrap events ([`Self::ensure_started`])
    /// have been scheduled. Restored snapshots carry `true`.
    pub(crate) started: bool,
    /// Invariant-audit state; `None` keeps the hot path to one branch per
    /// hook. Boxed so the disabled case costs a single word.
    pub(crate) audit: Option<Box<Audit>>,
}

impl Sim {
    /// Build a simulator over `topo` with uniform switch configuration.
    pub fn new(topo: &Topology, cfg: SimConfig, switch_cfg: SwitchConfig) -> Self {
        let n = topo.num_nodes();
        let nq = cfg.num_prios as usize + 1;
        // Per-node port lists in the same order as `Topology::adjacency`,
        // which is the order the routing table indexes them in.
        // simlint::allow(hot-path-alloc, Sim construction runs once per run, not per event)
        let mut ports: Vec<Vec<EgressPort>> = vec![Vec::new(); n];
        for &(a, b, spec) in &topo.links {
            let pa = ports[a as usize].len() as u16;
            let pb = ports[b as usize].len() as u16;
            ports[a as usize].push(EgressPort::new(b, pb, spec.rate, spec.prop, nq));
            ports[b as usize].push(EgressPort::new(a, pa, spec.rate, spec.prop, nq));
        }
        let adj = topo.adjacency();
        let is_host: Vec<bool> = topo.kinds.iter().map(|k| *k == NodeKind::Host).collect();
        let routes = RoutingTable::build(&adj, &is_host, cfg.seed ^ 0x9E3779B97F4A7C15);

        let mut nodes = Vec::with_capacity(n);
        for (id, (kind, mut ports)) in topo.kinds.iter().zip(ports).enumerate() {
            match kind {
                NodeKind::Host => {
                    assert_eq!(ports.len(), 1, "host {id} must have exactly one NIC link");
                    // simlint::allow(hot-path-unwrap, the assert_eq above guarantees exactly one port)
                    let nic = ports.pop().unwrap();
                    nodes.push(Node::Host(Host::new(nic, cfg.num_prios)));
                }
                NodeKind::Switch => {
                    nodes.push(Node::Switch(Switch::new(
                        // simlint::allow(hot-path-alloc, per-switch config copy at construction, not per event)
                        switch_cfg.clone(),
                        ports,
                        cfg.num_prios,
                    )));
                }
            }
        }
        let port_at = |node: NodeId, port: u16| -> Option<&EgressPort> {
            nodes.get(node as usize)?.ports().get(port as usize)
        };

        let seed = cfg.seed;
        let sched = cfg.sched;
        let lossy = !switch_cfg.pfc_enabled;
        let streaming = cfg
            .streaming_stats
            // simlint::allow(hot-path-alloc, one streaming box per run at construction, not per event)
            .then(|| Box::new(StreamingStats::default()));
        let fluid = cfg.background.as_ref().map(|bg| {
            for &(node, port) in &bg.ports {
                assert!(
                    nodes.get(node as usize).is_some_and(|n| n.as_switch().is_some()),
                    "background port ({node}, {port}) is not a switch egress"
                );
            }
            let leak = switch_cfg.buggify == Some(Buggify::FluidDrainLeak);
            // simlint::allow(hot-path-alloc, one fluid box per run at construction, not per event)
            Box::new(FluidState::new(
                bg,
                |node, port| port_at(node, port).map_or(0, |p| p.rate.as_bps()),
                leak,
            ))
        });
        for ev in cfg.faults.iter().flat_map(|s| &s.events) {
            let (node, port) = ev.kind.link();
            let Some(p) = port_at(node, port) else {
                panic!("fault schedule targets nonexistent link attachment ({node}, {port})");
            };
            if matches!(ev.kind, FaultKind::DegradeStart { .. }) {
                if let Some(bg) = cfg.background.as_ref() {
                    assert!(
                        !bg.ports.contains(&(node, port))
                            && !bg.ports.contains(&(p.peer, p.peer_port)),
                        "link degradation on fluid-loaded port ({node}, {port}) is \
                         unsupported: the fluid solver captures drain rates at \
                         construction (flaps and pause storms are fine)"
                    );
                }
            }
        }
        Sim {
            cfg,
            switch_cfg,
            nodes,
            routes,
            flows: Vec::new(),
            live: FlowSlab::default(),
            arena: PacketArena::new(),
            queue: EventQueue::with_sched(sched),
            counters: SimCounters::default(),
            monitors: Vec::new(),
            traces: BTreeMap::new(),
            noise_rng: SimRng::new(seed).split(1),
            ecn_rng: SimRng::new(seed).split(2),
            nc_rng: SimRng::new(seed).split(3),
            lossy,
            app: None,
            arrivals: None,
            streaming,
            completed_buf: Vec::new(),
            fluid,
            fluid_epoch: None,
            started: false,
            audit: if crate::audit::env_enabled() {
                // simlint::allow(hot-path-alloc, one audit box per run at construction, not per event)
                Some(Box::new(Audit::new(AuditConfig {
                    panic_on_violation: crate::audit::env_panic(),
                    deep_every: crate::audit::env_deep_every(),
                    ..AuditConfig::default()
                })))
            } else {
                None
            },
        }
    }

    /// Enable the invariant-audit layer with default settings.
    pub fn enable_audit(&mut self) {
        self.enable_audit_with(AuditConfig::default());
    }

    /// Enable the invariant-audit layer with explicit settings.
    pub fn enable_audit_with(&mut self, cfg: AuditConfig) {
        // simlint::allow(hot-path-alloc, one audit box per run at enablement, not per event)
        self.audit = Some(Box::new(Audit::new(cfg)));
    }

    /// True when the audit layer is enabled for this run.
    pub fn audit_enabled(&self) -> bool {
        self.audit.is_some()
    }

    /// Install a closed-loop application driver.
    pub fn set_app(&mut self, app: Box<dyn App>) {
        self.app = Some(app);
    }

    /// Install an open-loop arrival source; the first [`Event::Inject`] is
    /// scheduled at run start.
    pub fn set_arrivals(&mut self, src: Box<dyn ArrivalSource>) {
        self.arrivals = Some(src);
    }

    /// Live flow-slab occupancy (flows whose transport + reassembly state is
    /// still resident). Exposed for reclamation tests and progress logging.
    pub fn live_flows(&self) -> u64 {
        self.live.occupancy
    }

    /// Current simulated time.
    pub fn now(&self) -> Time {
        self.queue.now()
    }

    /// The record of a flow (live view during the run for [`App`]s).
    pub fn record(&self, flow: FlowId) -> &FlowRecord {
        &self.flows[flow as usize].record
    }

    /// Number of flows registered so far.
    pub fn num_flows(&self) -> usize {
        self.flows.len()
    }

    /// The simulator's configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// The switch configuration.
    pub fn switch_config(&self) -> &SwitchConfig {
        &self.switch_cfg
    }

    /// Egress port `port` of `node` — a switch port or a host's NIC (port 0).
    #[inline]
    fn port(&self, node: NodeId, port: u16) -> &EgressPort {
        &self.nodes[node as usize].ports()[port as usize]
    }

    /// Mutable [`Self::port`].
    #[inline]
    fn port_mut(&mut self, node: NodeId, port: u16) -> &mut EgressPort {
        &mut self.nodes[node as usize].ports_mut()[port as usize]
    }

    /// Compute per-flow parameters (base RTTs, line rate) for a prospective
    /// flow, so transport factories can be configured before registration.
    pub fn flow_params(&self, spec: &FlowSpec, flow: FlowId) -> FlowParams {
        let line_rate = self.port(spec.src, 0).rate;
        let data_wire = (self.cfg.mtu + HEADER_BYTES) as u64;
        let base_rtt = self.path_delay(spec.src, spec.dst, flow, data_wire)
            + self.path_delay(spec.dst, spec.src, flow, CONTROL_BYTES as u64);
        let base_rtt_probe = self.path_delay(spec.src, spec.dst, flow, CONTROL_BYTES as u64)
            + self.path_delay(spec.dst, spec.src, flow, CONTROL_BYTES as u64);
        FlowParams {
            flow,
            size: spec.size,
            line_rate,
            base_rtt,
            base_rtt_probe,
            mtu: self.cfg.mtu,
            virt_prio: spec.virt_prio,
            seed: SimRng::new(self.cfg.seed)
                .split(0x1000 + flow as u64)
                .next(),
        }
    }

    /// One-way no-queue delay for a `wire_bytes` packet from `src` to `dst`
    /// following the flow's ECMP path: per hop, serialization + propagation.
    fn path_delay(&self, src: NodeId, dst: NodeId, flow: FlowId, wire_bytes: u64) -> Time {
        let mut node = src;
        let mut total = Time::ZERO;
        let mut hops = 0;
        while node != dst {
            let port = self.routes.port_for(node, dst, flow);
            let p = self.port(node, port);
            total += p.rate.serialize_time(wire_bytes) + p.prop;
            node = p.peer;
            hops += 1;
            assert!(hops < 64, "routing loop from {src} to {dst}");
        }
        total
    }

    /// Register a flow. `make` receives the computed [`FlowParams`] and
    /// returns the sender-side transport.
    pub fn add_flow(
        &mut self,
        spec: FlowSpec,
        make: impl FnOnce(&FlowParams) -> Box<dyn Transport>,
    ) -> FlowId {
        assert!(
            spec.phys_prio < self.cfg.num_prios,
            "phys_prio {} out of range (num_prios {})",
            spec.phys_prio,
            self.cfg.num_prios
        );
        assert!(spec.size > 0, "zero-size flow");
        let id = self.flows.len() as FlowId;
        let params = self.flow_params(&spec, id);
        let transport = make(&params);
        let record = FlowRecord {
            flow: id,
            src: spec.src,
            dst: spec.dst,
            size: spec.size,
            phys_prio: spec.phys_prio,
            virt_prio: spec.virt_prio,
            tag: spec.tag,
            start: spec.start,
            finish: None,
            delivered: 0,
            retransmits: 0,
            base_rtt: params.base_rtt,
            line_rate: params.line_rate,
        };
        if self.cfg.trace_flows {
            self.traces.insert(
                id,
                FlowTrace {
                    throughput: Some(ThroughputMeter::new(self.cfg.trace_bucket)),
                    ..Default::default()
                },
            );
        }
        self.queue
            .schedule(spec.start, Event::FlowStart { flow: id });
        let live = self.live.alloc(FlowLive {
            transport,
            recv: RecvState::default(),
        });
        self.flows.push(Flow {
            spec,
            params,
            record,
            active: false,
            live,
        });
        id
    }

    /// Register a periodic monitor; returns its index.
    pub fn add_monitor(
        &mut self,
        label: impl Into<String>,
        kind: MonitorKind,
        period: Time,
    ) -> usize {
        let idx = self.monitors.len();
        self.monitors.push(Monitor::new(label, kind, period));
        idx
    }

    /// Egress port index a switch uses toward `dst` for `flow` (exposed for
    /// tests and monitor setup).
    pub fn route_port(&self, node: NodeId, dst: NodeId, flow: FlowId) -> u16 {
        self.routes.port_for(node, dst, flow)
    }

    /// Schedule the run-level bootstrap events (End, first Inject, monitor
    /// samples, the first fluid epoch, the fault schedule). Runs once, on
    /// whichever of [`Self::run`] / [`Self::run_until`] is called first; a
    /// restored simulation carries `started = true`, so the bootstrap is
    /// never re-applied to forked state.
    fn ensure_started(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        self.queue.schedule(self.cfg.end_time, Event::End);
        if self.arrivals.is_some() {
            self.queue.schedule(Time::ZERO, Event::Inject);
        }
        for i in 0..self.monitors.len() {
            let period = self.monitors[i].period;
            self.queue
                .schedule(period, Event::Sample { monitor: i as u32 });
        }
        // Hybrid model: the fluid solver keeps exactly one pending epoch in
        // the queue; the first sits at the first background arrival.
        if let Some(first) = self.fluid.as_deref().and_then(|f| f.first_epoch()) {
            self.fluid_epoch = Some(self.queue.schedule_cancellable(first, Event::FluidEpoch));
        }
        // The fault schedule is fixed up-front: every transition becomes a
        // first-class event through the same scheduler backend as data
        // traffic, so fault runs stay bit-identical across backends.
        for (i, ev) in self.cfg.faults.iter().flat_map(|s| &s.events).enumerate() {
            self.queue.schedule(ev.at, Event::Fault { idx: i as u32 });
        }
    }

    /// Dispatch the next same-timestamp batch of events: one scheduler
    /// interaction, clock advanced once, events served in `(time, seq)`
    /// order — the per-event semantics (audit hooks, app delivery, boundary
    /// checks) are identical to sequential dispatch. Returns `false` when
    /// the run is over (queue drained or [`Event::End`] fired) or, with a
    /// horizon, when the next batch would be at or past it.
    fn pump(&mut self, until: Option<Time>) -> bool {
        let next = match until {
            Some(horizon) => self.queue.pop_batch_before(horizon),
            None => self.queue.pop_batch(),
        };
        let Some(now) = next else {
            return false;
        };
        while let Some(ev) = self.queue.batch_next() {
            self.counters.events += 1;
            if let Some(a) = self.audit.as_deref_mut() {
                let (kind, id) = ev.name_and_id();
                a.on_event(now, kind, id);
            }
            match ev {
                Event::End => return false,
                Event::FlowStart { flow } => self.on_flow_start(flow, now),
                Event::FlowTimer { flow, token } => self.on_flow_timer(flow, token, now),
                Event::HostPoke { node } => {
                    if let Node::Host(h) = &mut self.nodes[node as usize] {
                        h.next_poke = Time::MAX;
                    }
                    self.host_poke(node, now);
                }
                Event::PortFree { node, port } => self.on_port_free(node, port, now),
                Event::Arrive { node, in_port, pkt } => self.on_arrive(node, in_port, pkt, now),
                Event::Sample { monitor } => self.on_sample(monitor, now),
                Event::FluidEpoch => self.on_fluid_epoch(now),
                Event::Fault { idx } => self.on_fault(idx, now),
                Event::Inject => self.on_inject(now),
            }
            if !self.completed_buf.is_empty() && self.app.is_some() {
                // simlint::allow(hot-path-unwrap, guarded by the is_some() check one line up)
                let mut app = self.app.take().expect("checked");
                let done = std::mem::take(&mut self.completed_buf);
                for f in done {
                    app.on_flow_complete(f, self);
                }
                self.app = Some(app);
            }
            self.audit_boundary(now);
        }
        true
    }

    /// Advance the simulation up to (but not into) `horizon`: every batch
    /// with timestamp strictly before `horizon` is dispatched, then the
    /// clock rests at the last dispatched batch. Used to simulate a shared
    /// warmup prefix before [`Self::snapshot`](crate::snapshot)ing.
    ///
    /// # Panics
    /// Panics if `horizon` is past `end_time` (the run would consume its
    /// `End` event and a later `run()` could not terminate at `end_time`).
    pub fn run_until(&mut self, horizon: Time) {
        assert!(
            horizon <= self.cfg.end_time,
            "run_until horizon {horizon} past end_time {}",
            self.cfg.end_time
        );
        self.ensure_started();
        while self.pump(Some(horizon)) {}
    }

    /// Run to completion (all events drained or `end_time` reached).
    pub fn run(mut self) -> SimResult {
        self.ensure_started();
        while self.pump(None) {}
        let end_time = self.queue.now();
        for sw in self.nodes.iter().filter_map(Node::as_switch) {
            self.counters.max_buffer_used = self.counters.max_buffer_used.max(sw.max_buffered);
        }
        if let Some(f) = self.fluid.as_deref() {
            self.counters.fluid_flows_started = f.flows_started();
            self.counters.fluid_flows_completed = f.flows_completed();
            self.counters.fluid_bytes_injected = f.injected_bytes();
        }
        let astats = self.arena.stats();
        self.counters.arena_allocs = astats.allocs;
        self.counters.arena_slab_slots = astats.slot_allocs;
        self.counters.arena_peak_live = astats.peak_live;
        self.counters.arena_int_allocs = astats.int_allocs;
        self.counters.arena_int_recycled = astats.int_recycled;
        self.counters.sched_pops = self.queue.pops();
        let work = self.queue.sched_work();
        self.counters.sched_ops = work.ops();
        self.counters.sched_touches = work.touches();
        self.counters.sched_rebuilds = work.rebuilds;
        self.counters.sched_pending_peak = self.queue.pending_peak() as u64;
        self.counters.sched_bytes_peak = self.queue.resident_bytes() as u64;
        self.counters.flows_total = self.flows.len() as u64;
        self.counters.flow_live_peak = self.live.peak;
        self.counters.flow_slab_slots = self.live.slots.len() as u64;
        self.counters.flows_reclaimed = self.live.reclaimed;
        self.counters.flow_live_bytes_peak = self.live.peak_bytes;
        let audit = self.audit.take().map(|a| a.into_report());
        // Streaming mode returns empty records: quantiles come from the
        // sketches, and cloning O(total flows) records would defeat the
        // point of streaming at hyperscale.
        let records = if self.streaming.is_some() {
            Vec::new()
        } else {
            self.flows
                .iter()
                .map(|f| {
                    // simlint::allow(hot-path-alloc, result assembly after the event loop has ended)
                    let mut r = f.record.clone();
                    if f.live != u32::MAX {
                        // Unreclaimed (censored or leaked) flows still hold a
                        // transport; reclaimed ones snapshotted retransmits
                        // into the record at release time.
                        r.retransmits = self.live.get(f.live).transport.retransmits();
                    }
                    r
                })
                .collect()
        };
        SimResult {
            records,
            counters: self.counters,
            traces: self.traces,
            monitors: self
                .monitors
                .into_iter()
                .map(|m| (m.label, m.series))
                .collect(),
            end_time,
            audit,
            streaming: self.streaming,
        }
    }

    /// Handle [`Event::Inject`]: hand the simulator to the arrival source
    /// (take/put-back, same pattern as [`App`] delivery) and reschedule at
    /// the time it asks for.
    fn on_inject(&mut self, now: Time) {
        let Some(mut src) = self.arrivals.take() else {
            return;
        };
        if let Some(next) = src.inject(self, now) {
            assert!(next > now, "arrival source must make progress");
            self.queue.schedule(next, Event::Inject);
            self.arrivals = Some(src);
        }
    }

    /// Verify cross-cutting invariants at the end of one event: flows the
    /// event touched, the Xoff-must-fire condition for an admission in this
    /// event, and (per [`AuditConfig::deep_every`]) the O(state)
    /// [`Audit::deep_scan`].
    fn audit_boundary(&mut self, now: Time) {
        let Some(mut a) = self.audit.take() else {
            return;
        };
        while let Some(fid) = a.pop_touched() {
            let f = &self.flows[fid as usize];
            if f.live != u32::MAX {
                if let Err(msg) = self.live.get(f.live).transport.check_invariants() {
                    a.flow_violation(ViolationKind::TransportSanity, now, fid, msg);
                }
            }
            if f.record.delivered > f.spec.size {
                let (got, size) = (f.record.delivered, f.spec.size);
                a.flow_violation(
                    ViolationKind::PacketConservation,
                    now,
                    fid,
                    format!("receiver delivered {got} B > flow size {size} B"),
                );
            }
        }
        if let Some(focus) = a.take_focus() {
            if let Some(s) = self.nodes[focus.node as usize].as_switch() {
                a.check_xoff(now, &focus, s);
            }
        }
        if a.should_deep_scan() {
            let holds = self.flows.iter().map(|f| FlowHold {
                flow: f.record.flow,
                slot: (f.live != u32::MAX).then_some(f.live),
                active: f.active,
                finish: f.record.finish,
            });
            let scan = DeepScan {
                nodes: &self.nodes,
                arena: &self.arena,
                queue: &self.queue,
                counters: &self.counters,
                fluid: self.fluid.as_deref(),
                deadlock_armed: self.cfg.faults.as_ref().is_some_and(|s| !s.is_empty()),
                slab_occupancy: self.live.occupancy,
            };
            a.deep_scan(now, &scan, holds);
        }
        self.audit = Some(a);
    }

    fn ctx<'a>(
        queue: &'a mut EventQueue<Event>,
        traces: &'a mut BTreeMap<FlowId, FlowTrace>,
        now: Time,
        flow: FlowId,
    ) -> TransportCtx<'a> {
        // Tracing is off in almost every run; skip the per-callback hash
        // lookup entirely then.
        let trace = if traces.is_empty() {
            None
        } else {
            traces.get_mut(&flow)
        };
        let (delay_trace, cwnd_trace) = match trace {
            Some(t) => (Some(&mut t.delay), Some(&mut t.cwnd)),
            None => (None, None),
        };
        TransportCtx {
            now,
            flow,
            queue,
            delay_trace,
            cwnd_trace,
        }
    }

    fn on_flow_start(&mut self, flow: FlowId, now: Time) {
        if let Some(a) = self.audit.as_deref_mut() {
            a.touch_flow(flow);
        }
        let f = &mut self.flows[flow as usize];
        let src = f.spec.src;
        let prio = f.spec.phys_prio;
        f.active = true;
        let live = f.live;
        {
            let mut ctx = Self::ctx(&mut self.queue, &mut self.traces, now, flow);
            self.live.get_mut(live).transport.on_start(&mut ctx);
        }
        if let Node::Host(h) = &mut self.nodes[src as usize] {
            h.activate(prio, flow);
        } else {
            panic!("flow source {src} is not a host");
        }
        self.host_poke(src, now);
    }

    fn on_flow_timer(&mut self, flow: FlowId, token: u64, now: Time) {
        let f = &mut self.flows[flow as usize];
        if !f.active {
            return;
        }
        if let Some(a) = self.audit.as_deref_mut() {
            a.touch_flow(flow);
        }
        let f = &self.flows[flow as usize];
        let live = f.live;
        let src = f.spec.src;
        {
            let mut ctx = Self::ctx(&mut self.queue, &mut self.traces, now, flow);
            self.live.get_mut(live).transport.on_timer(token, &mut ctx);
        }
        self.host_poke(src, now);
    }

    fn on_port_free(&mut self, node: NodeId, port: u16, now: Time) {
        self.port_mut(node, port).busy = false;
        self.kick(node, port, now);
        // The port may have gone idle: hand its bandwidth back to the fluid
        // class.
        self.fluid_sync_port(node, port, now);
    }

    /// Process the pending fluid rate-change epoch and schedule the next.
    fn on_fluid_epoch(&mut self, now: Time) {
        self.counters.fluid_epochs += 1;
        self.fluid_epoch = None;
        if let Some(f) = self.fluid.as_deref_mut() {
            f.on_epoch(now);
        }
        self.fluid_reschedule(now);
    }

    /// Replace the pending fluid epoch with the solver's next rate-change
    /// instant (cancelling any stale one).
    fn fluid_reschedule(&mut self, now: Time) {
        if let Some(id) = self.fluid_epoch.take() {
            self.queue.cancel(id);
        }
        if let Some(next) = self.fluid.as_deref().and_then(|f| f.plan(now)) {
            self.fluid_epoch = Some(self.queue.schedule_cancellable(next, Event::FluidEpoch));
        }
    }

    /// Push an egress port's foreground-presence state (packets queued or
    /// serializing) into the fluid solver; reschedules the pending epoch
    /// when the bandwidth split changed. Cheap no-op for ports carrying no
    /// fluid load (every host NIC among them).
    fn fluid_sync_port(&mut self, node: NodeId, port: u16, now: Time) {
        let p = self.port(node, port);
        let presence = p.busy || p.queued_bytes > 0;
        let fluid = self.fluid.as_deref_mut();
        if fluid.is_some_and(|f| f.set_presence(node, port, presence, now)) {
            self.fluid_reschedule(now);
        }
    }

    /// Apply fault-schedule transition `idx` at its scheduled time.
    fn on_fault(&mut self, idx: u32, now: Time) {
        self.counters.fault_events += 1;
        let kind = self
            .cfg
            .faults
            .as_ref()
            // simlint::allow(hot-path-unwrap, Fault events are only scheduled from an installed schedule)
            .expect("Fault event without a fault schedule")
            .events[idx as usize]
            .kind;
        match kind {
            FaultKind::LinkDown { node, port } => self.set_link_down(node, port, true, now),
            FaultKind::LinkUp { node, port } => self.set_link_down(node, port, false, now),
            FaultKind::DegradeStart {
                node,
                port,
                rate_factor,
                extra_prop,
            } => self.set_degrade(node, port, Some((rate_factor, extra_prop))),
            FaultKind::DegradeEnd { node, port } => self.set_degrade(node, port, None),
            FaultKind::PauseStart { node, port, prio } => {
                self.set_storm(node, port, prio, true, now)
            }
            FaultKind::PauseEnd { node, port, prio } => {
                self.set_storm(node, port, prio, false, now)
            }
        }
    }

    /// The two directions of the link at `(node, port)`: that attachment
    /// and its peer's.
    fn link_ends(&self, node: NodeId, port: u16) -> [(NodeId, u16); 2] {
        let p = self.port(node, port);
        [(node, port), (p.peer, p.peer_port)]
    }

    /// Take a link (both attachments) down, or bring it back up. While down,
    /// neither attachment serializes and every non-PFC packet in flight on
    /// the link is dropped at arrival; on recovery both sides are kicked so
    /// queued traffic resumes.
    fn set_link_down(&mut self, node: NodeId, port: u16, down: bool, now: Time) {
        let ends = self.link_ends(node, port);
        for (n, p) in ends {
            self.port_mut(n, p).down = down;
        }
        for (n, p) in ends {
            self.fault_fluid_sync(n, p, now);
            if !down {
                self.kick(n, p, now);
            }
        }
    }

    /// Begin (`Some((rate_factor, extra_prop))`) or end (`None`) a
    /// degradation epoch on both directions of the link at `(node, port)`.
    /// Applied at dequeue time, so already-queued packets see the regime
    /// active when they reach the head of line.
    fn set_degrade(&mut self, node: NodeId, port: u16, eff: Option<(f64, Time)>) {
        for (n, p) in self.link_ends(node, port) {
            self.port_mut(n, p).degrade = eff;
        }
    }

    /// Pin (or release) a persistent PFC pause on `node`'s egress
    /// attachment `port` for `prio` — a pause storm. While pinned, genuine
    /// PFC frames addressed to that attachment are swallowed so the pin
    /// holds; on release the pause bit is restored from the peer's real
    /// pause authority (its ingress pause state).
    fn set_storm(&mut self, node: NodeId, port: u16, prio: u8, on: bool, now: Time) {
        let [_, (peer, peer_port)] = self.link_ends(node, port);
        let peer_pauses = |ps: &Switch| ps.ingress_paused[peer_port as usize][prio as usize];
        let paused = on || self.nodes[peer as usize].as_switch().is_some_and(peer_pauses);
        let p = self.port_mut(node, port);
        p.set_storm(prio as usize, on);
        p.set_paused(prio as usize, paused);
        if prio == 0 {
            self.fault_fluid_sync(node, port, now);
        }
        if !paused {
            self.kick(node, port, now);
        }
    }

    /// Recompute the effective fluid pause on an egress attachment: fluid
    /// service halts while the link is down or priority 0 (the class fluid
    /// traffic rides) is paused, genuinely or storm-pinned.
    fn fault_fluid_sync(&mut self, node: NodeId, port: u16, now: Time) {
        let p = self.port(node, port);
        let halted = p.is_paused(0) || p.down;
        let fluid = self.fluid.as_deref_mut();
        if fluid.is_some_and(|f| f.set_paused(node, port, halted, now)) {
            self.fluid_reschedule(now);
        }
    }

    /// Retire a packet caught in flight on a dead link. Data losses are
    /// reported to the audit's conservation tallies (unless the
    /// [`Buggify::FaultDropUnaccounted`] self-test suppresses that to prove
    /// the audit notices); control losses are counted in
    /// [`SimCounters::fault_ctrl_drops`] but never audited, since control
    /// packets are not part of the injected tallies.
    fn fault_drop(&mut self, pid: PacketId) {
        let (is_data, wire) = {
            let pkt = self.arena.get(pid);
            (pkt.kind.is_data(), pkt.size as u64)
        };
        if is_data {
            self.counters.fault_link_drops += 1;
            if self.switch_cfg.buggify != Some(Buggify::FaultDropUnaccounted) {
                if let Some(a) = self.audit.as_deref_mut() {
                    a.on_link_drop(wire);
                }
            }
        } else {
            self.counters.fault_ctrl_drops += 1;
        }
        // `release` also returns a dropped INT carrier's telemetry box to
        // the pool.
        self.arena.release(pid);
    }

    /// Give the attachment at `(node, port)` a chance to transmit: the one
    /// re-kick used after a serialization ends, a PFC resume, a link
    /// recovery and a storm release.
    fn kick(&mut self, node: NodeId, port: u16, now: Time) {
        match &self.nodes[node as usize] {
            Node::Switch(_) => self.switch_dequeue(node, port, now),
            Node::Host(_) => self.host_poke(node, now),
        }
    }

    /// The link layer's transmit step — the only place a packet goes onto a
    /// wire. Marks the port busy, counts the bytes, and schedules the end
    /// of serialization ([`Event::PortFree`]) and then the arrival at the
    /// peer, at the link's effective rate and delay (degradation epochs
    /// included). `owed` is extra bytes the packet serializes behind (fluid
    /// FIFO emulation), `extra` extra one-way delay (non-congestive delay);
    /// both are zero for host NICs.
    fn transmit(
        &mut self,
        node: NodeId,
        port: u16,
        pid: PacketId,
        owed: u64,
        extra: Time,
        now: Time,
    ) {
        let size = self.arena.get(pid).size as u64;
        let p = self.port_mut(node, port);
        p.busy = true;
        p.tx_bytes += size;
        let (peer, in_port) = (p.peer, p.peer_port);
        let (rate, prop) = p.effective_link();
        let ser = rate.serialize_time(size.saturating_add(owed));
        self.queue
            .schedule(now + ser, Event::PortFree { node, port });
        self.queue.schedule(
            now + ser + prop + extra,
            Event::Arrive {
                node: peer,
                in_port,
                pkt: pid,
            },
        );
    }

    /// Try to start transmitting the next packet on a switch egress port.
    fn switch_dequeue(&mut self, node: NodeId, port: u16, now: Time) {
        // Hybrid coupling: fluid backlog at this port consumes buffer (PFC
        // resume threshold).
        let fluid_occ = match self.fluid.as_deref() {
            Some(f) => f.occupancy_bytes(node, port, now),
            None => 0,
        };
        let Node::Switch(s) = &mut self.nodes[node as usize] else {
            return;
        };
        let p = &mut s.ports[port as usize];
        // A dead egress moves nothing until LinkUp kicks this port.
        if p.down || p.busy {
            return;
        }
        let Some(pid) = p.dequeue(&self.arena) else {
            return;
        };
        let nq = p.queues.len();
        let mut resumes = Vec::new();
        s.on_dequeue(self.arena.get(pid), fluid_occ, &mut resumes);
        let (is_data, prio) = {
            let pkt = self.arena.get(pid);
            (pkt.kind.is_data(), pkt.prio)
        };
        // Hybrid coupling: a data-class packet leaving a fluid-loaded port
        // serializes behind the fluid bytes injected before its admission
        // that have neither drained nor been charged to an earlier packet
        // (FIFO emulation; see `fluid::FluidState::pop_stamp`).
        let fluid_owed = match self.fluid.as_deref_mut() {
            Some(f) if queue_index(prio, nq) == 0 => f.pop_stamp(node, port, now),
            _ => 0,
        };
        let nc = match &self.switch_cfg.nc_delay {
            Some(nc) if is_data => nc.sample(&mut self.nc_rng),
            _ => Time::ZERO,
        };
        self.transmit(node, port, pid, fluid_owed, nc, now);
        if self.switch_cfg.int_enabled && is_data {
            // Read after the transmit step, so telemetry reports this
            // packet's bytes and the effective (possibly degraded) rate.
            let p = self.port(node, port);
            let rec = IntHop {
                qlen: p.queued_bytes_q[prio as usize],
                tx_bytes: p.tx_bytes,
                ts: now,
                rate_bps: p.effective_link().0.as_bps(),
            };
            let pushed = self.arena.append_int(pid, rec);
            debug_assert!(
                pushed,
                "INT path saturated at switch {node}: {} hops means a routing loop",
                crate::packet::INT_MAX_HOPS
            );
        }
        self.emit_pfc(node, &resumes, false, now);
    }

    /// Send PFC pause/resume frames upstream out-of-band.
    fn emit_pfc(&mut self, node: NodeId, list: &[(u16, u8)], pause: bool, now: Time) {
        for &(in_port, prio) in list {
            let p = self.port(node, in_port);
            let (peer, peer_port, prop) = (p.peer, p.peer_port, p.prop);
            if pause {
                self.counters.pfc_pauses += 1;
            } else {
                self.counters.pfc_resumes += 1;
            }
            if let Some(a) = self.audit.as_deref_mut() {
                a.on_pfc_frame(now, node, in_port, prio, pause);
            }
            let pid = self.arena.alloc(Packet::pfc(node, peer, prio, pause));
            self.queue.schedule(
                now + prop,
                Event::Arrive {
                    node: peer,
                    in_port: peer_port,
                    pkt: pid,
                },
            );
        }
    }

    fn on_arrive(&mut self, node: NodeId, in_port: u16, pkt: PacketId, now: Time) {
        if let PktTag::Pfc { prio, pause } = self.arena.get(pkt).kind {
            return self.on_pfc_frame(node, in_port, pkt, prio, pause, now);
        }
        if self.port(node, in_port).down {
            // A dead link drops everything in flight on it — except PFC
            // frames (handled above), which model an out-of-band reliable
            // control plane.
            return self.fault_drop(pkt);
        }
        match &self.nodes[node as usize] {
            Node::Switch(_) => self.switch_arrive(node, in_port, pkt, now),
            Node::Host(_) => self.host_arrive(node, pkt, now),
        }
    }

    /// A PFC frame reached the MAC of `(node, port)` — a switch port or a
    /// host NIC alike. Consumed here, never queued: sets or clears the
    /// egress pause bit and, on a resume, kicks the attachment.
    fn on_pfc_frame(
        &mut self,
        node: NodeId,
        port: u16,
        pid: PacketId,
        prio: u8,
        pause: bool,
        now: Time,
    ) {
        self.arena.release(pid);
        let p = self.port_mut(node, port);
        if p.is_stormed(prio as usize) {
            // Storm pin holds: genuine frames are swallowed. The peer's
            // pause authority is re-read at storm release (`set_storm`).
            return;
        }
        p.set_paused(prio as usize, pause);
        if prio == 0 {
            // Hybrid coupling: a pause of the lowest data priority — the
            // class fluid background traffic rides — halts fluid service on
            // this egress port until resume. Composited with the fault
            // state (a down link also halts fluid service).
            self.fault_fluid_sync(node, port, now);
        }
        if !pause {
            self.kick(node, port, now);
        }
    }

    fn switch_arrive(&mut self, node: NodeId, in_port: u16, pid: PacketId, now: Time) {
        let (dst, flow, is_data, data_q, dscp) = {
            let pkt = self.arena.get(pid);
            (
                pkt.dst,
                pkt.flow,
                pkt.kind.is_data(),
                pkt.prio as usize,
                pkt.dscp,
            )
        };
        let egress = self.routes.port_for(node, dst, flow);
        // Hybrid coupling: projected fluid backlog at the egress inflates
        // the occupancy ECN sees and shrinks the free buffer DT/PFC use.
        let fluid_occ = match self.fluid.as_deref() {
            Some(f) => f.occupancy_bytes(node, egress, now),
            None => 0,
        };
        let Node::Switch(s) = &mut self.nodes[node as usize] else {
            unreachable!()
        };
        let mut ecn_info = None;
        if is_data {
            let q_pre = s.ports[egress as usize].queued_bytes_q[data_q] + fluid_occ;
            let marked = s.ecn_mark(egress, data_q, dscp, fluid_occ, &mut self.ecn_rng);
            if marked {
                self.arena.get_mut(pid).ecn_ce = true;
                self.counters.ecn_marks += 1;
            }
            ecn_info = Some((q_pre, dscp, marked));
        }
        let info = SwitchArrive {
            node,
            in_port,
            egress,
            queue: queue_index(self.arena.get(pid).prio, s.ports[egress as usize].queues.len())
                as u8,
            wire: self.arena.get(pid).size as u64,
            is_data,
            dropped: false,
            ecn: ecn_info,
            fluid_occ,
        };
        let mut pauses = Vec::new();
        let admission = s.admit(egress, in_port, pid, fluid_occ, &mut self.arena, &mut pauses);
        // The `s` borrow ends here so the audit can re-inspect the switch.
        if let (Some(a), Some(sw)) = (self.audit.as_deref_mut(), self.nodes[node as usize].as_switch()) {
            a.note_switch_arrive(
                now,
                &SwitchArrive {
                    dropped: admission == Admission::Dropped,
                    ..info
                },
                sw,
            );
        }
        match admission {
            Admission::Dropped => {
                self.counters.drops += 1;
            }
            Admission::Queued => {
                if self.fluid.is_some() {
                    // Hybrid coupling: admitted data-class packets get a
                    // FIFO stamp of the fluid mass logically ahead of them
                    // in the shared queue, and the queue just became (or
                    // stayed) non-empty.
                    if info.queue == 0 {
                        if let Some(f) = self.fluid.as_deref_mut() {
                            f.push_stamp(node, egress, now);
                        }
                    }
                    self.fluid_sync_port(node, egress, now);
                }
                self.emit_pfc(node, &pauses, true, now);
                self.switch_dequeue(node, egress, now);
            }
        }
    }

    fn host_arrive(&mut self, node: NodeId, pid: PacketId, now: Time) {
        match self.arena.get(pid).kind {
            PktTag::Data => {
                self.counters.data_delivered += 1;
                if let Some(a) = self.audit.as_deref_mut() {
                    let pkt = self.arena.get(pid);
                    a.on_data_delivered(now, pkt.flow, pkt.size as u64);
                }
                debug_assert_eq!(self.arena.get(pid).dst, node, "data packet misrouted");
                self.receiver_data(node, pid, now);
            }
            PktTag::Probe => {
                let (flow, src, ts_tx, in_prio) = {
                    let pkt = self.arena.get(pid);
                    debug_assert_eq!(pkt.dst, node);
                    (pkt.flow, pkt.src, pkt.ts_tx, pkt.prio)
                };
                self.arena.release(pid);
                // Echo the probe back at the same priority it came in on
                // (probe echoes measure the reverse control path like ACKs).
                let info = AckInfo {
                    cum_bytes: 0,
                    acked_seq: 0,
                    acked_bytes: 0,
                    ts_echo: ts_tx,
                    ecn_echo: false,
                    nack: None,
                    int: None,
                };
                let prio = self.ack_prio(in_prio);
                let ack = Packet::ack(flow, node, src, prio, info, true, now);
                self.host_enqueue_control(node, ack, now);
            }
            // ACKs and probe echoes. `on_arrive` consumed any PFC frame at
            // the MAC, and `sender_ack` rejects every other tag.
            _ => {
                debug_assert_eq!(self.arena.get(pid).dst, node, "ack misrouted");
                self.sender_ack(node, pid, now);
            }
        }
    }

    fn ack_prio(&self, data_prio: u8) -> u8 {
        match self.cfg.ack_prio {
            AckPriority::Control => self.cfg.num_prios,
            AckPriority::SameAsData => data_prio,
        }
    }

    /// Receiver-side handling of a data segment: update reassembly state,
    /// emit a per-packet ACK, record delivery/completion. Consumes the
    /// arena slot: the data packet is retired and its slot immediately
    /// reused (LIFO) by the ACK this method emits.
    fn receiver_data(&mut self, node: NodeId, pid: PacketId, now: Time) {
        let (fid, src, seq, payload, ts_tx, ecn_ce, in_prio) = {
            let pkt = self.arena.get(pid);
            (
                pkt.flow,
                pkt.src,
                pkt.seq,
                pkt.payload,
                pkt.ts_tx,
                pkt.ecn_ce,
                pkt.prio,
            )
        };
        let live = self.flows[fid as usize].live;
        let (cum_bytes, nack) = if live == u32::MAX {
            // The sender already finished and its state was reclaimed: this
            // packet is a stale duplicate (a retransmission racing the final
            // ACK). Reproduce exactly the ACK the live path would emit — the
            // receiver had every byte (`cum == size`) and a duplicate below
            // `cum` delivers no new bytes and never NACKs — so the event
            // sequence is bit-identical whether or not reclamation happened.
            (self.flows[fid as usize].spec.size, None)
        } else {
            let flow = &mut self.flows[fid as usize];
            let fl = self.live.get_mut(live);
            let (new_bytes, nack) = fl.recv.on_data(seq, payload as u64, self.lossy);
            flow.record.delivered = fl.recv.delivered;
            if new_bytes > 0 {
                if let Some(t) = self.traces.get_mut(&fid) {
                    if let Some(m) = &mut t.throughput {
                        m.record(now, new_bytes);
                    }
                }
            }
            if !fl.recv.done && fl.recv.cum >= flow.spec.size {
                fl.recv.done = true;
                flow.record.finish = Some(now);
                if let Some(st) = self.streaming.as_deref_mut() {
                    st.on_complete(&flow.record, now);
                }
                self.completed_buf.push(fid);
            }
            (fl.recv.cum, nack)
        };
        // Detach the INT record (it rides the ACK back to the sender), then
        // retire the data packet before allocating the ACK so the ACK reuses
        // the same cache-hot slot.
        let int = self.arena.take_int(pid);
        self.arena.release(pid);
        let info = AckInfo {
            cum_bytes,
            acked_seq: seq,
            acked_bytes: payload,
            ts_echo: ts_tx,
            ecn_echo: ecn_ce,
            nack,
            int,
        };
        let prio = self.ack_prio(in_prio);
        let ack = Packet::ack(fid, node, src, prio, info, false, now);
        self.host_enqueue_control(node, ack, now);
    }

    /// Sender-side handling of an ACK or probe echo. Consumes the arena
    /// slot; the echoed INT box (if any) returns to the arena's recycle
    /// stack after the transport callback.
    fn sender_ack(&mut self, node: NodeId, pid: PacketId, now: Time) {
        let fid = self.arena.get(pid).flow;
        if !self.flows[fid as usize].active {
            self.arena.release(pid);
            return;
        }
        if let Some(a) = self.audit.as_deref_mut() {
            a.touch_flow(fid);
        }
        let f = &self.flows[fid as usize];
        let live = f.live;
        // Take the AckInfo out of the cold plane so the slot can be retired
        // before the transport runs.
        let kind = match self.arena.get(pid).kind {
            PktTag::Ack => AckKind::Data,
            PktTag::ProbeAck => AckKind::Probe,
            _ => unreachable!("sender_ack dispatched on a non-ack tag"),
        };
        let info = match self.arena.take_ack(pid) {
            Some(info) => info,
            None => unreachable!("an ack tag always has a cold-plane payload"),
        };
        self.arena.release(pid);
        // Normalize the measured delay to the data base RTT: probes have a
        // smaller no-queue RTT, so shift by the difference; then apply
        // measurement noise (additive, §4.3.2).
        let raw = now - info.ts_echo;
        let normalized = match kind {
            AckKind::Data => raw,
            AckKind::Probe => raw + f.params.base_rtt.saturating_sub(f.params.base_rtt_probe),
        };
        let noise = self.cfg.meas_noise.sample(&mut self.noise_rng);
        let delay = normalized + noise;
        let ack = AckEvent {
            kind,
            delay,
            cum_bytes: info.cum_bytes,
            acked_seq: info.acked_seq,
            acked_bytes: info.acked_bytes,
            ecn_echo: info.ecn_echo,
            nack: info.nack,
            int: info.int,
        };
        {
            let mut ctx = Self::ctx(&mut self.queue, &mut self.traces, now, fid);
            self.live.get_mut(live).transport.on_ack(&ack, &mut ctx);
        }
        // The transport only borrows the AckEvent, so the INT box comes
        // back here — return it to the pool instead of freeing it.
        if let Some(boxed) = ack.int {
            self.arena.recycle_int(boxed);
        }
        if self.live.get(live).transport.is_finished() {
            let f = &mut self.flows[fid as usize];
            f.active = false;
            let (src, prio) = (f.spec.src, f.spec.phys_prio);
            if let Node::Host(h) = &mut self.nodes[src as usize] {
                h.deactivate(prio, fid);
            }
            self.release_flow_state(fid);
        }
        self.host_poke(node, now);
    }

    /// Release a finished flow's live-state slab slot, snapshotting the
    /// transport's retransmit count into the record first. The
    /// [`Buggify::FlowReclaimLeak`] self-test skips the release so the audit
    /// deep scan's flow-state sweep can prove it notices the leak.
    fn release_flow_state(&mut self, fid: FlowId) {
        if self.switch_cfg.buggify == Some(Buggify::FlowReclaimLeak) {
            return;
        }
        let f = &mut self.flows[fid as usize];
        if f.live == u32::MAX {
            return;
        }
        let slot = f.live;
        f.live = u32::MAX;
        let fl = self.live.release(slot);
        f.record.retransmits = fl.transport.retransmits();
    }

    /// Queue a locally generated control packet (ACK/probe echo) on the
    /// host's NIC and kick transmission.
    fn host_enqueue_control(&mut self, node: NodeId, pkt: Packet, now: Time) {
        let pid = self.arena.alloc(pkt);
        self.nodes[node as usize].ports_mut()[0].enqueue(pid, &self.arena);
        self.host_poke(node, now);
    }

    /// The host NIC pull loop: if the NIC is idle, select the next packet
    /// (queued control first, then strict-priority pull across flows) and
    /// start transmitting it.
    fn host_poke(&mut self, node: NodeId, now: Time) {
        let Node::Host(h) = &mut self.nodes[node as usize] else {
            panic!("host_poke on switch {node}")
        };
        // On a dead NIC link transports stay queued; LinkUp (or the next
        // transport timer after recovery) re-pokes.
        if h.port.down || h.port.busy {
            return;
        }
        let mut min_retry = Time::MAX;
        let mut selected: Option<PacketId> = None;
        let mut finished: Vec<FlowId> = Vec::new();
        let nq = h.port.queues.len();
        'prio: for q in (0..nq).rev() {
            // Queued packets (ACKs, probe echoes) first within priority.
            // The control queue (index nq-1) is never PFC-paused.
            let paused = q < nq - 1 && h.port.is_paused(q);
            if !paused {
                selected = h.port.pop_queue(q, &self.arena);
                if selected.is_some() {
                    break 'prio;
                }
            }
            if q >= h.active.len() || paused {
                continue;
            }
            // Pull from transports at this data priority, round-robin.
            let len = h.active[q].len();
            let first_finished = finished.len();
            // One lap from the round-robin cursor, wrapping by compare: a
            // `%` here is a 64-bit divide per candidate flow.
            let mut idx = h.rr[q];
            for _ in 0..len {
                if idx >= len {
                    idx = 0;
                }
                let fid = h.active[q][idx];
                let f = &self.flows[fid as usize];
                let fl = self.live.get_mut(f.live);
                match fl.transport.try_send(now) {
                    TrySend::Data { seq, bytes } => {
                        let mut ctx = Self::ctx(&mut self.queue, &mut self.traces, now, fid);
                        fl.transport.on_sent(TrySend::Data { seq, bytes }, &mut ctx);
                        let mut pkt = Packet::data(
                            fid,
                            node,
                            f.spec.dst,
                            f.spec.phys_prio,
                            bytes,
                            seq,
                            now,
                        );
                        pkt.header.dscp = f.spec.virt_prio;
                        if let Some(a) = self.audit.as_deref_mut() {
                            a.on_data_injected(fid, pkt.header.size as u64);
                        }
                        h.rr[q] = if idx + 1 == len { 0 } else { idx + 1 };
                        selected = Some(self.arena.alloc(pkt));
                        break;
                    }
                    TrySend::Probe => {
                        let mut ctx = Self::ctx(&mut self.queue, &mut self.traces, now, fid);
                        fl.transport.on_sent(TrySend::Probe, &mut ctx);
                        self.counters.probes += 1;
                        let pkt = Packet::probe(fid, node, f.spec.dst, f.spec.phys_prio, now);
                        h.rr[q] = if idx + 1 == len { 0 } else { idx + 1 };
                        selected = Some(self.arena.alloc(pkt));
                        break;
                    }
                    TrySend::NotBefore(t) => {
                        min_retry = min_retry.min(t);
                    }
                    TrySend::Blocked => {}
                    TrySend::Finished => finished.push(fid),
                }
                idx += 1;
            }
            for &fid in &finished[first_finished..] {
                self.flows[fid as usize].active = false;
                h.deactivate(q as u8, fid);
            }
            if selected.is_some() {
                break 'prio;
            }
        }
        if selected.is_none() && min_retry != Time::MAX {
            let at = min_retry.max(now + Time::from_ps(1));
            if at < h.next_poke {
                h.next_poke = at;
                self.queue.schedule(at, Event::HostPoke { node });
            }
        }
        // `h` no longer borrows `self.nodes`; nothing above allocates a slab
        // slot, so releasing here leaves the free list as if done in place.
        for fid in finished {
            self.release_flow_state(fid);
        }
        if let Some(pid) = selected {
            self.transmit(node, 0, pid, 0, Time::ZERO, now);
        }
    }

    fn on_sample(&mut self, monitor: u32, now: Time) {
        let m = &mut self.monitors[monitor as usize];
        match m.kind {
            MonitorKind::QueueBytes { node, port } => {
                let bytes = self.nodes[node as usize].ports()[port as usize].queued_bytes;
                m.record_gauge(now, bytes as f64);
            }
            MonitorKind::QueueBytesPrio { node, port, prio } => {
                let port = &self.nodes[node as usize].ports()[port as usize];
                m.record_gauge(now, port.queued_bytes_q[prio as usize] as f64);
            }
            MonitorKind::PortThroughput { node, port } => {
                let tx = self.nodes[node as usize].ports()[port as usize].tx_bytes;
                m.record_tx(now, tx);
            }
            MonitorKind::SwitchBuffer { node } => {
                let buffered = self.nodes[node as usize].as_switch().map_or(0, |s| s.total_buffered);
                m.record_gauge(now, buffered as f64);
            }
        }
        if now + m.period < self.cfg.end_time {
            let period = m.period;
            self.queue.schedule(now + period, Event::Sample { monitor });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultSchedule;
    use simcore::Rate;

    /// Hosts and switches share one PFC-frame handler: a resume addressed
    /// to a storm-pinned priority is swallowed — frame released, pause bit
    /// held — on a host NIC and on a switch port alike, while the same
    /// frame for an unpinned priority clears the bit.
    #[test]
    fn storm_pinned_resume_is_swallowed_on_host_nic_and_switch_port_alike() {
        let topo = Topology::single_switch(2, Rate::from_gbps(100), Time::from_us(1));
        let (host, switch) = (1, 3);
        let mut faults = FaultSchedule::new();
        for node in [host, switch] {
            faults.push(Time::ZERO, FaultKind::PauseStart { node, port: 0, prio: 0 });
        }
        let cfg = SimConfig {
            faults: Some(faults),
            ..Default::default()
        };
        let mut sim = Sim::new(&topo, cfg, SwitchConfig::default());
        sim.on_fault(0, Time::ZERO);
        sim.on_fault(1, Time::ZERO);
        for node in [host, switch] {
            let is_host = matches!(sim.nodes[node as usize], Node::Host(_));
            assert_eq!(is_host, node == host, "node {node}");
            sim.port_mut(node, 0).set_paused(1, true);
            for prio in [0, 1] {
                let peer = sim.port(node, 0).peer;
                let frame = sim.arena.alloc(Packet::pfc(peer, node, prio, false));
                sim.on_arrive(node, 0, frame, Time::from_us(1));
            }
            assert_eq!(sim.arena.live_count(), 0, "PFC frames are consumed, never queued");
            let p = sim.port(node, 0);
            assert!(p.is_paused(0), "node {node}: the storm pin swallows the resume");
            assert!(!p.is_paused(1), "node {node}: an unpinned priority resumes");
        }
    }

    /// The whole point of the packet arena: events stay a few machine words
    /// so the scheduler backends sift small entries. If `Event` grows past
    /// 16 bytes (or an `Entry<Event>` past 40), someone put a payload back
    /// into the queue by value — route it through the arena instead. A
    /// pending entry outside the calendar's current day occupies one slab
    /// node: the entry plus a 4-byte link.
    #[test]
    fn event_stays_slim() {
        assert!(
            std::mem::size_of::<Event>() <= 16,
            "Event grew to {} bytes; keep payloads in the packet arena",
            std::mem::size_of::<Event>()
        );
        assert!(
            std::mem::size_of::<simcore::Entry<Event>>() <= 40,
            "Entry<Event> grew to {} bytes",
            std::mem::size_of::<simcore::Entry<Event>>()
        );
        let node = simcore::sched::CalendarQueue::<Event>::NODE_BYTES;
        assert!(node <= 48, "calendar slab node grew to {node} bytes");
    }
}
