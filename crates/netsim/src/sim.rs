//! The simulator: construction, flow registration, the event loop and the
//! switch/host event handlers. The data they work on is in `state.rs`.

use std::collections::BTreeMap;
use std::sync::Arc;

use simcore::stats::ThroughputMeter;
use simcore::{EventQueue, Rate, SimRng, Time};

use crate::audit::{Audit, AuditConfig, SwitchArrive, ViolationKind};
use crate::config::{AckPriority, Buggify, SimConfig, SwitchConfig};
use crate::faults::FaultKind;
use crate::monitor::{Monitor, MonitorKind};
use crate::node::{queue_index, Admission, EgressPort, Host, Node, Switch};
use crate::packet::{
    AckInfo, FlowId, IntHop, NodeId, Packet, PacketArena, PacketId, PktTag, CONTROL_BYTES,
    HEADER_BYTES,
};
use crate::record::{FlowRecord, FlowTrace, SimCounters, SimResult, StreamingStats};
use crate::routing::RoutingTable;
use crate::state::{Env, Flow, FlowLive, FlowSlab, RecvState, State};
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
pub use crate::state::FlowSpec;

/// The simulator: the shared, immutable `Env` of a run plus the one copy
/// of its mutable `State`. The two user callbacks sit beside them — they
/// hold arbitrary user state, take the whole `Sim`, and are why a run that
/// has one installed cannot be snapshotted.
pub struct Sim {
    pub(crate) env: Arc<Env>,
    pub(crate) state: State,
    pub(crate) app: Option<Box<dyn App>>,
    /// Open-loop arrival source ([`Event::Inject`]); `None` between the
    /// final injection and the end of the run, and for closed workloads.
    pub(crate) arrivals: Option<Box<dyn ArrivalSource>>,
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
        let streaming = cfg
            .streaming_stats
            // simlint::allow(hot-path-alloc, one streaming box per run at construction, not per event)
            .then(|| Box::new(StreamingStats::default()));
        for ev in cfg.faults.iter().flat_map(|s| &s.events) {
            let (node, port) = ev.kind.link();
            if port_at(node, port).is_none() {
                panic!("fault schedule targets nonexistent link attachment ({node}, {port})");
            }
        }
        let mut queue = EventQueue::new();
        declare_link_delays(&mut queue, topo, cfg.mtu);
        let state = State {
            nodes,
            flows: Vec::new(),
            live: FlowSlab::default(),
            arena: PacketArena::new(),
            queue,
            counters: SimCounters::default(),
            monitors: Vec::new(),
            traces: BTreeMap::new(),
            noise_rng: SimRng::new(seed).split(1),
            ecn_rng: SimRng::new(seed).split(2),
            nc_rng: SimRng::new(seed).split(3),
            streaming,
            completed_buf: Vec::new(),
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
        };
        let lossy = !switch_cfg.pfc_enabled;
        Sim {
            env: Arc::new(Env {
                cfg,
                switch_cfg,
                routes,
                lossy,
            }),
            state,
            app: None,
            arrivals: None,
        }
    }

    /// Enable the invariant-audit layer with default settings.
    pub fn enable_audit(&mut self) {
        self.enable_audit_with(AuditConfig::default());
    }

    /// Enable the invariant-audit layer with explicit settings.
    pub fn enable_audit_with(&mut self, cfg: AuditConfig) {
        // simlint::allow(hot-path-alloc, one audit box per run at enablement, not per event)
        self.state.audit = Some(Box::new(Audit::new(cfg)));
    }

    /// True when the audit layer is enabled for this run.
    pub fn audit_enabled(&self) -> bool {
        self.state.audit.is_some()
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
        self.state.live.occupancy
    }

    /// Current simulated time.
    pub fn now(&self) -> Time {
        self.state.queue.now()
    }

    /// The record of a flow (live view during the run for [`App`]s).
    pub fn record(&self, flow: FlowId) -> &FlowRecord {
        &self.state.flows[flow as usize].record
    }

    /// The simulator's configuration.
    pub fn config(&self) -> &SimConfig {
        &self.env.cfg
    }

    /// The switch configuration.
    pub fn switch_config(&self) -> &SwitchConfig {
        &self.env.switch_cfg
    }

    /// True when `other` runs in the very same [`Env`] allocation — forks
    /// of one snapshot do; the routing table is shared, not copied per fork.
    #[doc(hidden)]
    pub fn shares_env_with(&self, other: &Sim) -> bool {
        Arc::ptr_eq(&self.env, &other.env)
    }

    /// Compute per-flow parameters (base RTTs, line rate) for a prospective
    /// flow, so transport factories can be configured before registration.
    pub fn flow_params(&self, spec: &FlowSpec, flow: FlowId) -> FlowParams {
        let cfg = &self.env.cfg;
        let line_rate = self.state.port(spec.src, 0).rate;
        let data_wire = (cfg.mtu + HEADER_BYTES) as u64;
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
            mtu: cfg.mtu,
            virt_prio: spec.virt_prio,
            seed: SimRng::new(cfg.seed)
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
            let port = self.env.routes.port_for(node, dst, flow);
            let p = self.state.port(node, port);
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
        let cfg = &self.env.cfg;
        assert!(
            spec.phys_prio < cfg.num_prios,
            "phys_prio {} out of range (num_prios {})",
            spec.phys_prio,
            cfg.num_prios
        );
        assert!(spec.size > 0, "zero-size flow");
        let id = self.state.flows.len() as FlowId;
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
        let st = &mut self.state;
        if cfg.trace_flows {
            st.traces.insert(
                id,
                FlowTrace {
                    throughput: Some(ThroughputMeter::new(cfg.trace_bucket)),
                    ..Default::default()
                },
            );
        }
        st.queue.schedule(spec.start, Event::FlowStart { flow: id });
        let live = st.live.alloc(FlowLive {
            transport,
            recv: RecvState::default(),
        });
        st.flows.push(Flow {
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
        let idx = self.state.monitors.len();
        self.state.monitors.push(Monitor::new(label, kind, period));
        idx
    }

    /// Egress port index a switch uses toward `dst` for `flow` (exposed for
    /// tests and monitor setup).
    pub fn route_port(&self, node: NodeId, dst: NodeId, flow: FlowId) -> u16 {
        self.env.routes.port_for(node, dst, flow)
    }

    /// Schedule the run-level bootstrap events (End, first Inject, monitor
    /// samples, the fault schedule). Runs once, on whichever of
    /// [`Self::run`] / [`Self::run_until`] is called first; a restored
    /// simulation carries `started = true`, so the bootstrap is never
    /// re-applied to forked state.
    fn ensure_started(&mut self) {
        let (cfg, st) = (&self.env.cfg, &mut self.state);
        if st.started {
            return;
        }
        st.started = true;
        st.queue.schedule(cfg.end_time, Event::End);
        if self.arrivals.is_some() {
            st.queue.schedule(Time::ZERO, Event::Inject);
        }
        for (i, m) in st.monitors.iter().enumerate() {
            st.queue
                .schedule(m.period, Event::Sample { monitor: i as u32 });
        }
        // The fault schedule is fixed up-front: every transition becomes a
        // first-class event through the same queue as data traffic, so
        // fault runs stay bit-identical across repeats.
        for (i, ev) in cfg.faults.iter().flat_map(|s| &s.events).enumerate() {
            st.queue.schedule(ev.at, Event::Fault { idx: i as u32 });
        }
    }

    /// The event loop: dispatch batch after batch until the run is over
    /// (queue drained or [`Event::End`] fired) or, with a horizon, until the
    /// next batch would be at or past it. The loop itself is
    /// [`State::advance`], lent the [`Env`]; it comes back here only for the
    /// two things that hand the whole simulator to user code — an
    /// [`Event::Inject`] and [`App`] delivery — and is re-entered once the
    /// event that needed them is finished.
    fn pump(&mut self, until: Option<Time>) {
        loop {
            match self.state.advance(&self.env, until, self.app.is_some()) {
                Yield::Stopped => return,
                Yield::Inject => self.on_inject(),
                Yield::Completed => {}
            }
            if !self.state.completed_buf.is_empty() {
                // Taken out while it runs: the callback gets the whole `Sim`.
                if let Some(mut app) = self.app.take() {
                    for f in std::mem::take(&mut self.state.completed_buf) {
                        app.on_flow_complete(f, self);
                    }
                    self.app = Some(app);
                }
            }
            self.state.audit_boundary(&self.env, self.state.queue.now());
        }
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
            horizon <= self.env.cfg.end_time,
            "run_until horizon {horizon} past end_time {}",
            self.env.cfg.end_time
        );
        self.ensure_started();
        self.pump(Some(horizon));
    }

    /// Run to completion (all events drained or `end_time` reached).
    pub fn run(mut self) -> SimResult {
        self.ensure_started();
        self.pump(None);
        let st = self.state;
        let mut counters = st.counters;
        let end_time = st.queue.now();
        for sw in st.nodes.iter().filter_map(Node::as_switch) {
            counters.max_buffer_used = counters.max_buffer_used.max(sw.max_buffered);
        }
        let astats = st.arena.stats();
        counters.arena_allocs = astats.allocs;
        counters.arena_slab_slots = astats.slot_allocs;
        counters.arena_peak_live = astats.peak_live;
        counters.arena_int_allocs = astats.int_allocs;
        counters.arena_int_recycled = astats.int_recycled;
        counters.sched_pops = st.queue.pops();
        counters.sched_lane_pushes = st.queue.lane_pushes();
        counters.sched_ops =
            st.queue.sched_work().ops() + st.queue.lane_pushes() + st.queue.lane_pops();
        counters.sched_pending_peak = st.queue.pending_peak() as u64;
        counters.sched_bytes_peak = st.queue.resident_bytes() as u64;
        counters.flows_total = st.flows.len() as u64;
        counters.flow_live_peak = st.live.peak;
        counters.flow_slab_slots = st.live.slots.len() as u64;
        counters.flows_reclaimed = st.live.reclaimed;
        counters.flow_live_bytes_peak = st.live.peak_bytes;
        // Streaming mode returns empty records: quantiles come from the
        // sketches, and O(total flows) records would defeat the point of
        // streaming at hyperscale.
        let live = st.live;
        let records = if st.streaming.is_some() {
            Vec::new()
        } else {
            st.flows
                .into_iter()
                .map(|f| {
                    let mut r = f.record;
                    if f.live != u32::MAX {
                        // Unreclaimed (censored or leaked) flows still hold a
                        // transport; reclaimed ones snapshotted retransmits
                        // into the record at release time.
                        r.retransmits = live.get(f.live).transport.retransmits();
                    }
                    r
                })
                .collect()
        };
        SimResult {
            records,
            counters,
            traces: st.traces,
            monitors: st
                .monitors
                .into_iter()
                .map(|m| (m.label, m.series))
                .collect(),
            end_time,
            audit: st.audit.map(|a| a.into_report()),
            streaming: st.streaming,
        }
    }

    /// Handle [`Event::Inject`]: hand the simulator to the arrival source
    /// (take/put-back, same pattern as [`App`] delivery) and reschedule at
    /// the time it asks for.
    fn on_inject(&mut self) {
        let Some(mut src) = self.arrivals.take() else {
            return;
        };
        let now = self.state.queue.now();
        if let Some(next) = src.inject(self, now) {
            assert!(next > now, "arrival source must make progress");
            self.state.queue.schedule(next, Event::Inject);
            self.arrivals = Some(src);
        }
    }
}

/// Tell the queue which delays [`State::transmit`] will schedule at: per
/// link class `(rate, prop)`, the serialization time of a full data packet
/// and of a control packet, each with and without the propagation delay —
/// the four delays nearly every [`Event::PortFree`] and [`Event::Arrive`]
/// of that class carries, so they queue in FIFO lanes instead of the
/// queue's heap ([`EventQueue::declare_delay`]). Classes go in
/// descending order of how many links have them (ties in topology order),
/// so when there are more delays than lanes the refused ones are the rarest.
/// Only a hint: a flow's short tail packet, a degraded link, a
/// non-congestive delay or a refused class schedules through the heap,
/// in the same order either way.
fn declare_link_delays(queue: &mut EventQueue<Event>, topo: &Topology, mtu: u32) {
    let mut classes: Vec<(Rate, Time, usize)> = Vec::new();
    for &(_, _, link) in &topo.links {
        match classes
            .iter_mut()
            .find(|(rate, prop, _)| (*rate, *prop) == (link.rate, link.prop))
        {
            Some((_, _, links)) => *links += 1,
            None => classes.push((link.rate, link.prop, 1)),
        }
    }
    classes.sort_by_key(|&(_, _, links)| std::cmp::Reverse(links));
    for (rate, prop, _) in classes {
        for bytes in [mtu + HEADER_BYTES, CONTROL_BYTES] {
            let ser = rate.serialize_time(bytes as u64);
            queue.declare_delay(ser);
            queue.declare_delay(ser + prop);
        }
    }
}

/// Why [`State::advance`] came back.
enum Yield {
    /// The run is over — the queue drained or [`Event::End`] fired — or the
    /// next batch is at or past the horizon.
    Stopped,
    /// An [`Event::Inject`] is due: the arrival source takes the whole `Sim`.
    Inject,
    /// The event just dispatched completed flows an [`App`] is waiting for.
    Completed,
}

/// The event loop and its handlers. Each changes `State` and reads the
/// run's [`Env`]; none can reach the user callbacks on [`Sim`].
impl State {
    /// Dispatch same-timestamp batches — one scheduler interaction and one
    /// clock advance each, events served in `(time, seq)` order, so the
    /// per-event semantics (audit hooks, app delivery, boundary checks) are
    /// those of sequential dispatch — until the run stops or an event needs
    /// the whole [`Sim`] (see [`Yield`]). In the latter case the caller
    /// finishes that event (app delivery, [`Self::audit_boundary`]) and
    /// calls again; the rest of its batch is served first.
    ///
    /// What this loop does per event has to be compiled *into* it, and that
    /// is not automatic: rustc cuts the crate into codegen units by the
    /// module of each function's `Self` type, and LLVM's inliner works one
    /// unit at a time. A per-event callee filed elsewhere stays a call that
    /// hands its `Option<Event>` back through memory. Two such costs have
    /// been measured with alternating `ppbench` pairs, output identical in
    /// both: the queue's serve path ([`EventQueue`]'s `batch_next`,
    /// `pop_batch`, `pop_batch_before` and what they are made of —
    /// `scan_head`, `settle_head`, `take_batch`, `pop_lane` — instances of a
    /// `simcore` generic, so filed under `simcore::event`) cost 8–13 % of
    /// wall time on every workload until it carried `#[inline]`, which has
    /// rustc instantiate it in the caller's unit; and this loop cost 3–5 % CPU
    /// while it was a method of `Sim`, a unit away from the handlers.
    /// `scripts/check_hot_calls.sh` (CI leg 2) fails when the disassembly of
    /// `advance` calls any of them. (The heap's side of the queue —
    /// `pop_backend`, `retire_cancelled_head` — is out of line on purpose:
    /// a hundredth of the events.)
    fn advance(&mut self, env: &Env, until: Option<Time>, has_app: bool) -> Yield {
        loop {
            let now = self.queue.now();
            while let Some(ev) = self.queue.batch_next() {
                self.counters.events += 1;
                if let Some(a) = self.audit.as_deref_mut() {
                    let (kind, id) = ev.name_and_id();
                    a.on_event(now, kind, id);
                }
                match ev {
                    Event::End => return Yield::Stopped,
                    Event::Inject => return Yield::Inject,
                    Event::FlowStart { flow } => self.on_flow_start(env, flow, now),
                    Event::FlowTimer { flow, token } => self.on_flow_timer(env, flow, token, now),
                    Event::HostPoke { node } => {
                        if let Node::Host(h) = &mut self.nodes[node as usize] {
                            h.next_poke = Time::MAX;
                        }
                        self.host_poke(env, node, now);
                    }
                    Event::PortFree { node, port } => self.on_port_free(env, node, port, now),
                    Event::Arrive { node, in_port, pkt } => {
                        self.on_arrive(env, node, in_port, pkt, now)
                    }
                    Event::Sample { monitor } => self.on_sample(env, monitor, now),
                    Event::Fault { idx } => self.on_fault(env, idx, now),
                }
                if has_app && !self.completed_buf.is_empty() {
                    return Yield::Completed;
                }
                self.audit_boundary(env, now);
            }
            let next = match until {
                Some(horizon) => self.queue.pop_batch_before(horizon),
                None => self.queue.pop_batch(),
            };
            if next.is_none() {
                return Yield::Stopped;
            }
        }
    }

    /// End-of-event audit hook: one branch when the audit is off. The audit
    /// is taken out while it inspects the state it is a field of.
    #[inline]
    fn audit_boundary(&mut self, env: &Env, now: Time) {
        if let Some(mut a) = self.audit.take() {
            self.audit_checks(env, &mut a, now);
            self.audit = Some(a);
        }
    }

    /// Verify cross-cutting invariants at the end of one event: flows the
    /// event touched, the Xoff-must-fire condition for an admission in this
    /// event, and (per [`AuditConfig::deep_every`]) the O(state)
    /// [`State::deep_scan`].
    fn audit_checks(&self, env: &Env, a: &mut Audit, now: Time) {
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
            self.deep_scan(env, a, now);
        }
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

    fn on_flow_start(&mut self, env: &Env, flow: FlowId, now: Time) {
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
        self.host_poke(env, src, now);
    }

    fn on_flow_timer(&mut self, env: &Env, flow: FlowId, token: u64, now: Time) {
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
        self.host_poke(env, src, now);
    }

    fn on_port_free(&mut self, env: &Env, node: NodeId, port: u16, now: Time) {
        self.port_mut(node, port).busy = false;
        self.kick(env, node, port, now);
    }

    /// Apply fault-schedule transition `idx` at its scheduled time.
    fn on_fault(&mut self, env: &Env, idx: u32, now: Time) {
        self.counters.fault_events += 1;
        let kind = env
            .cfg
            .faults
            .as_ref()
            // simlint::allow(hot-path-unwrap, Fault events are only scheduled from an installed schedule)
            .expect("Fault event without a fault schedule")
            .events[idx as usize]
            .kind;
        match kind {
            FaultKind::LinkDown { node, port } => self.set_link_down(env, node, port, true, now),
            FaultKind::LinkUp { node, port } => self.set_link_down(env, node, port, false, now),
            FaultKind::DegradeStart {
                node,
                port,
                rate_factor,
                extra_prop,
            } => self.set_degrade(node, port, Some((rate_factor, extra_prop))),
            FaultKind::DegradeEnd { node, port } => self.set_degrade(node, port, None),
            FaultKind::PauseStart { node, port, prio } => {
                self.set_storm(env, node, port, prio, true, now)
            }
            FaultKind::PauseEnd { node, port, prio } => {
                self.set_storm(env, node, port, prio, false, now)
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
    fn set_link_down(&mut self, env: &Env, node: NodeId, port: u16, down: bool, now: Time) {
        let ends = self.link_ends(node, port);
        for (n, p) in ends {
            self.port_mut(n, p).down = down;
        }
        if !down {
            for (n, p) in ends {
                self.kick(env, n, p, now);
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
    fn set_storm(&mut self, env: &Env, node: NodeId, port: u16, prio: u8, on: bool, now: Time) {
        let [_, (peer, peer_port)] = self.link_ends(node, port);
        let peer_pauses = |ps: &Switch| ps.ingress_paused[peer_port as usize][prio as usize];
        let paused = on || self.nodes[peer as usize].as_switch().is_some_and(peer_pauses);
        let p = self.port_mut(node, port);
        p.set_storm(prio as usize, on);
        p.set_paused(prio as usize, paused);
        if !paused {
            self.kick(env, node, port, now);
        }
    }

    /// Retire a packet caught in flight on a dead link. Data losses are
    /// reported to the audit's conservation tallies (unless the
    /// [`Buggify::FaultDropUnaccounted`] self-test suppresses that to prove
    /// the audit notices); control losses are counted in
    /// [`SimCounters::fault_ctrl_drops`] but never audited, since control
    /// packets are not part of the injected tallies.
    fn fault_drop(&mut self, env: &Env, pid: PacketId) {
        let (is_data, wire) = {
            let pkt = self.arena.get(pid);
            (pkt.kind.is_data(), pkt.size as u64)
        };
        if is_data {
            self.counters.fault_link_drops += 1;
            if env.switch_cfg.buggify != Some(Buggify::FaultDropUnaccounted) {
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
    fn kick(&mut self, env: &Env, node: NodeId, port: u16, now: Time) {
        match &self.nodes[node as usize] {
            Node::Switch(_) => self.switch_dequeue(env, node, port, now),
            Node::Host(_) => self.host_poke(env, node, now),
        }
    }

    /// The link layer's transmit step — the only place a packet goes onto a
    /// wire. Marks the port busy, counts the bytes, and schedules the end
    /// of serialization ([`Event::PortFree`]) and then the arrival at the
    /// peer, at the link's effective rate and delay (degradation epochs
    /// included). `extra` is extra one-way delay (non-congestive delay),
    /// zero for host NICs.
    fn transmit(&mut self, node: NodeId, port: u16, pid: PacketId, extra: Time, now: Time) {
        let size = self.arena.get(pid).size as u64;
        let p = self.port_mut(node, port);
        p.busy = true;
        p.tx_bytes += size;
        let (peer, in_port) = (p.peer, p.peer_port);
        let (rate, prop) = p.effective_link();
        let ser = rate.serialize_time(size);
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
    fn switch_dequeue(&mut self, env: &Env, node: NodeId, port: u16, now: Time) {
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
        let mut resumes = Vec::new();
        s.on_dequeue(self.arena.get(pid), 0, &mut resumes);
        let (is_data, prio) = {
            let pkt = self.arena.get(pid);
            (pkt.kind.is_data(), pkt.prio)
        };
        let nc = match &env.switch_cfg.nc_delay {
            Some(nc) if is_data => nc.sample(&mut self.nc_rng),
            _ => Time::ZERO,
        };
        self.transmit(node, port, pid, nc, now);
        if env.switch_cfg.int_enabled && is_data {
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

    fn on_arrive(&mut self, env: &Env, node: NodeId, in_port: u16, pkt: PacketId, now: Time) {
        if let PktTag::Pfc { prio, pause } = self.arena.get(pkt).kind {
            // Consumed at the MAC, never queued.
            self.arena.release(pkt);
            return self.on_pfc_frame(env, node, in_port, prio, pause, now);
        }
        if self.port(node, in_port).down {
            // A dead link drops everything in flight on it — except PFC
            // frames (handled above), which model an out-of-band reliable
            // control plane.
            return self.fault_drop(env, pkt);
        }
        match &self.nodes[node as usize] {
            Node::Switch(_) => self.switch_arrive(env, node, in_port, pkt, now),
            Node::Host(_) => self.host_arrive(env, node, pkt, now),
        }
    }

    /// A PFC frame reached the MAC of `(node, port)` — a switch port or a
    /// host NIC alike: sets or clears the egress pause bit and, on a resume,
    /// kicks the attachment.
    fn on_pfc_frame(
        &mut self,
        env: &Env,
        node: NodeId,
        port: u16,
        prio: u8,
        pause: bool,
        now: Time,
    ) {
        let p = self.port_mut(node, port);
        if p.is_stormed(prio as usize) {
            // Storm pin holds: genuine frames are swallowed. The peer's
            // pause authority is re-read at storm release (`set_storm`).
            return;
        }
        p.set_paused(prio as usize, pause);
        if !pause {
            self.kick(env, node, port, now);
        }
    }

    fn switch_arrive(&mut self, env: &Env, node: NodeId, in_port: u16, pid: PacketId, now: Time) {
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
        let egress = env.routes.port_for(node, dst, flow);
        let Node::Switch(s) = &mut self.nodes[node as usize] else {
            unreachable!()
        };
        let mut ecn_info = None;
        if is_data {
            let q_pre = s.ports[egress as usize].queued_bytes_q[data_q];
            let marked = s.ecn_mark(egress, data_q, dscp, 0, &mut self.ecn_rng);
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
        };
        let mut pauses = Vec::new();
        let admission = s.admit(egress, in_port, pid, 0, &mut self.arena, &mut pauses);
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
                self.emit_pfc(node, &pauses, true, now);
                self.switch_dequeue(env, node, egress, now);
            }
        }
    }

    fn host_arrive(&mut self, env: &Env, node: NodeId, pid: PacketId, now: Time) {
        match self.arena.get(pid).kind {
            PktTag::Data => {
                self.counters.data_delivered += 1;
                if let Some(a) = self.audit.as_deref_mut() {
                    let pkt = self.arena.get(pid);
                    a.on_data_delivered(now, pkt.flow, pkt.size as u64);
                }
                debug_assert_eq!(self.arena.get(pid).dst, node, "data packet misrouted");
                self.receiver_data(env, node, pid, now);
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
                let prio = Self::ack_prio(&env.cfg, in_prio);
                let ack = Packet::ack(flow, node, src, prio, info, true, now);
                self.host_enqueue_control(env, node, ack, now);
            }
            // ACKs and probe echoes. `on_arrive` consumed any PFC frame at
            // the MAC, and `sender_ack` rejects every other tag.
            _ => {
                debug_assert_eq!(self.arena.get(pid).dst, node, "ack misrouted");
                self.sender_ack(env, node, pid, now);
            }
        }
    }

    fn ack_prio(cfg: &SimConfig, data_prio: u8) -> u8 {
        match cfg.ack_prio {
            AckPriority::Control => cfg.num_prios,
            AckPriority::SameAsData => data_prio,
        }
    }

    /// Receiver-side handling of a data segment: update reassembly state,
    /// emit a per-packet ACK, record delivery/completion. Consumes the
    /// arena slot: the data packet is retired and its slot immediately
    /// reused (LIFO) by the ACK this method emits.
    fn receiver_data(&mut self, env: &Env, node: NodeId, pid: PacketId, now: Time) {
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
            let (new_bytes, nack) = fl.recv.on_data(seq, payload as u64, env.lossy);
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
        let prio = Self::ack_prio(&env.cfg, in_prio);
        let ack = Packet::ack(fid, node, src, prio, info, false, now);
        self.host_enqueue_control(env, node, ack, now);
    }

    /// Sender-side handling of an ACK or probe echo. Consumes the arena
    /// slot; the echoed INT box (if any) returns to the arena's recycle
    /// stack after the transport callback.
    fn sender_ack(&mut self, env: &Env, node: NodeId, pid: PacketId, now: Time) {
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
        let noise = env.cfg.meas_noise.sample(&mut self.noise_rng);
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
            self.release_flow_state(env, fid);
        }
        self.host_poke(env, node, now);
    }

    /// Release a finished flow's live-state slab slot, snapshotting the
    /// transport's retransmit count into the record first. The
    /// [`Buggify::FlowReclaimLeak`] self-test skips the release so the audit
    /// deep scan's flow-state sweep can prove it notices the leak.
    fn release_flow_state(&mut self, env: &Env, fid: FlowId) {
        if env.switch_cfg.buggify == Some(Buggify::FlowReclaimLeak) {
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
    fn host_enqueue_control(&mut self, env: &Env, node: NodeId, pkt: Packet, now: Time) {
        let pid = self.arena.alloc(pkt);
        self.nodes[node as usize].ports_mut()[0].enqueue(pid, &self.arena);
        self.host_poke(env, node, now);
    }

    /// The host NIC pull loop: if the NIC is idle, select the next packet
    /// (queued control first, then strict-priority pull across flows) and
    /// start transmitting it.
    fn host_poke(&mut self, env: &Env, node: NodeId, now: Time) {
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
            self.release_flow_state(env, fid);
        }
        if let Some(pid) = selected {
            self.transmit(node, 0, pid, Time::ZERO, now);
        }
    }

    fn on_sample(&mut self, env: &Env, monitor: u32, now: Time) {
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
        if now + m.period < env.cfg.end_time {
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
        let Sim { env, state: st, .. } = &mut sim;
        st.on_fault(env, 0, Time::ZERO);
        st.on_fault(env, 1, Time::ZERO);
        for node in [host, switch] {
            let is_host = matches!(st.nodes[node as usize], Node::Host(_));
            assert_eq!(is_host, node == host, "node {node}");
            st.port_mut(node, 0).set_paused(1, true);
            for prio in [0, 1] {
                let peer = st.port(node, 0).peer;
                let frame = st.arena.alloc(Packet::pfc(peer, node, prio, false));
                st.on_arrive(env, node, 0, frame, Time::from_us(1));
            }
            assert_eq!(st.arena.live_count(), 0, "PFC frames are consumed, never queued");
            let p = st.port(node, 0);
            assert!(p.is_paused(0), "node {node}: the storm pin swallows the resume");
            assert!(!p.is_paused(1), "node {node}: an unpinned priority resumes");
        }
    }

    /// The whole point of the packet arena: events stay a few machine words
    /// so the event queue's heap sifts small entries. If `Event` grows past
    /// 16 bytes (or an `Entry<Event>` past 40), someone put a payload back
    /// into the queue by value — route it through the arena instead. An
    /// entry waiting in a FIFO lane occupies a ring slot: a 16-byte key plus
    /// the event, whose `Option` must cost nothing.
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
        let slot = EventQueue::<Event>::LANE_ENTRY_BYTES;
        assert!(slot <= 32, "lane slot grew to {slot} bytes");
    }
}
