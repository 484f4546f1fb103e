//! The simulator's API and its event loop: [`Sim`] builds a run, takes its
//! flows and callbacks, runs it and fingerprints it, and `State::advance`
//! dispatches one event after another to the handlers.
//!
//! The handlers sit with the rest of the data path, by the state they
//! change: the link layer, the switch path and fault transitions in
//! `fabric.rs`; the host NIC and the flow path in `host.rs`.
//! The data itself is in `state.rs` and `node.rs`.

// R5 (DESIGN.md § Static analysis): a per-event path must not abort a run;
// test code is exempt (`clippy.toml`).
#![deny(clippy::unwrap_used, clippy::expect_used)]

use simcore::{EventQueue, Rate, SimRng, Time};

use crate::audit::{Audit, AuditConfig};
use crate::config::{SimConfig, SwitchConfig};
use crate::faults::FaultKind;
use crate::node::{EgressPort, Host, Node, Switch};
use crate::observe::Observers;
use crate::packet::{FlowId, NodeId, PacketArena, CONTROL_BYTES, HEADER_BYTES};
use crate::record::{FlowRecord, SimCounters, SimResult};
use crate::routing::RoutingTable;
use crate::state::{Env, Flow, FlowLive, RecvState, State, StateTamper};
use crate::topology::{NodeKind, PortLink, Topology};
use crate::transport_api::{FlowParams, Transport};

/// Why [`Sim::enable_audit`] is refused once the run has started.
const AUDIT_TOO_LATE: &str = "its tallies would miss every packet injected before it \
     and report the rest as violations";

/// A closed-loop application driver: gets called whenever a flow completes
/// (receiver got every byte) and may register new flows, enabling iterative
/// workloads such as ring all-reduce training (§6.2's ML cluster scenario).
pub trait App {
    /// `flow` just completed at `sim.now()`.
    fn on_flow_complete(&mut self, flow: FlowId, sim: &mut Sim);
}

/// An open-loop arrival source, driven by [`Event::Inject`] during the run.
/// Instead of registering an entire trace of flows up front, the source is
/// called back to register the next chunk, so the trace itself is never
/// held beyond the source's look-ahead window and a flow's transport and
/// reassembly state exist only from its registration to its completion.
/// Each registered flow still keeps its fixed-size record (O(total flows)).
pub trait ArrivalSource {
    /// Register flows starting at or after `now` (chunk size is the
    /// source's choice; every registered spec must start `>= now`). Return
    /// the time of the next injection — strictly after `now` — or `None`
    /// when the trace is exhausted (the source is then dropped).
    fn inject(&mut self, sim: &mut Sim, now: Time) -> Option<Time>;
}

pub use crate::event::Event;
pub use crate::state::FlowSpec;

/// The simulator: the immutable `Env` of a run plus its mutable `State`,
/// and the observers that watch it (the audit, the streaming sketches, the
/// completions waiting for an [`App`]). The two user callbacks sit beside
/// them, outside `State`: they hold arbitrary user state and take the whole
/// `Sim`.
pub struct Sim {
    pub(crate) env: Env,
    pub(crate) state: State,
    pub(crate) obs: Observers,
    pub(crate) app: Option<Box<dyn App>>,
    /// Open-loop arrival source ([`Event::Inject`]); `None` between the
    /// final injection and the end of the run, and for closed workloads.
    pub(crate) arrivals: Option<Box<dyn ArrivalSource>>,
}

impl Sim {
    /// Build a simulator over `topo` with uniform switch configuration.
    pub fn new(topo: &Topology, cfg: SimConfig, switch_cfg: SwitchConfig) -> Self {
        // A data packet's wire size is a `u16` (`PktHeader::size`), and an
        // MTU of 0 makes every segment empty, so `seq` would never advance.
        let max_mtu = u16::MAX as u32 - HEADER_BYTES;
        assert!(
            (1..=max_mtu).contains(&cfg.mtu),
            "SimConfig.mtu = {} is out of range: it must be 1..={max_mtu} bytes",
            cfg.mtu
        );
        // Every PFC pause and storm mask is a `u32` indexed by queue, the
        // control queue at index `num_prios` included.
        assert!(
            (1..=31).contains(&cfg.num_prios),
            "SimConfig.num_prios = {} is out of range: it must be 1..=31 \
             (a pause mask is a u32 over num_prios + 1 queues)",
            cfg.num_prios
        );
        let nq = cfg.num_prios as usize + 1;
        // Every node's ports, numbered in link insertion order: the routing
        // table and the nodes below are both built from it.
        let adj = topo.csr();
        // Before any node is built, because it checks what everything below
        // relies on: every host has exactly one NIC link, to a switch.
        let is_host: Vec<bool> = topo.kinds.iter().map(|k| *k == NodeKind::Host).collect();
        let routes = RoutingTable::new(&adj, &is_host, cfg.seed ^ 0x9E3779B97F4A7C15);
        let port = |l: &PortLink| {
            let spec = topo.links[l.link as usize].2;
            EgressPort::new(l.peer, l.peer_port, spec.rate, spec.prop, nq)
        };
        let nodes: Vec<Node> = (topo.kinds.iter().enumerate())
            .map(|(v, kind)| match kind {
                // The routing table checked that a host has exactly one link.
                NodeKind::Host => Node::Host(Host::new(port(&adj.ports(v)[0]), cfg.num_prios)),
                NodeKind::Switch => Node::Switch(Switch::new(
                    switch_cfg.clone(),
                    adj.ports(v).iter().map(&port).collect(),
                    cfg.num_prios,
                )),
            })
            .collect();
        let port_at = |node: NodeId, port: u16| -> Option<&EgressPort> {
            nodes.get(node as usize)?.ports().get(port as usize)
        };

        let seed = cfg.seed;
        let obs = Observers::new(&cfg);
        for ev in cfg.faults.iter().flat_map(|s| &s.events) {
            let (node, port) = ev.kind.link();
            let Some(p) = port_at(node, port) else {
                panic!("fault schedule targets nonexistent link attachment ({node}, {port})");
            };
            // A degraded rate of 0 bps would divide by zero at the first
            // dequeue (`Rate::serialize_time`).
            if let FaultKind::DegradeStart { rate_factor: f, .. } = ev.kind {
                assert!(
                    f > 0.0 && f <= 1.0 && p.rate.mul_f64(f).as_bps() > 0,
                    "fault schedule: DegradeStart rate_factor = {f} on link ({node}, {port}) \
                     must be in (0, 1] and leave its {} above 0 bps",
                    p.rate
                );
            }
        }
        let mut queue = EventQueue::new();
        declare_link_delays(&mut queue, topo, cfg.mtu);
        let state = State {
            nodes,
            flows: Vec::new(),
            live_bytes: 0,
            arena: PacketArena::new(),
            queue,
            counters: SimCounters::default(),
            noise_rng: SimRng::new(seed).split(1),
            ecn_rng: SimRng::new(seed).split(2),
            nc_rng: SimRng::new(seed).split(3),
            started: false,
        };
        Sim {
            env: Env {
                cfg,
                switch_cfg,
                routes,
            },
            state,
            obs,
            app: None,
            arrivals: None,
        }
    }

    /// Panic if the run has started: `call` sets up something
    /// [`Self::ensure_started`] has already acted on (or the audit's
    /// tallies begin with), so made now it would be silently wrong — `why`.
    fn refuse_after_start(&self, call: &str, why: &str) {
        assert!(
            !self.state.started,
            "Sim::{call} after the run has started: {why}"
        );
    }

    /// Enable the invariant-audit layer with default settings.
    ///
    /// # Panics
    /// Panics once the run has started ([`Self::run_until`]).
    pub fn enable_audit(&mut self) {
        self.refuse_after_start("enable_audit", AUDIT_TOO_LATE);
        self.enable_audit_with(AuditConfig::default());
    }

    /// Enable the invariant-audit layer with explicit settings.
    ///
    /// # Panics
    /// Panics once the run has started ([`Self::run_until`]).
    pub fn enable_audit_with(&mut self, cfg: AuditConfig) {
        self.refuse_after_start("enable_audit_with", AUDIT_TOO_LATE);
        self.obs.audit = Some(Box::new(Audit::new(cfg)));
    }

    /// True when the audit layer is enabled for this run.
    pub fn audit_enabled(&self) -> bool {
        self.obs.audit.is_some()
    }

    /// Install a closed-loop application driver. From here on, completed
    /// flows are buffered for it.
    pub fn set_app(&mut self, app: Box<dyn App>) {
        self.app = Some(app);
        self.obs.completed.get_or_insert_with(Vec::new);
    }

    /// Install an open-loop arrival source; the first [`Event::Inject`] is
    /// scheduled at run start.
    ///
    /// # Panics
    /// Panics once the run has started ([`Self::run_until`]).
    pub fn set_arrivals(&mut self, src: Box<dyn ArrivalSource>) {
        self.refuse_after_start(
            "set_arrivals",
            "the first Inject is scheduled at the start, so the source would never be called",
        );
        self.arrivals = Some(src);
    }

    /// Flows whose transport + reassembly state is still resident.
    /// Exposed for reclamation tests and progress logging.
    pub fn live_flows(&self) -> u64 {
        self.state.live_flows()
    }

    /// Flows registered so far: before the run, and during it by an [`App`]
    /// or an [`ArrivalSource`]. The next flow takes this [`FlowId`].
    pub fn flows_registered(&self) -> u64 {
        self.state.flows.len() as u64
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

    /// FNV-1a fingerprint of the simulator's complete deterministic state:
    /// scheduler queue, counters, RNG streams, packet arena, nodes and their
    /// ports (link fault state included), flow table, then what
    /// the observers hold that decides the outcome — the completions
    /// awaiting an [`App`] and the streaming sketches. Not the audit, so an
    /// audited and an unaudited run digest equally. Two
    /// simulators in the same configuration with equal digests dispatch
    /// identically from here on, wherever their queues keep an entry; the
    /// digest-completeness fleet pins that every [`StateTamper`] class
    /// moves it.
    pub fn state_digest(&self) -> u64 {
        let mut h = 0xcbf29ce484222325u64;
        let mut fold = |w: u64| {
            for b in w.to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(0x100000001b3);
            }
        };
        self.state.fold_digest(&mut fold);
        self.obs.fold_digest(&mut fold);
        h
    }

    /// Buggify-style hook for the digest-completeness fleet: mutate one
    /// class of deterministic state in place. Returns `false` when the run
    /// does not carry that state class (e.g. [`StateTamper::Sketch`]
    /// without streaming statistics), so tests can assert the tamper
    /// actually landed before asserting digest divergence.
    #[doc(hidden)]
    pub fn snap_mutate(&mut self, tamper: StateTamper) -> bool {
        match tamper {
            StateTamper::Sketch => self.obs.tamper_sketch(),
            StateTamper::Counter
            | StateTamper::Rng
            | StateTamper::PortState
            | StateTamper::Queue
            | StateTamper::FlowRecv => self.state.tamper(tamper),
        }
    }

    /// Compute per-flow parameters (base RTTs, line rate) for a prospective
    /// flow, so transport factories can be configured before registration.
    ///
    /// # Panics
    /// Panics if `spec.src` or `spec.dst` is not a host of the topology,
    /// if they are the same host, if `spec.phys_prio` is not below
    /// [`SimConfig::num_prios`], or if `spec.size` is 0 — whatever
    /// [`Self::add_flow`] refuses.
    pub fn flow_params(&self, spec: &FlowSpec, flow: FlowId) -> FlowParams {
        let nodes = self.state.nodes.len();
        for (field, node) in [("src", spec.src), ("dst", spec.dst)] {
            match self.state.nodes.get(node as usize) {
                Some(Node::Host(_)) => {}
                Some(Node::Switch(_)) => {
                    panic!("FlowSpec.{field} = {node} is a switch, not a host")
                }
                None => panic!(
                    "FlowSpec.{field} = {node} is out of range: the topology has {nodes} nodes"
                ),
            }
        }
        // Its packets would hairpin through the ToR, while its base RTT
        // (the path from a host to itself) would read 0.
        assert!(
            spec.src != spec.dst,
            "FlowSpec.src = FlowSpec.dst = {}: a flow needs two different hosts",
            spec.src
        );
        let cfg = &self.env.cfg;
        assert!(
            spec.phys_prio < cfg.num_prios,
            "FlowSpec.phys_prio = {} is out of range: it must be below SimConfig.num_prios = {}",
            spec.phys_prio,
            cfg.num_prios
        );
        assert!(
            spec.size > 0,
            "FlowSpec.size = 0: a flow must carry at least one byte"
        );
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
            seed: SimRng::new(cfg.seed).split(0x1000 + flow as u64).next(),
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
    ///
    /// # Panics
    /// Panics on a `spec` that [`Self::flow_params`] refuses.
    pub fn add_flow(
        &mut self,
        spec: FlowSpec,
        make: impl FnOnce(&FlowParams) -> Box<dyn Transport>,
    ) -> FlowId {
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
        st.queue.schedule(spec.start, Event::FlowStart { flow: id });
        let live = Box::new(FlowLive {
            transport,
            recv: RecvState::default(),
        });
        st.live_bytes += live.entry_bytes();
        st.flows.push(Flow {
            record,
            probe_gap: params.base_rtt.saturating_sub(params.base_rtt_probe),
            active: false,
            live: Some(live),
        });
        let resident = st.live_flows();
        let c = &mut st.counters;
        c.flow_live_peak = c.flow_live_peak.max(resident);
        c.flow_live_bytes_peak = c.flow_live_bytes_peak.max(st.live_bytes);
        id
    }

    /// Egress port index a switch uses toward `dst` for `flow` (exposed for
    /// tests and for picking a port to read with [`Self::port`]).
    pub fn route_port(&self, node: NodeId, dst: NodeId, flow: FlowId) -> u16 {
        self.env.routes.port_for(node, dst, flow)
    }

    /// Egress port `port` of `node` as it stands at [`Self::now`]: between
    /// [`Self::run_until`] steps, its backlog (`queued_bytes`) and
    /// cumulative `tx_bytes` are what a periodic probe reads.
    ///
    /// # Panics
    /// Panics if `node` or `port` is not in the topology.
    pub fn port(&self, node: NodeId, port: u16) -> &EgressPort {
        let nodes = &self.state.nodes;
        let Some(n) = nodes.get(node as usize) else {
            panic!(
                "Sim::port: node = {node} is out of range: the topology has {} nodes",
                nodes.len()
            );
        };
        let Some(p) = n.ports().get(port as usize) else {
            panic!(
                "Sim::port: port = {port} is out of range: node {node} has {} ports",
                n.ports().len()
            );
        };
        p
    }

    /// Schedule the run-level bootstrap events (End, first Inject, the
    /// fault schedule). Runs once, on whichever of [`Self::run`] /
    /// [`Self::run_until`] is called first; a run resumed after
    /// `run_until` carries `started = true`, so the bootstrap is never
    /// applied twice, and the set-up calls it would miss
    /// ([`Self::set_arrivals`], the audit's) panic.
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
        // The fault schedule is fixed up-front: every transition becomes a
        // first-class event through the same queue as data traffic, so
        // fault runs stay bit-identical across repeats.
        for (i, ev) in cfg.faults.iter().flat_map(|s| &s.events).enumerate() {
            st.queue.schedule(ev.at, Event::Fault { idx: i as u32 });
        }
    }

    /// The event loop: dispatch event after event until the run is over
    /// (queue drained or [`Event::End`] fired) or, with a horizon, until the
    /// next event would be at or past it. The loop itself is
    /// [`State::advance`], lent the [`Env`]; it comes back here only for the
    /// two things that hand the whole simulator to user code — an
    /// [`Event::Inject`] and [`App`] delivery — and is re-entered once the
    /// event that needed them is finished.
    fn pump(&mut self, until: Option<Time>) {
        loop {
            let run = &mut Run {
                env: &self.env,
                obs: &mut self.obs,
            };
            match self.state.advance(run, until) {
                Yield::Stopped => {
                    if let Some(a) = self.obs.audit.as_deref_mut() {
                        crate::observe::stop_scan(a, &self.state);
                    }
                    return;
                }
                Yield::Inject => self.on_inject(),
                Yield::Completed => {
                    // Taken out while it runs: the callback gets the whole `Sim`.
                    if let Some(mut app) = self.app.take() {
                        for f in self.obs.take_completed() {
                            app.on_flow_complete(f, self);
                        }
                        self.app = Some(app);
                    }
                }
            }
            self.obs.on_event_end(&self.state, &self.env);
        }
    }

    /// Advance the simulation up to (but not into) `horizon`: every event
    /// with timestamp strictly before `horizon` is dispatched, then the
    /// clock rests at the last dispatched event. A later `run_until` or
    /// [`Self::run`] resumes where it stopped, exactly as if the run had
    /// not been split.
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
        counters.sched_pops = counters.events;
        counters.sched_lane_pushes = st.queue.lane_pushes();
        counters.sched_ops =
            st.queue.sched_work().ops() + st.queue.lane_pushes() + st.queue.lane_pops();
        counters.sched_pending_peak = st.queue.pending_peak() as u64;
        counters.sched_bytes_peak = st.queue.resident_bytes() as u64;
        counters.flows_total = st.flows.len() as u64;
        // Streaming mode returns empty records: quantiles come from the
        // sketches, and O(total flows) records would defeat the point of
        // streaming at hyperscale.
        let records = if self.obs.streaming.is_some() {
            Vec::new()
        } else {
            st.flows
                .into_iter()
                .map(|f| {
                    let mut r = f.record;
                    if let Some(fl) = f.live {
                        // Unreclaimed (censored or leaked) flows still hold a
                        // transport; reclaimed ones copied retransmits
                        // into the record at release time.
                        r.retransmits = fl.transport.retransmits();
                    }
                    r
                })
                .collect()
        };
        SimResult {
            records,
            counters,
            end_time,
            audit: self.obs.audit.map(|a| a.into_report()),
            streaming: self.obs.streaming,
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

/// What [`State::advance`] and the handlers are lent beside the [`State`]
/// they change: the run's [`Env`] and the [`Observers`] they report to.
pub(crate) struct Run<'a> {
    pub(crate) env: &'a Env,
    pub(crate) obs: &'a mut Observers,
}

/// Why [`State::advance`] came back.
enum Yield {
    /// The run is over — the queue drained or [`Event::End`] fired — or the
    /// next event is at or past the horizon.
    Stopped,
    /// An [`Event::Inject`] is due: the arrival source takes the whole `Sim`.
    Inject,
    /// The event just dispatched completed flows an [`App`] is waiting for.
    Completed,
}

/// The event loop. It and the handlers it dispatches to (`fabric.rs`,
/// `host.rs`) change `State`, read the run's [`Env`] and report to its
/// [`Observers`] (the two lent as a [`Run`]); none can reach the user
/// callbacks on [`Sim`].
impl State {
    /// Dispatch events one at a time in `(time, seq)` order until the run
    /// stops or an event needs the whole [`Sim`] (see [`Yield`]). In the
    /// latter case the caller finishes that event (app delivery,
    /// [`Observers::on_event_end`]) and calls again.
    ///
    /// What this loop does per event has to be compiled *into* it: rustc
    /// cuts the crate into codegen units by the module of each function's
    /// `Self` type, and LLVM inlines within a unit. The handlers are
    /// `impl State` blocks, so wherever their source sits (`fabric.rs`,
    /// `host.rs`) they share this loop's unit; the queue's serve path
    /// ([`EventQueue`]'s `pop`, `pop_before`, `serve`, `scan_head`,
    /// `settle_head`, filed under `simcore::event`) is `#[inline]` so that
    /// rustc instantiates it here. Either, as a call, cost 3–13 % of wall
    /// time with identical output; `scripts/check_hot_calls.sh` (CI leg 2)
    /// fails when the disassembly of `advance` calls the serve path or an
    /// [`Observers`] hook.
    fn advance(&mut self, run: &mut Run, until: Option<Time>) -> Yield {
        loop {
            let next = match until {
                Some(horizon) => self.queue.pop_before(horizon),
                None => self.queue.pop().map(|(_, ev)| ev),
            };
            let Some(ev) = next else {
                return Yield::Stopped;
            };
            let now = self.queue.now();
            self.counters.events += 1;
            run.obs.on_event(now, &ev);
            match ev {
                Event::End => return Yield::Stopped,
                Event::Inject => return Yield::Inject,
                Event::FlowStart { flow } => self.on_flow_start(run, flow, now),
                Event::FlowTimer { flow, token } => self.on_flow_timer(run, flow, token, now),
                Event::HostPoke { node } => {
                    if let Node::Host(h) = &mut self.nodes[node as usize] {
                        h.next_poke = Time::MAX;
                    }
                    self.host_poke(run, node, now);
                }
                Event::PortFree { node, port } => self.on_port_free(run, node, port, now),
                Event::Arrive { node, in_port, pkt } => {
                    self.on_arrive(run, node, in_port, pkt, now)
                }
                Event::Pfc {
                    node,
                    port,
                    prio,
                    pause,
                } => self.on_pfc_frame(run, node, port, prio, pause, now),
                Event::Fault { idx } => self.on_fault(run, idx, now),
            }
            if run.obs.completions_pending() {
                return Yield::Completed;
            }
            run.obs.on_event_end(self, run.env);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultSchedule;
    use crate::packet::{IntHop, Packet};
    use crate::transport_api::{AckEvent, AckKind, TransportCtx, TrySend};
    #[expect(
        clippy::disallowed_types,
        reason = "a test-only recorder no simulation reads"
    )]
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Hosts and switches share one PFC-frame handler: a resume addressed
    /// to a storm-pinned priority is swallowed — pause bit held — on a host
    /// NIC and on a switch port alike, while the same frame for an unpinned
    /// priority clears the bit. The frames are dispatched as
    /// [`Event::Pfc`]s by the event loop and never touch the arena.
    #[test]
    fn storm_pinned_resume_is_swallowed_on_host_nic_and_switch_port_alike() {
        let topo = Topology::single_switch(2, Rate::from_gbps(100), Time::from_us(1));
        let (host, switch) = (1, 3);
        let mut faults = FaultSchedule::new();
        for node in [host, switch] {
            faults.push(
                Time::ZERO,
                FaultKind::PauseStart {
                    node,
                    port: 0,
                    prio: 0,
                },
            );
        }
        let cfg = SimConfig {
            faults: Some(faults),
            ..Default::default()
        };
        let mut sim = Sim::new(&topo, cfg, SwitchConfig::default());
        let Sim {
            env,
            state: st,
            obs,
            ..
        } = &mut sim;
        let run = &mut Run { env, obs };
        st.on_fault(run, 0, Time::ZERO);
        st.on_fault(run, 1, Time::ZERO);
        for node in [host, switch] {
            let is_host = matches!(st.nodes[node as usize], Node::Host(_));
            assert_eq!(is_host, node == host, "node {node}");
            st.port_mut(node, 0).set_paused(1, true);
            for prio in [0, 1] {
                let frame = Event::Pfc {
                    node,
                    port: 0,
                    prio,
                    pause: false,
                };
                st.queue.schedule(Time::from_us(1), frame);
            }
        }
        let before = st.counters.events;
        let stop = st.advance(run, Some(Time::from_us(2)));
        assert!(matches!(stop, Yield::Stopped));
        assert_eq!(st.counters.events - before, 4, "four frames dispatched");
        let allocs = st.arena.stats().allocs;
        assert_eq!(allocs, 0, "a PFC frame takes no arena slot");
        for node in [host, switch] {
            let p = st.port(node, 0);
            let pinned = "the storm pin swallows the resume";
            assert!(p.is_paused(0), "node {node}: {pinned}");
            assert!(!p.is_paused(1), "node {node}: an unpinned priority resumes");
        }
    }

    /// A host with a second NIC is refused before anything is built, by
    /// the routing table's precondition, naming the host and its links.
    #[test]
    #[should_panic(expected = "host 0 has 2 links; every host needs exactly one NIC link")]
    fn two_nic_host_is_refused() {
        let mut topo = Topology::new();
        let (h0, h1) = (topo.add_host(), topo.add_host());
        let (s0, s1) = (topo.add_switch(), topo.add_switch());
        for (a, b) in [(h0, s0), (h0, s1), (h1, s0), (s0, s1)] {
            topo.connect(a, b, Rate::from_gbps(100), Time::from_us(1));
        }
        Sim::new(&topo, SimConfig::default(), SwitchConfig::default());
    }

    fn sim_with_mtu(mtu: u32) -> Sim {
        let topo = Topology::single_switch(1, Rate::from_gbps(100), Time::from_us(1));
        let cfg = SimConfig {
            mtu,
            ..Default::default()
        };
        Sim::new(&topo, cfg, SwitchConfig::default())
    }

    /// An MTU of 0 would send empty segments, so `seq` would never advance.
    #[test]
    #[should_panic(expected = "SimConfig.mtu = 0 is out of range: it must be 1..=65487 bytes")]
    fn zero_mtu_is_refused() {
        sim_with_mtu(0);
    }

    /// A data packet's wire size is a `u16`: the largest MTU is
    /// `u16::MAX − HEADER_BYTES`, and one byte more is refused.
    #[test]
    #[should_panic(expected = "SimConfig.mtu = 65488 is out of range: it must be 1..=65487 bytes")]
    fn mtu_past_the_u16_wire_size_is_refused() {
        sim_with_mtu(65_487);
        sim_with_mtu(65_488);
    }

    /// A one-sender single switch of 100 Gbps links under `faults`.
    fn sim_with_faults(faults: FaultSchedule) -> Sim {
        let topo = Topology::single_switch(1, Rate::from_gbps(100), Time::from_us(1));
        let cfg = SimConfig {
            faults: Some(faults),
            ..Default::default()
        };
        Sim::new(&topo, cfg, SwitchConfig::default())
    }

    /// [`sim_with_faults`] with the sender's NIC link (host 0, port 0)
    /// degraded by `rate_factor` from 1 µs on.
    fn sim_with_degrade(rate_factor: f64) -> Sim {
        let mut faults = FaultSchedule::new();
        let (node, port, extra_prop) = (0, 0, Time::ZERO);
        let degrade = FaultKind::DegradeStart {
            node,
            port,
            rate_factor,
            extra_prop,
        };
        faults.push(Time::from_us(1), degrade);
        sim_with_faults(faults)
    }

    /// `FaultSchedule::degrade` lets 1e-12 through, but 100 Gbps × 1e-12
    /// rounds to 0 bps, which the first dequeue would divide by.
    #[test]
    #[should_panic(expected = "DegradeStart rate_factor = 0.000000000001 on link (0, 0) \
                               must be in (0, 1] and leave its 100.00Gbps above 0 bps")]
    fn degrading_a_link_to_zero_bps_is_refused() {
        let mut faults = FaultSchedule::new();
        faults.degrade(0, 0, Time::ZERO, Time::from_us(5), 1e-12, Time::ZERO);
        sim_with_faults(faults);
    }

    /// `FaultSchedule::push` checks no factor.
    #[test]
    #[should_panic(expected = "DegradeStart rate_factor = 0 on link (0, 0) must be in (0, 1]")]
    fn a_zero_degrade_factor_is_refused() {
        sim_with_degrade(0.0);
    }

    #[test]
    #[should_panic(expected = "DegradeStart rate_factor = NaN on link (0, 0) must be in (0, 1]")]
    fn a_nan_degrade_factor_is_refused() {
        sim_with_degrade(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "DegradeStart rate_factor = 1.5 on link (0, 0) must be in (0, 1]")]
    fn a_degrade_factor_past_one_is_refused() {
        sim_with_degrade(1.5);
    }

    /// The smallest factor that leaves 100 Gbps at 1 bps is accepted.
    #[test]
    fn a_degrade_to_one_bps_is_accepted() {
        sim_with_degrade(1e-11);
    }

    fn sim_with_prios(num_prios: u8) -> Sim {
        let topo = Topology::single_switch(1, Rate::from_gbps(100), Time::from_us(1));
        let cfg = SimConfig {
            num_prios,
            ..Default::default()
        };
        Sim::new(&topo, cfg, SwitchConfig::default())
    }

    /// No data priority leaves flows nothing to send on.
    #[test]
    #[should_panic(expected = "SimConfig.num_prios = 0 is out of range: it must be 1..=31")]
    fn zero_prios_are_refused() {
        sim_with_prios(0);
    }

    /// Pause and storm masks are `u32`s over the data queues and the
    /// control queue, so 32 data priorities do not fit.
    #[test]
    #[should_panic(expected = "SimConfig.num_prios = 32 is out of range: it must be 1..=31")]
    fn prios_past_the_pause_mask_are_refused() {
        sim_with_prios(32);
    }

    /// 31 data priorities fill the masks: the highest data queue pauses
    /// and pins on its own bit, and the control queue is the 32nd queue.
    #[test]
    fn thirty_one_prios_are_accepted() {
        let mut sim = sim_with_prios(31);
        let switch = 2;
        let p = sim.state.port_mut(switch, 0);
        assert_eq!(p.queues.len(), 32, "31 data queues and the control queue");
        p.set_paused(30, true);
        p.set_storm(30, true);
        assert!(p.is_paused(30) && p.is_stormed(30));
        assert!(!p.is_paused(31) && !p.is_paused(29) && !p.is_stormed(0));
    }

    /// The two-host fabric: host 0, host 1, switch 2 with two ports.
    fn two_hosts() -> Sim {
        let topo = Topology::single_switch(1, Rate::from_gbps(100), Time::from_us(1));
        Sim::new(&topo, SimConfig::default(), SwitchConfig::default())
    }

    /// The two-host fabric with one flow registered from `spec`.
    fn add_flow_on_two_hosts(spec: FlowSpec) {
        two_hosts().add_flow(spec, |_| Box::new(Recorder::default()));
    }

    #[test]
    #[should_panic(expected = "FlowSpec.dst = 9 is out of range: the topology has 3 nodes")]
    fn flow_to_a_nonexistent_node_is_refused() {
        add_flow_on_two_hosts(FlowSpec::new(0, 9, 1000, Time::ZERO));
    }

    #[test]
    #[should_panic(expected = "FlowSpec.src = 2 is a switch, not a host")]
    fn flow_from_a_switch_is_refused() {
        add_flow_on_two_hosts(FlowSpec::new(2, 1, 1000, Time::ZERO));
    }

    #[test]
    #[should_panic(expected = "FlowSpec.src = FlowSpec.dst = 1: a flow needs two different hosts")]
    fn flow_from_a_host_to_itself_is_refused() {
        add_flow_on_two_hosts(FlowSpec::new(1, 1, 1000, Time::ZERO));
    }

    #[test]
    #[should_panic(
        expected = "FlowSpec.phys_prio = 1 is out of range: it must be below SimConfig.num_prios = 1"
    )]
    fn flow_past_the_data_priorities_is_refused() {
        add_flow_on_two_hosts(FlowSpec {
            phys_prio: 1,
            ..FlowSpec::new(0, 1, 1000, Time::ZERO)
        });
    }

    #[test]
    #[should_panic(expected = "FlowSpec.size = 0: a flow must carry at least one byte")]
    fn empty_flow_is_refused() {
        add_flow_on_two_hosts(FlowSpec::new(0, 1, 0, Time::ZERO));
    }

    /// [`Sim::flow_params`] for `spec` on the two-host fabric (hosts 0
    /// and 1, switch 2): it refuses whatever `add_flow` refuses, with the
    /// same message.
    fn flow_params_on_two_hosts(spec: FlowSpec) -> FlowParams {
        two_hosts().flow_params(&spec, 0)
    }

    /// Its base RTT would read 0.
    #[test]
    #[should_panic(expected = "FlowSpec.src = FlowSpec.dst = 1: a flow needs two different hosts")]
    fn flow_params_of_a_host_to_itself_are_refused() {
        flow_params_on_two_hosts(FlowSpec::new(1, 1, 1000, Time::ZERO));
    }

    #[test]
    #[should_panic(expected = "FlowSpec.size = 0: a flow must carry at least one byte")]
    fn flow_params_of_an_empty_flow_are_refused() {
        flow_params_on_two_hosts(FlowSpec::new(0, 1, 0, Time::ZERO));
    }

    /// No route leads from a host to a switch.
    #[test]
    #[should_panic(expected = "FlowSpec.dst = 2 is a switch, not a host")]
    fn flow_params_to_a_switch_are_refused() {
        flow_params_on_two_hosts(FlowSpec::new(0, 2, 1000, Time::ZERO));
    }

    #[test]
    #[should_panic(expected = "FlowSpec.src = 3 is out of range: the topology has 3 nodes")]
    fn flow_params_from_a_nonexistent_node_are_refused() {
        flow_params_on_two_hosts(FlowSpec::new(3, 1, 1000, Time::ZERO));
    }

    #[test]
    #[should_panic(expected = "Sim::port: node = 3 is out of range: the topology has 3 nodes")]
    fn port_of_a_nonexistent_node_is_refused() {
        two_hosts().port(3, 0);
    }

    #[test]
    #[should_panic(expected = "Sim::port: port = 2 is out of range: node 2 has 2 ports")]
    fn port_of_a_nonexistent_port_is_refused() {
        two_hosts().port(2, 2);
    }

    /// Two hosts run to 10 µs: a run that has started.
    fn started_sim() -> Sim {
        let topo = Topology::single_switch(2, Rate::from_gbps(100), Time::from_us(1));
        let mut sim = Sim::new(&topo, SimConfig::default(), SwitchConfig::default());
        sim.run_until(Time::from_us(10));
        sim
    }

    /// Its first `Inject` would never be scheduled: it would never be called.
    #[test]
    #[should_panic(expected = "Sim::set_arrivals after the run has started")]
    fn set_arrivals_after_start_is_refused() {
        struct Never;
        impl ArrivalSource for Never {
            fn inject(&mut self, _: &mut Sim, _: Time) -> Option<Time> {
                None
            }
        }
        started_sim().set_arrivals(Box::new(Never));
    }

    /// Its tallies would start mid-run and report false violations.
    #[test]
    #[should_panic(expected = "Sim::enable_audit after the run has started")]
    fn enable_audit_after_start_is_refused() {
        started_sim().enable_audit();
    }

    #[test]
    #[should_panic(expected = "Sim::enable_audit_with after the run has started")]
    fn enable_audit_with_after_start_is_refused() {
        started_sim().enable_audit_with(AuditConfig::default());
    }

    /// `run_until` past `end_time` would dispatch the `End` event, and a
    /// later `run` could not stop at `end_time`.
    #[test]
    #[should_panic(expected = "past end_time")]
    fn run_until_past_end_time_is_refused() {
        let topo = Topology::single_switch(1, Rate::from_gbps(100), Time::from_us(1));
        let mut sim = Sim::new(&topo, SimConfig::default(), SwitchConfig::default());
        sim.run_until(sim.config().end_time + Time::from_ps(1));
    }

    /// Completions are buffered only for an installed [`App`]: a run
    /// without one finishes flows and ends with no buffer at all, while an
    /// `App` sees every completion and the buffer ends drained. With the
    /// streaming sketches on too, the one `on_flow_done` hook reaches both:
    /// the sketches count as many completions as the `App` was called for.
    #[test]
    #[expect(
        clippy::disallowed_types,
        reason = "a test-only recorder no simulation reads"
    )]
    fn completions_are_buffered_only_for_an_app() {
        struct Count(Rc<RefCell<Vec<FlowId>>>);
        impl App for Count {
            fn on_flow_complete(&mut self, flow: FlowId, _: &mut Sim) {
                self.0.borrow_mut().push(flow);
            }
        }
        for (with_app, streaming_stats) in [(false, false), (true, false), (true, true)] {
            let seen = Rc::new(RefCell::new(Vec::new()));
            let topo = Topology::single_switch(2, Rate::from_gbps(100), Time::from_us(1));
            let cfg = SimConfig {
                streaming_stats,
                ..Default::default()
            };
            let mut sim = Sim::new(&topo, cfg, SwitchConfig::default());
            if with_app {
                sim.set_app(Box::new(Count(Rc::clone(&seen))));
            }
            for src in [0, 1] {
                let spec = FlowSpec::new(src, 2, 10_000, Time::ZERO);
                sim.add_flow(spec, |p| {
                    Box::new(Burst {
                        left: p.size,
                        next: 0,
                        mtu: p.mtu,
                    })
                });
            }
            sim.run_until(sim.config().end_time);
            let case = format!("with_app = {with_app}, streaming_stats = {streaming_stats}");
            assert!(
                (0..2).all(|f| sim.record(f).finish.is_some()),
                "{case}: both flows finished"
            );
            let buffered = sim.obs.completed.as_ref().map(Vec::len);
            assert_eq!(buffered, with_app.then_some(0), "{case}");
            let expected: &[FlowId] = if with_app { &[0, 1] } else { &[] };
            let seen = seen.borrow();
            assert_eq!(*seen, expected, "{case}: the App saw each completion once");
            let finished = sim.obs.streaming.as_ref().map(|st| st.finished);
            let calls = seen.len() as u64;
            assert_eq!(finished, streaming_stats.then_some(calls), "{case}");
        }
    }

    /// Sends its flow's bytes back to back and ignores every ACK.
    struct Burst {
        left: u64,
        next: u64,
        mtu: u32,
    }

    impl Transport for Burst {
        fn on_start(&mut self, _: &mut TransportCtx<'_>) {}
        fn on_ack(&mut self, _: &AckEvent, _: &mut TransportCtx<'_>) {}
        fn on_timer(&mut self, _: u64, _: &mut TransportCtx<'_>) {}
        fn try_send(&mut self, _: Time) -> TrySend {
            match self.left.min(self.mtu as u64) as u32 {
                0 => TrySend::Blocked,
                bytes => TrySend::Data {
                    seq: self.next,
                    bytes,
                },
            }
        }
        fn on_sent(&mut self, sent: TrySend, _: &mut TransportCtx<'_>) {
            if let TrySend::Data { bytes, .. } = sent {
                self.next += bytes as u64;
                self.left -= bytes as u64;
            }
        }
        fn is_finished(&self) -> bool {
            false
        }
        fn cwnd_bytes(&self) -> f64 {
            0.0
        }
    }

    /// What a [`Recorder`] saw of one [`AckEvent`]: kind, delay, cum,
    /// acked seq, acked bytes, ECN echo, NACK, and the INT path's queue
    /// lengths.
    type Seen = (
        AckKind,
        Time,
        u64,
        u64,
        u32,
        bool,
        Option<(u64, u64)>,
        Option<Vec<u64>>,
    );

    /// A transport that only records the ACKs it is handed, into a list the
    /// test keeps a handle on.
    #[derive(Clone, Default)]
    #[expect(
        clippy::disallowed_types,
        reason = "a test-only recorder no simulation reads"
    )]
    struct Recorder(Rc<RefCell<Vec<Seen>>>);

    impl Transport for Recorder {
        fn on_start(&mut self, _: &mut TransportCtx<'_>) {}
        fn on_ack(&mut self, ack: &AckEvent, _: &mut TransportCtx<'_>) {
            let int = ack
                .int
                .as_deref()
                .map(|p| p.as_slice().iter().map(|h| h.qlen).collect());
            let (cum, seq, bytes) = (ack.cum_bytes, ack.acked_seq, ack.acked_bytes);
            let seen = (
                ack.kind,
                ack.delay,
                cum,
                seq,
                bytes,
                ack.ecn_echo,
                ack.nack,
                int,
            );
            self.0.borrow_mut().push(seen);
        }
        fn on_timer(&mut self, _: u64, _: &mut TransportCtx<'_>) {}
        fn try_send(&mut self, _: Time) -> TrySend {
            TrySend::Blocked
        }
        fn on_sent(&mut self, _: TrySend, _: &mut TransportCtx<'_>) {}
        fn is_finished(&self) -> bool {
            false
        }
        fn cwnd_bytes(&self) -> f64 {
            0.0
        }
    }

    /// Every ACK word reaches the transport. Data segments and a probe that
    /// reach the receiver come back to the sender as the `AckEvent`s they
    /// should: cum, acked seq and bytes, the echoed send time (as the
    /// delay), the ECN echo, the NACK and the INT path — for `Ack` and
    /// `ProbeAck` alike. The INT box then goes back to the recycle stack.
    #[test]
    fn ack_words_reach_the_ack_event() {
        let topo = Topology::single_switch(1, Rate::from_gbps(100), Time::from_us(1));
        let (snd, rcv) = (topo.hosts[0], topo.hosts[1]);
        let lossy = SwitchConfig {
            pfc_enabled: false,
            ..Default::default()
        };
        let mut sim = Sim::new(&topo, SimConfig::default(), lossy);
        let rec = Recorder::default();
        let spec = FlowSpec::new(snd, rcv, 1 << 20, Time::ZERO);
        let fid = sim.add_flow(spec.clone(), |_| Box::new(rec.clone()));
        let p = sim.flow_params(&spec, fid);
        let probe_shift = p.base_rtt.saturating_sub(p.base_rtt_probe);
        let Sim {
            env,
            state: st,
            obs,
            ..
        } = &mut sim;
        let run = &mut Run { env, obs };
        st.flows[fid as usize].active = true;
        // `pkt`, sent at `sent` µs with ECN mark `ecn` and INT hops of queue
        // lengths `hops`, reaches the receiver 1 µs later; the answer it
        // turns into (in the same slot: LIFO) reaches the sender at `back` µs.
        let mut trip = |mut pkt: Packet, ecn: bool, hops: &[u64], sent: u64, back: u64| {
            pkt.header.ts_tx = Time::from_us(sent);
            pkt.header.ecn_ce = ecn;
            let pid = st.arena.alloc(pkt);
            for &qlen in hops {
                let hop = IntHop {
                    qlen,
                    tx_bytes: 0,
                    ts: Time::ZERO,
                    rate_bps: 0,
                };
                st.arena.append_int(pid, hop);
            }
            st.port_mut(rcv, 0).busy = false;
            st.host_arrive(run, rcv, pid, Time::from_us(sent + 1));
            assert!(
                !st.arena.get(pid).kind.is_data(),
                "the answer took the slot"
            );
            st.host_arrive(run, snd, pid, Time::from_us(back));
        };
        // Segment [0, 500) in order: cum moves to 500, nothing is NACKed.
        trip(
            Packet::data(fid, snd, rcv, 0, 500, 0, Time::ZERO),
            false,
            &[],
            3,
            10,
        );
        // Then [2000, 3000), past a gap: the ACK NACKs [500, 2000).
        trip(
            Packet::data(fid, snd, rcv, 0, 1000, 2000, Time::ZERO),
            true,
            &[5, 6],
            11,
            20,
        );
        trip(
            Packet::probe(fid, snd, rcv, 0, Time::ZERO),
            false,
            &[],
            21,
            30,
        );
        let us = Time::from_us;
        assert_eq!(
            *rec.0.borrow(),
            [
                (AckKind::Data, us(7), 500, 0, 500, false, None, None),
                (
                    AckKind::Data,
                    us(9),
                    500,
                    2000,
                    1000,
                    true,
                    Some((500, 2000)),
                    Some(vec![5, 6])
                ),
                (
                    AckKind::Probe,
                    us(9) + probe_shift,
                    0,
                    0,
                    0,
                    false,
                    None,
                    None
                ),
            ]
        );
        let s = st.arena.stats();
        assert_eq!(
            (s.int_allocs, s.int_recycled),
            (1, 1),
            "the INT box went back to the stack"
        );
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
