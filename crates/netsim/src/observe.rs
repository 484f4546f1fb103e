//! What watches a run without steering it: the invariant audit, the
//! streaming FCT sketches, the completions waiting for an
//! [`crate::sim::App`] and the per-flow traces, in one [`Observers`] value
//! beside the [`State`].
//!
//! The event handlers report to it through one hook per kind of thing that
//! happens (`on_event`, `on_flow_touched`, `on_data_injected`, …). A hook is
//! an `#[inline]` branch per member, and a member that is off is `None`, so
//! a run without the audit, the sketches or the traces pays one branch per
//! hook.
//! Nothing here changes what the simulation does: an observer reads the
//! [`State`] it is handed and never writes it.

use simcore::stats::ThroughputMeter;
use simcore::Time;

use crate::audit::{detect_pause_cycle, At, Audit, SwitchArrive, ViolationKind};
use crate::config::SimConfig;
use crate::event::Event;
use crate::node::Switch;
use crate::packet::{FlowId, NodeId, PktHeader};
use crate::record::{FlowRecord, FlowTrace, StreamingStats};
use crate::state::{Env, State};
use crate::transport_api::Transport;

/// Bucket of a traced flow's goodput meter ([`FlowTrace::throughput`]).
const TRACE_BUCKET: Time = Time::from_us(20);

/// The run's observers. Each member is `None` while off.
pub(crate) struct Observers {
    /// Invariant audit ([`crate::Sim::enable_audit`], or `PRIOPLUS_AUDIT`).
    /// Boxed so the disabled case costs a single word. It lives beside the
    /// state, not in it, so it survives a run split by
    /// [`crate::Sim::run_until`] and never enters the digest: an audited and
    /// an unaudited run dispatch identically and must digest equally.
    pub(crate) audit: Option<Box<Audit>>,
    /// FCT sketches ([`crate::SimConfig::streaming_stats`]): completed flows
    /// fold into them at completion time.
    pub(crate) streaming: Option<Box<StreamingStats>>,
    /// Flows completed by the event being dispatched, awaiting delivery to
    /// the [`crate::sim::App`]. `None` unless an `App` is installed
    /// ([`crate::Sim::set_app`]): nothing else reads completions.
    pub(crate) completed: Option<Vec<FlowId>>,
    /// Per-flow series ([`SimConfig::trace_flows`]), indexed by [`FlowId`]:
    /// every flow is traced, so this is O(total flows) and hyperscale runs
    /// leave it off.
    pub(crate) traces: Option<Vec<FlowTrace>>,
}

impl Observers {
    /// The observers a run of `cfg` starts with: the sketches and the
    /// traces when it asks for them, the audit when the environment does,
    /// no `App` buffer.
    pub(crate) fn new(cfg: &SimConfig) -> Self {
        Observers {
            audit: crate::audit::env_config().map(|cfg| Box::new(Audit::new(cfg))),
            streaming: cfg.streaming_stats.then(Box::default),
            completed: None,
            traces: cfg.trace_flows.then(Vec::new),
        }
    }

    /// A flow was registered; it takes the next [`FlowId`].
    pub(crate) fn on_flow_added(&mut self) {
        if let Some(t) = &mut self.traces {
            t.push(FlowTrace {
                throughput: ThroughputMeter::new(TRACE_BUCKET),
                delay: Default::default(),
                cwnd: Default::default(),
            });
        }
    }

    /// `flow`'s transport took an ACK or probe echo at `now` that measured
    /// `delay`; `transport` is its state after the callback.
    #[inline]
    pub(crate) fn on_ack(
        &mut self,
        flow: FlowId,
        now: Time,
        delay: Time,
        transport: &dyn Transport,
    ) {
        if let Some(t) = &mut self.traces {
            let t = &mut t[flow as usize];
            t.delay.push(now, delay.as_us_f64());
            t.cwnd.push(now, transport.cwnd_bytes());
        }
    }

    /// A data packet gave `flow`'s receiver `bytes` new bytes at `now`
    /// (0 for a duplicate).
    #[inline]
    pub(crate) fn on_goodput(&mut self, flow: FlowId, now: Time, bytes: u64) {
        if let Some(t) = &mut self.traces {
            if bytes > 0 {
                t[flow as usize].throughput.record(now, bytes);
            }
        }
    }

    /// `ev` is about to be dispatched at `now`. The other hooks do not carry
    /// the time: it is this one's until the next call.
    #[inline]
    pub(crate) fn on_event(&mut self, now: Time, ev: &Event) {
        if let Some(a) = self.audit.as_deref_mut() {
            let (kind, id) = ev.name_and_id();
            a.on_event(now, kind, id);
        }
    }

    /// The event changed `flow`'s transport state.
    #[inline]
    pub(crate) fn on_flow_touched(&mut self, flow: FlowId) {
        if let Some(a) = self.audit.as_deref_mut() {
            a.touch_flow(flow);
        }
    }

    /// A data packet of `wire` bytes left `flow`'s sender NIC.
    #[inline]
    pub(crate) fn on_data_injected(&mut self, flow: FlowId, wire: u64) {
        if let Some(a) = self.audit.as_deref_mut() {
            a.on_data_injected(flow, wire);
        }
    }

    /// The data packet `pkt` reached its receiver.
    #[inline]
    pub(crate) fn on_data_delivered(&mut self, pkt: &PktHeader) {
        if let Some(a) = self.audit.as_deref_mut() {
            a.on_data_delivered(pkt.flow, pkt.size as u64);
        }
    }

    /// The receiver of `record`'s flow got its last byte at `now`.
    #[inline]
    pub(crate) fn on_flow_done(&mut self, record: &FlowRecord, now: Time) {
        if let Some(st) = self.streaming.as_deref_mut() {
            st.on_complete(record, now);
        }
        if let Some(buf) = &mut self.completed {
            buf.push(record.flow);
        }
    }

    /// `node` sent a PFC pause (or resume) for `prio` out of `in_port`.
    #[inline]
    pub(crate) fn on_pfc_frame(&mut self, node: NodeId, in_port: u16, prio: u8, pause: bool) {
        if let Some(a) = self.audit.as_deref_mut() {
            a.on_pfc_frame(node, in_port, prio, pause);
        }
    }

    /// A data packet of `wire` bytes was lost on a dead link.
    #[inline]
    pub(crate) fn on_link_drop(&mut self, wire: u64) {
        if let Some(a) = self.audit.as_deref_mut() {
            a.on_link_drop(wire);
        }
    }

    /// A packet went through the admission of switch `info.node`, whose
    /// state in `st` is that after the admission and before its PFC frames.
    #[inline]
    pub(crate) fn on_switch_arrive(&mut self, st: &State, info: &SwitchArrive) {
        if let Some(a) = self.audit.as_deref_mut() {
            if let Some(sw) = st.nodes[info.node as usize].as_switch() {
                a.note_switch_arrive(info, sw);
            }
        }
    }

    /// The event just dispatched completed flows an `App` is waiting for.
    #[inline]
    pub(crate) fn completions_pending(&self) -> bool {
        self.completed.as_ref().is_some_and(|b| !b.is_empty())
    }

    /// The event is finished, its `App` delivery included: the audit checks
    /// `st` against its invariants.
    #[inline]
    pub(crate) fn on_event_end(&mut self, st: &State, env: &Env) {
        if let Some(a) = self.audit.as_deref_mut() {
            audit_checks(a, st, env);
        }
    }

    /// The completions buffered for the `App`, leaving the buffer empty.
    pub(crate) fn take_completed(&mut self) -> Vec<FlowId> {
        self.completed
            .as_mut()
            .map(std::mem::take)
            .unwrap_or_default()
    }

    /// Fold what the observers hold that decides a run's outcome: the
    /// traces (absent ones fold as none), the completions awaiting the
    /// `App` (an absent buffer folds as an empty one) and the sketches.
    /// Not the audit (see [`Self::audit`]).
    pub(crate) fn fold_digest(&self, fold: &mut impl FnMut(u64)) {
        let traces = self.traces.as_deref().unwrap_or_default();
        fold(traces.len() as u64);
        for (flow, t) in traces.iter().enumerate() {
            fold(flow as u64);
            t.fold_digest(fold);
        }
        let completed = self.completed.as_deref().unwrap_or_default();
        fold(completed.len() as u64);
        completed.iter().for_each(|&f| fold(f as u64));
        fold(self.streaming.is_some() as u64);
        if let Some(s) = self.streaming.as_deref() {
            fold(s.fingerprint());
        }
    }

    /// [`crate::StateTamper::Sketch`]: fold one sample into the FCT sketch.
    /// `false` when the run has no sketches.
    pub(crate) fn tamper_sketch(&mut self) -> bool {
        if let Some(s) = self.streaming.as_deref_mut() {
            s.fct_ps.add(1);
        }
        self.streaming.is_some()
    }
}

/// Verify cross-cutting invariants at the end of one event: flows the
/// event touched, the Xoff-must-fire condition for an admission in this
/// event, and (per [`crate::AuditConfig::deep_every`]) the O(state)
/// [`deep_scan`].
fn audit_checks(a: &mut Audit, st: &State, env: &Env) {
    while let Some(fid) = a.pop_touched() {
        let f = &st.flows[fid as usize];
        if f.live != u32::MAX {
            if let Err(msg) = st.live.get(f.live).transport.check_invariants() {
                a.report(ViolationKind::TransportSanity, At::Flow(fid), msg);
            }
        }
        if f.record.delivered > f.record.size {
            let (got, size) = (f.record.delivered, f.record.size);
            a.report(
                ViolationKind::PacketConservation,
                At::Flow(fid),
                format!("receiver delivered {got} B > flow size {size} B"),
            );
        }
    }
    if let Some(focus) = a.take_focus() {
        if let Some(s) = st.nodes[focus.node as usize].as_switch() {
            a.check_xoff(&focus, s);
        }
    }
    if a.should_deep_scan() {
        deep_scan(a, st, env);
    }
}

/// The audit's O(state) scan: recount every switch, then check
/// conservation, counters, PFC deadlock, the event queue, flow-slab
/// reclamation and arena references, in that order.
fn deep_scan(a: &mut Audit, st: &State, env: &Env) {
    let switches: Vec<(NodeId, &Switch)> = st
        .nodes
        .iter()
        .enumerate()
        .filter_map(|(id, n)| Some((id as NodeId, n.as_switch()?)))
        .collect();
    let mut buffered_data = 0u64;
    for &(id, s) in &switches {
        buffered_data += a.check_switch(id, s, &st.arena);
    }
    a.check_conservation(buffered_data);
    a.check_counters(&st.counters);
    if env.cfg.faults.as_ref().is_some_and(|s| !s.is_empty()) {
        // PFC deadlock monitor: a cycle in the wait-for graph over
        // paused egress attachments is a circular buffer dependency
        // (see DESIGN.md § Fault model). Only armed alongside a fault
        // schedule — transient legitimate pause cycles in cyclic
        // topologies are not deadlocks.
        let cycle = detect_pause_cycle(&switches, &st.arena);
        a.check_deadlock(cycle.as_deref());
    }
    if let Err(msg) = st.queue.check_invariants() {
        a.report(ViolationKind::EventQueue, At::Fabric, msg);
    }
    // Flow-state reclamation sweep: a completed flow must have released
    // its slab slot — `Buggify::FlowReclaimLeak` proves this sweep
    // notices when it doesn't. O(flows) by design: deep scans are
    // periodic; the per-event audit state stays O(ports).
    let mut resident = 0u64;
    for f in st.flows.iter().filter(|f| f.live != u32::MAX) {
        resident += 1;
        if let (false, Some(finish)) = (f.active, f.record.finish) {
            let (flow, slot) = (f.record.flow, f.live);
            a.report(
                ViolationKind::FlowStateLeak,
                At::Flow(flow),
                format!(
                    "flow {flow} finished at {} but still holds slab slot {slot}",
                    finish.as_ps()
                ),
            );
        }
    }
    if resident != st.live.occupancy {
        let occ = st.live.occupancy;
        a.report(
            ViolationKind::FlowStateLeak,
            At::Flow(0),
            format!("flow slab occupancy {occ} != {resident} resident live slots"),
        );
    }
    // Arena accounting: every live slot must be referenced exactly once
    // — by one port queue or one pending Arrive event — and free slots
    // never. Count references across the whole topology plus the event
    // queue, then check the tally.
    let mut refs = vec![0u32; st.arena.capacity()];
    let ports = st.nodes.iter().flat_map(|n| n.ports());
    let queued = ports.flat_map(|p| &p.queues).flat_map(|q| &q.ids);
    for id in queued {
        refs[id.index()] += 1;
    }
    st.queue.for_each_live(&mut |ev| {
        if let Event::Arrive { pkt, .. } = ev {
            refs[pkt.index()] += 1;
        }
    });
    a.check_arena(&st.arena, &refs);
}
