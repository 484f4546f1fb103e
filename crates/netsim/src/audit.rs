//! Invariant auditing: conservation and state-machine checks at event
//! boundaries.
//!
//! The audit layer is the simulator's deterministic-simulation-testing
//! harness. When enabled at run time ([`crate::Sim::enable_audit`] or the
//! `PRIOPLUS_AUDIT` environment variable), the event loop verifies after
//! every event that the simulation state still satisfies the invariants the
//! paper's switch mechanisms guarantee in hardware:
//!
//! - **packet conservation** — data packets injected = delivered + dropped +
//!   in flight; receiver-delivered bytes never exceed the flow size;
//!   [`crate::record::SimCounters`] agree with independently tallied counts;
//! - **buffer accounting** — per-queue/per-port/per-switch byte counters
//!   match a recount of the actual queued packets, occupancy never exceeds
//!   the physical buffer, and lossy-mode admissions respect the
//!   Dynamic-Threshold limit;
//! - **PFC legality** — Xoff fires whenever an ingress counter crosses the
//!   pause threshold, pause/resume transitions alternate, and no more than
//!   the reserved headroom arrives for a paused (port, priority);
//! - **ECN bounds** — RED marking never marks below `kmin` and always marks
//!   above `kmax` (per-DSCP-scaled where configured);
//! - **transport sanity** — per-CC invariants (cwnd clamps, sequence-state
//!   consistency) via [`crate::transport_api::Transport::check_invariants`];
//! - **event queue** — the scheduler's internal bookkeeping
//!   ([`simcore::EventQueue::check_invariants`]);
//! - **arena accounting** — every live packet-arena slot is referenced by
//!   exactly one queue position or pending arrival, free slots by none, and
//!   the arena's free-list/live bookkeeping is internally consistent
//!   ([`crate::packet::PacketArena::check`]).
//!
//! Violations become structured [`Violation`] records pinpointing the event,
//! node, port, queue, and flow, alongside a ring buffer of the most recent
//! events ([`EventRecord`]) so a failure is debuggable after the fact. A
//! run with the audit off pays one `Option` check per hook.

use std::collections::{BTreeMap, BTreeSet};

use simcore::{RingLog, Time};

use crate::config::DT_ALPHA;
use crate::counters::SimCounters;
use crate::node::Switch;
use crate::packet::{FlowId, NodeId, PacketArena};

/// Configuration of the audit layer.
#[derive(Clone, Debug)]
pub struct AuditConfig {
    /// Number of trailing events retained for violation context.
    pub ring_capacity: usize,
    /// Violations stored verbatim; excess violations are only counted.
    pub max_violations: usize,
    /// Panic with a full dump on the first violation (fail-fast debugging).
    pub panic_on_violation: bool,
    /// Run the O(state) deep scan every N events (1 = every event). The
    /// focused per-event checks always run.
    pub deep_every: u64,
}

impl Default for AuditConfig {
    fn default() -> Self {
        AuditConfig {
            ring_capacity: 64,
            max_violations: 64,
            panic_on_violation: false,
            deep_every: 1,
        }
    }
}

/// Class of invariant violated.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ViolationKind {
    /// A byte counter disagrees with a recount of the queued packets.
    BufferAccounting,
    /// Occupancy exceeded the physical buffer or a DT admission limit.
    BufferOverflow,
    /// More bytes than the reserved PFC headroom arrived for a paused
    /// (ingress port, priority).
    HeadroomOverdraw,
    /// An ingress counter sits above the pause threshold right after an
    /// admission, but no Xoff was sent.
    PfcXoffMissed,
    /// A pause arrived while paused, or a resume while not paused.
    PfcIllegalTransition,
    /// A packet was ECN-marked below `kmin` or left unmarked above `kmax`.
    EcnBounds,
    /// Delivered + dropped packets exceed injected, or a receiver delivered
    /// more bytes than the flow size.
    PacketConservation,
    /// [`SimCounters`] disagree with the audit's independent tallies.
    CounterMismatch,
    /// A transport's internal invariants failed
    /// ([`crate::transport_api::Transport::check_invariants`]).
    TransportSanity,
    /// The event queue's internal bookkeeping failed
    /// ([`simcore::EventQueue::check_invariants`]).
    EventQueue,
    /// The packet arena's live/free accounting failed: a live slot is not
    /// referenced by exactly one queue position or pending arrival, a free
    /// slot is still referenced, or the arena's internal consistency check
    /// ([`crate::packet::PacketArena::check`]) found corruption.
    ArenaAccounting,
    /// The PFC wait-for graph over paused ports contains a cycle — a
    /// circular buffer dependency that cannot drain
    /// (`detect_pause_cycle`). Reported once per deadlock
    /// episode; re-armed when the cycle clears.
    PfcDeadlock,
    /// A completed, deactivated flow still holds a live slot in the
    /// flow-state slab: reclamation was skipped, so transport + reassembly
    /// state is leaking. Checked by the deep scan's flow sweep — the sweep
    /// is O(flows) by design (deep scans are periodic), while the per-event
    /// audit state stays O(ports).
    FlowStateLeak,
}

/// One recorded invariant violation.
#[derive(Clone, Debug)]
pub struct Violation {
    /// What class of invariant failed.
    pub kind: ViolationKind,
    /// Simulated time of the event that exposed it.
    pub time: Time,
    /// Node involved, when applicable.
    pub node: Option<NodeId>,
    /// Port involved, when applicable.
    pub port: Option<u16>,
    /// Queue / priority involved, when applicable.
    pub queue: Option<u8>,
    /// Flow involved, when applicable.
    pub flow: Option<FlowId>,
    /// Human-readable description with the offending values.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{:?}] t={}", self.kind, self.time)?;
        if let Some(n) = self.node {
            write!(f, " node={n}")?;
        }
        if let Some(p) = self.port {
            write!(f, " port={p}")?;
        }
        if let Some(q) = self.queue {
            write!(f, " queue={q}")?;
        }
        if let Some(fl) = self.flow {
            write!(f, " flow={fl}")?;
        }
        write!(f, ": {}", self.detail)
    }
}

/// Compact record of one processed event, kept in the trailing ring buffer.
#[derive(Clone, Copy, Debug)]
pub struct EventRecord {
    /// Position in the event stream (0-based).
    pub seq: u64,
    /// Event timestamp.
    pub time: Time,
    /// Event kind (static label).
    pub kind: &'static str,
    /// Primary id of the event (node, flow, or monitor index).
    pub id: u32,
}

/// Final audit output, attached to [`crate::record::SimResult`].
#[derive(Clone, Debug)]
pub struct AuditReport {
    /// Stored violations (capped at [`AuditConfig::max_violations`]).
    pub violations: Vec<Violation>,
    /// Total violations detected, including ones beyond the storage cap.
    pub total_violations: u64,
    /// Events the audit layer observed.
    pub events_audited: u64,
    /// Deep scans performed.
    pub deep_scans: u64,
    /// The most recent events, oldest first.
    pub recent_events: Vec<EventRecord>,
}

impl AuditReport {
    /// True when no violation was detected.
    pub fn is_clean(&self) -> bool {
        self.total_violations == 0
    }

    /// Multi-line human-readable dump: every stored violation plus the
    /// trailing event ring.
    pub fn dump(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "audit: {} violation(s) over {} events ({} deep scans)",
            self.total_violations, self.events_audited, self.deep_scans
        );
        for v in &self.violations {
            let _ = writeln!(out, "  {v}");
        }
        if !self.recent_events.is_empty() {
            let _ = writeln!(out, "  recent events (oldest first):");
            for e in &self.recent_events {
                let _ = writeln!(out, "    #{} t={} {} id={}", e.seq, e.time, e.kind, e.id);
            }
        }
        out
    }
}

/// PFC pause-state mirror for one (node, ingress port, priority).
#[derive(Clone, Copy, Debug, Default)]
struct PfcMirror {
    paused: bool,
    /// Bytes that arrived for this (port, priority) since the pause was
    /// emitted; must stay within the reserved headroom.
    since_pause_bytes: u64,
}

/// Where a violation was found, as narrowly as its rule can say: the
/// [`Violation`] fields it fills.
#[derive(Clone, Copy, Debug)]
pub(crate) enum At {
    /// The fabric as a whole (conservation, counters, arena, event queue).
    Fabric,
    /// One flow.
    Flow(FlowId),
    /// A switch.
    Switch(NodeId),
    /// An attachment: node and port.
    Port(NodeId, u16),
    /// A queue (priority) of an attachment.
    Queue(NodeId, u16, u8),
}

/// Details of a packet that just went through switch admission, handed to
/// [`Audit::note_switch_arrive`] by the event loop.
pub(crate) struct SwitchArrive {
    pub(crate) node: NodeId,
    pub(crate) in_port: u16,
    pub(crate) egress: u16,
    pub(crate) queue: u8,
    pub(crate) wire: u64,
    pub(crate) is_data: bool,
    pub(crate) dropped: bool,
    /// For data packets: (egress queue bytes before enqueue, dscp, marked).
    pub(crate) ecn: Option<(u64, u8, bool)>,
}

/// The (switch, ingress port, queue) an admission in the current event
/// touched; checked against the Xoff invariant at the event boundary.
#[derive(Debug)]
pub(crate) struct Focus {
    pub(crate) node: NodeId,
    pub(crate) in_port: u16,
    pub(crate) queue: u8,
}

/// Live audit state held by the simulator while auditing is enabled.
#[derive(Debug)]
pub struct Audit {
    cfg: AuditConfig,
    /// Time of the event being dispatched ([`Self::on_event`]): every
    /// violation found until the next one is stamped with it.
    now: Time,
    ring: RingLog<EventRecord>,
    violations: Vec<Violation>,
    total_violations: u64,
    events_audited: u64,
    deep_scans: u64,
    injected_pkts: u64,
    injected_wire: u64,
    delivered_pkts: u64,
    delivered_wire: u64,
    dropped_pkts: u64,
    dropped_wire: u64,
    pfc: BTreeMap<(NodeId, u16, u8), PfcMirror>,
    focus: Option<Focus>,
    touched: Vec<FlowId>,
    /// A PFC deadlock cycle is currently present (latch: one violation per
    /// episode, re-armed when the cycle clears).
    deadlock_active: bool,
}

impl Audit {
    /// New audit state.
    pub fn new(cfg: AuditConfig) -> Self {
        let ring = RingLog::new(cfg.ring_capacity.max(1));
        Audit {
            cfg,
            now: Time::ZERO,
            ring,
            violations: Vec::new(),
            total_violations: 0,
            events_audited: 0,
            deep_scans: 0,
            injected_pkts: 0,
            injected_wire: 0,
            delivered_pkts: 0,
            delivered_wire: 0,
            dropped_pkts: 0,
            dropped_wire: 0,
            pfc: BTreeMap::new(),
            focus: None,
            touched: Vec::new(),
            deadlock_active: false,
        }
    }

    /// Record one violation (central sink; applies the storage cap and the
    /// panic-on-violation policy).
    pub(crate) fn violate(&mut self, v: Violation) {
        self.total_violations += 1;
        if self.cfg.panic_on_violation {
            let mut dump = String::from("audit violation: ");
            dump.push_str(&v.to_string());
            dump.push('\n');
            dump.push_str(&self.snapshot_report().dump());
            panic!("{dump}");
        }
        if self.violations.len() < self.cfg.max_violations {
            self.violations.push(v);
        }
    }

    /// Record a `kind` violation found at `at` during the current event.
    pub(crate) fn report(&mut self, kind: ViolationKind, at: At, detail: String) {
        let (node, port, queue, flow) = match at {
            At::Fabric => (None, None, None, None),
            At::Flow(flow) => (None, None, None, Some(flow)),
            At::Switch(node) => (Some(node), None, None, None),
            At::Port(node, port) => (Some(node), Some(port), None, None),
            At::Queue(node, port, queue) => (Some(node), Some(port), Some(queue), None),
        };
        self.violate(Violation {
            kind,
            time: self.now,
            node,
            port,
            queue,
            flow,
            detail,
        });
    }

    /// Ring-log one event about to be processed.
    pub(crate) fn on_event(&mut self, time: Time, kind: &'static str, id: u32) {
        self.now = time;
        self.ring.push(EventRecord {
            seq: self.events_audited,
            time,
            kind,
            id,
        });
        self.events_audited += 1;
    }

    /// A data packet left a sender NIC (includes retransmissions).
    pub(crate) fn on_data_injected(&mut self, flow: FlowId, wire: u64) {
        self.injected_pkts += 1;
        self.injected_wire += wire;
        self.touch_flow(flow);
    }

    /// A data packet arrived at its destination host.
    pub(crate) fn on_data_delivered(&mut self, flow: FlowId, wire: u64) {
        self.delivered_pkts += 1;
        self.delivered_wire += wire;
        self.touch_flow(flow);
        if self.delivered_pkts + self.dropped_pkts > self.injected_pkts {
            let (d, dr, i) = (self.delivered_pkts, self.dropped_pkts, self.injected_pkts);
            self.report(
                ViolationKind::PacketConservation,
                At::Flow(flow),
                format!("delivered {d} + dropped {dr} > injected {i}"),
            );
        }
    }

    /// A data packet was dropped because its link was down at arrival
    /// ([`crate::faults`]): it joins the dropped tallies so packet
    /// conservation stays exact under link flaps. Control-packet losses are
    /// not tallied — they were never counted as injected.
    pub(crate) fn on_link_drop(&mut self, wire: u64) {
        self.dropped_pkts += 1;
        self.dropped_wire += wire;
    }

    /// Outcome of the PFC deadlock monitor for this deep scan: report a
    /// fresh cycle once, stay quiet while it persists, re-arm when it
    /// clears.
    pub(crate) fn check_deadlock(&mut self, cycle: Option<&[(NodeId, u16, u8)]>) {
        match cycle {
            Some(c) => {
                if self.deadlock_active {
                    return;
                }
                self.deadlock_active = true;
                let mut desc = String::from("PFC wait-for cycle:");
                for &(n, p, q) in c {
                    use std::fmt::Write;
                    let _ = write!(desc, " ({n},{p},q{q})");
                }
                let &(node, port, queue) = c.first().expect("a cycle has vertices");
                self.report(
                    ViolationKind::PfcDeadlock,
                    At::Queue(node, port, queue),
                    desc,
                );
            }
            None => self.deadlock_active = false,
        }
    }

    /// Mark a flow's transport state as touched by the current event; its
    /// invariants are verified at the boundary.
    pub(crate) fn touch_flow(&mut self, flow: FlowId) {
        if self.touched.last() != Some(&flow) {
            self.touched.push(flow);
        }
    }

    /// Pop one touched flow (boundary drain).
    pub(crate) fn pop_touched(&mut self) -> Option<FlowId> {
        self.touched.pop()
    }

    /// A PFC pause/resume frame was emitted by `node` toward ingress
    /// `in_port`'s upstream peer: verify the transition is legal and update
    /// the pause mirror.
    pub(crate) fn on_pfc_frame(&mut self, node: NodeId, in_port: u16, prio: u8, pause: bool) {
        let m = self.pfc.entry((node, in_port, prio)).or_default();
        let illegal = m.paused == pause;
        m.paused = pause;
        m.since_pause_bytes = 0;
        if illegal {
            let what = if pause {
                "pause while already paused"
            } else {
                "resume while not paused"
            };
            self.report(
                ViolationKind::PfcIllegalTransition,
                At::Queue(node, in_port, prio),
                what.to_string(),
            );
        }
    }

    /// A packet went through switch admission: run the per-packet checks
    /// (ECN bounds, DT limit, headroom draw) and arm the boundary Xoff
    /// check. Must be called *before* the pause frames from this admission
    /// are emitted, so the triggering packet itself never draws headroom.
    pub(crate) fn note_switch_arrive(&mut self, info: &SwitchArrive, sw: &Switch) {
        if info.dropped {
            self.dropped_pkts += 1;
            self.dropped_wire += info.wire;
        }
        if let Some((q_pre, dscp, marked)) = info.ecn {
            let scale = if sw.cfg.ecn_prio_scaled {
                dscp as u64 + 1
            } else {
                1
            };
            let (kmin, kmax) = (sw.cfg.ecn_kmin * scale, sw.cfg.ecn_kmax * scale);
            if marked && q_pre <= kmin {
                self.report(
                    ViolationKind::EcnBounds,
                    At::Queue(info.node, info.egress, info.queue),
                    format!("marked at queue {q_pre} B <= kmin {kmin} B"),
                );
            } else if !marked && q_pre >= kmax {
                self.report(
                    ViolationKind::EcnBounds,
                    At::Queue(info.node, info.egress, info.queue),
                    format!("unmarked at queue {q_pre} B >= kmax {kmax} B"),
                );
            }
        }
        if info.dropped {
            return;
        }
        // Headroom draw: bytes arriving for an already-paused (port, prio)
        // come out of the reserved headroom and must fit in it.
        if let Some(m) = self
            .pfc
            .get_mut(&(info.node, info.in_port, info.queue))
            .filter(|m| m.paused)
        {
            m.since_pause_bytes += info.wire;
            let drawn = m.since_pause_bytes;
            let headroom = sw.cfg.pfc_headroom_bytes;
            if drawn > headroom {
                self.report(
                    ViolationKind::HeadroomOverdraw,
                    At::Queue(info.node, info.in_port, info.queue),
                    format!("{drawn} B arrived since pause, headroom {headroom} B"),
                );
            }
        }
        // Lossy-mode Dynamic Threshold: the post-admission queue must fit
        // under alpha * (free-at-admission) = alpha * (free_now + size).
        if !sw.cfg.pfc_enabled && info.is_data {
            let q_post = sw.ports[info.egress as usize].queues[info.queue as usize].bytes;
            let free_at_admission = sw.free_buffer() + info.wire;
            let limit = (DT_ALPHA * free_at_admission as f64) as u64 + info.wire;
            if q_post > limit {
                self.report(
                    ViolationKind::BufferOverflow,
                    At::Queue(info.node, info.egress, info.queue),
                    format!("queue {q_post} B exceeds DT admission limit {limit} B"),
                );
            }
        }
        // Arm the boundary Xoff-must-fire check for this (port, priority).
        let nq = sw.num_queues();
        if sw.cfg.pfc_enabled && (info.queue as usize) < nq - 1 {
            self.focus = Some(Focus {
                node: info.node,
                in_port: info.in_port,
                queue: info.queue,
            });
        }
    }

    /// Take the admission focus armed by the last event, if any.
    pub(crate) fn take_focus(&mut self) -> Option<Focus> {
        self.focus.take()
    }

    /// Xoff-must-fire: right after an admission for (in_port, queue), an
    /// ingress counter above the pause threshold implies a pause was sent.
    ///
    /// This is sound at the event boundary because between the admission and
    /// the boundary only dequeues happen on this switch: the ingress counter
    /// can only fall and the threshold can only rise, and a resume requires
    /// falling below `threshold - resume_offset`. So `bytes > threshold`
    /// still holding here means the admission itself saw it and must have
    /// paused.
    pub(crate) fn check_xoff(&mut self, focus: &Focus, sw: &Switch) {
        let (ip, q) = (focus.in_port as usize, focus.queue as usize);
        let bytes = sw.ingress_bytes(ip, q);
        let threshold = sw.pfc_pause_threshold();
        if bytes > threshold && !sw.ingress_paused(ip, q) {
            self.report(
                ViolationKind::PfcXoffMissed,
                At::Queue(focus.node, focus.in_port, focus.queue),
                format!("ingress {bytes} B > pause threshold {threshold} B, no Xoff sent"),
            );
        }
    }

    /// True when the periodic deep scan is due for the event just processed.
    pub(crate) fn should_deep_scan(&self) -> bool {
        self.cfg.deep_every <= 1 || self.events_audited.is_multiple_of(self.cfg.deep_every)
    }

    /// Deep-scan one switch: recount every queue against the byte counters,
    /// check occupancy against the physical buffer, and cross-check the PFC
    /// pause mirror. Returns the data wire bytes found buffered (for the
    /// conservation check).
    pub(crate) fn check_switch(&mut self, node: NodeId, sw: &Switch, arena: &PacketArena) -> u64 {
        self.deep_scans += 1;
        let mut switch_total = 0u64;
        let mut data_wire = 0u64;
        for (pi, port) in sw.ports.iter().enumerate() {
            let mut port_total = 0u64;
            for (qi, queue) in port.queues.iter().enumerate() {
                let mut recount = 0u64;
                for &id in &queue.ids {
                    let pkt = arena.get(id);
                    recount += pkt.size as u64;
                    if pkt.kind.is_data() {
                        data_wire += pkt.size as u64;
                    }
                }
                if recount != queue.bytes {
                    let counter = queue.bytes;
                    self.report(
                        ViolationKind::BufferAccounting,
                        At::Queue(node, pi as u16, qi as u8),
                        format!("queue recount {recount} B != counter {counter} B"),
                    );
                }
                port_total += recount;
            }
            if port_total != port.queued_bytes {
                let counter = port.queued_bytes;
                self.report(
                    ViolationKind::BufferAccounting,
                    At::Port(node, pi as u16),
                    format!("port recount {port_total} B != counter {counter} B"),
                );
            }
            switch_total += port_total;
        }
        if switch_total != sw.total_buffered {
            let counter = sw.total_buffered;
            self.report(
                ViolationKind::BufferAccounting,
                At::Switch(node),
                format!("switch recount {switch_total} B != total_buffered {counter} B"),
            );
        }
        let nq = sw.num_queues();
        let ingress_total: u64 = (0..sw.ports.len())
            .flat_map(|ip| (0..nq).map(move |q| sw.ingress_bytes(ip, q)))
            .sum();
        if ingress_total != sw.total_buffered {
            let counter = sw.total_buffered;
            self.report(
                ViolationKind::BufferAccounting,
                At::Switch(node),
                format!("ingress recount {ingress_total} B != total_buffered {counter} B"),
            );
        }
        if sw.total_buffered > sw.cfg.buffer_bytes {
            let (used, cap) = (sw.total_buffered, sw.cfg.buffer_bytes);
            self.report(
                ViolationKind::BufferOverflow,
                At::Switch(node),
                format!("buffered {used} B exceeds physical buffer {cap} B"),
            );
        }
        // Pause mirror vs switch state: every emitted pause we saw must
        // match what the switch believes, and vice versa.
        for ip in 0..sw.ports.len() {
            for qi in 0..nq {
                let paused = sw.ingress_paused(ip, qi);
                let mirrored = self
                    .pfc
                    .get(&(node, ip as u16, qi as u8))
                    .map(|m| m.paused)
                    .unwrap_or(false);
                if mirrored != paused {
                    self.report(
                        ViolationKind::PfcIllegalTransition,
                        At::Queue(node, ip as u16, qi as u8),
                        format!("switch pause state {paused} but emitted frames imply {mirrored}"),
                    );
                }
            }
        }
        data_wire
    }

    /// Deep-scan the packet arena: the arena's own structural invariants
    /// ([`PacketArena::check`]) must hold, and `refs` — the caller's recount
    /// of how many times each slot is referenced by a port queue position or
    /// a pending `Arrive` event — must show every live slot held exactly
    /// once and every free slot not at all. Together these prove ids are
    /// never duplicated, leaked, or used after release.
    pub(crate) fn check_arena(&mut self, arena: &PacketArena, refs: &[u32]) {
        if let Err(e) = arena.check() {
            self.report(
                ViolationKind::ArenaAccounting,
                At::Fabric,
                format!("arena self-check failed: {e}"),
            );
        }
        for (i, &n) in refs.iter().enumerate() {
            let live = arena.is_live(crate::packet::PacketId(i as u32));
            if live && n != 1 {
                self.report(
                    ViolationKind::ArenaAccounting,
                    At::Fabric,
                    format!("live arena slot {i} referenced {n} times (expected 1)"),
                );
            } else if !live && n != 0 {
                self.report(
                    ViolationKind::ArenaAccounting,
                    At::Fabric,
                    format!("free arena slot {i} still referenced {n} times"),
                );
            }
        }
    }

    /// Conservation across the whole fabric: what is buffered in switches
    /// can be at most what was injected and neither delivered nor dropped
    /// (the remainder is in flight on links).
    pub(crate) fn check_conservation(&mut self, buffered_data_wire: u64) {
        let outstanding = self
            .injected_wire
            .saturating_sub(self.delivered_wire)
            .saturating_sub(self.dropped_wire);
        if buffered_data_wire > outstanding
            || self.delivered_wire + self.dropped_wire > self.injected_wire
        {
            let (i, d, dr) = (self.injected_wire, self.delivered_wire, self.dropped_wire);
            self.report(
                ViolationKind::PacketConservation,
                At::Fabric,
                format!(
                    "buffered {buffered_data_wire} B > injected {i} - delivered {d} - dropped {dr}"
                ),
            );
        }
    }

    /// Cross-check the simulator's public counters against the audit's
    /// independent tallies.
    pub(crate) fn check_counters(&mut self, counters: &SimCounters) {
        if counters.data_delivered != self.delivered_pkts {
            let (c, a) = (counters.data_delivered, self.delivered_pkts);
            self.report(
                ViolationKind::CounterMismatch,
                At::Fabric,
                format!("counters.data_delivered {c} != audited {a}"),
            );
        }
        if counters.drops + counters.fault_link_drops != self.dropped_pkts {
            let (c, f, a) = (counters.drops, counters.fault_link_drops, self.dropped_pkts);
            self.report(
                ViolationKind::CounterMismatch,
                At::Fabric,
                format!("counters.drops {c} + fault_link_drops {f} != audited {a}"),
            );
        }
    }

    fn snapshot_report(&self) -> AuditReport {
        AuditReport {
            violations: self.violations.clone(),
            total_violations: self.total_violations,
            events_audited: self.events_audited,
            deep_scans: self.deep_scans,
            recent_events: self.ring.iter().copied().collect(),
        }
    }

    /// Consume the audit state into its final report.
    pub fn into_report(self) -> AuditReport {
        self.snapshot_report()
    }
}

/// The audit the environment asks for, read once per process:
/// `PRIOPLUS_AUDIT` set to anything but `0` turns it on,
/// `PRIOPLUS_AUDIT_PANIC` (the same way) makes it panic with a full
/// ring-log dump on the first violation, and `PRIOPLUS_AUDIT_DEEP=N` runs
/// the O(state) scan every N events (default 64; `1` = every event; the
/// cheap focused checks always run per event). Explicit
/// [`crate::Sim::enable_audit_with`] calls carry their own config.
#[expect(
    clippy::disallowed_types,
    reason = "process-wide env cache - write-once before any sim state exists"
)]
pub(crate) fn env_config() -> Option<AuditConfig> {
    use std::sync::OnceLock;
    static CONFIG: OnceLock<Option<AuditConfig>> = OnceLock::new();
    let read = || {
        let on = |var: &str| std::env::var(var).is_ok_and(|v| v != "0");
        let deep = std::env::var("PRIOPLUS_AUDIT_DEEP")
            .ok()
            .and_then(|v| v.parse().ok());
        on("PRIOPLUS_AUDIT").then(|| AuditConfig {
            panic_on_violation: on("PRIOPLUS_AUDIT_PANIC"),
            deep_every: deep.filter(|&n| n > 0).unwrap_or(64),
            ..AuditConfig::default()
        })
    };
    CONFIG.get_or_init(read).clone()
}

/// Whether auditing was requested from the environment: `PRIOPLUS_AUDIT`
/// set to anything but `0`. Cached, so the per-run cost is one load.
pub fn env_enabled() -> bool {
    env_config().is_some()
}

/// Detect a PFC wait-for cycle (circular buffer dependency) over the
/// current pause state. See [`crate::faults`]'s module docs for the graph construction.
/// Returns the first cycle found — deterministic: vertices are visited in
/// sorted `(node, port, queue)` order — as the list of its vertices, or
/// `None` when the wait-for graph is acyclic.
pub(crate) fn detect_pause_cycle(
    switches: &[(NodeId, &Switch)],
    arena: &PacketArena,
) -> Option<Vec<(NodeId, u16, u8)>> {
    // Vertices: every paused data-priority egress on a switch. The control
    // queue (index nq-1) is never PFC-paused.
    let mut verts: Vec<(NodeId, u16, u8)> = Vec::new();
    let mut sw_of: BTreeMap<NodeId, &Switch> = BTreeMap::new();
    for &(id, s) in switches {
        sw_of.insert(id, s);
        for (pi, p) in s.ports.iter().enumerate() {
            for q in 0..p.queues.len().saturating_sub(1) {
                if p.is_paused(q) {
                    verts.push((id, pi as u16, q as u8));
                }
            }
        }
    }
    if verts.len() < 2 {
        return None;
    }
    verts.sort_unstable();
    // Per vertex: the set of ingress ports whose packets occupy its queue.
    // One pass over paused queues only, so edge tests below are set lookups
    // instead of per-edge queue scans.
    let ins: BTreeMap<(NodeId, u16, u8), BTreeSet<u16>> = verts
        .iter()
        .map(|&(id, pi, q)| {
            let set: BTreeSet<u16> = sw_of[&id].ports[pi as usize].queues[q as usize]
                .ids
                .iter()
                .map(|&pid| arena.get(pid).cur_in_port)
                .collect();
            ((id, pi, q), set)
        })
        .collect();
    // Edge (A,p,q) -> (B,p2,q): A waits on peer B's resume for link (A,p);
    // that resume is blocked while B's paused egress (p2,q) holds a packet
    // that entered B through this very link.
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); verts.len()];
    for (i, &(a, p, q)) in verts.iter().enumerate() {
        let ep = &sw_of[&a].ports[p as usize];
        let (b, b_in) = (ep.peer, ep.peer_port);
        for (j, &(vb, p2, q2)) in verts.iter().enumerate() {
            if vb == b && q2 == q && ins[&(vb, p2, q2)].contains(&b_in) {
                adj[i].push(j);
            }
        }
    }
    // DFS cycle detection in sorted vertex order (deterministic result).
    // 0 = unvisited, 1 = on the current path, 2 = done.
    let mut color = vec![0u8; verts.len()];
    let mut path: Vec<usize> = Vec::new();
    for start in 0..verts.len() {
        if color[start] == 0 {
            if let Some(cycle) = dfs_cycle(start, &adj, &mut color, &mut path) {
                return Some(cycle.into_iter().map(|i| verts[i]).collect());
            }
        }
    }
    None
}

/// Depth-first search step for [`detect_pause_cycle`]; returns the vertex
/// indices of the first back-edge cycle found. Recursion depth is bounded
/// by the number of paused (port, priority) pairs.
fn dfs_cycle(
    v: usize,
    adj: &[Vec<usize>],
    color: &mut [u8],
    path: &mut Vec<usize>,
) -> Option<Vec<usize>> {
    color[v] = 1;
    path.push(v);
    for &w in &adj[v] {
        if color[w] == 1 {
            // Back edge: the cycle is the path suffix starting at `w`.
            let from = path.iter().position(|&x| x == w).unwrap_or(0);
            return Some(path[from..].to_vec());
        }
        if color[w] == 0 {
            if let Some(c) = dfs_cycle(w, adj, color, path) {
                return Some(c);
            }
        }
    }
    path.pop();
    color[v] = 2;
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arena_check_flags_bad_reference_counts() {
        let mut arena = PacketArena::new();
        let probe = || crate::packet::Packet::probe(0, 0, 1, 0, Time::ZERO);
        let live = arena.alloc(probe());
        let freed = arena.alloc(probe());
        arena.release(freed);
        let mut a = Audit::new(AuditConfig::default());

        // Consistent view: live slot referenced once, free slot not at all.
        let mut refs = vec![0u32; arena.capacity()];
        refs[live.index()] = 1;
        a.check_arena(&arena, &refs);
        assert_eq!(a.total_violations, 0);

        // A duplicated live id and a dangling reference to a freed slot
        // must each produce an ArenaAccounting violation.
        refs[live.index()] = 2;
        refs[freed.index()] = 1;
        a.check_arena(&arena, &refs);
        let r = a.into_report();
        assert_eq!(r.total_violations, 2);
        assert!(r
            .violations
            .iter()
            .all(|v| v.kind == ViolationKind::ArenaAccounting));
    }

    #[test]
    fn report_caps_storage_but_counts_all() {
        let mut a = Audit::new(AuditConfig {
            max_violations: 2,
            ..Default::default()
        });
        for i in 0..5 {
            let (kind, flow) = (ViolationKind::TransportSanity, At::Flow(i as u32));
            a.report(kind, flow, "x".into());
        }
        let r = a.into_report();
        assert_eq!(r.total_violations, 5);
        assert_eq!(r.violations.len(), 2);
        assert!(!r.is_clean());
    }

    #[test]
    fn ring_keeps_most_recent_events() {
        let mut a = Audit::new(AuditConfig {
            ring_capacity: 3,
            ..Default::default()
        });
        for i in 0..10u32 {
            a.on_event(Time::from_us(i as u64), "arrive", i);
        }
        let r = a.into_report();
        assert_eq!(r.events_audited, 10);
        let ids: Vec<u32> = r.recent_events.iter().map(|e| e.id).collect();
        assert_eq!(ids, vec![7, 8, 9]);
    }

    #[test]
    fn pfc_transition_legality() {
        let mut a = Audit::new(AuditConfig::default());
        a.on_pfc_frame(0, 1, 0, true); // pause: legal
        a.on_pfc_frame(0, 1, 0, true); // pause again: illegal
        a.on_pfc_frame(0, 1, 0, false); // resume: legal
        a.on_pfc_frame(0, 1, 0, false); // resume again: illegal
        let r = a.into_report();
        assert_eq!(r.total_violations, 2);
        assert!(r
            .violations
            .iter()
            .all(|v| v.kind == ViolationKind::PfcIllegalTransition));
    }

    #[test]
    fn conservation_detects_over_delivery() {
        let mut a = Audit::new(AuditConfig::default());
        a.on_data_injected(0, 1048);
        a.on_data_delivered(0, 1048);
        assert_eq!(a.total_violations, 0);
        a.on_data_delivered(0, 1048); // one more than injected
        assert_eq!(a.total_violations, 1);
        let r = a.into_report();
        assert_eq!(r.violations[0].kind, ViolationKind::PacketConservation);
    }

    /// A violation is stamped with the time of the event it was found in:
    /// the one `on_event` last logged, whichever check reports it.
    #[test]
    fn violations_carry_the_time_of_their_event() {
        let mut a = Audit::new(AuditConfig::default());
        a.on_event(Time::from_us(3), "arrive", 0);
        a.on_pfc_frame(0, 1, 0, false); // resume while not paused
        a.on_event(Time::from_us(7), "flow_timer", 0);
        a.report(ViolationKind::EventQueue, At::Fabric, "boom".into());
        let times: Vec<Time> = a.into_report().violations.iter().map(|v| v.time).collect();
        assert_eq!(times, [Time::from_us(3), Time::from_us(7)]);
    }

    #[test]
    fn dump_is_readable() {
        let mut a = Audit::new(AuditConfig::default());
        a.on_event(Time::from_us(1), "arrive", 3);
        let kind = ViolationKind::TransportSanity;
        a.report(kind, At::Flow(7), "cwnd below floor".into());
        let dump = a.into_report().dump();
        assert!(dump.contains("TransportSanity"));
        assert!(dump.contains("flow=7"));
        assert!(dump.contains("arrive"));
    }

    #[test]
    fn panic_on_violation_fires() {
        let result = std::panic::catch_unwind(|| {
            let mut a = Audit::new(AuditConfig {
                panic_on_violation: true,
                ..Default::default()
            });
            a.report(ViolationKind::EventQueue, At::Fabric, "boom".into());
        });
        assert!(result.is_err());
    }

    // ---- Buggify coverage: every injected switch fault must be       ----
    // ---- caught by the audit check that owns its invariant.          ----

    use crate::config::{Buggify, SwitchConfig};
    use crate::node::{Admission, EgressPort};
    use crate::packet::Packet;
    use simcore::{Rate, SimRng};

    fn buggy_switch(buggify: Option<Buggify>, buffer: u64) -> Switch {
        let cfg = SwitchConfig {
            buffer_bytes: buffer,
            pfc_lossless_prios: 0,
            buggify,
            ..Default::default()
        };
        let ports = (0..2)
            .map(|_| EgressPort::new(1, 0, Rate::from_gbps(100), Time::from_us(1), 3))
            .collect();
        Switch::new(cfg, ports, 2)
    }

    #[test]
    fn dequeue_leak_buggify_caught_by_buffer_accounting() {
        let mut arena = PacketArena::new();
        let mut s = buggy_switch(Some(Buggify::DequeueLeak), 1_000_000);
        let mut pauses = Vec::new();
        let id = arena.alloc(Packet::data(0, 0, 1, 0, 1000, 0, Time::ZERO));
        assert_eq!(
            s.admit(0, 1, id, 0, &mut arena, &mut pauses),
            Admission::Queued
        );
        let mut a = Audit::new(AuditConfig::default());
        a.check_switch(0, &s, &arena);
        assert_eq!(a.total_violations, 0, "consistent before the departure");
        // Departure under the buggify: the queue pops, but shared-buffer
        // and ingress accounting are never released.
        let popped = s.ports[0].dequeue(&arena).unwrap();
        let mut resumes = Vec::new();
        s.on_dequeue(arena.get(popped), 0, &mut resumes);
        arena.release(popped);
        a.check_switch(0, &s, &arena);
        let r = a.into_report();
        assert!(r.total_violations > 0, "leak must be detected");
        assert!(r
            .violations
            .iter()
            .all(|v| v.kind == ViolationKind::BufferAccounting));
    }

    /// Drive admissions and run the boundary Xoff check after each one,
    /// exactly as the event loop does; returns the violations found.
    fn xoff_scan(buggify: Option<Buggify>) -> AuditReport {
        let mut arena = PacketArena::new();
        // Small buffer so the pause threshold floors at 3000 B quickly.
        let mut s = buggy_switch(buggify, 20_000);
        let mut pauses = Vec::new();
        let mut a = Audit::new(AuditConfig::default());
        for i in 0..6u64 {
            let id = arena.alloc(Packet::data(0, 0, 1, 0, 1000, i * 1000, Time::ZERO));
            s.admit(0, 1, id, 0, &mut arena, &mut pauses);
            for &(ip, q) in &pauses {
                a.on_pfc_frame(0, ip, q, true);
            }
            pauses.clear();
            let focus = Focus {
                node: 0,
                in_port: 1,
                queue: 0,
            };
            a.check_xoff(&focus, &s);
        }
        a.into_report()
    }

    #[test]
    fn pfc_off_by_one_buggify_caught_by_xoff_check() {
        let r = xoff_scan(Some(Buggify::PfcPauseOffByOne));
        assert!(r.total_violations > 0, "late pause must be flagged");
        assert_eq!(r.violations[0].kind, ViolationKind::PfcXoffMissed);
        // Soundness: the identical sequence on a correct switch is clean.
        assert!(xoff_scan(None).is_clean());
    }

    #[test]
    fn ecn_below_kmin_buggify_caught_by_ecn_bounds() {
        let s = buggy_switch(Some(Buggify::EcnMarkBelowKmin), 1_000_000);
        let mut rng = SimRng::new(3);
        // Empty queue, far below kmin — the buggify marks anyway.
        let marked = s.ecn_mark(0, 0, 0, 0, &mut rng);
        assert!(marked, "buggify must mark unconditionally");
        let mut a = Audit::new(AuditConfig::default());
        let info = SwitchArrive {
            node: 0,
            in_port: 1,
            egress: 0,
            queue: 0,
            wire: 1048,
            is_data: true,
            dropped: false,
            ecn: Some((0, 0, marked)),
        };
        a.note_switch_arrive(&info, &s);
        let r = a.into_report();
        assert_eq!(r.total_violations, 1);
        assert_eq!(r.violations[0].kind, ViolationKind::EcnBounds);
    }

    #[test]
    fn fault_drops_join_the_counter_identity() {
        let mut a = Audit::new(AuditConfig::default());
        a.on_link_drop(1048);
        let mut c = SimCounters {
            fault_link_drops: 1,
            ..SimCounters::default()
        };
        a.check_counters(&c);
        assert_eq!(a.total_violations, 0, "audited fault drop balances");
        // An unaccounted fault drop (the FaultDropUnaccounted buggify path)
        // breaks the identity and must surface as a counter mismatch.
        c.fault_link_drops = 2;
        a.check_counters(&c);
        assert_eq!(a.total_violations, 1);
        let r = a.into_report();
        assert_eq!(r.violations[0].kind, ViolationKind::CounterMismatch);
    }

    #[test]
    fn deadlock_latch_reports_once_per_episode() {
        let mut a = Audit::new(AuditConfig::default());
        let cycle = [(0 as NodeId, 0u16, 0u8), (1, 1, 0)];
        a.check_deadlock(Some(&cycle));
        a.check_deadlock(Some(&cycle));
        assert_eq!(a.total_violations, 1, "latched: one report per episode");
        a.check_deadlock(None); // cycle cleared: re-arm
        a.check_deadlock(Some(&cycle));
        assert_eq!(a.total_violations, 2);
        let r = a.into_report();
        assert!(r
            .violations
            .iter()
            .all(|v| v.kind == ViolationKind::PfcDeadlock));
        assert!(r.violations[0].detail.contains("(0,0,q0)"));
    }
}
