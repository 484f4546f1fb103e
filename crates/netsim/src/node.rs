//! Link, switch and host state.
//!
//! A link lives on its two [`EgressPort`]s — one per direction — and
//! nowhere else: the static attributes (peer, nominal rate, propagation
//! delay), the dynamic state (busy, PFC pause bits, queues, byte counters)
//! and the fault state (down, degraded, storm-pinned; driven by
//! [`crate::faults`]) sit side by side, so cloning the nodes snapshots a
//! link completely and `EgressPort::fold_digest` fingerprints it. Hosts
//! and switches share the type: a [`Host`]'s NIC is a one-port `Node`.
//!
//! Logic that needs the event queue (scheduling arrivals, PFC frames,
//! transport callbacks) lives in [`crate::sim`]; this module holds the data
//! structures and the pure parts: buffer accounting, admission, ECN marking,
//! strict-priority selection, and PFC threshold math.

use std::collections::VecDeque;

use simcore::{Rate, SimRng, Time};

use crate::config::{Buggify, SwitchConfig};
use crate::packet::{FlowId, NodeId, PacketArena, PacketId, PktHeader};

/// One directional egress attachment (switch port or host NIC).
#[derive(Clone, Debug)]
pub struct EgressPort {
    /// Node on the other end of the link.
    pub peer: NodeId,
    /// Ingress port index at the peer.
    pub peer_port: u16,
    /// Nominal line rate (see [`Self::effective_link`]).
    pub rate: Rate,
    /// Nominal one-way propagation delay.
    pub prop: Time,
    /// A packet is currently being serialized.
    pub busy: bool,
    /// PFC pause state per data priority (bitmask by queue index).
    pub paused: u32,
    /// Fault: the link is down (set on both of its ports). Nothing
    /// serializes onto it and non-PFC arrivals over it are dropped.
    pub down: bool,
    /// Fault: pause-storm pins (bitmask by queue index). A pinned priority
    /// stays paused whatever PFC frames arrive for it.
    pub storm: u32,
    /// Fault: active degradation epoch as `(rate_factor, extra_prop)`.
    pub degrade: Option<(f64, Time)>,
    /// Per-priority FIFO queues of arena handles; index `num_prios` is the
    /// control queue. Queues rotate 4-byte [`PacketId`]s — the packets
    /// themselves stay put in the [`PacketArena`].
    pub queues: Vec<VecDeque<PacketId>>,
    /// Bytes queued per priority queue.
    pub queued_bytes_q: Vec<u64>,
    /// Total bytes queued on this port.
    pub queued_bytes: u64,
    /// Cumulative bytes transmitted (INT).
    pub tx_bytes: u64,
}

impl EgressPort {
    /// New idle port with `nq` queues.
    pub fn new(peer: NodeId, peer_port: u16, rate: Rate, prop: Time, nq: usize) -> Self {
        EgressPort {
            peer,
            peer_port,
            rate,
            prop,
            busy: false,
            paused: 0,
            down: false,
            storm: 0,
            degrade: None,
            queues: (0..nq).map(|_| VecDeque::new()).collect(),
            // simlint::allow(hot-path-alloc, port construction runs once at topology build, not per event)
            queued_bytes_q: vec![0; nq],
            queued_bytes: 0,
            tx_bytes: 0,
        }
    }

    /// True when priority `q` is paused by PFC.
    #[inline]
    pub fn is_paused(&self, q: usize) -> bool {
        self.paused & (1 << q) != 0
    }

    /// Set/clear the pause bit for priority `q`.
    #[inline]
    pub fn set_paused(&mut self, q: usize, paused: bool) {
        set_bit(&mut self.paused, q, paused);
    }

    /// True when a pause storm pins priority `q`.
    #[inline]
    pub fn is_stormed(&self, q: usize) -> bool {
        self.storm & (1 << q) != 0
    }

    /// Pin/release the pause storm on priority `q`.
    #[inline]
    pub fn set_storm(&mut self, q: usize, on: bool) {
        set_bit(&mut self.storm, q, on);
    }

    /// The `(rate, prop)` a packet starting to serialize now experiences:
    /// nominal, or `rate × rate_factor` and `prop + extra_prop` during a
    /// degradation epoch.
    #[inline]
    pub fn effective_link(&self) -> (Rate, Time) {
        match self.degrade {
            None => (self.rate, self.prop),
            Some((factor, extra)) => (self.rate.mul_f64(factor), self.prop + extra),
        }
    }

    /// Fold the port's dynamic and fault state — queue membership and
    /// order included — into a state digest
    /// ([`crate::sim::Sim::state_digest`]). The static link attributes are
    /// functions of the topology and are left out.
    pub(crate) fn fold_digest(&self, fold: &mut impl FnMut(u64)) {
        fold(self.busy as u64 | (self.down as u64) << 1);
        fold((self.paused as u64) << 32 | self.storm as u64);
        let (factor, extra) = self.degrade.unwrap_or((0.0, Time::ZERO));
        fold(self.degrade.is_some() as u64);
        fold(factor.to_bits());
        fold(extra.as_ps());
        fold(self.tx_bytes);
        for (q, bytes) in self.queues.iter().zip(&self.queued_bytes_q) {
            fold(q.len() as u64);
            fold(*bytes);
            for id in q {
                fold(id.index() as u64);
            }
        }
    }

    /// Push a packet (by handle) into its priority queue.
    pub fn enqueue(&mut self, id: PacketId, arena: &PacketArena) {
        let pkt = arena.get(id);
        let q = queue_index(pkt.prio, self.queues.len());
        self.queued_bytes_q[q] += pkt.size as u64;
        self.queued_bytes += pkt.size as u64;
        self.queues[q].push_back(id);
    }

    /// Pop the head of queue `q`, whatever its pause state.
    #[inline]
    pub fn pop_queue(&mut self, q: usize, arena: &PacketArena) -> Option<PacketId> {
        let id = self.queues[q].pop_front()?;
        let size = arena.get(id).size as u64;
        self.queued_bytes_q[q] -= size;
        self.queued_bytes -= size;
        Some(id)
    }

    /// Pop the highest-priority unpaused packet (strict priority, control
    /// queue first).
    pub fn dequeue(&mut self, arena: &PacketArena) -> Option<PacketId> {
        for q in (0..self.queues.len()).rev() {
            if !self.is_paused(q) {
                if let Some(id) = self.pop_queue(q, arena) {
                    return Some(id);
                }
            }
        }
        None
    }

}

#[inline]
fn set_bit(mask: &mut u32, q: usize, on: bool) {
    if on {
        *mask |= 1 << q;
    } else {
        *mask &= !(1 << q);
    }
}

/// Map a packet's `prio` field to its queue index: control packets (ACKs
/// when running in `AckPriority::Control` mode get `prio == ctrl` already)
/// go by their `prio`; the caller sets it appropriately, so this is just a
/// clamp guard. Takes the bare priority so callers holding either a full
/// [`Packet`](crate::packet::Packet) or just a hot [`PktHeader`] can use it.
#[inline]
pub fn queue_index(prio: u8, nq: usize) -> usize {
    (prio as usize).min(nq - 1)
}

/// Result of offering a packet to a switch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Admission {
    /// Packet was queued.
    Queued,
    /// Packet was dropped (lossy mode only).
    Dropped,
}

/// A shared-buffer output-queued switch.
#[derive(Clone, Debug)]
pub struct Switch {
    /// Switch configuration.
    pub cfg: SwitchConfig,
    /// Egress ports.
    pub ports: Vec<EgressPort>,
    /// Total bytes buffered across all ports.
    pub total_buffered: u64,
    /// Usable shared buffer (total minus PFC headroom reservation).
    pub usable: u64,
    /// Ingress byte counts per (ingress port, data priority), for PFC.
    pub ingress_bytes: Vec<Vec<u64>>,
    /// Whether we have sent PAUSE upstream for (ingress port, priority).
    pub ingress_paused: Vec<Vec<bool>>,
    /// High-water mark of total buffered bytes.
    pub max_buffered: u64,
}

impl Switch {
    /// Build a switch; `ports` must already be constructed with
    /// `num_prios + 1` queues each.
    pub fn new(cfg: SwitchConfig, ports: Vec<EgressPort>, num_prios: u8) -> Self {
        let n = ports.len();
        let usable = cfg.usable_buffer(n);
        Switch {
            cfg,
            ports,
            total_buffered: 0,
            usable,
            // simlint::allow(hot-path-alloc, switch construction runs once at topology build, not per event)
            ingress_bytes: vec![vec![0; num_prios as usize + 1]; n],
            // simlint::allow(hot-path-alloc, switch construction runs once at topology build, not per event)
            ingress_paused: vec![vec![false; num_prios as usize + 1]; n],
            max_buffered: 0,
        }
    }

    /// Remaining shared buffer.
    #[inline]
    pub fn free_buffer(&self) -> u64 {
        self.usable.saturating_sub(self.total_buffered)
    }

    /// Dynamic-Threshold admission limit for one queue (Choudhury–Hahne):
    /// a queue may grow up to `alpha * free_buffer`.
    #[inline]
    pub fn dt_limit(&self) -> u64 {
        (self.cfg.dt_alpha * self.free_buffer() as f64) as u64
    }

    /// PFC pause threshold for one (ingress port, priority) counter.
    /// Dynamic: proportional to the free buffer with the (small) ingress
    /// alpha, floored at three MTUs so the switch can always absorb a final
    /// in-flight packet pair.
    #[inline]
    pub fn pfc_pause_threshold(&self) -> u64 {
        ((self.cfg.pfc_alpha * self.free_buffer() as f64) as u64).max(3_000)
    }

    /// Decide ECN marking for a data packet about to be enqueued on `port`,
    /// given current queue occupancy (RED on the per-queue bytes). With
    /// priority-scaled ECN (Appendix B extension) the thresholds grow with
    /// the packet's DSCP, so lower virtual priorities mark first.
    /// `_unused` is ignored: the frozen `ppbench/src/kernels.rs` passes a `0` there (ROADMAP item 3).
    pub fn ecn_mark(
        &self,
        port: u16,
        queue: usize,
        dscp: u8,
        _unused: u64,
        rng: &mut SimRng,
    ) -> bool {
        if self.cfg.buggify == Some(Buggify::EcnMarkBelowKmin) {
            return true;
        }
        let q = self.ports[port as usize].queued_bytes_q[queue];
        let scale = if self.cfg.ecn_prio_scaled {
            dscp as u64 + 1
        } else {
            1
        };
        let (kmin, kmax, pmax) = (
            self.cfg.ecn_kmin * scale,
            self.cfg.ecn_kmax * scale,
            self.cfg.ecn_pmax,
        );
        if q <= kmin {
            false
        } else if q >= kmax {
            true
        } else {
            let p = (q - kmin) as f64 / (kmax - kmin) as f64 * pmax;
            rng.f64() < p
        }
    }

    /// Offer a packet (by handle) for queuing on egress `port` coming from
    /// ingress `in_port`. Applies admission (lossy mode), buffer/ingress
    /// accounting and PFC pause decisions. Returns the admission outcome and
    /// any PFC pause frames to emit as `(ingress_port, prio)`. A `Dropped`
    /// packet is released back to the arena here — its id is dead after the
    /// call.
    /// `_unused` is ignored: the frozen `ppbench/src/kernels.rs` passes a `0` there (ROADMAP item 3).
    pub fn admit(
        &mut self,
        port: u16,
        in_port: u16,
        id: PacketId,
        _unused: u64,
        arena: &mut PacketArena,
        pauses: &mut Vec<(u16, u8)>,
    ) -> Admission {
        let nq = self.ports[port as usize].queues.len();
        let (q, size, is_data) = {
            let pkt = arena.get(id);
            (queue_index(pkt.prio, nq), pkt.size as u64, pkt.kind.is_data())
        };
        if !self.cfg.pfc_enabled && is_data {
            // Lossy: Dynamic-Threshold admission on the egress queue.
            let limit = self.dt_limit();
            if self.ports[port as usize].queued_bytes_q[q] + size > limit {
                arena.release(id);
                return Admission::Dropped;
            }
        }
        arena.get_mut(id).cur_in_port = in_port;
        self.total_buffered += size;
        self.max_buffered = self.max_buffered.max(self.total_buffered);
        self.ingress_bytes[in_port as usize][q] += size;
        self.ports[port as usize].enqueue(id, arena);

        if self.cfg.pfc_enabled && q < nq - 1 {
            // PFC protects data priorities; control queue is never paused.
            let threshold = self.pfc_pause_threshold();
            let counted = if self.cfg.buggify == Some(Buggify::PfcPauseOffByOne) {
                // Injected fault: compare the pre-admission counter, so the
                // pause fires one packet late.
                self.ingress_bytes[in_port as usize][q].saturating_sub(size)
            } else {
                self.ingress_bytes[in_port as usize][q]
            };
            if !self.ingress_paused[in_port as usize][q] && counted > threshold {
                self.ingress_paused[in_port as usize][q] = true;
                pauses.push((in_port, q as u8));
            }
        }
        Admission::Queued
    }

    /// Account a packet leaving the switch from egress `port`. Returns PFC
    /// resume frames to emit as `(ingress_port, prio)`.
    /// `_unused` is ignored: the frozen `ppbench/src/kernels.rs` passes a `0` there (ROADMAP item 3).
    pub fn on_dequeue(&mut self, pkt: &PktHeader, _unused: u64, resumes: &mut Vec<(u16, u8)>) {
        if self.cfg.buggify == Some(Buggify::DequeueLeak) {
            // Injected fault: departure accounting is skipped entirely.
            return;
        }
        let nq = self.ports[0].queues.len();
        let q = queue_index(pkt.prio, nq);
        let size = pkt.size as u64;
        debug_assert!(self.total_buffered >= size);
        self.total_buffered -= size;
        let in_port = pkt.cur_in_port as usize;
        debug_assert!(self.ingress_bytes[in_port][q] >= size);
        self.ingress_bytes[in_port][q] -= size;

        if self.ingress_paused[in_port][q] {
            let threshold = self.pfc_pause_threshold();
            let resume_at = threshold.saturating_sub(self.cfg.pfc_resume_offset_bytes);
            if self.ingress_bytes[in_port][q] <= resume_at {
                self.ingress_paused[in_port][q] = false;
                resumes.push((in_port as u16, q as u8));
            }
        }
    }
}

/// Per-host sender-side scheduling state.
#[derive(Clone, Debug)]
pub struct Host {
    /// The single NIC.
    pub port: EgressPort,
    /// Active (not finished) flows per data priority, pulled round-robin.
    /// Bounded by *concurrent* flows on this host (deactivated at
    /// completion), not total flow lifetimes — safe at hyperscale.
    pub active: Vec<Vec<FlowId>>,
    /// Round-robin cursor per priority.
    pub rr: Vec<usize>,
    /// Earliest already-scheduled wakeup poke; `Time::MAX` when none.
    pub next_poke: Time,
}

impl Host {
    /// New host with a NIC of `num_prios + 1` queues.
    pub fn new(port: EgressPort, num_prios: u8) -> Self {
        Host {
            port,
            // simlint::allow(hot-path-alloc, host construction runs once at topology build, not per event)
            active: vec![Vec::new(); num_prios as usize],
            // simlint::allow(hot-path-alloc, host construction runs once at topology build, not per event)
            rr: vec![0; num_prios as usize],
            next_poke: Time::MAX,
        }
    }

    /// Register a flow as active at `prio`.
    pub fn activate(&mut self, prio: u8, flow: FlowId) {
        self.active[prio as usize].push(flow);
    }

    /// Remove a finished flow.
    pub fn deactivate(&mut self, prio: u8, flow: FlowId) {
        let list = &mut self.active[prio as usize];
        if let Some(pos) = list.iter().position(|&f| f == flow) {
            list.remove(pos);
            let rr = &mut self.rr[prio as usize];
            if *rr > pos {
                *rr -= 1;
            }
        }
    }
}

/// A node of the fabric. Everything link-level treats the two kinds alike
/// through [`Node::ports`]: a host is a node with one port.
#[derive(Clone)]
pub(crate) enum Node {
    Host(Host),
    Switch(Switch),
}

impl Node {
    /// The node's egress ports, indexed as the routing table indexes them.
    #[inline]
    pub(crate) fn ports(&self) -> &[EgressPort] {
        match self {
            Node::Host(h) => std::slice::from_ref(&h.port),
            Node::Switch(s) => &s.ports,
        }
    }

    /// The switch, if this node is one.
    #[inline]
    pub(crate) fn as_switch(&self) -> Option<&Switch> {
        match self {
            Node::Switch(s) => Some(s),
            Node::Host(_) => None,
        }
    }

    /// Mutable view of [`Self::ports`].
    #[inline]
    pub(crate) fn ports_mut(&mut self) -> &mut [EgressPort] {
        match self {
            Node::Host(h) => std::slice::from_mut(&mut h.port),
            Node::Switch(s) => &mut s.ports,
        }
    }

    /// Fold every port plus the kind-specific state (switch buffer and
    /// ingress-pause accounting; host flow lists, round-robin cursors and
    /// pending poke) into a state digest.
    pub(crate) fn fold_digest(&self, fold: &mut impl FnMut(u64)) {
        for p in self.ports() {
            p.fold_digest(fold);
        }
        match self {
            Node::Switch(s) => {
                fold(s.total_buffered);
                fold(s.max_buffered);
                for (bytes, paused) in s.ingress_bytes.iter().zip(&s.ingress_paused) {
                    for (&b, &p) in bytes.iter().zip(paused) {
                        fold(b << 1 | p as u64);
                    }
                }
            }
            Node::Host(h) => {
                fold(h.next_poke.as_ps());
                for (active, &rr) in h.active.iter().zip(&h.rr) {
                    fold(active.len() as u64);
                    fold(rr as u64);
                    for &f in active {
                        fold(f as u64);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{Packet, PktTag};

    fn port(nq: usize) -> EgressPort {
        EgressPort::new(1, 0, Rate::from_gbps(100), Time::from_us(1), nq)
    }

    fn data(a: &mut PacketArena, prio: u8, bytes: u32) -> PacketId {
        a.alloc(Packet::data(0, 0, 1, prio, bytes, 0, Time::ZERO))
    }

    #[test]
    fn strict_priority_dequeue_order() {
        let mut a = PacketArena::new();
        let mut p = port(4);
        for prio in [0, 2, 1] {
            let id = data(&mut a, prio, 100);
            p.enqueue(id, &a);
        }
        let order: Vec<u8> = std::iter::from_fn(|| p.dequeue(&a))
            .map(|id| a.get(id).prio)
            .collect();
        assert_eq!(order, vec![2, 1, 0]);
    }

    #[test]
    fn control_queue_beats_all_data() {
        let mut a = PacketArena::new();
        let mut p = port(3); // 2 data prios + control at index 2
        let d = data(&mut a, 1, 100);
        p.enqueue(d, &a);
        let mut ack = Packet::pfc(0, 1, 0, true);
        ack.header.prio = 2;
        let ack = a.alloc(ack);
        p.enqueue(ack, &a);
        let first = p.dequeue(&a).unwrap();
        assert!(matches!(a.get(first).kind, PktTag::Pfc { .. }));
    }

    #[test]
    fn paused_priority_is_skipped() {
        let mut a = PacketArena::new();
        let mut p = port(3);
        let hi = data(&mut a, 1, 100);
        let lo = data(&mut a, 0, 200);
        p.enqueue(hi, &a);
        p.enqueue(lo, &a);
        p.set_paused(1, true);
        assert_eq!(a.get(p.dequeue(&a).unwrap()).prio, 0);
        p.set_paused(1, false);
        assert_eq!(a.get(p.dequeue(&a).unwrap()).prio, 1);
    }

    #[test]
    fn byte_accounting_balances() {
        let mut a = PacketArena::new();
        let mut p = port(2);
        let x = data(&mut a, 0, 1000);
        let y = data(&mut a, 1, 500);
        p.enqueue(x, &a);
        p.enqueue(y, &a);
        assert_eq!(p.queued_bytes, 1048 + 548);
        p.dequeue(&a);
        p.dequeue(&a);
        assert_eq!(p.queued_bytes, 0);
        assert!(p.queued_bytes_q.iter().all(|&b| b == 0));
    }

    /// Down, per-priority storm pins and degradation are independent bits
    /// of fault state, and only degradation moves the effective link.
    #[test]
    fn fault_state_is_independent_and_only_degradation_moves_the_link() {
        let mut p = port(3);
        let nominal = (p.rate, p.prop);
        assert_eq!(p.effective_link(), nominal);
        p.down = true;
        p.set_storm(2, true);
        assert!(p.is_stormed(2));
        assert!(!p.is_stormed(1));
        assert_eq!(p.paused, 0, "a storm pin is not itself a pause bit");
        assert_eq!(p.effective_link(), nominal, "down and storm leave rate and delay alone");
        p.degrade = Some((0.25, Time::from_us(7)));
        assert_eq!(
            p.effective_link(),
            (Rate::from_gbps(25), Time::from_us(8)),
            "degraded: rate x factor, prop + extra"
        );
        p.down = false;
        assert!(p.is_stormed(2), "clearing down must not clear the storm");
        assert!(p.degrade.is_some(), "clearing down must not end the degradation");
        p.set_storm(2, false);
        p.degrade = None;
        assert_eq!(p.storm, 0);
        assert_eq!(p.effective_link(), nominal);
    }

    fn mk_switch(pfc: bool, buffer: u64) -> Switch {
        let cfg = SwitchConfig {
            buffer_bytes: buffer,
            pfc_enabled: pfc,
            pfc_lossless_prios: 0,
            ..Default::default()
        };
        let ports = (0..2).map(|_| port(3)).collect();
        Switch::new(cfg, ports, 2)
    }

    #[test]
    fn lossy_switch_drops_over_dt_limit() {
        let mut a = PacketArena::new();
        let mut s = mk_switch(false, 10_000);
        let mut pauses = Vec::new();
        let mut admitted = 0;
        for i in 0..20 {
            let id = a.alloc(Packet::data(0, 0, 1, 0, 1000, i * 1000, Time::ZERO));
            if s.admit(0, 1, id, 0, &mut a, &mut pauses) == Admission::Queued {
                admitted += 1;
            }
        }
        assert!(admitted < 20, "DT must reject some packets");
        assert!(
            admitted >= 4,
            "DT must accept early packets, got {admitted}"
        );
        assert!(pauses.is_empty(), "no PFC in lossy mode");
        // Dropped packets were released by admit; queued ones stay live.
        assert_eq!(a.live_count(), admitted);
    }

    #[test]
    fn pfc_pause_and_resume_cycle() {
        let mut a = PacketArena::new();
        let mut s = mk_switch(true, 20_000);
        let mut pauses = Vec::new();
        let mut i = 0u64;
        // Fill until a pause is emitted.
        while pauses.is_empty() && i < 100 {
            let id = a.alloc(Packet::data(0, 0, 1, 0, 1000, i * 1000, Time::ZERO));
            s.admit(0, 1, id, 0, &mut a, &mut pauses);
            i += 1;
        }
        assert!(!pauses.is_empty(), "pause must trigger");
        assert_eq!(pauses[0], (1, 0));
        assert!(s.ingress_paused[1][0]);
        // Drain; resume must eventually be emitted.
        let mut resumes = Vec::new();
        while let Some(id) = s.ports[0].dequeue(&a) {
            s.on_dequeue(a.get(id), 0, &mut resumes);
            a.release(id);
        }
        assert_eq!(resumes, vec![(1, 0)]);
        assert_eq!(s.total_buffered, 0);
        assert_eq!(a.live_count(), 0);
    }

    #[test]
    fn ecn_marking_thresholds() {
        let mut a = PacketArena::new();
        let mut s = mk_switch(true, 10_000_000);
        s.cfg.ecn_kmin = 2_000;
        s.cfg.ecn_kmax = 4_000;
        s.cfg.ecn_pmax = 1.0;
        let mut rng = SimRng::new(5);
        let mut pauses = Vec::new();
        // Below kmin: never marked.
        assert!(!s.ecn_mark(0, 0, 0, 0, &mut rng));
        for i in 0..5 {
            let id = a.alloc(Packet::data(0, 0, 1, 0, 1000, i * 1000, Time::ZERO));
            s.admit(0, 1, id, 0, &mut a, &mut pauses);
        }
        // Above kmax: always marked.
        assert!(s.ecn_mark(0, 0, 0, 0, &mut rng));
    }

    #[test]
    fn prio_scaled_ecn_marks_low_dscp_first() {
        let mut a = PacketArena::new();
        let mut s = mk_switch(true, 10_000_000);
        s.cfg.ecn_kmin = 2_000;
        s.cfg.ecn_kmax = 4_000;
        s.cfg.ecn_pmax = 1.0;
        s.cfg.ecn_prio_scaled = true;
        let mut rng = SimRng::new(6);
        let mut pauses = Vec::new();
        for i in 0..5 {
            let id = a.alloc(Packet::data(0, 0, 1, 0, 1000, i * 1000, Time::ZERO));
            s.admit(0, 1, id, 0, &mut a, &mut pauses);
        }
        // ~5 KB queued: dscp 0 thresholds (2k/4k) => always marked;
        // dscp 3 thresholds (8k/16k) => never marked.
        assert!(s.ecn_mark(0, 0, 0, 0, &mut rng));
        assert!(!s.ecn_mark(0, 0, 3, 0, &mut rng));
    }

    #[test]
    fn host_activate_deactivate_keeps_rr_valid() {
        let p = port(3);
        let mut h = Host::new(p, 2);
        h.activate(1, 10);
        h.activate(1, 11);
        h.activate(1, 12);
        h.rr[1] = 2;
        h.deactivate(1, 11);
        assert_eq!(h.active[1], vec![10, 12]);
        assert_eq!(h.rr[1], 1);
        h.deactivate(1, 99); // unknown flow: no-op
        assert_eq!(h.active[1].len(), 2);
    }
}
