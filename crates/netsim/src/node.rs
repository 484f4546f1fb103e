//! Link, switch and host state.
//!
//! A link lives on its two [`EgressPort`]s — one per direction — and
//! nowhere else: the static attributes (peer, nominal rate, propagation
//! delay), the dynamic state (busy, PFC pause bits, queues, byte counters)
//! and the fault state (down, degraded, storm-pinned; driven by
//! [`crate::faults`]) sit side by side, so `EgressPort::fold_digest`
//! fingerprints a link completely. Hosts
//! and switches share the type: a [`Host`]'s NIC is a one-port `Node`.
//!
//! Each node is a handful of heap blocks, not one per port and queue: a
//! port's queues are one `Vec<Queue>` (each FIFO beside its byte counter);
//! a switch's per-(ingress port, priority) PFC state is one flat counter
//! array with stride `nq` plus one `u32` pause mask per ingress port, the
//! form the egress side's `paused` / `storm` masks have; a host's
//! per-priority flow lists and round-robin cursors are one
//! `Vec<ActiveFlows>`.
//!
//! The event handlers that need the event queue are in `fabric.rs` and
//! `host.rs`; this module holds the data structures and the pure parts:
//! buffer accounting, admission, ECN marking, strict-priority selection,
//! and PFC threshold math.

// R5 (DESIGN.md § Static analysis): a per-event path must not abort a run;
// test code is exempt (`clippy.toml`).
#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::collections::VecDeque;

use simcore::{Rate, SimRng, Time};

use crate::config::{Buggify, SwitchConfig, DT_ALPHA, PFC_ALPHA, PFC_RESUME_OFFSET_BYTES};
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
    /// Per-priority queues; index `num_prios` is the control queue. One
    /// allocation holds every queue's FIFO header and byte counter.
    pub queues: Vec<Queue>,
    /// Total bytes queued on this port.
    pub queued_bytes: u64,
    /// Cumulative bytes transmitted (INT).
    pub tx_bytes: u64,
}

/// One priority queue of an [`EgressPort`]. Queues rotate 4-byte
/// [`PacketId`]s — the packets themselves stay put in the [`PacketArena`].
#[derive(Clone, Debug, Default)]
pub struct Queue {
    /// Queued packets, head first.
    pub ids: VecDeque<PacketId>,
    /// Wire bytes queued.
    pub bytes: u64,
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
            queues: vec![Queue::default(); nq],
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
        for q in &self.queues {
            fold(q.ids.len() as u64);
            fold(q.bytes);
            for id in &q.ids {
                fold(id.index() as u64);
            }
        }
    }

    /// Push a packet (by handle) into its priority queue.
    pub fn enqueue(&mut self, id: PacketId, arena: &PacketArena) {
        let pkt = arena.get(id);
        let size = pkt.size as u64;
        let nq = self.queues.len();
        let q = &mut self.queues[queue_index(pkt.prio, nq)];
        q.bytes += size;
        q.ids.push_back(id);
        self.queued_bytes += size;
    }

    /// Pop the head of queue `q`, whatever its pause state.
    #[inline]
    pub fn pop_queue(&mut self, q: usize, arena: &PacketArena) -> Option<PacketId> {
        let queue = &mut self.queues[q];
        let id = queue.ids.pop_front()?;
        let size = arena.get(id).size as u64;
        queue.bytes -= size;
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
    /// Ingress byte counts for PFC, `(ingress port, queue)` at
    /// `port * nq + q` ([`Self::ingress_bytes`]).
    pub(crate) ingress_bytes: Vec<u64>,
    /// Per ingress port, the queues we have sent PAUSE upstream for
    /// (bitmask by queue index, [`Self::ingress_paused`]).
    pub(crate) ingress_paused: Vec<u32>,
    /// Queues per port, `num_prios + 1`: the stride of `ingress_bytes`.
    nq: usize,
    /// High-water mark of total buffered bytes.
    pub max_buffered: u64,
}

impl Switch {
    /// Build a switch; `ports` must already be constructed with
    /// `num_prios + 1` queues each.
    pub fn new(cfg: SwitchConfig, ports: Vec<EgressPort>, num_prios: u8) -> Self {
        let (n, nq) = (ports.len(), num_prios as usize + 1);
        let usable = cfg.usable_buffer(n);
        Switch {
            cfg,
            ports,
            total_buffered: 0,
            usable,
            ingress_bytes: vec![0; n * nq],
            ingress_paused: vec![0; n],
            nq,
            max_buffered: 0,
        }
    }

    /// Queues per port: `num_prios` data queues and the control queue.
    #[inline]
    pub fn num_queues(&self) -> usize {
        self.nq
    }

    /// Bytes buffered here that entered through ingress `port` into queue
    /// `q` — the counter PFC compares against its thresholds.
    #[inline]
    pub fn ingress_bytes(&self, port: usize, q: usize) -> u64 {
        debug_assert!(q < self.nq, "queue {q} of {}", self.nq);
        self.ingress_bytes[port * self.nq + q]
    }

    /// Whether this switch has sent PAUSE upstream for `(port, q)`.
    #[inline]
    pub fn ingress_paused(&self, port: usize, q: usize) -> bool {
        self.ingress_paused[port] & (1 << q) != 0
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
        (DT_ALPHA * self.free_buffer() as f64) as u64
    }

    /// PFC pause threshold for one (ingress port, priority) counter.
    /// Dynamic: proportional to the free buffer with the (small) ingress
    /// alpha, floored at three MTUs so the switch can always absorb a final
    /// in-flight packet pair.
    #[inline]
    pub fn pfc_pause_threshold(&self) -> u64 {
        ((PFC_ALPHA * self.free_buffer() as f64) as u64).max(3_000)
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
        let q = self.ports[port as usize].queues[queue].bytes;
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
        let nq = self.nq;
        let (q, size, is_data) = {
            let pkt = arena.get(id);
            (
                queue_index(pkt.prio, nq),
                pkt.size as u64,
                pkt.kind.is_data(),
            )
        };
        if !self.cfg.pfc_enabled && is_data {
            // Lossy: Dynamic-Threshold admission on the egress queue.
            let limit = self.dt_limit();
            if self.ports[port as usize].queues[q].bytes + size > limit {
                arena.release(id);
                return Admission::Dropped;
            }
        }
        arena.get_mut(id).cur_in_port = in_port;
        self.total_buffered += size;
        self.max_buffered = self.max_buffered.max(self.total_buffered);
        let slot = in_port as usize * nq + q;
        self.ingress_bytes[slot] += size;
        self.ports[port as usize].enqueue(id, arena);

        if self.cfg.pfc_enabled && q < nq - 1 {
            // PFC protects data priorities; control queue is never paused.
            let threshold = self.pfc_pause_threshold();
            let counted = if self.cfg.buggify == Some(Buggify::PfcPauseOffByOne) {
                // Injected fault: compare the pre-admission counter, so the
                // pause fires one packet late.
                self.ingress_bytes[slot].saturating_sub(size)
            } else {
                self.ingress_bytes[slot]
            };
            let paused = &mut self.ingress_paused[in_port as usize];
            if *paused & (1 << q) == 0 && counted > threshold {
                *paused |= 1 << q;
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
        let nq = self.nq;
        let q = queue_index(pkt.prio, nq);
        let size = pkt.size as u64;
        // Checked in release too: a wrapped counter would go on admitting
        // and pausing against exabytes instead of stopping the run.
        assert!(
            self.total_buffered >= size,
            "switch total_buffered {} B < dequeued packet of {size} B",
            self.total_buffered
        );
        self.total_buffered -= size;
        let in_port = pkt.cur_in_port as usize;
        let slot = in_port * nq + q;
        assert!(
            self.ingress_bytes[slot] >= size,
            "switch ingress_bytes[{slot}] {} B < dequeued packet of {size} B",
            self.ingress_bytes[slot]
        );
        self.ingress_bytes[slot] -= size;

        if self.ingress_paused[in_port] & (1 << q) != 0 {
            let threshold = self.pfc_pause_threshold();
            let resume_at = threshold.saturating_sub(PFC_RESUME_OFFSET_BYTES);
            if self.ingress_bytes[slot] <= resume_at {
                self.ingress_paused[in_port] &= !(1 << q);
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
    /// Active flows and their round-robin cursor, per data priority.
    pub active: Vec<ActiveFlows>,
    /// Earliest already-scheduled wakeup poke; `Time::MAX` when none.
    pub next_poke: Time,
}

/// One data priority of a [`Host`]'s sender: the flows it pulls from,
/// round-robin, and the cursor.
#[derive(Clone, Debug, Default)]
pub struct ActiveFlows {
    /// Active (not finished) flows. Bounded by *concurrent* flows on this
    /// host (deactivated at completion), not total flow lifetimes — safe at
    /// hyperscale.
    pub flows: Vec<FlowId>,
    /// Round-robin cursor into `flows`.
    pub rr: usize,
}

impl Host {
    /// New host with a NIC of `num_prios + 1` queues.
    pub fn new(port: EgressPort, num_prios: u8) -> Self {
        Host {
            port,
            active: vec![ActiveFlows::default(); num_prios as usize],
            next_poke: Time::MAX,
        }
    }

    /// Register a flow as active at `prio`.
    pub fn activate(&mut self, prio: u8, flow: FlowId) {
        self.active[prio as usize].flows.push(flow);
    }

    /// Remove a finished flow.
    pub fn deactivate(&mut self, prio: u8, flow: FlowId) {
        let a = &mut self.active[prio as usize];
        if let Some(pos) = a.flows.iter().position(|&f| f == flow) {
            a.flows.remove(pos);
            if a.rr > pos {
                a.rr -= 1;
            }
        }
    }
}

/// A node of the fabric. Everything link-level treats the two kinds alike
/// through [`Node::ports`]: a host is a node with one port.
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
                for (bytes, &paused) in s.ingress_bytes.chunks(s.nq).zip(&s.ingress_paused) {
                    for (q, &b) in bytes.iter().enumerate() {
                        fold(b << 1 | (paused >> q & 1) as u64);
                    }
                }
            }
            Node::Host(h) => {
                fold(h.next_poke.as_ps());
                for a in &h.active {
                    fold(a.flows.len() as u64);
                    fold(a.rr as u64);
                    for &f in &a.flows {
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
        let probe = a.alloc(Packet::probe(0, 0, 1, 2, Time::ZERO));
        p.enqueue(probe, &a);
        let first = p.dequeue(&a).unwrap();
        assert_eq!(a.get(first).kind, PktTag::Probe);
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
        assert!(p.queues.iter().all(|q| q.bytes == 0));
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
        assert_eq!(
            p.effective_link(),
            nominal,
            "down and storm leave rate and delay alone"
        );
        p.degrade = Some((0.25, Time::from_us(7)));
        assert_eq!(
            p.effective_link(),
            (Rate::from_gbps(25), Time::from_us(8)),
            "degraded: rate x factor, prop + extra"
        );
        p.down = false;
        assert!(p.is_stormed(2), "clearing down must not clear the storm");
        assert!(
            p.degrade.is_some(),
            "clearing down must not end the degradation"
        );
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
        assert!(s.ingress_paused(1, 0));
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

    /// The flat ingress state keeps every (ingress port, queue) pair apart:
    /// bytes land in their own counter and a pause sets only its own bit.
    #[test]
    fn ingress_state_is_per_port_and_queue() {
        let mut a = PacketArena::new();
        let mut s = mk_switch(true, 20_000);
        let mut pauses = Vec::new();
        for (in_port, prio, payload) in [(0, 1, 700), (1, 0, 300), (1, 2, 100)] {
            let id = a.alloc(Packet::data(0, 0, 1, prio, payload, 0, Time::ZERO));
            s.admit(0, in_port, id, 0, &mut a, &mut pauses);
        }
        let pairs = || (0..2).flat_map(|p| (0..3).map(move |q| (p, q)));
        let bytes: Vec<u64> = pairs().map(|(p, q)| s.ingress_bytes(p, q)).collect();
        assert_eq!(bytes, [0, 748, 0, 348, 0, 148]);
        while pauses.is_empty() {
            let id = a.alloc(Packet::data(0, 0, 1, 1, 1000, 0, Time::ZERO));
            s.admit(1, 1, id, 0, &mut a, &mut pauses);
        }
        assert_eq!(pauses, [(1, 1)]);
        let paused: Vec<bool> = pairs().map(|(p, q)| s.ingress_paused(p, q)).collect();
        assert_eq!(paused, [false, false, false, false, true, false]);
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
        h.active[1].rr = 2;
        h.deactivate(1, 11);
        assert_eq!(h.active[1].flows, vec![10, 12]);
        assert_eq!(h.active[1].rr, 1);
        h.deactivate(1, 99); // unknown flow: no-op
        assert_eq!(h.active[1].flows.len(), 2);
    }
}
