//! Packet and identifier types.
//!
//! One vocabulary, two planes. A packet is a hot [`PktHeader`] (what every
//! hop reads; its [`PktTag`] says what kind of packet it is) plus a cold
//! half (the [`AckInfo`] an ACK carries, the INT path HPCC collects) that
//! only endpoints touch. [`Packet`] is the pair as an endpoint builds it;
//! [`PacketArena`] stores the halves in two parallel planes and hands out
//! 4-byte [`PacketId`]s, which is all that events and port queues carry.

use simcore::Time;

/// Index of a node (host or switch) in the simulation.
pub type NodeId = u32;

/// Index of a flow in the simulation.
pub type FlowId = u32;

/// Wire overhead added to every data payload (Ethernet + IP + transport
/// headers; the paper's DPDK stack uses a comparable fixed header).
pub const HEADER_BYTES: u32 = 48;

/// Wire size of an ACK / probe / probe-ACK / NACK control packet.
pub const CONTROL_BYTES: u32 = 64;

/// One INT (in-band network telemetry) record appended per hop for HPCC.
#[derive(Clone, Copy, Debug)]
pub struct IntHop {
    /// Egress queue length in bytes at enqueue time.
    pub qlen: u64,
    /// Cumulative bytes transmitted by the egress port.
    pub tx_bytes: u64,
    /// Timestamp of the observation.
    pub ts: Time,
    /// Port line rate in bits per second.
    pub rate_bps: u64,
}

impl IntHop {
    const ZERO: IntHop = IntHop {
        qlen: 0,
        tx_bytes: 0,
        ts: Time::ZERO,
        rate_bps: 0,
    };
}

/// Hop count an [`IntPath`] stores without touching the heap. Data-center
/// paths in the paper's topologies are ≤ 5 hops, so the inline capacity
/// covers them with margin.
pub const INT_INLINE_HOPS: usize = 8;

/// Hard cap on hop records an [`IntPath`] will store. Matches the routing
/// layer's 64-hop loop guard, so any path this long is a routing bug, not a
/// telemetry need. Past the cap [`IntPath::push`] saturates: the record is
/// discarded and `push` returns `false` (the first `len()` hops stay exact —
/// a transport computing per-hop gradients sees a stable prefix, never
/// silently shifted or truncated records).
pub const INT_MAX_HOPS: usize = 64;

/// The INT records collected along a packet's path.
///
/// Stores up to [`INT_INLINE_HOPS`] hops inline; only paths longer than that
/// spill to a heap `Vec`. Boxed as `Option<Box<IntPath>>` in [`Packet`] /
/// [`AckInfo`], an INT-carrying packet costs exactly one allocation, versus
/// the old `Box<Vec<IntHop>>`'s box + vec buffer + growth reallocations.
#[derive(Clone, Debug)]
pub struct IntPath {
    len: u8,
    inline: [IntHop; INT_INLINE_HOPS],
    spill: Vec<IntHop>,
}

impl Default for IntPath {
    fn default() -> Self {
        Self::new()
    }
}

impl IntPath {
    /// New empty path.
    pub fn new() -> Self {
        IntPath {
            len: 0,
            inline: [IntHop::ZERO; INT_INLINE_HOPS],
            spill: Vec::new(),
        }
    }

    /// Append one hop record. Returns `false` — leaving the path unchanged
    /// — once [`INT_MAX_HOPS`] records are stored (see the cap's docs).
    pub fn push(&mut self, hop: IntHop) -> bool {
        if self.spill.is_empty() {
            if (self.len as usize) < INT_INLINE_HOPS {
                self.inline[self.len as usize] = hop;
                self.len += 1;
                return true;
            }
            // First spill: migrate the inline records so `as_slice` stays a
            // single contiguous view.
            self.spill.reserve(INT_INLINE_HOPS * 2);
            self.spill.extend_from_slice(&self.inline[..self.len as usize]);
        } else if self.spill.len() >= INT_MAX_HOPS {
            return false;
        }
        self.spill.push(hop);
        true
    }

    /// Number of hop records.
    pub fn len(&self) -> usize {
        if self.spill.is_empty() {
            self.len as usize
        } else {
            self.spill.len()
        }
    }

    /// True when no hops have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All hop records, in path order.
    pub fn as_slice(&self) -> &[IntHop] {
        if self.spill.is_empty() {
            &self.inline[..self.len as usize]
        } else {
            &self.spill
        }
    }

    /// Reset to an empty path, keeping any spill capacity. Used by the
    /// [`PacketArena`] recycle stack so a reused INT box never leaks hop
    /// records from its previous life.
    pub fn clear(&mut self) {
        self.len = 0;
        self.spill.clear();
    }
}

/// Acknowledgment contents carried by [`PktTag::Ack`] and
/// [`PktTag::ProbeAck`] packets.
#[derive(Clone, Debug)]
pub struct AckInfo {
    /// Cumulative bytes received in-order at the receiver.
    pub cum_bytes: u64,
    /// Sequence (byte offset) of the specific packet being acknowledged.
    pub acked_seq: u64,
    /// Number of payload bytes acknowledged by this ACK.
    pub acked_bytes: u32,
    /// Sender timestamp echoed back for RTT measurement.
    pub ts_echo: Time,
    /// ECN CE mark observed on the acknowledged data packet.
    pub ecn_echo: bool,
    /// Selective NACK: a missing byte range `[from, to)` detected by the
    /// receiver (lossy/IRN mode only).
    pub nack: Option<(u64, u64)>,
    /// Echoed INT telemetry (HPCC mode).
    pub int: Option<Box<IntPath>>,
}

/// Discriminant-only packet kind stored in the hot header plane.
///
/// The structure-of-arrays arena splits each packet into a hot
/// [`PktHeader`] (read on every hop) and a cold plane holding the bulky
/// kind-specific payloads ([`AckInfo`], the INT box). `PktTag` is the
/// `Copy` discriminant that stays in the header: forwarding, queue
/// selection, and PFC classification branch on it without ever touching
/// the cold plane.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PktTag {
    /// A data segment.
    Data,
    /// A minimal-size delay probe (PrioPlus §4.2.1).
    Probe,
    /// Acknowledgment of a data segment (payload in the cold plane).
    Ack,
    /// Echo of a probe (payload in the cold plane).
    ProbeAck,
    /// PFC pause/resume control frame for one priority, handled out-of-band
    /// at the MAC layer (never queued).
    Pfc {
        /// Priority (queue index) being paused or resumed.
        prio: u8,
        /// `true` = pause, `false` = resume.
        pause: bool,
    },
}

impl PktTag {
    /// True for PFC control frames.
    #[inline]
    pub fn is_pfc(&self) -> bool {
        matches!(self, PktTag::Pfc { .. })
    }

    /// True for data segments (the only packets subject to ECN marking,
    /// non-congestive delay, and drops).
    #[inline]
    pub fn is_data(&self) -> bool {
        matches!(self, PktTag::Data)
    }

    /// True for end-to-end control packets (ACKs, probes, probe echoes):
    /// everything that is neither a data segment nor a link-local PFC frame.
    #[inline]
    pub fn is_control(&self) -> bool {
        !self.is_data() && !self.is_pfc()
    }
}

/// The hot plane of a packet: every field the forwarding path touches on
/// every hop (routing, queue selection, byte accounting, ECN, PFC
/// classification), and nothing else.
///
/// [`PacketArena`] stores these contiguously, separate from the cold
/// kind-specific payloads, so a hop's working set is one small header per
/// packet instead of a header plus an [`AckInfo`]-sized tail it never
/// reads. The `hot_header_fits_budget` size pin holds this to ≤ 48 bytes —
/// grow it past that and the test will ask you to justify the cache cost.
#[derive(Clone, Debug)]
pub struct PktHeader {
    /// Owning flow (undefined for PFC frames, set to `u32::MAX`).
    pub flow: FlowId,
    /// Origin host.
    pub src: NodeId,
    /// Destination host.
    pub dst: NodeId,
    /// Total wire size in bytes (header included).
    pub size: u32,
    /// Payload bytes (0 for control packets).
    pub payload: u32,
    /// Byte-offset sequence number of the first payload byte.
    pub seq: u64,
    /// Timestamp when the sender put the packet on the wire.
    pub ts_tx: Time,
    /// Transient: ingress port at the switch currently holding the packet
    /// (for PFC ingress accounting).
    pub cur_in_port: u16,
    /// Physical priority queue index this packet travels in.
    pub prio: u8,
    /// DSCP code point carrying the flow's *virtual* priority; used by the
    /// priority-scaled ECN extension (Appendix B) where switches vary the
    /// marking threshold by DSCP.
    pub dscp: u8,
    /// ECN congestion-experienced mark.
    pub ecn_ce: bool,
    /// Packet kind discriminant; the kind-specific payload lives in the
    /// arena's cold plane.
    pub kind: PktTag,
}

/// The cold plane of a packet: bulky state only the endpoints touch
/// (once per packet, not once per hop).
#[derive(Clone, Debug, Default)]
struct PktCold {
    /// INT telemetry collected along the path (HPCC mode).
    int: Option<Box<IntPath>>,
    /// ACK payload for [`PktTag::Ack`] / [`PktTag::ProbeAck`].
    ack: Option<AckInfo>,
}

/// A packet as its endpoint builds it: the hot [`PktHeader`] plus the cold
/// kind-specific payload, already in the two halves the arena stores.
///
/// Endpoints build a `Packet` with the constructors below and hand it to
/// [`PacketArena::alloc`], which moves each half into its plane. Code
/// holding a [`PacketId`] reads the header via [`PacketArena::get`] and the
/// cold parts via [`PacketArena::take_ack`] / [`PacketArena::take_int`].
#[derive(Clone, Debug)]
pub struct Packet {
    /// The hot half: every field the forwarding path reads.
    pub header: PktHeader,
    cold: PktCold,
}

impl Packet {
    /// A payload-free, [`CONTROL_BYTES`]-sized packet of `kind`: the shape
    /// every constructor starts from.
    fn control(
        kind: PktTag,
        flow: FlowId,
        src: NodeId,
        dst: NodeId,
        prio: u8,
        ts_tx: Time,
        ack: Option<AckInfo>,
    ) -> Self {
        Packet {
            header: PktHeader {
                flow,
                src,
                dst,
                size: CONTROL_BYTES,
                payload: 0,
                seq: 0,
                ts_tx,
                cur_in_port: 0,
                prio,
                dscp: 0,
                ecn_ce: false,
                kind,
            },
            cold: PktCold { int: None, ack },
        }
    }

    /// Construct a data segment.
    pub fn data(
        flow: FlowId,
        src: NodeId,
        dst: NodeId,
        prio: u8,
        payload: u32,
        seq: u64,
        ts_tx: Time,
    ) -> Self {
        let mut pkt = Packet::control(PktTag::Data, flow, src, dst, prio, ts_tx, None);
        pkt.header.size = payload + HEADER_BYTES;
        pkt.header.payload = payload;
        pkt.header.seq = seq;
        pkt
    }

    /// Construct a probe packet.
    pub fn probe(flow: FlowId, src: NodeId, dst: NodeId, prio: u8, ts_tx: Time) -> Self {
        Packet::control(PktTag::Probe, flow, src, dst, prio, ts_tx, None)
    }

    /// Construct an acknowledgment (or probe echo) for a received packet.
    pub fn ack(
        flow: FlowId,
        src: NodeId,
        dst: NodeId,
        prio: u8,
        info: AckInfo,
        probe: bool,
        ts_tx: Time,
    ) -> Self {
        let kind = if probe {
            PktTag::ProbeAck
        } else {
            PktTag::Ack
        };
        Packet::control(kind, flow, src, dst, prio, ts_tx, Some(info))
    }

    /// Construct a PFC pause/resume frame.
    pub fn pfc(src: NodeId, dst: NodeId, prio: u8, pause: bool) -> Self {
        let kind = PktTag::Pfc { prio, pause };
        Packet::control(kind, u32::MAX, src, dst, prio, Time::ZERO, None)
    }
}

/// Copyable handle into a [`PacketArena`] slot.
///
/// Events and port queues carry this 4-byte id instead of a whole
/// [`Packet`], so scheduler sift/percolate and `VecDeque` rotation move a
/// few machine words per hop. Ids are plain slot indices — no generation
/// tag — because the simulator's packet lifecycle is strictly linear
/// (alloc → queue/fly → release exactly once); the arena's live-flag check
/// plus the audit's reference counting catch any use-after-release in
/// debug and audited runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PacketId(pub u32);

impl PacketId {
    /// The slot index this id names.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Allocation counters kept by a [`PacketArena`].
///
/// `allocs` counts every packet handed out; `slot_allocs` counts only the
/// allocations that had to *grow* the slab (free list empty). In steady
/// state `allocs` keeps climbing while `slot_allocs` stays frozen at
/// `peak_live` — which is exactly the "zero heap allocations per packet"
/// claim, made checkable: the slab grows only while the live population is
/// reaching its high-water mark. `int_allocs`/`int_recycled` do the same
/// split for the `Box<IntPath>` pool.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Packets allocated (total, including slot reuse).
    pub allocs: u64,
    /// Packets released back to the free list.
    pub frees: u64,
    /// Allocations that grew the slab (== final slab capacity).
    pub slot_allocs: u64,
    /// High-water mark of simultaneously live packets.
    pub peak_live: u64,
    /// `Box<IntPath>` boxes created fresh (recycle stack was empty).
    pub int_allocs: u64,
    /// `Box<IntPath>` boxes served from / returned to the recycle stack.
    pub int_recycled: u64,
}

/// Deterministic structure-of-arrays slab allocator for in-flight packets.
///
/// Two parallel planes plus a strictly LIFO free list of `u32` slot
/// indices: the hot plane (`Vec<PktHeader>`) holds the fields the
/// forwarding path reads on every hop; the cold plane holds the bulky
/// endpoint-only payloads (INT box, [`AckInfo`]). A slot index names the
/// same packet in both planes. Releasing slot `i` makes `i` the *next*
/// slot handed out, so the mapping from packet-creation order to slot
/// index is a pure function of the event sequence — identical across
/// runs and platforms. (A FIFO free list would be
/// equally deterministic but touch cold slots; LIFO reuses the
/// cache-hot one. What matters for replay is only that the policy is
/// fixed.)
///
/// Retired packets donate their `Box<IntPath>` to a recycle stack, so in
/// steady state neither the slab nor INT telemetry touches the global
/// allocator: forwarding a packet costs zero heap allocations.
#[derive(Clone, Debug, Default)]
pub struct PacketArena {
    hot: Vec<PktHeader>,
    cold: Vec<PktCold>,
    live: Vec<bool>,
    free: Vec<u32>,
    // The boxes themselves are the pooled resource: the cold plane and
    // `AckEvent.int` hold `Box<IntPath>`, and recycling must hand back the
    // exact allocation, not re-box a by-value copy.
    #[allow(clippy::vec_box)]
    int_recycle: Vec<Box<IntPath>>,
    stats: ArenaStats,
}

impl PacketArena {
    /// New empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Store `pkt`, returning its handle. Moves the packet's two halves
    /// into the hot header plane and the cold payload plane, reusing the
    /// most recently freed slot (LIFO) or growing the slab when none is
    /// free.
    pub fn alloc(&mut self, pkt: Packet) -> PacketId {
        self.stats.allocs += 1;
        let Packet { header, cold } = pkt;
        let id = match self.free.pop() {
            Some(i) => {
                self.hot[i as usize] = header;
                self.cold[i as usize] = cold;
                self.live[i as usize] = true;
                PacketId(i)
            }
            None => {
                let i = self.hot.len() as u32;
                self.stats.slot_allocs += 1;
                self.hot.push(header);
                self.cold.push(cold);
                self.live.push(true);
                PacketId(i)
            }
        };
        let live_now = (self.hot.len() - self.free.len()) as u64;
        if live_now > self.stats.peak_live {
            self.stats.peak_live = live_now;
        }
        id
    }

    /// Borrow the hot header behind `id`.
    #[inline]
    pub fn get(&self, id: PacketId) -> &PktHeader {
        debug_assert!(self.live[id.index()], "get() on freed packet {id:?}");
        &self.hot[id.index()]
    }

    /// Mutably borrow the hot header behind `id`.
    #[inline]
    pub fn get_mut(&mut self, id: PacketId) -> &mut PktHeader {
        debug_assert!(self.live[id.index()], "get_mut() on freed packet {id:?}");
        &mut self.hot[id.index()]
    }

    /// Borrow the INT telemetry of the packet behind `id`, if it carries
    /// any.
    #[inline]
    pub fn int(&self, id: PacketId) -> Option<&IntPath> {
        debug_assert!(self.live[id.index()], "int() on freed packet {id:?}");
        self.cold[id.index()].int.as_deref()
    }

    /// Detach the INT box of the packet behind `id` (the receiver moves it
    /// onto the ACK it emits). The caller owns the box; return it with
    /// [`recycle_int`](Self::recycle_int) when done.
    #[inline]
    pub fn take_int(&mut self, id: PacketId) -> Option<Box<IntPath>> {
        debug_assert!(self.live[id.index()], "take_int() on freed packet {id:?}");
        self.cold[id.index()].int.take()
    }

    /// Detach the ACK payload of the packet behind `id`. `Some` exactly
    /// when the header tag is [`PktTag::Ack`] / [`PktTag::ProbeAck`] and
    /// the payload has not been taken yet; the header tag is left in
    /// place.
    #[inline]
    pub fn take_ack(&mut self, id: PacketId) -> Option<AckInfo> {
        debug_assert!(self.live[id.index()], "take_ack() on freed packet {id:?}");
        self.cold[id.index()].ack.take()
    }

    /// Retire `id`: its slot becomes the next one [`alloc`](Self::alloc)
    /// hands out, and any INT box it carried is cleared and pushed onto the
    /// recycle stack. Panics on double free — a released id must never be
    /// released again.
    pub fn release(&mut self, id: PacketId) {
        let i = id.index();
        assert!(self.live[i], "double free of packet arena slot {}", id.0);
        self.live[i] = false;
        self.stats.frees += 1;
        if let Some(mut boxed) = self.cold[i].int.take() {
            boxed.clear();
            self.stats.int_recycled += 1;
            self.int_recycle.push(boxed);
        }
        // An untaken ACK payload (e.g. an ACK dropped by a fault) is
        // discarded, matching the pre-split behavior where the payload sat
        // in the slot until overwritten by the next alloc.
        self.cold[i].ack = None;
        self.free.push(id.0);
    }

    /// Append an INT hop record to the packet behind `id`, materializing its
    /// `IntPath` from the recycle stack (or, only when the stack is dry, a
    /// fresh box) if the packet does not carry one yet. Returns `false` when
    /// the path was already at [`INT_MAX_HOPS`] and the record was discarded
    /// (see [`IntPath::push`]).
    pub fn append_int(&mut self, id: PacketId, hop: IntHop) -> bool {
        let i = id.index();
        debug_assert!(self.live[i], "append_int() on freed packet {id:?}");
        if self.cold[i].int.is_none() {
            let boxed = match self.int_recycle.pop() {
                Some(b) => {
                    self.stats.int_recycled += 1;
                    b
                }
                None => {
                    self.stats.int_allocs += 1;
                    // simlint::allow(hot-path-alloc, pool refill: runs only until the INT box population reaches its peak, then the recycle stack serves every request)
                    Box::new(IntPath::new())
                }
            };
            self.cold[i].int = Some(boxed);
        }
        match self.cold[i].int.as_mut() {
            Some(path) => path.push(hop),
            None => unreachable!("int box installed above"),
        }
    }

    /// Return a detached INT box (e.g. one that rode an [`AckInfo`] back to
    /// the sender) to the recycle stack.
    pub fn recycle_int(&mut self, mut boxed: Box<IntPath>) {
        boxed.clear();
        self.stats.int_recycled += 1;
        self.int_recycle.push(boxed);
    }

    /// Number of currently live packets.
    pub fn live_count(&self) -> usize {
        self.hot.len() - self.free.len()
    }

    /// Total slots ever created (live + free).
    pub fn capacity(&self) -> usize {
        self.hot.len()
    }

    /// Whether slot `id` is live. Used by the audit's reference scan.
    pub fn is_live(&self, id: PacketId) -> bool {
        self.live.get(id.index()).copied().unwrap_or(false)
    }

    /// Allocation counters.
    pub fn stats(&self) -> ArenaStats {
        self.stats
    }

    /// Fold every deterministic field of the arena into a state digest
    /// ([`crate::sim::Sim::state_digest`]): the full free list (slot-reuse
    /// order is part of determinism), allocation counters, and every live
    /// packet's hot header and cold-plane shape. The recycle stack is
    /// folded by depth only — recycled boxes are cleared, so depth is the
    /// only state they carry.
    pub(crate) fn fold_digest(&self, fold: &mut impl FnMut(u64)) {
        fold(self.hot.len() as u64);
        fold(self.free.len() as u64);
        for &i in &self.free {
            fold(i as u64);
        }
        fold(self.int_recycle.len() as u64);
        fold(self.stats.allocs);
        fold(self.stats.frees);
        fold(self.stats.slot_allocs);
        fold(self.stats.peak_live);
        fold(self.stats.int_allocs);
        fold(self.stats.int_recycled);
        for (i, live) in self.live.iter().enumerate() {
            if !live {
                continue;
            }
            let h = &self.hot[i];
            fold(i as u64);
            fold(h.flow as u64);
            fold((h.src as u64) << 32 | h.dst as u64);
            fold((h.size as u64) << 32 | h.payload as u64);
            fold(h.seq);
            fold(h.ts_tx.as_ps());
            let mut tagged: u64 = (h.cur_in_port as u64) << 32
                | (h.prio as u64) << 24
                | (h.dscp as u64) << 16
                | (h.ecn_ce as u64) << 8;
            tagged |= match h.kind {
                PktTag::Data => 1,
                PktTag::Probe => 2,
                PktTag::Ack => 3,
                PktTag::ProbeAck => 4,
                PktTag::Pfc { prio, pause } => {
                    0x80 | (prio as u64) << 40 | (pause as u64) << 48
                }
            };
            fold(tagged);
            let c = &self.cold[i];
            fold(c.int.as_deref().map_or(0, |p| p.len() as u64 + 1));
            if let Some(a) = &c.ack {
                fold(1 + a.cum_bytes);
                fold(a.acked_seq);
            } else {
                fold(0);
            }
        }
    }

    /// Internal-consistency check used by the invariant audit: the free
    /// list must be duplicate-free, in bounds, and exactly the complement
    /// of the live set; counters must balance.
    pub fn check(&self) -> Result<(), String> {
        if self.cold.len() != self.hot.len() {
            return Err(format!(
                "cold plane length {} != hot plane length {}",
                self.cold.len(),
                self.hot.len()
            ));
        }
        if self.live.len() != self.hot.len() {
            return Err(format!(
                "live-flag vector length {} != slab length {}",
                self.live.len(),
                self.hot.len()
            ));
        }
        let mut on_free_list = vec![false; self.hot.len()];
        for &i in &self.free {
            let i = i as usize;
            if i >= self.hot.len() {
                return Err(format!("free-list entry {i} out of bounds"));
            }
            if on_free_list[i] {
                return Err(format!("slot {i} appears twice on the free list"));
            }
            if self.live[i] {
                return Err(format!("slot {i} is both live and on the free list"));
            }
            on_free_list[i] = true;
        }
        for (i, &live) in self.live.iter().enumerate() {
            if !live {
                if !on_free_list[i] {
                    return Err(format!("slot {i} is neither live nor on the free list"));
                }
                // Release must have harvested the INT box into the recycle
                // stack and dropped any untaken ACK payload.
                if self.cold[i].int.is_some() || self.cold[i].ack.is_some() {
                    return Err(format!("freed slot {i} still owns cold-plane state"));
                }
            }
        }
        if self.stats.allocs - self.stats.frees != self.live_count() as u64 {
            return Err(format!(
                "allocs {} - frees {} != live {}",
                self.stats.allocs,
                self.stats.frees,
                self.live_count()
            ));
        }
        if self.stats.slot_allocs != self.hot.len() as u64 {
            return Err(format!(
                "slot_allocs {} != slab capacity {}",
                self.stats.slot_allocs,
                self.hot.len()
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_packet_wire_size_includes_header() {
        let p = Packet::data(0, 1, 2, 3, 1000, 0, Time::ZERO);
        assert_eq!(p.header.size, 1048);
        assert_eq!(p.header.payload, 1000);
        assert!(p.header.kind.is_data());
    }

    #[test]
    fn int_path_inline_then_spills() {
        let mut p = IntPath::new();
        assert!(p.is_empty());
        let hop = |i: u64| IntHop {
            qlen: i,
            tx_bytes: i * 10,
            ts: Time::from_us(i),
            rate_bps: 100,
        };
        for i in 0..INT_INLINE_HOPS as u64 {
            p.push(hop(i));
        }
        assert_eq!(p.len(), INT_INLINE_HOPS);
        assert_eq!(p.as_slice().len(), INT_INLINE_HOPS);
        // Push past inline capacity: order must be preserved across the
        // spill.
        for i in INT_INLINE_HOPS as u64..12 {
            p.push(hop(i));
        }
        assert_eq!(p.len(), 12);
        let qlens: Vec<u64> = p.as_slice().iter().map(|h| h.qlen).collect();
        assert_eq!(qlens, (0..12).collect::<Vec<u64>>());
    }

    #[test]
    fn int_path_saturates_at_max_hops() {
        let mut p = IntPath::new();
        let hop = |i: u64| IntHop {
            qlen: i,
            tx_bytes: i,
            ts: Time::from_us(i),
            rate_bps: 100,
        };
        for i in 0..INT_MAX_HOPS as u64 {
            assert!(p.push(hop(i)), "hop {i} must be accepted below the cap");
        }
        assert_eq!(p.len(), INT_MAX_HOPS);
        // Past the cap: rejected, path unchanged, recorded prefix intact.
        assert!(!p.push(hop(999)));
        assert!(!p.push(hop(1000)));
        assert_eq!(p.len(), INT_MAX_HOPS);
        let qlens: Vec<u64> = p.as_slice().iter().map(|h| h.qlen).collect();
        assert_eq!(qlens, (0..INT_MAX_HOPS as u64).collect::<Vec<u64>>());
        // Clearing re-arms the path.
        p.clear();
        assert!(p.push(hop(0)));
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn control_packets_are_64_bytes() {
        let probe = Packet::probe(0, 1, 2, 3, Time::ZERO);
        assert_eq!(probe.header.size, CONTROL_BYTES);
        let pfc = Packet::pfc(1, 2, 0, true);
        assert_eq!(pfc.header.size, CONTROL_BYTES);
        assert!(pfc.header.kind.is_pfc());
        assert!(!probe.header.kind.is_data());
    }

    fn pkt(seq: u64) -> Packet {
        Packet::data(0, 1, 2, 0, 1000, seq, Time::ZERO)
    }

    #[test]
    fn arena_reuses_slots_strictly_lifo() {
        let mut a = PacketArena::new();
        let ids: Vec<PacketId> = (0..4).map(|i| a.alloc(pkt(i))).collect();
        assert_eq!(ids, vec![PacketId(0), PacketId(1), PacketId(2), PacketId(3)]);
        assert_eq!(a.capacity(), 4);
        // Free 1 then 3: LIFO hands back 3 first, then 1, then grows.
        a.release(ids[1]);
        a.release(ids[3]);
        assert_eq!(a.live_count(), 2);
        assert_eq!(a.alloc(pkt(10)), PacketId(3));
        assert_eq!(a.alloc(pkt(11)), PacketId(1));
        assert_eq!(a.alloc(pkt(12)), PacketId(4));
        assert_eq!(a.get(PacketId(3)).seq, 10);
        assert_eq!(a.get(PacketId(1)).seq, 11);
        let s = a.stats();
        assert_eq!(s.allocs, 7);
        assert_eq!(s.frees, 2);
        assert_eq!(s.slot_allocs, 5);
        assert_eq!(s.peak_live, 5);
        a.check().expect("arena internally consistent");
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn arena_rejects_double_free() {
        let mut a = PacketArena::new();
        let id = a.alloc(pkt(0));
        a.release(id);
        a.release(id);
    }

    #[test]
    fn arena_recycles_int_boxes() {
        let mut a = PacketArena::new();
        let hop = IntHop {
            qlen: 7,
            tx_bytes: 9,
            ts: Time::from_us(1),
            rate_bps: 100,
        };
        let id = a.alloc(pkt(0));
        a.append_int(id, hop);
        a.append_int(id, hop);
        assert_eq!(a.int(id).unwrap().len(), 2);
        assert_eq!(a.stats().int_allocs, 1);
        // Release returns the (cleared) box to the recycle stack...
        a.release(id);
        let id2 = a.alloc(pkt(1));
        a.append_int(id2, hop);
        // ...so the second packet's INT path is served without a fresh box
        // and starts empty.
        assert_eq!(a.stats().int_allocs, 1);
        assert_eq!(a.int(id2).unwrap().len(), 1);
        // A detached box (the ack-echo path) recycles the same way.
        let boxed = a.take_int(id2).unwrap();
        a.recycle_int(boxed);
        a.release(id2);
        let id3 = a.alloc(pkt(2));
        a.append_int(id3, hop);
        assert_eq!(a.stats().int_allocs, 1, "steady state allocates no boxes");
        a.check().expect("arena internally consistent");
    }

    #[test]
    fn alloc_splits_planes_and_take_ack_detaches_payload() {
        let mut a = PacketArena::new();
        let info = AckInfo {
            cum_bytes: 4096,
            acked_seq: 3072,
            acked_bytes: 1024,
            ts_echo: Time::from_us(5),
            ecn_echo: true,
            nack: Some((1024, 2048)),
            int: None,
        };
        let id = a.alloc(Packet::ack(7, 1, 2, 3, info, false, Time::from_us(9)));
        // Hot header carries the tag and wire fields only.
        assert_eq!(a.get(id).kind, PktTag::Ack);
        assert!(a.get(id).kind.is_control());
        assert_eq!(a.get(id).size, CONTROL_BYTES);
        // The payload comes out of the cold plane exactly once.
        let taken = a.take_ack(id).expect("ack tag implies ack payload");
        assert_eq!(taken.cum_bytes, 4096);
        assert_eq!(taken.nack, Some((1024, 2048)));
        assert!(a.take_ack(id).is_none(), "payload detaches only once");
        a.release(id);
        // A probe echo maps to the ProbeAck tag; data/probe/PFC carry none.
        let info2 = AckInfo {
            cum_bytes: 0,
            acked_seq: 0,
            acked_bytes: 0,
            ts_echo: Time::ZERO,
            ecn_echo: false,
            nack: None,
            int: None,
        };
        let pa = a.alloc(Packet::ack(7, 1, 2, 3, info2, true, Time::ZERO));
        assert_eq!(a.get(pa).kind, PktTag::ProbeAck);
        assert!(a.take_ack(pa).is_some());
        let d = a.alloc(pkt(0));
        assert!(a.take_ack(d).is_none());
        assert_eq!(a.get(d).kind, PktTag::Data);
        let f = a.alloc(Packet::pfc(1, 2, 4, true));
        assert_eq!(a.get(f).kind, PktTag::Pfc { prio: 4, pause: true });
        a.release(pa);
        a.release(d);
        a.release(f);
        a.check().expect("arena internally consistent");
    }

    #[test]
    fn release_discards_untaken_ack_payload() {
        // An ACK dropped in flight (fault / lossy mode) is released without
        // `take_ack`; the slot must come back clean for its next tenant.
        let mut a = PacketArena::new();
        let info = AckInfo {
            cum_bytes: 1,
            acked_seq: 2,
            acked_bytes: 3,
            ts_echo: Time::ZERO,
            ecn_echo: false,
            nack: None,
            int: None,
        };
        let id = a.alloc(Packet::ack(0, 1, 2, 0, info, false, Time::ZERO));
        a.release(id);
        a.check().expect("freed slot owns no cold state");
        let id2 = a.alloc(pkt(0));
        assert_eq!(id2, id, "LIFO reuse of the freed slot");
        assert!(a.take_ack(id2).is_none(), "no payload leaks across tenants");
    }

    /// Size pins for the split planes. The hot header is the per-hop
    /// working set: 5×u32 + 2×u64 + u16 + 2×u8 + bool + 3-byte tag = 44
    /// bytes, padded to 48 — one 64-byte line holds a header with room to
    /// spare, and two headers straddle at most two lines. The pin fails
    /// loudly if a field addition silently fattens every queue entry.
    #[test]
    fn hot_header_fits_budget() {
        assert!(
            std::mem::size_of::<PktHeader>() <= 48,
            "PktHeader grew to {} bytes (budget 48); move cold fields to PktCold",
            std::mem::size_of::<PktHeader>()
        );
        assert!(
            std::mem::size_of::<PktTag>() <= 4,
            "PktTag grew to {} bytes (budget 4)",
            std::mem::size_of::<PktTag>()
        );
        assert_eq!(std::mem::size_of::<PacketId>(), 4);
    }

    /// The cold plane holds the ACK payload inline (boxing it would cost a
    /// heap allocation per ACK — one per delivered data packet). Pin its
    /// size so AckInfo growth is a conscious decision, not drift.
    #[test]
    fn cold_plane_fits_budget() {
        assert!(
            std::mem::size_of::<PktCold>() <= 88,
            "PktCold grew to {} bytes (budget 88)",
            std::mem::size_of::<PktCold>()
        );
    }
}
