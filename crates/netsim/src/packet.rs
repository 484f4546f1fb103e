//! Packet and identifier types.
//!
//! One record per packet: a 48-byte [`PktHeader`] holds everything a hop
//! reads and everything an endpoint needs. Its [`PktTag`] says what kind of
//! packet it is, and with it what the kind-dependent words mean — an ACK
//! reuses the words only a data segment needs:
//!
//! | word      | `Data`                   | `Probe` | `Ack`                                   |
//! |-----------|--------------------------|---------|-----------------------------------------|
//! | `seq`     | first payload byte       | 0       | receiver's in-order bytes (`cum_bytes`) |
//! | `ack_seq` | 0                        | 0       | `seq` of the data packet acknowledged   |
//! | `payload` | payload bytes            | 0       | its payload bytes (`acked_bytes`)       |
//! | `ts_tx`   | sender's transmit time   | same    | its `ts_tx`, echoed (`ts_echo`)         |
//! | `ecn_ce`  | CE mark, set by switches | false   | its CE mark, echoed (`ecn_echo`)        |
//! | `nack`    | false                    | false   | receiver NACKs `[seq, ack_seq)` (lossy) |
//!
//! A probe echo (`ProbeAck`) is 0 / false in every word but `ts_tx`, the
//! probe's echoed send time. A PFC frame is not a packet: it is link-local
//! MAC control, consumed by the port that receives it, and travels as an
//! [`crate::event::Event::Pfc`] without taking an arena slot.
//!
//! Beside the header sits one more plane, HPCC's INT path
//! (`Option<Box<IntPath>>`, `None` unless INT is on). [`Packet`] is the
//! header plus that box as an endpoint builds it; [`PacketArena`] stores
//! both and hands out 4-byte [`PacketId`]s, which is all that events and
//! port queues carry.

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
/// spill to a heap `Vec`. Boxed as `Option<Box<IntPath>>` in [`Packet`], an
/// INT-carrying packet costs exactly one allocation, versus the old
/// `Box<Vec<IntHop>>`'s box + vec buffer + growth reallocations.
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

/// Packet kind, stored in the header.
///
/// Forwarding, queue selection and PFC classification branch on it, and it
/// says what the kind-dependent header words hold (see the module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PktTag {
    /// A data segment.
    Data,
    /// A minimal-size delay probe (PrioPlus §4.2.1).
    Probe,
    /// Acknowledgment of a data segment.
    Ack,
    /// Echo of a probe.
    ProbeAck,
}

impl PktTag {
    /// True for data segments (the only packets subject to ECN marking,
    /// non-congestive delay, and drops).
    #[inline]
    pub fn is_data(&self) -> bool {
        matches!(self, PktTag::Data)
    }
}

/// A packet: every field the forwarding path touches on every hop
/// (routing, queue selection, byte accounting, ECN, PFC classification)
/// and the words its endpoints read once. What `seq`, `ack_seq`,
/// `payload`, `ts_tx`, `ecn_ce` and `nack` hold depends on `kind`; the
/// module docs have the table.
///
/// [`PacketArena`] stores these contiguously, so a hop's working set is one
/// small record per packet. The `hot_header_fits_budget` size pin holds
/// this to ≤ 48 bytes — grow it past that and the test will ask you to
/// justify the cache cost.
#[derive(Clone, Copy, Debug)]
pub struct PktHeader {
    /// Owning flow.
    pub flow: FlowId,
    /// Origin host.
    pub src: NodeId,
    /// Destination host.
    pub dst: NodeId,
    /// Total wire size in bytes (header included). A `u16`: `Sim::new`
    /// refuses an MTU whose data packets would not fit.
    pub size: u16,
    /// Data: payload bytes. ACK: payload bytes acknowledged. Otherwise 0.
    pub payload: u16,
    /// Data: byte offset of the first payload byte. ACK: bytes the
    /// receiver holds in order (`cum_bytes`). Otherwise 0.
    pub seq: u64,
    /// ACK: `seq` of the data packet acknowledged. Otherwise 0.
    pub ack_seq: u64,
    /// Data / probe: when the sender put the packet on the wire. ACK /
    /// probe echo: the answered packet's send time, echoed back for the
    /// delay measurement.
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
    /// Data: ECN congestion-experienced mark. ACK: the acknowledged data
    /// packet's mark, echoed. Switches mark only data packets.
    pub ecn_ce: bool,
    /// ACK only: the receiver NACKs the byte range `[seq, ack_seq)` — its
    /// in-order point up to the out-of-order packet acknowledged (lossy
    /// mode).
    pub nack: bool,
    /// Packet kind.
    pub kind: PktTag,
}

/// A packet as its endpoint builds it: the header plus the INT box HPCC
/// collects along the path (`None` when INT is off).
///
/// Endpoints build a `Packet` with the constructors below and hand it to
/// [`PacketArena::alloc`]. Code holding a [`PacketId`] reads the header via
/// [`PacketArena::get`] and the INT path via [`PacketArena::int`] /
/// [`PacketArena::take_int`].
#[derive(Clone, Debug)]
pub struct Packet {
    /// Every field the forwarding path and the endpoints read.
    pub header: PktHeader,
    int: Option<Box<IntPath>>,
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
    ) -> Self {
        Packet {
            header: PktHeader {
                flow,
                src,
                dst,
                size: CONTROL_BYTES as u16,
                payload: 0,
                seq: 0,
                ack_seq: 0,
                ts_tx,
                cur_in_port: 0,
                prio,
                dscp: 0,
                ecn_ce: false,
                nack: false,
                kind,
            },
            int: None,
        }
    }

    /// Construct a data segment. `payload + HEADER_BYTES` must fit the
    /// `u16` wire size (`Sim::new` bounds the MTU so that it does).
    pub fn data(
        flow: FlowId,
        src: NodeId,
        dst: NodeId,
        prio: u8,
        payload: u32,
        seq: u64,
        ts_tx: Time,
    ) -> Self {
        debug_assert!(
            payload + HEADER_BYTES <= u16::MAX as u32,
            "{payload}-byte payload overflows the u16 wire size"
        );
        let mut pkt = Packet::control(PktTag::Data, flow, src, dst, prio, ts_tx);
        pkt.header.size = (payload + HEADER_BYTES) as u16;
        pkt.header.payload = payload as u16;
        pkt.header.seq = seq;
        pkt
    }

    /// Construct a probe packet.
    pub fn probe(flow: FlowId, src: NodeId, dst: NodeId, prio: u8, ts_tx: Time) -> Self {
        Packet::control(PktTag::Probe, flow, src, dst, prio, ts_tx)
    }

    /// Construct the answer to `of`, a data segment or probe that reached
    /// its destination: an ACK or a probe echo, sent back at `prio`. It
    /// echoes `of`'s `seq` (as `ack_seq`), `payload`, `ts_tx` and ECN mark,
    /// and carries the receiver's in-order byte count `cum_bytes`, its NACK
    /// bit and the INT path `of` collected.
    pub fn ack(
        of: &PktHeader,
        prio: u8,
        cum_bytes: u64,
        nack: bool,
        int: Option<Box<IntPath>>,
    ) -> Self {
        let kind = match of.kind {
            PktTag::Data => PktTag::Ack,
            PktTag::Probe => PktTag::ProbeAck,
            other @ (PktTag::Ack | PktTag::ProbeAck) => {
                unreachable!("only data and probes are answered, not {other:?}")
            }
        };
        let mut pkt = Packet::control(kind, of.flow, of.dst, of.src, prio, of.ts_tx);
        let h = &mut pkt.header;
        h.seq = cum_bytes;
        h.ack_seq = of.seq;
        h.payload = of.payload;
        h.ecn_ce = of.ecn_ce;
        h.nack = nack;
        pkt.int = int;
        pkt
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

/// Deterministic slab allocator for in-flight packets.
///
/// One header per slot (`Vec<PktHeader>`), a parallel plane of INT boxes
/// and of live flags, and a strictly LIFO free list of `u32` slot indices.
/// Releasing slot `i` makes `i` the *next* slot handed out, so the mapping
/// from packet-creation order to slot index is a pure function of the event
/// sequence — identical across runs and platforms. (A FIFO free list would
/// be equally deterministic but touch cold slots; LIFO reuses the
/// cache-hot one. What matters for replay is only that the policy is
/// fixed.)
///
/// Retired packets donate their `Box<IntPath>` to a recycle stack, so in
/// steady state neither the slab nor INT telemetry touches the global
/// allocator: forwarding a packet costs zero heap allocations.
#[derive(Clone, Debug, Default)]
pub struct PacketArena {
    headers: Vec<PktHeader>,
    int: Vec<Option<Box<IntPath>>>,
    live: Vec<bool>,
    free: Vec<u32>,
    #[expect(
        clippy::vec_box,
        reason = "the boxes themselves are the pooled resource: the INT plane and \
                  `AckEvent.int` hold `Box<IntPath>`, and recycling must hand back the \
                  exact allocation, not re-box a by-value copy"
    )]
    int_recycle: Vec<Box<IntPath>>,
    stats: ArenaStats,
}

impl PacketArena {
    /// New empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Store `pkt`, returning its handle. Reuses the most recently freed
    /// slot (LIFO) or grows the slab when none is free.
    pub fn alloc(&mut self, pkt: Packet) -> PacketId {
        self.stats.allocs += 1;
        let Packet { header, int } = pkt;
        let id = match self.free.pop() {
            Some(i) => {
                self.headers[i as usize] = header;
                self.int[i as usize] = int;
                self.live[i as usize] = true;
                PacketId(i)
            }
            None => {
                let i = self.headers.len() as u32;
                self.stats.slot_allocs += 1;
                self.headers.push(header);
                self.int.push(int);
                self.live.push(true);
                PacketId(i)
            }
        };
        let live_now = (self.headers.len() - self.free.len()) as u64;
        if live_now > self.stats.peak_live {
            self.stats.peak_live = live_now;
        }
        id
    }

    /// Borrow the header behind `id`.
    #[inline]
    pub fn get(&self, id: PacketId) -> &PktHeader {
        debug_assert!(self.live[id.index()], "get() on freed packet {id:?}");
        &self.headers[id.index()]
    }

    /// Mutably borrow the header behind `id`.
    #[inline]
    pub fn get_mut(&mut self, id: PacketId) -> &mut PktHeader {
        debug_assert!(self.live[id.index()], "get_mut() on freed packet {id:?}");
        &mut self.headers[id.index()]
    }

    /// Borrow the INT telemetry of the packet behind `id`, if it carries
    /// any.
    #[inline]
    pub fn int(&self, id: PacketId) -> Option<&IntPath> {
        debug_assert!(self.live[id.index()], "int() on freed packet {id:?}");
        self.int[id.index()].as_deref()
    }

    /// Detach the INT box of the packet behind `id` (the receiver moves it
    /// onto the ACK it emits, the sender onto the `AckEvent`). The caller
    /// owns the box; return it with [`recycle_int`](Self::recycle_int) when
    /// done.
    #[inline]
    pub fn take_int(&mut self, id: PacketId) -> Option<Box<IntPath>> {
        debug_assert!(self.live[id.index()], "take_int() on freed packet {id:?}");
        self.int[id.index()].take()
    }

    /// Retire `id`: its slot becomes the next one [`alloc`](Self::alloc)
    /// hands out, and any INT box it still carries (a dropped packet's, an
    /// ACK's for a finished flow) goes onto the recycle stack. Panics on
    /// double free — a released id must never be released again.
    pub fn release(&mut self, id: PacketId) {
        let i = id.index();
        assert!(self.live[i], "double free of packet arena slot {}", id.0);
        self.live[i] = false;
        self.stats.frees += 1;
        if let Some(boxed) = self.int[i].take() {
            self.recycle_int(boxed);
        }
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
        let path = self.int[i].get_or_insert_with(|| match self.int_recycle.pop() {
            Some(b) => {
                self.stats.int_recycled += 1;
                b
            }
            None => {
                self.stats.int_allocs += 1;
                Box::new(IntPath::new())
            }
        });
        path.push(hop)
    }

    /// Return a detached INT box (e.g. one that rode an ACK back to the
    /// sender) to the recycle stack.
    pub fn recycle_int(&mut self, mut boxed: Box<IntPath>) {
        boxed.clear();
        self.stats.int_recycled += 1;
        self.int_recycle.push(boxed);
    }

    /// Number of currently live packets.
    pub fn live_count(&self) -> usize {
        self.headers.len() - self.free.len()
    }

    /// Total slots ever created (live + free).
    pub fn capacity(&self) -> usize {
        self.headers.len()
    }

    /// Bytes the arena's vectors hold: capacity × element size of the
    /// header, INT, live-flag and free-list planes and the recycle stack.
    /// The INT boxes themselves are not counted.
    pub fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        self.headers.capacity() * size_of::<PktHeader>()
            + self.int.capacity() * size_of::<Option<Box<IntPath>>>()
            + self.live.capacity() * size_of::<bool>()
            + self.free.capacity() * size_of::<u32>()
            + self.int_recycle.capacity() * size_of::<Box<IntPath>>()
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
    /// packet's header and INT path length. The recycle stack is folded by
    /// depth only — recycled boxes are cleared, so depth is the only state
    /// they carry.
    pub(crate) fn fold_digest(&self, fold: &mut impl FnMut(u64)) {
        fold(self.headers.len() as u64);
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
            let h = &self.headers[i];
            fold(i as u64);
            fold(h.flow as u64);
            fold((h.src as u64) << 32 | h.dst as u64);
            fold((h.size as u64) << 32 | h.payload as u64);
            fold(h.seq);
            fold(h.ack_seq);
            fold(h.ts_tx.as_ps());
            let mut tagged: u64 = (h.cur_in_port as u64) << 32
                | (h.prio as u64) << 24
                | (h.dscp as u64) << 16
                | (h.nack as u64) << 9
                | (h.ecn_ce as u64) << 8;
            tagged |= match h.kind {
                PktTag::Data => 1,
                PktTag::Probe => 2,
                PktTag::Ack => 3,
                PktTag::ProbeAck => 4,
            };
            fold(tagged);
            fold(self.int[i].as_deref().map_or(0, |p| p.len() as u64 + 1));
        }
    }

    /// Internal-consistency check used by the invariant audit: the planes
    /// must be equally long, the free list duplicate-free, in bounds, and
    /// exactly the complement of the live set, and no freed slot may still
    /// hold an INT box; counters must balance.
    pub fn check(&self) -> Result<(), String> {
        let n = self.headers.len();
        if self.live.len() != n || self.int.len() != n {
            return Err(format!(
                "plane lengths differ: {n} headers, {} live flags, {} INT slots",
                self.live.len(),
                self.int.len()
            ));
        }
        let mut on_free_list = vec![false; n];
        for &i in &self.free {
            let i = i as usize;
            if i >= n {
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
            if !live && !on_free_list[i] {
                return Err(format!("slot {i} is neither live nor on the free list"));
            }
            if !live && self.int[i].is_some() {
                return Err(format!("freed slot {i} still owns an INT box"));
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
        if self.stats.slot_allocs != n as u64 {
            return Err(format!(
                "slot_allocs {} != slab capacity {n}",
                self.stats.slot_allocs
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
        assert_eq!(probe.header.size as u32, CONTROL_BYTES);
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
        let hop = hop(7);
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

    fn hop(qlen: u64) -> IntHop {
        IntHop {
            qlen,
            tx_bytes: 9,
            ts: Time::from_us(1),
            rate_bps: 100,
        }
    }

    /// An ACK is the answered packet's header turned around: every word of
    /// the module docs' table lands where the table says, for a data
    /// segment (ACK) and a probe (probe echo) alike, and the INT box rides
    /// along in its own plane.
    #[test]
    fn ack_echoes_the_answered_packet() {
        let mut a = PacketArena::new();
        let mut data = Packet::data(7, 1, 2, 3, 1000, 3072, Time::from_us(5)).header;
        data.ecn_ce = true;
        let mut path = Box::new(IntPath::new());
        path.push(hop(11));
        let id = a.alloc(Packet::ack(&data, 4, 2048, true, Some(path)));
        let h = *a.get(id);
        assert_eq!(h.kind, PktTag::Ack);
        assert!(!h.kind.is_data());
        assert_eq!((h.flow, h.src, h.dst, h.prio), (7, 2, 1, 4));
        assert_eq!(h.size as u32, CONTROL_BYTES);
        assert_eq!((h.seq, h.ack_seq, h.payload), (2048, 3072, 1000), "cum, seq, bytes");
        assert_eq!(h.ts_tx, Time::from_us(5), "the data packet's send time, echoed");
        assert!(h.ecn_ce && h.nack);
        assert_eq!(a.int(id).map(|p| p.as_slice()[0].qlen), Some(11));
        let probe = Packet::probe(7, 1, 2, 3, Time::from_us(6)).header;
        let pa = a.alloc(Packet::ack(&probe, 4, 0, false, None));
        let h = *a.get(pa);
        assert_eq!(h.kind, PktTag::ProbeAck);
        assert_eq!((h.src, h.dst, h.seq, h.ack_seq, h.payload), (2, 1, 0, 0, 0));
        assert_eq!(h.ts_tx, Time::from_us(6));
        assert!(!h.ecn_ce && !h.nack && a.int(pa).is_none());
        for id in [id, pa] {
            a.release(id);
        }
        a.check().expect("arena internally consistent");
    }

    /// An ACK dropped in flight (fault, or its flow already finished) is
    /// released with its words and INT box untaken. The box goes back to
    /// the recycle stack, and the slot's next tenant sees only its own
    /// words.
    #[test]
    fn released_ack_slot_gives_next_tenant_nothing() {
        let mut a = PacketArena::new();
        let mut data = pkt(3000).header;
        data.ecn_ce = true;
        let carrier = a.alloc(pkt(0));
        a.append_int(carrier, hop(1));
        let path = a.take_int(carrier);
        a.release(carrier);
        let id = a.alloc(Packet::ack(&data, 0, 1000, true, path));
        let recycled = a.stats().int_recycled;
        a.release(id);
        assert_eq!(a.stats().int_recycled, recycled + 1, "the box went back to the stack");
        a.check().expect("freed slot owns no INT box");
        let id2 = a.alloc(Packet::probe(0, 1, 2, 0, Time::ZERO));
        assert_eq!(id2, id, "LIFO reuse of the freed slot");
        let h = *a.get(id2);
        assert_eq!((h.kind, h.seq, h.ack_seq, h.payload), (PktTag::Probe, 0, 0, 0));
        assert!(!h.ecn_ce && !h.nack && a.int(id2).is_none(), "nothing leaks across tenants");
        a.append_int(id2, hop(2));
        assert_eq!(a.stats().int_allocs, 1, "the recycled box served the next INT packet");
        assert_eq!(a.int(id2).unwrap().len(), 1);
    }

    /// The header is the per-hop working set and, since ACKs ride in it,
    /// the whole packet: 3×u32 + 2×u16 + 3×u64 + u16 + 2×u8 + 2×bool +
    /// 1-byte tag = 47 bytes, padded to 48 — one 64-byte line holds a header
    /// with room to spare, and two headers straddle at most two lines. The
    /// pin fails loudly if a field addition silently fattens every packet.
    #[test]
    fn hot_header_fits_budget() {
        assert!(
            std::mem::size_of::<PktHeader>() <= 48,
            "PktHeader grew to {} bytes (budget 48)",
            std::mem::size_of::<PktHeader>()
        );
        assert!(
            std::mem::size_of::<PktTag>() <= 1,
            "PktTag grew to {} bytes (budget 1)",
            std::mem::size_of::<PktTag>()
        );
        assert_eq!(std::mem::size_of::<PacketId>(), 4);
    }

    /// Per slot the arena holds a header, an INT box pointer, a live flag
    /// and (once freed) a free-list entry: 48 + 8 + 1 + 4 = 61 bytes. Pin
    /// the measured total over every plane at ≤ 64 bytes per slot, after a
    /// peak of 4,096 live packets (`coflow_lossy` peaks at 4,072), all
    /// released.
    #[test]
    fn packet_arena_stays_compact() {
        let mut a = PacketArena::new();
        let ids: Vec<PacketId> = (0..4096).map(|i| a.alloc(pkt(i))).collect();
        for id in ids {
            a.release(id);
        }
        let per_slot = a.resident_bytes() as f64 / a.capacity() as f64;
        assert!(per_slot <= 64.0, "packet arena grew to {per_slot} B per slot (budget 64)");
        assert_eq!(a.resident_bytes(), 4096 * 61);
    }
}
