//! Shared sender-side mechanics: sequencing, window gating, sub-MTU pacing,
//! selective (IRN-style) retransmission, and the retransmission timer with
//! its whole lifecycle: a *deadline* that every arm moves, and at most one
//! scheduler entry that checks it — pushed when none is armed, left alone
//! by an ACK, re-pushed at the deadline when it fires early, cancelled when
//! the flow finishes.
//!
//! [`SenderBase`] is the data plane of both `Transport` implementations in
//! this crate: [`crate::plain::CcTransport`], which adds nothing but a
//! [`crate::plain::WindowPolicy`], and
//! [`crate::pp_transport::PrioPlusTransport`], which adds probing and
//! suspension.

use std::collections::{vec_deque, BTreeSet, VecDeque};
use std::ops::Range;

use netsim::{AckEvent, FlowParams, TransportCtx, TrySend};
use simcore::event::ScheduledId;
use simcore::Time;

/// Timer token of the retransmission timeout [`SenderBase`] schedules.
pub const RTO_TOKEN: u64 = 0x5210;

/// A set of sequence numbers held as a sorted `VecDeque`, for a set that is
/// used as a sliding window: sending appends at the back and the in-order
/// ACK removes the front, both O(1) with no tree to descend. Anything else
/// is a binary search plus a shift of the shorter side, which stays short
/// on the traffic there is: a hole is old, so a middle `remove` moves the
/// few entries in front of it, and a retransmission re-inserts near the
/// front.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SeqSet(VecDeque<u64>);

impl SeqSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of sequences held.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when no sequence is held.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The lowest sequence.
    pub fn first(&self) -> Option<&u64> {
        self.0.front()
    }

    /// Every sequence, ascending.
    pub fn iter(&self) -> vec_deque::Iter<'_, u64> {
        self.0.iter()
    }

    /// True when `seq` is held.
    pub fn contains(&self, seq: u64) -> bool {
        self.0.binary_search(&seq).is_ok()
    }

    /// Add `seq`; false when it was already held.
    pub fn insert(&mut self, seq: u64) -> bool {
        match self.0.back() {
            Some(&back) if seq <= back => match self.0.binary_search(&seq) {
                Ok(_) => false,
                Err(i) => {
                    self.0.insert(i, seq);
                    true
                }
            },
            _ => {
                self.0.push_back(seq);
                true
            }
        }
    }

    /// Take `seq` out; false when it was not held.
    pub fn remove(&mut self, seq: u64) -> bool {
        if self.0.front() == Some(&seq) {
            self.0.pop_front();
            return true;
        }
        match self.0.binary_search(&seq) {
            Ok(i) => {
                self.0.remove(i);
                true
            }
            Err(_) => false,
        }
    }

    /// Positions of the sequences in `[from, to)`; empty when `to <= from`.
    fn span(&self, seqs: Range<u64>) -> Range<usize> {
        let lo = self.0.partition_point(|&s| s < seqs.start);
        let hi = self.0.partition_point(|&s| s < seqs.end);
        lo..hi.max(lo)
    }

    /// The sequences in `[from, to)`, ascending; none when `to <= from`.
    pub fn range(&self, seqs: Range<u64>) -> vec_deque::Iter<'_, u64> {
        self.0.range(self.span(seqs))
    }

    /// Take the sequences in `[from, to)` out, ascending, in place.
    pub fn drain(&mut self, seqs: Range<u64>) -> vec_deque::Drain<'_, u64> {
        self.0.drain(self.span(seqs))
    }
}

/// Sender-side data-plane state shared by all window-based transports.
#[derive(Clone, Debug)]
pub struct SenderBase {
    /// Static flow parameters.
    pub params: FlowParams,
    /// Next new payload byte to send.
    pub snd_nxt: u64,
    /// Distinct payload bytes acknowledged.
    pub acked: u64,
    /// Bytes currently in flight.
    pub inflight: u64,
    /// Sequences of sent-but-unacknowledged packets.
    pub outstanding: SeqSet,
    /// Packets queued for retransmission `(seq, len)`.
    pub rtx_queue: VecDeque<(u64, u32)>,
    /// Sequences already queued for retransmission (dedup).
    rtx_pending: BTreeSet<u64>,
    /// Total retransmitted packets.
    pub retransmits: u64,
    /// Smoothed RTT (initialized to base RTT).
    pub srtt: Time,
    /// Time of the last received ACK.
    pub last_ack: Time,
    /// Earliest time the next packet may leave (sub-MTU-window pacing).
    pub pace_next: Time,
    /// Consecutive RTO firings without an intervening ACK (exponential
    /// backoff; a starved low-priority flow must not spray go-back-N
    /// retransmissions while it is simply being preempted).
    pub rto_backoff: u32,
    /// The one scheduler entry that will check the timeout, and the time it
    /// sits at: never after `rto_deadline`, so a timeout can be checked
    /// early but never late.
    rto_timer: Option<(ScheduledId, Time)>,
    /// When the timeout is due: one [`SenderBase::rto`] after the last arm.
    rto_deadline: Time,
}

impl SenderBase {
    /// Fresh sender state for a flow.
    pub fn new(params: FlowParams) -> Self {
        let srtt = params.base_rtt;
        SenderBase {
            params,
            snd_nxt: 0,
            acked: 0,
            inflight: 0,
            outstanding: SeqSet::new(),
            rtx_queue: VecDeque::new(),
            rtx_pending: BTreeSet::new(),
            retransmits: 0,
            srtt,
            last_ack: Time::ZERO,
            pace_next: Time::ZERO,
            rto_backoff: 0,
            rto_timer: None,
            rto_deadline: Time::ZERO,
        }
    }

    /// True when every payload byte has been acknowledged.
    pub fn finished(&self) -> bool {
        self.acked >= self.params.size
    }

    /// Remaining new bytes not yet sent.
    pub fn remaining(&self) -> u64 {
        self.params.size.saturating_sub(self.snd_nxt)
    }

    /// Size of the next new segment.
    pub fn next_len(&self) -> u32 {
        self.remaining().min(self.params.mtu as u64) as u32
    }

    /// The standard window-gated send decision given the CC's window
    /// (bytes). Retransmissions take precedence over new data. Sub-MTU
    /// windows degrade to paced single packets.
    pub fn try_send(&self, cwnd: f64, now: Time) -> TrySend {
        if self.finished() {
            return TrySend::Finished;
        }
        // Pick the candidate packet.
        let (seq, len) = if let Some(&front) = self.rtx_queue.front() {
            front
        } else if self.remaining() > 0 {
            (self.snd_nxt, self.next_len())
        } else {
            // Everything sent, awaiting ACKs.
            return TrySend::Blocked;
        };
        if cwnd >= self.params.mtu as f64 {
            // Pure window/ACK clocking.
            if self.inflight + len as u64 <= cwnd as u64 {
                TrySend::Data { seq, bytes: len }
            } else {
                TrySend::Blocked
            }
        } else {
            // Sub-MTU window: one packet at a time, paced so that the
            // average rate is cwnd/srtt (Swift's fractional-cwnd pacing).
            if self.inflight > 0 {
                return TrySend::Blocked;
            }
            if now < self.pace_next {
                return TrySend::NotBefore(self.pace_next);
            }
            TrySend::Data { seq, bytes: len }
        }
    }

    /// Confirm a send decided by [`SenderBase::try_send`].
    pub fn on_sent(&mut self, sent: TrySend, cwnd: f64, now: Time) {
        let TrySend::Data { seq, bytes } = sent else {
            return;
        };
        if let Some(&(fseq, _)) = self.rtx_queue.front() {
            if fseq == seq {
                self.rtx_queue.pop_front();
                self.rtx_pending.remove(&seq);
                self.retransmits += 1;
            }
        }
        if seq == self.snd_nxt {
            self.snd_nxt += bytes as u64;
        }
        self.outstanding.insert(seq);
        self.inflight += bytes as u64;
        if cwnd < self.params.mtu as f64 {
            // Schedule the pacing gap for the next sub-MTU-window packet.
            let gap = self.srtt.mul_f64(self.params.mtu as f64 / cwnd.max(1.0));
            self.pace_next = now + gap;
        }
    }

    /// Process the data-plane part of an ACK.
    pub fn on_ack(&mut self, ack: &AckEvent, now: Time) {
        self.last_ack = now;
        self.rto_backoff = 0;
        // Srtt EWMA (alpha = 1/8), on the normalized delay.
        let s = self.srtt.as_ps() as f64 * 0.875 + ack.delay.as_ps() as f64 * 0.125;
        self.srtt = Time::from_ps(s as u64);
        if self.outstanding.remove(ack.acked_seq) {
            self.acked += ack.acked_bytes as u64;
            self.inflight = self.inflight.saturating_sub(ack.acked_bytes as u64);
        } else if self.rtx_pending.remove(&ack.acked_seq) {
            // The "lost" packet was acknowledged before its retransmission
            // left: drop it from the queue.
            self.rtx_queue.retain(|&(s, _)| s != ack.acked_seq);
            self.acked += ack.acked_bytes as u64;
        }
        if let Some((from, to)) = ack.nack {
            self.queue_rtx_range(from, to);
        }
    }

    /// Queue every outstanding packet in `[from, to)` for retransmission
    /// (selective repeat, IRN-style).
    pub fn queue_rtx_range(&mut self, from: u64, to: u64) {
        // Nothing outstanding is already queued: `check_invariants` holds
        // the two sets disjoint.
        for seq in self.outstanding.drain(from..to) {
            let len = (self.params.size - seq).min(self.params.mtu as u64) as u32;
            self.inflight = self.inflight.saturating_sub(len as u64);
            self.rtx_queue.push_back((seq, len));
            self.rtx_pending.insert(seq);
        }
    }

    /// Full timeout recovery: every outstanding packet is considered lost.
    pub fn rto_recover(&mut self) {
        self.queue_rtx_range(0, u64::MAX);
        self.inflight = 0;
        self.rto_backoff = (self.rto_backoff + 1).min(8);
    }

    /// (Re)start the retransmission timeout: it is due one
    /// [`SenderBase::rto`] from now. Only the deadline moves unless no entry
    /// is armed, or the armed one now lies after the deadline (`rto()`
    /// shrank: `srtt` fell or the backoff reset).
    pub fn arm_rto(&mut self, ctx: &mut TransportCtx<'_>) {
        self.rto_deadline = ctx.now + self.rto();
        match self.rto_timer {
            Some((_, at)) if at <= self.rto_deadline => {}
            armed => {
                if let Some((id, _)) = armed {
                    ctx.cancel_timer(id);
                }
                self.push_rto_entry(ctx);
            }
        }
    }

    /// Push the one entry, at the deadline.
    fn push_rto_entry(&mut self, ctx: &mut TransportCtx<'_>) {
        let at = self.rto_deadline;
        self.rto_timer = Some((ctx.schedule_timer(at, RTO_TOKEN), at));
    }

    /// After a data ACK: push the deadline out while bytes remain, cancel
    /// the entry once the flow is finished.
    pub fn rearm_rto_after_ack(&mut self, ctx: &mut TransportCtx<'_>) {
        if !self.finished() {
            self.arm_rto(ctx);
        } else if let Some((id, _)) = self.rto_timer.take() {
            ctx.cancel_timer(id);
        }
    }

    /// The [`RTO_TOKEN`] entry fired. Before the deadline (ACKs moved it
    /// since the entry was pushed) this is an *early fire*: the entry goes
    /// back in at the deadline and nothing else happens. At the deadline:
    /// if a full RTO has passed since the last ACK with packets
    /// outstanding, requeue them all and return `true` so the caller can
    /// apply its window reaction; either way the timer keeps running while
    /// bytes remain. `hold` (a suspended PrioPlus flow, silent by design)
    /// keeps it running without declaring loss.
    pub fn on_rto_timer(&mut self, hold: bool, ctx: &mut TransportCtx<'_>) -> bool {
        self.rto_timer = None;
        if self.finished() {
            return false;
        }
        if ctx.now < self.rto_deadline {
            self.push_rto_entry(ctx);
            return false;
        }
        let timed_out = !hold
            && ctx.now.saturating_sub(self.last_ack) >= self.rto()
            && !self.outstanding.is_empty();
        if timed_out {
            self.rto_recover();
        }
        self.arm_rto(ctx);
        timed_out
    }

    /// Retransmission timeout duration: generous so it only fires on real
    /// trailing loss (the simulator is lossless unless PFC is disabled).
    pub fn rto(&self) -> Time {
        let base =
            (self.srtt.mul_f64(4.0) + self.params.base_rtt.mul_f64(8.0)).max(Time::from_us(100));
        base.mul_f64((1u64 << self.rto_backoff.min(8)) as f64)
    }

    /// Audit hook: sequence- and timer-state sanity shared by every
    /// transport built on [`SenderBase`].
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.acked > self.params.size {
            return Err(format!(
                "acked {} B > flow size {} B",
                self.acked, self.params.size
            ));
        }
        if self.snd_nxt > self.params.size {
            return Err(format!(
                "snd_nxt {} > flow size {}",
                self.snd_nxt, self.params.size
            ));
        }
        if self.rto_backoff > 8 {
            return Err(format!("rto_backoff {} > 8", self.rto_backoff));
        }
        if self.srtt == Time::ZERO {
            return Err("srtt collapsed to zero".to_string());
        }
        let pending = self.rtx_pending.len();
        if self.rtx_queue.len() != pending {
            return Err(format!(
                "rtx queue len {} != pending set len {pending}",
                self.rtx_queue.len()
            ));
        }
        let seqs = &self.outstanding;
        if let Some((a, b)) = seqs.iter().zip(seqs.iter().skip(1)).find(|(a, b)| a >= b) {
            return Err(format!(
                "outstanding not strictly ascending: {a} before {b}"
            ));
        }
        if let Some(seq) = self
            .rtx_pending
            .iter()
            .find(|&&s| self.outstanding.contains(s))
        {
            return Err(format!(
                "seq {seq} both outstanding and queued for retransmission"
            ));
        }
        match self.rto_timer {
            Some((_, at)) if at > self.rto_deadline => {
                return Err(format!(
                    "rto entry at {at} lies after the deadline {}",
                    self.rto_deadline
                ));
            }
            None if !self.finished() && !self.outstanding.is_empty() => {
                return Err(format!(
                    "{} packets outstanding and no rto entry armed",
                    self.outstanding.len()
                ));
            }
            _ => {}
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{ack, params};
    use netsim::Event;
    use simcore::EventQueue;

    #[test]
    fn audit_sees_an_rto_entry_after_its_deadline_or_missing() {
        let mut b = SenderBase::new(params(1_000));
        let mut q = EventQueue::<Event>::new();
        let mut ctx = TransportCtx::for_test(&mut q, Time::ZERO, 0);
        b.arm_rto(&mut ctx);
        let d = b.try_send(1e9, Time::ZERO);
        b.on_sent(d, 1e9, Time::ZERO);
        b.check_invariants().unwrap();

        // The deadline moved before the entry and nobody re-pushed: the
        // timeout would be noticed late.
        b.rto_deadline = b.rto_deadline.saturating_sub(Time::from_ps(1));
        let err = b.check_invariants().unwrap_err();
        assert!(err.contains("lies after the deadline"), "{err}");

        // The entry fired and nobody put it back: the packet in flight has
        // no timeout at all.
        b.rto_timer = None;
        let err = b.check_invariants().unwrap_err();
        assert!(
            err.contains("1 packets outstanding and no rto entry armed"),
            "{err}"
        );

        // A finished flow has cancelled its entry and needs none.
        b.on_ack(&ack(0, 1_000, 12), Time::from_us(12));
        assert!(b.finished());
        b.check_invariants().unwrap();
    }

    #[test]
    fn audit_sees_a_disordered_window_and_a_doubly_held_sequence() {
        let mut b = SenderBase::new(params(5_000));
        let mut q = EventQueue::<Event>::new();
        let mut ctx = TransportCtx::for_test(&mut q, Time::ZERO, 0);
        b.arm_rto(&mut ctx);
        for _ in 0..4 {
            let d = b.try_send(1e9, Time::ZERO);
            b.on_sent(d, 1e9, Time::ZERO);
        }
        b.queue_rtx_range(1000, 2000);
        b.check_invariants().unwrap();

        // A sequence out of place: every binary search after it is wrong.
        let sorted = b.outstanding.clone();
        b.outstanding.0.swap(1, 2);
        let err = b.check_invariants().unwrap_err();
        assert!(
            err.contains("outstanding not strictly ascending: 3000 before 2000"),
            "{err}"
        );
        b.outstanding.0[1] = 0;
        let err = b.check_invariants().unwrap_err();
        assert!(err.contains("ascending: 0 before 0"), "{err}");
        b.outstanding = sorted;

        // In flight again while still queued: it would be sent twice and
        // counted in `inflight` once.
        b.outstanding.insert(1000);
        let err = b.check_invariants().unwrap_err();
        assert!(
            err.contains("seq 1000 both outstanding and queued for retransmission"),
            "{err}"
        );
    }

    #[test]
    fn window_gates_inflight() {
        let mut b = SenderBase::new(params(10_000));
        let cwnd = 3_000.0;
        for _ in 0..3 {
            let d = b.try_send(cwnd, Time::ZERO);
            let TrySend::Data { .. } = d else {
                panic!("expected send, got {d:?}")
            };
            b.on_sent(d, cwnd, Time::ZERO);
        }
        assert_eq!(b.inflight, 3_000);
        assert_eq!(b.try_send(cwnd, Time::ZERO), TrySend::Blocked);
        // An ACK opens the window again.
        b.on_ack(&ack(0, 1000, 12), Time::from_us(12));
        assert!(matches!(
            b.try_send(cwnd, Time::from_us(12)),
            TrySend::Data { seq: 3000, .. }
        ));
    }

    #[test]
    fn sub_mtu_window_paces() {
        let mut b = SenderBase::new(params(10_000));
        let cwnd = 150.0; // 100 Mbps at 12us srtt
        let d = b.try_send(cwnd, Time::ZERO);
        assert!(matches!(d, TrySend::Data { .. }));
        b.on_sent(d, cwnd, Time::ZERO);
        // Next send blocked by inflight until ACK, then paced.
        assert_eq!(b.try_send(cwnd, Time::from_us(1)), TrySend::Blocked);
        b.on_ack(&ack(0, 1000, 12), Time::from_us(12));
        match b.try_send(cwnd, Time::from_us(13)) {
            TrySend::NotBefore(t) => {
                // pace gap = srtt * mtu/cwnd ~ 12us * 6.67 = 80us.
                assert!(t > Time::from_us(60) && t < Time::from_us(120), "{t}");
            }
            other @ (TrySend::Data { .. }
            | TrySend::Probe
            | TrySend::Blocked
            | TrySend::Finished) => panic!("expected pacing delay, got {other:?}"),
        }
    }

    #[test]
    fn last_segment_is_runt() {
        let mut b = SenderBase::new(params(2_500));
        let cwnd = 1e9;
        for expect in [1000u32, 1000, 500] {
            let d = b.try_send(cwnd, Time::ZERO);
            let TrySend::Data { bytes, .. } = d else {
                panic!()
            };
            assert_eq!(bytes, expect);
            b.on_sent(d, cwnd, Time::ZERO);
        }
        assert_eq!(b.try_send(cwnd, Time::ZERO), TrySend::Blocked);
        b.on_ack(&ack(0, 1000, 12), Time::from_us(1));
        b.on_ack(&ack(1000, 1000, 12), Time::from_us(2));
        b.on_ack(&ack(2000, 500, 12), Time::from_us(3));
        assert!(b.finished());
        assert_eq!(b.try_send(cwnd, Time::from_us(4)), TrySend::Finished);
    }

    #[test]
    fn nack_triggers_selective_retransmit() {
        let mut b = SenderBase::new(params(5_000));
        let cwnd = 1e9;
        for _ in 0..5 {
            let d = b.try_send(cwnd, Time::ZERO);
            b.on_sent(d, cwnd, Time::ZERO);
        }
        // Packet at seq 1000 lost; receiver acks 2000 with nack [1000,2000).
        let a = AckEvent {
            nack: Some((1000, 2000)),
            ..ack(2000, 1000, 12)
        };
        b.on_ack(&a, Time::from_us(12));
        let d = b.try_send(cwnd, Time::from_us(13));
        assert!(matches!(
            d,
            TrySend::Data {
                seq: 1000,
                bytes: 1000
            }
        ));
        b.on_sent(d, cwnd, Time::from_us(13));
        assert_eq!(b.retransmits, 1);
        // Retransmitted packet gets acked normally: 1000 (seq 2000's ack)
        // + 1000 (the retransmitted seq 1000) acknowledged so far.
        b.on_ack(&ack(1000, 1000, 12), Time::from_us(25));
        assert_eq!(b.acked, 2000);
    }

    #[test]
    fn duplicate_acks_do_not_double_count() {
        let mut b = SenderBase::new(params(2_000));
        let cwnd = 1e9;
        let d = b.try_send(cwnd, Time::ZERO);
        b.on_sent(d, cwnd, Time::ZERO);
        b.on_ack(&ack(0, 1000, 12), Time::from_us(12));
        b.on_ack(&ack(0, 1000, 12), Time::from_us(13));
        assert_eq!(b.acked, 1000);
        assert_eq!(b.inflight, 0);
    }

    #[test]
    fn rto_requeues_everything_outstanding() {
        let mut b = SenderBase::new(params(3_000));
        let cwnd = 1e9;
        for _ in 0..3 {
            let d = b.try_send(cwnd, Time::ZERO);
            b.on_sent(d, cwnd, Time::ZERO);
        }
        b.rto_recover();
        assert_eq!(b.inflight, 0);
        assert_eq!(b.rtx_queue.len(), 3);
        let d = b.try_send(cwnd, Time::from_us(1));
        assert!(matches!(d, TrySend::Data { seq: 0, .. }));
    }

    #[test]
    fn ack_of_rtx_pending_packet_cancels_retransmit() {
        let mut b = SenderBase::new(params(3_000));
        let cwnd = 1e9;
        for _ in 0..3 {
            let d = b.try_send(cwnd, Time::ZERO);
            b.on_sent(d, cwnd, Time::ZERO);
        }
        b.queue_rtx_range(1000, 2000);
        // The ACK of the supposedly-lost packet arrives late.
        b.on_ack(&ack(1000, 1000, 12), Time::from_us(12));
        assert!(b.rtx_queue.is_empty());
        assert_eq!(b.acked, 1000);
    }

    #[test]
    fn srtt_tracks_delay() {
        let mut b = SenderBase::new(params(1_000_000));
        for _ in 0..100 {
            b.on_ack(&ack(u64::MAX - 1, 0, 40), Time::from_us(50));
        }
        assert!(b.srtt > Time::from_us(35), "srtt {}", b.srtt);
    }
}
