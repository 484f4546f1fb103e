//! The one window-based transport: [`SenderBase`] mechanics plus a
//! [`WindowPolicy`]. Plain Swift and LEDBAT ("Swift with physical
//! priority" in the paper's comparisons), weighted Swift, DCTCP/D2TCP, HPCC
//! and the no-CC blaster all run in this shell and differ only in the
//! policy — one testbed, everything but the algorithm shared.

use netsim::{AckEvent, AckKind, Transport, TransportCtx, TrySend};
use prioplus::DelayCc;
use simcore::Time;

use crate::sender::{SenderBase, RTO_TOKEN};

/// A congestion-window policy: all that distinguishes one window-based
/// transport from another once [`SenderBase`] owns sequencing, pacing,
/// retransmission and the RTO timer.
pub trait WindowPolicy {
    /// Digest one data ACK; `base` has already accounted for it.
    fn on_ack(&mut self, ack: &AckEvent, base: &SenderBase, now: Time);

    /// Current congestion window in bytes.
    fn cwnd(&self) -> f64;

    /// Window reaction to a retransmission timeout (every outstanding
    /// packet has just been requeued): collapse, or keep the window.
    fn on_rto(&mut self);

    /// Audit hook: the first violated internal invariant, if any.
    fn check_invariants(&self) -> Result<(), String>;
}

/// Every delay CC PrioPlus can wrap is also a plain window policy.
impl<C: DelayCc> WindowPolicy for C {
    fn on_ack(&mut self, ack: &AckEvent, _base: &SenderBase, now: Time) {
        DelayCc::on_ack(self, ack.delay, ack.acked_bytes, now);
    }

    fn cwnd(&self) -> f64 {
        DelayCc::cwnd(self)
    }

    /// Keep the window: the delay signal shrinks it, not the timeout.
    fn on_rto(&mut self) {}

    fn check_invariants(&self) -> Result<(), String> {
        DelayCc::check_invariants(self)
    }
}

/// Window-based transport delegating congestion control to a
/// [`WindowPolicy`].
#[derive(Debug)]
pub struct CcTransport<P: WindowPolicy> {
    base: SenderBase,
    cc: P,
}

impl<P: WindowPolicy> CcTransport<P> {
    /// New transport for the flow described by `base`'s parameters.
    pub fn new(base: SenderBase, cc: P) -> Self {
        CcTransport { base, cc }
    }

    /// Borrow the sender base (diagnostics).
    pub fn base(&self) -> &SenderBase {
        &self.base
    }
}

impl<P: WindowPolicy> Transport for CcTransport<P> {
    fn on_start(&mut self, ctx: &mut TransportCtx<'_>) {
        self.base.arm_rto(ctx);
    }

    fn on_ack(&mut self, ack: &AckEvent, ctx: &mut TransportCtx<'_>) {
        if ack.kind != AckKind::Data {
            return;
        }
        self.base.on_ack(ack, ctx.now);
        self.cc.on_ack(ack, &self.base, ctx.now);
        self.base.rearm_rto_after_ack(ctx);
    }

    fn on_timer(&mut self, token: u64, ctx: &mut TransportCtx<'_>) {
        if token == RTO_TOKEN && self.base.on_rto_timer(false, ctx) {
            self.cc.on_rto();
        }
    }

    fn try_send(&mut self, now: Time) -> TrySend {
        self.base.try_send(self.cc.cwnd(), now)
    }

    fn on_sent(&mut self, sent: TrySend, ctx: &mut TransportCtx<'_>) {
        self.base.on_sent(sent, self.cc.cwnd(), ctx.now);
    }

    fn is_finished(&self) -> bool {
        self.base.finished()
    }

    fn cwnd_bytes(&self) -> f64 {
        self.cc.cwnd()
    }

    fn retransmits(&self) -> u64 {
        self.base.retransmits
    }

    fn check_invariants(&self) -> Result<(), String> {
        self.base.check_invariants()?;
        self.cc.check_invariants()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dctcp::{D2tcpConfig, DctcpCc};
    use crate::fixtures::{ack, params};
    use crate::hpcc::{HpccCc, HpccConfig};
    use netsim::Event;
    use prioplus::cc::SimpleAimd;
    use simcore::EventQueue;

    fn mk(size: u64, init_cwnd: f64) -> CcTransport<SimpleAimd> {
        let cc = SimpleAimd::new(Time::from_us(16), 1000.0, init_cwnd, 1e9);
        CcTransport::new(SenderBase::new(params(size)), cc)
    }

    #[test]
    fn cc_window_gates_sends() {
        let mut t = mk(10_000, 2_000.0);
        let mut q = EventQueue::<Event>::new();
        for _ in 0..2 {
            let d = t.try_send(Time::ZERO);
            assert!(matches!(d, TrySend::Data { .. }), "{d:?}");
            let mut ctx = TransportCtx::for_test(&mut q, Time::ZERO, 0);
            t.on_sent(d, &mut ctx);
        }
        assert_eq!(t.try_send(Time::ZERO), TrySend::Blocked);
    }

    #[test]
    fn below_target_ack_grows_window() {
        let mut t = mk(1_000_000, 10_000.0);
        let mut q = EventQueue::<Event>::new();
        let d = t.try_send(Time::ZERO);
        let mut ctx = TransportCtx::for_test(&mut q, Time::ZERO, 0);
        t.on_sent(d, &mut ctx);
        let w0 = t.cwnd_bytes();
        let mut ctx = TransportCtx::for_test(&mut q, Time::from_us(12), 0);
        t.on_ack(&ack(0, 1000, 12), &mut ctx);
        assert!(t.cwnd_bytes() > w0);
        t.check_invariants().unwrap();
    }

    #[test]
    fn window_collapse_stops_at_cc_floor_and_still_paces() {
        // Persistent congestion drives the window to the CC's floor (64 B),
        // but the flow must keep a minimum sending rate: one paced sub-MTU
        // packet at a time, never a permanent Blocked.
        let mut t = mk(1_000_000, 10_000.0);
        let mut q = EventQueue::<Event>::new();
        let mut now = Time::ZERO;
        for _ in 0..100 {
            now += Time::from_ms(1);
            let d = t.try_send(now);
            if let TrySend::Data { seq: s, bytes } = d {
                let mut ctx = TransportCtx::for_test(&mut q, now, 0);
                t.on_sent(d, &mut ctx);
                // Huge delay: way above the 16us target.
                let mut ctx = TransportCtx::for_test(&mut q, now, 0);
                t.on_ack(&ack(s, bytes, 500), &mut ctx);
            }
        }
        assert_eq!(t.cwnd_bytes(), 64.0, "AIMD floor");
        t.check_invariants().unwrap();
        // At the floor (< MTU) with nothing in flight the sender is paced,
        // not dead: it either sends now or names a concrete next time.
        match t.try_send(now + Time::from_ms(100)) {
            TrySend::Data { .. } | TrySend::NotBefore(_) => {}
            other @ (TrySend::Probe | TrySend::Blocked | TrySend::Finished) => {
                panic!("floor window must still pace packets, got {other:?}")
            }
        }
    }

    #[test]
    fn window_growth_is_capped_at_max_cwnd() {
        let cc = SimpleAimd::new(Time::from_us(16), 1_000_000.0, 90_000.0, 100_000.0);
        let mut t = CcTransport::new(SenderBase::new(params(100_000_000)), cc);
        let mut q = EventQueue::<Event>::new();
        for i in 0..100u64 {
            let mut ctx = TransportCtx::for_test(&mut q, Time::from_us(12 + i), 0);
            // Acks for a packet we never sent just exercise the CC path.
            t.on_ack(&ack(0, 1000, 12), &mut ctx);
        }
        assert_eq!(t.cwnd_bytes(), 100_000.0);
        t.check_invariants().unwrap();
    }

    #[test]
    fn rto_reaction_is_the_policys_answer() {
        // One packet in flight and no ACK by a (generous) deadline: the
        // shell requeues it whatever the policy; the window is the policy's.
        fn cwnd_after_rto<P: WindowPolicy>(cc: P) -> f64 {
            let mut t = CcTransport::new(SenderBase::new(params(10_000)), cc);
            let mut q = EventQueue::<Event>::new();
            let d = t.try_send(Time::ZERO);
            let mut ctx = TransportCtx::for_test(&mut q, Time::ZERO, 0);
            t.on_sent(d, &mut ctx);
            let mut ctx = TransportCtx::for_test(&mut q, Time::from_ms(10), 0);
            t.on_timer(RTO_TOKEN, &mut ctx);
            assert_eq!(t.base().rtx_queue.len(), 1);
            t.check_invariants().unwrap();
            t.cwnd_bytes()
        }
        let aimd = SimpleAimd::new(Time::from_us(16), 1000.0, 10_000.0, 1e9);
        assert_eq!(cwnd_after_rto(aimd), 10_000.0, "delay CCs keep the window");
        let dctcp = DctcpCc::new(D2tcpConfig::dctcp(1000, 10_000.0));
        assert_eq!(cwnd_after_rto(dctcp), 1_000.0, "DCTCP collapses to floor");
        let hpcc = HpccCc::new(HpccConfig::new(Time::from_us(12), 150_000.0));
        assert_eq!(cwnd_after_rto(hpcc), 64.0, "HPCC collapses to floor");
    }
}
