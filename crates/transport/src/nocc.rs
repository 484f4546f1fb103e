//! The "no congestion control" sender: blind line-rate injection, used for
//! the paper's "Physical* w/o CC" baseline (Fig 11, 14, 18). The window is
//! effectively unbounded, so the NIC drains at line rate and the network's
//! own mechanisms (PFC or drops) are the only backpressure.

use netsim::AckEvent;
use simcore::Time;

use crate::plain::WindowPolicy;
use crate::sender::SenderBase;

/// The blind line-rate window policy: a constant, effectively-infinite
/// window.
#[derive(Clone, Copy, Debug)]
pub struct NoCc;

/// Effectively-infinite window (bounded to keep arithmetic sane).
const BLAST_WINDOW: f64 = 1e15;

impl WindowPolicy for NoCc {
    fn on_ack(&mut self, _ack: &AckEvent, _base: &SenderBase, _now: Time) {}

    fn cwnd(&self) -> f64 {
        BLAST_WINDOW
    }

    /// Keep the window: there is none to shrink.
    fn on_rto(&mut self) {}

    fn check_invariants(&self) -> Result<(), String> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{ack, params};
    use crate::plain::CcTransport;
    use crate::sender::RTO_TOKEN;
    use netsim::{AckKind, Event, Transport, TransportCtx, TrySend};
    use simcore::EventQueue;

    fn mk(size: u64) -> CcTransport<NoCc> {
        CcTransport::new(SenderBase::new(params(size)), NoCc)
    }

    #[test]
    fn window_never_gates_new_data() {
        // The blast sender must be able to put the entire flow in flight
        // without a single ACK: only "everything sent" blocks it.
        let mut t = mk(10_000);
        assert!(t.cwnd_bytes() >= 1e12);
        let mut q = EventQueue::<Event>::new();
        t.on_start(&mut TransportCtx::for_test(&mut q, Time::ZERO, 0));
        for i in 0..10u64 {
            let d = t.try_send(Time::ZERO);
            assert!(
                matches!(d, TrySend::Data { seq, bytes: 1000 } if seq == i * 1000),
                "send {i}: {d:?}"
            );
            let mut ctx = TransportCtx::for_test(&mut q, Time::ZERO, 0);
            t.on_sent(d, &mut ctx);
        }
        assert_eq!(t.try_send(Time::ZERO), TrySend::Blocked);
        assert_eq!(t.base().inflight, 10_000);
        t.check_invariants().unwrap();
    }

    #[test]
    fn probe_acks_are_ignored() {
        let mut t = mk(5_000);
        let mut q = EventQueue::<Event>::new();
        let mut ctx = TransportCtx::for_test(&mut q, Time::from_us(1), 0);
        let echo = AckEvent {
            kind: AckKind::Probe,
            ..ack(0, 1000, 14)
        };
        t.on_ack(&echo, &mut ctx);
        assert_eq!(t.base().acked, 0);
    }

    #[test]
    fn finishes_and_cancels_rto() {
        let mut t = mk(3_000);
        let mut q = EventQueue::<Event>::new();
        {
            let mut ctx = TransportCtx::for_test(&mut q, Time::ZERO, 0);
            t.on_start(&mut ctx);
        }
        assert_eq!(q.len(), 1, "on_start arms the RTO");
        for _ in 0..3 {
            let d = t.try_send(Time::ZERO);
            let mut ctx = TransportCtx::for_test(&mut q, Time::ZERO, 0);
            t.on_sent(d, &mut ctx);
        }
        for i in 0..3u64 {
            let mut ctx = TransportCtx::for_test(&mut q, Time::from_us(14 + i), 0);
            t.on_ack(&ack(i * 1000, 1000, 14), &mut ctx);
        }
        assert!(t.is_finished());
        assert_eq!(q.len(), 0, "final ACK cancels the RTO");
        t.check_invariants().unwrap();
    }

    #[test]
    fn rto_requeues_outstanding_and_retransmits() {
        let mut t = mk(2_000);
        let mut q = EventQueue::<Event>::new();
        for _ in 0..2 {
            let d = t.try_send(Time::ZERO);
            let mut ctx = TransportCtx::for_test(&mut q, Time::ZERO, 0);
            t.on_sent(d, &mut ctx);
        }
        // No ACKs by the time the (backed-off) RTO fires.
        let late = Time::from_ms(10);
        let mut ctx = TransportCtx::for_test(&mut q, late, 0);
        t.on_timer(RTO_TOKEN, &mut ctx);
        let d = t.try_send(late);
        assert!(
            matches!(
                d,
                TrySend::Data {
                    seq: 0,
                    bytes: 1000
                }
            ),
            "{d:?}"
        );
        let mut ctx = TransportCtx::for_test(&mut q, late, 0);
        t.on_sent(d, &mut ctx);
        assert_eq!(t.retransmits(), 1);
        t.check_invariants().unwrap();
    }
}
