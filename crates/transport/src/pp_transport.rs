//! The PrioPlus-enhanced transport: binds the [`prioplus`] state machine to
//! the simulator's transport interface — probing timers, suspension, and
//! delegation to the wrapped delay CC. This is the counterpart of the
//! paper's 79-line DPDK integration.

use netsim::{AckEvent, AckKind, Transport, TransportCtx, TrySend};
use prioplus::{Action, DelayCc, PrioPlus, PrioPlusConfig};
use simcore::event::ScheduledId;
use simcore::Time;

use crate::sender::{SenderBase, RTO_TOKEN};

/// Timer token for a scheduled probe transmission.
pub const PROBE_TOKEN: u64 = 0x9205E;
/// Timer token for probe-loss recovery ("probe losses are recovered through
/// the original CC's RTO", §4.2.1).
pub const PROBE_RTO_TOKEN: u64 = 0x9205F;

/// How long a probe's echo may take before the probe is sent again: three
/// times the last measured delay plus eight base RTTs, in integer
/// picoseconds.
fn probe_rto(last_delay: Time, base_rtt: Time) -> Time {
    Time::from_ps(3 * last_delay.as_ps() + 8 * base_rtt.as_ps())
}

/// A transport enhanced with PrioPlus virtual priority.
#[derive(Debug)]
pub struct PrioPlusTransport<C: DelayCc> {
    base: SenderBase,
    pp: PrioPlus<C>,
    /// A probe should be handed to the NIC at the next pull.
    probe_armed: bool,
    probe_timer: Option<ScheduledId>,
    probe_rto_timer: Option<ScheduledId>,
    /// Delay observed in the most recent measurement (for probe-RTO
    /// rescheduling).
    last_delay: Time,
}

impl<C: DelayCc> PrioPlusTransport<C> {
    /// Wrap `cc` with PrioPlus using `cfg`.
    pub fn new(base: SenderBase, cfg: PrioPlusConfig, cc: C) -> Self {
        let last_delay = cfg.base_rtt;
        PrioPlusTransport {
            base,
            pp: PrioPlus::new(cfg, cc),
            probe_armed: false,
            probe_timer: None,
            probe_rto_timer: None,
            last_delay,
        }
    }

    /// Borrow the PrioPlus state machine (diagnostics).
    pub fn prioplus(&self) -> &PrioPlus<C> {
        &self.pp
    }

    fn schedule_probe(&mut self, delay_from_now: Time, ctx: &mut TransportCtx<'_>) {
        if let Some(id) = self.probe_timer.take() {
            ctx.cancel_timer(id);
        }
        if delay_from_now == Time::ZERO {
            self.probe_armed = true;
        } else {
            self.probe_timer = Some(ctx.schedule_timer(ctx.now + delay_from_now, PROBE_TOKEN));
        }
    }

    fn handle_action(&mut self, action: Action, ctx: &mut TransportCtx<'_>) {
        match action {
            Action::Continue => {}
            Action::StopAndProbe { probe_in } | Action::ProbeAgain { probe_in } => {
                self.schedule_probe(probe_in, ctx);
            }
            Action::Resume => {
                // RTT-round tracking restarts; the host will poke us.
                self.base.arm_rto(ctx);
            }
        }
    }
}

impl<C: DelayCc> Transport for PrioPlusTransport<C> {
    fn on_start(&mut self, ctx: &mut TransportCtx<'_>) {
        let action = self.pp.on_flow_start();
        self.handle_action(action, ctx);
        self.base.arm_rto(ctx);
    }

    fn on_ack(&mut self, ack: &AckEvent, ctx: &mut TransportCtx<'_>) {
        self.last_delay = ack.delay;
        match ack.kind {
            AckKind::Data => {
                self.base.on_ack(ack, ctx.now);
                let action = self.pp.on_data_ack(
                    ack.delay,
                    ack.acked_seq,
                    self.base.snd_nxt,
                    ack.acked_bytes,
                    ctx.now,
                );
                self.handle_action(action, ctx);
                self.base.rearm_rto_after_ack(ctx);
            }
            AckKind::Probe => {
                self.base.last_ack = ctx.now;
                if let Some(id) = self.probe_rto_timer.take() {
                    ctx.cancel_timer(id);
                }
                let action = self.pp.on_probe_ack(ack.delay, self.base.snd_nxt);
                self.handle_action(action, ctx);
            }
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut TransportCtx<'_>) {
        match token {
            PROBE_TOKEN => {
                self.probe_timer = None;
                if self.pp.suspended() {
                    self.probe_armed = true;
                }
            }
            PROBE_RTO_TOKEN => {
                self.probe_rto_timer = None;
                if self.pp.suspended() && !self.probe_armed && self.probe_timer.is_none() {
                    // Probe (or its echo) lost: retry immediately.
                    self.probe_armed = true;
                }
            }
            RTO_TOKEN => {
                // The wrapped delay CC keeps its window across a timeout.
                self.base.on_rto_timer(self.pp.suspended(), ctx);
            }
            _ => {}
        }
    }

    fn try_send(&mut self, now: Time) -> TrySend {
        if self.probe_armed {
            return TrySend::Probe;
        }
        if self.pp.suspended() {
            if self.base.finished() {
                return TrySend::Finished;
            }
            return TrySend::Blocked;
        }
        self.base.try_send(self.pp.cwnd(), now)
    }

    fn on_sent(&mut self, sent: TrySend, ctx: &mut TransportCtx<'_>) {
        match sent {
            TrySend::Probe => {
                self.probe_armed = false;
                // Probe-loss recovery: if the echo does not come back within
                // a deadline scaled to the worst observed queueing, retry
                // ("probe losses are recovered through the original CC's
                // RTO", §4.2.1).
                if let Some(id) = self.probe_rto_timer.take() {
                    ctx.cancel_timer(id);
                }
                let deadline = probe_rto(self.last_delay, self.pp.config().base_rtt);
                self.probe_rto_timer =
                    Some(ctx.schedule_timer(ctx.now + deadline, PROBE_RTO_TOKEN));
            }
            data @ TrySend::Data { .. } => {
                self.base.on_sent(data, self.pp.cwnd(), ctx.now);
            }
            TrySend::NotBefore(_) | TrySend::Blocked | TrySend::Finished => {}
        }
    }

    fn is_finished(&self) -> bool {
        self.base.finished()
    }

    fn cwnd_bytes(&self) -> f64 {
        self.pp.cwnd()
    }

    fn retransmits(&self) -> u64 {
        self.base.retransmits
    }

    fn check_invariants(&self) -> Result<(), String> {
        self.base.check_invariants()?;
        self.pp.cc().check_invariants()?;
        if !self.pp.cwnd().is_finite() || self.pp.cwnd() < 0.0 {
            return Err(format!("prioplus cwnd {} invalid", self.pp.cwnd()));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{ack, params};
    use netsim::{Event, FlowParams};
    use prioplus::cc::SimpleAimd;
    use simcore::{EventQueue, Rate};

    fn cfg(probe_before_start: bool) -> PrioPlusConfig {
        PrioPlusConfig {
            d_target: Time::from_us(16),
            d_limit: Time::from_us_f64(18.4),
            base_rtt: Time::from_us(12),
            near_base_eps: Time::from_us_f64(0.8),
            w_ls: 150_000.0,
            line_rate: Rate::from_gbps(100),
            probe_before_start,
            mtu: 1000,
            seed: 7,
            dual_rtt: true,
        }
    }

    fn mk(probe_before_start: bool) -> PrioPlusTransport<SimpleAimd> {
        let cc = SimpleAimd::new(Time::from_us(16), 1000.0, 10_000.0, 1e9);
        PrioPlusTransport::new(
            SenderBase::new(params(10_000_000)),
            cfg(probe_before_start),
            cc,
        )
    }

    fn data_ack(seq: u64, delay_us: u64) -> AckEvent {
        ack(seq, 1000, delay_us)
    }

    fn probe_ack(delay_us: u64) -> AckEvent {
        AckEvent {
            kind: AckKind::Probe,
            ..ack(0, 0, delay_us)
        }
    }

    /// [`SenderBase::rto`] and [`probe_rto`] are integer picoseconds where
    /// they were `Time::mul_f64` products. Over a grid of srtt (or last
    /// delay) and base RTT from 1 ps to past 2^46 ps, and every backoff,
    /// both equal the float expressions they replaced, so no timer moves.
    #[test]
    fn integer_timeouts_equal_the_float_products_they_replaced() {
        let grid: Vec<u64> = (0..=46)
            .step_by(2)
            .flat_map(|k| [1u64 << k, (1u64 << k) | 0x2_4b7d])
            .collect();
        for &a in &grid {
            for &b in &grid {
                let (a, b) = (Time::from_ps(a), Time::from_ps(b));
                assert_eq!(probe_rto(a, b), a.mul_f64(3.0) + b.mul_f64(8.0));
                let mut s = SenderBase::new(FlowParams {
                    base_rtt: b,
                    ..params(1_000)
                });
                s.srtt = a;
                let base = (a.mul_f64(4.0) + b.mul_f64(8.0)).max(Time::from_us(100));
                for backoff in 0..=8 {
                    s.rto_backoff = backoff;
                    let old = base.mul_f64((1u64 << backoff) as f64);
                    assert_eq!(s.rto(), old, "srtt {a}, base_rtt {b}, backoff {backoff}");
                }
            }
        }
    }

    #[test]
    fn probe_before_start_pulls_a_probe_first() {
        let mut t = mk(true);
        let mut q = EventQueue::<Event>::new();
        {
            let mut ctx = TransportCtx::for_test(&mut q, Time::ZERO, 0);
            t.on_start(&mut ctx);
        }
        assert!(t.prioplus().suspended());
        assert_eq!(t.try_send(Time::ZERO), TrySend::Probe);
        // Confirming the probe send disarms it and arms probe-loss recovery.
        let mut ctx = TransportCtx::for_test(&mut q, Time::ZERO, 0);
        t.on_sent(TrySend::Probe, &mut ctx);
        assert_eq!(t.try_send(Time::from_us(1)), TrySend::Blocked);
        t.check_invariants().unwrap();
    }

    #[test]
    fn empty_path_probe_echo_resumes_with_linear_start() {
        let mut t = mk(true);
        let mut q = EventQueue::<Event>::new();
        let mut ctx = TransportCtx::for_test(&mut q, Time::ZERO, 0);
        t.on_start(&mut ctx);
        t.on_sent(TrySend::Probe, &mut ctx);
        // Echo at the probe base RTT: the path is empty.
        let mut ctx = TransportCtx::for_test(&mut q, Time::from_us(11), 0);
        t.on_ack(&probe_ack(12), &mut ctx);
        assert!(!t.prioplus().suspended());
        assert_eq!(t.cwnd_bytes(), 150_000.0, "linear-start window W_LS");
        assert!(matches!(
            t.try_send(Time::from_us(11)),
            TrySend::Data { .. }
        ));
        t.check_invariants().unwrap();
    }

    #[test]
    fn contended_channel_probe_echo_resumes_with_one_packet() {
        let mut t = mk(true);
        let mut q = EventQueue::<Event>::new();
        let mut ctx = TransportCtx::for_test(&mut q, Time::ZERO, 0);
        t.on_start(&mut ctx);
        t.on_sent(TrySend::Probe, &mut ctx);
        // Delay inside (base, D_limit): same-priority traffic present —
        // conservative resume with exactly one MTU (§4.4).
        let mut ctx = TransportCtx::for_test(&mut q, Time::from_us(15), 0);
        t.on_ack(&probe_ack(15), &mut ctx);
        assert!(!t.prioplus().suspended());
        assert_eq!(t.cwnd_bytes(), 1_000.0);
        t.check_invariants().unwrap();
    }

    #[test]
    fn two_over_limit_acks_suspend_and_probe_timer_arms_probe() {
        let mut t = mk(false);
        let mut q = EventQueue::<Event>::new();
        let mut ctx = TransportCtx::for_test(&mut q, Time::ZERO, 0);
        t.on_start(&mut ctx);
        assert!(!t.prioplus().suspended());
        // Put two packets in flight so the ACKs hit outstanding sequences.
        for _ in 0..2 {
            let d = t.try_send(Time::ZERO);
            let mut ctx = TransportCtx::for_test(&mut q, Time::ZERO, 0);
            t.on_sent(d, &mut ctx);
        }
        // One over-D_limit sample is filtered noise; two suspend the flow.
        let mut ctx = TransportCtx::for_test(&mut q, Time::from_us(20), 0);
        t.on_ack(&data_ack(0, 25), &mut ctx);
        assert!(!t.prioplus().suspended());
        let mut ctx = TransportCtx::for_test(&mut q, Time::from_us(21), 0);
        t.on_ack(&data_ack(1000, 25), &mut ctx);
        assert!(t.prioplus().suspended());
        assert_eq!(t.try_send(Time::from_us(21)), TrySend::Blocked);
        // The collision-avoidance delay elapses; the timer arms the probe.
        let mut ctx = TransportCtx::for_test(&mut q, Time::from_us(60), 0);
        t.on_timer(PROBE_TOKEN, &mut ctx);
        assert_eq!(t.try_send(Time::from_us(60)), TrySend::Probe);
        t.check_invariants().unwrap();
    }

    #[test]
    fn lost_probe_is_retried_after_probe_rto() {
        let mut t = mk(true);
        let mut q = EventQueue::<Event>::new();
        let mut ctx = TransportCtx::for_test(&mut q, Time::ZERO, 0);
        t.on_start(&mut ctx);
        t.on_sent(TrySend::Probe, &mut ctx);
        assert_eq!(t.try_send(Time::from_us(1)), TrySend::Blocked);
        // No echo: the probe-RTO fires and re-arms the probe.
        let mut ctx = TransportCtx::for_test(&mut q, Time::from_ms(1), 0);
        t.on_timer(PROBE_RTO_TOKEN, &mut ctx);
        assert_eq!(t.try_send(Time::from_ms(1)), TrySend::Probe);
        t.check_invariants().unwrap();
    }

    #[test]
    fn still_contended_echo_keeps_probing() {
        let mut t = mk(true);
        let mut q = EventQueue::<Event>::new();
        let mut ctx = TransportCtx::for_test(&mut q, Time::ZERO, 0);
        t.on_start(&mut ctx);
        t.on_sent(TrySend::Probe, &mut ctx);
        // Echo still above D_limit: stay suspended, another probe is
        // scheduled (timer or armed, depending on the jitter draw).
        let mut ctx = TransportCtx::for_test(&mut q, Time::from_us(30), 0);
        t.on_ack(&probe_ack(30), &mut ctx);
        assert!(t.prioplus().suspended());
        assert_ne!(t.try_send(Time::from_us(30)), TrySend::Finished);
        t.check_invariants().unwrap();
    }
}
