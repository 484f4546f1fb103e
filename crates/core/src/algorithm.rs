//! The PrioPlus state machine (Algorithm 1).
//!
//! The algorithm is expressed as a pure state machine so it can be unit- and
//! property-tested in isolation and bound to any transport. Inputs are delay
//! measurements (data ACKs and probe echoes); outputs are [`Action`]s the
//! transport executes (suspend + schedule probe, resume). Window and
//! additive-increase mutations are applied directly to the wrapped
//! [`DelayCc`].
//!
//! Mapping to Algorithm 1 in the paper:
//!
//! | Lines | Mechanism | Here |
//! |---|---|---|
//! | 2–6 | RTT rounds, dual-RTT toggle, end-of-adaptive-increase | [`PrioPlus::on_data_ack`] |
//! | 7–10 | 2-consecutive filter, cardinality estimate, stop + probe | same |
//! | 12–16 | linear start + countdown | same |
//! | 17–19 | dual-RTT adaptive increase | same |
//! | 21 | `OriginalCC(delay)` | [`DelayCc::on_ack`] |
//! | 22–24 | probe with collision avoidance | `PrioPlus::schedule_probe` |
//! | 25–34 | probe echo handling, resume | [`PrioPlus::on_probe_ack`] |
//!
//! One documented deviation: line 15 of the printed pseudocode reads
//! `#flow ← #flow · 2`, but §4.3.1's prose states the estimate is *halved*
//! when the countdown expires while the queue stays empty (and the probe
//! path, line 30, halves). Doubling would make flows *less* aggressive
//! exactly when the estimate is known to be too high, so we implement the
//! halving described in the prose.

use simcore::{Rate, SimRng, Time};

use crate::cc::DelayCc;

/// Static configuration of one PrioPlus flow.
#[derive(Clone, Copy, Debug)]
pub struct PrioPlusConfig {
    /// `D_target` of the flow's channel.
    pub d_target: Time,
    /// `D_limit` of the flow's channel.
    pub d_limit: Time,
    /// Base (no-queue) RTT.
    pub base_rtt: Time,
    /// Tolerance for the `delay == BaseRtt` comparison: the queue is deemed
    /// empty when `delay <= base_rtt + near_base_eps`. Operators set this to
    /// the same noise percentile used for the channel-width `B` allowance.
    pub near_base_eps: Time,
    /// Linear-start window step `W_LS` in bytes per RTT (§4.2.2, §4.4).
    pub w_ls: f64,
    /// Line rate of the contended path (for cardinality estimation).
    pub line_rate: Rate,
    /// Whether to probe before the first data transmission (recommended for
    /// middle/low priorities; high priorities start sending directly, §4.4).
    pub probe_before_start: bool,
    /// MTU in bytes (probe-resume conservative window = 1 packet, §4.4).
    pub mtu: u32,
    /// Seed for the collision-avoidance jitter.
    pub seed: u64,
    /// Run the adaptive increase every *two* RTTs (§4.2.3). `false` is the
    /// Fig 10c ablation: adaptive increase every RTT, which double-applies
    /// the step before its effect is observable and overshoots.
    pub dual_rtt: bool,
}

impl PrioPlusConfig {
    /// Base bandwidth-delay product in bytes.
    pub fn base_bdp(&self) -> f64 {
        self.line_rate.bdp_bytes(self.base_rtt) as f64
    }
}

/// What the transport must do after feeding a measurement to the algorithm.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Action {
    /// Keep going (window changes, if any, were applied to the CC).
    Continue,
    /// Higher-priority traffic detected: stop transmitting data and send one
    /// probe after the given delay (relative to now).
    StopAndProbe {
        /// Wait this long before sending the probe.
        probe_in: Time,
    },
    /// Still contended: send the next probe after the given delay.
    ProbeAgain {
        /// Wait this long before sending the probe.
        probe_in: Time,
    },
    /// Contention is over: resume data transmission (the window has been
    /// set appropriately).
    Resume,
}

/// The PrioPlus enhancement wrapped around a delay-based CC.
#[derive(Clone, Debug)]
pub struct PrioPlus<C: DelayCc> {
    cfg: PrioPlusConfig,
    cc: C,
    rng: SimRng,
    /// Estimated number of active same-priority flows (`#flow`), ≥ 1.
    nflow: f64,
    /// RTTs of observed-empty queue before the cardinality estimate is
    /// halved.
    countdown: u64,
    /// Consecutive above-`D_limit` measurements (the noise filter, §4.3.1).
    consec: u32,
    /// Sequence marking the end of the current RTT round.
    rtt_end_seq: u64,
    /// An RTT round boundary passed since the last window adjustment.
    rtt_pass: bool,
    /// Toggles every RTT; adaptive increase runs only when `true` (§4.2.3).
    dual_rtt_pass: bool,
    /// Data transmission is suspended (probing).
    suspended: bool,
    started: bool,
}

impl<C: DelayCc> PrioPlus<C> {
    /// Wrap `cc` (already configured with `D_target` as its target delay and
    /// target scaling disabled) with PrioPlus behavior.
    pub fn new(cfg: PrioPlusConfig, cc: C) -> Self {
        assert!(cfg.d_target > cfg.base_rtt, "D_target must exceed base RTT");
        assert!(cfg.d_limit > cfg.d_target, "D_limit must exceed D_target");
        assert!(cfg.w_ls > 0.0);
        let rng = SimRng::new(cfg.seed);
        PrioPlus {
            cfg,
            cc,
            rng,
            nflow: 1.0,
            countdown: 0,
            consec: 0,
            rtt_end_seq: 0,
            rtt_pass: false,
            dual_rtt_pass: false,
            suspended: false,
            started: false,
        }
    }

    /// Access the wrapped CC.
    pub fn cc(&self) -> &C {
        &self.cc
    }

    /// Mutable access to the wrapped CC (transport-layer integration).
    pub fn cc_mut(&mut self) -> &mut C {
        &mut self.cc
    }

    /// Configuration.
    pub fn config(&self) -> &PrioPlusConfig {
        &self.cfg
    }

    /// Estimated flow cardinality (diagnostics).
    pub fn nflow(&self) -> f64 {
        self.nflow
    }

    /// True while data transmission is suspended (probing).
    pub fn suspended(&self) -> bool {
        self.suspended
    }

    /// Current congestion window in bytes.
    pub fn cwnd(&self) -> f64 {
        self.cc.cwnd()
    }

    /// Flow start (§4.4): high-priority / latency-sensitive flows linear-
    /// start immediately; others probe first.
    pub fn on_flow_start(&mut self) -> Action {
        self.started = true;
        if self.cfg.probe_before_start {
            self.suspended = true;
            // First probe goes out immediately (no backlog estimate yet).
            Action::StopAndProbe {
                probe_in: Time::ZERO,
            }
        } else {
            self.cc.set_cwnd(self.cfg.w_ls);
            Action::Continue
        }
    }

    /// True when `delay` is indistinguishable from the base RTT (empty
    /// queue).
    fn near_base(&self, delay: Time) -> bool {
        delay <= self.cfg.base_rtt + self.cfg.near_base_eps
    }

    /// Probe scheduling with collision avoidance (Algorithm 1 lines 22–24):
    /// wait `(delay - D_target) + random(0..BaseRtt)`.
    fn schedule_probe(&mut self, delay: Time) -> Time {
        let backlog = delay.saturating_sub(self.cfg.d_target);
        let jitter = Time::from_ps(self.rng.below(self.cfg.base_rtt.as_ps().max(1)));
        backlog + jitter
    }

    /// Process the ACK of a data packet (Algorithm 1, `NewAck`).
    ///
    /// * `delay` — measured delay, normalized to the data base RTT;
    /// * `acked_seq` — sequence of the acknowledged packet;
    /// * `snd_nxt` — the transport's next-to-send sequence;
    /// * `acked_bytes` — payload bytes acknowledged;
    /// * `now` — current time.
    pub fn on_data_ack(
        &mut self,
        delay: Time,
        acked_seq: u64,
        snd_nxt: u64,
        acked_bytes: u32,
        now: Time,
    ) -> Action {
        if self.suspended {
            // Residual ACKs of data that was in flight when we stopped keep
            // flowing through lines 7–10: they carry the *largest* delays of
            // the backlog we created, so they are the best cardinality
            // samples, and they push the pending probe out to when the
            // queue can actually have drained (ScheduleProbe(delay)).
            // Resumption itself is owned by the probe path.
            if delay >= self.cfg.d_limit {
                self.consec += 1;
                if self.consec >= 2 {
                    self.consec = 0;
                    if self.cc.cwnd() >= 2.0 * self.cfg.mtu as f64 {
                        let inflight = self.cfg.line_rate.bytes_in(delay) as f64;
                        let est = inflight / self.cc.cwnd().max(1.0);
                        self.nflow = self.nflow.max(est).max(1.0);
                    }
                    self.cc.set_ai(self.cc.ai_origin() / self.nflow);
                    self.countdown = (self.cfg.base_bdp() / self.cfg.w_ls).ceil() as u64;
                    return Action::ProbeAgain {
                        probe_in: self.schedule_probe(delay),
                    };
                }
            } else {
                self.consec = 0;
            }
            return Action::Continue;
        }
        // Lines 2–6: RTT round bookkeeping.
        if acked_seq >= self.rtt_end_seq {
            self.rtt_pass = true;
            self.rtt_end_seq = snd_nxt;
            self.dual_rtt_pass = !self.dual_rtt_pass;
            if !self.dual_rtt_pass || !self.cfg.dual_rtt {
                // End of an adaptive-increase round: restore the AI step.
                // (In the per-RTT ablation every round ends immediately.)
                self.cc.set_ai(self.cc.ai_origin() / self.nflow);
            }
        }
        // Lines 7–10: the 2-consecutive filter and suspension.
        if delay >= self.cfg.d_limit {
            self.consec += 1;
            if self.consec >= 2 {
                self.consec = 0;
                // Delay-based flow cardinality estimation (§4.3.1):
                // inflight = delay * LineRate; #flow ~= inflight / cwnd.
                // The formula assumes this flow's window approximates the
                // per-flow fair share; a flow squeezed to a sub-MTU window
                // has no information about the peer count and would produce
                // a runaway overestimate (and with the `max` ratchet, a
                // permanently crippled AI step), so such samples are
                // skipped.
                if self.cc.cwnd() >= 2.0 * self.cfg.mtu as f64 {
                    let inflight = self.cfg.line_rate.bytes_in(delay) as f64;
                    let est = inflight / self.cc.cwnd().max(1.0);
                    self.nflow = self.nflow.max(est).max(1.0);
                }
                self.cc.set_ai(self.cc.ai_origin() / self.nflow);
                self.countdown = (self.cfg.base_bdp() / self.cfg.w_ls).ceil() as u64;
                self.suspended = true;
                return Action::StopAndProbe {
                    probe_in: self.schedule_probe(delay),
                };
            }
        } else {
            self.consec = 0;
        }
        // Lines 12–19: once per RTT, below-target window management.
        if delay <= self.cfg.d_target && self.rtt_pass {
            self.rtt_pass = false;
            if self.near_base(delay) {
                // Linear start (§4.2.2): accelerate by W_LS/#flow per RTT.
                self.cc
                    .set_cwnd(self.cc.cwnd() + self.cfg.w_ls / self.nflow);
                self.tick_countdown();
            } else if self.dual_rtt_pass || !self.cfg.dual_rtt {
                // Dual-RTT adaptive increase (§4.2.3): raise delay to
                // D_target within one RTT, capped at cwnd/2.
                let cwnd = self.cc.cwnd();
                let gap = (self.cfg.d_target.as_ps() as f64 - delay.as_ps() as f64)
                    / delay.as_ps() as f64;
                let step = (gap * cwnd).min(cwnd / 2.0).max(0.0);
                self.cc.set_ai(self.cc.ai() + step);
            }
        }
        // Line 21: the original CC processes the sample.
        self.cc.on_ack(delay, acked_bytes, now);
        Action::Continue
    }

    /// Countdown mechanism (§4.3.1): one empty-queue RTT consumes one tick;
    /// at zero, the cardinality estimate is halved (stale overestimate).
    fn tick_countdown(&mut self) {
        if self.countdown == 0 {
            self.nflow = (self.nflow / 2.0).max(1.0);
        } else {
            self.countdown -= 1;
        }
    }

    /// Process a probe echo (Algorithm 1, `NewProbeAck`).
    ///
    /// `snd_nxt` is the transport's next-to-send sequence, used to restart
    /// RTT-round tracking on resume.
    pub fn on_probe_ack(&mut self, delay: Time, snd_nxt: u64) -> Action {
        if delay >= self.cfg.d_limit {
            // Still contended: keep probing (line 27).
            return Action::ProbeAgain {
                probe_in: self.schedule_probe(delay),
            };
        }
        if self.near_base(delay) {
            // Empty path: linear start (lines 28–31).
            self.cc.set_cwnd(self.cfg.w_ls / self.nflow);
            if self.countdown == 0 {
                self.nflow = (self.nflow / 2.0).max(1.0);
            } else {
                self.countdown -= 1;
            }
        } else {
            // Delay in (BaseRtt, D_limit): same-priority (or lower) traffic
            // at work; resume conservatively with one packet (§4.4) and let
            // the dual-RTT adaptive increase raise the delay.
            self.cc.set_cwnd(self.cfg.mtu as f64);
        }
        self.suspended = false;
        self.consec = 0;
        self.rtt_end_seq = snd_nxt;
        self.rtt_pass = false;
        self.dual_rtt_pass = false;
        Action::Resume
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::SimpleAimd;

    fn cfg() -> PrioPlusConfig {
        PrioPlusConfig {
            d_target: Time::from_us(16),
            d_limit: Time::from_us_f64(18.4),
            base_rtt: Time::from_us(12),
            near_base_eps: Time::from_us_f64(0.8),
            w_ls: 150_000.0, // 1 base BDP at 100G/12us
            line_rate: Rate::from_gbps(100),
            probe_before_start: true,
            mtu: 1000,
            seed: 7,
            dual_rtt: true,
        }
    }

    fn pp(probe_start: bool) -> PrioPlus<SimpleAimd> {
        let c = cfg();
        let cc = SimpleAimd::new(c.d_target, 1000.0, 10_000.0, 1e9);
        PrioPlus::new(
            PrioPlusConfig {
                probe_before_start: probe_start,
                ..c
            },
            cc,
        )
    }

    #[test]
    fn start_with_probe_suspends() {
        let mut p = pp(true);
        assert_eq!(
            p.on_flow_start(),
            Action::StopAndProbe {
                probe_in: Time::ZERO
            }
        );
        assert!(p.suspended());
    }

    #[test]
    fn start_without_probe_linear_starts() {
        let mut p = pp(false);
        assert_eq!(p.on_flow_start(), Action::Continue);
        assert!(!p.suspended());
        assert_eq!(p.cwnd(), 150_000.0);
    }

    #[test]
    fn filter_requires_two_consecutive_over_limit() {
        let mut p = pp(false);
        p.on_flow_start();
        let over = Time::from_us(25);
        let under = Time::from_us(14);
        // One over-limit sample: no suspension (noise filter).
        assert_eq!(
            p.on_data_ack(over, 0, 10_000, 1000, Time::from_us(1)),
            Action::Continue
        );
        assert!(!p.suspended());
        // An under-limit sample resets the filter.
        p.on_data_ack(under, 1000, 11_000, 1000, Time::from_us(2));
        p.on_data_ack(over, 2000, 12_000, 1000, Time::from_us(3));
        assert!(!p.suspended());
        // Two consecutive over-limit samples: suspend.
        let a = p.on_data_ack(over, 3000, 13_000, 1000, Time::from_us(4));
        assert!(matches!(a, Action::StopAndProbe { .. }));
        assert!(p.suspended());
    }

    #[test]
    fn probe_delay_within_collision_avoidance_bounds() {
        let c = cfg();
        for seed in 0..50 {
            let mut p = PrioPlus::new(
                PrioPlusConfig { seed, ..c },
                SimpleAimd::new(c.d_target, 1000.0, 10_000.0, 1e9),
            );
            p.on_flow_start(); // suspended
            let delay = Time::from_us(30);
            let Action::ProbeAgain { probe_in } = p.on_probe_ack(delay, 0) else {
                panic!("expected ProbeAgain");
            };
            // (delay - D_target) <= probe_in < (delay - D_target) + BaseRtt
            let lo = Time::from_us(14);
            let hi = Time::from_us(26);
            assert!(probe_in >= lo && probe_in < hi, "probe_in {probe_in}");
        }
    }

    #[test]
    fn cardinality_estimated_from_inflight() {
        let mut p = pp(false);
        p.on_flow_start();
        p.cc_mut().set_cwnd(10_000.0);
        let over = Time::from_us(24); // inflight = 24us * 100G = 300 KB
        p.on_data_ack(over, 0, 10_000, 1000, Time::from_us(1));
        p.on_data_ack(over, 1000, 11_000, 1000, Time::from_us(2));
        assert!(p.suspended());
        // #flow ~= 300000/10000 = 30.
        assert!((p.nflow() - 30.0).abs() < 2.0, "nflow {}", p.nflow());
        // AI scaled down accordingly.
        assert!((p.cc().ai() - 1000.0 / p.nflow()).abs() < 1.0);
    }

    #[test]
    fn probe_ack_near_base_resumes_with_linear_start() {
        let mut p = pp(true);
        p.on_flow_start();
        let a = p.on_probe_ack(Time::from_us(12), 0);
        assert_eq!(a, Action::Resume);
        assert!(!p.suspended());
        assert_eq!(p.cwnd(), 150_000.0); // W_LS / #flow(=1)
    }

    #[test]
    fn probe_ack_mid_channel_resumes_with_one_packet() {
        let mut p = pp(true);
        p.on_flow_start();
        let a = p.on_probe_ack(Time::from_us(14), 0);
        assert_eq!(a, Action::Resume);
        assert_eq!(p.cwnd(), 1000.0);
    }

    #[test]
    fn probe_ack_over_limit_keeps_probing() {
        let mut p = pp(true);
        p.on_flow_start();
        let a = p.on_probe_ack(Time::from_us(30), 0);
        assert!(matches!(a, Action::ProbeAgain { .. }));
        assert!(p.suspended());
    }

    #[test]
    fn linear_start_increments_once_per_rtt() {
        let mut p = pp(false);
        p.on_flow_start();
        let base = Time::from_us(12);
        let w0 = p.cwnd();
        // First ack of a new RTT round: +W_LS.
        p.on_data_ack(base, 0, 150_000, 1000, Time::from_us(13));
        let w1 = p.cwnd();
        assert!(w1 >= w0 + 150_000.0, "w1 {w1}");
        // Subsequent acks in the same round do not add W_LS again (only the
        // original CC's AI applies).
        p.on_data_ack(base, 1000, 150_000, 1000, Time::from_us(14));
        let w2 = p.cwnd();
        assert!(w2 - w1 < 10_000.0, "w2-w1 {}", w2 - w1);
    }

    #[test]
    fn adaptive_increase_caps_at_half_cwnd() {
        let mut p = pp(false);
        p.on_flow_start();
        p.cc_mut().set_cwnd(100_000.0);
        // delay 13us, target 16us: gap factor = 3/13 = 0.23 < 0.5: full step.
        // Force dual_rtt_pass true by crossing one RTT boundary.
        let d = Time::from_us(13);
        p.on_data_ack(d, 0, 100_000, 1000, Time::from_us(13));
        let ai_after = p.cc().ai();
        // step = min(cwnd/2, 0.2308*cwnd) ~= 23077.
        assert!(
            (ai_after - (1000.0 + 23_076.9)).abs() < 100.0,
            "ai {ai_after}"
        );
    }

    #[test]
    fn adaptive_increase_every_other_rtt() {
        let mut p = pp(false);
        p.on_flow_start();
        p.cc_mut().set_cwnd(100_000.0);
        let d = Time::from_us(13);
        // RTT 1: dual_rtt_pass flips to true -> adaptive increase.
        p.on_data_ack(d, 0, 100_000, 1000, Time::from_us(13));
        assert!(p.cc().ai() > 20_000.0);
        // RTT 2: flips to false -> AI restored to origin/#flow.
        p.on_data_ack(d, 100_000, 200_000, 1000, Time::from_us(26));
        assert!((p.cc().ai() - 1000.0).abs() < 1.0, "ai {}", p.cc().ai());
    }

    #[test]
    fn countdown_halves_cardinality_after_expiry() {
        let mut p = pp(false);
        p.on_flow_start();
        p.cc_mut().set_cwnd(2_000.0);
        let over = Time::from_us(24);
        p.on_data_ack(over, 0, 2_000, 1000, Time::from_us(1));
        p.on_data_ack(over, 1000, 2_000, 1000, Time::from_us(2));
        let n0 = p.nflow();
        assert!(n0 > 100.0);
        // countdown = ceil(BaseBdp / W_LS) = 1 (W_LS = 1 BDP).
        // Resume via probe at base RTT (consumes one tick), then empty-queue
        // RTTs halve the estimate.
        p.on_probe_ack(Time::from_us(12), 2_000);
        let base = Time::from_us(12);
        let mut seq = 2_000u64;
        for i in 0..6 {
            p.on_data_ack(base, seq, seq + 1_000, 1000, Time::from_us(20 + i));
            seq += 1_000;
        }
        assert!(
            p.nflow() < n0 / 4.0,
            "cardinality should decay: {} -> {}",
            n0,
            p.nflow()
        );
    }

    #[test]
    fn suspended_ignores_below_limit_data_acks() {
        let mut p = pp(true);
        p.on_flow_start();
        let a = p.on_data_ack(Time::from_us(12), 0, 0, 1000, Time::from_us(1));
        assert_eq!(a, Action::Continue);
        assert!(p.suspended());
    }

    #[test]
    fn suspended_residual_acks_update_cardinality_and_reprobe() {
        let mut p = pp(false);
        p.on_flow_start();
        p.cc_mut().set_cwnd(75_000.0);
        // Suspend via two over-limit acks at a moderate delay.
        let over = Time::from_us(24);
        p.on_data_ack(over, 0, 75_000, 1000, Time::from_us(1));
        p.on_data_ack(over, 1000, 75_000, 1000, Time::from_us(2));
        assert!(p.suspended());
        let n_before = p.nflow();
        // Residual backlog acks arrive with far larger delays: the estimate
        // must ratchet up and the probe must be pushed out accordingly.
        let huge = Time::from_us(240); // inflight = 3 MB at 100G
        p.on_data_ack(huge, 2000, 75_000, 1000, Time::from_us(3));
        let a = p.on_data_ack(huge, 3000, 75_000, 1000, Time::from_us(4));
        assert!(matches!(a, Action::ProbeAgain { .. }), "{a:?}");
        assert!(
            p.nflow() > n_before * 2.0,
            "residual acks must improve the estimate: {} -> {}",
            n_before,
            p.nflow()
        );
        assert!(p.suspended());
    }

    #[test]
    #[should_panic(expected = "D_target must exceed base RTT")]
    fn rejects_target_below_base() {
        let c = PrioPlusConfig {
            d_target: Time::from_us(10),
            ..cfg()
        };
        PrioPlus::new(c, SimpleAimd::new(Time::from_us(10), 1.0, 1.0, 1.0));
    }
}
