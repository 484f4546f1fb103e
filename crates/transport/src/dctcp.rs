//! DCTCP (Alizadeh et al., SIGCOMM '10) and its deadline-aware extension
//! D2TCP (Vamanan et al., SIGCOMM '12) — the ECN-based baseline §3.1 uses
//! to show that single-bit congestion signals cannot provide strict
//! virtual priority.
//!
//! DCTCP maintains an EWMA `alpha` of the fraction of ECN-marked bytes per
//! RTT and cuts the window by `alpha/2` once per RTT when marks occur.
//! D2TCP exponentiates: the cut becomes `p/2` with `p = alpha^d`, where the
//! urgency `d` grows as the deadline approaches (`d` clamped to
//! `[0.5, 2]`): far-deadline flows back off more, near-deadline flows less.

use netsim::AckEvent;
use simcore::Time;

use crate::plain::WindowPolicy;
use crate::sender::SenderBase;

/// Configuration for a DCTCP/D2TCP flow.
#[derive(Clone, Copy, Debug)]
pub struct D2tcpConfig {
    /// EWMA gain `g` for the marked fraction.
    pub g: f64,
    /// Additive increase per RTT, bytes (one MTU in the papers).
    pub ai: f64,
    /// Initial window, bytes.
    pub init_cwnd: f64,
    /// Minimum window, bytes.
    pub min_cwnd: f64,
    /// Maximum window, bytes.
    pub max_cwnd: f64,
    /// Absolute deadline; `None` runs plain DCTCP (urgency fixed at 1).
    pub deadline: Option<Time>,
    /// MTU bytes.
    pub mtu: u32,
}

impl D2tcpConfig {
    /// Defaults per the papers, deadline unset (plain DCTCP).
    pub fn dctcp(mtu: u32, init_cwnd: f64) -> Self {
        D2tcpConfig {
            g: 1.0 / 16.0,
            ai: mtu as f64,
            init_cwnd,
            min_cwnd: mtu as f64,
            max_cwnd: 10_000_000.0,
            deadline: None,
            mtu,
        }
    }

    /// D2TCP with the given absolute deadline.
    pub fn with_deadline(mut self, deadline: Time) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// The DCTCP/D2TCP window policy.
#[derive(Clone, Debug)]
pub struct DctcpCc {
    cfg: D2tcpConfig,
    cwnd: f64,
    alpha: f64,
    /// Per-window mark accounting.
    acked_bytes_win: u64,
    marked_bytes_win: u64,
    win_end_seq: u64,
    slow_start: bool,
}

impl DctcpCc {
    /// New controller.
    pub fn new(cfg: D2tcpConfig) -> Self {
        DctcpCc {
            cwnd: cfg.init_cwnd.clamp(cfg.min_cwnd, cfg.max_cwnd),
            alpha: 0.0,
            acked_bytes_win: 0,
            marked_bytes_win: 0,
            win_end_seq: 0,
            slow_start: true,
            cfg,
        }
    }

    /// Deadline urgency `d` (D2TCP §3): `d = Tc / D` clamped to `[0.5, 2]`,
    /// where `Tc` is the projected completion time at the current rate and
    /// `D` the time to the deadline. Plain DCTCP returns 1.
    pub fn urgency(&self, base: &SenderBase, now: Time) -> f64 {
        let Some(deadline) = self.cfg.deadline else {
            return 1.0;
        };
        if deadline <= now {
            return 2.0;
        }
        let remaining_bytes = (base.params.size - base.acked) as f64;
        let rate = self.cwnd / base.srtt.as_secs_f64().max(1e-9);
        let tc = remaining_bytes / rate.max(1.0);
        let d_secs = (deadline - now).as_secs_f64();
        (tc / d_secs).clamp(0.5, 2.0)
    }

    fn end_of_window(&mut self, base: &SenderBase, now: Time) {
        let f = if self.acked_bytes_win == 0 {
            0.0
        } else {
            self.marked_bytes_win as f64 / self.acked_bytes_win as f64
        };
        self.alpha = (1.0 - self.cfg.g) * self.alpha + self.cfg.g * f;
        if self.marked_bytes_win > 0 {
            self.slow_start = false;
            let d = self.urgency(base, now);
            let p = self.alpha.powf(d);
            self.cwnd *= 1.0 - p / 2.0;
        } else if self.slow_start {
            self.cwnd *= 2.0;
        } else {
            self.cwnd += self.cfg.ai;
        }
        self.cwnd = self.cwnd.clamp(self.cfg.min_cwnd, self.cfg.max_cwnd);
        self.acked_bytes_win = 0;
        self.marked_bytes_win = 0;
        self.win_end_seq = base.snd_nxt;
    }
}

impl WindowPolicy for DctcpCc {
    fn on_ack(&mut self, ack: &AckEvent, base: &SenderBase, now: Time) {
        self.acked_bytes_win += ack.acked_bytes as u64;
        if ack.ecn_echo {
            self.marked_bytes_win += ack.acked_bytes as u64;
        }
        if ack.acked_seq >= self.win_end_seq {
            self.end_of_window(base, now);
        }
    }

    fn cwnd(&self) -> f64 {
        self.cwnd
    }

    /// Collapse to the floor: a timeout voids the mark-fraction estimate.
    fn on_rto(&mut self) {
        self.cwnd = self.cfg.min_cwnd;
    }

    fn check_invariants(&self) -> Result<(), String> {
        if !self.cwnd.is_finite() {
            return Err(format!("dctcp cwnd {} is not finite", self.cwnd));
        }
        if self.cwnd < self.cfg.min_cwnd || self.cwnd > self.cfg.max_cwnd {
            return Err(format!(
                "dctcp cwnd {} outside [{}, {}]",
                self.cwnd, self.cfg.min_cwnd, self.cfg.max_cwnd
            ));
        }
        if !self.alpha.is_finite() || !(0.0..=1.0).contains(&self.alpha) {
            return Err(format!("dctcp alpha {} outside [0, 1]", self.alpha));
        }
        if self.marked_bytes_win > self.acked_bytes_win {
            return Err(format!(
                "dctcp marked bytes {} exceed acked bytes {} in window",
                self.marked_bytes_win, self.acked_bytes_win
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{ack, params};

    fn mk(size: u64, cfg: D2tcpConfig) -> (SenderBase, DctcpCc) {
        (SenderBase::new(params(size)), DctcpCc::new(cfg))
    }

    #[test]
    fn alpha_converges_to_mark_fraction() {
        let (mut base, mut cc) = mk(100_000_000, D2tcpConfig::dctcp(1000, 10_000.0));
        // 200 windows of ten fully-marked ACKs each: alpha -> 1.
        for seq in (0..2_000_000u64).step_by(1000) {
            base.snd_nxt = seq + 10_000;
            let marked = AckEvent {
                ecn_echo: true,
                ..ack(seq, 1000, 14)
            };
            cc.on_ack(&marked, &base, Time::from_us(1));
        }
        assert!(cc.alpha > 0.95, "alpha {}", cc.alpha);
        cc.check_invariants().unwrap();
    }

    #[test]
    fn unmarked_windows_grow_marked_windows_shrink() {
        let (base, mut cc) = mk(100_000_000, D2tcpConfig::dctcp(1000, 10_000.0));
        cc.slow_start = false;
        cc.acked_bytes_win = 10_000;
        cc.marked_bytes_win = 0;
        cc.end_of_window(&base, Time::from_us(1));
        assert_eq!(cc.cwnd(), 11_000.0);
        // Now a fully marked window.
        cc.alpha = 1.0;
        cc.acked_bytes_win = 10_000;
        cc.marked_bytes_win = 10_000;
        let w = cc.cwnd();
        cc.end_of_window(&base, Time::from_us(2));
        assert!(cc.cwnd() < w * 0.6, "cut should approach 1/2");
    }

    #[test]
    fn urgency_rises_as_deadline_nears() {
        let cfg = D2tcpConfig::dctcp(1000, 10_000.0).with_deadline(Time::from_ms(1));
        let (base, cc) = mk(100_000, cfg);
        let far = cc.urgency(&base, Time::from_us(10));
        let near = cc.urgency(&base, Time::from_us(990));
        assert!(near > far, "near {near} far {far}");
        assert!(near <= 2.0 && far >= 0.5);
    }

    #[test]
    fn past_deadline_is_maximum_urgency() {
        let cfg = D2tcpConfig::dctcp(1000, 10_000.0).with_deadline(Time::from_us(10));
        let (base, cc) = mk(10_000_000, cfg);
        assert_eq!(cc.urgency(&base, Time::from_us(20)), 2.0);
    }

    #[test]
    fn plain_dctcp_urgency_is_one() {
        let (base, cc) = mk(1_000, D2tcpConfig::dctcp(1000, 10_000.0));
        assert_eq!(cc.urgency(&base, Time::from_ms(5)), 1.0);
    }

    #[test]
    fn d2tcp_urgent_flow_cuts_less() {
        // Same alpha, different urgency: near-deadline flow keeps more window.
        let cut = |deadline_us: u64| {
            let cfg = D2tcpConfig::dctcp(1000, 100_000.0).with_deadline(Time::from_us(deadline_us));
            let (base, mut cc) = mk(1_000_000, cfg);
            cc.slow_start = false;
            cc.alpha = 0.5;
            cc.acked_bytes_win = 10_000;
            cc.marked_bytes_win = 10_000;
            cc.end_of_window(&base, Time::from_us(1));
            cc.cwnd()
        };
        let urgent = cut(15); // nearly due
        let relaxed = cut(1_000_000); // far in the future
        assert!(
            urgent > relaxed,
            "urgent flow must decelerate less: {urgent} vs {relaxed}"
        );
    }

    #[test]
    fn slow_start_doubles_until_first_mark() {
        let (base, mut cc) = mk(100_000_000, D2tcpConfig::dctcp(1000, 2_000.0));
        cc.acked_bytes_win = 2_000;
        cc.end_of_window(&base, Time::from_us(1));
        assert_eq!(cc.cwnd(), 4_000.0);
        cc.acked_bytes_win = 4_000;
        cc.marked_bytes_win = 4_000;
        cc.end_of_window(&base, Time::from_us(2));
        assert!(!cc.slow_start);
        cc.acked_bytes_win = 4_000;
        cc.end_of_window(&base, Time::from_us(3));
        // After the mark, growth is additive.
        let w = cc.cwnd();
        cc.acked_bytes_win = 4_000;
        cc.end_of_window(&base, Time::from_us(4));
        assert!((cc.cwnd() - w - 1000.0).abs() < 1e-6);
    }
}
