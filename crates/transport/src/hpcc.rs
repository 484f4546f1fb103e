//! HPCC — High Precision Congestion Control (Li et al., SIGCOMM '19).
//!
//! HPCC uses per-hop INT telemetry (queue length, cumulative TX bytes,
//! timestamp, link rate) echoed in every ACK to compute each link's
//! *inflight utilization* `U_j = qlen/(B*T) + txRate/B` and drives the
//! window toward `eta` (95 %) utilization of the most-loaded link:
//! multiplicative correction `W = Wc/(U/eta) + W_AI` when over target, and
//! at most `maxStage` additive steps when under. The reference window `Wc`
//! updates once per RTT.
//!
//! The paper compares PrioPlus against HPCC in the flow-scheduling and
//! coflow scenarios (Fig 16, 18).

use netsim::packet::IntHop;
use netsim::AckEvent;
use simcore::Time;

use crate::plain::WindowPolicy;
use crate::sender::SenderBase;

/// HPCC parameters (defaults from the paper).
#[derive(Clone, Copy, Debug)]
pub struct HpccConfig {
    /// Target utilization `eta`.
    pub eta: f64,
    /// Maximum consecutive additive-increase stages.
    pub max_stage: u32,
    /// Additive increase per RTT, bytes.
    pub w_ai: f64,
    /// Base RTT `T` used to normalize queue length.
    pub base_rtt: Time,
    /// Initial (and maximum) window, bytes: one BDP.
    pub init_cwnd: f64,
    /// Minimum window, bytes.
    pub min_cwnd: f64,
}

impl HpccConfig {
    /// Defaults for a given environment.
    pub fn new(base_rtt: Time, bdp_bytes: f64) -> Self {
        HpccConfig {
            eta: 0.95,
            max_stage: 5,
            w_ai: bdp_bytes * 0.01, // small AI for near-zero standing queue
            base_rtt,
            init_cwnd: bdp_bytes,
            min_cwnd: 64.0,
        }
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct LinkSnapshot {
    qlen: u64,
    tx_bytes: u64,
    ts: Time,
    valid: bool,
}

/// The HPCC window policy.
#[derive(Clone, Debug)]
pub struct HpccCc {
    cfg: HpccConfig,
    cwnd: f64,
    /// Reference window, updated once per RTT.
    wc: f64,
    /// Last-seen INT state per hop.
    links: Vec<LinkSnapshot>,
    /// Smoothed inflight utilization estimate.
    u: f64,
    inc_stage: u32,
    /// Sequence marking the per-RTT `Wc` update boundary.
    wc_seq: u64,
}

impl HpccCc {
    /// New controller.
    pub fn new(cfg: HpccConfig) -> Self {
        HpccCc {
            cwnd: cfg.init_cwnd,
            wc: cfg.init_cwnd,
            links: Vec::new(),
            u: 0.0,
            inc_stage: 0,
            wc_seq: 0,
            cfg,
        }
    }

    /// Compute the max per-link inflight utilization from fresh INT, update
    /// the EWMA, and return it.
    fn measure_inflight(&mut self, int: &[IntHop]) -> f64 {
        if self.links.len() < int.len() {
            self.links.resize(int.len(), LinkSnapshot::default());
        }
        let t_ps = self.cfg.base_rtt.as_ps() as f64;
        let mut u_max: f64 = 0.0;
        let mut tau_ps = t_ps;
        for (i, hop) in int.iter().enumerate() {
            let prev = self.links[i];
            if prev.valid && hop.ts > prev.ts {
                let dt = (hop.ts - prev.ts).as_ps() as f64;
                let tx_rate_bytes_per_ps = hop.tx_bytes.saturating_sub(prev.tx_bytes) as f64 / dt;
                let line_bytes_per_ps = hop.rate_bps as f64 / 8.0 / 1e12;
                let bdp = line_bytes_per_ps * t_ps;
                let u =
                    hop.qlen.min(prev.qlen) as f64 / bdp + tx_rate_bytes_per_ps / line_bytes_per_ps;
                if u > u_max {
                    u_max = u;
                    tau_ps = dt;
                }
            }
            self.links[i] = LinkSnapshot {
                qlen: hop.qlen,
                tx_bytes: hop.tx_bytes,
                ts: hop.ts,
                valid: true,
            };
        }
        if u_max > 0.0 {
            let tau = tau_ps.min(t_ps);
            self.u = (1.0 - tau / t_ps) * self.u + (tau / t_ps) * u_max;
        }
        self.u
    }

    fn compute_wind(&mut self, update_wc: bool) {
        if self.u >= self.cfg.eta || self.inc_stage >= self.cfg.max_stage {
            let w = self.wc / (self.u / self.cfg.eta).max(1e-3) + self.cfg.w_ai;
            self.cwnd = w.clamp(self.cfg.min_cwnd, self.cfg.init_cwnd);
            if update_wc {
                self.inc_stage = 0;
                self.wc = self.cwnd;
            }
        } else {
            let w = self.wc + self.cfg.w_ai;
            self.cwnd = w.clamp(self.cfg.min_cwnd, self.cfg.init_cwnd);
            if update_wc {
                self.inc_stage += 1;
                self.wc = self.cwnd;
            }
        }
    }
}

impl WindowPolicy for HpccCc {
    fn on_ack(&mut self, ack: &AckEvent, base: &SenderBase, _now: Time) {
        if let Some(int) = &ack.int {
            self.measure_inflight(int.as_slice());
            let update_wc = ack.acked_seq >= self.wc_seq;
            if update_wc {
                self.wc_seq = base.snd_nxt;
            }
            self.compute_wind(update_wc);
        }
    }

    fn cwnd(&self) -> f64 {
        self.cwnd
    }

    /// Collapse to the floor: no ACKs means no INT to size the window by.
    fn on_rto(&mut self) {
        self.cwnd = self.cfg.min_cwnd;
    }

    fn check_invariants(&self) -> Result<(), String> {
        if !self.cwnd.is_finite() {
            return Err(format!("hpcc cwnd {} is not finite", self.cwnd));
        }
        if self.cwnd < self.cfg.min_cwnd || self.cwnd > self.cfg.init_cwnd {
            return Err(format!(
                "hpcc cwnd {} outside [{}, {}]",
                self.cwnd, self.cfg.min_cwnd, self.cfg.init_cwnd
            ));
        }
        if !self.u.is_finite() || self.u < 0.0 {
            return Err(format!("hpcc utilization estimate {} invalid", self.u));
        }
        if self.inc_stage > self.cfg.max_stage {
            return Err(format!(
                "hpcc inc_stage {} exceeds max_stage {}",
                self.inc_stage, self.cfg.max_stage
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::params;

    fn hop(qlen: u64, tx: u64, ts_us: u64) -> IntHop {
        IntHop {
            qlen,
            tx_bytes: tx,
            ts: Time::from_us(ts_us),
            rate_bps: 100_000_000_000,
        }
    }

    fn mk() -> HpccCc {
        let p = params(10_000_000);
        let bdp = p.line_rate.bdp_bytes(p.base_rtt) as f64;
        HpccCc::new(HpccConfig::new(p.base_rtt, bdp))
    }

    #[test]
    fn utilization_from_full_link_is_near_one() {
        let mut t = mk();
        // 12us between samples, link fully busy: tx delta = 150 KB (1 BDP),
        // no queue.
        t.measure_inflight(&[hop(0, 0, 0)]);
        let u = t.measure_inflight(&[hop(0, 150_000, 12)]);
        assert!((u - 1.0).abs() < 0.05, "u {u}");
    }

    #[test]
    fn queue_adds_to_utilization() {
        let mut t = mk();
        t.measure_inflight(&[hop(75_000, 0, 0)]);
        let u = t.measure_inflight(&[hop(75_000, 150_000, 12)]);
        // 0.5 BDP of queue + 1.0 of rate ~= 1.5.
        assert!(u > 1.2, "u {u}");
    }

    #[test]
    fn over_utilization_shrinks_window() {
        let mut t = mk();
        t.u = 2.0;
        let w0 = t.cwnd;
        t.compute_wind(true);
        assert!(t.cwnd < w0 * 0.6, "cwnd {}", t.cwnd);
    }

    #[test]
    fn under_utilization_grows_additively_up_to_max_stage() {
        let mut t = mk();
        t.u = 0.3;
        let w0 = t.cwnd;
        // cwnd is clamped at init (1 BDP); drop wc to see the growth.
        t.wc = w0 / 2.0;
        for _ in 0..t.cfg.max_stage {
            t.compute_wind(true);
        }
        assert!((t.cwnd - (w0 / 2.0 + 5.0 * t.cfg.w_ai)).abs() < 1.0);
        // Stage 6 switches to the multiplicative branch.
        let w5 = t.cwnd;
        t.compute_wind(true);
        assert!(t.cwnd > w5, "MI branch with U<eta grows: {}", t.cwnd);
    }

    #[test]
    fn idle_links_give_high_window() {
        let mut t = mk();
        t.measure_inflight(&[hop(0, 0, 0)]);
        t.measure_inflight(&[hop(0, 1_000, 12)]); // ~0.7% utilization
        t.compute_wind(true);
        assert!(t.cwnd >= t.wc - 1.0);
    }

    #[test]
    fn worst_hop_dominates() {
        let mut t = mk();
        t.measure_inflight(&[hop(0, 0, 0), hop(0, 0, 0)]);
        let u = t.measure_inflight(&[hop(0, 10_000, 12), hop(140_000, 150_000, 12)]);
        assert!(u > 0.9, "the congested second hop must dominate: {u}");
    }
}
