//! Transport factories: turn a declarative [`CcSpec`] plus per-flow
//! [`FlowParams`] into a boxed [`Transport`]. This is the only API the
//! experiment harness needs.

use netsim::{FlowParams, Transport};
use prioplus::{ChannelConfig, PrioPlusConfig};
use simcore::Time;

use crate::dctcp::{D2tcpConfig, DctcpCc};
use crate::hpcc::{HpccCc, HpccConfig};
use crate::ledbat::{LedbatCc, LedbatConfig};
use crate::nocc::NoCc;
use crate::plain::CcTransport;
use crate::pp_transport::PrioPlusTransport;
use crate::sender::SenderBase;
use crate::swift::{SwiftCc, SwiftConfig};

/// Per-deployment PrioPlus policy: channel geometry plus the §4.4 tiering
/// of `W_LS` and probe-before-start by priority.
#[derive(Clone, Copy, Debug)]
pub struct PrioPlusPolicy {
    /// Fluctuation allowance `A`.
    pub fluct: Time,
    /// Noise allowance `B` (also used as the `delay == BaseRtt` epsilon).
    pub noise: Time,
    /// Number of virtual priorities in the ladder.
    pub num_prios: u8,
    /// `W_LS` as a fraction of base BDP for the highest priority.
    pub w_ls_high: f64,
    /// `W_LS` fraction for middle priorities.
    pub w_ls_mid: f64,
    /// `W_LS` fraction for low priorities.
    pub w_ls_low: f64,
    /// Probe before the first transmission for mid/low tiers (§4.2.1).
    /// §4.4 exempts latency-sensitive traffic: scheduling scenarios where
    /// every class is FCT-sensitive set this to `false` and rely on the
    /// (tiered) linear start alone.
    pub probe: bool,
}

impl PrioPlusPolicy {
    /// The paper's configuration: 4 µs channels (A = 3.2 µs, B = 0.8 µs),
    /// `W_LS` of 1 / 0.25 / 0.125 base BDP for high / mid / low tiers.
    pub fn paper_default(num_prios: u8) -> Self {
        PrioPlusPolicy {
            fluct: Time::from_us_f64(3.2),
            noise: Time::from_us_f64(0.8),
            num_prios,
            w_ls_high: 1.0,
            w_ls_mid: 0.25,
            w_ls_low: 0.125,
            probe: true,
        }
    }

    /// Channel ladder for a flow with the given base RTT.
    pub fn channels(&self, base_rtt: Time) -> ChannelConfig {
        ChannelConfig::new(base_rtt, self.fluct, self.noise)
    }

    /// Priority tier: the single highest priority is "high" (linear start
    /// without probing, §4.4); the bottom quarter is "low"; the rest "mid".
    fn tier(&self, prio: u8) -> (f64, bool) {
        if self.num_prios <= 1 || prio >= self.num_prios - 1 {
            (self.w_ls_high, false)
        } else if prio < self.num_prios / 4 {
            (self.w_ls_low, self.probe)
        } else {
            (self.w_ls_mid, self.probe)
        }
    }

    /// Full PrioPlus configuration for one flow.
    pub fn flow_config(&self, params: &FlowParams) -> PrioPlusConfig {
        let chan = self.channels(params.base_rtt);
        let prio = params.virt_prio.min(self.num_prios.saturating_sub(1));
        let (w_ls_frac, probe_before_start) = self.tier(prio);
        PrioPlusConfig {
            d_target: chan.d_target(prio),
            d_limit: chan.d_limit(prio),
            base_rtt: params.base_rtt,
            near_base_eps: self.noise,
            w_ls: (w_ls_frac * params.base_bdp()).max(params.mtu as f64),
            line_rate: params.line_rate,
            probe_before_start,
            mtu: params.mtu,
            seed: params.seed,
            dual_rtt: true,
        }
    }
}

/// Declarative transport choice for a scenario. Delay-target offsets are
/// relative to each flow's own base RTT (paths differ in a fat-tree).
#[derive(Clone, Copy, Debug)]
pub enum CcSpec {
    /// Plain Swift with the given queuing-delay target.
    Swift {
        /// Queuing budget added to the base RTT to form the target.
        queuing: Time,
        /// Enable flow-based target scaling.
        scaling: bool,
    },
    /// PrioPlus integrated with Swift (the paper's system). Swift's target
    /// is taken from the flow's channel; target scaling is disabled.
    PrioPlusSwift {
        /// Deployment policy.
        policy: PrioPlusPolicy,
    },
    /// Plain LEDBAT with the given queuing target.
    Ledbat {
        /// Queuing-delay target.
        queuing: Time,
    },
    /// PrioPlus integrated with LEDBAT (§6.2).
    PrioPlusLedbat {
        /// Deployment policy.
        policy: PrioPlusPolicy,
    },
    /// DCTCP, optionally deadline-aware (D2TCP) with deadline =
    /// `flow size / line rate * factor` after flow start.
    D2tcp {
        /// Deadline as a multiple of the ideal FCT; `None` = plain DCTCP.
        deadline_factor: Option<f64>,
    },
    /// Swift with weight-scaled AIMD (the §7 weighted-virtual-priority
    /// building block): bandwidth shares converge to ~weight per flow.
    SwiftWeighted {
        /// Queuing budget added to the base RTT to form the target.
        queuing: Time,
        /// AIMD weight (1.0 = plain Swift).
        weight: f64,
    },
    /// HPCC (requires INT-enabled switches).
    Hpcc,
    /// Blind line-rate sender (no congestion control).
    Blast,
}

impl CcSpec {
    /// Instantiate the transport for one flow. `start` is the flow's start
    /// time (needed for absolute D2TCP deadlines).
    pub fn make(&self, params: &FlowParams, start: Time) -> Box<dyn Transport> {
        let bdp = params.base_bdp();
        let base = SenderBase::new(params.clone());
        match *self {
            CcSpec::Swift { queuing, scaling } => {
                let mut cfg = SwiftConfig::datacenter(params.base_rtt, queuing, params.mtu);
                cfg.target_scaling = scaling;
                cfg.init_cwnd = bdp;
                Box::new(CcTransport::new(base, SwiftCc::new(cfg)))
            }
            CcSpec::PrioPlusSwift { policy } => {
                let pp_cfg = policy.flow_config(params);
                let mut cfg = SwiftConfig::datacenter(
                    params.base_rtt,
                    pp_cfg.d_target - params.base_rtt,
                    params.mtu,
                );
                cfg.target_scaling = false; // PrioPlus disables scaling (§4.1)
                cfg.init_cwnd = pp_cfg.w_ls.max(cfg.min_cwnd);
                Box::new(PrioPlusTransport::new(base, pp_cfg, SwiftCc::new(cfg)))
            }
            CcSpec::Ledbat { queuing } => {
                let mut cfg = LedbatConfig::datacenter(params.base_rtt, queuing, params.mtu);
                cfg.init_cwnd = bdp;
                Box::new(CcTransport::new(base, LedbatCc::new(cfg)))
            }
            CcSpec::PrioPlusLedbat { policy } => {
                let pp_cfg = policy.flow_config(params);
                let mut cfg = LedbatConfig::datacenter(
                    params.base_rtt,
                    pp_cfg.d_target - params.base_rtt,
                    params.mtu,
                );
                cfg.init_cwnd = pp_cfg.w_ls.max(cfg.min_cwnd);
                Box::new(PrioPlusTransport::new(base, pp_cfg, LedbatCc::new(cfg)))
            }
            CcSpec::D2tcp { deadline_factor } => {
                let mut cfg = D2tcpConfig::dctcp(params.mtu, bdp);
                if let Some(f) = deadline_factor {
                    let ideal = params.base_rtt + params.line_rate.serialize_time(params.size);
                    cfg = cfg.with_deadline(start + ideal.mul_f64(f));
                }
                Box::new(CcTransport::new(base, DctcpCc::new(cfg)))
            }
            CcSpec::SwiftWeighted { queuing, weight } => {
                let mut cfg = SwiftConfig::datacenter(params.base_rtt, queuing, params.mtu);
                cfg.init_cwnd = bdp;
                let cc = prioplus::WeightedCc::new(SwiftCc::new(cfg), weight);
                Box::new(CcTransport::new(base, cc))
            }
            CcSpec::Hpcc => {
                let cfg = HpccConfig::new(params.base_rtt, bdp);
                Box::new(CcTransport::new(base, HpccCc::new(cfg)))
            }
            CcSpec::Blast => Box::new(CcTransport::new(base, NoCc)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(virt_prio: u8) -> FlowParams {
        FlowParams {
            virt_prio,
            ..crate::fixtures::params(1_000_000)
        }
    }

    #[test]
    fn policy_tiers_match_section_4_4() {
        let pol = PrioPlusPolicy::paper_default(12);
        // Highest priority: W_LS = 1 BDP, no probe.
        let hi = pol.flow_config(&params(11));
        assert!(!hi.probe_before_start);
        assert_eq!(hi.w_ls, 150_000.0);
        // Middle band: 0.25 BDP, probe.
        let mid = pol.flow_config(&params(8));
        assert!(mid.probe_before_start);
        assert_eq!(mid.w_ls, 37_500.0);
        // Low band (bottom quarter, 0..=2 of 12): 0.125 BDP, probe.
        let lo = pol.flow_config(&params(2));
        assert!(lo.probe_before_start);
        assert_eq!(lo.w_ls, 18_750.0);
        // Disabling probing keeps tiers but starts everyone with linear
        // start (§4.4 latency-sensitive exemption).
        let noprobe = PrioPlusPolicy {
            probe: false,
            ..pol
        };
        assert!(!noprobe.flow_config(&params(8)).probe_before_start);
    }

    #[test]
    fn policy_channels_are_disjoint_and_ordered() {
        let pol = PrioPlusPolicy::paper_default(8);
        let mut prev_limit = Time::ZERO;
        for p in 0..8 {
            let cfg = pol.flow_config(&params(p));
            assert!(cfg.d_target > prev_limit, "prio {p}");
            assert!(cfg.d_limit > cfg.d_target);
            prev_limit = cfg.d_limit;
        }
    }

    #[test]
    fn every_spec_constructs() {
        let pol = PrioPlusPolicy::paper_default(8);
        let specs = [
            CcSpec::Swift {
                queuing: Time::from_us(4),
                scaling: true,
            },
            CcSpec::PrioPlusSwift { policy: pol },
            CcSpec::Ledbat {
                queuing: Time::from_us(4),
            },
            CcSpec::PrioPlusLedbat { policy: pol },
            CcSpec::D2tcp {
                deadline_factor: Some(2.0),
            },
            CcSpec::SwiftWeighted {
                queuing: Time::from_us(4),
                weight: 4.0,
            },
            CcSpec::Hpcc,
            CcSpec::Blast,
        ];
        for spec in specs {
            let t = spec.make(&params(3), Time::ZERO);
            assert!(!t.is_finished());
            assert!(t.cwnd_bytes() > 0.0);
        }
    }

    #[test]
    fn prioplus_swift_target_equals_channel_target() {
        let pol = PrioPlusPolicy::paper_default(8);
        let spec = CcSpec::PrioPlusSwift { policy: pol };
        // Priority 4 -> D_target = 12 + 5*4 = 32us.
        let t = spec.make(&params(4), Time::ZERO);
        // The wrapped Swift's init window must be W_LS (linear start), not
        // a full BDP: 0.25 * 150000 = 37500.
        assert_eq!(t.cwnd_bytes(), 37_500.0);
    }
}
