//! Single-bottleneck micro-benchmark environment (§3, §5, §6.1).
//!
//! N sender hosts and one receiver hang off a single switch; the
//! switch→receiver port is the bottleneck. 100 Gbps links with 3 µs latency
//! give the paper's ≈ 12 µs data-packet RTT.

use netsim::monitor::MonitorKind;
use netsim::{
    FaultSchedule, FlowParams, FlowSpec, NoiseModel, Sim, SimConfig, SimResult, SwitchConfig,
    Topology, Transport,
};
use prioplus::PrioPlusConfig;
use simcore::{Rate, Time};
use transport::pp_transport::PrioPlusTransport;
use transport::sender::SenderBase;
use transport::swift::{SwiftCc, SwiftConfig};
use transport::CcSpec;

/// Micro-benchmark environment configuration.
#[derive(Clone, Debug)]
pub struct MicroEnv {
    /// Number of sender hosts (receiver is host 0).
    pub senders: usize,
    /// Link rate everywhere.
    pub rate: Rate,
    /// One-way link latency.
    pub prop: Time,
    /// Physical data priorities.
    pub num_prios: u8,
    /// Simulation horizon.
    pub end: Time,
    /// Seed.
    pub seed: u64,
    /// Measurement-noise model.
    pub noise: NoiseModel,
    /// Enable per-flow traces (throughput/delay/cwnd).
    pub trace: bool,
    /// Switch overrides.
    pub switch: SwitchConfig,
    /// Deterministic fault schedule (link flaps, degradation, PFC pause
    /// storms); `None` runs fault-free.
    pub faults: Option<FaultSchedule>,
}

impl Default for MicroEnv {
    fn default() -> Self {
        MicroEnv {
            senders: 4,
            rate: Rate::from_gbps(100),
            prop: Time::from_us(3),
            num_prios: 1,
            end: Time::from_ms(10),
            seed: 1,
            noise: NoiseModel::None,
            trace: true,
            switch: SwitchConfig::default(),
            faults: None,
        }
    }
}

/// A built micro-benchmark simulation plus the ids needed to add flows and
/// monitors.
pub struct Micro {
    /// The simulator (receiver is host 0; senders are hosts `1..=senders`).
    pub sim: Sim,
    /// Receiver host id.
    pub receiver: u32,
    /// Switch node id.
    pub switch: u32,
    /// Bottleneck egress port (switch → receiver).
    pub bottleneck_port: u16,
}

impl Micro {
    /// Build the environment.
    pub fn build(env: &MicroEnv) -> Micro {
        let topo = Topology::single_switch(env.senders, env.rate, env.prop);
        let switch = env.senders as u32 + 1; // hosts 0..=senders, then switch
        let cfg = SimConfig {
            num_prios: env.num_prios,
            end_time: env.end,
            seed: env.seed,
            meas_noise: env.noise,
            trace_flows: env.trace,
            faults: env.faults.clone(),
            ..Default::default()
        };
        let sim = Sim::new(&topo, cfg, env.switch.clone());
        // The switch's port toward host 0 is its port index 0 (links are
        // added host-by-host in order).
        Micro {
            sim,
            receiver: 0,
            switch,
            bottleneck_port: 0,
        }
    }

    /// Add a flow from sender `idx` (1-based among senders) to the receiver.
    pub fn add_flow(
        &mut self,
        sender: usize,
        size: u64,
        start: Time,
        phys_prio: u8,
        virt_prio: u8,
        cc: &CcSpec,
    ) -> u32 {
        self.add_flow_with(sender, size, start, phys_prio, virt_prio, |p| {
            cc.make(p, start)
        })
    }

    /// [`Micro::add_flow`] with a hand-built transport instead of a
    /// [`CcSpec`].
    pub fn add_flow_with(
        &mut self,
        sender: usize,
        size: u64,
        start: Time,
        phys_prio: u8,
        virt_prio: u8,
        make: impl FnOnce(&FlowParams) -> Box<dyn Transport>,
    ) -> u32 {
        assert!(sender >= 1, "sender hosts start at 1 (0 is the receiver)");
        let spec = FlowSpec {
            src: sender as u32,
            dst: self.receiver,
            size,
            start,
            phys_prio,
            virt_prio,
            tag: virt_prio as u64,
        };
        self.sim.add_flow(spec, make)
    }

    /// Monitor the bottleneck queue length.
    pub fn monitor_bottleneck_queue(&mut self, period: Time) -> usize {
        self.sim.add_monitor(
            "bottleneck-queue",
            MonitorKind::QueueBytes {
                node: self.switch,
                port: self.bottleneck_port,
            },
            period,
        )
    }

    /// Monitor bottleneck throughput (Gbps per sample period).
    pub fn monitor_bottleneck_throughput(&mut self, period: Time) -> usize {
        self.sim.add_monitor(
            "bottleneck-throughput",
            MonitorKind::PortThroughput {
                node: self.switch,
                port: self.bottleneck_port,
            },
            period,
        )
    }
}

/// The paper's testbed environment (§5): 4 senders, 10 Gbps, ≈ 13 µs RTT.
pub fn testbed_env() -> MicroEnv {
    MicroEnv {
        senders: 4,
        rate: Rate::from_gbps(10),
        prop: Time::from_ns(2_800),
        end: Time::from_ms(40),
        noise: NoiseModel::testbed(),
        ..Default::default()
    }
}

/// Total goodput (Gbps) of `flows` over `[from_us, to_us)`, from their
/// throughput traces (the run must have `trace` on).
pub fn goodput_gbps(res: &SimResult, flows: &[u32], from_us: f64, to_us: f64) -> f64 {
    flows
        .iter()
        .map(|f| {
            res.traces[f]
                .throughput
                .series_gbps()
                .window_mean(from_us, to_us)
                .unwrap_or(0.0)
        })
        .sum()
}

/// The flow ids among `(priority, flow id)` pairs that are at `prio`.
pub fn ids_at(flows: &[(u8, u32)], prio: u8) -> Vec<u32> {
    let at_prio = flows.iter().filter(|(p, _)| *p == prio);
    at_prio.map(|&(_, id)| id).collect()
}

/// The Fig 8 flow set: virtual priorities 3–6, two flows each (senders 1..4
/// map to levels), started 4 ms apart lowest first and sized so that they
/// also finish 4 ms apart, highest first. `physical` gives every priority
/// its own queue; otherwise all share queue 0. Returns `(priority, flow id)`.
pub fn add_fig8_flows(
    m: &mut Micro,
    physical: bool,
    cc_of: impl Fn(u8) -> CcSpec,
) -> Vec<(u8, u32)> {
    let mut flows = Vec::new();
    for (i, prio) in [3u8, 4, 5, 6].into_iter().enumerate() {
        let start = Time::from_ms(4 * i as u64);
        // Each level transmits ~4 ms at full rate while it is the top one.
        let size_each = match prio {
            6 => 2_400_000u64, // top: ~4ms at 5 Gbps per flow
            5 => 4_400_000,
            4 => 6_400_000,
            _ => 8_400_000,
        };
        for f in 0..2 {
            let sender = 1 + ((i * 2 + f) % 4);
            let phys_prio = if physical { prio } else { 0 };
            let id = m.add_flow(sender, size_each, start, phys_prio, prio, &cc_of(prio));
            flows.push((prio, id));
        }
    }
    flows
}

/// A PrioPlus+Swift sender from an explicit [`PrioPlusConfig`], for the
/// ablations [`CcSpec`] has no switch for (per-RTT increase, inflated
/// steps). Swift targets the channel's `D_target` and starts from `W_LS`;
/// `w_ai` overrides its additive-increase step.
pub fn prioplus_swift(
    params: &FlowParams,
    pp_cfg: PrioPlusConfig,
    w_ai: Option<f64>,
) -> Box<dyn Transport> {
    let queuing = pp_cfg.d_target - params.base_rtt;
    let mut scfg = SwiftConfig::datacenter(params.base_rtt, queuing, params.mtu);
    scfg.init_cwnd = pp_cfg.w_ls;
    scfg.ai = w_ai.unwrap_or(scfg.ai);
    Box::new(PrioPlusTransport::new(
        SenderBase::new(params.clone()),
        pp_cfg,
        SwiftCc::new(scfg),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn micro_base_rtt_is_about_12us() {
        let mut m = Micro::build(&MicroEnv::default());
        let spec = FlowSpec::new(1, 0, 1_000_000, Time::ZERO);
        let params = m.sim.flow_params(&spec, 0);
        let us = params.base_rtt.as_us_f64();
        assert!(
            (12.0..12.5).contains(&us),
            "base RTT {us}us should be ~12us"
        );
        let _ = &mut m;
    }

    #[test]
    fn testbed_base_rtt_is_about_13us() {
        let mut m = Micro::build(&testbed_env());
        let spec = FlowSpec::new(1, 0, 1_000_000, Time::ZERO);
        let params = m.sim.flow_params(&spec, 0);
        let us = params.base_rtt.as_us_f64();
        assert!(
            (12.5..13.5).contains(&us),
            "testbed base RTT {us}us should be ~13us"
        );
        let _ = &mut m;
    }
}
