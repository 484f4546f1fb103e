//! Single-bottleneck micro-benchmark environment (§3, §5, §6.1).
//!
//! N sender hosts and one receiver hang off a single switch; the
//! switch→receiver port is the bottleneck. 100 Gbps links with 3 µs latency
//! give the paper's ≈ 12 µs data-packet RTT.
//!
//! [`Micro::run`] is [`probe::run`] with the bottleneck's queue and
//! throughput probes (Fig 3c/d, Fig 10b–d, App. D) and every flow's goodput
//! meter (Fig 3, 8, 10a, App. B); a per-ACK series comes from a wrapper
//! transport ([`DelayLog`], Fig 9).

use std::cell::RefCell;
use std::rc::Rc;

use crate::probe::{self, Probe, Probed};
use netsim::{
    AckEvent, FaultSchedule, FlowParams, FlowSpec, NoiseModel, Sim, SimConfig, SwitchConfig,
    Topology, Transport, TransportCtx, TrySend,
};
use prioplus::PrioPlusConfig;
use simcore::stats::{ThroughputMeter, TimeSeries};
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
            switch: SwitchConfig::default(),
            faults: None,
        }
    }
}

/// A built micro-benchmark simulation plus the ids needed to add flows, and
/// the probes [`Micro::run`] samples the bottleneck with.
pub struct Micro {
    /// The simulator (receiver is host 0; senders are hosts `1..=senders`).
    pub sim: Sim,
    /// Receiver host id.
    pub receiver: u32,
    /// Switch node id.
    pub switch: u32,
    /// Bottleneck egress port (switch → receiver).
    pub bottleneck_port: u16,
    /// Registered probes, in registration order.
    probes: Vec<Probe>,
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
            probes: Vec::new(),
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

    /// Sample the bottleneck's queued bytes (all priorities) every
    /// `period`, which must be positive; returns the index of the series in
    /// [`Micro::run`]'s result.
    pub fn monitor_bottleneck_queue(&mut self, period: Time) -> usize {
        let probe = Probe::queue(&self.sim, self.switch, self.bottleneck_port, period);
        self.probes.push(probe);
        self.probes.len() - 1
    }

    /// Sample the bottleneck's throughput in Gbit/s over each `period`, as
    /// [`Self::monitor_bottleneck_queue`] samples its queue.
    pub fn monitor_bottleneck_throughput(&mut self, period: Time) -> usize {
        let probe = Probe::throughput(&self.sim, self.switch, self.bottleneck_port, period);
        self.probes.push(probe);
        self.probes.len() - 1
    }

    /// Run to completion under [`probe::run`], with the registered probes
    /// and every flow registered so far metered.
    pub fn run(self) -> Probed {
        probe::run(self.sim, self.probes)
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
/// meters in `goodput` ([`Probed::goodput`]).
pub fn goodput_gbps(goodput: &[ThroughputMeter], flows: &[u32], from_us: f64, to_us: f64) -> f64 {
    flows
        .iter()
        .map(|&f| {
            goodput[f as usize]
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

/// A transport that logs the delay each ACK or probe echo it takes
/// measured, as `(arrival time, delay in µs)`, into a series its caller
/// shares, then hands the ACK to `inner` (Fig 9 plots one flow's).
pub struct DelayLog {
    /// The transport that does the work.
    pub inner: Box<dyn Transport>,
    /// Where the points go.
    pub log: Rc<RefCell<TimeSeries>>,
}

impl Transport for DelayLog {
    fn on_start(&mut self, ctx: &mut TransportCtx<'_>) {
        self.inner.on_start(ctx);
    }
    fn on_ack(&mut self, ack: &AckEvent, ctx: &mut TransportCtx<'_>) {
        self.log.borrow_mut().push(ctx.now, ack.delay.as_us_f64());
        self.inner.on_ack(ack, ctx);
    }
    fn on_timer(&mut self, token: u64, ctx: &mut TransportCtx<'_>) {
        self.inner.on_timer(token, ctx);
    }
    fn try_send(&mut self, now: Time) -> TrySend {
        self.inner.try_send(now)
    }
    fn on_sent(&mut self, sent: TrySend, ctx: &mut TransportCtx<'_>) {
        self.inner.on_sent(sent, ctx);
    }
    fn is_finished(&self) -> bool {
        self.inner.is_finished()
    }
    fn cwnd_bytes(&self) -> f64 {
        self.inner.cwnd_bytes()
    }
    fn retransmits(&self) -> u64 {
        self.inner.retransmits()
    }
    fn check_invariants(&self) -> Result<(), String> {
        self.inner.check_invariants()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::probe::{sample, Goodput};
    use netsim::SimResult;

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

    /// A 1048-byte data packet serializes in exactly 100 ns at this rate, so
    /// while the bottleneck stays busy it sends a packet off at every
    /// multiple of 100 ns, each 5 µs sample instant included.
    pub(crate) const ALIGNED: Rate = Rate::from_bps(83_840_000_000);

    /// Four Swift senders into the receiver at [`ALIGNED`] for 300 µs.
    pub(crate) fn incast() -> Micro {
        let mut m = Micro::build(&MicroEnv {
            rate: ALIGNED,
            end: Time::from_us(300),
            ..MicroEnv::default()
        });
        let swift = CcSpec::Swift {
            queuing: Time::from_us(4),
            scaling: false,
        };
        for s in 1..=4 {
            m.add_flow(s, 1_000_000, Time::ZERO, 0, 0, &swift);
        }
        m
    }

    pub(crate) fn with_both_probes(mut m: Micro) -> Micro {
        m.monitor_bottleneck_queue(Time::from_us(5));
        m.monitor_bottleneck_throughput(Time::from_us(5));
        m
    }

    /// Step `m` to its end: the state digest there, and the result.
    fn finish(mut m: Micro) -> (u64, SimResult) {
        m.sim.run_until(m.sim.config().end_time);
        (m.sim.state_digest(), m.sim.run())
    }

    /// Probing and metering change nothing the run does: the same records,
    /// counters and final state as the run without them.
    #[test]
    fn sampling_is_observation_only() {
        let (plain_digest, plain) = finish(incast());
        let mut probed = with_both_probes(incast());
        sample(&mut probed.sim, &mut probed.probes, &mut Goodput::new(4));
        let samples = probed.probes[0].series.len();
        assert_eq!(samples, 59, "one sample per 5 µs below 300 µs");
        let (digest, res) = finish(probed);
        assert_eq!(digest, plain_digest, "probing moved the state digest");
        assert_eq!(format!("{:?}", res.records), format!("{:?}", plain.records));
        assert_eq!(
            format!("{:?}", res.counters),
            format!("{:?}", plain.counters)
        );
    }

    /// Once the bottleneck is busy for good, every 5 µs at [`ALIGNED`] sends
    /// exactly 50 packets of 1048 bytes: line rate, 83.84 Gbit/s.
    #[test]
    fn throughput_matches_hand_computed_line_rate() {
        let series = with_both_probes(incast()).run().series;
        // The port starts sending at 3.1 µs: 19 packets by 5 µs.
        assert!((series[1].v[0] - 19.0 * 1048.0 * 8.0 / 5e3).abs() < 1e-9);
        for (t, gbps) in series[1].t_us.iter().zip(&series[1].v).skip(1) {
            assert!((gbps - 83.84).abs() < 1e-9, "{gbps} Gbit/s at {t} µs");
        }
    }

    /// Each sample is a delta of the port's cumulative counter: summed over
    /// the run they give back every byte it sent, none lost or doubled.
    #[test]
    fn throughput_deltas_sum_to_the_cumulative_counter() {
        let mut m = with_both_probes(incast());
        sample(&mut m.sim, &mut m.probes, &mut Goodput::new(4));
        let sent_bits = m.probes[1].series.v.iter().sum::<f64>() * 1e9 * 5e-6;
        let tx_bytes = m.sim.port(m.switch, m.bottleneck_port).tx_bytes;
        assert!(
            (sent_bits - tx_bytes as f64 * 8.0).abs() < 1e-3,
            "{sent_bits}"
        );
    }
}
