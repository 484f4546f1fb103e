//! Single-bottleneck micro-benchmark environment (§3, §5, §6.1).
//!
//! N sender hosts and one receiver hang off a single switch; the
//! switch→receiver port is the bottleneck. 100 Gbps links with 3 µs latency
//! give the paper's ≈ 12 µs data-packet RTT.
//!
//! The bottleneck's queue and throughput over time (Fig 3c/d, Fig 10b–d,
//! App. D) are read by probes that [`Micro::run`] takes between
//! [`Sim::run_until`] steps. A probe at instant `t` reads the port after
//! every event strictly before `t` and before any event at `t`.
//!
//! Each flow's goodput over time (Fig 3, 8, 10a, App. B) is metered on the
//! same steps: [`Micro::run`] reads every flow's cumulative
//! [`netsim::FlowRecord::delivered`] at each multiple of [`GOODPUT_BUCKET`]
//! below the end of the run and once after it, and credits the bytes a
//! flow gained between two readings to the bucket that starts at the
//! first. A delivery at `t` thus lands in bucket `t / GOODPUT_BUCKET`,
//! where [`ThroughputMeter::record`] would put it.

use std::cell::RefCell;
use std::rc::Rc;

use netsim::{
    AckEvent, FaultSchedule, FlowParams, FlowSpec, NoiseModel, Sim, SimConfig, SimResult,
    SwitchConfig, Topology, Transport, TransportCtx, TrySend,
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

/// Bucket of each flow's goodput meter ([`MicroRun::goodput`]).
pub const GOODPUT_BUCKET: Time = Time::from_us(20);

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

/// A periodic reading of the bottleneck port: its backlog, or its
/// throughput in Gbit/s over one period from the cumulative `tx_bytes`.
struct Probe {
    throughput: bool,
    period: Time,
    /// The next sample instant.
    next: Time,
    /// `tx_bytes` at the previous sample (0 before the first).
    last_tx: u64,
    series: TimeSeries,
}

/// Each flow's goodput meter, fed from its cumulative `delivered` read at
/// every bucket boundary.
struct Goodput {
    /// Start of the bucket the bytes since the last reading go to.
    from: Time,
    /// Each flow's `delivered` at the last reading.
    last: Vec<u64>,
    meters: Vec<ThroughputMeter>,
}

impl Goodput {
    fn new(flows: usize) -> Self {
        Goodput {
            from: Time::ZERO,
            last: vec![0; flows],
            meters: vec![ThroughputMeter::new(GOODPUT_BUCKET); flows],
        }
    }

    /// The next bucket boundary.
    fn next(&self) -> Time {
        self.from + GOODPUT_BUCKET
    }

    /// Credit what each flow delivered since the last reading to the
    /// current bucket, then move on to the next one.
    fn read(&mut self, delivered: impl Iterator<Item = u64>) {
        let flows = self.meters.iter_mut().zip(&mut self.last);
        for ((meter, last), now) in flows.zip(delivered) {
            if now > *last {
                meter.record(self.from, now - *last);
                *last = now;
            }
        }
        self.from = self.next();
    }
}

/// What [`Micro::run`] returns.
pub struct MicroRun {
    /// The simulation's result.
    pub res: SimResult,
    /// The probes' series, in registration order.
    pub series: Vec<TimeSeries>,
    /// The receiver goodput of each flow registered before the run, indexed
    /// by flow id, in [`GOODPUT_BUCKET`]s.
    pub goodput: Vec<ThroughputMeter>,
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
        self.add_probe(false, period)
    }

    /// Sample the bottleneck's throughput in Gbit/s over each `period`, as
    /// [`Self::monitor_bottleneck_queue`] samples its queue.
    pub fn monitor_bottleneck_throughput(&mut self, period: Time) -> usize {
        self.add_probe(true, period)
    }

    fn add_probe(&mut self, throughput: bool, period: Time) -> usize {
        assert!(
            period > Time::ZERO,
            "Micro probe period = 0: it would step the same instant forever"
        );
        self.probes.push(Probe {
            throughput,
            period,
            next: period,
            last_tx: 0,
            series: TimeSeries::new(),
        });
        self.probes.len() - 1
    }

    /// Run to completion. Every probe samples at each multiple of its period
    /// strictly below the end of the run, and every flow registered so far
    /// is metered (see the module doc).
    ///
    /// # Panics
    /// Panics if the clock of `sim` (stepped by hand) has already reached
    /// the first sample or meter reading: that reading would see later
    /// state.
    pub fn run(mut self) -> MicroRun {
        let mut goodput = Goodput::new(self.sim.flows_registered() as usize);
        let series = self.sample(&mut goodput);
        let res = self.sim.run();
        goodput.read(res.records.iter().map(|r| r.delivered));
        MicroRun {
            res,
            series,
            goodput: goodput.meters,
        }
    }

    /// Step the run to every sample instant and bucket boundary before its
    /// end, taking the probes and meter readings due there; the probes'
    /// series, in registration order.
    fn sample(&mut self, goodput: &mut Goodput) -> Vec<TimeSeries> {
        let due = |probes: &[Probe], goodput: &Goodput| {
            let probes = probes.iter().map(|p| p.next);
            probes.fold(goodput.next(), Time::min)
        };
        let (now, first) = (self.sim.now(), due(&self.probes, goodput));
        assert!(
            now < first,
            "Micro::run: the clock is at {now}, not before the first sample at {first}"
        );
        let end = self.sim.config().end_time;
        loop {
            let t = due(&self.probes, goodput);
            if t >= end {
                break;
            }
            self.sim.run_until(t);
            if goodput.next() == t {
                let flows = 0..goodput.meters.len() as u32;
                goodput.read(flows.map(|f| self.sim.record(f).delivered));
            }
            let port = self.sim.port(self.switch, self.bottleneck_port);
            for p in self.probes.iter_mut().filter(|p| p.next == t) {
                let value = if p.throughput {
                    let delta = port.tx_bytes - p.last_tx;
                    p.last_tx = port.tx_bytes;
                    delta as f64 * 8.0 / p.period.as_secs_f64() / 1e9
                } else {
                    port.queued_bytes as f64
                };
                p.series.push(t, value);
                p.next = t + p.period;
            }
        }
        self.probes.drain(..).map(|p| p.series).collect()
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
/// meters in `goodput` ([`MicroRun::goodput`]).
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

    /// A 1048-byte data packet serializes in exactly 100 ns at this rate, so
    /// while the bottleneck stays busy it sends a packet off at every
    /// multiple of 100 ns, each 5 µs sample instant included.
    const ALIGNED: Rate = Rate::from_bps(83_840_000_000);

    /// Four Swift senders into the receiver at [`ALIGNED`] for 300 µs.
    fn incast() -> Micro {
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

    fn with_both_probes(mut m: Micro) -> Micro {
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
        let series = probed.sample(&mut Goodput::new(4));
        assert_eq!(series[0].len(), 59, "one sample per 5 µs below 300 µs");
        let (digest, res) = finish(probed);
        assert_eq!(digest, plain_digest, "probing moved the state digest");
        assert_eq!(format!("{:?}", res.records), format!("{:?}", plain.records));
        assert_eq!(
            format!("{:?}", res.counters),
            format!("{:?}", plain.counters)
        );
    }

    /// A sample at `t` reads the port as `run_until(t)` leaves it: after
    /// every event before `t`, before the dequeues [`ALIGNED`] puts at `t`.
    #[test]
    fn a_probe_reads_the_port_before_the_events_at_its_instant() {
        let series = with_both_probes(incast()).run().series;
        let mut by_hand = incast();
        let period = Time::from_us(5);
        let mut last_tx = 0;
        for (k, (q, gbps)) in series[0].v.iter().zip(&series[1].v).enumerate() {
            let t = Time::from_us(5 * (k as u64 + 1));
            by_hand.sim.run_until(t);
            let port = by_hand.sim.port(by_hand.switch, by_hand.bottleneck_port);
            let delta = port.tx_bytes - last_tx;
            last_tx = port.tx_bytes;
            assert_eq!(*q, port.queued_bytes as f64, "queue at {t}");
            assert_eq!(
                *gbps,
                delta as f64 * 8.0 / period.as_secs_f64() / 1e9,
                "throughput at {t}"
            );
        }
        assert!(series[0].v.iter().any(|&q| q > 0.0), "no backlog sampled");
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
        let series = m.sample(&mut Goodput::new(4));
        let sent_bits = series[1].v.iter().sum::<f64>() * 1e9 * 5e-6;
        let tx_bytes = m.sim.port(m.switch, m.bottleneck_port).tx_bytes;
        assert!(
            (sent_bits - tx_bytes as f64 * 8.0).abs() < 1e-3,
            "{sent_bits}"
        );
    }

    /// The bucket rule: a delivery at exactly `k · GOODPUT_BUCKET` lands in
    /// bucket `k`, where [`ThroughputMeter::record`] puts it. The reference
    /// steps the run by hand to every multiple of 100 ns and to 1 ps past
    /// each boundary, and records what each step delivered at the step's
    /// start: every delivery it covers falls in that start's bucket. At
    /// [`ALIGNED`] the receiver takes packets exactly at the boundaries.
    #[test]
    fn a_delivery_on_a_bucket_boundary_lands_in_the_bucket_it_starts() {
        let run = incast().run();
        let mut by_hand = incast();
        let mut reference = vec![ThroughputMeter::new(GOODPUT_BUCKET); 4];
        let mut last = [0u64; 4];
        let (mut from, mut on_boundary) = (Time::ZERO, 0);
        let boundary = |t: Time| t.as_ps().is_multiple_of(GOODPUT_BUCKET.as_ps());
        let steps = (1..3_000).map(|k| Time::from_ns(100 * k));
        let steps = steps.flat_map(|t| [Some(t), boundary(t).then(|| t + Time::from_ps(1))]);
        for to in steps.flatten().chain([Time::from_us(300)]) {
            by_hand.sim.run_until(to);
            for (f, (meter, last)) in reference.iter_mut().zip(&mut last).enumerate() {
                let now = by_hand.sim.record(f as u32).delivered;
                if now > *last {
                    meter.record(from, now - *last);
                    on_boundary += (to - from == Time::from_ps(1)) as usize;
                    *last = now;
                }
            }
            from = to;
        }
        assert!(on_boundary > 0, "no delivery on a bucket boundary");
        assert_eq!(format!("{:?}", run.goodput), format!("{reference:?}"));
        let records = run.res.records.iter();
        let delivered = records.map(|r| r.delivered).collect::<Vec<_>>();
        assert_eq!(delivered, last, "the reference saw every byte");
    }

    /// It would step the same instant forever.
    #[test]
    #[should_panic(expected = "Micro probe period = 0: it would step the same instant forever")]
    fn probe_with_a_zero_period_is_refused() {
        incast().monitor_bottleneck_queue(Time::ZERO);
    }

    /// `sim`, stepped by hand past the first sample instant, already holds
    /// later state than that sample should read.
    #[test]
    #[should_panic(expected = "Micro::run: the clock is at")]
    fn run_past_the_first_sample_instant_is_refused() {
        let mut m = with_both_probes(incast());
        m.sim.run_until(Time::from_us(20));
        m.run();
    }

    /// The first meter reading, at `GOODPUT_BUCKET`, is due even without
    /// probes; `sim` stepped past it holds later state than it should read.
    #[test]
    #[should_panic(expected = "Micro::run: the clock is at")]
    fn run_past_the_first_meter_reading_is_refused() {
        let mut m = incast();
        m.sim.run_until(Time::from_us(21));
        m.run();
    }
}
