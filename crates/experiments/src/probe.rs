//! Reading a simulation while it runs, from outside the simulator.
//!
//! [`run`] steps a prepared [`Sim`] (a [`crate::micro::Micro`]'s, or a
//! fabric scenario's: `probe::run(flowsched::prepare(&cfg), probes)`) with
//! [`Sim::run_until`] to every instant a reading is due below its end, then
//! finishes it with [`Sim::run`]. A reading at `t` sees every event before
//! `t` and none at `t`, and only reads: the run dispatches the events of an
//! unprobed one. Under the audit, each stop runs its O(state) scan.
//!
//! A [`Probe`] reads one egress port every period. Each flow registered
//! before the run is metered: its cumulative [`netsim::FlowRecord::delivered`]
//! is read at each multiple of [`GOODPUT_BUCKET`] below the end and once
//! after it, and the bytes gained between two readings go to the bucket
//! that starts at the first, so a delivery at `t` lands in bucket
//! `t / GOODPUT_BUCKET`, where [`ThroughputMeter::record`] would put it.

use netsim::{NodeId, Sim, SimResult};
use simcore::stats::{ThroughputMeter, TimeSeries};
use simcore::Time;

/// Bucket of each flow's goodput meter ([`Probed::goodput`]).
pub const GOODPUT_BUCKET: Time = Time::from_us(20);

/// A periodic reading of one egress port: its backlog, or its throughput
/// in Gbit/s over one period from the cumulative `tx_bytes`.
pub struct Probe {
    node: NodeId,
    port: u16,
    throughput: bool,
    period: Time,
    /// The next sample instant.
    next: Time,
    /// `tx_bytes` at the previous sample (0 before the first).
    last_tx: u64,
    pub(crate) series: TimeSeries,
}

impl Probe {
    /// Sample the queued bytes (all priorities) of `sim`'s egress `port` of
    /// `node` every `period`. Panics if `period` is zero (the run would step
    /// one instant forever) or `sim` has no such port ([`Sim::port`]).
    pub fn queue(sim: &Sim, node: NodeId, port: u16, period: Time) -> Probe {
        Probe::new(sim, node, port, false, period)
    }

    /// Sample the throughput in Gbit/s over each `period` of `sim`'s egress
    /// `port` of `node`, refused as [`Probe::queue`] refuses.
    pub fn throughput(sim: &Sim, node: NodeId, port: u16, period: Time) -> Probe {
        Probe::new(sim, node, port, true, period)
    }

    fn new(sim: &Sim, node: NodeId, port: u16, throughput: bool, period: Time) -> Probe {
        let zero = "probe period = 0: it would step the same instant forever";
        assert!(period > Time::ZERO, "{zero}");
        sim.port(node, port); // refuses a node or port `sim` lacks
        Probe {
            node,
            port,
            throughput,
            period,
            next: period,
            last_tx: 0,
            series: TimeSeries::new(),
        }
    }
}

/// Each flow's goodput meter, fed from its cumulative `delivered` read at
/// every bucket boundary.
pub(crate) struct Goodput {
    /// Start of the bucket the bytes since the last reading go to.
    from: Time,
    /// Each flow's `delivered` at the last reading.
    last: Vec<u64>,
    meters: Vec<ThroughputMeter>,
}

impl Goodput {
    pub(crate) fn new(flows: usize) -> Self {
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

/// What [`run`] returns.
pub struct Probed {
    /// The simulation's result.
    pub res: SimResult,
    /// The probes' series, in the order [`run`] took them.
    pub series: Vec<TimeSeries>,
    /// The receiver goodput of each flow registered before the run, indexed
    /// by flow id, in [`GOODPUT_BUCKET`]s.
    pub goodput: Vec<ThroughputMeter>,
}

/// Run `sim` to completion. Every probe samples at each multiple of its
/// period strictly below the end of the run, and every flow registered so
/// far is metered (see the module doc).
///
/// # Panics
/// Panics if the clock of `sim` (stepped by hand) has already reached the
/// first sample or meter reading: that reading would see later state.
pub fn run(mut sim: Sim, mut probes: Vec<Probe>) -> Probed {
    let mut goodput = Goodput::new(sim.flows_registered() as usize);
    sample(&mut sim, &mut probes, &mut goodput);
    let res = sim.run();
    goodput.read(res.records.iter().map(|r| r.delivered));
    Probed {
        res,
        series: probes.into_iter().map(|p| p.series).collect(),
        goodput: goodput.meters,
    }
}

/// Step `sim` to every sample instant and bucket boundary before its end,
/// taking the probes and meter readings due there.
pub(crate) fn sample(sim: &mut Sim, probes: &mut [Probe], goodput: &mut Goodput) {
    let due = |probes: &[Probe], goodput: &Goodput| {
        let probes = probes.iter().map(|p| p.next);
        probes.fold(goodput.next(), Time::min)
    };
    let (now, first) = (sim.now(), due(probes, goodput));
    assert!(
        now < first,
        "probe::run: the clock is at {now}, not before the first sample at {first}"
    );
    let end = sim.config().end_time;
    loop {
        let t = due(probes, goodput);
        if t >= end {
            break;
        }
        sim.run_until(t);
        if goodput.next() == t {
            let flows = 0..goodput.meters.len() as u32;
            goodput.read(flows.map(|f| sim.record(f).delivered));
        }
        for p in probes.iter_mut().filter(|p| p.next == t) {
            let port = sim.port(p.node, p.port);
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::micro::tests::{incast, with_both_probes};

    #[test]
    #[should_panic(expected = "Sim::port: node = 99 is out of range")]
    fn a_probe_on_a_nonexistent_node_is_refused() {
        let m = incast();
        Probe::queue(&m.sim, 99, 0, Time::from_us(5));
    }

    #[test]
    #[should_panic(expected = "Sim::port: port = 9 is out of range")]
    fn a_probe_on_a_nonexistent_port_is_refused() {
        let m = incast();
        Probe::throughput(&m.sim, m.switch, 9, Time::from_us(5));
    }

    /// A sample at `t` reads the port as `run_until(t)` leaves it: after
    /// every event before `t`, before the dequeues that
    /// `micro::tests::ALIGNED` puts at `t`.
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

    /// The bucket rule: a delivery at exactly `k · GOODPUT_BUCKET` lands in
    /// bucket `k`, where [`ThroughputMeter::record`] puts it. The reference
    /// steps the run by hand to every multiple of 100 ns and to 1 ps past
    /// each boundary, and records what each step delivered at the step's
    /// start: every delivery it covers falls in that start's bucket. At
    /// `micro::tests::ALIGNED` the receiver takes packets exactly at the
    /// boundaries.
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
    #[should_panic(expected = "probe period = 0: it would step the same instant forever")]
    fn probe_with_a_zero_period_is_refused() {
        incast().monitor_bottleneck_queue(Time::ZERO);
    }

    /// `sim`, stepped by hand past the first sample instant, already holds
    /// later state than that sample should read.
    #[test]
    #[should_panic(expected = "probe::run: the clock is at")]
    fn run_past_the_first_sample_instant_is_refused() {
        let mut m = with_both_probes(incast());
        m.sim.run_until(Time::from_us(20));
        m.run();
    }

    /// The first meter reading, at `GOODPUT_BUCKET`, is due even without
    /// probes; `sim` stepped past it holds later state than it should read.
    #[test]
    #[should_panic(expected = "probe::run: the clock is at")]
    fn run_past_the_first_meter_reading_is_refused() {
        let mut m = incast();
        m.sim.run_until(Time::from_us(21));
        m.run();
    }
}
