//! Periodic in-simulation samplers.

use simcore::stats::TimeSeries;
use simcore::Time;

use crate::packet::NodeId;

/// What a monitor samples.
#[derive(Clone, Copy, Debug)]
pub enum MonitorKind {
    /// Bytes queued on one egress port (all priorities).
    QueueBytes {
        /// Node owning the port.
        node: NodeId,
        /// Port index.
        port: u16,
    },
    /// Throughput of one egress port in Gbit/s over the sampling period.
    PortThroughput {
        /// Node owning the port.
        node: NodeId,
        /// Port index.
        port: u16,
    },
}

/// A periodic sampler registered with the simulator.
#[derive(Clone, Debug)]
pub struct Monitor {
    /// Human-readable label for result reporting.
    pub label: String,
    /// Sampled quantity.
    pub kind: MonitorKind,
    /// Sampling period.
    pub period: Time,
    /// Collected series.
    pub series: TimeSeries,
    /// Last cumulative tx-bytes reading (for throughput sampling).
    pub last_tx: u64,
}

impl Monitor {
    /// New monitor.
    pub fn new(label: impl Into<String>, kind: MonitorKind, period: Time) -> Self {
        Monitor {
            label: label.into(),
            kind,
            period,
            series: TimeSeries::new(),
            last_tx: 0,
        }
    }

    /// Record a gauge sample (queue depth).
    pub fn record_gauge(&mut self, now: Time, value: f64) {
        self.series.push(now, value);
    }

    /// Record a throughput sample from a cumulative tx-byte counter: the
    /// delta since the previous sample, expressed in Gbit/s over one
    /// sampling period. The first sample measures from a zero baseline.
    pub fn record_tx(&mut self, now: Time, cum_tx_bytes: u64) {
        let delta = cum_tx_bytes.saturating_sub(self.last_tx);
        self.last_tx = cum_tx_bytes;
        let gbps = delta as f64 * 8.0 / self.period.as_secs_f64() / 1e9;
        self.series.push(now, gbps);
    }
}

impl Monitor {
    /// What the monitor samples and how often, the reading the next
    /// throughput sample is a delta from, and the series so far. (The label
    /// is a display name: results carry it, no event reads it.)
    pub(crate) fn fold_digest(&self, fold: &mut impl FnMut(u64)) {
        let (tag, node, port) = match self.kind {
            MonitorKind::QueueBytes { node, port } => (1, node, port),
            MonitorKind::PortThroughput { node, port } => (3, node, port),
        };
        fold(tag << 56 | (port as u64) << 32 | node as u64);
        fold(self.period.as_ps());
        fold(self.last_tx);
        self.series.fold_digest(fold);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mon(kind: MonitorKind) -> Monitor {
        Monitor::new("m", kind, Time::from_us(10))
    }

    #[test]
    fn throughput_matches_hand_computed_line_rate() {
        // 125_000 B in 10 us = 1e11 bit/s = exactly 100 Gbit/s.
        let mut m = mon(MonitorKind::PortThroughput { node: 0, port: 0 });
        m.record_tx(Time::from_us(10), 125_000);
        assert!((m.series.v[0] - 100.0).abs() < 1e-9, "{}", m.series.v[0]);
        // Next period: port idle, counter unchanged -> 0 Gbit/s.
        m.record_tx(Time::from_us(20), 125_000);
        assert_eq!(m.series.v[1], 0.0);
        // Half-rate period.
        m.record_tx(Time::from_us(30), 125_000 + 62_500);
        assert!((m.series.v[2] - 50.0).abs() < 1e-9, "{}", m.series.v[2]);
    }

    #[test]
    fn throughput_deltas_sum_to_the_cumulative_counter() {
        let mut m = mon(MonitorKind::PortThroughput { node: 0, port: 0 });
        let readings = [10_000u64, 45_000, 45_000, 200_000, 201_500];
        for (i, &tx) in readings.iter().enumerate() {
            m.record_tx(Time::from_us(10 * (i as u64 + 1)), tx);
        }
        // sum(gbps_i) * period = total bytes * 8: no byte lost or doubled.
        let sum_gbps: f64 = m.series.v.iter().sum();
        let total_bits = sum_gbps * 1e9 * Time::from_us(10).as_secs_f64();
        assert!((total_bits - 201_500.0 * 8.0).abs() < 1e-6, "{total_bits}");
    }

    #[test]
    fn gauge_samples_pass_through_untouched() {
        let mut m = mon(MonitorKind::QueueBytes { node: 3, port: 0 });
        m.record_gauge(Time::from_us(1), 42.0);
        m.record_gauge(Time::from_us(2), 0.0);
        assert_eq!(m.series.t_us, vec![1.0, 2.0]);
        assert_eq!(m.series.v, vec![42.0, 0.0]);
    }

    #[test]
    fn counter_regression_is_not_negative_throughput() {
        let mut m = mon(MonitorKind::PortThroughput { node: 0, port: 0 });
        m.record_tx(Time::from_us(10), 1000);
        m.record_tx(Time::from_us(20), 500); // reset/regression
        assert_eq!(m.series.v[1], 0.0);
    }
}
