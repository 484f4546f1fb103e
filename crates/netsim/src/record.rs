//! Results of a simulation run.

use simcore::stats::QuantileSketch;
use simcore::{Rate, Time};

use crate::packet::{FlowId, NodeId};

/// Outcome of one flow.
#[derive(Clone, Debug)]
pub struct FlowRecord {
    /// Flow id.
    pub flow: FlowId,
    /// Source host.
    pub src: NodeId,
    /// Destination host.
    pub dst: NodeId,
    /// Flow size in bytes.
    pub size: u64,
    /// Physical priority queue used.
    pub phys_prio: u8,
    /// Virtual priority (PrioPlus channel).
    pub virt_prio: u8,
    /// User tag (coflow id, job id, size class, ...).
    pub tag: u64,
    /// Start time.
    pub start: Time,
    /// Completion (receiver got the last byte); `None` if censored by the
    /// simulation end.
    pub finish: Option<Time>,
    /// Payload bytes delivered to the receiver.
    pub delivered: u64,
    /// Data packets retransmitted by the sender.
    pub retransmits: u64,
    /// Base (no-queue) RTT of the flow's path.
    pub base_rtt: Time,
    /// Line rate of the sender's NIC.
    pub line_rate: Rate,
}

impl FlowRecord {
    /// Flow completion time, if the flow finished.
    pub fn fct(&self) -> Option<Time> {
        self.finish.map(|f| f - self.start)
    }

    /// Ideal FCT: base RTT for the first byte round plus serialization of
    /// the whole flow at `rate` (the standard store-and-forward ideal used
    /// for slowdown normalization).
    pub fn ideal_fct(&self, rate: Rate, base_rtt: Time) -> Time {
        base_rtt + rate.serialize_time(self.size)
    }

    /// FCT slowdown relative to the ideal; `None` when unfinished.
    pub fn slowdown(&self, rate: Rate, base_rtt: Time) -> Option<f64> {
        let fct = self.fct()?;
        let ideal = self.ideal_fct(rate, base_rtt);
        Some(fct.as_ps() as f64 / ideal.as_ps() as f64)
    }

    /// FCT slowdown using the flow's own recorded path parameters.
    pub fn slowdown_auto(&self) -> Option<f64> {
        self.slowdown(self.line_rate, self.base_rtt)
    }
}

pub use crate::counters::SimCounters;

/// Streaming run statistics ([`crate::SimConfig::streaming_stats`]):
/// integer-bucketed quantile sketches folded at flow completion, replacing
/// the per-flow sample vectors experiments otherwise build from
/// [`SimResult::records`]. All fields are order-independent integer state,
/// so a run's `StreamingStats` does not depend on the order flows complete
/// in (pinned by the sketch differential fleet).
#[derive(Clone, Debug, Default)]
pub struct StreamingStats {
    /// FCT sketch over all completed flows, in picoseconds.
    pub fct_ps: QuantileSketch,
    /// FCT slowdown (vs each flow's own ideal) in milli-units
    /// (`slowdown * 1000` truncated), over all completed flows.
    pub slowdown_milli: QuantileSketch,
    /// Per-virtual-priority FCT sketches (ps), indexed by `virt_prio`;
    /// grown on demand.
    pub fct_ps_by_virt: Vec<QuantileSketch>,
    /// Flows completed (== total sketch sample count).
    pub finished: u64,
    /// Payload bytes delivered by completed flows.
    pub finished_bytes: u64,
}

impl StreamingStats {
    /// Fold one completed flow.
    pub fn on_complete(&mut self, record: &FlowRecord, finish: Time) {
        let fct = (finish - record.start).as_ps();
        self.fct_ps.add(fct);
        let ideal = record.ideal_fct(record.line_rate, record.base_rtt);
        let slowdown_milli = (fct as u128 * 1000 / ideal.as_ps().max(1) as u128) as u64;
        self.slowdown_milli.add(slowdown_milli);
        let v = record.virt_prio as usize;
        if v >= self.fct_ps_by_virt.len() {
            self.fct_ps_by_virt.resize_with(v + 1, QuantileSketch::new);
        }
        self.fct_ps_by_virt[v].add(fct);
        self.finished += 1;
        self.finished_bytes += record.size;
    }

    /// Order-independent fingerprint of the whole streaming state, for
    /// bit-identity assertions between runs; [`crate::Sim::state_digest`]
    /// folds it too.
    pub fn fingerprint(&self) -> u64 {
        let mut h = self.fct_ps.fingerprint() ^ self.finished.rotate_left(17);
        h ^= self.slowdown_milli.fingerprint().rotate_left(31);
        h ^= self.finished_bytes.rotate_left(47);
        for (i, s) in self.fct_ps_by_virt.iter().enumerate() {
            h ^= s.fingerprint().rotate_left((i % 63) as u32 + 1);
        }
        h
    }
}

/// Everything a run produces.
#[derive(Debug)]
pub struct SimResult {
    /// Per-flow outcomes, indexed by flow id.
    pub records: Vec<FlowRecord>,
    /// Aggregate counters.
    pub counters: SimCounters,
    /// Time the simulation stopped.
    pub end_time: Time,
    /// Invariant-audit report; `Some` when the audit layer was enabled for
    /// the run ([`crate::sim::Sim::enable_audit`]).
    pub audit: Option<crate::audit::AuditReport>,
    /// Streaming statistics; `Some` when
    /// [`crate::SimConfig::streaming_stats`] was on (then `records` is
    /// empty — quantiles come from the sketches instead).
    pub streaming: Option<Box<StreamingStats>>,
}

impl SimResult {
    /// All finished flows.
    pub fn finished(&self) -> impl Iterator<Item = &FlowRecord> {
        self.records.iter().filter(|r| r.finish.is_some())
    }

    /// Fraction of flows that finished (1 for a run without flows). A
    /// streaming run keeps no records, so its ratio comes from the
    /// completion count and the flow counter.
    pub fn completion_rate(&self) -> f64 {
        let (finished, total) = match &self.streaming {
            Some(st) => (st.finished, self.counters.flows_total),
            None => (self.finished().count() as u64, self.records.len() as u64),
        };
        if total == 0 {
            return 1.0;
        }
        finished as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(size: u64, start: Time, finish: Option<Time>) -> FlowRecord {
        FlowRecord {
            flow: 0,
            src: 0,
            dst: 1,
            size,
            phys_prio: 0,
            virt_prio: 0,
            tag: 0,
            start,
            finish,
            delivered: size,
            retransmits: 0,
            base_rtt: Time::from_us(12),
            line_rate: Rate::from_gbps(100),
        }
    }

    #[test]
    fn fct_and_slowdown() {
        let r = rec(150_000, Time::from_us(10), Some(Time::from_us(40)));
        assert_eq!(r.fct(), Some(Time::from_us(30)));
        // Ideal at 100G: 12us rtt + 12us serialization = 24us -> slowdown 1.25.
        let s = r.slowdown(Rate::from_gbps(100), Time::from_us(12)).unwrap();
        assert!((s - 30.0 / 24.0).abs() < 1e-9);
    }

    #[test]
    fn censored_flow_has_no_fct() {
        let r = rec(1000, Time::ZERO, None);
        assert!(r.fct().is_none());
        assert!(r
            .slowdown(Rate::from_gbps(100), Time::from_us(12))
            .is_none());
    }
}
