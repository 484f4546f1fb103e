//! Simulation-wide and per-switch configuration.

use simcore::{Rate, SchedKind, Time};

use crate::noise::NoiseModel;

/// Which physical priority ACKs travel in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AckPriority {
    /// ACKs use a dedicated highest control queue (the paper's default and
    /// the common practice in production data centers, §4.4).
    Control,
    /// ACKs share the data packet's priority queue ("PrioPlus*", Fig 16).
    SameAsData,
}

/// Deliberate switch fault injection ("buggify"), used to prove the audit
/// layer catches real accounting bugs. Always `None` in real runs; the
/// audit self-tests set one variant and assert a violation is reported.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Buggify {
    /// `on_dequeue` forgets to release shared-buffer/ingress accounting,
    /// leaking occupancy on every departure.
    DequeueLeak,
    /// The PFC pause check compares the threshold against the counter
    /// *before* the just-admitted packet (the classic off-by-one), so Xoff
    /// fires one packet late and headroom can be overdrawn.
    PfcPauseOffByOne,
    /// `ecn_mark` marks every data packet, even below `kmin`.
    EcnMarkBelowKmin,
    /// Data packets dropped on a downed link are counted in
    /// [`crate::record::SimCounters::fault_link_drops`] but never reported
    /// to the audit's conservation tallies, breaking the
    /// `drops + fault_link_drops == audited drops` identity.
    FaultDropUnaccounted,
    /// Flow completion skips releasing the flow's live state (transport +
    /// reassembly), leaking per-flow memory that the
    /// hyperscale scenarios depend on reclaiming. Caught by the audit's
    /// check of the flows the finishing event touched
    /// ([`crate::audit::ViolationKind::FlowStateLeak`]).
    FlowReclaimLeak,
}

/// Dynamic-Threshold alpha for egress admission (lossy drops).
pub(crate) const DT_ALPHA: f64 = 1.0;

/// Dynamic-Threshold alpha for the PFC ingress pause threshold. Real
/// deployments use a much smaller ingress alpha than the egress DT so that
/// pauses fire before the shared pool exhausts.
pub(crate) const PFC_ALPHA: f64 = 0.125;

/// PFC resume hysteresis: resume when ingress usage falls below
/// `pause_threshold - PFC_RESUME_OFFSET_BYTES`.
pub(crate) const PFC_RESUME_OFFSET_BYTES: u64 = 20_000;

/// Shared-buffer and scheduling configuration of a switch.
#[derive(Clone, Debug)]
pub struct SwitchConfig {
    /// Total shared buffer in bytes.
    pub buffer_bytes: u64,
    /// Enable PFC (lossless operation). When `false`, over-threshold packets
    /// are dropped (lossy mode, Fig 17).
    pub pfc_enabled: bool,
    /// Number of lossless priorities for which PFC headroom is reserved.
    /// Headroom is deducted from the usable shared buffer per port per
    /// priority — this is the buffer cost that limits physical priority
    /// counts (§2.2, Fig 11a).
    pub pfc_lossless_prios: u8,
    /// Headroom reserved per (port, lossless priority), in bytes. Sized to
    /// absorb in-flight data after a pause: 2× link BDP plus one MTU.
    pub pfc_headroom_bytes: u64,
    /// ECN marking: minimum threshold (bytes of the egress queue).
    pub ecn_kmin: u64,
    /// ECN marking: maximum threshold.
    pub ecn_kmax: u64,
    /// ECN marking probability at `kmax`.
    pub ecn_pmax: f64,
    /// Priority-scaled ECN (the Appendix B extension): the marking
    /// thresholds for a data packet become `kmin*(dscp+1)` /
    /// `kmax*(dscp+1)`, so lower-DSCP (lower virtual priority) flows see
    /// marks first and yield — virtual priority for ECN-based CCs, at the
    /// cost of a switch change (hence not "readily deployable", O3).
    pub ecn_prio_scaled: bool,
    /// Append INT telemetry to data packets (HPCC mode).
    pub int_enabled: bool,
    /// Extra non-congestive delay applied per data packet at egress,
    /// uniformly distributed (Fig 13); `None` disables it.
    pub nc_delay: Option<NoiseModel>,
    /// Fault injection for audit self-tests; `None` in every real run.
    pub buggify: Option<Buggify>,
}

impl Default for SwitchConfig {
    fn default() -> Self {
        SwitchConfig {
            buffer_bytes: 32 * 1024 * 1024,
            pfc_enabled: true,
            pfc_lossless_prios: 1,
            pfc_headroom_bytes: 100_000,
            // DCQCN-style defaults for 100G (HPCC paper parameters).
            ecn_kmin: 100_000,
            ecn_kmax: 400_000,
            ecn_pmax: 0.2,
            ecn_prio_scaled: false,
            int_enabled: false,
            nc_delay: None,
            buggify: None,
        }
    }
}

impl SwitchConfig {
    /// Usable shared buffer after PFC headroom reservation on `ports` ports.
    pub fn usable_buffer(&self, ports: usize) -> u64 {
        if !self.pfc_enabled {
            return self.buffer_bytes;
        }
        let headroom = self.pfc_headroom_bytes * self.pfc_lossless_prios as u64 * ports as u64;
        self.buffer_bytes.saturating_sub(headroom)
    }
}

/// Global simulation configuration.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Number of physical data priorities (queues per port, excluding the
    /// control queue).
    pub num_prios: u8,
    /// Payload bytes per full data segment (the paper uses 1 KB MTU with
    /// per-packet ACKs).
    pub mtu: u32,
    /// ACK priority policy.
    pub ack_prio: AckPriority,
    /// Delay-measurement noise model applied at the sender to every RTT
    /// sample.
    pub meas_noise: NoiseModel,
    /// Simulation end time; events after this are not processed.
    pub end_time: Time,
    /// Master seed.
    pub seed: u64,
    /// Selects nothing: the event queue has one backend.
    #[doc(hidden)]
    pub sched: SchedKind,
    /// Deterministic fault schedule (link flaps, degradation epochs, PFC
    /// pause storms). `None` — the default — runs fault-free and keeps
    /// every fault hook to one branch; an installed schedule also arms the
    /// PFC deadlock monitor the audit runs after every event.
    pub faults: Option<crate::faults::FaultSchedule>,
    /// Streaming-statistics mode (hyperscale runs): fold each completed
    /// flow's FCT/slowdown into integer-bucketed quantile sketches
    /// ([`crate::record::StreamingStats`]) at completion and return *empty*
    /// per-flow records in [`crate::record::SimResult`], so result assembly
    /// stays O(1) per flow instead of cloning an O(flows) record vector.
    pub streaming_stats: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            num_prios: 1,
            mtu: 1000,
            ack_prio: AckPriority::Control,
            meas_noise: NoiseModel::None,
            end_time: Time::from_ms(100),
            seed: 1,
            sched: SchedKind::default(),
            faults: None,
            streaming_stats: false,
        }
    }
}

/// Properties of one directional link attachment (rate + propagation).
#[derive(Clone, Copy, Debug)]
pub struct LinkSpec {
    /// Line rate.
    pub rate: Rate,
    /// One-way propagation delay.
    pub prop: Time,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn headroom_reduces_usable_buffer() {
        let cfg = SwitchConfig {
            buffer_bytes: 1_000_000,
            pfc_headroom_bytes: 100_000,
            pfc_lossless_prios: 2,
            ..Default::default()
        };
        assert_eq!(cfg.usable_buffer(4), 1_000_000 - 100_000 * 2 * 4);
    }

    #[test]
    fn lossy_mode_ignores_headroom() {
        let cfg = SwitchConfig {
            buffer_bytes: 1_000_000,
            pfc_enabled: false,
            pfc_lossless_prios: 8,
            ..Default::default()
        };
        assert_eq!(cfg.usable_buffer(64), 1_000_000);
    }

    #[test]
    fn headroom_saturates_at_zero() {
        let cfg = SwitchConfig {
            buffer_bytes: 100,
            pfc_headroom_bytes: 100_000,
            pfc_lossless_prios: 8,
            ..Default::default()
        };
        assert_eq!(cfg.usable_buffer(64), 0);
    }
}
