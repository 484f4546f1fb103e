//! Hybrid packet/fluid scenario runner.
//!
//! Runs the same single-bottleneck scenario two ways from one shared
//! background arrival trace:
//!
//! - [`HybridMode::PacketRef`] — every background flow is a packet-level
//!   blast sender from a dedicated host, sharing the bottleneck queue with
//!   the foreground (the reference the hybrid model is validated against);
//! - [`HybridMode::Fluid`] — background flows become piecewise-constant
//!   fluid injectors at the bottleneck port ([`netsim::fluid`]); only the
//!   foreground is simulated packet-by-packet.
//!
//! Both modes build identical topologies (foreground *and* background
//! hosts exist in both, so per-flow path parameters match) and add
//! foreground flows first, so foreground flow ids — and therefore records —
//! line up index-for-index across modes. The acceptance comparisons
//! (`event_reduction`, foreground-FCT delta) read straight off the two
//! [`HybridOutcome`]s.

use netsim::fluid::BackgroundLoad;
use netsim::{
    AuditConfig, FlowRecord, FlowSpec, NoiseModel, SchedKind, Sim, SimConfig, SimResult,
    SwitchConfig, Topology,
};
use simcore::{Rate, Time};
use transport::CcSpec;
use workloads::background::BackgroundSpec;
use workloads::websearch::SizeDist;

/// How background traffic is modeled.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HybridMode {
    /// Packet-level blast senders (reference).
    PacketRef,
    /// Fluid injectors at the bottleneck (hybrid).
    Fluid,
}

/// Foreground traffic pattern on the shared bottleneck.
#[derive(Clone, Copy, Debug)]
pub enum Foreground {
    /// Synchronized incast: every foreground sender starts one flow of
    /// `size` bytes at `start`.
    Incast {
        /// Flow size per sender.
        size: u64,
        /// Common start time.
        start: Time,
    },
    /// Open-loop WebSearch arrivals at `load` utilization of the
    /// bottleneck, round-robin over the foreground senders.
    WebSearch {
        /// Target foreground utilization (0..1).
        load: f64,
        /// Arrival-trace seed (independent of the background seed).
        seed: u64,
    },
}

/// One hybrid scenario: topology, foreground pattern, background load.
#[derive(Clone, Debug)]
pub struct HybridScenario {
    /// Foreground sender hosts (receiver is host 0).
    pub fg_senders: usize,
    /// Background sender hosts (packet reference only sends from them; the
    /// fluid run keeps them idle so both topologies are identical).
    pub bg_hosts: usize,
    /// Link rate everywhere.
    pub rate: Rate,
    /// One-way link latency.
    pub prop: Time,
    /// Simulation horizon.
    pub end: Time,
    /// Simulator seed.
    pub seed: u64,
    /// Background utilization of the bottleneck (0..1).
    pub bg_load: f64,
    /// Background arrival-trace seed.
    pub bg_seed: u64,
    /// Foreground pattern.
    pub foreground: Foreground,
    /// Foreground congestion control.
    pub cc: CcSpec,
    /// Event-scheduler backend.
    pub sched: SchedKind,
    /// Switch overrides.
    pub switch: SwitchConfig,
}

impl HybridScenario {
    /// Incast preset: 8 foreground senders × 1 MB Swift flows starting at
    /// 100 µs over `bg_load` background, 100 Gbps, 8 ms horizon.
    ///
    /// Eight synchronized senders keep the packet reference dynamically
    /// stable: at 16+ senders the per-flow fair share drops to a
    /// few-packet congestion window where delay-based Swift is bistable —
    /// the reference's foreground FCT swings ~5× under microscopic
    /// background-seed perturbations, so no network model can be
    /// meaningfully validated against it there.
    pub fn incast(bg_load: f64) -> Self {
        HybridScenario {
            fg_senders: 8,
            bg_hosts: 4,
            rate: Rate::from_gbps(100),
            prop: Time::from_us(3),
            end: Time::from_ms(8),
            seed: 21,
            bg_load,
            bg_seed: 91,
            foreground: Foreground::Incast {
                size: 1_000_000,
                start: Time::from_us(100),
            },
            cc: CcSpec::Swift {
                queuing: Time::from_us(4),
                scaling: true,
            },
            sched: SchedKind::from_env(),
            switch: SwitchConfig::default(),
        }
    }

    /// WebSearch preset: open-loop foreground at 20 % load over `bg_load`
    /// background, 100 Gbps, 8 ms horizon.
    pub fn websearch(bg_load: f64) -> Self {
        HybridScenario {
            foreground: Foreground::WebSearch { load: 0.2, seed: 55 },
            ..HybridScenario::incast(bg_load)
        }
    }

    /// Background flow-size distribution: bounded 20 KB–500 KB (mean
    /// 180 KB). The WebSearch distribution's 30 MB tail needs seconds of
    /// trace for the offered load to concentrate at its target; over a
    /// millisecond horizon one elephant draw doubles the realized load
    /// and saturates both modes. A bounded distribution keeps the
    /// realized load within a few percent of `bg_load` so the
    /// acceptance comparison measures the model, not sampling noise.
    fn bg_dist() -> SizeDist {
        SizeDist::new(&[(20_000, 0.0), (100_000, 0.5), (500_000, 1.0)])
    }

    /// The shared background arrival trace, `(start, payload_bytes)`
    /// sorted by start. Both modes consume exactly this list.
    pub fn bg_trace(&self) -> Vec<(Time, u64)> {
        BackgroundSpec::new(Self::bg_dist(), self.bg_load, self.bg_seed).sample_port(
            0,
            self.rate,
            self.end,
        )
    }

    fn fg_flows(&self) -> Vec<FlowSpec> {
        match self.foreground {
            Foreground::Incast { size, start } => (1..=self.fg_senders)
                .map(|s| FlowSpec {
                    src: s as u32,
                    dst: 0,
                    size,
                    start,
                    phys_prio: 0,
                    virt_prio: 0,
                    tag: 0,
                })
                .collect(),
            Foreground::WebSearch { load, seed } => {
                // Reuse the background generator (it is just "Poisson
                // arrivals at a load") on an independent stream, then
                // round-robin the arrivals over the foreground senders.
                let trace = BackgroundSpec::new(SizeDist::websearch(), load, seed)
                    .sample_port(1, self.rate, self.end);
                trace
                    .into_iter()
                    .enumerate()
                    .map(|(i, (start, size))| FlowSpec {
                        src: (i % self.fg_senders) as u32 + 1,
                        dst: 0,
                        size,
                        start,
                        phys_prio: 0,
                        virt_prio: 0,
                        tag: 0,
                    })
                    .collect()
            }
        }
    }

    /// Build and run one mode. `audit` enables the invariant audit layer
    /// (including the fluid mass-conservation deep scan) with the given
    /// deep-scan period.
    pub fn run(&self, mode: HybridMode, audit: Option<AuditConfig>) -> HybridOutcome {
        let hosts = self.fg_senders + self.bg_hosts;
        let topo = Topology::single_switch(hosts, self.rate, self.prop);
        let switch = hosts as u32 + 1; // hosts 0..=hosts, then the switch
        let bottleneck: u16 = 0; // switch port toward host 0 (the receiver)
        let trace = self.bg_trace();
        let background = match mode {
            HybridMode::PacketRef => None,
            // Fluid arrivals mirror what the reference blast hosts put on
            // the wire: per-MTU header overhead and one flow per access
            // link at a time.
            HybridMode::Fluid => Some(BackgroundLoad::from_shared_hosts(
                (switch, bottleneck),
                &trace,
                self.bg_hosts,
                self.rate.as_bps(),
                SimConfig::default().mtu,
            )),
        };
        let cfg = SimConfig {
            num_prios: 1,
            end_time: self.end,
            seed: self.seed,
            meas_noise: NoiseModel::None,
            trace_flows: false,
            sched: self.sched,
            background,
            ..Default::default()
        };
        let mut sim = Sim::new(&topo, cfg, self.switch.clone());
        if let Some(acfg) = audit {
            sim.enable_audit_with(acfg);
        }
        // Foreground first: ids 0..fg_flows match across modes.
        let fg = self.fg_flows();
        let fg_flows = fg.len();
        for spec in fg {
            let start = spec.start;
            sim.add_flow(spec, |p| self.cc.make(p, start));
        }
        if mode == HybridMode::PacketRef {
            // Background blast senders, round-robin over the dedicated
            // background hosts — same (start, bytes) list the fluid run
            // injects at the bottleneck.
            for (i, &(start, size)) in trace.iter().enumerate() {
                let spec = FlowSpec {
                    src: (self.fg_senders + 1 + i % self.bg_hosts) as u32,
                    dst: 0,
                    size,
                    start,
                    phys_prio: 0,
                    virt_prio: 0,
                    tag: 1,
                };
                sim.add_flow(spec, |p| CcSpec::Blast.make(p, start));
            }
        }
        HybridOutcome {
            result: sim.run(),
            fg_flows,
        }
    }
}

/// One mode's run: full result plus the foreground-record split.
pub struct HybridOutcome {
    /// The full simulation result (foreground records first).
    pub result: SimResult,
    /// Number of foreground flows (records `0..fg_flows`).
    pub fg_flows: usize,
}

impl HybridOutcome {
    /// Foreground flow records (ids line up across modes).
    pub fn fg_records(&self) -> &[FlowRecord] {
        &self.result.records[..self.fg_flows]
    }

    /// Events processed.
    pub fn events(&self) -> u64 {
        self.result.counters.events
    }
}

/// Mean foreground FCT over flows that finished in *both* runs (µs for
/// each run). Censored flows are excluded pairwise so the comparison is
/// apples-to-apples.
pub fn paired_fg_fct_us(a: &HybridOutcome, b: &HybridOutcome) -> (f64, f64) {
    let mut sa = 0.0;
    let mut sb = 0.0;
    let mut n = 0usize;
    for (ra, rb) in a.fg_records().iter().zip(b.fg_records()) {
        if let (Some(fa), Some(fb)) = (ra.fct(), rb.fct()) {
            sa += fa.as_us_f64();
            sb += fb.as_us_f64();
            n += 1;
        }
    }
    if n == 0 {
        return (f64::NAN, f64::NAN);
    }
    (sa / n as f64, sb / n as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bg_trace_is_shared_and_deterministic() {
        let sc = HybridScenario::incast(0.5);
        let a = sc.bg_trace();
        assert!(!a.is_empty());
        assert_eq!(a, sc.bg_trace());
    }

    #[test]
    fn zero_background_runs_pure_packet() {
        let mut sc = HybridScenario::incast(0.0);
        sc.end = Time::from_ms(2);
        sc.fg_senders = 4;
        let out = sc.run(HybridMode::Fluid, None);
        assert_eq!(out.result.counters.fluid_epochs, 0);
        assert_eq!(out.result.counters.fluid_bytes_injected, 0);
        assert_eq!(out.fg_records().len(), 4);
    }

    #[test]
    fn fluid_mode_injects_the_trace() {
        let mut sc = HybridScenario::incast(0.3);
        sc.end = Time::from_ms(2);
        sc.fg_senders = 4;
        let payload: u64 = sc.bg_trace().iter().map(|&(_, b)| b).sum();
        // The fluid queue carries wire bytes (payload + per-MTU headers);
        // bound loosely from above by payload + 10 %.
        let wire_cap = payload + payload / 10;
        let out = sc.run(HybridMode::Fluid, None);
        // Mass injected by the horizon: positive, bounded by the trace
        // (tail flows are still injecting when the sim ends).
        let injected = out.result.counters.fluid_bytes_injected;
        assert!(injected > 0 && injected <= wire_cap, "{injected} vs {wire_cap}");
        assert!(out.result.counters.fluid_flows_started > 0);
        assert!(out.result.counters.fluid_epochs > 0);
    }

    #[test]
    fn fifo_coupling_matches_packet_reference_without_cc() {
        // With blast foreground (no congestion control) the comparison is
        // pure FIFO bandwidth sharing — no feedback loop to amplify model
        // error — so the hybrid run must track the packet reference
        // tightly. This pins the stamp/charge coupling itself.
        let mut sc = HybridScenario::incast(0.5);
        sc.fg_senders = 4;
        sc.end = Time::from_ms(3);
        sc.cc = CcSpec::Blast;
        let p = sc.run(HybridMode::PacketRef, None);
        let f = sc.run(HybridMode::Fluid, None);
        let (pf, ff) = paired_fg_fct_us(&p, &f);
        assert!(pf.is_finite() && ff.is_finite(), "no paired finished flows");
        let delta = (ff - pf).abs() / pf;
        assert!(
            delta < 0.02,
            "blast-foreground FCT delta {:.2}% exceeds 2% (pkt {pf:.1}us, fluid {ff:.1}us)",
            delta * 100.0
        );
        assert!(f.events() * 2 < p.events(), "hybrid run must cut events");
    }

    #[test]
    fn fluid_background_cuts_events_5x_with_fg_fct_within_2pct() {
        // The hybrid model's headline claim at 50 % background load, in
        // deterministic quantities (event counts and simulated FCTs, no
        // wall clock): at least 5x fewer events than the packet reference,
        // mean foreground FCT within 2 %.
        for (name, sc) in [
            ("incast", HybridScenario::incast(0.5)),
            ("websearch", HybridScenario::websearch(0.5)),
        ] {
            let p = sc.run(HybridMode::PacketRef, None);
            let f = sc.run(HybridMode::Fluid, None);
            let reduction = p.events() as f64 / f.events() as f64;
            assert!(
                reduction >= 5.0,
                "{name}: event reduction {reduction:.2}x ({} -> {})",
                p.events(),
                f.events()
            );
            let (pf, ff) = paired_fg_fct_us(&p, &f);
            assert!(pf.is_finite() && ff.is_finite(), "{name}: no paired flows");
            let delta = (ff - pf) / pf;
            assert!(
                delta.abs() <= 0.02,
                "{name}: fg FCT delta {:+.2}% (pkt {pf:.1}us, fluid {ff:.1}us)",
                delta * 100.0
            );
        }
    }
}
