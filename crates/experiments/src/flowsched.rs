//! The generic flow-scheduling scenario (Fig 11, 14, 16): WebSearch traffic
//! on a fat-tree, flows classified by size into priority groups (smaller →
//! higher priority), compared across queueing/CC schemes.

use netsim::{AckPriority, FlowSpec, NoiseModel, SchedKind, Sim, SimConfig, SwitchConfig, Topology};
use simcore::stats::Summary;
use simcore::{Rate, Time};
use transport::CcSpec;
use workloads::{PoissonArrivals, SizeClassifier, SizeDist};

use crate::{Scale, Scheme};

/// Flow-scheduling scenario parameters.
#[derive(Clone, Debug)]
pub struct FlowSchedConfig {
    /// Scheme under test.
    pub scheme: Scheme,
    /// Number of size-based priority classes.
    pub classes: u8,
    /// Offered load (fraction of aggregate host capacity).
    pub load: f64,
    /// Fat-tree arity.
    pub k: usize,
    /// Link rate.
    pub rate: Rate,
    /// Arrivals are generated over this window; the simulation runs twice
    /// as long to drain.
    pub duration: Time,
    /// Seed.
    pub seed: u64,
    /// Buffer per switch = `buffer_mb_per_tbps` MB/Tbps × port bandwidth
    /// (Fig 11 uses 4.4 MB/Tbps, the Tomahawk4 ratio).
    pub buffer_mb_per_tbps: f64,
    /// Delay-measurement noise.
    pub noise: NoiseModel,
    /// Per-flow D2TCP deadline span (lowest..highest priority factor).
    pub d2tcp_factors: (f64, f64),
    /// Selects nothing: the event queue has one backend.
    #[doc(hidden)]
    pub sched: SchedKind,
}

impl FlowSchedConfig {
    /// Defaults matching §6.2 at reduced scale.
    pub fn new(scheme: Scheme, classes: u8) -> Self {
        FlowSchedConfig {
            scheme,
            classes,
            load: 0.7,
            k: 4,
            rate: Rate::from_gbps(100),
            duration: Time::from_ms(4),
            seed: 1,
            buffer_mb_per_tbps: 4.4,
            noise: NoiseModel::testbed(),
            d2tcp_factors: (12.0, 1.5),
            sched: SchedKind::default(),
        }
    }

    /// [`FlowSchedConfig::new`] on the [`fabric_at`] `scale`.
    pub fn at(scheme: Scheme, classes: u8, scale: Scale) -> Self {
        let (k, duration) = fabric_at(scale);
        FlowSchedConfig {
            k,
            duration,
            ..FlowSchedConfig::new(scheme, classes)
        }
    }
}

/// Fat-tree arity and arrival window the Fig 11/14/16 runs use at `scale`.
pub fn fabric_at(scale: Scale) -> (usize, Time) {
    scale.pick((4, Time::from_ms(3)), (6, Time::from_ms(20)))
}

/// Outcome of one flow in the scenario.
#[derive(Clone, Copy, Debug)]
pub struct FlowOut {
    /// Flow size, bytes.
    pub size: u64,
    /// Priority class (0 = lowest).
    pub class: u8,
    /// FCT slowdown vs ideal, when finished.
    pub slowdown: Option<f64>,
    /// Raw FCT in µs, when finished.
    pub fct_us: Option<f64>,
}

/// Scenario result.
#[derive(Clone, Debug)]
pub struct FlowSchedResult {
    /// Per-flow outcomes.
    pub flows: Vec<FlowOut>,
    /// PFC pause frames observed.
    pub pfc_pauses: u64,
    /// Packet drops (lossy runs).
    pub drops: u64,
    /// Fraction of flows finished.
    pub completion: f64,
    /// Simulator events processed (event-queue pops), for perf reporting.
    pub events: u64,
}

impl FlowSchedResult {
    /// One metric of the finished flows matching `pred`.
    fn summary(
        &self,
        pred: impl Fn(&FlowOut) -> bool,
        metric: impl Fn(&FlowOut) -> Option<f64>,
    ) -> Summary {
        self.flows
            .iter()
            .filter(|f| pred(f))
            .filter_map(metric)
            .collect()
    }

    /// Mean slowdown over finished flows matching `pred`.
    pub fn mean_slowdown(&self, pred: impl Fn(&FlowOut) -> bool) -> Option<f64> {
        self.summary(pred, |f| f.slowdown).mean()
    }

    /// Mean raw FCT (µs) over finished flows matching `pred` — the paper's
    /// Fig 11/14/16 metric.
    pub fn mean_fct_us(&self, pred: impl Fn(&FlowOut) -> bool) -> Option<f64> {
        self.summary(pred, |f| f.fct_us).mean()
    }

    /// p99 raw FCT (µs) over finished flows matching `pred`.
    pub fn p99_fct_us(&self, pred: impl Fn(&FlowOut) -> bool) -> Option<f64> {
        self.summary(pred, |f| f.fct_us).p99()
    }

    /// Mean raw FCT (µs) of all flows and of each [`bucket_of`] size bucket:
    /// `[total, small, middle, large]`.
    pub fn mean_fct_us_by_bucket(&self) -> [Option<f64>; 4] {
        [
            self.mean_fct_us(|_| true),
            self.mean_fct_us(|f| bucket_of(f.size) == "small"),
            self.mean_fct_us(|f| bucket_of(f.size) == "middle"),
            self.mean_fct_us(|f| bucket_of(f.size) == "large"),
        ]
    }
}

/// Size buckets of Fig 11: small `< 300 KB`, middle `< 6 MB`, large rest.
pub fn bucket_of(size: u64) -> &'static str {
    if size < 300_000 {
        "small"
    } else if size < 6_000_000 {
        "middle"
    } else {
        "large"
    }
}

/// Build the switch configuration for a scheme.
fn switch_config(cfg: &FlowSchedConfig, ports_per_switch: usize) -> SwitchConfig {
    let port_tbps = ports_per_switch as f64 * cfg.rate.as_gbps_f64() / 1000.0;
    let buffer = (cfg.buffer_mb_per_tbps * port_tbps * 1e6) as u64;
    let mut sw = SwitchConfig {
        buffer_bytes: buffer,
        ..Default::default()
    };
    match cfg.scheme {
        Scheme::PhysicalSwift => {
            // Real PFC headroom cost: one headroom chunk per (port,
            // lossless priority).
            sw.pfc_lossless_prios = cfg.scheme.phys_queues(cfg.classes);
            sw.pfc_headroom_bytes = 50_000;
        }
        _ => {
            // Ideal physical priorities / single queue: headroom-free.
            sw.pfc_lossless_prios = 0;
        }
    }
    if cfg.scheme == Scheme::PhysicalStarHpcc {
        sw.int_enabled = true;
    }
    sw
}

/// Per-flow transport spec for a scheme: every class is FCT-sensitive, so
/// no probe-before-start; D2TCP's deadline factor is interpolated over
/// `cfg.d2tcp_factors` by class.
fn cc_for(cfg: &FlowSchedConfig, class: u8) -> CcSpec {
    let (lo, hi) = cfg.d2tcp_factors;
    let t = if cfg.classes <= 1 {
        1.0
    } else {
        class as f64 / (cfg.classes - 1) as f64
    };
    cfg.scheme.cc(cfg.classes, false, lo + (hi - lo) * t)
}

/// Run the scenario.
pub fn run(cfg: &FlowSchedConfig) -> FlowSchedResult {
    let topo = Topology::fat_tree(cfg.k, cfg.rate, Time::from_us(1));
    let hosts = topo.hosts.clone();
    let sim_cfg = SimConfig {
        num_prios: cfg.scheme.phys_queues(cfg.classes),
        end_time: cfg.duration + cfg.duration,
        seed: cfg.seed,
        meas_noise: cfg.noise,
        ack_prio: if cfg.scheme == Scheme::PrioPlusSwiftAckData {
            AckPriority::SameAsData
        } else {
            AckPriority::Control
        },
        ..Default::default()
    };
    // Every switch in a k-ary fat-tree has k ports.
    let sw_cfg = switch_config(cfg, cfg.k);
    let mut sim = Sim::new(&topo, sim_cfg, sw_cfg);

    let dist = SizeDist::websearch();
    let classifier = SizeClassifier::from_dist(&dist, cfg.classes);
    let mut arrivals = PoissonArrivals::new(
        dist,
        hosts.len(),
        cfg.rate,
        cfg.load,
        Time::ZERO,
        cfg.seed ^ 0xA221,
    );
    let mut metas = Vec::new();
    for a in arrivals.generate_until(cfg.duration) {
        let class = classifier.priority(a.size);
        let spec = FlowSpec {
            src: hosts[a.src],
            dst: hosts[a.dst],
            size: a.size,
            start: a.start,
            phys_prio: cfg.scheme.phys_prio(class, cfg.classes),
            virt_prio: class,
            tag: class as u64,
        };
        let cc = cc_for(cfg, class);
        sim.add_flow(spec, |p| cc.make(p, a.start));
        metas.push((a.size, class));
    }

    let result = sim.run();
    let flows = result
        .records
        .iter()
        .zip(metas)
        .map(|(r, (size, class))| FlowOut {
            size,
            class,
            slowdown: r.slowdown_auto(),
            fct_us: r.fct().map(|t| t.as_us_f64()),
        })
        .collect::<Vec<_>>();
    FlowSchedResult {
        completion: result.completion_rate(),
        pfc_pauses: result.counters.pfc_pauses,
        drops: result.counters.drops,
        events: result.counters.events,
        flows,
    }
}

/// Run many independent configs across `jobs` threads; results are returned
/// in input order, identical to calling [`run`] on each config serially.
pub fn run_many(cfgs: &[FlowSchedConfig], jobs: usize) -> Vec<FlowSchedResult> {
    crate::sweep::run_ordered(cfgs, jobs, &run)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_scale_is_k6_for_20ms() {
        assert_eq!(fabric_at(Scale::Full), (6, Time::from_ms(20)));
        let full = FlowSchedConfig::at(Scheme::PrioPlusSwift, 8, Scale::Full);
        assert_eq!((full.k, full.duration), fabric_at(Scale::Full));
        let quick = FlowSchedConfig::at(Scheme::PrioPlusSwift, 8, Scale::Quick);
        assert_eq!((quick.k, quick.duration), (4, Time::from_ms(3)));
    }
}
