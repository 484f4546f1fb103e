//! The hyperscale scenario: tens of thousands of hosts, an open-loop
//! trace-driven arrival stream sustaining up to millions of flow lifetimes,
//! and streaming statistics instead of per-flow sample vectors.
//!
//! Three memory-scaling mechanisms make this run in a bounded footprint:
//!
//! - arrivals stream through `netsim`'s [`ArrivalSource`] hook, so the
//!   trace is never materialised: only the source's look-ahead window of
//!   specs is held, and a flow is registered when it starts;
//! - a flow's transport/reassembly state is dropped at completion (memory
//!   ∝ concurrent flows); what stays per registered flow is its fixed-size
//!   record in the simulator's flow table;
//! - FCT/slowdown quantiles come from integer-bucketed streaming sketches
//!   ([`netsim::StreamingStats`]) folded at completion — `SimResult.records`
//!   stays empty.
//!
//! The comparison of interest (fig_hyperscale) is PrioPlus sharing one
//! physical queue against DCTCP on the same topology and trace: virtual
//! priority should cut high-class tail FCT without extra switch queues.
//!
//! A run is [`prepare`] (the fabric and its arrival source, nothing
//! registered yet) → [`Sim::run`] → [`assemble`] (the sketch fold); [`run`]
//! composes them.

use netsim::{
    ArrivalSource, FlowSpec, NodeId, Sim, SimConfig, SimResult, SwitchConfig, ThreeTierWanSpec,
    Topology,
};
use simcore::{Rate, SchedKind, Time};
use transport::{CcSpec, PrioPlusPolicy};
use workloads::{FlowArrival, IncastMix, OpenLoopGen, SizeClassifier, SizeDist};

/// Congestion-control scheme under test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HyperScheme {
    /// PrioPlus over Swift delay signals, single physical queue.
    PrioPlus,
    /// DCTCP (the D2TCP transport with no deadline factor), single queue.
    Dctcp,
}

impl HyperScheme {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            HyperScheme::PrioPlus => "PrioPlus",
            HyperScheme::Dctcp => "DCTCP",
        }
    }
}

/// Topology under test.
#[derive(Clone, Debug)]
pub enum HyperTopo {
    /// k-ary fat-tree (k³/4 hosts).
    FatTree {
        /// Arity (even).
        k: usize,
    },
    /// Multi-datacenter 3-tier + WAN fabric.
    ThreeTierWan(ThreeTierWanSpec),
}

impl HyperTopo {
    fn build(&self, rate: Rate) -> Topology {
        match self {
            HyperTopo::FatTree { k } => Topology::fat_tree(*k, rate, Time::from_us(1)),
            HyperTopo::ThreeTierWan(spec) => Topology::three_tier_wan(spec),
        }
    }

    /// Display name.
    pub fn name(&self) -> String {
        match self {
            HyperTopo::FatTree { k } => format!("fat-tree(k={k})"),
            HyperTopo::ThreeTierWan(s) => format!(
                "3tier+wan({}dc x {} hosts)",
                s.dcs,
                s.pods_per_dc * s.tors_per_pod * s.hosts_per_tor
            ),
        }
    }
}

/// Hyperscale scenario parameters.
#[derive(Clone, Debug)]
pub struct HyperscaleConfig {
    /// Scheme under test.
    pub scheme: HyperScheme,
    /// Topology.
    pub topo: HyperTopo,
    /// Host NIC rate (fat-tree; the WAN spec carries its own rates).
    pub rate: Rate,
    /// Poisson offered load (fraction of aggregate host capacity).
    pub load: f64,
    /// Periodic incast mix on top of the Poisson load.
    pub incast: Option<IncastMix>,
    /// Virtual-priority classes (smaller flows → higher class).
    pub classes: u8,
    /// Arrival window; the run drains for another half window.
    pub duration: Time,
    /// Look-ahead window per [`ArrivalSource`] injection chunk.
    pub chunk: Time,
    /// Seed.
    pub seed: u64,
    /// Selects nothing: the event queue has one backend.
    #[doc(hidden)]
    pub sched: SchedKind,
}

impl HyperscaleConfig {
    /// Downscaled defaults (k=8 fat-tree, 128 hosts) that run in seconds.
    pub fn quick(scheme: HyperScheme) -> Self {
        HyperscaleConfig {
            scheme,
            topo: HyperTopo::FatTree { k: 8 },
            rate: Rate::from_gbps(100),
            load: 0.4,
            incast: Some(IncastMix {
                period: Time::from_us(100),
                fanin: 16,
                bytes: 20_000,
            }),
            classes: 4,
            duration: Time::from_ms(2),
            chunk: Time::from_us(200),
            seed: 1,
            sched: SchedKind::default(),
        }
    }

    /// Full scale: k=16 fat-tree (1024 hosts) with a longer trace.
    pub fn full(scheme: HyperScheme) -> Self {
        HyperscaleConfig {
            topo: HyperTopo::FatTree { k: 16 },
            load: 0.5,
            duration: Time::from_ms(20),
            ..Self::quick(scheme)
        }
    }
}

/// Scenario result — everything comes from counters and streaming sketches;
/// no per-flow vectors survive the run.
#[derive(Clone, Debug)]
pub struct HyperscaleResult {
    /// Flows registered over the run.
    pub flows_total: u64,
    /// Flows completed.
    pub finished: u64,
    /// Payload bytes delivered by completed flows.
    pub finished_bytes: u64,
    /// Events processed.
    pub events: u64,
    /// FCT quantiles over all completed flows, µs.
    pub fct_us: Quantiles,
    /// FCT quantiles of the highest virtual-priority class, µs.
    pub fct_top_class_us: Quantiles,
    /// Slowdown quantiles (×, from milli-unit sketches).
    pub slowdown: Quantiles,
    /// Peak concurrent flows holding live state.
    pub flow_live_peak: u64,
    /// Flows whose live state was reclaimed at completion.
    pub flows_reclaimed: u64,
    /// Peak resident bytes of live flow state.
    pub flow_live_bytes_peak: u64,
    /// Most entries the event queue stored at once (cancelled timers
    /// awaiting retirement included).
    pub sched_pending_peak: u64,
    /// Peak allocated bytes of the event queue.
    pub sched_bytes_peak: u64,
    /// Peak resident memory budget: live flow state + packet-arena slots +
    /// the event queue.
    pub mem_budget_bytes: u64,
    /// Order-independent fingerprint of the full streaming state (pinned
    /// bit-identical across runs).
    pub streaming_fingerprint: u64,
}

/// p50/p90/p99 triple.
#[derive(Clone, Copy, Debug, Default)]
pub struct Quantiles {
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
}

/// Open-loop arrival source: drains the lazy generator chunk-by-chunk into
/// `Sim::add_flow` during the run.
struct OpenLoopSource {
    gen: OpenLoopGen,
    hosts: Vec<NodeId>,
    classifier: SizeClassifier,
    scheme: HyperScheme,
    classes: u8,
    chunk: Time,
    buf: Vec<FlowArrival>,
}

impl OpenLoopSource {
    fn cc_for(&self) -> CcSpec {
        match self.scheme {
            HyperScheme::PrioPlus => CcSpec::PrioPlusSwift {
                policy: PrioPlusPolicy {
                    probe: false,
                    ..PrioPlusPolicy::paper_default(self.classes)
                },
            },
            HyperScheme::Dctcp => CcSpec::D2tcp {
                deadline_factor: None,
            },
        }
    }
}

impl ArrivalSource for OpenLoopSource {
    fn inject(&mut self, sim: &mut Sim, now: Time) -> Option<Time> {
        let until = now + self.chunk;
        self.buf.clear();
        self.gen.take_until(until, &mut self.buf);
        let arrivals = std::mem::take(&mut self.buf);
        for a in &arrivals {
            let class = self.classifier.priority(a.size);
            let spec = FlowSpec {
                src: self.hosts[a.src],
                dst: self.hosts[a.dst],
                size: a.size,
                start: a.start,
                phys_prio: 0, // single physical queue: priority is virtual
                virt_prio: class,
                tag: class as u64,
            };
            let cc = self.cc_for();
            sim.add_flow(spec, |p| cc.make(p, a.start));
        }
        self.buf = arrivals;
        // take_until consumed everything before `until`, so the next
        // pending arrival (if any) is at or after it — wake exactly then.
        self.gen.peek_start()
    }
}

/// The fabric of `cfg` in streaming mode with its open-loop arrival source
/// installed; the source registers flows chunk by chunk during the run.
pub fn prepare(cfg: &HyperscaleConfig) -> Sim {
    let topo = cfg.topo.build(cfg.rate);
    let hosts = topo.hosts.clone();
    let host_rate = match &cfg.topo {
        HyperTopo::FatTree { .. } => cfg.rate,
        HyperTopo::ThreeTierWan(s) => s.host_rate,
    };
    let sim_cfg = SimConfig {
        num_prios: 1,
        end_time: cfg.duration + Time::from_ps(cfg.duration.as_ps() / 2),
        seed: cfg.seed,
        streaming_stats: true,
        ..Default::default()
    };
    let mut sim = Sim::new(&topo, sim_cfg, SwitchConfig::default());
    let dist = SizeDist::websearch();
    let classifier = SizeClassifier::from_dist(&dist, cfg.classes);
    let gen = OpenLoopGen::new(
        dist,
        hosts.len(),
        host_rate,
        cfg.load,
        Time::ZERO,
        cfg.duration,
        cfg.incast,
        cfg.seed ^ 0x09E1,
    );
    sim.set_arrivals(Box::new(OpenLoopSource {
        gen,
        hosts,
        classifier,
        scheme: cfg.scheme,
        classes: cfg.classes,
        chunk: cfg.chunk,
        buf: Vec::new(),
    }));
    sim
}

/// Fold a run of [`prepare`]'s simulation (streaming mode) into the
/// scenario summary.
pub fn assemble(result: &SimResult) -> HyperscaleResult {
    let st = result
        .streaming
        .as_deref()
        .expect("hyperscale runs use streaming_stats");
    let q = |s: &simcore::QuantileSketch, scale: f64| Quantiles {
        p50: s.quantile(50.0).unwrap_or(0) as f64 / scale,
        p90: s.quantile(90.0).unwrap_or(0) as f64 / scale,
        p99: s.quantile(99.0).unwrap_or(0) as f64 / scale,
    };
    let top = st
        .fct_ps_by_virt
        .iter()
        .rev()
        .find(|s| !s.is_empty())
        .cloned()
        .unwrap_or_default();
    let c = &result.counters;
    let arena_bytes = c.arena_slab_slots * std::mem::size_of::<netsim::Packet>() as u64;
    HyperscaleResult {
        flows_total: c.flows_total,
        finished: st.finished,
        finished_bytes: st.finished_bytes,
        events: c.events,
        fct_us: q(&st.fct_ps, 1e6),
        fct_top_class_us: q(&top, 1e6),
        slowdown: q(&st.slowdown_milli, 1e3),
        flow_live_peak: c.flow_live_peak,
        flows_reclaimed: c.flows_reclaimed,
        flow_live_bytes_peak: c.flow_live_bytes_peak,
        sched_pending_peak: c.sched_pending_peak,
        sched_bytes_peak: c.sched_bytes_peak,
        mem_budget_bytes: c.flow_live_bytes_peak + arena_bytes + c.sched_bytes_peak,
        streaming_fingerprint: st.fingerprint(),
    }
}

/// Run the scenario.
pub fn run(cfg: &HyperscaleConfig) -> HyperscaleResult {
    assemble(&prepare(cfg).run())
}
