//! The four workloads, composed from outside through the public APIs of
//! `workloads`, `netsim`, `transport` and `experiments`.
//!
//! Workloads 2–4 take the experiment harness's own config types and
//! re-derive what its `run` functions keep private (`phys_queues`,
//! `switch_config`, `cc_for`, `OpenLoopSource`), so that each phase — input
//! generation, topology, `Sim::new`, flow registration, pump, result
//! assembly, folding — can be timed on its own. `tests/smoke.rs` pins every
//! composition here against `experiments::{flowsched,coflowsched,
//! hyperscale}::run` on the same config.

use std::collections::HashMap;
use std::rc::Rc;
use std::time::Instant;

use experiments::coflowsched::{CoflowConfig, CoflowOut, CoflowResult};
use experiments::flowsched::{FlowOut, FlowSchedConfig, FlowSchedResult};
use experiments::hyperscale::{HyperScheme, HyperTopo, HyperscaleConfig};
use experiments::Scheme;
use netsim::{
    AckPriority, ArrivalSource, FlowRecord, FlowSpec, NodeId, NoiseModel, SchedKind, Sim,
    SimConfig, SimCounters, SimResult, SwitchConfig, Topology,
};
use simcore::stats::Summary as Samples;
use simcore::{Rate, Time};
use transport::{CcSpec, PrioPlusPolicy};
use workloads::{
    Coflow, CoflowGen, FlowArrival, OpenLoopGen, PoissonArrivals, SizeClassifier, SizeDist,
};

use crate::span::Tracer;

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// 64→1 incast under PrioPlus+Swift on one switch.
    IncastPp,
    /// WebSearch flow scheduling on a k=4 fat-tree, three schemes.
    FattreeFlowsched,
    /// Coflows + file requests on a lossy leaf–spine, three schemes.
    CoflowLossy,
    /// Open-loop streamed arrivals on a k=8 fat-tree.
    HyperscaleOpenloop,
}

impl Workload {
    /// Every workload, in the order reps are interleaved.
    pub const ALL: [Workload; 4] = [
        Workload::IncastPp,
        Workload::FattreeFlowsched,
        Workload::CoflowLossy,
        Workload::HyperscaleOpenloop,
    ];

    /// Name as it appears in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::IncastPp => "incast_pp",
            Workload::FattreeFlowsched => "fattree_flowsched",
            Workload::CoflowLossy => "coflow_lossy",
            Workload::HyperscaleOpenloop => "hyperscale_openloop",
        }
    }

    /// Parse a name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Simulations per rep (one *operation* is one simulation).
    pub fn sims(self) -> u64 {
        match self {
            Workload::IncastPp | Workload::HyperscaleOpenloop => 1,
            Workload::FattreeFlowsched | Workload::CoflowLossy => 3,
        }
    }
}

/// Which transport kernel explains a simulation's ACK processing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CcKind {
    /// Plain Swift.
    Swift,
    /// DCTCP / D2TCP.
    Dctcp,
    /// PrioPlus over Swift.
    PrioPlusSwift,
}

/// Everything one simulation of a rep produced.
#[derive(Clone, Debug)]
pub struct SimOutcome {
    /// Scheme label.
    pub label: &'static str,
    /// Transport family of the run's senders.
    pub cc: CcKind,
    /// PFC (lossless) switches.
    pub pfc: bool,
    /// Host ns from the simulation's first set-up call to its pump call.
    pub setup_ns: u64,
    /// Host ns inside the pump.
    pub pump_ns: u64,
    /// Final counters.
    pub counters: SimCounters,
    /// Flows that completed.
    pub flows_finished: u64,
    /// Flows still holding live state when the pump stopped.
    pub flows_unfinished: u64,
    /// Retransmitted data packets (0 in streaming mode: no per-flow
    /// records survive the run).
    pub retransmits: u64,
    /// Completion fraction as the experiment harness reports it (flows, or
    /// coflows for the coflow scenario).
    pub completion: f64,
    /// Median FCT over finished flows, µs of simulated time.
    pub fct_p50_us: f64,
    /// p99 FCT over finished flows, µs.
    pub fct_p99_us: f64,
    /// p99 FCT of the highest virtual-priority class, µs.
    pub top_class_fct_p99_us: f64,
    /// FNV over counters and per-flow finish times (or the streaming
    /// fingerprint).
    pub fingerprint: u64,
    /// `Sim::state_digest` when the pump stopped.
    pub digest: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv_fold(h: &mut u64, w: u64) {
    for b in w.to_le_bytes() {
        *h ^= b as u64;
        *h = h.wrapping_mul(FNV_PRIME);
    }
}

/// One fingerprint for a rep: the simulations' fingerprints, in order.
pub fn combined_fingerprint(sims: &[SimOutcome]) -> u64 {
    let mut h = FNV_OFFSET;
    sims.iter().for_each(|s| fnv_fold(&mut h, s.fingerprint));
    h
}

fn fingerprint(c: &SimCounters, tail: impl Iterator<Item = u64>) -> u64 {
    let mut h = FNV_OFFSET;
    for w in [
        c.events,
        c.data_delivered,
        c.drops,
        c.pfc_pauses,
        c.ecn_marks,
        c.probes,
    ] {
        fnv_fold(&mut h, w);
    }
    for w in tail {
        fnv_fold(&mut h, w);
    }
    h
}

/// A simulation after pump and result assembly, before folding.
struct Driven {
    result: SimResult,
    setup_ns: u64,
    pump_ns: u64,
    digest: u64,
    live_after_pump: u64,
}

/// Pump `sim` to its end time, digest its state, assemble the result.
/// `begun` is when this simulation's set-up started.
fn drive(mut sim: Sim, t: &Tracer, begun: Instant) -> Driven {
    let end = sim.config().end_time;
    let pump_start = Instant::now();
    t.span("netsim.pump_s", || sim.run_until(end));
    let pump_ns = pump_start.elapsed().as_nanos() as u64;
    let digest = t.span("netsim.digest_s", || sim.state_digest());
    let live_after_pump = sim.live_flows();
    // `run` dispatches what is left at `end` (the End event) and builds the
    // result; dropping the simulator is part of it.
    let result = t.span("netsim.finish_s", || sim.run());
    Driven {
        result,
        setup_ns: (pump_start - begun).as_nanos() as u64,
        pump_ns,
        digest,
        live_after_pump,
    }
}

/// Nearest-rank percentile (the rank rule the experiment harness uses for
/// FCT tails); 0 when there are no samples.
fn percentile(samples: impl Iterator<Item = f64>, p: f64) -> f64 {
    let mut s = Samples::new();
    samples.for_each(|v| s.add(v));
    s.percentile(p).unwrap_or(0.0)
}

/// FCT quantiles of exact records: (p50, p99, p99 of `top` class), µs.
fn record_quantiles(records: &[FlowRecord], top: u8) -> (f64, f64, f64) {
    let fct = |r: &FlowRecord| r.fct().map(|t| t.as_us_f64());
    let all = || records.iter().filter_map(fct);
    let top = records
        .iter()
        .filter(|r| r.virt_prio == top)
        .filter_map(fct);
    (
        percentile(all(), 50.0),
        percentile(all(), 99.0),
        percentile(top, 99.0),
    )
}

fn finish_words(records: &[FlowRecord]) -> impl Iterator<Item = u64> + '_ {
    records
        .iter()
        .map(|r| r.finish.map_or(u64::MAX, |t| t.as_ps()))
}

// ---------------------------------------------------------------- inputs

/// What `--seed` re-draws: every flow starts up to 1 µs (a dozen packets
/// at 100 Gb/s) later than its generator said.
///
/// That is enough to make every seed a different simulation — packets
/// interleave differently from the first collision on — while the flow
/// population, the ECMP placement and the simulator's own random streams
/// stay one fixed draw. Re-drawing those moved a rep's work far more than
/// any bound worth enforcing: WebSearch and coflow sizes are heavy-tailed
/// (events ±25 % between seeds), and the simulator's master seed is also
/// its ECMP salt, which decides whether the few elephants of a k = 4
/// fat-tree collide (events 6.8–8.1 M, peak RSS 61–78 MB over 60 seeds).
#[derive(Clone, Debug)]
pub struct Jitter(Option<simcore::SimRng>);

impl Jitter {
    const MAX_PS: u64 = 1_000_000;

    /// The jitter stream of `seed`.
    pub fn new(seed: u64) -> Jitter {
        Jitter(Some(simcore::SimRng::new(seed ^ 0x70_7062_656e_6368)))
    }

    /// No jitter: flows start when the generator said, as in the
    /// experiment harness (the drift guard runs this).
    pub fn none() -> Jitter {
        Jitter(None)
    }

    fn apply(&mut self, start: Time) -> Time {
        match &mut self.0 {
            Some(rng) => start + Time::from_ps(rng.below(Self::MAX_PS)),
            None => start,
        }
    }
}

// ---------------------------------------------------------------- incast

/// Workload 1 parameters.
#[derive(Clone, Debug)]
pub struct IncastConfig {
    /// Sender hosts (receiver is host 0).
    pub senders: usize,
    /// Virtual priorities; sender `s` is in class `s % classes`.
    pub classes: u8,
    /// Bytes per flow.
    pub flow_bytes: u64,
    /// Class `c` starts at `c × stagger`.
    pub stagger: Time,
    /// Simulation horizon.
    pub horizon: Time,
}

/// 64→1 incast, PrioPlus+Swift, testbed noise.
pub fn run_incast(cfg: &IncastConfig, mut jitter: Jitter, t: &Tracer) -> SimOutcome {
    let begun = Instant::now();
    let topo = t.span("netsim.topology_s", || {
        Topology::single_switch(cfg.senders, Rate::from_gbps(100), Time::from_us(3))
    });
    let sim_cfg = SimConfig {
        num_prios: 1,
        end_time: cfg.horizon,
        seed: FIXED_SEED,
        meas_noise: NoiseModel::testbed(),
        sched: SchedKind::Calendar,
        ..Default::default()
    };
    let mut sim = t.span("netsim.sim_new_s", || {
        Sim::new(&topo, sim_cfg, SwitchConfig::default())
    });
    let cc = CcSpec::PrioPlusSwift {
        policy: PrioPlusPolicy::paper_default(cfg.classes),
    };
    t.span("netsim.add_flow_s", || {
        for s in 1..=cfg.senders {
            let class = (s % cfg.classes as usize) as u8;
            let start = jitter.apply(Time::from_ps(cfg.stagger.as_ps() * class as u64));
            let spec = FlowSpec {
                src: s as NodeId,
                dst: 0,
                size: cfg.flow_bytes,
                start,
                phys_prio: 0,
                virt_prio: class,
                tag: class as u64,
            };
            sim.add_flow(spec, |p| cc.make(p, start));
        }
    });
    let d = drive(sim, t, begun);
    let r = &d.result;
    t.span("experiments.fold_s", || {
        let (p50, p99, top) = record_quantiles(&r.records, cfg.classes - 1);
        SimOutcome {
            label: "PrioPlus+Swift",
            cc: CcKind::PrioPlusSwift,
            pfc: true,
            setup_ns: d.setup_ns,
            pump_ns: d.pump_ns,
            counters: r.counters.clone(),
            flows_finished: r.finished().count() as u64,
            flows_unfinished: d.live_after_pump,
            retransmits: r.records.iter().map(|x| x.retransmits).sum(),
            completion: r.completion_rate(),
            fct_p50_us: p50,
            fct_p99_us: p99,
            top_class_fct_p99_us: top,
            fingerprint: fingerprint(&r.counters, finish_words(&r.records)),
            digest: d.digest,
        }
    })
}

// ------------------------------------------------------------- flowsched

fn cc_kind(scheme: Scheme) -> CcKind {
    match scheme {
        Scheme::PrioPlusSwift | Scheme::PrioPlusSwiftAckData => CcKind::PrioPlusSwift,
        Scheme::D2tcp => CcKind::Dctcp,
        Scheme::PhysicalSwift | Scheme::PhysicalStarSwift | Scheme::BaselineSwift => CcKind::Swift,
        other => panic!("{} is not part of any ppbench workload", other.label()),
    }
}

/// Physical data queues a scheme uses for `classes` classes.
fn phys_queues(scheme: Scheme, classes: u8) -> u8 {
    match scheme {
        s if s.single_queue() => 1,
        Scheme::PhysicalSwift => classes.min(8),
        _ => classes,
    }
}

fn prioplus_no_probe(classes: u8) -> CcSpec {
    CcSpec::PrioPlusSwift {
        policy: PrioPlusPolicy {
            probe: false,
            ..PrioPlusPolicy::paper_default(classes)
        },
    }
}

fn plain_swift() -> CcSpec {
    CcSpec::Swift {
        queuing: Time::from_us(4),
        scaling: false,
    }
}

/// The fig11/14/16 path: WebSearch Poisson arrivals on a fat-tree, exact
/// records.
pub fn run_flowsched(cfg: &FlowSchedConfig, mut jitter: Jitter, t: &Tracer) -> SimOutcome {
    let begun = Instant::now();
    let topo = t.span("netsim.topology_s", || {
        Topology::fat_tree(cfg.k, cfg.rate, Time::from_us(1))
    });
    let nq = phys_queues(cfg.scheme, cfg.classes);
    let sim_cfg = SimConfig {
        num_prios: nq,
        end_time: cfg.duration + cfg.duration,
        seed: cfg.seed,
        meas_noise: cfg.noise,
        ack_prio: if cfg.scheme == Scheme::PrioPlusSwiftAckData {
            AckPriority::SameAsData
        } else {
            AckPriority::Control
        },
        sched: cfg.sched,
        ..Default::default()
    };
    // Every switch of a k-ary fat-tree has k ports.
    let port_tbps = cfg.k as f64 * cfg.rate.as_gbps_f64() / 1000.0;
    let physical = cfg.scheme == Scheme::PhysicalSwift;
    let sw_cfg = SwitchConfig {
        buffer_bytes: (cfg.buffer_mb_per_tbps * port_tbps * 1e6) as u64,
        pfc_lossless_prios: if physical { nq } else { 0 },
        pfc_headroom_bytes: if physical {
            50_000
        } else {
            SwitchConfig::default().pfc_headroom_bytes
        },
        ..Default::default()
    };
    let mut sim = t.span("netsim.sim_new_s", || Sim::new(&topo, sim_cfg, sw_cfg));

    let dist = SizeDist::websearch();
    let classifier = SizeClassifier::from_dist(&dist, cfg.classes);
    let arrivals = t.span("workloads.generate_s", || {
        PoissonArrivals::new(
            dist,
            topo.hosts.len(),
            cfg.rate,
            cfg.load,
            Time::ZERO,
            cfg.seed ^ 0xA221,
        )
        .generate_until(cfg.duration)
    });
    let cc_for = |class: u8| match cc_kind(cfg.scheme) {
        CcKind::Swift => plain_swift(),
        CcKind::PrioPlusSwift => prioplus_no_probe(cfg.classes),
        CcKind::Dctcp => {
            let (lo, hi) = cfg.d2tcp_factors;
            let pos = if cfg.classes <= 1 {
                1.0
            } else {
                class as f64 / (cfg.classes - 1) as f64
            };
            CcSpec::D2tcp {
                deadline_factor: Some(lo + (hi - lo) * pos),
            }
        }
    };
    let mut metas = Vec::with_capacity(arrivals.len());
    t.span("netsim.add_flow_s", || {
        for a in &arrivals {
            let class = classifier.priority(a.size);
            let start = jitter.apply(a.start);
            let spec = FlowSpec {
                src: topo.hosts[a.src],
                dst: topo.hosts[a.dst],
                size: a.size,
                start,
                phys_prio: if cfg.scheme.single_queue() {
                    0
                } else {
                    class.min(nq - 1)
                },
                virt_prio: class,
                tag: class as u64,
            };
            let cc = cc_for(class);
            sim.add_flow(spec, |p| cc.make(p, start));
            metas.push((a.size, class));
        }
    });

    let d = drive(sim, t, begun);
    let r = &d.result;
    t.span("experiments.fold_s", || {
        let folded = FlowSchedResult {
            flows: r
                .records
                .iter()
                .zip(metas)
                .map(|(rec, (size, class))| FlowOut {
                    size,
                    class,
                    slowdown: rec.slowdown_auto(),
                    fct_us: rec.fct().map(|x| x.as_us_f64()),
                })
                .collect(),
            completion: r.completion_rate(),
            pfc_pauses: r.counters.pfc_pauses,
            drops: r.counters.drops,
            events: r.counters.events,
        };
        let fcts = || folded.flows.iter().filter_map(|f| f.fct_us);
        let slowdown = folded.mean_slowdown(|_| true).unwrap_or(0.0);
        let top = cfg.classes - 1;
        SimOutcome {
            label: cfg.scheme.label(),
            cc: cc_kind(cfg.scheme),
            pfc: true,
            setup_ns: d.setup_ns,
            pump_ns: d.pump_ns,
            counters: r.counters.clone(),
            flows_finished: fcts().count() as u64,
            flows_unfinished: d.live_after_pump,
            retransmits: r.records.iter().map(|x| x.retransmits).sum(),
            completion: folded.completion,
            fct_p50_us: percentile(fcts(), 50.0),
            fct_p99_us: folded.p99_fct_us(|_| true).unwrap_or(0.0),
            top_class_fct_p99_us: folded.p99_fct_us(|f| f.class == top).unwrap_or(0.0),
            fingerprint: fingerprint(
                &r.counters,
                finish_words(&r.records).chain([slowdown.to_bits()]),
            ),
            digest: d.digest,
        }
    })
}

// ---------------------------------------------------------------- coflow

/// The fig12/17/18 path: coflows + file requests on a leaf–spine, exact
/// records, per-coflow CCT folding.
pub fn run_coflow(cfg: &CoflowConfig, mut jitter: Jitter, t: &Tracer) -> SimOutcome {
    let begun = Instant::now();
    let topo = t.span("netsim.topology_s", || {
        Topology::leaf_spine(
            cfg.leaves,
            cfg.spines,
            cfg.hosts_per_leaf,
            cfg.host_rate,
            cfg.fabric_rate,
            Time::from_us(1),
        )
    });
    // Coflows and file requests at load/2 each (1:1, §6.2).
    let all: Vec<Coflow> = t.span("workloads.generate_s", || {
        let mut gen = CoflowGen::new(topo.hosts.len(), cfg.seed ^ 0xC0F);
        let mut all = gen.generate_poisson(cfg.host_rate, cfg.load / 2.0, cfg.duration);
        all.extend(gen.generate_file_requests(
            cfg.host_rate,
            cfg.load / 2.0,
            cfg.fanin,
            cfg.piece_bytes,
            cfg.duration,
        ));
        all.sort_by_key(|c| c.start);
        all
    });
    // Class boundaries at the size quantiles; coinciding quantiles (file
    // requests share one size) are nudged up to keep the ladder ascending.
    let mut sizes: Vec<u64> = all.iter().map(Coflow::total_bytes).collect();
    sizes.sort_unstable();
    let classes = cfg.classes as usize;
    let mut bounds: Vec<u64> = (1..classes)
        .map(|i| sizes[(i * sizes.len() / classes).min(sizes.len() - 1)])
        .collect();
    for i in 1..bounds.len() {
        if bounds[i] <= bounds[i - 1] {
            bounds[i] = bounds[i - 1] + 1;
        }
    }
    let classifier = SizeClassifier::from_bounds(bounds);

    let nq = phys_queues(cfg.scheme, cfg.classes);
    let sim_cfg = SimConfig {
        num_prios: nq,
        end_time: cfg.duration + cfg.duration,
        seed: cfg.seed,
        meas_noise: NoiseModel::testbed(),
        sched: SchedKind::Calendar,
        ..Default::default()
    };
    let sw_cfg = SwitchConfig {
        buffer_bytes: 32 * 1024 * 1024,
        pfc_enabled: cfg.lossless,
        pfc_lossless_prios: if cfg.scheme == Scheme::PhysicalSwift {
            nq
        } else {
            0
        },
        ..Default::default()
    };
    let mut sim = t.span("netsim.sim_new_s", || Sim::new(&topo, sim_cfg, sw_cfg));

    let cc = match cc_kind(cfg.scheme) {
        CcKind::Swift => plain_swift(),
        CcKind::PrioPlusSwift => prioplus_no_probe(cfg.classes),
        CcKind::Dctcp => CcSpec::D2tcp {
            deadline_factor: Some(2.0),
        },
    };
    let mut meta: Vec<(u64, u8, Time)> = Vec::with_capacity(all.len());
    t.span("netsim.add_flow_s", || {
        for c in &all {
            let class = classifier.priority(c.total_bytes()).min(cfg.classes - 1);
            for f in &c.flows {
                let start = jitter.apply(f.start);
                let spec = FlowSpec {
                    src: topo.hosts[f.src],
                    dst: topo.hosts[f.dst],
                    size: f.size,
                    start,
                    phys_prio: if cfg.scheme.single_queue() {
                        0
                    } else {
                        class.min(nq - 1)
                    },
                    virt_prio: class,
                    tag: c.id,
                };
                sim.add_flow(spec, |p| cc.make(p, start));
            }
            meta.push((c.id, class, c.start));
        }
    });

    let d = drive(sim, t, begun);
    let r = &d.result;
    t.span("experiments.fold_s", || {
        // CCT per coflow: last member finish − coflow start; none if any
        // member was censored.
        let mut finish: HashMap<u64, (Time, bool)> = HashMap::new();
        for rec in &r.records {
            let e = finish.entry(rec.tag).or_insert((Time::ZERO, true));
            match rec.finish {
                Some(at) => e.0 = e.0.max(at),
                None => e.1 = false,
            }
        }
        let coflows: Vec<CoflowOut> = meta
            .iter()
            .map(|&(id, class, start)| CoflowOut {
                id,
                class,
                cct_us: finish
                    .get(&id)
                    .and_then(|&(at, complete)| complete.then(|| (at - start).as_us_f64())),
            })
            .collect();
        let done = coflows.iter().filter(|c| c.cct_us.is_some()).count();
        let folded = CoflowResult {
            completion: done as f64 / coflows.len().max(1) as f64,
            drops: r.counters.drops,
            retransmits: r.records.iter().map(|x| x.retransmits).sum(),
            coflows,
        };
        let (p50, p99, top) = record_quantiles(&r.records, cfg.classes - 1);
        let ccts = folded
            .coflows
            .iter()
            .map(|c| c.cct_us.map_or(u64::MAX, f64::to_bits));
        SimOutcome {
            label: cfg.scheme.label(),
            cc: cc_kind(cfg.scheme),
            pfc: cfg.lossless,
            setup_ns: d.setup_ns,
            pump_ns: d.pump_ns,
            counters: r.counters.clone(),
            flows_finished: r.finished().count() as u64,
            flows_unfinished: d.live_after_pump,
            retransmits: folded.retransmits,
            completion: folded.completion,
            fct_p50_us: p50,
            fct_p99_us: p99,
            top_class_fct_p99_us: top,
            fingerprint: fingerprint(&r.counters, finish_words(&r.records).chain(ccts)),
            digest: d.digest,
        }
    })
}

// ------------------------------------------------------------ hyperscale

/// Open-loop arrival source: drains the lazy generator chunk by chunk into
/// `Sim::add_flow` while the pump runs.
struct OpenLoopSource {
    gen: OpenLoopGen,
    hosts: Vec<NodeId>,
    classifier: SizeClassifier,
    cc: CcSpec,
    chunk: Time,
    buf: Vec<FlowArrival>,
    jitter: Jitter,
    tracer: Rc<Tracer>,
}

impl ArrivalSource for OpenLoopSource {
    fn inject(&mut self, sim: &mut Sim, now: Time) -> Option<Time> {
        let until = now + self.chunk;
        self.buf.clear();
        let (gen, buf) = (&mut self.gen, &mut self.buf);
        self.tracer
            .span("workloads.generate_s", || gen.take_until(until, buf));
        self.tracer.span("netsim.add_flow_s", || {
            for a in &self.buf {
                let class = self.classifier.priority(a.size);
                let start = self.jitter.apply(a.start);
                let spec = FlowSpec {
                    src: self.hosts[a.src],
                    dst: self.hosts[a.dst],
                    size: a.size,
                    start,
                    phys_prio: 0,
                    virt_prio: class,
                    tag: class as u64,
                };
                sim.add_flow(spec, |p| self.cc.make(p, start));
            }
        });
        self.gen.peek_start()
    }
}

/// The hyperscale path: streamed arrivals, streaming sketches, flow-slab
/// reclamation.
pub fn run_hyperscale(cfg: &HyperscaleConfig, jitter: Jitter, t: &Rc<Tracer>) -> SimOutcome {
    let begun = Instant::now();
    let HyperTopo::FatTree { k } = cfg.topo else {
        panic!("ppbench runs the hyperscale scenario on a fat-tree only");
    };
    let topo = t.span("netsim.topology_s", || {
        Topology::fat_tree(k, cfg.rate, Time::from_us(1))
    });
    let sim_cfg = SimConfig {
        num_prios: 1,
        end_time: cfg.duration + Time::from_ps(cfg.duration.as_ps() / 2),
        seed: cfg.seed,
        sched: cfg.sched,
        streaming_stats: true,
        ..Default::default()
    };
    let mut sim = t.span("netsim.sim_new_s", || {
        Sim::new(&topo, sim_cfg, SwitchConfig::default())
    });
    let dist = SizeDist::websearch();
    let classifier = SizeClassifier::from_dist(&dist, cfg.classes);
    let gen = OpenLoopGen::new(
        dist,
        topo.hosts.len(),
        cfg.rate,
        cfg.load,
        Time::ZERO,
        cfg.duration,
        cfg.incast,
        cfg.seed ^ 0x09E1,
    );
    let (cc, kind, label) = match cfg.scheme {
        HyperScheme::PrioPlus => (
            prioplus_no_probe(cfg.classes),
            CcKind::PrioPlusSwift,
            "PrioPlus",
        ),
        HyperScheme::Dctcp => (
            CcSpec::D2tcp {
                deadline_factor: None,
            },
            CcKind::Dctcp,
            "DCTCP",
        ),
    };
    sim.set_arrivals(Box::new(OpenLoopSource {
        gen,
        hosts: topo.hosts.clone(),
        classifier,
        cc,
        chunk: cfg.chunk,
        buf: Vec::new(),
        jitter,
        tracer: Rc::clone(t),
    }));

    let d = drive(sim, t, begun);
    let r = &d.result;
    t.span("experiments.fold_s", || {
        let st = r
            .streaming
            .as_deref()
            .expect("streaming_stats was requested");
        let us = |ps: Option<u64>| ps.unwrap_or(0) as f64 / 1e6;
        let top = st.fct_ps_by_virt.iter().rev().find(|s| !s.is_empty());
        SimOutcome {
            label,
            cc: kind,
            pfc: true,
            setup_ns: d.setup_ns,
            pump_ns: d.pump_ns,
            counters: r.counters.clone(),
            flows_finished: st.finished,
            flows_unfinished: d.live_after_pump,
            retransmits: 0,
            completion: st.finished as f64 / r.counters.flows_total.max(1) as f64,
            fct_p50_us: us(st.fct_ps.quantile(50.0)),
            fct_p99_us: us(st.fct_ps.quantile(99.0)),
            top_class_fct_p99_us: us(top.and_then(|s| s.quantile(99.0))),
            fingerprint: fingerprint(
                &r.counters,
                [
                    st.fingerprint(),
                    st.slowdown_milli.quantile(50.0).unwrap_or(0),
                    st.slowdown_milli.quantile(99.0).unwrap_or(0),
                ]
                .into_iter(),
            ),
            digest: d.digest,
        }
    })
}

// ------------------------------------------------------------------ reps

/// Seed of everything `--seed` leaves alone (see [`Jitter`]): the
/// generated flow population and the simulator's master seed.
const FIXED_SEED: u64 = 1;

fn scaled(t: Time, div: u64) -> Time {
    Time::from_ps(t.as_ps() / div)
}

/// The config of workload 1, horizons divided by `div`.
pub fn incast_config(div: u64) -> IncastConfig {
    IncastConfig {
        senders: 64,
        classes: 8,
        flow_bytes: 10_000_000 / div,
        stagger: Time::from_us(50),
        horizon: scaled(Time::from_ms(75), div),
    }
}

/// The three configs of workload 2.
pub fn flowsched_configs(div: u64) -> Vec<FlowSchedConfig> {
    [Scheme::PrioPlusSwift, Scheme::PhysicalSwift, Scheme::D2tcp]
        .into_iter()
        .map(|scheme| FlowSchedConfig {
            duration: scaled(Time::from_us(1200), div),
            seed: FIXED_SEED,
            sched: SchedKind::Calendar,
            ..FlowSchedConfig::new(scheme, 8)
        })
        .collect()
}

/// The three configs of workload 3.
pub fn coflow_configs(div: u64) -> Vec<CoflowConfig> {
    [
        Scheme::BaselineSwift,
        Scheme::PhysicalSwift,
        Scheme::PrioPlusSwift,
    ]
    .into_iter()
    .map(|scheme| CoflowConfig {
        duration: scaled(Time::from_us(900), div),
        seed: FIXED_SEED,
        lossless: false,
        ..CoflowConfig::new(scheme, 0.7)
    })
    .collect()
}

/// The config of workload 4.
pub fn hyperscale_config(div: u64) -> HyperscaleConfig {
    HyperscaleConfig {
        duration: scaled(Time::from_us(800), div),
        seed: FIXED_SEED,
        sched: SchedKind::Calendar,
        ..HyperscaleConfig::quick(HyperScheme::PrioPlus)
    }
}

/// Run one rep of `workload`: its simulations, serially, each under the
/// same jitter stream.
pub fn run_rep(workload: Workload, seed: u64, div: u64, t: &Rc<Tracer>) -> Vec<SimOutcome> {
    let jitter = || Jitter::new(seed);
    match workload {
        Workload::IncastPp => vec![run_incast(&incast_config(div), jitter(), t)],
        Workload::FattreeFlowsched => flowsched_configs(div)
            .iter()
            .map(|c| run_flowsched(c, jitter(), t))
            .collect(),
        Workload::CoflowLossy => coflow_configs(div)
            .iter()
            .map(|c| run_coflow(c, jitter(), t))
            .collect(),
        Workload::HyperscaleOpenloop => vec![run_hyperscale(&hyperscale_config(div), jitter(), t)],
    }
}
