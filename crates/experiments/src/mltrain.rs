//! The ML-cluster training scenario (Fig 12c): eight data-parallel jobs
//! (4 ResNet-class + 4 VGG-class) on a CASSINI-style 2:1 oversubscribed
//! leaf–spine fabric, communicating with ring all-reduce. Assigning each
//! model's traffic its own priority interleaves communication phases; the
//! metric is training speed (iterations completed in a fixed period)
//! relative to the no-priority Swift baseline.
//!
//! The fabric is [`crate::coflowsched`]'s leaf–spine in this scenario's
//! shape. A run is [`prepare`] (the jobs' first phases registered, the
//! closed-loop app installed) → [`Sim::run`] → [`assemble`] (iterations per
//! job, which needs the jobs beside the result); [`run`] composes them.

use netsim::sim::App;
use netsim::{FlowId, FlowSpec, NodeId, Sim, SimResult};
use simcore::{Rate, Time};
use transport::CcSpec;
use workloads::RingJob;

use crate::coflowsched::{self, CoflowConfig};
use crate::Scheme;

/// ML-training scenario parameters.
#[derive(Clone, Debug)]
pub struct MlConfig {
    /// Scheme under test.
    pub scheme: Scheme,
    /// Leaf switches.
    pub leaves: usize,
    /// Spine switches.
    pub spines: usize,
    /// Hosts per leaf.
    pub hosts_per_leaf: usize,
    /// Host link rate.
    pub host_rate: Rate,
    /// Leaf–spine link rate (2:1 oversubscription in the paper).
    pub fabric_rate: Rate,
    /// Measurement horizon.
    pub duration: Time,
    /// Gradient-size scale factor (1.0 = full ResNet/VGG sizes).
    pub model_scale: f64,
    /// Seed.
    pub seed: u64,
}

impl MlConfig {
    /// CASSINI-like cluster (24 servers, 2:1) at reduced model scale.
    pub fn new(scheme: Scheme) -> Self {
        MlConfig {
            scheme,
            leaves: 4,
            spines: 2,
            hosts_per_leaf: 6,
            host_rate: Rate::from_gbps(100),
            fabric_rate: Rate::from_gbps(150),
            duration: Time::from_ms(30),
            model_scale: 0.01,
            seed: 5,
        }
    }
}

/// Per-job outcome.
#[derive(Clone, Debug)]
pub struct JobOut {
    /// Job name.
    pub name: String,
    /// Model family ("resnet" / "vgg").
    pub family: String,
    /// Completed iterations within the horizon.
    pub iterations: u64,
}

/// Scenario result.
#[derive(Clone, Debug)]
pub struct MlResult {
    /// Per-job outcomes.
    pub jobs: Vec<JobOut>,
}

impl MlResult {
    /// Total iterations across jobs whose family matches.
    pub fn iterations(&self, family: &str) -> u64 {
        self.jobs
            .iter()
            .filter(|j| family == "all" || j.family == family)
            .map(|j| j.iterations)
            .sum()
    }
}

/// Priority classes: one per job.
const CLASSES: u8 = 8;

/// Closed-loop driver: when a job's communication phase completes, schedule
/// its next phase after the compute time. A flow's tag is its job's index.
struct AllReduceApp {
    jobs: Vec<RingJob>,
    /// Flows of each job's current phase still running.
    pending: Vec<usize>,
    cc: CcSpec,
    scheme: Scheme,
    horizon: Time,
    hosts: Vec<NodeId>,
}

impl AllReduceApp {
    fn launch_phase(&mut self, j: usize, start: Time, sim: &mut Sim) {
        let job = &self.jobs[j];
        let bytes = job.bytes_per_worker();
        let pairs = job.ring_pairs();
        self.pending[j] = pairs.len();
        for (src, dst) in pairs {
            let spec = FlowSpec {
                src: self.hosts[src],
                dst: self.hosts[dst],
                size: bytes.max(1),
                start,
                phys_prio: self.scheme.phys_prio(job.prio, CLASSES),
                virt_prio: job.prio,
                tag: j as u64,
            };
            let cc = self.cc;
            sim.add_flow(spec, |p| cc.make(p, start));
        }
    }
}

impl App for AllReduceApp {
    fn on_flow_complete(&mut self, flow: FlowId, sim: &mut Sim) {
        let j = sim.record(flow).tag as usize;
        self.pending[j] -= 1;
        if self.pending[j] == 0 {
            let next = sim.now() + self.jobs[j].compute;
            if next < self.horizon {
                self.launch_phase(j, next, sim);
            }
        }
    }
}

/// The cluster of `cfg` with every job's first phase registered and the
/// closed-loop app installed, and the jobs: 4 ResNet jobs on the four
/// highest priorities, 4 VGG jobs on the four lowest (§6.2).
pub fn prepare(cfg: &MlConfig) -> (Sim, Vec<RingJob>) {
    let fabric = CoflowConfig {
        leaves: cfg.leaves,
        spines: cfg.spines,
        hosts_per_leaf: cfg.hosts_per_leaf,
        host_rate: cfg.host_rate,
        fabric_rate: cfg.fabric_rate,
        classes: CLASSES,
        seed: cfg.seed,
        ..CoflowConfig::new(cfg.scheme, 0.0)
    };
    let (mut sim, hosts) = coflowsched::leaf_spine(&fabric, cfg.duration);
    let workers_per_job = hosts.len() / 8;
    assert!(workers_per_job >= 2, "need ≥2 workers per job");

    // Spread each job's workers across leaves (stride assignment) so rings
    // traverse the oversubscribed fabric, as in CASSINI's setup.
    let mut jobs = Vec::new();
    for i in 0..8usize {
        let workers: Vec<usize> = (0..workers_per_job).map(|w| w * 8 + i).collect();
        // ResNet jobs take the 4 highest priorities (7..4), VGG the rest.
        let job = if i < 4 {
            RingJob::resnet(
                format!("resnet-{i}"),
                workers,
                (7 - i) as u8,
                cfg.model_scale,
            )
        } else {
            RingJob::vgg(
                format!("vgg-{}", i - 4),
                workers,
                (7 - i) as u8,
                cfg.model_scale,
            )
        };
        jobs.push(job);
    }

    let mut app = AllReduceApp {
        jobs: jobs.clone(),
        pending: vec![0; jobs.len()],
        cc: cfg.scheme.cc(CLASSES, true, 2.0),
        scheme: cfg.scheme,
        horizon: cfg.duration,
        hosts,
    };
    for j in 0..jobs.len() {
        app.launch_phase(j, Time::ZERO, &mut sim);
    }
    sim.set_app(Box::new(app));
    (sim, jobs)
}

/// Fold a run of [`prepare`]'s simulation into iterations per job. A phase
/// starts once the last one finished: iterations are a job's finished flows
/// over the flows of one phase.
pub fn assemble(jobs: &[RingJob], result: &SimResult) -> MlResult {
    let mut done = vec![0u64; jobs.len()];
    for r in result.records.iter().filter(|r| r.finish.is_some()) {
        done[r.tag as usize] += 1;
    }
    MlResult {
        jobs: jobs
            .iter()
            .zip(done)
            .map(|(job, done)| JobOut {
                family: if job.name.starts_with("resnet") {
                    "resnet".into()
                } else {
                    "vgg".into()
                },
                iterations: done / job.workers.len() as u64,
                name: job.name.clone(),
            })
            .collect(),
    }
}

/// Run the scenario.
pub fn run(cfg: &MlConfig) -> MlResult {
    let (sim, jobs) = prepare(cfg);
    assemble(&jobs, &sim.run())
}
