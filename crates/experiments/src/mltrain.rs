//! The ML-cluster training scenario (Fig 12c): eight data-parallel jobs
//! (4 ResNet-class + 4 VGG-class) on a CASSINI-style 2:1 oversubscribed
//! leaf–spine fabric, communicating with ring all-reduce. Assigning each
//! model's traffic its own priority interleaves communication phases; the
//! metric is training speed (iterations completed in a fixed period)
//! relative to the no-priority Swift baseline.

use std::collections::HashMap;

use netsim::sim::App;
use netsim::{FlowId, FlowSpec, NoiseModel, Sim, SimConfig, SwitchConfig, Topology};
use simcore::{Rate, Time};
use transport::CcSpec;
use workloads::RingJob;

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

struct JobState {
    job: RingJob,
    pending: usize,
    iterations: u64,
}

/// Closed-loop driver: when a communication phase completes, count an
/// iteration and schedule the next phase after the compute time.
struct AllReduceApp {
    jobs: Vec<JobState>,
    flow_to_job: HashMap<FlowId, usize>,
    cc: CcSpec,
    single_queue: bool,
    horizon: Time,
    hosts: Vec<u32>,
}

impl AllReduceApp {
    fn launch_phase(&mut self, j: usize, start: Time, sim: &mut Sim) {
        let bytes = self.jobs[j].job.bytes_per_worker();
        let pairs = self.jobs[j].job.ring_pairs();
        let prio = self.jobs[j].job.prio;
        self.jobs[j].pending = pairs.len();
        for (src, dst) in pairs {
            let spec = FlowSpec {
                src: self.hosts[src],
                dst: self.hosts[dst],
                size: bytes.max(1),
                start,
                phys_prio: if self.single_queue { 0 } else { prio },
                virt_prio: prio,
                tag: j as u64,
            };
            let cc = self.cc;
            let id = sim.add_flow(spec, |p| cc.make(p, start));
            self.flow_to_job.insert(id, j);
        }
    }
}

impl App for AllReduceApp {
    fn on_flow_complete(&mut self, flow: FlowId, sim: &mut Sim) {
        let Some(&j) = self.flow_to_job.get(&flow) else {
            return;
        };
        self.flow_to_job.remove(&flow);
        let state = &mut self.jobs[j];
        state.pending -= 1;
        if state.pending == 0 {
            state.iterations += 1;
            let next = sim.now() + state.job.compute;
            if next < self.horizon {
                self.launch_phase(j, next, sim);
            }
        }
    }
}

/// Run the scenario: 4 ResNet jobs on the four highest priorities, 4 VGG
/// jobs on the four lowest (§6.2).
pub fn run(cfg: &MlConfig) -> MlResult {
    let topo = Topology::leaf_spine(
        cfg.leaves,
        cfg.spines,
        cfg.hosts_per_leaf,
        cfg.host_rate,
        cfg.fabric_rate,
        Time::from_us(1),
    );
    let hosts = topo.hosts.clone();
    let n_hosts = hosts.len();
    let classes = 8u8;
    let workers_per_job = n_hosts / 8;
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

    let single_queue = cfg.scheme.single_queue();
    let nq = if single_queue { 1 } else { classes };
    let sim_cfg = SimConfig {
        num_prios: nq,
        end_time: cfg.duration,
        seed: cfg.seed,
        meas_noise: NoiseModel::testbed(),
        ..Default::default()
    };
    let sw_cfg = SwitchConfig {
        buffer_bytes: 32 * 1024 * 1024,
        pfc_lossless_prios: if cfg.scheme == Scheme::PhysicalSwift {
            nq
        } else {
            0
        },
        int_enabled: cfg.scheme == Scheme::PhysicalStarHpcc,
        ..Default::default()
    };
    let mut sim = Sim::new(&topo, sim_cfg, sw_cfg);

    let mut app = AllReduceApp {
        jobs: jobs
            .into_iter()
            .map(|job| JobState {
                job,
                pending: 0,
                iterations: 0,
            })
            .collect(),
        flow_to_job: HashMap::new(),
        cc: cfg.scheme.cc(classes, true, 2.0),
        single_queue,
        horizon: cfg.duration,
        hosts,
    };
    for j in 0..app.jobs.len() {
        app.launch_phase(j, Time::ZERO, &mut sim);
    }
    // Move the app into the sim; retrieve job stats via a channel-free trick:
    // the app is owned by the sim, so collect stats through a shared cell.
    struct Shared(std::rc::Rc<std::cell::RefCell<AllReduceApp>>);
    impl App for Shared {
        fn on_flow_complete(&mut self, flow: FlowId, sim: &mut Sim) {
            self.0.borrow_mut().on_flow_complete(flow, sim);
        }
    }
    let shared = std::rc::Rc::new(std::cell::RefCell::new(app));
    sim.set_app(Box::new(Shared(shared.clone())));
    let _ = sim.run();

    let app = shared.borrow();
    MlResult {
        jobs: app
            .jobs
            .iter()
            .map(|s| JobOut {
                name: s.job.name.clone(),
                family: if s.job.name.starts_with("resnet") {
                    "resnet".into()
                } else {
                    "vgg".into()
                },
                iterations: s.iterations,
            })
            .collect(),
    }
}
