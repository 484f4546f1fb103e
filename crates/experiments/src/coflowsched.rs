//! The coflow-scheduling scenario (Fig 12ab, 15, 17, 18): Facebook-like
//! coflows plus file-request incasts at a 1:1 load ratio on a non-blocking
//! leaf–spine fabric; coflows grouped into 8 priority classes by total size
//! (smaller → higher priority). The metric is the per-coflow CCT *speedup
//! ratio* against the scenario baseline (Swift, single queue, no
//! priorities).
//!
//! A run is [`prepare`] (coflows generated, classed and registered) →
//! [`Sim::run`] → [`assemble`] (the per-coflow fold, which needs the
//! [`CoflowPlan`] beside the result); [`run`] composes them.
//! `leaf_spine` builds the fabric; [`crate::mltrain`] runs on it too.

use std::collections::{HashMap, HashSet};
use std::sync::Mutex;

use netsim::{FlowSpec, NodeId, NoiseModel, Sim, SimConfig, SimResult, SwitchConfig, Topology};
use simcore::stats::Summary;
use simcore::{Rate, Time};
use workloads::{Coflow, CoflowGen, SizeClassifier};

use crate::{Scale, Scheme};

/// Coflow scenario parameters.
#[derive(Clone, Debug, PartialEq)]
pub struct CoflowConfig {
    /// Scheme under test.
    pub scheme: Scheme,
    /// Total offered load (coflows + file requests, split 1:1).
    pub load: f64,
    /// Leaf switches.
    pub leaves: usize,
    /// Spine switches.
    pub spines: usize,
    /// Hosts per leaf.
    pub hosts_per_leaf: usize,
    /// Host link rate.
    pub host_rate: Rate,
    /// Leaf–spine link rate.
    pub fabric_rate: Rate,
    /// Arrival window; the simulation runs 2× to drain.
    pub duration: Time,
    /// Number of coflow priority groups.
    pub classes: u8,
    /// Seed (same seed ⇒ identical workload across schemes).
    pub seed: u64,
    /// File-request fan-in (paper: 20).
    pub fanin: usize,
    /// Bytes per file-request piece.
    pub piece_bytes: u64,
    /// Lossless (PFC) or lossy (drops + IRN, Fig 17).
    pub lossless: bool,
}

impl CoflowConfig {
    /// Reduced-scale defaults (paper: 16 leaves × 20 hosts, 5 pods,
    /// 100G/400G).
    pub fn new(scheme: Scheme, load: f64) -> Self {
        CoflowConfig {
            scheme,
            load,
            leaves: 4,
            spines: 4,
            hosts_per_leaf: 8,
            host_rate: Rate::from_gbps(100),
            fabric_rate: Rate::from_gbps(400),
            duration: Time::from_ms(16),
            classes: 8,
            seed: 7,
            fanin: 8,
            // A distributed-storage read ships block-sized stripes; the
            // aggregate request (fanin x piece) is elephant-class, which
            // keeps the high priority groups for genuinely small coflows.
            piece_bytes: 2_000_000,
            lossless: true,
        }
    }

    /// [`CoflowConfig::new`] at `scale`: `Full` is the paper's fabric and
    /// arrival window.
    pub fn at(scheme: Scheme, load: f64, scale: Scale) -> Self {
        let mut cfg = CoflowConfig::new(scheme, load);
        if scale == Scale::Full {
            cfg.leaves = 16;
            cfg.hosts_per_leaf = 20;
            cfg.spines = 8;
            cfg.duration = Time::from_ms(30);
            cfg.fanin = 20;
        }
        cfg
    }
}

/// Per-coflow outcome.
#[derive(Clone, Copy, Debug)]
pub struct CoflowOut {
    /// Coflow id.
    pub id: u64,
    /// Priority class (0 = lowest).
    pub class: u8,
    /// Coflow completion time (µs), when all member flows finished.
    pub cct_us: Option<f64>,
}

/// Scenario result.
#[derive(Clone, Debug)]
pub struct CoflowResult {
    /// Per-coflow outcomes.
    pub coflows: Vec<CoflowOut>,
    /// Completion fraction (coflows fully finished).
    pub completion: f64,
    /// Drops (lossy mode).
    pub drops: u64,
    /// Retransmissions (lossy mode).
    pub retransmits: u64,
}

impl CoflowResult {
    /// Map id → CCT for speedup computation.
    pub fn cct_by_id(&self) -> HashMap<u64, f64> {
        self.coflows
            .iter()
            .filter_map(|c| c.cct_us.map(|v| (c.id, v)))
            .collect()
    }
}

/// Ids of coflows that completed in every given result.
fn common_ids<'a>(results: impl IntoIterator<Item = &'a CoflowResult>) -> HashSet<u64> {
    let mut done = results.into_iter().map(|r| {
        r.coflows
            .iter()
            .filter(|c| c.cct_us.is_some())
            .map(|c| c.id)
            .collect::<HashSet<u64>>()
    });
    let mut set = done.next().unwrap_or_default();
    for ids in done {
        set.retain(|id| ids.contains(id));
    }
    set
}

/// Average CCT speedup of `result` vs `baseline` over coflows matching
/// `pred` (both runs must share the workload seed). Speedup ratio =
/// `CCT_baseline / CCT_scheme` per coflow, averaged.
pub fn mean_speedup(
    result: &CoflowResult,
    baseline: &CoflowResult,
    pred: impl Fn(&CoflowOut) -> bool,
) -> Option<f64> {
    let base = baseline.cct_by_id();
    let speedups: Summary = result
        .coflows
        .iter()
        .filter(|c| pred(c))
        .filter_map(|c| {
            let mine = c.cct_us?;
            let b = base.get(&c.id)?;
            Some(b / mine)
        })
        .collect();
    speedups.mean()
}

/// Tail (p99) CCT speedup: ratio of the p99 CCTs over matching coflows
/// (Fig 15 reports tail speedups per priority band).
pub fn tail_speedup(
    result: &CoflowResult,
    baseline: &CoflowResult,
    pred: impl Fn(&CoflowOut) -> bool,
) -> Option<f64> {
    let p99 = |r: &CoflowResult| -> Option<f64> {
        let mut ccts: Summary = r
            .coflows
            .iter()
            .filter(|c| pred(c))
            .filter_map(|c| c.cct_us)
            .collect();
        ccts.p99()
    };
    Some(p99(baseline)? / p99(result)?)
}

/// The configs of `cfg`'s run ending at `end_time`: its scheme's recipe on
/// switches that share the paper's 32 MB (no buffer effects) and reserve
/// 100 KB of PFC headroom per (port, lossless queue); PFC on if lossless.
pub(crate) fn configs(cfg: &CoflowConfig, end_time: Time) -> (SimConfig, SwitchConfig) {
    let sim_cfg = SimConfig {
        end_time,
        seed: cfg.seed,
        meas_noise: NoiseModel::testbed(),
        ..cfg.scheme.sim_config(cfg.classes)
    };
    let sw_cfg = SwitchConfig {
        pfc_enabled: cfg.lossless,
        ..cfg
            .scheme
            .switch_config(cfg.classes, 32 * 1024 * 1024, 100_000)
    };
    (sim_cfg, sw_cfg)
}

/// The leaf–spine of `cfg`, built with its [`configs`], and its hosts.
pub(crate) fn leaf_spine(cfg: &CoflowConfig, end_time: Time) -> (Sim, Vec<NodeId>) {
    let topo = Topology::leaf_spine(
        cfg.leaves,
        cfg.spines,
        cfg.hosts_per_leaf,
        cfg.host_rate,
        cfg.fabric_rate,
        Time::from_us(1),
    );
    let (sim_cfg, sw_cfg) = configs(cfg, end_time);
    (Sim::new(&topo, sim_cfg, sw_cfg), topo.hosts)
}

/// What [`assemble`] needs beyond the [`SimResult`]: each coflow's id,
/// class and start, in start order. A CCT runs from the coflow's start.
pub struct CoflowPlan(Vec<(u64, u8, Time)>);

/// The leaf–spine of `cfg` with its coflows and file requests registered,
/// one flow per member tagged with its coflow's id, and their plan.
pub fn prepare(cfg: &CoflowConfig) -> (Sim, CoflowPlan) {
    let (mut sim, hosts) = leaf_spine(cfg, cfg.duration + cfg.duration);
    let n_hosts = hosts.len();

    // Workload: coflows at load/2 + file requests at load/2 (1:1, §6.2).
    let mut gen = CoflowGen::new(n_hosts, cfg.seed ^ 0xC0F);
    let mut all: Vec<Coflow> = gen.generate_poisson(cfg.host_rate, cfg.load / 2.0, cfg.duration);
    all.extend(gen.generate_file_requests(
        cfg.host_rate,
        cfg.load / 2.0,
        cfg.fanin,
        cfg.piece_bytes,
        cfg.duration,
    ));
    all.sort_by_key(|c| c.start);

    // Classify coflows into groups by total size. Quantiles can coincide
    // (file requests share one size), so nudge duplicates up to keep the
    // full ladder of `classes` strictly-ascending boundaries. A window that
    // drew no coflow has no sizes and so no boundaries.
    let mut sizes: Vec<u64> = all.iter().map(|c| c.total_bytes()).collect();
    sizes.sort_unstable();
    let mut bounds: Vec<u64> = (1..cfg.classes as usize)
        .filter_map(|i| sizes.get(i * sizes.len() / cfg.classes as usize).copied())
        .collect();
    for i in 1..bounds.len() {
        if bounds[i] <= bounds[i - 1] {
            bounds[i] = bounds[i - 1] + 1;
        }
    }
    let classifier = SizeClassifier::from_bounds(bounds);

    // CCT-sensitive in every class: no probe-before-start (§4.4).
    let cc = cfg.scheme.cc(cfg.classes, false, 2.0);
    let mut plan = Vec::new();
    for c in &all {
        let class = classifier.priority(c.total_bytes()).min(cfg.classes - 1);
        let phys = cfg.scheme.phys_prio(class, cfg.classes);
        for f in &c.flows {
            let spec = FlowSpec {
                src: hosts[f.src],
                dst: hosts[f.dst],
                size: f.size,
                start: f.start,
                phys_prio: phys,
                virt_prio: class,
                tag: c.id,
            };
            sim.add_flow(spec, |p| cc.make(p, f.start));
        }
        plan.push((c.id, class, c.start));
    }
    (sim, CoflowPlan(plan))
}

/// Fold a run of [`prepare`]'s simulation into the scenario result: a
/// coflow's CCT is its last member's finish − its start, `None` if any
/// member was censored.
pub fn assemble(plan: &CoflowPlan, result: &SimResult) -> CoflowResult {
    let mut finish: HashMap<u64, (Time, bool)> = HashMap::new();
    for r in &result.records {
        let entry = finish.entry(r.tag).or_insert((Time::ZERO, true));
        match r.finish {
            Some(t) => entry.0 = entry.0.max(t),
            None => entry.1 = false,
        }
    }
    let coflows: Vec<CoflowOut> = plan
        .0
        .iter()
        .map(|&(id, class, start)| CoflowOut {
            id,
            class,
            cct_us: finish
                .get(&id)
                .and_then(|&(t, complete)| complete.then(|| (t - start).as_us_f64())),
        })
        .collect();
    let done = coflows.iter().filter(|c| c.cct_us.is_some()).count();
    CoflowResult {
        completion: done as f64 / coflows.len().max(1) as f64,
        drops: result.counters.drops,
        retransmits: result.records.iter().map(|r| r.retransmits).sum(),
        coflows,
    }
}

/// Run the scenario.
pub fn run(cfg: &CoflowConfig) -> CoflowResult {
    let (sim, plan) = prepare(cfg);
    assemble(&plan, &sim.run())
}

/// Finished runs keyed by their whole config (`PartialEq`, no hash: a field
/// added to [`CoflowConfig`] joins the key by itself).
type Runs = Mutex<Vec<(CoflowConfig, CoflowResult)>>;

/// Every run [`vs_baseline`] has made in this process. `fig12_70`, `fig17`
/// and `fig18` share five lossless 70 %-load runs; `repro all` simulates
/// each once. Nothing outlives the process.
static RUNS: Runs = Mutex::new(Vec::new());

/// [`run`] through `runs`: a config it holds is not simulated again, the
/// others run as one sweep over `jobs` threads and join it. The lock
/// is not held while simulating.
fn run_shared(runs: &Runs, cfgs: &[CoflowConfig], jobs: usize) -> Vec<CoflowResult> {
    fn held<'a>(
        runs: &'a [(CoflowConfig, CoflowResult)],
        cfg: &CoflowConfig,
    ) -> Option<&'a CoflowResult> {
        runs.iter().find(|(k, _)| k == cfg).map(|(_, r)| r)
    }
    let mut misses: Vec<CoflowConfig> = Vec::new();
    {
        let runs = runs.lock().expect("coflow runs poisoned");
        for cfg in cfgs {
            if held(&runs, cfg).is_none() && !misses.contains(cfg) {
                misses.push(cfg.clone());
            }
        }
    }
    let fresh = crate::sweep::run_ordered(&misses, jobs, &run);
    let mut runs = runs.lock().expect("coflow runs poisoned");
    for (cfg, r) in misses.into_iter().zip(fresh) {
        // A concurrent caller may have stored the same config meanwhile.
        if held(&runs, &cfg).is_none() {
            runs.push((cfg, r));
        }
    }
    cfgs.iter()
        .map(|cfg| held(&runs, cfg).expect("every config was run").clone())
        .collect()
}

/// Every priority class, as a `(lowest, highest)` band.
pub const OVERALL: (u8, u8) = (0, u8::MAX);
/// The class bands the coflow figures report, in column order: high
/// priorities (4–7), low priorities (0–3), overall.
pub const BANDS: [(u8, u8); 3] = [(4, 7), (0, 3), OVERALL];

/// One workload run under the no-priority Swift baseline and under each
/// scheme. Speedups are taken over the coflows that completed in *every*
/// run, otherwise schemes that starve (and censor) their slowest coflows
/// get a survivorship advantage.
pub struct Comparison {
    /// The baseline run.
    pub base: CoflowResult,
    /// The scheme runs, in the order asked for.
    pub schemes: Vec<(Scheme, CoflowResult)>,
    common: HashSet<u64>,
}

impl Comparison {
    fn in_band(&self, c: &CoflowOut, (lo, hi): (u8, u8)) -> bool {
        self.common.contains(&c.id) && (lo..=hi).contains(&c.class)
    }

    /// [`mean_speedup`] of `r` over the band's commonly completed coflows.
    pub fn mean(&self, r: &CoflowResult, band: (u8, u8)) -> Option<f64> {
        mean_speedup(r, &self.base, |c| self.in_band(c, band))
    }

    /// [`tail_speedup`] of `r` over the band's commonly completed coflows.
    pub fn tail(&self, r: &CoflowResult, band: (u8, u8)) -> Option<f64> {
        tail_speedup(r, &self.base, |c| self.in_band(c, band))
    }
}

/// Run every `template` (whatever its own `scheme` says) under
/// [`Scheme::BaselineSwift`] and under each of `schemes` — one sweep over all
/// of them — and pair each template's runs up as a [`Comparison`].
///
/// A config this process has already run through `vs_baseline` is not
/// simulated again: its stored result is used, which is the result [`run`]
/// would return. [`run`] itself stores nothing.
pub fn vs_baseline(templates: &[CoflowConfig], schemes: &[Scheme], jobs: usize) -> Vec<Comparison> {
    vs_baseline_in(&RUNS, templates, schemes, jobs)
}

/// [`vs_baseline`] over the given store of runs.
fn vs_baseline_in(
    runs: &Runs,
    templates: &[CoflowConfig],
    schemes: &[Scheme],
    jobs: usize,
) -> Vec<Comparison> {
    let cfgs: Vec<CoflowConfig> = templates
        .iter()
        .flat_map(|t| {
            std::iter::once(Scheme::BaselineSwift)
                .chain(schemes.iter().copied())
                .map(|scheme| CoflowConfig {
                    scheme,
                    ..t.clone()
                })
        })
        .collect();
    let mut outs = run_shared(runs, &cfgs, jobs).into_iter();
    templates
        .iter()
        .map(|_| {
            let base = outs.next().expect("one baseline run per template");
            let schemes: Vec<(Scheme, CoflowResult)> =
                schemes.iter().copied().zip(outs.by_ref()).collect();
            let common = common_ids(std::iter::once(&base).chain(schemes.iter().map(|(_, r)| r)));
            Comparison {
                base,
                schemes,
                common,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_scale_is_the_papers_fabric() {
        let full = CoflowConfig::at(Scheme::PrioPlusSwift, 0.7, Scale::Full);
        assert_eq!(
            (full.leaves, full.hosts_per_leaf, full.spines, full.fanin),
            (16, 20, 8, 20)
        );
        assert_eq!(full.duration, Time::from_ms(30));
        let quick = CoflowConfig::at(Scheme::PrioPlusSwift, 0.7, Scale::Quick);
        assert_eq!((quick.leaves, quick.duration), (4, Time::from_ms(16)));
    }

    #[test]
    fn a_window_without_coflows_gives_an_empty_result() {
        let cfg = CoflowConfig {
            duration: Time::from_ns(1),
            ..CoflowConfig::new(Scheme::PrioPlusSwift, 0.7)
        };
        let r = run(&cfg);
        assert!(r.coflows.is_empty());
        assert_eq!((r.completion, r.drops, r.retransmits), (0.0, 0, 0));
    }

    /// Everything a run reports, floats as bits: per coflow (id, class,
    /// CCT), then completion, drops and retransmits.
    type Bits = (Vec<(u64, u8, Option<u64>)>, u64, u64, u64);

    fn bits(r: &CoflowResult) -> Bits {
        let coflows = r
            .coflows
            .iter()
            .map(|c| (c.id, c.class, c.cct_us.map(f64::to_bits)))
            .collect();
        (coflows, r.completion.to_bits(), r.drops, r.retransmits)
    }

    /// The runs of `cmps`, baseline first, as [`bits`].
    fn runs_of(cmps: &[Comparison]) -> Vec<Bits> {
        cmps.iter()
            .flat_map(|c| std::iter::once(&c.base).chain(c.schemes.iter().map(|(_, r)| r)))
            .map(bits)
            .collect()
    }

    #[test]
    fn shared_runs_equal_fresh_runs_and_run_once() {
        let lossless = CoflowConfig {
            duration: Time::from_us(300),
            ..CoflowConfig::new(Scheme::BaselineSwift, 0.7)
        };
        let lossy = CoflowConfig {
            lossless: false,
            ..lossless.clone()
        };
        let with = |t: &CoflowConfig, scheme| CoflowConfig {
            scheme,
            ..t.clone()
        };
        use Scheme::{BaselineSwift, PhysicalSwift, PrioPlusLedbat, PrioPlusSwift};
        // Every distinct config the calls below ask for, in first-asked order.
        let distinct = [
            with(&lossless, BaselineSwift),
            with(&lossless, PhysicalSwift),
            with(&lossless, PrioPlusSwift),
            with(&lossless, PrioPlusLedbat),
            with(&lossy, BaselineSwift),
            with(&lossy, PrioPlusSwift),
        ];
        let fresh: Vec<_> = distinct.iter().map(|cfg| bits(&run(cfg))).collect();
        assert!(
            fresh
                .iter()
                .any(|(c, ..)| c.iter().any(|&(_, _, cct)| cct.is_some())),
            "the window is long enough for some coflow to finish"
        );
        let expect = |idx: &[usize]| idx.iter().map(|&i| fresh[i].clone()).collect::<Vec<_>>();

        let mut per_jobs = Vec::new();
        for jobs in [1, 2] {
            let runs = Runs::default();
            let len = || runs.lock().unwrap().len();
            let first = vs_baseline_in(
                &runs,
                std::slice::from_ref(&lossless),
                &[PhysicalSwift, PrioPlusSwift],
                jobs,
            );
            assert_eq!(runs_of(&first), expect(&[0, 1, 2]));
            assert_eq!(len(), 3);
            // Overlapping schemes: only PrioPlus+LEDBAT is new.
            let second = vs_baseline_in(
                &runs,
                std::slice::from_ref(&lossless),
                &[PrioPlusSwift, PrioPlusLedbat],
                jobs,
            );
            assert_eq!(runs_of(&second), expect(&[0, 2, 3]));
            assert_eq!(
                len(),
                4,
                "the second call ran only the config it had not seen"
            );
            // A template that differs only in `lossless` is a different run.
            let third = vs_baseline_in(
                &runs,
                &[lossy.clone(), lossless.clone()],
                &[PrioPlusSwift],
                jobs,
            );
            assert_eq!(runs_of(&third), expect(&[4, 5, 0, 2]));
            assert_eq!(len(), 6);
            per_jobs.push([first, second, third].map(|c| runs_of(&c)));
        }
        assert_eq!(per_jobs[0], per_jobs[1], "jobs 1 and 2 agree");
        // The process-wide store answers the same.
        let shared = vs_baseline(&[lossless], &[PhysicalSwift, PrioPlusLedbat], 2);
        assert_eq!(runs_of(&shared), expect(&[0, 1, 3]));
    }
}
