//! Smoke tests of the three large-scale scenarios at tiny scale: they must
//! run, complete most flows, and show the paper's qualitative orderings.
//! Then each fabric scenario's `prepare` → pump → `assemble` with the pump
//! stopped mid-run and resumed must reproduce its `run` bit for bit.

use experiments::coflowsched::{self, CoflowConfig, CoflowResult};
use experiments::flowsched::{self, FlowSchedConfig, FlowSchedResult};
use experiments::hyperscale::{self, HyperScheme, HyperTopo, HyperscaleConfig, Quantiles};
use experiments::mltrain::{self, MlConfig, MlResult};
use experiments::Scheme;
use netsim::{FlowRecord, Sim, SimResult};
use simcore::Time;
use workloads::IncastMix;

fn quick_flowsched(scheme: Scheme) -> flowsched::FlowSchedResult {
    let mut cfg = FlowSchedConfig::new(scheme, 4);
    cfg.duration = Time::from_ms(2);
    cfg.load = 0.5;
    cfg.seed = 3;
    flowsched::run(&cfg)
}

#[test]
fn flow_scheduling_prioplus_runs_and_completes() {
    let r = quick_flowsched(Scheme::PrioPlusSwift);
    assert!(r.flows.len() > 50, "too few flows: {}", r.flows.len());
    assert!(r.completion > 0.8, "completion {}", r.completion);
    // Small flows (high prio) must beat large flows on slowdown.
    let small = r.mean_slowdown(|f| f.size < 300_000).unwrap();
    let large = r.mean_slowdown(|f| f.size >= 6_000_000);
    if let Some(large) = large {
        assert!(
            small < large * 1.5,
            "small {small} should not be much worse than large {large}"
        );
    }
}

#[test]
fn flow_scheduling_physical_star_runs() {
    let r = quick_flowsched(Scheme::PhysicalStarSwift);
    assert!(r.completion > 0.8, "completion {}", r.completion);
}

#[test]
fn flow_scheduling_no_cc_triggers_pfc_storms() {
    let nocc = quick_flowsched(Scheme::PhysicalStarNoCc);
    let pp = quick_flowsched(Scheme::PrioPlusSwift);
    assert!(
        nocc.pfc_pauses > pp.pfc_pauses * 2,
        "uncontrolled injection should pause far more: {} vs {}",
        nocc.pfc_pauses,
        pp.pfc_pauses
    );
}

#[test]
fn coflow_scenario_runs_and_prioplus_beats_baseline_on_small() {
    let mut base_cfg = CoflowConfig::new(Scheme::BaselineSwift, 0.4);
    base_cfg.duration = Time::from_ms(8);
    let base = coflowsched::run(&base_cfg);
    assert!(
        base.completion > 0.5,
        "baseline completion {}",
        base.completion
    );

    let mut pp_cfg = CoflowConfig::new(Scheme::PrioPlusSwift, 0.4);
    pp_cfg.duration = Time::from_ms(8);
    let pp = coflowsched::run(&pp_cfg);
    assert!(pp.completion > 0.5, "prioplus completion {}", pp.completion);

    // High-priority (small) coflows must not be systematically hurt vs the
    // no-priority baseline.
    let hi = coflowsched::mean_speedup(&pp, &base, |c| c.class >= 4);
    if let Some(hi) = hi {
        assert!(hi > 0.85, "high-prio coflow speedup {hi} should be >= ~1");
    }
}

#[test]
fn ml_training_prioplus_interleaves_better_than_baseline() {
    let base = mltrain::run(&MlConfig::new(Scheme::BaselineSwift));
    let pp = mltrain::run(&MlConfig::new(Scheme::PrioPlusSwift));
    let b = base.iterations("all");
    let p = pp.iterations("all");
    assert!(b > 0 && p > 0, "both must make progress: {b} vs {p}");
    // PrioPlus should not be slower overall than the baseline (the paper
    // reports +13%).
    assert!(
        p as f64 >= b as f64 * 0.85,
        "PrioPlus {p} iterations vs baseline {b}"
    );
    // Every job must make progress under PrioPlus (no starvation: the paper
    // stresses that priority assignment does not create unfairness).
    for j in &pp.jobs {
        assert!(j.iterations > 0, "job {} starved", j.name);
    }
}

/// `sim` stopped at `mid` and resumed, with the flows registered and the
/// flows holding live state at `mid`.
fn split_at(mut sim: Sim, mid: Time) -> (SimResult, u64, u64) {
    sim.run_until(mid);
    let (registered, live) = (sim.flows_registered(), sim.live_flows());
    (sim.run(), registered, live)
}

/// Flows of `records` that finished before `mid` and at or after it.
fn completions_around(records: &[FlowRecord], mid: Time) -> (usize, usize) {
    let finished = records.iter().filter_map(|r| r.finish);
    let before = finished.clone().filter(|&t| t < mid).count();
    (before, finished.count() - before)
}

/// A float as its bits; `None` as a NaN no fold produces.
fn opt_bits(v: Option<f64>) -> u64 {
    v.map_or(u64::MAX, f64::to_bits)
}

fn flowsched_bits(r: &FlowSchedResult) -> Vec<u64> {
    let flows = r.flows.iter();
    let mut bits: Vec<u64> = flows
        .flat_map(|f| {
            [
                f.size,
                f.class.into(),
                opt_bits(f.slowdown),
                opt_bits(f.fct_us),
            ]
        })
        .collect();
    bits.extend([r.pfc_pauses, r.drops, r.completion.to_bits(), r.events]);
    bits
}

fn coflow_bits(r: &CoflowResult) -> Vec<u64> {
    let coflows = r.coflows.iter();
    let mut bits: Vec<u64> = coflows
        .flat_map(|c| [c.id, c.class.into(), opt_bits(c.cct_us)])
        .collect();
    bits.extend([r.completion.to_bits(), r.drops, r.retransmits]);
    bits
}

fn hyperscale_bits(r: &hyperscale::HyperscaleResult) -> Vec<u64> {
    let q = |q: &Quantiles| [q.p50, q.p90, q.p99].map(f64::to_bits);
    let mut bits = vec![
        r.flows_total,
        r.finished,
        r.finished_bytes,
        r.events,
        r.flow_live_peak,
        r.flows_reclaimed,
        r.flow_live_bytes_peak,
        r.sched_pending_peak,
        r.sched_bytes_peak,
        r.mem_budget_bytes,
        r.streaming_fingerprint,
    ];
    bits.extend(
        [&r.fct_us, &r.fct_top_class_us, &r.slowdown]
            .into_iter()
            .flat_map(q),
    );
    bits
}

fn ml_bits(r: &MlResult) -> Vec<(String, String, u64)> {
    let jobs = r.jobs.iter();
    jobs.map(|j| (j.name.clone(), j.family.clone(), j.iterations))
        .collect()
}

/// Physical+Swift with PFC on: the split falls among paused queues.
#[test]
fn flowsched_survives_a_split_pump() {
    let cfg = FlowSchedConfig {
        duration: Time::from_us(500),
        load: 0.5,
        seed: 3,
        ..FlowSchedConfig::new(Scheme::PhysicalSwift, 4)
    };
    let mid = Time::from_us(400);
    let (res, ..) = split_at(flowsched::prepare(&cfg), mid);
    let (before, after) = completions_around(&res.records, mid);
    assert!(
        before > 0 && after > 0,
        "finished {before} before, {after} after"
    );
    let split = flowsched::assemble(&res);
    assert!(split.pfc_pauses > 0, "the lossless fabric paused");
    assert_eq!(
        flowsched_bits(&split),
        flowsched_bits(&flowsched::run(&cfg))
    );
}

/// PFC off. A window this short drops nothing in the 32 MiB buffer under
/// Swift; the drop path across a split is pinned by
/// `lossy_coflow_fabric_drops_and_retransmits_without_congestion_control`.
#[test]
fn coflowsched_survives_a_split_pump() {
    let cfg = CoflowConfig {
        duration: Time::from_ms(1),
        lossless: false,
        ..CoflowConfig::new(Scheme::PrioPlusSwift, 0.7)
    };
    let mid = Time::from_ms(1);
    let (sim, plan) = coflowsched::prepare(&cfg);
    let (res, ..) = split_at(sim, mid);
    let (before, after) = completions_around(&res.records, mid);
    assert!(
        before > 0 && after > 0,
        "finished {before} before, {after} after"
    );
    let split = coflowsched::assemble(&plan, &res);
    assert_eq!(coflow_bits(&split), coflow_bits(&coflowsched::run(&cfg)));
}

/// The arrival source registers flows during the run: some after `mid`,
/// and some of those finish.
#[test]
fn hyperscale_survives_a_split_pump() {
    let cfg = HyperscaleConfig {
        topo: HyperTopo::FatTree { k: 4 },
        duration: Time::from_ms(1),
        incast: Some(IncastMix {
            period: Time::from_us(100),
            fanin: 8,
            bytes: 20_000,
        }),
        ..HyperscaleConfig::quick(HyperScheme::PrioPlus)
    };
    let mid = Time::from_us(500);
    let (res, registered, live) = split_at(hyperscale::prepare(&cfg), mid);
    assert!(registered > live, "some flow finished before {mid}");
    let split = hyperscale::assemble(&res);
    assert!(
        split.finished > registered,
        "some flow registered after {mid} finished: {} finished, {registered} registered by then",
        split.finished
    );
    assert_eq!(
        hyperscale_bits(&split),
        hyperscale_bits(&hyperscale::run(&cfg))
    );
}

/// The app launches phases during the run: some after `mid`.
#[test]
fn mltrain_survives_a_split_pump() {
    let cfg = MlConfig {
        duration: Time::from_ms(4),
        ..MlConfig::new(Scheme::PrioPlusSwift)
    };
    let mid = Time::from_ms(2);
    let (sim, jobs) = mltrain::prepare(&cfg);
    let (res, registered, _) = split_at(sim, mid);
    let (before, after) = completions_around(&res.records, mid);
    assert!(
        before > 0 && after > 0,
        "finished {before} before, {after} after"
    );
    assert!(
        (res.records.len() as u64) > registered,
        "a phase launched after {mid}"
    );
    let split = mltrain::assemble(&jobs, &res);
    assert_eq!(ml_bits(&split), ml_bits(&mltrain::run(&cfg)));
}

/// The lossy coflow fabric's drop path, which the figure's Swift schemes
/// never reach at quick scale: on the same leaf–spine and 32 MiB buffer a
/// scheme without congestion control overruns the buffer, so packets drop
/// and are retransmitted, the audit stays clean, and a split pump equals
/// the straight run.
#[test]
fn lossy_coflow_fabric_drops_and_retransmits_without_congestion_control() {
    let cfg = CoflowConfig {
        duration: Time::from_ms(1),
        lossless: false,
        ..CoflowConfig::new(Scheme::PhysicalStarNoCc, 0.7)
    };
    let (mut sim, plan) = coflowsched::prepare(&cfg);
    sim.enable_audit();
    let res = sim.run();
    let report = res.audit.as_ref().expect("audit enabled");
    assert!(report.is_clean(), "{:?}", report.violations);
    let straight = coflowsched::assemble(&plan, &res);
    assert!(
        straight.drops > 0 && straight.retransmits > 0,
        "drops {}, retransmits {}",
        straight.drops,
        straight.retransmits
    );
    let (sim, plan) = coflowsched::prepare(&cfg);
    let (res, ..) = split_at(sim, Time::from_ms(1));
    let split = coflowsched::assemble(&plan, &res);
    assert_eq!(coflow_bits(&split), coflow_bits(&straight));
}

/// Physical+Swift retransmits without losing a packet on the lossless
/// coflow fabric: its timeouts fire on data that is still in flight, and
/// the copy arrives after the original. Each such arrival adds no byte to
/// its flow's `delivered` and counts in `dup_data`, which the
/// retransmissions bound. PrioPlus+Swift retransmits nothing here, so it
/// counts none. In a 900 µs window none of Physical+Swift's 378
/// retransmissions has arrived when the run ends; in this 2 ms window
/// every one of its 1,149 has.
#[test]
fn spurious_retransmissions_arrive_as_duplicates() {
    let run = |scheme| {
        let cfg = CoflowConfig {
            duration: Time::from_ms(2),
            ..CoflowConfig::new(scheme, 0.7)
        };
        let res = coflowsched::prepare(&cfg).0.run();
        let retransmits: u64 = res.records.iter().map(|r| r.retransmits).sum();
        (res.counters.drops, res.counters.dup_data, retransmits)
    };
    let (drops, dups, retransmits) = run(Scheme::PhysicalSwift);
    assert_eq!(drops, 0, "the lossless fabric dropped");
    assert!(
        0 < dups && dups <= retransmits,
        "{dups} duplicates for {retransmits} retransmissions"
    );
    assert_eq!(run(Scheme::PrioPlusSwift), (0, 0, 0));
}
